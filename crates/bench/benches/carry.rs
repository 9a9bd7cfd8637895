//! `carry_offer` and `carry_delete`: what one insert or delete `UPDATE`
//! costs the service with `w` and `tw` warm, on BSBM with 2 000 products
//! (≈ 200 k triples) at two threads — the `explore_update` workload's
//! graph and writer — end to end through `SummaryService::update`: store
//! merge, substrate absorb or retract, and the carry of both kinds.
//!
//! Each `carry_offer` iteration inserts a new offer shaped like the
//! workload writer's. On the `patched` row the quotient maps extend by it:
//! the offer, its price and dates are new members of existing classes
//! along existing edges, so both summaries stay as they were. On the
//! `rebuilt` row the offer's web page hangs off a property of its own,
//! which no map can absorb, so both kinds are rebuilt from the kept
//! substrate — what every insert cost before the maps.
//!
//! Each `carry_delete` iteration inserts such an offer, untimed, and times
//! its delete, the writer's: the whole offer goes. On the `patched` row
//! the substrate retracts it and both maps shrink by it — no class empties
//! or loses its first member, every summary edge keeps a loaded offer as
//! witness. On the `rebuilt` row the page's property of its own loses its
//! last row, which no substrate can retract, so both kinds are rebuilt
//! from a new scan — what every delete cost before the retract.

use criterion::{criterion_group, criterion_main, Criterion};
use rdf_model::vocab::{RDF_TYPE, XSD_DATE, XSD_DECIMAL, XSD_INTEGER};
use rdf_model::Term;
use rdfsum_core::{SummaryKind, SummaryService};
use rdfsum_workloads::bsbm::{BSBM_NS, INST_NS};
use rdfsum_workloads::BsbmConfig;
use std::hint::black_box;
use std::time::{Duration, Instant};

const PRODUCTS: usize = 2000;

/// Offer `i`'s eight statements; `page` names the property of its web
/// page.
fn offer(i: usize, page: &str) -> Vec<(Term, Term, Term)> {
    let id = 10_000_000 + i;
    let s = Term::iri(format!("{INST_NS}Offer{id}"));
    let v = |local: &str| Term::iri(format!("{BSBM_NS}{local}"));
    let day = 1 + i % 27;
    [
        (Term::iri(RDF_TYPE), v("Offer")),
        (
            v("product"),
            Term::iri(format!("{INST_NS}Product{}", i * 7 % PRODUCTS)),
        ),
        (
            v("vendor"),
            Term::iri(format!("{INST_NS}Vendor{}", i % (PRODUCTS / 50))),
        ),
        (
            v("price"),
            Term::typed_literal(format!("{}.{:02}", 5 + i % 8995, i % 99), XSD_DECIMAL),
        ),
        (
            v("validFrom"),
            Term::typed_literal(format!("2015-01-{day:02}"), XSD_DATE),
        ),
        (
            v("validTo"),
            Term::typed_literal(format!("2015-06-{day:02}"), XSD_DATE),
        ),
        (
            v("deliveryDays"),
            Term::typed_literal(format!("{}", 1 + i % 13), XSD_INTEGER),
        ),
        (
            v(page),
            Term::literal(format!("http://vendor.example.org/offers/{id}")),
        ),
    ]
    .into_iter()
    .map(|(p, o)| (s.clone(), p, o))
    .collect()
}

/// A service over `g` with `w` and `tw` warm.
fn warm(g: &rdf_model::Graph) -> SummaryService {
    let service = SummaryService::new(2);
    service.load_graph("g", g.clone());
    for kind in [SummaryKind::Weak, SummaryKind::TypedWeak] {
        service.summarize("g", kind).unwrap();
    }
    service
}

/// The web page property of offer `i` on a row: the writer's, shared by
/// every offer, or one of the offer's own.
fn page(patched: usize, i: usize) -> String {
    match patched {
        2 => "offerWebpage".to_string(),
        _ => format!("offerWebpage{i}"),
    }
}

fn bench_carry(c: &mut Criterion) {
    let g = rdfsum_workloads::generate_bsbm(&BsbmConfig::with_products(PRODUCTS));
    let mut group = c.benchmark_group("carry_offer");
    for (row, patched) in [("patched", 2), ("rebuilt", 0)] {
        let service = warm(&g);
        let mut i = 0;
        group.bench_function(format!("{row}/bsbm_200k"), |b| {
            b.iter(|| {
                let out = service
                    .update("g", true, &offer(i, &page(patched, i)))
                    .unwrap();
                assert_eq!(
                    (out.patched, out.rebuilt),
                    (patched, 2 - patched),
                    "offer {i}"
                );
                i += 1;
                black_box(out.fingerprint)
            })
        });
    }
    group.finish();
    let mut group = c.benchmark_group("carry_delete");
    for (row, patched) in [("patched", 2), ("rebuilt", 0)] {
        let service = warm(&g);
        let mut i = 0;
        group.bench_function(format!("{row}/bsbm_200k"), |b| {
            b.iter_custom(|iters| {
                let mut timed = Duration::ZERO;
                for _ in 0..iters {
                    let statements = offer(i, &page(patched, i));
                    service.update("g", true, &statements).unwrap();
                    let start = Instant::now();
                    let out = service.update("g", false, &statements).unwrap();
                    timed += start.elapsed();
                    assert_eq!(
                        (out.applied, out.patched, out.rebuilt),
                        (8, patched, 2 - patched),
                        "offer {i}"
                    );
                    i += 1;
                    black_box(out.fingerprint);
                }
                timed
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_carry
}
criterion_main!(benches);
