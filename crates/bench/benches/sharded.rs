//! `substrate_scan` and `substrate_absorb_8`: the one pass every summary
//! build starts from. `substrate_scan/{bsbm_30k,bsbm_200k}` is a cold
//! [`Substrate::scan`] — numbering, both scopes' union–finds, class sets —
//! plus the derivation of both scopes' cliques from it: what a graph's
//! first build, and the first build after a delete, pays before
//! partitioning. `substrate_absorb_8` is what an insert `UPDATE` pays
//! instead: a kept substrate absorbing one 8-triple offer (a new typed
//! subject, seven data triples) that the graph has just been given.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rdf_model::{vocab, Graph, Term};
use rdfsum_core::{CliqueScope, Substrate};
use rdfsum_workloads::BsbmConfig;
use std::hint::black_box;
use std::time::Duration;

/// A scan and both clique derivations: the complete pre-partition span.
fn scan_cost(g: &Graph) -> usize {
    let substrate = Substrate::scan(g);
    substrate
        .cliques(CliqueScope::AllNodes)
        .source_cliques
        .len()
        + substrate
            .cliques(CliqueScope::UntypedOnly)
            .source_cliques
            .len()
}

/// Gives `g` the `i`-th offer: a new subject, its type, and seven data
/// triples, two of them into loaded resources.
fn insert_offer(g: &mut Graph, i: usize) {
    let offer = Term::iri(format!("urn:bench:offer{i}"));
    let loaded = |g: &Graph, k: usize| {
        let t = g.data()[(i * 7 + k) * 31 % g.data().len()];
        g.dict().decode(t.s).to_term()
    };
    let objects = [
        loaded(g, 0),
        loaded(g, 1),
        Term::literal(format!("{i}.99")),
        Term::literal(format!("2015-01-{:02}", i % 28)),
        Term::literal(format!("2015-06-{:02}", i % 28)),
        Term::literal(format!("{}", i % 14)),
        Term::literal(format!("http://vendor.example.org/offers/{i}")),
    ];
    g.insert(
        offer.clone(),
        Term::iri(vocab::RDF_TYPE),
        Term::iri("urn:bench:Offer"),
    )
    .expect("a well-formed type triple");
    for (k, object) in objects.into_iter().enumerate() {
        g.insert(
            offer.clone(),
            Term::iri(format!("urn:bench:offerP{k}")),
            object,
        )
        .expect("a well-formed data triple");
    }
}

fn bench_substrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_scan");
    let mut largest = None;
    for (label, products) in [("bsbm_30k", 300usize), ("bsbm_200k", 2000usize)] {
        let g = rdfsum_workloads::generate_bsbm(&BsbmConfig::with_products(products));
        group.throughput(Throughput::Elements(g.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(label), &g, |b, g| {
            b.iter(|| black_box(scan_cost(g)))
        });
        largest = Some(g);
    }
    group.finish();

    // The absorb row times the graph insert too (eight hash probes): the
    // substrate cannot be asked to absorb rows the graph does not hold.
    let mut g = largest.expect("two scales");
    let mut kept = Substrate::scan(&g);
    let mut i = 0;
    let mut group = c.benchmark_group("substrate_absorb_8");
    group.bench_function("bsbm_200k", |b| {
        b.iter(|| {
            insert_offer(&mut g, i);
            i += 1;
            kept.absorb(&g)
                .expect("an offer is a batch a prefix carries");
        })
    });
    group.finish();
    assert!(kept.covers(&g));
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_substrate
}
criterion_main!(benches);
