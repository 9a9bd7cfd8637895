//! H-graph construction cost, isolated: given a fixed partition, how much
//! does emitting the summary graph cost — and how much of that was the
//! eager minted-URI strings?
//!
//! `minted` runs the production path (symbolic [`rdf_model::Term::Minted`]
//! keys, lazy rendering); `string` replays the pre-symbolic behavior by
//! minting the same names through the eager [`rdfsum_core::naming::n_uri`]
//! formatter. Both go through the identical quotient operator, so the
//! delta is purely the string round-trips this bench group exists to keep
//! dead. The strong partition is used because it mints the most nodes of
//! the clique-based summaries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rdf_model::{Term, TermId};
use rdfsum_core::equivalence::strong_partition;
use rdfsum_core::naming::{n_uri, Namer};
use rdfsum_core::quotient::quotient_summary;
use rdfsum_core::{CliqueScope, Cliques, SummaryContext};
use rdfsum_workloads::BsbmConfig;
use std::hint::black_box;
use std::time::Duration;

fn signature_sets(cliques: &Cliques, node: TermId) -> (&[TermId], &[TermId]) {
    let tc = cliques
        .tc(node)
        .map(|i| cliques.target_members(i))
        .unwrap_or(&[]);
    let sc = cliques
        .sc(node)
        .map(|i| cliques.source_members(i))
        .unwrap_or(&[]);
    (tc, sc)
}

fn bench_h_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("quotient_h_graph");
    for (label, products) in [("bsbm_30k", 300usize), ("bsbm_200k", 2000usize)] {
        let g = rdfsum_workloads::generate_bsbm(&BsbmConfig::with_products(products));
        let ctx = SummaryContext::new(&g);
        let cliques = ctx.cliques(CliqueScope::AllNodes);
        let partition = strong_partition(cliques, ctx.data_nodes());
        group.throughput(Throughput::Elements(g.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("minted", label),
            &(&g, &partition),
            |b, (g, partition)| {
                b.iter(|| {
                    let mut namer = Namer::new(g.dict());
                    black_box(quotient_summary(g, partition, |_, m| {
                        let (tc, sc) = signature_sets(cliques, m[0]);
                        namer.n_term(tc, sc)
                    }))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("string", label),
            &(&g, &partition),
            |b, (g, partition)| {
                b.iter(|| {
                    black_box(quotient_summary(g, partition, |_, m| {
                        let (tc, sc) = signature_sets(cliques, m[0]);
                        Term::iri(n_uri(g.dict(), tc, sc))
                    }))
                })
            },
        );
        // The minting seam in isolation: exactly what the quotient's
        // class-node loop does — one name minted and interned per
        // partition class. `naming_minted` vs `naming_string` is the
        // per-class cost of the URI round-trips this PR removed.
        let reps: Vec<TermId> = partition.classes.iter().map(|m| m[0]).collect();
        group.bench_with_input(
            BenchmarkId::new("naming_minted", label),
            &reps,
            |b, reps| {
                b.iter(|| {
                    let mut dict = rdf_model::Dictionary::new();
                    let mut namer = Namer::new(g.dict());
                    for &rep in reps {
                        let (tc, sc) = signature_sets(cliques, rep);
                        black_box(dict.encode(namer.n_term(tc, sc)));
                    }
                    black_box(dict.len())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("naming_string", label),
            &reps,
            |b, reps| {
                b.iter(|| {
                    let mut dict = rdf_model::Dictionary::new();
                    for &rep in reps {
                        let (tc, sc) = signature_sets(cliques, rep);
                        black_box(dict.encode(Term::iri(n_uri(g.dict(), tc, sc))));
                    }
                    black_box(dict.len())
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_h_graph
}
criterion_main!(benches);
