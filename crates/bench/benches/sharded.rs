//! `sharded_substrate` group: cost of the numbering + clique substrate
//! build — the two stages the shard-mergeable architecture parallelizes —
//! at forced shard counts 1/2/4 on BSBM at two scales. Shard count 1 is
//! the one-shard context every graph below the shard floor gets, so the
//! `*/1` rows are what decided how that context fills its CSR.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rdfsum_core::{CliqueScope, SummaryContext};
use rdfsum_workloads::BsbmConfig;
use std::hint::black_box;
use std::time::Duration;

/// Builds the full substrate and forces the (all-nodes) clique sweep —
/// numbering, CSR fill, and cliques, the complete shard-parallel span.
fn substrate_cost(ctx: &SummaryContext<'_>) -> usize {
    ctx.cliques(CliqueScope::AllNodes).source_cliques.len()
}

fn bench_sharded_substrate(c: &mut Criterion) {
    for (label, products) in [("bsbm_30k", 300usize), ("bsbm_200k", 2000usize)] {
        let g = rdfsum_workloads::generate_bsbm(&BsbmConfig::with_products(products));
        let mut group = c.benchmark_group("sharded_substrate");
        group.throughput(Throughput::Elements(g.len() as u64));
        for shards in [1usize, 2, 4] {
            group.bench_with_input(BenchmarkId::new(label, shards), &shards, |b, &shards| {
                b.iter(|| {
                    let ctx = SummaryContext::sharded_forced(&g, shards);
                    black_box(substrate_cost(&ctx))
                })
            });
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_sharded_substrate
}
criterion_main!(benches);
