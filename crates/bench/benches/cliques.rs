//! Property-clique computation: the paper's observation that "building
//! strong summaries also requires actually computing the cliques, whereas
//! for the weak ones, this is not needed" makes clique cost the key
//! difference between the W and S build paths.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rdfsum_core::{CliqueScope, Cliques};
use rdfsum_workloads::{shapes, BsbmConfig};
use std::hint::black_box;
use std::time::Duration;

fn bench_cliques(c: &mut Criterion) {
    let g = rdfsum_workloads::generate_bsbm(&BsbmConfig::with_products(300));
    let mut group = c.benchmark_group("cliques_bsbm_30k");
    group.throughput(Throughput::Elements(g.data().len() as u64));
    group.bench_function("all_nodes", |b| {
        b.iter(|| black_box(Cliques::compute(&g, CliqueScope::AllNodes)))
    });
    group.bench_function("untyped_only", |b| {
        b.iter(|| black_box(Cliques::compute(&g, CliqueScope::UntypedOnly)))
    });
    group.finish();
}

/// The sequential scan at the scale the sharded substrate takes over
/// (BSBM ~160k data triples; its shard-count rows are in `sharded`).
fn bench_cliques_large(c: &mut Criterion) {
    let g = rdfsum_workloads::generate_bsbm(&BsbmConfig::with_products(2_000));
    let mut group = c.benchmark_group("cliques_bsbm_200k");
    group.throughput(Throughput::Elements(g.data().len() as u64));
    group.bench_function("all_nodes", |b| {
        b.iter(|| black_box(Cliques::compute(&g, CliqueScope::AllNodes)))
    });
    group.finish();
}

fn bench_pathological(c: &mut Criterion) {
    let mut group = c.benchmark_group("cliques_shapes");
    let star = shapes::star(5_000);
    group.bench_function("star_5k", |b| {
        b.iter(|| black_box(Cliques::compute(&star, CliqueScope::AllNodes)))
    });
    let chain = shapes::weak_chain(2_500);
    group.bench_function("weak_chain_2500", |b| {
        b.iter(|| black_box(Cliques::compute(&chain, CliqueScope::AllNodes)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_cliques, bench_cliques_large, bench_pathological
}
criterion_main!(benches);
