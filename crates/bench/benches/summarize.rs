//! Figure 13 micro-benchmark: construction time of the four summaries on
//! BSBM data (per-scale wall-clock is in the `fig13_time` binary; this
//! gives statistically robust per-summary numbers at one scale).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rdfsum_core::{summarize, SummaryContext, SummaryKind};
use rdfsum_workloads::BsbmConfig;
use std::hint::black_box;
use std::time::Duration;

fn bench_summaries(c: &mut Criterion) {
    let g = rdfsum_workloads::generate_bsbm(&BsbmConfig::with_products(300));
    let mut group = c.benchmark_group("summarize_bsbm_30k");
    group.throughput(Throughput::Elements(g.len() as u64));
    for kind in SummaryKind::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(kind), &kind, |b, &kind| {
            b.iter(|| black_box(summarize(&g, kind)))
        });
    }
    group.finish();
}

/// The shared-context payoff: all four summaries via one `SummaryContext`
/// (cliques computed at most twice) vs four independent `summarize` calls
/// (each rebuilding its own substrate).
fn bench_summarize_all(c: &mut Criterion) {
    let g = rdfsum_workloads::generate_bsbm(&BsbmConfig::with_products(300));
    let mut group = c.benchmark_group("summarize_all_bsbm_30k");
    group.throughput(Throughput::Elements(g.len() as u64));
    group.bench_function("independent", |b| {
        b.iter(|| {
            let all: Vec<_> = SummaryKind::ALL
                .iter()
                .map(|&kind| summarize(&g, kind))
                .collect();
            black_box(all)
        })
    });
    group.bench_function("shared_context", |b| {
        b.iter(|| {
            let ctx = SummaryContext::new(&g);
            let all: Vec<_> = SummaryKind::ALL
                .iter()
                .map(|&kind| ctx.summarize(kind))
                .collect();
            black_box(all)
        })
    });
    group.finish();
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("weak_scaling");
    for products in [100usize, 400, 1600] {
        let g = rdfsum_workloads::generate_bsbm(&BsbmConfig::with_products(products));
        group.throughput(Throughput::Elements(g.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(g.len()), &g, |b, g| {
            b.iter(|| black_box(summarize(g, SummaryKind::Weak)))
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
    targets = bench_summaries, bench_summarize_all, bench_scaling
}
criterion_main!(benches);
