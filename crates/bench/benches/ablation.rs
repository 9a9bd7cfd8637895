//! Ablations over two choices the paper's §6 implementation makes:
//!
//! * batch (clique-based) vs streaming (Algorithms 1–3) weak construction;
//! * typed-summary semantics: implementation (Figure 7, relatedness from
//!   untyped resources only) vs literal Definition 13 (from every
//!   co-occurrence). Both readings are timed through the one builder that
//!   has both, the hash-map oracle, so the rows differ by the reading only.

use criterion::{criterion_group, criterion_main, Criterion};
use rdfsum_core::{summarize, CliqueScope, SummaryKind};
use rdfsum_experiments::{
    reference_summary_with, streaming_typed_weak_summary, streaming_weak_summary,
};
use rdfsum_workloads::BsbmConfig;
use std::hint::black_box;
use std::time::Duration;

fn bench_builders(c: &mut Criterion) {
    let g = rdfsum_workloads::generate_bsbm(&BsbmConfig::with_products(300));
    let mut group = c.benchmark_group("ablation_weak_builders");
    group.bench_function("batch", |b| {
        b.iter(|| black_box(summarize(&g, SummaryKind::Weak)))
    });
    group.bench_function("streaming", |b| {
        b.iter(|| black_box(streaming_weak_summary(&g)))
    });
    group.finish();
}

fn bench_typed_semantics(c: &mut Criterion) {
    let g = rdfsum_workloads::generate_bsbm(&BsbmConfig::with_products(300));
    let mut group = c.benchmark_group("ablation_typed_weak");
    for (name, scope) in [
        ("implementation_semantics", CliqueScope::UntypedOnly),
        ("literal_def13_semantics", CliqueScope::AllNodes),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(reference_summary_with(&g, SummaryKind::TypedWeak, scope)))
        });
    }
    group.bench_function("streaming_type_first", |b| {
        b.iter(|| black_box(streaming_typed_weak_summary(&g)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_builders, bench_typed_semantics
}
criterion_main!(benches);
