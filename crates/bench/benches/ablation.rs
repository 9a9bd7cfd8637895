//! Ablations over the design choices DESIGN.md calls out:
//!
//! * batch (clique-based) vs streaming (Algorithms 1–3) weak construction;
//! * typed-summary semantics: implementation (Figure 7) vs literal
//!   Definition 13.

use criterion::{criterion_group, criterion_main, Criterion};
use rdfsum_core::typed::typed_weak_summary_with;
use rdfsum_core::{weak_summary, TypedSemantics};
use rdfsum_experiments::{streaming_typed_weak_summary, streaming_weak_summary};
use rdfsum_workloads::BsbmConfig;
use std::hint::black_box;
use std::time::Duration;

fn bench_builders(c: &mut Criterion) {
    let g = rdfsum_workloads::generate_bsbm(&BsbmConfig::with_products(300));
    let mut group = c.benchmark_group("ablation_weak_builders");
    group.bench_function("batch", |b| b.iter(|| black_box(weak_summary(&g))));
    group.bench_function("streaming", |b| {
        b.iter(|| black_box(streaming_weak_summary(&g)))
    });
    group.finish();
}

fn bench_typed_semantics(c: &mut Criterion) {
    let g = rdfsum_workloads::generate_bsbm(&BsbmConfig::with_products(300));
    let mut group = c.benchmark_group("ablation_typed_weak");
    group.bench_function("implementation_semantics", |b| {
        b.iter(|| {
            black_box(typed_weak_summary_with(
                &g,
                TypedSemantics::ImplementationFigure7,
            ))
        })
    });
    group.bench_function("literal_def13_semantics", |b| {
        b.iter(|| {
            black_box(typed_weak_summary_with(
                &g,
                TypedSemantics::LiteralDefinition13,
            ))
        })
    });
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
