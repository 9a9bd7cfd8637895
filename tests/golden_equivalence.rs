//! Golden-equivalence suite for the dense summarization pipeline.
//!
//! The `SummaryContext` refactor replaced every per-node hash map in the
//! clique/partition/quotient stack with `Vec`-indexed dense arrays. These
//! tests pin the refactor down: on the paper's book graph, BSBM, LUBM and
//! every `shapes` generator, each of the five summaries produced by the
//! dense pipeline must be **triple-for-triple and naming-identical** to
//! the preserved pre-refactor builders (`rdfsum_experiments::reference`), which
//! still use the original hash-map implementation.

use rdfsummary::rdf_io::write_graph;
use rdfsummary::rdfsum_core::{Summary, SummaryContext, SummaryKind};
use rdfsummary::rdfsum_experiments::reference_summary;
use rdfsummary::rdfsum_workloads as workloads;
use workloads::{shapes, BsbmConfig, LubmConfig};

/// All five summaries the dense pipeline builds.
const KINDS: [SummaryKind; 5] = [
    SummaryKind::Weak,
    SummaryKind::Strong,
    SummaryKind::TypedWeak,
    SummaryKind::TypedStrong,
    SummaryKind::TypeBased,
];

/// Canonical N-Triples lines: equal ⇔ triple-for-triple and
/// naming-identical (every minted URI matches literally).
fn canonical(s: &Summary) -> Vec<String> {
    let mut v: Vec<String> = write_graph(&s.graph).lines().map(String::from).collect();
    v.sort();
    v
}

fn assert_golden(name: &str, g: &rdfsummary::rdf_model::Graph) {
    let ctx = SummaryContext::new(g);
    for kind in KINDS {
        let dense = ctx.summarize(kind);
        let oracle = reference_summary(g, kind);
        assert_eq!(
            canonical(&dense),
            canonical(&oracle),
            "dense {kind} summary diverged from the pre-refactor oracle on {name}"
        );
        // The correspondence maps stay well-formed too.
        assert!(dense.check_correspondence_invariants(), "{name}/{kind}");
    }
}

#[test]
fn golden_book_graph() {
    let g = rdfsummary::rdfsum_core::fixtures::book_graph();
    assert_golden("book_graph", &g);
}

#[test]
fn golden_paper_sample_and_figures() {
    use rdfsummary::rdfsum_core::fixtures;
    for (name, g) in [
        ("sample_graph", fixtures::sample_graph()),
        ("figure5", fixtures::figure5_graph()),
        ("figure8", fixtures::figure8_graph()),
        ("figure10", fixtures::figure10_graph()),
    ] {
        assert_golden(name, &g);
    }
}

#[test]
fn golden_bsbm() {
    let g = workloads::generate_bsbm(&BsbmConfig {
        products: 60,
        seed: 0xBEEF,
        ..Default::default()
    });
    assert!(g.len() > 3_000, "BSBM graph unexpectedly small");
    assert_golden("bsbm_60", &g);
}

#[test]
fn golden_lubm() {
    let g = workloads::generate_lubm(&LubmConfig {
        universities: 1,
        seed: 0xCE,
        ..Default::default()
    });
    assert!(g.len() > 1_000, "LUBM graph unexpectedly small");
    assert_golden("lubm_1", &g);
}

#[test]
fn golden_shapes_star() {
    assert_golden("star_300", &shapes::star(300));
}

#[test]
fn golden_shapes_chain() {
    assert_golden("chain_300", &shapes::chain(300));
}

#[test]
fn golden_shapes_weak_chain() {
    assert_golden("weak_chain_80", &shapes::weak_chain(80));
}

#[test]
fn golden_shapes_random() {
    for seed in [1u64, 42, 0xABCD] {
        let g = shapes::random(&shapes::RandomConfig {
            seed,
            ..Default::default()
        });
        assert_golden(&format!("random_{seed:#x}"), &g);
    }
}
