//! # rdfsum-experiments — the paper's evaluation artefacts
//!
//! What *“Query-Oriented Summarization of RDF Graphs”* uses to evaluate
//! and argue about its summaries, as opposed to what a server needs to
//! build and query them. Nothing here is served: no `SummaryService`,
//! `serve` or repository-benchmark path reaches this crate — only the
//! CLI's `check`, the figure binaries, the examples and the test suites
//! do — so `rdfsum-core` and `rdfsum-server` build without it.
//!
//! | module | paper artefact |
//! |--------|----------------|
//! | [`streaming`] | §6.2 Algorithms 1–3, the one-pass weak / typed-weak builders timed in Fig. 13 |
//! | [`distance`] | Definition 6, property distance within a clique (Table 1) |
//! | [`saturated_cliques`] | saturated cliques `C⁺` and Lemma 1 (cliques of `G` fuse into those of `G∞`) |
//! | [`mod@inflate`] | Definition 2 / Prop. 3: constructive members of a summary's inverse set |
//! | [`iso`] | summary equality up to minted-node renaming, the `=` of Props. 2 and 5–10 |
//! | [`checks`] | Prop. 1 (representativeness), Props. 2/6/9 (fixpoint), Props. 5/8 and 7/10 (completeness and its counter-examples) |
//! | [`mod@reference`] | the hash-map builders of every kind, kept as the golden-equivalence oracle of the dense pipeline |
//! | [`bisim`] | §8's related-work baseline: forward–backward bisimulation quotients (`FB`), for size and pruning comparisons |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bisim;
pub mod checks;
pub mod distance;
pub mod inflate;
pub mod iso;
pub mod reference;
pub mod saturated_cliques;
pub mod streaming;

pub use bisim::{bisim_partition, bisim_summary, BisimDepth};
pub use checks::{
    can_prune, check_representativeness, completeness_check, completeness_checks, fixpoint_holds,
    CompletenessCheck, RepresentativenessReport,
};
pub use inflate::{inflate, InflateConfig};
pub use iso::summary_isomorphic;
pub use reference::{reference_summary, reference_summary_with};
pub use saturated_cliques::{fuse_cliques, saturated_clique, verify_lemma1};
pub use streaming::{streaming_typed_weak_summary, streaming_weak_summary};

#[cfg(test)]
mod proptests {
    use super::{
        check_representativeness, completeness_check, fixpoint_holds, streaming_typed_weak_summary,
        streaming_weak_summary, summary_isomorphic,
    };
    use proptest::prelude::*;
    use rdf_model::Graph;
    use rdfsum_core::fixtures::fragment_graph;
    use rdfsum_core::{summarize, SummaryContext, SummaryKind};

    fn arb_graph() -> impl Strategy<Value = Graph> {
        (
            proptest::collection::vec((0u8..8, 0u8..4, 0u8..8), 1..24),
            proptest::collection::vec((0u8..8, 0u8..3), 0..8),
            proptest::collection::vec((0u8..4, 0u8..3), 0..3),
            proptest::collection::vec((0u8..4, 0u8..3), 0..3),
        )
            .prop_map(|(d, t, sp, dom)| fragment_graph(&d, &t, &sp, &dom))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Proposition 2 (fixpoint) for all kinds on random graphs.
        #[test]
        fn prop2_fixpoint(g in arb_graph()) {
            for kind in SummaryKind::ALL {
                prop_assert!(fixpoint_holds(&g, kind), "{kind}");
            }
        }

        /// Propositions 5 and 8 (weak/strong completeness) on random
        /// graphs with random ≺sp and domain constraints.
        #[test]
        fn prop5_prop8_completeness(g in arb_graph()) {
            prop_assert!(completeness_check(&g, SummaryKind::Weak).holds);
            prop_assert!(completeness_check(&g, SummaryKind::Strong).holds);
        }

        /// Streaming and batch weak builders agree on random graphs.
        #[test]
        fn streaming_equals_batch(g in arb_graph()) {
            let a = summarize(&g, SummaryKind::Weak);
            let b = streaming_weak_summary(&g);
            prop_assert!(summary_isomorphic(&a.graph, &b.graph));
            let tw_a = summarize(&g, SummaryKind::TypedWeak);
            let tw_b = streaming_typed_weak_summary(&g);
            prop_assert!(summary_isomorphic(&tw_a.graph, &tw_b.graph));
        }

        /// Golden equivalence: every dense-pipeline summary is
        /// triple-for-triple and naming-identical to the preserved
        /// pre-refactor (hash-map) builder on random graphs.
        #[test]
        fn dense_pipeline_matches_reference(g in arb_graph()) {
            use crate::reference::reference_summary;
            let canon = |s: &rdfsum_core::Summary| {
                let mut v: Vec<String> =
                    rdf_io::write_graph(&s.graph).lines().map(String::from).collect();
                v.sort();
                v
            };
            let ctx = SummaryContext::new(&g);
            for kind in [
                SummaryKind::Weak,
                SummaryKind::Strong,
                SummaryKind::TypedWeak,
                SummaryKind::TypedStrong,
                SummaryKind::TypeBased,
            ] {
                let dense = ctx.summarize(kind);
                let oracle = reference_summary(&g, kind);
                prop_assert_eq!(canon(&dense), canon(&oracle), "{}", kind);
            }
        }

        /// Lemma 1 on random graphs with random ≺sp constraints: the
        /// C⁺-predicted clique fusion matches the cliques of G∞.
        #[test]
        fn lemma1_on_random_graphs(g in arb_graph()) {
            let (src, tgt) = crate::saturated_cliques::verify_lemma1(&g);
            prop_assert!(src.holds(), "source side");
            prop_assert!(tgt.holds(), "target side");
        }

        /// Inverse-set witnesses: inflating a weak summary and
        /// re-summarizing reproduces it (Prop. 3's accuracy, constructive).
        #[test]
        fn inflation_roundtrip(g in arb_graph(), seed in 0u64..100) {
            let w = summarize(&g, SummaryKind::Weak);
            let cfg = crate::inflate::InflateConfig { seed, ..Default::default() };
            prop_assert!(crate::inflate::reproduces_through_inflation(&w, &cfg));
        }

        /// Representativeness (Prop. 1) on sampled workloads over random
        /// graphs, for all four summaries.
        #[test]
        fn prop1_representativeness(g in arb_graph(), seed in 0u64..1000) {
            let store = rdf_store::TripleStore::new(g.clone());
            let queries = rdf_query::sample_rbgp_queries(
                &store,
                &rdf_query::WorkloadConfig {
                    queries: 8,
                    patterns_per_query: 3,
                    seed,
                    ..Default::default()
                },
            );
            for kind in SummaryKind::ALL {
                let s = summarize(&g, kind);
                let rep = check_representativeness(&g, &s, &queries);
                prop_assert!(
                    rep.all_held(),
                    "violations for {}: {:?}",
                    kind,
                    rep.violations
                );
            }
        }
    }
}
