//! # rdfsum-core — query-oriented RDF graph summaries
//!
//! A faithful Rust implementation of the summarization framework of
//! *“Query-Oriented Summarization of RDF Graphs”* (Čebirić, Goasdoué,
//! Manolescu): given an RDF graph `G = ⟨D_G, S_G, T_G⟩`, build an RDF graph
//! `H_G` that is orders of magnitude smaller yet RBGP-*representative*
//! (queries with answers on `G∞` have answers on `H∞_G`) and *accurate*.
//!
//! Five summaries are provided, all quotient graphs (Definition 9):
//!
//! | summary | equivalence | module |
//! |---------|-------------|--------|
//! | `W_G`  weak         | shared source/target clique, transitively (≡W) | [`weak`] |
//! | `S_G`  strong       | same (source clique, target clique) pair (≡S)  | [`strong`] |
//! | `TW_G` typed weak   | class sets first, ≡UW on untyped nodes          | [`typed`] |
//! | `TS_G` typed strong | class sets first, ≡US on untyped nodes          | [`typed`] |
//! | `T_G`  type-based   | identical class sets (Definition 12)            | [`typed`] |
//!
//! Supporting machinery: property [`cliques`] (Definition 5), property
//! [`distance`] (Definition 6), node [`equivalence`] partitions, the
//! generic [`quotient`] operator, the paper's streaming Algorithms 1–3
//! ([`streaming`]), the substrate's one worker-count decision
//! ([`parallel`]), summary [`iso`]morphism, and [`checks`] for the paper's
//! formal properties (fixpoint, completeness, representativeness).
//!
//! ## The dense pipeline: [`SummaryContext`]
//!
//! All five summaries are built from one shared substrate, the
//! [`context::SummaryContext`]:
//!
//! * a **dense numbering** of the data nodes and data properties
//!   (`Vec`-backed [`rdf_model::DenseIdMap`] tables — dictionary ids are
//!   dense, so every per-node lookup is an array read, never a hash);
//! * a **CSR-style adjacency** giving each node's outgoing/incoming data
//!   properties as contiguous slices;
//! * the **property cliques for both [`CliqueScope`]s** (all-nodes for
//!   W/S, untyped-only for TW/TS), computed lazily from the CSR and
//!   cached, so building all four summaries runs the clique union–find at
//!   most twice instead of four times;
//! * the interned **class sets** of the typed resources.
//!
//! The classic free functions (`weak_summary(g)` & friends) are thin
//! wrappers over a throwaway context; [`summarize_all`] and the CLI /
//! experiment binaries share one context across builds.
//!
//! The substrate is **shard-mergeable**:
//! [`context::SummaryContext::sharded`] builds S independent partial
//! substrates concurrently and folds them in shard order
//! ([`rdf_model::DenseIdMap::absorb`]), so the result reproduces global
//! first-seen numbering exactly — the *identical* substrate one shard
//! builds, CSR stitched in shard order, clique union–finds merged from
//! row-range partials. All five summaries therefore come out
//! triple-for-triple, naming-identical at any shard count (pinned up to
//! S = 64, empty shards included). Graphs below the shard floor build on
//! one shard.
//!
//! ## Symbolic minted names
//!
//! Summary nodes are named by [`rdf_model::Term::Minted`] terms: the
//! representation functions `N`/`C` ([`naming::Namer::n_term`] /
//! [`naming::Namer::c_term`]) return an *interned set key* — a shared slice
//! of member IRIs, each copied out of the summarized graph's dictionary
//! once per build — instead of an eagerly formatted URI string. Injectivity lives in the interned-key ordering (one
//! canonical key per equivalence class per build); the familiar
//! `urn:rdfsummary:` URI is rendered lazily on serialization, byte-
//! identical to the historical eager strings. Emission never allocates or
//! hashes a URI string, and constants transfer between the G and H
//! dictionaries as views, arena to arena. Every stage — chunk scan, CSR fill,
//! clique sweep, class-set scan, quotient emission, extent table — runs on
//! the one worker count the context resolved at construction
//! ([`parallel::shard_count`]), byte-identically at any count.
//!
//! The pre-refactor hash-map builders are preserved verbatim in
//! [`reference`] as the golden-equivalence test oracle.
//!
//! ## Quickstart
//!
//! ```
//! use rdfsum_core::{summarize, SummaryContext, SummaryKind};
//!
//! let g = rdfsum_core::fixtures::sample_graph(); // the paper's Figure 2
//! let w = summarize(&g, SummaryKind::Weak);
//! assert_eq!(w.graph.data().len(), 6); // Prop. 4: one edge per property
//!
//! // Building several summaries? Share the substrate:
//! let ctx = SummaryContext::new(&g);
//! let (s, tw) = (ctx.summarize(SummaryKind::Strong), ctx.typed_weak_summary());
//! assert_eq!(s.n_summary_nodes(), 9);
//! assert_eq!(tw.n_summary_nodes(), 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bisim;
pub mod builder;
pub mod cardinality;
pub mod checks;
pub mod cliques;
pub mod context;
pub mod distance;
pub mod equivalence;
pub mod executor;
pub mod fixtures;
pub mod inflate;
pub mod iso;
pub mod naming;
pub mod parallel;
pub mod persist;
pub mod quotient;
pub mod reference;
pub mod report;
pub mod saturated_cliques;
pub mod service;
pub mod streaming;
pub mod strong;
pub mod summary;
pub mod typed;
pub mod unionfind;
pub mod weak;

pub use bisim::{bisim_partition, bisim_summary, BisimDepth};
pub use builder::{summarize, summarize_all};
pub use cardinality::{PropertyCard, SummaryCardinality, SummaryEstimator};
pub use checks::{
    can_prune, check_representativeness, completeness_check, completeness_checks, fixpoint_holds,
    CompletenessCheck, RepresentativenessReport,
};
pub use cliques::{CliqueId, CliqueScope, Cliques};
pub use context::{ClassSets, SummaryContext};
pub use equivalence::Partition;
pub use executor::Executor;
pub use inflate::{inflate, InflateConfig};
pub use iso::summary_isomorphic;
pub use reference::{reference_summary, reference_summary_with};
pub use report::{render_report, ReportOptions};
pub use saturated_cliques::{fuse_cliques, saturated_clique, verify_lemma1};
pub use service::{
    LoadedGraph, QueryOutcome, ServiceError, ServiceStats, SummaryArtifact, SummaryService,
    UpdateOutcome,
};
pub use streaming::{streaming_typed_weak_summary, streaming_weak_summary};
pub use strong::strong_summary;
pub use summary::{Summary, SummaryKind, SummaryStats};
pub use typed::{type_summary, typed_strong_summary, typed_weak_summary, TypedSemantics};
pub use weak::weak_summary;

#[cfg(test)]
mod proptests {
    use super::{
        check_representativeness, completeness_check, fixpoint_holds, streaming_typed_weak_summary,
        streaming_weak_summary, strong_summary, summarize, summary_isomorphic,
        typed_strong_summary, typed_weak_summary, weak_summary, SummaryContext, SummaryKind,
    };
    use proptest::prelude::*;
    use rdf_model::{vocab, Graph};

    /// Builds a random graph from triple/type/schema fragments.
    pub(crate) fn build_graph(
        data: &[(u8, u8, u8)],
        types: &[(u8, u8)],
        sp: &[(u8, u8)],
        dom: &[(u8, u8)],
    ) -> Graph {
        let mut g = Graph::new();
        for (s, p, o) in data {
            g.add_iri_triple(
                &format!("http://x/n{s}"),
                &format!("http://x/p{p}"),
                &format!("http://x/n{o}"),
            );
        }
        for (s, c) in types {
            g.add_iri_triple(
                &format!("http://x/n{s}"),
                vocab::RDF_TYPE,
                &format!("http://x/C{c}"),
            );
        }
        for (a, b) in sp {
            g.add_iri_triple(
                &format!("http://x/p{a}"),
                vocab::RDFS_SUBPROPERTYOF,
                &format!("http://x/p{}", b.wrapping_add(4)),
            );
        }
        for (p, c) in dom {
            g.add_iri_triple(
                &format!("http://x/p{p}"),
                vocab::RDFS_DOMAIN,
                &format!("http://x/C{c}"),
            );
        }
        g
    }

    fn arb_graph() -> impl Strategy<Value = Graph> {
        (
            proptest::collection::vec((0u8..8, 0u8..4, 0u8..8), 1..24),
            proptest::collection::vec((0u8..8, 0u8..3), 0..8),
            proptest::collection::vec((0u8..4, 0u8..3), 0..3),
            proptest::collection::vec((0u8..4, 0u8..3), 0..3),
        )
            .prop_map(|(d, t, sp, dom)| build_graph(&d, &t, &sp, &dom))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The quotient invariant holds for every summary kind on random
        /// graphs.
        #[test]
        fn quotients_are_well_formed(g in arb_graph()) {
            for kind in SummaryKind::ALL {
                let s = summarize(&g, kind);
                prop_assert!(crate::quotient::verify_quotient(&g, &s), "{kind}");
                prop_assert!(s.check_correspondence_invariants());
            }
        }

        /// Summary pruning never drops a non-empty answer, on any kind:
        /// whenever `empty_on_summary` claims emptiness, direct evaluation
        /// on the graph confirms it (the QUERY short-circuit's soundness).
        #[test]
        fn pruning_never_drops_nonempty_answers(
            g in arb_graph(),
            patterns in proptest::collection::vec((0u8..8, 0u8..4, 0u8..8, 0u8..8, 0u8..3), 1..4),
        ) {
            use rdf_query::{compile, empty_on_summary, Evaluator, QuerySpec, SpecTerm};
            use rdf_store::TripleStore;
            // Random BGPs over the generator's vocabulary, mixing
            // variables, data constants, τ patterns and property
            // variables — deliberately *not* restricted to RBGPs.
            let body: Vec<(SpecTerm, SpecTerm, SpecTerm)> = patterns
                .iter()
                .map(|&(s, p, o, mask, c)| {
                    let sv = if mask & 1 != 0 {
                        SpecTerm::var(format!("v{s}"))
                    } else {
                        SpecTerm::iri(format!("http://x/n{s}"))
                    };
                    if mask & 2 != 0 {
                        // τ pattern: constant or variable class.
                        let ov = if mask & 4 != 0 {
                            SpecTerm::var(format!("c{c}"))
                        } else {
                            SpecTerm::iri(format!("http://x/C{c}"))
                        };
                        return (sv, SpecTerm::iri(vocab::RDF_TYPE), ov);
                    }
                    let pv = if mask & 8 != 0 {
                        SpecTerm::var(format!("q{p}"))
                    } else {
                        SpecTerm::iri(format!("http://x/p{p}"))
                    };
                    let ov = if mask & 4 != 0 {
                        SpecTerm::var(format!("w{o}"))
                    } else {
                        SpecTerm::iri(format!("http://x/n{o}"))
                    };
                    (sv, pv, ov)
                })
                .collect();
            let spec = QuerySpec::new(Vec::<String>::new(), body);
            let store = TripleStore::new(g.clone());
            let q = compile(&spec, store.graph()).unwrap();
            let on_g = Evaluator::new(&store).ask(&q);
            for kind in [
                SummaryKind::Weak,
                SummaryKind::Strong,
                SummaryKind::TypedWeak,
                SummaryKind::TypedStrong,
                SummaryKind::TypeBased,
            ] {
                let s = summarize(&g, kind);
                let h_store = TripleStore::new(s.graph.clone());
                if empty_on_summary(&h_store, &spec) {
                    prop_assert!(!on_g, "{kind} pruned non-empty query {spec}");
                }
            }
        }

        /// Proposition 4 on random graphs: |D_W|_e = |D_G|⁰_p.
        #[test]
        fn prop4_unique_data_properties(g in arb_graph()) {
            let s = weak_summary(&g);
            prop_assert!(crate::weak::check_unique_data_properties(&g, &s));
        }

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
            let a = weak_summary(&g);
            let b = streaming_weak_summary(&g);
            prop_assert!(summary_isomorphic(&a.graph, &b.graph));
            let tw_a = typed_weak_summary(&g);
            let tw_b = streaming_typed_weak_summary(&g);
            prop_assert!(summary_isomorphic(&tw_a.graph, &tw_b.graph));
        }

        /// The weak summary of a forced-shard context equals the
        /// sequential one on random graphs, at every shard count.
        #[test]
        fn parallel_equals_sequential(g in arb_graph(), threads in 2usize..6) {
            let a = weak_summary(&g);
            let b = SummaryContext::sharded_forced(&g, threads).weak_summary();
            prop_assert!(summary_isomorphic(&a.graph, &b.graph));
        }

        /// The one-shard constructor and every forced-shard one build the
        /// same substrate, field for field: numbering, both CSR sides,
        /// typed flags.
        #[test]
        fn sharded_substrate_equals_one_shard(g in arb_graph(), shards in 2usize..6) {
            let one = SummaryContext::new(&g);
            let sharded = SummaryContext::sharded_forced(&g, shards);
            prop_assert_eq!(sharded.data_nodes(), one.data_nodes());
            prop_assert_eq!(sharded.data_properties(), one.data_properties());
            for v in 0..one.data_nodes().len() {
                prop_assert_eq!(sharded.out_row(v), one.out_row(v));
                prop_assert_eq!(sharded.in_row(v), one.in_row(v));
                prop_assert_eq!(sharded.is_typed(v), one.is_typed(v));
            }
        }

        /// A forced-shard context's row-range clique sweep matches the
        /// sequential triple scan exactly — same cliques, same numbering —
        /// on random graphs, for every scope.
        #[test]
        fn sharded_cliques_equal_sequential(g in arb_graph(), threads in 2usize..6) {
            use crate::cliques::{CliqueScope, Cliques};
            let ctx = SummaryContext::sharded_forced(&g, threads);
            for scope in [CliqueScope::AllNodes, CliqueScope::UntypedOnly] {
                let par = ctx.cliques(scope);
                let seq = Cliques::compute(&g, scope);
                prop_assert_eq!(&par.source_cliques, &seq.source_cliques);
                prop_assert_eq!(&par.target_cliques, &seq.target_cliques);
            }
        }

        /// Golden equivalence: every dense-pipeline summary is
        /// triple-for-triple and naming-identical to the preserved
        /// pre-refactor (hash-map) builder on random graphs.
        #[test]
        fn dense_pipeline_matches_reference(g in arb_graph()) {
            use crate::reference::reference_summary;
            let canon = |s: &crate::Summary| {
                let mut v: Vec<String> =
                    rdf_io::write_graph(&s.graph).lines().map(String::from).collect();
                v.sort();
                v
            };
            let ctx = crate::context::SummaryContext::new(&g);
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

        /// Strong refines weak; typed strong refines typed weak.
        #[test]
        fn refinement_chains(g in arb_graph()) {
            let w = weak_summary(&g);
            let s = strong_summary(&g);
            prop_assert!(s.n_summary_nodes() >= w.n_summary_nodes());
            let tw = typed_weak_summary(&g);
            let ts = typed_strong_summary(&g);
            prop_assert!(ts.n_summary_nodes() >= tw.n_summary_nodes());
            // Member-level refinement: strong classes sit inside weak ones.
            for t in g.data() {
                for n in [t.s, t.o] {
                    let (Some(ws), Some(ss)) = (w.representative(n), s.representative(n)) else {
                        prop_assert!(false, "unrepresented node");
                        return Ok(());
                    };
                    // All strong-class members share the weak class.
                    for &m in s.extent(ss) {
                        prop_assert_eq!(w.representative(m), Some(ws));
                    }
                }
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
            let w = weak_summary(&g);
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
