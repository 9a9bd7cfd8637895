//! # rdfsum-core — query-oriented RDF graph summaries
//!
//! A faithful Rust implementation of the summarization framework of
//! *“Query-Oriented Summarization of RDF Graphs”* (Čebirić, Goasdoué,
//! Manolescu): given an RDF graph `G = ⟨D_G, S_G, T_G⟩`, build an RDF graph
//! `H_G` that is orders of magnitude smaller yet RBGP-*representative*
//! (queries with answers on `G∞` have answers on `H∞_G`) and *accurate*.
//!
//! Six summaries are served, all quotient graphs (Definition 9):
//!
//! | summary | equivalence | module |
//! |---------|-------------|--------|
//! | `W_G`  weak         | shared source/target clique, transitively (≡W) | [`weak`] |
//! | `S_G`  strong       | same (source clique, target clique) pair (≡S)  | [`strong`] |
//! | `TW_G` typed weak   | class sets first, ≡UW on untyped nodes          | [`typed`] |
//! | `TS_G` typed strong | class sets first, ≡US on untyped nodes          | [`typed`] |
//! | `T_G`  type-based   | identical class sets (Definition 12)            | [`typed`] |
//! | `FB`   bisimulation | forward–backward bisimilarity (§8 baseline)     | [`bisim`] |
//!
//! Supporting machinery: property [`cliques`] (Definition 5), node
//! [`equivalence`] partitions, the generic [`quotient`] operator, the
//! substrate's one worker-count decision ([`parallel`]), summary-derived
//! [`cardinality`] estimates for the query planner, the [`persist`]ed
//! artifact codec and the [`service`] every `serve` verb runs on. This
//! crate holds what a served or CLI-`summarize` path runs and nothing
//! else: the paper's evaluation artefacts (streaming Algorithms 1–3,
//! property distance, Lemma 1, inflation, isomorphism, the formal
//! property checkers and the hash-map reference builders) live in the
//! leaf crate `rdfsum-experiments`.
//!
//! ## The dense pipeline: [`SummaryContext`]
//!
//! All six summaries are built from one shared substrate, the
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
//! row-range partials. All six summaries therefore come out
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
//! `rdfsum_experiments::reference` as the golden-equivalence test oracle.
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
pub mod cliques;
pub mod context;
pub mod equivalence;
pub mod executor;
pub mod fixtures;
pub mod naming;
pub mod parallel;
pub mod persist;
pub mod quotient;
pub mod report;
pub mod service;
pub mod strong;
pub mod summary;
pub mod typed;
pub mod unionfind;
pub mod weak;

pub use bisim::{bisim_partition, bisim_summary, BisimDepth};
pub use builder::{summarize, summarize_all};
pub use cardinality::{PropertyCard, SummaryCardinality, SummaryEstimator};
pub use cliques::{CliqueId, CliqueScope, Cliques};
pub use context::{ClassSets, SummaryContext};
pub use equivalence::Partition;
pub use executor::Executor;
pub use report::{render_report, ReportOptions};
pub use service::{
    LoadedGraph, QueryOutcome, ServiceError, ServiceStats, SummaryArtifact, SummaryService,
    UpdateOutcome,
};
pub use strong::strong_summary;
pub use summary::{Summary, SummaryKind, SummaryStats};
pub use typed::{type_summary, typed_strong_summary, typed_weak_summary, TypedSemantics};
pub use weak::weak_summary;

#[cfg(test)]
mod proptests {
    use super::{
        fixtures::fragment_graph, strong_summary, summarize, typed_strong_summary,
        typed_weak_summary, weak_summary, SummaryContext, SummaryKind,
    };
    use proptest::prelude::*;
    use rdf_model::{vocab, Graph};

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

        /// The weak summary of a forced-shard context equals the
        /// sequential one on random graphs, at every shard count.
        #[test]
        fn parallel_equals_sequential(g in arb_graph(), threads in 2usize..6) {
            let a = weak_summary(&g);
            let b = SummaryContext::sharded_forced(&g, threads).weak_summary();
            prop_assert_eq!(rdf_io::write_graph(&a.graph), rdf_io::write_graph(&b.graph));
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
    }
}
