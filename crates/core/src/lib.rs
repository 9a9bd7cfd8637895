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
//! [`equivalence`] partitions, the generic [`quotient`] operator,
//! summary-derived [`cardinality`] estimates for the query planner, the
//! [`persist`]ed
//! artifact codec and the [`service`] every `serve` verb runs on. This
//! crate holds what a served or CLI-`summarize` path runs and nothing
//! else: the paper's evaluation artefacts (streaming Algorithms 1–3,
//! property distance, Lemma 1, inflation, isomorphism, the formal
//! property checkers and the hash-map reference builders) live in the
//! leaf crate `rdfsum-experiments`.
//!
//! ## The shared substrate: [`Substrate`] and [`SummaryContext`]
//!
//! All six summaries are built from one shared substrate, the product of
//! one sweep over the graph ([`context::Substrate::absorb`]):
//!
//! * a **first-seen numbering** of the data nodes and data properties
//!   (dictionary ids are dense, so every per-node lookup is an array read,
//!   never a hash);
//! * each node's **first outgoing and incoming property** and, per
//!   [`CliqueScope`] (all-nodes for W/S, untyped-only for TW/TS), the
//!   **union–finds** relating every later property to it — all a clique
//!   computation reads; there is no adjacency;
//! * the interned **class sets** of the typed resources.
//!
//! A [`context::SummaryContext`] is the per-build view: it borrows the
//! graph and a substrate, derives the cliques of a scope on first use and
//! runs partition → quotient. [`SummaryContext::summarize`] is the one way
//! every summary is built: [`summarize`] runs it over a throwaway context,
//! and [`summarize_all`] and the CLI / experiment binaries share one
//! context across builds.
//!
//! The sweep is **resumable**: absorbing the tail an insert batch appended
//! to the graph's tables leaves exactly the substrate a scan of the whole
//! graph builds, so the [`service`] keeps one substrate per resident graph
//! — every cache miss and every `UPDATE` carry builds from it. A delete
//! batch is *retracted* from it the same way, unless it would move a
//! first-seen number, a first property, a clique or a class set; only such
//! a delete, or a resource typed after its data was linked, makes the next
//! build scan again. All six summaries come out triple-for-triple,
//! naming-identical whether the substrate was scanned, absorbed or
//! retracted. An absorb or retract reports what it changed, and each
//! clique or type summary the service builds keeps the *quotient map* of
//! its partition ([`quotient`]): an insert batch that only adds members to
//! existing classes along existing edges extends the map, a delete that
//! only takes members no class needs shrinks it, and the summary — byte
//! for byte what a rebuild would give — is carried without building.
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
//! dictionaries as views, arena to arena. Every stage of a build —
//! substrate, partition, quotient emission, extent table — runs on the
//! calling thread: splitting the stages past the substrate across two
//! workers won no served workload on a 2-vCPU host (the sizing rows are
//! in CHANGES.md).
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
//! let (s, tw) = (ctx.summarize(SummaryKind::Strong), ctx.summarize(SummaryKind::TypedWeak));
//! assert_eq!(s.n_summary_nodes(), 9);
//! assert_eq!(tw.n_summary_nodes(), 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bisim;
pub mod builder;
mod cache;
pub mod cardinality;
pub mod cliques;
pub mod context;
pub mod equivalence;
pub mod executor;
pub mod fixtures;
pub mod naming;
pub mod persist;
mod query;
pub mod quotient;
pub mod report;
pub mod service;
pub mod strong;
pub mod summary;
pub mod typed;
pub mod unionfind;
mod update;
pub mod weak;

pub use bisim::{bisim_partition, bisim_summary, BisimDepth};
pub use builder::{summarize, summarize_all};
pub use cardinality::{PropertyCard, SummaryCardinality, SummaryEstimator};
pub use cliques::{CliqueId, CliqueScope, Cliques};
pub use context::{ClassSets, Stale, Substrate, SummaryContext};
pub use equivalence::Partition;
pub use executor::Executor;
pub use report::{render_report, ReportOptions};
pub use service::{
    LoadedGraph, QueryOutcome, ServiceError, ServiceStats, SummaryArtifact, SummaryService,
    UpdateOutcome,
};
pub use summary::{Summary, SummaryKind, SummaryStats};

#[cfg(test)]
mod proptests {
    use super::{
        fixtures::fragment_graph, summarize, CliqueScope, Substrate, SummaryContext, SummaryKind,
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

    /// The graphs the piecewise-absorb property replays: the paper's
    /// fixtures, BSBM, LUBM and the `shapes` families.
    fn family(which: usize) -> &'static Graph {
        use rdfsum_workloads::{BsbmConfig, LubmConfig, RandomConfig};
        static FAMILIES: std::sync::OnceLock<Vec<Graph>> = std::sync::OnceLock::new();
        &FAMILIES.get_or_init(|| {
            vec![
                crate::fixtures::sample_graph(),
                crate::fixtures::figure5_graph(),
                crate::fixtures::book_graph(),
                rdfsum_workloads::generate_bsbm(&BsbmConfig::with_products(12)),
                rdfsum_workloads::generate_lubm(&LubmConfig {
                    departments_per_university: 1,
                    ..LubmConfig::default()
                }),
                rdfsum_workloads::star(9),
                rdfsum_workloads::chain(9),
                rdfsum_workloads::weak_chain(5),
                rdfsum_workloads::random(&RandomConfig::default()),
                rdfsum_workloads::random(&RandomConfig {
                    typed_pct: 70,
                    seed: 7,
                    ..RandomConfig::default()
                }),
            ]
        })[which]
    }

    /// Replays `full` into an empty graph term by term (so the dictionary
    /// grows with the rows): the schema, then piece `i` up to
    /// `type_cuts[i]` % of the type rows and `data_cuts[i]` % of the data
    /// rows, then the rest — absorbing after every piece, scanning anew
    /// when the absorb is refused. Returns the graph, the kept substrate
    /// and how many pieces were absorbed in place.
    fn replay(full: &Graph, type_cuts: &[usize], data_cuts: &[usize]) -> (Graph, Substrate, usize) {
        let mut g = Graph::new();
        let push = |g: &mut Graph, rows: &[rdf_model::Triple]| {
            let d = full.dict();
            for t in rows {
                g.insert_ref(d.decode(t.s), d.decode(t.p), d.decode(t.o))
                    .unwrap();
            }
        };
        push(&mut g, full.schema());
        let mut kept = Substrate::scan(&g);
        let (mut types_done, mut data_done, mut absorbed) = (0, 0, 0);
        for (tc, dc) in type_cuts.iter().zip(data_cuts).chain([(&100, &100)]) {
            let types_to = full.types().len() * tc / 100;
            let data_to = full.data().len() * dc / 100;
            push(&mut g, &full.types()[types_done..types_to]);
            push(&mut g, &full.data()[data_done..data_to]);
            (types_done, data_done) = (types_to, data_to);
            match kept.absorb(&g) {
                Ok(_) => absorbed += 1,
                Err(crate::Stale) => kept = Substrate::scan(&g),
            }
        }
        (g, kept, absorbed)
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
            let s = summarize(&g, SummaryKind::Weak);
            prop_assert!(crate::weak::check_unique_data_properties(&g, &s));
        }

        /// Absorbing a graph in tail pieces — type and data rows arriving
        /// in random proportions, the dictionary growing between pieces —
        /// leaves the substrate one scan builds: numbering, both scopes'
        /// cliques, class sets, and all six summaries byte for byte. A
        /// piece `absorb` refuses is handled as the service handles it
        /// (drop, scan); a schedule that brings every type row first has
        /// nothing to refuse.
        #[test]
        fn absorbing_in_pieces_equals_one_scan(
            which in 0usize..10,
            cuts in proptest::collection::vec((0usize..101, 0usize..101), 1..6),
        ) {
            let full = family(which);
            let (mut type_cuts, mut data_cuts): (Vec<_>, Vec<_>) = cuts.iter().copied().unzip();
            type_cuts.sort_unstable();
            data_cuts.sort_unstable();
            let types_first = vec![100; type_cuts.len()];
            for (type_cuts, must_absorb) in [(type_cuts, false), (types_first, true)] {
                let (g, kept, absorbed) = replay(full, &type_cuts, &data_cuts);
                prop_assert!(kept.covers(&g));
                if must_absorb {
                    prop_assert_eq!(absorbed, data_cuts.len() + 1, "types came first");
                }
                let pieced = SummaryContext::over(&g, &kept);
                let scanned = SummaryContext::new(&g);
                prop_assert_eq!(pieced.data_nodes(), scanned.data_nodes());
                prop_assert_eq!(pieced.data_properties(), scanned.data_properties());
                let terms = || (0..g.dict().len() as u32).map(rdf_model::TermId);
                for scope in [CliqueScope::AllNodes, CliqueScope::UntypedOnly] {
                    let (a, b) = (pieced.cliques(scope), scanned.cliques(scope));
                    prop_assert_eq!(&a.source_cliques, &b.source_cliques);
                    prop_assert_eq!(&a.target_cliques, &b.target_cliques);
                    for n in terms() {
                        prop_assert_eq!((a.sc(n), a.tc(n)), (b.sc(n), b.tc(n)), "{:?}", scope);
                    }
                }
                let (a, b) = (pieced.class_sets(), scanned.class_sets());
                prop_assert_eq!(a.len(), b.len());
                for id in 0..a.len() as u32 {
                    prop_assert_eq!(a.set(id), b.set(id));
                }
                for n in terms() {
                    prop_assert_eq!(a.set_id(n), b.set_id(n));
                }
                for kind in SummaryKind::EVERY {
                    prop_assert!(
                        rdf_io::write_graph(&pieced.summarize(kind).graph)
                            == rdf_io::write_graph(&scanned.summarize(kind).graph),
                        "{} differs", kind
                    );
                }
            }
        }

        /// A quotient map that extends by an insert batch describes what a
        /// cold build of the grown graph makes: the same summary graph,
        /// byte for byte, and the same extent counts — for all five
        /// clique and type kinds, on random graphs and batches over their
        /// vocabulary (new and old nodes, new classes, a fresh property, a
        /// schema row). All 64 cases are one generated case, so that the
        /// extending path is checked to be taken at all.
        #[test]
        fn extended_maps_match_cold_builds(
            cases in proptest::collection::vec(
                (arb_graph(), proptest::collection::vec((0u8..6, 0u8..12, 0u8..5, 0u8..12), 1..4)),
                64..65,
            ),
        ) {
            use rdf_model::Term;
            use rdf_store::TripleStore;
            let mut extended = 0;
            for (g, rows) in &cases {
                let mut store = TripleStore::new(g.clone());
                let mut kept = Substrate::scan(store.graph());
                let built: Vec<_> = SummaryKind::EVERY[..5]
                    .iter()
                    .map(|&kind| {
                        let ctx = SummaryContext::over(store.graph(), &kept);
                        let (summary, map) = ctx.summarize_mapped(kind);
                        (kind, TripleStore::new(summary.graph), map.expect("a quotient map"))
                    })
                    .collect();
                let iri = |s: String| Term::iri(format!("http://x/{s}"));
                let batch: Vec<(Term, Term, Term)> = rows
                    .iter()
                    .map(|&(shape, a, b, c)| match shape {
                        0..=2 => (iri(format!("n{a}")), iri(format!("p{b}")), iri(format!("n{c}"))),
                        3 => (iri(format!("n{a}")), Term::iri(vocab::RDF_TYPE), iri(format!("C{}", b % 3))),
                        4 => (iri(format!("n{a}")), Term::iri(vocab::RDF_TYPE), iri(format!("C{a}"))),
                        _ => (iri(format!("p{b}")), Term::iri(vocab::RDFS_SUBPROPERTYOF), iri(format!("p{c}"))),
                    })
                    .collect();
                let applied = store.insert_batch(&batch).unwrap().applied;
                let Ok(delta) = kept.absorb(store.graph()) else {
                    continue;
                };
                let cold = SummaryContext::new(store.graph());
                for (kind, h, map) in &built {
                    let Ok(next) = map.extend(&kept, &delta, &applied, store.graph(), h) else {
                        continue;
                    };
                    extended += 1;
                    let summary = cold.summarize(*kind);
                    prop_assert!(
                        rdf_io::write_graph(h.graph()) == rdf_io::write_graph(&summary.graph),
                        "{} extended by {:?} differs from a cold build", kind, batch
                    );
                    prop_assert_eq!(next.extents().to_vec(), summary.extent_sizes(), "{}", kind);
                }
            }
            prop_assert!(extended > 0, "no map extended");
        }

        /// Strong refines weak; typed strong refines typed weak.
        #[test]
        fn refinement_chains(g in arb_graph()) {
            let ctx = SummaryContext::new(&g);
            let w = ctx.summarize(SummaryKind::Weak);
            let s = ctx.summarize(SummaryKind::Strong);
            prop_assert!(s.n_summary_nodes() >= w.n_summary_nodes());
            let tw = ctx.summarize(SummaryKind::TypedWeak);
            let ts = ctx.summarize(SummaryKind::TypedStrong);
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

/// The checks that outlived the deleted worker-count seam, kept under the
/// module name they have always run under: the weak summary a context
/// emits through its Proposition 4 edge plan equals the generic quotient
/// (Definition 9) that scans D_G, and the context's untyped-scope cliques
/// equal a direct computation.
#[cfg(test)]
mod parallel {
    mod tests {
        use crate::cliques::{CliqueScope, Cliques};
        use crate::context::SummaryContext;
        use crate::equivalence::{data_nodes_ordered, weak_partition};
        use crate::fixtures::{figure5_graph, sample_graph};
        use crate::naming::Namer;
        use crate::quotient::quotient_summary;
        use crate::weak::class_property_sets;
        use crate::SummaryKind;
        use rdf_io::write_graph;
        use rdf_model::Graph;

        fn canonical(g: &Graph) -> Vec<String> {
            let mut v: Vec<String> = write_graph(g).lines().map(String::from).collect();
            v.sort();
            v
        }

        #[test]
        fn parallel_weak_equals_sequential_weak() {
            for g in [sample_graph(), figure5_graph()] {
                let planned = SummaryContext::new(&g).summarize(SummaryKind::Weak);
                let cliques = Cliques::compute(&g, CliqueScope::AllNodes);
                let partition = weak_partition(&cliques, &data_nodes_ordered(&g));
                let mut namer = Namer::new(g.dict());
                let scanned = quotient_summary(&g, SummaryKind::Weak, &partition, |_, members| {
                    let (tc, sc) = class_property_sets(&cliques, members);
                    namer.n_term(&tc, &sc)
                });
                assert_eq!(canonical(&planned.graph), canonical(&scanned.graph));
                assert!(crate::weak::check_unique_data_properties(&g, &planned));
            }
        }

        #[test]
        fn untyped_scope_parallel() {
            let g = sample_graph();
            let ctx = SummaryContext::new(&g);
            let ctx_cliques = ctx.cliques(CliqueScope::UntypedOnly);
            let free = Cliques::compute(&g, CliqueScope::UntypedOnly);
            assert_eq!(ctx_cliques.source_cliques, free.source_cliques);
            assert_eq!(ctx_cliques.target_cliques, free.target_cliques);
        }
    }
}
