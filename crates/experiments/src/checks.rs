//! Checkers for the paper's formal properties.
//!
//! * **Fixpoint** (Definition 10, Props. 2/6/9): `H_{H_G} = H_G` — a summary
//!   cannot be summarized further.
//! * **Accuracy** (Prop. 3) follows from the fixpoint property: a summary
//!   is a graph whose own summary is itself, so any query matching `H∞_G`
//!   matches the saturation of a member of its inverse set (namely `H_G`).
//! * **Completeness** (Props. 5/8, and the counter-examples of Props.
//!   7/10): `Σ_{G∞} = Σ_{(Σ_G)∞}` — the summary of the saturation can be
//!   computed by saturating and re-summarizing the (much smaller) summary.
//! * **Representativeness** (Definition 1, Prop. 1): every RBGP query
//!   non-empty on `G∞` is non-empty on `H∞_G`.

use crate::iso::summary_isomorphic;
use rdf_model::Graph;
use rdf_query::{compile, Evaluator, QuerySpec};
use rdf_schema::saturate;
use rdf_store::TripleStore;
use rdfsum_core::builder::summarize;
use rdfsum_core::summary::{Summary, SummaryKind};

/// Does the fixpoint property hold for `kind` on `g`? (Σ_{Σ_G} ≅ Σ_G.)
pub fn fixpoint_holds(g: &Graph, kind: SummaryKind) -> bool {
    let h1 = summarize(g, kind);
    let h2 = summarize(&h1.graph, kind);
    summary_isomorphic(&h1.graph, &h2.graph)
}

/// The two sides of a completeness comparison.
#[derive(Debug)]
pub struct CompletenessCheck {
    /// Σ_{G∞}: summarize the saturated graph.
    pub of_saturation: Summary,
    /// Σ_{(Σ_G)∞}: summarize, saturate the summary, summarize again.
    pub shortcut: Summary,
    /// Whether the two coincide (up to renaming of minted nodes).
    pub holds: bool,
}

/// Compares `Σ_{G∞}` with `Σ_{(Σ_G)∞}` for the given summary kind.
///
/// Props. 5 and 8 guarantee `holds` for W and S on every graph; Props. 7
/// and 10 exhibit graphs where TW and TS fail (domain/range rules type
/// previously-untyped resources).
pub fn completeness_check(g: &Graph, kind: SummaryKind) -> CompletenessCheck {
    completeness_checks(g, &[kind])
        .pop()
        .expect("one kind in, one check out")
}

/// [`completeness_check`] for several kinds at once: `g` is saturated
/// *once*, and one shared [`rdfsum_core::context::SummaryContext`] per side
/// (`G` and `G∞`) serves every kind, so the cliques and dense numbering
/// are computed once instead of once per kind.
pub fn completeness_checks(g: &Graph, kinds: &[SummaryKind]) -> Vec<CompletenessCheck> {
    let sat = saturate(g);
    let sat_ctx = rdfsum_core::context::SummaryContext::new(&sat);
    let ctx = rdfsum_core::context::SummaryContext::new(g);
    kinds
        .iter()
        .map(|&kind| {
            let of_saturation = sat_ctx.summarize(kind);
            let first = ctx.summarize(kind);
            let shortcut = summarize(&saturate(&first.graph), kind);
            let holds = summary_isomorphic(&of_saturation.graph, &shortcut.graph);
            CompletenessCheck {
                of_saturation,
                shortcut,
                holds,
            }
        })
        .collect()
}

/// Outcome of a representativeness experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepresentativenessReport {
    /// Queries evaluated.
    pub total: usize,
    /// Queries with answers on G∞ (the premise of Definition 1).
    pub nonempty_on_g: usize,
    /// Among those, queries also non-empty on H∞ (should equal
    /// `nonempty_on_g` by Prop. 1).
    pub held: usize,
    /// Counter-examples, if any (violations of Prop. 1 would indicate an
    /// implementation bug).
    pub violations: Vec<String>,
}

impl RepresentativenessReport {
    /// Did representativeness hold for every applicable query?
    pub fn all_held(&self) -> bool {
        self.held == self.nonempty_on_g
    }
}

/// Evaluates Definition 1 on a fixed query workload: for each query with
/// `q(G∞) ≠ ∅`, checks `q(H∞_G) ≠ ∅`.
pub fn check_representativeness(
    g: &Graph,
    summary: &Summary,
    queries: &[QuerySpec],
) -> RepresentativenessReport {
    let g_store = TripleStore::new(saturate(g));
    let h_store = TripleStore::new(saturate(&summary.graph));
    let g_eval = Evaluator::new(&g_store);
    let h_eval = Evaluator::new(&h_store);
    let mut report = RepresentativenessReport {
        total: queries.len(),
        nonempty_on_g: 0,
        held: 0,
        violations: Vec::new(),
    };
    for q in queries {
        let on_g = compile(q, g_store.graph())
            .map(|cq| g_eval.ask(&cq))
            .unwrap_or(false);
        if !on_g {
            continue;
        }
        report.nonempty_on_g += 1;
        let on_h = compile(q, h_store.graph())
            .map(|cq| h_eval.ask(&cq))
            .unwrap_or(false);
        if on_h {
            report.held += 1;
        } else {
            report.violations.push(q.to_string());
        }
    }
    report
}

/// The contrapositive use of representativeness for query pruning: if a
/// query is empty on the (saturated) summary, it is provably empty on the
/// graph — without touching the graph. Returns `true` when the query can
/// be pruned.
pub fn can_prune(summary: &Summary, query: &QuerySpec) -> bool {
    let h_store = TripleStore::new(saturate(&summary.graph));
    let Ok(cq) = compile(query, h_store.graph()) else {
        return true; // malformed ⇒ no answers anywhere
    };
    !Evaluator::new(&h_store).ask(&cq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_query::{sample_rbgp_queries, WorkloadConfig};
    use rdfsum_core::fixtures::{figure10_graph, figure5_graph, figure8_graph, sample_graph};

    /// Proposition 2: all four summaries have the fixpoint property.
    #[test]
    fn fixpoint_for_all_kinds_on_sample() {
        let g = sample_graph();
        for kind in SummaryKind::ALL {
            assert!(fixpoint_holds(&g, kind), "fixpoint failed for {kind}");
        }
    }

    /// Figure 5 / Proposition 5: weak completeness on the walk-through
    /// graph.
    #[test]
    fn figure5_weak_completeness() {
        let g = figure5_graph();
        let check = completeness_check(&g, SummaryKind::Weak);
        assert!(check.holds);
        // The walk-through's shape: one source node carrying a1,b1,b,b2,c.
        assert_eq!(check.of_saturation.graph.data().len(), 5);
    }

    /// Figure 10 / Proposition 8: strong completeness on the walk-through
    /// graph.
    #[test]
    fn figure10_strong_completeness() {
        let g = figure10_graph();
        let check = completeness_check(&g, SummaryKind::Strong);
        assert!(check.holds);
    }

    /// Figure 8 / Proposition 7: typed-weak non-completeness — the
    /// counter-example must FAIL the check.
    #[test]
    fn figure8_typed_weak_counterexample() {
        let g = figure8_graph();
        let check = completeness_check(&g, SummaryKind::TypedWeak);
        assert!(!check.holds, "TW completeness should fail on Figure 8");
        // Mechanism: TW_{G∞} types r1 (via a ←↩d c), splitting it from r2.
        // TW_{(TW_G)∞} types the already-merged node instead.
        assert_ne!(
            check.of_saturation.graph.data().len(),
            check.shortcut.graph.data().len()
        );
    }

    /// Proposition 10: the same counter-example graph also breaks TS
    /// completeness.
    #[test]
    fn figure8_typed_strong_counterexample() {
        let g = figure8_graph();
        let check = completeness_check(&g, SummaryKind::TypedStrong);
        assert!(!check.holds);
    }

    /// Weak/strong completeness also hold on the running example (which
    /// has no schema, making both sides trivially equal) and on Figure 8's
    /// graph (nontrivial: the schema types resources).
    #[test]
    fn weak_strong_complete_on_more_graphs() {
        for g in [
            sample_graph(),
            figure8_graph(),
            figure5_graph(),
            figure10_graph(),
        ] {
            assert!(completeness_check(&g, SummaryKind::Weak).holds);
            assert!(completeness_check(&g, SummaryKind::Strong).holds);
        }
    }

    /// Proposition 1 on a sampled workload over the running example, for
    /// all four summaries.
    #[test]
    fn representativeness_on_sample_workload() {
        let g = sample_graph();
        let store = TripleStore::new(g.clone());
        let queries = sample_rbgp_queries(
            &store,
            &WorkloadConfig {
                queries: 60,
                patterns_per_query: 3,
                seed: 42,
                ..Default::default()
            },
        );
        for kind in SummaryKind::ALL {
            let s = summarize(&g, kind);
            let rep = check_representativeness(&g, &s, &queries);
            assert!(rep.nonempty_on_g > 0);
            assert!(
                rep.all_held(),
                "representativeness violated for {kind}: {:?}",
                rep.violations
            );
        }
    }

    /// Query pruning: a query over a property absent from the graph is
    /// pruned by the summary; a satisfiable one is not.
    #[test]
    fn pruning_via_summary() {
        use rdf_model::PrefixMap;
        use rdf_query::parse_query;
        let g = sample_graph();
        let s = summarize(&g, SummaryKind::Weak);
        let prefixes = PrefixMap::with_defaults();
        let dead = parse_query("q() :- ?x <http://example.org/price> ?y", &prefixes).unwrap();
        assert!(can_prune(&s, &dead));
        let alive = parse_query(
            "q() :- ?x <http://example.org/author> ?y, ?y <http://example.org/reviewed> ?z",
            &prefixes,
        )
        .unwrap();
        assert!(!can_prune(&s, &alive));
    }
}
