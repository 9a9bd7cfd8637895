//! The strong summary S_G — Definition 15 of the paper.
//!
//! The quotient of G by strong equivalence ≡S: data nodes are represented
//! together iff they have the *same source clique and the same target
//! clique*. There is a bijection between occupied (target clique, source
//! clique) pairs and strong summary nodes, written `N^{TC}_{SC}`.
//!
//! Unlike the weak summary, S_G may carry several edges with the same
//! property label (§5.1), since the sources of a property may be split
//! across several (TC, SC) pairs. It is built by
//! [`crate::context::SummaryContext::summarize`].

use crate::summary::Summary;
use rdf_model::Graph;

/// Upper bounds from §5.1: the strong summary has at most
/// `min(|D_G|_n, (|D_G|⁰_e)²)` data nodes. Returns `true` when they hold.
pub fn check_size_bounds(g: &Graph, summary: &Summary) -> bool {
    let n_props = g.data_properties().len();
    let data_nodes_g = {
        let mut set = rdf_model::FxHashSet::default();
        for t in g.data() {
            set.insert(t.s);
            set.insert(t.o);
        }
        set.len()
    };
    let bound = data_nodes_g.min((n_props * n_props).max(1));
    // +1 allows the Nτ node, which represents typed-only resources that are
    // not data nodes of D_G.
    summary.stats().data_nodes <= bound + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{exid, sample_graph};
    use crate::naming::display_label;
    use crate::quotient::verify_quotient;
    use crate::summarize;
    use crate::summary::SummaryKind;
    use rdf_model::{Term, TermId};

    fn label_of(s: &Summary, g: &Graph, local: &str) -> String {
        let h_node = s.representative(exid(g, local)).unwrap();
        display_label(s.graph.dict().decode(h_node).as_iri().unwrap())
    }

    /// Figure 9: the strong summary of the running example.
    #[test]
    fn figure9_strong_summary() {
        let g = sample_graph();
        let s = summarize(&g, SummaryKind::Strong);
        assert!(verify_quotient(&g, &s));
        // Classes: {r1,r2,r3,r5} {r4} {a1} {a2} {t1..4} {e1} {e2} {c1} {r6}.
        assert_eq!(s.n_summary_nodes(), 9);
        let st = s.stats();
        assert_eq!(st.class_nodes, 3);
        assert_eq!(st.all_nodes, 12);
        // Data edges: 9 — author and title leave {r1,r2,r3,r5} and {r4}
        // (4); editor leaves {r1,r2,r3,r5} for {e1} and for {e2}, comment
        // for {c1} (3); reviewed from {a1} and published from {e1} enter
        // {r4} (2).
        assert_eq!(st.data_edges, 9);
        assert_eq!(st.type_edges, 4);
    }

    /// §5.1: "the strong summary refines (splits) the weak summary node
    /// N^{r,p}_{a,t,e,c} into two nodes", and both emit an author edge.
    #[test]
    fn figure9_split_and_duplicate_labels() {
        let g = sample_graph();
        let s = summarize(&g, SummaryKind::Strong);
        let n_atec = s.representative(exid(&g, "r1")).unwrap();
        let n_atec_rp = s.representative(exid(&g, "r4")).unwrap();
        assert_ne!(n_atec, n_atec_rp);
        assert_eq!(label_of(&s, &g, "r1"), "N[out=author,comment,editor,title]");
        assert_eq!(
            label_of(&s, &g, "r4"),
            "N[in=published,reviewed][out=author,comment,editor,title]"
        );
        // Two author-labeled edges exist (one from each).
        let author = s
            .graph
            .dict()
            .lookup(&Term::iri(format!("{}author", crate::fixtures::EX)))
            .unwrap();
        let author_edges: Vec<_> = s.graph.data().iter().filter(|t| t.p == author).collect();
        assert_eq!(author_edges.len(), 2);
    }

    /// Figure 9 / §5.1 examples: N(∅, SC1) for r1,r2,r3,r5; N(TC5, SC1)
    /// for r4; N(TC1, SC2) for a1 — and a2/e2 split from a1/e1.
    #[test]
    fn figure9_example_nodes() {
        let g = sample_graph();
        let s = summarize(&g, SummaryKind::Strong);
        for r in ["r2", "r3", "r5"] {
            assert_eq!(
                s.representative(exid(&g, "r1")),
                s.representative(exid(&g, r))
            );
        }
        assert_eq!(label_of(&s, &g, "a1"), "N[in=author][out=reviewed]");
        assert_eq!(label_of(&s, &g, "a2"), "N[in=author]");
        assert_eq!(label_of(&s, &g, "e1"), "N[in=editor][out=published]");
        assert_eq!(label_of(&s, &g, "e2"), "N[in=editor]");
        assert_ne!(
            s.representative(exid(&g, "a1")),
            s.representative(exid(&g, "a2"))
        );
        // t1..t4 still together (same ∅/TC2 signature).
        for t in ["t2", "t3", "t4"] {
            assert_eq!(
                s.representative(exid(&g, "t1")),
                s.representative(exid(&g, t))
            );
        }
        // r6 → Nτ.
        assert_eq!(label_of(&s, &g, "r6"), "Nτ");
    }

    /// τ edges of Figure 9: Book/Journal/Spec off N_{a,t,e,c}, Spec off Nτ.
    #[test]
    fn figure9_type_edges() {
        let g = sample_graph();
        let s = summarize(&g, SummaryKind::Strong);
        let h = &s.graph;
        let tau = h.rdf_type();
        let big = s.representative(exid(&g, "r1")).unwrap();
        let ntau = s.representative(exid(&g, "r6")).unwrap();
        let class = |name: &str| {
            h.dict()
                .lookup(&Term::iri(format!("{}{}", crate::fixtures::EX, name)))
                .unwrap()
        };
        let has = |s: TermId, o: TermId| h.contains(rdf_model::Triple::new(s, tau, o));
        assert!(has(big, class("Book")));
        assert!(has(big, class("Journal")));
        assert!(has(big, class("Spec")));
        assert!(has(ntau, class("Spec")));
    }

    #[test]
    fn size_bounds_hold() {
        let g = sample_graph();
        let s = summarize(&g, SummaryKind::Strong);
        assert!(check_size_bounds(&g, &s));
    }

    #[test]
    fn strong_of_empty_graph() {
        let g = Graph::new();
        let s = summarize(&g, SummaryKind::Strong);
        assert!(s.graph.is_empty());
    }

    /// Strong never merges nodes with different signatures, so on a graph
    /// where all subjects share a source clique but have distinct target
    /// cliques, each subject stays separate.
    #[test]
    fn strong_splits_by_target() {
        let mut g = Graph::new();
        // x and y share source clique {p,q} (via chains), but x is a target
        // of r while y is not.
        g.add_iri_triple("x", "p", "v1");
        g.add_iri_triple("y", "p", "v2");
        g.add_iri_triple("w", "r", "x");
        let s = summarize(&g, SummaryKind::Strong);
        let x = g.dict().lookup(&Term::iri("x")).unwrap();
        let y = g.dict().lookup(&Term::iri("y")).unwrap();
        assert_ne!(s.representative(x), s.representative(y));
        // The weak summary would merge them.
        let w = summarize(&g, SummaryKind::Weak);
        assert_eq!(w.representative(x), w.representative(y));
    }
}
