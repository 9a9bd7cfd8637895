//! The weak summary W_G — Definition 11 of the paper.
//!
//! The quotient of G by weak equivalence ≡W. Its signature property
//! (Proposition 4) is that **every data property of G appears exactly once
//! in W_G**: all sources of a property `p` are weakly equivalent, and so are
//! all its targets, so the summary has exactly `|D_G|⁰_p` data edges.
//!
//! Proposition 4 also powers the build: [`build_weak`] derives `W_G`'s
//! data edges and the per-class naming sets straight from the cliques and
//! the clique → class tables of the partition in `O(#properties)`, never
//! re-scanning `D_G` for emission.

use crate::cliques::Cliques;
use crate::context::SummaryContext;
use crate::equivalence::{CliqueClasses, Partition};
use crate::naming::Namer;
use crate::quotient::{quotient_summary_planned, DataPlan};
use crate::summary::{Summary, SummaryKind};
use rdf_model::{Graph, TermId, NO_DENSE_ID};

/// Collects the union of target-clique and source-clique property sets over
/// the members of one equivalence class — the sets fed to the
/// representation function `N(∪TC(n), ∪SC(n))` of §4.1.
pub(crate) fn class_property_sets(
    cliques: &Cliques,
    members: &[TermId],
) -> (Vec<TermId>, Vec<TermId>) {
    let mut tc_ids: Vec<usize> = members.iter().filter_map(|&n| cliques.tc(n)).collect();
    let mut sc_ids: Vec<usize> = members.iter().filter_map(|&n| cliques.sc(n)).collect();
    tc_ids.sort_unstable();
    tc_ids.dedup();
    sc_ids.sort_unstable();
    sc_ids.dedup();
    let mut tc_props: Vec<TermId> = tc_ids
        .into_iter()
        .flat_map(|i| cliques.target_members(i).iter().copied())
        .collect();
    let mut sc_props: Vec<TermId> = sc_ids
        .into_iter()
        .flat_map(|i| cliques.source_members(i).iter().copied())
        .collect();
    tc_props.sort_unstable();
    tc_props.dedup();
    sc_props.sort_unstable();
    sc_props.dedup();
    (tc_props, sc_props)
}

/// Assembles W_G from all-nodes cliques and the weak partition they give,
/// with its clique → class tables ([`crate::equivalence::weak_classes`]):
/// per-property data edges (Proposition 4), per-class union naming sets —
/// all in `O(#properties)` beyond the quotient's type emission. The
/// [`SummaryContext`] builder passes its cached cliques. `props` are the
/// distinct data properties in first-seen order.
pub(crate) fn build_weak(
    g: &Graph,
    cliques: &Cliques,
    partition: &Partition,
    classes: &CliqueClasses,
    props: &[TermId],
    force_unpacked: bool,
) -> Summary {
    // Proposition 4: all sources of a property are weakly equivalent and
    // so are all its targets, so W_G's data component is exactly one edge
    // per distinct property — derived from the cliques instead of
    // re-scanning (and sort-deduplicating) all of D_G. (Every clique of
    // the all-nodes scope is some node's, so it has a class.)
    let edges: Vec<(u32, TermId, u32)> = props
        .iter()
        .map(|&p| {
            let sc = cliques
                .source_clique_of(p)
                .expect("data property has a source clique");
            let tc = cliques
                .target_clique_of(p)
                .expect("data property has a target clique");
            (classes.of_sc[sc], p, classes.of_tc[tc])
        })
        .collect();
    // The union property sets `N(∪TC(n), ∪SC(n))` per class, gathered
    // from the clique → class maps in O(#properties) — equivalent to
    // (but cheaper than) unioning over every class member.
    let mut tc_sets: Vec<Vec<TermId>> = vec![Vec::new(); partition.len()];
    let mut sc_sets: Vec<Vec<TermId>> = vec![Vec::new(); partition.len()];
    for (c, &class) in classes.of_sc.iter().enumerate() {
        if class != NO_DENSE_ID {
            sc_sets[class as usize].extend_from_slice(cliques.source_members(c));
        }
    }
    for (c, &class) in classes.of_tc.iter().enumerate() {
        if class != NO_DENSE_ID {
            tc_sets[class as usize].extend_from_slice(cliques.target_members(c));
        }
    }
    for set in tc_sets.iter_mut().chain(sc_sets.iter_mut()) {
        set.sort_unstable();
        set.dedup();
    }
    // The forced-unpacked seam deliberately drops the Prop-4 edge plan and
    // re-derives the data component by scanning D_G through the hash
    // fallback — so the packed-vs-fallback test doubles as a
    // derived-edges-vs-full-scan cross-check.
    let plan = if force_unpacked {
        DataPlan::Scan
    } else {
        DataPlan::Edges(&edges)
    };
    let mut namer = Namer::new(g.dict());
    quotient_summary_planned(
        g,
        SummaryKind::Weak,
        partition,
        |i, _| namer.n_term(&tc_sets[i], &sc_sets[i]),
        plan,
        force_unpacked,
    )
}

/// Builds the weak summary of `g` (batch, clique-based).
///
/// Thin wrapper over a throwaway [`SummaryContext`]; to build several
/// summaries of the same graph, create one context and reuse it.
pub fn weak_summary(g: &Graph) -> Summary {
    SummaryContext::new(g).weak_summary()
}

/// Proposition 4: each data property of G appears exactly once in W_G.
/// Returns `true` when the property holds for `summary` w.r.t. `g`.
pub fn check_unique_data_properties(g: &Graph, summary: &Summary) -> bool {
    let distinct_props = g.data_properties().len();
    if summary.graph.data().len() != distinct_props {
        return false;
    }
    let mut seen: rdf_model::FxHashSet<TermId> = Default::default();
    summary.graph.data().iter().all(|t| seen.insert(t.p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{exid, sample_graph, sample_prefixes};
    use crate::naming::display_label;
    use crate::quotient::verify_quotient;
    use rdf_model::Term;

    fn label_of(s: &Summary, g: &Graph, local: &str) -> String {
        let h_node = s.representative(exid(g, local)).unwrap();
        display_label(s.graph.dict().decode(h_node).as_iri().unwrap())
    }

    /// Figure 4: the weak summary of the running example.
    #[test]
    fn figure4_weak_summary() {
        let g = sample_graph();
        let s = weak_summary(&g);
        assert!(verify_quotient(&g, &s));
        let st = s.stats();
        // Nodes: N^{r,p}_{a,t,e,c}, N^a_r, N^t, N^e_p, N^c, Nτ + 3 classes.
        assert_eq!(s.n_summary_nodes(), 6);
        assert_eq!(st.class_nodes, 3);
        assert_eq!(st.all_nodes, 9);
        // Prop 4: 6 data edges, one per property.
        assert_eq!(st.data_edges, 6);
        // τ edges: big→Book, big→Journal, big→Spec, Nτ→Spec.
        assert_eq!(st.type_edges, 4);
        assert_eq!(st.schema_edges, 0);
    }

    /// Figure 4's node labels, via the display form of the minted URIs.
    #[test]
    fn figure4_node_labels() {
        let g = sample_graph();
        let s = weak_summary(&g);
        assert_eq!(
            label_of(&s, &g, "r1"),
            "N[in=published,reviewed][out=author,comment,editor,title]"
        );
        assert_eq!(label_of(&s, &g, "a1"), "N[in=author][out=reviewed]");
        assert_eq!(label_of(&s, &g, "t1"), "N[in=title]");
        assert_eq!(label_of(&s, &g, "e2"), "N[in=editor][out=published]");
        assert_eq!(label_of(&s, &g, "c1"), "N[in=comment]");
        assert_eq!(label_of(&s, &g, "r6"), "Nτ");
    }

    /// Figure 4's edges, stated in §4.1: author/title/editor/comment leave
    /// the big node; reviewed enters it from N^a_r; published from N^e_p;
    /// Nτ carries r6's type.
    #[test]
    fn figure4_edges() {
        let g = sample_graph();
        let s = weak_summary(&g);
        let h = &s.graph;
        let big = s.representative(exid(&g, "r1")).unwrap();
        let nra = s.representative(exid(&g, "a1")).unwrap();
        let nt = s.representative(exid(&g, "t1")).unwrap();
        let npe = s.representative(exid(&g, "e1")).unwrap();
        let nc = s.representative(exid(&g, "c1")).unwrap();
        let ntau = s.representative(exid(&g, "r6")).unwrap();
        let prop = |name: &str| {
            h.dict()
                .lookup(&Term::iri(format!("{}{}", crate::fixtures::EX, name)))
                .unwrap()
        };
        let has = |s: TermId, p: TermId, o: TermId| h.contains(rdf_model::Triple::new(s, p, o));
        assert!(has(big, prop("author"), nra));
        assert!(has(big, prop("title"), nt));
        assert!(has(big, prop("editor"), npe));
        assert!(has(big, prop("comment"), nc));
        assert!(has(nra, prop("reviewed"), big));
        assert!(has(npe, prop("published"), big));
        // τ edges.
        let tau = h.rdf_type();
        assert!(has(big, tau, prop("Book")));
        assert!(has(big, tau, prop("Journal")));
        assert!(has(big, tau, prop("Spec")));
        assert!(has(ntau, tau, prop("Spec")));
    }

    #[test]
    fn proposition4_unique_data_properties() {
        let g = sample_graph();
        let s = weak_summary(&g);
        assert!(check_unique_data_properties(&g, &s));
    }

    #[test]
    fn weak_of_empty_graph() {
        let g = Graph::new();
        let s = weak_summary(&g);
        assert!(s.graph.is_empty());
        assert_eq!(s.n_summary_nodes(), 0);
    }

    #[test]
    fn weak_carries_all_types_of_members() {
        // Both x (typed A) and y (typed B) have property p ⇒ merged ⇒ the
        // summary node carries both types.
        let mut g = Graph::new();
        g.add_iri_triple("x", "p", "v1");
        g.add_iri_triple("y", "p", "v2");
        g.add_iri_triple("x", rdf_model::vocab::RDF_TYPE, "A");
        g.add_iri_triple("y", rdf_model::vocab::RDF_TYPE, "B");
        let s = weak_summary(&g);
        assert_eq!(s.graph.types().len(), 2);
        assert_eq!(s.graph.data().len(), 1);
        let x = g.dict().lookup(&Term::iri("x")).unwrap();
        let y = g.dict().lookup(&Term::iri("y")).unwrap();
        assert_eq!(s.representative(x), s.representative(y));
    }

    #[test]
    fn dot_export_of_summary_works() {
        // Sanity: the summary is a plain RDF graph, so the generic DOT
        // exporter applies to it.
        let g = sample_graph();
        let s = weak_summary(&g);
        let dot = rdf_io::to_dot(
            &s.graph,
            &rdf_io::DotOptions {
                prefixes: sample_prefixes(),
                ..Default::default()
            },
        );
        assert!(dot.contains("digraph"));
        assert!(dot.contains("τ"));
    }
}
