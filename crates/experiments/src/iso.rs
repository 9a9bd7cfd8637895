//! Isomorphism of summary graphs.
//!
//! Summaries are RDF graphs whose minted node URIs (the `urn:rdfsummary:`
//! namespace) are representation-function artifacts: two summaries are "the
//! same" when a bijection between their minted nodes preserves all triples,
//! while every other term (property URIs, class URIs, schema terms —
//! preserved identities per Definition 9) maps to itself.
//!
//! Our builders derive minted URIs deterministically from property/class
//! sets, so equal summaries usually compare equal term-for-term. The iso
//! check matters when names *cannot* align — e.g. the `C(∅)` fresh URIs of
//! the type-based summary, or summaries produced by external tools — and as
//! a defensive equivalence in the fixpoint/completeness checkers.
//!
//! Algorithm: Weisfeiler–Leman color refinement to partition nodes, then
//! backtracking search over the (small) free-node classes with incremental
//! edge consistency, followed by a full verification of the candidate
//! bijection. Summary graphs are tiny (the point of the paper), so this is
//! plenty fast.

use rdf_model::{FxHashMap, FxHashSet, Graph, TermRef};
use rdfsum_core::naming::SUMMARY_NS;
use std::hash::{BuildHasher, Hash};

/// A graph lowered to dense node indices with string-keyed labels.
struct IsoGraph {
    /// Canonical term string per node (N-Triples form).
    terms: Vec<String>,
    /// Is the node a minted summary node (renameable)?
    free: Vec<bool>,
    /// Edges as (source node, property string index, target node).
    edges: Vec<(usize, usize, usize)>,
    /// Set form of `edges` for O(1) membership.
    edge_set: FxHashSet<(usize, usize, usize)>,
    /// Adjacency: node → (property index, outgoing?, neighbor).
    adj: Vec<Vec<(usize, bool, usize)>>,
}

fn term_key(t: TermRef<'_>) -> String {
    // A canonical, collision-free string form.
    t.to_string()
}

fn is_minted(t: TermRef<'_>) -> bool {
    t.as_iri().is_some_and(|iri| iri.starts_with(SUMMARY_NS))
}

fn lower(g: &Graph, prop_ids: &mut FxHashMap<String, usize>) -> IsoGraph {
    let mut node_ids: FxHashMap<String, usize> = FxHashMap::default();
    let mut terms: Vec<String> = Vec::new();
    let mut free: Vec<bool> = Vec::new();
    let node = |t: TermRef<'_>,
                node_ids: &mut FxHashMap<String, usize>,
                terms: &mut Vec<String>,
                free: &mut Vec<bool>|
     -> usize {
        let key = term_key(t);
        if let Some(&i) = node_ids.get(&key) {
            return i;
        }
        let i = terms.len();
        node_ids.insert(key.clone(), i);
        terms.push(key);
        free.push(is_minted(t));
        i
    };
    let mut edges = Vec::new();
    for t in g.iter() {
        let s = node(g.dict().decode(t.s), &mut node_ids, &mut terms, &mut free);
        let o = node(g.dict().decode(t.o), &mut node_ids, &mut terms, &mut free);
        let pkey = term_key(g.dict().decode(t.p));
        let next = prop_ids.len();
        let p = *prop_ids.entry(pkey).or_insert(next);
        edges.push((s, p, o));
    }
    let mut adj: Vec<Vec<(usize, bool, usize)>> = vec![Vec::new(); terms.len()];
    let mut edge_set = FxHashSet::default();
    for &(s, p, o) in &edges {
        adj[s].push((p, true, o));
        adj[o].push((p, false, s));
        edge_set.insert((s, p, o));
    }
    IsoGraph {
        terms,
        free,
        edges,
        edge_set,
        adj,
    }
}

fn hash_of<T: Hash>(v: &T) -> u64 {
    rdf_model::FxBuildHasher::default().hash_one(v)
}

/// WL color refinement; returns stable colors.
fn refine(g: &IsoGraph, rounds: usize) -> Vec<u64> {
    let mut colors: Vec<u64> = g
        .terms
        .iter()
        .zip(&g.free)
        .map(|(t, &f)| if f { hash_of(&"__free__") } else { hash_of(t) })
        .collect();
    for _ in 0..rounds {
        let mut next = Vec::with_capacity(colors.len());
        for (i, c) in colors.iter().enumerate() {
            let mut sig: Vec<(usize, bool, u64)> = g.adj[i]
                .iter()
                .map(|&(p, out, n)| (p, out, colors[n]))
                .collect();
            sig.sort_unstable();
            next.push(hash_of(&(*c, sig)));
        }
        colors = next;
    }
    colors
}

/// Are the two graphs isomorphic in the summary sense (minted nodes
/// renameable, all other terms fixed)?
pub fn summary_isomorphic(a: &Graph, b: &Graph) -> bool {
    if a.len() != b.len()
        || a.data().len() != b.data().len()
        || a.types().len() != b.types().len()
        || a.schema().len() != b.schema().len()
    {
        return false;
    }
    let mut prop_ids = FxHashMap::default();
    let ga = lower(a, &mut prop_ids);
    let gb = lower(b, &mut prop_ids);
    if ga.terms.len() != gb.terms.len() || ga.edges.len() != gb.edges.len() {
        return false;
    }

    // Fixed terms must coincide.
    let fixed_a: FxHashSet<&String> = ga
        .terms
        .iter()
        .zip(&ga.free)
        .filter(|(_, &f)| !f)
        .map(|(t, _)| t)
        .collect();
    let fixed_b: FxHashSet<&String> = gb
        .terms
        .iter()
        .zip(&gb.free)
        .filter(|(_, &f)| !f)
        .map(|(t, _)| t)
        .collect();
    if fixed_a != fixed_b {
        return false;
    }

    let ca = refine(&ga, 4);
    let cb = refine(&gb, 4);
    // Color histograms must match.
    let mut ha: Vec<u64> = ca.clone();
    let mut hb: Vec<u64> = cb.clone();
    ha.sort_unstable();
    hb.sort_unstable();
    if ha != hb {
        return false;
    }

    // Initial mapping: fixed terms map by identity.
    let index_b: FxHashMap<&String, usize> =
        gb.terms.iter().enumerate().map(|(i, t)| (t, i)).collect();
    let n = ga.terms.len();
    let mut mapping: Vec<Option<usize>> = vec![None; n];
    let mut used: Vec<bool> = vec![false; n];
    for i in 0..n {
        if !ga.free[i] {
            let j = index_b[&ga.terms[i]];
            if gb.free[j] || cb[j] != ca[i] {
                return false;
            }
            mapping[i] = Some(j);
            used[j] = true;
        }
    }

    // Free nodes, most-constrained first (rarest color).
    let mut color_freq: FxHashMap<u64, usize> = FxHashMap::default();
    for &c in &ca {
        *color_freq.entry(c).or_insert(0) += 1;
    }
    let mut order: Vec<usize> = (0..n).filter(|&i| ga.free[i]).collect();
    order.sort_by_key(|&i| (color_freq[&ca[i]], i));

    fn consistent(
        ga: &IsoGraph,
        gb: &IsoGraph,
        mapping: &[Option<usize>],
        i: usize,
        j: usize,
    ) -> bool {
        // Every a-edge between i and an assigned node must exist in b.
        for &(p, out, nbr) in &ga.adj[i] {
            let mapped = if nbr == i { Some(j) } else { mapping[nbr] };
            if let Some(mn) = mapped {
                let probe = if out { (j, p, mn) } else { (mn, p, j) };
                if !gb.edge_set.contains(&probe) {
                    return false;
                }
            }
        }
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn search(
        ga: &IsoGraph,
        gb: &IsoGraph,
        ca: &[u64],
        cb: &[u64],
        order: &[usize],
        k: usize,
        mapping: &mut Vec<Option<usize>>,
        used: &mut Vec<bool>,
    ) -> bool {
        if k == order.len() {
            return true;
        }
        let i = order[k];
        for j in 0..gb.terms.len() {
            if used[j] || !gb.free[j] || cb[j] != ca[i] {
                continue;
            }
            if consistent(ga, gb, mapping, i, j) {
                mapping[i] = Some(j);
                used[j] = true;
                if search(ga, gb, ca, cb, order, k + 1, mapping, used) {
                    return true;
                }
                mapping[i] = None;
                used[j] = false;
            }
        }
        false
    }

    if !search(&ga, &gb, &ca, &cb, &order, 0, &mut mapping, &mut used) {
        return false;
    }
    // Full verification (b→a containment follows from equal edge counts +
    // injectivity).
    ga.edges.iter().all(|&(s, p, o)| {
        gb.edge_set
            .contains(&(mapping[s].unwrap(), p, mapping[o].unwrap()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfsum_core::fixtures::sample_graph;
    use rdfsum_core::naming::SUMMARY_NS;
    use rdfsum_core::{summarize, SummaryKind};

    fn mint(local: &str) -> String {
        format!("{SUMMARY_NS}{local}")
    }

    #[test]
    fn summary_is_isomorphic_to_itself() {
        let s = summarize(&sample_graph(), SummaryKind::Weak);
        assert!(summary_isomorphic(&s.graph, &s.graph));
    }

    #[test]
    fn renamed_minted_nodes_are_isomorphic() {
        let mut a = Graph::new();
        a.add_iri_triple(&mint("x"), "http://x/p", &mint("y"));
        a.add_iri_triple(&mint("x"), rdf_model::vocab::RDF_TYPE, "http://x/C");
        let mut b = Graph::new();
        b.add_iri_triple(&mint("renamed1"), "http://x/p", &mint("renamed2"));
        b.add_iri_triple(&mint("renamed1"), rdf_model::vocab::RDF_TYPE, "http://x/C");
        assert!(summary_isomorphic(&a, &b));
    }

    #[test]
    fn fixed_terms_may_not_be_renamed() {
        let mut a = Graph::new();
        a.add_iri_triple("http://x/fixed", "http://x/p", &mint("y"));
        let mut b = Graph::new();
        b.add_iri_triple("http://x/other", "http://x/p", &mint("y"));
        assert!(!summary_isomorphic(&a, &b));
    }

    #[test]
    fn different_shapes_are_not_isomorphic() {
        let mut a = Graph::new();
        a.add_iri_triple(&mint("x"), "http://x/p", &mint("y"));
        a.add_iri_triple(&mint("y"), "http://x/p", &mint("z"));
        // Chain vs fork.
        let mut b = Graph::new();
        b.add_iri_triple(&mint("x"), "http://x/p", &mint("y"));
        b.add_iri_triple(&mint("x"), "http://x/p", &mint("z"));
        assert!(!summary_isomorphic(&a, &b));
    }

    #[test]
    fn property_labels_matter() {
        let mut a = Graph::new();
        a.add_iri_triple(&mint("x"), "http://x/p", &mint("y"));
        let mut b = Graph::new();
        b.add_iri_triple(&mint("x"), "http://x/q", &mint("y"));
        assert!(!summary_isomorphic(&a, &b));
    }

    #[test]
    fn direction_matters() {
        let mut a = Graph::new();
        a.add_iri_triple(&mint("x"), "http://x/p", &mint("y"));
        a.add_iri_triple(&mint("y"), "http://x/q", &mint("x"));
        let mut b = Graph::new();
        b.add_iri_triple(&mint("x"), "http://x/p", &mint("y"));
        b.add_iri_triple(&mint("x"), "http://x/q", &mint("y"));
        assert!(!summary_isomorphic(&a, &b));
    }

    #[test]
    fn automorphic_cycle_found() {
        // A 3-cycle of minted nodes: any rotation is an isomorphism; the
        // search must find one.
        let mut a = Graph::new();
        for (s, o) in [("n1", "n2"), ("n2", "n3"), ("n3", "n1")] {
            a.add_iri_triple(&mint(s), "http://x/e", &mint(o));
        }
        let mut b = Graph::new();
        for (s, o) in [("m9", "m7"), ("m7", "m8"), ("m8", "m9")] {
            b.add_iri_triple(&mint(s), "http://x/e", &mint(o));
        }
        assert!(summary_isomorphic(&a, &b));
    }

    #[test]
    fn self_loops_respected() {
        let mut a = Graph::new();
        a.add_iri_triple(&mint("x"), "http://x/p", &mint("x"));
        let mut b = Graph::new();
        b.add_iri_triple(&mint("x"), "http://x/p", &mint("y"));
        assert!(!summary_isomorphic(&a, &b));
    }

    #[test]
    fn two_builds_of_type_summary_are_isomorphic() {
        // C(∅) mints fresh URIs, so two runs differ textually but must be
        // isomorphic.
        let g = sample_graph();
        let a = summarize(&g, SummaryKind::TypeBased);
        let b = summarize(&g, SummaryKind::TypeBased);
        assert!(summary_isomorphic(&a.graph, &b.graph));
    }
}
