//! Property distance within a clique — Definition 6 of the paper.
//!
//! The distance between data properties `p` and `p'` in a source clique is 0
//! when some resource has both, and otherwise the smallest `n` such that
//! resources r0 … rn and properties p1 … pn exist with r0 having {p, p1},
//! r1 having {p1, p2}, …, rn having {pn, p'}. Symmetrically for target
//! cliques over property *values*.
//!
//! We build the "co-occurrence graph" whose vertices are data properties,
//! with an edge between two properties iff some resource has (is a value
//! of) both; the distance of Definition 6 is then `BFS hops − 1`, and two
//! properties are in the same clique iff they are connected.

use rdf_model::{FxHashMap, FxHashSet, Graph, TermId};
use std::collections::VecDeque;

/// Which side of Definition 5/6 to measure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// Source relatedness: resources *having* the properties.
    Source,
    /// Target relatedness: resources being *values of* the properties.
    Target,
}

/// The property co-occurrence graph for one side.
#[derive(Clone, Debug)]
pub struct CooccurrenceGraph {
    adj: FxHashMap<TermId, FxHashSet<TermId>>,
}

impl CooccurrenceGraph {
    /// Builds the co-occurrence graph of `g`'s data properties.
    pub fn build(g: &Graph, side: Side) -> Self {
        // Group the properties of each anchor resource.
        let mut by_anchor: FxHashMap<TermId, Vec<TermId>> = FxHashMap::default();
        for t in g.data() {
            let anchor = match side {
                Side::Source => t.s,
                Side::Target => t.o,
            };
            let v = by_anchor.entry(anchor).or_default();
            if !v.contains(&t.p) {
                v.push(t.p);
            }
        }
        let mut adj: FxHashMap<TermId, FxHashSet<TermId>> = FxHashMap::default();
        for t in g.data() {
            adj.entry(t.p).or_default();
        }
        for props in by_anchor.values() {
            for i in 0..props.len() {
                for j in (i + 1)..props.len() {
                    adj.entry(props[i]).or_default().insert(props[j]);
                    adj.entry(props[j]).or_default().insert(props[i]);
                }
            }
        }
        CooccurrenceGraph { adj }
    }

    /// The Definition 6 distance between `p` and `q`; `None` when the
    /// properties are in different cliques (or unknown). `p == q` gives 0.
    pub fn distance(&self, p: TermId, q: TermId) -> Option<usize> {
        if !self.adj.contains_key(&p) || !self.adj.contains_key(&q) {
            return None;
        }
        if p == q {
            return Some(0);
        }
        // BFS counting hops; Definition 6 distance = hops − 1.
        let mut seen: FxHashSet<TermId> = FxHashSet::default();
        let mut queue: VecDeque<(TermId, usize)> = VecDeque::new();
        seen.insert(p);
        queue.push_back((p, 0));
        while let Some((node, hops)) = queue.pop_front() {
            for &next in &self.adj[&node] {
                if next == q {
                    return Some(hops); // (hops+1) edges − 1
                }
                if seen.insert(next) {
                    queue.push_back((next, hops + 1));
                }
            }
        }
        None
    }

    /// Are two properties related (same clique)?
    pub fn related(&self, p: TermId, q: TermId) -> bool {
        self.distance(p, q).is_some()
    }

    /// The eccentricity-style maximum distance within `p`'s clique, if any.
    pub fn max_distance_from(&self, p: TermId) -> Option<usize> {
        let mut best = None;
        let keys: Vec<TermId> = self.adj.keys().copied().collect();
        for q in keys {
            if q != p {
                if let Some(d) = self.distance(p, q) {
                    best = Some(best.map_or(d, |b: usize| b.max(d)));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfsum_core::fixtures::{exid, sample_graph};

    /// §3.1: "the distance between a and t is 0 … between a and e is 1 …
    /// between a and c is 2."
    #[test]
    fn paper_distances() {
        let g = sample_graph();
        let co = CooccurrenceGraph::build(&g, Side::Source);
        let a = exid(&g, "author");
        let t = exid(&g, "title");
        let e = exid(&g, "editor");
        let c = exid(&g, "comment");
        assert_eq!(co.distance(a, t), Some(0));
        assert_eq!(co.distance(a, e), Some(1));
        assert_eq!(co.distance(a, c), Some(2));
        // Symmetry.
        assert_eq!(co.distance(c, a), Some(2));
    }

    #[test]
    fn unrelated_properties_have_no_distance() {
        let g = sample_graph();
        let co = CooccurrenceGraph::build(&g, Side::Source);
        let a = exid(&g, "author");
        let r = exid(&g, "reviewed");
        assert_eq!(co.distance(a, r), None);
        assert!(!co.related(a, r));
    }

    #[test]
    fn target_side_distances() {
        let g = sample_graph();
        let co = CooccurrenceGraph::build(&g, Side::Target);
        let r = exid(&g, "reviewed");
        let p = exid(&g, "published");
        // r4 is the value of both ⇒ distance 0.
        assert_eq!(co.distance(r, p), Some(0));
        let a = exid(&g, "author");
        assert_eq!(co.distance(a, r), None);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let g = sample_graph();
        let co = CooccurrenceGraph::build(&g, Side::Source);
        let a = exid(&g, "author");
        assert_eq!(co.distance(a, a), Some(0));
    }

    #[test]
    fn unknown_property_is_none() {
        let g = sample_graph();
        let co = CooccurrenceGraph::build(&g, Side::Source);
        let a = exid(&g, "author");
        let bogus = rdf_model::TermId(9999);
        assert_eq!(co.distance(a, bogus), None);
    }

    #[test]
    fn max_distance_within_clique() {
        let g = sample_graph();
        let co = CooccurrenceGraph::build(&g, Side::Source);
        let a = exid(&g, "author");
        // Farthest from author inside SC1 is comment, at distance 2.
        assert_eq!(co.max_distance_from(a), Some(2));
    }

    #[test]
    fn distance_consistent_with_cliques() {
        use rdfsum_core::cliques::{CliqueScope, Cliques};
        let g = sample_graph();
        let co = CooccurrenceGraph::build(&g, Side::Source);
        let cq = Cliques::compute(&g, CliqueScope::AllNodes);
        let props: Vec<TermId> = g.data_properties().into_iter().collect();
        for &p in &props {
            for &q in &props {
                let same_clique = cq.source_clique_of(p) == cq.source_clique_of(q);
                assert_eq!(co.related(p, q), same_clique, "{p:?} vs {q:?}");
            }
        }
    }
}
