//! The [`Summary`] type: an RDF graph `H_G` plus the node correspondence
//! with the summarized graph.
//!
//! Definition 9 of the paper: `H_G = ⟨D_H, S_H, T_H⟩` where the schema is
//! copied verbatim and `T_H ∪ D_H` is the quotient of `T_G ∪ D_G` by a node
//! equivalence. The correspondence maps are the paper's `rd` (graph node →
//! summary node) and `dr` (summary node → represented nodes) structures
//! from §6.1.

use rdf_model::{FxHashMap, Graph, GraphStats, TermId, NO_DENSE_ID};

/// Which of the paper's quotient summaries to build: the five kinds the
/// service serves, each with a quotient map. A [`Summary`] does not record
/// its kind — whoever built it holds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SummaryKind {
    /// W_G — weak summary (Definition 11).
    Weak,
    /// S_G — strong summary (Definition 15).
    Strong,
    /// TW_G — typed weak summary (Definition 14).
    TypedWeak,
    /// TS_G — typed strong summary (Definition 17).
    TypedStrong,
    /// T_G — type-based summary (Definition 12), a building block of the
    /// typed summaries that is also useful on its own.
    TypeBased,
}

impl SummaryKind {
    /// All four principal summaries, in the paper's presentation order.
    pub const ALL: [SummaryKind; 4] = [
        SummaryKind::Weak,
        SummaryKind::Strong,
        SummaryKind::TypedWeak,
        SummaryKind::TypedStrong,
    ];

    /// Every summary kind, in the service's preference order: the kind a
    /// `QUERY` that names none is pruned with is the first one cached, and
    /// an `UPDATE` carries the cached kinds over in this order, so the
    /// query-facing one is ready first.
    pub const EVERY: [SummaryKind; 5] = [
        SummaryKind::Weak,
        SummaryKind::TypedWeak,
        SummaryKind::Strong,
        SummaryKind::TypedStrong,
        SummaryKind::TypeBased,
    ];

    /// The kind's token: the CLI's `--kind` and the protocol's
    /// `SUMMARIZE` operand, and the `<kind>` of a persisted artifact's
    /// file name.
    pub fn token(self) -> &'static str {
        match self {
            SummaryKind::Weak => "w",
            SummaryKind::Strong => "s",
            SummaryKind::TypedWeak => "tw",
            SummaryKind::TypedStrong => "ts",
            SummaryKind::TypeBased => "t",
        }
    }

    /// The paper's notation for this summary.
    pub fn notation(self) -> &'static str {
        match self {
            SummaryKind::Weak => "W",
            SummaryKind::Strong => "S",
            SummaryKind::TypedWeak => "TW",
            SummaryKind::TypedStrong => "TS",
            SummaryKind::TypeBased => "T",
        }
    }
}

impl std::fmt::Display for SummaryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.notation())
    }
}

/// Size figures for a summary, matching the series of Figures 11 and 12.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SummaryStats {
    /// Data nodes of H (Figure 11, top).
    pub data_nodes: usize,
    /// Class nodes of H.
    pub class_nodes: usize,
    /// All nodes of H (Figure 11, bottom).
    pub all_nodes: usize,
    /// Data edges |D_H|_e (Figure 12, top).
    pub data_edges: usize,
    /// Type edges |T_H|_e.
    pub type_edges: usize,
    /// Schema edges |S_H|_e.
    pub schema_edges: usize,
    /// All edges |H|_e (Figure 12, bottom).
    pub all_edges: usize,
}

impl SummaryStats {
    /// Measures a summary graph.
    pub fn of(h: &Graph) -> Self {
        let st = GraphStats::of(h);
        SummaryStats {
            data_nodes: st.data_nodes,
            class_nodes: st.class_nodes,
            all_nodes: st.nodes,
            data_edges: st.data_edges,
            type_edges: st.type_edges,
            schema_edges: st.schema_edges,
            all_edges: st.edges,
        }
    }
}

/// A summary `H_G` of some graph `G`, with the node correspondence.
///
/// Both correspondence directions are dense `Vec`-indexed tables (the
/// `rd` side keyed by the G dictionary id, the `dr` side by the H
/// dictionary id), so lookups are array reads — part of the dense
/// summarization pipeline. The `dr` side is a CSR layout (one offsets
/// table plus one flat member array) rather than a `Vec` per H term, so
/// building it costs two flat passes and zero per-node heap allocations —
/// which matters for the type-based summaries, where class counts run
/// into the thousands.
#[derive(Clone, Debug)]
pub struct Summary {
    /// The summary RDF graph (its own dictionary).
    pub graph: Graph,
    /// `rd`: G-term-indexed → H node id, [`NO_DENSE_ID`] if unrepresented.
    node_of: Vec<u32>,
    /// `dr` offsets: H-term-indexed into [`Summary::extent_members`]
    /// (`len = H dictionary len + 1`).
    extent_offsets: Vec<u32>,
    /// `dr` members: each H term's represented G data nodes, sorted,
    /// concatenated in H id order.
    extent_members: Vec<TermId>,
    /// Distinct H representatives (non-empty extents).
    n_nodes: usize,
}

impl Summary {
    /// Creates a summary from a hash-map correspondence. For builders that
    /// accumulate `rd` incrementally — `rdfsum-experiments`' streaming
    /// algorithms and reference oracle; the served path is the quotient's
    /// dense `from_quotient`.
    pub fn new(graph: Graph, node_map: FxHashMap<TermId, TermId>) -> Self {
        let n_g_terms = node_map.keys().map(|k| k.index() + 1).max().unwrap_or(0);
        let mut node_of = vec![NO_DENSE_ID; n_g_terms];
        let mut pairs: Vec<(u32, TermId)> = Vec::with_capacity(node_map.len());
        for (&gn, &hn) in &node_map {
            node_of[gn.index()] = hn.0;
            pairs.push((hn.0, gn));
        }
        Self::finish(graph, node_of, &pairs)
    }

    /// Creates a summary straight from a partition and its class → H node
    /// assignment: the dense fast path used by the quotient operator (no
    /// per-node hashing).
    pub(crate) fn from_quotient(
        graph: Graph,
        partition: &crate::equivalence::Partition,
        class_node: &[TermId],
        n_g_terms: usize,
    ) -> Self {
        let mut node_of = vec![NO_DENSE_ID; n_g_terms];
        let mut pairs: Vec<(u32, TermId)> = Vec::with_capacity(partition.n_members());
        for (c, members) in partition.classes.iter().enumerate() {
            let hn = class_node[c];
            for &n in members {
                node_of[n.index()] = hn.0;
                pairs.push((hn.0, n));
            }
        }
        Self::finish(graph, node_of, &pairs)
    }

    /// Builds the CSR extent table from `(H id, G node)` pairs: a count per
    /// row, its prefix sum, one cursor scatter of the members and a sort of
    /// each row. Each G node maps to exactly one H node (`node_of` is a
    /// function), so the rows need sorting but never deduplication.
    fn finish(graph: Graph, node_of: Vec<u32>, pairs: &[(u32, TermId)]) -> Self {
        let n_h = graph.dict().len();
        let mut extent_offsets = vec![0u32; n_h + 1];
        for &(h, _) in pairs {
            extent_offsets[h as usize + 1] += 1;
        }
        let n_nodes = extent_offsets.iter().filter(|&&d| d > 0).count();
        for h in 0..n_h {
            extent_offsets[h + 1] += extent_offsets[h];
        }
        let mut cursor = extent_offsets[..n_h].to_vec();
        let mut extent_members = vec![TermId(0); pairs.len()];
        for &(h, n) in pairs {
            let slot = &mut cursor[h as usize];
            extent_members[*slot as usize] = n;
            *slot += 1;
        }
        for row in extent_offsets.windows(2) {
            extent_members[row[0] as usize..row[1] as usize].sort_unstable();
        }
        Summary {
            graph,
            node_of,
            extent_offsets,
            extent_members,
            n_nodes,
        }
    }

    /// The summary node representing a G data node (`rd` lookup).
    pub fn representative(&self, g_node: TermId) -> Option<TermId> {
        match self.node_of.get(g_node.index()) {
            Some(&h) if h != NO_DENSE_ID => Some(TermId(h)),
            _ => None,
        }
    }

    /// The G data nodes represented by a summary node (`dr` lookup),
    /// sorted by id; empty for nodes that represent nothing (class nodes).
    pub fn extent(&self, h_node: TermId) -> &[TermId] {
        let i = h_node.index();
        if i + 1 >= self.extent_offsets.len() {
            return &[];
        }
        &self.extent_members[self.extent_offsets[i] as usize..self.extent_offsets[i + 1] as usize]
    }

    /// The extent size of every H id (`dr` row lengths; 0 for the nodes
    /// that represent nothing) — what summary-based cardinality estimates
    /// weigh summary nodes by.
    pub(crate) fn extent_sizes(&self) -> Vec<u32> {
        self.extent_offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect()
    }

    /// Number of summary data nodes (distinct representatives).
    pub fn n_summary_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of represented G data nodes.
    pub fn n_represented(&self) -> usize {
        self.extent_members.len()
    }

    /// Size statistics (Figures 11/12 series).
    pub fn stats(&self) -> SummaryStats {
        SummaryStats::of(&self.graph)
    }

    /// The compression ratio `|H|_e / |G|_e` against a given input size.
    pub fn compression_ratio(&self, input_edges: usize) -> f64 {
        if input_edges == 0 {
            return 0.0;
        }
        self.graph.len() as f64 / input_edges as f64
    }

    /// Well-formedness of the correspondence: every represented node maps
    /// into an existing extent, extents partition the represented nodes.
    pub fn check_correspondence_invariants(&self) -> bool {
        let covered = self.node_of.iter().filter(|&&h| h != NO_DENSE_ID).count();
        covered == self.n_represented()
            && self.node_of.iter().enumerate().all(|(i, &h)| {
                h == NO_DENSE_ID
                    || self
                        .extent(TermId(h))
                        .binary_search(&TermId(i as u32))
                        .is_ok()
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_notation() {
        assert_eq!(SummaryKind::Weak.to_string(), "W");
        assert_eq!(SummaryKind::TypedStrong.to_string(), "TS");
        assert_eq!(SummaryKind::ALL.len(), 4);
    }

    #[test]
    fn correspondence_roundtrip() {
        let mut node_map = FxHashMap::default();
        node_map.insert(TermId(10), TermId(0));
        node_map.insert(TermId(11), TermId(0));
        node_map.insert(TermId(12), TermId(1));
        let s = Summary::new(Graph::new(), node_map);
        assert_eq!(s.representative(TermId(10)), Some(TermId(0)));
        assert_eq!(s.extent(TermId(0)), &[TermId(10), TermId(11)]);
        assert_eq!(s.extent(TermId(1)), &[TermId(12)]);
        assert_eq!(s.extent(TermId(9)), &[] as &[TermId]);
        assert_eq!(s.n_summary_nodes(), 2);
        assert_eq!(s.n_represented(), 3);
        assert!(s.check_correspondence_invariants());
    }

    /// The hash-map constructor (the seam `rdfsum-experiments` builds
    /// through) and the quotient's dense one agree on the correspondence.
    #[test]
    fn new_matches_from_quotient_on_the_sample_weak_partition() {
        let g = crate::fixtures::sample_graph();
        let dense = crate::summarize(&g, SummaryKind::Weak);
        let node_map: FxHashMap<TermId, TermId> = (0..g.dict().len() as u32)
            .map(TermId)
            .filter_map(|n| dense.representative(n).map(|h| (n, h)))
            .collect();
        assert_eq!(node_map.len(), dense.n_represented());
        let hashed = Summary::new(dense.graph.clone(), node_map);
        assert_eq!(hashed.n_summary_nodes(), dense.n_summary_nodes());
        for n in (0..g.dict().len() as u32 + 1).map(TermId) {
            assert_eq!(hashed.representative(n), dense.representative(n));
        }
        for h in (0..dense.graph.dict().len() as u32 + 1).map(TermId) {
            assert_eq!(hashed.extent(h), dense.extent(h));
        }
        assert!(hashed.check_correspondence_invariants());
    }

    #[test]
    fn stats_of_empty() {
        let s = SummaryStats::of(&Graph::new());
        assert_eq!(s, SummaryStats::default());
    }

    #[test]
    fn compression_ratio() {
        let s = Summary::new(Graph::new(), FxHashMap::default());
        assert_eq!(s.compression_ratio(0), 0.0);
        assert_eq!(s.compression_ratio(100), 0.0);
    }
}
