//! The [`Summary`] type: an RDF graph `H_G` plus the node correspondence
//! with the summarized graph.
//!
//! Definition 9 of the paper: `H_G = ⟨D_H, S_H, T_H⟩` where the schema is
//! copied verbatim and `T_H ∪ D_H` is the quotient of `T_G ∪ D_G` by a node
//! equivalence. The correspondence maps are the paper's `rd` (graph node →
//! summary node) and `dr` (summary node → represented nodes) structures
//! from §6.1.

use rdf_model::{FxHashMap, Graph, GraphStats, TermId, NO_DENSE_ID};

/// Which of the paper's summaries a [`Summary`] is.
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
    /// A forward–backward bisimulation quotient — the related-work
    /// baseline of §8, for size comparisons (see [`crate::bisim`]).
    Bisimulation,
}

impl SummaryKind {
    /// All four principal summaries, in the paper's presentation order.
    pub const ALL: [SummaryKind; 4] = [
        SummaryKind::Weak,
        SummaryKind::Strong,
        SummaryKind::TypedWeak,
        SummaryKind::TypedStrong,
    ];

    /// The paper's notation for this summary.
    pub fn notation(self) -> &'static str {
        match self {
            SummaryKind::Weak => "W",
            SummaryKind::Strong => "S",
            SummaryKind::TypedWeak => "TW",
            SummaryKind::TypedStrong => "TS",
            SummaryKind::TypeBased => "T",
            SummaryKind::Bisimulation => "FB",
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
    /// Which summary this is.
    pub kind: SummaryKind,
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
    pub fn new(kind: SummaryKind, graph: Graph, node_map: FxHashMap<TermId, TermId>) -> Self {
        let n_g_terms = node_map.keys().map(|k| k.index() + 1).max().unwrap_or(0);
        let mut node_of = vec![NO_DENSE_ID; n_g_terms];
        let mut pairs: Vec<(u32, TermId)> = Vec::with_capacity(node_map.len());
        for (&gn, &hn) in &node_map {
            node_of[gn.index()] = hn.0;
            pairs.push((hn.0, gn));
        }
        Self::finish(kind, graph, node_of, &pairs, 1)
    }

    /// Creates a summary straight from a partition and its class → H node
    /// assignment: the dense fast path used by the quotient operator (no
    /// per-node hashing). `threads` (≥ 1) shapes the extent-table
    /// construction: the quotient passes its emission worker count, so a
    /// context's builds ride the same ranges end to end.
    pub(crate) fn from_quotient(
        kind: SummaryKind,
        graph: Graph,
        partition: &crate::equivalence::Partition,
        class_node: &[TermId],
        n_g_terms: usize,
        threads: usize,
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
        Self::finish(kind, graph, node_of, &pairs, threads)
    }

    /// Builds the CSR extent table from `(H id, G node)` pairs. Each G
    /// node maps to exactly one H node (`node_of` is a function), so the
    /// rows need sorting but never deduplication.
    ///
    /// The counting pass is a serial sweep (scattered row increments);
    /// the member scatter and the per-row sorts split across row ranges
    /// (`threads` workers) — bit-identical to the serial build, since the
    /// scatter preserves pair order per row and the sorts canonicalize
    /// each row anyway.
    fn finish(
        kind: SummaryKind,
        graph: Graph,
        node_of: Vec<u32>,
        pairs: &[(u32, TermId)],
        threads: usize,
    ) -> Self {
        let n_h = graph.dict().len();
        let mut deg = vec![0u32; n_h];
        for &(h, _) in pairs {
            deg[h as usize] += 1;
        }
        let n_nodes = deg.iter().filter(|&&d| d > 0).count();
        let (extent_offsets, mut extent_members) = fill_csr_values(&deg, pairs, threads, TermId(0));
        sort_csr_rows(&extent_offsets, &mut extent_members, threads);
        Summary {
            kind,
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

/// Exclusive prefix sum of per-row counts: the CSR offsets table.
fn csr_offsets(deg: &[u32]) -> Vec<u32> {
    let n = deg.len();
    let mut offsets = vec![0u32; n + 1];
    for v in 0..n {
        offsets[v + 1] = offsets[v] + deg[v];
    }
    offsets
}

/// Builds one CSR side from `(row, value)` entries in scan order; `deg`
/// holds the per-row entry counts. Returns `(offsets, values)` with each
/// row's values in entry order. The extent table is the one caller
/// (values: [`TermId`]s); `zero` seeds the values array before the scatter
/// (every slot is overwritten; the seed only exists because the value type
/// carries no `Default`).
///
/// One worker runs a cursor sweep. More workers fill in two parallel
/// phases: every input chunk first partitions its entries into per-worker
/// buckets by row range (ranges balanced by entry count), then each worker
/// fills its own **contiguous** slice of the values array from its buckets
/// in chunk order. Row ranges make the written slices disjoint `&mut`
/// splits — no atomics, no locks — and chunk order keeps each row's values
/// in scan order, so the result is bit-identical to the cursor sweep.
fn fill_csr_values<V: Copy + Send + Sync>(
    deg: &[u32],
    entries: &[(u32, V)],
    threads: usize,
    zero: V,
) -> (Vec<u32>, Vec<V>) {
    let offsets = csr_offsets(deg);
    let n = deg.len();
    let mut values = vec![zero; offsets[n] as usize];
    // Row → worker assignments live in a u8 table, hence the 256 cap.
    let bounds = crate::parallel::row_bounds(&offsets, threads.min(256));
    let threads = bounds.len() - 1;
    if threads == 1 {
        // The bucketed fill below would copy every entry into one bucket
        // first; a cursor sweep writes them where they go.
        let mut cursor = offsets[..n].to_vec();
        for &(row, v) in entries {
            values[cursor[row as usize] as usize] = v;
            cursor[row as usize] += 1;
        }
        return (offsets, values);
    }
    let mut worker_of_row = vec![0u8; n];
    for w in 0..threads {
        worker_of_row[bounds[w]..bounds[w + 1]].fill(w as u8);
    }
    // Phase 1 (parallel): each chunk splits its entries into per-worker
    // buckets, preserving scan order inside each bucket.
    let chunk_size = entries.len().div_ceil(threads).max(1);
    let buckets: Vec<Vec<Vec<(u32, V)>>> = std::thread::scope(|scope| {
        let worker_of_row = &worker_of_row;
        let handles: Vec<_> = entries
            .chunks(chunk_size)
            .map(|chunk| {
                scope.spawn(move || {
                    // (`vec![..; threads]` would clone away the capacity.)
                    let mut out: Vec<Vec<(u32, V)>> = (0..threads)
                        .map(|_| Vec::with_capacity(chunk.len() / threads + 8))
                        .collect();
                    for &e in chunk {
                        out[worker_of_row[e.0 as usize] as usize].push(e);
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Phase 2 (parallel): split the values array at the range boundaries
    // and let each worker fill its slice from its buckets in chunk order.
    std::thread::scope(|scope| {
        let mut rest: &mut [V] = &mut values;
        let mut consumed = 0u32;
        for w in 0..threads {
            let (lo, hi) = (bounds[w], bounds[w + 1]);
            let width = (offsets[hi] - offsets[lo]) as usize;
            debug_assert_eq!(consumed, offsets[lo]);
            let (slice, tail) = rest.split_at_mut(width);
            rest = tail;
            consumed += width as u32;
            let base = offsets[lo];
            let range_offsets = &offsets[lo..=hi];
            let my_buckets: Vec<&[(u32, V)]> = buckets.iter().map(|b| b[w].as_slice()).collect();
            scope.spawn(move || {
                let mut cursor: Vec<u32> =
                    range_offsets[..hi - lo].iter().map(|&o| o - base).collect();
                for bucket in my_buckets {
                    for &(row, v) in bucket {
                        let c = &mut cursor[row as usize - lo];
                        slice[*c as usize] = v;
                        *c += 1;
                    }
                }
            });
        }
    });
    (offsets, values)
}

/// Sorts every CSR row in place, splitting the rows across workers at
/// boundaries balanced by entry count (the same row-range split as the
/// fill: contiguous rows own contiguous value slots, so the written
/// slices are disjoint `&mut` splits). The result is exactly a sequential
/// per-row `sort_unstable` — of the extent table's `dr` member rows. A
/// single range is sorted on the calling thread.
fn sort_csr_rows<V: Ord + Send>(offsets: &[u32], values: &mut [V], threads: usize) {
    let bounds = crate::parallel::row_bounds(offsets, threads);
    let sort_range = |lo: usize, hi: usize, slice: &mut [V]| {
        let base = offsets[lo];
        for r in lo..hi {
            slice[(offsets[r] - base) as usize..(offsets[r + 1] - base) as usize].sort_unstable();
        }
    };
    if let [lo, hi] = bounds[..] {
        return sort_range(lo, hi, values);
    }
    std::thread::scope(|scope| {
        let mut rest: &mut [V] = values;
        for r in bounds.windows(2) {
            let (lo, hi) = (r[0], r[1]);
            let (slice, tail) = rest.split_at_mut((offsets[hi] - offsets[lo]) as usize);
            rest = tail;
            scope.spawn(move || sort_range(lo, hi, slice));
        }
    });
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
        let s = Summary::new(SummaryKind::Weak, Graph::new(), node_map);
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
        let dense = crate::weak::weak_summary(&g);
        let node_map: FxHashMap<TermId, TermId> = (0..g.dict().len() as u32)
            .map(TermId)
            .filter_map(|n| dense.representative(n).map(|h| (n, h)))
            .collect();
        assert_eq!(node_map.len(), dense.n_represented());
        let hashed = Summary::new(SummaryKind::Weak, dense.graph.clone(), node_map);
        assert_eq!(hashed.n_summary_nodes(), dense.n_summary_nodes());
        for n in (0..g.dict().len() as u32 + 1).map(TermId) {
            assert_eq!(hashed.representative(n), dense.representative(n));
        }
        for h in (0..dense.graph.dict().len() as u32 + 1).map(TermId) {
            assert_eq!(hashed.extent(h), dense.extent(h));
        }
        assert!(hashed.check_correspondence_invariants());
    }

    /// The chunked parallel CSR fill is bit-identical to the sequential
    /// cursor sweep, for every worker count, on adversarial row shapes
    /// (empty rows, hot rows, rows split across chunk boundaries).
    #[test]
    fn parallel_csr_fill_matches_sequential() {
        let mut rng = rdf_model::SplitMix64::new(0xC5A);
        for case in 0..40 {
            let n = 1 + (case % 17);
            let n_entries = case * 7;
            let mut deg = vec![0u32; n];
            let mut entries = Vec::with_capacity(n_entries);
            for _ in 0..n_entries {
                // Skewed row choice: row 0 is hot.
                let row = if rng.index(3) == 0 { 0 } else { rng.index(n) };
                deg[row] += 1;
                entries.push((row as u32, rng.index(1 << 20) as u32));
            }
            let (seq_off, seq_vals) = fill_csr_values(&deg, &entries, 1, 0u32);
            for threads in [2, 3, 5, 8] {
                let (off, vals) = fill_csr_values(&deg, &entries, threads, 0u32);
                assert_eq!(off, seq_off, "case {case}, {threads} threads");
                assert_eq!(vals, seq_vals, "case {case}, {threads} threads");
            }
        }
    }

    #[test]
    fn stats_of_empty() {
        let s = SummaryStats::of(&Graph::new());
        assert_eq!(s, SummaryStats::default());
    }

    #[test]
    fn compression_ratio() {
        let s = Summary::new(SummaryKind::Weak, Graph::new(), FxHashMap::default());
        assert_eq!(s.compression_ratio(0), 0.0);
        assert_eq!(s.compression_ratio(100), 0.0);
    }
}
