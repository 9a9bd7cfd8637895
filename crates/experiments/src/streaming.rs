//! The paper's streaming summarization algorithms (§6.2, Algorithms 1–3).
//!
//! Data triples are read one by one; their subject and object are
//! represented by source and target data nodes, "possibly unifying the
//! source and target nodes based on the information newly found". The
//! per-property structures are the ones named in §6.1:
//!
//! * `rd` / `dr` — graph node ↔ summary node correspondence;
//! * `dpSrc` / `dpTarg` — the *one* untyped source (target) summary node of
//!   each data property (footnote 3);
//! * `dtp` — property → summary data triple(s);
//! * `dcls` — summary node → class set.
//!
//! `MERGEDATANODES` is realized with a union–find over summary node ids
//! (union by size — the paper's "replaces the node with less edges" — with
//! identical results since merging is order-insensitive up to naming, and
//! our final node names are derived from property sets, not merge order).
//!
//! The streaming weak builder produces a summary **equal** (same URIs, same
//! triples) to the batch clique-based builder — a strong cross-check both
//! implementations are tested against. The typed-weak variant summarizes
//! type triples first (the paper's TW ordering), then data triples, never
//! merging typed nodes.

use rdf_model::{FxHashMap, Graph, Term, TermId, Triple};
use rdfsum_core::naming::Namer;
use rdfsum_core::summary::Summary;
use rdfsum_core::unionfind::UnionFind;

/// Internal: mutable summarization state shared by the streaming builders.
struct Stream {
    /// Union–find over summary node ids (`MERGEDATANODES`).
    uf: UnionFind,
    /// `rd`: G node → summary node id.
    rd: FxHashMap<TermId, usize>,
}

impl Stream {
    fn new() -> Self {
        Stream {
            uf: UnionFind::new(0),
            rd: FxHashMap::default(),
        }
    }

    /// `CREATEDATANODE`.
    fn create_node(&mut self, r: TermId) -> usize {
        let d = self.uf.push();
        self.rd.insert(r, d);
        d
    }

    /// Resolves a node id to its current representative.
    fn find(&mut self, d: usize) -> usize {
        self.uf.find(d)
    }

    /// `GETSOURCE`/`GETTARGET` (Algorithm 2): unify the per-property slot
    /// `dp` with the node representing resource `r`.
    fn get(&mut self, r: TermId, dp: &mut FxHashMap<TermId, usize>, p: TermId) -> usize {
        let slot = dp.get(&p).map(|&d| self.uf.find(d));
        let node = self.rd.get(&r).copied().map(|d| self.uf.find(d));
        match (slot, node) {
            (None, None) => {
                let d = self.create_node(r);
                dp.insert(p, d);
                d
            }
            (Some(du), None) => {
                self.rd.insert(r, du);
                du
            }
            (None, Some(ds)) => {
                dp.insert(p, ds);
                ds
            }
            (Some(du), Some(ds)) => {
                if du == ds {
                    ds
                } else {
                    // MERGEDATANODES.
                    self.uf.union(du, ds)
                }
            }
        }
    }
}

/// Builds the weak summary by the paper's streaming algorithm.
pub fn streaming_weak_summary(g: &Graph) -> Summary {
    let mut st = Stream::new();
    let mut dp_src: FxHashMap<TermId, usize> = FxHashMap::default();
    let mut dp_targ: FxHashMap<TermId, usize> = FxHashMap::default();

    // ---- Algorithm 1: summarize data triples ----
    // dtp: property → (source node, target node); Prop. 4 guarantees one
    // data triple per property in W_G.
    let mut dtp: FxHashMap<TermId, (usize, usize)> = FxHashMap::default();
    for t in g.data() {
        let _ = st.get(t.s, &mut dp_src, t.p);
        let _ = st.get(t.o, &mut dp_targ, t.p);
        // "GETTARGET may have modified src and vice-versa" (Algorithm 1,
        // lines 5–7): re-resolve both.
        let src = st.get(t.s, &mut dp_src, t.p);
        let targ = st.get(t.o, &mut dp_targ, t.p);
        let src = st.find(src);
        let targ = st.find(targ);
        dtp.insert(t.p, (src, targ));
    }

    // ---- Algorithm 3: summarize type triples ----
    // dcls: summary node → classes; typed-only resources share one node.
    let mut dcls: FxHashMap<usize, Vec<TermId>> = FxHashMap::default();
    let mut typed_only_node: Option<usize> = None;
    for t in g.types() {
        let d = match st.rd.get(&t.s).copied() {
            Some(d) => st.find(d),
            None => {
                // REPRESENTTYPEDONLY: one node for all typed-only resources.
                let d = *typed_only_node.get_or_insert_with(|| st.uf.push());
                st.rd.insert(t.s, d);
                d
            }
        };
        let v = dcls.entry(d).or_default();
        if !v.contains(&t.o) {
            v.push(t.o);
        }
    }

    assemble(
        g,
        st,
        &dp_src,
        &dp_targ,
        dtp.iter().map(|(&p, &(s, o))| (s, p, o)).collect(),
        dcls,
        typed_only_node,
        None,
    )
}

/// Builds the typed weak summary by the paper's type-first streaming
/// algorithm: type triples are summarized first (class-set nodes), then
/// data triples, where "only untyped data nodes may be merged" (§6.1).
pub fn streaming_typed_weak_summary(g: &Graph) -> Summary {
    let mut st = Stream::new();
    let mut dp_src: FxHashMap<TermId, usize> = FxHashMap::default();
    let mut dp_targ: FxHashMap<TermId, usize> = FxHashMap::default();

    // ---- Type triples first: group by class set (clsd) ----
    let sets = rdfsum_core::equivalence::class_sets(g);
    let mut clsd: FxHashMap<Vec<TermId>, usize> = FxHashMap::default();
    let mut dcls: FxHashMap<usize, Vec<TermId>> = FxHashMap::default();
    for (&r, cs) in &sets {
        let d = *clsd.entry(cs.clone()).or_insert_with(|| st.uf.push());
        st.rd.insert(r, d);
        dcls.entry(d).or_insert_with(|| cs.clone());
    }

    // ---- Data triples; typed endpoints resolve to their class-set node
    // and do not touch dpSrc/dpTarg ----
    let mut dtp: rdf_model::FxHashSet<(usize, TermId, usize)> = Default::default();
    let mut edges: Vec<(usize, TermId, usize)> = Vec::new();
    for t in g.data() {
        let src = if sets.contains_key(&t.s) {
            st.find(st.rd[&t.s])
        } else {
            st.get(t.s, &mut dp_src, t.p)
        };
        let targ = if sets.contains_key(&t.o) {
            st.find(st.rd[&t.o])
        } else {
            st.get(t.o, &mut dp_targ, t.p)
        };
        let src = st.find(src);
        let targ = st.find(targ);
        if dtp.insert((src, t.p, targ)) {
            edges.push((src, t.p, targ));
        }
    }

    assemble(
        g,
        st,
        &dp_src,
        &dp_targ,
        edges,
        dcls.clone(),
        None,
        Some(dcls),
    )
}

/// Final assembly: resolve union–find roots, derive deterministic node
/// names from the per-property slots, and emit the summary graph.
#[allow(clippy::too_many_arguments)]
fn assemble(
    g: &Graph,
    mut st: Stream,
    dp_src: &FxHashMap<TermId, usize>,
    dp_targ: &FxHashMap<TermId, usize>,
    edges: Vec<(usize, TermId, usize)>,
    dcls: FxHashMap<usize, Vec<TermId>>,
    typed_only_node: Option<usize>,
    class_named: Option<FxHashMap<usize, Vec<TermId>>>,
) -> Summary {
    // Per-root property sets: dpTarg contributes "in", dpSrc "out".
    let mut in_props: FxHashMap<usize, Vec<TermId>> = FxHashMap::default();
    let mut out_props: FxHashMap<usize, Vec<TermId>> = FxHashMap::default();
    for (&p, &d) in dp_targ {
        in_props.entry(st.find(d)).or_default().push(p);
    }
    for (&p, &d) in dp_src {
        out_props.entry(st.find(d)).or_default().push(p);
    }

    // Name each root, minting symbolically: the namer returns
    // `Term::Minted` set keys (shared member strings) whose URIs render
    // lazily — and byte-identically to the old eager strings. Each root
    // mints exactly once, so minted key identity coincides with name
    // identity (`Nτ` keys are structurally equal by design).
    let mut namer = Namer::new(g.dict());
    let mut name_of = |root: usize, st: &Stream| -> Term {
        if let Some(named) = &class_named {
            // Typed-weak: class-set nodes are C(X); others are N(in, out).
            if let Some(cs) = named.get(&root) {
                return namer.c_term(cs);
            }
        } else if typed_only_node.map(|d| st.uf.find_const(d)) == Some(root) {
            return namer.n_term(&[], &[]); // normalizes to Nτ
        }
        let tc = in_props.get(&root).cloned().unwrap_or_default();
        let sc = out_props.get(&root).cloned().unwrap_or_default();
        namer.n_term(&tc, &sc)
    };

    let mut h = Graph::new();
    let mut h_node: FxHashMap<usize, TermId> = FxHashMap::default();
    let roots: Vec<usize> = {
        let mut r: Vec<usize> = st.rd.values().map(|&d| st.uf.find_const(d)).collect();
        r.sort_unstable();
        r.dedup();
        r
    };
    for root in roots {
        let id = h.dict_mut().encode(name_of(root, &st));
        h_node.insert(root, id);
    }

    // Constants transfer dictionary-to-dictionary as views.
    let transfer =
        |h: &mut Graph, id: TermId| -> TermId { h.dict_mut().encode_ref(g.dict().decode(id)) };
    // Schema copied verbatim.
    for t in g.schema() {
        let s = transfer(&mut h, t.s);
        let p = transfer(&mut h, t.p);
        let o = transfer(&mut h, t.o);
        h.insert_encoded(Triple::new(s, p, o));
    }
    // Data edges.
    for (s, p, o) in edges {
        let s = h_node[&st.uf.find_const(s)];
        let o = h_node[&st.uf.find_const(o)];
        let p = transfer(&mut h, p);
        h.insert_encoded(Triple::new(s, p, o));
    }
    // Type edges.
    let tau = h.rdf_type();
    for (d, classes) in dcls {
        let s = h_node[&st.uf.find_const(d)];
        for c in classes {
            let c = transfer(&mut h, c);
            h.insert_encoded(Triple::new(s, tau, c));
        }
    }

    // rd as TermId → H TermId.
    let node_map: FxHashMap<TermId, TermId> = st
        .rd
        .iter()
        .map(|(&r, &d)| (r, h_node[&st.uf.find_const(d)]))
        .collect();
    Summary::new(h, node_map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_io::write_graph;
    use rdfsum_core::fixtures::sample_graph;
    use rdfsum_core::summarize;
    use rdfsum_core::SummaryKind;

    /// The streaming and batch weak builders produce the *same* summary
    /// (same URIs, same triples) — the naming is property-set-derived in
    /// both.
    #[test]
    fn streaming_equals_batch_weak_on_sample() {
        let g = sample_graph();
        let a = summarize(&g, SummaryKind::Weak);
        let b = streaming_weak_summary(&g);
        let mut la: Vec<String> = write_graph(&a.graph).lines().map(String::from).collect();
        let mut lb: Vec<String> = write_graph(&b.graph).lines().map(String::from).collect();
        la.sort();
        lb.sort();
        assert_eq!(la, lb);
    }

    #[test]
    fn streaming_equals_batch_typed_weak_on_sample() {
        let g = sample_graph();
        let a = summarize(&g, SummaryKind::TypedWeak);
        let b = streaming_typed_weak_summary(&g);
        let mut la: Vec<String> = write_graph(&a.graph).lines().map(String::from).collect();
        let mut lb: Vec<String> = write_graph(&b.graph).lines().map(String::from).collect();
        la.sort();
        lb.sort();
        assert_eq!(la, lb);
    }

    #[test]
    fn streaming_weak_handles_schema_and_typed_only() {
        let g = rdfsum_core::fixtures::figure5_graph();
        let s = streaming_weak_summary(&g);
        assert_eq!(s.graph.schema().len(), 2);
        let g = sample_graph();
        let s = streaming_weak_summary(&g);
        assert_eq!(s.stats().type_edges, 4);
    }

    #[test]
    fn streaming_on_empty_graph() {
        let g = Graph::new();
        let s = streaming_weak_summary(&g);
        assert!(s.graph.is_empty());
        let s = streaming_typed_weak_summary(&g);
        assert!(s.graph.is_empty());
    }

    /// Order-insensitivity: scanning the data triples in reverse produces
    /// the same summary (names are derived from property sets, not merge
    /// order).
    #[test]
    fn insertion_order_does_not_matter() {
        let g = sample_graph();
        let mut rev = Graph::new();
        let triples: Vec<_> = g.iter().collect();
        for t in triples.iter().rev() {
            let s = g.dict().decode(t.s).to_term();
            let p = g.dict().decode(t.p).to_term();
            let o = g.dict().decode(t.o).to_term();
            rev.insert(s, p, o).unwrap();
        }
        let a = streaming_weak_summary(&g);
        let b = streaming_weak_summary(&rev);
        let mut la: Vec<String> = write_graph(&a.graph).lines().map(String::from).collect();
        let mut lb: Vec<String> = write_graph(&b.graph).lines().map(String::from).collect();
        la.sort();
        lb.sort();
        assert_eq!(la, lb);
    }
}
