//! The shared dense summarization substrate: [`SummaryContext`].
//!
//! The paper's Algorithms 1–3 derive all five summaries (W, S, TW, TS, T)
//! from the *same* property-clique structure, yet historically each builder
//! recomputed the cliques from scratch and routed every node lookup through
//! an `FxHashMap`. A `SummaryContext` factors the shared work out into one
//! pipeline over the graph:
//!
//! 1. **Dense numbering** — the data nodes of `G` (subjects/objects of D_G,
//!    then subjects of T_G, in first-seen order, matching
//!    [`crate::equivalence::data_nodes_ordered`]) and the data properties
//!    get contiguous ids `0, 1, 2, …`, held in `Vec`-backed
//!    [`rdf_model::DenseIdMap`] tables. All later per-node state is a flat
//!    array index away — no hashing.
//! 2. **CSR adjacency** — two compressed-sparse-row layouts give, for every
//!    dense node id, the dense property ids of its outgoing and incoming
//!    data triples as contiguous slices (`offsets[v]..offsets[v+1]`).
//! 3. **Cliques for both scopes** — source/target property cliques
//!    (Definition 5) under [`CliqueScope::AllNodes`] (weak/strong) *and*
//!    [`CliqueScope::UntypedOnly`] (typed summaries) are computed from the
//!    CSR on first use and cached, so building all five summaries runs the
//!    clique union–find at most twice — instead of once per builder — and
//!    each scan is a pair of linear sweeps over the CSR rows.
//! 4. **Class sets** — the canonical (sorted, deduplicated) class set of
//!    every typed resource, interned to dense set ids, shared by the
//!    typed/type-based builders.
//!
//! The classic free functions ([`crate::weak::weak_summary`] & friends)
//! are thin wrappers that build a throwaway context, so single-summary
//! callers keep their API; anything building two or more summaries of the
//! same graph should create one `SummaryContext` and reuse it — that is
//! what [`crate::builder::summarize_all`], the CLI `summarize --all` path,
//! and the experiment binaries do.
//!
//! [`SummaryContext::from_store`] builds the same substrate from a
//! [`TripleStore`]'s sorted SPO/OSP permutation indexes: the grouped
//! [`rdf_store::SortedIndex::runs1`] runs hand the pipeline each node's
//! triples contiguously, so the CSR fill needs no counting pass over raw
//! triples. Node numbering then follows index (ascending id) order rather
//! than first-seen order; the W/S/TW/TS summaries are identical either way
//! because their minted names are canonical in the property/class sets.
//!
//! # Sharded builds and the shard/merge algebra
//!
//! [`SummaryContext::sharded`] / [`SummaryContext::sharded_from_store`]
//! build the **identical** substrate from `S` independent partial
//! substrates, one per contiguous input shard, merged after a parallel
//! scan. Three observations make the merge exact (not merely equivalent):
//!
//! 1. **First-seen numbering remaps preserve determinism.** Each shard
//!    numbers the nodes/properties of its chunk with a *local*
//!    [`DenseIdMap`] in local first-seen order. First-seen order over a
//!    concatenation of chunks is the in-order merge of the per-chunk
//!    first-seen orders, so absorbing the shard maps into one global map
//!    *in shard order* ([`DenseIdMap::absorb`]) assigns every node the
//!    exact dense id the sequential pass would have. The S partials are
//!    folded left to right on the calling thread: an absorb only ever
//!    *appends* to the accumulated numbering, so the tables of the leaves
//!    already folded in survive unchanged and each new leaf contributes
//!    one `local → global` remap table. Degrees and typed-subject lists
//!    ride along in the same pass, and the per-shard CSR entries are then
//!    rewritten through the tables in one parallel post-pass. Numbering,
//!    and hence every downstream artifact, is deterministic and
//!    shard-count-invariant (pinned by the forced-shard suites at S up to
//!    64). The fold is the survivor of a measured pair: an ordered binary
//!    tree of concurrent pairwise absorbs lost to it on 12 of 12
//!    alternating runs at S = 8 and never won 9 of 10 at S = 2 or 4
//!    (CHANGES.md, PR 16).
//! 2. **CSR stitching is an order-preserving concatenation.** A shard's
//!    remapped `(row, property)` entries keep their chunk-scan order, and
//!    shard concatenation order equals global scan order, so handing the
//!    merged entry list to the chunked [`fill_csr_threaded`] produces the
//!    byte-identical offsets/values arrays of the sequential build.
//! 3. **Clique union–finds are mergeable.** Property-relatedness is a
//!    union of per-row co-occurrence constraints, so partial union–finds
//!    over disjoint row ranges merge by unioning each element with its
//!    partial root. [`SummaryContext::cliques`] computes the sweep that
//!    way: row ranges (balanced by CSR entry count) feed per-worker
//!    union–finds plus range-local representative tables, and the merge
//!    unions `np` roots per worker and scatters the representatives —
//!    identical output to the sequential sweep because every row is owned
//!    by exactly one worker.
//!
//! The store-driven sharded path additionally relies on
//! [`rdf_store::SortedIndex::shards`] cutting only at subject (object)
//! run boundaries, so each run — and therefore each node's contiguous
//! triple group — lands whole in exactly one shard and no cross-shard
//! reconciliation of rows is needed. `S = 1` (the auto fallback below
//! [`crate::parallel::PARALLEL_SHARD_THRESHOLD`] data triples, and the
//! default on single-core hosts) is the plain sequential path.

use crate::cliques::{CliqueScope, Cliques};
use crate::equivalence::{strong_partition, weak_partition, Partition};
use crate::naming::{c_term, n_term};
use crate::quotient::quotient_summary_impl;
use crate::summary::{Summary, SummaryKind};
use crate::typed::TypedSemantics;
use crate::unionfind::UnionFind;
use crate::weak::class_property_sets;
use rdf_model::{Component, DenseIdMap, FxHashMap, Graph, Term, TermId, NO_DENSE_ID};
use rdf_store::TripleStore;
use std::cell::OnceCell;

/// The canonical class sets of the typed resources, interned densely.
#[derive(Clone, Debug)]
pub struct ClassSets {
    /// Term-indexed: data node → dense set id, [`NO_DENSE_ID`] if untyped.
    set_of_node: Vec<u32>,
    /// Dense set id → sorted, deduplicated class ids.
    sets: Vec<Vec<TermId>>,
}

impl ClassSets {
    /// The dense class-set id of `node`, `None` for untyped resources.
    #[inline]
    pub fn set_id(&self, node: TermId) -> Option<u32> {
        match self.set_of_node.get(node.index()) {
            Some(&id) if id != NO_DENSE_ID => Some(id),
            _ => None,
        }
    }

    /// The members of set `id`, sorted by term id.
    #[inline]
    pub fn set(&self, id: u32) -> &[TermId] {
        &self.sets[id as usize]
    }

    /// Number of distinct class sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True when no resource is typed.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

/// The shared build pipeline for all five summaries of one graph.
///
/// See the [module docs](self) for the design. A context borrows its graph
/// and is cheap relative to one summary build; the clique structures and
/// class sets are computed lazily and cached, so you only pay for the
/// scopes the requested summaries actually use.
///
/// # Examples
///
/// ```
/// use rdfsum_core::{SummaryContext, SummaryKind};
///
/// let g = rdfsum_core::fixtures::sample_graph();
/// let ctx = SummaryContext::new(&g);
/// // Cliques are computed once and shared by all four builds.
/// let all = ctx.summarize_all();
/// assert_eq!(all.len(), 4);
/// assert_eq!(all[0].graph.data().len(), 6); // Prop. 4 for W
/// ```
pub struct SummaryContext<'g> {
    g: &'g Graph,
    /// Dense node id → term, in numbering order.
    nodes: Vec<TermId>,
    /// Dense property id → term, in numbering order.
    props: Vec<TermId>,
    /// CSR offsets/values: outgoing dense property ids per dense node (one
    /// entry per data triple, grouped by subject).
    out_offsets: Vec<u32>,
    out_props: Vec<u32>,
    /// CSR offsets/values: incoming dense property ids per dense node.
    in_offsets: Vec<u32>,
    in_props: Vec<u32>,
    /// Dense node id → is a typed resource (subject of some τ triple).
    typed: Vec<bool>,
    /// Worker count for the lazily computed clique sweeps: the shard count
    /// for sharded builds, `0` (= auto via
    /// [`crate::parallel::substrate_threads`]) for sequential ones.
    threads: usize,
    all_cliques: OnceCell<Cliques>,
    untyped_cliques: OnceCell<Cliques>,
    class_sets: OnceCell<ClassSets>,
}

/// One shard's partial substrate: chunk-local numbering, degrees, and CSR
/// entries, merged by [`SummaryContext::sharded`] via
/// [`DenseIdMap::absorb`] remaps.
#[derive(Default)]
struct ShardPart {
    node_map: DenseIdMap,
    prop_map: DenseIdMap,
    /// Local node id → outgoing (incoming) data-triple count.
    out_deg: Vec<u32>,
    in_deg: Vec<u32>,
    /// `(local node, local property)` per data triple, in chunk-scan order.
    out_entries: Vec<(u32, u32)>,
    in_entries: Vec<(u32, u32)>,
    /// Local ids of typed subjects (store-driven shards only; the graph
    /// path types sequentially during the merge).
    typed: Vec<u32>,
}

/// One numbering unit of the merge reduction: an already-merged run of
/// *consecutive* leaves, carrying the combined numbering plus one
/// `local → unit` remap table per covered leaf (in leaf order).
struct MergeUnit {
    node_map: DenseIdMap,
    prop_map: DenseIdMap,
    /// Unit-node-indexed degree sums (may lag `node_map.len()`; absorbs
    /// resize before accumulating).
    out_deg: Vec<u32>,
    in_deg: Vec<u32>,
    /// Unit ids of typed subjects, in leaf order (store path).
    typed: Vec<u32>,
    node_remaps: Vec<Vec<u32>>,
    prop_remaps: Vec<Vec<u32>>,
}

impl MergeUnit {
    /// A single-leaf unit, taking the numbering state out of `part` (the
    /// CSR entry lists stay behind for the post-merge remap pass).
    fn leaf(part: &mut ShardPart) -> MergeUnit {
        let node_map = std::mem::take(&mut part.node_map);
        let prop_map = std::mem::take(&mut part.prop_map);
        MergeUnit {
            out_deg: std::mem::take(&mut part.out_deg),
            in_deg: std::mem::take(&mut part.in_deg),
            typed: std::mem::take(&mut part.typed),
            node_remaps: vec![(0..node_map.len() as u32).collect()],
            prop_remaps: vec![(0..prop_map.len() as u32).collect()],
            node_map,
            prop_map,
        }
    }

    /// Absorbs `right`, the unit covering the immediately following run of
    /// leaves: extends the numbering, folds degrees and typed ids through
    /// the absorb remap, and composes `right`'s leaf tables into the
    /// combined numbering (this unit's tables stay valid — absorb only
    /// appends).
    fn absorb(&mut self, right: MergeUnit) {
        let node_remap = self.node_map.absorb(&right.node_map);
        let prop_remap = self.prop_map.absorb(&right.prop_map);
        let n = self.node_map.len();
        self.out_deg.resize(n, 0);
        self.in_deg.resize(n, 0);
        for (l, &d) in right.out_deg.iter().enumerate() {
            if d != 0 {
                self.out_deg[node_remap[l] as usize] += d;
            }
        }
        for (l, &d) in right.in_deg.iter().enumerate() {
            if d != 0 {
                self.in_deg[node_remap[l] as usize] += d;
            }
        }
        self.typed
            .extend(right.typed.iter().map(|&v| node_remap[v as usize]));
        for mut leaf in right.node_remaps {
            DenseIdMap::compose_remaps(&node_remap, &mut leaf);
            self.node_remaps.push(leaf);
        }
        for mut leaf in right.prop_remaps {
            DenseIdMap::compose_remaps(&prop_remap, &mut leaf);
            self.prop_remaps.push(leaf);
        }
    }
}

/// Folds the shard partials, in shard order, into one global numbering
/// unit: numbering, degree sums, typed ids, and the per-leaf remap tables.
fn merge_shard_parts(parts: &mut [ShardPart]) -> MergeUnit {
    let mut units = parts.iter_mut().map(MergeUnit::leaf);
    let mut merged = units.next().expect("at least one shard partial");
    for right in units {
        merged.absorb(right);
    }
    merged
}

impl<'g> SummaryContext<'g> {
    /// Builds the context from a graph, numbering data nodes in first-seen
    /// order (the [`crate::equivalence::data_nodes_ordered`] order).
    ///
    /// One numbering pass records each data triple's dense `(subject,
    /// property)` / `(object, property)` pairs alongside the degree
    /// counts; the CSR rows are then filled from those pairs — chunked
    /// across threads above [`crate::parallel::PARALLEL_CSR_THRESHOLD`]
    /// entries — without touching the id maps again.
    pub fn new(g: &'g Graph) -> Self {
        let n_terms = g.dict().len();
        let mut node_map = DenseIdMap::with_capacity(n_terms);
        let mut prop_map = DenseIdMap::with_capacity(n_terms);
        let mut out_deg: Vec<u32> = Vec::new();
        let mut in_deg: Vec<u32> = Vec::new();
        // Dense `(row, prop)` pairs are materialized only when the chunked
        // parallel fill will actually run; the sequential fill re-reads
        // the (cache-hot) id maps instead and skips the extra buffers.
        let parallel_fill = crate::parallel::substrate_threads(
            g.data().len(),
            crate::parallel::PARALLEL_CSR_THRESHOLD,
        ) > 1;
        let mut out_entries: Vec<(u32, u32)> = Vec::new();
        let mut in_entries: Vec<(u32, u32)> = Vec::new();
        if parallel_fill {
            out_entries.reserve(g.data().len());
            in_entries.reserve(g.data().len());
        }
        let grow_to = |v: usize, out_deg: &mut Vec<u32>, in_deg: &mut Vec<u32>| {
            if v == out_deg.len() {
                out_deg.push(0);
                in_deg.push(0);
            }
        };
        for t in g.data() {
            let s = node_map.intern(t.s);
            grow_to(s as usize, &mut out_deg, &mut in_deg);
            out_deg[s as usize] += 1;
            let o = node_map.intern(t.o);
            grow_to(o as usize, &mut out_deg, &mut in_deg);
            in_deg[o as usize] += 1;
            let p = prop_map.intern(t.p);
            if parallel_fill {
                out_entries.push((s, p));
                in_entries.push((o, p));
            }
        }
        let mut typed_nodes = Vec::new();
        for t in g.types() {
            let s = node_map.intern(t.s) as usize;
            grow_to(s, &mut out_deg, &mut in_deg);
            typed_nodes.push(s);
        }
        let n = node_map.len();
        let mut typed = vec![false; n];
        for v in typed_nodes {
            typed[v] = true;
        }
        let (out_offsets, out_props, in_offsets, in_props) = if parallel_fill {
            let (oo, op) = fill_csr(&out_deg, &out_entries);
            let (io, ip) = fill_csr(&in_deg, &in_entries);
            (oo, op, io, ip)
        } else {
            let oo = csr_offsets(&out_deg);
            let io = csr_offsets(&in_deg);
            let mut op = vec![0u32; oo[n] as usize];
            let mut ip = vec![0u32; io[n] as usize];
            let mut oc = oo[..n].to_vec();
            let mut ic = io[..n].to_vec();
            for t in g.data() {
                let s = node_map.get(t.s).expect("interned above") as usize;
                let o = node_map.get(t.o).expect("interned above") as usize;
                let p = prop_map.get(t.p).expect("interned above");
                op[oc[s] as usize] = p;
                oc[s] += 1;
                ip[ic[o] as usize] = p;
                ic[o] += 1;
            }
            (oo, op, io, ip)
        };
        SummaryContext {
            g,
            nodes: node_map.into_parts().1,
            props: prop_map.into_parts().1,
            out_offsets,
            out_props,
            in_offsets,
            in_props,
            typed,
            threads: 0,
            all_cliques: OnceCell::new(),
            untyped_cliques: OnceCell::new(),
            class_sets: OnceCell::new(),
        }
    }

    /// Builds the context shard-parallel: `threads` contiguous chunks of
    /// D_G are scanned into independent partial substrates concurrently,
    /// then merged into the **identical** substrate [`SummaryContext::new`]
    /// builds (see the [module docs](self) for why the merge is exact).
    /// The lazily computed clique sweeps also use `threads` workers.
    ///
    /// Falls back to the sequential single-shard path below
    /// [`crate::parallel::PARALLEL_SHARD_THRESHOLD`] data triples, so
    /// small graphs and single-core hosts never pay the per-shard fixed
    /// costs. All five summaries built from a sharded context are
    /// triple-for-triple, naming-identical to the sequential ones.
    pub fn sharded(g: &'g Graph, threads: usize) -> Self {
        match crate::parallel::shard_count(g.data().len(), threads) {
            0 | 1 => Self::new(g),
            s => Self::sharded_forced(g, s),
        }
    }

    /// [`SummaryContext::sharded`] without the size-threshold fallback —
    /// the seam the forced-shard tests and crossover benchmarks drive,
    /// since the auto path shards only above the threshold. Prefer
    /// [`SummaryContext::sharded`].
    pub fn sharded_forced(g: &'g Graph, shards: usize) -> Self {
        let shards = shards.clamp(1, 256);
        if shards <= 1 {
            return Self::new(g);
        }
        let n_terms = g.dict().len();
        let data = g.data();
        // Parallel scan: shard w owns the contiguous chunk
        // `data[len·w/S .. len·(w+1)/S]` (possibly empty when S exceeds
        // the triple count) and numbers it locally, replicating the
        // sequential pass's intern order (s, o, p per triple).
        let mut parts: Vec<ShardPart> = std::thread::scope(|ts| {
            let handles: Vec<_> = (0..shards)
                .map(|w| {
                    let chunk = &data[data.len() * w / shards..data.len() * (w + 1) / shards];
                    ts.spawn(move || {
                        let mut part = ShardPart {
                            node_map: DenseIdMap::with_capacity(n_terms),
                            prop_map: DenseIdMap::with_capacity(n_terms),
                            out_entries: Vec::with_capacity(chunk.len()),
                            in_entries: Vec::with_capacity(chunk.len()),
                            ..ShardPart::default()
                        };
                        for t in chunk {
                            let s = part.node_map.intern(t.s);
                            if s as usize == part.out_deg.len() {
                                part.out_deg.push(0);
                                part.in_deg.push(0);
                            }
                            part.out_deg[s as usize] += 1;
                            let o = part.node_map.intern(t.o);
                            if o as usize == part.out_deg.len() {
                                part.out_deg.push(0);
                                part.in_deg.push(0);
                            }
                            part.in_deg[o as usize] += 1;
                            let p = part.prop_map.intern(t.p);
                            part.out_entries.push((s, p));
                            part.in_entries.push((o, p));
                        }
                        part
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Merge: folding the shard numberings in shard order reproduces
        // the global first-seen numbering; types are numbered after all
        // data nodes, exactly like the sequential pass.
        let mut merged = merge_shard_parts(&mut parts);
        let mut typed_nodes = Vec::new();
        for t in g.types() {
            typed_nodes.push(merged.node_map.intern(t.s) as usize);
        }
        let n = merged.node_map.len();
        merged.out_deg.resize(n, 0);
        merged.in_deg.resize(n, 0);
        let mut typed = vec![false; n];
        for v in typed_nodes {
            typed[v] = true;
        }
        let (out_entries, in_entries) =
            remap_entries(&parts, &merged.node_remaps, &merged.prop_remaps);
        let (out_offsets, out_props) = fill_csr_threaded(&merged.out_deg, &out_entries, shards);
        let (in_offsets, in_props) = fill_csr_threaded(&merged.in_deg, &in_entries, shards);
        SummaryContext {
            g,
            nodes: merged.node_map.into_parts().1,
            props: merged.prop_map.into_parts().1,
            out_offsets,
            out_props,
            in_offsets,
            in_props,
            typed,
            threads: shards,
            all_cliques: OnceCell::new(),
            untyped_cliques: OnceCell::new(),
            class_sets: OnceCell::new(),
        }
    }

    /// Builds the context from a [`TripleStore`]'s sorted permutation
    /// indexes: the SPO runs provide each subject's triples contiguously
    /// (outgoing CSR + typed flags), the OSP runs each object's (incoming
    /// CSR) — no counting pass and no per-node hash lookups.
    ///
    /// Nodes are numbered in index order (subjects ascending, then
    /// objects), so dense ids differ from [`SummaryContext::new`]; the
    /// canonical summaries (W/S/TW/TS) are identical either way. The
    /// type-based summary's fresh `C(∅)` URIs follow the numbering order
    /// and may therefore differ (the summaries stay isomorphic).
    pub fn from_store(store: &'g TripleStore) -> Self {
        let g = store.graph();
        let n_terms = g.dict().len();
        let wk = g.well_known();
        let mut node_map = DenseIdMap::with_capacity(n_terms);
        let mut prop_map = DenseIdMap::with_capacity(n_terms);
        let mut typed_nodes: Vec<usize> = Vec::new();
        let mut out_deg: Vec<u32> = Vec::new();
        let mut out_entries: Vec<(u32, u32)> = Vec::new();
        let mut prop_buf: Vec<u32> = Vec::new();
        // SPO runs: one run per subject, all its triples contiguous.
        for run in store.spo().runs1() {
            let mut is_node = false;
            let mut is_typed = false;
            prop_buf.clear();
            for t in run {
                match wk.component_of(t.p) {
                    Component::Data => {
                        is_node = true;
                        prop_buf.push(prop_map.intern(t.p));
                    }
                    Component::Type => {
                        is_node = true;
                        is_typed = true;
                    }
                    Component::Schema => {}
                }
            }
            if is_node {
                let v = node_map.intern(run[0].s);
                if v as usize == out_deg.len() {
                    out_deg.push(0);
                }
                out_deg[v as usize] += prop_buf.len() as u32;
                out_entries.extend(prop_buf.iter().map(|&p| (v, p)));
                if is_typed {
                    typed_nodes.push(v as usize);
                }
            }
        }
        // OSP runs: one run per object; number the object-only nodes after
        // all subjects and collect in-degrees.
        let mut in_deg = vec![0u32; node_map.len()];
        let mut in_entries: Vec<(u32, u32)> = Vec::new();
        for run in store.osp().runs1() {
            prop_buf.clear();
            for t in run {
                if wk.component_of(t.p) == Component::Data {
                    prop_buf.push(prop_map.intern(t.p));
                }
            }
            if !prop_buf.is_empty() {
                let v = node_map.intern(run[0].o);
                if v as usize == in_deg.len() {
                    in_deg.push(0);
                    out_deg.push(0);
                }
                in_deg[v as usize] += prop_buf.len() as u32;
                in_entries.extend(prop_buf.iter().map(|&p| (v, p)));
            }
        }
        let n = node_map.len();
        let mut typed = vec![false; n];
        for v in typed_nodes {
            typed[v] = true;
        }
        let (out_offsets, out_props) = fill_csr(&out_deg, &out_entries);
        let (in_offsets, in_props) = fill_csr(&in_deg, &in_entries);
        SummaryContext {
            g,
            nodes: node_map.into_parts().1,
            props: prop_map.into_parts().1,
            out_offsets,
            out_props,
            in_offsets,
            in_props,
            typed,
            threads: 0,
            all_cliques: OnceCell::new(),
            untyped_cliques: OnceCell::new(),
            class_sets: OnceCell::new(),
        }
    }

    /// [`SummaryContext::from_store`] built shard-parallel from the
    /// store's subject-range ([`rdf_store::SortedIndex::shards`]) SPO and
    /// object-range OSP shards: each shard scans its runs into a partial
    /// substrate concurrently, and the absorb/remap merge reproduces the
    /// sequential index-order numbering exactly (module docs). Falls back
    /// to [`SummaryContext::from_store`] below
    /// [`crate::parallel::PARALLEL_SHARD_THRESHOLD`] data triples.
    pub fn sharded_from_store(store: &'g TripleStore, threads: usize) -> Self {
        match crate::parallel::shard_count(store.graph().data().len(), threads) {
            0 | 1 => Self::from_store(store),
            s => Self::sharded_from_store_forced(store, s),
        }
    }

    /// [`SummaryContext::sharded_from_store`] without the size-threshold
    /// fallback — the forced-shard test/bench seam. Prefer
    /// [`SummaryContext::sharded_from_store`]. The store's SPO shard
    /// partials followed by its OSP shard partials form `2S` ordered merge
    /// leaves — their concatenation order *is* the sequential index-scan
    /// order, so the same fold applies unchanged.
    pub fn sharded_from_store_forced(store: &'g TripleStore, shards: usize) -> Self {
        let shards = shards.clamp(1, 256);
        if shards <= 1 {
            return Self::from_store(store);
        }
        let g = store.graph();
        let n_terms = g.dict().len();
        let wk = g.well_known();
        let spo_shards = store.spo().shards(shards);
        let osp_shards = store.osp().shards(shards);
        // Parallel scan: worker w owns SPO shard w (subjects: outgoing
        // CSR + typed flags) and OSP shard w (objects: incoming CSR).
        // Shards cut only at run boundaries, so every node's contiguous
        // triple group lands whole in exactly one shard.
        let parts: Vec<(ShardPart, ShardPart)> = std::thread::scope(|ts| {
            let handles: Vec<_> = spo_shards
                .iter()
                .zip(&osp_shards)
                .map(|(&spo_shard, &osp_shard)| {
                    let wk = &wk;
                    ts.spawn(move || {
                        let mut spo = ShardPart {
                            node_map: DenseIdMap::with_capacity(n_terms),
                            prop_map: DenseIdMap::with_capacity(n_terms),
                            ..ShardPart::default()
                        };
                        let mut prop_buf: Vec<u32> = Vec::new();
                        for run in store.spo().runs_in(spo_shard) {
                            let mut is_typed = false;
                            prop_buf.clear();
                            for t in run {
                                match wk.component_of(t.p) {
                                    Component::Data => {
                                        prop_buf.push(spo.prop_map.intern(t.p));
                                    }
                                    Component::Type => is_typed = true,
                                    Component::Schema => {}
                                }
                            }
                            if !prop_buf.is_empty() || is_typed {
                                let v = spo.node_map.intern(run[0].s);
                                if v as usize == spo.out_deg.len() {
                                    spo.out_deg.push(0);
                                }
                                spo.out_deg[v as usize] += prop_buf.len() as u32;
                                spo.out_entries.extend(prop_buf.iter().map(|&p| (v, p)));
                                if is_typed {
                                    spo.typed.push(v);
                                }
                            }
                        }
                        let mut osp = ShardPart {
                            node_map: DenseIdMap::with_capacity(n_terms),
                            prop_map: DenseIdMap::with_capacity(n_terms),
                            ..ShardPart::default()
                        };
                        for run in store.osp().runs_in(osp_shard) {
                            prop_buf.clear();
                            for t in run {
                                if wk.component_of(t.p) == Component::Data {
                                    prop_buf.push(osp.prop_map.intern(t.p));
                                }
                            }
                            if !prop_buf.is_empty() {
                                let v = osp.node_map.intern(run[0].o);
                                if v as usize == osp.in_deg.len() {
                                    osp.in_deg.push(0);
                                }
                                osp.in_deg[v as usize] += prop_buf.len() as u32;
                                osp.in_entries.extend(prop_buf.iter().map(|&p| (v, p)));
                            }
                        }
                        (spo, osp)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Merge in the sequential scan order: all SPO shards (subjects
        // ascending), then all OSP shards (object-only nodes after every
        // subject) — flattened into 2S ordered leaves for the fold.
        // OSP prop absorbs are no-ops — every data property already
        // appeared in some SPO run.
        let (spo_parts, osp_parts): (Vec<ShardPart>, Vec<ShardPart>) = parts.into_iter().unzip();
        let mut leaves: Vec<ShardPart> = spo_parts;
        leaves.extend(osp_parts);
        let mut merged = merge_shard_parts(&mut leaves);
        let n = merged.node_map.len();
        merged.out_deg.resize(n, 0);
        merged.in_deg.resize(n, 0);
        let mut typed = vec![false; n];
        for &v in &merged.typed {
            typed[v as usize] = true;
        }
        let spo_refs: Vec<&ShardPart> = leaves[..shards].iter().collect();
        let osp_refs: Vec<&ShardPart> = leaves[shards..].iter().collect();
        let out_entries = remap_side(
            &spo_refs,
            &merged.node_remaps[..shards],
            &merged.prop_remaps[..shards],
            |p| &p.out_entries,
        );
        let in_entries = remap_side(
            &osp_refs,
            &merged.node_remaps[shards..],
            &merged.prop_remaps[shards..],
            |p| &p.in_entries,
        );
        let (out_offsets, out_props) = fill_csr_threaded(&merged.out_deg, &out_entries, shards);
        let (in_offsets, in_props) = fill_csr_threaded(&merged.in_deg, &in_entries, shards);
        SummaryContext {
            g,
            nodes: merged.node_map.into_parts().1,
            props: merged.prop_map.into_parts().1,
            out_offsets,
            out_props,
            in_offsets,
            in_props,
            typed,
            threads: shards,
            all_cliques: OnceCell::new(),
            untyped_cliques: OnceCell::new(),
            class_sets: OnceCell::new(),
        }
    }

    /// The summarized graph.
    #[inline]
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// The data nodes of `G` in numbering order.
    #[inline]
    pub fn data_nodes(&self) -> &[TermId] {
        &self.nodes
    }

    /// The distinct data properties of `G` in numbering order.
    #[inline]
    pub fn data_properties(&self) -> &[TermId] {
        &self.props
    }

    /// The outgoing dense property ids of dense node `v` (one entry per
    /// data triple).
    #[inline]
    pub fn out_row(&self, v: usize) -> &[u32] {
        &self.out_props[self.out_offsets[v] as usize..self.out_offsets[v + 1] as usize]
    }

    /// The incoming dense property ids of dense node `v`.
    #[inline]
    pub fn in_row(&self, v: usize) -> &[u32] {
        &self.in_props[self.in_offsets[v] as usize..self.in_offsets[v + 1] as usize]
    }

    /// Is dense node `v` a typed resource?
    #[inline]
    pub fn is_typed(&self, v: usize) -> bool {
        self.typed[v]
    }

    /// The cliques of `G` under `scope`, computed on first use and cached.
    ///
    /// Above [`crate::parallel::PARALLEL_CLIQUE_THRESHOLD`] data triples
    /// (or always, for sharded contexts) contiguous row ranges feed
    /// per-worker union–find partials that merge into the sequential
    /// result exactly.
    pub fn cliques(&self, scope: CliqueScope) -> &Cliques {
        let cell = match scope {
            CliqueScope::AllNodes => &self.all_cliques,
            CliqueScope::UntypedOnly => &self.untyped_cliques,
        };
        cell.get_or_init(|| self.compute_cliques(scope))
    }

    /// Computes the cliques for `scope` from the CSR layout, with the
    /// worker count auto-selected (the context's shard count, or the
    /// measured-threshold policy for sequential contexts).
    pub(crate) fn compute_cliques(&self, scope: CliqueScope) -> Cliques {
        let threads = if self.threads > 0 {
            self.threads
        } else {
            crate::parallel::substrate_threads(
                self.out_props.len(),
                crate::parallel::PARALLEL_CLIQUE_THRESHOLD,
            )
        };
        self.compute_cliques_threaded(scope, threads)
    }

    /// The clique sweep with an explicit worker count — the seam the
    /// forced-thread tests drive. One worker runs the two linear CSR
    /// sweeps sequentially (out rows feed the source union–find, in rows
    /// the target one, no hash lookups); more workers split the rows into
    /// contiguous ranges balanced by entry count, scan each range into a
    /// union–find partial plus range-local representative tables, and
    /// merge by unioning every element with its partial root. Every row
    /// is owned by one worker, so the representative tables scatter
    /// without reconciliation and the result — including clique numbering
    /// — equals the sequential sweep.
    pub(crate) fn compute_cliques_threaded(&self, scope: CliqueScope, threads: usize) -> Cliques {
        let np = self.props.len();
        let n = self.nodes.len();
        let n_terms = self.g.dict().len();
        let threads = threads.clamp(1, 256).min(n.max(1));
        let mut src_uf = UnionFind::new(np);
        let mut tgt_uf = UnionFind::new(np);
        let mut subject_repr = vec![NO_DENSE_ID; n_terms];
        let mut object_repr = vec![NO_DENSE_ID; n_terms];
        if threads <= 1 {
            for v in 0..n {
                if scope == CliqueScope::UntypedOnly && self.typed[v] {
                    continue;
                }
                if let Some((&first, rest)) = self.out_row(v).split_first() {
                    for &p in rest {
                        src_uf.union(first as usize, p as usize);
                    }
                    subject_repr[self.nodes[v].index()] = first;
                }
                if let Some((&first, rest)) = self.in_row(v).split_first() {
                    for &p in rest {
                        tgt_uf.union(first as usize, p as usize);
                    }
                    object_repr[self.nodes[v].index()] = first;
                }
            }
            return Cliques::from_parts(&self.props, src_uf, tgt_uf, subject_repr, object_repr);
        }
        // Row-range boundaries balanced by out-entry count, like the CSR
        // fill's worker split.
        let total = self.out_props.len();
        let mut bounds = vec![0usize; threads + 1];
        bounds[threads] = n;
        for w in 1..threads {
            let target = (total * w / threads) as u32;
            bounds[w] = self
                .out_offsets
                .partition_point(|&o| o < target)
                .clamp(bounds[w - 1], n);
        }
        /// Per-worker partial: union–finds over the shared dense property
        /// numbering plus range-local (dense-node-indexed) repr tables.
        struct Partial {
            src_uf: UnionFind,
            tgt_uf: UnionFind,
            subj: Vec<u32>,
            obj: Vec<u32>,
        }
        let (typed, out_offsets, out_props) = (&self.typed, &self.out_offsets, &self.out_props);
        let (in_offsets, in_props) = (&self.in_offsets, &self.in_props);
        let partials: Vec<Partial> = std::thread::scope(|ts| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let (lo, hi) = (bounds[w], bounds[w + 1]);
                    ts.spawn(move || {
                        let mut part = Partial {
                            src_uf: UnionFind::new(np),
                            tgt_uf: UnionFind::new(np),
                            subj: vec![NO_DENSE_ID; hi - lo],
                            obj: vec![NO_DENSE_ID; hi - lo],
                        };
                        for v in lo..hi {
                            if scope == CliqueScope::UntypedOnly && typed[v] {
                                continue;
                            }
                            let out_row =
                                &out_props[out_offsets[v] as usize..out_offsets[v + 1] as usize];
                            if let Some((&first, rest)) = out_row.split_first() {
                                for &p in rest {
                                    part.src_uf.union(first as usize, p as usize);
                                }
                                part.subj[v - lo] = first;
                            }
                            let in_row =
                                &in_props[in_offsets[v] as usize..in_offsets[v + 1] as usize];
                            if let Some((&first, rest)) = in_row.split_first() {
                                for &p in rest {
                                    part.tgt_uf.union(first as usize, p as usize);
                                }
                                part.obj[v - lo] = first;
                            }
                        }
                        part
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Merge: union each partial's elements with their partial roots,
        // then scatter the range-local representatives into the
        // term-indexed tables — disjoint rows, so plain overwrites.
        for (w, mut part) in partials.into_iter().enumerate() {
            for i in 0..np {
                let r = part.src_uf.find(i);
                if r != i {
                    src_uf.union(i, r);
                }
                let r = part.tgt_uf.find(i);
                if r != i {
                    tgt_uf.union(i, r);
                }
            }
            let lo = bounds[w];
            for (d, &repr) in part.subj.iter().enumerate() {
                if repr != NO_DENSE_ID {
                    subject_repr[self.nodes[lo + d].index()] = repr;
                }
            }
            for (d, &repr) in part.obj.iter().enumerate() {
                if repr != NO_DENSE_ID {
                    object_repr[self.nodes[lo + d].index()] = repr;
                }
            }
        }
        Cliques::from_parts(&self.props, src_uf, tgt_uf, subject_repr, object_repr)
    }

    /// The interned class sets of the typed resources, computed on first
    /// use and cached. The T_G accumulation sweep is chunked across
    /// [`crate::parallel::substrate_threads`] workers above
    /// [`crate::parallel::PARALLEL_CLASS_THRESHOLD`] type triples and runs
    /// sequentially below it; the result is identical either way.
    pub fn class_sets(&self) -> &ClassSets {
        self.class_sets.get_or_init(|| {
            self.class_sets_forced(crate::parallel::substrate_threads(
                self.g.types().len(),
                crate::parallel::PARALLEL_CLASS_THRESHOLD,
            ))
        })
    }

    /// [`Self::class_sets`] with an explicit worker count — the test and
    /// crossover-measurement seam (the auto path only goes parallel when
    /// T_G clears the threshold *and* the machine has spare cores).
    /// Bypasses the cache; prefer [`Self::class_sets`].
    pub fn class_sets_forced(&self, threads: usize) -> ClassSets {
        let types = self.g.types();
        let n_terms = self.g.dict().len();

        /// One accumulation scan's output: `order[i]` is the `i`-th
        /// first-seen typed node and `tmp[i]` its classes in scan order.
        struct Acc {
            tmp_of_node: Vec<u32>,
            tmp: Vec<Vec<TermId>>,
            order: Vec<TermId>,
        }
        fn scan(types: &[rdf_model::Triple], n_terms: usize) -> Acc {
            let mut acc = Acc {
                tmp_of_node: vec![NO_DENSE_ID; n_terms],
                tmp: Vec::new(),
                order: Vec::new(),
            };
            for t in types {
                let slot = &mut acc.tmp_of_node[t.s.index()];
                if *slot == NO_DENSE_ID {
                    *slot = acc.tmp.len() as u32;
                    acc.tmp.push(Vec::new());
                    acc.order.push(t.s);
                }
                // Duplicate classes are collapsed by the canonicalization
                // sort+dedup below, keeping this accumulation O(1) per
                // type triple even for type-heavy resources.
                acc.tmp[*slot as usize].push(t.o);
            }
            acc
        }

        let Acc {
            tmp_of_node,
            mut tmp,
            order,
        } = if threads <= 1 || types.len() < 2 {
            scan(types, n_terms)
        } else {
            // Chunked scan + chunk-order merge. The sequential sweep
            // visits chunk 0's triples before chunk 1's, so a node's
            // global first-seen position is its position in the first
            // chunk that saw it, and its class list is the concatenation
            // of its per-chunk lists in chunk order — the merge below
            // reproduces both exactly.
            let chunk_size = types.len().div_ceil(threads).max(1);
            let parts: Vec<Acc> = std::thread::scope(|scope| {
                let handles: Vec<_> = types
                    .chunks(chunk_size)
                    .map(|chunk| scope.spawn(move || scan(chunk, n_terms)))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let mut merged = Acc {
                tmp_of_node: vec![NO_DENSE_ID; n_terms],
                tmp: Vec::new(),
                order: Vec::new(),
            };
            for mut part in parts {
                for (local, node) in part.order.into_iter().enumerate() {
                    let classes = std::mem::take(&mut part.tmp[local]);
                    let slot = &mut merged.tmp_of_node[node.index()];
                    if *slot == NO_DENSE_ID {
                        *slot = merged.tmp.len() as u32;
                        merged.tmp.push(classes);
                        merged.order.push(node);
                    } else {
                        merged.tmp[*slot as usize].extend_from_slice(&classes);
                    }
                }
            }
            merged
        };

        // Canonicalize and intern the distinct sets.
        let mut interner: FxHashMap<Vec<TermId>, u32> = FxHashMap::default();
        let mut sets: Vec<Vec<TermId>> = Vec::new();
        let mut set_of_node = vec![NO_DENSE_ID; n_terms];
        for node in order {
            let ti = tmp_of_node[node.index()] as usize;
            let mut set = std::mem::take(&mut tmp[ti]);
            set.sort_unstable();
            set.dedup();
            let id = *interner.entry(set.clone()).or_insert_with(|| {
                sets.push(set);
                (sets.len() - 1) as u32
            });
            set_of_node[node.index()] = id;
        }
        ClassSets { set_of_node, sets }
    }

    /// The weak summary W_G (Definition 11) from the shared substrate.
    pub fn weak_summary(&self) -> Summary {
        self.weak_summary_impl(false)
    }

    fn weak_summary_impl(&self, force_unpacked: bool) -> Summary {
        let cliques = self.cliques(CliqueScope::AllNodes);
        crate::weak::build_weak(
            self.g,
            cliques,
            &self.nodes,
            &self.props,
            force_unpacked,
            self.threads,
        )
    }

    /// The strong summary S_G (Definition 15) from the shared substrate.
    pub fn strong_summary(&self) -> Summary {
        self.strong_summary_impl(false)
    }

    fn strong_summary_impl(&self, force_unpacked: bool) -> Summary {
        let cliques = self.cliques(CliqueScope::AllNodes);
        let partition = strong_partition(cliques, &self.nodes);
        quotient_summary_impl(
            self.g,
            SummaryKind::Strong,
            &partition,
            |_, members| signature_term(self.g, cliques, members[0]),
            force_unpacked,
            self.threads,
        )
    }

    /// The typed weak summary TW_G (Definition 14), default semantics.
    pub fn typed_weak_summary(&self) -> Summary {
        self.typed_summary(SummaryKind::TypedWeak, TypedSemantics::default())
    }

    /// The typed strong summary TS_G (Definition 17), default semantics.
    pub fn typed_strong_summary(&self) -> Summary {
        self.typed_summary(SummaryKind::TypedStrong, TypedSemantics::default())
    }

    /// A typed summary under explicit semantics (see [`TypedSemantics`]).
    pub fn typed_summary(&self, kind: SummaryKind, semantics: TypedSemantics) -> Summary {
        self.typed_summary_impl(kind, semantics, false)
    }

    fn typed_summary_impl(
        &self,
        kind: SummaryKind,
        semantics: TypedSemantics,
        force_unpacked: bool,
    ) -> Summary {
        debug_assert!(matches!(
            kind,
            SummaryKind::TypedWeak | SummaryKind::TypedStrong
        ));
        let strong = kind == SummaryKind::TypedStrong;
        let cliques = self.cliques(semantics.scope());
        let cs = self.class_sets();
        let untyped: Vec<TermId> = self
            .nodes
            .iter()
            .copied()
            .filter(|&n| cs.set_id(n).is_none())
            .collect();
        let up = if strong {
            strong_partition(cliques, &untyped)
        } else {
            weak_partition(cliques, &untyped)
        };
        // Combined key space: class-set ids first, untyped classes after —
        // both already dense, so the grouping is hash-free.
        let n_sets = cs.len();
        let partition =
            Partition::group_by_dense(&self.nodes, n_sets + up.len(), |n| match cs.set_id(n) {
                Some(id) => id as usize,
                None => n_sets + up.class_of(n).expect("untyped node covered"),
            });
        quotient_summary_impl(
            self.g,
            kind,
            &partition,
            |_, members| match cs.set_id(members[0]) {
                Some(id) => c_term(self.g.dict(), cs.set(id)),
                None if strong => signature_term(self.g, cliques, members[0]),
                None => {
                    let (tc, sc) = class_property_sets(cliques, members);
                    n_term(self.g.dict(), &tc, &sc)
                }
            },
            force_unpacked,
            self.threads,
        )
    }

    /// The type-based summary T_G (Definition 12).
    pub fn type_summary(&self) -> Summary {
        self.type_summary_impl(false)
    }

    fn type_summary_impl(&self, force_unpacked: bool) -> Summary {
        let cs = self.class_sets();
        #[derive(Hash, PartialEq, Eq)]
        enum Key {
            Typed(u32),
            Untyped(TermId),
        }
        let partition = Partition::group_by(&self.nodes, |n| match cs.set_id(n) {
            Some(id) => Key::Typed(id),
            None => Key::Untyped(n),
        });
        let mut fresh = 0usize;
        quotient_summary_impl(
            self.g,
            SummaryKind::TypeBased,
            &partition,
            |_, members| match cs.set_id(members[0]) {
                Some(id) => c_term(self.g.dict(), cs.set(id)),
                None => {
                    // C(∅): "given an empty set of URIs, returns a new URI
                    // on every call." Fresh URIs stay eager strings — they
                    // carry no set key to mint from.
                    fresh += 1;
                    Term::iri(format!("{}c?fresh={}", crate::naming::SUMMARY_NS, fresh))
                }
            },
            force_unpacked,
            self.threads,
        )
    }

    /// Builds the summary of the given kind from the shared substrate.
    pub fn summarize(&self, kind: SummaryKind) -> Summary {
        match kind {
            SummaryKind::Weak => self.weak_summary(),
            SummaryKind::Strong => self.strong_summary(),
            SummaryKind::TypedWeak => self.typed_weak_summary(),
            SummaryKind::TypedStrong => self.typed_strong_summary(),
            SummaryKind::TypeBased => self.type_summary(),
            SummaryKind::Bisimulation => {
                crate::bisim::bisim_summary(self.g, crate::bisim::BisimDepth::Bounded(2))
            }
        }
    }

    /// [`SummaryContext::summarize`] with the quotient forced onto the
    /// non-packable (hash-dedup) emission path — the verification seam
    /// asserting packed and fallback emission agree triple for triple
    /// without needing a >2M-term dictionary. For the weak summary this
    /// also drops the Prop-4 derived-edge plan and re-scans D_G, so the
    /// seam cross-checks the derived edges against the full scan. Prefer
    /// [`SummaryContext::summarize`], which auto-selects.
    pub fn summarize_forced_unpacked(&self, kind: SummaryKind) -> Summary {
        match kind {
            SummaryKind::Weak => self.weak_summary_impl(true),
            SummaryKind::Strong => self.strong_summary_impl(true),
            SummaryKind::TypedWeak => {
                self.typed_summary_impl(SummaryKind::TypedWeak, TypedSemantics::default(), true)
            }
            SummaryKind::TypedStrong => {
                self.typed_summary_impl(SummaryKind::TypedStrong, TypedSemantics::default(), true)
            }
            SummaryKind::TypeBased => self.type_summary_impl(true),
            SummaryKind::Bisimulation => self.summarize(kind),
        }
    }

    /// Builds all four principal summaries in the paper's order
    /// (W, S, TW, TS), sharing cliques and class sets across the builds.
    pub fn summarize_all(&self) -> Vec<Summary> {
        SummaryKind::ALL
            .iter()
            .map(|&k| self.summarize(k))
            .collect()
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
/// row's values in entry order.
///
/// Above [`crate::parallel::PARALLEL_CSR_THRESHOLD`] entries the fill is
/// chunked across [`crate::parallel::substrate_threads`] workers in two
/// parallel phases: every input chunk first partitions its entries into
/// per-worker buckets by row range (ranges balanced by entry count), then
/// each worker fills its own **contiguous** slice of the values array
/// from its buckets in chunk order. Row ranges make the written slices
/// disjoint `&mut` splits — no atomics, no locks — and chunk order keeps
/// each row's values in scan order, so the result is bit-identical to the
/// sequential sweep.
fn fill_csr(deg: &[u32], entries: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    fill_csr_threaded(
        deg,
        entries,
        crate::parallel::substrate_threads(entries.len(), crate::parallel::PARALLEL_CSR_THRESHOLD),
    )
}

/// [`fill_csr`] with an explicit worker count — the seam the forced-thread
/// tests drive, since the auto path only goes parallel with spare cores.
pub(crate) fn fill_csr_threaded(
    deg: &[u32],
    entries: &[(u32, u32)],
    threads: usize,
) -> (Vec<u32>, Vec<u32>) {
    fill_csr_values(deg, entries, threads, 0u32)
}

/// The value-generic CSR fill behind [`fill_csr_threaded`]: the summary's
/// extent table uses it with [`TermId`](rdf_model::TermId) values, the
/// adjacency sides with `u32`. `zero` seeds the values array before the
/// scatter (every slot is overwritten; the seed only exists because the
/// value type carries no `Default`).
pub(crate) fn fill_csr_values<V: Copy + Send + Sync>(
    deg: &[u32],
    entries: &[(u32, V)],
    threads: usize,
    zero: V,
) -> (Vec<u32>, Vec<V>) {
    let offsets = csr_offsets(deg);
    let n = deg.len();
    let total = offsets[n] as usize;
    // Row → worker assignments live in a u8 table, hence the 256 cap
    // (also enforced by `substrate_threads` on the auto path).
    let threads = threads.clamp(1, n.max(1)).min(256);
    let mut values = vec![zero; total];
    if threads <= 1 {
        let mut cursor = offsets[..n].to_vec();
        for &(row, v) in entries {
            values[cursor[row as usize] as usize] = v;
            cursor[row as usize] += 1;
        }
        return (offsets, values);
    }
    // Row-range boundaries balanced by entry count: worker w owns rows
    // `bounds[w]..bounds[w+1]` and therefore the contiguous value slots
    // `offsets[bounds[w]]..offsets[bounds[w+1]]`.
    let mut bounds = vec![0usize; threads + 1];
    bounds[threads] = n;
    for w in 1..threads {
        let target = (total * w / threads) as u32;
        bounds[w] = offsets
            .partition_point(|&o| o < target)
            .clamp(bounds[w - 1], n);
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
/// per-row `sort_unstable`; the summary's extent construction uses this
/// for its `dr` member rows.
pub(crate) fn sort_csr_rows<V: Ord + Send>(offsets: &[u32], values: &mut [V], threads: usize) {
    let n = offsets.len().saturating_sub(1);
    let threads = threads.clamp(1, n.max(1)).min(256);
    if threads <= 1 {
        for i in 0..n {
            values[offsets[i] as usize..offsets[i + 1] as usize].sort_unstable();
        }
        return;
    }
    let total = offsets[n] as usize;
    let mut bounds = vec![0usize; threads + 1];
    bounds[threads] = n;
    for w in 1..threads {
        let target = (total * w / threads) as u32;
        bounds[w] = offsets
            .partition_point(|&o| o < target)
            .clamp(bounds[w - 1], n);
    }
    std::thread::scope(|scope| {
        let mut rest: &mut [V] = values;
        for w in 0..threads {
            let (lo, hi) = (bounds[w], bounds[w + 1]);
            let width = (offsets[hi] - offsets[lo]) as usize;
            let (slice, tail) = rest.split_at_mut(width);
            rest = tail;
            let base = offsets[lo];
            let range_offsets = &offsets[lo..=hi];
            scope.spawn(move || {
                for r in 0..hi - lo {
                    slice[(range_offsets[r] - base) as usize
                        ..(range_offsets[r + 1] - base) as usize]
                        .sort_unstable();
                }
            });
        }
    });
}

/// A list of `(row, value)` CSR entries in scan order.
type EntryList = Vec<(u32, u32)>;

/// Rewrites every shard's local `(row, value)` CSR entries to global ids
/// through the absorb remap tables, concatenated in shard order — which
/// *is* the sequential scan order, so the stitched entry list is
/// bit-identical to the one a single pass would record. Each shard writes
/// a disjoint range of the output, in parallel.
fn remap_side<'p>(
    parts: &[&'p ShardPart],
    node_remaps: &[Vec<u32>],
    prop_remaps: &[Vec<u32>],
    entries_of: impl Fn(&'p ShardPart) -> &'p [(u32, u32)],
) -> EntryList {
    let total: usize = parts.iter().map(|&p| entries_of(p).len()).sum();
    let mut out = vec![(0u32, 0u32); total];
    std::thread::scope(|ts| {
        let mut rest: &mut [(u32, u32)] = &mut out;
        for (w, &part) in parts.iter().enumerate() {
            let entries = entries_of(part);
            let (slice, tail) = rest.split_at_mut(entries.len());
            rest = tail;
            let (nr, pr) = (&node_remaps[w], &prop_remaps[w]);
            ts.spawn(move || {
                for (dst, &(v, p)) in slice.iter_mut().zip(entries) {
                    *dst = (nr[v as usize], pr[p as usize]);
                }
            });
        }
    });
    out
}

/// Both CSR sides of the graph-path shard partials, remapped and stitched.
fn remap_entries(
    parts: &[ShardPart],
    node_remaps: &[Vec<u32>],
    prop_remaps: &[Vec<u32>],
) -> (EntryList, EntryList) {
    let refs: Vec<&ShardPart> = parts.iter().collect();
    (
        remap_side(&refs, node_remaps, prop_remaps, |p| {
            p.out_entries.as_slice()
        }),
        remap_side(&refs, node_remaps, prop_remaps, |p| p.in_entries.as_slice()),
    )
}

/// The strong-summary name of a node: the symbolic `N(TC(n), SC(n))` from
/// the member's own clique signature (all members of a strong class share
/// it).
fn signature_term(g: &Graph, cliques: &Cliques, node: TermId) -> Term {
    let tc_props = cliques
        .tc(node)
        .map(|i| cliques.target_members(i))
        .unwrap_or(&[]);
    let sc_props = cliques
        .sc(node)
        .map(|i| cliques.source_members(i))
        .unwrap_or(&[]);
    n_term(g.dict(), tc_props, sc_props)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{exid, sample_graph};

    #[test]
    fn numbering_matches_data_nodes_ordered() {
        let g = sample_graph();
        let ctx = SummaryContext::new(&g);
        assert_eq!(
            ctx.data_nodes(),
            crate::equivalence::data_nodes_ordered(&g).as_slice()
        );
        // 15 data nodes, 6 distinct data properties.
        assert_eq!(ctx.data_nodes().len(), 15);
        assert_eq!(ctx.data_properties().len(), 6);
    }

    #[test]
    fn csr_rows_cover_every_data_triple() {
        let g = sample_graph();
        let ctx = SummaryContext::new(&g);
        let total_out: usize = (0..ctx.data_nodes().len())
            .map(|v| ctx.out_row(v).len())
            .sum();
        let total_in: usize = (0..ctx.data_nodes().len())
            .map(|v| ctx.in_row(v).len())
            .sum();
        assert_eq!(total_out, g.data().len());
        assert_eq!(total_in, g.data().len());
        // r6 is typed-only: no adjacency at all.
        let r6 = exid(&g, "r6");
        let v = ctx
            .data_nodes()
            .iter()
            .position(|&n| n == r6)
            .expect("r6 is a data node");
        assert!(ctx.out_row(v).is_empty() && ctx.in_row(v).is_empty());
        assert!(ctx.is_typed(v));
    }

    #[test]
    fn context_cliques_match_direct_compute() {
        let g = sample_graph();
        let ctx = SummaryContext::new(&g);
        for scope in [CliqueScope::AllNodes, CliqueScope::UntypedOnly] {
            let a = ctx.cliques(scope);
            let b = Cliques::compute(&g, scope);
            assert_eq!(a.source_cliques, b.source_cliques, "{scope:?}");
            assert_eq!(a.target_cliques, b.target_cliques, "{scope:?}");
        }
        // Cached: the same reference comes back.
        assert!(std::ptr::eq(
            ctx.cliques(CliqueScope::AllNodes),
            ctx.cliques(CliqueScope::AllNodes)
        ));
    }

    #[test]
    fn class_sets_of_sample() {
        let g = sample_graph();
        let ctx = SummaryContext::new(&g);
        let cs = ctx.class_sets();
        // r1 {Book}, r2 {Journal}, r5/r6 {Spec} ⇒ 3 distinct sets.
        assert_eq!(cs.len(), 3);
        assert_eq!(
            cs.set_id(exid(&g, "r5")),
            cs.set_id(exid(&g, "r6")),
            "shared {{Spec}} set"
        );
        assert_ne!(cs.set_id(exid(&g, "r1")), cs.set_id(exid(&g, "r2")));
        assert_eq!(cs.set_id(exid(&g, "t1")), None);
        let spec = cs.set_id(exid(&g, "r5")).unwrap();
        assert_eq!(cs.set(spec).len(), 1);
    }

    /// The chunked class-set scan equals the sequential one exactly —
    /// same dense set-id numbering, same set contents, same node mapping —
    /// for every forced worker count, on a graph with cross-chunk nodes,
    /// duplicate type triples, and interleaved class orders.
    #[test]
    fn forced_parallel_class_sets_match_sequential() {
        let mut g = Graph::new();
        // 120 typed resources cycling through 7 class-set shapes, visited
        // twice in different orders so most nodes straddle chunk cuts.
        for round in 0..2 {
            for i in 0..120 {
                let r = format!("r{i}");
                let classes = match (i + round) % 7 {
                    0 => vec!["A"],
                    1 => vec!["B", "A"],
                    2 => vec!["A", "B"], // same set as 1, other arrival order
                    3 => vec!["C", "C", "A"],
                    4 => vec!["B"],
                    5 => vec!["C"],
                    _ => vec!["A", "B", "C"],
                };
                for c in classes {
                    g.add_iri_triple(&r, rdf_model::vocab::RDF_TYPE, c);
                }
                g.add_iri_triple(&r, "p", "o");
            }
        }
        let ctx = SummaryContext::new(&g);
        let seq = ctx.class_sets_forced(1);
        for threads in [2, 3, 5, 16] {
            let par = ctx.class_sets_forced(threads);
            assert_eq!(par.set_of_node, seq.set_of_node, "{threads} threads");
            assert_eq!(par.sets, seq.sets, "{threads} threads");
        }
        // And the cached auto path agrees with the sequential build.
        assert_eq!(ctx.class_sets().set_of_node, seq.set_of_node);
        assert_eq!(ctx.class_sets().sets, seq.sets);
    }

    #[test]
    fn summarize_all_matches_free_functions() {
        let g = sample_graph();
        let ctx = SummaryContext::new(&g);
        let all = ctx.summarize_all();
        assert_eq!(all[0].graph.data().len(), 6); // Figure 4 / Prop. 4
        assert_eq!(all[1].n_summary_nodes(), 9); // Figure 9
        assert_eq!(all[2].n_summary_nodes(), 9); // Figure 7
        assert_eq!(all[3].n_summary_nodes(), 11);
        assert_eq!(ctx.type_summary().n_summary_nodes(), 14); // Figure 6
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
            let (seq_off, seq_vals) = fill_csr_threaded(&deg, &entries, 1);
            for threads in [2, 3, 5, 8] {
                let (off, vals) = fill_csr_threaded(&deg, &entries, threads);
                assert_eq!(off, seq_off, "case {case}, {threads} threads");
                assert_eq!(vals, seq_vals, "case {case}, {threads} threads");
            }
        }
    }

    /// Whole-pipeline check: a context whose CSR was filled by the forced
    /// parallel path produces the same adjacency as the auto path.
    #[test]
    fn forced_parallel_fill_reproduces_sample_adjacency() {
        let g = sample_graph();
        let ctx = SummaryContext::new(&g);
        // Rebuild the out-CSR with forced workers from the same entries.
        let mut node_map = rdf_model::DenseIdMap::with_capacity(g.dict().len());
        let mut prop_map = rdf_model::DenseIdMap::with_capacity(g.dict().len());
        let mut deg: Vec<u32> = Vec::new();
        let mut entries: Vec<(u32, u32)> = Vec::new();
        for t in g.data() {
            let s = node_map.intern(t.s);
            if s as usize == deg.len() {
                deg.push(0);
            }
            deg[s as usize] += 1;
            node_map.intern(t.o);
            if node_map.len() > deg.len() {
                deg.push(0);
            }
            entries.push((s, prop_map.intern(t.p)));
        }
        for t in g.types() {
            node_map.intern(t.s);
            if node_map.len() > deg.len() {
                deg.push(0);
            }
        }
        let (offsets, props) = fill_csr_threaded(&deg, &entries, 4);
        for v in 0..node_map.len() {
            let row = &props[offsets[v] as usize..offsets[v + 1] as usize];
            assert_eq!(row, ctx.out_row(v), "row {v}");
        }
    }

    /// The sharded build is *bit-identical* to the sequential one — same
    /// numbering, CSR arrays, and typed flags — for every forced shard
    /// count, including counts past the triple count (empty shards).
    #[test]
    fn sharded_forced_substrate_is_bit_identical() {
        for g in [
            sample_graph(),
            crate::fixtures::figure5_graph(),
            Graph::new(),
        ] {
            let seq = SummaryContext::new(&g);
            for shards in [2, 3, 7, 32] {
                let sh = SummaryContext::sharded_forced(&g, shards);
                assert_eq!(sh.nodes, seq.nodes, "{shards} shards");
                assert_eq!(sh.props, seq.props, "{shards} shards");
                assert_eq!(sh.out_offsets, seq.out_offsets, "{shards} shards");
                assert_eq!(sh.out_props, seq.out_props, "{shards} shards");
                assert_eq!(sh.in_offsets, seq.in_offsets, "{shards} shards");
                assert_eq!(sh.in_props, seq.in_props, "{shards} shards");
                assert_eq!(sh.typed, seq.typed, "{shards} shards");
            }
        }
    }

    /// Summaries from a forced-shard context equal the sequential ones
    /// triple for triple, for all five kinds (naming included).
    #[test]
    fn sharded_forced_summaries_match_sequential() {
        let g = sample_graph();
        let seq = SummaryContext::new(&g);
        let canon = |s: &Summary| {
            let mut v: Vec<String> = rdf_io::write_graph(&s.graph)
                .lines()
                .map(String::from)
                .collect();
            v.sort();
            v
        };
        for shards in [2, 3, 7] {
            let sh = SummaryContext::sharded_forced(&g, shards);
            for kind in SummaryKind::ALL {
                assert_eq!(
                    canon(&sh.summarize(kind)),
                    canon(&seq.summarize(kind)),
                    "{kind} at {shards} shards"
                );
            }
            assert_eq!(
                canon(&sh.type_summary()),
                canon(&seq.type_summary()),
                "type-based at {shards} shards"
            );
        }
    }

    /// Shard counts past the old S = 8 frontier — 16/32/64, with 64
    /// exceeding the small fixture's triple count so trailing shards are
    /// empty — reproduce the sequential build *byte for byte*: the
    /// substrate arrays, each summary's serialized
    /// triples in emission order (no canonical re-sort), and the dr/rd
    /// correspondence tables. The forced context carries its shard count
    /// into `threads`, so this also pins the parallel quotient emission
    /// and extent-table scatter against their sequential twins.
    #[test]
    fn sharded_forced_high_counts_byte_identical() {
        // A graph with enough structure that S = 16/32 shards carry real
        // work: a property-cycled ring with back-edges and typed nodes.
        let mut big = Graph::new();
        for i in 0..180u32 {
            let s = format!("n{i}");
            let o = format!("n{}", (i * 7 + 3) % 180);
            big.add_iri_triple(&s, &format!("p{}", i % 5), &o);
            if i % 3 == 0 {
                big.add_iri_triple(&s, rdf_model::vocab::RDF_TYPE, &format!("C{}", i % 4));
            }
            if i % 4 == 0 {
                big.add_iri_triple(&o, &format!("q{}", i % 3), &s);
            }
        }
        for g in [big, sample_graph()] {
            let seq = SummaryContext::new(&g);
            let mut seq_sums: Vec<Summary> =
                SummaryKind::ALL.iter().map(|&k| seq.summarize(k)).collect();
            seq_sums.push(seq.type_summary());
            let assert_same = |a: &Summary, b: &Summary, tag: &str| {
                assert_eq!(
                    rdf_io::write_graph(&a.graph),
                    rdf_io::write_graph(&b.graph),
                    "{tag}: serialized triples"
                );
                for &n in seq.data_nodes() {
                    assert_eq!(a.representative(n), b.representative(n), "{tag}: rd");
                }
                assert_eq!(a.graph.dict().len(), b.graph.dict().len(), "{tag}: dict");
                for h in 0..a.graph.dict().len() as u32 {
                    assert_eq!(a.extent(TermId(h)), b.extent(TermId(h)), "{tag}: dr");
                }
            };
            for shards in [16, 32, 64] {
                let sh = SummaryContext::sharded_forced(&g, shards);
                let tag = format!("{shards} shards");
                assert_eq!(sh.nodes, seq.nodes, "{tag}");
                assert_eq!(sh.props, seq.props, "{tag}");
                assert_eq!(sh.out_offsets, seq.out_offsets, "{tag}");
                assert_eq!(sh.out_props, seq.out_props, "{tag}");
                assert_eq!(sh.in_offsets, seq.in_offsets, "{tag}");
                assert_eq!(sh.in_props, seq.in_props, "{tag}");
                assert_eq!(sh.typed, seq.typed, "{tag}");
                for (i, &kind) in SummaryKind::ALL.iter().enumerate() {
                    assert_same(&sh.summarize(kind), &seq_sums[i], &format!("{tag}/{kind}"));
                }
                assert_same(
                    &sh.type_summary(),
                    seq_sums.last().unwrap(),
                    &format!("{tag}/type-based"),
                );
            }
        }
    }

    /// The store-driven sharded build reproduces the sequential
    /// store-driven substrate bit for bit, shard count by shard count.
    #[test]
    fn sharded_from_store_forced_is_bit_identical() {
        let g = sample_graph();
        let store = TripleStore::new(g.clone());
        let seq = SummaryContext::from_store(&store);
        for shards in [2, 3, 7, 32, 64] {
            let sh = SummaryContext::sharded_from_store_forced(&store, shards);
            assert_eq!(sh.nodes, seq.nodes, "{shards} shards");
            assert_eq!(sh.props, seq.props, "{shards} shards");
            assert_eq!(sh.out_offsets, seq.out_offsets, "{shards} shards");
            assert_eq!(sh.out_props, seq.out_props, "{shards} shards");
            assert_eq!(sh.in_offsets, seq.in_offsets, "{shards} shards");
            assert_eq!(sh.in_props, seq.in_props, "{shards} shards");
            assert_eq!(sh.typed, seq.typed, "{shards} shards");
        }
        // Empty store: every shard is empty, the build still stands up.
        let empty_store = TripleStore::new(Graph::new());
        let sh = SummaryContext::sharded_from_store_forced(&empty_store, 3);
        assert!(sh.data_nodes().is_empty() && sh.data_properties().is_empty());
    }

    /// The auto path falls back to the sequential build below the shard
    /// threshold, whatever was requested.
    #[test]
    fn sharded_auto_falls_back_on_small_graphs() {
        let g = sample_graph();
        let auto = SummaryContext::sharded(&g, 8);
        let seq = SummaryContext::new(&g);
        assert_eq!(auto.nodes, seq.nodes);
        assert_eq!(auto.threads, 0, "fallback is the plain sequential path");
        let store = TripleStore::new(g.clone());
        let auto = SummaryContext::sharded_from_store(&store, 8);
        assert_eq!(auto.threads, 0);
    }

    /// The row-range clique sweep equals the sequential sweep exactly —
    /// clique numbering included — for every worker count and both scopes.
    #[test]
    fn forced_thread_cliques_match_sequential() {
        let g = sample_graph();
        let ctx = SummaryContext::new(&g);
        for scope in [CliqueScope::AllNodes, CliqueScope::UntypedOnly] {
            let seq = ctx.compute_cliques_threaded(scope, 1);
            for threads in [2, 3, 5, 16] {
                let par = ctx.compute_cliques_threaded(scope, threads);
                assert_eq!(
                    par.source_cliques, seq.source_cliques,
                    "{scope:?}/{threads}"
                );
                assert_eq!(
                    par.target_cliques, seq.target_cliques,
                    "{scope:?}/{threads}"
                );
                for &n in ctx.data_nodes() {
                    assert_eq!(par.sc(n), seq.sc(n), "{scope:?}/{threads}");
                    assert_eq!(par.tc(n), seq.tc(n), "{scope:?}/{threads}");
                }
            }
        }
        // A sharded context runs its sweep with the shard count; the
        // cached cliques still match the sequential ones.
        let sh = SummaryContext::sharded_forced(&g, 3);
        let a = sh.cliques(CliqueScope::AllNodes);
        let b = ctx.cliques(CliqueScope::AllNodes);
        assert_eq!(a.source_cliques, b.source_cliques);
        assert_eq!(a.target_cliques, b.target_cliques);
    }

    #[test]
    fn store_context_builds_identical_summaries() {
        let g = sample_graph();
        let store = TripleStore::new(g.clone());
        let ctx_g = SummaryContext::new(&g);
        let ctx_s = SummaryContext::from_store(&store);
        // Node sets coincide (order may differ).
        let mut a: Vec<TermId> = ctx_g.data_nodes().to_vec();
        let mut b: Vec<TermId> = ctx_s.data_nodes().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        // Note: ctx_s numbers nodes from the *store's* graph, which is the
        // clone — same dictionary ids, so the comparison is meaningful.
        assert_eq!(a, b);
        for kind in SummaryKind::ALL {
            let x = ctx_g.summarize(kind);
            let y = ctx_s.summarize(kind);
            let canon = |s: &Summary| {
                let mut v: Vec<String> = rdf_io::write_graph(&s.graph)
                    .lines()
                    .map(String::from)
                    .collect();
                v.sort();
                v
            };
            assert_eq!(canon(&x), canon(&y), "{kind}");
        }
    }
}
