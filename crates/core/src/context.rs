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
//! # One constructor, one worker count
//!
//! Every context is built by the same code: `S` contiguous chunks of D_G
//! are scanned into partial substrates (shard 0 on the calling thread, the
//! others on their own), folded in shard order, and filled into the CSR.
//! [`SummaryContext::sharded`] resolves `S` once, through
//! [`crate::parallel::shard_count`] — `1` below
//! [`crate::parallel::PARALLEL_SHARD_THRESHOLD`] data triples, else the
//! caller's request — and the context stores it
//! ([`SummaryContext::threads`], always ≥ 1). Every later stage reads its
//! worker count from there and nowhere else: the CSR fill, the clique
//! sweep, the class-set scan, the quotient's packed emission and the
//! summary's extent table. [`SummaryContext::new`] is the one-shard
//! context, which runs every stage on the calling thread.
//!
//! The one-shard build fills its CSR from the `(row, property)` pairs the
//! scan recorded, exactly like the merged build. The alternative — no
//! recorded pairs, a second pass over D_G re-reading the id maps — was
//! the other half of a measured pair and was deleted: the recorded pairs
//! won `sharded_substrate/bsbm_30k/1` and all four `summarize_bsbm_30k/*`
//! criterion rows and lost only `sharded_substrate/bsbm_200k/1`, a size at
//! which one shard is an explicit request (CHANGES.md, PR 17).
//!
//! Three observations make the merge exact (not merely equivalent):
//!
//! 1. **First-seen numbering remaps preserve determinism.** Each shard
//!    numbers the nodes/properties of its chunk with a *local*
//!    [`DenseIdMap`] in local first-seen order. First-seen order over a
//!    concatenation of chunks is the in-order merge of the per-chunk
//!    first-seen orders, so absorbing the shard maps into shard 0's *in
//!    shard order* ([`DenseIdMap::absorb`]) assigns every node the exact
//!    dense id a single pass would have. An absorb only ever *appends* to
//!    the accumulated numbering, so shard 0's local ids are already global
//!    and the table each absorb returns *is* that shard's `local → global`
//!    remap. Degrees ride along in the same pass, and the per-shard CSR
//!    entries are then rewritten through the tables in one parallel
//!    post-pass. Numbering, and hence every downstream artifact, is
//!    deterministic and shard-count-invariant (pinned by the forced-shard
//!    suites at S up to 64). The fold is the survivor of a measured pair:
//!    an ordered binary tree of concurrent pairwise absorbs lost to it on
//!    12 of 12 alternating runs at S = 8 and never won 9 of 10 at S = 2 or
//!    4 (CHANGES.md, PR 16).
//! 2. **CSR stitching is an order-preserving concatenation.** A shard's
//!    remapped `(row, property)` entries keep their chunk-scan order, and
//!    shard concatenation order equals global scan order, so handing the
//!    stitched entry list to the chunked [`fill_csr_values`] produces the
//!    byte-identical offsets/values arrays of the one-shard build.
//! 3. **Clique union–finds are mergeable.** Property-relatedness is a
//!    union of per-row co-occurrence constraints, so partial union–finds
//!    over disjoint row ranges merge by unioning each element with its
//!    partial root. [`SummaryContext::cliques`] computes the sweep that
//!    way: row ranges (balanced by CSR entry count) feed per-worker
//!    union–finds plus range-local representative tables, and the merge
//!    unions `np` roots per worker and scatters the representatives —
//!    identical output to the one-worker sweep because every row is owned
//!    by exactly one worker.

use crate::cliques::{CliqueScope, Cliques};
use crate::equivalence::{strong_partition, weak_partition, Partition};
use crate::naming::Namer;
use crate::quotient::{quotient_summary_planned, DataPlan};
use crate::summary::{Summary, SummaryKind};
use crate::typed::TypedSemantics;
use crate::unionfind::UnionFind;
use crate::weak::class_property_sets;
use rdf_model::{DenseIdMap, FxHashMap, Graph, Term, TermId, Triple, NO_DENSE_ID};
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
    /// The one worker count of this context, resolved at construction and
    /// always ≥ 1: the shard count of the build, and what every later
    /// stage (cliques, class sets, quotient emission, extent table) uses.
    threads: usize,
    all_cliques: OnceCell<Cliques>,
    untyped_cliques: OnceCell<Cliques>,
    class_sets: OnceCell<ClassSets>,
}

/// One shard's partial substrate: chunk-local numbering, degrees, and CSR
/// entries, folded by [`SummaryContext::sharded_forced`] via
/// [`DenseIdMap::absorb`] remaps.
struct ShardPart {
    node_map: DenseIdMap,
    prop_map: DenseIdMap,
    /// Local node id → outgoing (incoming) data-triple count.
    out_deg: Vec<u32>,
    in_deg: Vec<u32>,
    /// `(local node, local property)` per data triple, in chunk-scan order.
    out_entries: EntryList,
    in_entries: EntryList,
}

impl ShardPart {
    /// Scans one contiguous chunk of D_G, numbering its nodes and
    /// properties locally in first-seen order (s, o, p per triple).
    fn scan(chunk: &[Triple], n_terms: usize) -> ShardPart {
        let mut part = ShardPart {
            node_map: DenseIdMap::with_capacity(n_terms),
            prop_map: DenseIdMap::with_capacity(n_terms),
            out_deg: Vec::new(),
            in_deg: Vec::new(),
            out_entries: Vec::with_capacity(chunk.len()),
            in_entries: Vec::with_capacity(chunk.len()),
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
    }
}

impl<'g> SummaryContext<'g> {
    /// Builds the one-shard context: every stage runs on the calling
    /// thread. Data nodes are numbered in first-seen order (the
    /// [`crate::equivalence::data_nodes_ordered`] order).
    pub fn new(g: &'g Graph) -> Self {
        Self::sharded_forced(g, 1)
    }

    /// Builds the context on the worker count
    /// [`crate::parallel::shard_count`] resolves for `g` and the requested
    /// `threads`: one below
    /// [`crate::parallel::PARALLEL_SHARD_THRESHOLD`] data triples, so
    /// small graphs never pay the per-shard fixed costs, else the request.
    /// All five summaries come out triple-for-triple, naming-identical at
    /// any count (see the [module docs](self) for why the merge is exact).
    pub fn sharded(g: &'g Graph, threads: usize) -> Self {
        Self::sharded_forced(g, crate::parallel::shard_count(g.data().len(), threads))
    }

    /// [`SummaryContext::sharded`] without the size floor — the seam the
    /// forced-shard tests and benches drive, since the floor keeps
    /// fixture-sized graphs on one shard. Prefer
    /// [`SummaryContext::sharded`].
    pub fn sharded_forced(g: &'g Graph, shards: usize) -> Self {
        let threads = shards.clamp(1, 256);
        let n_terms = g.dict().len();
        let data = g.data();
        // Shard w owns the contiguous chunk `data[len·w/S .. len·(w+1)/S]`
        // (possibly empty when S exceeds the triple count). Shard 0 is
        // scanned here, so one shard spawns nothing.
        let chunk = |w: usize| &data[data.len() * w / threads..data.len() * (w + 1) / threads];
        let (first, rest) = std::thread::scope(|ts| {
            let handles: Vec<_> = (1..threads)
                .map(|w| {
                    let chunk = chunk(w);
                    ts.spawn(move || ShardPart::scan(chunk, n_terms))
                })
                .collect();
            let first = ShardPart::scan(chunk(0), n_terms);
            let rest: Vec<ShardPart> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            (first, rest)
        });
        // Fold in shard order: shard 0's numbering is the prefix of the
        // global one, and each absorb returns the absorbed shard's
        // `local → global` tables.
        let ShardPart {
            mut node_map,
            mut prop_map,
            mut out_deg,
            mut in_deg,
            out_entries,
            in_entries,
        } = first;
        let remaps: Vec<(Vec<u32>, Vec<u32>)> = rest
            .iter()
            .map(|leaf| {
                let node_remap = node_map.absorb(&leaf.node_map);
                let prop_remap = prop_map.absorb(&leaf.prop_map);
                out_deg.resize(node_map.len(), 0);
                in_deg.resize(node_map.len(), 0);
                for (l, &d) in leaf.out_deg.iter().enumerate() {
                    if d != 0 {
                        out_deg[node_remap[l] as usize] += d;
                    }
                }
                for (l, &d) in leaf.in_deg.iter().enumerate() {
                    if d != 0 {
                        in_deg[node_remap[l] as usize] += d;
                    }
                }
                (node_remap, prop_remap)
            })
            .collect();
        // Typed-only subjects are numbered after all data nodes.
        let typed_nodes: Vec<u32> = g.types().iter().map(|t| node_map.intern(t.s)).collect();
        let n = node_map.len();
        out_deg.resize(n, 0);
        in_deg.resize(n, 0);
        let mut typed = vec![false; n];
        for v in typed_nodes {
            typed[v as usize] = true;
        }
        let rest_out: Vec<&[(u32, u32)]> = rest.iter().map(|p| p.out_entries.as_slice()).collect();
        let rest_in: Vec<&[(u32, u32)]> = rest.iter().map(|p| p.in_entries.as_slice()).collect();
        let out_entries = stitch_entries(out_entries, &rest_out, &remaps);
        let in_entries = stitch_entries(in_entries, &rest_in, &remaps);
        let (out_offsets, out_props) = fill_csr_values(&out_deg, &out_entries, threads, 0u32);
        let (in_offsets, in_props) = fill_csr_values(&in_deg, &in_entries, threads, 0u32);
        SummaryContext {
            g,
            nodes: node_map.into_parts().1,
            props: prop_map.into_parts().1,
            out_offsets,
            out_props,
            in_offsets,
            in_props,
            typed,
            threads,
            all_cliques: OnceCell::new(),
            untyped_cliques: OnceCell::new(),
            class_sets: OnceCell::new(),
        }
    }

    /// The worker count this context resolved at construction (≥ 1): its
    /// shard count, and the count every later stage runs on.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
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
    pub fn cliques(&self, scope: CliqueScope) -> &Cliques {
        let cell = match scope {
            CliqueScope::AllNodes => &self.all_cliques,
            CliqueScope::UntypedOnly => &self.untyped_cliques,
        };
        cell.get_or_init(|| self.compute_cliques(scope))
    }

    /// Computes the cliques for `scope` from the CSR layout on the
    /// context's worker count. One worker runs the two linear CSR sweeps
    /// sequentially (out rows feed the source union–find, in rows the
    /// target one, no hash lookups); more workers split the rows into
    /// contiguous ranges balanced by entry count, scan each range into a
    /// union–find partial plus range-local representative tables, and
    /// merge by unioning every element with its partial root. Every row
    /// is owned by one worker, so the representative tables scatter
    /// without reconciliation and the result — including clique numbering
    /// — equals the one-worker sweep.
    pub(crate) fn compute_cliques(&self, scope: CliqueScope) -> Cliques {
        let np = self.props.len();
        let n = self.nodes.len();
        let n_terms = self.g.dict().len();
        // Row ranges balanced by out-entry count, like the CSR fill's.
        let bounds = crate::parallel::row_bounds(&self.out_offsets, self.threads);
        let threads = bounds.len() - 1;
        let mut src_uf = UnionFind::new(np);
        let mut tgt_uf = UnionFind::new(np);
        let mut subject_repr = vec![NO_DENSE_ID; n_terms];
        let mut object_repr = vec![NO_DENSE_ID; n_terms];
        if threads == 1 {
            // One range keeps a sweep of its own, straight into the
            // term-indexed tables. Run through the per-range body below it
            // pays two node-sized local tables and their scatter:
            // `cliques_bsbm_30k/all_nodes` 0.480 → 0.556 ms and
            // `untyped_only` 0.391 → 0.434 ms (medians of 10 alternating
            // parent/change runs, the shared body faster in 1 of 10 each;
            // sized for PR 23).
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
    /// use and cached. The T_G accumulation sweep is chunked across the
    /// context's workers; the result is identical at any count.
    pub fn class_sets(&self) -> &ClassSets {
        self.class_sets.get_or_init(|| self.compute_class_sets())
    }

    fn compute_class_sets(&self) -> ClassSets {
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
        } = if self.threads <= 1 || types.len() < 2 {
            scan(types, n_terms)
        } else {
            // Chunked scan + chunk-order merge. The sequential sweep
            // visits chunk 0's triples before chunk 1's, so a node's
            // global first-seen position is its position in the first
            // chunk that saw it, and its class list is the concatenation
            // of its per-chunk lists in chunk order — the merge below
            // reproduces both exactly.
            let chunk_size = types.len().div_ceil(self.threads).max(1);
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
        let mut namer = Namer::new(self.g.dict());
        quotient_summary_planned(
            self.g,
            SummaryKind::Strong,
            &partition,
            |_, members| signature_term(&mut namer, cliques, members[0]),
            DataPlan::Scan,
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
        let mut namer = Namer::new(self.g.dict());
        quotient_summary_planned(
            self.g,
            kind,
            &partition,
            |_, members| match cs.set_id(members[0]) {
                Some(id) => namer.c_term(cs.set(id)),
                None if strong => signature_term(&mut namer, cliques, members[0]),
                None => {
                    let (tc, sc) = class_property_sets(cliques, members);
                    namer.n_term(&tc, &sc)
                }
            },
            DataPlan::Scan,
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
        let mut namer = Namer::new(self.g.dict());
        quotient_summary_planned(
            self.g,
            SummaryKind::TypeBased,
            &partition,
            |_, members| match cs.set_id(members[0]) {
                Some(id) => namer.c_term(cs.set(id)),
                None => {
                    // C(∅): "given an empty set of URIs, returns a new URI
                    // on every call." Fresh URIs stay eager strings — they
                    // carry no set key to mint from.
                    fresh += 1;
                    Term::iri(format!("{}c?fresh={}", crate::naming::SUMMARY_NS, fresh))
                }
            },
            DataPlan::Scan,
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
            SummaryKind::Bisimulation => crate::bisim::bisim_summary_on(
                self.g,
                crate::bisim::BisimDepth::Bounded(2),
                self.threads,
            ),
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
/// row's values in entry order. The adjacency sides use it with `u32`
/// values, the summary's extent table with
/// [`TermId`](rdf_model::TermId)s; `zero` seeds the values array before
/// the scatter (every slot is overwritten; the seed only exists because
/// the value type carries no `Default`).
///
/// One worker runs a cursor sweep. More workers fill in two parallel
/// phases: every input chunk first partitions its entries into per-worker
/// buckets by row range (ranges balanced by entry count), then each worker
/// fills its own **contiguous** slice of the values array from its buckets
/// in chunk order. Row ranges make the written slices disjoint `&mut`
/// splits — no atomics, no locks — and chunk order keeps each row's values
/// in scan order, so the result is bit-identical to the cursor sweep.
pub(crate) fn fill_csr_values<V: Copy + Send + Sync>(
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
/// per-row `sort_unstable`; the summary's extent construction uses this
/// for its `dr` member rows. A single range is sorted on the calling
/// thread.
pub(crate) fn sort_csr_rows<V: Ord + Send>(offsets: &[u32], values: &mut [V], threads: usize) {
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

/// A list of `(row, value)` CSR entries in scan order.
type EntryList = Vec<(u32, u32)>;

/// Concatenates one CSR side of the shard partials in shard order — which
/// *is* the global scan order, so the stitched list is bit-identical to
/// the one a single pass would record. `first` is shard 0's list, already
/// in global ids; `rest[i]` is rewritten through `remaps[i]`, the
/// `(node, property)` tables its absorb returned. Each shard writes a
/// disjoint range of the output, in parallel.
fn stitch_entries(
    first: EntryList,
    rest: &[&[(u32, u32)]],
    remaps: &[(Vec<u32>, Vec<u32>)],
) -> EntryList {
    if rest.is_empty() {
        return first;
    }
    let total = first.len() + rest.iter().map(|e| e.len()).sum::<usize>();
    let mut out = vec![(0u32, 0u32); total];
    std::thread::scope(|ts| {
        let (head, mut tail) = out.split_at_mut(first.len());
        ts.spawn(|| head.copy_from_slice(&first));
        for (&entries, (node_remap, prop_remap)) in rest.iter().zip(remaps) {
            let (slice, after) = tail.split_at_mut(entries.len());
            tail = after;
            ts.spawn(move || {
                for (dst, &(v, p)) in slice.iter_mut().zip(entries) {
                    *dst = (node_remap[v as usize], prop_remap[p as usize]);
                }
            });
        }
    });
    out
}

/// The strong-summary name of a node: the symbolic `N(TC(n), SC(n))` from
/// the member's own clique signature (all members of a strong class share
/// it).
fn signature_term(namer: &mut Namer<'_>, cliques: &Cliques, node: TermId) -> Term {
    let tc_props = cliques
        .tc(node)
        .map(|i| cliques.target_members(i))
        .unwrap_or(&[]);
    let sc_props = cliques
        .sc(node)
        .map(|i| cliques.source_members(i))
        .unwrap_or(&[]);
    namer.n_term(tc_props, sc_props)
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

    /// The chunked class-set scan equals the one-worker scan exactly —
    /// same dense set-id numbering, same set contents, same node mapping —
    /// at every forced shard count, on a graph with cross-chunk nodes,
    /// duplicate type triples, and interleaved class orders, and on one
    /// with no type triples at all.
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
        let mut untyped = Graph::new();
        untyped.add_iri_triple("a", "p", "b");
        for g in [g, untyped] {
            let seq = SummaryContext::new(&g);
            for shards in [2, 3, 4, 8, 64] {
                let par = SummaryContext::sharded_forced(&g, shards);
                assert_eq!(
                    par.class_sets().set_of_node,
                    seq.class_sets().set_of_node,
                    "{shards} shards"
                );
                assert_eq!(
                    par.class_sets().sets,
                    seq.class_sets().sets,
                    "{shards} shards"
                );
            }
        }
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
            let (seq_off, seq_vals) = fill_csr_values(&deg, &entries, 1, 0u32);
            for threads in [2, 3, 5, 8] {
                let (off, vals) = fill_csr_values(&deg, &entries, threads, 0u32);
                assert_eq!(off, seq_off, "case {case}, {threads} threads");
                assert_eq!(vals, seq_vals, "case {case}, {threads} threads");
            }
        }
    }

    /// Whole-pipeline check: an out-CSR filled by four workers from a
    /// hand-rolled scan equals the one-shard context's adjacency.
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
        let (offsets, props) = fill_csr_values(&deg, &entries, 4, 0u32);
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
    /// and extent-table scatter against their sequential twins — for the
    /// five clique/type kinds and for `fb`, whose quotient takes the
    /// context's count too.
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
            const KINDS: [SummaryKind; 6] = [
                SummaryKind::Weak,
                SummaryKind::Strong,
                SummaryKind::TypedWeak,
                SummaryKind::TypedStrong,
                SummaryKind::TypeBased,
                SummaryKind::Bisimulation,
            ];
            let seq_sums: Vec<Summary> = KINDS.iter().map(|&k| seq.summarize(k)).collect();
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
                for (i, &kind) in KINDS.iter().enumerate() {
                    assert_same(&sh.summarize(kind), &seq_sums[i], &format!("{tag}/{kind}"));
                }
            }
        }
    }

    /// `threads()` is the count `shard_count` resolved, never the request:
    /// one below the floor whatever was asked, the request above it — so
    /// `--threads 1` on a large graph really is one thread.
    #[test]
    fn threads_is_the_resolved_count() {
        let small = sample_graph();
        let mut big = Graph::new();
        for i in 0..crate::parallel::PARALLEL_SHARD_THRESHOLD {
            big.add_iri_triple(&format!("n{i}"), "p", &format!("n{}", i + 1));
        }
        assert_eq!(SummaryContext::sharded(&big, 1).threads(), 1);
        assert_eq!(SummaryContext::sharded(&big, 4).threads(), 4);
        assert_eq!(SummaryContext::sharded(&small, 4).threads(), 1);
        assert_eq!(SummaryContext::new(&big).threads(), 1);
        assert_eq!(SummaryContext::sharded_forced(&small, 3).threads(), 3);
    }

    /// The row-range clique sweep equals the sequential sweep exactly —
    /// clique numbering included — for every worker count and both scopes.
    #[test]
    fn forced_thread_cliques_match_sequential() {
        let g = sample_graph();
        let ctx = SummaryContext::new(&g);
        for scope in [CliqueScope::AllNodes, CliqueScope::UntypedOnly] {
            let seq = ctx.cliques(scope);
            for threads in [2, 3, 5, 16] {
                let sharded = SummaryContext::sharded_forced(&g, threads);
                let par = sharded.cliques(scope);
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
    }
}
