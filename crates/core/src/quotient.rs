//! Generic quotient-graph construction — Definitions 4 and 9 of the paper.
//!
//! Given a graph `G` and a partition of its data nodes, the summary is the
//! RDF graph with:
//!
//! * **SCH** — the same schema triples as `G` (copied verbatim);
//! * **TYP+DAT** — one node per partition class, an edge
//!   `n_{S1} --p--> n_{S2}` iff some `n1 ∈ S1`, `n2 ∈ S2` with
//!   `n1 --p--> n2 ∈ G`, and a τ edge `n_S --τ--> c` iff some member of `S`
//!   has type `c`. Class nodes and property URIs keep their identity.
//!
//! The summary graph gets its own dictionary; the `class_term` callback is
//! the *minted-key provider*: it returns the [`Term`] naming each
//! partition class (the paper's representation functions `N` / `C`). The
//! production builders hand back symbolic [`Term::Minted`] keys (see
//! [`crate::naming`]), so no URI string is allocated or hashed anywhere in
//! this construction; tests and ad-hoc callers may return plain
//! [`Term::Iri`]s.
//!
//! H is emitted one way at every size: the schema copied verbatim, then
//! each data and type row quotiented to an H triple, packed into an
//! integer that sorts in (s, p, o) order, sorted, deduplicated and
//! appended. The key is a `u64` while every H id fits 21 bits and a
//! `u128` past that; the sort proves H a set, so H builds no hash set, and
//! its triples — every byte written from them — do not depend on the size
//! of G's dictionary.
//!
//! A summary the service builds keeps a `QuotientMap` beside it: the
//! class key → H node tables of its partition, one extent count and the
//! first member per H node. A batch that provably changes neither the
//! classes nor the triples they span carries the map — only extent counts
//! move — instead of rebuilding the summary: an insert extends it
//! (`QuotientMap::extend`), a delete retracts from it
//! (`QuotientMap::retract`).

use crate::cliques::CliqueScope;
use crate::context::{Delta, NodeKeys, Stamp, Substrate};
use crate::equivalence::Partition;
use crate::summary::{Summary, SummaryKind};
use rdf_model::{Component, FxHashMap, Graph, Term, TermId, Triple, NO_DENSE_ID};
use rdf_store::TripleStore;

/// Builds the quotient summary of `g` under `partition`.
///
/// `partition` must cover every data node of `g` (subjects/objects of D_G
/// and subjects of T_G); `class_term(i, members)` must return a distinct
/// term per class `i`.
///
/// The hot translation loops do `Vec`-indexed reads only: the node → class
/// map is the partition's dense array, and the cross-dictionary constant
/// cache is a flat table keyed by the G dictionary id. Constants transfer
/// between dictionaries as views ([`rdf_model::Dictionary::encode_ref`] of a
/// decode): one copy from arena to arena, no owned term in between.
///
/// # Panics
/// Panics when the partition misses a data node.
pub fn quotient_summary(
    g: &Graph,
    kind: SummaryKind,
    partition: &Partition,
    class_term: impl FnMut(usize, &[TermId]) -> Term,
) -> Summary {
    quotient_summary_planned(g, kind, partition, class_term, DataPlan::Scan)
}

/// How the quotient's data component is derived.
pub(crate) enum DataPlan<'a> {
    /// Scan every data triple of `G` and dedup the quotiented copies —
    /// the generic path.
    Scan,
    /// The data edges are already known per class pair: emit exactly
    /// `(class, G property, class)` once each. The weak summary uses this
    /// (Proposition 4: all sources of a property are weakly equivalent,
    /// and so are all its targets, so `W_G` has exactly one edge per
    /// distinct property — derivable from the cliques without touching
    /// the `O(|D_G|)` triples again).
    Edges(&'a [(u32, TermId, u32)]),
}

/// The H id of the G constant `id` (a property, class URI or schema term —
/// terms that keep their identity), through the term-indexed cache `xfer`.
fn transfer(id: TermId, g: &Graph, h: &mut Graph, xfer: &mut [u32]) -> TermId {
    let slot = xfer[id.index()];
    if slot != NO_DENSE_ID {
        return TermId(slot);
    }
    let hid = h.dict_mut().encode_ref(g.dict().decode(id));
    xfer[id.index()] = hid.0;
    hid
}

/// An H triple packed into one integer whose order is the triple's
/// (s, p, o) order: its three ids side by side, `BITS` bits each.
trait PackedTriple: Copy + Ord {
    const BITS: u32;
    fn pack(t: Triple) -> Self;
    fn unpack(self) -> Triple;
}

macro_rules! packed_triple {
    ($int:ty, $bits:expr) => {
        impl PackedTriple for $int {
            const BITS: u32 = $bits;
            fn pack(t: Triple) -> Self {
                let id = |id: TermId| <$int>::from(id.0);
                (id(t.s) << (2 * $bits)) | (id(t.p) << $bits) | id(t.o)
            }
            fn unpack(self) -> Triple {
                let id = |shift: u32| TermId(((self >> shift) & ((1 << $bits) - 1)) as u32);
                Triple::new(id(2 * $bits), id($bits), id(0))
            }
        }
    };
}
packed_triple!(u64, 21);
packed_triple!(u128, 32);

/// Appends the distinct triples of `rows` to `h` in (s, p, o) order.
///
/// The keys are collected at `|rows|` and deduplicated in place; the run
/// is shrunk to its distinct keys, since it lives on while `h` grows by
/// them.
fn append_sorted<K: PackedTriple>(h: &mut Graph, mut keys: Vec<K>) {
    keys.sort_unstable();
    keys.dedup();
    keys.shrink_to_fit();
    h.append_distinct(keys.into_iter().map(K::unpack));
}

/// [`quotient_summary`] with an emission plan for the data component.
pub(crate) fn quotient_summary_planned(
    g: &Graph,
    kind: SummaryKind,
    partition: &Partition,
    mut class_term: impl FnMut(usize, &[TermId]) -> Term,
    data_plan: DataPlan<'_>,
) -> Summary {
    let mut h = Graph::new();

    // H node per partition class.
    let mut class_node: Vec<TermId> = Vec::with_capacity(partition.classes.len());
    for (i, members) in partition.classes.iter().enumerate() {
        class_node.push(h.dict_mut().encode(class_term(i, members)));
    }
    // Minted-key seam: naming + interning the class nodes must stay fully
    // symbolic — rendering here would put a String allocation back on the
    // per-class hot path.
    #[cfg(debug_assertions)]
    for &cn in &class_node {
        if let rdf_model::TermRef::Minted(m) = h.dict().decode(cn) {
            debug_assert!(
                !m.is_rendered(),
                "minted class node rendered its URI during quotient construction"
            );
        }
    }

    // Cross-dictionary cache for constants that keep their identity
    // (properties, class URIs, schema terms): term-indexed, dense.
    let mut xfer: Vec<u32> = vec![NO_DENSE_ID; g.dict().len()];

    // SCH: schema copied verbatim — distinct in G, and `transfer` is
    // injective, so distinct in H.
    for t in g.schema() {
        let s = transfer(t.s, g, &mut h, &mut xfer);
        let p = transfer(t.p, g, &mut h, &mut xfer);
        let o = transfer(t.o, g, &mut h, &mut xfer);
        h.append_distinct([Triple::new(s, p, o)]);
    }
    // Every H id stays below `class_node.len() + g.dict().len() + 8` —
    // minted class-node ids are the first `class_node.len()` H ids,
    // transferred G constants (at most one H id per G term) and the
    // well-known properties account for the rest — so while that fits 21
    // bits a whole H triple packs into a u64, and past it into a u128.
    let emit = if class_node.len() + g.dict().len() + 8 < 1 << <u64 as PackedTriple>::BITS {
        emit_data_and_types::<u64>
    } else {
        emit_data_and_types::<u128>
    };
    emit(g, &mut h, &mut xfer, partition, &class_node, data_plan);

    Summary::from_quotient(kind, h, partition, &class_node, g.dict().len())
}

/// DAT and TYP of the quotient: every data and type row of `g`, or the
/// known data edges of `data_plan`, quotiented to an H triple and packed
/// into a `K`, then sorted, deduplicated and appended to `h`.
fn emit_data_and_types<K: PackedTriple>(
    g: &Graph,
    h: &mut Graph,
    xfer: &mut [u32],
    partition: &Partition,
    class_node: &[TermId],
    data_plan: DataPlan<'_>,
) {
    // rd: G data node → H node, via the partition's dense class array.
    let map = |id: TermId| -> TermId {
        let c = partition
            .class_of(id)
            .expect("partition must cover every data node");
        class_node[c]
    };
    let node = |c: u32| class_node[c as usize];
    let data: Vec<K> = match data_plan {
        // One known edge per class pair and property: no per-triple work.
        DataPlan::Edges(edges) => edges
            .iter()
            .map(|&(s, p, o)| K::pack(Triple::new(node(s), transfer(p, g, h, xfer), node(o))))
            .collect(),
        DataPlan::Scan => g
            .data()
            .iter()
            .map(|t| K::pack(Triple::new(map(t.s), transfer(t.p, g, h, xfer), map(t.o))))
            .collect(),
    };
    append_sorted(h, data);
    // TYP: classes keep their URIs.
    let tau = h.rdf_type();
    let types: Vec<K> = g
        .types()
        .iter()
        .map(|t| K::pack(Triple::new(map(t.s), tau, transfer(t.o, g, h, xfer))))
        .collect();
    append_sorted(h, types);
}

/// How a node finds its class in a [`QuotientMap`]: by the keys its
/// partition grouped it by, read off the substrate ([`NodeKeys`]). Built
/// with class indices, kept with H node ids; [`NO_DENSE_ID`] where no
/// class is.
#[derive(Clone, Debug)]
pub(crate) enum ClassKeys {
    /// A weak partition: per dense property, the class of the nodes whose
    /// source (`by_src`) or target (`by_tgt`) clique holds it, and the
    /// class of the nodes with no clique on either side (`none`). A node
    /// whose two sides name two classes would join them.
    Weak {
        by_src: Vec<u32>,
        by_tgt: Vec<u32>,
        none: u32,
    },
    /// A strong partition: per dense property its source and target
    /// clique, and per clique pair the class of the nodes that have it
    /// ([`NO_DENSE_ID`] for an empty side).
    Strong {
        src_clique: Vec<u32>,
        tgt_clique: Vec<u32>,
        by_pair: FxHashMap<(u32, u32), u32>,
    },
    /// T_G's untyped nodes: each is a class of its own, which no other
    /// node ever joins, so none is kept.
    Own,
}

impl ClassKeys {
    /// The same keys with every class `c` replaced by `to(c)`.
    fn map_classes(self, to: impl Fn(u32) -> u32) -> Self {
        match self {
            ClassKeys::Weak {
                by_src,
                by_tgt,
                none,
            } => ClassKeys::Weak {
                by_src: by_src.into_iter().map(&to).collect(),
                by_tgt: by_tgt.into_iter().map(&to).collect(),
                none: to(none),
            },
            ClassKeys::Strong {
                src_clique,
                tgt_clique,
                by_pair,
            } => ClassKeys::Strong {
                src_clique,
                tgt_clique,
                by_pair: by_pair.into_iter().map(|(k, c)| (k, to(c))).collect(),
            },
            ClassKeys::Own => ClassKeys::Own,
        }
    }

    /// The class of a node with `keys`, if the partition has one for it.
    fn class_of(&self, keys: NodeKeys) -> Option<u32> {
        // What a property table says of the side a node has (`None` for a
        // property past the table: one the partition never saw).
        let read = |table: &[u32], p: u32| table.get(p as usize).copied();
        let class = match self {
            ClassKeys::Weak {
                by_src,
                by_tgt,
                none,
            } => {
                let out = keys.first_out.map(|p| read(by_src, p));
                let inn = keys.first_in.map(|p| read(by_tgt, p));
                match (out, inn) {
                    (None, None) => *none,
                    (Some(c), None) | (None, Some(c)) => c?,
                    // Two classes here would be joined by the node.
                    (Some(a), Some(b)) => (a? == b?).then_some(a?)?,
                }
            }
            ClassKeys::Strong {
                src_clique,
                tgt_clique,
                by_pair,
            } => {
                let clique = |table: &[u32], p: Option<u32>| match p {
                    Some(p) => read(table, p),
                    None => Some(NO_DENSE_ID),
                };
                let pair = (
                    clique(src_clique, keys.first_out)?,
                    clique(tgt_clique, keys.first_in)?,
                );
                *by_pair.get(&pair)?
            }
            ClassKeys::Own => return None,
        };
        (class != NO_DENSE_ID).then_some(class)
    }
}

/// Why an `UPDATE`'s carry rebuilt a kind instead of carrying its map
/// ([`QuotientMap::extend`], [`QuotientMap::retract`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// The kept substrate could not carry the batch (a delete it could not
    /// retract, a late type), or the batch changed another substrate — or
    /// another state of it — than the map was read from.
    Stale,
    /// The batch changes the partition or the summary: a new property,
    /// joined cliques or classes, a new class or quotient triple, a schema
    /// row; a class emptied or lost its first member, a weak class lost
    /// the node that joined it, a quotient triple lost its last witness.
    Structural,
    /// The artifact keeps no map: it was read from the persist dir, or it
    /// is no clique or type quotient (`fb`).
    NoMap,
}

/// What a built summary keeps of the partition it quotients by, so that
/// an `UPDATE` can offer it a batch instead of rebuilding it: the class
/// key → H node tables the partition computed ([`ClassKeys`], and class
/// set → H node for the kinds that group typed nodes by class set), one
/// extent count and the first member per H node, and the [`Stamp`] of the
/// substrate the keys were read from.
///
/// A quotient is fixed by its classes and the triples they span
/// (Definitions 4 and 9). [`QuotientMap::extend`] and
/// [`QuotientMap::retract`] accept a batch only when it provably changes
/// neither, so the summary graph — and every byte written from it — is
/// the one a rebuild would produce, and only the extent counts move.
#[derive(Clone, Debug)]
pub(crate) struct QuotientMap {
    stamp: Stamp,
    /// The clique scope the keys were read under; `None` for T_G, whose
    /// partition reads no clique.
    scope: Option<CliqueScope>,
    keys: ClassKeys,
    /// Class-set id → H node, for the kinds that group typed nodes by
    /// class set (`None`: W and S key typed nodes by their cliques).
    by_set: Option<Vec<u32>>,
    /// H id → the G nodes the node represents (0 for constants).
    extent: Vec<u32>,
    /// H id → the term id of the class's first member, whose place in the
    /// numbering orders the H nodes ([`NO_DENSE_ID`] for constants).
    first: Vec<u32>,
}

impl QuotientMap {
    /// The map of `summary`, the quotient by `partition` of a graph that
    /// `substrate` covers; `keys` and `by_set` index the partition's
    /// classes.
    pub(crate) fn new(
        substrate: &Substrate,
        scope: Option<CliqueScope>,
        keys: ClassKeys,
        by_set: Option<Vec<u32>>,
        partition: &Partition,
        summary: &Summary,
    ) -> Self {
        let node: Vec<u32> = partition
            .classes
            .iter()
            .map(|members| {
                let h = summary.representative(members[0]);
                h.expect("a class member is represented").0
            })
            .collect();
        let to_node = |c: u32| match c {
            NO_DENSE_ID => NO_DENSE_ID,
            c => node[c as usize],
        };
        let extent = summary.extent_sizes();
        let mut first = vec![NO_DENSE_ID; extent.len()];
        for (&h, members) in node.iter().zip(&partition.classes) {
            first[h as usize] = members[0].0;
        }
        QuotientMap {
            stamp: substrate.stamp(),
            scope,
            keys: keys.map_classes(to_node),
            by_set: by_set.map(|table| table.into_iter().map(to_node).collect()),
            extent,
            first,
        }
    }

    /// Represented G nodes per H id — the figures
    /// [`crate::cardinality::SummaryCardinality`] weighs summary nodes by.
    pub(crate) fn extents(&self) -> &[u32] {
        &self.extent
    }

    /// The class of a node, if the partition has one for it.
    fn class_of(&self, keys: NodeKeys) -> Option<u32> {
        match (&self.by_set, keys.set) {
            (Some(by_set), Some(set)) => {
                let class = *by_set.get(set as usize)?;
                (class != NO_DENSE_ID).then_some(class)
            }
            _ => self.keys.class_of(keys),
        }
    }

    /// The map of the summary after an insert batch — `rows`, the triples
    /// it applied to `g`, which `substrate` absorbed as `delta` — when the
    /// summary `h` stays what it is: only extent counts move. Refuses
    /// ([`Refusal`]) when the delta is not from the substrate state the
    /// map was read from, or when the batch could change the summary:
    ///
    /// * it numbered a property, joined two cliques of the map's scope, or
    ///   gave a node numbered before its first property on a side (its
    ///   class key moves);
    /// * a new node has no class of the partition (for a weak one: its two
    ///   sides name two classes, which it would join);
    /// * a row is a schema row, or quotients onto a triple `h` lacks.
    ///
    /// New nodes are numbered after the old ones of their part — data
    /// nodes, then typed-only resources — so no class's first member, and
    /// no class's position, moves. The one exception needs no check of its
    /// own: a new data node joining a class whose members are all
    /// typed-only (numbered last) would displace its first member, but
    /// such a class spans no data edge, so the row that made the node a
    /// data node quotients onto a triple `h` lacks.
    pub(crate) fn extend(
        &self,
        substrate: &Substrate,
        delta: &Delta,
        rows: &[Triple],
        g: &Graph,
        h: &TripleStore,
    ) -> Result<QuotientMap, Refusal> {
        if delta.from() != self.stamp {
            return Err(Refusal::Stale);
        }
        if delta.added_property()
            || delta.gave_first_property()
            || self.scope.is_some_and(|scope| delta.merged(scope))
        {
            return Err(Refusal::Structural);
        }
        let class = |n: TermId| {
            self.class_of(substrate.keys_of(n))
                .ok_or(Refusal::Structural)
        };
        let mut next = self.clone();
        next.stamp = substrate.stamp();
        let typed_only = delta
            .typed(substrate)
            .iter()
            .filter(|&&n| !substrate.is_data_node(n));
        for &n in delta.data_nodes(substrate).iter().chain(typed_only) {
            next.extent[class(n)? as usize] += 1;
        }
        let h_graph = h.graph();
        let h_id = |id: TermId| {
            h_graph
                .dict()
                .lookup_ref(g.dict().decode(id))
                .ok_or(Refusal::Structural)
        };
        for &t in rows {
            let quotient = match g.component_of(t) {
                Component::Data => {
                    Triple::new(TermId(class(t.s)?), h_id(t.p)?, TermId(class(t.o)?))
                }
                Component::Type => Triple::new(TermId(class(t.s)?), h_graph.rdf_type(), h_id(t.o)?),
                Component::Schema => return Err(Refusal::Structural),
            };
            if !h.contains(quotient) {
                return Err(Refusal::Structural);
            }
        }
        Ok(next)
    }

    /// The map of the summary after a delete batch — `rows`, the triples
    /// it removed from `store`'s graph, which `substrate` retracted as
    /// `delta` — when the summary stays what it is: only the extents of
    /// the classes the vanished nodes leave move. Refuses ([`Refusal`])
    /// when the delta is not from the substrate state the map was read
    /// from, or when the batch could change the summary:
    ///
    /// * a vanished node has no class of the map's keys (T_G's untyped
    ///   nodes, each a class of its own, keep none);
    /// * a class loses its first member (H node order and names follow the
    ///   first members) — which a class that empties does too;
    /// * in a weak partition, a vanished node that joined a source clique
    ///   to a target clique leaves that join without another node;
    /// * a removed row is a schema row, or its quotient triple — `(class(s),
    ///   p, class(o))` or `(class(s), τ, c)` — has no witness left among
    ///   the rows of `p` (of `(τ, c)`).
    ///
    /// The substrate has already refused any retract that changes a
    /// clique, a class set or a first-seen number; with every class keeping
    /// its first member, no class and no H node moves.
    pub(crate) fn retract(
        &self,
        substrate: &Substrate,
        delta: &Delta,
        rows: &[Triple],
        store: &TripleStore,
    ) -> Result<QuotientMap, Refusal> {
        if delta.from() != self.stamp {
            return Err(Refusal::Stale);
        }
        let mut next = self.clone();
        next.stamp = substrate.stamp();
        for &(n, keys) in delta.gone() {
            let c = self.class_of(keys).ok_or(Refusal::Structural)? as usize;
            if self.first[c] == n.0 || !self.keeps_join(substrate, store, keys) {
                return Err(Refusal::Structural);
            }
            next.extent[c] -= 1;
        }
        let g = store.graph();
        let class = |n: TermId| {
            let keys = delta.keys_before(n).unwrap_or_else(|| substrate.keys_of(n));
            self.class_of(keys).ok_or(Refusal::Structural)
        };
        let of_survivor = |n: TermId| self.class_of(substrate.keys_of(n));
        for &t in rows {
            let witnessed = match g.component_of(t) {
                Component::Data => {
                    let (s, o) = (Some(class(t.s)?), Some(class(t.o)?));
                    let own = store.spo().range2(t.s.0, t.p.0);
                    let shared = store.pos().range2(t.p.0, t.o.0);
                    own.iter()
                        .chain(shared)
                        .chain(store.pos().range1(t.p.0))
                        .any(|w| of_survivor(w.s) == s && of_survivor(w.o) == o)
                }
                Component::Type => {
                    let s = Some(class(t.s)?);
                    let typed = store.pos().range2(g.rdf_type().0, t.o.0);
                    typed.iter().any(|w| of_survivor(w.s) == s)
                }
                Component::Schema => false,
            };
            if !witnessed {
                return Err(Refusal::Structural);
            }
        }
        Ok(next)
    }

    /// Does a weak partition keep the join a vanished node with `keys`
    /// made between its source and its target clique — or did the node
    /// make none (it had one side, or its class is its class set's)?
    fn keeps_join(&self, substrate: &Substrate, store: &TripleStore, keys: NodeKeys) -> bool {
        let (ClassKeys::Weak { .. }, Some(scope)) = (&self.keys, self.scope) else {
            return true;
        };
        if self.by_set.is_some() && keys.set.is_some() {
            return true;
        }
        match (keys.first_out, keys.first_in) {
            (Some(out), Some(inn)) => substrate.joins(store, scope, out, inn),
            _ => true,
        }
    }
}

/// Checks the defining property of a quotient (Definition 4): `H` has an
/// edge `nS1 --a--> nS2` iff `G` has an edge `n1 --a--> n2` with
/// `ni ∈ Si`. The "if" direction is guaranteed by construction; this
/// verifies "only if" — every summary edge has at least one witness pair —
/// plus full coverage of `G`'s data/type triples. Used by tests and
/// property checks.
///
/// Node lookups go through the summary's dense `rd` array, and the
/// G-constant → H-id resolution is memoized in a term-indexed table, so
/// the witness sweep costs one `decode`/`lookup` per *distinct* property
/// or class rather than one per triple.
pub fn verify_quotient(g: &Graph, summary: &Summary) -> bool {
    let h = &summary.graph;
    // Memoized G term → H id for identity-preserving constants.
    let mut h_of: Vec<u32> = vec![NO_DENSE_ID; g.dict().len()];
    let mut resolve = |id: TermId| -> Option<TermId> {
        let slot = h_of[id.index()];
        if slot != NO_DENSE_ID {
            return Some(TermId(slot));
        }
        let hid = h.dict().lookup_ref(g.dict().decode(id))?;
        h_of[id.index()] = hid.0;
        Some(hid)
    };
    // Every G data/type triple is represented in H.
    let tau = h.rdf_type();
    for t in g.data() {
        let (Some(s), Some(o)) = (summary.representative(t.s), summary.representative(t.o)) else {
            return false;
        };
        let Some(p) = resolve(t.p) else {
            return false;
        };
        if !h.contains(Triple::new(s, p, o)) {
            return false;
        }
    }
    for t in g.types() {
        let Some(s) = summary.representative(t.s) else {
            return false;
        };
        let Some(c) = resolve(t.o) else {
            return false;
        };
        if !h.contains(Triple::new(s, tau, c)) {
            return false;
        }
    }
    // Every H data edge has a witness in G.
    let mut g_edges: rdf_model::FxHashSet<(TermId, TermId, TermId)> = Default::default();
    for t in g.data() {
        let s = summary.representative(t.s).unwrap();
        let o = summary.representative(t.o).unwrap();
        let p = resolve(t.p).unwrap();
        g_edges.insert((s, p, o));
    }
    let data_ok = h.data().iter().all(|t| g_edges.contains(&(t.s, t.p, t.o)));
    let mut g_types: rdf_model::FxHashSet<(TermId, TermId)> = Default::default();
    for t in g.types() {
        let s = summary.representative(t.s).unwrap();
        let c = resolve(t.o).unwrap();
        g_types.insert((s, c));
    }
    let type_ok = h.types().iter().all(|t| g_types.contains(&(t.s, t.o)));
    // Schema copied verbatim (as terms).
    let schema_ok = g.schema().len() == h.schema().len()
        && g.schema().iter().all(|t| {
            let (Some(s), Some(p), Some(o)) = (
                h.dict().lookup_ref(g.dict().decode(t.s)),
                h.dict().lookup_ref(g.dict().decode(t.p)),
                h.dict().lookup_ref(g.dict().decode(t.o)),
            ) else {
                return false;
            };
            h.contains(Triple::new(s, p, o))
        });
    data_ok && type_ok && schema_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SummaryContext;
    use crate::equivalence::{data_nodes_ordered, Partition};
    use crate::fixtures::sample_graph;

    /// The identity partition gives a summary isomorphic to G itself.
    #[test]
    fn identity_partition_roundtrip() {
        let g = sample_graph();
        let nodes = data_nodes_ordered(&g);
        let p = Partition::group_by(&nodes, |n| n);
        let s = quotient_summary(&g, SummaryKind::Weak, &p, |i, _| {
            Term::iri(format!("urn:q:{i}"))
        });
        assert_eq!(s.graph.data().len(), g.data().len());
        assert_eq!(s.graph.types().len(), g.types().len());
        assert!(verify_quotient(&g, &s));
        assert!(s.check_correspondence_invariants());
    }

    /// Collapsing everything to one node keeps one edge per (p, τ-class).
    #[test]
    fn total_collapse() {
        let g = sample_graph();
        let nodes = data_nodes_ordered(&g);
        let p = Partition::group_by(&nodes, |_| 0u8);
        let s = quotient_summary(&g, SummaryKind::Weak, &p, |_, _| Term::iri("urn:q:all"));
        // One node; self-loops for the 6 distinct properties.
        assert_eq!(s.graph.data().len(), 6);
        // 3 distinct classes → 3 τ edges.
        assert_eq!(s.graph.types().len(), 3);
        assert!(verify_quotient(&g, &s));
    }

    #[test]
    fn schema_is_copied() {
        let g = crate::fixtures::figure5_graph();
        let nodes = data_nodes_ordered(&g);
        let p = Partition::group_by(&nodes, |n| n);
        let s = quotient_summary(&g, SummaryKind::Weak, &p, |i, _| {
            Term::iri(format!("urn:q:{i}"))
        });
        assert_eq!(s.graph.schema().len(), 2);
        assert!(verify_quotient(&g, &s));
    }

    #[test]
    fn verify_quotient_detects_missing_edges() {
        let g = sample_graph();
        let nodes = data_nodes_ordered(&g);
        let p = Partition::group_by(&nodes, |n| n);
        let mut s = quotient_summary(&g, SummaryKind::Weak, &p, |i, _| {
            Term::iri(format!("urn:q:{i}"))
        });
        // Sabotage: add an unjustified edge to H.
        let a = s.graph.dict_mut().encode(Term::iri("urn:q:0"));
        let b = s.graph.dict_mut().encode(Term::iri("urn:fake:prop"));
        s.graph.insert_encoded(Triple::new(a, b, a));
        assert!(!verify_quotient(&g, &s));
    }

    /// `g` with `1 << 21` unused terms appended to its dictionary: every
    /// term keeps its id, and a quotient of it packs its triples into the
    /// wide key.
    fn padded(mut g: Graph) -> Graph {
        for i in 0..1 << 21 {
            g.dict_mut().encode(Term::iri(format!("urn:pad:{i}")));
        }
        g
    }

    /// A dictionary pushed past the 21-bit bound of the narrow key changes
    /// no byte of a quotient: the generic operator, and the five clique
    /// and type kinds of a context, write exactly the bytes they write
    /// for the unpadded graph, on the paper's sample graph and on BSBM —
    /// and H is proved a set by its sort, never by a hash set. (The name
    /// is the one this check has always run under; there is no fallback.)
    #[test]
    fn id_bound_overflow_takes_hash_fallback() {
        let by_residue = |g: &Graph| {
            let p = Partition::group_by(&data_nodes_ordered(g), |n| n.0 % 4);
            quotient_summary(g, SummaryKind::Weak, &p, |i, _| {
                Term::iri(format!("urn:q:{i}"))
            })
        };
        // The bytes of `wide`, a quotient of `big`, once it is checked to
        // hold no hash set — which `verify_quotient`'s probes then build.
        let bytes = |big: &Graph, wide: &Summary, what: &str| {
            assert!(!wide.graph.has_hash_set(), "{what}");
            assert!(verify_quotient(big, wide), "{what}");
            rdf_io::write_graph(&wide.graph)
        };
        let bsbm =
            rdfsum_workloads::generate_bsbm(&rdfsum_workloads::BsbmConfig::with_products(12));
        for small in [sample_graph(), bsbm] {
            let big = padded(small.clone());
            let wide = by_residue(&big);
            let narrow = by_residue(&small);
            assert!(!narrow.graph.has_hash_set());
            assert_eq!(
                rdf_io::write_graph(&narrow.graph),
                bytes(&big, &wide, "by_residue")
            );
            let (narrow, wide) = (SummaryContext::new(&small), SummaryContext::new(&big));
            for &kind in &SummaryKind::EVERY[..5] {
                let narrow = narrow.summarize(kind);
                assert!(!narrow.graph.has_hash_set(), "{kind}");
                assert_eq!(
                    rdf_io::write_graph(&narrow.graph),
                    bytes(&big, &wide.summarize(kind), &kind.to_string()),
                    "{kind}"
                );
            }
        }
    }

    /// A quotient map built below the narrow key's bound carries an
    /// insert batch absorbed after the dictionary has grown past it: the
    /// emission does not depend on the dictionary's size, so neither does
    /// the carry. The batch is a BSBM offer shaped like the benchmark
    /// writer's, which the four clique kinds carry (T refuses it: the
    /// offer's literals are untyped, each a class of its own); every kind
    /// answers as it does on the unpadded graph, and every carried body is
    /// a cold rebuild's.
    #[test]
    fn maps_carry_across_the_id_bound() {
        use crate::context::Substrate;
        use rdf_model::vocab::{RDF_TYPE, XSD_DATE, XSD_DECIMAL, XSD_INTEGER};
        use rdf_store::TripleStore;
        use rdfsum_workloads::bsbm::{BSBM_NS, INST_NS};
        let v = |local: &str| Term::iri(format!("{BSBM_NS}{local}"));
        let offer = Term::iri(format!("{INST_NS}Offer10000000"));
        let batch: Vec<(Term, Term, Term)> = [
            (Term::iri(RDF_TYPE), v("Offer")),
            (v("product"), Term::iri(format!("{INST_NS}Product7"))),
            (v("vendor"), Term::iri(format!("{INST_NS}Vendor0"))),
            (v("price"), Term::typed_literal("17.05", XSD_DECIMAL)),
            (v("validFrom"), Term::typed_literal("2015-01-03", XSD_DATE)),
            (v("validTo"), Term::typed_literal("2015-06-03", XSD_DATE)),
            (v("deliveryDays"), Term::typed_literal("8", XSD_INTEGER)),
            (
                v("offerWebpage"),
                Term::literal("http://vendor.example.org/o"),
            ),
        ]
        .into_iter()
        .map(|(p, o)| (offer.clone(), p, o))
        .collect();
        let g = rdfsum_workloads::generate_bsbm(&rdfsum_workloads::BsbmConfig::with_products(12));
        let carried = |pad: bool| {
            let kept = Substrate::scan(&g);
            let built: Vec<_> = SummaryKind::EVERY[..5]
                .iter()
                .map(|&kind| {
                    let (summary, map) = SummaryContext::over(&g, &kept).summarize_mapped(kind);
                    (
                        kind,
                        TripleStore::new(summary.graph),
                        map.expect("a quotient map"),
                    )
                })
                .collect();
            let mut kept = kept;
            let grown = if pad { padded(g.clone()) } else { g.clone() };
            let mut store = TripleStore::new(grown);
            let applied = store.insert_batch(&batch).unwrap().applied;
            let delta = kept.absorb(store.graph()).expect("an offer absorbs");
            let cold = SummaryContext::new(store.graph());
            built
                .iter()
                .map(|(kind, h, map)| {
                    let next = map.extend(&kept, &delta, &applied, store.graph(), h);
                    if let Ok(next) = &next {
                        let summary = cold.summarize(*kind);
                        assert_eq!(
                            rdf_io::write_graph(h.graph()),
                            rdf_io::write_graph(&summary.graph),
                            "{kind}"
                        );
                        assert_eq!(next.extents(), summary.extent_sizes(), "{kind}");
                    }
                    (*kind, next.map(|_| ()))
                })
                .collect::<Vec<_>>()
        };
        let wide = carried(true);
        for (kind, carried) in &wide {
            let clique_kind = *kind != SummaryKind::TypeBased;
            assert_eq!(carried.is_ok(), clique_kind, "{kind}: {wide:?}");
        }
        assert_eq!(wide, carried(false));
    }
}
