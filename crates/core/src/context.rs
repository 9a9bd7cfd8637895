//! The shared summarization substrate: [`Substrate`], and the per-build
//! view over it, [`SummaryContext`].
//!
//! The paper's Algorithms 1–3 derive all five summaries (W, S, TW, TS, T)
//! from the *same* property-clique structure, and §6.2 builds that
//! structure the resumable way — "merging data nodes that are attached to
//! common properties gradually builds property cliques": one union–find
//! step per triple. A [`Substrate`] is that sweep's product and nothing
//! else:
//!
//! 1. **Numberings** — the data nodes of `G` (subjects/objects of D_G) and
//!    its data properties, each in first-seen order, plus the typed
//!    resources in first-seen order over T_G. The data-node order of
//!    [`crate::equivalence::data_nodes_ordered`] — data nodes, then the
//!    typed-only subjects — is the first list followed by the members of
//!    the third that never met a data triple.
//! 2. **First properties** — term-indexed: the dense id of the first
//!    property seen leaving (entering) each node. Every later property of
//!    the node is unioned with that one, so "first property + unions" is
//!    everything a clique computation reads; there is no adjacency.
//! 3. **Relatedness for both scopes** — source/target union–finds over the
//!    dense property numbering (Definition 5) under
//!    [`CliqueScope::AllNodes`] (weak/strong) *and*
//!    [`CliqueScope::UntypedOnly`] (typed summaries), fed by the same
//!    sweep: an untyped endpoint links in both, a typed one in the first
//!    only.
//! 4. **Class sets** — the canonical (sorted, deduplicated) class set of
//!    every typed resource, interned to dense set ids in first-seen order,
//!    shared by the typed/type-based builders.
//!
//! A [`SummaryContext`] borrows a graph and a substrate for it — one it
//! scanned itself, or one its caller keeps — derives the [`Cliques`] of a
//! scope on first use ([`Substrate::cliques`]: clones of the union–finds
//! and first-property tables, resolved to clique ids) and runs partition →
//! quotient. [`SummaryContext::summarize`] is the one way a summary is
//! built: [`crate::builder::summarize`] runs it over a throwaway context;
//! anything building two or more summaries of the same graph shares one —
//! that is what [`crate::builder::summarize_all`], the CLI `summarize
//! --all` path and the experiment binaries do — and the [`crate::service`]
//! keeps one substrate per resident graph for all its builds.
//!
//! # One resumable pass
//!
//! [`Substrate::absorb`] is the only loop there is. It resumes at the
//! tails of the graph's file-order tables: a cold build is an empty
//! substrate absorbing everything, an `UPDATE`'s insert batch absorbs the
//! rows [`rdf_model::Graph::append_distinct`] just added. **Absorbing a
//! tail equals scanning the concatenation**, for three reasons:
//!
//! * *First-seen numbering only appends.* The first-seen order over a
//!   table and its tail is the first-seen order over the table followed by
//!   whatever the tail shows first — so nodes, properties and typed
//!   resources keep the ids a single pass would have given them, and a
//!   node's first property, once set, is final.
//! * *Relatedness is a set of constraints.* Each data triple contributes
//!   "this property is related to its endpoint's first one"; a union–find
//!   holds the closure of the constraints whatever order they arrive in,
//!   and [`UnionFind::dense_components`] numbers cliques by their smallest
//!   member, not by union history.
//! * *Types come first.* A full scan marks every τ-subject typed before it
//!   reads D_G; an absorb marks the tail's τ-subjects typed before it
//!   reads the tail of D_G. The two agree unless a resource that an
//!   *earlier* data triple already linked as untyped is typed now.
//!
//! That last case, and its sibling — a resource whose class set is already
//! interned gains a class — are the shapes a prefix's answer does not
//! extend to. `absorb` refuses them with [`Stale`], the keeper drops the
//! value, and the next use scans from zero: nothing half-absorbed is ever
//! used, and the byte-identity suites compare every absorbed substrate
//! with a scanned one.
//!
//! # Retracting
//!
//! A delete batch runs the other way: [`Substrate::retract`] takes the
//! removed rows out of a substrate that covered the graph before them.
//! Union–find has no un-union, so a retract changes nothing a scan of the
//! shrunk graph would number, relate or intern differently, and refuses
//! ([`Stale`]) whatever could:
//!
//! * *First-seen numbering.* Every endpoint of a removed row either
//!   vanishes — no row of D_G names it and it is no τ-subject — or keeps
//!   the first row it had on each side; no property loses its first row.
//!   A vanished node leaves `nodes` / `typed`, survivors keep their
//!   relative order and their first properties. The first row of a side
//!   is the node's first property (already kept) and the row's other end,
//!   kept beside it; a property keeps the endpoints of its first row.
//! * *Relatedness.* Each removed row linked its property to its
//!   endpoints' first properties — in both scopes for an untyped endpoint,
//!   in the all-nodes one for a typed one. Every such link needs a
//!   surviving witness of the same union: a row of the same property whose
//!   endpoint on that side has the same first property, or a row of that
//!   first property whose endpoint's first is the removed row's property
//!   (and untyped, if the link was in the untyped scope). Witnesses are
//!   searched in the store's indices and the search stops at the first
//!   hit: the endpoint's own other rows of the property, then the
//!   property's rows, then the first property's. No count is kept. (A link
//!   whose pair has no witness left may still be implied by others; the
//!   retract refuses it all the same.)
//! * *Class sets.* A removed type row's subject must vanish, and it must
//!   not be the first member of its class set (set ids are numbered by
//!   first members, and a surviving first member keeps the set non-empty).
//!
//! A retract checks everything before it changes anything; the keeper
//! still takes the value out of its cell for the call and puts it back
//! only on `Ok`.
//!
//! # What an absorb or a retract reports
//!
//! An `Ok` absorb returns its [`Delta`]: the data nodes and typed
//! resources it numbered, whether it numbered a property, whether a link
//! joined two cliques of either scope, and whether a node numbered before
//! met its first property on a side; an `Ok` retract returns the data
//! nodes that vanished, with the keys they had. Both carry the stamp of the
//! state they changed (the scan's epoch and the steps taken since), and
//! both advance it. Every summary a view builds comes with a quotient map
//! of its partition (`crate::quotient::QuotientMap`), stamped with the
//! substrate it was read from; the service offers each cached artifact's
//! map the delta of a batch, and the map either carries the artifact — an
//! insert only added members to existing classes along existing edges, a
//! delete only took members that were not the first of their class and
//! left every summary triple a witness, so the summary is as it was — or
//! refuses, and the artifact is rebuilt from the substrate like any cache
//! miss. A delta from another substrate, or from another state of this
//! one, is always refused.
//!
//! The pass runs on the calling thread. It replaced a two-table-per-shard
//! scan, an absorb/remap fold, a stitched entry list, two CSR fills and a
//! CSR sweep per scope, and beat the two-shard build of that pipeline
//! 4.5× at 200 k and 400 k triples. So do the stages past it — partition,
//! the quotient's sort-dedup emission, the summary's extent table: split
//! across two workers they won no served workload, so a context carries
//! no worker count (both sizings are in CHANGES.md).

use crate::cliques::{CliqueScope, Cliques};
use crate::equivalence::{strong_partition, weak_classes, CliqueClasses, Partition};
use crate::naming::Namer;
use crate::quotient::{quotient_summary_planned, ClassKeys, DataPlan, QuotientMap};
use crate::summary::{Summary, SummaryKind};
use crate::unionfind::UnionFind;
use crate::weak::class_property_sets;
use rdf_model::{Component, DenseIdMap, FxHashMap, Graph, Term, TermId, Triple, NO_DENSE_ID};
use rdf_store::TripleStore;
use std::borrow::Cow;
use std::cell::OnceCell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// The canonical class sets of the typed resources, interned densely.
#[derive(Clone, Debug, Default)]
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

/// The refusal of [`Substrate::absorb`] or [`Substrate::retract`]: the
/// graph's tables are not an extension the absorbed prefix's answer
/// carries over to, or the rows a delete took are ones a substrate cannot
/// give back (a first-seen number, a first property, a link or a class set
/// would change). An absorb's substrate may be half-updated; either way
/// the keeper drops it, and [`Substrate::scan`] builds the current one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stale;

/// Which substrate, in which state: the scan that started it (an epoch no
/// other scan shares) and the absorbs and retracts applied since. A
/// quotient map built from a substrate keeps its stamp, and carries only a
/// [`Delta`] taken from that very state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Stamp {
    epoch: u64,
    step: u64,
}

/// What one `Ok` [`Substrate::absorb`] or [`Substrate::retract`] changed —
/// the report an artifact's quotient map is offered when an `UPDATE`
/// carries it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delta {
    /// The state the rows were absorbed into or retracted from.
    from: Stamp,
    /// The data nodes and typed resources the absorb numbered, as ranges
    /// of the substrate's first-seen lists.
    data_nodes: Range<usize>,
    typed: Range<usize>,
    added_property: bool,
    /// Did a link join two cliques of the all-nodes (untyped-only) scope?
    merged_all: bool,
    merged_untyped: bool,
    /// Did a node numbered before — a data node, or a typed-only resource
    /// — meet its first property on a side?
    gave_first: bool,
    /// The data nodes a retract removed, by term id, with the keys they
    /// had (an absorb removes none).
    gone: Vec<(TermId, NodeKeys)>,
}

impl Delta {
    /// The substrate state the rows were absorbed into or retracted from.
    pub(crate) fn from(&self) -> Stamp {
        self.from
    }

    /// The data nodes the retract removed, ascending, with their keys
    /// before it.
    pub(crate) fn gone(&self) -> &[(TermId, NodeKeys)] {
        &self.gone
    }

    /// The keys `node` had before the retract, if the retract removed it.
    pub(crate) fn keys_before(&self, node: TermId) -> Option<NodeKeys> {
        let i = self.gone.binary_search_by_key(&node, |&(n, _)| n).ok()?;
        Some(self.gone[i].1)
    }

    /// The data nodes first seen by this absorb, in numbering order.
    pub(crate) fn data_nodes<'s>(&self, substrate: &'s Substrate) -> &'s [TermId] {
        &substrate.nodes[self.data_nodes.clone()]
    }

    /// The resources typed by this absorb, in first-seen order.
    pub(crate) fn typed<'s>(&self, substrate: &'s Substrate) -> &'s [TermId] {
        &substrate.typed[self.typed.clone()]
    }

    /// Did the absorb number a new data property?
    pub(crate) fn added_property(&self) -> bool {
        self.added_property
    }

    /// Did the absorb join two cliques of `scope`?
    pub(crate) fn merged(&self, scope: CliqueScope) -> bool {
        match scope {
            CliqueScope::AllNodes => self.merged_all,
            CliqueScope::UntypedOnly => self.merged_untyped,
        }
    }

    /// Did a node numbered before the absorb gain its first outgoing or
    /// incoming property?
    pub(crate) fn gave_first_property(&self) -> bool {
        self.gave_first
    }
}

/// A node's keys in the substrate: the dense ids of its first outgoing and
/// incoming property, and its class set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct NodeKeys {
    pub(crate) first_out: Option<u32>,
    pub(crate) first_in: Option<u32>,
    pub(crate) set: Option<u32>,
}

/// The source and target union–finds of one [`CliqueScope`], over the
/// dense property numbering.
#[derive(Clone, Debug, Default)]
struct Relatedness {
    src: UnionFind,
    tgt: UnionFind,
}

/// Everything the five clique/type summaries of one graph share, as one
/// owned value that follows the graph through insert batches. See the
/// [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct Substrate {
    /// Tells this scan's substrate apart from every other one (see
    /// [`Stamp`]).
    epoch: u64,
    /// Absorbs and retracts applied since the scan started.
    step: u64,
    /// How much of `g.types()` / `g.data()` is covered.
    types_seen: usize,
    data_seen: usize,
    /// The subjects and objects of D_G, in first-seen order.
    nodes: Vec<TermId>,
    /// The subjects of T_G, in first-seen order.
    typed: Vec<TermId>,
    /// The data properties, numbered in first-seen order.
    props: DenseIdMap,
    /// Dense property id → the subject and object of its first row.
    prop_first: Vec<(TermId, TermId)>,
    /// Term-indexed: the dense id of the first property seen leaving
    /// (entering) the node, [`NO_DENSE_ID`] if none has.
    first_out: Vec<u32>,
    first_in: Vec<u32>,
    /// Term-indexed: the other end of that first row — its object
    /// (subject) — which with the property names the row.
    first_out_to: Vec<u32>,
    first_in_from: Vec<u32>,
    all: Relatedness,
    untyped: Relatedness,
    class_sets: ClassSets,
    /// Canonical class set → its id in `class_sets.sets`.
    set_ids: FxHashMap<Vec<TermId>, u32>,
    /// Class-set id → the first typed resource interned with it.
    set_first: Vec<TermId>,
}

impl Substrate {
    /// The substrate of `g`: an empty one that absorbed all of it, under
    /// an epoch of its own.
    pub fn scan(g: &Graph) -> Self {
        static EPOCHS: AtomicU64 = AtomicU64::new(1);
        let mut substrate = Substrate {
            epoch: EPOCHS.fetch_add(1, Ordering::Relaxed),
            ..Substrate::default()
        };
        substrate
            .absorb(g)
            .expect("an empty substrate has absorbed nothing a graph could contradict");
        substrate
    }

    /// This substrate and its state.
    pub(crate) fn stamp(&self) -> Stamp {
        Stamp {
            epoch: self.epoch,
            step: self.step,
        }
    }

    /// Does this substrate cover exactly as many rows as `g` holds? (True
    /// of what [`Substrate::scan`] returns and after every `Ok` absorb or
    /// retract, until the graph changes again.)
    pub fn covers(&self, g: &Graph) -> bool {
        (self.types_seen, self.data_seen) == (g.types().len(), g.data().len())
    }

    /// Absorbs the rows `g` has gained since the last absorb — the tails of
    /// its type and data tables past `(types_seen, data_seen)` — leaving
    /// the substrate a scan of all of `g` would build, and reports what
    /// changed ([`Delta`]): the nodes and typed resources it numbered,
    /// whether it numbered a property, joined two cliques of a scope, or
    /// gave a node numbered before its first property on a side. Or it
    /// reports that the rows cannot be absorbed:
    ///
    /// * a table is shorter than what was absorbed (rows were deleted);
    /// * a resource that an absorbed data triple linked as *untyped* is
    ///   typed now (the untyped scope's relatedness would have to forget
    ///   its links);
    /// * a resource whose class set is interned gains a class (its set,
    ///   and possibly the numbering of every later set, changes).
    ///
    /// `g` must be the graph of the earlier absorbs, grown or shrunk in
    /// place — which is what the service's resident graphs are.
    pub fn absorb(&mut self, g: &Graph) -> Result<Delta, Stale> {
        let (types, data) = (g.types(), g.data());
        if self.types_seen > types.len() || self.data_seen > data.len() {
            return Err(Stale);
        }
        let from = self.stamp();
        let (nodes_before, typed_before) = (self.nodes.len(), self.typed.len());
        let props_before = self.props.items().len();
        let cliques = |r: &Relatedness| r.src.component_count() + r.tgt.component_count();
        let cliques_before = (cliques(&self.all), cliques(&self.untyped));
        // The slot tables keep pace with the dictionary.
        let n_terms = g.dict().len();
        for table in [
            &mut self.first_out,
            &mut self.first_in,
            &mut self.first_out_to,
            &mut self.first_in_from,
            &mut self.class_sets.set_of_node,
        ] {
            table.resize(n_terms, NO_DENSE_ID);
        }
        self.props.grow(n_terms);

        // Asked of the tables as they stand, before any row of the tail
        // moves them: does the tail give a node numbered before — one with
        // a property on either side, or a typed one — a first property on
        // a side it had none? (An empty substrate has numbered nothing.)
        let numbered = |n: usize| {
            self.first_out[n] != NO_DENSE_ID
                || self.first_in[n] != NO_DENSE_ID
                || self.class_sets.set_of_node[n] != NO_DENSE_ID
        };
        let gave_first = (nodes_before > 0 || typed_before > 0)
            && data[self.data_seen..].iter().any(|t| {
                let (s, o) = (t.s.index(), t.o.index());
                (numbered(s) && self.first_out[s] == NO_DENSE_ID)
                    || (numbered(o) && self.first_in[o] == NO_DENSE_ID)
            });

        // T_G's tail first: the data sweep below asks "is this endpoint
        // typed?" of every row. Until its set is interned, a newly typed
        // node's slot holds `settled + i`, `i` its index in `pending`: ids
        // below `settled` are sets an earlier absorb interned.
        let settled = self.class_sets.sets.len() as u32;
        let newly_typed = self.typed.len();
        let mut pending: Vec<Vec<TermId>> = Vec::new();
        for t in &types[self.types_seen..] {
            let s = t.s.index();
            let slot = &mut self.class_sets.set_of_node[s];
            if *slot == NO_DENSE_ID {
                if self.first_out[s] != NO_DENSE_ID || self.first_in[s] != NO_DENSE_ID {
                    return Err(Stale);
                }
                *slot = settled + pending.len() as u32;
                pending.push(Vec::new());
                self.typed.push(t.s);
            } else if *slot < settled {
                return Err(Stale);
            }
            // Duplicate classes are collapsed by the sort + dedup below,
            // keeping this O(1) per type triple.
            pending[(*slot - settled) as usize].push(t.o);
        }
        for (&node, mut set) in self.typed[newly_typed..].iter().zip(pending) {
            set.sort_unstable();
            set.dedup();
            // Probe by slice: typed nodes are many, distinct sets a handful.
            let id = match self.set_ids.get(set.as_slice()) {
                Some(&id) => id,
                None => {
                    let id = self.class_sets.sets.len() as u32;
                    self.class_sets.sets.push(set.clone());
                    self.set_ids.insert(set, id);
                    self.set_first.push(node);
                    id
                }
            };
            self.class_sets.set_of_node[node.index()] = id;
        }
        self.types_seen = types.len();

        // D_G's tail: number s, o, p in first-seen order and relate p to
        // each endpoint's first property.
        let set_of_node = &self.class_sets.set_of_node;
        for t in &data[self.data_seen..] {
            let p = self.props.intern(t.p);
            if p as usize == self.all.src.len() {
                for uf in [&mut self.all, &mut self.untyped] {
                    uf.src.push();
                    uf.tgt.push();
                }
                self.prop_first.push((t.s, t.o));
            }
            let (s, o) = (t.s.index(), t.o.index());
            if self.first_out[s] == NO_DENSE_ID && self.first_in[s] == NO_DENSE_ID {
                self.nodes.push(t.s);
            }
            let links_untyped = set_of_node[s] == NO_DENSE_ID;
            link(
                (&mut self.first_out[s], &mut self.first_out_to[s]),
                (p, t.o),
                &mut self.all.src,
                links_untyped.then_some(&mut self.untyped.src),
            );
            if self.first_out[o] == NO_DENSE_ID && self.first_in[o] == NO_DENSE_ID {
                self.nodes.push(t.o);
            }
            let links_untyped = set_of_node[o] == NO_DENSE_ID;
            link(
                (&mut self.first_in[o], &mut self.first_in_from[o]),
                (p, t.s),
                &mut self.all.tgt,
                links_untyped.then_some(&mut self.untyped.tgt),
            );
        }
        self.data_seen = data.len();
        self.step += 1;

        // Each new property added one singleton clique per side; fewer
        // cliques than that means a link joined two.
        let added = self.props.items().len() - props_before;
        let joined = |r: &Relatedness, before: usize| cliques(r) < before + 2 * added;
        Ok(Delta {
            from,
            data_nodes: nodes_before..self.nodes.len(),
            typed: typed_before..self.typed.len(),
            added_property: added > 0,
            merged_all: joined(&self.all, cliques_before.0),
            merged_untyped: joined(&self.untyped, cliques_before.1),
            gave_first,
            gone: Vec::new(),
        })
    }

    /// Retracts `removed` — the rows a delete batch just took out of
    /// `store`'s graph, each once — leaving the substrate a scan of the
    /// shrunk graph would build, and reports the data nodes that vanished
    /// with the keys they had ([`Delta`]). Or it reports that the rows
    /// cannot be retracted (see [Retracting](self#retracting)), changing
    /// nothing:
    ///
    /// * the substrate did not cover the graph the rows left;
    /// * a removed row was its property's first, or the first row on a side
    ///   of an endpoint that is still a data node;
    /// * a removed type row's subject is still a data node, or was the
    ///   first member of its class set;
    /// * a link a removed row witnessed has no surviving witness.
    pub fn retract(&mut self, store: &TripleStore, removed: &[Triple]) -> Result<Delta, Stale> {
        let g = store.graph();
        let of = |c: Component| removed.iter().filter(|&&t| g.component_of(t) == c).count();
        let before = (
            g.types().len() + of(Component::Type),
            g.data().len() + of(Component::Data),
        );
        if (self.types_seen, self.data_seen) != before {
            return Err(Stale);
        }
        // Still a data node of `g`: named by a data triple, or typed.
        let lives = |n: TermId| {
            let from = store.spo().range1(n.0);
            let to = store.osp().range1(n.0);
            from.iter().any(|&t| g.component_of(t) != Component::Schema)
                || to.iter().any(|&t| g.component_of(t) == Component::Data)
        };
        let mut ends: Vec<TermId> = removed
            .iter()
            .flat_map(|&t| match g.component_of(t) {
                Component::Data => [Some(t.s), Some(t.o)],
                Component::Type => [Some(t.s), None],
                Component::Schema => [None, None],
            })
            .flatten()
            .collect();
        ends.sort_unstable();
        ends.dedup();
        let gone: Vec<(TermId, NodeKeys)> = ends
            .into_iter()
            .filter(|&n| !lives(n))
            .map(|n| (n, self.keys_of(n)))
            .collect();
        let vanished = |n: TermId| gone.binary_search_by_key(&n, |&(m, _)| m).is_ok();
        for &t in removed {
            let keeps = match g.component_of(t) {
                Component::Schema => true,
                Component::Type => vanished(t.s),
                Component::Data => {
                    let Some(p) = self.props.get(t.p) else {
                        return Err(Stale);
                    };
                    let (s, o) = (t.s.index(), t.o.index());
                    let first_out = self.first_out[s] == p && self.first_out_to[s] == t.o.0;
                    let first_in = self.first_in[o] == p && self.first_in_from[o] == t.s.0;
                    self.prop_first[p as usize] != (t.s, t.o)
                        && (vanished(t.s) || !first_out)
                        && (vanished(t.o) || !first_in)
                        && self.witnessed(store, t, p, true)
                        && self.witnessed(store, t, p, false)
                }
            };
            if !keeps {
                return Err(Stale);
            }
        }
        let first_of_set = |&(n, keys): &(TermId, NodeKeys)| {
            keys.set
                .is_some_and(|set| self.set_first[set as usize] == n)
        };
        if gone.iter().any(first_of_set) {
            return Err(Stale);
        }

        let from = self.stamp();
        for &(n, _) in &gone {
            for table in [
                &mut self.first_out,
                &mut self.first_in,
                &mut self.first_out_to,
                &mut self.first_in_from,
                &mut self.class_sets.set_of_node,
            ] {
                table[n.index()] = NO_DENSE_ID;
            }
        }
        let count = |side: fn(&NodeKeys) -> bool| gone.iter().filter(|(_, k)| side(k)).count();
        let (first_out, first_in) = (&self.first_out, &self.first_in);
        drop_vanished(
            &mut self.nodes,
            count(|k| k.first_out.is_some() || k.first_in.is_some()),
            |n| first_out[n.index()] != NO_DENSE_ID || first_in[n.index()] != NO_DENSE_ID,
        );
        let set_of_node = &self.class_sets.set_of_node;
        drop_vanished(&mut self.typed, count(|k| k.set.is_some()), |n| {
            set_of_node[n.index()] != NO_DENSE_ID
        });
        (self.types_seen, self.data_seen) = (g.types().len(), g.data().len());
        self.step += 1;
        Ok(Delta {
            from,
            data_nodes: self.nodes.len()..self.nodes.len(),
            typed: self.typed.len()..self.typed.len(),
            added_property: false,
            merged_all: false,
            merged_untyped: false,
            gave_first: false,
            gone,
        })
    }

    /// Does a row left in `store` still witness the link that removed
    /// data row `t` (property `p`, dense) made on one side — its subject's
    /// (`out`) or its object's: `p` related to that endpoint's first
    /// property `f`, in the all-nodes scope and, for an untyped endpoint,
    /// in the untyped-only one? A witness is a row of `p` whose endpoint on
    /// that side has first property `f`, or a row of `f` whose endpoint has
    /// first property `p` — the same union — and is untyped, if the link
    /// was. The endpoint's own other rows of `p` are tried first. A row of
    /// the endpoint's first property links nothing.
    fn witnessed(&self, store: &TripleStore, t: Triple, p: u32, out: bool) -> bool {
        let (end, first, own) = if out {
            (t.s, &self.first_out, store.spo().range2(t.s.0, t.p.0))
        } else {
            (t.o, &self.first_in, store.pos().range2(t.p.0, t.o.0))
        };
        let f = first[end.index()];
        if f == p {
            return true;
        }
        let untyped = |n: TermId| self.class_sets.set_of_node[n.index()] == NO_DENSE_ID;
        let scoped = untyped(end);
        let links = |rows: &[Triple], first_is: u32| {
            rows.iter().any(|w| {
                let n = if out { w.s } else { w.o };
                first[n.index()] == first_is && (!scoped || untyped(n))
            })
        };
        let f_rows = store.pos().range1(self.props.items()[f as usize].0);
        links(own, f) || links(store.pos().range1(t.p.0), f) || links(f_rows, p)
    }

    /// Does a node still join the source clique of dense property `out` to
    /// the target clique of `inn` under `scope` — a row of `out`'s
    /// property left in `store` whose subject's first incoming property is
    /// in `inn`'s target clique (and which is untyped, in the untyped-only
    /// scope)? What a weak partition needs of a vanished node that had
    /// both sides.
    pub(crate) fn joins(
        &self,
        store: &TripleStore,
        scope: CliqueScope,
        out: u32,
        inn: u32,
    ) -> bool {
        let related = match scope {
            CliqueScope::AllNodes => &self.all,
            CliqueScope::UntypedOnly => &self.untyped,
        };
        let root = related.tgt.find_const(inn as usize);
        let p = self.props.items()[out as usize];
        store.pos().range1(p.0).iter().any(|w| {
            let (first_in, set) = (
                self.first_in[w.s.index()],
                self.class_sets.set_of_node[w.s.index()],
            );
            first_in != NO_DENSE_ID
                && related.tgt.find_const(first_in as usize) == root
                && (scope == CliqueScope::AllNodes || set == NO_DENSE_ID)
        })
    }

    /// A node's first outgoing and incoming property and its class set.
    pub(crate) fn keys_of(&self, node: TermId) -> NodeKeys {
        let slot = |table: &[u32]| match table.get(node.index()) {
            Some(&id) if id != NO_DENSE_ID => Some(id),
            _ => None,
        };
        NodeKeys {
            first_out: slot(&self.first_out),
            first_in: slot(&self.first_in),
            set: self.class_sets.set_id(node),
        }
    }

    /// Does `node` occur in D_G — that is, is it no typed-only resource?
    pub(crate) fn is_data_node(&self, node: TermId) -> bool {
        let keys = self.keys_of(node);
        keys.first_out.is_some() || keys.first_in.is_some()
    }

    /// The cliques of the absorbed graph under `scope`: the scope's
    /// union–finds and the first-property tables — a typed node's entries
    /// blanked under [`CliqueScope::UntypedOnly`], where it anchors no
    /// clique — resolved to clique ids. Works on clones; the substrate
    /// stays absorbable.
    pub fn cliques(&self, scope: CliqueScope) -> Cliques {
        let (related, subject_repr, object_repr) = match scope {
            CliqueScope::AllNodes => (&self.all, self.first_out.clone(), self.first_in.clone()),
            CliqueScope::UntypedOnly => {
                let of_untyped = |first: &[u32]| -> Vec<u32> {
                    first
                        .iter()
                        .zip(&self.class_sets.set_of_node)
                        .map(|(&p, &set)| if set == NO_DENSE_ID { p } else { NO_DENSE_ID })
                        .collect()
                };
                (
                    &self.untyped,
                    of_untyped(&self.first_out),
                    of_untyped(&self.first_in),
                )
            }
        };
        Cliques::from_parts(
            self.props.items(),
            related.src.clone(),
            related.tgt.clone(),
            subject_repr,
            object_repr,
        )
    }

    /// The data nodes of the absorbed graph in numbering order: the
    /// subjects and objects of D_G, then the typed-only resources.
    fn data_nodes(&self) -> Vec<TermId> {
        let typed_only = self.typed.iter().copied().filter(|n| {
            self.first_out[n.index()] == NO_DENSE_ID && self.first_in[n.index()] == NO_DENSE_ID
        });
        self.nodes.iter().copied().chain(typed_only).collect()
    }
}

/// Relates property `p` to the first property of one side of a node —
/// in the all-nodes scope, and in the untyped-only one when the node
/// generates relatedness there — or, on the node's first row on that
/// side, records `p` and the row's other end.
#[inline]
fn link(
    (first, first_end): (&mut u32, &mut u32),
    (p, end): (u32, TermId),
    all: &mut UnionFind,
    untyped: Option<&mut UnionFind>,
) {
    if *first == NO_DENSE_ID {
        (*first, *first_end) = (p, end.0);
    } else if *first != p {
        all.union(*first as usize, p as usize);
        if let Some(untyped) = untyped {
            untyped.union(*first as usize, p as usize);
        }
    }
}

/// Removes the `count` entries of a first-seen list that are no longer
/// `live`, keeping the order of the rest. Scans back from the tail, where
/// the rows an `UPDATE` inserted put their nodes, and compacts only the
/// stretch past the earliest one.
fn drop_vanished(list: &mut Vec<TermId>, count: usize, live: impl Fn(TermId) -> bool) {
    let (mut left, mut from) = (count, list.len());
    while left > 0 {
        from -= 1;
        left -= usize::from(!live(list[from]));
    }
    let tail: Vec<TermId> = list.drain(from..).filter(|&n| live(n)).collect();
    list.extend(tail);
}

/// The shared build pipeline for all five summaries of one graph: a
/// borrowed graph and a [`Substrate`] that covers it.
///
/// See the [module docs](self) for the design. The clique structures are
/// derived lazily and cached, so you only pay for the scopes the requested
/// summaries actually use.
///
/// # Examples
///
/// ```
/// use rdfsum_core::{SummaryContext, SummaryKind};
///
/// let g = rdfsum_core::fixtures::sample_graph();
/// let ctx = SummaryContext::new(&g);
/// // Cliques are computed once and shared by all four builds.
/// let all: Vec<_> = SummaryKind::ALL.iter().map(|&k| ctx.summarize(k)).collect();
/// assert_eq!(all.len(), 4);
/// assert_eq!(all[0].graph.data().len(), 6); // Prop. 4 for W
/// ```
pub struct SummaryContext<'g> {
    g: &'g Graph,
    /// Scanned by this context's constructor, or kept by its caller.
    substrate: Cow<'g, Substrate>,
    /// The data nodes in numbering order (typed-only tail included).
    nodes: Vec<TermId>,
    all_cliques: OnceCell<Cliques>,
    untyped_cliques: OnceCell<Cliques>,
}

impl<'g> SummaryContext<'g> {
    /// Scans `g` for a context of its own. Data nodes are numbered in
    /// first-seen order (the [`crate::equivalence::data_nodes_ordered`]
    /// order).
    pub fn new(g: &'g Graph) -> Self {
        Self::view(g, Cow::Owned(Substrate::scan(g)))
    }

    /// [`SummaryContext::new`]; the worker count is ignored. It stays only
    /// because the repository benchmark's layer replay
    /// (`crates/bench/src/bin/benchmark/layers.rs`) still calls it, and it
    /// goes when that file does.
    pub fn sharded(g: &'g Graph, _threads: usize) -> Self {
        Self::new(g)
    }

    /// A context over a substrate the caller keeps for `g` instead of a
    /// scan of its own.
    ///
    /// # Panics
    /// Panics if `substrate` does not [cover](Substrate::covers) `g`.
    pub fn over(g: &'g Graph, substrate: &'g Substrate) -> Self {
        Self::view(g, Cow::Borrowed(substrate))
    }

    fn view(g: &'g Graph, substrate: Cow<'g, Substrate>) -> Self {
        assert!(substrate.covers(g), "substrate is not this graph's");
        SummaryContext {
            g,
            nodes: substrate.data_nodes(),
            substrate,
            all_cliques: OnceCell::new(),
            untyped_cliques: OnceCell::new(),
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
        self.substrate.props.items()
    }

    /// The cliques of `G` under `scope`, derived from the substrate on
    /// first use and cached.
    pub fn cliques(&self, scope: CliqueScope) -> &Cliques {
        let cell = match scope {
            CliqueScope::AllNodes => &self.all_cliques,
            CliqueScope::UntypedOnly => &self.untyped_cliques,
        };
        cell.get_or_init(|| self.substrate.cliques(scope))
    }

    /// The interned class sets of the typed resources.
    pub fn class_sets(&self) -> &ClassSets {
        &self.substrate.class_sets
    }

    /// The weak summary W_G (Definition 11).
    fn weak(&self) -> (Summary, QuotientMap) {
        let cliques = self.cliques(CliqueScope::AllNodes);
        let (partition, classes) = weak_classes(cliques, &self.nodes);
        let summary = crate::weak::build_weak(
            self.g,
            cliques,
            &partition,
            &classes,
            self.data_properties(),
        );
        let keys = self.weak_keys(cliques, &classes, |c| c);
        let map = self.quotient_map(
            &summary,
            &partition,
            Some(CliqueScope::AllNodes),
            keys,
            None,
        );
        (summary, map)
    }

    /// The strong summary S_G (Definition 15).
    fn strong(&self) -> (Summary, QuotientMap) {
        let cliques = self.cliques(CliqueScope::AllNodes);
        let partition = strong_partition(cliques, &self.nodes);
        let mut namer = Namer::new(self.g.dict());
        let summary = quotient_summary_planned(
            self.g,
            &partition,
            |_, members| signature_term(&mut namer, cliques, members[0]),
            DataPlan::Scan,
        );
        let firsts = (0..).zip(&partition.classes).map(|(c, m)| (m[0], c));
        let keys = self.strong_keys(cliques, firsts);
        let map = self.quotient_map(
            &summary,
            &partition,
            Some(CliqueScope::AllNodes),
            keys,
            None,
        );
        (summary, map)
    }

    /// The typed weak summary TW_G (Definition 14) or the typed strong
    /// one TS_G (Definition 17), over the cliques only untyped resources
    /// generate (the Figure 7 reading of Definition 13, see [`crate::typed`]).
    fn typed(&self, kind: SummaryKind) -> (Summary, QuotientMap) {
        let strong = kind == SummaryKind::TypedStrong;
        let cliques = self.cliques(CliqueScope::UntypedOnly);
        let cs = self.class_sets();
        let untyped: Vec<TermId> = self
            .nodes
            .iter()
            .copied()
            .filter(|&n| cs.set_id(n).is_none())
            .collect();
        let (up, weak) = if strong {
            (strong_partition(cliques, &untyped), None)
        } else {
            let (up, classes) = weak_classes(cliques, &untyped);
            (up, Some(classes))
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
        let summary = quotient_summary_planned(
            self.g,
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
        );
        // Typed classes are keyed by their class set; untyped ones by the
        // untyped partition's keys, lifted to the combined classes.
        let mut by_set = vec![NO_DENSE_ID; n_sets];
        let mut of_untyped = vec![NO_DENSE_ID; up.len()];
        for (c, members) in (0..).zip(&partition.classes) {
            match cs.set_id(members[0]) {
                Some(id) => by_set[id as usize] = c,
                None => of_untyped[up.class_of(members[0]).expect("untyped node covered")] = c,
            }
        }
        let keys = match weak {
            Some(classes) => self.weak_keys(cliques, &classes, |u| of_untyped[u as usize]),
            None => {
                let firsts = (0..).zip(&partition.classes).map(|(c, m)| (m[0], c));
                self.strong_keys(cliques, firsts.filter(|&(n, _)| cs.set_id(n).is_none()))
            }
        };
        let scope = Some(CliqueScope::UntypedOnly);
        let map = self.quotient_map(&summary, &partition, scope, keys, Some(by_set));
        (summary, map)
    }

    /// The type-based summary T_G (Definition 12).
    fn type_based(&self) -> (Summary, QuotientMap) {
        let cs = self.class_sets();
        // Class-set ids first, then one key per untyped node, the i-th at
        // `n_sets + i`: dense, so the grouping is hash-free.
        let n_sets = cs.len();
        let mut untyped = n_sets;
        let partition = Partition::group_by_dense(&self.nodes, n_sets + self.nodes.len(), |n| {
            match cs.set_id(n) {
                Some(id) => id as usize,
                None => {
                    untyped += 1;
                    untyped - 1
                }
            }
        });
        let mut fresh = 0usize;
        let mut namer = Namer::new(self.g.dict());
        let summary = quotient_summary_planned(
            self.g,
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
        );
        let mut by_set = vec![NO_DENSE_ID; n_sets];
        for (c, members) in (0..).zip(&partition.classes) {
            if let Some(id) = cs.set_id(members[0]) {
                by_set[id as usize] = c;
            }
        }
        let map = self.quotient_map(&summary, &partition, None, ClassKeys::Own, Some(by_set));
        (summary, map)
    }

    /// The keys of a weak partition (see [`ClassKeys::Weak`]) from the
    /// clique → class tables it was built with, lifted through `class` to
    /// the summary's classes.
    fn weak_keys(
        &self,
        cliques: &Cliques,
        classes: &CliqueClasses,
        class: impl Fn(u32) -> u32,
    ) -> ClassKeys {
        let lift = |c: u32| {
            if c == NO_DENSE_ID {
                NO_DENSE_ID
            } else {
                class(c)
            }
        };
        let of =
            |table: &[u32], clique: Option<usize>| lift(clique.map_or(NO_DENSE_ID, |k| table[k]));
        let props = self.data_properties();
        ClassKeys::Weak {
            by_src: props
                .iter()
                .map(|&p| of(&classes.of_sc, cliques.source_clique_of(p)))
                .collect(),
            by_tgt: props
                .iter()
                .map(|&p| of(&classes.of_tc, cliques.target_clique_of(p)))
                .collect(),
            none: lift(classes.of_none),
        }
    }

    /// The keys of a strong partition (see [`ClassKeys::Strong`]): each
    /// `(first member, class)` of `classes` keys the class by the member's
    /// clique pair.
    fn strong_keys(
        &self,
        cliques: &Cliques,
        classes: impl Iterator<Item = (TermId, u32)>,
    ) -> ClassKeys {
        let id = |c: Option<usize>| c.map_or(NO_DENSE_ID, |c| c as u32);
        let props = self.data_properties();
        ClassKeys::Strong {
            src_clique: props
                .iter()
                .map(|&p| id(cliques.source_clique_of(p)))
                .collect(),
            tgt_clique: props
                .iter()
                .map(|&p| id(cliques.target_clique_of(p)))
                .collect(),
            by_pair: classes
                .map(|(n, c)| ((id(cliques.sc(n)), id(cliques.tc(n))), c))
                .collect(),
        }
    }

    /// The quotient map of `summary`, built over `partition`: keyed as
    /// `keys` and `by_set` say, stamped with this view's substrate.
    fn quotient_map(
        &self,
        summary: &Summary,
        partition: &Partition,
        scope: Option<CliqueScope>,
        keys: ClassKeys,
        by_set: Option<Vec<u32>>,
    ) -> QuotientMap {
        QuotientMap::new(&self.substrate, scope, keys, by_set, partition, summary)
    }

    /// Builds the summary of the given kind from the shared substrate —
    /// the one way a summary is built.
    pub fn summarize(&self, kind: SummaryKind) -> Summary {
        self.summarize_mapped(kind).0
    }

    /// [`SummaryContext::summarize`] with the summary's quotient map beside
    /// it — what the service keeps with every artifact it builds.
    pub(crate) fn summarize_mapped(&self, kind: SummaryKind) -> (Summary, QuotientMap) {
        match kind {
            SummaryKind::Weak => self.weak(),
            SummaryKind::Strong => self.strong(),
            SummaryKind::TypedWeak | SummaryKind::TypedStrong => self.typed(kind),
            SummaryKind::TypeBased => self.type_based(),
        }
    }
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
    use rdf_model::vocab::RDF_TYPE;

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

    /// The class sets equal a per-node `BTreeSet` accumulation numbered in
    /// first-seen order — same dense set ids, same set contents, same node
    /// mapping — on a graph with duplicate type triples and interleaved
    /// class orders, and on one with no type triples at all.
    #[test]
    fn class_sets_match_btreeset_model() {
        let mut g = Graph::new();
        // 120 typed resources cycling through 7 class-set shapes, visited
        // twice in different orders.
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
                    g.add_iri_triple(&r, RDF_TYPE, c);
                }
                g.add_iri_triple(&r, "p", "o");
            }
        }
        let mut untyped = Graph::new();
        untyped.add_iri_triple("a", "p", "b");
        for g in [g, untyped] {
            let mut order: Vec<TermId> = Vec::new();
            let mut classes: FxHashMap<TermId, std::collections::BTreeSet<TermId>> =
                FxHashMap::default();
            for t in g.types() {
                if !classes.contains_key(&t.s) {
                    order.push(t.s);
                }
                classes.entry(t.s).or_default().insert(t.o);
            }
            let mut sets: Vec<Vec<TermId>> = Vec::new();
            let mut set_of_node = vec![NO_DENSE_ID; g.dict().len()];
            for node in order {
                let set: Vec<TermId> = classes[&node].iter().copied().collect();
                let id = sets.iter().position(|s| *s == set).unwrap_or_else(|| {
                    sets.push(set);
                    sets.len() - 1
                });
                set_of_node[node.index()] = id as u32;
            }
            let ctx = SummaryContext::new(&g);
            assert_eq!(ctx.class_sets().set_of_node, set_of_node);
            assert_eq!(ctx.class_sets().sets, sets);
        }
    }

    /// One context shared by every build gives what a throwaway context
    /// per build gives — the shared cliques and class sets change nothing.
    #[test]
    fn summarize_all_matches_free_functions() {
        let g = sample_graph();
        let ctx = SummaryContext::new(&g);
        let all: Vec<Summary> = SummaryKind::EVERY
            .iter()
            .map(|&kind| ctx.summarize(kind))
            .collect();
        for (shared, kind) in all.iter().zip(SummaryKind::EVERY) {
            assert_eq!(
                rdf_io::write_graph(&shared.graph),
                rdf_io::write_graph(&crate::summarize(&g, kind).graph),
                "{kind}"
            );
        }
        assert_eq!(all[0].graph.data().len(), 6); // Figure 4 / Prop. 4
        assert_eq!(all[1].n_summary_nodes(), 9); // Figure 9
        assert_eq!(all[2].n_summary_nodes(), 9); // Figure 7
        assert_eq!(all[3].n_summary_nodes(), 11);
        assert_eq!(all[4].n_summary_nodes(), 14); // Figure 6
    }

    /// Everything a substrate answers with, in comparable form: numberings,
    /// first properties, class sets, and both scopes' cliques down to each
    /// term's `SC`/`TC`. (The union–finds themselves differ by union
    /// history; the cliques derived from them must not.)
    fn observable(sub: &Substrate) -> impl PartialEq + std::fmt::Debug {
        let cliques = [CliqueScope::AllNodes, CliqueScope::UntypedOnly].map(|scope| {
            let cq = sub.cliques(scope);
            let per_term: Vec<_> = (0..sub.first_out.len() as u32)
                .map(|t| (cq.sc(TermId(t)), cq.tc(TermId(t))))
                .collect();
            (cq.source_cliques, cq.target_cliques, per_term)
        });
        // The first rows a later retract asks about, per live slot.
        let first_rows = |first: &[u32], end: &[u32]| -> Vec<(u32, u32)> {
            first.iter().zip(end).map(|(&p, &e)| (p, e)).collect()
        };
        (
            (sub.types_seen, sub.data_seen),
            sub.data_nodes(),
            sub.typed.clone(),
            (sub.props.items().to_vec(), sub.prop_first.clone()),
            (
                first_rows(&sub.first_out, &sub.first_out_to),
                first_rows(&sub.first_in, &sub.first_in_from),
            ),
            (
                sub.class_sets.set_of_node.clone(),
                sub.class_sets.sets.clone(),
                sub.set_first.clone(),
            ),
            cliques,
        )
    }

    /// A graph where `a` is typed with data, `u` untyped with data, `only`
    /// typed-only, and `p`/`q` meet on `u`.
    fn base_graph() -> Graph {
        let mut g = Graph::new();
        g.add_iri_triple("a", RDF_TYPE, "A");
        g.add_iri_triple("only", RDF_TYPE, "A");
        g.add_iri_triple("a", "p", "x");
        g.add_iri_triple("u", "p", "y");
        g.add_iri_triple("u", "q", "a");
        g
    }

    /// Absorbs `batch` on top of a scan of [`base_graph`]; an `Ok` absorb
    /// must equal a scan of the grown graph.
    fn absorb_batch(batch: &[(&str, &str, &str)]) -> Result<(), Stale> {
        let mut g = base_graph();
        let mut sub = Substrate::scan(&g);
        for (s, p, o) in batch {
            g.add_iri_triple(s, p, o);
        }
        sub.absorb(&g)?;
        assert!(sub.covers(&g));
        assert_eq!(observable(&sub), observable(&Substrate::scan(&g)));
        Ok(())
    }

    #[test]
    fn absorbs_the_monotone_shapes_exactly() {
        // Nothing new at all.
        assert_eq!(absorb_batch(&[]), Ok(()));
        // A brand-new property, on old and new nodes, joining cliques.
        assert_eq!(
            absorb_batch(&[("u", "r", "n1"), ("n2", "r", "x"), ("n2", "p", "n2")]),
            Ok(())
        );
        // A typed-only node gains its first data triples: it leaves the
        // typed-only tail for the data nodes, and links as typed.
        assert_eq!(
            absorb_batch(&[("only", "p", "x"), ("only", "q", "x"), ("y", "q", "only")]),
            Ok(())
        );
        // A new node whose τ-triple follows its data triples in the batch:
        // types are absorbed first, as a scan reads them.
        assert_eq!(
            absorb_batch(&[("n", "p", "x"), ("n", "q", "x"), ("n", RDF_TYPE, "B")]),
            Ok(())
        );
        // A new class set, an old one met again, a duplicate-free pair.
        assert_eq!(
            absorb_batch(&[
                ("m1", RDF_TYPE, "A"),
                ("m2", RDF_TYPE, "B"),
                ("m2", RDF_TYPE, "A"),
                ("m3", RDF_TYPE, "B"),
            ]),
            Ok(())
        );
    }

    /// What an absorb reports, for each flag a batch can raise: the nodes
    /// it numbered, a new property, cliques joined per scope, and a node
    /// numbered before that meets its first property on a side.
    #[test]
    fn absorb_reports_what_it_changed() {
        let absorbed = |batch: &[(&str, &str, &str)]| {
            let mut g = base_graph();
            let mut sub = Substrate::scan(&g);
            let from = sub.stamp();
            for (s, p, o) in batch {
                g.add_iri_triple(s, p, o);
            }
            let delta = sub.absorb(&g).expect("a batch a prefix carries");
            assert_eq!(delta.from(), from);
            assert_ne!(sub.stamp(), from, "an absorb moves the stamp");
            let name = |n: &TermId| g.dict().decode(*n).as_iri().unwrap().to_string();
            let names = |ns: &[TermId]| ns.iter().map(name).collect::<Vec<_>>();
            let flags = [
                delta.added_property(),
                delta.merged(CliqueScope::AllNodes),
                delta.merged(CliqueScope::UntypedOnly),
                delta.gave_first_property(),
            ];
            (
                names(delta.data_nodes(&sub)),
                names(delta.typed(&sub)),
                flags,
            )
        };
        let none = [false; 4];
        // A new node on an old property into an old value: nothing moves.
        assert_eq!(
            absorbed(&[("n1", "p", "x")]),
            (vec!["n1".into()], vec![], none)
        );
        // A value (`x`), a typed-only resource (`only`, numbered as a data
        // node now) gains a first out-property.
        let gave_first = [false, false, false, true];
        assert_eq!(absorbed(&[("x", "p", "y")]), (vec![], vec![], gave_first));
        assert_eq!(
            absorbed(&[("only", "p", "y")]),
            (vec!["only".into()], vec![], gave_first)
        );
        // A new property; linked to an old one, its singleton clique joins
        // that one's in both scopes.
        assert_eq!(absorbed(&[("u", "r", "z")]).2, [true, true, true, false]);
        // A new untyped value of two properties joins their target cliques
        // in both scopes; a new typed one in the all-nodes scope only.
        assert_eq!(
            absorbed(&[("n1", "p", "z"), ("n2", "q", "z")]).2,
            [false, true, true, false]
        );
        let (nodes, typed, flags) =
            absorbed(&[("n1", "p", "m"), ("n2", "q", "m"), ("m", RDF_TYPE, "A")]);
        assert_eq!(nodes, ["n1", "m", "n2"]);
        assert_eq!(typed, ["m"]);
        assert_eq!(flags, [false, true, false, false]);
        // Two scans of one graph are two substrates.
        let g = base_graph();
        assert_ne!(Substrate::scan(&g).stamp(), Substrate::scan(&g).stamp());
    }

    #[test]
    fn refuses_the_shapes_a_prefix_cannot_carry() {
        // An untyped node with data gets typed — as a subject, as an object.
        assert_eq!(absorb_batch(&[("u", RDF_TYPE, "A")]), Err(Stale));
        assert_eq!(absorb_batch(&[("y", RDF_TYPE, "B")]), Err(Stale));
        // A typed node gains a class — with data, and typed-only.
        assert_eq!(absorb_batch(&[("a", RDF_TYPE, "B")]), Err(Stale));
        assert_eq!(absorb_batch(&[("only", RDF_TYPE, "B")]), Err(Stale));
        // Any delete that reaches D_G or T_G.
        for gone in [0, 2] {
            let mut g = base_graph();
            let mut sub = Substrate::scan(&g);
            let t = g.iter().nth(gone).unwrap();
            g.remove_present(&[t]);
            assert!(!sub.covers(&g));
            assert_eq!(sub.absorb(&g), Err(Stale));
        }
    }

    /// A retracted substrate is a scan of the shrunk graph, or the retract
    /// refuses — never a third thing. Generated delete batches on the
    /// paper's three fixtures and BSBM: one or two rows, every row that
    /// names a node, a copy of a node inserted (and absorbed) then deleted
    /// whole, or only a row of another property it was given, each
    /// retracted from whatever the step before left (a fresh scan after a
    /// refusal). The nodes a retract reports gone are the data nodes the
    /// batch took.
    #[test]
    fn retract_equals_a_scan_or_refuses() {
        use crate::fixtures::{book_graph, figure5_graph};
        let bsbm =
            rdfsum_workloads::generate_bsbm(&rdfsum_workloads::BsbmConfig::with_products(900));
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut pick = |n: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % n as u64) as usize
        };
        let (mut retracted, mut refused) = (0, 0);
        for full in [sample_graph(), figure5_graph(), book_graph(), bsbm] {
            let mut store = TripleStore::new(full.clone());
            let mut sub = Substrate::scan(store.graph());
            for step in 0..48 {
                if store.graph().data().len() < 4 {
                    // Deleted down to nothing: start over.
                    store = TripleStore::new(full.clone());
                    sub = Substrate::scan(store.graph());
                }
                let g = store.graph();
                let term = |id: TermId| g.dict().decode(id).to_term();
                let terms = |t: Triple| (term(t.s), term(t.p), term(t.o));
                let rows: Vec<Triple> = g.data().iter().chain(g.types()).copied().collect();
                let nodes = sub.data_nodes();
                let node = nodes[pick(nodes.len())];
                let names = |t: &Triple| {
                    t.s == node || (g.component_of(*t) == Component::Data && t.o == node)
                };
                let batch: Vec<_> = match step % 5 {
                    0 => vec![terms(rows[pick(rows.len())])],
                    1 => rows.iter().copied().filter(names).map(terms).collect(),
                    // A copy of the node's rows, inserted and absorbed; then
                    // deleted whole, or — given one more row, of another
                    // property, whose link to the copy's first property it
                    // alone may witness — that row alone.
                    copy @ (2 | 3) => {
                        let name = Term::iri(format!("urn:copy:{step}"));
                        let mut own: Vec<_> = rows
                            .iter()
                            .filter(|t| t.s == node)
                            .map(|&t| (name.clone(), term(t.p), term(t.o)))
                            .collect();
                        let other = g.data()[pick(g.data().len())];
                        own.push((name, term(other.p), term(other.o)));
                        store.insert_batch(&own).unwrap();
                        if sub.absorb(store.graph()).is_err() {
                            sub = Substrate::scan(store.graph());
                        }
                        if copy == 3 {
                            own.drain(..own.len() - 1);
                        }
                        own
                    }
                    _ => (0..2).map(|_| terms(rows[pick(rows.len())])).collect(),
                };
                let before = sub.data_nodes();
                let out = store.delete_batch(&batch);
                let after = Substrate::scan(store.graph());
                match sub.retract(&store, &out.applied) {
                    Ok(delta) => {
                        retracted += 1;
                        assert_eq!(observable(&sub), observable(&after), "step {step}");
                        let live: std::collections::HashSet<TermId> =
                            after.data_nodes().into_iter().collect();
                        let mut gone: Vec<TermId> =
                            before.into_iter().filter(|n| !live.contains(n)).collect();
                        gone.sort_unstable();
                        let reported: Vec<TermId> = delta.gone().iter().map(|&(n, _)| n).collect();
                        assert_eq!(reported, gone, "step {step}");
                        assert_ne!(delta.from(), sub.stamp(), "a retract moves the stamp");
                    }
                    Err(Stale) => {
                        refused += 1;
                        sub = after;
                    }
                }
            }
        }
        assert!(retracted > 20 && refused > 20, "{retracted} / {refused}");
    }

    /// A context refuses a substrate that is behind its graph.
    #[test]
    #[should_panic(expected = "not this graph's")]
    fn over_rejects_a_substrate_that_does_not_cover_the_graph() {
        let mut g = sample_graph();
        let kept = Substrate::scan(&g);
        g.add_iri_triple("s", "p", "o");
        let _ = SummaryContext::over(&g, &kept);
    }
}
