//! RDF graphs in triple-based representation `G = ⟨D_G, S_G, T_G⟩`.
//!
//! Following §2.1 of the paper, a graph's triples are partitioned into three
//! components:
//!
//! * **S_G** (schema): triples whose property is one of ≺sc, ≺sp, ←↩d, ↪→r;
//! * **T_G** (types): the `rdf:type` (τ) triples;
//! * **D_G** (data): everything else.
//!
//! Each component is an RDF graph by itself; all three share one term
//! [`Dictionary`]. Triples are dictionary-encoded on insertion, the graph is
//! a *set* of triples (duplicates ignored), and insertion order is preserved
//! inside each component — the scan order the streaming summarization
//! algorithms (§6.2) see.
//!
//! # What "a set of triples" rests on
//!
//! A [`Graph`] is its three file-order tables, and the invariant that their
//! rows are pairwise distinct. Two things can establish it:
//!
//! * **A hash set of the rows**, probed row by row. It is a *derived*
//!   structure: the first [`Graph::insert`] / [`Graph::insert_ref`] /
//!   [`Graph::insert_encoded`] or [`Graph::contains`] on a graph that lacks
//!   it builds it from the tables, and every later operation keeps it in
//!   step. The CLI's
//!   `saturate`, the generators, the hash-dedup quotient emission and the
//!   test suites build and edit graphs this way.
//! * **A sort**. Rows that come in bulk — a parsed file, a decoded snapshot
//!   — are appended to an [`UnprovedRows`] without a probe, and the SPO
//!   counting sort ([`crate::sorted_dedup`]) that drops repeats proves them
//!   distinct by returning as many rows as it was given. A triple store runs
//!   that sort anyway to build its index, so there the proof is free
//!   ([`UnprovedRows::proved_by`]); a graph without a store pays one sort for
//!   it ([`UnprovedRows::into_graph`]). When the sort comes out shorter, the
//!   tables are compacted to their first occurrences — the rare path, the
//!   only one that hashes — and the caller is told where the first repeat
//!   sat, so a format in which a repeat is damage can refuse it.
//!
//! Callers that already hold a proof skip both: [`Graph::append_distinct`]
//! takes rows known to be absent and pairwise distinct (strictly ascending
//! packed quotient keys; an `UPDATE` batch a store has looked up in its SPO
//! index), [`Graph::remove_present`] rows known to be present. Neither
//! builds the hash set, and both keep it in step where it exists. So a graph
//! that is loaded, indexed, summarized, queried and updated through a store
//! never has one ([`Graph::has_hash_set`] is how the tests pin that).

use crate::dictionary::Dictionary;
use crate::error::ModelError;
use crate::hash::FxHashSet;
use crate::ids::TermId;
use crate::term::{Term, TermRef};
use crate::triple::{sorted_dedup, Order, Triple};
use crate::vocab;
use std::sync::OnceLock;

/// Which component of `G = ⟨D_G, S_G, T_G⟩` a triple belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Component {
    /// D_G — data triples.
    Data,
    /// T_G — `rdf:type` triples.
    Type,
    /// S_G — RDFS constraint triples.
    Schema,
}

/// Dictionary ids of the five built-in properties every graph interns on
/// construction (ids 0–4, in this order).
#[derive(Clone, Copy, Debug)]
pub struct WellKnown {
    /// `rdf:type` (τ).
    pub rdf_type: TermId,
    /// `rdfs:subClassOf` (≺sc).
    pub sub_class_of: TermId,
    /// `rdfs:subPropertyOf` (≺sp).
    pub sub_property_of: TermId,
    /// `rdfs:domain` (←↩d).
    pub domain: TermId,
    /// `rdfs:range` (↪→r).
    pub range: TermId,
}

impl WellKnown {
    fn intern(dict: &mut Dictionary) -> Self {
        WellKnown {
            rdf_type: dict.encode_iri(vocab::RDF_TYPE),
            sub_class_of: dict.encode_iri(vocab::RDFS_SUBCLASSOF),
            sub_property_of: dict.encode_iri(vocab::RDFS_SUBPROPERTYOF),
            domain: dict.encode_iri(vocab::RDFS_DOMAIN),
            range: dict.encode_iri(vocab::RDFS_RANGE),
        }
    }

    /// Classifies a property id into its component.
    #[inline]
    pub fn component_of(&self, p: TermId) -> Component {
        if p == self.rdf_type {
            Component::Type
        } else if p == self.sub_class_of
            || p == self.sub_property_of
            || p == self.domain
            || p == self.range
        {
            Component::Schema
        } else {
            Component::Data
        }
    }
}

/// Validates the well-formedness rules [`Graph::insert`] enforces, without
/// touching a graph: no literal subjects, IRI properties only, and IRI
/// classes for `rdf:type` objects. Batch mutation paths use this to
/// pre-validate a whole batch so it can be applied atomically.
pub fn check_triple(s: &Term, p: &Term, o: &Term) -> Result<(), ModelError> {
    check_triple_ref(s.as_term_ref(), p.as_term_ref(), o.as_term_ref())
}

/// [`check_triple`] over borrowed views — the one statement of the rules;
/// an owned term is built only for the error it is reported in.
pub fn check_triple_ref(s: TermRef<'_>, p: TermRef<'_>, o: TermRef<'_>) -> Result<(), ModelError> {
    if s.is_literal() {
        return Err(ModelError::LiteralSubject(s.to_term()));
    }
    if !p.is_iri() {
        return Err(ModelError::NonIriProperty(p.to_term()));
    }
    // A minted URI lives under `urn:rdfsummary:` and is never `rdf:type`.
    let is_type = matches!(p, TermRef::Iri(iri) if vocab::is_type_property(iri));
    if is_type && !o.is_iri() {
        return Err(ModelError::NonIriClass(o.to_term()));
    }
    Ok(())
}

/// An RDF graph: a set of dictionary-encoded triples partitioned into
/// data / type / schema components.
#[derive(Clone, Debug)]
pub struct Graph {
    dict: Dictionary,
    data: Vec<Triple>,
    types: Vec<Triple>,
    schema: Vec<Triple>,
    /// The rows of the three tables, hashed: built on first need, in step
    /// with the tables from then on (see the module docs).
    seen: OnceLock<FxHashSet<Triple>>,
    wk: WellKnown,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Creates an empty graph. The five built-in properties are interned
    /// eagerly so their ids are stable (`0..=4`).
    pub fn new() -> Self {
        let mut dict = Dictionary::new();
        let wk = WellKnown::intern(&mut dict);
        Graph {
            dict,
            data: Vec::new(),
            types: Vec::new(),
            schema: Vec::new(),
            seen: OnceLock::new(),
            wk,
        }
    }

    /// Creates an empty graph sized for roughly `triples` insertions: the
    /// data table and the hash set the insertions will probe.
    pub fn with_capacity(triples: usize) -> Self {
        let mut g = Self::new();
        g.data.reserve(triples);
        g.seen_mut().reserve(triples);
        g
    }

    /// The hash set of the rows, built from the tables if this graph does
    /// not have it yet.
    fn seen(&self) -> &FxHashSet<Triple> {
        self.seen.get_or_init(|| self.iter().collect())
    }

    /// [`Graph::seen`] for an operation that changes the rows.
    fn seen_mut(&mut self) -> &mut FxHashSet<Triple> {
        self.seen();
        self.seen.get_mut().expect("built by the line above")
    }

    /// Has a row-by-row operation built this graph's hash set? A graph that
    /// only ever went through the bulk paths has none (see the module docs).
    pub fn has_hash_set(&self) -> bool {
        self.seen.get().is_some()
    }

    /// The table of a component.
    fn table_mut(&mut self, component: Component) -> &mut Vec<Triple> {
        match component {
            Component::Data => &mut self.data,
            Component::Type => &mut self.types,
            Component::Schema => &mut self.schema,
        }
    }

    /// The well-known property ids of this graph.
    #[inline]
    pub fn well_known(&self) -> WellKnown {
        self.wk
    }

    /// Shorthand for the `rdf:type` id.
    #[inline]
    pub fn rdf_type(&self) -> TermId {
        self.wk.rdf_type
    }

    /// Read access to the dictionary.
    #[inline]
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Mutable access to the dictionary (used by summary builders to mint
    /// fresh summary-node URIs).
    #[inline]
    pub fn dict_mut(&mut self) -> &mut Dictionary {
        &mut self.dict
    }

    /// Inserts a triple given as terms, validating well-formedness and
    /// routing it to the proper component. Duplicate triples are ignored.
    ///
    /// Returns the encoded triple and the component it was routed to.
    pub fn insert(&mut self, s: Term, p: Term, o: Term) -> Result<(Triple, Component), ModelError> {
        check_triple(&s, &p, &o)?;
        let s = self.dict.encode(s);
        let p = self.dict.encode(p);
        let o = self.dict.encode(o);
        Ok(self.insert_encoded(Triple::new(s, p, o)))
    }

    /// [`Graph::insert`] for a triple given as borrowed views: the same
    /// rules, the same ids (interned in `s`, `p`, `o` order), but a term
    /// the dictionary already holds is never built (see
    /// [`Dictionary::encode_ref`]). This is the loader's entry point.
    pub fn insert_ref(
        &mut self,
        s: TermRef<'_>,
        p: TermRef<'_>,
        o: TermRef<'_>,
    ) -> Result<(Triple, Component), ModelError> {
        check_triple_ref(s, p, o)?;
        let s = self.dict.encode_ref(s);
        let p = self.dict.encode_ref(p);
        let o = self.dict.encode_ref(o);
        Ok(self.insert_encoded(Triple::new(s, p, o)))
    }

    /// Inserts an already-encoded triple, routing by property id.
    /// Duplicate triples are ignored. Returns the triple and its component.
    pub fn insert_encoded(&mut self, t: Triple) -> (Triple, Component) {
        let comp = self.wk.component_of(t.p);
        if self.seen_mut().insert(t) {
            self.table_mut(comp).push(t);
        }
        (t, comp)
    }

    /// Appends rows the caller has proved **absent from the graph and
    /// pairwise distinct**, each to its component, in the order given —
    /// the bulk entry: no probe, and no hash set built for it (one that
    /// exists is kept in step). What the proof is is the caller's business:
    /// strictly ascending keys, a lookup in a store's SPO index.
    pub fn append_distinct(&mut self, rows: impl IntoIterator<Item = Triple>) {
        for t in rows {
            if let Some(seen) = self.seen.get_mut() {
                let fresh = seen.insert(t);
                debug_assert!(fresh, "{t:?} was promised absent");
            }
            self.table_mut(self.wk.component_of(t.p)).push(t);
        }
    }

    /// Removes rows the caller has proved **present and pairwise distinct**
    /// — the mirror image of [`Graph::append_distinct`]: the touched
    /// components are compacted in one pass each, survivors keep their
    /// order, and no hash set is built (one that exists forgets the rows).
    /// A rebuild of any order-dependent derived structure — summaries,
    /// their substrate — from the shrunk graph therefore equals a fresh
    /// load of the surviving rows. Dictionary entries are never reclaimed:
    /// term ids stay dense and stable across deletions.
    pub fn remove_present(&mut self, rows: &[Triple]) {
        if let Some(seen) = self.seen.get_mut() {
            for t in rows {
                let was_there = seen.remove(t);
                debug_assert!(was_there, "{t:?} was promised present");
            }
        }
        self.compact_without(rows);
    }

    /// Drops `rows` — present and pairwise distinct — from the tables: each
    /// component that has one of them is swept once, up to the last of its
    /// rows. A row is looked up in the sorted removal list, which is as long
    /// as the batch and not as the graph, and only if its subject's bit is
    /// set in a 64-bit sieve of the batch's subjects: for a small batch all
    /// but a few rows of the graph are kept on one shift and mask.
    fn compact_without(&mut self, rows: &[Triple]) {
        let mut gone = rows.to_vec();
        gone.sort_unstable();
        let sieve = gone.iter().fold(0u64, |bits, t| bits | 1 << (t.s.0 % 64));
        for component in [Component::Data, Component::Type, Component::Schema] {
            let of_component = |t: &&Triple| self.wk.component_of(t.p) == component;
            let mut left = gone.iter().filter(of_component).count();
            if left > 0 {
                self.table_mut(component).retain(|t| {
                    let hit =
                        left > 0 && sieve >> (t.s.0 % 64) & 1 == 1 && gone.binary_search(t).is_ok();
                    left -= usize::from(hit);
                    !hit
                });
            }
        }
    }

    /// Does the graph contain this encoded triple?
    #[inline]
    pub fn contains(&self, t: Triple) -> bool {
        self.seen().contains(&t)
    }

    /// The data component D_G, in insertion order.
    #[inline]
    pub fn data(&self) -> &[Triple] {
        &self.data
    }

    /// The type component T_G, in insertion order.
    #[inline]
    pub fn types(&self) -> &[Triple] {
        &self.types
    }

    /// The schema component S_G, in insertion order.
    #[inline]
    pub fn schema(&self) -> &[Triple] {
        &self.schema
    }

    /// The three component tables — data, types, schema — in the order
    /// [`Graph::iter`] chains them.
    #[inline]
    pub fn components(&self) -> [&[Triple]; 3] {
        [&self.data, &self.types, &self.schema]
    }

    /// The component a triple of this graph belongs to.
    #[inline]
    pub fn component_of(&self, t: Triple) -> Component {
        self.wk.component_of(t.p)
    }

    /// Iterates all triples: data, then types, then schema.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.data
            .iter()
            .chain(self.types.iter())
            .chain(self.schema.iter())
            .copied()
    }

    /// Total number of triples, `|G|_e`.
    pub fn len(&self) -> usize {
        self.data.len() + self.types.len() + self.schema.len()
    }

    /// True when the graph has no triples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The set of *data nodes*: URIs or literals occurring as subject or
    /// object in D_G, or as subject in T_G (§2.1).
    pub fn data_nodes(&self) -> FxHashSet<TermId> {
        let mut nodes = FxHashSet::default();
        for t in &self.data {
            nodes.insert(t.s);
            nodes.insert(t.o);
        }
        for t in &self.types {
            nodes.insert(t.s);
        }
        nodes
    }

    /// The set of *class nodes*: URIs in object position of T_G triples.
    pub fn class_nodes(&self) -> FxHashSet<TermId> {
        self.types.iter().map(|t| t.o).collect()
    }

    /// The set of *property nodes*: URIs in subject or object position of
    /// ≺sp triples, or in subject position of ←↩d / ↪→r triples (§2.1).
    pub fn property_nodes(&self) -> FxHashSet<TermId> {
        let mut nodes = FxHashSet::default();
        for t in &self.schema {
            if t.p == self.wk.sub_property_of {
                nodes.insert(t.s);
                nodes.insert(t.o);
            } else if t.p == self.wk.domain || t.p == self.wk.range {
                nodes.insert(t.s);
            }
        }
        nodes
    }

    /// All graph nodes (subjects and objects of all triples), `|G|_n` is the
    /// size of this set.
    pub fn nodes(&self) -> FxHashSet<TermId> {
        let mut nodes = FxHashSet::default();
        for t in self.iter() {
            nodes.insert(t.s);
            nodes.insert(t.o);
        }
        nodes
    }

    /// The distinct data properties (properties of D_G), `|D_G|⁰_p` is the
    /// size of this set.
    pub fn data_properties(&self) -> FxHashSet<TermId> {
        self.data.iter().map(|t| t.p).collect()
    }

    /// The set of *typed resources* TR_G: subjects of T_G triples (§4.2).
    pub fn typed_resources(&self) -> FxHashSet<TermId> {
        self.types.iter().map(|t| t.s).collect()
    }

    /// Checks the paper's "well-behaved" conditions (§2.1): no class appears
    /// in a property position, and classes have no properties besides
    /// `rdf:type` and RDF-Schema ones. Returns the ids violating them.
    pub fn well_behaved_violations(&self) -> Vec<TermId> {
        let classes = self.class_nodes();
        let mut bad = FxHashSet::default();
        for t in &self.data {
            if classes.contains(&t.p) {
                bad.insert(t.p);
            }
            // A class with a data property (as subject) violates condition (ii).
            if classes.contains(&t.s) {
                bad.insert(t.s);
            }
        }
        let mut v: Vec<_> = bad.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// Convenience: inserts a data/type/schema triple from IRI strings.
    /// Intended for tests and examples; panics on malformed input.
    pub fn add_iri_triple(&mut self, s: &str, p: &str, o: &str) -> Triple {
        self.insert(Term::iri(s), Term::iri(p), Term::iri(o))
            .expect("well-formed IRI triple")
            .0
    }

    /// Convenience: inserts `s p "literal"`.
    pub fn add_literal_triple(&mut self, s: &str, p: &str, lit: &str) -> Triple {
        self.insert(Term::iri(s), Term::iri(p), Term::literal(lit))
            .expect("well-formed literal triple")
            .0
    }
}

/// What a proof of distinctness found instead: the rows were not pairwise
/// distinct.
#[derive(Debug)]
pub struct Repeated<T> {
    /// Position — data, type and schema tables taken end to end — of the
    /// first row that repeats an earlier one.
    pub at: usize,
    /// What the proof would have returned, over the rows compacted to their
    /// first occurrences (the surviving rows keep their order). Boxed: the
    /// rare path pays an allocation so that the common one returns no more
    /// than the value.
    pub compacted: Box<T>,
}

/// The rows of a graph that nobody has yet proved pairwise distinct: what a
/// bulk reader — the N-Triples loader, the snapshot decoder — appends to
/// without probing anything. It is deliberately not a [`Graph`]: the only
/// ways to one are the two proofs, [`UnprovedRows::into_graph`] (one
/// counting sort, for a graph that stands alone) and
/// [`UnprovedRows::proved_by`] (the count a store's SPO index build came
/// out with, which costs nothing). See the module docs.
#[derive(Debug, Default)]
pub struct UnprovedRows(Graph);

impl UnprovedRows {
    /// No rows, and the dictionary of an empty [`Graph`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The dictionary the appended rows' ids come from.
    pub fn dict_mut(&mut self) -> &mut Dictionary {
        &mut self.0.dict
    }

    /// The well-known property ids rows are routed by.
    pub fn well_known(&self) -> WellKnown {
        self.0.wk
    }

    /// Makes room for this many more rows in each component, for a decoder
    /// that knows the counts before the first row.
    pub fn reserve(&mut self, data: usize, types: usize, schema: usize) {
        self.0.data.reserve(data);
        self.0.types.reserve(types);
        self.0.schema.reserve(schema);
    }

    /// Number of rows, repeats included.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The three tables — data, types, schema — for the sort that proves
    /// them.
    pub fn components(&self) -> [&[Triple]; 3] {
        self.0.components()
    }

    /// Appends an encoded row to the component its property routes it to.
    pub fn push(&mut self, t: Triple) {
        // A hash set that came along with a converted graph has not seen
        // this row, and nothing here is going to show it.
        self.0.seen.take();
        self.0.table_mut(self.0.wk.component_of(t.p)).push(t);
    }

    /// [`Graph::insert_ref`] without the probe: the same rules, the same
    /// ids (interned in `s`, `p`, `o` order), the row appended whether or
    /// not it is already there.
    pub fn push_ref(
        &mut self,
        s: TermRef<'_>,
        p: TermRef<'_>,
        o: TermRef<'_>,
    ) -> Result<(), ModelError> {
        check_triple_ref(s, p, o)?;
        let dict = &mut self.0.dict;
        let t = Triple::new(dict.encode_ref(s), dict.encode_ref(p), dict.encode_ref(o));
        self.push(t);
        Ok(())
    }

    /// The standalone proof: one SPO counting sort of the rows, kept only
    /// for its length.
    pub fn into_graph(self) -> Result<Graph, Repeated<Graph>> {
        let distinct = sorted_dedup(Order::Spo, &self.components()).len();
        self.proved_by(distinct)
    }

    /// The proof a caller already holds: it ran [`sorted_dedup`] over
    /// [`UnprovedRows::components`] — in any order, for its own ends — and
    /// `distinct` rows came out. As many as went in: they are a graph's.
    /// Fewer: the rare path, which hashes the rows once to find the
    /// repeats and compacts the tables to their first occurrences.
    pub fn proved_by(self, distinct: usize) -> Result<Graph, Repeated<Graph>> {
        let mut graph = self.0;
        if distinct == graph.len() {
            return Ok(graph);
        }
        let mut seen = FxHashSet::default();
        seen.reserve(distinct);
        let (mut position, mut at) = (0, usize::MAX);
        for component in [Component::Data, Component::Type, Component::Schema] {
            graph.table_mut(component).retain(|&t| {
                let first = seen.insert(t);
                if !first {
                    at = at.min(position);
                }
                position += 1;
                first
            });
        }
        debug_assert_eq!(graph.len(), distinct, "the count was not this table's");
        Err(Repeated {
            at,
            compacted: Box::new(graph),
        })
    }
}

/// A graph's rows, their proof forgotten — for a caller that takes either.
/// A hash set the graph has built stays with it for as long as no row is
/// pushed, so a graph handed to a store and back is the graph it was.
impl From<Graph> for UnprovedRows {
    fn from(graph: Graph) -> Self {
        UnprovedRows(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iri(s: &str) -> Term {
        Term::iri(s)
    }

    #[test]
    fn routing_to_components() {
        let mut g = Graph::new();
        let (_, c1) = g.insert(iri("a"), iri("p"), iri("b")).unwrap();
        let (_, c2) = g.insert(iri("a"), iri(vocab::RDF_TYPE), iri("C")).unwrap();
        let (_, c3) = g
            .insert(iri("C"), iri(vocab::RDFS_SUBCLASSOF), iri("D"))
            .unwrap();
        let (_, c4) = g
            .insert(iri("p"), iri(vocab::RDFS_DOMAIN), iri("C"))
            .unwrap();
        assert_eq!(c1, Component::Data);
        assert_eq!(c2, Component::Type);
        assert_eq!(c3, Component::Schema);
        assert_eq!(c4, Component::Schema);
        assert_eq!(g.data().len(), 1);
        assert_eq!(g.types().len(), 1);
        assert_eq!(g.schema().len(), 2);
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut g = Graph::new();
        g.add_iri_triple("a", "p", "b");
        g.add_iri_triple("a", "p", "b");
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn set_semantics_across_literal_kinds() {
        let mut g = Graph::new();
        g.insert(iri("a"), iri("p"), Term::literal("x")).unwrap();
        g.insert(iri("a"), iri("p"), Term::lang_literal("x", "en"))
            .unwrap();
        assert_eq!(g.len(), 2, "distinct literal kinds are distinct objects");
    }

    #[test]
    fn rejects_malformed() {
        let mut g = Graph::new();
        assert!(matches!(
            g.insert(Term::literal("L"), iri("p"), iri("b")),
            Err(ModelError::LiteralSubject(_))
        ));
        assert!(matches!(
            g.insert(iri("a"), Term::blank("b"), iri("b")),
            Err(ModelError::NonIriProperty(_))
        ));
        assert!(matches!(
            g.insert(iri("a"), iri(vocab::RDF_TYPE), Term::literal("C")),
            Err(ModelError::NonIriClass(_))
        ));
        assert!(g.is_empty());
    }

    #[test]
    fn node_classification() {
        let mut g = Graph::new();
        // data: a -p-> lit ; type: a τ C ; schema: q ≺sp p, p ←↩d C
        g.insert(iri("a"), iri("p"), Term::literal("lit")).unwrap();
        g.add_iri_triple("a", vocab::RDF_TYPE, "C");
        g.add_iri_triple("q", vocab::RDFS_SUBPROPERTYOF, "p");
        g.add_iri_triple("p", vocab::RDFS_DOMAIN, "C");

        let d = g.dict();
        let a = d.lookup(&iri("a")).unwrap();
        let lit = d.lookup(&Term::literal("lit")).unwrap();
        let c = d.lookup(&iri("C")).unwrap();
        let p = d.lookup(&iri("p")).unwrap();
        let q = d.lookup(&iri("q")).unwrap();

        let data_nodes = g.data_nodes();
        assert!(data_nodes.contains(&a) && data_nodes.contains(&lit));
        assert!(!data_nodes.contains(&c));

        let class_nodes = g.class_nodes();
        assert_eq!(class_nodes.len(), 1);
        assert!(class_nodes.contains(&c));

        let prop_nodes = g.property_nodes();
        assert!(prop_nodes.contains(&p) && prop_nodes.contains(&q));
        assert!(!prop_nodes.contains(&a));
    }

    #[test]
    fn typed_resources_are_type_subjects() {
        let mut g = Graph::new();
        g.add_iri_triple("a", vocab::RDF_TYPE, "C");
        g.add_iri_triple("b", "p", "c");
        let a = g.dict().lookup(&iri("a")).unwrap();
        let tr = g.typed_resources();
        assert_eq!(tr.len(), 1);
        assert!(tr.contains(&a));
    }

    #[test]
    fn well_behaved_detection() {
        let mut g = Graph::new();
        g.add_iri_triple("a", vocab::RDF_TYPE, "C");
        // Class C used as a data property: violation.
        g.add_iri_triple("x", "C", "y");
        // Class C with a data property: violation.
        g.add_iri_triple("C", "p", "z");
        let v = g.well_behaved_violations();
        let c = g.dict().lookup(&iri("C")).unwrap();
        assert_eq!(v, vec![c]);

        let mut ok = Graph::new();
        ok.add_iri_triple("a", vocab::RDF_TYPE, "C");
        ok.add_iri_triple("a", "p", "b");
        assert!(ok.well_behaved_violations().is_empty());
    }

    #[test]
    fn iteration_covers_all_components() {
        let mut g = Graph::new();
        g.add_iri_triple("a", "p", "b");
        g.add_iri_triple("a", vocab::RDF_TYPE, "C");
        g.add_iri_triple("C", vocab::RDFS_SUBCLASSOF, "D");
        assert_eq!(g.iter().count(), 3);
        let nodes = g.nodes();
        assert_eq!(nodes.len(), 4); // a, b, C, D (properties are labels, not nodes)
    }

    #[test]
    fn contains_encoded() {
        let mut g = Graph::new();
        let t = g.add_iri_triple("a", "p", "b");
        assert!(g.contains(t));
        assert!(!g.contains(Triple::new(t.s, t.p, t.s)));
    }

    #[test]
    fn remove_preserves_insertion_order() {
        let mut g = Graph::new();
        let t1 = g.add_iri_triple("a", "p", "b");
        let t2 = g.add_iri_triple("c", "q", "d");
        let t3 = g.add_iri_triple("e", "r", "f");
        g.remove_present(&[t2]);
        assert_eq!(g.data(), &[t1, t3]);
        assert!(!g.contains(t2));
        // Re-insertion lands at the end, like a fresh triple.
        g.insert_encoded(t2);
        assert_eq!(g.data(), &[t1, t3, t2]);
    }

    #[test]
    fn remove_batch_compacts_each_component() {
        let mut g = Graph::new();
        let d1 = g.add_iri_triple("a", "p", "b");
        let ty = g.add_iri_triple("a", vocab::RDF_TYPE, "C");
        let sc = g.add_iri_triple("C", vocab::RDFS_SUBCLASSOF, "D");
        let d2 = g.add_iri_triple("c", "q", "d");
        g.remove_present(&[ty, d1]);
        assert_eq!(g.data(), &[d2]);
        assert!(g.types().is_empty());
        assert_eq!(g.schema(), &[sc]);
        assert_eq!(g.len(), 2);
    }

    /// Bulk rows become a graph by proof, never by probing: distinct rows
    /// as they are, repeated ones compacted to their first occurrences with
    /// the first repeat located — and no hash set either way until a
    /// row-by-row operation asks for one.
    #[test]
    fn unproved_rows_are_proved_or_compacted() {
        let rows = |repeats: bool| {
            let mut rows = UnprovedRows::new();
            let mut push = |s, p, o| {
                rows.push_ref(TermRef::Iri(s), TermRef::Iri(p), TermRef::Iri(o))
                    .unwrap()
            };
            push("a", "p", "b");
            push("a", vocab::RDF_TYPE, "C");
            push("c", "q", "d");
            if repeats {
                push("a", vocab::RDF_TYPE, "C"); // type row 1, position 4
                push("a", "p", "b"); // data row 2, position 2
            }
            push("C", vocab::RDFS_SUBCLASSOF, "D");
            rows
        };
        assert_eq!(rows(true).len(), 6);
        let proved = rows(false).into_graph().expect("no row repeats");
        let repeated = rows(true).into_graph().expect_err("two rows do");
        assert_eq!(repeated.at, 2, "tables end to end: data first");
        let mut compacted = *repeated.compacted;
        assert_eq!(compacted.components(), proved.components());
        assert_eq!((proved.len(), proved.data().len()), (4, 2));
        assert!(!proved.has_hash_set() && !compacted.has_hash_set());
        // A literal subject is refused as `insert_ref` refuses it.
        let bad = rows(false).push_ref(
            TermRef::Literal {
                lexical: "x",
                kind: crate::LiteralKindRef::Simple,
            },
            TermRef::Iri("p"),
            TermRef::Iri("o"),
        );
        assert!(matches!(bad, Err(ModelError::LiteralSubject(_))));

        // The bulk entries neither build the set nor let one go stale.
        let d = proved.data()[0];
        let fresh = Triple::new(d.o, d.p, d.s);
        compacted.append_distinct([fresh]);
        compacted.remove_present(&[d]);
        assert!(!compacted.has_hash_set());
        assert_eq!(compacted.data(), &[proved.data()[1], fresh]);
        assert!(compacted.contains(fresh) && !compacted.contains(d));
        assert!(compacted.has_hash_set());
        compacted.append_distinct([d]);
        compacted.remove_present(&[fresh]);
        assert!(compacted.contains(d) && !compacted.contains(fresh));
        assert_eq!(compacted.insert_encoded(d), (d, Component::Data));
        assert_eq!(compacted.data(), &[proved.data()[1], d]);
    }

    #[test]
    fn well_known_ids_are_stable() {
        let g = Graph::new();
        let wk = g.well_known();
        assert_eq!(wk.rdf_type, TermId(0));
        assert_eq!(wk.sub_class_of, TermId(1));
        assert_eq!(wk.sub_property_of, TermId(2));
        assert_eq!(wk.domain, TermId(3));
        assert_eq!(wk.range, TermId(4));
    }
}
