//! The term dictionary: a two-way mapping between RDF terms and dense
//! integer ids.
//!
//! This mirrors the paper's Postgres `dictionary` table (§6): "For each
//! resource from G, the dictionary table stores its unique integer value.
//! Operating on integers instead of strings provides for savings both in
//! processing time and memory." Here the dictionary is an in-memory interner;
//! ids are dense (`0..len`), assigned in first-seen order, so algorithms can
//! allocate `Vec`-based side tables indexed by id.
//!
//! # Layout
//!
//! Interning a term allocates nothing of its own. All term text lives in one
//! append-only **arena**; a plain term's fields are contiguous in it —
//! lexical form (or IRI, or blank label) first, then the language tag or
//! datatype IRI, no separators.
//!
//! * **forward**: one fixed-size `Record` per id — the arena offset of the
//!   first field (64 bits less the shape tag, so no arena a process can hold
//!   wraps it), the two field lengths and the term's shape. Decoding is one
//!   record read and two slices of the arena.
//! * **reverse**: an open-addressed, linearly probed table of `(hash, id)`
//!   `Slot`s, a power of two in size, at a load of at most 7/8. A probe
//!   compares arena bytes only where the stored hash already matches, and
//!   growth re-seats every slot by its stored hash — term bytes are hashed
//!   once, when the term arrives, and never read again to grow. That is
//!   what the hash is stored for: re-hashing from the arena would cost a
//!   cache miss per term at every doubling, which makes a *new* term — the
//!   common case while a graph loads or a snapshot decodes — several times
//!   dearer than a probe.
//! * **minted**: [`Term::Minted`] summary nodes have no text until rendered,
//!   so they sit in a small side table their record indexes; their symbolic
//!   keys and lazy rendering are untouched (see [`crate::minted`]).
//!
//! The arena is a `String`, not a `Vec<u8>`: its content is UTF-8 checked
//! once on the way in (by whoever produced the `&str` fields), so a decode is
//! a safe slice by byte range — a boundary check of two bytes — where a byte
//! arena would pay either a re-validation of every decoded field or `unsafe`.
//!
//! Because the storage is not a collection of [`Term`]s, decoding returns a
//! [`TermRef`] view of the arena rather than a `&Term`; the view has `Term`'s
//! read-side methods, and [`TermRef::to_term`] builds an owned term where
//! one is really needed. Every lookup — owned ([`Dictionary::encode`],
//! [`Dictionary::lookup`]) or borrowed ([`Dictionary::encode_ref`],
//! [`Dictionary::lookup_ref`]) — is one probe with a view, so a loader can
//! ask "is this slice of my input line already interned?" without building
//! a `Term`, and a miss copies the slices straight into the arena.

use crate::hash::FxBuildHasher;
use crate::ids::TermId;
use crate::minted::MintedTerm;
use crate::term::{LiteralKindRef, Term, TermRef};
use std::hash::BuildHasher;

/// Term shapes, as stored in the low bits of [`Record::start`].
const IRI: u64 = 0;
const BLANK: u64 = 1;
const SIMPLE: u64 = 2;
const LANG: u64 = 3;
const TYPED: u64 = 4;
const MINTED: u64 = 5;
const SHAPE_BITS: u32 = 3;

/// Where one term lives: 16 bytes, indexed by id.
#[derive(Clone, Copy, Debug)]
struct Record {
    /// `offset << SHAPE_BITS | shape`. The offset is the arena byte offset
    /// of the first field — or, for [`MINTED`], the index into the minted
    /// side table.
    start: u64,
    /// Byte length of the first field: IRI, blank label or lexical form.
    first: u32,
    /// Byte length of the second field (language tag or datatype IRI); 0
    /// for the shapes that have none.
    second: u32,
}

impl Record {
    fn new(shape: u64, offset: usize, first: &str, second: &str) -> Record {
        let field = |s: &str| u32::try_from(s.len()).expect("term field longer than 4 GiB");
        let offset = offset as u64;
        assert!(
            offset < 1 << (64 - SHAPE_BITS),
            "term arena offset overflow"
        );
        Record {
            start: offset << SHAPE_BITS | shape,
            first: field(first),
            second: field(second),
        }
    }
}

/// One cell of the reverse table: a term's id beside the hash it was
/// stored under.
#[derive(Clone, Copy, Debug)]
struct Slot {
    hash: u32,
    id: u32,
}

/// The id no term has: marks a vacant [`Slot`].
const VACANT: u32 = u32::MAX;

const VACANT_SLOT: Slot = Slot {
    hash: 0,
    id: VACANT,
};

/// The hash a term is stored and probed under: the upper half of its
/// [`TermRef`]'s Fx hash (the multiply's well-mixed bits). [`Term`] hashes
/// as its view, so owned and borrowed probes agree by construction.
fn stored_hash(term: TermRef<'_>) -> u32 {
    (FxBuildHasher::default().hash_one(term) >> 32) as u32
}

/// Interns RDF terms, assigning each distinct term a dense [`TermId`].
#[derive(Clone, Debug)]
pub struct Dictionary {
    arena: String,
    records: Vec<Record>,
    /// Power-of-two sized, never full.
    slots: Vec<Slot>,
    minted: Vec<MintedTerm>,
}

impl Default for Dictionary {
    fn default() -> Self {
        Self::new()
    }
}

impl Dictionary {
    /// Creates an empty dictionary. Its reverse table starts at one slot
    /// and doubles as terms arrive.
    pub fn new() -> Self {
        Dictionary {
            arena: String::new(),
            records: Vec::new(),
            slots: vec![VACANT_SLOT],
            minted: Vec::new(),
        }
    }

    /// Creates an empty dictionary with capacity for `n` terms.
    pub fn with_capacity(n: usize) -> Self {
        let mut d = Self::new();
        d.reserve(n, 0);
        d
    }

    /// Makes room for `terms` more terms holding `bytes` more bytes of
    /// text between them, so that interning them neither regrows the
    /// reverse table nor reallocates the arena.
    pub fn reserve(&mut self, terms: usize, bytes: usize) {
        self.arena.reserve(bytes);
        self.records.reserve(terms);
        // The smallest power of two that holds them all at a load of 7/8.
        let wanted = ((self.records.len() + terms) * 8)
            .div_ceil(7)
            .next_power_of_two();
        if wanted > self.slots.len() {
            self.reseat(wanted);
        }
    }

    /// Moves every occupied slot into a fresh table of `size` slots, by its
    /// stored hash.
    fn reseat(&mut self, size: usize) {
        let mut slots = vec![VACANT_SLOT; size];
        for slot in self.slots.iter().filter(|s| s.id != VACANT) {
            let mut at = slot.hash as usize & (size - 1);
            while slots[at].id != VACANT {
                at = (at + 1) & (size - 1);
            }
            slots[at] = *slot;
        }
        self.slots = slots;
    }

    /// The one probe: the id stored for `term`, or else the vacant slot the
    /// probe ended on — where `term` goes if it is interned next.
    #[inline]
    fn probe(&self, hash: u32, term: TermRef<'_>) -> Result<TermId, usize> {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot.id == VACANT {
                return Err(at);
            }
            if slot.hash == hash && self.decode(TermId(slot.id)) == term {
                return Ok(TermId(slot.id));
            }
            at = (at + 1) & mask;
        }
    }

    /// Interns `term`, returning its id (allocating a fresh id for unseen
    /// terms).
    pub fn encode(&mut self, term: Term) -> TermId {
        self.encode_ref(term.as_term_ref())
    }

    /// Interns the term a borrowed view describes. A term already interned
    /// costs one hash and one comparison; an unseen one has its fields
    /// appended to the arena (a minted one, its key cloned into the side
    /// table). Nothing else is allocated either way.
    pub fn encode_ref(&mut self, term: TermRef<'_>) -> TermId {
        // Room for one more at a load of 7/8 — so the table always has a
        // vacant slot for a probe to end on — and made before probing, so
        // the slot a miss ends on is still the right one when it is filled.
        if (self.records.len() + 1) * 8 > self.slots.len() * 7 {
            self.reseat(self.slots.len() * 2);
        }
        let hash = stored_hash(term);
        let at = match self.probe(hash, term) {
            Ok(id) => return id,
            Err(at) => at,
        };
        let id = TermId::from_index(self.records.len());
        assert!(id.0 != VACANT, "term id overflow: 2^32 - 1 terms");
        let (shape, offset, first, second) = match term {
            TermRef::Iri(iri) => (IRI, self.arena.len(), iri, ""),
            TermRef::Blank(label) => (BLANK, self.arena.len(), label, ""),
            TermRef::Literal { lexical, kind } => match kind {
                LiteralKindRef::Simple => (SIMPLE, self.arena.len(), lexical, ""),
                LiteralKindRef::Lang(tag) => (LANG, self.arena.len(), lexical, tag),
                LiteralKindRef::Typed(dt) => (TYPED, self.arena.len(), lexical, dt),
            },
            TermRef::Minted(m) => {
                self.minted.push(m.clone());
                (MINTED, self.minted.len() - 1, "", "")
            }
        };
        self.records.push(Record::new(shape, offset, first, second));
        self.arena.push_str(first);
        self.arena.push_str(second);
        self.slots[at] = Slot { hash, id: id.0 };
        id
    }

    /// Looks up a term's id without interning it.
    ///
    /// Lookup uses the term's structural identity. Note that a minted
    /// summary term ([`Term::Minted`]) is **not** equal to a plain
    /// [`Term::Iri`] carrying its rendered URI — minted identity is the
    /// interned set key, not the string (see [`crate::minted`]) — so
    /// probing a summary graph's dictionary with `Term::iri("urn:rdfsummary:…")`
    /// finds nothing. To address summary nodes by rendered name, compare
    /// rendered strings (`Term::as_iri`) or go through a serialization
    /// round-trip, which re-materializes plain IRIs.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        self.lookup_ref(term.as_term_ref())
    }

    /// [`Dictionary::lookup`] for a borrowed view: same identity, same
    /// answer, no `Term` needed.
    #[inline]
    pub fn lookup_ref(&self, term: TermRef<'_>) -> Option<TermId> {
        self.probe(stored_hash(term), term).ok()
    }

    /// Decodes an id back into (a view of) its term.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this dictionary.
    #[inline]
    pub fn decode(&self, id: TermId) -> TermRef<'_> {
        let r = self.records[id.index()];
        let (shape, at) = (
            r.start & ((1 << SHAPE_BITS) - 1),
            (r.start >> SHAPE_BITS) as usize,
        );
        if shape == MINTED {
            return TermRef::Minted(&self.minted[at]);
        }
        let mid = at + r.first as usize;
        let first = &self.arena[at..mid];
        let second = &self.arena[mid..mid + r.second as usize];
        match shape {
            IRI => TermRef::Iri(first),
            BLANK => TermRef::Blank(first),
            _ => TermRef::Literal {
                lexical: first,
                kind: match shape {
                    SIMPLE => LiteralKindRef::Simple,
                    LANG => LiteralKindRef::Lang(second),
                    _ => LiteralKindRef::Typed(second),
                },
            },
        }
    }

    /// Decodes an id if it is valid for this dictionary.
    pub fn try_decode(&self, id: TermId) -> Option<TermRef<'_>> {
        (id.index() < self.records.len()).then(|| self.decode(id))
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no term has been interned.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, TermRef<'_>)> {
        (0..self.records.len()).map(|i| {
            let id = TermId::from_index(i);
            (id, self.decode(id))
        })
    }

    /// Interns an IRI given as a string.
    pub fn encode_iri(&mut self, iri: impl Into<String>) -> TermId {
        self.encode_ref(TermRef::Iri(&iri.into()))
    }

    /// Generates a fresh IRI of the form `{prefix}{n}` guaranteed not to
    /// collide with any interned term, interning and returning it.
    ///
    /// This backs the paper's representation functions `N(TC, SC)` and
    /// `C(X)`, which must return *new* URIs for summary nodes.
    pub fn fresh_iri(&mut self, prefix: &str) -> TermId {
        let mut n = self.records.len();
        loop {
            let candidate = format!("{prefix}{n}");
            let candidate = TermRef::Iri(&candidate);
            if self.lookup_ref(candidate).is_none() {
                return self.encode_ref(candidate);
            }
            n += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn encode_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.encode(Term::iri("http://x/a"));
        let b = d.encode(Term::iri("http://x/a"));
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_first_seen_ordered() {
        let mut d = Dictionary::new();
        let a = d.encode(Term::iri("a"));
        let b = d.encode(Term::literal("b"));
        let c = d.encode(Term::blank("c"));
        assert_eq!((a.index(), b.index(), c.index()), (0, 1, 2));
    }

    #[test]
    fn decode_roundtrip() {
        let mut d = Dictionary::new();
        let terms = [
            Term::iri("http://x/a"),
            Term::literal("lit"),
            Term::lang_literal("bonjour", "fr"),
            Term::typed_literal("3", "http://www.w3.org/2001/XMLSchema#int"),
            Term::blank("b0"),
        ];
        let ids: Vec<_> = terms.iter().cloned().map(|t| d.encode(t)).collect();
        for (t, id) in terms.iter().zip(&ids) {
            assert_eq!(d.decode(*id), *t);
            assert_eq!(d.lookup(t), Some(*id));
        }
    }

    #[test]
    fn distinct_literal_kinds_get_distinct_ids() {
        let mut d = Dictionary::new();
        let simple = d.encode(Term::literal("a"));
        let lang = d.encode(Term::lang_literal("a", "en"));
        let typed = d.encode(Term::typed_literal("a", "dt"));
        assert_ne!(simple, lang);
        assert_ne!(simple, typed);
        assert_ne!(lang, typed);
    }

    #[test]
    fn lookup_missing_is_none() {
        let d = Dictionary::new();
        assert_eq!(d.lookup(&Term::iri("nope")), None);
        assert_eq!(d.try_decode(TermId(0)), None);
    }

    #[test]
    fn fresh_iri_avoids_collisions() {
        let mut d = Dictionary::new();
        // Pre-intern something that could collide with the generator.
        d.encode(Term::iri("sum:n1"));
        let f1 = d.fresh_iri("sum:n");
        let f2 = d.fresh_iri("sum:n");
        assert_ne!(f1, f2);
        assert_ne!(d.decode(f1), Term::iri("sum:n1"));
        assert!(d.decode(f1).as_iri().unwrap().starts_with("sum:n"));
    }

    /// One term of every shape, minted keys included.
    fn every_shape() -> Vec<Term> {
        let set = |names: &[&str]| -> crate::minted::MemberSet {
            names.iter().map(|n| Arc::from(*n)).collect()
        };
        vec![
            Term::iri("http://x/a"),
            Term::iri(""),
            Term::blank("http://x/a"),
            Term::literal("http://x/a"),
            Term::literal(""),
            Term::lang_literal("chat", "fr"),
            Term::lang_literal("chat", "fr-CA"),
            Term::typed_literal("chat", "fr"),
            Term::typed_literal("chatf", "r"),
            Term::typed_literal("", ""),
            Term::lang_literal("", ""),
            Term::typed_literal("1", "http://www.w3.org/2001/XMLSchema#int"),
            Term::literal("multi-byte é日😀 and \"quotes\""),
            Term::lang_literal("é日", "😀"),
            Term::Minted(MintedTerm::n_tau()),
            Term::Minted(MintedTerm::node(set(&["p:in"]), set(&["p:out", "p:out2"]))),
            Term::Minted(MintedTerm::node(set(&["p:in"]), set(&[]))),
            Term::Minted(MintedTerm::class_set(set(&["c:A", "c:B"]))),
        ]
    }

    #[test]
    fn borrowed_and_owned_probes_agree_for_every_shape() {
        let terms = every_shape();
        let mut owned = Dictionary::new();
        let mut borrowed = Dictionary::new();
        for (i, t) in terms.iter().enumerate() {
            // A view hashes and compares like the term it views.
            let hasher = FxBuildHasher::default();
            assert_eq!(hasher.hash_one(t), hasher.hash_one(t.as_term_ref()));
            assert_eq!(t.as_term_ref().to_term(), *t);
            for (j, u) in terms.iter().enumerate() {
                assert_eq!(t.as_term_ref() == u.as_term_ref(), i == j, "{t:?} {u:?}");
            }
            // Absent everywhere, by either probe.
            assert_eq!(owned.lookup(t), None);
            assert_eq!(owned.lookup_ref(t.as_term_ref()), None);
            // Both ways in assign the same id.
            let id = owned.encode(t.clone());
            assert_eq!(borrowed.encode_ref(t.as_term_ref()), id);
        }
        assert_eq!(owned.len(), terms.len(), "every shape is a distinct term");
        for d in [&mut owned, &mut borrowed] {
            for (i, t) in terms.iter().enumerate() {
                let id = TermId::from_index(i);
                assert_eq!(d.decode(id), *t);
                assert_eq!(d.lookup(t), Some(id));
                assert_eq!(d.lookup_ref(t.as_term_ref()), Some(id));
                // Re-interning by either route finds the entry, never a new id.
                assert_eq!(d.encode(t.clone()), id);
                assert_eq!(d.encode_ref(t.as_term_ref()), id);
            }
            assert_eq!(d.len(), terms.len());
        }
    }

    #[test]
    fn minted_identity_is_the_key_not_the_rendered_uri() {
        let terms = every_shape();
        let mut d = Dictionary::new();
        for t in &terms {
            d.encode_ref(t.as_term_ref());
        }
        let minted = terms.iter().filter(|t| matches!(t, Term::Minted(_)));
        for t in minted {
            let rendered = Term::iri(t.as_iri().unwrap());
            assert_eq!(d.lookup(&rendered), None);
            assert_eq!(d.lookup_ref(rendered.as_term_ref()), None);
        }
    }

    #[test]
    fn iter_visits_in_id_order() {
        let mut d = Dictionary::new();
        d.encode(Term::iri("a"));
        d.encode(Term::iri("b"));
        let collected: Vec<_> = d.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(collected, vec![0, 1]);
    }

    #[test]
    fn reserving_changes_no_answer() {
        let terms = every_shape();
        let mut plain = Dictionary::new();
        let mut sized = Dictionary::with_capacity(3);
        for (i, t) in terms.iter().enumerate() {
            if i == 7 {
                sized.reserve(1000, 1 << 16);
            }
            assert_eq!(plain.encode(t.clone()), sized.encode_ref(t.as_term_ref()));
        }
        for (id, t) in plain.iter() {
            assert_eq!(sized.decode(id), t);
            assert_eq!(sized.lookup_ref(t), Some(id));
        }
    }

    /// Groups of distinct IRIs whose [`stored_hash`]es are equal, found by
    /// search: 32 stored bits collide among a few hundred thousand random
    /// strings. Members of one group share a home slot in a table of any
    /// size, so they exercise the arena comparison behind a hash match and
    /// chains that only linear probing resolves.
    fn colliding_iris() -> &'static [Vec<String>] {
        static GROUPS: std::sync::OnceLock<Vec<Vec<String>>> = std::sync::OnceLock::new();
        GROUPS.get_or_init(|| {
            let mut rng = crate::SplitMix64::new(0xC0111DE);
            let mut seen: crate::FxHashMap<u32, Vec<String>> = Default::default();
            for _ in 0..400_000 {
                let iri = format!("k:{:016x}", rng.next_u64());
                seen.entry(stored_hash(TermRef::Iri(&iri)))
                    .or_default()
                    .push(iri);
            }
            let mut groups: Vec<Vec<String>> = seen.into_values().filter(|g| g.len() > 1).collect();
            groups.sort();
            assert!(groups.len() >= 4, "the search space is too small");
            groups
        })
    }

    #[test]
    fn equal_stored_hashes_are_told_apart_by_the_arena() {
        let mut d = Dictionary::new();
        for group in colliding_iris() {
            let ids: Vec<TermId> = group.iter().map(|iri| d.encode_iri(iri.as_str())).collect();
            for (iri, id) in group.iter().zip(&ids) {
                assert_eq!(d.lookup_ref(TermRef::Iri(iri)), Some(*id));
                assert_eq!(d.decode(*id).as_iri(), Some(iri.as_str()));
            }
            let mut distinct = ids.clone();
            distinct.dedup();
            assert_eq!(distinct.len(), group.len());
        }
    }

    /// One step of the state machine.
    #[derive(Clone, Debug)]
    enum Op {
        Encode(usize),
        EncodeRef(usize),
        Lookup(usize),
        LookupRef(usize),
        Decode(usize),
        FreshIri(usize),
    }

    /// The terms the machine draws from: every shape, the colliding IRIs,
    /// and `fresh_iri` candidates (so the generator has collisions to skip).
    fn universe() -> Vec<Term> {
        let mut terms = every_shape();
        terms.extend(colliding_iris().iter().flatten().map(Term::iri));
        terms.extend((0..24).map(|n| Term::iri(format!("fresh:{n}"))));
        terms
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let n = universe().len();
        prop_oneof![
            (0..n).prop_map(Op::Encode),
            (0..n).prop_map(Op::EncodeRef),
            (0..n).prop_map(Op::Lookup),
            (0..n).prop_map(Op::LookupRef),
            (0usize..64).prop_map(Op::Decode),
            (0usize..2).prop_map(Op::FreshIri),
        ]
    }

    proptest! {
        /// Random interleavings of every entry point against the obvious
        /// model — a `Vec<Term>` searched linearly — starting from the
        /// one-slot table, so growth, reseating and probe wrap-around all
        /// run: ids are dense and first-seen, every view round-trips, and
        /// minted terms are never rendered on the way.
        #[test]
        fn dictionary_matches_a_linear_model(
            ops in proptest::collection::vec(arb_op(), 0..200),
        ) {
            let universe = universe();
            let mut dict = Dictionary::new();
            let mut model: Vec<Term> = Vec::new();
            let position = |model: &[Term], t: &Term| model.iter().position(|m| m == t);
            for op in ops {
                match op {
                    Op::Encode(i) | Op::EncodeRef(i) => {
                        let t = &universe[i];
                        let want = position(&model, t).unwrap_or_else(|| {
                            model.push(t.clone());
                            model.len() - 1
                        });
                        let got = match op {
                            Op::Encode(_) => dict.encode(t.clone()),
                            _ => dict.encode_ref(t.as_term_ref()),
                        };
                        prop_assert_eq!(got.index(), want);
                    }
                    Op::Lookup(i) | Op::LookupRef(i) => {
                        let t = &universe[i];
                        let got = match op {
                            Op::Lookup(_) => dict.lookup(t),
                            _ => dict.lookup_ref(t.as_term_ref()),
                        };
                        prop_assert_eq!(got.map(TermId::index), position(&model, t));
                    }
                    Op::Decode(i) => {
                        let got = dict.try_decode(TermId::from_index(i));
                        prop_assert_eq!(got.map(|v| v.to_term()), model.get(i).cloned());
                    }
                    Op::FreshIri(which) => {
                        let prefix = ["fresh:", "other:"][which];
                        let mut n = model.len();
                        let fresh = loop {
                            let candidate = Term::iri(format!("{prefix}{n}"));
                            if position(&model, &candidate).is_none() {
                                break candidate;
                            }
                            n += 1;
                        };
                        model.push(fresh);
                        prop_assert_eq!(dict.fresh_iri(prefix).index(), model.len() - 1);
                    }
                }
                prop_assert_eq!(dict.len(), model.len());
            }
            for (i, (id, view)) in dict.iter().enumerate() {
                prop_assert_eq!(id.index(), i);
                prop_assert_eq!(view, model[i].as_term_ref());
                prop_assert_eq!(view.to_term(), model[i].clone());
                prop_assert_eq!(dict.lookup_ref(view), Some(id));
                if let TermRef::Minted(m) = view {
                    prop_assert!(!m.is_rendered(), "interning rendered {m:?}");
                }
            }
        }
    }
}
