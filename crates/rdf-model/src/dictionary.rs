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
//! **One map, one probe.** The reverse side is a single hash map keyed by
//! the shared terms themselves. Every lookup — owned ([`Dictionary::encode`],
//! [`Dictionary::encode_shared`], [`Dictionary::lookup`]) or borrowed
//! ([`Dictionary::encode_ref`], [`Dictionary::lookup_ref`]) — probes it with
//! a [`TermRef`] view, which hashes and compares exactly like the [`Term`] it
//! views. A loader can thus ask "is this slice of my input line already
//! interned?" without building a `Term`: a hit allocates nothing, a miss
//! builds the owned term once and stores it.

use crate::hash::FxHashMap;
use crate::ids::TermId;
use crate::term::{SharedTerm, Term, TermRef};
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// What the reverse map's keys and its probes have in common: a [`TermRef`]
/// view. `HashMap::get` accepts any `Q` its key type can be borrowed as, so
/// borrowing a stored `Arc<Term>` as `dyn Viewed` lets a bare `TermRef` — which
/// is not a reference into any `Term` — act as the lookup key.
trait Viewed {
    fn view(&self) -> TermRef<'_>;
}

impl Viewed for Term {
    fn view(&self) -> TermRef<'_> {
        self.as_term_ref()
    }
}

impl Viewed for TermRef<'_> {
    fn view(&self) -> TermRef<'_> {
        *self
    }
}

impl<'a> Borrow<dyn Viewed + 'a> for SharedTerm {
    fn borrow(&self) -> &(dyn Viewed + 'a) {
        &**self
    }
}

impl Hash for dyn Viewed + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.view().hash(state);
    }
}

impl PartialEq for dyn Viewed + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for dyn Viewed + '_ {}

/// Interns RDF terms, assigning each distinct term a dense [`TermId`].
#[derive(Default, Clone, Debug)]
pub struct Dictionary {
    forward: Vec<SharedTerm>,
    /// The one reverse index. Its keys are the `Arc`s of `forward`.
    reverse: FxHashMap<SharedTerm, TermId>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty dictionary with capacity for `n` terms.
    pub fn with_capacity(n: usize) -> Self {
        Dictionary {
            forward: Vec::with_capacity(n),
            reverse: FxHashMap::with_capacity_and_hasher(n, Default::default()),
        }
    }

    /// Appends a term [`Dictionary::lookup_ref`] did not find.
    fn push(&mut self, term: SharedTerm) -> TermId {
        let id = TermId::from_index(self.forward.len());
        self.forward.push(Arc::clone(&term));
        self.reverse.insert(term, id);
        id
    }

    /// Interns `term`, returning its id (allocating a fresh id for unseen
    /// terms). The term's string data is stored once and shared.
    pub fn encode(&mut self, term: Term) -> TermId {
        match self.lookup_ref(term.as_term_ref()) {
            Some(id) => id,
            None => self.push(Arc::new(term)),
        }
    }

    /// Interns the term a borrowed view describes. A term already interned
    /// costs one hash and one comparison and allocates nothing; an unseen
    /// one is built ([`TermRef::to_term`]) exactly once. Ids are the same
    /// as [`Dictionary::encode`] of the equal owned term would assign.
    pub fn encode_ref(&mut self, term: TermRef<'_>) -> TermId {
        match self.lookup_ref(term) {
            Some(id) => id,
            None => self.push(Arc::new(term.to_term())),
        }
    }

    /// Interns an already-shared term, returning its id. Unlike
    /// [`Dictionary::encode`] this never clones the term's string data —
    /// the `Arc` itself is stored — which is how summary emission
    /// transfers constants between dictionaries without string round-trips.
    pub fn encode_shared(&mut self, term: SharedTerm) -> TermId {
        match self.lookup_ref(term.as_term_ref()) {
            Some(id) => id,
            None => self.push(term),
        }
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
    /// answer, no `Term` needed. This is the single reverse-map probe every
    /// other lookup goes through.
    #[inline]
    pub fn lookup_ref(&self, term: TermRef<'_>) -> Option<TermId> {
        self.reverse.get(&term as &dyn Viewed).copied()
    }

    /// The shared handle of an interned term, for zero-copy transfer into
    /// another dictionary (see [`Dictionary::encode_shared`]) or into a
    /// [`crate::minted::MintedTerm`] key.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this dictionary.
    #[inline]
    pub fn shared(&self, id: TermId) -> &SharedTerm {
        &self.forward[id.index()]
    }

    /// Decodes an id back into its term.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this dictionary.
    pub fn decode(&self, id: TermId) -> &Term {
        &self.forward[id.index()]
    }

    /// Decodes an id if it is valid for this dictionary.
    pub fn try_decode(&self, id: TermId) -> Option<&Term> {
        self.forward.get(id.index()).map(|a| a.as_ref())
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// True when no term has been interned.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Iterates `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.forward
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId::from_index(i), t.as_ref()))
    }

    /// Interns an IRI given as a string (hot path for loaders).
    pub fn encode_iri(&mut self, iri: impl Into<String>) -> TermId {
        self.encode(Term::Iri(iri.into()))
    }

    /// Generates a fresh IRI of the form `{prefix}{n}` guaranteed not to
    /// collide with any interned term, interning and returning it.
    ///
    /// This backs the paper's representation functions `N(TC, SC)` and
    /// `C(X)`, which must return *new* URIs for summary nodes.
    pub fn fresh_iri(&mut self, prefix: &str) -> TermId {
        let mut n = self.forward.len();
        loop {
            let candidate = Term::Iri(format!("{prefix}{n}"));
            if self.lookup(&candidate).is_none() {
                return self.encode(candidate);
            }
            n += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert_eq!(d.decode(*id), t);
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
        assert_ne!(d.decode(f1), &Term::iri("sum:n1"));
        assert!(d.decode(f1).as_iri().unwrap().starts_with("sum:n"));
    }

    /// One term of every shape, minted keys included.
    fn every_shape() -> Vec<Term> {
        use crate::minted::MintedTerm;
        let shared = |s: &str| -> SharedTerm { Arc::new(Term::iri(s)) };
        let set =
            |names: &[&str]| -> Arc<[SharedTerm]> { names.iter().map(|n| shared(n)).collect() };
        vec![
            Term::iri("http://x/a"),
            Term::iri(""),
            Term::blank("http://x/a"),
            Term::literal("http://x/a"),
            Term::literal(""),
            Term::lang_literal("chat", "fr"),
            Term::lang_literal("chat", "fr-CA"),
            Term::typed_literal("chat", "fr"),
            Term::typed_literal("1", "http://www.w3.org/2001/XMLSchema#int"),
            Term::literal("multi-byte é日😀 and \"quotes\""),
            Term::Minted(MintedTerm::n_tau()),
            Term::Minted(MintedTerm::node(set(&["p:in"]), set(&["p:out", "p:out2"]))),
            Term::Minted(MintedTerm::node(set(&["p:in"]), set(&[]))),
            Term::Minted(MintedTerm::class_set(set(&["c:A", "c:B"]))),
        ]
    }

    #[test]
    fn borrowed_and_owned_probes_agree_for_every_shape() {
        use crate::hash::FxBuildHasher;
        use std::hash::BuildHasher;
        let terms = every_shape();
        let mut owned = Dictionary::new();
        let mut borrowed = Dictionary::new();
        let mut shared = Dictionary::new();
        for t in &terms {
            // A view hashes and compares like the term it views.
            let hasher = FxBuildHasher::default();
            assert_eq!(hasher.hash_one(t), hasher.hash_one(t.as_term_ref()));
            assert_eq!(t.as_term_ref().to_term(), *t);
            // Absent everywhere, by either probe.
            assert_eq!(owned.lookup(t), None);
            assert_eq!(owned.lookup_ref(t.as_term_ref()), None);
            // The three ways in assign the same id.
            let id = owned.encode(t.clone());
            assert_eq!(borrowed.encode_ref(t.as_term_ref()), id);
            assert_eq!(shared.encode_shared(Arc::new(t.clone())), id);
        }
        assert_eq!(owned.len(), terms.len(), "every shape is a distinct term");
        for d in [&mut owned, &mut borrowed, &mut shared] {
            for (i, t) in terms.iter().enumerate() {
                let id = TermId::from_index(i);
                assert_eq!(d.decode(id), t);
                assert_eq!(d.lookup(t), Some(id));
                assert_eq!(d.lookup_ref(t.as_term_ref()), Some(id));
                // Re-interning by any route finds the entry, never a new id.
                assert_eq!(d.encode(t.clone()), id);
                assert_eq!(d.encode_ref(t.as_term_ref()), id);
                assert_eq!(d.encode_shared(Arc::new(t.clone())), id);
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
}
