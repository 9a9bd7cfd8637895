//! Integer identifiers for dictionary-encoded RDF terms.
//!
//! The paper's implementation "encodes the triples table and subsequently
//! works only with the integer representation of the input RDF graph" (§6).
//! We use a 32-bit id, which comfortably covers the laptop-scale datasets of
//! the evaluation (a 100M-triple BSBM graph has well under 2^32 distinct
//! terms) while halving index memory compared to `u64`.

use std::fmt;

/// A dictionary-encoded RDF term (URI, literal, or blank node).
///
/// Ids are dense: the dictionary assigns `0, 1, 2, …` in first-seen order,
/// which lets algorithms use `Vec`-indexed side tables instead of hash maps
/// where profitable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub u32);

impl TermId {
    /// The id as a `usize`, for direct indexing of side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `TermId` from a dense index.
    ///
    /// # Panics
    /// Panics if `i` does not fit in `u32`.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        TermId(u32::try_from(i).expect("term id overflow: more than 2^32 terms"))
    }
}

/// Sentinel for "no dense id assigned" in [`DenseIdMap`] slot tables and
/// other `Vec<u32>` side tables keyed by [`TermId::index`].
pub const NO_DENSE_ID: u32 = u32::MAX;

/// A `Vec`-backed `TermId → dense index` map.
///
/// Because term ids are already dense (`0..dictionary.len()`), a flat slot
/// table replaces the `FxHashMap<TermId, usize>` lookups that dominate the
/// summarization hot paths: `get` is one bounds-checked array read. Dense
/// indices are assigned `0, 1, 2, …` in first-interned order, so the map
/// doubles as an ordered sub-numbering (e.g. "the data nodes of G in
/// first-seen order", or "the data properties in first-seen order").
#[derive(Clone, Debug, Default)]
pub struct DenseIdMap {
    /// `term index → dense id`, [`NO_DENSE_ID`] when unassigned.
    slots: Vec<u32>,
    /// `dense id → term`, in assignment order.
    items: Vec<TermId>,
}

impl DenseIdMap {
    /// An empty map with slots for `n_terms` dictionary ids.
    pub fn with_capacity(n_terms: usize) -> Self {
        DenseIdMap {
            slots: vec![NO_DENSE_ID; n_terms],
            items: Vec::new(),
        }
    }

    /// The dense id of `t`, assigning the next one if `t` is new.
    ///
    /// # Panics
    /// Panics if `t` is outside the capacity given at construction, or if
    /// more than `u32::MAX - 1` terms are interned.
    #[inline]
    pub fn intern(&mut self, t: TermId) -> u32 {
        let slot = &mut self.slots[t.index()];
        if *slot == NO_DENSE_ID {
            *slot = u32::try_from(self.items.len()).expect("dense id overflow");
            assert!(*slot != NO_DENSE_ID, "dense id overflow");
            self.items.push(t);
        }
        *slot
    }

    /// Extends the slot table to cover `n_terms` dictionary ids (no-op when
    /// already large enough). Lets a long-lived map keep pace with a growing
    /// dictionary without rebuilding — assigned dense ids are untouched.
    pub fn grow(&mut self, n_terms: usize) {
        if n_terms > self.slots.len() {
            self.slots.resize(n_terms, NO_DENSE_ID);
        }
    }

    /// The dense id of `t`, if assigned. Out-of-capacity ids return `None`.
    #[inline]
    pub fn get(&self, t: TermId) -> Option<u32> {
        match self.slots.get(t.index()) {
            Some(&d) if d != NO_DENSE_ID => Some(d),
            _ => None,
        }
    }

    /// Number of assigned dense ids.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no ids are assigned.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The interned terms, indexed by dense id (assignment order).
    #[inline]
    pub fn items(&self) -> &[TermId] {
        &self.items
    }

    /// Consumes the map, returning `(slot table, items)`. The slot table is
    /// indexed by [`TermId::index`] and holds [`NO_DENSE_ID`] for
    /// unassigned terms.
    pub fn into_parts(self) -> (Vec<u32>, Vec<TermId>) {
        (self.slots, self.items)
    }
}

impl fmt::Debug for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for i in [0usize, 1, 77, u32::MAX as usize] {
            assert_eq!(TermId::from_index(i).index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "term id overflow")]
    fn overflow_panics() {
        let _ = TermId::from_index(u32::MAX as usize + 1);
    }

    #[test]
    fn ordering_matches_raw() {
        assert!(TermId(3) < TermId(4));
        assert_eq!(format!("{:?}", TermId(9)), "t9");
        assert_eq!(format!("{}", TermId(9)), "9");
    }

    #[test]
    fn dense_map_interns_in_first_seen_order() {
        let mut m = DenseIdMap::with_capacity(10);
        assert!(m.is_empty());
        assert_eq!(m.intern(TermId(7)), 0);
        assert_eq!(m.intern(TermId(2)), 1);
        assert_eq!(m.intern(TermId(7)), 0, "re-intern is idempotent");
        assert_eq!(m.len(), 2);
        assert_eq!(m.items(), &[TermId(7), TermId(2)]);
        assert_eq!(m.get(TermId(2)), Some(1));
        assert_eq!(m.get(TermId(3)), None);
        // Out-of-capacity lookups are None, not a panic.
        assert_eq!(m.get(TermId(99)), None);
    }

    #[test]
    fn dense_map_into_parts() {
        let mut m = DenseIdMap::with_capacity(4);
        m.intern(TermId(3));
        m.intern(TermId(0));
        let (slots, items) = m.into_parts();
        assert_eq!(slots, vec![1, NO_DENSE_ID, NO_DENSE_ID, 0]);
        assert_eq!(items, vec![TermId(3), TermId(0)]);
    }

    #[test]
    #[should_panic]
    fn dense_map_intern_out_of_capacity_panics() {
        let mut m = DenseIdMap::with_capacity(1);
        m.intern(TermId(1));
    }

    #[test]
    fn dense_map_grow_preserves_assignments() {
        let mut m = DenseIdMap::with_capacity(2);
        m.intern(TermId(1));
        m.grow(5);
        assert_eq!(m.get(TermId(1)), Some(0));
        assert_eq!(m.intern(TermId(4)), 1);
        m.grow(3); // shrinking request is a no-op
        assert_eq!(m.get(TermId(4)), Some(1));
    }
}
