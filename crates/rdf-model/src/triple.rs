//! Dictionary-encoded triples, and the one routine that sorts them.
//!
//! # Sorting by counting
//!
//! Dictionary ids are dense, so a table of triples is not sorted by
//! comparing them but by *counting* them ([`sorted_dedup`]): three stable
//! counting passes, least significant key component first, each one a
//! histogram over the ids of that component, a prefix sum, and a scatter.
//! The first pass reads the caller's rows where they lie, so a sort owns two
//! buffers and nothing else. The count table is sized by the largest id that
//! occurs in the input (found in a first sweep), which for a graph built
//! through [`crate::Graph`] is below its dictionary's length — four bytes a
//! term at most. Ids need not be dense, though: hand-built triples, or what
//! is left of a graph after most of it was deleted, can carry a few huge
//! ids, and a table sized by them would cost more than the sort it replaces.
//! So when the largest id exceeds `SPARSE_IDS` times the input's length the
//! routine falls back to a comparison sort — a choice made from the input
//! itself, whose cost is bounded either way.
//!
//! The sort drops repeats, which makes it the workspace's proof of
//! *set-ness* as well: rows are pairwise distinct exactly when it returns as
//! many as it was given. Every permutation index is built by it, so a store
//! gets that proof for nothing; a graph without a store pays one sort for it
//! ([`crate::UnprovedRows`]).

use crate::ids::TermId;
use std::fmt;

/// A dictionary-encoded RDF triple `s p o`.
///
/// Twelve bytes, `Copy`; the unit of storage and scanning throughout the
/// workspace.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    /// Subject.
    pub s: TermId,
    /// Property (predicate).
    pub p: TermId,
    /// Object.
    pub o: TermId,
}

impl Triple {
    /// Builds a triple from its three components.
    #[inline]
    pub fn new(s: TermId, p: TermId, o: TermId) -> Self {
        Triple { s, p, o }
    }

    /// The triple reordered as `(p, s, o)` — handy for property-grouped sorts.
    #[inline]
    pub fn pso(self) -> (TermId, TermId, TermId) {
        (self.p, self.s, self.o)
    }

    /// The triple reordered as `(o, p, s)`.
    #[inline]
    pub fn ops(self) -> (TermId, TermId, TermId) {
        (self.o, self.p, self.s)
    }

    /// Component by position index: 0 = subject, 1 = property, 2 = object.
    #[inline]
    pub fn get(self, pos: usize) -> TermId {
        match pos {
            0 => self.s,
            1 => self.p,
            2 => self.o,
            _ => panic!("triple position out of range: {pos}"),
        }
    }
}

/// A permutation of the triple's components to sort a table by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// Sorted by (subject, property, object).
    Spo,
    /// Sorted by (property, object, subject).
    Pos,
    /// Sorted by (object, subject, property).
    Osp,
}

impl Order {
    /// The sort key of `t` in this order.
    #[inline]
    pub fn key(self, t: Triple) -> (u32, u32, u32) {
        match self {
            Order::Spo => (t.s.0, t.p.0, t.o.0),
            Order::Pos => (t.p.0, t.o.0, t.s.0),
            Order::Osp => (t.o.0, t.s.0, t.p.0),
        }
    }
}

/// Above this many ids per input triple, ids count as sparse and
/// [`sorted_dedup`] compares instead of counting. A graph that never lost a
/// triple has at most three terms a triple beside the five built-in
/// properties, so past a handful of triples it always counts; a merge batch
/// of a few triples over a large dictionary never does.
pub const SPARSE_IDS: usize = 4;

/// The rows of `parts`, taken end to end, sorted in `order` with repeats
/// dropped — the one routine behind every index build, every merge batch
/// and every proof that rows are distinct (see the module docs). The rows
/// are read where they lie: a graph hands over its three component tables
/// without gathering them first.
pub fn sorted_dedup(order: Order, parts: &[&[Triple]]) -> Vec<Triple> {
    let len: usize = parts.iter().map(|part| part.len()).sum();
    let mut max = [0u32; 3];
    for part in parts {
        for &t in *part {
            let k = order.key(t);
            max = [max[0].max(k.0), max[1].max(k.1), max[2].max(k.2)];
        }
    }
    let widest = max[0].max(max[1]).max(max[2]) as usize;
    // Positions are counted in `u32`s, as ids are.
    let mut sorted = if widest >= SPARSE_IDS * len || len > u32::MAX as usize {
        let mut v = parts.concat();
        v.sort_unstable_by_key(|&t| order.key(t));
        v
    } else {
        let mut counts: Vec<u32> = Vec::new();
        type Digit = fn((u32, u32, u32)) -> u32;
        let mut pass = |from: &[&[Triple]], to: &mut [Triple], digit: Digit, max: u32| {
            counts.clear();
            counts.resize(max as usize + 1, 0);
            for part in from {
                for &t in *part {
                    counts[digit(order.key(t)) as usize] += 1;
                }
            }
            let mut at = 0;
            for count in &mut counts {
                at += std::mem::replace(count, at);
            }
            for part in from {
                for &t in *part {
                    let slot = &mut counts[digit(order.key(t)) as usize];
                    to[*slot as usize] = t;
                    *slot += 1;
                }
            }
        };
        let filler = Triple::new(TermId(0), TermId(0), TermId(0));
        let (mut a, mut b) = (vec![filler; len], vec![filler; len]);
        pass(parts, &mut a, |k| k.2, max[2]);
        pass(&[&a], &mut b, |k| k.1, max[1]);
        pass(&[&b], &mut a, |k| k.0, max[0]);
        a
    };
    sorted.dedup();
    sorted
}

impl fmt::Debug for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?} {:?} {:?})", self.s, self.p, self.o)
    }
}

impl From<(TermId, TermId, TermId)> for Triple {
    fn from((s, p, o): (TermId, TermId, TermId)) -> Self {
        Triple { s, p, o }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_small_and_copy() {
        assert_eq!(std::mem::size_of::<Triple>(), 12);
        let t = Triple::new(TermId(1), TermId(2), TermId(3));
        let u = t; // Copy
        assert_eq!(t, u);
    }

    #[test]
    fn reorderings() {
        let t = Triple::new(TermId(1), TermId(2), TermId(3));
        assert_eq!(t.pso(), (TermId(2), TermId(1), TermId(3)));
        assert_eq!(t.ops(), (TermId(3), TermId(2), TermId(1)));
    }

    #[test]
    fn positional_access() {
        let t = Triple::new(TermId(1), TermId(2), TermId(3));
        assert_eq!(t.get(0), TermId(1));
        assert_eq!(t.get(1), TermId(2));
        assert_eq!(t.get(2), TermId(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn positional_access_out_of_range() {
        Triple::new(TermId(0), TermId(0), TermId(0)).get(3);
    }

    /// Tables taken end to end sort as their concatenation does — counted
    /// (dense ids) and compared (one huge id) alike — and the result's
    /// length tells whether a row repeated.
    #[test]
    fn sorted_dedup_reads_parts_end_to_end() {
        let t = |s, p, o| Triple::new(TermId(s), TermId(p), TermId(o));
        let mut rng = crate::SplitMix64::new(0x50D7);
        let mut row = || {
            t(
                rng.index(40) as u32,
                rng.index(5) as u32,
                rng.index(40) as u32,
            )
        };
        let dense: [Vec<Triple>; 3] = [
            (0..300).map(|_| row()).collect(),
            Vec::new(),
            (0..50).map(|_| row()).collect(),
        ];
        let mut sparse = dense.clone();
        sparse[2][7].o = TermId(u32::MAX);
        for tables in [dense, sparse] {
            let parts: Vec<&[Triple]> = tables.iter().map(Vec::as_slice).collect();
            for order in [Order::Spo, Order::Pos, Order::Osp] {
                let mut want = tables.concat();
                want.sort_unstable_by_key(|&u| order.key(u));
                want.dedup();
                assert!(want.len() < 350, "the draw repeats rows");
                assert_eq!(sorted_dedup(order, &parts), want, "{order:?}");
                assert_eq!(sorted_dedup(order, &[&want]), want, "{order:?}");
            }
        }
        assert!(sorted_dedup(Order::Spo, &[]).is_empty());
        assert!(sorted_dedup(Order::Spo, &[&[], &[]]).is_empty());
    }

    #[test]
    fn ordering_is_spo_lexicographic() {
        let a = Triple::new(TermId(1), TermId(5), TermId(9));
        let b = Triple::new(TermId(1), TermId(6), TermId(0));
        let c = Triple::new(TermId(2), TermId(0), TermId(0));
        assert!(a < b && b < c);
    }
}
