//! Sorted permutation indices over a triple table.
//!
//! The classic triple-store layout: three copies of the triple table, sorted
//! by the `(s,p,o)`, `(p,o,s)` and `(o,s,p)` permutations. Every triple
//! pattern then resolves to one binary-searched contiguous range in one of
//! the three orders. This replaces the B-tree indexes a relational back-end
//! (the paper's PostgreSQL) would maintain on the triples table.
//!
//! # Building
//!
//! An index is [`rdf_model::sorted_dedup`] over the rows: dictionary ids are
//! dense, so the rows are sorted by counting, not comparing, and the sort
//! drops repeats — which is also how a store learns for nothing that the
//! rows it was handed are a set (`spo.len() == rows`; see
//! [`crate::TripleStore::from_rows`]). The routine and its fallback for
//! sparse ids live beside [`Triple`].

pub use rdf_model::Order;
use rdf_model::{sorted_dedup, Triple};

/// A triple table sorted in one permutation order.
#[derive(Clone, Debug)]
pub struct SortedIndex {
    order: Order,
    triples: Vec<Triple>,
}

impl SortedIndex {
    /// Builds the index over a sorted, deduplicated copy of `triples`.
    pub fn build(order: Order, triples: &[Triple]) -> Self {
        Self::build_from(order, &[triples])
    }

    /// [`SortedIndex::build`] over tables taken end to end — a graph's
    /// three components, read where they lie.
    pub fn build_from(order: Order, parts: &[&[Triple]]) -> Self {
        SortedIndex {
            order,
            triples: sorted_dedup(order, parts),
        }
    }

    /// The sort order of this index.
    pub fn order(&self) -> Order {
        self.order
    }

    /// Number of indexed triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True if no triples are indexed.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// All triples in index order.
    pub fn as_slice(&self) -> &[Triple] {
        &self.triples
    }

    /// The contiguous range of triples whose first key component equals `k1`.
    pub fn range1(&self, k1: u32) -> &[Triple] {
        self.range_by(|k| k.0.cmp(&k1))
    }

    /// The contiguous range whose first two key components equal `(k1, k2)`.
    pub fn range2(&self, k1: u32, k2: u32) -> &[Triple] {
        self.range_by(|k| (k.0, k.1).cmp(&(k1, k2)))
    }

    /// The contiguous range of keys that `cmp` (monotone over the index
    /// order) calls `Equal`: one binary search for the lower bound, then a
    /// [`gallop`] from it for the upper one — `O(log n + log run)`, and a
    /// join probe's run is a handful of triples.
    fn range_by(&self, cmp: impl Fn((u32, u32, u32)) -> std::cmp::Ordering) -> &[Triple] {
        let order = self.order;
        let lo = self.triples.partition_point(|&t| cmp(order.key(t)).is_lt());
        let rest = &self.triples[lo..];
        &rest[..gallop(rest, |t| cmp(order.key(t)).is_le())]
    }

    /// Merges a batch of additions into the index **in place**: each
    /// addition's slot is found by a galloping binary search, then one
    /// back-to-front `copy_within` sweep opens the slots, moving every
    /// indexed triple at most once and allocating nothing beyond the
    /// vector's own growth — `O(d log n)` comparisons plus one `memmove`
    /// of the suffix behind the first slot, versus a full copy of the
    /// index. Additions may arrive in any order and may duplicate each
    /// other or existing triples — the result is exactly a fresh
    /// [`SortedIndex::build`] over the union.
    ///
    /// Returns the additions that were genuinely new, ascending in index
    /// order: the search that finds a slot is also the membership test, so
    /// a store decides an `UPDATE` batch here and nowhere else.
    pub fn insert_merge(&mut self, additions: &[Triple]) -> Vec<Triple> {
        let order = self.order;
        let add = sorted_dedup(order, &[additions]);
        // (slot, triple) of every genuinely new addition, ascending: the
        // position in the *current* vector it must land in front of.
        let mut fresh: Vec<(usize, Triple)> = Vec::with_capacity(add.len());
        let mut from = 0;
        for &t in &add {
            from = lower_bound_from(order, &self.triples, from, order.key(t));
            if self.triples.get(from) != Some(&t) {
                fresh.push((from, t));
            }
        }
        let Some(&(_, filler)) = fresh.first() else {
            return Vec::new();
        };
        let mut end = self.triples.len();
        self.triples.resize(end + fresh.len(), filler);
        // Back to front: the block between two slots shifts right by the
        // number of additions in front of it, straight to its final place.
        for (ahead, &(slot, t)) in fresh.iter().enumerate().rev() {
            self.triples.copy_within(slot..end, slot + ahead + 1);
            self.triples[slot + ahead] = t;
            end = slot;
        }
        fresh.into_iter().map(|(_, t)| t).collect()
    }

    /// Removes a batch of triples **in place**: each removal is located
    /// by a galloping binary search, then one front-to-back `copy_within`
    /// sweep closes the gaps, moving every surviving triple at most once.
    /// Triples not present are ignored, so the result is exactly a fresh
    /// build over the set difference.
    ///
    /// Returns the removals that were genuinely present, ascending in
    /// index order (see [`SortedIndex::insert_merge`]).
    pub fn remove_merge(&mut self, removals: &[Triple]) -> Vec<Triple> {
        let order = self.order;
        let mut rem = sorted_dedup(order, &[removals]);
        let mut gone: Vec<usize> = Vec::with_capacity(rem.len());
        let mut from = 0;
        rem.retain(|&t| {
            from = lower_bound_from(order, &self.triples, from, order.key(t));
            let present = self.triples.get(from) == Some(&t);
            if present {
                gone.push(from);
            }
            present
        });
        let Some(&first) = gone.first() else {
            return rem;
        };
        let len = self.triples.len();
        // Front to back: the block behind each removed position shifts
        // left onto the write cursor, straight to its final place.
        let mut write = first;
        for (i, &pos) in gone.iter().enumerate() {
            let next = gone.get(i + 1).copied().unwrap_or(len);
            self.triples.copy_within(pos + 1..next, write);
            write += next - pos - 1;
        }
        self.triples.truncate(write);
        rem
    }

    /// Is the exact triple present? (Binary search on the full key.)
    pub fn contains(&self, t: Triple) -> bool {
        self.triples
            .binary_search_by_key(&self.order.key(t), |&u| self.order.key(u))
            .is_ok()
    }

    /// Verifies the sortedness invariant (used by tests and debug builds).
    pub fn check_invariants(&self) -> bool {
        self.triples
            .windows(2)
            .all(|w| self.order.key(w[0]) <= self.order.key(w[1]))
    }
}

/// `v.partition_point(pred)` by a galloping search from the front: probe
/// 1, 2, 4, … elements in, then bisect the last octave — `O(log answer)`
/// instead of `O(log v.len())`, for answers expected near the front.
fn gallop(v: &[Triple], pred: impl Fn(Triple) -> bool) -> usize {
    let mut hi = 1;
    while hi <= v.len() && pred(v[hi - 1]) {
        hi <<= 1;
    }
    let lo = hi >> 1;
    let hi = (hi - 1).min(v.len());
    lo + v[lo..hi].partition_point(|&t| pred(t))
}

/// The first position at or after `from` whose key is `>= k`. A batch's
/// slots are visited in ascending order, so galloping from the previous
/// one costs `O(log gap)` — a handful of probes for a small batch spread
/// over a large index.
fn lower_bound_from(order: Order, v: &[Triple], from: usize, k: (u32, u32, u32)) -> usize {
    from + gallop(&v[from..], |t| order.key(t) < k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{TermId, SPARSE_IDS};

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(TermId(s), TermId(p), TermId(o))
    }

    fn sample() -> Vec<Triple> {
        vec![t(2, 1, 1), t(1, 1, 2), t(1, 2, 3), t(1, 1, 1), t(3, 2, 1)]
    }

    #[test]
    fn builds_sorted_and_deduped() {
        let mut with_dup = sample();
        with_dup.push(t(1, 1, 1));
        let idx = SortedIndex::build(Order::Spo, &with_dup);
        assert_eq!(idx.len(), 5);
        assert!(idx.check_invariants());
    }

    #[test]
    fn range1_spo_groups_by_subject() {
        let idx = SortedIndex::build(Order::Spo, &sample());
        let r = idx.range1(1);
        assert_eq!(r.len(), 3);
        assert!(r.iter().all(|t| t.s == TermId(1)));
        assert!(idx.range1(9).is_empty());
    }

    #[test]
    fn range2_pos_groups_by_property_object() {
        let idx = SortedIndex::build(Order::Pos, &sample());
        let r = idx.range2(1, 1);
        assert_eq!(r.len(), 2); // (2,1,1) and (1,1,1)
        assert!(r.iter().all(|t| t.p == TermId(1) && t.o == TermId(1)));
    }

    #[test]
    fn range1_osp_groups_by_object() {
        let idx = SortedIndex::build(Order::Osp, &sample());
        let r = idx.range1(1);
        assert_eq!(r.len(), 3); // objects equal to 1
        assert!(r.iter().all(|t| t.o == TermId(1)));
    }

    proptest::proptest! {
        /// `range1` / `range2` (binary-searched lower bound, galloped
        /// upper bound) equal a linear filter of the index, in all three
        /// orders, for every key of a table that holds the smallest and
        /// the largest `u32` — each one present in some indexes and
        /// absent from others — and for keys that are never present,
        /// between and beyond them.
        #[test]
        fn ranges_match_linear_filter(
            raw in proptest::collection::vec((0usize..6, 0usize..6, 0usize..6), 0..80),
        ) {
            const PRESENT: [u32; 6] = [0, 1, 2, 5, 9, u32::MAX];
            const ABSENT: [u32; 3] = [3, 7, u32::MAX - 1];
            let triples: Vec<Triple> = raw
                .iter()
                .map(|&(s, p, o)| t(PRESENT[s], PRESENT[p], PRESENT[o]))
                .collect();
            let probes = || PRESENT.into_iter().chain(ABSENT);
            for order in [Order::Spo, Order::Pos, Order::Osp] {
                let idx = SortedIndex::build(order, &triples);
                let filter = |keep: &dyn Fn((u32, u32, u32)) -> bool| -> Vec<Triple> {
                    idx.as_slice().iter().copied().filter(|&u| keep(order.key(u))).collect()
                };
                for k1 in probes() {
                    proptest::prop_assert_eq!(
                        idx.range1(k1),
                        filter(&|k| k.0 == k1),
                        "{:?} range1({})", order, k1
                    );
                    for k2 in probes() {
                        proptest::prop_assert_eq!(
                            idx.range2(k1, k2),
                            filter(&|k| (k.0, k.1) == (k1, k2)),
                            "{:?} range2({}, {})", order, k1, k2
                        );
                    }
                }
            }
        }
    }

    proptest::proptest! {
        /// Every build equals `sort_unstable_by_key` + `dedup` in all three
        /// orders — on duplicate-heavy triples over dense ids, which are
        /// counted; on the same triples with a few ids next to `u32::MAX`
        /// mixed in, which must be compared (a count table sized by such
        /// an id would be 16 GiB: this test finishing is the check); and
        /// on inputs of zero to two triples, around the guard's edge.
        #[test]
        fn build_matches_comparison_sort(
            raw in proptest::collection::vec((0u32..40, 0u32..6, 0u32..40), 0..200),
            huge in proptest::collection::vec((0usize..200, 0usize..3, 0u32..3), 0..4),
        ) {
            let dense: Vec<Triple> = raw.iter().map(|&(s, p, o)| t(s, p, o)).collect();
            let mut sparse = dense.clone();
            for &(at, position, below_max) in &huge {
                if let Some(triple) = sparse.get_mut(at) {
                    let id = TermId(u32::MAX - below_max);
                    *[&mut triple.s, &mut triple.p, &mut triple.o][position] = id;
                }
            }
            let inputs = [&dense[..], &sparse[..], &dense[..dense.len().min(2)], &sparse[..1.min(sparse.len())], &[]];
            for input in inputs {
                for order in [Order::Spo, Order::Pos, Order::Osp] {
                    let mut want = input.to_vec();
                    want.sort_unstable_by_key(|&u| order.key(u));
                    want.dedup();
                    let built = SortedIndex::build(order, input);
                    proptest::prop_assert_eq!(built.as_slice(), &want[..], "{:?}", order);
                }
            }
        }
    }

    /// Both sides of the sparse-id guard, exactly at its edge: `n` triples
    /// count while every id is below `SPARSE_IDS * n`.
    #[test]
    fn the_guard_switches_on_the_largest_id() {
        let n = 64u32;
        let edge = SPARSE_IDS as u32 * n;
        for largest in [edge - 1, edge, edge + 1, u32::MAX] {
            let mut triples: Vec<Triple> = (0..n).rev().map(|i| t(i % 7, i % 3, i)).collect();
            triples[5].o = TermId(largest);
            triples.push(triples[9]);
            for order in [Order::Spo, Order::Pos, Order::Osp] {
                let mut want = triples.clone();
                want.sort_unstable_by_key(|&u| order.key(u));
                want.dedup();
                assert_eq!(SortedIndex::build(order, &triples).as_slice(), want);
            }
        }
    }

    #[test]
    fn contains_exact() {
        let idx = SortedIndex::build(Order::Pos, &sample());
        assert!(idx.contains(t(1, 2, 3)));
        assert!(!idx.contains(t(1, 2, 4)));
    }

    #[test]
    fn empty_index() {
        let idx = SortedIndex::build(Order::Spo, &[]);
        assert!(idx.is_empty());
        assert!(idx.range1(0).is_empty());
        assert!(!idx.contains(t(0, 0, 0)));
    }

    /// Random insert/remove batches through the merge ops always equal a
    /// fresh build over the surviving set, in every order.
    #[test]
    fn merge_ops_match_fresh_build() {
        let mut rng = rdf_model::SplitMix64::new(0xA11CE);
        for order in [Order::Spo, Order::Pos, Order::Osp] {
            let mut live: Vec<Triple> = Vec::new();
            let mut idx = SortedIndex::build(order, &[]);
            for round in 0..20 {
                let batch: Vec<Triple> = (0..rng.index(12))
                    .map(|_| {
                        t(
                            rng.index(6) as u32,
                            rng.index(3) as u32,
                            rng.index(6) as u32,
                        )
                    })
                    .collect();
                // What a merge reports: the batch's triples that were new
                // (or present), once each, in index order.
                let mut distinct = SortedIndex::build(order, &batch).as_slice().to_vec();
                if round % 2 == 0 {
                    distinct.retain(|t| !live.contains(t));
                    assert_eq!(idx.insert_merge(&batch), distinct, "{order:?} {round}");
                    live.extend_from_slice(&batch);
                } else {
                    distinct.retain(|t| live.contains(t));
                    assert_eq!(idx.remove_merge(&batch), distinct, "{order:?} {round}");
                    live.retain(|t| !batch.contains(t));
                }
                live.sort_unstable();
                live.dedup();
                let fresh = SortedIndex::build(order, &live);
                assert_eq!(idx.as_slice(), fresh.as_slice(), "{order:?} round {round}");
                assert!(idx.check_invariants());
            }
        }
    }

    /// The in-place merges against a fresh build over the same set, on an
    /// index large enough that slots are far apart: batch sizes 0–16 mixing
    /// fresh triples, triples already indexed and in-batch duplicates;
    /// removals of absent triples; the first and last positions; and one
    /// batch larger than the index itself, in every order.
    #[test]
    fn in_place_merges_match_fresh_build_on_a_large_index() {
        use std::collections::BTreeSet;
        let mut rng = rdf_model::SplitMix64::new(0x1D3A);
        let random = |rng: &mut rdf_model::SplitMix64| {
            t(
                1 + rng.index(500) as u32,
                1 + rng.index(8) as u32,
                1 + rng.index(500) as u32,
            )
        };
        for order in [Order::Spo, Order::Pos, Order::Osp] {
            let mut live: BTreeSet<Triple> = (0..6_000).map(|_| random(&mut rng)).collect();
            assert!(live.len() >= 5_000);
            let all = |live: &BTreeSet<Triple>| live.iter().copied().collect::<Vec<_>>();
            let mut idx = SortedIndex::build(order, &all(&live));
            let check = |idx: &SortedIndex, live: &BTreeSet<Triple>, what: &str| {
                let fresh = SortedIndex::build(order, &all(live));
                assert_eq!(idx.as_slice(), fresh.as_slice(), "{order:?} {what}");
            };
            for round in 0..68 {
                let size = round % 17;
                let mut batch: Vec<Triple> = (0..size)
                    .map(|i| match i % 3 {
                        0 => random(&mut rng),                  // mostly absent from the index
                        1 => all(&live)[rng.index(live.len())], // indexed
                        _ => t(7, 1 + (round % 8) as u32, 7),   // repeats in-batch
                    })
                    .collect();
                if size > 4 {
                    batch.push(batch[0]);
                }
                if round % 2 == 0 {
                    idx.insert_merge(&batch);
                    live.extend(batch.iter().copied());
                } else {
                    idx.remove_merge(&batch);
                    for b in &batch {
                        live.remove(b);
                    }
                }
                check(&idx, &live, &format!("round {round}"));
            }
            // The extreme keys of every order: slot 0 and slot `len`.
            let ends = [t(0, 0, 0), t(u32::MAX, u32::MAX, u32::MAX)];
            idx.insert_merge(&ends);
            live.extend(ends);
            check(&idx, &live, "insert at both ends");
            assert_eq!(idx.as_slice()[0], ends[0]);
            assert_eq!(idx.as_slice()[idx.len() - 1], ends[1]);
            idx.remove_merge(&ends);
            live.remove(&ends[0]);
            live.remove(&ends[1]);
            check(&idx, &live, "remove at both ends");
            // A batch larger than the index, interleaving with it.
            let big: Vec<Triple> = (0..2 * idx.len()).map(|_| random(&mut rng)).collect();
            idx.insert_merge(&big);
            live.extend(big.iter().copied());
            check(&idx, &live, "insert a batch larger than the index");
            let mut everything = all(&live);
            everything.extend((0..64).map(|_| random(&mut rng)));
            idx.remove_merge(&everything);
            assert!(idx.is_empty(), "{order:?}: removing a superset empties it");
        }
    }

    #[test]
    fn merge_ops_handle_empty_batches() {
        let mut idx = SortedIndex::build(Order::Spo, &sample());
        let before = idx.as_slice().to_vec();
        idx.insert_merge(&[]);
        idx.remove_merge(&[]);
        idx.remove_merge(&[t(99, 99, 99)]);
        assert_eq!(idx.as_slice(), before);
    }
}
