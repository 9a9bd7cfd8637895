//! # rdf-store
//!
//! An embedded, integer-encoded triple store — the workspace's substitute
//! for the paper's PostgreSQL back-end (§6). Provides three sorted
//! permutation indices (SPO/POS/OSP) over a dictionary-encoded
//! [`rdf_model::Graph`] (which already splits its triples into the paper's
//! data/type/schema tables as they are inserted), in-place batch merges,
//! an incremental content fingerprint, binary snapshots, and the
//! binary-searched triple-pattern scans that back the `rdf-query`
//! evaluation engine.
//!
//! The SPO index doubles as the graph's proof of being a *set*, as the
//! paper's encoded table does (§6): a store is built from rows nobody has
//! de-duplicated ([`TripleStore::from_rows`] — `spo.len() == rows` is the
//! proof), the snapshot decoder appends without probing
//! ([`snapshot::decode_rows`]), and batch updates decide membership by the
//! search that merges them into SPO. The graph's own hash set is never
//! built on any of these paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod fingerprint;
pub mod index;
pub mod pattern;
pub mod snapshot;
pub mod store;

pub use fingerprint::{graph_fingerprint, term_digest, Fingerprint};
pub use index::{Order, SortedIndex};
pub use pattern::TriplePattern;
pub use snapshot::SnapshotError;
pub use store::{BatchOutcome, TripleStore};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rdf_model::{Graph, TermId, Triple};

    proptest! {
        /// Every pattern scan equals the naive filter over all triples.
        #[test]
        fn scan_matches_naive(
            raw in proptest::collection::vec((0u32..6, 6u32..9, 0u32..6), 0..60),
            probe in (0u32..7, 5u32..10, 0u32..7),
            mask in 0u8..8,
        ) {
            let mut g = Graph::new();
            for (s, p, o) in &raw {
                g.add_iri_triple(&format!("n{s}"), &format!("p{p}"), &format!("n{o}"));
            }
            let st = TripleStore::new(g);
            let all: Vec<Triple> = st.graph().iter().collect();
            // Build a probe pattern; ids may or may not exist in the store.
            let lookup = |name: String| -> Option<TermId> {
                st.graph().dict().lookup(&rdf_model::Term::iri(name))
            };
            let s = (mask & 1 != 0).then(|| lookup(format!("n{}", probe.0))).flatten();
            let p = (mask & 2 != 0).then(|| lookup(format!("p{}", probe.1))).flatten();
            let o = (mask & 4 != 0).then(|| lookup(format!("n{}", probe.2))).flatten();
            let pat = TriplePattern::new(s, p, o);
            let mut expect: Vec<Triple> = all.iter().copied().filter(|&t| pat.matches(t)).collect();
            let mut got: Vec<Triple> = st.scan(pat).to_vec();
            expect.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, expect);
        }

        /// count == scan().len() and any == !scan().is_empty().
        #[test]
        fn count_consistency(
            raw in proptest::collection::vec((0u32..4, 4u32..6, 0u32..4), 1..40),
        ) {
            let mut g = Graph::new();
            for (s, p, o) in &raw {
                g.add_iri_triple(&format!("n{s}"), &format!("p{p}"), &format!("n{o}"));
            }
            let st = TripleStore::new(g);
            for t in st.graph().iter() {
                for pat in [
                    TriplePattern::new(Some(t.s), None, None),
                    TriplePattern::new(None, Some(t.p), None),
                    TriplePattern::new(None, None, Some(t.o)),
                    TriplePattern::new(Some(t.s), Some(t.p), Some(t.o)),
                ] {
                    prop_assert_eq!(st.count(pat), st.scan(pat).len());
                    prop_assert_eq!(st.any(pat), !st.scan(pat).is_empty());
                    prop_assert!(st.count(pat) >= 1);
                }
            }
        }
    }

    /// One step of [`graph_matches_a_set_model`]; a `usize` picks a triple
    /// of the universe.
    #[derive(Clone, Debug)]
    enum GraphOp {
        AppendDistinct(Vec<usize>),
        Insert(usize),
        Contains(usize),
        RemovePresent(Vec<usize>),
        Clone,
        ThroughAStore,
    }

    fn arb_graph_op() -> impl Strategy<Value = GraphOp> {
        let one = || 0usize..48;
        let some = || proptest::collection::vec(0usize..48, 0..6);
        prop_oneof![
            some().prop_map(GraphOp::AppendDistinct),
            one().prop_map(GraphOp::Insert),
            one().prop_map(GraphOp::Insert),
            one().prop_map(GraphOp::Contains),
            some().prop_map(GraphOp::RemovePresent),
            (0u8..1).prop_map(|_| GraphOp::Clone),
            (0u8..1).prop_map(|_| GraphOp::ThroughAStore),
        ]
    }

    proptest! {
        /// The set contract on both sides of the hash set's materialisation.
        /// Random interleavings of every way to change or ask a graph —
        /// bulk append and bulk removal (the model plays the caller and
        /// supplies the proof), `insert_encoded`, `contains`, `clone`, and
        /// a trip through a store and back — against three `Vec`s and a
        /// `BTreeSet`: file order, `len`, membership and every return value
        /// agree after each step, starting from a bulk-built graph (no hash
        /// set yet) and from an `insert`-built one. The hash set exists
        /// exactly when a row-by-row operation has run since the graph was
        /// built; a trip through a store neither builds nor drops it.
        #[test]
        fn graph_matches_a_set_model(
            start in proptest::collection::vec(0usize..48, 0..24),
            bulk_built in 0u8..2,
            ops in proptest::collection::vec(arb_graph_op(), 0..40),
        ) {
            use rdf_model::{Component, UnprovedRows};
            use std::collections::BTreeSet;
            // 4 subjects × 4 properties (τ, ≺sc, two data properties) × 3
            // objects, over ids the dictionary holds.
            let mut rows = UnprovedRows::new();
            let ids: Vec<TermId> = (0..4)
                .map(|i| rows.dict_mut().encode_iri(format!("http://x/n{i}")))
                .collect();
            let p = [TermId(0), TermId(1), rows.dict_mut().encode_iri("p:a"), rows.dict_mut().encode_iri("p:b")];
            let universe: Vec<Triple> = (0..48)
                .map(|i| Triple::new(ids[i % 4], p[i / 4 % 4], ids[i / 16]))
                .collect();
            let wk = rows.well_known();
            let table = |t: Triple| match wk.component_of(t.p) {
                Component::Data => 0,
                Component::Type => 1,
                Component::Schema => 2,
            };

            let mut model: [Vec<Triple>; 3] = Default::default();
            let mut set: BTreeSet<Triple> = BTreeSet::new();
            let bulk_built = bulk_built == 1;
            let mut g = if bulk_built {
                // Repeats and all: the sort proves the rows or compacts
                // them, and says where — counting the tables end to end —
                // the first repeat sat.
                for &i in &start {
                    rows.push(universe[i]);
                }
                let end_to_end: Vec<Triple> = (0..3)
                    .flat_map(|c| start.iter().map(|&i| universe[i]).filter(move |&t| table(t) == c))
                    .collect();
                let first_repeat = (0..end_to_end.len())
                    .find(|&at| end_to_end[..at].contains(&end_to_end[at]));
                match rows.into_graph() {
                    Ok(g) => {
                        prop_assert_eq!(first_repeat, None);
                        g
                    }
                    Err(repeated) => {
                        prop_assert_eq!(Some(repeated.at), first_repeat);
                        *repeated.compacted
                    }
                }
            } else {
                let mut g: Graph = rows.into_graph().unwrap();
                for &i in &start {
                    g.insert_encoded(universe[i]);
                }
                g
            };
            for &i in &start {
                if set.insert(universe[i]) {
                    model[table(universe[i])].push(universe[i]);
                }
            }
            let mut has_set = !bulk_built && !start.is_empty();

            for op in ops {
                match op {
                    GraphOp::AppendDistinct(picks) => {
                        let mut fresh = Vec::new();
                        for i in picks {
                            if set.insert(universe[i]) {
                                model[table(universe[i])].push(universe[i]);
                                fresh.push(universe[i]);
                            }
                        }
                        g.append_distinct(fresh);
                    }
                    GraphOp::Insert(i) => {
                        let t = universe[i];
                        if set.insert(t) {
                            model[table(t)].push(t);
                        }
                        prop_assert_eq!(g.insert_encoded(t), (t, wk.component_of(t.p)));
                        has_set = true;
                    }
                    GraphOp::Contains(i) => {
                        prop_assert_eq!(g.contains(universe[i]), set.contains(&universe[i]));
                        has_set = true;
                    }
                    GraphOp::RemovePresent(picks) => {
                        let gone: Vec<Triple> =
                            picks.iter().map(|&i| universe[i]).filter(|t| set.remove(t)).collect();
                        for table in &mut model {
                            table.retain(|t| !gone.contains(t));
                        }
                        g.remove_present(&gone);
                    }
                    GraphOp::Clone => g = g.clone(),
                    GraphOp::ThroughAStore => {
                        let store = TripleStore::new(g);
                        prop_assert_eq!(store.len(), set.len());
                        prop_assert!(store.spo().as_slice().iter().eq(set.iter()));
                        g = store.into_graph();
                    }
                }
                prop_assert_eq!(g.components(), [&model[0][..], &model[1][..], &model[2][..]]);
                prop_assert_eq!(g.len(), set.len());
                prop_assert_eq!(g.has_hash_set(), has_set);
                // Membership is asked of a copy: asking builds the set, and
                // the graph under test is to reach later steps without one.
                let asked = g.clone();
                for &t in &universe {
                    prop_assert_eq!(asked.contains(t), set.contains(&t));
                }
                prop_assert_eq!(g.has_hash_set(), has_set);
            }
        }
    }

    /// Builds a graph from raw (s, p, o) byte tuples, in slice order.
    fn fp_graph(raw: &[(u8, u8, u8)]) -> Graph {
        let mut g = Graph::new();
        for (s, p, o) in raw {
            g.add_iri_triple(
                &format!("http://x/n{s}"),
                &format!("http://x/p{p}"),
                &format!("http://x/n{o}"),
            );
        }
        g
    }

    proptest! {
        /// Permutation invariance: any shuffle of the insertion order (which
        /// also permutes the dictionary numbering) produces the same
        /// fingerprint, from both the graph fold and the store's SPO fold.
        #[test]
        fn fingerprint_is_insertion_order_invariant(
            raw in proptest::collection::vec((0u8..12, 0u8..5, 0u8..12), 1..48),
            seed in 0u64..1000,
        ) {
            let mut shuffled = raw.clone();
            let mut rng = rdf_model::SplitMix64::new(seed);
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.index(i + 1));
            }
            let (a, b) = (fp_graph(&raw), fp_graph(&shuffled));
            let fp = fingerprint::graph_fingerprint(&a);
            prop_assert_eq!(fingerprint::graph_fingerprint(&b), fp);
            prop_assert_eq!(TripleStore::new(a).fingerprint(), fp);
            prop_assert_eq!(TripleStore::new(b).fingerprint(), fp);
        }

        /// Sensitivity: dropping or mutating a single triple changes the
        /// digest whenever it changes the distinct-triple set.
        #[test]
        fn fingerprint_sees_single_triple_edits(
            raw in proptest::collection::vec((0u8..12, 0u8..5, 0u8..12), 1..32),
            victim in 0usize..32,
            bump in 1u8..3,
        ) {
            let base = fingerprint::graph_fingerprint(&fp_graph(&raw));
            let victim = victim % raw.len();
            let distinct = |raw: &[(u8, u8, u8)]| {
                let mut v = raw.to_vec();
                v.sort_unstable();
                v.dedup();
                v
            };
            // Remove the victim triple.
            let mut removed = raw.clone();
            removed.remove(victim);
            if distinct(&removed) != distinct(&raw) {
                prop_assert_ne!(fingerprint::graph_fingerprint(&fp_graph(&removed)), base);
            }
            // Mutate the victim's object.
            let mut mutated = raw.clone();
            mutated[victim].2 = mutated[victim].2.wrapping_add(bump) % 13;
            if distinct(&mutated) != distinct(&raw) {
                prop_assert_ne!(fingerprint::graph_fingerprint(&fp_graph(&mutated)), base);
            }
            // Add a fresh triple (node 200 never occurs above).
            let mut added = raw.clone();
            added.push((200, 0, 0));
            prop_assert_ne!(fingerprint::graph_fingerprint(&fp_graph(&added)), base);
        }

        /// A graph and its snapshot-restored twin fingerprint identically,
        /// graph-fold and store-fold alike.
        #[test]
        fn fingerprint_survives_snapshot_roundtrip(
            raw in proptest::collection::vec((0u8..12, 0u8..5, 0u8..12), 0..32),
        ) {
            let g = fp_graph(&raw);
            let restored = snapshot::decode(&snapshot::encode(&g)).unwrap();
            let fp = fingerprint::graph_fingerprint(&g);
            prop_assert_eq!(fingerprint::graph_fingerprint(&restored), fp);
            prop_assert_eq!(TripleStore::new(restored).fingerprint(), fp);
        }

        /// v2 `encode ∘ decode` is the identity on graphs with minted
        /// terms: same triples, same ids, minted terms restored as minted
        /// terms with identical member IRIs and rendered URIs.
        #[test]
        fn v2_roundtrip_is_identity_on_minted_graphs(
            raw in proptest::collection::vec((0u8..8, 0u8..4, 0u8..8), 0..24),
            minted in proptest::collection::vec(
                (proptest::collection::vec(0u8..6, 0..4),
                 proptest::collection::vec(0u8..6, 0..4)),
                0..8,
            ),
        ) {
            use rdf_model::{MemberSet, MintedTerm, Term, TermRef};
            use std::sync::Arc;
            let mut g = fp_graph(&raw);
            let share = |ids: &[u8]| -> MemberSet {
                ids.iter().map(|i| Arc::from(format!("http://x/p{i}"))).collect()
            };
            for (i, (tc, sc)) in minted.iter().enumerate() {
                // Mix node keys (Nτ when both sides are empty) and
                // class-set keys, wired into data edges.
                let m: Term = if i % 3 == 2 && !tc.is_empty() {
                    MintedTerm::class_set(share(tc)).into()
                } else {
                    MintedTerm::node(share(tc), share(sc)).into()
                };
                g.insert(m, Term::iri(format!("http://x/p{}", i % 4)),
                         Term::iri(format!("http://x/n{i}"))).unwrap();
            }
            let restored = snapshot::decode(&snapshot::encode(&g)).unwrap();
            prop_assert_eq!(restored.len(), g.len());
            prop_assert_eq!(restored.dict().len(), g.dict().len());
            for t in g.iter() {
                prop_assert!(restored.contains(t));
            }
            for (id, term) in g.dict().iter() {
                let back = restored.dict().decode(id);
                match (term, back) {
                    (TermRef::Minted(a), TermRef::Minted(b)) => {
                        prop_assert_eq!(a.uri(), b.uri());
                        prop_assert_eq!(a.key().members(), b.key().members());
                    }
                    (a, b) => prop_assert_eq!(a, b),
                }
            }
        }

        /// The incrementally maintained fingerprint equals the full rescan
        /// after any random sequence of insert/delete batches — including
        /// no-op batches, in-batch duplicates, and delete-then-reinsert.
        #[test]
        fn incremental_fingerprint_matches_rescan(
            ops in proptest::collection::vec(
                (0u8..2, proptest::collection::vec((0u8..10, 0u8..4, 0u8..10), 0..8)),
                1..24,
            ),
        ) {
            let term3 = |&(s, p, o): &(u8, u8, u8)| (
                rdf_model::Term::iri(format!("http://x/n{s}")),
                rdf_model::Term::iri(format!("http://x/p{p}")),
                rdf_model::Term::iri(format!("http://x/n{o}")),
            );
            let mut st = TripleStore::new(Graph::new());
            for (is_insert, batch) in &ops {
                let batch: Vec<_> = batch.iter().map(term3).collect();
                let fp = if *is_insert == 1 {
                    st.insert_batch(&batch).unwrap().fingerprint
                } else {
                    st.delete_batch(&batch).fingerprint
                };
                // O(1) read-back agrees with the batch outcome…
                prop_assert_eq!(st.fingerprint(), fp);
                // …and with an order-independent full rescan of the content.
                prop_assert_eq!(fingerprint::graph_fingerprint(st.graph()), fp);
                // …and with a cold store over the same content (fresh
                // dictionary numbering, no incremental history).
                let mut twin = Graph::new();
                let dict = st.graph().dict();
                for t in st.graph().iter() {
                    twin.insert(
                        dict.decode(t.s).to_term(),
                        dict.decode(t.p).to_term(),
                        dict.decode(t.o).to_term(),
                    )
                    .unwrap();
                }
                prop_assert_eq!(TripleStore::new(twin).fingerprint(), fp);
            }
        }
    }
}
