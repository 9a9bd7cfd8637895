//! The embedded triple store.
//!
//! Stands in for the paper's PostgreSQL back-end (§6): it owns a
//! dictionary-encoded [`Graph`] (the "encoded triples table", already split
//! into data/type/schema tables) and maintains three sorted permutation
//! indices so that every triple pattern is answered by a binary-searched
//! contiguous range. Summarization algorithms scan the component tables
//! sequentially, exactly like the paper's `SELECT s, p, o FROM D_G`; the
//! query engine uses the indices.
//!
//! # The SPO index is the set
//!
//! The paper's loader leaves de-duplication to the encoded table (§6), and
//! so does this one. The index build sorts the rows and drops repeats, so a
//! store built from rows nobody has proved distinct ([`UnprovedRows`], what
//! the N-Triples loader and the snapshot decoder produce) proves them by
//! comparing two lengths ([`TripleStore::from_rows`]). From then on
//! membership is a search of SPO: [`TripleStore::insert_batch`] and
//! [`TripleStore::delete_batch`] decide what is new or present with the
//! galloped search that finds each triple's slot, and hand the graph rows it
//! can take on trust ([`Graph::append_distinct`] /
//! [`Graph::remove_present`]). Nothing a store does builds or probes the
//! graph's own hash set — an `UPDATE` under the exclusive lock least of all.

use crate::fingerprint::{Fingerprint, FingerprintState};
use crate::index::{Order, SortedIndex};
use crate::pattern::TriplePattern;
use rdf_model::{check_triple, Graph, ModelError, Repeated, Term, TermId, Triple, UnprovedRows};
use std::sync::Mutex;

/// Outcome of one batch mutation ([`TripleStore::insert_batch`] /
/// [`TripleStore::delete_batch`]).
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// The encoded triples genuinely inserted/removed (duplicates and
    /// already-present/absent triples excluded), in application order.
    pub applied: Vec<Triple>,
    /// Content fingerprint after the batch — maintained incrementally, so
    /// reading it here costs O(1) beyond the delta itself.
    pub fingerprint: Fingerprint,
}

/// A read-optimized triple store over an RDF graph.
///
/// The store is built once from a graph and mutated only through the
/// delta-aware batch APIs ([`TripleStore::insert_batch`] /
/// [`TripleStore::delete_batch`]), which keep the three permutation
/// indices and the content fingerprint fresh in O(delta + merge).
#[derive(Debug)]
pub struct TripleStore {
    graph: Graph,
    spo: SortedIndex,
    pos: SortedIndex,
    osp: SortedIndex,
    /// Lazily populated incremental fingerprint state (lane sums + the
    /// per-term digest cache). Owned by this store, so it is reclaimed
    /// when the store is dropped/evicted.
    fingerprint: Mutex<Option<FingerprintState>>,
}

impl Clone for TripleStore {
    fn clone(&self) -> Self {
        TripleStore {
            graph: self.graph.clone(),
            spo: self.spo.clone(),
            pos: self.pos.clone(),
            osp: self.osp.clone(),
            fingerprint: Mutex::new(self.fingerprint.lock().unwrap().clone()),
        }
    }
}

/// The SPO, POS and OSP indices over `parts` taken end to end — one
/// [`SortedIndex::build_from`] each, concurrently on its own scoped thread
/// when `threads > 1` (three is all the parallelism there is: a build is
/// three counting passes whose count tables are sized by the ids, so
/// splitting one across workers multiplies the tables — measured slower,
/// CHANGES.md PR 21). The indices are the same at any count.
fn build_indices(parts: &[&[Triple]], threads: usize) -> [SortedIndex; 3] {
    let orders = [Order::Spo, Order::Pos, Order::Osp];
    let build = |order| SortedIndex::build_from(order, parts);
    if threads > 1 {
        std::thread::scope(|scope| {
            orders
                .map(|order| scope.spawn(move || build(order)))
                .map(|index| index.join().expect("an index build does not panic"))
        })
    } else {
        orders.map(build)
    }
}

impl TripleStore {
    /// Builds a store (and its indices) from a graph, on the calling
    /// thread.
    pub fn new(graph: Graph) -> Self {
        Self::with_threads(graph, 1)
    }

    /// [`TripleStore::new`] with the three permutation indices built
    /// concurrently when `threads > 1`.
    pub fn with_threads(graph: Graph, threads: usize) -> Self {
        // A graph's rows are distinct, so the proof cannot fail.
        Self::from_rows(graph.into(), threads).unwrap_or_else(|repeated| *repeated.compacted)
    }

    /// Builds a store from rows not yet proved distinct — the one
    /// constructor body. The index builds drop repeats, so `spo.len() ==
    /// rows` *is* the proof that the rows are a graph's, and costs nothing.
    /// When it fails the rows are compacted to their first occurrences
    /// (the indices, being sets already, stand) and the store comes back as
    /// [`Repeated`], with the position of the first repeat: a loader whose
    /// format allows repeated lines takes `compacted`, a decoder for which
    /// a repeat is damage reports `at`.
    pub fn from_rows(rows: UnprovedRows, threads: usize) -> Result<Self, Repeated<Self>> {
        let [spo, pos, osp] = build_indices(&rows.components(), threads);
        let distinct = spo.len();
        let store = |graph| TripleStore {
            graph,
            spo,
            pos,
            osp,
            fingerprint: Mutex::new(None),
        };
        match rows.proved_by(distinct) {
            Ok(graph) => Ok(store(graph)),
            Err(Repeated { at, compacted }) => Err(Repeated {
                at,
                compacted: Box::new(store(*compacted)),
            }),
        }
    }

    /// The incremental fingerprint slot (lazily populated by
    /// [`TripleStore::fingerprint`], maintained by the batch APIs).
    pub(crate) fn fingerprint_state(&self) -> &Mutex<Option<FingerprintState>> {
        &self.fingerprint
    }

    /// Inserts a batch of term triples, keeping the permutation indices and
    /// the content fingerprint fresh without a full rebuild: each index
    /// absorbs the delta with one linear merge
    /// ([`SortedIndex::insert_merge`]), and the fingerprint's commutative
    /// lane sums advance by the delta's lanes only.
    ///
    /// The batch is atomic with respect to validation: every triple is
    /// checked first (see [`check_triple`]) and a bad one rejects the whole
    /// batch without mutating anything. Triples already present (or
    /// duplicated within the batch) are skipped; `applied` reports what
    /// actually landed. What is already present is decided by the SPO
    /// merge's own slot search — the graph's hash set is neither probed nor
    /// built.
    pub fn insert_batch(
        &mut self,
        triples: &[(Term, Term, Term)],
    ) -> Result<BatchOutcome, ModelError> {
        for (s, p, o) in triples {
            check_triple(s, p, o)?;
        }
        self.ensure_fingerprint_state();
        let dict = self.graph.dict_mut();
        let batch: Vec<Triple> = triples
            .iter()
            .map(|(s, p, o)| {
                let [s, p, o] = [s, p, o].map(|term| dict.encode_ref(term.as_term_ref()));
                Triple::new(s, p, o)
            })
            .collect();
        let applied = in_application_order(&batch, &self.spo.insert_merge(&batch));
        self.pos.insert_merge(&applied);
        self.osp.insert_merge(&applied);
        self.graph.append_distinct(applied.iter().copied());
        let fingerprint = {
            let mut slot = self.fingerprint.lock().unwrap();
            let state = slot.as_mut().expect("ensured above");
            state.sync_terms(&self.graph);
            for &t in &applied {
                state.add(t);
            }
            debug_assert!(
                state.matches_rescan(&self.graph, self.spo.as_slice()),
                "incremental fingerprint diverged from full rescan after insert"
            );
            state.finish()
        };
        Ok(BatchOutcome {
            applied,
            fingerprint,
        })
    }

    /// Deletes a batch of term triples; the mirror image of
    /// [`TripleStore::insert_batch`] (linear index merges, lane-sum
    /// subtraction, presence decided by the SPO merge). Triples whose terms
    /// are unknown to the dictionary, or that are simply absent, are
    /// skipped — deletion never fails. Dictionary entries are never
    /// reclaimed, so re-inserting a deleted triple restores the exact
    /// fingerprint it had before.
    pub fn delete_batch(&mut self, triples: &[(Term, Term, Term)]) -> BatchOutcome {
        self.ensure_fingerprint_state();
        let dict = self.graph.dict();
        let mut encoded = Vec::new();
        for (s, p, o) in triples {
            if let (Some(s), Some(p), Some(o)) = (dict.lookup(s), dict.lookup(p), dict.lookup(o)) {
                encoded.push(Triple::new(s, p, o));
            }
        }
        let applied = in_application_order(&encoded, &self.spo.remove_merge(&encoded));
        self.pos.remove_merge(&applied);
        self.osp.remove_merge(&applied);
        self.graph.remove_present(&applied);
        let fingerprint = {
            let mut slot = self.fingerprint.lock().unwrap();
            let state = slot.as_mut().expect("ensured above");
            for &t in &applied {
                state.sub(t);
            }
            debug_assert!(
                state.matches_rescan(&self.graph, self.spo.as_slice()),
                "incremental fingerprint diverged from full rescan after delete"
            );
            state.finish()
        };
        BatchOutcome {
            applied,
            fingerprint,
        }
    }

    fn ensure_fingerprint_state(&mut self) {
        let mut slot = self.fingerprint.lock().unwrap();
        if slot.is_none() {
            *slot = Some(FingerprintState::compute(&self.graph, self.spo.as_slice()));
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Consumes the store, returning the graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// The SPO permutation index (triples grouped by subject).
    pub fn spo(&self) -> &SortedIndex {
        &self.spo
    }

    /// The POS permutation index (triples grouped by property).
    pub fn pos(&self) -> &SortedIndex {
        &self.pos
    }

    /// The OSP permutation index (triples grouped by object).
    pub fn osp(&self) -> &SortedIndex {
        &self.osp
    }

    /// Number of stored triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// True when the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Matches a triple pattern, returning the triples in some index order.
    ///
    /// Index selection:
    ///
    /// | bound | index | access |
    /// |-------|-------|--------|
    /// | s p o | SPO   | membership |
    /// | s p _ | SPO   | range (s,p) |
    /// | s _ o | OSP   | range (o,s) |
    /// | s _ _ | SPO   | range (s) |
    /// | _ p o | POS   | range (p,o) |
    /// | _ p _ | POS   | range (p) |
    /// | _ _ o | OSP   | range (o) |
    /// | _ _ _ | SPO   | full scan |
    pub fn scan(&self, pat: TriplePattern) -> &[Triple] {
        match (pat.s, pat.p, pat.o) {
            (Some(s), Some(p), Some(o)) => {
                let t = Triple::new(s, p, o);
                if self.spo.contains(t) {
                    // Return the singleton slice out of the SPO index.
                    let r = self.spo.range2(s.0, p.0);
                    let i = r.iter().position(|&u| u == t).unwrap();
                    &r[i..=i]
                } else {
                    &[]
                }
            }
            (Some(s), Some(p), None) => self.spo.range2(s.0, p.0),
            (Some(s), None, Some(o)) => self.osp.range2(o.0, s.0),
            (Some(s), None, None) => self.spo.range1(s.0),
            (None, Some(p), Some(o)) => self.pos.range2(p.0, o.0),
            (None, Some(p), None) => self.pos.range1(p.0),
            (None, None, Some(o)) => self.osp.range1(o.0),
            (None, None, None) => self.spo.as_slice(),
        }
    }

    /// Number of triples matching a pattern, without materializing them
    /// (constant work beyond two binary searches). Used by the query planner
    /// as an exact selectivity measure.
    pub fn count(&self, pat: TriplePattern) -> usize {
        self.scan(pat).len()
    }

    /// Does any triple match the pattern?
    pub fn any(&self, pat: TriplePattern) -> bool {
        !self.scan(pat).is_empty()
    }

    /// Membership test for a fully bound triple.
    pub fn contains(&self, t: Triple) -> bool {
        self.spo.contains(t)
    }

    /// Distinct subjects of triples with property `p` (ascending).
    pub fn subjects_of_property(&self, p: TermId) -> Vec<TermId> {
        let mut v: Vec<TermId> = self
            .scan(TriplePattern::new(None, Some(p), None))
            .iter()
            .map(|t| t.s)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Distinct objects of triples with property `p` (ascending).
    pub fn objects_of_property(&self, p: TermId) -> Vec<TermId> {
        // POS order is already grouped by object within a property.
        let mut v: Vec<TermId> = self
            .scan(TriplePattern::new(None, Some(p), None))
            .iter()
            .map(|t| t.o)
            .collect();
        v.dedup();
        v.sort_unstable();
        v
    }
}

/// The triples of `batch` that a merge reported as `hit` (ascending in SPO
/// order, each once), in the order the batch first names them — what
/// [`BatchOutcome::applied`] promises. A repeat inside the batch finds its
/// hit already taken; both lists are batch-sized.
fn in_application_order(batch: &[Triple], hit: &[Triple]) -> Vec<Triple> {
    let mut taken = vec![false; hit.len()];
    batch
        .iter()
        .copied()
        .filter(|t| match hit.binary_search(t) {
            Ok(i) => !std::mem::replace(&mut taken[i], true),
            Err(_) => false,
        })
        .collect()
}

impl From<Graph> for TripleStore {
    fn from(g: Graph) -> Self {
        TripleStore::new(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{vocab, TermRef};

    fn store() -> TripleStore {
        let mut g = Graph::new();
        g.add_iri_triple("a", "p", "b");
        g.add_iri_triple("a", "p", "c");
        g.add_iri_triple("b", "p", "c");
        g.add_iri_triple("a", "q", "b");
        g.add_iri_triple("a", vocab::RDF_TYPE, "C");
        TripleStore::new(g)
    }

    fn id(st: &TripleStore, s: &str) -> TermId {
        st.graph().dict().lookup(&rdf_model::Term::iri(s)).unwrap()
    }

    #[test]
    fn all_eight_access_paths() {
        let st = store();
        let (a, b, c, p, q) = (
            id(&st, "a"),
            id(&st, "b"),
            id(&st, "c"),
            id(&st, "p"),
            id(&st, "q"),
        );
        // s p o
        assert_eq!(
            st.scan(TriplePattern::new(Some(a), Some(p), Some(b))).len(),
            1
        );
        assert_eq!(
            st.scan(TriplePattern::new(Some(a), Some(p), Some(a))).len(),
            0
        );
        // s p _
        assert_eq!(st.scan(TriplePattern::new(Some(a), Some(p), None)).len(), 2);
        // s _ o
        assert_eq!(st.scan(TriplePattern::new(Some(a), None, Some(b))).len(), 2); // p and q

        // s _ _
        assert_eq!(st.scan(TriplePattern::new(Some(a), None, None)).len(), 4);
        // _ p o
        assert_eq!(st.scan(TriplePattern::new(None, Some(p), Some(c))).len(), 2);
        // _ p _
        assert_eq!(st.scan(TriplePattern::new(None, Some(p), None)).len(), 3);
        assert_eq!(st.scan(TriplePattern::new(None, Some(q), None)).len(), 1);
        // _ _ o
        assert_eq!(st.scan(TriplePattern::new(None, None, Some(c))).len(), 2);
        // _ _ _
        assert_eq!(st.scan(TriplePattern::ANY).len(), 5);
    }

    #[test]
    fn scans_agree_with_naive_filter() {
        let st = store();
        let all: Vec<Triple> = st.graph().iter().collect();
        let ids: Vec<Option<TermId>> = {
            let mut v = vec![None];
            v.extend(all.iter().flat_map(|t| [Some(t.s), Some(t.p), Some(t.o)]));
            v.sort_unstable();
            v.dedup();
            v
        };
        for &s in &ids {
            for &p in &ids {
                for &o in &ids {
                    let pat = TriplePattern::new(s, p, o);
                    let mut expect: Vec<Triple> =
                        all.iter().copied().filter(|&t| pat.matches(t)).collect();
                    let mut got: Vec<Triple> = st.scan(pat).to_vec();
                    expect.sort_unstable();
                    got.sort_unstable();
                    assert_eq!(got, expect, "pattern {pat:?}");
                }
            }
        }
    }

    #[test]
    fn count_and_any() {
        let st = store();
        let p = id(&st, "p");
        assert_eq!(st.count(TriplePattern::new(None, Some(p), None)), 3);
        assert!(st.any(TriplePattern::new(None, Some(p), None)));
        let fresh = TermId(u32::MAX - 1);
        assert!(!st.any(TriplePattern::new(Some(fresh), None, None)));
    }

    #[test]
    fn with_threads_builds_identical_indices() {
        let st = store();
        for threads in [1, 2, 3, 8] {
            let par = TripleStore::with_threads(st.graph().clone(), threads);
            assert_eq!(par.spo().as_slice(), st.spo().as_slice(), "{threads}");
            assert_eq!(par.pos().as_slice(), st.pos().as_slice(), "{threads}");
            assert_eq!(par.osp().as_slice(), st.osp().as_slice(), "{threads}");
        }
    }

    /// Rows that are a set build a store without anything being probed;
    /// rows with repeats build the same store, compacted to their first
    /// occurrences, and say where the first repeat sat.
    #[test]
    fn from_rows_proves_or_compacts() {
        // The content of `store()`; two rows listed twice on request.
        let rows = |repeats: bool| {
            let mut rows = UnprovedRows::new();
            let mut push = |s, p, o| {
                rows.push_ref(TermRef::Iri(s), TermRef::Iri(p), TermRef::Iri(o))
                    .unwrap()
            };
            push("a", "p", "b");
            push("a", vocab::RDF_TYPE, "C");
            push("a", "p", "c");
            if repeats {
                push("a", "p", "b"); // data row 2 repeats data row 0
            }
            push("b", "p", "c");
            if repeats {
                push("a", vocab::RDF_TYPE, "C"); // type row 1 repeats type row 0
            }
            push("a", "q", "b");
            rows
        };
        for threads in [1, 2] {
            let proved = TripleStore::from_rows(rows(false), threads).expect("no row repeats");
            let repeated = TripleStore::from_rows(rows(true), threads).expect_err("two rows do");
            // Tables end to end: the four data rows come first.
            assert_eq!(repeated.at, 2);
            for st in [&proved, &*repeated.compacted] {
                assert!(!st.graph().has_hash_set());
                assert_eq!(st.graph().components(), proved.graph().components());
                assert_eq!(st.spo().as_slice(), proved.spo().as_slice());
                assert_eq!(st.pos().as_slice(), proved.pos().as_slice());
                assert_eq!(st.osp().as_slice(), proved.osp().as_slice());
                assert_eq!(st.fingerprint(), store().fingerprint());
            }
        }
    }

    fn iri3(s: &str, p: &str, o: &str) -> (rdf_model::Term, rdf_model::Term, rdf_model::Term) {
        (
            rdf_model::Term::iri(s),
            rdf_model::Term::iri(p),
            rdf_model::Term::iri(o),
        )
    }

    #[test]
    fn insert_batch_updates_indices_and_fingerprint() {
        let mut st = store();
        let cold_fp = st.fingerprint();
        let out = st
            .insert_batch(&[
                iri3("z", "p", "w"),
                iri3("z", "p", "w"), // in-batch duplicate
                iri3("a", "p", "b"), // already present
                iri3("z", "q", "w"),
            ])
            .unwrap();
        assert_eq!(out.applied.len(), 2);
        assert_eq!(st.len(), 7);
        assert_ne!(out.fingerprint, cold_fp);
        // Indices match a from-scratch rebuild.
        let fresh = TripleStore::new(st.graph().clone());
        assert_eq!(st.spo().as_slice(), fresh.spo().as_slice());
        assert_eq!(st.pos().as_slice(), fresh.pos().as_slice());
        assert_eq!(st.osp().as_slice(), fresh.osp().as_slice());
        assert_eq!(out.fingerprint, fresh.fingerprint());
        let p = id(&st, "p");
        assert_eq!(st.count(TriplePattern::new(None, Some(p), None)), 4);
    }

    #[test]
    fn insert_batch_rejects_invalid_without_mutating() {
        let mut st = store();
        let fp = st.fingerprint();
        let bad = (
            rdf_model::Term::literal("lit"),
            rdf_model::Term::iri("p"),
            rdf_model::Term::iri("o"),
        );
        assert!(st.insert_batch(&[iri3("z", "p", "w"), bad]).is_err());
        assert_eq!(st.len(), 5);
        assert_eq!(st.fingerprint(), fp);
    }

    #[test]
    fn delete_batch_updates_indices_and_fingerprint() {
        let mut st = store();
        let fp0 = st.fingerprint();
        let out = st.delete_batch(&[
            iri3("a", "p", "b"),
            iri3("a", "p", "b"),       // in-batch duplicate
            iri3("never", "was", "x"), // unknown terms: no-op
            iri3("a", "q", "c"),       // absent triple: no-op
        ]);
        assert_eq!(out.applied.len(), 1);
        assert_eq!(st.len(), 4);
        let fresh = TripleStore::new(st.graph().clone());
        assert_eq!(st.spo().as_slice(), fresh.spo().as_slice());
        assert_eq!(st.pos().as_slice(), fresh.pos().as_slice());
        assert_eq!(st.osp().as_slice(), fresh.osp().as_slice());
        assert_eq!(out.fingerprint, fresh.fingerprint());
        // Delete-then-reinsert restores the exact fingerprint.
        let back = st.insert_batch(&[iri3("a", "p", "b")]).unwrap();
        assert_eq!(back.fingerprint, fp0);
    }

    #[test]
    fn empty_batches_are_noops() {
        let mut st = store();
        let fp = st.fingerprint();
        let ins = st.insert_batch(&[]).unwrap();
        assert!(ins.applied.is_empty());
        assert_eq!(ins.fingerprint, fp);
        let del = st.delete_batch(&[]);
        assert!(del.applied.is_empty());
        assert_eq!(del.fingerprint, fp);
        assert_eq!(st.len(), 5);
    }

    #[test]
    fn clone_carries_fingerprint_state() {
        let mut st = store();
        let fp = st.fingerprint();
        let cl = st.clone();
        assert_eq!(cl.digest_cache_len(), st.digest_cache_len());
        assert_eq!(cl.fingerprint(), fp);
        // Clones diverge independently.
        let out = st.insert_batch(&[iri3("z", "p", "w")]).unwrap();
        assert_ne!(out.fingerprint, cl.fingerprint());
    }

    #[test]
    fn distinct_subject_object_helpers() {
        let st = store();
        let p = id(&st, "p");
        let subs = st.subjects_of_property(p);
        assert_eq!(subs.len(), 2); // a, b
        let objs = st.objects_of_property(p);
        assert_eq!(objs.len(), 2); // b, c
    }
}
