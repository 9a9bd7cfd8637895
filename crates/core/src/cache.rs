//! The summary cache: one slot per `(content fingerprint, kind)`, filled
//! single-flight under an optional byte budget, beside the prune-verdict
//! memo.
//!
//! A miss and an `UPDATE` carry alike *claim* a slot, marking it in
//! flight; a second request for it waits on the condvar and shares the
//! result. A [`Claim`] dropped uninstalled (its build unwound) abandons the
//! slot, and a waiter becomes the new builder. Over the budget, the
//! least-recently-used Ready slots are evicted, never in-flight ones. The
//! memo keys each [`rdf_query::empty_on_summary`] verdict by content
//! fingerprint, kind and relaxed shape ([`rdf_query::prune_shape_key`]):
//! content-addressed, it stays sound across LRU eviction and reloads.
//!
//! Both mutexes are the innermost locks of the
//! [`SummaryService`](crate::SummaryService) lock order.

use crate::quotient::QuotientMap;
use crate::service::SummaryArtifact;
use crate::summary::SummaryKind;
use rdf_store::Fingerprint;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// A cache slot's key.
pub(crate) type Key = (Fingerprint, SummaryKind);

/// Key of one memoized pruning verdict: content fingerprint + summary
/// kind + the query's relaxed shape.
pub(crate) type PruneKey = (Fingerprint, SummaryKind, String);

/// Entry cap on the prune-verdict memo; when full, the map is cleared
/// (verdicts cost one summary ASK to recompute, so a rare full reset is
/// cheaper than per-entry LRU bookkeeping on the hot path).
const PRUNE_CACHE_CAP: usize = 65_536;

/// Cache slot state for one key.
pub(crate) enum Slot {
    /// Some thread holds the slot's [`Claim`]; waiters sleep on the condvar.
    Building,
    /// The finished artifact plus its budget accounting.
    Ready {
        artifact: Arc<SummaryArtifact>,
        /// The quotient map an `UPDATE` offers its batch to; `None` only
        /// for an artifact read from the persist dir (every build keeps
        /// its map).
        map: Option<Arc<QuotientMap>>,
        /// Budget cost of this entry: the serialized N-Triples size — the
        /// dominant, directly comparable share of an artifact's footprint
        /// (the indexed store and statistics scale with it).
        bytes: usize,
        /// Lamport stamp of the last use; the LRU victim is the minimum.
        last_used: u64,
    },
}

/// The slots plus the LRU clock and the figures the budget needs.
#[derive(Default)]
pub(crate) struct CacheState {
    pub(crate) slots: HashMap<Key, Slot>,
    /// Monotone use counter backing the `last_used` stamps.
    clock: u64,
    /// Sum of the `bytes` of all Ready slots.
    total_bytes: usize,
    /// Ready slots the budget evicted.
    evictions: u64,
}

impl CacheState {
    /// The oldest-stamped Ready slot: the LRU victim.
    fn lru(&self) -> Option<Key> {
        let ready = self.slots.iter().filter_map(|(key, slot)| match slot {
            Slot::Ready { last_used, .. } => Some((*last_used, *key)),
            Slot::Building => None,
        });
        let oldest = ready.min_by_key(|&(last_used, _)| last_used);
        oldest.map(|(_, key)| key)
    }

    /// Drops every Ready slot `doomed` selects, each taking its bytes off
    /// the total; in-flight slots stay (their waiters must still find
    /// them). Returns how many went.
    fn drop_ready(&mut self, doomed: impl Fn(&Key) -> bool) -> usize {
        let before = self.slots.len();
        let total = &mut self.total_bytes;
        self.slots.retain(|key, slot| match slot {
            Slot::Ready { bytes, .. } if doomed(key) => {
                *total -= *bytes;
                false
            }
            _ => true,
        });
        before - self.slots.len()
    }
}

/// One kind an `UPDATE` carries: its claimed new-fingerprint slot, and
/// the old fingerprint's artifact and map.
pub(crate) type Carry<'c> = (Claim<'c>, Arc<SummaryArtifact>, Option<Arc<QuotientMap>>);

/// The summary cache. See the module docs.
pub(crate) struct SummaryCache {
    pub(crate) state: Mutex<CacheState>,
    /// Signaled whenever a claimed slot is installed or abandoned.
    slot_done: Condvar,
    /// Byte budget for Ready slots; `None` = unbounded.
    pub(crate) budget: Option<usize>,
    prune_verdicts: Mutex<HashMap<PruneKey, bool>>,
}

impl SummaryCache {
    pub(crate) fn new(budget: Option<usize>) -> Self {
        SummaryCache {
            state: Mutex::default(),
            slot_done: Condvar::new(),
            budget,
            prune_verdicts: Mutex::default(),
        }
    }

    /// Marks `key` in flight and hands out its claim: the one way a slot
    /// is claimed, by a miss and by an `UPDATE` carry alike.
    fn claim(&self, state: &mut CacheState, key: Key) -> Claim<'_> {
        state.slots.insert(key, Slot::Building);
        Claim {
            cache: self,
            key,
            armed: true,
        }
    }

    /// The Ready artifact of `key`, stamped as just used; else, once no
    /// other thread has it in flight, the claim on it.
    pub(crate) fn get_or_claim(&self, key: Key) -> Result<Arc<SummaryArtifact>, Claim<'_>> {
        let mut state = self.state.lock().unwrap();
        loop {
            let CacheState { slots, clock, .. } = &mut *state;
            match slots.get_mut(&key) {
                Some(Slot::Ready {
                    artifact,
                    last_used,
                    ..
                }) => {
                    *clock += 1;
                    *last_used = *clock;
                    return Ok(Arc::clone(artifact));
                }
                Some(Slot::Building) => state = self.slot_done.wait(state).unwrap(),
                None => return Err(self.claim(&mut state, key)),
            }
        }
    }

    /// Claims, for every kind Ready under `previous` whose slot under
    /// `next` is absent, that slot — in [`SummaryKind::EVERY`]'s
    /// preference order — taking the old artifact and its map along.
    pub(crate) fn claim_carries(&self, previous: Fingerprint, next: Fingerprint) -> Vec<Carry<'_>> {
        let mut state = self.state.lock().unwrap();
        SummaryKind::EVERY
            .into_iter()
            .filter_map(|kind| {
                let (old, map) = match state.slots.get(&(previous, kind)) {
                    Some(Slot::Ready { artifact, map, .. })
                        if !state.slots.contains_key(&(next, kind)) =>
                    {
                        (Arc::clone(artifact), map.clone())
                    }
                    _ => return None,
                };
                Some((self.claim(&mut state, (next, kind)), old, map))
            })
            .collect()
    }

    /// The summary kind to consult when the caller expressed no
    /// preference: an already-cached Ready kind for this fingerprint,
    /// else a kind in flight for it (an `UPDATE` carrying it over, or
    /// another request building it — waiting for that build beats
    /// starting a second one inline), each in [`SummaryKind::EVERY`]'s
    /// fixed order so the choice is deterministic; else
    /// [`SummaryKind::Weak`].
    pub(crate) fn preferred_kind(&self, fingerprint: Fingerprint) -> SummaryKind {
        let state = self.state.lock().unwrap();
        let first = |ready: bool| {
            SummaryKind::EVERY.into_iter().find(|&k| {
                state
                    .slots
                    .get(&(fingerprint, k))
                    .is_some_and(|slot| matches!(slot, Slot::Ready { .. }) == ready)
            })
        };
        let kind = first(true).or_else(|| first(false));
        kind.unwrap_or(SummaryKind::Weak)
    }

    /// The memoized pruning verdict of `key`, if any.
    pub(crate) fn prune_verdict(&self, key: &PruneKey) -> Option<bool> {
        self.prune_verdicts.lock().unwrap().get(key).copied()
    }

    /// Memoizes a pruning verdict, clearing a full memo first.
    pub(crate) fn remember_verdict(&self, key: PruneKey, verdict: bool) {
        let mut memo = self.prune_verdicts.lock().unwrap();
        if memo.len() >= PRUNE_CACHE_CAP && !memo.contains_key(&key) {
            memo.clear();
        }
        memo.insert(key, verdict);
    }

    /// Drops every Ready slot and memoized verdict keyed by `fingerprint`
    /// (verdicts would stay *correct*, being content-addressed, but an
    /// unreferenced fingerprint's lines are dead weight). Returns the
    /// number of slots dropped.
    pub(crate) fn drop_fingerprint(&self, fingerprint: Fingerprint) -> usize {
        self.prune_verdicts
            .lock()
            .unwrap()
            .retain(|(fp, _, _), _| *fp != fingerprint);
        let mut state = self.state.lock().unwrap();
        state.drop_ready(|(fp, _)| *fp == fingerprint)
    }

    /// Drops every Ready slot and the whole memo. Returns the number of
    /// slots dropped.
    pub(crate) fn clear(&self) -> usize {
        self.prune_verdicts.lock().unwrap().clear();
        self.state.lock().unwrap().drop_ready(|_| true)
    }

    /// `(Ready slots, their bytes, budget evictions so far)`.
    pub(crate) fn figures(&self) -> (usize, usize, u64) {
        let state = self.state.lock().unwrap();
        let ready = state.slots.values();
        let ready = ready.filter(|s| matches!(s, Slot::Ready { .. })).count();
        (ready, state.total_bytes, state.evictions)
    }
}

/// One claimed (in-flight) slot.
pub(crate) struct Claim<'c> {
    cache: &'c SummaryCache,
    key: Key,
    armed: bool,
}

impl Claim<'_> {
    /// Replaces the claimed marker with `artifact` and its map, evicts
    /// down to the budget and wakes the slot's waiters.
    pub(crate) fn install(mut self, artifact: &Arc<SummaryArtifact>, map: Option<QuotientMap>) {
        let mut state = self.cache.state.lock().unwrap();
        let bytes = artifact.ntriples.len();
        state.clock += 1;
        let ready = Slot::Ready {
            artifact: Arc::clone(artifact),
            map: map.map(Arc::new),
            bytes,
            last_used: state.clock,
        };
        state.slots.insert(self.key, ready);
        state.total_bytes += bytes;
        while self.cache.budget.is_some_and(|b| state.total_bytes > b) {
            let Some(victim) = state.lru() else {
                break; // only in-flight slots left: nothing evictable
            };
            state.drop_ready(|key| *key == victim);
            state.evictions += 1;
        }
        drop(state);
        self.armed = false;
        self.cache.slot_done.notify_all();
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut state = self.cache.state.lock().unwrap();
            if matches!(state.slots.get(&self.key), Some(Slot::Building)) {
                state.slots.remove(&self.key);
            }
            drop(state);
            self.cache.slot_done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::SummaryCardinality;
    use proptest::prelude::*;
    use rdf_store::TripleStore;

    /// What the model holds per key: in flight, or Ready with its bytes
    /// and stamp.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Model {
        Building,
        Ready { bytes: usize, last_used: u64 },
    }

    /// An artifact of `bytes` serialized bytes for `key`.
    fn artifact(key: Key, bytes: usize) -> Arc<SummaryArtifact> {
        Arc::new(SummaryArtifact {
            kind: key.1,
            fingerprint: key.0,
            ntriples: "x".repeat(bytes),
            summary_nodes: 0,
            summary_edges: 0,
            input_triples: 0,
            summary_store: TripleStore::new(rdf_model::Graph::new()),
            cardinality: SummaryCardinality::from_parts(Default::default(), Default::default(), 0),
        })
    }

    const BUDGET: usize = 64;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random claims, installs, abandons, drops by fingerprint and
        /// clears under a small budget, against a plain map: after every
        /// step the Ready bytes add up, the Ready count is the model's,
        /// budget evictions took the oldest-stamped Ready slot, and no
        /// in-flight slot was ever evicted, dropped or cleared.
        #[test]
        fn byte_accounting_matches_a_model(
            ops in proptest::collection::vec((0u8..6, 0usize..12, 1usize..40), 1..120),
        ) {
            let cache = SummaryCache::new(Some(BUDGET));
            let fingerprint = |i: usize| Fingerprint { hi: 1, lo: (i % 3) as u64 };
            let key_of = |i: usize| (fingerprint(i), SummaryKind::EVERY[i % SummaryKind::EVERY.len()]);
            let mut model: HashMap<Key, Model> = HashMap::new();
            let (mut clock, mut evictions) = (0u64, 0u64);
            let mut claims: Vec<Claim<'_>> = Vec::new();
            for (op, i, bytes) in ops {
                match op {
                    // Look up (hit) or claim.
                    0 | 1 => {
                        let key = key_of(i);
                        match model.get_mut(&key) {
                            Some(Model::Building) => continue,
                            Some(Model::Ready { last_used, .. }) => {
                                clock += 1;
                                *last_used = clock;
                                prop_assert!(cache.get_or_claim(key).is_ok());
                            }
                            None => {
                                model.insert(key, Model::Building);
                                let claim = cache.get_or_claim(key);
                                prop_assert!(claim.is_err());
                                claims.extend(claim.err());
                            }
                        }
                    }
                    // Install a held claim, then evict down to the budget.
                    2 | 3 if !claims.is_empty() => {
                        let claim = claims.swap_remove(i % claims.len());
                        clock += 1;
                        model.insert(claim.key, Model::Ready { bytes, last_used: clock });
                        let key = claim.key;
                        claim.install(&artifact(key, bytes), None);
                        loop {
                            let total: usize = model.values().map(|m| match m {
                                Model::Ready { bytes, .. } => *bytes,
                                Model::Building => 0,
                            }).sum();
                            if total <= BUDGET {
                                break;
                            }
                            let victim = model
                                .iter()
                                .filter_map(|(k, m)| match m {
                                    Model::Ready { last_used, .. } => Some((*last_used, *k)),
                                    Model::Building => None,
                                })
                                .min_by_key(|&(t, _)| t)
                                .map(|(_, k)| k)
                                .expect("the installed slot is Ready");
                            model.remove(&victim);
                            evictions += 1;
                        }
                    }
                    // Abandon a held claim.
                    4 if !claims.is_empty() => {
                        let claim = claims.swap_remove(i % claims.len());
                        model.remove(&claim.key);
                        drop(claim);
                    }
                    // Drop one fingerprint's lines, or clear.
                    4 | 5 => {
                        let fp = fingerprint(i);
                        let doomed = |k: &Key| i >= 9 || k.0 == fp;
                        let before = model.len();
                        model.retain(|k, m| *m == Model::Building || !doomed(k));
                        let dropped = if i >= 9 {
                            cache.clear()
                        } else {
                            cache.drop_fingerprint(fp)
                        };
                        prop_assert_eq!(dropped, before - model.len());
                    }
                    _ => continue,
                }
                let state = cache.state.lock().unwrap();
                let actual: HashMap<Key, Model> = state
                    .slots
                    .iter()
                    .map(|(k, slot)| {
                        let m = match slot {
                            Slot::Building => Model::Building,
                            Slot::Ready { bytes, last_used, .. } => Model::Ready {
                                bytes: *bytes,
                                last_used: *last_used,
                            },
                        };
                        (*k, m)
                    })
                    .collect();
                let lru = state.lru();
                drop(state);
                prop_assert_eq!(&actual, &model);
                let ready: Vec<(u64, Key, usize)> = model
                    .iter()
                    .filter_map(|(k, m)| match m {
                        Model::Ready { bytes, last_used } => Some((*last_used, *k, *bytes)),
                        Model::Building => None,
                    })
                    .collect();
                let bytes: usize = ready.iter().map(|r| r.2).sum();
                prop_assert_eq!(cache.figures(), (ready.len(), bytes, evictions));
                prop_assert_eq!(lru, ready.iter().min_by_key(|r| r.0).map(|r| r.1));
            }
        }
    }
}
