//! `UPDATE`: a batch changes a resident graph, and every summary cached
//! for its old content is carried to the new one — patched through its
//! quotient map, or rebuilt.

use crate::cardinality::SummaryCardinality;
use crate::context::{Delta, SummaryContext};
use crate::quotient::{QuotientMap, Refusal};
use crate::service::{bump, GraphEntry, ServiceError, SummaryArtifact, SummaryService};
use rdf_model::{Term, Triple};
use rdf_store::Fingerprint;
use std::sync::{PoisonError, RwLockWriteGuard};

/// Outcome of [`SummaryService::update`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Content fingerprint before the batch.
    pub previous: Fingerprint,
    /// Content fingerprint after the batch (equals `previous` when the
    /// batch was a no-op — every triple already present/absent).
    pub fingerprint: Fingerprint,
    /// Triples genuinely inserted/removed.
    pub applied: usize,
    /// Cached summaries carried to the new fingerprint by extending their
    /// quotient maps: the batch left them as they were.
    pub patched: usize,
    /// Cached summaries carried to the new fingerprint by a rebuild from
    /// the graph's kept substrate, their maps having refused the batch.
    pub rebuilt: usize,
}

impl SummaryService {
    /// Applies an `UPDATE` batch to the graph loaded as `name` —
    /// `insert == true` adds triples, `false` removes them — and carries
    /// the cached summaries across the fingerprint transition, in one
    /// straight line:
    ///
    /// 1. **Merge**: the store absorbs the batch in O(delta · log n) plus
    ///    one in-place shift per index, with an incremental fingerprint
    ///    ([`rdf_store::TripleStore::insert_batch`]). Insert batches are
    ///    atomic: one malformed triple rejects the whole batch with
    ///    [`ServiceError::BadUpdate`] and no state changes.
    /// 2. **Substrate**: the kept [`crate::Substrate`] absorbs the rows an
    ///    insert appended or retracts the rows a delete removed, reporting
    ///    what changed — or, when it cannot carry the batch (a delete that
    ///    would move a first-seen number, a first property, a clique or a
    ///    class set; a resource typed after its data was linked), is
    ///    dropped, and the next build scans the new content.
    /// 3. **Claim** the new fingerprint's slot of every kind cached for the
    ///    old one, unless present already (another resident name with that
    ///    content got there first).
    /// 4. **Downgrade** the graph's lock, held exclusively until here, to
    ///    shared: readers see the new content at once; a `QUERY` that names
    ///    no kind waits for its preferred kind only (never answers
    ///    un-pruned or from the old summary), and `SUMMARIZE k` for `k`.
    /// 5. **Carry** each claimed kind, the one `QUERY` prefers first: its
    ///    quotient map extends or retracts by the batch when the batch
    ///    provably leaves the summary as it was — the new artifact shares
    ///    the old body, with statistics re-derived from the moved extents
    ///    (*patched*); else the kind is rebuilt exactly as a miss builds it
    ///    and the refusal is counted by reason (see [`crate::ServiceStats`]).
    ///    A rebuild counts in `builds` and `patch_fallbacks`, keeping
    ///    `builds == patch_fallbacks + misses`.
    ///
    /// Writers to one graph queue on its gate, out of the readers' way. The
    /// call returns once every carried kind is installed, and releases the
    /// old fingerprint's cache lines, prune verdicts and persisted slots
    /// unless another resident graph still has that content.
    pub fn update(
        &self,
        name: &str,
        insert: bool,
        triples: &[(Term, Term, Term)],
    ) -> Result<UpdateOutcome, ServiceError> {
        let graph = self.resident(name)?;
        let _writer = graph
            .writer_gate
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut entry = graph.entry.write().unwrap();
        let previous = entry.fingerprint;
        let batch = if insert {
            entry
                .store
                .insert_batch(triples)
                .map_err(|e| ServiceError::BadUpdate(e.to_string()))?
        } else {
            entry.store.delete_batch(triples)
        };
        bump(&self.counters.updates);
        let mut outcome = UpdateOutcome {
            previous,
            fingerprint: batch.fingerprint,
            applied: batch.applied.len(),
            patched: 0,
            rebuilt: 0,
        };
        if batch.applied.is_empty() {
            // No-op batch: content, fingerprint, and cache are untouched.
            outcome.fingerprint = previous;
            return Ok(outcome);
        }
        entry.fingerprint = batch.fingerprint;
        // Readers are still locked out, so none meets the substrate
        // half-changed; a step works on the value out of its cell and puts
        // it back only when it succeeds.
        let GraphEntry {
            store, substrate, ..
        } = &mut *entry;
        let mut delta = None;
        if let Some(mut kept) = substrate.take() {
            let (stepped, counter) = if insert {
                (kept.absorb(store.graph()), &self.counters.substrate_absorbs)
            } else {
                let retracted = kept.retract(store, &batch.applied);
                (retracted, &self.counters.substrate_retracts)
            };
            if let Ok(stepped) = stepped {
                bump(counter);
                delta = Some(stepped);
                let _ = substrate.set(kept);
            }
        }
        // Claimed while still exclusive: a reader admitted after the
        // downgrade finds the slots in flight and waits instead of building.
        let carries = self.cache.claim_carries(previous, batch.fingerprint);
        let entry = RwLockWriteGuard::downgrade(entry);
        // Viewed (and, after a dropped substrate, scanned) by the first
        // rebuilt kind, shared by the rest.
        let mut context: Option<SummaryContext<'_>> = None;
        for (claim, old, map) in carries {
            let (kind, rows) = (old.kind, &batch.applied);
            let patch = Self::patch(&entry, &old, map.as_deref(), delta.as_ref(), insert, rows);
            #[cfg(test)]
            self.run_carry_hook(kind);
            // Publishing re-keys the on-disk slot along with the in-memory
            // line (the old fingerprint's go with `release` below).
            match patch {
                Ok((artifact, map)) => {
                    bump(&self.counters.patches);
                    outcome.patched += 1;
                    self.publish(&entry, claim, artifact, map);
                }
                Err(refusal) => {
                    bump(match refusal {
                        Refusal::Stale => &self.counters.refused_stale,
                        Refusal::Structural => &self.counters.refused_structural,
                        Refusal::NoMap => &self.counters.refused_no_map,
                    });
                    outcome.rebuilt += 1;
                    let context = context.get_or_insert_with(|| self.context(&entry));
                    let (summary, map) = self.build_summary(context, kind);
                    let artifact = Self::package(&entry, kind, summary);
                    self.publish(&entry, claim, artifact, map);
                }
            }
        }
        // Release the entry (and the context borrowing it) first: the
        // sharing check read-locks every entry, this one included.
        drop(context);
        drop(entry);
        self.release(previous);
        Ok(outcome)
    }

    /// The artifact `old` becomes under `entry`'s new content when its
    /// map carries the batch — `rows` inserted (`insert`) or removed,
    /// `delta` the kept substrate's absorb or retract of them (`None` when
    /// it could not carry them) — and the carried map; or why it cannot.
    /// The body and the summary graph are `old`'s: the batch left them as
    /// they were.
    fn patch(
        entry: &GraphEntry,
        old: &SummaryArtifact,
        map: Option<&QuotientMap>,
        delta: Option<&Delta>,
        insert: bool,
        rows: &[Triple],
    ) -> Result<(SummaryArtifact, QuotientMap), Refusal> {
        let map = map.ok_or(Refusal::NoMap)?;
        let (Some(delta), Some(substrate)) = (delta, entry.substrate.get()) else {
            return Err(Refusal::Stale);
        };
        let g = entry.store.graph();
        let next = if insert {
            map.extend(substrate, delta, rows, g, &old.summary_store)?
        } else {
            map.retract(substrate, delta, rows, &entry.store)?
        };
        let h = old.summary_store.graph();
        let artifact = SummaryArtifact {
            kind: old.kind,
            fingerprint: entry.fingerprint,
            ntriples: old.ntriples.clone(),
            summary_nodes: old.summary_nodes,
            summary_edges: old.summary_edges,
            input_triples: g.len(),
            summary_store: old.summary_store.clone(),
            cardinality: SummaryCardinality::from_extents(&entry.store, h, next.extents()),
        };
        Ok((artifact, next))
    }

    /// Runs the installed carry hook, if any (outside its mutex, so a
    /// hook may park or panic).
    #[cfg(test)]
    fn run_carry_hook(&self, kind: crate::summary::SummaryKind) {
        let hook = self.carry_hook.lock().unwrap().clone();
        if let Some(hook) = hook {
            hook(kind);
        }
    }
}
