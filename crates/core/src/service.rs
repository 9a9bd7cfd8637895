//! The warm-store summarization service: resident graphs + a
//! fingerprint-keyed summary cache.
//!
//! The paper's usage model is *build once, query many times*: a summary is
//! constructed off-line and then serves an arbitrary number of requests.
//! [`SummaryService`] is the long-running counterpart of the single-shot
//! CLI, behind the `rdfsummary serve` TCP front-end. It owns **warm
//! stores** — loaded graphs kept resident as indexed [`TripleStore`]s,
//! keyed by a caller-chosen name (the server uses the file path) — and a
//! **summary cache** keyed by `(content fingerprint, kind)`: the
//! [`rdf_store::Fingerprint`] digest is load-order independent, so two
//! loads of the same data share one cache line, and re-loading a file
//! never invalidates correct entries. The cache fills single-flight under
//! an optional byte budget, beside the query path's prune-verdict memo
//! (`cache.rs`); an optional persist dir ([`crate::persist`]) warms a
//! restarted service; `update.rs` and `query.rs` hold the `UPDATE` carry
//! and the `QUERY` path.
//!
//! Cached artifacts hold the summary's serialized N-Triples bytes,
//! produced by the same build path and serializer as the CLI's
//! `summarize --kind K --out FILE`, so a cache hit answers with the bytes
//! the CLI would write for the same graph — the invariant the root
//! `tests/server.rs` suite asserts on every fixture × kind pair.

use crate::cache::{Claim, SummaryCache};
use crate::cardinality::SummaryCardinality;
use crate::context::{Substrate, SummaryContext};
use crate::persist::PersistDir;
use crate::quotient::QuotientMap;
use crate::summary::{Summary, SummaryKind};
use rdf_model::Graph;
use rdf_store::{Fingerprint, TripleStore};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

pub use crate::query::QueryOutcome;
pub use crate::update::UpdateOutcome;

/// One cached summary: the serialized output plus its headline figures,
/// and the query-serving companions (the summary as an indexed store for
/// pruning ASKs, and the summary-derived cardinality statistics).
#[derive(Debug)]
pub struct SummaryArtifact {
    /// Which summary this is.
    pub kind: SummaryKind,
    /// Content fingerprint of the summarized graph.
    pub fingerprint: Fingerprint,
    /// The summary as an N-Triples document — byte-identical to the file
    /// the CLI's `summarize --kind K --out FILE` writes for this graph.
    pub ntriples: String,
    /// Node count of the summary graph (`SummaryStats::all_nodes`).
    pub summary_nodes: usize,
    /// Edge count of the summary graph (`SummaryStats::all_edges`).
    pub summary_edges: usize,
    /// Triple count of the summarized input graph.
    pub input_triples: usize,
    /// The summary graph, indexed — what `QUERY` pruning ASKs run on.
    pub summary_store: TripleStore,
    /// Summary-derived join-planning statistics (see [`SummaryCardinality`]).
    pub cardinality: SummaryCardinality,
}

/// Outcome of [`SummaryService::load_graph`].
#[derive(Clone, Copy, Debug)]
pub struct LoadedGraph {
    /// Content fingerprint of the loaded graph.
    pub fingerprint: Fingerprint,
    /// Triples in the loaded graph.
    pub triples: usize,
    /// True when the name was already bound (the old store is dropped;
    /// cached summaries survive, keyed by content, not by name).
    pub replaced: bool,
}

/// Aggregate service counters, as reported by the server's `STATS` verb.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Currently resident graphs.
    pub graphs: usize,
    /// Ready entries in the summary cache.
    pub cached_summaries: usize,
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that had to build.
    pub misses: u64,
    /// Summary builds actually performed (the single-flight seam: under
    /// any concurrency this stays at one per distinct
    /// `(fingerprint, kind)` ever requested, absent evictions).
    pub builds: u64,
    /// `QUERY` requests served.
    pub queries: u64,
    /// `QUERY` requests answered empty by summary pruning alone.
    pub pruned: u64,
    /// `QUERY` requests whose pruning verdict came from the prune-verdict
    /// cache (the summary ASK — and on empty verdicts the summary lookup
    /// itself — was skipped).
    pub prune_hits: u64,
    /// Summary-cache entries evicted by the byte budget (LRU only; named
    /// `EVICT`s and cache clears are not counted here).
    pub evictions: u64,
    /// Serialized bytes currently resident in the summary cache.
    pub cache_bytes: usize,
    /// `UPDATE` batches processed (inserts and deletes, no-ops included).
    pub updates: u64,
    /// Kinds an `UPDATE` carried by extending the artifact's quotient map:
    /// the summary stayed as it was, nothing was built.
    pub patches: u64,
    /// Kinds an `UPDATE` re-established by rebuilding, because the map
    /// refused the batch — the sum of the three `refused_*` counts. Each
    /// one also counts in `builds` — so under any workload `builds ==
    /// patch_fallbacks + misses`, the CI liveness seam.
    pub patch_fallbacks: u64,
    /// Cache misses answered from a persisted on-disk artifact instead of
    /// a build (each also counts in `hits`, never in `misses`).
    pub persist_hits: u64,
    /// Artifacts successfully written to the persist dir.
    pub persist_writes: u64,
    /// Substrates scanned from zero: a resident graph's first build, and
    /// the first build after a batch its kept substrate could not carry
    /// (a delete that would move a first-seen number, a first property, a
    /// clique or a class set; a resource typed after its data was linked).
    /// Persist hits never scan.
    pub substrate_scans: u64,
    /// Insert `UPDATE` batches a kept substrate absorbed in place.
    pub substrate_absorbs: u64,
    /// Delete `UPDATE` batches a kept substrate retracted in place.
    pub substrate_retracts: u64,
    /// Carries refused because the kept substrate could not carry the
    /// batch (an unretractable delete, a late type), or the substrate
    /// state the batch changed is not the one the map was read from
    /// (another resident graph's substrate built the artifact).
    pub refused_stale: u64,
    /// Carries refused because the batch changes the summary: a new
    /// property, joined cliques or classes, a new class or edge, a schema
    /// row; a class a delete empties or takes the first member of, a weak
    /// join or a summary edge it leaves without a witness.
    pub refused_structural: u64,
    /// Carries refused because the artifact keeps no map: it was read
    /// from the persist dir (every build keeps its map).
    pub refused_no_map: u64,
}

/// Errors a service request can produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// `summarize`/`query` named a graph that is not loaded.
    UnknownGraph(String),
    /// `query` text failed to parse or compile.
    BadQuery(String),
    /// `update` carried a malformed triple (the whole batch is rejected
    /// without mutating the graph).
    BadUpdate(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownGraph(name) => write!(f, "no graph loaded as `{name}`"),
            ServiceError::BadQuery(msg) => write!(f, "bad query: {msg}"),
            ServiceError::BadUpdate(msg) => write!(f, "bad update: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A resident graph's content: the warm store, its precomputed
/// fingerprint, and — from the first build on — the substrate every
/// summary of it is built from. A filled cell always covers `store`'s
/// graph: `UPDATE` extends or empties it in the same exclusive section
/// that changes the store.
pub(crate) struct GraphEntry {
    pub(crate) store: TripleStore,
    pub(crate) fingerprint: Fingerprint,
    pub(crate) substrate: OnceLock<Substrate>,
}

/// One name's binding in the service: the content behind its reader/writer
/// lock, and the gate that admits one `UPDATE` at a time.
pub(crate) struct ResidentGraph {
    /// Serialises writers *before* they touch `entry`. `std`'s `RwLock`
    /// prefers writers: a second writer queued on it would turn away every
    /// new reader for as long as the first writer's shared-mode carry
    /// holds its read guard. Queued here instead, it is invisible to
    /// readers. Guards no data, so a poisoned gate is simply re-entered.
    pub(crate) writer_gate: Mutex<()>,
    pub(crate) entry: RwLock<GraphEntry>,
}

/// The service's event counters; [`ServiceStats`] documents each one.
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) builds: AtomicU64,
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
    pub(crate) queries: AtomicU64,
    pub(crate) pruned: AtomicU64,
    pub(crate) prune_hits: AtomicU64,
    pub(crate) updates: AtomicU64,
    pub(crate) patches: AtomicU64,
    pub(crate) persist_hits: AtomicU64,
    pub(crate) persist_writes: AtomicU64,
    pub(crate) substrate_scans: AtomicU64,
    pub(crate) substrate_absorbs: AtomicU64,
    pub(crate) substrate_retracts: AtomicU64,
    pub(crate) refused_stale: AtomicU64,
    pub(crate) refused_structural: AtomicU64,
    pub(crate) refused_no_map: AtomicU64,
}

/// Counts one event.
pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The long-running summarization service. See the module docs.
///
/// Lock order (outer to inner): one graph's `writer_gate`, then the
/// `graphs` map mutex, then one entry's `RwLock`, then the cache's
/// slot and prune-verdict mutexes. Only `UPDATE` takes a gate or an
/// entry's lock exclusively, and it holds the lock exclusively for the
/// store merge, the substrate's absorb or retract, the fingerprint switch
/// and the claim of the carried cache slots only; it then downgrades
/// (atomically — no second writer can slip in) and rebuilds those
/// summaries under the *shared* lock, beside the readers. No path
/// acquires the map mutex while holding an entry lock, none locks two
/// entries at once, and a thread holding an entry's read guard never
/// read-locks that entry again — the discipline that keeps `UPDATE`
/// deadlock-free against concurrent readers and `STATS` listings.
pub struct SummaryService {
    /// The workers a load's index sorts run on.
    threads: usize,
    graphs: Mutex<HashMap<String, Arc<ResidentGraph>>>,
    pub(crate) cache: SummaryCache,
    /// Warm-restart persistence; `None` = memory-only.
    persist: Option<PersistDir>,
    pub(crate) counters: Counters,
    /// Test seam: called under the shared lock as each carried kind of an
    /// `UPDATE` is re-established — after its map extended or refused,
    /// before the artifact is published or rebuilt (to park or unwind a
    /// carry).
    #[cfg(test)]
    pub(crate) carry_hook: Mutex<Option<CarryHook>>,
}

#[cfg(test)]
pub(crate) type CarryHook = Arc<dyn Fn(SummaryKind) + Send + Sync>;

impl SummaryService {
    /// Creates a service whose loads sort their indices on up to `threads`
    /// workers (`1` keeps them sequential). Summary builds run on the
    /// calling thread — the single-shot CLI's code path — whatever the
    /// count. The summary cache is unbounded; see
    /// [`Self::with_cache_bytes`] for a budgeted one.
    pub fn new(threads: usize) -> Self {
        Self::with_cache_bytes(threads, None)
    }

    /// [`Self::new`] with an optional byte budget on the summary cache:
    /// whenever the serialized size of the Ready artifacts exceeds
    /// `cache_bytes`, least-recently-used entries are evicted until it
    /// fits (an artifact larger than the whole budget is still built and
    /// returned, just not retained). `None` means unbounded.
    pub fn with_cache_bytes(threads: usize, cache_bytes: Option<usize>) -> Self {
        SummaryService {
            threads: threads.max(1),
            graphs: Mutex::default(),
            cache: SummaryCache::new(cache_bytes),
            persist: None,
            counters: Counters::default(),
            #[cfg(test)]
            carry_hook: Mutex::default(),
        }
    }

    /// Enables warm-restart persistence: every artifact the service
    /// builds is written to `dir` as
    /// `<fingerprint>-<kind>.sum` via temp-file + atomic rename, and a
    /// cache miss probes the directory before building. A probe that
    /// fails *in any way* — missing file, bad checksum, wrong version,
    /// truncation, content mismatch — silently degrades to a normal miss;
    /// `EVICT` and `UPDATE` invalidation unlink the on-disk slots along
    /// with the in-memory lines. The directory is created if absent.
    pub fn with_persist_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.persist = Some(PersistDir::new(dir.into()));
        self
    }

    /// The persist dir, when warm-restart persistence is enabled.
    pub fn persist_dir(&self) -> Option<&Path> {
        self.persist.as_ref().map(|p| p.dir.as_path())
    }

    /// The configured cache byte budget (`None` = unbounded).
    pub fn cache_budget(&self) -> Option<usize> {
        self.cache.budget
    }

    /// The configured worker count of the index sorts.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Makes `g` resident under `name`, replacing any previous binding.
    /// The store is indexed with the configured workers and its content
    /// fingerprint computed once, up front.
    pub fn load_graph(&self, name: impl Into<String>, g: Graph) -> LoadedGraph {
        self.load_store(name, TripleStore::with_threads(g, self.threads))
    }

    /// [`Self::load_graph`] for a caller that already holds the indexed
    /// store — a file loader whose index build doubled as the proof that
    /// the file's rows are a set ([`TripleStore::from_rows`]).
    pub fn load_store(&self, name: impl Into<String>, store: TripleStore) -> LoadedGraph {
        let fingerprint = store.fingerprint();
        let triples = store.len();
        let entry = Arc::new(ResidentGraph {
            writer_gate: Mutex::new(()),
            entry: RwLock::new(GraphEntry {
                store,
                fingerprint,
                substrate: OnceLock::new(),
            }),
        });
        let replaced = self
            .graphs
            .lock()
            .unwrap()
            .insert(name.into(), entry)
            .is_some();
        LoadedGraph {
            fingerprint,
            triples,
            replaced,
        }
    }

    /// The fingerprint and size of a resident graph, if loaded.
    pub fn graph_info(&self, name: &str) -> Option<(Fingerprint, usize)> {
        let graphs = self.graphs.lock().unwrap();
        graphs.get(name).map(|e| {
            let e = e.entry.read().unwrap();
            (e.fingerprint, e.store.len())
        })
    }

    /// All resident graphs as `(name, fingerprint, triples)`, sorted by
    /// name (the server's `STATS` listing).
    pub fn loaded_graphs(&self) -> Vec<(String, Fingerprint, usize)> {
        let graphs = self.graphs.lock().unwrap();
        let mut v: Vec<_> = graphs
            .iter()
            .map(|(n, e)| {
                let e = e.entry.read().unwrap();
                (n.clone(), e.fingerprint, e.store.len())
            })
            .collect();
        v.sort();
        v
    }

    /// The summary of the graph loaded as `name`, from the cache when
    /// possible. Returns the artifact and whether it was a cache hit.
    ///
    /// Misses build what the single-shot CLI's `summarize --kind` builds —
    /// `SummaryContext::new(g).summarize(kind)` — from the
    /// graph's kept substrate instead of a scan per request (the first
    /// miss scans it; see [`ServiceStats::substrate_scans`]), so the
    /// artifact's bytes match the CLI's output for the same graph. A miss
    /// a persisted artifact answers builds, and scans, nothing.
    pub fn summarize(
        &self,
        name: &str,
        kind: SummaryKind,
    ) -> Result<(Arc<SummaryArtifact>, bool), ServiceError> {
        let graph = self.resident(name)?;
        let entry = graph.entry.read().unwrap();
        Ok(self.summarize_entry(&entry, kind))
    }

    /// The binding of `name`, if a graph is loaded under it.
    pub(crate) fn resident(&self, name: &str) -> Result<Arc<ResidentGraph>, ServiceError> {
        self.graphs
            .lock()
            .unwrap()
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownGraph(name.to_string()))
    }

    /// [`Self::summarize`] against an already-resolved graph entry — the
    /// query path uses this so the summary it prunes with is guaranteed
    /// to describe the *same* content snapshot it evaluates against, even
    /// if a concurrent `LOAD` rebinds the name in between.
    pub(crate) fn summarize_entry(
        &self,
        entry: &GraphEntry,
        kind: SummaryKind,
    ) -> (Arc<SummaryArtifact>, bool) {
        let key = (entry.fingerprint, kind);
        let claim = match self.cache.get_or_claim(key) {
            Ok(artifact) => {
                bump(&self.counters.hits);
                return (artifact, true);
            }
            // This thread won the build; everyone else for this key waits.
            Err(claim) => claim,
        };
        // Warm-restart seam: a persisted artifact for this exact slot is
        // served as a cache hit — no build, `builds()` untouched.
        let probe = |p: &PersistDir| p.probe(entry.store.graph(), key);
        if let Some(artifact) = self.persist.as_ref().and_then(probe) {
            let artifact = Arc::new(artifact);
            claim.install(&artifact, None);
            bump(&self.counters.hits);
            bump(&self.counters.persist_hits);
            return (artifact, true);
        }
        bump(&self.counters.misses);
        // The context is a temporary of this statement: its cliques are
        // freed before the summary is serialized and indexed.
        let (summary, map) = self.build_summary(&self.context(entry), kind);
        let artifact = Self::package(entry, kind, summary);
        (self.publish(entry, claim, artifact, map), false)
    }

    /// The build view over `entry`'s kept substrate, which the first caller
    /// scans (concurrent ones wait for it, then share it).
    pub(crate) fn context<'e>(&self, entry: &'e GraphEntry) -> SummaryContext<'e> {
        let g = entry.store.graph();
        let substrate = entry.substrate.get_or_init(|| {
            bump(&self.counters.substrate_scans);
            Substrate::scan(g)
        });
        SummaryContext::over(g, substrate)
    }

    /// One real summary build — a cache miss's, or one carried kind's of
    /// an `UPDATE` — with its quotient map.
    pub(crate) fn build_summary(
        &self,
        context: &SummaryContext<'_>,
        kind: SummaryKind,
    ) -> (Summary, QuotientMap) {
        bump(&self.counters.builds);
        context.summarize_mapped(kind)
    }

    /// What every artifact ends with — a miss's, a rebuilt carry's, an
    /// extended one's: install it and its map in the claimed slot — waking
    /// the slot's waiters — and only then write it to the persist dir, so
    /// no waiter sits out the file write.
    pub(crate) fn publish(
        &self,
        entry: &GraphEntry,
        claim: Claim<'_>,
        artifact: SummaryArtifact,
        map: QuotientMap,
    ) -> Arc<SummaryArtifact> {
        let artifact = Arc::new(artifact);
        claim.install(&artifact, Some(map));
        let write = |p: &PersistDir| p.write(&artifact, entry.store.graph());
        if self.persist.as_ref().is_some_and(write) {
            bump(&self.counters.persist_writes);
        }
        artifact
    }

    /// Serializes `summary` and derives its query-serving companions.
    pub(crate) fn package(
        entry: &GraphEntry,
        kind: SummaryKind,
        summary: Summary,
    ) -> SummaryArtifact {
        let stats = summary.stats();
        let cardinality = SummaryCardinality::new(&entry.store, &summary);
        let ntriples = rdf_io::write_graph(&summary.graph);
        SummaryArtifact {
            kind,
            fingerprint: entry.fingerprint,
            ntriples,
            summary_nodes: stats.all_nodes,
            summary_edges: stats.all_edges,
            input_triples: entry.store.graph().len(),
            summary_store: TripleStore::new(summary.graph),
            cardinality,
        }
    }

    /// Drops the graph loaded as `name`. Ready cache entries for its
    /// fingerprint are dropped too, unless another resident graph shares
    /// the content; in-flight builds are left to finish (their artifacts
    /// stay correct — the cache is keyed by content, not by name).
    /// Returns the number of cache entries dropped, or `None` if no such
    /// graph was loaded.
    pub fn evict(&self, name: &str) -> Option<usize> {
        let graph = self.graphs.lock().unwrap().remove(name)?;
        let fingerprint = graph.entry.read().unwrap().fingerprint;
        Some(self.release(fingerprint))
    }

    /// Drops everything keyed by `fingerprint` — Ready cache lines,
    /// memoized prune verdicts, persisted slots — unless a resident graph
    /// still has that content. Returns the number of cache lines dropped.
    /// Read-locks every entry: the caller holds none.
    pub(crate) fn release(&self, fingerprint: Fingerprint) -> usize {
        let holds = |e: &Arc<ResidentGraph>| e.entry.read().unwrap().fingerprint == fingerprint;
        if self.graphs.lock().unwrap().values().any(holds) {
            return 0;
        }
        if let Some(persist) = &self.persist {
            persist.unlink(fingerprint);
        }
        self.cache.drop_fingerprint(fingerprint)
    }

    /// Drops every resident graph and every Ready cache entry. Returns
    /// `(graphs dropped, cache entries dropped)`.
    pub fn evict_all(&self) -> (usize, usize) {
        let graphs = std::mem::take(&mut *self.graphs.lock().unwrap()).len();
        // No graph survives, so no persisted slot can ever be probed
        // again under its fingerprint — sweep them all.
        if let Some(persist) = &self.persist {
            persist.sweep();
        }
        (graphs, self.clear_cache())
    }

    /// Drops Ready cache entries only (the bench's cold-build seam),
    /// returning how many were dropped. Building slots stay, preserving
    /// single-flight for in-flight requests. The prune-verdict memo is
    /// cleared too, so "cold" means cold for the query path as well.
    pub fn clear_cache(&self) -> usize {
        self.cache.clear()
    }

    /// Number of summary builds performed so far — the single-flight test
    /// seam: with no evictions this equals the number of distinct
    /// `(fingerprint, kind)` pairs ever requested, however many threads
    /// raced on them.
    pub fn builds(&self) -> u64 {
        self.counters.builds.load(Ordering::Relaxed)
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ServiceStats {
        let graphs = self.graphs.lock().unwrap().len();
        let (cached_summaries, cache_bytes, evictions) = self.cache.figures();
        let c = &self.counters;
        let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let refused = [&c.refused_stale, &c.refused_structural, &c.refused_no_map].map(get);
        ServiceStats {
            graphs,
            cached_summaries,
            hits: get(&c.hits),
            misses: get(&c.misses),
            builds: get(&c.builds),
            queries: get(&c.queries),
            pruned: get(&c.pruned),
            prune_hits: get(&c.prune_hits),
            evictions,
            cache_bytes,
            updates: get(&c.updates),
            patches: get(&c.patches),
            patch_fallbacks: refused.iter().sum(),
            persist_hits: get(&c.persist_hits),
            persist_writes: get(&c.persist_writes),
            substrate_scans: get(&c.substrate_scans),
            substrate_absorbs: get(&c.substrate_absorbs),
            substrate_retracts: get(&c.substrate_retracts),
            refused_stale: refused[0],
            refused_structural: refused[1],
            refused_no_map: refused[2],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Slot;
    use crate::fixtures;
    use rdf_model::{PrefixMap, Term};

    #[test]
    fn cache_hits_share_one_artifact() {
        let svc = SummaryService::new(1);
        let info = svc.load_graph("g", fixtures::sample_graph());
        assert!(!info.replaced);
        let (a, hit_a) = svc.summarize("g", SummaryKind::Weak).unwrap();
        let (b, hit_b) = svc.summarize("g", SummaryKind::Weak).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(svc.builds(), 1);
        let st = svc.stats();
        assert_eq!((st.hits, st.misses, st.builds), (1, 1, 1));
        assert_eq!(st.graphs, 1);
        assert_eq!(st.cached_summaries, 1);
    }

    /// Served bytes are those of a direct context build, whatever the
    /// service's thread count, on a fixture and on a BSBM graph.
    #[test]
    fn artifact_matches_direct_build() {
        const KINDS: [SummaryKind; 5] = [
            SummaryKind::Weak,
            SummaryKind::Strong,
            SummaryKind::TypedWeak,
            SummaryKind::TypedStrong,
            SummaryKind::TypeBased,
        ];
        for g in [fixtures::sample_graph(), bsbm_graph()] {
            let direct = SummaryContext::new(&g);
            let direct = KINDS.map(|kind| direct.summarize(kind));
            for threads in [1, 2, 4] {
                let svc = SummaryService::new(threads);
                svc.load_graph("g", g.clone());
                for (kind, direct) in KINDS.into_iter().zip(&direct) {
                    let (artifact, _) = svc.summarize("g", kind).unwrap();
                    assert_eq!(
                        artifact.ntriples,
                        rdf_io::write_graph(&direct.graph),
                        "{kind} on {threads} thread(s)"
                    );
                    assert_eq!(artifact.summary_nodes, direct.stats().all_nodes);
                    assert_eq!(artifact.input_triples, g.len());
                }
                assert_eq!(svc.builds(), KINDS.len() as u64);
            }
        }
    }

    #[test]
    fn same_content_under_two_names_shares_the_cache() {
        let svc = SummaryService::new(1);
        let a = svc.load_graph("a", fixtures::sample_graph());
        let b = svc.load_graph("b", fixtures::sample_graph());
        assert_eq!(a.fingerprint, b.fingerprint);
        svc.summarize("a", SummaryKind::Strong).unwrap();
        let (_, hit) = svc.summarize("b", SummaryKind::Strong).unwrap();
        assert!(hit, "content-keyed cache must ignore the name");
        assert_eq!(svc.builds(), 1);
    }

    #[test]
    fn unknown_graph_is_an_error() {
        let svc = SummaryService::new(1);
        let err = svc.summarize("nope", SummaryKind::Weak).unwrap_err();
        assert_eq!(err, ServiceError::UnknownGraph("nope".into()));
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn evict_drops_graph_and_its_cache_lines() {
        let svc = SummaryService::new(1);
        svc.load_graph("g", fixtures::sample_graph());
        svc.summarize("g", SummaryKind::Weak).unwrap();
        svc.summarize("g", SummaryKind::Strong).unwrap();
        assert_eq!(svc.evict("g"), Some(2));
        assert_eq!(svc.evict("g"), None);
        assert!(svc.summarize("g", SummaryKind::Weak).is_err());
        let st = svc.stats();
        assert_eq!((st.graphs, st.cached_summaries), (0, 0));
    }

    #[test]
    fn evict_keeps_cache_shared_with_another_name() {
        let svc = SummaryService::new(1);
        svc.load_graph("a", fixtures::sample_graph());
        svc.load_graph("b", fixtures::sample_graph());
        svc.summarize("a", SummaryKind::Weak).unwrap();
        // `b` still references the same content: the cache line survives.
        assert_eq!(svc.evict("a"), Some(0));
        let (_, hit) = svc.summarize("b", SummaryKind::Weak).unwrap();
        assert!(hit);
        assert_eq!(svc.builds(), 1);
    }

    #[test]
    fn reload_keeps_content_keyed_entries() {
        let svc = SummaryService::new(1);
        svc.load_graph("g", fixtures::sample_graph());
        svc.summarize("g", SummaryKind::Weak).unwrap();
        let info = svc.load_graph("g", fixtures::sample_graph());
        assert!(info.replaced);
        let (_, hit) = svc.summarize("g", SummaryKind::Weak).unwrap();
        assert!(hit, "identical content reload must keep the cache warm");
        // Loading *different* content under the same name misses.
        svc.load_graph("g", fixtures::figure5_graph());
        let (_, hit) = svc.summarize("g", SummaryKind::Weak).unwrap();
        assert!(!hit);
        assert_eq!(svc.builds(), 2);
    }

    #[test]
    fn clear_cache_forces_rebuilds() {
        let svc = SummaryService::new(1);
        svc.load_graph("g", fixtures::sample_graph());
        svc.summarize("g", SummaryKind::Weak).unwrap();
        assert_eq!(svc.clear_cache(), 1);
        let (_, hit) = svc.summarize("g", SummaryKind::Weak).unwrap();
        assert!(!hit);
        assert_eq!(svc.builds(), 2);
    }

    #[test]
    fn evict_all_empties_the_service() {
        let svc = SummaryService::new(1);
        svc.load_graph("a", fixtures::sample_graph());
        svc.load_graph("b", fixtures::figure5_graph());
        svc.summarize("a", SummaryKind::Weak).unwrap();
        assert_eq!(svc.evict_all(), (2, 1));
        assert_eq!(svc.stats().graphs, 0);
    }

    #[test]
    fn query_selects_and_counts() {
        let svc = SummaryService::new(1);
        svc.load_graph("g", fixtures::sample_graph());
        let out = svc
            .query("g", "q(?x, ?y) :- ?x ?p ?y", None, usize::MAX)
            .unwrap();
        assert_eq!(out.columns, vec!["x", "y"]);
        assert!(out.ask);
        assert!(!out.pruned);
        assert!(out.row_count > 0);
        assert!(!out.truncated);
        let st = svc.stats();
        assert_eq!((st.queries, st.pruned), (1, 0));
        // The pruning summary was built once and is now cached.
        assert_eq!(st.builds, 1);
        let out2 = svc
            .query("g", "q(?x, ?y) :- ?x ?p ?y", None, usize::MAX)
            .unwrap();
        assert!(out2.cache_hit);
        assert_eq!(out2.body, out.body);
    }

    #[test]
    fn query_prunes_empty_answers_via_the_summary() {
        let svc = SummaryService::new(1);
        svc.load_graph("g", fixtures::sample_graph());
        // No such property anywhere: the summary proves emptiness.
        let out = svc
            .query(
                "g",
                "q(?x) :- ?x <urn:no-such-property> ?y",
                None,
                usize::MAX,
            )
            .unwrap();
        assert!(out.pruned);
        assert!(!out.ask);
        assert_eq!(out.row_count, 0);
        assert_eq!(svc.stats().pruned, 1);
    }

    type RowSet = std::collections::BTreeSet<Vec<String>>;

    /// The answer set of `text` on `store` by the un-pruned evaluator.
    fn oracle_rows(store: &rdf_store::TripleStore, text: &str) -> RowSet {
        let spec = rdf_query::parse_query(text, &PrefixMap::with_defaults()).unwrap();
        let q = rdf_query::compile(&spec, store.graph()).unwrap();
        rdf_query::Evaluator::new(store)
            .select(&q)
            .decode(store)
            .into_iter()
            .map(|row| {
                row.iter()
                    .map(|t| rdf_io::writer::write_term(&t.to_term()))
                    .collect()
            })
            .collect()
    }

    /// The rows of a served answer, as a set.
    fn row_set(out: &QueryOutcome) -> RowSet {
        out.rows()
            .map(|row| row.into_iter().map(String::from).collect())
            .collect()
    }

    #[test]
    fn query_agrees_with_unpruned_evaluator() {
        let g = fixtures::sample_graph();
        let svc = SummaryService::new(1);
        svc.load_graph("g", g.clone());
        let store = rdf_store::TripleStore::new(g);
        for text in [
            "q(?x, ?y) :- ?x ?p ?y",
            "q(?x) :- ?x a ?c",
            "q(?x) :- ?x ?p ?y, ?y ?q ?z",
        ] {
            let expect = oracle_rows(&store, text);
            for kind in SummaryKind::ALL {
                let out = svc.query("g", text, Some(kind), usize::MAX).unwrap();
                let got = row_set(&out);
                assert_eq!(got, expect, "query `{text}` under {kind}");
            }
        }
    }

    #[test]
    fn query_limit_truncates() {
        let svc = SummaryService::new(1);
        svc.load_graph("g", fixtures::sample_graph());
        let out = svc.query("g", "q(?x, ?y) :- ?x ?p ?y", None, 2).unwrap();
        assert_eq!(out.row_count, 2);
        assert!(out.truncated);
    }

    #[test]
    fn query_boolean_form() {
        let svc = SummaryService::new(1);
        svc.load_graph("g", fixtures::sample_graph());
        let out = svc.query("g", "q() :- ?x ?p ?y", None, usize::MAX).unwrap();
        assert!(out.ask);
        assert!(out.columns.is_empty());
        assert_eq!(out.row_count, 0);
    }

    #[test]
    fn query_errors_are_typed() {
        let svc = SummaryService::new(1);
        assert!(matches!(
            svc.query("nope", "q() :- ?x ?p ?y", None, usize::MAX),
            Err(ServiceError::UnknownGraph(_))
        ));
        svc.load_graph("g", fixtures::sample_graph());
        let err = svc.query("g", "not a query", None, usize::MAX).unwrap_err();
        assert!(matches!(err, ServiceError::BadQuery(_)));
        assert!(err.to_string().contains("bad query"));
        // Empty body is rejected at parse/compile, not panicking later.
        assert!(matches!(
            svc.query("g", "q() :- ", None, usize::MAX),
            Err(ServiceError::BadQuery(_))
        ));
    }

    #[test]
    fn query_prefers_an_already_cached_kind() {
        let svc = SummaryService::new(1);
        svc.load_graph("g", fixtures::sample_graph());
        svc.summarize("g", SummaryKind::TypedStrong).unwrap();
        let out = svc.query("g", "q() :- ?x ?p ?y", None, usize::MAX).unwrap();
        assert_eq!(out.kind, SummaryKind::TypedStrong);
        assert!(out.cache_hit, "pruning must not force a rebuild");
        assert_eq!(svc.builds(), 1);
    }

    #[test]
    fn cache_budget_evicts_lru_first() {
        let svc = SummaryService::new(1);
        svc.load_graph("g", fixtures::sample_graph());
        let (w, _) = svc.summarize("g", SummaryKind::Weak).unwrap();
        let one = w.ntriples.len();
        // Room for roughly two artifacts of this size.
        let svc = SummaryService::with_cache_bytes(1, Some(one * 2 + one / 2));
        svc.load_graph("g", fixtures::sample_graph());
        svc.summarize("g", SummaryKind::Weak).unwrap();
        svc.summarize("g", SummaryKind::Strong).unwrap();
        // Touch Weak so Strong becomes the LRU victim.
        let (_, hit) = svc.summarize("g", SummaryKind::Weak).unwrap();
        assert!(hit);
        svc.summarize("g", SummaryKind::TypedWeak).unwrap();
        let st = svc.stats();
        assert!(st.evictions >= 1, "budget must have evicted");
        assert!(
            st.cache_bytes <= one * 2 + one / 2,
            "cache over budget: {} > {}",
            st.cache_bytes,
            one * 2 + one / 2
        );
        // Weak survived (recently used), Strong was evicted.
        let (_, weak_hit) = svc.summarize("g", SummaryKind::Weak).unwrap();
        assert!(weak_hit, "recently-used entry must survive eviction");
        let (_, strong_hit) = svc.summarize("g", SummaryKind::Strong).unwrap();
        assert!(!strong_hit, "LRU entry must have been evicted");
    }

    #[test]
    fn oversized_artifact_is_returned_but_not_retained() {
        let svc = SummaryService::with_cache_bytes(1, Some(1));
        svc.load_graph("g", fixtures::sample_graph());
        let (artifact, hit) = svc.summarize("g", SummaryKind::Weak).unwrap();
        assert!(!hit);
        assert!(!artifact.ntriples.is_empty());
        let st = svc.stats();
        assert_eq!(st.cached_summaries, 0, "over-budget entry must not stay");
        assert_eq!(st.cache_bytes, 0);
        assert_eq!(st.evictions, 1);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let svc = SummaryService::new(1);
        svc.load_graph("g", fixtures::sample_graph());
        for kind in SummaryKind::ALL {
            svc.summarize("g", kind).unwrap();
        }
        let st = svc.stats();
        assert_eq!(st.evictions, 0);
        assert_eq!(st.cached_summaries, 4);
        assert!(st.cache_bytes > 0);
        assert_eq!(svc.cache_budget(), None);
    }

    #[test]
    fn prune_verdicts_are_memoized() {
        let svc = SummaryService::new(1);
        svc.load_graph("g", fixtures::sample_graph());
        let q = "q(?x) :- ?x <urn:no-such-property> ?y";
        let first = svc.query("g", q, None, usize::MAX).unwrap();
        assert!(first.pruned);
        assert_eq!(svc.stats().prune_hits, 0, "first sighting is a miss");
        // Same shape, different constant: still one memo line.
        let second = svc
            .query(
                "g",
                "q(?x) :- ?x <urn:no-such-property> ?z",
                None,
                usize::MAX,
            )
            .unwrap();
        assert!(second.pruned);
        assert!(second.cache_hit);
        let st = svc.stats();
        assert_eq!(st.prune_hits, 1);
        assert_eq!((st.queries, st.pruned), (2, 2));
        // Non-empty shapes memoize the don't-know verdict too: the second
        // run skips the ASK but still evaluates (same rows).
        let a = svc
            .query("g", "q(?x, ?y) :- ?x ?p ?y", None, usize::MAX)
            .unwrap();
        let b = svc
            .query("g", "q(?x, ?y) :- ?x ?p ?y", None, usize::MAX)
            .unwrap();
        assert!(!b.pruned);
        assert_eq!(a.body, b.body);
        assert_eq!(svc.stats().prune_hits, 2);
    }

    #[test]
    fn prune_memo_survives_lru_eviction_soundly() {
        // Budget too small to retain any artifact: every query rebuilds
        // the summary — except known-empty shapes, which skip it entirely.
        let svc = SummaryService::with_cache_bytes(1, Some(1));
        svc.load_graph("g", fixtures::sample_graph());
        let q = "q(?x) :- ?x <urn:no-such-property> ?y";
        assert!(svc.query("g", q, None, usize::MAX).unwrap().pruned);
        let builds_before = svc.builds();
        let out = svc.query("g", q, None, usize::MAX).unwrap();
        assert!(out.pruned);
        assert_eq!(
            svc.builds(),
            builds_before,
            "memoized empty verdict must not rebuild the evicted summary"
        );
    }

    #[test]
    fn evict_and_clear_invalidate_the_prune_memo() {
        let svc = SummaryService::new(1);
        svc.load_graph("g", fixtures::sample_graph());
        let q = "q(?x) :- ?x <urn:no-such-property> ?y";
        svc.query("g", q, None, usize::MAX).unwrap();
        // EVICT drops the graph and its memo lines; a reload of the same
        // content re-primes from scratch (miss, then hit).
        svc.evict("g").unwrap();
        svc.load_graph("g", fixtures::sample_graph());
        svc.query("g", q, None, usize::MAX).unwrap();
        assert_eq!(svc.stats().prune_hits, 0, "memo was dropped on evict");
        svc.query("g", q, None, usize::MAX).unwrap();
        assert_eq!(svc.stats().prune_hits, 1);
        // clear_cache resets the memo as well.
        svc.clear_cache();
        svc.query("g", q, None, usize::MAX).unwrap();
        assert_eq!(svc.stats().prune_hits, 1, "memo was dropped on clear");
        // Loading *different* content under the name keys separately: the
        // old fingerprint's verdicts cannot leak onto the new graph.
        svc.load_graph("g", fixtures::figure5_graph());
        svc.query("g", q, None, usize::MAX).unwrap();
        assert_eq!(
            svc.stats().prune_hits,
            1,
            "new content must not hit the old memo"
        );
    }

    fn u(s: &str, p: &str, o: &str) -> (Term, Term, Term) {
        (Term::iri(s), Term::iri(p), Term::iri(o))
    }

    /// One UPDATE batch: the insert/delete flag plus its triples.
    type UpdateOp = (bool, Vec<(Term, Term, Term)>);

    /// Mirrors the service's store mutations on a local store, so tests
    /// can compare served bytes against a cold rebuild of the same
    /// mutated graph (the service does not expose its graphs).
    fn mutated_store(base: Graph, ops: &[UpdateOp]) -> rdf_store::TripleStore {
        let mut st = rdf_store::TripleStore::new(base);
        for (insert, batch) in ops {
            if *insert {
                st.insert_batch(batch).unwrap();
            } else {
                st.delete_batch(batch);
            }
        }
        st
    }

    #[test]
    fn update_carries_cached_weak_summary() {
        let svc = SummaryService::new(1);
        svc.load_graph("g", fixtures::sample_graph());
        svc.summarize("g", SummaryKind::Weak).unwrap();
        assert_eq!(svc.builds(), 1);
        let batch = vec![u("urn:u:s", "urn:u:p", "urn:u:o")];
        let out = svc.update("g", true, &batch).unwrap();
        assert_eq!(out.applied, 1);
        assert_ne!(out.previous, out.fingerprint);
        assert_eq!(out.rebuilt, 1);
        // The carried line serves without a further build…
        let (artifact, hit) = svc.summarize("g", SummaryKind::Weak).unwrap();
        assert!(hit, "carried summary must be a cache hit");
        assert_eq!(svc.builds(), 2, "the cold build and its one carry");
        assert_eq!(artifact.fingerprint, out.fingerprint);
        // …and is byte-identical to a cold rebuild of the mutated graph.
        let st = mutated_store(fixtures::sample_graph(), &[(true, batch)]);
        let direct = crate::builder::summarize(st.graph(), SummaryKind::Weak);
        assert_eq!(artifact.ntriples, rdf_io::write_graph(&direct.graph));
        let stats = svc.stats();
        assert_eq!((stats.updates, stats.patch_fallbacks), (1, 1));
        assert_eq!(stats.builds, stats.patch_fallbacks + stats.misses);
    }

    /// The satellite suite: fixtures × kinds, every cached summary carried
    /// across insert and delete transitions byte-identical to a rebuild.
    #[test]
    fn update_transition_is_byte_identical_across_fixtures_and_kinds() {
        type Fixture = (&'static str, fn() -> Graph);
        let fixtures: [Fixture; 3] = [
            ("sample", fixtures::sample_graph as fn() -> Graph),
            ("figure5", fixtures::figure5_graph as fn() -> Graph),
            ("book", fixtures::book_graph as fn() -> Graph),
        ];
        let ops: [UpdateOp; 3] = [
            (true, vec![u("urn:u:a", "urn:u:p", "urn:u:b")]),
            (
                true,
                vec![
                    u("urn:u:a", "urn:u:q", "urn:u:c"),
                    (
                        Term::iri("urn:u:a"),
                        Term::iri(rdf_model::vocab::RDF_TYPE),
                        Term::iri("urn:u:T"),
                    ),
                ],
            ),
            (false, vec![u("urn:u:a", "urn:u:p", "urn:u:b")]),
        ];
        for (name, fixture) in fixtures {
            let svc = SummaryService::new(1);
            svc.load_graph("g", fixture());
            for kind in SummaryKind::ALL {
                svc.summarize("g", kind).unwrap();
            }
            let mut applied_ops: Vec<UpdateOp> = Vec::new();
            for (insert, batch) in &ops {
                let out = svc.update("g", *insert, batch).unwrap();
                applied_ops.push((*insert, batch.clone()));
                assert_eq!(
                    out.patched + out.rebuilt,
                    SummaryKind::ALL.len(),
                    "{name}: every cached kind must survive the transition"
                );
                let st = mutated_store(fixture(), &applied_ops);
                for kind in SummaryKind::ALL {
                    let (artifact, hit) = svc.summarize("g", kind).unwrap();
                    assert!(hit, "{name}/{kind}: transition must keep the cache warm");
                    let direct = crate::builder::summarize(st.graph(), kind);
                    assert_eq!(
                        artifact.ntriples,
                        rdf_io::write_graph(&direct.graph),
                        "{name}/{kind}: served summary must match a cold rebuild"
                    );
                }
            }
            let stats = svc.stats();
            assert_eq!(stats.builds, stats.patch_fallbacks + stats.misses);
        }
    }

    #[test]
    fn update_carries_across_delete_then_insert() {
        let svc = SummaryService::new(1);
        svc.load_graph("g", fixtures::sample_graph());
        svc.summarize("g", SummaryKind::Weak).unwrap();
        // Insert, delete, insert again: every transition carries the one
        // warm kind the same way, whatever came before it.
        let batch = vec![u("urn:u:s", "urn:u:p", "urn:u:o")];
        for insert in [true, false, true] {
            let out = svc.update("g", insert, &batch).unwrap();
            assert_eq!(out.rebuilt, 1, "insert={insert}");
        }
        let stats = svc.stats();
        assert_eq!((stats.patch_fallbacks, stats.misses), (3, 1));
        assert_eq!(stats.builds, stats.patch_fallbacks + stats.misses);
    }

    #[test]
    fn update_noop_batch_changes_nothing() {
        let svc = SummaryService::new(1);
        let info = svc.load_graph("g", fixtures::sample_graph());
        svc.summarize("g", SummaryKind::Weak).unwrap();
        // Inserting an existing triple / deleting an absent one: no-ops.
        let existing = svc.query("g", "q(?x, ?y) :- ?x <urn:nope> ?y", None, 1);
        assert!(existing.is_ok());
        let out = svc
            .update("g", false, &[u("urn:no", "urn:such", "urn:triple")])
            .unwrap();
        assert_eq!(out.applied, 0);
        assert_eq!(out.fingerprint, info.fingerprint);
        let (_, hit) = svc.summarize("g", SummaryKind::Weak).unwrap();
        assert!(hit, "no-op update must not disturb the cache");
        assert_eq!(svc.stats().updates, 1);
    }

    #[test]
    fn update_rejects_malformed_batch_atomically() {
        let svc = SummaryService::new(1);
        let info = svc.load_graph("g", fixtures::sample_graph());
        let bad = vec![
            u("urn:ok", "urn:p", "urn:o"),
            (Term::literal("L"), Term::iri("urn:p"), Term::iri("urn:o")),
        ];
        let err = svc.update("g", true, &bad).unwrap_err();
        assert!(matches!(err, ServiceError::BadUpdate(_)));
        assert!(err.to_string().contains("bad update"));
        assert_eq!(svc.graph_info("g").unwrap().0, info.fingerprint);
        assert!(matches!(
            svc.update("nope", true, &[]),
            Err(ServiceError::UnknownGraph(_))
        ));
    }

    #[test]
    fn update_invalidates_old_fingerprint_lines_and_prune_memo() {
        let svc = SummaryService::new(1);
        svc.load_graph("g", fixtures::sample_graph());
        svc.summarize("g", SummaryKind::Weak).unwrap();
        let q = "q(?x) :- ?x <urn:no-such-property> ?y";
        assert!(svc.query("g", q, None, usize::MAX).unwrap().pruned);
        let out = svc
            .update("g", true, &[u("urn:u:s", "urn:u:p", "urn:u:o")])
            .unwrap();
        // One cache line resides (the carried one, under the new key).
        let stats = svc.stats();
        assert_eq!(stats.cached_summaries, 1);
        let (artifact, _) = svc.summarize("g", SummaryKind::Weak).unwrap();
        assert_eq!(artifact.fingerprint, out.fingerprint);
        // The prune memo was keyed by the old fingerprint: re-priming is a
        // memo miss (sound — the verdict could have flipped).
        let before = svc.stats().prune_hits;
        assert!(svc.query("g", q, None, usize::MAX).unwrap().pruned);
        assert_eq!(svc.stats().prune_hits, before, "old-fp memo must be gone");
    }

    #[test]
    fn update_keeps_shared_content_lines() {
        let svc = SummaryService::new(1);
        svc.load_graph("a", fixtures::sample_graph());
        svc.load_graph("b", fixtures::sample_graph());
        svc.summarize("a", SummaryKind::Weak).unwrap();
        svc.update("a", true, &[u("urn:u:s", "urn:u:p", "urn:u:o")])
            .unwrap();
        // `b` still holds the old content: its cache line must survive.
        let (_, hit) = svc.summarize("b", SummaryKind::Weak).unwrap();
        assert!(hit, "shared old-fingerprint line must survive the update");
    }

    /// Two names bound to one content: the second name's transition finds
    /// the new content's slot already present and is skipped *before* any
    /// rebuild — nothing is built and thrown away, and `rebuilt` says so.
    #[test]
    fn update_skips_kinds_the_new_content_already_has() {
        let svc = SummaryService::new(1);
        svc.load_graph("a", fixtures::sample_graph());
        svc.load_graph("b", fixtures::sample_graph());
        svc.summarize("a", SummaryKind::Strong).unwrap();
        let batch = vec![u("urn:u:s", "urn:u:p", "urn:u:o")];
        let first = svc.update("a", true, &batch).unwrap();
        assert_eq!(first.rebuilt, 1);
        let before = svc.stats();
        // `b` still pins the old content's line, so `b` carries it too —
        // onto a slot `a` has already filled.
        let second = svc.update("b", true, &batch).unwrap();
        assert_eq!(second.fingerprint, first.fingerprint);
        assert_eq!(second.rebuilt, 0);
        let after = svc.stats();
        assert_eq!(
            (after.builds, after.patch_fallbacks),
            (before.builds, before.patch_fallbacks),
            "a transition onto present content must not build"
        );
        assert_eq!(after.builds, after.patch_fallbacks + after.misses);
        let (_, hit) = svc.summarize("b", SummaryKind::Strong).unwrap();
        assert!(hit);
    }

    /// Parks or unwinds the carry of the next `UPDATE`s: `hook(kind)` runs
    /// under the shared lock before `kind` is re-established.
    fn set_carry_hook(svc: &SummaryService, hook: Option<CarryHook>) {
        *svc.carry_hook.lock().unwrap() = hook;
    }

    /// A hook that, the first time a carry reaches `at`, reports on the
    /// returned receiver and holds the carry there until the returned
    /// sender yields. Later carries pass straight through.
    fn parking_hook(
        at: SummaryKind,
    ) -> (
        CarryHook,
        std::sync::mpsc::Receiver<()>,
        std::sync::mpsc::Sender<()>,
    ) {
        let (parked_tx, parked_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let channels = Mutex::new(Some((parked_tx, release_rx)));
        let hook: CarryHook = Arc::new(move |kind| {
            if kind != at {
                return;
            }
            let taken = channels.lock().unwrap().take();
            if let Some((parked, release)) = taken {
                parked.send(()).unwrap();
                release.recv().unwrap();
            }
        });
        (hook, parked_rx, release_tx)
    }

    /// With only `tw` warm, a `QUERY` arriving mid-carry must follow the
    /// in-flight `tw` slot of the new fingerprint — not resolve to `w`,
    /// find it absent and start a second, inline build.
    #[test]
    fn query_follows_the_kind_an_update_is_carrying() {
        let svc = SummaryService::new(1);
        let loaded = svc.load_graph("g", fixtures::sample_graph());
        svc.summarize("g", SummaryKind::TypedWeak).unwrap();
        let (hook, parked, release) = parking_hook(SummaryKind::TypedWeak);
        set_carry_hook(&svc, Some(hook));
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                svc.update("g", true, &[u("urn:u:s", "urn:u:p", "urn:u:o")])
                    .unwrap()
            });
            parked.recv().unwrap();
            // The carry is parked under the shared lock: readers already
            // see the new content, and its `tw` slot is in flight.
            let (fingerprint, _) = svc.graph_info("g").unwrap();
            assert_ne!(fingerprint, loaded.fingerprint);
            assert_eq!(
                svc.cache.preferred_kind(fingerprint),
                SummaryKind::TypedWeak
            );
            let reader = scope.spawn(|| {
                svc.query("g", "q(?x, ?y) :- ?x <urn:u:p> ?y", None, usize::MAX)
                    .unwrap()
            });
            release.send(()).unwrap();
            let out = reader.join().unwrap();
            assert_eq!(out.kind, SummaryKind::TypedWeak);
            assert_eq!(out.row_count, 1, "the answer is the new content's");
            assert_eq!(writer.join().unwrap().rebuilt, 1);
        });
        let st = svc.stats();
        assert_eq!(st.builds, 2, "the cold `tw` and its carry — no inline `w`");
        assert_eq!(st.builds, st.patch_fallbacks + st.misses);
    }

    /// A Ready kind still wins over a more-preferred kind in flight: a
    /// cold build by another request never makes `QUERY` wait.
    #[test]
    fn query_prefers_a_ready_kind_over_one_in_flight() {
        let svc = SummaryService::new(1);
        let fp = svc.load_graph("g", fixtures::sample_graph()).fingerprint;
        svc.summarize("g", SummaryKind::TypedStrong).unwrap();
        let _in_flight = svc.cache.get_or_claim((fp, SummaryKind::Weak)).unwrap_err();
        assert_eq!(svc.cache.preferred_kind(fp), SummaryKind::TypedStrong);
    }

    /// A carry that unwinds releases every slot it had claimed and both
    /// locks: no `Building` marker stays behind, the next `SUMMARIZE`
    /// rebuilds from the new content, and the graph still takes updates.
    /// The unwind comes from inside the patched path: `s`'s map has just
    /// extended by the batch (as `w`'s, which landed, did) when the carry
    /// fails.
    #[test]
    fn unwinding_carry_leaves_no_building_marker() {
        let svc = SummaryService::new(1);
        svc.load_graph("g", fixtures::sample_graph());
        svc.summarize("g", SummaryKind::Weak).unwrap();
        svc.summarize("g", SummaryKind::Strong).unwrap();
        set_carry_hook(
            &svc,
            Some(Arc::new(|kind| {
                assert!(kind != SummaryKind::Strong, "injected carry failure")
            })),
        );
        // A new title of `r1`: a new member of the title values' class,
        // along an edge both summaries have.
        let ex = |local: &str| format!("{}{local}", fixtures::EX);
        let batch = vec![u(&ex("r1"), &ex("title"), &ex("t5"))];
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            svc.update("g", true, &batch)
        }));
        assert!(unwound.is_err(), "the hook must have unwound the carry");
        set_carry_hook(&svc, None);
        // The unwind came after the exclusive section: the kept substrate
        // had absorbed the batch whole, and everything below builds from it.
        let counts = |svc: &SummaryService| {
            let st = svc.stats();
            (st.patches, st.substrate_scans, st.substrate_absorbs)
        };
        assert_eq!(counts(&svc), (1, 1, 1), "`w` was patched, `s` was not");
        {
            let cache = svc.cache.state.lock().unwrap();
            assert!(
                cache
                    .slots
                    .values()
                    .all(|s| matches!(s, Slot::Ready { .. })),
                "an abandoned claim must not stay behind as a Building marker"
            );
        }
        // `w` landed before the unwind; `s` was abandoned and rebuilds.
        let st = mutated_store(fixtures::sample_graph(), &[(true, batch.clone())]);
        for (kind, expect_hit) in [(SummaryKind::Weak, true), (SummaryKind::Strong, false)] {
            let (artifact, hit) = svc.summarize("g", kind).unwrap();
            assert_eq!(hit, expect_hit, "{kind}");
            assert_eq!(artifact.fingerprint, st.fingerprint());
            let direct = crate::builder::summarize(st.graph(), kind);
            assert_eq!(artifact.ntriples, rdf_io::write_graph(&direct.graph));
        }
        // The writer gate was poisoned by the unwind; it guards no data.
        // (A new property: both maps refuse, both kinds rebuild.)
        let out = svc
            .update("g", true, &[u("urn:u:s2", "urn:u:p", "urn:u:o")])
            .unwrap();
        assert_eq!((out.applied, out.patched, out.rebuilt), (1, 0, 2));
        assert_eq!(counts(&svc), (1, 1, 2));
        let stats = svc.stats();
        assert_eq!(stats.builds, stats.patch_fallbacks + stats.misses);
    }

    /// The five kinds in the paper's order — what `build_restart` builds
    /// per lifetime.
    const FIVE_KINDS: [SummaryKind; 5] = {
        let [w, tw, s, ts, t] = SummaryKind::EVERY;
        [w, s, tw, ts, t]
    };

    /// Five cold `SUMMARIZE`s of one graph share one substrate scan.
    #[test]
    fn cold_summaries_share_one_substrate_scan() {
        let svc = SummaryService::new(1);
        svc.load_graph("g", fixtures::sample_graph());
        assert_eq!(svc.stats().substrate_scans, 0, "a LOAD scans nothing");
        for kind in FIVE_KINDS {
            assert!(!svc.summarize("g", kind).unwrap().1);
        }
        let st = svc.stats();
        assert_eq!(
            (st.builds, st.substrate_scans, st.substrate_absorbs),
            (5, 1, 0)
        );
        // A reload is a new resident graph: its first build scans again.
        svc.clear_cache();
        svc.load_graph("g", fixtures::sample_graph());
        svc.summarize("g", SummaryKind::Weak).unwrap();
        assert_eq!(svc.stats().substrate_scans, 2);
    }

    /// A restart served from persisted artifacts never scans.
    #[test]
    fn persist_hits_scan_no_substrate() {
        let dir = persist_dir("noscan");
        let cold = SummaryService::new(1).with_persist_dir(&dir);
        cold.load_graph("g", fixtures::sample_graph());
        for kind in FIVE_KINDS {
            cold.summarize("g", kind).unwrap();
        }
        let st = cold.stats();
        assert_eq!(
            (
                st.builds,
                st.persist_hits,
                st.persist_writes,
                st.substrate_scans
            ),
            (5, 0, 5, 1)
        );
        drop(cold);
        let warm = SummaryService::new(1).with_persist_dir(&dir);
        warm.load_graph("g", fixtures::sample_graph());
        for kind in FIVE_KINDS {
            assert!(warm.summarize("g", kind).unwrap().1);
        }
        let st = warm.stats();
        assert_eq!(
            (
                st.builds,
                st.persist_hits,
                st.persist_writes,
                st.substrate_scans
            ),
            (0, 5, 0, 0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `i`-th offer in the shape of the `explore_update` workload's
    /// writer, over a BSBM graph of `products` products: a new offer, its
    /// type, its product and vendor, and five literals like the
    /// generator's own offers carry.
    fn offer_batch(products: usize, i: usize) -> Vec<(Term, Term, Term)> {
        use rdf_model::vocab::{RDF_TYPE, XSD_DATE, XSD_DECIMAL, XSD_INTEGER};
        use rdfsum_workloads::bsbm::{BSBM_NS, INST_NS};
        let id = 1_000_000 + i;
        let offer = Term::iri(format!("{INST_NS}Offer{id}"));
        let v = |local: &str| Term::iri(format!("{BSBM_NS}{local}"));
        let day = 1 + i % 27;
        [
            (Term::iri(RDF_TYPE), v("Offer")),
            (
                v("product"),
                Term::iri(format!("{INST_NS}Product{}", i * 7 % products)),
            ),
            (v("vendor"), Term::iri(format!("{INST_NS}Vendor0"))),
            (
                v("price"),
                Term::typed_literal(format!("{}.{:02}", 5 + i, i % 99), XSD_DECIMAL),
            ),
            (
                v("validFrom"),
                Term::typed_literal(format!("2015-01-{day:02}"), XSD_DATE),
            ),
            (
                v("validTo"),
                Term::typed_literal(format!("2015-06-{day:02}"), XSD_DATE),
            ),
            (
                v("deliveryDays"),
                Term::typed_literal(format!("{}", 1 + i % 13), XSD_INTEGER),
            ),
            (
                v("offerWebpage"),
                Term::literal(format!("http://vendor.example.org/offers/{id}")),
            ),
        ]
        .into_iter()
        .map(|(p, o)| (offer.clone(), p, o))
        .collect()
    }

    /// Fifty inserts shaped like the `explore_update` writer's, with `w`
    /// and `tw` warm, extend both quotient maps every time — 100 patches,
    /// not one build, one substrate scan — and every carried artifact is
    /// the one a cold build of the model serves, statistics
    /// included. The writer's delete of a whole offer is retracted from
    /// the substrate and from both maps; a delete of an offer's first row
    /// alone is not, and rebuilds both from a new scan, whose maps extend
    /// in their turn; the two shapes of "late" data decide per kind.
    #[test]
    fn insert_batches_extend_the_kept_substrate() {
        const KINDS: [SummaryKind; 2] = [SummaryKind::Weak, SummaryKind::TypedWeak];
        const PRODUCTS: usize = 20;
        let base =
            rdfsum_workloads::generate_bsbm(&rdfsum_workloads::BsbmConfig::with_products(PRODUCTS));
        let svc = SummaryService::new(1);
        svc.load_graph("g", base.clone());
        for kind in KINDS {
            svc.summarize("g", kind).unwrap();
        }
        let mut model = rdf_store::TripleStore::new(base);
        let check = |model: &rdf_store::TripleStore, what: &str| {
            let cold = SummaryContext::new(model.graph());
            for kind in KINDS {
                let (artifact, hit) = svc.summarize("g", kind).unwrap();
                assert!(hit, "{what}: {kind} went cold");
                let summary = cold.summarize(kind);
                assert!(
                    artifact.ntriples == rdf_io::write_graph(&summary.graph),
                    "{what}: served {kind} differs from a cold build"
                );
                assert_eq!(artifact.input_triples, model.len(), "{what}: {kind}");
                let card = SummaryCardinality::new(model, &summary);
                let figures = |c: &SummaryCardinality| {
                    let mut props: Vec<_> = c.iter_properties().collect();
                    let mut classes: Vec<_> = c.iter_classes().collect();
                    props.sort_unstable_by_key(|&(p, _)| p);
                    classes.sort_unstable();
                    (c.n_data_nodes(), props, classes)
                };
                assert_eq!(
                    figures(&artifact.cardinality),
                    figures(&card),
                    "{what}: {kind}"
                );
            }
        };
        let counts = |svc: &SummaryService| {
            let st = svc.stats();
            assert_eq!(st.builds, st.patch_fallbacks + st.misses);
            (
                st.builds,
                st.patches,
                st.substrate_scans,
                st.substrate_absorbs,
            )
        };
        for i in 0..50 {
            let batch = offer_batch(PRODUCTS, i);
            let out = svc.update("g", true, &batch).unwrap();
            assert_eq!(
                (out.applied, out.patched, out.rebuilt),
                (8, 2, 0),
                "insert {i}"
            );
            model.insert_batch(&batch).unwrap();
            check(&model, &format!("insert {i}"));
        }
        assert_eq!(counts(&svc), (2, 100, 1, 50));
        // A whole offer goes: both maps shrink by it, nothing is built.
        let gone = offer_batch(PRODUCTS, 0);
        let out = svc.update("g", false, &gone).unwrap();
        assert_eq!((out.applied, out.patched, out.rebuilt), (8, 2, 0));
        model.delete_batch(&gone);
        check(&model, "whole-offer delete");
        assert_eq!(counts(&svc), (2, 102, 1, 50));
        // An offer that stays loses its first row: its first property
        // would move, so both rebuild, from a new scan.
        let first_row = [offer_batch(PRODUCTS, 1).swap_remove(1)];
        let out = svc.update("g", false, &first_row).unwrap();
        assert_eq!((out.applied, out.patched, out.rebuilt), (1, 0, 2));
        model.delete_batch(&first_row);
        check(&model, "first-row delete");
        assert_eq!(counts(&svc), (4, 102, 2, 50));
        assert_eq!(svc.stats().refused_stale, 2);
        assert_eq!(svc.stats().substrate_retracts, 1);
        // The maps of the rebuild extend in their turn.
        let batch = offer_batch(PRODUCTS, 50);
        let out = svc.update("g", true, &batch).unwrap();
        assert_eq!((out.patched, out.rebuilt), (2, 0));
        model.insert_batch(&batch).unwrap();
        check(&model, "insert after delete");
        // A new *untyped* subject of an offer property joins the offers'
        // weak class, but no untyped class of `tw` has that property;
        // typing it afterwards is a batch the substrate cannot carry.
        let price = |s: &str| {
            let p = format!("{}price", rdfsum_workloads::bsbm::BSBM_NS);
            let o = Term::typed_literal("1.00", rdf_model::vocab::XSD_DECIMAL);
            (Term::iri(s), Term::iri(p), o)
        };
        let late = Term::iri("urn:u:late");
        let typed = (
            late,
            Term::iri(rdf_model::vocab::RDF_TYPE),
            Term::iri("urn:u:Late"),
        );
        for (batch, outcome, what) in [
            (price("urn:u:late"), (1, 1), "late: data"),
            (typed, (0, 2), "late: type"),
        ] {
            let batch = [batch];
            let out = svc.update("g", true, &batch).unwrap();
            assert_eq!((out.patched, out.rebuilt), outcome, "{what}");
            model.insert_batch(&batch).unwrap();
            check(&model, what);
        }
        let st = svc.stats();
        assert_eq!(
            (st.refused_stale, st.refused_structural, st.refused_no_map),
            (4, 1, 0)
        );
        assert_eq!((st.substrate_scans, st.substrate_absorbs), (3, 52));
    }

    /// A restarted service serves its artifacts from the persist dir, and
    /// those keep no map: its first `UPDATE` rebuilds them — scanning the
    /// substrate its maps are then read from — and from the second on the
    /// maps extend.
    #[test]
    fn restarted_service_rebuilds_once_then_patches() {
        const KINDS: [SummaryKind; 2] = [SummaryKind::Weak, SummaryKind::TypedWeak];
        const PRODUCTS: usize = 20;
        let base =
            rdfsum_workloads::generate_bsbm(&rdfsum_workloads::BsbmConfig::with_products(PRODUCTS));
        let dir = persist_dir("restart_patch");
        let cold = SummaryService::new(1).with_persist_dir(&dir);
        cold.load_graph("g", base.clone());
        for kind in KINDS {
            cold.summarize("g", kind).unwrap();
        }
        drop(cold);
        let warm = SummaryService::new(1).with_persist_dir(&dir);
        warm.load_graph("g", base.clone());
        for kind in KINDS {
            assert!(warm.summarize("g", kind).unwrap().1, "{kind}");
        }
        let mut model = rdf_store::TripleStore::new(base);
        for (i, carried) in [(0, 2), (2, 0), (2, 0)].into_iter().enumerate() {
            let batch = offer_batch(PRODUCTS, i);
            let out = warm.update("g", true, &batch).unwrap();
            assert_eq!((out.patched, out.rebuilt), carried, "update {i}");
            model.insert_batch(&batch).unwrap();
            let cold = SummaryContext::new(model.graph());
            for kind in KINDS {
                let (artifact, hit) = warm.summarize("g", kind).unwrap();
                assert!(hit, "update {i}: {kind}");
                let body = rdf_io::write_graph(&cold.summarize(kind).graph);
                assert!(artifact.ntriples == body, "update {i}: {kind}");
            }
        }
        let st = warm.stats();
        assert_eq!((st.persist_hits, st.builds, st.patches), (2, 2, 4));
        assert_eq!((st.refused_no_map, st.patch_fallbacks), (2, 2));
        assert_eq!((st.substrate_scans, st.substrate_absorbs), (1, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A 900-product BSBM graph: the base the concurrency tests update.
    fn bsbm_graph() -> Graph {
        rdfsum_workloads::generate_bsbm(&rdfsum_workloads::BsbmConfig::with_products(900))
    }

    /// The `i`-th 8-triple batch of the concurrency tests: four `p` edges
    /// into a hub shared by all batches and four `q` edges out of it, so
    /// the `p`–`q` join's answer depends on exactly which batches are live.
    fn hub_batch(i: usize) -> Vec<(Term, Term, Term)> {
        (0..4)
            .flat_map(|j| {
                [
                    u(&format!("urn:u:a{i}_{j}"), "urn:u:p", "urn:u:hub"),
                    u("urn:u:hub", "urn:u:q", &format!("urn:u:z{i}_{j}")),
                ]
            })
            .collect()
    }

    const HUB_POINT: &str = "q(?y) :- <urn:u:a1_0> <urn:u:p> ?y";
    const HUB_JOIN: &str = "q(?x, ?z) :- ?x <urn:u:p> ?y, ?y <urn:u:q> ?z";
    const PROVABLY_EMPTY: &str = "q(?x) :- ?x <urn:no-such-property> ?y";

    /// What a cold build serves for `store`'s content.
    fn cold_bytes(store: &rdf_store::TripleStore, kind: SummaryKind) -> String {
        rdf_io::write_graph(&SummaryContext::new(store.graph()).summarize(kind).graph)
    }

    /// Readers race a writer on a BSBM graph (`threads = 2`):
    /// every query answer is the un-pruned evaluator's on a content the
    /// graph held while the query ran, every artifact is byte-equal to a
    /// cold build of the fingerprint it carries, and the accounting closes.
    #[test]
    fn readers_race_a_writer_above_the_shard_threshold() {
        const KINDS: [SummaryKind; 2] = [SummaryKind::Weak, SummaryKind::TypedWeak];
        let base = bsbm_graph();
        let graph_point = {
            let s = base.dict().decode(base.data()[0].s).to_string();
            format!("q(?p, ?o) :- {s} ?p ?o")
        };
        let queries = [HUB_POINT, HUB_JOIN, graph_point.as_str(), PROVABLY_EMPTY];
        // Live batches per step: {} {0} {0,1} {1} {1,2} {2} — no content,
        // hence no fingerprint, repeats.
        let ops: Vec<UpdateOp> = vec![
            (true, hub_batch(0)),
            (true, hub_batch(1)),
            (false, hub_batch(0)),
            (true, hub_batch(2)),
            (false, hub_batch(1)),
        ];
        // The model: per step, the fingerprint, each query's answer and
        // each kind's cold bytes.
        struct Step {
            fingerprint: Fingerprint,
            answers: Vec<RowSet>,
            bytes: Vec<String>,
        }
        let mut model = rdf_store::TripleStore::new(base.clone());
        let mut steps = Vec::new();
        for op in std::iter::once(None).chain(ops.iter().map(Some)) {
            match op {
                Some((true, batch)) => drop(model.insert_batch(batch).unwrap()),
                Some((false, batch)) => drop(model.delete_batch(batch)),
                None => {}
            }
            steps.push(Step {
                fingerprint: model.fingerprint(),
                answers: queries.iter().map(|q| oracle_rows(&model, q)).collect(),
                bytes: KINDS.iter().map(|&k| cold_bytes(&model, k)).collect(),
            });
        }
        let step_of = |fp: Fingerprint| {
            steps
                .iter()
                .position(|s| s.fingerprint == fp)
                .expect("a fingerprint the writer never produced")
        };

        let svc = SummaryService::new(2);
        svc.load_graph("g", base);
        for kind in KINDS {
            svc.summarize("g", kind).unwrap();
        }
        let done = std::sync::atomic::AtomicBool::new(false);
        let current = || step_of(svc.graph_info("g").unwrap().0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for (insert, batch) in &ops {
                    let out = svc.update("g", *insert, batch).unwrap();
                    assert_eq!((out.applied, out.patched + out.rebuilt), (8, 2));
                }
                done.store(true, Ordering::SeqCst);
            });
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut rounds = 0;
                    while !done.load(Ordering::SeqCst) || rounds < 2 {
                        rounds += 1;
                        for (qi, text) in queries.iter().enumerate() {
                            let lo = current();
                            let out = svc.query("g", text, None, usize::MAX).unwrap();
                            let hi = current();
                            let got = row_set(&out);
                            assert!(
                                (lo..=hi).any(|i| steps[i].answers[qi] == got),
                                "`{text}` matched no content of steps {lo}..={hi}"
                            );
                            assert!(out.pruned || *text != PROVABLY_EMPTY, "`{text}`");
                        }
                        for (ki, kind) in KINDS.into_iter().enumerate() {
                            let lo = current();
                            let (artifact, _) = svc.summarize("g", kind).unwrap();
                            let hi = current();
                            let at = step_of(artifact.fingerprint);
                            assert!(
                                (lo..=hi).contains(&at),
                                "{kind}: step {at} outside {lo}..={hi}"
                            );
                            assert!(
                                artifact.ntriples == steps[at].bytes[ki],
                                "{kind} of step {at} differs from its cold build"
                            );
                        }
                    }
                });
            }
        });
        let st = svc.stats();
        assert_eq!(st.updates, ops.len() as u64);
        assert_eq!(st.builds, st.patch_fallbacks + st.misses);
    }

    /// While one writer's carry runs under the shared lock, a second
    /// writer queued behind it must not turn readers away (`std`'s lock
    /// prefers writers, so it has to queue on the gate, not on the lock).
    #[test]
    fn queued_writer_does_not_stop_readers() {
        let base = bsbm_graph();
        let mut model = rdf_store::TripleStore::new(base.clone());
        model.insert_batch(&hub_batch(1)).unwrap();
        let expect = oracle_rows(&model, HUB_JOIN);
        let svc = &SummaryService::new(2);
        svc.load_graph("g", base);
        svc.summarize("g", SummaryKind::Weak).unwrap();
        svc.summarize("g", SummaryKind::TypedWeak).unwrap();
        // Park the first carry after `w` has landed, before `tw`.
        let (hook, parked, release) = parking_hook(SummaryKind::TypedWeak);
        set_carry_hook(svc, Some(hook));
        let resident = svc.resident("g").unwrap();
        std::thread::scope(|scope| {
            let first = scope.spawn(|| svc.update("g", true, &hub_batch(1)).unwrap());
            parked.recv().unwrap();
            let second = scope.spawn(|| svc.update("g", true, &hub_batch(2)).unwrap());
            // The second writer holds a handle on the binding from the
            // instruction before it queues: the map's, the first writer's
            // and this thread's make three.
            while Arc::strong_count(&resident) < 4 {
                std::thread::yield_now();
            }
            let (answer_tx, answer_rx) = std::sync::mpsc::channel();
            scope.spawn(move || {
                let out = svc.query("g", HUB_JOIN, None, usize::MAX).unwrap();
                let _ = answer_tx.send(out);
            });
            let answered = answer_rx.recv_timeout(std::time::Duration::from_secs(60));
            let second_was_queued = !second.is_finished();
            release.send(()).unwrap();
            let out = answered.expect("a reader stalled behind the queued writer");
            assert_eq!(out.kind, SummaryKind::Weak, "`w` is carried first");
            assert_eq!(row_set(&out), expect);
            assert!(second_was_queued);
            let first = first.join().unwrap();
            assert_eq!(second.join().unwrap().previous, first.fingerprint);
        });
        let st = svc.stats();
        assert_eq!(st.builds, st.patch_fallbacks + st.misses);
    }

    /// Interleaved UPDATE/QUERY chaos from several threads: the service
    /// stays live and the counter seams hold (the CI stress invariant).
    #[test]
    fn update_query_interleaving_stays_consistent() {
        let svc = Arc::new(SummaryService::new(1));
        svc.load_graph("g", fixtures::sample_graph());
        svc.summarize("g", SummaryKind::Weak).unwrap();
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let svc = Arc::clone(&svc);
                scope.spawn(move || {
                    for i in 0..8 {
                        let t = u(
                            &format!("urn:w{worker}:s{i}"),
                            "urn:u:p",
                            &format!("urn:w{worker}:o{i}"),
                        );
                        svc.update("g", i % 4 != 3, &[t]).unwrap();
                        let out = svc
                            .query("g", "q(?x, ?y) :- ?x <urn:u:p> ?y", None, usize::MAX)
                            .unwrap();
                        assert!(!out.columns.is_empty());
                    }
                });
            }
        });
        let stats = svc.stats();
        assert_eq!(stats.updates, 32);
        assert_eq!(
            stats.builds,
            stats.patch_fallbacks + stats.misses,
            "every build is either a request miss or a declared fallback"
        );
    }

    /// The single-flight gate under real contention: many threads × all
    /// kinds on one fingerprint build each summary exactly once.
    #[test]
    fn single_flight_under_contention() {
        let svc = Arc::new(SummaryService::new(1));
        svc.load_graph("g", fixtures::sample_graph());
        let threads = 8;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let svc = Arc::clone(&svc);
                scope.spawn(move || {
                    for kind in SummaryKind::ALL {
                        let (artifact, _) = svc.summarize("g", kind).unwrap();
                        assert_eq!(artifact.kind, kind);
                        assert!(!artifact.ntriples.is_empty());
                    }
                });
            }
        });
        assert_eq!(svc.builds(), 4, "one build per (fingerprint, kind)");
        let st = svc.stats();
        assert_eq!(st.hits + st.misses, (threads * 4) as u64);
    }

    #[test]
    fn query_exactly_limit_rows_is_not_truncated() {
        let svc = SummaryService::new(1);
        svc.load_graph("g", fixtures::sample_graph());
        let text = "q(?x, ?y) :- ?x ?p ?y";
        let n = svc.query("g", text, None, usize::MAX).unwrap().row_count;
        assert!(n > 1, "fixture must yield several rows");
        // Exactly-full result set: complete, not truncated.
        let exact = svc.query("g", text, None, n).unwrap();
        assert_eq!(exact.row_count, n);
        assert!(!exact.truncated, "exact-fit misreported as truncated");
        // One below: genuinely cut.
        let cut = svc.query("g", text, None, n - 1).unwrap();
        assert_eq!(cut.row_count, n - 1);
        assert!(cut.truncated);
    }

    /// A scratch persist dir, wiped of any previous run's leftovers.
    fn persist_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rdfsum_persist_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn persisted_artifact_warms_a_fresh_service() {
        let dir = persist_dir("warm");
        let cold = SummaryService::new(1).with_persist_dir(&dir);
        cold.load_graph("g", fixtures::sample_graph());
        let (built, hit) = cold.summarize("g", SummaryKind::Weak).unwrap();
        assert!(!hit);
        let st = cold.stats();
        assert_eq!((st.persist_writes, st.persist_hits), (1, 0));
        drop(cold);

        // A "restarted" service: same dir, fresh cache.
        let warm = SummaryService::new(1).with_persist_dir(&dir);
        warm.load_graph("g", fixtures::sample_graph());
        let (artifact, hit) = warm.summarize("g", SummaryKind::Weak).unwrap();
        assert!(hit, "persisted artifact must serve as a hit");
        assert_eq!(warm.builds(), 0, "warm path must not rebuild");
        assert_eq!(artifact.ntriples, built.ntriples, "bytes must be identical");
        let st = warm.stats();
        assert_eq!((st.hits, st.misses, st.persist_hits), (1, 0, 1));
        assert_eq!(st.builds, st.patch_fallbacks + st.misses);
        // Second request is an ordinary in-memory hit, not another probe.
        let (_, hit) = warm.summarize("g", SummaryKind::Weak).unwrap();
        assert!(hit);
        assert_eq!(warm.stats().persist_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_persisted_artifacts_degrade_to_plain_misses() {
        let dir = persist_dir("corrupt");
        let cold = SummaryService::new(1).with_persist_dir(&dir);
        let fp = cold.load_graph("g", fixtures::sample_graph()).fingerprint;
        let (built, _) = cold.summarize("g", SummaryKind::Weak).unwrap();
        drop(cold);
        let path = dir.join(crate::persist::artifact_file_name(fp, SummaryKind::Weak));
        let good = std::fs::read(&path).unwrap();

        let damaged: Vec<(&str, Vec<u8>)> = vec![
            ("empty", Vec::new()),
            ("truncated", good[..good.len() / 2].to_vec()),
            ("bit flip", {
                let mut v = good.clone();
                let mid = v.len() / 2;
                v[mid] ^= 0x20;
                v
            }),
            ("wrong magic", {
                let mut v = good.clone();
                v[0] = b'X';
                v
            }),
            ("wrong version", {
                let mut v = good.clone();
                v[8] = 0x7f;
                v
            }),
            ("garbage", b"not an artifact at all".to_vec()),
        ];
        for (what, bytes) in damaged {
            std::fs::write(&path, bytes).unwrap();
            let svc = SummaryService::new(1).with_persist_dir(&dir);
            svc.load_graph("g", fixtures::sample_graph());
            let (artifact, hit) = svc.summarize("g", SummaryKind::Weak).unwrap();
            assert!(!hit, "{what}: corrupt artifact served as a hit");
            assert_eq!(svc.builds(), 1, "{what}: must fall back to a build");
            let st = svc.stats();
            assert_eq!((st.misses, st.persist_hits), (1, 0), "{what}");
            assert_eq!(artifact.ntriples, built.ntriples, "{what}: wrong bytes");
            // The rebuild re-persists a good artifact over the damage…
            assert_eq!(st.persist_writes, 1, "{what}: no write-back");
        }
        // …so one more restart comes back warm again.
        let healed = SummaryService::new(1).with_persist_dir(&dir);
        healed.load_graph("g", fixtures::sample_graph());
        let (_, hit) = healed.summarize("g", SummaryKind::Weak).unwrap();
        assert!(hit);
        assert_eq!(healed.builds(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evict_unlinks_persisted_slots() {
        let dir = persist_dir("evict");
        let svc = SummaryService::new(1).with_persist_dir(&dir);
        let fp = svc.load_graph("g", fixtures::sample_graph()).fingerprint;
        svc.summarize("g", SummaryKind::Weak).unwrap();
        svc.summarize("g", SummaryKind::Strong).unwrap();
        let weak = dir.join(crate::persist::artifact_file_name(fp, SummaryKind::Weak));
        assert!(weak.exists());
        svc.evict("g").unwrap();
        assert!(!weak.exists(), "EVICT must unlink the on-disk slots");
        assert!(!dir
            .join(crate::persist::artifact_file_name(fp, SummaryKind::Strong))
            .exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evict_keeps_persisted_slots_shared_with_another_name() {
        let dir = persist_dir("evict_shared");
        let svc = SummaryService::new(1).with_persist_dir(&dir);
        let fp = svc.load_graph("a", fixtures::sample_graph()).fingerprint;
        svc.load_graph("b", fixtures::sample_graph());
        svc.summarize("a", SummaryKind::Weak).unwrap();
        let path = dir.join(crate::persist::artifact_file_name(fp, SummaryKind::Weak));
        svc.evict("a").unwrap();
        assert!(path.exists(), "content still resident under another name");
        svc.evict("b").unwrap();
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn update_rekeys_persisted_slots() {
        let dir = persist_dir("update");
        let svc = SummaryService::new(1).with_persist_dir(&dir);
        let old_fp = svc.load_graph("g", fixtures::sample_graph()).fingerprint;
        svc.summarize("g", SummaryKind::Weak).unwrap();
        let (s, p, o) = u("http://x/new", "http://x/p", "http://x/target");
        let out = svc.update("g", true, &[(s, p, o)]).unwrap();
        assert_ne!(out.fingerprint, old_fp);
        let old = dir.join(crate::persist::artifact_file_name(
            old_fp,
            SummaryKind::Weak,
        ));
        let new = dir.join(crate::persist::artifact_file_name(
            out.fingerprint,
            SummaryKind::Weak,
        ));
        assert!(!old.exists(), "stale slot must be unlinked");
        assert!(new.exists(), "carried artifact must be re-keyed on disk");
        // A restarted service on the updated content comes back warm.
        let mutated = mutated_store(
            fixtures::sample_graph(),
            &[(
                true,
                vec![u("http://x/new", "http://x/p", "http://x/target")],
            )],
        );
        let warm = SummaryService::new(1).with_persist_dir(&dir);
        warm.load_graph("g", mutated.graph().clone());
        let (_, hit) = warm.summarize("g", SummaryKind::Weak).unwrap();
        assert!(hit);
        assert_eq!(warm.builds(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// No served path builds or probes a graph's hash set: a resident
    /// graph and every cached summary graph stay without one through `LOAD`
    /// of either format (the store's index build is the proof), cold
    /// builds, persist hits, `UPDATE ±` (membership is the SPO merge's
    /// business) and `QUERY`. The bodies are the ones a graph built row by
    /// row serves.
    #[test]
    fn served_paths_never_build_a_hash_set() {
        const FIVE: [SummaryKind; 5] = [
            SummaryKind::Weak,
            SummaryKind::Strong,
            SummaryKind::TypedWeak,
            SummaryKind::TypedStrong,
            SummaryKind::TypeBased,
        ];
        let dir = persist_dir("no_hash_set");
        std::fs::create_dir_all(&dir).unwrap();
        let g = rdfsum_workloads::generate_bsbm(&rdfsum_workloads::BsbmConfig::with_products(30));
        assert!(g.has_hash_set(), "the generator inserts row by row");
        let (nt, snap) = (dir.join("g.nt"), dir.join("g.snap"));
        rdf_io::save_path(&g, &nt).unwrap();
        rdf_store::snapshot::save(&g, &snap).unwrap();
        let no_hash_set = |svc: &SummaryService, what: &str| {
            for resident in svc.graphs.lock().unwrap().values() {
                let entry = resident.entry.read().unwrap();
                assert!(
                    !entry.store.graph().has_hash_set(),
                    "resident graph after {what}"
                );
            }
            for slot in svc.cache.state.lock().unwrap().slots.values() {
                if let Slot::Ready { artifact, .. } = slot {
                    let h = artifact.summary_store.graph();
                    assert!(!h.has_hash_set(), "{} summary after {what}", artifact.kind);
                }
            }
        };
        let by_rows = SummaryService::new(2);
        by_rows.load_graph("g", g.clone());

        // A cold lifetime: LOAD .nt as the server does, five cold builds.
        let cold = SummaryService::new(2).with_persist_dir(dir.join("persist"));
        let rows = rdf_io::load_rows(&nt).unwrap();
        let store = TripleStore::from_rows(rows, cold.threads()).expect("no line repeats");
        let loaded = cold.load_store("g", store);
        assert_eq!(loaded.triples, g.len());
        no_hash_set(&cold, "LOAD .nt");
        let mut bodies = Vec::new();
        for kind in FIVE {
            let (artifact, hit) = cold.summarize("g", kind).unwrap();
            assert!(!hit);
            assert_eq!(
                artifact.ntriples,
                by_rows.summarize("g", kind).unwrap().0.ntriples
            );
            bodies.push(artifact.ntriples.clone());
        }
        assert_eq!(cold.builds(), 5);
        no_hash_set(&cold, "five cold SUMMARIZEs");

        // A restarted lifetime: LOAD .snap, five persist hits.
        let warm = SummaryService::new(2).with_persist_dir(dir.join("persist"));
        let rows = rdf_store::snapshot::decode_rows(&std::fs::read(&snap).unwrap()).unwrap();
        let store = TripleStore::from_rows(rows, warm.threads()).expect("no row repeats");
        assert_eq!(warm.load_store("g", store).fingerprint, loaded.fingerprint);
        no_hash_set(&warm, "LOAD .snap");
        for (kind, body) in FIVE.into_iter().zip(&bodies) {
            let (artifact, hit) = warm.summarize("g", kind).unwrap();
            assert!(hit);
            assert_eq!(&artifact.ntriples, body);
        }
        assert_eq!((warm.builds(), warm.stats().persist_hits), (0, 5));
        no_hash_set(&warm, "five persist hits");

        // Ten UPDATE batches — in-batch repeats, triples already there,
        // deletes of absent triples, a deleted triple added back — carry
        // all five kinds each; the reference service applies the same
        // batches to the row-built graph.
        let mut batches: Vec<UpdateOp> = Vec::new();
        for i in 0..4 {
            let mut add = hub_batch(i);
            add.push(add[0].clone());
            add.extend(hub_batch(i.saturating_sub(1)).into_iter().take(2));
            batches.push((true, add));
            let mut del = hub_batch(i)[2..5].to_vec();
            del.push(del[0].clone());
            del.push(u("urn:u:never", "urn:u:p", "urn:u:there"));
            batches.push((false, del));
        }
        // Two of these three were deleted by batch 1; one never was.
        batches.push((true, hub_batch(0)[1..4].to_vec()));
        batches.push((false, [&hub_batch(0)[..2], &hub_batch(0)[..1]].concat()));
        assert_eq!(batches.len(), 10);
        for (i, (insert, batch)) in batches.iter().enumerate() {
            let out = warm.update("g", *insert, batch).unwrap();
            let want = by_rows.update("g", *insert, batch).unwrap();
            assert_eq!(
                (out.applied, out.fingerprint),
                (want.applied, want.fingerprint)
            );
            assert!(out.applied > 0 && out.applied < batch.len(), "batch {i}");
            assert_eq!(out.patched + out.rebuilt, 5);
            no_hash_set(&warm, "an UPDATE");
        }
        for kind in FIVE {
            let (artifact, hit) = warm.summarize("g", kind).unwrap();
            assert!(hit);
            assert_eq!(
                artifact.ntriples,
                by_rows.summarize("g", kind).unwrap().0.ntriples
            );
        }
        for text in [
            HUB_POINT,
            HUB_JOIN,
            "q(?x) :- ?x <urn:u:q> ?y, ?y <urn:u:p> ?z, ?z <urn:u:nowhere> ?w",
            "q(?s, ?o) :- ?s <http://www.w3.org/2000/01/rdf-schema#label> ?o",
        ] {
            let out = warm.query("g", text, None, 10_000).unwrap();
            assert_eq!(
                out.body,
                by_rows.query("g", text, None, 10_000).unwrap().body
            );
        }
        no_hash_set(&warm, "the QUERY mix");
        assert!(warm.evict("g").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evict_all_sweeps_the_persist_dir() {
        let dir = persist_dir("evict_all");
        let svc = SummaryService::new(1).with_persist_dir(&dir);
        let g = svc.load_graph("g", fixtures::sample_graph()).fingerprint;
        let h = svc.load_graph("h", fixtures::book_graph()).fingerprint;
        svc.summarize("g", SummaryKind::Weak).unwrap();
        svc.summarize("h", SummaryKind::TypedWeak).unwrap();
        // A slot of content no graph holds, left by an earlier lifetime.
        let stray = Fingerprint { hi: 1, lo: 2 };
        let files = [(g, SummaryKind::Weak), (h, SummaryKind::TypedWeak)]
            .map(|(fp, kind)| dir.join(crate::persist::artifact_file_name(fp, kind)));
        let stray = dir.join(crate::persist::artifact_file_name(stray, SummaryKind::Weak));
        std::fs::copy(&files[0], &stray).unwrap();
        assert!(files.iter().chain([&stray]).all(|f| f.exists()));
        svc.evict_all();
        assert!(!files.iter().chain([&stray]).any(|f| f.exists()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
