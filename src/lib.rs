//! # rdfsummary — query-oriented summarization of RDF graphs
//!
//! A complete Rust implementation of *“Query-Oriented Summarization of RDF
//! Graphs”* (Čebirić, Goasdoué, Manolescu): weak, strong, typed-weak and
//! typed-strong quotient summaries over an embedded RDF stack — data
//! model, N-Triples I/O, triple store, RDFS saturation, and a BGP/RBGP
//! query engine.
//!
//! This façade crate re-exports the workspace's public APIs; see the
//! member crates for the full documentation:
//!
//! * [`rdf_model`] — terms (including symbolic, lazily rendered
//!   [`rdf_model::Term::Minted`] summary names), dictionary encoding,
//!   graphs `⟨D_G, S_G, T_G⟩`;
//! * [`rdf_io`] — N-Triples parsing/serialization, DOT export;
//! * [`rdf_store`] — permutation-indexed triple store;
//! * [`rdf_schema`] — RDFS constraints and saturation `G → G∞`;
//! * [`rdf_query`] — BGP/RBGP queries, evaluation, workload sampling;
//! * [`rdfsum_core`] — cliques, equivalences, the quotient summaries and
//!   the summary service: what `serve` links and nothing else; summary
//!   nodes are minted symbolically (interned property/class-set keys, URI
//!   strings rendered only on output — see `rdfsum_core::naming`);
//! * [`rdfsum_experiments`] — the paper's evaluation artefacts that no
//!   served path runs: streaming Algorithms 1–3, property distance,
//!   Lemma 1, inflation, summary isomorphism, the formal property
//!   checkers (the CLI's `check`) and the hash-map reference builders;
//! * [`rdfsum_workloads`] — BSBM-like / LUBM-like / shape generators;
//! * [`rdfsum_server`] — the warm-store summary server: a TCP line
//!   protocol over resident stores and a fingerprint-keyed summary cache.
//!
//! ## Quickstart
//!
//! ```
//! use rdfsummary::prelude::*;
//!
//! // Load (or build) a graph…
//! let graph = rdf_io::parse_graph(
//!     "<http://x/book1> <http://x/author> <http://x/alice> .\n\
//!      <http://x/book2> <http://x/author> <http://x/bob> .\n",
//! )
//! .unwrap();
//!
//! // …summarize it…
//! let summary = summarize(&graph, SummaryKind::Weak);
//! assert_eq!(summary.graph.data().len(), 1); // one `author` edge
//!
//! // …and use the summary to prune queries without touching the graph.
//! let q = rdf_query::parse_query(
//!     "q() :- ?x <http://x/price> ?y",
//!     &rdf_model::PrefixMap::with_defaults(),
//! )
//! .unwrap();
//! assert!(rdfsum_experiments::can_prune(&summary, &q));
//! ```
//!
//! ## Loading
//!
//! `LOAD`, the CLI and [`rdf_io::load_path`] all run one N-Triples codec
//! ([`rdf_io::ntriples`], [`rdf_io::writer`]). The file is read in 8 MiB
//! blocks into one reused line buffer — memory beside the graph is a block
//! and the longest line, not the file. Each line is scanned once, at byte
//! level, into *borrowed* term views ([`rdf_model::TermRef`]: slices of
//! the line, or of a reused scratch buffer when the term has an escape)
//! and handed to [`rdf_model::UnprovedRows::push_ref`], which validates
//! the triple and probes the dictionary with the views themselves: a term
//! already interned (about nine occurrences in ten on BSBM) costs a hash
//! and a comparison, a new one has its slices appended to the dictionary's
//! arena — neither allocates. Ids are first-seen in `s`, `p`, `o`
//! order per line, so fingerprints, snapshots and summary bodies do not
//! depend on which entry point loaded the graph. The row itself is
//! appended to its component table and nothing asks whether it was seen
//! before: that a graph is a *set* of triples is proved once, by the SPO
//! counting sort ([`rdf_model::sorted_dedup`]) coming out as long as the
//! tables — for free where a store builds its index anyway (`LOAD`:
//! [`rdf_store::TripleStore::from_rows`]), as one sort of its own where a
//! bare [`rdf_model::Graph`] is asked for (the CLI, [`rdf_io::load_path`]).
//! A file that repeats a line is compacted to the first occurrences on the
//! rare path that follows a short sort; the snapshot decoder appends the
//! same way and reports a repeat as damage. [`rdf_io::parse_line`],
//! [`rdf_io::parse_str`] and [`rdf_io::parse_statements`] (the `UPDATE`
//! payload) run the same cursor and build owned terms from the same
//! views; every error carries its line and a 1-based *character* column.
//! Output goes the other way through appenders onto one pre-sized
//! `String` ([`rdf_io::writer::push_triple`]) — the body of every
//! `SUMMARIZE`, persisted artifact and `--out` file.
//!
//! ## Term storage
//!
//! A [`rdf_model::Dictionary`] keeps every term of a graph in one
//! append-only `String` arena: a fixed-size record per id (offset, two
//! field lengths, shape) in front of it, an open-addressed table of
//! `(hash, id)` slots behind it, and a small side table for the symbolic
//! [`rdf_model::Term::Minted`] summary names. There is no per-term
//! allocation, so a dictionary is four vectors however many terms it
//! holds, and the paths a restart is made of append in bulk: a `.snap`
//! image ([`rdf_store::snapshot`]) or a persisted `.sum` artifact
//! (`rdfsum_core::persist`) is checksummed, its counts are bounded by its
//! length, and its strings are validated in place and copied once, into
//! the arena. `decode` hands out [`rdf_model::TermRef`] views of the arena
//! — `Term`'s read side without the ownership; `to_term()` makes an owned
//! [`rdf_model::Term`] where one must outlive the graph. The three
//! permutation indices over the dense ids are built by counting, not by
//! comparing ([`rdf_store::index`]). Ids stay dense and first-seen, which
//! is what every summary, snapshot, fingerprint and wire byte is pinned to.
//!
//! ## Building & testing
//!
//! The workspace is hermetic: it builds offline with a stock Rust
//! toolchain and no crates.io dependencies (the `proptest`, `criterion`
//! and `polling` APIs it uses are vendored as minimal shims under
//! `crates/shims/`). From the repository root:
//!
//! ```text
//! cargo build --release      # all thirteen member crates + the `rdfsummary` CLI
//! cargo test -q              # unit, property, doc and integration tests
//! cargo bench --no-run       # compile the criterion-style benches
//! cargo bench -p rdfsum-bench --bench summarize   # run one bench suite
//! ```
//!
//! `cargo test -q` covers the whole workspace (the root `Cargo.toml` sets
//! `default-members` accordingly), including the integration suites
//! under `tests/`: `cli`, `end_to_end`, `golden_equivalence`,
//! `paper_example`, `properties`, `query_serving`, `robustness` and
//! `server` (and, beside `rdfsum-core`, the structured-mutation suite over
//! the two binary decoders, `decoders_never_panic`). Property tests default to 96 cases each; set
//! `PROPTEST_CASES` to change that.
//!
//! ## Serving
//!
//! `rdfsummary serve --addr HOST:PORT --threads N` starts the long-running
//! warm-store server ([`rdfsum_server`]): graphs are loaded once into
//! resident [`rdf_store::TripleStore`]s and every summary is cached under
//! the graph's content fingerprint ([`rdf_store::Fingerprint`], a
//! load-order-independent 128-bit digest folded over the sorted SPO
//! index). The protocol is one LF-terminated UTF-8 line per request, at
//! most 64 KiB:
//!
//! ```text
//! PING                       LOAD <path>
//! SUMMARIZE <kind> <graph>   QUERY <graph> <query>
//! UPDATE <graph> <+|-> <triples…>
//! STATS                      EVICT <graph> | EVICT *
//! QUIT
//! ```
//!
//! with `<kind>` ∈ `{w, s, tw, ts, t}` and `<graph>` the path the file
//! was loaded under. Responses are `OK field=value …` or
//! `ERR category: message` status lines; `SUMMARIZE`, `STATS` and
//! `QUERY` append a body framed by a final `bytes=<n>` field. A
//! `SUMMARIZE` body is the summary's N-Triples document,
//! **byte-identical** to what
//! `rdfsummary summarize --kind K --out FILE` writes for the same graph —
//! cached answers included, since the cache stores the serialized output
//! of the same build path. The cache is keyed by content, so re-loading
//! an identical file (or the same data under another path) stays warm,
//! and concurrent requests for a missing entry build it exactly once
//! (single-flight). `--cache-bytes N` puts an LRU byte budget on that
//! cache; evictions, hits and misses show up in `STATS`.
//!
//! `UPDATE` mutates a resident graph in place: `+` atomically inserts the
//! N-Triples statements packed on the rest of the line (all or nothing —
//! a malformed or capacity-violating statement rejects the whole batch),
//! `-` deletes them, silently skipping absent triples. The store's
//! 128-bit fingerprint is maintained **incrementally** — the commutative
//! lane-sum digest adds/subtracts exactly the touched triples, so the
//! post-batch fingerprint costs O(batch), not an SPO rescan — and the
//! answer is status-line-only: `OK update fp=<new> applied=<n>
//! patched=<p> rebuilt=<r>`. Cached summaries follow the fingerprint
//! transition: every kind that was warm for the old content is carried to
//! the new one. Each built artifact keeps its *quotient map* — the class
//! key → summary node tables of its partition, one extent count and the
//! first member per summary node — and the carry first offers it the
//! batch: an insert that only adds members to existing classes along
//! existing edges, or a delete that only takes members no class needs
//! (not its last, not its first) and leaves every summary edge a witness,
//! cannot change a quotient (Definitions 4 and 9), so the map carries it,
//! the body carries over and only the extent-derived statistics move
//! (`patched` counts these). Any other batch — a delete that would move a
//! clique, a class set or a first-seen number, a new property, joined
//! cliques, a new class or summary edge, a schema row — or an artifact
//! without a map (one read from the persist dir) is rebuilt exactly
//! as a cache miss would build it, all of one batch from one shared
//! substrate (`rebuilt` counts these). A kind the new content already has
//! cached (shared with another resident name) is skipped before any work.
//!
//! What a **concurrent reader** observes: writers to one graph queue
//! among themselves, out of the readers' way, and an `UPDATE` holds the
//! graph exclusively for the store merge only (in-place index merges
//! and the kept substrate's absorb of the appended rows or retract of the
//! removed ones, about a millisecond for a small batch at 2 × 10⁵
//! triples). It
//! then re-establishes the cached kinds beside the readers, in the order
//! `QUERY` prefers them (`w` before `tw` before `s` …). So a reader sees
//! the new content at once; a `QUERY` waits only for the one kind it
//! prunes with — never answering un-pruned or from the old summary, so
//! `pruned=` stays deterministic — and `SUMMARIZE k` waits for `k`. The
//! `UPDATE` itself answers once every carried kind is in place.
//! `STATS` exposes the accounting — `updates` (batches applied),
//! `patches` and `patch_fallbacks` (kinds an `UPDATE` extended and
//! rebuilt), and why each rebuild was needed (`refused_stale`,
//! `refused_structural`, `refused_no_map`) — and the invariant `builds ==
//! patch_fallbacks + misses` holds at all times: every build is either a
//! plain cache miss or one kind an update rebuilt. Builds share one
//! substrate per resident graph: `substrate_absorbs` and
//! `substrate_retracts` count the inserts and deletes that changed it in
//! place, `substrate_scans` the times it was scanned from the graph's rows
//! (a graph's first build; the first build after a delete that would move
//! a first-seen number, a first property, a clique or a class set, or
//! after a resource is typed once its data is linked). The
//! repository benchmark's `explore_update` workload and the `server`
//! suite's concurrent-writers test exercise this path under load.
//!
//! The server is **event-driven**: one thread multiplexes every
//! connection over a readiness loop on persistent `poll(2)` slots (the
//! workspace `polling` shim; one syscall over every registered fd per
//! wait) with buffered partial-line reads and resumable partial writes,
//! so thousands of idle keep-alive clients cost one poll slot and a small
//! state struct each — no thread per connection, no busy-spin. Microsecond
//! verbs (`PING`, `STATS`, `QUERY`, `EVICT`, `QUIT`) are answered inline
//! on the event thread; the seconds-scale ones (`LOAD`, cold
//! `SUMMARIZE`, `UPDATE`) are handed to a bounded executor so a cold
//! build or graph mutation never stalls keep-alive traffic. That makes `--workers N` (default:
//! max(threads, 4)) the width of the *executor* — how many heavy
//! requests may run at once — **not** a cap on connections. `--threads
//! N` sizes the index sorts of every load; a summary builds on the thread
//! that runs its request, as `summarize` builds on the CLI's. `serve`
//! refuses arguments it does not know.
//!
//! `QUERY` is the paper's intended payoff turned into a serving verb: it
//! evaluates a BGP (paper notation, embedded whitespace welcome) against
//! the warm store with **summary-based pruning** — the query is first
//! relaxed to the fragment every quotient summary preserves
//! ([`rdf_query::empty_on_summary`]) and checked as one ASK on a cached
//! summary; *empty on the summary ⇒ empty on the graph*, so provably
//! empty answers never touch the graph join (`pruned=1` on the status
//! line). Non-empty answers run in the order of a static plan whose
//! cardinality estimates are derived from the same summary
//! ([`rdfsum_core::SummaryCardinality`]). The summary kind is chosen
//! among already-cached kinds for the graph's fingerprint, then among
//! kinds in flight for it (an `UPDATE` carrying them over), falling back
//! to weak, so pruning never costs a summary rebuild in the warm
//! regime.
//!
//! The `QUERY` body, every line LF-terminated: for a query with a head,
//! a header line of the TAB-joined column names, then one line per
//! distinct answer row; for an ASK (`q() :- …`), the single line `true`
//! or `false`. A row's cells are TAB-separated terms in N-Triples
//! syntax, rendered by the one N-Triples writer
//! ([`rdf_io::writer::push_row`]): a literal's TAB, BS, LF, CR, FF, `"`
//! and `\` arrive as `\t \b \n \r \f \" \\`, so the body always splits
//! into `rows=` + 1 lines of as many cells as columns, each cell parses
//! back with [`rdf_io`] to the stored term, and a literal cell pastes back
//! into a query as that literal. Rows come in **join order** — the
//! static plan's pattern order, each pattern's matches in index order —
//! which is deterministic for a given content and summary kind but is
//! not a sort. At most 10 000 rows are sent: `truncated=1` says an
//! answer row exists beyond the ones sent (an answer of exactly 10 000
//! rows is complete, `truncated=0`); which rows a truncated answer holds
//! follows from the join order. An answer is one pass: the search
//! ([`rdf_query::Evaluator::for_each_row`]) hands each accepted row's
//! ids to the service, which renders them straight into the body
//! ([`rdfsum_core::QueryOutcome::body`]); the server appends status line
//! and body to the connection's buffer with one growth.
//!
//! The CLI's `rdfsummary query` *is* this path: it loads the file into an
//! in-process [`rdfsum_core::SummaryService`] and calls the same
//! [`rdfsum_core::SummaryService::query`], so it prints the served body
//! byte for byte (pruned and planned on the same summary, rows in the same
//! join order), then a `(N answers, limit L)` or `no answers` trailer for
//! a query with a head; its `--limit` cuts that one join order. `--explain`
//! prints the kind consulted, whether it pruned the query, and the plan
//! the join ran in ([`rdfsum_core::QueryOutcome::plan`]). Only
//! `--reformulate` (complete answers under RDFS entailment by query
//! rewriting) evaluates elsewhere, with the evaluator's dynamic order.
//!
//! **Warm restarts.** `--persist-dir DIR` makes the summary cache survive
//! the process: every built (or update-carried) artifact is also written
//! to `DIR/<fingerprint>-<kind>.sum` — a versioned, checksummed binary
//! envelope ([`rdfsum_core::persist`]) embedding the summary graph as an
//! `rdf_store::snapshot` v2 image — via write-to-temp + atomic rename. A
//! cache miss probes the directory before building; a verified artifact
//! for the same content fingerprint installs as a **hit** (counted in
//! `persist_hits` as well as `hits`), so a killed-and-restarted server
//! answers its first `SUMMARIZE` byte-identical to the cold build with
//! `builds` still at 0, and the CI-pinned invariant `builds ==
//! patch_fallbacks + misses` keeps holding. Any decode problem —
//! truncation, bit flips, wrong version, wrong checksum, an artifact for
//! other content — degrades to a plain miss: the summary is rebuilt,
//! re-persisted over the damage, and the client never sees an error.
//! `EVICT` unlinks the graph's on-disk slots (unless another resident
//! graph shares the content), `EVICT *` sweeps every `*.sum` file, and
//! `UPDATE` re-keys the slots to the post-batch fingerprint. `STATS`
//! reports `persist_hits` and `persist_writes`; snapshot v1 files still
//! load behind the version gate (minted terms degrade to plain IRIs
//! there — v2 keeps their symbolic keys).
//!
//! `rdfsummary client ADDR REQUEST…` sends one request line and prints
//! the response (status to stderr, body to stdout) for scripting:
//!
//! ```text
//! rdfsummary serve --addr 127.0.0.1:7878 --threads 4 &
//! rdfsummary client 127.0.0.1:7878 LOAD /data/bsbm.nt
//! rdfsummary client 127.0.0.1:7878 SUMMARIZE w /data/bsbm.nt > weak.nt
//! rdfsummary client 127.0.0.1:7878 QUERY /data/bsbm.nt 'q(?x) :- ?x a <http://bsbm.example.org/vocabulary/Offer>, ?x <http://bsbm.example.org/vocabulary/price> ?y'
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rdf_io;
pub use rdf_model;
pub use rdf_query;
pub use rdf_schema;
pub use rdf_store;
pub use rdfsum_core;
pub use rdfsum_experiments;
pub use rdfsum_server;
pub use rdfsum_workloads;

/// The most common imports, bundled.
pub mod prelude {
    pub use rdf_io::{load_path, parse_graph, save_path, to_dot, write_graph, DotOptions};
    pub use rdf_model::{Graph, GraphStats, PrefixMap, Term, TermId, TermRef, Triple};
    pub use rdf_query::{compile, parse_query, Evaluator, QuerySpec};
    pub use rdf_schema::{saturate, Schema};
    pub use rdf_store::{TriplePattern, TripleStore};
    pub use rdfsum_core::{summarize, summarize_all, Summary, SummaryKind, SummaryStats};
    pub use rdfsum_workloads::{BsbmConfig, LubmConfig};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_is_usable() {
        let g = rdfsum_core::fixtures::sample_graph();
        let all = summarize_all(&g);
        assert_eq!(all.len(), SummaryKind::ALL.len());
        let _stats: SummaryStats = all[0].stats();
    }
}
