//! The TCP server: listener setup and request dispatch.
//!
//! [`spawn`] starts the event engine (see [`crate::event`]): a single
//! readiness loop (`epoll` on Linux, `poll(2)` elsewhere) multiplexes
//! every connection. Microsecond-scale verbs (`PING`, `STATS`, `QUERY`,
//! `EVICT`, `QUIT`) dispatch inline on the event thread; the
//! seconds-scale ones (`LOAD`, cold `SUMMARIZE`, `UPDATE` — whose summary
//! re-keying can rebuild) run on a bounded executor of `workers` threads
//! so a cold build never stalls keep-alive traffic. An `UPDATE` keeps
//! inline readers of its graph out for the store merge only: the cached
//! summaries are re-established under the graph's *shared* lock, and an
//! inline `QUERY` waits just for the one kind it prunes with, which is
//! carried first. `workers` therefore caps concurrent *heavy* request
//! execution — connections are not limited by it; thousands of idle
//! keep-alive clients cost one fd and a small state struct each.
//!
//! The [`rdfsum_core::SummaryService`] behind [`dispatch`] is fully
//! thread-safe, so concurrent connections share the warm stores and the
//! single-flight summary cache directly.
//!
//! [`ServerHandle::shutdown`] flips a flag and wakes the engine; in-flight
//! responses flush under a grace period, then remaining connections
//! force-close and every thread is joined.

use crate::protocol::Request;
use rdf_model::{Repeated, UnprovedRows};
use rdf_store::{snapshot, SnapshotError, TripleStore};
use rdfsum_core::{ServiceError, SummaryService};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Server-side cap on rows a single `QUERY` response enumerates; hits
/// are reported as `truncated=1` on the status line.
pub const QUERY_ROW_LIMIT: usize = 10_000;

/// Appends an `OK` status line with no body.
fn write_ok(out: &mut Vec<u8>, fields: &str) {
    out.extend_from_slice(b"OK ");
    out.extend_from_slice(fields.as_bytes());
    out.push(b'\n');
}

/// Appends an `OK` status line whose final field is `bytes=<n>`, followed
/// by the `n`-byte body: the buffer grows once, to the response's size,
/// however large the body.
fn write_ok_body(out: &mut Vec<u8>, fields: &str, body: &[u8]) {
    let status = format!("OK {fields} bytes={}\n", body.len());
    out.reserve(status.len() + body.len());
    out.extend_from_slice(status.as_bytes());
    out.extend_from_slice(body);
}

/// Appends an `ERR` status line.
pub(crate) fn write_err(out: &mut Vec<u8>, category: &str, msg: &dyn std::fmt::Display) {
    out.extend_from_slice(format!("ERR {category}: {msg}\n").as_bytes());
}

/// Reads a graph file's rows — `.snap` through the binary snapshot reader,
/// anything else through the N-Triples parser — and has `prove` settle
/// whether they are a set. This is *the* load dispatch: the CLI and the
/// server differ only in the proof they bring (one sort for a bare graph,
/// a store's index build), so they can never disagree about how a path
/// turns into a graph (the byte-identity contract depends on that
/// agreement). A snapshot that lists a triple twice is damaged; an
/// N-Triples file that repeats a line means its first occurrence.
fn load_file<T>(
    path: &str,
    prove: impl FnOnce(UnprovedRows) -> Result<T, Repeated<T>>,
) -> Result<T, String> {
    if path.ends_with(".snap") {
        let snapshot = || -> Result<T, SnapshotError> {
            Ok(prove(snapshot::decode_rows(&std::fs::read(path)?)?)?)
        };
        snapshot().map_err(|e| format!("loading snapshot {path}: {e}"))
    } else {
        let rows = rdf_io::load_rows(path).map_err(|e| format!("loading {path}: {e}"))?;
        Ok(prove(rows).unwrap_or_else(|repeated| *repeated.compacted))
    }
}

/// Loads a graph file as a bare graph (the CLI's entry point).
pub fn load_graph_file(path: &str) -> Result<rdf_model::Graph, String> {
    load_file(path, UnprovedRows::into_graph)
}

/// Serves one request, appending the response to `w`; `false` means the
/// connection should close once it is sent.
pub(crate) fn dispatch(service: &SummaryService, req: Request, w: &mut Vec<u8>) -> bool {
    match req {
        Request::Ping => write_ok(w, "pong"),
        Request::Quit => {
            write_ok(w, "bye");
            return false;
        }
        // The index build (on the service's workers) is also the proof
        // that the file's rows are a set.
        Request::Load { path } => match load_file(&path, |rows| {
            TripleStore::from_rows(rows, service.threads())
        }) {
            Ok(store) => {
                let info = service.load_store(&path, store);
                write_ok(
                    w,
                    &format!(
                        "loaded fp={} triples={} reloaded={} graph={path}",
                        info.fingerprint,
                        info.triples,
                        u8::from(info.replaced)
                    ),
                );
            }
            Err(msg) => write_err(w, "load", &msg),
        },
        Request::Summarize { kind, graph } => match service.summarize(&graph, kind) {
            Ok((artifact, hit)) => {
                let fields = format!(
                    "summary kind={} fp={} cached={} nodes={} edges={} input={}",
                    kind.notation(),
                    artifact.fingerprint,
                    u8::from(hit),
                    artifact.summary_nodes,
                    artifact.summary_edges,
                    artifact.input_triples
                );
                write_ok_body(w, &fields, artifact.ntriples.as_bytes());
            }
            Err(err) => write_err(w, "summarize", &err),
        },
        Request::Query { graph, query } => {
            match service.query(&graph, &query, None, QUERY_ROW_LIMIT) {
                Ok(out) => {
                    let fields = format!(
                        "query rows={} pruned={} cached={} kind={} truncated={}",
                        out.row_count,
                        u8::from(out.pruned),
                        u8::from(out.cache_hit),
                        out.kind.token(),
                        u8::from(out.truncated)
                    );
                    write_ok_body(w, &fields, out.body.as_bytes());
                }
                Err(err) => write_err(w, "query", &err),
            }
        }
        Request::Update {
            graph,
            insert,
            payload,
        } => match rdf_io::parse_statements(&payload) {
            Ok(triples) => match service.update(&graph, insert, &triples) {
                // `patched` counts the carried kinds whose quotient maps
                // extended by the batch, `rebuilt` the ones rebuilt instead.
                Ok(out) => write_ok(
                    w,
                    &format!(
                        "update fp={} applied={} patched={} rebuilt={}",
                        out.fingerprint, out.applied, out.patched, out.rebuilt
                    ),
                ),
                Err(err) => write_err(w, "update", &err),
            },
            Err(err) => write_err(w, "update", &err),
        },
        Request::Stats => {
            let st = service.stats();
            let mut body = String::new();
            for (name, fp, triples) in service.loaded_graphs() {
                body.push_str(&format!("{fp} {triples} {name}\n"));
            }
            let fields = format!(
                "stats graphs={} cached={} hits={} misses={} builds={} queries={} pruned={} prune_hits={} evictions={} cache_bytes={} updates={} patches={} patch_fallbacks={} persist_hits={} persist_writes={} substrate_scans={} substrate_absorbs={} refused_stale={} refused_structural={} refused_no_map={} substrate_retracts={}",
                st.graphs,
                st.cached_summaries,
                st.hits,
                st.misses,
                st.builds,
                st.queries,
                st.pruned,
                st.prune_hits,
                st.evictions,
                st.cache_bytes,
                st.updates,
                st.patches,
                st.patch_fallbacks,
                st.persist_hits,
                st.persist_writes,
                st.substrate_scans,
                st.substrate_absorbs,
                st.refused_stale,
                st.refused_structural,
                st.refused_no_map,
                st.substrate_retracts
            );
            write_ok_body(w, &fields, body.as_bytes());
        }
        Request::Evict { graph: Some(name) } => match service.evict(&name) {
            Some(entries) => write_ok(w, &format!("evicted graphs=1 entries={entries}")),
            None => write_err(w, "evict", &ServiceError::UnknownGraph(name)),
        },
        Request::Evict { graph: None } => {
            let (graphs, entries) = service.evict_all();
            write_ok(w, &format!("evicted graphs={graphs} entries={entries}"));
        }
    }
    true
}

/// A running server: its bound address plus the shutdown machinery.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    engine: crate::event::EventEngine,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0` port asks).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, lets in-flight responses finish, force-closes the
    /// remaining connections, and joins every thread. Idle keep-alive
    /// connections are dropped immediately.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The loop observes `stop` on its next wakeup; the wake byte makes
        // that wakeup immediate even with every client idle.
        self.engine.waker.wake();
        if let Some(thread) = self.engine.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Binds `addr` and starts the event-driven engine: one readiness loop
/// multiplexing every connection, and `workers` executor threads running
/// request dispatch. `workers` bounds concurrent request *execution*, not
/// the number of connections — idle keep-alive clients are effectively
/// unlimited.
pub fn spawn(
    addr: impl ToSocketAddrs,
    service: Arc<SummaryService>,
    workers: usize,
) -> io::Result<ServerHandle> {
    spawn_with_backend(addr, service, workers, None)
}

/// [`spawn`] with an explicit readiness backend. `None` is the platform
/// default (`epoll` on Linux, `poll(2)` elsewhere); the dual-backend
/// stress suites pass `Some(..)` to cover both on one host.
pub fn spawn_with_backend(
    addr: impl ToSocketAddrs,
    service: Arc<SummaryService>,
    workers: usize,
    backend: Option<polling::Backend>,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let engine = crate::event::start(listener, service, workers, Arc::clone(&stop), backend)?;
    Ok(ServerHandle {
        addr: local,
        stop,
        engine,
    })
}
