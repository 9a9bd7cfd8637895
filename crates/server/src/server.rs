//! The TCP server: listener setup, request dispatch, and the two serving
//! engines.
//!
//! [`spawn`] starts the **event engine** (see [`crate::event`]): a single
//! readiness loop over `poll(2)` multiplexes every connection.
//! Microsecond-scale verbs (`PING`, `STATS`, `QUERY`, `EVICT`, `QUIT`)
//! dispatch inline on the event thread; the seconds-scale ones (`LOAD`,
//! cold `SUMMARIZE`, `UPDATE` — whose summary re-keying can rebuild) run
//! on a bounded executor of `workers` threads so a cold build never
//! stalls keep-alive traffic. An `UPDATE` keeps inline readers of its
//! graph out for the store merge only: the cached summaries are
//! re-established under the graph's *shared* lock, and an inline `QUERY`
//! waits just for the one kind it prunes with, which is carried first.
//! `workers` therefore caps
//! concurrent *heavy* request execution — connections are not limited by
//! it; thousands of idle keep-alive clients cost one fd and a small
//! state struct each.
//!
//! [`spawn_threaded`] keeps the original thread-per-connection engine:
//! one acceptor thread hands connections to a fixed pool of `workers`
//! threads over an mpsc channel; each worker owns one connection at a
//! time and serves its requests sequentially until `QUIT`, EOF, or a
//! fatal framing error. There, `workers` *is* the cap on concurrently
//! served connections.
//!
//! Both engines run the same [`dispatch`] over the same framing rules, so
//! responses are byte-identical. The [`rdfsum_core::SummaryService`]
//! behind the dispatch is fully thread-safe, so concurrent connections
//! share the warm stores and the single-flight summary cache directly.
//!
//! [`ServerHandle::shutdown`] flips a flag and wakes the engine; in-flight
//! responses finish (the threaded engine lets the current response
//! complete, the event engine flushes under a grace period), then
//! remaining connections force-close and every thread is joined.

use crate::protocol::{is_fatal, parse_request, ProtocolError, Request};
use rdfsum_core::{ServiceError, SummaryService};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Live-connection registry: worker-owned duplicate handles, so shutdown
/// can unblock reads by closing the sockets out from under them.
type ConnectionTable = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// What the acceptor queues for the worker pool: the connection plus its
/// registry key.
type QueuedConnection = (u64, TcpStream);

/// Server-side cap on rows a single `QUERY` response enumerates; hits
/// are reported as `truncated=1` on the status line.
pub const QUERY_ROW_LIMIT: usize = 10_000;

/// One framed request line off the wire.
enum Frame {
    /// Clean EOF before any byte of a new request.
    Eof,
    /// A complete line (newline stripped).
    Line(Vec<u8>),
    /// A framing violation; the connection must close after the `ERR`.
    /// `line_open` is true when the broken line's terminator has NOT been
    /// consumed yet (over-cap with no newline seen), so the handler must
    /// drain to the newline before closing — and must NOT wait for one
    /// when the terminator was already swallowed (or EOF was reached), or
    /// it would block on input that never comes.
    Broken { err: ProtocolError, line_open: bool },
}

/// Reads one LF-terminated request, enforcing the length cap **while
/// reading** (a rogue client cannot buffer an unbounded line), and
/// classifying EOF-mid-line as [`ProtocolError::Truncated`].
fn read_frame(reader: &mut impl BufRead, max: usize) -> io::Result<Frame> {
    let mut line = Vec::new();
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(if line.is_empty() {
                Frame::Eof
            } else {
                Frame::Broken {
                    err: ProtocolError::Truncated,
                    line_open: false, // EOF: nothing left to drain
                }
            });
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let total = line.len() + pos;
                let fits = total <= max;
                if fits {
                    line.extend_from_slice(&available[..pos]);
                }
                reader.consume(pos + 1);
                return Ok(if fits {
                    Frame::Line(line)
                } else {
                    Frame::Broken {
                        err: ProtocolError::TooLong(total),
                        line_open: false, // newline consumed just above
                    }
                });
            }
            None => {
                let n = available.len();
                if line.len() + n > max {
                    // Already over the cap with no newline in sight: stop
                    // buffering and report how much we saw.
                    let over = line.len() + n;
                    reader.consume(n);
                    return Ok(Frame::Broken {
                        err: ProtocolError::TooLong(over),
                        line_open: true,
                    });
                }
                line.extend_from_slice(available);
                reader.consume(n);
            }
        }
    }
}

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

/// Loads a graph file: `.snap` through the binary snapshot reader,
/// anything else through the N-Triples parser. This is *the* load
/// dispatch — the CLI imports it too, so the server and the single-shot
/// binary can never disagree about how a path turns into a graph (the
/// byte-identity contract depends on that agreement).
pub fn load_graph_file(path: &str) -> Result<rdf_model::Graph, String> {
    if path.ends_with(".snap") {
        rdf_store::snapshot::load(path).map_err(|e| format!("loading snapshot {path}: {e}"))
    } else {
        rdf_io::load_path(path).map_err(|e| format!("loading {path}: {e}"))
    }
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
        Request::Load { path } => match load_graph_file(&path) {
            Ok(g) => {
                let info = service.load_graph(&path, g);
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
                        crate::protocol::kind_token(out.kind),
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
                "stats graphs={} cached={} hits={} misses={} builds={} queries={} pruned={} prune_hits={} evictions={} cache_bytes={} updates={} patches={} patch_fallbacks={} persist_hits={} persist_writes={}",
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
                st.persist_writes
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

/// After a fatal framing error, read and discard the rest of the broken
/// line (up to a hard budget) so the client's unread bytes don't make the
/// close a TCP reset that destroys the `ERR` response in flight.
fn drain_broken_line(reader: &mut impl BufRead, budget: usize) {
    let mut spent = 0;
    while spent < budget {
        let Ok(available) = reader.fill_buf() else {
            return;
        };
        if available.is_empty() {
            return; // EOF
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                reader.consume(pos + 1);
                return; // line boundary reached
            }
            None => {
                let n = available.len();
                spent += n;
                reader.consume(n);
            }
        }
    }
}

/// Serves one client connection until QUIT, EOF, or a fatal framing
/// error. Recoverable protocol errors answer `ERR` and keep going.
fn handle_connection(service: &SummaryService, mut stream: TcpStream) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    loop {
        let mut out = Vec::new();
        match read_frame(&mut reader, crate::protocol::MAX_REQUEST_BYTES)? {
            Frame::Eof => return Ok(()),
            Frame::Broken { err, line_open } => {
                write_err(&mut out, "protocol", &err);
                stream.write_all(&out)?;
                if line_open {
                    // Swallow what remains of the oversized line (bounded)
                    // so the close doesn't RST the ERR out of the send
                    // queue while the client is still writing it.
                    drain_broken_line(&mut reader, 16 * 1024 * 1024);
                }
                return Ok(());
            }
            Frame::Line(raw) => {
                let keep = match parse_request(&raw) {
                    Ok(req) => dispatch(service, req, &mut out),
                    Err(err) => {
                        write_err(&mut out, "protocol", &err);
                        !is_fatal(&err)
                    }
                };
                stream.write_all(&out)?;
                if !keep {
                    return Ok(());
                }
            }
        }
    }
}

/// Which serving machinery a [`ServerHandle`] owns.
enum Engine {
    /// Thread-per-connection: acceptor + worker pool + live-socket table.
    Threaded {
        connections: ConnectionTable,
        acceptor: Option<JoinHandle<()>>,
        workers: Vec<JoinHandle<()>>,
    },
    /// Event-driven: the poll loop thread plus its waker.
    Event(crate::event::EventEngine),
}

/// A running server: its bound address plus the shutdown machinery.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    engine: Engine,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0` port asks).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, lets in-flight responses finish, force-closes the
    /// remaining connections, and joins every thread. Idle keep-alive
    /// connections are dropped immediately.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        match self.engine {
            Engine::Threaded {
                connections,
                mut acceptor,
                mut workers,
            } => {
                // Wake the blocking accept with a throwaway connection. A
                // bind to an unspecified address (0.0.0.0 / ::) is not
                // connectable on every platform, so poke loopback on the
                // bound port instead, and bound the attempt so a filtered
                // connect cannot stall shutdown.
                let mut poke = self.addr;
                if poke.ip().is_unspecified() {
                    poke.set_ip(match poke.ip() {
                        std::net::IpAddr::V4(_) => {
                            std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST)
                        }
                        std::net::IpAddr::V6(_) => {
                            std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST)
                        }
                    });
                }
                let _ = TcpStream::connect_timeout(&poke, std::time::Duration::from_secs(2));
                if let Some(acceptor) = acceptor.take() {
                    let _ = acceptor.join();
                }
                // Unblock workers parked in a read on a still-open client
                // socket.
                for (_, conn) in connections.lock().unwrap().drain() {
                    let _ = conn.shutdown(std::net::Shutdown::Both);
                }
                for worker in workers.drain(..) {
                    let _ = worker.join();
                }
            }
            Engine::Event(mut engine) => {
                // The loop observes `stop` on its next wakeup; the wake
                // byte makes that wakeup immediate even with every client
                // idle.
                engine.waker.wake();
                if let Some(thread) = engine.thread.take() {
                    let _ = thread.join();
                }
            }
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
/// default (`epoll` on Linux, `poll(2)` elsewhere, overridable via
/// `RDFSUM_POLLER`); the dual-backend stress suites pass `Some(..)`
/// because environment variables are racy across parallel tests.
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
        engine: Engine::Event(engine),
    })
}

/// Binds `addr` and spawns the original thread-per-connection engine: an
/// acceptor plus `workers` connection-serving threads over the shared
/// service. Here `workers` is the maximum number of concurrently served
/// connections; further ones queue. Kept as the baseline the event engine
/// is benchmarked against (`--engine threaded`).
pub fn spawn_threaded(
    addr: impl ToSocketAddrs,
    service: Arc<SummaryService>,
    workers: usize,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let connections: ConnectionTable = Arc::new(Mutex::new(HashMap::new()));
    let (tx, rx): (Sender<QueuedConnection>, Receiver<QueuedConnection>) = channel();
    let rx = Arc::new(Mutex::new(rx));

    let worker_handles: Vec<JoinHandle<()>> = (0..workers.max(1))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let service = Arc::clone(&service);
            let connections = Arc::clone(&connections);
            std::thread::spawn(move || loop {
                // Holding the lock only for the recv keeps the pool fair.
                let next = { rx.lock().unwrap().recv() };
                match next {
                    Ok((id, stream)) => {
                        // Per-connection I/O errors (client vanished
                        // mid-response) are that connection's problem.
                        let _ = handle_connection(&service, stream);
                        connections.lock().unwrap().remove(&id);
                    }
                    Err(_) => return, // acceptor gone, queue drained
                }
            })
        })
        .collect();

    let stop_flag = Arc::clone(&stop);
    let conn_table = Arc::clone(&connections);
    let acceptor = std::thread::spawn(move || {
        let mut next_id = 0u64;
        for stream in listener.incoming() {
            if stop_flag.load(Ordering::SeqCst) {
                break; // the shutdown poke or a racing real connection
            }
            match stream {
                Ok(s) => {
                    // One request/response in flight per connection:
                    // Nagle + delayed ACK would add ~40ms per exchange.
                    let _ = s.set_nodelay(true);
                    // Register a duplicate handle before queueing, so
                    // shutdown can close even connections still waiting
                    // for a free worker.
                    if let Ok(dup) = s.try_clone() {
                        conn_table.lock().unwrap().insert(next_id, dup);
                    }
                    if tx.send((next_id, s)).is_err() {
                        break;
                    }
                    next_id += 1;
                }
                Err(_) => continue, // transient accept failure
            }
        }
        // Dropping `tx` lets idle workers observe the closed channel.
    });

    Ok(ServerHandle {
        addr: local,
        stop,
        engine: Engine::Threaded {
            connections,
            acceptor: Some(acceptor),
            workers: worker_handles,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `read_frame` classifications on canned byte streams.
    #[test]
    fn frame_reader_classifies_streams() {
        let mut r = BufReader::new(&b"PING\nQUIT\n"[..]);
        assert!(matches!(
            read_frame(&mut r, 64).unwrap(),
            Frame::Line(l) if l == b"PING"
        ));
        assert!(matches!(
            read_frame(&mut r, 64).unwrap(),
            Frame::Line(l) if l == b"QUIT"
        ));
        assert!(matches!(read_frame(&mut r, 64).unwrap(), Frame::Eof));

        // EOF mid-line: truncated, nothing left to drain.
        let mut r = BufReader::new(&b"PIN"[..]);
        assert!(matches!(
            read_frame(&mut r, 64).unwrap(),
            Frame::Broken {
                err: ProtocolError::Truncated,
                line_open: false,
            }
        ));

        // Over the cap, newline present: the terminator is consumed, so
        // the handler must not drain afterwards.
        let mut r = BufReader::new(&b"AAAAAAAAAA\nPING\n"[..]);
        assert!(matches!(
            read_frame(&mut r, 4).unwrap(),
            Frame::Broken {
                err: ProtocolError::TooLong(_),
                line_open: false,
            }
        ));
        // …and the stream is positioned at the next line.
        assert!(matches!(
            read_frame(&mut r, 64).unwrap(),
            Frame::Line(l) if l == b"PING"
        ));

        // Over the cap with no newline yet: the line is still open and
        // the handler drains it (to the newline, bounded) before closing.
        let big = vec![b'B'; 1024];
        let mut r = BufReader::new(&big[..]);
        assert!(matches!(
            read_frame(&mut r, 100).unwrap(),
            Frame::Broken {
                err: ProtocolError::TooLong(_),
                line_open: true,
            }
        ));

        // The drain stops at a newline, at EOF, or at its budget.
        let mut r = BufReader::new(&b"XXXX\nPING\n"[..]);
        drain_broken_line(&mut r, 1 << 20);
        assert!(matches!(
            read_frame(&mut r, 64).unwrap(),
            Frame::Line(l) if l == b"PING"
        ));
        let mut r = BufReader::new(&b"no newline at all"[..]);
        drain_broken_line(&mut r, 1 << 20); // EOF, returns promptly
        assert!(matches!(read_frame(&mut r, 64).unwrap(), Frame::Eof));

        // Empty line is a line (the parser rejects it, recoverably).
        let mut r = BufReader::new(&b"\nPING\n"[..]);
        assert!(matches!(
            read_frame(&mut r, 64).unwrap(),
            Frame::Line(l) if l.is_empty()
        ));
        assert!(matches!(
            read_frame(&mut r, 64).unwrap(),
            Frame::Line(l) if l == b"PING"
        ));
    }

    /// An at-cap line (newline excluded from the count) still parses.
    #[test]
    fn frame_reader_cap_is_exclusive_of_newline() {
        let mut input = vec![b'C'; 8];
        input.push(b'\n');
        let mut r = BufReader::new(&input[..]);
        assert!(matches!(
            read_frame(&mut r, 8).unwrap(),
            Frame::Line(l) if l.len() == 8
        ));
    }
}
