//! The event-driven serving core: one readiness loop, per-connection
//! state machines, and a bounded executor for request work.
//!
//! ## Shape
//!
//! A single **event thread** owns every socket. It blocks in
//! [`polling::Poller::wait`] — persistent registrations over `epoll` on
//! Linux (O(ready) wakeups) or persistent `poll(2)` slots elsewhere;
//! identical observable semantics either way — covering the nonblocking
//! listener, a loopback wake socket, and every connection that currently
//! wants I/O; each readiness event advances that connection's state
//! machine:
//!
//! * **reads** append to a per-connection buffer; a complete
//!   LF-terminated line is parsed into a [`Request`] and dispatched by
//!   cost class:
//!   - `PING`/`QUIT`/`STATS`/`EVICT`/`QUERY` run **inline** on the event
//!     thread ([`crate::server::dispatch`] into the connection's output
//!     buffer). These are the μs-scale hot path — warm-store queries are
//!     summary-pruned and plan-ordered — and inlining them means a batch
//!     of ready connections is served with zero handoffs, which on a
//!     loaded box is worth several context switches per request;
//!   - `LOAD`, `SUMMARIZE` and `UPDATE` — the verbs that can take
//!     seconds (cold builds; an update, whose carry rebuilds each warm
//!     summary its quotient map cannot carry) — are handed to the
//!     **executor**, a fixed pool of
//!     [`rdfsum_core::Executor`] workers, so a cold build can never
//!     stall keep-alive traffic on other connections. An inline `QUERY`
//!     on a graph an `UPDATE` is working on does block this thread, but
//!     only for the store merge (exclusive) and then until the one
//!     summary kind it prunes with is back — the update re-establishes
//!     that kind first and the rest beside the readers, under the
//!     graph's shared lock;
//! * **completions** of offloaded requests come back over a
//!   mutex-guarded vector plus a [`WakeSignal`] (a loopback socket pair;
//!   one coalesced byte per batch), are appended to the connection's
//!   output buffer, and
//! * **writes** flush that buffer as far as the socket allows, resuming
//!   exactly where a partial write stopped.
//!
//! One request is in flight per connection at a time (responses stay in
//! request order): an offloaded request marks the connection busy, and a
//! busy connection's socket is simply not polled for reads — natural
//! backpressure that also bounds every buffer: the read buffer by the
//! frame cap plus one chunk, the queue by one job per connection. An idle
//! keep-alive connection costs one registered fd and an empty state
//! struct — no thread, no busy-spin — so thousands of them hold in
//! O(connections) memory.
//!
//! A fatal framing error answers `ERR`, then drains the rest of an
//! oversized line (bounded) so the `ERR` survives the close. Shutdown
//! keeps the [`crate::server::ServerHandle::shutdown`] contract: stop
//! accepting, drop idle connections, let in-flight responses finish under
//! a grace period, then force-close.

use crate::protocol::{is_fatal, parse_request, ProtocolError, MAX_REQUEST_BYTES};
use polling::{Backend, Event, Poller, POLLIN, POLLOUT};
use rdfsum_core::{Executor, SummaryService};
use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Socket read granularity.
const READ_CHUNK: usize = 16 * 1024;
/// Byte budget for draining an oversized line before closing.
const DRAIN_BUDGET: usize = 16 * 1024 * 1024;
/// How long in-flight responses get to flush after shutdown is requested
/// before their connections are force-closed.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);
/// Retained capacity ceilings for per-connection buffers once drained —
/// keeps a burst from permanently inflating an idle connection.
const RBUF_KEEP: usize = READ_CHUNK;
const OUT_KEEP: usize = 64 * 1024;
/// Unflushed-output ceiling above which a connection stops extracting
/// further pipelined requests: inline dispatch completes requests
/// immediately, so without this a client pipelining a frame-cap's worth
/// of tiny `QUERY` lines could balloon the output buffer by the product
/// of request count and response size before a single flush. Extraction
/// resumes from the writable path as the backlog drains.
const OUT_BACKPRESSURE: usize = 256 * 1024;

/// Wakes the event thread from other threads: one byte down a loopback
/// socket, coalesced so a storm of completions costs one write.
pub(crate) struct WakeSignal {
    tx: TcpStream,
    pending: AtomicBool,
}

impl WakeSignal {
    pub(crate) fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            let _ = (&self.tx).write_all(&[1]);
        }
    }
}

/// A finished request: the response bytes for one connection, and
/// whether the connection must close after flushing them (`QUIT`).
struct Completion {
    token: u64,
    bytes: Vec<u8>,
    close: bool,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Unprocessed input; always starts at the current line's first byte.
    rbuf: Vec<u8>,
    /// Length of the `rbuf` prefix known to contain no newline, so a
    /// slow-loris drip does not rescan the whole buffer per byte.
    scanned: usize,
    /// Pending output; `out[out_pos..]` is not yet written.
    out: Vec<u8>,
    out_pos: usize,
    /// A request from this connection is in the executor; reads pause
    /// and the next line is not parsed until its completion arrives.
    busy: bool,
    /// Remaining budget while discarding an oversized line (the `ERR` is
    /// already queued; close when the newline or the budget is reached).
    draining: Option<usize>,
    /// Close as soon as `out` is flushed.
    close_after_flush: bool,
    /// The peer half-closed; buffered complete lines are still served.
    saw_eof: bool,
    /// The interest set last synced into the [`Poller`] — registrations
    /// persist across iterations, so only changes issue a syscall.
    registered: i16,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            scanned: 0,
            out: Vec::new(),
            out_pos: 0,
            busy: false,
            draining: None,
            close_after_flush: false,
            saw_eof: false,
            registered: 0,
        }
    }

    fn flushed(&self) -> bool {
        self.out_pos >= self.out.len()
    }

    /// Is this connection finished (everything written, nothing pending)?
    fn done(&self) -> bool {
        if !self.flushed() {
            return false;
        }
        if self.close_after_flush {
            return true;
        }
        self.saw_eof && !self.busy && self.rbuf.is_empty() && self.draining.is_none()
    }

    /// Which poll events this connection currently wants.
    fn interest(&self, shutting_down: bool) -> i16 {
        let mut ev = 0;
        if !self.flushed() {
            ev |= POLLOUT;
        }
        let wants_read = if shutting_down {
            false // no new requests once shutdown begins
        } else {
            self.draining.is_some() || (!self.busy && !self.close_after_flush && !self.saw_eof)
        };
        if wants_read {
            ev |= POLLIN;
        }
        ev
    }
}

/// Everything a submitted job needs to come back.
struct LoopCtx {
    service: Arc<SummaryService>,
    executor: Executor,
    completions: Arc<Mutex<Vec<Completion>>>,
    waker: Arc<WakeSignal>,
}

/// The running event engine, as held by `ServerHandle`.
pub(crate) struct EventEngine {
    pub(crate) waker: Arc<WakeSignal>,
    pub(crate) thread: Option<JoinHandle<()>>,
}

/// Starts the event loop thread over an already-bound listener.
/// `workers` is the executor width — how many requests may execute
/// concurrently, *not* a connection limit. `backend` picks the readiness
/// backend explicitly (`None` = platform default); the dual-backend
/// stress suites force it.
pub(crate) fn start(
    listener: TcpListener,
    service: Arc<SummaryService>,
    workers: usize,
    stop: Arc<AtomicBool>,
    backend: Option<Backend>,
) -> io::Result<EventEngine> {
    // Fail in the caller, not the detached thread, when the backend is
    // unavailable (e.g. requesting epoll off-Linux).
    let poller = match backend {
        Some(b) => Poller::with_backend(b)?,
        None => Poller::new()?,
    };
    listener.set_nonblocking(true)?;
    // Loopback wake pair: std-only, no pipe(2) FFI needed.
    let rendezvous = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
    let tx = TcpStream::connect(rendezvous.local_addr()?)?;
    let (rx, _) = rendezvous.accept()?;
    drop(rendezvous);
    let _ = tx.set_nodelay(true);
    rx.set_nonblocking(true)?;
    let waker = Arc::new(WakeSignal {
        tx,
        pending: AtomicBool::new(false),
    });
    let ctx = LoopCtx {
        service,
        executor: Executor::new(workers.max(1)),
        completions: Arc::new(Mutex::new(Vec::new())),
        waker: Arc::clone(&waker),
    };
    let thread = std::thread::Builder::new()
        .name("rdfsum-event-loop".into())
        .spawn(move || run(listener, rx, ctx, stop, poller))?;
    Ok(EventEngine {
        waker,
        thread: Some(thread),
    })
}

/// The poller token of the listener (connection tokens count up from 0
/// and can never reach these).
const LISTENER_TOKEN: u64 = u64::MAX;
/// The poller token of the loopback wake socket.
const WAKER_TOKEN: u64 = u64::MAX - 1;

/// The readiness loop. Returns when shutdown completes.
fn run(
    listener: TcpListener,
    wake_rx: TcpStream,
    ctx: LoopCtx,
    stop: Arc<AtomicBool>,
    mut poller: Poller,
) {
    let mut listener = Some(listener);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = 0u64;
    let mut deadline: Option<Instant> = None;
    let mut events: Vec<Event> = Vec::new();

    // Permanent registrations. A poller that cannot even register the
    // listener cannot serve; bail (the process-level spawn already
    // verified the backend constructs).
    if let Some(l) = &listener {
        if poller
            .interest(l.as_raw_fd(), LISTENER_TOKEN, true, false)
            .is_err()
        {
            return;
        }
    }
    if poller
        .interest(wake_rx.as_raw_fd(), WAKER_TOKEN, true, false)
        .is_err()
    {
        return;
    }

    loop {
        if stop.load(Ordering::SeqCst) && deadline.is_none() {
            deadline = Some(Instant::now() + SHUTDOWN_GRACE);
            if let Some(l) = listener.take() {
                let _ = poller.remove(l.as_raw_fd()); // stop accepting
            }
            // Idle and error-path connections drop now; busy or
            // partially-flushed ones get the grace period.
            conns.retain(|_, c| {
                let keep = (c.busy || !c.flushed()) && c.draining.is_none();
                if !keep {
                    let _ = poller.remove(c.stream.as_raw_fd());
                }
                keep
            });
            // Survivors stop reading under shutdown; re-sync their
            // narrowed interest.
            let doomed: Vec<u64> = conns
                .iter_mut()
                .filter_map(|(&token, c)| {
                    (!sync_interest(&mut poller, token, c, true)).then_some(token)
                })
                .collect();
            for token in doomed {
                drop_conn(&mut poller, &mut conns, token);
            }
        }
        if let Some(d) = deadline {
            if conns.is_empty() || Instant::now() >= d {
                break; // dropping `conns` force-closes the stragglers
            }
        }
        let shutting_down = deadline.is_some();

        // Busy connections are parked in the poller; their completions
        // arrive via the waker, so blocking indefinitely is safe. Under a
        // grace deadline, tick so the timeout is observed.
        let timeout_ms = if deadline.is_some() { 50 } else { -1 };
        if poller.wait(&mut events, timeout_ms).is_err() {
            continue; // EINTR is retried inside; anything else: re-derive
        }

        // Drain the wake socket, then take this batch of completions.
        // `pending` clears *before* the take: a completion pushed after
        // the take re-arms the waker and the next iteration sees it.
        drain_wake_socket(&wake_rx, &ctx.waker);
        let finished: Vec<Completion> = std::mem::take(&mut *ctx.completions.lock().unwrap());
        for comp in finished {
            let Some(c) = conns.get_mut(&comp.token) else {
                continue; // connection died while its request ran
            };
            c.busy = false;
            if c.out.is_empty() {
                c.out = comp.bytes;
                c.out_pos = 0;
            } else {
                c.out.extend_from_slice(&comp.bytes);
            }
            if comp.close || shutting_down {
                // Normal close (QUIT), or shutdown: the in-flight
                // response finishes, nothing further is served.
                c.close_after_flush = true;
            }
            let mut alive = flush_out(c);
            if alive && !c.close_after_flush && c.draining.is_none() {
                // Pipelined requests already buffered don't need another
                // readiness event.
                alive = pump(c, comp.token, &ctx);
            }
            if !alive || c.done() || !sync_interest(&mut poller, comp.token, c, shutting_down) {
                drop_conn(&mut poller, &mut conns, comp.token);
            }
        }

        for &ev in &events {
            match ev.token {
                LISTENER_TOKEN => {
                    if ev.readable {
                        if let Some(l) = &listener {
                            accept_ready(l, &mut conns, &mut next_token, &mut poller);
                        }
                    }
                }
                WAKER_TOKEN => {} // handled above, every iteration
                token => {
                    let Some(c) = conns.get_mut(&token) else {
                        continue; // dropped earlier in this batch
                    };
                    let mut alive = true;
                    if ev.writable && !c.flushed() {
                        alive = flush_out(c);
                        if alive && !c.busy && c.draining.is_none() && !c.close_after_flush {
                            // Pipelined lines held back by the output
                            // backpressure cap resume as the backlog
                            // drains.
                            alive = pump(c, token, &ctx);
                        }
                    }
                    if alive && ev.readable && c.registered & POLLIN != 0 {
                        alive = if c.draining.is_some() {
                            drain_readable(c)
                        } else {
                            on_readable(c, token, &ctx)
                        };
                        if alive {
                            alive = flush_out(c);
                        }
                    }
                    if !alive || c.done() || !sync_interest(&mut poller, token, c, shutting_down) {
                        drop_conn(&mut poller, &mut conns, token);
                    }
                }
            }
        }
    }
    // Remaining connections force-close by drop; the executor's Drop
    // drains queued jobs and joins its workers (their completions land in
    // a vector nobody reads again).
    drop(conns);
    drop(ctx);
}

/// Syncs a connection's current interest into the poller, issuing a
/// syscall only when it changed since the last sync. Returns false when
/// the poller rejected the registration (the connection must drop).
fn sync_interest(poller: &mut Poller, token: u64, c: &mut Conn, shutting_down: bool) -> bool {
    let want = c.interest(shutting_down);
    if want == c.registered {
        return true;
    }
    let ok = poller
        .interest(
            c.stream.as_raw_fd(),
            token,
            want & POLLIN != 0,
            want & POLLOUT != 0,
        )
        .is_ok();
    if ok {
        c.registered = want;
    }
    ok
}

/// Removes a connection from the poller bookkeeping *before* its socket
/// drops — the kernel recycles fds aggressively, and a stale
/// registration must never alias the next accepted connection.
fn drop_conn(poller: &mut Poller, conns: &mut HashMap<u64, Conn>, token: u64) {
    if let Some(c) = conns.remove(&token) {
        let _ = poller.remove(c.stream.as_raw_fd());
    }
}

/// Swallows whatever is in the wake socket and re-arms the signal.
fn drain_wake_socket(rx: &TcpStream, waker: &WakeSignal) {
    let mut buf = [0u8; 64];
    loop {
        match (&*rx).read(&mut buf) {
            Ok(0) => break, // waker dropped: shutting down
            Ok(_) => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    waker.pending.store(false, Ordering::SeqCst);
}

/// Accepts every connection the listener has ready, registering each
/// with the poller (fresh connections want reads).
fn accept_ready(
    listener: &TcpListener,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    poller: &mut Poller,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                // One request/response in flight per connection: Nagle +
                // delayed ACK would add ~40ms per exchange.
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue; // can't serve a blocking socket here
                }
                let token = *next_token;
                *next_token += 1;
                let mut conn = Conn::new(stream);
                if !sync_interest(poller, token, &mut conn, false) {
                    continue; // unregisterable socket: drop it
                }
                conns.insert(token, conn);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                // Transient (EMFILE, ECONNABORTED…). Back off briefly so
                // a level-triggered retry cannot become a hot spin.
                std::thread::sleep(Duration::from_millis(5));
                break;
            }
        }
    }
}

/// Reads available bytes, then pumps the line state machine. Returns
/// false when the connection errored and must drop.
fn on_readable(c: &mut Conn, token: u64, ctx: &LoopCtx) -> bool {
    let mut chunk = [0u8; READ_CHUNK];
    // The cap bounds the buffer: at most one chunk past the frame limit,
    // enough to prove a line oversized.
    while !c.saw_eof && c.rbuf.len() <= MAX_REQUEST_BYTES {
        match (&c.stream).read(&mut chunk) {
            Ok(0) => c.saw_eof = true,
            Ok(n) => c.rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    pump(c, token, ctx)
}

/// Alternates request extraction and flushing until no complete line
/// remains or the socket genuinely blocks. The alternation matters for
/// pipelined inline requests: `advance` pauses at the output-backpressure
/// cap, and when the flush then clears the backlog entirely (a promptly
/// reading client), no further readiness event would arrive to resume —
/// the client is waiting on us, not writing. Returns false when the
/// connection errored and must drop.
fn pump(c: &mut Conn, token: u64, ctx: &LoopCtx) -> bool {
    loop {
        advance(c, token, ctx);
        if !flush_out(c) {
            return false;
        }
        if c.busy
            || c.close_after_flush
            || c.draining.is_some()
            || c.out.len() - c.out_pos >= OUT_BACKPRESSURE
        {
            // Resumption is someone else's event: a completion, the
            // oversized drain, or the next writable readiness.
            return true;
        }
        if c.scanned >= c.rbuf.len() {
            return true; // no unscanned input left — nothing to extract
        }
    }
}

/// Extracts and submits as many buffered requests as the one-in-flight
/// rule allows. A line over [`MAX_REQUEST_BYTES`] answers `ERR` and closes
/// (after draining the rest of an unterminated one); a malformed line
/// answers `ERR`, and closes only when the error is fatal.
fn advance(c: &mut Conn, token: u64, ctx: &LoopCtx) {
    while !c.busy
        && !c.close_after_flush
        && c.draining.is_none()
        && c.out.len() - c.out_pos < OUT_BACKPRESSURE
    {
        match c.rbuf[c.scanned..].iter().position(|&b| b == b'\n') {
            Some(rel) => {
                let pos = c.scanned + rel;
                let line: Vec<u8> = c.rbuf.drain(..=pos).take(pos).collect();
                c.scanned = 0;
                shrink_rbuf(c);
                if line.len() > MAX_REQUEST_BYTES {
                    // Over the cap with the newline already consumed: ERR
                    // and close, nothing left to drain.
                    queue_err(c, &ProtocolError::TooLong(line.len()));
                    c.close_after_flush = true;
                    return;
                }
                match parse_request(&line) {
                    Ok(req) if offloads(&req) => {
                        c.busy = true;
                        submit(req, token, ctx);
                    }
                    Ok(req) => dispatch_inline(c, req, ctx),
                    Err(err) => {
                        let fatal = is_fatal(&err);
                        queue_err(c, &err);
                        if fatal {
                            c.close_after_flush = true;
                            return;
                        }
                    }
                }
            }
            None => {
                c.scanned = c.rbuf.len();
                if c.rbuf.len() > MAX_REQUEST_BYTES {
                    // Oversized with no terminator in sight: ERR now, then
                    // discard until the newline (bounded) so closing does
                    // not RST the response out of the send queue.
                    queue_err(c, &ProtocolError::TooLong(c.rbuf.len()));
                    c.rbuf.clear();
                    c.scanned = 0;
                    shrink_rbuf(c);
                    c.draining = Some(DRAIN_BUDGET);
                } else if c.saw_eof {
                    if !c.rbuf.is_empty() {
                        // EOF mid-line.
                        queue_err(c, &ProtocolError::Truncated);
                        c.rbuf.clear();
                        c.scanned = 0;
                    }
                    c.close_after_flush = true;
                }
                return;
            }
        }
    }
}

/// Discards oversized-line bytes until the newline, EOF, or the budget.
/// Returns false when the connection errored and must drop.
fn drain_readable(c: &mut Conn) -> bool {
    let Some(mut budget) = c.draining else {
        return true;
    };
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match (&c.stream).read(&mut chunk) {
            Ok(0) => {
                c.draining = None;
                c.close_after_flush = true;
                return true;
            }
            Ok(n) => {
                if let Some(pos) = chunk[..n].iter().position(|&b| b == b'\n') {
                    let _ = pos; // everything before it is discarded
                    c.draining = None;
                    c.close_after_flush = true;
                    return true;
                }
                if n >= budget {
                    // Budget exhausted: give up on a graceful close.
                    c.draining = None;
                    c.close_after_flush = true;
                    return true;
                }
                budget -= n;
                c.draining = Some(budget);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Appends an `ERR <category>: <msg>` line to the connection's output.
fn queue_err(c: &mut Conn, err: &ProtocolError) {
    crate::server::write_err(&mut c.out, "protocol", err);
}

/// Which verbs go to the executor instead of running on the event
/// thread: the ones that can take seconds cold (graph parse, summary
/// build, and `UPDATE`'s carry, which rebuilds every cached kind whose
/// quotient map refuses the batch). Everything else — including warm
/// `QUERY` — is μs-scale and runs inline, where batching keeps the hot
/// path free of handoffs.
fn offloads(req: &crate::protocol::Request) -> bool {
    use crate::protocol::Request;
    matches!(
        req,
        Request::Load { .. } | Request::Summarize { .. } | Request::Update { .. }
    )
}

/// Runs one request on the event thread, appending its response to the
/// connection's output buffer. A panicking handler answers `ERR` and
/// closes the connection, exactly like the executor path.
fn dispatch_inline(c: &mut Conn, req: crate::protocol::Request, ctx: &LoopCtx) {
    let before = c.out.len();
    let service = &ctx.service;
    match catch_unwind(AssertUnwindSafe(|| {
        crate::server::dispatch(service, req, &mut c.out)
    })) {
        Ok(true) => {}
        Ok(false) => c.close_after_flush = true, // QUIT
        Err(_) => {
            c.out.truncate(before); // drop any half-written response
            crate::server::write_err(&mut c.out, "internal", &"request handler panicked");
            c.close_after_flush = true;
        }
    }
}

/// Hands one parsed request to the executor; its completion comes back
/// through the shared vector + waker.
fn submit(req: crate::protocol::Request, token: u64, ctx: &LoopCtx) {
    let service = Arc::clone(&ctx.service);
    let completions = Arc::clone(&ctx.completions);
    let waker = Arc::clone(&ctx.waker);
    ctx.executor.submit(move || {
        let mut bytes = Vec::new();
        let close = match catch_unwind(AssertUnwindSafe(|| {
            crate::server::dispatch(&service, req, &mut bytes)
        })) {
            Ok(keep) => !keep,
            Err(_) => {
                // A panicking handler answers like any other server-side
                // failure and drops the connection, instead of leaving it
                // waiting forever on a completion.
                bytes.clear();
                crate::server::write_err(&mut bytes, "internal", &"request handler panicked");
                true
            }
        };
        completions.lock().unwrap().push(Completion {
            token,
            bytes,
            close,
        });
        waker.wake();
    });
}

/// Writes as much pending output as the socket accepts. Returns false
/// when the connection errored and must drop.
fn flush_out(c: &mut Conn) -> bool {
    while c.out_pos < c.out.len() {
        match (&c.stream).write(&c.out[c.out_pos..]) {
            Ok(0) => return false,
            Ok(n) => c.out_pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    c.out.clear();
    c.out_pos = 0;
    if c.out.capacity() > OUT_KEEP {
        c.out.shrink_to(OUT_KEEP);
    }
    true
}

/// Caps the retained capacity of a drained read buffer.
fn shrink_rbuf(c: &mut Conn) {
    if c.rbuf.is_empty() && c.rbuf.capacity() > RBUF_KEEP {
        c.rbuf.shrink_to(RBUF_KEEP);
    }
}
