//! The benchmark's own line-protocol client: a response framer, one
//! pipelined connection, and the two send rules — *window W* (closed
//! loop) and *rate R* (open loop, timed from the due time).
//!
//! Deliberately not `rdfsum_server::Client`: the end-to-end half depends
//! on the wire protocol only, and needs pipelining the scripting client
//! does not offer.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One framed response: the status line (no terminator) and the body the
/// `bytes=<n>` field announced (empty for body-less responses).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Response {
    pub(crate) status: String,
    pub(crate) body: Vec<u8>,
}

impl Response {
    pub(crate) fn is_ok(&self) -> bool {
        self.status.starts_with("OK ")
    }

    /// The value of `name=<value>` on the status line.
    pub(crate) fn field(&self, name: &str) -> Option<&str> {
        self.status
            .split(' ')
            .find_map(|tok| tok.strip_prefix(name)?.strip_prefix('='))
    }

    pub(crate) fn num(&self, name: &str) -> Option<u64> {
        self.field(name)?.parse().ok()
    }
}

/// The response tags that carry a length-framed body. `protocol.rs`
/// requires clients to key framing on the tag: other `OK` lines may end
/// in free-form fields (`LOAD` echoes the path, which may itself end in
/// `bytes=7`).
const BODY_TAGS: [&str; 3] = ["summary", "stats", "query"];

/// Incremental response framer over whatever byte chunks the socket
/// hands out.
#[derive(Default)]
pub(crate) struct Framer {
    buf: Vec<u8>,
    pos: usize,
}

impl Framer {
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        if self.pos > 0 && self.pos >= self.buf.len() / 2 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response, `Ok(None)` when more bytes are needed,
    /// `Err` when the stream cannot be a response stream.
    pub(crate) fn next(&mut self) -> Result<Option<Response>, String> {
        let pending = &self.buf[self.pos..];
        let Some(nl) = pending.iter().position(|&b| b == b'\n') else {
            return Ok(None);
        };
        let status = std::str::from_utf8(&pending[..nl])
            .map_err(|_| "status line is not UTF-8".to_string())?;
        let mut words = status.split(' ');
        let carries_body =
            words.next() == Some("OK") && words.next().is_some_and(|tag| BODY_TAGS.contains(&tag));
        let body_len = if carries_body {
            status
                .rsplit(' ')
                .next()
                .and_then(|tok| tok.strip_prefix("bytes="))
                .and_then(|n| n.parse::<usize>().ok())
                .ok_or_else(|| format!("body-carrying response without bytes=<n>: {status}"))?
        } else {
            0
        };
        let end = nl + 1 + body_len;
        if pending.len() < end {
            return Ok(None);
        }
        let response = Response {
            status: status.to_string(),
            body: pending[nl + 1..end].to_vec(),
        };
        self.pos += end;
        Ok(Some(response))
    }
}

/// One keep-alive connection to the server.
pub(crate) struct Conn {
    stream: TcpStream,
    framer: Framer,
    chunk: Vec<u8>,
    /// When the last `read` returned: the arrival time of every response
    /// that read completed, however long the caller takes to get to it.
    arrived: Instant,
}

impl Conn {
    pub(crate) fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            framer: Framer::default(),
            chunk: vec![0; 256 * 1024],
            arrived: Instant::now(),
        })
    }

    pub(crate) fn send(&mut self, line: &str) -> io::Result<()> {
        send_line(&mut self.stream, line)
    }

    /// Blocks until one whole response has arrived.
    pub(crate) fn recv(&mut self) -> Result<Response, String> {
        loop {
            if let Some(r) = self.framer.next()? {
                return Ok(r);
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err("connection closed by server".into()),
                Ok(n) => {
                    self.arrived = Instant::now();
                    self.framer.push(&self.chunk[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    /// [`Conn::recv`] with the time the response arrived, or the current
    /// time for a failure.
    fn recv_stamped(&mut self) -> (Result<Response, String>, Instant) {
        match self.recv() {
            Ok(r) => (Ok(r), self.arrived),
            Err(e) => (Err(e), Instant::now()),
        }
    }

    /// One ping-pong round trip.
    pub(crate) fn call(&mut self, line: &str) -> Result<Response, String> {
        self.send(line).map_err(|e| format!("write: {e}"))?;
        self.recv()
    }
}

fn send_line(stream: &mut TcpStream, line: &str) -> io::Result<()> {
    debug_assert!(!line.contains('\n'));
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    stream.write_all(&framed)
}

/// One request of a workload mix: what to send, and what the checker
/// needs to know about it when the answer comes back.
#[derive(Clone, Debug)]
pub(crate) struct Request {
    pub(crate) class: Class,
    /// Identifies the distinct request text within its class (template
    /// and parameter), so first occurrences can be told from repeats.
    pub(crate) key: u64,
    pub(crate) line: String,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum Class {
    Point,
    Join,
    Feature,
    EmptyJoin,
    Unknown,
    Scan,
    ScanJoin,
    Summarize,
    Stats,
    Insert,
    Delete,
}

impl Class {
    pub(crate) fn is_query(self) -> bool {
        matches!(
            self,
            Class::Point
                | Class::Join
                | Class::Feature
                | Class::EmptyJoin
                | Class::Unknown
                | Class::Scan
                | Class::ScanJoin
        )
    }
}

/// One finished (or failed) request as the connection thread saw it.
pub(crate) struct Outcome {
    pub(crate) request: Request,
    /// When the request was due: equal to `sent` under a window rule.
    pub(crate) due: Instant,
    pub(crate) sent: Instant,
    pub(crate) done: Instant,
    pub(crate) response: Result<Response, String>,
}

impl Outcome {
    /// Client-observed latency, from the due time (so a stall is charged
    /// to every request that was due while it lasted).
    pub(crate) fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    pub(crate) fn lateness(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

/// Closed loop: keeps `window` requests outstanding until `deadline`,
/// then collects the stragglers. One thread, one socket: top the window
/// up with one write, block for the next response, take every response
/// that has already arrived with it, repeat. Coalescing the top-up into
/// one write is what a pipelining client does, and it keeps the
/// generator's own CPU (which competes with the server for two cores)
/// to a fraction of a core.
pub(crate) fn run_window(
    conn: &mut Conn,
    window: usize,
    deadline: Instant,
    mut next: impl FnMut() -> Request,
    mut done: impl FnMut(Outcome),
) {
    let mut flying: VecDeque<(Request, Instant)> = VecDeque::with_capacity(window);
    let mut batch: Vec<u8> = Vec::new();
    loop {
        batch.clear();
        let sent = Instant::now();
        while flying.len() < window && sent < deadline {
            let request = next();
            debug_assert!(!request.line.contains('\n'));
            batch.extend_from_slice(request.line.as_bytes());
            batch.push(b'\n');
            flying.push_back((request, sent));
        }
        if flying.is_empty() {
            return;
        }
        // One arrival stamp for everything the read delivered: the
        // checker's time on one response (`done` compares and clones bodies
        // of up to a megabyte) must not be charged to the next.
        let (mut response, arrived) = match conn.stream.write_all(&batch) {
            Ok(()) => conn.recv_stamped(),
            Err(e) => (Err(format!("write: {e}")), Instant::now()),
        };
        loop {
            let (request, sent) = flying
                .pop_front()
                .expect("a response is awaited only while requests fly");
            let broken = response.as_ref().err().cloned();
            done(Outcome {
                request,
                due: sent,
                sent,
                done: arrived,
                response,
            });
            if let Some(e) = broken {
                // The stream is unusable: everything still flying has failed.
                for (request, sent) in flying.drain(..) {
                    done(Outcome {
                        request,
                        due: sent,
                        sent,
                        done: arrived,
                        response: Err(e.clone()),
                    });
                }
                return;
            }
            if flying.is_empty() {
                break;
            }
            // Whatever else the last read already delivered.
            response = match conn.framer.next() {
                Ok(Some(r)) => Ok(r),
                Ok(None) => break,
                Err(e) => Err(e),
            };
        }
    }
}

/// Open loop: request `i` is due at `start + i / rate` and is sent then,
/// whether or not earlier replies have arrived; latency runs from the due
/// time. std has no readiness wait with a sub-millisecond timeout, so the
/// connection is driven by a sender (sleeps until each due time) and a
/// receiver (blocks in `read`) sharing the one socket; both are idle
/// almost always.
pub(crate) fn run_rate(
    conn: &mut Conn,
    rate_per_s: f64,
    start: Instant,
    deadline: Instant,
    mut next: impl FnMut(u64) -> Request + Send,
    mut done: impl FnMut(Outcome),
) {
    let mut writer = match conn.stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            done(Outcome {
                request: next(0),
                due: start,
                sent: start,
                done: Instant::now(),
                response: Err(format!("clone socket: {e}")),
            });
            return;
        }
    };
    let (tx, rx) = mpsc::channel::<(Request, Instant, Instant, Option<String>)>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for i in 0u64.. {
                let due = start + Duration::from_secs_f64(i as f64 / rate_per_s);
                if due >= deadline {
                    break;
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let request = next(i);
                let sent = Instant::now();
                // Write first, queue second: the receiver blocks on the
                // queue before it reads, so an answer that overtakes its
                // queue entry simply waits in the socket.
                let written = send_line(&mut writer, &request.line).err();
                let failed = written.is_some();
                let _ = tx.send((request, due, sent, written.map(|e| format!("write: {e}"))));
                if failed {
                    break;
                }
            }
        });
        let mut broken: Option<String> = None;
        for (request, due, sent, write_error) in rx {
            let (response, arrived) = match (&broken, write_error) {
                (Some(e), _) => (Err(e.clone()), Instant::now()),
                (None, Some(e)) => (Err(e), Instant::now()),
                (None, None) => conn.recv_stamped(),
            };
            if let Err(e) = &response {
                broken.get_or_insert_with(|| e.clone());
            }
            done(Outcome {
                request,
                due,
                sent,
                done: arrived,
                response,
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    fn frames(chunks: &[&[u8]]) -> Vec<Response> {
        let mut f = Framer::default();
        let mut out = Vec::new();
        for c in chunks {
            f.push(c);
            while let Some(r) = f.next().unwrap() {
                out.push(r);
            }
        }
        out
    }

    #[test]
    fn framer_splits_pipelined_responses_across_arbitrary_reads() {
        let stream: &[u8] = b"OK pong\nOK query rows=1 pruned=0 cached=1 kind=w truncated=0 bytes=7\n?x\n<a>\nERR query: bad query: nope\nOK summary kind=W fp=ab cached=1 nodes=1 edges=1 input=3 bytes=4\nab\n\nOK update fp=cd applied=8 patched=0 rebuilt=2\n";
        let whole = frames(&[stream]);
        assert_eq!(whole.len(), 5);
        assert_eq!(whole[1].body, b"?x\n<a>\n");
        assert_eq!(whole[1].num("rows"), Some(1));
        assert!(!whole[2].is_ok());
        assert_eq!(whole[3].body, b"ab\n\n");
        assert_eq!(whole[4].field("fp"), Some("cd"));
        // Byte-at-a-time delivery (status lines and bodies both split)
        // frames identically.
        let bytes: Vec<&[u8]> = stream.chunks(1).collect();
        assert_eq!(frames(&bytes), whole);
        let sevens: Vec<&[u8]> = stream.chunks(7).collect();
        assert_eq!(frames(&sevens), whole);
    }

    #[test]
    fn framing_is_keyed_on_the_tag_not_the_last_token() {
        // LOAD echoes the path as a free-form trailing field; a path that
        // ends in `bytes=7` must not make the framer swallow 7 bytes.
        let got =
            frames(&[b"OK loaded fp=ab triples=3 reloaded=0 graph=/tmp/x bytes=7\nOK pong\n"]);
        assert_eq!(got.len(), 2);
        assert!(got[0].body.is_empty());
        assert_eq!(got[1].status, "OK pong");
        // ...and a body-carrying tag without a length is a protocol error.
        let mut f = Framer::default();
        f.push(b"OK stats graphs=1\n");
        assert!(f.next().is_err());
        // A body that has not fully arrived is simply not ready yet.
        let mut f = Framer::default();
        f.push(b"OK stats graphs=0 bytes=5\nabc");
        assert_eq!(f.next(), Ok(None));
        f.push(b"de");
        assert_eq!(f.next().unwrap().unwrap().body, b"abcde");
    }

    #[test]
    fn responses_of_one_read_share_its_arrival_stamp() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.write_all(b"OK pong\nOK pong\n").unwrap();
        });
        let mut conn = Conn::connect(addr).unwrap();
        server.join().unwrap();
        let (first, at_first) = conn.recv_stamped();
        // A slow checker between the two must not age the second response.
        std::thread::sleep(Duration::from_millis(20));
        let (second, at_second) = conn.recv_stamped();
        assert!(first.unwrap().is_ok() && second.unwrap().is_ok());
        assert_eq!(at_first, at_second);
        assert!(at_first.elapsed() >= Duration::from_millis(20));
    }

    /// A fake server that answers every line with `OK pong`, except that
    /// it holds request `stall_at` until `release` fires.
    fn fake_server(
        stall_at: usize,
        release: mpsc::Receiver<()>,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut out = stream.try_clone().unwrap();
            for (i, line) in BufReader::new(stream).lines().enumerate() {
                if line.is_err() {
                    break;
                }
                if i == stall_at {
                    release.recv().unwrap();
                }
                if out.write_all(b"OK pong\n").is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    fn ping() -> Request {
        Request {
            class: Class::Stats,
            key: 0,
            line: "PING".into(),
        }
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_request_due_during_it() {
        // The server stalls on request 5 until the sender has *generated*
        // request 25 — which only an open loop ever does: a generator
        // that waited for reply 5 would deadlock here (coordinated
        // omission in its purest form).
        const STALL_AT: u64 = 5;
        const RELEASE_AT: u64 = 25;
        let (release_tx, release_rx) = mpsc::channel();
        let (addr, server) = fake_server(STALL_AT as usize, release_rx);
        let mut conn = Conn::connect(addr).unwrap();
        let rate = 1000.0;
        let start = Instant::now();
        let deadline = start + Duration::from_millis(40);
        let mut outcomes = Vec::new();
        run_rate(
            &mut conn,
            rate,
            start,
            deadline,
            |i| {
                if i == RELEASE_AT {
                    release_tx.send(()).unwrap();
                }
                ping()
            },
            |o| outcomes.push(o),
        );
        drop(conn);
        server.join().unwrap();
        assert_eq!(outcomes.len(), 40);
        assert!(outcomes
            .iter()
            .all(|o| o.response.as_ref().is_ok_and(Response::is_ok)));
        let due_release = outcomes[RELEASE_AT as usize].due;
        for (i, o) in outcomes
            .iter()
            .enumerate()
            .take(RELEASE_AT as usize)
            .skip(STALL_AT as usize)
        {
            // Answered only after the release, so its latency from the
            // due time covers the rest of the stall — for request 5 and
            // for every later request that was due while it lasted.
            let owed = due_release.duration_since(o.due);
            assert!(
                o.latency() >= owed,
                "request {i}: {:?} < {owed:?}",
                o.latency()
            );
        }
        assert!(outcomes[STALL_AT as usize].latency() >= Duration::from_millis(19));
        assert!(outcomes[15].latency() >= Duration::from_millis(9));
        // Due times follow the schedule, not the replies.
        let due_30 = outcomes[30].due.duration_since(start).as_secs_f64();
        assert!((due_30 - 0.030).abs() < 1e-6, "{due_30}");
    }

    #[test]
    fn window_rule_keeps_w_outstanding_and_reports_transport_failure() {
        let (_tx, never) = mpsc::channel();
        let (addr, server) = fake_server(usize::MAX, never);
        let mut conn = Conn::connect(addr).unwrap();
        let mut sent = 0;
        let mut ok = 0;
        // A deadline already in the past still drains what was sent:
        // nothing here, so no outcome at all.
        run_window(&mut conn, 4, Instant::now(), ping, |_| ok += 1);
        assert_eq!(ok, 0);
        let deadline = Instant::now() + Duration::from_millis(30);
        run_window(
            &mut conn,
            4,
            deadline,
            || {
                sent += 1;
                ping()
            },
            |o| {
                assert!(o.response.unwrap().is_ok());
                ok += 1;
            },
        );
        assert!(sent >= 4);
        assert_eq!(ok, sent);
        drop(conn);
        server.join().unwrap();

        // A server that hangs up fails every outstanding request.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hangup = std::thread::spawn(move || drop(listener.accept().unwrap()));
        let mut conn = Conn::connect(addr).unwrap();
        hangup.join().unwrap();
        let mut failed = 0;
        run_window(
            &mut conn,
            3,
            Instant::now() + Duration::from_millis(5),
            ping,
            |o| failed += usize::from(o.response.is_err()),
        );
        assert!(failed >= 1);
    }
}
