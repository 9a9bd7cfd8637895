//! Event-engine robustness: the readiness-loop server under adversarial
//! and high-concurrency connection patterns — slow-loris drips, clients
//! that vanish mid-response, a thousand idle keep-alive sockets,
//! pipelined bursts, and prompt shutdown. Complements `robustness.rs`
//! (malformed byte streams), which also runs against this engine via the
//! default `spawn`.
//!
//! Every scenario runs once through `rdfsum_server::spawn`, whose event
//! loop waits on persistent `poll(2)` slots — the one readiness path on
//! every platform. A wait hands the kernel every registered slot, so the
//! thousand-idle scenario is the pin that this O(fds) wait still serves a
//! large idle fan-in.

use rdfsum_core::SummaryService;
use rdfsum_server::{Client, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start(workers: usize) -> (ServerHandle, Arc<SummaryService>) {
    let service = Arc::new(SummaryService::new(1));
    let handle = rdfsum_server::spawn("127.0.0.1:0", Arc::clone(&service), workers).unwrap();
    (handle, service)
}

/// One request/response over a fresh connection.
fn ping(handle: &ServerHandle) -> String {
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(b"PING\n").unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    line.trim_end().to_string()
}

/// Writes an N-Triples file with `n` distinct `<s> <p> <o>` triples so a
/// full scan produces a response body far larger than a socket buffer.
fn big_graph_file(n: usize) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "rdfsummary_event_loop_{}_{n}.nt",
        std::process::id()
    ));
    let mut body = String::new();
    for i in 0..n {
        body.push_str(&format!(
            "<http://example.org/s/{i}> <http://example.org/p> <http://example.org/o/{i}> .\n"
        ));
    }
    std::fs::write(&path, body).unwrap();
    path
}

/// A byte-at-a-time client cannot wedge the loop: its line assembles
/// across many readiness events, and other clients are served promptly
/// the whole time.
#[test]
fn slow_loris_drip_is_served_without_blocking_others() {
    let (handle, _svc) = start(2);
    let addr = handle.addr();

    let loris = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        for &b in b"STATS\n" {
            stream.write_all(&[b]).unwrap();
            std::thread::sleep(Duration::from_millis(20));
        }
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        line.trim_end().to_string()
    });

    // While the drip is in flight, fresh clients get sub-drip latency.
    for _ in 0..5 {
        let t0 = Instant::now();
        assert_eq!(ping(&handle), "OK pong");
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "PING stalled behind a slow-loris client"
        );
    }

    let status = loris.join().unwrap();
    assert!(status.starts_with("OK stats "), "{status}");
    handle.shutdown();
}

/// A longer request dripped in small fragments still parses as one line.
#[test]
fn fragmented_request_reassembles_exactly() {
    let (handle, _svc) = start(2);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let request = b"LOAD /no/such/path/anywhere.nt\n";
    for chunk in request.chunks(3) {
        stream.write_all(chunk).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    // The request framed correctly: the error is about the *path*, not
    // about the protocol.
    assert!(line.starts_with("ERR load:"), "{line}");
    handle.shutdown();
}

/// Clients that disconnect while a large response is still being flushed
/// only kill their own connection; the server keeps serving.
#[test]
fn disconnect_mid_response_leaves_server_healthy() {
    let (handle, _svc) = start(2);
    let path = big_graph_file(8_000);
    let name = path.to_str().unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(client.load(name).unwrap().is_ok());

    let query = format!("QUERY {name} q(?x, ?y) :- ?x <http://example.org/p> ?y\n");
    for _ in 0..5 {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.write_all(query.as_bytes()).unwrap();
        // Vanish without reading a byte: the ~400 KiB response hits a
        // closed socket mid-write.
        drop(stream);
    }
    // Also: read the status line, then bail mid-body.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(query.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status).unwrap();
    assert!(status.starts_with("OK query "), "{status}");
    drop(reader);

    // The server is unharmed: the same query, read fully, is complete.
    let resp = client
        .query(name, "q(?x, ?y) :- ?x <http://example.org/p> ?y")
        .unwrap();
    assert!(resp.is_ok(), "{}", resp.status);
    assert_eq!(resp.field("rows"), Some("8000"));
    assert_eq!(resp.body_str().unwrap().lines().count(), 8_001); // header + rows
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// The soft cap on this process's open descriptors (`Max open files` in
/// `/proc/self/limits`); `None` when unlimited or unreadable.
fn open_file_limit() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// How many idle connections the thousand-idle scenario holds: 1 000 when
/// the descriptor limit allows, else the most that fit. Each connection
/// takes two descriptors in this process (the client end and the server's
/// accepted end), and 64 more are kept for the listener, the wake pair,
/// stdio and the suite's other tests.
fn idle_connection_count() -> usize {
    const WANTED: usize = 1_000;
    const HEADROOM: usize = 64;
    let Some(limit) = open_file_limit() else {
        return WANTED;
    };
    let fit = limit.saturating_sub(HEADROOM) / 2;
    if fit >= WANTED {
        return WANTED;
    }
    assert!(
        fit >= 256,
        "the soft descriptor limit ({limit}) fits only {fit} idle connections; \
         raise it with `ulimit -n 2100` to run this test at {WANTED}"
    );
    println!(
        "thousand_idle_keepalive_connections_all_answer: {fit} connections (soft limit {limit})"
    );
    fit
}

/// A thousand keep-alive connections can sit idle concurrently and all
/// remain serviceable — connections are not bounded by the executor
/// width (2 here). Every wait of the event loop hands the kernel all of
/// their `poll(2)` slots; this pins that the idle fan-in is still served
/// at that scale. A host whose descriptor limit cannot hold a thousand
/// runs fewer and says how many.
#[test]
fn thousand_idle_keepalive_connections_all_answer() {
    let (handle, _svc) = start(2);
    let n = idle_connection_count();
    let mut conns: Vec<TcpStream> = Vec::with_capacity(n);
    for _ in 0..n {
        conns.push(TcpStream::connect(handle.addr()).unwrap());
    }
    // Everyone speaks once while the others stay connected.
    for stream in &mut conns {
        stream.write_all(b"PING\n").unwrap();
    }
    for stream in &mut conns {
        let mut line = String::new();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "OK pong");
    }
    // A newcomer is served while all of them are still open and idle.
    assert_eq!(ping(&handle), "OK pong");
    // And the idle ones are still live, not silently reaped.
    for stream in conns.iter_mut().step_by(97) {
        stream.write_all(b"PING\n").unwrap();
        let mut line = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert_eq!(line.trim_end(), "OK pong");
    }
    handle.shutdown();
}

/// A pipelined burst answers strictly in request order on one connection.
#[test]
fn pipelined_burst_answers_in_order() {
    let (handle, _svc) = start(4);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(b"PING\nSTATS\nPING\nQUIT\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "OK pong");

    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("OK stats "), "{line}");
    let bytes: usize = line
        .trim_end()
        .rsplit(' ')
        .next()
        .unwrap()
        .strip_prefix("bytes=")
        .unwrap()
        .parse()
        .unwrap();
    let mut body = vec![0u8; bytes];
    reader.read_exact(&mut body).unwrap();

    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "OK pong");

    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "OK bye");

    // QUIT closes: clean EOF, nothing more.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    handle.shutdown();
}

/// Shutdown with a crowd of idle keep-alive connections is prompt: idle
/// sockets are dropped immediately, not waited on.
#[test]
fn shutdown_is_prompt_with_idle_connections() {
    let (handle, _svc) = start(2);
    let mut conns: Vec<TcpStream> = Vec::new();
    for _ in 0..64 {
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.write_all(b"PING\n").unwrap();
        let mut line = String::new();
        BufReader::new(s.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert_eq!(line.trim_end(), "OK pong");
        conns.push(s);
    }
    let t0 = Instant::now();
    handle.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "shutdown waited on idle connections: {:?}",
        t0.elapsed()
    );
    // The dropped connections observe EOF (or a reset), never a hang.
    for mut s in conns {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 16];
        match s.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("unexpected {n} bytes after shutdown"),
        }
    }
}

/// A burst of pipelined queries whose responses dwarf the server's
/// output-backpressure cap still answers completely and in order:
/// extraction pauses while the backlog flushes and resumes as the
/// client reads.
#[test]
fn pipelined_large_responses_flush_under_backpressure() {
    let (handle, _svc) = start(2);
    let path = big_graph_file(8_000);
    let name = path.to_str().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(client.load(name).unwrap().is_ok());

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let query = format!("QUERY {name} q(?x, ?y) :- ?x <http://example.org/p> ?y\n");
    // ~8 × ~400 KiB of responses against a 256 KiB backlog cap: the
    // server must alternate extract/flush, not buffer everything.
    let burst = query.repeat(8);
    stream.write_all(burst.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    for _ in 0..8 {
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        assert!(status.starts_with("OK query rows=8000 "), "{status}");
        let bytes: usize = status
            .trim_end()
            .rsplit(' ')
            .next()
            .unwrap()
            .strip_prefix("bytes=")
            .unwrap()
            .parse()
            .unwrap();
        let mut body = vec![0u8; bytes];
        reader.read_exact(&mut body).unwrap();
        assert_eq!(body.iter().filter(|&&b| b == b'\n').count(), 8_001);
    }
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// A reader that takes a few KiB at a time and pauses between reads, so
/// the server's send queue stays full for the whole response.
struct SlowReader(TcpStream);

impl Read for SlowReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        std::thread::sleep(Duration::from_millis(1));
        let n = buf.len().min(4096);
        self.0.read(&mut buf[..n])
    }
}

/// A > 1 MB `QUERY`, a `PING` and the same `QUERY` again, pipelined by
/// a client that then reads slowly: three well-framed responses in
/// order (`bytes=` is the body's length, `rows=` its line count − 1),
/// while the server's other connection keeps getting `PING`s answered.
#[test]
fn large_answers_to_a_slow_reader_stay_framed_and_do_not_stall_others() {
    let (handle, _svc) = start(2);
    // 10 000 rows of two ~70-byte IRIs: the answer is ~1.4 MB.
    let pad = "x".repeat(40);
    let path = std::env::temp_dir().join(format!(
        "rdfsummary_event_loop_{}_slow.nt",
        std::process::id()
    ));
    let doc: String = (0..10_000)
        .map(|i| {
            format!(
                "<http://example.org/{pad}/s/{i}> <http://example.org/p> <http://example.org/{pad}/o/{i}> .\n"
            )
        })
        .collect();
    std::fs::write(&path, doc).unwrap();
    let name = path.to_str().unwrap();
    let mut other = Client::connect(handle.addr()).unwrap();
    assert!(other.load(name).unwrap().is_ok());

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let query = format!("QUERY {name} q(?x, ?y) :- ?x <http://example.org/p> ?y\n");
    stream
        .write_all(format!("{query}PING\n{query}").as_bytes())
        .unwrap();
    let reader = std::thread::spawn(move || {
        let mut reader = BufReader::with_capacity(4096, SlowReader(stream));
        let mut read_response = || {
            let mut status = String::new();
            reader.read_line(&mut status).unwrap();
            let status = status.trim_end().to_string();
            let mut body = Vec::new();
            if let Some(bytes) = status.rsplit(' ').next().unwrap().strip_prefix("bytes=") {
                body.resize(bytes.parse().unwrap(), 0);
                reader.read_exact(&mut body).unwrap();
            }
            (status, body)
        };
        [read_response(), read_response(), read_response()]
    });

    let mut pings_meanwhile = 0;
    while !reader.is_finished() {
        let t0 = Instant::now();
        assert_eq!(other.ping().unwrap().status, "OK pong");
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "PING stalled behind a slow reader's backlog"
        );
        pings_meanwhile += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(pings_meanwhile > 10, "{pings_meanwhile}");

    let [(first, first_body), (pong, pong_body), (second, second_body)] = reader.join().unwrap();
    assert_eq!(pong, "OK pong");
    assert!(pong_body.is_empty());
    for (status, body) in [(&first, &first_body), (&second, &second_body)] {
        assert!(
            status.starts_with("OK query rows=10000 ") && status.contains(" truncated=0 "),
            "{status}"
        );
        assert!(body.len() > 1_000_000, "{} bytes", body.len());
        assert_eq!(body.last(), Some(&b'\n'));
        assert_eq!(body.iter().filter(|&&b| b == b'\n').count(), 10_001);
    }
    assert_eq!(first_body, second_body);
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Seconds-scale verbs (`LOAD`, cold `SUMMARIZE`) run on the executor,
/// not the event thread: while a width-1 executor is occupied parsing a
/// large graph with a summary build queued behind it, fresh connections
/// still get inline answers promptly.
#[test]
fn cold_summarize_does_not_stall_other_connections() {
    let (handle, _svc) = start(1); // width 1: one cold build occupies the whole executor
    let path = big_graph_file(150_000);
    let name = path.to_str().unwrap();

    let mut loader = TcpStream::connect(handle.addr()).unwrap();
    loader
        .write_all(format!("LOAD {name}\n").as_bytes())
        .unwrap();
    let mut builder = TcpStream::connect(handle.addr()).unwrap();
    builder
        .write_all(format!("SUMMARIZE weak {name}\n").as_bytes())
        .unwrap();

    // Both offloaded requests are (or were) in flight on the executor;
    // the event thread keeps answering everyone else inline.
    for _ in 0..10 {
        let t0 = Instant::now();
        assert_eq!(ping(&handle), "OK pong");
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "PING stalled behind an offloaded build"
        );
    }

    let mut line = String::new();
    BufReader::new(loader).read_line(&mut line).unwrap();
    assert!(line.starts_with("OK loaded "), "{line}");
    line.clear();
    BufReader::new(builder).read_line(&mut line).unwrap();
    assert!(line.starts_with("OK summary "), "{line}");
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}
