//! Wire-level robustness: malformed byte streams against a live server
//! must always produce clean `ERR protocol:` responses (and sane
//! connection handling) — never a panic, never a hang. Mirrors the root
//! `robustness.rs` error-path style, one level down the stack.

use rdfsum_core::SummaryService;
use rdfsum_server::{Client, ServerHandle, MAX_REQUEST_BYTES};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn start() -> (ServerHandle, Arc<SummaryService>) {
    let service = Arc::new(SummaryService::new(1));
    let handle = rdfsum_server::spawn("127.0.0.1:0", Arc::clone(&service), 4).unwrap();
    (handle, service)
}

/// Sends raw bytes on a fresh connection and returns the first response
/// line (the writing half is shut down so truncated frames see EOF).
fn raw_roundtrip(handle: &ServerHandle, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(bytes).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    line.trim_end().to_string()
}

#[test]
fn empty_lines_are_clean_protocol_errors() {
    let (handle, _svc) = start();
    assert!(raw_roundtrip(&handle, b"\n").starts_with("ERR protocol:"));
    assert!(raw_roundtrip(&handle, b"   \n").starts_with("ERR protocol:"));
    // …and the connection survives them: error, then a working PING.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(b"\nPING\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    assert!(first.starts_with("ERR protocol:"), "{first}");
    let mut second = String::new();
    reader.read_line(&mut second).unwrap();
    assert_eq!(second.trim_end(), "OK pong");
    handle.shutdown();
}

#[test]
fn unknown_verbs_and_bad_operands() {
    let (handle, _svc) = start();
    for (raw, want) in [
        (&b"FROBNICATE\n"[..], "unknown verb"),
        (b"LOAD\n", "usage:"),
        (b"SUMMARIZE w\n", "usage:"),
        (b"SUMMARIZE zz graph.nt\n", "unknown summary kind"),
        (b"EVICT\n", "usage:"),
        (b"QUERY\n", "usage:"),
        (b"QUERY g.nt\n", "usage:"),     // graph but no query text
        (b"QUERY g.nt    \n", "usage:"), // whitespace-only query text
    ] {
        let resp = raw_roundtrip(&handle, raw);
        assert!(resp.starts_with("ERR protocol:"), "{resp}");
        assert!(resp.contains(want), "`{resp}` should contain `{want}`");
    }
    handle.shutdown();
}

#[test]
fn non_utf8_bytes_are_rejected_cleanly() {
    let (handle, _svc) = start();
    let resp = raw_roundtrip(&handle, b"LOAD \xff\xfe\xfd\n");
    assert!(resp.starts_with("ERR protocol:"), "{resp}");
    assert!(resp.contains("UTF-8"), "{resp}");
    handle.shutdown();
}

#[test]
fn truncated_frames_are_reported_and_closed() {
    let (handle, _svc) = start();
    let resp = raw_roundtrip(&handle, b"PING"); // no newline, then EOF
    assert!(resp.starts_with("ERR protocol:"), "{resp}");
    assert!(resp.contains("truncated"), "{resp}");
    handle.shutdown();
}

#[test]
fn oversized_requests_are_rejected_and_closed() {
    let (handle, _svc) = start();
    let mut huge = vec![b'A'; MAX_REQUEST_BYTES + 100];
    huge.push(b'\n');
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(&huge).unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR protocol:"), "{line}");
    assert!(line.contains("exceeds"), "{line}");
    // Framing is unrecoverable: the server closes the connection.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());

    // The cap excludes the newline: a line of exactly the cap is framed
    // and parsed (here: an unknown verb, recoverable), not a framing
    // error, and the connection keeps serving.
    let mut at_cap = vec![b'A'; MAX_REQUEST_BYTES];
    at_cap.extend_from_slice(b"\nPING\n");
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(&at_cap).unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR protocol:"), "{line}");
    assert!(!line.contains("exceeds"), "{line}");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "OK pong");
    handle.shutdown();
}

/// A line megabytes past the cap: the ERR must still reach the client —
/// the server drains the broken line before closing, so the close cannot
/// become a TCP reset that destroys the queued response.
#[test]
fn megabyte_line_still_receives_the_error_response() {
    let (handle, _svc) = start();
    let mut huge = vec![b'Z'; 4 * 1024 * 1024];
    huge.push(b'\n');
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(&huge).unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR protocol:"), "{line}");
    assert!(line.contains("exceeds"), "{line}");
    handle.shutdown();
}

/// A graph file whose name ends in a `bytes=`-shaped token must not fool
/// the client into waiting for a body on the (bodyless) LOAD response.
#[test]
fn load_response_with_adversarial_path_does_not_fake_a_body() {
    let dir = std::env::temp_dir().join(format!("rdfsum_server_fake_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("x bytes=7"); // space + bytes=N as the last token
    std::fs::write(&path, "<http://x/a> <http://x/p> <http://x/b> .\n").unwrap();
    let (handle, _svc) = start();
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client.load(path.to_str().unwrap()).unwrap();
    assert!(resp.is_ok(), "{}", resp.status);
    assert!(resp.body.is_none(), "LOAD must never frame a body");
    // The connection is still in sync: a follow-up request works.
    assert_eq!(client.ping().unwrap().status, "OK pong");
    handle.shutdown();
}

#[test]
fn load_errors_are_load_errors_not_crashes() {
    let (handle, _svc) = start();
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client.request("LOAD /nonexistent/graph.nt").unwrap();
    assert!(resp.status.starts_with("ERR load:"), "{}", resp.status);
    // Garbage snapshot: write junk bytes and try to load them.
    let dir = std::env::temp_dir().join(format!("rdfsum_server_rb_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let junk = dir.join("junk.snap");
    std::fs::write(&junk, b"not a snapshot at all").unwrap();
    let resp = client.request(&format!("LOAD {}", junk.display())).unwrap();
    assert!(resp.status.starts_with("ERR load:"), "{}", resp.status);
    // Malformed N-Triples report the parse error.
    let bad = dir.join("bad.nt");
    std::fs::write(&bad, "<a> <p> .\n").unwrap();
    let resp = client.request(&format!("LOAD {}", bad.display())).unwrap();
    assert!(resp.status.starts_with("ERR load:"), "{}", resp.status);
    handle.shutdown();
}

#[test]
fn summarize_unknown_graph_is_an_error_response() {
    let (handle, _svc) = start();
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client.request("SUMMARIZE w /never/loaded.nt").unwrap();
    assert!(resp.status.starts_with("ERR summarize:"), "{}", resp.status);
    assert!(resp.body.is_none());
    let resp = client.request("EVICT /never/loaded.nt").unwrap();
    assert!(resp.status.starts_with("ERR evict:"), "{}", resp.status);
    handle.shutdown();
}

#[test]
fn query_error_paths_are_clean_err_responses() {
    let (handle, _svc) = start();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Unknown graph: a query-category error, connection stays usable.
    let resp = client
        .query("/never/loaded.nt", "q(?x) :- ?x <p> ?y")
        .unwrap();
    assert!(resp.status.starts_with("ERR query:"), "{}", resp.status);
    assert!(resp.body.is_none());

    // Malformed query text against a real graph: same discipline.
    let dir = std::env::temp_dir().join(format!("rdfsum_server_q_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.nt");
    std::fs::write(&path, "<http://x/a> <http://x/p> <http://x/b> .\n").unwrap();
    let name = path.to_str().unwrap();
    assert!(client.load(name).unwrap().is_ok());
    for bad in [
        "this is not a query",
        "q(?x) :-",           // empty body
        "q(?x) :- ?y <p> ?z", // unbound head variable
        "q() :- ?x <p>",      // missing object term
    ] {
        let resp = client.query(name, bad).unwrap();
        assert!(
            resp.status.starts_with("ERR query:"),
            "{bad} → {}",
            resp.status
        );
        assert!(resp.body.is_none(), "query errors never carry a body");
    }
    // Non-UTF-8 query bytes are a protocol error (pre-parse).
    let resp = raw_roundtrip(&handle, b"QUERY g.nt q(?x) :- ?x <\xff> ?y\n");
    assert!(resp.starts_with("ERR protocol:"), "{resp}");

    // An oversized QUERY line hits the frame cap: ERR, then close.
    let mut huge = b"QUERY g.nt q() :- ?x <".to_vec();
    huge.extend(std::iter::repeat_n(b'p', MAX_REQUEST_BYTES));
    huge.extend_from_slice(b"> ?y\n");
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(&huge).unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR protocol:"), "{line}");
    assert!(line.contains("exceeds"), "{line}");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection closes after a framing error");

    // The service survived all of it.
    assert_eq!(client.ping().unwrap().status, "OK pong");
    handle.shutdown();
}

#[test]
fn query_roundtrip_over_the_wire() {
    let dir = std::env::temp_dir().join(format!("rdfsum_server_qr_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("books.nt");
    std::fs::write(
        &path,
        "<http://x/b1> <http://x/author> <http://x/alice> .\n\
         <http://x/b2> <http://x/author> <http://x/bob> .\n",
    )
    .unwrap();
    let name = path.to_str().unwrap();
    let (handle, _svc) = start();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(client.load(name).unwrap().is_ok());

    // SELECT: header line + one line per row, tab-separated.
    let resp = client
        .query(name, "q(?x) :- ?x <http://x/author> ?y")
        .unwrap();
    assert!(resp.is_ok(), "{}", resp.status);
    assert_eq!(resp.field("rows"), Some("2"));
    assert_eq!(resp.field("pruned"), Some("0"));
    assert_eq!(resp.field("truncated"), Some("0"));
    let body = resp.body_str().unwrap();
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines[0], "x");
    assert_eq!(lines.len(), 3);
    assert!(lines[1..].contains(&"<http://x/b1>"));
    assert!(lines[1..].contains(&"<http://x/b2>"));

    // ASK: bare verdict body.
    let resp = client
        .query(name, "q() :- ?x <http://x/author> ?y")
        .unwrap();
    assert!(resp.is_ok(), "{}", resp.status);
    assert_eq!(resp.body_str(), Some("true\n"));

    // Empty answer: pruned via the summary, zero rows, and the summary
    // was already warm from the first query (cached=1).
    let resp = client
        .query(name, "q() :- ?x <http://x/editor> ?y")
        .unwrap();
    assert!(resp.is_ok(), "{}", resp.status);
    assert_eq!(resp.field("pruned"), Some("1"));
    assert_eq!(resp.field("cached"), Some("1"));
    assert_eq!(resp.body_str(), Some("false\n"));
    handle.shutdown();
}

/// A literal holding TAB, LF, CR, `"` or `\` cannot forge rows or cells:
/// `QUERY` cells are N-Triples-escaped, so the body splits back into
/// `rows + 1` lines of `columns` cells, and every cell parses back to
/// the stored term.
#[test]
fn query_cells_with_control_characters_are_escaped() {
    use rdf_model::{Graph, Term};
    use std::collections::BTreeSet;
    let says = "http://x/says";
    let mut stored: BTreeSet<(Term, Term)> = BTreeSet::new();
    let mut g = Graph::new();
    let lexicals = [
        "tab\there",
        "line one\nline two",
        "carriage\rreturn",
        "she said \"hi\"",
        "back\\slash",
        "\t\n\r\"\\ all of them \\\"\r\n\t",
        "\n",
        "plain",
    ];
    for (i, lexical) in lexicals.into_iter().enumerate() {
        let s = Term::iri(format!("http://x/s{i}"));
        for o in [
            Term::literal(lexical),
            Term::lang_literal(lexical, "en"),
            Term::typed_literal(lexical, "http://x/dt"),
        ] {
            g.insert(s.clone(), Term::iri(says), o.clone()).unwrap();
            stored.insert((s.clone(), o));
        }
    }
    let dir = std::env::temp_dir().join(format!("rdfsum_server_esc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("says.nt");
    rdf_io::save_path(&g, &path).unwrap();
    let name = path.to_str().unwrap();
    let (handle, _svc) = start();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(client.load(name).unwrap().is_ok());

    let resp = client
        .query(name, &format!("q(?x, ?y) :- ?x <{says}> ?y"))
        .unwrap();
    assert!(resp.is_ok(), "{}", resp.status);
    let rows: usize = resp.field("rows").unwrap().parse().unwrap();
    assert_eq!(rows, stored.len());
    let body = resp.body_str().unwrap();
    let lines: Vec<&str> = body.split_terminator('\n').collect();
    assert_eq!(lines.len(), rows + 1, "a cell forged a line:\n{body}");
    assert_eq!(lines[0], "x\ty");
    let mut served = BTreeSet::new();
    for line in &lines[1..] {
        let cells: Vec<&str> = line.split('\t').collect();
        assert_eq!(cells.len(), 2, "a cell forged a column: {line:?}");
        assert!(!line.contains('\r'), "{line:?}");
        let (s, _, o) = rdf_io::parse_line(&format!("{} <{says}> {} .", cells[0], cells[1]), 1)
            .unwrap_or_else(|e| panic!("cells do not parse back: {line:?}: {e}"))
            .unwrap();
        served.insert((s, o));
    }
    assert_eq!(served, stored);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quit_and_eof_both_close_cleanly() {
    let (handle, _svc) = start();
    let client = Client::connect(handle.addr()).unwrap();
    let resp = client.quit().unwrap();
    assert_eq!(resp.status, "OK bye");
    // Plain EOF with no request at all.
    let stream = TcpStream::connect(handle.addr()).unwrap();
    drop(stream);
    // The server is still alive afterwards.
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.ping().unwrap().status, "OK pong");
    handle.shutdown();
}

#[test]
fn stats_on_an_empty_service() {
    let (handle, _svc) = start();
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client.stats().unwrap();
    assert!(resp.is_ok());
    assert_eq!(resp.field("graphs"), Some("0"));
    assert_eq!(resp.field("builds"), Some("0"));
    assert_eq!(resp.body_str(), Some(""));
    // EVICT * on an empty service is a no-op success.
    let resp = client.evict(None).unwrap();
    assert_eq!(resp.status, "OK evicted graphs=0 entries=0");
    handle.shutdown();
}
