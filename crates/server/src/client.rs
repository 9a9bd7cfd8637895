//! A thin synchronous client for the summary-server protocol, used by
//! `rdfsummary client` and the test harness.

use rdfsum_core::SummaryKind;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One parsed server response: the status line plus the optional
/// length-framed body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// The full status line, terminator stripped (`OK …` or `ERR …`).
    pub status: String,
    /// The body, present when the status line ends with `bytes=<n>`.
    pub body: Option<Vec<u8>>,
}

impl Response {
    /// Did the request succeed?
    pub fn is_ok(&self) -> bool {
        self.status.starts_with("OK")
    }

    /// The value of a `key=value` field on the status line, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.status
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
    }

    /// The body as UTF-8 (summary payloads and `STATS` listings are).
    pub fn body_str(&self) -> Option<&str> {
        self.body
            .as_deref()
            .and_then(|b| std::str::from_utf8(b).ok())
    }
}

/// A connected protocol client. One request/response at a time (the
/// protocol is strictly sequential per connection).
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Strictly sequential request/response: disable Nagle so the
        // request line is not held back waiting for the previous ACK.
        let _ = stream.set_nodelay(true);
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one raw request line (no trailing newline needed) and reads
    /// the response, body included.
    pub fn request(&mut self, line: &str) -> io::Result<Response> {
        {
            let mut stream = self.reader.get_ref();
            stream.write_all(line.as_bytes())?;
            stream.write_all(b"\n")?;
            stream.flush()?;
        }
        self.read_response()
    }

    /// Reads one response off the wire (status line + framed body).
    ///
    /// Only the `summary`, `stats` and `query` response tags carry a body
    /// (see the protocol docs) — the framing decision must NOT key on the last
    /// token alone, because bodyless responses like `LOAD`'s end in the
    /// free-form `graph=<path>` field, and a path such as
    /// `/tmp/x bytes=7` would otherwise fake a 7-byte body and hang the
    /// read.
    fn read_response(&mut self) -> io::Result<Response> {
        let mut status = String::new();
        if self.reader.read_line(&mut status)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ));
        }
        let status = status.trim_end_matches(['\r', '\n']).to_string();
        let has_body = matches!(
            status.split_whitespace().take(2).collect::<Vec<_>>()[..],
            ["OK", "summary"] | ["OK", "stats"] | ["OK", "query"]
        );
        let body_len = has_body
            .then(|| {
                status
                    .rsplit(' ')
                    .next()
                    .and_then(|tok| tok.strip_prefix("bytes="))
                    .and_then(|n| n.parse::<usize>().ok())
            })
            .flatten();
        let body = match body_len {
            Some(n) => {
                let mut buf = vec![0u8; n];
                self.reader.read_exact(&mut buf)?;
                Some(buf)
            }
            None => None,
        };
        Ok(Response { status, body })
    }

    /// `PING`.
    pub fn ping(&mut self) -> io::Result<Response> {
        self.request("PING")
    }

    /// `LOAD <path>`.
    pub fn load(&mut self, path: &str) -> io::Result<Response> {
        self.request(&format!("LOAD {path}"))
    }

    /// `SUMMARIZE <kind> <graph>`.
    pub fn summarize(&mut self, kind: SummaryKind, graph: &str) -> io::Result<Response> {
        self.request(&format!("SUMMARIZE {} {graph}", kind.token()))
    }

    /// `STATS`.
    pub fn stats(&mut self) -> io::Result<Response> {
        self.request("STATS")
    }

    /// `QUERY <graph> <query>` — evaluate a BGP query (paper notation)
    /// on a resident graph, with summary-based emptiness pruning.
    pub fn query(&mut self, graph: &str, query: &str) -> io::Result<Response> {
        self.request(&format!("QUERY {graph} {query}"))
    }

    /// `UPDATE <graph> <+|-> <triples…>` — insert (`insert == true`) or
    /// delete a batch of `.`-terminated N-Triples statements on a
    /// resident graph. The response is status-line-only.
    pub fn update(&mut self, graph: &str, insert: bool, payload: &str) -> io::Result<Response> {
        let op = if insert { "+" } else { "-" };
        self.request(&format!("UPDATE {graph} {op} {payload}"))
    }

    /// `EVICT <graph>` (or `EVICT *` when `graph` is `None`).
    pub fn evict(&mut self, graph: Option<&str>) -> io::Result<Response> {
        self.request(&format!("EVICT {}", graph.unwrap_or("*")))
    }

    /// `QUIT`, consuming the client.
    pub fn quit(mut self) -> io::Result<Response> {
        self.request("QUIT")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_extraction() {
        let r = Response {
            status: "OK summary kind=W fp=00ff cached=1 nodes=9 edges=12 bytes=34".into(),
            body: Some(vec![0; 34]),
        };
        assert!(r.is_ok());
        assert_eq!(r.field("kind"), Some("W"));
        assert_eq!(r.field("cached"), Some("1"));
        assert_eq!(r.field("bytes"), Some("34"));
        assert_eq!(r.field("nope"), None);
        // Prefix collisions resolve to the exact key.
        assert_eq!(r.field("edge"), None);
        let err = Response {
            status: "ERR protocol: empty request".into(),
            body: None,
        };
        assert!(!err.is_ok());
    }
}
