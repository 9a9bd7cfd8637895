//! # rdfsum-server — the warm-store summary server
//!
//! A long-running TCP front-end over
//! [`rdfsum_core::SummaryService`]: graphs are loaded once into warm
//! [`rdf_store::TripleStore`]s, summaries are cached keyed by the graph's
//! content [`rdf_store::Fingerprint`], and repeated `SUMMARIZE` requests
//! are answered from the cache with bytes identical to the single-shot
//! CLI's output. This is the paper's intended usage pattern — *summarize
//! once, query many times* — turned into a serving subsystem.
//!
//! The crate is std-only and hermetic: [`std::net::TcpListener`], a
//! readiness loop over persistent `poll(2)` slots, O(fds) per wait (via
//! the workspace `polling` shim — the only place FFI lives), and a
//! line-delimited request protocol (see [`protocol`] for the grammar).
//! [`server::spawn`] runs the event-driven engine in-process (the CLI's
//! `rdfsummary serve`, and the integration tests' harness): one event
//! thread multiplexes every connection with buffered partial reads and
//! resumable partial writes, answering μs-scale verbs inline while a
//! bounded executor of `workers` threads absorbs the seconds-scale ones
//! (`LOAD`, cold `SUMMARIZE`, `UPDATE`) — so `workers` caps concurrent *heavy*
//! request execution, not connections, and thousands of idle keep-alive
//! clients hold in O(connections) memory with no busy-spin.
//! [`client::Client`] is the matching scripting client
//! (`rdfsummary client`).
//!
//! ```no_run
//! use rdfsum_core::{SummaryKind, SummaryService};
//! use std::sync::Arc;
//!
//! let service = Arc::new(SummaryService::new(4));
//! let handle = rdfsum_server::spawn("127.0.0.1:0", Arc::clone(&service), 4).unwrap();
//! let mut client = rdfsum_server::Client::connect(handle.addr()).unwrap();
//! client.load("data/graph.nt").unwrap();
//! let r = client.summarize(SummaryKind::Weak, "data/graph.nt").unwrap();
//! assert!(r.is_ok());
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod event;
pub mod protocol;
pub mod server;

pub use client::{Client, Response};
pub use protocol::{parse_kind, parse_request, ProtocolError, Request, MAX_REQUEST_BYTES};
pub use server::{load_graph_file, spawn, ServerHandle, QUERY_ROW_LIMIT};
