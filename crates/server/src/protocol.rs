//! The line-delimited request/response protocol.
//!
//! ## Grammar
//!
//! A request is one LF-terminated line of UTF-8, at most
//! [`MAX_REQUEST_BYTES`] long (a trailing `\r` is tolerated for
//! telnet-style clients):
//!
//! ```text
//! PING                         liveness probe
//! LOAD <path>                  make <path> resident (N-Triples or .snap)
//! SUMMARIZE <kind> <graph>     kind ∈ {w, s, tw, ts, t}; <graph> is
//!                              the name it was loaded under (its path)
//! STATS                        service counters + resident graph listing
//! QUERY <graph> <query>        evaluate a BGP query on a resident graph
//! UPDATE <graph> <+|-> <triples…>  insert (`+`) or delete (`-`) the
//!                              N-Triples statements packed on the rest
//!                              of the line into/from a resident graph
//! EVICT <graph> | EVICT *      drop one graph, or everything
//! QUIT                         close the connection
//! ```
//!
//! Verbs are case-insensitive; `<path>`/`<graph>` extend to the end of the
//! line, so file names may contain spaces — except for `QUERY` and
//! `UPDATE`, whose `<graph>` operand is the *first* whitespace-delimited
//! token after the verb, because everything after it is the query text
//! (paper notation, e.g. `q(?x) :- ?x <author> ?y`, which freely contains
//! spaces) or the N-Triples payload. A graph whose name embeds whitespace
//! is therefore not addressable by `QUERY` or `UPDATE`; load it under a
//! whitespace-free name if you intend to query or update it.
//!
//! An `UPDATE` payload is one or more `.`-terminated N-Triples statements
//! on the request line (the line cap bounds batch size; larger batches
//! just send more `UPDATE` lines). Insertion is atomic: a malformed
//! payload or a model-invalid triple rejects the whole batch. Deletion
//! skips absent triples rather than failing. The success line is
//! `OK update fp=<new> applied=<n> patched=<p> rebuilt=<r>` — `applied`
//! counts triples that actually changed the graph; `patched + rebuilt`
//! are the warm cached summaries of the old fingerprint carried to the
//! new one. A *patched* summary's quotient map carried the batch, which
//! left the summary as it was, so its body carries over and only its
//! statistics move: an insert that only adds members to existing classes
//! along existing edges, or a delete that only takes nodes whose classes
//! keep their first member and every summary edge a witness (the
//! `explore_update` writer's whole-offer deletes). A *rebuilt* one was
//! built anew from the graph's kept substrate, as a cache miss builds it.
//!
//! The `STATS` success line is `OK stats graphs= cached= hits= misses=
//! builds= queries= pruned= prune_hits= evictions= cache_bytes= updates=
//! patches= patch_fallbacks= persist_hits= persist_writes=
//! substrate_scans= substrate_absorbs= refused_stale= refused_structural=
//! refused_no_map= substrate_retracts= bytes=<n>`, in that order (new
//! counters are only ever appended before `bytes=`); the body lists the
//! resident graphs, one `<fingerprint> <triples> <name>` line each.
//! `patches` and `patch_fallbacks` count the carried summaries patched and
//! rebuilt; each rebuild also counts in `builds` and in one `refused_*`
//! reason — *stale*: the kept substrate could not carry the batch (see
//! below), or the substrate state the batch changed is not the one the
//! summary's map was read from; *structural*: the batch adds a property,
//! joins cliques or classes, makes a new class or summary edge, touches
//! the schema, or deletes a class's last or first member, the one node
//! joining a weak class, or a summary edge's last witness; *no map*: the
//! summary was read from the persist dir (every build keeps its map) — so
//! `builds == patch_fallbacks + misses` always holds. `substrate_scans`
//! counts full scans of a resident graph's rows for its summarization
//! substrate: one by the graph's first build, and one by the first build
//! after an `UPDATE` the kept substrate could not carry — a delete that takes a
//! property's first row, the first row on a side of a node that stays, a
//! type row of a node that stays, the first member of a class set, or the
//! last witness of a link between two properties; an insert that types a
//! resource whose data triples were already linked as untyped.
//! `substrate_absorbs` counts the inserts whose appended rows extended the
//! kept substrate in place, `substrate_retracts` the deletes whose removed
//! rows it gave back in place. A cache miss answered from the persist dir
//! scans nothing.
//!
//! A response is one status line, optionally followed by a length-framed
//! binary body:
//!
//! ```text
//! OK <field>=<value> …\n                 success, no body
//! OK <field>=<value> … bytes=<n>\n<n raw bytes>
//! ERR <category>: <message>\n            never a body
//! ```
//!
//! Exactly the `summary`, `stats` and `query` response tags (the word
//! after `OK`) carry a body (`update` answers status-line-only); its length is the status line's final
//! `bytes=<n>` field. Other `OK` lines may end in free-form fields
//! (`LOAD` echoes the path as `graph=<path>`), so clients must key the
//! framing decision on the tag, never on the last token alone. The
//! `SUMMARIZE` body is the summary's N-Triples document, byte-identical
//! to the single-shot CLI's `--out` file for the same graph and kind.
//!
//! A `QUERY` success line is
//! `OK query rows=<n> pruned=<0|1> cached=<0|1> kind=<k> truncated=<0|1>
//! bytes=<n>`: `pruned=1` means the summary proved the answer empty and
//! graph evaluation was skipped entirely; `cached` says whether the
//! pruning summary was already warm; `kind` is the summary kind consulted
//! (the service prefers one that is already cached); `rows` counts the
//! answer rows in the body. `truncated=1` means an answer row exists
//! beyond the [`crate::QUERY_ROW_LIMIT`] rows sent; an answer of exactly
//! that many rows is complete and says `truncated=0`.
//!
//! The `QUERY` body is UTF-8, every line LF-terminated:
//!
//! ```text
//! <column>\t<column>…\n      header: the head's variable names
//! <cell>\t<cell>…\n          one line per distinct answer row
//! ```
//!
//! or, for a boolean (ASK) query, the single line `true` or `false`. A
//! cell is a term in N-Triples syntax as the N-Triples writer escapes it
//! (`rdf_io::writer::push_term` — the same rendering `SUMMARIZE` bodies
//! use): TAB, BS, LF, CR, FF, `"` and `\` inside a literal arrive as
//! `\t`, `\b`, `\n`, `\r`, `\f`, `\"`, `\\`, so no cell holds a raw TAB or
//! LF. The body therefore has exactly `rows + 1` lines of as many cells
//! as the header, a cell parses back to the stored term with `rdf_io`,
//! and a literal cell pastes back into a `QUERY` as the same literal.
//! Rows are in join order (the plan's pattern order, each pattern's
//! matches in index order): deterministic for a given content and
//! summary kind, not sorted; a truncated answer holds the first
//! `QUERY_ROW_LIMIT` rows of that order.
//! Query errors (unknown graph, malformed query text) answer
//! `ERR query: …` and keep the connection open.
//!
//! ## Error discipline
//!
//! Malformed input — empty lines, oversized requests, unknown verbs,
//! truncated frames (EOF with no trailing newline), non-UTF-8 bytes —
//! yields a clean [`ProtocolError`] and an `ERR protocol: …` response,
//! never a panic. Recoverable parse errors keep the connection open (the
//! line boundary is intact); framing errors ([`ProtocolError::TooLong`],
//! [`ProtocolError::Truncated`]) close it, since resynchronization is
//! impossible.

use rdfsum_core::SummaryKind;
use std::fmt;

/// Hard cap on one request line, excluding the terminator. Long enough
/// for any sane file path, small enough that a rogue client cannot
/// balloon server memory.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// A parsed client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `PING` — liveness probe.
    Ping,
    /// `LOAD <path>` — load an N-Triples or `.snap` file.
    Load {
        /// File to load; also becomes the graph's resident name.
        path: String,
    },
    /// `SUMMARIZE <kind> <graph>` — summary of a resident graph.
    Summarize {
        /// Which summary to build or fetch.
        kind: SummaryKind,
        /// Resident graph name (the path it was loaded from).
        graph: String,
    },
    /// `STATS` — service counters and the resident graph listing.
    Stats,
    /// `QUERY <graph> <query>` — evaluate a BGP query on a resident
    /// graph, with summary-based emptiness pruning.
    Query {
        /// Resident graph name (first whitespace-delimited token — graphs
        /// with whitespace in their names cannot be addressed here).
        graph: String,
        /// The query text, paper notation; extends to the end of the
        /// line and may contain any embedded whitespace.
        query: String,
    },
    /// `UPDATE <graph> <+|-> <triples…>` — insert or delete a batch of
    /// N-Triples statements on a resident graph, re-keying its cached
    /// summaries under the new fingerprint (each extended by the batch
    /// when it leaves the summary as it was, else rebuilt there exactly as
    /// a cache miss would build it).
    Update {
        /// Resident graph name (first whitespace-delimited token, same
        /// addressing restriction as `QUERY`).
        graph: String,
        /// `true` for `+` (insert), `false` for `-` (delete).
        insert: bool,
        /// The raw N-Triples payload: one or more `.`-terminated
        /// statements, extending to the end of the line.
        payload: String,
    },
    /// `EVICT <graph>` / `EVICT *` — drop one graph or all state.
    Evict {
        /// `None` means `*`: evict everything.
        graph: Option<String>,
    },
    /// `QUIT` — polite connection close.
    Quit,
}

/// Why a request line could not be parsed (or framed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The line was empty (or whitespace only).
    Empty,
    /// The line exceeded [`MAX_REQUEST_BYTES`].
    TooLong(usize),
    /// The line was not valid UTF-8.
    NotUtf8,
    /// The connection ended mid-line (no trailing newline).
    Truncated,
    /// The leading verb is not part of the protocol.
    UnknownVerb(String),
    /// A known verb with missing or malformed operands.
    Usage(&'static str),
    /// `SUMMARIZE` named an unknown summary kind.
    BadKind(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Empty => write!(f, "empty request"),
            ProtocolError::TooLong(n) => {
                write!(
                    f,
                    "request of {n} bytes exceeds the {MAX_REQUEST_BYTES} byte limit"
                )
            }
            ProtocolError::NotUtf8 => write!(f, "request is not valid UTF-8"),
            ProtocolError::Truncated => write!(f, "truncated request (connection ended mid-line)"),
            ProtocolError::UnknownVerb(v) => write!(f, "unknown verb `{v}`"),
            ProtocolError::Usage(u) => write!(f, "usage: {u}"),
            ProtocolError::BadKind(k) => {
                write!(f, "unknown summary kind `{k}` (want w, s, tw, ts or t)")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Parses a summary-kind token — the one vocabulary shared by the CLI's
/// `--kind` flag and the protocol's `SUMMARIZE` verb (the CLI imports
/// this function, so the two surfaces cannot drift apart).
pub fn parse_kind(s: &str) -> Option<SummaryKind> {
    match s.to_ascii_lowercase().as_str() {
        "w" | "weak" => Some(SummaryKind::Weak),
        "s" | "strong" => Some(SummaryKind::Strong),
        "tw" | "typed-weak" => Some(SummaryKind::TypedWeak),
        "ts" | "typed-strong" => Some(SummaryKind::TypedStrong),
        "t" | "type" | "type-based" => Some(SummaryKind::TypeBased),
        _ => None,
    }
}

/// Parses one raw request line (terminator already stripped or absent).
///
/// Total: every possible byte string yields `Ok` or a typed error.
pub fn parse_request(raw: &[u8]) -> Result<Request, ProtocolError> {
    if raw.len() > MAX_REQUEST_BYTES {
        return Err(ProtocolError::TooLong(raw.len()));
    }
    let line = std::str::from_utf8(raw).map_err(|_| ProtocolError::NotUtf8)?;
    let line = line.trim_end_matches(['\r', '\n']).trim();
    if line.is_empty() {
        return Err(ProtocolError::Empty);
    }
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    match verb.to_ascii_uppercase().as_str() {
        "PING" => Ok(Request::Ping),
        "QUIT" | "BYE" => Ok(Request::Quit),
        "STATS" => Ok(Request::Stats),
        "LOAD" => {
            if rest.is_empty() {
                Err(ProtocolError::Usage("LOAD <path>"))
            } else {
                Ok(Request::Load { path: rest.into() })
            }
        }
        "SUMMARIZE" => {
            let (kind_tok, graph) = rest
                .split_once(char::is_whitespace)
                .map(|(k, g)| (k, g.trim()))
                .ok_or(ProtocolError::Usage("SUMMARIZE <kind> <graph>"))?;
            if graph.is_empty() {
                return Err(ProtocolError::Usage("SUMMARIZE <kind> <graph>"));
            }
            let kind =
                parse_kind(kind_tok).ok_or_else(|| ProtocolError::BadKind(kind_tok.into()))?;
            Ok(Request::Summarize {
                kind,
                graph: graph.into(),
            })
        }
        "QUERY" => {
            let (graph, query) = rest
                .split_once(char::is_whitespace)
                .map(|(g, q)| (g, q.trim()))
                .ok_or(ProtocolError::Usage("QUERY <graph> <query>"))?;
            if query.is_empty() {
                return Err(ProtocolError::Usage("QUERY <graph> <query>"));
            }
            Ok(Request::Query {
                graph: graph.into(),
                query: query.into(),
            })
        }
        "UPDATE" => {
            const USAGE: &str = "UPDATE <graph> <+|-> <triples…>";
            let (graph, rest) = rest
                .split_once(char::is_whitespace)
                .map(|(g, r)| (g, r.trim_start()))
                .ok_or(ProtocolError::Usage(USAGE))?;
            let (op, payload) = rest
                .split_once(char::is_whitespace)
                .map(|(o, p)| (o, p.trim()))
                .ok_or(ProtocolError::Usage(USAGE))?;
            let insert = match op {
                "+" => true,
                "-" => false,
                _ => return Err(ProtocolError::Usage(USAGE)),
            };
            if payload.is_empty() {
                return Err(ProtocolError::Usage(USAGE));
            }
            Ok(Request::Update {
                graph: graph.into(),
                insert,
                payload: payload.into(),
            })
        }
        "EVICT" => match rest {
            "" => Err(ProtocolError::Usage("EVICT <graph> | EVICT *")),
            "*" => Ok(Request::Evict { graph: None }),
            name => Ok(Request::Evict {
                graph: Some(name.into()),
            }),
        },
        _ => Err(ProtocolError::UnknownVerb(verb.into())),
    }
}

/// True when this framing-level error makes the byte stream unusable, so
/// the server must close the connection after responding.
pub fn is_fatal(err: &ProtocolError) -> bool {
    matches!(err, ProtocolError::TooLong(_) | ProtocolError::Truncated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn happy_paths() {
        assert_eq!(parse_request(b"PING"), Ok(Request::Ping));
        assert_eq!(parse_request(b"ping\r"), Ok(Request::Ping));
        assert_eq!(parse_request(b"QUIT"), Ok(Request::Quit));
        assert_eq!(parse_request(b"STATS"), Ok(Request::Stats));
        assert_eq!(
            parse_request(b"LOAD /data/my graph.nt"),
            Ok(Request::Load {
                path: "/data/my graph.nt".into()
            })
        );
        assert_eq!(
            parse_request(b"SUMMARIZE tw /data/g.nt"),
            Ok(Request::Summarize {
                kind: SummaryKind::TypedWeak,
                graph: "/data/g.nt".into()
            })
        );
        assert_eq!(
            parse_request(b"summarize TYPED-STRONG g"),
            Ok(Request::Summarize {
                kind: SummaryKind::TypedStrong,
                graph: "g".into()
            })
        );
        assert_eq!(
            parse_request(b"QUERY g.nt q(?x) :- ?x <author> ?y"),
            Ok(Request::Query {
                graph: "g.nt".into(),
                query: "q(?x) :- ?x <author> ?y".into()
            })
        );
        // The query text keeps its interior whitespace verbatim; only the
        // leading/trailing run is trimmed.
        assert_eq!(
            parse_request(b"query /data/g.nt   q() :- ?x  a  <Book>  "),
            Ok(Request::Query {
                graph: "/data/g.nt".into(),
                query: "q() :- ?x  a  <Book>".into()
            })
        );
        assert_eq!(
            parse_request(b"UPDATE g.nt + <s:a> <p:b> <o:c> ."),
            Ok(Request::Update {
                graph: "g.nt".into(),
                insert: true,
                payload: "<s:a> <p:b> <o:c> .".into()
            })
        );
        // Deletes, lowercase verb, and multiple packed statements.
        assert_eq!(
            parse_request(b"update g - <s:a> <p:b> <o:c> . <s:d> <p:b> <o:c> ."),
            Ok(Request::Update {
                graph: "g".into(),
                insert: false,
                payload: "<s:a> <p:b> <o:c> . <s:d> <p:b> <o:c> .".into()
            })
        );
        assert_eq!(
            parse_request(b"EVICT g.nt"),
            Ok(Request::Evict {
                graph: Some("g.nt".into())
            })
        );
    }

    #[test]
    fn kind_tokens_roundtrip() {
        for kind in SummaryKind::EVERY {
            assert_eq!(parse_kind(kind.token()), Some(kind));
        }
        assert_eq!(parse_kind("x"), None);
    }

    // ----- robustness: every malformed shape is a typed error, never a
    // panic (mirrors the root `robustness.rs` error-path style). -----

    #[test]
    fn empty_and_blank_lines() {
        assert_eq!(parse_request(b""), Err(ProtocolError::Empty));
        assert_eq!(parse_request(b"   "), Err(ProtocolError::Empty));
        assert_eq!(parse_request(b"\r"), Err(ProtocolError::Empty));
        assert_eq!(parse_request(b"\t\t"), Err(ProtocolError::Empty));
    }

    #[test]
    fn oversized_requests() {
        let huge = vec![b'A'; MAX_REQUEST_BYTES + 1];
        assert_eq!(
            parse_request(&huge),
            Err(ProtocolError::TooLong(MAX_REQUEST_BYTES + 1))
        );
        // Exactly at the cap still parses (as an unknown verb here).
        let at_cap = vec![b'A'; MAX_REQUEST_BYTES];
        assert!(matches!(
            parse_request(&at_cap),
            Err(ProtocolError::UnknownVerb(_))
        ));
    }

    #[test]
    fn unknown_verbs() {
        for raw in [&b"FROBNICATE x"[..], b"LOADX /g.nt", b"SUM w g"] {
            assert!(matches!(
                parse_request(raw),
                Err(ProtocolError::UnknownVerb(_))
            ));
        }
    }

    #[test]
    fn missing_operands() {
        assert_eq!(
            parse_request(b"LOAD"),
            Err(ProtocolError::Usage("LOAD <path>"))
        );
        assert_eq!(
            parse_request(b"LOAD   "),
            Err(ProtocolError::Usage("LOAD <path>"))
        );
        assert_eq!(
            parse_request(b"SUMMARIZE"),
            Err(ProtocolError::Usage("SUMMARIZE <kind> <graph>"))
        );
        assert_eq!(
            parse_request(b"SUMMARIZE w"),
            Err(ProtocolError::Usage("SUMMARIZE <kind> <graph>"))
        );
        assert_eq!(
            parse_request(b"SUMMARIZE w   "),
            Err(ProtocolError::Usage("SUMMARIZE <kind> <graph>"))
        );
        assert_eq!(
            parse_request(b"EVICT"),
            Err(ProtocolError::Usage("EVICT <graph> | EVICT *"))
        );
        assert_eq!(
            parse_request(b"QUERY"),
            Err(ProtocolError::Usage("QUERY <graph> <query>"))
        );
        assert_eq!(
            parse_request(b"QUERY g.nt"),
            Err(ProtocolError::Usage("QUERY <graph> <query>"))
        );
        assert_eq!(
            parse_request(b"QUERY g.nt    "),
            Err(ProtocolError::Usage("QUERY <graph> <query>"))
        );
        const UPDATE_USAGE: &str = "UPDATE <graph> <+|-> <triples…>";
        for raw in [
            &b"UPDATE"[..],
            b"UPDATE g.nt",
            b"UPDATE g.nt +",
            b"UPDATE g.nt +   ",
            b"UPDATE g.nt * <s:a> <p:b> <o:c> .",
        ] {
            assert_eq!(
                parse_request(raw),
                Err(ProtocolError::Usage(UPDATE_USAGE)),
                "raw: {}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn bad_kinds() {
        assert_eq!(
            parse_request(b"SUMMARIZE q g.nt"),
            Err(ProtocolError::BadKind("q".into()))
        );
        assert_eq!(
            parse_request(b"SUMMARIZE weakest g.nt"),
            Err(ProtocolError::BadKind("weakest".into()))
        );
    }

    #[test]
    fn non_utf8_bytes() {
        assert_eq!(parse_request(b"LOAD \xff\xfe"), Err(ProtocolError::NotUtf8));
        assert_eq!(parse_request(&[0x80, 0x80]), Err(ProtocolError::NotUtf8));
        // Non-UTF-8 *and* oversized: the size check wins (cheapest first).
        let mut huge = vec![0xffu8; MAX_REQUEST_BYTES + 7];
        huge[0] = b'P';
        assert!(matches!(
            parse_request(&huge),
            Err(ProtocolError::TooLong(_))
        ));
    }

    #[test]
    fn fatality_classification() {
        assert!(is_fatal(&ProtocolError::TooLong(1 << 20)));
        assert!(is_fatal(&ProtocolError::Truncated));
        for recoverable in [
            ProtocolError::Empty,
            ProtocolError::NotUtf8,
            ProtocolError::UnknownVerb("X".into()),
            ProtocolError::Usage("LOAD <path>"),
            ProtocolError::BadKind("q".into()),
        ] {
            assert!(!is_fatal(&recoverable), "{recoverable:?}");
        }
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(ProtocolError::TooLong(99999).to_string().contains("99999"));
        assert!(ProtocolError::UnknownVerb("ZAP".into())
            .to_string()
            .contains("ZAP"));
        assert!(ProtocolError::BadKind("q".into())
            .to_string()
            .contains("`q`"));
        assert!(ProtocolError::Usage("LOAD <path>")
            .to_string()
            .contains("LOAD <path>"));
    }
}
