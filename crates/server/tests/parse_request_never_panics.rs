//! `protocol::parse_request` under generated input.
//!
//! The event loop parses every request line on its one thread, outside
//! the `catch_unwind` that guards request dispatch, so a panic in the
//! parser would drop every connection at once. Its documented contract is
//! that it is total: every byte string yields `Ok` or a typed error. The
//! properties here hold it to that on three kinds of input — arbitrary
//! bytes; each verb in mixed case with operand tokens, stray `\r`, tabs,
//! multi-byte and invalid UTF-8 spliced in; and lines of exactly
//! `MAX_REQUEST_BYTES` and one byte more — and check that `Ok` comes back
//! only for a line whose upper-cased first token is a known verb, as the
//! request that verb names.

use proptest::prelude::*;
use proptest::TestRng;
use rdfsum_server::{parse_request, ProtocolError, Request, MAX_REQUEST_BYTES};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every verb the protocol knows.
const VERBS: [&str; 9] = [
    "PING",
    "QUIT",
    "BYE",
    "STATS",
    "LOAD",
    "SUMMARIZE",
    "QUERY",
    "UPDATE",
    "EVICT",
];

/// Tokens one edit away from a verb: each must come back as an error.
const NEAR_VERBS: [&str; 6] = ["PIN", "PINGS", "SUMMARISE", "QUERYX", "EVICTED", "UP"];

/// Operand tokens: kinds (known and not — `fb`, the bisimulation, is no
/// served kind), graph names, `UPDATE` ops, query and payload fragments,
/// and the `EVICT` wildcard.
const OPERANDS: [&str; 16] = [
    "w",
    "TW",
    "typed-strong",
    "fb",
    "banana",
    "*",
    "+",
    "-",
    "/data/g.nt",
    "g.snap",
    "q(?x,?y)",
    ":-",
    "?x <http://example.org/p> ?y",
    "<http://example.org/s> <http://example.org/p> \"lit\"@en .",
    "_:b0",
    "PING",
];

/// Bytes spliced anywhere into a line, mid-character included: stray
/// control and whitespace characters, multi-byte UTF-8, and sequences
/// that are not UTF-8 at all.
const SPLICES: [&[u8]; 14] = [
    b"\r",
    b"\t",
    b"\n",
    b" ",
    "\u{a0}".as_bytes(),
    "\u{2003}".as_bytes(),
    "é".as_bytes(),
    "∀".as_bytes(),
    "😀".as_bytes(),
    b"\xff",
    b"\xc3",
    b"\x80",
    b"\xed\xa0\x80",
    b"\xf0\x9f\x98",
];

fn pick<'a, T: ?Sized>(rng: &mut TestRng, from: &[&'a T]) -> &'a T {
    from[rng.below(from.len() as u64) as usize]
}

/// A request line from the protocol's vocabulary: a verb (or, one time in
/// four, a near miss) in random case, then operand tokens joined by
/// assorted whitespace, then splices.
struct VerbLine;

impl Strategy for VerbLine {
    type Value = Vec<u8>;

    fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
        let mut line = Vec::new();
        if rng.below(4) == 0 {
            line.extend_from_slice(pick(rng, &[" ", "\t", "\r", "\u{a0}"]).as_bytes());
        }
        let verb = if rng.below(4) == 0 {
            pick(rng, &NEAR_VERBS)
        } else {
            pick(rng, &VERBS)
        };
        for c in verb.bytes() {
            let lower = rng.below(2) == 0;
            line.push(if lower { c.to_ascii_lowercase() } else { c });
        }
        for _ in 0..rng.below(5) {
            line.extend_from_slice(pick(rng, &[" ", "\t", "  ", " \r "]).as_bytes());
            line.extend_from_slice(pick(rng, &OPERANDS).as_bytes());
        }
        for _ in 0..rng.below(4) {
            let at = rng.below(line.len() as u64 + 1) as usize;
            let splice = pick(rng, &SPLICES);
            line.splice(at..at, splice.iter().copied());
        }
        if rng.below(3) == 0 {
            line.extend_from_slice(pick(rng, &["\r", "\r\n", "\n", " "]).as_bytes());
        }
        line
    }
}

/// A [`VerbLine`] padded, or cut, to exactly `len` bytes.
struct CapLine {
    len: usize,
}

impl Strategy for CapLine {
    type Value = Vec<u8>;

    fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
        let mut line = VerbLine.generate(rng);
        line.push(b' ');
        let fill = pick(rng, &["x", "é", " ", "/a b"]).as_bytes();
        while line.len() < self.len {
            line.extend_from_slice(fill);
        }
        line.truncate(self.len);
        line
    }
}

/// The verbs that may name `req`.
fn verbs_of(req: &Request) -> &'static [&'static str] {
    match req {
        Request::Ping => &["PING"],
        Request::Quit => &["QUIT", "BYE"],
        Request::Stats => &["STATS"],
        Request::Load { .. } => &["LOAD"],
        Request::Summarize { .. } => &["SUMMARIZE"],
        Request::Query { .. } => &["QUERY"],
        Request::Update { .. } => &["UPDATE"],
        Request::Evict { .. } => &["EVICT"],
    }
}

/// The first 80 bytes of `raw`, for a failure message.
fn shown(raw: &[u8]) -> String {
    String::from_utf8_lossy(&raw[..raw.len().min(80)]).into_owned()
}

/// Parses `raw` without panicking; an `Ok` must be the request its line's
/// upper-cased first token names, and an over-long line must be refused
/// as such.
fn check(raw: &[u8]) -> Result<(), proptest::TestCaseError> {
    let parsed = catch_unwind(AssertUnwindSafe(|| parse_request(raw)));
    prop_assert!(parsed.is_ok(), "parse_request panicked on {:?}", shown(raw));
    let parsed = parsed.unwrap();
    if raw.len() > MAX_REQUEST_BYTES {
        prop_assert_eq!(parsed, Err(ProtocolError::TooLong(raw.len())));
        return Ok(());
    }
    if let Ok(req) = parsed {
        let verb = std::str::from_utf8(raw)
            .ok()
            .and_then(|line| line.split_whitespace().next())
            .map(str::to_ascii_uppercase);
        prop_assert!(
            verb.as_deref().is_some_and(|v| verbs_of(&req).contains(&v)),
            "{:?} parsed as {:?}",
            shown(raw),
            req
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u16..256, 0..256)) {
        let raw: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        check(&raw)?;
    }

    #[test]
    fn verb_lines_never_panic(raw in VerbLine) {
        check(&raw)?;
    }

    #[test]
    fn lines_at_the_cap_never_panic(
        at_cap in CapLine { len: MAX_REQUEST_BYTES },
        over_cap in CapLine { len: MAX_REQUEST_BYTES + 1 },
    ) {
        check(&at_cap)?;
        check(&over_cap)?;
    }
}
