//! The N-Triples parser under generated input.
//!
//! `LOAD` and every `<graph>` argument of the CLI read N-Triples files from
//! outside the program. The parser's contract is that it is total: every
//! document yields a graph or a typed [`ParseError`] that names one of its
//! lines, never a panic; the file loader agrees with the in-memory parser
//! on every document; and every graph accepted round-trips through the
//! writer. The properties here hold it to that on two kinds of input —
//! strings of arbitrary characters; and documents of valid lines (escapes,
//! lang tags, datatypes, blank nodes, comments) cut short and spliced with
//! unterminated terms, stray escapes, CR and LF, and multi-byte characters,
//! joined by LF or CRLF.

use proptest::prelude::*;
use proptest::TestRng;
use rdf_io::{load_path, parse_graph, write_graph, LoadError, ParseError};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Valid lines: IRIs with `\u` escapes, blank nodes, plain, escaped,
/// language-tagged and typed literals, schema and type rows, comments and
/// blank lines.
const LINES: [&str; 12] = [
    "<http://example.org/s> <http://example.org/p> <http://example.org/o> .",
    "_:b0 <http://example.org/p> _:b1.x-y .",
    "<http://example.org/s> <http://www.w3.org/2000/01/rdf-schema#label> \"chat\"@fr-CA .",
    "<http://example.org/s> <http://example.org/age> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .",
    "<http://example.org/s> <http://example.org/note> \"tab\\there \\\"q\\\" back\\\\slash\\r\\n\\b\\f\" .",
    "<http://example.org/\\u00E9t\\U0001F600> <http://example.org/p> \"caf\\u00e9 \\U0001F600\" .",
    "<http://example.org/s> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/C> .",
    "<http://example.org/C> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://example.org/D> .",
    "<http://example.org/é> <http://example.org/p> \"é∀😀\" . # trailing comment",
    "# a comment line",
    "",
    "  \t<http://example.org/s>\t<http://example.org/p>  _:é日 .  ",
];

/// Text spliced anywhere into a document: unterminated IRIs and literals,
/// stray and half escapes, line breaks, blank-node and tag punctuation,
/// and multi-byte characters.
const SPLICES: [&str; 24] = [
    "<",
    ">",
    "\"",
    "\\",
    "\\u00",
    "\\U0010FFFF",
    "\\uD800",
    "\r",
    "\n",
    "\r\n",
    "\t",
    " ",
    ".",
    " .",
    "_:",
    "@",
    "@en-",
    "^^",
    "#",
    "é",
    "∀",
    "😀",
    "\u{0}",
    "\u{a0}",
];

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

/// One to four [`LINES`] joined by LF or CRLF, one time in three cut short
/// at a random character, then with up to four splices at random
/// characters.
struct MutatedDocument;

impl Strategy for MutatedDocument {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let eol = pick(rng, &["\n", "\r\n"]);
        let mut text = String::new();
        for _ in 0..1 + rng.below(4) {
            text.push_str(pick(rng, &LINES));
            text.push_str(eol);
        }
        let mut chars: Vec<char> = text.chars().collect();
        if rng.below(3) == 0 {
            chars.truncate(rng.below(chars.len() as u64 + 1) as usize);
        }
        for _ in 0..rng.below(5) {
            let at = rng.below(chars.len() as u64 + 1) as usize;
            let splice = pick(rng, &SPLICES);
            chars.splice(at..at, splice.chars());
        }
        chars.into_iter().collect()
    }
}

/// Parses `text` without panicking, as a string and as a file: the two
/// agree, an error names a line of the document, and an accepted graph is
/// written as text that parses back to a graph written the same way.
fn check(text: &str) -> Result<(), proptest::TestCaseError> {
    let parsed = catch_unwind(AssertUnwindSafe(|| parse_graph(text)));
    prop_assert!(parsed.is_ok(), "parse_graph panicked on {:?}", text);
    let file = std::env::temp_dir().join(format!(
        "rdf-io-never-panics-{}-{:?}.nt",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&file, text).unwrap();
    let loaded = catch_unwind(AssertUnwindSafe(|| load_path(&file)));
    std::fs::remove_file(&file).unwrap();
    prop_assert!(loaded.is_ok(), "load_path panicked on {:?}", text);
    match (parsed.unwrap(), loaded.unwrap()) {
        (Err(e), Err(LoadError::Parse(le))) => {
            prop_assert_eq!(&e, &le);
            check_error(text, &e)?;
        }
        (Ok(g), Ok(lg)) => {
            let written = write_graph(&g);
            prop_assert_eq!(&write_graph(&lg), &written);
            let back = parse_graph(&written);
            prop_assert!(back.is_ok(), "{:?} wrote {:?}: {:?}", text, written, back);
            let back = back.unwrap();
            prop_assert_eq!(back.len(), g.len());
            prop_assert_eq!(&write_graph(&back), &written);
        }
        (parsed, loaded) => prop_assert!(
            false,
            "{:?}: parse_graph {:?}, load_path {:?}",
            text,
            parsed.map(|g| g.len()),
            loaded.map(|g| g.len())
        ),
    }
    Ok(())
}

/// A parse error points at a line of `text`, and at a character of that
/// line or one past its end.
fn check_error(text: &str, e: &ParseError) -> Result<(), proptest::TestCaseError> {
    let line = text.lines().nth(e.line.wrapping_sub(1));
    prop_assert!(line.is_some(), "{:?}: {:?}", text, e);
    let width = line.unwrap().chars().count();
    prop_assert!((1..=width + 1).contains(&e.column), "{:?}: {:?}", text, e);
    Ok(())
}

/// The unmutated lines are valid, one by one and as one CRLF document, so
/// the mutated documents sit one edit or a few away from valid input.
#[test]
fn seed_lines_parse() {
    for line in LINES {
        parse_graph(line).expect(line);
    }
    let g = parse_graph(&LINES.join("\r\n")).unwrap();
    assert_eq!(g.len(), 10);
    check(&LINES.join("\r\n")).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Three characters in four are ASCII, where the grammar lives; the
    /// rest come from all of Unicode.
    #[test]
    fn arbitrary_strings_never_panic(
        codes in proptest::collection::vec((0u8..4, 0u32..0x11_0000), 0..128),
    ) {
        let text: String = codes
            .into_iter()
            .filter_map(|(ascii, code)| char::from_u32(if ascii > 0 { code % 128 } else { code }))
            .collect();
        check(&text)?;
    }

    #[test]
    fn mutated_documents_never_panic(text in MutatedDocument) {
        check(&text)?;
    }
}
