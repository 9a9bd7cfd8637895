//! `parse_query`, then `compile`, under generated input.
//!
//! Query text comes from outside the program — the CLI's `query`
//! argument and the served `QUERY` line — and both run it through
//! `parse_query` and then `compile` against the graph it asks. Their
//! contract is that they are total: every string yields a compiled query
//! or a typed error, never a panic. The properties here hold them to that
//! on two kinds of input — strings of arbitrary characters; and valid
//! queries (prefixed names, `a`, lang and typed literals, escapes) cut
//! short and spliced with unterminated `<` or `"`, multi-byte
//! characters, `\r`, tabs and query punctuation.

use proptest::prelude::*;
use proptest::TestRng;
use rdf_model::{vocab, Graph, PrefixMap, Term};
use rdf_query::{compile, parse_query};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Valid queries over [`graph`]'s vocabulary.
const QUERIES: [&str; 9] = [
    "q(?x, ?y) :- ?x <http://example.org/p> ?y",
    "q(?x) :- ?x a <http://example.org/C>, ?x rdfs:label \"chat\"@fr",
    "q() :- ?x <http://example.org/age> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer>",
    "q(?x) :- ?x rdf:type ?c, ?c rdfs:subClassOf <http://example.org/D>",
    "q(?x) :- ?x <http://example.org/p> \"a \\\"quoted\\\" \\\\ value\\t\"",
    "q(?x) :- ?x xsd:nothing \"7\"",
    "q(?x,?y):-?x <http://example.org/p> ?y,?y <http://example.org/q> \"é∀😀\"",
    "q(?x) :- ?x bareword ?y",
    "q(?s, ?o) :- ?s unknown:local ?o, ?o a ?c",
];

/// Text spliced anywhere into a query: unterminated IRIs and literals,
/// stray control and whitespace characters, multi-byte characters, and
/// the query's own punctuation.
const SPLICES: [&str; 22] = [
    "<", "\"", "\r", "\t", "\n", " ", "\u{a0}", "é", "∀", "😀", "?", ",", ":-", ":", "^^", "@",
    "(", ")", "\\", "a", "xsd:", "\\u00",
];

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

/// A [`QUERIES`] entry, one time in three cut short at a random
/// character, then with up to four splices at random characters.
struct MutatedQuery;

impl Strategy for MutatedQuery {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let mut chars: Vec<char> = pick(rng, &QUERIES).chars().collect();
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

/// The small graph queries compile against: a typed resource with a
/// language-tagged label and a typed literal, a data edge, and a schema
/// row.
fn graph() -> Graph {
    let ex = |local: &str| Term::iri(format!("http://example.org/{local}"));
    let mut g = Graph::new();
    for (s, p, o) in [
        (ex("s"), ex("p"), ex("o")),
        (ex("o"), ex("q"), Term::literal("é∀😀")),
        (ex("s"), Term::iri(vocab::RDF_TYPE), ex("C")),
        (
            ex("s"),
            Term::iri(vocab::RDFS_LABEL),
            Term::lang_literal("chat", "fr"),
        ),
        (
            ex("s"),
            ex("age"),
            Term::typed_literal("42", vocab::XSD_INTEGER),
        ),
        (ex("C"), Term::iri(vocab::RDFS_SUBCLASSOF), ex("D")),
    ] {
        g.insert(s, p, o).unwrap();
    }
    g
}

/// Parses and compiles `text` without panicking.
fn check(text: &str, g: &Graph) -> Result<(), proptest::TestCaseError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        parse_query(text, &PrefixMap::with_defaults()).map(|spec| compile(&spec, g).is_ok())
    }));
    prop_assert!(outcome.is_ok(), "panicked on {:?}", text);
    Ok(())
}

/// The unmutated queries are valid: each parses and compiles, so the
/// mutated ones sit one edit or a few away from valid input.
#[test]
fn seed_queries_parse_and_compile() {
    let g = graph();
    for text in QUERIES {
        let spec = parse_query(text, &PrefixMap::with_defaults()).expect(text);
        compile(&spec, &g).expect(text);
    }
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
        check(&text, &graph())?;
    }

    #[test]
    fn mutated_queries_never_panic(text in MutatedQuery) {
        check(&text, &graph())?;
    }
}
