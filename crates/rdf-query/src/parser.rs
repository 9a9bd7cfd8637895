//! A text syntax for BGP queries, modeled on the paper's notation:
//!
//! ```text
//! q(?x1, ?x3) :- ?x1 <hasAuthor> ?x2, ?x2 <hasName> ?x3,
//!                ?x1 <hasTitle> "Le Port des Brumes"
//! ```
//!
//! * variables are written `?name`;
//! * IRIs are written `<iri>`, or `prefix:local` with a registered prefix,
//!   or as a bare word (taken as the IRI verbatim — convenient in tests);
//! * `a` in the property position abbreviates `rdf:type` (SPARQL style,
//!   standing in for the paper's τ);
//! * literals use N-Triples syntax (`"v"`, `"v"@en`, `"v"^^<dt>`), with
//!   the escapes N-Triples output writes (`\t \b \n \r \f \" \\`), so a
//!   literal cell of a served answer row pastes back into a query;
//! * triple patterns are separated by commas; the head lists distinguished
//!   variables (empty head = boolean query).

use crate::bgp::{QuerySpec, SpecTerm, TriplePatternSpec};
use rdf_model::{vocab, PrefixMap, Term};
use std::fmt;

/// A query-syntax error with character position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryParseError {
    /// 0-based character offset in the input.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "query syntax error at offset {}: {}",
            self.at, self.message
        )
    }
}

impl std::error::Error for QueryParseError {}

struct P<'a> {
    chars: Vec<char>,
    pos: usize,
    prefixes: &'a PrefixMap,
}

impl<'a> P<'a> {
    fn err(&self, message: impl Into<String>) -> QueryParseError {
        QueryParseError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), QueryParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{c}`")))
        }
    }

    fn word(&mut self) -> String {
        let mut w = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || "_-:./#".contains(c) {
                w.push(c);
                self.pos += 1;
            } else {
                break;
            }
        }
        w
    }

    fn variable(&mut self) -> Result<String, QueryParseError> {
        self.expect('?')?;
        let name = self.word();
        if name.is_empty() {
            Err(self.err("expected a variable name after `?`"))
        } else {
            Ok(name)
        }
    }

    fn iri_ref(&mut self) -> Result<String, QueryParseError> {
        self.expect('<')?;
        let mut iri = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated IRI reference")),
                Some('>') => {
                    self.pos += 1;
                    return Ok(iri);
                }
                Some(c) => {
                    iri.push(c);
                    self.pos += 1;
                }
            }
        }
    }

    fn literal(&mut self) -> Result<Term, QueryParseError> {
        self.expect('"')?;
        let mut lex = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated literal")),
                Some('\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some('n') => lex.push('\n'),
                        Some('r') => lex.push('\r'),
                        Some('t') => lex.push('\t'),
                        Some('b') => lex.push('\u{8}'),
                        Some('f') => lex.push('\u{c}'),
                        Some('"') => lex.push('"'),
                        Some('\\') => lex.push('\\'),
                        Some(c) => return Err(self.err(format!("bad escape `\\{c}`"))),
                        None => return Err(self.err("unterminated escape")),
                    }
                    self.pos += 1;
                }
                Some('"') => {
                    self.pos += 1;
                    break;
                }
                Some(c) => {
                    lex.push(c);
                    self.pos += 1;
                }
            }
        }
        if self.eat('@') {
            let tag = self.word();
            if tag.is_empty() {
                return Err(self.err("expected a language tag after `@`"));
            }
            Ok(Term::lang_literal(lex, tag))
        } else if self.peek() == Some('^') {
            self.pos += 1;
            self.expect('^')?;
            let dt = self.iri_ref()?;
            Ok(Term::typed_literal(lex, dt))
        } else {
            Ok(Term::literal(lex))
        }
    }

    /// A term in subject/object position.
    fn term(&mut self) -> Result<SpecTerm, QueryParseError> {
        self.skip_ws();
        match self.peek() {
            Some('?') => Ok(SpecTerm::Var(self.variable()?)),
            Some('<') => Ok(SpecTerm::Const(Term::Iri(self.iri_ref()?))),
            Some('"') => Ok(SpecTerm::Const(self.literal()?)),
            Some(c) if c.is_alphanumeric() || c == '_' => {
                let w = self.word();
                Ok(SpecTerm::Const(Term::Iri(self.resolve(&w))))
            }
            _ => Err(self.err("expected a term")),
        }
    }

    /// A term in property position (`a` = rdf:type).
    fn property_term(&mut self) -> Result<SpecTerm, QueryParseError> {
        self.skip_ws();
        match self.peek() {
            Some('?') => Ok(SpecTerm::Var(self.variable()?)),
            Some('<') => Ok(SpecTerm::Const(Term::Iri(self.iri_ref()?))),
            Some(c) if c.is_alphanumeric() || c == '_' => {
                let w = self.word();
                if w == "a" {
                    Ok(SpecTerm::iri(vocab::RDF_TYPE))
                } else {
                    Ok(SpecTerm::Const(Term::Iri(self.resolve(&w))))
                }
            }
            _ => Err(self.err("expected a property")),
        }
    }

    fn resolve(&self, word: &str) -> String {
        self.prefixes
            .expand(word)
            .unwrap_or_else(|| word.to_string())
    }
}

/// Parses the paper-style query notation into a [`QuerySpec`].
///
/// # Examples
///
/// ```
/// use rdf_model::PrefixMap;
/// use rdf_query::parse_query;
///
/// let q = parse_query(
///     "q(?x) :- ?x a <http://x/Book>, ?x <http://x/author> ?y",
///     &PrefixMap::with_defaults(),
/// ).unwrap();
/// assert_eq!(q.head, vec!["x"]);
/// assert_eq!(q.body.len(), 2);
/// ```
pub fn parse_query(input: &str, prefixes: &PrefixMap) -> Result<QuerySpec, QueryParseError> {
    let mut p = P {
        chars: input.chars().collect(),
        pos: 0,
        prefixes,
    };
    p.skip_ws();
    // Head: name '(' vars ')' ':-'
    let _name = p.word(); // query name, e.g. "q" (ignored)
    p.skip_ws();
    p.expect('(')?;
    let mut head = Vec::new();
    p.skip_ws();
    if !p.eat(')') {
        loop {
            p.skip_ws();
            head.push(p.variable()?);
            p.skip_ws();
            if p.eat(')') {
                break;
            }
            p.expect(',')?;
        }
    }
    p.skip_ws();
    p.expect(':')?;
    p.expect('-')?;
    // Body: comma-separated triple patterns.
    let mut body = Vec::new();
    loop {
        let s = p.term()?;
        let prop = p.property_term()?;
        let o = p.term()?;
        body.push(TriplePatternSpec { s, p: prop, o });
        p.skip_ws();
        if !p.eat(',') {
            break;
        }
    }
    p.skip_ws();
    if p.peek().is_some() {
        return Err(p.err("unexpected trailing content"));
    }
    Ok(QuerySpec { head, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse(s: &str) -> QuerySpec {
        parse_query(s, &PrefixMap::with_defaults()).unwrap()
    }

    #[test]
    fn parses_paper_query() {
        let q = parse(
            r#"q(?x3) :- ?x1 <hasAuthor> ?x2, ?x2 <hasName> ?x3, ?x1 <hasTitle> "Le Port des Brumes""#,
        );
        assert_eq!(q.head, vec!["x3"]);
        assert_eq!(q.body.len(), 3);
        assert_eq!(
            q.body[2].o,
            SpecTerm::Const(Term::literal("Le Port des Brumes"))
        );
    }

    #[test]
    fn a_keyword_is_rdf_type() {
        let q = parse("q(?x) :- ?x a <Book>");
        assert_eq!(q.body[0].p, SpecTerm::iri(vocab::RDF_TYPE));
    }

    #[test]
    fn prefixed_names_expand() {
        let q = parse("q(?x) :- ?x rdf:type <Book>");
        assert_eq!(q.body[0].p, SpecTerm::iri(vocab::RDF_TYPE));
    }

    #[test]
    fn bare_words_are_verbatim_iris() {
        let q = parse("q(?x) :- ?x author ?y");
        assert_eq!(q.body[0].p, SpecTerm::iri("author"));
    }

    #[test]
    fn boolean_query_empty_head() {
        let q = parse("q() :- ?x <p> ?y");
        assert!(q.head.is_empty());
        assert!(q.is_boolean());
    }

    #[test]
    fn multi_head() {
        let q = parse("q(?x, ?y) :- ?x <p> ?y");
        assert_eq!(q.head, vec!["x", "y"]);
    }

    #[test]
    fn typed_and_lang_literals() {
        let q = parse(r#"q() :- ?x <p> "1932"^^<http://www.w3.org/2001/XMLSchema#gYear>"#);
        assert_eq!(
            q.body[0].o,
            SpecTerm::Const(Term::typed_literal(
                "1932",
                "http://www.w3.org/2001/XMLSchema#gYear"
            ))
        );
        let q = parse(r#"q() :- ?x <p> "oui"@fr"#);
        assert_eq!(
            q.body[0].o,
            SpecTerm::Const(Term::lang_literal("oui", "fr"))
        );
    }

    #[test]
    fn literal_with_comma_inside() {
        let q = parse(r#"q() :- ?x <p> "a, b", ?x <q> ?y"#);
        assert_eq!(q.body.len(), 2);
        assert_eq!(q.body[0].o, SpecTerm::Const(Term::literal("a, b")));
    }

    #[test]
    fn errors_carry_position() {
        let e = parse_query("q(?x) :- ", &PrefixMap::with_defaults()).unwrap_err();
        assert!(e.at >= 8);
        let e = parse_query("q ?x :- ?x <p> ?y", &PrefixMap::with_defaults()).unwrap_err();
        assert!(e.message.contains("expected `(`"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let e = parse_query("q() :- ?x <p> ?y junk()", &PrefixMap::with_defaults());
        assert!(e.is_err());
    }

    /// A literal's text: every character N-Triples output escapes, the
    /// query's own punctuation and multi-byte characters.
    const LEXICAL: &str = "[a-c \t\u{8}\n\r\u{c}\"\\\\<>,?@^:é日😀-]{0,12}";

    proptest! {
        /// `parse_query(spec.to_string()) == spec`: on a fixed query, and
        /// on generated literals — plain, language-tagged and typed — in
        /// subject and object position.
        #[test]
        fn display_then_reparse(
            lexical in proptest::string::string_regex(LEXICAL).unwrap(),
            tag in "[a-z]{1,3}-[a-z0-9]{1,4}",
            datatype in "[a-z:/#.é]{1,8}",
            kind in 0u8..3,
        ) {
            let q = parse("q(?x) :- ?x <http://x/p> ?y, ?x a <http://x/Book>");
            prop_assert_eq!(parse(&q.to_string()), q);
            let literal = SpecTerm::Const(match kind {
                0 => Term::literal(lexical),
                1 => Term::lang_literal(lexical, tag),
                _ => Term::typed_literal(lexical, datatype),
            });
            let spec = QuerySpec::new(
                ["x"],
                [
                    (SpecTerm::var("x"), SpecTerm::iri("http://x/p"), literal.clone()),
                    (literal, SpecTerm::iri(vocab::RDF_TYPE), SpecTerm::var("x")),
                ],
            );
            prop_assert_eq!(parse(&spec.to_string()), spec);
        }
    }
}
