//! N-Triples serialization, the inverse of [`crate::ntriples`].
//!
//! Escaping follows the canonical N-Triples form: `\` `"` and the control
//! characters TAB, LF, CR, BS, FF are escaped in literals; IRIs are written
//! verbatim (characters outside the IRI production would have been rejected
//! at parse time; writers receiving hand-built terms escape the forbidden
//! ASCII range with `\u` escapes).
//!
//! # Appenders
//!
//! The writer is a set of appenders onto one `String`: [`push_term`],
//! [`push_row`] and [`push_triple`] write into the caller's buffer and
//! allocate nothing of their own. Every character that needs an escape is
//! ASCII, so escaping scans bytes and copies each clean run with one
//! `push_str`; a term with nothing to escape is a single copy.
//! [`write_graph`] sizes its buffer before the first triple (one length per
//! dictionary term, summed over the triples), so a document is one
//! allocation however large; [`write_term`] / [`write_triple`] /
//! [`save_path`] are thin wrappers.

use crate::ntriples::{byte_set, IRI_SPECIAL};
use rdf_model::{Graph, LiteralKindRef, Term, TermRef, Triple};

/// The bytes [`push_escaped_literal`] replaces.
static LITERAL_ESCAPED: [bool; 256] = byte_set(b"\\\"\n\r\t\x08\x0c");

/// Appends `s`, handing each byte of `special` to `escape` and copying the
/// clean runs between them whole. `special` holds ASCII bytes only, so
/// every split is on a character boundary.
fn push_escaped(
    out: &mut String,
    s: &str,
    special: &[bool; 256],
    escape: impl Fn(&mut String, u8),
) {
    let bytes = s.as_bytes();
    let mut run = 0;
    while let Some(n) = bytes[run..].iter().position(|&b| special[b as usize]) {
        out.push_str(&s[run..run + n]);
        escape(out, bytes[run + n]);
        run += n + 1;
    }
    out.push_str(&s[run..]);
}

/// Appends a literal's lexical form, escaped for N-Triples output.
fn push_escaped_literal(out: &mut String, s: &str) {
    push_escaped(out, s, &LITERAL_ESCAPED, |out, b| {
        out.push('\\');
        out.push(match b {
            b'\n' => 'n',
            b'\r' => 'r',
            b'\t' => 't',
            0x8 => 'b',
            0xc => 'f',
            quote_or_backslash => quote_or_backslash as char,
        });
    });
}

/// Appends an IRI, with `\u00XX` escapes for the (ASCII) characters the
/// IRIREF production forbids.
fn push_escaped_iri(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    push_escaped(out, s, &IRI_SPECIAL, |out, b| {
        out.push_str("\\u00");
        out.push(HEX[usize::from(b >> 4)] as char);
        out.push(HEX[usize::from(b & 0xf)] as char);
    });
}

/// Escapes a literal's lexical form for N-Triples output.
pub fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_escaped_literal(&mut out, s);
    out
}

/// Escapes an IRI for N-Triples output (`\u` escapes for characters the
/// IRIREF production forbids).
pub fn escape_iri(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped_iri(&mut out, s);
    out
}

fn push_iri_ref(out: &mut String, iri: &str) {
    out.push('<');
    push_escaped_iri(out, iri);
    out.push('>');
}

/// Appends one term in N-Triples syntax.
pub fn push_term(out: &mut String, term: TermRef<'_>) {
    match term {
        TermRef::Iri(iri) => push_iri_ref(out, iri),
        TermRef::Minted(m) => push_iri_ref(out, m.uri()),
        TermRef::Blank(label) => {
            out.push_str("_:");
            out.push_str(label);
        }
        TermRef::Literal { lexical, kind } => {
            out.push('"');
            push_escaped_literal(out, lexical);
            out.push('"');
            match kind {
                LiteralKindRef::Simple => {}
                LiteralKindRef::Lang(tag) => {
                    out.push('@');
                    out.push_str(tag);
                }
                LiteralKindRef::Typed(dt) => {
                    out.push_str("^^");
                    push_iri_ref(out, dt);
                }
            }
        }
    }
}

/// Appends one query answer row: its terms in N-Triples syntax,
/// TAB-separated (no newline). Escaping keeps a literal's TAB, LF and CR
/// from splitting or ending the row.
pub fn push_row<'a>(out: &mut String, terms: impl IntoIterator<Item = TermRef<'a>>) {
    for (i, term) in terms.into_iter().enumerate() {
        if i > 0 {
            out.push('\t');
        }
        push_term(out, term);
    }
}

/// Appends one encoded triple of `g` as an N-Triples line (no newline).
pub fn push_triple(out: &mut String, g: &Graph, t: Triple) {
    let d = g.dict();
    push_term(out, d.decode(t.s));
    out.push(' ');
    push_term(out, d.decode(t.p));
    out.push(' ');
    push_term(out, d.decode(t.o));
    out.push_str(" .");
}

/// The bytes [`push_term`] writes for `term` when nothing needs an escape
/// (a lower bound otherwise).
fn unescaped_len(term: TermRef<'_>) -> usize {
    match term {
        TermRef::Iri(iri) => iri.len() + 2,
        TermRef::Minted(m) => m.uri().len() + 2,
        TermRef::Blank(label) => label.len() + 2,
        TermRef::Literal { lexical, kind } => {
            lexical.len()
                + 2
                + match kind {
                    LiteralKindRef::Simple => 0,
                    LiteralKindRef::Lang(tag) => tag.len() + 1,
                    LiteralKindRef::Typed(dt) => dt.len() + 4,
                }
        }
    }
}

/// Serializes one term in N-Triples syntax.
pub fn write_term(term: &Term) -> String {
    let term = term.as_term_ref();
    let mut out = String::with_capacity(unescaped_len(term));
    push_term(&mut out, term);
    out
}

/// Serializes one encoded triple of `g` as an N-Triples line (no newline).
pub fn write_triple(g: &Graph, t: Triple) -> String {
    let mut out = String::new();
    push_triple(&mut out, g, t);
    out
}

/// Serializes a whole graph as an N-Triples document (data, then type, then
/// schema triples, each in insertion order).
pub fn write_graph(g: &Graph) -> String {
    let len: Vec<usize> = g.dict().iter().map(|(_, t)| unescaped_len(t)).collect();
    // Per line: three terms, two spaces, ` .` and the newline.
    let size = g
        .iter()
        .map(|t| len[t.s.index()] + len[t.p.index()] + len[t.o.index()] + 5)
        .sum();
    let mut out = String::with_capacity(size);
    for t in g.iter() {
        push_triple(&mut out, g, t);
        out.push('\n');
    }
    out
}

/// Writes a graph to a file in N-Triples format.
pub fn save_path(g: &Graph, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    std::fs::write(path, write_graph(g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ntriples::{parse_graph, parse_line};

    #[test]
    fn escapes_literals() {
        assert_eq!(escape_literal("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_literal("plain"), "plain");
    }

    #[test]
    fn escapes_iris() {
        assert_eq!(escape_iri("http://x/ok"), "http://x/ok");
        assert_eq!(escape_iri("http://x/a b"), "http://x/a\\u0020b");
    }

    #[test]
    fn term_forms() {
        assert_eq!(write_term(&Term::iri("http://x/a")), "<http://x/a>");
        assert_eq!(write_term(&Term::blank("b")), "_:b");
        assert_eq!(write_term(&Term::literal("x")), "\"x\"");
        assert_eq!(write_term(&Term::lang_literal("x", "en")), "\"x\"@en");
        assert_eq!(
            write_term(&Term::typed_literal("1", "dt:int")),
            "\"1\"^^<dt:int>"
        );
    }

    #[test]
    fn graph_roundtrip() {
        let doc = concat!(
            "<http://x/s> <http://x/p> \"a\\nb\" .\n",
            "<http://x/s> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/C> .\n",
            "_:b <http://x/q> \"v\"@en .\n",
        );
        let g = parse_graph(doc).unwrap();
        let out = write_graph(&g);
        let g2 = parse_graph(&out).unwrap();
        assert_eq!(g.len(), g2.len());
        // Every triple survives the round trip (semantically).
        let lines1: std::collections::BTreeSet<_> = out.lines().collect();
        let out2 = write_graph(&g2);
        let lines2: std::collections::BTreeSet<_> = out2.lines().collect();
        assert_eq!(lines1, lines2);
    }

    #[test]
    fn written_lines_reparse() {
        let mut g = Graph::new();
        g.insert(
            Term::iri("http://x/s"),
            Term::iri("http://x/p"),
            Term::literal("tab\there \"quoted\""),
        )
        .unwrap();
        let line = write_triple(&g, g.data()[0]);
        let (s, _p, o) = parse_line(&line, 1).unwrap().unwrap();
        assert_eq!(s, Term::iri("http://x/s"));
        assert_eq!(o, Term::literal("tab\there \"quoted\""));
    }
}
