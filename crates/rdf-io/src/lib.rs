//! # rdf-io
//!
//! Input/output for the `rdfsummary` workspace: a complete N-Triples 1.1
//! parser and serializer (the input format the paper's loader supports, §6),
//! plus GraphViz DOT export for visualizing graphs and their summaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dot;
pub mod error;
pub mod ntriples;
pub mod turtle;
pub mod writer;

pub use dot::{to_dot, DotOptions};
pub use error::{LoadError, ParseError, ParseErrorKind};
pub use ntriples::{
    load_path, load_rows, parse_graph, parse_line, parse_statements, parse_str, TermTriple,
};
pub use turtle::write_turtle;
pub use writer::{save_path, write_graph, write_term, write_triple};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rdf_model::{vocab, Graph, LiteralKindRef, Term, TermRef};

    fn arb_object() -> impl Strategy<Value = Term> {
        prop_oneof![
            "[a-z]{1,8}".prop_map(|s| Term::iri(format!("http://x/{s}"))),
            "[a-z][a-z0-9]{0,6}".prop_map(Term::blank),
            proptest::string::string_regex("[ -~]{0,16}")
                .unwrap()
                .prop_map(Term::literal),
            ("[a-zA-Z ]{0,10}", "[a-z]{2,3}").prop_map(|(l, t)| Term::lang_literal(l, t)),
            ("[0-9]{1,6}", "[a-z]{1,6}")
                .prop_map(|(l, d)| Term::typed_literal(l, format!("http://dt/{d}"))),
        ]
    }

    /// Text that exercises every escape the codec knows — TAB, BS, LF, CR,
    /// FF, `"`, `\\`, the characters IRIREF forbids — next to one-, two-,
    /// three- and four-byte characters.
    const NASTY: &str = "[a-c \t\u{8}\n\r\u{c}\"\\\\'<>{}|^`é日😀.-]";

    fn arb_text(max: usize) -> impl Strategy<Value = String> {
        proptest::string::string_regex(&format!("{NASTY}{{0,{max}}}")).unwrap()
    }

    fn arb_iri() -> impl Strategy<Value = Term> {
        ("[a-c]", arb_text(6)).prop_map(|(head, tail)| Term::iri(format!("{head}:{tail}")))
    }

    /// Labels with inner `.` and `-` and multi-byte letters; never a
    /// trailing `.`, which the grammar gives to the statement.
    fn arb_blank() -> impl Strategy<Value = Term> {
        "[a-zA-Z0-9_é日][a-z0-9_.é-]{0,5}[a-z0-9_é-]".prop_map(Term::blank)
    }

    fn arb_literal() -> impl Strategy<Value = Term> {
        let tag = (
            "[a-zA-Z]{1,3}",
            proptest::collection::vec("[a-zA-Z0-9]{1,4}", 0..3),
        )
            .prop_map(|(head, subtags)| {
                subtags.iter().fold(head, |tag, sub| format!("{tag}-{sub}"))
            });
        prop_oneof![
            arb_text(12).prop_map(Term::literal),
            (arb_text(12), tag).prop_map(|(l, t)| Term::lang_literal(l, t)),
            (arb_text(12), arb_iri()).prop_map(|(l, dt)| match dt {
                Term::Iri(dt) => Term::typed_literal(l, dt),
                _ => unreachable!("arb_iri yields IRIs"),
            }),
        ]
    }

    fn arb_subject() -> impl Strategy<Value = Term> {
        prop_oneof![arb_iri(), arb_iri(), arb_blank()]
    }

    fn arb_any_object() -> impl Strategy<Value = Term> {
        prop_oneof![arb_iri(), arb_blank(), arb_literal(), arb_literal()]
    }

    /// A graph whose insertion order is its serialization order (data, then
    /// type, then schema triples), so a round trip must reproduce its
    /// dictionary id for id.
    fn arb_graph() -> impl Strategy<Value = Graph> {
        let data = proptest::collection::vec((arb_subject(), arb_iri(), arb_any_object()), 0..12);
        let types = proptest::collection::vec((arb_subject(), arb_iri()), 0..4);
        let schema = proptest::collection::vec((arb_iri(), 0usize..4, arb_iri()), 0..4);
        (data, types, schema).prop_map(|(data, types, schema)| {
            let mut g = Graph::new();
            for (s, p, o) in data {
                g.insert(s, p, o).unwrap();
            }
            for (s, class) in types {
                g.insert(s, Term::iri(vocab::RDF_TYPE), class).unwrap();
            }
            for (s, p, o) in schema {
                g.insert(s, Term::iri(vocab::SCHEMA_PROPERTIES[p]), o)
                    .unwrap();
            }
            g
        })
    }

    fn terms(g: &Graph) -> Vec<Term> {
        g.dict().iter().map(|(_, t)| t.to_term()).collect()
    }

    /// Same dictionary in id order, same three component vectors.
    fn assert_same_graph(a: &Graph, b: &Graph) -> Result<(), proptest::TestCaseError> {
        prop_assert_eq!(terms(a), terms(b));
        prop_assert_eq!(a.data(), b.data());
        prop_assert_eq!(a.types(), b.types());
        prop_assert_eq!(a.schema(), b.schema());
        Ok(())
    }

    /// `s` with every `every`-th character spelled `\uXXXX` / `\UXXXXXXXX`,
    /// and the rest escaped by `escape` — a non-canonical spelling the
    /// parser must read as the same text.
    fn spell(s: &str, every: usize, escape: fn(&str) -> String) -> String {
        let mut out = String::new();
        for (i, c) in s.chars().enumerate() {
            let cp = c as u32;
            if i % every != 0 {
                out.push_str(&escape(c.encode_utf8(&mut [0; 4])));
            } else if cp <= 0xFFFF && i % 2 == 0 {
                out.push_str(&format!("\\u{cp:04X}"));
            } else {
                out.push_str(&format!("\\U{cp:08x}"));
            }
        }
        out
    }

    /// [`writer::write_term`] with [`spell`]ed IRI and literal bodies.
    fn spell_term(t: TermRef<'_>, every: usize) -> String {
        let iri = |s: &str| format!("<{}>", spell(s, every, writer::escape_iri));
        match t {
            TermRef::Iri(s) => iri(s),
            TermRef::Literal { lexical, kind } => {
                let body = spell(lexical, every, writer::escape_literal);
                match kind {
                    LiteralKindRef::Simple => format!("\"{body}\""),
                    LiteralKindRef::Lang(tag) => format!("\"{body}\"@{tag}"),
                    LiteralKindRef::Typed(dt) => format!("\"{body}\"^^{}", iri(dt)),
                }
            }
            other => writer::write_term(&other.to_term()),
        }
    }

    /// One structured mutation of `line`, steered by `(op, a, b)`: truncate,
    /// splice a fragment, duplicate a range, or flip a bit (re-validated
    /// lossily, so the result is always a `&str`).
    fn mutate(line: &str, (op, a, b): (u8, usize, usize)) -> String {
        const FRAGMENTS: [&str; 16] = [
            "\"",
            "\\",
            "<",
            ">",
            ".",
            " .",
            "_:",
            "@",
            "^^",
            "#",
            "\\u00",
            "\\U0010FFFF",
            "é",
            "😀",
            "\t",
            "\r",
        ];
        let chars: Vec<char> = line.chars().collect();
        let at = |k: usize| k % (chars.len() + 1);
        let (lo, hi) = (at(a).min(at(b)), at(a).max(at(b)));
        match op % 4 {
            0 => chars[..at(a)].iter().collect(),
            1 => {
                let mut out: String = chars[..at(a)].iter().collect();
                out.push_str(FRAGMENTS[b % FRAGMENTS.len()]);
                out.extend(&chars[at(a)..]);
                out
            }
            2 => {
                let mut out: String = chars[..hi].iter().collect();
                out.extend(&chars[lo..]);
                out
            }
            _ => {
                let mut bytes = line.as_bytes().to_vec();
                if !bytes.is_empty() {
                    let k = a % bytes.len();
                    bytes[k] ^= 1 << (b % 8);
                }
                String::from_utf8_lossy(&bytes).into_owned()
            }
        }
    }

    /// What any parse of `text` as line `line` must satisfy: an error
    /// points at a character of the text or one past its end, and accepted
    /// terms survive a write/parse round trip.
    fn check_outcome(
        text: &str,
        line: usize,
        outcome: Result<Vec<TermTriple>, ParseError>,
    ) -> Result<(), proptest::TestCaseError> {
        match outcome {
            Err(e) => {
                prop_assert_eq!(e.line, line);
                prop_assert!(
                    (1..=text.chars().count() + 1).contains(&e.column),
                    "{:?}",
                    e
                );
            }
            Ok(triples) => {
                for (s, p, o) in triples {
                    let rendered = format!(
                        "{} {} {} .",
                        writer::write_term(&s),
                        writer::write_term(&p),
                        writer::write_term(&o)
                    );
                    prop_assert_eq!(parse_line(&rendered, 1), Ok(Some((s, p, o))));
                }
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn term_roundtrip(o in arb_object()) {
            let line = format!(
                "<http://x/s> <http://x/p> {} .",
                writer::write_term(&o)
            );
            let parsed = ntriples::parse_line(&line, 1).unwrap().unwrap();
            prop_assert_eq!(parsed.2, o);
        }

        #[test]
        fn graph_roundtrip(
            triples in proptest::collection::vec(
                ("[a-c]{1,2}", "[p-q]", "[a-c]{1,2}"), 1..32
            )
        ) {
            let mut g = rdf_model::Graph::new();
            for (s, p, o) in &triples {
                g.add_iri_triple(
                    &format!("http://x/{s}"),
                    &format!("http://x/{p}"),
                    &format!("http://x/{o}"),
                );
            }
            let text = writer::write_graph(&g);
            let g2 = ntriples::parse_graph(&text).unwrap();
            prop_assert_eq!(g.len(), g2.len());
            for t in g2.iter() {
                let term_line = writer::write_triple(&g2, t);
                // Re-encode into g's dictionary and check membership.
                let (s, p, o) = ntriples::parse_line(&term_line, 1).unwrap().unwrap();
                let sid = g.dict().lookup(&s).unwrap();
                let pid = g.dict().lookup(&p).unwrap();
                let oid = g.dict().lookup(&o).unwrap();
                prop_assert!(g.contains(rdf_model::Triple::new(sid, pid, oid)));
            }
        }

        /// `parse_graph ∘ write_graph` is the identity on dictionary (in id
        /// order) and components, `write_graph` is a fixpoint over it, and
        /// every other way in — the owned-term entry points, `insert_ref`
        /// over views, `load_path` over the file, a snapshot round trip —
        /// reads the same document into the same graph.
        #[test]
        fn codec_roundtrip_preserves_ids_and_bytes(g in arb_graph()) {
            let text = write_graph(&g);
            let back = parse_graph(&text).unwrap();
            assert_same_graph(&g, &back)?;
            prop_assert_eq!(&write_graph(&back), &text);

            let by_line: Vec<TermTriple> = text
                .lines()
                .enumerate()
                .filter_map(|(i, l)| parse_line(l, i + 1).unwrap())
                .collect();
            prop_assert_eq!(&parse_str(&text).unwrap(), &by_line);
            prop_assert_eq!(&parse_statements(&text.replace('\n', " ")).unwrap(), &by_line);
            let (mut owned, mut viewed) = (Graph::new(), Graph::new());
            for (s, p, o) in by_line {
                viewed
                    .insert_ref(s.as_term_ref(), p.as_term_ref(), o.as_term_ref())
                    .unwrap();
                owned.insert(s, p, o).unwrap();
            }
            let file = std::env::temp_dir().join(format!(
                "rdf-io-roundtrip-{}-{:?}.nt",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::write(&file, &text).unwrap();
            let loaded = load_path(&file);
            std::fs::remove_file(&file).unwrap();
            let restored = rdf_store::snapshot::decode(&rdf_store::snapshot::encode(&g)).unwrap();
            for other in [&owned, &viewed, &loaded.unwrap(), &restored] {
                assert_same_graph(&g, other)?;
                prop_assert_eq!(&write_graph(other), &text);
            }
        }

        /// `\u` / `\U` spellings — in IRIs, literals and datatypes — parse to
        /// the same graph as the canonical text, and are written canonically.
        #[test]
        fn numeric_escapes_are_read_as_the_characters_they_name(
            g in arb_graph(),
            every in 1usize..4,
        ) {
            let d = g.dict();
            let spelled: String = g
                .iter()
                .map(|t| {
                    let [s, p, o] = [t.s, t.p, t.o].map(|id| spell_term(d.decode(id), every));
                    format!("  {s}\t{p} {o}. # {every}\r\n")
                })
                .collect();
            let back = parse_graph(&spelled).unwrap();
            assert_same_graph(&g, &back)?;
            prop_assert_eq!(write_graph(&back), write_graph(&g));
        }

        /// Mutated lines never panic `parse_line` / `parse_statements`, and
        /// whatever they return is coherent.
        #[test]
        fn mutated_lines_never_panic(
            s in arb_subject(),
            p in arb_iri(),
            o in arb_any_object(),
            every in 1usize..5,
            ops in proptest::collection::vec((0u8..4, 0usize..4096, 0usize..4096), 1..4),
        ) {
            let canonical = format!(
                "{} {} {} .",
                writer::write_term(&s),
                writer::write_term(&p),
                writer::write_term(&o)
            );
            let spelled = format!(
                "{} {} {} . # c",
                spell_term(s.as_term_ref(), every),
                spell_term(p.as_term_ref(), every),
                spell_term(o.as_term_ref(), every)
            );
            for valid in [canonical, spelled] {
                let text = ops.iter().fold(valid, |text, &op| mutate(&text, op));
                check_outcome(&text, 9, parse_line(&text, 9).map(|t| t.into_iter().collect()))?;
                check_outcome(&text, 1, parse_statements(&text))?;
                let packed = format!("{text} {text}");
                check_outcome(&packed, 1, parse_statements(&packed))?;
            }
        }
    }
}
