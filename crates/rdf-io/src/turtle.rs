//! A Turtle *writer* (subset): prefixed, subject-grouped, human-readable
//! serialization of graphs and summaries.
//!
//! Output uses `@prefix` declarations, `a` for `rdf:type`, `;`-grouped
//! predicates and `,`-grouped objects — the form people actually read.
//! Only a writer is provided (the workspace's canonical interchange format
//! remains N-Triples, which round-trips); the subset emitted here is valid
//! Turtle accepted by standard tools.

use rdf_model::{Graph, LiteralKindRef, PrefixMap, TermId, TermRef, Triple};
use std::fmt::Write as _;

/// Is `local` a valid PN_LOCAL-ish token we can emit after a prefix?
/// Conservative: alphanumerics, `_`, `-`, `.` (not leading/trailing dot).
fn valid_local(local: &str) -> bool {
    !local.is_empty()
        && !local.starts_with('.')
        && !local.ends_with('.')
        && local
            .chars()
            .all(|c| c.is_alphanumeric() || c == '_' || c == '-' || c == '.')
}

fn term_str(t: TermRef<'_>, prefixes: &PrefixMap) -> String {
    match t {
        TermRef::Iri(iri) => iri_str(iri, prefixes),
        TermRef::Minted(m) => iri_str(m.uri(), prefixes),
        TermRef::Blank(b) => format!("_:{b}"),
        TermRef::Literal { lexical, kind } => {
            let body = crate::writer::escape_literal(lexical);
            match kind {
                LiteralKindRef::Simple => format!("\"{body}\""),
                LiteralKindRef::Lang(tag) => format!("\"{body}\"@{tag}"),
                LiteralKindRef::Typed(dt) => format!("\"{body}\"^^{}", iri_str(dt, prefixes)),
            }
        }
    }
}

/// IRI rendering shared by the plain and minted arms of [`term_str`].
fn iri_str(iri: &str, prefixes: &PrefixMap) -> String {
    let compacted = prefixes.compact(iri);
    if compacted != *iri {
        // Only use the qname when its local part is emit-safe.
        if let Some((_, local)) = compacted.split_once(':') {
            if valid_local(local) {
                return compacted;
            }
        }
    }
    format!("<{}>", crate::writer::escape_iri(iri))
}

/// Serializes `g` as Turtle using the given prefixes.
pub fn write_turtle(g: &Graph, prefixes: &PrefixMap) -> String {
    let mut out = String::new();
    for (p, ns) in prefixes.iter() {
        let _ = writeln!(out, "@prefix {p}: <{ns}> .");
    }
    if prefixes.iter().next().is_some() {
        out.push('\n');
    }

    // Group triples by subject (insertion order of first appearance),
    // then by predicate; `rdf:type` prints first, as `a`.
    let rdf_type = g.rdf_type();
    let mut subject_order: Vec<TermId> = Vec::new();
    let mut by_subject: rdf_model::FxHashMap<TermId, Vec<Triple>> = Default::default();
    for t in g.iter() {
        let v = by_subject.entry(t.s).or_default();
        if v.is_empty() {
            subject_order.push(t.s);
        }
        v.push(t);
    }

    for s in subject_order {
        let mut triples = by_subject.remove(&s).unwrap();
        // rdf:type first, then by predicate id, then object id.
        triples.sort_by_key(|t| (t.p != rdf_type, t.p, t.o));
        let subject = term_str(g.dict().decode(s), prefixes);
        let _ = write!(out, "{subject} ");
        let indent = " ".repeat(4);
        let mut i = 0;
        while i < triples.len() {
            let p = triples[i].p;
            let mut objects = Vec::new();
            while i < triples.len() && triples[i].p == p {
                objects.push(term_str(g.dict().decode(triples[i].o), prefixes));
                i += 1;
            }
            let pred = if p == rdf_type {
                "a".to_string()
            } else {
                term_str(g.dict().decode(p), prefixes)
            };
            if !out.ends_with(' ') {
                let _ = write!(out, "{indent}");
            }
            let _ = write!(out, "{pred} {}", objects.join(", "));
            let last = i == triples.len();
            out.push_str(if last { " .\n" } else { " ;\n" });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{vocab, Term};

    fn graph() -> (Graph, PrefixMap) {
        let mut g = Graph::new();
        g.add_iri_triple("http://ex/b1", vocab::RDF_TYPE, "http://ex/Book");
        g.add_iri_triple("http://ex/b1", "http://ex/author", "http://ex/alice");
        g.add_literal_triple("http://ex/b1", "http://ex/title", "T1");
        g.add_iri_triple("http://ex/b1", "http://ex/author", "http://ex/bob");
        g.add_iri_triple("http://ex/Book", vocab::RDFS_SUBCLASSOF, "http://ex/Pub");
        let mut p = PrefixMap::with_defaults();
        p.insert("ex", "http://ex/");
        (g, p)
    }

    #[test]
    fn groups_subjects_and_predicates() {
        let (g, p) = graph();
        let ttl = write_turtle(&g, &p);
        assert!(ttl.contains("@prefix ex: <http://ex/> ."));
        // One subject block with `a` first and comma-joined authors.
        assert!(ttl.contains("ex:b1 a ex:Book ;"));
        assert!(ttl.contains("ex:author ex:alice, ex:bob ;"));
        assert!(ttl.contains("ex:title \"T1\" ."));
        assert!(ttl.contains("ex:Book rdfs:subClassOf ex:Pub ."));
    }

    #[test]
    fn unsafe_locals_fall_back_to_full_iri() {
        let mut g = Graph::new();
        g.add_iri_triple("http://ex/has space?no", "http://ex/p", "http://ex/o");
        let mut p = PrefixMap::new();
        p.insert("ex", "http://ex/");
        let ttl = write_turtle(&g, &p);
        assert!(ttl.contains("<http://ex/has\\u0020space?no>"));
        assert!(ttl.contains("ex:p"));
    }

    #[test]
    fn literals_with_datatypes_and_tags() {
        let mut g = Graph::new();
        g.insert(
            Term::iri("http://ex/s"),
            Term::iri("http://ex/p"),
            Term::typed_literal("5", rdf_model::vocab::XSD_INTEGER),
        )
        .unwrap();
        g.insert(
            Term::iri("http://ex/s"),
            Term::iri("http://ex/q"),
            Term::lang_literal("hei", "no"),
        )
        .unwrap();
        let ttl = write_turtle(&g, &PrefixMap::with_defaults());
        assert!(ttl.contains("\"5\"^^xsd:integer"));
        assert!(ttl.contains("\"hei\"@no"));
    }

    #[test]
    fn empty_graph_is_just_prefixes() {
        let ttl = write_turtle(&Graph::new(), &PrefixMap::new());
        assert!(ttl.is_empty());
    }

    #[test]
    fn every_subject_block_ends_with_dot() {
        let (g, p) = graph();
        let ttl = write_turtle(&g, &p);
        let body: String = ttl
            .lines()
            .filter(|l| !l.starts_with("@prefix"))
            .collect::<Vec<_>>()
            .join("\n");
        // 2 subjects ⇒ 2 block terminators.
        assert_eq!(body.matches(" .").count(), 2);
    }
}
