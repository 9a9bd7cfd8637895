//! GraphViz DOT export for RDF graphs and summaries.
//!
//! The paper points readers at graphical representations of sample summaries
//! ("as a picture is worth a thousand words", §1). This module renders any
//! [`Graph`] — original or summary — in the paper's visual conventions:
//! class nodes as purple boxes, τ edges in purple, data nodes as ellipses,
//! literals as plain text, schema triples as dashed edges.

use rdf_model::{Graph, PrefixMap, TermId, TermRef};
use std::fmt::Write as _;

/// Rendering options for [`to_dot`].
#[derive(Clone, Debug)]
pub struct DotOptions {
    /// Graph name in the DOT output.
    pub name: String,
    /// Prefixes used to shorten IRIs in labels.
    pub prefixes: PrefixMap,
    /// Include schema (S_G) triples as dashed edges.
    pub include_schema: bool,
}

impl Default for DotOptions {
    fn default() -> Self {
        DotOptions {
            name: "G".to_string(),
            prefixes: PrefixMap::with_defaults(),
            include_schema: true,
        }
    }
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn label(g: &Graph, prefixes: &PrefixMap, id: TermId) -> String {
    match g.dict().decode(id) {
        TermRef::Iri(iri) => prefixes.compact(iri),
        TermRef::Minted(m) => prefixes.compact(m.uri()),
        TermRef::Blank(b) => format!("_:{b}"),
        TermRef::Literal { lexical, .. } => format!("\"{lexical}\""),
    }
}

/// Renders `g` as a GraphViz `digraph`.
pub fn to_dot(g: &Graph, opts: &DotOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph {} {{", quote(&opts.name));
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [fontname=\"Helvetica\"];");

    let classes = g.class_nodes();
    let data_nodes = g.data_nodes();

    // Node declarations.
    let mut nodes: Vec<TermId> = g.nodes().into_iter().collect();
    nodes.sort_unstable();
    for n in nodes {
        let l = label(g, &opts.prefixes, n);
        let style = if classes.contains(&n) {
            // Purple boxes for class nodes, as in the paper's figures.
            "shape=box, style=filled, fillcolor=\"#d9c7f2\", color=\"#6a3fb5\""
        } else if g.dict().decode(n).is_literal() {
            "shape=plaintext"
        } else if data_nodes.contains(&n) {
            "shape=ellipse"
        } else {
            "shape=box, style=dashed"
        };
        let _ = writeln!(out, "  n{} [label={}, {}];", n.0, quote(&l), style);
    }

    // Data edges.
    for t in g.data() {
        let _ = writeln!(
            out,
            "  n{} -> n{} [label={}];",
            t.s.0,
            t.o.0,
            quote(&label(g, &opts.prefixes, t.p))
        );
    }
    // Type edges, purple τ.
    for t in g.types() {
        let _ = writeln!(
            out,
            "  n{} -> n{} [label=\"τ\", color=\"#6a3fb5\", fontcolor=\"#6a3fb5\"];",
            t.s.0, t.o.0
        );
    }
    // Schema edges, dashed.
    if opts.include_schema {
        for t in g.schema() {
            let _ = writeln!(
                out,
                "  n{} -> n{} [label={}, style=dashed];",
                t.s.0,
                t.o.0,
                quote(&label(g, &opts.prefixes, t.p))
            );
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{vocab, Term};

    #[test]
    fn renders_all_edge_kinds() {
        let mut g = Graph::new();
        g.add_iri_triple("http://x/a", "http://x/p", "http://x/b");
        g.add_iri_triple("http://x/a", vocab::RDF_TYPE, "http://x/C");
        g.add_iri_triple("http://x/C", vocab::RDFS_SUBCLASSOF, "http://x/D");
        let dot = to_dot(&g, &DotOptions::default());
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("τ"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("fillcolor")); // class node styling
        assert!(dot.matches("->").count() == 3);
    }

    #[test]
    fn schema_can_be_suppressed() {
        let mut g = Graph::new();
        g.add_iri_triple("http://x/C", vocab::RDFS_SUBCLASSOF, "http://x/D");
        let dot = to_dot(
            &g,
            &DotOptions {
                include_schema: false,
                ..DotOptions::default()
            },
        );
        assert!(!dot.contains("->"));
    }

    #[test]
    fn labels_are_compacted_and_quoted() {
        let mut g = Graph::new();
        g.insert(
            Term::iri(format!("{}x", vocab::RDFS_NS)),
            Term::iri("http://x/p"),
            Term::literal("say \"hi\""),
        )
        .unwrap();
        let dot = to_dot(&g, &DotOptions::default());
        assert!(dot.contains("rdfs:x"));
        assert!(dot.contains("\\\"hi\\\""));
    }
}
