//! The paper's example graphs, reconstructed exactly.
//!
//! These fixtures back the "golden" tests that pin our implementation to the
//! paper's figures and tables. Each graph is read off its figure, and the
//! tests check it against what the paper states about it:
//!
//! * [`sample_graph`] — Figure 2, the running example (checked against
//!   Table 1, the §3.1 property distances, the §3.2 equivalence classes,
//!   and Figures 4/6/7/9);
//! * [`figure5_graph`] — the weak-completeness walk-through (Prop. 5);
//! * [`figure8_graph`] — the typed-weak non-completeness counter-example
//!   (Prop. 7);
//! * [`figure10_graph`] — the strong-completeness walk-through (Prop. 8);
//! * [`book_graph`] — the §2.1 book/RDFS example with its four implicit
//!   triples;
//! * [`fragment_graph`] — not a figure: the small-vocabulary graph the
//!   property tests generate their inputs through.

use rdf_model::{vocab, Graph, PrefixMap, Term, TermId};

/// Namespace used by all fixture resources.
pub const EX: &str = "http://example.org/";

/// A prefix map binding `ex:` to the fixture namespace (plus defaults).
pub fn sample_prefixes() -> PrefixMap {
    let mut p = PrefixMap::with_defaults();
    p.insert("ex", EX);
    p
}

fn ex(local: &str) -> String {
    format!("{EX}{local}")
}

/// Looks up a fixture resource id by local name (panics if absent).
pub fn exid(g: &Graph, local: &str) -> TermId {
    g.dict()
        .lookup(&Term::iri(ex(local)))
        .unwrap_or_else(|| panic!("fixture id missing: {local}"))
}

/// The running example of Figure 2.
///
/// ```text
/// D_G: r1 author a1 . r1 title t1 . r2 title t2  . r2 editor e1 .
///      r3 editor e2 . r3 comment c1 . r4 author a2 . r4 title t3 .
///      r5 title t4 . r5 editor e2 . a1 reviewed r4 . e1 published r4 .
/// T_G: r1 τ Book . r2 τ Journal . r5 τ Spec . r6 τ Spec .
/// S_G: ∅
/// ```
///
/// Source cliques: SC1 = {author, title, editor, comment}, SC2 = {reviewed},
/// SC3 = {published}. Target cliques: TC1 = {author}, TC2 = {title},
/// TC3 = {editor}, TC4 = {comment}, TC5 = {reviewed, published} — Table 1.
pub fn sample_graph() -> Graph {
    let mut g = Graph::new();
    let data = [
        ("r1", "author", "a1"),
        ("r1", "title", "t1"),
        ("r2", "title", "t2"),
        ("r2", "editor", "e1"),
        ("r3", "editor", "e2"),
        ("r3", "comment", "c1"),
        ("r4", "author", "a2"),
        ("r4", "title", "t3"),
        ("r5", "title", "t4"),
        ("r5", "editor", "e2"),
        ("a1", "reviewed", "r4"),
        ("e1", "published", "r4"),
    ];
    for (s, p, o) in data {
        g.add_iri_triple(&ex(s), &ex(p), &ex(o));
    }
    for (s, c) in [
        ("r1", "Book"),
        ("r2", "Journal"),
        ("r5", "Spec"),
        ("r6", "Spec"),
    ] {
        g.add_iri_triple(&ex(s), vocab::RDF_TYPE, &ex(c));
    }
    g
}

/// Figure 5's input graph: weak summary completeness (Prop. 5).
///
/// ```text
/// D_G: r1 a1 x . r1 b1 y1 . r2 b2 y2 . r2 c z .
/// S_G: b1 ≺sp b . b2 ≺sp b .
/// ```
///
/// In G the two subjects r1, r2 are *not* weakly equivalent; in G∞ both
/// acquire property `b`, fusing their source cliques — and Prop. 5 says the
/// same fusion happens when saturating and re-summarizing the summary.
pub fn figure5_graph() -> Graph {
    let mut g = Graph::new();
    for (s, p, o) in [
        ("r1", "a1", "x"),
        ("r1", "b1", "y1"),
        ("r2", "b2", "y2"),
        ("r2", "c", "z"),
    ] {
        g.add_iri_triple(&ex(s), &ex(p), &ex(o));
    }
    g.add_iri_triple(&ex("b1"), vocab::RDFS_SUBPROPERTYOF, &ex("b"));
    g.add_iri_triple(&ex("b2"), vocab::RDFS_SUBPROPERTYOF, &ex("b"));
    g
}

/// Figure 8's input graph: typed-weak non-completeness (Prop. 7).
///
/// ```text
/// D_G: r1 a y1 . r1 b y2 . r2 b x .
/// S_G: a ←↩d c .
/// ```
///
/// All resources are untyped in G, so TW_G merges r1 and r2 (shared source
/// clique through `b`). In G∞ the domain rule types r1 (`r1 τ c`) but not
/// r2, so TW_{G∞} represents them apart — hence TW_{G∞} ≠ TW_{(TW_G)∞}.
pub fn figure8_graph() -> Graph {
    let mut g = Graph::new();
    for (s, p, o) in [("r1", "a", "y1"), ("r1", "b", "y2"), ("r2", "b", "x")] {
        g.add_iri_triple(&ex(s), &ex(p), &ex(o));
    }
    g.add_iri_triple(&ex("a"), vocab::RDFS_DOMAIN, &ex("c"));
    g
}

/// Figure 10's input graph: strong summary completeness (Prop. 8).
///
/// ```text
/// D_G: x1 b r1 . x2 c r2 . r1 a1 z1 . r2 a1 z2 . r3 a2 z3 .
/// S_G: a1 ≺sp a . a2 ≺sp a .
/// ```
///
/// In G the strong summary has nodes N({b},{a1}), N({c},{a1}), N({},{a2});
/// in G∞ all three sources share the fused clique {a1, a2, a}.
pub fn figure10_graph() -> Graph {
    let mut g = Graph::new();
    for (s, p, o) in [
        ("x1", "b", "r1"),
        ("x2", "c", "r2"),
        ("r1", "a1", "z1"),
        ("r2", "a1", "z2"),
        ("r3", "a2", "z3"),
    ] {
        g.add_iri_triple(&ex(s), &ex(p), &ex(o));
    }
    g.add_iri_triple(&ex("a1"), vocab::RDFS_SUBPROPERTYOF, &ex("a"));
    g.add_iri_triple(&ex("a2"), vocab::RDFS_SUBPROPERTYOF, &ex("a"));
    g
}

/// The §2.1 book example: explicit triples plus the four RDFS constraints
/// whose saturation yields `doi1 τ Publication`, `doi1 hasAuthor _:b1`,
/// `writtenBy ←↩d Publication` and `_:b1 τ Person`.
pub fn book_graph() -> Graph {
    let mut g = Graph::new();
    g.add_iri_triple(&ex("doi1"), vocab::RDF_TYPE, &ex("Book"));
    g.insert(
        Term::iri(ex("doi1")),
        Term::iri(ex("writtenBy")),
        Term::blank("b1"),
    )
    .unwrap();
    g.insert(
        Term::iri(ex("doi1")),
        Term::iri(ex("hasTitle")),
        Term::literal("Le Port des Brumes"),
    )
    .unwrap();
    g.insert(
        Term::blank("b1"),
        Term::iri(ex("hasName")),
        Term::literal("G. Simenon"),
    )
    .unwrap();
    g.insert(
        Term::iri(ex("doi1")),
        Term::iri(ex("publishedIn")),
        Term::literal("1932"),
    )
    .unwrap();
    g.add_iri_triple(&ex("Book"), vocab::RDFS_SUBCLASSOF, &ex("Publication"));
    g.add_iri_triple(
        &ex("writtenBy"),
        vocab::RDFS_SUBPROPERTYOF,
        &ex("hasAuthor"),
    );
    g.add_iri_triple(&ex("writtenBy"), vocab::RDFS_DOMAIN, &ex("Book"));
    g.add_iri_triple(&ex("writtenBy"), vocab::RDFS_RANGE, &ex("Person"));
    g
}

/// A graph over a small fixed vocabulary (`http://x/n*` nodes, `p*`
/// properties, `C*` classes) from data / type / `≺sp` / domain fragments:
/// what the property tests of this crate and of `rdfsum-experiments` draw
/// their random graphs through.
pub fn fragment_graph(
    data: &[(u8, u8, u8)],
    types: &[(u8, u8)],
    sp: &[(u8, u8)],
    dom: &[(u8, u8)],
) -> Graph {
    let mut g = Graph::new();
    for (s, p, o) in data {
        g.add_iri_triple(
            &format!("http://x/n{s}"),
            &format!("http://x/p{p}"),
            &format!("http://x/n{o}"),
        );
    }
    for (s, c) in types {
        g.add_iri_triple(
            &format!("http://x/n{s}"),
            vocab::RDF_TYPE,
            &format!("http://x/C{c}"),
        );
    }
    for (a, b) in sp {
        g.add_iri_triple(
            &format!("http://x/p{a}"),
            vocab::RDFS_SUBPROPERTYOF,
            &format!("http://x/p{}", b.wrapping_add(4)),
        );
    }
    for (p, c) in dom {
        g.add_iri_triple(
            &format!("http://x/p{p}"),
            vocab::RDFS_DOMAIN,
            &format!("http://x/C{c}"),
        );
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::GraphStats;

    #[test]
    fn sample_graph_shape() {
        let g = sample_graph();
        let st = GraphStats::of(&g);
        assert_eq!(st.data_edges, 12);
        assert_eq!(st.type_edges, 4);
        assert_eq!(st.schema_edges, 0);
        assert_eq!(st.class_nodes, 3); // Book, Journal, Spec
        assert_eq!(st.data_distinct.properties, 6); // a, t, e, c, r, p

        // Data nodes: r1..r6, a1, a2, t1..t4, e1, e2, c1 = 15.
        assert_eq!(st.data_nodes, 15);
    }

    #[test]
    fn figure5_shape() {
        let g = figure5_graph();
        assert_eq!(g.data().len(), 4);
        assert_eq!(g.schema().len(), 2);
        assert_eq!(g.types().len(), 0);
    }

    #[test]
    fn figure8_shape() {
        let g = figure8_graph();
        assert_eq!(g.data().len(), 3);
        assert_eq!(g.schema().len(), 1);
    }

    #[test]
    fn figure10_shape() {
        let g = figure10_graph();
        assert_eq!(g.data().len(), 5);
        assert_eq!(g.schema().len(), 2);
    }

    #[test]
    fn book_graph_shape() {
        let g = book_graph();
        assert_eq!(g.data().len(), 4);
        assert_eq!(g.types().len(), 1);
        assert_eq!(g.schema().len(), 4);
    }

    #[test]
    fn exid_lookup() {
        let g = sample_graph();
        let r1 = exid(&g, "r1");
        assert_eq!(g.dict().decode(r1), Term::iri(ex("r1")));
    }

    /// Every fixture is well-behaved (the paper's standing assumption) and
    /// bit-identical across calls — the golden tests in
    /// `tests/paper_example.rs` depend on both without checking them.
    #[test]
    fn fixtures_are_well_behaved_and_deterministic() {
        for (name, build) in [
            ("sample", sample_graph as fn() -> Graph),
            ("figure5", figure5_graph),
            ("figure8", figure8_graph),
            ("figure10", figure10_graph),
            ("book", book_graph),
        ] {
            let g = build();
            assert!(
                g.well_behaved_violations().is_empty(),
                "{name} not well-behaved"
            );
            assert_eq!(
                rdf_io::write_graph(&g),
                rdf_io::write_graph(&build()),
                "{name} not deterministic"
            );
        }
    }

    /// r6 is Figure 2's typed-but-edgeless resource: it must appear in T_G
    /// only, so typed summaries represent it while W/S handle it as a node
    /// with no data properties.
    #[test]
    fn sample_r6_is_typed_only() {
        let g = sample_graph();
        let r6 = exid(&g, "r6");
        assert!(g.types().iter().any(|t| t.s == r6));
        assert!(!g.data().iter().any(|t| t.s == r6 || t.o == r6));
    }

    /// §2.1: saturating the book graph yields exactly the four implicit
    /// triples the paper lists, and nothing else.
    #[test]
    fn book_graph_has_exactly_four_implicit_triples() {
        let g = book_graph();
        let sat = rdf_schema::saturate(&g);
        assert_eq!(sat.len(), g.len() + 4);
        let id = |t: &Term| sat.dict().lookup(t).expect("term in saturation");
        let iri = |l: &str| Term::iri(ex(l));
        let implied = [
            (
                iri("doi1"),
                Term::iri(vocab::RDF_TYPE.to_string()),
                iri("Publication"),
            ),
            (iri("doi1"), iri("hasAuthor"), Term::blank("b1")),
            (
                iri("writtenBy"),
                Term::iri(vocab::RDFS_DOMAIN.to_string()),
                iri("Publication"),
            ),
            (
                Term::blank("b1"),
                Term::iri(vocab::RDF_TYPE.to_string()),
                iri("Person"),
            ),
        ];
        for (s, p, o) in &implied {
            let t = rdf_model::Triple::new(id(s), id(p), id(o));
            assert!(!g.contains(t), "{s} {p} {o} should be implicit only");
            assert!(sat.contains(t), "{s} {p} {o} missing from saturation");
        }
    }
}
