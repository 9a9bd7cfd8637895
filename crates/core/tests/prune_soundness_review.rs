// placed as a test in crates/core
use rdf_model::{Graph, PrefixMap};
use rdf_query::{compile, empty_on_summary, parse_query, Evaluator};
use rdf_store::TripleStore;
use rdfsum_core::builder;
use rdfsum_core::summary::SummaryKind;

#[test]
fn cross_position_variable_prune_soundness() {
    let mut g = Graph::new();
    // `author` is a data property AND a data node (subject of a data triple).
    g.add_iri_triple("b1", "author", "alice");
    g.add_literal_triple("author", "note", "n1");
    let store = TripleStore::new(g.clone());
    let text = "q() :- ?x ?e ?y, ?e <note> ?z";
    let spec = parse_query(text, &PrefixMap::with_defaults()).unwrap();
    let q = compile(&spec, store.graph()).unwrap();
    assert!(
        Evaluator::new(&store).ask(&q),
        "query matches G (?e = author)"
    );
    for kind in [
        SummaryKind::Weak,
        SummaryKind::Strong,
        SummaryKind::TypedWeak,
        SummaryKind::TypedStrong,
        SummaryKind::TypeBased,
    ] {
        let summary = builder::summarize(&g, kind);
        let h = TripleStore::new(summary.graph);
        assert!(!empty_on_summary(&h, &spec), "UNSOUND PRUNE under {kind:?}");
    }
}
