//! QUERY serving correctness: the service's summary-pruned, plan-ordered
//! evaluation must be **set-identical** to the un-pruned dynamic
//! [`Evaluator`] on every fixture graph, for every summary kind — pruning
//! and join ordering are pure optimizations, never visible in answers.
//!
//! The query mix per fixture is derived from the graph's own vocabulary
//! (so every fixture exercises non-empty single patterns, joins, type
//! patterns and constants) plus queries that are guaranteed empty, where
//! the suite additionally asserts that the summary actually *pruned*
//! them (the unknown-property/class cases are provably empty on any
//! quotient summary).

use rdfsummary::prelude::*;
use rdfsummary::rdfsum_core::{fixtures, SummaryService};
use rdfsummary::rdfsum_workloads as workloads;
use std::collections::BTreeSet;

/// The five kinds the serving path must answer identically (the four
/// principal summaries plus the type-based one).
const FIVE_KINDS: [SummaryKind; 5] = [
    SummaryKind::Weak,
    SummaryKind::Strong,
    SummaryKind::TypedWeak,
    SummaryKind::TypedStrong,
    SummaryKind::TypeBased,
];

/// Every fixture graph of the correctness matrix.
fn fixture_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("book", fixtures::book_graph()),
        ("sample", fixtures::sample_graph()),
        ("figure5", fixtures::figure5_graph()),
        ("figure8", fixtures::figure8_graph()),
        ("figure10", fixtures::figure10_graph()),
        (
            "bsbm",
            workloads::generate_bsbm(&BsbmConfig::with_products(20)),
        ),
        (
            "lubm",
            workloads::generate_lubm(&LubmConfig::with_universities(1)),
        ),
        ("star", workloads::star(12)),
        ("chain", workloads::chain(12)),
        ("weak_chain", workloads::weak_chain(4)),
    ]
}

/// Builds a query mix out of the graph's own vocabulary. The second
/// tuple element marks queries that are *provably* empty on any summary
/// (their property/class does not exist in the graph), where pruning
/// must fire.
fn query_mix(g: &Graph) -> Vec<(String, bool)> {
    let mut props: Vec<String> = g
        .data_properties()
        .into_iter()
        .map(|p| g.dict().decode(p).to_string())
        .collect();
    props.sort();
    let mut classes: Vec<String> = g
        .types()
        .iter()
        .map(|t| g.dict().decode(t.o).to_string())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    classes.dedup();

    let mut mix = Vec::new();
    if let Some(p0) = props.first() {
        mix.push((format!("q(?x, ?y) :- ?x {p0} ?y"), false));
        mix.push((format!("q() :- ?x {p0} ?y, ?y {p0} ?z"), false));
        if let Some(p1) = props.get(1) {
            mix.push((format!("q(?x) :- ?x {p0} ?y, ?x {p1} ?z"), false));
        }
        // Constants from a real triple: non-empty by construction. Blank
        // nodes have no query-parser syntax, so pick a blank-free triple.
        let blank_free = g.data().iter().find(|t| {
            !g.dict().decode(t.s).to_string().starts_with("_:")
                && !g.dict().decode(t.o).to_string().starts_with("_:")
        });
        if let Some(t) = blank_free {
            let s = g.dict().decode(t.s).to_string();
            let p = g.dict().decode(t.p).to_string();
            let o = g.dict().decode(t.o).to_string();
            mix.push((format!("q(?y) :- {s} {p} ?y"), false));
            mix.push((format!("q() :- ?x {p} {o}"), false));
        }
    }
    if let Some(c0) = classes.first() {
        mix.push((format!("q(?x) :- ?x a {c0}"), false));
        if let Some(p0) = props.first() {
            mix.push((format!("q(?x) :- ?x a {c0}, ?x {p0} ?y"), false));
        }
    }
    // Guaranteed empty: vocabulary that exists in no fixture.
    mix.push((
        "q() :- ?x <http://example.org/no-such-property> ?y".into(),
        true,
    ));
    mix.push((
        "q(?x) :- ?x a <http://example.org/NoSuchClass>".into(),
        true,
    ));
    mix
}

/// Reference answers: the plain dynamic evaluator, no pruning, no plan.
fn reference_rows(store: &TripleStore, text: &str) -> (BTreeSet<Vec<String>>, bool) {
    let spec = parse_query(text, &PrefixMap::with_defaults()).unwrap();
    let q = compile(&spec, store.graph()).unwrap();
    let ev = Evaluator::new(store);
    if spec.is_boolean() {
        return (BTreeSet::new(), ev.ask(&q));
    }
    let rows: BTreeSet<Vec<String>> = ev
        .select(&q)
        .decode(store)
        .into_iter()
        .map(|row| {
            row.iter()
                .map(|cell| rdfsummary::rdf_io::writer::write_term(&cell.to_term()))
                .collect()
        })
        .collect();
    let ask = !rows.is_empty();
    (rows, ask)
}

/// The matrix: every fixture × every kind × the fixture's query mix,
/// service answers vs. the un-pruned evaluator.
#[test]
fn query_serving_matches_unpruned_evaluation_on_all_fixtures() {
    for (name, g) in fixture_graphs() {
        let reference = TripleStore::new(g.clone());
        let mix = query_mix(&g);
        assert!(mix.len() >= 4, "{name}: degenerate query mix");
        let service = SummaryService::new(2);
        service.load_graph(name, g);
        for kind in FIVE_KINDS {
            for (text, provably_empty) in &mix {
                let out = service
                    .query(name, text, Some(kind), usize::MAX)
                    .unwrap_or_else(|e| panic!("{name}/{kind:?}/{text}: {e}"));
                let (want_rows, want_ask) = reference_rows(&reference, text);
                let got_rows: BTreeSet<Vec<String>> = out
                    .rows()
                    .map(|row| row.into_iter().map(String::from).collect())
                    .collect();
                assert_eq!(
                    got_rows, want_rows,
                    "{name} × {kind:?}: rows diverged for `{text}`"
                );
                assert_eq!(
                    out.ask, want_ask,
                    "{name} × {kind:?}: ask diverged for `{text}`"
                );
                if out.pruned {
                    // Pruning must never fire on a non-empty answer.
                    assert!(!want_ask, "{name} × {kind:?}: pruned non-empty `{text}`");
                }
                if *provably_empty {
                    assert!(
                        out.pruned,
                        "{name} × {kind:?}: summary failed to prune `{text}`"
                    );
                }
            }
        }
    }
}

/// The same contract over the wire: a live server's QUERY responses
/// carry exactly the reference rows (order-insensitively) for a couple
/// of representative queries.
#[test]
fn wire_query_matches_reference() {
    use rdfsummary::rdfsum_server::Client;
    let dir = std::env::temp_dir().join(format!("rdfsummary_qs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let g = fixtures::book_graph();
    let path = dir.join("book.nt");
    save_path(&g, &path).unwrap();
    let name = path.to_str().unwrap();
    let reference = TripleStore::new(g.clone());

    let service = std::sync::Arc::new(SummaryService::new(2));
    let handle = rdfsummary::rdfsum_server::spawn("127.0.0.1:0", service, 2).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(client.load(name).unwrap().is_ok());

    for (text, _) in query_mix(&g) {
        let resp = client.query(name, &text).unwrap();
        assert!(resp.is_ok(), "`{text}` → {}", resp.status);
        let (want_rows, want_ask) = reference_rows(&reference, &text);
        let body = resp.body_str().unwrap();
        let mut lines = body.lines();
        let spec = parse_query(&text, &PrefixMap::with_defaults()).unwrap();
        if spec.is_boolean() {
            assert_eq!(
                body,
                if want_ask { "true\n" } else { "false\n" },
                "`{text}`"
            );
        } else {
            let header = lines.next().unwrap();
            assert_eq!(header.split('\t').count(), spec.head.len(), "`{text}`");
            let got: BTreeSet<Vec<String>> = lines
                .map(|l| l.split('\t').map(str::to_string).collect())
                .collect();
            assert_eq!(got, want_rows, "`{text}` rows diverged over the wire");
            assert_eq!(
                resp.field("rows"),
                Some(want_rows.len().to_string().as_str())
            );
        }
    }
    handle.shutdown();
}
