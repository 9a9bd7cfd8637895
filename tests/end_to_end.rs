//! Full-pipeline integration tests: generate → serialize → parse → store →
//! saturate → summarize → query, across crates.

use rdfsummary::prelude::*;
use rdfsummary::rdf_query::{sample_rbgp_queries, WorkloadConfig};
use rdfsummary::rdfsum_workloads as workloads;

#[test]
fn bsbm_roundtrip_and_summaries() {
    let g = workloads::generate_bsbm(&BsbmConfig::with_products(60));
    // Serialize + reparse: identical triple count and identical summaries.
    let text = write_graph(&g);
    let g2 = parse_graph(&text).unwrap();
    assert_eq!(g.len(), g2.len());
    for kind in [SummaryKind::Weak, SummaryKind::Strong] {
        let a = summarize(&g, kind);
        let b = summarize(&g2, kind);
        assert!(
            rdfsummary::rdfsum_experiments::summary_isomorphic(&a.graph, &b.graph),
            "{kind} differs after round trip"
        );
    }
}

#[test]
fn lubm_saturate_then_query() {
    let g = workloads::generate_lubm(&LubmConfig::with_universities(1));
    let sat = saturate(&g);
    let store = TripleStore::new(sat);
    // Every professor worksFor ⇒ is an Employee (via Faculty) in G∞.
    let q = parse_query(
        &format!(
            "q(?x) :- ?x a <{0}Employee>, ?x <{0}worksFor> ?d",
            workloads::lubm::UNIV_NS
        ),
        &PrefixMap::with_defaults(),
    )
    .unwrap();
    let cq = compile(&q, store.graph()).unwrap();
    let rs = Evaluator::new(&store).select(&cq);
    assert!(rs.len() > 5, "expected many employees, got {}", rs.len());
}

#[test]
fn summaries_much_smaller_than_input() {
    let g = workloads::generate_bsbm(&BsbmConfig::with_products(150));
    for (s, kind) in summarize_all(&g).iter().zip(SummaryKind::ALL) {
        let ratio = s.compression_ratio(g.len());
        assert!(ratio < 0.05, "{kind} summary too large: ratio {ratio}");
        // Every data node of G is represented.
        assert_eq!(s.n_represented(), g.data_nodes().len());
    }
}

#[test]
fn store_scans_match_graph_contents() {
    let g = workloads::generate_bsbm(&BsbmConfig::with_products(25));
    let store = TripleStore::new(g.clone());
    assert_eq!(store.len(), g.len());
    for t in g.iter().take(200) {
        assert!(store.contains(t));
        assert!(store.any(TriplePattern::new(Some(t.s), None, None)));
        assert!(store.any(TriplePattern::new(None, Some(t.p), Some(t.o))));
    }
}

#[test]
fn sampled_queries_answerable_end_to_end() {
    let g = workloads::generate_bsbm(&BsbmConfig::with_products(40));
    let store = TripleStore::new(g.clone());
    let queries = sample_rbgp_queries(
        &store,
        &WorkloadConfig {
            queries: 25,
            patterns_per_query: 3,
            seed: 0xE2E,
            ..Default::default()
        },
    );
    assert_eq!(queries.len(), 25);
    let ev = Evaluator::new(&store);
    for q in &queries {
        let cq = compile(q, store.graph()).unwrap();
        assert!(ev.ask(&cq), "sampled query empty: {q}");
        // And its textual form parses back to the same query.
        let reparsed = parse_query(&q.to_string(), &PrefixMap::with_defaults()).unwrap();
        assert_eq!(&reparsed, q);
    }
}

#[test]
fn dot_export_all_summaries() {
    let g = workloads::generate_bsbm(&BsbmConfig::with_products(10));
    for s in summarize_all(&g) {
        let dot = to_dot(&s.graph, &DotOptions::default());
        assert!(dot.starts_with("digraph"));
        assert!(dot.ends_with("}\n"));
    }
}

#[test]
fn file_io_roundtrip() {
    let dir = std::env::temp_dir().join("rdfsummary_test_io");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sample.nt");
    let g = rdfsummary::rdfsum_core::fixtures::sample_graph();
    save_path(&g, &path).unwrap();
    let g2 = load_path(&path).unwrap();
    assert_eq!(g.len(), g2.len());
    std::fs::remove_file(&path).ok();
}
