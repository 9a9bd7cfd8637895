//! `query_serving` group: what summary pruning buys the QUERY path.
//!
//! Two mixes per dataset, each evaluated two ways. The **empty mix** is
//! queries with provably no answers (vocabulary absent from the graph,
//! joins through it): the pruned path answers them with one ASK over the
//! tiny warm summary, the naive path pays a full graph join per query —
//! this is the payoff row, and the acceptance bar is `pruned < naive`.
//! The **nonempty mix** is real-vocabulary queries where pruning cannot
//! fire: its rows bound the overhead of the summary check + static plan
//! on answers that must be computed anyway (bar: within 10% of naive).
//!
//! Both paths parse the query text per request (that is what serving
//! costs); the service's summary is primed before measuring, exactly the
//! warm-store regime the server runs in.
//!
//! `query_large_answers` is the other end of the path: one request whose
//! answer is cut at the server's 10 000-row limit, on the benchmark's
//! `scan` graph (BSBM, 2 000 products) with the `scan` workload's texts —
//! `service.query` end to end, wire body included. `scan_10k_rows` and
//! `join_10k_rows` project every body variable (no distinct set),
//! `project_distinct` drops one (rows pass through the set).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rdf_model::{Graph, PrefixMap};
use rdf_query::{compile, parse_query, Evaluator};
use rdf_store::TripleStore;
use rdfsum_core::{SummaryKind, SummaryService};
use rdfsum_workloads::{BsbmConfig, LubmConfig};
use std::hint::black_box;
use std::time::Duration;

const LIMIT: usize = 10_000;

/// Vocabulary that co-occurs by construction: the most frequent data
/// property `p0`, a second property `p1` sharing subjects with it (or
/// `p0` itself), and the most common class among `p0`'s subjects — so
/// the nonempty mix's joins are guaranteed to have answers.
fn vocabulary(g: &Graph) -> (String, String, Option<String>) {
    use std::collections::{HashMap, HashSet};
    let mut counts: HashMap<_, usize> = Default::default();
    for t in g.data() {
        *counts.entry(t.p).or_default() += 1;
    }
    let mut by_freq: Vec<_> = counts.into_iter().collect();
    by_freq.sort_by_key(|&(p, n)| (std::cmp::Reverse(n), p));
    let p0_id = by_freq[0].0;
    let subjects: HashSet<_> = g
        .data()
        .iter()
        .filter(|t| t.p == p0_id)
        .map(|t| t.s)
        .collect();
    let mut co: HashMap<_, usize> = Default::default();
    for t in g.data() {
        if t.p != p0_id && subjects.contains(&t.s) {
            *co.entry(t.p).or_default() += 1;
        }
    }
    let p1_id = co
        .into_iter()
        .max_by_key(|&(p, n)| (n, p))
        .map_or(p0_id, |(p, _)| p);
    let mut classes: HashMap<_, usize> = Default::default();
    for t in g.types() {
        if subjects.contains(&t.s) {
            *classes.entry(t.o).or_default() += 1;
        }
    }
    let c0 = classes
        .into_iter()
        .max_by_key(|&(c, n)| (n, c))
        .map(|(c, _)| g.dict().decode(c).to_string());
    let p0 = g.dict().decode(p0_id).to_string();
    let p1 = g.dict().decode(p1_id).to_string();
    (p0, p1, c0)
}

/// Empty-answer candidates: **structurally** empty queries — every
/// property and class exists in the graph, but the join shape has no
/// embedding (chains through literal-valued properties, types that
/// never carry the property). These are the queries where pruning pays:
/// the naive path must exhaust a real join to learn the answer is
/// empty, the pruned path answers with one ASK on the tiny summary.
/// Unknown-vocabulary queries are included for mix realism, but they
/// are cheap for the naive path too (a dictionary miss at compile
/// time), so they are not where the win comes from.
fn empty_candidates(g: &Graph) -> Vec<String> {
    let (p0, p1, c0) = vocabulary(g);
    let mut c = vec![
        format!("q() :- ?x {p0} ?y, ?y {p0} ?z"),
        format!("q() :- ?x {p0} ?y, ?y {p1} ?z"),
        format!("q() :- ?x {p1} ?y, ?y {p0} ?z"),
        "q() :- ?x <http://nowhere.invalid/no-such-property> ?y".to_string(),
        format!("q(?x) :- ?x a <http://nowhere.invalid/NoSuchClass>, ?x {p0} ?y"),
    ];
    if let Some(c0) = &c0 {
        c.push(format!("q() :- ?x {p0} ?y, ?y a {c0}"));
    }
    c
}

/// The guaranteed-nonempty mix.
fn nonempty_mix(g: &Graph) -> Vec<String> {
    let (p0, p1, c0) = vocabulary(g);
    let mut nonempty = vec![
        format!("q(?x, ?y) :- ?x {p0} ?y"),
        format!("q(?x) :- ?x {p0} ?y, ?x {p1} ?z"),
    ];
    if let Some(c0) = c0 {
        nonempty.push(format!("q(?x) :- ?x a {c0}"));
        nonempty.push(format!("q(?x) :- ?x a {c0}, ?x {p0} ?y"));
    }
    nonempty
}

/// The naive serving path: parse, compile, dynamic-order evaluation on
/// the graph, rows materialized to the same `Vec<Vec<String>>` answer
/// the service's `QueryOutcome` carries (a server must hold its
/// serialized answer either way) — no summary consulted.
fn naive_eval(store: &TripleStore, text: &str) -> usize {
    let spec = parse_query(text, &PrefixMap::with_defaults()).unwrap();
    let q = compile(&spec, store.graph()).unwrap();
    let ev = Evaluator::new(store);
    if spec.is_boolean() {
        usize::from(ev.ask(&q))
    } else {
        let rs = ev.select_limit(&q, LIMIT);
        let rows: Vec<Vec<String>> = rs
            .decode(store)
            .into_iter()
            .map(|row| row.iter().map(|t| t.to_string()).collect())
            .collect();
        black_box(&rows);
        rows.len()
    }
}

fn bench_query_serving(c: &mut Criterion) {
    let datasets: Vec<(&str, Graph)> = vec![
        (
            "bsbm_30k",
            rdfsum_workloads::generate_bsbm(&BsbmConfig::with_products(300)),
        ),
        (
            "lubm_u2",
            rdfsum_workloads::generate_lubm(&LubmConfig::with_universities(2)),
        ),
    ];
    for (label, g) in datasets {
        let nonempty_mix = nonempty_mix(&g);
        let store = TripleStore::new(g.clone());
        let service = SummaryService::new(1);
        service.load_graph("g", g.clone());
        // Prime the summary: the serving regime is a warm store + warm
        // cache; pruning must never cost a rebuild per request.
        service.summarize("g", SummaryKind::Weak).unwrap();

        // Keep the empty candidates that really are empty on the graph
        // AND pruned by the summary (the structural ones depend on the
        // dataset's shape; the soundness suite lives in `tests/`, here
        // we only need a truthful workload).
        let candidates: Vec<(String, bool, bool)> = empty_candidates(&g)
            .into_iter()
            .map(|text| {
                let out = service.query("g", &text, None, LIMIT).unwrap();
                let empty = naive_eval(&store, &text) == 0;
                assert!(
                    !out.pruned || empty,
                    "pruning dropped a non-empty answer: {text}"
                );
                (text, empty, out.pruned)
            })
            .collect();
        let empty_mix: Vec<String> = candidates
            .iter()
            .filter(|(_, empty, pruned)| *empty && *pruned)
            .map(|(text, _, _)| text.clone())
            .collect();
        assert!(
            empty_mix.iter().any(|t| !t.contains("nowhere.invalid")),
            "{label}: no structurally-empty query survived — pruning win would be fake\n{candidates:#?}"
        );
        for text in &nonempty_mix {
            let out = service.query("g", text, None, LIMIT).unwrap();
            assert!(out.ask, "empty nonempty-mix query: {text}");
            assert!(naive_eval(&store, text) > 0);
        }

        let mut group = c.benchmark_group("query_serving");
        for (mix_name, mix) in [("empty_mix", &empty_mix), ("nonempty_mix", &nonempty_mix)] {
            group.throughput(Throughput::Elements(mix.len() as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("pruned_{mix_name}"), label),
                mix,
                |b, mix| {
                    b.iter(|| {
                        let mut rows = 0usize;
                        for text in mix {
                            let out = service.query("g", text, None, LIMIT).unwrap();
                            rows += out.row_count + usize::from(out.ask);
                        }
                        black_box(rows)
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("naive_{mix_name}"), label),
                mix,
                |b, mix| {
                    b.iter(|| {
                        let mut rows = 0usize;
                        for text in mix {
                            rows += naive_eval(&store, text);
                        }
                        black_box(rows)
                    })
                },
            );
        }
        // The pruning check itself, isolated: one relaxed ASK on the
        // warm summary per query of the empty mix.
        let (artifact, hit) = service.summarize("g", SummaryKind::Weak).unwrap();
        assert!(hit);
        let summary_store = &artifact.summary_store;
        group.bench_with_input(
            BenchmarkId::new("prune_check_only", label),
            &empty_mix,
            |b, mix| {
                b.iter(|| {
                    let mut pruned = 0usize;
                    for text in mix {
                        let spec = parse_query(text, &PrefixMap::with_defaults()).unwrap();
                        pruned += usize::from(rdf_query::empty_on_summary(summary_store, &spec));
                    }
                    black_box(pruned)
                })
            },
        );
        group.finish();
    }
}

fn bench_large_answers(c: &mut Criterion) {
    use rdfsum_workloads::bsbm::BSBM_NS;
    let service = SummaryService::new(1);
    service.load_graph(
        "g",
        rdfsum_workloads::generate_bsbm(&BsbmConfig::with_products(2000)),
    );
    service.summarize("g", SummaryKind::Weak).unwrap();
    let mut group = c.benchmark_group("query_large_answers");
    for (row, text) in [
        (
            "scan_10k_rows",
            format!("q(?x,?y) :- ?x <{BSBM_NS}price> ?y"),
        ),
        (
            "join_10k_rows",
            format!("q(?o,?p,?y) :- ?o <{BSBM_NS}product> ?p, ?o <{BSBM_NS}price> ?y"),
        ),
        (
            "project_distinct",
            format!("q(?x) :- ?x <{BSBM_NS}price> ?y"),
        ),
    ] {
        let out = service.query("g", &text, None, LIMIT).unwrap();
        assert!(out.truncated && out.row_count == LIMIT, "{row}: {text}");
        group.throughput(Throughput::Bytes(out.body.len() as u64));
        group.bench_function(row, |b| {
            b.iter(|| black_box(service.query("g", &text, None, LIMIT).unwrap().body.len()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_query_serving, bench_large_answers
}
criterion_main!(benches);
