//! The one carry path under generated `UPDATE` sequences (the seed of
//! ROADMAP 8a, and the acceptance test a resident substrate has to pass).
//!
//! A [`SummaryService`] with all six kinds warm takes random interleavings
//! of insert and delete batches; a [`TripleStore`] beside it takes the same
//! batches and is the model. After every batch each served summary must
//! equal, byte for byte, what a one-shard [`SummaryContext`] builds from
//! the model's graph; the update must report one rebuild per warm kind;
//! `builds == patch_fallbacks + misses` must hold; a `QUERY` naming no
//! kind must answer what the un-pruned evaluator answers on the model;
//! and every batch that changed the graph must be accounted for by the
//! kept substrate — absorbed in place (`substrate_absorbs`), or dropped
//! and scanned anew by the carry (`substrate_scans`) — with the generated
//! sequences taking each of those paths.
//!
//! Cases are a pure function of the test's name and the case index (the
//! workspace's proptest stand-in seeds from them) and the case budgets are
//! fixed here, so every run checks the same sequences.

use proptest::prelude::*;
use rdf_model::{vocab, Component, Graph, PrefixMap, Term};
use rdf_store::TripleStore;
use rdfsum_core::persist::ALL_KINDS;
use rdfsum_core::{fixtures, QueryOutcome, SummaryContext, SummaryService};
use rdfsum_workloads::BsbmConfig;
use std::collections::BTreeSet;
use std::sync::OnceLock;

type TermTriple = (Term, Term, Term);

/// One generated triple: a shape (see [`triple`]) and three small indices
/// into that shape's term pools. The pools hold five terms at most, so a
/// sequence keeps meeting its own triples again: duplicates inside a
/// batch, inserts of present triples, deletes of absent ones, and inserts
/// that re-add what an earlier batch deleted.
type Spec = (u8, usize, usize, usize);

/// One generated `UPDATE`: the verb (`0` deletes, anything else inserts),
/// its triples, and whether the first of them is sent a second time.
type Batch = (u8, Vec<Spec>, bool);

fn arb_batches(max: usize) -> impl Strategy<Value = Vec<Batch>> {
    let spec = (0u8..7, 0usize..5, 0usize..5, 0usize..3);
    let batch = (0u8..3, proptest::collection::vec(spec, 1..8), any::<bool>());
    proptest::collection::vec(batch, 1..max)
}

/// The term triple `spec` stands for over the loaded graph `base`.
fn triple(base: &Graph, (shape, a, b, c): Spec) -> TermTriple {
    let fresh = |pool: &str, i: usize| Term::iri(format!("urn:u:{pool}{i}"));
    // Five data triples of the loaded graph, spread over it.
    let loaded = |i: usize| base.data()[i * base.data().len() / 5];
    let term = |id| base.dict().decode(id).to_term();
    let tau = Term::iri(vocab::RDF_TYPE);
    match shape {
        // New nodes on new properties, subjects and objects from one pool.
        0 => (fresh("n", a), fresh("p", c), fresh("n", b)),
        // A loaded subject gains a new property.
        1 => (term(loaded(a).s), fresh("p", c), fresh("n", b)),
        // A new subject on a loaded property and object: cliques join.
        2 => (fresh("n", a), term(loaded(b).p), term(loaded(c).o)),
        // A new subject is typed (typed-only until a data triple names it).
        3 => (fresh("n", a), tau, fresh("C", c)),
        // A loaded subject gains a class.
        4 => (term(loaded(a).s), tau, fresh("C", c)),
        // Schema.
        5 => (
            fresh("C", c),
            Term::iri(vocab::RDFS_SUBCLASSOF),
            fresh("C", b),
        ),
        // A loaded triple itself: a duplicate to insert, a real delete.
        _ => {
            let t = loaded(a);
            (term(t.s), term(t.p), term(t.o))
        }
    }
}

/// Queries over the update vocabulary: a scan, a join, two type lookups
/// and a pattern no content ever matches.
const QUERIES: [&str; 5] = [
    "q(?x, ?y) :- ?x <urn:u:p0> ?y",
    "q(?x, ?z) :- ?x <urn:u:p0> ?y, ?y <urn:u:p1> ?z",
    "q(?x) :- ?x a <urn:u:C0>",
    "q(?c) :- <urn:u:n0> a ?c",
    "q(?x) :- ?x <urn:no-such-property> ?y",
];

type RowSet = BTreeSet<Vec<String>>;

/// The answer set of `text` on `store` by the un-pruned evaluator.
fn oracle_rows(store: &TripleStore, text: &str) -> RowSet {
    let spec = rdf_query::parse_query(text, &PrefixMap::with_defaults()).unwrap();
    let q = rdf_query::compile(&spec, store.graph()).unwrap();
    rdf_query::Evaluator::new(store)
        .select(&q)
        .decode(store)
        .into_iter()
        .map(|row| {
            row.iter()
                .map(|t| rdf_io::writer::write_term(&t.to_term()))
                .collect()
        })
        .collect()
}

/// The rows of a served answer, as a set.
fn row_set(out: &QueryOutcome) -> RowSet {
    out.rows()
        .map(|row| row.into_iter().map(String::from).collect())
        .collect()
}

/// How the kept substrate took the batches of one or more sequences.
#[derive(Clone, Copy, Debug, Default)]
struct Paths {
    /// Insert batches absorbed in place.
    absorbed: u64,
    /// Insert batches the substrate refused (the carry scanned).
    refused: u64,
    /// Delete batches that changed the graph (the carry scanned).
    deleted: u64,
}

/// Drives `batches` through a service over `base` with every kind warm,
/// checking the whole contract after each one. Returns how the substrate
/// took them.
fn check_sequence(
    base: &Graph,
    threads: usize,
    batches: &[Batch],
) -> Result<Paths, proptest::TestCaseError> {
    let svc = SummaryService::new(threads);
    svc.load_graph("g", base.clone());
    for kind in ALL_KINDS {
        svc.summarize("g", kind).unwrap();
    }
    let mut model = TripleStore::new(base.clone());
    // The subject of the first loaded triple: its row changes under shapes
    // 1, 4 and 6.
    let loaded_subject = base.dict().decode(base.data()[0].s).to_string();
    let loaded_row = format!("q(?p, ?o) :- {loaded_subject} ?p ?o");
    let mut paths = Paths::default();
    for (step, (verb, specs, repeat)) in batches.iter().enumerate() {
        let mut batch: Vec<TermTriple> = specs.iter().map(|&s| triple(base, s)).collect();
        if *repeat {
            batch.push(batch[0].clone());
        }
        let insert = *verb != 0;
        let out = svc.update("g", insert, &batch).unwrap();
        let expect = if insert {
            model.insert_batch(&batch).unwrap()
        } else {
            model.delete_batch(&batch)
        };
        prop_assert_eq!(out.applied, expect.applied.len(), "step {}", step);
        prop_assert_eq!(out.fingerprint, expect.fingerprint, "step {}", step);
        let carried = if out.applied == 0 { 0 } else { ALL_KINDS.len() };
        prop_assert_eq!(out.rebuilt, carried, "step {}", step);
        let cold = SummaryContext::new(model.graph());
        for kind in ALL_KINDS {
            let (artifact, hit) = svc.summarize("g", kind).unwrap();
            prop_assert!(hit, "step {}: {} went cold", step, kind);
            prop_assert_eq!(artifact.fingerprint, expect.fingerprint);
            prop_assert!(
                artifact.ntriples == rdf_io::write_graph(&cold.summarize(kind).graph),
                "step {}: served {} differs from a cold build",
                step,
                kind
            );
        }
        for text in QUERIES.into_iter().chain([loaded_row.as_str()]) {
            let answer = svc.query("g", text, None, usize::MAX).unwrap();
            prop_assert!(
                answer.cache_hit,
                "step {}: `{}` built a summary",
                step,
                text
            );
            prop_assert_eq!(
                row_set(&answer),
                oracle_rows(&model, text),
                "step {}: `{}`",
                step,
                text
            );
        }
        let st = svc.stats();
        prop_assert_eq!(st.builds, st.patch_fallbacks + st.misses, "step {}", step);
        // One scan by the warm-up; since then every batch that changed the
        // graph was absorbed, or made the carry scan — a delete always, a
        // schema-only one excepted: the substrate reads no schema row.
        if out.applied > 0 {
            if st.substrate_absorbs > paths.absorbed {
                let wk = model.graph().well_known();
                let schema_only = |t: &rdf_model::Triple| wk.component_of(t.p) == Component::Schema;
                prop_assert!(
                    insert || expect.applied.iter().all(schema_only),
                    "step {}: absorbed a delete",
                    step
                );
                paths.absorbed += 1;
            } else if insert {
                paths.refused += 1;
            } else {
                paths.deleted += 1;
            }
        }
        prop_assert_eq!(st.substrate_absorbs, paths.absorbed, "step {}", step);
        prop_assert_eq!(
            st.substrate_scans,
            1 + paths.refused + paths.deleted,
            "step {}",
            step
        );
    }
    Ok(paths)
}

/// A BSBM graph above the shard floor: at two threads every context of
/// the service runs its emission on two workers.
fn sharding_graph() -> &'static Graph {
    static GRAPH: OnceLock<Graph> = OnceLock::new();
    GRAPH.get_or_init(|| {
        let g = rdfsum_workloads::generate_bsbm(&BsbmConfig::with_products(900));
        assert_eq!(rdfsum_core::parallel::shard_count(g.data().len(), 2), 2);
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// Below the floor: the carry's context runs on one worker. All 48
    /// sequences are one generated case, so that what they add up to can
    /// be checked: each way the kept substrate can take a batch is taken.
    #[test]
    fn carried_summaries_match_cold_builds_on_fixtures(
        cases in proptest::collection::vec((0usize..3, arb_batches(8)), 48..49),
    ) {
        let mut total = Paths::default();
        for (which, batches) in &cases {
            let base = [fixtures::sample_graph, fixtures::figure5_graph, fixtures::book_graph][*which]();
            let paths = check_sequence(&base, 1, batches)?;
            total.absorbed += paths.absorbed;
            total.refused += paths.refused;
            total.deleted += paths.deleted;
        }
        prop_assert!(
            total.absorbed > 0 && total.refused > 0 && total.deleted > 0,
            "a path no sequence took: {:?}",
            total
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Above the floor at `threads = 2`: the carry's context emits on two
    /// workers, the cold build it is compared with on one.
    #[test]
    fn carried_summaries_match_cold_builds_above_the_shard_floor(batches in arb_batches(4)) {
        check_sequence(sharding_graph(), 2, &batches)?;
    }
}
