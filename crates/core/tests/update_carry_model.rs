//! The one carry path under generated `UPDATE` sequences (ROADMAP 8a: a
//! model-based differential test of the service).
//!
//! A [`SummaryService`] with all six kinds warm takes random interleavings
//! of insert and delete batches; a [`TripleStore`] beside it takes the same
//! batches and is the model. After every batch each carried artifact —
//! whether its quotient map extended by the batch (*patched*) or the carry
//! rebuilt it — must equal, field by field, the artifact a cold
//! service builds from the model's graph: body bytes, summary-store
//! triples, node, edge and input counts, every cardinality figure; with a
//! persist dir, its `.sum` file must be the cold artifact's encoding byte
//! for byte. The update must report `patched + rebuilt` = the carried
//! kinds; `builds == patch_fallbacks + misses` must hold, every fallback
//! counted under one refusal reason; a `QUERY` naming no kind must answer
//! what the un-pruned evaluator answers on the model; and every batch that
//! changed the graph must be accounted for by the kept substrate — an
//! insert absorbed in place (`substrate_absorbs`), a delete retracted in
//! place (`substrate_retracts`), or either dropped and scanned anew by the
//! carry (`substrate_scans`). The generated sequences take the patched
//! path for inserts and deletes and every refusal reason;
//! [`each_shape_takes_its_path`] pins which one each shape of batch takes.
//!
//! Cases are a pure function of the test's name and the case index (the
//! workspace's proptest stand-in seeds from them) and the case budgets are
//! fixed here, so every run checks the same sequences.

use proptest::prelude::*;
use proptest::TestCaseError;
use rdf_model::{vocab, Graph, PrefixMap, Term};
use rdf_store::TripleStore;
use rdfsum_core::persist::{artifact_file_name, encode_artifact};
use rdfsum_core::{
    fixtures, QueryOutcome, ServiceStats, SummaryArtifact, SummaryKind, SummaryService,
};
use rdfsum_workloads::BsbmConfig;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::OnceLock;

type TermTriple = (Term, Term, Term);

/// One generated statement group: a shape (see [`triples`]) and three
/// small indices into that shape's term pools. The pools hold five terms
/// at most, so a sequence keeps meeting its own triples and nodes again:
/// duplicates inside a batch, inserts of present triples, deletes of
/// absent ones, re-adds of deleted ones, typed-only nodes that gain data
/// later, whole copies of a node inserted and deleted again.
type Spec = (u8, usize, usize, usize);

/// One generated `UPDATE`: the verb (`0` deletes, anything else inserts),
/// its triples, and whether the first of them is sent a second time.
type Batch = (u8, Vec<Spec>, bool);

fn arb_batches(max: usize) -> impl Strategy<Value = Vec<Batch>> {
    let spec = (0u8..10, 0usize..5, 0usize..5, 0usize..3);
    let batch = (0u8..4, proptest::collection::vec(spec, 1..8), any::<bool>());
    proptest::collection::vec(batch, 1..max)
}

/// The term triples `spec` stands for over the loaded graph `base`.
fn triples(base: &Graph, spec: Spec) -> Vec<TermTriple> {
    let (shape, a, b, _) = spec;
    if shape != 9 {
        return vec![triple(base, spec)];
    }
    // A fresh node with every row a loaded subject has, in their order —
    // an offer of the `explore_update` writer on BSBM: inserted, a new
    // member of existing classes; deleted whole, the writer's delete.
    let s = base.data()[a * base.data().len() / 5].s;
    let term = |id| base.dict().decode(id).to_term();
    let copy = Term::iri(format!("urn:u:copy{b}"));
    base.types()
        .iter()
        .chain(base.data())
        .filter(|t| t.s == s)
        .map(|t| (copy.clone(), term(t.p), term(t.o)))
        .collect()
}

/// The term triple a one-triple `spec` stands for over `base`.
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
        // A new subject on a loaded property and object: cliques join, or
        // the object already has that property's clique.
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
        // A new subject along a loaded edge into a new object: new members
        // of existing classes — unless a pool node is already typed, a
        // value, or on another edge, and its keys name two classes.
        6 => (fresh("n", a), term(loaded(b).p), fresh("n", c)),
        // A loaded subject's own property into a new node.
        7 => {
            let t = loaded(a);
            (term(t.s), term(t.p), fresh("n", b))
        }
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

/// Every field of the served artifact against the cold build `want`; the
/// cardinality figures (keyed by `g`'s ids, which both services share:
/// they took the same batches in the same order) by IRI.
fn same_artifact(
    served: &SummaryArtifact,
    want: &SummaryArtifact,
    g: &Graph,
) -> Result<(), TestCaseError> {
    let kind = want.kind;
    prop_assert!(served.ntriples == want.ntriples, "{} body", kind);
    let counts = |a: &SummaryArtifact| (a.summary_nodes, a.summary_edges, a.input_triples);
    prop_assert_eq!(counts(served), counts(want), "{} counts", kind);
    let triples = |a: &SummaryArtifact| -> Vec<String> {
        let h = a.summary_store.graph().dict();
        let spo = a.summary_store.spo().as_slice();
        let term = |id| h.decode(id).to_string();
        spo.iter()
            .map(|t| format!("{} {} {}", term(t.s), term(t.p), term(t.o)))
            .collect()
    };
    prop_assert!(triples(served) == triples(want), "{} summary store", kind);
    let figures = |a: &SummaryArtifact| {
        let c = &a.cardinality;
        let iri = |id| g.dict().decode(id).to_string();
        let props: BTreeSet<_> = c
            .iter_properties()
            .map(|(p, card)| (iri(p), card.triples, card.subjects, card.objects))
            .collect();
        let classes: BTreeSet<_> = c.iter_classes().map(|(k, n)| (iri(k), n)).collect();
        (c.kind(), c.n_data_nodes(), props, classes)
    };
    prop_assert_eq!(figures(served), figures(want), "{} cardinality", kind);
    Ok(())
}

/// How the carries of one or more sequences went: per kind carried, and
/// per batch for the kept substrate.
#[derive(Clone, Copy, Debug, Default)]
struct Paths {
    /// Carries the maps extended.
    patched: u64,
    /// Carries rebuilt, by refusal reason.
    stale: u64,
    structural: u64,
    no_map: u64,
    /// Insert batches the substrate absorbed in place.
    absorbed: u64,
    /// Delete batches the substrate retracted in place.
    retracted: u64,
    /// Insert batches the substrate refused (the carry scanned).
    refused: u64,
    /// Delete batches the substrate refused (the carry scanned).
    deleted: u64,
}

impl Paths {
    fn add(&mut self, other: Paths) {
        self.patched += other.patched;
        self.stale += other.stale;
        self.structural += other.structural;
        self.no_map += other.no_map;
        self.absorbed += other.absorbed;
        self.retracted += other.retracted;
        self.refused += other.refused;
        self.deleted += other.deleted;
    }
}

/// What a sequence starts from besides its graph.
#[derive(Clone, Copy, Debug)]
struct Setup {
    /// A second resident name holds the same content, and `w` is built
    /// through it — from its substrate, not from the updated graph's.
    twin: bool,
    /// The service persists its artifacts (into a scratch dir of the
    /// sequence's own).
    persist: bool,
}

/// A scratch persist dir, wiped of any previous run's leftovers.
fn persist_dir(tag: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdfsum_carry_model_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Drives `batches` through a service over `base` with every kind warm,
/// checking the whole contract after each one. Returns how the carries
/// and the substrate took them.
fn check_sequence(
    base: &Graph,
    threads: usize,
    batches: &[Batch],
    setup: Setup,
    tag: usize,
) -> Result<Paths, TestCaseError> {
    let dir = setup.persist.then(|| persist_dir(tag));
    let svc = match &dir {
        Some(dir) => SummaryService::new(threads).with_persist_dir(dir),
        None => SummaryService::new(threads),
    };
    svc.load_graph("g", base.clone());
    if setup.twin {
        svc.load_graph("twin", base.clone());
        svc.summarize("twin", SummaryKind::EVERY[0]).unwrap();
    }
    for kind in SummaryKind::EVERY {
        svc.summarize("g", kind).unwrap();
    }
    let warm = svc.stats();
    let (loaded, _) = svc.graph_info("g").unwrap();
    // Whether the updated graph keeps a substrate: its first build scanned
    // one; a batch it cannot absorb empties the cell, the next rebuild
    // scans again.
    let (mut kept, mut scans) = (true, 0);
    let mut model = TripleStore::new(base.clone());
    // The subject of the first loaded triple: its row changes under shapes
    // 1, 4, 7 and 8.
    let loaded_subject = base.dict().decode(base.data()[0].s).to_string();
    let loaded_row = format!("q(?p, ?o) :- {loaded_subject} ?p ?o");
    let mut paths = Paths::default();
    for (step, (verb, specs, repeat)) in batches.iter().enumerate() {
        let mut batch: Vec<TermTriple> = specs.iter().flat_map(|&s| triples(base, s)).collect();
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
        // Back on the loaded content, the twin's lines are still there:
        // nothing to carry.
        let back = setup.twin && expect.fingerprint == loaded;
        let carried = if out.applied == 0 || back {
            0
        } else {
            SummaryKind::EVERY.len()
        };
        prop_assert_eq!(out.patched + out.rebuilt, carried, "step {}", step);
        let cold = SummaryService::new(1);
        cold.load_graph("g", model.graph().clone());
        for kind in SummaryKind::EVERY {
            let (artifact, hit) = svc.summarize("g", kind).unwrap();
            prop_assert!(hit, "step {}: {} went cold", step, kind);
            prop_assert_eq!(artifact.fingerprint, expect.fingerprint);
            let (want, _) = cold.summarize("g", kind).unwrap();
            same_artifact(&artifact, &want, model.graph())
                .map_err(|e| TestCaseError::fail(format!("step {step}: {e}")))?;
            if let Some(dir) = &dir {
                let file = dir.join(artifact_file_name(expect.fingerprint, kind));
                prop_assert!(
                    std::fs::read(&file).ok() == encode_artifact(&want, model.graph()),
                    "step {}: {} differs from a cold build's",
                    step,
                    file.display()
                );
            }
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
        let since = |f: fn(&ServiceStats) -> u64| f(&st) - f(&warm);
        prop_assert_eq!(
            (since(|s| s.patches), since(|s| s.patch_fallbacks)),
            (
                paths.patched + out.patched as u64,
                paths.stale + paths.structural + paths.no_map + out.rebuilt as u64
            ),
            "step {}",
            step
        );
        paths.patched = since(|s| s.patches);
        (paths.stale, paths.structural, paths.no_map) = (
            since(|s| s.refused_stale),
            since(|s| s.refused_structural),
            since(|s| s.refused_no_map),
        );
        // Since the warm-up every batch that changed the graph was
        // absorbed (an insert) or retracted (a delete) by the kept
        // substrate, or emptied its cell, and the first rebuild after that
        // scanned.
        if out.applied > 0 {
            let absorbed = since(|s| s.substrate_absorbs) - paths.absorbed;
            let retracted = since(|s| s.substrate_retracts) - paths.retracted;
            if absorbed + retracted > 0 {
                prop_assert!(kept, "step {}: stepped without a substrate", step);
                prop_assert_eq!(
                    (absorbed, retracted),
                    if insert { (1, 0) } else { (0, 1) },
                    "step {}: a batch the other way",
                    step
                );
                paths.absorbed += absorbed;
                paths.retracted += retracted;
            } else if kept {
                kept = false;
                if insert {
                    paths.refused += 1;
                } else {
                    paths.deleted += 1;
                }
            }
            if !kept && out.rebuilt > 0 {
                (kept, scans) = (true, scans + 1);
            }
        }
        prop_assert_eq!(
            (
                since(|s| s.substrate_absorbs),
                since(|s| s.substrate_retracts)
            ),
            (paths.absorbed, paths.retracted),
            "step {}",
            step
        );
        prop_assert_eq!(since(|s| s.substrate_scans), scans, "step {}", step);
    }
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(paths)
}

/// A 900-product BSBM graph.
fn bsbm_graph() -> &'static Graph {
    static GRAPH: OnceLock<Graph> = OnceLock::new();
    GRAPH.get_or_init(|| rdfsum_workloads::generate_bsbm(&BsbmConfig::with_products(900)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// On the paper's fixtures, at one index worker. All 48
    /// sequences are one generated case, so that what they add up to can
    /// be checked: every way a carry and the kept substrate can take a
    /// batch is taken.
    #[test]
    fn carried_summaries_match_cold_builds_on_fixtures(
        cases in proptest::collection::vec((0usize..3, arb_batches(8), 0u8..4), 48..49),
    ) {
        let mut total = Paths::default();
        for (tag, (which, batches, setup)) in cases.iter().enumerate() {
            let base = [fixtures::sample_graph, fixtures::figure5_graph, fixtures::book_graph][*which]();
            let setup = Setup { twin: setup & 1 != 0, persist: setup & 2 != 0 };
            total.add(check_sequence(&base, 1, batches, setup, tag)?);
        }
        prop_assert!(
            [total.patched, total.stale, total.structural, total.no_map].iter().all(|&n| n > 0)
                && total.absorbed > 0 && total.refused > 0
                && total.retracted > 0 && total.deleted > 0,
            "a path no sequence took: {:?}",
            total
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// On a BSBM graph past 65 536 data triples, at two index workers;
    /// the cold service it is compared with sorts on one. After the
    /// generated batches, two copies of loaded nodes are inserted and
    /// deleted whole, the way the `explore_update` writer inserts and
    /// deletes offers: the deletes retract, and patch, at scale.
    #[test]
    fn carried_summaries_match_cold_builds_above_the_shard_floor(batches in arb_batches(4)) {
        let setup = Setup { twin: false, persist: false };
        let copies = [(1, 0), (3, 1)];
        let mut batches = batches;
        for verb in [1, 0] {
            batches.extend(copies.map(|(a, b)| (verb, vec![(9, a, b, 0)], false)));
        }
        let paths = check_sequence(bsbm_graph(), 2, &batches, setup, usize::MAX)?;
        prop_assert!(paths.retracted > 0 && paths.patched > 0, "{:?}", paths);
    }
}

/// Each shape of batch a carry meets, on the paper's Figure 2 graph (plus
/// the few rows a delete shape needs in place first) with the five clique
/// and type kinds warm: which kinds the maps carry by it and why the
/// others rebuild — `(patched, stale, structural)` — and every carried
/// body a cold build's.
#[test]
fn each_shape_takes_its_path() {
    const FIVE: [rdfsum_core::SummaryKind; 5] = {
        let [w, tw, s, ts, t, _fb] = SummaryKind::EVERY;
        [w, s, tw, ts, t]
    };
    let ex = |local: &str| Term::iri(format!("{}{local}", fixtures::EX));
    let tau = || Term::iri(vocab::RDF_TYPE);
    let row = |s: &str, p: &str, o: &str| (ex(s), ex(p), ex(o));
    let typed = |s: &str, c: &str| (ex(s), tau(), ex(c));
    type Case = (&'static str, Vec<TermTriple>, bool, (usize, usize, usize));
    let cases: Vec<Case> = vec![
        // A new title: a new member of the titles' class, along an edge
        // every kind has — but T keeps every untyped node a class of its own.
        (
            "new member, old edge",
            vec![row("r1", "title", "t5")],
            true,
            (4, 0, 1),
        ),
        (
            "new property",
            vec![row("r3", "rating", "x1")],
            true,
            (0, 0, 5),
        ),
        // `c1`'s target clique {comment} joins {title}.
        (
            "cliques join",
            vec![row("r3", "title", "c1")],
            true,
            (0, 0, 5),
        ),
        // `n1` publishes (the `e` class) and is authored (the `a` class).
        (
            "node links two weak classes",
            vec![row("n1", "published", "r4"), row("r1", "author", "n1")],
            true,
            (0, 0, 5),
        ),
        (
            "new class set",
            vec![typed("n1", "NewClass")],
            true,
            (0, 0, 5),
        ),
        (
            "typed-only node gains data",
            vec![row("r6", "title", "t7")],
            true,
            (0, 0, 5),
        ),
        // `o1` is the only {Only} resource and has no data; `n1` joins its
        // class with data.
        (
            "new data node joins an all-typed-only class",
            vec![typed("n1", "Only"), row("n1", "title", "t7")],
            true,
            (0, 0, 5),
        ),
        // W and S have `editor` from the class of `r1`; the Book class of
        // the typed kinds does not.
        (
            "new quotient edge",
            vec![row("r1", "editor", "e3")],
            true,
            (2, 0, 3),
        ),
        (
            "schema row",
            vec![(ex("Book"), Term::iri(vocab::RDFS_SUBCLASSOF), ex("Doc"))],
            true,
            (0, 0, 5),
        ),
    ];
    // Deletes, each over the sample graph grown by the rows before it.
    type DeleteCase = (
        &'static str,
        Vec<TermTriple>,
        Vec<TermTriple>,
        (usize, usize, usize),
    );
    let deletes: Vec<DeleteCase> = vec![
        // `n2` goes whole; `n1` keeps its {Spec} set, its class and the
        // `cites` edge into the Book class.
        (
            "delete: a whole node with a shared shape",
            vec![
                typed("n1", "Spec"),
                typed("n2", "Spec"),
                row("n1", "cites", "r1"),
                row("n2", "cites", "r1"),
            ],
            vec![typed("n2", "Spec"), row("n2", "cites", "r1")],
            (5, 0, 0),
        ),
        // `r1` keeps its first row (`author`), `t5` goes; T keeps `t5` a
        // class of its own, which the delete empties.
        (
            "delete: a row the node's first properties do not need",
            vec![row("r1", "title", "t5")],
            vec![row("r1", "title", "t5")],
            (4, 0, 1),
        ),
        // `e1` is first seen on this row, and stays (it publishes `r4`).
        (
            "delete: a survivor's first occurrence",
            vec![],
            vec![row("r2", "editor", "e1")],
            (0, 5, 0),
        ),
        // `n1` alone relates `q` to `title`: their source clique splits.
        (
            "delete: a link's last witness",
            vec![
                row("n2", "q", "x2"),
                row("n1", "title", "t9"),
                row("n1", "q", "x1"),
            ],
            vec![row("n1", "q", "x1")],
            (0, 5, 0),
        ),
        (
            "delete: a property's last row",
            vec![],
            vec![row("r3", "comment", "c1")],
            (0, 5, 0),
        ),
        // `title` is first seen on this row.
        (
            "delete: a property's first row",
            vec![],
            vec![row("r1", "title", "t1")],
            (0, 5, 0),
        ),
        // `n1` is alone in its strong class, and the one node joining the
        // weak classes of the authors and the editors.
        (
            "delete: a class's last member",
            vec![row("r1", "author", "n1"), row("n1", "published", "n9")],
            vec![row("r1", "author", "n1"), row("n1", "published", "n9")],
            (0, 0, 5),
        ),
        // `r6` is the one {Spec} node among the typed-only ones, W's and
        // S's class of nodes without a clique: that class's τ edge to Spec
        // goes. The typed kinds key `r6` by {Spec}, whose first member is
        // `r5`.
        (
            "delete: a summary edge's last witness",
            vec![],
            vec![typed("r6", "Spec")],
            (3, 0, 2),
        ),
        // `y` is typed {New} after `x` (the set's first member), but named
        // by D_G before it, and before `w`: the first member of the {New}
        // class of the typed kinds, whose H node would move behind `w`'s.
        // W and S key `y` by its cliques, in the class of `r1`.
        (
            "delete: a class's first member",
            vec![
                typed("x", "New"),
                typed("y", "New"),
                row("y", "title", "t8"),
                row("w", "rating", "q"),
                row("x", "title", "t9"),
            ],
            vec![typed("y", "New"), row("y", "title", "t8")],
            (2, 0, 3),
        ),
        // `r1` keeps its data: its class set would change.
        (
            "delete: a type row of a node that stays",
            vec![],
            vec![typed("r1", "Book")],
            (0, 5, 0),
        ),
    ];
    let cases = cases
        .into_iter()
        .map(|(what, batch, insert, expect)| (what, vec![], batch, insert, expect))
        .chain(
            deletes
                .into_iter()
                .map(|(what, setup, batch, expect)| (what, setup, batch, false, expect)),
        );
    let mut base = fixtures::sample_graph();
    base.add_iri_triple(
        &format!("{}o1", fixtures::EX),
        vocab::RDF_TYPE,
        &format!("{}Only", fixtures::EX),
    );
    let outcome = |svc: &SummaryService, before: &ServiceStats| {
        let st = svc.stats();
        assert_eq!(st.refused_no_map, before.refused_no_map);
        (
            (st.patches - before.patches) as usize,
            (st.refused_stale - before.refused_stale) as usize,
            (st.refused_structural - before.refused_structural) as usize,
        )
    };
    let check_bodies = |svc: &SummaryService, model: &TripleStore, what: &str| {
        let cold = SummaryService::new(1);
        cold.load_graph("g", model.graph().clone());
        for kind in FIVE {
            let (served, hit) = svc.summarize("g", kind).unwrap();
            assert!(hit, "{what}: {kind}");
            let (want, _) = cold.summarize("g", kind).unwrap();
            assert!(
                served.ntriples == want.ntriples,
                "{what}: {kind} differs from a cold build"
            );
        }
    };
    for (what, setup, batch, insert, expect) in cases {
        let mut grown = base.clone();
        for (s, p, o) in setup {
            grown.insert(s, p, o).unwrap();
        }
        let svc = SummaryService::new(1);
        svc.load_graph("g", grown.clone());
        for kind in FIVE {
            svc.summarize("g", kind).unwrap();
        }
        let before = svc.stats();
        let out = svc.update("g", insert, &batch).unwrap();
        assert_eq!(out.applied, batch.len(), "{what}");
        assert_eq!(
            (out.patched, out.rebuilt),
            (expect.0, 5 - expect.0),
            "{what}"
        );
        assert_eq!(outcome(&svc, &before), expect, "{what}");
        let mut model = TripleStore::new(grown);
        if insert {
            model.insert_batch(&batch).unwrap();
        } else {
            model.delete_batch(&batch);
        }
        check_bodies(&svc, &model, what);
    }

    // Two resident names with the same content: `w` is built through the
    // twin, from its substrate; the rest from the updated graph's own. The
    // batch the maps extend by above is refused to `w` alone as stale.
    let svc = SummaryService::new(1);
    svc.load_graph("g", base.clone());
    svc.load_graph("twin", base.clone());
    svc.summarize("twin", FIVE[0]).unwrap();
    for kind in FIVE {
        svc.summarize("g", kind).unwrap();
    }
    let before = svc.stats();
    let batch = [row("r1", "title", "t5")];
    let out = svc.update("g", true, &batch).unwrap();
    assert_eq!((out.patched, out.rebuilt), (3, 2));
    assert_eq!(outcome(&svc, &before), (3, 1, 1));
    let mut model = TripleStore::new(base);
    model.insert_batch(&batch).unwrap();
    check_bodies(&svc, &model, "twin");
}
