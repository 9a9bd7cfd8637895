//! The per-layer half: replays a workload's requests **in-process**
//! through the layers' public functions, one span per call.
//!
//! Each request class is replayed two ways: as the whole service call
//! (`core.service.*`, what the server's dispatch runs) and as the chain of
//! stage calls the service is built from (`stages.*` roots with one child
//! per stage). `trace.coverage.*` is the second over the first: when it
//! leaves 0.8–1.25 the outside-in decomposition no longer describes what
//! the service runs.
//!
//! Only API that the roadmap's consolidation keeps is used here — no
//! `_forced*` seams, `MergeStrategy`, `parallel::*`, `incremental::*`,
//! `streaming` or `reference` — so deleting those cannot break the
//! benchmark.

use crate::report::Metrics;
use crate::stats::median;
use crate::trace::Tracer;
use rdf_model::{Graph, PrefixMap};
use rdf_query::{compile, empty_on_summary, explain_with, parse_query, prune_shape_key, Evaluator};
use rdf_store::TripleStore;
use rdfsum_core::persist::{decode_artifact, encode_artifact};
use rdfsum_core::{
    CliqueScope, SummaryArtifact, SummaryCardinality, SummaryContext, SummaryEstimator,
    SummaryKind, SummaryService,
};
use rdfsum_server::{parse_request, Request, QUERY_ROW_LIMIT};
use std::path::Path;
use std::time::{Duration, Instant};

/// Build threads, as the served binary is started (`--threads 2`).
const THREADS: usize = 2;
/// Lines handed to `parse_str` at a time by the parse-only replay.
const PARSE_BLOCK_LINES: usize = 4096;

pub(crate) const KINDS: [SummaryKind; 5] = [
    SummaryKind::Weak,
    SummaryKind::Strong,
    SummaryKind::TypedWeak,
    SummaryKind::TypedStrong,
    SummaryKind::TypeBased,
];
pub(crate) const KIND_TOKENS: [&str; 5] = ["w", "s", "tw", "ts", "t"];

/// Span names of the per-kind stages, indexed like [`KINDS`].
const SUMMARIZE: [&str; 5] = [
    "core.summarize.w",
    "core.summarize.s",
    "core.summarize.tw",
    "core.summarize.ts",
    "core.summarize.t",
];
const CARDINALITY: [&str; 5] = [
    "core.cardinality.w",
    "core.cardinality.s",
    "core.cardinality.tw",
    "core.cardinality.ts",
    "core.cardinality.t",
];
const WRITE: [&str; 5] = [
    "rdf-io.write.w",
    "rdf-io.write.s",
    "rdf-io.write.tw",
    "rdf-io.write.ts",
    "rdf-io.write.t",
];
const SUMMARY_INDEX: [&str; 5] = [
    "rdf-store.summary_index.w",
    "rdf-store.summary_index.s",
    "rdf-store.summary_index.tw",
    "rdf-store.summary_index.ts",
    "rdf-store.summary_index.t",
];
const ENCODE: [&str; 5] = [
    "core.persist.encode.w",
    "core.persist.encode.s",
    "core.persist.encode.tw",
    "core.persist.encode.ts",
    "core.persist.encode.t",
];
const DECODE: [&str; 5] = [
    "core.persist.decode.w",
    "core.persist.decode.s",
    "core.persist.decode.tw",
    "core.persist.decode.ts",
    "core.persist.decode.t",
];
const COLD: [&str; 5] = [
    "core.service.cold.w",
    "core.service.cold.s",
    "core.service.cold.tw",
    "core.service.cold.ts",
    "core.service.cold.t",
];

fn kind_index(kind: SummaryKind) -> usize {
    KINDS
        .iter()
        .position(|&k| k == kind)
        .expect("one of the five quotient kinds")
}

fn clique_scope(kind: SummaryKind) -> Option<CliqueScope> {
    match kind {
        SummaryKind::Weak | SummaryKind::Strong => Some(CliqueScope::AllNodes),
        SummaryKind::TypedWeak | SummaryKind::TypedStrong => Some(CliqueScope::UntypedOnly),
        _ => None,
    }
}

/// The stage chain of one cold summary build, as children of the open
/// span: fresh substrate, cliques, partition + quotient, cardinality
/// statistics, serialisation, and the summary's own index — the calls
/// `SummaryService` makes on a cache miss and on every `UPDATE` rebuild.
fn build_stages(tr: &mut Tracer, store: &TripleStore, kind: SummaryKind) -> SummaryArtifact {
    let g = store.graph();
    let k = kind_index(kind);
    let ctx = tr.time("core.context", || SummaryContext::sharded(g, THREADS));
    if let Some(scope) = clique_scope(kind) {
        tr.time("core.cliques", || {
            ctx.cliques(scope);
        });
    }
    let summary = tr.time(SUMMARIZE[k], || ctx.summarize(kind));
    let stats = summary.stats();
    let cardinality = tr.time(CARDINALITY[k], || SummaryCardinality::new(store, &summary));
    let ntriples = tr.time(WRITE[k], || rdf_io::write_graph(&summary.graph));
    let summary_store = tr.time(SUMMARY_INDEX[k], || TripleStore::new(summary.graph));
    SummaryArtifact {
        kind,
        fingerprint: store.fingerprint(),
        ntriples,
        summary_nodes: stats.all_nodes,
        summary_edges: stats.all_edges,
        input_triples: g.len(),
        summary_store,
        cardinality,
    }
}

/// Facts about the inputs that the build replay reads off on the way.
#[derive(Default)]
pub(crate) struct BuildFacts {
    pub(crate) dict_terms: usize,
    pub(crate) nt_bytes: u64,
    pub(crate) snapshot_bytes_per_triple: f64,
}

/// `build_restart`'s requests: full LOAD + five-kind build pipelines, the
/// snapshot decode and the persist round trip, until `budget` is spent
/// (at least one pipeline, at most `max_pipelines`). Pipelines alternate
/// between running the stage chains first and the whole service calls
/// first, so neither side always pays for the cold caches.
pub(crate) fn replay_build(
    tr: &mut Tracer,
    nt: &Path,
    snap: &Path,
    scratch: &Path,
    budget: Duration,
    max_pipelines: usize,
) -> Result<BuildFacts, String> {
    let t0 = Instant::now();
    let mut facts = BuildFacts {
        nt_bytes: std::fs::metadata(nt).map_err(|e| e.to_string())?.len(),
        ..BuildFacts::default()
    };
    for pipeline in 0..max_pipelines {
        if pipeline > 0 && t0.elapsed() >= budget {
            break;
        }
        let persist = scratch.join(format!("persist-{pipeline}"));
        if pipeline % 2 == 0 {
            build_by_stage(tr, nt, snap, scratch, &mut facts)?;
            build_by_service(tr, nt, &persist)?;
        } else {
            build_by_service(tr, nt, &persist)?;
            build_by_stage(tr, nt, snap, scratch, &mut facts)?;
        }
    }
    Ok(facts)
}

/// One pipeline as the chain of stage calls.
fn build_by_stage(
    tr: &mut Tracer,
    nt: &Path,
    snap: &Path,
    scratch: &Path,
    facts: &mut BuildFacts,
) -> Result<(), String> {
    // The parser alone, on the file's text already in memory — in blocks
    // of lines, so the parsed terms are freed as `load_path` frees them
    // instead of piling up as a second copy of the graph.
    let text = std::fs::read_to_string(nt).map_err(|e| e.to_string())?;
    // Cut outside the span: finding the line ends is a pass over the text
    // that `load_path` does not make.
    let mut blocks = Vec::new();
    let mut rest = text.as_str();
    while !rest.is_empty() {
        let cut = rest
            .bytes()
            .enumerate()
            .filter(|&(_, b)| b == b'\n')
            .nth(PARSE_BLOCK_LINES - 1)
            .map_or(rest.len(), |(i, _)| i + 1);
        let (block, tail) = rest.split_at(cut);
        blocks.push(block);
        rest = tail;
    }
    tr.next_request();
    tr.time("rdf-io.parse", || {
        for block in blocks {
            std::hint::black_box(rdf_io::parse_str(block).map_err(|e| e.to_string())?);
        }
        Ok::<(), String>(())
    })?;
    drop(text);

    // LOAD, stage by stage.
    tr.next_request();
    let root = tr.enter("stages.load");
    let g = tr
        .time("rdf-io.load_path", || rdf_io::load_path(nt))
        .map_err(|e| e.to_string())?;
    let store = tr.time("rdf-store.index_build", || {
        TripleStore::with_threads(g, THREADS)
    });
    let fingerprint = tr.time("rdf-store.fingerprint", || store.fingerprint());
    tr.exit(root);
    facts.dict_terms = store.graph().dict().len();
    let snap_bytes = std::fs::metadata(snap).map_err(|e| e.to_string())?.len();
    facts.snapshot_bytes_per_triple = snap_bytes as f64 / store.len() as f64;

    tr.next_request();
    let from_snap = tr
        .time("rdf-store.snapshot_decode", || {
            rdf_store::snapshot::load(snap)
        })
        .map_err(|e| e.to_string())?;
    if from_snap.len() != store.len() {
        return Err("snapshot and N-Triples file disagree on the triple count".into());
    }
    drop(from_snap);

    // Cold builds: `w` and `t` each from a fresh substrate with the
    // persist round trip, as the service does it…
    for kind in [SummaryKind::Weak, SummaryKind::TypeBased] {
        let k = kind_index(kind);
        tr.next_request();
        let root = tr.enter(if kind == SummaryKind::Weak {
            "stages.cold_w"
        } else {
            "stages.cold_t"
        });
        let artifact = build_stages(tr, &store, kind);
        let raw = tr
            .time(ENCODE[k], || encode_artifact(&artifact, store.graph()))
            .ok_or("artifact did not encode")?;
        tr.time("core.persist.write_file", || {
            std::fs::write(scratch.join("stage.tmp"), &raw).and_then(|()| {
                std::fs::rename(scratch.join("stage.tmp"), scratch.join("stage.sum"))
            })
        })
        .map_err(|e| e.to_string())?;
        tr.exit(root);
        tr.next_request();
        tr.time(DECODE[k], || {
            decode_artifact(&raw, store.graph(), fingerprint, kind)
        })
        .ok_or("persisted artifact did not decode")?;
    }
    // …and the other three on one warm substrate (cliques computed once),
    // which isolates partition + quotient emission.
    tr.next_request();
    let ctx = SummaryContext::sharded(store.graph(), THREADS);
    ctx.cliques(CliqueScope::AllNodes);
    ctx.cliques(CliqueScope::UntypedOnly);
    for kind in [
        SummaryKind::Strong,
        SummaryKind::TypedWeak,
        SummaryKind::TypedStrong,
    ] {
        tr.time(SUMMARIZE[kind_index(kind)], || ctx.summarize(kind));
    }
    Ok(())
}

/// The same pipeline as whole service calls: `LOAD`, five cold
/// `SUMMARIZE`s into a fresh persist dir, then warm hits.
fn build_by_service(tr: &mut Tracer, nt: &Path, persist: &Path) -> Result<(), String> {
    std::fs::create_dir_all(persist).map_err(|e| e.to_string())?;
    let service = SummaryService::new(THREADS).with_persist_dir(persist);
    tr.next_request();
    tr.time("core.service.load", || {
        rdf_io::load_path(nt).map(|g| service.load_graph("g", g))
    })
    .map_err(|e| e.to_string())?;
    for (k, &kind) in KINDS.iter().enumerate() {
        tr.next_request();
        let (_, hit) = tr
            .time(COLD[k], || service.summarize("g", kind))
            .map_err(|e| e.to_string())?;
        if hit {
            return Err("in-process cold build was served from a cache".into());
        }
    }
    for _ in 0..1000 {
        tr.next_request();
        tr.time("core.service.hit", || {
            service.summarize("g", SummaryKind::Weak)
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Which per-class spans a query text is recorded under.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueryClass {
    Point,
    Join,
    Pruned,
    Scan,
}

impl QueryClass {
    fn service_span(self) -> &'static str {
        match self {
            QueryClass::Point => "core.service.query.point",
            QueryClass::Join => "core.service.query.join",
            QueryClass::Pruned => "core.service.query.pruned",
            QueryClass::Scan => "core.service.query.scan",
        }
    }

    fn stages_span(self) -> &'static str {
        match self {
            QueryClass::Point => "stages.query_point",
            QueryClass::Join => "stages.query_join",
            QueryClass::Pruned => "stages.query_pruned",
            QueryClass::Scan => "stages.query_scan",
        }
    }

    fn eval_span(self) -> &'static str {
        match self {
            QueryClass::Point | QueryClass::Pruned => "rdf-query.eval.point",
            QueryClass::Join => "rdf-query.eval.join",
            QueryClass::Scan => "rdf-query.eval.scan",
        }
    }
}

/// A warm in-process service over `graph`, plus the pieces the staged
/// replays call directly.
pub(crate) struct WarmService {
    service: SummaryService,
    store: TripleStore,
    graph_name: &'static str,
}

impl WarmService {
    pub(crate) fn new(
        graph: &Graph,
        graph_name: &'static str,
        warm: &[SummaryKind],
    ) -> Result<WarmService, String> {
        let service = SummaryService::new(THREADS);
        service.load_graph(graph_name, graph.clone());
        for &kind in warm {
            service
                .summarize(graph_name, kind)
                .map_err(|e| e.to_string())?;
        }
        Ok(WarmService {
            service,
            store: TripleStore::with_threads(graph.clone(), THREADS),
            graph_name,
        })
    }
}

/// Replays `QUERY` request lines of one class: each as the whole
/// `parse_request` + `SummaryService::query` call, and as the stage chain
/// parse → compile → (prune) → plan → eval.
pub(crate) fn replay_queries(
    tr: &mut Tracer,
    warm: &WarmService,
    class: QueryClass,
    lines: &[String],
    budget: Duration,
) -> Result<(), String> {
    let t0 = Instant::now();
    let (artifact, _) = warm
        .service
        .summarize(warm.graph_name, SummaryKind::Weak)
        .map_err(|e| e.to_string())?;
    for (i, line) in lines.iter().enumerate() {
        if i % 64 == 0 && i > 0 && t0.elapsed() >= budget {
            break;
        }
        tr.next_request();
        let request = tr
            .time("server.protocol.parse", || parse_request(line.as_bytes()))
            .map_err(|e| e.to_string())?;
        let Request::Query { graph, query } = request else {
            return Err(format!("not a QUERY line: {line}"));
        };
        tr.time(class.service_span(), || {
            warm.service.query(&graph, &query, None, QUERY_ROW_LIMIT)
        })
        .map_err(|e| e.to_string())?;

        tr.next_request();
        let root = tr.enter(class.stages_span());
        // The service builds the default prefix map per request; so does
        // the parse stage.
        let spec = tr
            .time("rdf-query.parse", || {
                parse_query(&query, &PrefixMap::with_defaults())
            })
            .map_err(|e| e.to_string())?;
        let q = tr
            .time("rdf-query.compile", || compile(&spec, warm.store.graph()))
            .map_err(|e| e.to_string())?;
        // The verdict memo's key, then (unless the memo says "empty") the
        // warm summary the planner's statistics come from.
        tr.time("rdf-query.prune_key", || prune_shape_key(&spec));
        let plan = if class == QueryClass::Pruned {
            None
        } else {
            tr.time("core.service.hit", || {
                warm.service.summarize(warm.graph_name, SummaryKind::Weak)
            })
            .map_err(|e| e.to_string())?;
            let plan = tr.time("rdf-query.plan", || {
                explain_with(
                    &q,
                    &SummaryEstimator::new(&warm.store, &artifact.cardinality),
                )
            });
            tr.time(class.eval_span(), || {
                let rs = Evaluator::new(&warm.store).select_limit_ordered(
                    &q,
                    &plan.order(),
                    QUERY_ROW_LIMIT + 1,
                );
                rs.decode(&warm.store)
                    .into_iter()
                    .map(|row| row.into_iter().map(ToString::to_string).collect::<Vec<_>>())
                    .collect::<Vec<_>>()
            });
            Some(plan)
        };
        // The summary ASK the service memoises per query shape: its cost
        // when the verdict cache misses. Not part of the steady-state
        // chain, so recorded as a request of its own.
        let ask_too = i < 2000;
        let ask_spec = ask_too.then(|| spec.clone());
        // Freeing the parsed query, its compiled form and the plan is
        // per-request work the service does before it returns.
        tr.time("rdf-query.release", move || drop((spec, q, plan)));
        tr.exit(root);
        if let Some(spec) = ask_spec {
            tr.next_request();
            tr.time("rdf-query.prune", || {
                empty_on_summary(&artifact.summary_store, &spec)
            });
        }
    }
    Ok(())
}

/// Replays warm `SUMMARIZE` hits of `kind`.
pub(crate) fn replay_hits(
    tr: &mut Tracer,
    warm: &WarmService,
    kind: SummaryKind,
    n: usize,
) -> Result<(), String> {
    for _ in 0..n {
        tr.next_request();
        tr.time("core.service.hit", || {
            warm.service.summarize(warm.graph_name, kind)
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Replays `UPDATE` batches (`(insert, payload)`) against a service with
/// `kinds` warm: each as the whole `SummaryService::update` call, and as
/// parse → store batch → one rebuild chain per warm kind.
pub(crate) fn replay_updates(
    tr: &mut Tracer,
    graph: &Graph,
    graph_name: &'static str,
    kinds: &[SummaryKind],
    batches: &[(bool, String)],
    budget: Duration,
) -> Result<(), String> {
    let t0 = Instant::now();
    let WarmService {
        service, mut store, ..
    } = WarmService::new(graph, graph_name, kinds)?;
    for (i, (insert, payload)) in batches.iter().enumerate() {
        if i > 0 && t0.elapsed() >= budget {
            break;
        }
        tr.next_request();
        let triples = rdf_io::parse_statements(payload).map_err(|e| e.to_string())?;
        let out = tr
            .time("core.service.update", || {
                service.update(graph_name, *insert, &triples)
            })
            .map_err(|e| e.to_string())?;
        if out.applied != triples.len() {
            return Err(format!(
                "in-process update applied {} of {} triples",
                out.applied,
                triples.len()
            ));
        }

        tr.next_request();
        let root = tr.enter("stages.update");
        let triples = tr
            .time("rdf-io.parse_statements", || {
                rdf_io::parse_statements(payload)
            })
            .map_err(|e| e.to_string())?;
        if *insert {
            tr.time("rdf-store.insert_batch", || store.insert_batch(&triples))
                .map_err(|e| e.to_string())?;
        } else {
            tr.time("rdf-store.delete_batch", || store.delete_batch(&triples));
        }
        for &kind in kinds {
            build_stages(tr, &store, kind);
        }
        tr.exit(root);
    }
    Ok(())
}

/// Coverage of a staged replay: the median, over its `stages` roots, of
/// the time spent inside stage calls (the children), over the median
/// whole call.
fn coverage(tr: &Tracer, stages: &str, whole: &str) -> Option<f64> {
    let spans = tr.spans();
    let mut inside = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            inside[p] += s.duration_ns();
        }
    }
    let staged: Vec<f64> = spans
        .iter()
        .zip(&inside)
        .filter(|(s, _)| s.name == stages)
        .map(|(_, &ns)| ns as f64)
        .collect();
    let whole = tr.durations(whole, 1.0);
    (!staged.is_empty() && !whole.is_empty()).then(|| median(&staged) / median(&whole))
}

/// Turns the recorded spans into the per-layer `T` metrics: a metric
/// `<span name>.<unit>` is the distribution of that span's durations.
pub(crate) fn timing_metrics(tr: &Tracer, m: &mut Metrics, warnings: &mut Vec<String>) {
    for def in crate::report::PER_LAYER.iter() {
        let Some((span, unit)) = def.name.rsplit_once('.') else {
            continue;
        };
        let unit_ns = match unit {
            "ms" => 1e6,
            "us" => 1e3,
            "ns" => 1.0,
            _ => continue,
        };
        m.samples(def.name, &tr.durations(span, unit_ns));
    }
    // Dictionary encoding has no entry point of its own: it is what
    // `load_path` does beyond parsing. Each pipeline runs the two back to
    // back, so the difference is taken per pipeline: between pipelines the
    // host drifts by more than the 50 ms in question.
    let beyond_parse: Vec<f64> = tr
        .durations("rdf-io.load_path", 1e6)
        .iter()
        .zip(tr.durations("rdf-io.parse", 1e6))
        .map(|(load, parse)| (load - parse).max(0.0))
        .collect();
    m.samples("rdf-model.encode.ms", &beyond_parse);
    for (metric, stages, whole) in [
        ("trace.coverage.load", "stages.load", "core.service.load"),
        (
            "trace.coverage.cold_w",
            "stages.cold_w",
            "core.service.cold.w",
        ),
        (
            "trace.coverage.cold_t",
            "stages.cold_t",
            "core.service.cold.t",
        ),
        (
            "trace.coverage.query_point",
            "stages.query_point",
            "core.service.query.point",
        ),
        (
            "trace.coverage.update",
            "stages.update",
            "core.service.update",
        ),
    ] {
        if let Some(c) = coverage(tr, stages, whole) {
            m.exact(metric, c);
            if !(0.8..=1.25).contains(&c) {
                warnings.push(format!(
                    "{metric} = {c:.2} is outside 0.8–1.25: the stage chain has drifted from what the service runs"
                ));
            }
        }
    }
    m.exact("trace.spans", tr.spans().len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{text, Dataset, OfferWriter, DEFAULT_SEED, GRAPH_NT};
    use crate::stats::Dist;

    #[test]
    fn staged_replays_agree_with_the_service_and_cover_it() {
        let ds = Dataset::generate(30, DEFAULT_SEED);
        let warm = WarmService::new(&ds.graph, GRAPH_NT, &[SummaryKind::Weak]).unwrap();
        let mut tr = Tracer::new();
        let lines: Vec<String> = (0..20)
            .map(|k| format!("QUERY {GRAPH_NT} {}", text::point(k)))
            .collect();
        replay_queries(
            &mut tr,
            &warm,
            QueryClass::Point,
            &lines,
            Duration::from_secs(5),
        )
        .unwrap();
        let pruned = vec![format!("QUERY {GRAPH_NT} {}", text::empty_join(0))];
        replay_queries(
            &mut tr,
            &warm,
            QueryClass::Pruned,
            &pruned,
            Duration::from_secs(5),
        )
        .unwrap();
        replay_hits(&mut tr, &warm, SummaryKind::Weak, 3).unwrap();

        let mut writer = OfferWriter::new(&ds, 1);
        let batches: Vec<(bool, String)> = (0..4)
            .map(|i| {
                let r = writer.batch(i);
                let mut parts = r.line.splitn(4, ' ');
                (parts.nth(2) == Some("+"), parts.next().unwrap().to_string())
            })
            .collect();
        assert_eq!(batches.iter().filter(|(insert, _)| *insert).count(), 3);
        replay_updates(
            &mut tr,
            &ds.graph,
            GRAPH_NT,
            &[SummaryKind::Weak, SummaryKind::TypedWeak],
            &batches,
            Duration::from_secs(5),
        )
        .unwrap();

        let mut m = Metrics::default();
        let mut warnings = Vec::new();
        timing_metrics(&tr, &mut m, &mut warnings);
        assert_eq!(m.get("core.service.query.point.us").n, 20);
        assert_eq!(m.get("rdf-query.eval.point.us").n, 20);
        assert_eq!(m.get("core.service.query.pruned.us").n, 1);
        assert_eq!(m.get("core.service.hit.ns").n, 20 + 3);
        assert_eq!(m.get("core.service.update.ms").n, 4);
        assert_eq!(m.get("rdf-store.insert_batch.us").n, 3);
        assert_eq!(m.get("rdf-store.delete_batch.us").n, 1);
        // Two rebuilt kinds per batch.
        assert_eq!(m.get("core.context.ms").n, 8);
        assert!(m.get("trace.coverage.query_point").median > 0.0);
        assert!(m.get("trace.coverage.update").median > 0.0);
        // Layers nothing exercised stay at zero.
        assert_eq!(m.get("rdf-io.parse.ms"), Dist::default());
    }

    #[test]
    fn build_replay_runs_the_whole_pipeline_once() {
        let dir =
            std::env::temp_dir().join(format!("rdfsum-benchmark-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ds = Dataset::generate(30, DEFAULT_SEED);
        ds.write_nt(&dir).unwrap();
        let (nt, snap) = (dir.join(GRAPH_NT), dir.join("g.snap"));
        rdf_store::snapshot::save(&ds.graph, &snap).unwrap();
        let mut tr = Tracer::new();
        let facts = replay_build(&mut tr, &nt, &snap, &dir, Duration::ZERO, 3).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(facts.dict_terms > 0 && facts.snapshot_bytes_per_triple > 0.0);
        let mut m = Metrics::default();
        timing_metrics(&tr, &mut m, &mut Vec::new());
        for name in [
            "rdf-io.parse.ms",
            "rdf-store.index_build.ms",
            "rdf-store.snapshot_decode.ms",
            "core.summarize.ts.ms",
            "core.persist.decode.t.ms",
            "core.service.cold.tw.ms",
            "trace.coverage.load",
            "trace.coverage.cold_t",
        ] {
            assert_eq!(m.get(name).n, 1, "{name}");
        }
        assert_eq!(m.get("core.service.hit.ns").n, 1000);
    }
}
