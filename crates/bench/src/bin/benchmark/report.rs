//! What the benchmark reports: the metric registry (`BENCHMARK.json`
//! mirrors it, and a unit test holds the two together), the host stamp,
//! and the three renderings of one run — the aligned table on stdout,
//! the `--out` JSON document, and the contract's final JSON line.

use crate::check::Tally;
use crate::json;
use crate::stats::Dist;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Better {
    Lower,
    Higher,
}

impl Better {
    pub(crate) fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub(crate) struct MetricDef {
    pub(crate) name: &'static str,
    pub(crate) unit: &'static str,
    pub(crate) better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The gated, client-observed metrics, each with the share of the
/// parent's median by which it may worsen. Every workload reports every
/// one (the README maps each name to what it measures per workload).
pub(crate) const END_TO_END: [(MetricDef, f64); 5] = [
    (higher("throughput_rps", "req/s"), 0.25),
    (lower("primary_ms", "ms"), 0.25),
    (lower("secondary_ms", "ms"), 0.25),
    (lower("peak_rss_mb", "MB"), 0.10),
    (lower("setup_s", "s"), 0.25),
];

/// The ungated metrics, printed with `--trace 1`; one a workload does not
/// produce reads 0. First the client-observed figures that exist on one or
/// two workloads only (gated metrics must exist on all four), under the
/// names the roadmap's later items quote; then the per-layer metrics of
/// the trace pass, named `<crate>.<what>.<unit>`.
pub(crate) const PER_LAYER: [MetricDef; 88] = [
    lower("load_s", "s"),
    lower("load_snap_s", "s"),
    lower("cold_summarize_ms", "ms"),
    lower("cold_summarize_t_ms", "ms"),
    lower("restart_summarize_ms", "ms"),
    lower("persist_bytes_per_triple", "B/triple"),
    lower("read_p50_ms", "ms"),
    lower("read_p99_ms", "ms"),
    lower("update_p50_ms", "ms"),
    lower("error_rate", "ratio"),
    lower("workloads.generate_s", "s"),
    lower("workloads.triples", "count"),
    lower("rdf-io.parse.ms", "ms"),
    higher("rdf-io.parse.mb_per_s", "MB/s"),
    lower("rdf-io.write.w.ms", "ms"),
    lower("rdf-io.write.t.ms", "ms"),
    lower("rdf-io.parse_statements.us", "us"),
    lower("rdf-model.encode.ms", "ms"),
    lower("rdf-model.dict.terms", "count"),
    lower("rdf-store.index_build.ms", "ms"),
    lower("rdf-store.fingerprint.ms", "ms"),
    lower("rdf-store.snapshot_decode.ms", "ms"),
    lower("rdf-store.snapshot.bytes_per_triple", "B/triple"),
    lower("rdf-store.insert_batch.us", "us"),
    lower("rdf-store.delete_batch.us", "us"),
    lower("rdf-store.summary_index.w.ms", "ms"),
    lower("rdf-store.summary_index.t.ms", "ms"),
    lower("core.context.ms", "ms"),
    lower("core.cliques.ms", "ms"),
    lower("core.summarize.w.ms", "ms"),
    lower("core.summarize.s.ms", "ms"),
    lower("core.summarize.tw.ms", "ms"),
    lower("core.summarize.ts.ms", "ms"),
    lower("core.summarize.t.ms", "ms"),
    lower("core.cardinality.w.ms", "ms"),
    lower("core.cardinality.t.ms", "ms"),
    lower("core.persist.encode.w.ms", "ms"),
    lower("core.persist.encode.t.ms", "ms"),
    lower("core.persist.decode.w.ms", "ms"),
    lower("core.persist.decode.t.ms", "ms"),
    lower("core.service.cold.w.ms", "ms"),
    lower("core.service.cold.s.ms", "ms"),
    lower("core.service.cold.tw.ms", "ms"),
    lower("core.service.cold.ts.ms", "ms"),
    lower("core.service.cold.t.ms", "ms"),
    lower("core.service.hit.ns", "ns"),
    lower("core.service.query.point.us", "us"),
    lower("core.service.query.join.us", "us"),
    lower("core.service.query.pruned.us", "us"),
    lower("core.service.query.scan.us", "us"),
    lower("core.service.update.ms", "ms"),
    higher("core.service.hit_ratio", "ratio"),
    higher("core.service.prune_ratio", "ratio"),
    higher("core.service.prune_hit_ratio", "ratio"),
    higher("core.service.patch_ratio", "ratio"),
    lower("core.service.builds", "count"),
    higher("core.service.persist_hits", "count"),
    lower("core.service.persist_writes", "count"),
    lower("rdf-query.parse.us", "us"),
    lower("rdf-query.compile.us", "us"),
    lower("rdf-query.prune.us", "us"),
    lower("rdf-query.plan.us", "us"),
    lower("rdf-query.eval.point.us", "us"),
    lower("rdf-query.eval.join.us", "us"),
    lower("rdf-query.eval.scan.us", "us"),
    lower("server.protocol.parse.ns", "ns"),
    lower("server.spawn_ms", "ms"),
    lower("server.wire.ping_us", "us"),
    lower("server.wire.query_overhead_us", "us"),
    lower("server.cpu_us_per_req", "us"),
    lower("server.cpu_util", "ratio"),
    higher("server.wire.mb_per_s", "MB/s"),
    lower("client.read_p50_us", "us"),
    lower("client.read_p999_ms", "ms"),
    lower("client.update_p90_ms", "ms"),
    lower("client.scan_p99_ms", "ms"),
    lower("client.summarize_p50_ms", "ms"),
    lower("client.late_frac", "ratio"),
    lower("client.slice_iqr_frac", "ratio"),
    lower("client.cpu_util", "ratio"),
    lower("client.attempted", "count"),
    higher("trace.coverage.load", "ratio"),
    higher("trace.coverage.cold_w", "ratio"),
    higher("trace.coverage.cold_t", "ratio"),
    higher("trace.coverage.query_point", "ratio"),
    higher("trace.coverage.update", "ratio"),
    lower("trace.spans", "count"),
    lower("trace.overhead_frac", "ratio"),
];

pub(crate) const WORKLOADS: [(&str, &str); 4] = [
    (
        "build_restart",
        "server lifetimes alternate cold LOAD+build of all five summaries with warm restarts from snapshot and persist dir: parse, index, substrate, quotient, serialise, persist do the work",
    ),
    (
        "explore",
        "read-mostly BSBM explore mix at window 32 on two connections: per-request overheads (protocol and query parse, prune, plan, point eval, event loop) do the work, build layers none",
    ),
    (
        "scan",
        "10000-row scans, joins and 880 KB cached summaries at window 1: the same query and wire layers used for enumeration, row formatting and large resumable writes",
    ),
    (
        "explore_update",
        "paced explore reads beside paced 8-triple UPDATE batches: every batch rebuilds two summaries under the graph write lock, which the reader's tail latency and the update latency expose",
    ),
];

/// The values of one run, by metric name.
#[derive(Default)]
pub(crate) struct Metrics(BTreeMap<&'static str, Dist>);

impl Metrics {
    /// Records `name`, which must be a registered metric: a typo fails
    /// the first smoke run instead of silently reporting 0.
    pub(crate) fn set(&mut self, name: &str, dist: Dist) {
        let known = END_TO_END
            .iter()
            .map(|(d, _)| d.name)
            .chain(PER_LAYER.iter().map(|d| d.name))
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a registered metric"));
        self.0.insert(known, dist);
    }

    pub(crate) fn exact(&mut self, name: &str, value: f64) {
        self.set(name, Dist::exact(value));
    }

    pub(crate) fn samples(&mut self, name: &str, values: &[f64]) {
        if !values.is_empty() {
            self.set(name, Dist::of(values));
        }
    }

    pub(crate) fn get(&self, name: &str) -> Dist {
        self.0.get(name).copied().unwrap_or_default()
    }
}

pub(crate) struct Host {
    nproc: usize,
    kernel: String,
    rustc: String,
    commit: String,
}

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.stderr(std::process::Stdio::null()).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .map(str::to_string)
    })?
}

impl Host {
    pub(crate) fn probe(root: &Path) -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
            rustc: first_line(Command::new("rustc").arg("--version"))
                .unwrap_or_else(|| "unknown".into()),
            commit: first_line(
                Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .current_dir(root),
            )
            .unwrap_or_else(|| "unknown (not a git checkout)".into()),
        }
    }
}

/// Everything one workload run produced.
pub(crate) struct Report {
    pub(crate) workload: &'static str,
    pub(crate) seed: u64,
    pub(crate) seconds: f64,
    pub(crate) traced: bool,
    /// Load shape and server flags, as `(name, value)` pairs.
    pub(crate) settings: Vec<(&'static str, String)>,
    pub(crate) metrics: Metrics,
    pub(crate) tally: Tally,
    pub(crate) warnings: Vec<String>,
}

impl Report {
    pub(crate) fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The contract's result object: the end-to-end metrics with tracing
    /// off, the per-layer metrics with tracing on.
    pub(crate) fn contract_line(&self) -> String {
        let defs: Vec<&MetricDef> = if self.traced {
            PER_LAYER.iter().collect()
        } else {
            END_TO_END.iter().map(|(d, _)| d).collect()
        };
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(d.name),
                    json::num(self.metrics.get(d.name).median),
                    json::quote(d.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }

    fn rows(&self) -> Vec<(&MetricDef, Option<f64>, Dist)> {
        let e2e = END_TO_END.iter().map(|(d, b)| (d, Some(*b)));
        let layer = PER_LAYER.iter().map(|d| (d, None));
        e2e.chain(layer)
            .filter(|(_, bound)| self.traced || bound.is_some())
            .map(|(d, bound)| (d, bound, self.metrics.get(d.name)))
            .collect()
    }

    /// The aligned human-readable table.
    pub(crate) fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} (seed {}, {} s measured{}) ==",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced { ", traced" } else { "" }
        );
        for (name, value) in &self.settings {
            let _ = writeln!(out, "   {name}: {value}");
        }
        let _ = writeln!(
            out,
            "{:<38} {:>9} {:>7} {:>14} {:>14} {:>14}  {:<6} bound",
            "metric", "unit", "n", "median", "q1", "q3", "better"
        );
        for (d, bound, v) in self.rows() {
            let _ = writeln!(
                out,
                "{:<38} {:>9} {:>7} {:>14.4} {:>14.4} {:>14.4}  {:<6} {}",
                d.name,
                d.unit,
                v.n,
                v.median,
                v.q1,
                v.q3,
                d.better.word(),
                bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            );
        }
        let _ = writeln!(
            out,
            "requests attempted {} failed {}",
            self.tally.attempted, self.tally.failed
        );
        for w in &self.warnings {
            let _ = writeln!(out, "warning: {w}");
        }
        for r in &self.tally.reasons {
            let _ = writeln!(out, "FAILED: {r}");
        }
        out
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .rows()
            .into_iter()
            .map(|(d, bound, v)| {
                format!(
                    "    {}: {{\"unit\": {}, \"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"direction\": {}, \"bound\": {}}}",
                    json::quote(d.name),
                    json::quote(d.unit),
                    v.n,
                    json::num(v.median),
                    json::num(v.q1),
                    json::num(v.q3),
                    json::quote(d.better.word()),
                    bound.map_or("null".to_string(), json::num),
                )
            })
            .collect();
        let settings: Vec<String> = self
            .settings
            .iter()
            .map(|(k, v)| format!("{}: {}", json::quote(k), json::quote(v)))
            .collect();
        let list = |items: &[String]| {
            items
                .iter()
                .map(|s| json::quote(s))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\n   \"workload\": {},\n   \"seed\": {},\n   \"seconds\": {},\n   \"traced\": {},\n   \"correct\": {},\n   \"attempted\": {},\n   \"failed\": {},\n   \"settings\": {{{}}},\n   \"warnings\": [{}],\n   \"failures\": [{}],\n   \"metrics\": {{\n{}\n   }}\n  }}",
            json::quote(self.workload),
            self.seed,
            json::num(self.seconds),
            self.traced,
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            settings.join(", "),
            list(&self.warnings),
            list(&self.tally.reasons),
            metrics.join(",\n"),
        )
    }
}

/// The `--out` document: the host stamp and every run's report, in one
/// schema.
pub(crate) fn document(host: &Host, reports: &[Report]) -> String {
    let runs: Vec<String> = reports.iter().map(Report::to_json).collect();
    format!(
        "{{\n \"host\": {{\"nproc\": {}, \"kernel\": {}, \"rustc\": {}, \"commit\": {}}},\n \"runs\": [\n  {}\n ]\n}}\n",
        host.nproc,
        json::quote(&host.kernel),
        json::quote(&host.rustc),
        json::quote(&host.commit),
        runs.join(",\n  ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn report(traced: bool) -> Report {
        let mut metrics = Metrics::default();
        metrics.samples("throughput_rps", &[10.0, 30.0, 20.0]);
        metrics.exact("core.service.builds", 5.0);
        let mut tally = Tally::default();
        tally.attempt();
        Report {
            workload: "explore",
            seed: 1,
            seconds: 2.0,
            traced,
            settings: vec![("window", "32".into())],
            metrics,
            tally,
            warnings: vec!["a \"quoted\" warning".into()],
        }
    }

    #[test]
    fn contract_line_carries_exactly_the_mode_s_metrics() {
        for (traced, want) in [(false, END_TO_END.len()), (true, PER_LAYER.len())] {
            let line = report(traced).contract_line();
            assert!(!line.contains('\n'));
            let doc = json::parse(&line).unwrap();
            let Json::Obj(top) = &doc else { panic!() };
            assert_eq!(
                top.keys().collect::<Vec<_>>(),
                ["attempted", "correct", "failed", "metrics"]
            );
            let Some(Json::Obj(m)) = doc.get("metrics") else {
                panic!()
            };
            assert_eq!(m.len(), want);
            assert!(m
                .values()
                .all(|v| v.get("value").is_some() && v.get("unit").is_some()));
        }
        let doc = json::parse(&report(false).contract_line()).unwrap();
        let value = |name: &str| doc.get("metrics")?.get(name)?.get("value")?.as_f64();
        assert_eq!(value("throughput_rps"), Some(20.0));
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    }

    #[test]
    fn out_document_is_valid_json_with_host_stamp_and_quartiles() {
        let host = Host {
            nproc: 2,
            kernel: "k".into(),
            rustc: "r".into(),
            commit: "c".into(),
        };
        let doc = json::parse(&document(&host, &[report(true), report(false)])).unwrap();
        assert_eq!(
            doc.get("host").unwrap().get("nproc").unwrap().as_f64(),
            Some(2.0)
        );
        let runs = doc.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 2);
        let m = runs[0]
            .get("metrics")
            .unwrap()
            .get("throughput_rps")
            .unwrap();
        assert_eq!(m.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(m.get("q1").unwrap().as_f64(), Some(15.0));
        assert_eq!(m.get("direction").unwrap().as_str(), Some("higher"));
        assert_eq!(m.get("bound").unwrap().as_f64(), Some(0.25));
        assert!(report(true).table().contains("core.service.builds"));
        assert!(!report(false).table().contains("core.service.builds"));
    }

    /// `BENCHMARK.json` is what the driver reads; this registry is what
    /// the binary prints. They must name the same things.
    #[test]
    fn benchmark_json_mirrors_the_registry() {
        let doc = json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let want_e2e: Vec<_> = END_TO_END
            .iter()
            .map(|(d, b)| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.word().to_string(),
                    Some(*b),
                )
            })
            .collect();
        let want_layer: Vec<_> = PER_LAYER
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.word().to_string(),
                    None,
                )
            })
            .collect();
        assert_eq!(names("end_to_end"), want_e2e);
        assert_eq!(names("per_layer"), want_layer);
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).unwrap().as_str().unwrap().to_string();
                (s("name"), s("why"))
            })
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, want);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }
}
