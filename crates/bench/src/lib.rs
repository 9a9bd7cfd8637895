//! # rdfsum-bench
//!
//! The experiment harness reproducing the paper's evaluation (§7):
//!
//! | binary | paper artifact | built on |
//! |--------|----------------|----------|
//! | `table1_cliques` | Table 1 — cliques of the running example | `rdfsum_core::Cliques`, `rdfsum_experiments::distance` |
//! | `fig11_12_sizes` | Figures 11 & 12 — node/edge counts of the four BSBM summaries across scales | `rdfsum_core` |
//! | `fig13_time` | Figure 13 — summarization time across scales | `rdfsum_core`, `rdfsum_experiments::streaming` |
//! | `representativeness` | Prop. 1 / Definition 1 on sampled RBGP workloads | `rdfsum_experiments::checks` |
//! | `completeness` | Props. 5, 7, 8, 10 — completeness checks and counter-examples | `rdfsum_experiments::{checks, iso}` |
//!
//! The evaluation-only modules those binaries (and the `ablation` bench)
//! run live in `rdfsum-experiments`; everything else here, the repository
//! benchmark included, is built on `rdfsum-core` and `rdfsum-server`
//! alone.
//!
//! Serving performance is measured by the repository benchmark
//! (`src/bin/benchmark/`, declared by the root `BENCHMARK.json`; see its
//! README). The criterion groups in `benches/` each time one function
//! that benchmark cannot see in isolation: `parsing`, `query_serving`,
//! `query_eval`, `quotient_h`, `saturation`, `summarize`, `ablation`,
//! `cliques`, `sharded`. This library holds the shared sweep/reporting
//! machinery so binaries stay thin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rdf_model::Graph;
use rdfsum_core::{summarize, Summary, SummaryContext, SummaryKind, SummaryStats};
use rdfsum_workloads::BsbmConfig;
use std::time::Instant;

/// One measured summary at one scale.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Which summary.
    pub kind: SummaryKind,
    /// Size statistics.
    pub stats: SummaryStats,
    /// Wall-clock build time in seconds.
    pub seconds: f64,
}

/// One sweep row: a dataset scale and its four summaries.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// Scale parameter (BSBM products).
    pub products: usize,
    /// Triples in the input graph.
    pub triples: usize,
    /// Nodes in the input graph.
    pub input_nodes: usize,
    /// Wall-clock seconds spent building the shared [`SummaryContext`]
    /// (the substrate scan), paid once for all four builds.
    pub context_seconds: f64,
    /// Measurements for W, S, TW, TS (paper order).
    pub summaries: Vec<Measurement>,
}

/// Builds the BSBM graph for a scale and measures all four summaries.
pub fn measure_scale(products: usize, seed: u64) -> SweepRow {
    let g = rdfsum_workloads::generate_bsbm(&BsbmConfig {
        products,
        seed,
        ..Default::default()
    });
    measure_graph(&g, products)
}

/// Measures all four summaries of a prepared graph through one shared
/// [`SummaryContext`], so the cliques (both scopes) and dense numbering
/// are computed once rather than once per summary. The sweep is
/// sequential, as the paper's Fig. 13 is.
pub fn measure_graph(g: &Graph, products: usize) -> SweepRow {
    let start = Instant::now();
    let ctx = SummaryContext::new(g);
    let context_seconds = start.elapsed().as_secs_f64();
    let summaries = SummaryKind::ALL
        .iter()
        .map(|&kind| {
            let start = Instant::now();
            let s: Summary = ctx.summarize(kind);
            let seconds = start.elapsed().as_secs_f64();
            Measurement {
                kind,
                stats: s.stats(),
                seconds,
            }
        })
        .collect();
    SweepRow {
        products,
        triples: g.len(),
        input_nodes: g.nodes().len(),
        context_seconds,
        summaries,
    }
}

/// Measures all four summaries built *independently* (four [`summarize`]
/// calls, each recomputing cliques from scratch) — the pre-refactor
/// behavior, kept for speedup comparisons against [`measure_graph`].
pub fn measure_graph_independent(g: &Graph, products: usize) -> SweepRow {
    let summaries = SummaryKind::ALL
        .iter()
        .map(|&kind| {
            let start = Instant::now();
            let s: Summary = summarize(g, kind);
            let seconds = start.elapsed().as_secs_f64();
            Measurement {
                kind,
                stats: s.stats(),
                seconds,
            }
        })
        .collect();
    SweepRow {
        products,
        triples: g.len(),
        input_nodes: g.nodes().len(),
        context_seconds: 0.0,
        summaries,
    }
}

/// Default sweep scales (BSBM products). ~100 triples per product, so this
/// spans ≈10 k – 1 M triples; pass `--products …` to any binary for more.
pub const DEFAULT_SCALES: [usize; 5] = [100, 300, 1000, 3000, 10_000];

/// Parses `--products 100,300,1000` style args; falls back to
/// [`DEFAULT_SCALES`].
pub fn scales_from_args() -> Vec<usize> {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--products" {
            return w[1]
                .split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect();
        }
    }
    DEFAULT_SCALES.to_vec()
}

/// Formats a row of fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Renders a sweep as the paper's Figure 11/12 series (one metric).
pub fn render_series(
    rows: &[SweepRow],
    metric_name: &str,
    metric: impl Fn(&SummaryStats) -> usize,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {metric_name}\n"));
    let widths = [10, 12, 10, 10, 10, 10];
    out.push_str(&row(
        &[
            "products".into(),
            "triples".into(),
            "W".into(),
            "S".into(),
            "TW".into(),
            "TS".into(),
        ],
        &widths,
    ));
    out.push('\n');
    for r in rows {
        let mut cells = vec![r.products.to_string(), r.triples.to_string()];
        for m in &r.summaries {
            cells.push(metric(&m.stats).to_string());
        }
        out.push_str(&row(&cells, &widths));
        out.push('\n');
    }
    out
}

/// Renders a sweep's build times (Figure 13). The `ctx` column is the
/// shared-substrate build time, paid once per scale.
pub fn render_times(rows: &[SweepRow]) -> String {
    let mut out = String::new();
    out.push_str("## Summarization time (seconds)\n");
    let widths = [10, 12, 10, 10, 10, 10, 10];
    out.push_str(&row(
        &[
            "products".into(),
            "triples".into(),
            "ctx".into(),
            "W".into(),
            "S".into(),
            "TW".into(),
            "TS".into(),
        ],
        &widths,
    ));
    out.push('\n');
    for r in rows {
        let mut cells = vec![
            r.products.to_string(),
            r.triples.to_string(),
            format!("{:.4}", r.context_seconds),
        ];
        for m in &r.summaries {
            cells.push(format!("{:.4}", m.seconds));
        }
        out.push_str(&row(&cells, &widths));
        out.push('\n');
    }
    out
}

/// CSV form of a sweep (all metrics), one row per (scale, summary), for
/// archiving a run next to the figures it reproduces.
pub fn render_csv(rows: &[SweepRow]) -> String {
    let mut out = String::from(
        "products,triples,input_nodes,summary,data_nodes,class_nodes,all_nodes,data_edges,type_edges,all_edges,seconds\n",
    );
    for r in rows {
        for m in &r.summaries {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{:.6}\n",
                r.products,
                r.triples,
                r.input_nodes,
                m.kind,
                m.stats.data_nodes,
                m.stats.class_nodes,
                m.stats.all_nodes,
                m.stats.data_edges,
                m.stats.type_edges,
                m.stats.all_edges,
                m.seconds
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_small_scale() {
        let r = measure_scale(20, 7);
        assert_eq!(r.summaries.len(), 4);
        assert!(r.triples > 500);
        // W/S are far smaller than the input.
        assert!(r.summaries[0].stats.all_edges < r.triples / 5);
    }

    #[test]
    fn renders_contain_all_kinds() {
        let r = measure_scale(10, 7);
        let rows = vec![r];
        let s = render_series(&rows, "data nodes", |st| st.data_nodes);
        assert!(s.contains("TW"));
        let t = render_times(&rows);
        assert!(t.contains("seconds"));
        let csv = render_csv(&rows);
        assert_eq!(csv.lines().count(), 1 + 4);
    }

    #[test]
    fn row_formatting() {
        let s = row(&["a".into(), "b".into()], &[3, 3]);
        assert_eq!(s, "  a    b");
    }
}
