//! Reproduces **Figures 11 and 12** of the paper: the number of data nodes
//! and all nodes (Fig. 11), and of data edges and all edges (Fig. 12), of
//! the four summaries over BSBM datasets of increasing size.
//!
//! ```text
//! cargo run --release -p rdfsum-bench --bin fig11_12_sizes
//! cargo run --release -p rdfsum-bench --bin fig11_12_sizes -- --products 100,1000,20000
//! ```
//!
//! Also prints the §7 ratio observations: class nodes vs data nodes in the
//! type-first (W/S) summaries, the TW/TS node blow-up factor, and the
//! summary-to-input size ratio ("at most 0.028 of the data size").

use rdfsum_bench::{
    measure_graph_independent, measure_scale, render_csv, render_series, scales_from_args, SweepRow,
};

fn main() {
    let scales = scales_from_args();
    eprintln!("# sweeping BSBM scales {scales:?} (products; ~100 triples each)");
    eprintln!("# all four summaries per scale share one SummaryContext (cliques computed once)");
    let rows: Vec<SweepRow> = scales
        .iter()
        .map(|&p| {
            eprintln!("#   generating + summarizing products={p}…");
            measure_scale(p, 0xF16)
        })
        .collect();

    println!("=== Figure 11 (top): data nodes per summary ===");
    print!("{}", render_series(&rows, "data nodes", |s| s.data_nodes));
    println!("\n=== Figure 11 (bottom): all nodes per summary ===");
    print!("{}", render_series(&rows, "all nodes", |s| s.all_nodes));
    println!("\n=== Figure 12 (top): data edges per summary ===");
    print!("{}", render_series(&rows, "data edges", |s| s.data_edges));
    println!("\n=== Figure 12 (bottom): all edges per summary ===");
    print!("{}", render_series(&rows, "all edges", |s| s.all_edges));

    println!("\n=== §7 observations ===");
    for r in &rows {
        let w = &r.summaries[0];
        let s = &r.summaries[1];
        let tw = &r.summaries[2];
        let ts = &r.summaries[3];
        let class_over_data = w.stats.class_nodes as f64 / w.stats.data_nodes.max(1) as f64;
        let tw_blowup = tw.stats.data_nodes as f64 / w.stats.data_nodes.max(1) as f64;
        let ratio = ts
            .stats
            .all_edges
            .max(tw.stats.all_edges)
            .max(w.stats.all_edges)
            .max(s.stats.all_edges) as f64
            / r.triples as f64;
        println!(
            "products={:>6}: class/data nodes (W) = {:>6.1}x, TW/W data nodes = {:>5.1}x, max summary/input edges = {:.5}",
            r.products, class_over_data, tw_blowup, ratio
        );
    }

    // Shared-context payoff at the largest swept scale: one context +
    // four builds vs four independent builds.
    if let Some(&p) = scales.last() {
        let g = rdfsum_workloads::generate_bsbm(&rdfsum_workloads::BsbmConfig {
            products: p,
            seed: 0xF16,
            ..Default::default()
        });
        let shared = rows.last().expect("swept at least one scale");
        let shared_total: f64 =
            shared.context_seconds + shared.summaries.iter().map(|m| m.seconds).sum::<f64>();
        let indep = measure_graph_independent(&g, p);
        let indep_total: f64 = indep.summaries.iter().map(|m| m.seconds).sum();
        println!("\n=== Shared SummaryContext vs four independent builds (products={p}) ===");
        println!("  shared (ctx + W+S+TW+TS): {shared_total:.4}s");
        println!("  independent (4 × summarize): {indep_total:.4}s");
        println!("  speedup: {:.2}x", indep_total / shared_total.max(1e-9));
    }

    println!("\n=== CSV (one row per scale and summary) ===");
    print!("{}", render_csv(&rows));
}
