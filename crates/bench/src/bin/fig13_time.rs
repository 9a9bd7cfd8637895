//! Reproduces **Figure 13** of the paper: summarization time (seconds) for
//! the four summaries across BSBM dataset sizes, plus our streaming weak
//! build for comparison. Every build runs on the calling thread, so there
//! is no worker-count column: it would repeat `W`.
//!
//! ```text
//! cargo run --release -p rdfsum-bench --bin fig13_time
//! cargo run --release -p rdfsum-bench --bin fig13_time -- --products 1000,10000,50000
//! ```

use rdfsum_bench::{measure_graph, render_times, row, scales_from_args, SweepRow};
use rdfsum_workloads::BsbmConfig;
use std::time::Instant;

fn main() {
    let scales = scales_from_args();
    eprintln!("# timing sweep over BSBM scales {scales:?}");
    let mut rows: Vec<SweepRow> = Vec::new();
    let mut streaming: Vec<(usize, f64)> = Vec::new();
    for &p in &scales {
        eprintln!("#   products={p}…");
        let g = rdfsum_workloads::generate_bsbm(&BsbmConfig {
            products: p,
            seed: 0xF13,
            ..Default::default()
        });
        rows.push(measure_graph(&g, p));
        let t0 = Instant::now();
        let s = rdfsum_experiments::streaming_weak_summary(&g);
        streaming.push((p, t0.elapsed().as_secs_f64()));
        std::hint::black_box(&s);
    }

    println!("=== Figure 13: summarization time ===");
    print!("{}", render_times(&rows));

    println!("\n=== Extension: streaming weak builder (seconds) ===");
    let widths = [10, 12];
    println!("{}", row(&["products".into(), "W stream".into()], &widths));
    for (p, st) in streaming {
        println!("{}", row(&[p.to_string(), format!("{st:.4}")], &widths));
    }
}
