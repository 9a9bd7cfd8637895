//! Reproduces **Figure 13** of the paper: summarization time (seconds) for
//! the four summaries across BSBM dataset sizes, plus our streaming and
//! sharded weak builds for comparison.
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
    let mut extra: Vec<(usize, f64, f64, f64)> = Vec::new(); // streaming, parallel2, parallel8
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
        let streaming = t0.elapsed().as_secs_f64();
        std::hint::black_box(&s);
        let t0 = Instant::now();
        let s = rdfsum_core::SummaryContext::sharded(&g, 2).weak_summary();
        let par2 = t0.elapsed().as_secs_f64();
        std::hint::black_box(&s);
        let t0 = Instant::now();
        let s = rdfsum_core::SummaryContext::sharded(&g, 8).weak_summary();
        let par8 = t0.elapsed().as_secs_f64();
        std::hint::black_box(&s);
        extra.push((p, streaming, par2, par8));
    }

    println!("=== Figure 13: summarization time ===");
    print!("{}", render_times(&rows));

    println!("\n=== Extension: alternative weak builders (seconds) ===");
    let widths = [10, 12, 12, 12];
    println!(
        "{}",
        row(
            &[
                "products".into(),
                "W stream".into(),
                "W par(2)".into(),
                "W par(8)".into()
            ],
            &widths
        )
    );
    for (p, st, p2, p8) in extra {
        println!(
            "{}",
            row(
                &[
                    p.to_string(),
                    format!("{st:.4}"),
                    format!("{p2:.4}"),
                    format!("{p8:.4}")
                ],
                &widths
            )
        );
    }
}
