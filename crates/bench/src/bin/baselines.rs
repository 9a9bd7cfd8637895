//! Measures the related-work baseline (§8): forward–backward bisimulation
//! quotients vs the paper's four summaries.
//!
//! The paper's argument against bisimulation: "as the size of the
//! neighborhood increases, the size of bisimulation grows exponentially
//! and can be as large as the input graph." This binary quantifies that on
//! BSBM data: node counts of bisim(k) for k = 0..3 and the full
//! bisimulation, next to W/S/TW/TS.
//!
//! ```text
//! cargo run --release -p rdfsum-bench --bin baselines
//! ```

use rdfsum_bench::{row, scales_from_args};
use rdfsum_core::{summarize, SummaryKind};
use rdfsum_experiments::{bisim_summary, BisimDepth};
use rdfsum_workloads::BsbmConfig;

fn main() {
    let scales: Vec<usize> = scales_from_args().into_iter().take(3).collect();
    println!("=== Baseline: bisimulation quotient sizes vs the paper's summaries ===");
    let widths = [9, 10, 7, 7, 7, 7, 9, 9, 9, 9, 9];
    println!(
        "{}",
        row(
            &[
                "products".into(),
                "triples".into(),
                "W".into(),
                "S".into(),
                "TW".into(),
                "TS".into(),
                "bisim0".into(),
                "bisim1".into(),
                "bisim2".into(),
                "bisim3".into(),
                "bisimFull".into(),
            ],
            &widths
        )
    );
    for products in scales {
        let g = rdfsum_workloads::generate_bsbm(&BsbmConfig {
            products,
            seed: 0xBA5E,
            ..Default::default()
        });
        let mut cells = vec![products.to_string(), g.len().to_string()];
        for kind in SummaryKind::ALL {
            cells.push(summarize(&g, kind).n_summary_nodes().to_string());
        }
        for k in 0..4 {
            cells.push(
                bisim_summary(&g, BisimDepth::Bounded(k))
                    .n_summary_nodes()
                    .to_string(),
            );
        }
        cells.push(
            bisim_summary(&g, BisimDepth::Full)
                .n_summary_nodes()
                .to_string(),
        );
        println!("{}", row(&cells, &widths));
    }
    println!(
        "\nThe full bisimulation approaches the number of input data nodes —\n\
         the §8 blow-up — while W/S stay at tens of nodes."
    );
}
