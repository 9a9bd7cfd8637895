//! The completeness shortcut (Props. 5 & 8): computing the summary of the
//! *saturated* graph `W_{G∞}` without ever saturating G — summarize, then
//! saturate the (tiny) summary, then re-summarize.
//!
//! "This property is important, as it gives a mean to compute W_{G∞}
//! without saturating G, but only summarizing G, then saturating the
//! smaller (typically by several orders of magnitude) W_G." (§4.1)
//!
//! ```text
//! cargo run --release --example saturation_shortcut
//! ```

use rdfsummary::prelude::*;
use rdfsummary::rdfsum_experiments::{completeness_check, summary_isomorphic};
use std::time::Instant;

fn main() {
    // LUBM-like data: a class hierarchy, subproperties, domains and
    // ranges, so saturation does real work.
    let graph = rdfsum_workloads::generate_lubm(&LubmConfig {
        universities: 4,
        ..Default::default()
    });
    println!(
        "G: {} triples ({} schema)",
        graph.len(),
        graph.schema().len()
    );

    // The direct route: saturate G (expensive), then summarize.
    let t0 = Instant::now();
    let g_inf = saturate(&graph);
    let direct = summarize(&g_inf, SummaryKind::Weak);
    let t_direct = t0.elapsed().as_secs_f64();
    println!(
        "\ndirect:   G∞ has {} triples (+{}), W(G∞) has {} edges   [{t_direct:.4}s]",
        g_inf.len(),
        g_inf.len() - graph.len(),
        direct.graph.len()
    );

    // The shortcut: summarize G, saturate the summary, re-summarize.
    let t0 = Instant::now();
    let w = summarize(&graph, SummaryKind::Weak);
    let w_inf = saturate(&w.graph);
    let shortcut = summarize(&w_inf, SummaryKind::Weak);
    let t_shortcut = t0.elapsed().as_secs_f64();
    println!(
        "shortcut: W(G) has {} edges, (W(G))∞ has {}, W((W(G))∞) has {} edges   [{t_shortcut:.4}s]",
        w.graph.len(),
        w_inf.len(),
        shortcut.graph.len()
    );

    let same = summary_isomorphic(&direct.graph, &shortcut.graph);
    println!("\nW(G∞) == W((W(G))∞): {same}   (Proposition 5)");
    println!("speedup: {:.1}x", t_direct / t_shortcut.max(1e-9));
    assert!(same);

    // The same shortcut is wrong for typed summaries (Prop. 7): show it.
    let fig8 = rdfsummary::rdfsum_core::fixtures::figure8_graph();
    let check = completeness_check(&fig8, SummaryKind::TypedWeak);
    println!(
        "\ntyped-weak on Figure 8's counter-example: completeness holds = {} (Prop. 7 says it must not)",
        check.holds
    );
    assert!(!check.holds);
}
