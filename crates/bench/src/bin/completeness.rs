//! Reproduces the paper's completeness results:
//!
//! * **Proposition 5** (Figure 5): `W_{G∞} = W_{(W_G)∞}` — holds;
//! * **Proposition 8** (Figure 10): `S_{G∞} = S_{(S_G)∞}` — holds;
//! * **Proposition 7** (Figure 8): TW is *not* complete — counter-example;
//! * **Proposition 10**: TS is *not* complete — same counter-example.
//!
//! Also runs the checks on a saturation-heavy LUBM graph, and reports the
//! speedup of the shortcut (saturate-the-summary) over saturating G.
//!
//! ```text
//! cargo run --release -p rdfsum-bench --bin completeness
//! ```

use rdf_schema::saturate;
use rdfsum_core::fixtures::{figure10_graph, figure5_graph, figure8_graph};
use rdfsum_core::{summarize, SummaryKind};
use rdfsum_experiments::{completeness_check, completeness_checks, summary_isomorphic};
use rdfsum_workloads::LubmConfig;
use std::time::Instant;

fn check(name: &str, g: &rdf_model::Graph, kind: SummaryKind, expect: bool) {
    let c = completeness_check(g, kind);
    let verdict = if c.holds == expect {
        "as expected"
    } else {
        "UNEXPECTED"
    };
    println!(
        "  {kind:>3} on {name:<22} Σ(G∞) ≟ Σ((ΣG)∞): {:<5} ({verdict})",
        c.holds
    );
}

fn main() {
    println!("=== Completeness checks (Props. 5, 7, 8, 10) ===");
    let fig5 = figure5_graph();
    let fig8 = figure8_graph();
    let fig10 = figure10_graph();

    check("Figure 5 graph", &fig5, SummaryKind::Weak, true);
    check("Figure 10 graph", &fig10, SummaryKind::Strong, true);
    check("Figure 8 graph", &fig8, SummaryKind::TypedWeak, false);
    check("Figure 8 graph", &fig8, SummaryKind::TypedStrong, false);
    // Weak/strong are complete even on the counter-example graph.
    check("Figure 8 graph", &fig8, SummaryKind::Weak, true);
    check("Figure 8 graph", &fig8, SummaryKind::Strong, true);

    println!("\n=== LUBM (saturation-heavy) ===");
    let lubm = rdfsum_workloads::generate_lubm(&LubmConfig {
        universities: 2,
        seed: 0xCE,
        ..Default::default()
    });
    println!("  input: {} triples", lubm.len());
    // One call checks both kinds: LUBM is saturated once and each side
    // shares one SummaryContext across the kinds.
    let kinds = [SummaryKind::Weak, SummaryKind::Strong];
    for (kind, c) in kinds.iter().zip(completeness_checks(&lubm, &kinds)) {
        println!("  {kind:>3}: completeness holds = {}", c.holds);
    }

    // The point of Prop. 5/8: computing Σ_{G∞} via the summary shortcut.
    println!("\n=== Shortcut speedup (compute Σ(G∞) without saturating G) ===");
    let t0 = Instant::now();
    let direct = summarize(&saturate(&lubm), SummaryKind::Weak);
    let t_direct = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let w = summarize(&lubm, SummaryKind::Weak);
    let shortcut = summarize(&saturate(&w.graph), SummaryKind::Weak);
    let t_shortcut = t0.elapsed().as_secs_f64();
    println!(
        "  saturate-then-summarize: {t_direct:.4}s  ({} summary edges)",
        direct.graph.len()
    );
    println!(
        "  summarize-saturate-resummarize: {t_shortcut:.4}s  ({} summary edges)",
        shortcut.graph.len()
    );
    println!(
        "  identical results: {}",
        summary_isomorphic(&direct.graph, &shortcut.graph)
    );
}
