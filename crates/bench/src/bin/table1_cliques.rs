//! Reproduces **Table 1** of the paper: the source and target cliques of
//! every resource of the Figure 2 running example.
//!
//! ```text
//! cargo run -p rdfsum-bench --bin table1_cliques
//! ```

use rdf_model::Graph;
use rdfsum_core::fixtures::{sample_graph, sample_prefixes};
use rdfsum_core::{CliqueScope, Cliques};

fn local(g: &Graph, id: rdf_model::TermId) -> String {
    let prefixes = sample_prefixes();
    match g.dict().decode(id) {
        rdf_model::TermRef::Iri(iri) => {
            let c = prefixes.compact(iri);
            c.rsplit(':').next().unwrap_or(&c).to_string()
        }
        other => other.to_string(),
    }
}

fn clique_str(g: &Graph, members: &[rdf_model::TermId]) -> String {
    let mut names: Vec<String> = members.iter().map(|&p| local(g, p)).collect();
    names.sort();
    format!("{{{}}}", names.join(", "))
}

fn main() {
    let g = sample_graph();
    let cq = Cliques::compute(&g, CliqueScope::AllNodes);

    println!("Table 1: source and target cliques of the sample RDF graph\n");
    println!("Source cliques:");
    for (i, c) in cq.source_cliques.iter().enumerate() {
        println!("  SC{} = {}", i + 1, clique_str(&g, c));
    }
    println!("Target cliques:");
    for (i, c) in cq.target_cliques.iter().enumerate() {
        println!("  TC{} = {}", i + 1, clique_str(&g, c));
    }

    println!("\n{:>6} {:>28} {:>28}", "r", "SC(r)", "TC(r)");
    let resources = [
        "r1", "r2", "r3", "r4", "r5", "a1", "t1", "t2", "e1", "e2", "c1", "t4", "a2", "t3", "r6",
    ];
    for r in resources {
        let id = rdfsum_core::fixtures::exid(&g, r);
        let sc = cq
            .sc(id)
            .map(|i| clique_str(&g, cq.source_members(i)))
            .unwrap_or_else(|| "∅".to_string());
        let tc = cq
            .tc(id)
            .map(|i| clique_str(&g, cq.target_members(i)))
            .unwrap_or_else(|| "∅".to_string());
        println!("{r:>6} {sc:>28} {tc:>28}");
    }

    // Property distances of §3.1, for good measure.
    use rdfsum_experiments::distance::{CooccurrenceGraph, Side};
    let co = CooccurrenceGraph::build(&g, Side::Source);
    let a = rdfsum_core::fixtures::exid(&g, "author");
    println!("\nProperty distances in SC1 (§3.1):");
    for p in ["title", "editor", "comment"] {
        let q = rdfsum_core::fixtures::exid(&g, p);
        println!(
            "  d(author, {p}) = {}",
            co.distance(a, q)
                .map(|d| d.to_string())
                .unwrap_or_else(|| "∞".into())
        );
    }
}
