//! Quickstart: load an RDF graph, build all four summaries, inspect them.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use rdfsummary::prelude::*;

fn main() {
    // A small library dataset, in N-Triples (the paper's input format).
    let ntriples = r#"
<http://ex/book1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Book> .
<http://ex/book1> <http://ex/author> <http://ex/alice> .
<http://ex/book1> <http://ex/title> "Systems of the World" .
<http://ex/book2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Book> .
<http://ex/book2> <http://ex/author> <http://ex/bob> .
<http://ex/book2> <http://ex/title> "Summaries, Vol. 2" .
<http://ex/book2> <http://ex/editor> <http://ex/carol> .
<http://ex/journal1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Journal> .
<http://ex/journal1> <http://ex/title> "Graph Quarterly" .
<http://ex/journal1> <http://ex/editor> <http://ex/carol> .
<http://ex/alice> <http://ex/reviewed> <http://ex/book2> .
<http://ex/Book> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/Publication> .
"#;
    let graph = parse_graph(ntriples).expect("valid N-Triples");
    println!(
        "input: {} triples ({} data, {} type, {} schema)\n",
        graph.len(),
        graph.data().len(),
        graph.types().len(),
        graph.schema().len()
    );

    // Build the four summaries of the paper.
    for (summary, kind) in summarize_all(&graph).iter().zip(SummaryKind::ALL) {
        let st = summary.stats();
        println!(
            "{:>2} summary: {:>2} nodes ({} data + {} class), {:>2} edges ({} data + {} type + {} schema)",
            kind,
            st.all_nodes,
            st.data_nodes,
            st.class_nodes,
            st.all_edges,
            st.data_edges,
            st.type_edges,
            st.schema_edges,
        );
    }

    // The weak summary in N-Triples — it is just another RDF graph.
    let weak = summarize(&graph, SummaryKind::Weak);
    println!("\nweak summary triples:");
    print!("{}", write_graph(&weak.graph));

    // Who is represented where?
    let alice = graph.dict().lookup(&Term::iri("http://ex/alice")).unwrap();
    let bob = graph.dict().lookup(&Term::iri("http://ex/bob")).unwrap();
    println!(
        "\nalice and bob share a summary node: {}",
        weak.representative(alice) == weak.representative(bob)
    );
}
