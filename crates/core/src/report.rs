//! Human-readable summary reports: the "first-level user interface" use
//! case of the paper's introduction.

use crate::naming::display_label;
use crate::summary::{Summary, SummaryKind};
use rdf_model::{PrefixMap, TermId, TermRef};
use std::fmt::Write as _;

/// Options for [`render_report`].
#[derive(Clone, Debug, Default)]
pub struct ReportOptions {
    /// Prefixes for compacting IRIs.
    pub prefixes: PrefixMap,
    /// Show at most this many example members per summary node (0 = none).
    pub examples_per_node: usize,
}

fn short(prefixes: &PrefixMap, term: TermRef<'_>) -> String {
    // `as_iri` also covers minted summary terms (rendered lazily).
    match term.as_iri() {
        Some(iri) => display_label(&prefixes.compact(iri)),
        None => term.to_string(),
    }
}

/// Renders a text report of a summary: per-node extents (with optional
/// example members decoded from the source graph) and the edge list.
pub fn render_report(
    summary: &Summary,
    kind: SummaryKind,
    source: &rdf_model::Graph,
    opts: &ReportOptions,
) -> String {
    let h = &summary.graph;
    let mut out = String::new();
    let st = summary.stats();
    let _ = writeln!(
        out,
        "{} summary: {} nodes ({} data, {} class) / {} edges ({} data, {} type, {} schema)",
        kind,
        st.all_nodes,
        st.data_nodes,
        st.class_nodes,
        st.all_edges,
        st.data_edges,
        st.type_edges,
        st.schema_edges
    );

    // Nodes, largest extent first.
    let mut nodes: Vec<(TermId, usize)> = h
        .data_nodes()
        .into_iter()
        .map(|n| (n, summary.extent(n).len()))
        .collect();
    nodes.sort_by_key(|&(n, count)| (std::cmp::Reverse(count), n));
    let _ = writeln!(out, "\nnodes (by extent):");
    for (n, count) in nodes {
        let label = short(&opts.prefixes, h.dict().decode(n));
        let _ = write!(out, "  {label:<60} x{count}");
        if opts.examples_per_node > 0 && count > 0 {
            let sample: Vec<String> = summary
                .extent(n)
                .iter()
                .take(opts.examples_per_node)
                .map(|&m| short(&opts.prefixes, source.dict().decode(m)))
                .collect();
            let _ = write!(out, "   e.g. {}", sample.join(", "));
        }
        out.push('\n');
    }

    let _ = writeln!(out, "\nedges:");
    for t in h.data() {
        let _ = writeln!(
            out,
            "  {} --{}--> {}",
            short(&opts.prefixes, h.dict().decode(t.s)),
            short(&opts.prefixes, h.dict().decode(t.p)),
            short(&opts.prefixes, h.dict().decode(t.o)),
        );
    }
    for t in h.types() {
        let _ = writeln!(
            out,
            "  {} --τ--> {}",
            short(&opts.prefixes, h.dict().decode(t.s)),
            short(&opts.prefixes, h.dict().decode(t.o)),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{sample_graph, sample_prefixes};
    use crate::summarize;

    #[test]
    fn report_contains_labels_and_counts() {
        let g = sample_graph();
        let w = summarize(&g, SummaryKind::Weak);
        let report = render_report(
            &w,
            SummaryKind::Weak,
            &g,
            &ReportOptions {
                prefixes: sample_prefixes(),
                examples_per_node: 2,
            },
        );
        assert!(report.contains("W summary"));
        assert!(report.contains("x5")); // the big node represents r1..r5
        assert!(report.contains("e.g."));
        assert!(report.contains("--τ-->"));
        assert!(report.contains("Nτ"));
    }

    #[test]
    fn report_without_examples() {
        let g = sample_graph();
        let w = summarize(&g, SummaryKind::Weak);
        let report = render_report(&w, SummaryKind::Weak, &g, &ReportOptions::default());
        assert!(!report.contains("e.g."));
    }
}
