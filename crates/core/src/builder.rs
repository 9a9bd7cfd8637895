//! One-stop summarization entry points.

use crate::context::SummaryContext;
use crate::summary::{Summary, SummaryKind};
use rdf_model::Graph;

/// Builds the summary of `g` of the given kind, through a throwaway
/// [`SummaryContext`].
///
/// # Examples
///
/// ```
/// use rdfsum_core::{summarize, SummaryKind};
///
/// let g = rdfsum_core::fixtures::sample_graph(); // the paper's Figure 2
/// let w = summarize(&g, SummaryKind::Weak);
/// // Proposition 4: exactly one data edge per distinct property of G.
/// assert_eq!(w.graph.data().len(), 6);
/// // The summary is itself an RDF graph and a fixpoint: summarizing it
/// // again changes nothing.
/// let ww = summarize(&w.graph, SummaryKind::Weak);
/// assert_eq!(ww.graph.len(), w.graph.len());
/// ```
pub fn summarize(g: &Graph, kind: SummaryKind) -> Summary {
    SummaryContext::new(g).summarize(kind)
}

/// Builds all four principal summaries of `g`, in the paper's order
/// (W, S, TW, TS), through one shared [`SummaryContext`]: the graph is
/// scanned once, and the numbering, property cliques (both scopes) and
/// class sets are reused by every build.
pub fn summarize_all(g: &Graph) -> Vec<Summary> {
    SummaryContext::new(g).summarize_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::sample_graph;

    #[test]
    fn dispatch_produces_right_kinds() {
        let g = sample_graph();
        let all = summarize_all(&g);
        let kinds: Vec<SummaryKind> = all.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, SummaryKind::ALL.to_vec());
    }
}
