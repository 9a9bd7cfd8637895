//! Inverse-set witnesses: generating graphs that summarize to a given
//! summary.
//!
//! Definition 2 (query-based accuracy) quantifies a summary against its
//! *inverse set* G — all graphs whose summary it is. Proposition 3 derives
//! accuracy from the fixpoint property: `H_G` itself belongs to its inverse
//! set. This module makes the inverse set *constructive*: [`inflate`]
//! expands each summary node into `k` fresh resources and re-distributes
//! the summary's edges over them so that the weak summary of the inflated
//! graph is the original summary again (up to minted-URI renaming).
//!
//! Uses:
//! * a generative test of quotient soundness from the other direction
//!   (`W(inflate(W_G)) ≅ W_G` — checked by property tests);
//! * synthetic benchmark graphs with a *prescribed* summary shape;
//! * a concrete demonstration of Definition 2: any query matching `H∞`
//!   matches the saturation of some member of the inverse set.

use rdf_model::{FxHashMap, Graph, SplitMix64, Term, TermId};
use rdfsum_core::naming::SUMMARY_NS;
use rdfsum_core::summary::{Summary, SummaryKind};

/// Options for [`inflate`].
#[derive(Clone, Debug)]
pub struct InflateConfig {
    /// How many concrete resources to mint per summary node.
    pub copies_per_node: usize,
    /// How many concrete edges to draw per summary edge (each connects
    /// uniformly chosen copies of its endpoints).
    pub edges_per_edge: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for InflateConfig {
    fn default() -> Self {
        InflateConfig {
            copies_per_node: 3,
            edges_per_edge: 6,
            seed: 0x1F1A7E,
        }
    }
}

/// Expands a *weak* summary into a member of its inverse set.
///
/// Every summary node `n` becomes `copies_per_node` fresh IRIs; every
/// summary data edge `n --p--> m` becomes `edges_per_edge` concrete edges
/// between random copies, with coverage fixed up so that **every copy of
/// `n` has property `p` and every copy of `m` is a value of `p`** — this is
/// what keeps all copies of a node weakly equivalent and all copies of
/// different nodes apart, so the weak summary collapses the graph back.
/// Type edges are replicated on every copy; schema triples are copied.
pub fn inflate(summary: &Summary, cfg: &InflateConfig) -> Graph {
    let h = &summary.graph;
    let mut rng = SplitMix64::new(cfg.seed);
    let mut g = Graph::new();
    let k = cfg.copies_per_node.max(1);

    // Mint copies for every summary *data* node (nodes appearing in D_H or
    // as T_H subjects). Class nodes and schema terms keep their URIs.
    let mut copies: FxHashMap<TermId, Vec<String>> = FxHashMap::default();
    let mut counter = 0usize;
    let mut copies_of = |id: TermId, copies: &mut FxHashMap<TermId, Vec<String>>| {
        copies
            .entry(id)
            .or_insert_with(|| {
                let mine: Vec<String> = (0..k)
                    .map(|j| {
                        counter += 1;
                        format!("http://inflated.example.org/r{counter}_{j}")
                    })
                    .collect();
                mine
            })
            .clone()
    };

    for t in h.data() {
        let src = copies_of(t.s, &mut copies);
        let dst = copies_of(t.o, &mut copies);
        let p = h
            .dict()
            .decode(t.p)
            .as_iri()
            .expect("data property is an IRI")
            .to_string();
        // Random edges…
        for _ in 0..cfg.edges_per_edge.max(1) {
            let s = rng.pick(&src).clone();
            let o = rng.pick(&dst).clone();
            g.add_iri_triple(&s, &p, &o);
        }
        // …plus coverage: every source copy has p, every target copy is a
        // value of p (pair copy i with a rotated copy on the other side).
        for (i, s) in src.iter().enumerate() {
            g.add_iri_triple(s, &p, &dst[(i + 1) % dst.len()]);
        }
        for (i, o) in dst.iter().enumerate() {
            g.add_iri_triple(&src[(i + 1) % src.len()], &p, o);
        }
    }
    for t in h.types() {
        let src = copies_of(t.s, &mut copies);
        let class = h.dict().decode(t.o).to_term();
        for s in &src {
            g.insert(
                Term::iri(s.clone()),
                Term::iri(rdf_model::vocab::RDF_TYPE),
                class.clone(),
            )
            .expect("well-formed type triple");
        }
    }
    for t in h.schema() {
        let d = h.dict();
        g.insert_ref(d.decode(t.s), d.decode(t.p), d.decode(t.o))
            .expect("schema triples are well-formed");
    }
    g
}

/// Is `uri` one of this module's inflated-resource URIs?
pub fn is_inflated_resource(uri: &str) -> bool {
    uri.starts_with("http://inflated.example.org/")
}

/// Convenience check: does `summary` (a weak summary) reproduce itself
/// through inflation? (`W(inflate(H)) ≅ H`.)
pub fn reproduces_through_inflation(summary: &Summary, cfg: &InflateConfig) -> bool {
    let g = inflate(summary, cfg);
    let again = rdfsum_core::summarize(&g, SummaryKind::Weak);
    crate::iso::summary_isomorphic(&again.graph, &summary.graph)
}

/// Sanity guard used by tests: inflated graphs must not leak minted
/// summary URIs as resources.
pub fn no_summary_uris_leaked(g: &Graph) -> bool {
    g.dict()
        .iter()
        .all(|(_, t)| !t.as_iri().is_some_and(|iri| iri.starts_with(SUMMARY_NS)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfsum_core::fixtures::sample_graph;
    use rdfsum_core::summarize;

    #[test]
    fn inflating_the_sample_weak_summary_reproduces_it() {
        let g = sample_graph();
        let w = summarize(&g, SummaryKind::Weak);
        assert!(reproduces_through_inflation(&w, &InflateConfig::default()));
    }

    #[test]
    fn inflated_graph_is_larger_and_clean() {
        let g = sample_graph();
        let w = summarize(&g, SummaryKind::Weak);
        let big = inflate(&w, &InflateConfig::default());
        assert!(big.len() > w.graph.len() * 2);
        assert!(no_summary_uris_leaked(&big));
        assert!(big.well_behaved_violations().is_empty());
    }

    #[test]
    fn single_copy_inflation_is_summary_renaming() {
        let g = sample_graph();
        let w = summarize(&g, SummaryKind::Weak);
        let cfg = InflateConfig {
            copies_per_node: 1,
            edges_per_edge: 1,
            seed: 3,
        };
        let renamed = inflate(&w, &cfg);
        // One copy per node, full coverage ⇒ same shape as the summary.
        assert_eq!(renamed.data().len(), w.graph.data().len());
        assert!(reproduces_through_inflation(&w, &cfg));
    }

    #[test]
    fn inflation_is_deterministic() {
        let g = sample_graph();
        let w = summarize(&g, SummaryKind::Weak);
        let a = inflate(&w, &InflateConfig::default());
        let b = inflate(&w, &InflateConfig::default());
        assert_eq!(rdf_io::write_graph(&a), rdf_io::write_graph(&b));
    }

    #[test]
    fn accuracy_demonstration_definition2() {
        // Any RBGP query matching H∞ matches the saturation of a member of
        // the inverse set — take the inflated graph as that member.
        use rdf_query::{compile, Evaluator};
        use rdf_store::TripleStore;
        let g = sample_graph();
        let w = summarize(&g, SummaryKind::Weak);
        let member = inflate(&w, &InflateConfig::default());
        // A query that matches the summary:
        let q = rdf_query::parse_query(
            "q() :- ?x <http://example.org/author> ?y, ?y <http://example.org/reviewed> ?z",
            &rdf_model::PrefixMap::with_defaults(),
        )
        .unwrap();
        let h_store = TripleStore::new(w.graph.clone());
        let cq = compile(&q, h_store.graph()).unwrap();
        assert!(Evaluator::new(&h_store).ask(&cq));
        // It must match the member too (its weak summary is H, and the
        // coverage property gives an embedding).
        let m_store = TripleStore::new(member);
        let cq = compile(&q, m_store.graph()).unwrap();
        assert!(Evaluator::new(&m_store).ask(&cq));
    }
}
