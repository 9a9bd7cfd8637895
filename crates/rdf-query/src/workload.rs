//! RBGP query-workload generation by connected-subgraph sampling.
//!
//! To test representativeness (Definition 1: `q(G∞) ≠ ∅ ⇒ q(H∞_G) ≠ ∅`) we
//! need RBGP queries that *provably* have answers on G. We obtain them by
//! sampling: pick a random data or type triple, grow a connected set of
//! triples around it by random walks, then *variabilize* every subject and
//! non-class object while keeping property URIs and τ-class URIs — the
//! identity mapping of the sampled nodes is then an embedding of the query
//! into G, so `q(G) ≠ ∅` (hence `q(G∞) ≠ ∅` too, by monotonicity).

use crate::bgp::{QuerySpec, SpecTerm, TriplePatternSpec};
use rdf_model::{FxHashMap, SplitMix64, TermId, Triple};
use rdf_store::{TriplePattern, TripleStore};

/// Knobs for the workload sampler.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// How many queries to generate.
    pub queries: usize,
    /// Number of triple patterns per query (best effort; a query may be
    /// smaller if the walk gets stuck on an isolated component).
    pub patterns_per_query: usize,
    /// Probability (numerator out of 100) of attaching a τ pattern when the
    /// walked node is typed.
    pub type_pattern_pct: u64,
    /// Random seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            queries: 50,
            patterns_per_query: 3,
            type_pattern_pct: 50,
            seed: 0xC0FFEE,
        }
    }
}

/// Generates RBGP queries guaranteed to be non-empty on `store`'s graph.
///
/// Returns fewer than `cfg.queries` only if the graph has no data or type
/// triples at all.
pub fn sample_rbgp_queries(store: &TripleStore, cfg: &WorkloadConfig) -> Vec<QuerySpec> {
    let g = store.graph();
    let mut rng = SplitMix64::new(cfg.seed);
    let data = g.data();
    let types = g.types();
    if data.is_empty() && types.is_empty() {
        return Vec::new();
    }
    (0..cfg.queries)
        .map(|_| sample_one(store, cfg, &mut rng))
        .collect()
}

fn sample_one(store: &TripleStore, cfg: &WorkloadConfig, rng: &mut SplitMix64) -> QuerySpec {
    let g = store.graph();
    let rdf_type = g.rdf_type();
    let data = g.data();
    let types = g.types();

    // The sampled triples (data + type), deduped.
    let mut chosen: Vec<Triple> = Vec::new();
    // Nodes eligible as walk frontier (subjects/objects of data triples).
    let mut frontier: Vec<TermId> = Vec::new();

    // Seed triple.
    let seed = if data.is_empty() {
        types[rng.index(types.len())]
    } else {
        data[rng.index(data.len())]
    };
    chosen.push(seed);
    frontier.push(seed.s);
    if seed.p != rdf_type {
        frontier.push(seed.o);
    }

    while chosen.len() < cfg.patterns_per_query && !frontier.is_empty() {
        let node = *rng.pick(&frontier);
        // Candidate expansions: data triples incident to `node`, plus
        // (optionally) one of its type triples.
        let out = store.scan(TriplePattern::new(Some(node), None, None));
        let inc = store.scan(TriplePattern::new(None, None, Some(node)));
        let mut candidates: Vec<Triple> = Vec::with_capacity(out.len() + inc.len());
        for &t in out.iter().chain(inc.iter()) {
            let is_type = t.p == rdf_type;
            let is_schema =
                !is_type && !matches!(g.well_known().component_of(t.p), rdf_model::Component::Data);
            if is_schema || chosen.contains(&t) {
                continue;
            }
            if is_type && !rng.chance(cfg.type_pattern_pct, 100) {
                continue;
            }
            candidates.push(t);
        }
        if candidates.is_empty() {
            // Remove the stuck node from the frontier and retry.
            let idx = frontier.iter().position(|&n| n == node).unwrap();
            frontier.swap_remove(idx);
            continue;
        }
        let t = *rng.pick(&candidates);
        chosen.push(t);
        if t.p != rdf_type {
            if !frontier.contains(&t.s) {
                frontier.push(t.s);
            }
            if !frontier.contains(&t.o) {
                frontier.push(t.o);
            }
        }
    }

    variabilize(g, &chosen, rng)
}

/// Turns concrete triples into an RBGP query: nodes → variables, property
/// URIs and τ-class URIs kept.
fn variabilize(g: &rdf_model::Graph, triples: &[Triple], rng: &mut SplitMix64) -> QuerySpec {
    let rdf_type = g.rdf_type();
    let mut var_of: FxHashMap<TermId, String> = FxHashMap::default();
    let mut next = 0usize;
    let mut var = |id: TermId, var_of: &mut FxHashMap<TermId, String>| -> String {
        var_of
            .entry(id)
            .or_insert_with(|| {
                let v = format!("x{next}");
                next += 1;
                v
            })
            .clone()
    };
    let mut body = Vec::with_capacity(triples.len());
    for t in triples {
        let s = SpecTerm::Var(var(t.s, &mut var_of));
        let p = SpecTerm::Const(g.dict().decode(t.p).to_term());
        let o = if t.p == rdf_type {
            SpecTerm::Const(g.dict().decode(t.o).to_term())
        } else {
            SpecTerm::Var(var(t.o, &mut var_of))
        };
        body.push(TriplePatternSpec { s, p, o });
    }
    // Head: a random non-empty subset of the variables (or boolean query
    // with 1-in-8 probability).
    let mut head: Vec<String> = Vec::new();
    if !var_of.is_empty() && !rng.chance(1, 8) {
        let mut vars: Vec<&String> = var_of.values().collect();
        vars.sort(); // determinism: HashMap iteration order is arbitrary
        let take = 1 + rng.index(vars.len());
        for _ in 0..take {
            let i = rng.index(vars.len());
            if !head.contains(vars[i]) {
                head.push(vars[i].clone());
            }
        }
    }
    QuerySpec { head, body }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::compile;
    use crate::eval::Evaluator;
    use crate::rbgp::is_rbgp;
    use rdf_model::{vocab, Graph};

    fn sample_store() -> TripleStore {
        let mut g = Graph::new();
        g.add_iri_triple("r1", "author", "a1");
        g.add_iri_triple("r1", "title", "t1");
        g.add_iri_triple("r2", "title", "t2");
        g.add_iri_triple("r2", "editor", "e1");
        g.add_iri_triple("a1", "reviewed", "r2");
        g.add_iri_triple("r1", vocab::RDF_TYPE, "Book");
        g.add_iri_triple("r2", vocab::RDF_TYPE, "Journal");
        TripleStore::new(g)
    }

    #[test]
    fn generated_queries_are_rbgp() {
        let st = sample_store();
        let qs = sample_rbgp_queries(
            &st,
            &WorkloadConfig {
                queries: 30,
                patterns_per_query: 3,
                ..Default::default()
            },
        );
        assert_eq!(qs.len(), 30);
        for q in &qs {
            assert!(is_rbgp(q), "not RBGP: {q}");
            assert!(!q.body.is_empty());
        }
    }

    #[test]
    fn generated_queries_are_nonempty_on_source() {
        let st = sample_store();
        let qs = sample_rbgp_queries(
            &st,
            &WorkloadConfig {
                queries: 40,
                patterns_per_query: 4,
                seed: 7,
                ..Default::default()
            },
        );
        let ev = Evaluator::new(&st);
        for q in &qs {
            let compiled = compile(q, st.graph()).unwrap();
            assert!(ev.ask(&compiled), "empty on source graph: {q}");
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let st = sample_store();
        let cfg = WorkloadConfig {
            queries: 10,
            seed: 99,
            ..Default::default()
        };
        let a = sample_rbgp_queries(&st, &cfg);
        let b = sample_rbgp_queries(&st, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_graph_yields_no_queries() {
        let st = TripleStore::new(Graph::new());
        assert!(sample_rbgp_queries(&st, &WorkloadConfig::default()).is_empty());
    }

    #[test]
    fn patterns_respect_requested_size() {
        let st = sample_store();
        let qs = sample_rbgp_queries(
            &st,
            &WorkloadConfig {
                queries: 20,
                patterns_per_query: 2,
                seed: 3,
                ..Default::default()
            },
        );
        for q in qs {
            assert!(q.body.len() <= 2 + 1, "query too large: {q}");
            assert!(!q.body.is_empty());
        }
    }
}
