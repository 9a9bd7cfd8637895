//! # rdf-query
//!
//! Basic graph pattern (BGP) conjunctive queries over RDF graphs — the
//! paper's query dialect (§2.1) — together with:
//!
//! * a per-graph compiler ([`compile`]) so the *same* surface query can be
//!   evaluated on a graph and on its summary;
//! * a backtracking join [`Evaluator`] — one search behind early-exit
//!   boolean evaluation, streamed rows ([`Evaluator::for_each_row`]) and
//!   collected ones — with dynamic selectivity-based pattern ordering;
//! * RBGP validation ([`validate_rbgp`], Definition 3) — the fragment for
//!   which summaries are representative and accurate;
//! * a paper-notation query [`parser`];
//! * static [`plan`]s ([`explain_with`]) over a caller's cardinality
//!   estimator ([`JoinEstimator`]; `rdfsum-core`'s summary-derived one is
//!   what the served `QUERY` and the CLI `query` plan with), whose order
//!   drives the evaluator ([`Evaluator::for_each_row`],
//!   [`Evaluator::ask_ordered`]); the evaluator's own dynamic order stays
//!   as the oracle the planned order is checked against;
//! * summary-based emptiness pruning ([`empty_on_summary`]): empty on the
//!   summary ⇒ empty on the graph, sound for every quotient kind;
//! * a [`workload`] sampler producing RBGP queries guaranteed non-empty on
//!   a given graph (for the representativeness experiments).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bgp;
pub mod eval;
pub mod parser;
pub mod plan;
pub mod prune;
pub mod rbgp;
pub mod reformulate;
pub mod workload;

pub use bgp::{
    compile, Atom, CompiledPattern, CompiledQuery, QueryError, QuerySpec, SpecTerm,
    TriplePatternSpec,
};
pub use eval::{ControlFlow, Evaluator, ResultSet, Row};
pub use parser::{parse_query, QueryParseError};
pub use plan::{explain_with, JoinEstimator, Plan, PlanStep};
pub use prune::{empty_on_summary, prune_shape_key, relax_for_summary};
pub use rbgp::{is_rbgp, validate_rbgp, RbgpViolation};
pub use reformulate::{ask_via_reformulation, reformulate, ReformulateConfig, ReformulateError};
pub use workload::{sample_rbgp_queries, WorkloadConfig};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rdf_model::Graph;
    use rdf_store::TripleStore;
    use std::collections::BTreeSet;

    /// Builds a random graph with a small random RDFS schema.
    fn schema_graph(
        data: &[(u8, u8, u8)],
        types: &[(u8, u8)],
        sp: &[(u8, u8)],
        sc: &[(u8, u8)],
        dom: &[(u8, u8)],
        rng_: &[(u8, u8)],
    ) -> Graph {
        use rdf_model::vocab;
        let mut g = Graph::new();
        for (s, p, o) in data {
            g.add_iri_triple(&format!("n{s}"), &format!("p{p}"), &format!("n{o}"));
        }
        for (s, c) in types {
            g.add_iri_triple(&format!("n{s}"), vocab::RDF_TYPE, &format!("C{c}"));
        }
        for (a, b) in sp {
            g.add_iri_triple(
                &format!("p{a}"),
                vocab::RDFS_SUBPROPERTYOF,
                &format!("p{b}"),
            );
        }
        for (a, b) in sc {
            g.add_iri_triple(&format!("C{a}"), vocab::RDFS_SUBCLASSOF, &format!("C{b}"));
        }
        for (p, c) in dom {
            g.add_iri_triple(&format!("p{p}"), vocab::RDFS_DOMAIN, &format!("C{c}"));
        }
        for (p, c) in rng_ {
            g.add_iri_triple(&format!("p{p}"), vocab::RDFS_RANGE, &format!("C{c}"));
        }
        g
    }

    /// Naive reference evaluation: enumerate all variable assignments over
    /// graph terms (exponential — keep graphs tiny).
    fn naive_ask(g: &Graph, q: &CompiledQuery) -> bool {
        if q.always_empty() {
            return false;
        }
        let node_ids: Vec<rdf_model::TermId> = {
            let mut v: Vec<_> = g.dict().iter().map(|(id, _)| id).collect();
            v.sort_unstable();
            v
        };
        let n = q.n_vars();
        let mut assignment = vec![0usize; n];
        loop {
            let binding: Vec<Option<rdf_model::TermId>> =
                assignment.iter().map(|&i| Some(node_ids[i])).collect();
            let ok = q.body.iter().all(|p| {
                let resolve = |a: Atom| match a {
                    Atom::Var(v) => binding[v].unwrap(),
                    Atom::Const(c) => c.unwrap(),
                };
                g.contains(rdf_model::Triple::new(
                    resolve(p.s),
                    resolve(p.p),
                    resolve(p.o),
                ))
            });
            if ok {
                return true;
            }
            // Next assignment (odometer).
            let mut i = 0;
            loop {
                if i == n {
                    return false;
                }
                assignment[i] += 1;
                if assignment[i] < node_ids.len() {
                    break;
                }
                assignment[i] = 0;
                i += 1;
            }
            if n == 0 {
                return false;
            }
        }
    }

    /// The distinct head projections of `spec` on `g` by nested loops
    /// over `g.iter()` — one loop level per body pattern, variables held
    /// by name, constants looked up as written: nothing shared with
    /// [`compile`] or the [`Evaluator`].
    fn oracle_rows(g: &Graph, spec: &QuerySpec) -> BTreeSet<Vec<rdf_model::TermId>> {
        fn extend<'s>(
            g: &Graph,
            spec: &'s QuerySpec,
            depth: usize,
            env: &mut Vec<(&'s str, rdf_model::TermId)>,
            rows: &mut BTreeSet<Vec<rdf_model::TermId>>,
        ) {
            let Some(pat) = spec.body.get(depth) else {
                let value = |name: &String| env.iter().find(|(n, _)| n == name).unwrap().1;
                rows.insert(spec.head.iter().map(value).collect());
                return;
            };
            for t in g.iter() {
                let before = env.len();
                let fits = [(&pat.s, t.s), (&pat.p, t.p), (&pat.o, t.o)]
                    .into_iter()
                    .all(|(term, id)| match term {
                        SpecTerm::Const(c) => g.dict().lookup(c) == Some(id),
                        SpecTerm::Var(v) => match env.iter().find(|(n, _)| n == v) {
                            Some(&(_, bound)) => bound == id,
                            None => {
                                env.push((v, id));
                                true
                            }
                        },
                    });
                if fits {
                    extend(g, spec, depth + 1, env, rows);
                }
                env.truncate(before);
            }
        }
        let mut rows = BTreeSet::new();
        extend(g, spec, 0, &mut Vec::new(), &mut rows);
        rows
    }

    /// Every permutation of `0..n`.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        permutations(n - 1)
            .into_iter()
            .flat_map(|p| {
                (0..n).map(move |at| {
                    let mut q = p.clone();
                    q.insert(at, n - 1);
                    q
                })
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]
        /// The one search against the nested-loop oracle, through every
        /// entry point: streamed rows are the oracle's set and pairwise
        /// distinct, a limit yields exactly `min(limit, |answers|)` of
        /// them, every valid join order gives the same set and every
        /// invalid one falls back. Atom codes: `0..3` a variable of a
        /// pool shared by all positions (so `?x <p> ?x`, a variable in
        /// property position, and repeats across patterns all occur), then
        /// the graph's own terms, then a constant the graph lacks. Head
        /// entries pick among the body's variables with repeats — heads
        /// that drop variables, keep all of them, or name one twice.
        #[test]
        fn search_matches_nested_loop_oracle(
            triples in proptest::collection::vec((0u8..4, 0u8..3, 0u8..4), 1..12),
            body in proptest::collection::vec((0u8..8, 0u8..7, 0u8..8), 1..4),
            head in proptest::collection::vec(0usize..6, 0..4),
            repeat_first: bool,
        ) {
            // Node 3 is also property 0, so a variable can join the two.
            let node = |i: u8| if i == 3 { "p0".to_string() } else { format!("n{i}") };
            let mut g = Graph::new();
            for &(s, p, o) in &triples {
                g.add_iri_triple(&node(s), &format!("p{p}"), &node(o));
            }
            let atom = |code: u8, constants: u8, name: &dyn Fn(u8) -> String| match code {
                0..=2 => SpecTerm::var(format!("v{code}")),
                c if c - 3 < constants => SpecTerm::iri(name(c - 3)),
                _ => SpecTerm::iri("absent"),
            };
            let mut patterns: Vec<(SpecTerm, SpecTerm, SpecTerm)> = body
                .iter()
                .map(|&(s, p, o)| (
                    atom(s, 4, &node),
                    atom(p, 3, &|i| format!("p{i}")),
                    atom(o, 4, &node),
                ))
                .collect();
            if repeat_first {
                patterns.push(patterns[0].clone());
            }
            let mut vars: Vec<String> = Vec::new();
            for (s, p, o) in &patterns {
                for term in [s, p, o] {
                    if let SpecTerm::Var(v) = term {
                        if !vars.contains(v) {
                            vars.push(v.clone());
                        }
                    }
                }
            }
            let head: Vec<String> = if vars.is_empty() {
                Vec::new()
            } else {
                head.iter().map(|&h| vars[h % vars.len()].clone()).collect()
            };
            let spec = QuerySpec::new(head, patterns);
            let expect = oracle_rows(&g, &spec);
            let n = expect.len();
            let q = compile(&spec, &g).unwrap();
            let st = TripleStore::new(g);
            let ev = Evaluator::new(&st);

            let all = ev.select(&q).rows;
            prop_assert_eq!(all.len(), n, "repeated rows: {}", spec);
            prop_assert_eq!(&all.iter().cloned().collect::<BTreeSet<_>>(), &expect, "{}", spec);
            prop_assert_eq!(ev.ask(&q), n > 0, "{}", spec);

            for limit in [0, 1, n.saturating_sub(1), n, n + 1, usize::MAX] {
                let cut = ev.select_limit(&q, limit).rows;
                prop_assert_eq!(cut.len(), limit.min(n), "limit {} of {}", limit, spec);
                let distinct: BTreeSet<_> = cut.iter().cloned().collect();
                prop_assert_eq!(distinct.len(), cut.len(), "limit {} of {}", limit, spec);
                prop_assert!(distinct.is_subset(&expect), "limit {} of {}", limit, spec);
            }

            let len = q.body.len();
            let invalid = [vec![0; len], vec![0; len + 1], vec![len; len], Vec::new()];
            for order in permutations(len).iter().chain(&invalid) {
                let mut streamed = Vec::new();
                ev.for_each_row(&q, order, |row| {
                    streamed.push(row.to_vec());
                    ControlFlow::Continue
                });
                prop_assert_eq!(streamed.len(), n, "order {:?} of {}", order, spec);
                prop_assert_eq!(
                    &streamed.into_iter().collect::<BTreeSet<_>>(),
                    &expect,
                    "order {:?} of {}", order, spec
                );
                prop_assert_eq!(
                    ev.select_limit_ordered(&q, order, 1).len(),
                    n.min(1),
                    "order {:?} of {}", order, spec
                );
                prop_assert_eq!(ev.ask_ordered(&q, order), n > 0, "order {:?} of {}", order, spec);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Reformulation over explicit triples agrees with direct
        /// evaluation over the saturation, on random graphs, schemas and
        /// RBGP-style queries (the two implementations validate each
        /// other).
        #[test]
        fn reformulation_agrees_with_saturation(
            data in proptest::collection::vec((0u8..5, 0u8..3, 0u8..5), 1..16),
            types in proptest::collection::vec((0u8..5, 0u8..3), 0..6),
            sp in proptest::collection::vec((0u8..3, 0u8..3), 0..4),
            sc in proptest::collection::vec((0u8..3, 0u8..3), 0..4),
            dom in proptest::collection::vec((0u8..3, 0u8..3), 0..3),
            rng_ in proptest::collection::vec((0u8..3, 0u8..3), 0..3),
            qprop in 0u8..4,
            qclass in 0u8..4,
            use_type_pattern: bool,
        ) {
            let g = schema_graph(&data, &types, &sp, &sc, &dom, &rng_);
            let spec = if use_type_pattern {
                QuerySpec::new(
                    ["x"],
                    [(
                        SpecTerm::var("x"),
                        SpecTerm::iri(rdf_model::vocab::RDF_TYPE),
                        SpecTerm::iri(format!("C{qclass}")),
                    )],
                )
            } else {
                QuerySpec::new(
                    ["x"],
                    [(
                        SpecTerm::var("x"),
                        SpecTerm::iri(format!("p{qprop}")),
                        SpecTerm::var("y"),
                    )],
                )
            };
            let plain = TripleStore::new(g.clone());
            let saturated = TripleStore::new(rdf_schema::saturate(&g));
            let direct = compile(&spec, saturated.graph())
                .map(|cq| Evaluator::new(&saturated).ask(&cq))
                .unwrap_or(false);
            let via = ask_via_reformulation(
                &plain,
                &spec,
                &reformulate::ReformulateConfig::default(),
            ).expect("within cap");
            prop_assert_eq!(direct, via, "query {}", spec);
        }

        /// select() returns exactly the distinct projections brute force
        /// finds (not just emptiness agreement).
        #[test]
        fn select_matches_bruteforce(
            triples in proptest::collection::vec((0u8..3, 0u8..2, 0u8..3), 1..8),
            pat in (0u8..3, 0u8..2, 0u8..3, 0u8..8),
        ) {
            let mut g = Graph::new();
            for (s, p, o) in &triples {
                g.add_iri_triple(&format!("n{s}"), &format!("p{p}"), &format!("n{o}"));
            }
            let (ps, pp, po, mask) = pat;
            let sv = if mask & 1 != 0 { SpecTerm::var("x") } else { SpecTerm::iri(format!("n{ps}")) };
            let ov = if mask & 4 != 0 { SpecTerm::var("y") } else { SpecTerm::iri(format!("n{po}")) };
            let mut head: Vec<&str> = Vec::new();
            if matches!(sv, SpecTerm::Var(_)) { head.push("x"); }
            if matches!(ov, SpecTerm::Var(_)) { head.push("y"); }
            let spec = QuerySpec::new(
                head.clone(),
                [(sv.clone(), SpecTerm::iri(format!("p{pp}")), ov.clone())],
            );
            let q = compile(&spec, &g).unwrap();
            let st = TripleStore::new(g);
            let rs = Evaluator::new(&st).select(&q);
            // Brute force over all triples.
            let mut expect: std::collections::BTreeSet<Vec<String>> = Default::default();
            for t in st.graph().iter() {
                let sm = match &sv {
                    SpecTerm::Var(_) => true,
                    SpecTerm::Const(c) => st.graph().dict().lookup(c) == Some(t.s),
                };
                let pm = st.graph().dict().lookup(
                    &rdf_model::Term::iri(format!("p{pp}"))
                ) == Some(t.p);
                let om = match &ov {
                    SpecTerm::Var(_) => true,
                    SpecTerm::Const(c) => st.graph().dict().lookup(c) == Some(t.o),
                };
                if sm && pm && om {
                    let mut row = Vec::new();
                    if head.contains(&"x") {
                        row.push(st.graph().dict().decode(t.s).to_string());
                    }
                    if head.contains(&"y") {
                        row.push(st.graph().dict().decode(t.o).to_string());
                    }
                    expect.insert(row);
                }
            }
            let got: std::collections::BTreeSet<Vec<String>> = rs
                .decode(&st)
                .into_iter()
                .map(|row| row.iter().map(|t| t.to_string()).collect())
                .collect();
            prop_assert_eq!(got, expect);
        }

        /// The index-join evaluator agrees with brute force on ask().
        #[test]
        fn evaluator_matches_bruteforce(
            triples in proptest::collection::vec((0u8..3, 0u8..2, 0u8..3), 1..8),
            qpatterns in proptest::collection::vec(
                (0u8..3, 0u8..2, 0u8..3, 0u8..8), 1..3
            ),
        ) {
            let mut g = Graph::new();
            for (s, p, o) in &triples {
                g.add_iri_triple(&format!("n{s}"), &format!("p{p}"), &format!("n{o}"));
            }
            // Build query patterns: the mask picks which slots are variables.
            let body: Vec<(SpecTerm, SpecTerm, SpecTerm)> = qpatterns
                .iter()
                .map(|&(s, p, o, mask)| {
                    let sv = if mask & 1 != 0 {
                        SpecTerm::var(format!("v{s}"))
                    } else {
                        SpecTerm::iri(format!("n{s}"))
                    };
                    let pv = SpecTerm::iri(format!("p{p}"));
                    let ov = if mask & 4 != 0 {
                        SpecTerm::var(format!("w{o}"))
                    } else {
                        SpecTerm::iri(format!("n{o}"))
                    };
                    (sv, pv, ov)
                })
                .collect();
            let spec = QuerySpec::new(Vec::<String>::new(), body);
            let q = compile(&spec, &g).unwrap();
            let st = TripleStore::new(g);
            let fast = Evaluator::new(&st).ask(&q);
            let slow = naive_ask(st.graph(), &q);
            prop_assert_eq!(fast, slow, "query: {}", spec);
        }
    }
}
