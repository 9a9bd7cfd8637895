//! Static query plans.
//!
//! The evaluator's own dynamic order picks patterns greedily by exact
//! match counts under the current partial binding. [`explain_with`] runs a
//! greedy selection *statically*, before any binding exists, and reports
//! the chosen order with per-step cardinality estimates; its
//! [`Plan::order`] drives [`crate::Evaluator::for_each_row`] and
//! [`crate::Evaluator::ask_ordered`]. The estimates come from a
//! [`JoinEstimator`]. The one in the tree is `rdfsum-core`'s
//! `SummaryEstimator`, which in the spirit of Stefanoni et al. reads the
//! per-binding divisors off the (tiny) summary: it is what the served
//! `QUERY` plans with, and what the CLI's `query --explain` prints.

use crate::bgp::{CompiledPattern, CompiledQuery};
use std::fmt;

/// One step of a query plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanStep {
    /// Index of the body pattern chosen at this step.
    pub pattern_index: usize,
    /// Estimated matches *per binding* of the variables bound by earlier
    /// steps, as the [`JoinEstimator`] reports it (0 only for a pattern
    /// that provably matches nothing).
    pub estimated_matches: usize,
    /// Variables newly bound by this step.
    pub binds: Vec<String>,
}

/// A static query plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    /// Steps in execution order.
    pub steps: Vec<PlanStep>,
    /// True when some pattern can never match (constant absent from the
    /// dictionary or zero-count pattern).
    pub provably_empty: bool,
}

impl Plan {
    /// The pattern join order the plan chose — feed it to
    /// [`crate::Evaluator::ask_ordered`] /
    /// [`crate::Evaluator::select_limit_ordered`] to skip the evaluator's
    /// per-step dynamic counting.
    pub fn order(&self) -> Vec<usize> {
        self.steps.iter().map(|s| s.pattern_index).collect()
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.provably_empty {
            writeln!(f, "PLAN: provably empty")?;
        } else {
            writeln!(f, "PLAN:")?;
        }
        for (i, s) in self.steps.iter().enumerate() {
            writeln!(
                f,
                "  {i}: pattern #{idx} (≈{est} matches/binding{binds})",
                idx = s.pattern_index,
                est = s.estimated_matches,
                binds = if s.binds.is_empty() {
                    String::new()
                } else {
                    format!(", binds {}", s.binds.join(", "))
                }
            )?;
        }
        Ok(())
    }
}

/// Cardinality oracle for static planning.
///
/// `estimate` answers: once the variables flagged in `bound` hold values
/// from earlier join steps (values unknown statically), how many triples
/// should one expect `p` to match per such binding? `None` marks the
/// pattern provably unmatchable (a constant missing from the dictionary).
/// A sound estimator must return `Some(0)` / `None` only when the pattern
/// truly has no matches — the planner turns zero into
/// [`Plan::provably_empty`].
pub trait JoinEstimator {
    /// Per-binding match estimate for `p` given the `bound` variable set.
    fn estimate(&self, p: &CompiledPattern, bound: &[bool]) -> Option<usize>;
}

/// Produces the static greedy plan: at each step the unused pattern with
/// the lowest per-binding estimate from `estimator` (ties: more bound
/// variables, then the lowest index).
pub fn explain_with(q: &CompiledQuery, estimator: &dyn JoinEstimator) -> Plan {
    let n = q.body.len();
    let mut used = vec![false; n];
    let mut bound = vec![false; q.n_vars()];
    let mut steps = Vec::with_capacity(n);
    let mut provably_empty = q.always_empty();
    for _ in 0..n {
        // Lowest per-binding estimate first; prefer patterns with more
        // bound variables on ties, then the lowest index.
        let best = (0..n)
            .filter(|&i| !used[i])
            .map(|i| {
                let p = &q.body[i];
                let bound_vars = p.vars().filter(|&v| bound[v]).count();
                let est = estimator.estimate(p, &bound);
                (i, bound_vars, est)
            })
            .min_by_key(|&(i, bound_vars, est)| {
                (est.unwrap_or(0), std::cmp::Reverse(bound_vars), i)
            });
        let Some((i, _, est)) = best else { break };
        used[i] = true;
        let est = est.unwrap_or(0);
        if est == 0 {
            provably_empty = true;
        }
        let binds: Vec<String> = q.body[i]
            .vars()
            .filter(|&v| !bound[v])
            .map(|v| q.var_names[v].clone())
            .collect();
        for v in q.body[i].vars() {
            bound[v] = true;
        }
        steps.push(PlanStep {
            pattern_index: i,
            estimated_matches: est,
            binds,
        });
    }
    Plan {
        steps,
        provably_empty,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::{compile, Atom, QuerySpec, SpecTerm};
    use rdf_model::Graph;
    use rdf_store::{TriplePattern, TripleStore};

    /// A test estimator, so only the planner's own logic is under test:
    /// the exact count of the pattern's constant-only form, and at most 1
    /// per binding once any of its variables is bound (every join taken
    /// as a key lookup).
    struct Lookups<'a>(&'a TripleStore);

    impl JoinEstimator for Lookups<'_> {
        fn estimate(&self, p: &CompiledPattern, bound: &[bool]) -> Option<usize> {
            let slot = |a: Atom| match a {
                Atom::Const(c) => c.map(Some),
                Atom::Var(_) => Some(None),
            };
            let total = self
                .0
                .count(TriplePattern::new(slot(p.s)?, slot(p.p)?, slot(p.o)?));
            Some(if p.vars().any(|v| bound[v]) {
                total.min(1)
            } else {
                total
            })
        }
    }

    fn store() -> TripleStore {
        let mut g = Graph::new();
        // 100 `common` edges, 1 `rare` edge.
        for i in 0..100 {
            g.add_iri_triple(&format!("s{i}"), "common", &format!("o{i}"));
        }
        g.add_iri_triple("s0", "rare", "x");
        TripleStore::new(g)
    }

    fn v(n: &str) -> SpecTerm {
        SpecTerm::var(n)
    }

    fn plan(st: &TripleStore, spec: &QuerySpec) -> (CompiledQuery, Plan) {
        let q = compile(spec, st.graph()).unwrap();
        let plan = explain_with(&q, &Lookups(st));
        (q, plan)
    }

    #[test]
    fn selective_pattern_goes_first() {
        let st = store();
        let spec = QuerySpec::new(
            ["a"],
            [
                (v("a"), SpecTerm::iri("common"), v("b")),
                (v("a"), SpecTerm::iri("rare"), v("c")),
            ],
        );
        let (_, plan) = plan(&st, &spec);
        assert_eq!(plan.steps[0].pattern_index, 1, "rare first");
        assert_eq!(plan.steps[0].estimated_matches, 1);
        // Step 2 joins on the now-bound ?a: it is charged the estimator's
        // per-binding figure, not the raw 100.
        assert_eq!(plan.steps[1].estimated_matches, 1);
        assert!(!plan.provably_empty);
        assert!(plan.steps[0].binds.contains(&"a".to_string()));
    }

    #[test]
    fn plan_order_feeds_ordered_eval() {
        let st = store();
        let spec = QuerySpec::new(
            ["a"],
            [
                (v("a"), SpecTerm::iri("common"), v("b")),
                (v("a"), SpecTerm::iri("rare"), v("c")),
            ],
        );
        let (q, plan) = plan(&st, &spec);
        let ev = crate::Evaluator::new(&st);
        let fixed = ev.select_limit_ordered(&q, &plan.order(), usize::MAX);
        let dynamic = ev.select(&q);
        let mut a = fixed.rows;
        let mut b = dynamic.rows;
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn missing_constant_is_provably_empty() {
        let st = store();
        let spec = QuerySpec::new(
            Vec::<String>::new(),
            [(v("a"), SpecTerm::iri("nonexistent"), v("b"))],
        );
        assert!(plan(&st, &spec).1.provably_empty);
    }

    #[test]
    fn display_is_readable() {
        let st = store();
        let spec = QuerySpec::new(["a"], [(v("a"), SpecTerm::iri("rare"), v("b"))]);
        let text = plan(&st, &spec).1.to_string();
        assert!(text.contains("PLAN:"));
        assert!(text.contains("pattern #0"));
    }

    #[test]
    fn plan_covers_all_patterns() {
        let st = store();
        let spec = QuerySpec::new(
            ["a"],
            [
                (v("a"), SpecTerm::iri("common"), v("b")),
                (v("b"), SpecTerm::iri("common"), v("c")),
                (v("c"), SpecTerm::iri("rare"), v("d")),
            ],
        );
        let mut idxs = plan(&st, &spec).1.order();
        idxs.sort_unstable();
        assert_eq!(idxs, vec![0, 1, 2]);
    }
}
