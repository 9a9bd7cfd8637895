//! Summary-based emptiness pruning: *empty on the summary ⇒ empty on the
//! graph*.
//!
//! Every summary in this workspace is a quotient (Definition 4): there is
//! a homomorphism `f` from `G` onto its summary `H` that maps each data
//! node to its representative while keeping data property URIs, `τ`
//! (`rdf:type`) class URIs, and schema triples verbatim. Composing any
//! embedding of a BGP `q` into `G` with `f` therefore yields an embedding
//! into `H` of the *relaxed* form of `q` — the form that keeps exactly
//! the constants `f` fixes (property positions and `τ`-class objects) and
//! turns every other constant into a fresh variable, since data constants
//! are renamed to summary nodes by `f`.
//!
//! Contrapositive: if the relaxed query has no answer on `H`, then `q`
//! has no answer on `G`. That check is an ASK over the (tiny) summary —
//! usually orders of magnitude smaller than a join over the full graph —
//! and it is sound for **every** quotient summary kind, with no RBGP
//! restriction on `q`. The converse does not hold: a non-empty summary
//! answer promises nothing, which is exactly the paper's
//! representativeness notion (§4) used in its pruning direction only.
//!
//! One caveat bounds the argument: `f` is *position-dependent* — the same
//! term is kept verbatim where it plays a property (or `τ`-class) role
//! but renamed where it plays a data-node role, and a graph may use one
//! IRI in both roles (`author` as a predicate *and* as the subject of a
//! data triple). A query variable that spans both kinds of position would
//! need `f(t) = t` for its binding, which the quotient does not promise,
//! so composing with `f` is no longer answer-preserving. For such
//! *cross-position* queries [`empty_on_summary`] refuses to prune and
//! returns "don't know" (`false`).

use crate::bgp::{compile, QuerySpec, SpecTerm, TriplePatternSpec};
use crate::eval::Evaluator;
use rdf_model::{vocab, FxHashSet, Term};
use rdf_store::TripleStore;

/// Is this spec term the `τ` (`rdf:type`) property constant?
fn is_tau(t: &SpecTerm) -> bool {
    matches!(t, SpecTerm::Const(c) if c.as_iri().is_some_and(vocab::is_type_property))
}

/// Relaxes `spec` to the fragment a quotient summary preserves, as a
/// boolean (empty-head) query:
///
/// * property positions are kept as-is (constants and variables);
/// * the object of a `τ` pattern is kept when it is an IRI constant
///   (class URIs survive summarization verbatim);
/// * every other constant — subjects, data objects, literal `τ` objects —
///   becomes a fresh variable, because the quotient renames the data
///   nodes those constants would have matched.
pub fn relax_for_summary(spec: &QuerySpec) -> QuerySpec {
    let taken: FxHashSet<String> = spec.variables().iter().map(|v| v.to_string()).collect();
    let mut fresh = 0usize;
    let mut next_fresh = move || loop {
        let name = format!("__sum{fresh}");
        fresh += 1;
        if !taken.contains(&name) {
            return SpecTerm::Var(name);
        }
    };
    let body = spec
        .body
        .iter()
        .map(|pat| {
            let s = match &pat.s {
                SpecTerm::Var(_) => pat.s.clone(),
                SpecTerm::Const(_) => next_fresh(),
            };
            let o = match &pat.o {
                SpecTerm::Var(_) => pat.o.clone(),
                SpecTerm::Const(c) if is_tau(&pat.p) && matches!(c, Term::Iri(_)) => pat.o.clone(),
                SpecTerm::Const(_) => next_fresh(),
            };
            TriplePatternSpec {
                s,
                p: pat.p.clone(),
                o,
            }
        })
        .collect();
    QuerySpec {
        head: Vec::new(),
        body,
    }
}

/// Canonical key of the *relaxed shape* of `spec` — the part of a query
/// a quotient summary can see.
///
/// Two queries get the same key iff their [`relax_for_summary`] forms are
/// identical up to variable renaming: variables (original and fresh
/// alike) are numbered by first occurrence in s/p/o reading order, kept
/// constants (property positions, `τ`-class IRIs) are rendered verbatim.
/// Since relaxation variabilizes every data constant, queries that differ
/// only in data constants collapse onto one key — which is exactly what
/// makes the key useful for caching [`empty_on_summary`] verdicts: the
/// verdict depends only on the summary content and this shape.
pub fn prune_shape_key(spec: &QuerySpec) -> String {
    use std::collections::HashMap;
    use std::fmt::Write;
    let relaxed = relax_for_summary(spec);
    let mut numbers: HashMap<String, usize> = HashMap::new();
    let mut key = String::new();
    for pat in &relaxed.body {
        for t in [&pat.s, &pat.p, &pat.o] {
            match t {
                SpecTerm::Var(v) => {
                    let next = numbers.len();
                    let n = *numbers.entry(v.clone()).or_insert(next);
                    let _ = write!(key, "?{n} ");
                }
                SpecTerm::Const(c) => {
                    let _ = write!(key, "{c} ");
                }
            }
        }
        key.push('.');
    }
    key
}

/// Does some variable of `spec` occur both in a *kept* position (a
/// property slot, or the IRI object slot of a `τ` pattern) and in a
/// *node* position (a subject slot, or any other object slot)?
///
/// The quotient homomorphism keeps kept-position terms verbatim but
/// renames node-position data terms, so a binding `t` of such a variable
/// would have to satisfy `f(t) = t` for the relaxed query to inherit the
/// answer — which the quotient does not promise (e.g. an IRI used both as
/// a predicate and as the subject of a data triple is renamed in the
/// latter role only). Pruning such queries would be unsound.
fn has_cross_position_variable(spec: &QuerySpec) -> bool {
    let mut kept: FxHashSet<&str> = FxHashSet::default();
    let mut node: FxHashSet<&str> = FxHashSet::default();
    for pat in &spec.body {
        if let SpecTerm::Var(v) = &pat.s {
            node.insert(v);
        }
        if let SpecTerm::Var(v) = &pat.p {
            kept.insert(v);
        }
        if let SpecTerm::Var(v) = &pat.o {
            if is_tau(&pat.p) {
                kept.insert(v);
            } else {
                node.insert(v);
            }
        }
    }
    kept.iter().any(|v| node.contains(v))
}

/// Sound emptiness check against a summary store: `true` means the query
/// provably has no answers on the summarized graph (so evaluation there
/// can be skipped); `false` means "don't know — evaluate".
///
/// `summary` must be the store of a quotient summary of the graph the
/// caller wants to prune for (a served W/S/TW/TS/T summary, or any other
/// quotient, such as the bisimulation baseline), built over the same
/// explicit triples the query will run on.
pub fn empty_on_summary(summary: &TripleStore, spec: &QuerySpec) -> bool {
    if spec.body.is_empty() || has_cross_position_variable(spec) {
        return false;
    }
    let relaxed = relax_for_summary(spec);
    match compile(&relaxed, summary.graph()) {
        // A kept constant missing from the summary dictionary compiles to
        // `always_empty`, and ask() is false — correctly pruned, because
        // properties/classes present in G are present in H.
        Ok(q) => !Evaluator::new(summary).ask(&q),
        // Unreachable (relaxed queries are boolean with a non-empty
        // body), but stay sound — never prune — if it ever happens.
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Graph;

    fn v(n: &str) -> SpecTerm {
        SpecTerm::var(n)
    }

    fn iri(s: &str) -> SpecTerm {
        SpecTerm::iri(s)
    }

    /// A tiny graph and a hand-built weak-style quotient of it:
    /// `b1, b2 → B`, `alice, bob → A`, `"T1", "T2" → L`; classes,
    /// properties and schema kept verbatim.
    fn graph_and_summary() -> (TripleStore, TripleStore) {
        let mut g = Graph::new();
        g.add_iri_triple("b1", vocab::RDF_TYPE, "Book");
        g.add_iri_triple("b2", vocab::RDF_TYPE, "Book");
        g.add_iri_triple("b1", "author", "alice");
        g.add_iri_triple("b2", "author", "bob");
        g.add_literal_triple("b1", "title", "T1");
        g.add_literal_triple("b2", "title", "T2");
        g.add_iri_triple("Book", vocab::RDFS_SUBCLASSOF, "Publication");

        let mut h = Graph::new();
        h.add_iri_triple("B", vocab::RDF_TYPE, "Book");
        h.add_iri_triple("B", "author", "A");
        h.add_iri_triple("B", "title", "L");
        h.add_iri_triple("Book", vocab::RDFS_SUBCLASSOF, "Publication");
        (TripleStore::new(g), TripleStore::new(h))
    }

    #[test]
    fn relaxation_keeps_properties_and_classes_only() {
        let spec = QuerySpec::new(
            ["x"],
            [
                (iri("b1"), iri("author"), v("y")),
                (v("x"), iri(vocab::RDF_TYPE), iri("Book")),
                (v("x"), iri("title"), SpecTerm::Const(Term::literal("T1"))),
            ],
        );
        let r = relax_for_summary(&spec);
        assert!(r.head.is_empty(), "relaxed query is boolean");
        // Subject constant b1 variabilized; property kept.
        assert!(r.body[0].s.is_var());
        assert_eq!(r.body[0].p, iri("author"));
        // τ-class constant kept.
        assert_eq!(r.body[1].o, iri("Book"));
        // Literal object variabilized.
        assert!(r.body[2].o.is_var());
        // Fresh variables are distinct from each other and from ?x/?y.
        let vars = r.variables();
        assert_eq!(
            vars.len(),
            vars.iter().collect::<std::collections::HashSet<_>>().len()
        );
    }

    #[test]
    fn fresh_variables_avoid_collisions() {
        let spec = QuerySpec::new(
            Vec::<String>::new(),
            [(v("__sum0"), iri("author"), iri("alice"))],
        );
        let r = relax_for_summary(&spec);
        let SpecTerm::Var(fresh) = &r.body[0].o else {
            panic!("object should be variabilized");
        };
        assert_ne!(fresh, "__sum0");
    }

    #[test]
    fn nonempty_queries_are_never_pruned() {
        let (g, h) = graph_and_summary();
        let ev = Evaluator::new(&g);
        let specs = [
            // RBGP: type + property.
            QuerySpec::new(
                ["x"],
                [
                    (v("x"), iri(vocab::RDF_TYPE), iri("Book")),
                    (v("x"), iri("author"), v("y")),
                ],
            ),
            // Non-RBGP: data constants in subject and object position.
            QuerySpec::new(Vec::<String>::new(), [(iri("b1"), iri("author"), v("y"))]),
            QuerySpec::new(Vec::<String>::new(), [(v("x"), iri("author"), iri("bob"))]),
            // Schema pattern.
            QuerySpec::new(
                Vec::<String>::new(),
                [(iri("Book"), iri(vocab::RDFS_SUBCLASSOF), v("c"))],
            ),
            // Property variable.
            QuerySpec::new(["p"], [(v("x"), v("p"), v("y"))]),
        ];
        for spec in specs {
            let q = compile(&spec, g.graph()).unwrap();
            assert!(ev.ask(&q), "fixture query should match: {spec}");
            assert!(!empty_on_summary(&h, &spec), "must not prune: {spec}");
        }
    }

    #[test]
    fn empty_queries_are_pruned() {
        let (_, h) = graph_and_summary();
        let specs = [
            // Unknown property.
            QuerySpec::new(Vec::<String>::new(), [(v("x"), iri("editor"), v("y"))]),
            // Unknown class.
            QuerySpec::new(
                Vec::<String>::new(),
                [(v("x"), iri(vocab::RDF_TYPE), iri("Journal"))],
            ),
            // Structurally absent co-occurrence: authors have no authors.
            QuerySpec::new(
                Vec::<String>::new(),
                [
                    (v("x"), iri("author"), v("y")),
                    (v("y"), iri("author"), v("z")),
                ],
            ),
        ];
        for spec in specs {
            assert!(empty_on_summary(&h, &spec), "should prune: {spec}");
        }
    }

    #[test]
    fn shape_key_collapses_data_constants() {
        // Same shape, different data constants → same key (the verdict
        // cache can amortize the ASK across them).
        let a = QuerySpec::new(Vec::<String>::new(), [(iri("b1"), iri("author"), v("y"))]);
        let b = QuerySpec::new(Vec::<String>::new(), [(iri("b2"), iri("author"), v("z"))]);
        assert_eq!(prune_shape_key(&a), prune_shape_key(&b));
        // Different kept constant (the property) → different key.
        let c = QuerySpec::new(Vec::<String>::new(), [(iri("b1"), iri("editor"), v("y"))]);
        assert_ne!(prune_shape_key(&a), prune_shape_key(&c));
        // τ-class IRIs are kept, so they distinguish keys.
        let t1 = QuerySpec::new(
            Vec::<String>::new(),
            [(v("x"), iri(vocab::RDF_TYPE), iri("Book"))],
        );
        let t2 = QuerySpec::new(
            Vec::<String>::new(),
            [(v("x"), iri(vocab::RDF_TYPE), iri("Journal"))],
        );
        assert_ne!(prune_shape_key(&t1), prune_shape_key(&t2));
    }

    #[test]
    fn shape_key_is_invariant_under_variable_renaming() {
        let a = QuerySpec::new(
            ["x"],
            [
                (v("x"), iri(vocab::RDF_TYPE), iri("Book")),
                (v("x"), iri("author"), v("y")),
            ],
        );
        let b = QuerySpec::new(
            ["s"],
            [
                (v("s"), iri(vocab::RDF_TYPE), iri("Book")),
                (v("s"), iri("author"), v("t")),
            ],
        );
        assert_eq!(prune_shape_key(&a), prune_shape_key(&b));
        // But a genuinely different join shape (no shared subject) keys
        // differently.
        let c = QuerySpec::new(
            Vec::<String>::new(),
            [
                (v("u"), iri(vocab::RDF_TYPE), iri("Book")),
                (v("w"), iri("author"), v("t")),
            ],
        );
        assert_ne!(prune_shape_key(&a), prune_shape_key(&c));
    }

    #[test]
    fn cross_position_variables_are_never_pruned() {
        let (_, h) = graph_and_summary();
        // `?e` spans property and subject position: a G-binding like
        // `author` (predicate *and* data node) is renamed in the node
        // role only, so the summary ASK coming up empty proves nothing.
        // `note` is absent from the summary, so the pre-guard code would
        // have pruned both of these.
        let property_node = QuerySpec::new(
            Vec::<String>::new(),
            [(v("x"), v("e"), v("y")), (v("e"), iri("note"), v("z"))],
        );
        assert!(!empty_on_summary(&h, &property_node));
        // `?c` spans τ-object (kept) and subject (node) position: a class
        // IRI that is also the subject of a data triple is renamed there.
        let tau_node = QuerySpec::new(
            Vec::<String>::new(),
            [
                (v("x"), iri(vocab::RDF_TYPE), v("c")),
                (v("c"), iri("note"), v("z")),
            ],
        );
        assert!(!empty_on_summary(&h, &tau_node));
        // Kept-only reuse is fine: a variable in two property slots stays
        // verbatim in both, so pruning may still fire.
        let kept_only = QuerySpec::new(
            Vec::<String>::new(),
            [(v("x"), v("p"), v("y")), (v("a"), v("p"), iri("missing"))],
        );
        assert!(!has_cross_position_variable(&kept_only));
    }

    #[test]
    fn zero_body_is_not_pruned() {
        let (_, h) = graph_and_summary();
        let spec = QuerySpec {
            head: Vec::new(),
            body: Vec::new(),
        };
        assert!(!empty_on_summary(&h, &spec));
    }
}
