//! Query reformulation: answering queries over `G∞` without saturating G.
//!
//! The paper evaluates queries against the saturation ("the complete answer
//! is obtained by evaluating q against G∞", §2.1) and cites the authors'
//! reformulation-based alternative (citation \[8\], Goasdoué et al., EDBT 2013):
//! instead of materializing the implicit triples, rewrite the query into a
//! union of conjunctive queries whose evaluation over the *explicit* triples
//! returns the complete answer.
//!
//! For the RBGP dialect the rewriting per triple pattern is:
//!
//! * data pattern `?s p ?o` → one alternative `?s q ?o` per `q ≺sp* p`
//!   (a data triple is in `G∞` iff some ≺sp-descendant triple is explicit);
//! * type pattern `?s τ c` → alternatives
//!   - `?s τ c'` for every `c' ≺sc* c` (subclass rule), plus
//!   - `?s q ?fresh` for every property `q` whose entailed subject types
//!     include `c` (domain rule, through ≺sp and ≺sc), plus
//!   - `?fresh q ?s` for every `q` whose entailed object types include `c`
//!     (range rule).
//!
//! A query reformulates into the cartesian product of its patterns'
//! alternatives — a union of BGP queries (UCQ). The equivalence
//! `⋃ᵢ qᵢ(G) = q(G∞)` is checked against the saturation engine by property
//! tests, which is exactly why this module lives here: the two
//! implementations validate each other.

use crate::bgp::{QuerySpec, SpecTerm, TriplePatternSpec};
use rdf_model::{vocab, FxHashSet, Graph, Term, TermId};
use rdf_schema::Schema;

/// Controls reformulation size.
#[derive(Clone, Copy, Debug)]
pub struct ReformulateConfig {
    /// Upper bound on the number of generated conjunctive queries; when
    /// the cartesian product exceeds it, reformulation fails (callers fall
    /// back to saturation).
    pub max_queries: usize,
}

impl Default for ReformulateConfig {
    fn default() -> Self {
        ReformulateConfig { max_queries: 4096 }
    }
}

/// Why a query could not be reformulated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReformulateError {
    /// The union would exceed [`ReformulateConfig::max_queries`].
    TooLarge {
        /// The size the union would have had.
        would_be: usize,
    },
    /// A property/class position holds a variable — the RBGP-style
    /// rewriting needs constants there.
    UnboundProperty(usize),
}

impl std::fmt::Display for ReformulateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReformulateError::TooLarge { would_be } => {
                write!(f, "reformulation too large ({would_be} queries)")
            }
            ReformulateError::UnboundProperty(i) => {
                write!(f, "pattern {i}: property position must be a constant IRI")
            }
        }
    }
}

impl std::error::Error for ReformulateError {}

/// Everything ≺sp-below a property (reflexive): the explicit properties
/// that entail `p` in `G∞`.
fn subproperties_reflexive(schema: &Schema, g: &Graph, p: TermId) -> FxHashSet<TermId> {
    // Invert property_closure: q is a descendant of p iff p ∈ closure(q).
    // Properties are few; scan the graph's data properties + constrained
    // properties.
    let mut out = FxHashSet::default();
    out.insert(p);
    let mut candidates: FxHashSet<TermId> = g.data_properties();
    candidates.extend(schema.constrained_properties());
    for q in candidates {
        if schema.property_closure(q).contains(&p) {
            out.insert(q);
        }
    }
    out
}

/// Everything ≺sc-below a class (reflexive).
fn subclasses_reflexive(schema: &Schema, g: &Graph, c: TermId) -> FxHashSet<TermId> {
    let mut out = FxHashSet::default();
    out.insert(c);
    let mut candidates: FxHashSet<TermId> = g.class_nodes();
    for t in g.schema() {
        if t.p == g.well_known().sub_class_of {
            candidates.insert(t.s);
            candidates.insert(t.o);
        }
    }
    for d in candidates {
        if schema.class_closure(d).contains(&c) {
            out.insert(d);
        }
    }
    out
}

/// Reformulates `spec` against `g`'s schema into a union of BGP queries
/// equivalent over the explicit triples to `spec` over `G∞`.
///
/// Constants in the query that are not in `g`'s dictionary are kept
/// verbatim (their patterns have a single, unexpandable alternative).
pub fn reformulate(
    spec: &QuerySpec,
    g: &Graph,
    cfg: &ReformulateConfig,
) -> Result<Vec<QuerySpec>, ReformulateError> {
    let schema = Schema::of(g);
    let mut fresh = 0usize;
    let mut per_pattern: Vec<Vec<TriplePatternSpec>> = Vec::with_capacity(spec.body.len());

    for (i, pat) in spec.body.iter().enumerate() {
        let prop_iri = match &pat.p {
            SpecTerm::Const(Term::Iri(iri)) => iri.clone(),
            SpecTerm::Var(_) => return Err(ReformulateError::UnboundProperty(i)),
            _ => return Err(ReformulateError::UnboundProperty(i)),
        };
        let mut alternatives: Vec<TriplePatternSpec> = Vec::new();
        if vocab::is_type_property(&prop_iri) {
            // τ pattern: needs the class id.
            let class_term = match &pat.o {
                SpecTerm::Const(t) => t.clone(),
                SpecTerm::Var(_) => {
                    // τ with a variable class: no finite rewriting in this
                    // dialect; keep as-is (incomplete w.r.t. domain/range
                    // but identical to evaluating on G).
                    per_pattern.push(vec![pat.clone()]);
                    continue;
                }
            };
            match g.dict().lookup(&class_term) {
                None => alternatives.push(pat.clone()),
                Some(c) => {
                    // Subclass alternatives.
                    for c_sub in sorted(subclasses_reflexive(&schema, g, c)) {
                        alternatives.push(TriplePatternSpec {
                            s: pat.s.clone(),
                            p: pat.p.clone(),
                            o: SpecTerm::Const(g.dict().decode(c_sub).to_term()),
                        });
                    }
                    // Domain alternatives: s gains type c from having q.
                    let mut domain_props: Vec<TermId> = Vec::new();
                    let mut range_props: Vec<TermId> = Vec::new();
                    let mut candidates: FxHashSet<TermId> = g.data_properties();
                    candidates.extend(schema.constrained_properties());
                    for q in candidates {
                        if schema.entailed_subject_types(q).contains(&c) {
                            domain_props.push(q);
                        }
                        if schema.entailed_object_types(q).contains(&c) {
                            range_props.push(q);
                        }
                    }
                    domain_props.sort_unstable();
                    range_props.sort_unstable();
                    for q in domain_props {
                        fresh += 1;
                        alternatives.push(TriplePatternSpec {
                            s: pat.s.clone(),
                            p: SpecTerm::Const(g.dict().decode(q).to_term()),
                            o: SpecTerm::Var(format!("__ref{fresh}")),
                        });
                    }
                    for q in range_props {
                        fresh += 1;
                        alternatives.push(TriplePatternSpec {
                            s: SpecTerm::Var(format!("__ref{fresh}")),
                            p: SpecTerm::Const(g.dict().decode(q).to_term()),
                            o: pat.s.clone(),
                        });
                    }
                }
            }
        } else {
            // Data pattern: subproperty alternatives.
            match g.dict().lookup(&Term::iri(prop_iri.clone())) {
                None => alternatives.push(pat.clone()),
                Some(p) => {
                    for q in sorted(subproperties_reflexive(&schema, g, p)) {
                        alternatives.push(TriplePatternSpec {
                            s: pat.s.clone(),
                            p: SpecTerm::Const(g.dict().decode(q).to_term()),
                            o: pat.o.clone(),
                        });
                    }
                }
            }
        }
        per_pattern.push(alternatives);
    }

    // Cartesian product, bounded.
    let total: usize = per_pattern.iter().map(Vec::len).product();
    if total > cfg.max_queries {
        return Err(ReformulateError::TooLarge { would_be: total });
    }
    let mut union: Vec<QuerySpec> = vec![QuerySpec {
        head: spec.head.clone(),
        body: Vec::new(),
    }];
    for alternatives in per_pattern {
        let mut next = Vec::with_capacity(union.len() * alternatives.len());
        for partial in &union {
            for alt in &alternatives {
                let mut q = partial.clone();
                q.body.push(alt.clone());
                next.push(q);
            }
        }
        union = next;
    }
    Ok(union)
}

fn sorted(set: FxHashSet<TermId>) -> Vec<TermId> {
    let mut v: Vec<TermId> = set.into_iter().collect();
    v.sort_unstable();
    v
}

/// Boolean evaluation of a query over `G∞` *via reformulation*: evaluates
/// the union over the explicit triples only. Falls back to `None` when the
/// reformulation is too large (caller should saturate instead).
pub fn ask_via_reformulation(
    store: &rdf_store::TripleStore,
    spec: &QuerySpec,
    cfg: &ReformulateConfig,
) -> Option<bool> {
    let union = reformulate(spec, store.graph(), cfg).ok()?;
    let ev = crate::eval::Evaluator::new(store);
    for q in &union {
        if let Ok(cq) = crate::bgp::compile(q, store.graph()) {
            if ev.ask(&cq) {
                return Some(true);
            }
        }
    }
    Some(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::compile;
    use crate::eval::Evaluator;
    use rdf_store::TripleStore;

    fn v(n: &str) -> SpecTerm {
        SpecTerm::var(n)
    }

    fn iri(s: &str) -> SpecTerm {
        SpecTerm::iri(s)
    }

    /// The §2.1 book graph: hasAuthor must be answered through
    /// `writtenBy ≺sp hasAuthor` without saturating.
    fn book_graph() -> Graph {
        let mut g = Graph::new();
        g.add_iri_triple("doi1", vocab::RDF_TYPE, "Book");
        g.add_iri_triple("doi1", "writtenBy", "b1");
        g.add_iri_triple("Book", vocab::RDFS_SUBCLASSOF, "Publication");
        g.add_iri_triple("writtenBy", vocab::RDFS_SUBPROPERTYOF, "hasAuthor");
        g.add_iri_triple("writtenBy", vocab::RDFS_DOMAIN, "Book");
        g.add_iri_triple("writtenBy", vocab::RDFS_RANGE, "Person");
        g
    }

    #[test]
    fn subproperty_rewriting() {
        let g = book_graph();
        let spec = QuerySpec::new(["x"], [(v("x"), iri("hasAuthor"), v("y"))]);
        let union = reformulate(&spec, &g, &ReformulateConfig::default()).unwrap();
        // hasAuthor + writtenBy.
        assert_eq!(union.len(), 2);
        let store = TripleStore::new(g);
        assert_eq!(
            ask_via_reformulation(&store, &spec, &ReformulateConfig::default()),
            Some(true)
        );
    }

    #[test]
    fn type_rewriting_through_subclass_and_domain() {
        let g = book_graph();
        // Publication instances: doi1, via Book ≺sc Publication (from the
        // explicit τ) AND via writtenBy's domain.
        let spec = QuerySpec::new(["x"], [(v("x"), iri(vocab::RDF_TYPE), iri("Publication"))]);
        let union = reformulate(&spec, &g, &ReformulateConfig::default()).unwrap();
        // τ Publication, τ Book, writtenBy-domain.
        assert!(union.len() >= 3, "got {}", union.len());
        let store = TripleStore::new(g);
        assert_eq!(
            ask_via_reformulation(&store, &spec, &ReformulateConfig::default()),
            Some(true)
        );
    }

    #[test]
    fn range_rewriting() {
        let g = book_graph();
        // Person instances: only b1, via writtenBy's range.
        let spec = QuerySpec::new(["x"], [(v("x"), iri(vocab::RDF_TYPE), iri("Person"))]);
        let store = TripleStore::new(g.clone());
        assert_eq!(
            ask_via_reformulation(&store, &spec, &ReformulateConfig::default()),
            Some(true)
        );
        // And the binding is b1.
        let union = reformulate(&spec, &g, &ReformulateConfig::default()).unwrap();
        let ev = Evaluator::new(&store);
        let mut answers: Vec<String> = Vec::new();
        for q in &union {
            let cq = compile(q, store.graph()).unwrap();
            for row in ev.select(&cq).decode(&store) {
                answers.push(row[0].to_string());
            }
        }
        answers.sort();
        answers.dedup();
        assert_eq!(answers, vec!["<b1>"]);
    }

    #[test]
    fn agrees_with_saturation_on_book_graph() {
        let g = book_graph();
        let plain = TripleStore::new(g.clone());
        let saturated = TripleStore::new(rdf_schema::saturate(&g));
        let queries = [
            QuerySpec::new(["x"], [(v("x"), iri("hasAuthor"), v("y"))]),
            QuerySpec::new(["x"], [(v("x"), iri(vocab::RDF_TYPE), iri("Publication"))]),
            QuerySpec::new(["x"], [(v("x"), iri(vocab::RDF_TYPE), iri("Person"))]),
            QuerySpec::new(["x"], [(v("x"), iri(vocab::RDF_TYPE), iri("Book"))]),
            QuerySpec::new(
                ["x"],
                [
                    (v("x"), iri("hasAuthor"), v("y")),
                    (v("x"), iri(vocab::RDF_TYPE), iri("Publication")),
                ],
            ),
            QuerySpec::new(["x"], [(v("x"), iri("noSuchProp"), v("y"))]),
        ];
        let ev_sat = Evaluator::new(&saturated);
        for spec in &queries {
            let direct = compile(spec, saturated.graph())
                .map(|cq| ev_sat.ask(&cq))
                .unwrap_or(false);
            let via_ref =
                ask_via_reformulation(&plain, spec, &ReformulateConfig::default()).unwrap();
            assert_eq!(direct, via_ref, "disagreement on {spec}");
        }
    }

    #[test]
    fn size_cap_triggers() {
        let g = book_graph();
        let spec = QuerySpec::new(
            ["x"],
            [
                (v("x"), iri(vocab::RDF_TYPE), iri("Publication")),
                (v("y"), iri(vocab::RDF_TYPE), iri("Publication")),
                (v("z"), iri(vocab::RDF_TYPE), iri("Publication")),
            ],
        );
        let err = reformulate(&spec, &g, &ReformulateConfig { max_queries: 2 }).unwrap_err();
        assert!(matches!(err, ReformulateError::TooLarge { .. }));
    }

    #[test]
    fn variable_property_rejected() {
        let g = book_graph();
        let spec = QuerySpec::new(["x"], [(v("x"), v("p"), v("y"))]);
        assert_eq!(
            reformulate(&spec, &g, &ReformulateConfig::default()).unwrap_err(),
            ReformulateError::UnboundProperty(0)
        );
    }

    #[test]
    fn no_schema_is_identity() {
        let mut g = Graph::new();
        g.add_iri_triple("a", "p", "b");
        let spec = QuerySpec::new(["x"], [(v("x"), iri("p"), v("y"))]);
        let union = reformulate(&spec, &g, &ReformulateConfig::default()).unwrap();
        assert_eq!(union.len(), 1);
        assert_eq!(&union[0], &spec);
    }
}
