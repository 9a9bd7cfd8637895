//! Basic graph pattern (BGP) queries — the paper's conjunctive SPARQL
//! dialect (§2.1): `q(x̄) :- t1, …, tα` where each `ti` is a triple pattern
//! and the head variables x̄ are the distinguished variables.
//!
//! Queries exist in two forms:
//!
//! * [`QuerySpec`] — the *surface* form over strings and terms, independent
//!   of any graph (what the parser produces and the workload generator
//!   emits); and
//! * [`CompiledQuery`] — the per-graph *compiled* form over dense variable
//!   indices and dictionary-encoded constants, ready for evaluation.
//!
//! The same `QuerySpec` can be compiled against a graph and against its
//! summary — exactly what the representativeness experiments need.

use rdf_io::writer::escape_literal;
use rdf_model::{FxHashMap, Graph, LiteralKindRef, Term, TermId, TermRef};
use std::fmt;

/// A term position in a surface triple pattern: a named variable or a
/// constant RDF term.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecTerm {
    /// A query variable, e.g. `?x`.
    Var(String),
    /// A constant (IRI or literal).
    Const(Term),
}

impl SpecTerm {
    /// Convenience: a variable.
    pub fn var(name: impl Into<String>) -> Self {
        SpecTerm::Var(name.into())
    }

    /// Convenience: an IRI constant.
    pub fn iri(iri: impl Into<String>) -> Self {
        SpecTerm::Const(Term::iri(iri))
    }

    /// Is this a variable?
    pub fn is_var(&self) -> bool {
        matches!(self, SpecTerm::Var(_))
    }
}

impl fmt::Display for SpecTerm {
    /// Writes the term in the query syntax [`crate::parse_query`] reads
    /// back: a literal's lexical form escaped as N-Triples escapes it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecTerm::Var(v) => write!(f, "?{v}"),
            SpecTerm::Const(t) => match t.as_term_ref() {
                TermRef::Literal { lexical, kind } => {
                    write!(f, "\"{}\"", escape_literal(lexical))?;
                    match kind {
                        LiteralKindRef::Simple => Ok(()),
                        LiteralKindRef::Lang(tag) => write!(f, "@{tag}"),
                        LiteralKindRef::Typed(dt) => write!(f, "^^<{dt}>"),
                    }
                }
                other => write!(f, "{other}"),
            },
        }
    }
}

/// One surface triple pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TriplePatternSpec {
    /// Subject position.
    pub s: SpecTerm,
    /// Property position.
    pub p: SpecTerm,
    /// Object position.
    pub o: SpecTerm,
}

/// A surface BGP query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuerySpec {
    /// Distinguished (head) variables; empty for boolean queries.
    pub head: Vec<String>,
    /// The body triple patterns.
    pub body: Vec<TriplePatternSpec>,
}

impl QuerySpec {
    /// Builds a query from head variable names and `(s, p, o)` pattern
    /// triples.
    pub fn new(
        head: impl IntoIterator<Item = impl Into<String>>,
        body: impl IntoIterator<Item = (SpecTerm, SpecTerm, SpecTerm)>,
    ) -> Self {
        QuerySpec {
            head: head.into_iter().map(Into::into).collect(),
            body: body
                .into_iter()
                .map(|(s, p, o)| TriplePatternSpec { s, p, o })
                .collect(),
        }
    }

    /// All distinct variable names, in first-occurrence order.
    pub fn variables(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for pat in &self.body {
            for t in [&pat.s, &pat.p, &pat.o] {
                if let SpecTerm::Var(v) = t {
                    if !out.contains(&v.as_str()) {
                        out.push(v);
                    }
                }
            }
        }
        out
    }

    /// Is the query boolean (no distinguished variables)?
    pub fn is_boolean(&self) -> bool {
        self.head.is_empty()
    }
}

impl fmt::Display for QuerySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q(")?;
        for (i, v) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "?{v}")?;
        }
        write!(f, ") :- ")?;
        for (i, p) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {} {}", p.s, p.p, p.o)?;
        }
        Ok(())
    }
}

/// Errors raised when compiling a surface query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// A head variable does not occur in the body.
    UnboundHeadVariable(String),
    /// The body is empty.
    EmptyBody,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnboundHeadVariable(v) => {
                write!(f, "head variable ?{v} does not occur in the query body")
            }
            QueryError::EmptyBody => write!(f, "query body is empty"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A compiled pattern slot: variable index or encoded constant.
///
/// `Const(None)` means the constant does not occur in the target graph's
/// dictionary, so the pattern — and the whole query — matches nothing there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Atom {
    /// A variable, by dense index.
    Var(usize),
    /// An encoded constant (`None` when absent from the dictionary).
    Const(Option<TermId>),
}

/// A compiled triple pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompiledPattern {
    /// Subject slot.
    pub s: Atom,
    /// Property slot.
    pub p: Atom,
    /// Object slot.
    pub o: Atom,
}

impl CompiledPattern {
    /// Variable indices occurring in this pattern.
    pub fn vars(&self) -> impl Iterator<Item = usize> + '_ {
        [self.s, self.p, self.o]
            .into_iter()
            .filter_map(|a| match a {
                Atom::Var(v) => Some(v),
                Atom::Const(_) => None,
            })
    }

    /// Does any slot hold a constant missing from the dictionary?
    pub fn unmatchable(&self) -> bool {
        [self.s, self.p, self.o]
            .into_iter()
            .any(|a| matches!(a, Atom::Const(None)))
    }
}

/// A query compiled against a specific graph's dictionary.
#[derive(Clone, Debug)]
pub struct CompiledQuery {
    /// Variable names, indexed by variable id.
    pub var_names: Vec<String>,
    /// Head projection (variable ids); empty for boolean queries.
    pub head: Vec<usize>,
    /// Body patterns.
    pub body: Vec<CompiledPattern>,
}

impl CompiledQuery {
    /// Number of distinct variables.
    pub fn n_vars(&self) -> usize {
        self.var_names.len()
    }

    /// True when some constant is absent from the target dictionary — the
    /// query provably has no answers there.
    pub fn always_empty(&self) -> bool {
        self.body.iter().any(|p| p.unmatchable())
    }
}

/// Compiles a surface query against a graph's dictionary.
pub fn compile(spec: &QuerySpec, g: &Graph) -> Result<CompiledQuery, QueryError> {
    if spec.body.is_empty() {
        return Err(QueryError::EmptyBody);
    }
    // Pass 1: intern variable names into dense indices, in first-occurrence
    // order.
    let mut var_ids: FxHashMap<&str, usize> = FxHashMap::default();
    let mut var_names: Vec<String> = Vec::new();
    for pat in &spec.body {
        for t in [&pat.s, &pat.p, &pat.o] {
            if let SpecTerm::Var(v) = t {
                if !var_ids.contains_key(v.as_str()) {
                    var_ids.insert(v.as_str(), var_names.len());
                    var_names.push(v.clone());
                }
            }
        }
    }
    // Pass 2: build atoms.
    let atom = |t: &SpecTerm| -> Atom {
        match t {
            SpecTerm::Var(v) => Atom::Var(var_ids[v.as_str()]),
            SpecTerm::Const(term) => Atom::Const(g.dict().lookup(term)),
        }
    };
    let body: Vec<CompiledPattern> = spec
        .body
        .iter()
        .map(|patn| CompiledPattern {
            s: atom(&patn.s),
            p: atom(&patn.p),
            o: atom(&patn.o),
        })
        .collect();
    let head = spec
        .head
        .iter()
        .map(|h| {
            var_ids
                .get(h.as_str())
                .copied()
                .ok_or_else(|| QueryError::UnboundHeadVariable(h.clone()))
        })
        .collect::<Result<Vec<usize>, _>>()?;
    Ok(CompiledQuery {
        var_names,
        head,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_spec() -> QuerySpec {
        QuerySpec::new(
            ["x"],
            [(
                SpecTerm::var("x"),
                SpecTerm::iri("http://x/p"),
                SpecTerm::var("y"),
            )],
        )
    }

    #[test]
    fn compiles_against_graph() {
        let mut g = Graph::new();
        g.add_iri_triple("http://x/a", "http://x/p", "http://x/b");
        let q = compile(&simple_spec(), &g).unwrap();
        assert_eq!(q.n_vars(), 2);
        assert_eq!(q.head, vec![0]);
        assert!(!q.always_empty());
        match q.body[0].p {
            Atom::Const(Some(_)) => {}
            other => panic!("expected bound constant, got {other:?}"),
        }
    }

    #[test]
    fn missing_constant_is_always_empty() {
        let g = Graph::new();
        let q = compile(&simple_spec(), &g).unwrap();
        assert!(q.always_empty());
    }

    #[test]
    fn head_var_must_occur_in_body() {
        let g = Graph::new();
        let spec = QuerySpec::new(
            ["z"],
            [(SpecTerm::var("x"), SpecTerm::iri("p"), SpecTerm::var("y"))],
        );
        assert_eq!(
            compile(&spec, &g).unwrap_err(),
            QueryError::UnboundHeadVariable("z".into())
        );
    }

    #[test]
    fn empty_body_rejected() {
        let g = Graph::new();
        let spec = QuerySpec::new(Vec::<String>::new(), Vec::new());
        assert_eq!(compile(&spec, &g).unwrap_err(), QueryError::EmptyBody);
    }

    #[test]
    fn variables_share_indices_across_patterns() {
        let mut g = Graph::new();
        g.add_iri_triple("a", "p", "b");
        let spec = QuerySpec::new(
            ["x"],
            [
                (SpecTerm::var("x"), SpecTerm::iri("p"), SpecTerm::var("y")),
                (SpecTerm::var("y"), SpecTerm::iri("p"), SpecTerm::var("x")),
            ],
        );
        let q = compile(&spec, &g).unwrap();
        assert_eq!(q.n_vars(), 2);
        assert_eq!(q.body[0].s, q.body[1].o);
        assert_eq!(q.body[0].o, q.body[1].s);
    }

    #[test]
    fn display_roundtrips_shape() {
        let s = simple_spec().to_string();
        assert!(s.contains("q(?x)"));
        assert!(s.contains(":-"));
        assert!(s.contains("<http://x/p>"));
    }

    #[test]
    fn variables_helper() {
        let spec = QuerySpec::new(
            Vec::<String>::new(),
            [
                (SpecTerm::var("a"), SpecTerm::iri("p"), SpecTerm::var("b")),
                (SpecTerm::var("b"), SpecTerm::iri("q"), SpecTerm::var("a")),
            ],
        );
        assert_eq!(spec.variables(), vec!["a", "b"]);
        assert!(spec.is_boolean());
    }
}
