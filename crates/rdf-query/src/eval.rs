//! BGP evaluation over a [`TripleStore`].
//!
//! **One** backtracking index-nested-loop search serves every entry
//! point: [`Evaluator::ask`] stops it at the first embedding (what the
//! paper's representativeness criterion needs: `q(G∞) ≠ ∅`),
//! [`Evaluator::for_each_row`] streams the distinct head projections to a
//! visitor, and the `select*` family collects that stream into a
//! [`ResultSet`]. Patterns are joined in a caller's static order,
//! validated once, or — when the order is not a permutation of the body,
//! `&[]` for instance — *dynamically*: at every step the unjoined
//! pattern with the fewest matches under the current partial binding
//! ([`TripleStore::count`], an exact selectivity measure). A candidate
//! triple binds at most three variables, so the undo list is a fixed
//! array: past the per-query buffers, nothing is allocated per
//! candidate, per depth or per row.
//!
//! **When the distinct set is skipped.** An embedding is a total
//! assignment of the body's variables, and the search reaches each one
//! once: under a full assignment every pattern is ground, so it matches
//! exactly one (deduplicated) index triple, and two different choices of
//! triples differ in a variable position. When the head projects *every*
//! body variable, two embeddings therefore differ in a projected column:
//! rows are pairwise distinct by construction and no set is consulted.
//! Only a head that drops a body variable can repeat a row; then rows
//! pass through a hash set, probed by slice so a repeat allocates
//! nothing.
//!
//! The search is total over hand-built [`CompiledQuery`] values: an
//! absent constant (`Atom::Const(None)`) matches nothing, and a head
//! variable no embedding binds yields no row.

use crate::bgp::{Atom, CompiledPattern, CompiledQuery};
use rdf_model::{FxHashSet, TermId, TermRef, Triple};
use rdf_store::{TriplePattern, TripleStore};

/// The answer rows of a `select` evaluation (distinct head projections).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResultSet {
    /// Head variable names, in projection order.
    pub columns: Vec<String>,
    /// Distinct projected rows.
    pub rows: Vec<Vec<TermId>>,
}

impl ResultSet {
    /// Number of (distinct) answers.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the query had no answers.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Decodes the rows into terms using the store the query ran against.
    pub fn decode<'a>(&self, store: &'a TripleStore) -> Vec<Row<'a>> {
        let dict = store.graph().dict();
        self.rows
            .iter()
            .map(|row| Row(row.iter().map(|&id| dict.decode(id)).collect()))
            .collect()
    }
}

/// One decoded answer row: term views into the store's dictionary, read
/// as a slice. Iterating a row — `row.iter()`, `&row`, or `row.into_iter()`
/// — always yields `&TermRef`, never a view by value: cells read the same
/// as the `&Term` cells rows were once made of, so a caller that renders
/// them with `ToString::to_string` is source-compatible with both.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row<'a>(Vec<TermRef<'a>>);

impl<'a> std::ops::Deref for Row<'a> {
    type Target = [TermRef<'a>];

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<'r, 'a> IntoIterator for &'r Row<'a> {
    type Item = &'r TermRef<'a>;
    type IntoIter = std::slice::Iter<'r, TermRef<'a>>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// The variables one candidate triple newly bound: at most three.
type Bound = ([usize; 3], usize);

/// Extends `binding` with the matches of `p` against a concrete triple;
/// `None` — with the binding left as it was — when the triple conflicts
/// with the binding or a constant.
#[inline]
fn try_bind(p: &CompiledPattern, t: Triple, binding: &mut [Option<TermId>]) -> Option<Bound> {
    let mut newly = ([0; 3], 0);
    for (atom, val) in [(p.s, t.s), (p.p, t.p), (p.o, t.o)] {
        let agrees = match atom {
            Atom::Const(c) => c == Some(val), // an absent constant equals no term
            Atom::Var(v) => match binding[v] {
                Some(bound) => bound == val,
                None => {
                    binding[v] = Some(val);
                    newly.0[newly.1] = v;
                    newly.1 += 1;
                    true
                }
            },
        };
        if !agrees {
            unbind(newly, binding);
            return None;
        }
    }
    Some(newly)
}

#[inline]
fn unbind((vars, n): Bound, binding: &mut [Option<TermId>]) {
    for &v in &vars[..n] {
        binding[v] = None;
    }
}

/// The state of one run of the search.
struct Search<'q, F> {
    store: &'q TripleStore,
    body: &'q [CompiledPattern],
    /// A permutation of the body indices, or `None` for dynamic ordering.
    order: Option<&'q [usize]>,
    binding: Vec<Option<TermId>>,
    /// The patterns already joined.
    used: Vec<bool>,
    on_embedding: F,
}

impl<F: FnMut(&[Option<TermId>]) -> ControlFlow> Search<'_, F> {
    fn pattern(&self, p: &CompiledPattern) -> TriplePattern {
        let slot = |atom| match atom {
            Atom::Var(v) => self.binding[v],
            Atom::Const(c) => c, // never `None`: `search` checked
        };
        TriplePattern::new(slot(p.s), slot(p.p), slot(p.o))
    }

    /// Joins the patterns not yet joined, `depth` of them being done.
    /// [`ControlFlow::Stop`] — from the visitor — unwinds every level.
    fn descend(&mut self, depth: usize) -> ControlFlow {
        if depth == self.body.len() {
            return (self.on_embedding)(&self.binding);
        }
        // The fixed order's next entry, or the unused pattern with the
        // fewest matches right now (there is one: `depth < body.len()`).
        let idx = match self.order {
            Some(order) => order[depth],
            None => (0..self.body.len())
                .filter(|&i| !self.used[i])
                .min_by_key(|&i| self.store.count(self.pattern(&self.body[i])))
                .expect("fewer patterns joined than the body holds"),
        };
        self.used[idx] = true;
        let (p, store) = (self.body[idx], self.store);
        let mut flow = ControlFlow::Continue;
        for &t in store.scan(self.pattern(&p)) {
            if let Some(newly) = try_bind(&p, t, &mut self.binding) {
                flow = self.descend(depth + 1);
                unbind(newly, &mut self.binding);
                if flow == ControlFlow::Stop {
                    break;
                }
            }
        }
        self.used[idx] = false;
        flow
    }
}

/// Evaluates BGP queries against one store.
pub struct Evaluator<'a> {
    store: &'a TripleStore,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator over `store`.
    pub fn new(store: &'a TripleStore) -> Self {
        Evaluator { store }
    }

    /// The one search: hands `on_embedding` the full binding of every
    /// embedding of `q`'s body, until it says [`ControlFlow::Stop`].
    fn search(
        &self,
        q: &CompiledQuery,
        order: &[usize],
        on_embedding: impl FnMut(&[Option<TermId>]) -> ControlFlow,
    ) {
        if q.always_empty() {
            return;
        }
        let n = q.body.len();
        let mut seen = vec![false; n];
        let is_permutation = order.len() == n
            && order
                .iter()
                .all(|&i| i < n && !std::mem::replace(&mut seen[i], true));
        // Room for every variable the body names, whatever `var_names`
        // says: a hand-built query must not index out of bounds.
        let body_vars = q.body.iter().flat_map(CompiledPattern::vars);
        let n_vars = body_vars.fold(q.n_vars(), |n, v| n.max(v + 1));
        Search {
            store: self.store,
            body: &q.body,
            order: is_permutation.then_some(order),
            binding: vec![None; n_vars],
            used: vec![false; n],
            on_embedding,
        }
        .descend(0);
    }

    /// Streams the distinct head projections of `q` to `visit`, in join
    /// order, until it says [`ControlFlow::Stop`]; the slice is valid
    /// during the call only. `order` fixes the join order (e.g.
    /// [`crate::plan::Plan::order`]); one that is not a permutation of
    /// the body indices means dynamic ordering — never a panic. The
    /// module docs say when rows need a distinct set.
    pub fn for_each_row(
        &self,
        q: &CompiledQuery,
        order: &[usize],
        mut visit: impl FnMut(&[TermId]) -> ControlFlow,
    ) {
        let mut body_vars = q.body.iter().flat_map(CompiledPattern::vars);
        let head_drops_a_variable = body_vars.any(|v| !q.head.contains(&v));
        let mut seen: FxHashSet<Box<[TermId]>> = FxHashSet::default();
        let mut row: Vec<TermId> = Vec::with_capacity(q.head.len());
        self.search(q, order, |binding| {
            row.clear();
            let bound = |&v: &usize| binding.get(v).copied().flatten();
            row.extend(q.head.iter().map_while(bound));
            if row.len() < q.head.len() {
                return ControlFlow::Continue; // a head variable nothing binds
            }
            if head_drops_a_variable {
                if seen.contains(&row[..]) {
                    return ControlFlow::Continue;
                }
                seen.insert(row.as_slice().into());
            }
            visit(&row)
        });
    }

    /// Boolean evaluation: does the query have at least one embedding?
    pub fn ask(&self, q: &CompiledQuery) -> bool {
        self.ask_ordered(q, &[])
    }

    /// Like [`Self::ask`] but joins the body patterns in the fixed `order`
    /// (e.g. from [`crate::plan::Plan::order`]) instead of re-counting at
    /// every step. An `order` that is not a permutation of the body
    /// indices falls back to dynamic ordering — never a panic.
    pub fn ask_ordered(&self, q: &CompiledQuery, order: &[usize]) -> bool {
        let mut found = false;
        self.search(q, order, |_| {
            found = true;
            ControlFlow::Stop
        });
        found
    }

    /// Full evaluation with distinct projection on the head variables.
    pub fn select(&self, q: &CompiledQuery) -> ResultSet {
        self.select_limit(q, usize::MAX)
    }

    /// Like [`Self::select`] but stops after `limit` distinct rows.
    pub fn select_limit(&self, q: &CompiledQuery, limit: usize) -> ResultSet {
        self.select_limit_ordered(q, &[], limit)
    }

    /// Like [`Self::select_limit`] but joins the body patterns in the
    /// fixed `order` (see [`Self::ask_ordered`] for the fallback rule).
    pub fn select_limit_ordered(
        &self,
        q: &CompiledQuery,
        order: &[usize],
        limit: usize,
    ) -> ResultSet {
        let name = |&v: &usize| q.var_names.get(v).cloned().unwrap_or_default();
        let mut rows: Vec<Vec<TermId>> = Vec::new();
        if limit > 0 {
            self.for_each_row(q, order, |row| {
                rows.push(row.to_vec());
                if rows.len() < limit {
                    ControlFlow::Continue
                } else {
                    ControlFlow::Stop
                }
            });
        }
        ResultSet {
            columns: q.head.iter().map(name).collect(),
            rows,
        }
    }
}

/// Search control for solution callbacks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlFlow {
    /// Keep enumerating embeddings.
    Continue,
    /// Stop the whole search.
    Stop,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::{compile, QuerySpec, SpecTerm};
    use rdf_model::{vocab, Graph, Term};

    fn library_store() -> TripleStore {
        let mut g = Graph::new();
        g.add_iri_triple("b1", vocab::RDF_TYPE, "Book");
        g.add_iri_triple("b2", vocab::RDF_TYPE, "Book");
        g.add_iri_triple("b1", "author", "alice");
        g.add_iri_triple("b2", "author", "bob");
        g.add_iri_triple("alice", "reviewed", "b2");
        g.add_literal_triple("b1", "title", "T1");
        g.add_literal_triple("b2", "title", "T2");
        TripleStore::new(g)
    }

    fn v(n: &str) -> SpecTerm {
        SpecTerm::var(n)
    }

    fn iri(s: &str) -> SpecTerm {
        SpecTerm::iri(s)
    }

    #[test]
    fn single_pattern_select() {
        let st = library_store();
        let spec = QuerySpec::new(["x"], [(v("x"), iri("author"), v("y"))]);
        let q = compile(&spec, st.graph()).unwrap();
        let rs = Evaluator::new(&st).select(&q);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.columns, vec!["x"]);
    }

    #[test]
    fn join_two_patterns() {
        let st = library_store();
        // Books whose author reviewed some book.
        let spec = QuerySpec::new(
            ["b"],
            [
                (v("b"), iri("author"), v("a")),
                (v("a"), iri("reviewed"), v("c")),
            ],
        );
        let q = compile(&spec, st.graph()).unwrap();
        let rs = Evaluator::new(&st).select(&q);
        let decoded = rs.decode(&st);
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0][0], rdf_model::Term::iri("b1"));
    }

    #[test]
    fn ask_true_and_false() {
        let st = library_store();
        let yes = QuerySpec::new(
            Vec::<String>::new(),
            [(v("x"), iri(vocab::RDF_TYPE), iri("Book"))],
        );
        let no = QuerySpec::new(
            Vec::<String>::new(),
            [(v("x"), iri(vocab::RDF_TYPE), iri("Journal"))],
        );
        let ev = Evaluator::new(&st);
        assert!(ev.ask(&compile(&yes, st.graph()).unwrap()));
        assert!(!ev.ask(&compile(&no, st.graph()).unwrap()));
    }

    #[test]
    fn shared_variable_enforces_join() {
        let st = library_store();
        // ?x authored by itself — never true.
        let spec = QuerySpec::new(Vec::<String>::new(), [(v("x"), iri("author"), v("x"))]);
        let q = compile(&spec, st.graph()).unwrap();
        assert!(!Evaluator::new(&st).ask(&q));
    }

    #[test]
    fn triangle_query() {
        let mut g = Graph::new();
        g.add_iri_triple("a", "e", "b");
        g.add_iri_triple("b", "e", "c");
        g.add_iri_triple("c", "e", "a");
        g.add_iri_triple("a", "e", "c"); // extra edge, no triangle through it backwards
        let st = TripleStore::new(g);
        let spec = QuerySpec::new(
            ["x", "y", "z"],
            [
                (v("x"), iri("e"), v("y")),
                (v("y"), iri("e"), v("z")),
                (v("z"), iri("e"), v("x")),
            ],
        );
        let q = compile(&spec, st.graph()).unwrap();
        let rs = Evaluator::new(&st).select(&q);
        // Triangle a→b→c→a appears in 3 rotations.
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn select_limit_stops_early() {
        let st = library_store();
        let spec = QuerySpec::new(["x"], [(v("x"), v("p"), v("y"))]);
        let q = compile(&spec, st.graph()).unwrap();
        let rs = Evaluator::new(&st).select_limit(&q, 1);
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn distinct_projection_dedups() {
        let st = library_store();
        // Project only the property: author appears twice but projects once.
        let spec = QuerySpec::new(["p"], [(v("x"), v("p"), v("y"))]);
        let q = compile(&spec, st.graph()).unwrap();
        let rs = Evaluator::new(&st).select(&q);
        let n_props = rs.len();
        // distinct properties: rdf:type, author, reviewed, title
        assert_eq!(n_props, 4);
    }

    #[test]
    fn variable_in_property_position() {
        let st = library_store();
        let spec = QuerySpec::new(["p"], [(iri("b1"), v("p"), v("o"))]);
        let q = compile(&spec, st.graph()).unwrap();
        let rs = Evaluator::new(&st).select(&q);
        assert_eq!(rs.len(), 3); // rdf:type, author, title
    }

    #[test]
    fn always_empty_short_circuits() {
        let st = library_store();
        let spec = QuerySpec::new(
            Vec::<String>::new(),
            [(v("x"), iri("no-such-property"), v("y"))],
        );
        let q = compile(&spec, st.graph()).unwrap();
        assert!(q.always_empty());
        assert!(!Evaluator::new(&st).ask(&q));
        assert!(Evaluator::new(&st).select(&q).is_empty());
    }

    #[test]
    fn duplicate_patterns_do_not_panic() {
        let st = library_store();
        // The same pattern three times: joins must stay total (the greedy
        // selector sees identical counts at every step).
        let pat = (v("x"), iri("author"), v("y"));
        let spec = QuerySpec::new(["x"], [pat.clone(), pat.clone(), pat]);
        let q = compile(&spec, st.graph()).unwrap();
        let rs = Evaluator::new(&st).select(&q);
        assert_eq!(rs.len(), 2);
        assert!(Evaluator::new(&st).ask(&q));
    }

    #[test]
    fn all_bound_pattern_is_a_containment_check() {
        let st = library_store();
        let hit = QuerySpec::new(
            Vec::<String>::new(),
            [(iri("b1"), iri("author"), iri("alice"))],
        );
        let miss = QuerySpec::new(
            Vec::<String>::new(),
            [(iri("b1"), iri("author"), iri("bob"))],
        );
        let ev = Evaluator::new(&st);
        assert!(ev.ask(&compile(&hit, st.graph()).unwrap()));
        assert!(!ev.ask(&compile(&miss, st.graph()).unwrap()));
    }

    #[test]
    fn zero_body_query_is_total() {
        // `compile` rejects empty bodies, but a hand-built query must not
        // panic either: the empty conjunction is vacuously satisfiable.
        let st = library_store();
        let q = CompiledQuery {
            var_names: Vec::new(),
            head: Vec::new(),
            body: Vec::new(),
        };
        let ev = Evaluator::new(&st);
        assert!(ev.ask(&q));
        let rs = ev.select(&q);
        assert_eq!(rs.len(), 1);
        assert!(rs.columns.is_empty());
    }

    /// `CompiledQuery`'s fields are public: an absent constant in a
    /// hand-built query matches nothing, under every entry point.
    #[test]
    fn absent_constant_matches_nothing() {
        let st = library_store();
        let author = st.graph().dict().lookup(&Term::iri("author"));
        assert!(author.is_some());
        for absent in [
            CompiledPattern {
                s: Atom::Const(None),
                p: Atom::Const(author),
                o: Atom::Var(0),
            },
            CompiledPattern {
                s: Atom::Var(0),
                p: Atom::Const(None),
                o: Atom::Const(None),
            },
        ] {
            let matching = CompiledPattern {
                s: Atom::Var(1),
                p: Atom::Const(author),
                o: Atom::Var(0),
            };
            let q = CompiledQuery {
                var_names: vec!["x".into(), "y".into()],
                head: vec![0],
                body: vec![matching, absent],
            };
            let ev = Evaluator::new(&st);
            assert!(!ev.ask(&q));
            assert!(!ev.ask_ordered(&q, &[1, 0]));
            assert!(ev.select(&q).is_empty());
            assert!(ev.select_limit_ordered(&q, &[0, 1], 5).is_empty());
        }
    }

    /// A head variable no embedding binds — out of range, or named but
    /// absent from the body — yields no row; so does a body variable past
    /// `var_names`. Never a panic.
    #[test]
    fn unbound_head_variable_yields_no_row() {
        let st = library_store();
        let author = st.graph().dict().lookup(&Term::iri("author"));
        let body = vec![CompiledPattern {
            s: Atom::Var(0),
            p: Atom::Const(author),
            o: Atom::Var(1),
        }];
        let ev = Evaluator::new(&st);
        for (var_names, head) in [
            (vec!["x".to_string(), "y".to_string()], vec![0, 7]),
            (vec!["x".into(), "y".into(), "z".into()], vec![2]),
            (vec![], vec![5]),
        ] {
            let q = CompiledQuery {
                var_names,
                head,
                body: body.clone(),
            };
            assert!(ev.ask(&q), "the body still has embeddings");
            let rs = ev.select(&q);
            assert!(rs.is_empty(), "{q:?}");
            assert_eq!(rs.columns.len(), q.head.len());
            assert!(ev.select_limit_ordered(&q, &[0], 3).is_empty());
        }
        // Undeclared body variables alone are harmless.
        let q = CompiledQuery {
            var_names: Vec::new(),
            head: vec![1],
            body,
        };
        assert_eq!(ev.select(&q).len(), 2);
    }

    #[test]
    fn ordered_eval_matches_dynamic() {
        let mut g = Graph::new();
        g.add_iri_triple("a", "e", "b");
        g.add_iri_triple("b", "e", "c");
        g.add_iri_triple("c", "e", "a");
        g.add_iri_triple("a", "e", "c");
        let st = TripleStore::new(g);
        let spec = QuerySpec::new(
            ["x", "y", "z"],
            [
                (v("x"), iri("e"), v("y")),
                (v("y"), iri("e"), v("z")),
                (v("z"), iri("e"), v("x")),
            ],
        );
        let q = compile(&spec, st.graph()).unwrap();
        let ev = Evaluator::new(&st);
        let dynamic = ev.select(&q);
        for order in [[0, 1, 2], [2, 1, 0], [1, 0, 2]] {
            let fixed = ev.select_limit_ordered(&q, &order, usize::MAX);
            let mut a = dynamic.rows.clone();
            let mut b = fixed.rows.clone();
            a.sort();
            b.sort();
            assert_eq!(a, b, "order {order:?}");
            assert!(ev.ask_ordered(&q, &order));
        }
    }

    #[test]
    fn invalid_order_falls_back_to_dynamic() {
        let st = library_store();
        let spec = QuerySpec::new(
            ["b"],
            [
                (v("b"), iri("author"), v("a")),
                (v("a"), iri("reviewed"), v("c")),
            ],
        );
        let q = compile(&spec, st.graph()).unwrap();
        let ev = Evaluator::new(&st);
        // Duplicate index, out-of-range index, wrong length: all fall back.
        for bad in [vec![0, 0], vec![0, 7], vec![0], vec![]] {
            let rs = ev.select_limit_ordered(&q, &bad, usize::MAX);
            assert_eq!(rs.len(), 1, "order {bad:?}");
            assert!(ev.ask_ordered(&q, &bad));
        }
    }

    #[test]
    fn boolean_query_select_yields_single_empty_row() {
        let st = library_store();
        let spec = QuerySpec::new(Vec::<String>::new(), [(v("x"), iri("author"), v("y"))]);
        let q = compile(&spec, st.graph()).unwrap();
        let rs = Evaluator::new(&st).select(&q);
        // One distinct empty projection row.
        assert_eq!(rs.len(), 1);
        assert!(rs.columns.is_empty());
    }
}
