//! Summary-derived cardinality estimation for BGP join planning.
//!
//! In the spirit of Stefanoni, Motik & Kostylev (*Estimating the
//! Cardinality of Conjunctive Queries over RDF Data Using Graph
//! Summarisation*): a quotient summary already groups the data nodes by
//! structure, and its extent sizes are per-group node counts — enough to
//! estimate, per property, how many **distinct** subjects and objects it
//! connects, without ever scanning the full graph. [`SummaryCardinality`]
//! precomputes those figures in one pass over the (tiny) summary at build
//! time — a function of the summary graph, its extent sizes and the
//! store's exact counts, so an `UPDATE` that leaves the summary as it was
//! re-derives them from the moved extent counts alone, through the same
//! function; [`SummaryEstimator`] then implements
//! [`rdf_query::JoinEstimator`], replacing the planner's blind
//! unbound-form counts: a pattern whose variables were bound by earlier
//! join steps is charged its expected matches *per binding* (exact triple
//! count ÷ summary-estimated distinct values), so `EXPLAIN`-style static
//! plans order joins the way the runtime greedy evaluator actually would.
//!
//! The per-pattern **base** count stays the store's exact constant-form
//! count (two binary searches), so a zero estimate still implies true
//! emptiness and [`rdf_query::Plan::provably_empty`] stays sound; only
//! the bound-slot *divisors* come from the summary.

use crate::summary::Summary;
use rdf_model::{FxHashMap, FxHashSet, Graph, TermId};
use rdf_query::{Atom, CompiledPattern, JoinEstimator};
use rdf_store::{TriplePattern, TripleStore};

/// Per-property figures, keyed by the *summarized graph's* dictionary id
/// (queries are compiled against `G`, so lookups use `G` ids).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PropertyCard {
    /// Exact number of `G` triples with this property.
    pub triples: usize,
    /// Estimated distinct subjects (sum of the subject summary nodes'
    /// extent sizes — an upper bound on the true distinct count).
    pub subjects: usize,
    /// Estimated distinct objects (same construction on the object side).
    pub objects: usize,
}

/// Summary-derived statistics for one `(graph, summary)` pair.
#[derive(Clone, Debug)]
pub struct SummaryCardinality {
    props: FxHashMap<TermId, PropertyCard>,
    /// `G` class id → estimated instance count (extent sizes of the
    /// summary nodes typed with the class).
    classes: FxHashMap<TermId, usize>,
    /// Represented `G` data nodes.
    n_data_nodes: usize,
}

impl SummaryCardinality {
    /// Builds the statistics: one pass over the summary's edges plus one
    /// exact [`TripleStore::count`] per distinct property.
    pub fn new(store: &TripleStore, summary: &Summary) -> Self {
        Self::from_extents(store, &summary.graph, &summary.extent_sizes())
    }

    /// The statistics of the summary `h` of `store`'s graph, whose
    /// H node `n` represents `extent[n]` G nodes (none past the table) —
    /// [`SummaryCardinality::new`]'s one body, and how an artifact whose
    /// summary an `UPDATE` left as it was re-derives them from the moved
    /// extent counts.
    pub(crate) fn from_extents(store: &TripleStore, h: &Graph, extent: &[u32]) -> Self {
        let g = store.graph();
        // H term → G term (properties, classes, and schema nodes keep
        // their URIs through summarization, so the lookup succeeds for
        // everything we index here).
        let mut g_of: FxHashMap<TermId, Option<TermId>> = FxHashMap::default();
        let mut g_id = |h_id: TermId| -> Option<TermId> {
            *g_of
                .entry(h_id)
                .or_insert_with(|| g.dict().lookup_ref(h.dict().decode(h_id)))
        };
        // Schema nodes represent themselves; data nodes carry extents.
        let weight = |n: TermId| extent.get(n.index()).map_or(1, |&e| (e as usize).max(1));

        let mut subj_nodes: FxHashMap<TermId, FxHashSet<TermId>> = FxHashMap::default();
        let mut obj_nodes: FxHashMap<TermId, FxHashSet<TermId>> = FxHashMap::default();
        for t in h.data().iter().chain(h.schema()) {
            let Some(p) = g_id(t.p) else { continue };
            subj_nodes.entry(p).or_default().insert(t.s);
            obj_nodes.entry(p).or_default().insert(t.o);
        }
        // τ edges: the property is rdf:type; objects are class URIs.
        let mut tau_subjects: FxHashSet<TermId> = FxHashSet::default();
        let mut class_nodes: FxHashMap<TermId, FxHashSet<TermId>> = FxHashMap::default();
        for t in h.types() {
            tau_subjects.insert(t.s);
            if let Some(c) = g_id(t.o) {
                class_nodes.entry(c).or_default().insert(t.s);
            }
        }

        let mut props: FxHashMap<TermId, PropertyCard> = FxHashMap::default();
        for (p, subjects) in subj_nodes {
            let objects = obj_nodes.remove(&p).unwrap_or_default();
            props.insert(
                p,
                PropertyCard {
                    triples: store.count(TriplePattern::new(None, Some(p), None)),
                    subjects: subjects.iter().map(|&n| weight(n)).sum(),
                    objects: objects.iter().map(|&n| weight(n)).sum(),
                },
            );
        }
        if !tau_subjects.is_empty() {
            let tau = g.rdf_type();
            props.insert(
                tau,
                PropertyCard {
                    triples: store.count(TriplePattern::new(None, Some(tau), None)),
                    subjects: tau_subjects.iter().map(|&n| weight(n)).sum(),
                    objects: class_nodes.len(),
                },
            );
        }
        let classes = class_nodes
            .into_iter()
            .map(|(c, nodes)| (c, nodes.iter().map(|&n| weight(n)).sum()))
            .collect();
        SummaryCardinality {
            props,
            classes,
            n_data_nodes: extent.iter().map(|&e| e as usize).sum(),
        }
    }

    /// Per-property figures, if the property occurs in the graph.
    pub fn property(&self, p: TermId) -> Option<PropertyCard> {
        self.props.get(&p).copied()
    }

    /// Estimated instances of a class (`G` dictionary id).
    pub fn class_instances(&self, c: TermId) -> Option<usize> {
        self.classes.get(&c).copied()
    }

    /// Number of represented `G` data nodes.
    pub fn n_data_nodes(&self) -> usize {
        self.n_data_nodes
    }

    /// Number of distinct properties (τ included when typed).
    pub fn n_properties(&self) -> usize {
        self.props.len()
    }

    /// Reassembles statistics from persisted figures — the inverse of the
    /// [`Self::iter_properties`]/[`Self::iter_classes`] decomposition,
    /// used by the summary-artifact persistence codec.
    pub fn from_parts(
        props: FxHashMap<TermId, PropertyCard>,
        classes: FxHashMap<TermId, usize>,
        n_data_nodes: usize,
    ) -> Self {
        SummaryCardinality {
            props,
            classes,
            n_data_nodes,
        }
    }

    /// All per-property figures, in arbitrary order.
    pub fn iter_properties(&self) -> impl Iterator<Item = (TermId, PropertyCard)> + '_ {
        self.props.iter().map(|(&p, &card)| (p, card))
    }

    /// All per-class instance estimates, in arbitrary order.
    pub fn iter_classes(&self) -> impl Iterator<Item = (TermId, usize)> + '_ {
        self.classes.iter().map(|(&c, &n)| (c, n))
    }
}

/// A [`JoinEstimator`] pairing the summary statistics with the graph's
/// store (for exact base counts). Borrow-cheap: build one per query.
pub struct SummaryEstimator<'a> {
    store: &'a TripleStore,
    card: &'a SummaryCardinality,
}

impl<'a> SummaryEstimator<'a> {
    /// Creates an estimator for queries compiled against `store`'s graph.
    pub fn new(store: &'a TripleStore, card: &'a SummaryCardinality) -> Self {
        SummaryEstimator { store, card }
    }
}

impl JoinEstimator for SummaryEstimator<'_> {
    fn estimate(&self, p: &CompiledPattern, bound: &[bool]) -> Option<usize> {
        let slot = |a: Atom| match a {
            Atom::Const(None) => None, // unmatchable
            Atom::Const(Some(c)) => Some(Some(c)),
            Atom::Var(_) => Some(None),
        };
        let tp = TriplePattern::new(slot(p.s)?, slot(p.p)?, slot(p.o)?);
        let total = self.store.count(tp);
        let is_bound = |a: Atom| matches!(a, Atom::Var(v) if bound[v]);
        let (bs, bp, bo) = (is_bound(p.s), is_bound(p.p), is_bound(p.o));
        if total == 0 || !(bs || bp || bo) {
            return Some(total);
        }
        let prop = match p.p {
            Atom::Const(Some(c)) => self.card.property(c),
            _ => None,
        };
        let tau_class = match (p.p, p.o) {
            // (?x, τ, C): a bound subject ranges over C's instances.
            (Atom::Const(Some(pc)), Atom::Const(Some(oc)))
                if pc == self.store.graph().rdf_type() =>
            {
                self.card.class_instances(oc)
            }
            _ => None,
        };
        let mut divisor = 1usize;
        if bs {
            let d = tau_class
                .or(prop.map(|c| c.subjects))
                .unwrap_or(self.card.n_data_nodes());
            divisor = divisor.saturating_mul(d.max(1));
        }
        if bp {
            divisor = divisor.saturating_mul(self.card.n_properties().max(1));
        }
        if bo {
            let d = prop.map(|c| c.objects).unwrap_or(self.card.n_data_nodes());
            divisor = divisor.saturating_mul(d.max(1));
        }
        // Never report 0 for a matchable pattern: zero is reserved for
        // provable emptiness.
        Some(total.div_ceil(divisor).clamp(1, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::summary::SummaryKind;
    use rdf_model::{vocab, Graph};
    use rdf_query::{compile, explain_with, QuerySpec, SpecTerm};

    fn v(n: &str) -> SpecTerm {
        SpecTerm::var(n)
    }

    fn iri(s: &str) -> SpecTerm {
        SpecTerm::iri(s)
    }

    fn library() -> Graph {
        let mut g = Graph::new();
        for i in 0..20 {
            g.add_iri_triple(&format!("b{i}"), vocab::RDF_TYPE, "Book");
            g.add_iri_triple(&format!("b{i}"), "author", &format!("a{i}"));
        }
        g.add_iri_triple("b0", "cites", "b1");
        g
    }

    #[test]
    fn per_property_figures_from_the_summary() {
        let g = library();
        let summary = builder::summarize(&g, SummaryKind::Weak);
        let store = TripleStore::new(g);
        let card = SummaryCardinality::new(&store, &summary);
        let author = store
            .graph()
            .dict()
            .lookup(&rdf_model::Term::iri("author"))
            .unwrap();
        let pc = card.property(author).unwrap();
        assert_eq!(pc.triples, 20, "base counts are exact");
        assert!(pc.subjects >= 20, "extent sums cover all true subjects");
        let book = store
            .graph()
            .dict()
            .lookup(&rdf_model::Term::iri("Book"))
            .unwrap();
        assert!(card.class_instances(book).unwrap() >= 20);
        assert!(card.n_data_nodes() > 0);
    }

    #[test]
    fn estimator_divides_by_bound_slots() {
        let g = library();
        let summary = builder::summarize(&g, SummaryKind::Weak);
        let store = TripleStore::new(g);
        let card = SummaryCardinality::new(&store, &summary);
        let est = SummaryEstimator::new(&store, &card);
        let spec = QuerySpec::new(Vec::<String>::new(), [(v("x"), iri("author"), v("y"))]);
        let q = compile(&spec, store.graph()).unwrap();
        let unbound = est.estimate(&q.body[0], &vec![false; q.n_vars()]).unwrap();
        assert_eq!(unbound, 20);
        let mut bound = vec![false; q.n_vars()];
        bound[0] = true; // ?x bound by an earlier step
        let per_binding = est.estimate(&q.body[0], &bound).unwrap();
        assert!(per_binding <= 2, "20 triples / ≥20 subjects ≈ 1");
        assert!(per_binding >= 1);
    }

    #[test]
    fn summary_plan_matches_store_plan_shape() {
        let g = library();
        let summary = builder::summarize(&g, SummaryKind::TypedWeak);
        let store = TripleStore::new(g);
        let card = SummaryCardinality::new(&store, &summary);
        let spec = QuerySpec::new(
            ["y"],
            [
                (v("x"), iri(vocab::RDF_TYPE), iri("Book")),
                (v("x"), iri("cites"), v("z")),
                (v("x"), iri("author"), v("y")),
            ],
        );
        let q = compile(&spec, store.graph()).unwrap();
        let plan = explain_with(&q, &SummaryEstimator::new(&store, &card));
        assert!(!plan.provably_empty);
        // `cites` (1 triple) first; the remaining joins are charged their
        // per-binding cost, not their raw counts.
        assert_eq!(plan.steps[0].pattern_index, 1);
        assert!(plan.steps[1].estimated_matches <= 2);
        assert!(plan.steps[2].estimated_matches <= 2);
        // The order drives the evaluator unchanged.
        let ev = rdf_query::Evaluator::new(&store);
        let rs = ev.select_limit_ordered(&q, &plan.order(), usize::MAX);
        assert_eq!(rs.len(), ev.select(&q).len());
    }

    /// A join pulls a pattern ahead of a smaller unrelated one: after
    /// `seed` binds ?y, `fan` costs ~1 per binding (50 triples over the 50
    /// subjects its summary node represents) even though its raw count
    /// (50) exceeds `other`'s (10).
    #[test]
    fn bound_slots_shrink_estimates() {
        let mut g = Graph::new();
        g.add_iri_triple("hub", "seed", "y0");
        for i in 0..50 {
            g.add_iri_triple(&format!("y{i}"), "fan", &format!("z{i}"));
        }
        for i in 0..10 {
            g.add_iri_triple(&format!("u{i}"), "other", &format!("w{i}"));
        }
        let summary = builder::summarize(&g, SummaryKind::Weak);
        let store = TripleStore::new(g);
        let card = SummaryCardinality::new(&store, &summary);
        let spec = QuerySpec::new(
            ["z"],
            [
                (v("x"), iri("seed"), v("y")),
                (v("y"), iri("fan"), v("z")),
                (v("u"), iri("other"), v("w")),
            ],
        );
        let q = compile(&spec, store.graph()).unwrap();
        let plan = explain_with(&q, &SummaryEstimator::new(&store, &card));
        assert_eq!(
            plan.order(),
            [0, 1, 2],
            "bound ?y pulls `fan` before `other`"
        );
        assert_eq!(plan.steps[1].estimated_matches, 1);
        assert_eq!(plan.steps[2].estimated_matches, 10);
        assert!(!plan.provably_empty);
    }

    #[test]
    fn zero_estimates_only_for_true_emptiness() {
        let g = library();
        let summary = builder::summarize(&g, SummaryKind::Weak);
        let store = TripleStore::new(g);
        let card = SummaryCardinality::new(&store, &summary);
        let est = SummaryEstimator::new(&store, &card);
        let spec = QuerySpec::new(Vec::<String>::new(), [(v("x"), iri("author"), v("y"))]);
        let q = compile(&spec, store.graph()).unwrap();
        for mask in 0..4u8 {
            let mut bound = vec![false; q.n_vars()];
            bound[0] = mask & 1 != 0;
            bound[1] = mask & 2 != 0;
            let e = est.estimate(&q.body[0], &bound).unwrap();
            assert!(e >= 1, "author matches exist; estimate must stay ≥ 1");
        }
    }
}
