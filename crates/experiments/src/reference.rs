//! The pre-dense-pipeline summary builders, preserved verbatim as a test
//! oracle.
//!
//! Before the [`rdfsum_core::context::SummaryContext`] refactor, every builder
//! computed property cliques with per-node `FxHashMap` lookups and built
//! partitions/quotients through hash maps. This module keeps that original
//! logic — hash maps and all — so the golden-equivalence tests can assert
//! that the dense pipeline produces **triple-for-triple and
//! naming-identical** output on every workload. It is deliberately naive
//! and unoptimized; production code should use the [`rdfsum_core::builder`]
//! entry points (or a [`rdfsum_core::context::SummaryContext`] directly), never
//! this module.

use rdf_model::{FxHashMap, FxHashSet, Graph, Term, TermId, Triple};
use rdfsum_core::cliques::CliqueScope;
use rdfsum_core::naming::{c_uri, n_uri};
use rdfsum_core::summary::{Summary, SummaryKind};

/// Clique structure with the original hash-map node assignments.
struct RefCliques {
    source_cliques: Vec<Vec<TermId>>,
    target_cliques: Vec<Vec<TermId>>,
    subject_clique: FxHashMap<TermId, usize>,
    object_clique: FxHashMap<TermId, usize>,
}

impl RefCliques {
    fn compute(g: &Graph, scope: CliqueScope) -> Self {
        use rdfsum_core::unionfind::UnionFind;
        let typed: FxHashSet<TermId> = match scope {
            CliqueScope::AllNodes => FxHashSet::default(),
            CliqueScope::UntypedOnly => g.typed_resources(),
        };
        let counts = |id: TermId| -> bool {
            match scope {
                CliqueScope::AllNodes => true,
                CliqueScope::UntypedOnly => !typed.contains(&id),
            }
        };
        let mut prop_index: FxHashMap<TermId, usize> = FxHashMap::default();
        let mut props: Vec<TermId> = Vec::new();
        for t in g.data() {
            prop_index.entry(t.p).or_insert_with(|| {
                props.push(t.p);
                props.len() - 1
            });
        }
        let n = props.len();
        let mut src_uf = UnionFind::new(n);
        let mut tgt_uf = UnionFind::new(n);
        let mut subj_repr: FxHashMap<TermId, usize> = FxHashMap::default();
        let mut obj_repr: FxHashMap<TermId, usize> = FxHashMap::default();
        for t in g.data() {
            let pi = prop_index[&t.p];
            if counts(t.s) {
                match subj_repr.get(&t.s) {
                    Some(&q) => {
                        src_uf.union(pi, q);
                    }
                    None => {
                        subj_repr.insert(t.s, pi);
                    }
                }
            }
            if counts(t.o) {
                match obj_repr.get(&t.o) {
                    Some(&q) => {
                        tgt_uf.union(pi, q);
                    }
                    None => {
                        obj_repr.insert(t.o, pi);
                    }
                }
            }
        }
        let (src_assign, n_src) = src_uf.dense_components();
        let (tgt_assign, n_tgt) = tgt_uf.dense_components();
        let mut source_cliques: Vec<Vec<TermId>> = vec![Vec::new(); n_src];
        let mut target_cliques: Vec<Vec<TermId>> = vec![Vec::new(); n_tgt];
        for (i, &p) in props.iter().enumerate() {
            source_cliques[src_assign[i]].push(p);
            target_cliques[tgt_assign[i]].push(p);
        }
        for c in source_cliques.iter_mut().chain(target_cliques.iter_mut()) {
            c.sort_unstable();
        }
        RefCliques {
            source_cliques,
            target_cliques,
            subject_clique: subj_repr
                .into_iter()
                .map(|(node, pi)| (node, src_assign[pi]))
                .collect(),
            object_clique: obj_repr
                .into_iter()
                .map(|(node, pi)| (node, tgt_assign[pi]))
                .collect(),
        }
    }

    fn sc(&self, node: TermId) -> Option<usize> {
        self.subject_clique.get(&node).copied()
    }

    fn tc(&self, node: TermId) -> Option<usize> {
        self.object_clique.get(&node).copied()
    }
}

/// The original hash-map partition.
struct RefPartition {
    class_of: FxHashMap<TermId, usize>,
    classes: Vec<Vec<TermId>>,
}

impl RefPartition {
    fn group_by<K: std::hash::Hash + Eq>(
        nodes: &[TermId],
        mut key: impl FnMut(TermId) -> K,
    ) -> Self {
        let mut key_class: FxHashMap<K, usize> = FxHashMap::default();
        let mut class_of = FxHashMap::default();
        let mut classes: Vec<Vec<TermId>> = Vec::new();
        for &n in nodes {
            let k = key(n);
            let class = *key_class.entry(k).or_insert_with(|| {
                classes.push(Vec::new());
                classes.len() - 1
            });
            classes[class].push(n);
            class_of.insert(n, class);
        }
        RefPartition { class_of, classes }
    }
}

fn ref_data_nodes_ordered(g: &Graph) -> Vec<TermId> {
    let mut seen: FxHashMap<TermId, ()> = FxHashMap::default();
    let mut out = Vec::new();
    let push = |id: TermId, seen: &mut FxHashMap<TermId, ()>, out: &mut Vec<TermId>| {
        if seen.insert(id, ()).is_none() {
            out.push(id);
        }
    };
    for t in g.data() {
        push(t.s, &mut seen, &mut out);
        push(t.o, &mut seen, &mut out);
    }
    for t in g.types() {
        push(t.s, &mut seen, &mut out);
    }
    out
}

fn ref_weak_partition(cliques: &RefCliques, nodes: &[TermId]) -> RefPartition {
    use rdfsum_core::unionfind::UnionFind;
    let ns = cliques.source_cliques.len();
    let nt = cliques.target_cliques.len();
    let mut uf = UnionFind::new(ns + nt + 1);
    for &n in nodes {
        if let (Some(tc), Some(sc)) = (cliques.tc(n), cliques.sc(n)) {
            uf.union(sc, ns + tc);
        }
    }
    let tau = ns + nt;
    RefPartition::group_by(nodes, |n| match (cliques.sc(n), cliques.tc(n)) {
        (Some(sc), _) => uf.find(sc),
        (None, Some(tc)) => uf.find(ns + tc),
        (None, None) => tau,
    })
}

fn ref_strong_partition(cliques: &RefCliques, nodes: &[TermId]) -> RefPartition {
    RefPartition::group_by(nodes, |n| (cliques.tc(n), cliques.sc(n)))
}

fn ref_class_sets(g: &Graph) -> FxHashMap<TermId, Vec<TermId>> {
    let mut sets: FxHashMap<TermId, Vec<TermId>> = FxHashMap::default();
    for t in g.types() {
        let v = sets.entry(t.s).or_default();
        if !v.contains(&t.o) {
            v.push(t.o);
        }
    }
    for v in sets.values_mut() {
        v.sort_unstable();
    }
    sets
}

/// The union of target/source clique property sets over a class.
fn ref_class_property_sets(cliques: &RefCliques, members: &[TermId]) -> (Vec<TermId>, Vec<TermId>) {
    let mut tc_ids: Vec<usize> = members.iter().filter_map(|&n| cliques.tc(n)).collect();
    let mut sc_ids: Vec<usize> = members.iter().filter_map(|&n| cliques.sc(n)).collect();
    tc_ids.sort_unstable();
    tc_ids.dedup();
    sc_ids.sort_unstable();
    sc_ids.dedup();
    let mut tc_props: Vec<TermId> = tc_ids
        .into_iter()
        .flat_map(|i| cliques.target_cliques[i].iter().copied())
        .collect();
    let mut sc_props: Vec<TermId> = sc_ids
        .into_iter()
        .flat_map(|i| cliques.source_cliques[i].iter().copied())
        .collect();
    tc_props.sort_unstable();
    tc_props.dedup();
    sc_props.sort_unstable();
    sc_props.dedup();
    (tc_props, sc_props)
}

/// The original hash-map quotient construction.
fn ref_quotient(
    g: &Graph,
    partition: &RefPartition,
    mut class_uri: impl FnMut(usize, &[TermId]) -> String,
) -> Summary {
    let mut h = Graph::new();
    let mut class_node: Vec<TermId> = Vec::with_capacity(partition.classes.len());
    for (i, members) in partition.classes.iter().enumerate() {
        let uri = class_uri(i, members);
        class_node.push(h.dict_mut().encode(Term::iri(uri)));
    }
    let mut xfer: FxHashMap<TermId, TermId> = FxHashMap::default();
    let mut transfer = |id: TermId, g: &Graph, h: &mut Graph| -> TermId {
        if let Some(&cached) = xfer.get(&id) {
            return cached;
        }
        let hid = h.dict_mut().encode_ref(g.dict().decode(id));
        xfer.insert(id, hid);
        hid
    };
    let mut node_map: FxHashMap<TermId, TermId> = FxHashMap::default();
    for (&n, &c) in &partition.class_of {
        node_map.insert(n, class_node[c]);
    }
    for t in g.schema() {
        let s = transfer(t.s, g, &mut h);
        let p = transfer(t.p, g, &mut h);
        let o = transfer(t.o, g, &mut h);
        h.insert_encoded(Triple::new(s, p, o));
    }
    for t in g.data() {
        let s = node_map[&t.s];
        let p = transfer(t.p, g, &mut h);
        let o = node_map[&t.o];
        h.insert_encoded(Triple::new(s, p, o));
    }
    let tau = h.rdf_type();
    for t in g.types() {
        let s = node_map[&t.s];
        let c = transfer(t.o, g, &mut h);
        h.insert_encoded(Triple::new(s, tau, c));
    }
    Summary::new(h, node_map)
}

fn ref_weak(g: &Graph) -> Summary {
    let cliques = RefCliques::compute(g, CliqueScope::AllNodes);
    let nodes = ref_data_nodes_ordered(g);
    let partition = ref_weak_partition(&cliques, &nodes);
    ref_quotient(g, &partition, |_, members| {
        let (tc, sc) = ref_class_property_sets(&cliques, members);
        n_uri(g.dict(), &tc, &sc)
    })
}

fn ref_strong(g: &Graph) -> Summary {
    let cliques = RefCliques::compute(g, CliqueScope::AllNodes);
    let nodes = ref_data_nodes_ordered(g);
    let partition = ref_strong_partition(&cliques, &nodes);
    ref_quotient(g, &partition, |_, members| {
        let (tc, sc) = (cliques.tc(members[0]), cliques.sc(members[0]));
        let tc_props = tc
            .map(|i| cliques.target_cliques[i].to_vec())
            .unwrap_or_default();
        let sc_props = sc
            .map(|i| cliques.source_cliques[i].to_vec())
            .unwrap_or_default();
        n_uri(g.dict(), &tc_props, &sc_props)
    })
}

fn ref_type_based(g: &Graph) -> Summary {
    let sets = ref_class_sets(g);
    let nodes = ref_data_nodes_ordered(g);
    #[derive(Hash, PartialEq, Eq)]
    enum Key {
        Typed(Vec<TermId>),
        Untyped(TermId),
    }
    let partition = RefPartition::group_by(&nodes, |n| match sets.get(&n) {
        Some(cs) => Key::Typed(cs.clone()),
        None => Key::Untyped(n),
    });
    let mut fresh = 0usize;
    ref_quotient(g, &partition, |_, members| match sets.get(&members[0]) {
        Some(cs) => c_uri(g.dict(), cs),
        None => {
            fresh += 1;
            format!("{}c?fresh={}", rdfsum_core::naming::SUMMARY_NS, fresh)
        }
    })
}

fn ref_typed(g: &Graph, kind: SummaryKind, scope: CliqueScope) -> Summary {
    let strong_naming = kind == SummaryKind::TypedStrong;
    let cliques = RefCliques::compute(g, scope);
    let sets = ref_class_sets(g);
    let nodes = ref_data_nodes_ordered(g);
    let untyped: Vec<TermId> = nodes
        .iter()
        .copied()
        .filter(|n| !sets.contains_key(n))
        .collect();
    let untyped_partition = if strong_naming {
        ref_strong_partition(&cliques, &untyped)
    } else {
        ref_weak_partition(&cliques, &untyped)
    };
    #[derive(Hash, PartialEq, Eq)]
    enum Key {
        Typed(Vec<TermId>),
        Untyped(usize),
    }
    let partition = RefPartition::group_by(&nodes, |n| match sets.get(&n) {
        Some(cs) => Key::Typed(cs.clone()),
        None => Key::Untyped(untyped_partition.class_of[&n]),
    });
    ref_quotient(g, &partition, |_, members| match sets.get(&members[0]) {
        Some(cs) => c_uri(g.dict(), cs),
        None => {
            if strong_naming {
                let (tc, sc) = (cliques.tc(members[0]), cliques.sc(members[0]));
                let tc_props = tc
                    .map(|i| cliques.target_cliques[i].to_vec())
                    .unwrap_or_default();
                let sc_props = sc
                    .map(|i| cliques.source_cliques[i].to_vec())
                    .unwrap_or_default();
                n_uri(g.dict(), &tc_props, &sc_props)
            } else {
                let (tc, sc) = ref_class_property_sets(&cliques, members);
                n_uri(g.dict(), &tc, &sc)
            }
        }
    })
}

/// Builds the summary of `g` the pre-refactor way, with the typed kinds'
/// cliques generated by untyped resources only (the Figure 7 reading of
/// Definition 13, which the production builders use).
pub fn reference_summary(g: &Graph, kind: SummaryKind) -> Summary {
    match kind {
        SummaryKind::Weak => ref_weak(g),
        SummaryKind::Strong => ref_strong(g),
        SummaryKind::TypedWeak | SummaryKind::TypedStrong => {
            ref_typed(g, kind, CliqueScope::UntypedOnly)
        }
        SummaryKind::TypeBased => ref_type_based(g),
    }
}

/// [`reference_summary`] with the typed kinds' cliques computed under
/// `scope` (the other kinds ignore it): [`CliqueScope::UntypedOnly`] is
/// the Figure 7 reading of Definition 13, [`CliqueScope::AllNodes`] the
/// literal one, where relatedness comes from every co-occurrence.
pub fn reference_summary_with(g: &Graph, kind: SummaryKind, scope: CliqueScope) -> Summary {
    match kind {
        SummaryKind::TypedWeak | SummaryKind::TypedStrong => ref_typed(g, kind, scope),
        _ => reference_summary(g, kind),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfsum_core::fixtures::{exid, sample_graph};

    /// The oracle reproduces the paper's headline figures on its own.
    #[test]
    fn reference_figures_on_sample() {
        let g = sample_graph();
        assert_eq!(
            reference_summary(&g, SummaryKind::Weak).graph.data().len(),
            6
        );
        assert_eq!(
            reference_summary(&g, SummaryKind::Strong).n_summary_nodes(),
            9
        );
        assert_eq!(
            reference_summary(&g, SummaryKind::TypedWeak).n_summary_nodes(),
            9
        );
        assert_eq!(
            reference_summary(&g, SummaryKind::TypedStrong).n_summary_nodes(),
            11
        );
        assert_eq!(
            reference_summary(&g, SummaryKind::TypeBased).n_summary_nodes(),
            14
        );
    }

    /// Under the literal Definition 13 semantics, r3 and r4 merge (they
    /// share the global source clique {a,t,e,c}) — demonstrating why that
    /// reading contradicts Figure 7.
    #[test]
    fn literal_semantics_merges_r3_r4() {
        let g = sample_graph();
        let s = reference_summary_with(&g, SummaryKind::TypedWeak, CliqueScope::AllNodes);
        assert_eq!(
            s.representative(exid(&g, "r3")),
            s.representative(exid(&g, "r4"))
        );
        let fig7 = rdfsum_core::summarize(&g, SummaryKind::TypedWeak);
        assert!(s.n_summary_nodes() < fig7.n_summary_nodes());
    }
}
