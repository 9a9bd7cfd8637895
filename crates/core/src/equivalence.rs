//! Node equivalence relations and the partitions they induce.
//!
//! §3.2 of the paper: from the property cliques we derive **weak**
//! equivalence ≡W (shared non-empty source *or* target clique, closed
//! transitively), **strong** equivalence ≡S (same source clique *and* same
//! target clique), and **type** equivalence ≡T (same non-empty set of
//! classes). Each relation partitions the data nodes of G; the quotient by
//! that partition is the summary. ≡T needs no function here: the
//! [`crate::context::SummaryContext`] groups by its interned class sets.
//!
//! A [`Partition`] stores its node → class assignment as a `Vec`-indexed
//! array keyed by the dense dictionary id (the dense-pipeline layout), so
//! the quotient construction does plain array reads instead of hash
//! lookups.

use crate::cliques::{CliqueId, Cliques};
use rdf_model::{DenseIdMap, FxHashMap, Graph, TermId, NO_DENSE_ID};

/// A partition of a node set: dense class indices plus member lists.
#[derive(Clone, Debug, Default)]
pub struct Partition {
    /// Term-indexed: node → class index, [`NO_DENSE_ID`] if uncovered.
    class_of: Vec<u32>,
    /// Class index → members (in first-seen order).
    pub classes: Vec<Vec<TermId>>,
}

impl Partition {
    /// Builds a partition from a `node → key` assignment, creating one
    /// class per distinct key (dense, in first-seen order over `nodes`).
    pub fn group_by<K: std::hash::Hash + Eq>(
        nodes: &[TermId],
        mut key: impl FnMut(TermId) -> K,
    ) -> Self {
        let cap = nodes.iter().map(|n| n.index() + 1).max().unwrap_or(0);
        let mut key_class: FxHashMap<K, u32> = FxHashMap::default();
        let mut p = Partition {
            class_of: vec![NO_DENSE_ID; cap],
            classes: Vec::new(),
        };
        for &n in nodes {
            let k = key(n);
            let class = *key_class.entry(k).or_insert_with(|| {
                p.classes.push(Vec::new());
                (p.classes.len() - 1) as u32
            });
            p.classes[class as usize].push(n);
            p.class_of[n.index()] = class;
        }
        p
    }

    /// [`Partition::group_by`] for keys that already live in a small dense
    /// space `0..n_keys`: the key → class table is a flat array, so the
    /// whole construction is hash-free. Class indices are dense in
    /// first-seen order, exactly like `group_by`.
    pub fn group_by_dense(
        nodes: &[TermId],
        n_keys: usize,
        mut key: impl FnMut(TermId) -> usize,
    ) -> Self {
        let cap = nodes.iter().map(|n| n.index() + 1).max().unwrap_or(0);
        let mut key_class = vec![NO_DENSE_ID; n_keys];
        let mut p = Partition {
            class_of: vec![NO_DENSE_ID; cap],
            classes: Vec::new(),
        };
        for &n in nodes {
            let k = key(n);
            let slot = &mut key_class[k];
            if *slot == NO_DENSE_ID {
                *slot = p.classes.len() as u32;
                p.classes.push(Vec::new());
            }
            let class = *slot;
            p.classes[class as usize].push(n);
            p.class_of[n.index()] = class;
        }
        p
    }

    /// The class index of `n`, `None` when `n` is not covered.
    #[inline]
    pub fn class_of(&self, n: TermId) -> Option<usize> {
        match self.class_of.get(n.index()) {
            Some(&c) if c != NO_DENSE_ID => Some(c as usize),
            _ => None,
        }
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True when the partition has no classes.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Total number of class members (counting duplicates, if any).
    pub fn n_members(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }

    /// Invariant check: classes are non-empty, each member maps back to
    /// its class, and every covered node appears in some class.
    pub fn check_invariants(&self) -> bool {
        let covered = self.class_of.iter().filter(|&&c| c != NO_DENSE_ID).count();
        self.n_members() == covered
            && self.classes.iter().all(|c| !c.is_empty())
            && self
                .classes
                .iter()
                .enumerate()
                .all(|(i, c)| c.iter().all(|&n| self.class_of(n) == Some(i)))
    }
}

/// The data nodes of `g` in deterministic (first-seen) order: subjects and
/// objects of D_G, then subjects of T_G (§2.1's data-node definition).
///
/// This is the numbering order of [`crate::context::SummaryContext::new`];
/// prefer [`crate::context::SummaryContext::data_nodes`] when a context is
/// already at hand.
pub fn data_nodes_ordered(g: &Graph) -> Vec<TermId> {
    let mut m = DenseIdMap::with_capacity(g.dict().len());
    for t in g.data() {
        m.intern(t.s);
        m.intern(t.o);
    }
    for t in g.types() {
        m.intern(t.s);
    }
    m.into_parts().1
}

/// The clique signature of a node: `(TC(r), SC(r))` as optional clique ids.
pub fn signature(cliques: &Cliques, node: TermId) -> (Option<CliqueId>, Option<CliqueId>) {
    (cliques.tc(node), cliques.sc(node))
}

/// ≡W over `nodes`: the transitive closure of "shares a non-empty source
/// or target clique". Computed as connected components of the bipartite
/// clique graph: node r links SC(r) — TC(r); nodes with both cliques empty
/// form one extra class (the `Nτ` class).
///
/// Passing the untyped data nodes together with untyped-scope cliques
/// yields ≡UW (Definition 13, in the implementation semantics of §6.1).
pub fn weak_partition(cliques: &Cliques, nodes: &[TermId]) -> Partition {
    weak_classes(cliques, nodes).0
}

/// The class of every clique under a weak partition: of each source
/// (target) clique some node of the partition has, and of the nodes that
/// have neither — [`NO_DENSE_ID`] where no node is.
#[derive(Clone, Debug)]
pub(crate) struct CliqueClasses {
    pub(crate) of_sc: Vec<u32>,
    pub(crate) of_tc: Vec<u32>,
    pub(crate) of_none: u32,
}

/// [`weak_partition`], with the clique → class tables its union–find
/// settles on the way.
pub(crate) fn weak_classes(cliques: &Cliques, nodes: &[TermId]) -> (Partition, CliqueClasses) {
    use crate::unionfind::UnionFind;
    let ns = cliques.source_cliques.len();
    let nt = cliques.target_cliques.len();
    // Items: [0, ns) source cliques, [ns, ns+nt) target cliques,
    // ns+nt = the τ bucket.
    let mut uf = UnionFind::new(ns + nt + 1);
    for &n in nodes {
        if let (Some(tc), Some(sc)) = (cliques.tc(n), cliques.sc(n)) {
            uf.union(sc, ns + tc);
        }
    }
    let tau = ns + nt;
    let mut key = |n: TermId| match (cliques.sc(n), cliques.tc(n)) {
        (Some(sc), _) => uf.find(sc),
        (None, Some(tc)) => uf.find(ns + tc),
        (None, None) => tau,
    };
    let partition = Partition::group_by_dense(nodes, ns + nt + 1, &mut key);
    // A clique no node has was never unioned, so it is its own root and
    // keys no class.
    let mut of_root = vec![NO_DENSE_ID; ns + nt + 1];
    for (c, members) in (0..).zip(&partition.classes) {
        of_root[key(members[0])] = c;
    }
    let classes = CliqueClasses {
        of_sc: (0..ns).map(|c| of_root[uf.find(c)]).collect(),
        of_tc: (0..nt).map(|c| of_root[uf.find(ns + c)]).collect(),
        of_none: of_root[tau],
    };
    (partition, classes)
}

/// ≡S over `nodes`: same `(source clique, target clique)` pair
/// (Definition 15). With untyped nodes and untyped-scope cliques this is
/// ≡US (Definition 16).
pub fn strong_partition(cliques: &Cliques, nodes: &[TermId]) -> Partition {
    // The signature space is (ns+1)·(nt+1) (each side may be ∅). When it
    // is comparably small — the overwhelmingly common case, since clique
    // counts are bounded by the distinct-property count — a flat key table
    // beats hashing every node. Degenerate graphs (thousands of singleton
    // cliques) fall back to the hashed grouping to avoid a quadratic
    // table.
    let ns = cliques.source_cliques.len();
    let nt = cliques.target_cliques.len();
    let n_keys = (ns + 1).saturating_mul(nt + 1);
    if n_keys <= 4 * nodes.len() + 1024 {
        Partition::group_by_dense(nodes, n_keys, |n| {
            let sc = cliques.sc(n).map_or(0, |c| c + 1);
            let tc = cliques.tc(n).map_or(0, |c| c + 1);
            tc * (ns + 1) + sc
        })
    } else {
        Partition::group_by(nodes, |n| signature(cliques, n))
    }
}

/// The class set of every typed resource, sorted (canonical form).
///
/// The dense pipeline interns these once per graph — see
/// [`crate::context::SummaryContext::class_sets`]; this hash-map form is
/// kept for callers without a context (`rdfsum-experiments`' streaming
/// builders and bisimulation).
pub fn class_sets(g: &Graph) -> FxHashMap<TermId, Vec<TermId>> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cliques::CliqueScope;
    use crate::fixtures::{exid, sample_graph};

    fn class_ids(p: &Partition, g: &Graph, names: &[&str]) -> Vec<usize> {
        names
            .iter()
            .map(|n| p.class_of(exid(g, n)).unwrap())
            .collect()
    }

    /// §3.2: r1..r5 weakly equivalent; t1..t4; {a1, a2}; {e1, e2}; {c1};
    /// r6 alone (τ class). Six classes total.
    #[test]
    fn weak_classes_of_sample() {
        let g = sample_graph();
        let cq = Cliques::compute(&g, CliqueScope::AllNodes);
        let nodes = data_nodes_ordered(&g);
        let p = weak_partition(&cq, &nodes);
        assert!(p.check_invariants());
        assert_eq!(p.len(), 6);
        let rs = class_ids(&p, &g, &["r1", "r2", "r3", "r4", "r5"]);
        assert!(rs.iter().all(|&c| c == rs[0]));
        let ts = class_ids(&p, &g, &["t1", "t2", "t3", "t4"]);
        assert!(ts.iter().all(|&c| c == ts[0]));
        let aa = class_ids(&p, &g, &["a1", "a2"]);
        assert_eq!(aa[0], aa[1]);
        let ee = class_ids(&p, &g, &["e1", "e2"]);
        assert_eq!(ee[0], ee[1]);
        // All five groups distinct, and r6 separate.
        let mut reps = vec![rs[0], ts[0], aa[0], ee[0]];
        reps.push(p.class_of(exid(&g, "c1")).unwrap());
        reps.push(p.class_of(exid(&g, "r6")).unwrap());
        reps.sort_unstable();
        reps.dedup();
        assert_eq!(reps.len(), 6);
    }

    /// §3.2: "the resources r1, r2, r3, r5 are strongly related to each
    /// other, as well as t1, t2, t3, t4" — and r4 is split off (9 classes).
    #[test]
    fn strong_classes_of_sample() {
        let g = sample_graph();
        let cq = Cliques::compute(&g, CliqueScope::AllNodes);
        let nodes = data_nodes_ordered(&g);
        let p = strong_partition(&cq, &nodes);
        assert!(p.check_invariants());
        // {r1,r2,r3,r5} {r4} {a1} {a2} {t1..t4} {e1} {e2} {c1} {r6}
        assert_eq!(p.len(), 9);
        let rs = class_ids(&p, &g, &["r1", "r2", "r3", "r5"]);
        assert!(rs.iter().all(|&c| c == rs[0]));
        assert_ne!(p.class_of(exid(&g, "r4")).unwrap(), rs[0]);
        assert_ne!(p.class_of(exid(&g, "a1")), p.class_of(exid(&g, "a2")));
        assert_ne!(p.class_of(exid(&g, "e1")), p.class_of(exid(&g, "e2")));
        let ts = class_ids(&p, &g, &["t1", "t2", "t3", "t4"]);
        assert!(ts.iter().all(|&c| c == ts[0]));
    }

    /// Strong refines weak: every strong class is inside one weak class.
    #[test]
    fn strong_refines_weak() {
        let g = sample_graph();
        let cq = Cliques::compute(&g, CliqueScope::AllNodes);
        let nodes = data_nodes_ordered(&g);
        let w = weak_partition(&cq, &nodes);
        let s = strong_partition(&cq, &nodes);
        for class in &s.classes {
            let weak_class = w.class_of(class[0]);
            assert!(class.iter().all(|&n| w.class_of(n) == weak_class));
        }
        assert!(s.len() >= w.len());
    }

    /// ≡T groups r5 and r6 (both typed {Spec}); r1, r2 singletons; every
    /// untyped node is its own class — read off T_G's representatives.
    #[test]
    fn type_classes_of_sample() {
        let g = sample_graph();
        let t = crate::summarize(&g, crate::SummaryKind::TypeBased);
        let rep = |n: &str| t.representative(exid(&g, n)).unwrap();
        assert_eq!(rep("r5"), rep("r6"));
        assert_ne!(rep("r1"), rep("r2"));
        assert_ne!(rep("t1"), rep("t2"));
        // 15 data nodes; r5+r6 merge ⇒ 14 classes.
        assert_eq!(t.n_summary_nodes(), 14);
        assert_eq!(t.n_represented(), 15);
    }

    #[test]
    fn class_sets_sorted_and_deduped() {
        let g = sample_graph();
        let sets = class_sets(&g);
        assert_eq!(sets.len(), 4); // r1, r2, r5, r6
        let spec_set = &sets[&exid(&g, "r5")];
        assert_eq!(spec_set, &sets[&exid(&g, "r6")]);
        assert_eq!(spec_set.len(), 1);
    }

    #[test]
    fn data_nodes_deterministic_order() {
        let g = sample_graph();
        let a = data_nodes_ordered(&g);
        let b = data_nodes_ordered(&g);
        assert_eq!(a, b);
        assert_eq!(a.len(), 15);
        // r6 (typed-only) is last: it only appears in T_G.
        assert_eq!(*a.last().unwrap(), exid(&g, "r6"));
    }

    #[test]
    fn group_by_dense_first_seen() {
        let nodes = vec![TermId(5), TermId(7), TermId(5), TermId(9)];
        let p = Partition::group_by(&nodes, |n| n.0 % 2);
        // 5 → class 0 (odd), 7 → class 0, 9 → class 0… all odd! Use mod 4.
        assert_eq!(p.len(), 1);
        let p = Partition::group_by(&nodes, |n| n.0);
        assert_eq!(p.len(), 3);
        assert_eq!(p.classes[0], vec![TermId(5), TermId(5)]);
        // Uncovered nodes report None; out-of-range ids too.
        assert_eq!(p.class_of(TermId(6)), None);
        assert_eq!(p.class_of(TermId(1000)), None);
    }
}
