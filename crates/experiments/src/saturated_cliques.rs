//! Saturated cliques and Lemma 1 of the paper: how property cliques evolve
//! from `G` to `G∞`.
//!
//! When a graph is saturated, `≺sp` constraints give resources *more* data
//! properties, so cliques can only fuse. Lemma 1 makes this precise:
//!
//! 1. every clique `C` of `G` is contained in exactly one clique `C∞` of
//!    `G∞`;
//! 2. with `C⁺` ("saturated clique") the set of `C`'s properties plus all
//!    their generalizations (superproperties), if `C₁⁺ ∩ C₂⁺ ≠ ∅` then
//!    `C₁` and `C₂` end up inside one `G∞` clique;
//! 3. two properties from different `G` cliques `C₁, C₂` share a `G∞`
//!    clique **iff** a chain of cliques `D₁ … D_k` links them through
//!    non-empty saturated-clique intersections.
//!
//! This module computes `C⁺` and the *fusion partition* it induces (the
//! transitive closure of rule 2/3), which predicts the clique structure of
//! `G∞` without saturating the data — the engine behind the completeness
//! shortcut. Tests verify the prediction against the actually saturated
//! graph, on fixtures and random inputs.

use rdf_model::{FxHashMap, FxHashSet, Graph, TermId};
use rdf_schema::Schema;
use rdfsum_core::cliques::{CliqueId, Cliques};
use rdfsum_core::unionfind::UnionFind;

/// `C⁺`: the clique's properties together with all their superproperties.
pub fn saturated_clique(schema: &Schema, members: &[TermId]) -> FxHashSet<TermId> {
    let mut out = FxHashSet::default();
    for &p in members {
        out.extend(schema.property_closure(p));
    }
    out
}

/// The fusion of `G`'s cliques predicted by Lemma 1: a partition of clique
/// ids such that two cliques share a class iff their properties share a
/// `G∞` clique.
#[derive(Clone, Debug)]
pub struct CliqueFusion {
    /// For each `G` clique id, its predicted `G∞` clique (dense index).
    pub fused_class: Vec<usize>,
    /// Number of predicted `G∞` cliques.
    pub n_classes: usize,
}

/// Computes the fusion of the given clique family (source or target side)
/// under the schema's `≺sp` constraints.
///
/// Two cliques fuse when their saturated property sets intersect
/// (Lemma 1 item 2); the closure over chains (item 3) is the union–find's
/// transitivity.
pub fn fuse_cliques(schema: &Schema, cliques: &[Vec<TermId>]) -> CliqueFusion {
    let mut uf = UnionFind::new(cliques.len());
    // Index: property → cliques whose C⁺ contains it.
    let mut owner: FxHashMap<TermId, usize> = FxHashMap::default();
    for (i, members) in cliques.iter().enumerate() {
        for p in saturated_clique(schema, members) {
            match owner.get(&p) {
                Some(&j) => {
                    uf.union(i, j);
                }
                None => {
                    owner.insert(p, i);
                }
            }
        }
    }
    let (fused_class, n_classes) = uf.dense_components();
    CliqueFusion {
        fused_class,
        n_classes,
    }
}

/// Lemma 1 verdicts for one graph, comparing the *predicted* fusion with
/// the cliques actually computed on `G∞`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lemma1Check {
    /// Item 1: every `G` clique is inside exactly one `G∞` clique.
    pub containment_holds: bool,
    /// Items 2+3: the fusion predicted from `C⁺` intersections matches the
    /// grouping observed in `G∞` exactly.
    pub fusion_matches: bool,
}

impl Lemma1Check {
    /// Both parts hold.
    pub fn holds(&self) -> bool {
        self.containment_holds && self.fusion_matches
    }
}

fn check_side(
    schema: &Schema,
    g_cliques: &[Vec<TermId>],
    clique_of_inf: impl Fn(TermId) -> Option<CliqueId>,
) -> Lemma1Check {
    // Item 1: all members of a G clique map into the same G∞ clique.
    let mut containment_holds = true;
    let mut observed: Vec<Option<CliqueId>> = Vec::with_capacity(g_cliques.len());
    for members in g_cliques {
        let inf_ids: FxHashSet<CliqueId> =
            members.iter().filter_map(|&p| clique_of_inf(p)).collect();
        if inf_ids.len() != 1 {
            containment_holds = false;
            observed.push(None);
        } else {
            observed.push(inf_ids.into_iter().next());
        }
    }
    // Items 2+3: predicted fusion == observed grouping.
    let fusion = fuse_cliques(schema, g_cliques);
    let mut fusion_matches = containment_holds;
    if fusion_matches {
        for i in 0..g_cliques.len() {
            for j in (i + 1)..g_cliques.len() {
                let predicted_same = fusion.fused_class[i] == fusion.fused_class[j];
                let observed_same = observed[i] == observed[j];
                if predicted_same != observed_same {
                    fusion_matches = false;
                }
            }
        }
    }
    Lemma1Check {
        containment_holds,
        fusion_matches,
    }
}

/// Verifies Lemma 1 on `g`: computes the cliques of `G` and of `G∞` and
/// compares the observed evolution with the `C⁺`-predicted fusion, on both
/// the source and target sides.
pub fn verify_lemma1(g: &Graph) -> (Lemma1Check, Lemma1Check) {
    let schema = Schema::of(g);
    let g_cliques = Cliques::compute(g, rdfsum_core::cliques::CliqueScope::AllNodes);
    let sat = rdf_schema::saturate(g);
    let inf_cliques = Cliques::compute(&sat, rdfsum_core::cliques::CliqueScope::AllNodes);
    // Map G property ids into the saturated graph (same dictionary: G is
    // cloned by saturate, ids preserved).
    let source = check_side(&schema, &g_cliques.source_cliques, |p| {
        inf_cliques.source_clique_of(p)
    });
    let target = check_side(&schema, &g_cliques.target_cliques, |p| {
        inf_cliques.target_clique_of(p)
    });
    (source, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfsum_core::fixtures::{exid, figure10_graph, figure5_graph, sample_graph};

    #[test]
    fn saturated_clique_adds_generalizations() {
        let g = figure5_graph(); // b1 ≺sp b, b2 ≺sp b
        let schema = Schema::of(&g);
        let b1 = exid(&g, "b1");
        let b = exid(&g, "b");
        let cplus = saturated_clique(&schema, &[b1]);
        assert!(cplus.contains(&b1));
        assert!(cplus.contains(&b));
        assert_eq!(cplus.len(), 2);
    }

    #[test]
    fn figure5_source_cliques_fuse_through_b() {
        // G cliques: {a1,b1} (r1) and {b2,c} (r2); C⁺ adds b to both ⇒ fuse.
        let g = figure5_graph();
        let schema = Schema::of(&g);
        let cq = Cliques::compute(&g, rdfsum_core::cliques::CliqueScope::AllNodes);
        assert_eq!(cq.source_cliques.len(), 2);
        let fusion = fuse_cliques(&schema, &cq.source_cliques);
        assert_eq!(fusion.n_classes, 1, "both source cliques fuse in G∞");
    }

    #[test]
    fn figure10_three_sources_fuse() {
        let g = figure10_graph();
        let schema = Schema::of(&g);
        let cq = Cliques::compute(&g, rdfsum_core::cliques::CliqueScope::AllNodes);
        // Source cliques: {b}, {c}, {a1}, {a2} — wait: x1 has b; x2 has c;
        // r1, r2 have a1; r3 has a2. So {b}, {c}, {a1}, {a2}.
        assert_eq!(cq.source_cliques.len(), 4);
        let fusion = fuse_cliques(&schema, &cq.source_cliques);
        // a1 and a2 fuse through a; b and c stay alone.
        assert_eq!(fusion.n_classes, 3);
    }

    #[test]
    fn lemma1_on_fixtures() {
        for g in [
            sample_graph(),
            figure5_graph(),
            figure10_graph(),
            rdfsum_core::fixtures::figure8_graph(),
            rdfsum_core::fixtures::book_graph(),
        ] {
            let (src, tgt) = verify_lemma1(&g);
            assert!(src.holds(), "source-side Lemma 1 failed");
            assert!(tgt.holds(), "target-side Lemma 1 failed");
        }
    }

    #[test]
    fn no_schema_means_identity_fusion() {
        let g = sample_graph(); // no ≺sp
        let schema = Schema::of(&g);
        let cq = Cliques::compute(&g, rdfsum_core::cliques::CliqueScope::AllNodes);
        let fusion = fuse_cliques(&schema, &cq.source_cliques);
        assert_eq!(fusion.n_classes, cq.source_cliques.len());
    }
}
