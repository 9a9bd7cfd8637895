//! Bisimulation-based summaries — the related-work baseline (§8).
//!
//! The paper contrasts its clique-based quotients with bisimulation
//! approaches (citations \[14\] ExpLOD and \[19\] Tran et al.): "the main problem with
//! bisimulation is that as the size of the neighborhood increases, the
//! size of bisimulation grows exponentially and can be as large as the
//! input graph." To make that comparison *measurable* here, this module
//! implements forward–backward bisimulation quotient summaries with
//! bounded depth `k` (and `k = ∞`, the full bisimulation), using the same
//! quotient machinery as the paper's summaries.
//!
//! Two data nodes are depth-0 equivalent iff they have the same class set;
//! depth-(i+1) equivalent iff additionally their labeled in- and
//! out-neighborhoods are equivalent at depth i (as *sets* of
//! (property, neighbor-class) pairs — set, not multiset, matching
//! structural-index practice). Colors are computed by hashed refinement.
//!
//! `baselines` in `rdfsum-bench` prints the size comparison on BSBM data;
//! EXPERIMENTS.md records the blow-up.

use crate::equivalence::{class_sets, data_nodes_ordered, Partition};
use crate::naming::SUMMARY_NS;
use crate::quotient::{quotient_summary_planned, DataPlan};
use crate::summary::{Summary, SummaryKind};
use rdf_model::{FxHashMap, Graph, TermId};
use std::hash::{BuildHasher, Hash};

/// Bisimulation depth: a bounded number of refinement rounds, or the full
/// (fixpoint) bisimulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BisimDepth {
    /// Exactly `k` refinement rounds.
    Bounded(usize),
    /// Refine until the partition stabilizes.
    Full,
}

fn hash_of<T: Hash>(v: &T) -> u64 {
    rdf_model::FxBuildHasher::default().hash_one(v)
}

/// Computes the bisimulation partition of `g`'s data nodes.
pub fn bisim_partition(g: &Graph, depth: BisimDepth) -> Partition {
    let nodes = data_nodes_ordered(g);
    let index: FxHashMap<TermId, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let sets = class_sets(g);

    // Adjacency over data nodes (data triples only; types are in color 0).
    let mut out_adj: Vec<Vec<(TermId, usize)>> = vec![Vec::new(); nodes.len()];
    let mut in_adj: Vec<Vec<(TermId, usize)>> = vec![Vec::new(); nodes.len()];
    for t in g.data() {
        let si = index[&t.s];
        let oi = index[&t.o];
        out_adj[si].push((t.p, oi));
        in_adj[oi].push((t.p, si));
    }

    // Color 0: class set (hashed) or the untyped marker.
    let mut colors: Vec<u64> = nodes
        .iter()
        .map(|n| match sets.get(n) {
            Some(cs) => hash_of(&(1u8, cs)),
            None => hash_of(&0u8),
        })
        .collect();

    let max_rounds = match depth {
        BisimDepth::Bounded(k) => k,
        BisimDepth::Full => nodes.len(),
    };
    let mut distinct = {
        let mut v = colors.clone();
        v.sort_unstable();
        v.dedup();
        v.len()
    };
    for _ in 0..max_rounds {
        let mut next = Vec::with_capacity(colors.len());
        for i in 0..nodes.len() {
            let mut fwd: Vec<(TermId, u64)> =
                out_adj[i].iter().map(|&(p, j)| (p, colors[j])).collect();
            let mut bwd: Vec<(TermId, u64)> =
                in_adj[i].iter().map(|&(p, j)| (p, colors[j])).collect();
            fwd.sort_unstable();
            fwd.dedup();
            bwd.sort_unstable();
            bwd.dedup();
            next.push(hash_of(&(colors[i], fwd, bwd)));
        }
        colors = next;
        let now_distinct = {
            let mut v = colors.clone();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        if matches!(depth, BisimDepth::Full) && now_distinct == distinct {
            break; // stable — full bisimulation reached
        }
        distinct = now_distinct;
    }

    Partition::group_by(&nodes, |n| colors[index[&n]])
}

/// Builds the bisimulation quotient summary of `g`.
pub fn bisim_summary(g: &Graph, depth: BisimDepth) -> Summary {
    let partition = bisim_partition(g, depth);
    let tag = match depth {
        BisimDepth::Bounded(k) => k.to_string(),
        BisimDepth::Full => "full".to_string(),
    };
    // Name nodes by their (stable, content-derived) color via the first
    // member's class, padded with a dense index for readability.
    quotient_summary_planned(
        g,
        SummaryKind::Bisimulation,
        &partition,
        |i, _| rdf_model::Term::iri(format!("{SUMMARY_NS}bisim?k={tag}&c={i}")),
        DataPlan::Scan,
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{exid, sample_graph};
    use crate::quotient::verify_quotient;

    #[test]
    fn depth0_groups_by_class_set() {
        let g = sample_graph();
        let p = bisim_partition(&g, BisimDepth::Bounded(0));
        // Same classes as ≡T except untyped nodes merge by "untyped".
        assert_eq!(p.class_of(exid(&g, "r5")), p.class_of(exid(&g, "r6")));
        assert_eq!(
            p.class_of(exid(&g, "t1")),
            p.class_of(exid(&g, "a2")),
            "all untyped nodes share depth-0 color"
        );
        assert_ne!(p.class_of(exid(&g, "r1")), p.class_of(exid(&g, "r2")));
    }

    #[test]
    fn deeper_is_finer() {
        let g = sample_graph();
        let mut last = 0;
        for k in 0..4 {
            let p = bisim_partition(&g, BisimDepth::Bounded(k));
            assert!(
                p.len() >= last,
                "partition got coarser at depth {k}: {} < {last}",
                p.len()
            );
            last = p.len();
        }
    }

    #[test]
    fn refinement_is_nested() {
        // Every depth-(k+1) class sits inside one depth-k class.
        let g = sample_graph();
        for k in 0..3 {
            let coarse = bisim_partition(&g, BisimDepth::Bounded(k));
            let fine = bisim_partition(&g, BisimDepth::Bounded(k + 1));
            for class in &fine.classes {
                let c0 = coarse.class_of(class[0]);
                assert!(class.iter().all(|&n| coarse.class_of(n) == c0));
            }
        }
    }

    #[test]
    fn full_bisim_is_a_fixpoint_of_refinement() {
        let g = sample_graph();
        let full = bisim_partition(&g, BisimDepth::Full);
        let more = bisim_partition(&g, BisimDepth::Bounded(16));
        assert_eq!(full.len(), more.len());
    }

    #[test]
    fn quotient_is_well_formed() {
        let g = sample_graph();
        for depth in [
            BisimDepth::Bounded(1),
            BisimDepth::Bounded(2),
            BisimDepth::Full,
        ] {
            let s = bisim_summary(&g, depth);
            assert!(verify_quotient(&g, &s));
            assert!(s.check_correspondence_invariants());
        }
    }

    #[test]
    fn bisim_blows_up_relative_to_weak() {
        // The §8 claim, on a heterogeneous graph: bisimulation keeps far
        // more nodes than the weak summary.
        let g = rdfsum_workloads::generate_bsbm(&rdfsum_workloads::BsbmConfig::with_products(40));
        let w = crate::weak::weak_summary(&g);
        let b = bisim_summary(&g, BisimDepth::Bounded(2));
        assert!(
            b.n_summary_nodes() > 10 * w.n_summary_nodes(),
            "bisim {} vs weak {}",
            b.n_summary_nodes(),
            w.n_summary_nodes()
        );
    }

    #[test]
    fn chain_nodes_split_by_position() {
        // On a directed chain, full bisimulation distinguishes nodes by
        // their distance to the ends — the classic blow-up.
        let g = rdfsum_workloads::chain(8);
        let full = bisim_partition(&g, BisimDepth::Full);
        assert_eq!(full.len(), 9, "every chain node is its own class");
        let w = crate::weak::weak_summary(&g);
        assert!(w.n_summary_nodes() < 9);
    }
}
