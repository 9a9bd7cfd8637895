//! The one decision about parallelism, the row-range split the extent
//! table's fill and sort share, and the run merge the parallel quotient
//! emission reduces with.
//!
//! The paper's future work: "improving scalability by leveraging a
//! massively parallel platform such as Spark". The substrate is not where
//! that pays: it is one resumable pass on the calling thread
//! ([`crate::context::Substrate::absorb`]), which beat its two-shard
//! predecessor 4.5× and which an `UPDATE` extends instead of repeating.
//! The stages past it — the quotient's packed emission over D_G, the
//! summary's extent table — are embarrassingly parallel in their scans and
//! cheap to combine, but thread spawns and per-worker buffers have a fixed
//! cost. One floor decides whether a build pays it: [`shard_count`] turns
//! a requested worker count and a graph size into the count a
//! [`crate::context::SummaryContext`] carries
//! ([`PARALLEL_SHARD_THRESHOLD`]), and both stages run on exactly that
//! many workers, with bit-identical results at any count.
//! [`merge_dedup_runs`] is the reduction of the per-chunk sorted runs the
//! packed emission produces.

/// Below this many data triples every stage of a context runs on one
/// worker: the per-stage thread spawns and per-worker buffers cost more
/// than the split scans save. Measured against per-stage thresholds below
/// it (CHANGES.md, PR 17): all-sequential won every kind at every size at
/// which one of those thresholds fired.
pub const PARALLEL_SHARD_THRESHOLD: usize = 65_536;

/// The worker count a context for a graph with `n_data_triples` runs its
/// stages on when `requested` workers are asked for: `1` below
/// [`PARALLEL_SHARD_THRESHOLD`], otherwise the request clamped to the
/// 256-worker cap of the extent fill's row → worker table. The request is
/// honored beyond the machine's core count — callers pass what the user
/// asked for (`--threads N`, default: available cores). This is the only
/// function that turns a request and a size into a worker count.
pub fn shard_count(n_data_triples: usize, requested: usize) -> usize {
    if n_data_triples < PARALLEL_SHARD_THRESHOLD {
        1
    } else {
        requested.clamp(1, 256)
    }
}

/// Splits the rows of a CSR `offsets` table (`rows + 1` entries) into at
/// most `workers` contiguous ranges balanced by entry count: range `w` is
/// rows `bounds[w]..bounds[w + 1]` and therefore the contiguous value
/// slots `offsets[bounds[w]]..offsets[bounds[w + 1]]`, so per-range
/// `&mut` slices are disjoint splits. There is at least one range and
/// never more than there are rows; the ranges a stage gets are how many
/// workers it runs on (`bounds.len() - 1`), and a stage handed a single
/// range runs it on the calling thread.
pub(crate) fn row_bounds(offsets: &[u32], workers: usize) -> Vec<usize> {
    let n = offsets.len().saturating_sub(1);
    let workers = workers.clamp(1, n.max(1));
    let total = offsets.last().map_or(0, |&t| t as usize);
    let mut bounds = vec![0usize; workers + 1];
    bounds[workers] = n;
    for w in 1..workers {
        let target = (total * w / workers) as u32;
        bounds[w] = offsets
            .partition_point(|&o| o < target)
            .clamp(bounds[w - 1], n);
    }
    bounds
}

/// Reduces sorted, deduplicated runs to one by pairwise merge-dedup
/// rounds, merging the pairs of each round on their own threads. Pairing
/// is positional — (0,1), (2,3), … with an odd tail carried — and the
/// result is order-independent anyway (merging is commutative on sets).
/// Dedup inside every merge keeps intermediate runs minimal; the final
/// run equals sorting and deduplicating the concatenation of all inputs.
/// Single-pair rounds skip the spawn.
pub fn merge_dedup_runs(mut runs: Vec<Vec<u64>>) -> Vec<u64> {
    while runs.len() > 2 {
        enum Slot<'s> {
            Merged(std::thread::ScopedJoinHandle<'s, Vec<u64>>),
            Carried(Vec<u64>),
        }
        runs = std::thread::scope(|scope| {
            let mut slots: Vec<Slot<'_>> = Vec::with_capacity(runs.len().div_ceil(2));
            let mut iter = runs.drain(..);
            while let Some(a) = iter.next() {
                match iter.next() {
                    Some(b) => slots.push(Slot::Merged(scope.spawn(move || merge_dedup(&a, &b)))),
                    None => slots.push(Slot::Carried(a)),
                }
            }
            drop(iter);
            slots
                .into_iter()
                .map(|s| match s {
                    Slot::Merged(h) => h.join().unwrap(),
                    Slot::Carried(r) => r,
                })
                .collect()
        });
    }
    // Final pair: one merge, nothing to overlap with — skip the spawn.
    if runs.len() == 2 {
        let b = runs.pop().unwrap();
        let a = runs.pop().unwrap();
        return merge_dedup(&a, &b);
    }
    runs.pop().unwrap_or_default()
}

/// Merges two sorted, deduplicated runs into one, dropping duplicates.
fn merge_dedup(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cliques::{CliqueScope, Cliques};
    use crate::context::SummaryContext;
    use crate::fixtures::sample_graph;
    use rdf_io::write_graph;
    use rdf_model::Graph;

    fn canonical(g: &Graph) -> Vec<String> {
        let mut v: Vec<String> = write_graph(g).lines().map(String::from).collect();
        v.sort();
        v
    }

    // The next two tests and `more_threads_than_triples` pinned the
    // standalone parallel clique scan and weak builder; they now pin a
    // forced-count context — parallel emission and extent table over the
    // one substrate scan — against `Cliques::compute` and the one-worker
    // `weak_summary`.

    #[test]
    fn parallel_weak_equals_sequential_weak() {
        let g = sample_graph();
        for threads in [1, 2, 4] {
            let par = SummaryContext::sharded_forced(&g, threads).weak_summary();
            let seq = crate::weak::weak_summary(&g);
            assert_eq!(canonical(&par.graph), canonical(&seq.graph));
        }
    }

    #[test]
    fn untyped_scope_parallel() {
        let g = sample_graph();
        let ctx = SummaryContext::sharded_forced(&g, 3);
        let par = ctx.cliques(CliqueScope::UntypedOnly);
        let seq = Cliques::compute(&g, CliqueScope::UntypedOnly);
        assert_eq!(par.source_cliques, seq.source_cliques);
        assert_eq!(par.target_cliques, seq.target_cliques);
    }

    /// `merge_dedup_runs` equals sorting + deduplicating the concatenation
    /// of its inputs, for empty runs, odd run counts, and deep rounds.
    #[test]
    fn merge_dedup_runs_matches_flat_sort() {
        let mut rng = rdf_model::SplitMix64::new(0xA11);
        for case in 0..24 {
            let n_runs = case % 9;
            let runs: Vec<Vec<u64>> = (0..n_runs)
                .map(|_| {
                    let mut r: Vec<u64> =
                        (0..rng.index(30)).map(|_| rng.index(50) as u64).collect();
                    r.sort_unstable();
                    r.dedup();
                    r
                })
                .collect();
            let mut expect: Vec<u64> = runs.iter().flatten().copied().collect();
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(merge_dedup_runs(runs), expect, "case {case}");
        }
    }

    /// Ranges tile the rows in order and are never more than the rows;
    /// each cut is the first row boundary at or past an equal share of the
    /// entries.
    #[test]
    fn row_bounds_tile_the_rows_by_entry_count() {
        let offsets = [0u32, 4, 4, 5, 8, 8, 12];
        assert_eq!(row_bounds(&offsets, 1), [0, 6]);
        assert_eq!(row_bounds(&offsets, 2), [0, 4, 6]);
        assert_eq!(row_bounds(&offsets, 3), [0, 1, 4, 6]);
        let many = row_bounds(&offsets, 64);
        assert_eq!(many.len(), 7);
        assert!(many.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!((many[0], many[6]), (0, 6));
        // No rows: one empty range, whatever was asked for.
        assert_eq!(row_bounds(&[0], 4), [0, 0]);
        assert_eq!(row_bounds(&[], 4), [0, 0]);
    }

    /// The one decision: one worker below the floor, the explicit request
    /// (clamped to the worker-table cap) above it.
    #[test]
    fn shard_count_policy() {
        assert_eq!(shard_count(PARALLEL_SHARD_THRESHOLD - 1, 8), 1);
        assert_eq!(shard_count(100, 999), 1);
        assert_eq!(shard_count(PARALLEL_SHARD_THRESHOLD, 8), 8);
        assert_eq!(shard_count(PARALLEL_SHARD_THRESHOLD, 0), 1);
        assert_eq!(shard_count(1 << 20, 999), 256);
    }

    #[test]
    fn more_threads_than_triples() {
        let mut g = Graph::new();
        g.add_iri_triple("a", "p", "b");
        let ctx = SummaryContext::sharded_forced(&g, 64);
        assert_eq!(ctx.weak_summary().graph.data().len(), 1);
        assert_eq!(ctx.cliques(CliqueScope::AllNodes).source_cliques.len(), 1);
    }
}
