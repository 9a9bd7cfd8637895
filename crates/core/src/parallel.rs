//! The thread policy of the dense substrate, and the sort/merge helpers
//! it calls.
//!
//! The paper's future work: "improving scalability by leveraging a
//! massively parallel platform such as Spark". Every stage of
//! [`crate::context::SummaryContext`] and of the quotient is
//! embarrassingly parallel in its scan and cheap to combine, but thread
//! spawning and per-worker tables have a fixed cost, so each stage goes
//! parallel only above a measured threshold and runs the sequential code
//! below it, with bit-identical results either way: the clique sweep
//! ([`PARALLEL_CLIQUE_THRESHOLD`]), the sharded substrate build
//! ([`PARALLEL_SHARD_THRESHOLD`] / [`shard_count`]), the chunked CSR
//! adjacency fill ([`PARALLEL_CSR_THRESHOLD`]), the class-set scan
//! ([`PARALLEL_CLASS_THRESHOLD`]), and the quotient's packed-triple
//! emission and sort-dedup ([`PARALLEL_EMIT_THRESHOLD`],
//! [`sort_dedup_packed`], gated on [`PARALLEL_SORT_THRESHOLD`]). Worker
//! counts come from [`substrate_threads`].

/// Below this many data triples, the row-range clique sweep's fixed costs
/// (thread spawn + per-worker union–finds + merge) outweigh the split
/// scan, and [`crate::context::SummaryContext::cliques`] sweeps
/// sequentially instead. Measured on BSBM scales (CHANGES.md, PR 2): two
/// workers start beating the sequential scan at roughly this size and win
/// consistently above it (e.g. ~375 µs vs ~480 µs at BSBM-30k's 25 k data
/// triples).
pub const PARALLEL_CLIQUE_THRESHOLD: usize = 8_192;

/// Sizes the worker count above a threshold: [`substrate_threads`] grants
/// 2 workers plus one more per this many work items. The combine steps
/// cost `O(workers × dictionary size)`, so worker counts must grow much
/// more slowly than the scans: at every measured scale up to ~170 k
/// triples, 2 workers beat 4 and 8.
const TRIPLES_PER_EXTRA_WORKER: usize = 65_536;

/// Below this many data triples, the shard-parallel substrate build of
/// [`crate::context::SummaryContext::sharded`] is not worth its fixed
/// costs — per-shard `DenseIdMap` slot tables (`O(dictionary)` each) plus
/// the absorb/remap merge pass — and the build runs the sequential
/// single-shard path instead. Chosen to match the CSR fill's break-even:
/// the sharded build subsumes the chunked fill, so below the fill's
/// threshold there is nothing left for shards to win.
pub const PARALLEL_SHARD_THRESHOLD: usize = 65_536;

/// The shard count [`crate::context::SummaryContext::sharded`] actually
/// uses for a graph with `n_data_triples` when `requested` shards are
/// asked for: `1` (the sequential single-shard special case) below
/// [`PARALLEL_SHARD_THRESHOLD`], otherwise the request clamped to the
/// 256-worker cap shared with the CSR fill. Unlike [`substrate_threads`]
/// this honors explicit requests beyond the machine's core count — the
/// CLI routes a user's `--threads N` through here, and the auto default
/// (available cores) keeps 1-CPU hosts on the sequential path.
pub fn shard_count(n_data_triples: usize, requested: usize) -> usize {
    if n_data_triples < PARALLEL_SHARD_THRESHOLD {
        1
    } else {
        requested.clamp(1, 256)
    }
}

/// Whether a build of `g` on `threads` workers goes through the sharded
/// substrate ([`crate::context::SummaryContext::sharded`]) rather than
/// the lean single-summary builders ([`crate::builder::summarize`]). The
/// CLI's `summarize --kind`, the service's cache-miss builds and its
/// `UPDATE` patch regime all ask here — that is what keeps served bytes,
/// and which batches may patch, in step with the CLI. It answers without
/// building anything because `UPDATE` asks while it holds the graph
/// exclusively.
pub fn builds_sharded(g: &rdf_model::Graph, threads: usize) -> bool {
    shard_count(g.data().len(), threads) > 1
}

/// Below this many CSR entries (one per data triple and direction), the
/// chunked parallel adjacency fill of
/// [`crate::context::SummaryContext::new`] loses to the single-threaded
/// cursor sweep: the parallel path pays the row-range bucketing pass and
/// `2 × workers` thread spawns, each worth thousands of plain cursor
/// writes. Measured on BSBM scales (CHANGES.md, PR 3), where the 30k
/// scale's ~25 k entries sit comfortably below break-even.
pub const PARALLEL_CSR_THRESHOLD: usize = 65_536;

/// Below this many packed quotient keys, `sort_unstable` + `dedup` on one
/// thread beats the chunked sort-merge (the merge pass plus a thread
/// spawn cost more than the saved sorting). Measured with the
/// `quotient_h_graph` bench on BSBM scales.
pub const PARALLEL_SORT_THRESHOLD: usize = 16_384;

/// Below this many input triples, the quotient's shard-range packed-key
/// *emission* (translate + pack per chunk, local sort-dedup, pairwise
/// merge) runs fused and sequential instead: the parallel path pays a
/// sequential dictionary-transfer pre-pass over the triples plus the
/// thread spawns, each worth tens of thousands of packed-key pushes.
/// Sharded contexts force their shard count through the emission
/// regardless of size (the shard count itself is already threshold-gated),
/// which is how the forced-shard suites cover the parallel path on
/// fixture-sized graphs.
pub const PARALLEL_EMIT_THRESHOLD: usize = 65_536;

/// Below this many type triples, the class-set accumulation of
/// [`crate::context::SummaryContext::class_sets`] runs sequentially: the
/// chunked scan pays one `O(dictionary)` slot table per worker plus the
/// chunk-order merge, each worth tens of thousands of plain slot writes,
/// while the scan itself is a single cache-friendly sweep over T_G.
/// BSBM's type density (~1 type triple per 10 data triples) keeps every
/// bundled scale below this; the threshold matches the CSR fill's
/// break-even, which has the same per-worker-table cost shape.
pub const PARALLEL_CLASS_THRESHOLD: usize = 65_536;

/// The worker count the substrate stages (CSR fill, packed sort, quotient
/// emission) use for `n` work items with the given threshold: `1` below
/// it; otherwise 2 workers plus one more per [`TRIPLES_PER_EXTRA_WORKER`]
/// items, capped at the worker-pool ceiling ([`available_workers`]:
/// `RDFSUM_THREADS` or the machine's available parallelism) — the
/// substrate stages are pure throughput splits with no algorithmic win
/// from oversubscription, so a single-core host always runs them
/// sequentially.
pub fn substrate_threads(n: usize, threshold: usize) -> usize {
    if n < threshold {
        1
    } else {
        // The CSR fill's row → worker table is u8-indexed; 256 workers is
        // far past any measured scaling win anyway.
        (2 + n / TRIPLES_PER_EXTRA_WORKER)
            .min(available_workers())
            .clamp(1, 256)
    }
}

/// The worker-pool ceiling the auto-selected substrate stages respect:
/// `RDFSUM_THREADS` when set to a positive integer, otherwise the
/// machine's available parallelism. The override exists so the CI thread
/// matrix can pin the pool (to 1 and 4) and stop single-core hosts from
/// hiding multi-thread merge bugs — and so oversubscribed shared hosts
/// can be told the truth about their spare cores. Read once and cached:
/// the stages consult it on every build, and a mid-run flip would let two
/// halves of one build disagree about worker counts.
pub(crate) fn available_workers() -> usize {
    use std::sync::OnceLock;
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::env::var("RDFSUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(2, usize::from))
    })
}

/// Sorts and deduplicates the quotient's packed triple keys, splitting
/// into per-thread chunk sorts followed by pairwise merge-dedup rounds
/// when the key count clears [`PARALLEL_SORT_THRESHOLD`]. The result is
/// exactly `keys.sort_unstable(); keys.dedup()` either way.
pub fn sort_dedup_packed(keys: &mut Vec<u64>) {
    sort_dedup_packed_forced(keys, substrate_threads(keys.len(), PARALLEL_SORT_THRESHOLD));
}

/// [`sort_dedup_packed`] with an explicit worker count — for tests and
/// crossover measurements (the auto path only goes parallel when the key
/// count clears the threshold *and* the machine has spare cores).
pub fn sort_dedup_packed_forced(keys: &mut Vec<u64>, threads: usize) {
    if threads <= 1 || keys.len() < 2 {
        keys.sort_unstable();
        keys.dedup();
        return;
    }
    let chunk_size = keys.len().div_ceil(threads).max(1);
    let runs: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = keys
            .chunks(chunk_size)
            .map(|chunk| {
                scope.spawn(move || {
                    let mut run = chunk.to_vec();
                    run.sort_unstable();
                    run.dedup();
                    run
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    *keys = merge_dedup_runs(runs);
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
    // standalone parallel clique scan and weak builder; they now pin the
    // one parallel sweep there is — a sharded context's — against the same
    // independent oracles (`Cliques::compute`'s triple scan, the free
    // `weak_summary`).

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

    /// The chunked sort-merge equals `sort_unstable` + `dedup` exactly,
    /// for every worker count and duplicate-heavy inputs.
    #[test]
    fn forced_parallel_sort_dedup_matches_sequential() {
        let mut rng = rdf_model::SplitMix64::new(0x50D);
        for case in 0..32 {
            let len = case * 11;
            let keys: Vec<u64> = (0..len).map(|_| rng.index(40) as u64).collect();
            let mut expect = keys.clone();
            expect.sort_unstable();
            expect.dedup();
            for threads in [1, 2, 3, 7] {
                let mut got = keys.clone();
                sort_dedup_packed_forced(&mut got, threads);
                assert_eq!(got, expect, "case {case}, {threads} threads");
            }
        }
    }

    /// The substrate stages refuse to go parallel below their threshold or
    /// beyond the machine's spare cores, and scale workers slowly above.
    #[test]
    fn substrate_thread_selection() {
        assert_eq!(substrate_threads(0, PARALLEL_SORT_THRESHOLD), 1);
        assert_eq!(
            substrate_threads(PARALLEL_SORT_THRESHOLD - 1, PARALLEL_SORT_THRESHOLD),
            1
        );
        // The ceiling is env-aware (`RDFSUM_THREADS` — the CI thread
        // matrix pins it), so compare against the resolved pool, not raw
        // `available_parallelism`.
        let avail = available_workers();
        let t = substrate_threads(PARALLEL_SORT_THRESHOLD, PARALLEL_SORT_THRESHOLD);
        assert!(t >= 1 && t <= avail.max(1));
        let big = substrate_threads(10 * TRIPLES_PER_EXTRA_WORKER, PARALLEL_CSR_THRESHOLD);
        assert!(big <= avail.max(1));
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

    /// The sharded-build policy: sequential below the threshold, the
    /// explicit request (clamped to the worker-table cap) above it.
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
