//! Content fingerprints: a stable 128-bit digest of a graph's triples.
//!
//! The warm-store summary server caches summaries keyed by the *content*
//! of the loaded graph, so two loads of the same data — different files,
//! different triple order, different dictionary numbering — must produce
//! the same key. Dictionary ids depend on insertion order, so the digest
//! is computed from the **terms themselves**: every distinct triple
//! contributes one 128-bit value derived from its three terms' bytes, and
//! the per-triple values are folded with a commutative combiner (lane-wise
//! wrapping sums plus the triple count). Folding over the store's sorted,
//! deduplicated SPO index therefore yields the same digest as folding over
//! the same triples in any other order.
//!
//! Properties (pinned by the proptests in this crate):
//!
//! * **permutation invariance** — shuffling triple insertion order never
//!   changes the digest;
//! * **sensitivity** — adding, removing or mutating a single triple
//!   changes the digest except with probability ~2⁻⁶⁴ per lane;
//! * **load-path agreement** — a graph built from calls, parsed from
//!   N-Triples, or restored from a binary snapshot digests identically
//!   (minted terms hash as their rendered IRIs, matching how snapshots
//!   persist them).
//!
//! The hash is a fixed-key FNV-1a/SplitMix construction implemented in this
//! crate (the FNV-1a is [`crate::codec`]'s, the one the checksum trailers
//! use), **not** `std`'s `DefaultHasher`: the digest is a persistent cache key,
//! so it must not depend on an unspecified or per-process-seeded
//! algorithm.

use crate::codec::{fnv1a, FNV_OFFSET};
use crate::store::TripleStore;
use rdf_model::{Graph, LiteralKindRef, TermRef, Triple};
use std::fmt;

/// A 128-bit content digest of a triple multiset (duplicates ignored).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Fingerprint {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl Fingerprint {
    /// The digest as 32 lowercase hex digits (`hi` then `lo`).
    pub fn to_hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parses the [`Fingerprint::to_hex`] form.
    pub fn from_hex(s: &str) -> Option<Fingerprint> {
        if s.len() != 32 {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Fingerprint { hi, lo })
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// SplitMix64 finalizer: a fast, well-mixed bijection on `u64`.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Domain-separation tags per term shape. Field boundaries are hashed as
/// explicit `0xff` separators (no UTF-8 byte is `0xff`), so e.g. the
/// lang-literal `"ab"@c` can never collide with `"a"@bc`.
#[inline]
fn fnv_field(h: u64, bytes: &[u8]) -> u64 {
    fnv1a(fnv1a(h, bytes), &[0xff])
}

/// A stable 64-bit digest of one term's content.
///
/// Minted terms hash as their rendered `urn:rdfsummary:` IRI, identical to
/// a plain IRI of the same string — the identity snapshots and
/// serializations use.
pub fn term_digest(term: TermRef<'_>) -> u64 {
    let h = match term {
        // `as_iri` renders minted terms, so both IRI shapes share tag 1.
        TermRef::Iri(_) | TermRef::Minted(_) => fnv_field(
            fnv1a(FNV_OFFSET, &[1]),
            term.as_iri().expect("IRI term").as_bytes(),
        ),
        TermRef::Blank(label) => fnv_field(fnv1a(FNV_OFFSET, &[2]), label.as_bytes()),
        TermRef::Literal { lexical, kind } => {
            let h = match kind {
                LiteralKindRef::Simple => fnv1a(FNV_OFFSET, &[3]),
                LiteralKindRef::Lang(lang) => fnv_field(fnv1a(FNV_OFFSET, &[4]), lang.as_bytes()),
                LiteralKindRef::Typed(dt) => fnv_field(fnv1a(FNV_OFFSET, &[5]), dt.as_bytes()),
            };
            fnv_field(h, lexical.as_bytes())
        }
    };
    mix64(h)
}

/// The two accumulator lanes contributed by one triple, derived
/// *positionally* from its term digests (an s/o swap changes both lanes).
#[inline]
fn triple_lanes(s: u64, p: u64, o: u64) -> (u64, u64) {
    let base = mix64(s ^ mix64(p ^ mix64(o ^ 0x9e37_79b9_7f4a_7c15)));
    (base, mix64(base ^ 0xd1b5_4a32_d192_ed03))
}

/// Commutative accumulator over per-triple lane pairs.
#[derive(Default)]
struct Accumulator {
    sum_hi: u64,
    sum_lo: u64,
    count: u64,
}

impl Accumulator {
    #[inline]
    fn add(&mut self, lanes: (u64, u64)) {
        self.sum_hi = self.sum_hi.wrapping_add(lanes.0);
        self.sum_lo = self.sum_lo.wrapping_add(lanes.1);
        self.count += 1;
    }

    fn finish(self) -> Fingerprint {
        Fingerprint {
            hi: mix64(self.sum_hi ^ mix64(self.count ^ 0x5851_f42d_4c95_7f2d)),
            lo: mix64(self.sum_lo ^ mix64(self.count ^ 0x1405_7b7e_f767_814f)),
        }
    }
}

/// Per-term digests for every dictionary id of `g`, indexed by id.
///
/// Dictionary ids are dense, so one flat pass caches the string hashing;
/// each triple then costs three array reads and a few multiplies.
fn term_digest_table(g: &Graph) -> Vec<u64> {
    let mut table = vec![0u64; g.dict().len()];
    for (id, term) in g.dict().iter() {
        table[id.0 as usize] = term_digest(term);
    }
    table
}

/// Folds a sorted, **deduplicated** triple slice into a fingerprint.
pub(crate) fn fold_deduped(g: &Graph, triples: &[Triple]) -> Fingerprint {
    let table = term_digest_table(g);
    let mut acc = Accumulator::default();
    for t in triples {
        acc.add(triple_lanes(
            table[t.s.0 as usize],
            table[t.p.0 as usize],
            table[t.o.0 as usize],
        ));
    }
    acc.finish()
}

/// Incrementally maintained fingerprint state: the commutative lane sums
/// plus the per-term digest cache that makes a delta update three array
/// reads per triple.
///
/// The lane combiner is a pair of wrapping sums, so it has exact inverses:
/// a genuine insert `wrapping_add`s a triple's lanes, a genuine delete
/// `wrapping_sub`s them, and the running state always equals what a full
/// rescan of the current triples would produce (the
/// [`FingerprintState::matches_rescan`] oracle, debug-asserted after every
/// batch in [`TripleStore`]).
///
/// The digest cache is **owned by its store** — it lives and dies with the
/// one dictionary it indexes, so evicting a graph from a long-lived server
/// reclaims its digests with it; there is no process-global registry to
/// leak. Dictionary ids are append-only, so the cache only ever extends
/// ([`FingerprintState::sync_terms`]); it is dropped wholesale when the
/// caller takes raw mutable access to the graph.
#[derive(Clone, Debug)]
pub(crate) struct FingerprintState {
    /// Per-term digests, indexed by dense dictionary id.
    digests: Vec<u64>,
    sum_hi: u64,
    sum_lo: u64,
    count: u64,
}

impl FingerprintState {
    /// Full computation from a sorted, deduplicated triple slice — the
    /// one-time O(n) cost after which [`FingerprintState::finish`] is O(1).
    pub(crate) fn compute(g: &Graph, deduped: &[Triple]) -> Self {
        let digests = term_digest_table(g);
        let mut state = FingerprintState {
            digests,
            sum_hi: 0,
            sum_lo: 0,
            count: 0,
        };
        for &t in deduped {
            state.add(t);
        }
        state
    }

    /// Extends the digest cache to cover terms interned since the last
    /// sync. Ids are dense and append-only, so this hashes only new terms.
    pub(crate) fn sync_terms(&mut self, g: &Graph) {
        for i in self.digests.len()..g.dict().len() {
            self.digests.push(term_digest(
                g.dict().decode(rdf_model::TermId::from_index(i)),
            ));
        }
    }

    #[inline]
    fn lanes(&self, t: Triple) -> (u64, u64) {
        triple_lanes(
            self.digests[t.s.0 as usize],
            self.digests[t.p.0 as usize],
            self.digests[t.o.0 as usize],
        )
    }

    /// Folds one genuinely inserted triple in.
    #[inline]
    pub(crate) fn add(&mut self, t: Triple) {
        let (hi, lo) = self.lanes(t);
        self.sum_hi = self.sum_hi.wrapping_add(hi);
        self.sum_lo = self.sum_lo.wrapping_add(lo);
        self.count += 1;
    }

    /// Folds one genuinely removed triple out — the exact inverse of
    /// [`FingerprintState::add`], by commutativity of the lane sums.
    #[inline]
    pub(crate) fn sub(&mut self, t: Triple) {
        let (hi, lo) = self.lanes(t);
        self.sum_hi = self.sum_hi.wrapping_sub(hi);
        self.sum_lo = self.sum_lo.wrapping_sub(lo);
        self.count -= 1;
    }

    /// The fingerprint of the current state — O(1).
    pub(crate) fn finish(&self) -> Fingerprint {
        Fingerprint {
            hi: mix64(self.sum_hi ^ mix64(self.count ^ 0x5851_f42d_4c95_7f2d)),
            lo: mix64(self.sum_lo ^ mix64(self.count ^ 0x1405_7b7e_f767_814f)),
        }
    }

    /// Number of cached per-term digests (the eviction test seam).
    pub(crate) fn digest_cache_len(&self) -> usize {
        self.digests.len()
    }

    /// The full-rescan oracle: does the incremental state agree with a
    /// from-scratch fold over the store's current triples?
    pub(crate) fn matches_rescan(&self, g: &Graph, deduped: &[Triple]) -> bool {
        self.finish() == fold_deduped(g, deduped)
    }
}

/// The content fingerprint of a graph.
///
/// Duplicate triples (same s/p/o inserted twice) count once, matching
/// [`TripleStore::fingerprint`]'s fold over the deduplicated SPO index.
pub fn graph_fingerprint(g: &Graph) -> Fingerprint {
    let mut all: Vec<Triple> = g.iter().collect();
    all.sort_unstable();
    all.dedup();
    fold_deduped(g, &all)
}

impl TripleStore {
    /// The content fingerprint of the stored graph: the commutative
    /// [`graph_fingerprint`] fold applied to the sorted, deduplicated SPO
    /// index (already distinct, so no extra sort pass). Identical graph
    /// content yields an identical fingerprint regardless of load order,
    /// load path, or dictionary numbering.
    ///
    /// The first call pays the O(n) fold and caches the incremental
    /// [`FingerprintState`]; afterwards this is O(1), and the batch
    /// mutation APIs ([`TripleStore::insert_batch`] /
    /// [`TripleStore::delete_batch`]) keep the state fresh in O(delta).
    pub fn fingerprint(&self) -> Fingerprint {
        let mut slot = self.fingerprint_state().lock().unwrap();
        if slot.is_none() {
            *slot = Some(FingerprintState::compute(
                self.graph(),
                self.spo().as_slice(),
            ));
        }
        slot.as_ref().expect("just populated").finish()
    }

    /// Number of per-term digests currently cached by the incremental
    /// fingerprint state (0 when the state is cold). The cache is owned by
    /// this store and dropped with it — the test seam for the
    /// no-leak-on-evict property.
    pub fn digest_cache_len(&self) -> usize {
        self.fingerprint_state()
            .lock()
            .unwrap()
            .as_ref()
            .map_or(0, FingerprintState::digest_cache_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Term;

    fn g1() -> Graph {
        let mut g = Graph::new();
        g.add_iri_triple("http://x/a", "http://x/p", "http://x/b");
        g.add_iri_triple("http://x/b", "http://x/q", "http://x/c");
        g.add_literal_triple("http://x/a", "http://x/name", "alice");
        g
    }

    #[test]
    fn store_and_graph_folds_agree() {
        let g = g1();
        assert_eq!(
            graph_fingerprint(&g),
            TripleStore::new(g.clone()).fingerprint()
        );
    }

    #[test]
    fn insertion_order_is_irrelevant() {
        let mut g2 = Graph::new();
        g2.add_literal_triple("http://x/a", "http://x/name", "alice");
        g2.add_iri_triple("http://x/b", "http://x/q", "http://x/c");
        g2.add_iri_triple("http://x/a", "http://x/p", "http://x/b");
        assert_eq!(graph_fingerprint(&g1()), graph_fingerprint(&g2));
    }

    #[test]
    fn duplicates_count_once() {
        let mut g2 = g1();
        g2.add_iri_triple("http://x/a", "http://x/p", "http://x/b");
        assert_eq!(graph_fingerprint(&g1()), graph_fingerprint(&g2));
        assert_eq!(
            TripleStore::new(g2.clone()).fingerprint(),
            graph_fingerprint(&g2)
        );
    }

    #[test]
    fn any_single_edit_changes_the_digest() {
        let base = graph_fingerprint(&g1());
        // Add.
        let mut g = g1();
        g.add_iri_triple("http://x/c", "http://x/p", "http://x/a");
        assert_ne!(graph_fingerprint(&g), base);
        // Remove (rebuild without one triple).
        let mut g = Graph::new();
        g.add_iri_triple("http://x/a", "http://x/p", "http://x/b");
        g.add_iri_triple("http://x/b", "http://x/q", "http://x/c");
        assert_ne!(graph_fingerprint(&g), base);
        // Mutate one term.
        let mut g = Graph::new();
        g.add_iri_triple("http://x/a", "http://x/p", "http://x/B");
        g.add_iri_triple("http://x/b", "http://x/q", "http://x/c");
        g.add_literal_triple("http://x/a", "http://x/name", "alice");
        assert_ne!(graph_fingerprint(&g), base);
    }

    #[test]
    fn subject_object_swap_changes_the_digest() {
        let mut a = Graph::new();
        a.add_iri_triple("http://x/a", "http://x/p", "http://x/b");
        let mut b = Graph::new();
        b.add_iri_triple("http://x/b", "http://x/p", "http://x/a");
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&b));
    }

    #[test]
    fn literal_shapes_are_domain_separated() {
        // Same lexical content under different literal kinds must differ,
        // and shifting bytes across a field boundary must differ.
        let terms = [
            Term::literal("en"),
            Term::lang_literal("", "en"),
            Term::typed_literal("", "en"),
            Term::lang_literal("e", "n"),
            Term::iri("en"),
            Term::blank("en"),
        ];
        let mut digests: Vec<u64> = terms.iter().map(|t| term_digest(t.as_term_ref())).collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), terms.len());
    }

    #[test]
    fn hex_roundtrip() {
        let fp = graph_fingerprint(&g1());
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(Fingerprint::from_hex(&hex), Some(fp));
        assert_eq!(fp.to_string(), hex);
        assert_eq!(Fingerprint::from_hex("xyz"), None);
        assert_eq!(Fingerprint::from_hex(&hex[..31]), None);
    }

    #[test]
    fn empty_graph_has_a_stable_digest() {
        let a = graph_fingerprint(&Graph::new());
        let b = TripleStore::new(Graph::new()).fingerprint();
        assert_eq!(a, b);
        assert_ne!(a, graph_fingerprint(&g1()));
    }
}
