//! Order statistics: percentiles, the `{n, median, q1, q3}` summary every
//! reported metric carries, and the median-of-slices rule that keeps one
//! noisy-neighbour burst from moving a windowed metric.

/// The `p`-quantile (`0.0..=1.0`) of an ascending slice, linearly
/// interpolated between the two nearest ranks. Empty input reads 0.
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The `p`-quantile of unsorted values.
pub(crate) fn quantile(values: &[f64], p: f64) -> f64 {
    percentile(&sorted(values), p)
}

pub(crate) fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// What is reported for every metric: the sample count, the median (the
/// metric's value) and the quartiles.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct Dist {
    pub(crate) n: usize,
    pub(crate) median: f64,
    pub(crate) q1: f64,
    pub(crate) q3: f64,
}

impl Dist {
    pub(crate) fn of(values: &[f64]) -> Dist {
        let v = sorted(values);
        Dist {
            n: v.len(),
            median: percentile(&v, 0.5),
            q1: percentile(&v, 0.25),
            q3: percentile(&v, 0.75),
        }
    }

    /// A single exact reading (a count, a ratio, a byte figure).
    pub(crate) fn exact(value: f64) -> Dist {
        Dist {
            n: 1,
            median: value,
            q1: value,
            q3: value,
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub(crate) fn iqr_frac(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// One completed operation inside a timed window: when it completed
/// (seconds since the window opened) and what it measured.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Sample {
    pub(crate) at_s: f64,
    pub(crate) value: f64,
}

/// The slice of `[0, window_s)` a completion time falls in; `None` outside
/// the window.
fn slice_of(at_s: f64, window_s: f64, slices: usize) -> Option<usize> {
    (at_s >= 0.0 && at_s < window_s)
        .then(|| (((at_s / window_s) * slices as f64) as usize).min(slices - 1))
}

/// Cuts `[0, window_s)` into `slices` equal parts and applies `stat` to
/// the values that completed in each; slices with no sample are skipped.
/// The metric is then the median of the returned per-slice figures.
pub(crate) fn per_slice(
    samples: &[Sample],
    window_s: f64,
    slices: usize,
    stat: impl Fn(&[f64]) -> f64,
) -> Vec<f64> {
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for s in samples {
        if let Some(i) = slice_of(s.at_s, window_s, slices) {
            buckets[i].push(s.value);
        }
    }
    buckets
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| stat(b))
        .collect()
}

/// Completions per second in each slice (empty slices count as 0/s: a
/// stalled server must pull the median down, not vanish from it).
pub(crate) fn slice_rates(samples: &[Sample], window_s: f64, slices: usize) -> Vec<f64> {
    let mut counts = vec![0usize; slices];
    for s in samples {
        if let Some(i) = slice_of(s.at_s, window_s, slices) {
            counts[i] += 1;
        }
    }
    let slice_s = window_s / slices as f64;
    counts.iter().map(|&c| c as f64 / slice_s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert!((percentile(&v, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // Out-of-range p clamps instead of indexing out of bounds.
        assert_eq!(percentile(&v, 1.5), 4.0);
    }

    #[test]
    fn dist_reports_median_and_quartiles_of_unsorted_input() {
        let d = Dist::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((d.n, d.median, d.q1, d.q3), (5, 3.0, 2.0, 4.0));
        assert!((d.iqr_frac() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(Dist::exact(0.0).iqr_frac(), 0.0);
    }

    #[test]
    fn median_of_slices_ignores_one_burst() {
        // Ten slices of 1 s; 100 completions/s everywhere except a stall
        // in slice 3 (10 completions). The mean would read 91/s; the
        // median of slices still reads 100/s.
        let mut samples = Vec::new();
        for slice in 0..10 {
            let n = if slice == 3 { 10 } else { 100 };
            for k in 0..n {
                samples.push(Sample {
                    at_s: slice as f64 + k as f64 / n as f64,
                    value: 1.0,
                });
            }
        }
        let rates = slice_rates(&samples, 10.0, 10);
        assert_eq!(rates.len(), 10);
        assert_eq!(rates[3], 10.0);
        assert_eq!(median(&rates), 100.0);
    }

    #[test]
    fn per_slice_applies_the_statistic_inside_each_slice() {
        let samples: Vec<Sample> = (0..40)
            .map(|i| Sample {
                at_s: i as f64 * 0.1,
                // Slice 2 (2.0..3.0 s) is ten times slower.
                value: if (20..30).contains(&i) { 10.0 } else { 1.0 },
            })
            .collect();
        let p50 = per_slice(&samples, 4.0, 4, median);
        assert_eq!(p50, vec![1.0, 1.0, 10.0, 1.0]);
        assert_eq!(median(&p50), 1.0);
        // Samples outside the window are dropped; empty slices skipped.
        let late = [Sample {
            at_s: 9.0,
            value: 1.0,
        }];
        assert!(per_slice(&late, 4.0, 4, median).is_empty());
        assert_eq!(slice_rates(&late, 4.0, 4), vec![0.0; 4]);
    }
}
