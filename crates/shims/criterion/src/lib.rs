//! Offline stand-in for the [`criterion`](https://docs.rs/criterion) crate.
//!
//! The workspace builds hermetically (no crates.io), so its benches run
//! against this minimal harness instead: same API shape
//! ([`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`], [`BenchmarkId`],
//! [`Throughput`], [`criterion_group!`], [`criterion_main!`]), but plain
//! mean-of-batches timing instead of criterion's statistical machinery.
//!
//! Extras understood by the harness:
//!
//! * a positional CLI argument filters benchmarks by substring, like real
//!   criterion (`cargo bench --bench summarize -- weak`);
//! * `--test` runs every benchmark body exactly once as a smoke test —
//!   cargo does not pass it automatically, so CI invokes
//!   `cargo bench -- --test` to catch benches that compile but panic;
//! * `BENCH_JSON=<path>` appends one JSON object per finished benchmark,
//!   for scripted paired runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Benchmark harness entry point; configures timing windows and carries
/// the CLI filter.
#[derive(Clone, Debug)]
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    filter: Option<String>,
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        let mut filter = None;
        let mut test_mode = false;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => test_mode = true,
                // Flags cargo/criterion pass that we accept and ignore.
                "--bench" | "--verbose" | "-v" | "--quiet" | "--noplot" => {}
                other if !other.starts_with('-') => filter = Some(other.to_string()),
                _ => {}
            }
        }
        Criterion {
            sample_size: 10,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_secs(2),
            filter,
            test_mode,
        }
    }
}

impl Criterion {
    /// Number of measured samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// How long to run the body before measuring.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Target total measurement duration per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }
}

/// Units processed per iteration, for derived rates.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements (e.g. triples) per iteration.
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

/// Identifies one benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    function: Option<String>,
    parameter: String,
}

impl BenchmarkId {
    /// An id with a function name and a parameter value.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            function: Some(function.into()),
            parameter: parameter.to_string(),
        }
    }

    /// An id distinguished by parameter value only.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            function: None,
            parameter: parameter.to_string(),
        }
    }

    fn render(&self) -> String {
        match &self.function {
            Some(f) => format!("{f}/{}", self.parameter),
            None => self.parameter.clone(),
        }
    }
}

/// A named collection of benchmarks sharing a throughput setting.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-iteration throughput used for derived rates.
    pub fn throughput(&mut self, throughput: Throughput) {
        self.throughput = Some(throughput);
    }

    /// Runs a benchmark with no extra input.
    pub fn bench_function<F>(&mut self, id: impl Display, mut body: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(&id.to_string(), &mut |b| body(b));
        self
    }

    /// Runs a benchmark parameterized by `input`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut body: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        self.run(&id.render(), &mut |b| body(b, input));
        self
    }

    /// Ends the group (parity with real criterion; nothing to flush here).
    pub fn finish(self) {}

    fn run(&mut self, bench_name: &str, body: &mut dyn FnMut(&mut Bencher)) {
        let full = format!("{}/{}", self.name, bench_name);
        if let Some(f) = &self.criterion.filter {
            if !full.contains(f.as_str()) {
                return;
            }
        }
        let mut bencher = Bencher {
            config: if self.criterion.test_mode {
                BenchMode::Once
            } else {
                BenchMode::Measure {
                    sample_size: self.criterion.sample_size,
                    warm_up: self.criterion.warm_up_time,
                    measurement: self.criterion.measurement_time,
                }
            },
            mean_ns: 0.0,
            iters: 0,
        };
        body(&mut bencher);
        if self.criterion.test_mode {
            println!("{full}: ok (test mode)");
            return;
        }
        let mean_ns = bencher.mean_ns;
        let rate = self.throughput.map(|t| match t {
            Throughput::Elements(n) => (n as f64 / (mean_ns / 1e9), "elem/s"),
            Throughput::Bytes(n) => (n as f64 / (mean_ns / 1e9), "B/s"),
        });
        match rate {
            Some((r, unit)) => println!(
                "{full}: {} per iter ({} iters), {r:.3e} {unit}",
                format_ns(mean_ns),
                bencher.iters
            ),
            None => println!(
                "{full}: {} per iter ({} iters)",
                format_ns(mean_ns),
                bencher.iters
            ),
        }
        if let Ok(path) = std::env::var("BENCH_JSON") {
            let (elems, bytes) = match self.throughput {
                Some(Throughput::Elements(n)) => (Some(n), None),
                Some(Throughput::Bytes(n)) => (None, Some(n)),
                None => (None, None),
            };
            let json = format!(
                "{{\"group\":\"{}\",\"bench\":\"{}\",\"mean_ns\":{:.1},\"iters\":{}{}{}}}\n",
                self.name,
                bench_name,
                mean_ns,
                bencher.iters,
                elems.map_or(String::new(), |n| format!(",\"elements\":{n}")),
                bytes.map_or(String::new(), |n| format!(",\"bytes\":{n}")),
            );
            if let Ok(mut f) = OpenOptions::new().create(true).append(true).open(&path) {
                let _ = f.write_all(json.as_bytes());
            }
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum BenchMode {
    /// `--test`: run the body once, no timing.
    Once,
    /// Normal `cargo bench` measurement.
    Measure {
        sample_size: usize,
        warm_up: Duration,
        measurement: Duration,
    },
}

/// Passed to benchmark bodies; [`iter`](Bencher::iter) times a closure.
pub struct Bencher {
    config: BenchMode,
    mean_ns: f64,
    iters: u64,
}

impl Bencher {
    /// Times `routine`, storing the mean wall-clock nanoseconds per call.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let (sample_size, warm_up, measurement) = match self.config {
            BenchMode::Once => {
                black_box(routine());
                self.iters = 1;
                return;
            }
            BenchMode::Measure {
                sample_size,
                warm_up,
                measurement,
            } => (sample_size, warm_up, measurement),
        };
        // Warm-up, and calibrate how many calls fit in one sample.
        let warm_start = Instant::now();
        let mut calls_per_sample = 0u64;
        loop {
            black_box(routine());
            calls_per_sample += 1;
            if warm_start.elapsed() >= warm_up {
                break;
            }
        }
        let per_call = warm_start.elapsed().as_secs_f64() / calls_per_sample as f64;
        let sample_budget = measurement.as_secs_f64() / sample_size as f64;
        let calls = ((sample_budget / per_call) as u64).clamp(1, u64::MAX);

        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        for _ in 0..sample_size {
            let t0 = Instant::now();
            for _ in 0..calls {
                black_box(routine());
            }
            total += t0.elapsed();
            iters += calls;
        }
        self.mean_ns = total.as_secs_f64() * 1e9 / iters as f64;
        self.iters = iters;
    }

    /// Like [`iter`](Bencher::iter), for a body that times only part of
    /// each iteration: `routine(n)` runs `n` iterations and returns the
    /// time they took. Calibrated on the returned times.
    pub fn iter_custom<R: FnMut(u64) -> Duration>(&mut self, mut routine: R) {
        let (sample_size, warm_up, measurement) = match self.config {
            BenchMode::Once => {
                black_box(routine(1));
                self.iters = 1;
                return;
            }
            BenchMode::Measure {
                sample_size,
                warm_up,
                measurement,
            } => (sample_size, warm_up, measurement),
        };
        let warm_start = Instant::now();
        let (mut warm_timed, mut warm_calls) = (Duration::ZERO, 0u64);
        while warm_calls == 0 || warm_start.elapsed() < warm_up {
            warm_timed += routine(1);
            warm_calls += 1;
        }
        let per_call = warm_timed.as_secs_f64().max(1e-9) / warm_calls as f64;
        let sample_budget = measurement.as_secs_f64() / sample_size as f64;
        let calls = ((sample_budget / per_call) as u64).clamp(1, u64::MAX);
        let mut total = Duration::ZERO;
        for _ in 0..sample_size {
            total += routine(calls);
        }
        let iters = calls * sample_size as u64;
        self.mean_ns = total.as_secs_f64() * 1e9 / iters as f64;
        self.iters = iters;
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Declares a benchmark group function, mirroring real criterion.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark binary's `main`, mirroring real criterion.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_render_like_criterion() {
        assert_eq!(BenchmarkId::new("parallel", 4).render(), "parallel/4");
        assert_eq!(BenchmarkId::from_parameter("weak").render(), "weak");
    }

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion::default()
            .sample_size(2)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(4));
        c.filter = None;
        c.test_mode = false;
        let mut group = c.benchmark_group("shim");
        let mut ran = 0u64;
        group.bench_function("spin", |b| {
            b.iter(|| {
                ran += 1;
                std::hint::black_box((0..100u32).sum::<u32>())
            })
        });
        group.finish();
        assert!(ran > 0);
    }

    #[test]
    fn format_ns_picks_units() {
        assert!(format_ns(12.0).ends_with("ns"));
        assert!(format_ns(12_500.0).ends_with("µs"));
        assert!(format_ns(12_500_000.0).ends_with("ms"));
        assert!(format_ns(2.5e9).ends_with('s'));
    }
}
