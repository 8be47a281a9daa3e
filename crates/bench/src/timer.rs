//! A zero-dependency micro-benchmark harness over the monotonic clock.
//!
//! `cargo bench` in this workspace must build offline, so the bench
//! targets run on this harness instead of a registry crate. It reports
//! min / median / mean wall time per iteration — min and median because
//! they are robust against scheduler noise on shared CI hardware, mean
//! for comparability with other harnesses.
//!
//! # Examples
//!
//! ```
//! use urt_bench::timer::bench;
//!
//! let report = bench("add", 100, || {
//!     std::hint::black_box(2u64 + 2);
//! });
//! assert_eq!(report.iters, 100);
//! assert!(report.min_ns <= report.median_ns);
//! ```

use std::fmt;
use std::time::Instant;

/// Aggregate timing of one benchmarked routine.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Benchmark label, e.g. `"rk4_step"`.
    pub label: String,
    /// Measured iterations (excludes warm-up).
    pub iters: usize,
    /// Fastest iteration, nanoseconds.
    pub min_ns: f64,
    /// Median iteration, nanoseconds.
    pub median_ns: f64,
    /// Mean iteration, nanoseconds.
    pub mean_ns: f64,
}

impl fmt::Display for TimingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "| {} | {} | {} | {} | {} |",
            self.label,
            self.iters,
            fmt_ns(self.min_ns),
            fmt_ns(self.median_ns),
            fmt_ns(self.mean_ns)
        )
    }
}

/// Header row matching [`TimingReport`]'s `Display` output.
pub fn report_header() -> String {
    "| benchmark | iters | min | median | mean |\n|---|---|---|---|---|".to_owned()
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn summarize(label: &str, mut samples: Vec<f64>) -> TimingReport {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let n = samples.len();
    let median_ns =
        if n % 2 == 1 { samples[n / 2] } else { (samples[n / 2 - 1] + samples[n / 2]) / 2.0 };
    TimingReport {
        label: label.to_owned(),
        iters: n,
        min_ns: samples[0],
        median_ns,
        mean_ns: samples.iter().sum::<f64>() / n as f64,
    }
}

/// Times `f` over `iters` iterations (plus `iters / 10 + 1` warm-up runs
/// that are discarded), timing each iteration individually.
///
/// # Panics
///
/// Panics if `iters == 0`.
pub fn bench<F: FnMut()>(label: &str, iters: usize, mut f: F) -> TimingReport {
    assert!(iters > 0, "need at least one iteration");
    for _ in 0..(iters / 10 + 1) {
        f();
    }
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    summarize(label, samples)
}

/// Like [`bench`](fn@bench), but runs `setup` outside the timed region before each
/// iteration and hands its value to `f`.
///
/// # Panics
///
/// Panics if `iters == 0`.
pub fn bench_batched<S, T, F>(label: &str, iters: usize, mut setup: S, mut f: F) -> TimingReport
where
    S: FnMut() -> T,
    F: FnMut(T),
{
    assert!(iters > 0, "need at least one iteration");
    f(setup());
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let input = setup();
            let t0 = Instant::now();
            f(input);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    summarize(label, samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_ordered_and_sane() {
        let r = bench("spin", 50, || {
            let mut acc = 0u64;
            for i in 0..100 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            std::hint::black_box(acc);
        });
        assert_eq!(r.iters, 50);
        assert!(r.min_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.median_ns <= r.mean_ns * 10.0, "median not wildly above mean");
    }

    #[test]
    fn batched_setup_is_not_timed() {
        let mut setups = 0usize;
        let r = bench_batched(
            "b",
            10,
            || {
                setups += 1;
                vec![0u8; 16]
            },
            |v| {
                std::hint::black_box(v.len());
            },
        );
        assert_eq!(r.iters, 10);
        // 10 timed iterations + 1 warm-up.
        assert_eq!(setups, 11);
    }

    #[test]
    fn median_of_even_sample_count() {
        let r = summarize("s", vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(r.min_ns, 1.0);
        assert_eq!(r.median_ns, 2.5);
        assert_eq!(r.mean_ns, 2.5);
    }

    #[test]
    fn display_and_header_align() {
        let r = summarize("x", vec![1500.0]);
        let line = r.to_string();
        assert!(line.contains("µs"), "{line}");
        assert_eq!(
            line.matches('|').count(),
            report_header().lines().next().unwrap().matches('|').count()
        );
    }

    #[test]
    fn formats_scale_units() {
        assert!(fmt_ns(12.0).ends_with("ns"));
        assert!(fmt_ns(12_000.0).ends_with("µs"));
        assert!(fmt_ns(12_000_000.0).ends_with("ms"));
        assert!(fmt_ns(2e9).ends_with(" s"));
    }
}
