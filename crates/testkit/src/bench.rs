//! Minimal wall-clock micro-benchmark harness (criterion stand-in).
//!
//! Each benchmark is warmed up, then timed over `sample_size` samples of
//! auto-calibrated iteration batches; the report shows the **median**
//! per-iteration time (robust to scheduler noise) plus min/max, and
//! throughput when the group declares a per-iteration byte count.
//!
//! Bench targets use `harness = false` and call [`Bench::from_args`] in
//! `main`. CLI/env controls:
//!
//! - a positional argument filters benchmarks by substring (cargo's
//!   `cargo bench -- <filter>` convention);
//! - `MASC_BENCH_FAST=1` (or `--fast`) runs one short sample per bench —
//!   a smoke mode that keeps bench binaries testable in CI.

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] for benchmark bodies.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Per-sample target duration for iteration-count calibration.
const SAMPLE_TARGET: Duration = Duration::from_millis(10);
/// Warm-up duration before sampling.
const WARMUP: Duration = Duration::from_millis(50);

/// Top-level bench runner; owns the filter and reporting.
pub struct Bench {
    filter: Option<String>,
    fast: bool,
    ran: usize,
}

impl Bench {
    /// Builds a runner from `std::env::args` (see module docs).
    pub fn from_args() -> Self {
        let mut filter = None;
        let mut fast = std::env::var("MASC_BENCH_FAST").is_ok_and(|v| v != "0");
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--fast" => fast = true,
                // Flags cargo-bench passes through to harnesses.
                "--bench" | "--test" => {}
                a if a.starts_with("--") => {}
                a => filter = Some(a.to_string()),
            }
        }
        Self {
            filter,
            fast,
            ran: 0,
        }
    }

    /// Starts a named group of related benchmarks.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            bench: self,
            name: name.to_string(),
            throughput_bytes: None,
            sample_size: 20,
        }
    }

    /// Prints the closing summary. Call at the end of `main`.
    pub fn finish(self) {
        println!("\n{} benchmark(s) run", self.ran);
    }
}

/// A group of benchmarks sharing a name prefix and throughput settings.
pub struct Group<'a> {
    bench: &'a mut Bench,
    name: String,
    throughput_bytes: Option<u64>,
    sample_size: usize,
}

impl Group<'_> {
    /// Declares that one iteration processes `bytes` bytes; the report
    /// then includes GiB/s.
    pub fn throughput_bytes(&mut self, bytes: u64) -> &mut Self {
        self.throughput_bytes = Some(bytes);
        self
    }

    /// Sets the number of timed samples (default 20).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Times `f`, reporting under `group/id`.
    pub fn bench<R, F: FnMut() -> R>(&mut self, id: &str, mut f: F) {
        let full = format!("{}/{}", self.name, id);
        if let Some(filter) = &self.bench.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        self.bench.ran += 1;
        if self.bench.fast {
            let start = Instant::now();
            black_box(f());
            let t = start.elapsed();
            println!(
                "{full:<48} {:>12}/iter  (fast mode, 1 iter)",
                fmt_ns(t.as_nanos() as f64)
            );
            return;
        }

        // Warm up and estimate the per-iteration cost.
        let warmup_start = Instant::now();
        let mut warm_iters = 0u64;
        while warmup_start.elapsed() < WARMUP || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
        }
        let est_ns = (warmup_start.elapsed().as_nanos() as f64 / warm_iters as f64).max(1.0);
        let iters_per_sample = ((SAMPLE_TARGET.as_nanos() as f64 / est_ns) as u64).max(1);

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            samples_ns.push(start.elapsed().as_nanos() as f64 / iters_per_sample as f64);
        }
        samples_ns.sort_by(|a, b| a.total_cmp(b));
        let median = samples_ns[samples_ns.len() / 2];
        let min = samples_ns[0];
        let max = *samples_ns.last().expect("at least one sample");

        let mut line = format!(
            "{full:<48} {:>12}/iter  [min {}, max {}]",
            fmt_ns(median),
            fmt_ns(min),
            fmt_ns(max)
        );
        if let Some(bytes) = self.throughput_bytes {
            let gib_s = bytes as f64 / median / 1.073_741_824;
            line.push_str(&format!("  {gib_s:>8.3} GiB/s"));
        }
        println!("{line}");
    }
}

/// Formats nanoseconds with an adaptive unit.
fn fmt_ns(ns: f64) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_bench() -> Bench {
        Bench {
            filter: None,
            fast: true,
            ran: 0,
        }
    }

    #[test]
    fn fast_mode_runs_each_bench_once() {
        let mut bench = fast_bench();
        let mut calls = 0;
        {
            let mut group = bench.group("g");
            group.bench("a", || calls += 1);
            group.bench("b", || calls += 1);
        }
        assert_eq!(calls, 2);
        assert_eq!(bench.ran, 2);
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut bench = Bench {
            filter: Some("match_me".to_string()),
            fast: true,
            ran: 0,
        };
        let mut calls = 0;
        {
            let mut group = bench.group("g");
            group.bench("match_me", || calls += 1);
            group.bench("other", || calls += 1);
        }
        assert_eq!(calls, 1);
        assert_eq!(bench.ran, 1);
    }

    #[test]
    fn slow_path_produces_samples() {
        // Not fast mode, but a trivial body: should complete quickly since
        // iteration batches are capped by sample count.
        let mut bench = Bench {
            filter: None,
            fast: false,
            ran: 0,
        };
        let mut group = bench.group("g");
        group.sample_size(2).throughput_bytes(8);
        group.bench("trivial", || black_box(1u64 + 1));
    }

    #[test]
    fn ns_formatting_picks_units() {
        assert!(fmt_ns(12.0).contains("ns"));
        assert!(fmt_ns(12_000.0).contains("µs"));
        assert!(fmt_ns(12_000_000.0).contains("ms"));
        assert!(fmt_ns(12_000_000_000.0).contains(" s"));
    }
}
