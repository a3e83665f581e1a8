//! Offline shim for the subset of the `criterion` API used by this workspace.
//!
//! The build environment has no access to crates.io, so this in-tree crate
//! provides an API-compatible micro-benchmark harness: `criterion_group!` /
//! `criterion_main!`, benchmark groups, `bench_function` /
//! `bench_with_input` and `Bencher::iter`.  Each benchmark is warmed up and
//! then sampled `sample_size` times; the mean, minimum and maximum wall-clock
//! times are printed per benchmark.
//!
//! When the `BENCH_JSON` environment variable is set, a machine-readable
//! summary is written to that path on exit, so CI can track a performance
//! trajectory across PRs: a first `machine` entry (the commit, the available
//! parallelism, the Unix time of the run, `ref_ns` and its two rounds), then
//! one entry per benchmark with nanosecond statistics.
//!
//! `ref_ns` calibrates the host.  A shared host's speed drifts by tens of
//! percent over minutes, so two summaries of the same code can differ by
//! more than a regression would.  The shim therefore times one fixed round
//! of its own reference work (interning pseudo-random small keys into a
//! hash table, like a checker's hot loop) before the first benchmark and
//! again after the last, and records both rounds (`ref_before_ns`,
//! `ref_after_ns`) and their mean (`ref_ns`): a row that moved with
//! `ref_ns` moved with the host, and rounds far apart say the host drifted
//! during the run.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Display;
use std::hash::BuildHasherDefault;
use std::hint;
use std::time::{Duration, Instant};

/// Opaque value barrier, re-exported for benchmark bodies.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// One recorded benchmark measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Fully qualified benchmark id (`group/function/param`).
    pub id: String,
    /// Number of timed samples.
    pub samples: usize,
    /// Mean time per iteration in nanoseconds.
    pub mean_ns: f64,
    /// Fastest sample in nanoseconds.
    pub min_ns: f64,
    /// Slowest sample in nanoseconds.
    pub max_ns: f64,
}

/// The benchmark driver, standing in for `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {
    results: Vec<Measurement>,
    metrics: Vec<(String, f64)>,
    /// Wall time of the reference round run before the first benchmark.
    ref_before_ns: Option<f64>,
}

impl Criterion {
    /// Creates a driver.
    pub fn new() -> Self {
        Criterion::default()
    }

    /// Runs the first round of reference work, once, before the first
    /// benchmark.
    fn calibrate_before(&mut self) {
        if self.ref_before_ns.is_none() {
            self.ref_before_ns = Some(reference_round_ns());
        }
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        self.calibrate_before();
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
        }
    }

    /// Benchmarks a function outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.calibrate_before();
        let id = id.into();
        let m = run_benchmark(&id, 10, f);
        self.results.push(m);
        self
    }

    /// All measurements recorded so far.
    pub fn measurements(&self) -> &[Measurement] {
        &self.results
    }

    /// Records a named scalar metric (a hit rate, a count, a ratio)
    /// alongside the timing measurements.  Metrics are printed and written
    /// to the `BENCH_JSON` summary as `{"id": ..., "value": ...}` entries —
    /// an extension over upstream criterion used by benches that report
    /// cache effectiveness next to wall-clock times.
    pub fn metric(&mut self, id: impl Into<String>, value: f64) -> &mut Self {
        let id = id.into();
        println!("{id:<60} value {value:>12.4}");
        self.metrics.push((id, value));
        self
    }

    /// All scalar metrics recorded so far.
    pub fn metrics(&self) -> &[(String, f64)] {
        &self.metrics
    }

    /// Writes the JSON summary if `BENCH_JSON` is set.  Called by
    /// [`criterion_main!`]; harmless to call twice.
    pub fn final_summary(&self) {
        let Ok(path) = std::env::var("BENCH_JSON") else {
            return;
        };
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let unix_s = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let after = reference_round_ns();
        let before = self.ref_before_ns.unwrap_or(after);
        println!(
            "reference work: {} before the first benchmark, {} after the last",
            format_ns(before),
            format_ns(after)
        );
        let out = self.summary_json(&current_commit(), nproc, unix_s, (before, after));
        if let Err(e) = std::fs::write(&path, out) {
            eprintln!("warning: could not write {path}: {e}");
        } else {
            // cargo runs a bench from its package directory, so say where a
            // relative path landed
            let written = std::path::absolute(&path).unwrap_or_else(|_| path.into());
            println!("wrote benchmark summary to {}", written.display());
        }
    }

    /// The JSON summary: the machine entry (where and when it was
    /// measured, the wall times of the reference rounds run before the
    /// first and after the last benchmark, and their mean `ref_ns`), then
    /// every measurement, then every metric.
    fn summary_json(
        &self,
        commit: &str,
        nproc: usize,
        unix_s: u64,
        (before, after): (f64, f64),
    ) -> String {
        let ref_ns = (before + after) / 2.0;
        let mut out = format!(
            "[\n  {{\"id\": \"machine\", \"commit\": \"{}\", \"nproc\": {nproc}, \"unix_s\": {unix_s}, \"ref_ns\": {ref_ns:.1}, \"ref_before_ns\": {before:.1}, \"ref_after_ns\": {after:.1}}}",
            commit.replace('"', "'"),
        );
        for m in &self.results {
            out.push_str(",\n");
            out.push_str(&format!(
                "  {{\"id\": \"{}\", \"samples\": {}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}}}",
                m.id.replace('"', "'"),
                m.samples,
                m.mean_ns,
                m.min_ns,
                m.max_ns
            ));
        }
        for (id, value) in &self.metrics {
            out.push_str(",\n");
            out.push_str(&format!(
                "  {{\"id\": \"{}\", \"value\": {value:.6}}}",
                id.replace('"', "'"),
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

/// The short hash of `HEAD`, suffixed `-dirty` when the working tree has
/// changes, or `unknown` when git or the repository is not available.
fn current_commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
    };
    let Some(head) = git(&["rev-parse", "--short", "HEAD"]) else {
        return "unknown".to_string();
    };
    let hash = String::from_utf8_lossy(&head.stdout).trim().to_string();
    if git(&["status", "--porcelain"]).is_some_and(|out| !out.stdout.is_empty()) {
        format!("{hash}-dirty")
    } else {
        hash
    }
}

/// Keys interned by one round of reference work.
const REFERENCE_KEYS: u64 = 150_000;

/// Times one fixed round of reference work on the calling thread: interns
/// pseudo-random 12-byte keys (a SplitMix64 stream with a fixed seed) into
/// a fresh hash table with a fixed hasher.  Returns its wall time in ns.
fn reference_round_ns() -> f64 {
    let start = Instant::now();
    let mut seen: HashMap<[u8; 12], u32, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut state = 0x5EED_C0FF_EE00_0001u64;
    for _ in 0..REFERENCE_KEYS {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // four values below 4 per byte: about 2^20 distinct keys, so the
        // table grows and most inserts are fresh
        let mut key = [0u8; 12];
        for (i, byte) in key.iter_mut().enumerate() {
            *byte = ((z >> (i * 5)) & 3) as u8;
        }
        let next = seen.len() as u32;
        seen.entry(key).or_insert(next);
    }
    black_box(seen.len());
    start.elapsed().as_secs_f64() * 1e9
}

/// A named group of benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Benchmarks a function identified by `id` within this group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into_benchmark_id());
        let m = run_benchmark(&full, self.sample_size, &mut f);
        self.criterion.results.push(m);
        self
    }

    /// Benchmarks a function over one input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.into_benchmark_id());
        let m = run_benchmark(&full, self.sample_size, |b| f(b, input));
        self.criterion.results.push(m);
        self
    }

    /// Ends the group (kept for API compatibility).
    pub fn finish(&mut self) {}
}

/// A benchmark id of the form `function/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id from a function name and a parameter rendering.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function.into(), parameter),
        }
    }
}

/// Conversion of ids and plain strings into benchmark ids.
pub trait IntoBenchmarkId {
    /// The rendered id.
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> String {
        self
    }
}

/// Timing context passed to benchmark bodies.
pub struct Bencher {
    samples: Vec<Duration>,
    pending: usize,
}

impl Bencher {
    /// Times one sample of the routine (one warm-up call plus `pending`
    /// timed iterations, recording the per-iteration time).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        black_box(routine()); // warm-up, also forces lazy initialisation
        for _ in 0..self.pending {
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
        }
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(id: &str, sample_size: usize, mut f: F) -> Measurement {
    let mut bencher = Bencher {
        samples: Vec::with_capacity(sample_size),
        pending: sample_size,
    };
    f(&mut bencher);
    let ns: Vec<f64> = bencher
        .samples
        .iter()
        .map(|d| d.as_secs_f64() * 1e9)
        .collect();
    let (mean, min, max) = if ns.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        (
            ns.iter().sum::<f64>() / ns.len() as f64,
            ns.iter().cloned().fold(f64::INFINITY, f64::min),
            ns.iter().cloned().fold(0.0, f64::max),
        )
    };
    println!(
        "{id:<60} mean {:>12} min {:>12} max {:>12} ({} samples)",
        format_ns(mean),
        format_ns(min),
        format_ns(max),
        ns.len()
    );
    Measurement {
        id: id.to_string(),
        samples: ns.len(),
        mean_ns: mean,
        min_ns: min,
        max_ns: max,
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declares the benchmark entry point running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::new();
            $($group(&mut criterion);)+
            criterion.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_records_measurements() {
        let mut c = Criterion::new();
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        assert_eq!(c.measurements().len(), 1);
        assert_eq!(c.measurements()[0].samples, 10);
        assert!(c.measurements()[0].mean_ns >= 0.0);
    }

    #[test]
    fn metrics_are_recorded_next_to_measurements() {
        let mut c = Criterion::new();
        c.metric("cache/hit_rate", 0.75);
        assert_eq!(c.metrics(), &[("cache/hit_rate".to_string(), 0.75)]);
    }

    #[test]
    fn summary_starts_with_the_machine_entry() {
        let mut c = Criterion::new();
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        c.metric("cache/hit_rate", 0.75);
        let json = c.summary_json(
            "abc1234-dirty",
            2,
            1_700_000_000,
            (12_000_000.0, 12_691_356.0),
        );
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 5, "{json}");
        assert_eq!(lines[0], "[");
        assert_eq!(
            lines[1],
            "  {\"id\": \"machine\", \"commit\": \"abc1234-dirty\", \"nproc\": 2, \"unix_s\": 1700000000, \"ref_ns\": 12345678.0, \"ref_before_ns\": 12000000.0, \"ref_after_ns\": 12691356.0},"
        );
        assert!(
            lines[2].starts_with("  {\"id\": \"noop\", \"samples\": 10,"),
            "{json}"
        );
        assert_eq!(
            lines[3],
            "  {\"id\": \"cache/hit_rate\", \"value\": 0.750000}"
        );
        assert_eq!(lines[4], "]");
        // a summary without measurements still starts with the machine entry
        let empty = Criterion::new().summary_json("abc1234-dirty", 2, 1_700_000_000, (1.0, 1.0));
        assert_eq!(empty.lines().count(), 3, "{empty}");
        // the first benchmark is preceded by a round of reference work
        assert!(c.ref_before_ns.is_some_and(|ns| ns > 0.0));
        assert!(Criterion::new().ref_before_ns.is_none());
    }

    #[test]
    fn groups_prefix_ids() {
        let mut c = Criterion::new();
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(3);
            g.bench_with_input(BenchmarkId::new("f", 7), &7, |b, &x| b.iter(|| x * 2));
            g.finish();
        }
        assert_eq!(c.measurements()[0].id, "g/f/7");
        assert_eq!(c.measurements()[0].samples, 3);
    }
}
