//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! One command runs one seeded workload for about `S` seconds of
//! measurement, checks the program's outputs (see [`gate`]), prints every
//! metric by name with its unit and sample count, and ends with a one-line
//! JSON result: `{"correct", "attempted", "failed", "metrics"}`.  An
//! untraced run (`--trace 0`) reports the end-to-end metrics; a traced run
//! (`--trace 1`) reports the per-layer metrics, each layer's self time and
//! the tracing overhead, and writes its spans to `DIR/spans.jsonl`.  A gate
//! violation exits with code 1.  A run whose load generator fell behind its
//! schedule is invalid rather than incorrect: it prints no result and exits
//! with code 3.  `perfbench/run.py` builds this binary and the `ccserve`
//! daemon from source and records the machine with each result.
//!
//! # Workloads, and why each exists
//!
//! * `table2-scaled` — the paper's evidence, scaled up: all 8 Table II
//!   protocols x the full Agreement/Validity/Termination catalogue through
//!   `cccore::verify_protocol` at the default thread budget, on a grid of
//!   up to 16 valuations of at most 5 processes per protocol (`quick()`
//!   checks one valuation of at most 3).  Exploration and the analysis
//!   passes do almost all the work; the sweep lineage only reuses
//!   identical steps; the daemon is idle.  This is where a change to the
//!   explorer, the state store or the analysis passes shows, and where a
//!   thread budget that is slower than 1 thread shows.
//! * `family-sweep` — generated `ccprotocols::family` points (6 parameter
//!   points x 8 instantiation seeds), each swept over its guard-adjacent
//!   grid.  Lineage extend/prune/reuse, the verdict memo, row parking and
//!   model generation carry a real share of the work, on shapes outside
//!   Table II.  The family set is fixed and the workload seed orders the
//!   passes: per-family cost is heavy-tailed, so families drawn from the
//!   workload seed would make two seeds measure different work.
//!
//! The traced `family-sweep` run also drives the real `ccserve` binary as a
//! child process with open-loop, seeded Zipf traffic (see [`serve`]), so
//! the daemon-side layers are measured too.  There is no serve workload
//! with end-to-end figures: on a 2-core virtual machine shared with other
//! tenants its millisecond latency tails moved by 20-60% (quartile spread
//! over median) between runs of the same code, wider than any bound that
//! could still catch a regression.
//!
//! # End-to-end metrics
//!
//! Every untraced run reports all of them (see [`batch`]).  A *job* is one
//! input checked in full: one protocol's verification or one family sweep.
//!
//! | metric | definition |
//! |---|---|
//! | `setup_s` | protocol lookup or family instantiation + models + obligations + valuation selection + counter systems, median of repeats |
//! | `verdicts_per_s` | definite (obligation, valuation) cells per second, jobs one at a time (Table II at the default thread budget, families at budget 1), median over passes |
//! | `peak_rss_mb` | `VmHWM` of this process over one sequential pass |
//!
//! Both timings are scaled by reference work run around each timed unit
//! (see [`calibrate`]), so they follow the program rather than the shared
//! host's speed; the printed table gives the raw wall-clock figures too.
//! Failures over attempts (`failed_frac`) are printed in the table and
//! carried by the result line's `attempted` and `failed` fields rather than
//! as a metric, because they are 0 on a healthy run.  Request latency,
//! loaded tails, capacity and restart time are the daemon's figures; they
//! wait for a serve workload that holds a bound (see above).
//!
//! # Per-layer metrics and the end-to-end metric each should move
//!
//! The traced run times calls into each layer's public functions and
//! reads the counters they already return; it adds no tracing inside the
//! program.  A layer a workload does not exercise reports 0.  The daemon
//! has no end-to-end metric in the benchmark yet (see above), so for the
//! layers it exercises the table names the daemon figure they should move.
//!
//! | layer | metrics | moves | on |
//! |---|---|---|---|
//! | `ccprotocols` | `lookup_us`, `instantiate_us` | `setup_s`, daemon hit latency | table2-scaled; family-sweep |
//! | `ccta` | `single_round_us` | `setup_s`, daemon hit latency | table2-scaled |
//! | `cccore` | `obligations_us`, `select_valuations_us`, `fingerprint_us` | `setup_s`, daemon hit latency | table2-scaled |
//! | `cccounter` | `compile_us`, `systems` | `setup_s`, daemon hit latency | both |
//! | `ccchecker` engine | `check_all_p50_ms`/`_p99_ms`, `states`, `transitions`, `states_per_s`, `resident_mb` | `verdicts_per_s`, `peak_rss_mb` | table2-scaled |
//! | `ccchecker::sweep` | `sweep_ms`, `parallel_speedup` | `verdicts_per_s` | table2-scaled |
//! | `ccchecker::graph` lineage | `lineage.*` counters, `memo_hit_rate`, `amortization`, `parked_ratio`, `saving_ms` | `verdicts_per_s` | family-sweep |
//! | `ccchecker::job` | `job.run_p50_ms`/`_p99_ms` | daemon tail latency and capacity | family-sweep (serve session) |
//! | `ccserve::wire`, `transport` | `wire.encode_us`, `decode_us`, `request_bytes`, `response_bytes`, `transport.ping_rtt_us` (idle), `ping_rtt_loaded_us` | daemon hit latency | family-sweep (serve session) |
//! | `ccserve::queue`, `server` | `queue.depth_mean`, `depth_max`, `shed`, `server.busy_frac` | daemon loaded tail and capacity | family-sweep (serve session) |
//! | `ccserve::cache` | `cache.hits`, `misses`, `hit_rate` | daemon hit latency and capacity | family-sweep (serve session) |
//! | `ccserve::store`, `cccore::wal` | `store.append_p50_us`/`_p99_us`, `replay_ms`, `log_bytes`, `recovered` | daemon capacity and restart time | family-sweep (serve session) |
//! | load generator | `loadgen.lag_p99_ms`, `sent` | validity of every daemon-side metric | family-sweep (serve session) |
//!
//! `selftime.<layer>_ms` is each layer's self time over a fixed unit of
//! work: one traced replay, one sweep of each kind and, on `family-sweep`,
//! the serve session's job, wire and store replays.  `trace.overhead_pct`
//! compares the same replay traced and untraced.  A `_p99` figure is the
//! highest percentile up to p99 with at least ten samples beyond it (see
//! [`stats`]); the printed table names the percentile and the sample count.

mod batch;
mod calibrate;
mod gate;
mod gen;
mod report;
mod serve;
mod stats;
mod trace;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;

/// The cores this process may run on: the daemon's worker count.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
/// The workloads, by name.
const WORKLOADS: &[&str] = &["table2-scaled", "family-sweep"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = PathBuf::from(".bench_build/perfbench");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) || !report::valid_name(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = args.out.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        std::process::exit(2);
    }
    let kind = match args.workload.as_str() {
        "table2-scaled" => batch::Kind::Table2,
        _ => batch::Kind::Family,
    };
    let mut report: Report = if args.trace {
        batch::run_traced(kind, args.seed, args.seconds, &out)
    } else {
        batch::run(kind, args.seed, args.seconds)
    };
    // keep the run's directory only when it holds spans
    let _ = std::fs::remove_dir(&out);
    if let Some(why) = &report.invalid {
        eprintln!("perfbench: invalid run, no result: {why}");
        std::process::exit(3);
    }
    report.print(if args.trace { PER_LAYER } else { END_TO_END });
    if !report.violations.is_empty() {
        std::process::exit(1);
    }
}
