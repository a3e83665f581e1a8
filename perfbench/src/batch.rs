//! The batch workloads, `table2-scaled` and `family-sweep`.
//!
//! A batch *job* is one input checked in full: one Table II protocol
//! through `cccore::verify_protocol` on the scaled grid, or one generated
//! family swept over its guard-adjacent grid with
//! `ccchecker::check_over_sweep_with_stats`.  An untraced run has three
//! phases:
//!
//! 1. one sequential pass at thread budget 1, where no two jobs or sweep
//!    workers overlap, so the peak resident set does not depend on timing
//!    (`peak_rss_mb`);
//! 2. set-up, repeated: build every model, obligation catalogue, valuation
//!    grid and counter system (`setup_s`, median of the repeats);
//! 3. throughput: passes over every job, one job at a time (Table II at the
//!    default thread budget, families at budget 1), in a seeded order per
//!    pass, until the run's time is up (`verdicts_per_s`, median over
//!    passes).
//!
//! Each set-up repeat and each throughput pass is timed between two rounds
//! of the reference work of [`crate::calibrate`] and reported scaled by
//! them, so the figures follow the program rather than the host's speed.
//!
//! Attempts are the non-skipped grid cells; failures are the cells left
//! `Unknown` (interrupted, failed or undecided).

use crate::calibrate;
use crate::gate::{self, Signature};
use crate::gen::SplitMix64;
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use ccchecker::{
    check_over_sweep_with_stats, sweep_thread_budget, CheckStatus, CheckerOptions, ExplicitChecker,
    GraphCacheStats, Spec, SweepReport,
};
use cccore::fingerprint::{spec_fingerprint, system_fingerprint, valuation_fingerprint};
use cccore::{obligations_for, verify_protocol, VerifierConfig};
use cccounter::CounterSystem;
use ccprotocols::family::{FamilyParams, FaultModel};
use ccprotocols::ProtocolModel;
use ccserve::wire::Source;
use ccta::{ParamValuation, SystemModel};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Table2,
    Family,
}

impl Kind {
    /// The thread budget of the throughput passes: the default for Table
    /// II, whose jobs run mostly on one thread anyway; 1 for families,
    /// because splitting a family's grid across threads gives up the
    /// lineage reuse the workload exists to measure, and because the
    /// reference work (see [`crate::calibrate`]) only follows the speed of
    /// the thread it runs on.
    fn throughput_threads(self) -> usize {
        match self {
            Kind::Table2 => 0,
            Kind::Family => 1,
        }
    }
}

/// The scaled Table II grid: larger than `VerifierConfig::quick()` (one
/// valuation of at most 3 processes) — up to 16 valuations of at most 5
/// processes per protocol.
pub fn table2_grid() -> VerifierConfig {
    VerifierConfig {
        max_param_value: 9,
        max_processes: 5,
        max_valuations: 16,
        ..VerifierConfig::default()
    }
}

/// Generated families per parameter point.
const FAMILY_SEEDS: usize = 8;

/// The seed the family instantiation seeds are drawn from.  The family set
/// is the same for every workload seed, which only orders the passes:
/// per-family cost is heavy-tailed, so a seed-drawn set would make runs
/// with different seeds measure different work.
const FAMILY_BASE_SEED: u64 = 0xBE7C_0001;

/// The family parameter points: shallow and deep phase structures, sparse
/// and saturated guards, Byzantine and crash-stop faults.  Resilience 2
/// makes every generated grid walk relax, identical and tighten steps.
fn family_points() -> Vec<FamilyParams> {
    let base = FamilyParams::default();
    vec![
        FamilyParams {
            phases: 1,
            width: 2,
            ..base.clone()
        },
        FamilyParams {
            phases: 3,
            width: 1,
            ..base.clone()
        },
        FamilyParams {
            phases: 2,
            width: 3,
            fanout: 3,
            ..base.clone()
        },
        FamilyParams {
            guard_density: 95,
            ..base.clone()
        },
        FamilyParams {
            guard_density: 15,
            ..base.clone()
        },
        FamilyParams {
            phases: 1,
            width: 2,
            faults: FaultModel::Crash,
            ..base
        },
    ]
}

/// A resolved input: the model, its obligation catalogue and its grid.
pub struct Resolved {
    /// The Table II protocol, for a source that names one.
    pub protocol: Option<ProtocolModel>,
    pub model: SystemModel,
    pub specs: Vec<Spec>,
    pub valuations: Vec<ParamValuation>,
}

/// Resolves a source through the public calls a check makes, one span per
/// call: a protocol by name, its single-round model, its obligations and
/// the valuations `grid` selects; or a family instantiated, with its
/// catalogue and its guard-adjacent grid.
pub fn resolve_source(
    source: &Source,
    grid: &VerifierConfig,
    tracer: &Tracer,
    req: u64,
) -> Result<Resolved, String> {
    match source {
        Source::Protocol(name) => {
            let p = tracer
                .span("ccprotocols.lookup", req, || {
                    ccprotocols::protocol_by_name(name)
                })
                .ok_or_else(|| format!("unknown protocol {name}"))?;
            let model = tracer.span("ccta.single_round", req, || p.single_round());
            let specs = tracer.span("cccore.obligations", req, || {
                obligations_for(&p, &model)
                    .all()
                    .into_iter()
                    .cloned()
                    .collect()
            });
            let valuations = tracer.span("cccore.select_valuations", req, || {
                grid.select_valuations(&model)
            });
            Ok(Resolved {
                protocol: Some(p),
                model,
                specs,
                valuations,
            })
        }
        Source::Family { params, seed } => {
            let fam = tracer.span("ccprotocols.instantiate", req, || params.instantiate(*seed));
            let specs = tracer.span("ccchecker.catalogue", req, || {
                Spec::family_catalogue(&fam.single_round, &fam.obligations)
            });
            Ok(Resolved {
                protocol: None,
                model: fam.single_round,
                specs,
                valuations: fam.sweep,
            })
        }
    }
}

/// One job: what it checks, resolved.
struct Job {
    label: String,
    source: Source,
    protocol: Option<ProtocolModel>,
    model: SystemModel,
    specs: Vec<Spec>,
    valuations: Vec<ParamValuation>,
}

/// The workload's inputs, by label.
fn sources(kind: Kind) -> Vec<(String, Source)> {
    match kind {
        Kind::Table2 => ccprotocols::all_protocols()
            .into_iter()
            .map(|p| (p.name().to_string(), Source::Protocol(p.name().to_string())))
            .collect(),
        Kind::Family => {
            let mut rng = SplitMix64::stream(FAMILY_BASE_SEED, "family-seeds");
            let mut out = Vec::new();
            for (point, params) in family_points().into_iter().enumerate() {
                for _ in 0..FAMILY_SEEDS {
                    let seed = rng.next_u64();
                    out.push((
                        format!("family{point}/{seed:016x}"),
                        Source::Family {
                            params: params.clone(),
                            seed,
                        },
                    ));
                }
            }
            out
        }
    }
}

/// Set-up: every input resolved and every counter system compiled.
fn setup(sources: &[(String, Source)]) -> Vec<Job> {
    let untraced = Tracer::new(false);
    sources
        .iter()
        .map(|(label, source)| {
            let r = resolve_source(source, &table2_grid(), &untraced, 0).expect("catalogue input");
            for v in &r.valuations {
                CounterSystem::new(r.model.clone(), v.clone()).expect("admissible valuation");
            }
            Job {
                label: label.clone(),
                source: source.clone(),
                protocol: r.protocol,
                model: r.model,
                specs: r.specs,
                valuations: r.valuations,
            }
        })
        .collect()
}

/// The outcome of one job.
struct JobRun {
    reports: Vec<SweepReport>,
    /// Non-skipped cells.
    cells: usize,
    /// Cells with a definite verdict.
    definite: usize,
}

/// Runs one job through the workload's user entry point.
fn run_job(job: &Job, threads: usize) -> Result<JobRun, String> {
    let reports = match &job.protocol {
        Some(p) => {
            let pv = verify_protocol(p, &table2_grid().with_threads(threads));
            gate::table2_verdict(&pv)?;
            [pv.agreement, pv.validity, pv.termination]
                .into_iter()
                .flat_map(|prop| prop.reports)
                .collect()
        }
        None => {
            check_over_sweep_with_stats(
                &job.model,
                &job.specs,
                &job.valuations,
                CheckerOptions::default(),
                sweep_thread_budget(threads),
            )
            .0
        }
    };
    let live = || {
        reports
            .iter()
            .flat_map(|r| &r.outcomes)
            .filter(|o| !o.skipped)
    };
    let cells = live().count();
    let definite = live()
        .filter(|o| o.outcome.status != CheckStatus::Unknown)
        .count();
    Ok(JobRun {
        reports,
        cells,
        definite,
    })
}

/// Signatures of each job's first run; later runs must match.
#[derive(Default)]
struct Reference {
    first: HashMap<usize, Signature>,
}

impl Reference {
    /// Checks a run against the job's first one; `Ok(true)` marks the
    /// job's first run.
    fn check(&mut self, index: usize, run: &JobRun) -> Result<bool, String> {
        let sig = gate::signature(&run.reports);
        match self.first.get(&index) {
            None => {
                self.first.insert(index, sig);
                Ok(true)
            }
            Some(s) if *s == sig => Ok(false),
            Some(_) => Err(format!("job {index}: a repeated check changed its answer")),
        }
    }
}

/// Counts one job run into the report; replays the counterexamples of a
/// job's first run.
fn account(
    report: &mut Report,
    reference: &mut Reference,
    job: &Job,
    index: usize,
    run: Result<JobRun, String>,
) -> usize {
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            report.violation(format!("{}: {e}", job.label));
            return 0;
        }
    };
    report.attempted += run.cells as u64;
    report.failed += (run.cells - run.definite) as u64;
    match reference.check(index, &run) {
        Ok(true) => {
            if let Err(e) = gate::replay_all(&job.model, &run.reports) {
                report.violation(format!("{}: {e}", job.label));
            }
        }
        Ok(false) => {}
        Err(e) => report.violation(format!("{}: {e}", job.label)),
    }
    run.definite
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One pass over every job in `order`: the definite cells and the pass
/// wall time (s).
fn pass(
    jobs: &[Job],
    order: &[usize],
    threads: usize,
    report: &mut Report,
    reference: &mut Reference,
) -> (usize, f64) {
    let started = Instant::now();
    let mut definite = 0;
    for &i in order {
        let run = run_job(&jobs[i], threads);
        definite += account(report, reference, &jobs[i], i, run);
    }
    (definite, started.elapsed().as_secs_f64())
}

/// The untraced run.  Each timing is a median over whole units of work (a
/// set-up repeat, a pass over every job), each unit timed between two
/// rounds of reference work and scaled by them (see [`calibrate`]): every
/// job weighs the same in a figure, a burst of interference moves one unit
/// rather than the figure, and a drift in the host's speed moves neither.
pub fn run(kind: Kind, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let started = Instant::now();
    let end = started + Duration::from_secs_f64(seconds);
    let sources = sources(kind);
    let jobs = setup(&sources);

    // 1. the peak resident set of one sequential pass, taken first, so the
    // heap the other phases leave behind does not count
    let mut reference = Reference::default();
    let hwm_reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
    pass(
        &jobs,
        &(0..jobs.len()).collect::<Vec<_>>(),
        1,
        &mut report,
        &mut reference,
    );
    report.set(
        "peak_rss_mb",
        crate::report::peak_rss_mb().unwrap_or(0.0),
        1,
        if hwm_reset {
            "VmHWM over one pass at thread budget 1"
        } else {
            "VmHWM of this process"
        },
    );

    // 2. set-up, repeated
    let setup_end = Instant::now() + Duration::from_secs_f64(seconds / 8.0);
    let (mut setup_s, mut setup_raw) = (Vec::new(), Vec::new());
    while setup_s.len() < 5 || (Instant::now() < setup_end && setup_s.len() < 50) {
        let (wall, scale) = calibrate::scaled(|| {
            let t = Instant::now();
            setup(&sources);
            t.elapsed().as_secs_f64()
        });
        setup_raw.push(wall);
        setup_s.push(wall * scale);
    }
    report.set(
        "setup_s",
        stats::median(&setup_s).unwrap(),
        setup_s.len(),
        format!(
            "median over repeats, scaled; raw {:.6} s",
            stats::median(&setup_raw).unwrap()
        ),
    );

    // 3. throughput: one job at a time, in a seeded order per pass, until
    // the run's time is up
    let threads = kind.throughput_threads();
    let mut rng = SplitMix64::stream(seed, "passes");
    let (mut rates, mut raw) = (Vec::new(), Vec::new());
    while rates.len() < 3 || Instant::now() < end {
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        rng.shuffle(&mut order);
        let ((definite, wall), scale) =
            calibrate::scaled(|| pass(&jobs, &order, threads, &mut report, &mut reference));
        raw.push(definite as f64 / wall);
        rates.push(definite as f64 / (wall * scale));
    }
    report.set(
        "verdicts_per_s",
        stats::median(&rates).unwrap(),
        rates.len(),
        format!(
            "definite cells per second, median over passes, scaled; raw {:.1}/s",
            stats::median(&raw).unwrap()
        ),
    );
    report
}

/// Per-layer accounting of one replay of the workload's layer calls.
#[derive(Default)]
struct LayerTotals {
    systems: usize,
    check_all_ms: Vec<f64>,
    states: usize,
    transitions: usize,
    peak_resident: usize,
}

/// Replays, for every job, the calls its entry point makes, one span per
/// call: resolution, fingerprints, then per valuation a counter-system
/// compile and one lineage-free `ExplicitChecker::check_all`.
fn replay_layers(jobs: &[Job], tracer: &Tracer) -> LayerTotals {
    let mut totals = LayerTotals::default();
    let options = CheckerOptions::default();
    for (req, job) in jobs.iter().enumerate() {
        let req = req as u64;
        tracer.span("bench.job", req, || {
            let Resolved {
                model,
                specs,
                valuations,
                ..
            } = resolve_source(&job.source, &table2_grid(), tracer, req)
                .expect("resolved in set-up");
            tracer.span("cccore.fingerprint", req, || {
                let mut h = system_fingerprint(&model);
                for v in &valuations {
                    h ^= valuation_fingerprint(v);
                }
                for s in &specs {
                    h ^= spec_fingerprint(s);
                }
                std::hint::black_box(h);
            });
            for v in &valuations {
                let sys = tracer.span("cccounter.compile", req, || {
                    CounterSystem::new(model.clone(), v.clone()).expect("admissible")
                });
                totals.systems += 1;
                let t = Instant::now();
                let stats = tracer.span("ccchecker.check_all", req, || {
                    let checker = ExplicitChecker::with_options(&sys, options);
                    std::hint::black_box(checker.check_all(&specs));
                    checker.cache_stats()
                });
                totals.check_all_ms.push(ms(t.elapsed()));
                totals.states += stats.cached_states();
                totals.transitions += stats.cached_transitions();
                totals.peak_resident = totals.peak_resident.max(stats.resident_bytes());
            }
        });
    }
    totals
}

/// Every job swept once with the given options and thread budget; returns
/// the signatures, the merged cache stats and the wall time.
fn sweep_all(
    jobs: &[Job],
    options: CheckerOptions,
    threads: usize,
    tracer: &Tracer,
    name: &'static str,
) -> (Vec<Signature>, GraphCacheStats, f64) {
    let mut sigs = Vec::new();
    let mut merged = GraphCacheStats::default();
    let t = Instant::now();
    for (req, job) in jobs.iter().enumerate() {
        let (reports, stats) = tracer.span(name, req as u64, || {
            check_over_sweep_with_stats(&job.model, &job.specs, &job.valuations, options, threads)
        });
        sigs.push(gate::signature(&reports));
        merged.merge(&stats);
    }
    (sigs, merged, ms(t.elapsed()))
}

/// The traced run: per-layer metrics of the batch workload.  Every figure
/// covers a fixed unit of work: the spans are those of exactly one traced
/// replay, one sweep of each kind and, on `family-sweep`, one serve
/// session, however many replays the overhead figure needed.
pub fn run_traced(kind: Kind, seed: u64, seconds: f64, out: &std::path::Path) -> Report {
    let mut report = Report::default();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let jobs = setup(&sources(kind));
    report.attempted = jobs.len() as u64;

    // tracing overhead: the same replay untraced, then traced, alternating,
    // after a discarded replay that pays the cold costs; each traced replay
    // records into a fresh tracer and the first one's spans are kept
    replay_layers(&jobs, &Tracer::new(false));
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut kept = None;
    while traced.is_empty() || (started.elapsed() < budget / 3 && traced.len() < 5) {
        let t = Instant::now();
        replay_layers(&jobs, &Tracer::new(false));
        plain.push(t.elapsed().as_secs_f64());
        let tracer = Tracer::new(true);
        let t = Instant::now();
        let totals = replay_layers(&jobs, &tracer);
        traced.push(t.elapsed().as_secs_f64());
        kept.get_or_insert((tracer, totals));
    }
    let (tracer, totals) = kept.expect("at least one traced replay");
    let (plain_s, traced_s) = (
        stats::median(&plain).unwrap(),
        stats::median(&traced).unwrap(),
    );
    report.set(
        "trace.overhead_pct",
        100.0 * (traced_s - plain_s) / plain_s,
        traced.len(),
        format!("replay {traced_s:.3} s traced vs {plain_s:.3} s untraced"),
    );

    // the sweeps: default budget, budget 1, and fresh (no lineage)
    let default_threads = sweep_thread_budget(0);
    let (sig_inc, lineage, sweep_ms) = sweep_all(
        &jobs,
        CheckerOptions::default(),
        default_threads,
        &tracer,
        "ccchecker.sweep",
    );
    let (sig_seq, _, seq_ms) = sweep_all(
        &jobs,
        CheckerOptions::default(),
        1,
        &tracer,
        "ccchecker.sweep_sequential",
    );
    let (sig_fresh, _, fresh_ms) = sweep_all(
        &jobs,
        CheckerOptions::default().with_incremental_sweep(false),
        default_threads,
        &tracer,
        "ccchecker.sweep_fresh",
    );
    for (i, job) in jobs.iter().enumerate() {
        if sig_inc[i] != sig_fresh[i] {
            report.violation(format!(
                "{}: incremental and fresh sweeps differ in verdicts or counts",
                job.label
            ));
        }
        if sig_inc[i] != sig_seq[i] {
            report.violation(format!(
                "{}: the sweep at budget {default_threads} differs from budget 1",
                job.label
            ));
        }
    }

    let n = totals.check_all_ms.len();
    let check_all_s: f64 = totals.check_all_ms.iter().sum::<f64>() / 1e3;
    let us = |name: &str| stats::median(&tracer.durations_us(name)).unwrap_or(0.0);
    let count = |name: &str| tracer.durations_us(name).len();
    for (metric, span) in [
        ("ccprotocols.lookup_us", "ccprotocols.lookup"),
        ("ccprotocols.instantiate_us", "ccprotocols.instantiate"),
        ("ccta.single_round_us", "ccta.single_round"),
        ("cccore.obligations_us", "cccore.obligations"),
        ("cccore.select_valuations_us", "cccore.select_valuations"),
        ("cccore.fingerprint_us", "cccore.fingerprint"),
        ("cccounter.compile_us", "cccounter.compile"),
    ] {
        report.set(metric, us(span), count(span), "median span");
    }
    report.set("cccounter.systems", totals.systems as f64, 1, "per replay");
    report.latency(
        &totals.check_all_ms,
        "ccchecker.check_all_p50_ms",
        "ccchecker.check_all_p99_ms",
    );
    report.set(
        "ccchecker.states",
        totals.states as f64,
        n,
        "explored, per replay",
    );
    report.set(
        "ccchecker.transitions",
        totals.transitions as f64,
        n,
        "explored, per replay",
    );
    report.set(
        "ccchecker.states_per_s",
        totals.states as f64 / check_all_s.max(1e-9),
        n,
        "lineage-free check_all",
    );
    report.set(
        "ccchecker.resident_mb",
        totals.peak_resident as f64 / (1024.0 * 1024.0),
        n,
        "largest single check_all",
    );
    report.set(
        "ccchecker.sweep_ms",
        sweep_ms,
        jobs.len(),
        "all jobs, default budget",
    );
    report.set(
        "ccchecker.parallel_speedup",
        seq_ms / sweep_ms.max(1e-9),
        jobs.len(),
        format!("budget 1 over budget {default_threads}"),
    );
    for (metric, value) in [
        ("lineage.reused", lineage.reused_groups()),
        ("lineage.extended", lineage.extended_groups()),
        ("lineage.pruned", lineage.pruned_groups()),
        ("lineage.rebuilt", lineage.rebuilt_groups()),
        ("lineage.seed_frontier", lineage.seed_frontier_total()),
        ("lineage.pruned_actions", lineage.pruned_actions_total()),
        ("lineage.memo_hits", lineage.memo_hits()),
        ("lineage.memo_misses", lineage.memo_misses()),
    ] {
        report.set(
            metric,
            value as f64,
            lineage.groups.len(),
            "groups of one sweep pass",
        );
    }
    report.set(
        "lineage.memo_hit_rate",
        lineage.memo_hit_rate(),
        lineage.groups.len(),
        "",
    );
    report.set(
        "lineage.amortization",
        lineage.amortization(),
        lineage.groups.len(),
        "obligations per exploration paid",
    );
    report.set(
        "lineage.parked_ratio",
        lineage.parked_compression(),
        lineage.groups.len(),
        "parked / resident bytes",
    );
    report.set(
        "lineage.saving_ms",
        fresh_ms - sweep_ms,
        jobs.len(),
        format!("fresh {fresh_ms:.1} ms - incremental {sweep_ms:.1} ms"),
    );
    if kind == Kind::Family {
        // the daemon-side layers are measured on the family workload's
        // traced run, by a short serve session recording into the same
        // tracer
        report.merge(crate::serve::session(
            seed,
            seconds * SERVE_SHARE,
            &out.join("serve"),
            &tracer,
        ));
    }
    report.self_times(&tracer);
    if kind == Kind::Table2 {
        // no daemon runs on this workload
        report.idle(crate::report::PER_LAYER);
    }
    if let Err(e) = tracer.write_jsonl(&out.join("spans.jsonl")) {
        eprintln!("perfbench: cannot write spans: {e}");
    }
    report
}

/// The share of a traced family-sweep run given to its serve session.
const SERVE_SHARE: f64 = 0.4;
