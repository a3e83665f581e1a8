//! Checking queries over a sweep of admissible parameter valuations.
//!
//! ByMC establishes each query for *all* admissible parameters.  The
//! reproduction instead checks every query on a family of small admissible
//! valuations (the sweep); a query "holds" if it holds on every member of the
//! sweep and is "violated" as soon as one member yields a counterexample.
//!
//! # Two-level parallelism
//!
//! The `query × valuation` grid is embarrassingly parallel, and each cell's
//! exploration can itself run on multiple workers (see [`crate::explorer`]).
//! [`check_over_sweep`] therefore splits one *thread budget* across both
//! levels: enough outer workers to cover the grid, and the remaining factor
//! handed to each cell as in-check workers.  A 16-thread budget over a
//! 4-cell grid runs 4 cells concurrently with 4 workers each; a single huge
//! cell gets all 16 workers.  The budget comes from
//! [`check_over_sweep_with_threads`]'s argument, or (for
//! [`check_over_sweep`]) from the `CC_SWEEP_THREADS` environment variable,
//! falling back to the available parallelism; an explicit
//! [`CheckerOptions::workers`] setting always wins over the derived
//! per-cell worker count.
//!
//! Reports keep the deterministic sequential semantics regardless of any of
//! these knobs: outcomes are assembled in valuation order, and every grid
//! cell that a sequential sweep would never have reached (because an earlier
//! valuation of the same query violated) is reported as an explicit
//! *skipped* outcome — so each report accounts for every cell of the grid,
//! and cancelled work is visible instead of silently dropped.
//!
//! # Graph-cache batching
//!
//! With the reachability-graph cache enabled (the default, see the "Graph
//! cache" section of the crate docs), the unit of scheduled work is a whole
//! *valuation* rather than a single `(query, valuation)` cell: one
//! [`ExplicitChecker`] per valuation runs the full spec slice through
//! cached checks, so every query sharing a start restriction reuses one
//! exploration of that valuation's reachable graph.  Per-cell outcomes,
//! durations, skipped records and the deterministic assembly are unchanged;
//! [`check_over_sweep_with_stats`] additionally returns the aggregated
//! cache accounting in valuation order.
//!
//! # Job lifecycle
//!
//! [`check_over_sweep_cancellable`] runs the same grid under a
//! [`CancelToken`] and a [`JobBudget`]: the cancel token and the budget's
//! deadline are polled between cells (and at wave boundaries inside each
//! cell), and the budget's state/transition/resident caps apply to each
//! cell individually.  Every cell then carries a [`CellDisposition`]:
//! `Completed` cells ran to a verdict, `Skipped` cells were cancelled by an
//! earlier violation of the same query, `Interrupted` cells were stopped by
//! a job signal (mid-cell or before they were ever reached), and `Failed`
//! cells panicked twice — once on the shared pool and once more after being
//! re-dispatched on a fresh pool without any lineage — without disturbing
//! their siblings.  The four dispositions partition the grid, so
//! `completed + skipped + interrupted + failed` always equals the grid
//! size.  [`resume_sweep`] continues an interrupted sweep from its reports,
//! carrying completed cells over verbatim and recomputing the rest; a
//! resumed sweep that runs to completion is bit-identical to an
//! uninterrupted run.

use crate::explicit::{CheckerOptions, ExplicitChecker};
use crate::explorer::{resolved_graph_cache, resolved_workers};
use crate::graph::GraphLineage;
use crate::job::{CancelToken, InterruptKind, JobBudget, JobSignals};
use crate::pool::WorkerPool;
use crate::result::{CheckOutcome, CheckStatus, GraphCacheStats};
use crate::retry::{run_with_retry, RetryPolicy};
use crate::spec::Spec;
use cccounter::CounterSystem;
use ccta::{ParamValuation, SystemModel};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How one grid cell of a sweep ended up in its report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellDisposition {
    /// The check ran to a verdict (or an in-check exploration bound).
    Completed,
    /// Cancelled because an earlier valuation of the same query violated.
    Skipped,
    /// Stopped by a job signal — a tripped [`CancelToken`], deadline or
    /// budget cap — either mid-cell (the outcome then carries the partial
    /// state/transition counts) or before the cell was ever dispatched.
    /// Interrupted cells are recomputed by [`resume_sweep`].
    Interrupted,
    /// The cell panicked on the shared pool *and* once more after being
    /// re-dispatched on a fresh pool without a lineage; its outcome detail
    /// carries the panic message and lane backtrace.  Sibling cells are
    /// unaffected.
    Failed,
}

/// The outcome of one query on one parameter valuation.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// The parameter valuation checked.
    pub params: ParamValuation,
    /// The outcome of the check.
    pub outcome: CheckOutcome,
    /// Wall-clock time of the check.
    pub duration: Duration,
    /// Whether this cell was skipped (cancelled because an earlier
    /// valuation of the same query already violated); skipped cells carry
    /// an empty `Unknown` outcome and a zero duration.
    pub skipped: bool,
    /// How the cell ended up in the report; `skipped` is `true` exactly
    /// when this is [`CellDisposition::Skipped`].
    pub disposition: CellDisposition,
}

impl SweepOutcome {
    /// A cell that was actually checked; an interrupted check outcome
    /// (cancel, deadline or budget tripped mid-cell) is recorded as an
    /// [`CellDisposition::Interrupted`] cell with its partial counts.
    fn completed(params: ParamValuation, outcome: CheckOutcome, duration: Duration) -> Self {
        let disposition = if outcome.is_interrupted() {
            CellDisposition::Interrupted
        } else {
            CellDisposition::Completed
        };
        SweepOutcome {
            params,
            outcome,
            duration,
            skipped: false,
            disposition,
        }
    }

    /// The explicit record of a cancelled grid cell.
    fn skipped(params: ParamValuation) -> Self {
        SweepOutcome {
            params,
            outcome: CheckOutcome::unknown(0, 0, "skipped: an earlier valuation violated"),
            duration: Duration::ZERO,
            skipped: true,
            disposition: CellDisposition::Skipped,
        }
    }

    /// The explicit record of a cell a job signal stopped the sweep from
    /// ever dispatching.
    fn interrupted(params: ParamValuation, kind: InterruptKind) -> Self {
        SweepOutcome {
            params,
            outcome: CheckOutcome::interrupted(0, 0, kind),
            duration: Duration::ZERO,
            skipped: false,
            disposition: CellDisposition::Interrupted,
        }
    }

    /// The explicit record of a cell that panicked twice.
    fn failed(params: ParamValuation, detail: String, duration: Duration) -> Self {
        SweepOutcome {
            params,
            outcome: CheckOutcome::unknown(0, 0, format!("failed: {detail}")),
            duration,
            skipped: false,
            disposition: CellDisposition::Failed,
        }
    }
}

/// The aggregated result of one query over the whole sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Name of the query.
    pub spec_name: String,
    /// The query rendered in Table-III notation.
    pub formula: String,
    /// Per-valuation outcomes, one per admissible valuation of the sweep;
    /// cells after a query's first violation are explicit skipped records.
    pub outcomes: Vec<SweepOutcome>,
}

impl SweepReport {
    /// The overall status: `Violated` if any valuation produced a
    /// counterexample, `Unknown` if some check was inconclusive and none was
    /// violated, `Holds` otherwise.  Skipped cells never influence the
    /// status.
    pub fn status(&self) -> CheckStatus {
        if self
            .outcomes
            .iter()
            .any(|o| o.outcome.status == CheckStatus::Violated)
        {
            CheckStatus::Violated
        } else if self
            .outcomes
            .iter()
            .any(|o| !o.skipped && o.outcome.status == CheckStatus::Unknown)
        {
            CheckStatus::Unknown
        } else {
            CheckStatus::Holds
        }
    }

    /// Whether the query holds on every member of the sweep.
    pub fn holds(&self) -> bool {
        self.status() == CheckStatus::Holds
    }

    /// The first violating outcome, if any.
    pub fn first_violation(&self) -> Option<&SweepOutcome> {
        self.outcomes
            .iter()
            .find(|o| o.outcome.status == CheckStatus::Violated)
    }

    /// Number of grid cells that were skipped after an earlier violation.
    pub fn skipped_cells(&self) -> usize {
        self.outcomes.iter().filter(|o| o.skipped).count()
    }

    /// Number of grid cells a job signal interrupted (mid-cell or before
    /// dispatch); these are the cells [`resume_sweep`] recomputes.
    pub fn interrupted_cells(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.disposition == CellDisposition::Interrupted)
            .count()
    }

    /// Number of grid cells that panicked twice and were given up on.
    pub fn failed_cells(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.disposition == CellDisposition::Failed)
            .count()
    }

    /// Total number of explored states across the sweep (skipped cells
    /// contribute nothing).
    pub fn total_states(&self) -> usize {
        self.outcomes
            .iter()
            .map(|o| o.outcome.states_explored)
            .sum()
    }

    /// Total wall-clock time across the sweep.
    pub fn total_time(&self) -> Duration {
        self.outcomes.iter().map(|o| o.duration).sum()
    }
}

/// Resolves a sweep thread budget: an explicit non-zero request wins,
/// otherwise `CC_SWEEP_THREADS`, otherwise the available parallelism,
/// cached process-wide like the other auto knobs.
pub fn sweep_thread_budget(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    static AUTO: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    crate::explorer::cached_env_usize(&AUTO, "CC_SWEEP_THREADS", || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Renders a panic payload for a failed-cell record.
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs one cell attempt under `catch_unwind`, recovering the panic message
/// plus the deepest available backtrace on failure — the poisoned pool
/// lane's if the panic unwound out of a worker, the sweep thread's own
/// otherwise.
fn catch_cell(
    pool: &WorkerPool,
    attempt: impl FnOnce() -> CheckOutcome,
) -> Result<CheckOutcome, String> {
    match catch_unwind(AssertUnwindSafe(attempt)) {
        Ok(outcome) => Ok(outcome),
        Err(payload) => {
            let message = payload_message(payload.as_ref());
            let backtrace = pool
                .take_panic_backtrace()
                .or_else(crate::pool::take_thread_backtrace);
            Err(match backtrace {
                Some(bt) => format!("{message}\n{bt}"),
                None => message,
            })
        }
    }
}

/// The sweep-cell retry policy: PR 6's one-shot fresh-pool retry expressed
/// through the shared [`crate::retry`] supervisor — two attempts, no
/// backoff (a panic is not a transient overload; sleeping would only delay
/// the sibling cells' worker).
fn cell_retry_policy() -> RetryPolicy {
    RetryPolicy::attempts(2)
}

/// One cell of the `query × valuation` grid, run on the sweep worker's
/// shared pool (one pool per worker, reused across all its cells).  A
/// panicking cell fails alone: the shared [`crate::retry`] supervisor
/// re-dispatches it exactly once on a fresh pool and a fresh checker, and
/// only a second panic produces a [`CellDisposition::Failed`] record.
fn run_one(
    sys: &CounterSystem,
    spec: &Spec,
    options: CheckerOptions,
    pool: &WorkerPool,
    job: Option<&JobSignals>,
) -> SweepOutcome {
    let started = Instant::now();
    let result = run_with_retry(&cell_retry_policy(), 0, |attempt| {
        let fresh;
        let attempt_pool = if attempt == 0 {
            pool
        } else {
            fresh = WorkerPool::new(resolved_workers(&options));
            &fresh
        };
        catch_cell(attempt_pool, || {
            crate::fault::maybe_fire(crate::fault::SITE_SWEEP_CELL);
            let mut checker = ExplicitChecker::with_pool(sys, options, attempt_pool);
            checker.set_signals(job);
            checker.check(spec)
        })
    });
    match result {
        Ok(outcome) => SweepOutcome::completed(sys.params().clone(), outcome, started.elapsed()),
        Err(detail) => SweepOutcome::failed(sys.params().clone(), detail, started.elapsed()),
    }
}

/// One cached-path cell: served by the valuation's shared checker (and its
/// graph memo) on the happy path; a panicking cell is re-dispatched once on
/// a fresh pool and a fresh lineage-free checker — the fresh-rebuild path —
/// before being reported failed.
fn run_cached_cell(
    checker: &ExplicitChecker,
    pool: &WorkerPool,
    sys: &CounterSystem,
    spec: &Spec,
    options: CheckerOptions,
    job: Option<&JobSignals>,
) -> SweepOutcome {
    let started = Instant::now();
    let result = run_with_retry(&cell_retry_policy(), 0, |attempt| {
        if attempt == 0 {
            catch_cell(pool, || {
                crate::fault::maybe_fire(crate::fault::SITE_SWEEP_CELL);
                checker.check_cached(spec)
            })
        } else {
            let fresh = WorkerPool::new(resolved_workers(&options));
            catch_cell(&fresh, || {
                crate::fault::maybe_fire(crate::fault::SITE_SWEEP_CELL);
                let mut retry = ExplicitChecker::with_pool(sys, options, &fresh);
                retry.set_signals(job);
                retry.check_cached(spec)
            })
        }
    });
    match result {
        Ok(outcome) => SweepOutcome::completed(sys.params().clone(), outcome, started.elapsed()),
        Err(detail) => SweepOutcome::failed(sys.params().clone(), detail, started.elapsed()),
    }
}

/// Checks each query on every valuation of the sweep, in parallel.
///
/// The model must be a single-round model (Definition 3).  Valuations that
/// are not admissible for the model's environment are dropped before the
/// grid is formed.  The report for each query lists one outcome per grid
/// cell in valuation order; cells after the query's first violation are
/// explicit skipped records, exactly as a sequential sweep would have left
/// them unchecked.
pub fn check_over_sweep(
    model: &SystemModel,
    specs: &[Spec],
    valuations: &[ParamValuation],
    options: CheckerOptions,
) -> Vec<SweepReport> {
    check_over_sweep_with_threads(model, specs, valuations, options, sweep_thread_budget(0))
}

/// [`check_over_sweep`] with an explicit total thread budget, bypassing the
/// `CC_SWEEP_THREADS` environment lookup.  The budget is split between grid
/// cells and in-check workers (see the module docs); `1` forces the fully
/// sequential path.
pub fn check_over_sweep_with_threads(
    model: &SystemModel,
    specs: &[Spec],
    valuations: &[ParamValuation],
    options: CheckerOptions,
    threads: usize,
) -> Vec<SweepReport> {
    check_over_sweep_with_stats(model, specs, valuations, options, threads).0
}

/// [`check_over_sweep_with_threads`] plus the aggregated graph-cache
/// accounting of the sweep (merged in valuation order; empty when the cache
/// is disabled).
pub fn check_over_sweep_with_stats(
    model: &SystemModel,
    specs: &[Spec],
    valuations: &[ParamValuation],
    options: CheckerOptions,
    threads: usize,
) -> (Vec<SweepReport>, GraphCacheStats) {
    sweep_impl(model, specs, valuations, options, threads, None, None)
}

/// [`check_over_sweep_with_threads`] under a job lifecycle: the sweep polls
/// `cancel` and the budget's deadline before every cell (and the cell's own
/// exploration polls them at wave boundaries, so cancellation latency is
/// one wave), and applies the budget's state/transition/resident caps to
/// each cell individually.  Cells the sweep never reached are explicit
/// [`CellDisposition::Interrupted`] records; feed the reports to
/// [`resume_sweep`] to continue without redoing completed cells.  With a
/// never-cancelled token and an unlimited budget this is exactly
/// [`check_over_sweep_with_stats`].
pub fn check_over_sweep_cancellable(
    model: &SystemModel,
    specs: &[Spec],
    valuations: &[ParamValuation],
    options: CheckerOptions,
    threads: usize,
    cancel: &CancelToken,
    budget: JobBudget,
) -> (Vec<SweepReport>, GraphCacheStats) {
    let signals = JobSignals::new(cancel.clone(), budget);
    sweep_impl(
        model,
        specs,
        valuations,
        options,
        threads,
        Some(&signals),
        None,
    )
}

/// Resumes an interrupted sweep from its reports: completed cells of
/// `prior` are carried over verbatim (outcome, duration and all), their
/// violations keep cancelling later cells of the same query, and only
/// interrupted, failed and skipped-by-violation cells are recomputed or
/// re-derived.  Cells are deterministic and recomputed whole, so a resumed
/// sweep that runs to completion is bit-identical to an uninterrupted
/// [`check_over_sweep_cancellable`] run; the returned cache stats account
/// only the resumed work.  `prior` must come from a sweep of the same
/// model, specs and valuations (the grid shapes are asserted).
#[allow(clippy::too_many_arguments)]
pub fn resume_sweep(
    model: &SystemModel,
    specs: &[Spec],
    valuations: &[ParamValuation],
    options: CheckerOptions,
    threads: usize,
    cancel: &CancelToken,
    budget: JobBudget,
    prior: &[SweepReport],
) -> (Vec<SweepReport>, GraphCacheStats) {
    let signals = JobSignals::new(cancel.clone(), budget);
    sweep_impl(
        model,
        specs,
        valuations,
        options,
        threads,
        Some(&signals),
        Some(prior),
    )
}

/// The shared sweep driver behind the plain, cancellable and resuming entry
/// points: forms the grid, prefills it from a resumed run, dispatches the
/// schedulers and assembles the deterministic reports.
fn sweep_impl(
    model: &SystemModel,
    specs: &[Spec],
    valuations: &[ParamValuation],
    options: CheckerOptions,
    threads: usize,
    job: Option<&JobSignals>,
    prior: Option<&[SweepReport]>,
) -> (Vec<SweepReport>, GraphCacheStats) {
    let systems: Vec<CounterSystem> = valuations
        .iter()
        .filter_map(|v| CounterSystem::new(model.clone(), v.clone()).ok())
        .collect();
    let width = systems.len();
    let total = specs.len() * width;
    let budget = threads.max(1);
    let use_cache = resolved_graph_cache(&options);
    // with the graph cache the scheduled unit is a whole valuation (its
    // spec slice shares cached graphs), otherwise a single grid cell
    let items = if use_cache { width } else { total };
    let outer = budget.min(items.max(1));
    // the budget left over after covering the work items goes into each
    // cell, unless the caller pinned an in-check worker count explicitly
    let cell_options = if options.workers == 0 {
        options.with_workers((budget / outer.max(1)).max(1))
    } else {
        options
    };

    // one slot per (spec, valuation) cell, filled by the workers, plus one
    // cache-accounting slot per valuation
    let mut slots: Vec<Option<SweepOutcome>> = Vec::new();
    slots.resize_with(total, || None);
    let mut stats_slots: Vec<Option<GraphCacheStats>> = Vec::new();
    stats_slots.resize_with(width, || None);

    // resume: completed cells of the prior run are carried over verbatim;
    // interrupted, failed and skipped cells stay empty and are recomputed
    // (or re-derived by the assembly below)
    if let Some(prior) = prior {
        assert_eq!(
            prior.len(),
            specs.len(),
            "resume_sweep: prior reports do not match the spec slice"
        );
        for (s, report) in prior.iter().enumerate() {
            assert_eq!(
                report.outcomes.len(),
                width,
                "resume_sweep: prior grid width does not match the valuations"
            );
            for (v, cell) in report.outcomes.iter().enumerate() {
                if cell.disposition == CellDisposition::Completed {
                    slots[s * width + v] = Some(cell.clone());
                }
            }
        }
    }
    // violations carried over from a resumed run keep cancelling the rest
    // of their row, exactly as if this run had produced them
    let violated_seed: Vec<usize> = (0..specs.len())
        .map(|s| {
            slots[s * width..(s + 1) * width]
                .iter()
                .position(|slot| {
                    slot.as_ref()
                        .is_some_and(|c| c.outcome.status == CheckStatus::Violated)
                })
                .unwrap_or(usize::MAX)
        })
        .collect();

    if use_cache {
        run_cached_batches(
            specs,
            &systems,
            cell_options,
            outer,
            job,
            &violated_seed,
            &mut slots,
            &mut stats_slots,
        );
    } else if outer <= 1 || total <= 1 {
        // sequential fast path: one pool for the whole grid, skip a query's
        // remaining valuations after a violation, like the parallel
        // scheduler below
        let pool = WorkerPool::new(resolved_workers(&cell_options));
        let mut violated_at = violated_seed.clone();
        'grid: for (s, spec) in specs.iter().enumerate() {
            for (v, sys) in systems.iter().enumerate() {
                if violated_at[s] < v || slots[s * width + v].is_some() {
                    continue; // an earlier valuation violated, or resumed
                }
                if job.is_some_and(|j| j.fast_stop().is_some()) {
                    break 'grid;
                }
                let cell = run_one(sys, spec, cell_options, &pool, job);
                if cell.outcome.status == CheckStatus::Violated {
                    violated_at[s] = violated_at[s].min(v);
                }
                slots[s * width + v] = Some(cell);
            }
        }
    } else {
        // a lock-free work queue over the grid; `violated_at[s]` records the
        // smallest violating valuation index of query `s` so far, letting
        // workers cancel cells that a sequential sweep would never reach.
        // Each sweep worker owns one persistent in-check pool, shared
        // across every grid cell it processes.
        let next = AtomicUsize::new(0);
        let cell_workers = resolved_workers(&cell_options);
        let violated_at: Vec<AtomicUsize> =
            violated_seed.iter().map(|&v| AtomicUsize::new(v)).collect();
        let slot_refs: Vec<Mutex<&mut Option<SweepOutcome>>> =
            slots.iter_mut().map(Mutex::new).collect();
        std::thread::scope(|scope| {
            for _ in 0..outer {
                scope.spawn(|| {
                    let pool = WorkerPool::new(cell_workers);
                    loop {
                        if job.is_some_and(|j| j.fast_stop().is_some()) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        let (s, v) = (i / width, i % width);
                        if v > violated_at[s].load(Ordering::Acquire) {
                            continue; // cancelled: an earlier valuation violated
                        }
                        if slot_refs[i].lock().unwrap().is_some() {
                            continue; // carried over from the resumed run
                        }
                        let cell = run_one(&systems[v], &specs[s], cell_options, &pool, job);
                        if cell.outcome.status == CheckStatus::Violated {
                            violated_at[s].fetch_min(v, Ordering::AcqRel);
                        }
                        **slot_refs[i].lock().unwrap() = Some(cell);
                    }
                });
            }
        });
    }

    // cache accounting, merged in valuation order regardless of which
    // worker processed which valuation
    let mut stats = GraphCacheStats::default();
    for s in stats_slots.into_iter().flatten() {
        stats.merge(&s);
    }

    // deterministic assembly: valuation order; every cell past the query's
    // first violation becomes an explicit skipped record, even if a parallel
    // worker happened to compute it before the cancellation landed, and
    // every cell a job signal stopped the schedulers from reaching becomes
    // an explicit interrupted record
    let trip = job.and_then(|j| j.fast_stop());
    let reports = specs
        .iter()
        .enumerate()
        .map(|(s, spec)| {
            let row = &mut slots[s * width..(s + 1) * width];
            let first_violation = row.iter().position(|slot| {
                slot.as_ref()
                    .is_some_and(|c| c.outcome.status == CheckStatus::Violated)
            });
            let outcomes = row
                .iter_mut()
                .enumerate()
                .map(|(v, slot)| {
                    let past_violation = first_violation.is_some_and(|fv| v > fv);
                    match slot.take() {
                        Some(cell) if !past_violation => cell,
                        _ if past_violation => SweepOutcome::skipped(systems[v].params().clone()),
                        _ => match trip {
                            Some(kind) => {
                                SweepOutcome::interrupted(systems[v].params().clone(), kind)
                            }
                            // unreachable without a live trip signal; account
                            // the cell as skipped rather than dropping it
                            None => SweepOutcome::skipped(systems[v].params().clone()),
                        },
                    }
                })
                .collect();
            SweepReport {
                spec_name: spec.name().to_string(),
                formula: spec.formula(model),
                outcomes,
            }
        })
        .collect();
    (reports, stats)
}

/// The graph-cached scheduler: each work item is one valuation, whose whole
/// spec slice runs on one [`ExplicitChecker`] so the obligations of a start
/// restriction share one cached reachability graph.  Specs already violated
/// at an earlier valuation are left unchecked (the assembly marks them
/// skipped), exactly like the per-cell scheduler.
///
/// Valuations are dispatched in *valuation order*: a parallel budget splits
/// the grid into contiguous valuation blocks (one sweep worker, one
/// in-check pool and one [`GraphLineage`] per block) instead of striding a
/// shared queue, so the cells of every start-restriction group that one
/// worker processes are guard-adjacent — the precondition for the
/// incremental sweep's reuse/extend classification — and the set of cells a
/// cancellation can race with is a stable function of the budget, not of
/// thread timing.
#[allow(clippy::too_many_arguments)]
fn run_cached_batches(
    specs: &[Spec],
    systems: &[CounterSystem],
    cell_options: CheckerOptions,
    outer: usize,
    job: Option<&JobSignals>,
    violated_seed: &[usize],
    slots: &mut [Option<SweepOutcome>],
    stats_slots: &mut [Option<GraphCacheStats>],
) {
    let width = systems.len();
    if outer <= 1 || width <= 1 {
        let pool = WorkerPool::new(resolved_workers(&cell_options));
        let lineage = GraphLineage::new();
        let mut violated_at = violated_seed.to_vec();
        'grid: for (v, sys) in systems.iter().enumerate() {
            if job.is_some_and(|j| j.fast_stop().is_some()) {
                break 'grid;
            }
            let mut checker =
                ExplicitChecker::with_pool_and_lineage(sys, cell_options, &pool, &lineage);
            checker.set_signals(job);
            for (s, spec) in specs.iter().enumerate() {
                if violated_at[s] < v || slots[s * width + v].is_some() {
                    continue; // an earlier valuation violated, or resumed
                }
                if job.is_some_and(|j| j.fast_stop().is_some()) {
                    stats_slots[v] = Some(checker.cache_stats());
                    break 'grid;
                }
                let cell = run_cached_cell(&checker, &pool, sys, spec, cell_options, job);
                if cell.outcome.status == CheckStatus::Violated {
                    violated_at[s] = violated_at[s].min(v);
                }
                slots[s * width + v] = Some(cell);
            }
            stats_slots[v] = Some(checker.cache_stats());
        }
    } else {
        let cell_workers = resolved_workers(&cell_options);
        let violated_at: Vec<AtomicUsize> =
            violated_seed.iter().map(|&v| AtomicUsize::new(v)).collect();
        let block = width.div_ceil(outer);
        let slot_refs: Vec<Mutex<&mut Option<SweepOutcome>>> =
            slots.iter_mut().map(Mutex::new).collect();
        let stats_refs: Vec<Mutex<&mut Option<GraphCacheStats>>> =
            stats_slots.iter_mut().map(Mutex::new).collect();
        std::thread::scope(|scope| {
            for worker in 0..outer {
                let range = worker * block..((worker + 1) * block).min(width);
                if range.is_empty() {
                    break;
                }
                let (violated_at, slot_refs, stats_refs) = (&violated_at, &slot_refs, &stats_refs);
                scope.spawn(move || {
                    let pool = WorkerPool::new(cell_workers);
                    let lineage = GraphLineage::new();
                    'block: for v in range {
                        if job.is_some_and(|j| j.fast_stop().is_some()) {
                            break 'block;
                        }
                        let sys = &systems[v];
                        let mut checker = ExplicitChecker::with_pool_and_lineage(
                            sys,
                            cell_options,
                            &pool,
                            &lineage,
                        );
                        checker.set_signals(job);
                        for (s, spec) in specs.iter().enumerate() {
                            if violated_at[s].load(Ordering::Acquire) < v
                                || slot_refs[s * width + v].lock().unwrap().is_some()
                            {
                                continue; // violated earlier, or resumed
                            }
                            if job.is_some_and(|j| j.fast_stop().is_some()) {
                                **stats_refs[v].lock().unwrap() = Some(checker.cache_stats());
                                break 'block;
                            }
                            let cell =
                                run_cached_cell(&checker, &pool, sys, spec, cell_options, job);
                            if cell.outcome.status == CheckStatus::Violated {
                                violated_at[s].fetch_min(v, Ordering::AcqRel);
                            }
                            **slot_refs[s * width + v].lock().unwrap() = Some(cell);
                        }
                        **stats_refs[v].lock().unwrap() = Some(checker.cache_stats());
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::result::GraphOrigin;
    use crate::spec::{LocSet, StartRestriction};
    use ccta::BinValue;

    fn sweep_valuations() -> Vec<ParamValuation> {
        vec![
            ParamValuation::new(vec![4, 1, 1, 1]),
            ParamValuation::new(vec![5, 1, 1, 1]),
            // inadmissible, must be skipped
            ParamValuation::new(vec![3, 1, 1, 1]),
        ]
    }

    #[test]
    fn sweep_aggregates_multiple_valuations() {
        let model = fixtures::voting_model().single_round().unwrap();
        let specs = vec![
            Spec::NeverFrom {
                name: "unreachable-I1".into(),
                start: StartRestriction::Unanimous(BinValue::Zero),
                forbidden: LocSet::from_names(&model, "I1", &["I1"]),
            },
            Spec::NeverFrom {
                name: "reachable-E0".into(),
                start: StartRestriction::Unanimous(BinValue::Zero),
                forbidden: LocSet::from_names(&model, "E0", &["E0"]),
            },
        ];
        let reports = check_over_sweep(
            &model,
            &specs,
            &sweep_valuations(),
            CheckerOptions::default(),
        );
        assert_eq!(reports.len(), 2);

        let holds = &reports[0];
        assert!(holds.holds());
        assert_eq!(holds.status(), CheckStatus::Holds);
        // two admissible valuations were checked
        assert_eq!(holds.outcomes.len(), 2);
        assert_eq!(holds.skipped_cells(), 0);
        assert_eq!(holds.interrupted_cells(), 0);
        assert_eq!(holds.failed_cells(), 0);
        assert!(holds.total_states() > 0);
        assert!(holds.first_violation().is_none());
        assert!(!holds.formula.is_empty());

        let violated = &reports[1];
        assert_eq!(violated.status(), CheckStatus::Violated);
        // stops at the first violating valuation; the cancelled second cell
        // is reported explicitly instead of dropped
        assert_eq!(violated.outcomes.len(), 2);
        assert_eq!(violated.skipped_cells(), 1);
        assert!(violated.outcomes[0].outcome.is_violated());
        assert_eq!(violated.outcomes[0].disposition, CellDisposition::Completed);
        assert!(violated.outcomes[1].skipped);
        assert_eq!(violated.outcomes[1].disposition, CellDisposition::Skipped);
        assert_eq!(violated.outcomes[1].outcome.states_explored, 0);
        assert!(violated.first_violation().is_some());
        assert!(violated.total_time() >= Duration::ZERO);
    }

    #[test]
    fn parallel_and_sequential_sweeps_agree() {
        let model = fixtures::voting_model().single_round().unwrap();
        let specs = vec![
            Spec::NeverFrom {
                name: "unreachable-I1".into(),
                start: StartRestriction::Unanimous(BinValue::Zero),
                forbidden: LocSet::from_names(&model, "I1", &["I1"]),
            },
            Spec::NeverFrom {
                name: "reachable-E0".into(),
                start: StartRestriction::Unanimous(BinValue::Zero),
                forbidden: LocSet::from_names(&model, "E0", &["E0"]),
            },
            Spec::NonBlocking {
                name: "termination".into(),
                start: StartRestriction::RoundStart,
            },
        ];
        let parallel = check_over_sweep_with_threads(
            &model,
            &specs,
            &sweep_valuations(),
            CheckerOptions::default(),
            4,
        );
        let sequential = check_over_sweep_with_threads(
            &model,
            &specs,
            &sweep_valuations(),
            CheckerOptions::default(),
            1,
        );
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.iter().zip(&sequential) {
            assert_eq!(p.spec_name, s.spec_name);
            assert_eq!(p.status(), s.status());
            assert_eq!(p.outcomes.len(), s.outcomes.len());
            for (po, so) in p.outcomes.iter().zip(&s.outcomes) {
                assert_eq!(po.params, so.params);
                assert_eq!(po.skipped, so.skipped);
                assert_eq!(po.disposition, so.disposition);
                assert_eq!(po.outcome.status, so.outcome.status);
                assert_eq!(po.outcome.states_explored, so.outcome.states_explored);
                assert_eq!(
                    po.outcome.transitions_explored,
                    so.outcome.transitions_explored
                );
            }
        }
    }

    #[test]
    fn thread_budget_feeds_in_check_workers() {
        // a 1-cell grid with a budget of 4 hands all four threads to the
        // single check; the result must match the sequential run exactly
        let model = fixtures::voting_model().single_round().unwrap();
        let specs = vec![Spec::NeverFrom {
            name: "unreachable-I1".into(),
            start: StartRestriction::Unanimous(BinValue::Zero),
            forbidden: LocSet::from_names(&model, "I1", &["I1"]),
        }];
        let valuations = [ParamValuation::new(vec![5, 1, 1, 1])];
        let wide = check_over_sweep_with_threads(
            &model,
            &specs,
            &valuations,
            CheckerOptions::default(),
            4,
        );
        let sequential = check_over_sweep_with_threads(
            &model,
            &specs,
            &valuations,
            CheckerOptions::sequential(),
            1,
        );
        assert_eq!(wide[0].status(), sequential[0].status());
        assert_eq!(wide[0].total_states(), sequential[0].total_states());
    }

    #[test]
    fn cancelled_sweep_accounts_every_grid_cell() {
        // A 2-query × 3-valuation grid where one query violates on its very
        // first valuation: whatever the thread budget — and whether the
        // cells run the plain or the wave-pooled in-check path — every grid
        // cell must be accounted for, as either a completed or an explicit
        // skipped outcome.
        let model = fixtures::voting_model().single_round().unwrap();
        let specs = vec![
            Spec::NeverFrom {
                name: "reachable-E0".into(),
                start: StartRestriction::Unanimous(BinValue::Zero),
                forbidden: LocSet::from_names(&model, "E0", &["E0"]),
            },
            Spec::NeverFrom {
                name: "unreachable-I1".into(),
                start: StartRestriction::Unanimous(BinValue::Zero),
                forbidden: LocSet::from_names(&model, "I1", &["I1"]),
            },
        ];
        let valuations = [
            ParamValuation::new(vec![4, 1, 1, 1]),
            ParamValuation::new(vec![5, 1, 1, 1]),
            ParamValuation::new(vec![6, 1, 1, 1]),
        ];
        let grid_width = valuations.len();
        let option_sets = [
            CheckerOptions::default(),
            // wave-pooled path: pooled workers with single-node waves
            CheckerOptions::default().with_workers(2).with_wave_size(1),
            // both sides of the incremental-sweep knob: the lineage must
            // never change which cells are completed vs skipped
            CheckerOptions::default().with_incremental_sweep(true),
            CheckerOptions::default().with_incremental_sweep(false),
        ];
        for options in option_sets {
            for threads in [1, 2, 8] {
                let reports =
                    check_over_sweep_with_threads(&model, &specs, &valuations, options, threads);
                assert_eq!(reports.len(), specs.len());
                for report in &reports {
                    let completed = report
                        .outcomes
                        .iter()
                        .filter(|o| o.disposition == CellDisposition::Completed)
                        .count();
                    assert_eq!(
                        completed
                            + report.skipped_cells()
                            + report.interrupted_cells()
                            + report.failed_cells(),
                        grid_width,
                        "{} at budget {threads} lost a grid cell",
                        report.spec_name
                    );
                }
                // the violating query stops after its first valuation, so
                // exactly the remaining cells are skipped — at every budget
                assert_eq!(reports[0].status(), CheckStatus::Violated);
                assert_eq!(reports[0].skipped_cells(), grid_width - 1);
                assert!(reports[0].outcomes[0].outcome.is_violated());
                assert_eq!(reports[1].status(), CheckStatus::Holds);
                assert_eq!(reports[1].skipped_cells(), 0);
            }
        }

        // the job-lifecycle variant distinguishes *interrupted* cells (a
        // tripped cancel token stopped the sweep) from *skipped* ones (an
        // earlier violation of the same query): a pre-cancelled sweep must
        // interrupt every cell, and the four dispositions together must
        // still account for the whole grid
        let cancel = CancelToken::new();
        cancel.cancel();
        let (cancelled, _) = check_over_sweep_cancellable(
            &model,
            &specs,
            &valuations,
            CheckerOptions::default(),
            2,
            &cancel,
            JobBudget::unlimited(),
        );
        for report in &cancelled {
            assert_eq!(report.outcomes.len(), grid_width);
            assert_eq!(
                report.interrupted_cells(),
                grid_width,
                "{}: a pre-cancelled sweep must interrupt every cell",
                report.spec_name
            );
            assert_eq!(report.skipped_cells(), 0);
            assert_eq!(report.failed_cells(), 0);
            assert_eq!(report.status(), CheckStatus::Unknown);
            for cell in &report.outcomes {
                assert!(cell.outcome.is_interrupted());
                assert!(!cell.skipped);
            }
        }

        // resuming the fully-interrupted sweep completes it, bit-identical
        // to an uninterrupted cancellable run — which in turn matches the
        // plain sweep
        let (resumed, _) = resume_sweep(
            &model,
            &specs,
            &valuations,
            CheckerOptions::default(),
            2,
            &CancelToken::new(),
            JobBudget::unlimited(),
            &cancelled,
        );
        let (reference, _) = check_over_sweep_cancellable(
            &model,
            &specs,
            &valuations,
            CheckerOptions::default(),
            1,
            &CancelToken::new(),
            JobBudget::unlimited(),
        );
        assert_reports_identical(&resumed, &reference, "resumed vs uninterrupted");
        let plain = check_over_sweep_with_threads(
            &model,
            &specs,
            &valuations,
            CheckerOptions::default(),
            1,
        );
        assert_reports_identical(&reference, &plain, "cancellable vs plain");
    }

    #[test]
    fn cached_and_uncached_sweeps_agree() {
        // the batched graph-cache scheduler and the per-cell scheduler must
        // produce reports of identical shape and verdict at every budget
        let model = fixtures::voting_model().single_round().unwrap();
        let specs = vec![
            Spec::NeverFrom {
                name: "reachable-E0".into(),
                start: StartRestriction::Unanimous(BinValue::Zero),
                forbidden: LocSet::from_names(&model, "E0", &["E0"]),
            },
            Spec::NeverFrom {
                name: "unreachable-I1".into(),
                start: StartRestriction::Unanimous(BinValue::Zero),
                forbidden: LocSet::from_names(&model, "I1", &["I1"]),
            },
            Spec::NonBlocking {
                name: "termination".into(),
                start: StartRestriction::RoundStart,
            },
        ];
        for threads in [1, 4] {
            let (cached, stats) = check_over_sweep_with_stats(
                &model,
                &specs,
                &sweep_valuations(),
                CheckerOptions::default().with_graph_cache(true),
                threads,
            );
            let (uncached, no_stats) = check_over_sweep_with_stats(
                &model,
                &specs,
                &sweep_valuations(),
                CheckerOptions::default().with_graph_cache(false),
                threads,
            );
            assert!(stats.graphs_built() > 0);
            // 3 specs x 2 admissible valuations, minus the cell skipped
            // after the first violation — which a parallel worker may have
            // computed anyway before the cancellation landed
            let checked = stats.specs_served() + stats.uncached_specs;
            assert!((5..=6).contains(&checked), "{checked}");
            assert_eq!(no_stats.graphs_built(), 0);
            for (c, u) in cached.iter().zip(&uncached) {
                assert_eq!(c.spec_name, u.spec_name);
                assert_eq!(c.status(), u.status(), "{} at {threads}", c.spec_name);
                assert_eq!(c.outcomes.len(), u.outcomes.len());
                for (co, uo) in c.outcomes.iter().zip(&u.outcomes) {
                    assert_eq!(co.params, uo.params);
                    assert_eq!(co.skipped, uo.skipped, "{}", c.spec_name);
                    assert_eq!(co.disposition, uo.disposition, "{}", c.spec_name);
                    assert_eq!(co.outcome.status, uo.outcome.status, "{}", c.spec_name);
                }
            }
        }
    }

    /// Deep equality of two sweep reports: statuses, per-cell outcomes,
    /// dispositions, counts and counterexample schedules, step for step.
    fn assert_reports_identical(a: &[SweepReport], b: &[SweepReport], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}");
        for (ra, rb) in a.iter().zip(b) {
            assert_eq!(ra.spec_name, rb.spec_name, "{ctx}");
            assert_eq!(ra.status(), rb.status(), "{ctx}: {}", ra.spec_name);
            assert_eq!(ra.outcomes.len(), rb.outcomes.len(), "{ctx}");
            for (oa, ob) in ra.outcomes.iter().zip(&rb.outcomes) {
                let cell = format!("{ctx}: {} at {}", ra.spec_name, oa.params);
                assert_eq!(oa.params, ob.params, "{cell}");
                assert_eq!(oa.skipped, ob.skipped, "{cell}");
                assert_eq!(oa.disposition, ob.disposition, "{cell}");
                assert_eq!(oa.outcome.status, ob.outcome.status, "{cell}");
                assert_eq!(
                    oa.outcome.states_explored, ob.outcome.states_explored,
                    "{cell}"
                );
                assert_eq!(
                    oa.outcome.transitions_explored, ob.outcome.transitions_explored,
                    "{cell}"
                );
                assert_eq!(oa.outcome.detail, ob.outcome.detail, "{cell}");
                match (&oa.outcome.counterexample, &ob.outcome.counterexample) {
                    (None, None) => {}
                    (Some(ca), Some(cb)) => {
                        assert_eq!(ca.initial, cb.initial, "{cell}");
                        assert_eq!(ca.schedule.steps(), cb.schedule.steps(), "{cell}");
                    }
                    _ => panic!("counterexample presence differs: {cell}"),
                }
            }
        }
    }

    #[test]
    fn incremental_and_fresh_sweeps_are_bit_identical() {
        // a guard-adjacent grid exercising every lineage classification:
        // [4,1,1,1] -> [7,1,1,1] changes the system size (rebuild),
        // -> [7,1,1,1] repeats the bounds (pure reuse),
        // -> [7,2,1,1] lowers the n-t-f quorum (relax-only extension),
        // -> [7,1,1,1] raises it back (tighten, in-place prune),
        // -> [7,0,0,1] adds a process (rebuild),
        // -> [7,1,0,1] -> [7,2,0,1] lowers the quorum twice in a row,
        // -> [7,0,0,1] raises it back (the prune leaves rows dormant),
        // -> [7,1,0,1] lowers it again (the extension reaches them again)
        let model = fixtures::voting_model().single_round().unwrap();
        let valuations = [
            ParamValuation::new(vec![4, 1, 1, 1]),
            ParamValuation::new(vec![7, 1, 1, 1]),
            ParamValuation::new(vec![7, 1, 1, 1]),
            ParamValuation::new(vec![7, 2, 1, 1]),
            ParamValuation::new(vec![7, 1, 1, 1]),
            ParamValuation::new(vec![7, 0, 0, 1]),
            ParamValuation::new(vec![7, 1, 0, 1]),
            ParamValuation::new(vec![7, 2, 0, 1]),
            ParamValuation::new(vec![7, 0, 0, 1]),
            ParamValuation::new(vec![7, 1, 0, 1]),
        ];
        let specs = vec![
            Spec::NeverFrom {
                name: "unreachable-I1".into(),
                start: StartRestriction::Unanimous(BinValue::Zero),
                forbidden: LocSet::from_names(&model, "I1", &["I1"]),
            },
            Spec::CoverNever {
                name: "cover".into(),
                start: StartRestriction::Unanimous(BinValue::Zero),
                trigger: LocSet::from_names(&model, "E0", &["E0"]),
                forbidden: LocSet::from_names(&model, "E1", &["E1"]),
            },
            Spec::NonBlocking {
                name: "termination".into(),
                start: StartRestriction::RoundStart,
            },
        ];
        for threads in [1, 3] {
            let (incremental, inc_stats) = check_over_sweep_with_stats(
                &model,
                &specs,
                &valuations,
                CheckerOptions::default()
                    .with_graph_cache(true)
                    .with_incremental_sweep(true),
                threads,
            );
            let (fresh, fresh_stats) = check_over_sweep_with_stats(
                &model,
                &specs,
                &valuations,
                CheckerOptions::default()
                    .with_graph_cache(true)
                    .with_incremental_sweep(false),
                threads,
            );
            assert_reports_identical(&incremental, &fresh, &format!("threads {threads}"));
            assert_eq!(fresh_stats.reused_groups(), 0);
            assert_eq!(fresh_stats.extended_groups(), 0);
            if threads == 1 {
                // one worker walks the whole grid in valuation order, so
                // every classification fires at least once
                assert!(inc_stats.reused_groups() > 0, "{inc_stats}");
                assert!(inc_stats.extended_groups() > 0, "{inc_stats}");
                assert!(inc_stats.rebuilt_groups() > 0, "{inc_stats}");
                assert!(inc_stats.pruned_groups() > 0, "{inc_stats}");
                assert!(inc_stats.memo_hits() > 0, "{inc_stats}");
                assert!(inc_stats.seed_frontier_total() > 0, "{inc_stats}");
                assert!(inc_stats.resident_bytes() > 0, "{inc_stats}");
                // lineage graphs stay resident between valuations; an
                // extended graph (derived parents, unreferenced CSR runs)
                // never holds more than twice the fresh build of its group
                assert_eq!(inc_stats.groups.len(), fresh_stats.groups.len());
                for (inc, fresh) in inc_stats.groups.iter().zip(&fresh_stats.groups) {
                    assert_eq!(inc.start, fresh.start);
                    if inc.origin == GraphOrigin::Extended {
                        assert!(
                            inc.resident_bytes <= 2 * fresh.resident_bytes,
                            "{inc:?} vs fresh {fresh:?}"
                        );
                    }
                }
                assert!(format!("{inc_stats}").contains("lineage"));
            }
        }
    }

    #[test]
    fn unknown_status_propagates() {
        let model = fixtures::voting_model().single_round().unwrap();
        let specs = vec![Spec::NeverFrom {
            name: "unreachable-I1".into(),
            start: StartRestriction::Unanimous(BinValue::Zero),
            forbidden: LocSet::from_names(&model, "I1", &["I1"]),
        }];
        let reports = check_over_sweep(
            &model,
            &specs,
            &[ParamValuation::new(vec![4, 1, 1, 1])],
            CheckerOptions {
                max_states: 1,
                max_transitions: 10,
                ..CheckerOptions::default()
            },
        );
        assert_eq!(reports[0].status(), CheckStatus::Unknown);
        assert!(!reports[0].holds());
    }
}
