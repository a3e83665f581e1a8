//! Checking queries over a sweep of admissible parameter valuations.
//!
//! ByMC establishes each query for *all* admissible parameters.  The
//! reproduction instead checks every query on a family of small admissible
//! valuations (the sweep); a query "holds" if it holds on every member of the
//! sweep and is "violated" as soon as one member yields a counterexample.
//!
//! # One scheduler: runs of the lineage
//!
//! The unit of scheduled work is a whole *valuation*: one
//! [`ExplicitChecker`] per valuation runs the full spec slice through
//! cached checks, so every query sharing a start restriction reuses one
//! exploration of that valuation's reachable graph.  The grid is cut into
//! *runs* at lineage breaks: a run is a maximal stretch of consecutive
//! valuations across which a [`GraphLineage`] carries each group's graph
//! (the process and coin counts stay put, and each guard step is
//! identical, relax-only, or tighten-only).  The graph
//! module's `carry_step` is that policy, and the lineage applies the same
//! function per group, so only a run's first valuation pays a full
//! exploration.  Runs are handed out in grid order through an atomic
//! cursor, and each sweep worker walks every run it takes on its own
//! thread, starting each run on an empty lineage, so no worker re-explores
//! a run another worker owns and the cache accounting does not depend on
//! which worker claimed which run.  Worker 0 is the calling thread: a
//! budget of 1 walks the whole grid, run after run, on the caller, with no
//! thread spawned.
//!
//! # Thread budget
//!
//! [`check_over_sweep_with_stats`] starts one sweep worker per thread of
//! its *thread budget*, at most one per run, and every check of a cell runs
//! on the worker that claimed the cell's run.  A 16-thread budget over a
//! grid of 4 runs starts 4 sweep workers; a grid that is one run is walked
//! by one.  [`sweep_thread_budget`] resolves a budget of `0` from the
//! `CC_SWEEP_THREADS` environment variable, falling back to the available
//! parallelism.
//!
//! Reports keep the deterministic sequential semantics regardless of the
//! budget: outcomes are assembled in valuation order, and every grid cell
//! that a sequential sweep would never have reached (because an earlier
//! valuation of the same query violated) is reported as an explicit
//! *skipped* outcome — so each report accounts for every cell of the grid,
//! and cancelled work is visible instead of silently dropped.  The
//! aggregated cache accounting is merged in valuation order.
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
//! cells panicked twice — once on the valuation's shared checker and once
//! more after being re-dispatched on a fresh checker without any lineage —
//! without disturbing their siblings.  The four dispositions partition the
//! grid, so `completed + skipped + interrupted + failed` always equals the
//! grid size.

use crate::explicit::{CheckerOptions, ExplicitChecker};
use crate::graph::{carry_step, GraphBasis, GraphLineage};
use crate::job::{CancelToken, InterruptKind, JobBudget, JobSignals};
use crate::result::{CheckOutcome, CheckStatus, GraphCacheStats};
use crate::retry::retry_once;
use crate::spec::Spec;
use cccounter::CounterSystem;
use ccta::{ParamValuation, SystemModel};
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::{Duration, Instant};

/// How one grid cell of a sweep ended up in its report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellDisposition {
    /// The check ran to a verdict (or a per-check exploration bound).
    Completed,
    /// Cancelled because an earlier valuation of the same query violated.
    Skipped,
    /// Stopped by a job signal — a tripped [`CancelToken`], deadline or
    /// budget cap — either mid-cell (the outcome then carries the partial
    /// state/transition counts) or before the cell was ever dispatched.
    Interrupted,
    /// The cell panicked on the valuation's shared checker *and* once more
    /// after being re-dispatched on a fresh checker without a lineage; its
    /// outcome detail carries the panic message and the backtrace of the
    /// second panic.  Sibling cells are unaffected.
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
    /// dispatch).
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

    /// Check time summed over the grid cells, each cell timed on its own;
    /// with more than one sweep worker this can exceed the sweep's wall
    /// time.
    pub fn total_time(&self) -> Duration {
        self.outcomes.iter().map(|o| o.duration).sum()
    }
}

/// Parses the value of `CC_SWEEP_THREADS`: a positive integer, or `None`
/// for anything else (zero included), so the budget falls back to its
/// default.
fn parse_positive(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// Resolves a sweep thread budget: an explicit non-zero request wins,
/// otherwise `CC_SWEEP_THREADS`, otherwise the available parallelism —
/// memoised process-wide because `available_parallelism` reads cgroup
/// files on Linux, which would tax every short sweep.
pub fn sweep_thread_budget(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        std::env::var("CC_SWEEP_THREADS")
            .ok()
            .and_then(|v| parse_positive(&v))
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

thread_local! {
    /// Backtrace captured by the chained panic hook for the most recent
    /// panic on this thread; consumed by [`take_thread_backtrace`].
    static LAST_BACKTRACE: Cell<Option<String>> = const { Cell::new(None) };
}

static HOOK_INSTALLED: Once = Once::new();

/// Chains a panic hook (once per process) that snapshots the panicking
/// thread's backtrace into a thread-local, so a caught cell panic can be
/// reported with the backtrace of the code that actually failed.
fn install_panic_hook() {
    HOOK_INSTALLED.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            LAST_BACKTRACE.with(|slot| {
                slot.set(Some(std::backtrace::Backtrace::force_capture().to_string()))
            });
            previous(info);
        }));
    });
}

/// Takes the backtrace of the most recent panic on the calling thread.
fn take_thread_backtrace() -> Option<String> {
    LAST_BACKTRACE.with(|slot| slot.take())
}

/// One grid cell: served by the valuation's shared checker (and its graph
/// memo) on the happy path.  A panicking cell fails alone: [`retry_once`]
/// re-dispatches it exactly once on a fresh lineage-free checker — the
/// fresh-rebuild path — and only a second panic produces a
/// [`CellDisposition::Failed`] record, carrying the panic message and the
/// panicking thread's backtrace.
fn run_cell(
    checker: &ExplicitChecker,
    sys: &CounterSystem,
    spec: &Spec,
    options: CheckerOptions,
    job: Option<&JobSignals>,
) -> SweepOutcome {
    let started = Instant::now();
    let result = retry_once(|attempt| {
        crate::fault::maybe_fire(crate::fault::SITE_SWEEP_CELL);
        if attempt == 0 {
            checker.check(spec)
        } else {
            let mut retry = ExplicitChecker::with_options(sys, options);
            retry.set_signals(job);
            retry.check(spec)
        }
    });
    match result {
        Ok(outcome) => SweepOutcome::completed(sys.params().clone(), outcome, started.elapsed()),
        Err(message) => {
            let detail = match take_thread_backtrace() {
                Some(bt) => format!("{message}\n{bt}"),
                None => message,
            };
            SweepOutcome::failed(sys.params().clone(), detail, started.elapsed())
        }
    }
}

/// Checks each query on every valuation of the sweep under a total thread
/// budget (see the module docs), returning the per-query reports plus the
/// aggregated graph-cache accounting of the sweep, merged in valuation
/// order.
///
/// The model must be a single-round model (Definition 3).  Valuations that
/// are not admissible for the model's environment are dropped before the
/// grid is formed.  The report for each query lists one outcome per grid
/// cell in valuation order; cells after the query's first violation are
/// explicit skipped records, exactly as a sequential sweep would have left
/// them unchecked.
pub fn check_over_sweep_with_stats(
    model: &SystemModel,
    specs: &[Spec],
    valuations: &[ParamValuation],
    options: CheckerOptions,
    threads: usize,
) -> (Vec<SweepReport>, GraphCacheStats) {
    sweep_impl(model, specs, valuations, options, threads, None)
}

/// [`check_over_sweep_with_stats`] under a job lifecycle: the sweep polls
/// `cancel` and the budget's deadline before every cell (and the cell's own
/// exploration polls them at wave boundaries, so cancellation latency is
/// one wave), and applies the budget's state/transition/resident caps to
/// each cell individually.  Cells the sweep never reached are explicit
/// [`CellDisposition::Interrupted`] records.  With a never-cancelled token
/// and an unlimited budget this is exactly [`check_over_sweep_with_stats`].
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
    sweep_impl(model, specs, valuations, options, threads, Some(&signals))
}

/// The sweep behind both entry points: forms the grid, cuts it into runs,
/// walks them on the sweep workers and assembles the deterministic reports.
fn sweep_impl(
    model: &SystemModel,
    specs: &[Spec],
    valuations: &[ParamValuation],
    options: CheckerOptions,
    threads: usize,
    job: Option<&JobSignals>,
) -> (Vec<SweepReport>, GraphCacheStats) {
    let systems: Vec<CounterSystem> = valuations
        .iter()
        .filter_map(|v| CounterSystem::new(model.clone(), v.clone()).ok())
        .collect();
    let width = systems.len();
    let runs = lineage_runs(&systems, &options);
    // one sweep worker per budget thread, at most one per run
    let workers = threads.min(runs.len()).max(1);
    install_panic_hook();

    // one slot per (valuation, spec) cell in valuation-major order, so each
    // run owns a contiguous stretch of slots, plus one cache-accounting slot
    // per valuation
    let mut slots: Vec<Option<SweepOutcome>> = Vec::new();
    slots.resize_with(width * specs.len(), || None);
    let mut stats_slots: Vec<Option<GraphCacheStats>> = Vec::new();
    stats_slots.resize_with(width, || None);
    let slot = |s: usize, v: usize| v * specs.len() + s;

    let violated_at = (0..specs.len())
        .map(|_| AtomicUsize::new(usize::MAX))
        .collect();
    let grid = Grid {
        specs,
        systems: &systems,
        options,
        job,
        violated_at,
    };

    if width > 0 && !specs.is_empty() {
        // the runs tile the grid in order, so each takes the next rows
        let mut rows = slots.chunks_mut(specs.len()).zip(stats_slots.iter_mut());
        let work: Vec<Mutex<Run>> = runs
            .iter()
            .map(|run| {
                Mutex::new(Run {
                    first: run.start,
                    rows: rows.by_ref().take(run.len()).collect(),
                })
            })
            .collect();
        let cursor = AtomicUsize::new(0);
        let (grid, cursor, work) = (&grid, &cursor, &work);
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(move || grid.run_worker(cursor, work));
            }
            grid.run_worker(cursor, work);
        });
    }

    // cache accounting, merged in valuation order regardless of which
    // worker processed which valuation
    let mut stats = GraphCacheStats::default();
    for s in stats_slots.into_iter().flatten() {
        stats.merge(&s);
    }

    // deterministic assembly: valuation order; every cell past the query's
    // first violation becomes an explicit skipped record, even if another
    // worker happened to compute it before the cancellation landed, and
    // every cell a job signal stopped the workers from reaching becomes an
    // explicit interrupted record
    let trip = job.and_then(|j| j.fast_stop());
    let reports = specs
        .iter()
        .enumerate()
        .map(|(s, spec)| {
            let first_violation = (0..width).position(|v| {
                slots[slot(s, v)]
                    .as_ref()
                    .is_some_and(|c| c.outcome.status == CheckStatus::Violated)
            });
            let outcomes = systems
                .iter()
                .enumerate()
                .map(|(v, sys)| {
                    let past_violation = first_violation.is_some_and(|fv| v > fv);
                    match slots[slot(s, v)].take() {
                        Some(cell) if !past_violation => cell,
                        _ if past_violation => SweepOutcome::skipped(sys.params().clone()),
                        _ => match trip {
                            Some(kind) => SweepOutcome::interrupted(sys.params().clone(), kind),
                            // unreachable without a live trip signal; account
                            // the cell as skipped rather than dropping it
                            None => SweepOutcome::skipped(sys.params().clone()),
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

/// The grid cut into runs: maximal stretches of consecutive valuations
/// across which [`carry_step`] carries a group graph.  A run starts at the
/// first valuation and at every lineage break, so only its first valuation
/// pays for a full exploration of each group.
fn lineage_runs(systems: &[CounterSystem], options: &CheckerOptions) -> Vec<Range<usize>> {
    let bases: Vec<GraphBasis> = systems.iter().map(GraphBasis::of).collect();
    let mut runs = Vec::new();
    let mut first = 0;
    for v in 1..=bases.len() {
        if v == bases.len() || carry_step(&bases[v - 1], &bases[v], options).is_none() {
            runs.push(first..v);
            first = v;
        }
    }
    runs
}

/// One run's share of the grid: its first column and, per valuation, the
/// cell slots of every spec plus the valuation's cache accounting.
struct Run<'a> {
    first: usize,
    rows: Vec<(
        &'a mut [Option<SweepOutcome>],
        &'a mut Option<GraphCacheStats>,
    )>,
}

/// What every worker of one sweep shares.
struct Grid<'a> {
    specs: &'a [Spec],
    systems: &'a [CounterSystem],
    options: CheckerOptions,
    job: Option<&'a JobSignals>,
    /// Per spec, the smallest valuation index that violated so far; later
    /// cells of the spec are left unchecked, whichever worker reaches them.
    violated_at: Vec<AtomicUsize>,
}

impl Grid<'_> {
    /// One sweep worker: claims runs in grid order through `cursor` and
    /// walks each on the calling thread.
    fn run_worker(&self, cursor: &AtomicUsize, runs: &[Mutex<Run>]) {
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(run) = runs.get(i) else { break };
            // uncontended: the cursor hands each run to exactly one worker;
            // the mutex only carries the &mut across threads
            let mut run = run.lock().expect("each run is locked once");
            self.walk_run(&mut run);
        }
    }

    /// Walks one run's valuations in order on a fresh [`GraphLineage`]:
    /// the run starts at a lineage break, so nothing an earlier run left
    /// behind could carry into it.  Each valuation runs its whole spec
    /// slice on one [`ExplicitChecker`], so the obligations of a start
    /// restriction share one cached reachability graph.
    fn walk_run(&self, run: &mut Run) {
        let lineage = GraphLineage::new();
        let systems = self.systems[run.first..].iter();
        for (v, (sys, (row, record))) in (run.first..).zip(systems.zip(&mut run.rows)) {
            if self.job.is_some_and(|j| j.fast_stop().is_some()) {
                return;
            }
            let mut checker = ExplicitChecker::with_lineage(sys, self.options, &lineage);
            checker.set_signals(self.job);
            // the valuation's live obligations: those no earlier valuation
            // violated
            checker.expect(
                (self.specs.iter().enumerate())
                    .filter(|&(s, _)| self.violated_at[s].load(Ordering::Acquire) >= v)
                    .map(|(_, spec)| spec),
            );
            for (s, (spec, slot)) in self.specs.iter().zip(row.iter_mut()).enumerate() {
                if self.violated_at[s].load(Ordering::Acquire) < v {
                    continue; // violated earlier
                }
                if self.job.is_some_and(|j| j.fast_stop().is_some()) {
                    **record = Some(checker.cache_stats());
                    return;
                }
                let cell = run_cell(&checker, sys, spec, self.options, self.job);
                if cell.outcome.status == CheckStatus::Violated {
                    self.violated_at[s].fetch_min(v, Ordering::AcqRel);
                }
                *slot = Some(cell);
            }
            **record = Some(checker.cache_stats());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::reference::reference_check;
    use crate::result::GraphOrigin;
    use crate::spec::{LocSet, StartRestriction};
    use ccta::BinValue;

    /// The reports of a plain sweep at the given budget.
    fn sweep(
        model: &SystemModel,
        specs: &[Spec],
        valuations: &[ParamValuation],
        options: CheckerOptions,
        threads: usize,
    ) -> Vec<SweepReport> {
        check_over_sweep_with_stats(model, specs, valuations, options, threads).0
    }

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
        let reports = sweep(
            &model,
            &specs,
            &sweep_valuations(),
            CheckerOptions::default(),
            sweep_thread_budget(0),
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
        let parallel = sweep(
            &model,
            &specs,
            &sweep_valuations(),
            CheckerOptions::default(),
            4,
        );
        let sequential = sweep(
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

        // two runs, three identical valuations then one more process: an
        // equal-width cut at budget 2 or 3 would land inside the first run
        // and re-explore it, while a cut at the lineage break explores each
        // group exactly as often as one worker does.  Each run starts on an
        // empty lineage, so how the groups were obtained does not depend on
        // which worker claimed which run, and the break is no rebuild.
        let valuations = [
            ParamValuation::new(vec![4, 1, 1, 1]),
            ParamValuation::new(vec![4, 1, 1, 1]),
            ParamValuation::new(vec![4, 1, 1, 1]),
            ParamValuation::new(vec![7, 1, 1, 1]),
        ];
        let options = CheckerOptions::default();
        let (single, single_stats) =
            check_over_sweep_with_stats(&model, &specs, &valuations, options, 1);
        let origins = |stats: &GraphCacheStats| {
            (
                stats.reused_groups(),
                stats.extended_groups(),
                stats.pruned_groups(),
                stats.rebuilt_groups(),
            )
        };
        for threads in [1, 2, 3] {
            let (split, split_stats) =
                check_over_sweep_with_stats(&model, &specs, &valuations, options, threads);
            assert_reports_identical(&split, &single, &format!("budget {threads}"));
            assert_eq!(
                split_stats.explorations_paid(),
                single_stats.explorations_paid(),
                "budget {threads}: {split_stats}"
            );
            assert_eq!(
                origins(&split_stats),
                origins(&single_stats),
                "budget {threads}: {split_stats}"
            );
            assert_eq!(
                split_stats.rebuilt_groups(),
                0,
                "budget {threads}: {split_stats}"
            );
        }
    }

    #[test]
    fn runs_start_at_every_lineage_break() {
        // [4,1,1,1] -> [7,1,1,1] adds processes (break), -> [7,2,1,1]
        // relaxes the quorum, -> [7,1,1,1] tightens it back (a prune, no
        // break), -> [7,0,0,1] adds a process (break), -> [7,1,0,1] relaxes
        let model = fixtures::voting_model().single_round().unwrap();
        let systems: Vec<CounterSystem> = [
            [4, 1, 1, 1],
            [7, 1, 1, 1],
            [7, 2, 1, 1],
            [7, 1, 1, 1],
            [7, 0, 0, 1],
            [7, 1, 0, 1],
        ]
        .into_iter()
        .map(|v| CounterSystem::new(model.clone(), ParamValuation::new(v.to_vec())).unwrap())
        .collect();
        let options = CheckerOptions::default();
        assert_eq!(lineage_runs(&systems, &options), vec![0..1, 1..4, 4..6]);
        let fresh = lineage_runs(&systems, &options.with_incremental_sweep(false));
        assert_eq!(fresh, (0..6).map(|v| v..v + 1).collect::<Vec<_>>());
        assert!(lineage_runs(&[], &options).is_empty());
    }

    #[test]
    fn cancelled_sweep_accounts_every_grid_cell() {
        // A 2-query × 3-valuation grid where one query violates on its very
        // first valuation: whatever the thread budget, every grid cell must
        // be accounted for, as either a completed or an explicit skipped
        // outcome.
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
            // the lineage off: it must never change which cells are
            // completed vs skipped
            CheckerOptions::default().with_incremental_sweep(false),
        ];
        for options in option_sets {
            for threads in [1, 2, 8] {
                let reports = sweep(&model, &specs, &valuations, options, threads);
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

        // an uninterrupted cancellable run matches the plain sweep
        let (reference, _) = check_over_sweep_cancellable(
            &model,
            &specs,
            &valuations,
            CheckerOptions::default(),
            1,
            &CancelToken::new(),
            JobBudget::unlimited(),
        );
        let plain = sweep(&model, &specs, &valuations, CheckerOptions::default(), 1);
        assert_reports_identical(&reference, &plain, "cancellable vs plain");
    }

    #[test]
    fn cached_and_uncached_sweeps_agree() {
        // every cell the cached sweep checked must match the reference
        // engine's per-spec search of that (query, valuation) at every
        // budget: verdict, counts and counterexample schedule
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
                CheckerOptions::default(),
                threads,
            );
            assert!(stats.graphs_built() > 0);
            // 3 specs x 2 admissible valuations, minus the cell skipped
            // after the first violation — which another worker may have
            // computed anyway before the cancellation landed
            let checked = stats.specs_served();
            assert!((5..=6).contains(&checked), "{checked}");
            for (report, spec) in cached.iter().zip(&specs) {
                assert_eq!(report.outcomes.len(), 2);
                for cell in report.outcomes.iter().filter(|c| !c.skipped) {
                    let sys = CounterSystem::new(model.clone(), cell.params.clone()).unwrap();
                    let reference = reference_check(&sys, spec, &CheckerOptions::default());
                    let ctx = format!(
                        "{} at {} on budget {threads}",
                        report.spec_name, cell.params
                    );
                    assert_eq!(cell.outcome.status, reference.status, "{ctx}");
                    assert_eq!(
                        cell.outcome.states_explored, reference.states_explored,
                        "{ctx}"
                    );
                    assert_eq!(
                        cell.outcome.transitions_explored, reference.transitions_explored,
                        "{ctx}"
                    );
                    assert_eq!(
                        cell.outcome
                            .counterexample
                            .as_ref()
                            .map(|ce| ce.schedule.steps()),
                        reference
                            .counterexample
                            .as_ref()
                            .map(|ce| ce.schedule.steps()),
                        "{ctx}"
                    );
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
        // [4,1,1,1] -> [7,1,1,1] changes the system size (a run break),
        // -> [7,1,1,1] repeats the bounds (pure reuse),
        // -> [7,2,1,1] lowers the n-t-f quorum (relax-only extension),
        // -> [7,1,1,1] raises it back (tighten, in-place prune),
        // -> [7,0,0,1] adds a process (a run break),
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
                CheckerOptions::default().with_incremental_sweep(true),
                threads,
            );
            let (fresh, fresh_stats) = check_over_sweep_with_stats(
                &model,
                &specs,
                &valuations,
                CheckerOptions::default().with_incremental_sweep(false),
                threads,
            );
            assert_reports_identical(&incremental, &fresh, &format!("threads {threads}"));
            assert_eq!(fresh_stats.reused_groups(), 0);
            assert_eq!(fresh_stats.extended_groups(), 0);
            if threads == 1 {
                // one worker walks the whole grid in valuation order, so
                // every carrying classification fires at least once; the two
                // size changes are run breaks, where a fresh lineage builds
                // rather than rebuilds
                assert!(inc_stats.reused_groups() > 0, "{inc_stats}");
                assert!(inc_stats.extended_groups() > 0, "{inc_stats}");
                assert_eq!(inc_stats.rebuilt_groups(), 0, "{inc_stats}");
                assert!(inc_stats.pruned_groups() > 0, "{inc_stats}");
                assert!(inc_stats.memo_hits() > 0, "{inc_stats}");
                assert!(inc_stats.seed_frontier_total() > 0, "{inc_stats}");
                assert!(inc_stats.resident_bytes() > 0, "{inc_stats}");
                // lineage graphs stay resident between valuations; an
                // extended graph (unreferenced CSR runs, dormant nodes)
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
    fn env_knobs_take_only_positive_integers() {
        assert_eq!(parse_positive("4"), Some(4));
        assert_eq!(parse_positive(" 2\n"), Some(2));
        // zero and garbage fall back to the default, like an unset variable
        for value in ["0", "", "-1", "two", "1.5"] {
            assert_eq!(parse_positive(value), None, "{value:?}");
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
        let reports = sweep(
            &model,
            &specs,
            &[ParamValuation::new(vec![4, 1, 1, 1])],
            CheckerOptions {
                max_states: 1,
                max_transitions: 10,
                ..CheckerOptions::default()
            },
            sweep_thread_budget(0),
        );
        assert_eq!(reports[0].status(), CheckStatus::Unknown);
        assert!(!reports[0].holds());
    }
}
