//! Check jobs: interruptible, budgeted batch checks.
//!
//! [`CheckJob`] wraps the batch check of [`crate::ExplicitChecker::check_all`]
//! in an explicit lifecycle: the job can be **cancelled** cooperatively
//! through a [`CancelToken`] and **bounded** by a [`JobBudget`] (deadline,
//! resident bytes).  A job that a signal stops gives back the outcomes it
//! answered ([`JobOutcome::Stopped`]).  Continuing it means running a fresh
//! job over the owed obligations: an obligation's outcome depends only on
//! its group's graph and the checker options, so the answered outcomes plus
//! the fresh job's equal an uninterrupted run in verdicts, state counts,
//! transition counts and counterexample schedules (the `random_differential`
//! stop-and-continue axis pins this).
//!
//! The mechanics live in two layers:
//!
//! * `JobSignals` is the shared, `Sync` signal block threaded through the
//!   `crate::explorer::Explorer`: polled at every wave boundary (all
//!   signals) and at analysis-pass strides (the fast cancel/deadline
//!   signals only).
//! * The job loop walks the obligation catalogue in spec order on one
//!   [`crate::ExplicitChecker`], which builds and caches the group graphs.
//!   A signal that lands inside a group build abandons that build, and an
//!   interrupted analysis pass is dropped too; a stopped job keeps only the
//!   outcomes it completed.
//!
//! See the "Job lifecycle & fault model" section of the crate docs for the
//! stop-boundary, latency and budget-semantics contract.

use crate::explicit::{CheckerOptions, ExplicitChecker};
use crate::result::{CheckOutcome, GraphCacheStats};
use crate::spec::Spec;
use cccounter::CounterSystem;
use ccta::ModelKind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation handle: cloned freely, flipped once.
///
/// Cancellation is *cooperative*: the running job observes the token at
/// wave boundaries and analysis-pass strides, so the latency between
/// [`CancelToken::cancel`] and the job stopping is O(one wave), not O(the
/// whole check).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation.  Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Explicit resource budgets of a job, both unlimited by default.
///
/// The deadline and the resident-byte cap depend on wall time and
/// allocator layout respectively, so *where* they stop a job varies — but
/// the outcomes a stopped job answered, plus a fresh job over the owed
/// obligations, still equal the uninterrupted results exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobBudget {
    /// Wall-clock deadline, measured from each `run` call.
    pub deadline: Option<Duration>,
    /// Cap on resident bytes of the job's live stores and CSR arenas.
    pub max_resident_bytes: Option<usize>,
}

impl JobBudget {
    /// An unlimited budget (the default).
    pub fn unlimited() -> Self {
        JobBudget::default()
    }

    /// Whether no budget is set at all.
    pub fn is_unlimited(&self) -> bool {
        *self == JobBudget::default()
    }

    /// This budget with a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// This budget with a resident-byte cap.
    pub fn with_max_resident_bytes(mut self, bytes: usize) -> Self {
        self.max_resident_bytes = Some(bytes);
        self
    }
}

/// Which signal stopped a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptKind {
    /// The job's [`CancelToken`] was cancelled.
    Cancelled,
    /// The wall-clock deadline of the [`JobBudget`] passed.
    Deadline,
    /// The resident-byte cap of the [`JobBudget`] was reached.
    ResidentBudget,
}

impl InterruptKind {
    /// A stable human-readable description (also embedded in the `detail`
    /// of interrupted [`CheckOutcome`]s).
    pub fn describe(&self) -> &'static str {
        match self {
            InterruptKind::Cancelled => "cancelled",
            InterruptKind::Deadline => "deadline exceeded",
            InterruptKind::ResidentBudget => "job resident-byte budget exhausted",
        }
    }
}

impl std::fmt::Display for InterruptKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.describe())
    }
}

/// The shared signal block of one job run: the cancel token plus the
/// budget, with the deadline anchored to an [`Instant`] at construction —
/// i.e. at each `run` call.
///
/// The block is stateless beyond the token (`Sync`), so one instance is
/// shared by every exploration of a job and — in sweeps — by every grid
/// cell on every sweep worker.
pub(crate) struct JobSignals {
    cancel: CancelToken,
    deadline: Option<Instant>,
    max_resident_bytes: usize,
    /// Observer invoked with the cumulative `(states, transitions)`
    /// counters at every wave/obligation boundary, before the signals are
    /// read.
    progress: Option<ProgressFn>,
}

/// A progress observer: called at wave and obligation boundaries with the
/// cumulative (deterministic) state and transition counters.  Must be cheap
/// and must not panic; the daemon uses it to emit throttled `Progress`
/// frames.
pub type ProgressFn = Arc<dyn Fn(usize, usize) + Send + Sync>;

impl JobSignals {
    /// Signals for one run of a job with the given budget.  The deadline
    /// countdown starts *now*.
    pub(crate) fn new(cancel: CancelToken, budget: JobBudget) -> Self {
        JobSignals {
            cancel,
            deadline: budget.deadline.map(|d| Instant::now() + d),
            max_resident_bytes: budget.max_resident_bytes.unwrap_or(usize::MAX),
            progress: None,
        }
    }

    /// The fast signals — cancellation and deadline — safe to poll from any
    /// thread at any point (they carry no exploration-counter semantics, so
    /// honouring them cannot perturb determinism: the abandoned build is
    /// rebuilt by whichever job continues the work).
    pub(crate) fn fast_stop(&self) -> Option<InterruptKind> {
        if self.cancel.is_cancelled() {
            return Some(InterruptKind::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(InterruptKind::Deadline);
            }
        }
        None
    }

    /// All signals, for wave/obligation boundaries: the progress observer
    /// first (so an observer that cancels the job stops it at this very
    /// boundary), then the fast signals, then the resident-byte cap.
    /// `resident` is a closure because computing resident bytes sums the
    /// job's stores and arenas — it only runs when a cap is actually set.
    pub(crate) fn boundary_stop(
        &self,
        states: usize,
        transitions: usize,
        resident: impl FnOnce() -> usize,
    ) -> Option<InterruptKind> {
        if let Some(cb) = &self.progress {
            cb(states, transitions);
        }
        if let Some(kind) = self.fast_stop() {
            return Some(kind);
        }
        if self.max_resident_bytes != usize::MAX && resident() >= self.max_resident_bytes {
            return Some(InterruptKind::ResidentBudget);
        }
        None
    }
}

/// How a job run ended.
pub enum JobOutcome {
    /// Every obligation has its outcome (in spec order), verdicts identical
    /// to [`crate::ExplicitChecker::check_all`] under the same options.
    Completed {
        /// Per-spec outcomes, in spec order.
        outcomes: Vec<CheckOutcome>,
        /// The graph-cache accounting of this run.
        stats: GraphCacheStats,
    },
    /// A signal stopped the job at a wave or obligation boundary.  Continue
    /// it with a fresh job over the owed (`None`) obligations.
    Stopped {
        /// Which signal stopped it.
        reason: InterruptKind,
        /// Per spec (in spec order): the answered outcome, or `None` if
        /// still owed.
        answered: Vec<Option<CheckOutcome>>,
        /// Cache accounting of this run up to the stop (an abandoned build
        /// is not counted; an analysis pass the deadline cut short counts
        /// as served, as in a sweep).
        stats: GraphCacheStats,
    },
}

impl JobOutcome {
    /// The completed outcomes, if the job finished.
    pub fn completed(self) -> Option<(Vec<CheckOutcome>, GraphCacheStats)> {
        match self {
            JobOutcome::Completed { outcomes, stats } => Some((outcomes, stats)),
            _ => None,
        }
    }
}

/// A batch check with an explicit lifecycle: run, and stop at a wave or
/// obligation boundary on cancellation or a budget trip, giving back the
/// answered outcomes.
pub struct CheckJob<'a> {
    sys: &'a CounterSystem,
    specs: &'a [Spec],
    options: CheckerOptions,
    budget: JobBudget,
    cancel: CancelToken,
    progress: Option<ProgressFn>,
}

impl<'a> CheckJob<'a> {
    /// A job checking `specs` over `sys` with unlimited budget.
    ///
    /// # Panics
    ///
    /// Panics if the counter system is built over a multi-round model (the
    /// same contract as [`crate::ExplicitChecker`]).
    pub fn new(sys: &'a CounterSystem, specs: &'a [Spec], options: CheckerOptions) -> Self {
        assert_eq!(
            sys.model().kind(),
            ModelKind::SingleRound,
            "check jobs operate on single-round models (Definition 3)"
        );
        CheckJob {
            sys,
            specs,
            options,
            budget: JobBudget::default(),
            cancel: CancelToken::new(),
            progress: None,
        }
    }

    /// This job with explicit resource budgets.
    pub fn with_budget(mut self, budget: JobBudget) -> Self {
        self.budget = budget;
        self
    }

    /// This job with a progress observer, invoked with the cumulative
    /// `(states, transitions)` counters at every wave and obligation
    /// boundary, before the job reads its signals.  It does not perturb
    /// verdicts or determinism; an observer that cancels the job's token
    /// stops it at that boundary.
    pub fn with_progress(mut self, progress: ProgressFn) -> Self {
        self.progress = Some(progress);
        self
    }

    /// The job's cancellation handle (clone it into whatever thread or
    /// signal handler should be able to stop the job).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Runs the job: serves the obligations in spec order on one
    /// [`ExplicitChecker`] (so a completed job is verdict- and
    /// stats-identical to [`ExplicitChecker::check_all`]), stopping when a
    /// signal fires.  The deadline (if any) counts from this call.
    pub fn run(&self) -> JobOutcome {
        let mut signals = JobSignals::new(self.cancel.clone(), self.budget);
        signals.progress = self.progress.clone();
        let mut checker = ExplicitChecker::with_options(self.sys, self.options);
        checker.set_signals(Some(&signals));
        checker.expect(self.specs);
        let mut outcomes = Vec::with_capacity(self.specs.len());
        let stop = self.serve(&checker, &signals, &mut outcomes);
        let stats = checker.cache_stats();
        let Some(reason) = stop else {
            return JobOutcome::Completed { outcomes, stats };
        };
        let mut answered: Vec<Option<CheckOutcome>> = outcomes.into_iter().map(Some).collect();
        answered.resize(self.specs.len(), None);
        JobOutcome::Stopped {
            reason,
            answered,
            stats,
        }
    }

    /// Pushes the outcome of each obligation in spec order, returning the
    /// signal that stopped the loop, if any.  The signals count every
    /// graph `checker` has built in this run.
    fn serve(
        &self,
        checker: &ExplicitChecker<'_>,
        signals: &JobSignals,
        outcomes: &mut Vec<CheckOutcome>,
    ) -> Option<InterruptKind> {
        for spec in self.specs {
            let built = checker.cache_stats();
            let base = (
                built.cached_states(),
                built.cached_transitions(),
                built.resident_bytes(),
            );
            // the deterministic inter-obligation boundary: the observer
            // sees the same counters here on every run
            if let Some(kind) = signals.boundary_stop(base.0, base.1, || base.2) {
                return Some(kind);
            }
            match checker.try_check(spec, base) {
                // only the fast signals stop an analysis pass; the pass is
                // deterministic, so a continuing job simply redoes it
                Ok(outcome) if outcome.is_interrupted() => {
                    return Some(signals.fast_stop().unwrap_or(InterruptKind::Cancelled));
                }
                Ok(outcome) => outcomes.push(outcome),
                Err(kind) => return Some(kind),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::ExplicitChecker;
    use crate::fixtures;
    use crate::spec::{LocSet, StartRestriction};
    use ccta::BinValue;

    fn sys() -> CounterSystem {
        let model = fixtures::voting_model().single_round().unwrap();
        CounterSystem::new(model, fixtures::small_params()).unwrap()
    }

    fn specs(sys: &CounterSystem) -> Vec<Spec> {
        let model = sys.model();
        vec![
            Spec::NeverFrom {
                name: "unreachable-I1".into(),
                start: StartRestriction::Unanimous(BinValue::Zero),
                forbidden: LocSet::from_names(model, "I1", &["I1"]),
            },
            Spec::NeverFrom {
                name: "reachable-E0".into(),
                start: StartRestriction::Unanimous(BinValue::Zero),
                forbidden: LocSet::from_names(model, "E0", &["E0"]),
            },
            Spec::NonBlocking {
                name: "termination".into(),
                start: StartRestriction::RoundStart,
            },
        ]
    }

    fn assert_same(a: &CheckOutcome, b: &CheckOutcome) {
        assert_eq!(a.status, b.status);
        assert_eq!(a.states_explored, b.states_explored);
        assert_eq!(a.transitions_explored, b.transitions_explored);
        match (&a.counterexample, &b.counterexample) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.initial, y.initial);
                assert_eq!(x.schedule.steps(), y.schedule.steps());
            }
            _ => panic!("counterexample presence differs"),
        }
    }

    #[test]
    fn uninterrupted_job_matches_check_all() {
        let sys = sys();
        let specs = specs(&sys);
        let options = CheckerOptions::default();
        let job = CheckJob::new(&sys, &specs, options);
        let (outcomes, stats) = job.run().completed().expect("unlimited job completes");
        let (reference, ref_stats) =
            ExplicitChecker::with_options(&sys, options).check_all_with_stats(&specs);
        for (o, r) in outcomes.iter().zip(&reference) {
            assert_same(o, r);
        }
        assert_eq!(stats.graphs_built(), ref_stats.graphs_built());
        assert_eq!(stats.specs_served(), ref_stats.specs_served());
    }

    #[test]
    fn state_budget_trips_then_resume_is_bit_identical() {
        let sys = sys();
        let specs = specs(&sys);
        let options = CheckerOptions::default();
        let reference = ExplicitChecker::with_options(&sys, options).check_all(&specs);

        let (outcomes, stops) =
            fixtures::continue_job(&sys, &specs, options, vec![None; specs.len()], 5);
        assert!(
            !stops.is_empty(),
            "a 5-state stop point must stop this fixture"
        );
        for (o, r) in outcomes.iter().zip(&reference) {
            assert_same(o, r);
        }
    }

    #[test]
    fn pre_cancelled_job_suspends_before_any_work() {
        let sys = sys();
        let specs = specs(&sys);
        let options = CheckerOptions::default();
        let job = CheckJob::new(&sys, &specs, options);
        job.cancel_token().cancel();
        let JobOutcome::Stopped {
            reason,
            answered,
            stats,
        } = job.run()
        else {
            panic!("a pre-cancelled job must stop");
        };
        assert_eq!(reason, InterruptKind::Cancelled);
        assert!(answered.iter().all(Option::is_none));
        assert_eq!(stats.cached_states(), 0);

        // a fresh job (new token) over the owed obligations completes
        let (outcomes, stops) = fixtures::continue_job(&sys, &specs, options, answered, usize::MAX);
        assert!(stops.is_empty());
        assert_eq!(outcomes.len(), specs.len());
    }

    #[test]
    fn boundary_stop_orders_fast_signals_before_budgets() {
        let cancel = CancelToken::new();
        let mut signals = JobSignals::new(
            cancel.clone(),
            JobBudget::unlimited().with_max_resident_bytes(100),
        );
        assert_eq!(signals.fast_stop(), None);
        assert_eq!(signals.boundary_stop(9, 19, || 99), None);
        assert_eq!(
            signals.boundary_stop(0, 0, || 100),
            Some(InterruptKind::ResidentBudget)
        );
        // an observer that cancels stops the job at the boundary it saw
        let token = cancel.clone();
        signals.progress = Some(Arc::new(move |states, _| {
            if states >= 10 {
                token.cancel();
            }
        }));
        assert_eq!(signals.boundary_stop(9, 0, || 0), None);
        assert_eq!(
            signals.boundary_stop(10, 0, || 100),
            Some(InterruptKind::Cancelled),
            "cancellation outranks the resident cap"
        );
        assert_eq!(signals.fast_stop(), Some(InterruptKind::Cancelled));
    }

    #[test]
    fn resident_budget_closure_only_runs_when_capped() {
        let signals = JobSignals::new(CancelToken::new(), JobBudget::unlimited());
        assert_eq!(
            signals.boundary_stop(0, 0, || panic!(
                "uncapped resident bytes must not be computed"
            )),
            None
        );
        let capped = JobSignals::new(
            CancelToken::new(),
            JobBudget::unlimited().with_max_resident_bytes(100),
        );
        assert_eq!(
            capped.boundary_stop(0, 0, || 100),
            Some(InterruptKind::ResidentBudget)
        );
    }
}
