//! Check jobs: interruptible, checkpointable, budgeted batch checks.
//!
//! [`CheckJob`] wraps the batch check of [`crate::ExplicitChecker::check_all`]
//! in an explicit lifecycle: the job can be **cancelled** cooperatively
//! through a [`CancelToken`], **bounded** by explicit [`JobBudget`]s
//! (deadline, state/transition caps, resident bytes), and — when a signal
//! stops it — it surrenders a [`JobCheckpoint`] from which
//! [`CheckJob::resume`] continues the work.  A resumed job produces
//! verdicts, state counts, transition counts and counterexample schedules
//! *bit-identical* to an uninterrupted run (the `random_differential`
//! interrupt axis pins this).
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
//!   interrupted analysis pass is dropped too; the checkpoint keeps only
//!   the completed outcomes and the cumulative counters.  Exploration is
//!   deterministic, so a resume rebuilds the graphs the owed obligations
//!   need and reproduces the uninterrupted results exactly.
//!
//! See the "Job lifecycle & fault model" section of the crate docs for the
//! checkpoint-boundary, latency and budget-semantics contract.

use crate::codec::DecodeError;
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
/// [`CancelToken::cancel`] and the job suspending is O(one wave), not O(the
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

/// Explicit resource budgets of a job, all unlimited by default.
///
/// The state and transition caps are evaluated only against the
/// *deterministic exploration counters* at wave boundaries, so a budget
/// trip lands at the same point of the search on every run.  The deadline
/// and the resident-byte cap depend on wall time and allocator layout
/// respectively, so *where* they trip varies — but resuming from the
/// resulting checkpoint still reproduces the uninterrupted results
/// exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobBudget {
    /// Wall-clock deadline, measured from each `run`/`resume` call.
    pub deadline: Option<Duration>,
    /// Cap on cumulative distinct states across the job's explorations.
    pub max_states: Option<usize>,
    /// Cap on cumulative explored transitions across the job's explorations.
    pub max_transitions: Option<usize>,
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

    /// This budget with a cumulative state cap.
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = Some(max_states);
        self
    }

    /// This budget with a cumulative transition cap.
    pub fn with_max_transitions(mut self, max_transitions: usize) -> Self {
        self.max_transitions = Some(max_transitions);
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
    /// The cumulative state cap of the [`JobBudget`] was reached.
    StateBudget,
    /// The cumulative transition cap of the [`JobBudget`] was reached.
    TransitionBudget,
    /// The resident-byte cap of the [`JobBudget`] was reached.
    ResidentBudget,
}

impl InterruptKind {
    /// Whether this interrupt is a *budget* trip (as opposed to an external
    /// cancellation): budget trips report
    /// [`JobOutcome::BudgetExceeded`], cancellations report
    /// [`JobOutcome::Interrupted`].
    pub fn is_budget(&self) -> bool {
        !matches!(self, InterruptKind::Cancelled)
    }

    /// A stable human-readable description (also embedded in the `detail`
    /// of interrupted [`CheckOutcome`]s).
    pub fn describe(&self) -> &'static str {
        match self {
            InterruptKind::Cancelled => "cancelled",
            InterruptKind::Deadline => "deadline exceeded",
            InterruptKind::StateBudget => "job state budget exhausted",
            InterruptKind::TransitionBudget => "job transition budget exhausted",
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
/// i.e. at each `run`/`resume` call, so a resumed job gets a fresh deadline
/// window rather than instantly re-tripping.
///
/// The block is stateless beyond the token (`Sync`), so one instance is
/// shared by every exploration of a job and — in sweeps — by every grid
/// cell on every sweep worker.
pub(crate) struct JobSignals {
    cancel: CancelToken,
    deadline: Option<Instant>,
    max_states: usize,
    max_transitions: usize,
    max_resident_bytes: usize,
    /// Observer invoked with the cumulative `(states, transitions)`
    /// counters at every wave/obligation boundary.  Purely informational:
    /// it cannot stop the job, so it cannot perturb determinism.
    progress: Option<ProgressFn>,
}

impl std::fmt::Debug for JobSignals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSignals")
            .field("cancel", &self.cancel)
            .field("deadline", &self.deadline)
            .field("max_states", &self.max_states)
            .field("max_transitions", &self.max_transitions)
            .field("max_resident_bytes", &self.max_resident_bytes)
            .field("progress", &self.progress.is_some())
            .finish()
    }
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
            max_states: budget.max_states.unwrap_or(usize::MAX),
            max_transitions: budget.max_transitions.unwrap_or(usize::MAX),
            max_resident_bytes: budget.max_resident_bytes.unwrap_or(usize::MAX),
            progress: None,
        }
    }

    /// The fast signals — cancellation and deadline — safe to poll from any
    /// thread at any point (they carry no exploration-counter semantics, so
    /// honouring them cannot perturb determinism: the abandoned build is
    /// rebuilt on resume).
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

    /// All signals, for wave/obligation boundaries: the fast signals first,
    /// then the cumulative caps against the deterministic exploration
    /// counters.  `resident` is a closure because computing resident bytes
    /// sums the job's stores and arenas — it only runs when a cap is
    /// actually set.
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
        if states >= self.max_states {
            return Some(InterruptKind::StateBudget);
        }
        if transitions >= self.max_transitions {
            return Some(InterruptKind::TransitionBudget);
        }
        if self.max_resident_bytes != usize::MAX && resident() >= self.max_resident_bytes {
            return Some(InterruptKind::ResidentBudget);
        }
        None
    }
}

/// The resumable state of an interrupted job: the completed outcomes and
/// the cumulative exploration counters.
///
/// The checkpoint is plain in-process data (`Send`) and refers to nothing
/// of the interrupted job, so the originating [`CheckJob`] may be dropped
/// and re-created with the same system, specs and options before resuming.
/// It has no byte encoding: a caller that must outlive the process keeps
/// the verdicts it reported and runs a fresh job over the owed obligations
/// (an obligation's outcome depends only on its group's graph and the
/// checker options).
#[derive(Debug, Clone, PartialEq)]
pub struct JobCheckpoint {
    /// Per spec (in spec order): the completed outcome, or `None` if still
    /// owed.
    pub(crate) outcomes: Vec<Option<CheckOutcome>>,
    /// Cumulative distinct states across the job's completed explorations.
    pub(crate) states_done: usize,
    /// Cumulative transitions across the job's completed explorations.
    pub(crate) transitions_done: usize,
}

impl JobCheckpoint {
    pub(crate) fn fresh(num_specs: usize) -> Self {
        JobCheckpoint {
            outcomes: vec![None; num_specs],
            states_done: 0,
            transitions_done: 0,
        }
    }

    /// How many obligations already have their final outcome.
    pub fn completed_obligations(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_some()).count()
    }

    /// Total obligations of the job.
    pub fn total_obligations(&self) -> usize {
        self.outcomes.len()
    }

    /// Consumes the checkpoint, yielding the per-spec outcomes in spec
    /// order — `None` for obligations still owed at the interrupt.  Callers
    /// that choose to degrade instead of resume (e.g. a serving deadline)
    /// keep the completed verdicts and map the owed slots to interrupted
    /// `Unknown` outcomes.
    pub fn into_outcomes(self) -> Vec<Option<CheckOutcome>> {
        self.outcomes
    }

    /// Cumulative distinct states across the job's completed explorations
    /// (a build the interrupt abandoned is not counted).
    pub fn states_explored(&self) -> usize {
        self.states_done
    }

    /// Cumulative transitions across the job's completed explorations.
    pub fn transitions_explored(&self) -> usize {
        self.transitions_done
    }
}

/// How a job run ended.
pub enum JobOutcome {
    /// Every obligation has its outcome (in spec order), verdicts identical
    /// to [`crate::ExplicitChecker::check_all`] under the same options.
    Completed {
        /// Per-spec outcomes, in spec order.
        outcomes: Vec<CheckOutcome>,
        /// The graph-cache accounting of this run (a resumed job's run
        /// accounts only the graphs it built itself).
        stats: GraphCacheStats,
    },
    /// The job's [`CancelToken`] stopped it; resume via
    /// [`CheckJob::resume`].
    Interrupted {
        /// The resumable state at the point of cancellation.
        checkpoint: JobCheckpoint,
    },
    /// A [`JobBudget`] cap stopped it; resume with a larger budget (the
    /// same exhausted budget re-trips at the next boundary).
    BudgetExceeded {
        /// Which cap tripped.
        reason: InterruptKind,
        /// The resumable state at the trip point.
        checkpoint: JobCheckpoint,
        /// Cache accounting of this run up to the trip (an analysis pass
        /// the deadline cut short counts as served, as in a sweep).
        partial_stats: GraphCacheStats,
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

/// A batch check with an explicit lifecycle: run, stop at a wave or
/// obligation boundary on cancellation or a budget trip, resume from the
/// surrendered [`JobCheckpoint`] bit-identically.
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
    /// boundary.  Observation only — it cannot stop the job and does not
    /// perturb verdicts or determinism.
    pub fn with_progress(mut self, progress: ProgressFn) -> Self {
        self.progress = Some(progress);
        self
    }

    /// The job's cancellation handle (clone it into whatever thread or
    /// signal handler should be able to stop the job).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Runs the job from scratch.
    pub fn run(&self) -> JobOutcome {
        self.execute(JobCheckpoint::fresh(self.specs.len()))
    }

    /// Resumes an interrupted job from its checkpoint.  The system, specs
    /// and options must be the ones the checkpoint was taken under; the
    /// deadline budget (if any) restarts from now.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Malformed`], and checks nothing, if the
    /// checkpoint's obligation count does not match this job's spec count.
    pub fn resume(&self, checkpoint: JobCheckpoint) -> Result<JobOutcome, DecodeError> {
        if checkpoint.outcomes.len() != self.specs.len() {
            return Err(DecodeError::Malformed(
                "obligation count does not match the job's catalogue",
            ));
        }
        Ok(self.execute(checkpoint))
    }

    /// The job loop: serve the owed obligations in spec order on one
    /// [`ExplicitChecker`] (so an uninterrupted job is verdict- and
    /// stats-identical to [`ExplicitChecker::check_all`]), stopping into
    /// the checkpoint when a signal fires.
    fn execute(&self, mut cp: JobCheckpoint) -> JobOutcome {
        let mut signals = JobSignals::new(self.cancel.clone(), self.budget);
        signals.progress = self.progress.clone();
        let mut checker = ExplicitChecker::with_options(self.sys, self.options);
        checker.set_signals(Some(&signals));
        let stop = self.serve_owed(&checker, &signals, &mut cp);
        let stats = checker.cache_stats();
        let Some(kind) = stop else {
            return JobOutcome::Completed {
                outcomes: cp.outcomes.into_iter().map(Option::unwrap).collect(),
                stats,
            };
        };
        cp.states_done += stats.cached_states();
        cp.transitions_done += stats.cached_transitions();
        if kind.is_budget() {
            JobOutcome::BudgetExceeded {
                reason: kind,
                checkpoint: cp,
                partial_stats: stats,
            }
        } else {
            JobOutcome::Interrupted { checkpoint: cp }
        }
    }

    /// Fills the owed outcome slots of `cp`, returning the signal that
    /// stopped the loop, if any.  The budgets count the checkpoint's
    /// counters plus every graph `checker` has built in this run.
    fn serve_owed(
        &self,
        checker: &ExplicitChecker<'_>,
        signals: &JobSignals,
        cp: &mut JobCheckpoint,
    ) -> Option<InterruptKind> {
        for (spec, slot) in self.specs.iter().zip(&mut cp.outcomes) {
            if slot.is_some() {
                continue;
            }
            let built = checker.cache_stats();
            let base = (
                cp.states_done + built.cached_states(),
                cp.transitions_done + built.cached_transitions(),
                built.resident_bytes(),
            );
            // the deterministic inter-obligation trip point: cumulative
            // exploration counters only, identical on every run
            if let Some(kind) = signals.boundary_stop(base.0, base.1, || base.2) {
                return Some(kind);
            }
            match checker.try_check(spec, base) {
                // only the fast signals stop an analysis pass; the pass is
                // deterministic, so a resume simply redoes it
                Ok(outcome) if outcome.is_interrupted() => {
                    return Some(signals.fast_stop().unwrap_or(InterruptKind::Cancelled));
                }
                Ok(outcome) => *slot = Some(outcome),
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

        let tripped = CheckJob::new(&sys, &specs, options)
            .with_budget(JobBudget::unlimited().with_max_states(5))
            .run();
        let JobOutcome::BudgetExceeded {
            reason, checkpoint, ..
        } = tripped
        else {
            panic!("a 5-state budget must trip on this fixture");
        };
        assert_eq!(reason, InterruptKind::StateBudget);
        assert!(checkpoint.completed_obligations() < specs.len());
        let owed = checkpoint.total_obligations() - checkpoint.completed_obligations();

        let resumed = CheckJob::new(&sys, &specs, options)
            .resume(checkpoint)
            .expect("the checkpoint matches the catalogue");
        let (outcomes, stats) = resumed.completed().expect("unlimited resume completes");
        for (o, r) in outcomes.iter().zip(&reference) {
            assert_same(o, r);
        }
        // the resumed run's stats account only the obligations it served
        assert_eq!(stats.specs_served(), owed);
    }

    #[test]
    fn pre_cancelled_job_suspends_before_any_work() {
        let sys = sys();
        let specs = specs(&sys);
        let job = CheckJob::new(&sys, &specs, CheckerOptions::default());
        job.cancel_token().cancel();
        let JobOutcome::Interrupted { checkpoint } = job.run() else {
            panic!("a pre-cancelled job must suspend");
        };
        assert_eq!(checkpoint.completed_obligations(), 0);
        assert_eq!(checkpoint.states_explored(), 0);

        // a fresh job (new token) resumes the checkpoint to completion
        let resumed = CheckJob::new(&sys, &specs, CheckerOptions::default())
            .resume(checkpoint)
            .expect("the checkpoint matches the catalogue");
        assert!(resumed.completed().is_some());
    }

    #[test]
    fn resume_rejects_a_checkpoint_of_another_catalogue() {
        let sys = sys();
        let specs = specs(&sys);
        let options = CheckerOptions::default();
        let JobOutcome::BudgetExceeded { checkpoint, .. } = CheckJob::new(&sys, &specs, options)
            .with_budget(JobBudget::unlimited().with_max_states(5))
            .run()
        else {
            panic!("a 5-state budget must trip on this fixture");
        };
        assert_eq!(checkpoint.total_obligations(), 3);
        // a 3-spec checkpoint handed to a 2-spec job is refused, not run
        assert!(matches!(
            CheckJob::new(&sys, &specs[..2], options).resume(checkpoint.clone()),
            Err(DecodeError::Malformed(_))
        ));
        // the job it belongs to still resumes it bit-identically
        let reference = ExplicitChecker::with_options(&sys, options).check_all(&specs);
        let (outcomes, _) = CheckJob::new(&sys, &specs, options)
            .resume(checkpoint)
            .expect("the checkpoint matches the catalogue")
            .completed()
            .expect("unlimited resume completes");
        for (o, r) in outcomes.iter().zip(&reference) {
            assert_same(o, r);
        }
    }

    #[test]
    fn boundary_stop_orders_fast_signals_before_budgets() {
        let cancel = CancelToken::new();
        let signals = JobSignals::new(
            cancel.clone(),
            JobBudget::unlimited()
                .with_max_states(10)
                .with_max_transitions(20),
        );
        assert_eq!(signals.fast_stop(), None);
        assert_eq!(signals.boundary_stop(9, 19, || 0), None);
        assert_eq!(
            signals.boundary_stop(10, 0, || 0),
            Some(InterruptKind::StateBudget)
        );
        assert_eq!(
            signals.boundary_stop(0, 20, || 0),
            Some(InterruptKind::TransitionBudget)
        );
        cancel.cancel();
        assert_eq!(
            signals.boundary_stop(10, 20, || 0),
            Some(InterruptKind::Cancelled),
            "cancellation outranks budget trips"
        );
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
