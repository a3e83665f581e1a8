//! Check jobs: interruptible, checkpointable, budgeted batch checks.
//!
//! [`CheckJob`] wraps the batch check of [`crate::ExplicitChecker::check_all`]
//! in an explicit lifecycle: the job can be **cancelled** cooperatively
//! through a [`CancelToken`], **bounded** by explicit [`JobBudget`]s
//! (deadline, state/transition caps, resident bytes), and — when a signal
//! stops it — it surrenders a [`JobCheckpoint`] from which
//! [`CheckJob::resume`] continues the work.  A resumed job produces
//! verdicts, state counts, transition counts and counterexample schedules
//! *bit-identical* to an uninterrupted run, at any worker count (the
//! `random_differential` interrupt axis pins this).
//!
//! The mechanics live in three layers:
//!
//! * [`JobSignals`] is the shared, `Sync` signal block threaded through the
//!   [`crate::explorer::Explorer`]: polled at every wave boundary (all
//!   signals) and at expand-phase chunk handouts and analysis-pass strides
//!   (the fast cancel/deadline signals only).
//! * An interrupted *exploration* suspends with its frontier captured
//!   ([`crate::explorer::SuspendedFrontier`]); an interrupted cache *build*
//!   additionally keeps its partially populated store and CSR arenas
//!   ([`crate::graph::BuildInFlight`]) inside the checkpoint, so no
//!   exploration work is lost across a suspend/resume cycle.
//! * The job loop walks the obligation catalogue in spec order, carrying
//!   completed outcomes, retained group graphs and the in-flight build in
//!   the checkpoint.
//!
//! See the "Job lifecycle & fault model" section of the crate docs for the
//! checkpoint-boundary, latency and budget-semantics contract.

use crate::explicit::CheckerOptions;
use crate::explorer::resolved_workers;
use crate::graph::{BuildInFlight, BuildStep, ReachGraph};
use crate::pool::WorkerPool;
use crate::result::{CheckOutcome, GraphCacheStats, GraphOrigin, GroupCacheRecord};
use crate::spec::{Spec, StartRestriction};
use cccounter::CounterSystem;
use ccta::ModelKind;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation handle: cloned freely, flipped once.
///
/// Cancellation is *cooperative*: the running job observes the token at
/// wave boundaries, expand-phase chunk handouts and analysis-pass strides,
/// so the latency between [`CancelToken::cancel`] and the job suspending is
/// O(one wave), not O(the whole check).
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
/// *deterministic replayed counters* at wave boundaries, so a budget trip
/// lands at the same point of the search at every worker count.  The
/// deadline and the resident-byte cap depend on wall time and allocator
/// layout respectively, so *where* they trip is not worker-independent —
/// but resuming from the resulting checkpoint still reproduces the
/// uninterrupted results exactly.
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
/// shared by every worker lane and — in sweeps — every grid cell.
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
    /// honouring them mid-wave cannot perturb determinism: the abandoned
    /// wave stays pending and is re-expanded on resume).
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
    /// then the cumulative caps against the deterministic replayed
    /// counters.  `resident` is a closure because computing resident bytes
    /// walks the store shards — it only runs when a cap is actually set.
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

/// The resumable state of an interrupted job: completed outcomes, retained
/// group graphs, the in-flight cache build (if the interrupt landed inside
/// one) and the cumulative exploration counters.
///
/// The checkpoint holds `Rc`-shared graphs, so it is **not** `Send`: resume
/// on the thread that produced it (or hand the whole job to a thread to
/// begin with).  Nothing in it refers to the interrupted job's pool or
/// stack, so the originating [`CheckJob`] may be dropped and re-created
/// with the same system, specs and options before resuming.
pub struct JobCheckpoint {
    /// Per spec (in spec order): the completed outcome, or `None` if still
    /// owed.
    pub(crate) outcomes: Vec<Option<CheckOutcome>>,
    /// Retained group graphs, aligned index-for-index with `stats.groups`.
    pub(crate) groups: Vec<(StartRestriction, Rc<ReachGraph>)>,
    /// A cache build the interrupt landed inside, frontier captured.
    pub(crate) building: Option<(StartRestriction, Box<BuildInFlight>)>,
    /// Cache accounting mirroring [`crate::ExplicitChecker::cache_stats`].
    pub(crate) stats: GraphCacheStats,
    /// Cumulative distinct states across the job's completed explorations.
    pub(crate) states_done: usize,
    /// Cumulative transitions across the job's completed explorations.
    pub(crate) transitions_done: usize,
}

impl JobCheckpoint {
    pub(crate) fn fresh(num_specs: usize) -> Self {
        JobCheckpoint {
            outcomes: vec![None; num_specs],
            groups: Vec::new(),
            building: None,
            stats: GraphCacheStats::default(),
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

    /// Cumulative distinct states explored before the interrupt (completed
    /// explorations plus the in-flight build's progress).
    pub fn states_explored(&self) -> usize {
        self.states_done + self.building.as_ref().map_or(0, |(_, b)| b.states())
    }

    /// Cumulative transitions explored by completed explorations.
    pub fn transitions_explored(&self) -> usize {
        self.transitions_done
    }

    /// Whether the interrupt landed inside a cache build (whose partial
    /// store and CSR arenas the checkpoint retains).
    pub fn has_build_in_flight(&self) -> bool {
        self.building.is_some()
    }

    /// Resident bytes retained by the checkpoint: the group graphs plus the
    /// in-flight build.
    fn resident_bytes(&self) -> usize {
        self.groups
            .iter()
            .map(|(_, g)| g.resident_bytes())
            .sum::<usize>()
            + self
                .building
                .as_ref()
                .map_or(0, |(_, b)| b.resident_bytes())
    }
}

/// How a job run ended.
pub enum JobOutcome {
    /// Every obligation has its outcome (in spec order), verdicts identical
    /// to [`crate::ExplicitChecker::check_all`] under the same options.
    Completed {
        /// Per-spec outcomes, in spec order.
        outcomes: Vec<CheckOutcome>,
        /// The graph-cache accounting of the whole job.
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
        /// Cache accounting accumulated up to the trip.
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

    /// The checkpoint of an interrupted or budget-exceeded job.
    pub fn into_checkpoint(self) -> Option<JobCheckpoint> {
        match self {
            JobOutcome::Completed { .. } => None,
            JobOutcome::Interrupted { checkpoint } => Some(checkpoint),
            JobOutcome::BudgetExceeded { checkpoint, .. } => Some(checkpoint),
        }
    }
}

/// A batch check with an explicit lifecycle: run, suspend at a wave or
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
    /// # Panics
    ///
    /// Panics if the checkpoint's obligation count does not match this
    /// job's spec count.
    pub fn resume(&self, checkpoint: JobCheckpoint) -> JobOutcome {
        assert_eq!(
            checkpoint.outcomes.len(),
            self.specs.len(),
            "the checkpoint belongs to a job with a different obligation catalogue"
        );
        self.execute(checkpoint)
    }

    /// The job loop: walk the obligations in spec order, serving each from
    /// its group graph like [`crate::ExplicitChecker::check_all`] (so an
    /// uninterrupted job is verdict- and stats-identical to it), suspending
    /// into the checkpoint whenever a signal fires.
    fn execute(&self, mut cp: JobCheckpoint) -> JobOutcome {
        let mut signals = JobSignals::new(self.cancel.clone(), self.budget);
        signals.progress = self.progress.clone();
        let pool = WorkerPool::new(resolved_workers(&self.options));

        for (i, spec) in self.specs.iter().enumerate() {
            if cp.outcomes[i].is_some() {
                continue;
            }
            // the deterministic inter-obligation trip point: cumulative
            // replayed counters only, identical at every worker count
            if let Some(kind) =
                signals.boundary_stop(cp.states_done, cp.transitions_done, || cp.resident_bytes())
            {
                return Self::suspend(cp, kind);
            }
            match self.obligation(&mut cp, spec, &signals, &pool) {
                Ok(outcome) => cp.outcomes[i] = Some(outcome),
                Err(kind) => return Self::suspend(cp, kind),
            }
        }

        JobOutcome::Completed {
            outcomes: cp.outcomes.into_iter().map(Option::unwrap).collect(),
            stats: cp.stats,
        }
    }

    /// One obligation: serve it from a retained group graph, resuming or
    /// starting the group's build as needed.  `Err` means a signal fired;
    /// the checkpoint already holds whatever build progress existed.
    fn obligation(
        &self,
        cp: &mut JobCheckpoint,
        spec: &Spec,
        signals: &JobSignals,
        pool: &WorkerPool,
    ) -> Result<CheckOutcome, InterruptKind> {
        let start = spec.start();
        let group = match cp.groups.iter().position(|(s, _)| *s == start) {
            Some(found) => found,
            None => self.build_group(cp, start, signals, pool)?,
        };
        let graph = Rc::clone(&cp.groups[group].1);
        let (outcome, memo_hit) = graph.evaluate_memo(self.sys, spec, &self.options, Some(signals));
        if outcome.is_interrupted() {
            // analysis passes are deterministic and cheap relative to the
            // build: an interrupted pass is simply redone on resume
            return Err(Self::interrupt_kind_of(&outcome));
        }
        let record = &mut cp.stats.groups[group];
        record.specs += 1;
        if memo_hit {
            record.memo_hits += 1;
        } else {
            record.memo_misses += 1;
        }
        Ok(outcome)
    }

    /// Builds (or resumes building) the group graph for `start`, retaining
    /// it in the checkpoint.  Returns the new group index, or the interrupt
    /// that suspended the build (with its partial store captured in
    /// `cp.building`).
    fn build_group(
        &self,
        cp: &mut JobCheckpoint,
        start: StartRestriction,
        signals: &JobSignals,
        pool: &WorkerPool,
    ) -> Result<usize, InterruptKind> {
        let base = (cp.states_done, cp.transitions_done, cp.resident_bytes());
        let step = match cp.building.take() {
            Some((built_start, in_flight)) if built_start == start => ReachGraph::resume_build(
                in_flight,
                self.sys,
                &self.options,
                pool,
                Some(signals),
                base,
            ),
            other => {
                // a stale in-flight build for a different group can only
                // mean the checkpoint was produced under different options;
                // drop it and build what this obligation needs
                drop(other);
                let starts = start.configurations(self.sys);
                ReachGraph::build_with_signals(
                    self.sys,
                    &starts,
                    &self.options,
                    pool,
                    Some(signals),
                    base,
                )
            }
        };
        match step {
            BuildStep::Done(graph) => {
                let graph = Rc::new(graph);
                cp.states_done += graph.states();
                cp.transitions_done += graph.transitions();
                cp.stats.groups.push(GroupCacheRecord {
                    start: start.label(),
                    specs: 0,
                    states: graph.states(),
                    transitions: graph.transitions(),
                    origin: GraphOrigin::Built,
                    seed_frontier: 0,
                    pruned_actions: 0,
                    memo_hits: 0,
                    memo_misses: 0,
                    resident_bytes: graph.resident_bytes(),
                });
                cp.groups.push((start, graph));
                Ok(cp.groups.len() - 1)
            }
            BuildStep::Suspended(in_flight, kind) => {
                cp.building = Some((start, in_flight));
                Err(kind)
            }
        }
    }

    /// Recovers the interrupt kind from an interrupted [`CheckOutcome`]'s
    /// detail string.
    fn interrupt_kind_of(outcome: &CheckOutcome) -> InterruptKind {
        for kind in [
            InterruptKind::Deadline,
            InterruptKind::StateBudget,
            InterruptKind::TransitionBudget,
            InterruptKind::ResidentBudget,
        ] {
            if outcome.detail.ends_with(kind.describe()) {
                return kind;
            }
        }
        InterruptKind::Cancelled
    }

    fn suspend(cp: JobCheckpoint, kind: InterruptKind) -> JobOutcome {
        if kind.is_budget() {
            let partial_stats = cp.stats.clone();
            JobOutcome::BudgetExceeded {
                reason: kind,
                checkpoint: cp,
                partial_stats,
            }
        } else {
            JobOutcome::Interrupted { checkpoint: cp }
        }
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

        let resumed = CheckJob::new(&sys, &specs, options).resume(checkpoint);
        let (outcomes, _) = resumed.completed().expect("unlimited resume completes");
        for (o, r) in outcomes.iter().zip(&reference) {
            assert_same(o, r);
        }
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
        let resumed = CheckJob::new(&sys, &specs, CheckerOptions::default()).resume(checkpoint);
        assert!(resumed.completed().is_some());
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
