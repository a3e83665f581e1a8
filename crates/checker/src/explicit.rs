//! Explicit-state checking of universal single-round queries.
//!
//! The checker explores the reachable configurations of the single-round
//! counter system for one concrete admissible parameter valuation, augmented
//! with a small monitor recording which tracked location sets have been
//! occupied so far.  This is the bounded-parameter substitute for ByMC's
//! schema-based parameterized reasoning.
//!
//! # Engine
//!
//! Both query shapes implemented here (the monitored reachability queries
//! and the non-blocking side condition) are visitors over the generic
//! [`crate::explorer::Explorer`] driver: the driver owns the
//! expand → intern → frontier cycle on the packed row substrate (and its
//! deterministic in-check parallelisation), while [`MonitorVisitor`]
//! propagates occupancy bits and detects violating states, and
//! [`NonBlockingVisitor`] classifies terminal states.  See the
//! [`crate::explorer`] docs for the engine and determinism story.

use crate::counterexample::Counterexample;
use crate::explorer::{resolved_workers, row_occupancy_bits, Exploration, Explorer, Visitor};
use crate::game;
use crate::graph::{graph_serves, BuildStep, GraphLineage, GuardBounds, LineageStep, ReachGraph};
use crate::job::{InterruptKind, JobSignals};
use crate::pool::WorkerPool;
use crate::result::{CheckOutcome, GraphCacheStats, GraphOrigin, GroupCacheRecord};
use crate::spec::{LocSet, Spec, StartRestriction};
use crate::store::StoreStats;
use cccounter::{Configuration, CounterSystem, Schedule, ScheduledStep};
use ccta::{LocClass, ModelKind};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

/// Resource limits and thread configuration of the explicit-state search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckerOptions {
    /// Maximum number of distinct (configuration, monitor) states.
    pub max_states: usize,
    /// Maximum number of explored transitions.
    pub max_transitions: usize,
    /// In-check worker threads for a single exploration: `1` forces the
    /// sequential loop, `0` resolves `CC_CHECK_THREADS` and then the
    /// available parallelism.  Any worker count produces identical
    /// verdicts, state counts, transition counts and counterexamples.
    pub workers: usize,
    /// State-store shards: `0` derives one shard per resolved worker.
    /// Like the worker count, the shard count never changes results.
    pub shards: usize,
    /// Frontier nodes per parallel wave: a parallel level buffers (and
    /// recycles) candidate arenas of at most one wave, so peak memory stays
    /// O(wave) instead of O(level).  `0` resolves `CC_WAVE_SIZE` and then
    /// [`crate::explorer::DEFAULT_WAVE_SIZE`].  Like the worker and shard
    /// counts, the wave size never changes results.
    pub wave_size: usize,
    /// Whether a sweep carries each group's reachability graph *across*
    /// valuations (reusing it outright when the compiled guard bounds are
    /// identical, extending it incrementally when the step is relax-only;
    /// see the "Incremental sweeps" section of the crate docs).  On by
    /// default.  The lineage never changes a verdict, a count or a
    /// counterexample — an incremental sweep is bit-identical to a
    /// from-scratch one; only the exploration work differs.  Takes effect
    /// only where a lineage exists (sweeps and
    /// [`ExplicitChecker::with_pool_and_lineage`]); single-valuation checks
    /// are unaffected.
    pub incremental_sweep: bool,
    /// Whether a cached reachability graph memoises its per-obligation
    /// verdicts, so an *identical*-classified lineage step (and any repeat
    /// query of the same group) serves the stored outcome without rerunning
    /// the analysis pass (see the "Verdict memoization & lineage
    /// compaction" section of the crate docs).  On by default.  The memo
    /// never changes a verdict, a count or a counterexample schedule.
    pub verdict_memo: bool,
    /// Whether a *tighten-only* lineage step (every changed guard atom
    /// strictly tightened, same structure) prunes the predecessor graph in
    /// place — dropping the actions whose guards no longer hold and
    /// re-deriving reachability with the relink BFS — instead of rebuilding
    /// the group from scratch.  On by default.  A pruned graph is
    /// bit-identical to a fresh build.
    pub tighten_prune: bool,
}

impl Default for CheckerOptions {
    fn default() -> Self {
        CheckerOptions {
            max_states: 2_000_000,
            max_transitions: 30_000_000,
            workers: 0,
            shards: 0,
            wave_size: 0,
            incremental_sweep: true,
            verdict_memo: true,
            tighten_prune: true,
        }
    }
}

impl CheckerOptions {
    /// Options forcing the plain sequential search loop.
    pub fn sequential() -> Self {
        CheckerOptions {
            workers: 1,
            ..CheckerOptions::default()
        }
    }

    /// These options with an explicit in-check worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// These options with an explicit parallel wave size.
    pub fn with_wave_size(mut self, wave_size: usize) -> Self {
        self.wave_size = wave_size;
        self
    }

    /// These options with the incremental sweep enabled or disabled.
    pub fn with_incremental_sweep(mut self, enabled: bool) -> Self {
        self.incremental_sweep = enabled;
        self
    }

    /// These options with verdict memoization enabled or disabled.
    pub fn with_verdict_memo(mut self, enabled: bool) -> Self {
        self.verdict_memo = enabled;
        self
    }

    /// These options with the tighten-only prune enabled or disabled.
    pub fn with_tighten_prune(mut self, enabled: bool) -> Self {
        self.tighten_prune = enabled;
        self
    }
}

/// The worker pool a checker runs on: its own (one pool per checker, reused
/// across every check and every level), or one shared by the caller — the
/// sweep hands each of its grid workers one pool reused across all the
/// cells that worker processes.
#[derive(Debug)]
enum PoolSource<'a> {
    Owned(WorkerPool),
    Shared(&'a WorkerPool),
}

impl PoolSource<'_> {
    fn get(&self) -> &WorkerPool {
        match self {
            PoolSource::Owned(pool) => pool,
            PoolSource::Shared(pool) => pool,
        }
    }
}

/// The monitored-reachability visitor: propagates the occupancy bits of the
/// tracked location sets along every path and reports a violation as soon
/// as a state carries all `violation_bits`.
struct MonitorVisitor<'s> {
    sets: &'s [LocSet],
    violation_bits: u8,
}

impl Visitor for MonitorVisitor<'_> {
    fn successor_bits(&self, parent_bits: u8, row: &[u8]) -> u8 {
        parent_bits | row_occupancy_bits(self.sets, row)
    }

    fn start_node(&mut self, _node: u32, bits: u8, fresh: bool) -> bool {
        fresh && bits & self.violation_bits == self.violation_bits
    }

    fn edge(
        &mut self,
        _from: u32,
        _step: ScheduledStep,
        _to: u32,
        to_bits: u8,
        fresh: bool,
    ) -> bool {
        fresh && to_bits & self.violation_bits == self.violation_bits
    }
}

/// The non-blocking visitor: carries no monitor bits and flags terminal
/// states that strand an automaton outside the border-copy sinks.
struct NonBlockingVisitor<'a> {
    sys: &'a CounterSystem,
}

impl Visitor for NonBlockingVisitor<'_> {
    fn successor_bits(&self, _parent_bits: u8, _row: &[u8]) -> u8 {
        0
    }

    fn terminal_violates(&self, row: &[u8]) -> bool {
        blocked_location_in_row(self.sys, row).is_some()
    }
}

/// In a terminal state row, returns a location outside the sink set (border
/// copies) that still holds an automaton, if any.  Shared with the
/// graph-cache blocking scan ([`crate::graph`]).
pub(crate) fn blocked_location_in_row(sys: &CounterSystem, row: &[u8]) -> Option<ccta::LocId> {
    let model = sys.model();
    model
        .loc_ids()
        .find(|&l| row[l.0] > 0 && model.location(l).class() != LocClass::BorderCopy)
}

/// Returns a location lying on a cycle of non-self-loop progress rules, if
/// any — the structural half of the non-blocking side condition, shared by
/// the per-spec path and the graph-cache evaluation.
pub(crate) fn find_progress_cycle(sys: &CounterSystem) -> Option<ccta::LocId> {
    let model = sys.model();
    let n = model.locations().len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for rule in model.rules() {
        if rule.is_self_loop() {
            continue;
        }
        for b in rule.branches() {
            adj[rule.from().0].push(b.to.0);
        }
    }
    // iterative DFS with colors
    let mut color = vec![0u8; n]; // 0 = white, 1 = grey, 2 = black
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        color[start] = 1;
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            if *idx < adj[node].len() {
                let next = adj[node][*idx];
                *idx += 1;
                match color[next] {
                    0 => {
                        color[next] = 1;
                        stack.push((next, 0));
                    }
                    1 => return Some(ccta::LocId(next)),
                    _ => {}
                }
            } else {
                color[node] = 2;
                stack.pop();
            }
        }
    }
    None
}

/// Per-checker memoisation shared by every check: the enumerated start
/// configurations per start restriction (reused even on the per-spec path)
/// and the cached reachability graph per start restriction, plus its
/// accounting.  The valuation is fixed per checker, so the start
/// restriction alone keys a `(start restriction, valuation)` group.
#[derive(Default)]
struct CheckerMemo {
    starts: Vec<(StartRestriction, Arc<Vec<Configuration>>)>,
    /// Per cached graph: its key and its index into `stats.groups`.
    graphs: Vec<(StartRestriction, Rc<ReachGraph>, usize)>,
    stats: GraphCacheStats,
}

/// Explicit-state checker over a single-round counter system.
pub struct ExplicitChecker<'a> {
    sys: &'a CounterSystem,
    options: CheckerOptions,
    pool: PoolSource<'a>,
    memo: RefCell<CheckerMemo>,
    /// The cross-valuation graph lineage of the surrounding sweep (plus
    /// this system's compiled guard bounds, diffed against the lineage
    /// entries), when the caller opted into incremental sweeps.
    lineage: Option<(&'a GraphLineage, GuardBounds)>,
    /// Job-level cancellation and budget signals, threaded into every
    /// exploration this checker runs.  `None` (the default) costs nothing.
    signals: Option<&'a JobSignals>,
    /// The `(states, transitions, resident bytes)` the surrounding job
    /// already accounted outside this checker, added to the explorers'
    /// counters when evaluating the job budgets.
    signal_base: Cell<(usize, usize, usize)>,
}

impl std::fmt::Debug for ExplicitChecker<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExplicitChecker")
            .field("options", &self.options)
            .field("pool", &self.pool)
            .finish_non_exhaustive()
    }
}

impl<'a> ExplicitChecker<'a> {
    /// Creates a checker with default options.
    ///
    /// # Panics
    ///
    /// Panics if the counter system is built over a multi-round model; the
    /// single-round queries are only meaningful on `TA_rd` (Definition 3).
    pub fn new(sys: &'a CounterSystem) -> Self {
        Self::with_options(sys, CheckerOptions::default())
    }

    /// Creates a checker with explicit resource limits.  The checker spawns
    /// its persistent [`WorkerPool`] here — once — and reuses it across
    /// every [`ExplicitChecker::check`] call and every exploration level
    /// (a resolved worker count of 1 spawns no threads at all).
    ///
    /// # Panics
    ///
    /// Panics if the counter system is built over a multi-round model.
    pub fn with_options(sys: &'a CounterSystem, options: CheckerOptions) -> Self {
        let pool = PoolSource::Owned(WorkerPool::new(resolved_workers(&options)));
        Self::assemble(sys, options, pool)
    }

    /// Creates a checker running its parallel phases on a caller-owned
    /// pool, whose lane count overrides [`CheckerOptions::workers`].  This
    /// is how the sweep shares one pool across all the grid cells a sweep
    /// worker processes.
    ///
    /// # Panics
    ///
    /// Panics if the counter system is built over a multi-round model.
    pub fn with_pool(
        sys: &'a CounterSystem,
        options: CheckerOptions,
        pool: &'a WorkerPool,
    ) -> Self {
        Self::assemble(sys, options, PoolSource::Shared(pool))
    }

    /// [`ExplicitChecker::with_pool`] with a cross-valuation graph lineage:
    /// instead of exploring each `(start restriction, valuation)` group
    /// from scratch, the checker first consults the lineage for a graph of
    /// the same group built at a previous valuation, reusing it outright
    /// when the compiled guard bounds are identical and extending it
    /// incrementally when the step is relax-only (see the "Incremental
    /// sweeps" crate docs).  The sweep gives each of its grid workers one
    /// lineage spanning the worker's contiguous, valuation-ordered block of
    /// cells.  [`CheckerOptions::incremental_sweep`] set to `false` makes
    /// this identical to [`ExplicitChecker::with_pool`].
    ///
    /// # Panics
    ///
    /// Panics if the counter system is built over a multi-round model.
    pub fn with_pool_and_lineage(
        sys: &'a CounterSystem,
        options: CheckerOptions,
        pool: &'a WorkerPool,
        lineage: &'a GraphLineage,
    ) -> Self {
        let mut checker = Self::assemble(sys, options, PoolSource::Shared(pool));
        if options.incremental_sweep {
            checker.lineage = Some((lineage, sys.guard_bounds()));
        }
        checker
    }

    fn assemble(sys: &'a CounterSystem, options: CheckerOptions, pool: PoolSource<'a>) -> Self {
        assert_eq!(
            sys.model().kind(),
            ModelKind::SingleRound,
            "the explicit checker operates on single-round models (Definition 3)"
        );
        ExplicitChecker {
            sys,
            options,
            pool,
            memo: RefCell::new(CheckerMemo::default()),
            lineage: None,
            signals: None,
            signal_base: Cell::new((0, 0, 0)),
        }
    }

    /// Attaches job-level signals: every exploration this checker runs will
    /// poll them (see [`crate::CheckJob`] and the cancellable sweep).
    pub(crate) fn set_signals(&mut self, signals: Option<&'a JobSignals>) {
        self.signals = signals;
    }

    /// Sets the `(states, transitions, resident bytes)` baselines the
    /// surrounding job accounted outside this checker.
    pub(crate) fn set_signal_base(&self, base: (usize, usize, usize)) {
        self.signal_base.set(base);
    }

    /// The counter system under check.
    pub fn system(&self) -> &CounterSystem {
        self.sys
    }

    /// The start configurations of a restriction, enumerated once per
    /// checker and shared by every spec with the same restriction (the
    /// enumeration is combinatorial in the process count, so re-running it
    /// per obligation was pure waste).
    fn starts_for(&self, start: StartRestriction) -> Arc<Vec<Configuration>> {
        let mut memo = self.memo.borrow_mut();
        if let Some((_, cached)) = memo.starts.iter().find(|(s, _)| *s == start) {
            return Arc::clone(cached);
        }
        let configs = Arc::new(start.configurations(self.sys));
        memo.starts.push((start, Arc::clone(&configs)));
        configs
    }

    /// The cached reachability graph of a start-restriction group and its
    /// stats-group index, obtaining it on the first request — from the
    /// sweep lineage when one is attached and usable, from a fresh
    /// exploration otherwise.  The caller records which counter the spec
    /// lands in — served by the group, or fallen back to the per-spec path.
    /// `Err` means a job signal interrupted the build; the partial build is
    /// discarded (the checkpointing build path lives in [`crate::CheckJob`],
    /// which does its own group bookkeeping) and nothing is recorded.
    fn graph_for(&self, start: StartRestriction) -> Result<(Rc<ReachGraph>, usize), InterruptKind> {
        {
            let memo = self.memo.borrow();
            if let Some((_, graph, group)) = memo.graphs.iter().find(|(s, _, _)| *s == start) {
                return Ok((Rc::clone(graph), *group));
            }
        }
        // obtain outside the borrow so the memo is never held across the
        // exploration
        let (graph, origin, seed_frontier, pruned_actions) = self.obtain_graph(start)?;
        if let Some((lineage, bounds)) = &self.lineage {
            lineage.record(self.sys, start, &graph, bounds);
        }
        let mut memo = self.memo.borrow_mut();
        let group = memo.stats.groups.len();
        memo.stats.groups.push(GroupCacheRecord {
            start: start.label(),
            specs: 0,
            states: graph.states(),
            transitions: graph.transitions(),
            origin,
            seed_frontier,
            pruned_actions,
            memo_hits: 0,
            memo_misses: 0,
            resident_bytes: graph.resident_bytes(),
        });
        memo.graphs.push((start, Rc::clone(&graph), group));
        Ok((graph, group))
    }

    /// Resolves a group's graph against the sweep lineage (reuse, extend,
    /// or rebuild), falling back to a from-scratch exploration when no
    /// lineage is attached or no predecessor survives.
    fn obtain_graph(
        &self,
        start: StartRestriction,
    ) -> Result<(Rc<ReachGraph>, GraphOrigin, usize, usize), InterruptKind> {
        let mut fresh_origin = GraphOrigin::Built;
        if let Some((lineage, bounds)) = &self.lineage {
            match lineage.adopt(
                self.sys,
                start,
                bounds,
                &self.options,
                self.pool.get(),
                self.signals,
            ) {
                LineageStep::Reuse(graph) => return Ok((graph, GraphOrigin::Reused, 0, 0)),
                LineageStep::Extend(graph, seeds) => {
                    return Ok((graph, GraphOrigin::Extended, seeds, 0))
                }
                LineageStep::Prune(graph, cut) => return Ok((graph, GraphOrigin::Pruned, 0, cut)),
                LineageStep::Build { rebuilt } => {
                    if rebuilt {
                        fresh_origin = GraphOrigin::Rebuilt;
                    }
                }
            }
        }
        let starts = self.starts_for(start);
        let step = ReachGraph::build_with_signals(
            self.sys,
            &starts,
            &self.options,
            self.pool.get(),
            self.signals,
            self.signal_base.get(),
        );
        match step {
            BuildStep::Done(graph) => Ok((Rc::new(graph), fresh_origin, 0, 0)),
            BuildStep::Suspended(_, kind) => Err(kind),
        }
    }

    /// Checks one query on the per-spec path (its own exploration, exactly
    /// the reference semantics — `engine_equivalence` compares this path
    /// bit-for-bit against [`crate::reference`]).
    pub fn check(&self, spec: &Spec) -> CheckOutcome {
        self.check_impl(spec, false).0
    }

    /// Checks one query through the reachability-graph cache: the first
    /// query of a `(start restriction, valuation)` group pays one
    /// monitor-free exploration, every further query of the group is an
    /// `O(states + edges)` analysis pass over the cached graph.  Falls back
    /// to the per-spec path when the spec shape is not served by the cache
    /// (see [`graph_serves`]), or the group's build tripped a resource
    /// budget (the pruned per-spec searches can still produce a definite
    /// verdict within the same budget, so a bounded build must not blanket
    /// the group with `Unknown`).
    pub(crate) fn check_cached(&self, spec: &Spec) -> CheckOutcome {
        if !graph_serves(spec) {
            self.memo.borrow_mut().stats.uncached_specs += 1;
            return self.check(spec);
        }
        let (graph, group) = match self.graph_for(spec.start()) {
            Ok(found) => found,
            // a job signal interrupted the group build: report the
            // interruption without recording anything (the sweep turns this
            // into an interrupted cell; the checkpointing path is CheckJob's)
            Err(kind) => return CheckOutcome::interrupted(0, 0, kind),
        };
        if graph.is_bounded() {
            self.memo.borrow_mut().stats.uncached_specs += 1;
            return self.check(spec);
        }
        let (outcome, memo_hit) = graph.evaluate_memo(self.sys, spec, &self.options, self.signals);
        let mut memo = self.memo.borrow_mut();
        let record = &mut memo.stats.groups[group];
        record.specs += 1;
        if memo_hit {
            record.memo_hits += 1;
        } else {
            record.memo_misses += 1;
        }
        outcome
    }

    /// Checks a slice of queries, sharing one reachability graph across all
    /// the queries of each `(start restriction, valuation)` group.
    /// Outcomes are returned in spec order and verdicts are identical to
    /// checking each spec on its own.
    pub fn check_all(&self, specs: &[Spec]) -> Vec<CheckOutcome> {
        specs.iter().map(|spec| self.check_cached(spec)).collect()
    }

    /// [`ExplicitChecker::check_all`] plus the cache accounting accumulated
    /// by this checker so far (including earlier `check_all` calls).
    pub fn check_all_with_stats(&self, specs: &[Spec]) -> (Vec<CheckOutcome>, GraphCacheStats) {
        let outcomes = self.check_all(specs);
        (outcomes, self.cache_stats())
    }

    /// A snapshot of the graph-cache accounting accumulated by this
    /// checker.
    pub fn cache_stats(&self) -> GraphCacheStats {
        self.memo.borrow().stats.clone()
    }

    /// Checks one query and reports the state-store occupancy statistics of
    /// the exploration (to guide shard-count tuning).
    pub fn check_with_stats(&self, spec: &Spec) -> (CheckOutcome, StoreStats) {
        self.check_impl(spec, true)
    }

    fn check_impl(&self, spec: &Spec, want_stats: bool) -> (CheckOutcome, StoreStats) {
        // one start enumeration per (checker, restriction), shared with the
        // group builds and across every spec of the restriction
        let starts = self.starts_for(spec.start());
        match spec {
            Spec::CoverNever {
                name,
                trigger,
                forbidden,
                ..
            } => self.check_monitored(
                name,
                &starts,
                &[trigger.clone(), forbidden.clone()],
                0b11,
                format!(
                    "a path occupies both {} and {}",
                    trigger.name(),
                    forbidden.name()
                ),
                want_stats,
            ),
            Spec::NeverFrom {
                name, forbidden, ..
            } => self.check_monitored(
                name,
                &starts,
                std::slice::from_ref(forbidden),
                0b1,
                format!("a path occupies {}", forbidden.name()),
                want_stats,
            ),
            Spec::ExistsAvoidOneOf {
                name,
                forbidden_sets,
                ..
            } => game::check_exists_avoid_impl(
                self.sys,
                name,
                &starts,
                forbidden_sets,
                &self.options,
                self.pool.get(),
                want_stats,
                self.signals,
                self.signal_base.get(),
            ),
            Spec::NonBlocking { name, .. } => self.check_non_blocking(name, &starts, want_stats),
        }
    }

    /// BFS over (configuration, monitor-bits); reports a violation when a
    /// state with `violation_bits` fully set is reached.
    fn check_monitored(
        &self,
        spec_name: &str,
        starts: &[Configuration],
        sets: &[LocSet],
        violation_bits: u8,
        explanation: String,
        want_stats: bool,
    ) -> (CheckOutcome, StoreStats) {
        let mut explorer = Explorer::new(self.sys, &self.options, self.pool.get())
            .with_signals(self.signals, self.signal_base.get());
        let mut visitor = MonitorVisitor {
            sets,
            violation_bits,
        };
        let outcome = match explorer.run(starts, &mut visitor) {
            Exploration::Complete => CheckOutcome::holds(explorer.states(), explorer.transitions()),
            Exploration::TransitionBound => CheckOutcome::unknown(
                explorer.states(),
                explorer.transitions(),
                "transition bound exhausted",
            ),
            // the over-budget state was counted before the bound tripped;
            // report the budget like the reference engine, which stops
            // before storing it
            Exploration::StateBound => CheckOutcome::unknown(
                explorer.states() - 1,
                explorer.transitions(),
                "state bound exhausted",
            ),
            Exploration::Violation(id) => self.violation(spec_name, &explorer, id, explanation),
            // a per-spec search is not checkpointed: the suspended frontier
            // is dropped and the search redone from scratch on resume
            Exploration::Interrupted => {
                let kind = explorer
                    .take_suspended()
                    .map(|s| s.kind)
                    .unwrap_or(InterruptKind::Cancelled);
                CheckOutcome::interrupted(explorer.states(), explorer.transitions(), kind)
            }
        };
        let stats = if want_stats {
            explorer.store().stats()
        } else {
            StoreStats::default()
        };
        (outcome, stats)
    }

    fn violation(
        &self,
        spec_name: &str,
        explorer: &Explorer<'_>,
        violating: u32,
        explanation: String,
    ) -> CheckOutcome {
        let (initial, schedule) = explorer.store().reconstruct_path(violating);
        CheckOutcome::violated(
            explorer.states(),
            explorer.transitions(),
            Counterexample {
                spec: spec_name.to_string(),
                params: self.sys.params().clone(),
                initial,
                schedule,
                explanation,
            },
        )
    }

    /// Checks the Theorem-2 side condition: the progress graph is acyclic and
    /// every reachable terminal configuration has all automata parked in
    /// border-copy (sink) locations.
    fn check_non_blocking(
        &self,
        spec_name: &str,
        starts: &[Configuration],
        want_stats: bool,
    ) -> (CheckOutcome, StoreStats) {
        // 1. structural acyclicity of the progress graph
        if let Some(loc) = find_progress_cycle(self.sys) {
            let ce = Counterexample {
                spec: spec_name.to_string(),
                params: self.sys.params().clone(),
                initial: starts
                    .first()
                    .cloned()
                    .unwrap_or_else(|| self.sys.empty_configuration()),
                schedule: Schedule::new(),
                explanation: format!(
                    "the progress graph has a cycle through location {}",
                    self.sys.model().location(loc).name()
                ),
            };
            return (CheckOutcome::violated(0, 0, ce), StoreStats::default());
        }

        // 2. every reachable terminal configuration is a sink configuration
        let mut explorer = Explorer::new(self.sys, &self.options, self.pool.get())
            .with_signals(self.signals, self.signal_base.get());
        let mut visitor = NonBlockingVisitor { sys: self.sys };
        let outcome = match explorer.run(starts, &mut visitor) {
            Exploration::Complete => CheckOutcome::holds(explorer.states(), explorer.transitions()),
            Exploration::TransitionBound => CheckOutcome::unknown(
                explorer.states(),
                explorer.transitions(),
                "transition bound exhausted",
            ),
            // match the reference, which stops before storing the
            // over-budget state
            Exploration::StateBound => CheckOutcome::unknown(
                explorer.states() - 1,
                explorer.transitions(),
                "state bound exhausted",
            ),
            Exploration::Interrupted => {
                let kind = explorer
                    .take_suspended()
                    .map(|s| s.kind)
                    .unwrap_or(InterruptKind::Cancelled);
                CheckOutcome::interrupted(explorer.states(), explorer.transitions(), kind)
            }
            Exploration::Violation(node) => {
                let loc = blocked_location_in_row(self.sys, explorer.store().row(node))
                    .expect("a violating terminal state has a blocked location");
                let (initial, schedule) = explorer.store().reconstruct_path(node);
                let ce = Counterexample {
                    spec: spec_name.to_string(),
                    params: self.sys.params().clone(),
                    initial,
                    schedule,
                    explanation: format!(
                        "a fair execution blocks with an automaton stuck in {}",
                        self.sys.model().location(loc).name()
                    ),
                };
                CheckOutcome::violated(explorer.states(), explorer.transitions(), ce)
            }
        };
        let stats = if want_stats {
            explorer.store().stats()
        } else {
            StoreStats::default()
        };
        (outcome, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::spec::StartRestriction;
    use ccta::{BinValue, ParamValuation};

    fn sys() -> CounterSystem {
        let model = fixtures::voting_model().single_round().unwrap();
        CounterSystem::new(model, fixtures::small_params()).unwrap()
    }

    #[test]
    #[should_panic(expected = "single-round")]
    fn checker_rejects_multi_round_models() {
        let sys = CounterSystem::new(fixtures::voting_model(), fixtures::small_params()).unwrap();
        let _ = ExplicitChecker::new(&sys);
    }

    #[test]
    fn validity_style_query_holds() {
        // from a unanimous-0 start the majority-1 final location E1 can only
        // be reached through the coin; D-style locations do not exist in the
        // fixture, so check that "no process ends in E1 while cc1 == 0" via
        // the never-from query on the always-unreachable M1 analogue: here we
        // check that location I1 is never occupied.
        let sys = sys();
        let checker = ExplicitChecker::new(&sys);
        let spec = Spec::NeverFrom {
            name: "unreachable-I1".into(),
            start: StartRestriction::Unanimous(BinValue::Zero),
            forbidden: LocSet::from_names(sys.model(), "I1", &["I1"]),
        };
        let outcome = checker.check(&spec);
        assert!(outcome.is_holds(), "{outcome}");
        assert!(outcome.states_explored > 1);
    }

    #[test]
    fn never_from_detects_violations_with_counterexample() {
        // E0 is clearly reachable from a unanimous-0 start
        let sys = sys();
        let checker = ExplicitChecker::new(&sys);
        let spec = Spec::NeverFrom {
            name: "reachable-E0".into(),
            start: StartRestriction::Unanimous(BinValue::Zero),
            forbidden: LocSet::from_names(sys.model(), "E0", &["E0"]),
        };
        let outcome = checker.check(&spec);
        assert!(outcome.is_violated());
        let ce = outcome.counterexample.unwrap();
        assert!(!ce.schedule.is_empty());
        // replay the counterexample: it must reach a configuration occupying E0
        let path = ce.schedule.apply(&sys, &ce.initial).unwrap();
        let e0 = sys.model().location_id("E0").unwrap();
        assert!(path.visits(|c| c.counter(e0, 0) > 0));
        assert!(!ce.describe(&sys).is_empty());
    }

    #[test]
    fn cover_never_holds_when_sets_are_mutually_exclusive() {
        // Once every process reached E0 (trigger = all final zero), no process
        // can be in I1: trivially true for unanimous-0 starts.
        let sys = sys();
        let checker = ExplicitChecker::new(&sys);
        let spec = Spec::CoverNever {
            name: "cover-holds".into(),
            start: StartRestriction::Unanimous(BinValue::Zero),
            trigger: LocSet::from_names(sys.model(), "E0", &["E0"]),
            forbidden: LocSet::from_names(sys.model(), "E1", &["E1"]),
        };
        // NOTE: from a unanimous-0 start the coin may still land 1 and push
        // processes to E1 while others are in E0, so this spec is *violated*
        // in the fixture model — which is exactly what makes the fixture a
        // useful negative test.
        let outcome = checker.check(&spec);
        assert!(outcome.is_violated());
        let ce = outcome.counterexample.unwrap();
        let path = ce.schedule.apply(&sys, &ce.initial).unwrap();
        let e0 = sys.model().location_id("E0").unwrap();
        let e1 = sys.model().location_id("E1").unwrap();
        assert!(path.visits(|c| c.counter(e0, 0) > 0));
        assert!(path.visits(|c| c.counter(e1, 0) > 0));
    }

    #[test]
    fn cover_never_holds_for_disjoint_behaviour() {
        // trigger = E1 under a unanimous-0 start with the coin forced to 0 is
        // unreachable, hence the implication holds vacuously.
        let sys = sys();
        let checker = ExplicitChecker::new(&sys);
        let spec = Spec::CoverNever {
            name: "vacuous".into(),
            start: StartRestriction::Unanimous(BinValue::Zero),
            trigger: LocSet::from_names(sys.model(), "I1", &["I1"]),
            forbidden: LocSet::from_names(sys.model(), "E0", &["E0"]),
        };
        let outcome = checker.check(&spec);
        assert!(outcome.is_holds(), "{outcome}");
    }

    #[test]
    fn non_blocking_holds_for_the_fixture() {
        let sys = sys();
        let checker = ExplicitChecker::new(&sys);
        let spec = Spec::NonBlocking {
            name: "termination".into(),
            start: StartRestriction::RoundStart,
        };
        let outcome = checker.check(&spec);
        assert!(outcome.is_holds(), "{outcome}");
    }

    #[test]
    fn non_blocking_detects_deadlocks() {
        let model = fixtures::blocking_model().single_round().unwrap();
        let sys = CounterSystem::new(model, ParamValuation::new(vec![4, 1, 1, 1])).unwrap();
        let checker = ExplicitChecker::new(&sys);
        let spec = Spec::NonBlocking {
            name: "termination".into(),
            start: StartRestriction::RoundStart,
        };
        let outcome = checker.check(&spec);
        assert!(outcome.is_violated());
        let ce = outcome.counterexample.unwrap();
        assert!(ce.explanation.contains("stuck"));
        // the deadlocking schedule replays on the counter system
        let path = ce.schedule.apply(&sys, &ce.initial).unwrap();
        assert!(sys.is_terminal(path.last()));
    }

    #[test]
    fn state_bound_produces_unknown() {
        let sys = sys();
        let checker = ExplicitChecker::with_options(
            &sys,
            CheckerOptions {
                max_states: 2,
                max_transitions: 1_000,
                ..CheckerOptions::default()
            },
        );
        let spec = Spec::NeverFrom {
            name: "bounded".into(),
            start: StartRestriction::RoundStart,
            forbidden: LocSet::from_names(sys.model(), "I1", &["I1"]),
        };
        let outcome = checker.check(&spec);
        assert_eq!(outcome.status, crate::CheckStatus::Unknown);
        assert_eq!(checker.system().num_processes(), 3);
    }

    #[test]
    fn transition_bound_produces_unknown() {
        let sys = sys();
        let checker = ExplicitChecker::with_options(
            &sys,
            CheckerOptions {
                max_states: 1_000,
                max_transitions: 3,
                ..CheckerOptions::default()
            },
        );
        let spec = Spec::NeverFrom {
            name: "bounded".into(),
            start: StartRestriction::Unanimous(BinValue::Zero),
            forbidden: LocSet::from_names(sys.model(), "I1", &["I1"]),
        };
        let outcome = checker.check(&spec);
        assert_eq!(outcome.status, crate::CheckStatus::Unknown);
        assert!(outcome.detail.contains("transition"));
    }

    /// One spec of every catalogue shape over the voting fixture, with two
    /// different start restrictions so the cache forms two groups.
    fn catalogue(sys: &CounterSystem) -> Vec<Spec> {
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
            Spec::CoverNever {
                name: "cover".into(),
                start: StartRestriction::Unanimous(BinValue::Zero),
                trigger: LocSet::from_names(model, "E0", &["E0"]),
                forbidden: LocSet::from_names(model, "E1", &["E1"]),
            },
            Spec::ExistsAvoidOneOf {
                name: "C1".into(),
                start: StartRestriction::RoundStart,
                forbidden_sets: vec![
                    LocSet::from_names(model, "F0", &["E0"]),
                    LocSet::from_names(model, "F1", &["E1"]),
                ],
            },
            Spec::NonBlocking {
                name: "termination".into(),
                start: StartRestriction::RoundStart,
            },
        ]
    }

    #[test]
    fn cached_catalogue_agrees_with_the_per_spec_path() {
        let sys = sys();
        let specs = catalogue(&sys);
        let (cached, stats) = ExplicitChecker::new(&sys).check_all_with_stats(&specs);
        let per_spec: Vec<_> = specs
            .iter()
            .map(|s| ExplicitChecker::new(&sys).check(s))
            .collect();
        for ((spec, c), p) in specs.iter().zip(&cached).zip(&per_spec) {
            assert_eq!(c.status, p.status, "{}", spec.name());
            if let Some(ce) = &c.counterexample {
                // the cached counterexample replays to a genuine violation
                let path = ce.schedule.apply(&sys, &ce.initial).unwrap();
                match spec {
                    Spec::NeverFrom { forbidden, .. } => {
                        assert!(path.visits(|cfg| forbidden.is_occupied(cfg)))
                    }
                    Spec::CoverNever {
                        trigger, forbidden, ..
                    } => {
                        assert!(path.visits(|cfg| trigger.is_occupied(cfg)));
                        assert!(path.visits(|cfg| forbidden.is_occupied(cfg)));
                    }
                    _ => {}
                }
            } else {
                assert!(p.counterexample.is_none(), "{}", spec.name());
            }
        }
        // two start restrictions -> two graphs, serving all five specs
        assert_eq!(stats.graphs_built(), 2);
        assert_eq!(stats.specs_served(), specs.len());
        assert_eq!(stats.uncached_specs, 0);
        assert!(stats.cached_states() > 0);
        assert!(stats.amortization() > 1.0);
        assert!(format!("{stats}").contains("amortization"));
    }

    #[test]
    fn wide_game_specs_take_the_per_spec_path() {
        // a game over more sets than the analysis product holds is routed
        // to the per-spec search, so the batch matches `check` exactly
        let sys = sys();
        let model = sys.model();
        let spec = Spec::ExistsAvoidOneOf {
            name: "wide".into(),
            start: StartRestriction::RoundStart,
            forbidden_sets: ["I0", "I1", "E0", "E1"]
                .iter()
                .map(|&l| LocSet::from_names(model, l, &[l]))
                .collect(),
        };
        assert!(!crate::graph::graph_serves(&spec));
        let checker = ExplicitChecker::new(&sys);
        let (outcomes, stats) = checker.check_all_with_stats(std::slice::from_ref(&spec));
        assert_eq!(outcomes[0], checker.check(&spec));
        assert_eq!(stats.graphs_built(), 0);
        assert_eq!(stats.uncached_specs, 1);
        assert!(format!("{stats}").contains("per-spec path"));
    }

    #[test]
    fn cached_checks_are_worker_independent() {
        let sys = sys();
        let specs = catalogue(&sys);
        let baseline =
            ExplicitChecker::with_options(&sys, CheckerOptions::sequential()).check_all(&specs);
        for workers in [2, 4] {
            let options = CheckerOptions::default()
                .with_workers(workers)
                .with_wave_size(1);
            let parallel = ExplicitChecker::with_options(&sys, options).check_all(&specs);
            for ((spec, b), p) in specs.iter().zip(&baseline).zip(&parallel) {
                assert_eq!(b.status, p.status, "{} at {workers} workers", spec.name());
                assert_eq!(
                    b.states_explored,
                    p.states_explored,
                    "{} at {workers} workers",
                    spec.name()
                );
                assert_eq!(
                    b.transitions_explored,
                    p.transitions_explored,
                    "{} at {workers} workers",
                    spec.name()
                );
                match (&b.counterexample, &p.counterexample) {
                    (None, None) => {}
                    (Some(bc), Some(pc)) => {
                        assert_eq!(bc.initial, pc.initial);
                        assert_eq!(bc.schedule.steps(), pc.schedule.steps());
                    }
                    _ => panic!("{}: counterexample presence differs", spec.name()),
                }
            }
        }
    }

    #[test]
    fn bounded_cache_builds_fall_back_to_the_per_spec_path() {
        // a budget that trips during the monitor-free build must not turn
        // the group's obligations Unknown wholesale: the spec re-runs on
        // the per-spec path, so the outcome matches it exactly
        let sys = sys();
        let options = CheckerOptions {
            max_states: 2,
            ..CheckerOptions::default()
        };
        let spec = Spec::NeverFrom {
            name: "bounded".into(),
            start: StartRestriction::RoundStart,
            forbidden: LocSet::from_names(sys.model(), "I1", &["I1"]),
        };
        let checker = ExplicitChecker::with_options(&sys, options);
        let (outcomes, stats) = checker.check_all_with_stats(std::slice::from_ref(&spec));
        assert_eq!(outcomes[0], checker.check(&spec));
        assert_eq!(outcomes[0].status, crate::CheckStatus::Unknown);
        assert!(outcomes[0].detail.contains("bound"));
        // the bounded build is recorded as a miss serving nothing; the spec
        // counts as uncached
        assert_eq!(stats.graphs_built(), 1);
        assert_eq!(stats.specs_served(), 0);
        assert_eq!(stats.uncached_specs, 1);
    }

    #[test]
    fn stats_report_the_explored_store() {
        let sys = sys();
        let checker = ExplicitChecker::with_options(
            &sys,
            CheckerOptions {
                shards: 4,
                ..CheckerOptions::default()
            },
        );
        let spec = Spec::NonBlocking {
            name: "termination".into(),
            start: StartRestriction::RoundStart,
        };
        let (outcome, stats) = checker.check_with_stats(&spec);
        assert!(outcome.is_holds());
        assert_eq!(stats.states, outcome.states_explored);
        assert_eq!(stats.shards, 4);
        assert!(stats.row_bytes > 0);
        assert!(stats.index_load > 0.0);
    }
}
