//! Explicit-state checking of universal single-round queries.
//!
//! The checker explores the reachable configurations of the single-round
//! counter system for one concrete admissible parameter valuation.  This is
//! the bounded-parameter substitute for ByMC's schema-based parameterized
//! reasoning.
//!
//! # Engine
//!
//! [`ExplicitChecker`] answers every query from the cached reachability
//! graph of its `(start restriction, valuation)` group ([`crate::graph`]):
//! the first query of a group pays one exploration on the generic
//! `crate::explorer::Explorer` loop, and every query is then an
//! analysis pass over the cached graph.  See the [`crate::explorer`] docs
//! for the engine and determinism story, and [`crate::graph`] for the
//! passes and the counts they report.

use crate::graph::{is_monitored, GraphBasis, GraphLineage, LineageStep, ReachGraph};
use crate::job::{InterruptKind, JobSignals};
use crate::result::{CheckOutcome, GraphCacheStats, GraphOrigin, GroupCacheRecord};
use crate::spec::{Spec, StartRestriction};
use cccounter::{Configuration, CounterSystem};
use ccta::ModelKind;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Resource limits and the sweep lever of the explicit-state search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckerOptions {
    /// Maximum number of distinct states: configurations for a group
    /// build, `(configuration, monitor bits)` product states for an
    /// analysis pass.
    pub max_states: usize,
    /// Maximum number of explored transitions.
    pub max_transitions: usize,
    /// Whether a sweep carries each group's reachability graph *across*
    /// valuations (reusing it outright when the compiled guard bounds are
    /// identical, extending it incrementally when the step is relax-only,
    /// pruning it in place when the step is tighten-only; see the
    /// "Incremental sweeps" section of the crate docs).  On by
    /// default.  The lineage never changes a verdict, a count or a
    /// counterexample — an incremental sweep is bit-identical to a
    /// from-scratch one; only the exploration work differs.  Takes effect
    /// only where a lineage exists (sweeps and
    /// [`ExplicitChecker::with_lineage`]); single-valuation checks are
    /// unaffected.
    pub incremental_sweep: bool,
}

impl Default for CheckerOptions {
    fn default() -> Self {
        CheckerOptions {
            max_states: 2_000_000,
            max_transitions: 30_000_000,
            incremental_sweep: true,
        }
    }
}

impl CheckerOptions {
    /// These options with the incremental sweep enabled or disabled.
    pub fn with_incremental_sweep(mut self, enabled: bool) -> Self {
        self.incremental_sweep = enabled;
        self
    }
}

/// Per-checker memoisation shared by every check: the enumerated start
/// configurations and the cached reachability graph per start restriction,
/// plus the graphs' accounting.  The valuation is fixed per checker, so the
/// start restriction alone keys a `(start restriction, valuation)` group.
#[derive(Default)]
struct CheckerMemo {
    starts: Vec<(StartRestriction, Arc<Vec<Configuration>>)>,
    /// Per cached graph: its key and its index into `stats.groups`.
    graphs: Vec<(StartRestriction, Rc<ReachGraph>, usize)>,
    stats: GraphCacheStats,
    /// The monitored obligations the caller will ask (see
    /// [`ExplicitChecker::expect`]), less those of the groups whose batched
    /// pass has run.
    expected: Vec<Spec>,
}

/// Explicit-state checker over a single-round counter system.
pub struct ExplicitChecker<'a> {
    sys: &'a CounterSystem,
    options: CheckerOptions,
    memo: RefCell<CheckerMemo>,
    /// The cross-valuation graph lineage of the surrounding sweep (plus
    /// this system's basis, compared against the lineage entries), when the
    /// caller opted into incremental sweeps.
    lineage: Option<(&'a GraphLineage, GraphBasis)>,
    /// Job-level cancellation and budget signals, threaded into every
    /// exploration this checker runs.  `None` (the default) costs nothing.
    signals: Option<&'a JobSignals>,
}

impl std::fmt::Debug for ExplicitChecker<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExplicitChecker")
            .field("options", &self.options)
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
    /// Panics, too, on a system a cached graph cannot record, as
    /// [`ExplicitChecker::with_options`] does.
    pub fn new(sys: &'a CounterSystem) -> Self {
        Self::with_options(sys, CheckerOptions::default())
    }

    /// Creates a checker with explicit resource limits.
    ///
    /// # Panics
    ///
    /// Panics if the counter system is built over a multi-round model, or
    /// if it has more than 65,536 rules or a rule with more than 256
    /// branches: a cached graph stores each transition's rule id in 16 bits
    /// and its branch index in 8.
    pub fn with_options(sys: &'a CounterSystem, options: CheckerOptions) -> Self {
        assert_eq!(
            sys.model().kind(),
            ModelKind::SingleRound,
            "the explicit checker operates on single-round models (Definition 3)"
        );
        let rules = sys.model().rules();
        assert!(
            rules.len() <= 1 << 16 && rules.iter().all(|r| r.branches().len() <= 1 << 8),
            "a cached graph holds at most 65,536 rules of at most 256 branches each"
        );
        ExplicitChecker {
            sys,
            options,
            memo: RefCell::new(CheckerMemo::default()),
            lineage: None,
            signals: None,
        }
    }

    /// [`ExplicitChecker::with_options`] with a cross-valuation graph
    /// lineage: instead of exploring each `(start restriction, valuation)`
    /// group from scratch, the checker first consults the lineage for a
    /// graph of the same group built at a previous valuation, reusing it
    /// outright when the compiled guard bounds are identical and extending
    /// it incrementally when the step is relax-only (see the "Incremental
    /// sweeps" crate docs).  The sweep walks each run of valuations on one
    /// lineage, in grid order.  [`CheckerOptions::incremental_sweep`] set
    /// to `false` makes this identical to [`ExplicitChecker::with_options`].
    ///
    /// # Panics
    ///
    /// Panics where [`ExplicitChecker::with_options`] does.
    pub fn with_lineage(
        sys: &'a CounterSystem,
        options: CheckerOptions,
        lineage: &'a GraphLineage,
    ) -> Self {
        let mut checker = Self::with_options(sys, options);
        if options.incremental_sweep {
            checker.lineage = Some((lineage, GraphBasis::of(sys)));
        }
        checker
    }

    /// Attaches job-level signals: every exploration this checker runs will
    /// poll them (see [`crate::CheckJob`] and the cancellable sweep).
    pub(crate) fn set_signals(&mut self, signals: Option<&'a JobSignals>) {
        self.signals = signals;
    }

    /// The counter system under check.
    pub fn system(&self) -> &CounterSystem {
        self.sys
    }

    /// Tells the checker which obligations its caller will ask next,
    /// replacing what it was told before.  The monitored ones
    /// (`CoverNever`/`NeverFrom`) of a group that expects at least two of
    /// them are answered by one batched pass over the group's graph, run
    /// at the first memo miss among them (see [`crate::graph`]); every
    /// other obligation keeps its own pass.  Outcomes do not depend on it.
    pub(crate) fn expect<'s>(&self, specs: impl IntoIterator<Item = &'s Spec>) {
        let mut expected: Vec<Spec> = Vec::new();
        for spec in specs {
            if is_monitored(spec) && !expected.contains(spec) {
                expected.push(spec.clone());
            }
        }
        self.memo.borrow_mut().expected = expected;
    }

    /// The start configurations of a restriction, enumerated once per
    /// checker (the enumeration is combinatorial in the process count).
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
    /// exploration otherwise.  `base` is what a job already accounted
    /// outside this build (see [`ExplicitChecker::try_check`]).  `Err`
    /// means a job signal interrupted the build; the partial build is
    /// dropped and nothing is recorded.
    fn graph_for(
        &self,
        start: StartRestriction,
        base: (usize, usize, usize),
    ) -> Result<(Rc<ReachGraph>, usize), InterruptKind> {
        {
            let memo = self.memo.borrow();
            if let Some((_, graph, group)) = memo.graphs.iter().find(|(s, _, _)| *s == start) {
                return Ok((Rc::clone(graph), *group));
            }
        }
        // obtain outside the borrow so the memo is never held across the
        // exploration
        let (graph, origin, seed_frontier, pruned_actions) = self.obtain_graph(start, base)?;
        if let Some((lineage, basis)) = &self.lineage {
            lineage.record(start, &graph, basis);
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
        base: (usize, usize, usize),
    ) -> Result<(Rc<ReachGraph>, GraphOrigin, usize, usize), InterruptKind> {
        let mut fresh_origin = GraphOrigin::Built;
        if let Some((lineage, basis)) = &self.lineage {
            match lineage.adopt(self.sys, start, basis, &self.options, self.signals) {
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
        let graph =
            ReachGraph::build_with_signals(self.sys, &starts, &self.options, self.signals, base)?;
        Ok((Rc::new(graph), fresh_origin, 0, 0))
    }

    /// Checks one query through the reachability-graph cache: the first
    /// query of a `(start restriction, valuation)` group pays one
    /// exploration, every further query of the group is an
    /// `O(states + transitions)` analysis pass over the cached graph (or a
    /// verdict-memo hit).  A group build that trips a resource budget
    /// answers every query of the group `Unknown`.  Verdicts, counts and
    /// counterexample schedules equal [`crate::reference`]'s, which
    /// `engine_equivalence` pins bit-for-bit.
    pub fn check(&self, spec: &Spec) -> CheckOutcome {
        // a job signal that interrupts the group build leaves an interrupted
        // outcome and records nothing (the sweep turns it into an
        // interrupted cell)
        self.try_check(spec, (0, 0, 0))
            .unwrap_or_else(|kind| CheckOutcome::interrupted(0, 0, kind))
    }

    /// [`ExplicitChecker::check`] for a [`crate::CheckJob`]: `Err` carries
    /// the signal that interrupted the group build, and `base` holds the
    /// `(states, transitions, resident bytes)` the job accounted outside
    /// this build, so the progress observer and the resident-byte cap see
    /// the job's cumulative counters.  An analysis pass a fast signal stops
    /// returns its interrupted outcome in `Ok`.
    pub(crate) fn try_check(
        &self,
        spec: &Spec,
        base: (usize, usize, usize),
    ) -> Result<CheckOutcome, InterruptKind> {
        let (graph, group) = self.graph_for(spec.start(), base)?;
        let (outcome, memo_hit) = match self.batched(&graph, spec) {
            // the obligation that runs its group's batched pass pays for it
            Some(outcome) => (outcome, false),
            None => graph.evaluate_memo(self.sys, spec, &self.options, self.signals),
        };
        let mut memo = self.memo.borrow_mut();
        let record = &mut memo.stats.groups[group];
        record.specs += 1;
        if memo_hit {
            record.memo_hits += 1;
        } else {
            record.memo_misses += 1;
        }
        Ok(outcome)
    }

    /// The outcome of `spec` from its group's batched monitored pass, when
    /// one is due: `spec` is an expected monitored obligation the graph has
    /// not answered, and another expected one of its group is unanswered
    /// too.  The pass answers them all (an interrupted one answers none and
    /// is due again at the next miss); `None` when no pass is due.
    fn batched(&self, graph: &ReachGraph, spec: &Spec) -> Option<CheckOutcome> {
        let interrupted = {
            let memo = self.memo.borrow();
            if !memo.expected.contains(spec) || graph.memoised(spec) {
                return None;
            }
            let lanes: Vec<&Spec> = memo
                .expected
                .iter()
                .filter(|s| s.start() == spec.start() && !graph.memoised(s))
                .collect();
            if lanes.len() < 2 {
                return None;
            }
            graph.answer_monitored(self.sys, &lanes, &self.options, self.signals)
        };
        if interrupted.is_some() {
            return interrupted;
        }
        self.memo
            .borrow_mut()
            .expected
            .retain(|s| s.start() != spec.start());
        Some(
            graph
                .evaluate_memo(self.sys, spec, &self.options, self.signals)
                .0,
        )
    }

    /// Checks a slice of queries, sharing one reachability graph across all
    /// the queries of each `(start restriction, valuation)` group.
    /// Outcomes are returned in spec order and verdicts are identical to
    /// checking each spec on its own.
    pub fn check_all(&self, specs: &[Spec]) -> Vec<CheckOutcome> {
        self.expect(specs);
        specs.iter().map(|spec| self.check(spec)).collect()
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::reference::reference_check;
    use crate::spec::{LocSet, StartRestriction};
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
    fn the_widest_coin_an_arc_holds_keeps_its_last_branch() {
        // branch index 255 fits the arc's byte: the path into H1 takes it,
        // replays, and matches the reference
        let model = fixtures::wide_coin_model(256).single_round().unwrap();
        let sys = CounterSystem::new(model, fixtures::small_params()).unwrap();
        let spec = Spec::NeverFrom {
            name: "H1".into(),
            start: StartRestriction::RoundStart,
            forbidden: LocSet::from_names(sys.model(), "H1", &["H1"]),
        };
        let outcome = ExplicitChecker::new(&sys).check(&spec);
        assert_eq!(
            outcome,
            reference_check(&sys, &spec, &CheckerOptions::default())
        );
        let ce = outcome.counterexample.expect("H1 is reachable");
        assert_eq!(ce.schedule.steps().last().map(|s| s.branch), Some(255));
        assert!(ce.schedule.is_applicable(&sys, &ce.initial));
    }

    #[test]
    #[should_panic(expected = "at most 256 branches")]
    fn a_coin_wider_than_an_arc_is_rejected() {
        // branch index 256 would alias branch 0 in a byte
        let model = fixtures::wide_coin_model(257).single_round().unwrap();
        let sys = CounterSystem::new(model, fixtures::small_params()).unwrap();
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

    /// Asserts that an engine outcome equals the reference search's:
    /// verdict, counts, and the counterexample step for step.
    fn assert_matches_reference(sys: &CounterSystem, spec: &Spec, outcome: &CheckOutcome) {
        let reference = reference_check(sys, spec, &CheckerOptions::default());
        assert_eq!(outcome.status, reference.status, "{}", spec.name());
        assert_eq!(
            outcome.states_explored,
            reference.states_explored,
            "{}",
            spec.name()
        );
        assert_eq!(
            outcome.transitions_explored,
            reference.transitions_explored,
            "{}",
            spec.name()
        );
        match (&outcome.counterexample, &reference.counterexample) {
            (None, None) => {}
            (Some(e), Some(r)) => {
                assert_eq!(e.initial, r.initial, "{}", spec.name());
                assert_eq!(e.schedule.steps(), r.schedule.steps(), "{}", spec.name());
            }
            _ => panic!("{}: counterexample presence differs", spec.name()),
        }
    }

    #[test]
    fn cached_catalogue_agrees_with_the_per_spec_path() {
        // the per-spec search here is the reference engine's: the batch
        // must match it obligation by obligation
        let sys = sys();
        let specs = catalogue(&sys);
        let (cached, stats) = ExplicitChecker::new(&sys).check_all_with_stats(&specs);
        for (spec, c) in specs.iter().zip(&cached) {
            assert_matches_reference(&sys, spec, c);
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
            }
        }
        // two start restrictions -> two graphs, serving all five specs
        assert_eq!(stats.graphs_built(), 2);
        assert_eq!(stats.specs_served(), specs.len());
        assert!(stats.cached_states() > 0);
        assert!(stats.amortization() > 1.0);
        assert!(format!("{stats}").contains("amortization"));
    }

    #[test]
    fn a_batched_pass_is_one_miss_and_its_other_answers_are_hits() {
        // the catalogue's three monitored obligations share the unanimous
        // group: the first runs the batched pass, the others are hits
        let sys = sys();
        let specs = catalogue(&sys);
        let checker = ExplicitChecker::new(&sys);
        let (outcomes, stats) = checker.check_all_with_stats(&specs);
        for (spec, outcome) in specs.iter().zip(&outcomes) {
            assert_eq!(outcome, &ExplicitChecker::new(&sys).check(spec));
        }
        let unanimous = &stats.groups[0];
        assert_eq!(unanimous.start, specs[0].start().label());
        assert_eq!(
            (unanimous.specs, unanimous.memo_misses, unanimous.memo_hits),
            (3, 1, 2)
        );
        // asked again, an answer is a hit; asked alone, it pays its pass
        checker.check(&specs[1]);
        assert_eq!(checker.cache_stats().groups[0].memo_hits, 3);
        let alone = ExplicitChecker::new(&sys);
        alone.check(&specs[1]);
        assert_eq!(alone.cache_stats().memo_misses(), 1);
    }

    #[test]
    fn wide_game_specs_are_served_by_one_graph() {
        // a game over four sets takes the same graph pass as the
        // catalogue's one- and two-set games
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
        let checker = ExplicitChecker::new(&sys);
        let (outcomes, stats) = checker.check_all_with_stats(std::slice::from_ref(&spec));
        assert_matches_reference(&sys, &spec, &outcomes[0]);
        assert_eq!(stats.graphs_built(), 1);
        assert_eq!(stats.specs_served(), 1);
    }

    #[test]
    fn bounded_group_builds_leave_every_spec_unknown() {
        // a budget that trips during the group build leaves the graph
        // incomplete: no obligation of the group gets a verdict from it
        let sys = sys();
        let options = CheckerOptions {
            max_states: 2,
            ..CheckerOptions::default()
        };
        let specs: Vec<Spec> = catalogue(&sys)
            .into_iter()
            .filter(|s| s.start() == StartRestriction::RoundStart)
            .collect();
        assert!(specs.len() > 1);
        let checker = ExplicitChecker::with_options(&sys, options);
        let (outcomes, stats) = checker.check_all_with_stats(&specs);
        for (spec, outcome) in specs.iter().zip(&outcomes) {
            assert_eq!(
                outcome.status,
                crate::CheckStatus::Unknown,
                "{}",
                spec.name()
            );
            assert!(outcome.detail.contains("bound"), "{}", outcome.detail);
            assert!(outcome.counterexample.is_none());
        }
        // the bounded build is one group record serving every spec
        assert_eq!(stats.graphs_built(), 1);
        assert_eq!(stats.specs_served(), specs.len());
    }
}
