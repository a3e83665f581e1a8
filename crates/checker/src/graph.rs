//! The reachability-graph cache: explore once, evaluate many.
//!
//! Every obligation of the catalogue observes the same reachable
//! configuration graph of the single-round counter system — only the
//! *observation* differs (monitor bits, game target sets, blocking scan).
//! `ReachGraph` materialises that graph once per
//! `(start restriction, valuation)` group: one run of the generic
//! `Explorer` interns every reachable configuration into the
//! `StateStore` and records the full transition relation in the flat CSR
//! arenas of `GameGraph`.  Each obligation is then evaluated as an
//! `O(states + transitions)` analysis pass over the cached graph; this is
//! the only way the engine answers a check:
//!
//! * [`Spec::CoverNever`] / [`Spec::NeverFrom`] — sticky monitor bits
//!   over `(node, cumulative bits)` product states, walked along cached CSR
//!   arcs instead of re-expanding rules.  An obligation checked on its own
//!   is a BFS over the product that keeps one byte per node, a bit per
//!   product state found.  The monitored obligations a checker expects of
//!   one group (two or more of them) share one *batched* pass instead: per
//!   node one `u64` of 4-bit lanes, one lane per obligation (bit `b` of a
//!   lane marks product state `(node, b)` reachable), propagated to a
//!   fixpoint over the cached arcs, with every tracked [`LocSet`]'s
//!   occupancy taken in one row scan as an index into a small table of the
//!   distinct occupancy patterns.  More than 16 obligations, or more than
//!   16 distinct tracked sets, take one such word per 16.
//! * [`Spec::ExistsAvoidOneOf`] — the product game graph over
//!   `(node, cumulative bits)` is assembled from the cached arcs and
//!   handed to the O(arcs) worklist attractor (`adversary_winning`); the
//!   violating strategy path comes from `extract_strategy_path`.
//! * [`Spec::NonBlocking`] — a terminal/blocking scan: a cached node is
//!   terminal iff its CSR arc span is empty (a complete exploration
//!   expands every interned node).
//!
//! Counterexamples stay genuinely replayable.  A cached arc keeps its
//! successor, its rule and its branch index, so a schedule step is rebuilt
//! from the arc (`game::scheduled_step`) only where a counterexample is
//! built: monitored violations rerun their search recording parents and
//! walk the parent chain back, non-blocking violations walk back the
//! first-discovery arcs that the prefix walk of
//! `ReachGraph::prefix_before` meets, and game violations follow the
//! winning strategy through product arcs.  Along every reported path the
//! cumulative occupancy of the tracked sets first completes exactly at the
//! final configuration, because a product state is checked for violation
//! the moment it is first created.
//!
//! # Reported counts
//!
//! Every pass reports the state and transition counts of the search that
//! [`crate::reference`] runs for the same spec — the `engine_equivalence`,
//! `random_differential` and `family_differential` suites compare them
//! exactly.  The monitored and game passes count the product states and
//! arcs they visit, which is what a search over `(configuration, bits)`
//! states visits; a holding `NonBlocking` reports the whole graph.  A
//! violated `NonBlocking` reports the prefix of the exploration a search
//! stopping at the violating terminal had done: the start nodes, every
//! successor of the nodes discovered before the terminal, and those
//! nodes' edges.
//!
//! A holding lane of a batched monitored pass reports what its lone search
//! would: that search finds every reachable product state once and walks
//! each one's arcs, so its states are `Σ popcount(lane)` over the nodes and
//! its transitions `Σ popcount(lane) · out-degree`.  A violated lane stops
//! the lone search at a point that depends on the search order, so the
//! batched pass resolves it with that search (recording parents from the
//! start); a holding lane whose counts exceed a budget is left to its lone
//! search, which reports the bound where it trips.  Every definite outcome
//! of a batched pass goes into the graph's verdict memo, so the
//! obligations it answered are memo hits when asked.
//!
//! # Budgets
//!
//! Resource budgets ([`CheckerOptions::max_states`] /
//! [`CheckerOptions::max_transitions`]) apply to the group build and to
//! every analysis pass (to each lane of a batched pass as to its lone
//! search).  A build that trips one leaves the group's graph incomplete,
//! and every obligation of that group is then `Unknown` with the bound in
//! its detail: an incomplete graph never yields a verdict.

use crate::counterexample::Counterexample;
use crate::explicit::CheckerOptions;
use crate::explorer::{Exploration, Explored, Explorer};
use crate::game::{
    adversary_winning, extract_strategy_path, scheduled_step, Arc, CsrRecorder, GameGraph,
};
use crate::job::{InterruptKind, JobSignals};
use crate::result::{CheckOutcome, CheckStatus};
use crate::spec::{LocSet, Spec, StartRestriction};
use crate::store::StateStore;
use cccounter::{Configuration, CounterSystem, Schedule};
use ccta::{GuardRel, LocClass, LocId, RuleId};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Sentinel for "product state not discovered yet" in the game's ordinal
/// map, and for "no parent" at the root of a parent chain.
const NO_ORD: u32 = u32::MAX;

/// The compiled guard bounds of a counter system: one `(relation, bound)`
/// pair per guard atom, in rule order (see
/// [`CounterSystem::guard_bounds`]).  Two valuations over one model differ
/// in behaviour exactly where these bounds differ.
pub(crate) type GuardBounds = Vec<Vec<(GuardRel, i128)>>;

/// How one sweep step relates two valuations' compiled guard bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum GuardStep {
    /// Every bound is unchanged: the reachable graph is *identical* and the
    /// cached one serves as-is (a pure lineage hit).
    Identical,
    /// Every changed atom weakened its guard (`>=` bound decreased, `<`
    /// bound increased), so the old reachable set is a subset of the new
    /// one and the cached graph can be *extended* from a seeded frontier.
    /// `changed` lists the indices of the rules with at least one weakened
    /// atom.
    RelaxOnly {
        /// Rule indices whose guard weakened.
        changed: Vec<usize>,
    },
    /// Every changed atom tightened its guard (`>=` bound increased, `<`
    /// bound decreased), so the new reachable set is a *subset* of the old
    /// one and the cached graph can be *pruned* in place instead of
    /// rebuilt.  `changed` lists the indices of the rules with at least one
    /// tightened atom.
    TightenOnly {
        /// Rule indices whose guard tightened.
        changed: Vec<usize>,
    },
    /// Changed atoms weakened in one place and tightened in another, or the
    /// shapes disagree: neither subset relation holds, so the group is
    /// re-explored from scratch.
    Mixed,
}

/// Classifies a valuation step by diffing the compiled per-rule guard
/// bounds.  The two bound sets must come from the *same model* (same rules,
/// same atoms, same relations); any structural disagreement is conservative
/// [`GuardStep::Mixed`].
pub(crate) fn classify_guard_step(old: &GuardBounds, new: &GuardBounds) -> GuardStep {
    if old.len() != new.len() {
        return GuardStep::Mixed;
    }
    let mut relaxed = Vec::new();
    let mut tightened = Vec::new();
    for (rule, (old_guard, new_guard)) in old.iter().zip(new).enumerate() {
        if old_guard.len() != new_guard.len() {
            return GuardStep::Mixed;
        }
        let (mut rule_relaxed, mut rule_tightened) = (false, false);
        for (&(old_rel, old_bound), &(new_rel, new_bound)) in old_guard.iter().zip(new_guard) {
            if old_rel != new_rel {
                return GuardStep::Mixed;
            }
            if old_bound == new_bound {
                continue;
            }
            // a conjunction weakens iff every changed atom weakens, and
            // tightens iff every changed atom tightens
            let weaker = match old_rel {
                GuardRel::Ge => new_bound < old_bound,
                GuardRel::Lt => new_bound > old_bound,
            };
            if weaker {
                rule_relaxed = true;
            } else {
                rule_tightened = true;
            }
        }
        if rule_relaxed {
            relaxed.push(rule);
        }
        if rule_tightened {
            tightened.push(rule);
        }
    }
    match (relaxed.is_empty(), tightened.is_empty()) {
        (true, true) => GuardStep::Identical,
        (false, true) => GuardStep::RelaxOnly { changed: relaxed },
        (true, false) => GuardStep::TightenOnly { changed: tightened },
        (false, false) => GuardStep::Mixed,
    }
}

/// What a group graph depends on besides the model and the start
/// restriction: the system size and the compiled guard bounds of the
/// valuation it was built for.
#[derive(Debug, Clone)]
pub(crate) struct GraphBasis {
    processes: u64,
    coins: u64,
    bounds: GuardBounds,
}

impl GraphBasis {
    /// The basis of a counter system.
    pub(crate) fn of(sys: &CounterSystem) -> Self {
        GraphBasis {
            processes: sys.num_processes(),
            coins: sys.num_coins(),
            bounds: sys.guard_bounds(),
        }
    }
}

/// The lineage's carry-over policy, in one place: the guard step across
/// which a group graph built on `from` carries to `to`, or `None` when the
/// group must be re-explored.  Nothing carries when the incremental sweep
/// is off, when the process or coin count changed (the start
/// configurations differ), or across a mixed step.  [`GraphLineage::adopt`]
/// applies it per group; the sweep applies it between consecutive grid
/// valuations to cut the grid into runs.
pub(crate) fn carry_step(
    from: &GraphBasis,
    to: &GraphBasis,
    options: &CheckerOptions,
) -> Option<GuardStep> {
    if !options.incremental_sweep || from.processes != to.processes || from.coins != to.coins {
        return None;
    }
    match classify_guard_step(&from.bounds, &to.bounds) {
        GuardStep::Mixed => None,
        step => Some(step),
    }
}

/// One surviving graph of a sweep lineage: the cached reachability graph of
/// a start-restriction group together with the basis it is valid for.
struct LineageEntry {
    start: StartRestriction,
    graph: Rc<ReachGraph>,
    basis: GraphBasis,
}

/// How a lineage lookup resolved (the caller builds fresh on
/// [`LineageStep::Build`]).
pub(crate) enum LineageStep {
    /// No usable predecessor graph; `rebuilt` distinguishes a discarded
    /// lineage entry (a tripped extension, a graph still pinned, or a
    /// break the caller carried the lineage across) from a first build.
    Build {
        /// Whether a lineage entry existed and had to be thrown away.
        rebuilt: bool,
    },
    /// The guard bounds are identical: the cached graph serves as-is.
    Reuse(Rc<ReachGraph>),
    /// The step was relax-only and the cached graph was extended in place;
    /// the `usize` is the seeded-frontier size.
    Extend(Rc<ReachGraph>, usize),
    /// The step was tighten-only and the cached graph was pruned in place;
    /// the `usize` is the number of dead actions cut.
    Prune(Rc<ReachGraph>, usize),
}

/// The cross-valuation graph lineage of one sweep worker: at most one
/// surviving `ReachGraph` per start-restriction group, carried from
/// valuation to valuation (see the "Incremental sweeps" section of the
/// crate docs).  Owned by whoever walks a group's valuations in order — the
/// sweep starts each run of valuations on an empty lineage — and handed to
/// each per-valuation [`crate::ExplicitChecker`] via
/// [`crate::ExplicitChecker::with_lineage`].
#[derive(Default)]
pub struct GraphLineage {
    entries: RefCell<Vec<LineageEntry>>,
}

impl GraphLineage {
    /// An empty lineage.
    pub fn new() -> Self {
        GraphLineage::default()
    }

    /// Resolves a group's graph against the lineage for the system `sys`
    /// (whose basis is `basis`): a matching entry is *taken out* and
    /// reused, extended, pruned or discarded according to [`carry_step`].
    /// Whatever graph the caller ends up with, it re-enters the lineage
    /// through [`GraphLineage::record`].
    pub(crate) fn adopt(
        &self,
        sys: &CounterSystem,
        start: StartRestriction,
        basis: &GraphBasis,
        options: &CheckerOptions,
        signals: Option<&JobSignals>,
    ) -> LineageStep {
        let entry = {
            let mut entries = self.entries.borrow_mut();
            match entries.iter().position(|e| e.start == start) {
                Some(pos) => entries.remove(pos),
                None => return LineageStep::Build { rebuilt: false },
            }
        };
        match carry_step(&entry.basis, basis, options) {
            Some(GuardStep::Identical) => LineageStep::Reuse(entry.graph),
            Some(GuardStep::TightenOnly { changed }) => {
                let Ok(graph) = Rc::try_unwrap(entry.graph) else {
                    return LineageStep::Build { rebuilt: true };
                };
                let (pruned, cut) = graph.prune(sys, &changed);
                LineageStep::Prune(Rc::new(pruned), cut)
            }
            Some(GuardStep::RelaxOnly { changed }) => {
                // the previous valuation's checker has been dropped, so the
                // lineage holds the only reference; if anything else still
                // pins the graph, fall back to a fresh build
                let Ok(graph) = Rc::try_unwrap(entry.graph) else {
                    return LineageStep::Build { rebuilt: true };
                };
                match graph.extend(sys, &changed, &entry.basis.bounds, options, signals) {
                    Ok((extended, seeds)) => LineageStep::Extend(Rc::new(extended), seeds),
                    // a resource budget (or a job signal) tripped
                    // mid-extension: rebuild from scratch so the
                    // bounded-build semantics are exactly the fresh path's
                    // (an interrupted cell's rebuild re-trips at its first
                    // wave boundary, so nothing is wasted)
                    Err(()) => LineageStep::Build { rebuilt: true },
                }
            }
            _ => LineageStep::Build { rebuilt: true },
        }
    }

    /// Records a group's (complete) graph as the lineage survivor for the
    /// given basis.  Bounded builds are *not* recorded: a budget-tripped
    /// graph answers nothing, and the next valuation should pay exactly the
    /// fresh-path cost.
    pub(crate) fn record(
        &self,
        start: StartRestriction,
        graph: &Rc<ReachGraph>,
        basis: &GraphBasis,
    ) {
        if graph.is_bounded() {
            return;
        }
        let mut entries = self.entries.borrow_mut();
        debug_assert!(entries.iter().all(|e| e.start != start));
        entries.push(LineageEntry {
            start,
            graph: Rc::clone(graph),
            basis: basis.clone(),
        });
    }
}

/// The atom bounds of one rule, stripped of their relations (the relations
/// are model-fixed; [`CounterSystem::rule_guard_holds_bytes_at`] only needs
/// the numbers).
fn atom_bounds(bounds: &GuardBounds, rule: RuleId) -> Vec<i128> {
    bounds[rule.0].iter().map(|&(_, b)| b).collect()
}

/// The cached reachable graph of one `(start restriction, valuation)`
/// group: the deduplicated configuration store, the CSR transition
/// relation, and the interned start nodes.  Built once per group by
/// [`ReachGraph::build_with_signals`], evaluated once per obligation by
/// [`ReachGraph::evaluate`].
pub(crate) struct ReachGraph {
    store: StateStore,
    graph: GameGraph,
    start_ids: Vec<u32>,
    /// Every node in BFS discovery order.
    discovery: Vec<u32>,
    /// Stored nodes the current bounds no longer reach (a prune left them
    /// behind), in store order.  Their arc spans are kept exact for the
    /// current bounds like every reachable node's: a later extension can
    /// reach them again, and it never re-expands a node it finds stored.
    dormant: Vec<u32>,
    /// States the sequential build search counted (already adjusted
    /// for the reference's stop-before-store state-bound convention).
    states: usize,
    transitions: usize,
    /// Why the build was inconclusive, if a resource budget tripped.
    bound: Option<&'static str>,
    /// Memoised per-obligation verdicts over the current cached arcs,
    /// cleared by every mutation (extend, prune) and keyed by structural
    /// [`Spec`] equality (see the "Verdict memoization & lineage
    /// compaction" crate docs).  Only definite holds/violated outcomes are
    /// stored — `Unknown` and interrupted passes rerun.  A batched
    /// monitored pass stores every lane it answers.
    memo: RefCell<Vec<(Spec, CheckOutcome)>>,
}

impl ReachGraph {
    /// [`ReachGraph::build_with_signals`] with no job signals attached.
    #[cfg(test)]
    pub(crate) fn build(
        sys: &CounterSystem,
        starts: &[Configuration],
        options: &CheckerOptions,
    ) -> Self {
        Self::build_with_signals(sys, starts, options, None, (0, 0, 0))
            .unwrap_or_else(|_| unreachable!("no job signals were attached"))
    }

    /// Explores the reachable graph from the given start configurations —
    /// once — polling job signals at wave boundaries: a cancellation or a
    /// job budget trip abandons the build and returns the signal that
    /// fired.  `base` holds the `(states, transitions, resident bytes)` the
    /// job already accounted outside this build.
    pub(crate) fn build_with_signals(
        sys: &CounterSystem,
        starts: &[Configuration],
        options: &CheckerOptions,
        signals: Option<&JobSignals>,
        base: (usize, usize, usize),
    ) -> Result<Self, InterruptKind> {
        let mut explorer = Explorer::new(sys, options).with_signals(signals, base);
        let exploration = explorer.run(starts);
        let explored = explorer.into_explored();
        let (states, bound) = match exploration {
            Exploration::Complete => (explored.states, None),
            Exploration::TransitionBound => (explored.states, Some("transition bound exhausted")),
            // like the reference engine, report the budget rather than the
            // over-budget state that was interned before the bound tripped
            Exploration::StateBound => (explored.states - 1, Some("state bound exhausted")),
            Exploration::Interrupted(kind) => return Err(kind),
        };
        Ok(ReachGraph {
            store: explored.store,
            graph: explored.csr.graph,
            start_ids: explored.start_ids,
            discovery: explored.discovery,
            dormant: Vec::new(),
            states,
            transitions: explored.transitions,
            bound,
            memo: RefCell::new(Vec::new()),
        })
    }

    /// Extends a *complete* cached graph across a relax-only valuation step
    /// (see the "Incremental sweeps" crate docs): every stored row on which
    /// one of the `changed` rules is newly enabled — it fires under the new
    /// bounds but not under `old_bounds` — seeds the explorer's frontier,
    /// those nodes are re-expanded (their CSR spans are replaced with the
    /// full new action list), and fresh successors continue the
    /// level-synchronous BFS: the explorer resumes the graph's own record,
    /// appending to the store and the CSR arenas in place.  A final
    /// [`ReachGraph::relink`] pass re-derives the discovery order and the
    /// state/transition counts by replaying a BFS over the final cached
    /// edges, which makes every analysis pass — verdicts, counts,
    /// counterexample schedules — bit-identical to a from-scratch build of
    /// the new valuation.
    ///
    /// Returns the seeded-frontier size alongside the extended graph, or
    /// `Err(())` if a resource budget tripped mid-extension (the caller
    /// rebuilds from scratch so bounded-build semantics stay exactly the
    /// fresh path's).
    pub(crate) fn extend(
        mut self,
        sys: &CounterSystem,
        changed: &[usize],
        old_bounds: &GuardBounds,
        options: &CheckerOptions,
        signals: Option<&JobSignals>,
    ) -> Result<(Self, usize), ()> {
        debug_assert!(self.bound.is_none(), "only complete graphs are extended");
        let model = sys.model();
        let num_locations = model.locations().len();
        // self-loops never contribute exploration edges, so a weakened
        // self-loop guard cannot enable anything new
        let watched: Vec<(RuleId, usize, Vec<i128>)> = changed
            .iter()
            .map(|&r| RuleId(r))
            .filter(|&r| !model.rule(r).is_self_loop())
            .map(|r| (r, model.rule(r).from().0, atom_bounds(old_bounds, r)))
            .collect();

        // the seeded frontier: exactly the stored rows on which a
        // newly-enabled rule fires, the reachable ones in the old BFS
        // discovery order, then the dormant ones, which the extension may
        // reach again
        let mut seeds: Vec<u32> = Vec::new();
        for &node in self.discovery.iter().chain(&self.dormant) {
            let row = self.store.row(node);
            let vars = &row[num_locations..];
            let newly_enabled = watched.iter().any(|(rule, from, old)| {
                row[*from] > 0
                    && sys.rule_guard_holds_bytes(*rule, vars)
                    && !sys.rule_guard_holds_bytes_at(*rule, vars, old)
            });
            if newly_enabled {
                seeds.push(node);
            }
        }
        let seed_count = seeds.len();
        if seed_count == 0 {
            // no stored row unlocks anything new, so the weakened bounds are
            // unobservable on the reachable fragment: the graph — including
            // its counts and discovery order — is already the fresh build's
            return Ok((self, 0));
        }

        // the previous build was complete, so its state count equals the
        // store population: the resuming explorer's budget counters continue
        // from the cumulative totals, like a from-scratch build would count
        // (re-expanded seed edges are re-counted, which can only trip a
        // budget *earlier* than fresh — and a tripped extension rebuilds
        // fresh anyway).  Re-expanding a seed replaces its CSR span; the
        // discovery order the explorer appends to is re-derived below.
        let explored = Explored {
            store: self.store,
            csr: CsrRecorder::resume(self.graph),
            start_ids: self.start_ids,
            discovery: self.discovery,
            states: self.states,
            transitions: self.transitions,
        };
        let mut explorer =
            Explorer::resume(sys, options, explored).with_signals(signals, (0, 0, 0));
        // a bounded or interrupted extension falls back to the fresh-rebuild
        // path (whose first wave boundary re-trips an interrupting signal)
        if explorer.run_from_nodes(seeds) != Exploration::Complete {
            return Err(());
        }
        let explored = explorer.into_explored();
        (self.store, self.graph, self.start_ids, self.discovery) = (
            explored.store,
            explored.csr.graph,
            explored.start_ids,
            explored.discovery,
        );
        self.relink();
        // each re-expanded seed left its old arcs unreferenced; once those
        // outnumber the live arcs, copy the live ones out, so a run of
        // extensions never holds more than twice the live arc arena
        let live = self.graph.live_arcs();
        if self.graph.arcs.len() - live > live {
            let nodes = self.discovery.iter().chain(&self.dormant).copied();
            self.graph = self.graph.compacted(nodes, |_, _| true).0;
        }
        // the edges changed: memoised verdicts no longer describe this
        // graph (the zero-seed early return above keeps them — the graph
        // is untouched there)
        self.memo.borrow_mut().clear();
        Ok((self, seed_count))
    }

    /// Prunes a *complete* cached graph across a tighten-only valuation
    /// step: every cached action of a `changed` rule is re-validated
    /// against the tightened guard bounds on its source row, dead actions
    /// are cut, and the CSR arenas are compacted around the survivors
    /// (which also drops any unreferenced runs earlier extends left).
    /// Rows that become unreachable stay interned but are excluded from the
    /// re-derived discovery order by the final [`ReachGraph::relink`] —
    /// every analysis pass iterates discovery or walks edges from the start
    /// nodes, so verdicts, counts and counterexample schedules are
    /// bit-identical to a from-scratch build of the new valuation.
    /// Infallible: a tightened reachable set is a subset of the old one, so
    /// no resource budget that admitted the old graph can trip here.
    ///
    /// Returns the number of dead actions cut alongside the pruned graph.
    pub(crate) fn prune(mut self, sys: &CounterSystem, changed: &[usize]) -> (Self, usize) {
        debug_assert!(self.bound.is_none(), "only complete graphs are pruned");
        let num_locations = sys.model().locations().len();
        let mut is_changed = vec![false; sys.model().rules().len()];
        for &rule in changed {
            is_changed[rule] = true;
        }
        let store = &self.store;
        // walk nodes in discovery order so the compacted arenas are laid
        // out the way a fresh enumeration would visit them; per-node action
        // order is preserved, and tightening only removes actions, so the
        // surviving list is exactly the fresh build's.  Dormant nodes are
        // pruned too, which keeps their spans exact for a later extension.
        let nodes = self.discovery.iter().chain(&self.dormant).copied();
        let (graph, cut) = self.graph.compacted(nodes, |node, rule| {
            let rule = usize::from(rule);
            !is_changed[rule]
                || sys.rule_guard_holds_bytes(RuleId(rule), &store.row(node)[num_locations..])
        });
        self.graph = graph;
        self.relink();
        self.memo.borrow_mut().clear();
        (self, cut)
    }

    /// Re-derives the BFS discovery order and the state/transition counts
    /// by replaying a breadth-first search over the final cached CSR arcs
    /// from the start nodes.  Walking nodes in FIFO discovery order and each
    /// node's arcs (its actions and branches) in CSR order reproduces
    /// *exactly* the sequence in which a from-scratch explorer run at the
    /// new valuation would have discovered states and enumerated candidates — so every
    /// order-sensitive consumer (the non-blocking terminal scan and its
    /// prefix walk, the reported counts) behaves bit-identically to a fresh
    /// build.
    fn relink(&mut self) {
        let mut seen = vec![false; self.store.len()];
        let mut discovery: Vec<u32> = Vec::with_capacity(self.store.len());
        for &start in &self.start_ids {
            if !seen[start as usize] {
                seen[start as usize] = true;
                discovery.push(start);
            }
        }
        let mut transitions = 0usize;
        let mut cursor = 0usize;
        while cursor < discovery.len() {
            let node = discovery[cursor];
            cursor += 1;
            for arc in self.graph.arcs_of(node) {
                transitions += 1;
                if !seen[arc.to as usize] {
                    seen[arc.to as usize] = true;
                    discovery.push(arc.to);
                }
            }
        }
        self.states = discovery.len();
        self.transitions = transitions;
        self.discovery = discovery;
        self.dormant = self.store.ids().filter(|&id| !seen[id as usize]).collect();
    }

    /// Resident bytes of the cached graph: the deduplicated store, the CSR
    /// arenas and the node lists (start nodes, discovery order, dormant
    /// nodes).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.store.resident_bytes()
            + self.graph.resident_bytes()
            + (self.discovery.len() + self.dormant.len() + self.start_ids.len())
                * std::mem::size_of::<u32>()
    }

    /// Whether the build tripped a resource budget, leaving the graph
    /// incomplete: every evaluation on it is `Unknown`, and it never enters
    /// a sweep lineage.
    pub(crate) fn is_bounded(&self) -> bool {
        self.bound.is_some()
    }

    /// Number of distinct configurations explored for the cached graph.
    pub(crate) fn states(&self) -> usize {
        self.states
    }

    /// Number of transitions explored for the cached graph.
    pub(crate) fn transitions(&self) -> usize {
        self.transitions
    }

    /// Evaluates one obligation through the per-graph verdict memo: an
    /// obligation already answered on these cached arcs returns its
    /// stored outcome without running any analysis pass.  The memo is keyed
    /// by structural [`Spec`] equality and cleared by every graph mutation
    /// (extend, prune), so a hit can only serve a byte-identical graph —
    /// which makes the memoised outcome (verdict, counts, schedule) exactly
    /// what the pass would recompute.  Counterexample params are rewritten
    /// to the current system's: an identical-classified step can cross
    /// valuations whose params differ even though every compiled bound (and
    /// hence the graph and the violating schedule) is the same.
    ///
    /// Returns the outcome and whether it was served from the memo.
    pub(crate) fn evaluate_memo(
        &self,
        sys: &CounterSystem,
        spec: &Spec,
        options: &CheckerOptions,
        signals: Option<&JobSignals>,
    ) -> (CheckOutcome, bool) {
        let hit = self
            .memo
            .borrow()
            .iter()
            .find(|(s, _)| s == spec)
            .map(|(_, o)| o.clone());
        if let Some(mut outcome) = hit {
            if let Some(ce) = &mut outcome.counterexample {
                ce.params = sys.params().clone();
            }
            return (outcome, true);
        }
        let outcome = self.evaluate(sys, spec, options, signals);
        // only definite verdicts are worth replaying; `Unknown` (a budget
        // or an interruption) must rerun so a continuing job re-attempts it
        if matches!(outcome.status, CheckStatus::Holds | CheckStatus::Violated) {
            self.memo.borrow_mut().push((spec.clone(), outcome.clone()));
        }
        (outcome, false)
    }

    /// Evaluates one obligation as an analysis pass over the cached graph.
    /// A bounded graph answers every obligation `Unknown`, with the bound
    /// that tripped its build in the detail and the build's counts.
    ///
    /// The passes poll the *fast* job signals (cancellation/deadline) every
    /// ~1k product transitions; the job's resident-byte cap does not apply
    /// here — an analysis pass re-walks cached arcs rather than exploring
    /// new ones (see the "Job lifecycle & fault model" crate docs).  An
    /// interrupted pass reports an `interrupted: …` outcome and is redone
    /// from scratch by the job that continues the work, which is
    /// bit-identical because the passes are deterministic.
    pub(crate) fn evaluate(
        &self,
        sys: &CounterSystem,
        spec: &Spec,
        options: &CheckerOptions,
        signals: Option<&JobSignals>,
    ) -> CheckOutcome {
        if let Some(detail) = self.bound {
            return CheckOutcome::unknown(self.states, self.transitions, detail);
        }
        if let Some(kind) = signals.and_then(|s| s.fast_stop()) {
            return CheckOutcome::interrupted(0, 0, kind);
        }
        if let Some(monitor) = Monitor::of(spec) {
            return self.check_monitored(spec.name(), &monitor, false, sys, options, signals);
        }
        match spec {
            Spec::ExistsAvoidOneOf {
                name,
                forbidden_sets,
                ..
            } => self.check_exists_avoid(name, forbidden_sets, sys, options, signals),
            Spec::NonBlocking { name, .. } => self.check_non_blocking(name, sys, signals),
            Spec::CoverNever { .. } | Spec::NeverFrom { .. } => unreachable!("monitored above"),
        }
    }

    /// Whether the memo holds an outcome for `spec`.
    pub(crate) fn memoised(&self, spec: &Spec) -> bool {
        self.memo.borrow().iter().any(|(s, _)| s == spec)
    }

    /// Monitor bits per cached node: bit `i` is set iff some location of
    /// `sets[i]` is occupied in the node's row (a row's location prefix is
    /// indexed by `LocId`).
    fn occupancy(&self, sets: &[&LocSet]) -> Vec<u8> {
        self.store
            .ids()
            .map(|id| {
                let row = self.store.row(id);
                sets.iter().enumerate().fold(0u8, |bits, (i, set)| {
                    bits | u8::from(set.locs().iter().any(|l| row[l.0] != 0)) << i
                })
            })
            .collect()
    }

    /// The sticky monitor-bit propagation fixpoint: a BFS over
    /// `(node, cumulative bits)` product states walking cached arcs,
    /// firing a violation the first time a product state covers
    /// `violation_bits` — exactly when a monitored search over
    /// `(configuration, bits)` states fires on its fresh state.
    ///
    /// The search keeps one byte per node: bit `b` of `seen[node]` marks
    /// product state `(node, b)` found, which holds the two sets a
    /// monitored spec tracks at most.  Only a violation needs a path, so it
    /// reruns the same search with parent recording on (`record` starts
    /// with it on, for a caller that knows the obligation is violated).
    /// The search is deterministic, so the rerun stops at the same product
    /// state with the same counts, and its parent chain walks back into
    /// the schedule.
    fn check_monitored(
        &self,
        spec_name: &str,
        monitor: &Monitor,
        record: bool,
        sys: &CounterSystem,
        options: &CheckerOptions,
        signals: Option<&JobSignals>,
    ) -> CheckOutcome {
        let occ = self.occupancy(&monitor.sets);
        let violation_bits = monitor.violation;
        // with recording on, per product state in discovery order: the
        // entry of the state it was found from (`NO_ORD` for a start) and
        // the arc that found it (a start's entry only names the start node)
        let mut parents: Option<Vec<(u32, Arc)>> = record.then(Vec::new);
        loop {
            let mut seen = vec![0u8; self.store.len()];
            let mut queue: VecDeque<(u32, u8)> = VecDeque::new();
            let (mut states, mut transitions) = (0usize, 0usize);
            let mut violated = false;
            for &start in &self.start_ids {
                let bits = occ[start as usize];
                seen[start as usize] |= 1 << bits;
                states += 1;
                if states > options.max_states {
                    return CheckOutcome::unknown(states - 1, transitions, "state bound exhausted");
                }
                if let Some(parents) = &mut parents {
                    let root = Arc {
                        to: start,
                        ..Arc::default()
                    };
                    parents.push((NO_ORD, root));
                }
                if bits & violation_bits == violation_bits {
                    violated = true;
                    break;
                }
                queue.push_back((start, bits));
            }
            // the entry of the product state being expanded: the queue pops
            // states in the order they were found
            let mut expanded = 0u32;
            'search: while !violated {
                let Some((node, bits)) = queue.pop_front() else {
                    break;
                };
                for &arc in self.graph.arcs_of(node) {
                    transitions += 1;
                    if transitions & 0x3FF == 0 {
                        if let Some(kind) = signals.and_then(|s| s.fast_stop()) {
                            return CheckOutcome::interrupted(states, transitions, kind);
                        }
                    }
                    if transitions > options.max_transitions {
                        return CheckOutcome::unknown(
                            states,
                            transitions,
                            "transition bound exhausted",
                        );
                    }
                    let new_bits = bits | occ[arc.to as usize];
                    let found = 1u8 << new_bits;
                    if seen[arc.to as usize] & found != 0 {
                        continue;
                    }
                    seen[arc.to as usize] |= found;
                    states += 1;
                    if states > options.max_states {
                        return CheckOutcome::unknown(
                            states - 1,
                            transitions,
                            "state bound exhausted",
                        );
                    }
                    if let Some(parents) = &mut parents {
                        parents.push((expanded, arc));
                    }
                    if new_bits & violation_bits == violation_bits {
                        violated = true;
                        break 'search;
                    }
                    queue.push_back((arc.to, new_bits));
                }
                expanded += 1;
            }
            if !violated {
                return CheckOutcome::holds(states, transitions);
            }
            let Some(parents) = parents else {
                parents = Some(Vec::new());
                continue;
            };
            // every step is a real cached arc, so the schedule replays
            let mut steps = Vec::new();
            let mut entry = parents.len() - 1;
            while parents[entry].0 != NO_ORD {
                steps.push(scheduled_step(&parents[entry].1));
                entry = parents[entry].0 as usize;
            }
            steps.reverse();
            let ce = Counterexample {
                spec: spec_name.to_string(),
                params: sys.params().clone(),
                initial: self.store.decode(parents[entry].1.to),
                schedule: Schedule::from_steps(steps),
                explanation: monitor.explanation(),
            };
            return CheckOutcome::violated(states, transitions, ce);
        }
    }

    /// The batched monitored pass: answers the `CoverNever`/`NeverFrom`
    /// obligations `specs` of this group together and memoises every
    /// definite outcome.  The obligations are packed into words of up to
    /// 16 lanes (see `LaneWord`), and each word is one fixpoint over the
    /// cached arcs (`ReachGraph::lane_fixpoint`).
    ///
    /// A holding lane's counts are exactly its lone search's: that search
    /// finds every reachable product state once and walks every arc of
    /// each, so it reports `Σ popcount(lane)` states and
    /// `Σ popcount(lane) · out-degree` transitions.  Where a violation
    /// stops the lone search depends on its order, so a violated lane is
    /// resolved by that search, recording parents from the start; a
    /// holding lane whose counts exceed a bound is left unanswered, and
    /// its lone search reports the bound when the obligation is asked.
    ///
    /// Returns the interrupted outcome if a fast job signal stopped the
    /// pass, which then memoises nothing.
    pub(crate) fn answer_monitored(
        &self,
        sys: &CounterSystem,
        specs: &[&Spec],
        options: &CheckerOptions,
        signals: Option<&JobSignals>,
    ) -> Option<CheckOutcome> {
        if self.bound.is_some() {
            return None;
        }
        if let Some(kind) = signals.and_then(|s| s.fast_stop()) {
            return Some(CheckOutcome::interrupted(0, 0, kind));
        }
        let mut answered = Vec::new();
        for word in lane_words(specs) {
            let reach = match self.lane_fixpoint(&word, signals) {
                Ok(reach) => reach,
                Err(kind) => return Some(CheckOutcome::interrupted(0, 0, kind)),
            };
            // per lane: its product states and their arcs, and whether it
            // reached its violation bits
            let violation = word
                .lanes
                .iter()
                .enumerate()
                .fold(0u64, |m, (j, (_, monitor))| {
                    m | (1 << monitor.violation) << (4 * j)
                });
            let mut violated = 0u64;
            let mut counts = vec![(0usize, 0usize); word.lanes.len()];
            for &node in &self.discovery {
                let bits = reach[node as usize];
                violated |= bits & violation;
                let degree = self.graph.arcs_of(node).len();
                for (j, (states, transitions)) in counts.iter_mut().enumerate() {
                    let found = ((bits >> (4 * j)) & 0xF).count_ones() as usize;
                    *states += found;
                    *transitions += found * degree;
                }
            }
            for (j, ((spec, monitor), (states, transitions))) in
                word.lanes.iter().zip(counts).enumerate()
            {
                let outcome = if (violated >> (4 * j)) & 0xF != 0 {
                    let lone =
                        self.check_monitored(spec.name(), monitor, true, sys, options, signals);
                    if lone.is_interrupted() {
                        return Some(lone);
                    }
                    lone
                } else if states <= options.max_states && transitions <= options.max_transitions {
                    CheckOutcome::holds(states, transitions)
                } else {
                    continue;
                };
                if matches!(outcome.status, CheckStatus::Holds | CheckStatus::Violated) {
                    answered.push(((*spec).clone(), outcome));
                }
            }
        }
        self.memo.borrow_mut().extend(answered);
        None
    }

    /// One word's fixpoint: per stored node a `u64` of 4-bit lanes, where
    /// bit `b` of lane `j` marks product state `(node, b)` of obligation
    /// `j` reachable (unreachable nodes read 0).  One scan of the
    /// reachable rows gives each node's occupancy of every tracked set as
    /// an index into a table of the distinct occupancy patterns; the lanes
    /// then propagate along the cached arcs through a FIFO worklist that
    /// requeues a node whenever one of its lanes gains a bit.
    fn lane_fixpoint(
        &self,
        word: &LaneWord,
        signals: Option<&JobSignals>,
    ) -> Result<Vec<u64>, InterruptKind> {
        // per distinct set: the lanes tracking it as their bit 0 (`low`)
        // and as their bit 1 (`high`)
        let mut low = vec![0u64; word.sets.len()];
        let mut high = vec![0u64; word.sets.len()];
        for (j, (_, monitor)) in word.lanes.iter().enumerate() {
            for (i, set) in monitor.sets.iter().enumerate() {
                let d = word.set_index(set);
                let masks = if i == 0 { &mut low } else { &mut high };
                masks[d] |= 0xF << (4 * j);
            }
        }
        // per location of some tracked set: the sets holding it
        let mut holders: Vec<(usize, usize)> = Vec::new();
        for (d, set) in word.sets.iter().enumerate() {
            for loc in set.iter() {
                match holders.iter_mut().find(|(l, _)| *l == loc.0) {
                    Some((_, key)) => *key |= 1 << d,
                    None => holders.push((loc.0, 1 << d)),
                }
            }
        }
        // the row scan: a node's key has bit `d` set iff set `d` is
        // occupied, and each distinct key's pattern is the pair of lane
        // masks it selects
        let mut index = vec![u32::MAX; 1 << word.sets.len()];
        let mut patterns: Vec<(u64, u64)> = Vec::new();
        let mut pattern = vec![0u16; self.store.len()];
        for &node in &self.discovery {
            let row = self.store.row(node);
            let key = holders
                .iter()
                .filter(|&&(loc, _)| row[loc] != 0)
                .fold(0, |key, &(_, sets)| key | sets);
            if index[key] == u32::MAX {
                index[key] = patterns.len() as u32;
                let select = |masks: &[u64]| {
                    (0..masks.len())
                        .filter(|d| (key >> d) & 1 != 0)
                        .fold(0, |lanes, d| lanes | masks[d])
                };
                patterns.push((select(&low), select(&high)));
            }
            pattern[node as usize] = index[key] as u16;
        }
        let enter = |bits: u64, node: u32| advance(bits, patterns[pattern[node as usize] as usize]);

        let mut reach = vec![0u64; self.store.len()];
        let mut queued = vec![false; self.store.len()];
        let mut queue = VecDeque::new();
        let fresh = LANE_ZERO >> (4 * (WORD_LANES - word.lanes.len()));
        for &start in &self.start_ids {
            reach[start as usize] = enter(fresh, start);
            queued[start as usize] = true;
            queue.push_back(start);
        }
        let mut walked = 0usize;
        while let Some(node) = queue.pop_front() {
            queued[node as usize] = false;
            let bits = reach[node as usize];
            for arc in self.graph.arcs_of(node) {
                walked += 1;
                if walked & 0x3FF == 0 {
                    if let Some(kind) = signals.and_then(|s| s.fast_stop()) {
                        return Err(kind);
                    }
                }
                let to = arc.to as usize;
                let gained = enter(bits, arc.to) & !reach[to];
                if gained != 0 {
                    reach[to] |= gained;
                    if !queued[to] {
                        queued[to] = true;
                        queue.push_back(arc.to);
                    }
                }
            }
        }
        Ok(reach)
    }

    /// The `∀ adversary ∃ path` conditions: assemble the
    /// `(node, cumulative bits)` product game graph from cached arcs, then
    /// run the worklist attractor and strategy extraction.  The product
    /// leaves nodes already losing for the coin unexpanded, like a forward
    /// game search over `(configuration, bits)` states, so a complete pass
    /// reports that search's state and transition counts.  The product
    /// needs `2^k` flat slots per node for `k` sets.
    fn check_exists_avoid(
        &self,
        spec_name: &str,
        sets: &[LocSet],
        sys: &CounterSystem,
        options: &CheckerOptions,
        signals: Option<&JobSignals>,
    ) -> CheckOutcome {
        assert!(
            !sets.is_empty() && sets.len() <= 8,
            "between 1 and 8 tracked location sets are supported"
        );
        let all_bits: u8 = ((1u16 << sets.len()) - 1) as u8;
        let occ = self.occupancy(&sets.iter().collect::<Vec<_>>());
        let num_vals = 1usize << sets.len();
        let slot = |node: u32, bits: u8| node as usize * num_vals + bits as usize;
        let mut ordinal = vec![NO_ORD; self.store.len() * num_vals];
        // dense product ids in discovery order
        let mut pnodes: Vec<(u32, u8)> = Vec::new();
        let mut transitions = 0usize;

        let mut start_pids: Vec<u32> = Vec::new();
        for &start in &self.start_ids {
            let bits = occ[start as usize];
            let s = slot(start, bits);
            if ordinal[s] == NO_ORD {
                ordinal[s] = pnodes.len() as u32;
                pnodes.push((start, bits));
                if pnodes.len() > options.max_states {
                    return CheckOutcome::unknown(
                        pnodes.len() - 1,
                        transitions,
                        "state bound exhausted",
                    );
                }
            }
            start_pids.push(ordinal[s]);
        }

        // forward product construction in discovery order (the queue is the
        // pnodes arena itself, consumed by a cursor)
        let mut csr = CsrRecorder::default();
        let mut cursor = 0usize;
        while cursor < pnodes.len() {
            let pid = cursor as u32;
            let (node, bits) = pnodes[cursor];
            cursor += 1;
            if bits == all_bits {
                // already losing for the coin: not expanded
                continue;
            }
            let arcs = self.graph.arcs_of(node);
            if arcs.is_empty() {
                continue;
            }
            csr.begin_node();
            for &arc in arcs {
                transitions += 1;
                if transitions & 0x3FF == 0 {
                    if let Some(kind) = signals.and_then(|s| s.fast_stop()) {
                        return CheckOutcome::interrupted(pnodes.len(), transitions, kind);
                    }
                }
                if transitions > options.max_transitions {
                    return CheckOutcome::unknown(
                        pnodes.len(),
                        transitions,
                        "transition bound exhausted",
                    );
                }
                let new_bits = bits | occ[arc.to as usize];
                let s = slot(arc.to, new_bits);
                if ordinal[s] == NO_ORD {
                    ordinal[s] = pnodes.len() as u32;
                    pnodes.push((arc.to, new_bits));
                    if pnodes.len() > options.max_states {
                        return CheckOutcome::unknown(
                            pnodes.len() - 1,
                            transitions,
                            "state bound exhausted",
                        );
                    }
                }
                // the product arc copies the cached one, successor remapped
                csr.graph.arcs.push(Arc {
                    to: ordinal[s],
                    ..arc
                });
            }
            csr.end_node(pid);
        }

        let pgraph = csr.graph;
        let seeds: Vec<u32> = (0..pnodes.len() as u32)
            .filter(|&p| pnodes[p as usize].1 == all_bits)
            .collect();
        let winning = adversary_winning(&pgraph, pnodes.len(), seeds);
        let (states, transitions) = (pnodes.len(), transitions);
        match start_pids.iter().find(|&&p| winning[p as usize]) {
            None => CheckOutcome::holds(states, transitions),
            Some(&bad_start) => {
                let schedule = extract_strategy_path(
                    &pgraph,
                    &winning,
                    bad_start,
                    all_bits,
                    |p| pnodes[p as usize].1,
                    pnodes.len(),
                );
                let ce = Counterexample {
                    spec: spec_name.to_string(),
                    params: sys.params().clone(),
                    initial: self.store.decode(pnodes[bad_start as usize].0),
                    schedule,
                    explanation: format!(
                        "an adversary can force every coin resolution to occupy all of: {}",
                        sets.iter()
                            .map(|s| s.name().to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                };
                CheckOutcome::violated(states, transitions, ce)
            }
        }
    }

    /// The Theorem-2 side condition: progress-graph acyclicity plus a scan
    /// of the cached terminal nodes (empty CSR arc span) for automata
    /// stranded outside the border-copy sinks.  A positive verdict reports
    /// the whole graph; a violation reports the exploration done before
    /// the violating terminal and the path to it (see
    /// [`ReachGraph::prefix_before`]).
    fn check_non_blocking(
        &self,
        spec_name: &str,
        sys: &CounterSystem,
        signals: Option<&JobSignals>,
    ) -> CheckOutcome {
        if let Some(loc) = find_progress_cycle(sys) {
            let ce = Counterexample {
                spec: spec_name.to_string(),
                params: sys.params().clone(),
                initial: self
                    .start_ids
                    .first()
                    .map(|&s| self.store.decode(s))
                    .unwrap_or_else(|| sys.empty_configuration()),
                schedule: Schedule::new(),
                explanation: format!(
                    "the progress graph has a cycle through location {}",
                    sys.model().location(loc).name()
                ),
            };
            return CheckOutcome::violated(0, 0, ce);
        }
        // scan in BFS discovery order — a BFS dequeues (and classifies)
        // terminals in exactly this order, so the reported terminal is the
        // first one it would find (an extended graph's store order is not
        // its discovery order)
        for (scanned, &id) in self.discovery.iter().enumerate() {
            if scanned & 0xFFF == 0 {
                if let Some(kind) = signals.and_then(|s| s.fast_stop()) {
                    return CheckOutcome::interrupted(self.states, self.transitions, kind);
                }
            }
            if !self.graph.arcs_of(id).is_empty() {
                continue;
            }
            if let Some(loc) = blocked_location_in_row(sys, self.store.row(id)) {
                let (states, transitions, initial, schedule) = self.prefix_before(scanned);
                let ce = Counterexample {
                    spec: spec_name.to_string(),
                    params: sys.params().clone(),
                    initial,
                    schedule,
                    explanation: format!(
                        "a fair execution blocks with an automaton stuck in {}",
                        sys.model().location(loc).name()
                    ),
                };
                return CheckOutcome::violated(states, transitions, ce);
            }
        }
        CheckOutcome::holds(self.states, self.transitions)
    }

    /// The prefix of a BFS that stops when it dequeues `discovery[k]`: its
    /// counts (the start nodes plus every successor the nodes before it
    /// discovered, and those nodes' edges) and the start configuration and
    /// schedule that reach `discovery[k]` along first-discovery edges.
    ///
    /// Walking nodes in discovery order, and each node's arcs in CSR order,
    /// meets every node first through the arc by which a from-scratch
    /// exploration discovered it — the search that recorded a fresh build
    /// enumerated successors in exactly this order, and an extended or
    /// pruned graph's relinked discovery order is a fresh build's.  So
    /// fresh, extended and pruned graphs report the same path.
    fn prefix_before(&self, k: usize) -> (usize, usize, Configuration, Schedule) {
        let mut seen = vec![false; self.store.len()];
        // per node: the parent node and its first-discovery arc, or a
        // `NO_ORD` parent for the start nodes and unseen ones
        let mut parent: Vec<(u32, Arc)> = vec![(NO_ORD, Arc::default()); seen.len()];
        for &start in &self.start_ids {
            seen[start as usize] = true;
        }
        let (mut states, mut transitions) = (self.start_ids.len(), 0);
        for &node in &self.discovery[..k] {
            for &arc in self.graph.arcs_of(node) {
                transitions += 1;
                if !seen[arc.to as usize] {
                    seen[arc.to as usize] = true;
                    parent[arc.to as usize] = (node, arc);
                    states += 1;
                }
            }
        }
        let mut steps = Vec::new();
        let mut current = self.discovery[k];
        loop {
            let (from, arc) = parent[current as usize];
            if from == NO_ORD {
                break;
            }
            steps.push(scheduled_step(&arc));
            current = from;
        }
        steps.reverse();
        let initial = self.store.decode(current);
        (states, transitions, initial, Schedule::from_steps(steps))
    }
}

/// What a `CoverNever`/`NeverFrom` pass monitors: bit `i` of a product
/// state's bits records that `sets[i]` was occupied on the path to it, and
/// a product state whose bits equal `violation` violates the obligation.
struct Monitor<'s> {
    sets: Vec<&'s LocSet>,
    violation: u8,
}

impl<'s> Monitor<'s> {
    /// The monitor of a `CoverNever`/`NeverFrom` obligation; `None` for the
    /// other shapes.
    fn of(spec: &'s Spec) -> Option<Self> {
        match spec {
            Spec::CoverNever {
                trigger, forbidden, ..
            } => Some(Monitor {
                sets: vec![trigger, forbidden],
                violation: 0b11,
            }),
            Spec::NeverFrom { forbidden, .. } => Some(Monitor {
                sets: vec![forbidden],
                violation: 0b1,
            }),
            Spec::ExistsAvoidOneOf { .. } | Spec::NonBlocking { .. } => None,
        }
    }

    /// What a violating path does.
    fn explanation(&self) -> String {
        match self.sets[..] {
            [trigger, forbidden] => format!(
                "a path occupies both {} and {}",
                trigger.name(),
                forbidden.name()
            ),
            _ => format!("a path occupies {}", self.sets[0].name()),
        }
    }
}

/// Whether an obligation is answered by a monitored pass, alone or batched.
pub(crate) fn is_monitored(spec: &Spec) -> bool {
    matches!(spec, Spec::CoverNever { .. } | Spec::NeverFrom { .. })
}

/// Lanes in one word of the batched monitored pass, 4 bits each.
const WORD_LANES: usize = 16;

/// Distinct tracked sets one word may hold, so that an occupancy key
/// indexes a table of at most 2^16 patterns.
const WORD_SETS: usize = 16;

/// Bit 0 of every lane: each obligation's product state before any tracked
/// set is occupied.
const LANE_ZERO: u64 = 0x1111_1111_1111_1111;

/// The lanes of a word after entering a node whose occupancy ORs bit 0
/// into the tracked bits of the lanes in `low` and bit 1 into those of the
/// lanes in `high`: a lane's bit `b` moves to bit `b | o`.
fn advance(bits: u64, (low, high): (u64, u64)) -> u64 {
    // b -> b | 1 moves bits 0 and 2 of a lane onto bits 1 and 3
    let bits = (bits & !low) | ((((bits | (bits >> 1)) & 0x5555_5555_5555_5555) << 1) & low);
    // b -> b | 2 moves bits 0 and 1 of a lane onto bits 2 and 3
    (bits & !high) | ((((bits | (bits >> 2)) & 0x3333_3333_3333_3333) << 2) & high)
}

/// One word of the batched monitored pass: at most `WORD_LANES`
/// obligations, one lane each, tracking at most `WORD_SETS` distinct
/// location sets between them.
struct LaneWord<'s> {
    lanes: Vec<(&'s Spec, Monitor<'s>)>,
    /// The distinct tracked sets, by their locations.
    sets: Vec<&'s [LocId]>,
}

impl LaneWord<'_> {
    /// The index of a tracked set among the word's distinct sets.
    fn set_index(&self, set: &LocSet) -> usize {
        self.sets
            .iter()
            .position(|&locs| locs == set.locs())
            .expect("a word lists every set its lanes track")
    }
}

/// Packs monitored obligations into words, in order, opening a new word
/// when the lanes or the distinct sets of the last one run out.
fn lane_words<'s>(specs: &[&'s Spec]) -> Vec<LaneWord<'s>> {
    let mut words: Vec<LaneWord<'s>> = Vec::new();
    for &spec in specs {
        let monitor = Monitor::of(spec).expect("only monitored obligations are batched");
        let fits = words.last().is_some_and(|word| {
            let new = monitor
                .sets
                .iter()
                .filter(|set| !word.sets.contains(&set.locs()))
                .count();
            word.lanes.len() < WORD_LANES && word.sets.len() + new <= WORD_SETS
        });
        if !fits {
            words.push(LaneWord {
                lanes: Vec::new(),
                sets: Vec::new(),
            });
        }
        let word = words.last_mut().expect("a word was just ensured");
        for set in &monitor.sets {
            if !word.sets.contains(&set.locs()) {
                word.sets.push(set.locs());
            }
        }
        word.lanes.push((spec, monitor));
    }
    words
}

/// In a terminal state row, returns a location outside the sink set (border
/// copies) that still holds an automaton, if any.
fn blocked_location_in_row(sys: &CounterSystem, row: &[u8]) -> Option<LocId> {
    let model = sys.model();
    model
        .loc_ids()
        .find(|&l| row[l.0] > 0 && model.location(l).class() != LocClass::BorderCopy)
}

/// Returns a location lying on a cycle of non-self-loop progress rules, if
/// any — the structural half of the non-blocking side condition.
fn find_progress_cycle(sys: &CounterSystem) -> Option<LocId> {
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
                    1 => return Some(LocId(next)),
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

#[cfg(test)]
mod tests {
    use super::*;
    use ccta::GuardRel::{Ge, Lt};

    fn bounds(spec: &[&[(GuardRel, i128)]]) -> GuardBounds {
        spec.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn carry_policy_breaks_on_size_mixed_steps_and_levers() {
        let basis = |processes, spec: &[&[(GuardRel, i128)]]| GraphBasis {
            processes,
            coins: 1,
            bounds: bounds(spec),
        };
        let old = basis(3, &[&[(Ge, 3)], &[(Ge, 2)]]);
        let relaxed = basis(3, &[&[(Ge, 2)], &[(Ge, 2)]]);
        let tightened = basis(3, &[&[(Ge, 4)], &[(Ge, 2)]]);
        let on = CheckerOptions::default();
        assert_eq!(carry_step(&old, &old, &on), Some(GuardStep::Identical));
        assert_eq!(
            carry_step(&old, &relaxed, &on),
            Some(GuardStep::RelaxOnly { changed: vec![0] })
        );
        assert_eq!(
            carry_step(&old, &tightened, &on),
            Some(GuardStep::TightenOnly { changed: vec![0] })
        );
        // the breaks: a mixed step, a size change, and every step with the
        // incremental sweep off
        let mixed = basis(3, &[&[(Ge, 2)], &[(Ge, 3)]]);
        assert_eq!(carry_step(&old, &mixed, &on), None);
        assert_eq!(
            carry_step(&old, &basis(4, &[&[(Ge, 3)], &[(Ge, 2)]]), &on),
            None
        );
        let fresh = on.with_incremental_sweep(false);
        assert_eq!(carry_step(&old, &old, &fresh), None);
    }

    #[test]
    fn classifier_reports_identical_bounds() {
        let old = bounds(&[&[(Ge, 3)], &[], &[(Lt, 2), (Ge, 1)]]);
        assert_eq!(
            classify_guard_step(&old, &old.clone()),
            GuardStep::Identical
        );
    }

    #[test]
    fn classifier_detects_relaxation_in_both_directions() {
        // a >= bound weakens downward, a < bound weakens upward
        let old = bounds(&[&[(Ge, 3)], &[(Lt, 2)], &[(Ge, 5)]]);
        let new = bounds(&[&[(Ge, 2)], &[(Lt, 4)], &[(Ge, 5)]]);
        assert_eq!(
            classify_guard_step(&old, &new),
            GuardStep::RelaxOnly {
                changed: vec![0, 1]
            }
        );
    }

    #[test]
    fn classifier_separates_tighten_only_from_mixed() {
        let old = bounds(&[&[(Ge, 3)], &[(Lt, 2)]]);
        // Ge bound moved up: tighter, and nothing weakened -> prunable
        let tighter_ge = bounds(&[&[(Ge, 4)], &[(Lt, 2)]]);
        assert_eq!(
            classify_guard_step(&old, &tighter_ge),
            GuardStep::TightenOnly { changed: vec![0] }
        );
        // Lt bound moved down: tighter
        let tighter_lt = bounds(&[&[(Ge, 3)], &[(Lt, 1)]]);
        assert_eq!(
            classify_guard_step(&old, &tighter_lt),
            GuardStep::TightenOnly { changed: vec![1] }
        );
        // one rule relaxes while another tightens: genuinely mixed
        let mixed = bounds(&[&[(Ge, 2)], &[(Lt, 1)]]);
        assert_eq!(classify_guard_step(&old, &mixed), GuardStep::Mixed);
    }

    #[test]
    fn classifier_relaxes_per_atom_within_one_rule() {
        // one atom of the conjunction weakens, its sibling is unchanged:
        // the conjunction as a whole weakens
        let old = bounds(&[&[(Ge, 3), (Lt, 2)]]);
        let new = bounds(&[&[(Ge, 1), (Lt, 2)]]);
        assert_eq!(
            classify_guard_step(&old, &new),
            GuardStep::RelaxOnly { changed: vec![0] }
        );
        // ... but a tightened sibling poisons the rule: neither subset
        // relation holds for the conjunction as a whole
        let poisoned = bounds(&[&[(Ge, 1), (Lt, 1)]]);
        assert_eq!(classify_guard_step(&old, &poisoned), GuardStep::Mixed);
    }

    #[test]
    fn classifier_is_conservative_on_structural_mismatch() {
        let old = bounds(&[&[(Ge, 3)]]);
        assert_eq!(
            classify_guard_step(&old, &bounds(&[&[(Ge, 3)], &[]])),
            GuardStep::Mixed
        );
        assert_eq!(
            classify_guard_step(&old, &bounds(&[&[(Ge, 3), (Ge, 1)]])),
            GuardStep::Mixed
        );
        assert_eq!(
            classify_guard_step(&old, &bounds(&[&[(Lt, 3)]])),
            GuardStep::Mixed
        );
    }

    #[test]
    fn bounded_extension_rebuilds_and_never_enters_the_lineage() {
        let model = crate::fixtures::voting_model().single_round().unwrap();
        let old_sys =
            CounterSystem::new(model.clone(), ccta::ParamValuation::new(vec![7, 1, 1, 1])).unwrap();
        let new_sys =
            CounterSystem::new(model, ccta::ParamValuation::new(vec![7, 2, 1, 1])).unwrap();
        let options = CheckerOptions::default();
        let start = StartRestriction::RoundStart;
        let starts = start.configurations(&old_sys);

        let lineage = GraphLineage::new();
        let graph = Rc::new(ReachGraph::build(&old_sys, &starts, &options));
        assert!(!graph.is_bounded());
        let old_transitions = graph.transitions();
        lineage.record(start, &graph, &GraphBasis::of(&old_sys));
        drop(graph); // the lineage must hold the only reference

        // a transition budget equal to the old graph's total trips on the
        // first re-counted seed transition, so the relax-only extension is
        // guaranteed to come back bounded — the lineage entry must be
        // discarded and the step reported as a rebuild
        let mut tight = options;
        tight.max_transitions = old_transitions;
        match lineage.adopt(&new_sys, start, &GraphBasis::of(&new_sys), &tight, None) {
            LineageStep::Build { rebuilt } => assert!(rebuilt, "a tripped extension is a rebuild"),
            LineageStep::Reuse(_) => panic!("bounds differ; nothing may be reused"),
            LineageStep::Extend(..) => panic!("the budget must trip the extension"),
            LineageStep::Prune(..) => panic!("a relax-only step never prunes"),
        }

        // the consequent fresh build under the same budget is bounded, and
        // a bounded graph never enters the lineage
        let bounded = Rc::new(ReachGraph::build(
            &new_sys,
            &start.configurations(&new_sys),
            &tight,
        ));
        assert!(bounded.is_bounded());
        lineage.record(start, &bounded, &GraphBasis::of(&new_sys));
        assert!(
            lineage.entries.borrow().is_empty(),
            "bounded graphs are not kept"
        );
        match lineage.adopt(&new_sys, start, &GraphBasis::of(&new_sys), &options, None) {
            LineageStep::Build { rebuilt } => {
                assert!(!rebuilt, "the lineage must have stayed empty")
            }
            _ => panic!("an empty lineage can only build fresh"),
        }
    }

    #[test]
    fn classifier_matches_real_compiled_bounds() {
        // the compiled bounds of two valuations of the voting fixture:
        // raising t lowers the n - t - f quorum, a pure relaxation
        let model = crate::fixtures::voting_model().single_round().unwrap();
        let old_sys =
            CounterSystem::new(model.clone(), ccta::ParamValuation::new(vec![7, 1, 1, 1])).unwrap();
        let new_sys =
            CounterSystem::new(model, ccta::ParamValuation::new(vec![7, 2, 1, 1])).unwrap();
        let (old, new) = (old_sys.guard_bounds(), new_sys.guard_bounds());
        match classify_guard_step(&old, &new) {
            GuardStep::RelaxOnly { changed } => assert!(!changed.is_empty()),
            other => panic!("expected a relax-only step, got {other:?}"),
        }
        // ... and walking the same step backwards is its tighten-only mirror
        match classify_guard_step(&new, &old) {
            GuardStep::TightenOnly { changed } => assert!(!changed.is_empty()),
            other => panic!("expected a tighten-only step, got {other:?}"),
        }
        assert_eq!(
            classify_guard_step(&old, &old.clone()),
            GuardStep::Identical
        );
    }

    #[test]
    fn prune_is_bit_identical_to_fresh() {
        // [7,2,1,1] -> [7,1,1,1] lowers t, raising the n - t - f quorum:
        // a pure tightening (the mirror of the relax fixture above)
        let model = crate::fixtures::voting_model().single_round().unwrap();
        let relaxed_sys =
            CounterSystem::new(model.clone(), ccta::ParamValuation::new(vec![7, 2, 1, 1])).unwrap();
        let tight_sys =
            CounterSystem::new(model, ccta::ParamValuation::new(vec![7, 1, 1, 1])).unwrap();
        let GuardStep::TightenOnly { changed } =
            classify_guard_step(&relaxed_sys.guard_bounds(), &tight_sys.guard_bounds())
        else {
            panic!("lowering t must classify as tighten-only");
        };
        let options = CheckerOptions::default();
        let start = StartRestriction::RoundStart;
        let big = ReachGraph::build(&relaxed_sys, &start.configurations(&relaxed_sys), &options);
        let (pruned, cut) = big.prune(&tight_sys, &changed);
        assert!(cut > 0, "the tightened quorum must kill cached actions");

        let fresh = ReachGraph::build(&tight_sys, &start.configurations(&tight_sys), &options);
        assert_eq!(pruned.states(), fresh.states());
        assert_eq!(pruned.transitions(), fresh.transitions());
        // the analysis passes agree end to end — counts, verdicts and
        // reconstructed schedules
        let specs = [
            Spec::NonBlocking {
                name: "termination".into(),
                start,
            },
            Spec::NeverFrom {
                name: "reachable-E0".into(),
                start,
                forbidden: LocSet::from_names(tight_sys.model(), "E0", &["E0"]),
            },
        ];
        for spec in &specs {
            assert_eq!(
                pruned.evaluate(&tight_sys, spec, &options, None),
                fresh.evaluate(&tight_sys, spec, &options, None),
                "pruned and fresh graphs must answer {} identically",
                spec.name()
            );
        }
    }

    #[test]
    fn repeated_extensions_compact_unreferenced_spans() {
        // Claim every guarded rule was disabled at the previous bounds: each
        // stored row where one fires is then a seed, and its re-expansion
        // repeats its span exactly.  The reachable set cannot grow, so every
        // extension only leaves the seeds' old arcs unreferenced, until
        // they outnumber the live ones and the arenas get compacted.
        let model = crate::fixtures::voting_model().single_round().unwrap();
        let sys = CounterSystem::new(model, ccta::ParamValuation::new(vec![5, 1, 1, 1])).unwrap();
        let options = CheckerOptions::default();
        let start = StartRestriction::RoundStart;
        let fresh = ReachGraph::build(&sys, &start.configurations(&sys), &options);
        let bounds = sys.guard_bounds();
        let changed: Vec<usize> = (0..bounds.len())
            .filter(|&r| !bounds[r].is_empty())
            .collect();
        let never: GuardBounds = bounds
            .iter()
            .map(|atoms| {
                atoms
                    .iter()
                    .map(|&(rel, _)| match rel {
                        Ge => (Ge, i128::MAX),
                        Lt => (Lt, i128::MIN),
                    })
                    .collect()
            })
            .collect();

        let mut graph = ReachGraph::build(&sys, &start.configurations(&sys), &options);
        let mut compacted = false;
        for _ in 0..4 {
            let (extended, seeds) = graph
                .extend(&sys, &changed, &never, &options, None)
                .unwrap_or_else(|()| panic!("an unbounded extension completes"));
            graph = extended;
            assert!(seeds > 0);
            let (arcs, live) = (graph.graph.arcs.len(), graph.graph.live_arcs());
            assert!(arcs - live <= live, "{arcs} arcs, {live} live");
            compacted |= arcs == live;
        }
        assert!(compacted, "some extension must have compacted the arenas");
        assert_eq!(graph.graph.live_arcs(), fresh.graph.arcs.len());
        assert_eq!(graph.states(), fresh.states());
        assert_eq!(graph.transitions(), fresh.transitions());
        let spec = Spec::NonBlocking {
            name: "termination".into(),
            start,
        };
        assert_eq!(
            graph.evaluate(&sys, &spec, &options, None),
            fresh.evaluate(&sys, &spec, &options, None)
        );
    }

    /// Builds the stranding fixture's graph at `from`, carries it across the
    /// guard step to `to` and returns its `NonBlocking` outcome there, the
    /// work the step did (seeds or cut actions) and the carried graph's
    /// state count, after checking the outcome equals a fresh build's.
    fn carried_non_blocking(from: [u64; 4], to: [u64; 4]) -> (CheckOutcome, usize, usize) {
        let model = crate::fixtures::stranding_model().single_round().unwrap();
        let system = |values: [u64; 4]| {
            CounterSystem::new(model.clone(), ccta::ParamValuation::new(values.to_vec())).unwrap()
        };
        let (old_sys, new_sys) = (system(from), system(to));
        let options = CheckerOptions::default();
        let start = StartRestriction::RoundStart;
        let old = ReachGraph::build(&old_sys, &start.configurations(&old_sys), &options);
        let (carried, work) =
            match classify_guard_step(&old_sys.guard_bounds(), &new_sys.guard_bounds()) {
                GuardStep::TightenOnly { changed } => old.prune(&new_sys, &changed),
                GuardStep::RelaxOnly { changed } => old
                    .extend(&new_sys, &changed, &old_sys.guard_bounds(), &options, None)
                    .unwrap_or_else(|()| panic!("an unbounded extension completes")),
                other => panic!("expected a one-sided step, got {other:?}"),
            };
        let fresh = ReachGraph::build(&new_sys, &start.configurations(&new_sys), &options);
        let spec = Spec::NonBlocking {
            name: "termination".into(),
            start,
        };
        let outcome = carried.evaluate(&new_sys, &spec, &options, None);
        assert_eq!(outcome.status, CheckStatus::Violated);
        assert_eq!(outcome, fresh.evaluate(&new_sys, &spec, &options, None));
        (outcome, work, carried.states())
    }

    #[test]
    fn pruned_graph_reports_a_fresh_builds_blocked_path() {
        // raising the exit quorum to n - t + 1 = 5 strands all four
        // processes in S
        let (outcome, cut, _) = carried_non_blocking([5, 2, 1, 1], [5, 1, 1, 1]);
        assert!(cut > 0, "the tightened quorum must kill cached actions");
        let ce = outcome.counterexample.expect("a violation carries a path");
        assert!(ce.explanation.ends_with(" S"), "{}", ce.explanation);
    }

    #[test]
    fn extended_graph_reports_a_fresh_builds_blocked_path() {
        // lowering the quorum to 4 lets the exit fire, but opens Bad
        let (outcome, seeds, states) = carried_non_blocking([5, 1, 1, 1], [5, 2, 1, 1]);
        assert!(seeds > 0, "the relaxed guards must seed the extension");
        let ce = outcome.counterexample.expect("a violation carries a path");
        assert!(ce.explanation.ends_with(" Bad"), "{}", ce.explanation);
        // the prefix counts stop short of the whole graph
        assert!(
            outcome.states_explored < states,
            "{} of {states}",
            outcome.states_explored
        );
    }

    /// Answers `specs`, monitored obligations of one group, with one
    /// batched pass over a fresh graph, and checks every obligation's lone
    /// search on that graph against the reference search and every batched
    /// outcome against the lone one.  Returns the batched outcomes, `None`
    /// for a lane the pass left unanswered.
    fn batched_against_lone(
        sys: &CounterSystem,
        specs: &[Spec],
        options: &CheckerOptions,
    ) -> Vec<Option<CheckOutcome>> {
        let start = specs[0].start();
        let graph = ReachGraph::build(sys, &start.configurations(sys), options);
        assert!(!graph.is_bounded());
        let lanes: Vec<&Spec> = specs.iter().collect();
        assert!(graph.answer_monitored(sys, &lanes, options, None).is_none());
        let memo = graph.memo.borrow();
        specs
            .iter()
            .map(|spec| {
                let lone = graph.evaluate(sys, spec, options, None);
                let reference = crate::reference::reference_check(sys, spec, options);
                assert_eq!(lone.status, reference.status, "{}", spec.name());
                assert_eq!(lone.states_explored, reference.states_explored);
                assert_eq!(lone.transitions_explored, reference.transitions_explored);
                let path = |o: &CheckOutcome| {
                    (o.counterexample.as_ref()).map(|ce| (ce.initial.clone(), ce.schedule.clone()))
                };
                assert_eq!(path(&lone), path(&reference), "{}", spec.name());
                let batched = memo.iter().find(|(s, _)| s == spec).map(|(_, o)| o.clone());
                if let Some(batched) = &batched {
                    assert_eq!(batched, &lone, "{}", spec.name());
                }
                batched
            })
            .collect()
    }

    fn voting_system() -> CounterSystem {
        let model = crate::fixtures::voting_model().single_round().unwrap();
        CounterSystem::new(model, crate::fixtures::small_params()).unwrap()
    }

    #[test]
    fn a_batched_pass_over_two_lane_words_answers_like_lone_searches() {
        let sys = voting_system();
        let start = StartRestriction::Unanimous(ccta::BinValue::Zero);
        let set = |l: &str| LocSet::from_names(sys.model(), l, &[l]);
        let mut specs: Vec<Spec> = ["I0", "I1", "S", "E0", "E1", "IC", "H0", "H1", "C0", "C1"]
            .iter()
            .map(|&l| Spec::NeverFrom {
                name: format!("never-{l}"),
                start,
                forbidden: set(l),
            })
            .collect();
        for (trigger, forbidden) in [
            ("E0", "E1"),
            ("E1", "E0"),
            ("H0", "E1"),
            ("H1", "E0"),
            ("C0", "E1"),
            ("C1", "E0"),
            ("S", "C1"),
            ("I1", "E0"),
        ] {
            specs.push(Spec::CoverNever {
                name: format!("{trigger}-then-{forbidden}"),
                start,
                trigger: set(trigger),
                forbidden: set(forbidden),
            });
        }
        let lanes: Vec<&Spec> = specs.iter().collect();
        assert!(specs.len() > WORD_LANES);
        assert_eq!(lane_words(&lanes).len(), 2, "two lane words");
        let batched = batched_against_lone(&sys, &specs, &CheckerOptions::default());
        let statuses: Vec<CheckStatus> = batched
            .iter()
            .map(|o| o.as_ref().expect("every lane is answered").status)
            .collect();
        assert!(statuses.contains(&CheckStatus::Holds), "{statuses:?}");
        assert!(statuses.contains(&CheckStatus::Violated), "{statuses:?}");
    }

    #[test]
    fn a_violating_lane_beside_holding_lanes_gets_its_lone_counterexample() {
        let sys = voting_system();
        let start = StartRestriction::Unanimous(ccta::BinValue::Zero);
        let set = |l: &str| LocSet::from_names(sys.model(), l, &[l]);
        let specs = [
            Spec::NeverFrom {
                name: "unreachable-I1".into(),
                start,
                forbidden: set("I1"),
            },
            Spec::NeverFrom {
                name: "reachable-E0".into(),
                start,
                forbidden: set("E0"),
            },
            Spec::CoverNever {
                name: "vacuous".into(),
                start,
                trigger: set("I1"),
                forbidden: set("E0"),
            },
        ];
        let batched = batched_against_lone(&sys, &specs, &CheckerOptions::default());
        let statuses: Vec<CheckStatus> = batched.iter().flatten().map(|o| o.status).collect();
        assert_eq!(
            statuses,
            [
                CheckStatus::Holds,
                CheckStatus::Violated,
                CheckStatus::Holds
            ]
        );
        let ce = batched[1].as_ref().and_then(|o| o.counterexample.as_ref());
        assert!(ce.is_some_and(|ce| ce.schedule.is_applicable(&sys, &ce.initial)));
    }

    #[test]
    fn a_lane_over_the_state_bound_reports_its_lone_unknown() {
        let model = crate::fixtures::detour_model().single_round().unwrap();
        let sys = CounterSystem::new(model, crate::fixtures::small_params()).unwrap();
        let start = StartRestriction::RoundStart;
        let set = |l: &str| LocSet::from_names(sys.model(), l, &[l]);
        let specs = [
            Spec::NeverFrom {
                name: "never-Z".into(),
                start,
                forbidden: set("Z"),
            },
            // Z never occupied, so this holds, tracking whether A was
            // occupied: a configuration reached both ways counts twice
            Spec::CoverNever {
                name: "Z-then-A".into(),
                start,
                trigger: set("Z"),
                forbidden: set("A"),
            },
        ];
        let graph = ReachGraph::build(
            &sys,
            &start.configurations(&sys),
            &CheckerOptions::default(),
        );
        let lone = graph.evaluate(&sys, &specs[1], &CheckerOptions::default(), None);
        assert_eq!(lone.status, CheckStatus::Holds);
        assert!(lone.states_explored > graph.states(), "{lone}");

        // a state bound the build meets exactly: the first lane fits it,
        // the second runs over and stays unanswered
        let tight = CheckerOptions {
            max_states: graph.states(),
            ..CheckerOptions::default()
        };
        let batched = batched_against_lone(&sys, &specs, &tight);
        assert_eq!(
            batched[0].as_ref().map(|o| o.status),
            Some(CheckStatus::Holds)
        );
        assert!(batched[1].is_none());
        // asked, it reports the lone search's bound
        let outcomes = crate::ExplicitChecker::with_options(&sys, tight).check_all(&specs);
        let reference = crate::reference::reference_check(&sys, &specs[1], &tight);
        assert_eq!(outcomes[1].status, CheckStatus::Unknown);
        assert!(
            outcomes[1].detail.contains("state bound"),
            "{}",
            outcomes[1]
        );
        assert_eq!(outcomes[1].states_explored, reference.states_explored);
        assert_eq!(
            outcomes[1].transitions_explored,
            reference.transitions_explored
        );
    }

    #[test]
    fn verdict_memo_serves_identical_steps() {
        let model = crate::fixtures::voting_model().single_round().unwrap();
        let sys = CounterSystem::new(model, ccta::ParamValuation::new(vec![5, 1, 1, 1])).unwrap();
        let options = CheckerOptions::default();
        let start = StartRestriction::RoundStart;
        let graph = ReachGraph::build(&sys, &start.configurations(&sys), &options);
        let spec = Spec::NonBlocking {
            name: "termination".into(),
            start,
        };
        let (first, hit) = graph.evaluate_memo(&sys, &spec, &options, None);
        assert!(!hit, "the first evaluation pays the pass");
        let (second, hit) = graph.evaluate_memo(&sys, &spec, &options, None);
        assert!(hit, "an identical re-evaluation is a memo hit");
        assert_eq!(first, second);
    }
}
