//! Qualitative game solving for the probabilistic sufficient conditions.
//!
//! Lemma 2 of the paper reduces a positive-probability lower bound over all
//! round-rigid adversaries to the non-probabilistic statement
//! `∀ adversary ∃ path. φ` on the single-round system.  For the safety-shaped
//! `φ` used by conditions `C1` and `C2'` (`⋁ᵢ G ¬EX{Sᵢ}`), this is a
//! two-player reachability game:
//!
//! * the **adversary** chooses which applicable action fires next and tries
//!   to drive *every* probabilistic resolution into occupying all the sets
//!   `Sᵢ` (thereby refuting `φ` on all paths);
//! * the **coin** resolves the branches of non-Dirac rules and tries to keep
//!   at least one set unoccupied forever.
//!
//! The condition holds iff the adversary has no winning strategy from any
//! start configuration.  On the finite single-round graph this is decided by
//! a standard attractor computation.
//!
//! This module holds the game machinery: the flat CSR arenas (`GameGraph`,
//! filled by `CsrRecorder`) that store both the cached reachability graph
//! and the product game graphs derived from it, the O(arcs) worklist
//! attractor (`adversary_winning`), and the strategy-path extraction
//! (`extract_strategy_path`).  The analysis pass that assembles the
//! product game over the cached reachability graph of a start-restriction
//! group lives in [`crate::graph`].

use cccounter::{Action, Schedule, ScheduledStep};
use ccta::RuleId;

/// One recorded transition: the successor node, the rule and the branch of
/// the rule that reached it, and whether it opens its action (8 bytes).
/// An action is a maximal run of a node's arcs that starts with a `first`
/// arc, one arc per branch in branch order.
#[derive(Clone, Copy, Default)]
pub(crate) struct Arc {
    /// The successor node.
    pub(crate) to: u32,
    /// The rule of the arc's action.
    pub(crate) rule: u16,
    /// The branch of `rule` that leads to `to`.
    pub(crate) branch: u8,
    /// Whether this arc opens its action.
    pub(crate) first: bool,
}

/// The scheduled step that fires branch `branch` of rule `rule`: the one
/// place a recorded arc turns back into a [`ScheduledStep`], called only
/// where a counterexample schedule is built.  Single-round graphs only
/// record round-0 actions (the explorer asserts it).
pub(crate) fn scheduled_step(arc: &Arc) -> ScheduledStep {
    ScheduledStep::with_branch(
        Action::new(RuleId(usize::from(arc.rule)), 0),
        usize::from(arc.branch),
    )
}

/// The actions of a node's arcs, each as its run of arcs (never empty).
pub(crate) fn actions(arcs: &[Arc]) -> impl Iterator<Item = &[Arc]> {
    arcs.chunk_by(|_, next| !next.first)
}

/// An explored game (or reachability) graph in flat CSR form: every node
/// owns a span of arcs, its actions back to back in rule order.  Nodes are
/// expanded in discovery order, so both arenas are append-only — no
/// per-node or per-action `Vec` allocation.  A node span costs 8 bytes and
/// an arc 8.
///
/// `node_spans` is indexed by the store's node ids, which are dense; the
/// array is grown on demand, and unexpanded nodes (terminal ones, or ids
/// past the last expanded node) read back an empty span.  The graph-cache
/// evaluation passes ([`crate::graph`]) reuse the same arenas, both for the
/// cached reachability graph itself and for the product game graphs
/// derived from it; a product arc copies the cached arc with its successor
/// remapped.
#[derive(Default)]
pub(crate) struct GameGraph {
    /// Per node: `(start, end)` span into `arcs`.
    pub(crate) node_spans: Vec<(u32, u32)>,
    /// All arcs, back to back.
    pub(crate) arcs: Vec<Arc>,
}

impl GameGraph {
    /// The arcs of a node.
    pub(crate) fn arcs_of(&self, node: u32) -> &[Arc] {
        let (start, end) = self
            .node_spans
            .get(node as usize)
            .copied()
            .unwrap_or((0, 0));
        &self.arcs[start as usize..end as usize]
    }

    /// Arcs that some node's span references.  A re-recorded span (see
    /// [`CsrRecorder`]) leaves its old arcs behind, so this can fall short
    /// of the arena length.
    pub(crate) fn live_arcs(&self) -> usize {
        self.node_spans
            .iter()
            .map(|&(start, end)| (end - start) as usize)
            .sum()
    }

    /// A dense copy holding the spans of `nodes`, laid out in that order,
    /// with only the actions `keep` accepts, given the node and the
    /// action's rule (each node's action order is preserved).  Unreferenced
    /// arcs and the spans of nodes outside `nodes` are not copied.  Returns
    /// the copy and the number of actions dropped.
    pub(crate) fn compacted(
        &self,
        nodes: impl IntoIterator<Item = u32>,
        mut keep: impl FnMut(u32, u16) -> bool,
    ) -> (GameGraph, usize) {
        let mut compact = CsrRecorder::default();
        let mut dropped = 0;
        for node in nodes {
            compact.begin_node();
            for run in actions(self.arcs_of(node)) {
                if keep(node, run[0].rule) {
                    compact.graph.arcs.extend_from_slice(run);
                } else {
                    dropped += 1;
                }
            }
            compact.end_node(node);
        }
        (compact.graph, dropped)
    }

    /// Resident bytes of the CSR arenas (node spans and arcs).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.node_spans.len() * std::mem::size_of::<(u32, u32)>()
            + self.arcs.len() * std::mem::size_of::<Arc>()
    }
}

/// Appends explored arcs (or an analysis pass's product arcs) to a
/// [`GameGraph`]'s CSR arenas in discovery order.  Used by the explorer,
/// which records every cache build and extension
/// ([`crate::explorer::Explored`]), by the product game of
/// [`crate::graph`] and by [`GameGraph::compacted`]; the last two copy
/// whole recorded actions into `graph.arcs` between `begin_node` and
/// `end_node`.
///
/// The arenas are append-only, but a *node's* span may be re-recorded: a
/// later `begin_node … end_node` bracket for an already-recorded node
/// appends the fresh arcs and repoints the node's span at them, leaving the
/// old arcs as unreferenced garbage.  This is the CSR append mode of the
/// incremental sweep ([`CsrRecorder::resume`]): re-expanding a node whose
/// guard set grew replaces its span with the full new action list, so
/// readers never see a half-updated node.
#[derive(Default)]
pub(crate) struct CsrRecorder {
    pub(crate) graph: GameGraph,
    arcs_start: u32,
    /// The rule of the action being recorded.
    rule: u16,
    /// Whether the next arc opens the action being recorded.
    first: bool,
}

impl CsrRecorder {
    /// A recorder appending to an existing graph (the incremental sweep's
    /// extension pass); a `Default` recorder starts a fresh graph.
    pub(crate) fn resume(graph: GameGraph) -> Self {
        CsrRecorder {
            graph,
            ..CsrRecorder::default()
        }
    }

    pub(crate) fn begin_node(&mut self) {
        self.arcs_start = self.graph.arcs.len() as u32;
    }

    /// Opens an action of `rule`.  Every action must record at least one
    /// arc: an action without arcs would vanish, and a node whose actions
    /// all vanished would read as terminal.
    pub(crate) fn begin_action(&mut self, rule: u16) {
        debug_assert!(!self.first, "every recorded action has at least one arc");
        self.rule = rule;
        self.first = true;
    }

    pub(crate) fn edge(&mut self, to: u32, branch: u8) {
        self.graph.arcs.push(Arc {
            to,
            rule: self.rule,
            branch,
            first: self.first,
        });
        self.first = false;
    }

    pub(crate) fn end_node(&mut self, node: u32) {
        debug_assert!(!self.first, "every recorded action has at least one arc");
        if self.graph.node_spans.len() <= node as usize {
            self.graph.node_spans.resize(node as usize + 1, (0, 0));
        }
        self.graph.node_spans[node as usize] = (self.arcs_start, self.graph.arcs.len() as u32);
    }
}

/// The adversary attractor over a game graph in CSR form.
///
/// `winning[i] = true` iff the adversary can force all probabilistic
/// resolutions from node `i` into a node of `seeds` (the states already
/// losing for the coin).  Computed with a worklist in O(arcs): actions are
/// numbered in arc order, `pending[a]` counts the not-yet-winning
/// successors of action `a`, and an action whose count reaches zero forces
/// its node.  `id_bound` is an exclusive upper bound on the node ids
/// appearing in the graph and the seeds.  The graph must never have
/// re-recorded a span (a product graph never does), so every arc belongs
/// to exactly one node span.
pub(crate) fn adversary_winning(graph: &GameGraph, id_bound: usize, seeds: Vec<u32>) -> Vec<bool> {
    debug_assert_eq!(graph.live_arcs(), graph.arcs.len());
    let mut winning: Vec<bool> = vec![false; id_bound];
    let mut worklist = seeds;
    for &s in &worklist {
        winning[s as usize] = true;
    }
    // flat predecessor arena, one entry per arc (duplicates intended: an
    // action with two branches into the same successor must decrement
    // twice), built with a two-pass counting sort
    let mut pred_offsets: Vec<u32> = vec![0; id_bound + 1];
    let mut action_count = 0usize;
    for arc in &graph.arcs {
        pred_offsets[arc.to as usize + 1] += 1;
        action_count += usize::from(arc.first);
    }
    for i in 0..id_bound {
        pred_offsets[i + 1] += pred_offsets[i];
    }
    let mut pred_actions: Vec<u32> = vec![0; graph.arcs.len()];
    let mut fill = pred_offsets.clone();
    // per action, numbered in arc order: its node, and how many of its
    // branches are not winning yet
    let mut owners: Vec<u32> = Vec::with_capacity(action_count);
    let mut pending: Vec<u32> = Vec::with_capacity(action_count);
    for (node, &(start, end)) in graph.node_spans.iter().enumerate() {
        for arc in &graph.arcs[start as usize..end as usize] {
            if arc.first {
                owners.push(node as u32);
                pending.push(0);
            }
            let action = pending.len() - 1;
            pending[action] += 1;
            let slot = &mut fill[arc.to as usize];
            pred_actions[*slot as usize] = action as u32;
            *slot += 1;
        }
    }
    while let Some(w) = worklist.pop() {
        let span = pred_offsets[w as usize] as usize..pred_offsets[w as usize + 1] as usize;
        for &action in &pred_actions[span] {
            let count = &mut pending[action as usize];
            *count -= 1;
            if *count == 0 {
                let node = owners[action as usize] as usize;
                if !winning[node] {
                    winning[node] = true;
                    worklist.push(node as u32);
                }
            }
        }
    }
    winning
}

/// Follows the adversary's winning strategy (taking the first branch at every
/// probabilistic choice) until every tracked set has been occupied, returning
/// the corresponding schedule as a sample violating execution.  `bits_of`
/// reads a node's cumulative monitor bits and `node_count` bounds the walk.
pub(crate) fn extract_strategy_path(
    graph: &GameGraph,
    winning: &[bool],
    start: u32,
    all_bits: u8,
    bits_of: impl Fn(u32) -> u8,
    node_count: usize,
) -> Schedule {
    let mut steps = Vec::new();
    let mut current = start;
    let mut guard = 0usize;
    while bits_of(current) != all_bits && guard < node_count + 1 {
        guard += 1;
        let Some(run) =
            actions(graph.arcs_of(current)).find(|run| run.iter().all(|a| winning[a.to as usize]))
        else {
            break;
        };
        steps.push(scheduled_step(&run[0]));
        current = run[0].to;
    }
    Schedule::from_steps(steps)
}

#[cfg(test)]
mod tests {
    use super::{actions, adversary_winning, Arc, CsrRecorder, GameGraph};
    use crate::fixtures;
    use crate::spec::{LocSet, Spec, StartRestriction};
    use crate::ExplicitChecker;
    use cccounter::CounterSystem;
    use ccta::BinValue;

    fn sys() -> CounterSystem {
        let model = fixtures::voting_model().single_round().unwrap();
        CounterSystem::new(model, fixtures::small_params()).unwrap()
    }

    #[test]
    fn an_arc_is_eight_bytes() {
        // successor, rule, branch and the flag that opens an action
        assert_eq!(std::mem::size_of::<Arc>(), 8);
    }

    /// Node 0 with a two-branch coin action of rule 3 (into nodes 1 and 2)
    /// followed by a one-branch action of rule 5 (into node 3).
    fn coin_then_dirac() -> GameGraph {
        let mut rec = CsrRecorder::default();
        rec.begin_node();
        rec.begin_action(3);
        rec.edge(1, 0);
        rec.edge(2, 1);
        rec.begin_action(5);
        rec.edge(3, 0);
        rec.end_node(0);
        rec.graph
    }

    #[test]
    fn a_coin_action_stays_one_action_and_forces_only_on_both_branches() {
        let full = coin_then_dirac();
        assert_eq!(actions(full.arcs_of(0)).count(), 2);
        // the one-branch action forces its node alone
        assert!(adversary_winning(&full, 4, vec![3])[0]);

        let (coin, dropped) = full.compacted(0..4, |_, rule| rule != 5);
        assert_eq!(dropped, 1, "compaction counts dropped actions");
        let runs: Vec<Vec<(u32, u16, u8)>> = actions(coin.arcs_of(0))
            .map(|run| run.iter().map(|a| (a.to, a.rule, a.branch)).collect())
            .collect();
        assert_eq!(runs, [vec![(1, 3, 0), (2, 3, 1)]]);
        assert!(!adversary_winning(&coin, 4, vec![3])[0]);
        // one winning branch leaves the coin a way out; both force the node
        assert!(!adversary_winning(&coin, 4, vec![1])[0]);
        assert!(!adversary_winning(&coin, 4, vec![2])[0]);
        assert!(adversary_winning(&coin, 4, vec![1, 2])[0]);
    }

    #[test]
    fn c1_style_condition_holds_for_the_voting_fixture() {
        // C1: under every adversary there is a coin resolution after which
        // all correct processes end the round with the same value, i.e. at
        // least one of E0 / E1 stays unoccupied.
        let sys = sys();
        let checker = ExplicitChecker::new(&sys);
        let spec = Spec::ExistsAvoidOneOf {
            name: "C1".into(),
            start: StartRestriction::RoundStart,
            forbidden_sets: vec![
                LocSet::from_names(sys.model(), "F0", &["E0"]),
                LocSet::from_names(sys.model(), "F1", &["E1"]),
            ],
        };
        let outcome = checker.check(&spec);
        assert!(outcome.is_holds(), "{outcome}");
        assert!(outcome.states_explored > 10);
    }

    #[test]
    fn c2_style_condition_holds_from_unanimous_starts() {
        // From a unanimous-0 start there is always a resolution avoiding E1.
        let sys = sys();
        let checker = ExplicitChecker::new(&sys);
        let spec = Spec::ExistsAvoidOneOf {
            name: "C2'".into(),
            start: StartRestriction::Unanimous(BinValue::Zero),
            forbidden_sets: vec![LocSet::from_names(sys.model(), "F1", &["E1"])],
        };
        let outcome = checker.check(&spec);
        assert!(outcome.is_holds(), "{outcome}");
    }

    #[test]
    fn impossible_avoidance_is_refuted_with_a_strategy() {
        // Requiring that the border copies are never occupied is hopeless:
        // every fair execution parks processes there, so the adversary wins.
        let sys = sys();
        let checker = ExplicitChecker::new(&sys);
        let spec = Spec::ExistsAvoidOneOf {
            name: "impossible".into(),
            start: StartRestriction::Unanimous(BinValue::Zero),
            forbidden_sets: vec![LocSet::from_names(
                sys.model(),
                "copies",
                &["J0'", "J1'", "JC'"],
            )],
        };
        let outcome = checker.check(&spec);
        assert!(outcome.is_violated());
        let ce = outcome.counterexample.unwrap();
        // the extracted strategy path indeed reaches an occupied border copy
        let path = ce.schedule.apply(&sys, &ce.initial).unwrap();
        let j0c = sys.model().location_id("J0'").unwrap();
        let j1c = sys.model().location_id("J1'").unwrap();
        let jcc = sys.model().location_id("JC'").unwrap();
        assert!(path.visits(|c| {
            c.counter(j0c, 0) > 0 || c.counter(j1c, 0) > 0 || c.counter(jcc, 0) > 0
        }));
    }

    #[test]
    fn avoidance_violated_when_adversary_controls_split_rounds() {
        // With a 2/1 split the adversary can drive two processes into E0 via
        // the majority rule and the remaining process into E1 once the coin
        // lands 1 — but if the coin lands 0 the third process can only reach
        // E0.  Hence the adversary cannot force both E0 and E1 on *all*
        // resolutions and C1 still holds; this test documents that the game
        // result depends on the coin's freedom by removing one of the sets.
        let sys = sys();
        let checker = ExplicitChecker::new(&sys);
        // Forcing occupation of E0 alone is easy for the adversary from a
        // unanimous-0 start (majority of 0s), so avoidance of {E0} fails.
        let spec = Spec::ExistsAvoidOneOf {
            name: "avoid-E0".into(),
            start: StartRestriction::Unanimous(BinValue::Zero),
            forbidden_sets: vec![LocSet::from_names(sys.model(), "F0", &["E0"])],
        };
        let outcome = checker.check(&spec);
        assert!(outcome.is_violated());
    }

    #[test]
    #[should_panic(expected = "between 1 and 8")]
    fn empty_set_family_is_rejected() {
        let sys = sys();
        let spec = Spec::ExistsAvoidOneOf {
            name: "bad".into(),
            start: StartRestriction::RoundStart,
            forbidden_sets: Vec::new(),
        };
        let _ = ExplicitChecker::new(&sys).check(&spec);
    }
}
