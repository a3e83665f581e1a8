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
//! and the product game graphs derived from it, the O(edges) worklist
//! attractor (`adversary_winning`), and the strategy-path extraction
//! (`extract_strategy_path`).  The analysis pass that assembles the
//! product game over the cached reachability graph of a start-restriction
//! group lives in [`crate::graph`].

use cccounter::{Schedule, ScheduledStep};

/// An explored game (or reachability) graph in flat CSR form: every node
/// owns a span of actions, every action owns a span of edges
/// (`(scheduled step, successor)` per branch).  Nodes are expanded in
/// discovery order, so all three arenas are append-only — no per-node or
/// per-action `Vec` allocation.
///
/// `node_spans` is indexed by the store's node ids; with a sharded store
/// those interleave the shard tag, so the array is grown on demand (ids stay
/// near-dense as long as the shards stay balanced) and unexpanded nodes
/// read back an empty span.  The graph-cache evaluation passes
/// ([`crate::graph`]) reuse the same arenas, both for the cached
/// reachability graph itself and for the product game graphs derived from
/// it.
#[derive(Default)]
pub(crate) struct GameGraph {
    /// Per node: `(start, end)` span into `action_nodes`/`action_spans`.
    pub(crate) node_spans: Vec<(u32, u32)>,
    /// Per action: the node it belongs to.
    pub(crate) action_nodes: Vec<u32>,
    /// Per action: `(start, end)` span into `edge_list`.
    pub(crate) action_spans: Vec<(u32, u32)>,
    /// All edges, back to back.
    pub(crate) edge_list: Vec<(ScheduledStep, u32)>,
}

impl GameGraph {
    /// The actions of a node, as indices into the action arenas.
    pub(crate) fn actions_of(&self, node: u32) -> std::ops::Range<usize> {
        let (start, end) = self
            .node_spans
            .get(node as usize)
            .copied()
            .unwrap_or((0, 0));
        start as usize..end as usize
    }

    /// The edges of an action.
    pub(crate) fn edges_of(&self, action: usize) -> &[(ScheduledStep, u32)] {
        let (start, end) = self.action_spans[action];
        &self.edge_list[start as usize..end as usize]
    }

    /// Actions that some node's span references.  A re-recorded span (see
    /// [`CsrRecorder`]) leaves its old runs behind, so this can fall short
    /// of the arena length.
    pub(crate) fn live_actions(&self) -> usize {
        self.node_spans
            .iter()
            .map(|&(start, end)| (end - start) as usize)
            .sum()
    }

    /// A dense copy holding the spans of `nodes`, laid out in that order,
    /// with only the actions `keep` accepts (each node's action order is
    /// preserved).  Unreferenced runs and the spans of nodes outside `nodes`
    /// are not copied.  Returns the copy and the number of actions dropped.
    pub(crate) fn compacted(
        &self,
        nodes: impl IntoIterator<Item = u32>,
        mut keep: impl FnMut(u32, &[(ScheduledStep, u32)]) -> bool,
    ) -> (GameGraph, usize) {
        let mut compact = CsrRecorder::default();
        let mut dropped = 0;
        for node in nodes {
            compact.begin_node();
            for a in self.actions_of(node) {
                let edges = self.edges_of(a);
                if !keep(node, edges) {
                    dropped += 1;
                    continue;
                }
                compact.begin_action();
                for &(step, to) in edges {
                    compact.edge(step, to);
                }
                compact.end_action(node);
            }
            compact.end_node(node);
        }
        (compact.graph, dropped)
    }

    /// Resident bytes of the CSR arenas (node spans, action table, edges).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.node_spans.len() * std::mem::size_of::<(u32, u32)>()
            + self.action_nodes.len() * std::mem::size_of::<u32>()
            + self.action_spans.len() * std::mem::size_of::<(u32, u32)>()
            + self.edge_list.len() * std::mem::size_of::<(ScheduledStep, u32)>()
    }
}

/// Appends explored edges (or an analysis pass's product edges) to a
/// [`GameGraph`]'s CSR arenas in discovery order.  Used by the explorer's
/// replay, which records every cache build and extension
/// ([`crate::explorer::Explored`]), by the product game of
/// [`crate::graph`] and by [`GameGraph::compacted`].
///
/// The arenas are append-only, but a *node's* span may be re-recorded: a
/// later `begin_node … end_node` bracket for an already-recorded node
/// appends the fresh action/edge runs and repoints the node's span at them,
/// leaving the old runs as unreferenced garbage.  This is the CSR append
/// mode of the incremental sweep ([`CsrRecorder::resume`]): re-expanding a
/// node whose guard set grew replaces its span with the full new action
/// list, so readers never see a half-updated node.
#[derive(Default)]
pub(crate) struct CsrRecorder {
    pub(crate) graph: GameGraph,
    actions_start: u32,
    edges_start: u32,
}

impl CsrRecorder {
    /// A recorder appending to an existing graph (the incremental sweep's
    /// extension pass); a `Default` recorder starts a fresh graph.
    pub(crate) fn resume(graph: GameGraph) -> Self {
        CsrRecorder {
            actions_start: graph.action_spans.len() as u32,
            edges_start: graph.edge_list.len() as u32,
            graph,
        }
    }

    pub(crate) fn begin_node(&mut self) {
        self.actions_start = self.graph.action_spans.len() as u32;
    }

    pub(crate) fn begin_action(&mut self) {
        self.edges_start = self.graph.edge_list.len() as u32;
    }

    pub(crate) fn edge(&mut self, step: ScheduledStep, to: u32) {
        self.graph.edge_list.push((step, to));
    }

    pub(crate) fn end_action(&mut self, node: u32) {
        self.graph.action_nodes.push(node);
        self.graph
            .action_spans
            .push((self.edges_start, self.graph.edge_list.len() as u32));
    }

    pub(crate) fn end_node(&mut self, node: u32) {
        if self.graph.node_spans.len() <= node as usize {
            self.graph.node_spans.resize(node as usize + 1, (0, 0));
        }
        self.graph.node_spans[node as usize] =
            (self.actions_start, self.graph.action_spans.len() as u32);
    }
}

/// The adversary attractor over a game graph in CSR form.
///
/// `winning[i] = true` iff the adversary can force all probabilistic
/// resolutions from node `i` into a node of `seeds` (the states already
/// losing for the coin).  Computed with a worklist in O(edges):
/// `pending[a]` counts the not-yet-winning successors of action `a`; an
/// action whose count reaches zero forces its node.  `id_bound` is an
/// exclusive upper bound on the node ids appearing in the graph and the
/// seeds.
pub(crate) fn adversary_winning(graph: &GameGraph, id_bound: usize, seeds: Vec<u32>) -> Vec<bool> {
    let mut winning: Vec<bool> = vec![false; id_bound];
    let mut worklist = seeds;
    for &s in &worklist {
        winning[s as usize] = true;
    }
    // flat predecessor arena, one entry per edge (duplicates intended: an
    // action with two branches into the same successor must decrement
    // twice), built with a two-pass counting sort
    let mut pred_offsets: Vec<u32> = vec![0; id_bound + 1];
    for &(_, succ) in &graph.edge_list {
        pred_offsets[succ as usize + 1] += 1;
    }
    for i in 0..id_bound {
        pred_offsets[i + 1] += pred_offsets[i];
    }
    let mut pred_actions: Vec<u32> = vec![0; graph.edge_list.len()];
    let mut fill = pred_offsets.clone();
    let mut pending: Vec<u32> = Vec::with_capacity(graph.action_spans.len());
    for (a, &(start, end)) in graph.action_spans.iter().enumerate() {
        pending.push(end - start);
        for &(_, succ) in &graph.edge_list[start as usize..end as usize] {
            let slot = &mut fill[succ as usize];
            pred_actions[*slot as usize] = a as u32;
            *slot += 1;
        }
    }
    while let Some(w) = worklist.pop() {
        let span = pred_offsets[w as usize] as usize..pred_offsets[w as usize + 1] as usize;
        for &action in &pred_actions[span] {
            let count = &mut pending[action as usize];
            *count -= 1;
            // an action with no branches never forces (empty spans start at
            // zero and are never decremented)
            if *count == 0 {
                let node = graph.action_nodes[action as usize] as usize;
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
        let Some(edges) = graph
            .actions_of(current)
            .map(|a| graph.edges_of(a))
            .find(|e| !e.is_empty() && e.iter().all(|&(_, succ)| winning[succ as usize]))
        else {
            break;
        };
        let (step, succ) = edges[0];
        steps.push(step);
        current = succ;
    }
    Schedule::from_steps(steps)
}

#[cfg(test)]
mod tests {
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
