//! The generic exploration driver shared by every search of this crate.
//!
//! Every exploration of the engine is the same loop: pop a node, enumerate
//! its applicable progress actions, expand every probabilistic branch in
//! place on the row substrate, intern the successor into the
//! [`StateStore`], and enqueue fresh states.  [`Explorer`] owns that
//! expand → intern → frontier cycle once, and records what it sees into
//! one owned [`Explored`] record: the store, every explored transition as
//! a CSR arc, the fresh start nodes, the discovery order and the state and
//! transition counters.  The reachability-graph build and its incremental
//! extension ([`crate::graph`]) start, resume and take back that record.
//! The search itself carries no monitor state — every obligation is
//! answered afterwards by an analysis pass over the recorded graph.
//!
//! # Level loop and wave boundaries
//!
//! The explorer runs a plain FIFO breadth-first search, one level at a time:
//! the frontier of depth *d* is fully expanded before any node of depth
//! *d + 1*, each node's actions in rule order and each action's branches in
//! branch order.  A level is walked in **waves** of at most 8192 frontier
//! nodes, and the job signals are polled before every wave.  The wave
//! boundaries and the budget counters depend only on the explored graph, so
//! a budget trips at the same point of the search on every run.
//!
//! Verdicts, state counts, transition counts and counterexample schedules
//! are pinned against [`crate::reference`] by the `engine_equivalence` and
//! `random_differential` integration tests.

use crate::explicit::CheckerOptions;
use crate::game::CsrRecorder;
use crate::job::{InterruptKind, JobSignals};
use crate::store::StateStore;
use cccounter::{Action, Configuration, CounterSystem, RowEngine};
use std::ops::ControlFlow;

/// Frontier nodes per wave: the explorer polls the job signals before each
/// wave of a level.
const WAVE: usize = 8192;

/// What an exploration has recorded, in BFS order: [`Explorer::new`] starts
/// a record, [`Explorer::resume`] continues one, and
/// [`Explorer::into_explored`] hands it back.  The CSR graph is the only
/// record of how the stored states connect: a node's first-discovery arc
/// is the first arc into it met by walking `discovery` in order and each
/// node's arcs in CSR order (see [`crate::graph`]).
pub(crate) struct Explored {
    /// The deduplicated state rows.
    pub(crate) store: StateStore,
    /// Every explored transition as an arc, grouped by node and action.
    pub(crate) csr: CsrRecorder,
    /// The interned start nodes, each listed once.
    pub(crate) start_ids: Vec<u32>,
    /// Every fresh node in BFS discovery order.  Order-sensitive consumers
    /// iterate this instead of the store's ids: an extension appends to
    /// the store, so an extended graph's ids stop following its discovery
    /// order.
    pub(crate) discovery: Vec<u32>,
    /// Distinct states the search counted, including one that tripped the
    /// state bound.
    pub(crate) states: usize,
    /// Transitions the search counted, including one that tripped the
    /// transition bound.
    pub(crate) transitions: usize,
}

/// Why an exploration ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exploration {
    /// The full reachable space was explored.
    Complete,
    /// The transition budget was exhausted.
    TransitionBound,
    /// The state budget was exhausted.
    StateBound,
    /// A job signal (cancellation, deadline, or job budget) stopped the
    /// search at a wave boundary.  The record is incomplete, and its
    /// callers drop it: exploration is deterministic, so a resumed job
    /// rebuilds what it needs.
    Interrupted(InterruptKind),
}

/// The generic expand → intern → frontier driver (see the module docs).
pub(crate) struct Explorer<'a> {
    engine: RowEngine<'a>,
    rec: Explored,
    max_states: usize,
    max_transitions: usize,
    /// Job-level cancellation and budget signals, polled at wave
    /// boundaries.  `None` for plain checks — the hot path then pays a
    /// single branch per wave.
    signals: Option<&'a JobSignals>,
    /// Baselines added to this explorer's counters when evaluating the job
    /// budgets: `(states, transitions, resident bytes)` already accounted by
    /// *other* completed explorations of the same job.
    base: (usize, usize, usize),
}

impl<'a> Explorer<'a> {
    /// An explorer over a single-round counter system with the given
    /// resource limits, starting an empty record.
    pub(crate) fn new(sys: &'a CounterSystem, options: &CheckerOptions) -> Self {
        let rec = Explored {
            store: StateStore::new(sys),
            csr: CsrRecorder::default(),
            start_ids: Vec::new(),
            discovery: Vec::new(),
            states: 0,
            transitions: 0,
        };
        Self::resume(sys, options, rec)
    }

    /// An explorer *continuing* a record (the incremental sweep's append
    /// mode): the store keeps its contents, the CSR arenas and the
    /// discovery order are appended to, and the counters continue from the
    /// record's, so the resource budgets apply to the cumulative search
    /// exactly as a from-scratch build would have counted.
    pub(crate) fn resume(sys: &'a CounterSystem, options: &CheckerOptions, rec: Explored) -> Self {
        Explorer {
            engine: RowEngine::new(sys),
            rec,
            max_states: options.max_states,
            max_transitions: options.max_transitions,
            signals: None,
            base: (0, 0, 0),
        }
    }

    /// Attaches job-level signals: the explorer polls them at wave
    /// boundaries, stopping with [`Exploration::Interrupted`] and the
    /// signal that fired.  `base` holds the `(states, transitions, resident
    /// bytes)` the job already accounted outside this explorer.
    pub(crate) fn with_signals(
        mut self,
        signals: Option<&'a JobSignals>,
        base: (usize, usize, usize),
    ) -> Self {
        self.signals = signals;
        self.base = base;
        self
    }

    /// Consumes the explorer, handing back its record — this is how a
    /// cached reachability graph outlives the exploration that built it
    /// (see [`crate::graph`]).
    pub(crate) fn into_explored(self) -> Explored {
        self.rec
    }

    /// Runs the search from the given start configurations.  Duplicate
    /// start configurations intern to one node, recorded once.
    pub(crate) fn run(&mut self, starts: &[Configuration]) -> Exploration {
        let rec = &mut self.rec;
        let mut frontier: Vec<u32> = Vec::new();
        let mut row = Vec::with_capacity(rec.store.stride());
        for cfg in starts {
            self.engine.encode_into(cfg, &mut row);
            let (id, fresh) = rec.store.intern_row(&row, self.engine.hash(&row));
            if fresh {
                rec.states += 1;
                rec.start_ids.push(id);
                rec.discovery.push(id);
                frontier.push(id);
            }
        }
        self.run_from_nodes(frontier)
    }

    /// Polls the job signals at a wave boundary (cheap: one branch when no
    /// signals are attached).
    fn boundary_interrupt(&self) -> Option<InterruptKind> {
        let signals = self.signals?;
        signals.boundary_stop(
            self.base.0 + self.rec.states,
            self.base.1 + self.rec.transitions,
            || self.base.2 + self.rec.store.resident_bytes(),
        )
    }

    /// Runs the level-by-level search with the frontier seeded from
    /// *already-stored* nodes: each seed is (re-)expanded exactly like a
    /// freshly discovered node, and fresh successors continue the BFS.
    /// [`Explorer::run`] seeds it with the interned start configurations;
    /// the incremental sweep's extension seeds it with the stored rows on
    /// which a newly-enabled rule fires, in a caller-chosen deterministic
    /// order.  Each level is walked in waves of at most 8192 nodes, with a
    /// job-signal poll before every wave.
    pub(crate) fn run_from_nodes(&mut self, mut frontier: Vec<u32>) -> Exploration {
        let mut row = Vec::with_capacity(self.rec.store.stride());
        let mut actions: Vec<Action> = Vec::new();
        let mut next: Vec<u32> = Vec::new();
        while !frontier.is_empty() {
            for wave in frontier.chunks(WAVE) {
                if let Some(kind) = self.boundary_interrupt() {
                    return Exploration::Interrupted(kind);
                }
                crate::fault::maybe_fire(crate::fault::SITE_EXPAND);
                if let ControlFlow::Break(stop) =
                    self.expand(wave, &mut next, &mut row, &mut actions)
                {
                    return stop;
                }
            }
            frontier.clear();
            std::mem::swap(&mut frontier, &mut next);
        }
        Exploration::Complete
    }

    /// Expands one wave of frontier nodes, recording their arcs and
    /// pushing fresh successors onto `next`.  `row` and `actions` are
    /// caller-owned scratch buffers reused across waves.
    fn expand(
        &mut self,
        wave: &[u32],
        next: &mut Vec<u32>,
        row: &mut Vec<u8>,
        actions: &mut Vec<Action>,
    ) -> ControlFlow<Exploration> {
        let Explorer {
            engine,
            rec:
                Explored {
                    store,
                    csr,
                    discovery,
                    states,
                    transitions,
                    ..
                },
            max_states,
            max_transitions,
            ..
        } = self;
        for &node in wave {
            store.copy_row_into(node, row);
            engine.progress_actions_into(row, actions);
            if actions.is_empty() {
                continue;
            }
            csr.begin_node();
            let node_hash = store.hash64(node);
            for &action in actions.iter() {
                debug_assert_eq!(action.round, 0, "single-round graphs record round 0");
                // the one narrowing into a cached arc: `with_options` rejects
                // a system whose rule ids or branch indices do not fit
                csr.begin_action(u16::try_from(action.rule.0).expect("rule id fits an arc"));
                let flow = engine.for_each_successor(
                    row,
                    action,
                    node_hash,
                    |branch, _prob, succ, succ_hash| {
                        *transitions += 1;
                        if *transitions > *max_transitions {
                            return ControlFlow::Break(Exploration::TransitionBound);
                        }
                        let (id, fresh) = store.intern_row(succ, succ_hash);
                        if fresh {
                            *states += 1;
                            if *states > *max_states {
                                return ControlFlow::Break(Exploration::StateBound);
                            }
                            next.push(id);
                            discovery.push(id);
                        }
                        csr.edge(id, u8::try_from(branch).expect("branch fits an arc"));
                        ControlFlow::Continue(())
                    },
                );
                flow?;
            }
            csr.end_node(node);
        }
        ControlFlow::Continue(())
    }
}
