//! The generic exploration driver shared by every search of this crate.
//!
//! Every exploration of the engine is the same loop: pop a node, enumerate
//! its applicable progress actions, expand every probabilistic branch in
//! place on the row substrate, intern the successor into the
//! [`StateStore`], and enqueue fresh states.  [`Explorer`] owns that
//! expand → intern → frontier cycle once, and records what its replay sees
//! into one owned [`Explored`] record: the store, every replayed edge in CSR
//! form, the fresh start nodes, the discovery order and the replayed
//! counters.  The reachability-graph build and its incremental extension
//! ([`crate::graph`]) start, resume and take back that record.  The search
//! itself carries no monitor state — every obligation is answered
//! afterwards by an analysis pass over the recorded graph.
//!
//! # Deterministic in-check parallelism
//!
//! The explorer runs the search level-synchronously: the BFS frontier of
//! depth *d* is fully expanded before any node of depth *d + 1*.  For a
//! FIFO BFS this changes nothing — but it creates a natural unit of
//! parallelism with a *deterministic global candidate order*: frontier
//! position × action order × branch order.  A wide level is processed in
//! bounded **waves** of at most `wave_size` frontier nodes, and each wave
//! runs three phases on the persistent [`WorkerPool`] of the check:
//!
//! 1. **Expand** (parallel over wave chunks): workers generate all
//!    successor candidates of their chunk — row bytes and incremental
//!    Zobrist hash — without touching the shared index.  The wave is
//!    cut into more chunks than lanes and lanes claim chunks through an
//!    atomic cursor (work stealing), so one expensive chunk no longer
//!    stalls the wave behind a single lane.
//! 2. **Intern** (parallel over shards): each store shard interns *its*
//!    candidates (selected by hash prefix, see
//!    [`StateStore`](crate::store::StateStore)) in global candidate order,
//!    lock-free because the shards are disjoint.
//! 3. **Replay** (sequential, cheap): a scalar walk over the candidate
//!    metadata in global order re-applies the budget accounting
//!    (transition/state bounds), records the edges and the discovery order,
//!    and builds the next frontier — exactly as the sequential loop would
//!    have, at a few instructions per candidate.
//!
//! Because the wave boundaries, the candidate order, the shard partition,
//! and the replay are all independent of the worker count, a parallel run
//! produces *bit-identical* state counts, transition counts, discovery
//! order and CSR edges (and therefore verdicts and counterexample
//! schedules) to the sequential run — at any worker count, shard count and
//! wave size.  The `parallel_determinism` and `random_differential`
//! integration tests pin this, and `engine_equivalence` pins the results
//! against [`crate::reference`].
//!
//! Small frontiers skip the phase machinery entirely and run the plain
//! sequential loop (same results, no buffering or thread overhead), so a
//! deep-but-narrow exploration pays nothing for the parallel capability.
//!
//! # Wave-bounded memory
//!
//! A wave buffers its successor candidates (row bytes + ~24B metadata,
//! duplicates included) until its replay, so peak candidate memory is
//! O(`wave_size` × branching) — *not* O(transitions of the widest level) as
//! in the unchunked design this replaces — and all wave buffers (chunk
//! arenas, per-shard id lists) are recycled across waves and levels.  A
//! budget bound that trips mid-replay over-expands at most the remainder of
//! the current wave.  The wave size comes from
//! [`CheckerOptions::wave_size`], then the `CC_WAVE_SIZE` environment
//! variable, then [`DEFAULT_WAVE_SIZE`].

use crate::explicit::CheckerOptions;
use crate::game::CsrRecorder;
use crate::job::{InterruptKind, JobSignals};
use crate::pool::WorkerPool;
use crate::store::{Shard, StateStore, MAX_SHARDS};
use cccounter::{Action, Configuration, CounterSystem, RowEngine, ScheduledStep};
use std::ops::ControlFlow;

/// Don't enter the parallel wave machinery for levels narrower than this;
/// the sequential loop is faster and produces identical results.  An
/// explicitly *smaller* [`CheckerOptions::wave_size`] lowers the threshold
/// to the wave size: a caller bounding waves that tightly wants the wave
/// path exercised (and the results are identical either way).
const MIN_PARALLEL_FRONTIER: usize = 64;

/// Default number of frontier nodes per parallel wave when neither
/// [`CheckerOptions::wave_size`] nor `CC_WAVE_SIZE` is set.  At typical row
/// strides and branching factors a wave buffers a few megabytes of
/// candidates — small enough to recycle hot in cache, large enough that the
/// per-wave pool synchronisation is noise.
pub const DEFAULT_WAVE_SIZE: usize = 8192;

/// What an exploration has recorded, in the order its deterministic replay
/// saw it: [`Explorer::new`] starts a record, [`Explorer::resume`] continues
/// one, and [`Explorer::into_explored`] hands it back.  The CSR graph is the
/// only record of how the stored states connect: a node's first-discovery
/// edge is the first edge into it met by walking `discovery` in order and
/// each node's edges in CSR order (see [`crate::graph`]).
pub(crate) struct Explored {
    /// The deduplicated state rows.
    pub(crate) store: StateStore,
    /// Every replayed edge, grouped by node and action.
    pub(crate) csr: CsrRecorder,
    /// The interned start nodes, each listed once.
    pub(crate) start_ids: Vec<u32>,
    /// Every fresh node in BFS discovery order.  Node ids interleave the
    /// shard tag, so order-sensitive consumers iterate this instead of the
    /// store's id space; the replay makes it identical at every worker,
    /// shard and wave count.
    pub(crate) discovery: Vec<u32>,
    /// Distinct states the sequential search would have counted.  Like
    /// `transitions`, a replayed counter: it mirrors the sequential loop
    /// even when a parallel wave over-expands past a budget bound before
    /// the replay detects it.
    pub(crate) states: usize,
    /// Transitions the sequential search would have counted.
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
    /// search at a wave boundary; the unprocessed frontier was captured in
    /// [`Explorer::take_suspended`] so the search can resume bit-identically.
    Interrupted,
}

/// The frontier state of an exploration stopped by a job signal: the
/// unprocessed remainder of the current level plus the successors already
/// accumulated for the next one.  Feeding both back through
/// [`Explorer::run_suspended`] (resuming the same record) continues the
/// search exactly where it stopped.
pub(crate) struct SuspendedFrontier {
    /// Frontier nodes of the current level not yet expanded.
    pub(crate) pending: Vec<u32>,
    /// Fresh successors already accumulated for the next level.
    pub(crate) next: Vec<u32>,
    /// Which signal stopped the search.
    pub(crate) kind: InterruptKind,
}

/// Parses the value of an auto knob's environment variable: a positive
/// integer, or `None` for anything else (zero included), so the caller
/// falls back to its default.
fn parse_positive(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// Resolves one auto knob: the environment variable if set to a positive
/// integer, the fallback otherwise — memoised in the caller's `OnceLock`
/// because the resolution sits on per-check paths (`available_parallelism`
/// reads cgroup files on Linux, which would tax every sub-millisecond
/// check).  Shared by the worker, sweep-budget and wave-size knobs.
pub(crate) fn cached_env_usize(
    cell: &'static std::sync::OnceLock<usize>,
    var: &str,
    fallback: impl FnOnce() -> usize,
) -> usize {
    *cell.get_or_init(|| {
        std::env::var(var)
            .ok()
            .and_then(|v| parse_positive(&v))
            .unwrap_or_else(fallback)
    })
}

/// The number of in-check worker threads for the given options: an explicit
/// `workers` setting wins; `0` defers to the `CC_CHECK_THREADS` environment
/// variable and then to the available parallelism.
pub(crate) fn resolved_workers(options: &CheckerOptions) -> usize {
    if options.workers > 0 {
        return options.workers;
    }
    static AUTO: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    cached_env_usize(&AUTO, "CC_CHECK_THREADS", || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The wave size for the given options: an explicit `wave_size` setting
/// wins; `0` defers to the `CC_WAVE_SIZE` environment variable and then to
/// [`DEFAULT_WAVE_SIZE`].
pub(crate) fn resolved_wave_size(options: &CheckerOptions) -> usize {
    if options.wave_size > 0 {
        return options.wave_size;
    }
    static AUTO: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    cached_env_usize(&AUTO, "CC_WAVE_SIZE", || DEFAULT_WAVE_SIZE)
}

/// The shard count for the given options and resolved worker count: an
/// explicit `shards` setting wins (rounded to a power of two); `0` derives
/// one shard per worker.  Sequential runs use a single shard.
fn resolved_shards(options: &CheckerOptions, workers: usize) -> usize {
    let requested = if options.shards > 0 {
        options.shards
    } else if workers == 1 {
        1
    } else {
        workers
    };
    requested.clamp(1, MAX_SHARDS).next_power_of_two()
}

/// One successor candidate produced by the expand phase, in deterministic
/// global order.  The row bytes live in the owning chunk's `rows` arena.
struct CandMeta {
    /// Zobrist hash of the successor row.
    hash: u64,
    /// The scheduled step that produced it.
    step: ScheduledStep,
}

/// Per-node action grouping of the expand phase (terminal nodes, having
/// no actions, are not recorded).
struct NodeRec {
    node: u32,
    actions: u32,
}

/// Everything one worker produced for its contiguous wave chunk.  Recycled
/// across waves: `reset` clears the arenas but keeps their capacity.
#[derive(Default)]
struct ChunkOut {
    rows: Vec<u8>,
    cands: Vec<CandMeta>,
    /// Candidate count per expanded action.
    acts: Vec<u32>,
    nodes: Vec<NodeRec>,
    /// Candidate indices per store shard, in candidate order.
    per_shard: Vec<Vec<u32>>,
}

impl ChunkOut {
    fn reset(&mut self, num_shards: usize) {
        self.rows.clear();
        self.cands.clear();
        self.acts.clear();
        self.nodes.clear();
        self.per_shard.resize_with(num_shards, Vec::new);
        for list in &mut self.per_shard {
            list.clear();
        }
    }
}

/// The recycled buffers of the parallel wave pipeline.  One instance lives
/// for the whole `run` (allocated lazily on the first parallel level) so
/// deep searches reuse the same arenas across every wave of every level.
#[derive(Default)]
struct WaveScratch {
    /// One expand output per pool lane.
    chunks: Vec<ChunkOut>,
    /// Interned `(id, fresh)` per shard, in that shard's candidate order.
    interned: Vec<Vec<(u32, bool)>>,
    /// Replay cursors, one per shard.
    cursors: Vec<usize>,
}

/// The generic expand → intern → frontier driver (see the module docs).
pub(crate) struct Explorer<'a> {
    engine: RowEngine<'a>,
    rec: Explored,
    pool: &'a WorkerPool,
    workers: usize,
    wave_size: usize,
    max_states: usize,
    max_transitions: usize,
    /// Job-level cancellation and budget signals, polled at wave boundaries
    /// (and, for the fast cancel/deadline signals, at expand-phase chunk
    /// handouts).  `None` for plain checks — the hot path then pays a single
    /// branch per wave.
    signals: Option<&'a JobSignals>,
    /// Baselines added to this explorer's counters when evaluating the job
    /// budgets: `(states, transitions, resident bytes)` already accounted by
    /// *other* completed explorations of the same job.
    base: (usize, usize, usize),
    /// The frontier captured when a job signal stopped the search.
    suspended: Option<SuspendedFrontier>,
}

impl<'a> Explorer<'a> {
    /// An explorer over a single-round counter system with the given
    /// resource limits, running its parallel phases on `pool` (whose lane
    /// count is the worker count; a 1-lane pool forces the sequential
    /// loop).  It starts an empty record.
    pub(crate) fn new(
        sys: &'a CounterSystem,
        options: &CheckerOptions,
        pool: &'a WorkerPool,
    ) -> Self {
        let shards = resolved_shards(options, pool.threads());
        let rec = Explored {
            store: StateStore::with_shards(sys, shards),
            csr: CsrRecorder::default(),
            start_ids: Vec::new(),
            discovery: Vec::new(),
            states: 0,
            transitions: 0,
        };
        Self::resume(sys, options, pool, rec)
    }

    /// An explorer *continuing* a record (a suspended build, or the
    /// incremental sweep's append mode): the store keeps its shard layout
    /// and contents, the CSR arenas and the discovery order are appended
    /// to, and the counters continue from the record's, so the resource
    /// budgets apply to the cumulative search exactly as a from-scratch
    /// build would have counted.
    pub(crate) fn resume(
        sys: &'a CounterSystem,
        options: &CheckerOptions,
        pool: &'a WorkerPool,
        rec: Explored,
    ) -> Self {
        Explorer {
            engine: RowEngine::new(sys),
            rec,
            pool,
            workers: pool.threads(),
            wave_size: resolved_wave_size(options),
            max_states: options.max_states,
            max_transitions: options.max_transitions,
            signals: None,
            base: (0, 0, 0),
            suspended: None,
        }
    }

    /// Attaches job-level signals: the explorer polls them at wave
    /// boundaries (budgets and cancellation) and at expand-phase chunk
    /// handouts (cancellation/deadline only), stopping with
    /// [`Exploration::Interrupted`] and a captured [`SuspendedFrontier`].
    /// `base` holds the `(states, transitions, resident bytes)` the job
    /// already accounted outside this explorer.
    pub(crate) fn with_signals(
        mut self,
        signals: Option<&'a JobSignals>,
        base: (usize, usize, usize),
    ) -> Self {
        self.signals = signals;
        self.base = base;
        self
    }

    /// Takes the frontier captured by the last [`Exploration::Interrupted`]
    /// stop.
    pub(crate) fn take_suspended(&mut self) -> Option<SuspendedFrontier> {
        self.suspended.take()
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
        self.drive_from(frontier, Vec::new())
    }

    /// Runs the search with the frontier seeded from *already-stored* nodes
    /// instead of start configurations: each seed is (re-)expanded exactly
    /// like a freshly discovered node, and fresh successors continue the
    /// level-synchronous BFS.  This is the incremental sweep's extension
    /// entry point — the seeds are the stored rows on which a newly-enabled
    /// rule fires, in a caller-chosen deterministic order.
    pub(crate) fn run_from_nodes(&mut self, seeds: Vec<u32>) -> Exploration {
        self.drive_from(seeds, Vec::new())
    }

    /// Continues a search stopped by a job signal: `pending` and `next` come
    /// from the [`SuspendedFrontier`] of the interrupted run (whose record
    /// this explorer resumed).  Bit-identical to never having stopped.
    pub(crate) fn run_suspended(&mut self, pending: Vec<u32>, next: Vec<u32>) -> Exploration {
        self.drive_from(pending, next)
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

    /// The level-synchronous frontier loop shared by [`Explorer::run`],
    /// [`Explorer::run_from_nodes`] and [`Explorer::run_suspended`].
    ///
    /// Both the sequential and the parallel path process each level in
    /// waves of at most `wave_size` nodes with a job-signal poll before
    /// every wave — the wave boundaries (and therefore the budget trip
    /// points, which only consider the deterministic replayed counters) are
    /// identical at every worker count.
    fn drive_from(&mut self, mut frontier: Vec<u32>, mut next: Vec<u32>) -> Exploration {
        // an explicitly tiny wave size lowers the parallel threshold: the
        // caller asked for bounded waves, so even small frontiers take the
        // wave path (results are identical either way)
        let min_parallel = MIN_PARALLEL_FRONTIER.min(self.wave_size.max(1));
        let mut scratch = WaveScratch::default();
        let mut row = Vec::with_capacity(self.rec.store.stride());
        let mut actions: Vec<Action> = Vec::new();
        if frontier.is_empty() {
            // a resumed search may have been stopped exactly at a level end
            std::mem::swap(&mut frontier, &mut next);
        }
        while !frontier.is_empty() {
            let parallel = self.workers > 1 && frontier.len() >= min_parallel;
            let wave = self.wave_size.max(1);
            let mut offset = 0;
            while offset < frontier.len() {
                if let Some(kind) = self.boundary_interrupt() {
                    self.suspended = Some(SuspendedFrontier {
                        pending: frontier[offset..].to_vec(),
                        next: std::mem::take(&mut next),
                        kind,
                    });
                    return Exploration::Interrupted;
                }
                let end = (offset + wave).min(frontier.len());
                let flow = if parallel {
                    self.wave_parallel(&frontier[offset..end], &mut next, &mut scratch)
                } else {
                    self.level_sequential(&frontier[offset..end], &mut next, &mut row, &mut actions)
                };
                if let ControlFlow::Break(stop) = flow {
                    if stop == Exploration::Interrupted {
                        // a mid-wave cancel/deadline stop abandons the whole
                        // wave before it touched the store, so the wave stays
                        // in `pending` and the resume re-expands it
                        let kind = self
                            .signals
                            .and_then(|s| s.fast_stop())
                            .unwrap_or(InterruptKind::Cancelled);
                        self.suspended = Some(SuspendedFrontier {
                            pending: frontier[offset..].to_vec(),
                            next: std::mem::take(&mut next),
                            kind,
                        });
                    }
                    return stop;
                }
                offset = end;
            }
            frontier.clear();
            std::mem::swap(&mut frontier, &mut next);
        }
        Exploration::Complete
    }

    /// Expands one BFS level in the plain sequential loop.  `row` and
    /// `actions` are caller-owned scratch buffers reused across levels.
    fn level_sequential(
        &mut self,
        frontier: &[u32],
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
        for &node in frontier {
            store.copy_row_into(node, row);
            engine.progress_actions_into(row, actions);
            if actions.is_empty() {
                continue;
            }
            csr.begin_node();
            let node_hash = store.hash64(node);
            for &action in actions.iter() {
                csr.begin_action();
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
                        csr.edge(ScheduledStep::with_branch(action, branch), id);
                        ControlFlow::Continue(())
                    },
                );
                flow?;
                csr.end_action(node);
            }
            csr.end_node(node);
        }
        ControlFlow::Continue(())
    }

    /// Runs the expand → intern → replay phases for one wave of frontier
    /// nodes, recycling the scratch buffers.  Produces exactly the same
    /// record and next frontier as [`Explorer::level_sequential`] over the
    /// same wave slice.
    fn wave_parallel(
        &mut self,
        wave: &[u32],
        next: &mut Vec<u32>,
        scratch: &mut WaveScratch,
    ) -> ControlFlow<Exploration> {
        let num_shards = self.rec.store.num_shards();
        let chunk_size = steal_chunk_size(wave.len(), self.workers);
        let num_chunks = wave.len().div_ceil(chunk_size);
        scratch
            .chunks
            .resize_with(num_chunks.max(scratch.chunks.len()), ChunkOut::default);
        scratch
            .interned
            .resize_with(num_shards.max(scratch.interned.len()), Vec::new);

        // Phase 1: expand wave chunks in parallel.  The wave is cut into
        // more chunks than lanes and lanes claim chunks through an atomic
        // cursor, so a lane whose chunks happen to be cheap steals the next
        // chunk instead of idling behind a skewed one.  Which lane expands
        // which chunk never matters for results: the chunk boundaries are
        // fixed before the handout and the replay walks chunks in index
        // order.
        {
            let (engine, store) = (&self.engine, &self.rec.store);
            let signals = self.signals;
            let cursor = std::sync::atomic::AtomicUsize::new(0);
            let work: Vec<std::sync::Mutex<(&[u32], &mut ChunkOut)>> = wave
                .chunks(chunk_size)
                .zip(scratch.chunks.iter_mut())
                .map(|(chunk, out)| std::sync::Mutex::new((chunk, out)))
                .collect();
            let lanes = self.workers.min(num_chunks);
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..lanes)
                .map(|_| {
                    let (cursor, work) = (&cursor, &work);
                    let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || loop {
                        // cancellation/deadline latency is O(chunk): a lane
                        // stops claiming work once the fast signals fire
                        if signals.is_some_and(|s| s.fast_stop().is_some()) {
                            break;
                        }
                        let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(cell) = work.get(i) else { break };
                        // uncontended: the cursor hands each chunk to
                        // exactly one lane; the mutex only carries the
                        // &mut across the closure boundary
                        let mut slot = cell.lock().unwrap();
                        let (chunk, out) = &mut *slot;
                        expand_chunk(engine, store, chunk, num_shards, out);
                    });
                    task
                })
                .collect();
            self.pool.run(tasks);
        }
        // A mid-wave stop must be honoured *before* the intern phase: the
        // expand phase touched no shared state, so abandoning the wave here
        // leaves the record exactly as it was at the wave boundary — the
        // whole wave stays pending.
        if self.signals.is_some_and(|s| s.fast_stop().is_some()) {
            return ControlFlow::Break(Exploration::Interrupted);
        }
        let chunks = &scratch.chunks[..num_chunks];

        // Phase 2: intern this wave's candidates, one task per shard, each
        // consuming its candidates in global order.
        {
            let stride = self.rec.store.stride();
            let shards = self.rec.store.shards_mut();
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = shards
                .iter_mut()
                .zip(scratch.interned.iter_mut())
                .enumerate()
                .map(|(tag, (shard, out))| {
                    let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                        out.clear();
                        intern_shard(shard, out, chunks, tag, stride)
                    });
                    task
                })
                .collect();
            self.pool.run(tasks);
        }

        // Phase 3: sequential replay of the budget accounting and the record
        // in global candidate order.
        scratch.cursors.clear();
        scratch.cursors.resize(num_shards, 0);
        let rec = &mut self.rec;
        for chunk in chunks {
            let (mut act_i, mut cand_i) = (0usize, 0usize);
            for nrec in &chunk.nodes {
                rec.csr.begin_node();
                for &cands in &chunk.acts[act_i..act_i + nrec.actions as usize] {
                    rec.csr.begin_action();
                    for m in &chunk.cands[cand_i..cand_i + cands as usize] {
                        let shard = rec.store.shard_of(m.hash);
                        let (id, fresh) = scratch.interned[shard][scratch.cursors[shard]];
                        scratch.cursors[shard] += 1;
                        rec.transitions += 1;
                        if rec.transitions > self.max_transitions {
                            return ControlFlow::Break(Exploration::TransitionBound);
                        }
                        if fresh {
                            rec.states += 1;
                            if rec.states > self.max_states {
                                return ControlFlow::Break(Exploration::StateBound);
                            }
                            next.push(id);
                            rec.discovery.push(id);
                        }
                        rec.csr.edge(m.step, id);
                    }
                    cand_i += cands as usize;
                    rec.csr.end_action(nrec.node);
                }
                act_i += nrec.actions as usize;
                rec.csr.end_node(nrec.node);
            }
        }
        ControlFlow::Continue(())
    }
}

/// How many chunks each lane should see on average in a wave's expand
/// phase: more chunks than lanes is what lets the atomic-cursor handout
/// steal work from a skewed chunk.
const STEAL_CHUNKS_PER_LANE: usize = 4;

/// Floor on the work-stealing chunk size: below this the per-chunk arena
/// bookkeeping outweighs the balancing win.
const MIN_STEAL_CHUNK: usize = 32;

/// The expand-phase chunk size for a wave of `wave` frontier nodes on
/// `workers` lanes: aim for [`STEAL_CHUNKS_PER_LANE`] chunks per lane,
/// floored at [`MIN_STEAL_CHUNK`] — but never coarser than the even
/// one-chunk-per-lane split, so small waves still occupy every lane.
fn steal_chunk_size(wave: usize, workers: usize) -> usize {
    let even_split = wave.div_ceil(workers).max(1);
    wave.div_ceil(workers * STEAL_CHUNKS_PER_LANE)
        .max(MIN_STEAL_CHUNK)
        .min(even_split)
}

/// Phase-1 worker: expands a contiguous wave chunk into candidate records
/// (recycling `out`'s arenas) without touching the shared index.
fn expand_chunk(
    engine: &RowEngine<'_>,
    store: &StateStore,
    chunk: &[u32],
    num_shards: usize,
    out: &mut ChunkOut,
) {
    crate::fault::maybe_fire(crate::fault::SITE_EXPAND);
    out.reset(num_shards);
    let stride = store.stride();
    let mut row: Vec<u8> = Vec::with_capacity(stride);
    let mut actions: Vec<Action> = Vec::new();
    for &node in chunk {
        store.copy_row_into(node, &mut row);
        engine.progress_actions_into(&row, &mut actions);
        if actions.is_empty() {
            continue;
        }
        let node_hash = store.hash64(node);
        for &action in &actions {
            let cands_before = out.cands.len();
            let _: ControlFlow<()> = engine.for_each_successor(
                &mut row,
                action,
                node_hash,
                |branch, _prob, succ, succ_hash| {
                    let idx = out.cands.len() as u32;
                    out.per_shard[store.shard_of(succ_hash)].push(idx);
                    out.rows.extend_from_slice(succ);
                    out.cands.push(CandMeta {
                        hash: succ_hash,
                        step: ScheduledStep::with_branch(action, branch),
                    });
                    ControlFlow::Continue(())
                },
            );
            out.acts.push((out.cands.len() - cands_before) as u32);
        }
        out.nodes.push(NodeRec {
            node,
            actions: actions.len() as u32,
        });
    }
}

/// Phase-2 worker: interns shard `tag`'s candidates of the current wave in
/// global candidate order (chunks in order, per-chunk shard lists in
/// order).
fn intern_shard(
    shard: &mut Shard,
    out: &mut Vec<(u32, bool)>,
    chunks: &[ChunkOut],
    tag: usize,
    stride: usize,
) {
    for chunk in chunks {
        for &ci in &chunk.per_shard[tag] {
            let m = &chunk.cands[ci as usize];
            let row = &chunk.rows[ci as usize * stride..(ci as usize + 1) * stride];
            out.push(shard.intern(row, m.hash));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knobs_take_only_positive_integers() {
        assert_eq!(parse_positive("4"), Some(4));
        assert_eq!(parse_positive(" 2\n"), Some(2));
        // zero and garbage fall back to the default, like an unset variable
        for value in ["0", "", "-1", "two", "1.5"] {
            assert_eq!(parse_positive(value), None, "{value:?}");
        }
    }
}
