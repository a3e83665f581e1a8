//! Checking the single-round queries of the verification approach.
//!
//! The paper reduces Agreement, Validity and Almost-sure Termination of a
//! randomized consensus protocol with a common coin to a catalogue of
//! single-round queries on the non-probabilistic threshold automaton
//! (`Inv1`, `Inv2`, `C1`, `C2`, `C2'`, `CB0`–`CB4`) and discharges them with
//! ByMC.  This crate is the ByMC substitute of the reproduction:
//!
//! * [`spec`] — the query catalogue (Table III of the paper) expressed over
//!   location sets.
//! * [`explicit`] — an explicit-state checker that verifies the queries on
//!   the single-round counter system for a concrete admissible parameter
//!   valuation, with counterexample extraction.
//! * [`graph`] — the cached reachability graph every check is answered
//!   from, and its analysis passes.
//! * [`game`] — the qualitative game machinery for the probabilistic
//!   conditions `C1` and `C2'`, which by Lemma 2 reduce to
//!   `∀ adversary ∃ path` queries; the adversary controls scheduling, the
//!   coin controls probabilistic branching.
//! * [`schema`] — milestone extraction and the schema-count cost metric
//!   (the `nschemas` columns of Tables II and IV).
//! * [`sweep`] — checking a query across a sweep of admissible parameter
//!   valuations, which is the bounded-parameter substitute for ByMC's fully
//!   parameterized reasoning.
//!
//! # Engine architecture: one driver, one graph, one pass per query shape
//!
//! The paper's headline results are wall-clock checking times, so this crate
//! treats exploration throughput as part of the reproduced artifact.  Every
//! check runs one engine path: a single generic driver,
//! `explorer::Explorer`, explores the reachable configurations of a
//! `(start restriction, valuation)` group once into a cached graph
//! ([`graph`]), and each query is then an analysis pass over that graph
//! (see "Graph cache" below).  The driver owns the expand → intern →
//! frontier cycle:
//!
//! * **Packed state rows** (`store::StateStore`) — a single-round state
//!   is one fixed-stride byte row (`locations ++ variables`,
//!   [`cccounter::RowEngine`]); visited rows live back to back in
//!   contiguous arenas, deduplicated through flat open-addressing indexes
//!   keyed by an incrementally-maintained Zobrist hash.  A duplicate
//!   lookup is one probe plus a `memcmp` — no allocation, no re-hashing;
//!   full configurations are decoded back only for counterexample
//!   reconstruction.
//! * **Delta expansion** ([`cccounter::RowEngine::for_each_successor`]) —
//!   successors are produced by applying and undoing per-rule byte deltas
//!   in place on a scratch row, updating the state hash in O(1) per delta;
//!   guards evaluate straight off the row with their parameter bounds
//!   pre-evaluated at system construction.
//! * **One level of parallelism** ([`sweep::check_over_sweep_with_stats`])
//!   — every check runs on the thread that calls it, in one sequential
//!   breadth-first loop ([`explorer`]).  A sweep cuts the valuations of its
//!   `query × valuation` grid into runs at lineage breaks (a change of
//!   system size, or a guard step the lineage cannot carry a graph across),
//!   and its thread budget starts at most one sweep worker per run; the
//!   workers claim whole runs in grid order.  Reports are deterministic;
//!   cells cancelled after an earlier violation appear as explicit skipped
//!   outcomes.
//!
//! # Graph cache: explore once, evaluate many
//!
//! The Table II catalogue runs ~10 obligations per valuation, and each
//! obligation observes the same reachable configuration graph — only the
//! observation differs.  Every entry point ([`ExplicitChecker::check`] and
//! [`ExplicitChecker::check_all`], [`CheckJob`], the sweep, and `cccore`'s
//! `verify_protocol`) therefore answers from a **reachability-graph cache**
//! ([`graph`]):
//!
//! * **Grouping key.**  One cached graph per
//!   `(start restriction, valuation)` group.  A checker is bound to one
//!   counter system (one valuation), so its per-checker memo is keyed by
//!   the [`StartRestriction`] alone; the sweep builds one checker per
//!   valuation and runs its whole spec slice through it.  The enumerated
//!   start configurations are memoised the same way.
//! * **Build.**  The first obligation of a group pays one exploration: the
//!   generic `explorer::Explorer` run interns every reachable
//!   configuration and records the
//!   full transition relation in flat CSR arenas ([`game`]'s
//!   `GameGraph`).  Every obligation of the group is then an
//!   `O(states + transitions)` analysis pass:
//!   a sticky monitor-bit product BFS for `CoverNever`/`NeverFrom` (one
//!   byte per node, a bit per product state found), the product game
//!   plus the worklist attractor for `ExistsAvoidOneOf`, and a
//!   terminal/blocking scan for `NonBlocking`.  Counterexamples are
//!   reconstructed from cached arcs and remain genuinely replayable.
//! * **One pass per group for its monitored obligations.**  A checker
//!   learns which obligations its caller will ask: `check_all` its slice,
//!   a [`CheckJob`] its owed obligations, a sweep cell the obligations no
//!   earlier valuation violated.  A group that expects two or more
//!   `CoverNever`/`NeverFrom` obligations answers them with one batched
//!   pass, run at the first memo miss among them: a bit-parallel fixpoint
//!   of 4-bit lanes, one lane per obligation and 16 to a `u64` word, over
//!   the cached arcs (see [`graph`]).  Table II's `RoundStart` groups
//!   carry 2 to 7 such obligations; a group with one keeps the lone
//!   search.
//! * **Memory model.**  A cached graph holds the deduplicated
//!   `store::StateStore` rows plus the CSR arenas of the group's full
//!   transition relation: 8 bytes per node span and one 8-byte arc per
//!   transition (successor, rule, branch index, and whether the arc opens
//!   its action).  A schedule step is rebuilt from an arc only where a
//!   counterexample is built.  Graphs live as long as their checker (one
//!   `check_all` call, or one valuation batch of a sweep).  A monitored
//!   pass allocates one byte per node (plus its queue) transiently; only
//!   a violation reruns it recording parents, 12 bytes per product state
//!   it finds.  A batched monitored pass allocates 11 bytes per node per
//!   word (its lanes, a pattern index and a queued flag) plus its queue.
//!   A game pass allocates O(states × 2^sets) product bookkeeping.
//! * **Reported counts.**  Each pass reports the state and transition
//!   counts of [`mod@reference`]'s search for the same spec: the monitored
//!   and game passes count the `(node, bits)` product states and arcs
//!   they visit, a holding `NonBlocking` reports the whole graph, and a
//!   violated one reports the exploration done before its violating
//!   terminal.
//!   `engine_equivalence`, `random_differential` and `family_differential`
//!   pin verdicts, counts and counterexample schedules against
//!   [`mod@reference`] exactly, the first two also through `check_all`'s
//!   batched passes.  A holding lane of a batched pass reports its lone
//!   search's counts, and a violated one is resolved by that search.
//! * **Budgets.**  The per-check state/transition caps of
//!   [`CheckerOptions`] bound the group build and every pass.  A build that
//!   trips one leaves the graph incomplete, and every obligation of that
//!   group is then `Unknown` with the bound in its detail: a budget can
//!   cost a verdict, never fabricate one.
//!
//! # Incremental sweeps: one sweep, one graph lineage
//!
//! A parameter sweep multiplies the catalogue by a grid of valuations, and
//! adjacent valuations of one model differ *only in compiled guard bounds*
//! — the rules, locations and row layout are fixed by the model, and
//! [`cccounter::CounterSystem`] pre-evaluates each guard's threshold at
//! construction.  Sweeps therefore carry each
//! `(start restriction, valuation)` group's reachability graph **across**
//! valuations as a [`GraphLineage`]:
//!
//! * **Classification.**  Advancing a group from valuation `v` to `v'`
//!   diffs the per-rule guard bounds ([`cccounter::CounterSystem::guard_bounds`]).
//!   If the system size changed, the start set changed and nothing
//!   carries over (a lineage break).  Otherwise the step is **identical**
//!   (every bound equal — the cached graph serves as-is, zero exploration),
//!   **relax-only** (every changed atom weakens: `>=` bounds only fell,
//!   `<` bounds only rose — the reachable set can only grow),
//!   **tighten-only** (every changed atom strengthens — the reachable set
//!   can only shrink, so the graph is *pruned* in place, see below), or
//!   **mixed** (re-explore from scratch; a lineage break).  The sweep cuts
//!   its grid into runs at the breaks, so inside a sweep a graph is
//!   *rebuilt* only when an extension trips a budget.
//! * **Extension.**  A relax-only step seeds the explorer's frontier with
//!   exactly the stored rows on which a newly-enabled rule fires (old
//!   bounds re-evaluated on the row, new bounds from the new system); the
//!   seeds are re-expanded — their CSR spans are *replaced* with the full
//!   new action list — and fresh successors continue the ordinary
//!   level-synchronous BFS, appending to the `store::StateStore` and the
//!   CSR arenas in place.  A final *relink* pass replays a BFS over the
//!   final cached arcs, re-deriving the discovery order and the
//!   state/transition counts exactly as a from-scratch build at `v'` would
//!   have produced them.  The CSR graph is the only record of how states
//!   connect: a blocked terminal's path follows the first arc into each
//!   node in that discovery order, which is the arc a fresh build first
//!   found it by.  So verdicts, counts and counterexample schedules are
//!   **bit-identical** to a fresh sweep (pinned by `random_differential`'s
//!   incremental axis, the extended-graph half of `counterexample_replay`
//!   and the carried-graph cases of `graph`'s tests).
//! * **Lineage lifetime & memory.**  The scheduler cuts the grid into
//!   runs only where this classification would rebuild anyway (one shared
//!   policy decides both), so a run's later valuations are guard-adjacent
//!   and no run is split between workers.  Each run is walked on one
//!   lineage of its own, started empty, so a run break is a first build
//!   and the accounting does not depend on which worker claimed the run.
//!   At most one graph per start-restriction group survives at a time,
//!   dropped when classification discards it or the run ends.
//!   Resident bytes per cached graph (rows + side arrays + index + CSR)
//!   are reported in [`GroupCacheRecord::resident_bytes`] and printed by
//!   `profile_engine`.  Budget-tripped builds never enter the lineage, and
//!   a budget-tripped extension falls back to a from-scratch rebuild, so
//!   bounded-build semantics match the fresh path exactly.
//! * **Lever.**  [`CheckerOptions::incremental_sweep`] (on by default)
//!   turns the lineage off, giving the fresh side that the differential
//!   tests compare against.  The `sweep_amortization` axis of the
//!   `table2_checking` bench measures the whole-sweep speedup (incremental
//!   vs fresh over each protocol's full 8-valuation grid).
//!
//! # Verdict memoization & lineage compaction
//!
//! The lineage above makes a sweep's steady state — long runs of identical
//! or guard-adjacent valuations — cheap; two always-on mechanisms make it
//! nearly free:
//!
//! * **Verdict memoization.**  Each cached reachability graph carries a
//!   small memo of `(Spec, CheckOutcome)` pairs keyed by full [`Spec`]
//!   equality.  When an identical-classified lineage step re-serves a graph
//!   to the same catalogue, every obligation is answered from the memo with
//!   **zero analysis passes** — only the counterexample's parameter
//!   valuation is rewritten to the current cell's.  Only definite verdicts
//!   (`Holds` / `Violated`) are memoised; `Unknown` outcomes always
//!   re-evaluate.  The memo is cleared by every extension or prune and
//!   survives pure reuse, so a hit can never serve a stale verdict.  Hits
//!   and misses are counted per group in [`GroupCacheRecord::memo_hits`] /
//!   `memo_misses`.  A batched monitored pass is one miss, counted on the
//!   obligation that ran it; each other obligation it answered is a hit
//!   when asked.
//! * **Tighten-only prune.**  A tighten-only step's reachable set is a
//!   subset of the stored one (every changed bound strengthens, and counter
//!   systems are monotone in their guard bounds: a row's guard valuation
//!   depends only on the row).  Instead of a full rebuild, the stored graph
//!   is pruned *in place*: every stored action whose rule had a bound
//!   change is re-validated against the tightened bounds on its source
//!   row, dead actions are compacted out of the CSR arenas, and the same *relink*
//!   BFS as the extension path re-derives discovery order and counts — so
//!   a pruned graph is **bit-identical** to a fresh build at the tightened
//!   valuation (pinned by `random_differential`'s incremental-vs-fresh
//!   sweeps and the carried-graph cases of `graph`'s tests).  The prune is
//!   infallible: no budget that admitted the old graph can trip on its
//!   subset.  Note what is *not* attempted: seeding future analysis passes
//!   from prior violation bitsets would change the reported product
//!   counts, breaking the incremental-vs-fresh differential contract, so
//!   passes always re-walk the pruned graph.
//!   Rows the tightened bounds no longer reach stay stored, and are pruned
//!   along with the reachable ones, so a later extension that reaches them
//!   again finds their arcs exact.
//!
//! Neither mechanism ever changes a verdict, a count or a counterexample:
//! `random_differential` pins incremental sweeps (which prune and hit the
//! memo) against fresh ones across the random corpus, and
//! `family_differential` does the same across the generated families.
//!
//! Lineage survivors stay resident between valuations, because
//! delta-encoding their rows after each valuation and decoding them at the
//! next step cost about 40% of a scaled Table II sweep pass on a 2-vCPU
//! host and lowered no measured memory peak.
//!
//! # Memory model
//!
//! The persistent memory of a check is its cached graphs: the deduplicated
//! `store::StateStore` (one contiguous row arena, one hash per node and
//! one open-addressing index) and the CSR arenas (8 bytes per node span and
//! 8 per arc, one arc per transition).  The explorer interns each successor
//! as it is generated, so an exploration buffers nothing beyond its
//! frontier, and a budget bound stops it at the exact transition or state
//! that tripped it.
//!
//! # Thread knob precedence
//!
//! Checks run on the calling thread; only the sweep starts threads.  Its
//! budget is, from strongest to weakest:
//!
//! 1. Explicit configuration: the `threads` argument of the sweep entry
//!    points (fed by `VerifierConfig::threads` and the `--threads` flag of
//!    the `table2` binary).
//! 2. Environment: `CC_SWEEP_THREADS`.  Only a positive integer is used;
//!    zero or anything else falls through to the auto default.
//! 3. Auto: the available parallelism of the machine.
//!
//! The budget never changes a verdict, a count or a counterexample — only
//! wall-clock time and peak memory.
//!
//! # Job lifecycle & fault model
//!
//! [`CheckJob`] wraps a batch check in an interruptible state machine, and
//! [`check_over_sweep_cancellable`] extends its stop signals to the sweep
//! grid (an interrupted sweep is rerun, not resumed):
//!
//! * **Checkpoint boundaries.**  A job stops only at *wave boundaries* of
//!   an exploration (every level starts a wave, and a wide level is cut
//!   into waves of at most 8192 nodes) and at *obligation boundaries*
//!   between specs.  The [`JobCheckpoint`] keeps the completed outcomes and
//!   the cumulative counters, nothing more: a stop inside a group build
//!   abandons that build, and an interrupted analysis pass records nothing.
//!   Exploration and the passes are deterministic, so [`CheckJob::resume`]
//!   rebuilds the graphs the owed obligations need and reproduces
//!   verdicts, state counts, transition counts and counterexample schedules
//!   bit-identically to an uninterrupted run (pinned by the
//!   `random_differential` interrupt axis).  A group build longer than one
//!   deadline window therefore never finishes across resumes; give the
//!   resume a longer deadline.  A checkpoint lives in process only: an
//!   obligation's outcome depends on nothing but its group's graph and the
//!   checker options, so state that must outlive the process (`ccserve`'s
//!   parked jobs) keeps the verdicts already answered and runs a fresh job
//!   over the owed obligations.
//! * **Cancellation latency.**  [`CancelToken::cancel`] and the deadline
//!   are *fast* signals, polled at wave boundaries and every few thousand
//!   steps of an analysis pass — latency is O(one wave), not O(the check).
//!   A stop abandons the group build it lands in.
//! * **Budget semantics.**  The [`JobBudget`] state/transition caps are
//!   evaluated only at wave and obligation boundaries against the
//!   deterministic exploration counters, so *where* they trip is identical
//!   on every run.  The deadline (re-anchored at each `run`/`resume`
//!   call) and the resident-byte cap are inherently timing/allocator
//!   dependent — their trip point varies, but resuming still reproduces
//!   the uninterrupted results exactly.  Analysis passes over a cached
//!   graph re-walk existing arcs and are exempt from the job
//!   state/transition caps (they honour cancellation and the deadline).
//!   Resuming with the *same* exhausted cap re-trips at the next boundary
//!   without progress; resume with a larger budget.  In a sweep,
//!   cancellation and the deadline are global to the grid while the
//!   state/transition/resident caps apply per cell.
//! * **Panic isolation.**  A panic is caught per sweep cell, with a
//!   backtrace recorded by a process-wide panic hook that the sweep
//!   installs.  A cell whose check panics is re-dispatched once on a fresh
//!   checker without the lineage (the fresh-rebuild path); a second panic
//!   marks that cell [`CellDisposition::Failed`] with the payload and
//!   backtrace in its detail while sibling cells keep running.  The
//!   re-dispatch is [`retry_once`], which the `ccserve` daemon also runs
//!   its check jobs under: one retry at once, on fresh resources, with the
//!   panic payload rendered by [`panic_message`].  The `fault_injection`
//!   suite drives all of these paths with seeded injectors ([`fault`]),
//!   which also cover the daemon's admission/response-encode/socket-write
//!   sites.
//! * **Accounting.**  Every grid cell of a cancelled or budget-tripped
//!   sweep is accounted for: completed + skipped (after an earlier
//!   violation) + interrupted (by a job signal) + failed-after-retry equals
//!   the full grid ([`SweepOutcome::disposition`]).  The
//!   `--deadline-ms` / `--max-resident-bytes` flags of the `table2` and
//!   `profile_engine` binaries feed [`JobBudget`] directly.
//!
//! [`mod@reference`] preserves the original clone-per-transition engine
//! (`HashMap<(Vec<u8>, u8), usize>` keys, per-branch `Configuration`
//! clones); the `engine_equivalence` integration tests assert that the
//! engine visits the same number of states and transitions and returns the
//! same verdicts on all eight Table II protocols, and the `table2_checking`
//! bench measures the speedup and the sweep's thread scaling.

pub mod codec;
pub mod counterexample;
pub mod explicit;
pub mod explorer;
pub mod game;
pub mod graph;
pub mod job;
pub mod reference;
pub mod result;
pub mod retry;
pub mod schema;
pub mod spec;
pub mod store;
pub mod sweep;

/// Small models shared by this crate's unit tests and the
/// `engine_equivalence` integration tests.  Not part of the public API
/// surface.
#[doc(hidden)]
pub mod fixtures;

/// Seeded fault-injection hooks for the `fault_injection` integration
/// tests.  Not part of the public API surface.
#[doc(hidden)]
pub mod fault;

pub use codec::DecodeError;
pub use counterexample::Counterexample;
pub use explicit::{CheckerOptions, ExplicitChecker};
pub use graph::GraphLineage;
pub use job::{
    CancelToken, CheckJob, InterruptKind, JobBudget, JobCheckpoint, JobOutcome, ProgressFn,
};
pub use result::{CheckOutcome, CheckStatus, GraphCacheStats, GraphOrigin, GroupCacheRecord};
pub use retry::{panic_message, retry_once};
pub use schema::{
    count_linear_extensions, max_schema_count, milestone_precedence, milestones, schema_count,
    schema_counts, Milestone,
};
pub use spec::{LocSet, Spec, StartRestriction};
pub use sweep::{
    check_over_sweep_cancellable, check_over_sweep_with_stats, sweep_thread_budget,
    CellDisposition, SweepOutcome, SweepReport,
};
