//! `ccserve`: a resident verification daemon with admission control,
//! backpressure, and graceful degradation.
//!
//! The rest of the workspace answers one verification question per process
//! invocation.  This crate keeps the checker resident: a daemon accepts
//! verification requests — a protocol by Table II name or a generated
//! family by parameter point, a valuation grid, an obligation filter, and
//! a per-request deadline — runs them as `ccchecker::CheckJob`s on a fixed
//! worker budget, and shares definite verdicts across requests through a
//! fingerprint-keyed result cache (see `cccore::fingerprint`).
//!
//! # Wire protocol & failure model
//!
//! **Framing.**  Every message is one frame: `[magic u32][length u32]
//! [payload]`, little-endian, with magic [`wire::MAGIC`].  The length is
//! bounded by the server's `max_frame_bytes` knob.  The payload encoding
//! is fixed-width integers plus length-prefixed UTF-8 strings, written and
//! read through `ccchecker::codec` — see [`wire`] for the exact layouts.  The protocol is deliberately
//! hand-rolled over std TCP / Unix sockets: the workspace builds offline,
//! so no serde, no async runtime.
//!
//! **Request taxonomy.**  `Check` (run a verification job), `Resume`
//! (continue a parked job by resume token), `Stats` (counter snapshot),
//! `Ping` (liveness).  A check request carries a client-chosen id that
//! every terminal response echoes, so clients may pipeline requests over
//! one connection.  Two opt-in flags ride on check (and resume) requests:
//! `progress` subscribes to interim `Progress` frames, `park_on_interrupt`
//! asks the daemon to park a deadline-tripped request instead of
//! discarding its work.  A parked job is the request plus what the wire
//! already reported: the cells done and the tripped cell's answered
//! verdicts.  A resume replays those verbatim and checks only the owed
//! obligations of that cell, then the later cells.
//!
//! **Response taxonomy.**  Exactly one *terminal* response per check or
//! resume request on a live connection:
//!
//! * `Verdict` — the request was admitted and ran; one report per
//!   valuation with a `+`/`-`/`?` glyph per obligation.  If the deadline
//!   tripped a `park_on_interrupt` request, the verdict additionally
//!   carries a `ResumeToken`: the degraded `?` cells can be continued.
//! * `Overloaded` — the bounded admission queue was full; the request was
//!   shed *at admission* and nothing was buffered.  Backpressure is always
//!   explicit: the daemon never queues beyond `queue_capacity`.  The
//!   response carries `retry_after_hint_ms` — queue depth times the
//!   recent mean service time over the worker count — so clients can back
//!   off proportionally to actual load.
//! * `Rejected` — understood but unserviceable: unknown protocol name,
//!   valuation arity mismatch, inadmissible valuation, empty obligation
//!   match, malformed payload (id 0 when the id itself did not decode).
//! * `ResumeRejected` — a resume whose token cannot be honoured, with a
//!   typed cause: `Unknown` (never issued / already consumed), `Evicted`
//!   (displaced by LRU pressure on the checkpoint registry), `Expired`
//!   (outlived its TTL).  The client always knows whether to retry from
//!   scratch.
//! * `Error` — the daemon failed internally (e.g. a job panicked on every
//!   supervised attempt).
//!
//! `Stats`/`Pong`/`Progress` replies are non-terminal: a client that set
//! the `progress` flag must keep reading frames for its id until a
//! terminal one arrives.  Frame-level failures are
//! handled by class: a malformed payload inside a sound frame is rejected
//! and the connection keeps serving (the stream is still in sync); a bad
//! magic or an oversized length declaration is rejected and the connection
//! closed (the stream cannot be resynchronised); a short read is a
//! disconnect.
//!
//! **Degradation.**  A per-request `deadline_ms` becomes a
//! `ccchecker::JobBudget` deadline on each cell's job.  Cells past the
//! deadline degrade to `?` verdicts with detail `interrupted: deadline
//! exceeded` — the same structured degradation as `VerifierConfig`
//! budgets: completed obligations keep their verdicts, owed ones are
//! `Unknown`, never fabricated.  Only definite verdicts enter the
//! cross-request cache, so one client's tight deadline cannot poison
//! another's answer.
//!
//! **Disconnects.**  The reader marks the connection dead and cancels the
//! cancel tokens of every queued or running request of that connection.
//! Running jobs observe the token at their next wave boundary, surrender,
//! and the worker slot is released without a response (the `orphaned`
//! counter records it).  The mark-dead order (liveness flag before token
//! sweep) closes the race with a job registering its token concurrently.
//!
//! **Supervision.**  A panicking job is retried once on a fresh `CheckJob`
//! under `ccchecker::retry_once`, the sweep's one-shot fresh-checker
//! retry.  A second panic produces a typed `Error` response; the daemon
//! itself never dies.  The daemon paths are instrumented with the
//! always-compiled `ccchecker::fault` sites `SITE_ADMISSION`,
//! `SITE_RESPONSE_ENCODE` and `SITE_SOCKET_WRITE`, and the `fault_daemon`
//! suite drives the retry through the explorer's `SITE_EXPAND`, so every
//! failure path runs deterministically in the robustness suites.
//!
//! # Durability contract
//!
//! With a cache log configured (`--cache-log PATH`), the daemon's durable
//! state — the cross-request verdict cache and the parked-job registry —
//! survives process death, including `kill -9` at any byte.  A parked job
//! holds only wire layouts (a request, reported cells and answered
//! verdicts), never the checker's internal state:
//!
//! 1. **Acknowledge-after-append.**  A definite verdict is appended to the
//!    log *before* the response frame that reports it is written; a parked
//!    job is appended (and fsync'd, regardless of policy) *before* the
//!    resume token is promised.  Therefore the recovered state is
//!    always a **prefix of what was acknowledged** — a restarted daemon may
//!    have forgotten unacknowledged work, but can never serve a verdict it
//!    did not compute, and never fabricates one.
//! 2. **Truncate-don't-trust.**  Every record is length-prefixed and
//!    FNV-64-checksummed ([`cccore::wal`]); replay stops silently at the
//!    first torn or checksum-failing record and the open truncates the torn
//!    tail in place.  Recovery never errors on a torn file.
//! 3. **Atomic compaction.**  Compaction writes the live state into a
//!    staged next-generation file, fsyncs it, and swaps it in with one
//!    rename (plus a directory fsync).  A crash at any point leaves either
//!    the old or the new generation, never a mix.
//! 4. **Typed resume across restarts.**  A resume token from before a
//!    crash either continues the job (its parked record survived) or
//!    fails typed (`Unknown`/`Evicted`/`Expired`) — never hangs, never
//!    produces a wrong verdict.
//!
//! Verdict-append durability is tunable via `--fsync-policy`
//! (`always` | `every=N` | `interval=MS` | `never`); see
//! [`store::FsyncPolicy`].  Recovery flow:
//!
//! ```text
//!             crash (kill -9, torn append, mid-compaction, ...)
//!                                 │
//!                                 ▼
//!   restart ──▶ wal::open_log ──▶ replay records ──▶ checksum fails /
//!               │                 (clean prefix)     torn tail?
//!               │                      │                  │ yes
//!               │                      │                  ▼
//!               │                      │            truncate in place
//!               │                      ▼
//!               │   ┌──────────── recovered state ────────────┐
//!               │   │ verdict records → ResultCache.preload   │
//!               │   │ checkpoint recs  → CheckpointRegistry   │
//!               │   │   (minus tombstoned tokens, fresh TTL)  │
//!               │   └──────────────────────────────────────────┘
//!               ▼
//!        serve: cache hits answer instantly (log_recovered counts
//!        preloaded verdicts); resumes continue or reject typed
//! ```
//!
//! **Configuration.**  [`ServeConfig::default`] holds every default (worker
//! slots, admission capacity, result-cache capacity, frame bound,
//! checkpoint-registry slots and parked-job TTL), and the `ccserve` flags
//! overwrite single fields.  One environment variable remains:
//! `CC_SERVE_COMPACT_EVERY`, the auto-compaction threshold in appended
//! records, read by [`VerdictLog::open`].  Each job runs on the thread of
//! the worker slot that took it, so the daemon uses at most `workers`
//! threads for checking.

pub mod cache;
pub mod client;
pub mod queue;
mod registry;
pub mod server;
pub mod store;
pub mod transport;
pub mod wire;

pub use cache::ResultCache;
pub use client::ServeClient;
pub use queue::AdmissionQueue;
pub use server::{ServeConfig, Server};
pub use store::{FsyncPolicy, RecoveredState, VerdictLog};
pub use wire::{
    CellReport, CheckRequest, Priority, Request, Response, ResumeRejectCause, ResumeRequest,
    ResumeToken, Source, SpecVerdict, StatsSnapshot, WireError,
};
