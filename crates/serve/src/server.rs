//! The resident verification server: admission, workers, degradation.
//!
//! See the crate docs for the wire protocol and failure model.  This module
//! implements the lifecycle: an accept loop hands each connection to a
//! reader thread; readers decode frames and either answer immediately
//! (ping/stats), shed (`Overloaded`), or enqueue a `JobEntry`; a fixed
//! pool of worker threads drains the queue and runs each request as a
//! `ccchecker::CheckJob`, degrading deadline-tripped cells to `?` verdicts
//! and caching definite ones across requests.

use crate::cache::{CacheKey, CachedVerdict, ResultCache};
use crate::queue::AdmissionQueue;
use crate::registry::{CheckpointRegistry, ParkedJob};
use crate::store::{FsyncPolicy, VerdictLog};
use crate::transport::{Listener, Stream};
use crate::wire::{
    decode_request, encode_response, read_frame, write_frame, CellReport, CheckRequest, Request,
    Response, ResumeRequest, ResumeToken, Source, SpecVerdict, StatsSnapshot, WireError,
    DEFAULT_MAX_FRAME,
};
use ccchecker::{
    fault, panic_message, retry_once, CancelToken, CheckJob, CheckOutcome, CheckStatus,
    CheckerOptions, InterruptKind, JobBudget, JobOutcome, ProgressFn, Spec,
};
use cccore::fingerprint::{
    spec_fingerprint, system_fingerprint, valuation_fingerprint, verdict_code,
};
use cccore::VerifierConfig;
use cccounter::CounterSystem;
use ccta::{ParamValuation, SystemModel};
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked reads and accepts re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Minimum spacing between `Progress` frames of one running cell.
const PROGRESS_INTERVAL: Duration = Duration::from_millis(20);

/// Server configuration.  [`ServeConfig::default`] holds the defaults and
/// the `ccserve` flags overwrite single fields.  Each job runs on its worker
/// slot's thread.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker slots (concurrent jobs); by default `min(4, available
    /// parallelism)`.  [`Server::start`] runs at least one.
    pub workers: usize,
    /// Admission queue capacity across all priority bands; 64 by default.
    pub queue_capacity: usize,
    /// Cross-request result-cache capacity; 4096 by default, 0 disables
    /// the cache.
    pub cache_capacity: usize,
    /// Maximum frame payload in bytes; 1 MiB by default.
    pub max_frame_bytes: usize,
    /// Maximum valuations per request (explicit or auto-selected); 4 by
    /// default.
    pub max_valuations: usize,
    /// Checker options for each job (state and transition caps).
    pub checker: CheckerOptions,
    /// Durable verdict log path (`--cache-log`).  `None` disables
    /// durability: the cache and the checkpoint registry die with the
    /// process.
    pub cache_log: Option<PathBuf>,
    /// When verdict appends fsync (`--fsync-policy`).
    pub fsync_policy: FsyncPolicy,
    /// Parked-checkpoint registry slots (`--checkpoint-slots`); 32 by
    /// default, 0 disables parking.
    pub checkpoint_slots: usize,
    /// Parked-checkpoint TTL in milliseconds; 120 000 by default.
    pub checkpoint_ttl_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(1),
            queue_capacity: 64,
            cache_capacity: 4096,
            max_frame_bytes: DEFAULT_MAX_FRAME,
            max_valuations: 4,
            checker: CheckerOptions::default(),
            cache_log: None,
            fsync_policy: FsyncPolicy::Always,
            checkpoint_slots: 32,
            checkpoint_ttl_ms: 120_000,
        }
    }
}

/// Monotonic server counters (see [`StatsSnapshot`] for the wire form).
#[derive(Default)]
pub struct ServerStats {
    admitted: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    orphaned: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
    active_jobs: AtomicU64,
    parked: AtomicU64,
    resumed: AtomicU64,
    resume_rejected: AtomicU64,
    checkpoints_evicted: AtomicU64,
    log_recovered: AtomicU64,
    /// EWMA of recent job service time, in nanoseconds (0 = no sample yet).
    service_ns_ewma: AtomicU64,
}

impl ServerStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one observed service time into the mean (EWMA, alpha = 1/8).
    fn observe_service(&self, elapsed: Duration) {
        let sample = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        let old = self.service_ns_ewma.load(Ordering::Relaxed);
        let new = if old == 0 {
            sample
        } else {
            old - old / 8 + sample / 8
        };
        self.service_ns_ewma.store(new, Ordering::Relaxed);
    }
}

/// How long a shed client should wait before retrying: the queue depth
/// ahead of it, spread over the worker slots, times the recent mean
/// service time.  Monotone in the queue depth; clamped to [1 ms, 60 s].
fn retry_after_hint_ms(queue_depth: u64, mean_service_ns: u64, workers: u64) -> u64 {
    let mean_ms = (mean_service_ns / 1_000_000).max(1);
    let waves = queue_depth.saturating_add(1).div_ceil(workers.max(1));
    waves.saturating_mul(mean_ms).clamp(1, 60_000)
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Per-connection shared state: the (mutexed) write side, liveness, and
/// the cancel tokens of this connection's queued/running requests.
struct ConnShared {
    writer: Mutex<Stream>,
    alive: AtomicBool,
    inflight: Mutex<HashMap<u64, CancelToken>>,
}

impl ConnShared {
    fn new(writer: Stream) -> Self {
        ConnShared {
            writer: Mutex::new(writer),
            alive: AtomicBool::new(true),
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Declares the client gone: every queued or running request of this
    /// connection is cancelled so its worker slot frees up.  The order
    /// matters — `alive` drops *before* the tokens fire, so a worker that
    /// registers a fresh token and then re-checks `alive` cannot race past
    /// both signals.
    fn mark_dead(&self) {
        self.alive.store(false, Ordering::Release);
        for token in lock_ignore_poison(&self.inflight).values() {
            token.cancel();
        }
    }

    fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    fn register(&self, id: u64, token: CancelToken) {
        lock_ignore_poison(&self.inflight).insert(id, token);
    }

    fn unregister(&self, id: u64) {
        lock_ignore_poison(&self.inflight).remove(&id);
    }

    /// Sends one response frame.  Serialization panics degrade to a
    /// minimal typed `Error`; write panics or IO errors declare the
    /// connection dead (cancelling its in-flight jobs, shutting the socket
    /// so the reader thread exits too) and report `false`.
    fn send(&self, resp: &Response) -> bool {
        if !self.is_alive() {
            return false;
        }
        let payload = match catch_unwind(AssertUnwindSafe(|| {
            fault::maybe_fire(fault::SITE_RESPONSE_ENCODE);
            encode_response(resp)
        })) {
            Ok(p) => p,
            Err(_) => encode_response(&Response::Error {
                id: resp.request_id().unwrap_or(0),
                detail: "response serialization failed".into(),
            }),
        };
        let wrote = catch_unwind(AssertUnwindSafe(|| {
            let mut writer = lock_ignore_poison(&self.writer);
            fault::maybe_fire(fault::SITE_SOCKET_WRITE);
            write_frame(&mut *writer, &payload)
        }));
        match wrote {
            Ok(Ok(())) => true,
            _ => {
                // re-acquire outside the failed scope (the panic path
                // released — and poisoned — the writer lock)
                lock_ignore_poison(&self.writer).shutdown_both();
                self.mark_dead();
                false
            }
        }
    }
}

/// What an admitted entry asks a worker to do.
enum Work {
    /// Run a check from scratch.
    Check(CheckRequest),
    /// Continue a parked job by resume token.
    Resume(ResumeRequest),
}

impl Work {
    fn id(&self) -> u64 {
        match self {
            Work::Check(req) => req.id,
            Work::Resume(rr) => rr.id,
        }
    }
}

/// One admitted request waiting for (or holding) a worker slot.
struct JobEntry {
    work: Work,
    conn: Arc<ConnShared>,
    admitted_at: Instant,
    cancel: CancelToken,
}

struct Ctx {
    stats: ServerStats,
    cache: ResultCache,
    queue: AdmissionQueue<JobEntry>,
    registry: CheckpointRegistry,
    log: Option<Mutex<VerdictLog>>,
    shutdown: AtomicBool,
    cfg: ServeConfig,
}

impl Ctx {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            admitted: self.stats.admitted.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            orphaned: self.stats.orphaned.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            errors: self.stats.errors.load(Ordering::Relaxed),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            active_jobs: self.stats.active_jobs.load(Ordering::Relaxed),
            queue_depth: self.queue.len() as u64,
            parked: self.stats.parked.load(Ordering::Relaxed),
            resumed: self.stats.resumed.load(Ordering::Relaxed),
            resume_rejected: self.stats.resume_rejected.load(Ordering::Relaxed),
            checkpoints_evicted: self.stats.checkpoints_evicted.load(Ordering::Relaxed),
            log_recovered: self.stats.log_recovered.load(Ordering::Relaxed),
        }
    }

    /// Caches a computed outcome and, when definite and a log is
    /// configured, makes it durable *before* any response frame reports it
    /// (the prefix-of-acknowledged invariant).  Piggybacks auto-compaction
    /// on the append path.
    fn record_verdict(&self, key: CacheKey, outcome: &CheckOutcome) {
        self.cache.insert(key, outcome);
        if outcome.status == CheckStatus::Unknown {
            return;
        }
        let Some(log) = &self.log else {
            return;
        };
        let cached = CachedVerdict {
            status: outcome.status,
            states_explored: outcome.states_explored,
            transitions_explored: outcome.transitions_explored,
            detail: outcome.detail.clone(),
        };
        let mut log = lock_ignore_poison(log);
        if let Err(e) = log.append_verdict(&key, &cached) {
            eprintln!("ccserve: verdict log append failed: {e}");
            return;
        }
        if log.should_compact() {
            let verdicts = self.cache.entries();
            let checkpoints = self.registry.snapshot();
            if let Err(e) = log.compact(&verdicts, &checkpoints) {
                eprintln!("ccserve: log compaction failed: {e}");
            }
        }
    }

    /// Appends a checkpoint tombstone (consumed or evicted token).
    fn log_drop(&self, token: u64) {
        if let Some(log) = &self.log {
            if let Err(e) = lock_ignore_poison(log).append_drop(token) {
                eprintln!("ccserve: verdict log append failed: {e}");
            }
        }
    }
}

/// A running server.  Dropping without [`Server::shutdown`] leaves the
/// daemon threads running detached; tests and the binary call `shutdown`.
pub struct Server {
    ctx: Arc<Ctx>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    addr: Option<SocketAddr>,
}

impl Server {
    /// Binds a TCP listener (`"127.0.0.1:0"` for an ephemeral port) and
    /// starts the daemon.
    pub fn bind_tcp(addr: &str, config: ServeConfig) -> io::Result<Server> {
        Server::start(Listener::bind_tcp(addr)?, config)
    }

    /// Binds a Unix-domain socket and starts the daemon.
    #[cfg(unix)]
    pub fn bind_unix(path: &std::path::Path, config: ServeConfig) -> io::Result<Server> {
        Server::start(Listener::bind_unix(path)?, config)
    }

    /// Starts accept, reader and worker threads over a bound listener.
    pub fn start(listener: Listener, mut cfg: ServeConfig) -> io::Result<Server> {
        cfg.workers = cfg.workers.max(1);
        let addr = listener.local_addr();
        listener.set_nonblocking(true)?;
        let cache = ResultCache::new(cfg.cache_capacity);
        let registry = CheckpointRegistry::new(
            cfg.checkpoint_slots,
            Duration::from_millis(cfg.checkpoint_ttl_ms),
        );
        let stats = ServerStats::default();
        let log = match &cfg.cache_log {
            Some(path) => {
                // the log is the durability promise: failing to open it is
                // a startup error, but a *torn* log never is — recovery
                // truncates and keeps going
                let (log, recovered) = VerdictLog::open(path, cfg.fsync_policy)?;
                stats
                    .log_recovered
                    .store(recovered.verdicts.len() as u64, Ordering::Relaxed);
                for (key, verdict) in recovered.verdicts {
                    cache.preload(key, verdict);
                }
                for (token, bytes) in recovered.checkpoints {
                    registry.recover(token, bytes);
                }
                Some(Mutex::new(log))
            }
            None => None,
        };
        let ctx = Arc::new(Ctx {
            stats,
            cache,
            queue: AdmissionQueue::new(cfg.queue_capacity),
            registry,
            log,
            shutdown: AtomicBool::new(false),
            cfg,
        });
        let mut threads = Vec::new();
        for _ in 0..ctx.cfg.workers {
            let ctx = Arc::clone(&ctx);
            threads.push(std::thread::spawn(move || worker_loop(&ctx)));
        }
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let ctx = Arc::clone(&ctx);
            let conn_threads = Arc::clone(&conn_threads);
            threads.push(std::thread::spawn(move || {
                accept_loop(listener, &ctx, &conn_threads);
                // the accept loop exits only at shutdown; readers notice the
                // flag within one poll interval, so these joins terminate
                let handles: Vec<_> = lock_ignore_poison(&conn_threads).drain(..).collect();
                for h in handles {
                    let _ = h.join();
                }
            }));
        }
        Ok(Server {
            ctx,
            threads: Mutex::new(threads),
            addr,
        })
    }

    /// The bound TCP address, if serving TCP.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// A snapshot of the server counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.ctx.snapshot()
    }

    /// Stops accepting, drains admitted work, and joins every thread.
    pub fn shutdown(&self) {
        self.ctx.shutdown.store(true, Ordering::SeqCst);
        self.ctx.queue.close();
        let handles: Vec<_> = lock_ignore_poison(&self.threads).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: Listener, ctx: &Arc<Ctx>, conn_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>) {
    while !ctx.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok(stream) => {
                let ctx = Arc::clone(ctx);
                let handle = std::thread::spawn(move || serve_connection(stream, &ctx));
                lock_ignore_poison(conn_threads).push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => break,
        }
    }
}

/// A connection's read side that retries timed-out reads until the server
/// shuts down, so [`read_frame`] blocks across poll intervals without
/// losing the bytes of a slow writer's partial frame.  Shutdown surfaces
/// as `ConnectionAborted`: `read_exact` retries `Interrupted` forever.
struct PollingReader<'a> {
    stream: Stream,
    shutdown: &'a AtomicBool,
}

impl Read for PollingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "shutting down",
                ));
            }
            match self.stream.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                done => return done,
            }
        }
    }
}

fn serve_connection(stream: Stream, ctx: &Arc<Ctx>) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let conn = Arc::new(ConnShared::new(writer));
    let mut reader = PollingReader {
        stream,
        shutdown: &ctx.shutdown,
    };
    loop {
        match read_frame(&mut reader, ctx.cfg.max_frame_bytes) {
            Ok(payload) => match decode_request(&payload) {
                Ok(Request::Ping) => {
                    conn.send(&Response::Pong);
                }
                Ok(Request::Stats) => {
                    conn.send(&Response::Stats(ctx.snapshot()));
                }
                Ok(Request::Check(req)) => admit(Work::Check(req), &conn, ctx),
                Ok(Request::Resume(rr)) => admit(Work::Resume(rr), &conn, ctx),
                Err(e) => {
                    // the frame boundary was sound, so the stream is still
                    // in sync: reject and keep serving this connection
                    ServerStats::bump(&ctx.stats.rejected);
                    conn.send(&Response::Rejected {
                        id: 0,
                        reason: e.to_string(),
                    });
                }
            },
            Err(e @ (WireError::BadMagic(_) | WireError::Oversized { .. })) => {
                // cannot resynchronise after these: reject, then hang up
                ServerStats::bump(&ctx.stats.rejected);
                conn.send(&Response::Rejected {
                    id: 0,
                    reason: e.to_string(),
                });
                break;
            }
            Err(_) => break, // disconnect, transport error, or shutdown
        }
    }
    conn.mark_dead();
    reader.stream.shutdown_both();
}

/// Admission: register the request's cancel token, then enqueue.  A full
/// queue sheds with a typed `Overloaded` carrying the observed depth; an
/// injected admission panic degrades to a typed `Error`.  Nothing is ever
/// buffered outside the bounded queue.
fn admit(work: Work, conn: &Arc<ConnShared>, ctx: &Arc<Ctx>) {
    let id = work.id();
    let priority = match &work {
        Work::Check(req) => req.priority,
        Work::Resume(rr) => rr.priority,
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        fault::maybe_fire(fault::SITE_ADMISSION);
        let cancel = CancelToken::new();
        conn.register(id, cancel.clone());
        let entry = JobEntry {
            work,
            conn: Arc::clone(conn),
            admitted_at: Instant::now(),
            cancel,
        };
        // box the shed entry so the closure's Err stays pointer-sized
        ctx.queue.push(entry, priority).map_err(Box::new)
    }));
    match outcome {
        Ok(Ok(())) => ServerStats::bump(&ctx.stats.admitted),
        Ok(Err(_entry)) => {
            conn.unregister(id);
            ServerStats::bump(&ctx.stats.shed);
            let queue_depth = ctx.queue.len() as u64;
            conn.send(&Response::Overloaded {
                id,
                queue_depth,
                capacity: ctx.queue.capacity() as u64,
                retry_after_hint_ms: retry_after_hint_ms(
                    queue_depth,
                    ctx.stats.service_ns_ewma.load(Ordering::Relaxed),
                    ctx.cfg.workers as u64,
                ),
            });
        }
        Err(_) => {
            conn.unregister(id);
            ServerStats::bump(&ctx.stats.errors);
            conn.send(&Response::Error {
                id,
                detail: "admission failed".into(),
            });
        }
    }
}

fn worker_loop(ctx: &Arc<Ctx>) {
    while let Some(entry) = ctx.queue.pop() {
        ctx.stats.active_jobs.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        process(entry, ctx);
        ctx.stats.observe_service(started.elapsed());
        ctx.stats.active_jobs.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The resolved shape of a request: the single-round model and the
/// obligation catalogue to check on it.
struct ResolvedRequest {
    model: SystemModel,
    specs: Vec<Spec>,
    /// Auto-selected sweep for family sources (used when the request names
    /// no valuations).
    family_sweep: Vec<ParamValuation>,
}

fn resolve_source(req: &CheckRequest) -> Result<ResolvedRequest, String> {
    match &req.source {
        Source::Protocol(name) => {
            let protocol = ccprotocols::protocol_by_name(name)
                .ok_or_else(|| format!("unknown protocol {name:?}"))?;
            let model = protocol.single_round();
            let obligations = cccore::obligations_for(&protocol, &model);
            let specs = obligations.all().into_iter().cloned().collect();
            Ok(ResolvedRequest {
                model,
                specs,
                family_sweep: Vec::new(),
            })
        }
        Source::Family { params, seed } => {
            let family = params.instantiate(*seed);
            let specs = Spec::family_catalogue(&family.single_round, &family.obligations);
            Ok(ResolvedRequest {
                model: family.single_round,
                specs,
                family_sweep: family.sweep,
            })
        }
    }
}

fn degraded_verdict(spec: &Spec, detail: &str) -> SpecVerdict {
    SpecVerdict {
        name: spec.name().to_string(),
        code: b'?',
        states: 0,
        transitions: 0,
        cached: false,
        detail: detail.to_string(),
    }
}

fn outcome_verdict(spec: &Spec, outcome: &CheckOutcome, cached: bool) -> SpecVerdict {
    SpecVerdict {
        name: spec.name().to_string(),
        code: verdict_code(outcome.status),
        states: outcome.states_explored as u64,
        transitions: outcome.transitions_explored as u64,
        cached,
        detail: outcome.detail.clone(),
    }
}

fn process(entry: JobEntry, ctx: &Arc<Ctx>) {
    let JobEntry {
        work,
        conn,
        admitted_at,
        cancel,
    } = entry;
    let id = work.id();
    if cancel.is_cancelled() || !conn.is_alive() {
        conn.unregister(id);
        ServerStats::bump(&ctx.stats.orphaned);
        return;
    }
    match work {
        Work::Check(req) => {
            let run = CheckRun {
                id,
                deadline_ms: req.deadline_ms,
                progress: req.progress,
                park: req.park_on_interrupt,
                req,
                resume: None,
            };
            run_check(run, &conn, admitted_at, &cancel, ctx);
        }
        Work::Resume(rr) => {
            let bytes = match ctx.registry.take(rr.token) {
                Ok(bytes) => bytes,
                Err(cause) => {
                    conn.unregister(id);
                    ServerStats::bump(&ctx.stats.resume_rejected);
                    conn.send(&Response::ResumeRejected { id, cause });
                    return;
                }
            };
            // tokens are one-shot: the consumption is durable even if the
            // continued run fails to produce a verdict
            ctx.log_drop(rr.token);
            let parked = match ParkedJob::decode(&bytes) {
                Ok(parked) => parked,
                Err(e) => {
                    conn.unregister(id);
                    ServerStats::bump(&ctx.stats.errors);
                    conn.send(&Response::Error {
                        id,
                        detail: format!("parked state undecodable: {e}"),
                    });
                    return;
                }
            };
            ServerStats::bump(&ctx.stats.resumed);
            let run = CheckRun {
                id,
                deadline_ms: rr.deadline_ms,
                progress: rr.progress,
                park: rr.park_on_interrupt,
                req: parked.req.clone(),
                resume: Some(parked),
            };
            run_check(run, &conn, admitted_at, &cancel, ctx);
        }
    }
}

/// One check execution: either a fresh request or the continuation of a
/// parked one.
struct CheckRun {
    /// The originating check request (for a resume: the one embedded in
    /// the parked state — resolution is deterministic, so it rebuilds the
    /// same model, specs and valuations).
    req: CheckRequest,
    /// The id terminal responses echo (a resume answers with *its* id).
    id: u64,
    deadline_ms: u64,
    progress: bool,
    park: bool,
    /// The parked request to pick back up, if this run is a resume.
    resume: Option<ParkedJob>,
}

fn run_check(
    run: CheckRun,
    conn: &Arc<ConnShared>,
    admitted_at: Instant,
    cancel: &CancelToken,
    ctx: &Arc<Ctx>,
) {
    let CheckRun {
        req,
        id,
        deadline_ms,
        progress,
        park,
        mut resume,
    } = run;

    let reject = |reason: String| {
        conn.unregister(id);
        ServerStats::bump(&ctx.stats.rejected);
        conn.send(&Response::Rejected { id, reason });
    };
    let internal_error = |detail: String| {
        conn.unregister(id);
        ServerStats::bump(&ctx.stats.errors);
        conn.send(&Response::Error { id, detail });
    };

    // Resolution (model construction) runs under the same supervision as
    // the job itself: a panic is an internal error, not a daemon crash.
    let resolved = match catch_unwind(AssertUnwindSafe(|| resolve_source(&req))) {
        Ok(Ok(r)) => r,
        Ok(Err(reason)) => return reject(reason),
        Err(payload) => {
            return internal_error(format!(
                "request resolution panicked: {}",
                panic_message(payload.as_ref())
            ));
        }
    };
    let specs: Vec<Spec> = if req.obligations.is_empty() {
        resolved.specs
    } else {
        let wanted: Vec<&str> = req.obligations.iter().map(String::as_str).collect();
        let filtered: Vec<Spec> = resolved
            .specs
            .into_iter()
            .filter(|s| wanted.contains(&s.name()))
            .collect();
        if filtered.is_empty() {
            return reject("no matching obligations".into());
        }
        filtered
    };
    let model = resolved.model;

    // Valuations: explicit ones must match the environment and be
    // admissible; an empty list asks the daemon to pick small admissible
    // points itself.
    let valuations: Vec<ParamValuation> = if req.valuations.is_empty() {
        let auto = if resolved.family_sweep.is_empty() {
            VerifierConfig::quick().select_valuations(&model)
        } else {
            resolved.family_sweep
        };
        auto.into_iter().take(ctx.cfg.max_valuations).collect()
    } else {
        if req.valuations.len() > ctx.cfg.max_valuations {
            return reject(format!(
                "too many valuations: {} (max {})",
                req.valuations.len(),
                ctx.cfg.max_valuations
            ));
        }
        let env = model.env();
        let mut out = Vec::with_capacity(req.valuations.len());
        for raw in &req.valuations {
            if raw.len() != env.num_params() {
                return reject(format!(
                    "valuation arity {} does not match the {} environment parameters",
                    raw.len(),
                    env.num_params()
                ));
            }
            let v = ParamValuation::new(raw.clone());
            if !env.is_admissible(&v) {
                return reject(format!("inadmissible valuation {raw:?}"));
            }
            out.push(v);
        }
        out
    };
    if valuations.is_empty() {
        return reject("no admissible valuations".into());
    }

    // Counter systems are built up front so an unbuildable valuation is a
    // rejection, not a mid-grid error.
    let mut systems = Vec::with_capacity(valuations.len());
    for v in &valuations {
        match CounterSystem::new(model.clone(), v.clone()) {
            Ok(sys) => systems.push(sys),
            Err(e) => return reject(format!("cannot build counter system: {e}")),
        }
    }

    // A resumed request must slot cleanly into the catalogue it was parked
    // under; registry bytes are self-produced, but never worth an
    // out-of-bounds panic if a log ever feeds us drifted state.
    if let Some(parked) = &resume {
        let consistent = parked.cell_index < valuations.len()
            && parked.cells_done.len() == parked.cell_index
            && parked.answered.iter().all(|(i, _)| *i < specs.len());
        if !consistent {
            return internal_error("parked state does not match its request".into());
        }
    }

    let deadline_at = (deadline_ms > 0).then(|| admitted_at + Duration::from_millis(deadline_ms));
    let system_fp = system_fingerprint(&model);
    let spec_fps: Vec<u64> = specs.iter().map(spec_fingerprint).collect();

    let start_cell = resume.as_ref().map_or(0, |parked| parked.cell_index);
    let mut cells: Vec<CellReport> = resume
        .as_mut()
        .map(|parked| std::mem::take(&mut parked.cells_done))
        .unwrap_or_default();
    let mut resume_token: Option<ResumeToken> = None;

    for (vi, (valuation, sys)) in valuations.iter().zip(&systems).enumerate().skip(start_cell) {
        let valuation_fp = valuation_fingerprint(valuation);
        let mut verdicts: Vec<Option<SpecVerdict>> = vec![None; specs.len()];

        if let Some(parked) = resume.take_if(|parked| parked.cell_index == vi) {
            // the parked cell: replay its answered verdicts verbatim — the
            // cache is *not* re-consulted, so the reported verdicts cannot
            // shift under a cache that moved on
            for (slot, v) in parked.answered {
                verdicts[slot] = Some(v);
            }
        } else {
            for (i, spec) in specs.iter().enumerate() {
                if let Some(hit) = ctx.cache.get(&(system_fp, valuation_fp, spec_fps[i])) {
                    verdicts[i] = Some(SpecVerdict {
                        name: spec.name().to_string(),
                        code: verdict_code(hit.status),
                        states: hit.states_explored as u64,
                        transitions: hit.transitions_explored as u64,
                        cached: true,
                        detail: hit.detail,
                    });
                }
            }
        }
        let missing: Vec<usize> = (0..specs.len())
            .filter(|&i| verdicts[i].is_none())
            .collect();

        if !missing.is_empty() {
            // `Some(detail)` once this cell tripped
            let mut tripped: Option<String> = None;

            let remaining = deadline_at.map(|d| d.saturating_duration_since(Instant::now()));
            if remaining.is_some_and(|r| r.is_zero()) {
                // the deadline already passed: degrade the whole cell to
                // `?` verdicts, exactly like a tripped VerifierConfig budget
                tripped = Some("interrupted: deadline exceeded".into());
            } else {
                let miss_specs: Vec<Spec> = missing.iter().map(|&i| specs[i].clone()).collect();
                let mut budget = JobBudget::unlimited();
                if let Some(r) = remaining {
                    budget = budget.with_deadline(r);
                }
                let progress_cb: Option<ProgressFn> = progress.then(|| {
                    let conn = Arc::clone(conn);
                    let cells_done = cells.len() as u64;
                    let last = Mutex::new(Instant::now());
                    Arc::new(move |states: usize, transitions: usize| {
                        let mut last = lock_ignore_poison(&last);
                        if last.elapsed() < PROGRESS_INTERVAL {
                            return;
                        }
                        *last = Instant::now();
                        conn.send(&Response::Progress {
                            id,
                            states: states as u64,
                            transitions: transitions as u64,
                            cells_done,
                        });
                    }) as ProgressFn
                });
                let ran = retry_once(|_attempt| {
                    let mut job =
                        CheckJob::new(sys, &miss_specs, ctx.cfg.checker).with_budget(budget);
                    if let Some(cb) = &progress_cb {
                        job = job.with_progress(Arc::clone(cb));
                    }
                    // expose the job's own token for disconnects, then
                    // re-check liveness: `mark_dead` flips `alive`
                    // before cancelling tokens, so this order cannot
                    // miss a disconnect
                    let token = job.cancel_token();
                    conn.register(id, token.clone());
                    if cancel.is_cancelled() || !conn.is_alive() {
                        token.cancel();
                    }
                    job.run()
                });
                match ran {
                    Err(detail) => {
                        return internal_error(format!("job panicked on every attempt: {detail}"));
                    }
                    Ok(JobOutcome::Completed { outcomes, .. }) => {
                        for (slot, outcome) in missing.iter().zip(&outcomes) {
                            ctx.record_verdict((system_fp, valuation_fp, spec_fps[*slot]), outcome);
                            verdicts[*slot] = Some(outcome_verdict(&specs[*slot], outcome, false));
                        }
                    }
                    Ok(JobOutcome::Stopped {
                        reason: InterruptKind::Cancelled,
                        ..
                    }) => {
                        // only a disconnect cancels daemon jobs: drop the
                        // response, release the slot
                        conn.unregister(id);
                        ServerStats::bump(&ctx.stats.orphaned);
                        return;
                    }
                    Ok(JobOutcome::Stopped {
                        reason, answered, ..
                    }) => {
                        tripped = Some(format!("interrupted: {}", reason.describe()));
                        for (slot, outcome) in missing.iter().zip(answered) {
                            if let Some(o) = outcome {
                                ctx.record_verdict((system_fp, valuation_fp, spec_fps[*slot]), &o);
                                verdicts[*slot] = Some(outcome_verdict(&specs[*slot], &o, false));
                            }
                        }
                    }
                }
            }

            if let Some(trip_detail) = tripped {
                // park once, at the first tripped cell, before its owed
                // slots degrade: every filled slot is an answered verdict,
                // and resume recomputes the owed ones and every later cell
                if park && resume_token.is_none() {
                    let parked = ParkedJob {
                        req: req.clone(),
                        cell_index: vi,
                        cells_done: cells.clone(),
                        answered: verdicts
                            .iter()
                            .enumerate()
                            .filter_map(|(i, v)| v.clone().map(|v| (i, v)))
                            .collect(),
                    };
                    let bytes = parked.encode();
                    if let Some((token, evicted)) = ctx.registry.park(bytes.clone()) {
                        for old in evicted {
                            ServerStats::bump(&ctx.stats.checkpoints_evicted);
                            ctx.log_drop(old);
                        }
                        // durable before the token is promised
                        if let Some(log) = &ctx.log {
                            if let Err(e) = lock_ignore_poison(log).append_checkpoint(token, &bytes)
                            {
                                eprintln!("ccserve: checkpoint log append failed: {e}");
                            }
                        }
                        ServerStats::bump(&ctx.stats.parked);
                        resume_token = Some(ResumeToken {
                            token,
                            expires_in_ms: ctx.registry.ttl_ms(),
                        });
                    }
                }
                let detail = if resume_token.is_some() {
                    format!("{trip_detail}; resumable")
                } else {
                    trip_detail
                };
                for &i in &missing {
                    if verdicts[i].is_none() {
                        verdicts[i] = Some(degraded_verdict(&specs[i], &detail));
                    }
                }
            }
        }

        cells.push(CellReport {
            valuation: valuation.values().to_vec(),
            verdicts: verdicts.into_iter().map(|v| v.unwrap()).collect(),
        });
    }

    conn.unregister(id);
    if conn.send(&Response::Verdict {
        id,
        cells,
        resume: resume_token,
    }) {
        ServerStats::bump(&ctx.stats.completed);
    } else {
        ServerStats::bump(&ctx.stats.orphaned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Priority;

    #[test]
    fn retry_hint_is_monotone_in_queue_depth() {
        let mean_ns = 7_500_000; // 7.5 ms mean service time
        let mut prev = 0;
        for depth in 0..512 {
            let hint = retry_after_hint_ms(depth, mean_ns, 4);
            assert!(
                hint >= prev,
                "hint regressed at depth {depth}: {hint} < {prev}"
            );
            prev = hint;
        }
        // and it actually grows across worker-count strides
        assert!(retry_after_hint_ms(64, mean_ns, 4) > retry_after_hint_ms(0, mean_ns, 4));
    }

    #[test]
    fn retry_hint_scales_with_service_time_and_stays_clamped() {
        assert_eq!(retry_after_hint_ms(0, 0, 4), 1, "no sample yet: floor");
        assert!(
            retry_after_hint_ms(16, 40_000_000, 4) > retry_after_hint_ms(16, 4_000_000, 4),
            "slower service means a longer hint"
        );
        assert_eq!(
            retry_after_hint_ms(u64::MAX / 2, 1_000_000_000, 1),
            60_000,
            "ceiling"
        );
        // zero workers must not divide by zero
        assert!(retry_after_hint_ms(8, 1_000_000, 0) >= 1);
    }

    #[test]
    fn a_resumed_parked_cell_replays_its_answered_verdicts_and_checks_the_rest() {
        let dir = std::env::temp_dir().join(format!("ccserve-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.log");
        let _ = std::fs::remove_file(&path);
        let req = CheckRequest {
            id: 1,
            priority: Priority::Normal,
            deadline_ms: 0,
            source: Source::Protocol("KS16".into()),
            valuations: vec![vec![4, 1, 1, 1]],
            obligations: vec![],
            progress: false,
            park_on_interrupt: true,
        };
        let resolved = resolve_source(&req).unwrap();
        let specs = resolved.specs;
        // a verdict no run produces, so only a replay can report it
        let marker = SpecVerdict {
            name: specs[0].name().to_string(),
            code: b'+',
            states: 123_456_789,
            transitions: 987_654_321,
            cached: false,
            detail: "replayed".into(),
        };
        let parked = ParkedJob {
            req: req.clone(),
            cell_index: 0,
            cells_done: Vec::new(),
            answered: vec![(0, marker.clone())],
        };
        let (mut log, _) = VerdictLog::open(&path, FsyncPolicy::Always).unwrap();
        log.append_checkpoint(42, &parked.encode()).unwrap();
        drop(log);

        let config = ServeConfig {
            workers: 1,
            cache_log: Some(path),
            ..ServeConfig::default()
        };
        let server = Server::bind_tcp("127.0.0.1:0", config).unwrap();
        let mut client = crate::ServeClient::connect_tcp(server.local_addr().unwrap()).unwrap();
        let resp = client
            .request(&Request::Resume(ResumeRequest {
                id: 2,
                token: 42,
                priority: Priority::Normal,
                deadline_ms: 0,
                progress: false,
                park_on_interrupt: false,
            }))
            .unwrap();
        drop(client);
        let stats = server.stats();
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();

        let Response::Verdict { id, cells, resume } = resp else {
            panic!("expected a verdict, got {resp:?}");
        };
        assert_eq!((id, resume), (2, None));
        assert_eq!(cells.len(), 1);
        let verdicts = &cells[0].verdicts;
        assert_eq!(
            verdicts[0], marker,
            "the answered slot is replayed verbatim"
        );
        // every owed slot is what a job over the owed specs alone reports
        let sys =
            CounterSystem::new(resolved.model, ParamValuation::new(vec![4, 1, 1, 1])).unwrap();
        let (outcomes, _) = CheckJob::new(&sys, &specs[1..], CheckerOptions::default())
            .run()
            .completed()
            .unwrap();
        let owed: Vec<SpecVerdict> = specs[1..]
            .iter()
            .zip(&outcomes)
            .map(|(spec, outcome)| outcome_verdict(spec, outcome, false))
            .collect();
        assert_eq!(verdicts[1..], owed[..]);
        assert_eq!(
            stats.cache_hits + stats.cache_misses,
            0,
            "a parked cell consults no cache"
        );
        assert_eq!(stats.resumed, 1);
    }

    #[test]
    fn service_ewma_tracks_samples() {
        let stats = ServerStats::default();
        assert_eq!(stats.service_ns_ewma.load(Ordering::Relaxed), 0);
        stats.observe_service(Duration::from_millis(8));
        let first = stats.service_ns_ewma.load(Ordering::Relaxed);
        assert_eq!(first, 8_000_000, "first sample seeds the mean");
        for _ in 0..64 {
            stats.observe_service(Duration::from_millis(16));
        }
        let settled = stats.service_ns_ewma.load(Ordering::Relaxed);
        assert!(
            settled > 15_000_000 && settled < 17_000_000,
            "mean converged towards the new regime, got {settled}"
        );
    }
}
