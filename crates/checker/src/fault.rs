//! Seeded fault injection hooks for the robustness test suite.
//!
//! The `fault_injection` integration tests arm these hooks to make a check
//! panic at a chosen wave boundary of an exploration (or at a chosen sweep
//! cell), so the panic-isolation and retry paths in [`crate::sweep`] can be
//! driven deterministically.  The module is
//! always compiled — integration tests cannot see `cfg(test)`-gated items —
//! but the disarmed fast path is a single relaxed atomic load, so it costs
//! nothing on the hot path.
//!
//! Injected "OOM" and deadline faults need no hook at all: they are realised
//! by handing a job a tiny resident-byte or deadline budget, which trips the
//! same structured-degradation path a real overrun would.
//!
//! Beyond the checker's sites, the `ccserve` daemon instruments its
//! admission, response-serialization and socket-write paths with the same
//! hooks ([`crate::fault::SITE_ADMISSION`],
//! [`crate::fault::SITE_RESPONSE_ENCODE`],
//! [`crate::fault::SITE_SOCKET_WRITE`]), so every daemon failure path is
//! drivable from its `protocol_robustness` suite without serve-private test
//! shims.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Injection site: a wave boundary of an exploration, before the wave is
/// expanded.  `CC_FAULT_CRASH` names sites by number, so the numbers of
/// all sites stay fixed.
pub const SITE_EXPAND: usize = 1;
/// Injection site: the start of a sweep grid cell.
pub const SITE_SWEEP_CELL: usize = 2;
/// Injection site: the `ccserve` daemon's admission path, after a request
/// frame was decoded but before it is enqueued.  Drives the
/// degrade-to-typed-error path of admission.
pub const SITE_ADMISSION: usize = 3;
/// Injection site: the `ccserve` daemon's response serialization.  Drives
/// the fallback minimal-error-response path.
pub const SITE_RESPONSE_ENCODE: usize = 4;
/// Injection site: the `ccserve` daemon's socket write.  Drives the
/// treat-connection-as-dead path (cancel in-flight jobs, release slots).
pub const SITE_SOCKET_WRITE: usize = 5;
/// Injection site: the verdict log's record append, *after* the bytes were
/// handed to the OS but before the append is considered complete.  Under
/// abort mode this simulates a crash with a possibly-torn record tail.
pub const SITE_LOG_APPEND: usize = 6;
/// Injection site: the verdict log's fsync.  Under abort mode this
/// simulates a crash after writing but before durability was promised.
pub const SITE_LOG_FSYNC: usize = 7;
/// Injection site: the compaction's atomic rename swap, after the staged
/// generation was written and fsync'd but before the rename.  Under abort
/// mode this simulates a crash mid-compaction (the old generation must
/// survive intact).
pub const SITE_COMPACT_SWAP: usize = 8;

static ARMED: AtomicBool = AtomicBool::new(false);
static SITE: AtomicUsize = AtomicUsize::new(0);
/// Hits at the armed site to let pass before firing.
static SKIP: AtomicUsize = AtomicUsize::new(0);
/// Panics still to fire once the skip countdown is exhausted.
static SHOTS: AtomicUsize = AtomicUsize::new(0);
/// Total times the armed site was reached (diagnostics for tests).
static HITS: AtomicUsize = AtomicUsize::new(0);
/// Whether a firing shot aborts the process instead of panicking (crash
/// campaigns want kill--9 semantics: no unwinding, no destructors, no
/// flushes).
static ABORT: AtomicBool = AtomicBool::new(false);

/// Arms the injector: after `skip` hits at `site`, the next `shots` hits
/// panic.  Tests serialise access with a mutex; the injector itself only
/// promises that *some* interleaving of concurrent hits fires `shots` times.
pub fn arm_panic(site: usize, skip: usize, shots: usize) {
    ABORT.store(false, Ordering::SeqCst);
    SITE.store(site, Ordering::SeqCst);
    SKIP.store(skip, Ordering::SeqCst);
    SHOTS.store(shots, Ordering::SeqCst);
    HITS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
}

/// Arms the injector in **abort** mode: a firing shot calls
/// [`std::process::abort`] instead of panicking, so no unwinding, no `Drop`
/// and no buffered flush runs — the closest safe stand-in for `kill -9` at
/// the instrumented site.  Used by the `crash_recovery` campaign through
/// [`arm_from_env`].
pub fn arm_abort(site: usize, skip: usize, shots: usize) {
    arm_panic(site, skip, shots);
    ABORT.store(true, Ordering::SeqCst);
}

/// Arms the injector from the `CC_FAULT_CRASH` environment variable, in the
/// form `site:skip[:shots]` (shots defaults to 1), e.g. `CC_FAULT_CRASH=6:2`
/// aborts the process at the third hit of [`SITE_LOG_APPEND`].  Child
/// processes spawned by the crash campaign call this at startup; with the
/// variable unset or malformed, nothing is armed.
pub fn arm_from_env() {
    let Ok(spec) = std::env::var("CC_FAULT_CRASH") else {
        return;
    };
    let mut parts = spec.split(':');
    let (Some(Ok(site)), Some(Ok(skip))) = (
        parts.next().map(str::parse::<usize>),
        parts.next().map(str::parse::<usize>),
    ) else {
        return;
    };
    let shots = parts
        .next()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(1);
    arm_abort(site, skip, shots);
}

/// Disarms the injector and returns how many times the armed site was hit.
pub fn disarm() -> usize {
    ARMED.store(false, Ordering::SeqCst);
    HITS.load(Ordering::SeqCst)
}

/// Called from the instrumented sites; panics if the injector is armed for
/// this site and the skip/shot counters say it is this hit's turn.
#[inline]
pub fn maybe_fire(site: usize) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    fire_slow(site);
}

#[cold]
fn fire_slow(site: usize) {
    if SITE.load(Ordering::SeqCst) != site {
        return;
    }
    let hit = HITS.fetch_add(1, Ordering::SeqCst);
    // let the first `skip` hits through untouched
    if SKIP
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |s| s.checked_sub(1))
        .is_ok()
    {
        return;
    }
    if SHOTS
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |s| s.checked_sub(1))
        .is_ok()
    {
        if ABORT.load(Ordering::SeqCst) {
            // kill -9 semantics: no unwinding, no destructors, no flushes
            std::process::abort();
        }
        panic!("injected fault at site {site} (hit {hit})");
    }
}
