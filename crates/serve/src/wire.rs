//! The daemon's length-prefixed binary wire protocol.
//!
//! Frames are `[magic u32][length u32][payload]`, all integers
//! little-endian.  The magic pins the protocol (a client speaking anything
//! else is rejected on its first frame) and the length is bounded by the
//! server's `max_frame_bytes`, so a malicious or broken peer can neither
//! desynchronise the stream nor force an unbounded allocation.  Payloads
//! are encoded with fixed-width integers and `u64`-length-prefixed lists
//! and strings — no self-describing envelope, no external serialisation
//! dependency.  The primitives, the length bounds and the decode error are
//! [`ccchecker::codec`]'s: every length field must fit the rest of the
//! payload at its element's minimum encoded size.
//!
//! Decoding is total: every parse failure maps to a typed [`WireError`],
//! never a panic, so the robustness suite can throw arbitrary bytes at the
//! daemon.

use ccchecker::codec::{
    decode_all, put_list_u64, put_str_u64, put_u32, put_u64, put_u8, DecodeError, Reader,
};
use cccore::fingerprint::verdict_from_code;
use ccprotocols::family::{FamilyParams, FaultModel};
use std::io::{self, Read, Write};

/// Frame magic: `"ccRV"` little-endian.
pub const MAGIC: u32 = 0x5652_6363;

/// Default upper bound on a frame payload.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Request tags.
pub const REQ_CHECK: u8 = 1;
/// Stats snapshot request.
pub const REQ_STATS: u8 = 2;
/// Liveness probe.
pub const REQ_PING: u8 = 3;
/// Continue a parked job from a resume token.
pub const REQ_RESUME: u8 = 4;

/// Response tags.
pub const RESP_VERDICT: u8 = 1;
/// Typed shed: the admission queue was full.
pub const RESP_OVERLOADED: u8 = 2;
/// Typed rejection: the request was understood but not serviceable.
pub const RESP_REJECTED: u8 = 3;
/// Internal error while servicing an admitted request.
pub const RESP_ERROR: u8 = 4;
/// Stats snapshot.
pub const RESP_STATS: u8 = 5;
/// Liveness reply.
pub const RESP_PONG: u8 = 6;
/// Non-terminal streaming progress frame (opt-in per request).
pub const RESP_PROGRESS: u8 = 7;
/// Typed rejection of a resume token (unknown / evicted / expired).
pub const RESP_RESUME_REJECTED: u8 = 8;

/// Errors raised while reading or decoding wire data.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed or closed.
    Io(io::Error),
    /// The frame header did not carry the protocol magic.
    BadMagic(u32),
    /// The frame declared a payload larger than the configured bound.
    Oversized {
        /// Declared payload length.
        declared: usize,
        /// The configured bound.
        max: usize,
    },
    /// The payload bytes did not decode as the expected message.
    Malformed(DecodeError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::Oversized { declared, max } => {
                write!(f, "oversized payload: {declared} bytes (max {max})")
            }
            WireError::Malformed(detail) => write!(f, "malformed payload: {detail}"),
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Malformed(e)
    }
}

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut header = Vec::with_capacity(8);
    put_u32(&mut header, MAGIC);
    put_u32(&mut header, payload.len() as u32);
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame payload, enforcing the magic and the size bound.
///
/// On [`WireError::Oversized`] the declared bytes have *not* been consumed;
/// the caller must treat the stream as unsynchronised and close it.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    let mut h = Reader::new(&header);
    let (magic, len) = (h.u32()?, h.u32()? as usize);
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if len > max {
        return Err(WireError::Oversized { declared: len, max });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// Admission priority band of a check request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Served before everything else.
    High,
    /// The default band.
    Normal,
    /// Served only when the higher bands are empty.
    Low,
}

impl Priority {
    /// Band index (also the wire byte).
    pub fn band(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Decodes the wire byte.
    pub fn from_byte(b: u8) -> Option<Priority> {
        match b {
            0 => Some(Priority::High),
            1 => Some(Priority::Normal),
            2 => Some(Priority::Low),
            _ => None,
        }
    }
}

/// What system a check request asks about.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// A Table II benchmark protocol, by name.
    Protocol(String),
    /// A generated family: parameter point plus instantiation seed.
    Family {
        /// The family parameter point.
        params: FamilyParams,
        /// The instantiation seed.
        seed: u64,
    },
}

/// One verification request.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckRequest {
    /// Client-chosen correlation id, echoed on every terminal response.
    pub id: u64,
    /// Admission priority band.
    pub priority: Priority,
    /// Wall-clock deadline in milliseconds from admission; `0` means no
    /// deadline.  Cells past the deadline degrade to `?` verdicts.
    pub deadline_ms: u64,
    /// The system under check.
    pub source: Source,
    /// Explicit parameter valuations (in environment parameter order).
    /// Empty means the daemon selects small admissible valuations itself.
    pub valuations: Vec<Vec<u64>>,
    /// Obligation-name filter; empty means the full catalogue.
    pub obligations: Vec<String>,
    /// Opt in to non-terminal [`Response::Progress`] frames at wave
    /// boundaries before the terminal response.
    pub progress: bool,
    /// When the deadline trips this request, park the job's checkpoint and
    /// return a [`ResumeToken`] alongside the degraded verdicts.
    pub park_on_interrupt: bool,
}

/// A follow-up request continuing a parked job from its resume token.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeRequest {
    /// Client-chosen correlation id for *this* request (independent of the
    /// parked job's original id).
    pub id: u64,
    /// The token handed out in the degraded response's [`ResumeToken`].
    pub token: u64,
    /// Admission priority band.
    pub priority: Priority,
    /// Fresh wall-clock deadline in milliseconds from admission; `0` means
    /// no deadline.
    pub deadline_ms: u64,
    /// Opt in to non-terminal progress frames.
    pub progress: bool,
    /// Park again if the fresh deadline also trips.
    pub park_on_interrupt: bool,
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a verification job.
    Check(CheckRequest),
    /// Continue a parked job.
    Resume(ResumeRequest),
    /// Snapshot the server counters.
    Stats,
    /// Liveness probe.
    Ping,
}

/// One obligation's verdict within a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecVerdict {
    /// Obligation name.
    pub name: String,
    /// Verdict glyph: `+` holds, `-` violated, `?` unknown/degraded (see
    /// `cccore::fingerprint::verdict_code`).
    pub code: u8,
    /// States explored (0 for cache hits).
    pub states: u64,
    /// Transitions explored (0 for cache hits).
    pub transitions: u64,
    /// Whether the verdict came from the cross-request result cache.
    pub cached: bool,
    /// Detail string (e.g. `"interrupted: deadline exceeded"`).
    pub detail: String,
}

/// All verdicts for one parameter valuation.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// The valuation (environment parameter order).
    pub valuation: Vec<u64>,
    /// Per-obligation verdicts, in catalogue order.
    pub verdicts: Vec<SpecVerdict>,
}

/// A resume token attached to a degraded verdict: presenting it in a
/// [`ResumeRequest`] continues the parked job from its checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeToken {
    /// The opaque token value.
    pub token: u64,
    /// How long the daemon intends to keep the parked checkpoint (LRU
    /// eviction can shorten this; it is a hint, not a lease).
    pub expires_in_ms: u64,
}

/// Why a resume token was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeRejectCause {
    /// The daemon has no record of the token (never issued, or issued by a
    /// previous incarnation whose checkpoint did not survive).
    Unknown,
    /// The token was issued but its checkpoint was evicted from the bounded
    /// registry under pressure.
    Evicted,
    /// The token was issued but outlived its retention window.
    Expired,
}

impl ResumeRejectCause {
    /// The wire byte.
    pub fn byte(self) -> u8 {
        match self {
            ResumeRejectCause::Unknown => 0,
            ResumeRejectCause::Evicted => 1,
            ResumeRejectCause::Expired => 2,
        }
    }

    /// Decodes the wire byte.
    pub fn from_byte(b: u8) -> Option<ResumeRejectCause> {
        match b {
            0 => Some(ResumeRejectCause::Unknown),
            1 => Some(ResumeRejectCause::Evicted),
            2 => Some(ResumeRejectCause::Expired),
            _ => None,
        }
    }
}

impl std::fmt::Display for ResumeRejectCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ResumeRejectCause::Unknown => "unknown token",
            ResumeRejectCause::Evicted => "checkpoint evicted",
            ResumeRejectCause::Expired => "token expired",
        })
    }
}

/// Counter snapshot of a running server.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Requests shed with [`RESP_OVERLOADED`].
    pub shed: u64,
    /// Requests answered with a verdict.
    pub completed: u64,
    /// Admitted requests whose client vanished before the verdict.
    pub orphaned: u64,
    /// Requests answered with [`RESP_REJECTED`].
    pub rejected: u64,
    /// Requests answered with [`RESP_ERROR`].
    pub errors: u64,
    /// Cross-request result-cache hits.
    pub cache_hits: u64,
    /// Cross-request result-cache misses.
    pub cache_misses: u64,
    /// Jobs currently holding a worker slot.
    pub active_jobs: u64,
    /// Requests currently queued.
    pub queue_depth: u64,
    /// Checkpoints parked with a resume token handed out.
    pub parked: u64,
    /// Parked jobs successfully continued from a resume token.
    pub resumed: u64,
    /// Resume requests rejected (unknown, evicted or expired token).
    pub resume_rejected: u64,
    /// Parked checkpoints evicted from the bounded registry.
    pub checkpoints_evicted: u64,
    /// Records recovered from the durable verdict log at startup (0 when
    /// the daemon runs without a log).
    pub log_recovered: u64,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Terminal: the verdict grid for an admitted, completed request.
    Verdict {
        /// Echo of the request id.
        id: u64,
        /// One report per valuation.
        cells: Vec<CellReport>,
        /// Present when the deadline tripped, the request opted into
        /// parking, and the checkpoint was parked: degraded `?` slots can
        /// be continued via [`Request::Resume`].
        resume: Option<ResumeToken>,
    },
    /// Terminal: the admission queue was full; nothing was buffered.
    Overloaded {
        /// Echo of the request id.
        id: u64,
        /// Queue depth observed at the shed decision.
        queue_depth: u64,
        /// Configured queue capacity.
        capacity: u64,
        /// Suggested client back-off: queue depth times the recent mean
        /// service time, divided over the worker slots.  Monotone in the
        /// observed queue depth.
        retry_after_hint_ms: u64,
    },
    /// Terminal: the request cannot be serviced (unknown protocol,
    /// inadmissible valuation, malformed payload, ...).
    Rejected {
        /// Echo of the request id (0 when the id could not be decoded).
        id: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// Terminal: the daemon failed internally while servicing the request.
    Error {
        /// Echo of the request id.
        id: u64,
        /// Failure detail.
        detail: String,
    },
    /// Terminal: the presented resume token cannot be honoured.
    ResumeRejected {
        /// Echo of the resume request id.
        id: u64,
        /// Why the token was rejected.
        cause: ResumeRejectCause,
    },
    /// Non-terminal: streaming progress at a wave boundary, sent only when
    /// the request opted in.  Zero or more of these precede the terminal
    /// response of the same request id.
    Progress {
        /// Echo of the request id.
        id: u64,
        /// Cumulative distinct states explored by the running cell's job.
        states: u64,
        /// Cumulative transitions explored by the running cell's job.
        transitions: u64,
        /// Valuation cells already fully answered.
        cells_done: u64,
    },
    /// Reply to [`Request::Stats`].
    Stats(StatsSnapshot),
    /// Reply to [`Request::Ping`].
    Pong,
}

impl Response {
    /// The echoed request id, if any (terminal responses and progress
    /// frames carry one; stats and pong do not).
    pub fn request_id(&self) -> Option<u64> {
        match self {
            Response::Verdict { id, .. }
            | Response::Overloaded { id, .. }
            | Response::Rejected { id, .. }
            | Response::Error { id, .. }
            | Response::ResumeRejected { id, .. }
            | Response::Progress { id, .. } => Some(*id),
            Response::Stats(_) | Response::Pong => None,
        }
    }

    /// Whether this response terminates a check request (exactly one of
    /// these is sent per admitted-or-shed request on a live connection).
    /// Progress frames carry a request id but are *not* terminal.
    pub fn is_terminal(&self) -> bool {
        match self {
            Response::Verdict { .. }
            | Response::Overloaded { .. }
            | Response::Rejected { .. }
            | Response::Error { .. }
            | Response::ResumeRejected { .. } => true,
            Response::Progress { .. } | Response::Stats(_) | Response::Pong => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Smallest encoded [`SpecVerdict`]: the two string lengths, the code, the
/// two counters and the cached flag.
pub(crate) const VERDICT_MIN_BYTES: usize = 8 + 1 + 8 + 8 + 1 + 8;

/// Smallest encoded [`CellReport`]: its two list lengths.
pub(crate) const CELL_MIN_BYTES: usize = 8 + 8;

/// Appends a `u64`-counted list of `u64`s.
fn put_u64s(buf: &mut Vec<u8>, values: &[u64]) {
    put_list_u64(buf, values, |b, &v| put_u64(b, v));
}

fn put_flags(buf: &mut Vec<u8>, progress: bool, park_on_interrupt: bool) {
    put_u8(buf, (progress as u8) | ((park_on_interrupt as u8) << 1));
}

pub(crate) fn put_verdict(buf: &mut Vec<u8>, v: &SpecVerdict) {
    put_str_u64(buf, &v.name);
    put_u8(buf, v.code);
    put_u64(buf, v.states);
    put_u64(buf, v.transitions);
    put_u8(buf, v.cached as u8);
    put_str_u64(buf, &v.detail);
}

pub(crate) fn put_cell(buf: &mut Vec<u8>, cell: &CellReport) {
    put_u64s(buf, &cell.valuation);
    put_list_u64(buf, &cell.verdicts, put_verdict);
}

fn fault_byte(f: FaultModel) -> u8 {
    match f {
        FaultModel::Byzantine => 0,
        FaultModel::Crash => 1,
        FaultModel::Mixed => 2,
    }
}

fn fault_from_byte(b: u8) -> Option<FaultModel> {
    match b {
        0 => Some(FaultModel::Byzantine),
        1 => Some(FaultModel::Crash),
        2 => Some(FaultModel::Mixed),
        _ => None,
    }
}

/// Encodes a request payload (not including the frame header).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    match req {
        Request::Check(c) => {
            put_u8(&mut buf, REQ_CHECK);
            put_u64(&mut buf, c.id);
            put_u8(&mut buf, c.priority.band() as u8);
            put_u64(&mut buf, c.deadline_ms);
            put_flags(&mut buf, c.progress, c.park_on_interrupt);
            match &c.source {
                Source::Protocol(name) => {
                    put_u8(&mut buf, 1);
                    put_str_u64(&mut buf, name);
                }
                Source::Family { params, seed } => {
                    put_u8(&mut buf, 2);
                    put_u64(&mut buf, params.phases as u64);
                    put_u64(&mut buf, params.width as u64);
                    put_u64(&mut buf, params.fanout as u64);
                    put_u8(&mut buf, params.guard_density);
                    put_u64(&mut buf, params.shared_vars as u64);
                    put_u64(&mut buf, params.coin_vars as u64);
                    put_u8(&mut buf, fault_byte(params.faults));
                    put_u64(&mut buf, params.resilience as u64);
                    put_u64(&mut buf, *seed);
                }
            }
            put_list_u64(&mut buf, &c.valuations, |b, v| put_u64s(b, v));
            put_list_u64(&mut buf, &c.obligations, |b, name| put_str_u64(b, name));
        }
        Request::Resume(r) => {
            put_u8(&mut buf, REQ_RESUME);
            put_u64(&mut buf, r.id);
            put_u64(&mut buf, r.token);
            put_u8(&mut buf, r.priority.band() as u8);
            put_u64(&mut buf, r.deadline_ms);
            put_flags(&mut buf, r.progress, r.park_on_interrupt);
        }
        Request::Stats => put_u8(&mut buf, REQ_STATS),
        Request::Ping => put_u8(&mut buf, REQ_PING),
    }
    buf
}

/// Encodes a response payload (not including the frame header).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    match resp {
        Response::Verdict { id, cells, resume } => {
            put_u8(&mut buf, RESP_VERDICT);
            put_u64(&mut buf, *id);
            put_list_u64(&mut buf, cells, put_cell);
            match resume {
                None => put_u8(&mut buf, 0),
                Some(t) => {
                    put_u8(&mut buf, 1);
                    put_u64(&mut buf, t.token);
                    put_u64(&mut buf, t.expires_in_ms);
                }
            }
        }
        Response::Overloaded {
            id,
            queue_depth,
            capacity,
            retry_after_hint_ms,
        } => {
            put_u8(&mut buf, RESP_OVERLOADED);
            put_u64(&mut buf, *id);
            put_u64(&mut buf, *queue_depth);
            put_u64(&mut buf, *capacity);
            put_u64(&mut buf, *retry_after_hint_ms);
        }
        Response::ResumeRejected { id, cause } => {
            put_u8(&mut buf, RESP_RESUME_REJECTED);
            put_u64(&mut buf, *id);
            put_u8(&mut buf, cause.byte());
        }
        Response::Progress {
            id,
            states,
            transitions,
            cells_done,
        } => {
            put_u8(&mut buf, RESP_PROGRESS);
            put_u64(&mut buf, *id);
            put_u64(&mut buf, *states);
            put_u64(&mut buf, *transitions);
            put_u64(&mut buf, *cells_done);
        }
        Response::Rejected { id, reason } => {
            put_u8(&mut buf, RESP_REJECTED);
            put_u64(&mut buf, *id);
            put_str_u64(&mut buf, reason);
        }
        Response::Error { id, detail } => {
            put_u8(&mut buf, RESP_ERROR);
            put_u64(&mut buf, *id);
            put_str_u64(&mut buf, detail);
        }
        Response::Stats(s) => {
            put_u8(&mut buf, RESP_STATS);
            for v in [
                s.admitted,
                s.shed,
                s.completed,
                s.orphaned,
                s.rejected,
                s.errors,
                s.cache_hits,
                s.cache_misses,
                s.active_jobs,
                s.queue_depth,
                s.parked,
                s.resumed,
                s.resume_rejected,
                s.checkpoints_evicted,
                s.log_recovered,
            ] {
                put_u64(&mut buf, v);
            }
        }
        Response::Pong => put_u8(&mut buf, RESP_PONG),
    }
    buf
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Reads a `u64`-counted list of `u64`s.
fn read_u64s(r: &mut Reader<'_>) -> Result<Vec<u64>, DecodeError> {
    r.list_u64(8, Reader::u64)
}

/// Reads the two request flag bits: `(progress, park_on_interrupt)`.
fn read_flags(r: &mut Reader<'_>) -> Result<(bool, bool), DecodeError> {
    match r.u8()? {
        flags @ 0..=3 => Ok((flags & 1 != 0, flags & 2 != 0)),
        _ => Err(DecodeError::Malformed("unknown request flags")),
    }
}

fn read_priority(r: &mut Reader<'_>) -> Result<Priority, DecodeError> {
    Priority::from_byte(r.u8()?).ok_or(DecodeError::Malformed("unknown priority band"))
}

pub(crate) fn read_verdict(r: &mut Reader<'_>) -> Result<SpecVerdict, DecodeError> {
    Ok(SpecVerdict {
        name: r.str_u64()?,
        code: match r.u8()? {
            code if verdict_from_code(code).is_some() => code,
            _ => return Err(DecodeError::Malformed("unknown verdict code")),
        },
        states: r.u64()?,
        transitions: r.u64()?,
        cached: r.u8()? != 0,
        detail: r.str_u64()?,
    })
}

pub(crate) fn read_cell(r: &mut Reader<'_>) -> Result<CellReport, DecodeError> {
    Ok(CellReport {
        valuation: read_u64s(r)?,
        verdicts: r.list_u64(VERDICT_MIN_BYTES, read_verdict)?,
    })
}

/// Reads one request; [`decode_request`] also rejects trailing bytes.
pub(crate) fn read_request(r: &mut Reader<'_>) -> Result<Request, DecodeError> {
    Ok(match r.u8()? {
        REQ_CHECK => {
            let id = r.u64()?;
            let priority = read_priority(r)?;
            let deadline_ms = r.u64()?;
            let (progress, park_on_interrupt) = read_flags(r)?;
            let source = match r.u8()? {
                1 => Source::Protocol(r.str_u64()?),
                2 => Source::Family {
                    params: FamilyParams {
                        phases: r.u64()? as usize,
                        width: r.u64()? as usize,
                        fanout: r.u64()? as usize,
                        guard_density: r.u8()?,
                        shared_vars: r.u64()? as usize,
                        coin_vars: r.u64()? as usize,
                        faults: fault_from_byte(r.u8()?)
                            .ok_or(DecodeError::Malformed("unknown fault model"))?,
                        resilience: r.u64()? as i64,
                    },
                    seed: r.u64()?,
                },
                _ => return Err(DecodeError::Malformed("unknown source tag")),
            };
            Request::Check(CheckRequest {
                id,
                priority,
                deadline_ms,
                source,
                valuations: r.list_u64(8, read_u64s)?,
                obligations: r.list_u64(8, Reader::str_u64)?,
                progress,
                park_on_interrupt,
            })
        }
        REQ_RESUME => {
            let id = r.u64()?;
            let token = r.u64()?;
            let priority = read_priority(r)?;
            let deadline_ms = r.u64()?;
            let (progress, park_on_interrupt) = read_flags(r)?;
            Request::Resume(ResumeRequest {
                id,
                token,
                priority,
                deadline_ms,
                progress,
                park_on_interrupt,
            })
        }
        REQ_STATS => Request::Stats,
        REQ_PING => Request::Ping,
        _ => return Err(DecodeError::Malformed("unknown request tag")),
    })
}

/// Decodes a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    Ok(decode_all(payload, read_request)?)
}

fn read_response(r: &mut Reader<'_>) -> Result<Response, DecodeError> {
    Ok(match r.u8()? {
        RESP_VERDICT => {
            let id = r.u64()?;
            let cells = r.list_u64(CELL_MIN_BYTES, read_cell)?;
            let resume = match r.u8()? {
                0 => None,
                1 => Some(ResumeToken {
                    token: r.u64()?,
                    expires_in_ms: r.u64()?,
                }),
                _ => return Err(DecodeError::Malformed("bad resume presence byte")),
            };
            Response::Verdict { id, cells, resume }
        }
        RESP_OVERLOADED => Response::Overloaded {
            id: r.u64()?,
            queue_depth: r.u64()?,
            capacity: r.u64()?,
            retry_after_hint_ms: r.u64()?,
        },
        RESP_RESUME_REJECTED => Response::ResumeRejected {
            id: r.u64()?,
            cause: ResumeRejectCause::from_byte(r.u8()?)
                .ok_or(DecodeError::Malformed("unknown resume-reject cause"))?,
        },
        RESP_PROGRESS => Response::Progress {
            id: r.u64()?,
            states: r.u64()?,
            transitions: r.u64()?,
            cells_done: r.u64()?,
        },
        RESP_REJECTED => Response::Rejected {
            id: r.u64()?,
            reason: r.str_u64()?,
        },
        RESP_ERROR => Response::Error {
            id: r.u64()?,
            detail: r.str_u64()?,
        },
        RESP_STATS => Response::Stats(StatsSnapshot {
            admitted: r.u64()?,
            shed: r.u64()?,
            completed: r.u64()?,
            orphaned: r.u64()?,
            rejected: r.u64()?,
            errors: r.u64()?,
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
            active_jobs: r.u64()?,
            queue_depth: r.u64()?,
            parked: r.u64()?,
            resumed: r.u64()?,
            resume_rejected: r.u64()?,
            checkpoints_evicted: r.u64()?,
            log_recovered: r.u64()?,
        }),
        RESP_PONG => Response::Pong,
        _ => return Err(DecodeError::Malformed("unknown response tag")),
    })
}

/// Decodes a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    Ok(decode_all(payload, read_response)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_check() -> Request {
        Request::Check(CheckRequest {
            id: 42,
            priority: Priority::High,
            deadline_ms: 250,
            source: Source::Family {
                params: FamilyParams::default(),
                seed: 7,
            },
            valuations: vec![vec![4, 1, 1], vec![5, 1, 1]],
            obligations: vec!["Inv1(0)".into()],
            progress: true,
            park_on_interrupt: true,
        })
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            sample_check(),
            Request::Check(CheckRequest {
                id: 1,
                priority: Priority::Low,
                deadline_ms: 0,
                source: Source::Protocol("MMR14".into()),
                valuations: vec![],
                obligations: vec![],
                progress: false,
                park_on_interrupt: false,
            }),
            Request::Resume(ResumeRequest {
                id: 2,
                token: 0xdead_beef,
                priority: Priority::Normal,
                deadline_ms: 500,
                progress: true,
                park_on_interrupt: false,
            }),
            Request::Stats,
            Request::Ping,
        ] {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let verdict = Response::Verdict {
            id: 9,
            cells: vec![CellReport {
                valuation: vec![4, 1, 1],
                verdicts: vec![SpecVerdict {
                    name: "Inv1(0)".into(),
                    code: b'+',
                    states: 120,
                    transitions: 456,
                    cached: true,
                    detail: String::new(),
                }],
            }],
            resume: None,
        };
        let parked = Response::Verdict {
            id: 10,
            cells: vec![],
            resume: Some(ResumeToken {
                token: 77,
                expires_in_ms: 60_000,
            }),
        };
        for resp in [
            verdict,
            parked,
            Response::Overloaded {
                id: 3,
                queue_depth: 64,
                capacity: 64,
                retry_after_hint_ms: 120,
            },
            Response::Rejected {
                id: 4,
                reason: "unknown protocol".into(),
            },
            Response::Error {
                id: 5,
                detail: "worker panicked".into(),
            },
            Response::ResumeRejected {
                id: 6,
                cause: ResumeRejectCause::Evicted,
            },
            Response::Progress {
                id: 7,
                states: 1000,
                transitions: 4000,
                cells_done: 1,
            },
            Response::Stats(StatsSnapshot {
                admitted: 10,
                shed: 2,
                parked: 3,
                log_recovered: 17,
                ..StatsSnapshot::default()
            }),
            Response::Pong,
        ] {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn frames_round_trip_and_enforce_bounds() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"hello");

        // bad magic
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut &bad[..], 64),
            Err(WireError::BadMagic(_))
        ));

        // oversized declaration
        assert!(matches!(
            read_frame(&mut &buf[..], 3),
            Err(WireError::Oversized {
                declared: 5,
                max: 3
            })
        ));

        // truncated payload
        let cut = &buf[..buf.len() - 2];
        assert!(matches!(
            read_frame(&mut &cut[..], 64),
            Err(WireError::Io(_))
        ));
    }

    #[test]
    fn malformed_payloads_are_typed_errors_not_panics() {
        // every truncation of a valid request decodes to Malformed/err, not
        // a panic, and never over-allocates
        let bytes = encode_request(&sample_check());
        for cut in 0..bytes.len() {
            assert!(decode_request(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // trailing garbage is rejected too
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_request(&extended).is_err());
        // a length field claiming more elements than the payload could hold
        let mut huge = vec![REQ_CHECK];
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_request(&huge).is_err());
    }

    #[test]
    fn terminal_taxonomy() {
        assert!(Response::Overloaded {
            id: 1,
            queue_depth: 0,
            capacity: 0,
            retry_after_hint_ms: 0
        }
        .is_terminal());
        assert!(Response::ResumeRejected {
            id: 2,
            cause: ResumeRejectCause::Unknown
        }
        .is_terminal());
        // progress frames are interim: the client must keep reading
        assert!(!Response::Progress {
            id: 3,
            states: 0,
            transitions: 0,
            cells_done: 0
        }
        .is_terminal());
        assert_eq!(
            Response::Progress {
                id: 3,
                states: 0,
                transitions: 0,
                cells_done: 0
            }
            .request_id(),
            Some(3)
        );
        assert!(!Response::Pong.is_terminal());
        assert_eq!(Response::Stats(StatsSnapshot::default()).request_id(), None);
    }

    /// Decodes a hex string, ignoring whitespace.
    fn unhex(hex: &str) -> Vec<u8> {
        let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    fn golden_request() -> Request {
        Request::Check(CheckRequest {
            id: 42,
            priority: Priority::Low,
            deadline_ms: 250,
            source: Source::Family {
                params: FamilyParams {
                    phases: 2,
                    width: 3,
                    fanout: 1,
                    guard_density: 60,
                    shared_vars: 2,
                    coin_vars: 1,
                    faults: FaultModel::Crash,
                    resilience: 3,
                },
                seed: 7,
            },
            valuations: vec![vec![4, 1, 1], vec![7, 2, 1]],
            obligations: vec!["Inv1(0)".into(), "CB0".into()],
            progress: true,
            park_on_interrupt: false,
        })
    }

    fn golden_response() -> Response {
        Response::Verdict {
            id: 9,
            cells: vec![CellReport {
                valuation: vec![4, 1, 1, 1],
                verdicts: vec![
                    SpecVerdict {
                        name: "Agreement".into(),
                        code: b'+',
                        states: 120,
                        transitions: 456,
                        cached: false,
                        detail: String::new(),
                    },
                    SpecVerdict {
                        name: "CB0".into(),
                        code: b'?',
                        states: 0,
                        transitions: 0,
                        cached: true,
                        detail: "interrupted".into(),
                    },
                ],
            }],
            resume: Some(ResumeToken {
                token: 77,
                expires_in_ms: 60_000,
            }),
        }
    }

    /// [`golden_request`] as a payload.
    const GOLDEN_REQUEST: &str = "
        01 2a00000000000000 02 fa00000000000000 01
        02 0200000000000000 0300000000000000 0100000000000000 3c
           0200000000000000 0100000000000000 01 0300000000000000
           0700000000000000
        0200000000000000
           0300000000000000 0400000000000000 0100000000000000 0100000000000000
           0300000000000000 0700000000000000 0200000000000000 0100000000000000
        0200000000000000
           0700000000000000 496e7631283029
           0300000000000000 434230";

    /// [`golden_response`] as a payload.
    const GOLDEN_RESPONSE: &str = "
        01 0900000000000000
        0100000000000000
           0400000000000000 0400000000000000 0100000000000000 0100000000000000
                            0100000000000000
           0200000000000000
              0900000000000000 41677265656d656e74 2b
              7800000000000000 c801000000000000 00 0000000000000000
              0300000000000000 434230 3f
              0000000000000000 0000000000000000 01
              0b00000000000000 696e746572727570746564
        01 4d00000000000000 60ea000000000000";

    #[test]
    fn golden_request_bytes_are_pinned() {
        let bytes = unhex(GOLDEN_REQUEST);
        assert_eq!(encode_request(&golden_request()), bytes);
        assert_eq!(decode_request(&bytes).unwrap(), golden_request());
        // every truncation and every single-bit flip decodes to a request
        // or a typed error, never a panic
        for cut in 0..bytes.len() {
            assert!(decode_request(&bytes[..cut]).is_err());
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = decode_request(&flipped);
        }
    }

    #[test]
    fn golden_response_bytes_are_pinned() {
        let bytes = unhex(GOLDEN_RESPONSE);
        assert_eq!(encode_response(&golden_response()), bytes);
        assert_eq!(decode_response(&bytes).unwrap(), golden_response());
        for cut in 0..bytes.len() {
            assert!(decode_response(&bytes[..cut]).is_err());
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = decode_response(&flipped);
        }
        // a verdict code no verdict has is refused: bit 0 turns `+` into `*`
        let code = bytes.windows(10).position(|w| w == b"Agreement+").unwrap() + 9;
        let mut flipped = bytes.clone();
        flipped[code] ^= 1;
        assert!(matches!(
            decode_response(&flipped),
            Err(WireError::Malformed(DecodeError::Malformed(
                "unknown verdict code"
            )))
        ));
        // the frame header pins the magic and the payload length
        let mut frame = Vec::new();
        write_frame(&mut frame, &bytes).unwrap();
        assert_eq!(frame[..8], unhex("63635256 ad000000"));
    }
}
