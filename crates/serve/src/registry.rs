//! Parked-job registry: a bounded LRU of resumable requests.
//!
//! When a deadline trips a job whose request set `park_on_interrupt`, the
//! server parks the request, not the job: a [`ParkedJob`] is the original
//! request, the index of the tripped cell, the cells already reported and
//! the tripped cell's answered verdicts (its cache hits and the outcomes
//! the job completed before the trip), parked here under a fresh resume
//! token.  A follow-up [`crate::wire::ResumeRequest`] takes the entry back
//! out; the server replays the answered verdicts verbatim and checks only
//! the rest of the cell.
//!
//! The registry is bounded two ways: by **slots** (LRU eviction, oldest
//! parked job first) and by **time** (a TTL per entry, checked lazily).
//! Both failure modes are *typed*: a resume for an evicted token is
//! rejected `Evicted` (the registry remembers recently evicted tokens), an
//! outlived one `Expired`, and anything else `Unknown` — the client can
//! always distinguish "retry from scratch" from "you waited too long".
//!
//! Entries are stored as encoded bytes, the form the verdict log persists.
//! The encoding is the wire's request, cell and verdict layouts, with
//! [`ccchecker::codec`]'s primitives and length bounds, so a parked job
//! holds only what the wire reports and nothing of the checker's state.

use crate::wire::{
    encode_request, put_cell, put_verdict, read_cell, read_request, read_verdict, CellReport,
    CheckRequest, Request, ResumeRejectCause, SpecVerdict, CELL_MIN_BYTES, VERDICT_MIN_BYTES,
};
use ccchecker::codec::{decode_all, put_list_u64, put_u64, put_u8, DecodeError};
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const PARKED_VERSION: u8 = 2;
/// Recently evicted tokens remembered for typed `Evicted` rejections.
const EVICTED_MEMORY: usize = 64;

/// One parked request, sufficient to rebuild the model, re-filter the
/// obligations and continue the tripped cell with the verdicts it already
/// answered.
pub(crate) struct ParkedJob {
    /// The original check request (resolution is deterministic, so the
    /// model, specs and valuations are rebuilt from it on resume).
    pub req: CheckRequest,
    /// Index of the valuation cell the deadline tripped in.
    pub cell_index: usize,
    /// Cells fully reported before the trip, kept verbatim.
    pub cells_done: Vec<CellReport>,
    /// The tripped cell's answered verdict slots (indices into the
    /// filtered catalogue), captured verbatim: its cache hits and the
    /// outcomes the job completed before the trip.  Resume replays them
    /// and checks every other slot; it never re-consults the cache for
    /// this cell, so the reported verdicts cannot shift.
    pub answered: Vec<(usize, SpecVerdict)>,
}

impl ParkedJob {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u8(&mut buf, PARKED_VERSION);
        let req = encode_request(&Request::Check(self.req.clone()));
        put_u64(&mut buf, req.len() as u64);
        buf.extend_from_slice(&req);
        put_u64(&mut buf, self.cell_index as u64);
        put_list_u64(&mut buf, &self.cells_done, put_cell);
        put_list_u64(&mut buf, &self.answered, |b, (slot, v)| {
            put_u64(b, *slot as u64);
            put_verdict(b, v);
        });
        buf
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<ParkedJob, DecodeError> {
        decode_all(bytes, |r| {
            if r.u8()? != PARKED_VERSION {
                return Err(DecodeError::Malformed("unknown parked-job version"));
            }
            let req_len = r.len_u64(1)?;
            let Request::Check(req) = decode_all(r.bytes(req_len)?, read_request)? else {
                return Err(DecodeError::Malformed(
                    "parked job does not embed a check request",
                ));
            };
            let cell_index = r.u64()? as usize;
            let cells_done = r.list_u64(CELL_MIN_BYTES, read_cell)?;
            let answered = r.list_u64(8 + VERDICT_MIN_BYTES, |r| {
                Ok((r.u64()? as usize, read_verdict(r)?))
            })?;
            Ok(ParkedJob {
                req,
                cell_index,
                cells_done,
                answered,
            })
        })
    }
}

struct Entry {
    bytes: Vec<u8>,
    expires_at: Instant,
}

struct Inner {
    entries: HashMap<u64, Entry>,
    /// Park order, oldest first (entries are taken exactly once, so park
    /// order *is* LRU order).
    order: VecDeque<u64>,
    /// Ring of recently evicted tokens, for typed rejections.
    evicted: VecDeque<u64>,
    next_token: u64,
}

/// A bounded, thread-safe registry of parked jobs keyed by resume token.
pub(crate) struct CheckpointRegistry {
    inner: Mutex<Inner>,
    capacity: usize,
    ttl: Duration,
}

impl CheckpointRegistry {
    /// A registry holding at most `capacity` parked jobs, each for at most
    /// `ttl` (0 slots disables parking entirely).
    pub(crate) fn new(capacity: usize, ttl: Duration) -> Self {
        CheckpointRegistry {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                order: VecDeque::new(),
                evicted: VecDeque::new(),
                next_token: 1,
            }),
            capacity,
            ttl,
        }
    }

    /// The per-entry time-to-live in milliseconds (for `ResumeToken`).
    pub(crate) fn ttl_ms(&self) -> u64 {
        self.ttl.as_millis().min(u64::MAX as u128) as u64
    }

    /// Parks encoded job state, returning the fresh token and any tokens
    /// evicted to make room.  `None` if parking is disabled or the token
    /// counter is exhausted.
    pub(crate) fn park(&self, bytes: Vec<u8>) -> Option<(u64, Vec<u64>)> {
        if self.capacity == 0 {
            return None;
        }
        let now = Instant::now();
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if inner.next_token == u64::MAX {
            return None;
        }
        // drop outlived entries first so they never displace live ones
        // (their tokens reject as Expired, not Evicted)
        let expired: Vec<u64> = inner
            .entries
            .iter()
            .filter(|(_, e)| e.expires_at <= now)
            .map(|(t, _)| *t)
            .collect();
        for t in expired {
            inner.entries.remove(&t);
            inner.order.retain(|&o| o != t);
        }
        let mut evicted = Vec::new();
        while inner.entries.len() >= self.capacity {
            let Some(victim) = inner.order.pop_front() else {
                break;
            };
            if inner.entries.remove(&victim).is_some() {
                evicted.push(victim);
                inner.evicted.push_back(victim);
                while inner.evicted.len() > EVICTED_MEMORY {
                    inner.evicted.pop_front();
                }
            }
        }
        let token = inner.next_token;
        inner.next_token += 1;
        inner.entries.insert(
            token,
            Entry {
                bytes,
                expires_at: now + self.ttl,
            },
        );
        inner.order.push_back(token);
        Some((token, evicted))
    }

    /// Takes a parked job out of the registry.  Every failure is typed:
    /// `Evicted` for tokens displaced by LRU pressure, `Expired` for
    /// outlived ones, `Unknown` otherwise.
    pub(crate) fn take(&self, token: u64) -> Result<Vec<u8>, ResumeRejectCause> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        match inner.entries.remove(&token) {
            Some(e) => {
                inner.order.retain(|&o| o != token);
                if e.expires_at <= Instant::now() {
                    return Err(ResumeRejectCause::Expired);
                }
                Ok(e.bytes)
            }
            None if inner.evicted.contains(&token) => Err(ResumeRejectCause::Evicted),
            None => Err(ResumeRejectCause::Unknown),
        }
    }

    /// Re-registers a parked job recovered from the verdict log at startup,
    /// with a fresh TTL.  Keeps token allocation collision-free across
    /// restarts by bumping the counter past every recovered token; a token
    /// the counter cannot move past (`u64::MAX`, never handed out) is
    /// skipped.
    pub(crate) fn recover(&self, token: u64, bytes: Vec<u8>) {
        let Some(next) = token.checked_add(1) else {
            return;
        };
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.next_token = inner.next_token.max(next);
        if inner.entries.len() >= self.capacity || inner.entries.contains_key(&token) {
            return;
        }
        inner.entries.insert(
            token,
            Entry {
                bytes,
                expires_at: Instant::now() + self.ttl,
            },
        );
        inner.order.push_back(token);
    }

    /// The live parked set (token, encoded bytes), token-sorted — the
    /// checkpoint half of a log compaction snapshot.
    pub(crate) fn snapshot(&self) -> Vec<(u64, Vec<u8>)> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let now = Instant::now();
        let mut out: Vec<(u64, Vec<u8>)> = inner
            .entries
            .iter()
            .filter(|(_, e)| e.expires_at > now)
            .map(|(t, e)| (*t, e.bytes.clone()))
            .collect();
        out.sort_by_key(|(t, _)| *t);
        out
    }

    /// Parked entries currently resident.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entries
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Priority, Source};
    use ccprotocols::family::FamilyParams;

    fn sample_req() -> CheckRequest {
        CheckRequest {
            id: 7,
            priority: Priority::Normal,
            deadline_ms: 40,
            source: Source::Family {
                params: FamilyParams::default(),
                seed: 3,
            },
            valuations: vec![vec![4, 1, 1]],
            obligations: vec!["Inv1(0)".into()],
            progress: false,
            park_on_interrupt: true,
        }
    }

    #[test]
    fn parked_job_round_trips() {
        let verdict = |name: &str, code, cached| SpecVerdict {
            name: name.into(),
            code,
            states: 5,
            transitions: 9,
            cached,
            detail: String::new(),
        };
        let job = ParkedJob {
            req: sample_req(),
            cell_index: 2,
            cells_done: vec![CellReport {
                valuation: vec![4, 1, 1],
                verdicts: vec![verdict("Inv1(0)", b'+', true)],
            }],
            answered: vec![
                (
                    1,
                    SpecVerdict {
                        detail: "cex".into(),
                        ..verdict("Inv2(0)", b'-', true)
                    },
                ),
                (3, verdict("CB0", b'+', false)),
            ],
        };
        let decoded = ParkedJob::decode(&job.encode()).unwrap();
        assert_eq!(decoded.req, job.req);
        assert_eq!(decoded.cell_index, 2);
        assert_eq!(decoded.cells_done, job.cells_done);
        assert_eq!(decoded.answered, job.answered);
        // every truncation is a typed error, never a panic
        let bytes = job.encode();
        for cut in 0..bytes.len() {
            assert!(ParkedJob::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn lru_eviction_is_oldest_first_and_typed() {
        let reg = CheckpointRegistry::new(2, Duration::from_secs(60));
        let (t1, ev) = reg.park(vec![1; 10]).unwrap();
        assert!(ev.is_empty());
        let (t2, ev) = reg.park(vec![2; 10]).unwrap();
        assert!(ev.is_empty());
        let (t3, ev) = reg.park(vec![3; 10]).unwrap();
        assert_eq!(ev, vec![t1], "oldest parked job is evicted first");
        assert_eq!(reg.take(t1).unwrap_err(), ResumeRejectCause::Evicted);
        assert_eq!(reg.take(t2).unwrap(), vec![2; 10]);
        assert_eq!(reg.take(t3).unwrap(), vec![3; 10]);
        // a token that never existed is Unknown, not Evicted
        assert_eq!(reg.take(999).unwrap_err(), ResumeRejectCause::Unknown);
        // a taken token does not linger
        assert_eq!(reg.take(t2).unwrap_err(), ResumeRejectCause::Unknown);
    }

    #[test]
    fn expired_entries_reject_typed() {
        let reg = CheckpointRegistry::new(4, Duration::ZERO);
        let (t, _) = reg.park(vec![1, 2, 3]).unwrap();
        assert_eq!(reg.take(t).unwrap_err(), ResumeRejectCause::Expired);
        assert_eq!(reg.len(), 0, "the expired entry is gone");
        // an outlived entry is dropped by the next park, not kept beside it
        reg.park(vec![4]).unwrap();
        reg.park(vec![5]).unwrap();
        assert_eq!(reg.len(), 1);
        assert!(
            reg.snapshot().is_empty(),
            "no outlived entry is snapshotted"
        );
    }

    #[test]
    fn eviction_releases_entries() {
        let reg = CheckpointRegistry::new(1, Duration::from_secs(60));
        for i in 0..32 {
            reg.park(vec![i as u8; 1000]).unwrap();
            assert_eq!(reg.len(), 1, "never more entries than slots");
        }
        let (t, _) = reg.park(vec![0; 500]).unwrap();
        reg.take(t).unwrap();
        // take() drained the newest; the previous one was evicted by its park
        assert_eq!(reg.len(), 0, "no entry left after eviction + take");
    }

    #[test]
    fn recover_bumps_token_allocation_past_recovered_tokens() {
        let reg = CheckpointRegistry::new(4, Duration::from_secs(60));
        reg.recover(17, vec![1]);
        assert_eq!(reg.take(17).unwrap(), vec![1]);
        let (t, _) = reg.park(vec![2]).unwrap();
        assert!(t > 17, "fresh tokens never collide with recovered ones");
    }

    #[test]
    fn recovered_tokens_at_the_top_of_the_range_never_overflow() {
        let reg = CheckpointRegistry::new(8, Duration::from_secs(60));
        // no token can follow u64::MAX, so recovery skips it; after
        // u64::MAX - 1 the counter is exhausted and parking is refused
        reg.recover(u64::MAX, vec![1]);
        reg.recover(u64::MAX - 1, vec![2]);
        assert_eq!(reg.len(), 1);
        assert!(reg.park(vec![3]).is_none());
        assert!(reg.park(vec![4]).is_none());
        assert_eq!(reg.take(u64::MAX).unwrap_err(), ResumeRejectCause::Unknown);
        assert_eq!(reg.take(u64::MAX - 1).unwrap(), vec![2]);

        // one token left: it is handed out once, then parking is refused
        let reg = CheckpointRegistry::new(8, Duration::from_secs(60));
        reg.recover(u64::MAX - 2, vec![1]);
        let (t, _) = reg.park(vec![2]).unwrap();
        assert_eq!(t, u64::MAX - 1);
        assert!(reg.park(vec![3]).is_none());
        assert_eq!(reg.take(u64::MAX - 2).unwrap(), vec![1]);
        assert_eq!(reg.take(t).unwrap(), vec![2]);
    }

    #[test]
    fn zero_capacity_disables_parking() {
        let reg = CheckpointRegistry::new(0, Duration::from_secs(60));
        assert!(reg.park(vec![1]).is_none());
        reg.recover(3, vec![1]);
        assert_eq!(reg.len(), 0);
    }

    /// Decodes a hex string, ignoring whitespace.
    fn unhex(hex: &str) -> Vec<u8> {
        let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    /// A hand-built parked job, tripped in its second cell: slot 1 holds
    /// an outcome the job completed, slot 2 a cache hit, and slot 0 is owed.
    fn golden_parked_job() -> ParkedJob {
        ParkedJob {
            req: CheckRequest {
                id: 5,
                priority: Priority::High,
                deadline_ms: 40,
                source: Source::Protocol("MMR14".into()),
                valuations: vec![],
                obligations: vec![],
                progress: false,
                park_on_interrupt: true,
            },
            cell_index: 1,
            cells_done: vec![CellReport {
                valuation: vec![4, 1, 1, 1],
                verdicts: vec![SpecVerdict {
                    name: "Inv1(0)".into(),
                    code: b'+',
                    states: 11,
                    transitions: 22,
                    cached: true,
                    detail: String::new(),
                }],
            }],
            answered: vec![
                (
                    1,
                    SpecVerdict {
                        name: "Inv1(1)".into(),
                        code: b'+',
                        states: 1,
                        transitions: 2,
                        cached: false,
                        detail: String::new(),
                    },
                ),
                (
                    2,
                    SpecVerdict {
                        name: "CB0".into(),
                        code: b'-',
                        states: 5,
                        transitions: 9,
                        cached: true,
                        detail: String::new(),
                    },
                ),
            ],
        }
    }

    /// [`golden_parked_job`] in the version-2 parked-job encoding: the
    /// version byte, the embedded check request, the cell index, the
    /// reported cells and the answered `(slot, verdict)` pairs.
    const GOLDEN_PARKED_JOB: &str = "
        02
        3100000000000000
           01 0500000000000000 00 2800000000000000 02
           01 0500000000000000 4d4d523134
           0000000000000000 0000000000000000
        0100000000000000
        0100000000000000
           0400000000000000 0400000000000000 0100000000000000 0100000000000000
                            0100000000000000
           0100000000000000
              0700000000000000 496e7631283029 2b
              0b00000000000000 1600000000000000 01 0000000000000000
        0200000000000000
           0100000000000000
           0700000000000000 496e7631283129 2b
           0100000000000000 0200000000000000 00 0000000000000000
           0200000000000000
           0300000000000000 434230 2d
           0500000000000000 0900000000000000 01 0000000000000000";

    #[test]
    fn golden_parked_job_bytes_are_pinned() {
        let job = golden_parked_job();
        let bytes = unhex(GOLDEN_PARKED_JOB);
        assert_eq!(job.encode(), bytes);
        let decoded = ParkedJob::decode(&bytes).unwrap();
        assert_eq!(decoded.req, job.req);
        assert_eq!(decoded.cell_index, job.cell_index);
        assert_eq!(decoded.cells_done, job.cells_done);
        assert_eq!(decoded.answered, job.answered);
        // a record of another version is refused, not misread
        let mut v1 = bytes.clone();
        v1[0] = 1;
        assert!(matches!(
            ParkedJob::decode(&v1),
            Err(DecodeError::Malformed("unknown parked-job version"))
        ));
        // every truncation and every single-bit flip decodes to a parked
        // job or a typed error, never a panic
        for cut in 0..bytes.len() {
            assert!(ParkedJob::decode(&bytes[..cut]).is_err());
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = ParkedJob::decode(&flipped);
        }
        // a verdict code no verdict has is refused, in a reported cell and
        // in an answered slot: bit 0 turns `+` into `*`
        for name in [&b"Inv1(0)+"[..], &b"Inv1(1)+"[..]] {
            let code = bytes.windows(8).position(|w| w == name).unwrap() + 7;
            let mut flipped = bytes.clone();
            flipped[code] ^= 1;
            assert!(matches!(
                ParkedJob::decode(&flipped),
                Err(DecodeError::Malformed("unknown verdict code"))
            ));
        }
    }
}
