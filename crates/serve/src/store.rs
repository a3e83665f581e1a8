//! The daemon's durable state: a crash-safe verdict-and-checkpoint log.
//!
//! Built on [`cccore::wal`]: an append-only, per-record-checksummed log
//! holding three record kinds —
//!
//! | tag | record | payload |
//! |-----|--------|---------|
//! | 1   | verdict     | fingerprint triple, verdict code, costs, detail |
//! | 2   | checkpoint  | resume token, encoded [`crate::registry::ParkedJob`] |
//! | 3   | drop        | resume token (tombstone for a consumed checkpoint) |
//!
//! Payloads are written and read through [`ccchecker::codec`]; one that
//! does not decode is skipped on replay, like a record of an unknown tag.
//!
//! On startup the server replays the log (truncating any torn tail, never
//! erroring), preloads the result cache from the verdict records, and
//! re-registers every checkpoint that has no later tombstone.  The
//! recovered cache is therefore always a **prefix of what was
//! acknowledged**: a verdict record is appended *before* the response frame
//! is written, and replay never trusts bytes past the first corruption.
//!
//! Durability of verdict appends is governed by [`FsyncPolicy`];
//! checkpoint appends always fsync, because the resume token they back is
//! about to be handed to the client as a promise.
//!
//! Compaction rewrites the live state (current cache + parked checkpoints)
//! into a staged next-generation file and swaps it in with an atomic
//! rename — a crash at any point leaves either the old or the new
//! generation, never a mix.  The swap is instrumented with
//! [`ccchecker::fault::SITE_COMPACT_SWAP`]; appends with
//! [`ccchecker::fault::SITE_LOG_APPEND`] (fired *between* the two halves
//! of a record write, so an abort there leaves a genuinely torn record)
//! and [`ccchecker::fault::SITE_LOG_FSYNC`].

use crate::cache::{CacheKey, CachedVerdict};
use ccchecker::codec::{put_u64, put_u8, DecodeError, Reader};
use ccchecker::fault;
use cccore::fingerprint::{verdict_code, verdict_from_code};
use cccore::wal;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Record tag: a definite verdict for a fingerprint triple.
const TAG_VERDICT: u8 = 1;
/// Record tag: a parked job checkpoint keyed by resume token.
const TAG_CHECKPOINT: u8 = 2;
/// Record tag: tombstone for a consumed or evicted checkpoint.
const TAG_CKPT_DROP: u8 = 3;

/// When to fsync verdict appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append (safest, slowest).
    Always,
    /// fsync after every `n` appends.
    EveryN(u32),
    /// fsync when at least this much time passed since the last sync.
    IntervalMs(u64),
    /// Never fsync explicitly (the OS flushes on its own schedule; a
    /// process crash still loses nothing, only power loss can).
    Never,
}

impl FsyncPolicy {
    /// Parses the `--fsync-policy` forms: `always`, `never`, `every=N`,
    /// `interval=MS`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => return Some(FsyncPolicy::Always),
            "never" => return Some(FsyncPolicy::Never),
            _ => {}
        }
        if let Some(n) = s.strip_prefix("every=") {
            return n.parse().ok().filter(|&n| n > 0).map(FsyncPolicy::EveryN);
        }
        if let Some(ms) = s.strip_prefix("interval=") {
            return ms.parse().ok().map(FsyncPolicy::IntervalMs);
        }
        None
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::EveryN(n) => write!(f, "every={n}"),
            FsyncPolicy::IntervalMs(ms) => write!(f, "interval={ms}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// What a log replay reconstructed.
#[derive(Debug, Default)]
pub struct RecoveredState {
    /// Every definite verdict on the clean prefix, in append order.
    pub verdicts: Vec<(CacheKey, CachedVerdict)>,
    /// Parked checkpoints still alive (no later tombstone), token-sorted.
    pub checkpoints: Vec<(u64, Vec<u8>)>,
    /// Bytes discarded as torn or corrupt during replay.
    pub truncated_bytes: u64,
}

/// The open verdict log: append verdicts and checkpoints, replay on open,
/// compact into a fresh generation when the dead-record fraction grows.
pub struct VerdictLog {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    generation: u64,
    appends_since_sync: u32,
    last_sync: Instant,
    /// Records appended since open or the last compaction (live + dead).
    appends_since_compact: u64,
    /// Auto-compaction threshold in appended records (0 disables).
    compact_every: u64,
}

fn encode_verdict_payload(key: &CacheKey, v: &CachedVerdict) -> Vec<u8> {
    let mut p = Vec::new();
    for k in [key.0, key.1, key.2] {
        put_u64(&mut p, k);
    }
    put_u8(&mut p, verdict_code(v.status));
    put_u64(&mut p, v.states_explored as u64);
    put_u64(&mut p, v.transitions_explored as u64);
    p.extend_from_slice(v.detail.as_bytes());
    p
}

fn decode_verdict_payload(p: &[u8]) -> Result<(CacheKey, CachedVerdict), DecodeError> {
    let mut r = Reader::new(p);
    let key = (r.u64()?, r.u64()?, r.u64()?);
    let status =
        verdict_from_code(r.u8()?).ok_or(DecodeError::Malformed("unknown verdict code"))?;
    let states_explored = r.u64()? as usize;
    let transitions_explored = r.u64()? as usize;
    let detail = String::from_utf8(r.rest().to_vec())
        .map_err(|_| DecodeError::Malformed("detail is not UTF-8"))?;
    Ok((
        key,
        CachedVerdict {
            status,
            states_explored,
            transitions_explored,
            detail,
        },
    ))
}

/// A checkpoint or drop record's payload: the resume token, then the
/// parked job (nothing for a drop).
fn token_payload(token: u64, bytes: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + bytes.len());
    put_u64(&mut payload, token);
    payload.extend_from_slice(bytes);
    payload
}

fn recover(replay: &wal::Replay) -> RecoveredState {
    let mut verdicts = Vec::new();
    let mut checkpoints: HashMap<u64, Vec<u8>> = HashMap::new();
    for rec in &replay.records {
        let mut r = Reader::new(&rec.payload);
        match (rec.tag, r.u64()) {
            (TAG_VERDICT, _) => verdicts.extend(decode_verdict_payload(&rec.payload)),
            (TAG_CHECKPOINT, Ok(token)) => {
                checkpoints.insert(token, r.rest().to_vec());
            }
            (TAG_CKPT_DROP, Ok(token)) => {
                checkpoints.remove(&token);
            }
            // a future record kind, or a payload too short for its token
            _ => {}
        }
    }
    let mut checkpoints: Vec<(u64, Vec<u8>)> = checkpoints.into_iter().collect();
    checkpoints.sort_by_key(|(t, _)| *t);
    RecoveredState {
        verdicts,
        checkpoints,
        truncated_bytes: replay.truncated_bytes,
    }
}

impl VerdictLog {
    /// Opens (or creates) the log at `path`, truncating any torn tail, and
    /// returns it together with the recovered state.  Auto-compaction
    /// defaults to every 4096 appended records (`CC_SERVE_COMPACT_EVERY`
    /// overrides; 0 disables).
    pub fn open(path: &Path, policy: FsyncPolicy) -> io::Result<(VerdictLog, RecoveredState)> {
        let (file, replay) = wal::open_log(path, 1)?;
        let recovered = recover(&replay);
        let compact_every = std::env::var("CC_SERVE_COMPACT_EVERY")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(4096);
        Ok((
            VerdictLog {
                file,
                path: path.to_path_buf(),
                policy,
                generation: replay.generation,
                appends_since_sync: 0,
                last_sync: Instant::now(),
                appends_since_compact: 0,
                compact_every,
            },
            recovered,
        ))
    }

    /// The generation of the live file (bumped by each compaction).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Appends one record; an abort injected at `SITE_LOG_APPEND` lands
    /// between the two halves of the write, leaving a genuinely torn record
    /// for recovery to truncate.
    fn append(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        let rec = wal::encode_record(tag, payload);
        let mid = rec.len() / 2;
        self.file.write_all(&rec[..mid])?;
        fault::maybe_fire(fault::SITE_LOG_APPEND);
        self.file.write_all(&rec[mid..])?;
        self.appends_since_compact += 1;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        fault::maybe_fire(fault::SITE_LOG_FSYNC);
        self.file.sync_data()?;
        self.appends_since_sync = 0;
        self.last_sync = Instant::now();
        Ok(())
    }

    fn maybe_sync(&mut self) -> io::Result<()> {
        self.appends_since_sync += 1;
        let due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.appends_since_sync >= n,
            FsyncPolicy::IntervalMs(ms) => self.last_sync.elapsed() >= Duration::from_millis(ms),
            FsyncPolicy::Never => false,
        };
        if due {
            self.sync()?;
        }
        Ok(())
    }

    /// Appends a definite verdict, fsyncing per the configured policy.
    pub fn append_verdict(&mut self, key: &CacheKey, v: &CachedVerdict) -> io::Result<()> {
        self.append(TAG_VERDICT, &encode_verdict_payload(key, v))?;
        self.maybe_sync()
    }

    /// Appends a parked checkpoint.  Always fsyncs: the resume token this
    /// record backs is about to be promised to the client.
    pub fn append_checkpoint(&mut self, token: u64, bytes: &[u8]) -> io::Result<()> {
        self.append(TAG_CHECKPOINT, &token_payload(token, bytes))?;
        self.sync()
    }

    /// Appends a tombstone for a consumed or evicted checkpoint.
    pub fn append_drop(&mut self, token: u64) -> io::Result<()> {
        self.append(TAG_CKPT_DROP, &token_payload(token, &[]))?;
        self.maybe_sync()
    }

    /// Whether enough records accumulated since the last compaction.
    pub fn should_compact(&self) -> bool {
        self.compact_every > 0 && self.appends_since_compact >= self.compact_every
    }

    /// Rewrites the live state into a staged next-generation file and
    /// atomically swaps it over the live path.  A crash before the rename
    /// (see `SITE_COMPACT_SWAP`) leaves the old generation intact.
    pub fn compact(
        &mut self,
        verdicts: &[(CacheKey, CachedVerdict)],
        checkpoints: &[(u64, Vec<u8>)],
    ) -> io::Result<()> {
        let staged_path = self.path.with_file_name(format!(
            "{}.staged",
            self.path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "cache.log".into())
        ));
        let next_gen = self.generation + 1;
        {
            let mut staged = File::create(&staged_path)?;
            staged.write_all(&wal::encode_header(next_gen))?;
            for (key, v) in verdicts {
                staged.write_all(&wal::encode_record(
                    TAG_VERDICT,
                    &encode_verdict_payload(key, v),
                ))?;
            }
            for (token, bytes) in checkpoints {
                staged.write_all(&wal::encode_record(
                    TAG_CHECKPOINT,
                    &token_payload(*token, bytes),
                ))?;
            }
            staged.sync_data()?;
        }
        fault::maybe_fire(fault::SITE_COMPACT_SWAP);
        wal::commit_replace(&staged_path, &self.path)?;
        // the old handle points at the unlinked inode; reopen the new file
        let (file, _) = wal::open_log(&self.path, next_gen)?;
        self.file = file;
        self.generation = next_gen;
        self.appends_since_sync = 0;
        self.appends_since_compact = 0;
        self.last_sync = Instant::now();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccchecker::CheckStatus;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ccstore-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("cache.log")
    }

    fn verdict(detail: &str) -> CachedVerdict {
        CachedVerdict {
            status: CheckStatus::Holds,
            states_explored: 12,
            transitions_explored: 34,
            detail: detail.to_string(),
        }
    }

    #[test]
    fn fsync_policy_parses_all_forms() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("every=8"), Some(FsyncPolicy::EveryN(8)));
        assert_eq!(
            FsyncPolicy::parse("interval=250"),
            Some(FsyncPolicy::IntervalMs(250))
        );
        assert_eq!(FsyncPolicy::parse("every=0"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        for p in ["always", "never", "every=8", "interval=250"] {
            assert_eq!(FsyncPolicy::parse(p).unwrap().to_string(), p);
        }
    }

    #[test]
    fn verdicts_and_checkpoints_survive_reopen_with_tombstones_applied() {
        let path = tmp("reopen");
        let _ = std::fs::remove_file(&path);
        let (mut log, rec) = VerdictLog::open(&path, FsyncPolicy::Always).unwrap();
        assert!(rec.verdicts.is_empty());
        log.append_verdict(&(1, 2, 3), &verdict("first")).unwrap();
        log.append_verdict(&(4, 5, 6), &verdict("second")).unwrap();
        log.append_checkpoint(10, b"parked-a").unwrap();
        log.append_checkpoint(11, b"parked-b").unwrap();
        log.append_drop(10).unwrap();
        drop(log);

        let (log, rec) = VerdictLog::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.verdicts.len(), 2);
        assert_eq!(rec.verdicts[0].0, (1, 2, 3));
        assert_eq!(rec.verdicts[0].1.detail, "first");
        assert_eq!(rec.verdicts[1].1.status, CheckStatus::Holds);
        assert_eq!(
            rec.checkpoints,
            vec![(11, b"parked-b".to_vec())],
            "the dropped checkpoint stays dropped"
        );
        assert_eq!(log.generation(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_torn_offset_of_the_final_record_recovers_the_prefix() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let (mut log, _) = VerdictLog::open(&path, FsyncPolicy::Always).unwrap();
        log.append_verdict(&(1, 1, 1), &verdict("kept-1")).unwrap();
        log.append_verdict(&(2, 2, 2), &verdict("kept-2")).unwrap();
        drop(log);
        let prefix = std::fs::read(&path).unwrap();
        let (mut log, _) = VerdictLog::open(&path, FsyncPolicy::Always).unwrap();
        log.append_verdict(&(3, 3, 3), &verdict("torn-victim"))
            .unwrap();
        drop(log);
        let full = std::fs::read(&path).unwrap();

        for cut in prefix.len()..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (_, rec) = VerdictLog::open(&path, FsyncPolicy::Always).unwrap();
            assert_eq!(rec.verdicts.len(), 2, "cut at {cut}");
            assert_eq!(rec.verdicts[1].1.detail, "kept-2", "cut at {cut}");
            assert_eq!(rec.truncated_bytes, (cut - prefix.len()) as u64);
            // and the open truncated the torn tail in place
            assert_eq!(std::fs::read(&path).unwrap().len(), prefix.len());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_bumps_the_generation_and_sheds_dead_records() {
        let path = tmp("compact");
        let _ = std::fs::remove_file(&path);
        let (mut log, _) = VerdictLog::open(&path, FsyncPolicy::Always).unwrap();
        for i in 0..50u64 {
            log.append_verdict(&(i, i, i), &verdict("bulk")).unwrap();
        }
        log.append_checkpoint(5, b"dead").unwrap();
        log.append_drop(5).unwrap();
        log.append_checkpoint(6, b"alive").unwrap();
        let before = std::fs::metadata(&path).unwrap().len();

        // compact down to two live verdicts and the one live checkpoint
        let live = vec![((1, 1, 1), verdict("bulk")), ((2, 2, 2), verdict("bulk"))];
        let ckpts = vec![(6u64, b"alive".to_vec())];
        log.compact(&live, &ckpts).unwrap();
        assert_eq!(log.generation(), 2);
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(
            after < before,
            "compaction shrank the log ({before} -> {after})"
        );

        // appends after the swap land in the new generation
        log.append_verdict(&(9, 9, 9), &verdict("post-swap"))
            .unwrap();
        drop(log);
        let (log, rec) = VerdictLog::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(log.generation(), 2);
        assert_eq!(rec.verdicts.len(), 3);
        assert_eq!(rec.verdicts[2].1.detail, "post-swap");
        assert_eq!(rec.checkpoints, vec![(6, b"alive".to_vec())]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn auto_compaction_threshold_counts_appends() {
        let path = tmp("threshold");
        let _ = std::fs::remove_file(&path);
        std::env::remove_var("CC_SERVE_COMPACT_EVERY");
        let (mut log, _) = VerdictLog::open(&path, FsyncPolicy::Never).unwrap();
        log.compact_every = 3;
        assert!(!log.should_compact());
        for i in 0..3u64 {
            log.append_verdict(&(i, i, i), &verdict("x")).unwrap();
        }
        assert!(log.should_compact());
        log.compact(&[], &[]).unwrap();
        assert!(!log.should_compact(), "compaction resets the counter");
        std::fs::remove_file(&path).ok();
    }

    /// Decodes a hex string, ignoring whitespace.
    fn unhex(hex: &str) -> Vec<u8> {
        let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    /// A hand-built verdict record payload: key `(1, 2, 0xdeadbeef)`, a
    /// violation that cost 12 states and 34 transitions, detail `"cex"`.
    const GOLDEN_VERDICT_PAYLOAD: &str = "
        0100000000000000 0200000000000000 efbeadde00000000
        2d 0c00000000000000 2200000000000000 636578";

    #[test]
    fn golden_verdict_payload_bytes_are_pinned() {
        let key: CacheKey = (1, 2, 0xdead_beef);
        let v = CachedVerdict {
            status: CheckStatus::Violated,
            states_explored: 12,
            transitions_explored: 34,
            detail: "cex".into(),
        };
        let bytes = unhex(GOLDEN_VERDICT_PAYLOAD);
        assert_eq!(encode_verdict_payload(&key, &v), bytes);
        assert_eq!(decode_verdict_payload(&bytes).unwrap(), (key, v));
        // every truncation and every single-bit flip decodes to a verdict or
        // is skipped, never a panic
        for cut in 0..bytes.len() {
            let _ = decode_verdict_payload(&bytes[..cut]);
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = decode_verdict_payload(&flipped);
        }
    }
}
