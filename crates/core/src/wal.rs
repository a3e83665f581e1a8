//! Crash-safe append-only record logs.
//!
//! The daemon's durable state (the cross-request verdict cache and parked
//! job checkpoints, see `ccserve::store`) survives process death through an
//! append-only log built from the primitives here.  The design target is
//! *kill -9 at any byte*: a reader must never trust bytes past the first
//! corruption, never error out on a torn tail, and never serve a record
//! whose checksum does not match.
//!
//! # On-disk layout
//!
//! ```text
//! [file header: magic u32 | version u32 | generation u64]
//! [record]*
//! record := [len u32][checksum u64][tag u8][payload: len-1 bytes]
//! ```
//!
//! All integers little-endian, written and read through
//! [`ccchecker::codec`].  `len` counts the tag byte plus the payload, so a
//! record occupies `12 + len` bytes on disk, and a `len` of zero or above
//! [`MAX_RECORD_BYTES`] is corruption.  The checksum is the FNV-64 fold of
//! [`crate::fingerprint::fnv64_bytes`] over `[tag][payload]` — the same
//! process-stable hash the fingerprints use, so the log needs no new
//! hashing dependency.
//!
//! # Recovery contract
//!
//! [`replay_bytes`] scans records in order and stops — *without erroring* — at
//! the first torn or checksum-failing record, reporting how many clean
//! bytes precede it.  The caller truncates the file to that offset before
//! appending again, so one crash can never corrupt later writes.  A file
//! whose header is missing or torn replays as empty.
//!
//! # Generation swap
//!
//! Compaction writes a fresh log (next generation) to a sibling temp file,
//! fsyncs it, and [`commit_replace`]s it over the live path with an atomic
//! rename, so a crash mid-compaction leaves either the old or the new
//! generation — never a mix.

use crate::fingerprint::{fnv64_bytes, FNV_BASIS};
use ccchecker::codec::{put_u32, put_u64, put_u8, DecodeError, Reader};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Log file magic: `"ccWL"` little-endian.
pub const LOG_MAGIC: u32 = 0x4c57_6363;

/// Current log format version.
pub const LOG_VERSION: u32 = 1;

/// Bytes of the file header (`magic | version | generation`).
pub const HEADER_BYTES: u64 = 16;

/// Bytes of a record header (`len | checksum`), before the tag byte.
pub const RECORD_HEADER_BYTES: u64 = 12;

/// Upper bound on a single record body (tag + payload); a declared length
/// beyond this is treated as corruption, bounding replay allocations.
pub const MAX_RECORD_BYTES: u32 = 1 << 24;

/// One decoded record: the tag byte and the payload that followed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Record type tag (meaning assigned by the caller).
    pub tag: u8,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// The result of replaying a log file.
#[derive(Debug, Default)]
pub struct Replay {
    /// Every record that passed its checksum, in append order.
    pub records: Vec<Record>,
    /// The log generation from the file header (0 for an empty/torn file).
    pub generation: u64,
    /// File offset just past the last clean record: the truncation point.
    pub clean_bytes: u64,
    /// Bytes past `clean_bytes` that were discarded as torn or corrupt.
    pub truncated_bytes: u64,
}

impl Replay {
    /// Whether the tail of the file had to be discarded.
    pub fn was_truncated(&self) -> bool {
        self.truncated_bytes > 0
    }
}

/// Encodes one record (header + tag + payload) into a byte buffer ready to
/// be appended.
pub fn encode_record(tag: u8, payload: &[u8]) -> Vec<u8> {
    let len = 1 + payload.len();
    assert!(
        len <= MAX_RECORD_BYTES as usize,
        "record exceeds {MAX_RECORD_BYTES} bytes"
    );
    let mut body = Vec::with_capacity(len);
    put_u8(&mut body, tag);
    body.extend_from_slice(payload);
    let mut out = Vec::with_capacity(RECORD_HEADER_BYTES as usize + len);
    put_u32(&mut out, len as u32);
    put_u64(&mut out, fnv64_bytes(FNV_BASIS, &body));
    out.extend_from_slice(&body);
    out
}

/// Encodes the file header for a given generation.
pub fn encode_header(generation: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_BYTES as usize);
    put_u32(&mut h, LOG_MAGIC);
    put_u32(&mut h, LOG_VERSION);
    put_u64(&mut h, generation);
    h
}

/// Reads one record, failing on a torn body, a corrupt length field or a
/// checksum mismatch.
fn read_record(r: &mut Reader<'_>) -> Result<Record, DecodeError> {
    let len = r.u32()?;
    if len == 0 || len > MAX_RECORD_BYTES {
        return Err(DecodeError::Malformed("corrupt record length"));
    }
    let checksum = r.u64()?;
    let body = r.bytes(len as usize)?;
    if fnv64_bytes(FNV_BASIS, body) != checksum {
        return Err(DecodeError::Malformed("checksum mismatch"));
    }
    Ok(Record {
        tag: body[0],
        payload: body[1..].to_vec(),
    })
}

/// Replays the log bytes, stopping silently at the first torn or
/// checksum-failing record (see the module docs for the contract).
pub fn replay_bytes(bytes: &[u8]) -> Replay {
    let mut out = Replay::default();
    let mut r = Reader::new(bytes);
    let header = (r.u32(), r.u32(), r.u64());
    let (Ok(LOG_MAGIC), Ok(LOG_VERSION), Ok(generation)) = header else {
        out.truncated_bytes = bytes.len() as u64;
        return out;
    };
    out.generation = generation;
    out.clean_bytes = HEADER_BYTES;
    // the first failing record leaves its torn/corrupt tail uncounted
    while let Ok(record) = read_record(&mut r) {
        out.records.push(record);
        out.clean_bytes = (bytes.len() - r.remaining()) as u64;
    }
    out.truncated_bytes = bytes.len() as u64 - out.clean_bytes;
    out
}

/// Opens (or creates) a log file for appending: replays it, truncates any
/// torn tail in place, and returns the file positioned at the clean end
/// together with the replay.  A missing or header-torn file is rewritten as
/// an empty generation-`fresh_generation` log.
pub fn open_log(path: &Path, fresh_generation: u64) -> io::Result<(File, Replay)> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let mut replay = replay_bytes(&bytes);
    if bytes.len() < HEADER_BYTES as usize || replay.clean_bytes < HEADER_BYTES {
        // no usable header: start a fresh generation
        file.set_len(0)?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&encode_header(fresh_generation))?;
        file.sync_data()?;
        replay = Replay {
            generation: fresh_generation,
            clean_bytes: HEADER_BYTES,
            truncated_bytes: replay.truncated_bytes,
            ..Replay::default()
        };
        return Ok((file, replay));
    }
    if replay.was_truncated() {
        // never trust — or append after — bytes past the corruption
        file.set_len(replay.clean_bytes)?;
    }
    file.seek(SeekFrom::Start(replay.clean_bytes))?;
    Ok((file, replay))
}

/// Atomically replaces `live` with the fully written, fsync'd `staged`
/// file: rename, then fsync the parent directory so the swap itself is
/// durable.  A crash before the rename leaves the old generation; after,
/// the new one.
pub fn commit_replace(staged: &Path, live: &Path) -> io::Result<()> {
    std::fs::rename(staged, live)?;
    if let Some(dir) = live.parent() {
        // directory fsync is what makes the rename survive power loss; on
        // platforms where opening a directory fails, the rename alone is
        // the best available
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_log(generation: u64, records: &[(u8, &[u8])]) -> Vec<u8> {
        let mut bytes = encode_header(generation).to_vec();
        for (tag, payload) in records {
            bytes.extend_from_slice(&encode_record(*tag, payload));
        }
        bytes
    }

    #[test]
    fn round_trips_records_in_order() {
        let bytes = build_log(3, &[(1, b"alpha"), (2, b""), (1, b"beta")]);
        let replay = replay_bytes(&bytes);
        assert_eq!(replay.generation, 3);
        assert!(!replay.was_truncated());
        assert_eq!(replay.clean_bytes, bytes.len() as u64);
        assert_eq!(
            replay.records,
            vec![
                Record {
                    tag: 1,
                    payload: b"alpha".to_vec()
                },
                Record {
                    tag: 2,
                    payload: Vec::new()
                },
                Record {
                    tag: 1,
                    payload: b"beta".to_vec()
                },
            ]
        );
    }

    #[test]
    fn every_torn_tail_offset_recovers_the_clean_prefix() {
        let prefix = build_log(1, &[(1, b"first"), (1, b"second")]);
        let full = {
            let mut b = prefix.clone();
            b.extend_from_slice(&encode_record(1, b"final record payload"));
            b
        };
        // truncate at every byte offset of the final record: the replay
        // must recover exactly the first two records, never error, never
        // fabricate a third
        for cut in prefix.len()..full.len() {
            let replay = replay_bytes(&full[..cut]);
            assert_eq!(replay.records.len(), 2, "cut at {cut}");
            assert_eq!(replay.clean_bytes, prefix.len() as u64, "cut at {cut}");
            assert_eq!(
                replay.truncated_bytes,
                (cut - prefix.len()) as u64,
                "cut at {cut}"
            );
        }
        // and the full file replays all three
        assert_eq!(replay_bytes(&full).records.len(), 3);
    }

    #[test]
    fn corrupt_bytes_stop_the_replay_without_erroring() {
        let clean = build_log(1, &[(1, b"aaaa"), (1, b"bbbb"), (1, b"cccc")]);
        // flip one byte inside the second record's payload
        let second_start = encode_header(1).len() + encode_record(1, b"aaaa").len();
        let mut corrupt = clean.clone();
        corrupt[second_start + RECORD_HEADER_BYTES as usize + 2] ^= 0x40;
        let replay = replay_bytes(&corrupt);
        assert_eq!(
            replay.records.len(),
            1,
            "only the prefix before the corruption"
        );
        assert!(replay.was_truncated());
        // a corrupt length field is also a stop, not a crash or huge alloc
        let mut bad_len = clean.clone();
        bad_len[second_start..second_start + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(replay_bytes(&bad_len).records.len(), 1);
    }

    #[test]
    fn headerless_or_foreign_files_replay_empty() {
        assert_eq!(replay_bytes(b"").records.len(), 0);
        assert_eq!(replay_bytes(b"short").records.len(), 0);
        let mut foreign = build_log(1, &[(1, b"x")]);
        foreign[0] ^= 0xFF;
        let replay = replay_bytes(&foreign);
        assert_eq!(replay.records.len(), 0);
        assert_eq!(replay.clean_bytes, 0);
    }

    #[test]
    fn open_log_truncates_torn_tails_and_appends_cleanly() {
        let dir = std::env::temp_dir().join(format!("ccwal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.bin");
        let _ = std::fs::remove_file(&path);

        // fresh file: header written, no records
        let (mut file, replay) = open_log(&path, 7).unwrap();
        assert_eq!(replay.generation, 7);
        assert_eq!(replay.records.len(), 0);
        file.write_all(&encode_record(1, b"kept")).unwrap();
        file.write_all(&encode_record(1, b"also kept")).unwrap();
        // simulate a torn append
        file.write_all(&encode_record(1, b"torn")[..5]).unwrap();
        file.sync_data().unwrap();
        drop(file);

        let (mut file, replay) = open_log(&path, 7).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert!(replay.was_truncated());
        // appending after recovery lands right after the clean prefix
        file.write_all(&encode_record(2, b"after recovery"))
            .unwrap();
        file.sync_data().unwrap();
        drop(file);
        let (_, replay) = open_log(&path, 7).unwrap();
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.records[2].tag, 2);

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn commit_replace_swaps_generations() {
        let dir = std::env::temp_dir().join(format!("ccwal-swap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let live = dir.join("live.bin");
        let staged = dir.join("staged.bin");
        std::fs::write(&live, build_log(1, &[(1, b"old")])).unwrap();
        std::fs::write(&staged, build_log(2, &[(1, b"new")])).unwrap();
        commit_replace(&staged, &live).unwrap();
        let replay = replay_bytes(&std::fs::read(&live).unwrap());
        assert_eq!(replay.generation, 2);
        assert_eq!(replay.records[0].payload, b"new");
        assert!(!staged.exists());
        std::fs::remove_file(&live).ok();
    }

    /// Decodes a hex string, ignoring whitespace.
    fn unhex(hex: &str) -> Vec<u8> {
        let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    /// A generation-5 file header followed by one tag-2 record carrying
    /// `"ccRV"`.
    const GOLDEN_LOG: &str = "
        6363574c 01000000 0500000000000000
        05000000 4cbe4b456af29326 02 63635256";

    #[test]
    fn golden_log_bytes_are_pinned() {
        let bytes = unhex(GOLDEN_LOG);
        assert_eq!(build_log(5, &[(2, b"ccRV")]), bytes);
        let clean = replay_bytes(&bytes);
        assert_eq!(clean.generation, 5);
        assert_eq!(
            clean.records,
            vec![Record {
                tag: 2,
                payload: b"ccRV".to_vec()
            }]
        );
        assert_eq!(clean.clean_bytes, bytes.len() as u64);
        // every truncation and every single-bit flip replays a prefix of the
        // clean records, never a panic
        for cut in 0..bytes.len() {
            let replay = replay_bytes(&bytes[..cut]);
            assert!(clean.records.starts_with(&replay.records), "cut {cut}");
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let replay = replay_bytes(&flipped);
            assert!(clean.records.starts_with(&replay.records), "bit {bit}");
        }
    }
}
