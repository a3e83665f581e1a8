//! The reference work every end-to-end timing is scaled by.
//!
//! The benchmark shares a host with other tenants, and the host's speed
//! drifts: over minutes, the same pass over the same jobs takes tens of
//! percent more or less time as neighbours come and go (steal, shared caches,
//! memory bandwidth).  A wall-clock figure from one run can therefore differ
//! from the next run's by more than any bound that could still catch a
//! regression.  So every timed unit of work (one set-up repeat, one pass
//! over the jobs) runs between two rounds of fixed *reference work* on the
//! same thread, and the benchmark reports the unit's time scaled to a host
//! on which one round takes [`NOMINAL_S`]:
//!
//! ```text
//! scaled time = wall time * NOMINAL_S / (mean wall time of the two rounds)
//! ```
//!
//! The reference work is the benchmark's own code, never the program's, so
//! a change to the program moves the scaled figure as much as it moves the
//! wall-clock one on a steady host.  It resembles the checker's hot loop,
//! interning freshly allocated small states into a hash table, so
//! contention slows both alike (with a table and heap of about 4 MB it
//! slowed 1.5 times as much as a family pass did; at under 1 MB, as now,
//! the two move together on both workloads).  It runs on the timing thread
//! only: a job at the default thread budget spends most of its time on that
//! thread (a busy process on the other core of a 2-core machine slowed a
//! Table II pass by 5%, and reference work on both cores by 67%), so
//! reference work on every core would charge a unit for contention on cores
//! it hardly uses.  The printed table gives each raw wall-clock figure next
//! to the scaled one.

use crate::gen::SplitMix64;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// The wall time of one round of reference work on the host the figures
/// are scaled to: about its median on the 2-core virtual machine the
/// benchmark was defined on.
pub const NOMINAL_S: f64 = 0.022;

/// Chunks in one round.
const CHUNKS: usize = 12;

/// States interned per chunk.
const STATES: usize = 12_000;

/// One chunk: interns pseudo-random 12-counter states, seeded by the chunk
/// index, into a fresh table with a fixed hasher; returns the distinct count.
fn chunk(index: usize) -> usize {
    let mut rng = SplitMix64::new(index as u64);
    let mut seen: HashMap<Vec<u16>, usize, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for _ in 0..STATES {
        let state: Vec<u16> = (0..12).map(|_| rng.below(4) as u16).collect();
        let next = seen.len();
        seen.entry(state).or_insert(next);
    }
    seen.len()
}

/// One round of reference work on the calling thread; returns its wall
/// time (s).
fn round_s() -> f64 {
    let t = Instant::now();
    for i in 0..CHUNKS {
        std::hint::black_box(chunk(i));
    }
    t.elapsed().as_secs_f64()
}

/// Runs `work` between two rounds of reference work; returns its result and
/// the factor that scales its times to the nominal host.
pub fn scaled<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let before = round_s();
    let out = work();
    let after = round_s();
    (out, 2.0 * NOMINAL_S / (before + after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_fixed() {
        let n = chunk(3);
        assert_eq!(n, chunk(3));
        // nearly every state is new: the table really grows to STATES
        assert!(n > STATES * 9 / 10 && n <= STATES, "{n}");
        let (out, scale) = scaled(|| 7);
        assert_eq!(out, 7);
        assert!(scale.is_finite() && scale > 0.0);
    }
}
