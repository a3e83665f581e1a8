//! Cross-request result cache.
//!
//! Sits *above* the checker's in-process graph cache: where the graph cache
//! shares reachability graphs between obligations of one job, this cache
//! shares final verdicts between *requests* — two clients asking for the
//! same (system, valuation, obligation) triple pay for one exploration.
//! Keys are the stable FNV-64 fingerprints of `cccore::fingerprint`, so a
//! by-name protocol and a structurally identical generated family hit the
//! same line.
//!
//! Only definite verdicts (`Holds` / `Violated`) are cached: an `Unknown`
//! produced by a deadline trip reflects the requester's budget, not the
//! system, and must not poison later requests with laxer deadlines.
//! Eviction is FIFO by insertion order, bounded by `capacity`.

use ccchecker::{CheckOutcome, CheckStatus};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cache key: (system fingerprint, valuation fingerprint, obligation
/// fingerprint).
pub type CacheKey = (u64, u64, u64);

/// A cached definite verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedVerdict {
    /// The verdict (`Holds` or `Violated`, never `Unknown`).
    pub status: CheckStatus,
    /// States explored by the original run.
    pub states_explored: usize,
    /// Transitions explored by the original run.
    pub transitions_explored: usize,
    /// Detail string of the original outcome.
    pub detail: String,
}

struct CacheInner {
    map: HashMap<CacheKey, CachedVerdict>,
    order: VecDeque<CacheKey>,
}

/// A bounded, thread-safe verdict cache.
pub struct ResultCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// A cache holding at most `capacity` verdicts (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up a verdict, counting the hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<CachedVerdict> {
        let inner = self.inner.lock().unwrap();
        match inner.map.get(key) {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Caches the outcome if it is definite; `Unknown` outcomes (degraded,
    /// interrupted, or genuinely inconclusive) are dropped.
    pub fn insert(&self, key: CacheKey, outcome: &CheckOutcome) {
        if outcome.status == CheckStatus::Unknown {
            return;
        }
        self.preload(
            key,
            CachedVerdict {
                status: outcome.status,
                states_explored: outcome.states_explored,
                transitions_explored: outcome.transitions_explored,
                detail: outcome.detail.clone(),
            },
        );
    }

    /// Admits an already-validated verdict (log recovery, and
    /// [`ResultCache::insert`] after its definiteness check): a key already
    /// cached keeps its first verdict, and the oldest entries are evicted
    /// beyond `capacity`.  Counts no hit or miss.
    pub fn preload(&self, key: CacheKey, verdict: CachedVerdict) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        match inner.map.entry(key) {
            Entry::Occupied(_) => return,
            Entry::Vacant(slot) => {
                slot.insert(verdict);
            }
        }
        inner.order.push_back(key);
        while inner.order.len() > self.capacity {
            if let Some(old) = inner.order.pop_front() {
                inner.map.remove(&old);
            }
        }
    }

    /// A snapshot of every cached entry in eviction (insertion) order — the
    /// verdict half of a log compaction snapshot.
    pub fn entries(&self) -> Vec<(CacheKey, CachedVerdict)> {
        let inner = self.inner.lock().unwrap();
        inner
            .order
            .iter()
            .filter_map(|k| inner.map.get(k).map(|v| (*k, v.clone())))
            .collect()
    }

    /// Cached entries.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found a verdict.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hit fraction over all lookups (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let total = h + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            h / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn holds() -> CheckOutcome {
        CheckOutcome::holds(10, 20)
    }

    #[test]
    fn caches_definite_verdicts_and_counts_hits() {
        let cache = ResultCache::new(8);
        let key = (1, 2, 3);
        assert!(cache.get(&key).is_none());
        cache.insert(key, &holds());
        let hit = cache.get(&key).unwrap();
        assert_eq!(hit.status, CheckStatus::Holds);
        assert_eq!(hit.states_explored, 10);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn unknown_outcomes_are_never_cached() {
        let cache = ResultCache::new(8);
        let key = (4, 5, 6);
        cache.insert(
            key,
            &CheckOutcome::unknown(0, 0, "interrupted: deadline exceeded"),
        );
        assert!(cache.get(&key).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let cache = ResultCache::new(2);
        cache.insert((1, 1, 1), &holds());
        cache.insert((2, 2, 2), &holds());
        cache.insert((3, 3, 3), &holds());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&(1, 1, 1)).is_none(), "oldest entry evicted");
        assert!(cache.get(&(2, 2, 2)).is_some());
        assert!(cache.get(&(3, 3, 3)).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::new(0);
        cache.insert((1, 1, 1), &holds());
        assert!(cache.get(&(1, 1, 1)).is_none());
    }
}
