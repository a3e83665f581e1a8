//! Supervised retry with seeded exponential backoff.
//!
//! A panicking sweep cell gets exactly one second chance on a fresh
//! checker; this module generalises that policy so both the sweep cells
//! and the `ccserve` daemon's check jobs share one supervisor:
//! a [`RetryPolicy`] names the maximum attempt count and the backoff curve,
//! and [`run_with_retry`] drives an attempt closure until it succeeds or
//! the attempts are exhausted.
//!
//! Two properties matter for the callers:
//!
//! * **Per-attempt fresh resources.**  The attempt closure receives the
//!   zero-based attempt index, so a caller can run the first attempt on its
//!   shared resources and every retry on fresh ones (the sweep does exactly
//!   this — a checker whose check panicked must not serve the retry).  The
//!   helper itself holds no state between attempts.
//! * **Seeded jitter.**  Backoff sleeps are jittered to avoid retry
//!   convoys when many failed jobs back off together, but the jitter is
//!   drawn from a seeded [`rand::rngs::StdRng`] (`jitter_seed ^ task_key`)
//!   so a given task's retry schedule is reproducible — the soak tests rely
//!   on deterministic schedules.  A zero base backoff (the sweep's choice)
//!   never sleeps at all.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// A retry policy: how many attempts a task gets and how the supervisor
/// backs off between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (the first try included).  Clamped to at least 1.
    pub max_attempts: usize,
    /// Backoff before the first retry; doubled per further retry.
    /// [`Duration::ZERO`] disables sleeping entirely.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff sleep (pre-jitter).
    pub max_backoff: Duration,
    /// Seed of the jitter RNG, mixed with the caller's task key so distinct
    /// tasks de-correlate while a given task stays reproducible.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// A policy with `max_attempts` attempts and no backoff between them —
    /// the sweep-cell policy (`attempts(2)` is PR 6's one-shot retry).
    pub fn attempts(max_attempts: usize) -> Self {
        RetryPolicy {
            max_attempts,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter_seed: 0,
        }
    }

    /// This policy with an exponential backoff curve starting at `base`
    /// and capped at `max`.
    pub fn with_backoff(mut self, base: Duration, max: Duration) -> Self {
        self.base_backoff = base;
        self.max_backoff = max;
        self
    }

    /// This policy with an explicit jitter seed.
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// The jittered sleep before retry number `retry` (1-based): the
    /// exponential delay halved plus a seeded draw over the other half, so
    /// the sleep lands in `[delay/2, delay]`.
    pub fn backoff_before(&self, task_key: u64, retry: usize) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = retry.saturating_sub(1).min(20) as u32;
        let delay = self
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff.max(self.base_backoff));
        let half = delay / 2;
        let span = delay.saturating_sub(half).as_nanos() as u64;
        if span == 0 {
            return delay;
        }
        let mut rng = StdRng::seed_from_u64(self.jitter_seed ^ task_key ^ retry as u64);
        half + Duration::from_nanos(rng.gen_range(0..=span))
    }
}

impl Default for RetryPolicy {
    /// The historical sweep-cell policy: one retry, no backoff.
    fn default() -> Self {
        RetryPolicy::attempts(2)
    }
}

/// Runs `attempt` until it returns `Ok` or the policy's attempts are
/// exhausted, sleeping the policy's jittered backoff between attempts.
/// The closure receives the zero-based attempt index (0 is the first try),
/// so callers can switch to fresh resources on retries.  Returns the last
/// error when every attempt failed.
pub fn run_with_retry<T, E>(
    policy: &RetryPolicy,
    task_key: u64,
    mut attempt: impl FnMut(usize) -> Result<T, E>,
) -> Result<T, E> {
    let attempts = policy.max_attempts.max(1);
    let mut last_err = None;
    for i in 0..attempts {
        if i > 0 {
            let backoff = policy.backoff_before(task_key, i);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
        }
        match attempt(i) {
            Ok(value) => return Ok(value),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("at least one attempt ran"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_success_returns_immediately() {
        let mut calls = 0;
        let out: Result<i32, &str> = run_with_retry(&RetryPolicy::attempts(3), 0, |i| {
            calls += 1;
            assert_eq!(i, 0);
            Ok(42)
        });
        assert_eq!(out, Ok(42));
        assert_eq!(calls, 1);
    }

    #[test]
    fn retries_pass_the_attempt_index_and_stop_at_the_cap() {
        let mut seen = Vec::new();
        let out: Result<(), String> = run_with_retry(&RetryPolicy::attempts(3), 7, |i| {
            seen.push(i);
            Err(format!("attempt {i} failed"))
        });
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(out, Err("attempt 2 failed".to_string()));
    }

    #[test]
    fn later_attempt_can_recover() {
        let out: Result<usize, &str> = run_with_retry(&RetryPolicy::attempts(4), 1, |i| {
            if i < 2 {
                Err("not yet")
            } else {
                Ok(i)
            }
        });
        assert_eq!(out, Ok(2));
    }

    #[test]
    fn zero_attempts_still_runs_once() {
        let mut calls = 0;
        let _: Result<(), ()> = run_with_retry(&RetryPolicy::attempts(0), 0, |_| {
            calls += 1;
            Err(())
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn backoff_is_seeded_bounded_and_monotone_in_expectation() {
        let policy = RetryPolicy::attempts(5)
            .with_backoff(Duration::from_millis(8), Duration::from_millis(64))
            .with_jitter_seed(0xDEAD);
        // reproducible for a fixed task key
        assert_eq!(policy.backoff_before(3, 1), policy.backoff_before(3, 1));
        for retry in 1..=6 {
            let d = policy.backoff_before(3, retry);
            let exp = Duration::from_millis(8 << (retry - 1).min(3));
            let capped = exp.min(Duration::from_millis(64));
            assert!(d >= capped / 2, "retry {retry}: {d:?} < {:?}", capped / 2);
            assert!(d <= capped, "retry {retry}: {d:?} > {capped:?}");
        }
        // distinct task keys draw distinct jitter (with overwhelming
        // probability over this span)
        let draws: Vec<Duration> = (0..8).map(|k| policy.backoff_before(k, 2)).collect();
        assert!(draws.iter().any(|d| *d != draws[0]));
    }

    #[test]
    fn zero_base_backoff_never_sleeps() {
        let policy = RetryPolicy::attempts(3);
        for retry in 1..4 {
            assert_eq!(policy.backoff_before(9, retry), Duration::ZERO);
        }
    }
}
