//! Extended (probabilistic) counter systems.
//!
//! This crate gives semantics to the models of [`ccta`]: a system of
//! `N(p).0` copies of the correct-process threshold automaton plus `N(p).1`
//! copies of the common-coin automaton is abstracted as a *counter system*
//! whose configurations record, per round, the number of automata in each
//! location and the value of each shared/coin variable (Sect. III-C of the
//! paper).
//!
//! The crate provides:
//!
//! * [`Configuration`] — round-indexed location counters and variable
//!   values, with O(1) mutation (trailing-zero-round trimming is deferred to
//!   the comparison/fingerprint boundaries instead of running on every
//!   update).
//! * [`CounterSystem`] — applicability and the `apply` function of the
//!   probabilistic transition function `∆` for a concrete admissible
//!   parameter valuation.  Rules are precompiled at construction (branch
//!   lists, variable increments, guard bounds evaluated at the valuation).
//! * [`RowEngine`] — the single-round specialisation the explicit checker
//!   actually runs on: a state is one fixed-stride byte row
//!   (`locations ++ variables`), successor generation applies byte deltas
//!   in place, guards evaluate straight off the row, and a tabulated
//!   Zobrist hash ([`RowEngine::hash`]) is maintained incrementally in O(1)
//!   per delta.  The hot loop of the checker performs no allocation per
//!   transition.
//! * [`Schedule`] / [`Path`] — finite schedules and paths, round-rigidity,
//!   and the Theorem-1 reordering of arbitrary schedules into round-rigid
//!   ones.
//! * [`adversary`] — adversaries resolving the non-determinism, including
//!   round-rigid adversaries, and a runner that samples paths of the induced
//!   Markov chain.

pub mod adversary;
pub mod config;
pub mod error;
pub mod schedule;
pub mod system;

/// Small models shared by this crate's unit tests and the engine-equivalence
/// integration tests of `ccchecker`.  Not part of the public API surface.
#[doc(hidden)]
pub mod testutil;

pub use adversary::{Adversary, EagerAdversary, RandomAdversary, RoundRigid, RunOutcome};
pub use config::Configuration;
pub use error::CounterError;
pub use schedule::{Path, Schedule, ScheduledStep};
pub use system::{decode_row, Action, CounterSystem, RowEngine};
