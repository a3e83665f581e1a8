//! Configurations of the (multi-round) counter system.
//!
//! A configuration `c = (κ, g, p)` records the location counters `κ[ℓ, k]`
//! and variable values `g[x, k]` for every round `k`, plus the parameter
//! values `p` (stored once in the [`crate::CounterSystem`], not per
//! configuration).
//!
//! # Performance notes
//!
//! Counter and variable updates are O(1): trailing all-zero rounds are *not*
//! trimmed eagerly on every mutation (that would make each update O(rounds)).
//! Instead, equality, hashing and the byte fingerprint ignore trailing
//! all-zero rounds, so two configurations describing the same state still
//! compare (and hash) equal regardless of which rounds happen to be
//! materialised.

use ccta::{LocId, VarId};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Counters and variable values of a single round.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RoundData {
    counters: Vec<u64>,
    vars: Vec<u64>,
}

impl RoundData {
    fn zero(num_locations: usize, num_vars: usize) -> Self {
        RoundData {
            counters: vec![0; num_locations],
            vars: vec![0; num_vars],
        }
    }

    fn is_zero(&self) -> bool {
        self.counters.iter().all(|&c| c == 0) && self.vars.iter().all(|&v| v == 0)
    }

    /// Location counters of this round.
    pub fn counters(&self) -> &[u64] {
        &self.counters
    }

    /// Variable values of this round.
    pub fn vars(&self) -> &[u64] {
        &self.vars
    }
}

/// A configuration of the counter system.
///
/// Rounds are materialised lazily: reads of rounds that were never touched
/// return zeros, and trailing all-zero rounds are ignored by equality,
/// hashing and fingerprints, so that two configurations describing the same
/// state compare (and hash) equal.
#[derive(Debug, Clone)]
pub struct Configuration {
    num_locations: usize,
    num_vars: usize,
    rounds: Vec<RoundData>,
}

impl Configuration {
    /// The all-zero configuration for a model with the given numbers of
    /// locations and variables.
    pub fn zero(num_locations: usize, num_vars: usize) -> Self {
        Configuration {
            num_locations,
            num_vars,
            rounds: Vec::new(),
        }
    }

    /// Number of locations per round.
    pub fn num_locations(&self) -> usize {
        self.num_locations
    }

    /// Number of variables per round.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of materialised rounds that are part of the observable state:
    /// the length of the prefix up to the last round with any non-zero
    /// counter or variable.
    pub(crate) fn active_len(&self) -> usize {
        let mut len = self.rounds.len();
        while len > 0 && self.rounds[len - 1].is_zero() {
            len -= 1;
        }
        len
    }

    /// The counter `κ[loc, round]`.
    pub fn counter(&self, loc: LocId, round: u32) -> u64 {
        self.rounds
            .get(round as usize)
            .map(|r| r.counters[loc.0])
            .unwrap_or(0)
    }

    /// The variable value `g[var, round]`.
    pub fn var(&self, var: VarId, round: u32) -> u64 {
        self.rounds
            .get(round as usize)
            .map(|r| r.vars[var.0])
            .unwrap_or(0)
    }

    /// All variable values of a round as a borrowed slice, or `None` if the
    /// round was never materialised (all values are zero then).
    pub fn vars_slice(&self, round: u32) -> Option<&[u64]> {
        self.rounds.get(round as usize).map(|r| r.vars.as_slice())
    }

    /// All location counters of a round as a borrowed slice, or `None` if
    /// the round was never materialised.
    pub fn counters_slice(&self, round: u32) -> Option<&[u64]> {
        self.rounds
            .get(round as usize)
            .map(|r| r.counters.as_slice())
    }

    /// All variable values of a round (zeros if the round was never touched).
    pub fn round_vars(&self, round: u32) -> Vec<u64> {
        self.rounds
            .get(round as usize)
            .map(|r| r.vars.clone())
            .unwrap_or_else(|| vec![0; self.num_vars])
    }

    /// The largest round index with a non-zero counter or variable, if any.
    pub fn max_active_round(&self) -> Option<u32> {
        match self.active_len() {
            0 => None,
            n => Some(n as u32 - 1),
        }
    }

    /// Total number of automaton copies present in a round (all locations).
    pub fn total_in_round(&self, round: u32) -> u64 {
        self.rounds
            .get(round as usize)
            .map(|r| r.counters.iter().sum())
            .unwrap_or(0)
    }

    fn ensure_round(&mut self, round: u32) -> &mut RoundData {
        while self.rounds.len() <= round as usize {
            self.rounds
                .push(RoundData::zero(self.num_locations, self.num_vars));
        }
        &mut self.rounds[round as usize]
    }

    /// Drops trailing all-zero rounds.  Only needed before handing the
    /// configuration to code that inspects `rounds` directly; the public
    /// observers already ignore trailing zeros.
    pub fn trim(&mut self) {
        let len = self.active_len();
        self.rounds.truncate(len);
    }

    /// Sets the counter `κ[loc, round]`.
    pub fn set_counter(&mut self, loc: LocId, round: u32, value: u64) {
        self.ensure_round(round).counters[loc.0] = value;
    }

    /// Adds `delta` to the counter `κ[loc, round]`.
    pub fn add_counter(&mut self, loc: LocId, round: u32, delta: u64) {
        self.ensure_round(round).counters[loc.0] += delta;
    }

    /// Decreases the counter `κ[loc, round]` by one.
    ///
    /// # Panics
    ///
    /// Panics if the counter is already zero.
    pub fn decrement_counter(&mut self, loc: LocId, round: u32) {
        let data = self.ensure_round(round);
        assert!(
            data.counters[loc.0] > 0,
            "counter underflow at location {loc} round {round}"
        );
        data.counters[loc.0] -= 1;
    }

    /// Sets the variable `g[var, round]`.
    pub fn set_var(&mut self, var: VarId, round: u32, value: u64) {
        self.ensure_round(round).vars[var.0] = value;
    }

    /// Adds `delta` to the variable `g[var, round]`.
    pub fn add_var(&mut self, var: VarId, round: u32, delta: u64) {
        self.ensure_round(round).vars[var.0] += delta;
    }

    /// A memory-compact byte fingerprint for explicit-state search.
    ///
    /// # Panics
    ///
    /// Panics if any counter or variable exceeds 255 — explicit-state
    /// checking is only intended for small concrete parameter valuations.
    pub fn fingerprint_bytes(&self) -> Vec<u8> {
        let active = self.active_len();
        let mut out = Vec::with_capacity(active * (self.num_locations + self.num_vars));
        for r in &self.rounds[..active] {
            for &c in r.counters.iter().chain(r.vars.iter()) {
                assert!(
                    c <= u8::MAX as u64,
                    "configuration value {c} too large for compact fingerprint"
                );
                out.push(c as u8);
            }
        }
        out
    }
}

impl PartialEq for Configuration {
    fn eq(&self, other: &Self) -> bool {
        self.num_locations == other.num_locations && self.num_vars == other.num_vars && {
            let (a, b) = (self.active_len(), other.active_len());
            a == b && self.rounds[..a] == other.rounds[..b]
        }
    }
}

impl Eq for Configuration {}

impl Hash for Configuration {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let active = self.active_len();
        self.num_locations.hash(state);
        self.num_vars.hash(state);
        active.hash(state);
        self.rounds[..active].hash(state);
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let active = self.active_len();
        if active == 0 {
            return f.write_str("<empty>");
        }
        for (k, r) in self.rounds[..active].iter().enumerate() {
            if k > 0 {
                writeln!(f)?;
            }
            write!(f, "round {k}: kappa={:?} g={:?}", r.counters, r.vars)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(c: &Configuration) -> u64 {
        let mut h = DefaultHasher::new();
        c.hash(&mut h);
        h.finish()
    }

    #[test]
    fn zero_configuration_reads_zeros_everywhere() {
        let c = Configuration::zero(5, 3);
        assert_eq!(c.counter(LocId(4), 7), 0);
        assert_eq!(c.var(VarId(2), 0), 0);
        assert_eq!(c.max_active_round(), None);
        assert_eq!(c.total_in_round(3), 0);
        assert_eq!(c.round_vars(2), vec![0, 0, 0]);
        assert_eq!(format!("{c}"), "<empty>");
    }

    #[test]
    fn counters_and_vars_are_round_indexed() {
        let mut c = Configuration::zero(3, 2);
        c.add_counter(LocId(1), 0, 2);
        c.add_counter(LocId(2), 1, 1);
        c.add_var(VarId(0), 1, 5);
        assert_eq!(c.counter(LocId(1), 0), 2);
        assert_eq!(c.counter(LocId(1), 1), 0);
        assert_eq!(c.counter(LocId(2), 1), 1);
        assert_eq!(c.var(VarId(0), 1), 5);
        assert_eq!(c.var(VarId(0), 0), 0);
        assert_eq!(c.max_active_round(), Some(1));
        assert_eq!(c.total_in_round(0), 2);
        assert_eq!(c.counter(LocId(2), 0), 0);
    }

    #[test]
    fn trailing_zero_rounds_do_not_affect_equality() {
        let mut a = Configuration::zero(2, 1);
        a.add_counter(LocId(0), 0, 1);
        let mut b = Configuration::zero(2, 1);
        b.add_counter(LocId(0), 0, 1);
        // touch and then clear a later round in b
        b.add_counter(LocId(1), 3, 1);
        b.set_counter(LocId(1), 3, 0);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint_bytes(), b.fingerprint_bytes());
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_eq!(b.max_active_round(), Some(0));
        assert_eq!(format!("{a}"), format!("{b}"));
    }

    #[test]
    fn trim_drops_trailing_zero_rounds() {
        let mut c = Configuration::zero(2, 1);
        c.add_counter(LocId(0), 4, 1);
        c.set_counter(LocId(0), 4, 0);
        c.add_counter(LocId(1), 1, 2);
        c.trim();
        assert_eq!(c.max_active_round(), Some(1));
        assert_eq!(c.counter(LocId(1), 1), 2);
        assert_eq!(c.counter(LocId(0), 4), 0);
    }

    #[test]
    fn fully_cleared_configuration_equals_the_zero_one() {
        let mut c = Configuration::zero(2, 1);
        c.add_counter(LocId(0), 0, 1);
        c.decrement_counter(LocId(0), 0);
        assert_eq!(c, Configuration::zero(2, 1));
        assert_eq!(hash_of(&c), hash_of(&Configuration::zero(2, 1)));
        assert_eq!(format!("{c}"), "<empty>");
    }

    #[test]
    fn decrement_and_set() {
        let mut c = Configuration::zero(2, 1);
        c.set_counter(LocId(0), 0, 3);
        c.decrement_counter(LocId(0), 0);
        assert_eq!(c.counter(LocId(0), 0), 2);
        c.set_var(VarId(0), 0, 9);
        assert_eq!(c.var(VarId(0), 0), 9);
    }

    #[test]
    #[should_panic(expected = "counter underflow")]
    fn decrement_of_zero_counter_panics() {
        let mut c = Configuration::zero(2, 1);
        c.decrement_counter(LocId(0), 0);
    }

    #[test]
    fn display_mentions_rounds() {
        let mut c = Configuration::zero(2, 1);
        c.add_counter(LocId(0), 1, 1);
        let s = format!("{c}");
        assert!(s.contains("round 0"));
        assert!(s.contains("round 1"));
    }

    #[test]
    fn slices_expose_materialised_rounds_only() {
        let mut c = Configuration::zero(2, 2);
        assert!(c.vars_slice(0).is_none());
        assert!(c.counters_slice(0).is_none());
        c.add_var(VarId(1), 0, 3);
        assert_eq!(c.vars_slice(0), Some(&[0, 3][..]));
        assert_eq!(c.counters_slice(0), Some(&[0, 0][..]));
        assert!(c.vars_slice(1).is_none());
    }
}
