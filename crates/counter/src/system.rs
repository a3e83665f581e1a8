//! The counter system `Sys(TAⁿ, PTAᶜ)` for a concrete parameter valuation.
//!
//! [`CounterSystem::new`] precompiles the model into flat per-rule records:
//! the source location, the positive-probability branches, the variable
//! increments, and the guard with its threshold bounds already evaluated at
//! the (fixed) parameter valuation.  Two layers read these records:
//!
//! * the `Configuration` API ([`CounterSystem::apply`],
//!   [`CounterSystem::is_applicable`], [`CounterSystem::progress_actions`],
//!   [`CounterSystem::is_terminal`]) gives the multi-round semantics of the
//!   paper and serves adversaries, the simulator, counterexample replay and
//!   the reference checker;
//! * [`RowEngine`] is the single-round specialisation the explicit checker
//!   runs on: a state is one fixed-stride byte row, successors are produced
//!   by applying and undoing byte deltas in place, and a tabulated Zobrist
//!   hash is maintained incrementally.
//!
//! All compiled state (rules, guard bounds, Zobrist tables) is immutable
//! after construction, so one `CounterSystem` — and any number of
//! [`RowEngine`]s over it — is `Sync`-shareable across the checker's worker
//! threads: every mutation happens on caller-owned scratch
//! (configurations, rows, action buffers), never on the system itself.
//! The `shared_state_is_sync` test pins this contract.

use crate::config::Configuration;
use crate::error::CounterError;
use ccta::{
    AtomicGuard, BinValue, GuardRel, LocId, ModelKind, Owner, ParamValuation, Probability, RuleId,
    SystemModel, SystemSize, VarId,
};
use std::fmt;
use std::ops::ControlFlow;

/// An action `α = (r, k)`: the execution of rule `r` in round `k` by a single
/// automaton copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Action {
    /// The rule being executed.
    pub rule: RuleId,
    /// The round in which it is executed.
    pub round: u32,
}

impl Action {
    /// Creates an action.
    pub fn new(rule: RuleId, round: u32) -> Self {
        Action { rule, round }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.rule, self.round)
    }
}

/// A guard atom with its parameter-dependent bound evaluated at the fixed
/// valuation of the counter system.
#[derive(Debug, Clone)]
struct CompiledAtom {
    atom: AtomicGuard,
    rel: GuardRel,
    bound: i128,
}

/// A rule flattened for the exploration fast path.
#[derive(Debug, Clone)]
struct CompiledRule {
    from: LocId,
    round_switch: bool,
    /// Positive-probability branches: `(branch index, target, probability)`.
    branches: Vec<(usize, LocId, Probability)>,
    increments: Vec<(VarId, u64)>,
    guard: Vec<CompiledAtom>,
}

impl CompiledRule {
    #[inline]
    fn guard_holds(&self, vars: &[u64]) -> bool {
        self.guard
            .iter()
            .all(|g| g.rel.holds(g.atom.lhs_value(vars), g.bound))
    }

    #[inline]
    fn guard_holds_bytes(&self, vars: &[u8]) -> bool {
        self.guard
            .iter()
            .all(|g| g.rel.holds(g.atom.lhs_value_bytes(vars), g.bound))
    }
}

/// The counter system of a model instantiated at a concrete admissible
/// parameter valuation.
#[derive(Debug, Clone)]
pub struct CounterSystem {
    model: SystemModel,
    params: ParamValuation,
    size: SystemSize,
    multi_round: bool,
    rules: Vec<CompiledRule>,
    /// Progress rule ids grouped by source location, so expansion only
    /// scans rules whose source is occupied.
    progress_rules_from: Vec<Vec<RuleId>>,
    /// Progress rules as a compact `(rule index, source slot)` table in
    /// rule order, for the row engine's linear enumeration pass.
    progress_compact: Vec<(u32, u16)>,
    /// All-zero variable row, lent out for never-materialised rounds.
    zero_vars: Vec<u64>,
    /// Zobrist keys for [`RowEngine`]: one 64-bit key per `(slot, value)`
    /// pair, where slots are the locations followed by the variables and
    /// values range over `0..=255` (value 0 maps to key 0, so a zero slot
    /// contributes nothing).
    zobrist: Vec<u64>,
}

/// Number of tabulated values per Zobrist slot (the row-byte range).
const ZOBRIST_VALUES: usize = 256;

impl CounterSystem {
    /// Creates the counter system for an admissible valuation, precompiling
    /// every rule (branches, increments, guard bounds) for the exploration
    /// fast path.
    ///
    /// # Errors
    ///
    /// Returns [`CounterError::NotAdmissible`] if the valuation violates the
    /// resilience condition of the model's environment.
    pub fn new(model: SystemModel, params: ParamValuation) -> Result<Self, CounterError> {
        let size = model
            .env()
            .system_size(&params)
            .ok_or_else(|| CounterError::NotAdmissible {
                valuation: params.to_string(),
            })?;
        let param_values = params.values();
        let rules: Vec<CompiledRule> = model
            .rules()
            .iter()
            .map(|rule| CompiledRule {
                from: rule.from(),
                round_switch: rule.is_round_switch(),
                branches: rule
                    .branches()
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| !b.prob.is_zero())
                    .map(|(i, b)| (i, b.to, b.prob))
                    .collect(),
                increments: rule.update().increments().to_vec(),
                guard: rule
                    .guard()
                    .atoms()
                    .iter()
                    .map(|atom| CompiledAtom {
                        atom: atom.clone(),
                        rel: atom.rel(),
                        bound: atom.bound().eval(param_values),
                    })
                    .collect(),
            })
            .collect();
        let progress_rules: Vec<RuleId> = model
            .rule_ids()
            .filter(|&r| !model.rule(r).is_self_loop())
            .collect();
        let mut progress_rules_from: Vec<Vec<RuleId>> = vec![Vec::new(); model.locations().len()];
        let mut progress_compact = Vec::with_capacity(progress_rules.len());
        for r in progress_rules {
            progress_rules_from[rules[r.0].from.0].push(r);
            progress_compact.push((r.0 as u32, rules[r.0].from.0 as u16));
        }
        let zero_vars = vec![0; model.vars().len()];
        let slots = model.locations().len() + model.vars().len();
        let mut seed = 0x0DD5_B007_5EED_C0DEu64;
        let zobrist: Vec<u64> = (0..slots * ZOBRIST_VALUES)
            .map(|i| {
                if i % ZOBRIST_VALUES == 0 {
                    return 0; // value 0 contributes nothing
                }
                // SplitMix64 stream, deterministic across runs
                seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect();
        Ok(CounterSystem {
            multi_round: model.kind() == ModelKind::MultiRound,
            model,
            params,
            size,
            rules,
            progress_rules_from,
            progress_compact,
            zero_vars,
            zobrist,
        })
    }

    /// The underlying model.
    pub fn model(&self) -> &SystemModel {
        &self.model
    }

    /// The parameter valuation.
    pub fn params(&self) -> &ParamValuation {
        &self.params
    }

    /// Number of modelled correct processes `N(p).0`.
    pub fn num_processes(&self) -> u64 {
        self.size.processes
    }

    /// Number of modelled common coins `N(p).1`.
    pub fn num_coins(&self) -> u64 {
        self.size.coins
    }

    /// An all-zero configuration with the right dimensions for this system.
    pub fn empty_configuration(&self) -> Configuration {
        Configuration::zero(self.model.locations().len(), self.model.vars().len())
    }

    // ------------------------------------------------------------------
    // Initial configurations
    // ------------------------------------------------------------------

    /// All ways of distributing `count` automaton copies over the given
    /// locations (a composition enumeration).
    fn distributions(locs: &[LocId], count: u64) -> Vec<Vec<(LocId, u64)>> {
        fn rec(
            locs: &[LocId],
            idx: usize,
            remaining: u64,
            current: &mut Vec<(LocId, u64)>,
            out: &mut Vec<Vec<(LocId, u64)>>,
        ) {
            if idx == locs.len() {
                if remaining == 0 {
                    out.push(current.clone());
                }
                return;
            }
            if idx == locs.len() - 1 {
                current.push((locs[idx], remaining));
                out.push(current.clone());
                current.pop();
                return;
            }
            for here in 0..=remaining {
                current.push((locs[idx], here));
                rec(locs, idx + 1, remaining - here, current, out);
                current.pop();
            }
        }
        if locs.is_empty() {
            return if count == 0 {
                vec![Vec::new()]
            } else {
                Vec::new()
            };
        }
        let mut out = Vec::new();
        rec(locs, 0, count, &mut Vec::new(), &mut out);
        out
    }

    /// Enumerates configurations that place all correct processes in
    /// `proc_locs` (in every possible split), all coins in `coin_locs`, and
    /// set every variable to zero.  All copies are placed in round 0.
    pub fn configurations_over(
        &self,
        proc_locs: &[LocId],
        coin_locs: &[LocId],
    ) -> Vec<Configuration> {
        let mut out = Vec::new();
        let proc_dists = Self::distributions(proc_locs, self.num_processes());
        let coin_dists = Self::distributions(coin_locs, self.num_coins());
        for pd in &proc_dists {
            for cd in &coin_dists {
                let mut cfg = self.empty_configuration();
                for &(loc, cnt) in pd.iter().chain(cd.iter()) {
                    if cnt > 0 {
                        cfg.add_counter(loc, 0, cnt);
                    }
                }
                out.push(cfg);
            }
        }
        out
    }

    /// Initial configurations in the sense of Sect. III-C: every process and
    /// the common coin occupy *initial* locations of round 0, all variables
    /// are zero.
    pub fn initial_configurations(&self) -> Vec<Configuration> {
        self.configurations_over(
            &self.model.initial_locations(Owner::Process, None),
            &self.model.initial_locations(Owner::Coin, None),
        )
    }

    /// Round-start configurations: every process and the coin occupy *border*
    /// locations.  For single-round models this is the set `Σ_u` of Theorem 2
    /// (the union of renamed initial configurations of all rounds).
    pub fn round_start_configurations(&self) -> Vec<Configuration> {
        self.configurations_over(
            &self.model.border_locations(Owner::Process, None),
            &self.model.border_locations(Owner::Coin, None),
        )
    }

    /// Round-start configurations in which every correct process starts with
    /// the given value (all processes in `B_v`); the coin is unconstrained.
    pub fn unanimous_start_configurations(&self, value: BinValue) -> Vec<Configuration> {
        self.configurations_over(
            &self.model.border_locations(Owner::Process, Some(value)),
            &self.model.border_locations(Owner::Coin, None),
        )
    }

    // ------------------------------------------------------------------
    // Actions
    // ------------------------------------------------------------------

    /// The variable row of a round, borrowed from the configuration, or the
    /// all-zero row if the round was never materialised.
    #[inline]
    fn round_vars_ref<'a>(&'a self, cfg: &'a Configuration, round: u32) -> &'a [u64] {
        cfg.vars_slice(round).unwrap_or(&self.zero_vars)
    }

    /// The compiled guard bounds of every rule, evaluated at this system's
    /// (fixed) parameter valuation: one `(relation, bound)` pair per guard
    /// atom, in rule order.  Two systems over the same model differ in
    /// behaviour exactly where these bounds differ (branches, increments and
    /// probabilities are valuation-independent), which is what lets the
    /// checker's incremental sweep classify a valuation step as
    /// relaxing/tightening per rule (see `ccchecker`'s "Incremental sweeps"
    /// docs).
    pub fn guard_bounds(&self) -> Vec<Vec<(GuardRel, i128)>> {
        self.rules
            .iter()
            .map(|r| r.guard.iter().map(|g| (g.rel, g.bound)).collect())
            .collect()
    }

    /// Whether the guard of `rule` holds on a packed row's variable bytes at
    /// the compiled (current-valuation) bounds.
    pub fn rule_guard_holds_bytes(&self, rule: RuleId, vars: &[u8]) -> bool {
        self.rules[rule.0].guard_holds_bytes(vars)
    }

    /// [`CounterSystem::rule_guard_holds_bytes`] with explicit bounds
    /// substituted for the compiled ones (one per guard atom, in atom
    /// order).  This is how the incremental sweep re-evaluates a rule's
    /// guard *at a previous valuation* on stored state rows without keeping
    /// the previous system alive.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `bounds` does not match the rule's atom
    /// count.
    pub fn rule_guard_holds_bytes_at(&self, rule: RuleId, vars: &[u8], bounds: &[i128]) -> bool {
        let guard = &self.rules[rule.0].guard;
        debug_assert_eq!(guard.len(), bounds.len(), "bounds per atom");
        guard
            .iter()
            .zip(bounds)
            .all(|(g, &b)| g.rel.holds(g.atom.lhs_value_bytes(vars), b))
    }

    /// Whether the action is applicable: its rule is unlocked and the source
    /// location counter is at least one.
    pub fn is_applicable(&self, cfg: &Configuration, action: Action) -> bool {
        let rule = &self.rules[action.rule.0];
        cfg.counter(rule.from, action.round) >= 1
            && rule.guard_holds(self.round_vars_ref(cfg, action.round))
    }

    /// The round that the destination of a rule lands in: round-switch rules
    /// of multi-round models move the automaton to the next round.
    fn destination_round(&self, rule: RuleId, round: u32) -> u32 {
        if self.multi_round && self.rules[rule.0].round_switch {
            round + 1
        } else {
            round
        }
    }

    /// Applies action `α` with probabilistic outcome `branch`, producing
    /// `apply(α, c, ℓ)` from the paper.
    ///
    /// # Errors
    ///
    /// Returns an error if the action is not applicable or the branch does
    /// not exist.
    pub fn apply(
        &self,
        cfg: &Configuration,
        action: Action,
        branch: usize,
    ) -> Result<Configuration, CounterError> {
        if !self.is_applicable(cfg, action) {
            return Err(CounterError::NotApplicable {
                action: action.to_string(),
            });
        }
        let rule = self.model.rule(action.rule);
        let branches = rule.branches();
        if branch >= branches.len() {
            return Err(CounterError::NoSuchBranch {
                action: action.to_string(),
                branch,
            });
        }
        let mut next = cfg.clone();
        next.decrement_counter(rule.from(), action.round);
        let dest_round = self.destination_round(action.rule, action.round);
        next.add_counter(branches[branch].to, dest_round, 1);
        for &(var, delta) in rule.update().increments() {
            next.add_var(var, action.round, delta);
        }
        Ok(next)
    }

    /// The rounds in which actions may currently fire: `0 ..= max active
    /// round` (at least round 0).
    pub fn active_rounds(&self, cfg: &Configuration) -> std::ops::RangeInclusive<u32> {
        0..=cfg.max_active_round().unwrap_or(0)
    }

    /// Applicable actions whose rule is not a self-loop (self-loops only
    /// produce stuttering and are irrelevant for reachability), in
    /// `(round, rule)` order.
    pub fn progress_actions(&self, cfg: &Configuration) -> Vec<Action> {
        let mut out = Vec::new();
        for round in self.active_rounds(cfg) {
            let Some(counters) = cfg.counters_slice(round) else {
                continue; // an unmaterialised round holds no automata
            };
            let vars = self.round_vars_ref(cfg, round);
            let round_start = out.len();
            for (loc, &count) in counters.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                for &rule_id in &self.progress_rules_from[loc] {
                    if self.rules[rule_id.0].guard_holds(vars) {
                        out.push(Action::new(rule_id, round));
                    }
                }
            }
            // restore global rule order within the round (the per-location
            // scan yields rules grouped by source location)
            out[round_start..].sort_unstable_by_key(|a| a.rule.0);
        }
        out
    }

    /// Whether no progress action is applicable (the configuration is
    /// terminal up to stuttering).
    pub fn is_terminal(&self, cfg: &Configuration) -> bool {
        for round in self.active_rounds(cfg) {
            let Some(counters) = cfg.counters_slice(round) else {
                continue;
            };
            let vars = self.round_vars_ref(cfg, round);
            for (loc, &count) in counters.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                for &rule_id in &self.progress_rules_from[loc] {
                    if self.rules[rule_id.0].guard_holds(vars) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// The byte-row fast engine for single-round systems.
///
/// In a single-round model every automaton and every variable lives in
/// round 0, so a configuration is exactly one fixed-stride byte row:
/// `locations ++ variables`, one byte per value.  The explicit-state
/// checker runs its entire search on these rows — guard evaluation, action
/// enumeration, delta application and incremental Zobrist hashing all
/// operate on `&[u8]` without ever materialising a [`Configuration`]
/// (states are decoded back only for counterexample reconstruction).
#[derive(Debug, Clone, Copy)]
pub struct RowEngine<'a> {
    sys: &'a CounterSystem,
    num_locations: usize,
    stride: usize,
}

impl<'a> RowEngine<'a> {
    /// A row engine over a single-round counter system.
    ///
    /// # Panics
    ///
    /// Panics if the model is multi-round (rows cannot represent round
    /// switches into later rounds).
    pub fn new(sys: &'a CounterSystem) -> Self {
        assert!(
            !sys.multi_round,
            "the row engine requires a single-round model"
        );
        let num_locations = sys.model.locations().len();
        RowEngine {
            sys,
            num_locations,
            stride: num_locations + sys.model.vars().len(),
        }
    }

    /// Bytes per row.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Encodes a round-0 configuration into a row (resized and overwritten).
    ///
    /// # Panics
    ///
    /// Panics if the configuration occupies a round other than 0 or holds a
    /// value above 255.
    pub fn encode_into(&self, cfg: &Configuration, out: &mut Vec<u8>) {
        assert!(
            cfg.max_active_round().unwrap_or(0) == 0,
            "row encoding requires a round-0 configuration"
        );
        out.clear();
        out.resize(self.stride, 0);
        if let Some(counters) = cfg.counters_slice(0) {
            for (i, &v) in counters.iter().enumerate() {
                assert!(v <= u8::MAX as u64, "counter {v} too large for a row");
                out[i] = v as u8;
            }
        }
        if let Some(vars) = cfg.vars_slice(0) {
            for (i, &v) in vars.iter().enumerate() {
                assert!(v <= u8::MAX as u64, "variable {v} too large for a row");
                out[self.num_locations + i] = v as u8;
            }
        }
    }

    /// Decodes a row back into a full configuration.
    pub fn decode(&self, row: &[u8]) -> Configuration {
        decode_row(row, self.num_locations, self.stride - self.num_locations)
    }

    #[inline]
    fn key(&self, slot: usize, value: u8) -> u64 {
        self.sys.zobrist[slot * ZOBRIST_VALUES + value as usize]
    }

    /// The Zobrist hash of a row (XOR of the keys of all non-zero values).
    /// [`RowEngine::for_each_successor`] maintains it incrementally.
    pub fn hash(&self, row: &[u8]) -> u64 {
        let mut hash = 0u64;
        for (slot, &v) in row.iter().enumerate() {
            if v > 0 {
                hash ^= self.key(slot, v);
            }
        }
        hash
    }

    /// Appends the applicable progress actions of the row to `out` (cleared
    /// first), in rule order — the same order the `Configuration`-based
    /// enumeration produces.
    ///
    /// The row fits in a cache line or two, so a linear pass over the
    /// compact `(rule, source slot)` table with one byte test per rule
    /// beats gathering per occupied location and re-sorting.
    pub fn progress_actions_into(&self, row: &[u8], out: &mut Vec<Action>) {
        out.clear();
        let vars = &row[self.num_locations..];
        for &(rule_idx, from) in &self.sys.progress_compact {
            if row[from as usize] == 0 {
                continue;
            }
            let rule = &self.sys.rules[rule_idx as usize];
            if rule
                .guard
                .iter()
                .all(|g| g.rel.holds(g.atom.lhs_value_bytes(vars), g.bound))
            {
                out.push(Action::new(RuleId(rule_idx as usize), 0));
            }
        }
    }

    /// Visits every positive-probability successor row of an applicable
    /// action by applying and undoing byte deltas in place, maintaining the
    /// row's Zobrist hash incrementally in O(1) per delta.  After the call
    /// (including on early exit) `row` holds its original bytes.
    ///
    /// `visit` receives the branch index, its probability, the successor
    /// row and its hash; returning [`ControlFlow::Break`] stops the visit.
    /// The caller must have established applicability (e.g. with
    /// [`RowEngine::progress_actions_into`]); it is not re-checked.
    pub fn for_each_successor<B>(
        &self,
        row: &mut [u8],
        action: Action,
        hash: u64,
        mut visit: impl FnMut(usize, Probability, &[u8], u64) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let rule = &self.sys.rules[action.rule.0];
        let from = rule.from.0;
        debug_assert!(row[from] >= 1, "expand of inapplicable {action}");
        let mut base = hash;
        base ^= self.key(from, row[from]) ^ self.key(from, row[from] - 1);
        row[from] -= 1;
        for &(var, delta) in &rule.increments {
            let slot = self.num_locations + var.0;
            let old = row[slot];
            let new = old as u64 + delta;
            debug_assert!(new <= u8::MAX as u64, "variable overflow in row");
            base ^= self.key(slot, old) ^ self.key(slot, new as u8);
            row[slot] = new as u8;
        }
        let mut flow = ControlFlow::Continue(());
        for &(branch, to, prob) in &rule.branches {
            let slot = to.0;
            let succ_hash = base ^ self.key(slot, row[slot]) ^ self.key(slot, row[slot] + 1);
            row[slot] += 1;
            let result = visit(branch, prob, row, succ_hash);
            row[slot] -= 1;
            if let ControlFlow::Break(b) = result {
                flow = ControlFlow::Break(b);
                break;
            }
        }
        for &(var, delta) in &rule.increments {
            let slot = self.num_locations + var.0;
            row[slot] -= delta as u8;
        }
        row[from] += 1;
        flow
    }
}

/// Decodes a state row (`locations ++ variables`, one byte per value) back
/// into a round-0 configuration.  Shared by [`RowEngine::decode`] and the
/// checker's state store so the row layout is interpreted in exactly one
/// place.
pub fn decode_row(row: &[u8], num_locations: usize, num_vars: usize) -> Configuration {
    assert_eq!(row.len(), num_locations + num_vars, "row length mismatch");
    let mut cfg = Configuration::zero(num_locations, num_vars);
    for (i, &v) in row.iter().enumerate() {
        if v > 0 {
            if i < num_locations {
                cfg.set_counter(LocId(i), 0, v as u64);
            } else {
                cfg.set_var(VarId(i - num_locations), 0, v as u64);
            }
        }
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{small_params, voting_model};

    fn system() -> CounterSystem {
        CounterSystem::new(voting_model(), small_params()).unwrap()
    }

    #[test]
    fn construction_checks_admissibility() {
        let err =
            CounterSystem::new(voting_model(), ParamValuation::new(vec![3, 1, 1, 1])).unwrap_err();
        assert!(matches!(err, CounterError::NotAdmissible { .. }));
        let sys = system();
        assert_eq!(sys.num_processes(), 3);
        assert_eq!(sys.num_coins(), 1);
    }

    #[test]
    fn initial_configurations_cover_all_splits() {
        let sys = system();
        // 3 processes over {I0, I1} -> 4 splits; 1 coin over {IC} -> 1
        let inits = sys.initial_configurations();
        assert_eq!(inits.len(), 4);
        for cfg in &inits {
            assert_eq!(cfg.total_in_round(0), 4); // 3 processes + 1 coin
            assert_eq!(cfg.round_vars(0), vec![0, 0, 0, 0]);
        }
        // round-start configurations distribute over border locations
        let starts = sys.round_start_configurations();
        assert_eq!(starts.len(), 4);
        let unanimous = sys.unanimous_start_configurations(BinValue::Zero);
        assert_eq!(unanimous.len(), 1);
        let j0 = sys.model().location_id("J0").unwrap();
        assert_eq!(unanimous[0].counter(j0, 0), 3);
    }

    #[test]
    fn guard_unlocking_follows_shared_variables() {
        let sys = system();
        let model = sys.model().clone();
        let maj0 = model.rule_id("maj0").unwrap();
        // one process in maj0's source in rounds 0 and 1, so only the guard
        // decides applicability
        let mut cfg = sys.empty_configuration();
        let source = model.location_id("S").unwrap();
        cfg.add_counter(source, 0, 1);
        cfg.add_counter(source, 1, 1);
        // quorum is n - t - f = 2
        assert!(!sys.is_applicable(&cfg, Action::new(maj0, 0)));
        cfg.add_var(model.var_id("v0").unwrap(), 0, 2);
        assert!(sys.is_applicable(&cfg, Action::new(maj0, 0)));
        // guard of another round still locked
        assert!(!sys.is_applicable(&cfg, Action::new(maj0, 1)));
    }

    #[test]
    fn apply_moves_one_process_and_updates_variables() {
        let sys = system();
        let model = sys.model().clone();
        let i0 = model.location_id("I0").unwrap();
        let s = model.location_id("S").unwrap();
        let v0 = model.var_id("v0").unwrap();
        let bcast0 = model.rule_id("bcast0").unwrap();

        let mut cfg = sys.empty_configuration();
        cfg.add_counter(i0, 0, 3);
        cfg.add_counter(model.location_id("IC").unwrap(), 0, 1);

        let action = Action::new(bcast0, 0);
        assert!(sys.is_applicable(&cfg, action));
        let next = sys.apply(&cfg, action, 0).unwrap();
        assert_eq!(next.counter(i0, 0), 2);
        assert_eq!(next.counter(s, 0), 1);
        assert_eq!(next.var(v0, 0), 1);
        // original configuration untouched
        assert_eq!(cfg.counter(i0, 0), 3);
    }

    #[test]
    fn apply_rejects_locked_or_empty_source() {
        let sys = system();
        let model = sys.model().clone();
        let maj0 = model.rule_id("maj0").unwrap();
        let cfg = sys.empty_configuration();
        let err = sys.apply(&cfg, Action::new(maj0, 0), 0).unwrap_err();
        assert!(matches!(err, CounterError::NotApplicable { .. }));
    }

    #[test]
    fn apply_rejects_missing_branch() {
        let sys = system();
        let model = sys.model().clone();
        let bcast0 = model.rule_id("bcast0").unwrap();
        let mut cfg = sys.empty_configuration();
        cfg.add_counter(model.location_id("I0").unwrap(), 0, 1);
        let err = sys.apply(&cfg, Action::new(bcast0, 0), 5).unwrap_err();
        assert!(matches!(err, CounterError::NoSuchBranch { .. }));
    }

    #[test]
    fn round_switch_moves_to_next_round_in_multi_round_models() {
        let sys = system();
        let model = sys.model().clone();
        let e0 = model.location_id("E0").unwrap();
        let j0 = model.location_id("J0").unwrap();
        let switch = model
            .rule_ids()
            .find(|&r| model.rule(r).is_round_switch() && model.rule(r).from() == e0)
            .unwrap();
        let mut cfg = sys.empty_configuration();
        cfg.add_counter(e0, 0, 1);
        let next = sys.apply(&cfg, Action::new(switch, 0), 0).unwrap();
        assert_eq!(next.counter(e0, 0), 0);
        assert_eq!(next.counter(j0, 1), 1);
        assert_eq!(next.max_active_round(), Some(1));
    }

    #[test]
    fn round_switch_stays_in_round_for_single_round_models() {
        let rd = voting_model().single_round().unwrap();
        let sys = CounterSystem::new(rd, small_params()).unwrap();
        let model = sys.model().clone();
        let e0 = model.location_id("E0").unwrap();
        let j0_copy = model.location_id("J0'").unwrap();
        let switch = model
            .rule_ids()
            .find(|&r| model.rule(r).is_round_switch() && model.rule(r).from() == e0)
            .unwrap();
        let mut cfg = sys.empty_configuration();
        cfg.add_counter(e0, 0, 1);
        let next = sys.apply(&cfg, Action::new(switch, 0), 0).unwrap();
        assert_eq!(next.counter(j0_copy, 0), 1);
        assert_eq!(next.max_active_round(), Some(0));
    }

    #[test]
    fn probabilistic_outcomes_enumerate_branches() {
        let sys = system();
        let model = sys.model().clone();
        let toss = model.rule_id("toss").unwrap();
        let ic = model.location_id("IC").unwrap();
        let mut cfg = sys.empty_configuration();
        cfg.add_counter(ic, 0, 1);
        let action = Action::new(toss, 0);
        let branches = model.rule(toss).branches();
        assert_eq!(branches.len(), 2);
        assert!(branches.iter().all(|b| b.prob == Probability::HALF));
        let h0 = model.location_id("H0").unwrap();
        let h1 = model.location_id("H1").unwrap();
        assert_eq!(sys.apply(&cfg, action, 0).unwrap().counter(h0, 0), 1);
        assert_eq!(sys.apply(&cfg, action, 1).unwrap().counter(h1, 0), 1);
    }

    #[test]
    fn applicable_and_progress_actions() {
        let sys = system();
        let inits = sys.initial_configurations();
        // all processes with value 0: progress actions are bcast0 and the toss
        let all_zero = inits
            .iter()
            .find(|c| c.counter(sys.model().location_id("I0").unwrap(), 0) == 3)
            .unwrap();
        let actions = sys.progress_actions(all_zero);
        let names: Vec<&str> = actions
            .iter()
            .map(|a| sys.model().rule(a.rule).name())
            .collect();
        assert!(names.contains(&"bcast0"));
        assert!(names.contains(&"toss"));
        assert!(!names.contains(&"bcast1"));
        assert!(!sys.is_terminal(all_zero));
        // empty configuration is terminal
        assert!(sys.is_terminal(&sys.empty_configuration()));
    }

    #[test]
    fn shared_state_is_sync() {
        // the explorer shares one system (and row engines over it) across
        // worker threads; this must never regress to interior mutability
        fn assert_sync<T: Sync>() {}
        assert_sync::<CounterSystem>();
        assert_sync::<RowEngine<'static>>();
        assert_sync::<Configuration>();
    }

    #[test]
    #[should_panic(expected = "single-round")]
    fn row_engine_rejects_multi_round_models() {
        let sys = system();
        let _ = RowEngine::new(&sys);
    }

    #[test]
    fn row_engine_matches_the_configuration_semantics() {
        let rd = voting_model().single_round().unwrap();
        let sys = CounterSystem::new(rd, small_params()).unwrap();
        let engine = RowEngine::new(&sys);
        let mut row = Vec::new();
        for cfg in sys.round_start_configurations() {
            engine.encode_into(&cfg, &mut row);
            assert_eq!(row.len(), engine.stride());
            // encode/decode round-trips
            assert_eq!(engine.decode(&row), cfg);
            // action enumeration agrees with the configuration-based one
            let mut actions = Vec::new();
            engine.progress_actions_into(&row, &mut actions);
            assert_eq!(actions, sys.progress_actions(&cfg));
            // successors agree with `apply` per action and positive-probability
            // branch, their incrementally maintained hashes agree with a
            // from-scratch row hash, and the row is restored after
            let hash = engine.hash(&row);
            for action in actions {
                let rule = sys.model().rule(action.rule);
                let branches: Vec<usize> = (0..rule.branches().len())
                    .filter(|&b| !rule.branches()[b].prob.is_zero())
                    .collect();
                let snapshot = row.clone();
                let mut seen = 0;
                let _ =
                    engine.for_each_successor(&mut row, action, hash, |branch, prob, succ, h| {
                        assert_eq!(branch, branches[seen]);
                        assert_eq!(prob, rule.branches()[branch].prob);
                        assert_eq!(
                            engine.decode(succ),
                            sys.apply(&cfg, action, branch).unwrap()
                        );
                        assert_eq!(h, engine.hash(succ));
                        seen += 1;
                        ControlFlow::<()>::Continue(())
                    });
                assert_eq!(seen, branches.len());
                assert_eq!(row, snapshot);
            }
        }
    }
}
