//! The combined system model: a threshold automaton for correct processes
//! plus a probabilistic threshold automaton for the common coin, sharing one
//! variable alphabet (Sect. III-B of the paper).

use crate::env::Environment;
use crate::error::ModelError;
use crate::guard::GuardKind;
use crate::location::{BinValue, LocClass, LocId, Location, Owner};
use crate::rule::{Rule, RuleId};
use crate::variable::{VarId, VarKind, Variable};
use std::collections::HashMap;
use std::fmt;

/// Whether a model still has its multi-round structure or has been rewritten
/// into the single-round automaton of Definition 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// The original multi-round automaton with round-switch rules.
    MultiRound,
    /// The single-round automaton `TA_rd` with border copies `B'`.
    SingleRound,
}

/// Aggregate size statistics, used for the `|L|` / `|R|` columns of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelStats {
    /// Locations of the correct-process automaton.
    pub process_locations: usize,
    /// Rules of the correct-process automaton.
    pub process_rules: usize,
    /// Locations of the common-coin automaton.
    pub coin_locations: usize,
    /// Rules of the common-coin automaton.
    pub coin_rules: usize,
    /// Shared variables.
    pub shared_vars: usize,
    /// Coin variables.
    pub coin_vars: usize,
}

/// A complete model: environment, shared variable alphabet, the locations and
/// rules of both automata.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemModel {
    name: String,
    env: Environment,
    vars: Vec<Variable>,
    locations: Vec<Location>,
    rules: Vec<Rule>,
    kind: ModelKind,
}

impl SystemModel {
    /// Assembles a model from raw parts and validates it.
    ///
    /// Prefer [`crate::SystemBuilder`] for constructing models by hand.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if the model violates the structural
    /// restrictions of threshold automata with common coins.
    pub fn new(
        name: impl Into<String>,
        env: Environment,
        vars: Vec<Variable>,
        locations: Vec<Location>,
        rules: Vec<Rule>,
        kind: ModelKind,
    ) -> Result<Self, ModelError> {
        let model = SystemModel {
            name: name.into(),
            env,
            vars,
            locations,
            rules,
            kind,
        };
        model.validate()?;
        Ok(model)
    }

    /// The model name (protocol name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A copy of the model under a different name (used when a model
    /// transformation produces the automaton of another protocol).
    pub fn renamed(&self, name: impl Into<String>) -> SystemModel {
        SystemModel {
            name: name.into(),
            ..self.clone()
        }
    }

    /// The environment `Env = (Π, RC, N)`.
    pub fn env(&self) -> &Environment {
        &self.env
    }

    /// All declared variables.
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    /// All locations of both automata.
    pub fn locations(&self) -> &[Location] {
        &self.locations
    }

    /// All rules of both automata.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Multi-round or single-round.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Looks up a location by id.
    pub fn location(&self, id: LocId) -> &Location {
        &self.locations[id.0]
    }

    /// Looks up a rule by id.
    pub fn rule(&self, id: RuleId) -> &Rule {
        &self.rules[id.0]
    }

    /// Looks up a variable by id.
    pub fn var(&self, id: VarId) -> &Variable {
        &self.vars[id.0]
    }

    /// Finds a location by name.
    pub fn location_id(&self, name: &str) -> Option<LocId> {
        self.locations
            .iter()
            .position(|l| l.name() == name)
            .map(LocId)
    }

    /// Finds a variable by name.
    pub fn var_id(&self, name: &str) -> Option<VarId> {
        self.vars.iter().position(|v| v.name() == name).map(VarId)
    }

    /// Finds a rule by name.
    pub fn rule_id(&self, name: &str) -> Option<RuleId> {
        self.rules.iter().position(|r| r.name() == name).map(RuleId)
    }

    /// Iterates over all location ids.
    pub fn loc_ids(&self) -> impl Iterator<Item = LocId> + '_ {
        (0..self.locations.len()).map(LocId)
    }

    /// Iterates over all rule ids.
    pub fn rule_ids(&self) -> impl Iterator<Item = RuleId> + '_ {
        (0..self.rules.len()).map(RuleId)
    }

    /// Ids of all locations matching a predicate.
    pub fn locations_where(&self, mut pred: impl FnMut(&Location) -> bool) -> Vec<LocId> {
        self.locations
            .iter()
            .enumerate()
            .filter(|(_, l)| pred(l))
            .map(|(i, _)| LocId(i))
            .collect()
    }

    /// Locations of the given automaton.
    pub fn locations_of(&self, owner: Owner) -> Vec<LocId> {
        self.locations_where(|l| l.owner() == owner)
    }

    /// Border locations of the given automaton (optionally filtered by value).
    pub fn border_locations(&self, owner: Owner, value: Option<BinValue>) -> Vec<LocId> {
        self.locations_where(|l| {
            l.owner() == owner && l.is_border() && (value.is_none() || l.value() == value)
        })
    }

    /// Initial locations of the given automaton (optionally filtered by value).
    pub fn initial_locations(&self, owner: Owner, value: Option<BinValue>) -> Vec<LocId> {
        self.locations_where(|l| {
            l.owner() == owner && l.is_initial() && (value.is_none() || l.value() == value)
        })
    }

    /// Final locations of the given automaton (optionally filtered by value).
    pub fn final_locations(&self, owner: Owner, value: Option<BinValue>) -> Vec<LocId> {
        self.locations_where(|l| {
            l.owner() == owner && l.is_final() && (value.is_none() || l.value() == value)
        })
    }

    /// Decision locations (optionally filtered by value).
    pub fn decision_locations(&self, value: Option<BinValue>) -> Vec<LocId> {
        self.locations_where(|l| l.is_decision() && (value.is_none() || l.value() == value))
    }

    /// Shared variables.
    pub fn shared_vars(&self) -> Vec<VarId> {
        (0..self.vars.len())
            .filter(|&i| self.vars[i].kind() == VarKind::Shared)
            .map(VarId)
            .collect()
    }

    /// Coin variables.
    pub fn coin_vars(&self) -> Vec<VarId> {
        (0..self.vars.len())
            .filter(|&i| self.vars[i].kind() == VarKind::Coin)
            .map(VarId)
            .collect()
    }

    /// Rules whose source is the given location.
    pub fn rules_from(&self, loc: LocId) -> Vec<RuleId> {
        self.rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.from() == loc)
            .map(|(i, _)| RuleId(i))
            .collect()
    }

    /// Rules with a branch into the given location.
    pub fn rules_into(&self, loc: LocId) -> Vec<RuleId> {
        self.rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.branches().iter().any(|b| b.to == loc))
            .map(|(i, _)| RuleId(i))
            .collect()
    }

    /// Rules of the given automaton.
    pub fn rules_of(&self, owner: Owner) -> Vec<RuleId> {
        self.rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.owner() == owner)
            .map(|(i, _)| RuleId(i))
            .collect()
    }

    /// Number of locations of the correct-process automaton (`|L|` in Table II).
    pub fn process_location_count(&self) -> usize {
        self.locations_of(Owner::Process).len()
    }

    /// Number of rules of the correct-process automaton (`|R|` in Table II).
    pub fn process_rule_count(&self) -> usize {
        self.rules_of(Owner::Process).len()
    }

    /// Aggregate statistics for reporting.
    pub fn stats(&self) -> ModelStats {
        ModelStats {
            process_locations: self.process_location_count(),
            process_rules: self.process_rule_count(),
            coin_locations: self.locations_of(Owner::Coin).len(),
            coin_rules: self.rules_of(Owner::Coin).len(),
            shared_vars: self.shared_vars().len(),
            coin_vars: self.coin_vars().len(),
        }
    }

    /// Renders a rule with names resolved (location/variable/parameter names).
    pub fn describe_rule(&self, id: RuleId) -> String {
        let r = self.rule(id);
        let from = self.location(r.from()).name();
        let to = if let Some(t) = r.dirac_to() {
            self.location(t).name().to_string()
        } else {
            let branches: Vec<String> = r
                .branches()
                .iter()
                .map(|b| format!("{}: {}", self.location(b.to).name(), b.prob))
                .collect();
            format!("{{{}}}", branches.join(", "))
        };
        format!(
            "{}: {} -> {} [{}] {}",
            r.name(),
            from,
            to,
            r.guard().display_with(&self.vars, self.env.param_names()),
            r.update().display_with(&self.vars)
        )
    }

    // ------------------------------------------------------------------
    // Definition 3: the single-round automaton TA_rd.
    // ------------------------------------------------------------------

    /// Builds the single-round automaton `TA_rd` of Definition 3:
    ///
    /// * every border location `ℓ ∈ B` gets a copy `ℓ' ∈ B'`;
    /// * round-switch rules are redirected to the copies;
    /// * each copy carries a self-loop `(ℓ', ℓ', true, 0)`.
    ///
    /// The construction is applied to both the process and the coin
    /// automaton.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotMultiRound`] if the model is already a
    /// single-round model.
    pub fn single_round(&self) -> Result<SystemModel, ModelError> {
        if self.kind != ModelKind::MultiRound {
            return Err(ModelError::NotMultiRound);
        }
        let mut locations = self.locations.clone();
        let mut copies: HashMap<LocId, LocId> = HashMap::new();
        for (i, loc) in self.locations.iter().enumerate() {
            if loc.is_border() {
                let copy = loc
                    .with_class(LocClass::BorderCopy)
                    .with_name(format!("{}'", loc.name()));
                locations.push(copy);
                copies.insert(LocId(i), LocId(locations.len() - 1));
            }
        }
        let mut rules = Vec::with_capacity(self.rules.len() + copies.len());
        for r in &self.rules {
            if r.is_round_switch() {
                let target = r
                    .dirac_to()
                    .expect("round-switch rules are Dirac by construction");
                let copy = copies
                    .get(&target)
                    .expect("round-switch target must be a border location");
                rules.push(r.redirect_to(*copy).with_name(format!("{}'", r.name())));
            } else {
                rules.push(r.clone());
            }
        }
        for (orig, copy) in &copies {
            let owner = self.location(*orig).owner();
            let name = format!("loop_{}", self.location(*orig).name());
            rules.push(Rule::dirac(
                name,
                *copy,
                *copy,
                crate::guard::Guard::top(),
                crate::rule::Update::none(),
                owner,
            ));
        }
        Ok(SystemModel {
            name: format!("{}_rd", self.name),
            env: self.env.clone(),
            vars: self.vars.clone(),
            locations,
            rules,
            kind: ModelKind::SingleRound,
        })
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Checks all structural restrictions.  Called by [`SystemModel::new`]
    /// and by [`crate::SystemBuilder::build`].
    pub fn validate(&self) -> Result<(), ModelError> {
        self.validate_names()?;
        self.validate_rule_restrictions()?;
        self.validate_canonicity()?;
        if self.kind == ModelKind::MultiRound {
            self.validate_round_structure()?;
        }
        Ok(())
    }

    fn validate_names(&self) -> Result<(), ModelError> {
        let mut seen = HashMap::new();
        for l in &self.locations {
            if seen.insert(l.name().to_string(), ()).is_some() {
                return Err(ModelError::DuplicateName {
                    name: l.name().to_string(),
                });
            }
        }
        let mut seen = HashMap::new();
        for v in &self.vars {
            if seen.insert(v.name().to_string(), ()).is_some() {
                return Err(ModelError::DuplicateName {
                    name: v.name().to_string(),
                });
            }
        }
        Ok(())
    }

    fn validate_rule_restrictions(&self) -> Result<(), ModelError> {
        for r in &self.rules {
            let rule_name = r.name().to_string();
            // rules stay within one automaton
            let from_owner = self.location(r.from()).owner();
            if from_owner != r.owner()
                || r.branches()
                    .iter()
                    .any(|b| self.location(b.to).owner() != r.owner())
            {
                return Err(ModelError::CrossAutomatonRule { rule: rule_name });
            }
            if !r.probabilities_sum_to_one() {
                return Err(ModelError::ProbabilitiesDoNotSumToOne { rule: rule_name });
            }
            let guard_kind = r.guard().kind(&self.vars);
            if guard_kind == GuardKind::Mixed {
                return Err(ModelError::MixedGuard { rule: rule_name });
            }
            match r.owner() {
                Owner::Process => {
                    if !r.is_dirac() {
                        return Err(ModelError::ProcessRuleNotDirac { rule: rule_name });
                    }
                    if r.update()
                        .touches(|v| self.vars[v.0].kind() == VarKind::Coin)
                    {
                        return Err(ModelError::ProcessUpdatesCoinVariable { rule: rule_name });
                    }
                }
                Owner::Coin => {
                    if guard_kind == GuardKind::Coin {
                        return Err(ModelError::CoinRuleWithCoinGuard { rule: rule_name });
                    }
                    if r.update()
                        .touches(|v| self.vars[v.0].kind() == VarKind::Shared)
                    {
                        return Err(ModelError::CoinUpdatesSharedVariable { rule: rule_name });
                    }
                }
            }
        }
        for (i, l) in self.locations.iter().enumerate() {
            if l.is_decision() && !l.is_final() {
                let _ = i;
                return Err(ModelError::DecisionNotFinal {
                    location: l.name().to_string(),
                });
            }
        }
        Ok(())
    }

    /// Canonical automata: every rule on a cycle has a zero update.
    ///
    /// Round-switch rules are excluded from the cycle graph: in the
    /// multi-round semantics they connect *different* rounds, whose variable
    /// copies are disjoint, so a cycle through a round-switch rule cannot
    /// pump a shared variable.
    fn validate_canonicity(&self) -> Result<(), ModelError> {
        let scc = self.location_sccs();
        for r in &self.rules {
            if r.update().is_empty() || r.is_round_switch() {
                continue;
            }
            let from_comp = scc[r.from().0];
            let on_cycle = r.branches().iter().any(|b| {
                b.to == r.from() || scc[b.to.0] == from_comp && self.scc_has_cycle(&scc, from_comp)
            });
            if on_cycle {
                return Err(ModelError::NotCanonical {
                    rule: r.name().to_string(),
                });
            }
        }
        Ok(())
    }

    fn scc_has_cycle(&self, scc: &[usize], comp: usize) -> bool {
        // A component has a cycle if it contains more than one location or a
        // self-loop rule.
        let members: Vec<usize> = (0..self.locations.len())
            .filter(|&i| scc[i] == comp)
            .collect();
        if members.len() > 1 {
            return true;
        }
        let only = members[0];
        self.rules.iter().any(|r| {
            !r.is_round_switch()
                && r.from().0 == only
                && r.branches().iter().any(|b| b.to.0 == only)
        })
    }

    /// Computes strongly connected components over the location graph
    /// (edges = rule branches, excluding round-switch rules).  Returns, for
    /// each location, its component id.
    fn location_sccs(&self) -> Vec<usize> {
        let n = self.locations.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut radj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for r in &self.rules {
            if r.is_round_switch() {
                continue;
            }
            for b in r.branches() {
                adj[r.from().0].push(b.to.0);
                radj[b.to.0].push(r.from().0);
            }
        }
        // Kosaraju: first pass - order by finish time (iterative DFS)
        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        for start in 0..n {
            if visited[start] {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            visited[start] = true;
            while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
                if *idx < adj[node].len() {
                    let next = adj[node][*idx];
                    *idx += 1;
                    if !visited[next] {
                        visited[next] = true;
                        stack.push((next, 0));
                    }
                } else {
                    order.push(node);
                    stack.pop();
                }
            }
        }
        // second pass on reverse graph
        let mut comp = vec![usize::MAX; n];
        let mut current = 0usize;
        for &start in order.iter().rev() {
            if comp[start] != usize::MAX {
                continue;
            }
            let mut stack = vec![start];
            comp[start] = current;
            while let Some(node) = stack.pop() {
                for &prev in &radj[node] {
                    if comp[prev] == usize::MAX {
                        comp[prev] = current;
                        stack.push(prev);
                    }
                }
            }
            current += 1;
        }
        comp
    }

    fn validate_round_structure(&self) -> Result<(), ModelError> {
        for owner in [Owner::Process, Owner::Coin] {
            let borders = self.border_locations(owner, None);
            let initials = self.initial_locations(owner, None);
            if borders.is_empty() && initials.is_empty() {
                // The owner automaton may be absent (e.g. local-coin models);
                // nothing to check.
                continue;
            }
            if borders.len() != initials.len() {
                return Err(ModelError::BorderInitialMismatch {
                    owner: format!("{owner}"),
                });
            }
            // Border locations: exactly one outgoing rule (ℓ, ℓ', true, 0)
            // into an initial location of matching value.
            for &b in &borders {
                let out = self.rules_from(b);
                if out.len() != 1 {
                    return Err(ModelError::BadBorderRule {
                        rule: format!("outgoing rules of {}", self.location(b).name()),
                    });
                }
                let r = self.rule(out[0]);
                let to = match r.dirac_to() {
                    Some(t) => t,
                    None => {
                        return Err(ModelError::BadBorderRule {
                            rule: r.name().to_string(),
                        })
                    }
                };
                if !r.guard().is_true() || !r.update().is_empty() || !self.location(to).is_initial()
                {
                    return Err(ModelError::BadBorderRule {
                        rule: r.name().to_string(),
                    });
                }
                let (bv, iv) = (self.location(b).value(), self.location(to).value());
                if let (Some(bv), Some(iv)) = (bv, iv) {
                    if bv != iv {
                        return Err(ModelError::PartitionViolation {
                            rule: r.name().to_string(),
                        });
                    }
                }
                // border locations only receive round-switch rules
                for rin in self.rules_into(b) {
                    if !self.rule(rin).is_round_switch() {
                        return Err(ModelError::BadBorderRule {
                            rule: self.rule(rin).name().to_string(),
                        });
                    }
                }
            }
            // Final locations: exactly one outgoing rule, a round-switch rule.
            for &floc in &self.final_locations(owner, None) {
                let out = self.rules_from(floc);
                if out.len() != 1 || !self.rule(out[0]).is_round_switch() {
                    return Err(ModelError::BadFinalLocation {
                        location: self.location(floc).name().to_string(),
                    });
                }
            }
            // Round-switch rules go from final to border locations and respect
            // the value partition.
            for &rid in &self.rules_of(owner) {
                let r = self.rule(rid);
                if !r.is_round_switch() {
                    continue;
                }
                let to = r.dirac_to().ok_or_else(|| ModelError::BadRoundSwitchRule {
                    rule: r.name().to_string(),
                })?;
                if !self.location(r.from()).is_final() || !self.location(to).is_border() {
                    return Err(ModelError::BadRoundSwitchRule {
                        rule: r.name().to_string(),
                    });
                }
                let (fv, bv) = (self.location(r.from()).value(), self.location(to).value());
                if let (Some(fv), Some(bv)) = (fv, bv) {
                    if fv != bv {
                        return Err(ModelError::PartitionViolation {
                            rule: r.name().to_string(),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for SystemModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        write!(
            f,
            "{} ({:?}): |L|={} |R|={} (+{} coin locations, {} coin rules)",
            self.name,
            self.kind,
            stats.process_locations,
            stats.process_rules,
            stats.coin_locations,
            stats.coin_rules
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SystemBuilder;
    use crate::env::byzantine_common_coin_env;
    use crate::expr::LinearExpr;
    use crate::guard::Guard;
    use crate::rule::{Probability, Update};

    /// A tiny but structurally complete model used by several tests:
    /// processes broadcast their value and move to a final location once
    /// enough messages arrived or based on the coin; the coin automaton
    /// tosses a fair coin.
    fn tiny_model() -> SystemModel {
        let env = byzantine_common_coin_env(3);
        let k = env.num_params();
        let n = env.param_id("n").unwrap();
        let t = env.param_id("t").unwrap();
        let f = env.param_id("f").unwrap();
        let mut b = SystemBuilder::new("tiny", env.clone());
        let v0 = b.shared_var("v0");
        let v1 = b.shared_var("v1");
        let cc0 = b.coin_var("cc0");
        let cc1 = b.coin_var("cc1");

        let j0 = b.process_location("J0", LocClass::Border, Some(BinValue::Zero));
        let j1 = b.process_location("J1", LocClass::Border, Some(BinValue::One));
        let i0 = b.process_location("I0", LocClass::Initial, Some(BinValue::Zero));
        let i1 = b.process_location("I1", LocClass::Initial, Some(BinValue::One));
        let s = b.process_location("S", LocClass::Intermediate, None);
        let e0 = b.process_location("E0", LocClass::Final, Some(BinValue::Zero));
        let e1 = b.process_location("E1", LocClass::Final, Some(BinValue::One));

        b.start_rule(j0, i0);
        b.start_rule(j1, i1);
        b.rule("b0", i0, s, Guard::top(), Update::increment(v0));
        b.rule("b1", i1, s, Guard::top(), Update::increment(v1));
        let quorum = LinearExpr::param(k, n)
            .sub(&LinearExpr::param(k, t))
            .sub(&LinearExpr::param(k, f));
        b.rule("maj0", s, e0, Guard::ge(v0, quorum.clone()), Update::none());
        b.rule("maj1", s, e1, Guard::ge(v1, quorum), Update::none());
        b.rule(
            "coin0",
            s,
            e0,
            Guard::ge(cc0, LinearExpr::constant(k, 1)),
            Update::none(),
        );
        b.rule(
            "coin1",
            s,
            e1,
            Guard::ge(cc1, LinearExpr::constant(k, 1)),
            Update::none(),
        );
        b.round_switch(e0, j0);
        b.round_switch(e1, j1);

        let jc = b.coin_location("JC", LocClass::Border, None);
        let ic = b.coin_location("IC", LocClass::Initial, None);
        let n0 = b.coin_location("N0c", LocClass::Intermediate, None);
        let n1 = b.coin_location("N1c", LocClass::Intermediate, None);
        let c0 = b.coin_location("C0", LocClass::Final, Some(BinValue::Zero));
        let c1 = b.coin_location("C1", LocClass::Final, Some(BinValue::One));
        b.start_rule(jc, ic);
        b.coin_toss(
            "toss",
            ic,
            vec![(n0, Probability::HALF), (n1, Probability::HALF)],
            Guard::top(),
            Update::none(),
        );
        b.rule("rc", n0, c0, Guard::top(), Update::increment(cc0));
        b.rule("rd", n1, c1, Guard::top(), Update::increment(cc1));
        b.round_switch(c0, jc);
        b.round_switch(c1, jc);

        b.build().expect("tiny model should validate")
    }

    #[test]
    fn tiny_model_builds_and_reports_stats() {
        let m = tiny_model();
        let stats = m.stats();
        assert_eq!(stats.process_locations, 7);
        assert_eq!(stats.process_rules, 10);
        assert_eq!(stats.coin_locations, 6);
        assert_eq!(stats.coin_rules, 6);
        assert_eq!(stats.shared_vars, 2);
        assert_eq!(stats.coin_vars, 2);
        assert_eq!(m.process_location_count(), 7);
        assert_eq!(m.process_rule_count(), 10);
        assert!(format!("{m}").contains("tiny"));
    }

    #[test]
    fn lookup_by_name_works() {
        let m = tiny_model();
        let s = m.location_id("S").unwrap();
        assert_eq!(m.location(s).name(), "S");
        assert!(m.location_id("nope").is_none());
        let v0 = m.var_id("v0").unwrap();
        assert_eq!(m.var(v0).name(), "v0");
        let r = m.rule_id("maj0").unwrap();
        assert_eq!(m.rule(r).name(), "maj0");
    }

    #[test]
    fn partition_queries() {
        let m = tiny_model();
        assert_eq!(m.border_locations(Owner::Process, None).len(), 2);
        assert_eq!(
            m.border_locations(Owner::Process, Some(BinValue::Zero))
                .len(),
            1
        );
        assert_eq!(m.initial_locations(Owner::Process, None).len(), 2);
        assert_eq!(m.final_locations(Owner::Process, None).len(), 2);
        assert_eq!(m.final_locations(Owner::Coin, None).len(), 2);
        assert_eq!(m.decision_locations(None).len(), 0);
        assert_eq!(m.shared_vars().len(), 2);
        assert_eq!(m.coin_vars().len(), 2);
    }

    #[test]
    fn rules_from_and_into() {
        let m = tiny_model();
        let s = m.location_id("S").unwrap();
        assert_eq!(m.rules_from(s).len(), 4);
        let e0 = m.location_id("E0").unwrap();
        assert_eq!(m.rules_into(e0).len(), 2);
    }

    #[test]
    fn single_round_construction_follows_definition_3() {
        let m = tiny_model();
        let rd = m.single_round().unwrap();
        assert_eq!(rd.kind(), ModelKind::SingleRound);
        // 3 border locations (J0, J1, JC) get copies
        assert_eq!(rd.locations().len(), m.locations().len() + 3);
        let copies_of = |owner| rd.locations_where(|l| l.owner() == owner && l.is_border_copy());
        assert_eq!(copies_of(Owner::Process).len(), 2);
        assert_eq!(copies_of(Owner::Coin).len(), 1);
        // round-switch rules are redirected to copies, self-loops added
        let j0_copy = rd.location_id("J0'").unwrap();
        assert!(rd.location(j0_copy).is_border_copy());
        let redirected = rd
            .rules()
            .iter()
            .filter(|r| r.is_round_switch())
            .all(|r| rd.location(r.dirac_to().unwrap()).is_border_copy());
        assert!(redirected);
        let self_loops = rd.rules().iter().filter(|r| r.is_self_loop()).count();
        assert_eq!(self_loops, 3);
        // applying the construction twice is rejected
        assert_eq!(rd.single_round().unwrap_err(), ModelError::NotMultiRound);
    }

    #[test]
    fn validation_rejects_process_coin_variable_update() {
        let env = byzantine_common_coin_env(3);
        let mut b = SystemBuilder::new("bad", env);
        let cc0 = b.coin_var("cc0");
        let j0 = b.process_location("J0", LocClass::Border, Some(BinValue::Zero));
        let i0 = b.process_location("I0", LocClass::Initial, Some(BinValue::Zero));
        let e0 = b.process_location("E0", LocClass::Final, Some(BinValue::Zero));
        b.start_rule(j0, i0);
        b.rule("bad", i0, e0, Guard::top(), Update::increment(cc0));
        b.round_switch(e0, j0);
        let err = b.build().unwrap_err();
        assert_eq!(
            err,
            ModelError::ProcessUpdatesCoinVariable {
                rule: "bad".to_string()
            }
        );
    }

    #[test]
    fn validation_rejects_mixed_guards() {
        let env = byzantine_common_coin_env(3);
        let k = env.num_params();
        let mut b = SystemBuilder::new("bad", env);
        let v0 = b.shared_var("v0");
        let cc0 = b.coin_var("cc0");
        let j0 = b.process_location("J0", LocClass::Border, Some(BinValue::Zero));
        let i0 = b.process_location("I0", LocClass::Initial, Some(BinValue::Zero));
        let e0 = b.process_location("E0", LocClass::Final, Some(BinValue::Zero));
        b.start_rule(j0, i0);
        let guard =
            Guard::ge(v0, LinearExpr::constant(k, 1)).and_ge(cc0, LinearExpr::constant(k, 1));
        b.rule("mixed", i0, e0, guard, Update::none());
        b.round_switch(e0, j0);
        let err = b.build().unwrap_err();
        assert_eq!(
            err,
            ModelError::MixedGuard {
                rule: "mixed".to_string()
            }
        );
    }

    #[test]
    fn validation_rejects_noncanonical_cycles() {
        let env = byzantine_common_coin_env(3);
        let mut b = SystemBuilder::new("bad", env);
        let v0 = b.shared_var("v0");
        let j0 = b.process_location("J0", LocClass::Border, Some(BinValue::Zero));
        let i0 = b.process_location("I0", LocClass::Initial, Some(BinValue::Zero));
        let s = b.process_location("S", LocClass::Intermediate, None);
        let e0 = b.process_location("E0", LocClass::Final, Some(BinValue::Zero));
        b.start_rule(j0, i0);
        b.rule("go", i0, s, Guard::top(), Update::none());
        // self-loop with an update: not canonical
        b.rule("loop", s, s, Guard::top(), Update::increment(v0));
        b.rule("fin", s, e0, Guard::top(), Update::none());
        b.round_switch(e0, j0);
        let err = b.build().unwrap_err();
        assert_eq!(
            err,
            ModelError::NotCanonical {
                rule: "loop".to_string()
            }
        );
    }

    #[test]
    fn validation_rejects_bad_round_structure() {
        let env = byzantine_common_coin_env(3);
        let mut b = SystemBuilder::new("bad", env);
        let j0 = b.process_location("J0", LocClass::Border, Some(BinValue::Zero));
        let j1 = b.process_location("J1", LocClass::Border, Some(BinValue::One));
        let i0 = b.process_location("I0", LocClass::Initial, Some(BinValue::Zero));
        let e0 = b.process_location("E0", LocClass::Final, Some(BinValue::Zero));
        b.start_rule(j0, i0);
        // J1 has no outgoing rule at all -> |B| != |I| is detected first
        b.rule("go", i0, e0, Guard::top(), Update::none());
        b.round_switch(e0, j0);
        let _ = j1;
        let err = b.build().unwrap_err();
        assert!(matches!(err, ModelError::BorderInitialMismatch { .. }));
    }

    #[test]
    fn validation_rejects_partition_violation() {
        let env = byzantine_common_coin_env(3);
        let mut b = SystemBuilder::new("bad", env);
        let j0 = b.process_location("J0", LocClass::Border, Some(BinValue::Zero));
        let j1 = b.process_location("J1", LocClass::Border, Some(BinValue::One));
        let i0 = b.process_location("I0", LocClass::Initial, Some(BinValue::Zero));
        let i1 = b.process_location("I1", LocClass::Initial, Some(BinValue::One));
        let e0 = b.process_location("E0", LocClass::Final, Some(BinValue::Zero));
        let e1 = b.process_location("E1", LocClass::Final, Some(BinValue::One));
        b.start_rule(j0, i0);
        // J1 -> I1 is fine
        b.start_rule(j1, i1);
        b.rule("a", i0, e0, Guard::top(), Update::none());
        b.rule("b", i1, e1, Guard::top(), Update::none());
        b.round_switch(e0, j0);
        // E1 switches to J0: violates the value partition
        b.round_switch(e1, j0);
        let err = b.build().unwrap_err();
        assert!(matches!(err, ModelError::PartitionViolation { .. }));
    }

    #[test]
    fn validation_rejects_decision_outside_final() {
        let env = byzantine_common_coin_env(3);
        let locs = vec![Location::new(
            "D0",
            LocClass::Intermediate,
            Some(BinValue::Zero),
            true,
            Owner::Process,
        )];
        let err =
            SystemModel::new("bad", env, vec![], locs, vec![], ModelKind::MultiRound).unwrap_err();
        assert!(matches!(err, ModelError::DecisionNotFinal { .. }));
    }

    #[test]
    fn describe_rule_resolves_names() {
        let m = tiny_model();
        let r = m.rule_id("maj0").unwrap();
        let desc = m.describe_rule(r);
        assert!(desc.contains("S"));
        assert!(desc.contains("E0"));
        assert!(desc.contains("v0 >= n - t - f"));
        let toss = m.rule_id("toss").unwrap();
        let desc = m.describe_rule(toss);
        assert!(desc.contains("1/2"));
    }
}
