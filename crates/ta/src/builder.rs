//! Ergonomic construction of [`SystemModel`]s.

use crate::env::Environment;
use crate::error::ModelError;
use crate::guard::Guard;
use crate::location::{BinValue, LocClass, LocId, Location, Owner};
use crate::rule::{Branch, Probability, Rule, RuleId, Update};
use crate::system::{ModelKind, SystemModel};
use crate::variable::{VarId, VarKind, Variable};

/// Builder for a combined process + common-coin model.
///
/// Declaration methods panic on duplicate names (a programming error);
/// structural problems are reported by [`SystemBuilder::build`].
#[derive(Debug)]
pub struct SystemBuilder {
    name: String,
    env: Environment,
    vars: Vec<Variable>,
    locations: Vec<Location>,
    rules: Vec<Rule>,
    auto_rule_counter: usize,
}

impl SystemBuilder {
    /// Creates a builder for a model with the given name and environment.
    pub fn new(name: impl Into<String>, env: Environment) -> Self {
        SystemBuilder {
            name: name.into(),
            env,
            vars: Vec::new(),
            locations: Vec::new(),
            rules: Vec::new(),
            auto_rule_counter: 0,
        }
    }

    /// The environment the model is being built for.
    pub fn env(&self) -> &Environment {
        &self.env
    }

    fn check_new_var(&self, name: &str) {
        assert!(
            !self.vars.iter().any(|v| v.name() == name),
            "duplicate variable name {name:?}"
        );
    }

    fn check_new_loc(&self, name: &str) {
        assert!(
            !self.locations.iter().any(|l| l.name() == name),
            "duplicate location name {name:?}"
        );
    }

    /// Declares a shared variable.
    pub fn shared_var(&mut self, name: &str) -> VarId {
        self.check_new_var(name);
        self.vars.push(Variable::new(name, VarKind::Shared));
        VarId(self.vars.len() - 1)
    }

    /// Declares a coin variable.
    pub fn coin_var(&mut self, name: &str) -> VarId {
        self.check_new_var(name);
        self.vars.push(Variable::new(name, VarKind::Coin));
        VarId(self.vars.len() - 1)
    }

    /// Declares a location of the correct-process automaton.
    pub fn process_location(
        &mut self,
        name: &str,
        class: LocClass,
        value: Option<BinValue>,
    ) -> LocId {
        self.check_new_loc(name);
        self.locations
            .push(Location::new(name, class, value, false, Owner::Process));
        LocId(self.locations.len() - 1)
    }

    /// Declares a decision location (a final location marked accepting).
    pub fn decision_location(&mut self, name: &str, value: BinValue) -> LocId {
        self.check_new_loc(name);
        self.locations.push(Location::new(
            name,
            LocClass::Final,
            Some(value),
            true,
            Owner::Process,
        ));
        LocId(self.locations.len() - 1)
    }

    /// Declares a location of the common-coin automaton.
    pub fn coin_location(&mut self, name: &str, class: LocClass, value: Option<BinValue>) -> LocId {
        self.check_new_loc(name);
        self.locations
            .push(Location::new(name, class, value, false, Owner::Coin));
        LocId(self.locations.len() - 1)
    }

    fn owner_of(&self, loc: LocId) -> Owner {
        self.locations[loc.0].owner()
    }

    fn auto_name(&mut self, prefix: &str) -> String {
        self.auto_rule_counter += 1;
        format!("{prefix}{}", self.auto_rule_counter)
    }

    /// Adds a Dirac rule; the owning automaton is inferred from the source
    /// location.
    pub fn rule(
        &mut self,
        name: &str,
        from: LocId,
        to: LocId,
        guard: Guard,
        update: Update,
    ) -> RuleId {
        let owner = self.owner_of(from);
        self.rules
            .push(Rule::dirac(name, from, to, guard, update, owner));
        RuleId(self.rules.len() - 1)
    }

    /// Adds the rule `(border, initial, true, 0)` that starts a round.
    pub fn start_rule(&mut self, from: LocId, to: LocId) -> RuleId {
        let owner = self.owner_of(from);
        let name = self.auto_name("start_");
        self.rules.push(Rule::dirac(
            name,
            from,
            to,
            Guard::top(),
            Update::none(),
            owner,
        ));
        RuleId(self.rules.len() - 1)
    }

    /// Adds a round-switch rule `(final, border, true, 0)`.
    pub fn round_switch(&mut self, from: LocId, to: LocId) -> RuleId {
        let owner = self.owner_of(from);
        let name = self.auto_name("switch_");
        self.rules.push(Rule::round_switch(name, from, to, owner));
        RuleId(self.rules.len() - 1)
    }

    /// Adds a probabilistic rule of the common-coin automaton.
    pub fn coin_toss(
        &mut self,
        name: &str,
        from: LocId,
        branches: Vec<(LocId, Probability)>,
        guard: Guard,
        update: Update,
    ) -> RuleId {
        let owner = self.owner_of(from);
        let branches = branches
            .into_iter()
            .map(|(to, prob)| Branch::new(to, prob))
            .collect();
        self.rules.push(Rule::probabilistic(
            name, from, branches, guard, update, owner,
        ));
        RuleId(self.rules.len() - 1)
    }

    /// Finishes and validates the model.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] when the assembled model violates the
    /// structural restrictions of threshold automata with common coins.
    pub fn build(self) -> Result<SystemModel, ModelError> {
        SystemModel::new(
            self.name,
            self.env,
            self.vars,
            self.locations,
            self.rules,
            ModelKind::MultiRound,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::byzantine_common_coin_env;

    #[test]
    fn builder_counts_entities() {
        let env = byzantine_common_coin_env(3);
        let mut b = SystemBuilder::new("m", env);
        let _v = b.shared_var("v0");
        let j0 = b.process_location("J0", LocClass::Border, Some(BinValue::Zero));
        let i0 = b.process_location("I0", LocClass::Initial, Some(BinValue::Zero));
        let e0 = b.process_location("E0", LocClass::Final, Some(BinValue::Zero));
        b.start_rule(j0, i0);
        b.rule("go", i0, e0, Guard::top(), Update::none());
        b.round_switch(e0, j0);
        assert_eq!(b.env().num_params(), 4);
        let m = b.build().unwrap();
        assert_eq!(m.locations().len(), 3);
        assert_eq!(m.rules().len(), 3);
        assert_eq!(m.process_location_count(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate variable name")]
    fn duplicate_variable_panics() {
        let env = byzantine_common_coin_env(3);
        let mut b = SystemBuilder::new("m", env);
        b.shared_var("v0");
        b.coin_var("v0");
    }

    #[test]
    #[should_panic(expected = "duplicate location name")]
    fn duplicate_location_panics() {
        let env = byzantine_common_coin_env(3);
        let mut b = SystemBuilder::new("m", env);
        b.process_location("J0", LocClass::Border, None);
        b.coin_location("J0", LocClass::Border, None);
    }

    #[test]
    fn decision_location_is_final_and_accepting() {
        let env = byzantine_common_coin_env(3);
        let mut b = SystemBuilder::new("m", env);
        let d0 = b.decision_location("D0", BinValue::Zero);
        let j0 = b.process_location("J0", LocClass::Border, Some(BinValue::Zero));
        let i0 = b.process_location("I0", LocClass::Initial, Some(BinValue::Zero));
        b.start_rule(j0, i0);
        b.rule("go", i0, d0, Guard::top(), Update::none());
        b.round_switch(d0, j0);
        let m = b.build().unwrap();
        let d0 = m.location_id("D0").unwrap();
        assert!(m.location(d0).is_decision());
        assert!(m.location(d0).is_final());
        assert_eq!(m.decision_locations(Some(BinValue::Zero)), vec![d0]);
    }
}
