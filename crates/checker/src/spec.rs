//! The single-round query catalogue.
//!
//! All queries of the paper are built from two state predicates over location
//! counters (Table III):
//!
//! * `EX{S}` — at least one automaton occupies a location of `S`;
//! * `ALL{S}` — every automaton occupies a location of `S`.
//!
//! and four temporal shapes, captured by [`Spec`].

use cccounter::{Configuration, CounterSystem};
use ccprotocols::family::{FamilyObligation, FamilyObligationKind, FamilySet, FamilyStart};
use ccta::{BinValue, LocId, SystemModel};
use std::fmt;

/// A named set of locations used in a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocSet {
    name: String,
    locs: Vec<LocId>,
}

impl LocSet {
    /// Creates a location set.
    pub fn new(name: impl Into<String>, locs: Vec<LocId>) -> Self {
        LocSet {
            name: name.into(),
            locs,
        }
    }

    /// Builds a location set by resolving location names in a model.
    ///
    /// # Panics
    ///
    /// Panics if a name does not exist in the model.
    pub fn from_names(model: &SystemModel, name: impl Into<String>, names: &[&str]) -> Self {
        let locs = names
            .iter()
            .map(|n| {
                model
                    .location_id(n)
                    .unwrap_or_else(|| panic!("unknown location {n:?}"))
            })
            .collect();
        LocSet {
            name: name.into(),
            locs,
        }
    }

    /// Resolves a generated-family tracked set against a model.
    ///
    /// # Panics
    ///
    /// Panics if a location name of the set does not exist in the model.
    pub fn from_family(model: &SystemModel, set: &FamilySet) -> Self {
        let names: Vec<&str> = set.locations.iter().map(String::as_str).collect();
        LocSet::from_names(model, set.name.clone(), &names)
    }

    /// The set's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The locations in the set.
    pub fn locs(&self) -> &[LocId] {
        &self.locs
    }

    /// `EX{S}` in round 0: some automaton occupies a location of the set.
    pub fn is_occupied(&self, cfg: &Configuration) -> bool {
        self.locs.iter().any(|&l| cfg.counter(l, 0) > 0)
    }

    /// Number of automata occupying the set in round 0.
    pub fn occupancy(&self, cfg: &Configuration) -> u64 {
        self.locs.iter().map(|&l| cfg.counter(l, 0)).sum()
    }

    /// Renders the set as `{D0, D1}` using model location names.
    pub fn display_with(&self, model: &SystemModel) -> String {
        let names: Vec<&str> = self
            .locs
            .iter()
            .map(|&l| model.location(l).name())
            .collect();
        format!("{{{}}}", names.join(", "))
    }
}

impl fmt::Display for LocSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// Which configurations a query starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartRestriction {
    /// All round-start configurations `Σ_u`: every split of the correct
    /// processes over the border locations (Theorem 2).
    RoundStart,
    /// Only round-start configurations in which every correct process starts
    /// with the given value (all processes in `B_v`).
    Unanimous(BinValue),
    /// The initial configurations of the multi-round system (processes in
    /// initial locations), used when checking round 0 only.
    InitialLocations,
}

impl StartRestriction {
    /// The checker-side form of a generated-family start descriptor.
    pub fn from_family(start: FamilyStart) -> Self {
        match start {
            FamilyStart::RoundStart => StartRestriction::RoundStart,
            FamilyStart::Unanimous(v) => StartRestriction::Unanimous(v),
            FamilyStart::InitialLocations => StartRestriction::InitialLocations,
        }
    }

    /// Enumerates the matching start configurations of a counter system.
    pub fn configurations(&self, sys: &CounterSystem) -> Vec<Configuration> {
        match self {
            StartRestriction::RoundStart => sys.round_start_configurations(),
            StartRestriction::Unanimous(v) => sys.unanimous_start_configurations(*v),
            StartRestriction::InitialLocations => sys.initial_configurations(),
        }
    }

    /// Short label used in formula rendering.
    pub fn label(&self) -> String {
        match self {
            StartRestriction::RoundStart => "any round start".to_string(),
            StartRestriction::Unanimous(v) => format!("ALL{{B{}}}", v.index()),
            StartRestriction::InitialLocations => "initial configurations".to_string(),
        }
    }
}

/// A single-round query.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    /// `A (F EX{trigger} → G ¬EX{forbidden})`: once a location of `trigger`
    /// is ever occupied, no location of `forbidden` is ever occupied on the
    /// same path.  This is the shape of `Inv1` and of the binding conditions
    /// `CB0`–`CB4`.
    CoverNever {
        /// Query name (e.g. `"Inv1(0)"`).
        name: String,
        /// Starting configurations.
        start: StartRestriction,
        /// The triggering location set.
        trigger: LocSet,
        /// The forbidden location set.
        forbidden: LocSet,
    },
    /// `A (<start restriction> → G ¬EX{forbidden})`: from the restricted
    /// start configurations, no location of `forbidden` is ever occupied.
    /// This is the shape of `Inv2` and of condition `C2`.
    NeverFrom {
        /// Query name (e.g. `"Inv2(0)"`).
        name: String,
        /// Starting configurations.
        start: StartRestriction,
        /// The forbidden location set.
        forbidden: LocSet,
    },
    /// `∀ adversary ∃ path. ⋁ᵢ G ¬EX{forbidden_sets[i]}`: under every
    /// (round-rigid, fair) adversary there is a resolution of the coin such
    /// that at least one of the forbidden sets is never occupied.  By
    /// Lemma 2 this is the non-probabilistic form of the conditions `C1`
    /// (two sets, `F₀` and `F₁`) and `C2'` (one set, `F \ D_v`).
    ExistsAvoidOneOf {
        /// Query name (e.g. `"C1"`).
        name: String,
        /// Starting configurations.
        start: StartRestriction,
        /// The family of sets, one of which must stay unoccupied.
        forbidden_sets: Vec<LocSet>,
    },
    /// All fair executions of the single-round system terminate: the
    /// progress graph is acyclic and no reachable configuration blocks a
    /// process outside the sink locations.  This is the side condition of
    /// Theorem 2.
    NonBlocking {
        /// Query name.
        name: String,
        /// Starting configurations.
        start: StartRestriction,
    },
}

impl Spec {
    /// Resolves one checker-neutral obligation of a generated family
    /// against the model it will be checked on (normally the family's
    /// single-round form).
    ///
    /// # Panics
    ///
    /// Panics if the obligation names a location that does not exist in the
    /// model — generated obligations only reference generated locations, so
    /// this indicates a model/obligation mismatch.
    pub fn from_family(model: &SystemModel, obligation: &FamilyObligation) -> Self {
        let name = obligation.name.clone();
        let start = StartRestriction::from_family(obligation.start);
        match &obligation.kind {
            FamilyObligationKind::NeverFrom { forbidden } => Spec::NeverFrom {
                name,
                start,
                forbidden: LocSet::from_family(model, forbidden),
            },
            FamilyObligationKind::CoverNever { trigger, forbidden } => Spec::CoverNever {
                name,
                start,
                trigger: LocSet::from_family(model, trigger),
                forbidden: LocSet::from_family(model, forbidden),
            },
            FamilyObligationKind::ExistsAvoidOneOf { forbidden_sets } => Spec::ExistsAvoidOneOf {
                name,
                start,
                forbidden_sets: forbidden_sets
                    .iter()
                    .map(|s| LocSet::from_family(model, s))
                    .collect(),
            },
            FamilyObligationKind::NonBlocking => Spec::NonBlocking { name, start },
        }
    }

    /// Resolves a whole generated-family obligation catalogue.
    ///
    /// # Panics
    ///
    /// Panics under the same condition as [`Spec::from_family`].
    pub fn family_catalogue(model: &SystemModel, obligations: &[FamilyObligation]) -> Vec<Spec> {
        obligations
            .iter()
            .map(|o| Spec::from_family(model, o))
            .collect()
    }

    /// The query's name.
    pub fn name(&self) -> &str {
        match self {
            Spec::CoverNever { name, .. }
            | Spec::NeverFrom { name, .. }
            | Spec::ExistsAvoidOneOf { name, .. }
            | Spec::NonBlocking { name, .. } => name,
        }
    }

    /// The start restriction of the query.
    pub fn start(&self) -> StartRestriction {
        match self {
            Spec::CoverNever { start, .. }
            | Spec::NeverFrom { start, .. }
            | Spec::ExistsAvoidOneOf { start, .. }
            | Spec::NonBlocking { start, .. } => *start,
        }
    }

    /// Renders the query in the notation of Table III.
    pub fn formula(&self, model: &SystemModel) -> String {
        match self {
            Spec::CoverNever {
                trigger, forbidden, ..
            } => format!(
                "A F(EX{}) -> G(!EX{})",
                trigger.display_with(model),
                forbidden.display_with(model)
            ),
            Spec::NeverFrom {
                start, forbidden, ..
            } => format!(
                "A {} -> G(!EX{})",
                start.label(),
                forbidden.display_with(model)
            ),
            Spec::ExistsAvoidOneOf { forbidden_sets, .. } => {
                let parts: Vec<String> = forbidden_sets
                    .iter()
                    .map(|s| format!("G(!EX{})", s.display_with(model)))
                    .collect();
                format!("forall adversary, exists path: {}", parts.join(" \\/ "))
            }
            Spec::NonBlocking { .. } => {
                "all fair executions of the single-round system terminate".to_string()
            }
        }
    }
}

impl fmt::Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccta::prelude::*;

    fn model() -> SystemModel {
        let env = ccta::env::byzantine_common_coin_env(3);
        let mut b = SystemBuilder::new("spec-test", env);
        let j0 = b.process_location("J0", LocClass::Border, Some(BinValue::Zero));
        let i0 = b.process_location("I0", LocClass::Initial, Some(BinValue::Zero));
        let d0 = b.decision_location("D0", BinValue::Zero);
        b.start_rule(j0, i0);
        b.rule("go", i0, d0, Guard::top(), Update::none());
        b.round_switch(d0, j0);
        b.build().unwrap()
    }

    #[test]
    fn locset_occupancy() {
        let m = model();
        let set = LocSet::from_names(&m, "D", &["D0"]);
        let mut cfg = Configuration::zero(m.locations().len(), m.vars().len());
        assert!(!set.is_occupied(&cfg));
        cfg.add_counter(m.location_id("D0").unwrap(), 0, 2);
        assert!(set.is_occupied(&cfg));
        assert_eq!(set.occupancy(&cfg), 2);
        assert_eq!(set.display_with(&m), "{D0}");
        assert_eq!(set.name(), "D");
        assert_eq!(format!("{set}"), "D");
    }

    #[test]
    #[should_panic(expected = "unknown location")]
    fn locset_rejects_unknown_names() {
        let m = model();
        let _ = LocSet::from_names(&m, "bad", &["NOPE"]);
    }

    #[test]
    fn start_restriction_labels() {
        assert_eq!(StartRestriction::RoundStart.label(), "any round start");
        assert_eq!(
            StartRestriction::Unanimous(BinValue::One).label(),
            "ALL{B1}"
        );
        assert_eq!(
            StartRestriction::InitialLocations.label(),
            "initial configurations"
        );
    }

    #[test]
    fn spec_accessors_and_formula() {
        let m = model();
        let d = LocSet::from_names(&m, "D0", &["D0"]);
        let i = LocSet::from_names(&m, "I0", &["I0"]);
        let cover = Spec::CoverNever {
            name: "Inv1(0)".into(),
            start: StartRestriction::RoundStart,
            trigger: d.clone(),
            forbidden: i.clone(),
        };
        assert_eq!(cover.name(), "Inv1(0)");
        assert!(cover.formula(&m).contains("A F(EX{D0}) -> G(!EX{I0})"));

        let never = Spec::NeverFrom {
            name: "Inv2(0)".into(),
            start: StartRestriction::Unanimous(BinValue::Zero),
            forbidden: d.clone(),
        };
        assert!(never.formula(&m).contains("ALL{B0}"));

        let exists = Spec::ExistsAvoidOneOf {
            name: "C1".into(),
            start: StartRestriction::RoundStart,
            forbidden_sets: vec![d.clone(), i.clone()],
        };
        assert!(exists.formula(&m).contains("\\/"));
        assert_eq!(exists.start(), StartRestriction::RoundStart);

        let nb = Spec::NonBlocking {
            name: "termination".into(),
            start: StartRestriction::RoundStart,
        };
        assert!(nb.formula(&m).contains("terminate"));
        assert_eq!(format!("{nb}"), "termination");
    }
}
