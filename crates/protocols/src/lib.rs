//! Threshold-automata models of the eight common-coin consensus protocols
//! verified in the paper (Sect. VI), plus the naive voting example of
//! Fig. 2/3 and the ABY22 milestone variants of Table IV.
//!
//! | Protocol | Category | Resilience | Module |
//! |---|---|---|---|
//! | Rabin83 | (A) | `n > 10t` | [`rabin83`] |
//! | CC85(a) | (B) | `n > 3t` | [`bstyle`] |
//! | CC85(b) | (B) | `n > 6t` | [`bstyle`] |
//! | FMR05 | (B) | `n > 5t` | [`bstyle`] |
//! | KS16 | (B) | `n > 3t` | [`ks16`] |
//! | MMR14 | (C) | `n > 3t` | [`mmr14`] |
//! | Miller18 | (C) | `n > 3t` | [`fixed`] |
//! | ABY22 | (C) | `n > 3t` | [`fixed`] |
//!
//! MMR14 is encoded verbatim from Fig. 4 / Table I of the paper.  The other
//! models are reconstructions from the cited protocol papers (the paper does
//! not publish their automata); see `DESIGN.md` for the substitution notes,
//! in particular for the binding mechanism of the fixed protocols Miller18
//! and ABY22.
//!
//! # Generated families & cross-check oracle
//!
//! Beyond the fixed catalogue, the [`family`] module generates whole
//! *protocol families* on demand: a [`family::FamilyParams`] point (phase
//! depth, locations per phase, branch fan-out, guard density, shared/coin
//! variable counts, crash-vs-Byzantine fault mix, resilience condition)
//! plus a seed deterministically expands into a validated threshold-automata
//! system, admissible valuations/sweep grids and a checker-neutral
//! obligation catalogue — identical inputs are byte-identical across runs.
//! Generated families feed three independent oracles: the optimized engine
//! vs. the preserved `reference` engine, counterexample replay over the
//! counter-system semantics, and `ccsim`'s process-level bridge
//! (`ccsim::bridge`), which executes the same automaton as individual
//! simulator processes under fair and adversarial schedules and must never
//! witness a violation the checker calls safe.

pub mod bstyle;
pub mod common;
pub mod family;
pub mod fixed;
pub mod ks16;
pub mod mmr14;
pub mod naive;
pub mod rabin83;

use ccta::{ModelStats, ProtocolCategory, SystemModel};

/// Names of the crusader-agreement locations of a category-(C) model,
/// needed to state the binding conditions `CB0`–`CB4` (Sect. V-B.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrusaderLocations {
    /// Locations where the crusader output is 0 (`M0`).
    pub m0: Vec<String>,
    /// Locations where the crusader output is 1 (`M1`).
    pub m1: Vec<String>,
    /// Locations where the crusader output is ⊥ (`M⊥`).
    pub mbot: Vec<String>,
    /// Refined locations entered with support for 0 before `M⊥` (`N0`).
    pub n0: Vec<String>,
    /// Refined locations entered with support for 1 before `M⊥` (`N1`).
    pub n1: Vec<String>,
    /// Refined locations entered with support for neither value (`N⊥`).
    pub nbot: Vec<String>,
}

/// A benchmark protocol: its category, its (multi-round) system model and the
/// metadata needed to generate its proof obligations.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolModel {
    name: String,
    category: ProtocolCategory,
    model: SystemModel,
    crusader: Option<CrusaderLocations>,
    description: String,
}

impl ProtocolModel {
    /// Wraps a model with its metadata.
    pub fn new(
        name: impl Into<String>,
        category: ProtocolCategory,
        model: SystemModel,
        crusader: Option<CrusaderLocations>,
        description: impl Into<String>,
    ) -> Self {
        ProtocolModel {
            name: name.into(),
            category,
            model,
            crusader,
            description: description.into(),
        }
    }

    /// The protocol name as used in Table II (e.g. `"MMR14"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The protocol category (A), (B) or (C).
    pub fn category(&self) -> ProtocolCategory {
        self.category
    }

    /// The multi-round system model.
    pub fn model(&self) -> &SystemModel {
        &self.model
    }

    /// Crusader-agreement location groups (category (C) only).
    pub fn crusader(&self) -> Option<&CrusaderLocations> {
        self.crusader.as_ref()
    }

    /// A one-line description with the source reference.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The single-round model `TA_rd` (Definition 3).
    pub fn single_round(&self) -> SystemModel {
        self.model
            .single_round()
            .expect("protocol models are multi-round")
    }

    /// Size statistics for the Table II columns `|L|` and `|R|`.
    pub fn stats(&self) -> ModelStats {
        self.model.stats()
    }
}

/// Builds one benchmark protocol's model.
type Constructor = fn() -> ProtocolModel;

/// The eight benchmark protocols in the order of Table II: each Table II
/// name with the constructor of its model, so a lookup by name builds only
/// the model it returns.
const REGISTRY: [(&str, Constructor); 8] = [
    ("Rabin83", rabin83::rabin83),
    ("CC85(a)", bstyle::cc85a),
    ("CC85(b)", bstyle::cc85b),
    ("FMR05", bstyle::fmr05),
    ("KS16", ks16::ks16),
    ("MMR14", mmr14::mmr14),
    ("Miller18", fixed::miller18),
    ("ABY22", fixed::aby22),
];

/// All eight benchmark protocols in the order of Table II.
pub fn all_protocols() -> Vec<ProtocolModel> {
    REGISTRY.iter().map(|(_, build)| build()).collect()
}

/// Looks up a benchmark protocol by its Table II name (case-insensitive).
pub fn protocol_by_name(name: &str) -> Option<ProtocolModel> {
    REGISTRY
        .iter()
        .find(|(known, _)| known.eq_ignore_ascii_case(name))
        .map(|(_, build)| build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_the_eight_benchmarks() {
        let protocols = all_protocols();
        assert_eq!(protocols.len(), 8);
        let names: Vec<&str> = protocols.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec!["Rabin83", "CC85(a)", "CC85(b)", "FMR05", "KS16", "MMR14", "Miller18", "ABY22"]
        );
    }

    #[test]
    fn categories_match_table_ii() {
        use ProtocolCategory::*;
        let expected = vec![A, B, B, B, B, C, C, C];
        let got: Vec<ProtocolCategory> = all_protocols().iter().map(|p| p.category()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn category_c_protocols_carry_crusader_metadata() {
        for p in all_protocols() {
            assert_eq!(
                p.crusader().is_some(),
                p.category() == ProtocolCategory::C,
                "{}",
                p.name()
            );
            if let Some(c) = p.crusader() {
                for name in
                    c.m0.iter()
                        .chain(&c.m1)
                        .chain(&c.mbot)
                        .chain(&c.n0)
                        .chain(&c.n1)
                        .chain(&c.nbot)
                {
                    assert!(
                        p.model().location_id(name).is_some(),
                        "{}: unknown crusader location {name}",
                        p.name()
                    );
                }
            }
        }
    }

    #[test]
    fn every_model_validates_and_has_a_single_round_form() {
        for p in all_protocols() {
            p.model().validate().unwrap();
            let rd = p.single_round();
            assert_eq!(rd.kind(), ccta::ModelKind::SingleRound);
            assert!(!p.description().is_empty());
            assert!(p.stats().process_locations > 5);
        }
    }

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        for ((name, _), listed) in REGISTRY.iter().zip(all_protocols()) {
            assert_eq!(listed.name(), *name);
            for spelling in [
                name.to_string(),
                name.to_ascii_lowercase(),
                name.to_ascii_uppercase(),
            ] {
                assert_eq!(
                    protocol_by_name(&spelling).as_ref(),
                    Some(&listed),
                    "{spelling}"
                );
            }
        }
        assert!(protocol_by_name("nonexistent").is_none());
        assert!(protocol_by_name("").is_none());
    }
}
