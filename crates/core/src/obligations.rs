//! Deriving the single-round proof obligations of a protocol.
//!
//! Sect. V of the paper reduces the three consensus properties to queries on
//! the single-round automaton, with the exact set of queries depending on the
//! protocol category:
//!
//! | Property | (A) | (B) | (C) |
//! |---|---|---|---|
//! | Agreement | `Inv1(0)`, `Inv1(1)` | same | same |
//! | Validity | `Inv2(0)`, `Inv2(1)` | same | same |
//! | A.-s. Termination | `C1`, `C2(0)`, `C2(1)`, non-blocking | `C1`, `C2'(0)`, `C2'(1)`, non-blocking | `CB0`–`CB4`, `C2'(0)`, `C2'(1)`, non-blocking |

use ccchecker::{LocSet, Spec, StartRestriction};
use ccprotocols::ProtocolModel;
use ccta::{BinValue, LocId, Owner, ProtocolCategory, SystemModel};

/// The proof obligations of one protocol, grouped by the consensus property
/// they establish.
#[derive(Debug, Clone, PartialEq)]
pub struct Obligations {
    /// Queries establishing Agreement.
    pub agreement: Vec<Spec>,
    /// Queries establishing Validity.
    pub validity: Vec<Spec>,
    /// Queries establishing Almost-sure Termination under round-rigid
    /// adversaries.
    pub termination: Vec<Spec>,
}

impl Obligations {
    /// All queries in one list.
    pub fn all(&self) -> Vec<&Spec> {
        self.agreement
            .iter()
            .chain(self.validity.iter())
            .chain(self.termination.iter())
            .collect()
    }
}

fn loc_set_from_names(model: &SystemModel, name: &str, names: &[String]) -> LocSet {
    let locs: Vec<LocId> = names.iter().filter_map(|n| model.location_id(n)).collect();
    LocSet::new(name, locs)
}

/// Final process locations with the given value (`F_v`).
fn final_set(model: &SystemModel, v: BinValue) -> LocSet {
    LocSet::new(
        format!("F{}", v.index()),
        model.final_locations(Owner::Process, Some(v)),
    )
}

/// Decision locations with the given value (`D_v`).
fn decision_set(model: &SystemModel, v: BinValue) -> LocSet {
    LocSet::new(format!("D{}", v.index()), model.decision_locations(Some(v)))
}

/// Final process locations other than `D_v` (`F \ D_v`).
fn final_without_decisions(model: &SystemModel, v: BinValue) -> LocSet {
    let dv = model.decision_locations(Some(v));
    let locs: Vec<LocId> = model
        .final_locations(Owner::Process, None)
        .into_iter()
        .filter(|l| !dv.contains(l))
        .collect();
    LocSet::new(format!("F\\D{}", v.index()), locs)
}

/// Builds the proof obligations for a protocol.  The specs refer to locations
/// of `single_round`, which must be the single-round form of the protocol's
/// model (`protocol.single_round()`).
pub fn obligations_for(protocol: &ProtocolModel, single_round: &SystemModel) -> Obligations {
    let mut agreement = Vec::new();
    let mut validity = Vec::new();
    let mut termination = Vec::new();

    for v in BinValue::ALL {
        // (Inv1) once a process decides v, no process ever ends the round
        // with 1 - v.
        agreement.push(Spec::CoverNever {
            name: format!("Inv1({})", v.index()),
            start: StartRestriction::RoundStart,
            trigger: decision_set(single_round, v),
            forbidden: final_set(single_round, v.flip()),
        });
        // (Inv2) if no process starts the round with v, no process ends the
        // round with v — stated contrapositively over unanimous starts.
        validity.push(Spec::NeverFrom {
            name: format!("Inv2({})", v.index()),
            start: StartRestriction::Unanimous(v),
            forbidden: final_set(single_round, v.flip()),
        });
    }

    match protocol.category() {
        ProtocolCategory::A => {
            termination.push(c1(single_round));
            for v in BinValue::ALL {
                // (C2) with a unanimous start every process keeps the value.
                termination.push(Spec::NeverFrom {
                    name: format!("C2({})", v.index()),
                    start: StartRestriction::Unanimous(v),
                    forbidden: final_set(single_round, v.flip()),
                });
            }
        }
        ProtocolCategory::B => {
            termination.push(c1(single_round));
            termination.extend(c2_prime(single_round));
        }
        ProtocolCategory::C => {
            let crusader = protocol
                .crusader()
                .expect("category-(C) protocols carry crusader metadata");
            let m0 = loc_set_from_names(single_round, "M0", &crusader.m0);
            let m1 = loc_set_from_names(single_round, "M1", &crusader.m1);
            let n0 = loc_set_from_names(single_round, "N0", &crusader.n0);
            let n1 = loc_set_from_names(single_round, "N1", &crusader.n1);
            let nbot = loc_set_from_names(single_round, "Nbot", &crusader.nbot);
            let m01 = LocSet::new("M0M1", m0.locs().iter().chain(m1.locs()).copied().collect());
            let cover = |name: &str, trigger: &LocSet, forbidden: &LocSet| Spec::CoverNever {
                name: name.to_string(),
                start: StartRestriction::RoundStart,
                trigger: trigger.clone(),
                forbidden: forbidden.clone(),
            };
            termination.push(cover("CB0", &m0, &m1));
            termination.push(cover("CB1", &m1, &m0));
            termination.push(cover("CB2", &n0, &m1));
            termination.push(cover("CB3", &n1, &m0));
            termination.push(cover("CB4", &nbot, &m01));
            termination.extend(c2_prime(single_round));
        }
    }
    termination.push(Spec::NonBlocking {
        name: "round-termination".to_string(),
        start: StartRestriction::RoundStart,
    });

    Obligations {
        agreement,
        validity,
        termination,
    }
}

/// (C1) under every adversary some coin resolution lets every correct process
/// end the round with the same value.
fn c1(single_round: &SystemModel) -> Spec {
    Spec::ExistsAvoidOneOf {
        name: "C1".to_string(),
        start: StartRestriction::RoundStart,
        forbidden_sets: vec![
            final_set(single_round, BinValue::Zero),
            final_set(single_round, BinValue::One),
        ],
    }
}

/// (C2') with a unanimous start some coin resolution makes every correct
/// process decide that value in the round.
fn c2_prime(single_round: &SystemModel) -> Vec<Spec> {
    BinValue::ALL
        .iter()
        .map(|&v| Spec::ExistsAvoidOneOf {
            name: format!("C2'({})", v.index()),
            start: StartRestriction::Unanimous(v),
            forbidden_sets: vec![final_without_decisions(single_round, v)],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccprotocols::{bstyle, fixed, mmr14, rabin83};

    #[test]
    fn category_a_obligations() {
        let p = rabin83::rabin83();
        let rd = p.single_round();
        let obl = obligations_for(&p, &rd);
        assert_eq!(obl.agreement.len(), 2);
        assert_eq!(obl.validity.len(), 2);
        // C1, C2(0), C2(1), non-blocking
        assert_eq!(obl.termination.len(), 4);
        assert_eq!(obl.all().len(), 8);
        let names: Vec<&str> = obl.termination.iter().map(|s| s.name()).collect();
        assert!(names.contains(&"C1"));
        assert!(names.contains(&"C2(0)"));
    }

    #[test]
    fn category_b_obligations_use_c2_prime() {
        let p = bstyle::cc85a();
        let rd = p.single_round();
        let obl = obligations_for(&p, &rd);
        let names: Vec<&str> = obl.termination.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["C1", "C2'(0)", "C2'(1)", "round-termination"]);
        // C2' queries are probabilistic (Lemma 2)
        assert!(matches!(obl.termination[1], Spec::ExistsAvoidOneOf { .. }));
    }

    #[test]
    fn category_c_obligations_use_binding_conditions() {
        let p = fixed::aby22();
        let rd = p.single_round();
        let obl = obligations_for(&p, &rd);
        let names: Vec<&str> = obl.termination.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "CB0",
                "CB1",
                "CB2",
                "CB3",
                "CB4",
                "C2'(0)",
                "C2'(1)",
                "round-termination"
            ]
        );
    }

    #[test]
    fn location_sets_resolve_in_the_single_round_model() {
        let p = mmr14::mmr14();
        let rd = p.single_round();
        let obl = obligations_for(&p, &rd);
        for spec in obl.all() {
            // every formula should render without panicking and mention a
            // location name
            let formula = spec.formula(&rd);
            assert!(!formula.is_empty());
        }
        // the CB2 trigger is the refined N0 location
        let cb2 = obl.termination.iter().find(|s| s.name() == "CB2").unwrap();
        assert!(cb2.formula(&rd).contains("N0"));
    }
}
