//! Engine equivalence: the packed-state engine must explore exactly the
//! state space that the pre-refactor reference engine explored.
//!
//! For every query shape, on the `voting_model`/`blocking_model` fixtures
//! and on *all eight* Table II benchmark protocols, both engines must agree
//! on
//!
//! * the verdict,
//! * the number of distinct states visited,
//! * the number of transitions explored, and
//! * (for violations) a counterexample that replays on the counter system
//!   via [`cccounter::Schedule::apply`].
//!
//! Because both engines run the same BFS in the same action order, the
//! counterexample schedules are required to be identical step for step.
//! Each catalogue is checked twice on the engine side: one spec per
//! checker, and all through one checker's `check_all`, which answers the
//! monitored obligations of a group with one batched pass.

use ccchecker::fixtures;
use ccchecker::reference::reference_check;
use ccchecker::{
    CheckOutcome, CheckStatus, CheckerOptions, ExplicitChecker, LocSet, Spec, StartRestriction,
};
use cccounter::CounterSystem;
use ccta::{BinValue, Owner, ParamValuation, SystemModel};

/// Checks one spec with both engines and asserts exact agreement.
fn assert_engines_agree(sys: &CounterSystem, spec: &Spec, options: CheckerOptions) -> CheckStatus {
    let engine = ExplicitChecker::with_options(sys, options).check(spec);
    assert_agrees(sys, spec, &engine, &reference_check(sys, spec, &options))
}

/// Checks a catalogue with both engines, the engine side both one spec per
/// checker and through one `check_all`, and asserts exact agreement of
/// every outcome.
fn assert_catalogue_agrees(sys: &CounterSystem, specs: &[Spec]) -> Vec<CheckStatus> {
    let options = CheckerOptions::default();
    let batched = ExplicitChecker::with_options(sys, options).check_all(specs);
    specs
        .iter()
        .zip(&batched)
        .map(|(spec, batched)| {
            let reference = reference_check(sys, spec, &options);
            let lone = ExplicitChecker::with_options(sys, options).check(spec);
            assert_agrees(sys, spec, batched, &reference);
            assert_agrees(sys, spec, &lone, &reference)
        })
        .collect()
}

/// Asserts that an engine outcome equals the reference's: verdict, counts
/// and, for a violation, a replayable counterexample step for step.
fn assert_agrees(
    sys: &CounterSystem,
    spec: &Spec,
    engine: &CheckOutcome,
    reference: &CheckOutcome,
) -> CheckStatus {
    assert_eq!(
        engine.status,
        reference.status,
        "verdicts differ on {}",
        spec.name()
    );
    assert_eq!(
        engine.states_explored,
        reference.states_explored,
        "state counts differ on {}",
        spec.name()
    );
    assert_eq!(
        engine.transitions_explored,
        reference.transitions_explored,
        "transition counts differ on {}",
        spec.name()
    );

    if engine.status == CheckStatus::Violated {
        let e = engine
            .counterexample
            .as_ref()
            .expect("engine counterexample");
        let r = (reference.counterexample.as_ref()).expect("reference counterexample");
        assert_eq!(
            e.initial,
            r.initial,
            "initial configs differ on {}",
            spec.name()
        );
        assert_eq!(
            e.schedule.steps(),
            r.schedule.steps(),
            "counterexample schedules differ on {}",
            spec.name()
        );
        // the counterexample is a real execution of the counter system
        let path = e
            .schedule
            .apply(sys, &e.initial)
            .expect("counterexample must replay");
        assert_eq!(path.len(), e.schedule.len());
    }
    engine.status
}

/// The full catalogue of query shapes over a single-round model whose final
/// locations carry values; both start groups hold several monitored
/// obligations, as Table II's do.
fn spec_catalogue(model: &SystemModel) -> Vec<Spec> {
    let finals0 = LocSet::new(
        "F0",
        model.final_locations(Owner::Process, Some(BinValue::Zero)),
    );
    let finals1 = LocSet::new(
        "F1",
        model.final_locations(Owner::Process, Some(BinValue::One)),
    );
    let decisions0 = LocSet::new("D0", model.decision_locations(Some(BinValue::Zero)));
    vec![
        Spec::NeverFrom {
            name: "validity-style".into(),
            start: StartRestriction::Unanimous(BinValue::Zero),
            forbidden: finals1.clone(),
        },
        Spec::CoverNever {
            name: "validity-cover".into(),
            start: StartRestriction::Unanimous(BinValue::Zero),
            trigger: finals0.clone(),
            forbidden: finals1.clone(),
        },
        Spec::NeverFrom {
            name: "reachable-finals".into(),
            start: StartRestriction::RoundStart,
            forbidden: finals0.clone(),
        },
        Spec::CoverNever {
            name: "cover".into(),
            start: StartRestriction::RoundStart,
            trigger: finals0.clone(),
            forbidden: finals1.clone(),
        },
        Spec::CoverNever {
            name: "cover-swapped".into(),
            start: StartRestriction::RoundStart,
            trigger: finals1.clone(),
            forbidden: finals0.clone(),
        },
        Spec::CoverNever {
            name: "agreement-style".into(),
            start: StartRestriction::RoundStart,
            trigger: decisions0,
            forbidden: finals1.clone(),
        },
        Spec::ExistsAvoidOneOf {
            name: "C1-style".into(),
            start: StartRestriction::RoundStart,
            forbidden_sets: vec![finals0.clone(), finals1.clone()],
        },
        Spec::ExistsAvoidOneOf {
            name: "avoid-one".into(),
            start: StartRestriction::Unanimous(BinValue::Zero),
            forbidden_sets: vec![finals0],
        },
        Spec::NonBlocking {
            name: "termination".into(),
            start: StartRestriction::RoundStart,
        },
    ]
}

#[test]
fn engines_agree_on_the_voting_fixture() {
    let model = fixtures::voting_model().single_round().unwrap();
    let sys = CounterSystem::new(model.clone(), fixtures::small_params()).unwrap();
    let statuses = assert_catalogue_agrees(&sys, &spec_catalogue(&model));
    // the catalogue exercises both verdicts
    assert!(statuses.contains(&CheckStatus::Holds));
    assert!(statuses.contains(&CheckStatus::Violated));
}

#[test]
fn engines_agree_on_the_blocking_fixture() {
    let model = fixtures::blocking_model().single_round().unwrap();
    let sys = CounterSystem::new(model.clone(), ParamValuation::new(vec![4, 1, 1, 1])).unwrap();
    let spec = Spec::NonBlocking {
        name: "termination".into(),
        start: StartRestriction::RoundStart,
    };
    assert_eq!(
        assert_engines_agree(&sys, &spec, CheckerOptions::default()),
        CheckStatus::Violated
    );
}

/// Runs the whole query catalogue on one benchmark protocol with both
/// engines, at the default (never-tripped) resource budgets.
fn assert_protocol_equivalence(name: &str) {
    let protocol = ccprotocols::protocol_by_name(name).expect("benchmark protocol");
    let model = protocol.single_round();
    let sys = CounterSystem::new(model.clone(), fixtures::benchmark_valuation(&model)).unwrap();
    let checked = assert_catalogue_agrees(&sys, &spec_catalogue(&model));
    assert_eq!(checked.len(), 9);
}

#[test]
fn engines_agree_on_rabin83() {
    assert_protocol_equivalence("Rabin83");
}

#[test]
fn engines_agree_on_cc85a() {
    assert_protocol_equivalence("CC85(a)");
}

#[test]
fn engines_agree_on_cc85b() {
    assert_protocol_equivalence("CC85(b)");
}

#[test]
fn engines_agree_on_fmr05() {
    assert_protocol_equivalence("FMR05");
}

#[test]
fn engines_agree_on_ks16() {
    assert_protocol_equivalence("KS16");
}

#[test]
fn engines_agree_on_mmr14() {
    assert_protocol_equivalence("MMR14");
}

#[test]
fn engines_agree_on_miller18() {
    assert_protocol_equivalence("Miller18");
}

#[test]
fn engines_agree_on_aby22() {
    assert_protocol_equivalence("ABY22");
}

#[test]
fn engines_agree_on_bounded_searches() {
    // resource-bounded runs must produce Unknown on both engines
    let model = fixtures::voting_model().single_round().unwrap();
    let sys = CounterSystem::new(model.clone(), fixtures::small_params()).unwrap();
    let options = CheckerOptions {
        max_states: 50,
        max_transitions: 10_000,
        ..CheckerOptions::default()
    };
    let spec = Spec::NeverFrom {
        name: "bounded".into(),
        start: StartRestriction::Unanimous(BinValue::Zero),
        forbidden: LocSet::from_names(&model, "I1", &["I1"]),
    };
    let engine = ExplicitChecker::with_options(&sys, options).check(&spec);
    let reference = reference_check(&sys, &spec, &options);
    assert_eq!(engine.status, CheckStatus::Unknown);
    assert_eq!(reference.status, CheckStatus::Unknown);
    // the engines agree on the reported exploration size even at the bound
    assert_eq!(engine.states_explored, reference.states_explored);
    assert_eq!(engine.transitions_explored, reference.transitions_explored);
}
