//! Sequential-vs-parallel determinism of the in-check exploration.
//!
//! The explorer's contract (see `ccchecker::explorer`) is that the worker
//! count, and the shard count derived from it, *never* change results:
//! verdicts, state counts, transition counts and counterexample schedules
//! must be bit-identical to the sequential run at 2, 3 and 4 workers, and
//! under resource bounds.  These tests pin that contract on the fixtures
//! and on real benchmark protocols whose BFS levels are wide enough to
//! actually enter the parallel three-phase path.

use ccchecker::fixtures;
use ccchecker::{
    CheckOutcome, CheckStatus, CheckerOptions, ExplicitChecker, LocSet, Spec, StartRestriction,
};
use cccounter::CounterSystem;
use ccta::{BinValue, Owner, ParamValuation, SystemModel};

/// The catalogue of query shapes used for the determinism comparison.
fn spec_catalogue(model: &SystemModel) -> Vec<Spec> {
    let finals0 = LocSet::new(
        "F0",
        model.final_locations(Owner::Process, Some(BinValue::Zero)),
    );
    let finals1 = LocSet::new(
        "F1",
        model.final_locations(Owner::Process, Some(BinValue::One)),
    );
    vec![
        Spec::NeverFrom {
            name: "validity-style".into(),
            start: StartRestriction::Unanimous(BinValue::Zero),
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
        Spec::ExistsAvoidOneOf {
            name: "C1-style".into(),
            start: StartRestriction::RoundStart,
            forbidden_sets: vec![finals0.clone(), finals1.clone()],
        },
        Spec::NonBlocking {
            name: "termination".into(),
            start: StartRestriction::RoundStart,
        },
    ]
}

/// Asserts that two outcomes are observably identical: same verdict, same
/// cost counters, same counterexample (step for step).
fn assert_outcomes_identical(spec: &Spec, workers: usize, seq: &CheckOutcome, par: &CheckOutcome) {
    assert_eq!(
        par.status,
        seq.status,
        "verdict differs at {workers} workers on {}",
        spec.name()
    );
    assert_eq!(
        par.states_explored,
        seq.states_explored,
        "state count differs at {workers} workers on {}",
        spec.name()
    );
    assert_eq!(
        par.transitions_explored,
        seq.transitions_explored,
        "transition count differs at {workers} workers on {}",
        spec.name()
    );
    assert_eq!(
        par.detail,
        seq.detail,
        "detail differs at {workers} workers on {}",
        spec.name()
    );
    match (&seq.counterexample, &par.counterexample) {
        (None, None) => {}
        (Some(s), Some(p)) => {
            assert_eq!(
                s.initial,
                p.initial,
                "counterexample initial differs at {workers} workers on {}",
                spec.name()
            );
            assert_eq!(
                s.schedule.steps(),
                p.schedule.steps(),
                "counterexample schedule differs at {workers} workers on {}",
                spec.name()
            );
        }
        _ => panic!(
            "counterexample presence differs at {workers} workers on {}",
            spec.name()
        ),
    }
}

/// Checks the whole catalogue sequentially and at 2, 3 and 4 pooled
/// workers — three workers intern into four shards, so a store with more
/// shards than lanes is covered — and across wave sizes {1, 7, unbounded},
/// and requires identical outcomes.
fn assert_deterministic_over_workers(sys: &CounterSystem, options: CheckerOptions) {
    let model = sys.model();
    for spec in spec_catalogue(model) {
        let sequential = ExplicitChecker::with_options(sys, options.with_workers(1)).check(&spec);
        for workers in [2, 3, 4] {
            let parallel =
                ExplicitChecker::with_options(sys, options.with_workers(workers)).check(&spec);
            assert_outcomes_identical(&spec, workers, &sequential, &parallel);
        }
        // the wave size bounds a parallel level's candidate buffers; like
        // the worker count it must never change results (a wave of 1 or 7
        // also lowers the parallel-entry threshold, so even narrow levels
        // exercise the pooled wave machinery)
        for workers in [1, 2, 4] {
            for wave_size in [1, 7, usize::MAX] {
                let waved = ExplicitChecker::with_options(
                    sys,
                    CheckerOptions {
                        workers,
                        wave_size,
                        ..options
                    },
                )
                .check(&spec);
                assert_outcomes_identical(&spec, workers, &sequential, &waved);
            }
        }
        // a replayable counterexample stays replayable in parallel mode
        if sequential.status == CheckStatus::Violated {
            let ce = sequential.counterexample.as_ref().unwrap();
            let path = ce.schedule.apply(sys, &ce.initial).expect("must replay");
            assert_eq!(path.len(), ce.schedule.len());
        }
    }
}

fn benchmark_system(name: &str) -> CounterSystem {
    let protocol = ccprotocols::protocol_by_name(name).expect("benchmark protocol");
    let model = protocol.single_round();
    let valuation = fixtures::benchmark_valuation(&model);
    CounterSystem::new(model, valuation).unwrap()
}

#[test]
fn fixture_checks_are_worker_count_independent() {
    let model = fixtures::voting_model().single_round().unwrap();
    let sys = CounterSystem::new(model, fixtures::small_params()).unwrap();
    assert_deterministic_over_workers(&sys, CheckerOptions::default());
}

#[test]
fn blocking_fixture_counterexample_is_worker_count_independent() {
    let model = fixtures::blocking_model().single_round().unwrap();
    let sys = CounterSystem::new(model, ParamValuation::new(vec![4, 1, 1, 1])).unwrap();
    assert_deterministic_over_workers(&sys, CheckerOptions::default());
}

#[test]
fn rabin83_checks_are_worker_count_independent() {
    assert_deterministic_over_workers(&benchmark_system("Rabin83"), CheckerOptions::default());
}

#[test]
fn ks16_checks_are_worker_count_independent() {
    // KS16's levels are wide enough to drive the three-phase parallel path
    assert_deterministic_over_workers(&benchmark_system("KS16"), CheckerOptions::default());
}

#[test]
fn bounded_checks_are_worker_count_independent() {
    // budget bounds must trip at exactly the same replayed candidate at any
    // worker count, so even the Unknown cost counters have to match
    let sys = benchmark_system("Rabin83");
    for (max_states, max_transitions) in [(50, usize::MAX >> 1), (usize::MAX >> 1, 500), (200, 900)]
    {
        let options = CheckerOptions {
            max_states,
            max_transitions,
            ..CheckerOptions::default()
        };
        assert_deterministic_over_workers(&sys, options);
    }
}
