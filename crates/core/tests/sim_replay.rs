//! Simulator replay: every checker counterexample — from the Table II
//! benchmark and from generated protocol families — re-executes at the
//! *process level* through `ccsim::bridge` to the exact violating
//! configuration.
//!
//! `counterexample_replay` re-applies schedules through `cccounter`'s own
//! semantics; this suite goes one semantics further down: the bridge
//! explodes each configuration into individual automaton copies and
//! re-fires every scheduled rule against a specific copy, with guards
//! evaluated by `ccta::Guard::holds` — a code path independent of the
//! checker's compiled guard bounds.  Agreement configuration-by-
//! configuration between the two executors is the simulator leg of the
//! three-oracle cross-check.

use ccchecker::{CheckStatus, CheckerOptions, ExplicitChecker, Spec};
use cccore::{verify_protocol, VerifierConfig};
use cccounter::CounterSystem;
use ccprotocols::family::FamilyParams;
use ccsim::bridge::replay_schedule;

/// Replays `ce` through both executors and asserts they agree on every
/// configuration, ending in the violating one.
fn assert_simulator_reproduces(sys: &CounterSystem, ce: &ccchecker::Counterexample, ctx: &str) {
    // structural acyclicity violations carry no schedule to replay
    if ce.schedule.is_empty() {
        assert!(ce.explanation.contains("cycle"), "{ctx}");
        return;
    }
    let path = ce
        .schedule
        .apply(sys, &ce.initial)
        .unwrap_or_else(|e| panic!("{ctx}: counter semantics must replay: {e:?}"));
    let sim = replay_schedule(sys, &ce.initial, &ce.schedule)
        .unwrap_or_else(|e| panic!("{ctx}: simulator must replay: {e}"));
    assert_eq!(
        sim.len(),
        path.configs().len(),
        "{ctx}: executors disagree on path length"
    );
    for (step, (s, c)) in sim.iter().zip(path.configs()).enumerate() {
        assert_eq!(
            s, c,
            "{ctx}: simulator diverges from counter semantics at step {step}"
        );
    }
}

#[test]
fn every_benchmark_violation_replays_in_the_simulator() {
    let config = VerifierConfig::quick();
    let mut replayed = 0usize;
    for protocol in ccprotocols::all_protocols() {
        let single_round = protocol.single_round();
        let result = verify_protocol(&protocol, &config);
        for property in [&result.agreement, &result.validity, &result.termination] {
            for report in &property.reports {
                for outcome in &report.outcomes {
                    if outcome.outcome.status != CheckStatus::Violated {
                        continue;
                    }
                    let ce = outcome
                        .outcome
                        .counterexample
                        .as_ref()
                        .expect("violated outcomes carry a counterexample");
                    let sys = CounterSystem::new(single_round.clone(), ce.params.clone())
                        .expect("counterexample valuations are admissible");
                    let ctx = format!("{}/{}", protocol.name(), report.spec_name);
                    assert_simulator_reproduces(&sys, ce, &ctx);
                    replayed += 1;
                }
            }
        }
    }
    // the benchmark contains at least the MMR14 binding refutation
    assert!(replayed >= 1, "no benchmark violation was found to replay");
}

#[test]
fn every_generated_family_violation_replays_in_the_simulator() {
    // a small but varied slice of the family parameter space; the checker
    // crate's family_differential suite covers the full 200+ corpus
    let presets = [
        FamilyParams::default(),
        FamilyParams {
            phases: 3,
            width: 1,
            guard_density: 80,
            ..FamilyParams::default()
        },
        FamilyParams {
            faults: ccprotocols::family::FaultModel::Crash,
            ..FamilyParams::default()
        },
    ];
    let mut replayed = 0usize;
    for (pi, params) in presets.iter().enumerate() {
        for seed in 0..24u64 {
            let fam = params.instantiate(0x51A4_0000 + pi as u64 * 0x100 + seed);
            let sys = CounterSystem::new(fam.single_round.clone(), fam.valuation.clone())
                .expect("generated valuations are admissible");
            let specs = Spec::family_catalogue(&fam.single_round, &fam.obligations);
            let outcomes =
                ExplicitChecker::with_options(&sys, CheckerOptions::default()).check_all(&specs);
            for (spec, outcome) in specs.iter().zip(&outcomes) {
                if outcome.status != CheckStatus::Violated {
                    continue;
                }
                let ce = outcome
                    .counterexample
                    .as_ref()
                    .expect("violated outcomes carry a counterexample");
                let ctx = format!("family seed {:#x}, {}", fam.seed, spec.name());
                assert_simulator_reproduces(&sys, ce, &ctx);
                replayed += 1;
            }
        }
    }
    assert!(replayed >= 1, "no family violation was found to replay");
}
