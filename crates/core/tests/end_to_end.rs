//! Integration tests spanning the whole stack: protocol models (ccprotocols)
//! → single-round construction (ccta) → counter systems (cccounter) →
//! obligations and checking (ccchecker, cccore).

use ccchecker::reference::reference_check;
use ccchecker::CheckerOptions;
use cccore::prelude::*;
use cccounter::{CounterSystem, EagerAdversary, RandomAdversary, RoundRigid, RunOutcome};
use ccta::{BinValue, ModelKind, Owner, ParamValuation};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn the_benchmark_reproduces_table_ii_verdicts() {
    // Every protocol satisfies Agreement and Validity; every protocol except
    // MMR14 also satisfies the almost-sure-termination obligations, while
    // MMR14 is refuted by a binding counterexample (Table II, last column).
    let config = VerifierConfig::quick();
    for result in verify_all(&config) {
        assert!(result.agreement.holds(), "{} agreement", result.protocol);
        assert!(result.validity.holds(), "{} validity", result.protocol);
        if result.protocol == "MMR14" {
            assert!(result.termination.is_violated());
            let obligation = result.termination.violated_obligation().unwrap();
            assert!(obligation.starts_with("CB"), "{obligation}");
        } else {
            assert!(
                result.termination.holds(),
                "{} termination ({:?})",
                result.protocol,
                result.termination.violated_obligation()
            );
        }
    }
}

#[test]
fn mmr14_counterexample_replays_on_the_counter_system() {
    // The CB2 counterexample reported by the checker is a real execution of
    // the single-round counter system: replaying it visits a configuration
    // with the refined N0 location occupied and one with M1 occupied.
    let mmr14 = protocol_by_name("MMR14").unwrap();
    let result = verify_protocol(&mmr14, &VerifierConfig::quick());
    let ce = result
        .termination
        .counterexample
        .expect("MMR14 must produce a counterexample");
    let single_round = mmr14.single_round();
    let sys = CounterSystem::new(single_round.clone(), ce.params.clone()).unwrap();
    let path = ce
        .schedule
        .apply(&sys, &ce.initial)
        .expect("counterexample schedule must be applicable");
    let n0 = single_round.location_id("N0").unwrap();
    let m1 = single_round.location_id("M1").unwrap();
    assert!(path.visits(|c| c.counter(n0, 0) > 0));
    assert!(path.visits(|c| c.counter(m1, 0) > 0));
}

#[test]
fn single_round_models_keep_the_variable_alphabet() {
    for protocol in all_protocols() {
        let multi = protocol.model();
        let single = protocol.single_round();
        assert_eq!(single.kind(), ModelKind::SingleRound);
        assert_eq!(multi.vars(), single.vars());
        // border copies are added, nothing else disappears
        assert_eq!(
            single.locations().len(),
            multi.locations().len()
                + multi.border_locations(Owner::Process, None).len()
                + multi.border_locations(Owner::Coin, None).len()
        );
    }
}

#[test]
fn graph_cache_agrees_with_the_per_spec_path_on_every_protocol() {
    // The reachability-graph cache must agree with the reference engine's
    // per-spec search on every obligation of all eight Table II protocols —
    // per obligation and per valuation, not just in aggregate: verdict,
    // state and transition counts, and the counterexample schedule step for
    // step, which must also replay.
    let config = VerifierConfig::quick();
    for protocol in all_protocols() {
        let single = protocol.single_round();
        let obligations = obligations_for(&protocol, &single);
        let specs = obligations.all();
        let cached = verify_protocol(&protocol, &config);
        let stats = cached.cache_stats();
        assert!(stats.graphs_built() > 0, "{}", cached.protocol);
        assert!(
            stats.specs_served() > stats.graphs_built(),
            "{}: {stats}",
            cached.protocol
        );
        let reports = [&cached.agreement, &cached.validity, &cached.termination]
            .into_iter()
            .flat_map(|p| &p.reports);
        for report in reports {
            let spec = specs
                .iter()
                .find(|s| s.name() == report.spec_name)
                .expect("known obligation");
            for cell in report.outcomes.iter().filter(|c| !c.skipped) {
                let ctx = format!(
                    "{}/{} at {}",
                    cached.protocol, report.spec_name, cell.params
                );
                let sys = CounterSystem::new(single.clone(), cell.params.clone()).unwrap();
                let reference = reference_check(&sys, spec, &CheckerOptions::default());
                assert_eq!(cell.outcome.status, reference.status, "{ctx}");
                assert_eq!(
                    cell.outcome.states_explored, reference.states_explored,
                    "{ctx}"
                );
                assert_eq!(
                    cell.outcome.transitions_explored, reference.transitions_explored,
                    "{ctx}"
                );
                assert_eq!(
                    cell.outcome
                        .counterexample
                        .as_ref()
                        .map(|ce| ce.schedule.steps()),
                    reference
                        .counterexample
                        .as_ref()
                        .map(|ce| ce.schedule.steps()),
                    "{ctx}"
                );
                if let Some(ce) = &cell.outcome.counterexample {
                    assert!(
                        ce.schedule.is_empty() || ce.schedule.apply(&sys, &ce.initial).is_ok(),
                        "{ctx}: cached counterexample must replay"
                    );
                }
            }
        }
    }
}

#[test]
fn round_rigid_adversary_runs_terminate_on_every_single_round_benchmark() {
    // Theorem 2's side condition, exercised dynamically: fair round-rigid
    // adversaries drive every single-round benchmark system into a terminal
    // configuration.
    let mut rng = StdRng::seed_from_u64(9);
    for protocol in all_protocols() {
        let single = protocol.single_round();
        let Some(valuation) = VerifierConfig::quick()
            .select_valuations(&single)
            .into_iter()
            .next()
        else {
            continue;
        };
        let sys = CounterSystem::new(single, valuation).unwrap();
        let init = sys.round_start_configurations()[0].clone();
        let mut adv = RoundRigid::new(EagerAdversary);
        let (path, outcome) =
            cccounter::adversary::run_adversary(&sys, init, &mut adv, &mut rng, 2_000);
        assert_eq!(outcome, RunOutcome::Terminal, "{}", protocol.name());
        assert!(path.schedule().is_round_rigid());
    }
}

#[test]
fn validity_holds_dynamically_for_unanimous_starts() {
    // Sampled executions of the KS16 single-round system from unanimous-0
    // starts never occupy a final location with value 1.
    let protocol = protocol_by_name("KS16").unwrap();
    let single = protocol.single_round();
    let e1_locs = single.final_locations(Owner::Process, Some(BinValue::One));
    let sys = CounterSystem::new(single, ParamValuation::new(vec![4, 1, 1, 1])).unwrap();
    let init = sys.unanimous_start_configurations(BinValue::Zero)[0].clone();
    let mut rng = StdRng::seed_from_u64(3);
    for seed in 0..20u64 {
        let mut adv = RandomAdversary::new(StdRng::seed_from_u64(seed));
        let (path, outcome) =
            cccounter::adversary::run_adversary(&sys, init.clone(), &mut adv, &mut rng, 2_000);
        assert_eq!(outcome, RunOutcome::Terminal);
        assert!(path.always(|c| e1_locs.iter().all(|&l| c.counter(l, 0) == 0)));
    }
}

/// Theorem 1, sampled: any applicable schedule sampled by a random adversary
/// on the multi-round MMR14 system can be reordered into a round-rigid
/// schedule that is applicable and reaches the same configuration.
#[test]
fn theorem_1_reordering_on_sampled_schedules() {
    let mmr14 = protocol_by_name("MMR14").unwrap();
    let sys =
        CounterSystem::new(mmr14.model().clone(), ParamValuation::new(vec![4, 1, 1, 1])).unwrap();
    let init = sys.round_start_configurations()[0].clone();
    for seed in (0u64..500).step_by(31) {
        let mut adv = RandomAdversary::new(StdRng::seed_from_u64(seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let (path, _) =
            cccounter::adversary::run_adversary(&sys, init.clone(), &mut adv, &mut rng, 120);
        let schedule = path.schedule();
        assert!(schedule.is_applicable(&sys, &init), "seed {seed}");
        let rigid = schedule.round_rigid_reordering();
        assert!(rigid.is_round_rigid(), "seed {seed}");
        let rigid_final = rigid.apply(&sys, &init).unwrap().last().clone();
        assert_eq!(&rigid_final, path.last(), "seed {seed}");
    }
}

/// The schema-count metric is monotone in the query shape: the two-cut
/// CoverNever queries always cost at least as much as single-cut queries on
/// the same automaton.  Counting a whole catalogue at once gives every
/// obligation the count it gets on its own.
#[test]
fn schema_counts_are_monotone_in_cut_points() {
    for protocol in all_protocols() {
        let single = protocol.single_round();
        let obligations = obligations_for(&protocol, &single);
        let inv1 = ccchecker::schema_count(&single, &obligations.agreement[0]);
        let inv2 = ccchecker::schema_count(&single, &obligations.validity[0]);
        assert!(inv1 >= inv2, "{}", protocol.name());
        let catalogue = obligations.all();
        let per_spec: Vec<u128> = catalogue
            .iter()
            .map(|s| ccchecker::schema_count(&single, s))
            .collect();
        assert_eq!(
            ccchecker::schema_counts(&single, catalogue),
            per_spec,
            "{}",
            protocol.name()
        );
    }
}
