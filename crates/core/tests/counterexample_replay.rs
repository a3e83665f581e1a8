//! Counterexample replay: every violation the verifier reports on the
//! Table II benchmark must be a *real* execution.
//!
//! The engine-equivalence and determinism suites compare counterexample
//! schedules between engines, but never re-execute them against the query
//! that was violated.  This suite closes that gap: for every violated
//! obligation found across all eight benchmark protocols, the reported
//! schedule is re-applied step by step through `cccounter`'s schedule
//! application (every step's applicability is re-validated), and the
//! resulting path is checked to *genuinely* violate the obligation:
//!
//! * `NeverFrom` / `CoverNever` — the monitor bits accumulate along the
//!   path and become fully set exactly at the final configuration (any
//!   earlier position would have fired the violation there instead).
//! * `ExistsAvoidOneOf` — the adversary strategy path cumulatively
//!   occupies every tracked set, completing at its final configuration.
//! * `NonBlocking` — the path ends in a terminal configuration stranding
//!   an automaton outside the border-copy sinks.

use ccchecker::{
    check_over_sweep_with_stats, CheckStatus, CheckerOptions, LocSet, Spec, StartRestriction,
};
use cccore::{obligations_for, verify_protocol, VerifierConfig};
use cccounter::{CounterSystem, Path};
use ccta::prelude::*;
use ccta::LocClass;

/// The first path position at which every given location set has been
/// occupied at least once (cumulatively), if any.
fn first_cumulative_cover(path: &Path, sets: &[&ccchecker::LocSet]) -> Option<usize> {
    let mut covered = vec![false; sets.len()];
    for (i, cfg) in path.configs().iter().enumerate() {
        for (j, set) in sets.iter().enumerate() {
            if set.is_occupied(cfg) {
                covered[j] = true;
            }
        }
        if covered.iter().all(|&c| c) {
            return Some(i);
        }
    }
    None
}

/// Replays one reported counterexample through the counter system and
/// asserts that the resulting execution genuinely violates `spec`.
fn assert_genuine_violation(
    sys: &CounterSystem,
    spec: &Spec,
    ce: &ccchecker::Counterexample,
    protocol: &str,
) {
    // structural acyclicity violations carry no schedule to replay
    if ce.explanation.contains("cycle") {
        assert!(ce.schedule.is_empty());
        return;
    }
    // step-by-step re-execution: `apply` re-validates the applicability of
    // every scheduled step against the counter-system semantics
    let path = ce.schedule.apply(sys, &ce.initial).unwrap_or_else(|e| {
        panic!(
            "{protocol}/{}: counterexample schedule does not replay: {e:?}",
            spec.name()
        )
    });
    assert_eq!(path.len(), ce.schedule.len());
    let ctx = format!("{protocol}/{}", spec.name());
    match spec {
        Spec::NeverFrom { forbidden, .. } => {
            assert_eq!(
                first_cumulative_cover(&path, &[forbidden]),
                Some(path.configs().len() - 1),
                "{ctx}: the path must first occupy {} at its final configuration",
                forbidden.name()
            );
        }
        Spec::CoverNever {
            trigger, forbidden, ..
        } => {
            assert_eq!(
                first_cumulative_cover(&path, &[trigger, forbidden]),
                Some(path.configs().len() - 1),
                "{ctx}: the path must complete occupying {} and {} at its final configuration",
                trigger.name(),
                forbidden.name()
            );
        }
        Spec::ExistsAvoidOneOf { forbidden_sets, .. } => {
            let sets: Vec<&ccchecker::LocSet> = forbidden_sets.iter().collect();
            assert_eq!(
                first_cumulative_cover(&path, &sets),
                Some(path.configs().len() - 1),
                "{ctx}: the adversary strategy must cumulatively occupy every tracked set"
            );
        }
        Spec::NonBlocking { .. } => {
            let last = path.last();
            assert!(
                sys.is_terminal(last),
                "{ctx}: a blocking counterexample must end in a terminal configuration"
            );
            let model = sys.model();
            let blocked = model.loc_ids().any(|l| {
                last.counter(l, 0) > 0 && model.location(l).class() != LocClass::BorderCopy
            });
            assert!(
                blocked,
                "{ctx}: the terminal configuration must strand an automaton outside the sinks"
            );
        }
    }
}

/// A voting-style model with one extra exit `go_bad : S -> Bad` guarded by
/// `v0 >= n - t + 1`.  Correct processes can raise `v0` to at most
/// `n - f`, so at `(n, t, f) = (5, 1, 1)` the guard bound 5 exceeds the
/// attainable 4 and `Bad` is unreachable — while the relax-only step to
/// `t = 2` lowers the bound to 4 and unlocks it.  `Bad`'s only exit needs
/// `v0 >= n`, which correct processes can never reach, so every execution
/// entering `Bad` blocks there.
fn relaxable_model() -> SystemModel {
    let env = ccta::env::byzantine_common_coin_env(2);
    let k = env.num_params();
    let n = env.param_id("n").unwrap();
    let t = env.param_id("t").unwrap();
    let f = env.param_id("f").unwrap();
    let mut b = SystemBuilder::new("relaxable", env);
    let v0 = b.shared_var("v0");
    let v1 = b.shared_var("v1");
    let cc0 = b.coin_var("cc0");
    let cc1 = b.coin_var("cc1");

    let j0 = b.process_location("J0", LocClass::Border, Some(BinValue::Zero));
    let j1 = b.process_location("J1", LocClass::Border, Some(BinValue::One));
    let i0 = b.process_location("I0", LocClass::Initial, Some(BinValue::Zero));
    let i1 = b.process_location("I1", LocClass::Initial, Some(BinValue::One));
    let s = b.process_location("S", LocClass::Intermediate, None);
    let bad = b.process_location("Bad", LocClass::Intermediate, None);
    let e0 = b.process_location("E0", LocClass::Final, Some(BinValue::Zero));
    let e1 = b.process_location("E1", LocClass::Final, Some(BinValue::One));

    b.start_rule(j0, i0);
    b.start_rule(j1, i1);
    b.rule("bcast0", i0, s, Guard::top(), Update::increment(v0));
    b.rule("bcast1", i1, s, Guard::top(), Update::increment(v1));
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
    // unlocked only once t rises: v0 >= n - t + 1
    let trap = LinearExpr::param(k, n)
        .sub(&LinearExpr::param(k, t))
        .plus_const(1);
    b.rule("go_bad", s, bad, Guard::ge(v0, trap), Update::none());
    // a correct-process dead end: v0 >= n is unattainable with f >= 1
    b.rule(
        "stuck",
        bad,
        e0,
        Guard::ge(v0, LinearExpr::param(k, n)),
        Update::none(),
    );
    b.round_switch(e0, j0);
    b.round_switch(e1, j1);

    let jc = b.coin_location("JC", LocClass::Border, None);
    let ic = b.coin_location("IC", LocClass::Initial, None);
    let h0 = b.coin_location("H0", LocClass::Intermediate, None);
    let h1 = b.coin_location("H1", LocClass::Intermediate, None);
    let c0 = b.coin_location("C0", LocClass::Final, Some(BinValue::Zero));
    let c1 = b.coin_location("C1", LocClass::Final, Some(BinValue::One));
    b.start_rule(jc, ic);
    b.coin_toss(
        "toss",
        ic,
        vec![(h0, Probability::HALF), (h1, Probability::HALF)],
        Guard::top(),
        Update::none(),
    );
    b.rule("publish0", h0, c0, Guard::top(), Update::increment(cc0));
    b.rule("publish1", h1, c1, Guard::top(), Update::increment(cc1));
    b.round_switch(c0, jc);
    b.round_switch(c1, jc);

    b.build().expect("relaxable model must validate")
}

#[test]
fn counterexamples_from_extended_graphs_replay() {
    // The incremental sweep extends the (5,1,1,1) graphs across the
    // relax-only step to (5,2,1,1), and every violation of the second
    // valuation — a monitored reachability of the newly-unlocked Bad and a
    // blocking terminal inside it — is reconstructed from the *extended*
    // graph (product-BFS parents for the monitored query, the
    // first-discovery edges of the relinked discovery order for the
    // blocking scan).  Both must replay step for step, genuinely violate
    // their specs, and equal a fresh sweep's cells.
    let single = relaxable_model().single_round().unwrap();
    let valuations = [
        ParamValuation::new(vec![5, 1, 1, 1]),
        ParamValuation::new(vec![5, 2, 1, 1]),
    ];
    let specs = vec![
        Spec::NeverFrom {
            name: "never-bad".into(),
            start: StartRestriction::Unanimous(BinValue::Zero),
            forbidden: LocSet::from_names(&single, "Bad", &["Bad"]),
        },
        Spec::NonBlocking {
            name: "termination".into(),
            start: StartRestriction::RoundStart,
        },
    ];
    let (reports, stats) = check_over_sweep_with_stats(
        &single,
        &specs,
        &valuations,
        CheckerOptions::default().with_incremental_sweep(true),
        1,
    );
    // the relax-only step was actually taken as an extension
    assert!(
        stats.extended_groups() > 0,
        "the sweep never extended a graph: {stats}"
    );
    let (fresh, _) = check_over_sweep_with_stats(
        &single,
        &specs,
        &valuations,
        CheckerOptions::default().with_incremental_sweep(false),
        1,
    );
    let cells = |report: &ccchecker::SweepReport| {
        report
            .outcomes
            .iter()
            .map(|cell| {
                let o = &cell.outcome;
                let path = o
                    .counterexample
                    .as_ref()
                    .map(|ce| (ce.initial.clone(), ce.schedule.clone()));
                (o.status, o.states_explored, o.transitions_explored, path)
            })
            .collect::<Vec<_>>()
    };
    for (report, fresh) in reports.iter().zip(&fresh) {
        assert_eq!(cells(report), cells(fresh), "{}", report.spec_name);
    }
    let mut replayed = 0usize;
    for (report, spec) in reports.iter().zip(&specs) {
        // unreachable trap at the tight valuation, sprung at the relaxed one
        assert_eq!(
            report.outcomes[0].outcome.status,
            CheckStatus::Holds,
            "{}",
            report.spec_name
        );
        assert_eq!(
            report.outcomes[1].outcome.status,
            CheckStatus::Violated,
            "{}",
            report.spec_name
        );
        let ce = report.outcomes[1]
            .outcome
            .counterexample
            .as_ref()
            .expect("violated outcomes carry a counterexample");
        let sys = CounterSystem::new(single.clone(), ce.params.clone()).expect("admissible");
        assert_genuine_violation(&sys, spec, ce, "relaxable");
        replayed += 1;
    }
    assert_eq!(replayed, specs.len());
}

#[test]
fn every_benchmark_violation_replays_to_a_violating_configuration() {
    let config = VerifierConfig::quick();
    let mut replayed = 0usize;
    for protocol in ccprotocols::all_protocols() {
        let single_round = protocol.single_round();
        let obligations = obligations_for(&protocol, &single_round);
        let specs = obligations.all();
        let result = verify_protocol(&protocol, &config);
        for property in [&result.agreement, &result.validity, &result.termination] {
            for report in &property.reports {
                let spec = specs
                    .iter()
                    .find(|s| s.name() == report.spec_name)
                    .unwrap_or_else(|| panic!("unknown obligation {}", report.spec_name));
                for outcome in &report.outcomes {
                    if outcome.outcome.status != CheckStatus::Violated {
                        continue;
                    }
                    let ce = outcome
                        .outcome
                        .counterexample
                        .as_ref()
                        .expect("violated outcomes carry a counterexample");
                    assert_eq!(ce.params, outcome.params);
                    let sys = CounterSystem::new(single_round.clone(), ce.params.clone())
                        .expect("counterexample valuations are admissible");
                    assert_genuine_violation(&sys, spec, ce, protocol.name());
                    replayed += 1;
                }
            }
        }
    }
    // the benchmark is known to contain at least one violation (the MMR14
    // adaptive-adversary attack refutes its binding condition); if this
    // count drops to zero the suite stopped testing anything
    assert!(replayed >= 1, "no violation was found to replay");
}
