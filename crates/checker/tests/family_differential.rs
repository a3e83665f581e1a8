//! Differential testing over generated protocol families.
//!
//! Where `random_differential` replays the frozen compatibility corpus,
//! this suite sweeps `ccprotocols::family` across its *parameter space*:
//! eight presets (Byzantine and crash-stop fault models, shallow and deep
//! phase structures, sparse and saturated guard densities, resilience 2
//! and 3) × 26 seeds each = 208 distinct families, every one checked
//! against three independent oracles:
//!
//! * **Engine ≡ reference** — verdict, state count, transition count and
//!   counterexample schedules, per obligation.
//! * **Incremental ≡ fresh** — the guard-adjacent sweep grid the generator
//!   attaches to resilience-2 families is bit-identical incrementally and
//!   from scratch.
//! * **Simulator cross-check** — `ccsim::bridge` executes each family as
//!   individual automaton copies with independently evaluated guards:
//!   seeded fair and adversarial runs must never witness a violation of an
//!   obligation the checker proved safe, and every checker counterexample
//!   schedule must replay at the process level to the exact violating
//!   configurations.
//!
//! A failure message always carries the preset label and seed, so any
//! family can be rebuilt deterministically.

use ccchecker::reference::reference_check;
use ccchecker::{
    check_over_sweep_with_stats, CheckStatus, CheckerOptions, ExplicitChecker, LocSet, Spec,
    SweepReport,
};
use cccounter::{Configuration, CounterSystem};
use ccprotocols::family::{FamilyParams, FaultModel, GeneratedFamily};
use ccsim::bridge::{replay_schedule, simulate, SimPolicy};
use ccta::LocClass;

/// Seeds per preset: 8 presets × 26 seeds = 208 families.
const SEEDS_PER_PRESET: usize = 26;

/// The family parameter presets: both fault models, shallow/deep/wide
/// phase structures, sparse and saturated guard densities, resilience 2
/// and 3.
fn presets() -> Vec<(&'static str, FamilyParams)> {
    let base = FamilyParams::default();
    vec![
        (
            "byz-tiny",
            FamilyParams {
                phases: 1,
                width: 1,
                shared_vars: 1,
                ..base.clone()
            },
        ),
        (
            "byz-branchy",
            FamilyParams {
                phases: 2,
                width: 2,
                fanout: 3,
                guard_density: 50,
                ..base.clone()
            },
        ),
        (
            "byz-dense",
            FamilyParams {
                phases: 2,
                width: 1,
                guard_density: 90,
                ..base.clone()
            },
        ),
        (
            "crash-tiny",
            FamilyParams {
                phases: 1,
                width: 2,
                shared_vars: 1,
                faults: FaultModel::Crash,
                ..base.clone()
            },
        ),
        (
            "crash-deep",
            FamilyParams {
                phases: 3,
                width: 1,
                faults: FaultModel::Crash,
                ..base.clone()
            },
        ),
        (
            "mixed",
            FamilyParams {
                phases: 2,
                width: 2,
                faults: FaultModel::Mixed,
                ..base.clone()
            },
        ),
        (
            "byz-a3",
            FamilyParams {
                phases: 1,
                width: 1,
                shared_vars: 1,
                resilience: 3,
                ..base.clone()
            },
        ),
        (
            "mixed-sparse",
            FamilyParams {
                phases: 2,
                width: 1,
                guard_density: 20,
                shared_vars: 1,
                faults: FaultModel::Mixed,
                ..base
            },
        ),
    ]
}

/// The full corpus: every preset at every seed, with a context label.
fn corpus() -> Vec<(String, GeneratedFamily)> {
    let mut families = Vec::new();
    for (pi, (label, params)) in presets().into_iter().enumerate() {
        for i in 0..SEEDS_PER_PRESET {
            let seed = 0xFA3_0000 + (pi as u64) * 0x1000 + i as u64;
            families.push((format!("{label}#{i}"), params.instantiate(seed)));
        }
    }
    families
}

fn counter_system(fam: &GeneratedFamily) -> CounterSystem {
    CounterSystem::new(fam.single_round.clone(), fam.valuation.clone())
        .expect("generated valuations are admissible")
}

fn specs_of(fam: &GeneratedFamily) -> Vec<Spec> {
    Spec::family_catalogue(&fam.single_round, &fam.obligations)
}

#[test]
fn generated_families_match_the_reference_engine() {
    let mut verdicts = [0usize; 3];
    for (ctx, fam) in corpus() {
        let sys = counter_system(&fam);
        let options = CheckerOptions::default();
        for spec in specs_of(&fam) {
            let engine = ExplicitChecker::with_options(&sys, options).check(&spec);
            let reference = reference_check(&sys, &spec, &options);
            let where_ = format!("{ctx} (seed {:#x}), {}", fam.seed, spec.name());
            assert_eq!(engine.status, reference.status, "verdicts differ: {where_}");
            assert_eq!(
                engine.states_explored, reference.states_explored,
                "state counts differ: {where_}"
            );
            assert_eq!(
                engine.transitions_explored, reference.transitions_explored,
                "transition counts differ: {where_}"
            );
            verdicts[match engine.status {
                CheckStatus::Holds => 0,
                CheckStatus::Violated => 1,
                CheckStatus::Unknown => 2,
            }] += 1;
            if engine.status == CheckStatus::Violated {
                let e = engine.counterexample.expect("engine counterexample");
                let r = reference.counterexample.expect("reference counterexample");
                assert_eq!(e.initial, r.initial, "initials differ: {where_}");
                assert_eq!(
                    e.schedule.steps(),
                    r.schedule.steps(),
                    "schedules differ: {where_}"
                );
            }
        }
    }
    assert!(
        verdicts[0] > 0 && verdicts[1] > 0,
        "degenerate verdict distribution: {verdicts:?}"
    );
}

/// Bit-identity of two sweeps of one grid: verdicts, per-cell counts and
/// counterexample schedules.
fn assert_sweeps_identical(a: &[SweepReport], b: &[SweepReport], ctx: &str) {
    for (ra, rb) in a.iter().zip(b) {
        let where_ = format!("{ctx}, {}", ra.spec_name);
        assert_eq!(ra.status(), rb.status(), "sweep status differs: {where_}");
        assert_eq!(ra.outcomes.len(), rb.outcomes.len(), "{where_}");
        for (oa, ob) in ra.outcomes.iter().zip(&rb.outcomes) {
            let cell = format!("{where_} at {}", oa.params);
            assert_eq!(oa.params, ob.params, "{cell}");
            assert_eq!(oa.skipped, ob.skipped, "{cell}");
            assert_eq!(oa.outcome.status, ob.outcome.status, "{cell}");
            assert_eq!(
                oa.outcome.states_explored, ob.outcome.states_explored,
                "state count differs: {cell}"
            );
            assert_eq!(
                oa.outcome.transitions_explored, ob.outcome.transitions_explored,
                "transition count differs: {cell}"
            );
            match (&oa.outcome.counterexample, &ob.outcome.counterexample) {
                (None, None) => {}
                (Some(ca), Some(cb)) => {
                    assert_eq!(ca.initial, cb.initial, "initial differs: {cell}");
                    assert_eq!(
                        ca.schedule.steps(),
                        cb.schedule.steps(),
                        "schedule differs: {cell}"
                    );
                }
                _ => panic!("counterexample presence differs: {cell}"),
            }
        }
    }
}

#[test]
fn generated_families_incremental_sweep_matches_fresh() {
    let (mut reused, mut extended, mut pruned, mut memo_hits) = (0usize, 0usize, 0usize, 0usize);
    let mut swept = 0usize;
    for (ctx, fam) in corpus() {
        // resilience-3 families carry a single-valuation "sweep"; and the
        // crash-stop environment models all n = 5 processes at the grid's
        // n, which is too heavy to run 200× here — keep the incremental
        // axis to the 4-process grids
        let env = fam.single_round.env().clone();
        if fam.sweep.len() < 2
            || fam
                .sweep
                .iter()
                .any(|v| env.system_size(v).is_none_or(|s| s.processes > 4))
        {
            continue;
        }
        swept += 1;
        let specs = specs_of(&fam);
        let sweep = |options: CheckerOptions| {
            check_over_sweep_with_stats(&fam.single_round, &specs, &fam.sweep, options, 1)
        };
        let where_ = format!("{ctx} (seed {:#x})", fam.seed);
        let (incremental, stats) = sweep(CheckerOptions::default());
        let (fresh, _) = sweep(CheckerOptions::default().with_incremental_sweep(false));
        assert_sweeps_identical(&incremental, &fresh, &format!("{where_}, fresh"));
        reused += stats.reused_groups();
        extended += stats.extended_groups();
        pruned += stats.pruned_groups();
        memo_hits += stats.memo_hits();
    }
    assert!(swept > 0, "no family qualified for the incremental axis");
    assert!(reused > 0, "no identical step was reused");
    assert!(extended > 0, "no relax-only step was extended");
    assert!(pruned > 0, "no tighten step was pruned in place");
    assert!(memo_hits > 0, "no identical step ever hit the verdict memo");
}

/// Whether a simulator-visited configuration sequence witnesses a
/// violation of a (non-probabilistic) obligation, mirroring the checker's
/// cumulative semantics.
fn run_witnesses_violation(
    sys: &CounterSystem,
    spec: &Spec,
    configs: &[Configuration],
    terminal: bool,
) -> bool {
    match spec {
        Spec::NeverFrom { forbidden, .. } => configs.iter().any(|c| forbidden.is_occupied(c)),
        Spec::CoverNever {
            trigger, forbidden, ..
        } => {
            configs.iter().any(|c| trigger.is_occupied(c))
                && configs.iter().any(|c| forbidden.is_occupied(c))
        }
        Spec::NonBlocking { .. } => {
            let model = sys.model();
            terminal
                && configs.last().is_some_and(|last| {
                    model.loc_ids().any(|l| {
                        last.counter(l, 0) > 0 && model.location(l).class() != LocClass::BorderCopy
                    })
                })
        }
        // a single run cannot witness a ∀adversary∃path violation
        Spec::ExistsAvoidOneOf { .. } => false,
    }
}

/// The locations an adversarial run steers toward: the obligation's
/// forbidden sets.
fn adversarial_targets(spec: &Spec) -> Vec<ccta::LocId> {
    let sets: Vec<&LocSet> = match spec {
        Spec::NeverFrom { forbidden, .. } => vec![forbidden],
        Spec::CoverNever {
            trigger, forbidden, ..
        } => vec![trigger, forbidden],
        Spec::ExistsAvoidOneOf { forbidden_sets, .. } => forbidden_sets.iter().collect(),
        Spec::NonBlocking { .. } => vec![],
    };
    sets.into_iter()
        .flat_map(|s| s.locs().iter().copied())
        .collect()
}

#[test]
fn generated_families_agree_with_the_simulator_oracle() {
    let (mut safe_runs, mut replayed) = (0usize, 0usize);
    for (ctx, fam) in corpus() {
        let sys = counter_system(&fam);
        let specs = specs_of(&fam);
        let outcomes =
            ExplicitChecker::with_options(&sys, CheckerOptions::default()).check_all(&specs);
        for (spec, outcome) in specs.iter().zip(&outcomes) {
            let where_ = format!("{ctx} (seed {:#x}), {}", fam.seed, spec.name());
            match outcome.status {
                CheckStatus::Holds => {
                    // direction (a): simulation must never witness a
                    // violation the checker proved safe
                    if matches!(spec, Spec::ExistsAvoidOneOf { .. }) {
                        continue;
                    }
                    let starts = spec.start().configurations(&sys);
                    let targets = adversarial_targets(spec);
                    for (si, start) in starts.iter().take(3).enumerate() {
                        let mut runs = vec![
                            simulate(&sys, start, &SimPolicy::Fair, fam.seed ^ si as u64, 250),
                            simulate(
                                &sys,
                                start,
                                &SimPolicy::Fair,
                                fam.seed ^ 0x9E37 ^ si as u64,
                                250,
                            ),
                        ];
                        if !targets.is_empty() {
                            runs.push(simulate(
                                &sys,
                                start,
                                &SimPolicy::Adversarial(targets.clone()),
                                fam.seed ^ si as u64,
                                250,
                            ));
                            runs.push(simulate(
                                &sys,
                                start,
                                &SimPolicy::Adversarial(targets.clone()),
                                fam.seed ^ 0x517C ^ si as u64,
                                250,
                            ));
                        }
                        for trace in runs {
                            assert!(
                                !run_witnesses_violation(
                                    &sys,
                                    spec,
                                    &trace.configs,
                                    trace.terminal
                                ),
                                "the simulator witnessed a violation the checker called safe: \
                                 {where_} from start #{si}"
                            );
                            safe_runs += 1;
                        }
                    }
                }
                CheckStatus::Violated => {
                    // direction (b): every checker counterexample schedule
                    // replays at the process level to the same violating
                    // configurations
                    let ce = outcome.counterexample.as_ref().expect("counterexample");
                    if ce.schedule.is_empty() {
                        // structural acyclicity violations carry no schedule
                        assert!(ce.explanation.contains("cycle"), "{where_}");
                        continue;
                    }
                    let path = ce
                        .schedule
                        .apply(&sys, &ce.initial)
                        .unwrap_or_else(|e| panic!("{where_}: must replay in counters: {e:?}"));
                    let sim = replay_schedule(&sys, &ce.initial, &ce.schedule)
                        .unwrap_or_else(|e| panic!("{where_}: must replay in the simulator: {e}"));
                    assert_eq!(
                        sim.len(),
                        path.configs().len(),
                        "simulator path length differs: {where_}"
                    );
                    for (step, (mine, theirs)) in sim.iter().zip(path.configs()).enumerate() {
                        assert_eq!(
                            mine, theirs,
                            "simulator diverges from counter semantics at step {step}: {where_}"
                        );
                    }
                    // the replayed execution genuinely violates the spec
                    if !matches!(spec, Spec::ExistsAvoidOneOf { .. }) {
                        assert!(
                            run_witnesses_violation(&sys, spec, &sim, sys.is_terminal(path.last())),
                            "replayed counterexample does not violate its spec: {where_}"
                        );
                    }
                    replayed += 1;
                }
                CheckStatus::Unknown => {}
            }
        }
    }
    // the corpus must drive both directions of the oracle
    assert!(safe_runs > 0, "no safe obligation was ever simulated");
    assert!(replayed > 0, "no counterexample was ever replayed");
}
