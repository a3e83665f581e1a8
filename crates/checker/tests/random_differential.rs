//! Randomized differential testing of the exploration engine.
//!
//! The hand-picked fixtures and the eight benchmark protocols pin the
//! engine on *known* shapes; this suite hammers it with ~100 seeded random
//! small counter systems (random intra-round DAGs, guards, updates and
//! tracked location sets, generated by `ccprotocols::family`'s
//! compatibility seed mode — the frozen RNG schedule of this suite's
//! original private generator, so the corpus is bit-identical to what the
//! suite always ran) and checks these contracts on each:
//!
//! * **Engine ≡ reference** — verdict, distinct-state count, transition
//!   count, and (for violations) the counterexample schedule step for step,
//!   which must also replay to a genuine violation of its spec.  The engine
//!   side checks each spec on its own and the whole catalogue through one
//!   `check_all`, whose batched pass answers a group's monitored
//!   obligations together.
//! * **Incremental ≡ fresh** — guard-adjacent sweeps, whose incremental
//!   side extends, reuses, prunes and hits the verdict memo, are
//!   bit-identical with the lineage on and off.
//! * **Stopped and continued ≡ uninterrupted** — a `CheckJob` stopped at a
//!   random state threshold, then continued the way `ccserve` continues a
//!   parked cell (a fresh job over the owed obligations, repeatedly, with a
//!   doubling threshold) produces verdicts, counts and counterexample
//!   schedules bit-identical to a run that was never stopped, also under a
//!   per-exploration bound that leaves bounded group builds answering
//!   `Unknown`.  A job over a random subset of the catalogue answers each
//!   of its obligations as `check_all` over the whole catalogue does.
//!
//! A failure message always includes the generator seed, so any
//! counterexample system can be rebuilt deterministically.

use ccchecker::reference::reference_check;
use ccchecker::{
    check_over_sweep_with_stats, fixtures, CheckJob, CheckStatus, CheckerOptions, ExplicitChecker,
    Spec,
};
use cccounter::CounterSystem;
use ccprotocols::family::{differential_family, differential_obligations_with};
use ccta::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of random systems per test.
const SYSTEMS: usize = 100;

/// The per-exploration state bound of the stop-and-continue axis's bounded
/// leg: low enough that most group builds trip it.
const BOUNDED_STATES: usize = 12;

/// One random small system from the family generator's compatibility seed
/// mode: a valid multi-round model (random intra-round process DAG plus the
/// standard fair-coin automaton) at an admissible valuation with 2–3
/// modelled processes.
fn random_system(seed: u64) -> (CounterSystem, Vec<String>) {
    let fam = differential_family(seed);
    let sys = CounterSystem::new(fam.single_round, fam.valuation)
        .unwrap_or_else(|e| panic!("seed {seed}: valuation must be admissible: {e:?}"));
    (sys, fam.mids)
}

/// Random obligations over a random system: every query shape of the
/// catalogue, over random tracked sets.  Draws from the caller's RNG so
/// tests that derive further values (the stop axis's state thresholds)
/// keep their historical draw positions.
fn random_specs(rng: &mut StdRng, model: &SystemModel, mids: &[String]) -> Vec<Spec> {
    Spec::family_catalogue(model, &differential_obligations_with(rng, mids))
}

/// A catalogue plus more monitored obligations over the same sets and
/// starts (a cover with its sets swapped, a cover's trigger alone, a
/// forbidden set as a cover of itself), so that every monitored group
/// holds several lanes of `check_all`'s batched pass.  Draws nothing.
fn with_more_lanes(specs: Vec<Spec>) -> Vec<Spec> {
    let mut more = Vec::new();
    for spec in &specs {
        match spec {
            Spec::CoverNever {
                name,
                start,
                trigger,
                forbidden,
            } => {
                more.push(Spec::CoverNever {
                    name: format!("{name}/swapped"),
                    start: *start,
                    trigger: forbidden.clone(),
                    forbidden: trigger.clone(),
                });
                more.push(Spec::NeverFrom {
                    name: format!("{name}/trigger"),
                    start: *start,
                    forbidden: trigger.clone(),
                });
            }
            Spec::NeverFrom {
                name,
                start,
                forbidden,
            } => more.push(Spec::CoverNever {
                name: format!("{name}/cover"),
                start: *start,
                trigger: forbidden.clone(),
                forbidden: forbidden.clone(),
            }),
            Spec::ExistsAvoidOneOf { .. } | Spec::NonBlocking { .. } => {}
        }
    }
    specs.into_iter().chain(more).collect()
}

#[test]
fn random_systems_match_the_reference_engine() {
    let mut verdicts = [0usize; 3];
    for i in 0..SYSTEMS {
        let seed = 0xD1F_F0000 + i as u64;
        let (sys, mids) = random_system(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC5);
        let options = CheckerOptions::default();
        let specs = with_more_lanes(random_specs(&mut rng, sys.model(), &mids));
        let batched = ExplicitChecker::with_options(&sys, options).check_all(&specs);
        for (spec, batched) in specs.iter().zip(batched) {
            let engine = ExplicitChecker::with_options(&sys, options).check(spec);
            let reference = reference_check(&sys, spec, &options);
            let ctx = format!("seed {seed}, {}, check_all", spec.name());
            assert_job_outcome_identical(&batched, &reference, &ctx);
            assert_eq!(
                engine.status,
                reference.status,
                "seed {seed}: verdicts differ on {}",
                spec.name()
            );
            assert_eq!(
                engine.states_explored,
                reference.states_explored,
                "seed {seed}: state counts differ on {}",
                spec.name()
            );
            assert_eq!(
                engine.transitions_explored,
                reference.transitions_explored,
                "seed {seed}: transition counts differ on {}",
                spec.name()
            );
            verdicts[match engine.status {
                CheckStatus::Holds => 0,
                CheckStatus::Violated => 1,
                CheckStatus::Unknown => 2,
            }] += 1;
            if engine.status == CheckStatus::Violated {
                let e = engine.counterexample.expect("engine counterexample");
                let r = reference.counterexample.expect("reference counterexample");
                assert_eq!(
                    e.initial,
                    r.initial,
                    "seed {seed}: counterexample initials differ on {}",
                    spec.name()
                );
                assert_eq!(
                    e.schedule.steps(),
                    r.schedule.steps(),
                    "seed {seed}: counterexample schedules differ on {}",
                    spec.name()
                );
                // the counterexample is a real execution of the system
                let path = e
                    .schedule
                    .apply(&sys, &e.initial)
                    .unwrap_or_else(|err| panic!("seed {seed}: must replay: {err:?}"));
                assert_eq!(path.len(), e.schedule.len());
                let ctx = format!("seed {seed}, {}", spec.name());
                assert_genuine_violation(&sys, spec, &e, &ctx);
            }
        }
    }
    // the random family is not degenerate: both verdicts actually occur
    assert!(
        verdicts[0] > 0 && verdicts[1] > 0,
        "degenerate verdict distribution: {verdicts:?}"
    );
}

/// Replays a counterexample and asserts the resulting execution genuinely
/// violates the spec it was reported for.
fn assert_genuine_violation(
    sys: &CounterSystem,
    spec: &Spec,
    ce: &ccchecker::Counterexample,
    ctx: &str,
) {
    // structural acyclicity violations carry no schedule to replay
    if ce.explanation.contains("cycle") {
        assert!(ce.schedule.is_empty(), "{ctx}");
        return;
    }
    let path = ce
        .schedule
        .apply(sys, &ce.initial)
        .unwrap_or_else(|e| panic!("{ctx}: counterexample must replay: {e:?}"));
    match spec {
        Spec::NeverFrom { forbidden, .. } => {
            assert!(
                path.visits(|cfg| forbidden.is_occupied(cfg)),
                "{ctx}: the path never occupies {}",
                forbidden.name()
            );
        }
        Spec::CoverNever {
            trigger, forbidden, ..
        } => {
            assert!(
                path.visits(|cfg| trigger.is_occupied(cfg))
                    && path.visits(|cfg| forbidden.is_occupied(cfg)),
                "{ctx}: the path must occupy both {} and {}",
                trigger.name(),
                forbidden.name()
            );
        }
        Spec::ExistsAvoidOneOf { forbidden_sets, .. } => {
            for set in forbidden_sets {
                assert!(
                    path.visits(|cfg| set.is_occupied(cfg)),
                    "{ctx}: the strategy path never occupies {}",
                    set.name()
                );
            }
        }
        Spec::NonBlocking { .. } => {
            let last = path.last();
            assert!(
                sys.is_terminal(last),
                "{ctx}: a blocking path must end terminal"
            );
            let model = sys.model();
            assert!(
                model
                    .loc_ids()
                    .any(|l| last.counter(l, 0) > 0
                        && model.location(l).class() != LocClass::BorderCopy),
                "{ctx}: the terminal configuration must strand an automaton"
            );
        }
    }
}

#[test]
fn random_systems_incremental_sweep_matches_fresh() {
    // Random guard-adjacent valuation steps: raising t with n fixed keeps
    // the system size (n - f processes) and lowers the n - t - f quorum
    // bounds, so the sweep [t=1, t=2, t=2, t=1] walks a relax step, an
    // identical step and a tighten step through every random system.  The
    // incremental sweep must be bit-identical to the from-scratch sweep —
    // verdicts, state counts, transition counts and counterexample
    // schedules.
    let (mut reused, mut extended, mut rebuilt, mut pruned) = (0usize, 0usize, 0usize, 0usize);
    let mut memo_hits = 0usize;
    let mut replayed = 0usize;
    for i in 0..SYSTEMS {
        let seed = 0xD1F_F0000 + i as u64;
        let (sys, mids) = random_system(seed);
        let model = sys.model().clone();
        // the resilience-3 environment needs n = 7 for two admissible t
        // values, which makes 6-process sweeps too heavy for this corpus:
        // keep the guard-adjacent axis to the resilience-2 systems (n = 5,
        // 4 processes), which are roughly half the seeds
        let env = model.env();
        let pair = [
            ParamValuation::new(vec![5, 1, 1, 1]),
            ParamValuation::new(vec![5, 2, 1, 1]),
        ];
        if !pair.iter().all(|v| env.is_admissible(v)) {
            continue;
        }
        let valuations = vec![
            pair[0].clone(), // built
            pair[1].clone(), // quorum drops: relax-only extension
            pair[1].clone(), // identical bounds: pure reuse
            pair[0].clone(), // quorum rises: tighten, rebuild
        ];
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC5);
        let specs = random_specs(&mut rng, &model, &mids);
        let options = CheckerOptions::default();
        let (incremental, stats) = check_over_sweep_with_stats(
            &model,
            &specs,
            &valuations,
            options.with_incremental_sweep(true),
            1,
        );
        let (fresh, _) = check_over_sweep_with_stats(
            &model,
            &specs,
            &valuations,
            options.with_incremental_sweep(false),
            1,
        );
        reused += stats.reused_groups();
        extended += stats.extended_groups();
        rebuilt += stats.rebuilt_groups();
        pruned += stats.pruned_groups();
        memo_hits += stats.memo_hits();
        for (ri, rf) in incremental.iter().zip(&fresh) {
            let ctx = format!("seed {seed}, {}", ri.spec_name);
            assert_eq!(ri.status(), rf.status(), "sweep status differs: {ctx}");
            assert_eq!(ri.outcomes.len(), rf.outcomes.len(), "{ctx}");
            for (oi, of) in ri.outcomes.iter().zip(&rf.outcomes) {
                let cell = format!("{ctx} at {}", oi.params);
                assert_eq!(oi.params, of.params, "{cell}");
                assert_eq!(oi.skipped, of.skipped, "{cell}");
                assert_eq!(oi.outcome.status, of.outcome.status, "{cell}");
                assert_eq!(
                    oi.outcome.states_explored, of.outcome.states_explored,
                    "state count differs: {cell}"
                );
                assert_eq!(
                    oi.outcome.transitions_explored, of.outcome.transitions_explored,
                    "transition count differs: {cell}"
                );
                match (&oi.outcome.counterexample, &of.outcome.counterexample) {
                    (None, None) => {}
                    (Some(ci), Some(cf)) => {
                        assert_eq!(ci.initial, cf.initial, "initial differs: {cell}");
                        assert_eq!(
                            ci.schedule.steps(),
                            cf.schedule.steps(),
                            "schedule differs: {cell}"
                        );
                        // the incremental counterexample is a genuine
                        // execution violating its spec
                        let spec = specs
                            .iter()
                            .find(|s| s.name() == ri.spec_name)
                            .expect("report spec");
                        let cell_sys = CounterSystem::new(model.clone(), ci.params.clone())
                            .expect("admissible");
                        assert_genuine_violation(&cell_sys, spec, ci, &cell);
                        replayed += 1;
                    }
                    _ => panic!("counterexample presence differs: {cell}"),
                }
            }
        }
    }
    // the corpus must actually walk every lineage classification and
    // replay at least one incremental counterexample
    assert!(reused > 0, "no identical step was reused");
    assert!(extended > 0, "no relax-only step was extended");
    // the n-fixed grid never changes the system size, so every tighten step
    // must take the in-place prune, never a rebuild
    assert!(pruned > 0, "no tighten step was pruned in place");
    assert_eq!(
        rebuilt, 0,
        "a guard-adjacent tighten step fell back to a rebuild"
    );
    assert!(memo_hits > 0, "no identical step ever hit the verdict memo");
    assert!(replayed > 0, "no incremental counterexample was replayed");
}

#[test]
fn random_systems_interrupt_resume_is_bit_identical() {
    // The random stop-and-continue axis of the job lifecycle: every
    // system's catalogue is run once through `check_all` (the reference),
    // once as an uninterrupted `CheckJob`, and once as a job that stops
    // when its states reach a random threshold drawn from the seed.  Each
    // stop gives back the answered outcomes; a fresh job over the owed
    // obligations with a doubled threshold continues the work, through
    // repeated deterministic stops, until it completes.  Both job runs must
    // be bit-identical to the reference — verdicts, state counts,
    // transition counts and counterexample schedules — also under a
    // per-exploration state bound that group builds trip, so the job
    // answers their obligations `Unknown`.  On both legs a job over a
    // random subset of the catalogue, as the daemon runs over what its
    // cache did not answer, must answer each obligation like the reference.
    let mut stops = 0usize;
    let mut stops_inside_builds = 0usize;
    let mut bounded_unknowns = 0usize;
    let mut split_groups = 0usize;
    for i in 0..SYSTEMS {
        let seed = 0xD1F_F0000 + i as u64;
        let (sys, mids) = random_system(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC5);
        let mut subset_rng = StdRng::seed_from_u64(seed ^ 0x5B5E7);
        let specs = with_more_lanes(random_specs(&mut rng, sys.model(), &mids));
        for bounded in [false, true] {
            let options = CheckerOptions {
                max_states: if bounded {
                    BOUNDED_STATES
                } else {
                    CheckerOptions::default().max_states
                },
                ..CheckerOptions::default()
            };
            let reference = ExplicitChecker::with_options(&sys, options).check_all(&specs);

            let (direct, _) = CheckJob::new(&sys, &specs, options)
                .run()
                .completed()
                .expect("an unbudgeted job must complete");
            if bounded {
                bounded_unknowns += direct
                    .iter()
                    .filter(|o| o.status == CheckStatus::Unknown)
                    .count();
            }

            let stop_at = rng.gen_range(2..=24usize);
            let (continued, stopped) =
                fixtures::continue_job(&sys, &specs, options, vec![None; specs.len()], stop_at);
            stops += stopped.len();
            // a stop at an obligation boundary has reached the threshold;
            // one inside a group build drops the partial build, so the
            // stopped job's cached states stay below it
            stops_inside_builds += stopped.iter().filter(|(states, at)| states < at).count();

            let subset = random_subset(&mut subset_rng, specs.len());
            if splits_a_monitored_group(&specs, &subset) {
                split_groups += 1;
            }
            let subset_specs: Vec<Spec> = subset.iter().map(|&i| specs[i].clone()).collect();
            let (answered, _) = CheckJob::new(&sys, &subset_specs, options)
                .run()
                .completed()
                .expect("an unbudgeted job must complete");

            for (spec, (a, b)) in specs.iter().zip(direct.iter().zip(&reference)) {
                let ctx = format!(
                    "seed {seed}, {}, bounded {bounded}, direct job",
                    spec.name()
                );
                assert_job_outcome_identical(a, b, &ctx);
            }
            for (spec, (a, b)) in specs.iter().zip(continued.iter().zip(&reference)) {
                let ctx = format!(
                    "seed {seed}, {}, bounded {bounded}, continued job",
                    spec.name()
                );
                assert_job_outcome_identical(a, b, &ctx);
            }
            for (&i, a) in subset.iter().zip(&answered) {
                let ctx = format!(
                    "seed {seed}, {}, bounded {bounded}, subset job",
                    specs[i].name()
                );
                assert_job_outcome_identical(a, &reference[i], &ctx);
            }
        }
    }
    // the corpus must genuinely stop jobs, and at least one stop must land
    // inside a group build (a wave-boundary stop, not just an
    // obligation-boundary one)
    assert!(stops > 0, "no state threshold ever stopped a job");
    assert!(
        stops_inside_builds > 0,
        "no state threshold ever stopped a job inside a group build"
    );
    assert!(
        bounded_unknowns > 0,
        "the bounded leg never left an obligation Unknown"
    );
    // some subset job runs a group's batched pass on fewer lanes than
    // `check_all` does
    assert!(
        split_groups > 0,
        "no subset split a group's monitored obligations"
    );
}

/// A non-empty random subset of `0..len`, in order.
fn random_subset(rng: &mut StdRng, len: usize) -> Vec<usize> {
    let subset: Vec<usize> = (0..len).filter(|_| rng.gen_bool(0.5)).collect();
    if subset.is_empty() {
        vec![rng.gen_range(0..len)]
    } else {
        subset
    }
}

/// Whether `subset` holds some but not all of the monitored
/// (`CoverNever`/`NeverFrom`) obligations of some start-restriction group.
fn splits_a_monitored_group(specs: &[Spec], subset: &[usize]) -> bool {
    let monitored = |s: &Spec| matches!(s, Spec::CoverNever { .. } | Spec::NeverFrom { .. });
    specs.iter().filter(|s| monitored(s)).any(|group| {
        let (mut kept, mut left) = (false, false);
        for (i, spec) in specs.iter().enumerate() {
            if monitored(spec) && spec.start() == group.start() {
                if subset.contains(&i) {
                    kept = true;
                } else {
                    left = true;
                }
            }
        }
        kept && left
    })
}

/// Bit-identity of a job outcome against its uninterrupted reference.
fn assert_job_outcome_identical(
    a: &ccchecker::CheckOutcome,
    b: &ccchecker::CheckOutcome,
    ctx: &str,
) {
    assert_eq!(a.status, b.status, "verdict differs: {ctx}");
    assert_eq!(
        a.states_explored, b.states_explored,
        "state count differs: {ctx}"
    );
    assert_eq!(
        a.transitions_explored, b.transitions_explored,
        "transition count differs: {ctx}"
    );
    assert_eq!(a.detail, b.detail, "detail differs: {ctx}");
    match (&a.counterexample, &b.counterexample) {
        (None, None) => {}
        (Some(ca), Some(cb)) => {
            assert_eq!(ca.initial, cb.initial, "initial differs: {ctx}");
            assert_eq!(
                ca.schedule.steps(),
                cb.schedule.steps(),
                "schedule differs: {ctx}"
            );
        }
        _ => panic!("counterexample presence differs: {ctx}"),
    }
}
