//! Fault-injection tests for the job lifecycle layer.
//!
//! Each test injects one failure mode — a seeded panic inside a sweep
//! cell's exploration, a panicking sweep cell, an exhausted deadline, a
//! resident-byte ("OOM") cap, a stop at a state threshold, or an
//! asynchronous cancellation — and asserts the structured-degradation
//! contract: injected panics fail only their own grid cell (retried once on
//! a fresh checker before being given up on), a stopped job gives back the
//! outcomes it answered, a fresh job over the owed obligations continues it
//! bit-identically to an uninterrupted run, and no failure mode ever loses a
//! grid cell or poisons the process.
//!
//! The panic injector (`ccchecker::fault`) is process-global, so every test
//! in this file serialises on one mutex.

use ccchecker::fixtures;
use ccchecker::{
    check_over_sweep_cancellable, check_over_sweep_with_stats, fault, CancelToken, CellDisposition,
    CheckJob, CheckOutcome, CheckStatus, CheckerOptions, ExplicitChecker, InterruptKind, JobBudget,
    JobOutcome, LocSet, Spec, StartRestriction, SweepReport,
};
use cccounter::CounterSystem;
use ccta::{BinValue, ParamValuation, SystemModel};
use std::sync::Mutex;
use std::time::Duration;

/// Serialises the tests: the fault injector is process-global, and an armed
/// injector would fire inside any concurrently running exploration.
static SERIAL: Mutex<()> = Mutex::new(());

/// Disarms the injector even if the test body panics, so one failing test
/// cannot cascade injected panics into its siblings.
struct Disarm;

impl Drop for Disarm {
    fn drop(&mut self) {
        fault::disarm();
    }
}

fn model() -> SystemModel {
    fixtures::voting_model().single_round().unwrap()
}

fn catalogue(model: &SystemModel) -> Vec<Spec> {
    vec![
        Spec::NeverFrom {
            name: "unreachable-I1".into(),
            start: StartRestriction::Unanimous(BinValue::Zero),
            forbidden: LocSet::from_names(model, "I1", &["I1"]),
        },
        Spec::NeverFrom {
            name: "reachable-E0".into(),
            start: StartRestriction::Unanimous(BinValue::Zero),
            forbidden: LocSet::from_names(model, "E0", &["E0"]),
        },
        Spec::ExistsAvoidOneOf {
            name: "avoid".into(),
            start: StartRestriction::RoundStart,
            forbidden_sets: vec![
                LocSet::from_names(model, "F0", &["E0"]),
                LocSet::from_names(model, "F1", &["E1"]),
            ],
        },
        Spec::NonBlocking {
            name: "termination".into(),
            start: StartRestriction::RoundStart,
        },
    ]
}

fn sweep_valuations() -> Vec<ParamValuation> {
    vec![
        ParamValuation::new(vec![4, 1, 1, 1]),
        ParamValuation::new(vec![5, 1, 1, 1]),
    ]
}

/// Per-cell bit-identity of two sweep runs: dispositions, verdicts, counts,
/// details and counterexample schedules (durations are wall-clock and
/// excluded).
fn assert_reports_identical(a: &[SweepReport], b: &[SweepReport], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}");
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.spec_name, rb.spec_name, "{ctx}");
        assert_eq!(ra.outcomes.len(), rb.outcomes.len(), "{ctx}");
        for (oa, ob) in ra.outcomes.iter().zip(&rb.outcomes) {
            let cell = format!("{ctx}: {} at {}", ra.spec_name, oa.params);
            assert_eq!(oa.params, ob.params, "{cell}");
            assert_eq!(oa.skipped, ob.skipped, "{cell}");
            assert_eq!(oa.disposition, ob.disposition, "{cell}");
            assert_outcomes_identical(&oa.outcome, &ob.outcome, &cell);
        }
    }
}

/// Bit-identity of two check outcomes: verdict, counts, detail and the
/// counterexample step for step.
fn assert_outcomes_identical(a: &CheckOutcome, b: &CheckOutcome, ctx: &str) {
    assert_eq!(a.status, b.status, "{ctx}");
    assert_eq!(a.states_explored, b.states_explored, "{ctx}");
    assert_eq!(a.transitions_explored, b.transitions_explored, "{ctx}");
    assert_eq!(a.detail, b.detail, "{ctx}");
    match (&a.counterexample, &b.counterexample) {
        (None, None) => {}
        (Some(ca), Some(cb)) => {
            assert_eq!(ca.initial, cb.initial, "{ctx}");
            assert_eq!(ca.schedule.steps(), cb.schedule.steps(), "{ctx}");
        }
        _ => panic!("counterexample presence differs: {ctx}"),
    }
}

/// The four dispositions must partition every report's grid row.
fn assert_grid_accounted(reports: &[SweepReport], width: usize, ctx: &str) {
    for report in reports {
        let completed = report
            .outcomes
            .iter()
            .filter(|o| o.disposition == CellDisposition::Completed)
            .count();
        assert_eq!(
            completed + report.skipped_cells() + report.interrupted_cells() + report.failed_cells(),
            width,
            "{ctx}: {} lost a grid cell",
            report.spec_name
        );
    }
}

#[test]
fn injected_lane_panic_heals_on_the_retry_path() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let model = model();
    let specs = catalogue(&model);
    let valuations = sweep_valuations();
    // the injected panic fires at a wave boundary inside a group build;
    // the lineage is off so the only recovery path under test is the
    // fresh-rebuild retry
    let options = CheckerOptions::default().with_incremental_sweep(false);
    let (baseline, _) = check_over_sweep_with_stats(&model, &specs, &valuations, options, 1);

    let _disarm = Disarm;
    fault::arm_panic(fault::SITE_EXPAND, 3, 1);
    let (healed, _) = check_over_sweep_with_stats(&model, &specs, &valuations, options, 1);
    let hits = fault::disarm();
    assert!(hits > 3, "the armed expand site was never reached: {hits}");

    // the one-shot panic was absorbed by the retry: no failed cell, and the
    // report is bit-identical to the un-faulted sweep
    assert_grid_accounted(&healed, valuations.len(), "healed");
    assert_reports_identical(&healed, &baseline, "healed vs baseline");
}

#[test]
fn persistent_cell_panic_fails_only_that_cell() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let model = model();
    let specs = catalogue(&model);
    let valuations = sweep_valuations();
    // a budget of 1 walks the whole grid on this thread, in order, so the
    // first dispatched cell is deterministic: specs[0] on valuations[0]
    let options = CheckerOptions::default();
    let (baseline, _) = check_over_sweep_with_stats(&model, &specs, &valuations, options, 1);

    // two shots: the first cell panics on the shared checker *and* on its
    // fresh-checker retry, exhausting both attempts; every later cell passes
    let _disarm = Disarm;
    fault::arm_panic(fault::SITE_SWEEP_CELL, 0, 2);
    let (reports, _) = check_over_sweep_with_stats(&model, &specs, &valuations, options, 1);
    let hits = fault::disarm();
    assert!(
        hits >= 2,
        "both attempts of the first cell must fire: {hits}"
    );

    assert_grid_accounted(&reports, valuations.len(), "persistent panic");
    let failed = &reports[0].outcomes[0];
    assert_eq!(failed.disposition, CellDisposition::Failed);
    assert_eq!(failed.outcome.status, CheckStatus::Unknown);
    assert!(
        failed.outcome.detail.starts_with("failed: ")
            && failed.outcome.detail.contains("injected fault"),
        "{}",
        failed.outcome.detail
    );
    // the sweep's panic hook put the panicking thread's backtrace below the
    // message
    assert!(
        failed.outcome.detail.lines().count() > 1,
        "{}",
        failed.outcome.detail
    );
    assert_eq!(reports[0].failed_cells(), 1);
    // every sibling cell of the grid still completed and matches the
    // un-faulted run bit for bit
    for (r, b) in reports.iter().zip(&baseline) {
        for (v, (cell, base)) in r.outcomes.iter().zip(&b.outcomes).enumerate() {
            if r.spec_name == reports[0].spec_name && v == 0 {
                continue;
            }
            assert_eq!(cell.disposition, base.disposition, "{} {v}", r.spec_name);
            assert_outcomes_identical(
                &cell.outcome,
                &base.outcome,
                &format!("{} {v}", r.spec_name),
            );
        }
    }
}

#[test]
fn single_shot_cell_panic_is_invisible_after_retry() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let model = model();
    let specs = catalogue(&model);
    let valuations = sweep_valuations();
    // cached batched scheduling: the retried cell must rebuild its graph on
    // a fresh lineage-free checker and still report identical results
    let options = CheckerOptions::default().with_incremental_sweep(false);
    let (baseline, _) = check_over_sweep_with_stats(&model, &specs, &valuations, options, 1);

    let _disarm = Disarm;
    fault::arm_panic(fault::SITE_SWEEP_CELL, 2, 1);
    let (healed, _) = check_over_sweep_with_stats(&model, &specs, &valuations, options, 1);
    let hits = fault::disarm();
    assert!(hits > 2, "the armed cell site was never reached: {hits}");

    assert_grid_accounted(&healed, valuations.len(), "healed cell");
    assert_reports_identical(&healed, &baseline, "healed cell vs baseline");
}

#[test]
fn exhausted_deadline_surrenders_a_resumable_checkpoint() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let model = model();
    let sys = CounterSystem::new(model.clone(), fixtures::small_params()).unwrap();
    let specs = catalogue(&model);
    let options = CheckerOptions::default();
    let reference = ExplicitChecker::with_options(&sys, options).check_all(&specs);

    // a zero deadline is the deterministic flavour of "the clock ran out":
    // the job must stop before completing its obligations
    let job = CheckJob::new(&sys, &specs, options)
        .with_budget(JobBudget::unlimited().with_deadline(Duration::ZERO));
    let answered = match job.run() {
        JobOutcome::Stopped {
            reason, answered, ..
        } => {
            assert_eq!(reason, InterruptKind::Deadline);
            answered
        }
        JobOutcome::Completed { .. } => panic!("a zero deadline must stop the job"),
    };
    assert!(answered.iter().any(Option::is_none));

    // a fresh job with breathing room over the owed obligations completes,
    // bit-identical to check_all
    let (outcomes, _) = fixtures::continue_job(&sys, &specs, options, answered, usize::MAX);
    for ((spec, a), b) in specs.iter().zip(&outcomes).zip(&reference) {
        assert_outcomes_identical(a, b, spec.name());
    }
}

#[test]
fn resident_byte_cap_trips_like_an_oom_and_resumes() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let model = model();
    let sys = CounterSystem::new(model.clone(), fixtures::small_params()).unwrap();
    let specs = catalogue(&model);
    let options = CheckerOptions::default();
    let reference = ExplicitChecker::with_options(&sys, options).check_all(&specs);

    // a one-byte resident cap is the injected OOM: the first wave boundary
    // of the first build must trip it, and the partial build is dropped
    let job = CheckJob::new(&sys, &specs, options)
        .with_budget(JobBudget::unlimited().with_max_resident_bytes(1));
    let answered = match job.run() {
        JobOutcome::Stopped {
            reason,
            answered,
            stats,
        } => {
            assert_eq!(reason, InterruptKind::ResidentBudget);
            assert_eq!(stats.cached_states(), 0);
            answered
        }
        JobOutcome::Completed { .. } => panic!("a one-byte resident cap must stop the job"),
    };
    assert!(answered.iter().all(Option::is_none));

    let (outcomes, _) = fixtures::continue_job(&sys, &specs, options, answered, usize::MAX);
    for ((spec, a), b) in specs.iter().zip(&outcomes).zip(&reference) {
        assert_outcomes_identical(a, b, spec.name());
    }
}

#[test]
fn repeated_state_threshold_stops_continue_bit_identically() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let model = model();
    let sys = CounterSystem::new(model.clone(), fixtures::small_params()).unwrap();
    let specs = catalogue(&model);
    let options = CheckerOptions::default();
    let reference = ExplicitChecker::with_options(&sys, options).check_all(&specs);
    // walk the work through repeated deterministic stops at a state
    // threshold, each continued by a fresh job over the owed obligations
    // with the threshold doubled, until it completes
    let owed = vec![None; specs.len()];
    let (outcomes, stops) = fixtures::continue_job(&sys, &specs, options, owed, 4);
    assert!(!stops.is_empty(), "the state threshold never stopped a job");
    for ((spec, a), b) in specs.iter().zip(&outcomes).zip(&reference) {
        assert_outcomes_identical(a, b, spec.name());
    }
}

#[test]
fn asynchronous_cancellation_is_resumable() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let model = model();
    let sys = CounterSystem::new(model.clone(), fixtures::small_params()).unwrap();
    let specs = catalogue(&model);
    let options = CheckerOptions::default();
    let reference = ExplicitChecker::with_options(&sys, options).check_all(&specs);

    let job = CheckJob::new(&sys, &specs, options);
    let token = job.cancel_token();
    let canceller = std::thread::spawn(move || token.cancel());
    let first = job.run();
    canceller.join().unwrap();

    // the race is honest: the cancel may land before, during or after the
    // run — a stopped job must continue to the same outcomes either way
    let outcomes = match first {
        JobOutcome::Completed { outcomes, .. } => outcomes,
        JobOutcome::Stopped {
            reason, answered, ..
        } => {
            assert_eq!(reason, InterruptKind::Cancelled, "no budget was set");
            fixtures::continue_job(&sys, &specs, options, answered, usize::MAX).0
        }
    };
    for ((spec, a), b) in specs.iter().zip(&outcomes).zip(&reference) {
        assert_outcomes_identical(a, b, spec.name());
    }

    // a pre-cancelled job stops before doing any work at all
    let eager = CheckJob::new(&sys, &specs, options);
    eager.cancel_token().cancel();
    let JobOutcome::Stopped {
        reason,
        answered,
        stats,
    } = eager.run()
    else {
        panic!("a pre-cancelled job must stop");
    };
    assert_eq!(reason, InterruptKind::Cancelled);
    assert!(answered.iter().all(Option::is_none));
    assert_eq!(stats.cached_states(), 0);
}

#[test]
fn deadline_swept_grid_accounts_every_cell() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let model = model();
    let specs = catalogue(&model);
    let valuations = sweep_valuations();
    let options = CheckerOptions::default();

    // an already-exhausted deadline interrupts every cell of the grid —
    // the sweep analogue of the zero-deadline job trip
    let (tripped, _) = check_over_sweep_cancellable(
        &model,
        &specs,
        &valuations,
        options,
        2,
        &CancelToken::new(),
        JobBudget::unlimited().with_deadline(Duration::ZERO),
    );
    assert_grid_accounted(&tripped, valuations.len(), "deadline sweep");
    for report in &tripped {
        assert_eq!(report.interrupted_cells(), valuations.len());
        for cell in &report.outcomes {
            assert!(cell.outcome.is_interrupted());
            assert!(
                cell.outcome.detail.contains("deadline"),
                "{}",
                cell.outcome.detail
            );
        }
    }
}
