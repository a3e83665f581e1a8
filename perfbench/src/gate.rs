//! Correctness gates: checks on the program's outputs that fail the run.
//!
//! * Table II verdicts must be the paper's: every property holds except
//!   MMR14's almost-sure termination, violated at a binding (`CB*`)
//!   obligation.
//! * Every reported counterexample must replay process by process through
//!   `ccsim::bridge::replay_schedule` and end where the counter-system
//!   path ends.
//! * Repeated checks of one input must give one answer (see
//!   [`Signature`]), whatever thread budget or lineage setting ran them.

use ccchecker::{CheckStatus, Counterexample, SweepReport};
use cccore::ProtocolVerification;
use cccounter::CounterSystem;
use ccta::SystemModel;

/// The verdict glyph and explored counts of every non-skipped cell of a
/// sweep, in report order: two runs of the same input must produce equal
/// signatures.
pub type Signature = Vec<(u8, usize, usize)>;

/// The signature of a sweep's reports.
pub fn signature(reports: &[SweepReport]) -> Signature {
    reports
        .iter()
        .flat_map(|r| r.outcomes.iter())
        .filter(|o| !o.skipped)
        .map(|o| {
            (
                cccore::fingerprint::verdict_code(o.outcome.status),
                o.outcome.states_explored,
                o.outcome.transitions_explored,
            )
        })
        .collect()
}

/// Checks one protocol's verification against the paper's Table II.
pub fn table2_verdict(pv: &ProtocolVerification) -> Result<(), String> {
    let name = &pv.protocol;
    for prop in [&pv.agreement, &pv.validity] {
        if !prop.holds() {
            return Err(format!("{name}: {} is {:?}", prop.property, prop.status));
        }
    }
    let term = &pv.termination;
    if name == "MMR14" {
        match term.violated_obligation() {
            Some(ob) if term.is_violated() && ob.starts_with("CB") => Ok(()),
            other => Err(format!(
                "MMR14: termination must be violated at a CB* obligation, got {:?} at {other:?}",
                term.status
            )),
        }
    } else if term.holds() {
        Ok(())
    } else {
        Err(format!("{name}: termination is {:?}", term.status))
    }
}

/// Replays one counterexample process by process and compares the final
/// configuration with the counter-system path.
pub fn replay(model: &SystemModel, ce: &Counterexample) -> Result<(), String> {
    let sys = CounterSystem::new(model.clone(), ce.params.clone())
        .map_err(|e| format!("{}: counter system: {e:?}", ce.spec))?;
    let path = ce
        .schedule
        .apply(&sys, &ce.initial)
        .map_err(|e| format!("{}: schedule does not apply: {e:?}", ce.spec))?;
    let configs = ccsim::bridge::replay_schedule(&sys, &ce.initial, &ce.schedule)
        .map_err(|e| format!("{}: process-level replay failed: {e:?}", ce.spec))?;
    match configs.last() {
        Some(last) if last == path.last() => Ok(()),
        _ => Err(format!(
            "{}: process-level replay ends elsewhere than the counter path",
            ce.spec
        )),
    }
}

/// Replays every counterexample of a sweep's reports.
pub fn replay_all(model: &SystemModel, reports: &[SweepReport]) -> Result<(), String> {
    for r in reports {
        for o in &r.outcomes {
            if o.outcome.status == CheckStatus::Violated {
                let ce =
                    o.outcome.counterexample.as_ref().ok_or_else(|| {
                        format!("{}: violated without a counterexample", r.spec_name)
                    })?;
                replay(model, ce)?;
            }
        }
    }
    Ok(())
}
