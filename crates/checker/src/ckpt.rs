//! Portable checkpoint serialization.
//!
//! A [`JobCheckpoint`] is the completed per-spec outcomes (verdicts, costs,
//! counterexamples) plus the cumulative exploration counters, and this
//! module defines its byte encoding for a process restart or a wire hop.
//! The encoding is lossless: decoding the bytes gives back an equal
//! checkpoint (pinned by `serialized_resume_is_bit_identical` below, and
//! byte for byte by `golden_checkpoint_bytes_are_pinned`).
//!
//! A checkpoint holds no graphs: exploration is deterministic, so a resume
//! rebuilds exactly the graphs the owed obligations need and produces
//! verdicts, counterexamples and per-outcome cost counters
//! **bit-identical** to an uninterrupted run.  The completed outcomes keep
//! their answers verbatim and are never re-checked.
//!
//! The primitives, the `u32` length fields and their bounds are
//! [`crate::codec`]'s.  Decoding is *total*: any truncated, oversized or
//! malformed input yields a typed [`DecodeError`], never a panic — daemon
//! restart paths feed these bytes from disk, where torn writes are a fact
//! of life.  It also accepts only outcomes the checker can produce (see
//! `read_outcome`), so a flipped status byte cannot turn one completed
//! verdict into another.

use crate::codec::{
    decode_all, put_list_u32, put_str_u32, put_u32, put_u64, put_u8, DecodeError, Reader,
};
use crate::counterexample::Counterexample;
use crate::result::{CheckOutcome, CheckStatus};
use crate::JobCheckpoint;
use cccounter::{Action, Configuration, Schedule, ScheduledStep};
use ccta::{LocId, ParamValuation, RuleId, VarId};

/// Version byte of the portable checkpoint encoding.
pub const CKPT_VERSION: u8 = 2;

fn put_configuration(out: &mut Vec<u8>, cfg: &Configuration) {
    put_u32(out, cfg.num_locations() as u32);
    put_u32(out, cfg.num_vars() as u32);
    let rounds = cfg.max_active_round().map_or(0, |r| r + 1);
    put_u32(out, rounds);
    for round in 0..rounds {
        for &c in cfg.counters_slice(round).unwrap_or(&[]) {
            put_u64(out, c);
        }
        for &v in cfg.vars_slice(round).unwrap_or(&[]) {
            put_u64(out, v);
        }
    }
}

fn read_configuration(r: &mut Reader<'_>) -> Result<Configuration, DecodeError> {
    let num_locations = r.u32()? as usize;
    let num_vars = r.u32()? as usize;
    let rounds = r.u32()?;
    // each round holds one u64 per location and per variable
    let per_round = (num_locations + num_vars).max(1);
    r.bound((rounds as usize).saturating_mul(per_round), 8)?;
    let mut cfg = Configuration::zero(num_locations, num_vars);
    for round in 0..rounds {
        for loc in 0..num_locations {
            cfg.set_counter(LocId(loc), round, r.u64()?);
        }
        for var in 0..num_vars {
            cfg.set_var(VarId(var), round, r.u64()?);
        }
    }
    Ok(cfg)
}

fn put_counterexample(out: &mut Vec<u8>, ce: &Counterexample) {
    put_str_u32(out, &ce.spec);
    put_list_u32(out, ce.params.values(), |o, &v| put_u64(o, v));
    put_configuration(out, &ce.initial);
    put_list_u32(out, ce.schedule.steps(), |o, step| {
        put_u32(o, step.action.rule.0 as u32);
        put_u32(o, step.action.round);
        put_u32(o, step.branch as u32);
    });
    put_str_u32(out, &ce.explanation);
}

fn read_counterexample(r: &mut Reader<'_>) -> Result<Counterexample, DecodeError> {
    let spec = r.str_u32()?;
    let params = ParamValuation::new(r.list_u32(8, Reader::u64)?);
    let initial = read_configuration(r)?;
    let steps = r.list_u32(12, |r| {
        let rule = RuleId(r.u32()? as usize);
        let round = r.u32()?;
        let branch = r.u32()? as usize;
        Ok(ScheduledStep::with_branch(Action::new(rule, round), branch))
    })?;
    Ok(Counterexample {
        spec,
        params,
        initial,
        schedule: Schedule::from_steps(steps),
        explanation: r.str_u32()?,
    })
}

fn put_outcome(out: &mut Vec<u8>, outcome: &CheckOutcome) {
    put_u8(
        out,
        match outcome.status {
            CheckStatus::Holds => 0,
            CheckStatus::Violated => 1,
            CheckStatus::Unknown => 2,
        },
    );
    put_u64(out, outcome.states_explored as u64);
    put_u64(out, outcome.transitions_explored as u64);
    put_str_u32(out, &outcome.detail);
    match &outcome.counterexample {
        None => put_u8(out, 0),
        Some(ce) => {
            put_u8(out, 1);
            put_counterexample(out, ce);
        }
    }
}

/// Reads one completed outcome, accepting only the shapes
/// [`CheckOutcome::holds`], [`CheckOutcome::violated`] and
/// [`CheckOutcome::unknown`] build: a counterexample exactly on `Violated`,
/// an empty detail on `Holds` and `Violated`, a non-empty one on `Unknown`.
fn read_outcome(r: &mut Reader<'_>) -> Result<CheckOutcome, DecodeError> {
    let status = match r.u8()? {
        0 => CheckStatus::Holds,
        1 => CheckStatus::Violated,
        2 => CheckStatus::Unknown,
        _ => return Err(DecodeError::Malformed("unknown status byte")),
    };
    let states_explored = r.u64()? as usize;
    let transitions_explored = r.u64()? as usize;
    let detail = r.str_u32()?;
    let counterexample = match r.u8()? {
        0 => None,
        1 => Some(read_counterexample(r)?),
        _ => return Err(DecodeError::Malformed("bad counterexample presence byte")),
    };
    let producible = match status {
        CheckStatus::Holds => counterexample.is_none() && detail.is_empty(),
        CheckStatus::Violated => counterexample.is_some() && detail.is_empty(),
        CheckStatus::Unknown => counterexample.is_none() && !detail.is_empty(),
    };
    if !producible {
        return Err(DecodeError::Malformed("outcome the checker cannot produce"));
    }
    Ok(CheckOutcome {
        status,
        states_explored,
        transitions_explored,
        counterexample,
        detail,
    })
}

impl JobCheckpoint {
    /// Encodes this checkpoint: the cumulative counters, then the per-spec
    /// outcome slots.
    pub fn to_portable_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        put_u8(&mut out, CKPT_VERSION);
        put_u64(&mut out, self.states_done as u64);
        put_u64(&mut out, self.transitions_done as u64);
        put_list_u32(&mut out, &self.outcomes, |o, slot| match slot {
            None => put_u8(o, 0),
            Some(outcome) => {
                put_u8(o, 1);
                put_outcome(o, outcome);
            }
        });
        out
    }

    /// Decodes a portable checkpoint, the inverse of
    /// [`JobCheckpoint::to_portable_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`DecodeError`] on truncated or malformed input;
    /// never panics.
    pub fn from_portable_bytes(bytes: &[u8]) -> Result<JobCheckpoint, DecodeError> {
        decode_all(bytes, |r| {
            if r.u8()? != CKPT_VERSION {
                return Err(DecodeError::Malformed("unsupported checkpoint version"));
            }
            let states_done = r.u64()? as usize;
            let transitions_done = r.u64()? as usize;
            let outcomes = r.list_u32(1, |r| match r.u8()? {
                0 => Ok(None),
                1 => read_outcome(r).map(Some),
                _ => Err(DecodeError::Malformed("bad outcome presence byte")),
            })?;
            Ok(JobCheckpoint {
                outcomes,
                states_done,
                transitions_done,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::{CheckerOptions, ExplicitChecker};
    use crate::fixtures;
    use crate::job::{CheckJob, JobBudget, JobOutcome};
    use crate::spec::{LocSet, Spec, StartRestriction};
    use cccounter::CounterSystem;
    use ccta::BinValue;

    fn sys() -> CounterSystem {
        let model = fixtures::voting_model().single_round().unwrap();
        CounterSystem::new(model, fixtures::small_params()).unwrap()
    }

    fn specs(sys: &CounterSystem) -> Vec<Spec> {
        let model = sys.model();
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
            Spec::NonBlocking {
                name: "termination".into(),
                start: StartRestriction::RoundStart,
            },
        ]
    }

    #[test]
    fn serialized_resume_is_bit_identical() {
        let sys = sys();
        let specs = specs(&sys);
        let options = CheckerOptions::default();
        let reference = ExplicitChecker::with_options(&sys, options).check_all(&specs);

        let tripped = CheckJob::new(&sys, &specs, options)
            .with_budget(JobBudget::unlimited().with_max_states(5))
            .run();
        let JobOutcome::BudgetExceeded { checkpoint, .. } = tripped else {
            panic!("a 5-state budget must trip on this fixture");
        };
        let completed_before = checkpoint.completed_obligations();

        // the byte round trip is lossless
        let bytes = checkpoint.to_portable_bytes();
        let restored = JobCheckpoint::from_portable_bytes(&bytes).expect("round trip");
        assert_eq!(restored.completed_obligations(), completed_before);
        assert_eq!(restored.total_obligations(), specs.len());
        assert_eq!(restored, checkpoint);

        let resumed = CheckJob::new(&sys, &specs, options)
            .resume(restored)
            .expect("the checkpoint matches the catalogue");
        let (outcomes, _) = resumed.completed().expect("unlimited resume completes");
        for (o, r) in outcomes.iter().zip(&reference) {
            assert_eq!(o.status, r.status);
            assert_eq!(o.states_explored, r.states_explored);
            assert_eq!(o.transitions_explored, r.transitions_explored);
            match (&o.counterexample, &r.counterexample) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.initial, y.initial);
                    assert_eq!(x.schedule.steps(), y.schedule.steps());
                    assert_eq!(x.params, y.params);
                }
                _ => panic!("counterexample presence differs"),
            }
        }
    }

    #[test]
    fn counterexamples_round_trip_exactly() {
        let sys = sys();
        let specs = specs(&sys);
        let options = CheckerOptions::default();
        // run to completion, then pack the outcomes into a checkpoint shape
        // (slot 1 is the reachable-E0 violation carrying a counterexample)
        let outcomes = ExplicitChecker::with_options(&sys, options).check_all(&specs);
        assert!(outcomes[1].is_violated(), "fixture must yield a violation");
        let mut cp = JobCheckpoint::fresh(specs.len());
        cp.outcomes = outcomes.iter().cloned().map(Some).collect();
        cp.states_done = 123;
        cp.transitions_done = 456;
        let restored = JobCheckpoint::from_portable_bytes(&cp.to_portable_bytes()).unwrap();
        assert_eq!(restored.states_explored(), 123);
        assert_eq!(restored.transitions_explored(), 456);
        for (a, b) in restored.outcomes.iter().zip(&cp.outcomes) {
            assert_eq!(a, b, "outcomes must survive the byte round trip verbatim");
        }
    }

    #[test]
    fn truncated_and_malformed_bytes_yield_typed_errors() {
        let sys = sys();
        let specs = specs(&sys);
        let outcomes =
            ExplicitChecker::with_options(&sys, CheckerOptions::default()).check_all(&specs);
        let mut cp = JobCheckpoint::fresh(specs.len());
        cp.outcomes = outcomes.into_iter().map(Some).collect();
        let bytes = cp.to_portable_bytes();

        // every truncation point decodes to a typed error, never a panic
        for cut in 0..bytes.len() {
            assert!(
                JobCheckpoint::from_portable_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
        // bad version
        let mut bad = bytes.clone();
        bad[0] = 99;
        assert_eq!(
            JobCheckpoint::from_portable_bytes(&bad)
                .map(|_| ())
                .unwrap_err(),
            DecodeError::Malformed("unsupported checkpoint version")
        );
        // a version-1 checkpoint (which carried one more counter after the
        // transition count) is refused, not misread
        let mut v1 = vec![1];
        v1.extend_from_slice(&bytes[1..17]);
        v1.extend_from_slice(&0u64.to_le_bytes());
        v1.extend_from_slice(&bytes[17..]);
        assert_eq!(
            JobCheckpoint::from_portable_bytes(&v1)
                .map(|_| ())
                .unwrap_err(),
            DecodeError::Malformed("unsupported checkpoint version")
        );
        // trailing garbage is rejected, not silently ignored
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(JobCheckpoint::from_portable_bytes(&trailing).is_err());
    }

    #[test]
    fn bit_flipped_bytes_decode_typed_and_resume_without_panicking() {
        // the voting fixture at two processes; every decoded checkpoint
        // resumes by building at most one small unanimous-start graph
        let model = fixtures::voting_model().single_round().unwrap();
        let sys = CounterSystem::new(model, ccta::ParamValuation::new(vec![2, 0, 0, 1])).unwrap();
        let specs = specs(&sys);
        let options = CheckerOptions::default();
        let outcomes = ExplicitChecker::with_options(&sys, options).check_all(&specs[..2]);
        assert!(outcomes[0].is_holds());
        assert!(outcomes[1].counterexample.is_some());
        let capped = CheckerOptions {
            max_states: 1,
            ..options
        };
        let bounded = ExplicitChecker::with_options(&sys, capped).check(&specs[2]);
        assert_eq!(bounded.detail, "state bound exhausted");
        // the first obligation owed and the second a completed violation
        // with its counterexample ...
        let mut owed = JobCheckpoint::fresh(2);
        owed.outcomes[1] = Some(outcomes[1].clone());
        owed.states_done = 7;
        owed.transitions_done = 11;
        // ... and one completed slot of each status
        let mut done = JobCheckpoint::fresh(3);
        done.outcomes = vec![
            Some(outcomes[0].clone()),
            Some(outcomes[1].clone()),
            Some(bounded),
        ];

        for cp in [owed, done] {
            let specs = &specs[..cp.total_obligations()];
            let statuses = |cp: &JobCheckpoint| -> Vec<Option<CheckStatus>> {
                cp.outcomes
                    .iter()
                    .map(|o| o.as_ref().map(|o| o.status))
                    .collect()
            };
            let bytes = cp.to_portable_bytes();
            let mut decoded = 0;
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                // every flip decodes to a checkpoint or a typed error, never
                // a panic ...
                let Ok(mutated) = JobCheckpoint::from_portable_bytes(&flipped) else {
                    continue;
                };
                decoded += 1;
                // ... that holds the same verdicts ...
                assert_eq!(statuses(&mutated), statuses(&cp), "bit {bit}");
                // ... and resumes, or is refused, without panicking either
                match CheckJob::new(&sys, specs, options).resume(mutated) {
                    Ok(outcome) => assert!(outcome.completed().is_some(), "bit {bit}"),
                    Err(err) => assert!(matches!(err, DecodeError::Malformed(_)), "bit {bit}"),
                }
            }
            // the counters, costs, schedule steps and strings take any value
            assert!(
                decoded > bytes.len(),
                "{decoded} of {} flips",
                bytes.len() * 8
            );
        }
    }

    /// Decodes a hex string, ignoring whitespace.
    fn unhex(hex: &str) -> Vec<u8> {
        let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    /// A hand-built checkpoint: one completed slot of each status (the
    /// violation with its counterexample) and one owed slot.
    fn golden_checkpoint() -> JobCheckpoint {
        let mut initial = Configuration::zero(2, 1);
        initial.set_counter(LocId(0), 0, 3);
        initial.set_var(VarId(0), 0, 1);
        let ce = Counterexample {
            spec: "Inv1(0)".into(),
            params: ParamValuation::new(vec![4, 1, 1, 1]),
            initial,
            schedule: Schedule::from_steps(vec![
                ScheduledStep::with_branch(Action::new(RuleId(2), 0), 0),
                ScheduledStep::with_branch(Action::new(RuleId(5), 0), 1),
            ]),
            explanation: "E0".into(),
        };
        JobCheckpoint {
            outcomes: vec![
                Some(CheckOutcome::holds(3, 4)),
                Some(CheckOutcome::violated(5, 6, ce)),
                Some(CheckOutcome::unknown(7, 8, "state bound exhausted")),
                None,
            ],
            states_done: 15,
            transitions_done: 18,
        }
    }

    /// [`golden_checkpoint`] in the version-2 portable encoding.
    const GOLDEN_CHECKPOINT: &str = "
    02 0f00000000000000 1200000000000000 04000000
    01 00 0300000000000000 0400000000000000 00000000 00
    01 01 0500000000000000 0600000000000000 00000000 01
       07000000 496e7631283029
       04000000 0400000000000000 0100000000000000 0100000000000000 0100000000000000
       02000000 01000000 01000000 0300000000000000 0000000000000000 0100000000000000
       02000000 020000000000000000000000 050000000000000001000000
       02000000 4530
    01 02 0700000000000000 0800000000000000
       15000000 737461746520626f756e6420657868617573746564 00
    00";

    #[test]
    fn golden_checkpoint_bytes_are_pinned() {
        let cp = golden_checkpoint();
        let bytes = unhex(GOLDEN_CHECKPOINT);
        assert_eq!(cp.to_portable_bytes(), bytes);
        assert_eq!(JobCheckpoint::from_portable_bytes(&bytes).unwrap(), cp);
        // every truncation and every single-bit flip decodes to a checkpoint
        // or a typed error, never a panic
        for cut in 0..bytes.len() {
            assert!(JobCheckpoint::from_portable_bytes(&bytes[..cut]).is_err());
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = JobCheckpoint::from_portable_bytes(&flipped);
        }
    }
}
