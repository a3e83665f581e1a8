//! Portable checkpoint serialization.
//!
//! A [`JobCheckpoint`] is the completed per-spec outcomes (verdicts, costs,
//! counterexamples) plus the cumulative exploration counters, and this
//! module defines its byte encoding for a process restart or a wire hop.
//! The encoding is lossless: decoding the bytes gives back an equal
//! checkpoint (pinned by `serialized_resume_is_bit_identical` below).
//!
//! A checkpoint holds no graphs: exploration is deterministic, so a resume
//! rebuilds exactly the graphs the owed obligations need and produces
//! verdicts, counterexamples and per-outcome cost counters
//! **bit-identical** to an uninterrupted run.  The completed outcomes keep
//! their answers verbatim and are never re-checked.
//!
//! Decoding is *total*: any truncated, oversized or malformed input yields a
//! typed [`CkptError`], never a panic — daemon restart paths feed these
//! bytes from disk, where torn writes are a fact of life.

use crate::counterexample::Counterexample;
use crate::result::{CheckOutcome, CheckStatus};
use crate::JobCheckpoint;
use cccounter::{Action, Configuration, Schedule, ScheduledStep};
use ccta::{LocId, ParamValuation, RuleId, VarId};
use std::fmt;

/// Version byte of the portable checkpoint encoding.
pub const CKPT_VERSION: u8 = 2;

/// Decoding failure: the bytes are not a well-formed portable checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The input ended before the structure was complete.
    Truncated,
    /// A field held a value outside its domain (bad version, unknown
    /// status byte, an element count exceeding the input length).
    Malformed(&'static str),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Truncated => f.write_str("checkpoint bytes truncated"),
            CkptError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CkptError {}

// ---- little-endian primitive codec --------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        let end = self.pos.checked_add(n).ok_or(CkptError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(CkptError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// An element count, bounded by the bytes actually remaining (each
    /// element needs at least `elem_size` bytes), so a corrupt length can
    /// never drive a huge allocation.
    fn len(&mut self, elem_size: usize) -> Result<usize, CkptError> {
        let n = self.u32()? as usize;
        let remaining = self.bytes.len() - self.pos;
        if n.saturating_mul(elem_size.max(1)) > remaining {
            return Err(CkptError::Malformed("length exceeds input"));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, CkptError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CkptError::Malformed("non-utf8 string"))
    }

    fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

// ---- component encoders -------------------------------------------------

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

fn read_configuration(r: &mut Reader<'_>) -> Result<Configuration, CkptError> {
    let num_locations = r.u32()? as usize;
    let num_vars = r.u32()? as usize;
    let rounds = r.u32()?;
    let per_round = num_locations + num_vars;
    if (rounds as usize).saturating_mul(per_round.max(1)) > (r.bytes.len() - r.pos) / 8 + 1 {
        return Err(CkptError::Malformed("configuration larger than input"));
    }
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
    put_str(out, &ce.spec);
    put_u32(out, ce.params.values().len() as u32);
    for &v in ce.params.values() {
        put_u64(out, v);
    }
    put_configuration(out, &ce.initial);
    put_u32(out, ce.schedule.steps().len() as u32);
    for step in ce.schedule.steps() {
        put_u32(out, step.action.rule.0 as u32);
        put_u32(out, step.action.round);
        put_u32(out, step.branch as u32);
    }
    put_str(out, &ce.explanation);
}

fn read_counterexample(r: &mut Reader<'_>) -> Result<Counterexample, CkptError> {
    let spec = r.str()?;
    let num_params = r.len(8)?;
    let mut values = Vec::with_capacity(num_params);
    for _ in 0..num_params {
        values.push(r.u64()?);
    }
    let initial = read_configuration(r)?;
    let num_steps = r.len(12)?;
    let mut steps = Vec::with_capacity(num_steps);
    for _ in 0..num_steps {
        let rule = RuleId(r.u32()? as usize);
        let round = r.u32()?;
        let branch = r.u32()? as usize;
        steps.push(ScheduledStep::with_branch(Action::new(rule, round), branch));
    }
    let explanation = r.str()?;
    Ok(Counterexample {
        spec,
        params: ParamValuation::new(values),
        initial,
        schedule: Schedule::from_steps(steps),
        explanation,
    })
}

fn put_outcome(out: &mut Vec<u8>, outcome: &CheckOutcome) {
    out.push(match outcome.status {
        CheckStatus::Holds => 0,
        CheckStatus::Violated => 1,
        CheckStatus::Unknown => 2,
    });
    put_u64(out, outcome.states_explored as u64);
    put_u64(out, outcome.transitions_explored as u64);
    put_str(out, &outcome.detail);
    match &outcome.counterexample {
        None => out.push(0),
        Some(ce) => {
            out.push(1);
            put_counterexample(out, ce);
        }
    }
}

fn read_outcome(r: &mut Reader<'_>) -> Result<CheckOutcome, CkptError> {
    let status = match r.u8()? {
        0 => CheckStatus::Holds,
        1 => CheckStatus::Violated,
        2 => CheckStatus::Unknown,
        _ => return Err(CkptError::Malformed("unknown status byte")),
    };
    let states_explored = r.u64()? as usize;
    let transitions_explored = r.u64()? as usize;
    let detail = r.str()?;
    let counterexample = match r.u8()? {
        0 => None,
        1 => Some(read_counterexample(r)?),
        _ => return Err(CkptError::Malformed("bad counterexample presence byte")),
    };
    Ok(CheckOutcome {
        status,
        states_explored,
        transitions_explored,
        counterexample,
        detail,
    })
}

// ---- checkpoint codec ---------------------------------------------------

impl JobCheckpoint {
    /// Encodes this checkpoint: the cumulative counters, then the per-spec
    /// outcome slots.
    pub fn to_portable_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.push(CKPT_VERSION);
        put_u64(&mut out, self.states_done as u64);
        put_u64(&mut out, self.transitions_done as u64);
        put_u32(&mut out, self.outcomes.len() as u32);
        for slot in &self.outcomes {
            match slot {
                None => out.push(0),
                Some(outcome) => {
                    out.push(1);
                    put_outcome(&mut out, outcome);
                }
            }
        }
        out
    }

    /// Decodes a portable checkpoint, the inverse of
    /// [`JobCheckpoint::to_portable_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`CkptError`] on truncated or malformed input;
    /// never panics.
    pub fn from_portable_bytes(bytes: &[u8]) -> Result<JobCheckpoint, CkptError> {
        let mut r = Reader::new(bytes);
        let version = r.u8()?;
        if version != CKPT_VERSION {
            return Err(CkptError::Malformed("unsupported checkpoint version"));
        }
        let states_done = r.u64()? as usize;
        let transitions_done = r.u64()? as usize;
        let num_specs = r.len(1)?;
        let mut outcomes = Vec::with_capacity(num_specs);
        for _ in 0..num_specs {
            match r.u8()? {
                0 => outcomes.push(None),
                1 => outcomes.push(Some(read_outcome(&mut r)?)),
                _ => return Err(CkptError::Malformed("bad outcome presence byte")),
            }
        }
        if !r.finished() {
            return Err(CkptError::Malformed("trailing bytes"));
        }
        Ok(JobCheckpoint {
            outcomes,
            states_done,
            transitions_done,
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
            CkptError::Malformed("unsupported checkpoint version")
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
            CkptError::Malformed("unsupported checkpoint version")
        );
        // trailing garbage is rejected, not silently ignored
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(JobCheckpoint::from_portable_bytes(&trailing).is_err());
    }

    #[test]
    fn bit_flipped_bytes_decode_typed_and_resume_without_panicking() {
        // the voting fixture at two processes, the first obligation owed
        // and the second a completed violation with its counterexample: each
        // of the ~2.5k decoded checkpoints resumes by building one small
        // unanimous-start graph
        let model = fixtures::voting_model().single_round().unwrap();
        let sys = CounterSystem::new(model, ccta::ParamValuation::new(vec![2, 0, 0, 1])).unwrap();
        let specs = &specs(&sys)[..2];
        let options = CheckerOptions::default();
        let outcomes = ExplicitChecker::with_options(&sys, options).check_all(specs);
        assert!(outcomes[1].counterexample.is_some());
        let mut cp = JobCheckpoint::fresh(specs.len());
        cp.outcomes[1] = Some(outcomes[1].clone());
        cp.states_done = 7;
        cp.transitions_done = 11;
        let bytes = cp.to_portable_bytes();

        let mut decoded = 0;
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            // every flip decodes to a checkpoint or a typed error, never a
            // panic ...
            let Ok(mutated) = JobCheckpoint::from_portable_bytes(&flipped) else {
                continue;
            };
            decoded += 1;
            // ... and a decoded checkpoint resumes, or is refused, without
            // panicking either
            match CheckJob::new(&sys, specs, options).resume(mutated) {
                Ok(outcome) => assert!(outcome.completed().is_some(), "bit {bit}"),
                Err(err) => assert!(matches!(err, CkptError::Malformed(_)), "bit {bit}"),
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
