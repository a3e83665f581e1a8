//! Schedules, paths, round-rigidity and the Theorem-1 reordering.

use crate::config::Configuration;
use crate::error::CounterError;
use crate::system::{Action, CounterSystem};
use std::fmt;

/// One step of a schedule: an action plus the chosen probabilistic outcome.
/// For Dirac rules the branch is always 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduledStep {
    /// The action `(rule, round)`.
    pub action: Action,
    /// The branch of the rule's distribution that was taken.
    pub branch: usize,
}

impl ScheduledStep {
    /// A step taking the (only) branch of a Dirac rule.
    pub fn dirac(action: Action) -> Self {
        ScheduledStep { action, branch: 0 }
    }

    /// A step taking an explicit branch.
    pub fn with_branch(action: Action, branch: usize) -> Self {
        ScheduledStep { action, branch }
    }
}

impl fmt::Display for ScheduledStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.branch == 0 {
            write!(f, "{}", self.action)
        } else {
            write!(f, "{}#{}", self.action, self.branch)
        }
    }
}

/// A finite schedule `τ = t₁, t₂, …`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule {
    steps: Vec<ScheduledStep>,
}

impl Schedule {
    /// The empty schedule.
    pub fn new() -> Self {
        Schedule { steps: Vec::new() }
    }

    /// A schedule from explicit steps.
    pub fn from_steps(steps: Vec<ScheduledStep>) -> Self {
        Schedule { steps }
    }

    /// A schedule of Dirac actions.
    pub fn from_actions(actions: impl IntoIterator<Item = Action>) -> Self {
        Schedule {
            steps: actions.into_iter().map(ScheduledStep::dirac).collect(),
        }
    }

    /// Appends a step.
    pub fn push(&mut self, step: ScheduledStep) {
        self.steps.push(step);
    }

    /// The steps of the schedule.
    pub fn steps(&self) -> &[ScheduledStep] {
        &self.steps
    }

    /// Length of the schedule.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// A schedule is *round-rigid* if its actions are ordered by
    /// non-decreasing round numbers (it is a concatenation `s₀·s₁·s₂⋯` where
    /// `s_k` only contains round-`k` actions).
    pub fn is_round_rigid(&self) -> bool {
        self.steps
            .windows(2)
            .all(|w| w[0].action.round <= w[1].action.round)
    }

    /// Reorders the schedule into a round-rigid one by a stable sort on the
    /// round number (the reordering underlying Theorem 1).  The relative
    /// order of actions within the same round is preserved.  By Theorem 1,
    /// when the schedule is applicable to a configuration, so is the
    /// reordering, and both reach the same configuration.
    pub fn round_rigid_reordering(&self) -> Schedule {
        let mut steps = self.steps.clone();
        steps.sort_by_key(|s| s.action.round);
        Schedule { steps }
    }

    /// Whether the schedule is applicable to `cfg` in the given system.
    pub fn is_applicable(&self, sys: &CounterSystem, cfg: &Configuration) -> bool {
        self.apply(sys, cfg).is_ok()
    }

    /// Applies the schedule, producing the full path.
    ///
    /// # Errors
    ///
    /// Returns [`CounterError::ScheduleNotApplicable`] with the offending
    /// position if some step is not applicable.
    pub fn apply(&self, sys: &CounterSystem, cfg: &Configuration) -> Result<Path, CounterError> {
        let mut configs = vec![cfg.clone()];
        let mut current = cfg.clone();
        for (i, step) in self.steps.iter().enumerate() {
            current = sys
                .apply(&current, step.action, step.branch)
                .map_err(|_| CounterError::ScheduleNotApplicable { position: i })?;
            configs.push(current.clone());
        }
        Ok(Path {
            steps: self.steps.clone(),
            configs,
        })
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "]")
    }
}

/// A finite path `path(c₀, τ) = c₀, t₁, c₁, …, t_{|τ|}, c_{|τ|}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    steps: Vec<ScheduledStep>,
    configs: Vec<Configuration>,
}

impl Path {
    /// A path consisting of just an initial configuration.
    pub fn initial(cfg: Configuration) -> Self {
        Path {
            steps: Vec::new(),
            configs: vec![cfg],
        }
    }

    /// The steps taken along the path.
    pub fn steps(&self) -> &[ScheduledStep] {
        &self.steps
    }

    /// All configurations visited, starting with the initial one.
    pub fn configs(&self) -> &[Configuration] {
        &self.configs
    }

    /// The first configuration.
    pub fn first(&self) -> &Configuration {
        &self.configs[0]
    }

    /// The last configuration.
    pub fn last(&self) -> &Configuration {
        self.configs.last().expect("paths are never empty")
    }

    /// Number of steps taken.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the path has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Extends the path in place with one applied step.
    pub fn extend(&mut self, step: ScheduledStep, config: Configuration) {
        self.steps.push(step);
        self.configs.push(config);
    }

    /// The schedule of this path.
    pub fn schedule(&self) -> Schedule {
        Schedule::from_steps(self.steps.clone())
    }

    /// Whether some visited configuration satisfies the predicate.
    pub fn visits(&self, mut pred: impl FnMut(&Configuration) -> bool) -> bool {
        self.configs.iter().any(&mut pred)
    }

    /// Whether every visited configuration satisfies the predicate.
    pub fn always(&self, mut pred: impl FnMut(&Configuration) -> bool) -> bool {
        self.configs.iter().all(&mut pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{small_params, voting_model};
    use ccta::RuleId;

    fn system() -> CounterSystem {
        CounterSystem::new(voting_model(), small_params()).unwrap()
    }

    /// A two-round schedule for one process: it broadcasts, adopts the coin
    /// value and switches to round 1, then starts round 1, while the coin
    /// automaton publishes its value in round 0.
    fn two_round_schedule(sys: &CounterSystem) -> (Configuration, Schedule) {
        let model = sys.model().clone();
        let rid = |name: &str| model.rule_id(name).unwrap();
        let start_of = |loc: &str| -> RuleId {
            let loc_id = model.location_id(loc).unwrap();
            model
                .rule_ids()
                .find(|&r| model.rule(r).from() == loc_id && !model.rule(r).is_round_switch())
                .unwrap()
        };
        let switch_of = |loc: &str| -> RuleId {
            let loc_id = model.location_id(loc).unwrap();
            model
                .rule_ids()
                .find(|&r| model.rule(r).from() == loc_id && model.rule(r).is_round_switch())
                .unwrap()
        };

        let mut cfg = sys.empty_configuration();
        cfg.add_counter(model.location_id("J0").unwrap(), 0, 3);
        cfg.add_counter(model.location_id("JC").unwrap(), 0, 1);

        let steps = vec![
            // coin automaton: JC -> IC -> H0 -> C0 (publishes cc0)
            ScheduledStep::dirac(Action::new(start_of("JC"), 0)),
            ScheduledStep::with_branch(Action::new(rid("toss"), 0), 0),
            ScheduledStep::dirac(Action::new(rid("publish0"), 0)),
            // one process: J0 -> I0 -> S -> E0 (via coin) -> J0 of round 1 -> I0
            ScheduledStep::dirac(Action::new(start_of("J0"), 0)),
            ScheduledStep::dirac(Action::new(rid("bcast0"), 0)),
            ScheduledStep::dirac(Action::new(rid("coin0"), 0)),
            ScheduledStep::dirac(Action::new(switch_of("E0"), 0)),
            ScheduledStep::dirac(Action::new(start_of("J0"), 1)),
        ];
        (cfg, Schedule::from_steps(steps))
    }

    #[test]
    fn schedule_application_produces_path() {
        let sys = system();
        let (cfg, sched) = two_round_schedule(&sys);
        let path = sched.apply(&sys, &cfg).unwrap();
        assert_eq!(path.len(), 8);
        assert_eq!(path.configs().len(), 9);
        assert_eq!(path.first(), &cfg);
        let model = sys.model();
        let i0 = model.location_id("I0").unwrap();
        assert_eq!(path.last().counter(i0, 1), 1);
        assert!(path.visits(|c| c.counter(model.location_id("E0").unwrap(), 0) > 0));
        assert!(path.always(|c| c.counter(model.location_id("E1").unwrap(), 0) == 0));
        assert!(sched.is_applicable(&sys, &cfg));
    }

    #[test]
    fn inapplicable_schedule_reports_position() {
        let sys = system();
        let model = sys.model().clone();
        let cfg = sys.empty_configuration();
        let sched = Schedule::from_actions(vec![Action::new(model.rule_id("bcast0").unwrap(), 0)]);
        let err = sched.apply(&sys, &cfg).unwrap_err();
        assert_eq!(err, CounterError::ScheduleNotApplicable { position: 0 });
        assert!(!sched.is_applicable(&sys, &cfg));
    }

    #[test]
    fn round_rigidity_detection() {
        let sys = system();
        let (_cfg, sched) = two_round_schedule(&sys);
        assert!(sched.is_round_rigid());
        // build a non-round-rigid schedule by swapping the last two steps
        let mut steps = sched.steps().to_vec();
        steps.swap(6, 7);
        let mixed = Schedule::from_steps(steps);
        assert!(!mixed.is_round_rigid());
        assert!(mixed.round_rigid_reordering().is_round_rigid());
    }

    #[test]
    fn theorem_1_reordering_preserves_final_configuration() {
        let sys = system();
        let model = sys.model().clone();
        let (cfg, sched) = two_round_schedule(&sys);
        // After the first process has already advanced into round 1, let a
        // *second* process perform its round-0 steps: the resulting schedule
        // is applicable but not round-rigid.
        let j0 = model.location_id("J0").unwrap();
        let start_j0 = model
            .rule_ids()
            .find(|&r| model.rule(r).from() == j0 && !model.rule(r).is_round_switch())
            .unwrap();
        let bcast0 = model.rule_id("bcast0").unwrap();
        let mut steps = sched.steps().to_vec();
        steps.push(ScheduledStep::dirac(Action::new(start_j0, 0)));
        steps.push(ScheduledStep::dirac(Action::new(bcast0, 0)));
        let interleaved = Schedule::from_steps(steps);
        assert!(!interleaved.is_round_rigid());
        let original_final = interleaved.apply(&sys, &cfg).unwrap().last().clone();

        let rigid = interleaved.round_rigid_reordering();
        assert!(rigid.is_round_rigid());
        let rigid_path = rigid.apply(&sys, &cfg).unwrap();
        assert_eq!(rigid_path.last(), &original_final);
    }

    #[test]
    fn reordering_rejects_inapplicable_schedules() {
        let sys = system();
        let cfg = sys.empty_configuration();
        let sched =
            Schedule::from_actions(vec![Action::new(sys.model().rule_id("bcast0").unwrap(), 0)]);
        assert!(!sched.is_applicable(&sys, &cfg));
    }

    #[test]
    fn display_formats() {
        let sched = Schedule::from_steps(vec![
            ScheduledStep::dirac(Action::new(RuleId(1), 0)),
            ScheduledStep::with_branch(Action::new(RuleId(2), 1), 1),
        ]);
        let s = format!("{sched}");
        assert!(s.contains("r1"));
        assert!(s.contains("#1"));
        assert_eq!(sched.len(), 2);
        assert!(!sched.is_empty());
        assert!(Schedule::new().is_empty());
    }

    #[test]
    fn path_initial_and_extend() {
        let sys = system();
        let cfg = sys.empty_configuration();
        let mut path = Path::initial(cfg.clone());
        assert!(path.is_empty());
        assert_eq!(path.last(), &cfg);
        let model = sys.model().clone();
        let mut cfg2 = cfg.clone();
        cfg2.add_counter(model.location_id("I0").unwrap(), 0, 1);
        path.extend(
            ScheduledStep::dirac(Action::new(RuleId(0), 0)),
            cfg2.clone(),
        );
        assert_eq!(path.len(), 1);
        assert_eq!(path.last(), &cfg2);
        assert_eq!(path.schedule().len(), 1);
    }
}
