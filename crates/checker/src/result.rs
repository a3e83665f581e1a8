//! Outcomes of checking a query.

use crate::counterexample::Counterexample;
use std::fmt;

/// Detail prefix marking an [`CheckStatus::Unknown`] outcome that was cut
/// short by a job signal (cancellation or budget) rather than a per-check
/// state/transition bound.  See [`CheckOutcome::is_interrupted`].
pub(crate) const INTERRUPTED_PREFIX: &str = "interrupted: ";

/// The verdict of a check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckStatus {
    /// The query holds (for the checked parameter valuation).
    Holds,
    /// The query is violated; a counterexample is attached.
    Violated,
    /// The check was inconclusive (state bound exhausted).
    Unknown,
}

impl fmt::Display for CheckStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckStatus::Holds => f.write_str("holds"),
            CheckStatus::Violated => f.write_str("violated"),
            CheckStatus::Unknown => f.write_str("unknown"),
        }
    }
}

/// The full outcome of checking one query on one counter system.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// The verdict.
    pub status: CheckStatus,
    /// Number of explored states (the cost of the check).
    pub states_explored: usize,
    /// Number of explored transitions.
    pub transitions_explored: usize,
    /// Counterexample, present iff `status == Violated`.
    pub counterexample: Option<Counterexample>,
    /// Additional details (e.g. why the check was inconclusive).
    pub detail: String,
}

impl CheckOutcome {
    /// A positive outcome.
    pub fn holds(states: usize, transitions: usize) -> Self {
        CheckOutcome {
            status: CheckStatus::Holds,
            states_explored: states,
            transitions_explored: transitions,
            counterexample: None,
            detail: String::new(),
        }
    }

    /// A violation with counterexample.
    pub fn violated(states: usize, transitions: usize, ce: Counterexample) -> Self {
        CheckOutcome {
            status: CheckStatus::Violated,
            states_explored: states,
            transitions_explored: transitions,
            counterexample: Some(ce),
            detail: String::new(),
        }
    }

    /// An inconclusive outcome.
    pub fn unknown(states: usize, transitions: usize, detail: impl Into<String>) -> Self {
        CheckOutcome {
            status: CheckStatus::Unknown,
            states_explored: states,
            transitions_explored: transitions,
            counterexample: None,
            detail: detail.into(),
        }
    }

    /// An outcome cut short by a job signal: cancellation, deadline, or a
    /// job-level budget.  Distinguished from an ordinary bound-exhausted
    /// `unknown` so the sweep can account the cell as interrupted rather
    /// than inconclusive.
    pub(crate) fn interrupted(
        states: usize,
        transitions: usize,
        kind: crate::job::InterruptKind,
    ) -> Self {
        CheckOutcome::unknown(
            states,
            transitions,
            format!("{INTERRUPTED_PREFIX}{}", kind.describe()),
        )
    }

    /// Whether this outcome was cut short by a job signal (see
    /// [`crate::job::CheckJob`]); such outcomes are `Unknown` with an
    /// `interrupted: …` detail.
    pub fn is_interrupted(&self) -> bool {
        self.status == CheckStatus::Unknown && self.detail.starts_with(INTERRUPTED_PREFIX)
    }

    /// Whether the query holds.
    pub fn is_holds(&self) -> bool {
        self.status == CheckStatus::Holds
    }

    /// Whether the query is violated.
    pub fn is_violated(&self) -> bool {
        self.status == CheckStatus::Violated
    }
}

impl fmt::Display for CheckOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} states, {} transitions)",
            self.status, self.states_explored, self.transitions_explored
        )?;
        if !self.detail.is_empty() {
            write!(f, " [{}]", self.detail)?;
        }
        Ok(())
    }
}

/// How a group's reachability graph was obtained: built from scratch, or —
/// under the incremental sweep (see the "Incremental sweeps" section of the
/// crate docs) — inherited from the previous valuation of the group's
/// lineage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum GraphOrigin {
    /// Explored from scratch; no lineage predecessor existed.
    #[default]
    Built,
    /// The guard bounds were identical to the lineage predecessor's: the
    /// cached graph served as-is, paying no exploration at all.
    Reused,
    /// The valuation step was relax-only: the predecessor graph was
    /// extended from a seeded frontier instead of re-explored.
    Extended,
    /// The valuation step was tighten-only: the predecessor graph was
    /// pruned in place (dead actions re-validated against the tightened
    /// bounds and cut) instead of re-explored.
    Pruned,
    /// A lineage predecessor existed but could not be carried over (the
    /// extension tripped a budget, something else still pinned the graph,
    /// or the caller carried the lineage across a break): explored from
    /// scratch.  The sweep starts each run on an empty lineage, so its
    /// breaks (a size change or a mixed step) are first builds.
    Rebuilt,
}

impl fmt::Display for GraphOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GraphOrigin::Built => "built",
            GraphOrigin::Reused => "reused",
            GraphOrigin::Extended => "extended",
            GraphOrigin::Pruned => "pruned",
            GraphOrigin::Rebuilt => "rebuilt",
        })
    }
}

/// One reachability graph the cache served obligations from: the
/// start-restriction group, how the graph was obtained (see
/// [`GraphOrigin`]), and its cost.  `Built`/`Rebuilt` records paid a full
/// exploration, `Extended` ones paid a seeded partial exploration, and
/// `Reused` ones paid nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupCacheRecord {
    /// Label of the start restriction keying the group.
    pub start: String,
    /// Number of obligations evaluated on this graph (the first of which
    /// paid for the build).
    pub specs: usize,
    /// Distinct configurations the graph holds.
    pub states: usize,
    /// Transitions the graph holds.
    pub transitions: usize,
    /// How the graph was obtained.
    pub origin: GraphOrigin,
    /// Size of the seeded frontier an `Extended` graph was re-explored
    /// from (0 for every other origin).
    pub seed_frontier: usize,
    /// Dead actions a `Pruned` graph cut against the tightened bounds
    /// (0 for every other origin).
    pub pruned_actions: usize,
    /// Obligations answered from this graph's verdict memo without running
    /// an analysis pass (see the "Verdict memoization & lineage compaction"
    /// crate docs), including those a batched monitored pass answered
    /// before they were asked.
    pub memo_hits: usize,
    /// Obligations that ran a real analysis pass on this graph: a batched
    /// monitored pass counts once, on the obligation that ran it.
    pub memo_misses: usize,
    /// Resident bytes of the cached graph: deduplicated rows and their
    /// hashes, the index, the CSR arenas (8 bytes per node span and per
    /// arc, one arc per transition) and the start, discovery and dormant
    /// node lists.
    pub resident_bytes: usize,
}

/// Cache accounting of the reachability-graph cache (see the "Graph cache"
/// section of the crate docs): one [`GroupCacheRecord`] per graph built.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphCacheStats {
    /// One record per graph built, in build order.
    pub groups: Vec<GroupCacheRecord>,
}

impl GraphCacheStats {
    /// Number of group records — one per `(start restriction, valuation)`
    /// group a graph served, whether it was explored or inherited from the
    /// sweep lineage.
    pub fn graphs_built(&self) -> usize {
        self.groups.len()
    }

    fn count_origin(&self, origin: GraphOrigin) -> usize {
        self.groups.iter().filter(|g| g.origin == origin).count()
    }

    /// Groups whose graph was served as-is from the sweep lineage
    /// (identical guard bounds: zero exploration paid).
    pub fn reused_groups(&self) -> usize {
        self.count_origin(GraphOrigin::Reused)
    }

    /// Groups whose graph was incrementally extended across a relax-only
    /// valuation step.
    pub fn extended_groups(&self) -> usize {
        self.count_origin(GraphOrigin::Extended)
    }

    /// Groups whose graph was pruned in place across a tighten-only
    /// valuation step.
    pub fn pruned_groups(&self) -> usize {
        self.count_origin(GraphOrigin::Pruned)
    }

    /// Groups whose lineage predecessor had to be discarded (mixed step,
    /// size change, or a budget-tripped extension).
    pub fn rebuilt_groups(&self) -> usize {
        self.count_origin(GraphOrigin::Rebuilt)
    }

    /// Total seeded-frontier size across all extended groups.
    pub fn seed_frontier_total(&self) -> usize {
        self.groups.iter().map(|g| g.seed_frontier).sum()
    }

    /// Total dead actions cut across all pruned groups.
    pub fn pruned_actions_total(&self) -> usize {
        self.groups.iter().map(|g| g.pruned_actions).sum()
    }

    /// Obligations answered from a graph's verdict memo (zero analysis
    /// passes paid).
    pub fn memo_hits(&self) -> usize {
        self.groups.iter().map(|g| g.memo_hits).sum()
    }

    /// Obligations that paid a real analysis pass.
    pub fn memo_misses(&self) -> usize {
        self.groups.iter().map(|g| g.memo_misses).sum()
    }

    /// Always 1.0: lineage graphs stay resident between valuations, so
    /// nothing is compressed.  Kept only because the `perfbench` benchmark
    /// reports it as `lineage.parked_ratio`.
    pub fn parked_compression(&self) -> f64 {
        1.0
    }

    /// Resident bytes across all recorded graphs.  Within one valuation the
    /// figure is live memory; summed over a sweep it counts each surviving
    /// lineage graph once per valuation it served, so read the per-group
    /// records for peak-memory questions.
    pub fn resident_bytes(&self) -> usize {
        self.groups.iter().map(|g| g.resident_bytes).sum()
    }

    /// Number of group records that actually paid exploration work: built,
    /// rebuilt, or (partially, from a seeded frontier) extended.  Reused
    /// groups served their obligations for free, so the cost metrics below
    /// exclude them.
    pub fn explorations_paid(&self) -> usize {
        self.groups
            .iter()
            .filter(|g| g.origin != GraphOrigin::Reused)
            .count()
    }

    /// Number of obligations answered from a cached graph.
    pub fn specs_served(&self) -> usize {
        self.groups.iter().map(|g| g.specs).sum()
    }

    /// States explored (or, for extended groups, re-linked) across the
    /// groups that paid exploration; reused groups contribute nothing —
    /// their states were already counted when the lineage predecessor was
    /// built.
    pub fn cached_states(&self) -> usize {
        self.groups
            .iter()
            .filter(|g| g.origin != GraphOrigin::Reused)
            .map(|g| g.states)
            .sum()
    }

    /// Transitions explored across the groups that paid exploration (see
    /// [`GraphCacheStats::cached_states`] for the reused-group convention).
    pub fn cached_transitions(&self) -> usize {
        self.groups
            .iter()
            .filter(|g| g.origin != GraphOrigin::Reused)
            .map(|g| g.transitions)
            .sum()
    }

    /// Obligations served per exploration paid: the amortization factor of
    /// the cache (1.0 when every explored graph served a single obligation;
    /// 0.0 when nothing was cached).  Reused lineage groups raise the
    /// numerator without touching the denominator — that is exactly the
    /// incremental sweep's win.
    pub fn amortization(&self) -> f64 {
        if self.groups.is_empty() {
            0.0
        } else {
            // max(1): a stats snapshot consisting solely of reused groups
            // (a single later valuation viewed in isolation) paid nothing
            self.specs_served() as f64 / self.explorations_paid().max(1) as f64
        }
    }

    /// Fraction of obligations answered straight from the verdict memo
    /// (`memo_hits / (memo_hits + memo_misses)`, 0.0 when the memo was
    /// never consulted).
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.memo_hits() + self.memo_misses();
        if total == 0 {
            0.0
        } else {
            self.memo_hits() as f64 / total as f64
        }
    }

    /// Fraction of lineage groups carried across a valuation step without a
    /// rebuild (reused + extended + pruned over all groups, 0.0 when no
    /// graph was ever cached).  1.0 means every group of every later
    /// valuation was derived incrementally; fresh first-valuation builds
    /// count against the rate.
    pub fn lineage_reuse_rate(&self) -> f64 {
        if self.groups.is_empty() {
            0.0
        } else {
            (self.reused_groups() + self.extended_groups() + self.pruned_groups()) as f64
                / self.groups.len() as f64
        }
    }

    /// Folds another stats record into this one (sweeps aggregate the
    /// per-valuation records in valuation order).
    pub fn merge(&mut self, other: &GraphCacheStats) {
        self.groups.extend(other.groups.iter().cloned());
    }
}

impl fmt::Display for GraphCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.groups.is_empty() {
            return f.write_str("graph cache unused");
        }
        write!(
            f,
            "{} graph(s) ({} explored) served {} obligation(s) ({:.1}x amortization, \
             {} states / {} transitions explored once",
            self.graphs_built(),
            self.explorations_paid(),
            self.specs_served(),
            self.amortization(),
            self.cached_states(),
            self.cached_transitions(),
        )?;
        let (reused, extended, pruned, rebuilt) = (
            self.reused_groups(),
            self.extended_groups(),
            self.pruned_groups(),
            self.rebuilt_groups(),
        );
        if reused + extended + pruned + rebuilt > 0 {
            write!(
                f,
                "; lineage: {reused} reused / {extended} extended / {pruned} pruned / \
                 {rebuilt} rebuilt"
            )?;
            if extended > 0 {
                write!(f, ", {} frontier seed(s)", self.seed_frontier_total())?;
            }
            if pruned > 0 {
                write!(f, ", {} action(s) cut", self.pruned_actions_total())?;
            }
        }
        if self.memo_hits() > 0 {
            write!(
                f,
                "; memo: {} hit(s) / {} miss(es)",
                self.memo_hits(),
                self.memo_misses()
            )?;
        }
        write!(f, "; {} resident bytes)", self.resident_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cccounter::{Configuration, Schedule};
    use ccta::ParamValuation;

    #[test]
    fn constructors_set_status() {
        assert!(CheckOutcome::holds(10, 20).is_holds());
        assert!(!CheckOutcome::holds(10, 20).is_violated());
        let ce = Counterexample {
            spec: "x".into(),
            params: ParamValuation::new(vec![1]),
            initial: Configuration::zero(1, 1),
            schedule: Schedule::new(),
            explanation: String::new(),
        };
        let v = CheckOutcome::violated(5, 9, ce);
        assert!(v.is_violated());
        assert!(v.counterexample.is_some());
        let u = CheckOutcome::unknown(1, 2, "bound");
        assert_eq!(u.status, CheckStatus::Unknown);
        assert_eq!(u.detail, "bound");
    }

    #[test]
    fn display_contains_costs() {
        let s = format!("{}", CheckOutcome::holds(10, 20));
        assert!(s.contains("holds"));
        assert!(s.contains("10 states"));
        let s = format!("{}", CheckOutcome::unknown(1, 2, "cap"));
        assert!(s.contains("[cap]"));
        assert_eq!(format!("{}", CheckStatus::Violated), "violated");
    }
}
