//! The end-to-end verification driver.
//!
//! For a protocol, the driver builds the single-round automaton, derives the
//! proof obligations, selects a sweep of small admissible parameter
//! valuations, and checks every obligation on every valuation with the
//! explicit-state checker — the bounded-parameter substitute for running
//! ByMC on the fully parameterized system.

use crate::obligations::{obligations_for, Obligations};
use ccchecker::{
    check_over_sweep_cancellable, check_over_sweep_with_stats, schema_counts, sweep_thread_budget,
    CancelToken, CheckStatus, CheckerOptions, Counterexample, GraphCacheStats, JobBudget, Spec,
    SweepReport,
};
use ccprotocols::ProtocolModel;
use ccta::{ModelStats, ParamValuation, ProtocolCategory, SystemModel};
use std::time::Duration;

/// Configuration of the verification sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifierConfig {
    /// Upper bound on every parameter value during valuation enumeration.
    pub max_param_value: u64,
    /// Upper bound on the number of modelled correct processes.
    pub max_processes: u64,
    /// Maximum number of valuations checked per protocol.
    pub max_valuations: usize,
    /// Total thread budget for each protocol's combined sweep: one sweep
    /// worker per thread, at most one per run of the lineage (see
    /// `ccchecker::sweep`).  `0` defers to the `CC_SWEEP_THREADS`
    /// environment variable and then to the available parallelism.
    pub threads: usize,
    /// Resource limits and the incremental sweep lever of the
    /// explicit-state checker.
    pub checker: CheckerOptions,
    /// Resource budget for each protocol's combined sweep (see the "Job
    /// lifecycle & fault model" section of the `ccchecker` crate docs).
    /// The deadline is global to the sweep; state, transition and
    /// resident-byte caps apply per grid cell.  A tripped budget degrades
    /// gracefully: the affected cells report `interrupted` outcomes (the
    /// property status becomes `Unknown`, never a false verdict) and the
    /// sweep-level accounting still covers the whole grid.
    pub budget: JobBudget,
}

impl Default for VerifierConfig {
    fn default() -> Self {
        VerifierConfig {
            max_param_value: 8,
            max_processes: 4,
            max_valuations: 2,
            threads: 0,
            checker: CheckerOptions::default(),
            budget: JobBudget::unlimited(),
        }
    }
}

impl VerifierConfig {
    /// A fast configuration: the single smallest non-trivial valuation per
    /// protocol.  Used by tests, examples and the documentation.
    pub fn quick() -> Self {
        VerifierConfig {
            max_param_value: 6,
            max_processes: 3,
            max_valuations: 1,
            ..VerifierConfig::default()
        }
    }

    /// This configuration with an explicit total thread budget.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// This configuration with the incremental sweep enabled or disabled
    /// (see the "Incremental sweeps" section of the `ccchecker` crate
    /// docs).  When enabled (the default), each sweep worker carries the
    /// reachability graphs of its `(start restriction, valuation)` groups
    /// across guard-adjacent valuations — reusing them outright when the
    /// compiled guard bounds are identical, extending them incrementally
    /// when the step only relaxes guards and pruning them in place when it
    /// only tightens guards — instead of re-exploring every valuation from
    /// scratch.  Incremental and from-scratch sweeps are bit-identical in
    /// verdicts, counts and counterexample schedules.
    pub fn with_incremental_sweep(mut self, enabled: bool) -> Self {
        self.checker.incremental_sweep = enabled;
        self
    }

    /// This configuration with a wall-clock deadline (in milliseconds) on
    /// each protocol's combined sweep.  Cells past the deadline report
    /// `interrupted` outcomes and the affected properties come back
    /// `Unknown` rather than with a fabricated verdict.
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.budget = self
            .budget
            .with_deadline(Duration::from_millis(deadline_ms));
        self
    }

    /// This configuration with a resident-byte cap on each grid cell's
    /// state store — the graceful-degradation stand-in for an OOM kill.
    pub fn with_max_resident_bytes(mut self, bytes: usize) -> Self {
        self.budget = self.budget.with_max_resident_bytes(bytes);
        self
    }

    /// Selects the sweep valuations for a model: the smallest admissible
    /// valuations with at least two correct processes and exactly one coin,
    /// preferring instances that actually contain Byzantine processes.
    pub fn select_valuations(&self, model: &SystemModel) -> Vec<ParamValuation> {
        let env = model.env();
        let mut candidates: Vec<ParamValuation> = env
            .admissible_valuations(self.max_param_value)
            .into_iter()
            .filter(|v| {
                env.system_size(v).is_some_and(|s| {
                    s.processes >= 2 && s.processes <= self.max_processes && s.coins <= 1
                })
            })
            .collect();
        let f_id = env.param_id("f");
        // prefer valuations with Byzantine processes (f >= 1), then smaller
        // systems
        candidates.sort_by_key(|v| {
            let byz = f_id.map(|f| v.value(f) >= 1).unwrap_or(false);
            let procs = env.system_size(v).map(|s| s.processes).unwrap_or(u64::MAX);
            (std::cmp::Reverse(byz as u8), procs, v.values().to_vec())
        });
        candidates.truncate(self.max_valuations);
        candidates
    }
}

/// The aggregated verdict for one consensus property of one protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyResult {
    /// Property name ("Agreement", "Validity", "A.S. Termination").
    pub property: String,
    /// Overall status across all obligations and valuations.
    pub status: CheckStatus,
    /// The schema-count cost metric summed over the property's obligations
    /// (the `nschemas` column of Table II).
    pub nschemas: u128,
    /// Total number of explored states.
    pub states: usize,
    /// Check time summed over the property's grid cells, each cell timed
    /// on its own.  Cells of different runs overlap when the sweep has
    /// more than one worker, so this can exceed the sweep's wall time.
    pub time: Duration,
    /// The first counterexample found, if any.
    pub counterexample: Option<Counterexample>,
    /// The per-obligation sweep reports.
    pub reports: Vec<SweepReport>,
}

impl PropertyResult {
    /// Whether the property holds on the whole sweep.
    pub fn holds(&self) -> bool {
        self.status == CheckStatus::Holds
    }

    /// Whether some obligation was violated.
    pub fn is_violated(&self) -> bool {
        self.status == CheckStatus::Violated
    }

    /// Name of the first violated obligation, if any.
    pub fn violated_obligation(&self) -> Option<&str> {
        self.reports
            .iter()
            .find(|r| r.status() == CheckStatus::Violated)
            .map(|r| r.spec_name.as_str())
    }
}

/// The full verification result of one protocol (one row of Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolVerification {
    /// Protocol name.
    pub protocol: String,
    /// Protocol category.
    pub category: ProtocolCategory,
    /// Automaton size statistics (`|L|`, `|R|`).
    pub stats: ModelStats,
    /// The parameter valuations that were checked.
    pub valuations: Vec<ParamValuation>,
    /// Agreement verdict.
    pub agreement: PropertyResult,
    /// Validity verdict.
    pub validity: PropertyResult,
    /// Almost-sure termination verdict.
    pub termination: PropertyResult,
    /// Graph-cache accounting of the protocol's verification: all three
    /// properties run as *one* sweep, so the obligations of every
    /// `(start restriction, valuation)` group share a single exploration
    /// across property boundaries.
    pub cache: GraphCacheStats,
}

impl ProtocolVerification {
    /// The graph-cache accounting of the protocol's combined sweep.
    pub fn cache_stats(&self) -> &GraphCacheStats {
        &self.cache
    }
}

/// Assembles one property's verdict from its slice of the combined sweep's
/// reports and the summed schema counts of its obligations.
fn assemble_property(property: &str, nschemas: u128, reports: Vec<SweepReport>) -> PropertyResult {
    let status = if reports.iter().any(|r| r.status() == CheckStatus::Violated) {
        CheckStatus::Violated
    } else if reports.iter().any(|r| r.status() == CheckStatus::Unknown) {
        CheckStatus::Unknown
    } else {
        CheckStatus::Holds
    };
    let counterexample = reports
        .iter()
        .filter_map(|r| r.first_violation())
        .filter_map(|o| o.outcome.counterexample.clone())
        .next();
    PropertyResult {
        property: property.to_string(),
        status,
        nschemas,
        states: reports.iter().map(|r| r.total_states()).sum(),
        time: reports.iter().map(|r| r.total_time()).sum(),
        counterexample,
        reports,
    }
}

/// Verifies one protocol: Agreement, Validity and Almost-sure Termination on
/// a sweep of admissible valuations.
///
/// All three properties run as *one* sweep over the concatenated obligation
/// catalogue: every `(query, valuation)` cell is checked exactly as the
/// per-property sweeps would (skipping and reports are per query), but the
/// reachability-graph cache shares each `(start restriction, valuation)`
/// exploration across property boundaries — the full
/// explore-once-evaluate-many win of the Table II workload.
pub fn verify_protocol(protocol: &ProtocolModel, config: &VerifierConfig) -> ProtocolVerification {
    let single_round = protocol.single_round();
    let obligations: Obligations = obligations_for(protocol, &single_round);
    let valuations = config.select_valuations(&single_round);
    let all_specs: Vec<Spec> = obligations
        .agreement
        .iter()
        .chain(obligations.validity.iter())
        .chain(obligations.termination.iter())
        .cloned()
        .collect();
    let (mut reports, cache) = if config.budget.is_unlimited() {
        check_over_sweep_with_stats(
            &single_round,
            &all_specs,
            &valuations,
            config.checker,
            sweep_thread_budget(config.threads),
        )
    } else {
        // a budgeted run goes through the job lifecycle layer: tripped
        // cells degrade to interrupted outcomes instead of aborting the
        // protocol, and the caller can see which cells were cut short via
        // `SweepReport::interrupted_cells`
        check_over_sweep_cancellable(
            &single_round,
            &all_specs,
            &valuations,
            config.checker,
            sweep_thread_budget(config.threads),
            &CancelToken::new(),
            config.budget,
        )
    };
    // the milestone orderings behind every schema count depend only on the
    // model, so the whole catalogue is counted in one call
    let mut nschemas = schema_counts(&single_round, &all_specs).into_iter();
    let mut property = |name: &str, n: usize| {
        let schemas = nschemas.by_ref().take(n).sum();
        assemble_property(name, schemas, reports.drain(..n).collect())
    };
    let agreement = property("Agreement", obligations.agreement.len());
    let validity = property("Validity", obligations.validity.len());
    let termination = property("A.S. Termination", obligations.termination.len());
    ProtocolVerification {
        protocol: protocol.name().to_string(),
        category: protocol.category(),
        stats: protocol.stats(),
        valuations,
        agreement,
        validity,
        termination,
        cache,
    }
}

/// Verifies every protocol of the benchmark (Table II).
pub fn verify_all(config: &VerifierConfig) -> Vec<ProtocolVerification> {
    ccprotocols::all_protocols()
        .iter()
        .map(|p| verify_protocol(p, config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccprotocols::{bstyle, fixed, mmr14, protocol_by_name};

    #[test]
    fn valuation_selection_prefers_byzantine_instances() {
        let p = bstyle::cc85a();
        let config = VerifierConfig::default();
        let vals = config.select_valuations(&p.single_round());
        assert!(!vals.is_empty());
        assert!(vals.len() <= config.max_valuations);
        let env = p.model().env();
        let f = env.param_id("f").unwrap();
        // the first (preferred) valuation contains a Byzantine process
        assert!(vals[0].value(f) >= 1);
        for v in &vals {
            assert!(env.is_admissible(v));
        }
    }

    /// Whether all three consensus properties hold.
    fn all_hold(result: &ProtocolVerification) -> bool {
        [&result.agreement, &result.validity, &result.termination]
            .iter()
            .all(|p| p.holds())
    }

    #[test]
    fn category_b_protocol_passes_all_properties() {
        let p = bstyle::cc85a();
        let result = verify_protocol(&p, &VerifierConfig::quick());
        assert!(result.agreement.holds(), "{:?}", result.agreement.status);
        assert!(result.validity.holds(), "{:?}", result.validity.status);
        assert!(
            result.termination.holds(),
            "violated: {:?}",
            result.termination.violated_obligation()
        );
        assert!(result.agreement.nschemas > 0);
    }

    #[test]
    fn mmr14_termination_is_refuted_via_cb2() {
        let p = mmr14::mmr14();
        let result = verify_protocol(&p, &VerifierConfig::quick());
        assert!(result.agreement.holds());
        assert!(result.validity.holds());
        assert!(result.termination.is_violated());
        let violated = result.termination.violated_obligation().unwrap();
        assert!(
            violated.starts_with("CB"),
            "violated obligation: {violated}"
        );
        let ce = result.termination.counterexample.as_ref().unwrap();
        assert!(!ce.schedule.is_empty());
    }

    #[test]
    fn fixed_protocols_pass_the_binding_conditions() {
        for p in [fixed::miller18(), fixed::aby22()] {
            let result = verify_protocol(&p, &VerifierConfig::quick());
            assert!(
                result.termination.holds(),
                "{}: violated {:?}",
                p.name(),
                result.termination.violated_obligation()
            );
            assert!(all_hold(&result), "{}", p.name());
        }
    }

    /// Asserts two verifications agree property by property: statuses,
    /// states, schema counts, counterexample presence and the violated
    /// obligation.
    fn assert_same_results(a: &ProtocolVerification, b: &ProtocolVerification, ctx: &str) {
        for (x, y) in [&a.agreement, &a.validity, &a.termination]
            .into_iter()
            .zip([&b.agreement, &b.validity, &b.termination])
        {
            assert_eq!(x.status, y.status, "{ctx}: {}", x.property);
            assert_eq!(x.states, y.states, "{ctx}: {}", x.property);
            assert_eq!(x.nschemas, y.nschemas, "{ctx}: {}", x.property);
            assert_eq!(
                x.counterexample.is_some(),
                y.counterexample.is_some(),
                "{ctx}: {}",
                x.property
            );
        }
        assert_eq!(
            a.termination.violated_obligation(),
            b.termination.violated_obligation(),
            "{ctx}"
        );
    }

    #[test]
    fn incremental_sweep_never_changes_results() {
        // the default config checks two guard-adjacent valuations per
        // protocol; one sweep worker walks both, so the incremental sweep
        // serves the second valuation's groups straight from the lineage —
        // with identical verdicts, counts and violated obligations
        let p = mmr14::mmr14();
        let config = VerifierConfig::default().with_threads(1);
        let incremental = verify_protocol(&p, &config.with_incremental_sweep(true));
        let fresh = verify_protocol(&p, &config.with_incremental_sweep(false));
        assert_same_results(&incremental, &fresh, "incremental vs fresh");
        // the lineage actually served later valuations without exploring
        assert!(
            incremental.cache.reused_groups() + incremental.cache.extended_groups() > 0,
            "{}",
            incremental.cache
        );
        assert_eq!(fresh.cache.reused_groups(), 0);
        assert_eq!(fresh.cache.extended_groups(), 0);
    }

    #[test]
    fn split_sweep_matches_a_single_worker() {
        // the sweep cuts its grid only at lineage breaks, and MMR14's two
        // default valuations are one run: a budget of 2 hands that run to
        // one sweep worker, which explores each group as often as a budget
        // of 1 does, with the same results
        let p = mmr14::mmr14();
        let config = VerifierConfig::default().with_incremental_sweep(true);
        let split = verify_protocol(&p, &config.with_threads(2));
        let single = verify_protocol(&p, &config.with_threads(1));
        assert_same_results(&split, &single, "budget 2 vs budget 1");
        assert_eq!(
            split.cache.explorations_paid(),
            single.cache.explorations_paid(),
            "{} vs {}",
            split.cache,
            single.cache
        );
    }

    #[test]
    fn exhausted_deadline_degrades_to_unknown_without_losing_cells() {
        // a zero deadline trips every grid cell: the properties must come
        // back Unknown (never a fabricated verdict or counterexample) and
        // the interrupted cells must still account for the whole grid
        let p = bstyle::cc85a();
        let result = verify_protocol(&p, &VerifierConfig::quick().with_deadline_ms(0));
        assert!(!all_hold(&result));
        let width = result.valuations.len();
        for prop in [&result.agreement, &result.validity, &result.termination] {
            assert_eq!(prop.status, CheckStatus::Unknown, "{}", prop.property);
            assert!(prop.counterexample.is_none(), "{}", prop.property);
            for report in &prop.reports {
                assert_eq!(
                    report.interrupted_cells(),
                    width,
                    "{}: {}",
                    prop.property,
                    report.spec_name
                );
            }
        }
        // the same protocol under an unlimited budget routes through the
        // plain sweep and still passes
        assert!(all_hold(&verify_protocol(&p, &VerifierConfig::quick())));
    }

    #[test]
    fn lookup_and_verify_by_name() {
        let p = protocol_by_name("KS16").unwrap();
        let result = verify_protocol(&p, &VerifierConfig::quick());
        assert_eq!(result.protocol, "KS16");
        assert_eq!(result.category, ProtocolCategory::B);
        assert!(all_hold(&result));
    }
}
