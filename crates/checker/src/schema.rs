//! Milestones and schema counting.
//!
//! ByMC checks a single-round query by enumerating *schemas*: sequences of
//! contexts delimited by *milestone* events (a rising threshold guard
//! becoming unlocked or a falling guard becoming locked).  The number of
//! schemas (`nschemas` in Tables II and IV of the paper) is the dominant cost
//! of the check and grows steeply with the number of milestones.
//!
//! This module re-implements the cost metric: milestones are the distinct
//! threshold atoms of the model, partially ordered by implication on the same
//! left-hand side, and the schema count is the number of linear extensions of
//! this partial order multiplied by a small factor accounting for the
//! temporal cut points of the query.

use crate::spec::Spec;
use ccta::{AtomicGuard, SystemModel};

/// A milestone: a threshold atom whose truth value changes at most once along
/// a run (rising `>=` guards unlock, falling `<` guards lock).
#[derive(Debug, Clone, PartialEq)]
pub struct Milestone {
    /// The guard atom.
    pub atom: AtomicGuard,
    /// Whether the atom is rising (unlocks) rather than falling (locks).
    pub rising: bool,
}

impl Milestone {
    /// Renders the milestone with model names.
    pub fn display_with(&self, model: &SystemModel) -> String {
        let dir = if self.rising { "unlock" } else { "lock" };
        format!(
            "{dir}: {}",
            self.atom
                .display_with(model.vars(), model.env().param_names())
        )
    }
}

/// Extracts the milestones of a model: the distinct non-trivial threshold
/// atoms appearing in any rule guard.
pub fn milestones(model: &SystemModel) -> Vec<Milestone> {
    let mut out: Vec<Milestone> = Vec::new();
    for rule in model.rules() {
        for atom in rule.guard().atoms() {
            if out.iter().any(|m| &m.atom == atom) {
                continue;
            }
            out.push(Milestone {
                atom: atom.clone(),
                rising: atom.is_rising(),
            });
        }
    }
    out
}

/// Whether milestone `a` must occur before milestone `b`: both compare the
/// same left-hand side and `a`'s bound is component-wise at most `b`'s bound
/// (so the smaller threshold is crossed first).
fn precedes(a: &Milestone, b: &Milestone) -> bool {
    if a == b {
        return false;
    }
    if a.atom.terms != b.atom.terms {
        return false;
    }
    let k = a.atom.bound.num_params().max(b.atom.bound.num_params());
    let mut le = true;
    let mut strict = false;
    for i in 0..k {
        let ca = a.atom.bound.coeff(ccta::ParamId(i));
        let cb = b.atom.bound.coeff(ccta::ParamId(i));
        if ca > cb {
            le = false;
        }
        if ca < cb {
            strict = true;
        }
    }
    let ca = a.atom.bound.constant_term();
    let cb = b.atom.bound.constant_term();
    if ca > cb {
        le = false;
    }
    if ca < cb {
        strict = true;
    }
    le && strict
}

/// The precedence relation over milestones as index pairs `(before, after)`.
pub fn milestone_precedence(milestones: &[Milestone]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, a) in milestones.iter().enumerate() {
        for (j, b) in milestones.iter().enumerate() {
            if i != j && precedes(a, b) {
                out.push((i, j));
            }
        }
    }
    out
}

/// Counts the linear extensions of a partial order over `n` elements given as
/// precedence pairs, by dynamic programming over subsets.
///
/// # Panics
///
/// Panics if `n > 24` (the subset DP would not fit in memory); the benchmark
/// automata stay well below this.
pub fn count_linear_extensions(n: usize, precedence: &[(usize, usize)]) -> u128 {
    assert!(n <= 24, "too many milestones for exact schema counting");
    if n == 0 {
        return 1;
    }
    // predecessors bitmask per element
    let mut preds = vec![0u32; n];
    for &(before, after) in precedence {
        preds[after] |= 1 << before;
    }
    let full = (1u32 << n) - 1;
    let mut dp = vec![0u128; (full as usize) + 1];
    dp[0] = 1;
    for mask in 0..=full {
        if dp[mask as usize] == 0 {
            continue;
        }
        #[allow(clippy::needless_range_loop)]
        for next in 0..n {
            let bit = 1u32 << next;
            if mask & bit != 0 {
                continue;
            }
            if preds[next] & !mask != 0 {
                continue; // some predecessor not placed yet
            }
            dp[(mask | bit) as usize] += dp[mask as usize];
        }
    }
    dp[full as usize]
}

/// The number of temporal cut points contributed by a query shape, following
/// the schema construction: one cut point per "eventually" obligation.
fn cut_points(spec: &Spec) -> u32 {
    match spec {
        Spec::CoverNever { .. } => 2,
        Spec::NeverFrom { .. } => 1,
        Spec::ExistsAvoidOneOf { forbidden_sets, .. } => 1 + forbidden_sets.len() as u32,
        Spec::NonBlocking { .. } => 1,
    }
}

/// The schema-count cost metric for checking `spec` on `model`
/// (the `nschemas` columns of Tables II and IV).
///
/// The count is the number of admissible milestone orderings (linear
/// extensions of the precedence order) multiplied by the number of ways to
/// interleave the query's temporal cut points among the milestone events.
pub fn schema_count(model: &SystemModel, spec: &Spec) -> u128 {
    schema_counts(model, [spec])[0]
}

/// [`schema_count`] of every query of `specs` on `model`, in spec order.
/// The milestone orderings depend only on the model, so they are counted
/// once for the whole catalogue.
pub fn schema_counts<'a>(
    model: &SystemModel,
    specs: impl IntoIterator<Item = &'a Spec>,
) -> Vec<u128> {
    let ms = milestones(model);
    let prec = milestone_precedence(&ms);
    let orderings = count_linear_extensions(ms.len(), &prec);
    let m = ms.len() as u128;
    specs
        .into_iter()
        .map(|spec| {
            let cuts = cut_points(spec) as u128;
            // number of multisets of size `cuts` over `m + 1` gaps:
            // C(m + cuts, cuts), computed iteratively
            let mut factor: u128 = 1;
            for i in 1..=cuts {
                factor = factor * (m + i) / i;
            }
            orderings.saturating_mul(factor)
        })
        .collect()
}

/// The maximum schema count over a family of queries (used for the
/// `max-nschemas` column of Table IV).
pub fn max_schema_count<'a>(
    model: &SystemModel,
    specs: impl IntoIterator<Item = &'a Spec>,
) -> u128 {
    schema_counts(model, specs).into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::spec::{LocSet, StartRestriction};
    use ccta::BinValue;

    #[test]
    fn milestones_are_deduplicated() {
        let model = fixtures::voting_model();
        let ms = milestones(&model);
        // maj0, maj1, coin0, coin1 guards: 4 distinct atoms
        assert_eq!(ms.len(), 4);
        assert!(ms.iter().all(|m| m.rising));
        assert!(ms[0].display_with(&model).starts_with("unlock"));
    }

    #[test]
    fn precedence_orders_thresholds_on_the_same_lhs() {
        let model = fixtures::voting_model();
        let k = model.env().num_params();
        let v0 = model.var_id("v0").unwrap();
        let low = Milestone {
            atom: AtomicGuard::ge(v0, ccta::LinearExpr::constant(k, 1)),
            rising: true,
        };
        let high = Milestone {
            atom: AtomicGuard::ge(v0, ccta::LinearExpr::constant(k, 3)),
            rising: true,
        };
        let ms = vec![low, high];
        let prec = milestone_precedence(&ms);
        assert_eq!(prec, vec![(0, 1)]);
    }

    #[test]
    fn linear_extension_counts() {
        // no constraints: n! orderings
        assert_eq!(count_linear_extensions(0, &[]), 1);
        assert_eq!(count_linear_extensions(3, &[]), 6);
        assert_eq!(count_linear_extensions(4, &[]), 24);
        // a chain: exactly one ordering
        assert_eq!(count_linear_extensions(3, &[(0, 1), (1, 2)]), 1);
        // one constraint halves the count
        assert_eq!(count_linear_extensions(3, &[(0, 1)]), 3);
    }

    #[test]
    fn schema_count_grows_with_milestones_and_cut_points() {
        let model = fixtures::voting_model();
        let e0 = LocSet::from_names(&model, "E0", &["E0"]);
        let e1 = LocSet::from_names(&model, "E1", &["E1"]);
        let cover = Spec::CoverNever {
            name: "Inv1".into(),
            start: StartRestriction::RoundStart,
            trigger: e0.clone(),
            forbidden: e1.clone(),
        };
        let never = Spec::NeverFrom {
            name: "Inv2".into(),
            start: StartRestriction::Unanimous(BinValue::Zero),
            forbidden: e1.clone(),
        };
        let c_cover = schema_count(&model, &cover);
        let c_never = schema_count(&model, &never);
        assert!(c_cover > c_never, "{c_cover} vs {c_never}");
        assert!(c_never >= count_linear_extensions(4, &[]));
        let max = max_schema_count(&model, [&cover, &never]);
        assert_eq!(max, c_cover);
    }

    #[test]
    fn blocking_model_has_fewer_milestones() {
        let a = milestones(&fixtures::voting_model()).len();
        let b = milestones(&fixtures::blocking_model()).len();
        assert!(b < a);
    }

    #[test]
    #[should_panic(expected = "too many milestones")]
    fn exact_counting_is_bounded() {
        let _ = count_linear_extensions(30, &[]);
    }
}
