//! Environments: parameters, resilience conditions and the `N` function.
//!
//! An environment `Env = (Π, RC, N)` fixes the set of parameters (ranging
//! over natural numbers), the resilience condition — a conjunction of linear
//! constraints over the parameters — and the function `N` mapping an
//! admissible parameter valuation to the number of explicitly modelled
//! processes and common coins (Sect. III-B(a) of the paper).

use crate::expr::{LinearConstraint, LinearExpr, ParamId};
use std::fmt;

/// Number of explicitly modelled processes and common coins for a concrete
/// parameter valuation: the value `N(p)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystemSize {
    /// Number of copies of the correct-process threshold automaton.
    pub processes: u64,
    /// Number of copies of the common-coin automaton (usually 0 or 1).
    pub coins: u64,
}

/// A concrete assignment of natural numbers to all parameters of an
/// environment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ParamValuation {
    values: Vec<u64>,
}

impl ParamValuation {
    /// Creates a valuation from raw values, ordered by [`ParamId`].
    pub fn new(values: Vec<u64>) -> Self {
        ParamValuation { values }
    }

    /// The raw value vector.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The value of a single parameter.
    pub fn value(&self, p: ParamId) -> u64 {
        self.values[p.0]
    }

    /// Number of parameters in this valuation.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the valuation is empty (no parameters).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl fmt::Display for ParamValuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// The environment `Env = (Π, RC, N)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Environment {
    params: Vec<String>,
    resilience: Vec<LinearConstraint>,
    num_processes: LinearExpr,
    num_coins: LinearExpr,
}

impl Environment {
    /// Number of declared parameters.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Names of all parameters, ordered by [`ParamId`].
    pub fn param_names(&self) -> &[String] {
        &self.params
    }

    /// Looks up a parameter by name.
    pub fn param_id(&self, name: &str) -> Option<ParamId> {
        self.params.iter().position(|p| p == name).map(ParamId)
    }

    /// The conjunction of resilience constraints `RC`.
    pub fn resilience(&self) -> &[LinearConstraint] {
        &self.resilience
    }

    /// Whether a valuation satisfies the resilience condition.
    pub fn is_admissible(&self, valuation: &ParamValuation) -> bool {
        valuation.len() == self.num_params()
            && self.resilience.iter().all(|c| c.holds(valuation.values()))
    }

    /// Computes `N(p)` for an admissible valuation.
    ///
    /// Returns `None` if the valuation is not admissible or if one of the
    /// size expressions evaluates to a negative number.
    pub fn system_size(&self, valuation: &ParamValuation) -> Option<SystemSize> {
        if !self.is_admissible(valuation) {
            return None;
        }
        let procs = self.num_processes.eval(valuation.values());
        let coins = self.num_coins.eval(valuation.values());
        if procs < 0 || coins < 0 {
            return None;
        }
        Some(SystemSize {
            processes: procs as u64,
            coins: coins as u64,
        })
    }

    /// Enumerates all admissible valuations with every parameter bounded by
    /// `max_value` (inclusive), sorted by the number of modelled processes.
    ///
    /// This is the workhorse of the bounded-parameter sweeps used by the
    /// explicit-state checker in place of ByMC's fully parameterized
    /// reasoning.
    pub fn admissible_valuations(&self, max_value: u64) -> Vec<ParamValuation> {
        let k = self.num_params();
        let mut out = Vec::new();
        let mut current = vec![0u64; k];
        self.enumerate_rec(0, max_value, &mut current, &mut out);
        out.sort_by_key(|v| {
            self.system_size(v)
                .map(|s| (s.processes, s.coins))
                .unwrap_or((u64::MAX, u64::MAX))
        });
        out
    }

    fn enumerate_rec(
        &self,
        idx: usize,
        max_value: u64,
        current: &mut Vec<u64>,
        out: &mut Vec<ParamValuation>,
    ) {
        if idx == current.len() {
            let v = ParamValuation::new(current.clone());
            if self.is_admissible(&v) && self.system_size(&v).is_some() {
                out.push(v);
            }
            return;
        }
        for value in 0..=max_value {
            current[idx] = value;
            self.enumerate_rec(idx + 1, max_value, current, out);
        }
        current[idx] = 0;
    }

    /// Renders the resilience condition using parameter names.
    pub fn describe_resilience(&self) -> String {
        if self.resilience.is_empty() {
            return "true".to_string();
        }
        self.resilience
            .iter()
            .map(|c| c.display_with(&self.params))
            .collect::<Vec<_>>()
            .join(" /\\ ")
    }
}

impl fmt::Display for Environment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Env(params = [{}], RC = {})",
            self.params.join(", "),
            self.describe_resilience()
        )
    }
}

/// Builder for [`Environment`].
#[derive(Debug, Default)]
pub struct EnvironmentBuilder {
    params: Vec<String>,
    resilience: Vec<LinearConstraint>,
    num_processes: Option<LinearExpr>,
    num_coins: Option<LinearExpr>,
}

impl EnvironmentBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a parameter and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a parameter with the same name was already declared.
    pub fn param(&mut self, name: &str) -> ParamId {
        assert!(
            !self.params.iter().any(|p| p == name),
            "duplicate parameter name {name:?}"
        );
        self.params.push(name.to_string());
        ParamId(self.params.len() - 1)
    }

    /// Adds one conjunct of the resilience condition.
    pub fn require(&mut self, constraint: LinearConstraint) -> &mut Self {
        self.resilience.push(constraint);
        self
    }

    /// Sets the expression computing the number of modelled processes.
    pub fn processes(&mut self, expr: LinearExpr) -> &mut Self {
        self.num_processes = Some(expr);
        self
    }

    /// Sets the expression computing the number of modelled common coins.
    pub fn coins(&mut self, expr: LinearExpr) -> &mut Self {
        self.num_coins = Some(expr);
        self
    }

    /// Finishes the environment.
    ///
    /// # Panics
    ///
    /// Panics if an expression or constraint was built for a different number
    /// of parameters than declared.
    pub fn build(self) -> Environment {
        let k = self.params.len();
        let num_processes = self
            .num_processes
            .unwrap_or_else(|| LinearExpr::constant(k, 0));
        let num_coins = self.num_coins.unwrap_or_else(|| LinearExpr::constant(k, 0));
        assert_eq!(num_processes.num_params(), k);
        assert_eq!(num_coins.num_params(), k);
        for c in &self.resilience {
            assert_eq!(c.lhs().num_params(), k);
        }
        Environment {
            params: self.params,
            resilience: self.resilience,
            num_processes,
            num_coins,
        }
    }
}

/// Builds the standard Byzantine environment `BAMP_{n,t}[n > a*t, CC]` used
/// throughout the benchmark: parameters `n`, `t`, `f`, `cc`, resilience
/// `n > a*t /\ t >= f /\ f >= 0 /\ cc >= 1`, `N(p) = (n - f, 1)`.
pub fn byzantine_common_coin_env(resilience_factor: i64) -> Environment {
    let mut b = EnvironmentBuilder::new();
    let n = b.param("n");
    let t = b.param("t");
    let f = b.param("f");
    let cc = b.param("cc");
    let k = 4usize;
    b.require(LinearConstraint::gt(
        LinearExpr::param(k, n),
        LinearExpr::term(k, t, resilience_factor),
    ));
    b.require(LinearConstraint::ge(
        LinearExpr::param(k, t),
        LinearExpr::param(k, f),
    ));
    b.require(LinearConstraint::ge(
        LinearExpr::param(k, f),
        LinearExpr::constant(k, 0),
    ));
    b.require(LinearConstraint::ge(
        LinearExpr::param(k, cc),
        LinearExpr::constant(k, 1),
    ));
    b.processes(LinearExpr::param(k, n).sub(&LinearExpr::param(k, f)));
    b.coins(LinearExpr::constant(k, 1));
    b.build()
}

/// Builds the crash-stop environment used by the generated protocol
/// families: the same parameters `n`, `t`, `f`, `cc` and resilience
/// `n > a*t /\ t >= f /\ f >= 0 /\ cc >= 1` as
/// [`byzantine_common_coin_env`], but `N(p) = (n, 1)` — *all* `n` processes
/// are modelled, because a crashed process is one that simply stops taking
/// steps, and the asynchronous interleaving semantics already contains every
/// execution in which up to `f` processes never move again.  Threshold
/// guards of crash-stop protocols consequently wait for `n - t` messages
/// (all but the slowest `t`) instead of the Byzantine `n - t - f`.
pub fn crash_stop_common_coin_env(resilience_factor: i64) -> Environment {
    let mut b = EnvironmentBuilder::new();
    let n = b.param("n");
    let t = b.param("t");
    let f = b.param("f");
    let cc = b.param("cc");
    let k = 4usize;
    b.require(LinearConstraint::gt(
        LinearExpr::param(k, n),
        LinearExpr::term(k, t, resilience_factor),
    ));
    b.require(LinearConstraint::ge(
        LinearExpr::param(k, t),
        LinearExpr::param(k, f),
    ));
    b.require(LinearConstraint::ge(
        LinearExpr::param(k, f),
        LinearExpr::constant(k, 0),
    ));
    b.require(LinearConstraint::ge(
        LinearExpr::param(k, cc),
        LinearExpr::constant(k, 1),
    ));
    b.processes(LinearExpr::param(k, n));
    b.coins(LinearExpr::constant(k, 1));
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Rel;

    #[test]
    fn byzantine_env_has_expected_shape() {
        let env = byzantine_common_coin_env(3);
        assert_eq!(env.num_params(), 4);
        assert_eq!(env.param_names()[0], "n");
        assert_eq!(env.param_id("f"), Some(ParamId(2)));
        assert_eq!(env.param_id("zzz"), None);
        assert_eq!(env.resilience().len(), 4);
    }

    #[test]
    fn admissibility_respects_resilience() {
        let env = byzantine_common_coin_env(3);
        // n=4, t=1, f=1, cc=1 is admissible (4 > 3)
        assert!(env.is_admissible(&ParamValuation::new(vec![4, 1, 1, 1])));
        // n=3, t=1 violates n > 3t
        assert!(!env.is_admissible(&ParamValuation::new(vec![3, 1, 1, 1])));
        // f > t violates t >= f
        assert!(!env.is_admissible(&ParamValuation::new(vec![7, 1, 2, 1])));
        // cc = 0 violates cc >= 1
        assert!(!env.is_admissible(&ParamValuation::new(vec![4, 1, 1, 0])));
        // wrong arity
        assert!(!env.is_admissible(&ParamValuation::new(vec![4, 1, 1])));
    }

    #[test]
    fn system_size_counts_correct_processes_and_one_coin() {
        let env = byzantine_common_coin_env(3);
        let size = env
            .system_size(&ParamValuation::new(vec![4, 1, 1, 1]))
            .unwrap();
        assert_eq!(size.processes, 3);
        assert_eq!(size.coins, 1);
        assert!(env
            .system_size(&ParamValuation::new(vec![3, 1, 1, 1]))
            .is_none());
    }

    #[test]
    fn admissible_enumeration_is_sorted_by_system_size() {
        let env = byzantine_common_coin_env(3);
        let vals = env.admissible_valuations(5);
        assert!(!vals.is_empty());
        let sizes: Vec<u64> = vals
            .iter()
            .map(|v| env.system_size(v).unwrap().processes)
            .collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sizes, sorted);
        // smallest admissible for n > 3t: n=1,t=0,f=0? n>0 holds, so n=1 works
        assert_eq!(sizes[0], 1);
    }

    #[test]
    fn crash_env_models_all_processes() {
        let env = crash_stop_common_coin_env(2);
        assert_eq!(env.num_params(), 4);
        let v = ParamValuation::new(vec![3, 1, 1, 1]);
        assert!(env.is_admissible(&v));
        let size = env.system_size(&v).unwrap();
        assert_eq!(size.processes, 3);
        assert_eq!(size.coins, 1);
        // same resilience shape as the Byzantine environment
        assert!(!env.is_admissible(&ParamValuation::new(vec![2, 1, 1, 1])));
        assert!(!env.is_admissible(&ParamValuation::new(vec![5, 1, 2, 1])));
    }

    #[test]
    fn builder_rejects_duplicate_parameters() {
        let result = std::panic::catch_unwind(|| {
            let mut b = EnvironmentBuilder::new();
            b.param("n");
            b.param("n");
        });
        assert!(result.is_err());
    }

    #[test]
    fn describe_resilience_uses_names() {
        let env = byzantine_common_coin_env(3);
        let s = env.describe_resilience();
        assert!(s.contains("n > 3*t"));
        assert!(s.contains("t >= f"));
    }

    #[test]
    fn empty_resilience_describes_as_true() {
        let mut b = EnvironmentBuilder::new();
        let _n = b.param("n");
        let env = b.build();
        assert_eq!(env.describe_resilience(), "true");
    }

    #[test]
    fn constraint_accessors_expose_parts() {
        let env = byzantine_common_coin_env(3);
        let c = &env.resilience()[0];
        assert_eq!(c.rel(), Rel::Gt);
        assert_eq!(c.lhs().coeff(ParamId(0)), 1);
        assert_eq!(c.rhs().coeff(ParamId(1)), 3);
    }

    #[test]
    fn valuation_display_and_accessors() {
        let v = ParamValuation::new(vec![4, 1, 1, 1]);
        assert_eq!(format!("{v}"), "(4, 1, 1, 1)");
        assert_eq!(v.value(ParamId(0)), 4);
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
    }
}
