//! Threshold guards.
//!
//! A *simple guard* has the form `b·x ≥ a̅·p⊤ + a0` or `b·x < a̅·p⊤ + a0`
//! where `x` is a shared variable; a *coin guard* has the same form over a
//! coin variable.  A rule guard is a conjunction of guards that must either
//! all be simple guards or all be coin guards (Sect. III-B(b)).
//!
//! Following ByMC (and the benchmark models of the paper, e.g. rule `r21` of
//! MMR14 whose guard is `a0 + a1 ≥ n − t − f`), the left-hand side may be a
//! linear combination of variables of the same kind, not just a single
//! variable.

use crate::expr::LinearExpr;
use crate::variable::{VarId, VarKind, Variable};
use std::fmt;

/// The two comparison forms allowed in threshold guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuardRel {
    /// `lhs >= bound`
    Ge,
    /// `lhs < bound`
    Lt,
}

impl GuardRel {
    /// Applies the comparison.
    pub fn holds(self, lhs: i128, rhs: i128) -> bool {
        match self {
            GuardRel::Ge => lhs >= rhs,
            GuardRel::Lt => lhs < rhs,
        }
    }

    /// Human-readable symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            GuardRel::Ge => ">=",
            GuardRel::Lt => "<",
        }
    }
}

impl fmt::Display for GuardRel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A single threshold comparison `Σᵢ bᵢ·xᵢ ⋈ bound`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AtomicGuard {
    /// The left-hand side: variable terms with integer coefficients.
    pub terms: Vec<(i64, VarId)>,
    /// `>=` or `<`.
    pub rel: GuardRel,
    /// The linear expression `a̅·p⊤ + a0` over the parameters.
    pub bound: LinearExpr,
}

impl AtomicGuard {
    /// `var >= bound`.
    pub fn ge(var: VarId, bound: LinearExpr) -> Self {
        AtomicGuard {
            terms: vec![(1, var)],
            rel: GuardRel::Ge,
            bound,
        }
    }

    /// `var < bound`.
    pub fn lt(var: VarId, bound: LinearExpr) -> Self {
        AtomicGuard {
            terms: vec![(1, var)],
            rel: GuardRel::Lt,
            bound,
        }
    }

    /// `coeff·var >= bound`.
    pub fn ge_scaled(coeff: i64, var: VarId, bound: LinearExpr) -> Self {
        AtomicGuard {
            terms: vec![(coeff, var)],
            rel: GuardRel::Ge,
            bound,
        }
    }

    /// `var_1 + … + var_n >= bound`.
    pub fn sum_ge(vars: &[VarId], bound: LinearExpr) -> Self {
        AtomicGuard {
            terms: vars.iter().map(|&v| (1, v)).collect(),
            rel: GuardRel::Ge,
            bound,
        }
    }

    /// `var_1 + … + var_n < bound`.
    pub fn sum_lt(vars: &[VarId], bound: LinearExpr) -> Self {
        AtomicGuard {
            terms: vars.iter().map(|&v| (1, v)).collect(),
            rel: GuardRel::Lt,
            bound,
        }
    }

    /// The variables appearing on the left-hand side.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.terms.iter().map(|&(_, v)| v)
    }

    /// The comparison relation of the atom.
    pub fn rel(&self) -> GuardRel {
        self.rel
    }

    /// The right-hand-side bound of the atom.
    pub fn bound(&self) -> &LinearExpr {
        &self.bound
    }

    /// Evaluates the left-hand side against variable values.
    pub fn lhs_value(&self, var_values: &[u64]) -> i128 {
        self.terms
            .iter()
            .map(|&(c, v)| c as i128 * var_values[v.0] as i128)
            .sum()
    }

    /// Evaluates the left-hand side against byte-packed variable values
    /// (the row representation of explicit-state search).
    pub fn lhs_value_bytes(&self, var_values: &[u8]) -> i128 {
        self.terms
            .iter()
            .map(|&(c, v)| c as i128 * var_values[v.0] as i128)
            .sum()
    }

    /// Evaluates the guard against variable values and parameter values.
    pub fn holds(&self, var_values: &[u64], param_values: &[u64]) -> bool {
        self.rel
            .holds(self.lhs_value(var_values), self.bound.eval(param_values))
    }

    /// Whether this atom becomes *true forever* once it becomes true, as the
    /// shared variables only grow (a "rising" guard in ByMC terminology).
    /// `>=`-guards with non-negative coefficients rise; `<`-guards with
    /// non-negative coefficients fall (become false forever once false).
    pub fn is_rising(&self) -> bool {
        self.rel == GuardRel::Ge && self.terms.iter().all(|&(c, _)| c >= 0)
    }

    /// Renders the atom with variable and parameter names.
    pub fn display_with(&self, vars: &[Variable], params: &[String]) -> String {
        let lhs = if self.terms.is_empty() {
            "0".to_string()
        } else {
            self.terms
                .iter()
                .map(|&(c, v)| {
                    let name = vars
                        .get(v.0)
                        .map(|x| x.name().to_string())
                        .unwrap_or_else(|| format!("{v}"));
                    if c == 1 {
                        name
                    } else {
                        format!("{c}*{name}")
                    }
                })
                .collect::<Vec<_>>()
                .join(" + ")
        };
        format!("{lhs} {} {}", self.rel, self.bound.display_with(params))
    }
}

/// Classification of a full rule guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuardKind {
    /// The trivially-true guard (no conjuncts).
    True,
    /// A conjunction of simple guards over shared variables.
    Shared,
    /// A conjunction of coin guards over coin variables.
    Coin,
    /// Illegal mixture of shared and coin atoms (rejected by validation).
    Mixed,
}

/// A conjunction of atomic threshold guards.
///
/// The empty conjunction is the guard `true`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Guard {
    atoms: Vec<AtomicGuard>,
}

impl Guard {
    /// The trivially-true guard.
    pub fn top() -> Self {
        Guard { atoms: Vec::new() }
    }

    /// A guard with a single atom `var >= bound`.
    pub fn ge(var: VarId, bound: LinearExpr) -> Self {
        Guard {
            atoms: vec![AtomicGuard::ge(var, bound)],
        }
    }

    /// A guard with a single atom `var < bound`.
    pub fn lt(var: VarId, bound: LinearExpr) -> Self {
        Guard {
            atoms: vec![AtomicGuard::lt(var, bound)],
        }
    }

    /// A guard with a single atom `coeff·var >= bound`.
    pub fn ge_scaled(coeff: i64, var: VarId, bound: LinearExpr) -> Self {
        Guard {
            atoms: vec![AtomicGuard::ge_scaled(coeff, var, bound)],
        }
    }

    /// A guard with a single atom `var_1 + … + var_n >= bound`.
    pub fn sum_ge(vars: &[VarId], bound: LinearExpr) -> Self {
        Guard {
            atoms: vec![AtomicGuard::sum_ge(vars, bound)],
        }
    }

    /// A guard with a single atom `var_1 + … + var_n < bound`.
    pub fn sum_lt(vars: &[VarId], bound: LinearExpr) -> Self {
        Guard {
            atoms: vec![AtomicGuard::sum_lt(vars, bound)],
        }
    }

    /// Adds a conjunct `var >= bound` and returns the extended guard.
    pub fn and_ge(mut self, var: VarId, bound: LinearExpr) -> Self {
        self.atoms.push(AtomicGuard::ge(var, bound));
        self
    }

    /// Adds a conjunct `var < bound` and returns the extended guard.
    pub fn and_lt(mut self, var: VarId, bound: LinearExpr) -> Self {
        self.atoms.push(AtomicGuard::lt(var, bound));
        self
    }

    /// Adds a conjunct `var_1 + … + var_n >= bound` and returns the guard.
    pub fn and_sum_ge(mut self, vars: &[VarId], bound: LinearExpr) -> Self {
        self.atoms.push(AtomicGuard::sum_ge(vars, bound));
        self
    }

    /// Adds an arbitrary atom and returns the extended guard.
    pub fn and(mut self, atom: AtomicGuard) -> Self {
        self.atoms.push(atom);
        self
    }

    /// The conjuncts of the guard.
    pub fn atoms(&self) -> &[AtomicGuard] {
        &self.atoms
    }

    /// Whether the guard is trivially true.
    pub fn is_true(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Evaluates the guard against variable and parameter values.
    pub fn holds(&self, var_values: &[u64], param_values: &[u64]) -> bool {
        self.atoms.iter().all(|a| a.holds(var_values, param_values))
    }

    /// Classifies the guard as true / shared / coin / mixed with respect to a
    /// variable table.
    pub fn kind(&self, vars: &[Variable]) -> GuardKind {
        if self.atoms.is_empty() {
            return GuardKind::True;
        }
        let mut has_shared = false;
        let mut has_coin = false;
        for a in &self.atoms {
            for v in a.vars() {
                match vars[v.0].kind() {
                    VarKind::Shared => has_shared = true,
                    VarKind::Coin => has_coin = true,
                }
            }
        }
        match (has_shared, has_coin) {
            (true, false) => GuardKind::Shared,
            (false, true) => GuardKind::Coin,
            (true, true) => GuardKind::Mixed,
            (false, false) => GuardKind::True,
        }
    }

    /// Renders the guard with variable and parameter names.
    pub fn display_with(&self, vars: &[Variable], params: &[String]) -> String {
        if self.atoms.is_empty() {
            return "true".to_string();
        }
        self.atoms
            .iter()
            .map(|a| a.display_with(vars, params))
            .collect::<Vec<_>>()
            .join(" /\\ ")
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return f.write_str("true");
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                f.write_str(" /\\ ")?;
            }
            for (j, (c, v)) in a.terms.iter().enumerate() {
                if j > 0 {
                    f.write_str(" + ")?;
                }
                write!(f, "{c}*{v}")?;
            }
            write!(f, " {} {}", a.rel, a.bound)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ParamId;

    fn vars() -> Vec<Variable> {
        vec![
            Variable::new("a0", VarKind::Shared),
            Variable::new("a1", VarKind::Shared),
            Variable::new("cc0", VarKind::Coin),
        ]
    }

    #[test]
    fn true_guard_always_holds() {
        let g = Guard::top();
        assert!(g.is_true());
        assert!(g.holds(&[0, 0, 0], &[1, 2]));
        assert_eq!(g.kind(&vars()), GuardKind::True);
        assert_eq!(format!("{g}"), "true");
    }

    #[test]
    fn ge_guard_evaluates_thresholds() {
        // a0 >= n - t   with n = p0, t = p1
        let bound = LinearExpr::param(2, ParamId(0)).sub(&LinearExpr::param(2, ParamId(1)));
        let g = Guard::ge(VarId(0), bound);
        assert!(g.holds(&[3, 0, 0], &[4, 1])); // 3 >= 3
        assert!(!g.holds(&[2, 0, 0], &[4, 1])); // 2 < 3
        assert_eq!(g.kind(&vars()), GuardKind::Shared);
    }

    #[test]
    fn lt_guard_evaluates_thresholds() {
        // a1 < t + 1
        let bound = LinearExpr::param(2, ParamId(1)).plus_const(1);
        let g = Guard::lt(VarId(1), bound);
        assert!(g.holds(&[0, 1, 0], &[4, 1])); // 1 < 2
        assert!(!g.holds(&[0, 2, 0], &[4, 1])); // 2 < 2 fails
    }

    #[test]
    fn scaled_guard_uses_coefficient() {
        // 2*a0 >= n + 1
        let bound = LinearExpr::param(1, ParamId(0)).plus_const(1);
        let g = Guard::ge_scaled(2, VarId(0), bound);
        assert!(g.holds(&[3, 0, 0], &[5])); // 6 >= 6
        assert!(!g.holds(&[2, 0, 0], &[5])); // 4 < 6
    }

    #[test]
    fn sum_guard_adds_variables() {
        // a0 + a1 >= n - t  (the shape of MMR14's r21 guard)
        let bound = LinearExpr::param(2, ParamId(0)).sub(&LinearExpr::param(2, ParamId(1)));
        let g = Guard::sum_ge(&[VarId(0), VarId(1)], bound.clone());
        assert!(g.holds(&[2, 1, 0], &[4, 1])); // 3 >= 3
        assert!(!g.holds(&[1, 1, 0], &[4, 1])); // 2 < 3
        let lt = Guard::sum_lt(&[VarId(0), VarId(1)], bound);
        assert!(lt.holds(&[1, 1, 0], &[4, 1]));
        assert!(!lt.holds(&[2, 1, 0], &[4, 1]));
    }

    #[test]
    fn conjunction_requires_all_atoms() {
        let b1 = LinearExpr::constant(1, 2);
        let b2 = LinearExpr::constant(1, 5);
        let g = Guard::ge(VarId(0), b1).and_lt(VarId(1), b2);
        assert!(g.holds(&[2, 4, 0], &[0]));
        assert!(!g.holds(&[1, 4, 0], &[0]));
        assert!(!g.holds(&[2, 5, 0], &[0]));
        assert_eq!(g.atoms().len(), 2);
    }

    #[test]
    fn guard_kind_detects_coin_and_mixed() {
        let c = Guard::ge(VarId(2), LinearExpr::constant(1, 1));
        assert_eq!(c.kind(&vars()), GuardKind::Coin);
        let mixed = c.and_ge(VarId(0), LinearExpr::constant(1, 1));
        assert_eq!(mixed.kind(&vars()), GuardKind::Mixed);
    }

    #[test]
    fn rising_and_falling_classification() {
        assert!(AtomicGuard::ge(VarId(0), LinearExpr::constant(1, 1)).is_rising());
        assert!(!AtomicGuard::lt(VarId(0), LinearExpr::constant(1, 1)).is_rising());
        let neg = AtomicGuard::ge_scaled(-1, VarId(0), LinearExpr::constant(1, 0));
        assert!(!neg.is_rising());
    }

    #[test]
    fn display_with_names() {
        let params = vec!["n".to_string(), "t".to_string()];
        let bound = LinearExpr::param(2, ParamId(0))
            .sub(&LinearExpr::param(2, ParamId(1)))
            .plus_const(-1);
        let g = Guard::ge(VarId(0), bound.clone());
        assert_eq!(g.display_with(&vars(), &params), "a0 >= n - t - 1");
        assert_eq!(Guard::top().display_with(&vars(), &params), "true");
        let sum = Guard::sum_ge(&[VarId(0), VarId(1)], bound);
        assert_eq!(sum.display_with(&vars(), &params), "a0 + a1 >= n - t - 1");
    }

    #[test]
    fn atom_accessors() {
        let a = AtomicGuard::sum_ge(&[VarId(0), VarId(1)], LinearExpr::constant(1, 2));
        assert_eq!(a.vars().collect::<Vec<_>>(), vec![VarId(0), VarId(1)]);
        assert_eq!(a.lhs_value(&[3, 4, 0]), 7);
    }
}
