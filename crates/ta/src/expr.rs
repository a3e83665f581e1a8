//! Linear integer arithmetic over protocol parameters.
//!
//! Guards, resilience conditions and the `N` function of an environment are
//! all expressed as linear expressions over the parameter vector `p`
//! (e.g. `n`, `t`, `f`, `cc`).

use std::fmt;

/// Index of a parameter inside an [`crate::Environment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ParamId(pub usize);

impl fmt::Display for ParamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A linear expression `a̅ · p⊤ + a0` over the parameter vector.
///
/// The number of coefficients is fixed when the expression is created and
/// must match the number of parameters of the environment the expression is
/// evaluated against.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LinearExpr {
    coeffs: Vec<i64>,
    constant: i64,
}

impl LinearExpr {
    /// A constant expression with `num_params` (zero) parameter coefficients.
    pub fn constant(num_params: usize, constant: i64) -> Self {
        LinearExpr {
            coeffs: vec![0; num_params],
            constant,
        }
    }

    /// The expression consisting of a single parameter with coefficient 1.
    pub fn param(num_params: usize, p: ParamId) -> Self {
        Self::term(num_params, p, 1)
    }

    /// The expression `k * p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range for `num_params`.
    pub fn term(num_params: usize, p: ParamId, k: i64) -> Self {
        assert!(p.0 < num_params, "parameter index out of range");
        let mut coeffs = vec![0; num_params];
        coeffs[p.0] = k;
        LinearExpr {
            coeffs,
            constant: 0,
        }
    }

    /// Number of parameter coefficients carried by this expression.
    pub fn num_params(&self) -> usize {
        self.coeffs.len()
    }

    /// The constant term `a0`.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// The coefficient of parameter `p`.
    pub fn coeff(&self, p: ParamId) -> i64 {
        self.coeffs.get(p.0).copied().unwrap_or(0)
    }

    /// Pointwise sum of two expressions.
    ///
    /// # Panics
    ///
    /// Panics if the expressions were built for a different number of
    /// parameters.
    pub fn add(&self, other: &LinearExpr) -> LinearExpr {
        assert_eq!(self.coeffs.len(), other.coeffs.len());
        LinearExpr {
            coeffs: self
                .coeffs
                .iter()
                .zip(&other.coeffs)
                .map(|(a, b)| a + b)
                .collect(),
            constant: self.constant + other.constant,
        }
    }

    /// Pointwise difference `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if the expressions were built for a different number of
    /// parameters.
    pub fn sub(&self, other: &LinearExpr) -> LinearExpr {
        assert_eq!(self.coeffs.len(), other.coeffs.len());
        LinearExpr {
            coeffs: self
                .coeffs
                .iter()
                .zip(&other.coeffs)
                .map(|(a, b)| a - b)
                .collect(),
            constant: self.constant - other.constant,
        }
    }

    /// Multiplies every coefficient and the constant by `k`.
    pub fn scale(&self, k: i64) -> LinearExpr {
        LinearExpr {
            coeffs: self.coeffs.iter().map(|a| a * k).collect(),
            constant: self.constant * k,
        }
    }

    /// Adds a constant to the expression.
    pub fn plus_const(&self, k: i64) -> LinearExpr {
        LinearExpr {
            coeffs: self.coeffs.clone(),
            constant: self.constant + k,
        }
    }

    /// Evaluates the expression at the given parameter values.
    ///
    /// The result is returned as `i128` so that intermediate products cannot
    /// overflow for realistic parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics if `values` has fewer entries than the expression has
    /// coefficients.
    pub fn eval(&self, values: &[u64]) -> i128 {
        assert!(
            values.len() >= self.coeffs.len(),
            "parameter valuation too short"
        );
        let mut acc = self.constant as i128;
        for (i, &c) in self.coeffs.iter().enumerate() {
            acc += c as i128 * values[i] as i128;
        }
        acc
    }

    /// Renders the expression with the given parameter names.
    pub fn display_with(&self, names: &[String]) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (i, &c) in self.coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let name = names.get(i).map(|s| s.as_str()).unwrap_or("?");
            if c == 1 {
                parts.push(name.to_string());
            } else if c == -1 {
                parts.push(format!("-{name}"));
            } else {
                parts.push(format!("{c}*{name}"));
            }
        }
        if self.constant != 0 || parts.is_empty() {
            parts.push(self.constant.to_string());
        }
        parts.join(" + ").replace("+ -", "- ")
    }
}

impl fmt::Display for LinearExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = (0..self.coeffs.len()).map(|i| format!("p{i}")).collect();
        write!(f, "{}", self.display_with(&names))
    }
}

/// Comparison relations used in resilience conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rel {
    /// `lhs >= rhs`
    Ge,
    /// `lhs > rhs`
    Gt,
    /// `lhs <= rhs`
    Le,
    /// `lhs < rhs`
    Lt,
    /// `lhs == rhs`
    Eq,
}

impl Rel {
    /// Applies the relation to two evaluated sides.
    pub fn holds(self, lhs: i128, rhs: i128) -> bool {
        match self {
            Rel::Ge => lhs >= rhs,
            Rel::Gt => lhs > rhs,
            Rel::Le => lhs <= rhs,
            Rel::Lt => lhs < rhs,
            Rel::Eq => lhs == rhs,
        }
    }

    /// Human-readable symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            Rel::Ge => ">=",
            Rel::Gt => ">",
            Rel::Le => "<=",
            Rel::Lt => "<",
            Rel::Eq => "==",
        }
    }
}

impl fmt::Display for Rel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A linear constraint `lhs ⋈ rhs` over the parameters, used in resilience
/// conditions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LinearConstraint {
    lhs: LinearExpr,
    rel: Rel,
    rhs: LinearExpr,
}

impl LinearConstraint {
    /// Creates a constraint `lhs ⋈ rhs`.
    pub fn new(lhs: LinearExpr, rel: Rel, rhs: LinearExpr) -> Self {
        assert_eq!(
            lhs.num_params(),
            rhs.num_params(),
            "constraint sides built for different parameter counts"
        );
        LinearConstraint { lhs, rel, rhs }
    }

    /// `lhs >= rhs`
    pub fn ge(lhs: LinearExpr, rhs: LinearExpr) -> Self {
        Self::new(lhs, Rel::Ge, rhs)
    }

    /// `lhs > rhs`
    pub fn gt(lhs: LinearExpr, rhs: LinearExpr) -> Self {
        Self::new(lhs, Rel::Gt, rhs)
    }

    /// `lhs <= rhs`
    pub fn le(lhs: LinearExpr, rhs: LinearExpr) -> Self {
        Self::new(lhs, Rel::Le, rhs)
    }

    /// `lhs == rhs`
    pub fn eq(lhs: LinearExpr, rhs: LinearExpr) -> Self {
        Self::new(lhs, Rel::Eq, rhs)
    }

    /// The left-hand side.
    pub fn lhs(&self) -> &LinearExpr {
        &self.lhs
    }

    /// The relation.
    pub fn rel(&self) -> Rel {
        self.rel
    }

    /// The right-hand side.
    pub fn rhs(&self) -> &LinearExpr {
        &self.rhs
    }

    /// Evaluates the constraint at the given parameter values.
    pub fn holds(&self, values: &[u64]) -> bool {
        self.rel.holds(self.lhs.eval(values), self.rhs.eval(values))
    }

    /// Renders the constraint with the given parameter names.
    pub fn display_with(&self, names: &[String]) -> String {
        format!(
            "{} {} {}",
            self.lhs.display_with(names),
            self.rel,
            self.rhs.display_with(names)
        )
    }
}

impl fmt::Display for LinearConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.rel, self.rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ParamId {
        ParamId(i)
    }

    #[test]
    fn constant_expr_evaluates_to_constant() {
        let e = LinearExpr::constant(3, 7);
        assert_eq!(e.eval(&[10, 20, 30]), 7);
        assert_eq!(e.num_params(), 3);
    }

    #[test]
    fn term_and_param_expressions() {
        let e = LinearExpr::term(2, p(1), 3);
        assert_eq!(e.eval(&[5, 4]), 12);
        let e = LinearExpr::param(2, p(0));
        assert_eq!(e.eval(&[5, 4]), 5);
    }

    #[test]
    fn arithmetic_combinators() {
        let n = LinearExpr::param(3, p(0));
        let t = LinearExpr::param(3, p(1));
        let f = LinearExpr::param(3, p(2));
        // n - t - f + 1
        let e = n.sub(&t).sub(&f).plus_const(1);
        assert_eq!(e.eval(&[7, 1, 1]), 6);
        // 2 * (t + 1)
        let e2 = t.plus_const(1).scale(2);
        assert_eq!(e2.eval(&[7, 3, 0]), 8);
        let sum = e.add(&e2);
        assert_eq!(sum.eval(&[7, 1, 1]), 6 + 4);
    }

    #[test]
    #[should_panic(expected = "parameter index out of range")]
    fn term_rejects_out_of_range_parameter() {
        let _ = LinearExpr::term(1, p(3), 1);
    }

    #[test]
    fn relations_hold_as_expected() {
        assert!(Rel::Ge.holds(3, 3));
        assert!(!Rel::Gt.holds(3, 3));
        assert!(Rel::Lt.holds(2, 3));
        assert!(Rel::Le.holds(3, 3));
        assert!(Rel::Eq.holds(3, 3));
    }

    #[test]
    fn constraint_evaluation() {
        // n > 3t
        let n = LinearExpr::param(2, p(0));
        let t3 = LinearExpr::term(2, p(1), 3);
        let c = LinearConstraint::gt(n, t3);
        assert!(c.holds(&[4, 1]));
        assert!(!c.holds(&[3, 1]));
    }

    #[test]
    fn display_uses_parameter_names() {
        let names = vec!["n".to_string(), "t".to_string()];
        let e = LinearExpr::param(2, p(0))
            .sub(&LinearExpr::term(2, p(1), 2))
            .plus_const(1);
        assert_eq!(e.display_with(&names), "n - 2*t + 1");
        let c = LinearConstraint::ge(e, LinearExpr::constant(2, 0));
        assert_eq!(c.display_with(&names), "n - 2*t + 1 >= 0");
    }

    #[test]
    fn display_of_zero_expression_is_nonempty() {
        let e = LinearExpr::constant(2, 0);
        assert_eq!(format!("{e}"), "0");
    }
}
