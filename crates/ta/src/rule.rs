//! Transition rules of (probabilistic) threshold automata.
//!
//! A rule of the correct-process automaton is `(from, to, φ, u)`; a rule of
//! the common-coin automaton is `(from, δ_to, φ, u)` where `δ_to` is a
//! distribution over destination locations.  We represent both uniformly as
//! a list of probabilistic [`Branch`]es; Dirac rules have a single branch
//! with probability 1.

use crate::guard::Guard;
use crate::location::{LocId, Owner};
use crate::variable::{VarId, Variable};
use std::fmt;

/// Index of a rule inside a [`crate::SystemModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleId(pub usize);

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// An exact rational probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Probability {
    num: u64,
    den: u64,
}

impl Probability {
    /// Probability 1.
    pub const ONE: Probability = Probability { num: 1, den: 1 };
    /// Probability 1/2.
    pub const HALF: Probability = Probability { num: 1, den: 2 };

    /// Creates a probability `num/den`, reduced to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0` or `num > den`.
    pub fn new(num: u64, den: u64) -> Self {
        assert!(den != 0, "probability denominator must be non-zero");
        assert!(num <= den, "probability must not exceed 1");
        let g = gcd(num, den);
        match (num.checked_div(g), den.checked_div(g)) {
            (Some(num), Some(den)) => Probability { num, den },
            _ => Probability { num: 0, den: 1 },
        }
    }

    /// Numerator of the reduced fraction.
    pub fn numerator(&self) -> u64 {
        self.num
    }

    /// Denominator of the reduced fraction.
    pub fn denominator(&self) -> u64 {
        self.den
    }

    /// Whether this is probability 1.
    pub fn is_one(&self) -> bool {
        self.num == self.den
    }

    /// Whether this is probability 0.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Exact sum of probabilities, as a reduced fraction.
    pub fn sum(probs: impl IntoIterator<Item = Probability>) -> Probability {
        let mut acc_num: u128 = 0;
        let mut acc_den: u128 = 1;
        for p in probs {
            // acc_num/acc_den + p.num/p.den
            acc_num = acc_num * p.den as u128 + p.num as u128 * acc_den;
            acc_den *= p.den as u128;
            let g = gcd128(acc_num, acc_den);
            acc_num /= g;
            acc_den /= g;
        }
        Probability::new(acc_num as u64, acc_den as u64)
    }
}

impl fmt::Display for Probability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn gcd128(a: u128, b: u128) -> u128 {
    if b == 0 {
        if a == 0 {
            1
        } else {
            a
        }
    } else {
        gcd128(b, a % b)
    }
}

/// One probabilistic destination of a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Branch {
    /// Destination location.
    pub to: LocId,
    /// Probability of this destination.
    pub prob: Probability,
}

impl Branch {
    /// Creates a branch.
    pub fn new(to: LocId, prob: Probability) -> Self {
        Branch { to, prob }
    }
}

/// The update vector `u` of a rule, stored sparsely as per-variable
/// increments.  Updates can only increment variables (threshold automata
/// never decrease shared variables).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Update {
    increments: Vec<(VarId, u64)>,
}

impl Update {
    /// The empty update (all variables unchanged).
    pub fn none() -> Self {
        Update {
            increments: Vec::new(),
        }
    }

    /// Increment a single variable by one.
    pub fn increment(var: VarId) -> Self {
        Update {
            increments: vec![(var, 1)],
        }
    }

    /// Adds another increment and returns the extended update.
    pub fn and_increment(mut self, var: VarId) -> Self {
        self.increments.push((var, 1));
        self
    }

    /// The sparse increment list.
    pub fn increments(&self) -> &[(VarId, u64)] {
        &self.increments
    }

    /// Whether the update leaves every variable unchanged.
    pub fn is_empty(&self) -> bool {
        self.increments.iter().all(|&(_, k)| k == 0)
    }

    /// The increment applied to a particular variable.
    pub fn increment_of(&self, var: VarId) -> u64 {
        self.increments
            .iter()
            .filter(|&&(v, _)| v == var)
            .map(|&(_, k)| k)
            .sum()
    }

    /// Applies the update in place to a variable valuation.
    pub fn apply(&self, values: &mut [u64]) {
        for &(v, k) in &self.increments {
            values[v.0] += k;
        }
    }

    /// Whether any incremented variable satisfies `pred`.
    pub fn touches(&self, mut pred: impl FnMut(VarId) -> bool) -> bool {
        self.increments.iter().any(|&(v, k)| k > 0 && pred(v))
    }

    /// Renders the update with variable names.
    pub fn display_with(&self, vars: &[Variable]) -> String {
        if self.is_empty() {
            return "-".to_string();
        }
        self.increments
            .iter()
            .filter(|&&(_, k)| k > 0)
            .map(|&(v, k)| {
                let name = vars
                    .get(v.0)
                    .map(|x| x.name().to_string())
                    .unwrap_or_else(|| format!("{v}"));
                if k == 1 {
                    format!("{name}++")
                } else {
                    format!("{name} += {k}")
                }
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// A transition rule of either automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    name: String,
    from: LocId,
    branches: Vec<Branch>,
    guard: Guard,
    update: Update,
    round_switch: bool,
    owner: Owner,
}

impl Rule {
    /// Creates a Dirac rule `(from, to, guard, update)`.
    pub fn dirac(
        name: impl Into<String>,
        from: LocId,
        to: LocId,
        guard: Guard,
        update: Update,
        owner: Owner,
    ) -> Self {
        Rule {
            name: name.into(),
            from,
            branches: vec![Branch::new(to, Probability::ONE)],
            guard,
            update,
            round_switch: false,
            owner,
        }
    }

    /// Creates a probabilistic rule `(from, δ_to, guard, update)`.
    pub fn probabilistic(
        name: impl Into<String>,
        from: LocId,
        branches: Vec<Branch>,
        guard: Guard,
        update: Update,
        owner: Owner,
    ) -> Self {
        Rule {
            name: name.into(),
            from,
            branches,
            guard,
            update,
            round_switch: false,
            owner,
        }
    }

    /// Creates a round-switch rule `(from, to, true, 0)`.
    pub fn round_switch(name: impl Into<String>, from: LocId, to: LocId, owner: Owner) -> Self {
        Rule {
            name: name.into(),
            from,
            branches: vec![Branch::new(to, Probability::ONE)],
            guard: Guard::top(),
            update: Update::none(),
            round_switch: true,
            owner,
        }
    }

    /// Rule name (e.g. `"r21"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Source location.
    pub fn from(&self) -> LocId {
        self.from
    }

    /// The probabilistic branches.  Dirac rules have exactly one branch with
    /// probability 1.
    pub fn branches(&self) -> &[Branch] {
        &self.branches
    }

    /// The guard `φ`.
    pub fn guard(&self) -> &Guard {
        &self.guard
    }

    /// The update vector `u`.
    pub fn update(&self) -> &Update {
        &self.update
    }

    /// Whether this is a round-switch rule (final location → border location
    /// of the next round).
    pub fn is_round_switch(&self) -> bool {
        self.round_switch
    }

    /// Which automaton the rule belongs to.
    pub fn owner(&self) -> Owner {
        self.owner
    }

    /// Whether the rule has a single destination with probability 1.
    pub fn is_dirac(&self) -> bool {
        self.branches.len() == 1 && self.branches[0].prob.is_one()
    }

    /// The destination of a Dirac rule.
    pub fn dirac_to(&self) -> Option<LocId> {
        if self.is_dirac() {
            Some(self.branches[0].to)
        } else {
            None
        }
    }

    /// Whether the rule is a self-loop (every branch returns to the source).
    pub fn is_self_loop(&self) -> bool {
        self.branches.iter().all(|b| b.to == self.from)
    }

    /// Whether the probabilities of all branches sum to exactly 1.
    pub fn probabilities_sum_to_one(&self) -> bool {
        Probability::sum(self.branches.iter().map(|b| b.prob)).is_one()
    }

    /// Internal: replaces the name.
    pub(crate) fn with_name(&self, name: impl Into<String>) -> Rule {
        Rule {
            name: name.into(),
            ..self.clone()
        }
    }

    /// Internal: produces a Dirac copy of this rule pointing to `to`
    /// (used by the Definition-1 de-probabilisation).
    pub(crate) fn dirac_copy_to(&self, name: impl Into<String>, to: LocId) -> Rule {
        Rule {
            name: name.into(),
            from: self.from,
            branches: vec![Branch::new(to, Probability::ONE)],
            guard: self.guard.clone(),
            update: self.update.clone(),
            round_switch: self.round_switch,
            owner: self.owner,
        }
    }

    /// Internal: redirects the (single) destination of a Dirac rule.
    pub(crate) fn redirect_to(&self, to: LocId) -> Rule {
        assert!(self.is_dirac(), "only Dirac rules can be redirected");
        Rule {
            branches: vec![Branch::new(to, Probability::ONE)],
            ..self.clone()
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} -> ", self.name, self.from)?;
        if self.is_dirac() {
            write!(f, "{}", self.branches[0].to)?;
        } else {
            write!(f, "{{")?;
            for (i, b) in self.branches.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}: {}", b.to, b.prob)?;
            }
            write!(f, "}}")?;
        }
        write!(f, " [{}]", self.guard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinearExpr;
    use crate::guard::GuardKind;

    #[test]
    fn probability_reduction_and_accessors() {
        let p = Probability::new(2, 4);
        assert_eq!(p, Probability::HALF);
        assert_eq!(p.numerator(), 1);
        assert_eq!(p.denominator(), 2);
        assert!(Probability::ONE.is_one());
        assert!(Probability::new(0, 3).is_zero());
    }

    #[test]
    fn probability_sum_is_exact() {
        let s = Probability::sum(vec![Probability::HALF, Probability::new(1, 3)]);
        assert_eq!(s, Probability::new(5, 6));
        let one = Probability::sum(vec![Probability::HALF, Probability::HALF]);
        assert!(one.is_one());
        let zero = Probability::sum(std::iter::empty());
        assert!(zero.is_zero());
    }

    #[test]
    #[should_panic(expected = "must not exceed 1")]
    fn probability_rejects_more_than_one() {
        let _ = Probability::new(3, 2);
    }

    #[test]
    fn update_application_and_queries() {
        let u = Update::increment(VarId(0)).and_increment(VarId(2));
        let mut vals = vec![0, 5, 7];
        u.apply(&mut vals);
        assert_eq!(vals, vec![1, 5, 8]);
        assert_eq!(u.increment_of(VarId(0)), 1);
        assert_eq!(u.increment_of(VarId(1)), 0);
        assert!(!u.is_empty());
        assert!(Update::none().is_empty());
        assert!(u.touches(|v| v == VarId(2)));
        assert!(!u.touches(|v| v == VarId(1)));
        let u2 = Update::increment(VarId(1))
            .and_increment(VarId(1))
            .and_increment(VarId(1));
        assert_eq!(u2.increment_of(VarId(1)), 3);
    }

    #[test]
    fn dirac_rule_properties() {
        let r = Rule::dirac(
            "r1",
            LocId(0),
            LocId(1),
            Guard::top(),
            Update::none(),
            Owner::Process,
        );
        assert!(r.is_dirac());
        assert_eq!(r.dirac_to(), Some(LocId(1)));
        assert!(!r.is_round_switch());
        assert!(!r.is_self_loop());
        assert!(r.probabilities_sum_to_one());
        assert_eq!(r.owner(), Owner::Process);
    }

    #[test]
    fn probabilistic_rule_properties() {
        let r = Rule::probabilistic(
            "rb",
            LocId(0),
            vec![
                Branch::new(LocId(1), Probability::HALF),
                Branch::new(LocId(2), Probability::HALF),
            ],
            Guard::top(),
            Update::none(),
            Owner::Coin,
        );
        assert!(!r.is_dirac());
        assert_eq!(r.dirac_to(), None);
        assert!(r.probabilities_sum_to_one());
        let bad = Rule::probabilistic(
            "bad",
            LocId(0),
            vec![Branch::new(LocId(1), Probability::HALF)],
            Guard::top(),
            Update::none(),
            Owner::Coin,
        );
        assert!(!bad.probabilities_sum_to_one());
    }

    #[test]
    fn round_switch_and_self_loop() {
        let rs = Rule::round_switch("s1", LocId(3), LocId(0), Owner::Process);
        assert!(rs.is_round_switch());
        assert!(rs.guard().is_true());
        let sl = Rule::dirac(
            "loop",
            LocId(4),
            LocId(4),
            Guard::top(),
            Update::none(),
            Owner::Process,
        );
        assert!(sl.is_self_loop());
    }

    #[test]
    fn coin_based_detection() {
        let vars = vec![
            Variable::new("a0", crate::variable::VarKind::Shared),
            Variable::new("cc0", crate::variable::VarKind::Coin),
        ];
        let coin_rule = Rule::dirac(
            "r22",
            LocId(0),
            LocId(1),
            Guard::ge(VarId(1), LinearExpr::constant(0, 1)),
            Update::none(),
            Owner::Process,
        );
        assert_eq!(coin_rule.guard().kind(&vars), GuardKind::Coin);
        let shared_rule = Rule::dirac(
            "r3",
            LocId(0),
            LocId(1),
            Guard::ge(VarId(0), LinearExpr::constant(0, 1)),
            Update::none(),
            Owner::Process,
        );
        assert_eq!(shared_rule.guard().kind(&vars), GuardKind::Shared);
    }

    #[test]
    fn display_formats() {
        let r = Rule::dirac(
            "r1",
            LocId(0),
            LocId(1),
            Guard::top(),
            Update::none(),
            Owner::Process,
        );
        assert!(format!("{r}").contains("r1"));
        assert_eq!(format!("{}", Probability::HALF), "1/2");
        assert_eq!(format!("{}", RuleId(7)), "r7");
        let vars = vec![Variable::new("a0", crate::variable::VarKind::Shared)];
        assert_eq!(Update::none().display_with(&vars), "-");
        assert_eq!(Update::increment(VarId(0)).display_with(&vars), "a0++");
    }
}
