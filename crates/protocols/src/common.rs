//! Shared building blocks for the benchmark models.

use ccta::prelude::*;

/// The coin variables published by the common-coin automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoinVars {
    /// Set to 1 when the coin lands 0.
    pub cc0: VarId,
    /// Set to 1 when the coin lands 1.
    pub cc1: VarId,
}

/// Declares the coin variables and installs the standard strong-coin
/// automaton of Fig. 4(b): `J2 → I2 → {H0, H1} (½ each) → C0/C1`, publishing
/// the outcome through `cc0` / `cc1`, with round-switch rules back to `J2`.
pub fn install_common_coin(b: &mut SystemBuilder) -> CoinVars {
    let cc0 = b.coin_var("cc0");
    let cc1 = b.coin_var("cc1");
    let j2 = b.coin_location("J2", LocClass::Border, None);
    let i2 = b.coin_location("I2", LocClass::Initial, None);
    let h0 = b.coin_location("H0", LocClass::Intermediate, Some(BinValue::Zero));
    let h1 = b.coin_location("H1", LocClass::Intermediate, Some(BinValue::One));
    let c0 = b.coin_location("C0", LocClass::Final, Some(BinValue::Zero));
    let c1 = b.coin_location("C1", LocClass::Final, Some(BinValue::One));
    b.start_rule(j2, i2);
    b.coin_toss(
        "toss",
        i2,
        vec![(h0, Probability::HALF), (h1, Probability::HALF)],
        Guard::top(),
        Update::none(),
    );
    b.rule("publish0", h0, c0, Guard::top(), Update::increment(cc0));
    b.rule("publish1", h1, c1, Guard::top(), Update::increment(cc1));
    b.round_switch(c0, j2);
    b.round_switch(c1, j2);
    CoinVars { cc0, cc1 }
}

/// Frequently used threshold expressions over the standard Byzantine
/// environment (`n`, `t`, `f`, `cc`).
#[derive(Debug, Clone)]
pub struct Thresholds {
    num_params: usize,
    n: ParamId,
    t: ParamId,
    f: ParamId,
}

impl Thresholds {
    /// Builds the helper for an environment declaring `n`, `t`, `f`.
    ///
    /// # Panics
    ///
    /// Panics if the environment lacks one of the parameters.
    pub fn new(env: &Environment) -> Self {
        Thresholds {
            num_params: env.num_params(),
            n: env.param_id("n").expect("environment must declare n"),
            t: env.param_id("t").expect("environment must declare t"),
            f: env.param_id("f").expect("environment must declare f"),
        }
    }

    fn n_expr(&self) -> LinearExpr {
        LinearExpr::param(self.num_params, self.n)
    }

    fn t_expr(&self) -> LinearExpr {
        LinearExpr::param(self.num_params, self.t)
    }

    fn f_expr(&self) -> LinearExpr {
        LinearExpr::param(self.num_params, self.f)
    }

    /// The constant `c`.
    pub fn constant(&self, c: i64) -> LinearExpr {
        LinearExpr::constant(self.num_params, c)
    }

    /// `t + 1 - f`: the correct-sender threshold of "received `t + 1`
    /// messages".
    pub fn t_plus_1_minus_f(&self) -> LinearExpr {
        self.t_expr().plus_const(1).sub(&self.f_expr())
    }

    /// `2t + 1 - f`: the correct-sender threshold of "received `2t + 1`
    /// messages".
    pub fn two_t_plus_1_minus_f(&self) -> LinearExpr {
        self.t_expr().scale(2).plus_const(1).sub(&self.f_expr())
    }

    /// `n - t - f`: the correct-sender threshold of "received `n - t`
    /// messages".
    pub fn n_minus_t_minus_f(&self) -> LinearExpr {
        self.n_expr().sub(&self.t_expr()).sub(&self.f_expr())
    }

    /// `n - 2t - f`: the correct-sender threshold of "received `n - 2t`
    /// messages".
    pub fn n_minus_2t_minus_f(&self) -> LinearExpr {
        self.n_expr()
            .sub(&self.t_expr().scale(2))
            .sub(&self.f_expr())
    }

    /// `n + t + 1 - 2f`: the correct-sender threshold (scaled by 2) of
    /// "received more than `(n + t)/2` messages", i.e. the guard
    /// `2·x >= n + t + 1 - 2f`.
    pub fn strong_majority_scaled(&self) -> LinearExpr {
        self.n_expr()
            .add(&self.t_expr())
            .plus_const(1)
            .sub(&self.f_expr().scale(2))
    }

    /// `t + 1`: at least `t + 1` *correct* senders (used by the binding
    /// refinement of the fixed protocols).
    pub fn t_plus_1(&self) -> LinearExpr {
        self.t_expr().plus_const(1)
    }

    /// The general combination `n_c·n + t_c·t + f_c·f + c`.
    pub fn combo(&self, n_c: i64, t_c: i64, f_c: i64, c: i64) -> LinearExpr {
        self.n_expr()
            .scale(n_c)
            .add(&self.t_expr().scale(t_c))
            .add(&self.f_expr().scale(f_c))
            .plus_const(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccta::env::byzantine_common_coin_env;

    #[test]
    fn thresholds_evaluate_as_expected() {
        let env = byzantine_common_coin_env(3);
        let th = Thresholds::new(&env);
        // n=7, t=2, f=1
        let p = [7u64, 2, 1, 1];
        assert_eq!(th.t_plus_1_minus_f().eval(&p), 2);
        assert_eq!(th.two_t_plus_1_minus_f().eval(&p), 4);
        assert_eq!(th.n_minus_t_minus_f().eval(&p), 4);
        assert_eq!(th.n_minus_2t_minus_f().eval(&p), 2);
        assert_eq!(th.strong_majority_scaled().eval(&p), 8);
        assert_eq!(th.t_plus_1().eval(&p), 3);
        assert_eq!(th.constant(5).eval(&p), 5);
        // n + 3t + 1 - 2f with n=7, t=2, f=1: 7 + 6 + 1 - 2 = 12
        assert_eq!(th.combo(1, 3, -2, 1).eval(&p), 12);
    }

    #[test]
    fn coin_installation_produces_a_valid_automaton() {
        let env = byzantine_common_coin_env(3);
        let mut b = SystemBuilder::new("coin-only-plus-process", env);
        let coin = install_common_coin(&mut b);
        assert_ne!(coin.cc0, coin.cc1);
        // add a minimal process automaton so the model validates
        let j0 = b.process_location("J0", LocClass::Border, Some(BinValue::Zero));
        let i0 = b.process_location("I0", LocClass::Initial, Some(BinValue::Zero));
        let e0 = b.process_location("E0", LocClass::Final, Some(BinValue::Zero));
        b.start_rule(j0, i0);
        b.rule(
            "adopt0",
            i0,
            e0,
            Guard::ge(coin.cc0, LinearExpr::constant(4, 1)),
            Update::none(),
        );
        b.round_switch(e0, j0);
        let m = b.build().unwrap();
        assert_eq!(m.locations_of(Owner::Coin).len(), 6);
        assert_eq!(m.rules_of(Owner::Coin).len(), 6);
        assert!(m.rules().iter().any(|r| !r.is_dirac()));
    }
}
