//! The one-communication-step category-(B) protocols: CC85(a), CC85(b) and
//! FMR05.
//!
//! All three follow the same per-round skeleton (broadcast the estimate, wait
//! for `n - t` messages, decide if the dominant value agrees with the common
//! coin, otherwise keep the dominant value or adopt the coin); they differ in
//! their resilience condition and in the "dominant value" threshold:
//!
//! * **CC85(a)** — Chor & Coan (1985), optimal resilience `n > 3t`, dominant
//!   value = strict majority of `n + t` (more than `(n+t)/2` messages).
//! * **CC85(b)** — Chor & Coan's adaptation of Rabin83, `n > 6t`, dominant
//!   value supported by at least `n - 2t` messages.
//! * **FMR05** — Friedman, Mostéfaoui & Raynal (2005), `n > 5t`, one
//!   communication step per round, dominant value supported by more than
//!   `(n + 3t)/2` messages.

use crate::common::{install_common_coin, Thresholds};
use crate::ProtocolModel;
use ccta::env::byzantine_common_coin_env;
use ccta::prelude::*;
use ccta::ProtocolCategory;

/// How the "dominant value" guard of a one-step protocol is formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DominantThreshold {
    /// `2·v > n + t` (strict majority counting Byzantine padding).
    StrictMajority,
    /// `v >= n - 2t`.
    NMinus2T,
    /// `2·v > n + 3t`.
    ThreeQuarter,
}

impl DominantThreshold {
    fn guard(self, th: &Thresholds, var: VarId) -> Guard {
        match self {
            DominantThreshold::StrictMajority => {
                Guard::ge_scaled(2, var, th.strong_majority_scaled())
            }
            DominantThreshold::NMinus2T => Guard::ge(var, th.n_minus_2t_minus_f()),
            DominantThreshold::ThreeQuarter => {
                // 2·v >= n + 3t + 1 - 2f
                Guard::ge_scaled(2, var, th.combo(1, 3, -2, 1))
            }
        }
    }
}

/// Builds a one-step category-(B) model.
fn one_step_protocol(
    name: &str,
    resilience_factor: i64,
    dominant: DominantThreshold,
    description: &str,
) -> ProtocolModel {
    let env = byzantine_common_coin_env(resilience_factor);
    let th = Thresholds::new(&env);
    let mut b = SystemBuilder::new(name, env);
    let v0 = b.shared_var("v0");
    let v1 = b.shared_var("v1");
    let coin = install_common_coin(&mut b);

    let j0 = b.process_location("J0", LocClass::Border, Some(BinValue::Zero));
    let j1 = b.process_location("J1", LocClass::Border, Some(BinValue::One));
    let i0 = b.process_location("I0", LocClass::Initial, Some(BinValue::Zero));
    let i1 = b.process_location("I1", LocClass::Initial, Some(BinValue::One));
    let s = b.process_location("S", LocClass::Intermediate, None);
    let m0 = b.process_location("M0", LocClass::Intermediate, Some(BinValue::Zero));
    let m1 = b.process_location("M1", LocClass::Intermediate, Some(BinValue::One));
    let mbot = b.process_location("Mbot", LocClass::Intermediate, None);
    let e0 = b.process_location("E0", LocClass::Final, Some(BinValue::Zero));
    let e1 = b.process_location("E1", LocClass::Final, Some(BinValue::One));
    let d0 = b.decision_location("D0", BinValue::Zero);
    let d1 = b.decision_location("D1", BinValue::One);

    b.start_rule(j0, i0);
    b.start_rule(j1, i1);
    b.rule("bcast0", i0, s, Guard::top(), Update::increment(v0));
    b.rule("bcast1", i1, s, Guard::top(), Update::increment(v1));
    // the dominant value is fixed
    b.rule("dom0", s, m0, dominant.guard(&th, v0), Update::none());
    b.rule("dom1", s, m1, dominant.guard(&th, v1), Update::none());
    // both values genuinely supported: no dominant value, adopt the coin
    b.rule(
        "mixed",
        s,
        mbot,
        Guard::ge(v0, th.t_plus_1_minus_f()).and_ge(v1, th.t_plus_1_minus_f()),
        Update::none(),
    );
    // coin agrees with the dominant value: decide it
    b.rule(
        "decide0",
        m0,
        d0,
        Guard::ge(coin.cc0, th.constant(1)),
        Update::none(),
    );
    b.rule(
        "decide1",
        m1,
        d1,
        Guard::ge(coin.cc1, th.constant(1)),
        Update::none(),
    );
    // coin disagrees: keep the dominant value as the next estimate
    b.rule(
        "keep0",
        m0,
        e0,
        Guard::ge(coin.cc1, th.constant(1)),
        Update::none(),
    );
    b.rule(
        "keep1",
        m1,
        e1,
        Guard::ge(coin.cc0, th.constant(1)),
        Update::none(),
    );
    // no dominant value: adopt the coin as the next estimate
    b.rule(
        "adopt0",
        mbot,
        e0,
        Guard::ge(coin.cc0, th.constant(1)),
        Update::none(),
    );
    b.rule(
        "adopt1",
        mbot,
        e1,
        Guard::ge(coin.cc1, th.constant(1)),
        Update::none(),
    );
    b.round_switch(e0, j0);
    b.round_switch(e1, j1);
    b.round_switch(d0, j0);
    b.round_switch(d1, j1);

    let model = b
        .build()
        .expect("one-step category-(B) model must validate");
    ProtocolModel::new(name, ProtocolCategory::B, model, None, description)
}

/// Chor–Coan randomized Byzantine consensus with optimal resilience (`n > 3t`).
pub fn cc85a() -> ProtocolModel {
    one_step_protocol(
        "CC85(a)",
        3,
        DominantThreshold::StrictMajority,
        "Chor & Coan, A simple and efficient randomized Byzantine agreement algorithm (1985); n > 3t",
    )
}

/// Chor–Coan's adaptation of Rabin83 with `t < n/6`.
pub fn cc85b() -> ProtocolModel {
    one_step_protocol(
        "CC85(b)",
        6,
        DominantThreshold::NMinus2T,
        "Chor & Coan's adaptation of Rabin83 (1985); t < n/6",
    )
}

/// Friedman–Mostéfaoui–Raynal oracle-based consensus with one communication
/// step per round and `t < n/5`.
pub fn fmr05() -> ProtocolModel {
    one_step_protocol(
        "FMR05",
        5,
        DominantThreshold::ThreeQuarter,
        "Friedman, Mostéfaoui & Raynal, Simple and efficient oracle-based consensus (2005); t < n/5",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_close_to_table_ii() {
        // Table II: CC85(a) 9/18, CC85(b) 10/17, FMR05 10/16
        for (p, rules) in [(cc85a(), 17), (cc85b(), 17), (fmr05(), 17)] {
            let stats = p.stats();
            assert_eq!(stats.process_locations, 12, "{}", p.name());
            assert_eq!(stats.process_rules, rules, "{}", p.name());
            assert_eq!(p.category(), ProtocolCategory::B);
            assert_eq!(p.model().decision_locations(None).len(), 2);
        }
    }

    #[test]
    fn resilience_conditions_differ() {
        assert!(cc85a()
            .model()
            .env()
            .is_admissible(&ParamValuation::new(vec![4, 1, 1, 1])));
        assert!(!cc85b()
            .model()
            .env()
            .is_admissible(&ParamValuation::new(vec![6, 1, 1, 1])));
        assert!(cc85b()
            .model()
            .env()
            .is_admissible(&ParamValuation::new(vec![7, 1, 1, 1])));
        assert!(!fmr05()
            .model()
            .env()
            .is_admissible(&ParamValuation::new(vec![5, 1, 1, 1])));
        assert!(fmr05()
            .model()
            .env()
            .is_admissible(&ParamValuation::new(vec![6, 1, 1, 1])));
    }

    #[test]
    fn dominant_thresholds_evaluate_correctly() {
        // CC85(a): strict majority of n + t; n=4, t=1, f=1 -> 2v >= 4, v >= 2
        let p = cc85a();
        let guard = p.model().rule(p.model().rule_id("dom0").unwrap()).guard();
        assert!(guard.holds(&[2, 0, 0, 0], &[4, 1, 1, 1]));
        assert!(!guard.holds(&[1, 0, 0, 0], &[4, 1, 1, 1]));

        // CC85(b): v >= n - 2t - f; n=7, t=1, f=1 -> v >= 4
        let p = cc85b();
        let guard = p.model().rule(p.model().rule_id("dom0").unwrap()).guard();
        assert!(guard.holds(&[4, 0, 0, 0], &[7, 1, 1, 1]));
        assert!(!guard.holds(&[3, 0, 0, 0], &[7, 1, 1, 1]));

        // FMR05: 2v >= n + 3t + 1 - 2f; n=6, t=1, f=1 -> 2v >= 8, v >= 4
        let p = fmr05();
        let guard = p.model().rule(p.model().rule_id("dom0").unwrap()).guard();
        assert!(guard.holds(&[4, 0, 0, 0], &[6, 1, 1, 1]));
        assert!(!guard.holds(&[3, 0, 0, 0], &[6, 1, 1, 1]));
    }

    #[test]
    fn decide_rules_are_coin_based() {
        let p = cc85a();
        let m = p.model();
        let decide0 = m.rule(m.rule_id("decide0").unwrap());
        assert_eq!(decide0.guard().kind(m.vars()), GuardKind::Coin);
        let dom0 = m.rule(m.rule_id("dom0").unwrap());
        assert_ne!(dom0.guard().kind(m.vars()), GuardKind::Coin);
    }
}
