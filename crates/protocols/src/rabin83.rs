//! Rabin's randomized Byzantine consensus (Rabin83), category (A).
//!
//! Rabin's protocol \[2\] tolerates `t < n/10` Byzantine processes and uses a
//! dealer-provided common coin.  Following the paper's benchmark it is
//! modelled as a category-(A) protocol: the decide step is not part of the
//! automaton, only the per-round estimate update is, and almost-sure
//! termination is the property that all correct processes eventually share
//! the same estimate.
//!
//! Per round, every correct process broadcasts its estimate, waits for `n-t`
//! messages, keeps the value if it saw a strong majority (more than
//! `(n+t)/2` messages of that value) and otherwise adopts the common coin.

use crate::common::{install_common_coin, Thresholds};
use crate::ProtocolModel;
use ccta::env::byzantine_common_coin_env;
use ccta::prelude::*;
use ccta::ProtocolCategory;

/// Builds the Rabin83 model.
pub fn rabin83() -> ProtocolModel {
    let env = byzantine_common_coin_env(10);
    let th = Thresholds::new(&env);
    let mut b = SystemBuilder::new("Rabin83", env);
    let v0 = b.shared_var("v0");
    let v1 = b.shared_var("v1");
    let coin = install_common_coin(&mut b);

    let j0 = b.process_location("J0", LocClass::Border, Some(BinValue::Zero));
    let j1 = b.process_location("J1", LocClass::Border, Some(BinValue::One));
    let i0 = b.process_location("I0", LocClass::Initial, Some(BinValue::Zero));
    let i1 = b.process_location("I1", LocClass::Initial, Some(BinValue::One));
    let s = b.process_location("S", LocClass::Intermediate, None);
    let mbot = b.process_location("Mbot", LocClass::Intermediate, None);
    let e0 = b.process_location("E0", LocClass::Final, Some(BinValue::Zero));
    let e1 = b.process_location("E1", LocClass::Final, Some(BinValue::One));

    b.start_rule(j0, i0);
    b.start_rule(j1, i1);
    // broadcast the current estimate
    b.rule("bcast0", i0, s, Guard::top(), Update::increment(v0));
    b.rule("bcast1", i1, s, Guard::top(), Update::increment(v1));
    // strong majority seen: keep the value
    b.rule(
        "keep0",
        s,
        e0,
        Guard::ge_scaled(2, v0, th.strong_majority_scaled()),
        Update::none(),
    );
    b.rule(
        "keep1",
        s,
        e1,
        Guard::ge_scaled(2, v1, th.strong_majority_scaled()),
        Update::none(),
    );
    // both values genuinely present among the received messages: the process
    // may have seen no strong majority and falls back to the coin
    b.rule(
        "mixed",
        s,
        mbot,
        Guard::ge(v0, th.t_plus_1_minus_f()).and_ge(v1, th.t_plus_1_minus_f()),
        Update::none(),
    );
    b.rule(
        "adopt_coin0",
        mbot,
        e0,
        Guard::ge(coin.cc0, th.constant(1)),
        Update::none(),
    );
    b.rule(
        "adopt_coin1",
        mbot,
        e1,
        Guard::ge(coin.cc1, th.constant(1)),
        Update::none(),
    );
    b.round_switch(e0, j0);
    b.round_switch(e1, j1);

    let model = b.build().expect("Rabin83 model must validate");
    ProtocolModel::new(
        "Rabin83",
        ProtocolCategory::A,
        model,
        None,
        "Rabin, Randomized Byzantine generals (FOCS 1983); dealer common coin, t < n/10",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_is_close_to_table_ii() {
        let p = rabin83();
        let stats = p.stats();
        // Table II reports |L| = 7, |R| = 17 for the authors' encoding; the
        // reconstruction differs slightly because the coin fallback is gated
        // by an explicit mixed-support location.
        assert_eq!(stats.process_locations, 8);
        assert_eq!(stats.process_rules, 11);
        assert_eq!(p.category(), ProtocolCategory::A);
        assert!(p.crusader().is_none());
    }

    #[test]
    fn resilience_requires_n_greater_than_10t() {
        let p = rabin83();
        let env = p.model().env();
        assert!(env.is_admissible(&ParamValuation::new(vec![11, 1, 1, 1])));
        assert!(!env.is_admissible(&ParamValuation::new(vec![10, 1, 1, 1])));
        assert!(env.is_admissible(&ParamValuation::new(vec![2, 0, 0, 1])));
    }

    #[test]
    fn no_decision_locations_in_category_a() {
        let p = rabin83();
        assert!(p.model().decision_locations(None).is_empty());
        assert_eq!(p.model().final_locations(Owner::Process, None).len(), 2);
    }

    #[test]
    fn mixed_rule_requires_support_for_both_values() {
        let p = rabin83();
        let m = p.model();
        let mixed = m.rule_id("mixed").unwrap();
        let guard = m.rule(mixed).guard();
        // n=11, t=1, f=1: thresholds t+1-f = 1
        assert!(guard.holds(&[1, 1, 0, 0], &[11, 1, 1, 1]));
        assert!(!guard.holds(&[5, 0, 0, 0], &[11, 1, 1, 1]));
    }
}
