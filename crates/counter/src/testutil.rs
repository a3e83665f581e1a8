//! Shared test model used by the unit tests of this crate and, through
//! `ccchecker::fixtures`, by the checker's tests.
//!
//! The model is a small common-coin voting protocol: each correct process
//! broadcasts its value, waits for a quorum of `n - t` messages of a single
//! value, and otherwise adopts the common-coin value.  The coin automaton
//! tosses a fair coin and publishes the outcome through `cc0` / `cc1`.

use ccta::prelude::*;

/// Builds the multi-round test model.
pub fn voting_model() -> SystemModel {
    let env = ccta::env::byzantine_common_coin_env(3);
    let k = env.num_params();
    let n = env.param_id("n").unwrap();
    let t = env.param_id("t").unwrap();
    let f = env.param_id("f").unwrap();
    let mut b = SystemBuilder::new("test-voting", env);
    let v0 = b.shared_var("v0");
    let v1 = b.shared_var("v1");
    let cc0 = b.coin_var("cc0");
    let cc1 = b.coin_var("cc1");

    let j0 = b.process_location("J0", LocClass::Border, Some(BinValue::Zero));
    let j1 = b.process_location("J1", LocClass::Border, Some(BinValue::One));
    let i0 = b.process_location("I0", LocClass::Initial, Some(BinValue::Zero));
    let i1 = b.process_location("I1", LocClass::Initial, Some(BinValue::One));
    let s = b.process_location("S", LocClass::Intermediate, None);
    let e0 = b.process_location("E0", LocClass::Final, Some(BinValue::Zero));
    let e1 = b.process_location("E1", LocClass::Final, Some(BinValue::One));

    b.start_rule(j0, i0);
    b.start_rule(j1, i1);
    b.rule("bcast0", i0, s, Guard::top(), Update::increment(v0));
    b.rule("bcast1", i1, s, Guard::top(), Update::increment(v1));
    let quorum = LinearExpr::param(k, n)
        .sub(&LinearExpr::param(k, t))
        .sub(&LinearExpr::param(k, f));
    b.rule("maj0", s, e0, Guard::ge(v0, quorum.clone()), Update::none());
    b.rule("maj1", s, e1, Guard::ge(v1, quorum), Update::none());
    b.rule(
        "coin0",
        s,
        e0,
        Guard::ge(cc0, LinearExpr::constant(k, 1)),
        Update::none(),
    );
    b.rule(
        "coin1",
        s,
        e1,
        Guard::ge(cc1, LinearExpr::constant(k, 1)),
        Update::none(),
    );
    b.round_switch(e0, j0);
    b.round_switch(e1, j1);

    let jc = b.coin_location("JC", LocClass::Border, None);
    let ic = b.coin_location("IC", LocClass::Initial, None);
    let h0 = b.coin_location("H0", LocClass::Intermediate, None);
    let h1 = b.coin_location("H1", LocClass::Intermediate, None);
    let c0 = b.coin_location("C0", LocClass::Final, Some(BinValue::Zero));
    let c1 = b.coin_location("C1", LocClass::Final, Some(BinValue::One));
    b.start_rule(jc, ic);
    b.coin_toss(
        "toss",
        ic,
        vec![(h0, Probability::HALF), (h1, Probability::HALF)],
        Guard::top(),
        Update::none(),
    );
    b.rule("publish0", h0, c0, Guard::top(), Update::increment(cc0));
    b.rule("publish1", h1, c1, Guard::top(), Update::increment(cc1));
    b.round_switch(c0, jc);
    b.round_switch(c1, jc);

    b.build().expect("test voting model must validate")
}

/// The standard small admissible valuation `n = 4, t = 1, f = 1, cc = 1`.
pub fn small_params() -> ParamValuation {
    ParamValuation::new(vec![4, 1, 1, 1])
}
