//! Small models used by the unit tests of this crate.  The voting model
//! and its small valuation are `cccounter`'s own test model.

use ccta::prelude::*;

pub use cccounter::testutil::{small_params, voting_model};

/// Adds the standard fair-coin automaton (border, initial, toss, publish,
/// round switch) to a builder and returns nothing; the coin publishes its
/// outcome through the given coin variables.
pub fn add_fair_coin(b: &mut SystemBuilder, cc0: VarId, cc1: VarId) {
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
}

/// A deliberately broken model: the exit guard of the waiting location is
/// `v0 >= n`, which only correct processes can raise to at most `n - f`, so
/// processes that wait there block forever.
pub fn blocking_model() -> SystemModel {
    let env = ccta::env::byzantine_common_coin_env(3);
    let k = env.num_params();
    let n = env.param_id("n").unwrap();
    let mut b = SystemBuilder::new("checker-blocking", env);
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
    b.rule("bcast1", i1, e1, Guard::top(), Update::increment(v1));
    // unsatisfiable for correct processes alone: v0 can reach at most n - f
    b.rule(
        "impossible",
        s,
        e0,
        Guard::ge(v0, LinearExpr::param(k, n)),
        Update::none(),
    );
    b.round_switch(e0, j0);
    b.round_switch(e1, j1);

    add_fair_coin(&mut b, cc0, cc1);
    b.build().expect("blocking fixture must validate")
}

/// A model that blocks on both sides of a guard step.  Processes broadcast
/// into `S`, whose exit to `E0` needs `v0 + v1 >= n - t + 1`, and whose dead
/// end `Bad` opens at `v0 >= n - t + 1`.  Under
/// `byzantine_common_coin_env(2)` (4 modelled processes at `n = 5,
/// f = 1`), `[5,1,1,1]` strands every process in `S`, and `[5,2,1,1]` lets
/// the exit fire but opens `Bad`.  A step between the two moves both
/// guards the same way, so a sweep lineage prunes across it one way and
/// extends across it the other.
pub fn stranding_model() -> SystemModel {
    let env = ccta::env::byzantine_common_coin_env(2);
    let k = env.num_params();
    let n = env.param_id("n").unwrap();
    let t = env.param_id("t").unwrap();
    let mut b = SystemBuilder::new("checker-stranding", env);
    let v0 = b.shared_var("v0");
    let v1 = b.shared_var("v1");
    let cc0 = b.coin_var("cc0");
    let cc1 = b.coin_var("cc1");

    let j0 = b.process_location("J0", LocClass::Border, Some(BinValue::Zero));
    let j1 = b.process_location("J1", LocClass::Border, Some(BinValue::One));
    let i0 = b.process_location("I0", LocClass::Initial, Some(BinValue::Zero));
    let i1 = b.process_location("I1", LocClass::Initial, Some(BinValue::One));
    let s = b.process_location("S", LocClass::Intermediate, None);
    let bad = b.process_location("Bad", LocClass::Intermediate, None);
    let e0 = b.process_location("E0", LocClass::Final, Some(BinValue::Zero));

    b.start_rule(j0, i0);
    b.start_rule(j1, i1);
    b.rule("bcast0", i0, s, Guard::top(), Update::increment(v0));
    b.rule("bcast1", i1, s, Guard::top(), Update::increment(v1));
    let quorum = LinearExpr::param(k, n)
        .sub(&LinearExpr::param(k, t))
        .add(&LinearExpr::constant(k, 1));
    b.rule(
        "exit",
        s,
        e0,
        Guard::sum_ge(&[v0, v1], quorum.clone()),
        Update::none(),
    );
    b.rule("stray", s, bad, Guard::ge(v0, quorum), Update::none());
    b.round_switch(e0, j0);

    add_fair_coin(&mut b, cc0, cc1);
    b.build().expect("stranding fixture must validate")
}

/// One process automaton beside a coin of `branches` equally likely
/// branches: every branch but the last lands in `H0` and the last in `H1`,
/// so a path into `H1` takes branch index `branches - 1`.  With the widest
/// coin a cached arc holds (256 branches) it pins that the last branch
/// index survives the arc; one branch more is rejected.
pub fn wide_coin_model(branches: u64) -> SystemModel {
    let env = ccta::env::byzantine_common_coin_env(3);
    let mut b = SystemBuilder::new("checker-wide-coin", env);
    let cc0 = b.coin_var("cc0");
    let cc1 = b.coin_var("cc1");

    let j0 = b.process_location("J0", LocClass::Border, Some(BinValue::Zero));
    let i0 = b.process_location("I0", LocClass::Initial, Some(BinValue::Zero));
    let e0 = b.process_location("E0", LocClass::Final, Some(BinValue::Zero));
    b.start_rule(j0, i0);
    b.rule("decide", i0, e0, Guard::top(), Update::none());
    b.round_switch(e0, j0);

    let jc = b.coin_location("JC", LocClass::Border, None);
    let ic = b.coin_location("IC", LocClass::Initial, None);
    let h0 = b.coin_location("H0", LocClass::Intermediate, None);
    let h1 = b.coin_location("H1", LocClass::Intermediate, None);
    let c0 = b.coin_location("C0", LocClass::Final, Some(BinValue::Zero));
    let c1 = b.coin_location("C1", LocClass::Final, Some(BinValue::One));
    b.start_rule(jc, ic);
    let toss = (0..branches)
        .map(|i| {
            let to = if i + 1 == branches { h1 } else { h0 };
            (to, Probability::new(1, branches))
        })
        .collect();
    b.coin_toss("toss", ic, toss, Guard::top(), Update::none());
    b.rule("publish0", h0, c0, Guard::top(), Update::increment(cc0));
    b.rule("publish1", h1, c1, Guard::top(), Update::increment(cc1));
    b.round_switch(c0, jc);
    b.round_switch(c1, jc);
    b.build().expect("wide-coin fixture must validate")
}

/// A process automaton with an optional detour: from `I0` a process
/// decides at once or passes `A` first, so one configuration is reached
/// both along a path that occupied `A` and along one that did not, and a
/// monitored pass tracking `A` finds more product states than the graph
/// has configurations.  `Z` is never occupied: its guard needs a second
/// coin publication.
pub fn detour_model() -> SystemModel {
    let env = ccta::env::byzantine_common_coin_env(3);
    let k = env.num_params();
    let mut b = SystemBuilder::new("checker-detour", env);
    let cc0 = b.coin_var("cc0");
    let cc1 = b.coin_var("cc1");

    let j0 = b.process_location("J0", LocClass::Border, Some(BinValue::Zero));
    let i0 = b.process_location("I0", LocClass::Initial, Some(BinValue::Zero));
    let a = b.process_location("A", LocClass::Intermediate, None);
    let z = b.process_location("Z", LocClass::Intermediate, None);
    let e0 = b.process_location("E0", LocClass::Final, Some(BinValue::Zero));
    b.start_rule(j0, i0);
    b.rule("decide", i0, e0, Guard::top(), Update::none());
    b.rule("detour", i0, a, Guard::top(), Update::none());
    b.rule("rejoin", a, e0, Guard::top(), Update::none());
    b.rule(
        "never",
        a,
        z,
        Guard::ge(cc0, LinearExpr::constant(k, 2)),
        Update::none(),
    );
    b.rule("leave", z, e0, Guard::top(), Update::none());
    b.round_switch(e0, j0);

    add_fair_coin(&mut b, cc0, cc1);
    b.build().expect("detour fixture must validate")
}

/// The benchmark valuation of a single-round model: the smallest admissible
/// valuation (parameter values up to 8) with two or three modelled
/// processes and at most one coin, using the same Byzantine-first
/// preference key as `cccore::VerifierConfig::select_valuations` (which
/// lives a layer above this crate and applies its own configured bounds).
/// Used by the `engine_equivalence` suite to pin the engine against the
/// reference on these state spaces.
pub fn benchmark_valuation(model: &SystemModel) -> ParamValuation {
    let env = model.env();
    let f_id = env.param_id("f");
    env.admissible_valuations(8)
        .into_iter()
        .filter(|v| {
            env.system_size(v)
                .is_some_and(|s| s.processes >= 2 && s.processes <= 3 && s.coins <= 1)
        })
        .min_by_key(|v| {
            let byz = f_id.map(|f| v.value(f) >= 1).unwrap_or(false);
            let procs = env.system_size(v).map(|s| s.processes).unwrap_or(u64::MAX);
            (std::cmp::Reverse(byz as u8), procs, v.values().to_vec())
        })
        .expect("admissible benchmark valuation")
}
