//! Seeded generation of well-formed threshold-automata protocol families.
//!
//! The eight Table II protocols pin the engine on *known* shapes; this
//! module turns generation into a first-class workload: a [`FamilyParams`]
//! point describes a family (intra-round phase depth, locations per phase,
//! branch fan-out, guard density, shared/coin variable counts, the
//! crash-vs-Byzantine fault model and the resilience factor), and
//! [`FamilyParams::instantiate`] deterministically expands a `(params,
//! seed)` pair into a validated multi-round system model, its single-round
//! form, admissible valuations (plus a guard-adjacent sweep grid where one
//! exists) and a catalogue of proof obligations over the generated
//! locations.
//!
//! # Seeding contract
//!
//! Generation is a pure function of `(params, seed)`: the parameter point is
//! folded into the RNG seed, every random draw comes from one `StdRng`
//! stream, and identical inputs produce byte-identical models, valuations
//! and obligation catalogues across runs and platforms (the in-tree `rand`
//! shim is fully deterministic).
//!
//! # Shape of a generated family
//!
//! Every family is a common-coin consensus skeleton: border locations
//! `J0`/`J1`, initial locations `I0`/`I1`, a DAG of intermediate locations
//! `S<phase>_<slot>` (`phases × width` of them; rules only ever target a
//! *later* phase or a final location, so the intra-round graph is acyclic
//! and canonical), final locations `E0`/`E1`, and the standard fair-coin
//! automaton publishing through the coin variables.  Threshold guards draw
//! from small constants, the environment's quorum expression (`n - t - f`
//! under Byzantine faults, `n - t` under crash-stop faults) and coin
//! observations; a post-pass guarantees every threshold-guarded shared
//! variable has at least one increment site, so all guard bounds are
//! attainable under the declared resilience condition.
//!
//! # Obligations
//!
//! The obligation catalogue covers every query shape of the checker
//! (safety from unanimous starts, cover/forbid pairs, the probabilistic
//! avoid-one-of condition and non-blocking termination) over seeded tracked
//! sets.  Obligations are expressed in checker-neutral terms — location
//! *names* and start-restriction descriptors — so this crate stays
//! independent of `ccchecker`; the checker's `Spec::from_family`
//! constructors resolve them against the model.
//!
//! # Compatibility seed mode
//!
//! [`differential_family`] / [`differential_obligations`] freeze the exact
//! RNG schedule of the historical private generator of the
//! `random_differential` suite, so its ~100-seed corpus (and every verdict,
//! state count and counterexample schedule pinned on it) is reproduced
//! bit-identically through this module.

use ccta::env::{byzantine_common_coin_env, crash_stop_common_coin_env};
use ccta::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// The fault model of a generated family, selecting the environment and the
/// quorum expression its threshold guards wait for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultModel {
    /// Byzantine faults: `N(p) = (n - f, 1)` modelled correct processes,
    /// quorum guards wait for `n - t - f` messages.
    Byzantine,
    /// Crash-stop faults: all `n` processes are modelled (a crashed process
    /// simply stops, which asynchrony already covers), quorum guards wait
    /// for `n - t` messages.
    Crash,
    /// Per-seed mix: each instantiated family draws Byzantine or crash-stop
    /// from its seed.
    Mixed,
}

impl fmt::Display for FaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultModel::Byzantine => "byz",
            FaultModel::Crash => "crash",
            FaultModel::Mixed => "mixed",
        })
    }
}

/// A point in the protocol-family parameter space.
///
/// All fields are clamped to sane bounds at instantiation time (at least
/// one phase/slot/rule/shared variable, at least two coin variables — the
/// fair coin publishes one per binary value — and a resilience factor of at
/// least 2), so any parameter combination generates a valid family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyParams {
    /// Number of intermediate phases (message-exchange stages) per round.
    pub phases: usize,
    /// Intermediate locations per phase.
    pub width: usize,
    /// Maximum outgoing progress rules per process location (each source
    /// draws 1..=fanout rules).
    pub fanout: usize,
    /// Probability, in percent (0–100), that a progress rule carries a
    /// threshold guard instead of `true`.
    pub guard_density: u8,
    /// Number of shared message-counter variables.
    pub shared_vars: usize,
    /// Number of coin variables (the fair-coin automaton publishes through
    /// all of them, alternating between its two outcomes).
    pub coin_vars: usize,
    /// The fault model (see [`FaultModel`]).
    pub faults: FaultModel,
    /// Resilience factor `a` in the condition `n > a*t`.
    pub resilience: i64,
}

impl Default for FamilyParams {
    fn default() -> Self {
        FamilyParams {
            phases: 2,
            width: 2,
            fanout: 2,
            guard_density: 60,
            shared_vars: 2,
            coin_vars: 2,
            faults: FaultModel::Byzantine,
            resilience: 2,
        }
    }
}

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
}

impl FamilyParams {
    /// The parameter point with every field clamped to its supported range.
    pub fn clamped(&self) -> FamilyParams {
        FamilyParams {
            phases: self.phases.clamp(1, 4),
            width: self.width.clamp(1, 4),
            fanout: self.fanout.clamp(1, 4),
            guard_density: self.guard_density.min(100),
            shared_vars: self.shared_vars.clamp(1, 4),
            coin_vars: self.coin_vars.clamp(2, 4),
            faults: self.faults,
            resilience: self.resilience.max(2),
        }
    }

    /// A stable 64-bit fingerprint of the (clamped) parameter point, folded
    /// into the RNG seed so distinct points generate distinct families from
    /// the same seed.
    pub fn fingerprint(&self) -> u64 {
        let p = self.clamped();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        h = fnv(h, p.phases as u64);
        h = fnv(h, p.width as u64);
        h = fnv(h, p.fanout as u64);
        h = fnv(h, p.guard_density as u64);
        h = fnv(h, p.shared_vars as u64);
        h = fnv(h, p.coin_vars as u64);
        h = fnv(
            h,
            match p.faults {
                FaultModel::Byzantine => 1,
                FaultModel::Crash => 2,
                FaultModel::Mixed => 3,
            },
        );
        fnv(h, p.resilience as u64)
    }

    /// Deterministically expands this parameter point and a seed into a
    /// generated family.
    ///
    /// # Panics
    ///
    /// Panics if the generated model fails validation or the derived
    /// valuation is inadmissible — both would be generator bugs, and the
    /// panic message carries the seed needed to reproduce them.
    pub fn instantiate(&self, seed: u64) -> GeneratedFamily {
        let p = self.clamped();
        let mut rng = StdRng::seed_from_u64(seed ^ p.fingerprint());
        let faults = match p.faults {
            FaultModel::Mixed => {
                if rng.gen_bool(0.5) {
                    FaultModel::Byzantine
                } else {
                    FaultModel::Crash
                }
            }
            other => other,
        };
        let a = p.resilience;
        let env = match faults {
            FaultModel::Byzantine => byzantine_common_coin_env(a),
            _ => crash_stop_common_coin_env(a),
        };
        let k = env.num_params();
        let n = env.param_id("n").unwrap();
        let t = env.param_id("t").unwrap();
        let f = env.param_id("f").unwrap();
        let quorum = match faults {
            FaultModel::Byzantine => LinearExpr::param(k, n)
                .sub(&LinearExpr::param(k, t))
                .sub(&LinearExpr::param(k, f)),
            _ => LinearExpr::param(k, n).sub(&LinearExpr::param(k, t)),
        };

        let name = format!("family-{faults}-a{a}-p{}x{}-{seed:#x}", p.phases, p.width);
        let mut b = SystemBuilder::new(name, env.clone());
        let shared: Vec<VarId> = (0..p.shared_vars)
            .map(|i| b.shared_var(&format!("v{i}")))
            .collect();
        let coins: Vec<VarId> = (0..p.coin_vars)
            .map(|i| b.coin_var(&format!("cc{i}")))
            .collect();

        let j0 = b.process_location("J0", LocClass::Border, Some(BinValue::Zero));
        let j1 = b.process_location("J1", LocClass::Border, Some(BinValue::One));
        let i0 = b.process_location("I0", LocClass::Initial, Some(BinValue::Zero));
        let i1 = b.process_location("I1", LocClass::Initial, Some(BinValue::One));
        let mut mids: Vec<(usize, LocId)> = Vec::new();
        let mut mid_names: Vec<String> = Vec::new();
        for phase in 0..p.phases {
            for slot in 0..p.width {
                let name = format!("S{phase}_{slot}");
                let loc = b.process_location(&name, LocClass::Intermediate, None);
                mids.push((phase, loc));
                mid_names.push(name);
            }
        }
        let e0 = b.process_location("E0", LocClass::Final, Some(BinValue::Zero));
        let e1 = b.process_location("E1", LocClass::Final, Some(BinValue::One));
        b.start_rule(j0, i0);
        b.start_rule(j1, i1);

        // Progress rules are drafted first so the satisfiability post-pass
        // can retarget updates before anything is frozen into the builder.
        struct Draft {
            from: LocId,
            to: LocId,
            guard: Guard,
            update: Update,
        }
        let mut drafts: Vec<Draft> = Vec::new();
        let draw_rules = |rng: &mut StdRng,
                          drafts: &mut Vec<Draft>,
                          from: LocId,
                          min_phase: usize| {
            let mut targets: Vec<LocId> = mids
                .iter()
                .filter(|(phase, _)| *phase >= min_phase)
                .map(|(_, loc)| *loc)
                .collect();
            targets.push(e0);
            targets.push(e1);
            for _ in 0..rng.gen_range(1..=p.fanout) {
                let to = targets[rng.gen_range(0..targets.len())];
                let guard = if rng.gen_range(0..100u32) < p.guard_density as u32 {
                    match rng.gen_range(0..5u32) {
                        0 | 1 => Guard::ge(
                            shared[rng.gen_range(0..shared.len())],
                            LinearExpr::constant(k, rng.gen_range(1..=2u64) as i64),
                        ),
                        2 | 3 => Guard::ge(shared[rng.gen_range(0..shared.len())], quorum.clone()),
                        _ => Guard::ge(
                            coins[rng.gen_range(0..coins.len())],
                            LinearExpr::constant(k, 1),
                        ),
                    }
                } else {
                    Guard::top()
                };
                let update = if rng.gen_bool(0.5) {
                    Update::increment(shared[rng.gen_range(0..shared.len())])
                } else {
                    Update::none()
                };
                drafts.push(Draft {
                    from,
                    to,
                    guard,
                    update,
                });
            }
        };
        draw_rules(&mut rng, &mut drafts, i0, 0);
        draw_rules(&mut rng, &mut drafts, i1, 0);
        for &(phase, loc) in &mids {
            draw_rules(&mut rng, &mut drafts, loc, phase + 1);
        }

        // Satisfiability post-pass: every shared variable appearing in a
        // threshold guard gets at least one increment site, so its bounds
        // (capped at the quorum / small constants) stay attainable by the
        // modelled population.  Deterministic — no further RNG draws.
        for &v in &shared {
            let guarded = drafts
                .iter()
                .any(|d| d.guard.atoms().iter().any(|at| at.vars().any(|x| x == v)));
            let incremented = drafts.iter().any(|d| d.update.increment_of(v) > 0);
            if guarded && !incremented {
                let start = (v.0 * 7) % drafts.len();
                let slot = (0..drafts.len())
                    .map(|i| (start + i) % drafts.len())
                    .find(|&i| drafts[i].update.is_empty());
                match slot {
                    Some(i) => drafts[i].update = Update::increment(v),
                    None => {
                        let i = v.0 % drafts.len();
                        drafts[i].update = drafts[i].update.clone().and_increment(v);
                    }
                }
            }
        }
        for (i, d) in drafts.iter().enumerate() {
            b.rule(
                &format!("r{i}"),
                d.from,
                d.to,
                d.guard.clone(),
                d.update.clone(),
            );
        }
        b.round_switch(e0, j0);
        b.round_switch(e1, j1);

        // the standard fair-coin automaton, publishing through every coin
        // variable (outcome 0 increments the even-indexed ones, outcome 1
        // the odd-indexed ones)
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
        let mut publish0 = Update::increment(coins[0]);
        let mut publish1 = Update::increment(coins[1]);
        for (i, &cv) in coins.iter().enumerate().skip(2) {
            if i % 2 == 0 {
                publish0 = publish0.and_increment(cv);
            } else {
                publish1 = publish1.and_increment(cv);
            }
        }
        b.rule("publish0", h0, c0, Guard::top(), publish0);
        b.rule("publish1", h1, c1, Guard::top(), publish1);
        b.round_switch(c0, jc);
        b.round_switch(c1, jc);

        let model = b
            .build()
            .unwrap_or_else(|e| panic!("family seed {seed}: generated model must validate: {e:?}"));
        let single_round = model
            .single_round()
            .expect("generated models are multi-round");

        // smallest admissible valuation: n = a + 1, t = f = cc = 1
        let valuation = ParamValuation::new(vec![(a + 1) as u64, 1, 1, 1]);
        assert!(
            env.is_admissible(&valuation),
            "family seed {seed}: base valuation must be admissible"
        );
        // the guard-adjacent sweep grid exists where two t values are
        // admissible at one n without growing past a handful of processes:
        // n = 5 for a = 2 walks relax, identical and tighten steps
        let sweep = if a == 2 {
            let lo = ParamValuation::new(vec![5, 1, 1, 1]);
            let hi = ParamValuation::new(vec![5, 2, 1, 1]);
            vec![lo.clone(), hi.clone(), hi, lo]
        } else {
            vec![valuation.clone()]
        };

        let obligations = draw_obligations(&mut rng, &mid_names);
        GeneratedFamily {
            seed,
            params: p,
            faults,
            model,
            single_round,
            valuation,
            sweep,
            mids: mid_names,
            obligations,
        }
    }
}

/// A named set of locations of a generated family, given by location names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilySet {
    /// The set's display name (e.g. `"T0"`).
    pub name: String,
    /// Names of the member locations.
    pub locations: Vec<String>,
}

/// Checker-neutral start restriction of a family obligation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyStart {
    /// All round-start configurations.
    RoundStart,
    /// Round starts in which every process holds the given value.
    Unanimous(BinValue),
    /// The initial configurations of the multi-round system.
    InitialLocations,
}

/// The temporal shape of a family obligation, mirroring the checker's query
/// catalogue in checker-neutral terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FamilyObligationKind {
    /// No location of `forbidden` is ever occupied.
    NeverFrom {
        /// The forbidden location set.
        forbidden: FamilySet,
    },
    /// Once `trigger` is occupied, `forbidden` is never occupied on the
    /// same path.
    CoverNever {
        /// The triggering location set.
        trigger: FamilySet,
        /// The forbidden location set.
        forbidden: FamilySet,
    },
    /// Under every adversary some resolution of the coin avoids at least
    /// one of the sets.
    ExistsAvoidOneOf {
        /// The family of sets, one of which must stay unoccupied.
        forbidden_sets: Vec<FamilySet>,
    },
    /// All fair executions of the single-round system terminate.
    NonBlocking,
}

/// One proof obligation of a generated family, in checker-neutral terms
/// (resolve with `ccchecker`'s `Spec::from_family`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyObligation {
    /// The obligation's name.
    pub name: String,
    /// Which configurations the query starts from.
    pub start: FamilyStart,
    /// The temporal shape and its tracked sets.
    pub kind: FamilyObligationKind,
}

/// A deterministically generated protocol family: the validated models, the
/// valuations to check them at, and the obligation catalogue.
#[derive(Debug, Clone)]
pub struct GeneratedFamily {
    /// The generation seed.
    pub seed: u64,
    /// The (clamped) parameter point the family was generated from.
    pub params: FamilyParams,
    /// The resolved fault model (never [`FaultModel::Mixed`]).
    pub faults: FaultModel,
    /// The multi-round system model.
    pub model: SystemModel,
    /// The single-round form `TA_rd` the checker runs on.
    pub single_round: SystemModel,
    /// The smallest admissible valuation of the family's environment.
    pub valuation: ParamValuation,
    /// A guard-adjacent sweep grid (relax / identical / tighten steps) when
    /// the resilience admits one; otherwise just the base valuation.
    pub sweep: Vec<ParamValuation>,
    /// Names of the intermediate locations, for building tracked sets.
    pub mids: Vec<String>,
    /// The obligation catalogue.
    pub obligations: Vec<FamilyObligation>,
}

/// Draws one tracked set of 1–2 locations over the finals and
/// intermediates.
fn draw_set(rng: &mut StdRng, mids: &[String], tag: usize) -> FamilySet {
    let mut pool: Vec<&str> = vec!["E0", "E1"];
    pool.extend(mids.iter().map(String::as_str));
    let size = rng.gen_range(1..=2usize.min(pool.len()));
    let mut names: Vec<&str> = Vec::new();
    while names.len() < size {
        let pick = pool[rng.gen_range(0..pool.len())];
        if !names.contains(&pick) {
            names.push(pick);
        }
    }
    FamilySet {
        name: format!("T{tag}"),
        locations: names.into_iter().map(String::from).collect(),
    }
}

/// The obligation catalogue over a generated family: one obligation per
/// query shape of the checker, over seeded tracked sets.
fn draw_obligations(rng: &mut StdRng, mids: &[String]) -> Vec<FamilyObligation> {
    let value = if rng.gen_bool(0.5) {
        BinValue::Zero
    } else {
        BinValue::One
    };
    vec![
        FamilyObligation {
            name: "never".into(),
            start: FamilyStart::Unanimous(value),
            kind: FamilyObligationKind::NeverFrom {
                forbidden: draw_set(rng, mids, 0),
            },
        },
        FamilyObligation {
            name: "cover".into(),
            start: FamilyStart::RoundStart,
            kind: FamilyObligationKind::CoverNever {
                trigger: draw_set(rng, mids, 1),
                forbidden: draw_set(rng, mids, 2),
            },
        },
        FamilyObligation {
            name: "avoid".into(),
            start: FamilyStart::RoundStart,
            kind: FamilyObligationKind::ExistsAvoidOneOf {
                forbidden_sets: vec![
                    FamilySet {
                        name: "F0".into(),
                        locations: vec!["E0".into()],
                    },
                    FamilySet {
                        name: "F1".into(),
                        locations: vec!["E1".into()],
                    },
                ],
            },
        },
        FamilyObligation {
            name: "nonblocking".into(),
            start: FamilyStart::RoundStart,
            kind: FamilyObligationKind::NonBlocking,
        },
    ]
}

// ---------------------------------------------------------------------
// Compatibility seed mode
// ---------------------------------------------------------------------

/// The compatibility seed mode: reproduces, draw for draw, the historical
/// private generator of the `random_differential` suite, so its seeded
/// corpus stays bit-identical now that the suite consumes this module.
///
/// The model RNG is seeded with `seed` and the obligation RNG with
/// `seed ^ 0x5EC5`, exactly as the suite always did.
pub fn differential_family(seed: u64) -> GeneratedFamily {
    let mut rng = StdRng::seed_from_u64(seed);
    let resilience = rng.gen_range(2..=3u64) as i64;
    let env = byzantine_common_coin_env(resilience);
    let k = env.num_params();
    let n = env.param_id("n").unwrap();
    let t = env.param_id("t").unwrap();
    let f = env.param_id("f").unwrap();
    let quorum = LinearExpr::param(k, n)
        .sub(&LinearExpr::param(k, t))
        .sub(&LinearExpr::param(k, f));

    let mut b = SystemBuilder::new(format!("random-{seed}"), env);
    let shared: Vec<VarId> = (0..rng.gen_range(1..=2usize))
        .map(|i| b.shared_var(&format!("v{i}")))
        .collect();
    let cc0 = b.coin_var("cc0");
    let cc1 = b.coin_var("cc1");
    let coins = [cc0, cc1];

    let j0 = b.process_location("J0", LocClass::Border, Some(BinValue::Zero));
    let j1 = b.process_location("J1", LocClass::Border, Some(BinValue::One));
    let i0 = b.process_location("I0", LocClass::Initial, Some(BinValue::Zero));
    let i1 = b.process_location("I1", LocClass::Initial, Some(BinValue::One));
    let num_mids = rng.gen_range(1..=3usize);
    let mids: Vec<LocId> = (0..num_mids)
        .map(|i| b.process_location(&format!("S{i}"), LocClass::Intermediate, None))
        .collect();
    let e0 = b.process_location("E0", LocClass::Final, Some(BinValue::Zero));
    let e1 = b.process_location("E1", LocClass::Final, Some(BinValue::One));
    b.start_rule(j0, i0);
    b.start_rule(j1, i1);

    // random acyclic progress rules: a source of rank r only targets mids
    // of rank > r or a final location, so the intra-round graph is a DAG
    let legacy_guard = |rng: &mut StdRng| match rng.gen_range(0..6u32) {
        0 | 1 => Guard::top(),
        2 => Guard::ge(
            shared[rng.gen_range(0..shared.len())],
            LinearExpr::constant(k, rng.gen_range(1..=2u64) as i64),
        ),
        3 => Guard::ge(shared[rng.gen_range(0..shared.len())], quorum.clone()),
        _ => Guard::ge(
            coins[rng.gen_range(0..coins.len())],
            LinearExpr::constant(k, 1),
        ),
    };
    let legacy_update = |rng: &mut StdRng| {
        if rng.gen_bool(0.5) {
            Update::increment(shared[rng.gen_range(0..shared.len())])
        } else {
            Update::none()
        }
    };
    let mut rule_no = 0usize;
    let mut add_random_rules =
        |b: &mut SystemBuilder, from: LocId, rank: usize, rng: &mut StdRng| {
            let mut targets: Vec<LocId> = mids.iter().copied().skip(rank).collect();
            targets.push(e0);
            targets.push(e1);
            for _ in 0..rng.gen_range(1..=2usize) {
                let to = targets[rng.gen_range(0..targets.len())];
                let guard = legacy_guard(rng);
                let update = legacy_update(rng);
                b.rule(&format!("r{rule_no}"), from, to, guard, update);
                rule_no += 1;
            }
        };
    add_random_rules(&mut b, i0, 0, &mut rng);
    add_random_rules(&mut b, i1, 0, &mut rng);
    for (rank, &mid) in mids.iter().enumerate() {
        add_random_rules(&mut b, mid, rank + 1, &mut rng);
    }
    b.round_switch(e0, j0);
    b.round_switch(e1, j1);

    // the standard fair-coin automaton publishing through cc0/cc1
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

    let model = b
        .build()
        .unwrap_or_else(|e| panic!("seed {seed}: generated model must validate: {e:?}"));
    let single_round = model.single_round().unwrap();
    // the smallest admissible valuations of the two environments: 2 or 3
    // modelled correct processes plus the coin
    let valuation = if resilience == 2 {
        ParamValuation::new(vec![3, 1, 1, 1])
    } else {
        ParamValuation::new(vec![4, 1, 1, 1])
    };
    let sweep = if resilience == 2 {
        let lo = ParamValuation::new(vec![5, 1, 1, 1]);
        let hi = ParamValuation::new(vec![5, 2, 1, 1]);
        vec![lo.clone(), hi.clone(), hi, lo]
    } else {
        vec![valuation.clone()]
    };
    let mid_names: Vec<String> = (0..num_mids).map(|i| format!("S{i}")).collect();
    let obligations = differential_obligations(seed, &mid_names);
    GeneratedFamily {
        seed,
        params: FamilyParams {
            phases: num_mids,
            width: 1,
            fanout: 2,
            guard_density: 67,
            shared_vars: shared.len(),
            coin_vars: 2,
            faults: FaultModel::Byzantine,
            resilience,
        },
        faults: FaultModel::Byzantine,
        model,
        single_round,
        valuation,
        sweep,
        mids: mid_names,
        obligations,
    }
}

/// The compatibility obligation catalogue of [`differential_family`],
/// drawn from a fresh RNG seeded with `seed ^ 0x5EC5`.
pub fn differential_obligations(seed: u64, mids: &[String]) -> Vec<FamilyObligation> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC5);
    differential_obligations_with(&mut rng, mids)
}

/// [`differential_obligations`] drawing from a caller-provided RNG, for
/// suites that continue drawing from the same stream afterwards (the
/// stop-and-continue axis derives its state thresholds from it).
pub fn differential_obligations_with(rng: &mut StdRng, mids: &[String]) -> Vec<FamilyObligation> {
    draw_obligations(rng, mids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seeds_are_byte_identical() {
        let params = FamilyParams::default();
        let a = params.instantiate(42);
        let b = params.instantiate(42);
        assert_eq!(format!("{:?}", a.model), format!("{:?}", b.model));
        assert_eq!(a.valuation, b.valuation);
        assert_eq!(a.sweep, b.sweep);
        assert_eq!(a.obligations, b.obligations);
    }

    #[test]
    fn distinct_parameter_points_generate_distinct_families() {
        let dense = FamilyParams {
            guard_density: 100,
            ..FamilyParams::default()
        };
        let sparse = FamilyParams {
            guard_density: 0,
            ..FamilyParams::default()
        };
        let a = dense.instantiate(7);
        let b = sparse.instantiate(7);
        assert_ne!(
            format!("{:?}", a.model.rules()),
            format!("{:?}", b.model.rules())
        );
        // a density-0 family carries no guarded progress rule at all
        assert!(b
            .model
            .rules()
            .iter()
            .filter(|r| r.name().starts_with('r'))
            .all(|r| r.guard().is_true()));
    }

    #[test]
    fn mixed_fault_model_resolves_both_ways() {
        let params = FamilyParams {
            faults: FaultModel::Mixed,
            ..FamilyParams::default()
        };
        let mut seen = std::collections::HashSet::new();
        for seed in 0..16 {
            seen.insert(format!("{}", params.instantiate(seed).faults));
        }
        assert!(seen.contains("byz") && seen.contains("crash"), "{seen:?}");
    }

    #[test]
    fn compat_mode_reproduces_the_legacy_shape() {
        let fam = differential_family(0xD1F_F0000);
        assert!(fam.model.name().starts_with("random-"));
        assert!(!fam.mids.is_empty() && fam.mids.len() <= 3);
        assert_eq!(fam.obligations.len(), 4);
        let names: Vec<&str> = fam.obligations.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, vec!["never", "cover", "avoid", "nonblocking"]);
        // the obligation stream is independent of the model stream
        let again = differential_obligations(0xD1F_F0000, &fam.mids);
        assert_eq!(fam.obligations, again);
    }
}
