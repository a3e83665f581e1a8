//! The pre-engine reference checker (seed semantics), kept for equivalence
//! testing and as the baseline of the `table2_checking` benchmark.
//!
//! This module preserves the original exploration strategy of the checker
//! before the packed-state engine: visited states are keyed by
//! `(Vec<u8> fingerprint, monitor bits)` in a SipHash `std::collections::HashMap`,
//! every stored node carries a full [`Configuration`] clone, and successor
//! generation clones the configuration once per probabilistic branch.  It
//! is deliberately *not* optimised — its only jobs are (a) to give the
//! `engine_equivalence` integration tests an executable specification of
//! the seed semantics (same visit counts, same verdicts), and (b) to serve
//! as the measured "before" of the engine speedup.

use crate::counterexample::Counterexample;
use crate::explicit::CheckerOptions;
use crate::result::CheckOutcome;
use crate::spec::{LocSet, Spec};
use cccounter::{Action, Configuration, CounterSystem, Schedule, ScheduledStep};
use std::collections::HashMap;

struct Node {
    config: Configuration,
    bits: u8,
    parent: Option<(usize, ScheduledStep)>,
}

/// One probabilistic outcome of applying an action.
struct Outcome {
    branch: usize,
    config: Configuration,
}

// ---------------------------------------------------------------------------
// Seed-faithful counter-system operations.
//
// The current `CounterSystem` precompiles rules and evaluates guards against
// borrowed slices, so simply calling its public API would let the "reference"
// silently inherit most of the engine's gains.  These helpers reproduce the
// seed's actual cost profile: a fresh `round_vars` clone per guard
// evaluation with the guard bound re-evaluated against the parameter
// valuation each time, applicability re-validated once per branch through
// `apply`, a `Configuration` clone per branch, and trailing-round trimming
// after every mutation (the seed's `normalize()` ran on every counter
// update).
// ---------------------------------------------------------------------------

fn seed_is_unlocked(
    sys: &CounterSystem,
    cfg: &Configuration,
    rule: ccta::RuleId,
    round: u32,
) -> bool {
    let vars = cfg.round_vars(round);
    sys.model()
        .rule(rule)
        .guard()
        .holds(&vars, sys.params().values())
}

fn seed_is_applicable(sys: &CounterSystem, cfg: &Configuration, action: Action) -> bool {
    let rule = sys.model().rule(action.rule);
    cfg.counter(rule.from(), action.round) >= 1
        && seed_is_unlocked(sys, cfg, action.rule, action.round)
}

fn seed_progress_actions(sys: &CounterSystem, cfg: &Configuration) -> Vec<Action> {
    let model = sys.model();
    let mut out = Vec::new();
    for round in sys.active_rounds(cfg) {
        for rule in model.rule_ids() {
            let action = Action::new(rule, round);
            if seed_is_applicable(sys, cfg, action) {
                out.push(action);
            }
        }
    }
    out.retain(|a| !model.rule(a.rule).is_self_loop());
    out
}

fn seed_apply(
    sys: &CounterSystem,
    cfg: &Configuration,
    action: Action,
    branch: usize,
) -> Configuration {
    assert!(
        seed_is_applicable(sys, cfg, action),
        "seed apply of inapplicable action"
    );
    let model = sys.model();
    let rule = model.rule(action.rule);
    let dest_round = if model.kind() == ccta::ModelKind::MultiRound && rule.is_round_switch() {
        action.round + 1
    } else {
        action.round
    };
    let mut next = cfg.clone();
    next.decrement_counter(rule.from(), action.round);
    next.trim(); // seed normalize() ran after every mutation
    next.add_counter(rule.branches()[branch].to, dest_round, 1);
    next.trim();
    for &(var, delta) in rule.update().increments() {
        next.add_var(var, action.round, delta);
        next.trim();
    }
    next
}

fn seed_outcomes(sys: &CounterSystem, cfg: &Configuration, action: Action) -> Vec<Outcome> {
    let rule = sys.model().rule(action.rule);
    let mut out = Vec::with_capacity(rule.branches().len());
    for (i, b) in rule.branches().iter().enumerate() {
        if b.prob.is_zero() {
            continue;
        }
        out.push(Outcome {
            branch: i,
            config: seed_apply(sys, cfg, action, i),
        });
    }
    out
}

fn occupancy_bits(sets: &[LocSet], cfg: &Configuration) -> u8 {
    let mut bits = 0u8;
    for (i, set) in sets.iter().enumerate() {
        if set.is_occupied(cfg) {
            bits |= 1 << i;
        }
    }
    bits
}

fn path_to(nodes: &[Node], target: usize) -> (Configuration, Schedule) {
    let mut steps = Vec::new();
    let mut current = target;
    while let Some((parent, step)) = nodes[current].parent {
        steps.push(step);
        current = parent;
    }
    steps.reverse();
    (nodes[current].config.clone(), Schedule::from_steps(steps))
}

/// Checks one query with the reference engine.  Mirrors
/// [`crate::ExplicitChecker::check`] for the universal queries and the
/// non-blocking side condition; the game queries (`ExistsAvoidOneOf`) also
/// run their forward exploration with reference bookkeeping.
pub fn reference_check(sys: &CounterSystem, spec: &Spec, options: &CheckerOptions) -> CheckOutcome {
    match spec {
        Spec::CoverNever {
            name,
            start,
            trigger,
            forbidden,
        } => check_monitored(
            sys,
            name,
            &start.configurations(sys),
            &[trigger.clone(), forbidden.clone()],
            0b11,
            format!(
                "a path occupies both {} and {}",
                trigger.name(),
                forbidden.name()
            ),
            options,
        ),
        Spec::NeverFrom {
            name,
            start,
            forbidden,
        } => check_monitored(
            sys,
            name,
            &start.configurations(sys),
            std::slice::from_ref(forbidden),
            0b1,
            format!("a path occupies {}", forbidden.name()),
            options,
        ),
        Spec::ExistsAvoidOneOf {
            name,
            start,
            forbidden_sets,
        } => check_exists_avoid(
            sys,
            name,
            &start.configurations(sys),
            forbidden_sets,
            options,
        ),
        Spec::NonBlocking { name, start } => {
            check_non_blocking(sys, name, &start.configurations(sys), options)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_monitored(
    sys: &CounterSystem,
    spec_name: &str,
    starts: &[Configuration],
    sets: &[LocSet],
    violation_bits: u8,
    explanation: String,
    options: &CheckerOptions,
) -> CheckOutcome {
    let mut index: HashMap<(Vec<u8>, u8), usize> = HashMap::new();
    let mut nodes: Vec<Node> = Vec::new();
    let mut queue: Vec<usize> = Vec::new();
    let mut transitions = 0usize;

    let violation = |nodes: &[Node], violating: usize, transitions: usize| -> CheckOutcome {
        let (initial, schedule) = path_to(nodes, violating);
        CheckOutcome::violated(
            nodes.len(),
            transitions,
            Counterexample {
                spec: spec_name.to_string(),
                params: sys.params().clone(),
                initial,
                schedule,
                explanation: explanation.clone(),
            },
        )
    };

    for cfg in starts {
        let bits = occupancy_bits(sets, cfg);
        let key = (cfg.fingerprint_bytes(), bits);
        if index.contains_key(&key) {
            continue;
        }
        let id = nodes.len();
        index.insert(key, id);
        nodes.push(Node {
            config: cfg.clone(),
            bits,
            parent: None,
        });
        queue.push(id);
        if bits & violation_bits == violation_bits {
            return violation(&nodes, id, transitions);
        }
    }

    let mut head = 0usize;
    while head < queue.len() {
        let current = queue[head];
        head += 1;
        let cfg = nodes[current].config.clone();
        let bits = nodes[current].bits;
        for action in seed_progress_actions(sys, &cfg) {
            let outcomes = seed_outcomes(sys, &cfg, action);
            for outcome in outcomes {
                transitions += 1;
                if transitions > options.max_transitions {
                    return CheckOutcome::unknown(
                        nodes.len(),
                        transitions,
                        "transition bound exhausted",
                    );
                }
                let new_bits = bits | occupancy_bits(sets, &outcome.config);
                let key = (outcome.config.fingerprint_bytes(), new_bits);
                if index.contains_key(&key) {
                    continue;
                }
                let id = nodes.len();
                if id >= options.max_states {
                    return CheckOutcome::unknown(
                        nodes.len(),
                        transitions,
                        "state bound exhausted",
                    );
                }
                index.insert(key, id);
                nodes.push(Node {
                    config: outcome.config,
                    bits: new_bits,
                    parent: Some((current, ScheduledStep::with_branch(action, outcome.branch))),
                });
                queue.push(id);
                if new_bits & violation_bits == violation_bits {
                    return violation(&nodes, id, transitions);
                }
            }
        }
    }
    CheckOutcome::holds(nodes.len(), transitions)
}

fn check_non_blocking(
    sys: &CounterSystem,
    spec_name: &str,
    starts: &[Configuration],
    options: &CheckerOptions,
) -> CheckOutcome {
    // structural acyclicity is engine-independent; the reference only
    // reproduces the reachability part, so reuse the engine checker for the
    // cycle test by requiring callers to compare verdicts on acyclic models.
    let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut nodes: Vec<Node> = Vec::new();
    let mut queue: Vec<usize> = Vec::new();
    let mut transitions = 0usize;
    for cfg in starts {
        let key = cfg.fingerprint_bytes();
        if index.contains_key(&key) {
            continue;
        }
        let id = nodes.len();
        index.insert(key, id);
        nodes.push(Node {
            config: cfg.clone(),
            bits: 0,
            parent: None,
        });
        queue.push(id);
    }
    let model = sys.model();
    let mut head = 0usize;
    while head < queue.len() {
        let current = queue[head];
        head += 1;
        let cfg = nodes[current].config.clone();
        let actions = seed_progress_actions(sys, &cfg);
        if actions.is_empty() {
            let blocked = model.loc_ids().find(|&l| {
                cfg.counter(l, 0) > 0 && model.location(l).class() != ccta::LocClass::BorderCopy
            });
            if let Some(loc) = blocked {
                let (initial, schedule) = path_to(&nodes, current);
                let ce = Counterexample {
                    spec: spec_name.to_string(),
                    params: sys.params().clone(),
                    initial,
                    schedule,
                    explanation: format!(
                        "a fair execution blocks with an automaton stuck in {}",
                        model.location(loc).name()
                    ),
                };
                return CheckOutcome::violated(nodes.len(), transitions, ce);
            }
            continue;
        }
        for action in actions {
            let outcomes = seed_outcomes(sys, &cfg, action);
            for outcome in outcomes {
                transitions += 1;
                if transitions > options.max_transitions {
                    return CheckOutcome::unknown(
                        nodes.len(),
                        transitions,
                        "transition bound exhausted",
                    );
                }
                let key = outcome.config.fingerprint_bytes();
                if index.contains_key(&key) {
                    continue;
                }
                let id = nodes.len();
                if id >= options.max_states {
                    return CheckOutcome::unknown(
                        nodes.len(),
                        transitions,
                        "state bound exhausted",
                    );
                }
                index.insert(key, id);
                nodes.push(Node {
                    config: outcome.config,
                    bits: 0,
                    parent: Some((current, ScheduledStep::with_branch(action, outcome.branch))),
                });
                queue.push(id);
            }
        }
    }
    CheckOutcome::holds(nodes.len(), transitions)
}

struct GameNode {
    config: Configuration,
    bits: u8,
    actions: Vec<Vec<(ScheduledStep, usize)>>,
}

fn check_exists_avoid(
    sys: &CounterSystem,
    spec_name: &str,
    starts: &[Configuration],
    sets: &[LocSet],
    options: &CheckerOptions,
) -> CheckOutcome {
    assert!(
        !sets.is_empty() && sets.len() <= 8,
        "between 1 and 8 tracked location sets are supported"
    );
    let all_bits: u8 = ((1u16 << sets.len()) - 1) as u8;

    let mut index: HashMap<(Vec<u8>, u8), usize> = HashMap::new();
    let mut nodes: Vec<GameNode> = Vec::new();
    let mut start_ids = Vec::new();
    let mut transitions = 0usize;

    let mut queue: Vec<usize> = Vec::new();
    for cfg in starts {
        let bits = occupancy_bits(sets, cfg);
        let key = (cfg.fingerprint_bytes(), bits);
        let id = *index.entry(key).or_insert_with(|| {
            nodes.push(GameNode {
                config: cfg.clone(),
                bits,
                actions: Vec::new(),
            });
            queue.push(nodes.len() - 1);
            nodes.len() - 1
        });
        start_ids.push(id);
    }

    let mut head = 0usize;
    while head < queue.len() {
        let current = queue[head];
        head += 1;
        let cfg = nodes[current].config.clone();
        let bits = nodes[current].bits;
        if bits == all_bits {
            continue;
        }
        let mut action_edges = Vec::new();
        for action in seed_progress_actions(sys, &cfg) {
            let outcomes = seed_outcomes(sys, &cfg, action);
            let mut edges = Vec::with_capacity(outcomes.len());
            for outcome in outcomes {
                transitions += 1;
                if transitions > options.max_transitions {
                    return CheckOutcome::unknown(
                        nodes.len(),
                        transitions,
                        "transition bound exhausted",
                    );
                }
                let new_bits = bits | occupancy_bits(sets, &outcome.config);
                let key = (outcome.config.fingerprint_bytes(), new_bits);
                let id = match index.get(&key) {
                    Some(&id) => id,
                    None => {
                        if nodes.len() >= options.max_states {
                            return CheckOutcome::unknown(
                                nodes.len(),
                                transitions,
                                "state bound exhausted",
                            );
                        }
                        nodes.push(GameNode {
                            config: outcome.config.clone(),
                            bits: new_bits,
                            actions: Vec::new(),
                        });
                        index.insert(key, nodes.len() - 1);
                        queue.push(nodes.len() - 1);
                        nodes.len() - 1
                    }
                };
                edges.push((ScheduledStep::with_branch(action, outcome.branch), id));
            }
            action_edges.push(edges);
        }
        nodes[current].actions = action_edges;
    }

    let mut winning: Vec<bool> = nodes.iter().map(|n| n.bits == all_bits).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..nodes.len() {
            if winning[i] {
                continue;
            }
            let can_force = nodes[i]
                .actions
                .iter()
                .any(|edges| !edges.is_empty() && edges.iter().all(|&(_, succ)| winning[succ]));
            if can_force {
                winning[i] = true;
                changed = true;
            }
        }
    }

    match start_ids.iter().find(|&&s| winning[s]) {
        None => CheckOutcome::holds(nodes.len(), transitions),
        Some(&bad_start) => {
            let mut steps = Vec::new();
            let mut current = bad_start;
            let mut guard = 0usize;
            while nodes[current].bits != all_bits && guard < nodes.len() + 1 {
                guard += 1;
                let Some(edges) = nodes[current]
                    .actions
                    .iter()
                    .find(|edges| !edges.is_empty() && edges.iter().all(|&(_, s)| winning[s]))
                else {
                    break;
                };
                let (step, succ) = edges[0];
                steps.push(step);
                current = succ;
            }
            let ce = Counterexample {
                spec: spec_name.to_string(),
                params: sys.params().clone(),
                initial: nodes[bad_start].config.clone(),
                schedule: Schedule::from_steps(steps),
                explanation: format!(
                    "an adversary can force every coin resolution to occupy all of: {}",
                    sets.iter()
                        .map(|s| s.name().to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            };
            CheckOutcome::violated(nodes.len(), transitions, ce)
        }
    }
}
