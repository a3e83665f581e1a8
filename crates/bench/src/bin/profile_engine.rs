//! Per-obligation engine-vs-reference timing, used to locate exploration
//! bottlenecks, plus the whole-catalogue graph-cache amortization.  Not
//! part of the published tables.
//!
//! Usage:
//! `profile_engine [PROTOCOL] [--deadline-ms D] [--max-resident-bytes B]`
//! — every run is on the calling thread.  Each per-obligation row checks
//! its obligation on a fresh checker, so the engine side pays one group
//! build plus one analysis pass; the whole-catalogue row runs the
//! catalogue through one checker, one build per start-restriction group
//! and one batched pass for a group's monitored obligations.
//! `--deadline-ms D` and `--max-resident-bytes B` set the budget of the
//! job-lifecycle section, which runs the catalogue as a `CheckJob` and
//! reports its outcome: completed, or stopped (with the reason, the
//! obligations answered and the states and transitions built) and then
//! continued to completion by a fresh, unbudgeted job over the owed
//! obligations.

use ccchecker::reference::reference_check;
use ccchecker::{CheckJob, CheckerOptions, ExplicitChecker, JobBudget, JobOutcome};
use cccore::obligations_for;
use cccore::prelude::*;
use std::time::{Duration, Instant};

fn main() {
    let mut name = String::from("MMR14");
    let mut budget = JobBudget::unlimited();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deadline-ms" => {
                let d = ccbench::parse_positive_flag("--deadline-ms", &mut args);
                budget = budget.with_deadline(Duration::from_millis(d as u64));
            }
            "--max-resident-bytes" => {
                let b = ccbench::parse_positive_flag("--max-resident-bytes", &mut args);
                budget = budget.with_max_resident_bytes(b);
            }
            other if !other.starts_with('-') => name = other.to_string(),
            other => {
                eprintln!(
                    "unknown argument: {other}\n\
                     usage: profile_engine [PROTOCOL] [--deadline-ms D] \
                     [--max-resident-bytes B]"
                );
                std::process::exit(2);
            }
        }
    }
    let protocol = protocol_by_name(&name).expect("protocol");
    let single = protocol.single_round();
    let obligations = obligations_for(&protocol, &single);
    let config = ccbench::bench_config();
    let valuation = config
        .select_valuations(&single)
        .into_iter()
        .next()
        .expect("valuation");
    let sys = cccounter::CounterSystem::new(single, valuation).expect("admissible");
    let options = CheckerOptions::default();
    println!("{name}: per-obligation engine vs reference (3 runs each, best)");
    for (group, specs) in [
        ("agreement", &obligations.agreement),
        ("validity", &obligations.validity),
        ("termination", &obligations.termination),
    ] {
        for spec in specs.iter() {
            let engine = (0..3)
                .map(|_| {
                    let t = Instant::now();
                    let o = ExplicitChecker::with_options(&sys, options).check(spec);
                    (t.elapsed(), o.states_explored, o.transitions_explored)
                })
                .min()
                .unwrap();
            let reference = (0..3)
                .map(|_| {
                    let t = Instant::now();
                    let o = reference_check(&sys, spec, &options);
                    (t.elapsed(), o.states_explored, o.transitions_explored)
                })
                .min()
                .unwrap();
            println!(
                "  {group:<12} {:<14} engine {:>10.3?} ref {:>10.3?} ({:.2}x)  states={} transitions={}",
                spec.name(),
                engine.0,
                reference.0,
                reference.0.as_secs_f64() / engine.0.as_secs_f64(),
                engine.1,
                engine.2,
            );
        }
    }

    // whole-catalogue graph-cache amortization: the full obligation slice
    // through one checker, best of 3
    let all_specs: Vec<ccchecker::Spec> = obligations
        .agreement
        .iter()
        .chain(obligations.validity.iter())
        .chain(obligations.termination.iter())
        .cloned()
        .collect();
    println!("\nwhole-catalogue ({} obligations):", all_specs.len());
    let mut cache_stats = ccchecker::GraphCacheStats::default();
    let cached = (0..3)
        .map(|_| {
            let t = Instant::now();
            let checker = ExplicitChecker::with_options(&sys, options);
            let (_, s) = checker.check_all_with_stats(&all_specs);
            cache_stats = s;
            t.elapsed()
        })
        .min()
        .unwrap();
    println!("  graph cache:   {cached:>10.3?}");
    println!("  {cache_stats}");
    // a batched monitored pass is one pass, and the obligations it
    // answered besides the one that ran it are memo hits
    for g in &cache_stats.groups {
        println!(
            "    group {:<18} {} obligation(s) on {} states / {} transitions \
             ({} pass(es), a batched one counted once; {} memo hit(s), {} KiB resident)",
            g.start,
            g.specs,
            g.states,
            g.transitions,
            g.memo_misses,
            g.memo_hits,
            g.resident_bytes / 1024,
        );
    }

    // job lifecycle: the same catalogue as a job under the requested
    // budget, continued the way `ccserve` continues a parked cell if the
    // budget stops it (completed / stopped / continued)
    println!(
        "\njob lifecycle ({}):",
        if budget.is_unlimited() {
            "unlimited budget"
        } else {
            "budget from --deadline-ms / --max-resident-bytes"
        }
    );
    let t = Instant::now();
    match CheckJob::new(&sys, &all_specs, options)
        .with_budget(budget)
        .run()
    {
        JobOutcome::Completed { outcomes, .. } => {
            println!(
                "  completed:      {} obligation(s) in {:.3?}",
                outcomes.len(),
                t.elapsed()
            );
        }
        JobOutcome::Stopped {
            reason,
            answered,
            stats,
        } => {
            let owed: Vec<ccchecker::Spec> = all_specs
                .iter()
                .zip(&answered)
                .filter(|(_, outcome)| outcome.is_none())
                .map(|(spec, _)| spec.clone())
                .collect();
            println!(
                "  stopped:        {reason} after {}/{} obligation(s), \
                 {} states / {} transitions",
                all_specs.len() - owed.len(),
                all_specs.len(),
                stats.cached_states(),
                stats.cached_transitions(),
            );
            let t = Instant::now();
            let (outcomes, _) = CheckJob::new(&sys, &owed, options)
                .run()
                .completed()
                .expect("an unbudgeted job with its own token completes");
            println!(
                "  continued:      completed the {} owed obligation(s) in {:.3?}",
                outcomes.len(),
                t.elapsed()
            );
        }
    }

    // full-grid incremental sweep: cross-valuation lineage amortization and
    // the resident memory each surviving graph keeps alive per valuation
    let grid_config = VerifierConfig {
        max_valuations: 8,
        ..VerifierConfig::default()
    };
    let grid_model = protocol.single_round();
    let valuations = grid_config.select_valuations(&grid_model);
    println!(
        "\nfull-grid sweep ({} valuations), incremental vs fresh (best of 3):",
        valuations.len()
    );
    let mut lineage_stats = ccchecker::GraphCacheStats::default();
    let mut timed = |incremental: bool| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                let (_, s) = ccchecker::check_over_sweep_with_stats(
                    &grid_model,
                    &all_specs,
                    &valuations,
                    options.with_incremental_sweep(incremental),
                    1,
                );
                if incremental {
                    lineage_stats = s;
                }
                t.elapsed()
            })
            .min()
            .unwrap()
    };
    let incremental = timed(true);
    let fresh = timed(false);
    println!("  fresh:         {fresh:>10.3?}");
    println!(
        "  incremental:   {incremental:>10.3?} ({:.2}x)",
        fresh.as_secs_f64() / incremental.as_secs_f64()
    );
    println!("  {lineage_stats}");
    println!(
        "  lineage:       memo {} hit(s) / {} miss(es); {} group(s) pruned in place \
         ({} action(s) cut) vs {} rebuilt",
        lineage_stats.memo_hits(),
        lineage_stats.memo_misses(),
        lineage_stats.pruned_groups(),
        lineage_stats.pruned_actions_total(),
        lineage_stats.rebuilt_groups(),
    );
    for g in &lineage_stats.groups {
        println!(
            "    group {:<18} {:<8} {} obligation(s), {} states, {} seed(s), \
             {} memo hit(s), {} KiB resident",
            g.start,
            g.origin.to_string(),
            g.specs,
            g.states,
            g.seed_frontier,
            g.memo_hits,
            g.resident_bytes / 1024,
        );
    }
}
