//! Per-obligation engine-vs-reference timing, used to locate exploration
//! bottlenecks, plus state-store occupancy statistics to guide shard-count
//! defaults and the whole-catalogue graph-cache amortization.  Not part of
//! the published tables.
//!
//! Usage:
//! `profile_engine [PROTOCOL] [--threads N] [--wave-size W] [--no-graph-cache]
//! [--deadline-ms D] [--max-resident-bytes B]`
//! — `N` sets the in-check worker count of the engine runs (default:
//! `CC_CHECK_THREADS`, then all cores; the reference is always
//! sequential), `W` the parallel wave size (default: `CC_WAVE_SIZE`, then
//! the engine default), and `--no-graph-cache` drops the cached
//! whole-catalogue run from the summary (the per-obligation rows always
//! use the per-spec path).  `--deadline-ms D` and `--max-resident-bytes B`
//! set the budget of the job-lifecycle section, which runs the catalogue
//! as a checkpointable `CheckJob` and reports each job's outcome —
//! completed, budget-tripped (with the trip reason and checkpointed
//! progress) and resumed-to-completion.

use ccchecker::reference::reference_check;
use ccchecker::{CheckJob, CheckerOptions, ExplicitChecker, JobBudget, JobOutcome};
use cccore::obligations_for;
use cccore::prelude::*;
use std::time::{Duration, Instant};

fn main() {
    let mut name = String::from("MMR14");
    let mut workers = 0usize;
    let mut wave_size = 0usize;
    let mut graph_cache = true;
    let mut budget = JobBudget::unlimited();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => workers = ccbench::parse_positive_flag("--threads", &mut args),
            "--wave-size" => wave_size = ccbench::parse_positive_flag("--wave-size", &mut args),
            "--no-graph-cache" => graph_cache = false,
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
                     usage: profile_engine [PROTOCOL] [--threads N] [--wave-size W] \
                     [--no-graph-cache] [--deadline-ms D] [--max-resident-bytes B]"
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
    let options = CheckerOptions::default()
        .with_workers(workers)
        .with_wave_size(wave_size);
    let reference_options = CheckerOptions::sequential();
    println!(
        "{name}: per-obligation engine vs reference (3 runs each, best; \
         engine workers: {}, wave: {})",
        if workers == 0 {
            "auto".into()
        } else {
            workers.to_string()
        },
        if wave_size == 0 {
            "auto".into()
        } else {
            wave_size.to_string()
        }
    );
    for (group, specs) in [
        ("agreement", &obligations.agreement),
        ("validity", &obligations.validity),
        ("termination", &obligations.termination),
    ] {
        for spec in specs.iter() {
            // stats are identical across runs and cost O(index) to collect,
            // so fold them into the timed runs instead of a fourth check
            let mut stats = Default::default();
            let engine = (0..3)
                .map(|_| {
                    let t = Instant::now();
                    let (o, s) =
                        ExplicitChecker::with_options(&sys, options).check_with_stats(spec);
                    stats = s;
                    (t.elapsed(), o.states_explored, o.transitions_explored)
                })
                .min()
                .unwrap();
            let reference = (0..3)
                .map(|_| {
                    let t = Instant::now();
                    let o = reference_check(&sys, spec, &reference_options);
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
            println!("  {:<27} store: {stats}", "");
        }
    }

    // whole-catalogue graph-cache amortization: the full obligation slice
    // through one cached checker vs the per-spec path, best of 3
    let all_specs: Vec<ccchecker::Spec> = obligations
        .agreement
        .iter()
        .chain(obligations.validity.iter())
        .chain(obligations.termination.iter())
        .cloned()
        .collect();
    println!("\nwhole-catalogue ({} obligations):", all_specs.len());
    let uncached = (0..3)
        .map(|_| {
            let t = Instant::now();
            let checker = ExplicitChecker::with_options(&sys, options.with_graph_cache(false));
            let _ = checker.check_all(&all_specs);
            t.elapsed()
        })
        .min()
        .unwrap();
    println!("  per-spec path: {uncached:>10.3?}");
    if graph_cache {
        let mut cache_stats = ccchecker::GraphCacheStats::default();
        let cached = (0..3)
            .map(|_| {
                let t = Instant::now();
                let checker = ExplicitChecker::with_options(&sys, options.with_graph_cache(true));
                let (_, s) = checker.check_all_with_stats(&all_specs);
                cache_stats = s;
                t.elapsed()
            })
            .min()
            .unwrap();
        println!(
            "  graph cache:   {cached:>10.3?} ({:.2}x)",
            uncached.as_secs_f64() / cached.as_secs_f64()
        );
        println!("  {cache_stats}");
        for g in &cache_stats.groups {
            println!(
                "    group {:<18} {} obligation(s) on {} states / {} transitions \
                 (1 miss, {} hit(s), {} KiB resident)",
                g.start,
                g.specs,
                g.states,
                g.transitions,
                g.specs - 1,
                g.resident_bytes / 1024,
            );
        }
    } else {
        println!("  graph cache:   disabled (--no-graph-cache)");
    }

    // job lifecycle: the same catalogue as a checkpointable job under the
    // requested budget, reporting the per-job outcome the sweep driver
    // acts on (completed / budget-tripped / resumed)
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
        JobOutcome::BudgetExceeded {
            reason, checkpoint, ..
        } => {
            println!(
                "  budget-tripped: {reason} after {}/{} obligation(s), \
                 {} states / {} transitions{}",
                checkpoint.completed_obligations(),
                checkpoint.total_obligations(),
                checkpoint.states_explored(),
                checkpoint.transitions_explored(),
                if checkpoint.has_build_in_flight() {
                    " (a build is suspended mid-wave)"
                } else {
                    ""
                },
            );
            let t = Instant::now();
            match CheckJob::new(&sys, &all_specs, options).resume(checkpoint) {
                JobOutcome::Completed { outcomes, .. } => println!(
                    "  resumed:        completed all {} obligation(s) in {:.3?}",
                    outcomes.len(),
                    t.elapsed()
                ),
                _ => println!("  resumed:        interrupted again"),
            }
        }
        JobOutcome::Interrupted { .. } => {
            unreachable!("the profile job owns its cancel token")
        }
    }

    // full-grid incremental sweep: cross-valuation lineage amortization and
    // the resident memory each surviving graph keeps alive per valuation
    if graph_cache {
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
            "  levers:        memo {} hit(s) / {} miss(es); {} group(s) pruned in place \
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
}
