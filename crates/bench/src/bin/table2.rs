//! Regenerates Table II: verification of the eight common-coin protocols.
//!
//! Usage: `table2 [--threads N] [--no-incremental-sweep] [--deadline-ms D]
//! [--max-resident-bytes B]` —
//! `N` is the thread budget of each protocol's sweep: one sweep worker per
//! thread, at most one per run of the lineage (default: `CC_SWEEP_THREADS`,
//! then all cores); `--no-incremental-sweep` disables the cross-valuation
//! graph lineage so every valuation re-explores its groups, with identical
//! verdicts.
//! `--deadline-ms D` puts a wall-clock deadline on each protocol's sweep
//! and `--max-resident-bytes B` caps each grid cell's state store: tripped
//! cells degrade to `interrupted` outcomes and their properties report `?`
//! instead of a fabricated verdict.

use cccore::prelude::*;

fn main() {
    let mut config = ccbench::bench_config();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                let n = ccbench::parse_positive_flag("--threads", &mut args);
                config = config.with_threads(n);
            }
            "--no-incremental-sweep" => {
                config = config.with_incremental_sweep(false);
            }
            "--deadline-ms" => {
                let d = ccbench::parse_positive_flag("--deadline-ms", &mut args);
                config = config.with_deadline_ms(d as u64);
            }
            "--max-resident-bytes" => {
                let b = ccbench::parse_positive_flag("--max-resident-bytes", &mut args);
                config = config.with_max_resident_bytes(b);
            }
            other => {
                eprintln!(
                    "unknown argument: {other}\n\
                     usage: table2 [--threads N] [--no-incremental-sweep] \
                     [--deadline-ms D] [--max-resident-bytes B]"
                );
                std::process::exit(2);
            }
        }
    }
    let results = verify_all(&config);
    println!("Table II — benchmarks of 8 different common-coin-based protocols");
    println!(
        "(schema counts, and check times summed over each property's grid cells, from this run; \
         'CE' marks a counterexample)\n"
    );
    println!("{}", render_table2(&results));
    for r in &results {
        let vals: Vec<String> = r.valuations.iter().map(|v| v.to_string()).collect();
        println!(
            "{:<10} checked at parameter valuations (n, t, f, cc): {}",
            r.protocol,
            vals.join(", ")
        );
    }
    println!("\nreachability-graph cache per protocol (one combined sweep over the catalogue):");
    for r in &results {
        println!("  {:<10} {}", r.protocol, r.cache_stats());
    }
    if !config.budget.is_unlimited() {
        println!("\nbudget-tripped grid cells per protocol (reported '?', never a verdict):");
        for r in &results {
            let interrupted: usize = [&r.agreement, &r.validity, &r.termination]
                .into_iter()
                .flat_map(|p| p.reports.iter())
                .map(|rep| rep.interrupted_cells())
                .sum();
            println!("  {:<10} {interrupted}", r.protocol);
        }
    }
}
