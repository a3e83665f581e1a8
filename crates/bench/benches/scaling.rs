//! Worker-count and wave-size scaling of the in-check parallel engine.
//!
//! Runs the full obligation catalogue of the two heaviest Table II
//! workloads (MMR14, ABY22) at 1, 2, 4, … in-check workers, the MMR14
//! catalogue across parallel wave sizes (the O(wave) candidate-buffer
//! bound of the pooled explorer), and a multi-valuation sweep at matching
//! total thread budgets.  Every run produces identical verdicts and state
//! counts (the engine is deterministic at any worker count and wave size —
//! see `ccchecker::explorer`), so the only thing that varies is wall-clock
//! time.
//!
//! This bench is the quick-mode CI scaling job: run with
//! `BENCH_JSON=BENCH_scaling.json cargo bench -p ccbench --bench scaling`
//! on a multi-core runner to capture per-worker-count wall-clock numbers
//! (the dev container used for local verification has a single core, so
//! scaling is measured in CI).

use ccchecker::{check_over_sweep_with_stats, CheckerOptions, ExplicitChecker};
use cccore::obligations_for;
use cccore::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// The single-system obligation-catalogue workload of one protocol.
fn catalogue_workload(name: &str) -> (cccounter::CounterSystem, Vec<ccchecker::Spec>) {
    let protocol = protocol_by_name(name).expect("benchmark protocol");
    let single = protocol.single_round();
    let obligations = obligations_for(&protocol, &single);
    let valuation = ccbench::bench_config()
        .select_valuations(&single)
        .into_iter()
        .next()
        .expect("benchmark valuation");
    let sys = cccounter::CounterSystem::new(single, valuation).expect("admissible");
    let specs: Vec<ccchecker::Spec> = obligations
        .agreement
        .iter()
        .chain(obligations.validity.iter())
        .chain(obligations.termination.iter())
        .cloned()
        .collect();
    (sys, specs)
}

/// Worker counts to measure: 1, 2, 4, … up to (and always including) the
/// available parallelism.
fn worker_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&w| w <= cores)
        .collect();
    if !counts.contains(&cores) {
        counts.push(cores);
    }
    counts
}

fn bench_in_check_worker_scaling(c: &mut Criterion) {
    let counts = worker_counts();
    for name in ["MMR14", "ABY22"] {
        let (sys, specs) = catalogue_workload(name);
        let mut group = c.benchmark_group(format!("workers/{name}"));
        group.sample_size(5);
        for &workers in &counts {
            let options = CheckerOptions::default().with_workers(workers);
            group.bench_with_input(
                BenchmarkId::new("catalogue", workers),
                &(&sys, &specs),
                |b, (sys, specs)| {
                    b.iter(|| {
                        specs
                            .iter()
                            .map(|spec| {
                                ExplicitChecker::with_options(sys, options)
                                    .check(spec)
                                    .states_explored
                            })
                            .sum::<usize>()
                    })
                },
            );
        }
        group.finish();
    }
}

/// Wave-size axis: the same catalogue workload at the widest worker count,
/// sweeping the per-wave frontier bound.  Tiny waves measure the pool
/// round-trip overhead, the unbounded wave reproduces the unchunked
/// per-level buffering this engine replaced.
fn bench_wave_size_scaling(c: &mut Criterion) {
    let workers = *worker_counts().last().expect("at least one worker count");
    let (sys, specs) = catalogue_workload("MMR14");
    let mut group = c.benchmark_group("waves/MMR14");
    group.sample_size(5);
    for (label, wave_size) in [
        ("64", 64),
        ("1024", 1024),
        ("8192", 8192),
        ("unbounded", usize::MAX),
    ] {
        let options = CheckerOptions::default()
            .with_workers(workers)
            .with_wave_size(wave_size);
        group.bench_with_input(
            BenchmarkId::new("catalogue", label),
            &(&sys, &specs),
            |b, (sys, specs)| {
                b.iter(|| {
                    specs
                        .iter()
                        .map(|spec| {
                            ExplicitChecker::with_options(sys, options)
                                .check(spec)
                                .states_explored
                        })
                        .sum::<usize>()
                })
            },
        );
    }
    group.finish();
}

fn bench_sweep_budget_scaling(c: &mut Criterion) {
    // a broader sweep so both levels (grid cells and in-check workers) of
    // the thread budget have work to absorb
    let protocol = protocol_by_name("ABY22").expect("benchmark protocol");
    let single = protocol.single_round();
    let obligations = obligations_for(&protocol, &single);
    let all_specs: Vec<ccchecker::Spec> = obligations
        .agreement
        .iter()
        .chain(obligations.validity.iter())
        .chain(obligations.termination.iter())
        .cloned()
        .collect();
    let valuations = VerifierConfig::thorough().select_valuations(&single);
    let mut group = c.benchmark_group("budget/sweep");
    group.sample_size(5);
    for &threads in &worker_counts() {
        group.bench_with_input(
            BenchmarkId::new("ABY22", threads),
            &(&single, &all_specs, &valuations),
            |b, (single, specs, valuations)| {
                b.iter(|| {
                    check_over_sweep_with_stats(
                        single,
                        specs,
                        valuations,
                        CheckerOptions::default(),
                        threads,
                    )
                });
            },
        );
    }
    group.finish();

    // scaling summary from the recorded measurements (`measurements()` is
    // an extension of the in-tree criterion shim)
    println!("\nwall-clock vs 1 worker (identical verdicts and counts at every width):");
    for prefix in [
        "workers/MMR14/catalogue",
        "workers/ABY22/catalogue",
        "budget/sweep/ABY22",
    ] {
        let base = c
            .measurements()
            .iter()
            .find(|m| m.id == format!("{prefix}/1"))
            .map(|m| m.mean_ns);
        let Some(base) = base else { continue };
        for m in c.measurements() {
            if let Some(w) = m.id.strip_prefix(&format!("{prefix}/")) {
                println!("  {:<32} x{w:<3} {:>6.2}x", prefix, base / m.mean_ns);
            }
        }
    }
}

criterion_group!(
    benches,
    bench_in_check_worker_scaling,
    bench_wave_size_scaling,
    bench_sweep_budget_scaling
);
criterion_main!(benches);
