//! Criterion benchmark behind Table II: per-property checking cost on
//! representative protocols of each category, plus three engine benchmarks:
//!
//! * `engine/…` vs `reference/…` — the packed-state delta engine against
//!   the pre-refactor clone-per-transition reference on the same query
//!   catalogue, one fresh checker per obligation, so every obligation pays
//!   its group build plus its analysis pass (the summary prints the
//!   speedup ratio per protocol),
//! * `sweep_amortization/incremental/…` vs `sweep_amortization/fresh/…` —
//!   the whole catalogue over each protocol's full 8-valuation grid with
//!   the cross-valuation sweep lineage on vs off (single-threaded; the
//!   summary prints the whole-sweep speedup per protocol on `min_ns`), and
//! * `sweep/scaling/…` — `check_over_sweep_with_stats` at a thread budget
//!   of 1 vs all cores over ABY22's scaled grid (16 valuations of at most 5
//!   processes: 2 lineage runs, so `all-cores` starts up to 2 sweep
//!   workers; parallel scaling).
//!
//! Run with `BENCH_JSON=$PWD/BENCH_table2.json cargo bench -p ccbench
//! --bench table2_checking` from the repository root to also emit the
//! machine-readable summary there (cargo runs a bench from its package
//! directory, so a relative path lands under `crates/bench/`).

use ccchecker::reference::reference_check;
use ccchecker::{
    check_over_sweep_with_stats, sweep_thread_budget, CheckerOptions, ExplicitChecker,
};
use cccore::obligations_for;
use cccore::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_property_checking(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2");
    group.sample_size(10);
    // one representative protocol per category plus the broken protocol
    for name in ["Rabin83", "CC85(a)", "KS16", "MMR14", "ABY22"] {
        let protocol = protocol_by_name(name).expect("benchmark protocol");
        let single = protocol.single_round();
        let obligations = obligations_for(&protocol, &single);
        let config = ccbench::bench_config();
        let valuations = config.select_valuations(&single);
        for (label, specs) in [
            ("agreement", &obligations.agreement),
            ("validity", &obligations.validity),
            ("termination", &obligations.termination),
        ] {
            group.bench_with_input(
                BenchmarkId::new(label, name),
                &(&single, specs, &valuations),
                |b, (single, specs, valuations)| {
                    b.iter(|| {
                        check_over_sweep_with_stats(
                            single,
                            specs,
                            valuations,
                            CheckerOptions::default(),
                            sweep_thread_budget(0),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

/// The prepared single-threaded checking workload of one protocol: the
/// counter system at its benchmark valuation plus the full obligation
/// catalogue.  Construction (model transformation, valuation selection,
/// rule compilation) happens once outside the timed region, so the
/// engine/reference comparison measures checking alone.
fn catalogue_workload(
    protocol: &ProtocolModel,
) -> (cccounter::CounterSystem, Vec<ccchecker::Spec>) {
    let single = protocol.single_round();
    let obligations = obligations_for(protocol, &single);
    let config = ccbench::bench_config();
    let valuation = config
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

fn check_catalogue_with<
    F: Fn(&cccounter::CounterSystem, &ccchecker::Spec) -> ccchecker::CheckOutcome,
>(
    sys: &cccounter::CounterSystem,
    specs: &[ccchecker::Spec],
    check: &F,
) -> usize {
    specs
        .iter()
        .map(|spec| check(sys, spec).states_explored)
        .sum()
}

fn bench_engine_vs_reference(c: &mut Criterion) {
    let names = ["Rabin83", "CC85(a)", "KS16", "MMR14", "ABY22"];
    {
        let mut group = c.benchmark_group("engine");
        group.sample_size(10);
        for name in names {
            let protocol = protocol_by_name(name).expect("benchmark protocol");
            let workload = catalogue_workload(&protocol);
            group.bench_with_input(
                BenchmarkId::new("catalogue", name),
                &workload,
                |b, (sys, specs)| {
                    b.iter(|| {
                        check_catalogue_with(sys, specs, &|sys, spec| {
                            ExplicitChecker::new(sys).check(spec)
                        })
                    })
                },
            );
        }
        group.finish();
    }
    {
        let mut group = c.benchmark_group("reference");
        group.sample_size(10);
        for name in names {
            let protocol = protocol_by_name(name).expect("benchmark protocol");
            let workload = catalogue_workload(&protocol);
            group.bench_with_input(
                BenchmarkId::new("catalogue", name),
                &workload,
                |b, (sys, specs)| {
                    b.iter(|| {
                        check_catalogue_with(sys, specs, &|sys, spec| {
                            reference_check(sys, spec, &CheckerOptions::default())
                        })
                    })
                },
            );
        }
        group.finish();
    }
    // speedup summary from the recorded measurements (`measurements()` is
    // an extension of the in-tree criterion shim; with real criterion this
    // summary would be rebuilt from its saved estimates instead)
    println!("\nengine speedup over the pre-refactor reference (single-threaded):");
    let (mut engine_total, mut reference_total) = (0.0, 0.0);
    for name in names {
        let engine = c
            .measurements()
            .iter()
            .find(|m| m.id == format!("engine/catalogue/{name}"))
            .map(|m| m.mean_ns);
        let reference = c
            .measurements()
            .iter()
            .find(|m| m.id == format!("reference/catalogue/{name}"))
            .map(|m| m.mean_ns);
        if let (Some(e), Some(r)) = (engine, reference) {
            engine_total += e;
            reference_total += r;
            println!("  {name:<10} {:>6.2}x", r / e);
        }
    }
    if engine_total > 0.0 {
        println!(
            "  {:<10} {:>6.2}x (total wall-clock over the five-protocol workload)",
            "overall",
            reference_total / engine_total
        );
    }
}

/// The incremental-sweep amortization axis: the whole obligation catalogue
/// over each protocol's full `VerifierConfig` valuation grid (8 valuations
/// at the default bounds), single-threaded, with the sweep lineage on vs
/// off (the graph cache is on in both — this isolates the *cross-valuation*
/// amortization on top of the within-valuation graph cache).  The
/// summary compares `min_ns` and prints the whole-sweep speedup per
/// protocol.
fn bench_sweep_amortization(c: &mut Criterion) {
    let names = ["Rabin83", "CC85(a)", "KS16", "MMR14", "ABY22"];
    // the full grid: every admissible valuation the default verifier bounds
    // admit (8 per protocol), in select_valuations' guard-adjacent order
    let grid_config = VerifierConfig {
        max_valuations: 8,
        ..VerifierConfig::default()
    };
    let mut group = c.benchmark_group("sweep_amortization");
    group.sample_size(5);
    for name in names {
        let protocol = protocol_by_name(name).expect("benchmark protocol");
        let single = protocol.single_round();
        let obligations = obligations_for(&protocol, &single);
        let all_specs: Vec<ccchecker::Spec> = obligations
            .agreement
            .iter()
            .chain(obligations.validity.iter())
            .chain(obligations.termination.iter())
            .cloned()
            .collect();
        let valuations = grid_config.select_valuations(&single);
        for (label, options) in [
            ("incremental", CheckerOptions::default()),
            (
                "fresh",
                CheckerOptions::default().with_incremental_sweep(false),
            ),
        ] {
            group.bench_with_input(
                BenchmarkId::new(label, name),
                &(&single, &all_specs, &valuations),
                |b, (single, specs, valuations)| {
                    b.iter(|| check_over_sweep_with_stats(single, specs, valuations, options, 1))
                },
            );
        }
    }
    group.finish();
    println!("\nwhole-sweep incremental amortization (single-threaded, full grid, min_ns):");
    let (mut inc_total, mut fresh_total) = (0.0, 0.0);
    for name in names {
        let min_of = |label: &str| {
            c.measurements()
                .iter()
                .find(|m| m.id == format!("sweep_amortization/{label}/{name}"))
                .map(|m| m.min_ns)
        };
        if let (Some(on), Some(off)) = (min_of("incremental"), min_of("fresh")) {
            inc_total += on;
            fresh_total += off;
            println!("  {name:<10} {:>6.2}x", off / on);
        }
    }
    if inc_total > 0.0 {
        println!(
            "  {:<10} {:>6.2}x (total whole-sweep wall-clock, incremental vs fresh)",
            "overall",
            fresh_total / inc_total
        );
    }
}

fn bench_sweep_scaling(c: &mut Criterion) {
    // the scaled grid cuts into 2 lineage runs (one per process count), so
    // a budget above 1 walks them on separate sweep workers
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
    let grid = VerifierConfig {
        max_param_value: 9,
        max_processes: 5,
        max_valuations: 16,
        ..VerifierConfig::default()
    };
    let valuations = grid.select_valuations(&single);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut group = c.benchmark_group("sweep");
    group.sample_size(5);
    for (label, threads) in [("1-thread", 1), ("all-cores", cores)] {
        group.bench_with_input(
            BenchmarkId::new("scaling", label),
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
}

criterion_group!(
    benches,
    bench_property_checking,
    bench_engine_vs_reference,
    bench_sweep_amortization,
    bench_sweep_scaling
);
criterion_main!(benches);
