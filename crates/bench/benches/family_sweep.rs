//! Sweeping *family parameters* (not just valuations) through the
//! incremental sweep engine.
//!
//! Every prior bench runs the eight fixed Table II protocols; this axis
//! generates an out-of-distribution workload with `ccprotocols::family`:
//! six labelled parameter points (shallow/deep phase structures, sparse
//! and saturated guard densities, Byzantine and crash-stop fault models)
//! instantiated at fixed seeds, each swept over its generated
//! guard-adjacent valuation grid with the full obligation catalogue.  For
//! every family point the bench reports wall-clock time *and* how much
//! work the lineage and the verdict memo carry on that workload — cache
//! hit rate, lineage reuse rate, memo hit rate and the overall
//! amortization factor — as scalar metrics next to the timing entries.
//!
//! Run with `BENCH_JSON=$PWD/BENCH_family.json cargo bench -p ccbench
//! --bench family_sweep` from the repository root to capture the
//! per-family-point numbers there (a relative path lands under
//! `crates/bench/`, where cargo runs the bench).

use ccchecker::{check_over_sweep_with_stats, CheckerOptions, Spec};
use ccprotocols::family::{FamilyParams, FaultModel, GeneratedFamily};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// The family parameter points of the bench axis.  All points use
/// resilience 2, whose generated sweep walks a relax step, an identical
/// step and a tighten step — the grid the lineage's extend, prune and
/// reuse steps are built for.
fn family_points() -> Vec<(&'static str, FamilyParams)> {
    let base = FamilyParams::default();
    vec![
        (
            "byz-shallow",
            FamilyParams {
                phases: 1,
                width: 2,
                ..base.clone()
            },
        ),
        (
            "byz-deep",
            FamilyParams {
                phases: 3,
                width: 1,
                ..base.clone()
            },
        ),
        (
            "byz-wide",
            FamilyParams {
                phases: 2,
                width: 3,
                fanout: 3,
                ..base.clone()
            },
        ),
        (
            "byz-dense",
            FamilyParams {
                phases: 2,
                width: 2,
                guard_density: 95,
                ..base.clone()
            },
        ),
        (
            "byz-sparse",
            FamilyParams {
                phases: 2,
                width: 2,
                guard_density: 15,
                ..base.clone()
            },
        ),
        (
            "crash-shallow",
            FamilyParams {
                phases: 1,
                width: 2,
                faults: FaultModel::Crash,
                ..base
            },
        ),
    ]
}

fn workload(params: &FamilyParams, seed: u64) -> (GeneratedFamily, Vec<Spec>) {
    let fam = params.instantiate(seed);
    let specs = Spec::family_catalogue(&fam.single_round, &fam.obligations);
    (fam, specs)
}

fn bench_family_sweep(c: &mut Criterion) {
    let seed = 0xBE7C_0001;
    {
        let mut group = c.benchmark_group("family_sweep");
        group.sample_size(5);
        for (label, params) in family_points() {
            let (fam, specs) = workload(&params, seed);
            group.bench_with_input(
                BenchmarkId::new("incremental", label),
                &(&fam, &specs),
                |b, (fam, specs)| {
                    b.iter(|| {
                        check_over_sweep_with_stats(
                            &fam.single_round,
                            specs,
                            &fam.sweep,
                            CheckerOptions::default().with_incremental_sweep(true),
                            1,
                        )
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new("fresh", label),
                &(&fam, &specs),
                |b, (fam, specs)| {
                    b.iter(|| {
                        check_over_sweep_with_stats(
                            &fam.single_round,
                            specs,
                            &fam.sweep,
                            CheckerOptions::default().with_incremental_sweep(false),
                            1,
                        )
                    })
                },
            );
        }
        group.finish();
    }

    // one instrumented pass per family point for the lineage metrics
    // (`metric()` is an extension of the in-tree criterion shim)
    println!("\nper-family-point lineage effectiveness over the generated grid:");
    for (label, params) in family_points() {
        let (fam, specs) = workload(&params, seed);
        let (_, stats) = check_over_sweep_with_stats(
            &fam.single_round,
            &specs,
            &fam.sweep,
            CheckerOptions::default().with_incremental_sweep(true),
            1,
        );
        c.metric(
            format!("family_sweep/{label}/lineage_reuse_rate"),
            stats.lineage_reuse_rate(),
        );
        c.metric(
            format!("family_sweep/{label}/memo_hit_rate"),
            stats.memo_hit_rate(),
        );
        c.metric(
            format!("family_sweep/{label}/amortization"),
            stats.amortization(),
        );
    }
}

criterion_group!(benches, bench_family_sweep);
criterion_main!(benches);
