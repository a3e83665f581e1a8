//! Benchmark harness for the evaluation tables of the paper.
//!
//! * `cargo run --release -p ccbench --bin table2` — Table II (8 protocols ×
//!   {Agreement, Validity, A.-s. Termination}: automaton sizes, schema
//!   counts, checking times, the MMR14 counterexample).
//! * `cargo run --release -p ccbench --bin table3` — Table III (the property
//!   catalogue per protocol).
//! * `cargo run --release -p ccbench --bin table4` — Table IV (maximum
//!   schema counts vs. number of milestones).
//! * `cargo bench -p ccbench` — Criterion micro-benchmarks of the
//!   per-property checking cost, the schema enumeration and the simulator.

use cccore::prelude::*;

/// The verifier configuration used by the table binaries and benches: one
/// Byzantine valuation per protocol, so the full benchmark completes within
/// minutes on a laptop.
pub fn bench_config() -> VerifierConfig {
    VerifierConfig::quick()
}

/// Parses the value of a CLI flag as a positive integer, exiting with the
/// conventional usage-error status when it is missing or malformed.
/// Shared by the `table2` / `profile_engine` flag loops.
pub fn parse_positive_flag(flag: &str, args: &mut dyn Iterator<Item = String>) -> usize {
    args.next()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            eprintln!("{flag} expects a positive integer");
            std::process::exit(2);
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_is_small() {
        assert!(bench_config().max_processes <= 4);
    }
}
