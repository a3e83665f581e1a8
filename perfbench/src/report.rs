//! Metric names and the result line.
//!
//! The lists below are the benchmark's contract with `BENCHMARK.json`: an
//! untraced run reports exactly [`END_TO_END`], a traced run exactly
//! [`PER_LAYER`], and a unit test holds both lists equal to the file.

use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run of every workload.  A
/// layer the workload does not exercise reports 0 (see [`Report::idle`]).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ccprotocols.lookup_us", "us"),
    ("ccprotocols.instantiate_us", "us"),
    ("ccta.single_round_us", "us"),
    ("cccore.obligations_us", "us"),
    ("cccore.select_valuations_us", "us"),
    ("cccore.fingerprint_us", "us"),
    ("cccounter.compile_us", "us"),
    ("cccounter.systems", "count"),
    ("ccchecker.check_all_p50_ms", "ms"),
    ("ccchecker.check_all_p99_ms", "ms"),
    ("ccchecker.states", "count"),
    ("ccchecker.transitions", "count"),
    ("ccchecker.states_per_s", "1/s"),
    ("ccchecker.resident_mb", "MB"),
    ("ccchecker.sweep_ms", "ms"),
    ("ccchecker.parallel_speedup", "ratio"),
    ("lineage.reused", "count"),
    ("lineage.extended", "count"),
    ("lineage.pruned", "count"),
    ("lineage.rebuilt", "count"),
    ("lineage.seed_frontier", "count"),
    ("lineage.pruned_actions", "count"),
    ("lineage.memo_hits", "count"),
    ("lineage.memo_misses", "count"),
    ("lineage.memo_hit_rate", "ratio"),
    ("lineage.amortization", "ratio"),
    ("lineage.parked_ratio", "ratio"),
    ("lineage.saving_ms", "ms"),
    ("job.run_p50_ms", "ms"),
    ("job.run_p99_ms", "ms"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.request_bytes", "bytes"),
    ("wire.response_bytes", "bytes"),
    ("transport.ping_rtt_us", "us"),
    ("transport.ping_rtt_loaded_us", "us"),
    ("queue.depth_mean", "count"),
    ("queue.depth_max", "count"),
    ("server.busy_frac", "ratio"),
    ("queue.shed", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_rate", "ratio"),
    ("store.append_p50_us", "us"),
    ("store.append_p99_us", "us"),
    ("store.replay_ms", "ms"),
    ("store.log_bytes", "bytes"),
    ("store.recovered", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("selftime.ccprotocols_ms", "ms"),
    ("selftime.ccta_ms", "ms"),
    ("selftime.cccore_ms", "ms"),
    ("selftime.cccounter_ms", "ms"),
    ("selftime.ccchecker_ms", "ms"),
    ("selftime.job_ms", "ms"),
    ("selftime.wire_ms", "ms"),
    ("selftime.store_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// Whether `name` is a metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone)]
struct Measured {
    value: f64,
    samples: usize,
    note: String,
}

/// The metrics of one run plus its correctness accounting.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, Measured>,
    /// Operations attempted (cells, jobs or requests, by workload).
    pub attempted: u64,
    /// Operations that failed (see the module docs of each workload).
    pub failed: u64,
    /// Correctness-gate violations; any makes the run incorrect.
    pub violations: Vec<String>,
    /// Why the run measured nothing trustworthy (a load generator that fell
    /// behind its schedule), if it did not.  An invalid run is not an
    /// incorrect one: it prints no result and exits with its own code.
    pub invalid: Option<String>,
}

impl Report {
    /// Records `name` (which must appear in [`END_TO_END`] or
    /// [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize, note: impl Into<String>) {
        debug_assert!(unit_of(name).is_some(), "unlisted metric {name}");
        self.metrics.insert(
            name,
            Measured {
                value,
                samples,
                note: note.into(),
            },
        );
    }

    /// Records the tail of a latency distribution (see [`stats::tail`]);
    /// the maximum when there are too few samples for any percentile.
    pub fn tail(&mut self, name: &'static str, samples: &[f64]) {
        let n = samples.len();
        match stats::tail(samples) {
            Some((p, v)) => self.set(name, v, n, format!("p{:.1}", p * 100.0)),
            None => self.set(name, stats::quantile(samples, 1.0).unwrap_or(0.0), n, "max"),
        }
    }

    /// Records a latency distribution as a median and a tail metric.
    pub fn latency(&mut self, samples: &[f64], p50: &'static str, tail: &'static str) {
        let median = stats::median(samples).unwrap_or(0.0);
        self.set(p50, median, samples.len(), "median");
        self.tail(tail, samples);
    }

    /// Records each layer's self time from the tracer, plus the span count.
    pub fn self_times(&mut self, tracer: &Tracer) {
        let own = tracer.self_time_ms();
        for (metric, layer) in [
            ("selftime.ccprotocols_ms", "ccprotocols"),
            ("selftime.ccta_ms", "ccta"),
            ("selftime.cccore_ms", "cccore"),
            ("selftime.cccounter_ms", "cccounter"),
            ("selftime.ccchecker_ms", "ccchecker"),
            ("selftime.job_ms", "job"),
            ("selftime.wire_ms", "wire"),
            ("selftime.store_ms", "store"),
        ] {
            let ms = own.get(layer).copied().unwrap_or(0.0);
            self.set(metric, ms, 1, "summed over the kept spans");
        }
        self.set(
            "trace.spans",
            tracer.len() as f64,
            1,
            "written to spans.jsonl",
        );
    }

    /// Takes over `other`'s metrics, accounting, violations and validity.
    pub fn merge(&mut self, other: Report) {
        self.metrics.extend(other.metrics);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
        self.invalid = self.invalid.take().or(other.invalid);
    }

    /// Records 0 for every metric of `names` not measured yet: the layers
    /// the workload does not exercise.
    pub fn idle(&mut self, names: &[(&'static str, &'static str)]) {
        for (name, _) in names {
            if !self.metrics.contains_key(name) {
                self.set(name, 0.0, 0, "layer idle on this workload");
            }
        }
    }

    /// Records a gate violation.
    pub fn violation(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("perfbench: correctness gate violated: {what}");
        self.violations.push(what);
    }

    /// Prints the human-readable table, then the result line (the last line
    /// of standard output).  Only the metrics of `expected` go into the
    /// result line; a missing one is a violation.
    pub fn print(&mut self, expected: &[(&'static str, &'static str)]) {
        for (name, _) in expected {
            if !self.metrics.contains_key(name) {
                self.violation(format!("metric {name} was not measured"));
            }
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<30} {:>14} {:<6} {:>8}  note",
            "metric", "value", "unit", "samples"
        );
        println!(
            "{:<30} {:>14.6} {:<6} {:>8}  failures over attempts",
            "failed_frac", failed_frac, "ratio", self.attempted
        );
        let mut json = Vec::new();
        for (name, unit) in expected {
            if let Some(m) = self.metrics.get(name) {
                println!(
                    "{:<30} {:>14.6} {:<6} {:>8}  {}",
                    name, m.value, unit, m.samples, m.note
                );
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                json.push(format!(
                    "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
                ));
            }
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.violations.is_empty(),
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
    }
}

/// The unit of a listed metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Peak resident set (`VmHWM`) of this process, in MB; `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `unit` is a unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn name_grammar() {
        for ok in [
            "setup_s",
            "table2-scaled",
            "ccchecker.check_all_p50_ms",
            "0x",
            "a",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/ed",
            "ünï",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn listed_names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(*name), "duplicate {name}");
        }
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn lists_match_benchmark_json() {
        // the file sits at the repository root, one level above the crate
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names_in = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let body = &body[..body.find(']').unwrap()];
            body.split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).unwrap().to_string())
                .collect()
        };
        let listed = |l: &[(&str, &str)]| l.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names_in("end_to_end"), listed(END_TO_END));
        assert_eq!(names_in("per_layer"), listed(PER_LAYER));
    }

    #[test]
    fn result_line_is_the_last_line_and_lists_expected_metrics() {
        let mut r = Report {
            attempted: 4,
            ..Report::default()
        };
        r.set("setup_s", 0.25, 3, "");
        r.print(&END_TO_END[..1]);
        assert!(r.violations.is_empty());
        let mut missing = Report::default();
        missing.print(END_TO_END);
        assert_eq!(missing.violations.len(), END_TO_END.len());
    }
}
