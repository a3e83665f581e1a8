//! Rendering the evaluation tables of the paper.

use crate::obligations::obligations_for;
use crate::verifier::{PropertyResult, ProtocolVerification};
use ccchecker::{max_schema_count, milestones, CheckStatus};
use ccprotocols::ProtocolModel;
use ccta::SystemModel;
use std::fmt::Write as _;

fn property_cell(result: &PropertyResult) -> (String, String) {
    match result.status {
        CheckStatus::Violated => ("-".to_string(), "CE".to_string()),
        CheckStatus::Unknown => ("?".to_string(), "unknown".to_string()),
        CheckStatus::Holds => (
            result.nschemas.to_string(),
            format!("{:.2}", result.time.as_secs_f64()),
        ),
    }
}

/// Renders the benchmark summary in the shape of Table II: per protocol the
/// automaton size and, per property, the schema-count cost metric and the
/// check time summed over its grid cells (or `CE` when a counterexample was
/// found).
pub fn render_table2(results: &[ProtocolVerification]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<4} {:>4} {:>4} | {:>12} {:>8} | {:>12} {:>8} | {:>12} {:>10}",
        "Name",
        "cat",
        "|L|",
        "|R|",
        "agr-schemas",
        "agr-time",
        "val-schemas",
        "val-time",
        "term-schemas",
        "term-time"
    );
    let _ = writeln!(out, "{}", "-".repeat(110));
    for r in results {
        let (agr_s, agr_t) = property_cell(&r.agreement);
        let (val_s, val_t) = property_cell(&r.validity);
        let (term_s, term_t) = property_cell(&r.termination);
        let _ = writeln!(
            out,
            "{:<10} {:<4} {:>4} {:>4} | {:>12} {:>8} | {:>12} {:>8} | {:>12} {:>10}",
            r.protocol,
            r.category.label(),
            r.stats.process_locations,
            r.stats.process_rules,
            agr_s,
            agr_t,
            val_s,
            val_t,
            term_s,
            term_t
        );
    }
    out
}

/// Renders the property catalogue of a protocol in the shape of Table III.
pub fn render_table3(protocol: &ProtocolModel) -> String {
    let single_round = protocol.single_round();
    let obligations = obligations_for(protocol, &single_round);
    let mut out = String::new();
    let _ = writeln!(out, "Properties checked for {}:", protocol.name());
    let _ = writeln!(out, "{:<20} Formula", "Label");
    let _ = writeln!(out, "{}", "-".repeat(100));
    for spec in obligations.all() {
        let _ = writeln!(out, "{:<20} {}", spec.name(), spec.formula(&single_round));
    }
    out
}

/// One row of Table IV: a model variant, its milestone count and the maximum
/// schema count over the checked formulas.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Variant name (e.g. `"ABY22-2"`).
    pub name: String,
    /// Formula label (`"CB0"` or `"Inv2"`).
    pub formula: String,
    /// Number of milestones of the variant.
    pub milestones: usize,
    /// Maximum schema count for the formula on this variant.
    pub max_nschemas: u128,
}

/// Computes the Table IV rows for a family of model variants: for each
/// variant, the milestone count and the maximum schema count of its CB0-shaped
/// and Inv2-shaped obligations.
pub fn table4_rows(variants: &[(SystemModel, ProtocolModel)]) -> Vec<Table4Row> {
    let mut rows = Vec::new();
    for (variant, protocol) in variants {
        let single_round = variant
            .single_round()
            .expect("variants are multi-round models");
        let obligations = obligations_for(protocol, &single_round);
        let m = milestones(&single_round).len();
        for label in ["CB0", "Inv2"] {
            let specs: Vec<_> = obligations
                .all()
                .into_iter()
                .filter(|s| s.name().starts_with(label))
                .cloned()
                .collect();
            let max = if specs.is_empty() {
                0
            } else {
                max_schema_count(&single_round, specs.iter())
            };
            rows.push(Table4Row {
                name: variant.name().to_string(),
                formula: label.to_string(),
                milestones: m,
                max_nschemas: max,
            });
        }
    }
    rows
}

/// Renders Table IV (maximum schema counts for automata with different
/// milestone counts) from precomputed rows.
pub fn render_table4(rows: &[Table4Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<8} {:>12} {:>16}",
        "Name", "Formula", "nmilestones", "max-nschemas"
    );
    let _ = writeln!(out, "{}", "-".repeat(50));
    for row in rows {
        let _ = writeln!(
            out,
            "{:<10} {:<8} {:>12} {:>16}",
            row.name, row.formula, row.milestones, row.max_nschemas
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verifier::{verify_protocol, VerifierConfig};
    use ccprotocols::{bstyle, fixed};

    #[test]
    fn table2_renders_rows_for_all_results() {
        let result = verify_protocol(&bstyle::cc85b(), &VerifierConfig::quick());
        let table = render_table2(&[result]);
        assert!(table.contains("CC85(b)"));
        assert!(table.contains("|L|"));
        assert!(table.lines().count() >= 3);
    }

    #[test]
    fn table3_lists_the_obligations() {
        let table = render_table3(&fixed::aby22());
        assert!(table.contains("Inv1(0)"));
        assert!(table.contains("CB2"));
        assert!(table.contains("A F(EX"));
    }

    #[test]
    fn table4_shows_decreasing_schema_counts() {
        let protocol = fixed::aby22();
        let variants: Vec<(SystemModel, ProtocolModel)> = fixed::aby22_variants()
            .into_iter()
            .map(|m| (m, protocol.clone()))
            .collect();
        let rows = table4_rows(&variants);
        assert_eq!(rows.len(), 10);
        let cb0: Vec<&Table4Row> = rows.iter().filter(|r| r.formula == "CB0").collect();
        // milestone counts strictly decrease across the variants
        for pair in cb0.windows(2) {
            assert!(pair[0].milestones > pair[1].milestones);
            assert!(pair[0].max_nschemas > pair[1].max_nschemas);
        }
        // the Inv2 formula has fewer schemas than CB0 on the same automaton
        let inv2_full = rows
            .iter()
            .find(|r| r.formula == "Inv2" && r.name == "ABY22")
            .unwrap();
        let cb0_full = rows
            .iter()
            .find(|r| r.formula == "CB0" && r.name == "ABY22")
            .unwrap();
        assert!(cb0_full.max_nschemas > inv2_full.max_nschemas);
        let rendered = render_table4(&rows);
        assert!(rendered.contains("ABY22-4"));
        assert!(rendered.contains("max-nschemas"));
    }
}
