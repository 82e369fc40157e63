//! Golden-CSV comparison, judged by each table's column kinds.
//!
//! Goldens live in `results/golden/` and are regenerated with
//! `cargo run -p mcs-check -- --bless` (or `MCS_BLESS=1`). A golden is
//! compared at the SAME `MCS_SCALE` it was blessed at — the committed
//! set is blessed at the default check scale.
//!
//! What a cell must satisfy follows from the [`Kind`] its harness
//! declared for it ([`ColumnPolicy::of`]), reflecting the repo's
//! MEASURED vs MODELED split:
//!
//! * key and exact columns (bank sizes, row labels, pure counting) —
//!   byte-for-byte;
//! * MEASURED wall-time/rate columns — host-dependent noise, so the only
//!   stable property is positivity;
//! * MODELED columns and deterministic counters — compared with a small
//!   relative tolerance, because the scalar CI leg (no
//!   `-C target-cpu=native`) may contract floating point differently
//!   and shift a transport branch, perturbing counts well under 1%.

use mcs_bench::harness::table::COUNTER_TOL;
use mcs_bench::harness::{Kind, Table};

/// How one CSV cell is compared against its golden counterpart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColumnPolicy {
    /// Byte-for-byte equal (keys, labels).
    Exact,
    /// Fresh value must parse to a finite number > 0 (measured noise).
    Positive,
    /// Numeric prefixes agree to this relative tolerance and any unit
    /// suffix (`"ms"`, `"GB"`) matches exactly.
    Rel(f64),
}

impl ColumnPolicy {
    /// The comparison a cell of `kind` gets.
    pub fn of(kind: Kind) -> ColumnPolicy {
        match kind {
            Kind::Key | Kind::Exact => ColumnPolicy::Exact,
            Kind::Measured => ColumnPolicy::Positive,
            Kind::Modeled(tol) => ColumnPolicy::Rel(tol),
            Kind::Counter => ColumnPolicy::Rel(COUNTER_TOL),
        }
    }
}

/// Result of comparing one artifact against its golden.
#[derive(Debug, Clone)]
pub struct GoldenOutcome {
    pub artifact: String,
    pub passed: bool,
    /// `"N rows, worst rel err E"` on pass; first mismatch on fail.
    pub detail: String,
}

fn parse_csv(text: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let mut lines = text.lines().map(|l| l.trim_end_matches('\r'));
    let header = lines
        .next()
        .unwrap_or("")
        .split(',')
        .map(str::to_string)
        .collect();
    let rows = lines
        .filter(|l| !l.is_empty())
        .map(|l| l.split(',').map(str::to_string).collect())
        .collect();
    (header, rows)
}

/// Split a cell into its numeric prefix and unit suffix:
/// `"386.712 ms"` → `(Some(386.712), "ms")`; `"N/A"` → `(None, "N/A")`.
fn split_numeric(cell: &str) -> (Option<f64>, &str) {
    let cell = cell.trim();
    let end = cell
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(cell.len());
    match cell[..end].parse::<f64>() {
        Ok(v) => (Some(v), cell[end..].trim()),
        Err(_) => (None, cell),
    }
}

fn cell_matches(policy: ColumnPolicy, fresh: &str, gold: &str) -> Result<f64, String> {
    match policy {
        ColumnPolicy::Exact => {
            if fresh == gold {
                Ok(0.0)
            } else {
                Err(format!("expected {gold:?}, got {fresh:?}"))
            }
        }
        ColumnPolicy::Positive => match split_numeric(fresh).0 {
            Some(v) if v > 0.0 && v.is_finite() => Ok(0.0),
            _ => Err(format!("expected a positive measurement, got {fresh:?}")),
        },
        ColumnPolicy::Rel(tol) => {
            let (fv, fs) = split_numeric(fresh);
            let (gv, gs) = split_numeric(gold);
            match (fv, gv) {
                (Some(f), Some(g)) => {
                    let rel = (f - g).abs() / f.abs().max(g.abs()).max(1e-300);
                    if fs != gs {
                        Err(format!("unit changed: {gold:?} -> {fresh:?}"))
                    } else if rel > tol {
                        Err(format!(
                            "{fresh:?} vs golden {gold:?} (rel err {rel:.3e} > {tol:.0e})"
                        ))
                    } else {
                        Ok(rel)
                    }
                }
                // Non-numeric sentinel cells ("N/A") must agree exactly.
                (None, None) => {
                    if fresh == gold {
                        Ok(0.0)
                    } else {
                        Err(format!("expected {gold:?}, got {fresh:?}"))
                    }
                }
                _ => Err(format!("numeric/non-numeric flip: {gold:?} -> {fresh:?}")),
            }
        }
    }
}

/// Compare a freshly produced table against golden CSV text.
pub fn compare(table: &Table, golden_text: &str) -> GoldenOutcome {
    let outcome = |passed, detail| GoldenOutcome {
        artifact: table.name.to_string(),
        passed,
        detail,
    };
    let (gold_header, gold_rows) = parse_csv(golden_text);
    let header: Vec<&str> = table.columns.iter().map(|c| c.name).collect();
    if gold_header != header {
        return outcome(
            false,
            format!("header changed: golden {gold_header:?} vs fresh {header:?}"),
        );
    }
    if gold_rows.len() != table.rows.len() {
        return outcome(
            false,
            format!(
                "row count changed: golden {} vs fresh {}",
                gold_rows.len(),
                table.rows.len()
            ),
        );
    }
    let mut worst = 0.0f64;
    for (ri, gold_row) in gold_rows.iter().enumerate() {
        if gold_row.len() != header.len() {
            return outcome(false, format!("row {ri}: cell count changed"));
        }
        let key = table.cell_text(ri, 0);
        for (ci, gold) in gold_row.iter().enumerate() {
            let policy = ColumnPolicy::of(table.kind_at(ri, ci));
            match cell_matches(policy, &table.cell_text(ri, ci), gold) {
                Ok(rel) => worst = worst.max(rel),
                Err(why) => {
                    return outcome(
                        false,
                        format!("row {ri} ({key}), column {}: {why}", header[ci]),
                    )
                }
            }
        }
    }
    outcome(
        true,
        format!("{} rows, worst rel err {:.3e}", table.rows.len(), worst),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_bench::harness::{Column, Fmt, Value};

    /// A text-celled table: `columns[0]` is the key, the rest `data`.
    fn table(name: &'static str, data: Kind, columns: &[&'static str], rows: &[&[&str]]) -> Table {
        let mut columns = columns.iter();
        let mut decl = vec![Column::key(columns.next().unwrap())];
        decl.extend(columns.map(|name| Column {
            kind: data,
            ..Column::exact(name, Fmt::Plain)
        }));
        let mut t = Table::new(name, decl);
        for row in rows {
            t.push(row.iter().map(|&c| Value::from(c)).collect());
        }
        t
    }

    fn rates() -> Table {
        table(
            "rates",
            Kind::Modeled(0.02),
            &["hardware", "original_rate", "balanced_rate", "ideal_rate"],
            &[
                &["CPU only", "13667", "N/A", "13667"],
                &["CPU + MIC", "27334", "34341", "34342"],
            ],
        )
    }

    #[test]
    fn identical_csv_passes() {
        let a = rates();
        let out = compare(&a, &a.to_csv());
        assert!(out.passed, "{}", out.detail);
    }

    #[test]
    fn within_tolerance_passes_outside_fails() {
        let a = rates();
        let mut nudged = a.clone();
        nudged.rows[1].cells[1] = "27500".into(); // +0.6% < 2%
        assert!(compare(&nudged, &a.to_csv()).passed);
        nudged.rows[1].cells[1] = "30000".into(); // +9.8% > 2%
        let out = compare(&nudged, &a.to_csv());
        assert!(!out.passed);
        assert!(out.detail.contains("original_rate"), "{}", out.detail);
    }

    #[test]
    fn key_and_sentinel_cells_are_exact() {
        let a = rates();
        let mut renamed = a.clone();
        renamed.rows[0].cells[0] = "GPU only".into();
        assert!(!compare(&renamed, &a.to_csv()).passed);
        let mut filled = a.clone();
        filled.rows[0].cells[2] = "1.0".into(); // N/A -> number
        assert!(!compare(&filled, &a.to_csv()).passed);
    }

    #[test]
    fn unit_suffix_change_fails() {
        let gold = "operation,hm_small,hm_large\nxfer,999.0 ms,2.2 s\n";
        let fresh = table(
            "quantities",
            Kind::Modeled(0.02),
            &["operation", "hm_small", "hm_large"],
            &[&["xfer", "1.0 s", "2.2 s"]],
        );
        let out = compare(&fresh, gold);
        assert!(!out.passed);
        assert!(out.detail.contains("unit changed"), "{}", out.detail);
    }

    #[test]
    fn measured_columns_only_require_positivity() {
        let gold = "row,naive_s,opt1_s,opt2_s\nhost_measured,0.5,0.4,0.3\n";
        // 10x the golden: fine, it's a measurement.
        let fresh = table(
            "timings",
            Kind::Measured,
            &["row", "naive_s", "opt1_s", "opt2_s"],
            &[&["host_measured", "5.0", "0.1", "0.2"]],
        );
        assert!(compare(&fresh, gold).passed);
        let mut bad = fresh.clone();
        bad.rows[0].cells[1] = "-1.0".into();
        assert!(!compare(&bad, gold).passed);
    }

    #[test]
    fn shape_changes_fail() {
        let a = rates();
        let mut short = a.clone();
        short.rows.pop();
        assert!(!compare(&short, &a.to_csv()).passed);
        let mut reheaded = a.clone();
        reheaded.columns[1].name = "orig_rate";
        assert!(!compare(&reheaded, &a.to_csv()).passed);
    }
}
