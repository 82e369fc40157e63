//! Typed check outcomes and the machine-readable `check_report.json`.
//!
//! The JSON goes through [`JsonValue::write_pretty`] (keys in sorted
//! order; a non-finite value is `null`). Schema:
//!
//! ```json
//! {
//!   "schema": "mcs-check-report/2",
//!   "scale": 0.1,
//!   "threads": 8,
//!   "passed": true,
//!   "n_invariants": 26,
//!   "n_failed": 0,
//!   "invariants": [
//!     {"id": "F2.mic_over_e5", "harness": "fig2", "description": "...",
//!      "value": 9.64, "band": {"kind": "range", "lo": 8.0, "hi": 12.0},
//!      "passed": true},
//!     ...
//!   ],
//!   "counters": {"geom.find_steps": 654373, "geom.finds": 108724, ...},
//!   "golden": [
//!     {"artifact": "fig2_lookup_rates", "passed": true,
//!      "detail": "6 rows, worst rel err 0.000e0"},
//!     ...
//!   ]
//! }
//! ```

pub use mcs_bench::harness::{check, check_warn, Band, CheckOutcome};
use mcs_prof::value::{JsonValue, JsonWriteError};

use crate::golden::GoldenOutcome;

fn band_json(band: &Band) -> JsonValue {
    let num = JsonValue::finite_or_null;
    let kind = |k: &str| ("kind", JsonValue::Str(k.into()));
    match *band {
        Band::Range { lo, hi } => {
            JsonValue::object([kind("range"), ("lo", num(lo)), ("hi", num(hi))])
        }
        Band::AtLeast(lo) => JsonValue::object([kind("at_least"), ("lo", num(lo))]),
        Band::AtMost(hi) => JsonValue::object([kind("at_most"), ("hi", num(hi))]),
        Band::Holds => JsonValue::object([kind("holds")]),
    }
}

/// The full report: every invariant plus every golden-CSV comparison.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Workload scale the harnesses ran at.
    pub scale: f64,
    /// Host threads available to the run.
    pub threads: usize,
    /// Scalar invariants, in run order.
    pub invariants: Vec<CheckOutcome>,
    /// Instrumentation counters the harnesses export (e.g. the `geom.*`
    /// set of the geometry sweep), as `(name, count)` in run order.
    pub counters: Vec<(String, u64)>,
    /// Golden-CSV comparisons, in run order.
    pub golden: Vec<GoldenOutcome>,
}

impl CheckReport {
    pub fn n_failed(&self) -> usize {
        self.invariants
            .iter()
            .filter(|c| !c.passed && !c.warn)
            .count()
            + self.golden.iter().filter(|g| !g.passed).count()
    }

    /// Warn-band invariants that did not hold (reported, never gating).
    pub fn n_warned(&self) -> usize {
        self.invariants
            .iter()
            .filter(|c| !c.passed && c.warn)
            .count()
    }

    pub fn passed(&self) -> bool {
        self.n_failed() == 0
    }

    /// Render the machine-readable report; a non-finite number (e.g.
    /// "no crossover found") is `null`, a count above 2^53 an error.
    pub fn to_json(&self) -> Result<String, JsonWriteError> {
        let str = |s: &str| JsonValue::Str(s.into());
        let uint = |n: usize| JsonValue::uint(n as u128);
        let invariants = self.invariants.iter().map(|c| {
            JsonValue::object([
                ("id", str(c.id)),
                ("harness", str(c.harness)),
                ("description", str(c.description)),
                ("value", JsonValue::finite_or_null(c.value)),
                ("band", band_json(&c.band)),
                ("passed", JsonValue::Bool(c.passed)),
                ("warn", JsonValue::Bool(c.warn)),
            ])
        });
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| Ok((k.as_str(), JsonValue::uint((*v).into())?)))
            .collect::<Result<Vec<_>, JsonWriteError>>()?;
        let golden = self.golden.iter().map(|g| {
            JsonValue::object([
                ("artifact", str(&g.artifact)),
                ("passed", JsonValue::Bool(g.passed)),
                ("detail", str(&g.detail)),
            ])
        });
        JsonValue::object([
            ("schema", str("mcs-check-report/2")),
            ("scale", JsonValue::finite_or_null(self.scale)),
            ("threads", uint(self.threads)?),
            ("passed", JsonValue::Bool(self.passed())),
            ("n_invariants", uint(self.invariants.len())?),
            ("n_failed", uint(self.n_failed())?),
            ("invariants", JsonValue::Array(invariants.collect())),
            ("counters", JsonValue::object(counters)),
            ("golden", JsonValue::Array(golden.collect())),
        ])
        .write_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_failures_from_both_sections() {
        let mut r = CheckReport {
            scale: 0.1,
            threads: 4,
            ..Default::default()
        };
        r.invariants.push(check("A.x", "ok", 1.0, Band::Holds));
        r.invariants.push(check("A.y", "bad", 0.0, Band::Holds));
        r.golden.push(GoldenOutcome {
            artifact: "a".into(),
            passed: false,
            detail: "row 1 mismatch".into(),
        });
        assert_eq!(r.n_failed(), 2);
        assert!(!r.passed());
        let j = r.to_json().unwrap();
        assert!(j.contains("\"n_failed\": 2"));
        assert!(j.contains("\"passed\": false"));
    }

    #[test]
    fn warn_band_reports_but_never_gates() {
        let mut r = CheckReport {
            scale: 0.1,
            threads: 1,
            ..Default::default()
        };
        r.invariants.push(check_warn(
            "W.x",
            "violated but warn-band",
            0.0,
            Band::Holds,
        ));
        assert!(!r.invariants[0].passed);
        assert_eq!(r.n_failed(), 0, "warn outcomes must not gate");
        assert_eq!(r.n_warned(), 1);
        assert!(r.passed());
        let j = r.to_json().unwrap();
        assert!(j.contains("\"warn\": true"), "{j}");
        // A held warn-band invariant is not counted as warned.
        r.invariants
            .push(check_warn("W.y", "holds", 1.0, Band::Holds));
        assert_eq!(r.n_warned(), 1);
    }

    #[test]
    fn counters_section_renders() {
        let mut r = CheckReport::default();
        r.counters.push(("xs.gather_span_bytes".into(), 7));
        r.counters.push(("xs.lookups".into(), 42));
        let j = r.to_json().unwrap();
        assert!(
            j.contains(
                "\"counters\": {\n    \"xs.gather_span_bytes\": 7,\n    \"xs.lookups\": 42\n  }"
            ),
            "{j}"
        );
        // Empty set still renders a valid (empty) object.
        let empty = CheckReport::default().to_json().unwrap();
        assert!(empty.contains("\"counters\": {}"), "{empty}");
    }
}
