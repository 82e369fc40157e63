//! Typed check outcomes and the machine-readable `check_report.json`.
//!
//! The JSON is hand-rolled like everywhere else in this workspace (no
//! serde in the offline build environment). Schema:
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
//!   "counters": {"xs.bin_scan_steps": 676787, "xs.gather_span_bytes": 6036960, ...},
//!   "golden": [
//!     {"artifact": "fig2_lookup_rates", "passed": true,
//!      "detail": "6 rows, worst rel err 0.000e0"},
//!     ...
//!   ]
//! }
//! ```

pub use mcs_bench::harness::{check, check_warn, Band, CheckOutcome};

use crate::golden::GoldenOutcome;

fn band_json(band: &Band) -> String {
    match *band {
        Band::Range { lo, hi } => format!(
            "{{\"kind\": \"range\", \"lo\": {}, \"hi\": {}}}",
            json_num(lo),
            json_num(hi)
        ),
        Band::AtLeast(lo) => {
            format!("{{\"kind\": \"at_least\", \"lo\": {}}}", json_num(lo))
        }
        Band::AtMost(hi) => {
            format!("{{\"kind\": \"at_most\", \"hi\": {}}}", json_num(hi))
        }
        Band::Holds => "{\"kind\": \"holds\"}".to_string(),
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
    /// Instrumentation counters the harnesses export (the `xs.*` set of
    /// the event-queueing sweep's optimized hash run, the `geom.*` set
    /// of the geometry sweep), as `(name, count)` in run order.
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

    /// Render the machine-readable report.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str("  \"schema\": \"mcs-check-report/2\",\n");
        s.push_str(&format!("  \"scale\": {},\n", json_num(self.scale)));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str(&format!("  \"passed\": {},\n", self.passed()));
        s.push_str(&format!("  \"n_invariants\": {},\n", self.invariants.len()));
        s.push_str(&format!("  \"n_failed\": {},\n", self.n_failed()));
        s.push_str("  \"invariants\": [\n");
        for (i, c) in self.invariants.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"id\": {}, \"harness\": {}, \"description\": {}, \
                 \"value\": {}, \"band\": {}, \"passed\": {}, \"warn\": {}}}{}\n",
                json_str(c.id),
                json_str(c.harness),
                json_str(c.description),
                json_num(c.value),
                band_json(&c.band),
                c.passed,
                c.warn,
                if i + 1 < self.invariants.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("{}: {}", json_str(k), v));
        }
        s.push_str("},\n");
        s.push_str("  \"golden\": [\n");
        for (i, g) in self.golden.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"artifact\": {}, \"passed\": {}, \"detail\": {}}}{}\n",
                json_str(&g.artifact),
                g.passed,
                json_str(&g.detail),
                if i + 1 < self.golden.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

/// A finite f64 as a JSON number; NaN/inf (e.g. "no crossover found")
/// become `null` so the report stays parseable.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", mcs_prof::value::escape_json(s))
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
        let j = r.to_json();
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
        let j = r.to_json();
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
        let j = r.to_json();
        assert!(
            j.contains("\"counters\": {\"xs.gather_span_bytes\": 7, \"xs.lookups\": 42}"),
            "{j}"
        );
        // Empty set still renders a valid (empty) object.
        let empty = CheckReport::default().to_json();
        assert!(empty.contains("\"counters\": {}"), "{empty}");
    }

    #[test]
    fn json_escapes_are_sane() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(2.5), "2.5");
    }
}
