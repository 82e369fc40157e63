//! The machine-readable `trend_report.json`.
//!
//! Schema `mcs-trend-report/2`. The report carries everything CI (or a
//! human reading the artifact) needs to act on the gate without re-
//! running anything: per-metric deltas with their classification, the
//! gate verdict, and which files fed the record. [`schema_paths`]
//! flattens a report to its sorted set of JSON key paths so a blessed
//! golden under `results/golden/` catches schema drift exactly like the
//! CSV goldens do.

use mcs_prof::value::{JsonValue, JsonWriteError};

use super::delta::{DeltaClass, MetricDelta, TOLERANCES};

/// Schema tag stamped on every report.
pub const REPORT_SCHEMA: &str = "mcs-trend-report/2";

/// The full trend evaluation of one record against its history.
#[derive(Debug, Clone)]
pub struct TrendReport {
    /// ISA leg evaluated.
    pub leg: String,
    /// Commit of the evaluated record.
    pub commit: String,
    /// Unix seconds of the evaluated record.
    pub timestamp: u64,
    /// Workload scale of the evaluated record.
    pub mcs_scale: f64,
    /// Host threads of the measured run.
    pub host_threads: usize,
    /// History length *after* this run (including the evaluated record).
    pub history_len: usize,
    /// Whether this run appended a new record (false: idempotent re-run
    /// or dry run).
    pub appended: bool,
    /// Whether rate regressions are warn-only on this host.
    pub warn_only_rates: bool,
    /// Per-metric deltas, in metric order.
    pub deltas: Vec<MetricDelta>,
    /// Files that fed the record.
    pub sources: Vec<String>,
    /// Files found but skipped, with reasons.
    pub skipped: Vec<String>,
}

impl TrendReport {
    /// Deltas that fail the gate.
    pub fn gating(&self) -> impl Iterator<Item = &MetricDelta> {
        self.deltas.iter().filter(|d| d.gating)
    }

    /// Whether the gate passes (no gating regression).
    pub fn gate_passed(&self) -> bool {
        self.gating().next().is_none()
    }

    /// Count of a classification.
    pub fn n_class(&self, class: DeltaClass) -> usize {
        self.deltas.iter().filter(|d| d.class == class).count()
    }

    /// Render the machine-readable report; a non-finite number is
    /// `null`, a count above 2^53 an error.
    pub fn to_json(&self) -> Result<String, JsonWriteError> {
        let num = JsonValue::finite_or_null;
        let uint = |n: usize| JsonValue::uint(n as u128);
        let strs = |items: &[String]| {
            JsonValue::Array(items.iter().cloned().map(JsonValue::Str).collect())
        };
        let deltas = self
            .deltas
            .iter()
            .map(|d| {
                Ok(JsonValue::object([
                    ("metric", JsonValue::Str(d.metric.clone())),
                    ("kind", JsonValue::Str(d.kind.name().into())),
                    ("current", num(d.current)),
                    ("baseline", d.baseline.map_or(JsonValue::Null, num)),
                    ("delta_pct", num(d.delta_pct)),
                    ("consecutive_bad", uint(d.consecutive_bad)?),
                    ("class", JsonValue::Str(d.class.name().into())),
                    ("gating", JsonValue::Bool(d.gating)),
                ]))
            })
            .collect::<Result<Vec<_>, JsonWriteError>>()?;
        let gate = JsonValue::object([
            ("passed", JsonValue::Bool(self.gate_passed())),
            ("n_gating", uint(self.gating().count())?),
            ("n_regressed", uint(self.n_class(DeltaClass::Regressed))?),
            ("n_suspect", uint(self.n_class(DeltaClass::Suspect))?),
            ("n_improved", uint(self.n_class(DeltaClass::Improved))?),
            ("warn_only_rates", JsonValue::Bool(self.warn_only_rates)),
            (
                "tolerances",
                JsonValue::object([
                    ("rate_pct", num(TOLERANCES.rate_pct)),
                    ("counter_pct", num(TOLERANCES.counter_pct)),
                    ("sustain", uint(TOLERANCES.sustain)?),
                ]),
            ),
        ]);
        JsonValue::object([
            ("schema", JsonValue::Str(REPORT_SCHEMA.into())),
            ("leg", JsonValue::Str(self.leg.clone())),
            ("commit", JsonValue::Str(self.commit.clone())),
            ("timestamp", JsonValue::uint(self.timestamp.into())?),
            ("mcs_scale", num(self.mcs_scale)),
            ("host_threads", uint(self.host_threads)?),
            ("history_len", uint(self.history_len)?),
            ("appended", JsonValue::Bool(self.appended)),
            ("gate", gate),
            ("deltas", JsonValue::Array(deltas)),
            ("sources", strs(&self.sources)),
            ("skipped", strs(&self.skipped)),
        ])
        .write_pretty()
    }
}

/// Flatten a JSON document to its sorted, deduplicated key paths
/// (arrays contribute `path[]` plus their element paths). This is the
/// shape the schema golden pins: adding, renaming, or removing report
/// fields changes the path set even when values differ run to run.
pub fn schema_paths(text: &str) -> Result<Vec<String>, String> {
    fn walk(v: &JsonValue, prefix: &str, out: &mut Vec<String>) {
        match v {
            JsonValue::Object(m) => {
                for (k, child) in m {
                    let path = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    out.push(path.clone());
                    walk(child, &path, out);
                }
            }
            JsonValue::Array(items) => {
                let path = format!("{prefix}[]");
                out.push(path.clone());
                for item in items {
                    walk(item, &path, out);
                }
            }
            _ => {}
        }
    }
    let v = JsonValue::parse(text)?;
    let mut out = Vec::new();
    walk(&v, "", &mut out);
    out.sort();
    out.dedup();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trend::delta::MetricKind;

    fn sample_report() -> TrendReport {
        TrendReport {
            leg: "scalar".into(),
            commit: "abc123".into(),
            timestamp: 1_754_000_000,
            mcs_scale: 0.1,
            host_threads: 2,
            history_len: 3,
            appended: true,
            warn_only_rates: false,
            deltas: vec![
                MetricDelta {
                    metric: "grid.hash.b1000".into(),
                    kind: MetricKind::Rate,
                    current: 900.0,
                    baseline: Some(1000.0),
                    delta_pct: -10.0,
                    consecutive_bad: 0,
                    class: DeltaClass::Ok,
                    gating: false,
                },
                MetricDelta {
                    metric: "xs.lookups".into(),
                    kind: MetricKind::Counter,
                    current: 42.0,
                    baseline: None,
                    delta_pct: 0.0,
                    consecutive_bad: 0,
                    class: DeltaClass::NoBaseline,
                    gating: false,
                },
            ],
            sources: vec!["BENCH_grid_backend.json".into()],
            skipped: vec!["BENCH_event_parallel.json (no scale stamp)".into()],
        }
    }

    #[test]
    fn report_is_valid_json_with_stable_paths() {
        let text = sample_report().to_json().unwrap();
        let v = JsonValue::parse(&text).expect("report must parse");
        assert_eq!(
            v.get("schema").and_then(JsonValue::as_str),
            Some(REPORT_SCHEMA)
        );
        assert_eq!(
            v.get("gate")
                .and_then(|g| g.get("passed"))
                .and_then(JsonValue::as_bool),
            Some(true)
        );
        let paths = schema_paths(&text).unwrap();
        for must in [
            "gate.passed",
            "gate.tolerances.rate_pct",
            "deltas[].metric",
            "deltas[].class",
            "sources[]",
        ] {
            assert!(paths.contains(&must.to_string()), "missing path {must}");
        }
    }

    #[test]
    fn gate_fails_when_any_delta_gates() {
        let mut r = sample_report();
        assert!(r.gate_passed());
        r.deltas[0].class = DeltaClass::Regressed;
        r.deltas[0].gating = true;
        assert!(!r.gate_passed());
        let text = r.to_json().unwrap();
        assert!(text.contains("\"passed\": false"));
        assert!(text.contains("\"n_gating\": 1"));
        // The offending metric is named.
        assert!(text.contains("\"kind\": \"rate\", \"metric\": \"grid.hash.b1000\""));
    }

    #[test]
    fn null_baseline_renders_as_null() {
        let text = sample_report().to_json().unwrap();
        assert!(text.contains("\"baseline\": null"));
    }
}
