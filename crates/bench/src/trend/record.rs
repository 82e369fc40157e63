//! The typed, versioned per-commit trend record and its JSONL codec.
//!
//! One [`TrendRecord`] captures everything a later run needs to decide
//! "did this commit regress": provenance (commit, timestamp, ISA leg),
//! comparability keys (`mcs_scale`, `host_threads`), every benchmark
//! cell's measured rate, and the deterministic `xs.*` work counters.
//! Records travel as one JSON object per line (JSONL) so history files
//! append cheaply and diff cleanly.
//!
//! The codec is strict both ways: [`TrendRecord::from_json_line`]
//! rejects unknown schema tags, non-finite numbers, and malformed JSON
//! with a typed [`TrendError`] — a corrupt history line must fail the
//! run, not silently shorten the baseline window.

use std::collections::BTreeMap;

use mcs_prof::value::{JsonValue, JsonWriteError};

use super::TrendError;

/// Schema tag stamped on (and required of) every record line.
pub const RECORD_SCHEMA: &str = "mcs-trend-record/1";

/// One per-commit measurement snapshot on one ISA leg.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendRecord {
    /// Commit hash the measurements were taken at (`unknown` if the
    /// producer could not resolve one).
    pub commit: String,
    /// Unix seconds when the record was produced.
    pub timestamp: u64,
    /// ISA leg the benchmarks ran on (`simd-native`, `scalar`, `local`).
    pub leg: String,
    /// Workload scale the benchmarks ran at (records are only compared
    /// against history at the same scale).
    pub mcs_scale: f64,
    /// Host threads available to the measured run (1 ⇒ rate deltas are
    /// classified on the warn band, never gating).
    pub host_threads: usize,
    /// Measured rates per benchmark cell, e.g.
    /// `grid.hash.b100000` → lookups/s. Keys are stable cell IDs.
    pub rates: BTreeMap<String, f64>,
    /// Deterministic work counters per benchmark cell plus the `xs.*` /
    /// `geom.*` counters the harnesses export, e.g.
    /// `grid.hash.b10000.index_bytes`.
    pub counters: BTreeMap<String, u64>,
}

impl TrendRecord {
    /// Serialize as one compact JSONL line (no trailing newline); `Err`
    /// on a value JSON cannot carry exactly (a non-finite rate, a count
    /// above 2^53).
    pub fn to_json_line(&self) -> Result<String, JsonWriteError> {
        let uint = |n: u64| JsonValue::uint(n.into());
        let rates = self
            .rates
            .iter()
            .map(|(k, &v)| (k.clone(), JsonValue::Num(v)))
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| Ok((k.clone(), uint(v)?)))
            .collect::<Result<_, JsonWriteError>>()?;
        JsonValue::object([
            ("schema", JsonValue::Str(RECORD_SCHEMA.into())),
            ("commit", JsonValue::Str(self.commit.clone())),
            ("timestamp", uint(self.timestamp)?),
            ("leg", JsonValue::Str(self.leg.clone())),
            ("mcs_scale", JsonValue::Num(self.mcs_scale)),
            ("host_threads", uint(self.host_threads as u64)?),
            ("rates", JsonValue::Object(rates)),
            ("counters", JsonValue::Object(counters)),
        ])
        .write()
    }

    /// Parse one JSONL line. Strict: schema mismatch, missing fields,
    /// non-finite rates, or trailing garbage are an `Err`.
    pub fn from_json_line(line: &str) -> Result<TrendRecord, TrendError> {
        let bad = |msg: String| TrendError::Corrupt { line: 0, msg };
        let v = JsonValue::parse(line).map_err(bad)?;
        let schema = v
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| bad("missing schema tag".into()))?;
        if schema != RECORD_SCHEMA {
            return Err(bad(format!(
                "unknown record schema {schema:?} (expected {RECORD_SCHEMA:?})"
            )));
        }
        let str_field = |name: &str| -> Result<String, TrendError> {
            v.get(name)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(format!("missing string field {name:?}")))
        };
        let commit = str_field("commit")?;
        let leg = str_field("leg")?;
        let timestamp = v
            .get("timestamp")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| bad("missing integer field \"timestamp\"".into()))?;
        let mcs_scale = v
            .get("mcs_scale")
            .and_then(JsonValue::as_f64)
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or_else(|| bad("missing/invalid field \"mcs_scale\"".into()))?;
        let host_threads = v
            .get("host_threads")
            .and_then(JsonValue::as_u64)
            .filter(|&t| t >= 1)
            .ok_or_else(|| bad("missing/invalid field \"host_threads\"".into()))?
            as usize;

        let mut rates = BTreeMap::new();
        for (k, rv) in v
            .get("rates")
            .and_then(JsonValue::as_object)
            .ok_or_else(|| bad("missing object field \"rates\"".into()))?
        {
            let r = rv
                .as_f64()
                .filter(|r| r.is_finite() && *r >= 0.0)
                .ok_or_else(|| bad(format!("rate {k:?} is not a finite non-negative number")))?;
            rates.insert(k.clone(), r);
        }
        let mut counters = BTreeMap::new();
        for (k, cv) in v
            .get("counters")
            .and_then(JsonValue::as_object)
            .ok_or_else(|| bad("missing object field \"counters\"".into()))?
        {
            let c = cv
                .as_u64()
                .ok_or_else(|| bad(format!("counter {k:?} is not a non-negative integer")))?;
            counters.insert(k.clone(), c);
        }

        Ok(TrendRecord {
            commit,
            timestamp,
            leg,
            mcs_scale,
            host_threads,
            rates,
            counters,
        })
    }

    /// Whether `other` carries the same measurements for the same commit
    /// (the idempotency predicate: such a record is never re-appended).
    pub fn same_measurement(&self, other: &TrendRecord) -> bool {
        self.commit == other.commit
            && self.leg == other.leg
            && self.mcs_scale == other.mcs_scale
            && self.rates == other.rates
            && self.counters == other.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn sample() -> TrendRecord {
        TrendRecord {
            commit: "a727db8c0ffee".into(),
            timestamp: 1_754_000_000,
            leg: "simd-native".into(),
            mcs_scale: 0.1,
            host_threads: 4,
            rates: [
                ("grid.hash.b100000".to_string(), 896_429.9),
                ("eq.hash.material+energy.b10000".to_string(), 27_632.4),
            ]
            .into_iter()
            .collect(),
            counters: [
                ("xs.lookups".to_string(), 585_733u64),
                ("xs.gather_span_bytes".to_string(), 22_478_806_592),
            ]
            .into_iter()
            .collect(),
        }
    }

    #[test]
    fn round_trip_is_lossless() {
        let r = sample();
        let back = TrendRecord::from_json_line(&r.to_json_line().unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn rejects_schema_drift_and_corruption() {
        let r = sample();
        let line = r.to_json_line().unwrap();
        // Truncation anywhere inside the line must fail.
        assert!(TrendRecord::from_json_line(&line[..line.len() - 1]).is_err());
        assert!(TrendRecord::from_json_line(&line[..line.len() / 2]).is_err());
        // Unknown schema tag must fail even if the JSON parses.
        let drifted = line.replace(RECORD_SCHEMA, "mcs-trend-record/999");
        assert!(TrendRecord::from_json_line(&drifted).is_err());
        // Negative rates are invalid.
        let negative = line.replace("896429.9", "-1.0");
        assert!(TrendRecord::from_json_line(&negative).is_err());
    }

    #[test]
    fn same_measurement_ignores_timestamp() {
        let a = sample();
        let mut b = a.clone();
        b.timestamp += 3600;
        assert!(a.same_measurement(&b));
        b.rates.insert("grid.hash.b100000".into(), 1.0);
        assert!(!a.same_measurement(&b));
    }
}
