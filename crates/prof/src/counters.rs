//! Named event counters (errors, retries, fault events).
//!
//! The region timers in this crate answer "where did the time go"; the
//! counters answer "how often did X happen" — PCIe retry attempts,
//! corrupted transfers, exhausted backoff loops. Keys are ordered
//! (`BTreeMap`) so reports and JSON renders are deterministic.

use std::collections::BTreeMap;

use crate::value::{JsonValue, JsonWriteError};

/// A set of named monotonic counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    counts: BTreeMap<String, u64>,
}

impl Counters {
    /// An empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to counter `name`, creating it at zero first if needed.
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counts.entry(name.to_string()).or_insert(0) += n;
    }

    /// Increment counter `name` by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// All counters in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no counter has been touched.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Fold another counter set into this one (summing shared keys).
    pub fn merge(&mut self, other: &Counters) {
        for (k, &v) in &other.counts {
            *self.counts.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// The counters as a JSON object node; `Err` if a count exceeds
    /// 2^53 and would not survive the trip.
    pub fn to_value(&self) -> Result<JsonValue, JsonWriteError> {
        let mut members = BTreeMap::new();
        for (k, &v) in &self.counts {
            members.insert(k.clone(), JsonValue::uint(v.into())?);
        }
        Ok(JsonValue::Object(members))
    }

    /// Render as a stable single-line JSON object (keys sorted).
    pub fn to_json(&self) -> Result<String, JsonWriteError> {
        self.to_value()?.write()
    }

    /// Parse the flat-object format produced by [`Counters::to_json`]
    /// (and embedded as the `"counters"` section of `check_report.json`).
    /// Strict: non-object input, non-integer values, or malformed JSON
    /// are an `Err` — consumers like `mcs-bench trend` must distinguish
    /// "no counters" from "corrupt counters".
    pub fn from_json(text: &str) -> Result<Counters, String> {
        Self::from_value(&JsonValue::parse(text)?)
    }

    /// Build a counter set from an already-parsed JSON object node.
    pub fn from_value(v: &JsonValue) -> Result<Counters, String> {
        let obj = v.as_object().ok_or("counters section is not an object")?;
        let mut c = Counters::new();
        for (k, v) in obj {
            let n = v
                .as_u64()
                .ok_or_else(|| format!("counter {k:?} is not a non-negative integer"))?;
            c.add(k, n);
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut c = Counters::new();
        assert_eq!(c.get("pcie.retries"), 0);
        c.incr("pcie.retries");
        c.add("pcie.retries", 2);
        assert_eq!(c.get("pcie.retries"), 3);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn merge_sums_shared_keys() {
        let mut a = Counters::new();
        a.add("x", 1);
        a.add("y", 10);
        let mut b = Counters::new();
        b.add("y", 5);
        b.add("z", 7);
        a.merge(&b);
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("y"), 15);
        assert_eq!(a.get("z"), 7);
    }

    #[test]
    fn json_is_sorted_and_stable() {
        let mut c = Counters::new();
        c.add("b", 2);
        c.add("a", 1);
        assert_eq!(c.to_json().unwrap(), "{\"a\": 1, \"b\": 2}");
        assert_eq!(Counters::new().to_json().unwrap(), "{}");
    }

    #[test]
    fn json_round_trips() {
        let mut c = Counters::new();
        c.add("xs.lookups", 585_733);
        c.add("xs.gather_span_bytes", 22_478_806_592);
        let back = Counters::from_json(&c.to_json().unwrap()).unwrap();
        assert_eq!(back, c);
        assert_eq!(Counters::from_json("{}").unwrap(), Counters::new());
    }

    #[test]
    fn from_json_rejects_corruption() {
        assert!(Counters::from_json("not json").is_err());
        assert!(Counters::from_json("[1, 2]").is_err());
        assert!(Counters::from_json("{\"a\": -1}").is_err());
        assert!(Counters::from_json("{\"a\": 1.5}").is_err());
        assert!(Counters::from_json("{\"a\": 1").is_err());
    }

    #[test]
    fn iter_in_key_order() {
        let mut c = Counters::new();
        c.add("zz", 1);
        c.add("aa", 2);
        let keys: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["aa", "zz"]);
    }
}
