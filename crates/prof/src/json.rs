//! JSON serialization of profiles.
//!
//! `mcs-check` embeds measured profiles in its machine-readable
//! `check_report.json`, so [`crate::Profile`] needs a stable,
//! dependency-free wire format. [`ProfileSnapshot`] is the owned
//! (String-keyed) mirror of a `Profile`; it serializes to a small JSON
//! object and parses back exactly, so round-tripping is lossless:
//!
//! ```
//! use mcs_prof::{ProfileSnapshot, ThreadProfiler};
//!
//! let tp = ThreadProfiler::new();
//! {
//!     let _g = tp.enter("xs");
//! }
//! let snap = tp.finish().snapshot();
//! let back = ProfileSnapshot::from_json(&snap.to_json().unwrap()).unwrap();
//! assert_eq!(snap, back);
//! ```
//!
//! Durations travel as integer nanoseconds through [`JsonValue`], whose
//! numbers are exact up to 2^53: the round trip is bit-exact below that
//! and a typed error above it.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::report::{Profile, RegionStats};
use crate::value::{JsonValue, JsonWriteError};

/// An owned, serializable snapshot of a [`Profile`].
///
/// Region and call-path entries are sorted by name so the JSON output is
/// deterministic across runs and platforms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Flat per-region statistics, sorted by region name.
    pub regions: Vec<(String, RegionStats)>,
    /// Call-path ("a => b") statistics, sorted by path.
    pub paths: Vec<(String, RegionStats)>,
}

impl Profile {
    /// An owned snapshot suitable for serialization.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let mut regions: Vec<(String, RegionStats)> = self
            .regions()
            .map(|(name, s)| (name.to_string(), *s))
            .collect();
        regions.sort_by(|a, b| a.0.cmp(&b.0));
        let mut paths: Vec<(String, RegionStats)> = self
            .sorted_paths()
            .into_iter()
            .map(|(p, s)| (p.to_string(), s))
            .collect();
        paths.sort_by(|a, b| a.0.cmp(&b.0));
        ProfileSnapshot { regions, paths }
    }

    /// Serialize to the snapshot JSON format.
    pub fn to_json(&self) -> Result<String, JsonWriteError> {
        self.snapshot().to_json()
    }
}

fn section_value(entries: &[(String, RegionStats)]) -> Result<JsonValue, JsonWriteError> {
    let mut section = BTreeMap::new();
    for (name, s) in entries {
        let stats = JsonValue::object([
            ("calls", JsonValue::uint(s.calls.into())?),
            ("exclusive_ns", JsonValue::uint(s.exclusive.as_nanos())?),
            ("inclusive_ns", JsonValue::uint(s.inclusive.as_nanos())?),
        ]);
        section.insert(name.clone(), stats);
    }
    Ok(JsonValue::Object(section))
}

fn parse_section(v: &JsonValue) -> Result<Vec<(String, RegionStats)>, String> {
    let section = v.as_object().ok_or("profile section is not an object")?;
    let mut out = Vec::with_capacity(section.len());
    for (name, stats) in section {
        let fields = stats
            .as_object()
            .ok_or_else(|| format!("stats of {name:?} are not an object"))?;
        let mut s = RegionStats::default();
        for (key, v) in fields {
            let n = v
                .as_u64()
                .ok_or_else(|| format!("{name:?}.{key} is not an integer in 0..=2^53"))?;
            match key.as_str() {
                "calls" => s.calls = n,
                "exclusive_ns" => s.exclusive = Duration::from_nanos(n),
                "inclusive_ns" => s.inclusive = Duration::from_nanos(n),
                other => return Err(format!("unknown stats field {other:?}")),
            }
        }
        out.push((name.clone(), s));
    }
    Ok(out)
}

impl ProfileSnapshot {
    /// Serialize as a two-section JSON object (`regions`, `paths`).
    /// A duration above 2^53 ns (~104 days) is an `Err`: the number
    /// would not survive the trip.
    pub fn to_json(&self) -> Result<String, JsonWriteError> {
        JsonValue::object([
            ("regions", section_value(&self.regions)?),
            ("paths", section_value(&self.paths)?),
        ])
        .write_pretty()
    }

    /// Parse the format produced by [`ProfileSnapshot::to_json`].
    pub fn from_json(text: &str) -> Result<ProfileSnapshot, String> {
        let doc = JsonValue::parse(text)?;
        let mut snap = ProfileSnapshot::default();
        for (key, v) in doc.as_object().ok_or("profile is not an object")? {
            match key.as_str() {
                "regions" => snap.regions = parse_section(v)?,
                "paths" => snap.paths = parse_section(v)?,
                other => return Err(format!("unknown section {other:?}")),
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> ProfileSnapshot {
        ProfileSnapshot {
            regions: vec![
                (
                    "calculate_xs".to_string(),
                    RegionStats {
                        calls: 42,
                        exclusive: Duration::new(3, 141_592_653),
                        inclusive: Duration::new(4, 0),
                    },
                ),
                (
                    "weird \"name\"\n".to_string(),
                    RegionStats {
                        calls: 1,
                        exclusive: Duration::from_nanos(7),
                        inclusive: Duration::from_nanos(9),
                    },
                ),
            ],
            paths: vec![(
                "transport => calculate_xs".to_string(),
                RegionStats {
                    calls: 42,
                    exclusive: Duration::from_millis(5),
                    inclusive: Duration::from_millis(5),
                },
            )],
        }
    }

    #[test]
    fn round_trip_is_lossless() {
        let s = snap();
        let back = ProfileSnapshot::from_json(&s.to_json().unwrap()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn empty_profile_round_trips() {
        let s = ProfileSnapshot::default();
        assert_eq!(
            ProfileSnapshot::from_json(&s.to_json().unwrap()).unwrap(),
            s
        );
    }

    #[test]
    fn live_profile_serializes() {
        let tp = crate::ThreadProfiler::new();
        {
            let _outer = tp.enter("outer");
            let _inner = tp.enter("inner");
        }
        let p = tp.finish();
        let back = ProfileSnapshot::from_json(&p.to_json().unwrap()).unwrap();
        assert_eq!(back, p.snapshot());
        assert_eq!(back.regions.len(), 2);
        assert!(back.paths.iter().any(|(p, _)| p.contains("=>")));
    }

    #[test]
    fn rejects_garbage() {
        assert!(ProfileSnapshot::from_json("not json").is_err());
        assert!(ProfileSnapshot::from_json("{\"regions\": {\"a\": {\"calls\": }}}").is_err());
        assert!(ProfileSnapshot::from_json("{\"bogus\": {}}").is_err());
    }

    #[test]
    fn duration_beyond_exact_range_is_an_error_not_a_truncation() {
        let limit = 1u64 << 53;
        let mut s = snap();
        s.regions[0].1.inclusive = Duration::from_nanos(limit);
        let back = ProfileSnapshot::from_json(&s.to_json().unwrap()).unwrap();
        assert_eq!(back, s, "2^53 ns itself is exact");

        s.regions[0].1.inclusive = Duration::from_nanos(limit + 1);
        assert_eq!(
            s.to_json(),
            Err(JsonWriteError::IntegerTooLarge(u128::from(limit) + 1))
        );
        let text = format!(
            "{{\"regions\": {{\"a\": {{\"inclusive_ns\": {}}}}}}}",
            limit + 1
        );
        assert!(ProfileSnapshot::from_json(&text).is_err());
    }
}
