//! The bit-exact result record the service caches and serves.
//!
//! [`ServedResult`] is a fully *integer* view of an eigenvalue run:
//! every float is carried as its IEEE-754 bit pattern (`to_bits`), so
//! `PartialEq` on the struct **is** the repo's bitwise-determinism
//! contract, and the wire encoding (hex strings — JSON numbers cannot
//! carry a full `u64`) round-trips exactly. Wall-clock fields of the
//! engine report (`wall`, `rate`, `total_time`) are deliberately
//! dropped: they are the only nondeterministic parts of a run and have
//! no place in a cache that promises bit-identical replays.

use mcs_core::engine::RunReport;
use mcs_core::Tallies;
use mcs_prof::value::JsonValue;

use crate::hash::{hash_hex, parse_hash_hex};

/// Integer-only snapshot of the merged [`Tallies`] of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TallySummary {
    /// Transported particle count (active batches).
    pub n_particles: u64,
    /// Track segments.
    pub segments: u64,
    /// Collisions / absorptions / fissions / leaks.
    pub collisions: u64,
    /// Absorptions.
    pub absorptions: u64,
    /// Fissions.
    pub fissions: u64,
    /// Leaks.
    pub leaks: u64,
    /// Per-material segment counts.
    pub segments_by_material: [u64; 8],
    /// Per-material collision counts.
    pub collisions_by_material: [u64; 8],
    /// Total track length, as IEEE-754 bits.
    pub track_length_bits: u64,
    /// Track-length k accumulator, as bits.
    pub k_track_bits: u64,
    /// Collision k accumulator, as bits.
    pub k_collision_bits: u64,
    /// Absorption k accumulator, as bits.
    pub k_absorption_bits: u64,
}

impl From<&Tallies> for TallySummary {
    fn from(t: &Tallies) -> Self {
        TallySummary {
            n_particles: t.n_particles,
            segments: t.segments,
            collisions: t.collisions,
            absorptions: t.absorptions,
            fissions: t.fissions,
            leaks: t.leaks,
            segments_by_material: t.segments_by_material,
            collisions_by_material: t.collisions_by_material,
            track_length_bits: t.track_length.to_bits(),
            k_track_bits: t.k_track.to_bits(),
            k_collision_bits: t.k_collision.to_bits(),
            k_absorption_bits: t.k_absorption.to_bits(),
        }
    }
}

/// The deterministic summary of one eigenvalue run, keyed by its
/// canonical plan hash. Equality is bitwise by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServedResult {
    /// Canonical plan hash this result answers for.
    pub plan_hash: u64,
    /// Batches executed (inactive + active).
    pub batches: u64,
    /// Mean active-batch k, as bits.
    pub k_mean_bits: u64,
    /// Standard error of k, as bits.
    pub k_std_bits: u64,
    /// Track-length k of every batch, as bits.
    pub k_history_bits: Vec<u64>,
    /// Shannon entropy of every batch, as bits.
    pub entropy_bits: Vec<u64>,
    /// Merged active-batch tallies.
    pub tallies: TallySummary,
}

impl ServedResult {
    /// Capture the deterministic parts of a finished engine report.
    pub fn from_report(plan_hash: u64, report: &RunReport) -> ServedResult {
        ServedResult {
            plan_hash,
            batches: report.k_history.len() as u64,
            k_mean_bits: report.result.k_mean.to_bits(),
            k_std_bits: report.result.k_std.to_bits(),
            k_history_bits: report.k_history.iter().map(|k| k.to_bits()).collect(),
            entropy_bits: report
                .result
                .batches
                .iter()
                .map(|b| b.entropy.to_bits())
                .collect(),
            tallies: TallySummary::from(&report.result.tallies),
        }
    }

    /// Mean k as a float (exactly the engine's value).
    pub fn k_mean(&self) -> f64 {
        f64::from_bits(self.k_mean_bits)
    }

    /// k standard error as a float.
    pub fn k_std(&self) -> f64 {
        f64::from_bits(self.k_std_bits)
    }

    /// Serialize to the wire JSON object (one line, no spaces).
    pub fn to_json(&self) -> String {
        let hexes = |v: &[u64]| {
            v.iter()
                .map(|b| format!("\"{}\"", hash_hex(*b)))
                .collect::<Vec<_>>()
                .join(",")
        };
        let ints = |v: &[u64]| {
            v.iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let t = &self.tallies;
        format!(
            concat!(
                "{{\"plan_hash\":\"{}\",\"batches\":{},",
                "\"k_mean\":\"{}\",\"k_std\":\"{}\",",
                "\"k_history\":[{}],\"entropy\":[{}],",
                "\"tallies\":{{\"n_particles\":{},\"segments\":{},",
                "\"collisions\":{},\"absorptions\":{},\"fissions\":{},",
                "\"leaks\":{},\"segments_by_material\":[{}],",
                "\"collisions_by_material\":[{}],\"track_length\":\"{}\",",
                "\"k_track\":\"{}\",\"k_collision\":\"{}\",",
                "\"k_absorption\":\"{}\"}}}}"
            ),
            hash_hex(self.plan_hash),
            self.batches,
            hash_hex(self.k_mean_bits),
            hash_hex(self.k_std_bits),
            hexes(&self.k_history_bits),
            hexes(&self.entropy_bits),
            t.n_particles,
            t.segments,
            t.collisions,
            t.absorptions,
            t.fissions,
            t.leaks,
            ints(&t.segments_by_material),
            ints(&t.collisions_by_material),
            hash_hex(t.track_length_bits),
            hash_hex(t.k_track_bits),
            hash_hex(t.k_collision_bits),
            hash_hex(t.k_absorption_bits),
        )
    }

    /// Decode the wire JSON object produced by [`ServedResult::to_json`].
    pub fn from_value(v: &JsonValue) -> Result<ServedResult, String> {
        let hex = |v: &JsonValue, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(|x| x.as_str())
                .and_then(parse_hash_hex)
                .ok_or_else(|| format!("result: bad or missing hex field `{key}`"))
        };
        let int = |v: &JsonValue, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("result: bad or missing integer field `{key}`"))
        };
        let hex_vec = |key: &str| -> Result<Vec<u64>, String> {
            v.get(key)
                .and_then(|x| x.as_array())
                .ok_or_else(|| format!("result: missing array `{key}`"))?
                .iter()
                .map(|e| {
                    e.as_str()
                        .and_then(parse_hash_hex)
                        .ok_or_else(|| format!("result: bad hex element in `{key}`"))
                })
                .collect()
        };
        let t = v
            .get("tallies")
            .ok_or_else(|| "result: missing `tallies`".to_string())?;
        let int8 = |key: &str| -> Result<[u64; 8], String> {
            let items = t
                .get(key)
                .and_then(|x| x.as_array())
                .ok_or_else(|| format!("result: missing array `tallies.{key}`"))?;
            if items.len() != 8 {
                return Err(format!("result: `tallies.{key}` must have 8 elements"));
            }
            let mut out = [0u64; 8];
            for (slot, item) in out.iter_mut().zip(items) {
                *slot = item
                    .as_u64()
                    .ok_or_else(|| format!("result: bad element in `tallies.{key}`"))?;
            }
            Ok(out)
        };
        Ok(ServedResult {
            plan_hash: hex(v, "plan_hash")?,
            batches: int(v, "batches")?,
            k_mean_bits: hex(v, "k_mean")?,
            k_std_bits: hex(v, "k_std")?,
            k_history_bits: hex_vec("k_history")?,
            entropy_bits: hex_vec("entropy")?,
            tallies: TallySummary {
                n_particles: int(t, "n_particles")?,
                segments: int(t, "segments")?,
                collisions: int(t, "collisions")?,
                absorptions: int(t, "absorptions")?,
                fissions: int(t, "fissions")?,
                leaks: int(t, "leaks")?,
                segments_by_material: int8("segments_by_material")?,
                collisions_by_material: int8("collisions_by_material")?,
                track_length_bits: hex(t, "track_length")?,
                k_track_bits: hex(t, "k_track")?,
                k_collision_bits: hex(t, "k_collision")?,
                k_absorption_bits: hex(t, "k_absorption")?,
            },
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub fn sample(plan_hash: u64) -> ServedResult {
        ServedResult {
            plan_hash,
            batches: 3,
            k_mean_bits: 1.0234_f64.to_bits(),
            k_std_bits: 0.001_f64.to_bits(),
            k_history_bits: vec![1.0_f64.to_bits(), 1.01_f64.to_bits(), 1.02_f64.to_bits()],
            entropy_bits: vec![5.5_f64.to_bits(), 5.4_f64.to_bits(), 5.3_f64.to_bits()],
            tallies: TallySummary {
                n_particles: 400,
                segments: 9000,
                collisions: 7000,
                absorptions: 300,
                fissions: 120,
                leaks: 80,
                segments_by_material: [1, 2, 3, 4, 5, 6, 7, 8],
                collisions_by_material: [8, 7, 6, 5, 4, 3, 2, 1],
                track_length_bits: 123.456_f64.to_bits(),
                k_track_bits: 1.02_f64.to_bits(),
                k_collision_bits: 1.03_f64.to_bits(),
                k_absorption_bits: 1.04_f64.to_bits(),
            },
        }
    }

    #[test]
    fn json_round_trips_bit_exactly() {
        let r = sample(0xfeed_face_dead_beef);
        let v = JsonValue::parse(&r.to_json()).expect("valid json");
        assert_eq!(ServedResult::from_value(&v).expect("decode"), r);
    }

    #[test]
    fn negative_zero_and_nan_bits_survive() {
        let mut r = sample(1);
        r.k_mean_bits = (-0.0_f64).to_bits();
        r.k_std_bits = f64::NAN.to_bits();
        let v = JsonValue::parse(&r.to_json()).expect("valid json");
        let back = ServedResult::from_value(&v).expect("decode");
        assert_eq!(back, r);
    }
}
