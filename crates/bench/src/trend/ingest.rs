//! Ingestion: the `BENCH_*.json` files of one results directory → one
//! snapshot.
//!
//! Every `BENCH_<harness>.json` is written by
//! [`HarnessRun::write`](crate::harness::HarnessRun::write) and carries
//! its own trend view (`trend.rates`, `trend.counters`, derived from
//! the tables' column declarations), its exported instrumentation
//! counters and its `host_threads` stamp; ingestion merges those
//! generically and never names a harness.
//!
//! Only the directory itself is read — a CI run points the gate at the
//! `check/` directory `mcs-check` leaves, a local run at the committed
//! full-scale files — and a record holds one scale: every ingested file
//! must carry the same `mcs_scale`, and a directory that mixes scales is
//! a [`TrendError::Parse`] naming both. A file whose `bench` tag no
//! registered harness owns is skipped with a note that lands in the
//! report's `skipped` list; a registered harness's file without a scale
//! stamp is a hard error — its producer is broken, and skipping it would
//! silently un-gate that benchmark.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use mcs_prof::value::JsonValue;
use mcs_prof::Counters;

use super::TrendError;
use crate::harness::Harness;

/// Everything ingested from one results directory.
#[derive(Debug, Clone, Default)]
pub struct Ingested {
    /// Workload scale every ingested file was stamped with.
    pub mcs_scale: f64,
    /// Host threads of the measured run (the files' `host_threads`
    /// stamp).
    pub host_threads: usize,
    /// Rate metrics keyed by stable cell ID (`grid.hash.b100000`, ...).
    pub rates: BTreeMap<String, f64>,
    /// Deterministic counters (per-cell + the exported `xs.*`/`geom.*`).
    pub counters: BTreeMap<String, u64>,
    /// Files that contributed to this record.
    pub sources: Vec<String>,
    /// Files found but not ingested, with the reason.
    pub skipped: Vec<String>,
}

fn parse_err(file: &Path, msg: impl Into<String>) -> TrendError {
    TrendError::Parse {
        file: file.display().to_string(),
        msg: msg.into(),
    }
}

fn read_json(path: &Path) -> Result<JsonValue, TrendError> {
    let text = fs::read_to_string(path).map_err(|e| TrendError::Io {
        path: path.display().to_string(),
        msg: e.to_string(),
    })?;
    JsonValue::parse(&text).map_err(|e| parse_err(path, e))
}

/// The `BENCH_*.json` files directly under `dir`, by name.
fn discover(dir: &Path) -> Vec<(String, PathBuf)> {
    let mut files: Vec<(String, PathBuf)> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| (e.file_name().to_string_lossy().into_owned(), e.path()))
        .filter(|(name, _)| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    files.sort();
    files
}

/// Ingest every artifact under `results_dir` written by one of
/// `harnesses` into one snapshot.
///
/// Errors if no benchmark file could be ingested at all, if the files
/// disagree on their scale, or if a registered harness's file is
/// malformed or unstamped; a file with an unknown bench tag is noted,
/// not fatal.
pub fn ingest(results_dir: &Path, harnesses: &[Harness]) -> Result<Ingested, TrendError> {
    let mut out = Ingested {
        host_threads: crate::host_threads(),
        ..Default::default()
    };
    // The scale of the first ingested file, and that file's name.
    let mut first: Option<(f64, String)> = None;
    for (name, path) in discover(results_dir) {
        // A malformed artifact is a hard error: it means the producing
        // job is broken, which the gate must surface.
        let doc = read_json(&path)?;
        let tag = doc
            .get("bench")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| parse_err(&path, "missing string \"bench\""))?;
        if !harnesses.iter().any(|h| h.name == tag) {
            out.skipped
                .push(format!("{name} (unknown bench tag {tag:?})"));
            continue;
        }
        let scale = doc
            .get("mcs_scale")
            .and_then(JsonValue::as_f64)
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or_else(|| parse_err(&path, "registered bench has no \"mcs_scale\" stamp"))?;
        match &first {
            Some((s, first_name)) if *s != scale => {
                return Err(parse_err(
                    &path,
                    format!(
                        "scale {scale} != {first_name}'s scale {s}: \
                         a results directory holds one scale"
                    ),
                ))
            }
            Some(_) => {}
            None => first = Some((scale, name.clone())),
        }
        ingest_bench(&doc, &path, &mut out)?;
        out.sources.push(name);
    }
    let (mcs_scale, _) = first.ok_or_else(|| TrendError::NoInput {
        dir: results_dir.display().to_string(),
    })?;
    out.mcs_scale = mcs_scale;
    Ok(out)
}

fn merge_counters(
    into: &mut BTreeMap<String, u64>,
    node: Option<&JsonValue>,
    path: &Path,
) -> Result<(), TrendError> {
    if let Some(node) = node {
        let counters = Counters::from_value(node).map_err(|e| parse_err(path, e))?;
        into.extend(counters.iter().map(|(k, v)| (k.to_string(), v)));
    }
    Ok(())
}

/// Fold one `BENCH_<harness>.json` into the snapshot: its trend view,
/// its exported counters and its host stamp.
fn ingest_bench(doc: &JsonValue, path: &Path, out: &mut Ingested) -> Result<(), TrendError> {
    let missing = |what: &str| parse_err(path, format!("missing {what}"));
    let trend = doc
        .get("trend")
        .ok_or_else(|| missing("\"trend\" object"))?;
    let rates = trend
        .get("rates")
        .and_then(JsonValue::as_object)
        .ok_or_else(|| missing("\"trend.rates\" object"))?;
    for (key, v) in rates {
        let rate = v
            .as_f64()
            .ok_or_else(|| parse_err(path, format!("rate {key:?} is not a number")))?;
        out.rates.insert(key.clone(), rate);
    }
    merge_counters(&mut out.counters, doc.get("counters"), path)?;
    merge_counters(&mut out.counters, trend.get("counters"), path)?;
    if let Some(threads) = doc.get("host_threads").and_then(JsonValue::as_u64) {
        out.host_threads = (threads as usize).max(1);
    }
    Ok(())
}
