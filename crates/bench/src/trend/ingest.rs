//! Ingestion: `results/BENCH_*.json` + `check_report.json` → one record.
//!
//! Every `BENCH_<harness>.json` is written by
//! [`HarnessRun::write`](crate::harness::HarnessRun::write) and carries
//! its own trend view (`trend.rates`, `trend.counters`, derived from
//! the tables' column declarations) and its exported instrumentation
//! counters; ingestion merges those generically and never names a
//! harness.
//!
//! Discovery looks in the results dir *and* its `check/` subdirectory
//! (where `mcs-check` leaves the fresh reduced-scale files of a CI
//! run); on a basename collision the `check/` copy wins, so a CI run
//! trends its own fresh measurements rather than the committed
//! full-scale artifacts that came along with the checkout.
//!
//! Records must be comparable, so every ingested file has to agree on
//! `mcs_scale`: the consensus scale is the most common one among the
//! candidate files (ties break toward `check_report.json`'s scale), and
//! files at any other scale are skipped with a note that lands in the
//! report's `skipped` list instead of poisoning the baseline. A file
//! whose `bench` tag no registered harness owns is skipped the same
//! way; a registered harness's file without a scale stamp is a hard
//! error — its producer is broken, and skipping it would silently
//! un-gate that benchmark.

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
    /// Consensus workload scale of the ingested files.
    pub mcs_scale: f64,
    /// Host threads of the measured run (from `check_report.json` when
    /// available, else the bench files' stamp).
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

/// Candidate files: `BENCH_*.json` under `dir` and `dir/check`
/// (preferring `check/` on collision), plus `check_report.json`.
fn discover(dir: &Path) -> Vec<PathBuf> {
    let mut by_name: BTreeMap<String, PathBuf> = BTreeMap::new();
    for sub in [dir.to_path_buf(), dir.join("check")] {
        let Ok(entries) = fs::read_dir(&sub) else {
            continue;
        };
        for e in entries.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                // Later iteration (check/) overwrites the committed copy.
                by_name.insert(name, e.path());
            }
        }
    }
    let mut files: Vec<PathBuf> = by_name.into_values().collect();
    for candidate in [
        dir.join("check_report.json"),
        dir.join("check/check_report.json"),
    ] {
        if candidate.is_file() {
            files.push(candidate);
            break;
        }
    }
    files
}

fn file_label(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .display()
        .to_string()
}

/// Scale stamped on a candidate file (`mcs_scale` for benches, `scale`
/// for the check report); `None` if absent.
fn scale_of(doc: &JsonValue) -> Option<f64> {
    doc.get("mcs_scale")
        .or_else(|| doc.get("scale"))
        .and_then(JsonValue::as_f64)
        .filter(|s| s.is_finite() && *s > 0.0)
}

/// Ingest every artifact under `results_dir` written by one of
/// `harnesses` into one snapshot.
///
/// Errors if no benchmark file could be ingested at all, or if a
/// registered harness's file is malformed or unstamped; files at
/// another scale or with an unknown bench tag are noted, not fatal.
pub fn ingest(results_dir: &Path, harnesses: &[Harness]) -> Result<Ingested, TrendError> {
    let is_report = |path: &Path| path.file_name().is_some_and(|n| n == "check_report.json");
    // First pass: parse all candidates (a malformed artifact is a hard
    // error: it means the producing job is broken, which the gate must
    // surface), drop foreign bench files, and vote on the scale.
    let mut skipped: Vec<String> = Vec::new();
    let mut parsed: Vec<(PathBuf, JsonValue, f64)> = Vec::new();
    let mut scale_votes: Vec<(f64, usize)> = Vec::new();
    let mut report_scale = None;
    for path in discover(results_dir) {
        let doc = read_json(&path)?;
        let label = file_label(&path, results_dir);
        if !is_report(&path) {
            let tag = doc
                .get("bench")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| parse_err(&path, "missing string \"bench\""))?;
            if !harnesses.iter().any(|h| h.name == tag) {
                skipped.push(format!("{label} (unknown bench tag {tag:?})"));
                continue;
            }
        }
        let Some(scale) = scale_of(&doc) else {
            if is_report(&path) {
                skipped.push(format!("{label} (no scale stamp)"));
                continue;
            }
            return Err(parse_err(
                &path,
                "registered bench has no \"mcs_scale\" stamp",
            ));
        };
        if is_report(&path) {
            report_scale = Some(scale);
        }
        match scale_votes.iter_mut().find(|(v, _)| *v == scale) {
            Some((_, n)) => *n += 1,
            None => scale_votes.push((scale, 1)),
        }
        parsed.push((path, doc, scale));
    }
    let consensus = scale_votes
        .iter()
        .max_by(|a, b| {
            a.1.cmp(&b.1).then_with(|| {
                // Tie-break toward the check report's scale.
                let a_is_rep = Some(a.0) == report_scale;
                let b_is_rep = Some(b.0) == report_scale;
                a_is_rep.cmp(&b_is_rep)
            })
        })
        .map(|&(s, _)| s);
    let no_input = || TrendError::NoInput {
        dir: results_dir.display().to_string(),
    };
    let mcs_scale = consensus.ok_or_else(no_input)?;

    let mut out = Ingested {
        mcs_scale,
        host_threads: crate::host_threads(),
        skipped,
        ..Default::default()
    };
    let mut report = None;
    let mut ingested_bench = false;
    for (path, doc, scale) in &parsed {
        let label = file_label(path, results_dir);
        if *scale != mcs_scale {
            out.skipped
                .push(format!("{label} (scale {scale} != consensus {mcs_scale})"));
            continue;
        }
        if is_report(path) {
            report = Some((path, doc));
        } else {
            ingest_bench(doc, path, &mut out)?;
            ingested_bench = true;
        }
        out.sources.push(label);
    }
    if !ingested_bench {
        return Err(no_input());
    }

    // The check report ran the same harnesses in one process: its host
    // stamp and surfaced counters are authoritative at this scale.
    if let Some((path, doc)) = report {
        if let Some(threads) = doc.get("threads").and_then(JsonValue::as_u64) {
            out.host_threads = (threads as usize).max(1);
        }
        merge_counters(&mut out.counters, doc.get("counters"), path)?;
    }
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
