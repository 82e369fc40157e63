//! Per-leg JSONL history files: strict load, idempotent append.
//!
//! One history file per ISA leg (`history-<leg>.jsonl`), one
//! [`TrendRecord`] per line. Loading is all-or-nothing: any
//! unparseable, schema-drifted, or truncated line is a hard
//! [`TrendError::Corrupt`] naming the line — a damaged history must
//! stop the gate rather than silently shrink the baseline window (a
//! truncated file would otherwise *hide* the regression it was about
//! to catch).

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use super::record::TrendRecord;
use super::TrendError;

/// History records kept per leg; [`append`] trims the oldest beyond this.
pub const MAX_KEEP: usize = 500;

/// History filename for an ISA leg.
pub fn history_file(dir: &Path, leg: &str) -> PathBuf {
    dir.join(format!("history-{leg}.jsonl"))
}

/// Load every record of a history file, strictly.
///
/// A missing file is an empty history (`Ok(vec![])`) — that is the
/// legitimate first-run state. Anything else that fails to read or
/// parse is an `Err`.
pub fn load(path: &Path) -> Result<Vec<TrendRecord>, TrendError> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => {
            return Err(TrendError::Io {
                path: path.display().to_string(),
                msg: e.to_string(),
            })
        }
    };
    // A non-empty file that does not end in '\n' lost its tail mid-write.
    if !text.is_empty() && !text.ends_with('\n') {
        return Err(TrendError::Corrupt {
            line: text.lines().count(),
            msg: "history file is truncated (no trailing newline)".into(),
        });
    }
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = TrendRecord::from_json_line(line).map_err(|e| match e {
            TrendError::Corrupt { msg, .. } => TrendError::Corrupt { line: i + 1, msg },
            other => other,
        })?;
        records.push(rec);
    }
    Ok(records)
}

/// Append one record, keeping at most `max_keep` records in the file.
///
/// The trimmed rewrite goes through a sibling temp file + rename so a
/// crash mid-write never leaves a half-line behind for the next run's
/// strict loader to trip on.
pub fn append(
    path: &Path,
    existing: &[TrendRecord],
    record: &TrendRecord,
    max_keep: usize,
) -> Result<(), TrendError> {
    let err = |msg: String| TrendError::Io {
        path: path.display().to_string(),
        msg,
    };
    let io_err = |e: std::io::Error| err(e.to_string());
    let line = |r: &TrendRecord| r.to_json_line().map_err(|e| err(e.to_string()));
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(io_err)?;
    }
    if existing.len() + 1 > max_keep {
        // Rewrite the trimmed window atomically.
        let keep_from = existing.len() + 1 - max_keep;
        let mut out = String::new();
        for r in existing[keep_from..].iter().chain([record]) {
            out.push_str(&line(r)?);
            out.push('\n');
        }
        let tmp = path.with_extension("jsonl.tmp");
        fs::write(&tmp, out).map_err(io_err)?;
        fs::rename(&tmp, path).map_err(io_err)?;
    } else {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io_err)?;
        writeln!(f, "{}", line(record)?).map_err(io_err)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn rec(commit: &str, ts: u64) -> TrendRecord {
        TrendRecord {
            commit: commit.into(),
            timestamp: ts,
            leg: "scalar".into(),
            mcs_scale: 0.1,
            host_threads: 2,
            rates: BTreeMap::from([("grid.hash.b1000".to_string(), 1000.0 + ts as f64)]),
            counters: BTreeMap::from([("xs.lookups".to_string(), 42u64)]),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mcs-trend-hist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn missing_file_is_empty_history() {
        let d = tmpdir("missing");
        assert_eq!(load(&history_file(&d, "scalar")).unwrap(), vec![]);
    }

    #[test]
    fn append_then_load_round_trips_in_order() {
        let d = tmpdir("roundtrip");
        let path = history_file(&d, "scalar");
        let mut all = Vec::new();
        for i in 0..4 {
            let r = rec(&format!("c{i}"), i);
            append(&path, &all, &r, 100).unwrap();
            all.push(r);
        }
        assert_eq!(load(&path).unwrap(), all);
    }

    #[test]
    fn truncated_tail_is_a_hard_err() {
        let d = tmpdir("trunc");
        let path = history_file(&d, "scalar");
        append(&path, &[], &rec("c0", 0), 100).unwrap();
        let mut text = fs::read_to_string(&path).unwrap();
        text.truncate(text.len() - 10); // lose the tail, incl. newline
        fs::write(&path, text).unwrap();
        match load(&path) {
            Err(TrendError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_middle_line_is_named() {
        let d = tmpdir("corrupt");
        let path = history_file(&d, "scalar");
        let mut all = Vec::new();
        for i in 0..3 {
            let r = rec(&format!("c{i}"), i);
            append(&path, &all, &r, 100).unwrap();
            all.push(r);
        }
        let text = fs::read_to_string(&path).unwrap();
        let mangled: Vec<String> = text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i == 1 {
                    l.replace("\"rates\"", "\"ratez\"")
                } else {
                    l.to_string()
                }
            })
            .collect();
        fs::write(&path, mangled.join("\n") + "\n").unwrap();
        match load(&path) {
            Err(TrendError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Corrupt at line 2, got {other:?}"),
        }
    }

    #[test]
    fn trim_keeps_newest_window() {
        let d = tmpdir("trim");
        let path = history_file(&d, "scalar");
        let mut all = Vec::new();
        for i in 0..10 {
            let r = rec(&format!("c{i}"), i);
            append(&path, &all, &r, 4).unwrap();
            all = load(&path).unwrap();
        }
        assert_eq!(all.len(), 4);
        assert_eq!(all.last().unwrap().commit, "c9");
        assert_eq!(all[0].commit, "c6");
    }
}
