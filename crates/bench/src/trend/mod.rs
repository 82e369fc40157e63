//! Perf-trajectory trend surface: history and noise-aware gating.
//!
//! `mcs-bench trend` closes the loop the per-commit benchmarks leave
//! open: a single run tells you *where you are*, the trend tells you
//! *which way you are moving*. Each invocation ingests the results
//! directory ([`ingest`]), folds it into one versioned [`TrendRecord`],
//! appends it to a per-ISA-leg JSONL history ([`history`]), classifies
//! every metric against the trailing median baseline ([`delta`]), and
//! emits a machine-readable `trend_report.json` ([`report`]) whose gate
//! verdict decides the CI job's exit code.
//!
//! The pipeline is deliberately idempotent: re-running on identical
//! inputs recognizes the trailing history record as the same
//! measurement, skips the append, and reports zero deltas — so a
//! re-triggered CI job can never double-count itself into a fake
//! "sustained" regression.

pub mod delta;
pub mod history;
pub mod ingest;
pub mod record;
pub mod report;

pub use delta::{rate_gate_warn_only, Tolerances};
pub use record::TrendRecord;
pub use report::TrendReport;

use std::path::PathBuf;

use crate::harness::{Harness, HARNESSES};

/// Everything that can go wrong in a trend run. All variants are
/// recoverable `Err`s — the trend pipeline never panics on bad input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrendError {
    /// Filesystem failure on `path`.
    Io {
        /// Path that failed.
        path: String,
        /// OS error text.
        msg: String,
    },
    /// A history line (1-based; 0 when the line is not yet known)
    /// failed strict validation.
    Corrupt {
        /// 1-based line number in the history file.
        line: usize,
        /// What was wrong with it.
        msg: String,
    },
    /// A results artifact failed to parse.
    Parse {
        /// The offending file.
        file: String,
        /// What was wrong with it.
        msg: String,
    },
    /// No ingestible benchmark artifact was found.
    NoInput {
        /// The directory that was searched.
        dir: String,
    },
}

impl std::fmt::Display for TrendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrendError::Io { path, msg } => write!(f, "io error on {path}: {msg}"),
            TrendError::Corrupt { line, msg } => {
                write!(f, "corrupt history (line {line}): {msg}")
            }
            TrendError::Parse { file, msg } => write!(f, "cannot parse {file}: {msg}"),
            TrendError::NoInput { dir } => {
                write!(f, "no ingestible BENCH_*.json under {dir}")
            }
        }
    }
}

impl std::error::Error for TrendError {}

/// Configuration of one trend run.
#[derive(Debug, Clone)]
pub struct TrendOptions {
    /// Directory holding the `BENCH_*.json` files (read, not searched:
    /// subdirectories are ignored).
    pub results_dir: PathBuf,
    /// Directory holding the per-leg history files.
    pub history_dir: PathBuf,
    /// ISA leg tag of this run (`simd-native`, `scalar`, `local`, ...).
    pub leg: String,
    /// Commit identifier stamped on the record.
    pub commit: String,
    /// Unix seconds stamped on the record.
    pub timestamp: u64,
    /// Whether to append the record (false = dry run: classify and
    /// report only).
    pub append: bool,
    /// The harnesses whose `BENCH_<name>.json` files are ingested
    /// ([`HARNESSES`] outside tests).
    pub harnesses: &'static [Harness],
}

impl TrendOptions {
    /// Options with the given directories and defaults everywhere else.
    pub fn new(results_dir: PathBuf, history_dir: PathBuf) -> Self {
        TrendOptions {
            results_dir,
            history_dir,
            leg: "local".to_string(),
            commit: "unknown".to_string(),
            timestamp: 0,
            append: true,
            harnesses: HARNESSES,
        }
    }
}

/// What one trend run produced.
#[derive(Debug, Clone)]
pub struct TrendOutcome {
    /// The record built from this run's artifacts.
    pub record: TrendRecord,
    /// The full report (gate verdict, deltas).
    pub report: TrendReport,
    /// Whether the record was appended to the history (false on dry
    /// runs and idempotent re-runs of an already-recorded measurement).
    pub appended: bool,
    /// History length after this run, including the evaluated record.
    pub history_len: usize,
}

/// Run the full trend pipeline: ingest → record → classify → report →
/// (append).
pub fn run(opts: &TrendOptions) -> Result<TrendOutcome, TrendError> {
    let ing = ingest::ingest(&opts.results_dir, opts.harnesses)?;

    let record = TrendRecord {
        commit: opts.commit.clone(),
        timestamp: opts.timestamp,
        leg: opts.leg.clone(),
        mcs_scale: ing.mcs_scale,
        host_threads: ing.host_threads,
        rates: ing.rates,
        counters: ing.counters,
    };

    let hist_path = history::history_file(&opts.history_dir, &opts.leg);
    let full_history = history::load(&hist_path)?;

    // Idempotency: if the trailing record is the same measurement
    // (identical commit + values, timestamp ignored), this run is a
    // replay — compare against the history *before* that record and do
    // not append a duplicate.
    let duplicate_of_tail = full_history
        .last()
        .is_some_and(|tail| tail.same_measurement(&record));
    let prior = if duplicate_of_tail {
        &full_history[..full_history.len() - 1]
    } else {
        &full_history[..]
    };

    let deltas = delta::classify(prior, &record);

    let should_append = opts.append && !duplicate_of_tail;
    if should_append {
        history::append(&hist_path, &full_history, &record, history::MAX_KEEP)?;
    }
    let history_len = if duplicate_of_tail {
        full_history.len()
    } else {
        // Evaluated record counts whether or not it was persisted.
        (full_history.len() + 1).min(history::MAX_KEEP)
    };

    let report = TrendReport {
        leg: opts.leg.clone(),
        commit: opts.commit.clone(),
        timestamp: opts.timestamp,
        mcs_scale: record.mcs_scale,
        host_threads: record.host_threads,
        history_len,
        appended: should_append,
        warn_only_rates: rate_gate_warn_only(record.host_threads),
        deltas,
        sources: ing.sources,
        skipped: ing.skipped,
    };

    Ok(TrendOutcome {
        record,
        report,
        appended: should_append,
        history_len,
    })
}
