//! `mcs-bench trend`: the perf-trajectory gate.
//!
//! Ingests the `BENCH_*.json` files of one results directory, appends
//! one [`TrendRecord`](mcs_bench::trend::TrendRecord) to the per-leg
//! JSONL history, classifies every metric against the trailing median
//! baseline, writes `trend_report.json` into the results directory, and
//! exits non-zero on a sustained regression.
//!
//! Exit codes: `0` gate passed, `1` gate failed (sustained regression
//! beyond tolerance), `2` the run itself failed (corrupt history,
//! unparseable artifact, no input).
//!
//! ```text
//! trend [--results-dir DIR] [--history-dir DIR] [--leg TAG]
//!       [--commit SHA] [--dry-run]
//! ```
//!
//! Defaults: `--results-dir` is `MCS_RESULTS_DIR` or `results/`,
//! `--history-dir` is `<results-dir>/trend`, `--leg` is `local`, and
//! `--commit` is `GITHUB_SHA` or `git rev-parse HEAD`.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use mcs_bench::trend::{self, TrendOptions, TrendOutcome};

/// Best-effort commit id: `--commit` > `GITHUB_SHA` > `git rev-parse`.
fn detect_commit() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn usage() -> ! {
    eprintln!(
        "usage: trend [--results-dir DIR] [--history-dir DIR] [--leg TAG] [--commit SHA] [--dry-run]"
    );
    std::process::exit(2);
}

fn parse_cli() -> TrendOptions {
    let mut opts = TrendOptions::new(mcs_bench::results_dir(), PathBuf::new());
    let mut history_dir: Option<PathBuf> = None;
    opts.commit = String::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--results-dir" => opts.results_dir = PathBuf::from(value("--results-dir")),
            "--history-dir" => history_dir = Some(PathBuf::from(value("--history-dir"))),
            "--leg" => opts.leg = value("--leg"),
            "--commit" => opts.commit = value("--commit"),
            "--dry-run" => opts.append = false,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage();
            }
        }
    }
    opts.history_dir = history_dir.unwrap_or_else(|| opts.results_dir.join("trend"));
    if opts.commit.is_empty() {
        opts.commit = detect_commit();
    }
    opts.timestamp = now();
    opts
}

fn print_summary(out: &TrendOutcome) {
    let r = &out.report;
    println!("==============================================================");
    println!(
        "TREND: leg {} @ {} (scale {}, {} threads)",
        r.leg, r.commit, r.mcs_scale, r.host_threads
    );
    println!(
        "history: {} record(s){}",
        out.history_len,
        if out.appended {
            " (appended)"
        } else if r.appended {
            ""
        } else {
            " (not appended: dry run or already recorded)"
        }
    );
    if r.warn_only_rates {
        println!("note: 1-thread host — rate regressions are warn-only");
    }
    println!("==============================================================");

    let noteworthy: Vec<_> = r
        .deltas
        .iter()
        .filter(|d| d.class.name() != "ok" && d.class.name() != "no_baseline")
        .collect();
    if noteworthy.is_empty() {
        let n_base = r.deltas.iter().filter(|d| d.baseline.is_some()).count();
        println!(
            "deltas: {} metric(s), {} with baseline, all within tolerance",
            r.deltas.len(),
            n_base
        );
    } else {
        println!(
            "{:<44} {:>12} {:>12} {:>9} {:>4} {:<10}",
            "metric", "current", "baseline", "delta%", "bad", "class"
        );
        for d in noteworthy {
            println!(
                "{:<44} {:>12.3e} {:>12} {:>+9.2} {:>4} {:<10}{}",
                d.metric,
                d.current,
                d.baseline.map_or("-".to_string(), |b| format!("{b:.3e}")),
                d.delta_pct,
                d.consecutive_bad,
                d.class.name(),
                if d.gating { "  <-- GATING" } else { "" },
            );
        }
    }

    println!();
    if r.gate_passed() {
        println!(
            "GATE: PASS ({} suspect, {} improved)",
            r.n_class(mcs_bench::trend::delta::DeltaClass::Suspect),
            r.n_class(mcs_bench::trend::delta::DeltaClass::Improved)
        );
    } else {
        println!("GATE: FAIL — sustained regression in:");
        for d in r.gating() {
            println!(
                "  {} ({}): {:+.2}% over {} consecutive record(s)",
                d.metric,
                d.kind.name(),
                d.delta_pct,
                d.consecutive_bad
            );
        }
    }
}

fn main() -> ExitCode {
    let opts = parse_cli();
    let report_path = opts.results_dir.join("trend_report.json");
    let out = match trend::run(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("trend: error: {e}");
            return ExitCode::from(2);
        }
    };
    let written = out
        .report
        .to_json()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
        .and_then(|json| std::fs::write(&report_path, json));
    if let Err(e) = written {
        eprintln!("trend: error: cannot write {}: {e}", report_path.display());
        return ExitCode::from(2);
    }
    print_summary(&out);
    println!("[json] wrote {}", report_path.display());
    if out.report.gate_passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
