//! The check runner: `cargo run --release -p mcs-check [-- --bless] [-- -v]`.
//!
//! Environment:
//! * `MCS_SCALE`       — workload scale (default [`mcs_check::DEFAULT_SCALE`];
//!   anything but a positive number is an error);
//! * `MCS_RESULTS_DIR` — where `check_report.json` and `check/` (the
//!   fresh CSVs and `BENCH_*.json`) go (default: the workspace's
//!   `results/`);
//! * `MCS_GOLDEN_DIR`  — blessed goldens (default: the workspace's
//!   `results/golden/`);
//! * `MCS_BLESS`       — same as `--bless`: regenerate the goldens.
//!
//! Exit status is non-zero if any invariant or golden comparison fails.

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use mcs_bench::harness::{Table, HARNESSES};
use mcs_check::{golden, CheckReport, GoldenOutcome};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let bless = args.iter().any(|a| a == "--bless") || std::env::var("MCS_BLESS").is_ok();
    let verbose = args.iter().any(|a| a == "--verbose" || a == "-v");
    let scale = mcs_bench::scale_from_env(mcs_check::DEFAULT_SCALE).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let results_dir = mcs_bench::results_dir();
    let golden_dir = std::env::var_os("MCS_GOLDEN_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| mcs_bench::workspace_root().join("results/golden"));

    let threads = mcs_bench::host_threads();
    let mut report = CheckReport {
        scale,
        threads,
        ..Default::default()
    };
    let mut tables: Vec<Table> = Vec::new();

    println!("mcs-check: scale {scale}, {threads} threads, bless: {bless}");
    let t_all = Instant::now();

    // Every registered harness, in registry order. Each contributes its
    // invariants and exported counters to the report and its tables to
    // the golden comparison. The fresh CSVs and BENCH_<name>.json go
    // under results/check/ so a CI artifact upload always carries what
    // this run actually produced (never clobbering the committed
    // full-scale results/), and the trend gate finds them there.
    let check_dir = results_dir.join("check");
    for h in HARNESSES {
        let t0 = Instant::now();
        let out = h.execute(scale, verbose);
        out.write(&check_dir).expect("write results/check");
        report.invariants.extend(out.invariants);
        report.counters.extend(out.counters);
        tables.extend(out.tables);
        println!(
            "  [{:>14}] done in {:.2}s",
            h.name,
            t0.elapsed().as_secs_f64()
        );
    }

    if bless {
        fs::create_dir_all(&golden_dir).expect("create golden dir");
        for t in &tables {
            fs::write(golden_dir.join(format!("{}.csv", t.name)), t.to_csv())
                .expect("write golden csv");
        }
        fs::write(golden_dir.join("MANIFEST"), format!("scale={scale}\n"))
            .expect("write golden manifest");
        println!(
            "blessed {} goldens at scale {scale} into {}",
            tables.len(),
            golden_dir.display()
        );
    } else {
        let blessed_scale = fs::read_to_string(golden_dir.join("MANIFEST"))
            .ok()
            .and_then(|m| {
                m.lines()
                    .find_map(|l| l.strip_prefix("scale=").and_then(|v| v.parse::<f64>().ok()))
            });
        let outcome = |t: &Table, passed: bool, detail: String| GoldenOutcome {
            artifact: t.name.to_string(),
            passed,
            detail,
        };
        const BLESS_HINT: &str = "run `cargo run -p mcs-check -- --bless`";
        report
            .golden
            .extend(tables.iter().map(|t| match blessed_scale {
                Some(s) if (s - scale).abs() < 1e-12 => {
                    let path = golden_dir.join(format!("{}.csv", t.name));
                    match fs::read_to_string(&path) {
                        Ok(text) => golden::compare(t, &text),
                        Err(_) => outcome(
                            t,
                            false,
                            format!("missing golden {} — {BLESS_HINT}", path.display()),
                        ),
                    }
                }
                // Goldens are scale-specific; at any other scale only the
                // invariants apply.
                Some(s) => outcome(
                    t,
                    true,
                    format!("skipped (goldens blessed at scale {s}, running at {scale})"),
                ),
                None => outcome(t, false, format!("no goldens found — {BLESS_HINT}")),
            }));
    }

    let report_path = results_dir.join("check_report.json");
    fs::create_dir_all(&results_dir).expect("create results dir");
    let json = report.to_json().expect("check report has a JSON form");
    fs::write(&report_path, json).expect("write check_report.json");

    // Human-readable summary.
    println!(
        "\n== mcs-check: {} invariants, {} golden artifacts, {:.1}s ==",
        report.invariants.len(),
        report.golden.len(),
        t_all.elapsed().as_secs_f64()
    );
    for c in &report.invariants {
        println!("  {c}");
    }
    if report.n_warned() > 0 {
        println!(
            "mcs-check: {} warn-band invariant(s) out of band (reported, not gating)",
            report.n_warned()
        );
    }
    for g in &report.golden {
        println!(
            "  {} golden {:<28} {}",
            if g.passed { "PASS" } else { "FAIL" },
            g.artifact,
            g.detail
        );
    }
    println!("report: {}", report_path.display());

    if report.passed() {
        println!("mcs-check: all checks passed");
    } else {
        println!("mcs-check: {} check(s) FAILED", report.n_failed());
        std::process::exit(1);
    }
}
