//! The `mcs-bench` binary end to end: registry listing, a real run that
//! leaves its files where `MCS_RESULTS_DIR` says, and typed failures
//! for a bad name or a bad `MCS_SCALE`.

use std::path::PathBuf;
use std::process::{Command, Output};

use mcs_bench::harness::HARNESSES;

fn mcs_bench(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mcs-bench"))
        .args(args)
        .env_remove("MCS_SCALE")
        .envs(env.iter().copied())
        .output()
        .expect("spawn mcs-bench")
}

#[test]
fn list_names_every_registry_entry() {
    let out = mcs_bench(&["--list"], &[]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), HARNESSES.len());
    for h in HARNESSES {
        assert!(text.lines().any(|l| l.starts_with(h.name)), "{}", h.name);
    }
}

#[test]
fn run_writes_csv_and_stamped_json_under_the_results_dir() {
    let dir: PathBuf = std::env::temp_dir().join(format!("mcs-bench-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = mcs_bench(
        &["run", "fig1"],
        &[
            ("MCS_RESULTS_DIR", dir.to_str().unwrap()),
            ("MCS_SCALE", "0.5"),
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read_to_string(dir.join("fig1_u238_total_xs.csv")).unwrap();
    assert!(csv.starts_with("energy_mev,sigma_total_barns\n"));
    let json = std::fs::read_to_string(dir.join("BENCH_fig1.json")).unwrap();
    assert!(json.contains("\"bench\": \"fig1\""), "{json}");
    assert!(json.contains("\"mcs_scale\": 0.5"), "{json}");
    assert!(json.contains("\"host_threads\": "), "{json}");
}

#[test]
fn bad_scale_and_unknown_names_are_usage_errors() {
    for bad in ["abc", "0", "-1", "inf", ""] {
        let out = mcs_bench(&["run", "fig1"], &[("MCS_SCALE", bad)]);
        assert_eq!(out.status.code(), Some(2), "MCS_SCALE={bad:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("MCS_SCALE"), "{err}");
    }
    let out = mcs_bench(&["run", "no_such_harness"], &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no_such_harness"));
    assert_eq!(mcs_bench(&[], &[]).status.code(), Some(2));
}
