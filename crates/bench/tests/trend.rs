//! End-to-end tests of the `mcs-bench trend` pipeline: synthetic
//! results directories run through [`mcs_bench::trend::run`], plus
//! property tests of the JSONL codec and the blessed report-schema
//! golden.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use mcs_bench::harness::{Column, Fmt, HarnessRun, Table};
use mcs_bench::trend::{self, history, record::TrendRecord, report, TrendError, TrendOptions};
use proptest::prelude::*;

/// A fresh scratch dir per test (std tempdir only — no extra deps).
fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mcs-trend-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

/// Write one harness's result files the way `mcs-bench run` does, at
/// `scale`, exporting `counters`, stamped as a 4-thread host so rate
/// regressions gate.
fn write_bench(
    dir: &Path,
    harness: &'static str,
    scale: f64,
    table: Table,
    counters: &[(&str, u64)],
) {
    HarnessRun {
        harness,
        scale,
        tables: vec![table],
        counters: counters.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        ..Default::default()
    }
    .write(dir)
    .unwrap();
    let path = dir.join(format!("BENCH_{harness}.json"));
    let stamp = |n: usize| format!("\"host_threads\": {n},");
    edit(&path, &stamp(mcs_bench::host_threads()), &stamp(4));
}

/// Replace `from` (which must occur) by `to` in the file at `path`.
fn edit(path: &Path, from: &str, to: &str) {
    let text = fs::read_to_string(path).unwrap();
    assert!(text.contains(from), "{from:?} not in {text}");
    fs::write(path, text.replace(from, to)).unwrap();
}

/// Write a minimal but complete synthetic results directory whose grid
/// rates are scaled by `rate_factor` (1.0 = the healthy baseline).
fn write_results(dir: &Path, rate_factor: f64) {
    write_results_at(dir, rate_factor, 0.1);
}

/// [`write_results`] stamped with `scale`.
fn write_results_at(dir: &Path, rate_factor: f64, scale: f64) {
    let mut grid = Table::new(
        "BENCH_grid_backend",
        vec![
            Column::key("backend"),
            Column::key("bank_size").prefixed("b"),
            Column::measured("lookups_measured_per_s", Fmt::Fixed(1)).trended(),
            Column::exact("index_bytes", Fmt::Plain).trended(),
        ],
    )
    .trended("grid");
    grid.push(vec![
        "hash".into(),
        10_000usize.into(),
        (900_000.0 * rate_factor).into(),
        375_592u64.into(),
    ]);
    grid.push(vec![
        "binary".into(),
        10_000usize.into(),
        480_000.0.into(),
        0u64.into(),
    ]);
    let counters = [
        ("xs.bin_scan_steps", 110_751),
        ("xs.gather_span_bytes", 11_600_000),
        ("xs.gather_span_pairs", 57_125),
        ("xs.index_bytes", 13_024),
        ("xs.lookups", 57_971),
    ];
    write_bench(dir, "grid_backend", scale, grid, &counters);
}

fn opts(results: &Path, hist: &Path, commit: &str, ts: u64) -> TrendOptions {
    let mut o = TrendOptions::new(results.to_path_buf(), hist.to_path_buf());
    o.leg = "test".into();
    o.commit = commit.into();
    o.timestamp = ts;
    o
}

#[test]
fn run_twice_on_identical_inputs_is_idempotent() {
    let d = scratch("idempotent");
    let results = d.join("results");
    let hist = d.join("trend");
    fs::create_dir_all(&results).unwrap();
    write_results(&results, 1.0);

    let first = trend::run(&opts(&results, &hist, "c0", 100)).unwrap();
    assert!(first.appended);
    assert_eq!(first.history_len, 1);

    // Second run: same inputs, later timestamp. Must not double-append,
    // must report zero deltas.
    let second = trend::run(&opts(&results, &hist, "c0", 200)).unwrap();
    assert!(!second.appended, "identical measurement must not re-append");
    assert_eq!(second.history_len, 1);
    assert!(second.report.gate_passed());
    for delta in &second.report.deltas {
        assert_eq!(delta.delta_pct, 0.0, "{} delta not zero", delta.metric);
    }
    let on_disk = history::load(&history::history_file(&hist, "test")).unwrap();
    assert_eq!(on_disk.len(), 1, "history must hold exactly one record");
}

#[test]
fn injected_regression_must_trip_the_gate_when_sustained() {
    let d = scratch("regression");
    let results = d.join("results");
    let hist = d.join("trend");
    fs::create_dir_all(&results).unwrap();

    // Build a healthy 5-record history.
    for i in 0..5 {
        write_results(&results, 1.0 + 0.001 * i as f64); // tiny jitter
        let out = trend::run(&opts(&results, &hist, &format!("good{i}"), i)).unwrap();
        assert!(out.report.gate_passed(), "healthy record {i} must pass");
    }

    // Inject a 25% rate regression. First bad record: suspect, not gating.
    write_results(&results, 0.75);
    let first_bad = trend::run(&opts(&results, &hist, "bad0", 100)).unwrap();
    assert!(
        first_bad.report.gate_passed(),
        "single bad record must be warn-only (suspect)"
    );
    assert!(first_bad
        .report
        .deltas
        .iter()
        .any(|x| x.class.name() == "suspect"));

    // Second consecutive bad record: sustained ⇒ gate trips.
    let second_bad = trend::run(&opts(&results, &hist, "bad1", 101)).unwrap();
    assert!(
        !second_bad.report.gate_passed(),
        "2 consecutive bad records must fail the gate"
    );
    // The offending metric is named in the machine-readable report.
    let json = second_bad.report.to_json().unwrap();
    let gating: Vec<_> = second_bad.report.gating().collect();
    assert!(!gating.is_empty());
    assert!(gating.iter().any(|g| g.metric == "grid.hash.b10000"));
    assert!(json.contains("\"metric\": \"grid.hash.b10000\""));
    assert!(json.contains("\"passed\": false"));
}

#[test]
fn counter_growth_gates_even_on_one_thread() {
    let d = scratch("counter");
    let results = d.join("results");
    let hist = d.join("trend");
    fs::create_dir_all(&results).unwrap();
    write_results(&results, 1.0);
    // Re-stamp the bench as a 1-thread host.
    let bench = results.join("BENCH_grid_backend.json");
    edit(&bench, "\"host_threads\": 4,", "\"host_threads\": 1,");

    for i in 0..5 {
        trend::run(&opts(&results, &hist, &format!("g{i}"), i)).unwrap();
    }
    // Inflate a deterministic counter, then record it 2 runs straight
    // (distinct commits so the idempotency dedupe does not kick in).
    edit(
        &bench,
        "\"xs.bin_scan_steps\": 110751",
        "\"xs.bin_scan_steps\": 221502",
    );

    let first = trend::run(&opts(&results, &hist, "cb0", 100)).unwrap();
    assert!(first.report.warn_only_rates, "1-thread host is warn-only");
    assert!(first.report.gate_passed(), "one bad record is suspect only");

    let second = trend::run(&opts(&results, &hist, "cb1", 101)).unwrap();
    assert!(
        !second.report.gate_passed(),
        "sustained counter growth must gate even on 1 thread"
    );
    assert!(second.report.gating().all(|g| g.kind.name() == "counter"));
    assert!(second
        .report
        .gating()
        .any(|g| g.metric == "xs.bin_scan_steps"));
}

#[test]
fn truncated_history_is_a_hard_err_not_a_panic() {
    let d = scratch("trunc");
    let results = d.join("results");
    let hist = d.join("trend");
    fs::create_dir_all(&results).unwrap();
    write_results(&results, 1.0);
    trend::run(&opts(&results, &hist, "c0", 1)).unwrap();

    let path = history::history_file(&hist, "test");
    let mut text = fs::read_to_string(&path).unwrap();
    text.truncate(text.len() - 7);
    fs::write(&path, text).unwrap();

    match trend::run(&opts(&results, &hist, "c1", 2)) {
        Err(TrendError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn unstamped_registered_bench_is_a_hard_err_and_a_foreign_tag_a_note() {
    let d = scratch("stamp");
    let results = d.join("results");
    let hist = d.join("trend");
    fs::create_dir_all(&results).unwrap();
    write_results(&results, 1.0);

    // A file no registered harness owns is skipped with a note, whether
    // or not it is stamped.
    fs::write(
        results.join("BENCH_foreign.json"),
        "{\"bench\": \"foreign\", \"samples\": []}\n",
    )
    .unwrap();
    let out = trend::run(&opts(&results, &hist, "c0", 1)).unwrap();
    assert!(
        out.report
            .skipped
            .iter()
            .any(|s| s.contains("BENCH_foreign.json") && s.contains("unknown bench tag")),
        "{:?}",
        out.report.skipped
    );
    assert!(out.record.rates.contains_key("grid.hash.b10000"));

    // A registered harness's file that lost its scale stamp must not be
    // skipped: that would silently un-gate the benchmark.
    let path = results.join("BENCH_grid_backend.json");
    let text = fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"mcs_scale\": 0.1,"), "{text}");
    fs::write(&path, text.replace("\"mcs_scale\": 0.1,", "")).unwrap();
    match trend::run(&opts(&results, &hist, "c1", 2)) {
        Err(TrendError::Parse { file, msg }) => {
            assert!(file.contains("BENCH_grid_backend.json"), "{file}");
            assert!(msg.contains("mcs_scale"), "{msg}");
        }
        other => panic!("expected a Parse error, got {other:?}"),
    }
}

#[test]
fn a_mixed_scale_directory_is_an_err_naming_both_scales() {
    let d = scratch("mixed");
    let results = d.join("results");
    let hist = d.join("trend");
    write_results(&results, 1.0);
    let kernels = Table::new(
        "kernels_micro",
        vec![
            Column::key("kernel"),
            Column::measured("per_s", Fmt::Fixed(1)).trended(),
        ],
    )
    .trended("kernels");
    write_bench(&results, "kernels", 1.0, kernels, &[]);
    match trend::run(&opts(&results, &hist, "c0", 1)) {
        Err(TrendError::Parse { file, msg }) => {
            assert!(file.contains("BENCH_kernels.json"), "{file}");
            assert!(
                msg.contains("scale 1 ") && msg.contains("scale 0.1"),
                "{msg}"
            );
            assert!(msg.contains("BENCH_grid_backend.json"), "{msg}");
        }
        other => panic!("expected a Parse error, got {other:?}"),
    }
}

#[test]
fn a_check_subdirectory_is_ignored() {
    let d = scratch("subdir");
    let results = d.join("results");
    let hist = d.join("trend");
    write_results(&results, 1.0);
    // A fresh run at another scale (and other rates) one level down is
    // not part of this directory's record.
    write_results_at(&results.join("check"), 0.5, 1.0);
    let out = trend::run(&opts(&results, &hist, "c0", 1)).unwrap();
    assert_eq!(out.record.mcs_scale, 0.1);
    assert_eq!(out.record.rates["grid.hash.b10000"], 900_000.0);
    assert_eq!(out.report.sources, vec!["BENCH_grid_backend.json"]);
    assert!(out.report.skipped.is_empty(), "{:?}", out.report.skipped);
}

#[test]
fn report_schema_matches_blessed_golden() {
    // The golden pins the report's key paths; regenerate it with
    // MCS_BLESS=1 after a deliberate schema change (same discipline as
    // the CSV goldens).
    let d = scratch("schema");
    let results = d.join("results");
    let hist = d.join("trend");
    fs::create_dir_all(&results).unwrap();
    write_results(&results, 1.0);
    // Two runs so the report contains non-null baselines too.
    trend::run(&opts(&results, &hist, "c0", 1)).unwrap();
    write_results(&results, 1.01);
    let out = trend::run(&opts(&results, &hist, "c1", 2)).unwrap();

    let paths = report::schema_paths(&out.report.to_json().unwrap()).unwrap();
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/golden/trend_report.schema"
    );
    let fresh = paths.join("\n") + "\n";
    if std::env::var("MCS_BLESS").is_ok() {
        fs::write(golden_path, &fresh).unwrap();
        return;
    }
    let blessed = fs::read_to_string(golden_path)
        .expect("results/golden/trend_report.schema missing — run with MCS_BLESS=1");
    assert_eq!(
        fresh, blessed,
        "trend_report.json schema drifted from the blessed golden; \
         if intentional, re-bless with MCS_BLESS=1"
    );
}

/// Expand a seed into an arbitrary but reproducible record (splitmix64
/// drives every field — the vendored proptest has no string/map
/// strategies, so the structure diversity lives here instead).
fn record_from_seed(seed: u64) -> TrendRecord {
    let mut state = seed;
    let mut next = move || -> u64 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    // Keys exercise the separators (and JSON-escaped chars) cell IDs
    // in committed histories use, e.g.
    // `eq.hash.material+energy.b10000.gather_span_bytes`.
    let key = |n: u64| -> String {
        let stems = [
            "grid.hash",
            "eq.unionized.material+energy",
            "ep.t8",
            "xs",
            "a \"b\"\\c",
        ];
        format!("{}.b{}", stems[(n % 5) as usize], n % 1_000_000)
    };
    let mut rates = BTreeMap::new();
    for _ in 0..(next() % 8) {
        // Finite non-negative rate with a wide dynamic range.
        let r = (next() % (1 << 53)) as f64 / ((next() % 1000) + 1) as f64;
        rates.insert(key(next()), r);
    }
    let mut counters = BTreeMap::new();
    for _ in 0..(next() % 8) {
        counters.insert(key(next()), next() % (1 << 53));
    }
    TrendRecord {
        commit: format!("{:012x}", next()),
        timestamp: next() % (1 << 40),
        leg: ["simd-native", "scalar", "local", "leg \"x\""][(next() % 4) as usize].to_string(),
        mcs_scale: ((next() % 100_000) + 1) as f64 / 1000.0,
        host_threads: ((next() % 512) + 1) as usize,
        rates,
        counters,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn jsonl_round_trip_is_lossless(seed in any::<u64>()) {
        let rec = record_from_seed(seed);
        let line = rec.to_json_line().unwrap();
        prop_assert!(!line.contains('\n'), "JSONL line must be single-line");
        let back = TrendRecord::from_json_line(&line).unwrap();
        prop_assert_eq!(back, rec);
    }

    #[test]
    fn truncated_lines_never_parse(seed in any::<u64>(), cut in 1usize..200) {
        let rec = record_from_seed(seed);
        let line = rec.to_json_line().unwrap();
        if cut < line.len() {
            let truncated = &line[..line.len() - cut];
            prop_assert!(
                TrendRecord::from_json_line(truncated).is_err(),
                "truncated line must not parse: {}",
                truncated
            );
        }
    }
}
