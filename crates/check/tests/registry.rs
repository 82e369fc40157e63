//! The one-file rule, checked mechanically.
//!
//! * A toy harness declared only in this file flows through every
//!   consumer — console, CSV, `BENCH_<name>.json`, golden comparison,
//!   trend ingest — with no edit anywhere else.
//! * The real registry is complete: every declared table has a golden
//!   CSV, every golden CSV has a declaring harness, names are unique.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use mcs_bench::harness::{
    check, Band, Column, Fmt, Harness, HarnessRun, Kind, Table, Value, HARNESSES,
};
use mcs_bench::trend::{self, TrendError, TrendOptions};
use mcs_check::compare;
use mcs_prof::JsonValue;

const TOY: Harness = Harness {
    name: "toy",
    title: "BENCH toy: one column of every kind",
    tables: &["BENCH_toy"],
    run: |scale, _verbose| {
        let mut table = Table::new(
            "BENCH_toy",
            vec![
                Column::key("backend"),
                Column::key("bank_size").prefixed("b"),
                Column::measured("rate_measured_per_s", Fmt::Fixed(1)).trended(),
                Column::modeled("rate_modeled_per_s", 0.02, Fmt::Fixed(1)),
                Column::counter("lookups").trended(),
                Column::exact("flag", Fmt::Plain),
            ],
        )
        .trended("toy");
        for (backend, rate) in [("hash", 5000.0), ("binary", 2500.0)] {
            table.push(vec![
                backend.into(),
                ((1000.0 * scale) as usize).into(),
                (rate * 1.01).into(),
                rate.into(),
                40_000u64.into(),
                "yes".into(),
            ]);
        }
        HarnessRun {
            invariants: vec![check(
                "TOY.rows",
                "the toy table has its two rows",
                table.rows.len() as f64,
                Band::Range { lo: 2.0, hi: 2.0 },
            )],
            tables: vec![table],
            counters: vec![("toy.calls".to_string(), 7)],
            ..Default::default()
        }
    },
};
static TOY_REGISTRY: [Harness; 1] = [TOY];

const TOY_CSV: &str = "backend,bank_size,rate_measured_per_s,rate_modeled_per_s,lookups,flag\n\
                       hash,100,5050.0,5000.0,40000,yes\n\
                       binary,100,2525.0,2500.0,40000,yes\n";

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mcs-registry-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn toy_harness_flows_through_every_view() {
    let out = TOY.execute(0.1, false);
    assert_eq!(out.harness, "toy");
    assert!(out
        .invariants
        .iter()
        .all(|c| c.harness == "toy" && c.passed));
    let table = &out.tables[0];

    // Console and CSV.
    let console = table.to_string();
    assert!(console.starts_with("BENCH_toy:\n"), "{console}");
    assert!(
        console.contains("binary        100               2525.0"),
        "{console}"
    );
    assert_eq!(table.to_csv(), TOY_CSV);

    // Files: the CSV and a stamped BENCH_toy.json.
    let dir = scratch("toy");
    out.write(&dir).unwrap();
    assert_eq!(
        fs::read_to_string(dir.join("BENCH_toy.csv")).unwrap(),
        TOY_CSV
    );
    let doc = JsonValue::parse(&fs::read_to_string(dir.join("BENCH_toy.json")).unwrap()).unwrap();
    assert_eq!(doc.get("bench").and_then(JsonValue::as_str), Some("toy"));
    assert_eq!(doc.get("mcs_scale").and_then(JsonValue::as_f64), Some(0.1));
    assert!(doc.get("host_threads").and_then(JsonValue::as_u64) >= Some(1));
    let rows = doc.get("tables").and_then(JsonValue::as_array).unwrap()[0]
        .get("rows")
        .and_then(JsonValue::as_array)
        .unwrap();
    assert_eq!(
        rows[1].get("lookups").and_then(JsonValue::as_u64),
        Some(40_000)
    );

    // Golden comparison: perturb one cell per column kind; the outcome
    // flips the way that kind says.
    assert!(compare(table, TOY_CSV).passed);
    let verdict = |col: &str, value: Value| {
        let mut fresh = table.clone();
        fresh.rows[0].cells[table.column_index(col).unwrap()] = value;
        compare(&fresh, TOY_CSV).passed
    };
    assert!(!verdict("backend", "hashed".into()), "key is exact");
    assert!(!verdict("bank_size", 101usize.into()), "key is exact");
    assert!(
        verdict("rate_measured_per_s", 9e9.into()),
        "measured: any positive value"
    );
    assert!(
        !verdict("rate_measured_per_s", 0.0.into()),
        "measured: must be positive"
    );
    assert!(
        verdict("rate_modeled_per_s", 5050.0.into()),
        "modeled: +1% is inside 2%"
    );
    assert!(
        !verdict("rate_modeled_per_s", 5500.0.into()),
        "modeled: +10% is outside 2%"
    );
    assert!(
        verdict("lookups", 40_100u64.into()),
        "counter: +0.25% is inside the leg band"
    );
    assert!(
        !verdict("lookups", 44_000u64.into()),
        "counter: +10% is outside it"
    );
    assert!(!verdict("flag", "no".into()), "exact is exact");
    let mut tagged = table.clone();
    tagged.rows[0].kind = Some(Kind::Modeled(0.5));
    tagged.rows[0].cells[3] = 5500.0.into();
    assert!(
        compare(&tagged, TOY_CSV).passed,
        "a row's kind tag replaces its columns' (the same +10% now sits inside 50%)"
    );

    // Trend ingest, given a registry that holds the toy.
    let hist = dir.join("trend");
    let mut opts = TrendOptions::new(dir.clone(), hist.clone());
    opts.harnesses = &TOY_REGISTRY;
    let record = trend::run(&opts).unwrap().record;
    assert_eq!(record.mcs_scale, 0.1);
    assert_eq!(record.rates.get("toy.hash.b100"), Some(&5050.0));
    assert_eq!(record.rates.get("toy.binary.b100"), Some(&2525.0));
    assert_eq!(record.rates.len(), 2, "the modeled column is not trended");
    assert_eq!(record.counters.get("toy.hash.b100.lookups"), Some(&40_000));
    assert_eq!(record.counters.get("toy.calls"), Some(&7));
    // The workspace registry does not know the toy: its file is foreign.
    match trend::run(&TrendOptions::new(dir, hist)) {
        Err(TrendError::NoInput { .. }) => {}
        other => panic!("expected NoInput, got {other:?}"),
    }
}

#[test]
fn registry_and_goldens_cover_each_other() {
    let names: BTreeSet<&str> = HARNESSES.iter().map(|h| h.name).collect();
    assert_eq!(names.len(), HARNESSES.len(), "harness names must be unique");

    let declared: Vec<&str> = HARNESSES.iter().flat_map(|h| h.tables).copied().collect();
    let unique: BTreeSet<&str> = declared.iter().copied().collect();
    assert_eq!(unique.len(), declared.len(), "table names must be unique");

    let golden_dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/golden"));
    let goldens: BTreeSet<String> = fs::read_dir(golden_dir)
        .expect("results/golden exists")
        .flatten()
        .filter_map(|e| {
            e.file_name()
                .to_str()?
                .strip_suffix(".csv")
                .map(String::from)
        })
        .collect();
    let declared: BTreeSet<String> = unique.into_iter().map(String::from).collect();
    assert_eq!(
        declared, goldens,
        "every declared table needs results/golden/<table>.csv and vice versa"
    );
}
