//! Direct unit tests for the `mcs-check` harness itself: the invariant
//! scorer's band arithmetic, the per-column golden tolerance policy, and
//! the report plumbing CI's exit code hangs off. The validation layer is
//! load-bearing (every other crate's claims flow through it), so it gets
//! its own regression suite rather than trusting it by construction.

use mcs_bench::harness::table::COUNTER_TOL;
use mcs_bench::harness::{Column, Fmt, Kind, Table, Value};
use mcs_check::{check, compare, Band, CheckReport, ColumnPolicy};

// ---------------------------------------------------------------- bands

#[test]
fn bands_admit_their_boundaries() {
    let r = Band::Range { lo: 1.0, hi: 2.0 };
    assert!(r.admits(1.0) && r.admits(2.0) && r.admits(1.5));
    assert!(!r.admits(0.999_999) && !r.admits(2.000_001));
    assert!(Band::AtLeast(3.0).admits(3.0) && !Band::AtLeast(3.0).admits(2.999));
    assert!(Band::AtMost(3.0).admits(3.0) && !Band::AtMost(3.0).admits(3.001));
    assert!(Band::Holds.admits(1.0) && !Band::Holds.admits(0.0));
}

#[test]
fn every_band_rejects_nan() {
    // A NaN measurement must never pass a gate: the comparisons all come
    // out false, so `admits` fails for every band kind — including the
    // boolean one, where NaN != 1.0.
    for band in [
        Band::Range {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        },
        Band::AtLeast(f64::NEG_INFINITY),
        Band::AtMost(f64::INFINITY),
        Band::Holds,
    ] {
        assert!(!band.admits(f64::NAN), "{band} admitted NaN");
    }
}

#[test]
fn scorer_evaluates_the_band_and_nan_serializes_as_null() {
    let good = check("X.test", "a passing value", 1.5, Band::AtLeast(1.0));
    assert!(good.passed);
    let bad = check("X.test", "a non-finite value", f64::NAN, Band::AtLeast(0.0));
    assert!(!bad.passed);
    // The report must not emit bare `NaN` (invalid JSON).
    let report = CheckReport {
        scale: 0.1,
        threads: 1,
        invariants: vec![bad],
        counters: vec![],
        golden: vec![],
    };
    let json = report.to_json().unwrap();
    assert!(json.contains("\"value\": null"), "{json}");
    assert!(!json.contains("NaN"), "{json}");
}

#[test]
fn perturbed_report_fails_and_says_so() {
    // The CI contract: any failed invariant flips the report's top-level
    // `passed` to false and n_failed goes non-zero — that is exactly what
    // the mcs-check binary turns into a non-zero exit code.
    let mut report = CheckReport {
        scale: 0.1,
        threads: 4,
        invariants: vec![check(
            "T3.headline",
            "CPU + 2 MICs balanced over CPU only",
            4.2,
            Band::Range { lo: 3.0, hi: 5.5 },
        )],
        counters: vec![],
        golden: vec![],
    };
    assert!(report.passed());
    assert_eq!(report.n_failed(), 0);
    assert!(report.to_json().unwrap().contains("\"passed\": true"));

    report.invariants[0].value = 1.0; // perturb: balancing gain wiped out
    report.invariants[0].passed = report.invariants[0].band.admits(1.0);
    assert!(!report.passed());
    assert_eq!(report.n_failed(), 1);
    let json = report.to_json().unwrap();
    assert!(json.contains("\"passed\": false"), "{json}");
    assert!(json.contains("\"n_failed\": 1"), "{json}");
}

// --------------------------------------------------- tolerance policies

#[test]
fn policy_follows_the_declared_kind() {
    // Key and exact columns are byte-exact; modeled columns carry their
    // declared band and counters the cross-leg one.
    assert_eq!(ColumnPolicy::of(Kind::Key), ColumnPolicy::Exact);
    assert_eq!(ColumnPolicy::of(Kind::Exact), ColumnPolicy::Exact);
    assert_eq!(
        ColumnPolicy::of(Kind::Modeled(0.02)),
        ColumnPolicy::Rel(0.02)
    );
    assert_eq!(
        ColumnPolicy::of(Kind::Counter),
        ColumnPolicy::Rel(COUNTER_TOL)
    );
    // Measured-throughput columns are sign-checked only (machine-speed
    // dependent), while a modeled row of the same mixed table stays
    // banded — and its key cell exact.
    assert_eq!(ColumnPolicy::of(Kind::Measured), ColumnPolicy::Positive);
    let mut mixed = Table::new(
        "table1_distance_sampling",
        vec![Column::key("row"), Column::measured("cpu_s", Fmt::Fixed(4))],
    );
    mixed.push(vec!["host_measured".into(), 0.5.into()]);
    mixed.push_as(
        Kind::Modeled(0.02),
        vec!["modeled opt2".into(), Value::Fixed(33.3, 1)],
    );
    assert_eq!(mixed.kind_at(0, 1), Kind::Measured);
    assert_eq!(mixed.kind_at(1, 1), Kind::Modeled(0.02));
    assert_eq!(mixed.kind_at(1, 0), Kind::Key);
    let golden = mixed.to_csv();
    mixed.rows[0].cells[1] = 5.0.into(); // measured: any positive value
    assert!(compare(&mixed, &golden).passed);
    mixed.rows[1].cells[1] = Value::Fixed(40.0, 1); // modeled: +20%
    assert!(!compare(&mixed, &golden).passed);
}

fn table3() -> Table {
    let rate = |name| Column::modeled(name, 0.02, Fmt::Fixed(0));
    let mut t = Table::new(
        "table3_symmetric_balance",
        vec![
            Column::key("hardware"),
            rate("original_rate"),
            rate("balanced_rate"),
            rate("ideal_rate"),
            rate("degraded_rate"),
        ],
    );
    t.push(vec![
        "CPU + MIC".into(),
        27334.0.into(),
        34341.0.into(),
        34342.0.into(),
        13667.0.into(),
    ]);
    t.push(vec![
        "CPU + 2 MICs".into(),
        41001.0.into(),
        55016.0.into(),
        55016.0.into(),
        34341.0.into(),
    ]);
    t
}

#[test]
fn rel_column_tolerates_small_drift_but_not_large() {
    let golden = table3().to_csv();
    let mut fresh = table3();
    fresh.rows[0].cells[4] = 13800.0.into(); // +0.97% < 2%
    assert!(compare(&fresh, &golden).passed);
    fresh.rows[0].cells[4] = 15000.0.into(); // +9.8% > 2%
    let out = compare(&fresh, &golden);
    assert!(!out.passed);
    assert!(out.detail.contains("degraded_rate"), "{}", out.detail);
}

#[test]
fn exact_column_rejects_even_tiny_drift() {
    let golden = table3().to_csv();
    let mut fresh = table3();
    fresh.rows[0].cells[0] = "CPU + MIC ".into(); // trailing space
    assert!(!compare(&fresh, &golden).passed);
}

#[test]
fn nan_cells_never_pass_a_numeric_policy() {
    // A NaN in a Rel column is a numeric/non-numeric flip vs the golden
    // number — hard failure, not a parsed comparison.
    let golden = table3().to_csv();
    let mut fresh = table3();
    fresh.rows[1].cells[2] = f64::NAN.into();
    let out = compare(&fresh, &golden);
    assert!(!out.passed, "{}", out.detail);

    // And a Positive column rejects NaN, inf, zero, and negatives alike:
    // only a finite positive number proves the measurement ran.
    let mut base = Table::new(
        "fig2_lookup_rates",
        vec![
            Column::key("bank_size"),
            Column::measured("mic_measured_per_s", Fmt::Fixed(1)),
        ],
    );
    base.push(vec![1000usize.into(), 123.0.into()]);
    let golden = base.to_csv();
    let bad_cells: [Value; 5] = [
        f64::NAN.into(),
        f64::INFINITY.into(),
        0.0.into(),
        (-5.0).into(),
        "n/a".into(),
    ];
    for bad in bad_cells {
        let mut fresh = base.clone();
        fresh.rows[0].cells[1] = bad.clone();
        assert!(
            !compare(&fresh, &golden).passed,
            "Positive policy admitted {bad:?}"
        );
    }
    // Any other positive value passes — the column is sign-checked only.
    let mut fresh = base.clone();
    fresh.rows[0].cells[1] = 9999.0.into();
    assert!(compare(&fresh, &golden).passed);
}

#[test]
fn golden_header_and_shape_changes_fail_loudly() {
    let fresh = table3();
    // Header drift (e.g. this PR adding degraded_rate) must be caught —
    // that is what forces a deliberate re-bless.
    let old_header = "hardware,original_rate,balanced_rate,ideal_rate\n";
    let out = compare(&fresh, old_header);
    assert!(!out.passed);
    assert!(out.detail.contains("header changed"), "{}", out.detail);
    // Row-count drift too.
    let mut truncated = fresh.to_csv();
    truncated = truncated.lines().take(2).collect::<Vec<_>>().join("\n") + "\n";
    let out = compare(&fresh, &truncated);
    assert!(!out.passed, "{}", out.detail);
}
