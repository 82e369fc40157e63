//! Noise-aware delta classification against the trailing history.
//!
//! The same discipline as the hardened Fig. 2 timing: a single sample
//! is never trusted. Each metric's baseline is the **median of the
//! trailing window** (up to [`BASELINE_WINDOW`] prior same-scale
//! records), which discards scheduler-noise outliers without favoring
//! whichever run had the wider spread, and a regression only *gates*
//! once it is **sustained** — the trailing `sustain` records must all
//! sit beyond tolerance against their own trailing medians. A one-off
//! noisy sample therefore classifies as `suspect` (reported, not
//! gating) and washes out of the median within a few records.
//!
//! Rates and counters regress in opposite directions (rates falling,
//! counters rising) and get separate tolerances: counters are
//! deterministic replays of the same seeded workload, so their
//! tolerance is tighter — any sustained counter growth is real added
//! work, never noise.
//!
//! On a single-threaded host, measured *rates* are dominated by
//! timeshare noise (the same reasoning as `mcs-check`'s F2 warn band,
//! which shares [`rate_gate_warn_only`]), so sustained rate regressions
//! are still classified `regressed` but carry `gating = false`.

use super::record::TrendRecord;

/// Trailing records considered for the median baseline (median-of-5,
/// matching the fig2 interleaved timing discipline).
pub const BASELINE_WINDOW: usize = 5;

/// Per-metric-kind tolerances and the sustain requirement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// A rate may fall this many percent below its baseline median
    /// before the record counts as bad.
    pub rate_pct: f64,
    /// A counter may rise this many percent above its baseline median
    /// before the record counts as bad.
    pub counter_pct: f64,
    /// Consecutive bad records (including the current one) required
    /// before a bad metric classifies as `regressed` and gates.
    pub sustain: usize,
}

/// The tolerances the gate runs with.
pub const TOLERANCES: Tolerances = Tolerances {
    rate_pct: 15.0,
    counter_pct: 10.0,
    sustain: 2,
};

/// What a tracked metric measures, deciding its regression direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Throughput (higher is better; regression = falling).
    Rate,
    /// Deterministic work/memory counter (lower is better; regression =
    /// rising).
    Counter,
}

impl MetricKind {
    /// Stable wire name.
    pub fn name(&self) -> &'static str {
        match self {
            MetricKind::Rate => "rate",
            MetricKind::Counter => "counter",
        }
    }
}

/// Classification of one metric's current value against its history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaClass {
    /// No same-scale history to compare against.
    NoBaseline,
    /// Within tolerance of the baseline median.
    Ok,
    /// Beyond tolerance in the *good* direction.
    Improved,
    /// Beyond tolerance in the bad direction, but not yet sustained.
    Suspect,
    /// Beyond tolerance in the bad direction for `sustain` consecutive
    /// records.
    Regressed,
}

impl DeltaClass {
    /// Stable wire name.
    pub fn name(&self) -> &'static str {
        match self {
            DeltaClass::NoBaseline => "no_baseline",
            DeltaClass::Ok => "ok",
            DeltaClass::Improved => "improved",
            DeltaClass::Suspect => "suspect",
            DeltaClass::Regressed => "regressed",
        }
    }
}

/// One metric's scored delta.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Stable metric key (`grid.hash.b100000`, `xs.lookups`, ...).
    pub metric: String,
    /// Rate or counter semantics.
    pub kind: MetricKind,
    /// The current record's value.
    pub current: f64,
    /// Median of the trailing window (`None` without history).
    pub baseline: Option<f64>,
    /// Percent change vs the baseline median (0 without history).
    pub delta_pct: f64,
    /// Trailing consecutive records (including this one) that were bad
    /// against their own trailing medians.
    pub consecutive_bad: usize,
    /// The classification.
    pub class: DeltaClass,
    /// Whether this delta fails the gate (`regressed` and not on the
    /// warn band).
    pub gating: bool,
}

/// Whether measured-rate gates must be warn-only on this host: a
/// 1-thread timeshared runner cannot produce trustworthy relative
/// timings (shared with `mcs-check`'s F2 host-ratio warn band).
pub fn rate_gate_warn_only(host_threads: usize) -> bool {
    host_threads <= 1
}

/// Median of a non-empty slice (interpolation-free: the upper median,
/// exactly like the fig2 timing helper).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of empty slice");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Percent change of `current` against `baseline`, clamped so a
/// zero-baseline jump stays finite and representable in JSON.
fn pct_change(current: f64, baseline: f64) -> f64 {
    if baseline == 0.0 && current == 0.0 {
        return 0.0;
    }
    ((current - baseline) / baseline.abs().max(1e-300) * 100.0).clamp(-1e9, 1e9)
}

fn is_bad(kind: MetricKind, delta_pct: f64) -> bool {
    match kind {
        MetricKind::Rate => delta_pct < -TOLERANCES.rate_pct,
        MetricKind::Counter => delta_pct > TOLERANCES.counter_pct,
    }
}

fn is_improved(kind: MetricKind, delta_pct: f64) -> bool {
    match kind {
        MetricKind::Rate => delta_pct > TOLERANCES.rate_pct,
        MetricKind::Counter => delta_pct < -TOLERANCES.counter_pct,
    }
}

/// The comparable value series for one metric: every prior same-scale
/// record that carries it, in history order, with the current value
/// appended.
fn series(
    history: &[TrendRecord],
    current: &TrendRecord,
    metric: &str,
    kind: MetricKind,
) -> Vec<f64> {
    let value_of = |r: &TrendRecord| -> Option<f64> {
        match kind {
            MetricKind::Rate => r.rates.get(metric).copied(),
            MetricKind::Counter => r.counters.get(metric).map(|&c| c as f64),
        }
    };
    let mut vals: Vec<f64> = history
        .iter()
        .filter(|r| r.mcs_scale == current.mcs_scale)
        .filter_map(value_of)
        .collect();
    vals.push(value_of(current).expect("metric taken from current record"));
    vals
}

/// Score one metric given its full comparable series (last = current).
fn score_series(metric: &str, kind: MetricKind, vals: &[f64]) -> MetricDelta {
    debug_assert!(!vals.is_empty());
    // Bad-against-own-baseline for every position, so `consecutive_bad`
    // has replay semantics: each record is judged exactly as it was (or
    // would have been) judged when it was current.
    let bad_at = |i: usize| -> bool {
        if i == 0 {
            return false; // no baseline ⇒ never bad
        }
        let w0 = i.saturating_sub(BASELINE_WINDOW);
        let base = median(&vals[w0..i]);
        is_bad(kind, pct_change(vals[i], base))
    };
    let last = vals.len() - 1;
    let current = vals[last];
    let (baseline, delta_pct) = if last == 0 {
        (None, 0.0)
    } else {
        let w0 = last.saturating_sub(BASELINE_WINDOW);
        let base = median(&vals[w0..last]);
        (Some(base), pct_change(current, base))
    };
    let mut consecutive_bad = 0;
    for i in (0..=last).rev() {
        if bad_at(i) {
            consecutive_bad += 1;
        } else {
            break;
        }
    }
    let class = match baseline {
        None => DeltaClass::NoBaseline,
        Some(_) if consecutive_bad >= TOLERANCES.sustain && is_bad(kind, delta_pct) => {
            DeltaClass::Regressed
        }
        Some(_) if is_bad(kind, delta_pct) => DeltaClass::Suspect,
        Some(_) if is_improved(kind, delta_pct) => DeltaClass::Improved,
        Some(_) => DeltaClass::Ok,
    };
    MetricDelta {
        metric: metric.to_string(),
        kind,
        current,
        baseline,
        delta_pct,
        consecutive_bad,
        class,
        gating: false, // filled in by classify (needs host_threads)
    }
}

/// Classify every metric of `current` against the prior history.
///
/// `history` must not include `current` itself (the caller strips a
/// trailing duplicate record first — idempotent re-runs).
pub fn classify(history: &[TrendRecord], current: &TrendRecord) -> Vec<MetricDelta> {
    let warn_only = rate_gate_warn_only(current.host_threads);
    let mut out = Vec::with_capacity(current.rates.len() + current.counters.len());
    for (metric, kind) in current
        .rates
        .keys()
        .map(|k| (k, MetricKind::Rate))
        .chain(current.counters.keys().map(|k| (k, MetricKind::Counter)))
    {
        let vals = series(history, current, metric, kind);
        let mut d = score_series(metric, kind, &vals);
        d.gating = d.class == DeltaClass::Regressed && !(kind == MetricKind::Rate && warn_only);
        out.push(d);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn rec(threads: usize, rate: f64, counter: u64) -> TrendRecord {
        TrendRecord {
            commit: format!("c-{rate}-{counter}"),
            timestamp: 0,
            leg: "scalar".into(),
            mcs_scale: 0.1,
            host_threads: threads,
            rates: BTreeMap::from([("grid.hash.b1000".to_string(), rate)]),
            counters: BTreeMap::from([("xs.bin_scan_steps".to_string(), counter)]),
        }
    }

    fn delta_of<'a>(ds: &'a [MetricDelta], metric: &str) -> &'a MetricDelta {
        ds.iter().find(|d| d.metric == metric).unwrap()
    }

    #[test]
    fn median_is_noise_robust() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 100.0, 2.0]), 2.0);
        // One wild outlier does not move the baseline.
        assert_eq!(median(&[10.0, 10.0, 10.0, 10.0, 1e9]), 10.0);
    }

    #[test]
    fn no_history_is_no_baseline_with_zero_delta() {
        let cur = rec(4, 1000.0, 50);
        let ds = classify(&[], &cur);
        for d in &ds {
            assert_eq!(d.class, DeltaClass::NoBaseline);
            assert_eq!(d.delta_pct, 0.0);
            assert!(!d.gating);
        }
    }

    #[test]
    fn stable_series_is_ok_and_single_dip_is_suspect_not_gating() {
        let hist: Vec<TrendRecord> = (0..5).map(|_| rec(4, 1000.0, 50)).collect();
        // Identical value: ok, zero delta.
        let ds = classify(&hist, &rec(4, 1000.0, 50));
        let d = delta_of(&ds, "grid.hash.b1000");
        assert_eq!(d.class, DeltaClass::Ok);
        assert_eq!(d.delta_pct, 0.0);
        // One 25% dip: out of tolerance but not sustained.
        let ds = classify(&hist, &rec(4, 750.0, 50));
        let d = delta_of(&ds, "grid.hash.b1000");
        assert_eq!(d.class, DeltaClass::Suspect);
        assert_eq!(d.consecutive_bad, 1);
        assert!(!d.gating);
    }

    #[test]
    fn sustained_rate_regression_gates() {
        // 5 good records, then one bad already in history, then the
        // current bad one: 2 consecutive ⇒ regressed + gating.
        let mut hist: Vec<TrendRecord> = (0..5).map(|_| rec(4, 1000.0, 50)).collect();
        hist.push(rec(4, 750.0, 50));
        let ds = classify(&hist, &rec(4, 745.0, 50));
        let d = delta_of(&ds, "grid.hash.b1000");
        assert_eq!(d.class, DeltaClass::Regressed);
        assert_eq!(d.consecutive_bad, 2);
        assert!(d.gating, "sustained rate regression must gate");
        assert!(d.delta_pct < -20.0);
    }

    #[test]
    fn single_thread_host_rates_warn_only_but_counters_still_gate() {
        let mut hist: Vec<TrendRecord> = (0..5).map(|_| rec(1, 1000.0, 50)).collect();
        hist.push(rec(1, 700.0, 70));
        let ds = classify(&hist, &rec(1, 700.0, 70));
        let rate = delta_of(&ds, "grid.hash.b1000");
        assert_eq!(rate.class, DeltaClass::Regressed);
        assert!(!rate.gating, "1-thread rate regressions are warn-band");
        // Counters are deterministic: they gate regardless of threads.
        let ctr = delta_of(&ds, "xs.bin_scan_steps");
        assert_eq!(ctr.class, DeltaClass::Regressed);
        assert!(ctr.gating, "counter regressions gate on any host");
        assert!(rate_gate_warn_only(1));
        assert!(!rate_gate_warn_only(2));
    }

    #[test]
    fn improvement_is_reported_not_gated() {
        let hist: Vec<TrendRecord> = (0..5).map(|_| rec(4, 1000.0, 50)).collect();
        let ds = classify(&hist, &rec(4, 1400.0, 30));
        assert_eq!(delta_of(&ds, "grid.hash.b1000").class, DeltaClass::Improved);
        assert_eq!(
            delta_of(&ds, "xs.bin_scan_steps").class,
            DeltaClass::Improved
        );
        assert!(ds.iter().all(|d| !d.gating));
    }

    #[test]
    fn baseline_ignores_other_scales() {
        let mut hist: Vec<TrendRecord> = (0..3).map(|_| rec(4, 1000.0, 50)).collect();
        let mut other = rec(4, 10.0, 5000);
        other.mcs_scale = 1.0; // different scale: not comparable
        hist.push(other);
        let ds = classify(&hist, &rec(4, 1000.0, 50));
        assert_eq!(delta_of(&ds, "grid.hash.b1000").class, DeltaClass::Ok);
    }

    #[test]
    fn median_window_heals_after_sustained_shift() {
        // After 5 records at the new level the median moves: a step
        // change (e.g. an accepted slower-but-correct fix) stops
        // flagging once the window is saturated with the new value.
        let mut hist: Vec<TrendRecord> = (0..5).map(|_| rec(4, 1000.0, 50)).collect();
        for _ in 0..5 {
            hist.push(rec(4, 700.0, 50));
        }
        let ds = classify(&hist, &rec(4, 700.0, 50));
        assert_eq!(delta_of(&ds, "grid.hash.b1000").class, DeltaClass::Ok);
    }

    #[test]
    fn zero_baseline_counter_growth_is_flagged() {
        let hist: Vec<TrendRecord> = (0..3).map(|_| rec(4, 1000.0, 0)).collect();
        let mut bad_hist = hist.clone();
        bad_hist.push(rec(4, 1000.0, 10_000));
        let ds = classify(&bad_hist, &rec(4, 1000.0, 10_000));
        let d = delta_of(&ds, "xs.bin_scan_steps");
        assert_eq!(d.class, DeltaClass::Regressed);
        assert!(d.delta_pct.is_finite());
    }
}
