//! Table III: average calculation rates in symmetric mode, original
//! (even split) vs load balanced (Eq. 3), for CPU / MIC / CPU+1MIC /
//! CPU+2MICs on one JLSE node (H.M. Large, 10⁵ particles).
//!
//! Rank rates come from the native models priced on a real measured
//! transport run; the symmetric-mode arithmetic is then exact.

use mcs_core::engine::{transport_batch, Algorithm, BatchRequest, Threaded};
use mcs_core::history::batch_streams;
use mcs_core::problem::{HmModel, Problem, ProblemConfig};
use mcs_device::catalog;
use mcs_device::native::{shape_of, NativeModel};
use mcs_device::SymmetricModel;

use super::{check, vprintln, Band, CheckOutcome, Column, Fmt, Harness, HarnessRun, Table, Value};
use crate::scaled_by;

/// Registry entry.
pub const HARNESS: Harness = Harness {
    name: "table3",
    title: "Table III: symmetric-mode rates, original vs load balanced",
    tables: &["table3_symmetric_balance"],
    run: |scale, verbose| {
        let r = run(scale, verbose);
        HarnessRun::new(score(&r), vec![r.table])
    },
};

/// One hardware-combination row of Table III.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Hardware label.
    pub hardware: &'static str,
    /// Even-split (original) aggregate rate, n/s.
    pub original: f64,
    /// Eq.-3 balanced rate, n/s (`None` for single-device rows).
    pub balanced: Option<f64>,
    /// Ideal (sum-of-rates) rate, n/s.
    pub ideal: f64,
    /// Degraded-mode rate after the last device rank dies and its quota
    /// is rebalanced across the survivors (`None` for single-device
    /// rows, where a death ends the job).
    pub degraded: Option<f64>,
    /// Sum of surviving ranks' rates — the ceiling `degraded` is judged
    /// against (`None` when `degraded` is).
    pub survivor_ideal: Option<f64>,
}

/// Typed result of the Table III harness.
#[derive(Debug, Clone)]
pub struct Table3Result {
    /// Modeled CPU rank rate, n/s.
    pub r_cpu: f64,
    /// Modeled MIC rank rate, n/s.
    pub r_mic: f64,
    /// α = CPU rate / MIC rate.
    pub alpha: f64,
    /// Rows in the table's hardware order.
    pub rows: Vec<Table3Row>,
    /// The paper's headline: CPU+2MIC balanced over CPU-only.
    pub headline: f64,
    /// The `table3_symmetric_balance` table.
    pub table: Table,
}

/// Table III — symmetric-mode load balancing.
pub fn score(r: &Table3Result) -> Vec<CheckOutcome> {
    let worst_vs_ideal = r
        .rows
        .iter()
        .filter_map(|row| row.balanced.map(|b| b / row.ideal))
        .fold(1.0, f64::min);
    let balanced_wins = r
        .rows
        .iter()
        .filter_map(|row| row.balanced.map(|b| b / row.original))
        .fold(f64::INFINITY, f64::min);
    // Degraded mode (kill-one-device column): the rebalanced survivors
    // must run at their own ideal rate, and the job must still be
    // measurably slower than the healthy balanced run — throughput was
    // genuinely lost, not papered over.
    let degraded_recovery = r
        .rows
        .iter()
        .filter_map(|row| row.degraded.zip(row.survivor_ideal).map(|(d, s)| d / s))
        .fold(1.0, f64::min);
    let degraded_cost = r
        .rows
        .iter()
        .filter_map(|row| row.balanced.zip(row.degraded).map(|(b, d)| b / d))
        .fold(f64::INFINITY, f64::min);
    vec![
        check(
            "T3.balanced_near_ideal",
            "Eq.-3 balanced split recovers the ideal sum-of-rates",
            worst_vs_ideal,
            Band::AtLeast(0.99),
        ),
        check(
            "T3.balanced_beats_even",
            "balancing beats the even split on every heterogeneous row",
            balanced_wins,
            Band::AtLeast(1.0),
        ),
        check(
            "T3.headline",
            "CPU + 2 MICs balanced over CPU only (paper: 4.2x)",
            r.headline,
            Band::Range { lo: 3.0, hi: 5.5 },
        ),
        check(
            "T3.degraded_recovers",
            "after a device death, rebalanced survivors recover their ideal rate",
            degraded_recovery,
            Band::AtLeast(0.99),
        ),
        check(
            "T3.degraded_cost",
            "losing a device costs real throughput vs the healthy balanced run",
            degraded_cost,
            Band::AtLeast(1.05),
        ),
    ]
}

/// Run the Table III balancing study at `scale`.
pub fn run(scale: f64, verbose: bool) -> Table3Result {
    let problem = Problem::hm(HmModel::Large, &ProblemConfig::default());
    let shape = shape_of(&problem);

    // Measure per-particle structure with a real run, then scale counts
    // to the paper's 1e5-particle batch.
    let n_probe = scaled_by(2_000, scale);
    let sources = problem.sample_initial_source(n_probe, 0);
    let streams = batch_streams(problem.seed, 0, n_probe);
    let out = transport_batch(
        &problem,
        &sources,
        &streams,
        &BatchRequest::default(),
        &mut Threaded::ambient(),
    )
    .outcome;
    let t = out.tallies.scaled_to(100_000);

    let host = NativeModel::new(catalog::machine("host-e5-2687w"), Algorithm::History);
    let mic = NativeModel::new(catalog::machine("knc-7120a"), Algorithm::History);
    let r_cpu = host.calc_rate(&shape, &t);
    let r_mic = mic.calc_rate(&shape, &t);
    let alpha = r_cpu / r_mic;
    vprintln!(
        verbose,
        "\nmodeled rank rates: CPU {:.0} n/s, MIC {:.0} n/s, alpha = {:.2}",
        r_cpu,
        r_mic,
        alpha
    );
    vprintln!(
        verbose,
        "(paper: CPU 4,050, MIC 6,641, alpha = 0.61-0.62)\n"
    );

    let n_total = 100_000u64;
    let mut rows = Vec::new();
    let rate = |name| Column::modeled(name, 0.02, Fmt::Fixed(0));
    let mut table = Table::new(
        "table3_symmetric_balance",
        vec![
            Column::key("hardware"),
            rate("original_rate"),
            rate("balanced_rate"),
            rate("ideal_rate"),
            rate("degraded_rate"),
        ],
    );
    // Single-device rows have no balanced or degraded mode.
    let or_na = |x: Option<f64>| x.map_or(Value::from("N/A"), Value::from);
    let mut show = |label: &'static str, ranks: &[(&str, f64)], balanced_applies: bool| {
        let m = SymmetricModel::new(ranks);
        let orig = m.original_rate(n_total);
        let balanced = balanced_applies.then(|| m.balanced_rate(n_total));
        // Degraded mode: the last device rank dies mid-run, its quota is
        // redistributed proportionally across the survivors (what the
        // executed runtime's `redistribute_dead` does), and the job
        // finishes at the survivors' balanced rate.
        let (degraded, survivor_ideal) = if balanced_applies {
            let rates: Vec<f64> = ranks.iter().map(|&(_, r)| r).collect();
            let mut alive = vec![true; rates.len()];
            *alive.last_mut().unwrap() = false;
            let d = mcs_core::balance::degraded_rate(n_total, &rates, &alive);
            let ceiling: f64 = rates[..rates.len() - 1].iter().sum();
            (Some(d), Some(ceiling))
        } else {
            (None, None)
        };
        table.push(vec![
            label.into(),
            orig.into(),
            or_na(balanced),
            m.ideal().into(),
            or_na(degraded),
        ]);
        rows.push(Table3Row {
            hardware: label,
            original: orig,
            balanced,
            ideal: m.ideal(),
            degraded,
            survivor_ideal,
        });
    };
    show("CPU only", &[("cpu", r_cpu)], false);
    show("MIC only", &[("mic", r_mic)], false);
    show("CPU + MIC", &[("cpu", r_cpu), ("mic", r_mic)], true);
    show(
        "CPU + 2 MICs",
        &[("cpu", r_cpu), ("mic0", r_mic), ("mic1", r_mic)],
        true,
    );
    vprintln!(
        verbose,
        "paper, original / load balanced: CPU only 4,050 / N/A, MIC only 6,641 / N/A,\n\
         CPU + MIC 8,988 / 10,068, CPU + 2 MICs 11,860 / 17,098"
    );

    let m2 = SymmetricModel::new(&[("cpu", r_cpu), ("mic0", r_mic), ("mic1", r_mic)]);
    let headline = m2.balanced_rate(n_total) / r_cpu;
    vprintln!(
        verbose,
        "\nCPU+2MIC balanced vs CPU-only: {headline:.2}x (paper: 17,098/4,050 = 4.2x)"
    );

    Table3Result {
        r_cpu,
        r_mic,
        alpha,
        rows,
        headline,
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perturbed_table3_headline_fails() {
        // Fabricated result in the paper's shape...
        let good = Table3Result {
            r_cpu: 13_667.0,
            r_mic: 20_675.0,
            alpha: 0.66,
            rows: vec![Table3Row {
                hardware: "CPU + 2 MICs",
                original: 41_000.0,
                balanced: Some(55_016.0),
                ideal: 55_016.0,
                degraded: Some(34_342.0),
                survivor_ideal: Some(34_342.0),
            }],
            headline: 4.03,
            table: Table::new("table3_symmetric_balance", vec![]),
        };
        assert!(score(&good).iter().all(|c| c.passed));
        // ...then with the balancing gain wiped out.
        let mut bad = good.clone();
        bad.headline = 1.0;
        bad.rows[0].balanced = Some(30_000.0);
        let out = score(&bad);
        assert!(!out.iter().find(|c| c.id == "T3.headline").unwrap().passed);
        assert!(
            !out.iter()
                .find(|c| c.id == "T3.balanced_beats_even")
                .unwrap()
                .passed
        );
        // And the degraded column: survivors falling short of their own
        // ideal rate must trip T3.degraded_recovers.
        let mut lossy = good.clone();
        lossy.rows[0].degraded = Some(20_000.0); // well under 34,342 ideal
        let out = score(&lossy);
        assert!(
            !out.iter()
                .find(|c| c.id == "T3.degraded_recovers")
                .unwrap()
                .passed
        );
        // A "degraded" run as fast as the healthy one means the death
        // cost was papered over — T3.degraded_cost must catch it.
        let mut free_lunch = good;
        free_lunch.rows[0].degraded = Some(55_016.0);
        let out = score(&free_lunch);
        assert!(
            !out.iter()
                .find(|c| c.id == "T3.degraded_cost")
                .unwrap()
                .passed
        );
    }
}
