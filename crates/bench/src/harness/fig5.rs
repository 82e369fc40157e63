//! Fig. 5: calculation rate (neutrons/second) vs particles per batch for
//! inactive and active batches, host CPU vs MIC native (H.M. Large).
//!
//! Real eigenvalue batches run on this host (physics + per-batch tallies
//! are MEASURED); each batch's instrumented counts are then priced on the
//! E5-2687W and Phi 7120A models to produce the figure's two curves.
//! Checks: MIC ≈ 1.5–2× the CPU above 10⁴ particles, consistent
//! α_i/α_a ≈ 0.61–0.62, and collapsing rates at small batch sizes.

use mcs_core::engine::{self, transport_batch, Algorithm, BatchRequest, RunPlan, Threaded};
use mcs_core::history::batch_streams;
use mcs_core::problem::{HmModel, Problem, ProblemConfig};
use mcs_device::catalog;
use mcs_device::native::{shape_of, NativeModel};

use super::{check, vprintln, Band, CheckOutcome, Column, Fmt, Harness, HarnessRun, Table};
use crate::scaled_by;

/// Registry entry.
pub const HARNESS: Harness = Harness {
    name: "fig5",
    title: "Fig. 5: calculation rate vs batch size, CPU vs MIC (H.M. Large)",
    tables: &["fig5_calc_rates"],
    run: |scale, verbose| {
        let r = run(scale, verbose);
        HarnessRun::new(score(&r), vec![r.table])
    },
};

/// One (particle count, batch kind) row of Fig. 5.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Particles in the batch (scaled).
    pub particles: usize,
    /// `"inactive"` or `"active"`.
    pub batch_kind: &'static str,
    /// MODELED CPU calculation rate from the batch's measured counts.
    pub cpu_rate: f64,
    /// MODELED MIC calculation rate from the batch's measured counts.
    pub mic_rate: f64,
    /// α = CPU rate / MIC rate.
    pub alpha: f64,
}

/// Typed result of the Fig. 5 harness.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// Rows in sweep order (ascending n, inactive then active).
    pub rows: Vec<Fig5Row>,
    /// Mean α over the rows with n ≥ the large-batch threshold.
    pub mean_alpha: f64,
    /// k from the real measured eigenvalue run on this host.
    pub k_mean: f64,
    /// Standard error on k.
    pub k_std: f64,
    /// Measured mean active-batch rate on this host (n/s).
    pub measured_rate: f64,
    /// The `fig5_calc_rates` table.
    pub table: Table,
}

impl Fig5Result {
    /// Modeled CPU rate at the smallest and largest swept batch size
    /// (inactive rows) — the figure's left-side rate collapse.
    pub fn cpu_rate_extremes(&self) -> (f64, f64) {
        let inactive: Vec<&Fig5Row> = self
            .rows
            .iter()
            .filter(|r| r.batch_kind == "inactive")
            .collect();
        (
            inactive.first().map(|r| r.cpu_rate).unwrap_or(0.0),
            inactive.last().map(|r| r.cpu_rate).unwrap_or(0.0),
        )
    }
}

/// Fig. 5 — calculation rates and the alpha ratio.
pub fn score(r: &Fig5Result) -> Vec<CheckOutcome> {
    let (small, large) = r.cpu_rate_extremes();
    vec![
        check(
            "F5.mean_alpha",
            "large-batch alpha = CPU rate / MIC rate (paper: 0.61-0.67)",
            r.mean_alpha,
            Band::Range { lo: 0.5, hi: 0.8 },
        ),
        check(
            "F5.small_batch_collapse",
            "rates collapse at small batches: smallest/largest CPU rate",
            small / large,
            Band::AtMost(0.5),
        ),
        check(
            "F5.k_near_critical",
            "measured eigenvalue run is near criticality (paper: k = 1.005)",
            r.k_mean,
            Band::Range { lo: 0.9, hi: 1.1 },
        ),
    ]
}

/// Run the Fig. 5 rate sweep plus a real eigenvalue run at `scale`.
pub fn run(scale: f64, verbose: bool) -> Fig5Result {
    let problem = Problem::hm(HmModel::Large, &ProblemConfig::default());
    let shape = shape_of(&problem);
    let host = NativeModel::new(catalog::machine("host-e5-2687w"), Algorithm::History);
    let mic = NativeModel::new(catalog::machine("knc-7120a"), Algorithm::History);

    let mut rows = Vec::new();
    let mut table = Table::new(
        "fig5_calc_rates",
        vec![
            Column::key("particles"),
            Column::key("batch_kind"),
            Column::modeled("cpu_rate", 0.02, Fmt::Fixed(0)),
            Column::modeled("mic_rate", 0.02, Fmt::Fixed(0)),
            Column::modeled("alpha", 0.02, Fmt::Fixed(4)),
        ],
    );
    let mut alphas = Vec::new();
    // α is quoted at the figure's plateau; with the sweep scaled down the
    // plateau threshold scales with it.
    let alpha_threshold = scaled_by(10_000, scale);
    for &n in &[100usize, 1_000, 10_000, 100_000] {
        let n = scaled_by(n, scale);
        // One inactive and one active batch, really transported.
        for (label, batch_index) in [("inactive", 0u64), ("active", 1u64)] {
            let sources = problem.sample_initial_source(n, batch_index);
            let streams = batch_streams(problem.seed, batch_index, n);
            let out = transport_batch(
                &problem,
                &sources,
                &streams,
                &BatchRequest::default(),
                &mut Threaded::ambient(),
            )
            .outcome;
            let r_cpu = host.calc_rate(&shape, &out.tallies);
            let r_mic = mic.calc_rate(&shape, &out.tallies);
            let alpha = r_cpu / r_mic;
            if n >= alpha_threshold {
                alphas.push(alpha);
            }
            table.push(vec![
                n.into(),
                label.into(),
                r_cpu.into(),
                r_mic.into(),
                alpha.into(),
            ]);
            rows.push(Fig5Row {
                particles: n,
                batch_kind: label,
                cpu_rate: r_cpu,
                mic_rate: r_mic,
                alpha,
            });
        }
    }

    let mean_alpha = alphas.iter().sum::<f64>() / alphas.len().max(1) as f64;
    vprintln!(
        verbose,
        "\nalpha at >=1e4 particles: {:.3} (paper: 0.61 ± 0.02 inactive, 0.62 ± 0.01 active)",
        mean_alpha
    );

    // Also demonstrate a real (measured, this-host) eigenvalue run with
    // converging source, to show rates are stable across batches.
    let n = scaled_by(2_000, scale);
    let plan = RunPlan {
        particles: n,
        inactive: 2,
        active: 3,
        entropy_mesh: (8, 8, 4),
        ..RunPlan::default()
    };
    let result = engine::run_with_problem(&problem, &plan, &mut Threaded::ambient())
        .into_eigenvalue()
        .result;
    vprintln!(
        verbose,
        "\nreal eigenvalue run on this host: k = {:.5} ± {:.5}, mean rate {:.0} n/s (measured)",
        result.k_mean,
        result.k_std,
        result.mean_rate(true)
    );

    Fig5Result {
        rows,
        mean_alpha,
        k_mean: result.k_mean,
        k_std: result.k_std,
        measured_rate: result.mean_rate(true),
        table,
    }
}
