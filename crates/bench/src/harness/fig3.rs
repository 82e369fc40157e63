//! Fig. 3: time comparison between banking particles on the CPU and
//! offloading to the MIC, normalized to host generation time, vs the
//! number of particles (H.M. Small).
//!
//! One "iteration" is one banked-lookup round: bank all n particles, ship
//! the bank, compute their fuel-material cross sections. The figure plots
//! each operation's time as a ratio of the *generation* time (all
//! histories of the same n particles, green = 1.0). The paper's claims to
//! check are the *trends*: the transfer and MIC-compute ratios fall as n
//! grows (fixed marshal/launch costs amortize), the host-compute ratio
//! rises toward its asymptote, and the MIC-compute curve drops under the
//! host-compute curve above ~10⁴ particles.
//!
//! Generation time and the material mix are derived from a real measured
//! transport run; per-operation times are modeled.

use mcs_core::engine::{transport_batch, Algorithm, BatchRequest, Threaded};
use mcs_core::history::batch_streams;
use mcs_core::problem::{HmModel, Problem, ProblemConfig};
use mcs_device::catalog;
use mcs_device::native::{shape_of, NativeModel};
use mcs_device::OffloadModel;

use super::{check, vprintln, Band, CheckOutcome, Column, Fmt, Harness, HarnessRun, Table};
use crate::scaled_by;

/// Registry entry.
pub const HARNESS: Harness = Harness {
    name: "fig3",
    title: "Fig. 3: offload cost ratios vs particle count (H.M. Small)",
    tables: &["fig3_offload_asymptotics"],
    run: |scale, verbose| {
        let r = run(scale, verbose);
        HarnessRun::new(score(&r), vec![r.table])
    },
};

/// One particle-count row of Fig. 3 (ratios to generation time).
#[derive(Debug, Clone, Copy)]
pub struct Fig3Row {
    /// Particle count n.
    pub particles: usize,
    /// Banking time / generation time.
    pub bank_over_gen: f64,
    /// PCIe bank transfer / generation time.
    pub transfer_over_gen: f64,
    /// MIC bank-lookup compute / generation time.
    pub mic_xs_over_gen: f64,
    /// Host bank-lookup compute / generation time.
    pub host_xs_over_gen: f64,
}

/// Typed result of the Fig. 3 harness.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// Measured flight segments per history on H.M. Small.
    pub segments_per_history: f64,
    /// Rows by ascending particle count.
    pub rows: Vec<Fig3Row>,
    /// Smallest n where MIC compute undercuts host compute, if any.
    pub crossover: Option<usize>,
    /// The `fig3_offload_asymptotics` table.
    pub table: Table,
}

/// Fig. 3 — offload cost ratios vs particle count.
pub fn score(r: &Fig3Result) -> Vec<CheckOutcome> {
    let first = &r.rows[0];
    let last = r.rows.last().expect("fig3 has rows");
    vec![
        check(
            "F3.transfer_falls",
            "PCIe transfer / generation time falls with particle count",
            last.transfer_over_gen / first.transfer_over_gen,
            Band::AtMost(0.999),
        ),
        check(
            "F3.host_rises",
            "host lookup / generation time rises with particle count",
            last.host_xs_over_gen / first.host_xs_over_gen,
            Band::AtLeast(1.001),
        ),
        check(
            "F3.crossover",
            "MIC lookup undercuts host lookup by 1e5 particles (paper: ~1e4)",
            r.crossover.map(|n| n as f64).unwrap_or(f64::INFINITY),
            Band::AtMost(1e5),
        ),
    ]
}

/// Run the Fig. 3 offload-asymptotics study at `scale` (the scale sets
/// the measured probe batch; the swept particle counts are the paper's).
pub fn run(scale: f64, verbose: bool) -> Fig3Result {
    let cfg = ProblemConfig {
        enable_sab: false,
        enable_urr: false,
        ..Default::default()
    };
    let problem = Problem::hm(HmModel::Small, &cfg);

    // Measure the real per-particle transport structure.
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
    let shape = shape_of(&problem);
    let segs_pp = out.tallies.segments as f64 / n_probe as f64;
    vprintln!(
        verbose,
        "measured: {:.1} flight segments per history ({} histories)\n",
        segs_pp,
        n_probe
    );

    let host_dev = catalog::device("host-e5-2687w").expect("default host");
    let host = NativeModel::new(host_dev.machine, Algorithm::History);
    let offload =
        OffloadModel::between(&host_dev, &catalog::device("knc-7120a").expect("knc entry"));
    let grid_bytes = (problem.xs.index_bytes() + problem.xs.data_bytes()) as f64;

    let ratio = |name| Column::modeled(name, 0.02, Fmt::Fixed(6));
    let mut table = Table::new(
        "fig3_offload_asymptotics",
        vec![
            Column::key("particles"),
            ratio("bank_over_gen"),
            ratio("transfer_over_gen"),
            ratio("mic_xs_over_gen"),
            ratio("host_xs_over_gen"),
        ],
    );
    let mut rows: Vec<Fig3Row> = Vec::new();
    for &n in &[100usize, 1_000, 10_000, 100_000, 1_000_000, 10_000_000] {
        // Scale the measured tallies to n particles for the generation time.
        let t = out.tallies.scaled_to(n as u64);
        let gen_time = host.batch_time(&shape, &t);

        let b = offload.breakdown(&shape, n, grid_bytes);
        let row = Fig3Row {
            particles: n,
            bank_over_gen: b.banking_host_s / gen_time,
            transfer_over_gen: b.transfer_bank_s / gen_time,
            mic_xs_over_gen: b.compute_device_s / gen_time,
            host_xs_over_gen: b.compute_host_s / gen_time,
        };
        table.push(vec![
            n.into(),
            row.bank_over_gen.into(),
            row.transfer_over_gen.into(),
            row.mic_xs_over_gen.into(),
            row.host_xs_over_gen.into(),
        ]);
        rows.push(row);
    }
    let crossover = rows
        .iter()
        .find(|r| r.mic_xs_over_gen < r.host_xs_over_gen)
        .map(|r| r.particles);
    vprintln!(
        verbose,
        "MIC-compute curve crosses under host-compute at n = {crossover:?} (paper: ~10,000)\n\
         note: the bank *transfer* remains the dominant offload cost at every n \
         (Table II's conclusion), so profitable offload requires the asynchronous \
         overlap the paper stresses in §III-A3 — see EXPERIMENTS.md."
    );
    Fig3Result {
        segments_per_history: segs_pp,
        rows,
        crossover,
        table,
    }
}
