//! Fig. 6: strong scaling of the H.M. Large simulation with N = 10⁷ on
//! the Stampede cluster (CPU-only, CPU+1MIC, CPU+2MIC curves).
//!
//! Rank rates are the Stampede-clocked machine models priced on a real
//! measured transport run; the cluster model then applies the paper's
//! static α balancing, the per-rank rate knee (Fig. 5's left side), and
//! the per-batch synchronization cost. Checks: ≈95% efficiency at 128
//! nodes, the 1-MIC tail at 1,024 nodes, no tail for CPU-only, and the
//! 2-MIC curve stopping at 384 nodes (Stampede's partition size).

use mcs_cluster::{strong_scaling, CommModel, NodeSpec, ScalingPoint};
use mcs_core::engine::{transport_batch, Algorithm, BatchRequest, Threaded};
use mcs_core::history::batch_streams;
use mcs_core::problem::{HmModel, Problem, ProblemConfig};
use mcs_device::catalog;
use mcs_device::native::{shape_of, NativeModel};

use super::{check, vprintln, Band, CheckOutcome, Column, Fmt, Harness, HarnessRun, Table};
use crate::scaled_by;

/// Registry entry.
pub const HARNESS: Harness = Harness {
    name: "fig6",
    title: "Fig. 6: strong scaling, H.M. Large, N = 1e7, Stampede model",
    tables: &["fig6_strong_scaling"],
    run: |scale, verbose| {
        let r = run(scale, verbose);
        HarnessRun::new(score(&r), vec![r.table])
    },
};

/// One scaling curve of Fig. 6.
#[derive(Debug, Clone)]
pub struct Fig6Curve {
    /// Curve label ("CPU only", "CPU + 1 MIC", "CPU + 2 MIC").
    pub label: &'static str,
    /// Scaling points by ascending node count.
    pub points: Vec<ScalingPoint>,
}

impl Fig6Curve {
    /// The point at exactly `nodes`, if the curve has one.
    pub fn at(&self, nodes: usize) -> Option<&ScalingPoint> {
        self.points.iter().find(|p| p.nodes == nodes)
    }
}

/// Typed result of the Fig. 6 harness.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Modeled Stampede CPU rank rate (n/s).
    pub r_cpu: f64,
    /// Modeled Stampede MIC rank rate (n/s).
    pub r_mic: f64,
    /// The three curves in figure order.
    pub curves: Vec<Fig6Curve>,
    /// The `fig6_strong_scaling` table.
    pub table: Table,
}

impl Fig6Result {
    /// Look up a curve by label.
    pub fn curve(&self, label: &str) -> &Fig6Curve {
        self.curves
            .iter()
            .find(|c| c.label == label)
            .expect("fig6 curve")
    }
}

/// Stampede CPU and MIC rank rates (n/s): the Stampede-clocked machine
/// models priced on a real measured probe batch (shared with Fig. 7).
pub(super) fn stampede_rates(scale: f64) -> (f64, f64) {
    let problem = Problem::hm(HmModel::Large, &ProblemConfig::default());
    let shape = shape_of(&problem);
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
    let cpu = NativeModel::new(catalog::machine("host-e5-2680"), Algorithm::History);
    let mic = NativeModel::new(catalog::machine("knc-se10p"), Algorithm::History);
    (cpu.calc_rate(&shape, &t), mic.calc_rate(&shape, &t))
}

/// The columns Fig. 6 and Fig. 7 share: one scaling point per row.
pub(super) fn scaling_columns() -> Vec<Column> {
    vec![
        Column::key("nodes"),
        Column::modeled("batch_time_s", 0.02, Fmt::Fixed(4)),
        Column::modeled("rate", 0.02, Fmt::Fixed(0)),
        Column::modeled("efficiency", 0.02, Fmt::Fixed(4)),
    ]
}

/// Fig. 6 — strong scaling on Stampede.
pub fn score(r: &Fig6Result) -> Vec<CheckOutcome> {
    let one_mic = r.curve("CPU + 1 MIC");
    let cpu_only = r.curve("CPU only");
    vec![
        check(
            "F6.eff_128",
            "CPU + 1 MIC efficiency at 128 nodes (paper: ~95%)",
            one_mic.at(128).map(|p| p.efficiency).unwrap_or(0.0),
            Band::AtLeast(0.93),
        ),
        check(
            "F6.tail_1024",
            "CPU + 1 MIC efficiency sags by 1024 nodes (the Fig. 6 tail)",
            one_mic.at(1024).map(|p| p.efficiency).unwrap_or(1.0),
            Band::AtMost(0.85),
        ),
        check(
            "F6.cpu_only_flat",
            "CPU-only curve stays flat out to 1024 nodes",
            cpu_only.at(1024).map(|p| p.efficiency).unwrap_or(0.0),
            Band::AtLeast(0.95),
        ),
    ]
}

/// Run the Fig. 6 strong-scaling study at `scale` (the scale sets the
/// measured probe batch; node counts and N = 10⁷ are the paper's).
pub fn run(scale: f64, verbose: bool) -> Fig6Result {
    let (r_cpu, r_mic) = stampede_rates(scale);
    vprintln!(
        verbose,
        "\nStampede rank rates (modeled from measured run): CPU {:.0} n/s, MIC {:.0} n/s\n",
        r_cpu,
        r_mic
    );

    let comm = CommModel::fdr_infiniband();
    let n_total = 10_000_000u64;
    let curves_spec: [(&'static str, NodeSpec, Vec<usize>); 3] = [
        (
            "CPU only",
            NodeSpec::cpu_only(r_cpu),
            vec![4, 8, 16, 32, 64, 128, 256, 512, 1024],
        ),
        (
            "CPU + 1 MIC",
            NodeSpec::with_one_mic(r_cpu, r_mic),
            vec![4, 8, 16, 32, 64, 128, 256, 512, 1024],
        ),
        (
            "CPU + 2 MIC",
            NodeSpec::with_two_mics(r_cpu, r_mic),
            vec![4, 8, 16, 32, 64, 128, 384], // 384 nodes have 2 MICs
        ),
    ];

    let mut columns = vec![Column::key("curve")];
    columns.extend(scaling_columns());
    let mut table = Table::new("fig6_strong_scaling", columns);
    let mut curves = Vec::new();
    for (label, node, counts) in &curves_spec {
        let points = strong_scaling(node, counts, n_total, &comm);
        for p in &points {
            table.push(vec![
                (*label).into(),
                p.nodes.into(),
                p.batch_time.into(),
                p.rate.into(),
                p.efficiency.into(),
            ]);
        }
        curves.push(Fig6Curve { label, points });
    }

    Fig6Result {
        r_cpu,
        r_mic,
        curves,
        table,
    }
}
