//! Fig. 7: weak scaling of the H.M. Large simulation with N = 10⁶ per
//! node on the Stampede cluster model.
//!
//! Check: ≥94% efficiency at all scales up to 128 nodes, and (the
//! paper's footnoted claim) the curve stays flat out to 2¹⁰ nodes.

use mcs_cluster::{min_efficiency, weak_scaling, CommModel, NodeSpec, ScalingPoint};

use super::fig6::{scaling_columns, stampede_rates};
use super::{check, vprintln, Band, CheckOutcome, Harness, HarnessRun, Table};

/// Registry entry.
pub const HARNESS: Harness = Harness {
    name: "fig7",
    title: "Fig. 7: weak scaling, H.M. Large, N = 1e6 per node, Stampede model",
    tables: &["fig7_weak_scaling"],
    run: |scale, verbose| {
        let r = run(scale, verbose);
        HarnessRun::new(score(&r), vec![r.table])
    },
};

/// Typed result of the Fig. 7 harness.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Modeled Stampede CPU rank rate (n/s).
    pub r_cpu: f64,
    /// Modeled Stampede MIC rank rate (n/s).
    pub r_mic: f64,
    /// Weak-scaling points by ascending node count (1 → 1,024).
    pub points: Vec<ScalingPoint>,
    /// The `fig7_weak_scaling` table.
    pub table: Table,
}

impl Fig7Result {
    /// Smallest efficiency over the whole curve.
    pub fn min_efficiency(&self) -> f64 {
        min_efficiency(&self.points)
    }
}

/// Fig. 7 — weak scaling.
pub fn score(r: &Fig7Result) -> Vec<CheckOutcome> {
    vec![check(
        "F7.min_efficiency",
        "weak-scaling efficiency at every node count up to 2^10 (paper: >94%)",
        r.min_efficiency(),
        Band::AtLeast(0.94),
    )]
}

/// Run the Fig. 7 weak-scaling study at `scale`.
pub fn run(scale: f64, verbose: bool) -> Fig7Result {
    // Rank rates from a real measured run (same procedure as Fig. 6).
    let (r_cpu, r_mic) = stampede_rates(scale);
    vprintln!(
        verbose,
        "\nrank rates: CPU {:.0} n/s, MIC {:.0} n/s\n",
        r_cpu,
        r_mic
    );

    let comm = CommModel::fdr_infiniband();
    let node = NodeSpec::with_one_mic(r_cpu, r_mic);
    let counts = [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
    let points = weak_scaling(&node, &counts, 1_000_000, &comm);

    let mut table = Table::new("fig7_weak_scaling", scaling_columns());
    for p in &points {
        table.push(vec![
            p.nodes.into(),
            p.batch_time.into(),
            p.rate.into(),
            p.efficiency.into(),
        ]);
    }

    Fig7Result {
        r_cpu,
        r_mic,
        points,
        table,
    }
}
