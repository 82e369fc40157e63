//! Table II: average times and sizes (per iteration) for banking 10⁵
//! particles and offloading to the MIC.
//!
//! All rows are MODELED from the calibrated offload pipeline (there is no
//! PCIe-attached coprocessor to measure); the bank-size and banking-time
//! constants are themselves calibrated to this table, so the interesting
//! check is the *relative* structure: transfer ≫ compute ≫ banking, and
//! the H.M. Large rows scaling with the 320-nuclide per-particle state.
//! The energy-grid row also reports this reproduction's real grid size.

use mcs_core::problem::{HmModel, Problem, ProblemConfig};
use mcs_device::catalog;
use mcs_device::workload::ProblemShape;
use mcs_device::{OffloadBreakdown, OffloadModel};

use super::{check, holds, vprintln, Band, CheckOutcome, Column, Fmt, Harness, HarnessRun, Table};
use crate::fmt_secs;

/// Registry entry.
pub const HARNESS: Harness = Harness {
    name: "table2",
    title: "Table II: banking + offload costs per iteration (1e5 particles)",
    tables: &["table2_offload_overhead"],
    run: |scale, verbose| {
        let r = run(scale, verbose);
        HarnessRun::new(score(&r), vec![r.table])
    },
};

/// Typed result of the Table II harness.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// Modeled per-iteration breakdown for H.M. Small.
    pub small: OffloadBreakdown,
    /// Modeled per-iteration breakdown for H.M. Large.
    pub large: OffloadBreakdown,
    /// This reproduction's real grid bytes (Small, Large).
    pub repro_grid_bytes: (f64, f64),
    /// The `table2_offload_overhead` table.
    pub table: Table,
}

/// Table II — banking and offload overheads.
pub fn score(r: &Table2Result) -> Vec<CheckOutcome> {
    vec![
        check(
            "T2.transfer_dominates_small",
            "H.M. Small: transfer > device compute > host banking",
            holds(r.small.transfer_dominates()),
            Band::Holds,
        ),
        check(
            "T2.transfer_dominates_large",
            "H.M. Large: transfer > device compute > host banking",
            holds(r.large.transfer_dominates()),
            Band::Holds,
        ),
        check(
            "T2.grid_grows",
            "H.M. Large energy grid is several times H.M. Small's",
            r.repro_grid_bytes.1 / r.repro_grid_bytes.0,
            Band::AtLeast(1.5),
        ),
    ]
}

/// Run the Table II cost model. The offload pipeline is fully modeled at
/// the paper's 10⁵-particle bank, so `_scale` is unused.
pub fn run(_scale: f64, verbose: bool) -> Table2Result {
    let model = OffloadModel::between(
        &catalog::device("host-e5-2687w").expect("default host"),
        &catalog::device("knc-7120a").expect("knc entry"),
    );
    let n = 100_000;

    // Real grid sizes from this reproduction's synthetic libraries.
    let cfg = ProblemConfig {
        enable_sab: false,
        enable_urr: false,
        ..Default::default()
    };
    let small = Problem::hm(HmModel::Small, &cfg);
    let large = Problem::hm(HmModel::Large, &cfg);
    let grid_bytes = |p: &Problem| (p.xs.index_bytes() + p.xs.data_bytes()) as f64;

    // Every cell is a quantity printed with its unit ("386.712 ms"),
    // compared against the golden as number + unit.
    let mut table = Table::new(
        "table2_offload_overhead",
        vec![
            Column::key("operation"),
            Column::modeled("hm_small", 0.02, Fmt::Plain),
            Column::modeled("hm_large", 0.02, Fmt::Plain),
        ],
    );
    let shapes = [
        (
            ProblemShape {
                nuclides_per_material: vec![34, 1, 3],
                union_points: small.xs.search_points(),
                full_physics: false,
            },
            grid_bytes(&small),
            1.31e9,
        ),
        (
            ProblemShape {
                nuclides_per_material: vec![320, 1, 3],
                union_points: large.xs.search_points(),
                full_physics: false,
            },
            grid_bytes(&large),
            8.37e9,
        ),
    ];
    let b_small = model.breakdown(&shapes[0].0, n, shapes[0].2);
    let b_large = model.breakdown(&shapes[1].0, n, shapes[1].2);

    let mut row =
        |label: &str, s: String, l: String| table.push(vec![label.into(), s.into(), l.into()]);
    row(
        "banking (host)",
        fmt_secs(b_small.banking_host_s),
        fmt_secs(b_large.banking_host_s),
    );
    row(
        "banking (MIC)",
        fmt_secs(b_small.banking_device_s),
        fmt_secs(b_large.banking_device_s),
    );
    row(
        "transfer time (PCIe)",
        fmt_secs(b_small.transfer_bank_s),
        fmt_secs(b_large.transfer_bank_s),
    );
    row(
        "bank size transferred",
        format!("{:.0} MB", b_small.bank_bytes / 1e6),
        format!("{:.2} GB", b_large.bank_bytes / 1e9),
    );
    row(
        "energy grid size (paper's data)",
        "1.31 GB".to_string(),
        "8.37 GB".to_string(),
    );
    row(
        "energy grid transfer (paper size)",
        fmt_secs(b_small.transfer_grid_s),
        fmt_secs(b_large.transfer_grid_s),
    );
    row(
        "energy grid size (this repro)",
        format!("{:.2} GB", shapes[0].1 / 1e9),
        format!("{:.2} GB", shapes[1].1 / 1e9),
    );
    row(
        "compute bank cross sections (MIC)",
        fmt_secs(b_small.compute_device_s),
        fmt_secs(b_large.compute_device_s),
    );
    row(
        "compute bank cross sections (host)",
        fmt_secs(b_small.compute_host_s),
        fmt_secs(b_large.compute_host_s),
    );

    vprintln!(
        verbose,
        "\npaper (H.M. Small / Large): banking host 4/4 ms, MIC 21/34 ms,"
    );
    vprintln!(
        verbose,
        "transfer 460/2,210 ms, bank 496 MB / 2.84 GB, grid 1.31/8.37 GB,"
    );
    vprintln!(verbose, "MIC compute 17/101 ms");

    Table2Result {
        small: b_small,
        large: b_large,
        repro_grid_bytes: (shapes[0].1, shapes[1].1),
        table,
    }
}
