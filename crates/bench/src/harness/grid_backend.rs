//! Grid-backend ablation: lookup rate and index-structure memory for the
//! three energy-grid search strategies behind [`mcs_xs::XsContext`] —
//! per-nuclide binary search (the paper's baseline), the unionized grid
//! (Leppänen, the paper's shared optimization), and the hash-binned grid
//! (the XSBench-style memory-frugal alternative).
//!
//! Two claims are measured per backend × bank size:
//!
//! * **rate** — SIMD-banked macroscopic lookups per second over a Watt-ish
//!   log-uniform energy bank (checksummed so the golden diff pins the
//!   arithmetic, not just the timing);
//! * **index bytes** — the memory the backend's search structures add on
//!   top of the pointwise data (the unionized grid trades ~`n_union ×
//!   n_nuclides × 4 B` for its O(1) second stage; the hash grid caps that
//!   at `n_bins × n_nuclides × 4 B`).
//!
//! The determinism contract is re-verified end to end: a short
//! history-mode eigenvalue per backend must produce bit-identical k per
//! batch, since every backend resolves the same grid intervals.

use mcs_core::engine::{self, RunPlan, Threaded};
use mcs_core::problem::Problem;
use mcs_xs::{GridBackendKind, LibrarySpec, MacroXs, Material, XsContext};

use super::{check, holds, vprintln, Band, CheckOutcome, Column, Fmt, Harness, HarnessRun, Table};
use crate::{log_energies, scaled_by, time_it};

/// Registry entry.
pub const HARNESS: Harness = Harness {
    name: "grid_backend",
    title:
        "BENCH grid_backend: XS lookup rate and index memory per energy-grid backend (H.M. Small)",
    tables: &["BENCH_grid_backend"],
    run: |scale, verbose| {
        let r = run(scale, verbose);
        HarnessRun::new(score(&r), vec![r.table])
    },
};

/// One backend × bank-size sample.
#[derive(Debug, Clone)]
pub struct GridBackendRow {
    /// Grid-search backend.
    pub backend: GridBackendKind,
    /// Bank size (scaled).
    pub bank: usize,
    /// MEASURED SIMD-banked lookup rate on this host (lookups/s).
    pub lookups_per_s: f64,
    /// Bytes of index structures this backend adds over the pointwise data.
    pub index_bytes: usize,
    /// Σ of the total cross sections over the bank (golden anchor).
    pub checksum: f64,
}

/// Typed result of the grid-backend harness.
#[derive(Debug, Clone)]
pub struct GridBackendResult {
    /// Rows grouped by backend, ascending bank size within each.
    pub rows: Vec<GridBackendRow>,
    /// Per-backend bit patterns of the per-batch track-length k from a
    /// short history-mode eigenvalue (the cross-backend determinism
    /// contract: all entries must be identical across backends).
    pub batch_k_bits: Vec<(GridBackendKind, Vec<u64>)>,
    /// The `BENCH_grid_backend` table.
    pub table: Table,
}

impl GridBackendResult {
    /// Index bytes reported for a backend (0 if absent).
    pub fn index_bytes_of(&self, kind: GridBackendKind) -> usize {
        self.rows
            .iter()
            .find(|r| r.backend == kind)
            .map(|r| r.index_bytes)
            .unwrap_or(0)
    }

    /// Hash-binned index size as a fraction of the unionized index size.
    pub fn hash_index_fraction(&self) -> f64 {
        let union = self.index_bytes_of(GridBackendKind::Unionized) as f64;
        self.index_bytes_of(GridBackendKind::HashBinned) as f64 / union.max(1.0)
    }

    /// True iff every backend produced bit-identical per-batch k.
    pub fn k_bits_identical(&self) -> bool {
        let (_, reference) = &self.batch_k_bits[0];
        self.batch_k_bits.iter().all(|(_, bits)| bits == reference)
    }
}

/// The unified lookup context's determinism and memory contracts
/// across the three energy-grid search strategies.
pub fn score(r: &GridBackendResult) -> Vec<CheckOutcome> {
    let rates_positive = r
        .rows
        .iter()
        .all(|row| row.lookups_per_s > 0.0 && row.checksum > 0.0);
    vec![
        check(
            "GB.k_bitwise",
            "per-batch k-eff is bit-identical across all three grid backends",
            holds(r.k_bits_identical()),
            Band::Holds,
        ),
        check(
            "GB.hash_index_fraction",
            "hash-binned index bytes as a fraction of the unionized index",
            r.hash_index_fraction(),
            Band::AtMost(0.25),
        ),
        check(
            "GB.rates_positive",
            "every backend x bank sample produced a positive lookup rate and checksum",
            holds(rates_positive),
            Band::Holds,
        ),
    ]
}

/// Run the backend × bank-size sweep at `scale`.
pub fn run(scale: f64, verbose: bool) -> GridBackendResult {
    // S(α,β)/URR removed, as in the paper's lookup micro-benchmark.
    // Contexts come from the process-wide cache: repeated harness runs in
    // one process (mcs-check, `mcs-bench run --all`) reuse the built indices.
    let contexts: Vec<XsContext> = GridBackendKind::ALL
        .iter()
        .map(|&k| mcs_xs::cache::context_for_spec(&LibrarySpec::hm_small(), k))
        .collect();
    let fuel = Material::hm_fuel(contexts[0].lib());

    let mut rows = Vec::new();
    let mut table = Table::new(
        "BENCH_grid_backend",
        vec![
            Column::key("backend"),
            Column::key("bank_size").prefixed("b"),
            Column::measured("lookups_measured_per_s", Fmt::Fixed(1)).trended(),
            // A structure size: pure counting, identical on every host.
            Column::exact("index_bytes", Fmt::Plain).trended(),
            // A deterministic float reduction, identical across hosts
            // up to print precision.
            Column::modeled("checksum", 1e-9, Fmt::Sci(9)),
        ],
    )
    .trended("grid");
    for ctx in &contexts {
        for &n in &[1_000usize, 10_000, 100_000] {
            let n = scaled_by(n, scale);
            let energies = log_energies(n, 0x6B1D);
            let mut out = vec![MacroXs::default(); n];
            let (_, secs) = time_it(|| ctx.batch_macro_xs_simd(&fuel, &energies, &mut out));
            let checksum: f64 = out.iter().map(|x| x.total).sum();
            let row = GridBackendRow {
                backend: ctx.backend_kind(),
                bank: n,
                lookups_per_s: n as f64 / secs.max(1e-12),
                index_bytes: ctx.index_bytes(),
                checksum,
            };
            table.push(vec![
                row.backend.name().into(),
                row.bank.into(),
                row.lookups_per_s.into(),
                row.index_bytes.into(),
                row.checksum.into(),
            ]);
            rows.push(row);
        }
    }

    // Determinism contract across backends: short history-mode
    // eigenvalue, per-batch k bit patterns.
    let plan = RunPlan {
        particles: scaled_by(1_000, scale).max(100),
        inactive: 1,
        active: 2,
        entropy_mesh: (4, 4, 4),
        ..RunPlan::default()
    };
    let batch_k_bits: Vec<(GridBackendKind, Vec<u64>)> = GridBackendKind::ALL
        .iter()
        .map(|&kind| {
            let problem = Problem::test_small_with_backend(kind);
            let res = engine::run_with_problem(&problem, &plan, &mut Threaded::ambient())
                .into_eigenvalue()
                .result;
            let bits = res.batches.iter().map(|b| b.k_track.to_bits()).collect();
            (kind, bits)
        })
        .collect();
    let result = GridBackendResult {
        rows,
        batch_k_bits,
        table,
    };
    vprintln!(
        verbose,
        "\nper-batch k bit-identical across backends: {}",
        if result.k_bits_identical() {
            "yes"
        } else {
            "NO"
        }
    );
    result
}
