//! Device-catalog ablation: every calibrated accelerator entry priced on
//! the reference workload, plus a measured `smr` leg and the
//! heterogeneous-cluster determinism contract.
//!
//! Three legs:
//!
//! * **reference** — each catalog entry's MODELED rate on the calibration
//!   reference workload (H.M. Large inventory, 100-segment mix), under
//!   history-scalar and event-banked transport, with α vs the default
//!   host and the calibration ratio against the entry's published rate;
//! * **smr** — a real transported batch of the heavy `smr` catalog model
//!   on this host (MEASURED wall rate), whose instrumented tallies are
//!   then priced on every device (MODELED rates from measured counts);
//! * **determinism** — a heterogeneous device mix assigned to distributed
//!   ranks via `DistributedPolicy::with_devices` must reproduce the
//!   serial run bit-identically (α-balanced splits move work between
//!   ranks, never results), and the legacy `knc-7120a`/`host-e5-2687w`
//!   entries must price kernels bit-identically to the historic
//!   `MachineSpec` constructors.

use mcs_cluster::DistributedPolicy;
use mcs_core::engine::{
    self, transport_batch, Algorithm, BatchRequest, ModelSpec, RunPlan, Serial, Threaded,
};
use mcs_core::history::batch_streams;
use mcs_device::catalog::{self, DeviceSpec};
use mcs_device::native::shape_of;
use mcs_device::symmetric::SymmetricModel;
use mcs_device::MachineSpec;

use super::{
    check, holds, vprintln, Band, CheckOutcome, Column, Fmt, Harness, HarnessRun, Table, Value,
};
use crate::{scaled_by, time_it};

/// Registry entry.
pub const HARNESS: Harness = Harness {
    name: "device",
    title: "BENCH device: calibrated device catalog — modeled rates, smr leg, hetero determinism",
    tables: &["BENCH_device"],
    run: |scale, verbose| {
        let r = run(scale, verbose);
        HarnessRun::new(score(&r), vec![r.table])
    },
};

/// The heterogeneous rank mix exercised by the determinism leg and the
/// symmetric-balance comparison.
pub const HETERO_MIX: [&str; 3] = ["host-e5-2687w", "knc-7120a", "a100"];

/// One device × model row.
#[derive(Debug, Clone)]
pub struct DeviceRow {
    /// `"reference"` or `"smr"`.
    pub model: &'static str,
    /// Catalog entry id.
    pub id: &'static str,
    /// Device class name (`cpu`/`coprocessor`/`gpu`).
    pub class: &'static str,
    /// Default transport kind for this class.
    pub transport: &'static str,
    /// MODELED rate under the entry's default transport (n/s).
    pub rate: f64,
    /// α = default-host rate / this device's rate (same transport basis
    /// as the paper's CPU/MIC α: each device under its own default).
    pub alpha_vs_host: f64,
    /// Modeled / published rate for ♦-calibrated entries.
    pub calibration_ratio: Option<f64>,
    /// Whether the ratio lands inside the entry's documented band.
    pub within_band: Option<bool>,
}

/// Typed result of the device-catalog harness.
#[derive(Debug, Clone)]
pub struct DeviceCatalogResult {
    /// Reference-workload rows then smr rows, catalog order within each.
    pub rows: Vec<DeviceRow>,
    /// MEASURED wall-clock transport rate of the smr batch on this host.
    pub smr_measured_host_rate: f64,
    /// Per-batch k bit patterns: serial vs heterogeneous-distributed.
    pub hetero_bitwise: bool,
    /// Legacy entries price kernels bit-identically to the historic
    /// `MachineSpec::host_e5_2687w()`/`mic_7120a()` constructors.
    pub legacy_exact: bool,
    /// Balanced / original aggregate rate for the [`HETERO_MIX`]
    /// symmetric job (Table III generalized to the catalog).
    pub balanced_gain: f64,
    /// The `BENCH_device` table.
    pub table: Table,
}

impl DeviceCatalogResult {
    /// Rows for one model leg.
    pub fn rows_of(&self, model: &str) -> Vec<&DeviceRow> {
        self.rows.iter().filter(|r| r.model == model).collect()
    }

    /// True iff every modeled rate is finite and positive.
    pub fn rates_positive(&self) -> bool {
        self.rows.iter().all(|r| r.rate.is_finite() && r.rate > 0.0)
    }

    /// Count of calibrated entries, and how many land in their band.
    pub fn calibration_counts(&self) -> (usize, usize) {
        let calibrated = self
            .rows_of("reference")
            .iter()
            .filter(|r| r.within_band.is_some())
            .count();
        let in_band = self
            .rows_of("reference")
            .iter()
            .filter(|r| r.within_band == Some(true))
            .count();
        (calibrated, in_band)
    }

    /// Reference-leg α for the paper's host/KNC pair.
    pub fn alpha_host_knc(&self) -> f64 {
        self.rows_of("reference")
            .iter()
            .find(|r| r.id == "knc-7120a")
            .map(|r| r.alpha_vs_host)
            .unwrap_or(0.0)
    }

    /// True iff every GPU-class rate beats every legacy-device rate on
    /// the reference workload (the decade of hardware between them).
    pub fn gpus_outrate_legacy(&self) -> bool {
        let reference = self.rows_of("reference");
        let slowest_gpu = reference
            .iter()
            .filter(|r| r.class == "gpu")
            .map(|r| r.rate)
            .fold(f64::INFINITY, f64::min);
        let fastest_legacy = reference
            .iter()
            .filter(|r| r.class != "gpu")
            .map(|r| r.rate)
            .fold(0.0, f64::max);
        slowest_gpu > fastest_legacy
    }
}

fn device_row(model: &'static str, dev: &DeviceSpec, rate: f64, host_rate: f64) -> DeviceRow {
    DeviceRow {
        model,
        id: dev.id,
        class: dev.class.name(),
        transport: dev.default_transport().keyword(),
        rate,
        alpha_vs_host: host_rate / rate,
        calibration_ratio: dev.calibration_ratio(),
        within_band: dev.within_calibration_band(),
    }
}

/// Modeled rates, calibration bands, legacy bit-identity, heterogeneous
/// determinism.
pub fn score(r: &DeviceCatalogResult) -> Vec<CheckOutcome> {
    let (calibrated, in_band) = r.calibration_counts();
    vec![
        check(
            "DC.rates_positive",
            "every modeled device rate on both legs is finite and positive",
            holds(r.rates_positive()),
            Band::Holds,
        ),
        check(
            "DC.calibrated_entries",
            "the catalog carries at least three entries calibrated vs published rates",
            calibrated as f64,
            Band::AtLeast(3.0),
        ),
        check(
            "DC.calibration_band",
            "every calibrated entry's modeled rate lands inside its documented band",
            holds(calibrated == in_band),
            Band::Holds,
        ),
        check(
            "DC.legacy_exact",
            "host-e5-2687w/knc-7120a price kernels bit-identically to the MachineSpec oracles",
            holds(r.legacy_exact),
            Band::Holds,
        ),
        check(
            "DC.alpha_host_knc",
            "reference-workload host/KNC alpha stays in the paper's plateau band",
            r.alpha_host_knc(),
            Band::Range { lo: 0.5, hi: 0.8 },
        ),
        check(
            "DC.gpu_ordering",
            "every GPU-class entry outrates every legacy device on the reference workload",
            holds(r.gpus_outrate_legacy()),
            Band::Holds,
        ),
        check(
            "DC.hetero_bitwise",
            "heterogeneous device ranks reproduce the serial run bit-identically",
            holds(r.hetero_bitwise),
            Band::Holds,
        ),
        check(
            "DC.balanced_gain",
            "alpha-balancing the hetero mix never loses aggregate rate",
            r.balanced_gain,
            Band::AtLeast(1.0),
        ),
    ]
}

/// Run the device-catalog sweep at `scale`.
pub fn run(scale: f64, verbose: bool) -> DeviceCatalogResult {
    let devices = catalog::all();
    let host = catalog::device("host-e5-2687w").expect("default host");

    // Leg 1: reference workload, every entry under its default transport.
    let host_ref_rate = host.modeled_native_rate(host.default_transport());
    let mut rows = Vec::new();
    for dev in &devices {
        let rate = dev.modeled_native_rate(dev.default_transport());
        rows.push(device_row("reference", dev, rate, host_ref_rate));
    }

    // Leg 2: one real transported batch of the heavy smr catalog model;
    // its measured tallies are then priced on every device.
    let plan = RunPlan {
        model: ModelSpec::named("smr"),
        ..RunPlan::default()
    };
    let problem = plan.build_problem();
    let shape = shape_of(&problem);
    let n = scaled_by(2_000, scale).max(100);
    let sources = problem.sample_initial_source(n, 0);
    let streams = batch_streams(problem.seed, 0, n);
    let (out, secs) = time_it(|| {
        transport_batch(
            &problem,
            &sources,
            &streams,
            &BatchRequest::default(),
            &mut Threaded::ambient(),
        )
    });
    let tallies = out.outcome.tallies;
    let smr_measured_host_rate = n as f64 / secs.max(1e-12);
    let smr_host_rate = host
        .native(host.default_transport())
        .calc_rate(&shape, &tallies);
    for dev in &devices {
        let rate = dev
            .native(dev.default_transport())
            .calc_rate(&shape, &tallies);
        rows.push(device_row("smr", dev, rate, smr_host_rate));
    }
    vprintln!(
        verbose,
        "\nsmr measured host transport rate: {:.0} n/s ({} particles)",
        smr_measured_host_rate,
        n
    );

    // Leg 3a: heterogeneous distributed ranks reproduce serial bitwise.
    let det_plan = RunPlan {
        particles: scaled_by(1_000, scale).max(100),
        inactive: 1,
        active: 2,
        entropy_mesh: (4, 4, 4),
        ..RunPlan::default()
    };
    let det_problem = det_plan.build_problem();
    let serial_bits: Vec<u64> =
        engine::run_with_problem(&det_problem, &det_plan, &mut Serial::new())
            .into_eigenvalue()
            .result
            .batches
            .iter()
            .map(|b| b.k_track.to_bits())
            .collect();
    let mix: Vec<DeviceSpec> = HETERO_MIX
        .iter()
        .map(|id| catalog::device(id).expect("hetero mix entry"))
        .collect();
    let mut hetero = DistributedPolicy::new(mix.len()).with_devices(&mix, Algorithm::History);
    let hetero_bits: Vec<u64> = engine::run_with_problem(&det_problem, &det_plan, &mut hetero)
        .into_eigenvalue()
        .result
        .batches
        .iter()
        .map(|b| b.k_track.to_bits())
        .collect();
    let hetero_bitwise = serial_bits == hetero_bits;
    vprintln!(
        verbose,
        "\nheterogeneous ranks ({}) bit-identical to serial: {}",
        HETERO_MIX.join(" + "),
        if hetero_bitwise { "yes" } else { "NO" }
    );

    // Leg 3b: legacy entries still ARE the historic machines.
    let counts = catalog::reference_particle_counts(Algorithm::History);
    let legacy_exact = [
        ("host-e5-2687w", MachineSpec::host_e5_2687w()),
        ("knc-7120a", MachineSpec::mic_7120a()),
    ]
    .iter()
    .all(|(id, legacy)| {
        let dev = catalog::device(id).expect("legacy entry");
        dev.machine.kernel_time(&counts).to_bits() == legacy.kernel_time(&counts).to_bits()
    });
    vprintln!(
        verbose,
        "legacy entries price bit-identically to MachineSpec constructors: {}",
        if legacy_exact { "yes" } else { "NO" }
    );

    // Table III generalized: α-balancing the hetero mix.
    let sym = SymmetricModel::from_devices(&mix, Algorithm::History);
    let n_total = 100_000;
    let balanced_gain = sym.balanced_rate(n_total) / sym.original_rate(n_total).max(1e-12);
    vprintln!(
        verbose,
        "symmetric {}: balanced/original = {:.3}",
        HETERO_MIX.join("+"),
        balanced_gain
    );

    // Modeled rates: reference rows are analytic, smr rows price
    // deterministic transport counts that a scalar-leg FP contraction can
    // perturb well under 1%. The calibration columns are pure analytic
    // arithmetic; two decimals keep them byte-stable across ISA legs.
    let mut table = Table::new(
        "BENCH_device",
        vec![
            Column::key("model"),
            Column::key("device"),
            Column::exact("class", Fmt::Plain),
            Column::key("transport"),
            Column::modeled("rate_modeled_n_per_s", 0.02, Fmt::Fixed(1)).trended(),
            Column::modeled("alpha_vs_host", 0.02, Fmt::Fixed(4)),
            Column::exact("calibration_ratio", Fmt::Fixed(2)),
            Column::exact("in_band", Fmt::Plain),
        ],
    )
    .trended("device");
    for r in &rows {
        table.push(vec![
            r.model.into(),
            r.id.into(),
            r.class.into(),
            r.transport.into(),
            r.rate.into(),
            r.alpha_vs_host.into(),
            r.calibration_ratio.map_or(Value::from("-"), Value::from),
            match r.within_band {
                Some(true) => "yes",
                Some(false) => "no",
                None => "-",
            }
            .into(),
        ]);
    }
    DeviceCatalogResult {
        rows,
        smr_measured_host_rate,
        hetero_bitwise,
        legacy_exact,
        balanced_gain,
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intact_device_passes_and_perturbed_device_fails() {
        // One real reduced-scale catalog sweep, then targeted
        // perturbations of the typed result — the exit-flip
        // demonstration for every DC gate.
        let good = run(0.05, false);
        let before = score(&good);
        assert!(before.iter().all(|c| c.passed), "{before:?}");

        let fails = |r: &DeviceCatalogResult, id: &str| {
            let out = score(r);
            assert!(
                !out.iter().find(|c| c.id == id).unwrap().passed,
                "{id} should fail after perturbation"
            );
        };
        let mut r = good.clone();
        r.rows[0].rate = -1.0;
        fails(&r, "DC.rates_positive");

        let mut r = good.clone();
        for row in &mut r.rows {
            row.within_band = None;
        }
        fails(&r, "DC.calibrated_entries");

        let mut r = good.clone();
        r.rows
            .iter_mut()
            .find(|x| x.within_band.is_some())
            .unwrap()
            .within_band = Some(false);
        fails(&r, "DC.calibration_band");

        let mut r = good.clone();
        r.legacy_exact = false;
        fails(&r, "DC.legacy_exact");

        // Drift the KNC alpha out of the paper's plateau.
        let mut r = good.clone();
        r.rows
            .iter_mut()
            .find(|x| x.model == "reference" && x.id == "knc-7120a")
            .unwrap()
            .alpha_vs_host = 0.3;
        fails(&r, "DC.alpha_host_knc");

        // A GPU falling below the KNL projection breaks the ordering.
        let mut r = good.clone();
        r.rows
            .iter_mut()
            .find(|x| x.model == "reference" && x.id == "a100")
            .unwrap()
            .rate = 10_000.0;
        fails(&r, "DC.gpu_ordering");

        let mut r = good.clone();
        r.hetero_bitwise = false;
        fails(&r, "DC.hetero_bitwise");

        let mut r = good;
        r.balanced_gain = 0.8;
        fails(&r, "DC.balanced_gain");
    }
}
