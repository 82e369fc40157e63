//! The device catalog: named accelerator models with calibration data.
//!
//! A [`DeviceSpec`] generalizes the hard-wired 2015 pair (KNC Phi +
//! Xeon host) into a pluggable entry: structural datasheet parameters
//! (cores/SMs, SIMD/warp width, clock, HBM bandwidth + capacity, host
//! link) live in an embedded [`MachineSpec`] + [`PcieBus`], per-device
//! power draw in [`PowerParams`], and — for entries fitted against a
//! published measurement — a [`Calibration`] record naming the source
//! paper, its reported rate, and the accepted band.
//!
//! | name            | class       | machine                               |
//! |-----------------|-------------|---------------------------------------|
//! | `host-e5-2687w` | CPU         | the paper's JLSE host Xeon            |
//! | `host-e5-2680`  | CPU         | the paper's cluster-node Xeon         |
//! | `knc-7120a`     | coprocessor | Xeon Phi 7120A (Knights Corner)       |
//! | `knc-se10p`     | coprocessor | Xeon Phi SE10P (TACC Stampede)        |
//! | `knl-projection`| CPU         | the paper's Knights Landing forecast  |
//! | `gpu-max-1100`  | GPU         | Intel Data Center GPU Max 1100        |
//! | `a100`          | GPU         | NVIDIA A100 (SXM, 40 GB)              |
//! | `mi250x`        | GPU         | AMD Instinct MI250X                   |
//!
//! The first five entries wrap the historic [`MachineSpec`] constructors
//! **bit-identically**: the embedded machine is the very same struct
//! value, priced by the very same kernel-time code, so every golden
//! harness number carries over unchanged (the legacy constructors stay
//! on as test oracles). The three GPU entries are new: structural
//! parameters from vendor datasheets, ♦-calibrated gather/call/libm
//! factors fitted so the modeled event-mode rate on the reference
//! workload lands within each entry's documented band of the rate its
//! source paper reports.

use mcs_core::engine::Algorithm;

use crate::native::NativeModel;
use crate::offload::OffloadModel;
use crate::pcie::PcieBus;
use crate::power::PowerSpec;
use crate::spec::{KernelCounts, MachineSpec};
use crate::symmetric::SymmetricModel;
use crate::workload::{segment_other_costs, xs_lookup_banked, xs_lookup_scalar, ProblemShape};

/// Names of all catalog entries, in presentation order.
pub const NAMES: [&str; 8] = [
    "host-e5-2687w",
    "host-e5-2680",
    "knc-7120a",
    "knc-se10p",
    "knl-projection",
    "gpu-max-1100",
    "a100",
    "mi250x",
];

/// One-line description per entry, parallel to [`NAMES`].
pub const DESCRIPTIONS: [&str; 8] = [
    "Xeon E5-2687W host CPU (the paper's JLSE node, default)",
    "Xeon E5-2680 cluster-node CPU",
    "Xeon Phi 7120A coprocessor (Knights Corner, the paper's MIC)",
    "Xeon Phi SE10P coprocessor (TACC Stampede variant)",
    "Knights Landing self-hosted projection (the paper's forecast)",
    "Intel Data Center GPU Max 1100 (calibrated vs arXiv:2403.02735)",
    "NVIDIA A100 SXM 40 GB (calibrated vs arXiv:2403.12345)",
    "AMD Instinct MI250X (calibrated vs arXiv:2403.12345)",
];

/// The broad architecture class of a device (drives the default
/// transport kind and per-batch overhead expectations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceClass {
    /// Out-of-order host CPU.
    Cpu,
    /// In-order many-core coprocessor behind a PCIe link (KNC-style).
    Coprocessor,
    /// Discrete GPU (wide SIMT, HBM, offload-only).
    Gpu,
}

impl DeviceClass {
    /// Human-readable class name.
    pub fn name(self) -> &'static str {
        match self {
            DeviceClass::Cpu => "cpu",
            DeviceClass::Coprocessor => "coprocessor",
            DeviceClass::Gpu => "gpu",
        }
    }
}

/// Per-device power draw (replaces the name-sniffing dispatch the old
/// `PowerSpec::for_machine` did).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerParams {
    /// Draw under transport load, W.
    pub load_w: f64,
    /// Idle draw while waiting on other units, W.
    pub idle_w: f64,
}

/// A published measurement an entry's ♦ parameters were fitted against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Reported calculation rate (neutrons/s) for a depleted-fuel
    /// large-model transport run on one device.
    pub published_rate: f64,
    /// Where the number comes from.
    pub source: &'static str,
    /// Accepted relative deviation of the modeled rate (e.g. `0.30`).
    pub band: f64,
}

/// One catalog entry: a named, classed, calibrated device model.
#[derive(Debug, Clone, Copy)]
pub struct DeviceSpec {
    /// Catalog name (`knc-7120a`, `a100`, ...).
    pub id: &'static str,
    /// One-line description (parallel to the catalog listing).
    pub description: &'static str,
    /// Architecture class.
    pub class: DeviceClass,
    /// The structural + ♦-calibrated machine model. For the legacy
    /// entries this is the historic constructor's exact struct value.
    pub machine: MachineSpec,
    /// The host link (PCIe or equivalent fabric).
    pub link: PcieBus,
    /// Power draw parameters.
    pub power: PowerParams,
    /// Calibration record, for entries fitted against a published rate.
    pub calibration: Option<Calibration>,
}

/// Is `name` a catalog entry?
pub fn is_known(name: &str) -> bool {
    NAMES.contains(&name)
}

/// The comma-separated entry list (for error messages and usage text).
pub fn names_joined() -> String {
    NAMES.join(", ")
}

/// The standard "no such device" message, naming the valid entries.
pub fn unknown_device(name: &str) -> String {
    format!(
        "unknown device \"{name}\" (valid catalog entries: {})",
        names_joined()
    )
}

/// Look up a catalog entry by name.
pub fn device(name: &str) -> Result<DeviceSpec, String> {
    let spec = match name {
        "host-e5-2687w" => DeviceSpec {
            id: "host-e5-2687w",
            description: DESCRIPTIONS[0],
            class: DeviceClass::Cpu,
            machine: MachineSpec::host_e5_2687w(),
            link: PcieBus::gen2_x16(),
            power: PowerParams {
                load_w: 300.0,
                idle_w: 120.0,
            },
            calibration: None,
        },
        "host-e5-2680" => DeviceSpec {
            id: "host-e5-2680",
            description: DESCRIPTIONS[1],
            class: DeviceClass::Cpu,
            machine: MachineSpec::host_e5_2680(),
            link: PcieBus::gen2_x16(),
            power: PowerParams {
                load_w: 300.0,
                idle_w: 120.0,
            },
            calibration: None,
        },
        "knc-7120a" => DeviceSpec {
            id: "knc-7120a",
            description: DESCRIPTIONS[2],
            class: DeviceClass::Coprocessor,
            machine: MachineSpec::mic_7120a(),
            link: PcieBus::gen2_x16(),
            power: PowerParams {
                load_w: 300.0,
                idle_w: 100.0,
            },
            calibration: None,
        },
        "knc-se10p" => DeviceSpec {
            id: "knc-se10p",
            description: DESCRIPTIONS[3],
            class: DeviceClass::Coprocessor,
            machine: MachineSpec::mic_se10p(),
            link: PcieBus::gen2_x16(),
            power: PowerParams {
                load_w: 300.0,
                idle_w: 100.0,
            },
            calibration: None,
        },
        "knl-projection" => DeviceSpec {
            id: "knl-projection",
            description: DESCRIPTIONS[4],
            class: DeviceClass::Cpu,
            machine: MachineSpec::knl_projection(),
            link: PcieBus::gen2_x16(),
            power: PowerParams {
                load_w: 215.0,
                idle_w: 70.0,
            },
            calibration: None,
        },
        // --- calibrated GPU entries ------------------------------------
        //
        // Structural fields are datasheet values mapped onto the model's
        // vocabulary: `cores` = Xe cores / SMs / CUs, `threads_per_core`
        // = resident hardware threads (warps/waves) used for latency
        // hiding, `f32_lanes` = SIMT width, `vector_ipc` = issue ports ×
        // per-clock vector throughput per core. The ♦ fields
        // (call/libm cycles, gather ns) are FITTED so the modeled
        // event-mode rate on the reference workload lands on the source
        // paper's published rate; see DESIGN.md §13.
        "gpu-max-1100" => DeviceSpec {
            id: "gpu-max-1100",
            description: DESCRIPTIONS[5],
            class: DeviceClass::Gpu,
            machine: MachineSpec {
                name: "Intel Data Center GPU Max 1100",
                cores: 56, // Xe cores
                threads_per_core: 8,
                clock_ghz: 1.55,
                f32_lanes: 16, // SIMD16 subgroups
                f64_lanes: 8,
                scalar_ipc: 1.0,
                vector_ipc: 8.0, // 8 vector engines per Xe core
                dep_latency_cycles: 8.0,
                call_cycles: 500.0,      // ♦
                libm_cycles: 800.0,      // ♦
                gather_scalar_ns: 0.080, // ♦
                gather_vector_ns: 0.011, // ♦
                dram_gb_s: 1228.8,       // HBM2e
                mem_gb: 48.0,
            },
            link: PcieBus {
                contiguous_gb_s: 55.0, // PCIe 5.0 x16
                banked_gb_s: 20.0,
                latency_s: 10e-6,
            },
            power: PowerParams {
                load_w: 300.0,
                idle_w: 100.0,
            },
            calibration: Some(Calibration {
                published_rate: 280_000.0,
                source: "arXiv:2403.02735 / arXiv:2403.12345 (OpenMC depleted \
                         large model, one GPU Max 1100-class device)",
                band: 0.30,
            }),
        },
        "a100" => DeviceSpec {
            id: "a100",
            description: DESCRIPTIONS[6],
            class: DeviceClass::Gpu,
            machine: MachineSpec {
                name: "NVIDIA A100 (SXM, 40 GB)",
                cores: 108, // SMs
                threads_per_core: 64,
                clock_ghz: 1.41,
                f32_lanes: 32, // warp width
                f64_lanes: 32, // full-rate FP64 datapath
                scalar_ipc: 1.0,
                vector_ipc: 4.0, // 4 warp schedulers per SM
                dep_latency_cycles: 8.0,
                call_cycles: 400.0,       // ♦
                libm_cycles: 600.0,       // ♦
                gather_scalar_ns: 0.040,  // ♦
                gather_vector_ns: 0.0065, // ♦
                dram_gb_s: 1555.0,        // HBM2e
                mem_gb: 40.0,
            },
            link: PcieBus {
                contiguous_gb_s: 26.0, // PCIe 4.0 x16
                banked_gb_s: 10.0,
                latency_s: 10e-6,
            },
            power: PowerParams {
                load_w: 400.0,
                idle_w: 80.0,
            },
            calibration: Some(Calibration {
                published_rate: 500_000.0,
                source: "arXiv:2403.12345 (OpenMC depleted large model, one A100)",
                band: 0.30,
            }),
        },
        "mi250x" => DeviceSpec {
            id: "mi250x",
            description: DESCRIPTIONS[7],
            class: DeviceClass::Gpu,
            machine: MachineSpec {
                name: "AMD Instinct MI250X",
                cores: 220, // CUs across both GCDs
                threads_per_core: 40,
                clock_ghz: 1.7,
                f32_lanes: 64, // wavefront width
                f64_lanes: 64,
                scalar_ipc: 1.0,
                vector_ipc: 2.0,
                dep_latency_cycles: 8.0,
                call_cycles: 400.0,       // ♦
                libm_cycles: 600.0,       // ♦
                gather_scalar_ns: 0.035,  // ♦
                gather_vector_ns: 0.0062, // ♦
                dram_gb_s: 3276.8,        // HBM2e, both stacks
                mem_gb: 128.0,
            },
            link: PcieBus {
                contiguous_gb_s: 36.0, // Infinity Fabric host link
                banked_gb_s: 14.0,
                latency_s: 5e-6,
            },
            power: PowerParams {
                load_w: 560.0,
                idle_w: 110.0,
            },
            calibration: Some(Calibration {
                published_rate: 560_000.0,
                source: "arXiv:2403.12345 (OpenMC depleted large model, one MI250X)",
                band: 0.30,
            }),
        },
        other => return Err(unknown_device(other)),
    };
    Ok(spec)
}

/// The machine model behind a catalog entry — the seam the figure and
/// table harnesses price kernels through. Panics on unknown names: the
/// catalog is static, so a miss is a programming error, not input.
pub fn machine(name: &str) -> MachineSpec {
    device(name).expect("static catalog entry").machine
}

/// All catalog entries, in [`NAMES`] order.
pub fn all() -> Vec<DeviceSpec> {
    NAMES
        .iter()
        .map(|n| device(n).expect("NAMES entries resolve"))
        .collect()
}

impl DeviceSpec {
    /// The transport kind this device class runs natively: GPUs only
    /// make sense with banked event kernels; CPUs and KNC-style
    /// coprocessors ran the paper's scalar history port.
    pub fn default_transport(&self) -> Algorithm {
        match self.class {
            DeviceClass::Gpu => Algorithm::EventBanking,
            _ => Algorithm::History,
        }
    }

    /// A native-execution model for this device (same overhead rule as
    /// the historic `NativeModel::new`, so legacy entries price
    /// bit-identically).
    pub fn native(&self, kind: Algorithm) -> NativeModel {
        NativeModel::new(self.machine, kind)
    }

    /// The power model for this device.
    pub fn power_spec(&self) -> PowerSpec {
        PowerSpec {
            load_w: self.power.load_w,
            idle_w: self.power.idle_w,
        }
    }

    /// Modeled calculation rate (neutrons/s) on the calibration
    /// reference workload (see [`reference_shape`]).
    pub fn modeled_native_rate(&self, kind: Algorithm) -> f64 {
        let model = self.native(kind);
        let n = REFERENCE_PARTICLES as f64;
        let counts = reference_particle_counts(kind).scale(n);
        n / (self.machine.kernel_time(&counts) + model.batch_overhead_s)
    }

    /// Modeled rate / published rate, for calibrated entries.
    pub fn calibration_ratio(&self) -> Option<f64> {
        self.calibration
            .map(|c| self.modeled_native_rate(self.default_transport()) / c.published_rate)
    }

    /// Does the modeled rate land inside the documented band of the
    /// published rate? `None` for uncalibrated (legacy-anchored) entries.
    pub fn within_calibration_band(&self) -> Option<bool> {
        let c = self.calibration?;
        let ratio = self.calibration_ratio()?;
        Some((ratio - 1.0).abs() <= c.band)
    }
}

impl OffloadModel {
    /// An offload pipeline from `host` to `device`, over the device's
    /// own link, with the paper's fixed marshal/launch costs.
    /// `between(host-e5-2687w, knc-7120a)` is the historic `jlse()`
    /// configuration, bit-identically.
    pub fn between(host: &DeviceSpec, device: &DeviceSpec) -> Self {
        Self {
            host: host.machine,
            device: device.machine,
            bus: device.link,
            marshal_s: 5e-3,
            launch_s: 8e-3,
        }
    }
}

impl SymmetricModel {
    /// A symmetric-mode rank set over catalog devices: one rank per
    /// device, each contributing its modeled rate in `kind` on the
    /// reference workload.
    pub fn from_devices(devices: &[DeviceSpec], kind: Algorithm) -> Self {
        let ranks: Vec<(&str, f64)> = devices
            .iter()
            .map(|d| (d.id, d.modeled_native_rate(kind)))
            .collect();
        Self::new(&ranks)
    }
}

/// Particles in the reference calibration batch.
pub const REFERENCE_PARTICLES: usize = 100_000;

/// The calibration reference workload's problem shape: the paper's
/// H.M. Large inventory (325 fuel nuclides, union grid, full physics).
pub fn reference_shape() -> ProblemShape {
    ProblemShape {
        nuclides_per_material: vec![325, 1, 3],
        union_points: 360_000,
        full_physics: true,
    }
}

/// Deterministic per-particle kernel counts for the reference workload:
/// 100 flight segments split 45 fuel / 5 clad / 50 water (the measured
/// H.M. Large segment mix), collision fraction 0.5.
pub fn reference_particle_counts(kind: Algorithm) -> KernelCounts {
    let shape = reference_shape();
    let mix: [(usize, f64); 3] = [(0, 45.0), (1, 5.0), (2, 50.0)];
    let mut total = KernelCounts::default();
    for (m, segs) in mix {
        let lookup = match kind {
            Algorithm::History => xs_lookup_scalar(&shape, m),
            Algorithm::EventBanking => xs_lookup_banked(&shape, m),
        };
        let per_segment = lookup.add(&segment_other_costs(&shape, m, 0.5));
        total = total.add(&per_segment.scale(segs));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_entry_resolves_and_lists() {
        assert_eq!(NAMES.len(), DESCRIPTIONS.len());
        for (name, desc) in NAMES.iter().zip(DESCRIPTIONS) {
            let d = device(name).expect(name);
            assert_eq!(d.id, *name);
            assert_eq!(d.description, desc);
            assert!(d.machine.cores > 0 && d.machine.clock_ghz > 0.0);
            assert!(d.power.load_w > d.power.idle_w);
        }
        assert_eq!(all().len(), NAMES.len());
    }

    #[test]
    fn unknown_entry_names_the_catalog() {
        let e = device("warp-core").unwrap_err();
        assert!(e.contains("warp-core"));
        for name in NAMES {
            assert!(e.contains(name), "error should list {name}: {e}");
        }
    }

    // --- satellite 1: legacy oracles -----------------------------------
    //
    // The catalog's legacy entries must carry the historic constructors'
    // exact struct values, so every pre-existing harness number is
    // reproduced bit-identically when priced through the catalog path.

    #[test]
    fn legacy_entries_embed_the_historic_machines_bit_identically() {
        let pairs: [(&str, MachineSpec); 5] = [
            ("host-e5-2687w", MachineSpec::host_e5_2687w()),
            ("host-e5-2680", MachineSpec::host_e5_2680()),
            ("knc-7120a", MachineSpec::mic_7120a()),
            ("knc-se10p", MachineSpec::mic_se10p()),
            ("knl-projection", MachineSpec::knl_projection()),
        ];
        for (name, legacy) in pairs {
            let m = device(name).unwrap().machine;
            assert_eq!(m.name, legacy.name);
            assert_eq!(m.cores, legacy.cores);
            assert_eq!(m.threads_per_core, legacy.threads_per_core);
            assert_eq!(m.clock_ghz.to_bits(), legacy.clock_ghz.to_bits());
            assert_eq!(m.f32_lanes, legacy.f32_lanes);
            assert_eq!(m.f64_lanes, legacy.f64_lanes);
            assert_eq!(m.scalar_ipc.to_bits(), legacy.scalar_ipc.to_bits());
            assert_eq!(m.vector_ipc.to_bits(), legacy.vector_ipc.to_bits());
            assert_eq!(m.dep_latency_cycles, legacy.dep_latency_cycles);
            assert_eq!(m.call_cycles.to_bits(), legacy.call_cycles.to_bits());
            assert_eq!(m.libm_cycles.to_bits(), legacy.libm_cycles.to_bits());
            assert_eq!(
                m.gather_scalar_ns.to_bits(),
                legacy.gather_scalar_ns.to_bits()
            );
            assert_eq!(
                m.gather_vector_ns.to_bits(),
                legacy.gather_vector_ns.to_bits()
            );
            assert_eq!(m.dram_gb_s.to_bits(), legacy.dram_gb_s.to_bits());
            assert_eq!(m.mem_gb, legacy.mem_gb);
        }
    }

    #[test]
    fn legacy_entries_price_kernels_bit_identically() {
        // Same struct + same code ⇒ same bits; this pins the contract.
        let counts = reference_particle_counts(Algorithm::History).scale(1e5);
        for (name, legacy) in [
            ("knc-7120a", MachineSpec::mic_7120a()),
            ("host-e5-2687w", MachineSpec::host_e5_2687w()),
        ] {
            let dev = device(name).unwrap();
            assert_eq!(
                dev.machine.kernel_time(&counts).to_bits(),
                legacy.kernel_time(&counts).to_bits(),
                "{name}"
            );
        }
    }

    #[test]
    fn legacy_power_matches_for_machine_dispatch() {
        for (name, legacy) in [
            ("host-e5-2687w", MachineSpec::host_e5_2687w()),
            ("host-e5-2680", MachineSpec::host_e5_2680()),
            ("knc-7120a", MachineSpec::mic_7120a()),
            ("knc-se10p", MachineSpec::mic_se10p()),
            ("knl-projection", MachineSpec::knl_projection()),
        ] {
            let dev = device(name).unwrap();
            let old = PowerSpec::for_machine(&legacy);
            let new = dev.power_spec();
            assert_eq!(new.load_w.to_bits(), old.load_w.to_bits(), "{name}");
            assert_eq!(new.idle_w.to_bits(), old.idle_w.to_bits(), "{name}");
        }
    }

    #[test]
    fn between_host_and_knc_is_the_jlse_pipeline() {
        let host = device("host-e5-2687w").unwrap();
        let knc = device("knc-7120a").unwrap();
        let new = OffloadModel::between(&host, &knc);
        let old = OffloadModel::jlse();
        let b_new = new.breakdown(&reference_shape(), 100_000, 8.37e9);
        let b_old = old.breakdown(&reference_shape(), 100_000, 8.37e9);
        assert_eq!(
            b_new.transfer_bank_s.to_bits(),
            b_old.transfer_bank_s.to_bits()
        );
        assert_eq!(
            b_new.compute_device_s.to_bits(),
            b_old.compute_device_s.to_bits()
        );
        assert_eq!(
            b_new.compute_host_s.to_bits(),
            b_old.compute_host_s.to_bits()
        );
    }

    // --- calibration ---------------------------------------------------

    #[test]
    fn calibrated_entries_land_in_their_documented_band() {
        let mut calibrated = 0;
        for dev in all() {
            if let Some(ok) = dev.within_calibration_band() {
                calibrated += 1;
                let ratio = dev.calibration_ratio().unwrap();
                assert!(
                    ok,
                    "{}: modeled/published = {ratio:.3}, band ±{}",
                    dev.id,
                    dev.calibration.unwrap().band
                );
            }
        }
        assert!(calibrated >= 3, "need ≥3 calibrated entries");
    }

    #[test]
    fn legacy_rates_keep_the_paper_alpha() {
        // The reference workload must reproduce the paper's α ≈ 0.61
        // CPU/MIC ratio — anchoring the new calibration machinery to the
        // old Table III numbers.
        let cpu = device("host-e5-2687w").unwrap();
        let mic = device("knc-7120a").unwrap();
        let k = Algorithm::History;
        let alpha = cpu.modeled_native_rate(k) / mic.modeled_native_rate(k);
        assert!((0.5..0.8).contains(&alpha), "alpha = {alpha:.3}");
    }

    #[test]
    fn gpus_outrate_the_legacy_devices() {
        let knc = device("knc-7120a").unwrap();
        let knc_rate = knc.modeled_native_rate(Algorithm::EventBanking);
        for name in ["gpu-max-1100", "a100", "mi250x"] {
            let gpu = device(name).unwrap();
            assert_eq!(gpu.class, DeviceClass::Gpu);
            let rate = gpu.modeled_native_rate(gpu.default_transport());
            assert!(rate > knc_rate, "{name}: {rate:.0} ≤ knc {knc_rate:.0}");
        }
    }

    #[test]
    fn symmetric_from_devices_matches_manual_construction() {
        let devs = [
            device("host-e5-2687w").unwrap(),
            device("knc-7120a").unwrap(),
        ];
        let k = Algorithm::History;
        let m = SymmetricModel::from_devices(&devs, k);
        let manual = SymmetricModel::new(&[
            ("host-e5-2687w", devs[0].modeled_native_rate(k)),
            ("knc-7120a", devs[1].modeled_native_rate(k)),
        ]);
        assert_eq!(
            m.balanced_rate(100_000).to_bits(),
            manual.balanced_rate(100_000).to_bits()
        );
    }
}
