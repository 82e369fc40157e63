//! Energy expenditure analysis — the paper's §V direction:
//!
//! > "an interesting future direction is analyzing energy expenditures in
//! > MC neutron transport. Host-attached devices, such as MIC and GPU
//! > devices, show excellent performance per watt."
//!
//! A simple board-power model (TDP under load, idle floor) turns the
//! machine model's batch times into joules and neutrons-per-joule, the
//! metric that makes the coprocessor case: a MIC that is only 1.6× faster
//! still wins ~1.5× on energy because its time saving outruns its power
//! premium — and a host *idling* while its coprocessors work still burns
//! its idle floor, which is why symmetric mode (everyone works) also wins
//! the energy comparison.

use crate::spec::MachineSpec;

/// Board-level power characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSpec {
    /// Sustained power under full load, watts.
    pub load_w: f64,
    /// Idle floor, watts.
    pub idle_w: f64,
}

impl PowerSpec {
    /// Power numbers for the known machines (TDP-based: 2×150 W for the
    /// dual-socket hosts, 300 W boards for the 7120A/SE10P class).
    pub fn for_machine(spec: &MachineSpec) -> PowerSpec {
        if spec.name.contains("Knights Landing") {
            // Socketed successor: 215 W TDP, host-like idle management.
            PowerSpec {
                load_w: 215.0,
                idle_w: 70.0,
            }
        } else if spec.threads_per_core >= 4 {
            // Coprocessor class.
            PowerSpec {
                load_w: 300.0,
                idle_w: 100.0,
            }
        } else {
            // Dual-socket host class.
            PowerSpec {
                load_w: 300.0,
                idle_w: 120.0,
            }
        }
    }

    /// Energy for `busy_s` seconds of load followed by `idle_s` of idling.
    pub fn energy_j(&self, busy_s: f64, idle_s: f64) -> f64 {
        self.load_w * busy_s + self.idle_w * idle_s
    }
}

/// Energy report for one batch on one device set.
#[derive(Debug, Clone)]
pub struct EnergyReport {
    /// Configuration label.
    pub label: String,
    /// Batch wall time, seconds.
    pub wall_s: f64,
    /// Total energy, joules.
    pub energy_j: f64,
    /// Particles simulated.
    pub particles: u64,
}

impl EnergyReport {
    /// Neutrons per joule — the efficiency metric.
    pub fn neutrons_per_joule(&self) -> f64 {
        self.particles as f64 / self.energy_j
    }
}

/// Energy for a batch executed by a set of `(power, busy seconds)` units;
/// the batch's wall time is the slowest unit, and every unit idles (at
/// its floor) for the remainder.
pub fn batch_energy(label: &str, units: &[(PowerSpec, f64)], particles: u64) -> EnergyReport {
    let wall = units.iter().map(|&(_, t)| t).fold(0.0, f64::max);
    let energy = units.iter().map(|&(p, t)| p.energy_j(t, wall - t)).sum();
    EnergyReport {
        label: label.to_string(),
        wall_s: wall,
        energy_j: energy,
        particles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MachineSpec;

    #[test]
    fn power_classes_resolve() {
        let host = PowerSpec::for_machine(&MachineSpec::host_e5_2687w());
        let mic = PowerSpec::for_machine(&MachineSpec::mic_7120a());
        assert!(host.idle_w > mic.idle_w);
        assert_eq!(mic.load_w, 300.0);
    }

    #[test]
    fn knl_gets_its_own_power_class() {
        let knl = PowerSpec::for_machine(&MachineSpec::knl_projection());
        assert_eq!(knl.load_w, 215.0);
    }

    #[test]
    fn energy_accounts_idle_tail() {
        let p = PowerSpec {
            load_w: 200.0,
            idle_w: 50.0,
        };
        assert!((p.energy_j(2.0, 3.0) - (400.0 + 150.0)).abs() < 1e-12);
    }

    #[test]
    fn faster_device_wins_perf_per_watt() {
        // The paper's Fig. 5 regime: MIC 1.6x faster at equal board power
        // ⇒ ~1.6x the neutrons per joule.
        let host_p = PowerSpec::for_machine(&MachineSpec::host_e5_2687w());
        let mic_p = PowerSpec::for_machine(&MachineSpec::mic_7120a());
        let n = 100_000u64;
        let host = batch_energy("cpu", &[(host_p, 24.7)], n); // 4,050 n/s
        let mic = batch_energy("mic", &[(mic_p, 15.1)], n); // 6,641 n/s
        assert!(mic.neutrons_per_joule() > 1.4 * host.neutrons_per_joule());
    }

    #[test]
    fn symmetric_mode_beats_offloading_the_idle_host() {
        // CPU+2MIC with everyone working vs MICs working while the host
        // idles: same MIC time, but the host contribution both shortens
        // the batch and stops burning pure idle watts.
        let host_p = PowerSpec::for_machine(&MachineSpec::host_e5_2687w());
        let mic_p = PowerSpec::for_machine(&MachineSpec::mic_7120a());
        let n = 100_000u64;
        // Balanced symmetric: each rank busy ~5.8 s (17,332 n/s combined).
        let symmetric = batch_energy(
            "cpu+2mic symmetric",
            &[(host_p, 5.8), (mic_p, 5.8), (mic_p, 5.8)],
            n,
        );
        // MICs only (host idles the whole time): 2×6,641 n/s → 7.5 s.
        let mics_only = batch_energy(
            "2mic, host idle",
            &[(host_p, 0.0), (mic_p, 7.5), (mic_p, 7.5)],
            n,
        );
        assert!(symmetric.neutrons_per_joule() > mics_only.neutrons_per_joule());
        assert!(symmetric.wall_s < mics_only.wall_s);
    }

    #[test]
    fn energy_reports_over_catalog_entries_are_consistent() {
        // Per-device TDP fields drive the report: a device running alone
        // at full load reports exactly its load power, and
        // neutrons-per-joule equals modeled-rate-per-watt.
        let n = 100_000u64;
        for dev in crate::catalog::all() {
            let rate = dev.modeled_native_rate(dev.default_transport());
            let busy = n as f64 / rate;
            let r = batch_energy(dev.id, &[(dev.power_spec(), busy)], n);
            assert!(
                (r.energy_j / r.wall_s - dev.power.load_w).abs() < 1e-9,
                "{}",
                dev.id
            );
            let expect = rate / dev.power.load_w;
            let got = r.neutrons_per_joule();
            assert!(
                (got - expect).abs() / expect < 1e-9,
                "{}: {got} vs {expect}",
                dev.id
            );
        }
    }

    #[test]
    fn energy_to_solution_ordering_follows_rate_per_watt() {
        // The catalog-wide ordering invariant: ranking devices by
        // neutrons-per-joule is exactly ranking them by modeled rate per
        // load watt — and the modern GPUs beat both 2015 devices.
        let n = 100_000u64;
        let npj = |name: &str| {
            let dev = crate::catalog::device(name).unwrap();
            let rate = dev.modeled_native_rate(dev.default_transport());
            batch_energy(name, &[(dev.power_spec(), n as f64 / rate)], n).neutrons_per_joule()
        };
        let mut by_npj: Vec<&str> = crate::catalog::NAMES.to_vec();
        by_npj.sort_by(|a, b| npj(a).total_cmp(&npj(b)));
        let mut by_rate_per_watt: Vec<&str> = crate::catalog::NAMES.to_vec();
        by_rate_per_watt.sort_by(|a, b| {
            let key = |name: &str| {
                let d = crate::catalog::device(name).unwrap();
                d.modeled_native_rate(d.default_transport()) / d.power.load_w
            };
            key(a).total_cmp(&key(b))
        });
        assert_eq!(by_npj, by_rate_per_watt);
        for gpu in ["gpu-max-1100", "a100", "mi250x"] {
            assert!(npj(gpu) > npj("knc-7120a"), "{gpu}");
            assert!(npj(gpu) > npj("host-e5-2687w"), "{gpu}");
        }
    }

    #[test]
    fn report_metrics_are_consistent() {
        let p = PowerSpec {
            load_w: 100.0,
            idle_w: 10.0,
        };
        let r = batch_energy("x", &[(p, 10.0)], 1_000);
        assert!((r.energy_j / r.wall_s - 100.0).abs() < 1e-9);
        assert!((r.neutrons_per_joule() - 1.0).abs() < 1e-9);
    }
}
