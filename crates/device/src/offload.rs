//! Offload-mode pipeline: bank on host → ship over PCIe → compute on the
//! device → return results.
//!
//! Regenerates Table II (per-operation costs) and Fig. 3 (costs relative
//! to host generation time as the particle count grows). Fixed costs —
//! offload-runtime marshaling and kernel launch — are what give Fig. 3
//! its asymptotics: they dominate at small banks and amortize away above
//! ~10³–10⁴ particles.

use mcs_faults::{FaultPlan, RetryPolicy};
use mcs_prof::Counters;

use crate::pcie::{PcieBus, TransferError, TransferKind, TransferReport};
use crate::spec::MachineSpec;
use crate::workload::{
    bank_bytes_per_particle, banking_ns_host, banking_ns_mic, xs_lookup_banked, xs_lookup_scalar,
    ProblemShape,
};

/// The offload execution model.
#[derive(Debug, Clone, Copy)]
pub struct OffloadModel {
    /// Host machine.
    pub host: MachineSpec,
    /// Coprocessor.
    pub device: MachineSpec,
    /// The bus between them.
    pub bus: PcieBus,
    /// Fixed offload-runtime marshaling cost per shipment, s.
    pub marshal_s: f64,
    /// Fixed device kernel-launch cost per offload, s.
    pub launch_s: f64,
}

impl OffloadModel {
    /// The paper's JLSE configuration.
    pub fn jlse() -> Self {
        Self {
            host: MachineSpec::host_e5_2687w(),
            device: MachineSpec::mic_7120a(),
            bus: PcieBus::gen2_x16(),
            marshal_s: 5e-3,
            launch_s: 8e-3,
        }
    }

    /// Per-iteration cost breakdown for banking `n` particles and
    /// offloading their cross-section lookups (Table II rows).
    pub fn breakdown(&self, shape: &ProblemShape, n: usize, grid_bytes: f64) -> OffloadBreakdown {
        let n_nuc = shape.nuclides_per_material[0]; // fuel inventory size
        let bank_bytes = bank_bytes_per_particle(n_nuc) * n as f64;
        let lookups_host = xs_lookup_scalar(shape, 0).scale(n as f64);
        let lookups_dev = xs_lookup_banked(shape, 0).scale(n as f64);
        OffloadBreakdown {
            n_particles: n,
            bank_bytes,
            grid_bytes,
            banking_host_s: banking_ns_host() * 1e-9 * n as f64,
            banking_device_s: banking_ns_mic(n_nuc) * 1e-9 * n as f64,
            transfer_bank_s: self.marshal_s + self.bus.banked_time(bank_bytes).as_secs_f64(),
            transfer_grid_s: self.bus.contiguous_time(grid_bytes).as_secs_f64(),
            compute_host_s: self.host.kernel_time(&lookups_host),
            compute_device_s: self.launch_s + self.device.kernel_time(&lookups_dev),
        }
    }

    /// [`OffloadModel::breakdown`] over a faulty PCIe link: the bank
    /// shipment runs through the retry engine, its degraded transfer
    /// time replaces the clean one, and the per-attempt accounting is
    /// returned alongside. `transfer_id` identifies the shipment in the
    /// plan's coordinate space (e.g. the batch index), so a seeded plan
    /// replays the same fault history.
    #[allow(clippy::too_many_arguments)] // one coordinate per fault-model input
    pub fn breakdown_with_faults(
        &self,
        shape: &ProblemShape,
        n: usize,
        grid_bytes: f64,
        transfer_id: u64,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        counters: &mut Counters,
    ) -> Result<(OffloadBreakdown, TransferReport), TransferError> {
        let mut b = self.breakdown(shape, n, grid_bytes);
        let report = self.bus.transfer_with_retries(
            b.bank_bytes,
            TransferKind::Banked,
            transfer_id,
            plan,
            policy,
            counters,
        )?;
        b.transfer_bank_s = self.marshal_s + report.total_s;
        Ok((b, report))
    }
}

/// Per-iteration offload cost breakdown (the rows of Table II).
#[derive(Debug, Clone, Copy)]
pub struct OffloadBreakdown {
    /// Bank size in particles.
    pub n_particles: usize,
    /// Bank bytes shipped per iteration.
    pub bank_bytes: f64,
    /// Energy-grid bytes (shipped once at initialization).
    pub grid_bytes: f64,
    /// Time to bank the particles on the host.
    pub banking_host_s: f64,
    /// Time to bank on the device (for comparison).
    pub banking_device_s: f64,
    /// PCIe time for the bank (incl. marshaling).
    pub transfer_bank_s: f64,
    /// PCIe time for the energy grid (initialization, amortized).
    pub transfer_grid_s: f64,
    /// Banked lookup time on the device (incl. launch).
    pub compute_device_s: f64,
    /// The same lookups done scalar on the host.
    pub compute_host_s: f64,
}

impl OffloadBreakdown {
    /// Table II's structural claim: per iteration, the PCIe bank transfer
    /// dwarfs the device compute, which in turn dwarfs host-side banking.
    pub fn transfer_dominates(&self) -> bool {
        self.transfer_bank_s > self.compute_device_s && self.compute_device_s > self.banking_host_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(n_fuel: usize) -> ProblemShape {
        ProblemShape {
            nuclides_per_material: vec![n_fuel, 1, 3],
            union_points: 360_000,
            full_physics: false,
        }
    }

    #[test]
    fn table2_shape_transfer_dominates() {
        // Table II: the PCIe transfer is the most expensive operation,
        // for both model sizes.
        let m = OffloadModel::jlse();
        for n_fuel in [34usize, 320] {
            let b = m.breakdown(&shape(n_fuel + 5), 100_000, 1.31e9);
            assert!(b.transfer_bank_s > b.banking_host_s * 10.0);
            assert!(b.transfer_bank_s > b.compute_device_s);
            // Banking is cheaper on the host than on the device.
            assert!(b.banking_host_s < b.banking_device_s);
        }
    }

    #[test]
    fn table2_magnitudes_match_paper() {
        let m = OffloadModel::jlse();
        // H.M. Small, 1e5 particles: transfer ≈ 0.46 s; bank ≈ 0.5 GB.
        let b = m.breakdown(&shape(34), 100_000, 1.31e9);
        assert!(
            (b.bank_bytes - 4.96e8).abs() / 4.96e8 < 0.05,
            "{:.3e}",
            b.bank_bytes
        );
        assert!(
            (0.3..0.7).contains(&b.transfer_bank_s),
            "{}",
            b.transfer_bank_s
        );
        // H.M. Large: ≈ 2.84 GB, ≈ 2.2 s.
        let b = m.breakdown(&shape(320), 100_000, 8.37e9);
        assert!((b.bank_bytes - 2.84e9).abs() / 2.84e9 < 0.05);
        assert!(
            (1.8..2.7).contains(&b.transfer_bank_s),
            "{}",
            b.transfer_bank_s
        );
        // Grid: ~1 s per 5 GB.
        assert!((b.transfer_grid_s - 8.37 / 5.0).abs() < 0.1);
    }

    #[test]
    fn fig3_fixed_costs_amortize_with_n() {
        // The Fig. 3 trends: relative transfer and device-compute costs
        // fall with n; relative host compute rises toward its asymptote.
        let m = OffloadModel::jlse();
        let s = shape(39);
        let gen_time = |n: usize| 2e-3 + n as f64 * 20e-6; // fixed + linear host generation
        let ratios = |n: usize| {
            let b = m.breakdown(&s, n, 1.31e9);
            let g = gen_time(n);
            (
                b.transfer_bank_s / g,
                b.compute_device_s / g,
                b.compute_host_s / g,
            )
        };
        let (tr_small, dev_small, host_small) = ratios(1_000);
        let (tr_big, dev_big, host_big) = ratios(1_000_000);
        assert!(
            tr_big < tr_small,
            "transfer ratio should fall: {tr_small} → {tr_big}"
        );
        assert!(dev_big < dev_small, "device ratio should fall");
        assert!(host_big > host_small, "host ratio should rise");
    }

    #[test]
    fn faulty_link_degrades_but_preserves_structure() {
        use mcs_faults::TransferFaultKind;
        let m = OffloadModel::jlse();
        let s = shape(34);
        let clean = m.breakdown(&s, 100_000, 1.31e9);
        let plan = mcs_faults::FaultPlan::new(7)
            .with_transfer_fault(0, 1, TransferFaultKind::Corrupt)
            .with_transfer_fault(0, 2, TransferFaultKind::Timeout);
        let mut c = mcs_prof::Counters::new();
        let (faulty, report) = m
            .breakdown_with_faults(
                &s,
                100_000,
                1.31e9,
                0,
                &plan,
                &mcs_faults::RetryPolicy::pcie_default(),
                &mut c,
            )
            .unwrap();
        assert_eq!(report.attempts, 3);
        assert!(faulty.transfer_bank_s > clean.transfer_bank_s);
        // Everything that is not the bank transfer is untouched.
        assert_eq!(faulty.compute_device_s, clean.compute_device_s);
        assert_eq!(faulty.banking_host_s, clean.banking_host_s);
        assert_eq!(c.get("pcie.corruptions"), 1);
        assert_eq!(c.get("pcie.timeouts"), 1);
    }

    #[test]
    fn offload_crossover_around_ten_thousand() {
        // Fig. 3's conclusion (measured on H.M. Small): offloading wins
        // above ~10⁴ particles — fixed marshal/launch costs dominate
        // small banks, and asynchronous transfer hides behind the rest
        // of generation work once banks are large.
        let m = OffloadModel::jlse();
        let s = shape(34);
        let per_particle_other_host = 15e-6; // non-lookup generation work
        let wins = |n: usize| {
            let b = m.breakdown(&s, n, 1.31e9);
            // The asynchronous transfer (§III-A3) overlaps the other
            // host work; only what sticks out is paid.
            let exposed_transfer =
                (b.transfer_bank_s - per_particle_other_host * n as f64).max(0.0);
            b.banking_host_s + exposed_transfer + b.compute_device_s < b.compute_host_s
        };
        assert!(!wins(1_000), "offload should lose at n=1e3");
        assert!(wins(100_000), "offload should win at n=1e5");
        assert!(wins(1_000_000), "offload should win at n=1e6");
    }
}
