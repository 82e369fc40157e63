//! Machine descriptions and the op-class roofline timing model.

/// Operation counts characterizing one kernel execution.
///
/// Counts are whole-kernel totals; the model divides by chip-aggregate
/// rates, which assumes the kernel exposes enough parallelism to fill the
/// machine (true of every kernel measured in the paper — 10⁵–10⁷
/// independent particles).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelCounts {
    /// Latency-chained scalar ops (each depends on the previous within a
    /// thread — e.g. the `rand_r` multiply chain).
    pub dependent_scalar: f64,
    /// Independent scalar ops.
    pub scalar: f64,
    /// Vector lane-operations (one lane-op = one f32/f64 lane updated).
    pub vector_lanes: f64,
    /// Random 8-byte loads issued from scalar (pointer-chasing) code.
    pub gather_scalar: f64,
    /// Random 8-byte loads issued from vectorized/gather code with
    /// software prefetch (the banked kernels).
    pub gather_vector: f64,
    /// Opaque function calls (`rand_r`, libm entry, ...).
    pub calls: f64,
    /// Scalar transcendental evaluations via libm.
    pub libm: f64,
    /// Bytes streamed to/from DRAM with unit stride.
    pub stream_bytes: f64,
}

impl KernelCounts {
    /// Component-wise sum.
    pub fn add(&self, o: &KernelCounts) -> KernelCounts {
        KernelCounts {
            dependent_scalar: self.dependent_scalar + o.dependent_scalar,
            scalar: self.scalar + o.scalar,
            vector_lanes: self.vector_lanes + o.vector_lanes,
            gather_scalar: self.gather_scalar + o.gather_scalar,
            gather_vector: self.gather_vector + o.gather_vector,
            calls: self.calls + o.calls,
            libm: self.libm + o.libm,
            stream_bytes: self.stream_bytes + o.stream_bytes,
        }
    }

    /// Scale all counts (e.g. per-element counts × N).
    pub fn scale(&self, s: f64) -> KernelCounts {
        KernelCounts {
            dependent_scalar: self.dependent_scalar * s,
            scalar: self.scalar * s,
            vector_lanes: self.vector_lanes * s,
            gather_scalar: self.gather_scalar * s,
            gather_vector: self.gather_vector * s,
            calls: self.calls * s,
            libm: self.libm * s,
            stream_bytes: self.stream_bytes * s,
        }
    }
}

/// A machine description.
///
/// **Structural** parameters come from datasheets; **calibrated**
/// parameters (marked ♦) are effective unit costs fitted to the paper's
/// own measurements, because the microarchitectural effects they bundle
/// (in-order stalls on library calls, gather MLP, KNC prefetch tuning)
/// cannot be re-derived without the hardware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineSpec {
    /// Display name.
    pub name: &'static str,
    /// Physical cores.
    pub cores: u32,
    /// Hardware threads per core.
    pub threads_per_core: u32,
    /// Clock, GHz.
    pub clock_ghz: f64,
    /// f32 SIMD lanes per vector unit.
    pub f32_lanes: u32,
    /// f64 SIMD lanes.
    pub f64_lanes: u32,
    /// Sustained scalar IPC per core (with enough threads to fill it).
    pub scalar_ipc: f64,
    /// Sustained vector ops per cycle per core.
    pub vector_ipc: f64,
    /// Latency (cycles) of a dependent scalar op in a serial chain,
    /// per-thread.
    pub dep_latency_cycles: f64,
    /// ♦ Cycles per opaque function call (in-order cores pay dearly).
    pub call_cycles: f64,
    /// ♦ Cycles per scalar libm transcendental.
    pub libm_cycles: f64,
    /// ♦ Effective nanoseconds per random 8-byte load from scalar code.
    pub gather_scalar_ns: f64,
    /// ♦ Effective nanoseconds per random 8-byte load from vectorized,
    /// prefetch-tuned code.
    pub gather_vector_ns: f64,
    /// Sustained DRAM bandwidth, GB/s.
    pub dram_gb_s: f64,
    /// Device memory capacity, GB.
    pub mem_gb: f64,
}

impl MachineSpec {
    /// JLSE host: dual-socket Intel Xeon E5-2687W (16 cores, 2-way HT,
    /// 3.4 GHz, AVX, 64 GB).
    pub fn host_e5_2687w() -> Self {
        Self {
            name: "2x E5-2687W (host)",
            cores: 16,
            threads_per_core: 2,
            clock_ghz: 3.4,
            f32_lanes: 8,
            f64_lanes: 4,
            scalar_ipc: 2.0,
            vector_ipc: 1.0,
            dep_latency_cycles: 4.0,
            call_cycles: 45.0,
            libm_cycles: 150.0,
            gather_scalar_ns: 1.05,
            gather_vector_ns: 0.55,
            dram_gb_s: 60.0,
            mem_gb: 64.0,
        }
    }

    /// Stampede host: dual-socket Intel Xeon E5-2680 (16 cores, 2.7 GHz,
    /// 32 GB).
    pub fn host_e5_2680() -> Self {
        Self {
            name: "2x E5-2680 (host)",
            clock_ghz: 2.7,
            mem_gb: 32.0,
            ..Self::host_e5_2687w()
        }
    }

    /// Intel Xeon Phi 7120A (JLSE): 61 cores, 4-way HT, 1.238 GHz,
    /// 512-bit SIMD, 16 GB GDDR5.
    pub fn mic_7120a() -> Self {
        Self {
            name: "Xeon Phi 7120A",
            cores: 61,
            threads_per_core: 4,
            clock_ghz: 1.238,
            f32_lanes: 16,
            f64_lanes: 8,
            scalar_ipc: 1.0,
            vector_ipc: 0.8,
            dep_latency_cycles: 8.0,
            // ♦ calibrated to Table I's naive row (rand_r + libm calls run
            // ~20x slower than the host).
            call_cycles: 2000.0,
            libm_cycles: 4000.0,
            // ♦ 244 threads hide latency on scalar lookups well enough to
            // beat the host's 32 (Fig. 4: MIC wins calculate_xs).
            gather_scalar_ns: 0.65,
            // ♦ vgather + tuned prefetch streams the SoA tables (Fig. 2's
            // ~10x banked speedup over host history).
            gather_vector_ns: 0.105,
            dram_gb_s: 170.0,
            mem_gb: 16.0,
        }
    }

    /// Intel Xeon Phi SE10P (Stampede): 61 cores at 1.1 GHz, 8 GB.
    pub fn mic_se10p() -> Self {
        Self {
            name: "Xeon Phi SE10P",
            clock_ghz: 1.1,
            mem_gb: 8.0,
            ..Self::mic_7120a()
        }
    }

    /// Knights Landing projection — the paper's §V outlook: up to 72
    /// out-of-order cores socketed directly (no PCIe hop), on-package
    /// MCDRAM, "a possible automatic ~3x single thread speedup over
    /// Knights Corner". OOO cores lift the serial-call and
    /// latency-hiding penalties toward host levels.
    pub fn knl_projection() -> Self {
        Self {
            name: "Knights Landing (projected)",
            cores: 72,
            threads_per_core: 4,
            clock_ghz: 1.4,
            f32_lanes: 16,
            f64_lanes: 8,
            scalar_ipc: 1.5, // out-of-order
            vector_ipc: 1.6, // two VPUs per core
            dep_latency_cycles: 4.0,
            call_cycles: 90.0, // OOO + branch prediction
            libm_cycles: 300.0,
            gather_scalar_ns: 0.30,
            gather_vector_ns: 0.08,
            dram_gb_s: 400.0, // MCDRAM
            mem_gb: 16.0,
        }
    }

    /// Total hardware threads.
    pub fn total_threads(&self) -> u32 {
        self.cores * self.threads_per_core
    }

    /// Aggregate scalar rate, ops/s.
    pub fn scalar_rate(&self) -> f64 {
        self.cores as f64 * self.clock_ghz * 1e9 * self.scalar_ipc
    }

    /// Aggregate dependent-chain rate, ops/s (each thread sustains one op
    /// per `dep_latency_cycles`).
    pub fn dep_chain_rate(&self) -> f64 {
        self.total_threads() as f64 * self.clock_ghz * 1e9 / self.dep_latency_cycles
    }

    /// Aggregate vector lane rate for f64 work, lane-ops/s.
    pub fn vector_lane_rate_f64(&self) -> f64 {
        self.cores as f64 * self.clock_ghz * 1e9 * self.vector_ipc * self.f64_lanes as f64
    }

    /// Aggregate vector lane rate for f32 work, lane-ops/s.
    pub fn vector_lane_rate_f32(&self) -> f64 {
        self.cores as f64 * self.clock_ghz * 1e9 * self.vector_ipc * self.f32_lanes as f64
    }

    /// Aggregate call rate, calls/s.
    pub fn call_rate(&self) -> f64 {
        self.total_threads() as f64 * self.clock_ghz * 1e9 / self.call_cycles
    }

    /// Aggregate scalar-libm rate, evals/s.
    pub fn libm_rate(&self) -> f64 {
        self.total_threads() as f64 * self.clock_ghz * 1e9 / self.libm_cycles
    }

    /// Roofline kernel time (seconds) for the given counts. Vector lane
    /// counts are interpreted as f64 lanes unless `f32_kernel`.
    pub fn kernel_time_ext(&self, c: &KernelCounts, f32_kernel: bool) -> f64 {
        let lane_rate = if f32_kernel {
            self.vector_lane_rate_f32()
        } else {
            self.vector_lane_rate_f64()
        };
        let compute = c.dependent_scalar / self.dep_chain_rate()
            + c.scalar / self.scalar_rate()
            + c.vector_lanes / lane_rate
            + c.gather_scalar * self.gather_scalar_ns * 1e-9
            + c.gather_vector * self.gather_vector_ns * 1e-9
            + c.calls / self.call_rate()
            + c.libm / self.libm_rate();
        let memory = c.stream_bytes / (self.dram_gb_s * 1e9);
        compute.max(memory)
    }

    /// Roofline kernel time for f64-dominated kernels.
    pub fn kernel_time(&self, c: &KernelCounts) -> f64 {
        self.kernel_time_ext(c, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_datasheet_structure() {
        let host = MachineSpec::host_e5_2687w();
        assert_eq!(host.total_threads(), 32);
        let mic = MachineSpec::mic_7120a();
        assert_eq!(mic.total_threads(), 244);
        assert_eq!(mic.f32_lanes, 16);
        assert!(mic.clock_ghz < host.clock_ghz);
        assert!(mic.dram_gb_s > host.dram_gb_s);
        assert!(mic.mem_gb < host.mem_gb);
    }

    #[test]
    fn vector_peak_favors_mic() {
        // The MIC's raison d'être: wide vectors × many cores beats the
        // host's vector peak despite the low clock.
        let host = MachineSpec::host_e5_2687w();
        let mic = MachineSpec::mic_7120a();
        assert!(mic.vector_lane_rate_f32() > 1.5 * host.vector_lane_rate_f32());
    }

    #[test]
    fn scalar_call_code_favors_host() {
        let host = MachineSpec::host_e5_2687w();
        let mic = MachineSpec::mic_7120a();
        assert!(host.call_rate() > 5.0 * mic.call_rate());
        assert!(host.libm_rate() > 5.0 * mic.libm_rate());
    }

    #[test]
    fn kernel_time_roofline_picks_memory_bound() {
        let spec = MachineSpec::host_e5_2687w();
        // Pure streaming kernel: 60 GB at 60 GB/s = 1 s.
        let c = KernelCounts {
            stream_bytes: 60e9,
            ..Default::default()
        };
        assert!((spec.kernel_time(&c) - 1.0).abs() < 1e-9);
        // Adding trivial compute doesn't change it.
        let c2 = KernelCounts { scalar: 1e6, ..c };
        assert!((spec.kernel_time(&c2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn counts_scale_and_add() {
        let a = KernelCounts {
            scalar: 2.0,
            libm: 1.0,
            ..Default::default()
        };
        let b = a.scale(3.0).add(&a);
        assert_eq!(b.scalar, 8.0);
        assert_eq!(b.libm, 4.0);
    }

    #[test]
    fn knl_projection_triples_knc_serial_throughput() {
        // The paper's §V expectation: ~3x single-thread (serial-code)
        // speedup over Knights Corner from out-of-order execution.
        let knc = MachineSpec::mic_7120a();
        let knl = MachineSpec::knl_projection();
        // Per-thread serial call+libm throughput ratio.
        let knc_serial = knc.clock_ghz / (knc.call_cycles + knc.libm_cycles);
        let knl_serial = knl.clock_ghz / (knl.call_cycles + knl.libm_cycles);
        let ratio = knl_serial / knc_serial;
        // KNC's serial constants are calibrated to its pathological
        // Table-I behaviour, so the projected OOO recovery lands well
        // above the paper's conservative "~3x".
        assert!((3.0..30.0).contains(&ratio), "serial speedup {ratio:.1}");
        // And its vector peak exceeds KNC's.
        assert!(knl.vector_lane_rate_f64() > knc.vector_lane_rate_f64());
        assert!(knl.dram_gb_s > knc.dram_gb_s);
    }

    #[test]
    fn f32_kernels_run_faster_than_f64() {
        let spec = MachineSpec::mic_7120a();
        let c = KernelCounts {
            vector_lanes: 1e12,
            ..Default::default()
        };
        assert!(spec.kernel_time_ext(&c, true) < spec.kernel_time_ext(&c, false));
    }
}
