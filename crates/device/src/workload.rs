//! Kernel operation-count models.
//!
//! Each function converts a workload description into [`KernelCounts`]
//! that the machine model prices. Per-element op counts are derived from
//! the actual Rust kernels in `mcs-xs` and `mcs-core` (ops per nuclide,
//! per binary-search step, per collision); data-volume constants for the
//! OpenMC particle bank come from Table II (see [`bank_bytes_per_particle`]).

use crate::spec::KernelCounts;

/// A problem's shape as the cost models need it.
#[derive(Debug, Clone)]
pub struct ProblemShape {
    /// Nuclides per material, indexed by material id.
    pub nuclides_per_material: Vec<usize>,
    /// Points in the unionized energy grid.
    pub union_points: usize,
    /// Whether S(α,β)/URR branches run per lookup.
    pub full_physics: bool,
}

impl ProblemShape {
    /// Binary-search trip count on the union grid.
    fn search_steps(&self) -> f64 {
        (self.union_points.max(2) as f64).log2().ceil()
    }
}

/// One *scalar* (history-style) macroscopic XS lookup in material `m`:
/// union-grid binary search + a scalar loop over nuclides reading the
/// AoS/derived-type tables.
pub fn xs_lookup_scalar(shape: &ProblemShape, m: usize) -> KernelCounts {
    let n = shape.nuclides_per_material[m] as f64;
    let steps = shape.search_steps();
    let physics = if shape.full_physics { 80.0 } else { 0.0 };
    KernelCounts {
        // Each search step: one dependent compare on a fetched value.
        dependent_scalar: 3.0 * steps,
        // 12 random loads per nuclide: e0/e1 + 5 reactions × 2 points.
        gather_scalar: steps + 12.0 * n,
        scalar: 30.0 * n + physics,
        libm: if shape.full_physics { 0.2 } else { 0.0 },
        ..Default::default()
    }
}

/// One *banked/vectorized* lookup (SoA + inner-loop-over-nuclides SIMD):
/// same search, but table reads become prefetched vector gathers and the
/// arithmetic becomes lane ops.
pub fn xs_lookup_banked(shape: &ProblemShape, m: usize) -> KernelCounts {
    let n = shape.nuclides_per_material[m] as f64;
    let steps = shape.search_steps();
    KernelCounts {
        dependent_scalar: 3.0 * steps,
        gather_scalar: steps,
        gather_vector: 12.0 * n,
        vector_lanes: 20.0 * n,
        ..Default::default()
    }
}

/// Per-element counts for the Table-I *naive* kernel (Algorithm 3):
/// `rand_r` (a dependent multiply chain behind an opaque call) + scalar
/// libm log + division.
pub fn distance_naive_per_element() -> KernelCounts {
    KernelCounts {
        dependent_scalar: 3.0,
        scalar: 5.0,
        calls: 2.0,
        libm: 1.0,
        stream_bytes: 12.0,
        ..Default::default()
    }
}

/// Per-element counts for *optimized-1* (batch RNG + compiler-vectorized
/// loop): counter-based RNG lanes + polynomial log lanes + div; R is
/// written then re-read (20 B/element of streaming traffic).
pub fn distance_opt1_per_element() -> KernelCounts {
    KernelCounts {
        vector_lanes: 18.0,
        stream_bytes: 20.0,
        ..Default::default()
    }
}

/// Per-element counts for *optimized-2* (Algorithm 4: manual intrinsics +
/// tuned prefetch): ~15% fewer lane ops than the compiler's version.
pub fn distance_opt2_per_element() -> KernelCounts {
    KernelCounts {
        vector_lanes: 15.5,
        stream_bytes: 20.0,
        ..Default::default()
    }
}

/// Geometry + collision-handling cost per flight segment (everything in a
/// segment that is *not* the XS lookup): ray tracing, the scatter-nuclide
/// walk (on the `collision_fraction` of segments that collide and
/// scatter), RNG and kinematics.
pub fn segment_other_costs(
    shape: &ProblemShape,
    m: usize,
    collision_fraction: f64,
) -> KernelCounts {
    let n = shape.nuclides_per_material[m] as f64;
    let scatter_fraction = 0.6 * collision_fraction;
    KernelCounts {
        scalar: 250.0 + scatter_fraction * 4.0 * n,
        gather_scalar: scatter_fraction * 2.0 * n,
        libm: 1.0, // the −ln ξ of distance sampling
        ..Default::default()
    }
}

/// Bytes of particle state shipped per banked particle, as a function of
/// the nuclide count.
///
/// Calibrated to Table II: OpenMC's particle carries a per-nuclide
/// microscopic-XS cache, so the banked state is `≈ 2,140 B + 83 B ×
/// n_nuclides` (496 MB / 10⁵ particles at 34 nuclides; 2.84 GB / 10⁵ at
/// 320).
pub fn bank_bytes_per_particle(n_nuclides: usize) -> f64 {
    2_140.0 + 83.0 * n_nuclides as f64
}

/// Time (ns) to bank one particle on the host (write-intensive,
/// unvectorized; Table II: 4 ms / 10⁵ particles regardless of model).
pub fn banking_ns_host() -> f64 {
    40.0
}

/// Time (ns) to bank one particle on the MIC (Table II: 21 ms and 34 ms
/// per 10⁵ particles for the 34- and 320-nuclide models).
pub fn banking_ns_mic(n_nuclides: usize) -> f64 {
    195.0 + 0.455 * n_nuclides as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MachineSpec;

    fn hm_large_shape() -> ProblemShape {
        ProblemShape {
            nuclides_per_material: vec![325, 1, 3],
            union_points: 360_000,
            full_physics: true,
        }
    }

    #[test]
    fn banked_lookup_beats_scalar_on_mic_by_an_order() {
        // The Fig. 2 shape: banked/MIC ≈ 10× history/CPU per lookup.
        let shape = ProblemShape {
            full_physics: false,
            ..hm_large_shape()
        };
        let cpu = MachineSpec::host_e5_2687w();
        let mic = MachineSpec::mic_7120a();
        let t_history_cpu = cpu.kernel_time(&xs_lookup_scalar(&shape, 0));
        let t_banked_mic = mic.kernel_time(&xs_lookup_banked(&shape, 0));
        let speedup = t_history_cpu / t_banked_mic;
        assert!(
            (7.0..14.0).contains(&speedup),
            "banked speedup = {speedup:.2} (target ≈ 10)"
        );
    }

    #[test]
    fn alpha_matches_paper_window() {
        // Fig. 5 / Table III: α = rate_cpu / rate_mic ≈ 0.62 for native
        // full-physics history transport on H.M. Large.
        let shape = hm_large_shape();
        let cpu = MachineSpec::host_e5_2687w();
        let mic = MachineSpec::mic_7120a();
        // Segment mix: time is dominated by fuel lookups.
        let mix = [(0usize, 0.45), (1, 0.05), (2, 0.50)];
        let time = |spec: &MachineSpec| -> f64 {
            mix.iter()
                .map(|&(m, w)| {
                    let segment =
                        xs_lookup_scalar(&shape, m).add(&segment_other_costs(&shape, m, 0.5));
                    w * spec.kernel_time(&segment)
                })
                .sum()
        };
        let alpha = time(&mic) / time(&cpu);
        assert!(
            (0.52..0.72).contains(&alpha),
            "alpha = {alpha:.3} (paper: 0.61–0.62)"
        );
    }

    #[test]
    fn naive_distance_kernel_is_catastrophic_on_mic() {
        // Table I: naive MIC / naive CPU ≈ 20×.
        let cpu = MachineSpec::host_e5_2687w();
        let mic = MachineSpec::mic_7120a();
        let c = distance_naive_per_element().scale(1e11);
        let t_cpu = cpu.kernel_time_ext(&c, true);
        let t_mic = mic.kernel_time_ext(&c, true);
        let ratio = t_mic / t_cpu;
        assert!((8.0..30.0).contains(&ratio), "naive MIC/CPU = {ratio:.1}");
        // And the CPU's own naive time is two orders above its optimized
        // time (412 s vs 36.6 s in the paper is ~11x; we accept 5–50x).
        let t_cpu_opt = cpu.kernel_time_ext(&distance_opt2_per_element().scale(1e11), true);
        let self_speedup = t_cpu / t_cpu_opt;
        assert!(
            (5.0..50.0).contains(&self_speedup),
            "cpu naive/opt2 = {self_speedup:.1}"
        );
    }

    #[test]
    fn optimized_distance_kernel_prefers_mic() {
        // Table I: opt-2 MIC ≈ 1.9× faster than opt-2 CPU.
        let cpu = MachineSpec::host_e5_2687w();
        let mic = MachineSpec::mic_7120a();
        let c = distance_opt2_per_element().scale(1e11);
        let ratio = cpu.kernel_time_ext(&c, true) / mic.kernel_time_ext(&c, true);
        assert!((1.5..3.5).contains(&ratio), "opt2 CPU/MIC = {ratio:.2}");
    }

    #[test]
    fn opt1_is_slower_than_opt2_everywhere() {
        for spec in [MachineSpec::host_e5_2687w(), MachineSpec::mic_7120a()] {
            let t1 = spec.kernel_time_ext(&distance_opt1_per_element().scale(1e9), true);
            let t2 = spec.kernel_time_ext(&distance_opt2_per_element().scale(1e9), true);
            assert!(t1 >= t2, "{}", spec.name);
        }
    }

    #[test]
    fn bank_bytes_reproduce_table2() {
        // 10⁵ particles: H.M. Small ≈ 496 MB, H.M. Large ≈ 2.84 GB.
        let small = bank_bytes_per_particle(34) * 1e5;
        let large = bank_bytes_per_particle(320) * 1e5;
        assert!((small - 496e6).abs() / 496e6 < 0.01, "small = {small:.3e}");
        assert!(
            (large - 2.84e9).abs() / 2.84e9 < 0.02,
            "large = {large:.3e}"
        );
    }

    #[test]
    fn banking_times_reproduce_table2() {
        // Host: 4 ms / 1e5; MIC: 21 ms (small), 34 ms (large).
        assert!((banking_ns_host() * 1e5 * 1e-9 - 4e-3).abs() < 1e-3);
        let mic_small = banking_ns_mic(34) * 1e5 * 1e-9;
        let mic_large = banking_ns_mic(320) * 1e5 * 1e-9;
        assert!((mic_small - 21e-3).abs() < 2e-3, "{mic_small}");
        assert!((mic_large - 34e-3).abs() < 2e-3, "{mic_large}");
    }
}
