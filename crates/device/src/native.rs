//! Native-mode execution: the whole application on one machine.
//!
//! The physics runs for real (host transport); the *reported time* for a
//! batch on a given [`MachineSpec`] comes from pricing the batch's actual
//! instrumented counts (segments and collisions per material) with the
//! workload models. This is what regenerates Fig. 4 (routine-level
//! profile), Fig. 5 (calculation rate vs particle count) and the α values.

use mcs_core::engine::Algorithm;
use mcs_core::problem::Problem;
use mcs_core::tally::Tallies;

use crate::spec::{KernelCounts, MachineSpec};
use crate::workload::{segment_other_costs, xs_lookup_banked, xs_lookup_scalar, ProblemShape};

/// Extract the cost-model shape from a problem. The search-space size
/// comes from the instrumented context layer: for the unionized backend
/// this is the union point count, for the alternatives the equivalent
/// per-lookup search space ([`mcs_xs::XsContext::search_points`]).
pub fn shape_of(problem: &Problem) -> ProblemShape {
    ProblemShape {
        nuclides_per_material: problem.materials.iter().map(|m| m.len()).collect(),
        union_points: problem.xs.search_points(),
        full_physics: problem.physics.any(),
    }
}

/// A machine executing transport natively.
#[derive(Debug, Clone, Copy)]
pub struct NativeModel {
    /// The machine.
    pub spec: MachineSpec,
    /// Kernel style: scalar history loops (the paper's native-mode
    /// port) or banked, vectorized XS lookups (the event engine).
    pub kind: Algorithm,
    /// Fixed per-batch overhead (thread fork/join, tally reduction), s.
    pub batch_overhead_s: f64,
}

impl NativeModel {
    /// Native model with the default per-batch overhead for this machine
    /// class (in-order coprocessors pay more for fork/join + reduction).
    pub fn new(spec: MachineSpec, kind: Algorithm) -> Self {
        let batch_overhead_s = if spec.threads_per_core >= 4 {
            8e-3
        } else {
            2e-3
        };
        Self {
            spec,
            kind,
            batch_overhead_s,
        }
    }

    /// Total counts for a batch with the given instrumented tallies.
    pub fn batch_counts(&self, shape: &ProblemShape, t: &Tallies) -> KernelCounts {
        let mut total = KernelCounts::default();
        for m in 0..shape.nuclides_per_material.len().min(8) {
            let segs = t.segments_by_material[m] as f64;
            if segs == 0.0 {
                continue;
            }
            let colls = t.collisions_by_material[m] as f64;
            let cf = colls / segs;
            let lookup = match self.kind {
                Algorithm::History => xs_lookup_scalar(shape, m),
                Algorithm::EventBanking => xs_lookup_banked(shape, m),
            };
            let per_segment = lookup.add(&segment_other_costs(shape, m, cf));
            total = total.add(&per_segment.scale(segs));
        }
        total
    }

    /// Modeled wall time for the batch.
    pub fn batch_time(&self, shape: &ProblemShape, t: &Tallies) -> f64 {
        self.spec.kernel_time(&self.batch_counts(shape, t)) + self.batch_overhead_s
    }

    /// Modeled calculation rate (neutrons/second).
    pub fn calc_rate(&self, shape: &ProblemShape, t: &Tallies) -> f64 {
        t.n_particles as f64 / self.batch_time(shape, t)
    }

    /// Routine-level time breakdown, Fig.-4 style:
    /// `(calculate_xs, distance_to_boundary+geometry, sample_reaction)`
    /// in seconds.
    pub fn profile_breakdown(&self, shape: &ProblemShape, t: &Tallies) -> [(String, f64); 3] {
        let mut xs = KernelCounts::default();
        let mut other = KernelCounts::default();
        for m in 0..shape.nuclides_per_material.len().min(8) {
            let segs = t.segments_by_material[m] as f64;
            if segs == 0.0 {
                continue;
            }
            let cf = t.collisions_by_material[m] as f64 / segs;
            let lookup = match self.kind {
                Algorithm::History => xs_lookup_scalar(shape, m),
                Algorithm::EventBanking => xs_lookup_banked(shape, m),
            };
            xs = xs.add(&lookup.scale(segs));
            other = other.add(&segment_other_costs(shape, m, cf).scale(segs));
        }
        // Split "other" into geometry (the flat 250-op part) and
        // collision handling (the nuclide-walk part) by their scalar
        // shares.
        let geom_share = {
            let total_scalar = other.scalar.max(1.0);
            let geom_scalar = t.segments as f64 * 250.0;
            (geom_scalar / total_scalar).min(1.0)
        };
        let t_other = self.spec.kernel_time(&other);
        [
            ("calculate_xs".to_string(), self.spec.kernel_time(&xs)),
            ("distance_to_boundary".to_string(), t_other * geom_share),
            ("sample_reaction".to_string(), t_other * (1.0 - geom_share)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_core::engine::{transport_batch, BatchRequest, Threaded};
    use mcs_core::history::batch_streams;

    fn measured_tallies() -> (ProblemShape, Tallies) {
        let problem = Problem::test_small();
        let sources = problem.sample_initial_source(300, 0);
        let streams = batch_streams(problem.seed, 0, 300);
        let out = transport_batch(
            &problem,
            &sources,
            &streams,
            &BatchRequest::default(),
            &mut Threaded::ambient(),
        )
        .outcome;
        (shape_of(&problem), out.tallies)
    }

    #[test]
    fn shape_of_reads_problem() {
        let problem = Problem::test_small();
        let shape = shape_of(&problem);
        assert_eq!(shape.nuclides_per_material.len(), 3);
        assert!(shape.union_points > 0);
        assert!(shape.full_physics);
    }

    #[test]
    fn mic_native_history_beats_host_by_about_1_6x() {
        // Fig. 5's headline: MIC native ≈ 1.6× the host calculation rate
        // (α ≈ 0.62) on real measured segment mixes.
        let (_, mut t) = measured_tallies();
        // Scale the measured mix up to a realistic batch so the fixed
        // per-batch overhead amortizes (the tiny test run has only 300
        // particles).
        t.n_particles *= 1000;
        t.segments *= 1000;
        t.collisions *= 1000;
        for i in 0..8 {
            t.segments_by_material[i] *= 1000;
            t.collisions_by_material[i] *= 1000;
        }
        // H.M.-Large-like nuclide counts for the cost model (the test
        // problem uses the tiny library).
        let shape = ProblemShape {
            nuclides_per_material: vec![325, 1, 3],
            union_points: 360_000,
            full_physics: true,
        };
        let host = NativeModel::new(MachineSpec::host_e5_2687w(), Algorithm::History);
        let mic = NativeModel::new(MachineSpec::mic_7120a(), Algorithm::History);
        let r_host = host.calc_rate(&shape, &t);
        let r_mic = mic.calc_rate(&shape, &t);
        let alpha = r_host / r_mic;
        assert!((0.5..0.8).contains(&alpha), "alpha = {alpha:.3}");
    }

    #[test]
    fn banked_event_mode_is_faster_than_scalar_on_mic() {
        let (_, t) = measured_tallies();
        let shape = ProblemShape {
            nuclides_per_material: vec![325, 1, 3],
            union_points: 360_000,
            full_physics: false,
        };
        let scalar = NativeModel::new(MachineSpec::mic_7120a(), Algorithm::History);
        let banked = NativeModel::new(MachineSpec::mic_7120a(), Algorithm::EventBanking);
        assert!(banked.batch_time(&shape, &t) < scalar.batch_time(&shape, &t));
    }

    #[test]
    fn rate_collapses_at_tiny_particle_counts() {
        // Fig. 5: rates drop below ~10⁴ particles because fixed batch
        // overhead stops amortizing.
        let (shape, t) = measured_tallies();
        let host = NativeModel::new(MachineSpec::host_e5_2687w(), Algorithm::History);
        let rate_full = host.calc_rate(&shape, &t);
        // Same per-particle counts, 100x fewer particles.
        let mut tiny = t;
        tiny.n_particles /= 100;
        tiny.segments /= 100;
        tiny.collisions /= 100;
        for i in 0..8 {
            tiny.segments_by_material[i] /= 100;
            tiny.collisions_by_material[i] /= 100;
        }
        let rate_tiny = host.calc_rate(&shape, &tiny);
        assert!(rate_tiny < rate_full, "{rate_tiny} !< {rate_full}");
    }

    #[test]
    fn profile_breakdown_is_topped_by_calculate_xs() {
        // Fig. 4: the top routine on both machines is the XS lookup.
        let (_, t) = measured_tallies();
        let shape = ProblemShape {
            nuclides_per_material: vec![325, 1, 3],
            union_points: 360_000,
            full_physics: true,
        };
        for spec in [MachineSpec::host_e5_2687w(), MachineSpec::mic_7120a()] {
            let model = NativeModel::new(spec, Algorithm::History);
            let prof = model.profile_breakdown(&shape, &t);
            assert!(prof[0].1 > prof[1].1 && prof[0].1 > prof[2].1, "{prof:?}");
        }
    }
}
