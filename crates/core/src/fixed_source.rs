//! Fixed-source transport mode.
//!
//! The second of OpenMC's two run modes: instead of iterating on the
//! fission source, an *external* source emits particles and every history
//! is followed to completion **including its fission progeny** (the
//! subcritical multiplication chain). Requires k_eff < 1, or chains never
//! die; the runner enforces a chain-length cap and reports if it trips.
//!
//! The interesting physics output is the net multiplication
//! `M = (source + fission neutrons) / source`, which for a point value of
//! k approaches `1/(1 − k)` — asserted against the eigenvalue solver's k
//! in the tests.

use mcs_geom::Vec3;
use mcs_rng::Lcg63;
use rayon::prelude::*;

use crate::history::{transport_particle_full, CHUNK};
use crate::particle::{Particle, Site, SourceSite};
use crate::problem::Problem;
use crate::spectrum::SpectrumTally;
use crate::tally::Tallies;

/// An external source definition.
#[derive(Debug, Clone)]
pub enum SourceDef {
    /// Monoenergetic isotropic point source.
    Point {
        /// Emission point.
        pos: Vec3,
        /// Emission energy (MeV).
        energy: f64,
    },
    /// Watt-spectrum source uniform over the problem's fuel regions (the
    /// same sampler the eigenvalue mode starts from).
    FuelWatt,
}

/// Settings for a fixed-source run.
#[derive(Debug, Clone)]
pub struct FixedSourceSettings {
    /// Source particles to emit.
    pub particles: usize,
    /// The source.
    pub source: SourceDef,
    /// Cap on fission generations followed per source particle
    /// (trips only if the system is critical or worse).
    pub max_chain: usize,
}

/// Result of a fixed-source run.
#[derive(Debug, Clone)]
pub struct FixedSourceResult {
    /// Tallies over all histories (source + progeny).
    pub tallies: Tallies,
    /// Source particles emitted.
    pub source_particles: u64,
    /// Fission neutrons born in the chains.
    pub progeny: u64,
    /// Histories whose chains hit the generation cap.
    pub truncated_chains: u64,
    /// Energy spectrum of neutrons escaping the geometry (the shielding
    /// observable).
    pub leak_spectrum: SpectrumTally,
}

impl FixedSourceResult {
    /// Net neutron multiplication `M = (source + progeny) / source`.
    pub fn multiplication(&self) -> f64 {
        (self.source_particles + self.progeny) as f64 / self.source_particles.max(1) as f64
    }
}

/// The fixed-source chain runner ([`crate::engine`]'s fixed-source
/// dispatch target; thread-local policies wrap it in their pool).
pub(crate) fn run_fixed_source_impl(
    problem: &Problem,
    settings: &FixedSourceSettings,
) -> FixedSourceResult {
    let n = settings.particles;
    // Fuel-Watt sources are pre-sampled once (deterministic); a point
    // source emits the same site for every index.
    let sources = match settings.source {
        SourceDef::Point { pos, energy } => vec![SourceSite { pos, energy }; n],
        SourceDef::FuelWatt => problem.sample_initial_source(n, 0xF1ED),
    };

    let partials: Vec<(Tallies, u64, u64, SpectrumTally)> = sources
        .par_chunks(CHUNK)
        .enumerate()
        .map(|(k, chunk)| {
            let mut tallies = Tallies::default();
            let mut progeny = 0u64;
            let mut truncated = 0u64;
            let mut leak_spectrum = SpectrumTally::standard();
            for (j, &site) in chunk.iter().enumerate() {
                let i = k * CHUNK + j;
                // Source particle stream = global index; progeny use
                // sub-streams derived from (index, birth order).
                let rng =
                    Lcg63::for_history(problem.seed ^ 0xF15D, i as u64, mcs_rng::STREAM_STRIDE);
                let mut stack: Vec<(SourceSite, u32)> = vec![(site, 0)];
                let mut born = 0u32;
                while let Some((s, gen)) = stack.pop() {
                    if gen as usize >= settings.max_chain {
                        truncated += 1;
                        continue;
                    }
                    // Each chain member gets a distinct sub-stream.
                    let member_rng = rng.skipped(born as u64 * 211);
                    born += 1;
                    let mut p = Particle::born(s, i as u32, member_rng);
                    let mut sites: Vec<Site> = Vec::new();
                    transport_particle_full(
                        problem,
                        &mut p,
                        &mut tallies,
                        &mut sites,
                        None,
                        None,
                        None,
                        Some(&mut leak_spectrum),
                    );
                    progeny += sites.len() as u64;
                    for site in sites {
                        stack.push((
                            SourceSite {
                                pos: site.pos,
                                energy: site.energy,
                            },
                            gen + 1,
                        ));
                    }
                }
            }
            (tallies, progeny, truncated, leak_spectrum)
        })
        .collect();

    let mut leak_spectrum = SpectrumTally::standard();
    for (.., ls) in &partials {
        leak_spectrum.merge(ls);
    }
    FixedSourceResult {
        tallies: Tallies::fold(partials.iter().map(|(t, ..)| t)),
        source_particles: n as u64,
        progeny: partials.iter().map(|p| p.1).sum(),
        truncated_chains: partials.iter().map(|p| p.2).sum(),
        leak_spectrum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, RunPlan, Threaded};
    use crate::problem::Problem;

    fn settings(n: usize) -> FixedSourceSettings {
        FixedSourceSettings {
            particles: n,
            source: SourceDef::FuelWatt,
            max_chain: 10_000,
        }
    }

    #[test]
    fn fixed_source_is_deterministic() {
        let problem = Problem::test_small();
        let a = run_fixed_source_impl(&problem, &settings(300));
        let b = run_fixed_source_impl(&problem, &settings(300));
        assert_eq!(a.tallies, b.tallies);
        assert_eq!(a.progeny, b.progeny);
    }

    #[test]
    fn fixed_source_is_grid_backend_invariant() {
        // Every grid backend resolves the same lower-bound index, so the
        // full subcritical fission chains — source sampling, transport,
        // progeny, and the leak spectrum — must be bitwise identical.
        use crate::problem::GridBackendKind;
        let reference = run_fixed_source_impl(&Problem::test_small(), &settings(300));
        for kind in GridBackendKind::ALL {
            let problem = Problem::test_small_with_backend(kind);
            let r = run_fixed_source_impl(&problem, &settings(300));
            assert_eq!(r.tallies, reference.tallies, "backend {}", kind.name());
            assert_eq!(r.progeny, reference.progeny, "backend {}", kind.name());
            assert_eq!(r.truncated_chains, reference.truncated_chains);
            assert_eq!(
                r.leak_spectrum,
                reference.leak_spectrum,
                "leak spectrum diverged under backend {}",
                kind.name()
            );
        }
    }

    #[test]
    fn multiplication_matches_generation_resolved_k() {
        // The subcritical multiplication identity, generation-resolved:
        // the fixed-source chains start from the SAME flat fuel source
        // the eigenvalue iteration starts from, so
        //   M = 1 + k₀ + k₀k₁ + k₀k₁k₂ + ...
        // with k_g the eigenvalue run's per-batch (per-generation) k's,
        // extended with the converged k for the tail. This is tighter
        // than 1/(1−k_mode), which ignores source-shape convergence.
        let problem = Problem::test_small();
        let fixed = run_fixed_source_impl(&problem, &settings(3_000));
        assert_eq!(fixed.truncated_chains, 0, "subcritical chains must die");
        let m = fixed.multiplication();

        let plan = RunPlan {
            particles: 3_000,
            inactive: 4,
            active: 6,
            entropy_mesh: (4, 4, 4),
            ..RunPlan::default()
        };
        let eig = engine::run_with_problem(&problem, &plan, &mut Threaded::ambient())
            .into_eigenvalue()
            .result;
        let ks: Vec<f64> = eig.batches.iter().map(|b| b.k_track).collect();
        let k_mode = eig.k_mean;
        assert!(k_mode < 0.95, "identity needs a clearly subcritical system");
        let mut m_expected = 1.0;
        let mut chain = 1.0;
        for &k in &ks {
            chain *= k;
            m_expected += chain;
        }
        // Geometric tail at the converged k.
        m_expected += chain * k_mode / (1.0 - k_mode);
        assert!(
            (m / m_expected - 1.0).abs() < 0.15,
            "M = {m:.3} vs generation-resolved prediction {m_expected:.3} (k_mode = {k_mode:.4})"
        );
    }

    #[test]
    fn leak_spectrum_counts_every_leak_and_is_fast_dominated() {
        // The leak spectrum must integrate to the leak count, and a small
        // water-moderated assembly leaks across the whole range: a strong
        // fast component (uncollided fission neutrons) plus a small
        // thermal component (moderated escapees; most thermal neutrons
        // are absorbed before reaching the boundary).
        let problem = Problem::test_small();
        let r = run_fixed_source_impl(&problem, &settings(1_000));
        let total: f64 = r.leak_spectrum.total();
        assert!((total - r.tallies.leaks as f64).abs() < 1e-9);
        let in_range = |lo: f64, hi: f64| -> f64 {
            r.leak_spectrum
                .bin_centers()
                .iter()
                .zip(&r.leak_spectrum.bins)
                .filter(|(&c, _)| c >= lo && c < hi)
                .map(|(_, &b)| b)
                .sum()
        };
        let fast = in_range(0.1, 20.0);
        let thermal = in_range(1e-11, 1e-6);
        assert!(fast > 0.2 * total, "fast fraction {}", fast / total);
        assert!(
            thermal > 0.02 * total,
            "thermal fraction {}",
            thermal / total
        );
    }

    #[test]
    fn point_source_emits_from_the_point() {
        let problem = Problem::test_small();
        let s = FixedSourceSettings {
            particles: 200,
            source: SourceDef::Point {
                pos: Vec3::new(0.63, 0.63, 0.0), // inside a fuel pin
                energy: 2.0,
            },
            max_chain: 10_000,
        };
        let r = run_fixed_source_impl(&problem, &s);
        assert_eq!(r.tallies.n_particles, 200 + r.progeny);
        assert!(r.tallies.collisions > 0);
        assert_eq!(
            r.tallies.absorptions + r.tallies.leaks,
            r.tallies.n_particles
        );
    }

    #[test]
    fn chain_cap_reports_truncation() {
        // With a cap of 0 generations, every source particle's chain is
        // cut before it even starts.
        let problem = Problem::test_small();
        let mut s = settings(50);
        s.max_chain = 0;
        let r = run_fixed_source_impl(&problem, &s);
        assert_eq!(r.truncated_chains, 50);
        assert_eq!(r.tallies.n_particles, 0);
    }
}
