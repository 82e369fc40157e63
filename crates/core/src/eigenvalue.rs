//! k-eigenvalue batch driver: inactive + active batches with fission-bank
//! resampling.
//!
//! Mirrors OpenMC's power-iteration structure (§III-B1): inactive batches
//! converge the fission source (no tallies kept), active batches
//! accumulate tallies and k statistics. Each batch reports its
//! *calculation rate* (simulated neutrons per second) — the paper's
//! primary performance metric (Fig. 5, Table III).

use std::time::Duration;

use mcs_geom::Vec3;
use mcs_rng::Lcg63;

use crate::event::EventStats;
use crate::mesh::{MeshStats, MeshTally};
use crate::particle::{Site, SourceSite};
use crate::tally::Tallies;

/// Per-batch record.
#[derive(Debug, Clone, Copy)]
pub struct BatchResult {
    /// Batch index (0-based over the whole run).
    pub index: usize,
    /// Tallied (active) batch?
    pub active: bool,
    /// Track-length k estimate.
    pub k_track: f64,
    /// Collision k estimate.
    pub k_collision: f64,
    /// Absorption k estimate.
    pub k_absorption: f64,
    /// Shannon entropy of the fission source (bits).
    pub entropy: f64,
    /// Wall time of the batch.
    pub wall: Duration,
    /// Calculation rate, neutrons/second.
    pub rate: f64,
}

/// Result of an eigenvalue run.
#[derive(Debug, Clone)]
pub struct EigenvalueResult {
    /// All batch records, inactive first.
    pub batches: Vec<BatchResult>,
    /// Mean track-length k over active batches.
    pub k_mean: f64,
    /// Standard error of the mean.
    pub k_std: f64,
    /// Merged tallies over active batches.
    pub tallies: Tallies,
    /// The accumulated user-defined mesh tally (if requested).
    pub mesh: Option<MeshTally>,
    /// Per-cell batch statistics for the mesh tally (if requested).
    pub mesh_stats: Option<MeshStats>,
    /// Event-pipeline counters aggregated over every batch (counts sum,
    /// peak bank is the max). `None` under
    /// [`Algorithm::History`](crate::engine::Algorithm::History).
    pub event_stats: Option<EventStats>,
    /// Total wall time.
    pub total_time: Duration,
}

impl EigenvalueResult {
    /// Mean calculation rate over batches matching `active`.
    pub fn mean_rate(&self, active: bool) -> f64 {
        let sel: Vec<f64> = self
            .batches
            .iter()
            .filter(|b| b.active == active)
            .map(|b| b.rate)
            .collect();
        if sel.is_empty() {
            0.0
        } else {
            sel.iter().sum::<f64>() / sel.len() as f64
        }
    }
}

/// Shannon entropy (bits) of fission sites on a mesh over `bounds`.
pub fn shannon_entropy(sites: &[Site], bounds: (Vec3, Vec3), mesh: (usize, usize, usize)) -> f64 {
    if sites.is_empty() {
        return 0.0;
    }
    let (lo, hi) = bounds;
    let span = hi - lo;
    let (nx, ny, nz) = mesh;
    let mut counts = vec![0u64; nx * ny * nz];
    for s in sites {
        let fx = ((s.pos.x - lo.x) / span.x).clamp(0.0, 1.0 - 1e-12);
        let fy = ((s.pos.y - lo.y) / span.y).clamp(0.0, 1.0 - 1e-12);
        let fz = ((s.pos.z - lo.z) / span.z).clamp(0.0, 1.0 - 1e-12);
        let i = (fx * nx as f64) as usize;
        let j = (fy * ny as f64) as usize;
        let k = (fz * nz as f64) as usize;
        counts[(k * ny + j) * nx + i] += 1;
    }
    let total = sites.len() as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total;
            -p * p.log2()
        })
        .sum()
}

/// Resample `n` source sites from a fission bank (uniformly, with
/// replacement), deterministically in `seed`.
pub fn resample_source(sites: &[Site], n: usize, seed: u64) -> Vec<SourceSite> {
    assert!(
        !sites.is_empty(),
        "fission bank empty: source died out (increase particles or check fuel)"
    );
    let mut rng = Lcg63::new(seed);
    (0..n)
        .map(|_| {
            let idx = ((rng.next_uniform() * sites.len() as f64) as usize).min(sites.len() - 1);
            SourceSite {
                pos: sites[idx].pos,
                energy: sites[idx].energy,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, transport_batch, Algorithm, BatchRequest, RunPlan, Threaded};
    use crate::problem::Problem;

    /// A quick test configuration.
    fn test_plan() -> RunPlan {
        RunPlan {
            particles: 500,
            inactive: 2,
            active: 3,
            entropy_mesh: (4, 4, 4),
            ..RunPlan::default()
        }
    }

    fn run_plan(problem: &Problem, plan: &RunPlan) -> EigenvalueResult {
        engine::run_with_problem(problem, plan, &mut Threaded::ambient())
            .into_eigenvalue()
            .result
    }

    #[test]
    fn eigenvalue_run_produces_sane_k() {
        let problem = Problem::test_small();
        let r = run_plan(&problem, &test_plan());
        assert_eq!(r.batches.len(), 5);
        assert_eq!(r.batches.iter().filter(|b| b.active).count(), 3);
        // A tiny single assembly with huge leakage: k in a broad
        // physical window.
        assert!(r.k_mean > 0.05 && r.k_mean < 2.0, "k = {}", r.k_mean);
        assert!(r.tallies.n_particles == 1500);
        for b in &r.batches {
            assert!(b.rate > 0.0);
            assert!(b.entropy >= 0.0);
        }
    }

    #[test]
    fn event_and_history_drivers_agree_statistically() {
        let problem = Problem::test_small();
        let mut plan = test_plan();
        let rh = run_plan(&problem, &plan);
        plan.algorithm = Algorithm::EventBanking;
        let re = run_plan(&problem, &plan);
        // Identical trajectories, resampling, and canonical float-tally
        // reduction ⇒ k per batch matches bit for bit.
        for (a, b) in rh.batches.iter().zip(&re.batches) {
            assert_eq!(
                a.k_track.to_bits(),
                b.k_track.to_bits(),
                "{} vs {}",
                a.k_track,
                b.k_track
            );
        }
        // Pipeline counters surface only from the event driver.
        assert!(rh.event_stats.is_none());
        let es = re.event_stats.expect("event driver reports stats");
        assert!(es.iterations >= 5, "5 batches, ≥1 generation each");
        assert!(es.lookups > 0);
        assert_eq!(es.peak_bank, plan.particles as u64);
    }

    #[test]
    fn grid_backends_produce_bitwise_identical_batches() {
        // The determinism contract of the unified lookup context: every
        // grid backend resolves the same interpolation intervals, so both
        // transport drivers yield bit-identical per-batch k under any of
        // them.
        use crate::problem::GridBackendKind;
        let mut plan = test_plan();
        for mode in [Algorithm::History, Algorithm::EventBanking] {
            plan.algorithm = mode;
            let runs: Vec<EigenvalueResult> = GridBackendKind::ALL
                .iter()
                .map(|&kind| run_plan(&Problem::test_small_with_backend(kind), &plan))
                .collect();
            for other in &runs[1..] {
                assert_eq!(runs[0].k_mean.to_bits(), other.k_mean.to_bits());
                assert_eq!(runs[0].tallies, other.tallies);
                for (a, b) in runs[0].batches.iter().zip(&other.batches) {
                    assert_eq!(
                        a.k_track.to_bits(),
                        b.k_track.to_bits(),
                        "batch {} diverges across backends ({mode:?})",
                        a.index
                    );
                    assert_eq!(a.entropy.to_bits(), b.entropy.to_bits());
                }
            }
        }
    }

    #[test]
    fn survival_biasing_agrees_with_analog_k() {
        // Implicit capture is an unbiased game: k agrees with the analog
        // run within combined Monte Carlo noise, while histories live
        // longer (more segments per source particle).
        let analog_problem = Problem::test_small();
        let mut biased_problem = Problem::test_small();
        biased_problem.treatment = crate::physics::AbsorptionTreatment::survival_default();

        let plan = RunPlan {
            particles: 2_000,
            inactive: 2,
            active: 6,
            entropy_mesh: (4, 4, 4),
            ..RunPlan::default()
        };
        let analog = run_plan(&analog_problem, &plan);
        let biased = run_plan(&biased_problem, &plan);
        let sigma = (analog.k_std.powi(2) + biased.k_std.powi(2))
            .sqrt()
            .max(1e-4);
        let diff = (analog.k_mean - biased.k_mean).abs();
        assert!(
            diff < 4.0 * sigma + 0.02,
            "k analog {:.4}±{:.4} vs biased {:.4}±{:.4}",
            analog.k_mean,
            analog.k_std,
            biased.k_mean,
            biased.k_std
        );
        // Survival-biased histories last longer.
        let segs_analog = analog.tallies.segments as f64 / analog.tallies.n_particles as f64;
        let segs_biased = biased.tallies.segments as f64 / biased.tallies.n_particles as f64;
        assert!(
            segs_biased > 1.1 * segs_analog,
            "{segs_biased:.1} vs {segs_analog:.1} segments/particle"
        );
    }

    #[test]
    fn survival_biasing_keeps_event_history_equality() {
        let mut problem = Problem::test_small();
        problem.treatment = crate::physics::AbsorptionTreatment::survival_default();
        let n = 400;
        let sources = problem.sample_initial_source(n, 0);
        let streams = crate::history::batch_streams(problem.seed, 0, n);
        let run = |algorithm| {
            let req = BatchRequest {
                algorithm,
                ..BatchRequest::default()
            };
            transport_batch(&problem, &sources, &streams, &req, &mut Threaded::ambient()).outcome
        };
        let (hist, evt) = (run(Algorithm::History), run(Algorithm::EventBanking));
        let (h, e) = (&hist.tallies, &evt.tallies);
        for (name, a, b) in [
            ("track_length", h.track_length, e.track_length),
            ("k_track", h.k_track, e.k_track),
            ("k_collision", h.k_collision, e.k_collision),
            ("k_absorption", h.k_absorption, e.k_absorption),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{name}: {a:e} vs {b:e}");
        }
        assert_eq!(h, e);
        assert_eq!(hist.sites, evt.sites);
    }

    #[test]
    fn mesh_tally_accumulates_only_active_batches() {
        let problem = Problem::test_small();
        let mut plan = test_plan();
        plan.mesh_tally = Some((4, 4, 2));
        let r = run_plan(&problem, &plan);
        let mesh = r.mesh.expect("mesh requested");
        assert!(mesh.total() > 0.0);
        // Mesh covers the whole geometry, so it captures (almost all of)
        // the active batches' track length. (Tiny shortfall: the paper-
        // thin escape segments beyond the outer boundary.)
        let ratio = mesh.total() / r.tallies.track_length;
        assert!((0.95..=1.0 + 1e-9).contains(&ratio), "ratio = {ratio}");
        // Peak cell is inside the fueled region, not at a corner.
        let (i, j, _, v) = mesh.peak();
        assert!(v > 0.0);
        assert!(i > 0 && i < 3 && j > 0 && j < 3, "peak at edge ({i},{j})");
    }

    #[test]
    fn mesh_tally_identical_between_history_and_event() {
        let problem = Problem::test_small();
        let mut plan = test_plan();
        plan.mesh_tally = Some((4, 4, 2));
        let rh = run_plan(&problem, &plan);
        plan.algorithm = Algorithm::EventBanking;
        let re = run_plan(&problem, &plan);
        let (mh, me) = (rh.mesh.unwrap(), re.mesh.unwrap());
        for (a, b) in mh.bins.iter().zip(&me.bins) {
            let denom = a.abs().max(1e-300);
            assert!((a - b).abs() / denom < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn entropy_of_point_source_is_zero() {
        let s = vec![Site {
            pos: Vec3::new(0.1, 0.1, 0.1),
            energy: 1.0,
            parent: 0,
            seq: 0,
        }];
        let h = shannon_entropy(
            &s,
            (Vec3::new(-1.0, -1.0, -1.0), Vec3::new(1.0, 1.0, 1.0)),
            (4, 4, 4),
        );
        assert_eq!(h, 0.0);
    }

    #[test]
    fn entropy_of_uniform_source_is_near_max() {
        let mut rng = Lcg63::new(5);
        let sites: Vec<Site> = (0..20_000)
            .map(|i| Site {
                pos: Vec3::new(
                    2.0 * rng.next_uniform() - 1.0,
                    2.0 * rng.next_uniform() - 1.0,
                    2.0 * rng.next_uniform() - 1.0,
                ),
                energy: 1.0,
                parent: i,
                seq: 0,
            })
            .collect();
        let h = shannon_entropy(
            &sites,
            (Vec3::new(-1.0, -1.0, -1.0), Vec3::new(1.0, 1.0, 1.0)),
            (4, 4, 4),
        );
        let max = (4.0f64 * 4.0 * 4.0).log2();
        assert!(h > 0.98 * max, "h = {h}, max = {max}");
    }

    #[test]
    fn resample_is_deterministic_and_in_bank() {
        let sites: Vec<Site> = (0..10)
            .map(|i| Site {
                pos: Vec3::new(i as f64, 0.0, 0.0),
                energy: i as f64 + 0.5,
                parent: i,
                seq: 0,
            })
            .collect();
        let a = resample_source(&sites, 20, 99);
        let b = resample_source(&sites, 20, 99);
        assert_eq!(a, b);
        for s in &a {
            assert!(sites.iter().any(|x| x.pos == s.pos && x.energy == s.energy));
        }
    }

    #[test]
    #[should_panic(expected = "fission bank empty")]
    fn resample_empty_bank_panics() {
        resample_source(&[], 10, 1);
    }
}
