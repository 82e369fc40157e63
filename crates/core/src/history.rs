//! History-based transport: each particle tracked birth→death.
//!
//! This is OpenMC's algorithm and the paper's baseline: MIMD-style
//! parallelism where each thread owns whole histories and every particle's
//! control flow diverges independently (§I). Parallelism over particles
//! uses fixed-size chunks folded in chunk order, so results are bitwise
//! identical for any thread count.

use mcs_geom::BOUNDARY_EPS;
use mcs_prof::ThreadProfiler;
use mcs_rng::Lcg63;
use mcs_xs::MacroXs;
use rayon::prelude::*;

use crate::engine::ChunkedBatch;
use crate::mesh::{MeshSpec, MeshTally};
use crate::particle::{Particle, Site, SourceSite};
use crate::physics::{collide, AbsorptionTreatment, CollisionOutcome};
use crate::problem::Problem;
use crate::spectrum::SpectrumTally;
use crate::tally::Tallies;
use crate::E_FLOOR;

/// Tallies plus the fission bank produced by a set of histories.
#[derive(Debug, Clone, Default)]
pub struct TransportOutcome {
    /// Global tallies.
    pub tallies: Tallies,
    /// Banked fission sites, in (parent, seq) order.
    pub sites: Vec<Site>,
}

/// Chunk size for deterministic parallel reduction.
pub const CHUNK: usize = 256;

/// Hard cap on flight segments per history (defensive; a particle in this
/// problem dies in well under a thousand segments).
const MAX_SEGMENTS: usize = 2_000_000;

/// The four float sums of one history, in segment order. The history loop
/// adds it to its chunk's tallies when the history ends; the event
/// pipeline keeps one per particle and folds them per CHUNK block — the
/// same summation tree.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FlightScore {
    pub track_length: f64,
    pub k_track: f64,
    pub k_collision: f64,
    pub k_absorption: f64,
}

impl FlightScore {
    fn add_to(&self, t: &mut Tallies) {
        t.track_length += self.track_length;
        t.k_track += self.k_track;
        t.k_collision += self.k_collision;
        t.k_absorption += self.k_absorption;
    }
}

/// Where a flight step left its particle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Moved across a surface; only `pos` changed.
    Crossed,
    /// Collided and scattered; it flies on.
    Collided,
    /// Absorbed, or scattered below [`E_FLOOR`]; the history ends.
    Died,
}

/// One flight step, once the cross section and both distances are known:
/// score the track, move to the nearer of boundary and collision, and at
/// a collision score the k estimators and resolve it with [`collide`].
/// The history loop and the event pipeline's advance/collide stage both
/// call it, so their trajectories and tallies are bit-identical. Integer
/// counts go to `tallies`, float sums to `score`, fission sites to
/// `sites` (sequenced by `p.sites_banked`).
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn advance_collide(
    problem: &Problem,
    p: &mut Particle,
    mat: u32,
    xs: &MacroXs,
    d_coll: f64,
    d_bound: f64,
    score: &mut FlightScore,
    tallies: &mut Tallies,
    sites: &mut Vec<Site>,
    mesh: Option<&mut MeshTally>,
    spectrum: Option<&mut SpectrumTally>,
    prof: Option<&ThreadProfiler>,
) -> Step {
    let crossed = d_bound <= d_coll;
    let d = if crossed { d_bound } else { d_coll };
    score.track_length += d;
    score.k_track += p.weight * d * xs.nu_fission;
    if let Some(m) = mesh {
        m.score_track(p.pos, p.dir, d);
    }
    if let Some(sp) = spectrum {
        sp.score(p.energy, p.weight * d);
    }
    if crossed {
        p.pos += p.dir * (d + BOUNDARY_EPS);
        return Step::Crossed;
    }

    p.pos += p.dir * d;
    tallies.record_collision(mat);
    let w_before = p.weight;
    score.k_collision += w_before * xs.nu_fission / xs.total;
    let survival = !matches!(problem.treatment, AbsorptionTreatment::Analog);
    if survival && xs.absorption > 0.0 {
        // Implicit-capture absorption estimator: the weight absorbed
        // this collision times ν Σ_f / Σ_a.
        score.k_absorption +=
            w_before * (xs.absorption / xs.total) * (xs.nu_fission / xs.absorption);
    }

    let outcome = {
        let _g = prof.map(|t| t.enter("sample_reaction"));
        collide(
            &problem.xs,
            &problem.materials[mat as usize],
            &problem.physics,
            &problem.slots[mat as usize],
            p.pos,
            &mut p.dir,
            &mut p.energy,
            &mut p.weight,
            problem.treatment,
            xs,
            &mut p.rng,
            p.index,
            &mut p.sites_banked,
            sites,
        )
    };
    match outcome {
        CollisionOutcome::Absorbed { fission } => {
            tallies.record_absorption(mat, fission);
            if !survival && xs.absorption > 0.0 {
                score.k_absorption += xs.nu_fission / xs.absorption;
            }
            Step::Died
        }
        CollisionOutcome::Scattered if p.energy < E_FLOOR => {
            // Thermalized below the data floor: terminate as capture.
            tallies.record_absorption(mat, false);
            Step::Died
        }
        CollisionOutcome::Scattered => Step::Collided,
    }
}

/// Track one particle to completion, accumulating tallies and fission
/// sites: an optional mesh tally and energy-spectrum tally scored along
/// every flight segment, plus an optional leakage spectrum scored at
/// escape (the shielding output of fixed-source runs). `prof` (when
/// present) attributes time to the same routine names the paper's Fig. 4
/// profile shows.
///
/// Float tallies accumulate into a per-history [`FlightScore`] that is
/// added to `tallies` once the history ends. This fixes a canonical
/// summation tree — per-particle in segment order, then particles in
/// index order — that the event driver reproduces exactly, making the
/// two transport algorithms' float tallies (and therefore k-eff)
/// bit-identical, not merely close.
#[allow(clippy::too_many_arguments)]
pub(crate) fn transport_particle_full(
    problem: &Problem,
    p: &mut Particle,
    tallies: &mut Tallies,
    sites: &mut Vec<Site>,
    prof: Option<&ThreadProfiler>,
    mut mesh: Option<&mut MeshTally>,
    mut spectrum: Option<&mut SpectrumTally>,
    leak_spectrum: Option<&mut SpectrumTally>,
) {
    tallies.n_particles += 1;
    let mut score = FlightScore::default();
    for _ in 0..MAX_SEGMENTS {
        // Locate.
        let Some(cell) = problem.find(p.pos) else {
            tallies.leaks += 1;
            if let Some(ls) = leak_spectrum {
                ls.score(p.energy, p.weight);
            }
            return score.add_to(tallies);
        };

        // Cross-section lookup (the bottleneck routine). Uses the
        // vectorized nuclide-loop kernel — the paper's first SIMD
        // algorithm operates inside history transport — which also makes
        // the lookup bit-identical to the event driver's batched kernel.
        tallies.record_segment(cell.material);
        let xs = {
            let _g = prof.map(|t| t.enter("calculate_xs"));
            problem.macro_xs_vector(cell.material, p.energy, &mut p.rng)
        };
        debug_assert!(xs.total > 0.0, "non-positive total xs");

        // Distance to collision (Eq. 1) vs distance to boundary.
        let d_coll = -p.rng.next_uniform().ln() / xs.total;
        let d_bound = {
            let _g = prof.map(|t| t.enter("distance_to_boundary"));
            problem.distance_to_boundary(p.pos, p.dir)
        };

        let step = advance_collide(
            problem,
            p,
            cell.material,
            &xs,
            d_coll,
            d_bound,
            &mut score,
            tallies,
            sites,
            mesh.as_deref_mut(),
            spectrum.as_deref_mut(),
            prof,
        );
        if step == Step::Died {
            return score.add_to(tallies);
        }
    }
    panic!("particle exceeded {MAX_SEGMENTS} flight segments");
}

/// The history batch driver ([`crate::engine::transport_chunks`]'s
/// history path).
///
/// * `mesh_spec` — score a mesh tally along every segment.
/// * `want_spectrum` — score a full-range energy spectrum.
/// * `profiler` — run the chunks *sequentially* on the calling thread
///   under the `transport_total` region with per-routine attribution
///   (the fig. 4 measurement).
///
/// Either way the batch is `CHUNK` particles per task, and the chunk
/// partials come back in chunk order (chunk `k` covers local particles
/// `k*CHUNK .. (k+1)*CHUNK`), sites concatenated and mesh/spectrum
/// merged in that order: every thread count, and the profiled run,
/// reproduce the one summation tree bit for bit.
pub(crate) fn run_history_batch(
    problem: &Problem,
    sources: &[SourceSite],
    streams: &[Lcg63],
    mesh_spec: Option<MeshSpec>,
    want_spectrum: bool,
    profiler: Option<&ThreadProfiler>,
) -> ChunkedBatch {
    assert_eq!(sources.len(), streams.len());

    // `prof` is a parameter, not a capture: a `&ThreadProfiler` is not
    // `Send`, and the parallel path shares this closure across workers.
    let run_chunk =
        |chunk_idx: usize, src: &[SourceSite], stream: &[Lcg63], prof: Option<&ThreadProfiler>| {
            let mut out = TransportOutcome::default();
            let mut mesh = mesh_spec.map(MeshTally::new);
            let mut spectrum = want_spectrum.then(SpectrumTally::standard);
            for (i, (&site, &rng)) in src.iter().zip(stream).enumerate() {
                let index = (chunk_idx * CHUNK + i) as u32;
                let mut p = Particle::born(site, index, rng);
                transport_particle_full(
                    problem,
                    &mut p,
                    &mut out.tallies,
                    &mut out.sites,
                    prof,
                    mesh.as_mut(),
                    spectrum.as_mut(),
                    None,
                );
            }
            (out, mesh, spectrum)
        };
    let partials: Vec<_> = match profiler {
        Some(prof) => {
            let _total = prof.enter("transport_total");
            sources
                .chunks(CHUNK)
                .zip(streams.chunks(CHUNK))
                .enumerate()
                .map(|(k, (src, stream))| run_chunk(k, src, stream, Some(prof)))
                .collect()
        }
        None => sources
            .par_chunks(CHUNK)
            .zip(streams.par_chunks(CHUNK))
            .enumerate()
            .map(|(k, (src, stream))| run_chunk(k, src, stream, None))
            .collect(),
    };

    let mut batch = ChunkedBatch {
        chunk_tallies: Vec::with_capacity(partials.len()),
        sites: Vec::new(),
        mesh: mesh_spec.map(MeshTally::new),
        spectrum: want_spectrum.then(SpectrumTally::standard),
        event_stats: None,
    };
    for (part, part_mesh, part_spectrum) in partials {
        batch.chunk_tallies.push(part.tallies);
        batch.sites.extend(part.sites);
        if let (Some(m), Some(pm)) = (batch.mesh.as_mut(), part_mesh.as_ref()) {
            m.merge(pm);
        }
        if let (Some(sp), Some(ps)) = (batch.spectrum.as_mut(), part_spectrum.as_ref()) {
            sp.merge(ps);
        }
    }
    batch
}

/// The per-history RNG streams for batch `batch_index` of a run: particle
/// `i` gets the stream starting `(<batch offset> + i) · STRIDE` draws into
/// the master sequence.
pub fn batch_streams(seed: u64, batch_index: u64, n: usize) -> Vec<Lcg63> {
    (0..n)
        .map(|i| {
            Lcg63::for_history(
                seed,
                batch_index * (n as u64) + i as u64,
                mcs_rng::STREAM_STRIDE,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;

    /// The folded history batch, unprofiled unless `prof` is given.
    fn run(
        problem: &Problem,
        sources: &[SourceSite],
        streams: &[Lcg63],
        prof: Option<&ThreadProfiler>,
    ) -> TransportOutcome {
        run_history_batch(problem, sources, streams, None, false, prof)
            .fold()
            .outcome
    }

    fn small_run(n: usize) -> (Problem, TransportOutcome) {
        let problem = Problem::test_small();
        let sources = problem.sample_initial_source(n, 0);
        let streams = batch_streams(problem.seed, 0, n);
        let out = run(&problem, &sources, &streams, None);
        (problem, out)
    }

    #[test]
    fn histories_conserve_particles() {
        let n = 200;
        let (_, out) = small_run(n);
        assert_eq!(out.tallies.n_particles, n as u64);
        // Every particle ends exactly one way.
        assert_eq!(out.tallies.absorptions + out.tallies.leaks, n as u64);
        assert!(out.tallies.collisions > 0);
        assert!(out.tallies.track_length > 0.0);
    }

    #[test]
    fn k_estimators_are_positive_and_similar() {
        let n = 2000;
        let (_, out) = small_run(n);
        let kt = out.tallies.k_track_estimate();
        let kc = out.tallies.k_collision_estimate();
        let ka = out.tallies.k_absorption_estimate();
        assert!(kt > 0.0 && kc > 0.0 && ka > 0.0);
        // The three estimators agree within Monte Carlo noise.
        assert!((kt - kc).abs() / kt < 0.2, "kt={kt} kc={kc}");
        assert!((kt - ka).abs() / kt < 0.2, "kt={kt} ka={ka}");
    }

    #[test]
    fn per_material_breakdowns_are_consistent() {
        let (_, out) = small_run(800);
        let t = out.tallies;
        assert_eq!(t.absorptions_by_material.iter().sum::<u64>(), t.absorptions);
        assert_eq!(t.fissions_by_material.iter().sum::<u64>(), t.fissions);
        // Fission only happens in fuel (material 0).
        assert_eq!(t.fissions_by_material[0], t.fissions);
        assert!(t.fissions_by_material[1] == 0 && t.fissions_by_material[2] == 0);
        // Fuel absorbs the most.
        assert!(t.absorptions_by_material[0] > t.absorptions_by_material[1]);
    }

    #[test]
    fn fission_sites_ordered_and_tagged() {
        let (_, out) = small_run(500);
        assert!(!out.sites.is_empty(), "no fission in a fueled assembly?");
        for w in out.sites.windows(2) {
            assert!((w[0].parent, w[0].seq) < (w[1].parent, w[1].seq));
        }
    }

    #[test]
    fn deterministic_across_thread_pools() {
        let problem = Problem::test_small();
        let sources = problem.sample_initial_source(300, 1);
        let streams = batch_streams(problem.seed, 0, 300);

        let pool1 = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let pool4 = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let a = pool1.install(|| run(&problem, &sources, &streams, None));
        let b = pool4.install(|| run(&problem, &sources, &streams, None));
        assert_eq!(a.tallies, b.tallies);
        assert_eq!(a.sites, b.sites);
    }

    #[test]
    fn profiled_run_matches_parallel_run_bitwise() {
        // 600 particles = 3 chunks: a profiled batch that folded all of
        // them through one accumulator would differ in the last bits.
        let problem = Problem::test_small();
        let sources = problem.sample_initial_source(600, 2);
        let streams = batch_streams(problem.seed, 0, 600);
        let prof = mcs_prof::ThreadProfiler::new();
        let a = run(&problem, &sources, &streams, Some(&prof));
        let b = run(&problem, &sources, &streams, None);
        for (name, x, y) in [
            (
                "track_length",
                a.tallies.track_length,
                b.tallies.track_length,
            ),
            ("k_track", a.tallies.k_track, b.tallies.k_track),
            ("k_collision", a.tallies.k_collision, b.tallies.k_collision),
            (
                "k_absorption",
                a.tallies.k_absorption,
                b.tallies.k_absorption,
            ),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{name}: {x:e} vs {y:e}");
        }
        assert_eq!(a.tallies, b.tallies);
        assert_eq!(a.sites, b.sites);
        let profile = prof.finish();
        assert!(profile.get("calculate_xs").unwrap().calls > 0);
        assert_eq!(profile.get("transport_total").unwrap().calls, 1);
    }

    #[test]
    fn leaks_occur_in_small_geometry() {
        // A single short assembly leaks plenty of fast neutrons.
        let (_, out) = small_run(500);
        assert!(out.tallies.leaks > 0);
    }
}
