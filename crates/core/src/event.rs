//! Event-based (banking) transport: the full implementation of the
//! algorithm the paper prototypes in micro-benchmarks and lists as future
//! work — here as a multithreaded, SIMD-batched stage pipeline.
//!
//! All live particles advance together, one *event generation* per
//! iteration, through staged kernels:
//!
//! 1. **Locate** — resolve each particle's cell (leaks terminate here).
//! 2. **XS lookup** — the bank is bucketed by material
//!    ([`bucket_by_material`]) and each bucket is fed, in ≤[`CHUNK`]
//!    tasks, through the gather-indexed banked kernel
//!    ([`mcs_xs::XsContext::batch_macro_xs_simd_indexed`], Fig. 2's
//!    banked lookup with the inner loop over nuclides vectorized).
//! 3. **Distance sampling** — `d = −ln ξ / Σ_t` across the bank (the
//!    Table I kernel): uniforms via the batched-stream fill in
//!    `mcs-rng`, the negate/divide 8-wide in [`F64x8`].
//! 4. **Boundary** — ray-trace each particle (divergent; the stage the
//!    paper notes resists vectorization).
//! 5. **Advance/Collide** — the history loop's flight step
//!    ([`crate::history`]'s `advance_collide`) per particle: move to the
//!    nearer of boundary/collision and resolve the collision.
//! 6. **Compact** — dead particles are squeezed out of the live list by
//!    an in-place, order-stable scan.
//!
//! Every stage runs in parallel over fixed [`CHUNK`]-sized chunks of the
//! live list, with the same chunk-order reduction the history loop uses,
//! so results are **bitwise identical for any thread count** (including
//! one: chunking, not threading, fixes every accumulation order). Because
//! every particle owns its RNG stream and the stages consume draws in the
//! same per-particle order as the history loop, the two algorithms also
//! produce *identical trajectories* — asserted by integration tests.
//!
//! Stage timing is one `Instant` pair per stage dispatch on the driver
//! thread: stages are barrier-synchronized, so that interval is the
//! stage's wall time even when the workers inside run concurrently.

use std::time::{Duration, Instant};

use mcs_geom::Vec3;
use mcs_rng::batch::lcg_fill_uniform;
use mcs_rng::Lcg63;
use mcs_simd::F64x8;
use mcs_xs::MacroXs;
use rayon::prelude::*;

use crate::engine::ChunkedBatch;
use crate::history::{advance_collide, FlightScore, Step, TransportOutcome, CHUNK};
use crate::mesh::{MeshSpec, MeshTally};
use crate::particle::{sort_sites, Particle, ParticleBank, Site, SourceSite};
use crate::problem::Problem;
use crate::tally::Tallies;

/// Counters describing how the event loop executed (fed to the device
/// model for offload-time estimation).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EventStats {
    /// Event generations executed.
    pub iterations: u64,
    /// Total XS lookups performed (= total flight segments).
    pub lookups: u64,
    /// Peak live-bank size.
    pub peak_bank: u64,
    /// Measured wall time per stage, seconds:
    /// `[locate, xs_lookup, distance, boundary, collide, compact]`.
    pub stage_seconds: [f64; 6],
}

impl EventStats {
    /// Stage display names, aligned with `stage_seconds`.
    pub const STAGE_NAMES: [&'static str; 6] = [
        "locate",
        "xs_lookup",
        "sample_distance",
        "boundary",
        "advance_collide",
        "compact",
    ];

    /// Total measured stage time.
    pub fn total_seconds(&self) -> f64 {
        self.stage_seconds.iter().sum()
    }

    /// Fold another run's counters into this one: counts add, the peak
    /// is the max of peaks, stage timers add (used by the eigenvalue
    /// driver to aggregate over batches).
    pub fn merge(&mut self, other: &Self) {
        self.iterations += other.iterations;
        self.lookups += other.lookups;
        self.peak_bank = self.peak_bank.max(other.peak_bank);
        for (a, b) in self.stage_seconds.iter_mut().zip(&other.stage_seconds) {
            *a += b;
        }
    }
}

/// Shared view of a mutable slice for stages that scatter results to
/// disjoint particle indices from parallel chunk tasks.
///
/// Safety contract: concurrent tasks must touch disjoint indices. The
/// event driver guarantees this structurally — every task owns a disjoint
/// sub-slice of the live list (or of a material bucket), and live-list
/// entries are unique particle indices.
struct SyncSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _borrow: std::marker::PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Sync for SyncSlice<'_, T> {}

impl<'a, T: Copy> SyncSlice<'a, T> {
    fn new(s: &'a mut [T]) -> Self {
        Self {
            ptr: s.as_mut_ptr(),
            len: s.len(),
            _borrow: std::marker::PhantomData,
        }
    }

    /// Read element `i`. Caller must not race a write to `i`.
    #[inline(always)]
    unsafe fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        *self.ptr.add(i)
    }

    /// Write element `i`. Caller must be the only task touching `i`.
    #[inline(always)]
    unsafe fn set(&self, i: usize, v: T) {
        debug_assert!(i < self.len);
        *self.ptr.add(i) = v;
    }
}

/// One stage-2 lookup task: particles `queued[start..end]` share material
/// `mat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueTask {
    /// Material id shared by the task's particles.
    pub mat: u32,
    /// Start offset into [`QueueBuffers::queued`].
    pub start: u32,
    /// End offset (exclusive).
    pub end: u32,
}

/// Reused scratch for [`bucket_by_material`]: the per-material buckets,
/// the flattened queue, and the task list. Allocation-stable across event
/// generations.
#[derive(Debug, Default)]
pub struct QueueBuffers {
    buckets: Vec<Vec<u32>>,
    /// The queued live list: the `alive` slice handed to
    /// [`bucket_by_material`], grouped by material.
    pub queued: Vec<u32>,
    /// Lookup tasks over `queued`, each at most `chunk` long.
    pub tasks: Vec<QueueTask>,
}

impl QueueBuffers {
    /// Buffers for a problem with `n_materials` materials.
    pub fn new(n_materials: usize) -> Self {
        Self {
            buckets: vec![Vec::new(); n_materials],
            ..Self::default()
        }
    }
}

/// Partition the live list into single-material lookup tasks (a banked
/// lookup needs one material): buckets drain in material-id order, each
/// keeps live-list order, and each is cut into ≤`chunk` tasks.
///
/// `material` is the bank's column indexed by particle id. On return
/// `bufs.queued` is a permutation of `alive` and `bufs.tasks` tiles it
/// exactly; the partition depends only on `alive`'s order — never on
/// thread count — so instrumentation counters stay deterministic. The
/// order itself is physically irrelevant: per-particle RNG streams and
/// per-particle float-tally slots mean stage 2 can resolve cross sections
/// in any order without changing a trajectory, a draw, or a tally fold.
pub fn bucket_by_material(alive: &[u32], material: &[u32], chunk: usize, bufs: &mut QueueBuffers) {
    bufs.queued.clear();
    bufs.tasks.clear();
    for b in &mut bufs.buckets {
        b.clear();
    }
    for &iu in alive {
        bufs.buckets[material[iu as usize] as usize].push(iu);
    }
    for (m, bucket) in bufs.buckets.iter().enumerate() {
        let mut start = bufs.queued.len();
        bufs.queued.extend_from_slice(bucket);
        while start < bufs.queued.len() {
            let end = (start + chunk).min(bufs.queued.len());
            bufs.tasks.push(QueueTask {
                mat: m as u32,
                start: start as u32,
                end: end as u32,
            });
            start = end;
        }
    }
}

/// The event batch driver ([`crate::engine::transport_chunks`]'s event
/// path): stages 1–6 over the live bank, returned as CHUNK=256 keyed
/// partials.
///
/// Integer tallies accumulate in chunk-order partial merges and every
/// one of them (being associative) rides in chunk 0. Float tallies land
/// in per-particle slots during the pipeline; chunk `k`'s float fields
/// are the sums of slots `[k*CHUNK, (k+1)*CHUNK)` — exactly the history
/// driver's chunk partials, independent of event-generation
/// interleaving — so folding the chunks in index order makes the four
/// float sums, and every k estimator derived from them, bit-identical
/// to the history loop's. Sites come back sorted by (parent, seq),
/// parents local to this slice.
pub(crate) fn run_event_batch(
    problem: &Problem,
    sources: &[SourceSite],
    streams: &[Lcg63],
    mesh_spec: Option<MeshSpec>,
) -> ChunkedBatch {
    let mut mesh = mesh_spec.map(MeshTally::new);
    let mut bank = ParticleBank::from_sources(sources, streams);
    let n = bank.capacity();
    let mut out = TransportOutcome::default();
    out.tallies.n_particles = n as u64;
    let mut stats = EventStats::default();
    let mut stage_time = [Duration::ZERO; 6];

    let mut xs_buf: Vec<MacroXs> = vec![MacroXs::default(); n];
    let mut d_coll = vec![0.0f64; n];
    let mut d_bound = vec![0.0f64; n];
    // Per-particle death flags, written by the locate and collide stages
    // and consumed by compaction. Never cleared: a flagged particle
    // leaves the live list at the next compaction and is never visited
    // again, so a stale `true` cannot be observed.
    let mut dead = vec![false; n];
    // Per-particle float-tally slots. A particle's contributions land in
    // its own slot in segment order — the same per-particle sums the
    // history loop forms — and the canonical fold after the pipeline
    // reproduces the history loop's reduction tree exactly, so the float
    // tallies (and k-eff) are bit-identical between the two algorithms.
    let mut scores = vec![FlightScore::default(); n];
    let mut qbufs = QueueBuffers::new(problem.n_materials());

    while bank.n_alive() > 0 {
        stats.iterations += 1;
        stats.peak_bank = stats.peak_bank.max(bank.n_alive() as u64);

        // --- Stage 1: locate ------------------------------------------
        {
            let t0 = Instant::now();
            let leaks: u64 = {
                let (x, y, z, alive) = (&bank.x[..], &bank.y[..], &bank.z[..], &bank.alive[..]);
                let material = SyncSlice::new(&mut bank.material);
                let dead_w = SyncSlice::new(&mut dead);
                alive
                    .par_chunks(CHUNK)
                    .map(|chunk| {
                        let mut leaks = 0u64;
                        for &iu in chunk {
                            let i = iu as usize;
                            match problem.find(Vec3::new(x[i], y[i], z[i])) {
                                // SAFETY: each live index appears in
                                // exactly one chunk.
                                Some(c) => unsafe { material.set(i, c.material) },
                                None => {
                                    leaks += 1;
                                    unsafe { dead_w.set(i, true) };
                                }
                            }
                        }
                        leaks
                    })
                    .sum()
            };
            out.tallies.leaks += leaks;
            bank.retain_alive(&dead);
            stage_time[0] += t0.elapsed();
        }
        if bank.n_alive() == 0 {
            break;
        }

        // --- Stage 2: banked XS lookups over material buckets -----------
        // A single serial partition pass builds ≤CHUNK-sized
        // single-material tasks; the tasks then run in parallel, each
        // gathering its queue's energies into the vectorized banked
        // kernel and applying the per-particle physics corrections (URR
        // sampling draws) afterwards — exactly
        // `Problem::macro_xs_vector`, batched.
        {
            let t0 = Instant::now();
            // Counted here, not read off `problem.xs`'s shared atomic:
            // concurrent runs on one `Problem` must not absorb each
            // other's lookups.
            stats.lookups += bank.n_alive() as u64;
            for &iu in &bank.alive {
                out.tallies.record_segment(bank.material[iu as usize]);
            }
            bucket_by_material(&bank.alive, &bank.material, CHUNK, &mut qbufs);
            let energy = &bank.energy[..];
            let queued = &qbufs.queued[..];
            let rng = SyncSlice::new(&mut bank.rng);
            let xs_w = SyncSlice::new(&mut xs_buf);
            qbufs.tasks.par_iter().for_each(|t| {
                let idxs = &queued[t.start as usize..t.end as usize];
                let mat = &problem.materials[t.mat as usize];
                let mut base = [MacroXs::default(); CHUNK];
                let m = idxs.len();
                problem
                    .xs
                    .batch_macro_xs_simd_indexed(mat, energy, idxs, &mut base[..m]);
                for (&iu, xs) in idxs.iter().zip(&mut base[..m]) {
                    let i = iu as usize;
                    // SAFETY: buckets partition the live list, chunks
                    // partition buckets, so index `i` belongs to this
                    // task alone.
                    unsafe {
                        let mut r = rng.get(i);
                        problem.apply_physics(t.mat, energy[i], &mut r, xs);
                        rng.set(i, r);
                        xs_w.set(i, *xs);
                    }
                }
            });
            stage_time[1] += t0.elapsed();
        }

        // --- Stage 3: sample collision distances ----------------------
        // One uniform per particle from its own stream (bit-identical to
        // the scalar path for any batching), then d = −ln ξ / Σ_t with
        // the negate/divide vectorized 8 lanes at a time. IEEE −x and x/y
        // are exact, so the vector arithmetic matches the scalar
        // expression bit for bit; only ln stays scalar (its libm result
        // is the reference the history loop uses).
        {
            let t0 = Instant::now();
            let alive = &bank.alive[..];
            let rng = SyncSlice::new(&mut bank.rng);
            let xs = &xs_buf[..];
            let d_w = SyncSlice::new(&mut d_coll);
            alive.par_chunks(CHUNK).for_each(|chunk| {
                let m = chunk.len();
                let mut streams = [Lcg63::new(0); CHUNK];
                let mut xi = [0.0f64; CHUNK];
                let mut tot = [0.0f64; CHUNK];
                let mut d = [0.0f64; CHUNK];
                for (k, &iu) in chunk.iter().enumerate() {
                    let i = iu as usize;
                    // SAFETY: disjoint chunks of unique live indices.
                    streams[k] = unsafe { rng.get(i) };
                    tot[k] = xs[i].total;
                }
                lcg_fill_uniform(&mut streams[..m], &mut xi[..m]);
                for v in &mut xi[..m] {
                    *v = v.ln();
                }
                let full = m / F64x8::LANES * F64x8::LANES;
                let mut k = 0;
                while k < full {
                    let q = -F64x8::from_slice(&xi[k..]) / F64x8::from_slice(&tot[k..]);
                    q.write_to_slice(&mut d[k..]);
                    k += F64x8::LANES;
                }
                for k in full..m {
                    d[k] = -xi[k] / tot[k];
                }
                for (k, &iu) in chunk.iter().enumerate() {
                    let i = iu as usize;
                    unsafe {
                        rng.set(i, streams[k]);
                        d_w.set(i, d[k]);
                    }
                }
            });
            stage_time[2] += t0.elapsed();
        }

        // --- Stage 4: boundary distances -------------------------------
        {
            let t0 = Instant::now();
            let alive = &bank.alive[..];
            let bank_ref = &bank;
            let d_w = SyncSlice::new(&mut d_bound);
            alive.par_chunks(CHUNK).for_each(|chunk| {
                for &iu in chunk {
                    let i = iu as usize;
                    let d = problem.distance_to_boundary(bank_ref.pos(i), bank_ref.dir(i));
                    // SAFETY: disjoint chunks of unique live indices.
                    unsafe { d_w.set(i, d) };
                }
            });
            stage_time[3] += t0.elapsed();
        }

        // --- Stage 5: advance / collide --------------------------------
        // The history loop's flight step on a `Particle` loaded from the
        // bank columns. Integer tallies, sites and mesh scores form one
        // partial per chunk, merged in chunk order below; float tallies
        // land in per-particle slots and fold canonically after the
        // pipeline.
        {
            let t0 = Instant::now();
            let (alive, material) = (&bank.alive[..], &bank.material[..]);
            let xw = SyncSlice::new(&mut bank.x);
            let yw = SyncSlice::new(&mut bank.y);
            let zw = SyncSlice::new(&mut bank.z);
            let uw = SyncSlice::new(&mut bank.u);
            let vw = SyncSlice::new(&mut bank.v);
            let ww = SyncSlice::new(&mut bank.w);
            let ew = SyncSlice::new(&mut bank.energy);
            let wtw = SyncSlice::new(&mut bank.weight);
            let rngw = SyncSlice::new(&mut bank.rng);
            let sbw = SyncSlice::new(&mut bank.sites_banked);
            let dead_w = SyncSlice::new(&mut dead);
            let score_w = SyncSlice::new(&mut scores);
            let partials: Vec<(Tallies, Vec<Site>, Option<MeshTally>)> = alive
                .par_chunks(CHUNK)
                .map(|chunk| {
                    let mut t = Tallies::default();
                    let mut sites = Vec::new();
                    let mut pmesh = mesh_spec.map(MeshTally::new);
                    for &iu in chunk {
                        let i = iu as usize;
                        // SAFETY (all accesses below): disjoint chunks of
                        // unique live indices — this task is the only one
                        // touching particle `i`.
                        let mut score = unsafe { score_w.get(i) };
                        let mut p = unsafe {
                            Particle {
                                pos: Vec3::new(xw.get(i), yw.get(i), zw.get(i)),
                                dir: Vec3::new(uw.get(i), vw.get(i), ww.get(i)),
                                energy: ew.get(i),
                                weight: wtw.get(i),
                                rng: rngw.get(i),
                                index: iu,
                                sites_banked: sbw.get(i),
                            }
                        };
                        let step = advance_collide(
                            problem,
                            &mut p,
                            material[i],
                            &xs_buf[i],
                            d_coll[i],
                            d_bound[i],
                            &mut score,
                            &mut t,
                            &mut sites,
                            pmesh.as_mut(),
                            None,
                            None,
                        );
                        unsafe {
                            score_w.set(i, score);
                            xw.set(i, p.pos.x);
                            yw.set(i, p.pos.y);
                            zw.set(i, p.pos.z);
                            if step != Step::Crossed {
                                uw.set(i, p.dir.x);
                                vw.set(i, p.dir.y);
                                ww.set(i, p.dir.z);
                                ew.set(i, p.energy);
                                wtw.set(i, p.weight);
                                rngw.set(i, p.rng);
                                sbw.set(i, p.sites_banked);
                            }
                            // A live particle's flag is `false`.
                            dead_w.set(i, step == Step::Died);
                        }
                    }
                    (t, sites, pmesh)
                })
                .collect();
            for (t, s, pm) in partials {
                out.tallies.merge(&t);
                out.sites.extend(s);
                if let (Some(m), Some(pm)) = (mesh.as_mut(), pm.as_ref()) {
                    m.merge(pm);
                }
            }
            stage_time[4] += t0.elapsed();
        }

        // --- Stage 6: compact ------------------------------------------
        {
            let t0 = Instant::now();
            bank.retain_alive(&dead);
            stage_time[5] += t0.elapsed();
        }
    }

    // Events discover sites in generation order; restore history order.
    sort_sites(&mut out.sites);
    stats.stage_seconds = stage_time.map(|t| t.as_secs_f64());

    let mut chunk_tallies: Vec<Tallies> = scores
        .chunks(CHUNK)
        .map(|s| Tallies {
            track_length: s.iter().map(|f| f.track_length).sum(),
            k_track: s.iter().map(|f| f.k_track).sum(),
            k_collision: s.iter().map(|f| f.k_collision).sum(),
            k_absorption: s.iter().map(|f| f.k_absorption).sum(),
            ..Tallies::default()
        })
        .collect();
    if let Some(first) = chunk_tallies.first_mut() {
        // `out.tallies` holds only integer totals (its floats are zero).
        first.merge(&out.tallies);
    }
    ChunkedBatch {
        chunk_tallies,
        sites: out.sites,
        mesh,
        spectrum: None,
        event_stats: Some(stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::batch_streams;
    use crate::problem::Problem;

    /// Test shorthand for the folded event run without a mesh.
    fn run_event(
        problem: &Problem,
        sources: &[SourceSite],
        streams: &[Lcg63],
    ) -> (TransportOutcome, EventStats) {
        let out = run_event_batch(problem, sources, streams, None).fold();
        (out.outcome, out.event_stats.expect("event stats"))
    }

    /// Test shorthand for the folded history run, through the engine.
    fn run_hist(problem: &Problem, sources: &[SourceSite], streams: &[Lcg63]) -> TransportOutcome {
        let req = crate::engine::BatchRequest::default();
        let policy = &mut crate::engine::Threaded::ambient();
        crate::engine::transport_batch(problem, sources, streams, &req, policy).outcome
    }

    #[test]
    fn event_matches_history_exactly() {
        let problem = Problem::test_small();
        let n = 400;
        let sources = problem.sample_initial_source(n, 0);
        let streams = batch_streams(problem.seed, 0, n);

        let hist = run_hist(&problem, &sources, &streams);
        let (evt, stats) = run_event(&problem, &sources, &streams);

        // Integer tallies must be identical: same trajectories.
        assert_eq!(hist.tallies.segments, evt.tallies.segments);
        assert_eq!(
            hist.tallies.segments_by_material,
            evt.tallies.segments_by_material
        );
        assert_eq!(
            hist.tallies.collisions_by_material,
            evt.tallies.collisions_by_material
        );
        assert_eq!(
            hist.tallies.absorptions_by_material,
            evt.tallies.absorptions_by_material
        );
        assert_eq!(
            hist.tallies.fissions_by_material,
            evt.tallies.fissions_by_material
        );
        assert_eq!(hist.tallies.collisions, evt.tallies.collisions);
        assert_eq!(hist.tallies.absorptions, evt.tallies.absorptions);
        assert_eq!(hist.tallies.fissions, evt.tallies.fissions);
        assert_eq!(hist.tallies.leaks, evt.tallies.leaks);
        // Float tallies are bit-identical: both drivers accumulate per
        // particle in segment order and fold in the same chunked tree.
        assert_eq!(
            hist.tallies.track_length.to_bits(),
            evt.tallies.track_length.to_bits()
        );
        assert_eq!(
            hist.tallies.k_track.to_bits(),
            evt.tallies.k_track.to_bits()
        );
        assert_eq!(
            hist.tallies.k_collision.to_bits(),
            evt.tallies.k_collision.to_bits()
        );
        assert_eq!(
            hist.tallies.k_absorption.to_bits(),
            evt.tallies.k_absorption.to_bits()
        );
        // Fission banks identical site-for-site.
        assert_eq!(hist.sites.len(), evt.sites.len());
        for (a, b) in hist.sites.iter().zip(&evt.sites) {
            assert_eq!(a, b);
        }
        assert!(stats.iterations > 1);
        assert_eq!(stats.peak_bank, n as u64);
        assert!(stats.lookups >= stats.iterations);
        // Stage timers sum to something positive, with the XS stage
        // contributing (the bottleneck stage of §III-A).
        assert!(stats.total_seconds() > 0.0);
        assert!(stats.stage_seconds[1] > 0.0, "xs stage not timed");
    }

    #[test]
    fn event_deterministic_across_thread_pools() {
        // The event-path mirror of the history loop's
        // `deterministic_across_thread_pools`: the full TransportOutcome
        // (float tallies bitwise included), the banked sites, and the
        // mesh tally must be identical for 1, 2, and 8 threads, and the
        // 1-thread pool must equal the dedicated serial entry point.
        let problem = Problem::test_small();
        let n = 300;
        let sources = problem.sample_initial_source(n, 1);
        let streams = batch_streams(problem.seed, 0, n);
        let spec = crate::mesh::MeshSpec::covering(problem.geometry.bounds, 4, 4, 2);

        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| run_event_batch(&problem, &sources, &streams, Some(spec)).fold())
        };
        let (b1, b2, b8) = (run(1), run(2), run(8));
        let (out1, out2, out8) = (&b1.outcome, &b2.outcome, &b8.outcome);

        assert_eq!(out1.tallies, out2.tallies);
        assert_eq!(out1.tallies, out8.tallies);
        assert_eq!(out1.sites, out2.sites);
        assert_eq!(out1.sites, out8.sites);
        assert_eq!(
            b1.mesh.as_ref().unwrap().bins,
            b2.mesh.as_ref().unwrap().bins
        );
        assert_eq!(
            b1.mesh.as_ref().unwrap().bins,
            b8.mesh.as_ref().unwrap().bins
        );
        // Counters (everything but the timers) identical too.
        let stats = |b: &crate::engine::BatchOutput| b.event_stats.unwrap();
        let (stats1, stats2, stats8) = (stats(&b1), stats(&b2), stats(&b8));
        for (a, b) in [(&stats1, &stats2), (&stats1, &stats8)] {
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.lookups, b.lookups);
            assert_eq!(a.peak_bank, b.peak_bank);
        }

        let serial_pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let (out_serial, _) = serial_pool.install(|| run_event(&problem, &sources, &streams));
        assert_eq!(out_serial.tallies, out1.tallies);
        assert_eq!(out_serial.sites, out1.sites);
    }

    #[test]
    fn concurrent_runs_on_one_problem_count_their_own_lookups() {
        // Serve's workers share one pooled `Arc<Problem>`: a run's lookup
        // count must be its own flight segments, not whatever the shared
        // `xs.lookups` atomic saw while it ran.
        let problem = Problem::test_small();
        let n = 256;
        let start = std::sync::Barrier::new(2);
        let run = |batch: u64| {
            let sources = problem.sample_initial_source(n, batch);
            let streams = batch_streams(problem.seed, batch, n);
            start.wait();
            run_event(&problem, &sources, &streams)
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| run(0));
            let b = s.spawn(|| run(1));
            (a.join().unwrap(), b.join().unwrap())
        });
        for (out, stats) in [a, b] {
            assert!(stats.lookups > 0);
            assert_eq!(stats.lookups, out.tallies.segments);
        }
    }

    #[test]
    fn event_counters_identical_serial_vs_parallel() {
        let problem = Problem::test_small();
        let n = 256;
        let sources = problem.sample_initial_source(n, 3);
        let streams = batch_streams(problem.seed, 1, n);
        let serial_pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let (_, serial) = serial_pool.install(|| run_event(&problem, &sources, &streams));
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let (_, parallel) = pool.install(|| run_event(&problem, &sources, &streams));
        assert_eq!(serial.iterations, parallel.iterations);
        assert_eq!(serial.lookups, parallel.lookups);
        assert_eq!(serial.peak_bank, parallel.peak_bank);
        // Same op counts ⇒ same device-model offload estimate.
        assert!(serial.lookups > 0);
    }

    #[test]
    fn event_stats_merge_accumulates() {
        let mut a = EventStats {
            iterations: 3,
            lookups: 100,
            peak_bank: 40,
            stage_seconds: [1.0; 6],
        };
        let b = EventStats {
            iterations: 2,
            lookups: 50,
            peak_bank: 70,
            stage_seconds: [0.5; 6],
        };
        a.merge(&b);
        assert_eq!(a.iterations, 5);
        assert_eq!(a.lookups, 150);
        assert_eq!(a.peak_bank, 70);
        assert_eq!(a.stage_seconds, [1.5; 6]);
    }

    #[test]
    fn event_loop_drains_bank() {
        let problem = Problem::test_small();
        let n = 64;
        let sources = problem.sample_initial_source(n, 5);
        let streams = batch_streams(problem.seed, 3, n);
        let (out, _) = run_event(&problem, &sources, &streams);
        assert_eq!(out.tallies.absorptions + out.tallies.leaks, n as u64);
    }

    #[test]
    fn bank_of_immediate_leakers_terminates_in_one_iteration() {
        use mcs_geom::Vec3;
        let problem = Problem::test_small();
        // All particles born outside the geometry.
        let sources: Vec<crate::particle::SourceSite> = (0..16)
            .map(|i| crate::particle::SourceSite {
                pos: Vec3::new(500.0 + i as f64, 0.0, 0.0),
                energy: 1.0,
            })
            .collect();
        let streams = batch_streams(problem.seed, 0, 16);
        let (out, stats) = run_event(&problem, &sources, &streams);
        assert_eq!(out.tallies.leaks, 16);
        assert_eq!(out.tallies.collisions, 0);
        assert_eq!(stats.iterations, 1);
        assert_eq!(stats.lookups, 0);
    }

    #[test]
    fn mixed_bank_with_some_leakers_stays_consistent() {
        use mcs_geom::Vec3;
        let problem = Problem::test_small();
        let mut sources = problem.sample_initial_source(20, 0);
        // Replace half with out-of-geometry births.
        for (i, s) in sources.iter_mut().enumerate().take(10) {
            s.pos = Vec3::new(400.0 + i as f64, 0.0, 0.0);
        }
        let streams = batch_streams(problem.seed, 0, 20);
        let hist = run_hist(&problem, &sources, &streams);
        let (evt, _) = run_event(&problem, &sources, &streams);
        assert!(hist.tallies.leaks >= 10);
        assert_eq!(hist.tallies.leaks, evt.tallies.leaks);
        assert_eq!(hist.tallies.collisions, evt.tallies.collisions);
        assert_eq!(hist.sites, evt.sites);
    }

    #[test]
    fn near_floor_source_energies_are_handled() {
        // Particles born at the data floor thermal-walk briefly and die
        // by capture without panicking, identically in both engines.
        let problem = Problem::test_small();
        let mut sources = problem.sample_initial_source(12, 0);
        for s in &mut sources {
            s.energy = crate::E_FLOOR * 2.0;
        }
        let streams = batch_streams(problem.seed, 0, 12);
        let hist = run_hist(&problem, &sources, &streams);
        let (evt, _) = run_event(&problem, &sources, &streams);
        assert_eq!(hist.tallies.absorptions + hist.tallies.leaks, 12);
        assert_eq!(hist.tallies.collisions, evt.tallies.collisions);
    }

    #[test]
    fn empty_bank_is_a_noop() {
        let problem = Problem::test_small();
        let (out, stats) = run_event(&problem, &[], &[]);
        assert_eq!(out.tallies.n_particles, 0);
        assert_eq!(stats.iterations, 0);
    }
}
