//! The unified transport engine.
//!
//! One batch loop executes every run the repo knows how to make: a
//! declarative [`RunPlan`] (what to simulate) paired with an
//! [`ExecutionPolicy`] (where/how batches execute). The engine owns
//! everything between batches — source resampling, Shannon entropy,
//! the CHUNK=256 canonical tally folds, statepoint write/resume, and
//! result assembly — so the bitwise determinism contracts (event ==
//! history k, distributed == serial, kill→resume identity, grid-backend
//! invariance) are enforced in exactly one place.
//!
//! ```text
//!   RunPlan ──▶ run(plan, policy) ──▶ batch loop ──▶ RunReport
//!                      │                  │
//!                      │       transport_batch(problem, ctx)
//!                      ▼                  ▼
//!               ExecutionPolicy:   Serial | Threaded | Distributed
//! ```
//!
//! The pre-engine entry points (`run_eigenvalue`, `run_histories_*`,
//! `run_event_transport*`, `run_fixed_source`,
//! `run_distributed_eigenvalue`) rode along for one PR as
//! `#[deprecated]` shims and are gone; this module is the only way in.

pub mod plan;
pub mod policy;

pub use plan::{Algorithm, ModelOverrides, ModelSpec, PlanError, PolicySpec, RunMode, RunPlan};
pub use policy::{BatchContext, BatchOutput, ExecutionPolicy, Halt, Serial, Threaded};

use std::time::{Duration, Instant};

use mcs_rng::Lcg63;

use crate::eigenvalue::{resample_source, shannon_entropy, BatchResult, EigenvalueResult};
use crate::event::EventStats;
use crate::fixed_source::{FixedSourceResult, FixedSourceSettings, SourceDef};
use crate::history::{batch_streams, TransportOutcome};
use crate::mesh::{MeshSpec, MeshStats, MeshTally};
use crate::particle::{Site, SourceSite};
use crate::problem::Problem;
use crate::spectrum::SpectrumTally;
use crate::statepoint::Statepoint;
use crate::tally::Tallies;

/// A borrowed view of one completed batch, delivered through
/// [`BatchObserver::on_batch`] the moment the engine has folded it into
/// the run state — before the next batch starts transporting.
#[derive(Debug, Clone, Copy)]
pub struct BatchProgress<'a> {
    /// The batch record just completed (k estimates, entropy, timing).
    pub batch: &'a BatchResult,
    /// Batches completed over the *whole* run so far; on a resumed run
    /// this counts the replayed prefix too.
    pub completed: usize,
    /// Total batches the plan will run.
    pub total: usize,
}

/// Observe engine progress without owning engine state.
///
/// This is the one progress seam of the batch loop: events borrow the
/// loop's own records (no per-event allocation) and are emitted after
/// the policy returns, so serial, threaded, and distributed runs all
/// stream the identical sequence. The CLI's live batch printout, the
/// serve crate's per-subscriber progress streams, and checkpoint sinks
/// all hang off this trait instead of re-deriving per-batch bookkeeping
/// from the finished report.
pub trait BatchObserver {
    /// One batch completed and was folded into the run state.
    fn on_batch(&mut self, _progress: BatchProgress<'_>) {}
    /// A periodic statepoint was emitted (plan's `checkpoint_every`).
    fn on_checkpoint(&mut self, _statepoint: &Statepoint) {}
}

/// The do-nothing observer every non-streaming caller uses.
pub struct NoProgress;

impl BatchObserver for NoProgress {}

/// Everything an eigenvalue engine run produced.
#[derive(Debug)]
pub struct RunReport {
    /// Track-length k of every completed batch of the whole run,
    /// including batches replayed from a checkpoint.
    pub k_history: Vec<f64>,
    /// Periodic statepoints (when the plan sets `checkpoint_every`).
    pub checkpoints: Vec<Statepoint>,
    /// Statepoint after the last completed batch: resume from here with
    /// [`resume_with_problem`] for a bit-identical continuation.
    pub statepoint: Statepoint,
    /// Spectrum tally from the dedicated post-run history pass (when the
    /// plan sets `spectrum`).
    pub spectrum: Option<SpectrumTally>,
    /// Did the run reach its final batch? `false` after a policy
    /// [`Halt`] (e.g. every simulated rank died).
    pub completed: bool,
    /// The halt reason, when `completed` is false.
    pub halt_reason: Option<String>,
    /// The assembled eigenvalue result (batch records for the batches
    /// *this* call executed — on resume, earlier batches live in
    /// `k_history` — k statistics over active batches, merged tallies,
    /// mesh, event stats, total wall time).
    pub result: EigenvalueResult,
}

/// Output of [`run`] / [`run_with_problem`].
#[derive(Debug)]
pub enum RunOutput {
    /// Eigenvalue mode: the full report.
    Eigenvalue(Box<RunReport>),
    /// Fixed-source mode: the chain-following result.
    FixedSource(Box<FixedSourceResult>),
}

impl RunOutput {
    /// Unwrap the eigenvalue report (panics on a fixed-source run).
    pub fn into_eigenvalue(self) -> RunReport {
        match self {
            RunOutput::Eigenvalue(r) => *r,
            RunOutput::FixedSource(_) => panic!("run produced a fixed-source result"),
        }
    }
}

/// Build the problem described by `plan` and execute it under `policy`.
pub fn run(plan: &RunPlan, policy: &mut dyn ExecutionPolicy) -> RunOutput {
    let problem = plan.build_problem();
    run_with_problem(&problem, plan, policy)
}

/// Execute `plan` against an already-built problem (the problem must be
/// consistent with the plan's `survival`/`seed` fields — use
/// [`RunPlan::build_problem`] or pass your own).
pub fn run_with_problem(
    problem: &Problem,
    plan: &RunPlan,
    policy: &mut dyn ExecutionPolicy,
) -> RunOutput {
    run_with_problem_observed(problem, plan, policy, &mut NoProgress)
}

/// [`run_with_problem`] with a progress observer: `observer` sees every
/// completed batch (and checkpoint) as it happens. Fixed-source runs
/// have no batch structure and emit no events.
pub fn run_with_problem_observed(
    problem: &Problem,
    plan: &RunPlan,
    policy: &mut dyn ExecutionPolicy,
    observer: &mut dyn BatchObserver,
) -> RunOutput {
    match plan.mode {
        RunMode::Eigenvalue => {
            let report = run_batches_observed(
                problem,
                plan,
                policy,
                0,
                plan.total_batches(),
                None,
                observer,
            );
            RunOutput::Eigenvalue(Box::new(report))
        }
        RunMode::FixedSource => {
            let settings = FixedSourceSettings {
                particles: plan.particles,
                source: SourceDef::FuelWatt,
                max_chain: plan.max_chain,
            };
            policy.begin(plan, 0);
            match policy.run_fixed_source(problem, &settings) {
                Ok(r) => RunOutput::FixedSource(Box::new(r)),
                Err(h) => panic!("fixed-source run halted: {}", h.reason),
            }
        }
    }
}

/// Resume an eigenvalue run from a statepoint, executing the remaining
/// batches of the plan bit-identically to an uninterrupted run.
pub fn resume_with_problem(
    problem: &Problem,
    plan: &RunPlan,
    policy: &mut dyn ExecutionPolicy,
    checkpoint: &Statepoint,
) -> RunReport {
    resume_with_problem_observed(problem, plan, policy, checkpoint, &mut NoProgress)
}

/// [`resume_with_problem`] with a progress observer; only the batches
/// this call executes emit events (the replayed prefix is state, not
/// work), but `completed`/`total` count the whole run.
pub fn resume_with_problem_observed(
    problem: &Problem,
    plan: &RunPlan,
    policy: &mut dyn ExecutionPolicy,
    checkpoint: &Statepoint,
    observer: &mut dyn BatchObserver,
) -> RunReport {
    assert_eq!(
        checkpoint.seed, problem.seed,
        "statepoint belongs to a different problem seed"
    );
    run_batches_observed(
        problem,
        plan,
        policy,
        checkpoint.completed_batches,
        plan.total_batches(),
        Some(checkpoint),
        observer,
    )
}

/// The engine's batch loop: run batches `[start_batch, stop_batch)` of
/// `plan` under `policy`, seeded from the initial source (cold start,
/// `checkpoint = None`, requires `start_batch == 0`) or a statepoint.
///
/// This is the single owner of the between-batch state machine:
/// per-batch streams from the global particle index, active-only mesh
/// tallies, Shannon entropy, k statistics, fission-bank resampling with
/// the canonical seed schedule, and checkpoint emission. Every legacy
/// driver is a special case of this loop.
pub fn run_batches(
    problem: &Problem,
    plan: &RunPlan,
    policy: &mut dyn ExecutionPolicy,
    start_batch: usize,
    stop_batch: usize,
    checkpoint: Option<&Statepoint>,
) -> RunReport {
    run_batches_observed(
        problem,
        plan,
        policy,
        start_batch,
        stop_batch,
        checkpoint,
        &mut NoProgress,
    )
}

/// [`run_batches`] with a [`BatchObserver`]: the loop body is identical
/// (the observer cannot perturb the run — it only borrows the records
/// the loop produces anyway), so observed and unobserved runs of the
/// same plan are bit-identical by construction.
#[allow(clippy::too_many_arguments)]
pub fn run_batches_observed(
    problem: &Problem,
    plan: &RunPlan,
    policy: &mut dyn ExecutionPolicy,
    start_batch: usize,
    stop_batch: usize,
    checkpoint: Option<&Statepoint>,
    observer: &mut dyn BatchObserver,
) -> RunReport {
    let n = plan.particles;
    let total_batches = plan.total_batches();
    assert!(stop_batch <= total_batches, "stop batch beyond the plan");
    let mesh_spec = plan
        .mesh_tally
        .map(|(nx, ny, nz)| MeshSpec::covering(problem.geometry.bounds, nx, ny, nz));

    let (mut source, mut k_history, mut tallies) = match checkpoint {
        Some(c) => {
            assert_eq!(c.completed_batches, start_batch, "checkpoint/plan mismatch");
            (c.source.clone(), c.k_history.clone(), c.tallies)
        }
        None => {
            assert_eq!(start_batch, 0, "cold starts begin at batch 0");
            (
                problem.sample_initial_source(n, 0),
                Vec::new(),
                Tallies::default(),
            )
        }
    };

    policy.begin(plan, start_batch);

    let mut batches = Vec::with_capacity(stop_batch.saturating_sub(start_batch));
    let mut checkpoints = Vec::new();
    let mut mesh_total = mesh_spec.map(MeshTally::new);
    let mut mesh_stats = mesh_spec.map(MeshStats::new);
    let mut event_stats: Option<EventStats> = None;
    let mut completed = true;
    let mut halt_reason = None;
    let mut completed_batches = start_batch;
    let t_start = Instant::now();

    for b in start_batch..stop_batch {
        let active = b >= plan.inactive;
        let streams = batch_streams(problem.seed, b as u64, n);
        // User-defined tallies only run in active batches.
        let batch_mesh_spec = if active { mesh_spec } else { None };
        let ctx = BatchContext {
            index: b,
            algorithm: plan.algorithm,
            sources: &source,
            streams: &streams,
            mesh: batch_mesh_spec,
            spectrum: false,
            profiler: None,
        };
        let t0 = Instant::now();
        let out = match policy.transport_batch(problem, &ctx) {
            Ok(out) => out,
            Err(h) => {
                completed = false;
                halt_reason = Some(h.reason);
                break;
            }
        };
        let wall = t0.elapsed();
        if let Some(s) = &out.event_stats {
            match event_stats.as_mut() {
                Some(total) => total.merge(s),
                None => event_stats = Some(*s),
            }
        }
        if let (Some(total), Some(bm)) = (mesh_total.as_mut(), out.mesh.as_ref()) {
            total.merge(bm);
        }
        if let (Some(stats), Some(bm)) = (mesh_stats.as_mut(), out.mesh.as_ref()) {
            stats.observe(bm);
        }

        let outcome = out.outcome;
        let entropy = shannon_entropy(&outcome.sites, problem.geometry.bounds, plan.entropy_mesh);
        let k_track = outcome.tallies.k_track_estimate();
        batches.push(BatchResult {
            index: b,
            active,
            k_track,
            k_collision: outcome.tallies.k_collision_estimate(),
            k_absorption: outcome.tallies.k_absorption_estimate(),
            entropy,
            wall,
            rate: n as f64 / wall.as_secs_f64().max(1e-12),
        });
        k_history.push(k_track);
        if active {
            tallies.merge(&outcome.tallies);
        }
        source = resample_source(&outcome.sites, n, problem.seed ^ (0xbeef << 8) ^ b as u64);
        completed_batches = b + 1;
        observer.on_batch(BatchProgress {
            batch: batches.last().expect("batch just pushed"),
            completed: completed_batches,
            total: total_batches,
        });

        if let Some(every) = plan.checkpoint_every {
            if every > 0 && (b + 1) % every == 0 {
                checkpoints.push(Statepoint {
                    seed: problem.seed,
                    completed_batches: b + 1,
                    source: source.clone(),
                    k_history: k_history.clone(),
                    tallies,
                });
                observer.on_checkpoint(checkpoints.last().expect("checkpoint just pushed"));
            }
        }
    }

    // Dedicated spectrum pass (history algorithm over the initial
    // source, batch-0 streams) — the measurement the CLI's --spectrum
    // flag has always made, now owned by the engine.
    let mut spectrum = None;
    if plan.spectrum && completed && stop_batch == total_batches {
        let sources = problem.sample_initial_source(n, 0);
        let streams = batch_streams(problem.seed, 0, n);
        let ctx = BatchContext {
            index: 0,
            algorithm: Algorithm::History,
            sources: &sources,
            streams: &streams,
            mesh: None,
            spectrum: true,
            profiler: None,
        };
        spectrum = policy
            .transport_batch(problem, &ctx)
            .ok()
            .and_then(|o| o.spectrum);
    }

    let statepoint = Statepoint {
        seed: problem.seed,
        completed_batches,
        source,
        k_history: k_history.clone(),
        tallies,
    };
    let result = assemble_result(
        batches,
        &k_history,
        plan.inactive,
        tallies,
        mesh_total,
        mesh_stats,
        event_stats,
        t_start.elapsed(),
    );
    RunReport {
        k_history,
        checkpoints,
        statepoint,
        spectrum,
        completed,
        halt_reason,
        result,
    }
}

/// Assemble the legacy [`EigenvalueResult`] view. The k statistics are
/// computed over the active entries of the *full* `k_history`, summed in
/// batch order, so a resumed run's mean and standard error match the
/// uninterrupted run's bit for bit.
#[allow(clippy::too_many_arguments)]
fn assemble_result(
    batches: Vec<BatchResult>,
    k_history: &[f64],
    inactive: usize,
    tallies: Tallies,
    mesh: Option<MeshTally>,
    mesh_stats: Option<MeshStats>,
    event_stats: Option<EventStats>,
    total_time: Duration,
) -> EigenvalueResult {
    let active_ks: Vec<f64> = k_history
        .iter()
        .enumerate()
        .filter(|(i, _)| *i >= inactive)
        .map(|(_, &k)| k)
        .collect();
    let k_mean = if active_ks.is_empty() {
        0.0
    } else {
        active_ks.iter().sum::<f64>() / active_ks.len() as f64
    };
    let k_std = if active_ks.len() > 1 {
        let var = active_ks
            .iter()
            .map(|k| (k - k_mean) * (k - k_mean))
            .sum::<f64>()
            / (active_ks.len() - 1) as f64;
        (var / active_ks.len() as f64).sqrt()
    } else {
        0.0
    };
    EigenvalueResult {
        batches,
        k_mean,
        k_std,
        tallies,
        mesh,
        mesh_stats,
        event_stats,
        total_time,
    }
}

/// Options for a one-off [`transport_batch`] call (the building block
/// the bench harnesses use to time a single bank transport).
pub struct BatchRequest<'a> {
    /// Transport algorithm.
    pub algorithm: Algorithm,
    /// Optional mesh tally.
    pub mesh: Option<MeshSpec>,
    /// Score a flux spectrum (history only).
    pub spectrum: bool,
    /// External profiler: runs the history chunks sequentially (fig. 4);
    /// changes no result bit.
    pub profiler: Option<&'a mcs_prof::ThreadProfiler>,
}

impl Default for BatchRequest<'static> {
    fn default() -> Self {
        BatchRequest {
            algorithm: Algorithm::History,
            mesh: None,
            spectrum: false,
            profiler: None,
        }
    }
}

/// Transport one batch outside the batch loop: `sources[i]` paired with
/// `streams[i]`, under `policy`. Panics if the policy halts.
pub fn transport_batch(
    problem: &Problem,
    sources: &[SourceSite],
    streams: &[Lcg63],
    req: &BatchRequest<'_>,
    policy: &mut dyn ExecutionPolicy,
) -> BatchOutput {
    let ctx = BatchContext {
        index: 0,
        algorithm: req.algorithm,
        sources,
        streams,
        mesh: req.mesh,
        spectrum: req.spectrum,
        profiler: req.profiler,
    };
    match policy.transport_batch(problem, &ctx) {
        Ok(out) => out,
        Err(h) => panic!("transport_batch halted: {}", h.reason),
    }
}

/// One batch transported into CHUNK=256 keyed partials — the canonical
/// summation tree exposed as data. `Serial`/`Threaded` [`fold`] it
/// straight away; the distributed policy keys each rank's chunks by
/// global start index and folds them after its all-reduce.
///
/// [`fold`]: ChunkedBatch::fold
pub struct ChunkedBatch {
    /// Per-chunk tallies, chunk `k` covering source indices
    /// `[k*CHUNK, (k+1)*CHUNK)`. Summing float fields chunk-by-chunk in
    /// index order reproduces the serial reduction bit for bit. (On the
    /// event path, all associative integer tallies ride in chunk 0.)
    pub chunk_tallies: Vec<Tallies>,
    /// Banked fission sites, sorted by (parent, seq); parents are local
    /// to this call's source slice.
    pub sites: Vec<Site>,
    /// Mesh tally merged in chunk order, when the context requested one.
    pub mesh: Option<MeshTally>,
    /// Spectrum tally merged in chunk order, when the context requested
    /// one (history algorithm only).
    pub spectrum: Option<SpectrumTally>,
    /// Event-pipeline statistics (event algorithm only).
    pub event_stats: Option<EventStats>,
}

impl ChunkedBatch {
    /// The one canonical fold: the chunk tallies merged in chunk order
    /// ([`Tallies::fold`]), everything else passed through.
    pub fn fold(self) -> BatchOutput {
        BatchOutput {
            outcome: TransportOutcome {
                tallies: Tallies::fold(&self.chunk_tallies),
                sites: self.sites,
            },
            mesh: self.mesh,
            spectrum: self.spectrum,
            event_stats: self.event_stats,
        }
    }
}

/// The one batch dispatch: transport `ctx.sources` with `ctx.streams`
/// on the current thread pool under `ctx.algorithm`, returning the
/// per-chunk partials. `Serial`, `Threaded` and every rank of the
/// distributed policy reach the transport kernels through here.
pub fn transport_chunks(problem: &Problem, ctx: &BatchContext<'_>) -> ChunkedBatch {
    match ctx.algorithm {
        Algorithm::History => crate::history::run_history_batch(
            problem,
            ctx.sources,
            ctx.streams,
            ctx.mesh,
            ctx.spectrum,
            ctx.profiler,
        ),
        Algorithm::EventBanking => {
            assert!(
                !ctx.spectrum,
                "the event pipeline does not score spectra; use Algorithm::History"
            );
            assert!(
                ctx.profiler.is_none(),
                "external profiling is a history-path feature (fig. 4); \
                 the event pipeline self-times its stages"
            );
            crate::event::run_event_batch(problem, ctx.sources, ctx.streams, ctx.mesh)
        }
    }
}

/// Instantiate the policy a [`PolicySpec`] describes. `mcs_core` knows
/// `Serial` and `Threaded`; map `Distributed` to
/// `mcs_cluster::DistributedPolicy` at a layer that links the cluster
/// crate (the CLI does).
pub fn policy_for(spec: PolicySpec) -> Box<dyn ExecutionPolicy> {
    match spec {
        PolicySpec::Serial => Box::new(Serial::new()),
        PolicySpec::Threaded { threads } => Box::new(Threaded::new(threads)),
        PolicySpec::Distributed { .. } => panic!(
            "mcs_core cannot instantiate a distributed policy; \
             build an mcs_cluster::DistributedPolicy from the spec"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::CHUNK;

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn float_bits(t: &Tallies) -> [u64; 4] {
        [t.track_length, t.k_track, t.k_collision, t.k_absorption].map(f64::to_bits)
    }

    #[test]
    fn chunked_partials_fold_to_every_pool_size_bitwise() {
        let problem = Problem::test_small();
        let n = 600; // 3 chunks: 256 + 256 + 88
        let sources = problem.sample_initial_source(n, 0);
        let streams = batch_streams(problem.seed, 0, n);
        for algorithm in [Algorithm::History, Algorithm::EventBanking] {
            let ctx = BatchContext {
                index: 0,
                algorithm,
                sources: &sources,
                streams: &streams,
                mesh: Some(MeshSpec::covering(problem.geometry.bounds, 4, 4, 2)),
                spectrum: algorithm == Algorithm::History,
                profiler: None,
            };
            let chunked = transport_chunks(&problem, &ctx);
            let chunks = &chunked.chunk_tallies;
            assert_eq!(chunks.len(), n.div_ceil(CHUNK));
            match algorithm {
                // History chunks are whole per-chunk partials ...
                Algorithm::History => assert_eq!(chunks[2].n_particles, 88),
                // ... while event integer totals ride in chunk 0 only.
                Algorithm::EventBanking => assert_eq!(chunks[1].segments, 0),
            }
            let folded = chunked.fold();
            for threads in [1, 2, 4] {
                let out = Threaded::new(threads)
                    .transport_batch(&problem, &ctx)
                    .expect("thread-local policies never halt");
                let (a, b) = (&folded.outcome, &out.outcome);
                assert_eq!(a.tallies, b.tallies, "{algorithm:?} t{threads}");
                assert_eq!(float_bits(&a.tallies), float_bits(&b.tallies));
                assert_eq!(a.sites, b.sites);
                let mesh_bins = |o: &BatchOutput| bits(&o.mesh.as_ref().expect("mesh").bins);
                assert_eq!(mesh_bins(&folded), mesh_bins(&out));
                let spectrum_bins = |o: &BatchOutput| o.spectrum.as_ref().map(|s| bits(&s.bins));
                assert_eq!(spectrum_bins(&folded), spectrum_bins(&out));
                assert_eq!(folded.spectrum.is_some(), algorithm == Algorithm::History);
            }
        }
    }
}
