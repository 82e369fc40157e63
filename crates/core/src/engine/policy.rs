//! The execution-policy layer.
//!
//! An [`ExecutionPolicy`] decides *where and how* a batch of particles is
//! transported — serially, on a thread pool, or across simulated MPI
//! ranks — while the engine's batch loop ([`crate::engine::run`]) owns
//! *what* happens between batches (resampling, entropy, tally folds,
//! checkpoints). Every policy must reproduce the canonical CHUNK=256
//! tally-fold bit pattern, so k-eff and the float tallies are bitwise
//! identical across policies.

use mcs_prof::ThreadProfiler;
use mcs_rng::Lcg63;

use crate::engine::plan::{Algorithm, RunPlan};
use crate::engine::transport_chunks;
use crate::event::EventStats;
use crate::fixed_source::{FixedSourceResult, FixedSourceSettings};
use crate::history::TransportOutcome;
use crate::mesh::{MeshSpec, MeshTally};
use crate::particle::SourceSite;
use crate::problem::Problem;
use crate::spectrum::SpectrumTally;

/// A policy-level stop request (e.g. every simulated rank has died).
///
/// The engine records the run as incomplete and stops cleanly; the
/// already-completed batches and checkpoints remain valid.
#[derive(Debug, Clone)]
pub struct Halt {
    /// Human-readable reason the run stopped.
    pub reason: String,
}

/// Everything a policy needs to transport one batch.
///
/// Borrowed views into the engine's state: the policy must consume
/// `sources[i]` with `streams[i]` (the engine derives streams from the
/// global particle index, so slicing by offset reproduces any
/// rank/thread decomposition bit-identically).
pub struct BatchContext<'a> {
    /// Global batch index (0-based, inactive batches included).
    pub index: usize,
    /// Transport algorithm for this batch.
    pub algorithm: Algorithm,
    /// Source sites, one per particle.
    pub sources: &'a [SourceSite],
    /// Per-particle RNG streams, parallel to `sources`.
    pub streams: &'a [Lcg63],
    /// Mesh tally to score this batch (engine passes `Some` only on
    /// active batches when the plan requests a mesh).
    pub mesh: Option<MeshSpec>,
    /// Score a flux spectrum this batch (history algorithm only).
    pub spectrum: bool,
    /// External profiler: runs the history chunks sequentially on the
    /// calling thread, as fig. 4 measures them — same result bits as an
    /// unprofiled batch (history algorithm only).
    pub profiler: Option<&'a ThreadProfiler>,
}

/// What a policy returns for one transported batch.
pub struct BatchOutput {
    /// Global tallies + banked fission sites in canonical order.
    pub outcome: TransportOutcome,
    /// Mesh tally, when the context requested one.
    pub mesh: Option<MeshTally>,
    /// Spectrum tally, when the context requested one.
    pub spectrum: Option<SpectrumTally>,
    /// Event-pipeline stage statistics (event algorithm only).
    pub event_stats: Option<EventStats>,
}

/// Where and how batches execute.
///
/// Implementations: [`Serial`], [`Threaded`] (both here), and
/// `DistributedPolicy` in `mcs-cluster`. The determinism contract every
/// implementation must honor: per-particle tallies folded per CHUNK=256
/// in index order, chunks folded in chunk order — the exact summation
/// tree of the serial driver. Reaching the kernels through
/// [`transport_chunks`] and folding its chunks in chunk order
/// ([`crate::tally::Tallies::fold`]) honors it by construction.
pub trait ExecutionPolicy {
    /// Human-readable policy description (for `--dry-run` and reports).
    fn describe(&self) -> String;

    /// Called once before the first batch. `start_batch` is non-zero
    /// when resuming from a statepoint.
    fn begin(&mut self, _plan: &RunPlan, _start_batch: usize) {}

    /// Transport one batch. `Err(Halt)` stops the run cleanly (the
    /// engine marks it incomplete).
    fn transport_batch(
        &mut self,
        problem: &Problem,
        ctx: &BatchContext<'_>,
    ) -> Result<BatchOutput, Halt>;

    /// Run a fixed-source simulation under this policy. Defaults to a
    /// halt: only thread-local policies support chain-following runs.
    fn run_fixed_source(
        &mut self,
        _problem: &Problem,
        _settings: &FixedSourceSettings,
    ) -> Result<FixedSourceResult, Halt> {
        Err(Halt {
            reason: format!("{} does not support fixed-source mode", self.describe()),
        })
    }
}

/// Execute batches on a rayon thread pool.
///
/// [`Threaded::ambient`] uses whatever pool is already current (the
/// legacy drivers' behavior); [`Threaded::new`] builds a dedicated pool
/// with a fixed worker count. Thread count never changes results: the
/// chunk-fold contract makes every pool size bit-identical.
pub struct Threaded {
    pool: Option<rayon::ThreadPool>,
    threads: Option<usize>,
}

impl Threaded {
    /// Use the ambient (global or installed) rayon pool.
    pub fn ambient() -> Self {
        Threaded {
            pool: None,
            threads: None,
        }
    }

    /// Build a dedicated pool with `threads` workers (0 = ambient).
    pub fn new(threads: usize) -> Self {
        if threads == 0 {
            return Self::ambient();
        }
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build engine thread pool");
        Threaded {
            pool: Some(pool),
            threads: Some(threads),
        }
    }

    fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.pool {
            Some(pool) => pool.install(f),
            None => f(),
        }
    }
}

impl ExecutionPolicy for Threaded {
    fn describe(&self) -> String {
        match self.threads {
            Some(n) => format!("threaded ({n} threads)"),
            None => "threaded (ambient pool)".to_string(),
        }
    }

    fn transport_batch(
        &mut self,
        problem: &Problem,
        ctx: &BatchContext<'_>,
    ) -> Result<BatchOutput, Halt> {
        Ok(self.install(|| transport_chunks(problem, ctx).fold()))
    }

    fn run_fixed_source(
        &mut self,
        problem: &Problem,
        settings: &FixedSourceSettings,
    ) -> Result<FixedSourceResult, Halt> {
        Ok(self.install(|| crate::fixed_source::run_fixed_source_impl(problem, settings)))
    }
}

/// Execute batches single-threaded (a dedicated 1-worker pool).
pub struct Serial {
    inner: Threaded,
}

impl Serial {
    /// Build the serial policy.
    pub fn new() -> Self {
        Serial {
            inner: Threaded::new(1),
        }
    }
}

impl Default for Serial {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecutionPolicy for Serial {
    fn describe(&self) -> String {
        "serial (1 thread)".to_string()
    }

    fn transport_batch(
        &mut self,
        problem: &Problem,
        ctx: &BatchContext<'_>,
    ) -> Result<BatchOutput, Halt> {
        self.inner.transport_batch(problem, ctx)
    }

    fn run_fixed_source(
        &mut self,
        problem: &Problem,
        settings: &FixedSourceSettings,
    ) -> Result<FixedSourceResult, Halt> {
        self.inner.run_fixed_source(problem, settings)
    }
}
