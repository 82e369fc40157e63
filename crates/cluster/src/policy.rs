//! The distributed [`ExecutionPolicy`]: simulated MPI ranks behind the
//! unified engine.
//!
//! One batch at a time, the engine hands this policy the full global
//! source bank and stream table; the policy partitions them into
//! contiguous, CHUNK-aligned per-rank slices, transports each slice on
//! its own OS thread, and runs the real collectives from [`crate::mpi`]
//! — fission-bank all-gather, chunk-keyed tally all-reduce, and a status
//! barrier — over channels. Because the all-reduce folds per-chunk
//! partials in global-start-index order, the distributed float reduction
//! rebuilds the serial summation tree **bitwise** for every
//! driver-chosen partition, so `Distributed == Threaded == Serial` to
//! the last bit for both transport algorithms.
//!
//! Everything *between* batches — resampling, entropy, k statistics,
//! checkpoints — is owned by the engine, exactly as for the thread-local
//! policies. What stays here is the distributed machinery itself: rank
//! liveness under a deterministic [`FaultPlan`], straggler-aware
//! adaptive rebalancing (§V's runtime α adaptation), and the per-rank
//! timing record the fault-tolerance reports are built from.

use std::time::Instant;

use mcs_core::balance::{chunk_aligned_split, redistribute_dead, split_among_alive};
use mcs_core::engine::{
    transport_chunks, Algorithm, BatchContext, BatchOutput, ExecutionPolicy, Halt, RunMode, RunPlan,
};
use mcs_core::event::EventStats;
use mcs_core::history::{TransportOutcome, CHUNK};
use mcs_core::particle::Site;
use mcs_core::problem::Problem;
use mcs_core::tally::Tallies;
use mcs_device::catalog::DeviceSpec;
use mcs_faults::{FaultLog, FaultPlan, FaultRecord, FaultRecordKind};

use crate::mpi::Comm;

/// What one simulated rank hands back from a batch: the replicated
/// global fission sites and tallies, the all-gathered rank times, and
/// its local event-pipeline counters.
type RankOutput = (Vec<Site>, Tallies, Vec<f64>, Option<EventStats>);

/// Per-batch decomposition record: who computed what, how fast, and who
/// was alive; record `i` belongs to the engine's batch record `i`.
#[derive(Debug, Clone)]
pub struct RankBatchDetail {
    /// Batch index.
    pub index: usize,
    /// Per-rank particle assignment used this batch.
    pub assignments: Vec<u64>,
    /// Per-rank reported wall times (seconds; 0 for dead ranks;
    /// straggler-inflated — this is what the balancer sees).
    pub rank_times: Vec<f64>,
    /// Which ranks participated in this batch.
    pub alive: Vec<bool>,
}

/// Execute batches across simulated MPI ranks (one OS thread per rank,
/// channel-based collectives).
pub struct DistributedPolicy {
    n_ranks: usize,
    initial_assignments: Option<Vec<u64>>,
    // Per-rank device assignment: modeled rates weight the initial
    // split; ids label `describe`.
    device_rates: Option<Vec<f64>>,
    device_ids: Vec<&'static str>,
    adaptive: bool,
    fault_plan: FaultPlan,
    // Per-run state, reset by `begin`.
    assignments: Vec<u64>,
    alive: Vec<bool>,
    start_batch: usize,
    total_batches: usize,
    last_rank_times: Option<Vec<f64>>,
    fault_log: FaultLog,
    details: Vec<RankBatchDetail>,
}

impl DistributedPolicy {
    /// A healthy, evenly-split `n_ranks`-rank policy.
    pub fn new(n_ranks: usize) -> Self {
        assert!(n_ranks > 0, "a distributed run needs at least one rank");
        Self {
            n_ranks,
            initial_assignments: None,
            device_rates: None,
            device_ids: Vec::new(),
            adaptive: false,
            fault_plan: FaultPlan::new(0),
            assignments: Vec::new(),
            alive: Vec::new(),
            start_batch: 0,
            total_batches: 0,
            last_rank_times: None,
            fault_log: FaultLog::new(),
            details: Vec::new(),
        }
    }

    /// Fix the initial per-rank particle assignment (must sum to the
    /// plan's batch size); `None` keeps the chunk-aligned even split.
    pub fn with_assignments(mut self, assignments: Option<Vec<u64>>) -> Self {
        self.initial_assignments = assignments;
        self
    }

    /// Assign one device-catalog entry per rank (heterogeneous symmetric
    /// mode). The initial particle split is α-balanced proportionally to
    /// each device's modeled native rate in `kind` — and stays
    /// CHUNK-aligned, so the chunk-keyed all-reduce keeps the run
    /// `to_bits`-identical to serial regardless of the weights.
    ///
    /// # Panics
    /// If `devices.len()` differs from the policy's rank count.
    pub fn with_devices(mut self, devices: &[DeviceSpec], kind: Algorithm) -> Self {
        assert_eq!(
            devices.len(),
            self.n_ranks,
            "need exactly one device per rank"
        );
        self.device_rates = Some(
            devices
                .iter()
                .map(|d| d.modeled_native_rate(kind))
                .collect(),
        );
        self.device_ids = devices.iter().map(|d| d.id).collect();
        self
    }

    /// Rebalance between batches from measured rank times (chunk-aligned,
    /// so the bitwise reduction is preserved).
    pub fn with_adaptive(mut self, adaptive: bool) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Inject a deterministic fault schedule (deaths, stragglers).
    pub fn with_fault_plan(mut self, plan: Option<FaultPlan>) -> Self {
        self.fault_plan = plan.unwrap_or_else(|| FaultPlan::new(0));
        self
    }

    /// Can the distributed policy run `plan`? It transports eigenvalue
    /// batches and nothing else, so `Err` names the first thing `plan`
    /// asks for that it cannot run: a mesh tally, a spectrum, or
    /// fixed-source mode. Callers refuse such a plan up front; the policy
    /// itself halts on a mesh or spectrum batch.
    pub fn check_plan(plan: &RunPlan) -> Result<(), &'static str> {
        if plan.mesh_tally.is_some() {
            Err("a mesh tally")
        } else if plan.spectrum {
            Err("a spectrum")
        } else if plan.mode == RunMode::FixedSource {
            Err("fixed-source mode")
        } else {
            Ok(())
        }
    }

    /// Number of ranks this policy simulates.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Per-batch decomposition records accumulated so far.
    pub fn details(&self) -> &[RankBatchDetail] {
        &self.details
    }

    /// Faults observed so far, in event order (identical to the legacy
    /// driver's log: a death is recorded at the first batch the rank
    /// misses, stragglers at the batch they slowed).
    pub fn fault_log(&self) -> &FaultLog {
        &self.fault_log
    }

    /// Take the fault log, leaving the policy's copy empty.
    pub fn take_fault_log(&mut self) -> FaultLog {
        std::mem::take(&mut self.fault_log)
    }

    /// Process the batch-`b` boundary: apply deaths scheduled for `b`,
    /// then re-partition (adaptive from last batch's measured times, or
    /// minimally after a death).
    fn rebalance_for(&mut self, b: usize, n_total: usize) {
        let mut any_death = false;
        for r in 0..self.n_ranks {
            if self.alive[r]
                && self
                    .fault_plan
                    .death_batch(r)
                    // Deaths at or before the resume point belonged to the
                    // killed run; past-the-end deaths never fire.
                    .filter(|&d| d > self.start_batch && d <= self.total_batches)
                    == Some(b)
            {
                self.alive[r] = false;
                any_death = true;
                self.fault_log.push(FaultRecord {
                    batch: b,
                    rank: r,
                    kind: FaultRecordKind::Death,
                });
            }
        }
        if self.alive.iter().all(|&a| !a) {
            return; // nothing to rebalance; the caller halts the run
        }
        let Some(last_times) = self.last_rank_times.as_ref() else {
            return; // first batch of the run: keep the initial split
        };
        if self.adaptive {
            let rates: Vec<f64> = (0..self.n_ranks)
                .map(|r| {
                    if self.alive[r] && last_times[r] > 0.0 {
                        self.assignments[r] as f64 / last_times[r]
                    } else {
                        0.0
                    }
                })
                .collect();
            self.assignments = split_among_alive(n_total as u64, &rates, &self.alive, CHUNK as u64);
        } else if any_death {
            self.assignments = redistribute_dead(&self.assignments, &self.alive, CHUNK as u64);
        }
    }
}

impl ExecutionPolicy for DistributedPolicy {
    fn describe(&self) -> String {
        if self.device_ids.is_empty() {
            format!("distributed ({} ranks)", self.n_ranks)
        } else {
            format!(
                "distributed ({} ranks: {})",
                self.n_ranks,
                self.device_ids.join(", ")
            )
        }
    }

    fn begin(&mut self, plan: &RunPlan, start_batch: usize) {
        self.assignments = match &self.initial_assignments {
            Some(a) => {
                assert_eq!(a.len(), self.n_ranks);
                assert_eq!(
                    a.iter().sum::<u64>() as usize,
                    plan.particles,
                    "assignments must sum to total_particles"
                );
                a.clone()
            }
            None => {
                // Per-device modeled rates α-balance the heterogeneous
                // split; a device-less policy keeps the even split.
                let weights = match &self.device_rates {
                    Some(rates) => rates.clone(),
                    None => vec![1.0; self.n_ranks],
                };
                chunk_aligned_split(plan.particles as u64, &weights, CHUNK as u64)
            }
        };
        self.alive = vec![true; self.n_ranks];
        self.start_batch = start_batch;
        self.total_batches = plan.total_batches();
        self.last_rank_times = None;
        self.fault_log = FaultLog::new();
        self.details = Vec::new();
    }

    fn transport_batch(
        &mut self,
        problem: &Problem,
        ctx: &BatchContext<'_>,
    ) -> Result<BatchOutput, Halt> {
        if ctx.spectrum || ctx.mesh.is_some() {
            return Err(Halt {
                reason: "the distributed policy scores neither spectra nor mesh tallies".into(),
            });
        }
        assert!(
            ctx.profiler.is_none(),
            "external profiling is a thread-local feature"
        );

        let b = ctx.index;
        self.rebalance_for(b, ctx.sources.len());
        let alive_ranks: Vec<usize> = (0..self.n_ranks).filter(|&r| self.alive[r]).collect();
        if alive_ranks.is_empty() {
            return Err(Halt {
                reason: "every rank has died".to_string(),
            });
        }

        let sources = ctx.sources;
        let streams = ctx.streams;
        let algorithm = ctx.algorithm;
        let assignments = &self.assignments;
        let fault_plan = &self.fault_plan;

        // One OS thread per live rank; the collectives move real messages
        // over channels. Every rank ends up holding identical global
        // sites/tallies — rank 0's copy is returned.
        let comms = Comm::world(alive_ranks.len());
        let outputs: Vec<RankOutput> = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .zip(&alive_ranks)
                .map(|(comm, &r)| {
                    scope.spawn(move || {
                        let offset: u64 = assignments[..r].iter().sum();
                        let count = assignments[r] as usize;
                        let lo = offset as usize;
                        let rank_ctx = BatchContext {
                            index: b,
                            algorithm,
                            sources: &sources[lo..lo + count],
                            streams: &streams[lo..lo + count],
                            mesh: None,
                            spectrum: false,
                            profiler: None,
                        };

                        let t0 = Instant::now();
                        let chunked = transport_chunks(problem, &rank_ctx);
                        let mut wall = t0.elapsed().as_secs_f64();
                        // Straggler injection inflates the *reported*
                        // time (what the adaptive balancer sees).
                        let slow = fault_plan.straggler_factor(r, b);
                        if slow > 1.0 {
                            wall *= slow;
                        }

                        // Globalize: chunk partials keyed by global
                        // start index, site parents re-tagged with
                        // global particle indices.
                        let chunk_tallies: Vec<(u64, Tallies)> = chunked
                            .chunk_tallies
                            .iter()
                            .enumerate()
                            .map(|(i, t)| (offset + (i * CHUNK) as u64, *t))
                            .collect();
                        let mut local_sites = chunked.sites;
                        for s in &mut local_sites {
                            s.parent += offset as u32;
                        }

                        let global_sites = comm.allgather_sites(local_sites);
                        let global_tallies = comm.allreduce_chunks(chunk_tallies);
                        let (times, _) = comm.allgather_status(wall, false);
                        (global_sites, global_tallies, times, chunked.event_stats)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank panicked"))
                .collect()
        });

        // Dense (alive-only) rank times back onto the full rank space.
        let mut rank_times = vec![0.0; self.n_ranks];
        for (j, &r) in alive_ranks.iter().enumerate() {
            rank_times[r] = outputs[0].2[j];
        }
        // Stragglers logged for every live rank, from the shared plan.
        for &r in &alive_ranks {
            let f = fault_plan.straggler_factor(r, b);
            if f > 1.0 {
                self.fault_log.push(FaultRecord {
                    batch: b,
                    rank: r,
                    kind: FaultRecordKind::Straggler(f),
                });
            }
        }
        // Event-pipeline counters merge across ranks in rank order.
        let mut event_stats: Option<EventStats> = None;
        for (_, _, _, es) in &outputs {
            if let Some(s) = es {
                match event_stats.as_mut() {
                    Some(total) => total.merge(s),
                    None => event_stats = Some(*s),
                }
            }
        }

        self.details.push(RankBatchDetail {
            index: b,
            assignments: self.assignments.clone(),
            rank_times: rank_times.clone(),
            alive: self.alive.clone(),
        });
        self.last_rank_times = Some(rank_times);

        let mut outputs = outputs;
        let (sites, tallies, _, _) = outputs.swap_remove(0);
        Ok(BatchOutput {
            outcome: TransportOutcome { tallies, sites },
            mesh: None,
            spectrum: None,
            event_stats,
        })
    }
}
