//! An *executed* message-passing runtime — the MPI substrate, for real.
//!
//! The paper's symmetric mode is "MPI for distributed memory
//! communication, and OpenMP for shared memory multi-threading" (§II-A).
//! Everywhere else in this crate the distributed machine is *modeled*;
//! this module actually runs the distributed algorithm: every rank is an
//! OS thread with its own transport state, and the collectives OpenMC's
//! eigenvalue loop needs — the fission-bank all-gather, the tally
//! all-reduce, and a per-batch status barrier — move real messages over
//! channels.
//!
//! The crucial design point is the same one that makes the single-process
//! engine reproducible: particle identity is *global*. Rank `r` owns a
//! contiguous slice of the batch's global particle indices, every
//! particle's RNG stream is derived from its global index, and banked
//! fission sites are re-tagged with global parent indices before the
//! all-gather. The tally all-reduce exchanges *per-chunk* partials keyed
//! by global start index and folds them in key order, so whenever rank
//! boundaries are `CHUNK`-aligned (every split this driver picks itself)
//! the distributed float reduction rebuilds the **serial summation tree
//! bitwise** — k-eff and all float tallies equal the serial driver's to
//! the last bit, for any rank count. User-supplied unaligned partitions
//! still agree to rounding (~1e-12).
//!
//! # Fault tolerance
//!
//! A seeded [`mcs_faults::FaultPlan`] can kill ranks, slow stragglers,
//! or both — deterministically, so any failure replays. Deaths are detected at the
//! per-batch status barrier: a rank scheduled to die at batch `d`
//! completes batch `d-1` in full, announces its departure in that batch's
//! status exchange, and exits; every survivor marks it dead and
//! redistributes its quota (chunk-aligned, proportional to prior
//! assignments) before batch `d` begins. No particles are lost, so the
//! degraded run's physics — and k-eff — is bit-identical to the healthy
//! run's. Periodic [`mcs_core::statepoint::Statepoint`] checkpoints
//! (identical on every rank) let a killed job resume via
//! `mcs_core::engine::resume_with_problem` under any policy —
//! distributed or serial — again bit-exactly.

use crossbeam::channel::{unbounded, Receiver, Sender};
use mcs_core::particle::{sort_sites, Site};
use mcs_core::tally::Tallies;

/// A message between ranks. The `u32` is the sender's rank.
enum Message {
    Sites(#[allow(dead_code)] u32, Vec<Site>),
    /// Per-chunk tally partials, keyed by global particle start index.
    Chunks(#[allow(dead_code)] u32, Vec<(u64, Tallies)>),
    /// End-of-batch status: measured wall time and whether the sender
    /// departs (dies) after this batch.
    Status(u32, f64, bool),
}

/// One rank's communicator endpoint.
pub(crate) struct Comm {
    rank: usize,
    size: usize,
    txs: Vec<Sender<Message>>,
    rx: Receiver<Message>,
    /// Liveness view, updated at status barriers; identical on every
    /// surviving rank.
    alive: Vec<bool>,
}

impl Comm {
    /// Build all endpoints for a `size`-rank job.
    pub(crate) fn world(size: usize) -> Vec<Comm> {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..size).map(|_| unbounded()).unzip();
        rxs.into_iter()
            .enumerate()
            .map(|(rank, rx)| Comm {
                rank,
                size,
                txs: txs.clone(),
                rx,
                alive: vec![true; size],
            })
            .collect()
    }

    /// One collective round: send `make()` to every live peer, then
    /// receive until each has answered. `take` consumes a message of this
    /// collective's kind (returning `None`) and hands any other kind back;
    /// those belong to a later collective and are requeued on this rank's
    /// own channel afterwards.
    fn exchange(
        &self,
        mut make: impl FnMut() -> Message,
        mut take: impl FnMut(Message) -> Option<Message>,
    ) {
        let peers: Vec<usize> = (0..self.size)
            .filter(|&r| r != self.rank && self.alive[r])
            .collect();
        for &r in &peers {
            self.txs[r].send(make()).expect("peer alive");
        }
        let (mut received, mut pending) = (0, Vec::new());
        while received < peers.len() {
            match take(self.rx.recv().expect("peer alive")) {
                None => received += 1,
                Some(other) => pending.push(other),
            }
        }
        for msg in pending {
            self.txs[self.rank].send(msg).unwrap();
        }
    }

    /// All-gather fission sites: returns the union in canonical (parent,
    /// seq) order, identical on every rank.
    pub(crate) fn allgather_sites(&self, local: Vec<Site>) -> Vec<Site> {
        let mut all = Vec::new();
        self.exchange(
            || Message::Sites(self.rank as u32, local.clone()),
            |msg| match msg {
                Message::Sites(_, sites) => {
                    all.extend(sites);
                    None
                }
                other => Some(other),
            },
        );
        all.extend(local);
        sort_sites(&mut all);
        all
    }

    /// All-reduce tallies from per-chunk partials: every rank receives
    /// every chunk and folds them in global-start-index order. With
    /// chunk-aligned rank boundaries this reproduces the serial chunk
    /// fold exactly (bitwise); unaligned boundaries still give a
    /// deterministic, partition-stable-to-rounding sum.
    pub(crate) fn allreduce_chunks(&self, local: Vec<(u64, Tallies)>) -> Tallies {
        let mut all = Vec::new();
        self.exchange(
            || Message::Chunks(self.rank as u32, local.clone()),
            |msg| match msg {
                Message::Chunks(_, chunks) => {
                    all.extend(chunks);
                    None
                }
                other => Some(other),
            },
        );
        all.extend(local);
        all.sort_by_key(|&(start, _)| start);
        Tallies::fold(all.iter().map(|(_, t)| t))
    }

    /// Status barrier: gather every live rank's batch wall time and
    /// departure flag. Dead ranks report (0.0, false).
    pub(crate) fn allgather_status(&self, wall: f64, departing: bool) -> (Vec<f64>, Vec<bool>) {
        let mut times = vec![0.0; self.size];
        let mut departs = vec![false; self.size];
        times[self.rank] = wall;
        departs[self.rank] = departing;
        self.exchange(
            || Message::Status(self.rank as u32, wall, departing),
            |msg| match msg {
                Message::Status(from, t, d) => {
                    times[from as usize] = t;
                    departs[from as usize] = d;
                    None
                }
                other => Some(other),
            },
        );
        (times, departs)
    }
}

#[cfg(test)]
mod tests {
    use crate::policy::DistributedPolicy;
    use mcs_core::engine::{self, RunPlan, RunReport};
    use mcs_core::problem::Problem;
    use mcs_faults::{FaultPlan, FaultRecordKind};
    use std::sync::Arc;

    fn problem() -> Arc<Problem> {
        Arc::new(Problem::test_small())
    }

    /// A history-algorithm plan on the (8,8,4) entropy mesh.
    fn plan(particles: usize, inactive: usize, active: usize) -> RunPlan {
        RunPlan {
            particles,
            inactive,
            active,
            entropy_mesh: (8, 8, 4),
            ..RunPlan::default()
        }
    }

    /// Run `plan` through the engine on `policy`'s simulated ranks.
    fn run(problem: &Problem, plan: &RunPlan, policy: &mut DistributedPolicy) -> RunReport {
        engine::run_with_problem(problem, plan, policy).into_eigenvalue()
    }

    /// [`run`] on a healthy, evenly split `n_ranks`-rank policy.
    fn run_even(problem: &Problem, plan: &RunPlan, n_ranks: usize) -> RunReport {
        run(problem, plan, &mut DistributedPolicy::new(n_ranks))
    }

    #[test]
    fn distributed_matches_any_rank_count() {
        let p = problem();
        let plan = plan(300, 1, 2);
        let r1 = run_even(&p, &plan, 1);
        let r2 = run_even(&p, &plan, 2);
        let r4 = run_even(&p, &plan, 4);
        // Integer tallies identical — and with the chunk-keyed reduce
        // over chunk-aligned default splits the float sums are now
        // bitwise identical too, not merely close.
        let (t1, t2, t4) = (&r1.result.tallies, &r2.result.tallies, &r4.result.tallies);
        assert_eq!(t1.collisions, t2.collisions);
        assert_eq!(t1.collisions, t4.collisions);
        assert_eq!(t1.absorptions, t4.absorptions);
        assert_eq!(t1.fissions, t4.fissions);
        assert_eq!(t1, t2);
        assert_eq!(t1, t4);
        for (a, b) in [(&r1, &r2), (&r1, &r4)] {
            for (x, y) in a.result.batches.iter().zip(&b.result.batches) {
                assert_eq!(x.k_track.to_bits(), y.k_track.to_bits());
                assert_eq!(x.entropy, y.entropy);
            }
        }
        assert!(r1.completed && r2.completed && r4.completed);
    }

    #[test]
    fn distributed_equals_the_serial_driver() {
        // The strongest cross-check: the executed MPI runtime with any
        // rank count reproduces the serial eigenvalue driver's per-batch
        // k bitwise (identical streams, identical resampling, identical
        // summation tree via the chunk-keyed all-reduce).
        let p = problem();
        let plan = plan(300, 1, 2);
        let serial = engine::run_with_problem(&p, &plan, &mut engine::Threaded::ambient())
            .into_eigenvalue()
            .result;
        let dist = run_even(&p, &plan, 3);
        for (a, b) in serial.batches.iter().zip(&dist.result.batches) {
            assert_eq!(
                a.k_track.to_bits(),
                b.k_track.to_bits(),
                "batch {}: serial {} vs distributed {}",
                a.index,
                a.k_track,
                b.k_track
            );
        }
        assert_eq!(serial.tallies, dist.result.tallies);
        assert_eq!(serial.k_mean.to_bits(), dist.result.k_mean.to_bits());
    }

    #[test]
    fn distributed_run_is_backend_invariant() {
        // The grid backend rides along inside the problem's `XsContext`;
        // since every backend resolves identical grid intervals, the
        // distributed per-batch k must be bit-identical across backends.
        use mcs_core::problem::GridBackendKind;
        let results: Vec<RunReport> = GridBackendKind::ALL
            .iter()
            .map(|&kind| {
                let p = Problem::test_small_with_backend(kind);
                run_even(&p, &plan(300, 1, 2), 2)
            })
            .collect();
        for other in &results[1..] {
            assert_eq!(results[0].result.tallies, other.result.tallies);
            for (a, b) in results[0].result.batches.iter().zip(&other.result.batches) {
                assert_eq!(a.k_track.to_bits(), b.k_track.to_bits());
            }
        }
    }

    #[test]
    fn distributed_is_partition_invariant() {
        let p = problem();
        let plan = plan(300, 1, 2);
        let split = |a: Vec<u64>| DistributedPolicy::new(2).with_assignments(Some(a));
        let skewed = run(&p, &plan, &mut split(vec![250, 50]));
        let skewed2 = run(&p, &plan, &mut split(vec![10, 290]));
        assert_eq!(
            skewed.result.tallies.collisions,
            skewed2.result.tallies.collisions
        );
        for (x, y) in skewed.result.batches.iter().zip(&skewed2.result.batches) {
            assert!((x.k_track - y.k_track).abs() < 1e-12);
        }
    }

    #[test]
    fn adaptive_rebalancing_runs_and_preserves_physics() {
        let p = problem();
        let plan = plan(600, 1, 3);
        let mut adaptive_policy = DistributedPolicy::new(2).with_adaptive(true);
        let adaptive = run(&p, &plan, &mut adaptive_policy);
        let fixed = run_even(&p, &plan, 2);
        // Rebalancing changes who computes what, never what is computed.
        assert_eq!(adaptive.result.tallies, fixed.result.tallies);
        for (x, y) in adaptive.result.batches.iter().zip(&fixed.result.batches) {
            assert_eq!(x.k_track.to_bits(), y.k_track.to_bits());
        }
        // And the later batches' assignments must still sum to the total.
        assert_eq!(
            adaptive_policy.details().len(),
            adaptive.result.batches.len()
        );
        for d in adaptive_policy.details() {
            assert_eq!(d.assignments.iter().sum::<u64>(), 600);
        }
    }

    #[test]
    fn bad_assignments_are_rejected() {
        let p = problem();
        let mut policy = DistributedPolicy::new(2).with_assignments(Some(vec![50, 49])); // sums to 99
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(&p, &plan(100, 1, 2), &mut policy)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn rank_death_degrades_gracefully_and_preserves_physics() {
        let p = problem();
        let plan = plan(600, 1, 3);
        let healthy = run_even(&p, &plan, 3);

        let mut policy = DistributedPolicy::new(3)
            .with_fault_plan(Some(FaultPlan::new(11).with_rank_death(1, 2)));
        let degraded = run(&p, &plan, &mut policy);
        assert!(degraded.completed);
        assert_eq!(policy.fault_log().n_deaths(), 1);
        // Bit-identical physics: the dead rank's quota moved, nothing
        // was lost.
        assert_eq!(healthy.result.tallies, degraded.result.tallies);
        assert_eq!(
            healthy.result.k_mean.to_bits(),
            degraded.result.k_mean.to_bits()
        );
        // The dead rank has no work from its death batch on.
        assert_eq!(policy.details().len(), degraded.result.batches.len());
        for d in policy.details() {
            if d.index >= 2 {
                assert_eq!(d.assignments[1], 0, "batch {}", d.index);
                assert!(!d.alive[1]);
            }
            assert_eq!(d.assignments.iter().sum::<u64>(), 600);
        }
    }

    #[test]
    fn all_ranks_dead_aborts_with_checkpoint() {
        let p = problem();
        let plan = RunPlan {
            checkpoint_every: Some(2),
            ..plan(300, 1, 3)
        };
        let mut policy = DistributedPolicy::new(2).with_fault_plan(Some(
            FaultPlan::new(5)
                .with_rank_death(0, 3)
                .with_rank_death(1, 3),
        ));
        let r = run(&p, &plan, &mut policy);
        assert!(!r.completed, "the job lost every rank");
        assert_eq!(r.result.batches.len(), 3); // batches 0..3 ran
        assert_eq!(r.checkpoints.len(), 1);
        assert_eq!(r.checkpoints[0].completed_batches, 2);
    }

    #[test]
    fn checkpoints_match_the_serial_statepoint() {
        let p = problem();
        let serial_plan = plan(600, 1, 2);
        let dist_plan = RunPlan {
            checkpoint_every: Some(2),
            ..serial_plan.clone()
        };
        let dist = run_even(&p, &dist_plan, 2);
        let serial_sp = engine::run_batches(
            &p,
            &serial_plan,
            &mut engine::Threaded::ambient(),
            0,
            2,
            None,
        )
        .statepoint;
        let sp = &dist.checkpoints[0];
        assert_eq!(
            sp, &serial_sp,
            "distributed checkpoint == serial checkpoint"
        );
    }

    #[test]
    fn straggler_slows_reported_time_only() {
        let p = problem();
        let plan = plan(600, 1, 2);
        let mut policy = DistributedPolicy::new(2)
            .with_fault_plan(Some(FaultPlan::new(3).with_straggler(0, 1, 1000.0)));
        let r = run(&p, &plan, &mut policy);
        let healthy = run_even(&p, &plan, 2);
        assert_eq!(r.result.tallies, healthy.result.tallies);
        // The straggler batch reports a grossly inflated rank-0 time.
        let b1 = &policy.details()[1];
        assert!(b1.rank_times[0] > 100.0 * b1.rank_times[1].max(1e-9));
        assert!(policy
            .fault_log()
            .records
            .iter()
            .any(|rec| matches!(rec.kind, FaultRecordKind::Straggler(f) if f == 1000.0)));
    }
}
