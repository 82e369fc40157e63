//! Event-parallel ablation: the staged event-transport pipeline pinned
//! to 1, 2, 4 and 8 worker threads across bank sizes — the scaling
//! study for the parallel SIMD-batched banking loop.
//!
//! Each (bank, threads) cell is the median of [`REPS`] timed batches.
//! Every thread count must reproduce the 1-thread collision count —
//! the determinism contract that lets the timings be compared at all.
//! Banks run 10³..10⁵ at scale 1; `MCS_SCALE=10` reaches the 10⁶ bank.

use mcs_core::engine::{transport_batch, Algorithm, BatchRequest, Threaded};
use mcs_core::history::batch_streams;
use mcs_core::problem::Problem;

use super::{check, holds, Band, CheckOutcome, Column, Fmt, Harness, HarnessRun, Table};
use crate::{scaled_by, time_it};

/// Worker-thread counts of the sweep.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Timed repetitions per cell (the median is reported).
pub const REPS: usize = 3;

/// Registry entry.
pub const HARNESS: Harness = Harness {
    name: "event_parallel",
    title: "BENCH event_parallel: event pipeline across worker-thread counts and bank sizes",
    tables: &["BENCH_event_parallel"],
    run: |scale, verbose| {
        let r = run(scale, verbose);
        HarnessRun::new(score(&r), vec![r.table])
    },
};

/// One bank × thread-count sample.
#[derive(Debug, Clone)]
pub struct EventParallelRow {
    /// Bank size (scaled).
    pub bank: usize,
    /// Worker threads the pipeline was pinned to.
    pub threads: usize,
    /// MEASURED median batch time (s).
    pub seconds: f64,
    /// MEASURED throughput (particles/s).
    pub particles_per_s: f64,
    /// Collisions tallied over the batch (deterministic).
    pub collisions: u64,
}

/// Typed result of the event-parallel harness.
#[derive(Debug, Clone)]
pub struct EventParallelResult {
    /// Rows in (bank, threads) order.
    pub rows: Vec<EventParallelRow>,
    /// The `BENCH_event_parallel` table.
    pub table: Table,
}

impl EventParallelResult {
    /// True iff, at every bank size, all thread counts tallied the same
    /// number of collisions.
    pub fn thread_invariant(&self) -> bool {
        self.rows.iter().all(|r| {
            let serial = self.rows.iter().find(|s| s.bank == r.bank);
            serial.is_some_and(|s| s.collisions == r.collisions)
        })
    }

    /// True iff every cell reported a positive, finite rate.
    pub fn rates_positive(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.particles_per_s > 0.0 && r.particles_per_s.is_finite())
    }
}

/// Thread-count invariance of the event pipeline.
pub fn score(r: &EventParallelResult) -> Vec<CheckOutcome> {
    vec![
        check(
            "EP.thread_invariance",
            "every worker-thread count reproduces the 1-thread collision count at every bank",
            holds(r.thread_invariant()),
            Band::Holds,
        ),
        check(
            "EP.rates_positive",
            "every bank x threads sample produced a positive particle rate",
            holds(r.rates_positive()),
            Band::Holds,
        ),
    ]
}

fn sample(problem: &Problem, bank: usize, threads: usize) -> EventParallelRow {
    let sources = problem.sample_initial_source(bank, 0);
    let streams = batch_streams(problem.seed, 0, bank);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    let req = BatchRequest {
        algorithm: Algorithm::EventBanking,
        ..BatchRequest::default()
    };
    let mut times = Vec::with_capacity(REPS);
    let mut collisions = 0;
    for _ in 0..REPS {
        let (out, secs) = time_it(|| {
            pool.install(|| {
                transport_batch(problem, &sources, &streams, &req, &mut Threaded::ambient())
            })
        });
        times.push(secs);
        collisions = out.outcome.tallies.collisions;
    }
    times.sort_by(f64::total_cmp);
    let seconds = times[REPS / 2];
    EventParallelRow {
        bank,
        threads,
        seconds,
        particles_per_s: bank as f64 / seconds.max(1e-12),
        collisions,
    }
}

/// Run the bank × thread-count sweep at `scale`.
pub fn run(scale: f64, _verbose: bool) -> EventParallelResult {
    let problem = Problem::test_small();
    let mut rows = Vec::new();
    let mut table = Table::new(
        "BENCH_event_parallel",
        vec![
            Column::key("threads").prefixed("t"),
            Column::key("bank_size").prefixed("b"),
            Column::measured("median_measured_s", Fmt::Fixed(6)),
            Column::measured("particles_measured_per_s", Fmt::Fixed(1)).trended(),
            Column::counter("collisions"),
        ],
    )
    .trended("ep");
    for nominal in [1_000usize, 10_000, 100_000] {
        let bank = scaled_by(nominal, scale).max(100);
        for threads in THREADS {
            let row = sample(&problem, bank, threads);
            table.push(vec![
                row.threads.into(),
                row.bank.into(),
                row.seconds.into(),
                row.particles_per_s.into(),
                row.collisions.into(),
            ]);
            rows.push(row);
        }
    }
    EventParallelResult { rows, table }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intact_sweep_passes_and_a_diverging_thread_count_fails() {
        let good = run(0.01, false);
        assert!(score(&good).iter().all(|c| c.passed));

        let mut bad = good;
        bad.rows[2].collisions += 1;
        let out = score(&bad);
        let inv = out.iter().find(|c| c.id == "EP.thread_invariance").unwrap();
        assert!(!inv.passed);
    }
}
