//! Event-queueing ablation: what does Stage-2 particle queueing buy the
//! banked event pipeline, per energy-grid backend?
//!
//! The event engine's Stage 2 partitions the live bank into material
//! buckets (`material`), optionally sub-sorted into log-energy bins with
//! fuel-first ordering (`material+energy`), or not at all (`off`). The
//! queueing knob is a pure lookup-*order* knob — every mode is bitwise
//! equivalent by the per-particle tally/RNG contract — so the only
//! things that may move are throughput and the memory-locality counters:
//!
//! * **rate** — MEASURED particles/s through one event-banking batch;
//! * **`xs.bin_scan_steps`** — hash-grid segment-scan work; energy-binned
//!   queues let the binned gather driver warm-start its per-nuclide
//!   cursors, so steps/lookup must *drop* vs `material` on the hash
//!   backend (the tentpole claim, `EQ.hash_scan_locality`);
//! * **`xs.gather_span_bytes` / `xs.gather_span_pairs`** — how far apart
//!   consecutive gather rows land in the backend's index space, priced in
//!   bytes (sorted queues shrink the mean span).
//!
//! The bitwise contract is re-verified across the whole sweep: every
//! (backend, bank) cell must produce one identical per-batch k bit
//! pattern over all three modes — and across backends too, since the
//! grid backends resolve identical intervals.

use mcs_core::engine::{transport_batch, Algorithm, BatchRequest, Threaded};
use mcs_core::history::batch_streams;
use mcs_core::problem::Problem;
use mcs_core::{QueueingConfig, QueueingMode};
use mcs_xs::GridBackendKind;

use super::{check, holds, Band, CheckOutcome, Column, Fmt, Harness, HarnessRun, Table};
use crate::{scaled_by, time_it};

/// Registry entry.
pub const HARNESS: Harness = Harness {
    name: "event_queueing",
    title: "BENCH event_queueing: Stage-2 particle queueing ablation for the event pipeline",
    tables: &["BENCH_event_queueing"],
    run: |scale, verbose| {
        let r = run(scale, verbose);
        let invariants = score(&r);
        HarnessRun {
            counters: r.counters,
            ..HarnessRun::new(invariants, vec![r.table])
        }
    },
};

/// One backend × queueing-mode × bank-size sample.
#[derive(Debug, Clone)]
pub struct EventQueueingRow {
    /// Grid-search backend.
    pub backend: GridBackendKind,
    /// Stage-2 queueing mode.
    pub mode: QueueingMode,
    /// Bank size (scaled).
    pub bank: usize,
    /// MEASURED event-pipeline throughput (particles/s).
    pub particles_per_s: f64,
    /// Grid lookups performed (deterministic).
    pub lookups: u64,
    /// Hash-grid segment scan steps (deterministic; 0 off-hash).
    pub bin_scan_steps: u64,
    /// Priced distance between consecutive gather rows (bytes).
    pub gather_span_bytes: u64,
    /// Consecutive same-call lookup pairs observed by the span tracker.
    pub gather_span_pairs: u64,
    /// Bit pattern of the batch's track-length k (determinism anchor).
    pub k_bits: u64,
}

/// Typed result of the event-queueing harness.
#[derive(Debug, Clone)]
pub struct EventQueueingResult {
    /// Rows in (backend, bank, mode) order.
    pub rows: Vec<EventQueueingRow>,
    /// `xs.*` counters of the hash-backend `material+energy` run at the
    /// largest bank (the configuration the tentpole optimizes), as
    /// exported by `XsContext::export_counters`.
    pub counters: Vec<(String, u64)>,
    /// The `BENCH_event_queueing` table.
    pub table: Table,
}

impl EventQueueingResult {
    fn rows_of(&self, backend: GridBackendKind, mode: QueueingMode) -> Vec<&EventQueueingRow> {
        self.rows
            .iter()
            .filter(|r| r.backend == backend && r.mode == mode)
            .collect()
    }

    /// True iff every (backend, bank) cell produced identical k bits
    /// across all queueing modes, and all backends agree with each other.
    pub fn k_bits_identical(&self) -> bool {
        let mut by_bank: Vec<(usize, u64)> = Vec::new();
        for r in &self.rows {
            match by_bank.iter().find(|(b, _)| *b == r.bank) {
                Some(&(_, bits)) => {
                    if bits != r.k_bits {
                        return false;
                    }
                }
                None => by_bank.push((r.bank, r.k_bits)),
            }
        }
        true
    }

    /// Hash-backend scan steps per lookup: `material+energy` over
    /// `material`, summed over banks. The tentpole claim is that this is
    /// `< 1` — binned queues make the warm-start cursors pay off.
    pub fn hash_scan_ratio(&self) -> f64 {
        let steps_per_lookup = |mode| {
            let rows = self.rows_of(GridBackendKind::HashBinned, mode);
            let steps: u64 = rows.iter().map(|r| r.bin_scan_steps).sum();
            let lookups: u64 = rows.iter().map(|r| r.lookups).sum();
            steps as f64 / (lookups as f64).max(1.0)
        };
        steps_per_lookup(QueueingMode::MaterialEnergy) / steps_per_lookup(QueueingMode::Material)
    }

    /// True iff every configuration reported a positive, finite rate.
    pub fn rates_positive(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.particles_per_s > 0.0 && r.particles_per_s.is_finite())
    }
}

/// The queueing config a sweep-mode label denotes. `material+energy`
/// runs the full subsystem: fine log-E bins plus fuel-first ordering.
fn config_for(mode: QueueingMode) -> QueueingConfig {
    QueueingConfig {
        mode,
        fuel_split: mode == QueueingMode::MaterialEnergy,
        ..QueueingConfig::default()
    }
}

fn sample(problem: &Problem, mode: QueueingMode, bank: usize) -> EventQueueingRow {
    let sources = problem.sample_initial_source(bank, 0);
    let streams = batch_streams(problem.seed, 0, bank);
    let req = BatchRequest {
        algorithm: Algorithm::EventBanking,
        queueing: config_for(mode),
        ..BatchRequest::default()
    };
    problem.xs.reset_counters();
    let (out, secs) =
        time_it(|| transport_batch(problem, &sources, &streams, &req, &mut Threaded::ambient()));
    EventQueueingRow {
        backend: problem.xs.backend_kind(),
        mode,
        bank,
        particles_per_s: bank as f64 / secs.max(1e-12),
        lookups: problem.xs.lookups(),
        bin_scan_steps: problem.xs.bin_scan_steps(),
        gather_span_bytes: problem.xs.gather_span_bytes(),
        gather_span_pairs: problem.xs.gather_span_pairs(),
        k_bits: out.outcome.tallies.k_track.to_bits(),
    }
}

/// Bitwise-equivalence across queueing modes, and the warm-start
/// scan-locality payoff on the hash-binned backend.
pub fn score(r: &EventQueueingResult) -> Vec<CheckOutcome> {
    vec![
        check(
            "EQ.k_bitwise",
            "per-batch k-eff is bit-identical across every queueing mode and backend",
            holds(r.k_bits_identical()),
            Band::Holds,
        ),
        check(
            "EQ.hash_scan_locality",
            "hash-grid scan steps per lookup: material+energy over material (< 1 = payoff)",
            r.hash_scan_ratio(),
            Band::AtMost(0.95),
        ),
        check(
            "EQ.rates_positive",
            "every backend x mode x bank sample produced a positive particle rate",
            holds(r.rates_positive()),
            Band::Holds,
        ),
    ]
}

/// Run the backend × mode × bank-size sweep at `scale`.
pub fn run(scale: f64, verbose: bool) -> EventQueueingResult {
    let banks = [
        scaled_by(2_000, scale).max(400),
        scaled_by(10_000, scale).max(800),
    ];

    let mut rows = Vec::new();
    let mut table = Table::new(
        "BENCH_event_queueing",
        vec![
            Column::key("backend"),
            Column::key("mode"),
            Column::key("bank_size").prefixed("b"),
            Column::measured("particles_measured_per_s", Fmt::Fixed(1)).trended(),
            Column::counter("lookups").trended(),
            Column::counter("bin_scan_steps").trended(),
            Column::counter("gather_span_bytes").trended(),
            Column::counter("gather_span_pairs").trended(),
            // A deterministic float reduction.
            Column::modeled("k_track", 1e-9, Fmt::Sci(9)),
        ],
    )
    .trended("eq");
    let mut counters: Vec<(String, u64)> = Vec::new();
    for &kind in GridBackendKind::ALL.iter() {
        // One problem per backend: the context cache hands back shared
        // index data with fresh counters, and `sample` resets them
        // between runs so each row's counts stand alone.
        let problem = Problem::test_small_with_backend(kind);
        for &bank in &banks {
            for mode in QueueingMode::ALL {
                let row = sample(&problem, mode, bank);
                if kind == GridBackendKind::HashBinned
                    && mode == QueueingMode::MaterialEnergy
                    && bank == banks[banks.len() - 1]
                {
                    let mut c = mcs_prof::Counters::new();
                    problem.xs.export_counters(&mut c);
                    counters = c.iter().map(|(k, v)| (k.to_string(), v)).collect();
                }
                table.push(vec![
                    row.backend.name().into(),
                    row.mode.name().into(),
                    row.bank.into(),
                    row.particles_per_s.into(),
                    row.lookups.into(),
                    row.bin_scan_steps.into(),
                    row.gather_span_bytes.into(),
                    row.gather_span_pairs.into(),
                    f64::from_bits(row.k_bits).into(),
                ]);
                rows.push(row);
            }
        }
    }

    let result = EventQueueingResult {
        rows,
        counters,
        table,
    };
    if verbose {
        println!(
            "\nk bit-identical across modes and backends: {}",
            if result.k_bits_identical() {
                "yes"
            } else {
                "NO"
            }
        );
        println!(
            "hash scan steps/lookup, material+energy over material: {:.3}",
            result.hash_scan_ratio()
        );
    }
    result
}
