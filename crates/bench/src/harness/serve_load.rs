//! Serve-load benchmark: throughput, latency, and admission behavior of
//! the `mcs serve` plan-execution service under concurrent submission.
//!
//! Three phases, each against its own fresh server on an ephemeral
//! port, each one CSV row:
//!
//! * **sequential** — a single closed-loop client: K unique plans run
//!   cold, then a skewed wave of re-submissions that must all be served
//!   from cache. The wave's `xs.lookups` delta must be exactly zero
//!   (`relookup_free`) and the replayed payload bit-identical to the
//!   cold one (`cache_bitwise`) — the acceptance contract of the cache.
//! * **concurrent** — several client threads pipelining a skewed 80/20
//!   hot/unique mix (1k+ submissions at full scale). Every distinct
//!   plan executes exactly once no matter how many threads race on it,
//!   so `cold_runs == unique_plans` is a deterministic counter even
//!   though the cache-hit / coalesce split is scheduling-dependent.
//! * **admission** — a deliberately tiny server (1 worker, queue cap
//!   4), loaded while paused: the overflow count is exact, typed, and
//!   scale-independent.
//!
//! Counter columns (`submissions`, `unique_plans`, `served_saved`,
//! `cold_runs`, `rejects`) are pure counting, deterministic at fixed
//! scale and golden-exact; the rate/latency columns are measured. The
//! nondeterministic hit/coalesce *split* stays out of the table.

use std::net::SocketAddr;
use std::time::Instant;

use mcs_core::engine::RunPlan;
use mcs_serve::{Client, Priority, ServeConfig, Server, Source};

use super::{check, holds, Band, CheckOutcome, Column, Fmt, Harness, HarnessRun, Table};
use crate::scaled_by;

/// Registry entry.
pub const HARNESS: Harness = Harness {
    name: "serve",
    title: "BENCH serve: plan-execution service under concurrent load",
    tables: &["BENCH_serve"],
    run: |scale, verbose| {
        let r = run(scale, verbose);
        HarnessRun::new(score(&r), vec![r.table])
    },
};

/// Client threads in the concurrent phase.
const CONCURRENT_CLIENTS: usize = 4;
/// Hot-set size for the 80/20 skew.
const HOT_PLANS: usize = 4;
/// Queue-cap of the admission-phase server (workers = 1).
const ADMISSION_CAP: usize = 4;
/// Overflow submissions beyond the admission queue cap.
const ADMISSION_OVERFLOW: usize = 3;

/// One phase of the load run.
#[derive(Debug, Clone)]
pub struct ServeLoadRow {
    /// Phase label (`sequential`, `concurrent`, `admission`).
    pub phase: &'static str,
    /// Total submissions sent in the phase.
    pub submissions: u64,
    /// Distinct canonical plan hashes among them.
    pub unique_plans: u64,
    /// Submissions answered without an engine run (hits + coalesces).
    pub served_saved: u64,
    /// Engine executions (deterministically `== unique_plans` except
    /// in the admission phase, where rejected plans never run).
    pub cold_runs: u64,
    /// Typed admission rejections.
    pub rejects: u64,
    /// MEASURED end-to-end submission throughput.
    pub plans_per_second: f64,
    /// MEASURED median submit→terminal-event latency.
    pub p50_ms: f64,
    /// MEASURED 99th-percentile latency.
    pub p99_ms: f64,
}

/// Typed result of the serve-load harness.
#[derive(Debug, Clone)]
pub struct ServeLoadResult {
    /// One row per phase, in run order.
    pub rows: Vec<ServeLoadRow>,
    /// Cache replay was bit-identical to the cold run.
    pub cache_bitwise: bool,
    /// The sequential hit wave moved `xs.lookups` by exactly zero.
    pub relookup_free: bool,
    /// Total cache hits across all phases (split is scheduling-dependent).
    pub hits: u64,
    /// Total in-flight coalesces across all phases.
    pub coalesced: u64,
    /// The `BENCH_serve` table.
    pub table: Table,
}

impl ServeLoadResult {
    /// True iff every phase reported positive, finite rate and latencies.
    pub fn rates_positive(&self) -> bool {
        self.rows.iter().all(|r| {
            r.plans_per_second > 0.0
                && r.plans_per_second.is_finite()
                && r.p50_ms > 0.0
                && r.p99_ms >= r.p50_ms
                && r.p99_ms.is_finite()
        })
    }

    /// True iff rejections happened exactly where the admission phase
    /// engineered them and nowhere else.
    pub fn rejects_expected(&self) -> bool {
        self.rows.iter().all(|r| {
            let expected = if r.phase == "admission" {
                ADMISSION_OVERFLOW as u64
            } else {
                0
            };
            r.rejects == expected
        })
    }

    /// True iff, in every phase, each distinct plan ran at most once
    /// and the save counter balances the submission ledger.
    pub fn ledger_balanced(&self) -> bool {
        self.rows.iter().all(|r| {
            r.cold_runs <= r.unique_plans
                && r.served_saved + r.cold_runs + r.rejects == r.submissions
        })
    }

    /// Fraction of non-rejected submissions served without an engine
    /// run, over all phases.
    pub fn saved_fraction(&self) -> f64 {
        let saved: u64 = self.rows.iter().map(|r| r.served_saved).sum();
        let admitted: u64 = self.rows.iter().map(|r| r.submissions - r.rejects).sum();
        saved as f64 / (admitted as f64).max(1.0)
    }
}

/// The tiny eigenvalue plan the load phases submit; `salt` perturbs
/// the seed, so each salt is one distinct canonical hash.
fn load_plan(salt: u64) -> RunPlan {
    RunPlan {
        particles: 48,
        inactive: 1,
        active: 1,
        entropy_mesh: (2, 2, 2),
        seed: Some(0x10ad_0000 + salt),
        ..RunPlan::default()
    }
}

fn throughput_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_cap: 2048,
        cache_cap: 4096,
        problem_cap: 32,
    }
}

fn percentile_ms(sorted: &[f64], pct: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[(sorted.len() - 1) * pct / 100]
}

struct PhaseOutcome {
    row: ServeLoadRow,
    hits: u64,
    coalesced: u64,
}

/// Phase 1: closed-loop cold fills then a skewed all-hit wave.
fn run_sequential(scale: f64) -> (PhaseOutcome, bool, bool) {
    let server = Server::bind("127.0.0.1:0", throughput_config()).expect("bind serve-load server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let uniques = scaled_by(8, scale).max(3);
    let wave = scaled_by(64, scale).max(12);

    let t0 = Instant::now();
    let mut latencies = Vec::with_capacity(uniques + wave);
    let mut cold = Vec::with_capacity(uniques);
    for salt in 0..uniques as u64 {
        let t = Instant::now();
        let (source, result) = client
            .run(&load_plan(salt), Priority::Normal)
            .expect("cold run");
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(source, Source::Run, "first submission of a plan runs cold");
        cold.push(result);
    }
    let lookups_before_wave = client.stats().expect("stats").xs_lookups;

    let mut cache_bitwise = true;
    for i in 0..wave {
        // 80 % of the wave re-hits plan 0; the rest cycles the tail.
        let salt = if i.is_multiple_of(5) {
            1 + (i / 5) as u64 % (uniques as u64 - 1).max(1)
        } else {
            0
        };
        let t = Instant::now();
        let (source, result) = client.run(&load_plan(salt), Priority::Normal).expect("hit");
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(source, Source::Cache, "warm plan must be served from cache");
        cache_bitwise &= *result == *cold[salt as usize];
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let stats = client.stats().expect("stats");
    let relookup_free = stats.xs_lookups == lookups_before_wave;
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let submissions = (uniques + wave) as u64;
    let outcome = PhaseOutcome {
        row: ServeLoadRow {
            phase: "sequential",
            submissions,
            unique_plans: uniques as u64,
            served_saved: stats.cache_hits + stats.coalesced,
            cold_runs: stats.cold_runs,
            rejects: stats.rejected,
            plans_per_second: submissions as f64 / elapsed.max(1e-12),
            p50_ms: percentile_ms(&latencies, 50).max(1e-6),
            p99_ms: percentile_ms(&latencies, 99).max(1e-6),
        },
        hits: stats.cache_hits,
        coalesced: stats.coalesced,
    };
    server.shutdown();
    (outcome, cache_bitwise, relookup_free)
}

/// The plan a concurrent-phase client submits at step `i`: 80 % from
/// the shared hot set, 20 % unique to this (thread, step).
fn skewed_salt(thread: usize, i: usize, per_thread: usize) -> u64 {
    if i.is_multiple_of(5) {
        1_000 + (thread * per_thread + i) as u64
    } else {
        (i % HOT_PLANS) as u64
    }
}

/// Phase 2: several closed-loop clients racing a skewed plan mix.
fn run_concurrent(scale: f64) -> PhaseOutcome {
    let cfg = throughput_config();
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind serve-load server");
    let addr: SocketAddr = server.local_addr();
    let per_thread = scaled_by(256, scale).max(8);

    let t0 = Instant::now();
    let handles: Vec<_> = (0..CONCURRENT_CLIENTS)
        .map(|thread| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut latencies = Vec::with_capacity(per_thread);
                for i in 0..per_thread {
                    let plan = load_plan(skewed_salt(thread, i, per_thread));
                    let t = Instant::now();
                    client.run(&plan, Priority::Normal).expect("load run");
                    latencies.push(t.elapsed().as_secs_f64() * 1e3);
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let elapsed = t0.elapsed().as_secs_f64();

    let mut probe = Client::connect(addr).expect("connect");
    let stats = probe.stats().expect("stats");
    server.shutdown();

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    // Every thread's unique salts are disjoint; the hot set is shared.
    let uniques_per_thread = per_thread.div_ceil(5);
    let unique_plans = (HOT_PLANS + CONCURRENT_CLIENTS * uniques_per_thread) as u64;
    let submissions = (CONCURRENT_CLIENTS * per_thread) as u64;
    PhaseOutcome {
        row: ServeLoadRow {
            phase: "concurrent",
            submissions,
            unique_plans,
            served_saved: stats.cache_hits + stats.coalesced,
            cold_runs: stats.cold_runs,
            rejects: stats.rejected,
            plans_per_second: submissions as f64 / elapsed.max(1e-12),
            p50_ms: percentile_ms(&latencies, 50).max(1e-6),
            p99_ms: percentile_ms(&latencies, 99).max(1e-6),
        },
        hits: stats.cache_hits,
        coalesced: stats.coalesced,
    }
}

/// Phase 3: overflow a paused 1-worker, cap-4 queue; the reject count
/// is exact and scale-independent.
fn run_admission() -> PhaseOutcome {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            queue_cap: ADMISSION_CAP,
            cache_cap: 16,
            problem_cap: 8,
        },
    )
    .expect("bind admission server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    server.scheduler().pause();

    let total = ADMISSION_CAP + ADMISSION_OVERFLOW;
    let t0 = Instant::now();
    let starts: Vec<Instant> = (0..total).map(|_| Instant::now()).collect();
    let ids: Vec<u64> = (0..total)
        .map(|salt| {
            client
                .submit(&load_plan(2_000 + salt as u64), Priority::Normal, false)
                .expect("submit")
        })
        .collect();
    // Barrier: the pipelined submits race the server's reader thread,
    // and resuming before every frame is parsed would let the worker
    // free queue slots for the late submissions, making the overflow
    // count timing-dependent. A Stats round-trip on the same connection
    // orders us behind every submit frame; the rejection events it
    // reads past stay buffered for the waits below.
    client.stats().expect("admission barrier");
    server.scheduler().resume();

    let mut latencies = Vec::with_capacity(total);
    let mut rejects = 0u64;
    for (i, id) in ids.into_iter().enumerate() {
        match client.wait_result(id) {
            Ok(_) => {}
            Err(mcs_serve::ClientError::Rejected(_)) => rejects += 1,
            Err(e) => panic!("admission phase: unexpected error {e}"),
        }
        latencies.push(starts[i].elapsed().as_secs_f64() * 1e3);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = client.stats().expect("stats");
    server.shutdown();

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    PhaseOutcome {
        row: ServeLoadRow {
            phase: "admission",
            submissions: total as u64,
            unique_plans: total as u64,
            served_saved: stats.cache_hits + stats.coalesced,
            cold_runs: stats.cold_runs,
            rejects,
            plans_per_second: total as f64 / elapsed.max(1e-12),
            p50_ms: percentile_ms(&latencies, 50).max(1e-6),
            p99_ms: percentile_ms(&latencies, 99).max(1e-6),
        },
        hits: stats.cache_hits,
        coalesced: stats.coalesced,
    }
}

/// The cache's bitwise/zero-relookup contract, the submission ledger,
/// and the engineered admission overflow.
pub fn score(r: &ServeLoadResult) -> Vec<CheckOutcome> {
    vec![
        check(
            "SV.cache_bitwise",
            "cached replay is bit-identical to the cold run of the same plan",
            holds(r.cache_bitwise),
            Band::Holds,
        ),
        check(
            "SV.relookup_free",
            "serving the cache-hit wave moved xs.lookups by exactly zero",
            holds(r.relookup_free),
            Band::Holds,
        ),
        check(
            "SV.ledger_balanced",
            "hits + coalesces + cold runs + rejects == submissions, and no plan ran twice",
            holds(r.ledger_balanced()),
            Band::Holds,
        ),
        check(
            "SV.rejects_bounded",
            "admission control rejected exactly the engineered overflow, nowhere else",
            holds(r.rejects_expected()),
            Band::Holds,
        ),
        check(
            "SV.hit_rate",
            "fraction of admitted submissions served without an engine run",
            r.saved_fraction(),
            Band::AtLeast(0.5),
        ),
        check(
            "SV.rates_positive",
            "every phase reported positive finite throughput and p99 >= p50 latency",
            holds(r.rates_positive()),
            Band::Holds,
        ),
    ]
}

/// Run the three-phase load battery at `scale`.
pub fn run(scale: f64, verbose: bool) -> ServeLoadResult {
    let (sequential, cache_bitwise, relookup_free) = run_sequential(scale);
    let concurrent = run_concurrent(scale);
    let admission = run_admission();

    let phases = [sequential, concurrent, admission];
    let hits = phases.iter().map(|p| p.hits).sum();
    let coalesced = phases.iter().map(|p| p.coalesced).sum();
    let rows: Vec<ServeLoadRow> = phases.into_iter().map(|p| p.row).collect();

    // The ledger columns are pure counting, no FP: exact on every host
    // and ISA leg. Cold runs and rejects are the deterministic work the
    // trend gate follows; the hit/coalesce split behind `served_saved`
    // is scheduling-dependent and deliberately NOT trended.
    let mut table = Table::new(
        "BENCH_serve",
        vec![
            Column::key("phase"),
            Column::exact("submissions", Fmt::Plain),
            Column::exact("unique_plans", Fmt::Plain),
            Column::exact("served_saved", Fmt::Plain),
            Column::exact("cold_runs", Fmt::Plain).trended(),
            Column::exact("rejects", Fmt::Plain).trended(),
            Column::measured("plans_measured_per_s", Fmt::Fixed(1)).trended_as("plans_per_s"),
            Column::measured("p50_measured_ms", Fmt::Fixed(3)),
            Column::measured("p99_measured_ms", Fmt::Fixed(3)),
        ],
    )
    .trended("serve");
    for r in &rows {
        table.push(vec![
            r.phase.into(),
            r.submissions.into(),
            r.unique_plans.into(),
            r.served_saved.into(),
            r.cold_runs.into(),
            r.rejects.into(),
            r.plans_per_second.into(),
            r.p50_ms.into(),
            r.p99_ms.into(),
        ]);
    }

    let result = ServeLoadResult {
        rows,
        cache_bitwise,
        relookup_free,
        hits,
        coalesced,
        table,
    };
    if verbose {
        println!(
            "\ncache replay bit-identical: {}; hit wave re-lookup free: {}",
            if result.cache_bitwise { "yes" } else { "NO" },
            if result.relookup_free { "yes" } else { "NO" }
        );
        println!(
            "saved {:.1}% of admitted submissions ({} hits + {} coalesced)",
            100.0 * result.saved_fraction(),
            result.hits,
            result.coalesced
        );
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intact_serve_passes_and_perturbed_serve_fails() {
        // One real reduced-scale battery (live TCP servers on
        // ephemeral ports), then targeted perturbations of the typed
        // result — the exit-flip demonstration for every SV gate.
        let good = run(0.05, false);
        let before = score(&good);
        assert!(before.iter().all(|c| c.passed), "{before:?}");

        let fails = |r: &ServeLoadResult, id: &str| {
            let out = score(r);
            assert!(
                !out.iter().find(|c| c.id == id).unwrap().passed,
                "{id} should fail after perturbation"
            );
        };
        let mut r = good.clone();
        r.cache_bitwise = false;
        fails(&r, "SV.cache_bitwise");

        let mut r = good.clone();
        r.relookup_free = false;
        fails(&r, "SV.relookup_free");

        // A phantom duplicate run: the ledger stops balancing.
        let mut r = good.clone();
        r.rows[0].cold_runs += 1;
        fails(&r, "SV.ledger_balanced");

        // A reject outside the engineered admission overflow.
        let mut r = good.clone();
        r.rows[0].rejects += 1;
        fails(&r, "SV.rejects_bounded");

        // A stalled phase: zero throughput must trip the timing check.
        let mut r = good;
        r.rows[1].plans_per_second = 0.0;
        fails(&r, "SV.rates_positive");
    }
}
