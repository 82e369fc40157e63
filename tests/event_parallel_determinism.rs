//! Cross-crate determinism contract of the parallel event pipeline:
//! identical results for any thread count, and identical trajectories to
//! the history engine — the properties the ablation bench relies on when
//! it compares serial and parallel timings. All entry points go through
//! the unified engine's `transport_batch`.

use mcs::core::engine::{transport_batch, Algorithm, BatchOutput, BatchRequest, Serial, Threaded};
use mcs::core::history::batch_streams;
use mcs::core::mesh::MeshSpec;
use mcs::core::physics::AbsorptionTreatment;
use mcs::core::problem::Problem;

#[test]
fn event_pipeline_thread_count_invariant() {
    let problem = Problem::test_small();
    let n = 600;
    let sources = problem.sample_initial_source(n, 2);
    let streams = batch_streams(problem.seed, 0, n);
    let spec = MeshSpec::covering(problem.geometry.bounds, 4, 4, 2);

    let run = |threads: usize| -> BatchOutput {
        transport_batch(
            &problem,
            &sources,
            &streams,
            &BatchRequest {
                algorithm: Algorithm::EventBanking,
                mesh: Some(spec),
                ..BatchRequest::default()
            },
            &mut Threaded::new(threads),
        )
    };

    let one = run(1);
    let stats1 = one.event_stats.unwrap();
    for threads in [2, 4, 8] {
        let multi = run(threads);
        // Full outcome bitwise identical: integer and float tallies,
        // and the banked fission sites in order.
        assert_eq!(
            one.outcome.tallies, multi.outcome.tallies,
            "{threads} threads"
        );
        assert_eq!(one.outcome.sites, multi.outcome.sites, "{threads} threads");
        assert_eq!(
            one.mesh.as_ref().unwrap().bins,
            multi.mesh.as_ref().unwrap().bins,
            "{threads} threads"
        );
        let statsn = multi.event_stats.unwrap();
        assert_eq!(stats1.iterations, statsn.iterations);
        assert_eq!(stats1.lookups, statsn.lookups);
        assert_eq!(stats1.peak_bank, statsn.peak_bank);
    }

    // The dedicated serial policy is the same algorithm pinned to one
    // worker; it must agree bitwise too.
    let serial = transport_batch(
        &problem,
        &sources,
        &streams,
        &BatchRequest {
            algorithm: Algorithm::EventBanking,
            ..BatchRequest::default()
        },
        &mut Serial::new(),
    );
    assert_eq!(serial.outcome.tallies, one.outcome.tallies);
    assert_eq!(serial.outcome.sites, one.outcome.sites);
}

#[test]
fn parallel_event_still_matches_history_trajectories() {
    // The multithreaded pipeline preserves the event/history trajectory
    // equivalence under either absorption treatment: both algorithms run
    // the same per-particle flight step on per-particle RNG streams, so
    // neither the stage batching nor the thread count can change any
    // particle's walk or its float tallies.
    for treatment in [
        AbsorptionTreatment::Analog,
        AbsorptionTreatment::survival_default(),
    ] {
        let mut problem = Problem::test_small();
        problem.treatment = treatment;
        let n = 600;
        let sources = problem.sample_initial_source(n, 7);
        let streams = batch_streams(problem.seed, 2, n);
        let spec = MeshSpec::covering(problem.geometry.bounds, 4, 4, 2);

        let hist = transport_batch(
            &problem,
            &sources,
            &streams,
            &BatchRequest {
                mesh: Some(spec),
                ..BatchRequest::default()
            },
            &mut Threaded::ambient(),
        );
        let evt = transport_batch(
            &problem,
            &sources,
            &streams,
            &BatchRequest {
                algorithm: Algorithm::EventBanking,
                mesh: Some(spec),
                ..BatchRequest::default()
            },
            &mut Threaded::new(4),
        );

        let (h, e) = (&hist.outcome.tallies, &evt.outcome.tallies);
        for (name, a, b) in [
            ("track_length", h.track_length, e.track_length),
            ("k_track", h.k_track, e.k_track),
            ("k_collision", h.k_collision, e.k_collision),
            ("k_absorption", h.k_absorption, e.k_absorption),
        ] {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{treatment:?} {name}: {a:e} vs {b:e}"
            );
        }
        assert_eq!(h, e, "{treatment:?}");
        assert_eq!(hist.outcome.sites, evt.outcome.sites, "{treatment:?}");
        // Mesh bins agree only to rounding: the event pipeline scores the
        // mesh per generation chunk, so each bin sums in another order.
        for (a, b) in hist.mesh.unwrap().bins.iter().zip(&evt.mesh.unwrap().bins) {
            assert!((a - b).abs() / a.abs().max(1e-300) < 1e-9, "{a} vs {b}");
        }
    }
}

#[test]
fn serial_entry_point_counters_match_parallel() {
    // EventStats counters feed the device offload model; they must be
    // identical however many threads executed the pipeline.
    let problem = Problem::test_small();
    let n = 350;
    let sources = problem.sample_initial_source(n, 9);
    let streams = batch_streams(problem.seed, 4, n);
    let req = BatchRequest {
        algorithm: Algorithm::EventBanking,
        ..BatchRequest::default()
    };
    let serial = transport_batch(&problem, &sources, &streams, &req, &mut Serial::new())
        .event_stats
        .unwrap();
    let parallel = transport_batch(&problem, &sources, &streams, &req, &mut Threaded::new(8))
        .event_stats
        .unwrap();
    assert_eq!(serial.iterations, parallel.iterations);
    assert_eq!(serial.lookups, parallel.lookups);
    assert_eq!(serial.peak_bank, parallel.peak_bank);
    assert_eq!(serial.peak_bank, n as u64);
}
