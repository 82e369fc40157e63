//! The unified engine's headline contract, checked as a matrix: every
//! execution policy — serial, dedicated thread pools, simulated MPI
//! ranks — produces **bit-identical** results for the same `RunPlan`,
//! for both transport algorithms. Plus the declarative-plan guarantees:
//! TOML round-tripping is lossless, and a plan replayed from its TOML
//! form reproduces the original run to the last bit.
//!
//! A second matrix crosses the energy-grid backends with the policies:
//! the event algorithm's k and tallies are bit-identical on every
//! backend under every policy — the backend is a pure performance knob.

use mcs::cluster::DistributedPolicy;
use mcs::core::engine::{
    resume_with_problem, run_batches, run_with_problem, Algorithm, ExecutionPolicy, ModelOverrides,
    ModelSpec, PolicySpec, RunMode, RunPlan, Serial, Threaded,
};
use mcs::core::problem::{GridBackendKind, Problem};
use mcs::core::tally::Tallies;
use mcs::core::{RodPattern, TraversalKind};
use proptest::prelude::*;

fn plan_for(algorithm: Algorithm) -> RunPlan {
    RunPlan {
        algorithm,
        particles: 600,
        inactive: 2,
        active: 3,
        entropy_mesh: (4, 4, 4),
        ..RunPlan::default()
    }
}

/// Every policy the engine ships, with a label for failure messages.
fn all_policies() -> Vec<(&'static str, Box<dyn ExecutionPolicy>)> {
    vec![
        ("serial", Box::new(Serial::new())),
        ("threaded-2", Box::new(Threaded::new(2))),
        ("threaded-4", Box::new(Threaded::new(4))),
        ("distributed-1", Box::new(DistributedPolicy::new(1))),
        ("distributed-2", Box::new(DistributedPolicy::new(2))),
        ("distributed-4", Box::new(DistributedPolicy::new(4))),
    ]
}

/// `to_bits` equality on k-eff and all four float tallies.
fn assert_bitwise(label: &str, k_a: f64, t_a: &Tallies, k_b: f64, t_b: &Tallies) {
    assert_eq!(
        k_a.to_bits(),
        k_b.to_bits(),
        "{label}: k-eff {k_a} vs {k_b}"
    );
    for (name, a, b) in [
        ("track_length", t_a.track_length, t_b.track_length),
        ("k_track", t_a.k_track, t_b.k_track),
        ("k_collision", t_a.k_collision, t_b.k_collision),
        ("k_absorption", t_a.k_absorption, t_b.k_absorption),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: {name} {a} vs {b}");
    }
    assert_eq!(t_a, t_b, "{label}: integer tallies diverged");
}

#[test]
fn every_policy_reproduces_serial_bitwise_for_both_algorithms() {
    let problem = Problem::test_small();
    for algorithm in [Algorithm::History, Algorithm::EventBanking] {
        let plan = plan_for(algorithm);
        let reference = run_with_problem(&problem, &plan, &mut Serial::new())
            .into_eigenvalue()
            .result;
        for (label, mut policy) in all_policies() {
            let got = run_with_problem(&problem, &plan, policy.as_mut())
                .into_eigenvalue()
                .result;
            assert_bitwise(
                &format!("{label} / {algorithm:?}"),
                got.k_mean,
                &got.tallies,
                reference.k_mean,
                &reference.tallies,
            );
        }
    }
}

#[test]
fn heterogeneous_device_splits_reproduce_serial_bitwise() {
    // The device catalog's heterogeneous symmetric mode: each rank is a
    // different accelerator, the initial split is α-balanced by modeled
    // rate — and because the split stays CHUNK-aligned and the
    // all-reduce is chunk-keyed, k-eff and every tally must still equal
    // the serial run to the last bit, for any device mix.
    use mcs::device::catalog::device;

    let problem = Problem::test_small();
    let mixes: [&[&str]; 3] = [
        &["host-e5-2687w", "knc-7120a"],
        &["host-e5-2687w", "knc-7120a", "knc-7120a"],
        &["a100", "gpu-max-1100", "mi250x", "host-e5-2687w"],
    ];
    for algorithm in [Algorithm::History, Algorithm::EventBanking] {
        let plan = plan_for(algorithm);
        let reference = run_with_problem(&problem, &plan, &mut Serial::new())
            .into_eigenvalue()
            .result;
        for mix in mixes {
            let devices: Vec<_> = mix.iter().map(|n| device(n).unwrap()).collect();
            let mut policy =
                DistributedPolicy::new(devices.len()).with_devices(&devices, Algorithm::History);
            let got = run_with_problem(&problem, &plan, &mut policy)
                .into_eigenvalue()
                .result;
            assert_bitwise(
                &format!("devices {mix:?} / {algorithm:?}"),
                got.k_mean,
                &got.tallies,
                reference.k_mean,
                &reference.tallies,
            );
            assert!(policy.describe().contains(mix[0]));
        }
    }
}

#[test]
fn event_results_are_bitwise_identical_across_backends_and_policies() {
    // The serial run on the first backend is the reference; every
    // backend under every policy must reproduce its k and tallies to
    // the last bit (the only place this cross-backend half of the old
    // `EQ.k_bitwise` invariant is still asserted for the event path).
    let plan = plan_for(Algorithm::EventBanking);
    let reference = run_with_problem(
        &Problem::test_small_with_backend(GridBackendKind::ALL[0]),
        &plan,
        &mut Serial::new(),
    )
    .into_eigenvalue()
    .result;

    for backend in GridBackendKind::ALL {
        let problem = Problem::test_small_with_backend(backend);
        for (plabel, mut policy) in all_policies() {
            let got = run_with_problem(&problem, &plan, policy.as_mut())
                .into_eigenvalue()
                .result;
            assert_bitwise(
                &format!("{} / {plabel}", backend.name()),
                got.k_mean,
                &got.tallies,
                reference.k_mean,
                &reference.tallies,
            );
        }
    }
}

#[test]
fn kill_and_resume_through_the_engine_is_an_identity() {
    // Run batches [0, 3) under one policy, carry the statepoint across a
    // simulated process death, and finish the plan under a *different*
    // policy: final k and tallies must match the uninterrupted run
    // bit-for-bit, including across a disk round-trip.
    let problem = Problem::test_small();
    let plan = plan_for(Algorithm::History);
    let uninterrupted = run_with_problem(&problem, &plan, &mut Threaded::new(2))
        .into_eigenvalue()
        .result;

    let partial = run_batches(&problem, &plan, &mut Serial::new(), 0, 3, None);
    let path = std::env::temp_dir().join("mcs_engine_equivalence.statepoint");
    partial.statepoint.save(&path).expect("write statepoint");
    let sp = mcs::core::statepoint::Statepoint::load(&path).expect("read statepoint");
    let _ = std::fs::remove_file(&path);
    assert_eq!(sp.completed_batches, 3);

    let resumed = resume_with_problem(&problem, &plan, &mut DistributedPolicy::new(2), &sp).result;
    assert_bitwise(
        "serial[0,3) -> distributed-2 resume",
        resumed.k_mean,
        &resumed.tallies,
        uninterrupted.k_mean,
        &uninterrupted.tallies,
    );
}

#[test]
fn a_plan_replayed_from_its_toml_form_reproduces_the_run_bitwise() {
    let plan = RunPlan {
        particles: 400,
        inactive: 1,
        active: 2,
        entropy_mesh: (4, 4, 4),
        mesh_tally: Some((4, 4, 2)),
        ..RunPlan::default()
    };
    let replayed = RunPlan::from_toml(&plan.to_toml()).expect("round-trip");
    assert_eq!(plan, replayed);

    let problem = Problem::test_small();
    let a = run_with_problem(&problem, &plan, &mut Serial::new())
        .into_eigenvalue()
        .result;
    let b = run_with_problem(&problem, &replayed, &mut Serial::new())
        .into_eigenvalue()
        .result;
    assert_bitwise("toml replay", a.k_mean, &a.tallies, b.k_mean, &b.tallies);
    // The mesh tally replays bitwise too.
    let (ma, mb) = (a.mesh.unwrap(), b.mesh.unwrap());
    for (x, y) in ma.bins.iter().zip(&mb.bins) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

/// The traversal seam's engine-level contract: for catalog models, the
/// flattened and nested treatments produce bit-identical eigenvalue
/// results under every execution policy. (`small`/`large` share the
/// `test` geometry family; the full HM core shape is covered at the
/// geometry level by `mcs-geom`'s traversal property tests.)
#[test]
fn traversal_treatments_are_bitwise_equivalent_across_policies() {
    for model in ["test", "shield"] {
        let plan = RunPlan {
            model: ModelSpec::named(model),
            particles: 400,
            inactive: 1,
            active: 2,
            entropy_mesh: (4, 4, 4),
            ..RunPlan::default()
        };
        let reference = run_with_problem(&plan.build_problem(), &plan, &mut Serial::new())
            .into_eigenvalue()
            .result;
        for treatment in TraversalKind::ALL {
            let plan = RunPlan {
                traversal: treatment,
                ..plan.clone()
            };
            let problem = plan.build_problem();
            for (label, mut policy) in all_policies() {
                let got = run_with_problem(&problem, &plan, policy.as_mut())
                    .into_eigenvalue()
                    .result;
                assert_bitwise(
                    &format!("{model} / {} / {label}", treatment.name()),
                    got.k_mean,
                    &got.tallies,
                    reference.k_mean,
                    &reference.tallies,
                );
            }
        }
    }
}

/// Model overrides flow through the whole plan path: a rodded,
/// re-enriched shield variant builds, runs, and is bit-identical when
/// replayed from its TOML form under a different treatment.
#[test]
fn overridden_model_replays_bitwise_from_toml_across_treatments() {
    let plan = RunPlan {
        model: ModelSpec {
            name: "shield".into(),
            overrides: ModelOverrides {
                assemblies: Some(5),
                rods: Some(RodPattern::Center),
                enrichment: Some(1.25),
                ..Default::default()
            },
        },
        particles: 300,
        inactive: 1,
        active: 2,
        entropy_mesh: (4, 4, 4),
        ..RunPlan::default()
    };
    let a = run_with_problem(&plan.build_problem(), &plan, &mut Serial::new())
        .into_eigenvalue()
        .result;
    let replayed = RunPlan {
        traversal: TraversalKind::Nested,
        ..RunPlan::from_toml(&plan.to_toml()).expect("round-trip")
    };
    let b = run_with_problem(&replayed.build_problem(), &replayed, &mut Threaded::new(2))
        .into_eigenvalue()
        .result;
    assert_bitwise(
        "override replay / nested",
        a.k_mean,
        &a.tallies,
        b.k_mean,
        &b.tallies,
    );
}

fn arb_plan() -> impl Strategy<Value = RunPlan> {
    (
        (
            0u8..5,
            any::<bool>(),
            any::<bool>(),
            1usize..1_000_000,
            (any::<bool>(), any::<u64>()),
        ),
        (
            0usize..100,
            0usize..100,
            any::<bool>(),
            (1usize..32, 1usize..32, 1usize..32),
        ),
        (
            (any::<bool>(), (1usize..32, 1usize..32, 1usize..32)),
            any::<bool>(),
            (any::<bool>(), 1usize..64),
            1usize..1_000_000,
        ),
        (0u8..3, 0usize..32, 1usize..16),
        (any::<bool>(), 0u8..5, 0u8..3),
    )
        .prop_map(
            |(
                (model, algorithm, mode, particles, (has_seed, seed)),
                (inactive, active, survival, entropy_mesh),
                ((has_mesh, mesh), spectrum, (has_cp, cp_every), max_chain),
                (policy_kind, threads, ranks),
                (nested, override_kind, rod_kind),
            )| {
                RunPlan {
                    model: ModelSpec {
                        name: ["test", "small", "large", "smr", "shield"][model as usize].into(),
                        // Overrides valid for every catalog entry, so the
                        // parse-time validation in `from_toml` passes.
                        overrides: match override_kind {
                            0 => ModelOverrides::default(),
                            1 => ModelOverrides {
                                assemblies: Some(1),
                                ..Default::default()
                            },
                            2 => ModelOverrides {
                                enrichment: Some(1.25),
                                ..Default::default()
                            },
                            3 => ModelOverrides {
                                half_height: Some(42.5),
                                ..Default::default()
                            },
                            _ => ModelOverrides {
                                rods: Some(match rod_kind {
                                    0 => RodPattern::None,
                                    1 => RodPattern::Center,
                                    _ => RodPattern::Checkerboard,
                                }),
                                ..Default::default()
                            },
                        },
                    },
                    traversal: if nested {
                        TraversalKind::Nested
                    } else {
                        TraversalKind::Flattened
                    },
                    algorithm: if algorithm {
                        Algorithm::History
                    } else {
                        Algorithm::EventBanking
                    },
                    mode: if mode {
                        RunMode::Eigenvalue
                    } else {
                        RunMode::FixedSource
                    },
                    particles,
                    inactive,
                    active,
                    seed: has_seed.then_some(seed),
                    survival,
                    entropy_mesh,
                    mesh_tally: has_mesh.then_some(mesh),
                    spectrum,
                    checkpoint_every: has_cp.then_some(cp_every),
                    max_chain,
                    policy: match policy_kind {
                        0 => PolicySpec::Serial,
                        1 => PolicySpec::Threaded { threads },
                        _ => PolicySpec::Distributed { ranks },
                    },
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every expressible plan survives a TOML round-trip unchanged —
    /// the property `mcs run --plan` relies on for bit-identical replay.
    #[test]
    fn run_plan_toml_round_trip_is_lossless(plan in arb_plan()) {
        let text = plan.to_toml();
        let back = RunPlan::from_toml(&text)
            .unwrap_or_else(|e| panic!("unparseable plan:\n{text}\n{e}"));
        prop_assert_eq!(&plan, &back, "round-trip changed the plan:\n{}", text);
        // Serialization is deterministic: a second trip is a fixed point.
        prop_assert_eq!(text, back.to_toml());
    }
}
