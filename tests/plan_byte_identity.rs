//! Pins what "plan text is byte-identical" means. The default-plan
//! literals were captured at the parent of PR 13 (which removed the
//! stage-2 queueing options but keeps emitting their three TOML lines as
//! constants); the fully-populated ones at the parent of PR 14 (which
//! removed the plan-level device selector), for the same plan on the
//! default device. If plan text, the canonical hash or the problem key
//! ever drifts, every serve cache key and every committed
//! `benchmark/workloads/*.toml` silently stops matching — these fail first.

use mcs::core::engine::{Algorithm, ModelOverrides, ModelSpec, PolicySpec, RunPlan};
use mcs::core::{RodPattern, TraversalKind};
use mcs::serve::hash::{hash_hex, plan_hash, problem_key};

const DEFAULT_TOML: &str = "[plan]\nmodel = \"test\"\nalgorithm = \"history\"\n\
mode = \"eigenvalue\"\nparticles = 2000\ninactive = 3\nactive = 5\nsurvival = false\n\
entropy_mesh = [8, 8, 4]\nspectrum = false\nmax_chain = 100000\nqueueing = \"material\"\n\
queueing_bins = 4096\nqueueing_fuel_split = false\n\n[policy]\nkind = \"serial\"\n";

/// Every optional field set: model overrides, nested traversal, seed,
/// mesh tally, checkpoints, a non-serial policy.
fn fully_populated() -> RunPlan {
    RunPlan {
        model: ModelSpec {
            name: "smr".into(),
            overrides: ModelOverrides {
                assemblies: Some(21),
                enrichment: Some(1.12),
                rods: Some(RodPattern::Checkerboard),
                half_height: Some(90.5),
            },
        },
        traversal: TraversalKind::Nested,
        algorithm: Algorithm::EventBanking,
        particles: 12_345,
        inactive: 7,
        active: 11,
        seed: Some(0xDEAD_BEEF),
        survival: true,
        entropy_mesh: (4, 5, 6),
        mesh_tally: Some((10, 11, 12)),
        spectrum: true,
        checkpoint_every: Some(3),
        max_chain: 42,
        policy: PolicySpec::Distributed { ranks: 4 },
        ..RunPlan::default()
    }
}

#[test]
fn default_plan_text_and_hashes_are_the_pinned_literals() {
    let plan = RunPlan::default();
    assert_eq!(plan.to_toml(), DEFAULT_TOML);
    assert_eq!(hash_hex(plan_hash(&plan)), "39f1d60a5350cfb5");
    assert_eq!(hash_hex(problem_key(&plan)), "60ff7e225cab0a77");
}

#[test]
fn fully_populated_plan_hashes_are_the_pinned_literals() {
    let plan = fully_populated();
    assert_eq!(hash_hex(plan_hash(&plan)), "fc2e10335c54b08d");
    assert_eq!(hash_hex(problem_key(&plan)), "46f47e3015b13429");
    assert_eq!(RunPlan::from_toml(&plan.to_toml()).expect("parse"), plan);
}

#[test]
fn committed_benchmark_plans_round_trip_byte_for_byte() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmark/workloads");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("benchmark/workloads") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "toml") {
            let text = std::fs::read_to_string(&path).expect("read plan");
            let plan = RunPlan::from_toml(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            assert_eq!(plan.to_toml(), text, "{path:?}");
            seen += 1;
        }
    }
    assert_eq!(seen, 8, "expected the eight committed workload plans");
}
