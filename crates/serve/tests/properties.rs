//! Property tests for the canonical plan hash and the line protocol.
//!
//! The hash properties are the soundness argument of the result cache
//! written as executable statements: stable through serialization,
//! blind to `policy`, sensitive to every physics field. The codec
//! properties are the `TrendError::Corrupt` discipline: round-trips
//! are exact and malformed frames yield typed errors, never panics.

use std::sync::Arc;

use mcs_core::engine::{Algorithm, ModelSpec, PolicySpec, RunMode, RunPlan};
use mcs_core::TraversalKind;
use mcs_serve::hash::{canonical_text, hash_hex, parse_hash_hex, plan_hash};
use mcs_serve::protocol::{Priority, ProtoError, Request, Response, Source};
use mcs_serve::result::{ServedResult, TallySummary};
use proptest::prelude::*;

/// Build an arbitrary *valid* eigenvalue plan from flat primitives
/// (the vendored proptest has no derive, so the strategy is the
/// argument list and this constructor).
#[allow(clippy::too_many_arguments)]
fn build_plan(
    model: usize,
    algorithm: usize,
    particles: usize,
    inactive: usize,
    active: usize,
    seed: Option<u64>,
    survival: bool,
    entropy_mesh: (usize, usize, usize),
    mesh_tally: Option<(usize, usize, usize)>,
    spectrum: bool,
    checkpoint_every: Option<usize>,
    max_chain: usize,
    policy: usize,
) -> RunPlan {
    RunPlan {
        model: [ModelSpec::test(), ModelSpec::small(), ModelSpec::large()][model % 3].clone(),
        traversal: [TraversalKind::Flattened, TraversalKind::Nested][model % 2],
        algorithm: [Algorithm::History, Algorithm::EventBanking][algorithm % 2],
        mode: RunMode::Eigenvalue,
        particles: particles.max(1),
        inactive,
        active: if inactive == 0 { active.max(1) } else { active },
        seed,
        survival,
        entropy_mesh,
        mesh_tally,
        spectrum,
        checkpoint_every,
        max_chain: max_chain.max(1),
        policy: [
            PolicySpec::Serial,
            PolicySpec::Threaded { threads: 4 },
            PolicySpec::Distributed { ranks: 3 },
        ][policy % 3],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hash_stable_through_toml_round_trip(
        model in 0usize..3, algorithm in 0usize..2,
        particles in 1usize..1_000_000, inactive in 0usize..50,
        active in 0usize..50, seed in any::<u64>(),
        survival in any::<bool>(),
        ex in 1usize..32, ey in 1usize..32, ez in 1usize..32,
        spectrum in any::<bool>(), max_chain in 1usize..1_000_000,
        policy in 0usize..3,
    ) {
        let plan = build_plan(
            model, algorithm, particles, inactive, active, Some(seed),
            survival, (ex, ey, ez), None, spectrum, None, max_chain,
            policy,
        );
        let back = RunPlan::from_toml(&plan.to_toml()).expect("emitted TOML parses");
        prop_assert_eq!(plan_hash(&plan), plan_hash(&back));
        prop_assert_eq!(canonical_text(&plan), canonical_text(&back));
    }

    #[test]
    fn hash_blind_to_policy_and_resolved_seed_form(
        threads in 0usize..64, ranks in 1usize..64,
    ) {
        let base = RunPlan::default();
        let h = plan_hash(&base);
        for policy in [
            PolicySpec::Serial,
            PolicySpec::Threaded { threads },
            PolicySpec::Distributed { ranks },
        ] {
            let p = RunPlan { policy, ..RunPlan::default() };
            prop_assert_eq!(plan_hash(&p), h);
        }
        // seed: None vs the explicit model default are the same run.
        let explicit = RunPlan {
            seed: Some(base.resolved_seed()),
            ..RunPlan::default()
        };
        prop_assert_eq!(plan_hash(&explicit), h);
    }

    #[test]
    fn hash_sensitive_to_every_physics_field(salt in any::<u64>()) {
        let base = build_plan(
            0, 0, 2_000, 3, 5, Some(salt), false, (8, 8, 4), None,
            false, None, 100_000, 0,
        );
        let h = plan_hash(&base);
        let variants: Vec<(&str, RunPlan)> = vec![
            ("model", RunPlan { model: ModelSpec::small(), ..base.clone() }),
            ("model.overrides", RunPlan {
                model: ModelSpec {
                    overrides: mcs_core::engine::ModelOverrides {
                        enrichment: Some(1.1),
                        ..Default::default()
                    },
                    ..base.model.clone()
                },
                ..base.clone()
            }),
            ("traversal", RunPlan { traversal: TraversalKind::Nested, ..base.clone() }),
            ("algorithm", RunPlan { algorithm: Algorithm::EventBanking, ..base.clone() }),
            ("particles", RunPlan { particles: base.particles + 1, ..base.clone() }),
            ("inactive", RunPlan { inactive: base.inactive + 1, ..base.clone() }),
            ("active", RunPlan { active: base.active + 1, ..base.clone() }),
            ("seed", RunPlan { seed: Some(salt ^ 1), ..base.clone() }),
            ("survival", RunPlan { survival: true, ..base.clone() }),
            ("entropy_mesh", RunPlan { entropy_mesh: (8, 8, 5), ..base.clone() }),
            ("mesh_tally", RunPlan { mesh_tally: Some((4, 4, 2)), ..base.clone() }),
            ("spectrum", RunPlan { spectrum: true, ..base.clone() }),
            ("checkpoint_every", RunPlan { checkpoint_every: Some(2), ..base.clone() }),
            ("max_chain", RunPlan { max_chain: base.max_chain + 1, ..base.clone() }),
        ];
        for (field, variant) in variants {
            prop_assert_ne!(plan_hash(&variant), h, "field {} must perturb the hash", field);
        }
    }

    #[test]
    fn hash_hex_round_trips(h in any::<u64>()) {
        prop_assert_eq!(parse_hash_hex(&hash_hex(h)), Some(h));
    }

    #[test]
    fn request_codec_round_trips(
        model in 0usize..3, algorithm in 0usize..2,
        particles in 1usize..100_000, inactive in 0usize..20,
        active in 0usize..20, seed in any::<u64>(),
        survival in any::<bool>(), spectrum in any::<bool>(),
        policy in 0usize..3, high in any::<bool>(), progress in any::<bool>(),
    ) {
        let plan = build_plan(
            model, algorithm, particles, inactive, active, Some(seed),
            survival, (4, 4, 4), Some((3, 3, 3)), spectrum, Some(2),
            1_000, policy,
        );
        let req = Request::Submit {
            plan: Box::new(plan),
            priority: if high { Priority::High } else { Priority::Normal },
            progress,
        };
        prop_assert_eq!(Request::parse(&req.to_line()).expect("round trip"), req);
    }

    #[test]
    fn result_codec_round_trips_bitwise(
        plan_hash in any::<u64>(), batches in 0u64..32,
        k_bits in prop::collection::vec(any::<u64>(), 0..8),
        // Counters ride as JSON numbers: exact below 2^53 (see the
        // protocol module docs); full-width u64s ride as hex strings.
        id in 0u64..(1 << 53), source in 0usize..4,
        n_particles in 0u64..(1 << 53), track_bits in any::<u64>(),
    ) {
        let result = ServedResult {
            plan_hash,
            batches,
            k_mean_bits: k_bits.first().copied().unwrap_or(0),
            k_std_bits: k_bits.last().copied().unwrap_or(u64::MAX),
            k_history_bits: k_bits.clone(),
            entropy_bits: k_bits.iter().map(|b| b ^ 0x5555).collect(),
            tallies: TallySummary {
                n_particles,
                segments: n_particles / 2,
                collisions: 3,
                absorptions: 2,
                fissions: 1,
                leaks: 0,
                segments_by_material: [n_particles % 97; 8],
                collisions_by_material: [n_particles % 89; 8],
                track_length_bits: track_bits,
                k_track_bits: !track_bits,
                k_collision_bits: track_bits ^ 0xff,
                k_absorption_bits: track_bits.rotate_left(13),
            },
        };
        let resp = Response::Result {
            id,
            source: [Source::Cache, Source::Coalesced, Source::Scheduled, Source::Run][source],
            result: Arc::new(result),
        };
        prop_assert_eq!(Response::parse(&resp.to_line()).expect("round trip"), resp);
    }

    #[test]
    fn garbage_frames_yield_typed_errors_never_panics(
        bytes in prop::collection::vec(32u8..127, 0..200),
    ) {
        // Arbitrary printable garbage: decoding must return, and when
        // it errors the error is one of the typed variants.
        let junk: String = bytes.iter().map(|&b| b as char).collect();
        if let Err(e) = Request::parse(&junk) {
            prop_assert!(matches!(
                e,
                ProtoError::Corrupt { .. } | ProtoError::Invalid { .. } | ProtoError::BadPlan { .. }
            ));
        }
        if let Err(e) = Response::parse(&junk) {
            prop_assert!(matches!(
                e,
                ProtoError::Corrupt { .. } | ProtoError::Invalid { .. } | ProtoError::BadPlan { .. }
            ));
        }
    }

    #[test]
    fn truncated_frames_error_not_panic(cut in 0usize..400, req_not_resp in any::<bool>()) {
        let line = if req_not_resp {
            Request::Submit {
                plan: Box::new(RunPlan::default()),
                priority: Priority::Normal,
                progress: true,
            }
            .to_line()
        } else {
            Response::Accepted {
                id: 7,
                plan_hash: 0xdead_beef,
                source: Source::Scheduled,
            }
            .to_line()
        };
        let cut = cut.min(line.len());
        if line.is_char_boundary(cut) && cut < line.len() {
            let frag = &line[..cut];
            prop_assert!(Request::parse(frag).is_err());
            prop_assert!(Response::parse(frag).is_err());
        }
    }
}
