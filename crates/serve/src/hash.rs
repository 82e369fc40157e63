//! Canonical plan hashing — the memoization key of the service.
//!
//! The repo's signature contract (every [`RunPlan`] yields a
//! `to_bits`-identical `EigenvalueResult` under any `ExecutionPolicy`)
//! means the *physics* of a plan fully determines its result. The
//! canonical hash therefore digests the plan's `[plan]` TOML section —
//! a stable, field-ordered serialization owned by `mcs_core` — with two
//! normalizations applied first:
//!
//! 1. **`policy` is excluded.** Serial, threaded, and distributed
//!    submissions of the same physics coalesce onto one cache entry;
//!    the determinism contract is what makes that sound.
//! 2. **`seed` is resolved.** `seed = None` and an explicit override
//!    equal to the model default are the same run, so the canonical
//!    text always carries the resolved seed.
//!
//! Every other field is kept, conservatively: `traversal` is
//! bitwise-invisible and `checkpoint_every` only changes statepoint
//! cadence, but excluding a field that later grows a result-visible
//! effect would silently poison the cache, while including one that
//! doesn't only costs a few redundant cold runs.

use mcs_core::engine::{PolicySpec, RunPlan};

/// Domain-separation prefix folded into every plan hash, versioned so a
/// canonicalization change invalidates old caches instead of colliding
/// with them.
pub const HASH_DOMAIN: &str = "mcs-plan-hash/1";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The canonical text a plan's hash digests: the `[plan]` section of
/// [`RunPlan::to_toml`] after normalizing `policy` to `Serial` and
/// `seed` to [`RunPlan::resolved_seed`]. The `[policy]` section is cut
/// off entirely so the digest cannot depend on it even if the policy
/// serialization grows fields.
pub fn canonical_text(plan: &RunPlan) -> String {
    let mut canon = plan.clone();
    canon.policy = PolicySpec::Serial;
    canon.seed = Some(plan.resolved_seed());
    let toml = canon.to_toml();
    match toml.split_once("\n[policy]") {
        Some((physics, _)) => physics.to_string(),
        None => toml,
    }
}

/// Canonical 64-bit plan hash: FNV-1a over [`HASH_DOMAIN`] plus
/// [`canonical_text`]. Stable across policies, field-order stable (the
/// serializer emits fields in declaration order), and stable through a
/// `to_toml`/`from_toml` round trip.
pub fn plan_hash(plan: &RunPlan) -> u64 {
    let h = fnv1a(FNV_OFFSET, HASH_DOMAIN.as_bytes());
    fnv1a(h, canonical_text(plan).as_bytes())
}

/// Wire form of a plan hash: fixed-width lowercase hex.
pub fn hash_hex(hash: u64) -> String {
    format!("{hash:016x}")
}

/// Parse the wire form back ([`hash_hex`] inverse).
pub fn parse_hash_hex(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Key under which the scheduler shares one built [`mcs_core::Problem`]
/// across jobs: exactly the fields `RunPlan::build_problem` consumes —
/// `model` (name + overrides), `traversal`, `survival`, and the resolved
/// `seed` — and nothing else. Two plans with equal problem keys run
/// against the same `Arc<Problem>`, whose `XsContext` instrumentation
/// counters then aggregate lookups across all of them.
pub fn problem_key(plan: &RunPlan) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, b"mcs-problem-key/2");
    h = fnv1a(h, plan.model.spec_string().as_bytes());
    h = fnv1a(h, plan.traversal.name().as_bytes());
    h = fnv1a(h, &[plan.survival as u8]);
    fnv1a(h, &plan.resolved_seed().to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_core::engine::RunPlan;

    #[test]
    fn policy_never_reaches_the_digest() {
        let mut plan = RunPlan::default();
        let base = plan_hash(&plan);
        for policy in [
            PolicySpec::Serial,
            PolicySpec::Threaded { threads: 7 },
            PolicySpec::Distributed { ranks: 3 },
        ] {
            plan.policy = policy;
            assert_eq!(plan_hash(&plan), base);
        }
    }

    #[test]
    fn default_seed_and_explicit_default_coalesce() {
        let implicit = RunPlan::default();
        let explicit = RunPlan {
            seed: Some(implicit.resolved_seed()),
            ..RunPlan::default()
        };
        assert_eq!(plan_hash(&implicit), plan_hash(&explicit));
        let other = RunPlan {
            seed: Some(implicit.resolved_seed() ^ 1),
            ..RunPlan::default()
        };
        assert_ne!(plan_hash(&implicit), plan_hash(&other));
    }

    #[test]
    fn hex_round_trips() {
        for h in [0u64, 1, u64::MAX, 0xdead_beef_cafe_f00d] {
            assert_eq!(parse_hash_hex(&hash_hex(h)), Some(h));
        }
        assert_eq!(parse_hash_hex("xyz"), None);
        assert_eq!(parse_hash_hex("00"), None);
    }

    #[test]
    fn canonical_text_has_no_policy_section() {
        let text = canonical_text(&RunPlan::default());
        assert!(text.starts_with("[plan]\n"));
        assert!(!text.contains("[policy]"));
        assert!(text.contains("seed = "));
    }
}
