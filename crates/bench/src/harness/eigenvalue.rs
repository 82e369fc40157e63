//! Event-vs-history determinism: the two transport drivers walk the
//! same trajectories, so per-batch k-eff must agree bit-for-bit.
//!
//! This runs its own small eigenvalue problem and emits no table — the
//! claim underpins every event-based result in the paper reproduction.

use mcs_core::engine::{self, Algorithm, RunPlan, Threaded};
use mcs_core::problem::{HmModel, Problem, ProblemConfig};

use super::{check, holds, Band, CheckOutcome, Harness, HarnessRun};

/// Registry entry.
pub const HARNESS: Harness = Harness {
    name: "eigenvalue",
    title: "Event vs history transport: per-batch k-eff bit-identity (H.M. Small)",
    tables: &[],
    run: |scale, _verbose| HarnessRun::new(score(scale), vec![]),
};

/// Run both drivers on one plan at `scale` and score their agreement.
pub fn score(scale: f64) -> Vec<CheckOutcome> {
    let problem = Problem::hm(HmModel::Small, &ProblemConfig::default());
    let plan = RunPlan {
        particles: crate::scaled_by(2_000, scale).max(100),
        inactive: 1,
        active: 2,
        entropy_mesh: (4, 4, 2),
        ..RunPlan::default()
    };
    let rh = engine::run_with_problem(&problem, &plan, &mut Threaded::ambient())
        .into_eigenvalue()
        .result;
    let re = engine::run_with_problem(
        &problem,
        &RunPlan {
            algorithm: Algorithm::EventBanking,
            ..plan
        },
        &mut Threaded::ambient(),
    )
    .into_eigenvalue()
    .result;
    let bitwise = rh
        .batches
        .iter()
        .zip(&re.batches)
        .all(|(a, b)| a.k_track.to_bits() == b.k_track.to_bits());
    let max_rel = rh
        .batches
        .iter()
        .zip(&re.batches)
        .map(|(a, b)| (a.k_track - b.k_track).abs() / a.k_track.abs().max(1e-300))
        .fold(0.0, f64::max);
    vec![
        check(
            "EV.k_bitwise",
            "per-batch k-eff is bit-identical between event and history transport",
            holds(bitwise),
            Band::Holds,
        ),
        check(
            "EV.k_max_rel_diff",
            "worst per-batch relative k disagreement between the two drivers",
            max_rel,
            Band::AtMost(1e-12),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_history_keff_bitwise_holds() {
        for c in score(0.02) {
            assert!(c.passed, "{}: value {} not in {}", c.id, c.value, c.band);
        }
    }
}
