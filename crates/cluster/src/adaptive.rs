//! Runtime-adaptive load balancing — the paper's §V proposal, implemented.
//!
//! > "α can be determined at runtime by setting it to 1/p on the first
//! > batch, and using the measured calculation rates to determine an
//! > appropriate α for subsequent batches."
//!
//! [`AdaptiveBalancer`] starts from the even split, observes each batch's
//! per-rank wall times, and reassigns particles proportionally to the
//! *measured effective rates*. Because effective rates depend on the
//! assignment (the Fig. 5 knee), this is a fixed-point iteration; on the
//! affine rank law it converges in a few batches and strictly beats the
//! static Eq. 3 split whenever per-rank counts sit on the knee — exactly
//! the regime where the paper's 1,024-node curve tails off.

use mcs_core::balance::proportional_split;

use crate::rank::Rank;

/// Batch-by-batch adaptive balancer.
#[derive(Debug, Clone)]
pub struct AdaptiveBalancer {
    n_total: u64,
    assignments: Vec<u64>,
}

impl AdaptiveBalancer {
    /// Start with the even (1/p) split, as the paper proposes.
    pub fn new(n_ranks: usize, n_total: u64) -> Self {
        assert!(n_ranks > 0);
        let mut assignments = vec![n_total / n_ranks as u64; n_ranks];
        for a in assignments
            .iter_mut()
            .take((n_total % n_ranks as u64) as usize)
        {
            *a += 1;
        }
        Self {
            n_total,
            assignments,
        }
    }

    /// Current per-rank assignment.
    pub fn assignments(&self) -> &[u64] {
        &self.assignments
    }

    /// Feed back the measured per-rank batch times; reassigns particles
    /// proportionally to the measured effective rates (n_i / t_i).
    pub fn observe(&mut self, batch_times: &[f64]) {
        assert_eq!(batch_times.len(), self.assignments.len());
        let measured: Vec<Option<f64>> = self
            .assignments
            .iter()
            .zip(batch_times)
            .map(|(&n, &t)| {
                if t > 0.0 && n > 0 {
                    Some(n as f64 / t)
                } else {
                    None
                }
            })
            .collect();
        // Ranks with no measurement (they were assigned nothing) re-enter
        // at the mean measured rate, so a degenerate observation cannot
        // starve them forever.
        let known: Vec<f64> = measured.iter().flatten().copied().collect();
        let fallback = if known.is_empty() {
            1.0
        } else {
            known.iter().sum::<f64>() / known.len() as f64
        };
        let rates: Vec<f64> = measured.iter().map(|m| m.unwrap_or(fallback)).collect();
        self.assignments = proportional_split(self.n_total, &rates);
    }
}

/// One step of a simulated batch on the affine rank law.
fn simulate_batch(ranks: &[Rank], assignments: &[u64]) -> (f64, Vec<f64>) {
    let times: Vec<f64> = ranks
        .iter()
        .zip(assignments)
        .map(|(r, &n)| r.batch_time(n))
        .collect();
    let wall = times.iter().cloned().fold(0.0, f64::max);
    (wall, times)
}

/// Simulate `batches` adaptive batches; returns each batch's wall time.
pub fn simulate_adaptive(ranks: &[Rank], n_total: u64, batches: usize) -> Vec<f64> {
    let mut balancer = AdaptiveBalancer::new(ranks.len(), n_total);
    let mut walls = Vec::with_capacity(batches);
    for _ in 0..batches {
        let (wall, times) = simulate_batch(ranks, balancer.assignments());
        walls.push(wall);
        balancer.observe(&times);
    }
    walls
}

/// The static Eq.-3 split's wall time (α from nominal rates, ignoring the
/// knee) for comparison.
pub fn static_alpha_wall(ranks: &[Rank], n_total: u64) -> f64 {
    let rates: Vec<f64> = ranks.iter().map(|r| r.nominal_rate).collect();
    let split = proportional_split(n_total, &rates);
    simulate_batch(ranks, &split).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jlse_ranks() -> Vec<Rank> {
        vec![Rank::cpu("cpu", 4_050.0), Rank::mic("mic", 6_641.0)]
    }

    #[test]
    fn first_batch_is_even_split() {
        let b = AdaptiveBalancer::new(3, 10);
        assert_eq!(b.assignments(), &[4, 3, 3]);
        assert_eq!(b.assignments().iter().sum::<u64>(), 10);
    }

    #[test]
    fn one_observation_recovers_eq3_at_large_n() {
        // With plenty of particles the knee is negligible, so measured
        // rates ≈ nominal and the second batch matches the paper's static
        // Eq. 3 split.
        let ranks = jlse_ranks();
        let mut b = AdaptiveBalancer::new(2, 10_000_000);
        let (_, times) = simulate_batch(&ranks, b.assignments());
        b.observe(&times);
        let total_rate: f64 = 4_050.0 + 6_641.0;
        let want_cpu = (10_000_000.0 * 4_050.0 / total_rate).round() as i64;
        let got_cpu = b.assignments()[0] as i64;
        assert!(
            (got_cpu - want_cpu).abs() < 3_000,
            "{got_cpu} vs {want_cpu}"
        );
    }

    #[test]
    fn adaptive_walls_are_monotone_nonincreasing_and_converge() {
        let ranks = jlse_ranks();
        let walls = simulate_adaptive(&ranks, 50_000, 8);
        for w in walls.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-9), "{} -> {}", w[0], w[1]);
        }
        // Converged: the last two batches agree to 0.1%.
        let last = walls[walls.len() - 1];
        let prev = walls[walls.len() - 2];
        assert!((last - prev).abs() / last < 1e-3);
    }

    #[test]
    fn adaptive_beats_static_alpha_on_the_knee() {
        // The paper's 1,024-node regime: ~9,800 particles per node means
        // the MIC rank sits on its knee; the static α split overloads it,
        // the adaptive split corrects.
        let ranks = jlse_ranks();
        let n = 9_800;
        let static_wall = static_alpha_wall(&ranks, n);
        let adaptive_wall = *simulate_adaptive(&ranks, n, 6).last().unwrap();
        assert!(
            adaptive_wall < static_wall * 0.995,
            "adaptive {adaptive_wall:.5} !< static {static_wall:.5}"
        );
    }

    #[test]
    fn adaptive_matches_static_away_from_the_knee() {
        // With 10⁷ particles the knee is irrelevant: both schemes land on
        // the same split, within rounding.
        let ranks = jlse_ranks();
        let n = 10_000_000;
        let static_wall = static_alpha_wall(&ranks, n);
        let adaptive_wall = *simulate_adaptive(&ranks, n, 4).last().unwrap();
        assert!((adaptive_wall - static_wall).abs() / static_wall < 1e-3);
    }

    #[test]
    fn zero_assignment_ranks_recover() {
        // Degenerate feedback must not wedge a rank at zero forever.
        let mut b = AdaptiveBalancer::new(2, 100);
        b.observe(&[1e-9, 1.0]); // rank 0 looks infinitely fast
                                 // rank 0 now holds everything; next observation rebalances.
        let (_, times) = simulate_batch(&jlse_ranks(), b.assignments());
        b.observe(&times);
        assert!(b.assignments().iter().all(|&n| n > 0));
    }
}
