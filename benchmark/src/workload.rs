//! The four workloads and everything generated from `--seed`: plan seeds,
//! the serve plan list, its replay order and the pipelined mix. The program
//! under test sees only the generated plan TOML and protocol lines.

use mcs::core::engine::{Algorithm, ModelSpec, PolicySpec, RunPlan};

/// The seed the committed plan files and `.expected` pins belong to.
pub const DEFAULT_SEED: u64 = 0x11;

/// The shape of a workload's `mcs serve` session. Plans use the
/// workload's model, mesh and checkpoint settings at this bank size.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeShape {
    pub particles: usize,
    pub inactive: usize,
    pub active: usize,
    /// Phase A: distinct plans, each submitted once, cold.
    pub n_cold: usize,
    /// Phase B: every phase-A plan is replayed this many times, shuffled.
    pub replays: usize,
    /// Phase C: submissions pipelined over both connections; every fifth
    /// is a new plan, the rest draw from the hot set.
    pub pipelined: usize,
    /// Phase C: the first `hot_set` phase-A plans.
    pub hot_set: usize,
    pub salt: Salt,
}

/// What makes plan `i` of a session a plan of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Salt {
    /// Seed `base + i`. Every seed is a problem of its own in the server's
    /// pool: the session exercises pool misses and evictions.
    Seed,
    /// `particles + i` on one seed: every job shares one pooled problem.
    /// A 357 MB problem per plan would measure the pool, not the model.
    Bank,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub model: &'static str,
    pub particles: usize,
    pub inactive: usize,
    pub active: usize,
    pub mesh_tally: Option<(usize, usize, usize)>,
    pub checkpoint_every: Option<usize>,
    /// Share of `--seconds` the `mcs run` children may fill; the serve
    /// session has fixed sizes so that its counts repeat exactly.
    pub cli_share: f64,
    /// History/event child pairs run even when `--seconds` is spent.
    pub min_reps: usize,
    pub setup_reps: usize,
    /// Allocated, page-touched and freed before every timed child.
    pub prefault_mb: usize,
    pub serve: ServeShape,
}

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "geom_smr",
            why: "SMR assembly-lattice core at bank 10^4: locate+boundary ~47% of event time, xs ~35%, so geometry caching, SoA banks and fused kernels show here",
            model: "smr",
            particles: 10_000,
            inactive: 1,
            active: 3,
            mesh_tally: None,
            checkpoint_every: None,
            cli_share: 0.8,
            min_reps: 2,
            setup_reps: 7,
            prefault_mb: 128,
            serve: ServeShape {
                particles: 400,
                inactive: 1,
                active: 2,
                n_cold: 48,
                replays: 2,
                pipelined: 200,
                hot_set: 8,
                salt: Salt::Bank,
            },
        },
        Workload {
            name: "xs_large",
            why: "the paper's 320-nuclide H-M problem, 341 MB unionized index: xs_lookup ~71% of event time, set-up ~24% of a run, so XS-kernel, grid and library-build work shows here",
            model: "large",
            particles: 3_000,
            inactive: 1,
            active: 2,
            mesh_tally: None,
            checkpoint_every: None,
            cli_share: 0.8,
            min_reps: 3,
            setup_reps: 3,
            prefault_mb: 768,
            serve: ServeShape {
                particles: 100,
                inactive: 1,
                active: 2,
                n_cold: 24,
                replays: 2,
                pipelined: 200,
                hot_set: 4,
                salt: Salt::Bank,
            },
        },
        Workload {
            name: "bank_small",
            why: "256-particle banks, 100 batches, mesh tally, statepoints: per-iteration, between-batch and tally overhead shows; a bank-wide SIMD win at 10^4 that loses here must show",
            model: "test",
            particles: 256,
            inactive: 10,
            active: 90,
            mesh_tally: Some((17, 17, 4)),
            checkpoint_every: Some(10),
            cli_share: 0.8,
            min_reps: 3,
            setup_reps: 7,
            prefault_mb: 64,
            serve: ServeShape {
                particles: 256,
                inactive: 2,
                active: 5,
                n_cold: 48,
                replays: 2,
                pipelined: 200,
                hot_set: 8,
                salt: Salt::Bank,
            },
        },
        Workload {
            name: "serve_mix",
            why: "mcs serve under a closed loop of 2 connections: 120 cold seed-salted plans, 360 cache hits, 400 pipelined 80/20 hot/new; a gain for cold that costs warm (or the reverse) shows",
            model: "test",
            particles: 1_000,
            inactive: 1,
            active: 2,
            mesh_tally: None,
            checkpoint_every: None,
            cli_share: 0.1,
            min_reps: 15,
            setup_reps: 7,
            prefault_mb: 64,
            serve: ServeShape {
                particles: 1_000,
                inactive: 1,
                active: 2,
                n_cold: 120,
                replays: 3,
                pipelined: 400,
                hot_set: 8,
                salt: Salt::Seed,
            },
        },
    ]
}

#[cfg(test)]
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The plumbing-check variant: same code path and metric names, one
    /// repetition, tiny banks, and the `small` library in place of `large`.
    pub fn smoke(&self) -> Workload {
        Workload {
            model: if self.model == "large" {
                "small"
            } else {
                self.model
            },
            particles: self.particles.min(64),
            inactive: self.inactive.min(1),
            active: self.active.min(3),
            checkpoint_every: self.checkpoint_every.map(|_| 2),
            cli_share: 0.0,
            min_reps: 1,
            setup_reps: 1,
            prefault_mb: 0,
            serve: ServeShape {
                particles: 32,
                inactive: 1,
                active: 2,
                n_cold: 4,
                replays: 1,
                pipelined: 10,
                hot_set: 2,
                salt: self.serve.salt,
            },
            ..self.clone()
        }
    }

    fn base_plan(&self) -> RunPlan {
        RunPlan {
            model: ModelSpec::named(self.model),
            mesh_tally: self.mesh_tally,
            checkpoint_every: self.checkpoint_every,
            policy: PolicySpec::Serial,
            ..RunPlan::default()
        }
    }

    /// The plan `mcs run --plan` executes for this workload. History and
    /// event share the plan seed, so their outputs must be identical.
    pub fn run_plan(&self, algorithm: Algorithm, seed: u64) -> RunPlan {
        RunPlan {
            algorithm,
            particles: self.particles,
            inactive: self.inactive,
            active: self.active,
            seed: Some(derive(seed, &format!("{}/plan", self.name))),
            ..self.base_plan()
        }
    }

    /// Serve plan `i` of this workload's session.
    pub fn serve_plan(&self, i: usize, seed: u64) -> RunPlan {
        let base = derive(seed, &format!("{}/serve", self.name));
        let (bank, seed) = match self.serve.salt {
            Salt::Seed => (0, i as u64),
            Salt::Bank => (i, 0),
        };
        RunPlan {
            particles: self.serve.particles + bank,
            inactive: self.serve.inactive,
            active: self.serve.active,
            seed: Some(base.wrapping_add(seed)),
            ..self.base_plan()
        }
    }

    pub fn serve_session(&self, seed: u64) -> ServeSession {
        let s = &self.serve;
        let mut rng = SplitMix64::new(derive(seed, &format!("{}/serve-order", self.name)));
        let mut replay: Vec<usize> = (0..s.n_cold * s.replays).map(|i| i % s.n_cold).collect();
        rng.shuffle(&mut replay);
        let mut pipelined = Vec::with_capacity(s.pipelined);
        let mut next_new = s.n_cold;
        for j in 0..s.pipelined {
            if j % 5 == 4 {
                pipelined.push(next_new);
                next_new += 1;
            } else {
                pipelined.push(rng.below(s.hot_set.min(s.n_cold)));
            }
        }
        ServeSession {
            plans: (0..next_new).map(|i| self.serve_plan(i, seed)).collect(),
            n_cold: s.n_cold,
            replay,
            pipelined,
        }
    }
}

/// Every submission of one serve session, as indices into `plans`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSession {
    /// Every distinct plan: the first `n_cold` are phase A, the rest are
    /// the new plans of phase C.
    pub plans: Vec<RunPlan>,
    pub n_cold: usize,
    /// Phase B order.
    pub replay: Vec<usize>,
    /// Phase C order.
    pub pipelined: Vec<usize>,
}

impl ServeSession {
    pub fn submissions(&self) -> usize {
        self.n_cold + self.replay.len() + self.pipelined.len()
    }
}

/// A sub-seed of `seed` for one named purpose.
pub fn derive(seed: u64, label: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    SplitMix64::new(seed ^ h).next_u64()
}

/// The harness's own generator, for shuffles and probe samples.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.uniform() * n as f64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs::serve::plan_hash;
    use std::collections::BTreeSet;

    #[test]
    fn the_same_seed_gives_the_same_plan_toml_and_shuffle() {
        for w in all() {
            for algorithm in [Algorithm::History, Algorithm::EventBanking] {
                assert_eq!(
                    w.run_plan(algorithm, 5).to_toml(),
                    w.run_plan(algorithm, 5).to_toml()
                );
                assert_ne!(
                    w.run_plan(algorithm, 5).to_toml(),
                    w.run_plan(algorithm, 6).to_toml()
                );
            }
            let a = w.serve_session(5);
            let b = w.serve_session(5);
            let c = w.serve_session(6);
            assert_eq!(a, b);
            assert_ne!(a.replay, c.replay, "{}: shuffle ignores the seed", w.name);
            let toml = |s: &ServeSession| s.plans.iter().map(RunPlan::to_toml).collect::<Vec<_>>();
            assert_eq!(toml(&a), toml(&b));
            assert_ne!(toml(&a), toml(&c));
        }
    }

    #[test]
    fn history_and_event_plans_differ_only_in_the_algorithm() {
        for w in all() {
            let h = w.run_plan(Algorithm::History, DEFAULT_SEED);
            let e = w.run_plan(Algorithm::EventBanking, DEFAULT_SEED);
            assert_eq!(
                RunPlan {
                    algorithm: Algorithm::History,
                    ..e
                },
                h
            );
        }
    }

    #[test]
    fn serve_sessions_have_the_counts_the_output_checks_rely_on() {
        for w in all().iter().flat_map(|w| [w.clone(), w.smoke()]) {
            let s = w.serve_session(DEFAULT_SEED);
            let shape = &w.serve;
            assert_eq!(s.replay.len(), shape.n_cold * shape.replays);
            assert_eq!(s.pipelined.len(), shape.pipelined);
            assert_eq!(s.plans.len(), shape.n_cold + shape.pipelined / 5);
            // Every plan is a cache entry of its own.
            let hashes: BTreeSet<u64> = s.plans.iter().map(plan_hash).collect();
            assert_eq!(hashes.len(), s.plans.len(), "{}", w.name);
            // Phase B replays every phase-A plan equally often.
            for i in 0..shape.n_cold {
                assert_eq!(s.replay.iter().filter(|&&r| r == i).count(), shape.replays);
            }
            // Phase C: every fifth submission is new, the rest are hot.
            for (j, &p) in s.pipelined.iter().enumerate() {
                if j % 5 == 4 {
                    assert!(p >= shape.n_cold);
                } else {
                    assert!(p < shape.hot_set);
                }
            }
        }
    }

    #[test]
    fn a_bank_salted_session_keeps_one_seed() {
        let w = by_name("xs_large").unwrap();
        assert_eq!(w.serve.salt, Salt::Bank);
        let s = w.serve_session(DEFAULT_SEED);
        let seeds: BTreeSet<_> = s.plans.iter().map(|p| p.seed).collect();
        assert_eq!(seeds.len(), 1);
        let banks: BTreeSet<_> = s.plans.iter().map(|p| p.particles).collect();
        assert_eq!(banks.len(), s.plans.len());
    }

    #[test]
    fn committed_plan_files_are_the_default_seed_plans() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("workloads");
        for w in all() {
            for algorithm in [Algorithm::History, Algorithm::EventBanking] {
                let path = dir.join(format!("{}.{}.toml", w.name, algorithm.keyword()));
                let committed = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                assert_eq!(
                    committed,
                    w.run_plan(algorithm, DEFAULT_SEED).to_toml(),
                    "{} is stale: regenerate with --bless",
                    path.display()
                );
            }
        }
    }

    #[test]
    fn derive_separates_purposes() {
        assert_ne!(derive(1, "a"), derive(1, "b"));
        assert_ne!(derive(1, "a"), derive(2, "a"));
        assert_eq!(derive(1, "a"), derive(1, "a"));
    }
}
