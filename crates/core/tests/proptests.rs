//! Property tests for the transport engine's data structures and physics.

use mcs_core::particle::{sort_sites, ParticleBank, Site, SourceSite};
use mcs_core::physics::{elastic_kinematics, sample_watt, WATT_A, WATT_B};
use mcs_geom::Vec3;
use mcs_rng::Lcg63;
use proptest::prelude::*;

fn bank_of(n: usize) -> ParticleBank {
    let sites: Vec<SourceSite> = (0..n)
        .map(|i| SourceSite {
            pos: Vec3::new(i as f64, 0.0, 0.0),
            energy: 1.0,
        })
        .collect();
    let streams: Vec<Lcg63> = (0..n).map(|i| Lcg63::for_history(1, i as u64, 7)).collect();
    ParticleBank::from_sources(&sites, &streams)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn compaction_preserves_survivors_in_order(
        n in 1usize..64,
        dead_mask in prop::collection::vec(any::<bool>(), 1..64),
    ) {
        let mut bank = bank_of(n);
        let dead: Vec<bool> = (0..n)
            .map(|i| *dead_mask.get(i).unwrap_or(&false))
            .collect();
        let expected: Vec<u32> = (0..n as u32)
            .filter(|&i| !dead[i as usize])
            .collect();
        let (ptr, cap) = (bank.alive.as_ptr(), bank.alive.capacity());
        bank.retain_alive(&dead);
        prop_assert_eq!(&bank.alive, &expected);
        // In place: no reallocation.
        prop_assert_eq!(bank.alive.as_ptr(), ptr);
        prop_assert_eq!(bank.alive.capacity(), cap);
        // Idempotent: the same flags remove nothing more.
        bank.retain_alive(&dead);
        prop_assert_eq!(&bank.alive, &expected);
    }

    #[test]
    fn repeated_compaction_never_duplicates(
        n in 2usize..32,
        kills in prop::collection::vec(0usize..32, 0..16),
    ) {
        let mut bank = bank_of(n);
        let mut dead = vec![false; n];
        for &k in &kills {
            if bank.n_alive() == 0 { break; }
            dead[bank.alive[k % bank.n_alive()] as usize] = true;
            bank.retain_alive(&dead);
        }
        let mut seen = bank.alive.clone();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), bank.alive.len(), "duplicated index");
    }

    #[test]
    fn sort_sites_is_total_and_stable_on_keys(
        keys in prop::collection::vec((0u32..20, 0u32..10), 0..50),
    ) {
        let mut sites: Vec<Site> = keys
            .iter()
            .map(|&(parent, seq)| Site {
                pos: Vec3::ZERO,
                energy: 1.0,
                parent,
                seq,
            })
            .collect();
        sort_sites(&mut sites);
        for w in sites.windows(2) {
            prop_assert!((w[0].parent, w[0].seq) <= (w[1].parent, w[1].seq));
        }
        prop_assert_eq!(sites.len(), keys.len());
    }

    #[test]
    fn elastic_scatter_is_deterministic_and_bounded(
        e in 1e-10f64..20.0,
        awr in 1.0f64..240.0,
        mu in -1.0f64..1.0,
    ) {
        let a = elastic_kinematics(e, awr, mu);
        let b = elastic_kinematics(e, awr, mu);
        prop_assert_eq!(a, b);
        prop_assert!(a.0.is_finite() && a.1.is_finite());
    }

    #[test]
    fn watt_sampling_is_reproducible_per_stream(seed in any::<u64>()) {
        let mut r1 = Lcg63::new(seed);
        let mut r2 = Lcg63::new(seed);
        for _ in 0..16 {
            prop_assert_eq!(
                sample_watt(&mut r1, WATT_A, WATT_B),
                sample_watt(&mut r2, WATT_A, WATT_B)
            );
        }
    }
}

#[test]
fn watt_spectrum_has_correct_tail_shape() {
    // P(E > 10 MeV) for Watt(0.988, 2.249) is small but nonzero (~3e-4);
    // P(E > 20 MeV) is negligible at 2e5 samples.
    let mut rng = Lcg63::new(55);
    let n = 200_000;
    let mut over10 = 0;
    let mut over20 = 0;
    for _ in 0..n {
        let e = sample_watt(&mut rng, WATT_A, WATT_B);
        if e > 10.0 {
            over10 += 1;
        }
        if e > 20.0 {
            over20 += 1;
        }
    }
    let frac10 = over10 as f64 / n as f64;
    assert!(frac10 > 1e-5 && frac10 < 5e-3, "P(E>10) = {frac10}");
    assert!(over20 <= 2, "P(E>20) should be negligible, saw {over20}");
}

#[test]
fn balance_partition_properties() {
    use mcs_core::balance::proportional_split;
    let mut rng = Lcg63::new(8);
    for _ in 0..200 {
        let n_ranks = 1 + (rng.next_uniform() * 8.0) as usize;
        let rates: Vec<f64> = (0..n_ranks)
            .map(|_| 0.1 + rng.next_uniform() * 10.0)
            .collect();
        let n_total = (rng.next_uniform() * 1e6) as u64;
        let split = proportional_split(n_total, &rates);
        assert_eq!(split.iter().sum::<u64>(), n_total);
        // Assignment ordering follows rate ordering (within rounding 1).
        for i in 0..n_ranks {
            for j in 0..n_ranks {
                if rates[i] > rates[j] {
                    assert!(
                        split[i] + 1 >= split[j],
                        "faster rank got strictly less: {split:?} rates {rates:?}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever the material mix or chunk cap, `bucket_by_material`
    /// emits the live list grouped by material (material-id order,
    /// live-list order within a material) and tiled exactly by
    /// single-material tasks — the structural property the event
    /// engine's bitwise-determinism argument stands on.
    #[test]
    fn queue_partition_is_a_permutation(
        n in 0usize..600,
        n_mats in 1usize..5,
        chunk in 1usize..300,
        seed in any::<u64>(),
    ) {
        use mcs_core::event::{bucket_by_material, QueueBuffers};
        let mut rng = Lcg63::new(seed | 1);
        let alive: Vec<u32> = (0..n as u32).collect();
        let material: Vec<u32> = (0..n)
            .map(|_| (rng.next_uniform() * n_mats as f64) as u32 % n_mats as u32)
            .collect();
        let mut bufs = QueueBuffers::new(n_mats);
        bucket_by_material(&alive, &material, chunk, &mut bufs);

        // A stable sort of the live list by material — so a permutation.
        let mut grouped = alive.clone();
        grouped.sort_by_key(|&iu| material[iu as usize]);
        prop_assert_eq!(&bufs.queued, &grouped);

        // Tasks tile `queued` exactly, respect the cap, stay one-material.
        let mut cursor = 0u32;
        for t in &bufs.tasks {
            prop_assert_eq!(t.start, cursor);
            prop_assert!(t.end > t.start);
            prop_assert!((t.end - t.start) as usize <= chunk);
            for &iu in &bufs.queued[t.start as usize..t.end as usize] {
                prop_assert_eq!(material[iu as usize], t.mat);
            }
            cursor = t.end;
        }
        prop_assert_eq!(cursor as usize, bufs.queued.len());
    }
}
