//! Particle state: AoS form for history transport, SoA bank for event
//! transport.

use mcs_geom::Vec3;
use mcs_rng::Lcg63;

/// A source site: where and with what energy a particle is born.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceSite {
    /// Birth position.
    pub pos: Vec3,
    /// Birth energy (MeV).
    pub energy: f64,
}

/// A fission site banked during transport, tagged for deterministic
/// ordering (the event loop discovers sites in stage order; sorting by
/// `(parent, seq)` restores the history loop's ordering exactly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Site {
    /// Position of the fission event.
    pub pos: Vec3,
    /// Energy of the banked fission neutron (already sampled from the
    /// Watt spectrum).
    pub energy: f64,
    /// Index of the parent particle within its batch.
    pub parent: u32,
    /// Birth order within the parent's history.
    pub seq: u32,
}

/// Canonical ordering for site banks (parent, then sequence).
pub fn sort_sites(sites: &mut [Site]) {
    sites.sort_by_key(|s| (s.parent, s.seq));
}

/// Full per-particle state for the history algorithm (array-of-structs,
/// the layout OpenMC uses).
#[derive(Debug, Clone)]
pub struct Particle {
    /// Current position.
    pub pos: Vec3,
    /// Unit flight direction.
    pub dir: Vec3,
    /// Kinetic energy (MeV).
    pub energy: f64,
    /// Statistical weight (1.0 analog; reduced by implicit capture under
    /// survival biasing).
    pub weight: f64,
    /// Dedicated RNG stream.
    pub rng: Lcg63,
    /// Batch-local index (for site tagging).
    pub index: u32,
    /// Number of fission sites this particle has banked.
    pub sites_banked: u32,
}

impl Particle {
    /// Born from a source site with a dedicated stream; direction is the
    /// stream's first two draws.
    pub fn born(site: SourceSite, index: u32, mut rng: Lcg63) -> Self {
        let dir = Vec3::isotropic(rng.next_uniform(), rng.next_uniform());
        Self {
            pos: site.pos,
            dir,
            energy: site.energy,
            weight: 1.0,
            rng,
            index,
            sites_banked: 0,
        }
    }
}

/// Struct-of-arrays particle bank for the event algorithm.
///
/// Positions/directions/energies live in parallel flat arrays so the
/// staged kernels stream through them; `alive` holds the indices of
/// not-yet-terminated particles and is compacted after every event
/// generation.
#[derive(Debug, Clone, Default)]
pub struct ParticleBank {
    /// x positions.
    pub x: Vec<f64>,
    /// y positions.
    pub y: Vec<f64>,
    /// z positions.
    pub z: Vec<f64>,
    /// Direction x components.
    pub u: Vec<f64>,
    /// Direction y components.
    pub v: Vec<f64>,
    /// Direction z components.
    pub w: Vec<f64>,
    /// Energies (MeV).
    pub energy: Vec<f64>,
    /// Statistical weights.
    pub weight: Vec<f64>,
    /// Per-particle RNG streams.
    pub rng: Vec<Lcg63>,
    /// Current material (refreshed by the locate stage).
    pub material: Vec<u32>,
    /// Sites banked per particle (sequence counter).
    pub sites_banked: Vec<u32>,
    /// Indices of live particles.
    pub alive: Vec<u32>,
}

impl ParticleBank {
    /// Build a bank from source sites; particle `i` gets stream
    /// `streams[i]` and its direction from that stream's first two draws
    /// (identical to [`Particle::born`]).
    pub fn from_sources(sites: &[SourceSite], streams: &[Lcg63]) -> Self {
        assert_eq!(sites.len(), streams.len());
        let n = sites.len();
        let mut bank = Self {
            x: Vec::with_capacity(n),
            y: Vec::with_capacity(n),
            z: Vec::with_capacity(n),
            u: Vec::with_capacity(n),
            v: Vec::with_capacity(n),
            w: Vec::with_capacity(n),
            energy: Vec::with_capacity(n),
            weight: vec![1.0; n],
            rng: Vec::with_capacity(n),
            material: vec![u32::MAX; n],
            sites_banked: vec![0; n],
            alive: (0..n as u32).collect(),
        };
        for (s, &stream) in sites.iter().zip(streams) {
            let mut rng = stream;
            let dir = Vec3::isotropic(rng.next_uniform(), rng.next_uniform());
            bank.x.push(s.pos.x);
            bank.y.push(s.pos.y);
            bank.z.push(s.pos.z);
            bank.u.push(dir.x);
            bank.v.push(dir.y);
            bank.w.push(dir.z);
            bank.energy.push(s.energy);
            bank.rng.push(rng);
        }
        bank
    }

    /// Total particles (live + dead).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.x.len()
    }

    /// Live particle count.
    #[inline]
    pub fn n_alive(&self) -> usize {
        self.alive.len()
    }

    /// Position of particle `i`.
    #[inline]
    pub fn pos(&self, i: usize) -> Vec3 {
        Vec3::new(self.x[i], self.y[i], self.z[i])
    }

    /// Direction of particle `i`.
    #[inline]
    pub fn dir(&self, i: usize) -> Vec3 {
        Vec3::new(self.u[i], self.v[i], self.w[i])
    }

    /// Drop live-list entries whose particle is flagged in `dead`
    /// (indexed by particle, not by live-list position), preserving
    /// order — the event pipeline's compaction stage. A single in-place
    /// forward scan slides survivors left over the holes, so it allocates
    /// nothing and a sorted live list stays sorted.
    pub fn retain_alive(&mut self, dead: &[bool]) {
        let mut write = 0usize;
        for read in 0..self.alive.len() {
            let idx = self.alive[read];
            if !dead[idx as usize] {
                if write != read {
                    self.alive[write] = idx;
                }
                write += 1;
            }
        }
        self.alive.truncate(write);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sources(n: usize) -> (Vec<SourceSite>, Vec<Lcg63>) {
        let sites: Vec<SourceSite> = (0..n)
            .map(|i| SourceSite {
                pos: Vec3::new(i as f64, 0.0, 0.0),
                energy: 1.0 + i as f64,
            })
            .collect();
        let streams: Vec<Lcg63> = (0..n)
            .map(|i| Lcg63::for_history(7, i as u64, 101))
            .collect();
        (sites, streams)
    }

    #[test]
    fn bank_birth_matches_particle_birth() {
        let (sites, streams) = sources(5);
        let bank = ParticleBank::from_sources(&sites, &streams);
        for i in 0..5 {
            let p = Particle::born(sites[i], i as u32, streams[i]);
            assert_eq!(bank.pos(i), p.pos);
            assert_eq!(bank.dir(i), p.dir);
            assert_eq!(bank.energy[i], p.energy);
            assert_eq!(bank.rng[i], p.rng);
        }
    }

    #[test]
    fn retain_alive_removes_flagged_particles() {
        let (sites, streams) = sources(6);
        let mut bank = ParticleBank::from_sources(&sites, &streams);
        let mut dead = vec![false; 6];
        // Two rounds, as the event loop does: flags are never cleared, so
        // the second round sees the first round's stale flags too.
        dead[1] = true;
        dead[4] = true;
        bank.retain_alive(&dead);
        assert_eq!(bank.alive, vec![0, 2, 3, 5]);
        dead[0] = true;
        dead[5] = true;
        bank.retain_alive(&dead);
        assert_eq!(bank.alive, vec![2, 3]);
        bank.retain_alive(&dead);
        assert_eq!(bank.alive, vec![2, 3]);
    }

    #[test]
    fn retain_alive_is_in_place_and_order_stable() {
        let (sites, streams) = sources(64);
        let mut bank = ParticleBank::from_sources(&sites, &streams);
        let ptr_before = bank.alive.as_ptr();
        let cap_before = bank.alive.capacity();
        let dead: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        bank.retain_alive(&dead);
        assert_eq!(bank.alive.as_ptr(), ptr_before, "retain_alive reallocated");
        assert_eq!(bank.alive.capacity(), cap_before);
        assert_eq!(bank.n_alive(), 42);
        // Survivors keep ascending order.
        assert!(bank.alive.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sort_sites_orders_by_parent_then_seq() {
        let mk = |parent, seq| Site {
            pos: Vec3::ZERO,
            energy: 1.0,
            parent,
            seq,
        };
        let mut v = vec![mk(2, 0), mk(0, 1), mk(0, 0), mk(1, 0)];
        sort_sites(&mut v);
        let order: Vec<_> = v.iter().map(|s| (s.parent, s.seq)).collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (1, 0), (2, 0)]);
    }

    #[test]
    fn directions_are_unit() {
        let (sites, streams) = sources(32);
        let bank = ParticleBank::from_sources(&sites, &streams);
        for i in 0..32 {
            assert!((bank.dir(i).norm() - 1.0).abs() < 1e-12);
        }
    }
}
