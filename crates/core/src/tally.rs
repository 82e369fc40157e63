//! Global tallies.
//!
//! The paper's experiments collect only OpenMC's default global tallies
//! (total collisions, absorptions, and track-lengths, §III-B1); the same
//! set is accumulated here, together with the three standard k-effective
//! estimators.

/// Accumulated global tallies for one batch (or a merged set of batches).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tallies {
    /// Source particles contributing.
    pub n_particles: u64,
    /// Flight segments (= XS lookups performed).
    pub segments: u64,
    /// Segments broken down by material id (ids ≥ 7 fold into slot 7).
    pub segments_by_material: [u64; 8],
    /// Collisions broken down by material id.
    pub collisions_by_material: [u64; 8],
    /// Absorption events broken down by material id.
    pub absorptions_by_material: [u64; 8],
    /// Fission events broken down by material id.
    pub fissions_by_material: [u64; 8],
    /// Collision events.
    pub collisions: u64,
    /// Absorption events (capture + fission + energy-floor terminations).
    pub absorptions: u64,
    /// Fission events.
    pub fissions: u64,
    /// Leakage events.
    pub leaks: u64,
    /// Total flight path length (cm).
    pub track_length: f64,
    /// Track-length estimator sum: Σ w·d·νΣ_f.
    pub k_track: f64,
    /// Collision estimator sum: Σ w·νΣ_f/Σ_t at collisions.
    pub k_collision: f64,
    /// Absorption estimator sum: Σ w·νΣ_f/Σ_a at absorptions.
    pub k_absorption: f64,
}

impl Tallies {
    /// Record one flight segment in material `m`.
    #[inline]
    pub fn record_segment(&mut self, m: u32) {
        self.segments += 1;
        self.segments_by_material[(m as usize).min(7)] += 1;
    }

    /// Record one collision in material `m`.
    #[inline]
    pub fn record_collision(&mut self, m: u32) {
        self.collisions += 1;
        self.collisions_by_material[(m as usize).min(7)] += 1;
    }

    /// Record one absorption (optionally a fission) in material `m`.
    #[inline]
    pub fn record_absorption(&mut self, m: u32, fission: bool) {
        self.absorptions += 1;
        self.absorptions_by_material[(m as usize).min(7)] += 1;
        if fission {
            self.fissions += 1;
            self.fissions_by_material[(m as usize).min(7)] += 1;
        }
    }

    /// Fold another tally set into this one.
    pub fn merge(&mut self, o: &Tallies) {
        self.n_particles += o.n_particles;
        self.segments += o.segments;
        for i in 0..8 {
            self.segments_by_material[i] += o.segments_by_material[i];
            self.collisions_by_material[i] += o.collisions_by_material[i];
            self.absorptions_by_material[i] += o.absorptions_by_material[i];
            self.fissions_by_material[i] += o.fissions_by_material[i];
        }
        self.collisions += o.collisions;
        self.absorptions += o.absorptions;
        self.fissions += o.fissions;
        self.leaks += o.leaks;
        self.track_length += o.track_length;
        self.k_track += o.k_track;
        self.k_collision += o.k_collision;
        self.k_absorption += o.k_absorption;
    }

    /// The canonical fold: `Tallies::default()` merged with `parts` in
    /// iteration order. Every batch's global tallies are this fold over
    /// its CHUNK-keyed partials in chunk order — whichever policy
    /// transported them — so the float sums follow one summation tree.
    pub fn fold<'a>(parts: impl IntoIterator<Item = &'a Tallies>) -> Tallies {
        let mut total = Tallies::default();
        for p in parts {
            total.merge(p);
        }
        total
    }

    /// Linearly rescale the per-particle structure to a batch of `n`
    /// source particles.
    ///
    /// The figure/table harnesses probe transport with a small measured
    /// batch and then price a paper-scale batch on the machine models;
    /// only the count fields the models consume (segments, collisions,
    /// and their per-material breakdowns) are rescaled.
    pub fn scaled_to(&self, n: u64) -> Tallies {
        let f = n as f64 / self.n_particles.max(1) as f64;
        let mut t = *self;
        t.n_particles = n;
        t.segments = (t.segments as f64 * f) as u64;
        t.collisions = (t.collisions as f64 * f) as u64;
        for i in 0..8 {
            t.segments_by_material[i] = (t.segments_by_material[i] as f64 * f) as u64;
            t.collisions_by_material[i] = (t.collisions_by_material[i] as f64 * f) as u64;
        }
        t
    }

    /// Track-length k estimate for this batch.
    pub fn k_track_estimate(&self) -> f64 {
        self.k_track / self.n_particles.max(1) as f64
    }

    /// Collision k estimate for this batch.
    pub fn k_collision_estimate(&self) -> f64 {
        self.k_collision / self.n_particles.max(1) as f64
    }

    /// Absorption k estimate for this batch.
    pub fn k_absorption_estimate(&self) -> f64 {
        self.k_absorption / self.n_particles.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_everything() {
        let mut a = Tallies {
            n_particles: 10,
            segments: 150,
            segments_by_material: [100, 50, 0, 0, 0, 0, 0, 0],
            collisions_by_material: [60, 40, 0, 0, 0, 0, 0, 0],
            absorptions_by_material: [4, 2, 0, 0, 0, 0, 0, 0],
            fissions_by_material: [2, 0, 0, 0, 0, 0, 0, 0],
            collisions: 100,
            absorptions: 6,
            fissions: 2,
            leaks: 4,
            track_length: 50.0,
            k_track: 9.5,
            k_collision: 9.4,
            k_absorption: 9.6,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.n_particles, 20);
        assert_eq!(a.segments, 300);
        assert_eq!(a.segments_by_material[0], 200);
        assert_eq!(a.collisions_by_material[1], 80);
        assert_eq!(a.absorptions_by_material[0], 8);
        assert_eq!(a.fissions_by_material[0], 4);
        assert_eq!(a.collisions, 200);
        assert_eq!(a.track_length, 100.0);
        assert_eq!(a.k_track, 19.0);
    }

    #[test]
    fn k_estimates_normalize_by_particles() {
        let t = Tallies {
            n_particles: 100,
            k_track: 95.0,
            k_collision: 93.0,
            k_absorption: 97.0,
            ..Default::default()
        };
        assert!((t.k_track_estimate() - 0.95).abs() < 1e-12);
        assert!((t.k_collision_estimate() - 0.93).abs() < 1e-12);
        assert!((t.k_absorption_estimate() - 0.97).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let t = Tallies::default();
        assert_eq!(t.k_track_estimate(), 0.0);
    }
}
