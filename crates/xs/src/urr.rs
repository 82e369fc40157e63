//! Unresolved-resonance-range (URR) probability tables.
//!
//! Above the resolved range, resonances overlap experimentally and only
//! their *statistics* are known; Levitt's probability-table method (the
//! paper's ref. \[9\]) replaces the pointwise lookup by: find the energy
//! band, draw ξ, walk the band's CDF to pick a cross-section band, and
//! scale the smooth cross sections by that band's factors. Like S(α,β),
//! the per-particle CDF walk is the conditional-heavy code the paper had
//! to strip from the vectorized kernels.

use mcs_rng::Philox4x32;

use crate::nuclide::MicroXs;

/// Lower bound of the URR, in MeV (≈ 2.25 keV, matching Fig. 1's
/// "around 10⁻² MeV" remark for the upper resolved range).
pub const URR_E_LO: f64 = 2.25e-3;
/// Upper bound of the URR, in MeV.
pub const URR_E_HI: f64 = 2.5e-2;

/// Multiplicative band factors drawn from a probability table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UrrFactors {
    /// Factor on elastic scattering.
    pub elastic: f64,
    /// Factor on capture (absorption − fission).
    pub capture: f64,
    /// Factor on fission.
    pub fission: f64,
}

impl UrrFactors {
    /// Identity factors (no adjustment).
    pub const UNIT: UrrFactors = UrrFactors {
        elastic: 1.0,
        capture: 1.0,
        fission: 1.0,
    };

    /// Apply to a microscopic lookup, rebuilding absorption and total.
    #[inline]
    pub fn apply(&self, m: MicroXs) -> MicroXs {
        let capture = (m.absorption - m.fission) * self.capture;
        let fission = m.fission * self.fission;
        let elastic = m.elastic * self.elastic;
        MicroXs {
            elastic,
            inelastic: m.inelastic, // competitive channel left smooth
            fission,
            absorption: capture + fission,
            total: elastic + m.inelastic + capture + fission,
        }
    }
}

/// A probability table for one nuclide.
#[derive(Debug, Clone)]
pub struct UrrTable {
    /// Energy grid inside [URR_E_LO, URR_E_HI].
    pub energy: Vec<f64>,
    /// Number of probability bands per energy.
    pub n_bands: usize,
    /// Band CDF per energy: `cdf[ie * n_bands + b]`, last entry 1.0.
    pub cdf: Vec<f64>,
    /// Band factors per energy/band, same indexing.
    pub factors: Vec<UrrFactors>,
}

impl UrrTable {
    /// Synthesize a table with `n_bands` bands whose factors are mean-one
    /// (so the URR adjustment is unbiased relative to the smooth data).
    /// Deterministic in `seed`.
    pub fn synthesize(seed: u64, n_bands: usize) -> Self {
        assert!(n_bands >= 2);
        let mut rng = Philox4x32::new(seed ^ 0x0_44_88);
        let n_e = 16;
        let lo = URR_E_LO.ln();
        let hi = URR_E_HI.ln();
        let energy: Vec<f64> = (0..n_e)
            .map(|i| (lo + (hi - lo) * i as f64 / (n_e - 1) as f64).exp())
            .collect();

        let mut cdf = Vec::with_capacity(n_e * n_bands);
        let mut factors = Vec::with_capacity(n_e * n_bands);
        for _ in 0..n_e {
            // Band probabilities.
            let mut w: Vec<f64> = (0..n_bands).map(|_| 0.2 + rng.next_uniform()).collect();
            let s: f64 = w.iter().sum();
            for v in &mut w {
                *v /= s;
            }
            // Raw factors: lognormal-ish spread over bands.
            let mut raw: Vec<(f64, f64, f64)> = (0..n_bands)
                .map(|_| {
                    (
                        0.3 + 2.0 * rng.next_uniform(),
                        0.2 + 2.5 * rng.next_uniform(),
                        0.3 + 2.0 * rng.next_uniform(),
                    )
                })
                .collect();
            // Normalize each reaction's probability-weighted mean to 1.
            let mean = |sel: fn(&(f64, f64, f64)) -> f64, raw: &[(f64, f64, f64)], w: &[f64]| {
                raw.iter().zip(w).map(|(r, &p)| sel(r) * p).sum::<f64>()
            };
            let me = mean(|r| r.0, &raw, &w);
            let mc = mean(|r| r.1, &raw, &w);
            let mf = mean(|r| r.2, &raw, &w);
            for r in &mut raw {
                r.0 /= me;
                r.1 /= mc;
                r.2 /= mf;
            }

            let mut acc = 0.0;
            for b in 0..n_bands {
                acc += w[b];
                cdf.push(if b == n_bands - 1 { 1.0 } else { acc });
                factors.push(UrrFactors {
                    elastic: raw[b].0,
                    capture: raw[b].1,
                    fission: raw[b].2,
                });
            }
        }

        Self {
            energy,
            n_bands,
            cdf,
            factors,
        }
    }

    /// Whether the URR treatment applies at `e`.
    #[inline]
    pub fn in_range(&self, e: f64) -> bool {
        (URR_E_LO..URR_E_HI).contains(&e)
    }

    /// Sample band factors at `e` with uniform `xi` (the CDF walk).
    pub fn sample(&self, e: f64, xi: f64) -> UrrFactors {
        if !self.in_range(e) {
            return UrrFactors::UNIT;
        }
        let ie = crate::grid::lower_bound_index(&self.energy, e);
        let row = &self.cdf[ie * self.n_bands..(ie + 1) * self.n_bands];
        let mut b = 0;
        while b < self.n_bands - 1 && xi > row[b] {
            b += 1;
        }
        self.factors[ie * self.n_bands + b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_is_identity() {
        let t = UrrTable::synthesize(1, 8);
        assert_eq!(t.sample(1.0e-6, 0.3), UrrFactors::UNIT);
        assert_eq!(t.sample(0.5, 0.3), UrrFactors::UNIT);
    }

    #[test]
    fn cdf_rows_end_at_one_and_ascend() {
        let t = UrrTable::synthesize(2, 8);
        for ie in 0..t.energy.len() {
            let row = &t.cdf[ie * t.n_bands..(ie + 1) * t.n_bands];
            assert_eq!(*row.last().unwrap(), 1.0);
            for w in row.windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn factors_are_mean_one() {
        // Probability-weighted mean of the band factors at one energy.
        let t = UrrTable::synthesize(3, 8);
        let ie = crate::grid::lower_bound_index(&t.energy, 5.0e-3);
        let (mut elastic, mut capture, mut fission) = (0.0, 0.0, 0.0);
        let mut prev = 0.0;
        for i in ie * t.n_bands..(ie + 1) * t.n_bands {
            let p = t.cdf[i] - prev;
            prev = t.cdf[i];
            elastic += p * t.factors[i].elastic;
            capture += p * t.factors[i].capture;
            fission += p * t.factors[i].fission;
        }
        assert!((elastic - 1.0).abs() < 1e-12);
        assert!((capture - 1.0).abs() < 1e-12);
        assert!((fission - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_is_unbiased_statistically() {
        let t = UrrTable::synthesize(4, 8);
        let e = 1.0e-2;
        let mut rng = Philox4x32::new(321);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += t.sample(e, rng.next_uniform()).capture;
        }
        let mean = sum / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean capture factor {mean}");
    }

    #[test]
    fn apply_preserves_consistency() {
        let f = UrrFactors {
            elastic: 1.2,
            capture: 0.8,
            fission: 1.5,
        };
        let m = MicroXs {
            total: 10.5,
            elastic: 6.0,
            inelastic: 0.5,
            absorption: 4.0,
            fission: 1.0,
        };
        let out = f.apply(m);
        assert!((out.total - (out.elastic + out.inelastic + out.absorption)).abs() < 1e-12);
        assert!((out.fission - 1.5).abs() < 1e-12);
        assert!((out.elastic - 7.2).abs() < 1e-12);
        assert!((out.absorption - (3.0 * 0.8 + 1.5)).abs() < 1e-12);
    }

    #[test]
    fn different_bands_give_different_factors() {
        let t = UrrTable::synthesize(5, 8);
        let e = 5.0e-3;
        let a = t.sample(e, 0.01);
        let b = t.sample(e, 0.99);
        assert_ne!(a, b);
    }
}
