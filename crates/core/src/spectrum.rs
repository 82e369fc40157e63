//! Energy-spectrum tally: track-length flux binned in lethargy.
//!
//! The classic reactor-physics output: φ(E) per unit lethargy over
//! log-spaced energy bins. For a water-moderated core it must show the
//! canonical two-hump shape — a thermal peak near 0.05 eV, the 1/E
//! slowing-down plateau punched full of resonance dips, and the fission
//! (Watt) fast peak around 1 MeV — which the tests assert.

/// A log-uniform energy-binned track-length tally.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectrumTally {
    /// Lower edge of the first bin (MeV).
    pub e_min: f64,
    /// Upper edge of the last bin (MeV).
    pub e_max: f64,
    /// Per-bin accumulated weighted track length.
    pub bins: Vec<f64>,
    log_min: f64,
    inv_dlog: f64,
}

impl SpectrumTally {
    /// A spectrum over `[e_min, e_max]` with `n` log-uniform bins.
    pub fn new(e_min: f64, e_max: f64, n: usize) -> Self {
        assert!(e_min > 0.0 && e_max > e_min && n > 0);
        let log_min = e_min.ln();
        let log_max = e_max.ln();
        Self {
            e_min,
            e_max,
            bins: vec![0.0; n],
            log_min,
            inv_dlog: n as f64 / (log_max - log_min),
        }
    }

    /// The standard full-range spectrum (1e-11–20 MeV, 10 bins/decade).
    pub fn standard() -> Self {
        Self::new(1.0e-11, 20.0, 123)
    }

    /// Score a flight segment of weighted length `w·d` at energy `e`.
    #[inline]
    pub fn score(&mut self, e: f64, weighted_track: f64) {
        if e < self.e_min || e >= self.e_max {
            return;
        }
        let b = ((e.ln() - self.log_min) * self.inv_dlog) as usize;
        let b = b.min(self.bins.len() - 1);
        self.bins[b] += weighted_track;
    }

    /// Bin centre energies (geometric), for plotting.
    pub fn bin_centers(&self) -> Vec<f64> {
        let n = self.bins.len();
        (0..n)
            .map(|i| (self.log_min + (i as f64 + 0.5) / self.inv_dlog).exp())
            .collect()
    }

    /// Flux per unit lethargy in each bin (the quantity whose shape is
    /// the two-hump reactor spectrum). Bins are log-uniform, so this is
    /// just the raw score divided by the constant lethargy width.
    pub fn per_lethargy(&self) -> Vec<f64> {
        let du = 1.0 / self.inv_dlog;
        self.bins.iter().map(|&b| b / du).collect()
    }

    /// Sum of all scores.
    pub fn total(&self) -> f64 {
        self.bins.iter().sum()
    }

    /// Fold another spectrum (same binning) into this one.
    pub fn merge(&mut self, o: &SpectrumTally) {
        assert_eq!(self.bins.len(), o.bins.len());
        assert_eq!(self.e_min, o.e_min);
        for (a, b) in self.bins.iter_mut().zip(&o.bins) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{transport_batch, BatchRequest, Threaded};
    use crate::history::batch_streams;
    use crate::problem::Problem;

    #[test]
    fn scores_land_in_the_right_bins() {
        let mut s = SpectrumTally::new(1e-3, 1e3, 6); // one bin per decade
        s.score(5e-3, 1.0); // decade [1e-3,1e-2) → bin 0
        s.score(50.0, 2.0); //  [1e1,1e2) → bin 4
        assert_eq!(s.bins[0], 1.0);
        assert_eq!(s.bins[4], 2.0);
        // Out of range is dropped, not clamped.
        s.score(1e-9, 7.0);
        s.score(1e9, 7.0);
        assert_eq!(s.total(), 3.0);
    }

    #[test]
    fn bin_centers_are_geometric() {
        let s = SpectrumTally::new(1.0, 100.0, 2);
        let c = s.bin_centers();
        assert!((c[0] - 10f64.powf(0.5)).abs() < 1e-9);
        assert!((c[1] - 10f64.powf(1.5)).abs() < 1e-9);
    }

    #[test]
    fn merge_and_per_lethargy() {
        let mut a = SpectrumTally::new(1.0, 10.0, 1);
        let mut b = SpectrumTally::new(1.0, 10.0, 1);
        a.score(2.0, 1.0);
        b.score(3.0, 2.0);
        a.merge(&b);
        assert_eq!(a.total(), 3.0);
        // One bin spanning ln(10) lethargy.
        assert!((a.per_lethargy()[0] - 3.0 / 10f64.ln()).abs() < 1e-12);
    }

    /// The per-lethargy flux averaged over an energy window.
    fn mean_per_lethargy(s: &SpectrumTally, e_lo: f64, e_hi: f64) -> f64 {
        let sel: Vec<f64> = s
            .bin_centers()
            .iter()
            .zip(&s.per_lethargy())
            .filter(|(&c, _)| c >= e_lo && c < e_hi)
            .map(|(_, &v)| v)
            .collect();
        if sel.is_empty() {
            0.0
        } else {
            sel.iter().sum::<f64>() / sel.len() as f64
        }
    }

    #[test]
    fn transported_spectrum_has_slowing_down_structure() {
        // The physics payoff test, on the full H.M. Small core. The
        // synthetic ladder starts at ~5 eV, so the spectrum must show:
        // (a) the slowing-down pile-up just below the first resonances,
        // (b) deep dips inside the resonance ladder region,
        // (c) the fast fission range populated, with nothing below the
        //     thermal cutoff where 1/v absorption has eaten everything.
        use crate::problem::{HmModel, ProblemConfig};
        let problem = Problem::hm(HmModel::Small, &ProblemConfig::default());
        let n = 1_200;
        let sources = problem.sample_initial_source(n, 0);
        let streams = batch_streams(problem.seed, 0, n);
        let req = BatchRequest {
            spectrum: true,
            ..BatchRequest::default()
        };
        let out = transport_batch(&problem, &sources, &streams, &req, &mut Threaded::ambient());
        let spectrum = out.spectrum.expect("spectrum requested");
        let out = out.outcome;

        // Conservation: the spectrum integrates (within range cut) to the
        // total weighted track length (analog ⇒ weight 1).
        assert!(spectrum.total() <= out.tallies.track_length * (1.0 + 1e-9));
        assert!(spectrum.total() > 0.9 * out.tallies.track_length);

        let pileup = mean_per_lethargy(&spectrum, 1.0e-6, 4.5e-6); // 1–4.5 eV
        let ladder = mean_per_lethargy(&spectrum, 1.0e-5, 1.0e-4); // 10–100 eV
        let thermal = mean_per_lethargy(&spectrum, 1e-8, 2e-7);
        let fast = mean_per_lethargy(&spectrum, 0.5, 3.0);
        let cold = mean_per_lethargy(&spectrum, 1e-11, 1e-9);

        assert!(thermal > 0.0 && fast > 0.0);
        assert!(
            pileup > 1.5 * ladder,
            "slowing-down pile-up missing: {pileup:.3e} vs ladder {ladder:.3e}"
        );
        assert!(
            fast > 10.0 * cold.max(1e-300),
            "fast range must dominate the sub-thermal tail"
        );
    }
}
