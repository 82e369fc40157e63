//! Fig. 1: total cross-section data for the U-238 isotope.
//!
//! Regenerates the figure's data series from the synthetic SLBW library:
//! σ_t(E) over 10⁻¹¹–20 MeV, showing the 1/v thermal rise, the resolved
//! resonance forest in the eV–keV range, and the smooth high-energy tail.

use mcs_xs::nuclide::{Nuclide, NuclideSpec};

use super::{check, vprintln, Band, CheckOutcome, Column, Fmt, Harness, HarnessRun, Table};

/// Registry entry.
pub const HARNESS: Harness = Harness {
    name: "fig1",
    title: "Fig. 1: U-238 total cross section vs energy (synthetic SLBW)",
    tables: &["fig1_u238_total_xs"],
    run: |scale, verbose| {
        let r = run(scale, verbose);
        HarnessRun::new(score(&r), vec![r.table])
    },
};

/// Typed result of the Fig. 1 harness.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    /// Points on the U-238 energy grid.
    pub n_points: usize,
    /// Resonances in the synthetic ladder.
    pub n_resonances: usize,
    /// σ_t at 10⁻¹¹ MeV (the cold end of the 1/v rise).
    pub sigma_cold: f64,
    /// σ_t at 1 MeV (the smooth fast range).
    pub sigma_fast: f64,
    /// Tallest resonance peak σ_t.
    pub peak: f64,
    /// Peak-to-smooth contrast (the resonance-forest hallmark).
    pub peak_to_smooth: f64,
    /// Labeled probe samples `(label, energy MeV, σ_t barns)`.
    pub samples: Vec<(&'static str, f64, f64)>,
    /// The `fig1_u238_total_xs` series.
    pub table: Table,
}

/// Fig. 1 — U-238 total cross section: 1/v rise and resonance forest.
pub fn score(r: &Fig1Result) -> Vec<CheckOutcome> {
    vec![
        check(
            "F1.peak_to_smooth",
            "resonance forest: tallest peak / smooth fast range > 20x",
            r.peak_to_smooth,
            Band::AtLeast(20.0),
        ),
        check(
            "F1.one_over_v",
            "1/v rise: sigma at the cold end / sigma at 1 MeV",
            r.sigma_cold / r.sigma_fast,
            Band::AtLeast(1.5),
        ),
    ]
}

/// Regenerate the Fig. 1 data series. The workload is a fixed synthetic
/// library build, so `_scale` is unused.
pub fn run(_scale: f64, verbose: bool) -> Fig1Result {
    let u238 = Nuclide::synthesize(&NuclideSpec::heavy("U238", 236.01, false, 92_238));

    vprintln!(
        verbose,
        "grid points: {}   resonances: {}",
        u238.n_points(),
        u238.resonances.len()
    );

    // The full pointwise series.
    let mut table = Table::new(
        "fig1_u238_total_xs",
        vec![
            Column::modeled("energy_mev", 1e-9, Fmt::Sci(6)),
            Column::modeled("sigma_total_barns", 1e-6, Fmt::Sci(6)),
        ],
    );
    for (&e, &t) in u238.energy.iter().zip(&u238.total) {
        table.push(vec![e.into(), t.into()]);
    }

    // Console summary: the figure's qualitative features.
    let at = |e: f64| u238.micro_at(e).total;
    vprintln!(verbose, "\n{:<24} {:>14}", "energy", "sigma_t (b)");
    let mut samples = Vec::new();
    for &(label, e) in &[
        ("1e-11 MeV (cold)", 1e-11),
        ("0.0253e-6 MeV (thermal)", 2.53e-8),
        ("1e-6 MeV (1 eV)", 1e-6),
        ("1e-3 MeV (1 keV)", 1e-3),
        ("1 MeV (fast)", 1.0),
        ("20 MeV (top)", 20.0),
    ] {
        let sigma = at(e);
        vprintln!(verbose, "{label:<24} {sigma:>14.3}");
        samples.push((label, e, sigma));
    }

    // Resonance peak-to-valley contrast, the hallmark of Fig. 1.
    let peak = u238
        .resonances
        .iter()
        .map(|r| at(r.e0))
        .fold(0.0f64, f64::max);
    let smooth = at(1.0);
    vprintln!(
        verbose,
        "\ntallest resonance peak: {peak:.1} b (vs {smooth:.1} b smooth at 1 MeV)"
    );
    vprintln!(verbose, "peak/smooth contrast:   {:.0}x", peak / smooth);

    Fig1Result {
        n_points: u238.n_points(),
        n_resonances: u238.resonances.len(),
        sigma_cold: at(1e-11),
        sigma_fast: smooth,
        peak,
        peak_to_smooth: peak / smooth,
        samples,
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intact_fig1_passes_and_perturbed_fig1_fails() {
        let mut r = run(0.05, false);
        let before = score(&r);
        assert!(before.iter().all(|c| c.passed), "{before:?}");

        // Deliberately break the resonance-forest claim: this is the
        // non-zero-exit demonstration the CI gate relies on.
        r.peak_to_smooth = 3.0;
        let after = score(&r);
        let broken = after.iter().find(|c| c.id == "F1.peak_to_smooth").unwrap();
        assert!(!broken.passed);

        let mut outcome = HarnessRun {
            invariants: after,
            ..Default::default()
        };
        assert_eq!(
            outcome.failures().count(),
            1,
            "a violated invariant must fail the run"
        );
        outcome.invariants = before;
        assert_eq!(outcome.failures().count(), 0);
    }
}
