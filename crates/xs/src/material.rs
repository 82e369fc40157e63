//! Materials: nuclide mixtures with atomic densities.
//!
//! A material is the unit over which the macroscopic cross section
//! `Σ_t = Σ_n N_n σ_t(n, E)` is accumulated (the paper's Algorithm 1).
//! Densities are in atoms/(barn·cm) so `Σ` comes out in 1/cm.

use crate::library::NuclideLibrary;

/// A homogeneous material.
#[derive(Debug, Clone)]
pub struct Material {
    /// Display name.
    pub name: String,
    /// Indices into the library's nuclide list.
    pub nuclides: Vec<u32>,
    /// Atomic densities, atoms/(barn·cm), parallel to `nuclides`.
    pub densities: Vec<f64>,
    /// `density · ν` per nuclide (zero for non-fissile), parallel to
    /// `nuclides`; lets the kernels accumulate `νΣ_f` with no extra gather.
    pub densities_nu: Vec<f64>,
}

impl Material {
    /// Build from `(nuclide index, density)` pairs (ν weights zero; call
    /// [`Material::with_nu`] to fill them from a library).
    pub fn new(name: &str, pairs: &[(u32, f64)]) -> Self {
        Self {
            name: name.to_string(),
            nuclides: pairs.iter().map(|&(n, _)| n).collect(),
            densities: pairs.iter().map(|&(_, d)| d).collect(),
            densities_nu: vec![0.0; pairs.len()],
        }
    }

    /// Fill `densities_nu` from the library's per-nuclide ν.
    pub fn with_nu(mut self, lib: &NuclideLibrary) -> Self {
        self.densities_nu = self
            .nuclides
            .iter()
            .zip(&self.densities)
            .map(|(&k, &d)| d * lib.nuclide(k).nu)
            .collect();
        self
    }

    /// Number of constituent nuclides.
    #[inline]
    pub fn len(&self) -> usize {
        self.nuclides.len()
    }

    /// True if the material has no constituents.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nuclides.is_empty()
    }

    /// UO₂ fuel spread across *all* fuel nuclides of the library: the major
    /// actinides carry realistic densities, the filler inventory shares a
    /// small tail (minor actinides + fission products in depleted fuel).
    /// This is what makes H.M. Large lookups expensive: every one of the
    /// 320 nuclides contributes to `Σ_t`.
    pub fn hm_fuel(lib: &NuclideLibrary) -> Self {
        Self::hm_fuel_enriched(lib, 1.0)
    }

    /// [`Material::hm_fuel`] with the fissile (U-235) number density
    /// scaled by `enrichment`. `enrichment = 1.0` is the HM baseline and
    /// multiplies by the exact constant 1.0, so the baseline inventory is
    /// bit-identical to the historic `hm_fuel` — the model catalog's
    /// zone-0 fuel reproduces every golden result.
    pub fn hm_fuel_enriched(lib: &NuclideLibrary, enrichment: f64) -> Self {
        let mut pairs: Vec<(u32, f64)> = Vec::with_capacity(lib.n_fuel + 1);
        // atoms/(barn·cm): ~2.2e-2 heavy metal total in UO2.
        pairs.push((lib.known.u235, 1.15e-3 * enrichment)); // 1.0 → ~5% enrichment
        pairs.push((lib.known.u238, 2.20e-2));
        pairs.push((2, 1.5e-4)); // Pu239
        pairs.push((3, 6.0e-5)); // Pu240
        let n_filler = lib.n_fuel - 4;
        if n_filler > 0 {
            // Split ~2e-3 across the filler inventory.
            let each = 2.0e-3 / n_filler as f64;
            for i in 4..lib.n_fuel {
                pairs.push((i as u32, each));
            }
        }
        // Oxygen in the oxide.
        pairs.push((lib.known.o16, 4.6e-2));
        Self::new("fuel", &pairs).with_nu(lib)
    }

    /// Borated light water coolant/moderator.
    pub fn hm_water(lib: &NuclideLibrary) -> Self {
        Self::new(
            "water",
            &[
                (lib.known.h1, 4.95e-2),
                (lib.known.o16, 2.48e-2),
                // ~1,700 ppm-equivalent soluble boron, set so the H.M. Large core
                // sits near criticality (k ≈ 1.00) with the full physics
                // stack (free-gas thermal motion included).
                (lib.known.b10, 3.0e-6),
            ],
        )
        .with_nu(lib)
    }

    /// Natural-zirconium cladding.
    pub fn hm_clad(lib: &NuclideLibrary) -> Self {
        Self::new("clad", &[(lib.known.zr, 4.3e-2)]).with_nu(lib)
    }

    /// Control-rod absorber: a B-10-rich column (B₄C-like) with a
    /// structural zirconium balance. Strongly absorbing, never fissile.
    pub fn hm_absorber(lib: &NuclideLibrary) -> Self {
        Self::new(
            "absorber",
            &[(lib.known.b10, 2.2e-2), (lib.known.zr, 2.0e-2)],
        )
        .with_nu(lib)
    }

    /// True if any constituent contributes to `νΣ_f`.
    #[inline]
    pub fn is_fissionable(&self) -> bool {
        self.densities_nu.iter().any(|&d| d > 0.0)
    }

    /// Iterate `(nuclide index, density)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.nuclides
            .iter()
            .copied()
            .zip(self.densities.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::LibrarySpec;

    #[test]
    fn fuel_uses_every_fuel_nuclide() {
        let lib = NuclideLibrary::build(&LibrarySpec::hm_small());
        let fuel = Material::hm_fuel(&lib);
        assert_eq!(fuel.len(), lib.n_fuel + 1); // + oxygen
        assert!(fuel.densities.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn water_is_h2o_ish() {
        let lib = NuclideLibrary::build(&LibrarySpec::tiny());
        let w = Material::hm_water(&lib);
        let h = w.densities[0];
        let o = w.densities[1];
        assert!((h / o - 2.0).abs() < 0.01);
    }

    #[test]
    fn fissionability_follows_nu_weights() {
        let lib = NuclideLibrary::build(&LibrarySpec::tiny());
        assert!(Material::hm_fuel(&lib).is_fissionable());
        assert!(!Material::hm_water(&lib).is_fissionable());
        assert!(!Material::hm_clad(&lib).is_fissionable());
        assert!(!Material::hm_absorber(&lib).is_fissionable());
        assert!(!Material::new("bare", &[(0, 1.0)]).is_fissionable());
    }

    #[test]
    fn unit_enrichment_is_bit_identical_to_baseline_fuel() {
        let lib = NuclideLibrary::build(&LibrarySpec::hm_small());
        let base = Material::hm_fuel(&lib);
        let unit = Material::hm_fuel_enriched(&lib, 1.0);
        assert_eq!(base.nuclides, unit.nuclides);
        for (a, b) in base.densities.iter().zip(&unit.densities) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in base.densities_nu.iter().zip(&unit.densities_nu) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // A real enrichment bump moves only the fissile density.
        let hot = Material::hm_fuel_enriched(&lib, 1.25);
        assert!(hot.densities[0] > base.densities[0]);
        assert_eq!(hot.densities[1].to_bits(), base.densities[1].to_bits());
    }

    #[test]
    fn iter_pairs_match_fields() {
        let m = Material::new("m", &[(3, 0.1), (7, 0.2)]);
        let v: Vec<_> = m.iter().collect();
        assert_eq!(v, vec![(3, 0.1), (7, 0.2)]);
    }
}
