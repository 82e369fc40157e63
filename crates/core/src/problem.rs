//! Problem assembly: cross sections + geometry + materials + physics.

use mcs_geom::{
    CellRef, CoreSpec, GeomTraversal, Geometry, HmConfig, MaterialRole, TraversalKind, Vec3,
};
use mcs_rng::Lcg63;
use mcs_xs::sab::SabTable;
use mcs_xs::urr::UrrTable;
pub use mcs_xs::GridBackendKind;
use mcs_xs::{LibrarySpec, MacroXs, Material, XsContext};

use crate::particle::SourceSite;
use crate::physics::sample_watt;
use crate::physics::{
    apply_physics, AbsorptionTreatment, MaterialSlots, Physics, SabPhysics, UrrPhysics,
};
use crate::physics::{WATT_A, WATT_B};

/// Which Hoogenboom–Martin fuel inventory to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HmModel {
    /// 34 fuel nuclides.
    Small,
    /// 320 fuel nuclides.
    Large,
}

/// Assembly options for [`Problem::hm`].
#[derive(Debug, Clone)]
pub struct ProblemConfig {
    /// Per-nuclide grid-point density multiplier (1.0 ≈ a thousand points
    /// per heavy nuclide).
    pub grid_density: f64,
    /// Parameterized core geometry (pin → assembly → core generator).
    pub core: CoreSpec,
    /// Geometry lookup treatment (flattened vs nested — bitwise-equivalent
    /// by contract, differing only in traversal work).
    pub traversal: TraversalKind,
    /// Include S(α,β) thermal scattering for hydrogen in water.
    pub enable_sab: bool,
    /// Include URR probability tables for U-235/U-238.
    pub enable_urr: bool,
    /// Free-gas target motion for thermal elastic scattering.
    pub enable_free_gas: bool,
    /// Doppler-broaden the fuel nuclides to this temperature (K);
    /// `0.0` = unbroadened baseline.
    pub fuel_temperature_k: f64,
    /// Energy-grid search backend for all cross-section lookups.
    pub grid_backend: GridBackendKind,
    /// Master seed (library synthesis + transport streams derive from it).
    pub seed: u64,
}

impl Default for ProblemConfig {
    fn default() -> Self {
        Self {
            grid_density: 1.0,
            core: CoreSpec::hm(&HmConfig::default()),
            traversal: TraversalKind::default(),
            enable_sab: true,
            enable_urr: true,
            enable_free_gas: true,
            fuel_temperature_k: 0.0,
            grid_backend: GridBackendKind::Unionized,
            seed: 0x4d43_5f30,
        }
    }
}

impl ProblemConfig {
    /// A fast configuration for unit tests: sparse grids, one assembly,
    /// full physics.
    pub fn test_scale() -> Self {
        Self {
            grid_density: 0.25,
            core: CoreSpec::hm(&HmConfig::single_assembly()),
            ..Self::default()
        }
    }
}

/// A fully assembled transport problem.
#[derive(Debug, Clone)]
pub struct Problem {
    /// The unified cross-section lookup context: library, layouts, and the
    /// pluggable energy-grid backend.
    pub xs: XsContext,
    /// Materials, indexed by the geometry's material ids (0 = zone-0 fuel,
    /// 1 = clad, 2 = water, then extra enrichment zones and the absorber,
    /// per the model's [`MaterialRole`] table).
    pub materials: Vec<Material>,
    /// The geometry.
    pub geometry: Geometry,
    /// The geometry lookup treatment (flattened or nested), with its own
    /// traversal counters. All transport queries route through
    /// [`Problem::find`] / [`Problem::distance_to_boundary`].
    pub traversal: GeomTraversal,
    /// Optional physics.
    pub physics: Physics,
    /// Per-material physics slots, parallel to `materials`.
    pub slots: Vec<MaterialSlots>,
    /// Absorption treatment (analog by default; set to
    /// [`AbsorptionTreatment::survival_default`] for variance reduction).
    pub treatment: AbsorptionTreatment,
    /// Master seed.
    pub seed: u64,
}

impl Problem {
    /// Build a Hoogenboom–Martin problem.
    pub fn hm(model: HmModel, cfg: &ProblemConfig) -> Self {
        let lib_spec = match model {
            HmModel::Small => LibrarySpec::hm_small(),
            HmModel::Large => LibrarySpec::hm_large(),
        }
        .with_grid_density(cfg.grid_density)
        .with_fuel_temperature(cfg.fuel_temperature_k);
        Self::from_config(
            mcs_xs::cache::context_for_spec(&lib_spec, cfg.grid_backend),
            cfg,
        )
    }

    /// Build a small problem for unit tests (tiny nuclide library,
    /// single-assembly geometry).
    pub fn test_small() -> Self {
        Self::test_small_with_backend(GridBackendKind::Unionized)
    }

    /// [`Problem::test_small`] with an explicit grid backend — used by the
    /// cross-backend bit-identity tests.
    pub fn test_small_with_backend(backend: GridBackendKind) -> Self {
        let cfg = ProblemConfig {
            grid_backend: backend,
            ..ProblemConfig::test_scale()
        };
        let spec = LibrarySpec::tiny().with_grid_density(cfg.grid_density);
        Self::from_config(mcs_xs::cache::context_for_spec(&spec, backend), &cfg)
    }

    /// Assemble around an already built lookup context (normally a
    /// counter-fresh clone from [`mcs_xs::cache`]); geometry, materials,
    /// and optional physics come from `cfg`. This is the single assembly
    /// path — the catalog ([`crate::catalog::build`]) and the historic
    /// constructors both land here.
    pub(crate) fn from_config(xs: XsContext, cfg: &ProblemConfig) -> Self {
        let library = xs.lib();
        let model = cfg.core.build();
        let materials: Vec<Material> = model
            .roles
            .iter()
            .map(|role| match *role {
                MaterialRole::Fuel { enrichment } => {
                    Material::hm_fuel_enriched(library, enrichment)
                }
                MaterialRole::Clad => Material::hm_clad(library),
                MaterialRole::Water => Material::hm_water(library),
                MaterialRole::Absorber => Material::hm_absorber(library),
            })
            .collect();
        let geometry = model.geometry;
        let traversal = GeomTraversal::new(cfg.traversal, &geometry);

        let mut physics = Physics::none();
        physics.free_gas = cfg.enable_free_gas;
        if cfg.enable_sab {
            physics.sab = Some(SabPhysics {
                nuclide: library.known.h1,
                table: SabTable::synthesize(cfg.seed ^ 0x5ab),
                temperature: 293.6,
            });
        }
        if cfg.enable_urr {
            physics.urr = vec![
                UrrPhysics {
                    nuclide: library.known.u238,
                    table: UrrTable::synthesize(cfg.seed ^ 0x238, 8),
                },
                UrrPhysics {
                    nuclide: library.known.u235,
                    table: UrrTable::synthesize(cfg.seed ^ 0x235, 8),
                },
            ];
        }
        let slots = materials
            .iter()
            .map(|m| MaterialSlots::build(m, &physics))
            .collect();

        Self {
            xs,
            materials,
            geometry,
            traversal,
            physics,
            slots,
            treatment: AbsorptionTreatment::Analog,
            seed: cfg.seed,
        }
    }

    /// Locate a point, routed through the configured traversal treatment.
    /// Bitwise-equivalent to `geometry.find(p)` under either treatment;
    /// records `geom.*` traversal counters.
    #[inline]
    pub fn find(&self, p: Vec3) -> Option<CellRef> {
        self.traversal.find(&self.geometry, p)
    }

    /// Distance to the nearest surface or lattice wall along `dir`, routed
    /// through the configured traversal treatment (bitwise-equivalent to
    /// `geometry.distance_to_boundary`).
    #[inline]
    pub fn distance_to_boundary(&self, p: Vec3, dir: Vec3) -> f64 {
        self.traversal.distance_to_boundary(&self.geometry, p, dir)
    }

    /// Macroscopic cross section with optional physics, scalar kernel
    /// (the history path's `calculate_xs()`).
    #[inline]
    pub fn macro_xs(&self, mat_id: u32, e: f64, rng: &mut Lcg63) -> MacroXs {
        let mut xs = self.xs.macro_xs(&self.materials[mat_id as usize], e);
        self.apply_physics(mat_id, e, rng, &mut xs);
        xs
    }

    /// Macroscopic cross section with optional physics, vectorized inner
    /// loop (the event path's banked kernel). Identical RNG consumption to
    /// [`Problem::macro_xs`].
    #[inline]
    pub fn macro_xs_vector(&self, mat_id: u32, e: f64, rng: &mut Lcg63) -> MacroXs {
        let mut xs = self.xs.macro_xs_simd(&self.materials[mat_id as usize], e);
        self.apply_physics(mat_id, e, rng, &mut xs);
        xs
    }

    /// Apply the optional physics corrections (URR band sampling,
    /// S(α,β)) to material `mat_id`'s `xs` at energy `e`, drawing from
    /// `rng` — the step every lookup path finishes with.
    #[inline]
    pub(crate) fn apply_physics(&self, mat_id: u32, e: f64, rng: &mut Lcg63, xs: &mut MacroXs) {
        if self.physics.any() {
            apply_physics(
                &self.xs,
                &self.materials[mat_id as usize],
                e,
                &self.physics,
                &self.slots[mat_id as usize],
                rng,
                xs,
            );
        }
    }

    /// Sample `n` initial source sites: positions uniform over fuel
    /// regions (rejection against the bounding box), energies from the
    /// Watt spectrum. Deterministic in the problem seed and `stream_salt`.
    pub fn sample_initial_source(&self, n: usize, stream_salt: u64) -> Vec<SourceSite> {
        let mut rng = Lcg63::new(self.seed ^ stream_salt ^ 0x5085);
        let (lo, hi) = self.geometry.bounds;
        let span = hi - lo;
        let mut out = Vec::with_capacity(n);
        let mut guard = 0u64;
        while out.len() < n {
            guard += 1;
            assert!(
                guard < 100_000_000,
                "source sampling failed to find fuel; geometry misconfigured?"
            );
            let p = Vec3::new(
                lo.x + span.x * rng.next_uniform(),
                lo.y + span.y * rng.next_uniform(),
                lo.z + span.z * rng.next_uniform(),
            );
            match self.find(p) {
                Some(c) if self.materials[c.material as usize].is_fissionable() => {
                    let energy = sample_watt(&mut rng, WATT_A, WATT_B);
                    out.push(SourceSite { pos: p, energy });
                }
                _ => {}
            }
        }
        out
    }

    /// Number of materials.
    pub fn n_materials(&self) -> usize {
        self.materials.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_problem_assembles() {
        let p = Problem::test_small();
        assert_eq!(p.n_materials(), 3);
        let grid = p.xs.union_grid().expect("default backend is unionized");
        assert!(grid.n_points() > 100);
        assert_eq!(grid.n_nuclides(), p.xs.lib().len());
        assert!(p.physics.sab.is_some());
        assert_eq!(p.physics.urr.len(), 2);
        // Fuel contains the URR nuclides; water contains the sab nuclide.
        assert!(p.slots[0].urr.iter().all(|s| s.is_some()));
        assert!(p.slots[2].sab.is_some());
        assert!(p.slots[1].sab.is_none());
    }

    #[test]
    fn macro_xs_scalar_and_vector_agree_without_physics_draws() {
        let p = Problem::test_small();
        // Outside the URR and thermal ranges neither path draws RNG.
        let e = 0.5;
        let mut r1 = Lcg63::new(11);
        let mut r2 = Lcg63::new(11);
        let a = p.macro_xs(0, e, &mut r1);
        let b = p.macro_xs_vector(0, e, &mut r2);
        assert!(a.max_rel_diff(&b) < 1e-12);
        assert_eq!(r1, r2, "rng consumption must match");
    }

    #[test]
    fn urr_range_consumes_identical_draws_both_paths() {
        let p = Problem::test_small();
        let e = 5.0e-3; // inside URR
        let mut r1 = Lcg63::new(77);
        let mut r2 = Lcg63::new(77);
        let a = p.macro_xs(0, e, &mut r1);
        let b = p.macro_xs_vector(0, e, &mut r2);
        assert_eq!(r1, r2);
        assert!(a.max_rel_diff(&b) < 1e-10);
    }

    #[test]
    fn sab_enhances_water_at_thermal() {
        let p = Problem::test_small();
        let e = 1.0e-9;
        let mut rng = Lcg63::new(1);
        let with = p.macro_xs(2, e, &mut rng);
        // Compare against the raw context lookup (no physics).
        let raw = p.xs.macro_xs(&p.materials[2], e);
        assert!(with.elastic > raw.elastic * 1.5, "sab enhancement missing");
        assert!((with.absorption - raw.absorption).abs() < 1e-12);
    }

    #[test]
    fn all_backends_give_bitwise_identical_macro_xs_with_physics() {
        let problems: Vec<Problem> = GridBackendKind::ALL
            .iter()
            .map(|&k| Problem::test_small_with_backend(k))
            .collect();
        // Span thermal (S(α,β)), URR, and fast energies.
        for &e in &[1.0e-9, 5.0e-3, 0.5, 2.0] {
            for mat_id in 0..3u32 {
                let mut rngs: Vec<Lcg63> = (0..problems.len()).map(|_| Lcg63::new(42)).collect();
                let xs: Vec<MacroXs> = problems
                    .iter()
                    .zip(rngs.iter_mut())
                    .map(|(p, r)| p.macro_xs(mat_id, e, r))
                    .collect();
                for other in &xs[1..] {
                    assert_eq!(xs[0].total.to_bits(), other.total.to_bits());
                    assert_eq!(xs[0].nu_fission.to_bits(), other.nu_fission.to_bits());
                    assert_eq!(xs[0].elastic.to_bits(), other.elastic.to_bits());
                }
                for r in &rngs[1..] {
                    assert_eq!(&rngs[0], r, "rng consumption must match across backends");
                }
            }
        }
    }

    #[test]
    fn initial_source_sites_are_in_fuel() {
        let p = Problem::test_small();
        let sites = p.sample_initial_source(64, 0);
        assert_eq!(sites.len(), 64);
        for s in &sites {
            let c = p.geometry.find(s.pos).unwrap();
            assert_eq!(c.material, mcs_geom::hm::MAT_FUEL);
            assert!(s.energy > 0.0 && s.energy < 30.0);
        }
    }

    #[test]
    fn initial_source_is_deterministic_per_salt() {
        let p = Problem::test_small();
        let a = p.sample_initial_source(16, 3);
        let b = p.sample_initial_source(16, 3);
        let c = p.sample_initial_source(16, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
