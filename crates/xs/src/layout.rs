//! AoS and SoA flattenings of a nuclide library.
//!
//! The paper's single most important MIC optimization (§III-A1) is the
//! transformation of arrays of Fortran derived types into isolated arrays
//! ("AoS to SoA"). Both layouts are implemented so the ablation benchmark
//! can measure exactly that transform:
//!
//! * [`AosLibrary`] — one array of [`GridPoint`] records per library
//!   (energy + 5 reactions packed in 48 bytes). A scalar lookup touches one
//!   or two cache lines; a vector gather of one reaction across nuclides
//!   touches eight.
//! * [`SoaLibrary`] — six flat, 64-byte-aligned arrays. A vector gather of
//!   one reaction across nuclides touches only that reaction's array.

use mcs_simd::AVec64;

use crate::library::NuclideLibrary;

/// One pointwise record in the AoS layout.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct GridPoint {
    /// Energy (MeV).
    pub energy: f64,
    /// Total cross section (barns).
    pub total: f64,
    /// Elastic cross section.
    pub elastic: f64,
    /// Inelastic cross section.
    pub inelastic: f64,
    /// Absorption cross section.
    pub absorption: f64,
    /// Fission cross section.
    pub fission: f64,
}

// The AoS record layout the ablation measures: energy + 5 reactions,
// 6 × 8 = 48 bytes, no padding.
const _: () = assert!(std::mem::size_of::<GridPoint>() == 48);

/// Array-of-structs flattening: all nuclides' points concatenated.
#[derive(Debug, Clone)]
pub struct AosLibrary {
    /// `offsets[k]..offsets[k+1]` is nuclide `k`'s range in `points`.
    pub offsets: Vec<u32>,
    /// All grid points.
    pub points: Vec<GridPoint>,
}

impl AosLibrary {
    /// Flatten a library.
    pub fn build(lib: &NuclideLibrary) -> Self {
        let mut offsets = Vec::with_capacity(lib.len() + 1);
        let mut points = Vec::with_capacity(lib.total_points());
        let mut off = 0u32;
        for n in &lib.nuclides {
            offsets.push(off);
            for i in 0..n.n_points() {
                points.push(GridPoint {
                    energy: n.energy[i],
                    total: n.total[i],
                    elastic: n.elastic[i],
                    inelastic: n.inelastic[i],
                    absorption: n.absorption[i],
                    fission: n.fission[i],
                });
            }
            off += n.n_points() as u32;
        }
        offsets.push(off);
        Self { offsets, points }
    }

    /// Size of the flattened data in bytes.
    pub fn data_bytes(&self) -> usize {
        self.points.len() * std::mem::size_of::<GridPoint>()
    }
}

/// Struct-of-arrays flattening: five parallel flat arrays.
#[derive(Debug, Clone)]
pub struct SoaLibrary {
    /// `offsets[k]..offsets[k+1]` is nuclide `k`'s range in each array.
    pub offsets: Vec<u32>,
    /// Energies (MeV).
    pub energy: AVec64,
    /// Total cross sections.
    pub total: AVec64,
    /// Elastic cross sections.
    pub elastic: AVec64,
    /// Inelastic cross sections.
    pub inelastic: AVec64,
    /// Absorption cross sections.
    pub absorption: AVec64,
    /// Fission cross sections.
    pub fission: AVec64,
}

impl SoaLibrary {
    /// Flatten a library.
    pub fn build(lib: &NuclideLibrary) -> Self {
        let total_pts = lib.total_points();
        let mut offsets = Vec::with_capacity(lib.len() + 1);
        let mut energy = AVec64::zeros(total_pts);
        let mut total = AVec64::zeros(total_pts);
        let mut elastic = AVec64::zeros(total_pts);
        let mut inelastic = AVec64::zeros(total_pts);
        let mut absorption = AVec64::zeros(total_pts);
        let mut fission = AVec64::zeros(total_pts);

        let mut off = 0usize;
        for n in &lib.nuclides {
            offsets.push(off as u32);
            let m = n.n_points();
            energy.as_mut_slice()[off..off + m].copy_from_slice(&n.energy);
            total.as_mut_slice()[off..off + m].copy_from_slice(&n.total);
            elastic.as_mut_slice()[off..off + m].copy_from_slice(&n.elastic);
            inelastic.as_mut_slice()[off..off + m].copy_from_slice(&n.inelastic);
            absorption.as_mut_slice()[off..off + m].copy_from_slice(&n.absorption);
            fission.as_mut_slice()[off..off + m].copy_from_slice(&n.fission);
            off += m;
        }
        offsets.push(off as u32);

        Self {
            offsets,
            energy,
            total,
            elastic,
            inelastic,
            absorption,
            fission,
        }
    }

    /// Number of nuclides.
    #[inline]
    pub fn n_nuclides(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Size of the flattened data in bytes.
    pub fn data_bytes(&self) -> usize {
        6 * self.energy.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::LibrarySpec;

    fn lib() -> NuclideLibrary {
        NuclideLibrary::build(&LibrarySpec::tiny())
    }

    #[test]
    fn aos_preserves_values() {
        let l = lib();
        let aos = AosLibrary::build(&l);
        for (k, n) in l.nuclides.iter().enumerate() {
            let pts = &aos.points[aos.offsets[k] as usize..aos.offsets[k + 1] as usize];
            assert_eq!(pts.len(), n.n_points());
            assert_eq!(pts[0].energy, n.energy[0]);
            let last = pts.len() - 1;
            assert_eq!(pts[last].total, n.total[last]);
        }
    }

    #[test]
    fn soa_preserves_values() {
        let l = lib();
        let soa = SoaLibrary::build(&l);
        assert_eq!(soa.n_nuclides(), l.len());
        for (k, n) in l.nuclides.iter().enumerate() {
            let off = soa.offsets[k] as usize;
            for i in (0..n.n_points()).step_by(17) {
                assert_eq!(soa.energy[off + i], n.energy[i]);
                assert_eq!(soa.absorption[off + i], n.absorption[i]);
            }
        }
    }

    #[test]
    fn layouts_have_equal_data_volume() {
        let l = lib();
        let aos = AosLibrary::build(&l);
        let soa = SoaLibrary::build(&l);
        assert_eq!(aos.data_bytes(), soa.data_bytes());
        assert_eq!(aos.data_bytes(), l.data_bytes());
    }

    #[test]
    fn gridpoint_is_48_bytes() {
        assert_eq!(std::mem::size_of::<GridPoint>(), 48);
    }

    #[test]
    fn soa_arrays_are_aligned() {
        let soa = SoaLibrary::build(&lib());
        assert_eq!(soa.total.as_slice().as_ptr() as usize % 64, 0);
    }
}
