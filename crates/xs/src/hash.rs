//! Hash-binned energy grid (the XSBench/RSBench alternative to unionization).
//!
//! The unionized grid ([`crate::grid::UnionGrid`]) buys O(1) per-nuclide
//! index resolution with an index map of `n_union_points × n_nuclides`
//! `u32`s — hundreds of megabytes for the H.M. Large library, a real
//! constraint on a 16 GB accelerator. The hash-binned grid (Tramm et al.'s
//! XSBench line of work) instead divides the full energy range into `N`
//! *log-spaced* bins and stores, per `(bin, nuclide)`, the index of the
//! grid interval containing the bin's lower edge. A lookup is then one
//! float-to-bin hash (no binary search) plus a short bounded scan inside
//! the bin: the index table shrinks to `n_bins × n_nuclides` while the
//! scan stays a handful of points because nuclide grids are themselves
//! near-log-spaced.
//!
//! The scan is written so the resolved index is *exactly*
//! [`crate::grid::lower_bound_index`] of the nuclide's grid — bin-edge
//! rounding in `ln`/`exp` is absorbed by a backward guard — which is what
//! lets every grid backend produce bit-identical cross sections.

use std::cell::Cell;

use crate::nuclide::Nuclide;
use crate::{E_MAX, E_MIN};

/// Log-spaced hash-binned energy index (per-nuclide bin→index bounds).
#[derive(Debug, Clone)]
pub struct HashGrid {
    n_bins: usize,
    n_nuclides: usize,
    log_e_min: f64,
    inv_bin_width: f64,
    /// Bin-major bounds: `bounds[b * n_nuclides + k]` is the local index
    /// into nuclide `k`'s grid of the interval containing bin `b`'s lower
    /// edge (0 for degenerate single-point grids).
    bounds: Vec<u32>,
}

impl HashGrid {
    /// Default bin count for a library with `total_points` grid points
    /// across all nuclides: one bin per ~16 points keeps the in-bin scan
    /// short while the index stays an order of magnitude smaller than the
    /// unionized map.
    pub fn default_bins(total_points: usize) -> usize {
        (total_points / 16).clamp(64, 1 << 20)
    }

    /// Build the bin→index bounds for every nuclide. `O(n_bins ·
    /// n_nuclides + total_points)` via a cursor march per nuclide.
    pub fn build(nuclides: &[Nuclide], n_bins: usize) -> Self {
        assert!(!nuclides.is_empty(), "HashGrid requires at least 1 nuclide");
        assert!(n_bins > 0, "HashGrid requires at least 1 bin");
        let n_nuclides = nuclides.len();
        let log_e_min = E_MIN.ln();
        let bin_width = (E_MAX.ln() - log_e_min) / n_bins as f64;
        let mut bounds = vec![0u32; n_bins * n_nuclides];
        for (k, nuc) in nuclides.iter().enumerate() {
            let g = &nuc.energy;
            if g.len() < 2 {
                continue; // degenerate grid: every bound stays 0
            }
            let mut c = 0usize;
            for b in 0..n_bins {
                let e_start = (log_e_min + b as f64 * bin_width).exp();
                while c < g.len() - 2 && g[c + 1] <= e_start {
                    c += 1;
                }
                bounds[b * n_nuclides + k] = c as u32;
            }
        }
        Self {
            n_bins,
            n_nuclides,
            log_e_min,
            inv_bin_width: 1.0 / bin_width,
            bounds,
        }
    }

    /// Number of bins.
    #[inline]
    pub fn n_bins(&self) -> usize {
        self.n_bins
    }

    /// Number of nuclides covered by the bounds table.
    #[inline]
    pub fn n_nuclides(&self) -> usize {
        self.n_nuclides
    }

    /// Hash an energy to its bin (clamped to `[0, n_bins-1]`; NaN from a
    /// non-positive energy also clamps to 0).
    #[inline]
    pub fn bin_of(&self, e: f64) -> usize {
        let t = (e.ln() - self.log_e_min) * self.inv_bin_width;
        (t as isize).clamp(0, self.n_bins as isize - 1) as usize
    }

    /// Resolve the interval index of `e` inside nuclide `k`'s energy
    /// segment `seg`, starting the scan from bin `b`'s stored bound.
    ///
    /// Scan steps taken are accumulated into `steps`. The result is
    /// exactly `lower_bound_index(seg, e)` — the forward scan handles
    /// `e` deeper in the bin, the backward guard absorbs any `ln`/`exp`
    /// rounding at bin edges — so all backends resolve identical indices.
    #[inline]
    pub fn find_in_segment(
        &self,
        b: usize,
        k: usize,
        seg: &[f64],
        e: f64,
        steps: &Cell<u64>,
    ) -> u32 {
        let len = seg.len();
        if len < 2 {
            return 0;
        }
        let mut i = (self.bounds[b * self.n_nuclides + k] as usize).min(len - 2);
        let mut n = 0u64;
        while i < len - 2 && seg[i + 1] <= e {
            i += 1;
            n += 1;
        }
        while i > 0 && seg[i] > e {
            i -= 1;
            n += 1;
        }
        steps.set(steps.get() + n);
        i as u32
    }

    /// In-memory size of the index structures in bytes (the hash grid's
    /// answer to [`crate::grid::UnionGrid::data_bytes`]).
    pub fn index_bytes(&self) -> usize {
        self.bounds.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::lower_bound_index;
    use crate::nuclide::NuclideSpec;

    /// The stored per-nuclide starting bounds for bin `b`.
    fn bounds_row(h: &HashGrid, b: usize) -> &[u32] {
        &h.bounds[b * h.n_nuclides..(b + 1) * h.n_nuclides]
    }

    fn small_set() -> Vec<Nuclide> {
        vec![
            Nuclide::synthesize(&NuclideSpec::heavy("A", 230.0, false, 11)),
            Nuclide::synthesize(&NuclideSpec::heavy("B", 235.0, true, 22)),
            Nuclide::synthesize(&NuclideSpec::light("H", 1.0, 20.0, 0.3, 33)),
        ]
    }

    #[test]
    fn resolves_exactly_like_binary_search() {
        let nucs = small_set();
        let h = HashGrid::build(&nucs, 512);
        let steps = Cell::new(0u64);
        let mut e = 1.3e-11;
        while e < 25.0 {
            let b = h.bin_of(e);
            for (k, n) in nucs.iter().enumerate() {
                let via_hash = h.find_in_segment(b, k, &n.energy, e, &steps) as usize;
                let via_search = lower_bound_index(&n.energy, e);
                assert_eq!(via_hash, via_search, "e={e} k={k}");
            }
            e *= 1.37;
        }
        assert!(steps.get() > 0);
    }

    #[test]
    fn bin_edges_and_out_of_range_energies_clamp() {
        let nucs = small_set();
        let h = HashGrid::build(&nucs, 64);
        assert_eq!(h.bin_of(E_MIN), 0);
        assert_eq!(h.bin_of(E_MIN / 10.0), 0);
        assert_eq!(h.bin_of(E_MAX), h.n_bins() - 1);
        assert_eq!(h.bin_of(E_MAX * 10.0), h.n_bins() - 1);
        assert_eq!(h.bin_of(-1.0), 0); // ln(-1) = NaN clamps low
    }

    #[test]
    fn bounds_are_in_segment_range() {
        let nucs = small_set();
        let h = HashGrid::build(&nucs, 256);
        for b in 0..h.n_bins() {
            for (k, n) in nucs.iter().enumerate() {
                let bound = bounds_row(&h, b)[k] as usize;
                assert!(bound <= n.energy.len().saturating_sub(2), "b={b} k={k}");
            }
        }
    }

    #[test]
    fn bounds_monotone_in_bin_per_nuclide() {
        let nucs = small_set();
        let h = HashGrid::build(&nucs, 128);
        for k in 0..nucs.len() {
            for b in 1..h.n_bins() {
                assert!(bounds_row(&h, b)[k] >= bounds_row(&h, b - 1)[k]);
            }
        }
    }

    #[test]
    fn index_bytes_formula() {
        let nucs = small_set();
        let h = HashGrid::build(&nucs, 100);
        assert_eq!(h.index_bytes(), 100 * nucs.len() * 4);
    }

    #[test]
    fn degenerate_single_point_grid_stays_in_bounds() {
        let mut nucs = small_set();
        // A pathological one-point nuclide: the builder must not underflow
        // and every stored bound must stay 0.
        let mut one = nucs[0].clone();
        one.energy = vec![1.0e-6];
        one.total = vec![1.0];
        nucs.push(one);
        let h = HashGrid::build(&nucs, 32);
        let steps = Cell::new(0u64);
        for b in 0..h.n_bins() {
            assert_eq!(bounds_row(&h, b)[3], 0);
        }
        assert_eq!(h.find_in_segment(5, 3, &[1.0e-6], 1.0, &steps), 0);
        assert_eq!(steps.get(), 0);
    }

    #[test]
    fn duplicate_energies_across_nuclides_resolve_consistently() {
        // Two nuclides sharing identical grids: bounds rows must agree.
        let nucs = small_set();
        let twin = vec![nucs[0].clone(), nucs[0].clone()];
        let h = HashGrid::build(&twin, 64);
        for b in 0..h.n_bins() {
            let row = bounds_row(&h, b);
            assert_eq!(row[0], row[1]);
        }
    }

    #[test]
    fn one_nuclide_library_builds() {
        let nucs = vec![small_set().remove(2)];
        let h = HashGrid::build(&nucs, 16);
        assert_eq!(h.n_nuclides(), 1);
        let steps = Cell::new(0u64);
        let e = 1.0e-3;
        let got = h.find_in_segment(h.bin_of(e), 0, &nucs[0].energy, e, &steps) as usize;
        assert_eq!(got, lower_bound_index(&nucs[0].energy, e));
    }
}
