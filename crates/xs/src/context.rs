//! The unified cross-section lookup context.
//!
//! [`XsContext`] owns the nuclide library, both flattened layouts, and one
//! [`GridBackend`] — the structure that resolves, for an energy, each
//! nuclide's bracketing grid interval. Three backends are provided:
//!
//! * [`GridBackendKind::PerNuclideBinary`] — one binary search per nuclide
//!   per lookup (the pre-Leppänen baseline the grid ablation measures).
//! * [`GridBackendKind::Unionized`] — the paper's unionized energy grid
//!   ([`UnionGrid`]): one binary search total, then O(1) per-nuclide index
//!   rows, at an index-map cost of `n_union_points × n_nuclides` `u32`s.
//! * [`GridBackendKind::HashBinned`] — the XSBench-style hash grid
//!   ([`HashGrid`]): O(1) bin hash plus a short in-bin scan, with an index
//!   table of only `n_bins × n_nuclides` `u32`s.
//!
//! Every backend resolves exactly the index a per-nuclide binary search
//! would, and every path funnels into the shared kernels of
//! [`crate::kernel`], so for any material and energy the scalar path, the
//! SIMD path, and all three backends produce **bit-identical** cross
//! sections. That is what allows the transport drivers to treat the
//! backend as a pure performance knob without touching the repo's
//! determinism contract.
//!
//! The context also instruments itself: `xs.lookups` (macroscopic lookups
//! served), `xs.bin_scan_steps` (hash-grid scan steps),
//! `xs.gather_span_bytes` / `xs.gather_span_pairs` (the byte distance
//! between the index rows touched by consecutive lookups of one batch
//! call — a gather-locality proxy),
//! and `xs.index_bytes` (resident index-structure size) are kept in
//! relaxed atomics and exported into [`mcs_prof::Counters`] via
//! [`XsContext::export_counters`].

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::grid::{lower_bound_index, UnionGrid};
use crate::hash::HashGrid;
use crate::kernel::{
    batch_outer_simd_with, macro_xs_aos_seq, macro_xs_lanes_scalar, macro_xs_lanes_simd,
    macro_xs_seq, MacroXs, NuclideIndexer,
};
use crate::layout::{AosLibrary, SoaLibrary};
use crate::library::NuclideLibrary;
use crate::material::Material;

/// Which grid backend an [`XsContext`] should build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GridBackendKind {
    /// One binary search per nuclide per lookup (no index structure).
    PerNuclideBinary,
    /// Unionized energy grid with per-nuclide index maps (the default;
    /// the paper's configuration).
    #[default]
    Unionized,
    /// Log-spaced hash bins with per-nuclide bin bounds and a bounded
    /// in-bin scan.
    HashBinned,
}

impl GridBackendKind {
    /// All backends, in ablation order.
    pub const ALL: [GridBackendKind; 3] = [
        GridBackendKind::PerNuclideBinary,
        GridBackendKind::Unionized,
        GridBackendKind::HashBinned,
    ];

    /// Stable lowercase name (used in CSV rows and JSON results).
    pub fn name(&self) -> &'static str {
        match self {
            GridBackendKind::PerNuclideBinary => "binary",
            GridBackendKind::Unionized => "unionized",
            GridBackendKind::HashBinned => "hash",
        }
    }

    /// Parse a [`Self::name`] back (for CLI/env plumbing).
    pub fn from_name(s: &str) -> Option<GridBackendKind> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// A built grid backend: the index structures behind one strategy.
#[derive(Debug, Clone)]
pub enum GridBackend {
    /// No index structure; every lookup binary-searches each nuclide.
    PerNuclideBinary,
    /// The unionized grid and its index maps.
    Unionized(UnionGrid),
    /// The hash-binned grid and its bounds table.
    HashBinned(HashGrid),
}

impl GridBackend {
    /// Which kind this backend is.
    pub fn kind(&self) -> GridBackendKind {
        match self {
            GridBackend::PerNuclideBinary => GridBackendKind::PerNuclideBinary,
            GridBackend::Unionized(_) => GridBackendKind::Unionized,
            GridBackend::HashBinned(_) => GridBackendKind::HashBinned,
        }
    }
}

/// Unified cross-section lookup context: library + layouts + grid backend
/// behind one API surface, with built-in instrumentation.
#[derive(Debug)]
pub struct XsContext {
    data: Arc<XsData>,
    counters: XsCounters,
}

/// The instrumentation atomics, on a cache line of their own: every
/// lookup of every thread writes them, and sharing a line with `data`
/// (or with a neighbouring `Problem` field) would make each of those
/// writes evict something every other thread's next lookup reads.
#[derive(Debug, Default)]
#[repr(align(64))]
struct XsCounters {
    lookups: AtomicU64,
    bin_scan_steps: AtomicU64,
    gather_span_bytes: AtomicU64,
    gather_span_pairs: AtomicU64,
}

/// The immutable heavyweight half of a context (hundreds of MB for the
/// large model's unionized index), shared by every clone.
#[derive(Debug)]
struct XsData {
    lib: NuclideLibrary,
    soa: SoaLibrary,
    backend: GridBackend,
}

impl Clone for XsContext {
    /// Shares the data structures; the instrumentation counters of the
    /// clone start from zero.
    fn clone(&self) -> Self {
        Self {
            data: Arc::clone(&self.data),
            counters: XsCounters::default(),
        }
    }
}

/// Gather-locality tracker for one batch-driver call: accumulates the
/// byte distance between the backend index rows touched by *consecutive*
/// lookups (union grid point rows, hash bin bounds rows; the per-nuclide
/// binary backend has no shared index and contributes nothing).
///
/// One tracker lives per driver call, so spans never straddle unrelated
/// call sites; the totals flush into the context's relaxed atomics when
/// the call completes. The mean span per pair is a cache-miss proxy:
/// energy-ordered banks walk adjacent rows, unordered banks jump across
/// the whole index.
struct SpanTracker {
    primed: Cell<bool>,
    last: Cell<u64>,
    bytes: Cell<u64>,
    pairs: Cell<u64>,
}

impl SpanTracker {
    fn new() -> Self {
        Self {
            primed: Cell::new(false),
            last: Cell::new(0),
            bytes: Cell::new(0),
            pairs: Cell::new(0),
        }
    }

    /// Record that a lookup touched index row `pos` (row stride
    /// `row_bytes`).
    #[inline]
    fn observe(&self, pos: u64, row_bytes: u64) {
        if self.primed.get() {
            let prev = self.last.get();
            let d = pos.abs_diff(prev);
            self.bytes.set(self.bytes.get() + d * row_bytes);
            self.pairs.set(self.pairs.get() + 1);
        }
        self.primed.set(true);
        self.last.set(pos);
    }
}

// ---------------------------------------------------------------------
// Index resolvers (one per backend), monomorphized into the kernels.
// ---------------------------------------------------------------------

struct UnionIx<'a> {
    row: &'a [u32],
}

impl NuclideIndexer for UnionIx<'_> {
    #[inline(always)]
    fn index(&self, k: usize) -> u32 {
        self.row[k]
    }
}

struct BinaryIx<'a> {
    soa: &'a SoaLibrary,
    e: f64,
}

impl NuclideIndexer for BinaryIx<'_> {
    #[inline(always)]
    fn index(&self, k: usize) -> u32 {
        let lo = self.soa.offsets[k] as usize;
        let hi = self.soa.offsets[k + 1] as usize;
        let seg = &self.soa.energy.as_slice()[lo..hi];
        if seg.len() < 2 {
            return 0;
        }
        lower_bound_index(seg, self.e) as u32
    }
}

struct HashIx<'a> {
    hash: &'a HashGrid,
    soa: &'a SoaLibrary,
    e: f64,
    bin: usize,
    steps: &'a Cell<u64>,
}

impl NuclideIndexer for HashIx<'_> {
    #[inline(always)]
    fn index(&self, k: usize) -> u32 {
        let lo = self.soa.offsets[k] as usize;
        let hi = self.soa.offsets[k + 1] as usize;
        let seg = &self.soa.energy.as_slice()[lo..hi];
        self.hash
            .find_in_segment(self.bin, k, seg, self.e, self.steps)
    }
}

/// Per-energy index resolver handed out to the physics layer (one
/// resolution context per collision, replacing `grid.find` + row walks).
///
/// Hash-grid scan steps accumulate locally and flush into the owning
/// context's counters when the indexer drops.
pub struct EnergyIndexer<'a> {
    inner: IxInner<'a>,
}

enum IxInner<'a> {
    Union(&'a [u32]),
    Binary {
        soa: &'a SoaLibrary,
        e: f64,
    },
    Hash {
        hash: &'a HashGrid,
        soa: &'a SoaLibrary,
        e: f64,
        bin: usize,
        steps: Cell<u64>,
        sink: &'a AtomicU64,
    },
}

impl EnergyIndexer<'_> {
    /// Interval index into nuclide `k`'s grid for this indexer's energy —
    /// exactly what a per-nuclide binary search would return.
    #[inline]
    pub fn index(&self, k: usize) -> u32 {
        match &self.inner {
            IxInner::Union(row) => row[k],
            IxInner::Binary { soa, e } => BinaryIx { soa, e: *e }.index(k),
            IxInner::Hash {
                hash,
                soa,
                e,
                bin,
                steps,
                ..
            } => HashIx {
                hash,
                soa,
                e: *e,
                bin: *bin,
                steps,
            }
            .index(k),
        }
    }
}

impl Drop for EnergyIndexer<'_> {
    fn drop(&mut self) {
        if let IxInner::Hash { steps, sink, .. } = &self.inner {
            let n = steps.get();
            if n > 0 {
                sink.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

/// Dispatch to the backend-specific resolver, binding it as `$ix` in
/// `$body`. `$steps` is a `Cell<u64>` collecting hash scan steps;
/// `$span` is the call's [`SpanTracker`] observing which index row the
/// lookup touches (no observation for the index-free binary backend).
macro_rules! with_resolver {
    ($self:ident, $e:expr, $steps:ident, $span:ident, $ix:ident => $body:expr) => {
        match &$self.data.backend {
            GridBackend::Unionized(g) => {
                let u = g.find($e);
                $span.observe(u as u64, (g.n_nuclides() * 4) as u64);
                let $ix = UnionIx {
                    row: g.index_row(u),
                };
                $body
            }
            GridBackend::PerNuclideBinary => {
                let $ix = BinaryIx {
                    soa: &$self.data.soa,
                    e: $e,
                };
                $body
            }
            GridBackend::HashBinned(h) => {
                let bin = h.bin_of($e);
                $span.observe(bin as u64, (h.n_nuclides() * 4) as u64);
                let $ix = HashIx {
                    hash: h,
                    soa: &$self.data.soa,
                    e: $e,
                    bin,
                    steps: &$steps,
                };
                $body
            }
        }
    };
}

impl XsContext {
    /// Build a context over `lib` with the given backend (hash backend
    /// gets [`HashGrid::default_bins`]).
    pub fn new(lib: NuclideLibrary, kind: GridBackendKind) -> Self {
        match kind {
            GridBackendKind::HashBinned => {
                let bins = HashGrid::default_bins(lib.total_points());
                Self::with_hash_bins(lib, bins)
            }
            GridBackendKind::Unionized => {
                let grid = UnionGrid::build(&lib.nuclides);
                Self::assemble(lib, GridBackend::Unionized(grid))
            }
            GridBackendKind::PerNuclideBinary => Self::assemble(lib, GridBackend::PerNuclideBinary),
        }
    }

    /// Build a hash-binned context with an explicit bin count.
    pub fn with_hash_bins(lib: NuclideLibrary, n_bins: usize) -> Self {
        let hash = HashGrid::build(&lib.nuclides, n_bins);
        Self::assemble(lib, GridBackend::HashBinned(hash))
    }

    fn assemble(lib: NuclideLibrary, backend: GridBackend) -> Self {
        let soa = SoaLibrary::build(&lib);
        Self {
            data: Arc::new(XsData { lib, soa, backend }),
            counters: XsCounters::default(),
        }
    }

    // -- accessors ----------------------------------------------------

    /// Whether `self` and `other` read the same library/index allocation.
    #[cfg(test)]
    pub(crate) fn shares_data_with(&self, other: &XsContext) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// The nuclide library.
    #[inline]
    pub fn lib(&self) -> &NuclideLibrary {
        &self.data.lib
    }

    /// The SoA flattening (the vector kernels' data).
    #[inline]
    pub fn soa(&self) -> &SoaLibrary {
        &self.data.soa
    }

    /// The grid backend.
    #[inline]
    pub fn backend(&self) -> &GridBackend {
        &self.data.backend
    }

    /// Which backend kind is active.
    #[inline]
    pub fn backend_kind(&self) -> GridBackendKind {
        self.data.backend.kind()
    }

    /// The unionized grid, if that backend is active (device/offload
    /// models size transfers from it).
    pub fn union_grid(&self) -> Option<&UnionGrid> {
        match &self.data.backend {
            GridBackend::Unionized(g) => Some(g),
            _ => None,
        }
    }

    /// Number of nuclides.
    #[inline]
    pub fn n_nuclides(&self) -> usize {
        self.data.lib.len()
    }

    /// Size of the search structure one lookup traverses: union points,
    /// hash bins, or the mean per-nuclide grid length — the machine
    /// models' "grid points" input.
    pub fn search_points(&self) -> usize {
        match &self.data.backend {
            GridBackend::Unionized(g) => g.n_points(),
            GridBackend::HashBinned(h) => h.n_bins(),
            GridBackend::PerNuclideBinary => {
                self.data.lib.total_points() / self.data.lib.len().max(1)
            }
        }
    }

    /// Bytes of backend index structures (union energies + index map,
    /// hash bounds table, or zero for per-nuclide binary search).
    pub fn index_bytes(&self) -> usize {
        match &self.data.backend {
            GridBackend::Unionized(g) => g.data_bytes(),
            GridBackend::HashBinned(h) => h.index_bytes(),
            GridBackend::PerNuclideBinary => 0,
        }
    }

    /// Bytes of pointwise cross-section data (the SoA arrays the kernels
    /// gather from).
    pub fn data_bytes(&self) -> usize {
        self.data.soa.data_bytes()
    }

    // -- single-energy lookups ----------------------------------------

    /// Scalar macroscopic lookup (bit-identical to [`Self::macro_xs_simd`]).
    pub fn macro_xs(&self, mat: &Material, e: f64) -> MacroXs {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        let steps = Cell::new(0u64);
        let span = SpanTracker::new();
        let out = with_resolver!(self, e, steps, span, ix => macro_xs_lanes_scalar(&self.data.soa, mat, e, &ix));
        self.flush_steps(&steps);
        out
    }

    /// Vectorized macroscopic lookup: inner loop over nuclides 8-wide
    /// with gathers (the paper's fastest configuration).
    pub fn macro_xs_simd(&self, mat: &Material, e: f64) -> MacroXs {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        let steps = Cell::new(0u64);
        let span = SpanTracker::new();
        let out = self.macro_xs_simd_inner(mat, e, &steps, &span);
        self.flush_steps(&steps);
        out
    }

    #[inline]
    fn macro_xs_simd_inner(
        &self,
        mat: &Material,
        e: f64,
        steps: &Cell<u64>,
        span: &SpanTracker,
    ) -> MacroXs {
        with_resolver!(self, e, steps, span, ix => macro_xs_lanes_simd(&self.data.soa, mat, e, &ix))
    }

    /// Reference lookup: per-nuclide binary search regardless of the
    /// active backend (the pre-Leppänen baseline). Bit-identical to
    /// [`Self::macro_xs`] under every backend.
    pub fn macro_xs_direct(&self, mat: &Material, e: f64) -> MacroXs {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        macro_xs_lanes_scalar(
            &self.data.soa,
            mat,
            e,
            &BinaryIx {
                soa: &self.data.soa,
                e,
            },
        )
    }

    /// Sequential scalar lookup over a caller-built AoS flattening of
    /// [`Self::lib`] (layout-ablation baseline; agrees with the canonical
    /// paths to rounding, not bits).
    pub fn macro_xs_aos(&self, aos: &AosLibrary, mat: &Material, e: f64) -> MacroXs {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        let steps = Cell::new(0u64);
        let span = SpanTracker::new();
        let out = with_resolver!(self, e, steps, span, ix => macro_xs_aos_seq(aos, mat, e, &ix));
        self.flush_steps(&steps);
        out
    }

    // -- whole-bank drivers -------------------------------------------

    /// Whole-bank scalar driver (the history-style reference for Fig. 2).
    pub fn batch_macro_xs(&self, mat: &Material, energies: &[f64], out: &mut [MacroXs]) {
        assert_eq!(energies.len(), out.len());
        self.counters
            .lookups
            .fetch_add(energies.len() as u64, Ordering::Relaxed);
        let steps = Cell::new(0u64);
        let span = SpanTracker::new();
        for (e, o) in energies.iter().zip(out.iter_mut()) {
            *o = with_resolver!(self, *e, steps, span, ix => macro_xs_lanes_scalar(&self.data.soa, mat, *e, &ix));
        }
        self.flush_steps(&steps);
        self.flush_gather(&span);
    }

    /// Whole-bank sequential driver — the paper's history-method
    /// `calculate_xs()` loop: one nuclide at a time through the
    /// per-nuclide structs, a single accumulator chain. This is Fig. 2's
    /// measured "history/CPU" baseline; it agrees with the lane-striped
    /// paths to rounding, not bits (use [`Self::batch_macro_xs`] for the
    /// bit-identity scalar).
    pub fn batch_macro_xs_seq(&self, mat: &Material, energies: &[f64], out: &mut [MacroXs]) {
        assert_eq!(energies.len(), out.len());
        self.counters
            .lookups
            .fetch_add(energies.len() as u64, Ordering::Relaxed);
        let steps = Cell::new(0u64);
        let span = SpanTracker::new();
        for (e, o) in energies.iter().zip(out.iter_mut()) {
            *o = with_resolver!(self, *e, steps, span, ix => macro_xs_seq(&self.data.lib, mat, *e, &ix));
        }
        self.flush_steps(&steps);
        self.flush_gather(&span);
    }

    /// Whole-bank driver with the inner (nuclide) loop vectorized — the
    /// banked-lookup configuration the paper measures in Fig. 2.
    pub fn batch_macro_xs_simd(&self, mat: &Material, energies: &[f64], out: &mut [MacroXs]) {
        assert_eq!(energies.len(), out.len());
        self.counters
            .lookups
            .fetch_add(energies.len() as u64, Ordering::Relaxed);
        let steps = Cell::new(0u64);
        let span = SpanTracker::new();
        for (e, o) in energies.iter().zip(out.iter_mut()) {
            *o = self.macro_xs_simd_inner(mat, *e, &steps, &span);
        }
        self.flush_steps(&steps);
        self.flush_gather(&span);
    }

    /// Banked-lookup driver addressing the bank through gather indices:
    /// lane `k` computes the cross section at `energy[indices[k]]` and
    /// writes it to `out[k]`.
    ///
    /// The event loop's XS stage buckets live particles by material,
    /// which leaves each bucket a sorted-but-non-contiguous subset of the
    /// bank. This driver gathers those energies through a stack-resident
    /// staging tile, so no heap copy of the bucket's energies is ever
    /// materialized. Per element the result is exactly
    /// [`Self::macro_xs_simd`].
    pub fn batch_macro_xs_simd_indexed(
        &self,
        mat: &Material,
        energy: &[f64],
        indices: &[u32],
        out: &mut [MacroXs],
    ) {
        assert_eq!(indices.len(), out.len());
        self.counters
            .lookups
            .fetch_add(indices.len() as u64, Ordering::Relaxed);
        let steps = Cell::new(0u64);
        let span = SpanTracker::new();
        const TILE: usize = 64;
        let mut tile = [0.0f64; TILE];
        for (idx_tile, out_tile) in indices.chunks(TILE).zip(out.chunks_mut(TILE)) {
            let m = idx_tile.len();
            for (slot, &i) in tile[..m].iter_mut().zip(idx_tile) {
                *slot = energy[i as usize];
            }
            for (e, o) in tile[..m].iter().zip(out_tile.iter_mut()) {
                *o = self.macro_xs_simd_inner(mat, *e, &steps, &span);
            }
        }
        self.flush_steps(&steps);
        self.flush_gather(&span);
    }

    /// Whole-bank driver vectorized across the *outer* (particle) loop —
    /// the variant the paper found slower, kept for the ablation.
    pub fn batch_macro_xs_outer_simd(&self, mat: &Material, energies: &[f64], out: &mut [MacroXs]) {
        assert_eq!(energies.len(), out.len());
        self.counters
            .lookups
            .fetch_add(energies.len() as u64, Ordering::Relaxed);
        let steps = Cell::new(0u64);
        let span = SpanTracker::new();
        match &self.data.backend {
            GridBackend::Unionized(g) => {
                batch_outer_simd_with(&self.data.soa, mat, energies, out, |e| {
                    let u = g.find(e);
                    span.observe(u as u64, (g.n_nuclides() * 4) as u64);
                    UnionIx {
                        row: g.index_row(u),
                    }
                })
            }
            GridBackend::PerNuclideBinary => {
                batch_outer_simd_with(&self.data.soa, mat, energies, out, |e| BinaryIx {
                    soa: &self.data.soa,
                    e,
                })
            }
            GridBackend::HashBinned(h) => {
                batch_outer_simd_with(&self.data.soa, mat, energies, out, |e| {
                    let bin = h.bin_of(e);
                    span.observe(bin as u64, (h.n_nuclides() * 4) as u64);
                    HashIx {
                        hash: h,
                        soa: &self.data.soa,
                        e,
                        bin,
                        steps: &steps,
                    }
                })
            }
        }
        self.flush_steps(&steps);
        self.flush_gather(&span);
    }

    // -- physics-layer index resolution -------------------------------

    /// One per-energy resolver for the physics layer (a collision
    /// resolves indices for several nuclides of one material at one
    /// energy).
    pub fn indexer(&self, e: f64) -> EnergyIndexer<'_> {
        let inner = match &self.data.backend {
            GridBackend::Unionized(g) => IxInner::Union(g.index_row(g.find(e))),
            GridBackend::PerNuclideBinary => IxInner::Binary {
                soa: &self.data.soa,
                e,
            },
            GridBackend::HashBinned(h) => IxInner::Hash {
                hash: h,
                soa: &self.data.soa,
                e,
                bin: h.bin_of(e),
                steps: Cell::new(0),
                sink: &self.counters.bin_scan_steps,
            },
        };
        EnergyIndexer { inner }
    }

    /// Interval index into nuclide `k`'s grid at energy `e` (a one-shot
    /// [`Self::indexer`]).
    #[inline]
    pub fn nuclide_index(&self, e: f64, k: usize) -> u32 {
        self.indexer(e).index(k)
    }

    // -- instrumentation ----------------------------------------------

    #[inline]
    fn flush_steps(&self, steps: &Cell<u64>) {
        let n = steps.get();
        if n > 0 {
            self.counters.bin_scan_steps.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[inline]
    fn flush_gather(&self, span: &SpanTracker) {
        let pairs = span.pairs.get();
        if pairs > 0 {
            self.counters
                .gather_span_bytes
                .fetch_add(span.bytes.get(), Ordering::Relaxed);
            self.counters
                .gather_span_pairs
                .fetch_add(pairs, Ordering::Relaxed);
        }
    }

    /// Macroscopic lookups served since construction (or counter reset).
    pub fn lookups(&self) -> u64 {
        self.counters.lookups.load(Ordering::Relaxed)
    }

    /// Hash-grid in-bin scan steps taken (0 for other backends).
    pub fn bin_scan_steps(&self) -> u64 {
        self.counters.bin_scan_steps.load(Ordering::Relaxed)
    }

    /// Total byte distance between the index rows touched by consecutive
    /// lookups of the batch drivers (0 for the index-free binary
    /// backend). Divide by [`Self::gather_span_pairs`] for the mean span.
    pub fn gather_span_bytes(&self) -> u64 {
        self.counters.gather_span_bytes.load(Ordering::Relaxed)
    }

    /// Number of consecutive-lookup pairs behind
    /// [`Self::gather_span_bytes`].
    pub fn gather_span_pairs(&self) -> u64 {
        self.counters.gather_span_pairs.load(Ordering::Relaxed)
    }

    /// Mean gather span in bytes per consecutive-lookup pair (a
    /// cache-miss proxy; 0.0 when no batch lookups ran).
    pub fn mean_gather_span_bytes(&self) -> f64 {
        let pairs = self.gather_span_pairs();
        if pairs == 0 {
            0.0
        } else {
            self.gather_span_bytes() as f64 / pairs as f64
        }
    }

    /// Reset the instrumentation counters to zero.
    pub fn reset_counters(&self) {
        self.counters.lookups.store(0, Ordering::Relaxed);
        self.counters.bin_scan_steps.store(0, Ordering::Relaxed);
        self.counters.gather_span_bytes.store(0, Ordering::Relaxed);
        self.counters.gather_span_pairs.store(0, Ordering::Relaxed);
    }

    /// Export `xs.lookups`, `xs.bin_scan_steps`, `xs.gather_span_bytes`,
    /// `xs.gather_span_pairs`, and `xs.index_bytes` into a profiling
    /// counter set.
    pub fn export_counters(&self, c: &mut mcs_prof::Counters) {
        c.add("xs.lookups", self.lookups());
        c.add("xs.bin_scan_steps", self.bin_scan_steps());
        c.add("xs.gather_span_bytes", self.gather_span_bytes());
        c.add("xs.gather_span_pairs", self.gather_span_pairs());
        c.add("xs.index_bytes", self.index_bytes() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::LibrarySpec;

    fn contexts() -> Vec<XsContext> {
        let lib = NuclideLibrary::build(&LibrarySpec::tiny());
        GridBackendKind::ALL
            .iter()
            .map(|&k| XsContext::new(lib.clone(), k))
            .collect()
    }

    fn probe_energies() -> Vec<f64> {
        let mut es = Vec::new();
        let mut e = 2.3e-11;
        while e < 19.0 {
            es.push(e);
            e *= 1.9;
        }
        es
    }

    fn assert_bits_eq(a: &MacroXs, b: &MacroXs, what: &str) {
        for (x, y) in [
            (a.total, b.total),
            (a.elastic, b.elastic),
            (a.inelastic, b.inelastic),
            (a.absorption, b.absorption),
            (a.fission, b.fission),
            (a.nu_fission, b.nu_fission),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {x} vs {y}");
        }
    }

    #[test]
    fn all_backends_bitwise_equal_direct() {
        let ctxs = contexts();
        for ctx in &ctxs {
            let fuel = Material::hm_fuel(ctx.lib());
            let water = Material::hm_water(ctx.lib());
            for &e in &probe_energies() {
                for mat in [&fuel, &water] {
                    let direct = ctx.macro_xs_direct(mat, e);
                    let scalar = ctx.macro_xs(mat, e);
                    let simd = ctx.macro_xs_simd(mat, e);
                    let name = ctx.backend_kind().name();
                    assert_bits_eq(&scalar, &direct, &format!("{name} scalar vs direct e={e}"));
                    assert_bits_eq(&simd, &scalar, &format!("{name} simd vs scalar e={e}"));
                }
            }
        }
    }

    #[test]
    fn backends_bitwise_equal_each_other() {
        let ctxs = contexts();
        let fuel = Material::hm_fuel(ctxs[0].lib());
        for &e in &probe_energies() {
            let reference = ctxs[0].macro_xs(&fuel, e);
            for ctx in &ctxs[1..] {
                let got = ctx.macro_xs(&fuel, e);
                assert_bits_eq(
                    &got,
                    &reference,
                    &format!("{} e={e}", ctx.backend_kind().name()),
                );
            }
        }
    }

    #[test]
    fn batch_drivers_agree() {
        for ctx in &contexts() {
            let fuel = Material::hm_fuel(ctx.lib());
            let es = probe_energies();
            let mut a = vec![MacroXs::default(); es.len()];
            let mut b = vec![MacroXs::default(); es.len()];
            let mut c = vec![MacroXs::default(); es.len()];
            ctx.batch_macro_xs(&fuel, &es, &mut a);
            ctx.batch_macro_xs_simd(&fuel, &es, &mut b);
            ctx.batch_macro_xs_outer_simd(&fuel, &es, &mut c);
            for i in 0..es.len() {
                assert_bits_eq(&a[i], &b[i], &format!("scalar vs simd i={i}"));
                assert!(a[i].max_rel_diff(&c[i]) < 1e-12, "outer i={i}");
            }
        }
    }

    #[test]
    fn indexed_driver_matches_elementwise_simd() {
        for ctx in &contexts() {
            let fuel = Material::hm_fuel(ctx.lib());
            let energy: Vec<f64> = (0..150).map(|i| 2.3e-11 * 1.18f64.powi(i)).collect();
            let indices: Vec<u32> = (0..150u32).map(|k| (k * 67 + 13) % 150).collect();
            let mut out = vec![MacroXs::default(); indices.len()];
            ctx.batch_macro_xs_simd_indexed(&fuel, &energy, &indices, &mut out);
            for (k, &i) in indices.iter().enumerate() {
                let want = ctx.macro_xs_simd(&fuel, energy[i as usize]);
                assert_eq!(out[k], want, "k={k}");
            }
        }
    }

    #[test]
    fn gather_span_tracks_batch_locality() {
        let lib = NuclideLibrary::build(&LibrarySpec::tiny());
        let ctx = XsContext::new(lib.clone(), GridBackendKind::Unionized);
        let fuel = Material::hm_fuel(ctx.lib());
        // A strictly ascending sweep touches adjacent union rows; the
        // same energies interleaved low/high jump across the whole grid.
        let sorted: Vec<f64> = (0..256).map(|i| 2.3e-11 * 1.11f64.powi(i)).collect();
        let mut interleaved = Vec::with_capacity(sorted.len());
        for i in 0..sorted.len() / 2 {
            interleaved.push(sorted[i]);
            interleaved.push(sorted[sorted.len() - 1 - i]);
        }
        let mut out = vec![MacroXs::default(); sorted.len()];
        ctx.reset_counters();
        ctx.batch_macro_xs_simd(&fuel, &sorted, &mut out);
        assert_eq!(ctx.gather_span_pairs(), sorted.len() as u64 - 1);
        let near = ctx.mean_gather_span_bytes();
        ctx.reset_counters();
        ctx.batch_macro_xs_simd(&fuel, &interleaved, &mut out);
        let far = ctx.mean_gather_span_bytes();
        assert!(
            near < far,
            "sorted sweep span {near} not below interleaved span {far}"
        );
        // Single-energy lookups form no pairs; the binary backend has no
        // shared index rows to span.
        ctx.reset_counters();
        ctx.macro_xs(&fuel, 1.0e-3);
        assert_eq!(ctx.gather_span_pairs(), 0);
        let binary = XsContext::new(lib, GridBackendKind::PerNuclideBinary);
        binary.batch_macro_xs_simd(&fuel, &sorted, &mut out);
        assert_eq!(binary.gather_span_bytes(), 0);
        // Counters export alongside the existing ones.
        let mut c = mcs_prof::Counters::new();
        ctx.export_counters(&mut c);
        assert_eq!(c.get("xs.gather_span_bytes"), ctx.gather_span_bytes());
        assert_eq!(c.get("xs.gather_span_pairs"), ctx.gather_span_pairs());
    }

    #[test]
    fn aos_agrees_within_rounding() {
        for ctx in &contexts() {
            let fuel = Material::hm_fuel(ctx.lib());
            let aos = AosLibrary::build(ctx.lib());
            for &e in &probe_energies() {
                let r = ctx.macro_xs(&fuel, e);
                let via_aos = ctx.macro_xs_aos(&aos, &fuel, e);
                assert!(r.max_rel_diff(&via_aos) < 1e-12, "e={e}");
            }
        }
    }

    #[test]
    fn nuclide_index_matches_binary_search() {
        for ctx in &contexts() {
            for &e in &probe_energies() {
                let ix = ctx.indexer(e);
                for k in 0..ctx.n_nuclides() {
                    let nuc = ctx.lib().nuclide(k as u32);
                    let want = lower_bound_index(&nuc.energy, e) as u32;
                    assert_eq!(
                        ix.index(k),
                        want,
                        "{} e={e} k={k}",
                        ctx.backend_kind().name()
                    );
                    assert_eq!(ctx.nuclide_index(e, k), want);
                }
            }
        }
    }

    #[test]
    fn macro_xs_is_positive_and_total_consistent() {
        for ctx in &contexts() {
            let fuel = Material::hm_fuel(ctx.lib());
            for &e in &probe_energies() {
                let m = ctx.macro_xs(&fuel, e);
                assert!(m.total > 0.0);
                assert!(m.fission >= 0.0);
                assert!(m.absorption >= m.fission - 1e-15);
                let sum = m.elastic + m.inelastic + m.absorption;
                assert!((m.total - sum).abs() < 1e-9 * m.total);
            }
        }
    }

    #[test]
    fn soa_micro_total_matches_nuclide() {
        let ctx = &contexts()[1];
        for k in 0..ctx.lib().len() {
            let e = 1.3e-4;
            let via_soa = crate::kernel::soa_micro_total(ctx.soa(), k, e);
            let via_nuc = ctx.lib().nuclide(k as u32).micro_at(e).total;
            assert!((via_soa - via_nuc).abs() < 1e-12 * via_nuc.max(1.0));
        }
    }

    #[test]
    fn counters_instrument_lookups_and_scans() {
        let lib = NuclideLibrary::build(&LibrarySpec::tiny());
        let ctx = XsContext::new(lib.clone(), GridBackendKind::HashBinned);
        let fuel = Material::hm_fuel(ctx.lib());
        assert_eq!(ctx.lookups(), 0);
        ctx.macro_xs(&fuel, 1.0e-6);
        let es = probe_energies();
        let mut out = vec![MacroXs::default(); es.len()];
        ctx.batch_macro_xs_simd(&fuel, &es, &mut out);
        assert_eq!(ctx.lookups(), 1 + es.len() as u64);

        let mut c = mcs_prof::Counters::new();
        ctx.export_counters(&mut c);
        assert_eq!(c.get("xs.lookups"), ctx.lookups());
        assert_eq!(c.get("xs.index_bytes"), ctx.index_bytes() as u64);

        // The union backend takes no in-bin scan steps.
        let union = XsContext::new(lib, GridBackendKind::Unionized);
        union.macro_xs(&fuel, 1.0e-6);
        assert_eq!(union.bin_scan_steps(), 0);

        ctx.reset_counters();
        assert_eq!(ctx.lookups(), 0);
    }

    #[test]
    fn hash_index_is_much_smaller_than_unionized() {
        let lib = NuclideLibrary::build(&LibrarySpec::tiny());
        let union = XsContext::new(lib.clone(), GridBackendKind::Unionized);
        let hash = XsContext::new(lib.clone(), GridBackendKind::HashBinned);
        let binary = XsContext::new(lib, GridBackendKind::PerNuclideBinary);
        assert_eq!(binary.index_bytes(), 0);
        assert!(hash.index_bytes() > 0);
        assert!(
            (hash.index_bytes() as f64) < 0.25 * union.index_bytes() as f64,
            "hash {} vs union {}",
            hash.index_bytes(),
            union.index_bytes()
        );
    }

    #[test]
    fn clone_resets_counters_and_shares_data() {
        let lib = NuclideLibrary::build(&LibrarySpec::tiny());
        let ctx = XsContext::new(lib, GridBackendKind::Unionized);
        let fuel = Material::hm_fuel(ctx.lib());
        let a = ctx.macro_xs(&fuel, 2.0e-7);
        let cloned = ctx.clone();
        assert!(
            cloned.shares_data_with(&ctx),
            "a clone must not copy the index"
        );
        assert_eq!(cloned.lookups(), 0);
        let b = cloned.macro_xs(&fuel, 2.0e-7);
        assert_bits_eq(&a, &b, "clone");
    }

    #[test]
    fn backend_kind_names_roundtrip() {
        for k in GridBackendKind::ALL {
            assert_eq!(GridBackendKind::from_name(k.name()), Some(k));
        }
        assert_eq!(GridBackendKind::from_name("nope"), None);
        assert_eq!(GridBackendKind::default(), GridBackendKind::Unionized);
    }

    #[test]
    fn edge_energies_stay_bitwise_consistent() {
        let ctxs = contexts();
        let fuel = Material::hm_fuel(ctxs[0].lib());
        // Below the first grid point, above the last, and exactly on a
        // tabulated point.
        let on_point = ctxs[0].lib().nuclide(0).energy[17];
        for e in [
            crate::E_MIN / 3.0,
            crate::E_MAX * 2.0,
            on_point,
            crate::E_MIN,
            crate::E_MAX,
        ] {
            let reference = ctxs[0].macro_xs_direct(&fuel, e);
            for ctx in &ctxs {
                let name = ctx.backend_kind().name();
                assert_bits_eq(
                    &ctx.macro_xs(&fuel, e),
                    &reference,
                    &format!("{name} e={e}"),
                );
                assert_bits_eq(
                    &ctx.macro_xs_simd(&fuel, e),
                    &reference,
                    &format!("{name} simd e={e}"),
                );
            }
        }
    }
}
