//! Portable fixed-width SIMD for Monte Carlo transport kernels.
//!
//! The paper's optimized kernels (Algorithm 4) use 512-bit MIC intrinsics:
//! `_mm512_load_ps`, `_mm512_log_ps`, `_mm512_div_ps`, `_mm512_mul_ps`,
//! `_mm512_store_ps` over 16-lane `f32` registers. This crate provides the
//! portable equivalents:
//!
//! * [`F32x16`] / [`F64x8`] — 64-byte-aligned fixed-width vector types whose
//!   lane-wise operations are written as exact-trip-count loops that the
//!   compiler reliably auto-vectorizes at `opt-level=3` (AVX2 → two/one
//!   native registers per op, AVX-512 → one).
//! * [`math`] — vectorized transcendentals (`vln`, `vexp`) standing in for
//!   SVML's `_mm512_log_ps`/`_mm512_exp_ps`, as branch-free polynomial
//!   kernels that vectorize across lanes.
//! * [`buffer::AVec32`] — 64-byte aligned buffers, the `_mm_malloc(.., 64)`
//!   equivalent the paper uses for its `R`, `X` and `D` arrays.
//! * [`feature`] — a runtime report of which vector ISA the host actually
//!   has, printed by the benchmark harnesses for provenance.
//!
//! ```
//! use mcs_simd::{F32x16, math::vln};
//!
//! // Algorithm 4's inner step: d = -ln(r) / sigma, 16 lanes at a time.
//! let r = F32x16::splat(0.5);
//! let sigma = F32x16::splat(2.0);
//! let d = vln(r) / sigma * F32x16::splat(-1.0);
//! assert!((d[0] - 0.34657).abs() < 1e-4); // ln(2)/2
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod feature;
pub mod math;
pub mod vector;

pub use buffer::{AVec32, AVec64};
pub use vector::{F32x16, F64x8};
