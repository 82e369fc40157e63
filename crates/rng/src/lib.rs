//! Reproducible random number generation for Monte Carlo neutron transport.
//!
//! Two generator families are provided, mirroring the two RNG strategies the
//! paper contrasts (§III-A2):
//!
//! * [`Lcg63`] — the 63-bit linear congruential generator used by OpenMC and
//!   MCNP, with O(log n) [`Lcg63::skip`]. Each particle history gets a
//!   dedicated, deterministic stream regardless of how histories are
//!   scheduled onto threads, which makes history-based transport results
//!   independent of the thread count.
//! * [`Philox4x32`] — a counter-based generator in the style of Random123,
//!   used here as the stand-in for Intel MKL/VSL's batched `MT2203` streams.
//!   Counter-based generation has no sequential carried dependency, so large
//!   buffers of uniforms can be filled in SIMD-friendly batches from
//!   independent streams (see [`batch`]).
//!
//! The naive per-call strategy of `rand_r()` from the paper's Algorithm 3 is
//! reproduced by [`NaiveRandR`], a faithful re-implementation of the glibc
//! `rand_r` so the "Naive" column of Table I can be regenerated.
//!
//! ```
//! use mcs_rng::Lcg63;
//!
//! // Jumping 1,000,000 draws ahead costs O(log n) ...
//! let jumped = Lcg63::new(42).skipped(1_000_000);
//! // ... and lands exactly where sequential stepping would.
//! let mut stepped = Lcg63::new(42);
//! for _ in 0..1_000_000 {
//!     stepped.next_state();
//! }
//! assert_eq!(jumped, stepped);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod lcg;
pub mod naive;
pub mod philox;

pub use batch::StreamPartition;
pub use lcg::Lcg63;
pub use naive::NaiveRandR;
pub use philox::Philox4x32;

/// Default stride between per-particle LCG streams.
///
/// The same constant OpenMC uses: consecutive particle histories are placed
/// `STREAM_STRIDE` draws apart in the master LCG sequence, which is far more
/// draws than any single history consumes.
pub const STREAM_STRIDE: u64 = 152_917;

/// Convert 64 random bits to a double-precision uniform on the open
/// interval (0, 1).
///
/// The top 52 bits are used with a half-ulp offset; `n + 0.5` is exactly
/// representable for all 52-bit `n`, so the result is strictly inside the
/// interval and `-ln(u)` is always finite.
#[inline(always)]
pub fn u64_to_open_f64(bits: u64) -> f64 {
    (((bits >> 12) as f64) + 0.5) * (1.0 / (1u64 << 52) as f64)
}

/// Convert 32 random bits to a single-precision uniform on the open
/// interval (0, 1).
#[inline(always)]
pub fn u32_to_open_f32(bits: u32) -> f32 {
    (((bits >> 9) as f32) + 0.5) * (1.0 / (1u32 << 23) as f32)
}

/// A minimal trait for anything that can produce a uniform f64 in (0, 1).
///
/// The transport kernels are generic over this so the same physics code can
/// be driven by per-history LCG streams or by pre-filled batch buffers.
pub trait UniformSource {
    /// Next uniform double on the open interval (0, 1).
    fn next_f64(&mut self) -> f64;

    /// Next uniform single on the open interval (0, 1).
    #[inline]
    fn next_f32(&mut self) -> f32 {
        self.next_f64() as f32
    }
}

impl UniformSource for Lcg63 {
    #[inline(always)]
    fn next_f64(&mut self) -> f64 {
        self.next_uniform()
    }
}

impl UniformSource for Philox4x32 {
    #[inline(always)]
    fn next_f64(&mut self) -> f64 {
        self.next_uniform()
    }
}

impl UniformSource for NaiveRandR {
    #[inline(always)]
    fn next_f64(&mut self) -> f64 {
        self.next_uniform()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_interval_f64_excludes_endpoints() {
        assert!(u64_to_open_f64(0) > 0.0);
        assert!(u64_to_open_f64(u64::MAX) < 1.0);
    }

    #[test]
    fn open_interval_f32_excludes_endpoints() {
        assert!(u32_to_open_f32(0) > 0.0);
        assert!(u32_to_open_f32(u32::MAX) < 1.0);
    }

    #[test]
    fn uniform_source_trait_objects_agree_with_inherent() {
        let mut a = Lcg63::new(42);
        let mut b = Lcg63::new(42);
        let via_trait: f64 = UniformSource::next_f64(&mut a);
        assert_eq!(via_trait, b.next_uniform());
    }
}
