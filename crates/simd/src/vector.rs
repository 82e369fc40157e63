//! Fixed-width vector types.
//!
//! Each type wraps a `#[repr(align(64))]` array. Lane-wise operations are
//! exact-trip-count loops over the array; at `opt-level=3` LLVM lowers each
//! to a handful of packed vector instructions with no remainder loop. This
//! is the "portable intrinsic" style: the code expresses the same data
//! movement as the paper's `_mm512_*` calls without committing to an ISA.

use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign};

/// 16-lane single-precision vector (512 bits), aligned to 64 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(64))]
pub struct F32x16(pub [f32; 16]);

/// 8-lane double-precision vector (512 bits), aligned to 64 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(64))]
pub struct F64x8(pub [f64; 8]);

macro_rules! impl_vector {
    ($name:ident, $elem:ty, $lanes:expr) => {
        impl $name {
            /// Number of lanes.
            pub const LANES: usize = $lanes;

            /// Broadcast a scalar to all lanes (`_mm512_set1_*`).
            #[inline(always)]
            pub fn splat(v: $elem) -> Self {
                Self([v; $lanes])
            }

            /// All-zero vector.
            #[inline(always)]
            pub fn zero() -> Self {
                Self::splat(0.0)
            }

            /// Load lanes from the first `LANES` elements of a slice
            /// (`_mm512_loadu_*`). Panics if the slice is shorter.
            #[inline(always)]
            pub fn from_slice(s: &[$elem]) -> Self {
                let mut out = [0.0; $lanes];
                out.copy_from_slice(&s[..$lanes]);
                Self(out)
            }

            /// Store all lanes into the first `LANES` elements of a slice
            /// (`_mm512_storeu_*`).
            #[inline(always)]
            pub fn write_to_slice(self, s: &mut [$elem]) {
                s[..$lanes].copy_from_slice(&self.0);
            }

            /// Lane-wise fused multiply-add: `self * a + b`.
            ///
            /// Uses `mul_add`, which lowers to an FMA instruction when the
            /// target has one.
            #[inline(always)]
            pub fn mul_add(self, a: Self, b: Self) -> Self {
                let mut out = [0.0; $lanes];
                for i in 0..$lanes {
                    out[i] = self.0[i].mul_add(a.0[i], b.0[i]);
                }
                Self(out)
            }

            /// Lane-wise minimum.
            #[inline(always)]
            pub fn min(self, other: Self) -> Self {
                let mut out = [0.0; $lanes];
                for i in 0..$lanes {
                    out[i] = self.0[i].min(other.0[i]);
                }
                Self(out)
            }

            /// Lane-wise maximum.
            #[inline(always)]
            pub fn max(self, other: Self) -> Self {
                let mut out = [0.0; $lanes];
                for i in 0..$lanes {
                    out[i] = self.0[i].max(other.0[i]);
                }
                Self(out)
            }

            /// Lane-wise absolute value.
            #[inline(always)]
            pub fn abs(self) -> Self {
                let mut out = [0.0; $lanes];
                for i in 0..$lanes {
                    out[i] = self.0[i].abs();
                }
                Self(out)
            }

            /// Lane-wise square root.
            #[inline(always)]
            pub fn sqrt(self) -> Self {
                let mut out = [0.0; $lanes];
                for i in 0..$lanes {
                    out[i] = self.0[i].sqrt();
                }
                Self(out)
            }

            /// Horizontal sum of all lanes (`_mm512_reduce_add_*`).
            #[inline(always)]
            pub fn reduce_sum(self) -> $elem {
                // Pairwise tree keeps the reduction associative-friendly
                // and lets LLVM use shuffles rather than a serial chain.
                let mut acc = self.0;
                let mut width = $lanes / 2;
                while width >= 1 {
                    for i in 0..width {
                        acc[i] += acc[i + width];
                    }
                    width /= 2;
                }
                acc[0]
            }

            /// Gather lanes from `table` at `idx` (`_mm512_i32gather_*`).
            #[inline(always)]
            pub fn gather(table: &[$elem], idx: [u32; $lanes]) -> Self {
                let mut out = [0.0; $lanes];
                for i in 0..$lanes {
                    out[i] = table[idx[i] as usize];
                }
                Self(out)
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline(always)]
            fn add(self, rhs: Self) -> Self {
                let mut out = [0.0; $lanes];
                for i in 0..$lanes {
                    out[i] = self.0[i] + rhs.0[i];
                }
                Self(out)
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline(always)]
            fn sub(self, rhs: Self) -> Self {
                let mut out = [0.0; $lanes];
                for i in 0..$lanes {
                    out[i] = self.0[i] - rhs.0[i];
                }
                Self(out)
            }
        }

        impl Mul for $name {
            type Output = Self;
            #[inline(always)]
            fn mul(self, rhs: Self) -> Self {
                let mut out = [0.0; $lanes];
                for i in 0..$lanes {
                    out[i] = self.0[i] * rhs.0[i];
                }
                Self(out)
            }
        }

        impl Div for $name {
            type Output = Self;
            #[inline(always)]
            fn div(self, rhs: Self) -> Self {
                let mut out = [0.0; $lanes];
                for i in 0..$lanes {
                    out[i] = self.0[i] / rhs.0[i];
                }
                Self(out)
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline(always)]
            fn neg(self) -> Self {
                let mut out = [0.0; $lanes];
                for i in 0..$lanes {
                    out[i] = -self.0[i];
                }
                Self(out)
            }
        }

        impl AddAssign for $name {
            #[inline(always)]
            fn add_assign(&mut self, rhs: Self) {
                *self = *self + rhs;
            }
        }

        impl SubAssign for $name {
            #[inline(always)]
            fn sub_assign(&mut self, rhs: Self) {
                *self = *self - rhs;
            }
        }

        impl MulAssign for $name {
            #[inline(always)]
            fn mul_assign(&mut self, rhs: Self) {
                *self = *self * rhs;
            }
        }

        impl Index<usize> for $name {
            type Output = $elem;
            #[inline(always)]
            fn index(&self, i: usize) -> &$elem {
                &self.0[i]
            }
        }

        impl IndexMut<usize> for $name {
            #[inline(always)]
            fn index_mut(&mut self, i: usize) -> &mut $elem {
                &mut self.0[i]
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::zero()
            }
        }
    };
}

impl_vector!(F32x16, f32, 16);
impl_vector!(F64x8, f64, 8);

#[cfg(test)]
mod tests {
    use super::*;

    fn seq16() -> F32x16 {
        let mut a = [0.0f32; 16];
        for (i, v) in a.iter_mut().enumerate() {
            *v = i as f32 + 1.0;
        }
        F32x16(a)
    }

    #[test]
    fn alignment_is_64_bytes() {
        assert_eq!(std::mem::align_of::<F32x16>(), 64);
        assert_eq!(std::mem::align_of::<F64x8>(), 64);
        assert_eq!(std::mem::size_of::<F32x16>(), 64);
        assert_eq!(std::mem::size_of::<F64x8>(), 64);
    }

    #[test]
    fn arithmetic_lanewise() {
        let a = seq16();
        let b = F32x16::splat(2.0);
        assert_eq!((a + b)[0], 3.0);
        assert_eq!((a - b)[15], 14.0);
        assert_eq!((a * b)[3], 8.0);
        assert_eq!((a / b)[7], 4.0);
        assert_eq!((-a)[4], -5.0);
    }

    #[test]
    fn fma_matches_scalar() {
        let a = seq16();
        let b = F32x16::splat(3.0);
        let c = F32x16::splat(1.0);
        let r = a.mul_add(b, c);
        for i in 0..16 {
            assert_eq!(r[i], (a[i]).mul_add(3.0, 1.0));
        }
    }

    #[test]
    fn reductions() {
        let a = seq16();
        assert_eq!(a.reduce_sum(), 136.0); // 1+..+16
    }

    #[test]
    fn reduce_sum_f64() {
        let a = F64x8([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.reduce_sum(), 36.0);
    }

    #[test]
    fn gather_from_table() {
        let table: Vec<f32> = (0..100).map(|i| i as f32 * 10.0).collect();
        let idx = [
            0u32, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 99,
        ];
        let g = F32x16::gather(&table, idx);
        assert_eq!(g[1], 50.0);
        assert_eq!(g[15], 990.0);
    }

    #[test]
    fn slice_roundtrip() {
        let src: Vec<f32> = (0..20).map(|i| i as f32).collect();
        let v = F32x16::from_slice(&src[2..]);
        assert_eq!(v[0], 2.0);
        let mut dst = vec![0.0f32; 16];
        v.write_to_slice(&mut dst);
        assert_eq!(dst[15], 17.0);
    }

    #[test]
    fn min_max_abs_sqrt() {
        let a = F32x16::splat(-4.0);
        let b = F32x16::splat(9.0);
        assert_eq!(a.min(b)[0], -4.0);
        assert_eq!(a.max(b)[0], 9.0);
        assert_eq!(a.abs()[0], 4.0);
        assert_eq!(b.sqrt()[0], 3.0);
    }
}
