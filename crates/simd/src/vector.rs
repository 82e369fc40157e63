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

/// Lane mask for [`F32x16`]: bit `i` set means lane `i` selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mask16(pub u16);

/// Lane mask for [`F64x8`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mask8(pub u8);

macro_rules! impl_vector {
    ($name:ident, $elem:ty, $lanes:expr, $mask:ident, $mask_repr:ty) => {
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

            /// Lane-wise reciprocal.
            #[inline(always)]
            pub fn recip(self) -> Self {
                let mut out = [0.0; $lanes];
                for i in 0..$lanes {
                    out[i] = 1.0 / self.0[i];
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

            /// Horizontal minimum of all lanes.
            #[inline(always)]
            pub fn reduce_min(self) -> $elem {
                self.0.iter().copied().fold(<$elem>::INFINITY, <$elem>::min)
            }

            /// Horizontal maximum of all lanes.
            #[inline(always)]
            pub fn reduce_max(self) -> $elem {
                self.0
                    .iter()
                    .copied()
                    .fold(<$elem>::NEG_INFINITY, <$elem>::max)
            }

            /// Lane-wise `<` comparison producing a mask.
            #[inline(always)]
            pub fn lt(self, other: Self) -> $mask {
                let mut m: $mask_repr = 0;
                for i in 0..$lanes {
                    m |= ((self.0[i] < other.0[i]) as $mask_repr) << i;
                }
                $mask(m)
            }

            /// Lane-wise `<=` comparison producing a mask.
            #[inline(always)]
            pub fn le(self, other: Self) -> $mask {
                let mut m: $mask_repr = 0;
                for i in 0..$lanes {
                    m |= ((self.0[i] <= other.0[i]) as $mask_repr) << i;
                }
                $mask(m)
            }

            /// Blend: lane `i` comes from `if_true` where the mask bit is
            /// set, otherwise from `if_false` (`_mm512_mask_blend_*`).
            #[inline(always)]
            pub fn select(mask: $mask, if_true: Self, if_false: Self) -> Self {
                let mut out = [0.0; $lanes];
                for i in 0..$lanes {
                    out[i] = if mask.0 >> i & 1 == 1 {
                        if_true.0[i]
                    } else {
                        if_false.0[i]
                    };
                }
                Self(out)
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

        impl $mask {
            /// Mask with no lanes set.
            pub const NONE: Self = Self(0);
            /// Mask with all lanes set.
            pub const ALL: Self = Self(!0 >> (<$mask_repr>::BITS as usize - $lanes));

            /// True if any lane is set.
            #[inline(always)]
            pub fn any(self) -> bool {
                self.0 != 0
            }

            /// True if all lanes are set.
            #[inline(always)]
            pub fn all(self) -> bool {
                self == Self::ALL
            }

            /// Number of set lanes.
            #[inline(always)]
            pub fn count(self) -> u32 {
                self.0.count_ones()
            }

            /// Whether lane `i` is set.
            #[inline(always)]
            pub fn test(self, i: usize) -> bool {
                self.0 >> i & 1 == 1
            }

            /// Lane-wise negation.
            #[inline(always)]
            #[allow(clippy::should_implement_trait)] // mirrors the `knot` mask intrinsic
            pub fn not(self) -> Self {
                Self(!self.0 & Self::ALL.0)
            }

            /// Lane-wise AND.
            #[inline(always)]
            pub fn and(self, other: Self) -> Self {
                Self(self.0 & other.0)
            }

            /// Lane-wise OR.
            #[inline(always)]
            pub fn or(self, other: Self) -> Self {
                Self(self.0 | other.0)
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

impl_vector!(F32x16, f32, 16, Mask16, u16);
impl_vector!(F64x8, f64, 8, Mask8, u8);

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
        assert_eq!(a.reduce_min(), 1.0);
        assert_eq!(a.reduce_max(), 16.0);
    }

    #[test]
    fn reduce_sum_f64() {
        let a = F64x8([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.reduce_sum(), 36.0);
    }

    #[test]
    fn masks_and_select() {
        let a = seq16();
        let b = F32x16::splat(8.5);
        let m = a.lt(b); // lanes 0..=7 set
        assert_eq!(m.count(), 8);
        assert!(m.test(0) && m.test(7) && !m.test(8));
        let sel = F32x16::select(m, F32x16::splat(1.0), F32x16::splat(0.0));
        assert_eq!(sel.reduce_sum(), 8.0);
        assert!(m.or(m.not()).all());
        assert!(!m.and(m.not()).any());
    }

    #[test]
    fn le_vs_lt_on_equal_lanes() {
        let a = F32x16::splat(2.0);
        assert_eq!(a.lt(a), Mask16::NONE);
        assert!(a.le(a).all());
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
    fn min_max_abs_sqrt_recip() {
        let a = F32x16::splat(-4.0);
        let b = F32x16::splat(9.0);
        assert_eq!(a.min(b)[0], -4.0);
        assert_eq!(a.max(b)[0], 9.0);
        assert_eq!(a.abs()[0], 4.0);
        assert_eq!(b.sqrt()[0], 3.0);
        assert_eq!(b.recip()[0], 1.0 / 9.0);
    }

    #[test]
    fn mask_all_constant_is_correct_width() {
        assert_eq!(Mask16::ALL.0, 0xffff);
        assert_eq!(Mask8::ALL.0, 0xff);
    }
}
