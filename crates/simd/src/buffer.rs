//! 64-byte aligned growable buffers — the `_mm_malloc(n, 64)` equivalent.
//!
//! The paper aligns its `R`, `X`, and `D` arrays to 64-byte boundaries so
//! vector loads never straddle cache lines. These buffers guarantee the
//! same: storage is a `Vec` of 64-byte blocks viewed as a flat element
//! slice, so the base pointer is always 64-byte aligned.

use crate::vector::{F32x16, F64x8};

macro_rules! impl_avec {
    ($name:ident, $elem:ty, $block:ty, $lanes:expr) => {
        /// 64-byte aligned buffer of elements.
        #[derive(Debug, Clone, Default)]
        pub struct $name {
            blocks: Vec<$block>,
            len: usize,
        }

        impl $name {
            /// Empty buffer.
            pub fn new() -> Self {
                Self {
                    blocks: Vec::new(),
                    len: 0,
                }
            }

            /// Buffer of `n` elements, all set to `fill`.
            pub fn filled(n: usize, fill: $elem) -> Self {
                let nblocks = n.div_ceil($lanes);
                Self {
                    blocks: vec![<$block>::splat(fill); nblocks],
                    len: n,
                }
            }

            /// Buffer of `n` zeros.
            pub fn zeros(n: usize) -> Self {
                Self::filled(n, 0.0)
            }

            /// Copy from an (unaligned) slice.
            pub fn from_slice(s: &[$elem]) -> Self {
                let mut v = Self::zeros(s.len());
                v.as_mut_slice().copy_from_slice(s);
                v
            }

            /// Number of elements.
            #[inline]
            pub fn len(&self) -> usize {
                self.len
            }

            /// True if no elements.
            #[inline]
            pub fn is_empty(&self) -> bool {
                self.len == 0
            }

            /// View as an element slice. The pointer is 64-byte aligned.
            #[inline]
            pub fn as_slice(&self) -> &[$elem] {
                // SAFETY: blocks are `repr(C)` arrays of `$elem`, densely
                // packed; `len <= blocks.len() * $lanes` by construction.
                unsafe {
                    std::slice::from_raw_parts(self.blocks.as_ptr() as *const $elem, self.len)
                }
            }

            /// Mutable element view.
            #[inline]
            pub fn as_mut_slice(&mut self) -> &mut [$elem] {
                // SAFETY: as above; exclusive borrow of self.
                unsafe {
                    std::slice::from_raw_parts_mut(self.blocks.as_mut_ptr() as *mut $elem, self.len)
                }
            }

            /// Resize, filling new space with `fill`.
            pub fn resize(&mut self, n: usize, fill: $elem) {
                let old_len = self.len;
                let nblocks = n.div_ceil($lanes);
                self.blocks.resize(nblocks, <$block>::splat(fill));
                self.len = n;
                if n > old_len {
                    // The tail of the last pre-existing block may hold
                    // stale values beyond the old length; overwrite them.
                    for v in &mut self.as_mut_slice()[old_len..] {
                        *v = fill;
                    }
                }
            }
        }

        impl std::ops::Index<usize> for $name {
            type Output = $elem;
            #[inline]
            fn index(&self, i: usize) -> &$elem {
                &self.as_slice()[i]
            }
        }

        impl std::ops::IndexMut<usize> for $name {
            #[inline]
            fn index_mut(&mut self, i: usize) -> &mut $elem {
                &mut self.as_mut_slice()[i]
            }
        }

        impl FromIterator<$elem> for $name {
            fn from_iter<I: IntoIterator<Item = $elem>>(iter: I) -> Self {
                let tmp: Vec<$elem> = iter.into_iter().collect();
                Self::from_slice(&tmp)
            }
        }
    };
}

impl_avec!(AVec32, f32, F32x16, 16);
impl_avec!(AVec64, f64, F64x8, 8);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_pointer_is_aligned() {
        for n in [1usize, 15, 16, 17, 1000] {
            let v = AVec32::zeros(n);
            assert_eq!(v.as_slice().as_ptr() as usize % 64, 0, "n={n}");
            let v = AVec64::zeros(n);
            assert_eq!(v.as_slice().as_ptr() as usize % 64, 0, "n={n}");
        }
    }

    #[test]
    fn len_and_contents() {
        let mut v = AVec32::filled(10, 3.5);
        assert_eq!(v.len(), 10);
        assert!(v.as_slice().iter().all(|&x| x == 3.5));
        v[9] = 1.0;
        assert_eq!(v[9], 1.0);
    }

    #[test]
    fn from_slice_roundtrip() {
        let src: Vec<f32> = (0..37).map(|i| i as f32).collect();
        let v = AVec32::from_slice(&src);
        assert_eq!(v.as_slice(), &src[..]);
    }

    #[test]
    fn resize_grows_and_shrinks() {
        let mut v = AVec32::filled(5, 1.0);
        v.resize(40, 2.0);
        assert_eq!(v.len(), 40);
        assert_eq!(v[4], 1.0);
        assert_eq!(v[5], 2.0);
        assert_eq!(v[39], 2.0);
        v.resize(3, 0.0);
        assert_eq!(v.len(), 3);
        assert_eq!(v.as_slice(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn resize_overwrites_stale_tail() {
        let mut v = AVec32::filled(20, 9.0);
        v.resize(10, 0.0); // shrink within a block; stale 9.0s remain hidden
        v.resize(20, 5.0); // regrow must not expose them
        assert!(v.as_slice()[10..].iter().all(|&x| x == 5.0));
    }

    #[test]
    fn collect_from_iterator() {
        let v: AVec64 = (0..10).map(|i| i as f64).collect();
        assert_eq!(v.len(), 10);
        assert_eq!(v[7], 7.0);
    }

    #[test]
    fn empty_buffer() {
        let v = AVec32::new();
        assert!(v.is_empty());
        assert_eq!(v.as_slice().len(), 0);
    }
}
