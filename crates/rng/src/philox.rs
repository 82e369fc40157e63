//! Philox-4x32-10 counter-based random number generator.
//!
//! From Salmon et al., *Parallel Random Numbers: As Easy as 1, 2, 3*
//! (SC'11, the "Random123" generators). A counter-based generator is a pure
//! function `block = bijection(counter, key)`: there is no carried state
//! between blocks, so any number of blocks can be generated independently
//! and in any order. That is exactly the property the paper exploits via
//! MKL/VSL streams — it lets a buffer of `N` uniforms be filled by many
//! threads and by SIMD lanes with no sequential dependency.
//!
//! `key` plays the role of a *stream id* (the paper's `VSL_BRNG_MT2203`
//! stream index); `counter` enumerates positions within the stream.

use crate::u32_to_open_f32;
use crate::u64_to_open_f64;

const PHILOX_M0: u32 = 0xD251_1F53;
const PHILOX_M1: u32 = 0xCD9E_8D57;
const PHILOX_W0: u32 = 0x9E37_79B9;
const PHILOX_W1: u32 = 0xBB67_AE85;
/// Number of rounds in the standard Philox-4x32-10 configuration.
pub const ROUNDS: u32 = 10;

#[inline(always)]
fn mulhilo(a: u32, b: u32) -> (u32, u32) {
    let p = (a as u64) * (b as u64);
    ((p >> 32) as u32, p as u32)
}

/// One application of the Philox-4x32 bijection: 10 rounds over a 128-bit
/// counter with a 64-bit key.
#[inline]
pub fn philox4x32_10(counter: [u32; 4], key: [u32; 2]) -> [u32; 4] {
    let mut x = counter;
    let mut k = key;
    for _ in 0..ROUNDS {
        let (hi0, lo0) = mulhilo(PHILOX_M0, x[0]);
        let (hi1, lo1) = mulhilo(PHILOX_M1, x[2]);
        x = [hi1 ^ x[1] ^ k[0], lo1, hi0 ^ x[3] ^ k[1], lo0];
        k[0] = k[0].wrapping_add(PHILOX_W0);
        k[1] = k[1].wrapping_add(PHILOX_W1);
    }
    x
}

/// A sequential view over one Philox stream: yields the blocks of
/// `bijection(counter++, key)` one 32-bit word at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Philox4x32 {
    key: [u32; 2],
    counter: u128,
    block: [u32; 4],
    /// Next word within `block`; 4 means "exhausted, generate the next block".
    cursor: u8,
}

impl Philox4x32 {
    /// Create the stream with the given 64-bit stream id.
    #[inline]
    pub fn new(stream: u64) -> Self {
        Self::with_counter(stream, 0)
    }

    /// Create the stream positioned at an arbitrary 128-bit counter value.
    #[inline]
    pub fn with_counter(stream: u64, counter: u128) -> Self {
        Self {
            key: [stream as u32, (stream >> 32) as u32],
            counter,
            block: [0; 4],
            cursor: 4,
        }
    }

    /// The stream id this generator draws from.
    #[inline]
    pub fn stream(&self) -> u64 {
        (self.key[0] as u64) | ((self.key[1] as u64) << 32)
    }

    /// Index of the next 32-bit word to be produced (counter*4 + cursor).
    #[inline]
    pub fn position(&self) -> u128 {
        // `counter` has already advanced past the buffered block.
        let consumed_blocks = if self.cursor == 4 {
            self.counter
        } else {
            self.counter - 1
        };
        consumed_blocks * 4
            + if self.cursor == 4 {
                0
            } else {
                self.cursor as u128
            }
    }

    /// Generate the block at an absolute counter without touching stream
    /// state.
    #[inline]
    pub fn block_at(&self, counter: u128) -> [u32; 4] {
        philox4x32_10(split_counter(counter), self.key)
    }

    /// Next raw 32-bit word.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        if self.cursor == 4 {
            self.block = philox4x32_10(split_counter(self.counter), self.key);
            self.counter = self.counter.wrapping_add(1);
            self.cursor = 0;
        }
        let w = self.block[self.cursor as usize];
        self.cursor += 1;
        w
    }

    /// Next raw 64-bit word (two 32-bit draws).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// Next uniform double on (0, 1).
    #[inline]
    pub fn next_uniform(&mut self) -> f64 {
        u64_to_open_f64(self.next_u64())
    }

    /// Next uniform single on (0, 1).
    #[inline]
    pub fn next_uniform_f32(&mut self) -> f32 {
        u32_to_open_f32(self.next_u32())
    }
}

/// Eight consecutive Philox blocks, computed lane-parallel.
///
/// Produces exactly `[philox4x32_10(counter0 + l, key) for l in 0..8]`,
/// but with every round's arithmetic laid out across 8 lanes so the
/// compiler vectorizes the widening multiplies (this is what makes the
/// batched VSL-style fills fast). Bit-identical to the scalar path.
#[inline]
#[allow(clippy::needless_range_loop)] // explicit lane indices keep the rounds vectorizable
pub fn philox4x32_10_x8(counter0: u128, key: [u32; 2]) -> [[u32; 8]; 4] {
    let mut x0 = [0u32; 8];
    let mut x1 = [0u32; 8];
    let mut x2 = [0u32; 8];
    let mut x3 = [0u32; 8];
    for l in 0..8 {
        let c = split_counter(counter0.wrapping_add(l as u128));
        x0[l] = c[0];
        x1[l] = c[1];
        x2[l] = c[2];
        x3[l] = c[3];
    }
    let mut k0 = key[0];
    let mut k1 = key[1];
    for _ in 0..ROUNDS {
        let mut n0 = [0u32; 8];
        let mut n1 = [0u32; 8];
        let mut n2 = [0u32; 8];
        let mut n3 = [0u32; 8];
        for l in 0..8 {
            let p0 = (PHILOX_M0 as u64) * (x0[l] as u64);
            let p1 = (PHILOX_M1 as u64) * (x2[l] as u64);
            n0[l] = (p1 >> 32) as u32 ^ x1[l] ^ k0;
            n1[l] = p1 as u32;
            n2[l] = (p0 >> 32) as u32 ^ x3[l] ^ k1;
            n3[l] = p0 as u32;
        }
        x0 = n0;
        x1 = n1;
        x2 = n2;
        x3 = n3;
        k0 = k0.wrapping_add(PHILOX_W0);
        k1 = k1.wrapping_add(PHILOX_W1);
    }
    [x0, x1, x2, x3]
}

#[inline(always)]
fn split_counter(counter: u128) -> [u32; 4] {
    [
        counter as u32,
        (counter >> 32) as u32,
        (counter >> 64) as u32,
        (counter >> 96) as u32,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    // Known-answer tests from the Random123 distribution (kat_vectors).
    #[test]
    fn kat_zero() {
        let out = philox4x32_10([0, 0, 0, 0], [0, 0]);
        assert_eq!(out, [0x6627_e8d5, 0xe169_c58d, 0xbc57_ac4c, 0x9b00_dbd8]);
    }

    #[test]
    fn kat_ones() {
        let out = philox4x32_10([0xffff_ffff; 4], [0xffff_ffff, 0xffff_ffff]);
        assert_eq!(out, [0x408f_276d, 0x41c8_3b0e, 0xa20b_c7c6, 0x6d54_51fd]);
    }

    #[test]
    fn kat_pi_digits() {
        let out = philox4x32_10(
            [0x243f_6a88, 0x85a3_08d3, 0x1319_8a2e, 0x0370_7344],
            [0xa409_3822, 0x299f_31d0],
        );
        assert_eq!(out, [0xd16c_fe09, 0x94fd_cceb, 0x5001_e420, 0x2412_6ea1]);
    }

    #[test]
    fn lane_parallel_blocks_match_scalar() {
        let key = [0xdead_beef, 0x0bad_cafe];
        for &base in &[0u128, 1, 7, u32::MAX as u128 - 3, u64::MAX as u128 - 2] {
            let lanes = philox4x32_10_x8(base, key);
            for l in 0..8 {
                let want = philox4x32_10(
                    [
                        (base + l as u128) as u32,
                        ((base + l as u128) >> 32) as u32,
                        ((base + l as u128) >> 64) as u32,
                        ((base + l as u128) >> 96) as u32,
                    ],
                    key,
                );
                assert_eq!(lanes.map(|word| word[l]), want, "base={base} lane={l}");
            }
        }
    }

    #[test]
    fn sequential_view_matches_blocks() {
        let mut g = Philox4x32::new(7);
        let b0 = g.block_at(0);
        let b1 = g.block_at(1);
        let words: Vec<u32> = (0..8).map(|_| g.next_u32()).collect();
        assert_eq!(&words[0..4], &b0);
        assert_eq!(&words[4..8], &b1);
    }

    #[test]
    fn streams_differ() {
        let mut a = Philox4x32::new(0);
        let mut b = Philox4x32::new(1);
        let va: Vec<u32> = (0..16).map(|_| a.next_u32()).collect();
        let vb: Vec<u32> = (0..16).map(|_| b.next_u32()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn with_counter_seeks() {
        let mut a = Philox4x32::new(9);
        for _ in 0..12 {
            a.next_u32();
        }
        // 12 words = 3 full blocks.
        let mut b = Philox4x32::with_counter(9, 3);
        assert_eq!(a.next_u32(), b.next_u32());
    }

    #[test]
    fn uniform_statistics() {
        let mut g = Philox4x32::new(2026);
        let n = 200_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += g.next_uniform();
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean = {mean}");
    }

    #[test]
    fn f32_uniforms_open_interval() {
        let mut g = Philox4x32::new(3);
        for _ in 0..10_000 {
            let u = g.next_uniform_f32();
            assert!(u > 0.0 && u < 1.0);
        }
    }
}
