//! Batched uniform generation — the stand-in for Intel VSL's
//! `vsRngUniform` (Algorithm 4, lines 1–8 of the paper).
//!
//! The paper's optimized kernel pre-fills an `R[nstreams][N/nstreams]`
//! array of uniforms, one independent stream per section, with each
//! section filled by a different OpenMP thread. [`StreamPartition`]
//! reproduces that structure: it owns `nstreams` Philox streams, each
//! filling one contiguous section of the buffer.

use crate::lcg::Lcg63;
use crate::philox::Philox4x32;
use crate::u32_to_open_f32;

/// Advance a gathered batch of per-particle LCG streams by one draw each,
/// writing the uniforms to `out` — the banked form of
/// [`Lcg63::next_uniform`] used by the event loop's distance stage.
///
/// Stream `k` contributes exactly one draw to `out[k]`, so the draw order
/// *within each stream* is identical to calling `next_uniform` in a
/// scalar loop: the result is bit-identical to per-particle sampling for
/// any batching of the bank. The loop body is branch-free and
/// independent across lanes, which lets the compiler vectorize the state
/// update (the paper's Algorithm 4 batched-uniform structure, applied to
/// skip-ahead LCG streams instead of VSL streams).
pub fn lcg_fill_uniform(streams: &mut [Lcg63], out: &mut [f64]) {
    assert_eq!(streams.len(), out.len());
    for (s, o) in streams.iter_mut().zip(out.iter_mut()) {
        *o = s.next_uniform();
    }
}

/// Fill `out` with uniforms in (0,1) from one Philox stream, starting at
/// block `counter0`. Returns the first unused block counter.
///
/// Words are consumed block-by-block (4 per block), so a fill of length
/// `n` is position-reproducible: filling `[0..n]` in one call equals
/// filling `[0..k]` and `[k..n]` in two calls iff `k % 4 == 0`.
#[allow(clippy::needless_range_loop)] // lane-major unpack of the 8-block kernel
pub fn fill_uniform_f32(stream: u64, counter0: u128, out: &mut [f32]) -> u128 {
    let g = Philox4x32::with_counter(stream, 0);
    let key = [stream as u32, (stream >> 32) as u32];
    let mut counter = counter0;

    // Fast path: 8 blocks (32 values) at a time, lane-parallel.
    let mut wide = out.chunks_exact_mut(32);
    for chunk in &mut wide {
        let lanes = crate::philox::philox4x32_10_x8(counter, key);
        counter = counter.wrapping_add(8);
        for l in 0..8 {
            for w in 0..4 {
                chunk[l * 4 + w] = u32_to_open_f32(lanes[w][l]);
            }
        }
    }

    let tail = wide.into_remainder();
    let mut chunks = tail.chunks_exact_mut(4);
    for chunk in &mut chunks {
        let b = g.block_at(counter);
        counter = counter.wrapping_add(1);
        for (dst, w) in chunk.iter_mut().zip(b) {
            *dst = u32_to_open_f32(w);
        }
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let b = g.block_at(counter);
        counter = counter.wrapping_add(1);
        for (dst, w) in rem.iter_mut().zip(b) {
            *dst = u32_to_open_f32(w);
        }
    }
    counter
}

/// A buffer-filling plan mirroring VSL's multi-stream usage: `nstreams`
/// independent streams, each responsible for one contiguous section of the
/// output buffer.
#[derive(Debug, Clone)]
pub struct StreamPartition {
    base_stream: u64,
    nstreams: usize,
    /// Per-stream next block counter (advances across iterations so
    /// successive fills draw fresh numbers, like VSL stream state).
    counters: Vec<u128>,
}

impl StreamPartition {
    /// Create a partition of `nstreams` streams derived from `base_stream`.
    pub fn new(base_stream: u64, nstreams: usize) -> Self {
        assert!(nstreams > 0, "need at least one stream");
        Self {
            base_stream,
            nstreams,
            counters: vec![0; nstreams],
        }
    }

    /// Fill the whole buffer, section `k` from stream `k`.
    pub fn fill_f32(&mut self, out: &mut [f32]) {
        let per = out.len().div_ceil(self.nstreams).max(1);
        for (k, section) in out.chunks_mut(per).enumerate() {
            let stream = self.base_stream.wrapping_add(k as u64);
            self.counters[k] = fill_uniform_f32(stream, self.counters[k], section);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_fill_matches_scalar_draws() {
        // The banked fill must be bit-identical to calling next_uniform
        // per stream, and leave each stream in the same state.
        let mut batched: Vec<Lcg63> = (0..37).map(|i| Lcg63::for_history(11, i, 3)).collect();
        let mut scalar = batched.clone();
        let mut out = vec![0.0f64; 37];
        lcg_fill_uniform(&mut batched, &mut out);
        for (s, &o) in scalar.iter_mut().zip(&out) {
            assert_eq!(s.next_uniform(), o);
        }
        assert_eq!(batched, scalar);
    }

    #[test]
    fn fill_is_deterministic() {
        let mut a = vec![0.0f32; 1003];
        let mut b = vec![0.0f32; 1003];
        fill_uniform_f32(5, 0, &mut a);
        fill_uniform_f32(5, 0, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn fill_respects_counter_offset() {
        let mut whole = vec![0.0f32; 64];
        let end = fill_uniform_f32(5, 0, &mut whole);
        assert_eq!(end, 16); // 64 values / 4 per block

        let mut lo = vec![0.0f32; 32];
        let mid = fill_uniform_f32(5, 0, &mut lo);
        let mut hi = vec![0.0f32; 32];
        fill_uniform_f32(5, mid, &mut hi);
        assert_eq!(&whole[..32], &lo[..]);
        assert_eq!(&whole[32..], &hi[..]);
    }

    #[test]
    fn successive_fills_differ() {
        let mut p = StreamPartition::new(1, 2);
        let mut buf = vec![0.0f32; 256];
        p.fill_f32(&mut buf);
        let first = buf.clone();
        p.fill_f32(&mut buf);
        assert_ne!(first, buf);
    }

    #[test]
    fn batch_values_open_interval() {
        let mut buf = vec![0.0f32; 4096];
        StreamPartition::new(77, 8).fill_f32(&mut buf);
        assert!(buf.iter().all(|&u| u > 0.0 && u < 1.0));
    }
}
