//! Unrolled multi-accumulator blocked kernel (portable fast path).
//!
//! Four vectors are scored in flight: each keeps its **own** f32
//! accumulator, and the four walk the subquantizers together, so every
//! vector still sums its table entries in `i = 0..M` order — bit-identical
//! to the scalar reference — while the four independent dependency chains
//! give the out-of-order core real instruction-level parallelism and keep
//! four table-lookup loads in flight per cycle.
//!
//! One four-row loop serves both code widths and, like the SIMD kernels,
//! ends in the caller's [`Sink`]. Byte code `i` indexes table `i`; a nibble
//! row is read a byte at a time, its low nibble indexing table `2b` and its
//! high nibble table `2b + 1`, so no identifier needs a shift of its own.
//! The last `count % 4` rows of a block are left to the shared row loop
//! (`super::score_row`).
//!
//! `Kernel::select` picks it for `k* = 256` (Faiss256), whose 256-entry ×
//! 4-byte tables cannot live in vector registers (PAPER §II-C), on hosts
//! without `avx512f` and, under every dispatch, for rows shorter than a
//! dword (`m < 4`) or LUTs narrower than 256 entries; the win there is
//! purely ILP and the removal of per-score heap traffic. An `avx512f` host
//! scores the rest with the gather kernel (`super::avx512`). For `k* = 16`
//! it is the kernel of the `Blocked` dispatch, what hosts with neither
//! AVX-512 nor AVX2 run.

use super::Sink;
use crate::lut::Lut;
use anna_quant::codes::{CodeWidth, PackedCodes};

/// Scores the whole four-row groups of vectors `[start, start + count)`
/// into `sink`; returns `(vectors done, scores the sink received)`. The
/// caller finishes `done..count`.
///
/// # Panics
///
/// Panics if the range exceeds `codes.len()`, a code indexes past the LUT,
/// or the sink is shorter than the block.
pub(super) fn score_block(
    codes: &PackedCodes,
    start: usize,
    count: usize,
    lut: &Lut,
    sink: &mut Sink<'_>,
) -> (usize, usize) {
    let (m, vb, kstar) = (codes.m(), codes.vector_bytes(), lut.kstar());
    let (entries, bias, bytes) = (lut.entries(), lut.bias(), codes.bytes());
    let pairs = m / 2;
    let mut written = 0;
    let mut v = 0;
    while v + 4 <= count {
        let o = (start + v) * vb;
        let r0 = &bytes[o..o + vb];
        let r1 = &bytes[o + vb..o + 2 * vb];
        let r2 = &bytes[o + 2 * vb..o + 3 * vb];
        let r3 = &bytes[o + 3 * vb..o + 4 * vb];
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        match codes.width() {
            // A byte row holds its `m` identifiers in `vb = m` bytes; the
            // row length bounds the loop so the row reads need no check.
            CodeWidth::U8 => {
                for i in 0..vb {
                    let t = i * kstar;
                    s0 += entries[t + r0[i] as usize];
                    s1 += entries[t + r1[i] as usize];
                    s2 += entries[t + r2[i] as usize];
                    s3 += entries[t + r3[i] as usize];
                }
            }
            CodeWidth::U4 => {
                for b in 0..pairs {
                    let (lo, hi) = (2 * b * kstar, (2 * b + 1) * kstar);
                    let (b0, b1, b2, b3) = (r0[b], r1[b], r2[b], r3[b]);
                    s0 += entries[lo + (b0 & 0x0F) as usize];
                    s0 += entries[hi + (b0 >> 4) as usize];
                    s1 += entries[lo + (b1 & 0x0F) as usize];
                    s1 += entries[hi + (b1 >> 4) as usize];
                    s2 += entries[lo + (b2 & 0x0F) as usize];
                    s2 += entries[hi + (b2 >> 4) as usize];
                    s3 += entries[lo + (b3 & 0x0F) as usize];
                    s3 += entries[hi + (b3 >> 4) as usize];
                }
                if m % 2 == 1 {
                    let t = (m - 1) * kstar;
                    s0 += entries[t + (r0[pairs] & 0x0F) as usize];
                    s1 += entries[t + (r1[pairs] & 0x0F) as usize];
                    s2 += entries[t + (r2[pairs] & 0x0F) as usize];
                    s3 += entries[t + (r3[pairs] & 0x0F) as usize];
                }
            }
        }
        for (r, sum) in [s0, s1, s2, s3].into_iter().enumerate() {
            written = sink.put(written, v + r, sum + bias);
        }
        v += 4;
    }
    (v, written)
}
