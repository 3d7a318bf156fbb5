//! Unrolled multi-accumulator blocked kernels (portable fast path).
//!
//! Four vectors are scored in flight: each keeps its **own** f32
//! accumulator, and the four walk the subquantizers together, so every
//! vector still sums its table entries in `i = 0..M` order — bit-identical
//! to the scalar reference — while the four independent dependency chains
//! give the out-of-order core real instruction-level parallelism and keep
//! four table-lookup loads in flight per cycle.
//!
//! For `k* = 256` (Faiss256), whose 256-entry × 4-byte tables cannot live
//! in vector registers (PAPER §II-C), this is the kernel on hosts without
//! `avx512f` and, under every dispatch, for rows shorter than a dword
//! (`m < 4`) or LUTs narrower than 256 entries; the win there is purely
//! ILP and the removal of per-score heap traffic. An `avx512f` host scores
//! the rest with the gather kernel (`super::avx512`). For `k* = 16` it is
//! the fallback when neither AVX-512 nor AVX2 is available.

use crate::lut::Lut;
use anna_quant::codes::{CodeWidth, PackedCodes};

/// Scores vectors `[start, start + out.len())` of u8 codes into `out`.
///
/// # Panics
///
/// Panics if the codes are not [`CodeWidth::U8`] or the range exceeds
/// `codes.len()`.
pub fn score_block_u8(codes: &PackedCodes, start: usize, lut: &Lut, out: &mut [f32]) {
    assert_eq!(codes.width(), CodeWidth::U8);
    let m = codes.m();
    let kstar = lut.kstar();
    let entries = lut.entries();
    let bias = lut.bias();
    let bytes = codes.bytes();
    let count = out.len();
    let base = start * m;

    let mut v = 0;
    while v + 4 <= count {
        let o = base + v * m;
        let r0 = &bytes[o..o + m];
        let r1 = &bytes[o + m..o + 2 * m];
        let r2 = &bytes[o + 2 * m..o + 3 * m];
        let r3 = &bytes[o + 3 * m..o + 4 * m];
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for i in 0..m {
            let t = i * kstar;
            s0 += entries[t + r0[i] as usize];
            s1 += entries[t + r1[i] as usize];
            s2 += entries[t + r2[i] as usize];
            s3 += entries[t + r3[i] as usize];
        }
        out[v] = s0 + bias;
        out[v + 1] = s1 + bias;
        out[v + 2] = s2 + bias;
        out[v + 3] = s3 + bias;
        v += 4;
    }
    while v < count {
        let o = base + v * m;
        let row = &bytes[o..o + m];
        let mut sum = 0.0f32;
        for (i, &c) in row.iter().enumerate() {
            sum += entries[i * kstar + c as usize];
        }
        out[v] = sum + bias;
        v += 1;
    }
}

/// Scores vectors `[start, start + out.len())` of packed u4 codes into
/// `out`, unpacking nibbles inline (low nibble = even subquantizer, as
/// [`PackedCodes`] packs them).
///
/// # Panics
///
/// Panics if the codes are not [`CodeWidth::U4`], the LUT is not 16-entry,
/// or the range exceeds `codes.len()`.
pub fn score_block_u4(codes: &PackedCodes, start: usize, lut: &Lut, out: &mut [f32]) {
    assert_eq!(codes.width(), CodeWidth::U4);
    assert_eq!(lut.kstar(), 16, "u4 kernel requires a 16-entry LUT");
    let m = codes.m();
    let vb = codes.vector_bytes();
    let entries = lut.entries();
    let bias = lut.bias();
    let bytes = codes.bytes();
    let count = out.len();
    let base = start * vb;
    let pairs = m / 2;

    let mut v = 0;
    while v + 4 <= count {
        let o = base + v * vb;
        let r0 = &bytes[o..o + vb];
        let r1 = &bytes[o + vb..o + 2 * vb];
        let r2 = &bytes[o + 2 * vb..o + 3 * vb];
        let r3 = &bytes[o + 3 * vb..o + 4 * vb];
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for b in 0..pairs {
            let (lo_t, hi_t) = ((2 * b) * 16, (2 * b + 1) * 16);
            let (b0, b1, b2, b3) = (r0[b], r1[b], r2[b], r3[b]);
            s0 += entries[lo_t + (b0 & 0x0F) as usize];
            s0 += entries[hi_t + (b0 >> 4) as usize];
            s1 += entries[lo_t + (b1 & 0x0F) as usize];
            s1 += entries[hi_t + (b1 >> 4) as usize];
            s2 += entries[lo_t + (b2 & 0x0F) as usize];
            s2 += entries[hi_t + (b2 >> 4) as usize];
            s3 += entries[lo_t + (b3 & 0x0F) as usize];
            s3 += entries[hi_t + (b3 >> 4) as usize];
        }
        if m % 2 == 1 {
            let t = (m - 1) * 16;
            s0 += entries[t + (r0[pairs] & 0x0F) as usize];
            s1 += entries[t + (r1[pairs] & 0x0F) as usize];
            s2 += entries[t + (r2[pairs] & 0x0F) as usize];
            s3 += entries[t + (r3[pairs] & 0x0F) as usize];
        }
        out[v] = s0 + bias;
        out[v + 1] = s1 + bias;
        out[v + 2] = s2 + bias;
        out[v + 3] = s3 + bias;
        v += 4;
    }
    while v < count {
        let o = base + v * vb;
        let row = &bytes[o..o + vb];
        let mut sum = 0.0f32;
        for (b, &byte) in row.iter().take(pairs).enumerate() {
            sum += entries[(2 * b) * 16 + (byte & 0x0F) as usize];
            sum += entries[(2 * b + 1) * 16 + (byte >> 4) as usize];
        }
        if m % 2 == 1 {
            sum += entries[(m - 1) * 16 + (row[pairs] & 0x0F) as usize];
        }
        out[v] = sum + bias;
        v += 1;
    }
}
