//! AVX-512 LUT16 kernel: `k* = 16` codes scored 64 per iteration, one
//! `vpermps zmm` per sixteen lookups.
//!
//! PAPER §II-C: Faiss16/ScaNN16 are fast on CPUs because a 16-entry table
//! fits *one* vector register. At f32 width that is literally true only of
//! a ZMM register: table `i` is a single 64-byte load, and
//! `_mm512_permutexvar_ps` looks sixteen lanes up in it at once. The
//! instruction reads bits 3:0 of each index lane and ignores the rest, so
//! `row >> 4p` (an immediate shift, no mask) already *is* the index of
//! nibble `p` — the AVX2 kernel's second shuffle, its high-half blend and
//! the sign-bit shift feeding it all disappear.
//!
//! # Layout and summation order
//!
//! As in [`super::avx2`], the kernel is **vertical**: lane `l` of an
//! accumulator owns vector `j + l`, subquantizers are walked in
//! `i = 0..M` order and the bias is added last, so every lane performs the
//! scalar reference's addition sequence and scores are bit-identical by
//! construction. Four accumulators (64 lanes) amortize each table load.
//!
//! # Row loads
//!
//! Only whole-dword rows are handled here (`ND` dwords, `vb = 4·ND`):
//! sixteen 4-byte rows are one 64-byte load; sixteen 8-byte rows
//! (`m = 16`, the benchmark's shape) are two, de-interleaved into "dword 0
//! of every row" and "dword 1 of every row" by one `vpermt2d` each. Every
//! other row width runs the AVX2 kernel (the caller's choice, see
//! [`super::score_block_u4`]).
//!
//! # No scalar tail
//!
//! Every load, store and compare is under a lane mask. A full chunk runs
//! with all-ones masks; the last chunk of a block masks off the lanes past
//! `count` (masked-off lanes are neither read nor written — fault
//! suppression is architectural), so the kernel always finishes the block.
//!
//! # Sinks
//!
//! The tile sink is a masked store per accumulator. The survivors sink
//! compares the finished sums with the broadcast threshold straight into a
//! mask register (`vcmpps k, GE_OQ`: ordered, so NaN never passes) and, for
//! a non-empty mask, compress-stores the passing scores and their
//! positions — ascending, because compression keeps lane order.

#![cfg(any(target_arch = "x86", target_arch = "x86_64"))]

use super::Sink;

#[cfg(target_arch = "x86")]
use std::arch::x86 as arch;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64 as arch;

/// The register-resident LUT16 loop over rows of `ND` whole dwords; `bytes`
/// is the full packed row-major code stream. Returns `(count, scores the
/// sink received)` — the same `(vectors done, written)` pair as the AVX2
/// kernel, except that this one never leaves a tail.
///
/// # Safety
///
/// The caller must ensure the host supports `avx512f`, that the row width
/// is exactly `4 * ND` bytes (so `m <= 8 * ND`), that
/// `(start + count) * 4 * ND <= bytes.len()`, that `entries` holds `m`
/// tables of 16, and that every sink slice holds `count` elements.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn lut16_kernel<const ND: usize>(
    m: usize,
    bytes: &[u8],
    start: usize,
    count: usize,
    entries: &[f32],
    bias: f32,
    sink: &mut Sink<'_>,
) -> (usize, usize) {
    use arch::*;

    let vb = 4 * ND;
    let (keep_from, out, positions) = sink.parts();
    let mut written = 0;

    let vbias = _mm512_set1_ps(bias);
    let vthreshold = _mm512_set1_ps(keep_from.unwrap_or(f32::NEG_INFINITY));
    let lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    // Of the 32 dwords of sixteen 8-byte rows (two registers), the even
    // ones are every row's dword 0 and the odd ones every row's dword 1.
    let even = _mm512_slli_epi32::<1>(lane);
    let odd = _mm512_or_si512(even, _mm512_set1_epi32(1));

    let mut j = 0;
    while j < count {
        // Sixteen-lane groups 0..4 of this chunk hold `live[g]` vectors of
        // the block; only the block's last chunk has any group short.
        let left = count - j;
        let live: [usize; 4] = std::array::from_fn(|g| left.saturating_sub(16 * g).min(16));
        // Masked-off rows may lie past the buffer, so their address is
        // computed without the in-bounds promise `add` makes.
        let chunk = bytes.as_ptr().wrapping_add((start + j) * vb);

        /// The `ND` row dwords of the sixteen lanes of group `$g`; lanes
        /// past `live[$g]` read nothing and hold code 0.
        macro_rules! rows {
            ($g:literal) => {{
                let p = chunk.wrapping_add(16 * $g * vb) as *const i32;
                // One mask bit per live dword: `ND` per live row.
                let dwords = ((1u64 << (ND * live[$g])) - 1) as u32;
                let a = _mm512_maskz_loadu_epi32(dwords as u16, p);
                if ND == 1 {
                    // Dword 1 does not exist and is never indexed.
                    [a, a]
                } else {
                    let b = _mm512_maskz_loadu_epi32((dwords >> 16) as u16, p.wrapping_add(16));
                    [
                        _mm512_permutex2var_epi32(a, even, b),
                        _mm512_permutex2var_epi32(a, odd, b),
                    ]
                }
            }};
        }
        let (r0, r1, r2, r3) = (rows!(0), rows!(1), rows!(2), rows!(3));

        let mut acc0 = _mm512_setzero_ps();
        let mut acc1 = _mm512_setzero_ps();
        let mut acc2 = _mm512_setzero_ps();
        let mut acc3 = _mm512_setzero_ps();
        for d in 0..ND {
            // Subquantizer 8d + p is nibble p of dword d (low nibble
            // first, matching PackedCodes).
            macro_rules! step {
                ($p:literal) => {
                    let i = 8 * d + $p;
                    if i < m {
                        // Table i: one register for all 64 lanes. The
                        // permute ignores index bits above 3:0, so the
                        // shifted row is the index.
                        let t = _mm512_loadu_ps(entries.as_ptr().add(i * 16));
                        macro_rules! lookup16 {
                            ($row:expr) => {
                                _mm512_permutexvar_ps(_mm512_srli_epi32::<{ 4 * $p }>($row), t)
                            };
                        }
                        acc0 = _mm512_add_ps(acc0, lookup16!(r0[d]));
                        acc1 = _mm512_add_ps(acc1, lookup16!(r1[d]));
                        acc2 = _mm512_add_ps(acc2, lookup16!(r2[d]));
                        acc3 = _mm512_add_ps(acc3, lookup16!(r3[d]));
                    }
                };
            }
            step!(0);
            step!(1);
            step!(2);
            step!(3);
            step!(4);
            step!(5);
            step!(6);
            step!(7);
        }

        for (g, acc) in [acc0, acc1, acc2, acc3].into_iter().enumerate() {
            let sum = _mm512_add_ps(acc, vbias);
            let in_block = ((1u32 << live[g]) - 1) as u16;
            if keep_from.is_none() {
                _mm512_mask_storeu_ps(out.as_mut_ptr().wrapping_add(j + 16 * g), in_block, sum);
                written += live[g];
            } else {
                let passing = _mm512_mask_cmp_ps_mask::<_CMP_GE_OQ>(in_block, sum, vthreshold);
                if passing != 0 {
                    // `written` trails the lanes scored so far, so the
                    // survivors of this group fit below `count`.
                    let at = _mm512_add_epi32(lane, _mm512_set1_epi32((j + 16 * g) as i32));
                    _mm512_mask_compressstoreu_ps(out.as_mut_ptr().add(written), passing, sum);
                    _mm512_mask_compressstoreu_epi32(
                        positions.as_mut_ptr().add(written) as *mut i32,
                        passing,
                        at,
                    );
                    written += passing.count_ones() as usize;
                }
            }
        }
        j += 64;
    }
    (count, written)
}
