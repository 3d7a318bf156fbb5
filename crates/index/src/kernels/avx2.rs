//! AVX2 LUT16 kernel: `k* = 16` codes scored 32 per iteration from
//! register-resident tables.
//!
//! Faiss16/ScaNN16 are fast on CPUs because a 16-entry lookup table fits a
//! vector register and is reachable by an in-register shuffle (`pshufb`,
//! PAPER §II-C). Their kernels shuffle *quantized u8* entries; ours must
//! stay bit-identical to the f32 scalar reference, so the same trick is
//! done at f32 width: the 16 entries of table `i` live in two YMM
//! registers and `vpermps` (`_mm256_permutevar8x32_ps`) + a high-half
//! blend performs eight full-precision lookups per shuffle pair.
//!
//! # Layout and summation order
//!
//! The kernel is **vertical**: lane `l` of an accumulator owns vector
//! `j + l`, and the subquantizers are walked in `i = 0..M` order, so every
//! lane performs *exactly* the scalar reference's addition sequence
//! (`((e_0 + e_1) + e_2) … + bias`) — scores are bit-identical by
//! construction, not by tolerance. Four accumulators (32 lanes) amortize
//! the two table loads per subquantizer.
//!
//! # Row loads
//!
//! There is **no unpack/transpose pass**: each lane holds its vector's
//! packed code row as whole dwords. Eight 4-byte rows are one unaligned
//! 32-byte load; eight 8-byte rows (`m = 16`) are two, de-interleaved into
//! "dword 0 of every row" and "dword 1 of every row" by an in-lane shuffle
//! plus one cross-lane permute each. Every other row width takes a dword
//! gather whose index vector holds only the eight lane offsets `l · vb` —
//! the chunk's position goes into the base pointer, so no index can wrap
//! however long the code stream is. The code stream is read once, already
//! in the layout the index stores it.
//!
//! # Lookup
//!
//! Nibble `p` of a row dword selects entry `e` of its table. `vpermps`
//! reads only bits 2:0 of each index lane, so `row >> 4p` (an immediate
//! shift, no mask) already indexes within a table half; bit 3 of the
//! nibble picks the half, and `row << (28 − 4p)` puts exactly that bit in
//! the sign position `vblendvps` reads (no compare). Both shift counts are
//! immediates because the eight nibbles of a dword are unrolled.
//!
//! # Sinks
//!
//! One destination, the survivors [`Sink`]: the 32 finished sums are
//! compared with a broadcast threshold in registers and only the passing
//! lanes are spilled — the software image of the SCM handing the P-heap
//! nothing but winners (PAPER §III-B(4)). `score_all` reads every score
//! through the same sink at `−∞`.

use super::Sink;

use std::arch::x86_64 as arch;

/// Most dwords of packed row the SIMD path keeps per lane (`nd ≤ 8` covers
/// `m ≤ 64`; wider rows are left whole to the shared row loop).
const MAX_ROW_DWORDS: usize = 8;

/// The register-resident LUT16 loop. See the module docs for the lane
/// layout; `bytes` is the full packed row-major code stream. Scores whole
/// 32-vector chunks only and returns `(vectors done, scores the sink
/// received)`; the caller finishes `done..count` with the shared row loop.
///
/// # Safety
///
/// The caller must ensure the host supports AVX2, that
/// `(start + count) * vb <= bytes.len()`, that `entries` holds `m` tables
/// of 16, and that both sink slices hold `count` elements.
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn lut16_kernel(
    m: usize,
    vb: usize,
    bytes: &[u8],
    start: usize,
    count: usize,
    entries: &[f32],
    bias: f32,
    sink: &mut Sink<'_>,
) -> (usize, usize) {
    use arch::*;

    let mut written = 0;

    // Byte offset of lane l's row relative to lane 0 (gather path).
    let lane_off = _mm256_setr_epi32(
        0,
        vb as i32,
        2 * vb as i32,
        3 * vb as i32,
        4 * vb as i32,
        5 * vb as i32,
        6 * vb as i32,
        7 * vb as i32,
    );
    // Dwords per packed row; the last dword of a row may straddle into
    // the next row (harmless — the lookup only reads wanted nibbles) but
    // must never read past the buffer, hence the bound check below.
    let nd = vb.div_ceil(4);
    let vbias = _mm256_set1_ps(bias);
    let vthreshold = _mm256_set1_ps(sink.threshold);

    /// Eight f32 lookups of nibble `$p` of each lane's dword: both table
    /// halves shuffled by the nibble's low three bits, the half chosen by
    /// its top bit moved into the sign position.
    macro_rules! lookup8 {
        ($row:expr, $p:literal, $lo:expr, $hi:expr) => {{
            let idx = _mm256_srli_epi32::<{ 4 * $p }>($row);
            let is_hi = _mm256_castsi256_ps(_mm256_slli_epi32::<{ 28 - 4 * $p }>($row));
            _mm256_blendv_ps(
                _mm256_permutevar8x32_ps($lo, idx),
                _mm256_permutevar8x32_ps($hi, idx),
                is_hi,
            )
        }};
    }

    let mut j = 0;
    if nd <= MAX_ROW_DWORDS {
        while j + 32 <= count {
            // Every dword read for this chunk ends by the last lane's row
            // start plus 4·nd; stop if that would cross the buffer end
            // (only possible for ragged row widths on the final rows —
            // the row loop takes over).
            if (start + j + 31) * vb + 4 * nd > bytes.len() {
                break;
            }
            let chunk = bytes.as_ptr().add((start + j) * vb);
            /// Dword `$d` of the packed rows of lanes `8·$g .. 8·$g + 8`.
            macro_rules! row_dwords {
                ($g:literal, $d:expr) => {{
                    let p = chunk.add(8 * $g * vb);
                    match vb {
                        // Eight 4-byte rows are 32 contiguous bytes.
                        4 => _mm256_loadu_si256(p as *const __m256i),
                        // Eight 8-byte rows are 64: `a` holds rows 0–3 as
                        // (dword 0, dword 1) pairs, `b` rows 4–7. The
                        // in-lane shuffle picks one dword of each pair, in
                        // the order [r0 r1 r4 r5 | r2 r3 r6 r7]; swapping
                        // the middle quadwords restores row order.
                        8 => {
                            let a = _mm256_castsi256_ps(_mm256_loadu_si256(p as *const __m256i));
                            let b = _mm256_castsi256_ps(_mm256_loadu_si256(
                                p.add(32) as *const __m256i
                            ));
                            let picked = if $d == 0 {
                                _mm256_shuffle_ps::<0b10_00_10_00>(a, b)
                            } else {
                                _mm256_shuffle_ps::<0b11_01_11_01>(a, b)
                            };
                            _mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_castps_si256(picked))
                        }
                        // The chunk's position is in the base pointer, so
                        // the indices are the lane offsets alone.
                        _ => _mm256_i32gather_epi32::<1>(p.add(4 * $d) as *const i32, lane_off),
                    }
                }};
            }

            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut acc2 = _mm256_setzero_ps();
            let mut acc3 = _mm256_setzero_ps();
            for d in 0..nd {
                let r0 = row_dwords!(0, d);
                let r1 = row_dwords!(1, d);
                let r2 = row_dwords!(2, d);
                let r3 = row_dwords!(3, d);
                // Subquantizer 8d + p is nibble p of dword d (low nibble
                // first, matching PackedCodes).
                macro_rules! step {
                    ($p:literal) => {
                        let i = 8 * d + $p;
                        if i < m {
                            // Table i, resident in two registers for all
                            // 32 lanes.
                            let t = entries.as_ptr().add(i * 16);
                            let lo = _mm256_loadu_ps(t);
                            let hi = _mm256_loadu_ps(t.add(8));
                            acc0 = _mm256_add_ps(acc0, lookup8!(r0, $p, lo, hi));
                            acc1 = _mm256_add_ps(acc1, lookup8!(r1, $p, lo, hi));
                            acc2 = _mm256_add_ps(acc2, lookup8!(r2, $p, lo, hi));
                            acc3 = _mm256_add_ps(acc3, lookup8!(r3, $p, lo, hi));
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
            let sums = [
                _mm256_add_ps(acc0, vbias),
                _mm256_add_ps(acc1, vbias),
                _mm256_add_ps(acc2, vbias),
                _mm256_add_ps(acc3, vbias),
            ];

            // Bit l of `passing` = lane l scored >= threshold.
            let mut passing = 0u32;
            for (g, &sum) in sums.iter().enumerate() {
                let ge = _mm256_cmp_ps::<_CMP_GE_OQ>(sum, vthreshold);
                passing |= (_mm256_movemask_ps(ge) as u32) << (8 * g);
            }
            if passing != 0 {
                let mut lanes = [0.0f32; 32];
                for (g, &sum) in sums.iter().enumerate() {
                    _mm256_storeu_ps(lanes.as_mut_ptr().add(8 * g), sum);
                }
                while passing != 0 {
                    let l = passing.trailing_zeros() as usize;
                    sink.positions[written] = (j + l) as u32;
                    sink.scores[written] = lanes[l];
                    written += 1;
                    passing &= passing - 1;
                }
            }
            j += 32;
        }
    }

    (j, written)
}
