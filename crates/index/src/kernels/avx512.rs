//! AVX-512 kernels: `k* = 16` codes scored 64 per iteration with one
//! `vpermps zmm` per sixteen lookups, and `k* = 256` codes scored 64 per
//! iteration with one `vgatherdps zmm` per sixteen lookups.
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
//! A 256-entry table (Faiss256) is 1 KiB and fits no register, which is
//! the paper's case for the SCM's lookup SRAM. [`gather_kernel`] narrows
//! that gap without closing it: sixteen lookups are one `vgatherdps`
//! instead of sixteen scalar loads, but a gather still issues one load per
//! lane, so the kernel stays bound by the load ports.
//!
//! # Layout and summation order
//!
//! As in [`super::avx2`], both kernels are **vertical**: lane `l` of an
//! accumulator owns vector `j + l`, subquantizers are walked in
//! `i = 0..M` order and the bias is added last, so every lane performs the
//! scalar reference's addition sequence and scores are bit-identical by
//! construction. Four accumulators (64 lanes) amortize each table load or
//! each code fetch.
//!
//! # Row loads
//!
//! The LUT16 kernel handles only whole-dword rows (`ND` dwords,
//! `vb = 4·ND`): sixteen 4-byte rows are one 64-byte load; sixteen 8-byte
//! rows (`m = 16`, the benchmark's shape) are two, de-interleaved into
//! "dword 0 of every row" and "dword 1 of every row" by one `vpermt2d`
//! each. Every other row width runs the AVX2 kernel (the caller's choice,
//! see [`super::score_block_simd`]).
//!
//! The gather kernel reads the unchanged row-major byte codes: per four
//! subquantizers, one `vpgatherdd` fetches the same dword of sixteen rows
//! (index = lane · `m`, the chunk's position in the base pointer). When
//! `m` is not a multiple of four, the last fetch takes the dword that ends
//! at the row's last byte — still inside the row — and shifts the bytes
//! already summed out of it. Rows shorter than a dword (`m < 4`) stay on
//! the blocked kernel.
//!
//! # No scalar tail
//!
//! Every load, gather, store and compare is under a lane mask. A full
//! chunk runs with all-ones masks; the last chunk of a block masks off the
//! lanes past `count` (masked-off lanes are neither read nor written —
//! fault suppression is architectural), so a kernel always finishes the
//! block.
//!
//! # Sinks
//!
//! Both kernels end in `finish_group!`. The tile sink is a masked store per
//! accumulator. The survivors sink compares the finished sums with the
//! broadcast threshold straight into a mask register (`vcmpps k, GE_OQ`:
//! ordered, so NaN never passes) and, for a non-empty mask,
//! compress-stores the passing scores and their positions — ascending,
//! because compression keeps lane order.

#![cfg(any(target_arch = "x86", target_arch = "x86_64"))]

use super::Sink;

#[cfg(target_arch = "x86")]
use std::arch::x86 as arch;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64 as arch;

use arch::{__m512, __m512i};

/// Vectors in flight per iteration: four sixteen-lane accumulators.
const CHUNK: usize = 64;

/// Entries per `k* = 256` table.
const KSTAR_U8: usize = 256;

/// How many of the sixteen lanes of each group of a chunk hold vectors of
/// the block, when `left` vectors remain; only the block's last chunk has
/// any group short.
fn live_lanes(left: usize) -> [usize; 4] {
    std::array::from_fn(|g| left.saturating_sub(16 * g).min(16))
}

/// The mask of the first `live` of sixteen lanes.
fn lane_mask(live: usize) -> u16 {
    ((1u32 << live) - 1) as u16
}

/// The end both kernels share (`finish_group!`): adds the bias to a
/// group's sixteen sums and hands the lanes inside the block to the sink,
/// counting what it took.
struct Finish<'s> {
    /// `None` for a tile sink, the survivors' threshold otherwise.
    keep_from: Option<f32>,
    vbias: __m512,
    vthreshold: __m512,
    lane: __m512i,
    out: &'s mut [f32],
    positions: &'s mut [u32],
    written: usize,
}

impl<'s> Finish<'s> {
    #[target_feature(enable = "avx512f")]
    fn new(sink: &'s mut Sink<'_>, bias: f32) -> Self {
        use arch::*;
        let (keep_from, out, positions) = sink.parts();
        Finish {
            keep_from,
            vbias: _mm512_set1_ps(bias),
            vthreshold: _mm512_set1_ps(keep_from.unwrap_or(f32::NEG_INFINITY)),
            lane: _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
            out,
            positions,
            written: 0,
        }
    }
}

/// Sinks `$acc + bias` through the `Finish` `$finish` for the sixteen
/// lanes at block positions `$at .. $at + 16`, of which the first `$live`
/// are in the block. A macro rather than a method, so that its stores rest
/// on the calling kernel's `# Safety` contract (every sink slice holds
/// `count` elements, and `$at + $live <= count`).
macro_rules! finish_group {
    ($finish:expr, $acc:expr, $at:expr, $live:expr) => {{
        let f: &mut Finish = $finish;
        let (at, live): (usize, usize) = ($at, $live);
        let sum = _mm512_add_ps($acc, f.vbias);
        let in_block = lane_mask(live);
        if f.keep_from.is_none() {
            _mm512_mask_storeu_ps(f.out.as_mut_ptr().wrapping_add(at), in_block, sum);
            f.written += live;
        } else {
            let passing = _mm512_mask_cmp_ps_mask::<_CMP_GE_OQ>(in_block, sum, f.vthreshold);
            if passing != 0 {
                // `written` trails the lanes scored so far, so the
                // survivors of this group fit below `at + live`.
                let positions = _mm512_add_epi32(f.lane, _mm512_set1_epi32(at as i32));
                _mm512_mask_compressstoreu_ps(f.out.as_mut_ptr().add(f.written), passing, sum);
                _mm512_mask_compressstoreu_epi32(
                    f.positions.as_mut_ptr().add(f.written) as *mut i32,
                    passing,
                    positions,
                );
                f.written += passing.count_ones() as usize;
            }
        }
    }};
}

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
    let mut finish = Finish::new(sink, bias);
    // Of the 32 dwords of sixteen 8-byte rows (two registers), the even
    // ones are every row's dword 0 and the odd ones every row's dword 1.
    let even = _mm512_slli_epi32::<1>(finish.lane);
    let odd = _mm512_or_si512(even, _mm512_set1_epi32(1));

    let mut j = 0;
    while j < count {
        let live = live_lanes(count - j);
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
            finish_group!(&mut finish, acc, j + 16 * g, live[g]);
        }
        j += CHUNK;
    }
    (count, finish.written)
}

/// The gather loop for byte codes against `k* = 256` tables: rows of `m`
/// bytes, `bytes` the full row-major code stream. Returns
/// `(count, scores the sink received)`; like [`lut16_kernel`] it never
/// leaves a tail.
///
/// # Safety
///
/// The caller must ensure the host supports `avx512f`, that
/// `4 <= m` and `16 * m` fits an `i32`, that `(start + count) * m <=
/// bytes.len()`, that `entries` holds `m` tables of 256 (so every byte
/// code indexes inside its table), and that every sink slice holds
/// `count` elements.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn gather_kernel(
    m: usize,
    bytes: &[u8],
    start: usize,
    count: usize,
    entries: &[f32],
    bias: f32,
    sink: &mut Sink<'_>,
) -> (usize, usize) {
    use arch::*;

    let mut finish = Finish::new(sink, bias);
    // Byte offset of lane l's row from lane 0's.
    let row_offset = _mm512_mullo_epi32(finish.lane, _mm512_set1_epi32(m as i32));
    let low_byte = _mm512_set1_epi32(0xFF);

    let mut j = 0;
    while j < count {
        let live = live_lanes(count - j);
        let masks = live.map(lane_mask);
        // Masked-off rows may lie past the buffer, so their address is
        // computed without the in-bounds promise `add` makes.
        let chunk = bytes.as_ptr().wrapping_add((start + j) * m);

        let mut acc = [_mm512_setzero_ps(); 4];
        // Subquantizers `first .. first + 4` per fetched dword.
        let mut first = 0;
        while first < m {
            // Past the last whole dword, fetch the one ending at the row's
            // last byte and shift out the bytes already summed.
            let at = first.min(m - 4);
            let summed = _mm512_set1_epi32(8 * (first - at) as i32);
            let codes: [__m512i; 4] = std::array::from_fn(|g| {
                let p = chunk.wrapping_add(16 * g * m + at) as *const i32;
                let dword = _mm512_mask_i32gather_epi32::<1>(
                    _mm512_setzero_si512(),
                    masks[g],
                    row_offset,
                    p,
                );
                _mm512_srlv_epi32(dword, summed)
            });
            // Subquantizer `first + p` is byte p of the shifted dword.
            macro_rules! step {
                ($p:literal) => {
                    let i = first + $p;
                    if i < m {
                        let table = entries.as_ptr().add(i * KSTAR_U8);
                        for g in 0..4 {
                            let code = _mm512_and_si512(
                                _mm512_srli_epi32::<{ 8 * $p }>(codes[g]),
                                low_byte,
                            );
                            let entry = _mm512_mask_i32gather_ps::<4>(
                                _mm512_setzero_ps(),
                                masks[g],
                                code,
                                table,
                            );
                            acc[g] = _mm512_add_ps(acc[g], entry);
                        }
                    }
                };
            }
            step!(0);
            step!(1);
            step!(2);
            step!(3);
            first += 4;
        }

        for (g, acc) in acc.into_iter().enumerate() {
            finish_group!(&mut finish, acc, j + 16 * g, live[g]);
        }
        j += CHUNK;
    }
    (count, finish.written)
}
