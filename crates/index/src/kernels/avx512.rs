//! AVX-512 kernels: `k* = 16` codes scored 64 per iteration with one
//! `vpermps zmm` per sixteen lookups, for up to four queries per pass over
//! the rows, and `k* = 256` codes scored 64 per iteration with one
//! `vgatherdps zmm` per sixteen lookups — the table lookups are the only
//! gathers where rows are 8 or 16 bytes, which are loaded.
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
//! lane, so the kernel stays bound by the load ports. What it can shed is
//! every other load: where a row is two or four whole dwords it loads
//! sixteen rows as two or four contiguous registers instead of gathering
//! their code dwords, so at `m = 16` (the benchmark's shape) sixteen rows
//! cost 16 gathers instead of 20.
//!
//! # Layout and summation order
//!
//! As in [`super::avx2`], both kernels are **vertical**: lane `l` of an
//! accumulator owns vector `j + l`, subquantizers are walked in
//! `i = 0..M` order and the bias is added last, so every lane performs the
//! scalar reference's addition sequence and scores are bit-identical by
//! construction. Four accumulators (64 lanes) per query amortize each
//! table load or each code fetch.
//!
//! # Row loads
//!
//! The LUT16 kernel handles only whole-dword rows (`ND` dwords,
//! `vb = 4·ND`): sixteen 4-byte rows are one 64-byte load; sixteen 8-byte
//! rows (`m = 16`, the benchmark's shape) are two, de-interleaved into
//! "dword 0 of every row" and "dword 1 of every row" by one `vpermt2d`
//! each. Every other row width runs the AVX2 kernel (`Kernel::select`'s
//! choice, see [`super::Kernel`]).
//!
//! The gather kernel reads the unchanged row-major byte codes. Rows of
//! `ND` whole dwords (`ND` 2 or 4: `m` 8 and 16, `Avx512Gather { nd }`)
//! are loaded like the LUT16 kernel's: sixteen 8-byte rows are two masked
//! 64-byte loads de-interleaved by one `vpermt2d` per dword; sixteen
//! 16-byte rows are four loads, de-interleaved in two rounds — `vpermt2d`
//! over each pair of registers (eight rows) gathers dwords 0 and 1, and 2
//! and 3, into the two halves of a register, and a second `vpermt2d` joins
//! the two pairs' halves into "dword d of all sixteen rows". All four lane
//! groups' rows are loaded first, then each group's sixteen lookups run in
//! subquantizer order. Every other width (`nd` 0) gathers its code
//! dwords: per four subquantizers, one `vpgatherdd` fetches the same dword
//! of sixteen rows (index = lane · `m`, the chunk's position in the base
//! pointer); when `m` is not a multiple of four, the last fetch takes the
//! dword that ends at the row's last byte — still inside the row — and
//! shifts the bytes already summed out of it. Either way only the table
//! lookups remain gathers. Rows shorter than a dword (`m < 4`) stay on
//! the blocked kernel.
//!
//! # The group loop
//!
//! Nothing about a chunk's row loads, its de-interleave or its nibble
//! shifts depends on the query, so [`lut16_kernel`] does them once for a
//! group of `Q` queries (one to four, a const parameter): per chunk it
//! loads and de-interleaves the rows; per subquantizer it shifts each lane
//! group's row dword once and looks the index up in each query's table,
//! adding into that query's accumulators; each query ends in its own sink.
//! Per subquantizer and 64 codes that is 4 shifts, `4Q` permutes and `4Q`
//! adds on the two vector ports instead of `Q` times 4 + 4 + 4.
//!
//! The group is sized by the register budget ([`super::GROUP`]): `Q` = 4
//! takes 16 accumulators, beside the 8 de-interleaved row dwords of an
//! 8-byte-row chunk that is 24 of the 32 ZMM registers, and the rest hold
//! the shifted index, the tables and the permute results (the compiler
//! may leave the row dwords in L1 and shift them straight from memory);
//! a fifth query would spill accumulators. `k* = 256` has no group: its
//! gathers are bound by the load ports, which the queries would share
//! rather than split.
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
//! accumulator. The survivors sink does not branch on its outcome: it
//! compares the finished sums with the broadcast threshold straight into a
//! mask register (`vcmpps k, GE_OQ`: ordered, so NaN never passes),
//! compresses the passing scores and their positions in registers
//! (`vcompressps` / `vpcompressd`, which keep lane order, so positions
//! ascend), stores both full width at the survivor count and advances the
//! count by `popcnt` of the mask. The lanes stored above the survivors are
//! junk the next group's store overwrites; since the count never passes
//! the block's `count`, a survivors buffer needs `count + SINK_SLACK`
//! slots (sixteen lanes of slack), which the safe wrapper asserts.

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
/// on the calling kernel's `# Safety` contract (a tile holds `count`
/// elements, a survivors slice `count + SINK_SLACK`, and `$at + $live <=
/// count`) and its `popcnt` compiles to the instruction.
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
            // No branch on the outcome: the passing lanes are compressed
            // in registers and stored full width at `written`, so the
            // lanes above them are junk the next store (or nothing)
            // overwrites. `written` trails the lanes scored so far and
            // never passes `count`, so the store ends inside the
            // `count + SINK_SLACK` slots the caller promised.
            let passing = _mm512_mask_cmp_ps_mask::<_CMP_GE_OQ>(in_block, sum, f.vthreshold);
            let positions = _mm512_add_epi32(f.lane, _mm512_set1_epi32(at as i32));
            _mm512_storeu_ps(
                f.out.as_mut_ptr().add(f.written),
                _mm512_maskz_compress_ps(passing, sum),
            );
            _mm512_storeu_si512(
                f.positions.as_mut_ptr().add(f.written).cast(),
                _mm512_maskz_compress_epi32(passing, positions),
            );
            f.written += passing.count_ones() as usize;
        }
    }};
}

/// The register-resident LUT16 loop over rows of `ND` whole dwords, for a
/// group of `Q` queries; `bytes` is the full packed row-major code stream,
/// and query `q` looks up `tables[q]`, adds `biases[q]` and ends in
/// `sinks[q]`. Returns the number of scores each sink received; the kernel
/// never leaves a tail.
///
/// # Safety
///
/// The caller must ensure the host supports `avx512f` and `popcnt`, that
/// the row width is exactly `4 * ND` bytes (so `m <= 8 * ND`), that
/// `(start + count) * 4 * ND <= bytes.len()`, that each of `tables` holds
/// `m` tables of 16, that every tile sink holds `count` elements and that
/// every survivors sink slice holds `count + SINK_SLACK`.
#[target_feature(enable = "avx512f,popcnt")]
pub(super) unsafe fn lut16_kernel<const ND: usize, const Q: usize>(
    m: usize,
    bytes: &[u8],
    start: usize,
    count: usize,
    tables: [&[f32]; Q],
    biases: [f32; Q],
    sinks: &mut [Sink<'_>; Q],
) -> [usize; Q] {
    use arch::*;

    let vb = 4 * ND;
    let mut finish: [Finish; Q] = {
        let mut sinks = sinks.iter_mut();
        std::array::from_fn(|q| Finish::new(sinks.next().expect("one sink per query"), biases[q]))
    };
    // Of the 32 dwords of sixteen 8-byte rows (two registers), the even
    // ones are every row's dword 0 and the odd ones every row's dword 1.
    let even = _mm512_slli_epi32::<1>(finish[0].lane);
    let odd = _mm512_or_si512(even, _mm512_set1_epi32(1));

    let mut j = 0;
    while j < count {
        let live = live_lanes(count - j);
        // Masked-off rows may lie past the buffer, so their address is
        // computed without the in-bounds promise `add` makes.
        let chunk = bytes.as_ptr().wrapping_add((start + j) * vb);

        // The `ND` row dwords of the sixteen lanes of each group, shared
        // by every query; lanes past `live[g]` read nothing and hold code 0.
        let mut rows = [[_mm512_setzero_si512(); ND]; 4];
        for (g, row) in rows.iter_mut().enumerate() {
            let p = chunk.wrapping_add(16 * g * vb) as *const i32;
            // One mask bit per live dword: `ND` per live row.
            let dwords = ((1u64 << (ND * live[g])) - 1) as u32;
            let a = _mm512_maskz_loadu_epi32(dwords as u16, p);
            if ND == 1 {
                row[0] = a;
            } else {
                let b = _mm512_maskz_loadu_epi32((dwords >> 16) as u16, p.wrapping_add(16));
                // `ND` is 2 here: dword 0, then dword 1.
                row[0] = _mm512_permutex2var_epi32(a, even, b);
                row[ND - 1] = _mm512_permutex2var_epi32(a, odd, b);
            }
        }

        let mut acc = [[_mm512_setzero_ps(); 4]; Q];
        for d in 0..ND {
            // Subquantizer 8d + p is nibble p of dword d (low nibble
            // first, matching PackedCodes).
            macro_rules! step {
                ($p:literal) => {
                    let i = 8 * d + $p;
                    if i < m {
                        for (g, row) in rows.iter().enumerate() {
                            // The permute ignores index bits above 3:0, so
                            // the shifted row is the index — once for all
                            // `Q` lookups.
                            let index = _mm512_srli_epi32::<{ 4 * $p }>(row[d]);
                            for q in 0..Q {
                                // Table i of query q: one register for
                                // sixteen lookups.
                                let t = _mm512_loadu_ps(tables[q].as_ptr().add(i * 16));
                                acc[q][g] =
                                    _mm512_add_ps(acc[q][g], _mm512_permutexvar_ps(index, t));
                            }
                        }
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

        for (finish, acc) in finish.iter_mut().zip(acc) {
            for (g, acc) in acc.into_iter().enumerate() {
                finish_group!(finish, acc, j + 16 * g, live[g]);
            }
        }
        j += CHUNK;
    }
    finish.map(|f| f.written)
}

/// The gather loop for byte codes against `k* = 256` tables: rows of `m`
/// bytes, `bytes` the full row-major code stream. With `ND` 2 or 4 a row
/// is exactly `ND` dwords (`m = 4·ND`: 8- and 16-byte rows) and sixteen
/// rows are loaded whole and de-interleaved; with `ND` 0 (any `m >= 4`)
/// each dword of sixteen rows is gathered. Returns `(count, scores the
/// sink received)`; like [`lut16_kernel`] it never leaves a tail.
///
/// # Safety
///
/// The caller must ensure the host supports `avx512f` and `popcnt`, that
/// `4 <= m` and `16 * m` fits an `i32`, that `m == 4 * ND` unless `ND` is
/// 0, that `(start + count) * m <= bytes.len()`, that `entries` holds `m`
/// tables of 256 (so every byte code indexes inside its table), and that a
/// tile sink holds `count` elements and a survivors sink's slices
/// `count + SINK_SLACK`.
#[target_feature(enable = "avx512f,popcnt")]
pub(super) unsafe fn gather_kernel<const ND: usize>(
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
    // De-interleave indices (`vpermt2d`: 0–15 pick from the first register,
    // 16–31 from the second). Sixteen 8-byte rows are two registers, row r
    // at dwords 2r, 2r + 1: `even` and `odd` pick dword 0 and dword 1 of
    // every row. Sixteen 16-byte rows are four, row r at dwords 4r .. 4r +
    // 4 of the pair holding it: `d01` picks dwords 0 (lanes 0–7) and 1
    // (lanes 8–15) of a pair's eight rows, `d23` dwords 2 and 3; `low` and
    // `high` then join the two pairs' halves into all sixteen rows.
    let even = _mm512_slli_epi32::<1>(finish.lane);
    let odd = _mm512_or_si512(even, _mm512_set1_epi32(1));
    let d01 = _mm512_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28, 1, 5, 9, 13, 17, 21, 25, 29);
    let d23 = _mm512_or_si512(d01, _mm512_set1_epi32(2));
    let low = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23);
    let high = _mm512_or_si512(low, _mm512_set1_epi32(8));

    let mut j = 0;
    while j < count {
        let live = live_lanes(count - j);
        let masks = live.map(lane_mask);
        // Masked-off rows may lie past the buffer, so their address is
        // computed without the in-bounds promise `add` makes.
        let chunk = bytes.as_ptr().wrapping_add((start + j) * m);

        let mut acc = [_mm512_setzero_ps(); 4];
        // Byte `$p` of `$dword` is each row's code for subquantizer `$i`:
        // lane group `$g` adds table `$i`'s entries into its accumulator.
        macro_rules! lookup {
            ($g:expr, $dword:expr, $p:literal, $i:expr) => {{
                let code = _mm512_and_si512(_mm512_srli_epi32::<{ 8 * $p }>($dword), low_byte);
                let table = entries.as_ptr().add($i * KSTAR_U8);
                let entry =
                    _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), masks[$g], code, table);
                acc[$g] = _mm512_add_ps(acc[$g], entry);
            }};
        }
        if ND > 0 {
            // Whole rows: the `ND` dwords of each lane group's sixteen rows
            // loaded and de-interleaved into "dword d of every row" (lanes
            // past `live[g]` read nothing and hold code 0), all four groups
            // first; then each group's lookups in subquantizer order.
            let mut rows = [[_mm512_setzero_si512(); 4]; 4];
            for (g, rows) in rows.iter_mut().enumerate() {
                let p = chunk.wrapping_add(16 * g * m) as *const i32;
                // One mask bit per live dword: `ND` per live row.
                let dwords = match ND * live[g] {
                    64 => u64::MAX,
                    n => (1u64 << n) - 1,
                };
                let load = |r: usize| {
                    _mm512_maskz_loadu_epi32((dwords >> (16 * r)) as u16, p.wrapping_add(16 * r))
                };
                if ND == 2 {
                    let (a, b) = (load(0), load(1));
                    rows[0] = _mm512_permutex2var_epi32(a, even, b);
                    rows[1] = _mm512_permutex2var_epi32(a, odd, b);
                } else {
                    // `ND` is 4: rows 0–7 in the first pair, 8–15 in the
                    // second.
                    let (a, b) = ((load(0), load(1)), (load(2), load(3)));
                    let a01 = _mm512_permutex2var_epi32(a.0, d01, a.1);
                    let b01 = _mm512_permutex2var_epi32(b.0, d01, b.1);
                    let a23 = _mm512_permutex2var_epi32(a.0, d23, a.1);
                    let b23 = _mm512_permutex2var_epi32(b.0, d23, b.1);
                    rows[0] = _mm512_permutex2var_epi32(a01, low, b01);
                    rows[1] = _mm512_permutex2var_epi32(a01, high, b01);
                    rows[2] = _mm512_permutex2var_epi32(a23, low, b23);
                    rows[3] = _mm512_permutex2var_epi32(a23, high, b23);
                }
            }
            for (g, rows) in rows.iter().enumerate() {
                for (d, &dword) in rows.iter().enumerate().take(ND) {
                    lookup!(g, dword, 0, 4 * d);
                    lookup!(g, dword, 1, 4 * d + 1);
                    lookup!(g, dword, 2, 4 * d + 2);
                    lookup!(g, dword, 3, 4 * d + 3);
                }
            }
        } else {
            // Subquantizers `first .. first + 4` per gathered code dword.
            let mut first = 0;
            while first < m {
                // Past the last whole dword, fetch the one ending at the
                // row's last byte and shift out the bytes already summed.
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
                macro_rules! step {
                    ($p:literal) => {
                        let i = first + $p;
                        if i < m {
                            for g in 0..4 {
                                lookup!(g, codes[g], $p, i);
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
        }

        for (g, acc) in acc.into_iter().enumerate() {
            finish_group!(&mut finish, acc, j + 16 * g, live[g]);
        }
        j += CHUNK;
    }
    (count, finish.written)
}
