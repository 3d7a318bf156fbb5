//! AVX-512 kernels: `k* = 16` codes scored 64 per iteration with one
//! `vpermps zmm` per sixteen lookups; `k* = 256` codes scored 64 per
//! iteration with one `vgatherdps zmm` per sixteen lookups — the table
//! lookups are the only gathers where rows are 8 or 16 bytes, which are
//! loaded — and, at both widths over the row-loaded shapes, a seeded
//! visit: one u8 pass over the whole cluster that bounds every row's score
//! and the visit's `k`-th best, then the exact kernel for only the rows
//! that can still reach it.
//!
//! PAPER §II-C: Faiss16/ScaNN16 are fast on CPUs because a 16-entry table
//! fits *one* vector register. At f32 width that is literally true only of
//! a ZMM register: table `i` is a single 64-byte load, and
//! `_mm512_permutexvar_ps` looks sixteen lanes up in it at once. The
//! instruction reads bits 3:0 of each index lane and ignores the rest, so
//! `row >> 4p` (an immediate shift, no mask) already *is* the index of
//! nibble `p` — the AVX2 kernel's second shuffle, its high-half blend and
//! the sign-bit shift feeding it all disappear ([`nibble_sums`]).
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
//! The seeded visit closes most of the rest by not looking up most rows
//! at f32 at all. [`quantise`] turns a LUT into `m` tables of 256 *bytes*
//! (or of 16) — one shared scale, a per-table offset, floor rounding — and
//! a byte table is four ZMM registers (all sixteen 16-byte tables are four
//! too): two `vpermi2b` and a blend look up 64 codes (one `vpermi2b`, 64
//! nibbles). Summed in 16-bit lanes, the bytes give every row of the
//! cluster both an upper and a lower bound on its score ([`byte_sums`],
//! which keeps every row's sum and the largest sum of each of 256 disjoint
//! row groups; [`half_sums`] for nibbles). The `k`-th largest group maximum
//! ([`kth_largest`]) is the sum of `k` distinct rows, so its lower bound is
//! a proven lower bound on the visit's `k`-th best score: the threshold
//! starts there instead of at the selector's lagging floor. Only rows whose
//! upper bound reaches that threshold are scored exactly, by the tiled
//! kernel's own lookup sequence ([`gathered_sums`] in [`bounded_gather`],
//! [`nibble_sums`] in [`bounded_lut16`]). Both bounds' proofs are on
//! [`byte_sums`], carried to half sums on [`half_sums`]: the sink receives
//! exactly the tiled kernel's `(position, score)` pairs above a threshold
//! nothing in the top-k is below.
//!
//! # Layout and summation order
//!
//! As in [`super::avx2`], the exact kernels are **vertical**: lane `l` of
//! an accumulator owns vector `j + l`, subquantizers are walked in
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
//! each. Every other row width runs the AVX2 kernel (`Kernel::select`'s
//! choice, see [`super::Kernel`]). A seeded visit's candidates are
//! scattered, so [`bounded_lut16`] gathers each one's dwords instead.
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
//! shifts the bytes already summed out of it ([`gathered_sums`], which
//! also scores a seeded visit's candidates from their row offsets). Either
//! way only the table lookups remain gathers. Rows shorter than a dword
//! (`m < 4`) stay on the blocked kernel.
//!
//! The byte-sum pass loads a 64-row chunk as `4·ND` plain 64-byte
//! registers and transposes it in registers (see [`byte_sums`]); the
//! nibble pass reads the same registers row-major, untransposed (see
//! [`half_sums`]).
//!
//! # The group loop
//!
//! A seeded visit serves up to four queries ([`super::GROUP`]) in its sum
//! pass only: nothing about a chunk's row loads, its transpose or its
//! nibble indices depends on the query, so they are done once for the
//! group, whose lookups then read their own u8 images — per 64 nibble rows
//! of 8 bytes, 8 loads and 24 index operations for the group beside 16
//! permutes, 8 averages and 8 `vpsadbw` per query. The group is sized by
//! the register budget: four 16-entry images are 16 of the 32 ZMM
//! registers, and a fifth query would spill. The exact steps are not
//! grouped: they touch a few percent of rows, and their gathers are bound
//! by the load ports, which the queries would share rather than split. The
//! tiled kernels score one query per pass.
//!
//! # No scalar tail
//!
//! Every load, gather, store and compare is under a lane mask (the sum
//! passes load a full chunk unmasked). A full chunk runs with all-ones
//! masks; the last chunk of a block masks off the lanes past `count`
//! (masked-off lanes are neither read nor written — fault suppression is
//! architectural), so a kernel always finishes the block.
//!
//! # Sinks
//!
//! The LUT16 and gather kernels end in `finish_group!`; a seeded visit's
//! exact scores go straight to its survivors step, `keep_passing!`. The
//! tile sink is a masked store per accumulator. The survivors sink does not branch on its outcome: it
//! compares the finished sums with the broadcast threshold straight into a
//! mask register (`vcmpps k, GE_OQ`: ordered, so NaN never passes),
//! compresses the passing scores and their positions in registers
//! (`vcompressps` / `vpcompressd`, which keep lane order, so positions
//! ascend), stores both full width at the survivor count and advances the
//! count by `popcnt` of the mask. The lanes stored above the survivors are
//! junk the next group's store overwrites; since the count never passes
//! the block's `count`, a survivors buffer needs `count + SINK_SLACK`
//! slots (sixteen lanes of slack), which the safe wrapper asserts.

use super::{Sink, SEED_GROUPS};

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
            let positions = _mm512_add_epi32(f.lane, _mm512_set1_epi32(at as i32));
            keep_passing!(
                f.written,
                f.vthreshold,
                sum,
                in_block,
                positions,
                f.out.as_mut_ptr(),
                f.positions.as_mut_ptr()
            );
        }
    }};
}

/// The survivors sink's step for sixteen finished scores `$sum` at block
/// positions `$positions`, of which the lanes under `$in_block` count:
/// the scores `>= $vthreshold` and their positions are compressed in
/// registers and stored full width at `$written` in `$scores` /
/// `$ids`, and `$written` advances by how many passed. No branch on the
/// outcome: the lanes above the survivors are junk the next store (or
/// nothing) overwrites. `$written` trails the lanes scored so far and never
/// passes the block's `count`, so the store ends inside the `count +
/// SINK_SLACK` slots the caller promised.
macro_rules! keep_passing {
    ($written:expr, $vthreshold:expr, $sum:expr, $in_block:expr, $positions:expr, $scores:expr, $ids:expr) => {{
        let sum: __m512 = $sum;
        let passing = _mm512_mask_cmp_ps_mask::<_CMP_GE_OQ>($in_block, sum, $vthreshold);
        _mm512_storeu_ps(
            $scores.add($written),
            _mm512_maskz_compress_ps(passing, sum),
        );
        _mm512_storeu_si512(
            $ids.add($written).cast(),
            _mm512_maskz_compress_epi32(passing, $positions),
        );
        $written += passing.count_ones() as usize;
    }};
}

/// Adds table `$i`'s entries for byte `$p` of each lane's `$dword` (under
/// `$mask`) into `$acc`: one `vgatherdps` per sixteen lookups.
macro_rules! add_lookup {
    ($acc:expr, $mask:expr, $dword:expr, $p:literal, $entries:expr, $i:expr) => {{
        let code = _mm512_and_si512(
            _mm512_srli_epi32::<{ 8 * $p }>($dword),
            _mm512_set1_epi32(0xFF),
        );
        let table = $entries.as_ptr().add($i * KSTAR_U8);
        let entry = _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), $mask, code, table);
        $acc = _mm512_add_ps($acc, entry);
    }};
}

/// The register-resident LUT16 loop over rows of `ND` whole dwords;
/// `bytes` is the full packed row-major code stream, `table` holds the `m`
/// tables of 16 and `bias` is added last. Returns `(count, scores the sink
/// received)`; the kernel never leaves a tail.
///
/// # Safety
///
/// The caller must ensure the host supports `avx512f` and `popcnt`, that
/// the row width is exactly `4 * ND` bytes (so `m <= 8 * ND`), that
/// `(start + count) * 4 * ND <= bytes.len()`, that `table` holds `m`
/// tables of 16, that a tile sink holds `count` elements and that a
/// survivors sink's slices hold `count + SINK_SLACK`.
#[target_feature(enable = "avx512f,popcnt")]
pub(super) unsafe fn lut16_kernel<const ND: usize>(
    m: usize,
    bytes: &[u8],
    start: usize,
    count: usize,
    table: &[f32],
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

        // The `ND` row dwords of the sixteen lanes of each group; lanes
        // past `live[g]` read nothing and hold code 0.
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

        let acc = nibble_sums::<ND, 4>(m, &rows, table);
        for (g, acc) in acc.into_iter().enumerate() {
            finish_group!(&mut finish, acc, j + 16 * g, live[g]);
        }
        j += CHUNK;
    }
    (count, finish.written)
}

/// The scores, less bias, of `G` lane groups of sixteen rows of `m`
/// nibble codes, group `g`'s held as `ND` de-interleaved dwords (`rows[g][d]`
/// is dword `d` of every lane's row): subquantizer `8d + p` is nibble `p`
/// of dword `d` (low nibble first, matching `PackedCodes`), looked up in
/// table `i = 8d + p` of `table` — one `vpermps` per sixteen lookups — and
/// added in `i = 0..m` order, each subquantizer into every group's
/// accumulator before the next. The permute reads bits 3:0 of each index
/// lane and ignores the rest, so the shifted dword already is the index.
///
/// # Safety
///
/// `avx512f`; `m <= 8 * ND` and `table` holds `m` tables of 16.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn nibble_sums<const ND: usize, const G: usize>(
    m: usize,
    rows: &[[__m512i; ND]; G],
    table: &[f32],
) -> [__m512; G] {
    use arch::*;

    let mut acc = [_mm512_setzero_ps(); G];
    for d in 0..ND {
        macro_rules! step {
            ($p:literal) => {
                let i = 8 * d + $p;
                if i < m {
                    let t = _mm512_loadu_ps(table.as_ptr().add(i * 16));
                    for (acc, row) in acc.iter_mut().zip(rows) {
                        let index = _mm512_srli_epi32::<{ 4 * $p }>(row[d]);
                        *acc = _mm512_add_ps(*acc, _mm512_permutexvar_ps(index, t));
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
    acc
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
/// `4 <= m` and `64 * m` fits an `i32`, that `m == 4 * ND` unless `ND` is
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

        let acc = if ND > 0 {
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
            let mut acc = [_mm512_setzero_ps(); 4];
            for (g, rows) in rows.iter().enumerate() {
                for (d, &dword) in rows.iter().enumerate().take(ND) {
                    add_lookup!(acc[g], masks[g], dword, 0, entries, 4 * d);
                    add_lookup!(acc[g], masks[g], dword, 1, entries, 4 * d + 1);
                    add_lookup!(acc[g], masks[g], dword, 2, entries, 4 * d + 2);
                    add_lookup!(acc[g], masks[g], dword, 3, entries, 4 * d + 3);
                }
            }
            acc
        } else {
            let offsets = std::array::from_fn(|g| {
                _mm512_add_epi32(row_offset, _mm512_set1_epi32((16 * g * m) as i32))
            });
            gathered_sums::<4>(m, chunk, offsets, masks, entries)
        };

        for (g, acc) in acc.into_iter().enumerate() {
            finish_group!(&mut finish, acc, j + 16 * g, live[g]);
        }
        j += CHUNK;
    }
    (count, finish.written)
}

/// The scores, less bias, of `G` lane groups of rows of `m >= 4` byte
/// codes, group `g`'s rows at byte offsets `offsets[g]` from `base` (only
/// the lanes under `masks[g]` are read): per four subquantizers one
/// `vpgatherdd` fetches the same code dword of sixteen rows, and table
/// entries are gathered and added in `i = 0..m` order. When `m` is not a
/// multiple of four, the last fetch takes the dword that ends at the row's
/// last byte — still inside the row — and shifts the bytes already summed
/// out of it.
///
/// # Safety
///
/// `avx512f`; every row a live lane names lies inside one allocation, and
/// `entries` holds `m` tables of 256.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn gathered_sums<const G: usize>(
    m: usize,
    base: *const u8,
    offsets: [__m512i; G],
    masks: [u16; G],
    entries: &[f32],
) -> [__m512; G] {
    use arch::*;

    let mut acc = [_mm512_setzero_ps(); G];
    // Subquantizers `first .. first + 4` per gathered code dword.
    let mut first = 0;
    while first < m {
        // Past the last whole dword, fetch the one ending at the row's last
        // byte and shift out the bytes already summed.
        let at = first.min(m - 4);
        let summed = _mm512_set1_epi32(8 * (first - at) as i32);
        let codes: [__m512i; G] = std::array::from_fn(|g| {
            let p = base.wrapping_add(at) as *const i32;
            let dword =
                _mm512_mask_i32gather_epi32::<1>(_mm512_setzero_si512(), masks[g], offsets[g], p);
            _mm512_srlv_epi32(dword, summed)
        });
        macro_rules! step {
            ($p:literal) => {
                let i = first + $p;
                if i < m {
                    for g in 0..G {
                        add_lookup!(acc[g], masks[g], codes[g], $p, entries, i);
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
    acc
}

/// Most tables an image holds: byte codes in rows of at most four dwords,
/// nibble codes in rows of at most two.
pub(super) const BOUND_TABLES: usize = 16;

/// Bytes of the u8 image of a 16-entry LUT: sixteen tables of sixteen,
/// whatever `m` — the tables of the subquantizers a row does not have
/// are zero.
const NIBBLE_IMAGE: usize = BOUND_TABLES * 16;

/// Where table `i` of `KSTAR` entries starts in a u8 image: table after
/// table for `k* = 256`; for `k* = 16`, the tables of the even (low-nibble)
/// subquantizers in the image's first 128 bytes and those of the odd
/// (high-nibble) ones in the last 128, so that byte `b` of a row looks both
/// of its nibbles up at `16·b` in one half ([`half_sums`]).
const fn image_table<const KSTAR: usize>(i: usize) -> usize {
    if KSTAR == 16 {
        128 * (i % 2) + 16 * (i / 2)
    } else {
        i * KSTAR
    }
}

/// The u8 image of a LUT's `m` tables of `KSTAR` entries (256 or 16; see
/// [`byte_sums`]): entry `v` of table `i` becomes `q = min(255, ⌊(e − lo_i)
/// · (1/s)⌋)`, all three operations rounded in f32, where `lo_i` is table
/// `i`'s least entry and `s = fl(max_i fl(hi_i − lo_i) / 255)` is one scale
/// shared by every table, so that the bytes of different tables add.
/// Writes table `i` at [`image_table`]`(i)` of `tables` (a 16-entry image
/// is [`NIBBLE_IMAGE`] bytes, zero past table `m`) and returns `(s, Σ lo_i,
/// Σ max_v |e_iv|)`, the sums in f64; returns `None` — and the scan keeps
/// its plain kernel — when an entry is NaN or infinite or every table is
/// constant (`s` would be 0 or subnormal).
///
/// # Safety
///
/// `avx512f` and `avx512bw`; `KSTAR` is 16 or 256, `m <= BOUND_TABLES`,
/// `entries` holds `m` tables of `KSTAR` and `tables` the image's `m · 256`
/// bytes (`k* = 256`) or [`NIBBLE_IMAGE`] (`k* = 16`).
#[target_feature(enable = "avx512f,avx512bw")]
pub(super) unsafe fn quantise<const KSTAR: usize>(
    m: usize,
    entries: &[f32],
    tables: &mut [u8],
) -> Option<(f32, f64, f64)> {
    use arch::*;

    let mut lo = [0.0f32; BOUND_TABLES];
    let (mut range, mut floor, mut magnitude) = (0.0f32, 0.0f64, 0.0f64);
    let infinity = _mm512_set1_ps(f32::INFINITY);
    for (i, lo) in lo.iter_mut().enumerate().take(m) {
        // The table's `n` registers (one at `k* = 16`), the rest of the
        // array unused.
        let (table, n) = (entries.as_ptr().add(i * KSTAR), KSTAR / 16);
        let v: [__m512; 16] = std::array::from_fn(|c| _mm512_loadu_ps(table.add(16 * (c % n))));
        // Ordered: NaN fails, and so does ±inf.
        let finite = v[..n].iter().fold(u16::MAX, |finite, &v| {
            finite & _mm512_cmp_ps_mask::<_CMP_LT_OQ>(_mm512_abs_ps(v), infinity)
        });
        if finite != u16::MAX {
            return None;
        }
        // Pairwise, so the reduction is four dependent steps, not sixteen.
        macro_rules! tree {
            ($reduce:ident) => {{
                let mut v = v;
                let mut n = n;
                while n > 1 {
                    n /= 2;
                    for k in 0..n {
                        v[k] = $reduce(v[k], v[k + n]);
                    }
                }
                v[0]
            }};
        }
        let least = _mm512_reduce_min_ps(tree!(_mm512_min_ps));
        let most = _mm512_reduce_max_ps(tree!(_mm512_max_ps));
        *lo = least;
        range = range.max(most - least);
        floor += f64::from(least);
        magnitude += f64::from(least.abs().max(most.abs()));
    }
    let scale = range / 255.0;
    if scale < f32::MIN_POSITIVE {
        return None;
    }
    let inverse = _mm512_set1_ps(1.0 / scale);
    let top = _mm512_set1_ps(255.0);
    let quantised = |v: __m512, lo: __m512| {
        // `v >= lo`, so the product is `>= 0` and truncation floors it.
        let t = _mm512_mul_ps(_mm512_sub_ps(v, lo), inverse);
        _mm512_cvttps_epi32(_mm512_min_ps(t, top))
    };
    if KSTAR == 16 {
        tables[..NIBBLE_IMAGE].fill(0);
    }
    // `vpackus*` pack per 128-bit lane: this puts the packed dwords of
    // sixty-four entries back in entry order.
    let order = _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
    for (i, &lo) in lo.iter().enumerate().take(m) {
        let (table, out) = (
            entries.as_ptr().add(i * KSTAR),
            tables.as_mut_ptr().add(image_table::<KSTAR>(i)),
        );
        let lo = _mm512_set1_ps(lo);
        if KSTAR == 16 {
            let q = quantised(_mm512_loadu_ps(table), lo);
            _mm_storeu_si128(out.cast(), _mm512_cvtepi32_epi8(q));
            continue;
        }
        for c in 0..KSTAR / 64 {
            let q: [__m512i; 4] =
                std::array::from_fn(|k| quantised(_mm512_loadu_ps(table.add(64 * c + 16 * k)), lo));
            let words = (
                _mm512_packus_epi32(q[0], q[1]),
                _mm512_packus_epi32(q[2], q[3]),
            );
            let bytes = _mm512_packus_epi16(words.0, words.1);
            _mm512_storeu_si512(
                out.add(64 * c).cast(),
                _mm512_permutexvar_epi32(order, bytes),
            );
        }
    }
    Some((scale, floor, magnitude))
}

/// Where each row of a 64-row chunk lands among the 64 byte lanes of the
/// byte-sum pass's transposed registers, for rows of `nd` dwords (2 or 4):
/// `row_lanes(nd)[r]` is row `r`'s lane. The transpose (see
/// [`byte_sums`]) moves row bits 5, 4, 3 — which input register half a
/// row sits in — to lane bits 0, 1, 2, and the row's place inside its
/// register to lane bits 3–5.
const fn row_lanes(nd: usize) -> [u8; 64] {
    let mut lanes = [0u8; 64];
    let mut r = 0;
    while r < 64 {
        let high = ((r >> 5) & 1) | ((r >> 3) & 2) | ((r >> 1) & 4);
        let low = if nd == 4 {
            ((r & 1) << 4) | ((r & 2) << 4) | ((r & 4) << 1)
        } else {
            ((r & 1) << 3) | ((r & 2) << 3) | ((r & 4) << 3)
        };
        lanes[r] = (high | low) as u8;
        r += 1;
    }
    lanes
}

/// The inverse of [`row_lanes`]: `lane_rows(nd)[l]` is the row in lane `l`.
const fn lane_rows(nd: usize) -> [u8; 64] {
    let lanes = row_lanes(nd);
    let mut rows = [0u8; 64];
    let mut r = 0;
    while r < 64 {
        rows[lanes[r] as usize] = r as u8;
        r += 1;
    }
    rows
}

/// [`lane_rows`] for 8-byte rows, then for 16-byte rows.
const LANE_ROWS: [[u8; 64]; 2] = [lane_rows(2), lane_rows(4)];

/// The sum slot of each row of a 64-row chunk after [`byte_sums`] over
/// rows of `nd` dwords: lane `l`'s sum is stored in slot `l / 2` (an even
/// lane) or `32 + l / 2` (an odd one).
const fn byte_slots(nd: usize) -> [u8; 64] {
    let lanes = row_lanes(nd);
    let mut slots = [0u8; 64];
    let mut r = 0;
    while r < 64 {
        let lane = lanes[r];
        slots[r] = lane / 2 + 32 * (lane % 2);
        r += 1;
    }
    slots
}

/// The sum slot of each row of a 64-row chunk after [`half_sums`] over
/// rows of `nd` dwords (1 or 2). A register holds `16 / nd` rows, a half
/// chunk `32 / per_reg` registers, and register `a` of half `h` leaves row
/// `b` of its own in word `(32 / per_reg)·b + a` of that half's sums.
const fn nibble_slots(nd: usize) -> [u8; 64] {
    let per_reg = 16 / nd;
    let mut slots = [0u8; 64];
    let mut r = 0;
    while r < 64 {
        let (h, a, b) = (r / 32, (r % 32) / per_reg, r % per_reg);
        slots[r] = (32 * h + (32 / per_reg) * b + a) as u8;
        r += 1;
    }
    slots
}

/// The inverse of a slot table: the row in each slot.
const fn slot_rows(slots: [u8; 64]) -> [u8; 64] {
    let mut rows = [0u8; 64];
    let mut r = 0;
    while r < 64 {
        rows[slots[r] as usize] = r as u8;
        r += 1;
    }
    rows
}

/// [`byte_slots`] for 8-byte rows, then for 16-byte rows.
pub(super) const BYTE_SLOTS: [[u8; 64]; 2] = [byte_slots(2), byte_slots(4)];

/// [`nibble_slots`] for 4-byte rows, then for 8-byte rows.
pub(super) const NIBBLE_SLOTS: [[u8; 64]; 2] = [nibble_slots(1), nibble_slots(2)];

/// The rows in [`NIBBLE_SLOTS`]' slots.
const NIBBLE_ROWS: [[u8; 64]; 2] = [slot_rows(NIBBLE_SLOTS[0]), slot_rows(NIBBLE_SLOTS[1])];

/// The byte-sum pass of a seeded `k* = 256` visit over rows of `ND` whole
/// dwords (`m = 4·ND`, `ND` 2 or 4), for a group of `Q` visitors (one to
/// four): the u16 byte sum of every row in `[start, start + count)` against
/// visitor `q`'s u8 image `tables[q]` ([`quantise`]), written to
/// `sums[q]`, and the largest sum of each of [`SEED_GROUPS`] disjoint
/// groups of those rows, per visitor. Chunk `c` (rows `64c .. 64c + 64` of
/// the block) leaves its sums at `sums[q][64c .. 64c + 64]` in lane order
/// — the 32 even byte lanes, then the 32 odd ones, so row `r` of the chunk
/// is in slot [`BYTE_SLOTS`]`[ND / 4][r]` — and group `64·(c mod 4) + w` holds
/// the rows of sum slot `w` of every chunk `c` with that residue. Only
/// rows inside the block enter a maximum (a group with none keeps 0).
/// Which group a row is in does not matter to the seed, only that the
/// groups are disjoint: the `k`-th largest maximum is the sum of `k`
/// distinct rows, each at least it.
///
/// # The pass
///
/// Per 64-row chunk, the `4·ND` 64-byte registers of rows are transposed
/// in registers by a four-stage `vpunpck{lbw,lwd,ldq,lqdq}` network (stage
/// `w` pairs register `k` with register `k + 2ND` into outputs `2k` and
/// `2k + 1`), after which register `i` holds byte `i` of all 64 rows —
/// subquantizer `i`'s codes. The loads and the transpose are the same for
/// every visitor, so they are done once for the group: `16·ND` shuffles
/// per chunk, twice one visitor's `8·ND` table permutes. Each code is then
/// looked up in each visitor's table of 256 bytes, held in four
/// registers: two `vpermi2b` read the low and high 128 entries and
/// `vpmovb2m` of the code (its bit 7, once for the group) blends them. The
/// bytes are summed into 16-bit lanes without a mask: one accumulator adds
/// whole words (`even + 256·odd`), the other the odd bytes alone, and the
/// even sums are the difference; `m · 255 <= 4080` fits either. A
/// visitor's two sum registers are stored as they are and folded into its
/// chunk residue's maxima by a `vpmaxuw` under the mask of lanes whose row
/// is in the block (rows past `count` read nothing and hold code 0, whose
/// sum is no row's).
///
/// # Why the upper bound is exact
///
/// Write `e_i` for row `r`'s entry in table `i`, `q_i` for its byte, `Q =
/// Σ q_i`, `A = Σ_i max_v |e_iv|`, `b` the bias, `u = 2^-24`. Four steps
/// take the f32 score `S = fl(fl(Σ e_i) + b)`, summed in `i = 0..m` order,
/// to a test on `Q` alone (the scan layer's `ByteBound::min_sum`).
///
/// 1. **Quantisation floor.** `q = min(255, ⌊t⌋)` with `t = fl(fl(e − lo)
///    · fl(1/s))`, each rounding relative at most `u` (a product below
///    `2^-126` errs by at most `2^-149` absolute, which the slack below
///    covers too), so `(e − lo)/s <= t(1 + 4u)`. Unclamped, `t < q + 1 <=
///    256`; clamped, `e − lo <= hi − lo <= 255·s·(1 + 2u)`. Either way
///    `e_i <= lo_i + s·(q_i + 1 + 2^-14)`, and summed over the tables,
///    `Σ e_i <= Σ lo_i + s·(Q + m) + m·s·2^-14`.
/// 2. **f32 summation error.** The sequential sum of `m` finite terms
///    (nothing overflows: `A + |b| < 2^120`) is within `γ_{m−1}·Σ|e_i| <=
///    (m − 1)·u·(1 + 2mu)·A` of the real sum (subnormal sums are exact).
/// 3. **Bias addition.** `fl(x + b) <= (x + b) + u·|x + b|`, and
///    `|x + b| <= A(1 + 2mu) + |b|`. With step 2, the score is at most
///    `Σ e_i + b + (m + 1)·2^-23·(A + |b|)`.
/// 4. **`>=` at the threshold.** Let `slack` be `m·s·2^-14 + (m +
///    1)·2^-23·(A + |b|) + 2^-40·(|T| + A + |b|)` and `x = (T − Σ lo_i −
///    b − slack)/s − m`. Computed in f64, the subtraction errs by a few
///    `2^-53·(|T| + A + |b|)`, which the slack's last term exceeds; the
///    division and `− m` err by far less than one step wherever `x` is
///    below `2^16` (beyond it, every row's bound is below `T`, and
///    `min_sum` saturates at `u16::MAX`), and `min_sum = ⌊x⌋ − 1`
///    absorbs that. So a rejected row, `Q <= min_sum − 1`, has `Q <= x −
///    1` for the exact `x`, and by steps 1–3 its score is at most
///    `Σ lo_i + b + s·(x − 1 + m) + slack = T − s < T`: strictly below,
///    so a score *equal* to the threshold is never rejected and ties are
///    still offered. A finite threshold is required (`-inf` keeps every
///    row).
///
/// # Why the lower bound is exact
///
/// The same quantities bound a score from below by its byte sum (the scan
/// layer's `ByteBound::lower`), with the same slack terms.
///
/// 1. **Quantisation floor.** `q <= t` (the clamp and the truncation only
///    lower it), and `t <= (e − lo)/s · (1 + u)^3 + 2^-149`, so `e − lo >=
///    s·(q − 2^-149)·(1 − 3u) >= s·q − s·(765u + 2^-149) >= s·(q −
///    2^-14)`, and summed over the tables, `Σ e_i >= Σ lo_i + s·Q −
///    m·s·2^-14`.
/// 2. **Rounding.** Steps 2 and 3 above bound the summation and bias
///    errors in both directions: the score is at least `Σ e_i + b − (m +
///    1)·2^-23·(A + |b|)`.
/// 3. **The bound.** So `S >= R(Q) = Σ lo_i + b + s·Q − m·s·2^-14 − (m +
///    1)·2^-23·(A + |b|)`, and `R` rises with `Q`. `lower(Q)` evaluates
///    `R(Q) − 2^-40·(s·Q + A + |b|)` in f64 — the last term exceeds the
///    few `2^-53·(s·Q + A + |b|)` that evaluation errs by — and rounds it
///    toward `−∞` to an f32, so `lower(Q) <= R(Q)`.
///
/// Hence every row whose byte sum is at least `Q` scores at least
/// `lower(Q)`; with `Q` the `k`-th largest group maximum, `k` distinct
/// rows do, so the visit's `k`-th best score is at least `lower(Q)`.
///
/// # Safety
///
/// The caller must ensure the host supports `avx512f`, `avx512bw` and
/// `avx512vbmi`; that `ND` is 2 or 4 and rows are `m = 4 * ND` bytes; that
/// `(start + count) * m <= bytes.len()`; that each of `tables` holds the
/// `m · 256` bytes of an image; and that each of `sums` holds `count` rounded up to
/// a whole chunk.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
pub(super) unsafe fn byte_sums<const ND: usize, const Q: usize>(
    bytes: &[u8],
    start: usize,
    count: usize,
    tables: [&[u8]; Q],
    sums: [&mut [u16]; Q],
) -> [[u16; SEED_GROUPS]; Q] {
    use arch::*;

    // Row bytes, input registers per chunk, and rows per register.
    let (m, regs) = (4 * ND, 4 * ND);
    let per_reg = 16 / ND;
    let lane_rows = _mm512_loadu_si512(LANE_ROWS[ND / 4].as_ptr().cast());
    let (even_lanes, odd_lanes) = (_mm512_set1_epi16(0x00FF), _mm512_set1_epi16(-0x100));
    // Per visitor and chunk residue, the even lanes' maxima and the odd
    // lanes'.
    let mut maxima = [[[_mm512_setzero_si512(); 2]; 4]; Q];

    let mut j = 0;
    while j < count {
        let left = count - j;
        let chunk = bytes.as_ptr().wrapping_add((start + j) * m);
        let load = |r: usize| {
            let p = chunk.wrapping_add(64 * r);
            if left >= CHUNK {
                _mm512_loadu_si512(p.cast())
            } else {
                // One mask bit per live dword: `ND` per live row; rows past
                // the block read nothing and hold code 0.
                let live = left.saturating_sub(r * per_reg).min(per_reg);
                _mm512_maskz_loadu_epi32(((1u32 << (ND * live)) - 1) as u16, p.cast())
            }
        };
        // The first stage of the transpose reads the rows straight from
        // memory (a loop of loads into an array compiles to a `memcpy`).
        let mut x = [_mm512_setzero_si512(); 16];
        for k in 0..regs / 2 {
            let (a, b) = (load(k), load(k + regs / 2));
            x[2 * k] = _mm512_unpacklo_epi8(a, b);
            x[2 * k + 1] = _mm512_unpackhi_epi8(a, b);
        }
        macro_rules! stage {
            ($lo:ident, $hi:ident) => {{
                let y = x;
                for k in 0..regs / 2 {
                    x[2 * k] = $lo(y[k], y[k + regs / 2]);
                    x[2 * k + 1] = $hi(y[k], y[k + regs / 2]);
                }
            }};
        }
        stage!(_mm512_unpacklo_epi16, _mm512_unpackhi_epi16);
        stage!(_mm512_unpacklo_epi32, _mm512_unpackhi_epi32);
        stage!(_mm512_unpacklo_epi64, _mm512_unpackhi_epi64);

        let (mut words, mut odd) = ([_mm512_setzero_si512(); Q], [_mm512_setzero_si512(); Q]);
        for (i, &codes) in x.iter().enumerate().take(regs) {
            let high_half = _mm512_movepi8_mask(codes);
            for q in 0..Q {
                let t = tables[q].as_ptr().add(i * KSTAR_U8).cast::<__m512i>();
                let low = _mm512_permutex2var_epi8(
                    _mm512_loadu_si512(t),
                    codes,
                    _mm512_loadu_si512(t.add(1)),
                );
                let high = _mm512_permutex2var_epi8(
                    _mm512_loadu_si512(t.add(2)),
                    codes,
                    _mm512_loadu_si512(t.add(3)),
                );
                let byte = _mm512_mask_blend_epi8(high_half, low, high);
                words[q] = _mm512_add_epi16(words[q], byte);
                odd[q] = _mm512_add_epi16(odd[q], _mm512_srli_epi16::<8>(byte));
            }
        }

        // The byte lanes whose row is in the block (`left.min(CHUNK)` fits
        // an `i8`), as even and odd sum lanes.
        let live = _mm512_movm_epi8(_mm512_cmplt_epu8_mask(
            lane_rows,
            _mm512_set1_epi8(left.min(CHUNK) as i8),
        ));
        let live = [
            _mm512_test_epi16_mask(live, even_lanes),
            _mm512_test_epi16_mask(live, odd_lanes),
        ];
        for q in 0..Q {
            let halves = [
                _mm512_sub_epi16(words[q], _mm512_slli_epi16::<8>(odd[q])),
                odd[q],
            ];
            let group = &mut maxima[q][(j / CHUNK) % 4];
            for h in 0..2 {
                _mm512_storeu_si512(sums[q].as_mut_ptr().add(j + 32 * h).cast(), halves[h]);
                group[h] = _mm512_mask_max_epu16(group[h], live[h], group[h], halves[h]);
            }
        }
        j += CHUNK;
    }

    let mut out = [[0u16; SEED_GROUPS]; Q];
    for (out, maxima) in out.iter_mut().zip(maxima) {
        for (at, group) in out.chunks_exact_mut(CHUNK).zip(maxima) {
            _mm512_storeu_si512(at.as_mut_ptr().cast(), group[0]);
            _mm512_storeu_si512(at.as_mut_ptr().add(32).cast(), group[1]);
        }
    }
    out
}

/// The byte-sum pass of a seeded `k* = 16` visit over rows of `ND` whole
/// dwords of nibble codes (`ND` 1 or 2: 4- and 8-byte rows), for a group
/// of `Q` visitors (one to four): the u16 **half sum** of every row in
/// `[start, start + count)` against visitor `q`'s u8 image `tables[q]`
/// ([`quantise`]`::<16>`), written to `sums[q]`, and the largest half sum
/// of each of [`SEED_GROUPS`] disjoint groups of those rows, per visitor.
/// Chunk `c` (rows `64c .. 64c + 64` of the block) leaves its half sums at
/// `sums[q][64c .. 64c + 64]`, row `r` of the chunk in slot
/// [`NIBBLE_SLOTS`]`[ND − 1][r]`, and group `64·(c mod 4) + w` holds the
/// rows of slot `w` of every chunk `c` with that residue, as in
/// [`byte_sums`]. Only rows inside the block enter a maximum (a group with
/// none keeps 0).
///
/// # The pass
///
/// No transpose: each 64-byte register of rows is read row-major. Byte `b`
/// of a row holds the nibbles of subquantizers `2b` (low) and `2b + 1`
/// (high); one `vpternlogd` per nibble makes the index `16·b + nibble`
/// ([`image_table`] puts table `2b` at `16·b` of the image's first half
/// and table `2b + 1` at `16·b` of its second), once for the group. Each
/// visitor then looks both indices up in its own image — one `vpermb` per
/// half for 4-byte rows (a half's 64 bytes hold its four tables), one
/// `vpermi2b` over two registers for 8-byte rows — and averages the two
/// bytes, rounding up (`vpavgb`). One `vpsadbw` per register sums each
/// 8-byte row's eight averages into a qword; for 4-byte rows `vpmaddubsw`
/// and `vpmaddwd` sum each row's four into a dword. The qwords (dwords) of
/// a half chunk's registers are shifted into the 16-bit lanes of one
/// register of 32 sums, stored as they are, and folded into the chunk
/// residue's maxima by a `vpmaxuw` under the mask of slots whose row is in
/// the block (rows past `count` read nothing and hold code 0, whose sum is
/// no row's).
///
/// # Why half sums keep both bounds
///
/// With `q_i` the row's byte in table `i` (0 for a table past `m`) and `Q =
/// Σ q_i` the byte sum [`byte_sums`]' proofs are about, each of the row's
/// `4·ND` bytes contributes `⌈(q_{2b} + q_{2b+1}) / 2⌉`, which lies in
/// `[(q_{2b} + q_{2b+1}) / 2, (q_{2b} + q_{2b+1} + 1) / 2]`. So a row's
/// half sum `H` satisfies `2H − 4·ND <= Q <= 2H`. A row is rejected only
/// when `2H` is below the least byte sum that can reach the threshold,
/// and then `Q` is too: the upper bound holds. `k` distinct rows with half
/// sums at least `H*` have `Q >= 2H* − 4·ND`, so the lower bound of that
/// byte sum is a lower bound on their scores: the seed holds. (The scan
/// layer's `ByteBound` makes both conversions.) Averaging in place of a
/// 16-bit add keeps one `vpsadbw` per register and costs at most half a
/// step per byte.
///
/// # Safety
///
/// The caller must ensure the host supports `avx512f`, `avx512bw` and
/// `avx512vbmi`; that `ND` is 1 or 2 and rows are `4 * ND` bytes; that
/// `(start + count) * 4 * ND <= bytes.len()`; that each of `tables` holds
/// the [`NIBBLE_IMAGE`] bytes of an image; and that each of `sums` holds
/// `count` rounded up to a whole chunk.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
pub(super) unsafe fn half_sums<const ND: usize, const Q: usize>(
    bytes: &[u8],
    start: usize,
    count: usize,
    tables: [&[u8]; Q],
    sums: [&mut [u16]; Q],
) -> [[u16; SEED_GROUPS]; Q] {
    use arch::*;

    let vb = 4 * ND;
    // Rows per register, and registers per half chunk.
    let per_reg = 16 / ND;
    let regs = 2 * ND;
    let nibble = _mm512_set1_epi8(0x0F);
    // Byte lane `l` holds byte `l mod vb` of its row, whose tables start at
    // `16 · (l mod vb)` of either half of the image.
    let at_byte: [u8; 64] = std::array::from_fn(|l| (16 * (l % vb)) as u8);
    let at_byte = _mm512_loadu_si512(at_byte.as_ptr().cast());
    let slot_rows = _mm512_loadu_si512(NIBBLE_ROWS[ND - 1].as_ptr().cast());
    let (ones8, ones16) = (_mm512_set1_epi8(1), _mm512_set1_epi16(1));
    // Per visitor, its image's low-nibble half and high-nibble half, two
    // registers each (the second unread for 4-byte rows).
    let images: [[__m512i; 4]; Q] = std::array::from_fn(|q| {
        std::array::from_fn(|r| _mm512_loadu_si512(tables[q].as_ptr().add(64 * r).cast()))
    });
    // Per visitor and chunk residue, each half chunk's maxima.
    let mut maxima = [[[_mm512_setzero_si512(); 2]; 4]; Q];

    let mut j = 0;
    while j < count {
        let left = count - j;
        let chunk = bytes.as_ptr().wrapping_add((start + j) * vb);
        // The slots whose row is in the block (`left.min(CHUNK)` fits an
        // `i8`).
        let live = _mm512_cmplt_epu8_mask(slot_rows, _mm512_set1_epi8(left.min(CHUNK) as i8));
        for (h, in_block) in [live as u32, (live >> 32) as u32].into_iter().enumerate() {
            let mut packed = [_mm512_setzero_si512(); Q];
            for a in 0..regs {
                let reg = h * regs + a;
                let p = chunk.wrapping_add(64 * reg);
                let x = if left >= CHUNK {
                    _mm512_loadu_si512(p.cast())
                } else {
                    // One mask bit per live dword: `ND` per live row; rows
                    // past the block read nothing and hold code 0.
                    let live = left.saturating_sub(reg * per_reg).min(per_reg);
                    _mm512_maskz_loadu_epi32(((1u32 << (ND * live)) - 1) as u16, p.cast())
                };
                // `(x & 0x0F) | at_byte`, for each nibble.
                let low = _mm512_ternarylogic_epi32::<0xEA>(x, nibble, at_byte);
                let high =
                    _mm512_ternarylogic_epi32::<0xEA>(_mm512_srli_epi16::<4>(x), nibble, at_byte);
                for q in 0..Q {
                    let image = &images[q];
                    let averages = if ND == 1 {
                        _mm512_avg_epu8(
                            _mm512_permutexvar_epi8(low, image[0]),
                            _mm512_permutexvar_epi8(high, image[2]),
                        )
                    } else {
                        _mm512_avg_epu8(
                            _mm512_permutex2var_epi8(image[0], low, image[1]),
                            _mm512_permutex2var_epi8(image[2], high, image[3]),
                        )
                    };
                    // Row `b` of the register's half sum, in the low word of
                    // its qword (its dword), shifted to word `a` of it.
                    let row_sums = if ND == 1 {
                        let s = _mm512_madd_epi16(_mm512_maddubs_epi16(averages, ones8), ones16);
                        match a {
                            0 => s,
                            _ => _mm512_slli_epi32::<16>(s),
                        }
                    } else {
                        let s = _mm512_sad_epu8(averages, _mm512_setzero_si512());
                        match a {
                            0 => s,
                            1 => _mm512_slli_epi64::<16>(s),
                            2 => _mm512_slli_epi64::<32>(s),
                            _ => _mm512_slli_epi64::<48>(s),
                        }
                    };
                    packed[q] = _mm512_or_si512(packed[q], row_sums);
                }
            }
            for q in 0..Q {
                _mm512_storeu_si512(sums[q].as_mut_ptr().add(j + 32 * h).cast(), packed[q]);
                let group = &mut maxima[q][(j / CHUNK) % 4][h];
                *group = _mm512_mask_max_epu16(*group, in_block, *group, packed[q]);
            }
        }
        j += CHUNK;
    }

    let mut out = [[0u16; SEED_GROUPS]; Q];
    for (out, maxima) in out.iter_mut().zip(maxima) {
        for (at, group) in out.chunks_exact_mut(CHUNK).zip(maxima) {
            _mm512_storeu_si512(at.as_mut_ptr().cast(), group[0]);
            _mm512_storeu_si512(at.as_mut_ptr().add(32).cast(), group[1]);
        }
    }
    out
}

/// The `k`-th largest of `values` (`1 <= k <= SEED_GROUPS`), each at most
/// `m · 255` for `m <=` [`BOUND_TABLES`]: the largest `v` with at least
/// `k` values `>= v`, found by bisection over `0 ..= 4080` — twelve steps,
/// each one `vpcmpuw` and `popcnt` per 32 values.
///
/// # Safety
///
/// The caller must ensure the host supports `avx512f`, `avx512bw` and
/// `popcnt`.
#[target_feature(enable = "avx512f,avx512bw,popcnt")]
pub(super) unsafe fn kth_largest(values: &[u16; SEED_GROUPS], k: usize) -> u16 {
    use arch::*;

    let v: [__m512i; SEED_GROUPS / 32] =
        std::array::from_fn(|r| _mm512_loadu_si512(values.as_ptr().add(32 * r).cast()));
    // At least `k` values reach `lo`; fewer than `k` reach `hi`.
    let (mut lo, mut hi) = (0u32, (BOUND_TABLES * 255 + 1) as u32);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let vmid = _mm512_set1_epi16(mid as i16);
        let reach: u32 = v
            .iter()
            .map(|&v| _mm512_cmpge_epu16_mask(v, vmid).count_ones())
            .sum();
        if reach as usize >= k {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo as u16
}

/// The candidate step of a seeded visit over a block of `count` rows:
/// compacts into `positions`, in ascending position, every row whose
/// stored sum in `sums` reaches `least` — chunk `c`'s 64 sums at `64c`,
/// row `r` of the chunk in slot `slots[r]` — and returns how many.
///
/// # Safety
///
/// `avx512f`, `avx512bw`, `avx512vbmi` and `popcnt`; `sums` holds `count`
/// rounded up to a whole chunk and `positions` `count + SINK_SLACK` slots.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,popcnt")]
unsafe fn candidates(
    sums: &[u16],
    count: usize,
    least: u16,
    slots: &[u8; 64],
    positions: *mut u32,
) -> usize {
    use arch::*;

    let lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let slots = _mm512_loadu_si512(slots.as_ptr().cast());
    let vleast = _mm512_set1_epi16(least as i16);
    let mut candidates = 0;
    let mut j = 0;
    while j < count {
        let reach = |at: usize| {
            let sums = _mm512_loadu_si512(sums.as_ptr().add(j + at).cast());
            u64::from(_mm512_cmpge_epu16_mask(sums, vleast))
        };
        // One byte per slot, then one per row.
        let reach = _mm512_movm_epi8(reach(0) | reach(32) << 32);
        let in_block = match count - j {
            left @ 0..64 => (1u64 << left) - 1,
            _ => u64::MAX,
        };
        let rows = _mm512_movepi8_mask(_mm512_permutexvar_epi8(slots, reach)) & in_block;
        for g in 0..4 {
            let kept = (rows >> (16 * g)) as u16;
            if kept != 0 {
                let at = _mm512_add_epi32(lane, _mm512_set1_epi32((j + 16 * g) as i32));
                _mm512_storeu_si512(
                    positions.add(candidates).cast(),
                    _mm512_maskz_compress_epi32(kept, at),
                );
                candidates += kept.count_ones() as usize;
            }
        }
        j += CHUNK;
    }
    candidates
}

/// The candidate and exact steps of a seeded `k* = 256` visit, into a
/// survivors sink over `[start, start + count)`: every row whose byte sum
/// in `sums` (as [`byte_sums`] left them) reaches `min_sum` is compacted
/// into the sink's positions slice in ascending position ([`candidates`]),
/// and only those rows are scored exactly — by the gather kernel's own
/// lookup sequence ([`gathered_sums`], `i = 0..m`, bias last), sixteen
/// candidates per gather — and kept if their score reaches the sink's
/// threshold. Returns `(scores the sink received, rows never scored)`. With
/// `min_sum` from the scan layer's `ByteBound::min_sum` of the sink's
/// threshold, a row never scored scores below the threshold ([`byte_sums`]'
/// upper bound), so the sink receives exactly what [`gather_kernel`] would
/// hand it.
///
/// # Candidates in place
///
/// The compaction writes candidate positions into the sink's positions
/// slice and the exact pass reads them back, sixteen at a time, before
/// writing survivors over them: each batch's positions are loaded into a
/// register before its store, and survivors never outnumber the
/// candidates read, so no store reaches a candidate not yet read.
/// [`bounded_lut16`] shares this.
///
/// # Safety
///
/// The caller must ensure the host supports `avx512f`, `avx512bw`,
/// `avx512vbmi` and `popcnt`; that `ND` is 2 or 4 and `m == 4 * ND`; that
/// `(start + count) * m <= bytes.len()` and `count * m` fits an `i32`;
/// that `entries` holds `m` tables of 256; that `sums` holds `count`
/// rounded up to a whole chunk; and that `sink` is a survivors sink whose
/// slices hold `count + SINK_SLACK`.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,popcnt")]
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn bounded_gather<const ND: usize>(
    m: usize,
    bytes: &[u8],
    start: usize,
    count: usize,
    sums: &[u16],
    min_sum: u16,
    entries: &[f32],
    bias: f32,
    sink: &mut Sink<'_>,
) -> (usize, usize) {
    use arch::*;

    let (Some(threshold), scores, positions) = sink.parts() else {
        unreachable!("a seeded visit feeds a survivors sink");
    };
    let (scores, positions) = (scores.as_mut_ptr(), positions.as_mut_ptr());
    let candidates = candidates(sums, count, min_sum, &BYTE_SLOTS[ND / 4], positions);

    // The exact pass over the candidates, sixteen at a time: a gather
    // costs about the same for any number of live lanes, so the visit's
    // candidates are batched rather than scored per chunk.
    let base = bytes.as_ptr().add(start * m);
    let (vbias, vthreshold) = (_mm512_set1_ps(bias), _mm512_set1_ps(threshold));
    let row_bytes = _mm512_set1_epi32(m as i32);
    let mut written = 0;
    let mut c = 0;
    while c < candidates {
        let live = lane_mask((candidates - c).min(16));
        let at = _mm512_maskz_loadu_epi32(live, positions.add(c).cast());
        let offsets = [_mm512_mullo_epi32(at, row_bytes)];
        let [acc] = gathered_sums::<1>(m, base, offsets, [live], entries);
        let sum = _mm512_add_ps(acc, vbias);
        keep_passing!(written, vthreshold, sum, live, at, scores, positions);
        c += 16;
    }
    (written, count - candidates)
}

/// The candidate and exact steps of a seeded `k* = 16` visit, into a
/// survivors sink over `[start, start + count)` of rows of `ND` whole
/// dwords of `m` nibble codes: every row whose half sum in `sums` (as
/// [`half_sums`] left them) reaches `least` is compacted into the sink's
/// positions slice in ascending position ([`candidates`], in place as in
/// [`bounded_gather`]), and only those rows are scored exactly — sixteen
/// candidates' dwords per `vpgatherdd`, then the LUT16 kernel's own lookup
/// sequence ([`nibble_sums`]: one `vpermps` per subquantizer, `i = 0..m`,
/// bias last) — and kept if their score reaches the sink's threshold.
/// Returns `(scores the sink received, rows never scored)`. With `least`
/// from the scan layer's `ByteBound` for the sink's threshold, a row never
/// scored scores below the threshold ([`half_sums`]), so the sink receives
/// exactly what [`lut16_kernel`] would hand it.
///
/// # Safety
///
/// The caller must ensure the host supports `avx512f`, `avx512bw`,
/// `avx512vbmi` and `popcnt`; that `ND` is 1 or 2, rows are `4 * ND` bytes
/// and `m <= 8 * ND`; that `(start + count) * 4 * ND <= bytes.len()` and
/// `count * 4 * ND` fits an `i32`; that `table` holds `m` tables of 16;
/// that `sums` holds `count` rounded up to a whole chunk; and that `sink`
/// is a survivors sink whose slices hold `count + SINK_SLACK`.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,popcnt")]
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn bounded_lut16<const ND: usize>(
    m: usize,
    bytes: &[u8],
    start: usize,
    count: usize,
    sums: &[u16],
    least: u16,
    table: &[f32],
    bias: f32,
    sink: &mut Sink<'_>,
) -> (usize, usize) {
    use arch::*;

    let (Some(threshold), scores, positions) = sink.parts() else {
        unreachable!("a seeded visit feeds a survivors sink");
    };
    let (scores, positions) = (scores.as_mut_ptr(), positions.as_mut_ptr());
    let candidates = candidates(sums, count, least, &NIBBLE_SLOTS[ND - 1], positions);

    let base = bytes.as_ptr().add(start * 4 * ND).cast::<i32>();
    let (vbias, vthreshold) = (_mm512_set1_ps(bias), _mm512_set1_ps(threshold));
    let row_bytes = _mm512_set1_epi32(4 * ND as i32);
    let mut written = 0;
    let mut c = 0;
    while c < candidates {
        let live = lane_mask((candidates - c).min(16));
        let at = _mm512_maskz_loadu_epi32(live, positions.add(c).cast());
        let offsets = _mm512_mullo_epi32(at, row_bytes);
        // Dword `d` of each candidate's row; lanes past the candidates
        // read nothing.
        let row: [__m512i; ND] = std::array::from_fn(|d| {
            _mm512_mask_i32gather_epi32::<1>(_mm512_setzero_si512(), live, offsets, base.add(d))
        });
        let [acc] = nibble_sums::<ND, 1>(m, &[row], table);
        let sum = _mm512_add_ps(acc, vbias);
        keep_passing!(written, vthreshold, sum, live, at, scores, positions);
        c += 16;
    }
    (written, count - candidates)
}
