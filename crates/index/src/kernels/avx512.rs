//! AVX-512 kernels: `k* = 16` codes scored 64 per iteration with one
//! `vpermps zmm` per sixteen lookups, for up to four queries per pass over
//! the rows; `k* = 256` codes scored 64 per iteration with one
//! `vgatherdps zmm` per sixteen lookups — the table lookups are the only
//! gathers where rows are 8 or 16 bytes, which are loaded — and, over those
//! rows, a u8 bound pass that decides which rows need the gather at all.
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
//! [`bound_kernel`] closes most of the rest by not looking up most rows at
//! f32 at all. [`quantise`] turns a LUT into `m` tables of 256 *bytes* —
//! one shared scale, a per-table offset, floor rounding — and a byte table
//! is four ZMM registers: two `vpermi2b` and a blend look up 64 codes.
//! Summed in 16-bit lanes, the bytes give every row of a tile an upper
//! bound on its score; only rows whose bound reaches the tile's threshold
//! (≈ 4 % at the benchmark's shape, where ≈ 3.4 % survive) are scored
//! exactly, by the gather kernel's own lookup sequence ([`gathered_sums`]).
//! The bound's proof is on [`bound_kernel`]: the sink receives exactly the
//! gather kernel's `(position, score)` pairs.
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
//! shifts the bytes already summed out of it ([`gathered_sums`], which
//! also scores the bound pass's candidates from their row offsets). Either
//! way only the table lookups remain gathers. Rows shorter than a dword
//! (`m < 4`) stay on the blocked kernel.
//!
//! The bound pass loads a 64-row chunk as `4·ND` plain 64-byte registers
//! and transposes it in registers (see [`bound_kernel`]).
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
//! rather than split, and its bound pass needs the 16 row registers and
//! four table registers of one query.
//!
//! # No scalar tail
//!
//! Every load, gather, store and compare is under a lane mask (the bound
//! pass loads a full chunk unmasked). A full chunk runs with all-ones
//! masks; the last chunk of a block masks off the lanes past `count`
//! (masked-off lanes are neither read nor written — fault suppression is
//! architectural), so a kernel always finishes the block.
//!
//! # Sinks
//!
//! The LUT16 and gather kernels end in `finish_group!`; the bound pass's
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

use super::Sink;

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

/// Most tables the bound pass quantises: rows of at most four dwords.
pub(super) const BOUND_TABLES: usize = 16;

/// The u8 image of a LUT's `m` tables of 256 (see [`bound_kernel`]):
/// entry `v` of table `i` becomes `q = min(255, ⌊(e − lo_i) · (1/s)⌋)`, all
/// three operations rounded in f32, where `lo_i` is table `i`'s least
/// entry and `s = fl(max_i fl(hi_i − lo_i) / 255)` is one scale shared by
/// every table, so that the bytes of different tables add. Writes the
/// `m · 256` bytes to `tables` and returns `(s, Σ lo_i, Σ max_v |e_iv|)`,
/// the sums in f64; returns `None` — and the scan keeps the gather — when
/// an entry is NaN or infinite or every table is constant (`s` would be 0
/// or subnormal).
///
/// # Safety
///
/// `avx512f` and `avx512bw`; `m <= BOUND_TABLES`, `entries` holds `m`
/// tables of 256 and `tables` `m · 256` bytes.
#[target_feature(enable = "avx512f,avx512bw")]
pub(super) unsafe fn quantise(
    m: usize,
    entries: &[f32],
    tables: &mut [u8],
) -> Option<(f32, f64, f64)> {
    use arch::*;

    let mut lo = [0.0f32; BOUND_TABLES];
    let (mut range, mut floor, mut magnitude) = (0.0f32, 0.0f64, 0.0f64);
    let infinity = _mm512_set1_ps(f32::INFINITY);
    for (i, lo) in lo.iter_mut().enumerate().take(m) {
        let table = entries.as_ptr().add(i * KSTAR_U8);
        let v: [__m512; KSTAR_U8 / 16] =
            std::array::from_fn(|c| _mm512_loadu_ps(table.add(16 * c)));
        // Ordered: NaN fails, and so does ±inf.
        let finite = v.iter().fold(u16::MAX, |finite, &v| {
            finite & _mm512_cmp_ps_mask::<_CMP_LT_OQ>(_mm512_abs_ps(v), infinity)
        });
        if finite != u16::MAX {
            return None;
        }
        // Pairwise, so the reduction is four dependent steps, not sixteen.
        macro_rules! tree {
            ($reduce:ident) => {{
                let mut v = v;
                let mut n = v.len();
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
    // `vpackus*` pack per 128-bit lane: this puts the packed dwords of
    // sixty-four entries back in entry order.
    let order = _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
    for (i, &lo) in lo.iter().enumerate().take(m) {
        let (table, out) = (
            entries.as_ptr().add(i * KSTAR_U8),
            tables.as_mut_ptr().add(i * KSTAR_U8),
        );
        let lo = _mm512_set1_ps(lo);
        for c in 0..KSTAR_U8 / 64 {
            let q: [__m512i; 4] = std::array::from_fn(|k| {
                let v = _mm512_loadu_ps(table.add(64 * c + 16 * k));
                // `v >= lo`, so the product is `>= 0` and truncation
                // floors it.
                let t = _mm512_mul_ps(_mm512_sub_ps(v, lo), inverse);
                _mm512_cvttps_epi32(_mm512_min_ps(t, top))
            });
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
/// bound pass's transposed registers, for rows of `nd` dwords (2 or 4):
/// `row_lanes(nd)[r]` is row `r`'s lane. The transpose (see
/// [`bound_kernel`]) moves row bits 5, 4, 3 — which input register half a
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

/// [`row_lanes`] for 8-byte rows, then for 16-byte rows.
const ROW_LANES: [[u8; 64]; 2] = [row_lanes(2), row_lanes(4)];

/// The bounded scan of byte codes in rows of `ND` whole dwords (`m = 4·ND`,
/// `ND` 2 or 4) against `k* = 256` tables, into a survivors sink: a u8
/// upper bound on every score of the block, then exact scores for only
/// the rows whose bound reaches the sink's threshold. `tables` is the LUT's
/// u8 image ([`quantise`]) and `min_sum` the least byte sum that can still
/// reach the threshold (the scan layer's `ByteBound::min_sum`). Returns
/// `(count, scores the sink received, rows the bound rejected)`. The sink
/// receives exactly what [`gather_kernel`] would hand it: the exact scores
/// are the gather kernel's own lookup sequence ([`gathered_sums`], `i =
/// 0..m`, bias last), and a rejected row's score is below the threshold.
///
/// # The bound pass
///
/// Per 64-row chunk, the `4·ND` 64-byte registers of rows are transposed
/// in registers by a four-stage `vpunpck{lbw,lwd,ldq,lqdq}` network (stage
/// `w` pairs register `k` with register `k + 2ND` into outputs `2k` and
/// `2k + 1`), after which register `i` holds byte `i` of all 64 rows —
/// subquantizer `i`'s codes, row `r` in lane `row_lanes(ND)[r]`. Each
/// code is looked up in its table's 256 bytes, held in four registers: two
/// `vpermi2b` read the low and high 128 entries and `vpmovb2m` of the code
/// (its bit 7) blends them. The bytes are summed into 16-bit lanes without
/// a mask: one accumulator adds whole words (`even + 256·odd`), the other
/// the odd bytes alone, and the even sums are the difference; `m · 255 <=
/// 4080` fits either. Both halves are compared with `min_sum`, the two
/// masks interleaved back into byte lanes, and one `vpermb` puts them in
/// row order, so candidates are compressed in ascending position.
///
/// # Why the bound is exact
///
/// Write `e_i` for row `r`'s entry in table `i`, `q_i` for its byte, `Q =
/// Σ q_i`, `A = Σ_i max_v |e_iv|`, `b` the bias, `u = 2^-24`. Four steps
/// take the f32 score `S = fl(fl(Σ e_i) + b)`, summed in `i = 0..m` order,
/// to a test on `Q` alone.
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
///    still offered. A finite threshold is required (`-inf` tiles keep
///    the gather).
///
/// # Candidates in place
///
/// The bound pass writes candidate positions into the sink's positions
/// slice and the exact pass reads them back, sixteen at a time, before
/// writing survivors over them: each batch's positions are loaded into a
/// register before its store, and survivors never outnumber the
/// candidates read, so no store reaches a candidate not yet read.
///
/// # Safety
///
/// The caller must ensure the host supports `avx512f`, `avx512bw`,
/// `avx512vbmi` and `popcnt`; that `ND` is 2 or 4 and `m == 4 * ND`; that
/// `(start + count) * m <= bytes.len()` and `count * m` fits an `i32`;
/// that `entries` holds `m` tables of 256 and `tables` their `m · 256`
/// bytes; and that `sink` is a survivors sink whose slices hold `count +
/// SINK_SLACK`.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,popcnt")]
#[allow(clippy::too_many_arguments)]
pub(super) unsafe fn bound_kernel<const ND: usize>(
    m: usize,
    bytes: &[u8],
    start: usize,
    count: usize,
    tables: &[u8],
    min_sum: u16,
    entries: &[f32],
    bias: f32,
    sink: &mut Sink<'_>,
) -> (usize, usize, usize) {
    use arch::*;

    let (Some(threshold), scores, positions) = sink.parts() else {
        unreachable!("the bound pass feeds a survivors sink");
    };
    let (scores, positions) = (scores.as_mut_ptr(), positions.as_mut_ptr());
    // Input registers per chunk, and rows per register.
    let regs = 4 * ND;
    let per_reg = 16 / ND;
    let lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let lanes_of_rows = _mm512_loadu_si512(ROW_LANES[ND / 4].as_ptr().cast());
    let vmin_sum = _mm512_set1_epi16(min_sum as i16);

    // The bound pass: candidate positions, ascending, into `positions`.
    let mut candidates = 0;
    let mut j = 0;
    while j < count {
        let left = count - j;
        let chunk = bytes.as_ptr().wrapping_add((start + j) * m);
        let mut x = [_mm512_setzero_si512(); 16];
        for (r, x) in x.iter_mut().enumerate().take(regs) {
            let p = chunk.wrapping_add(64 * r);
            *x = if left >= CHUNK {
                _mm512_loadu_si512(p.cast())
            } else {
                // One mask bit per live dword: `ND` per live row; rows past
                // the block read nothing and hold code 0.
                let live = left.saturating_sub(r * per_reg).min(per_reg);
                _mm512_maskz_loadu_epi32(((1u32 << (ND * live)) - 1) as u16, p.cast())
            };
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
        stage!(_mm512_unpacklo_epi8, _mm512_unpackhi_epi8);
        stage!(_mm512_unpacklo_epi16, _mm512_unpackhi_epi16);
        stage!(_mm512_unpacklo_epi32, _mm512_unpackhi_epi32);
        stage!(_mm512_unpacklo_epi64, _mm512_unpackhi_epi64);

        let (mut words, mut odd) = (_mm512_setzero_si512(), _mm512_setzero_si512());
        for (i, &codes) in x.iter().enumerate().take(m) {
            let t = tables.as_ptr().add(i * KSTAR_U8).cast::<__m512i>();
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
            let q = _mm512_mask_blend_epi8(_mm512_movepi8_mask(codes), low, high);
            words = _mm512_add_epi16(words, q);
            odd = _mm512_add_epi16(odd, _mm512_srli_epi16::<8>(q));
        }
        let even = _mm512_sub_epi16(words, _mm512_slli_epi16::<8>(odd));
        let reach = _mm512_mask_blend_epi8(
            0xAAAA_AAAA_AAAA_AAAA,
            _mm512_movm_epi16(_mm512_cmpge_epu16_mask(even, vmin_sum)),
            _mm512_movm_epi16(_mm512_cmpge_epu16_mask(odd, vmin_sum)),
        );
        let in_block = match left {
            0..64 => (1u64 << left) - 1,
            _ => u64::MAX,
        };
        let rows = _mm512_movepi8_mask(_mm512_permutexvar_epi8(lanes_of_rows, reach)) & in_block;
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

    // The exact pass over the candidates, sixteen at a time: a gather
    // costs about the same for any number of live lanes, so the tile's
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
    (count, written, count - candidates)
}
