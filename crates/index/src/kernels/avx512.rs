//! AVX-512 kernels. Over the row shapes that seed — nibble codes in 4- and
//! 8-byte rows, byte codes in 8- and 16-byte rows — a scan is a seeded
//! visit: one u8 pass over the whole cluster bounds every row's score and
//! the visit's `k`-th best, then one exact step ([`exact`]) scores only
//! the rows that can still reach it. Byte codes in rows of every other
//! width of at least four bytes run the gather kernel ([`gather_kernel`]).
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
//! the paper's case for the SCM's lookup SRAM. [`gathered_sums`] narrows
//! that gap without closing it: sixteen lookups are one `vgatherdps`
//! instead of sixteen scalar loads, but a gather still issues one load per
//! lane, so scoring stays bound by the load ports.
//!
//! The seeded visit closes most of the rest by not looking up most rows
//! at f32 at all. [`tables_and_image`] builds a LUT together with its u8
//! image ([`write_image`]), `m` tables of 256 *bytes* (or of 16) — one
//! shared scale, a per-table offset, floor rounding — and
//! a byte table is four ZMM registers (all sixteen 16-byte tables are four
//! too): two `vpermi2b` and a blend look up 64 codes (one `vpermi2b`, 64
//! nibbles). Summed in 16-bit lanes, the bytes give every row of the
//! cluster both an upper and a lower bound on its score ([`byte_sums`],
//! which keeps every row's sum and the largest sum of each of 256 disjoint
//! row groups; [`half_sums`] for nibbles). The `k`-th largest group maximum
//! ([`kth_largest`]) is the sum of `k` distinct rows, so its lower bound is
//! a proven lower bound on the visit's `k`-th best score: the threshold
//! starts there instead of at the selector's lagging floor. Only rows whose
//! upper bound reaches that threshold become candidates ([`candidates`]),
//! and only candidates are scored at f32 ([`exact`]). Both bounds' proofs
//! are on [`byte_sums`], carried to half sums on [`half_sums`]: the sink
//! receives exactly the `(position, score)` pairs of every row at or above
//! a threshold nothing in the top-k is below.
//!
//! # Layout and summation order
//!
//! As in [`super::avx2`], the f32 scorers are **vertical**: lane `l` of an
//! accumulator owns one vector, subquantizers are walked in `i = 0..M`
//! order and the bias is added last, so every lane performs the scalar
//! reference's addition sequence and scores are bit-identical by
//! construction. The gather kernel keeps four accumulators (64 lanes) in
//! flight to amortize each code fetch.
//!
//! # Row loads
//!
//! The exact step scores a list of row positions, sixteen at a time: each
//! candidate's row offset (position · row bytes) indexes one `vpgatherdd`
//! per code dword — per dword of a nibble row, per four subquantizers of a
//! byte row. The list is whatever its caller hands it: a seeded visit's
//! candidates, every row of a visit whose LUT has no u8 image (at the
//! selector's floor), or every row of a [`super::score_all`] tile (at
//! `−∞`). The gather kernel reads the other byte widths in place, lane `l`
//! of a group at offset `l · m`: per four subquantizers, one `vpgatherdd`
//! fetches the same dword of sixteen rows; when `m` is not a multiple of
//! four, the last fetch takes the dword that ends at the row's last byte —
//! still inside the row — and shifts the bytes already summed out of it
//! ([`gathered_sums`]). Rows shorter than a dword (`m < 4`) stay on the
//! blocked kernel, nibble rows of other widths on the AVX2 kernel
//! (`Kernel::select`'s choice, see [`super::Kernel`]).
//!
//! The byte-sum pass loads a 64-row chunk as `4·ND` plain 64-byte
//! registers and transposes it in registers (see [`byte_sums`]); the
//! nibble pass reads the same registers row-major, untransposed (see
//! [`half_sums`]). Either pass makes its sums in its own lane order, folds
//! them into the group maxima there, and stores them in row order, so the
//! candidate step ([`candidates`]) reads row `r`'s sum at `r`.
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
//! by the load ports, which the queries would share rather than split.
//!
//! # No scalar tail
//!
//! Every load, gather, store and compare is under a lane mask (the sum
//! passes load a full chunk unmasked). A full chunk runs with all-ones
//! masks; the last chunk of a block (or batch of candidates) masks off the
//! lanes past its end (masked-off lanes are neither read nor written —
//! fault suppression is architectural), so a kernel always finishes.
//!
//! # Sinks
//!
//! Both f32 scorers end in the survivors sink, `keep_passing!`, which does
//! not branch on its outcome: it compares the finished sums with the
//! broadcast threshold straight into a mask register (`vcmpps k, GE_OQ`:
//! ordered, so NaN never passes), compresses the passing scores and their
//! positions in registers (`vcompressps` / `vpcompressd`, which keep lane
//! order, so positions ascend), stores both full width at the survivor
//! count and advances the count by `popcnt` of the mask. The lanes stored
//! above the survivors are junk the next group's store overwrites; since
//! the count never passes the rows scored, a survivors buffer needs
//! `count + SINK_SLACK` slots (sixteen lanes of slack), which the safe
//! wrappers assert.

use super::{Sink, SEED_GROUPS};
use anna_quant::pq::PqCodebook;

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

/// The survivors sink's step for sixteen finished scores `$sum` at block
/// positions `$positions`, of which the lanes under `$in_block` count:
/// the scores `>= $vthreshold` and their positions are compressed in
/// registers and stored full width at `$written` in `$scores` /
/// `$ids`, and `$written` advances by how many passed. No branch on the
/// outcome: the lanes above the survivors are junk the next store (or
/// nothing) overwrites. `$written` trails the lanes scored so far and never
/// passes the rows scored, so the store ends inside the `count +
/// SINK_SLACK` slots the caller promised. A macro rather than a function,
/// so that its stores rest on the calling kernel's `# Safety` contract and
/// its `popcnt` compiles to the instruction.
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

/// The scores, less bias, of sixteen rows of `m` nibble codes held as `ND`
/// de-interleaved dwords (`rows[d]` is dword `d` of every lane's row):
/// subquantizer `8d + p` is nibble `p` of dword `d` (low nibble first,
/// matching `PackedCodes`), looked up in table `i = 8d + p` of `table` —
/// one `vpermps` per sixteen lookups — and added in `i = 0..m` order. The
/// permute reads bits 3:0 of each index lane and ignores the rest, so the
/// shifted dword already is the index.
///
/// # Safety
///
/// `avx512f`; `m <= 8 * ND` and `table` holds `m` tables of 16.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn nibble_sums<const ND: usize>(m: usize, rows: &[__m512i; ND], table: &[f32]) -> __m512 {
    use arch::*;

    let mut acc = _mm512_setzero_ps();
    for (d, &row) in rows.iter().enumerate() {
        macro_rules! step {
            ($p:literal) => {
                let i = 8 * d + $p;
                if i < m {
                    let t = _mm512_loadu_ps(table.as_ptr().add(i * 16));
                    let index = _mm512_srli_epi32::<{ 4 * $p }>(row);
                    acc = _mm512_add_ps(acc, _mm512_permutexvar_ps(index, t));
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

/// The gather loop for byte codes against `k* = 256` tables over rows of
/// any `m >= 4` bytes, `bytes` the full row-major code stream: each dword
/// of sixteen rows is gathered ([`gathered_sums`], four lane groups in
/// flight) and every score of the block goes to the survivors `sink`.
/// Returns `(count, scores the sink received)`; it never leaves a tail.
///
/// # Safety
///
/// The caller must ensure the host supports `avx512f` and `popcnt`, that
/// `4 <= m` and `64 * m` fits an `i32`, that `(start + count) * m <=
/// bytes.len()`, that `entries` holds `m` tables of 256 (so every byte
/// code indexes inside its table), and that the sink's slices hold
/// `count + SINK_SLACK`.
#[target_feature(enable = "avx512f,popcnt")]
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

    let lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    // Byte offset of lane l's row from lane 0's.
    let row_offset = _mm512_mullo_epi32(lane, _mm512_set1_epi32(m as i32));
    let (vbias, vthreshold) = (_mm512_set1_ps(bias), _mm512_set1_ps(sink.threshold));
    let (scores, positions) = (sink.scores.as_mut_ptr(), sink.positions.as_mut_ptr());
    let mut written = 0;
    let mut j = 0;
    while j < count {
        let masks = live_lanes(count - j).map(lane_mask);
        // Masked-off rows may lie past the buffer, so their address is
        // computed without the in-bounds promise `add` makes.
        let chunk = bytes.as_ptr().wrapping_add((start + j) * m);
        let offsets = std::array::from_fn(|g| {
            _mm512_add_epi32(row_offset, _mm512_set1_epi32((16 * g * m) as i32))
        });
        let acc = gathered_sums::<4>(m, chunk, offsets, masks, entries);
        for (g, acc) in acc.into_iter().enumerate() {
            let at = _mm512_add_epi32(lane, _mm512_set1_epi32((j + 16 * g) as i32));
            let sum = _mm512_add_ps(acc, vbias);
            keep_passing!(written, vthreshold, sum, masks[g], at, scores, positions);
        }
        j += CHUNK;
    }
    (count, written)
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

/// The u8 image ([`write_image`]) of a LUT's `m` tables of `KSTAR`
/// entries, made after the fact from `entries`: `lo_i` is table `i`'s
/// least entry and `s = fl(max_i fl(hi_i − lo_i) / 255)`. Returns `(s, Σ
/// lo_i, Σ max_v |e_iv|)`, the sums in f64 in table order; returns `None`
/// — and the scan keeps its plain kernel — when an entry is NaN or
/// infinite or every table is constant (`s` would be 0 or subnormal).
///
/// The reference the production pass, [`tables_and_image`], is tested
/// against: it makes the same image from a table built by any arm.
///
/// # Safety
///
/// `avx512f` and `avx512bw`; `KSTAR` is 16 or 256, `m <= BOUND_TABLES`,
/// `entries` holds `m` tables of `KSTAR` and `tables` the image's `m · 256`
/// bytes (`k* = 256`) or [`NIBBLE_IMAGE`] (`k* = 16`).
#[cfg(test)]
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
    write_image::<KSTAR>(m, &lo, scale, entries, tables);
    Some((scale, floor, magnitude))
}

/// Writes the u8 image of a LUT's `m` tables of `KSTAR` entries (256 or
/// 16; see [`byte_sums`]) to `tables`: entry `e` of table `i` becomes `q =
/// min(255, ⌊(e − lo_i) · (1/s)⌋)`, all three operations rounded in f32,
/// where `lo_i = lo[i]` is table `i`'s least entry and `s = scale` one
/// scale shared by every table, so that the bytes of different tables add.
/// Table `i` lands at [`image_table`]`(i)` (a 16-entry image is
/// [`NIBBLE_IMAGE`] bytes, zero past table `m`), 64 bytes per store — 64
/// entries of a 256-entry table, or four 16-entry tables side by side.
///
/// # Safety
///
/// `avx512f` and `avx512bw`; `KSTAR` is 16 or 256, `m <= BOUND_TABLES`,
/// `entries` holds `m` tables of `KSTAR` and `tables` the image's `m · 256`
/// bytes (`k* = 256`) or [`NIBBLE_IMAGE`] (`k* = 16`); `scale` is positive
/// and normal.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn write_image<const KSTAR: usize>(
    m: usize,
    lo: &[f32; BOUND_TABLES],
    scale: f32,
    entries: &[f32],
    tables: &mut [u8],
) {
    use arch::*;

    let inverse = _mm512_set1_ps(1.0 / scale);
    let top = _mm512_set1_ps(255.0);
    // Sixteen entries of table `i` from `at`, quantised to dwords.
    let quantised = |i: usize, at: usize| {
        let v = _mm512_loadu_ps(entries.as_ptr().add(i * KSTAR + at));
        // `v >= lo`, so the product is `>= 0` and truncation floors it.
        let t = _mm512_mul_ps(_mm512_sub_ps(v, _mm512_set1_ps(lo[i])), inverse);
        _mm512_cvttps_epi32(_mm512_min_ps(t, top))
    };
    // `vpackus*` pack per 128-bit lane: this puts the packed dwords of four
    // registers back in register order, sixteen bytes each.
    let order = _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
    let store = |q: [__m512i; 4], out: *mut u8| {
        let words = (
            _mm512_packus_epi32(q[0], q[1]),
            _mm512_packus_epi32(q[2], q[3]),
        );
        let bytes = _mm512_packus_epi16(words.0, words.1);
        _mm512_storeu_si512(out.cast(), _mm512_permutexvar_epi32(order, bytes));
    };
    let out = tables.as_mut_ptr();
    if KSTAR == 16 {
        // Bytes `64g .. 64g + 64` hold the tables at `image_table` offsets
        // `64g + 16j`: even tables `8(g % 2) + 2j` for `g < 2`, odd ones
        // `8(g % 2) + 2j + 1` after.
        for g in 0..NIBBLE_IMAGE / 64 {
            let mut q = [_mm512_setzero_si512(); 4];
            for (j, q) in q.iter_mut().enumerate() {
                let i = 8 * (g % 2) + 2 * j + g / 2;
                debug_assert_eq!(image_table::<16>(i), 64 * g + 16 * j);
                if i < m {
                    *q = quantised(i, 0);
                }
            }
            store(q, out.add(64 * g));
        }
        return;
    }
    for i in 0..m {
        for c in 0..KSTAR / 64 {
            let mut q = [_mm512_setzero_si512(); 4];
            for (k, q) in q.iter_mut().enumerate() {
                *q = quantised(i, 64 * c + 16 * k);
            }
            store(q, out.add(image_table::<KSTAR>(i) + 64 * c));
        }
    }
}

/// Lane `t` of the result: the least (`LEAST`) or greatest of the sixteen
/// lanes of `v[t]` — sixteen horizontal reductions as one transpose, four
/// levels of two shuffles and a `vminps`/`vmaxps` per pair of registers
/// (45 steps, not 16 × 8). The lanes' order within a reduction is not the
/// scalar one, so of a `±0` tie either zero may come out. (Loops, not
/// `array::from_fn`, whose generic body would keep each step out of line.)
#[inline]
#[target_feature(enable = "avx512f")]
fn across<const LEAST: bool>(v: &[__m512; 16]) -> __m512 {
    use arch::*;

    macro_rules! op {
        ($a:expr, $b:expr) => {
            if LEAST {
                _mm512_min_ps($a, $b)
            } else {
                _mm512_max_ps($a, $b)
            }
        };
    }
    // Per pair, each register's halves folded: tables `2j`, `2j + 1` in
    // 128-bit lanes 0–1 and 2–3.
    let mut w = [_mm512_setzero_ps(); 8];
    for (j, w) in w.iter_mut().enumerate() {
        let (a, b) = (v[2 * j], v[2 * j + 1]);
        *w = op!(
            _mm512_shuffle_f32x4::<0b01_00_01_00>(a, b),
            _mm512_shuffle_f32x4::<0b11_10_11_10>(a, b)
        );
    }
    // Table `4j + l` in 128-bit lane `l`.
    let mut u = [_mm512_setzero_ps(); 4];
    for (j, u) in u.iter_mut().enumerate() {
        let (x, y) = (w[2 * j], w[2 * j + 1]);
        *u = op!(
            _mm512_shuffle_f32x4::<0b10_00_10_00>(x, y),
            _mm512_shuffle_f32x4::<0b11_01_11_01>(x, y)
        );
    }
    // In 128-bit lane `l`: table `8j + l` in elements 0–1, `8j + 4 + l`
    // in 2–3.
    let mut r = [_mm512_setzero_ps(); 2];
    for (j, r) in r.iter_mut().enumerate() {
        let (p, q) = (u[2 * j], u[2 * j + 1]);
        *r = op!(
            _mm512_shuffle_ps::<0b01_00_01_00>(p, q),
            _mm512_shuffle_ps::<0b11_10_11_10>(p, q)
        );
    }
    // Element `e` of 128-bit lane `l`: table `4e + l`.
    let z = op!(
        _mm512_shuffle_ps::<0b10_00_10_00>(r[0], r[1]),
        _mm512_shuffle_ps::<0b11_01_11_01>(r[0], r[1])
    );
    let order = _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
    _mm512_permutexvar_ps(order, z)
}

/// A LUT's set-up in one pass, at a seeded shape: table `i`'s `KSTAR`
/// entries are written to `entries`, and then, the tables still in L1,
/// their u8 image ([`write_image`]) to `tables`, returning what the
/// reference `quantise` returns for those entries. Entry `c` of table `i`
/// is the distance-table kernel's (`anna_quant::dist_table`) similarity of
/// `v`'s sub-vector `i` to
/// codeword `c` of `B_i`, in its arithmetic — one ZMM register per
/// sixteen codewords, four strided accumulators combined as `((a0 + a1) +
/// a2) + a3`, then the tail, multiply and add apart — so bit for bit
/// `-metric::l2_squared` (`L2`, the distance's sign bit flipped) or
/// `metric::dot`, rounded through binary16 when `F16` (`vcvtps2ph` to
/// nearest even and back: `f16::round_trip`'s value, NaN included). An L2
/// accumulator starts at its first term rather than at `0 + term`: a
/// square is never `−0`, so the sum is the same. Each table's least and
/// greatest entry and its finiteness are kept in registers as the entries
/// are made and reduced for all tables at once ([`across`]), and the f64
/// sums are made from those registers, so the image costs one more read of
/// each table, not two. `M` and `SUB` fix the table count and the
/// sub-vector length (the loops unroll, and the tables' extremes stay in
/// registers), or are 0 for any.
///
/// # Safety
///
/// `avx512f` and `avx512bw` (`vcvtps2ph` and `vcvtph2ps` on ZMM are
/// `avx512f`); `KSTAR` is 16 or 256, `book` holds `m <= BOUND_TABLES`
/// codebooks of exactly `KSTAR` codewords (`m` is `M` and their
/// dimension `SUB`, for each that is not 0), `v` holds `book.dim()`
/// values, `entries` `m · KSTAR` and `tables` the image's bytes.
#[target_feature(enable = "avx512f,avx512bw")]
pub(super) unsafe fn tables_and_image<
    const KSTAR: usize,
    const L2: bool,
    const F16: bool,
    const M: usize,
    const SUB: usize,
>(
    book: &PqCodebook,
    v: &[f32],
    entries: &mut [f32],
    tables: &mut [u8],
) -> Option<(f32, f64, f64)> {
    use arch::*;

    let m = if M > 0 { M } else { book.m() };
    // An L2 similarity is the distance with its sign bit flipped.
    let sign = _mm512_set1_epi32(if L2 { i32::MIN } else { 0 });
    let infinity = _mm512_set1_ps(f32::INFINITY);
    let out = entries.as_mut_ptr();
    let term = |x: f32, c: &[f32; 16]| {
        let (x, c) = (_mm512_set1_ps(x), _mm512_loadu_ps(c.as_ptr()));
        if L2 {
            let d = _mm512_sub_ps(x, c);
            _mm512_mul_ps(d, d)
        } else {
            _mm512_mul_ps(x, c)
        }
    };
    let mut finite = u16::MAX;
    // Per table, the least and greatest entry in each lane; a 16-entry
    // table is one register, its own least and greatest.
    let mut least = [infinity; BOUND_TABLES];
    let mut most = [_mm512_set1_ps(f32::NEG_INFINITY); BOUND_TABLES];
    let mut from = 0;
    for i in 0..m {
        let set = book.dim_major(i);
        let sub = if SUB > 0 { SUB } else { set.dim() };
        let v = &v[from..from + sub];
        from += sub;
        // The table's least and greatest so far, in registers: a chain
        // through `least[i]` in memory would serialise the blocks.
        let (mut lo, mut hi) = (infinity, _mm512_set1_ps(f32::NEG_INFINITY));
        for b in 0..KSTAR / 16 {
            let block = &set.block(b)[..sub];
            let (quads, v_quads) = (block.chunks_exact(4), v.chunks_exact(4));
            let (tail, v_tail) = (quads.remainder(), v_quads.remainder());
            let mut acc = [_mm512_setzero_ps(); 4];
            for (q, (cols, xs)) in quads.zip(v_quads).enumerate() {
                for ((a, col), &x) in acc.iter_mut().zip(cols).zip(xs) {
                    *a = if L2 && q == 0 {
                        term(x, col)
                    } else {
                        _mm512_add_ps(*a, term(x, col))
                    };
                }
            }
            let mut sum =
                _mm512_add_ps(_mm512_add_ps(_mm512_add_ps(acc[0], acc[1]), acc[2]), acc[3]);
            for (col, &x) in tail.iter().zip(v_tail) {
                sum = _mm512_add_ps(sum, term(x, col));
            }
            let mut e = _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(sum), sign));
            if F16 {
                const NEAREST: i32 = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
                e = _mm512_cvtph_ps(_mm512_cvtps_ph::<NEAREST>(e));
            }
            _mm512_storeu_ps(out.add(i * KSTAR + 16 * b), e);
            // Ordered: NaN fails, and so does ±inf.
            finite &= _mm512_cmp_ps_mask::<_CMP_LT_OQ>(_mm512_abs_ps(e), infinity);
            if KSTAR == 16 {
                lo = e;
            } else {
                (lo, hi) = (_mm512_min_ps(lo, e), _mm512_max_ps(hi, e));
            }
        }
        (least[i], most[i]) = (lo, hi);
    }
    if finite != u16::MAX {
        return None;
    }
    // Lane `i < m`: table `i`'s least and greatest entry.
    let most = across::<false>(if KSTAR == 16 { &least } else { &most });
    let least = across::<true>(&least);
    let tables_mask = ((1u32 << m) - 1) as u16;
    // The greatest range: the tables' entries are finite, so their maximum
    // is one of them whatever the order, and every table past `m` reads 0.
    let range = _mm512_reduce_max_ps(_mm512_maskz_sub_ps(tables_mask, most, least));
    let scale = range / 255.0;
    if scale < f32::MIN_POSITIVE {
        return None;
    }
    let mut lo = [0.0f32; BOUND_TABLES];
    _mm512_storeu_ps(lo.as_mut_ptr(), least);
    write_image::<KSTAR>(m, &lo, scale, entries, tables);
    // `Σ lo_i` and `Σ max(|lo_i|, |hi_i|)` in f64, in table order, as
    // `quantise` adds them.
    let magnitude = _mm512_max_ps(_mm512_abs_ps(least), _mm512_abs_ps(most));
    let in_order = |v: __m512| {
        let mut wide = [0.0f64; BOUND_TABLES];
        _mm512_storeu_pd(
            wide.as_mut_ptr(),
            _mm512_cvtps_pd(_mm512_castps512_ps256(v)),
        );
        let high = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(v)));
        _mm512_storeu_pd(wide.as_mut_ptr().add(8), _mm512_cvtps_pd(high));
        wide[..m].iter().fold(0.0, |sum, &x| sum + x)
    };
    Some((scale, in_order(least), in_order(magnitude)))
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
/// visitor `q`'s u8 image `tables[q]` ([`write_image`]), written to
/// `sums[q]`, and the largest sum of each of [`SEED_GROUPS`] disjoint
/// groups of those rows, per visitor. Chunk `c` (rows `64c .. 64c + 64` of
/// the block) leaves its sums at `sums[q][64c .. 64c + 64]` in row order.
/// The pass makes them in lane order — the 32 even byte lanes, then the 32
/// odd ones, so row `r` of the chunk is in sum slot
/// [`BYTE_SLOTS`]`[ND / 4][r]` — and group `64·(c mod 4) + w` holds the
/// rows of slot `w` of every chunk `c` with that residue. Only rows inside
/// the block enter a maximum (a group with none keeps 0).
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
/// visitor's two sum registers are folded into its chunk residue's maxima
/// by a `vpmaxuw` under the mask of lanes whose row is in the block (rows
/// past `count` read nothing and hold code 0, whose sum is no row's), then
/// put in row order by one two-register word permute (`vpermt2w`) per 32
/// rows and stored, so that the candidate step reads a row's sum at its
/// own position.
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
    // Per half chunk of rows, the sum slot of each row: word indices into
    // the even lanes' sums, then the odd lanes'.
    let row_order: [__m512i; 2] = std::array::from_fn(|h| {
        _mm512_cvtepu8_epi16(_mm256_loadu_si256(
            BYTE_SLOTS[ND / 4].as_ptr().add(32 * h).cast(),
        ))
    });
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
                group[h] = _mm512_mask_max_epu16(group[h], live[h], group[h], halves[h]);
            }
            for (h, &order) in row_order.iter().enumerate() {
                let rows = _mm512_permutex2var_epi16(halves[0], order, halves[1]);
                _mm512_storeu_si512(sums[q].as_mut_ptr().add(j + 32 * h).cast(), rows);
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
/// ([`write_image`]`::<16>`), written to `sums[q]`, and the largest half sum
/// of each of [`SEED_GROUPS`] disjoint groups of those rows, per visitor.
/// Chunk `c` (rows `64c .. 64c + 64` of the block) leaves its half sums at
/// `sums[q][64c .. 64c + 64]` in row order. The pass makes them with row
/// `r` of the chunk in slot [`NIBBLE_SLOTS`]`[ND − 1][r]`, and group
/// `64·(c mod 4) + w` holds the rows of slot `w` of every chunk `c` with
/// that residue, as in [`byte_sums`]. Only rows inside the block enter a
/// maximum (a group with none keeps 0).
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
/// register of 32 sums, folded into the chunk residue's maxima by a
/// `vpmaxuw` under the mask of slots whose row is in the block (rows past
/// `count` read nothing and hold code 0, whose sum is no row's), then put
/// in row order by one word permute (`vpermw`) and stored.
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
    // The slot of each row of a half chunk, as a word index into its sums
    // (both halves share the layout).
    let row_order = _mm512_cvtepu8_epi16(_mm256_loadu_si256(NIBBLE_SLOTS[ND - 1].as_ptr().cast()));
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
                let group = &mut maxima[q][(j / CHUNK) % 4][h];
                *group = _mm512_mask_max_epu16(*group, in_block, *group, packed[q]);
                let rows = _mm512_permutexvar_epi16(row_order, packed[q]);
                _mm512_storeu_si512(sums[q].as_mut_ptr().add(j + 32 * h).cast(), rows);
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
/// stored sum in `sums` — in row order, as the sum passes leave them —
/// reaches `least`, and returns how many. With `least` from the scan
/// layer's `ByteBound` for a threshold, every row left out scores below
/// that threshold ([`byte_sums`], [`half_sums`]).
///
/// Per 64-row chunk, two `vpcmpuw` give a mask of the rows kept (cut to
/// the block), and the positions are extracted from it lowest first, one
/// trailing-zero count and one clear of the lowest set bit each (plain
/// scalar ops: the level has no `bmi1`); the kept count is one `popcnt`.
/// The first four extracts run whatever the
/// mask holds and write to the four slots from the count so far, which
/// then advances by how many of them held a row: a chunk that keeps four
/// rows or fewer — at a seeded visit's few percent of rows kept, nearly
/// every chunk — takes no branch on its contents, and its stores do not
/// wait on each other; only rows past the fourth loop. An extract from an
/// empty mask writes a junk position, which the next kept rows overwrite
/// or the count leaves behind; the count never passes the rows of the
/// block, so every write lands below `count + 4`.
///
/// # Safety
///
/// `avx512f`, `avx512bw` and `popcnt` (all of the `avx512` level); `sums`
/// holds `count` rounded up to a whole chunk and `positions` `count + 4`
/// slots.
#[target_feature(enable = "avx512f,avx512bw,popcnt")]
pub(super) unsafe fn candidates(
    sums: &[u16],
    count: usize,
    least: u16,
    positions: &mut [u32],
) -> usize {
    use arch::*;

    let vleast = _mm512_set1_epi16(least as i16);
    let out = positions.as_mut_ptr();
    let mut candidates = 0;
    let mut j = 0;
    while j < count {
        let reach = |at: usize| {
            let sums = _mm512_loadu_si512(sums.as_ptr().add(j + at).cast());
            u64::from(_mm512_cmpge_epu16_mask(sums, vleast))
        };
        let in_block = match count - j {
            left @ 0..64 => (1u64 << left) - 1,
            _ => u64::MAX,
        };
        let mut rows = (reach(0) | reach(32) << 32) & in_block;
        let kept = rows.count_ones() as usize;
        for e in 0..4 {
            *out.add(candidates + e) = (j + rows.trailing_zeros() as usize) as u32;
            rows &= rows.wrapping_sub(1);
        }
        candidates += kept.min(4);
        while rows != 0 {
            *out.add(candidates) = (j + rows.trailing_zeros() as usize) as u32;
            candidates += 1;
            rows &= rows - 1;
        }
        j += CHUNK;
    }
    candidates
}

/// The exact step of the seeded shapes, their only f32 scorer: scores the
/// `candidates` rows whose positions — relative to `start`, ascending —
/// open the survivors `sink`'s positions slice, sixteen at a time, and
/// keeps those whose score reaches the sink's threshold. `KSTAR` 16:
/// nibble rows of `ND` dwords, each candidate's dwords gathered, then one
/// `vpermps` per subquantizer ([`nibble_sums`]); `KSTAR` 256: byte rows of
/// `m = 4·ND`, one `vpgatherdd` per four subquantizers and one
/// `vgatherdps` per lookup ([`gathered_sums`]). Either way `i = 0..m`, bias
/// last: the scalar score bit for bit. A gather costs about the same for
/// any number of live lanes, so a visit's candidates are batched rather
/// than scored per chunk. Returns how many scores the sink kept.
///
/// # Candidates in place
///
/// The exact step reads the positions back, sixteen at a time, before
/// writing survivors over them: each batch's positions are loaded into a
/// register before its store, and survivors never outnumber the
/// candidates read, so no store reaches a candidate not yet read.
///
/// # Safety
///
/// The caller must ensure the host supports `avx512f` and `popcnt`; that
/// `KSTAR` is 16 with `ND` 1 or 2 and `m <= 8 * ND`, or 256 with `ND` 2 or
/// 4 and `m == 4 * ND`; that every candidate position `p` has
/// `(start + p + 1) * 4 * ND <= bytes.len()` and `p * 4 * ND` fits an
/// `i32`; that `entries` holds `m` tables of `KSTAR`; and that the sink's
/// slices hold `candidates + SINK_SLACK`.
#[target_feature(enable = "avx512f,popcnt")]
pub(super) unsafe fn exact<const KSTAR: usize, const ND: usize>(
    m: usize,
    bytes: &[u8],
    start: usize,
    candidates: usize,
    entries: &[f32],
    bias: f32,
    sink: &mut Sink<'_>,
) -> usize {
    use arch::*;

    let base = bytes.as_ptr().add(start * 4 * ND);
    let (vbias, vthreshold) = (_mm512_set1_ps(bias), _mm512_set1_ps(sink.threshold));
    let row_bytes = _mm512_set1_epi32(4 * ND as i32);
    let (scores, positions) = (sink.scores.as_mut_ptr(), sink.positions.as_mut_ptr());
    let mut written = 0;
    let mut c = 0;
    while c < candidates {
        let live = lane_mask((candidates - c).min(16));
        let at = _mm512_maskz_loadu_epi32(live, positions.add(c).cast());
        let offsets = _mm512_mullo_epi32(at, row_bytes);
        let acc = if KSTAR == 16 {
            // Dword `d` of each candidate's row; lanes past the candidates
            // read nothing.
            let row: [__m512i; ND] = std::array::from_fn(|d| {
                let p = base.add(4 * d).cast();
                _mm512_mask_i32gather_epi32::<1>(_mm512_setzero_si512(), live, offsets, p)
            });
            nibble_sums::<ND>(m, &row, entries)
        } else {
            gathered_sums::<1>(m, base, [offsets], [live], entries)[0]
        };
        let sum = _mm512_add_ps(acc, vbias);
        keep_passing!(written, vthreshold, sum, live, at, scores, positions);
        c += 16;
    }
    written
}
