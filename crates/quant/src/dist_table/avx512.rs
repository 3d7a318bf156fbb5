//! The AVX-512 arm of the distance-table kernel: a sixteen-codeword block
//! of a [`DimMajor`] per step, one ZMM register per term.
//!
//! Every lane runs the portable arm's arithmetic on its own codeword —
//! `set1(v[d])` against the block row `d`, `sub` then `mul` (L2) or `mul`
//! (inner product), `add` into one of four accumulators by `d % 4`, the
//! accumulators combined as `((a0 + a1) + a2) + a3`, the tail dimensions
//! added in order — as separate instructions, never a fused multiply-add,
//! so each entry is `metric::{l2_squared, dot}`'s value bit for bit.
//!
//! * **Tables**: an L2 similarity is the distance with its sign bit
//!   flipped (`vpxord`, exactly Rust's `-x`) on the way to the store; the
//!   last block of a ragged set stores only its codeword lanes.
//! * **Nearest**: a running first minimum per lane — `vcmpps LT_OQ` under
//!   the mask of the lanes that hold codewords (a padded lane never
//!   competes; NaN compares false, so it never wins), then the best
//!   distance and id move in under that mask. Lane `l` meets codewords
//!   `l, l + 16, …` in ascending order and keeps the first of equal
//!   minima; across lanes the lowest id among the lanes at the overall
//!   minimum wins. Together that is the first minimum of the whole table.
//!   A lane that never moved holds `(0, +∞)`, so a set with no finite
//!   distance yields `(0, ∞)`, as the scalar scan does.
//!
//! Loads and stores are value-only: a block row becomes a register through
//! `_mm512_setr_ps` of its sixteen elements, and a register becomes an
//! array lane by lane; the compiler emits one full-width move for each.
//! So the functions below are safe `#[target_feature]` functions, and
//! [`Avx512::run`] — entered only with a token from [`Avx512::detected`] —
//! is the one `unsafe` call.

use std::arch::x86_64::*;

use anna_vector::{KernelDispatch, Metric};

use super::{DimMajor, LANES};

/// Proof that the host runs AVX-512F: only [`Avx512::detected`] makes one,
/// which is what lets the safe methods below enter the
/// `#[target_feature(enable = "avx512f")]` kernel.
#[derive(Debug, Clone, Copy)]
pub(super) struct Avx512(());

/// What one pass over a codeword set computes.
enum Pass<'o> {
    /// `out[c] = metric.similarity(v, codeword c)`.
    Similarities(Metric, &'o mut [f32]),
    /// The first minimum of the L2 table, as `(codeword, distance)`.
    Nearest(&'o mut (usize, f32)),
}

impl Avx512 {
    /// The AVX-512 arm, if the host runs the `avx512` dispatch level,
    /// whose detection includes AVX-512F.
    pub(super) fn detected() -> Option<Avx512> {
        KernelDispatch::Avx512.is_available().then_some(Avx512(()))
    }

    /// `out[c] = metric.similarity(v, codeword c)` for every codeword of
    /// `set`. The caller has checked `v.len() == set.dim()` and
    /// `out.len() == set.k()`.
    pub(super) fn similarities(self, set: &DimMajor, metric: Metric, v: &[f32], out: &mut [f32]) {
        self.run(set, v, Pass::Similarities(metric, out));
    }

    /// The nearest codeword of `set` to `v` in L2 (first minimum) and its
    /// squared distance. The caller has checked `v.len() == set.dim()`.
    pub(super) fn nearest(self, set: &DimMajor, v: &[f32]) -> (usize, f32) {
        let mut best = (0, f32::INFINITY);
        self.run(set, v, Pass::Nearest(&mut best));
        best
    }

    fn run(self, set: &DimMajor, v: &[f32], pass: Pass<'_>) {
        // SAFETY: `self` exists only where detection found AVX-512F, the one
        // feature the kernel enables; it touches memory only through the
        // references it is given, by value.
        unsafe { run(set, v, pass) }
    }
}

#[target_feature(enable = "avx512f")]
fn run(set: &DimMajor, v: &[f32], pass: Pass<'_>) {
    match pass {
        Pass::Similarities(Metric::L2, out) => similarities::<true>(set, v, out),
        Pass::Similarities(Metric::InnerProduct, out) => similarities::<false>(set, v, out),
        Pass::Nearest(best) => *best = nearest(set, v),
    }
}

/// One block row (component `d` of sixteen codewords) as a register.
#[target_feature(enable = "avx512f")]
#[inline]
fn load(c: &[f32; LANES]) -> __m512 {
    _mm512_setr_ps(
        c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7], c[8], c[9], c[10], c[11], c[12], c[13],
        c[14], c[15],
    )
}

/// The sixteen lanes of `x`, lane 0 first. (Written out rather than
/// through `array::from_fn`, whose generic body has no AVX-512 and so
/// would keep every lane an out-of-line call.)
#[target_feature(enable = "avx512f")]
#[inline]
fn lanes(x: __m512) -> [f32; LANES] {
    [
        lane::<0>(x),
        lane::<1>(x),
        lane::<2>(x),
        lane::<3>(x),
        lane::<4>(x),
        lane::<5>(x),
        lane::<6>(x),
        lane::<7>(x),
        lane::<8>(x),
        lane::<9>(x),
        lane::<10>(x),
        lane::<11>(x),
        lane::<12>(x),
        lane::<13>(x),
        lane::<14>(x),
        lane::<15>(x),
    ]
}

/// Lane `L` of `x`.
#[target_feature(enable = "avx512f")]
#[inline]
fn lane<const L: i32>(x: __m512) -> f32 {
    _mm512_cvtss_f32(_mm512_permutexvar_ps(_mm512_set1_epi32(L), x))
}

/// `(x − c)²` (L2) or `x · c` per lane, multiply and add kept apart.
#[target_feature(enable = "avx512f")]
#[inline]
fn term<const L2: bool>(x: f32, c: &[f32; LANES]) -> __m512 {
    let (x, c) = (_mm512_set1_ps(x), load(c));
    if L2 {
        let d = _mm512_sub_ps(x, c);
        _mm512_mul_ps(d, d)
    } else {
        _mm512_mul_ps(x, c)
    }
}

/// The kernel: `Σ_d term(v[d], block[d])` for the sixteen codewords of one
/// block (`block.len() == v.len()`), in `metric::{l2_squared, dot}`'s
/// exact order. A macro, so that it always inlines into the calling loop
/// (an out-of-line call per block costs as much as the block).
macro_rules! block_sums {
    ($l2:expr, $block:expr, $v:expr) => {{
        let (quads, v_quads) = ($block.chunks_exact(4), $v.chunks_exact(4));
        let (tail, v_tail) = (quads.remainder(), v_quads.remainder());
        let mut acc = [_mm512_setzero_ps(); 4];
        for (cols, xs) in quads.zip(v_quads) {
            for ((a, col), &x) in acc.iter_mut().zip(cols).zip(xs) {
                *a = _mm512_add_ps(*a, term::<{ $l2 }>(x, col));
            }
        }
        let mut sum = _mm512_add_ps(_mm512_add_ps(_mm512_add_ps(acc[0], acc[1]), acc[2]), acc[3]);
        for (col, &x) in tail.iter().zip(v_tail) {
            sum = _mm512_add_ps(sum, term::<{ $l2 }>(x, col));
        }
        sum
    }};
}

#[target_feature(enable = "avx512f")]
fn similarities<const L2: bool>(set: &DimMajor, v: &[f32], out: &mut [f32]) {
    // An L2 similarity is the distance with its sign bit flipped.
    let sign = _mm512_set1_epi32(if L2 { i32::MIN } else { 0 });
    let mut blocks = set.blocks();
    let (full, ragged) = out.as_chunks_mut::<LANES>();
    for (out, block) in full.iter_mut().zip(&mut blocks) {
        let sums = _mm512_castps_si512(block_sums!(L2, block, v));
        *out = lanes(_mm512_castsi512_ps(_mm512_xor_si512(sums, sign)));
    }
    // `k` not a multiple of LANES: the last block is zero-padded.
    if let Some(block) = blocks.next() {
        let sums = _mm512_castps_si512(block_sums!(L2, block, v));
        let entries = lanes(_mm512_castsi512_ps(_mm512_xor_si512(sums, sign)));
        ragged.copy_from_slice(&entries[..ragged.len()]);
    }
}

#[target_feature(enable = "avx512f")]
fn nearest(set: &DimMajor, v: &[f32]) -> (usize, f32) {
    let mut best = _mm512_set1_ps(f32::INFINITY);
    let mut best_id = _mm512_setzero_si512();
    let mut id = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let step = _mm512_set1_epi32(LANES as i32);
    for (b, block) in set.blocks().enumerate() {
        let live = (set.k - b * LANES).min(LANES);
        let codewords = ((1u32 << live) - 1) as u16;
        let d = block_sums!(true, block, v);
        let less = _mm512_mask_cmp_ps_mask::<_CMP_LT_OQ>(codewords, d, best);
        best = _mm512_mask_mov_ps(best, less, d);
        best_id = _mm512_mask_mov_epi32(best_id, less, id);
        id = _mm512_add_epi32(id, step);
    }
    // No lane holds NaN, so the minimum is a lane's value, and the lanes
    // equal to it (`+∞` included) give up their lowest id.
    let min = _mm512_reduce_min_ps(best);
    let at_min = _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(best, _mm512_set1_ps(min));
    (_mm512_mask_reduce_min_epi32(at_min, best_id) as usize, min)
}
