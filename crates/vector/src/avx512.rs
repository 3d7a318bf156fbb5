//! The AVX-512 arm of the re-rank rescore
//! ([`crate::exact::rescore_subset_with`]): the [`crate::f16c`] arm's four
//! candidates per pass, sixteen elements of each per step.
//!
//! Everything here returns what the portable path returns, bit for bit,
//! under the same contract as the F16C arm (its module docs): element `i`
//! of a candidate goes into lane `i % 4` of that candidate's own four
//! accumulators, multiply and add stay separate instructions (never a
//! fused multiply-add), the accumulators reduce as `((a0 + a1) + a2) +
//! a3`, and the tail elements follow one by one.
//!
//! # One block of sixteen elements
//!
//! Each candidate's sixteen elements are one ZMM register, rounded through
//! binary16 (`vcvtps2ph` then `vcvtph2ps`, the same rounding as the XMM
//! instructions) and turned into lane-wise differences and products —
//! lane-wise, so the layout does not matter yet. Product register `c` then
//! holds candidate `c`'s four chunks of four, chunk `j` in 128-bit lane
//! `j`. Eight `vshuff32x4` transpose the four registers as a 4 × 4 matrix
//! of 128-bit lanes ([`transpose`]), so that register `j` holds chunk `j`
//! of every candidate, candidate `c` in lane `c`. One ZMM accumulator
//! whose 128-bit lane `c` *is* candidate `c`'s accumulators `i % 4` then
//! adds the four registers in chunk order: each accumulator lane sees the
//! portable loop's additions in the portable loop's order.
//!
//! What the blocks leave — zero to three chunks of four, then zero to
//! three elements — goes exactly as in the F16C arm: each chunk is four
//! candidates' chunks side by side in one register, added after the
//! blocks; the scalar tail comes after the reduction, never folded into a
//! masked block (that would move tail elements into the accumulators and
//! reassociate their sums).

use std::arch::x86_64::*;

use crate::f16c::{lanes, load, prefetch_group, round_trip1, PREFETCH_GROUPS};
use crate::matrix::VectorSet;
use crate::metric::Metric;
use crate::topk::Neighbor;
use crate::KernelDispatch;

/// Proof that the host runs the `avx512` dispatch level (which includes
/// `avx512f` and `f16c`): only [`Avx512::detected`] makes one, which is
/// what lets the safe method below enter the
/// `#[target_feature(enable = "avx512f,f16c")]` kernel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx512(());

impl Avx512 {
    /// The AVX-512 arm, if the host runs the `avx512` dispatch level.
    pub(crate) fn detected() -> Option<Avx512> {
        KernelDispatch::Avx512.is_available().then_some(Avx512(()))
    }

    /// Rounds every element of `vs` through binary16 in place, sixteen at a
    /// time on the rescore's ZMM conversions.
    #[cfg(test)]
    pub(crate) fn round_trip_slice(self, vs: &mut [f32]) {
        // SAFETY: `self` exists only where detection found the `avx512`
        // level, which includes both features the kernel enables; it
        // touches memory only through `vs`.
        unsafe { round_trip_slice(vs) }
    }

    /// Appends `(id, metric.similarity(q, x))` to `hits` for every id, in
    /// `ids` order, with `x` the id's row of `db` — rounded through
    /// binary16 first when `f16_vectors` is set. Each id must be a row of
    /// `db`, and `q` must be `db.dim()` long (both checked by slicing).
    pub(crate) fn rescore(
        self,
        q: &[f32],
        ids: &[u64],
        db: &VectorSet,
        metric: Metric,
        f16_vectors: bool,
        hits: &mut Vec<Neighbor>,
    ) {
        // SAFETY: `self` exists only where detection found the `avx512`
        // level, which includes both features the kernel enables; it reads
        // only through the slices it is given.
        unsafe { rescore(q, ids, db, metric, f16_vectors, hits) }
    }
}

/// Sixteen consecutive elements as one register.
#[target_feature(enable = "avx512f")]
#[inline]
fn load16(c: &[f32]) -> __m512 {
    let c = &c[..16];
    // SAFETY: `c` is sixteen readable elements (the slice above).
    unsafe { _mm512_loadu_ps(c.as_ptr()) }
}

/// Every lane rounded to the nearest binary16 (ties to even) and back.
#[target_feature(enable = "avx512f")]
#[inline]
fn round_trip16(v: __m512) -> __m512 {
    _mm512_cvtph_ps(_mm512_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v))
}

#[cfg(test)]
#[target_feature(enable = "avx512f,f16c")]
fn round_trip_slice(vs: &mut [f32]) {
    let mut chunks = vs.chunks_exact_mut(16);
    for c in &mut chunks {
        let rounded = round_trip16(load16(c));
        // SAFETY: `c` is sixteen writable elements.
        unsafe { _mm512_storeu_ps(c.as_mut_ptr(), rounded) }
    }
    for v in chunks.into_remainder() {
        *v = round_trip1(*v);
    }
}

/// The 4 × 4 transpose of 128-bit lanes: lane `c` of output `j` is lane
/// `j` of input `c`.
#[target_feature(enable = "avx512f")]
#[inline]
fn transpose([p0, p1, p2, p3]: [__m512; 4]) -> [__m512; 4] {
    // Lanes 0–1 of the first source, then lanes 0–1 (or 2–3) of the
    // second: [p0.0, p0.1, p1.0, p1.1] and so on.
    let t0 = _mm512_shuffle_f32x4::<0b01_00_01_00>(p0, p1);
    let t1 = _mm512_shuffle_f32x4::<0b11_10_11_10>(p0, p1);
    let t2 = _mm512_shuffle_f32x4::<0b01_00_01_00>(p2, p3);
    let t3 = _mm512_shuffle_f32x4::<0b11_10_11_10>(p2, p3);
    // Even then odd lanes of each pair: [p0.0, p1.0, p2.0, p3.0] and so on.
    [
        _mm512_shuffle_f32x4::<0b10_00_10_00>(t0, t2),
        _mm512_shuffle_f32x4::<0b11_01_11_01>(t0, t2),
        _mm512_shuffle_f32x4::<0b10_00_10_00>(t1, t3),
        _mm512_shuffle_f32x4::<0b11_01_11_01>(t1, t3),
    ]
}

#[target_feature(enable = "avx512f,f16c")]
fn rescore(
    q: &[f32],
    ids: &[u64],
    db: &VectorSet,
    metric: Metric,
    f16_vectors: bool,
    hits: &mut Vec<Neighbor>,
) {
    match (metric, f16_vectors) {
        (Metric::L2, true) => rescore_as::<true, true>(q, ids, db, hits),
        (Metric::L2, false) => rescore_as::<false, true>(q, ids, db, hits),
        (Metric::InnerProduct, true) => rescore_as::<true, false>(q, ids, db, hits),
        (Metric::InnerProduct, false) => rescore_as::<false, false>(q, ids, db, hits),
    }
}

/// [`rescore`] for one precision (`ROUND`: through binary16) and one
/// metric (`L2`, else inner product): groups of four candidates, each
/// prefetching the rows [`PREFETCH_GROUPS`] groups ahead, then the 1–3
/// left over as one group padded with the last of them (lanes score
/// independently, so a repeated row changes no other lane).
#[target_feature(enable = "avx512f,f16c")]
#[inline]
fn rescore_as<const ROUND: bool, const L2: bool>(
    q: &[f32],
    ids: &[u64],
    db: &VectorSet,
    hits: &mut Vec<Neighbor>,
) {
    let row = |id: u64| db.row(id as usize);
    for group in 0..PREFETCH_GROUPS {
        prefetch_group(db, ids, group);
    }
    let mut groups = ids.chunks_exact(4);
    for (group, g) in (&mut groups).enumerate() {
        prefetch_group(db, ids, group + PREFETCH_GROUPS);
        let scores = similarities::<ROUND, L2>(q, [row(g[0]), row(g[1]), row(g[2]), row(g[3])]);
        hits.extend(g.iter().zip(scores).map(|(&id, s)| Neighbor::new(id, s)));
    }
    let rest = groups.remainder();
    if let Some(&last) = rest.last() {
        let pick = |c: usize| row(rest.get(c).copied().unwrap_or(last));
        let scores = similarities::<ROUND, L2>(q, [pick(0), pick(1), pick(2), pick(3)]);
        hits.extend(rest.iter().zip(scores).map(|(&id, s)| Neighbor::new(id, s)));
    }
}

/// `metric.similarity(q, x)` for four rows `x` at once, each row's
/// arithmetic exactly the portable function's (see the module docs).
#[target_feature(enable = "avx512f,f16c")]
#[inline]
fn similarities<const ROUND: bool, const L2: bool>(q: &[f32], rows: [&[f32]; 4]) -> [f32; 4] {
    let dim = q.len();
    // One length check per row up front, so the loads below need no more.
    let rows = rows.map(|r| &r[..dim]);
    let (blocks, body) = (dim / 16 * 16, dim / 4 * 4);
    // `qv` against `xv`, lane-wise: the squared difference or the product.
    let term = |qv: __m512, xv: __m512| {
        let xv = if ROUND { round_trip16(xv) } else { xv };
        if L2 {
            let d = _mm512_sub_ps(qv, xv);
            _mm512_mul_ps(d, d)
        } else {
            _mm512_mul_ps(qv, xv)
        }
    };
    // 128-bit lane `c` holds candidate `c`'s accumulators `i % 4`.
    let mut acc = _mm512_setzero_ps();
    for o in (0..blocks).step_by(16) {
        let qv = load16(&q[o..]);
        let chunks = transpose(rows.map(|x| term(qv, load16(&x[o..]))));
        for c in chunks {
            acc = _mm512_add_ps(acc, c);
        }
    }
    for o in (blocks..body).step_by(4) {
        let qv = _mm512_broadcast_f32x4(load(&q[o..]));
        let [x0, x1, x2, x3] = rows.map(|x| load(&x[o..]));
        let xv = _mm512_insertf32x4::<1>(_mm512_castps128_ps512(x0), x1);
        let xv = _mm512_insertf32x4::<2>(xv, x2);
        let xv = _mm512_insertf32x4::<3>(xv, x3);
        acc = _mm512_add_ps(acc, term(qv, xv));
    }
    let per_candidate = [
        _mm512_extractf32x4_ps::<0>(acc),
        _mm512_extractf32x4_ps::<1>(acc),
        _mm512_extractf32x4_ps::<2>(acc),
        _mm512_extractf32x4_ps::<3>(acc),
    ];
    let mut out = [0.0f32; 4];
    for ((s, a), x) in out.iter_mut().zip(per_candidate).zip(rows) {
        let [a0, a1, a2, a3] = lanes(a);
        let mut sum = a0 + a1 + a2 + a3;
        for (&qi, &xi) in q[body..].iter().zip(&x[body..]) {
            let xi = if ROUND { round_trip1(xi) } else { xi };
            sum += if L2 {
                let d = qi - xi;
                d * d
            } else {
                qi * xi
            };
        }
        *s = if L2 { -sum } else { sum };
    }
    out
}
