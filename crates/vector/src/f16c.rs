//! The F16C arm: binary16 rounding in registers (`vcvtps2ph` then
//! `vcvtph2ps`) for the re-rank rescore
//! ([`crate::exact::rescore_subset_with`]). A slice round trip on the same
//! instructions is built for the tests only: it is the hardware reference
//! the software [`crate::F16`] conversions are checked against.
//!
//! Everything here returns what the portable path returns, bit for bit.
//! The software [`crate::F16`] conversions are IEEE round-to-nearest-even
//! with the hardware's NaN rule, so a rounded element is the same f32
//! either way. The rescore keeps [`crate::metric::l2_squared`]'s and
//! [`crate::metric::dot`]'s addition order for every candidate: element
//! `i` goes into lane `i % 4` of that candidate's own 128-bit accumulator,
//! multiply and add stay separate instructions (never a fused
//! multiply-add), the lanes reduce as `((a0 + a1) + a2) + a3`, and the
//! tail elements follow one by one. Four candidates share a pass, so four
//! independent accumulator chains — and four rows' loads — are in flight
//! at once.

use std::arch::x86_64::*;
use std::sync::OnceLock;

use crate::matrix::VectorSet;
use crate::metric::Metric;
use crate::topk::Neighbor;

/// Proof that the host runs F16C: only [`F16c::detect`] makes one, which
/// is what lets the safe methods below enter the
/// `#[target_feature(enable = "f16c")]` kernels.
#[derive(Debug, Clone, Copy)]
pub(crate) struct F16c(());

impl F16c {
    /// The F16C arm, if the host CPU has the feature.
    pub(crate) fn detect() -> Option<F16c> {
        is_x86_feature_detected!("f16c").then_some(F16c(()))
    }

    /// The arm this process runs: the detected one unless
    /// `ANNA_FORCE_SCALAR` pins the portable path. Resolved once, then
    /// cached.
    pub(crate) fn enabled() -> Option<F16c> {
        static ENABLED: OnceLock<Option<F16c>> = OnceLock::new();
        *ENABLED.get_or_init(|| {
            if crate::env_force_scalar() {
                None
            } else {
                F16c::detect()
            }
        })
    }

    /// Rounds every element of `vs` through binary16 in place.
    #[cfg(test)]
    pub(crate) fn round_trip_slice(self, vs: &mut [f32]) {
        // SAFETY: `self` exists only where `detect` found F16C, the one
        // feature the kernel enables; it touches memory only through `vs`.
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
        // SAFETY: `self` exists only where `detect` found F16C, the one
        // feature the kernel enables; it reads only through the slices it
        // is given.
        unsafe { rescore(q, ids, db, metric, f16_vectors, hits) }
    }
}

/// Four consecutive elements as one register.
#[target_feature(enable = "f16c")]
#[inline]
fn load(c: &[f32]) -> __m128 {
    let c = &c[..4];
    _mm_set_ps(c[3], c[2], c[1], c[0])
}

/// The four lanes of `v`, lane 0 first.
#[target_feature(enable = "f16c")]
#[inline]
fn lanes(v: __m128) -> [f32; 4] {
    [
        _mm_cvtss_f32(v),
        _mm_cvtss_f32(_mm_shuffle_ps::<0b01_01_01_01>(v, v)),
        _mm_cvtss_f32(_mm_movehl_ps(v, v)),
        _mm_cvtss_f32(_mm_shuffle_ps::<0b11_11_11_11>(v, v)),
    ]
}

/// Every lane rounded to the nearest binary16 (ties to even) and back.
#[target_feature(enable = "f16c")]
#[inline]
fn round_trip4(v: __m128) -> __m128 {
    _mm_cvtph_ps(_mm_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v))
}

#[target_feature(enable = "f16c")]
#[inline]
fn round_trip1(v: f32) -> f32 {
    _mm_cvtss_f32(round_trip4(_mm_set_ss(v)))
}

#[cfg(test)]
#[target_feature(enable = "f16c")]
fn round_trip_slice(vs: &mut [f32]) {
    let mut chunks = vs.chunks_exact_mut(4);
    for c in &mut chunks {
        let rounded = lanes(round_trip4(load(c)));
        c.copy_from_slice(&rounded);
    }
    for v in chunks.into_remainder() {
        *v = round_trip1(*v);
    }
}

#[target_feature(enable = "f16c")]
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
/// metric (`L2`, else inner product): groups of four candidates, then the
/// 0–3 left over one at a time through the same code.
#[target_feature(enable = "f16c")]
#[inline]
fn rescore_as<const ROUND: bool, const L2: bool>(
    q: &[f32],
    ids: &[u64],
    db: &VectorSet,
    hits: &mut Vec<Neighbor>,
) {
    let row = |id: u64| db.row(id as usize);
    let mut groups = ids.chunks_exact(4);
    for g in &mut groups {
        let scores = similarities::<4, ROUND, L2>(q, [row(g[0]), row(g[1]), row(g[2]), row(g[3])]);
        hits.extend(g.iter().zip(scores).map(|(&id, s)| Neighbor::new(id, s)));
    }
    for &id in groups.remainder() {
        let [score] = similarities::<1, ROUND, L2>(q, [row(id)]);
        hits.push(Neighbor::new(id, score));
    }
}

/// `metric.similarity(q, x)` for `N` rows `x` at once, each row's
/// arithmetic exactly the portable function's (see the module docs).
#[target_feature(enable = "f16c")]
#[inline]
fn similarities<const N: usize, const ROUND: bool, const L2: bool>(
    q: &[f32],
    rows: [&[f32]; N],
) -> [f32; N] {
    let dim = q.len();
    // One length check per row up front, so the chunk loads below need no
    // more.
    let rows = rows.map(|r| &r[..dim]);
    let body = dim / 4 * 4;
    let mut acc = [_mm_setzero_ps(); N];
    for o in (0..body).step_by(4) {
        let qv = load(&q[o..]);
        for (a, x) in acc.iter_mut().zip(&rows) {
            let xv = load(&x[o..]);
            let xv = if ROUND { round_trip4(xv) } else { xv };
            *a = if L2 {
                let d = _mm_sub_ps(qv, xv);
                _mm_add_ps(*a, _mm_mul_ps(d, d))
            } else {
                _mm_add_ps(*a, _mm_mul_ps(qv, xv))
            };
        }
    }
    let mut out = [0.0f32; N];
    for ((s, a), x) in out.iter_mut().zip(acc).zip(rows) {
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
