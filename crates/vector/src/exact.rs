//! Exhaustive (exact) k-nearest-neighbor search.
//!
//! Computes the similarity between every query and every database vector and
//! keeps the top-k — the "naïve" search of Section II-A, whose cost
//! (`N·D` multiply-adds and `2·N·D` bytes of traffic per query at float16)
//! motivates the whole paper. It serves two roles here:
//!
//! 1. Ground truth for recall measurement (`anna-data`).
//! 2. The "exhaustive, exact nearest neighbor search" QPS footnote under
//!    each plot of Figure 8 (`anna-baseline::exhaustive`).

use crate::f16;
use crate::matrix::VectorSet;
use crate::metric::Metric;
use crate::topk::{sort_neighbors, Neighbor, TopK};
use crate::KernelDispatch;

/// Searches every query in `queries` against every vector in `db`, returning
/// the `k` most similar database ids per query (best first).
///
/// Queries are processed in parallel across all available cores with scoped
/// threads; results are returned in query order.
///
/// Ranking uses the shared score-then-id total order
/// ([`sort_neighbors`]): under score ties (duplicated vectors, symmetric
/// data) the lower id always wins, so ground truth computed here is
/// stable and comparable against any other pipeline that ranks through
/// [`Neighbor`]'s order — which is all of them.
///
/// # Panics
///
/// Panics if the dimensions of `queries` and `db` differ, or `k == 0`.
///
/// # Example
///
/// ```
/// use anna_vector::{exact, Metric, VectorSet};
///
/// let db = VectorSet::from_rows(2, &[0.0, 0.0, 1.0, 1.0, 2.0, 2.0]);
/// let q = VectorSet::from_rows(2, &[1.9, 1.9]);
/// let hits = exact::search(&q, &db, Metric::L2, 1);
/// assert_eq!(hits[0][0].id, 2);
/// ```
pub fn search(queries: &VectorSet, db: &VectorSet, metric: Metric, k: usize) -> Vec<Vec<Neighbor>> {
    assert_eq!(queries.dim(), db.dim(), "query/database dimension mismatch");
    assert!(k > 0, "k must be positive");

    let nq = queries.len();
    let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); nq];
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let chunk = nq.div_ceil(threads.max(1)).max(1);

    std::thread::scope(|s| {
        for (qchunk, out) in queries
            .as_slice()
            .chunks(chunk * queries.dim())
            .zip(results.chunks_mut(chunk))
        {
            s.spawn(move || {
                for (qi, q) in qchunk.chunks_exact(db.dim()).enumerate() {
                    out[qi] = search_one(q, db, metric, k);
                }
            });
        }
    });

    results
}

/// Searches a single query against every vector in `db`.
///
/// # Panics
///
/// Panics if `q.len() != db.dim()` or `k == 0`.
pub fn search_one(q: &[f32], db: &VectorSet, metric: Metric, k: usize) -> Vec<Neighbor> {
    assert_eq!(q.len(), db.dim(), "query/database dimension mismatch");
    let mut top = TopK::new(k);
    for (id, x) in db.iter().enumerate() {
        top.push(id as u64, metric.similarity(q, x));
    }
    top.into_sorted_vec()
}

/// Reusable buffers for [`rescore_subset_into`], so rescoring many
/// candidate lists (the re-rank stage's hot loop) allocates nothing after
/// the first call.
#[derive(Debug, Default)]
pub struct RescoreScratch {
    hits: Vec<Neighbor>,
    row: Vec<f32>,
}

impl RescoreScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Rescores the candidate ids in `ids` exactly against `db` and returns
/// the best `k`, best first — the re-rank oracle: instead of trusting the
/// first pass's quantized scores, each survivor's true vector is fetched
/// and its similarity to `q` recomputed in f32.
///
/// Results are ranked by the shared score-then-id total order
/// ([`sort_neighbors`]), so an `ids` list in any order produces the same
/// output and truncation keeps the same ids the exhaustive
/// [`search`] would under ties.
///
/// # Panics
///
/// Panics if `q.len() != db.dim()`, `k == 0`, or an id is out of range.
pub fn rescore_subset(
    q: &[f32],
    ids: &[u64],
    db: &VectorSet,
    metric: Metric,
    k: usize,
) -> Vec<Neighbor> {
    let mut scratch = RescoreScratch::new();
    let mut out = Vec::new();
    rescore_subset_into(q, ids, db, metric, k, false, &mut scratch, &mut out);
    out
}

/// Stable name of the rescore arm `dispatch` runs, for reports: `avx512`
/// under `avx512`, `f16c` under `avx2`, else `portable` (also every
/// dispatch off x86-64). Every arm returns `metric.similarity(q, x)` on
/// the (optionally rounded) row bit for bit and ranks alike:
///
/// - `portable` copies the row, rounds it by [`f16::round_trip`] and
///   scores it by [`Metric::similarity`], one candidate at a time;
/// - `f16c` rounds in XMM registers, four candidates per pass and four
///   elements of each per step;
/// - `avx512` rounds in ZMM registers, four candidates per pass and
///   sixteen elements of each per step.
pub fn rescore_arm_name(dispatch: KernelDispatch) -> &'static str {
    match dispatch {
        _ if !cfg!(target_arch = "x86_64") => "portable",
        KernelDispatch::Avx512 => "avx512",
        KernelDispatch::Avx2 => "f16c",
        KernelDispatch::Scalar | KernelDispatch::Blocked => "portable",
    }
}

/// Allocation-free core of [`rescore_subset`]: rescoring goes through
/// `scratch` and the final top-`k` (best first) replaces the contents of
/// `out`, so a caller looping over many candidate lists reuses the same
/// buffers throughout. Runs the arm of [`KernelDispatch::current`].
///
/// With `f16_vectors` set, every database element is rounded through
/// binary16 before scoring ([`f16::round_trip`]) — modelling a re-rank
/// stage that stores its rescore copy of the vectors at 2 bytes per
/// element; similarities still accumulate in f32.
///
/// # Panics
///
/// Panics if `q.len() != db.dim()`, `k == 0`, or an id is out of range.
#[allow(clippy::too_many_arguments)]
pub fn rescore_subset_into(
    q: &[f32],
    ids: &[u64],
    db: &VectorSet,
    metric: Metric,
    k: usize,
    f16_vectors: bool,
    scratch: &mut RescoreScratch,
    out: &mut Vec<Neighbor>,
) {
    let dispatch = KernelDispatch::current();
    rescore_subset_with(dispatch, q, ids, db, metric, k, f16_vectors, scratch, out);
}

/// [`rescore_subset_into`] on the rescore arm of an explicit
/// [`KernelDispatch`] ([`rescore_arm_name`]) — what the arm-equivalence
/// tests drive.
///
/// # Panics
///
/// As [`rescore_subset_into`], and if the host cannot run `dispatch`.
#[allow(clippy::too_many_arguments)]
pub fn rescore_subset_with(
    dispatch: KernelDispatch,
    q: &[f32],
    ids: &[u64],
    db: &VectorSet,
    metric: Metric,
    k: usize,
    f16_vectors: bool,
    scratch: &mut RescoreScratch,
    out: &mut Vec<Neighbor>,
) {
    assert_eq!(q.len(), db.dim(), "query/database dimension mismatch");
    assert!(k > 0, "k must be positive");
    assert!(
        dispatch.is_available(),
        "rescore on the {} dispatch, which this host cannot run",
        dispatch.name()
    );
    for &id in ids {
        assert!((id as usize) < db.len(), "candidate id {id} out of range");
    }
    let RescoreScratch { hits, row } = scratch;
    hits.clear();
    // The arms `rescore_arm_name` names; `dispatch` runs here, so its
    // level includes its arm's features.
    match dispatch {
        #[cfg(target_arch = "x86_64")]
        KernelDispatch::Avx512 => crate::avx512::Avx512::detected()
            .expect("the avx512 rescore arm without the avx512 level")
            .rescore(q, ids, db, metric, f16_vectors, hits),
        #[cfg(target_arch = "x86_64")]
        KernelDispatch::Avx2 => crate::f16c::F16c::detected()
            .expect("the f16c rescore arm without F16C")
            .rescore(q, ids, db, metric, f16_vectors, hits),
        _ => {
            for &id in ids {
                let x = db.row(id as usize);
                let score = if f16_vectors {
                    row.clear();
                    row.extend(x.iter().map(|&v| f16::round_trip(v)));
                    metric.similarity(q, row)
                } else {
                    metric.similarity(q, x)
                };
                hits.push(Neighbor::new(id, score));
            }
        }
    }
    // Only the best `k` need an order: `Neighbor`'s is total over distinct
    // ids, so the partial select keeps exactly the set a full sort would
    // put first.
    if hits.len() > k {
        hits.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
        hits.truncate(k);
    }
    sort_neighbors(hits);
    out.clear();
    out.extend_from_slice(hits);
}

/// The number of multiply-add operations an exhaustive search performs per
/// query (Section II-A: `N·D`).
pub fn madd_ops_per_query(db: &VectorSet) -> u64 {
    db.len() as u64 * db.dim() as u64
}

/// The bytes of memory traffic an exhaustive search reads per query at
/// 2-byte (float16) storage (Section II-A: `2·N·D`).
pub fn bytes_per_query(db: &VectorSet) -> u64 {
    2 * madd_ops_per_query(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_db() -> VectorSet {
        // 16 points on a line: (0,0), (1,1), ..., (15,15).
        VectorSet::from_fn(2, 16, |r, _| r as f32)
    }

    #[test]
    fn l2_finds_nearest_point() {
        let db = grid_db();
        let q = VectorSet::from_rows(2, &[6.3, 6.3]);
        let hits = search(&q, &db, Metric::L2, 3);
        let ids: Vec<u64> = hits[0].iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![6, 7, 5]);
    }

    #[test]
    fn inner_product_prefers_largest_vector() {
        let db = grid_db();
        let q = VectorSet::from_rows(2, &[1.0, 1.0]);
        let hits = search(&q, &db, Metric::InnerProduct, 2);
        assert_eq!(hits[0][0].id, 15);
        assert_eq!(hits[0][1].id, 14);
    }

    #[test]
    fn multiple_queries_return_in_order() {
        let db = grid_db();
        let q = VectorSet::from_rows(2, &[0.1, 0.1, 14.9, 14.9, 8.0, 8.0]);
        let hits = search(&q, &db, Metric::L2, 1);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0][0].id, 0);
        assert_eq!(hits[1][0].id, 15);
        assert_eq!(hits[2][0].id, 8);
    }

    #[test]
    fn parallel_matches_serial() {
        let db = VectorSet::from_fn(4, 200, |r, c| ((r * 7 + c * 13) % 31) as f32);
        let q = VectorSet::from_fn(4, 37, |r, c| ((r * 5 + c * 3) % 17) as f32);
        let par = search(&q, &db, Metric::L2, 5);
        for (qi, hits) in par.iter().enumerate() {
            let serial = search_one(q.row(qi), &db, Metric::L2, 5);
            assert_eq!(hits, &serial, "query {qi} diverged");
        }
    }

    #[test]
    fn cost_model_matches_section_2a() {
        let db = VectorSet::zeros(128, 1000);
        assert_eq!(madd_ops_per_query(&db), 128_000);
        assert_eq!(bytes_per_query(&db), 256_000);
    }

    #[test]
    fn k_larger_than_db_returns_everything() {
        let db = grid_db();
        let q = VectorSet::from_rows(2, &[0.0, 0.0]);
        let hits = search(&q, &db, Metric::L2, 100);
        assert_eq!(hits[0].len(), 16);
    }

    #[test]
    fn rescore_subset_matches_search_restricted_to_ids() {
        let db = VectorSet::from_fn(4, 100, |r, c| ((r * 7 + c * 13) % 31) as f32);
        let q = VectorSet::from_fn(4, 1, |_, c| (c * 3 % 17) as f32);
        let ids: Vec<u64> = (0..100).step_by(3).map(|i| i as u64).collect();
        for metric in [Metric::L2, Metric::InnerProduct] {
            let got = rescore_subset(q.row(0), &ids, &db, metric, 5);
            // Oracle: exhaustive search over a gathered copy of the subset,
            // ids mapped back.
            let rows: Vec<usize> = ids.iter().map(|&i| i as usize).collect();
            let sub = db.gather(&rows);
            let want: Vec<Neighbor> = search_one(q.row(0), &sub, metric, 5)
                .into_iter()
                .map(|n| Neighbor::new(ids[n.id as usize], n.score))
                .collect();
            assert_eq!(got, want, "{metric:?} rescoring diverged from search");
        }
    }

    #[test]
    fn rescore_subset_is_input_order_invariant() {
        let db = grid_db();
        let q = VectorSet::from_rows(2, &[6.3, 6.3]);
        let fwd: Vec<u64> = (0..16).collect();
        let rev: Vec<u64> = (0..16).rev().collect();
        let a = rescore_subset(q.row(0), &fwd, &db, Metric::L2, 4);
        let b = rescore_subset(q.row(0), &rev, &db, Metric::L2, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn duplicated_vectors_tie_break_to_lowest_id_everywhere() {
        // Every vector appears twice: ids i and i+8 are identical, so all
        // scores tie pairwise and truncation order is pure tie-breaking.
        let db = VectorSet::from_fn(2, 16, |r, _| (r % 8) as f32);
        let q = VectorSet::from_rows(2, &[0.0, 0.0]);
        let hits = search(&q, &db, Metric::L2, 3);
        let ids: Vec<u64> = hits[0].iter().map(|n| n.id).collect();
        // Best is the 0-vector pair {0, 8} (lower id first), then id 1.
        assert_eq!(ids, vec![0, 8, 1]);
        // The rescoring oracle agrees even when fed ids high-to-low.
        let all: Vec<u64> = (0..16).rev().collect();
        let rescored = rescore_subset(q.row(0), &all, &db, Metric::L2, 3);
        let rescored_ids: Vec<u64> = rescored.iter().map(|n| n.id).collect();
        assert_eq!(rescored_ids, vec![0, 8, 1]);
    }

    #[test]
    fn f16_rescoring_rounds_vectors_before_scoring() {
        // 4097 is not representable in binary16 (rounds to 4096): at f16
        // the two candidates tie and id 0 wins; at f32 id 1 wins.
        let db = VectorSet::from_rows(1, &[4096.0, 4097.0]);
        let q = VectorSet::from_rows(1, &[1.0]);
        let mut scratch = RescoreScratch::new();
        let mut out = Vec::new();
        rescore_subset_into(
            q.row(0),
            &[0, 1],
            &db,
            Metric::InnerProduct,
            1,
            true,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out[0].id, 0);
        assert_eq!(out[0].score, 4096.0);
        rescore_subset_into(
            q.row(0),
            &[0, 1],
            &db,
            Metric::InnerProduct,
            1,
            false,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out[0].id, 1);
        assert_eq!(out[0].score, 4097.0);
    }

    #[test]
    fn rescore_scratch_reuse_leaves_no_stale_state() {
        let db = grid_db();
        let q = VectorSet::from_rows(2, &[3.0, 3.0]);
        let mut scratch = RescoreScratch::new();
        let mut out = Vec::new();
        rescore_subset_into(
            q.row(0),
            &[0, 1, 2, 3, 4],
            &db,
            Metric::L2,
            5,
            false,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.len(), 5);
        // A smaller follow-up call must fully replace the output.
        rescore_subset_into(
            q.row(0),
            &[9],
            &db,
            Metric::L2,
            3,
            false,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rescore_subset_rejects_out_of_range_ids() {
        let db = grid_db();
        let q = VectorSet::from_rows(2, &[0.0, 0.0]);
        let _ = rescore_subset(q.row(0), &[16], &db, Metric::L2, 1);
    }
}
