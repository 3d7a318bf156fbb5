//! Ground truth and the paper's quality metric, recall `X@Y`.
//!
//! "model recall X@Y (i.e., the portion of retrieved top X items among
//! submitted Y candidates)" — Section V-A. Figure 8's x-axis is recall
//! 100@1000: the fraction of the true top-100 neighbors found within the
//! 1000 candidates the ANNS algorithm returns.

use anna_vector::{exact, Metric, Neighbor, VectorSet};

/// Exact top-X neighbor lists for a query batch.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    /// `x` of recall `X@Y` — how many true neighbors are stored per query.
    pub x: usize,
    /// Per-query true top-`x` ids, best first.
    pub ids: Vec<Vec<u64>>,
}

/// Computes exact top-`x` ground truth by exhaustive search.
///
/// Ties are pinned by the shared score-then-id total order
/// ([`anna_vector::sort_neighbors`]): under duplicated or equidistant
/// vectors the lower id is always the true neighbor, the same rule every
/// retrieval pipeline's truncation applies — so recall numbers are stable
/// across kernel families and candidate orderings instead of depending on
/// which of the tied ids happened to survive on each side.
///
/// # Panics
///
/// Panics if dimensions mismatch or `x == 0`.
pub fn ground_truth(queries: &VectorSet, db: &VectorSet, metric: Metric, x: usize) -> GroundTruth {
    let hits = exact::search(queries, db, metric, x);
    GroundTruth {
        x,
        ids: hits
            .into_iter()
            .map(|h| h.into_iter().map(|n| n.id).collect())
            .collect(),
    }
}

/// Recall `X@Y` for one query: the fraction of `truth` (top-X) present in
/// the first `y` entries of `retrieved`.
///
/// # Panics
///
/// Panics if `truth` is empty.
pub fn recall_one(truth: &[u64], retrieved: &[Neighbor], y: usize) -> f64 {
    assert!(!truth.is_empty(), "ground truth must be non-empty");
    let candidates: std::collections::HashSet<u64> =
        retrieved.iter().take(y).map(|n| n.id).collect();
    let found = truth.iter().filter(|id| candidates.contains(id)).count();
    found as f64 / truth.len() as f64
}

/// Mean recall `X@Y` over a query batch.
///
/// `results[q]` is the candidate list for query `q` (best first, length
/// usually `Y`); `gt.ids[q]` the true top-X.
///
/// # Panics
///
/// Panics if the batch sizes differ.
pub fn recall_x_at_y(gt: &GroundTruth, results: &[Vec<Neighbor>], y: usize) -> f64 {
    assert_eq!(gt.ids.len(), results.len(), "batch size mismatch");
    if gt.ids.is_empty() {
        return 0.0;
    }
    gt.ids
        .iter()
        .zip(results)
        .map(|(truth, res)| recall_one(truth, res, y))
        .sum::<f64>()
        / gt.ids.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use anna_vector::Neighbor;

    fn neighbors(ids: &[u64]) -> Vec<Neighbor> {
        ids.iter()
            .enumerate()
            .map(|(i, &id)| Neighbor::new(id, -(i as f32)))
            .collect()
    }

    #[test]
    fn perfect_retrieval_scores_one() {
        let truth = vec![1u64, 2, 3];
        let res = neighbors(&[3, 2, 1, 9, 8]);
        assert_eq!(recall_one(&truth, &res, 5), 1.0);
    }

    #[test]
    fn partial_retrieval_scores_fraction() {
        let truth = vec![1u64, 2, 3, 4];
        let res = neighbors(&[1, 9, 3, 8]);
        assert_eq!(recall_one(&truth, &res, 4), 0.5);
    }

    #[test]
    fn y_truncates_candidates() {
        let truth = vec![5u64];
        let res = neighbors(&[9, 8, 5]);
        assert_eq!(recall_one(&truth, &res, 2), 0.0);
        assert_eq!(recall_one(&truth, &res, 3), 1.0);
    }

    #[test]
    fn batch_recall_averages() {
        let gt = GroundTruth {
            x: 1,
            ids: vec![vec![1], vec![2]],
        };
        let results = vec![neighbors(&[1]), neighbors(&[9])];
        assert_eq!(recall_x_at_y(&gt, &results, 1), 0.5);
    }

    #[test]
    fn ground_truth_matches_exact_search() {
        let db = VectorSet::from_fn(2, 50, |r, _| r as f32);
        let q = VectorSet::from_rows(2, &[10.2, 10.2, 40.9, 40.9]);
        let gt = ground_truth(&q, &db, Metric::L2, 2);
        assert_eq!(gt.ids[0], vec![10, 11]);
        assert_eq!(gt.ids[1], vec![41, 40]);
    }

    #[test]
    fn duplicated_vectors_keep_recall_stable() {
        // Rows i and i+10 are identical, so every score ties pairwise and
        // ground truth is decided purely by the tie rule (lower id wins).
        let db = VectorSet::from_fn(2, 20, |r, _| (r % 10) as f32);
        let q = VectorSet::from_rows(2, &[3.1, 3.1]);
        let gt = ground_truth(&q, &db, Metric::L2, 3);
        assert_eq!(gt.ids[0], vec![3, 13, 4]);
        // A retrieval pipeline applying the same rule scores recall 1.0;
        // resolving even one tie the other way would drop it to 2/3.
        let aligned = vec![vec![
            Neighbor::new(3, 0.0),
            Neighbor::new(13, 0.0),
            Neighbor::new(4, -1.0),
        ]];
        assert_eq!(recall_x_at_y(&gt, &aligned, 3), 1.0);
        let misaligned = vec![vec![
            Neighbor::new(3, 0.0),
            Neighbor::new(13, 0.0),
            Neighbor::new(14, -1.0),
        ]];
        assert!((recall_x_at_y(&gt, &misaligned, 3) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn higher_nprobe_cannot_reduce_recall_shape() {
        // Sanity on the metric itself: a superset of candidates can only
        // raise recall.
        let truth = vec![1u64, 2, 3, 4, 5];
        let small = neighbors(&[1, 2]);
        let big = neighbors(&[1, 2, 3, 9, 4]);
        assert!(recall_one(&truth, &big, 5) >= recall_one(&truth, &small, 5));
    }
}
