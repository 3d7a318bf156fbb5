//! Cluster-size distributions at full paper scale.
//!
//! ANNA's timing depends on the workload only through the sizes of the
//! clusters each query visits (`|C_i|` in the Section IV-B cycle formulas),
//! `W`, `M`, `k*` and `D` — not through the vector values themselves. These
//! models let the simulator time billion-scale runs (N = 10⁹,
//! |C| = 10 000) without materializing a billion vectors.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A synthetic distribution of database vectors over coarse clusters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSizeModel {
    sizes: Vec<usize>,
}

impl ClusterSizeModel {
    /// All clusters the same size (`n / c`, remainder spread over the first
    /// clusters). The best case for ANNA's double buffering.
    ///
    /// # Panics
    ///
    /// Panics if `c == 0`.
    pub fn balanced(n: u64, c: usize) -> Self {
        assert!(c > 0, "need at least one cluster");
        let base = (n / c as u64) as usize;
        let rem = (n % c as u64) as usize;
        let sizes = (0..c).map(|i| base + usize::from(i < rem)).collect();
        Self { sizes }
    }

    /// Skewed sizes following a power law with exponent `alpha` (k-means on
    /// real data produces moderately imbalanced clusters; `alpha ≈ 0.5–1`
    /// is a reasonable stand-in). Sizes are scaled to sum to `n`.
    ///
    /// # Panics
    ///
    /// Panics if `c == 0` or `alpha < 0`.
    pub fn skewed(n: u64, c: usize, alpha: f64, seed: u64) -> Self {
        assert!(c > 0, "need at least one cluster");
        assert!(alpha >= 0.0, "alpha must be non-negative");
        let mut rng = StdRng::seed_from_u64(seed);
        // Power-law weights with random shuffle so "hot" clusters are not
        // always the low ids.
        let mut weights: Vec<f64> = (1..=c).map(|r| (r as f64).powf(-alpha)).collect();
        for i in (1..weights.len()).rev() {
            let j = rng.gen_range(0..=i);
            weights.swap(i, j);
        }
        let total: f64 = weights.iter().sum();
        let mut sizes: Vec<usize> = weights
            .iter()
            .map(|w| ((w / total) * n as f64).floor() as usize)
            .collect();
        // Distribute the rounding remainder deterministically.
        let mut assigned: u64 = sizes.iter().map(|&s| s as u64).sum();
        let mut i = 0;
        while assigned < n {
            sizes[i % c] += 1;
            assigned += 1;
            i += 1;
        }
        Self { sizes }
    }

    /// Wraps measured sizes (e.g. from a real [`anna_vector::VectorSet`]
    /// index build) as a model.
    pub fn from_sizes(sizes: Vec<usize>) -> Self {
        Self { sizes }
    }

    /// The per-cluster sizes `|C_i|`.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Number of clusters `|C|`.
    pub fn num_clusters(&self) -> usize {
        self.sizes.len()
    }

    /// Total vectors `N`.
    pub fn total(&self) -> u64 {
        self.sizes.iter().map(|&s| s as u64).sum()
    }

    /// Mean cluster size.
    pub fn mean(&self) -> f64 {
        self.total() as f64 / self.num_clusters() as f64
    }

    /// Draws the cluster lists `W` queries would visit: each query visits
    /// `w` distinct clusters, biased toward large clusters (a query is more
    /// likely to fall near a populous region), which matches how real
    /// cluster filtering behaves.
    ///
    /// # Panics
    ///
    /// Panics if `w > self.num_clusters()`.
    pub fn sample_query_visits(&self, num_queries: usize, w: usize, seed: u64) -> Vec<Vec<usize>> {
        assert!(w <= self.num_clusters(), "w exceeds cluster count");
        let mut rng = StdRng::seed_from_u64(seed);
        let total = self.total();
        // Prefix sums for O(log |C|) size-biased draws — paper-scale
        // workloads sample B·W ≈ 10^5 picks over |C| = 10^4 clusters.
        let mut prefix: Vec<u64> = Vec::with_capacity(self.sizes.len());
        let mut acc = 0u64;
        for &s in &self.sizes {
            acc += s as u64;
            prefix.push(acc);
        }
        (0..num_queries)
            .map(|_| {
                let mut chosen = Vec::with_capacity(w);
                let mut taken = vec![false; self.num_clusters()];
                let mut misses = 0usize;
                while chosen.len() < w {
                    let t = rng.gen_range(0..total.max(1));
                    let pick = prefix.partition_point(|&p| p <= t);
                    if !taken[pick] {
                        taken[pick] = true;
                        chosen.push(pick);
                        misses = 0;
                    } else {
                        misses += 1;
                        if misses > 32 {
                            // Extreme skew: fall back to the next free
                            // cluster to guarantee termination.
                            let alt = (pick + 1..self.num_clusters())
                                .chain(0..pick)
                                .find(|&i| !taken[i])
                                .expect("w <= |C| guarantees a free cluster");
                            taken[alt] = true;
                            chosen.push(alt);
                            misses = 0;
                        }
                    }
                }
                chosen
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_sums_exactly() {
        let m = ClusterSizeModel::balanced(1_000_000_000, 10_000);
        assert_eq!(m.total(), 1_000_000_000);
        assert_eq!(m.num_clusters(), 10_000);
        assert_eq!(m.sizes()[0], 100_000);
        assert_eq!(m.sizes()[9_999], 100_000);
    }

    #[test]
    fn balanced_spreads_remainder() {
        let m = ClusterSizeModel::balanced(10, 3);
        assert_eq!(m.sizes(), &[4, 3, 3]);
        assert_eq!(m.total(), 10);
    }

    #[test]
    fn skewed_sums_exactly_and_is_skewed() {
        let m = ClusterSizeModel::skewed(1_000_000, 100, 1.0, 42);
        assert_eq!(m.total(), 1_000_000);
        let max = *m.sizes().iter().max().unwrap();
        let min = *m.sizes().iter().min().unwrap();
        assert!(max > 3 * min.max(1), "not skewed: {min}..{max}");
    }

    #[test]
    fn skewed_alpha_zero_is_nearly_balanced() {
        let m = ClusterSizeModel::skewed(100_000, 100, 0.0, 1);
        let max = *m.sizes().iter().max().unwrap();
        let min = *m.sizes().iter().min().unwrap();
        assert!(max - min <= 1, "alpha=0 should be uniform: {min}..{max}");
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn skewed_rejects_zero_clusters() {
        ClusterSizeModel::skewed(1000, 0, 0.5, 1);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn skewed_rejects_negative_alpha() {
        ClusterSizeModel::skewed(1000, 10, -0.1, 1);
    }

    #[test]
    fn skewed_handles_fewer_vectors_than_clusters() {
        // total < num_clusters: sizes must still sum exactly (some
        // clusters end up empty), at every skew.
        for alpha in [0.0, 0.5, 1.0] {
            let m = ClusterSizeModel::skewed(7, 20, alpha, 3);
            assert_eq!(m.num_clusters(), 20);
            assert_eq!(m.total(), 7, "alpha={alpha}");
            assert!(m.sizes().contains(&0));
        }
        // The degenerate floor: zero vectors over many clusters.
        let empty = ClusterSizeModel::skewed(0, 5, 1.0, 3);
        assert_eq!(empty.total(), 0);
        assert_eq!(empty.sizes(), &[0; 5]);
    }

    #[test]
    fn skewed_alpha_one_sums_exactly_and_orders_by_weight() {
        // alpha = 1 is the paper-ish heavy tail; the invariants that feed
        // real execution are exact totals and a genuinely skewed shape.
        let m = ClusterSizeModel::skewed(50_000, 64, 1.0, 9);
        assert_eq!(m.total(), 50_000);
        let max = *m.sizes().iter().max().unwrap();
        assert!(
            max as f64 > 2.0 * m.mean(),
            "alpha=1 should concentrate mass: max={max} mean={}",
            m.mean()
        );
    }

    #[test]
    fn query_visits_have_w_distinct_clusters() {
        let m = ClusterSizeModel::skewed(100_000, 50, 0.8, 7);
        let visits = m.sample_query_visits(20, 8, 3);
        assert_eq!(visits.len(), 20);
        for v in &visits {
            assert_eq!(v.len(), 8);
            let mut sorted = v.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 8, "duplicate clusters in visit list");
        }
    }

    #[test]
    fn visits_bias_toward_large_clusters() {
        let mut sizes = vec![10usize; 100];
        sizes[0] = 100_000; // one giant cluster
        let m = ClusterSizeModel::from_sizes(sizes);
        let visits = m.sample_query_visits(200, 1, 9);
        let hits = visits.iter().filter(|v| v[0] == 0).count();
        assert!(hits > 150, "giant cluster only picked {hits}/200 times");
    }

    #[test]
    fn deterministic_given_seed() {
        let m = ClusterSizeModel::skewed(10_000, 20, 0.5, 11);
        assert_eq!(
            m.sample_query_visits(5, 3, 2),
            m.sample_query_visits(5, 3, 2)
        );
    }
}
