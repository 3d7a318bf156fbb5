//! Run-scale profiles and the scaling protocol.
//!
//! Recall is measured on scaled synthetic stand-ins (DESIGN.md,
//! substitution 1); accelerator/CPU/GPU timing is computed at the paper's
//! full scale from cluster-size models. The two are paired *rank-wise*: the
//! i-th scaled `W` (recall) pairs with the i-th paper-scale `W`
//! (throughput/latency), so each reported series is a monotone
//! recall-vs-QPS frontier exactly as in Figure 8.

/// How big the measured (recall) side of an experiment runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Scaled database size for recall measurement.
    pub db_n: usize,
    /// Query count for recall measurement.
    pub num_queries: usize,
    /// Scaled coarse cluster count.
    pub num_clusters: usize,
    /// Recall metric `X` (paper: 100).
    pub recall_x: usize,
    /// Recall metric `Y` = candidates retrieved (paper: 1000).
    pub recall_y: usize,
    /// `W` values used on the scaled index for recall.
    pub scaled_w: Vec<usize>,
    /// `W` values used at paper scale for timing, paired rank-wise with
    /// `scaled_w` (billion-scale plots; million-scale uses half of each).
    pub paper_w: Vec<usize>,
    /// Batch size `B` for throughput runs (paper: 1000).
    pub batch: usize,
    /// Training iterations (lower in quick mode).
    pub train_iters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Scale {
    /// A fast profile for looking at a figure (seconds per plot); `runall`
    /// prints it and writes nothing.
    pub fn quick() -> Self {
        Self {
            db_n: 12_000,
            num_queries: 48,
            num_clusters: 48,
            recall_x: 10,
            recall_y: 100,
            scaled_w: vec![1, 2, 4, 8, 16],
            paper_w: vec![8, 16, 32, 64, 128],
            batch: 1000,
            train_iters: 4,
            seed: 20_220_401,
        }
    }

    /// The full reproduction profile, the one `reports/*.json` is committed
    /// under (`runall --full`; recall is measured at the paper's 100@1000
    /// on a 24k-vector stand-in).
    pub fn full() -> Self {
        Self {
            db_n: 24_000,
            num_queries: 96,
            num_clusters: 64,
            recall_x: 100,
            recall_y: 1000,
            scaled_w: vec![1, 2, 4, 8, 16, 32],
            paper_w: vec![4, 8, 16, 32, 64, 128],
            batch: 1000,
            train_iters: 6,
            seed: 20_220_401,
        }
    }

    /// Paper-scale `W` list for a dataset (million-scale sweeps lower `W`
    /// because `|C| = 250`).
    pub fn paper_w_for(&self, billion: bool) -> Vec<usize> {
        if billion {
            self.paper_w.clone()
        } else {
            self.paper_w.iter().map(|&w| (w / 4).max(1)).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_are_rank_paired() {
        for s in [Scale::quick(), Scale::full()] {
            assert_eq!(s.scaled_w.len(), s.paper_w.len());
            assert!(s.scaled_w.windows(2).all(|w| w[0] < w[1]));
            assert!(s.paper_w.windows(2).all(|w| w[0] < w[1]));
            assert!(*s.scaled_w.last().unwrap() <= s.num_clusters);
        }
    }

    #[test]
    fn million_scale_w_is_reduced() {
        let s = Scale::quick();
        let b = s.paper_w_for(true);
        let m = s.paper_w_for(false);
        assert!(m.iter().zip(&b).all(|(a, b)| a <= b));
        assert!(m[0] >= 1);
    }

    #[test]
    fn recall_y_exceeds_x() {
        for s in [Scale::quick(), Scale::full()] {
            assert!(s.recall_y > s.recall_x);
        }
    }
}
