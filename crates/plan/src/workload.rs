//! Workload descriptions: search shapes and visit structure.
//!
//! ANNA's runtime depends on the workload only through shapes and sizes —
//! `D`, `M`, `k*`, the metric, `|C|`, `k`, and the sizes of the clusters
//! each query visits. [`SearchShape`], [`QueryWorkload`] and
//! [`BatchWorkload`] capture exactly that, so the timing engines can run at
//! full paper scale (N = 10⁹) without materializing data, while the
//! functional accelerator and the software batch engine derive the same
//! structures from a real index.

use anna_vector::Metric;

/// The static shape of a search configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchShape {
    /// Vector dimension `D`.
    pub d: usize,
    /// PQ sub-vector count `M`.
    pub m: usize,
    /// Codewords per codebook `k*` (16 or 256).
    pub kstar: usize,
    /// Similarity metric (decides whether LUTs are rebuilt per cluster).
    pub metric: Metric,
    /// Total number of coarse clusters `|C|`.
    pub num_clusters: usize,
    /// Top-k entries tracked per query.
    pub k: usize,
}

impl SearchShape {
    /// Bits per encoded identifier, `log2 k*`.
    pub fn code_bits(&self) -> u32 {
        (usize::BITS - 1) - self.kstar.leading_zeros()
    }

    /// Bytes per encoded vector, `M · log2 k* / 8` (Section II-B).
    pub fn encoded_bytes_per_vector(&self) -> usize {
        (self.m * self.code_bits() as usize).div_ceil(8)
    }

    /// SCM cycles to score one encoded vector: `⌈M / N_u⌉`
    /// (Section III-B(3): "when M=128 and N_u=64, the module will take two
    /// cycles to process a single entry with pipelining").
    pub fn scan_cycles_per_vector(&self, n_u: usize) -> u64 {
        (self.m as u64).div_ceil(n_u as u64)
    }

    /// CPM cycles to fill one query's full set of `M` lookup tables:
    /// `D·k*/N_cu` (Section III-B, Mode 3).
    pub fn lut_fill_cycles(&self, n_cu: usize) -> f64 {
        self.d as f64 * self.kstar as f64 / n_cu as f64
    }

    /// CPM cycles for the cluster-filtering step of one query:
    /// `D·|C|/N_cu` (Section III-B, Mode 1).
    pub fn filter_compute_cycles(&self, n_cu: usize) -> f64 {
        self.d as f64 * self.num_clusters as f64 / n_cu as f64
    }

    /// Bytes of centroid data streamed during cluster filtering:
    /// `2·D·|C|` at 2-byte elements.
    pub fn centroid_bytes(&self) -> u64 {
        2 * self.d as u64 * self.num_clusters as u64
    }

    /// Sanity-checks the shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is degenerate (zero sizes, `k*` not 16/256, or
    /// `M` not dividing `D`).
    pub fn assert_valid(&self) {
        assert!(self.d > 0 && self.m > 0 && self.num_clusters > 0 && self.k > 0);
        assert!(
            self.kstar == 16 || self.kstar == 256,
            "ANNA supports k* of 16 and 256, got {}",
            self.kstar
        );
        assert!(
            self.d.is_multiple_of(self.m),
            "M={} must divide D={}",
            self.m,
            self.d
        );
    }
}

/// A single query's timing-relevant workload: the sizes of the `W` clusters
/// it visits.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryWorkload {
    /// Search shape.
    pub shape: SearchShape,
    /// Sizes `|C_i|` of the visited clusters, in visit order.
    pub visited_cluster_sizes: Vec<usize>,
}

impl QueryWorkload {
    /// `W`, the number of clusters visited.
    pub fn w(&self) -> usize {
        self.visited_cluster_sizes.len()
    }

    /// Encoded vectors scanned in total.
    pub fn vectors_scanned(&self) -> u64 {
        self.visited_cluster_sizes.iter().map(|&s| s as u64).sum()
    }
}

/// A batched workload: cluster sizes plus each query's visit list.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchWorkload {
    /// Search shape.
    pub shape: SearchShape,
    /// All cluster sizes `|C_i|` (length `|C|`).
    pub cluster_sizes: Vec<usize>,
    /// Per-query visited cluster ids (each of length `W`).
    pub visits: Vec<Vec<usize>>,
}

impl BatchWorkload {
    /// Batch size `B`.
    pub fn b(&self) -> usize {
        self.visits.len()
    }

    /// Total query→cluster visits, `Σ_q |W_q|`.
    pub fn total_visits(&self) -> u64 {
        self.visits.iter().map(|v| v.len() as u64).sum()
    }

    /// Inverts the visit lists into per-cluster visitor lists (the
    /// main-memory "array of arrays" of Section IV-A).
    pub fn visitors_per_cluster(&self) -> Vec<Vec<usize>> {
        let mut v: Vec<Vec<usize>> = vec![Vec::new(); self.cluster_sizes.len()];
        for (q, visits) in self.visits.iter().enumerate() {
            for &c in visits {
                v[c].push(q);
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> SearchShape {
        SearchShape {
            d: 128,
            m: 64,
            kstar: 256,
            metric: Metric::L2,
            num_clusters: 10_000,
            k: 1000,
        }
    }

    #[test]
    fn encoded_bytes_match_paper() {
        let s = shape();
        assert_eq!(s.code_bits(), 8);
        assert_eq!(s.encoded_bytes_per_vector(), 64);
        let s16 = SearchShape {
            kstar: 16,
            m: 128,
            ..s
        };
        assert_eq!(s16.code_bits(), 4);
        assert_eq!(s16.encoded_bytes_per_vector(), 64);
    }

    #[test]
    fn scan_cycles_match_section_3b_example() {
        // "when M=128 and N_u=64, the module will take two cycles".
        let s = SearchShape {
            m: 128,
            kstar: 16,
            ..shape()
        };
        assert_eq!(s.scan_cycles_per_vector(64), 2);
        assert_eq!(shape().scan_cycles_per_vector(64), 1);
    }

    #[test]
    fn lut_fill_matches_formula() {
        // D·k*/N_cu = 128·256/96.
        let c = shape().lut_fill_cycles(96);
        assert!((c - 128.0 * 256.0 / 96.0).abs() < 1e-9);
    }

    #[test]
    fn filter_compute_matches_formula() {
        let c = shape().filter_compute_cycles(96);
        assert!((c - 128.0 * 10_000.0 / 96.0).abs() < 1e-9);
    }

    #[test]
    fn visitors_invert_visits() {
        let w = BatchWorkload {
            shape: shape(),
            cluster_sizes: vec![10, 20, 30],
            visits: vec![vec![0, 2], vec![2]],
        };
        let v = w.visitors_per_cluster();
        assert_eq!(v[0], vec![0]);
        assert!(v[1].is_empty());
        assert_eq!(v[2], vec![0, 1]);
        assert_eq!(w.total_visits(), 3);
    }

    #[test]
    #[should_panic(expected = "k* of 16 and 256")]
    fn invalid_kstar_rejected() {
        SearchShape {
            kstar: 32,
            ..shape()
        }
        .assert_valid();
    }
}
