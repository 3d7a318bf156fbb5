//! Exhaustive exact-search baseline — the three QPS footnotes under each
//! Figure 8 plot ("the QPS of exhaustive, exact nearest neighbor search on
//! ScaNN (CPU), Faiss (CPU), and Faiss (GPU)").

/// Analytic exhaustive-search throughput for a platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExhaustiveModel {
    /// Sustained multiply-add throughput, ops/s (all cores / SMs).
    pub madds_per_sec: f64,
    /// Sustained memory bandwidth, GB/s.
    pub mem_bandwidth_gbps: f64,
}

impl ExhaustiveModel {
    /// 8-core Skylake-X with AVX-512 FMA (2 × 16 f32 FMA/cycle/core at
    /// ~3.5 GHz ≈ 0.9 Tmadd/s) — both ScaNN and Faiss brute-force paths.
    pub fn cpu() -> Self {
        Self {
            madds_per_sec: 0.9e12,
            mem_bandwidth_gbps: 64.0,
        }
    }

    /// V100: ~7.8 Tmadd/s f32 sustained, 900 GB/s.
    pub fn gpu() -> Self {
        Self {
            madds_per_sec: 7.8e12,
            mem_bandwidth_gbps: 900.0,
        }
    }

    /// Queries per second scanning `n` vectors of dimension `d` at 2-byte
    /// elements: `min(compute, bandwidth)` roofline (Section II-A's
    /// `N·D` madds and `2·N·D` bytes).
    pub fn qps(&self, n: u64, d: usize) -> f64 {
        let madds = n as f64 * d as f64;
        let bytes = 2.0 * madds;
        let compute_qps = self.madds_per_sec / madds;
        let memory_qps = self.mem_bandwidth_gbps * 1e9 / bytes;
        compute_qps.min(memory_qps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn billion_scale_exhaustive_is_memory_bound_on_cpu() {
        let m = ExhaustiveModel::cpu();
        // 1B × 128 dims × 2 B = 256 GB per query at 64 GB/s -> 0.25 QPS.
        let qps = m.qps(1_000_000_000, 128);
        assert!((qps - 0.25).abs() < 0.01, "qps {qps}");
    }

    #[test]
    fn gpu_exhaustive_is_much_faster_than_cpu() {
        let cpu = ExhaustiveModel::cpu().qps(1_000_000_000, 96);
        let gpu = ExhaustiveModel::gpu().qps(1_000_000_000, 96);
        assert!(gpu > 5.0 * cpu);
    }

    #[test]
    fn million_scale_cpu_matches_paper_order_of_magnitude() {
        // The paper's footnotes put million-scale exact CPU search in the
        // hundreds of QPS.
        let qps = ExhaustiveModel::cpu().qps(1_000_000, 128);
        assert!(qps > 100.0 && qps < 10_000.0, "qps {qps}");
    }
}
