//! V100 GPU model for Faiss256 (GPU).
//!
//! The paper's Section II-D profile of the Faiss GPU path finds two
//! kernels dominating (98% of runtime):
//!
//! 1. the memoized scan, whose 32 KB shared-memory LUT per thread block
//!    limits residency to 3 blocks per SM (96 KB shared memory), starving
//!    the latency-hiding machinery and leaving memory bandwidth
//!    under-utilized;
//! 2. the top-1000 selection, which has limited parallelism (small grid)
//!    and ~4% FMA utilization.
//!
//! This model encodes exactly those two effects on top of a 900 GB/s
//! bandwidth roofline. Absolute numbers are a substitution for the paper's
//! measurement (DESIGN.md, substitution 3); the qualitative position —
//! fast at large batch, bandwidth-rich, but beaten by ANNA×12 at equal
//! aggregate bandwidth — is what it must (and does) reproduce.

/// V100 model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Peak memory bandwidth, GB/s (900 for V100).
    pub mem_bandwidth_gbps: f64,
    /// Streaming multiprocessors (80).
    pub sm_count: usize,
    /// Shared memory per SM in bytes (96 KB).
    pub shared_mem_per_sm: usize,
    /// Shared memory per thread block for the LUT, bytes (32 KB:
    /// `2·k*·M` at k*=256, M=64).
    pub lut_bytes_per_block: usize,
    /// Thread blocks per SM needed to fully hide memory latency.
    pub blocks_to_saturate: usize,
    /// Top-k selection throughput, candidates per second (small-grid
    /// k-select kernel).
    pub topk_candidates_per_sec: f64,
    /// Fixed overhead per batch (kernel launches, transfers), seconds.
    pub batch_overhead_s: f64,
    /// Batch size below which the grid is too small to occupy the device
    /// (inter-query parallelism is the GPU's main latency-hiding lever).
    pub min_batch_for_peak: usize,
}

impl GpuModel {
    /// The paper's V100 running Faiss256.
    pub fn v100_faiss256() -> Self {
        Self {
            mem_bandwidth_gbps: 900.0,
            sm_count: 80,
            shared_mem_per_sm: 96 * 1024,
            lut_bytes_per_block: 32 * 1024,
            blocks_to_saturate: 8,
            topk_candidates_per_sec: 4.0e9,
            batch_overhead_s: 50e-6,
            min_batch_for_peak: 16,
        }
    }

    /// Resident thread blocks per SM (3 on the paper's configuration).
    pub fn resident_blocks(&self) -> usize {
        (self.shared_mem_per_sm / self.lut_bytes_per_block).max(1)
    }

    /// Fraction of peak bandwidth the scan kernel sustains, limited by
    /// occupancy: `resident / needed-to-saturate` (≤ 1).
    pub fn bandwidth_efficiency(&self) -> f64 {
        (self.resident_blocks() as f64 / self.blocks_to_saturate as f64).min(1.0)
    }

    /// Seconds to run a batch of `b` queries, each scanning
    /// `vectors_per_query` codes of `bytes_per_vector` bytes.
    ///
    /// Kernel 1 streams every (query, code) pair's bytes at the
    /// occupancy-limited bandwidth — the GPU implementation re-reads codes
    /// per query from HBM/L2 rather than batching cluster-major; at V100
    /// bandwidth this is still fast. Kernel 2 pushes every candidate
    /// through the k-select kernel.
    pub fn batch_seconds(&self, b: usize, vectors_per_query: u64, bytes_per_vector: u64) -> f64 {
        let scan_bytes = b as f64 * vectors_per_query as f64 * bytes_per_vector as f64;
        // Small batches additionally starve the grid of blocks.
        let grid_eff = (b as f64 / self.min_batch_for_peak as f64).min(1.0);
        let eff_bw = self.mem_bandwidth_gbps * 1e9 * self.bandwidth_efficiency() * grid_eff;
        let t_scan = scan_bytes / eff_bw;
        let t_topk = b as f64 * vectors_per_query as f64 / self.topk_candidates_per_sec;
        t_scan + t_topk + self.batch_overhead_s
    }

    /// Queries per second at batch size `b`.
    pub fn qps(&self, b: usize, vectors_per_query: u64, bytes_per_vector: u64) -> f64 {
        b as f64 / self.batch_seconds(b, vectors_per_query, bytes_per_vector)
    }

    /// Single-query latency.
    pub fn latency_seconds(&self, vectors_per_query: u64, bytes_per_vector: u64) -> f64 {
        self.batch_seconds(1, vectors_per_query, bytes_per_vector)
    }

    /// Energy per query in joules at the paper's measured 151.8 W.
    pub fn energy_per_query_joules(
        &self,
        b: usize,
        vectors_per_query: u64,
        bytes_per_vector: u64,
    ) -> f64 {
        crate::power::GPU_W * self.batch_seconds(b, vectors_per_query, bytes_per_vector) / b as f64
    }
}

impl Default for GpuModel {
    fn default() -> Self {
        Self::v100_faiss256()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_matches_paper_profile() {
        // "this requirement limits the number of thread blocks scheduled
        // on SM to three since each SM has 96KB shared memory".
        let g = GpuModel::v100_faiss256();
        assert_eq!(g.resident_blocks(), 3);
        assert!(g.bandwidth_efficiency() < 0.5);
    }

    #[test]
    fn large_batches_amortize_overhead() {
        let g = GpuModel::v100_faiss256();
        let small = g.qps(1, 3_200_000, 64);
        let large = g.qps(1000, 3_200_000, 64);
        assert!(
            large > small * 2.0,
            "batching must help: {small} -> {large}"
        );
    }

    #[test]
    fn effective_bandwidth_is_fraction_of_peak() {
        let g = GpuModel::v100_faiss256();
        // Scanning 1 GB per query cannot beat the occupancy-limited BW.
        let t = g.batch_seconds(1, 1 << 24, 64);
        let bytes = ((1u64 << 24) * 64) as f64;
        assert!(t >= bytes / (900e9 * g.bandwidth_efficiency()) - 1e-12);
    }

    #[test]
    fn topk_kernel_adds_measurable_time() {
        let g = GpuModel::v100_faiss256();
        let no_candidates = g.batch_seconds(100, 0, 64);
        let many = g.batch_seconds(100, 10_000_000, 0);
        assert!(many > no_candidates, "top-k time must grow with candidates");
    }

    #[test]
    fn gpu_energy_dwarfs_a_5w_accelerator_budget() {
        // Figure 10's premise: at 151.8 W the GPU pays orders of magnitude
        // more energy per query than ANNA's ~2-3 W at similar runtimes.
        let g = GpuModel::v100_faiss256();
        let e = g.energy_per_query_joules(1000, 3_200_000, 64);
        assert!(e > 1e-3, "GPU energy per query {e} J implausibly small");
    }
}
