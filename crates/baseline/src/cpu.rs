//! Analytic CPU baseline model.
//!
//! Section II-D's profile of ScaNN/Faiss on the 8-core Skylake-X finds the
//! scan loop either (a) memory-bandwidth-bound streaming encoded vectors
//! that have no reuse, or (b) instruction-bound: with `k* = 16` the LUT
//! lives in vector registers (fast shuffles, but sub-byte unpack shifts
//! cost extra); with `k* = 256` the LUT spills to L1 and every lookup is a
//! load. The model computes both bounds and takes the slower.

/// How the software schedules cluster scans across a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuSchedule {
    /// Query-at-a-time: every query streams its own `W` clusters from DRAM
    /// (ScaNN16, Faiss256 in the paper's analysis).
    QueryMajor,
    /// Cluster-major batched: each visited cluster streams once per batch
    /// ("Faiss16 (CPU) implementation processes queries in a way that is
    /// similar to ANNA memory traffic optimization", Section V-B).
    ClusterMajor {
        /// Batch size `B`.
        batch: usize,
    },
}

/// Per-core kernel rates, in code lookups per second.
///
/// [`CpuKernelRates::skylake`] gives rates representative of the paper's
/// Skylake-X; measured rates for another host can be stored into
/// [`CpuModel::rates`] directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuKernelRates {
    /// LUT lookups+adds per second per core with a 16-entry register LUT.
    pub u4_lookups_per_sec: f64,
    /// LUT lookups+adds per second per core with a 256-entry L1 LUT.
    pub u8_lookups_per_sec: f64,
}

impl CpuKernelRates {
    /// Representative rates for the paper's 8-core Skylake-X at ~4 GHz:
    /// `k* = 16` processes ~16 lookups per cycle via in-register shuffles
    /// (minus the sub-byte unpack shifts Section II-D calls out →
    /// ~8/cycle sustained); `k* = 256` spills the table to L1 and
    /// sustains ~1 load+add per cycle — the reason "Faiss256 (CPU)
    /// achieves lower performance than other CPU implementations"
    /// (Section V-B).
    pub fn skylake() -> Self {
        Self {
            u4_lookups_per_sec: 32.0e9,
            u8_lookups_per_sec: 4.0e9,
        }
    }
}

/// The CPU platform model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Physical cores (8 on the i7-7820X).
    pub cores: usize,
    /// Sustained DRAM bandwidth in GB/s (the paper pairs ANNA with an
    /// identical 64 GB/s system).
    pub mem_bandwidth_gbps: f64,
    /// Bandwidth one core can sustain on its own (a single thread cannot
    /// fill the memory controller; this is what bounds single-query
    /// latency, where Faiss/ScaNN exploit little intra-query parallelism).
    pub single_core_bandwidth_gbps: f64,
    /// Fraction of peak bandwidth the scan sustains when all cores stream
    /// codes while also computing (a pure-streaming kernel reaches ~80% of
    /// peak on Skylake; interleaved LUT lookups, top-k pushes and
    /// cluster-hopping land lower — the "fails to effectively utilize the
    /// available memory bandwidth" observation of Section II-D).
    pub stream_efficiency: f64,
    /// Kernel rates.
    pub rates: CpuKernelRates,
}

impl CpuModel {
    /// The paper's evaluation machine.
    pub fn paper() -> Self {
        Self {
            cores: 8,
            mem_bandwidth_gbps: 64.0,
            single_core_bandwidth_gbps: 12.0,
            stream_efficiency: 0.6,
            rates: CpuKernelRates::skylake(),
        }
    }

    /// Seconds to process a batch of `b` queries, each scanning
    /// `vectors_per_query` encoded vectors of `m` identifiers at
    /// `bytes_per_vector` packed bytes, under `schedule`.
    ///
    /// The slower of the compute bound (lookups through the kernel) and
    /// the memory bound (encoded-vector streaming, with cluster-major
    /// reuse if scheduled) decides, per Section II-D.
    ///
    /// `unique_bytes` is the total size of the *distinct* clusters the
    /// batch touches (the cluster-major streaming floor).
    #[allow(clippy::too_many_arguments)]
    pub fn batch_seconds(
        &self,
        b: usize,
        vectors_per_query: u64,
        m: usize,
        kstar: usize,
        bytes_per_vector: u64,
        unique_bytes: u64,
        schedule: CpuSchedule,
    ) -> f64 {
        let lookups = b as f64 * vectors_per_query as f64 * m as f64;
        let rate = if kstar <= 16 {
            self.rates.u4_lookups_per_sec
        } else {
            self.rates.u8_lookups_per_sec
        };
        let compute_s = lookups / (rate * self.cores as f64);
        let stream_bytes = match schedule {
            CpuSchedule::QueryMajor => {
                b as f64 * vectors_per_query as f64 * bytes_per_vector as f64
            }
            CpuSchedule::ClusterMajor { .. } => unique_bytes as f64,
        };
        let memory_s = stream_bytes / (self.mem_bandwidth_gbps * 1e9 * self.stream_efficiency);
        compute_s.max(memory_s)
    }

    /// Queries per second for the batch described above.
    #[allow(clippy::too_many_arguments)]
    pub fn qps(
        &self,
        b: usize,
        vectors_per_query: u64,
        m: usize,
        kstar: usize,
        bytes_per_vector: u64,
        unique_bytes: u64,
        schedule: CpuSchedule,
    ) -> f64 {
        b as f64
            / self.batch_seconds(
                b,
                vectors_per_query,
                m,
                kstar,
                bytes_per_vector,
                unique_bytes,
                schedule,
            )
    }

    /// Latency of a single query: one thread's kernel rate against one
    /// thread's achievable bandwidth (no batching or multi-core benefit —
    /// the regime where the paper reports ANNA's 24×+ latency advantage,
    /// "ANNA utilizes parallelism within a single query more effectively").
    pub fn latency_seconds(
        &self,
        vectors_per_query: u64,
        m: usize,
        kstar: usize,
        bytes_per_vector: u64,
    ) -> f64 {
        let lookups = vectors_per_query as f64 * m as f64;
        let rate = if kstar <= 16 {
            self.rates.u4_lookups_per_sec
        } else {
            self.rates.u8_lookups_per_sec
        };
        let compute_s = lookups / rate;
        let memory_s =
            (vectors_per_query * bytes_per_vector) as f64 / (self.single_core_bandwidth_gbps * 1e9);
        compute_s.max(memory_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faiss16_schedule_beats_query_major_when_memory_bound() {
        // Big scans, cheap kernel -> memory bound; cluster-major reuse wins.
        let m = CpuModel::paper();
        let vectors = 3_200_000u64; // W=32 clusters of 100k
        let unique = 500_000_000u64 * 64; // most clusters touched once
        let qm = m.qps(1000, vectors, 128, 16, 64, unique, CpuSchedule::QueryMajor);
        let cm = m.qps(
            1000,
            vectors,
            128,
            16,
            64,
            unique,
            CpuSchedule::ClusterMajor { batch: 1000 },
        );
        assert!(cm > qm, "cluster-major {cm} should beat query-major {qm}");
    }

    #[test]
    fn u8_kernel_is_slower_than_u4() {
        // Same work, compute-bound regime: Faiss256 < Faiss16 (Section V-B).
        let m = CpuModel::paper();
        let vectors = 100_000u64;
        let bytes = 64u64;
        let fast = m.qps(
            100,
            vectors,
            128,
            16,
            bytes,
            0,
            CpuSchedule::ClusterMajor { batch: 100 },
        );
        let slow = m.qps(
            100,
            vectors,
            64,
            256,
            bytes,
            0,
            CpuSchedule::ClusterMajor { batch: 100 },
        );
        // Note Faiss256 also does half the lookups (M=64 vs 128); the rate
        // gap (4x) still dominates.
        assert!(fast > slow, "u4 {fast} should beat u8 {slow}");
    }

    #[test]
    fn memory_bound_respects_bandwidth() {
        let m = CpuModel::paper();
        // 1 GB of unique codes at 64 GB/s can never take less than 15.6 ms.
        let s = m.batch_seconds(
            1000,
            1_000_000,
            1,
            16,
            64,
            1 << 30,
            CpuSchedule::ClusterMajor { batch: 1000 },
        );
        assert!(s >= (1u64 << 30) as f64 / 64e9 - 1e-12);
    }

    #[test]
    fn latency_is_single_thread_bound() {
        let m = CpuModel::paper();
        let lat = m.latency_seconds(3_200_000, 64, 256, 64);
        // 3.2M vectors * 64 B = 204.8 MB at one core's 12 GB/s = 17 ms
        // floor — far above the 8-core batched floor of 3.2 ms, matching
        // the paper's ~11 ms CPU latencies at lower W.
        assert!(lat >= 17.0e-3 * 0.99, "latency {lat}");
        let batched = m.batch_seconds(
            1000,
            3_200_000,
            64,
            256,
            64,
            1 << 30,
            CpuSchedule::ClusterMajor { batch: 1000 },
        ) / 1000.0;
        assert!(batched < lat, "batched per-query time must beat latency");
    }
}
