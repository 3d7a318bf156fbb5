//! Analytic CPU baseline model, calibratable on the host.
//!
//! Section II-D's profile of ScaNN/Faiss on the 8-core Skylake-X finds the
//! scan loop either (a) memory-bandwidth-bound streaming encoded vectors
//! that have no reuse, or (b) instruction-bound: with `k* = 16` the LUT
//! lives in vector registers (fast shuffles, but sub-byte unpack shifts
//! cost extra); with `k* = 256` the LUT spills to L1 and every lookup is a
//! load. The model computes both bounds and takes the slower.

use anna_engine::{run_pipeline, PlanOptions, QuerySpec};
use anna_index::{kernels, IvfPqIndex, Lut, LutPrecision, SearchParams};
use anna_telemetry::Telemetry;
use anna_vector::{Metric, TopK, VectorSet};
use serde::{Deserialize, Serialize};

/// How the software schedules cluster scans across a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// Calibrated per-core kernel rates, in code lookups per second.
///
/// Obtain defaults representative of the paper's Skylake-X with
/// [`CpuKernelRates::skylake`] or measure the host with [`calibrate`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

/// Measures the host's real scan-kernel rates by timing `anna-index`'s
/// kernels over a synthetic cluster, returning lookups/second/core.
///
/// This grounds the CPU model in measured numbers (our Rust kernels stand
/// in for Faiss/ScaNN per DESIGN.md substitution 2); the returned rates
/// can be stored into [`CpuModel::rates`].
pub fn calibrate(vectors: usize, m: usize) -> CpuKernelRates {
    let dim = m * 2;
    let data = VectorSet::from_fn(dim, vectors.max(64), |r, c| ((r * 31 + c * 7) % 17) as f32);
    let mut out = [0.0f64; 2];
    for (slot, kstar) in [(0usize, 16usize), (1, 256)] {
        let book = anna_quant::pq::PqCodebook::train(
            &data,
            &anna_quant::pq::PqConfig {
                m,
                kstar,
                iters: 2,
                seed: 0,
            },
        );
        let codes = book.encode_all(&data);
        let ids: Vec<u64> = (0..data.len() as u64).collect();
        let q: Vec<f32> = (0..dim).map(|i| (i % 3) as f32).collect();
        let lut = Lut::build_ip(&q, &book, LutPrecision::F32);
        // Warm up, then time several passes; one scratch across all passes
        // so the timing loop stays allocation-free, as production scans do.
        let dispatch = kernels::KernelDispatch::current();
        let mut scratch = kernels::ScanScratch::new();
        let mut top = TopK::new(10);
        kernels::scan_with(&codes, &ids, &lut, &mut top, dispatch, &mut scratch);
        let passes = 20;
        let start = std::time::Instant::now();
        for _ in 0..passes {
            let mut top = TopK::new(10);
            kernels::scan_with(&codes, &ids, &lut, &mut top, dispatch, &mut scratch);
        }
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        out[slot] = (passes * data.len() * m) as f64 / secs;
    }
    CpuKernelRates {
        u4_lookups_per_sec: out[0],
        u8_lookups_per_sec: out[1],
    }
}

/// Times the query-at-a-time schedule ([`IvfPqIndex::search`] per query,
/// one worker) over a real index on the host and returns measured QPS
/// (used for the small-scale, fully-measured points in the report).
///
/// # Panics
///
/// Panics if `queries.dim() != index.dim()`.
pub fn measure_qps(index: &IvfPqIndex, queries: &VectorSet, params: &SearchParams) -> f64 {
    assert_eq!(queries.dim(), index.dim(), "query dimension mismatch");
    let pass = || {
        for q in queries.iter() {
            std::hint::black_box(index.search(q, params));
        }
    };
    pass();
    let start = std::time::Instant::now();
    pass();
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    queries.len() as f64 / secs
}

/// Times the cluster-major batched scan on the host (the Faiss16-like
/// schedule) and returns measured QPS, using one worker per core.
pub fn measure_batched_qps(index: &IvfPqIndex, queries: &VectorSet, params: &SearchParams) -> f64 {
    measure_batched_qps_with(index, queries, params, 0)
}

/// Like [`measure_batched_qps`] but with an explicit worker count
/// (`threads == 0` means one worker per available core; `1` is the serial
/// reference schedule). Results are bit-identical across `threads` — only
/// the wall clock changes — so the sweep in `anna-bench` measures pure
/// scheduling overhead/speedup.
pub fn measure_batched_qps_with(
    index: &IvfPqIndex,
    queries: &VectorSet,
    params: &SearchParams,
    threads: usize,
) -> f64 {
    measure_batched_qps_traced(index, queries, params, threads, &Telemetry::disabled())
}

/// [`measure_batched_qps_with`] with a telemetry sink.
///
/// Each pass is one [`run_pipeline`] (scope, plan, price, execute,
/// verify) — the whole request path, f32 lookup tables. The warm-up pass
/// runs uninstrumented; then **three** timed passes run under `cpu.batch`
/// spans and the best (fastest) one decides the reported QPS, mirroring
/// how [`measure_stream_bandwidth`] reports its best-of-3 — a single
/// timed pass let scheduler noise land directly in
/// `reports/threads_sweep.json`. The snapshot carries the pipeline's
/// `engine.*` step spans, the executor's stage timings, per-worker
/// utilization and bridged `plan.*` traffic counters for all three passes
/// (the `cpu.batch` histogram holds three samples), and the best-pass
/// throughput lands in the `cpu.qps` gauge.
///
/// # Panics
///
/// Panics if the engine's measured traffic diverges from its prediction.
pub fn measure_batched_qps_traced(
    index: &IvfPqIndex,
    queries: &VectorSet,
    params: &SearchParams,
    threads: usize,
    tel: &Telemetry,
) -> f64 {
    let scan = anna_index::BatchedScan::new(index);
    let spec = QuerySpec::from(params);
    let threads = anna_index::resolve_threads(threads);
    let pass = |tel: &Telemetry| {
        run_pipeline(&scan, queries, &spec, &PlanOptions::default(), threads, tel)
            .expect("batched scan: predicted == measured");
    };
    pass(&Telemetry::disabled());
    let mut best_secs = f64::INFINITY;
    for _ in 0..3 {
        let start = std::time::Instant::now();
        {
            let _span = tel.span("cpu.batch");
            pass(tel);
        }
        best_secs = best_secs.min(start.elapsed().as_secs_f64().max(1e-9));
    }
    let qps = queries.len() as f64 / best_secs;
    tel.gauge_set("cpu.qps", qps as u64);
    qps
}

/// Measures the host's sustained streaming read bandwidth (bytes/second)
/// with `threads` concurrent readers — the roofline the batched scan is
/// shaped against.
///
/// Each worker sweeps its chunk of a shared 32 MiB `u64` buffer (large
/// enough to defeat L2 on common parts, small enough to finish in
/// milliseconds), folding the words so the loads cannot be elided; the
/// best of three passes is returned, mirroring how STREAM reports its
/// triad. `threads == 0` uses one reader per available core.
pub fn measure_stream_bandwidth(threads: usize) -> f64 {
    let workers = if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    let words = (32usize << 20) / std::mem::size_of::<u64>();
    let buf: Vec<u64> = (0..words as u64).collect();
    let chunk = words.div_ceil(workers);
    let mut best = 0.0f64;
    for _ in 0..3 {
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for slice in buf.chunks(chunk) {
                s.spawn(move || {
                    let mut acc = 0u64;
                    for &w in slice {
                        acc = acc.wrapping_add(w);
                    }
                    std::hint::black_box(acc)
                });
            }
        });
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        best = best.max((words * std::mem::size_of::<u64>()) as f64 / secs);
    }
    best
}

/// Convenience: metric-appropriate power constant for a software family.
pub fn package_power_w(metric: Metric, is_scann: bool) -> f64 {
    let _ = metric;
    if is_scann {
        crate::power::CPU_SCANN_W
    } else {
        crate::power::CPU_FAISS_W
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

    #[test]
    fn stream_bandwidth_is_positive_and_finite() {
        for threads in [1usize, 2] {
            let bw = measure_stream_bandwidth(threads);
            assert!(
                bw.is_finite() && bw > 1e6,
                "threads={threads} bandwidth={bw}"
            );
        }
    }

    #[test]
    fn calibration_returns_positive_rates() {
        let rates = calibrate(2000, 4);
        assert!(
            rates.u4_lookups_per_sec > 1e6,
            "u4 rate {}",
            rates.u4_lookups_per_sec
        );
        assert!(
            rates.u8_lookups_per_sec > 1e6,
            "u8 rate {}",
            rates.u8_lookups_per_sec
        );
    }

    #[test]
    fn measured_qps_is_positive() {
        use anna_index::{IvfPqConfig, IvfPqIndex};
        let data = VectorSet::from_fn(8, 400, |r, c| ((r * 13 + c * 5) % 23) as f32);
        let index = IvfPqIndex::build(
            &data,
            &IvfPqConfig {
                num_clusters: 8,
                m: 4,
                kstar: 16,
                ..IvfPqConfig::default()
            },
        );
        let queries = data.gather(&[0, 1, 2, 3]);
        let params = SearchParams {
            nprobe: 3,
            k: 5,
            ..Default::default()
        };
        assert!(measure_qps(&index, &queries, &params) > 0.0);
        assert!(measure_batched_qps(&index, &queries, &params) > 0.0);
    }

    #[test]
    fn threads_knob_measures_every_worker_count() {
        use anna_index::{IvfPqConfig, IvfPqIndex};
        let data = VectorSet::from_fn(8, 400, |r, c| ((r * 13 + c * 5) % 23) as f32);
        let index = IvfPqIndex::build(
            &data,
            &IvfPqConfig {
                num_clusters: 8,
                m: 4,
                kstar: 16,
                ..IvfPqConfig::default()
            },
        );
        let queries = data.gather(&(0..16).collect::<Vec<_>>());
        let params = SearchParams {
            nprobe: 3,
            k: 5,
            ..Default::default()
        };
        for threads in [0usize, 1, 2, 4] {
            let qps = measure_batched_qps_with(&index, &queries, &params, threads);
            assert!(qps > 0.0, "threads={threads} gave qps={qps}");
        }
    }

    #[test]
    fn traced_measurement_fills_the_snapshot() {
        use anna_index::{IvfPqConfig, IvfPqIndex};
        let data = VectorSet::from_fn(8, 400, |r, c| ((r * 13 + c * 5) % 23) as f32);
        let index = IvfPqIndex::build(
            &data,
            &IvfPqConfig {
                num_clusters: 8,
                m: 4,
                kstar: 16,
                ..IvfPqConfig::default()
            },
        );
        let queries = data.gather(&(0..16).collect::<Vec<_>>());
        let params = SearchParams {
            nprobe: 3,
            k: 5,
            ..Default::default()
        };
        let tel = Telemetry::enabled();
        let qps = measure_batched_qps_traced(&index, &queries, &params, 2, &tel);
        assert!(qps > 0.0);
        let snap = tel.snapshot_json().unwrap();
        for key in [
            "\"cpu.qps\"",
            "\"plan.clusters_fetched\"",
            "\"worker0.busy_ns\"",
            "\"worker0.idle_ns\"",
            "\"worker0.tiles\"",
            "\"cpu.batch\"",
        ] {
            assert!(snap.contains(key), "missing {key} in {snap}");
        }
        // Best-of-3: all three timed passes must land in the span
        // histogram (one noisy pass must never decide the report alone).
        assert!(
            snap.contains("\"cpu.batch\":{\"count\":3"),
            "expected 3 timed passes in {snap}"
        );
    }
}
