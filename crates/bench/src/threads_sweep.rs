//! Worker-count sweep for the parallel cluster-major batch engine, with a
//! per-host memory roofline.
//!
//! Measures real batched QPS on the host at increasing worker counts and
//! reports the speedup over the serial schedule, together with a result
//! checksum proving every point returned bit-identical neighbors — the
//! software analogue of scaling ANNA's SCM count while the crossbar
//! assignment (and therefore the answer) stays fixed.
//!
//! Each point is also placed against the machine it runs on: the
//! [`anna_plan::TrafficModel`] prices the exact shaped plan the engine
//! executes (bytes the batch must move), a streaming microbenchmark
//! measures the bandwidth `t` threads can actually sustain on this host,
//! and their ratio — `achieved_vs_roofline` — says how close the
//! engine runs to the memory roofline that bounds it. A point
//! near 1.0 cannot be made faster by more software; that is the regime
//! the paper builds ANNA for.

use anna_baseline::cpu::measure_stream_bandwidth;
use anna_core::ScmAllocation;
use anna_core::{Anna, AnnaConfig};
use anna_engine::{run_pipeline, PlanOptions, QuerySpec};
use anna_index::{resolve_threads, BatchedScan, IvfPqConfig, IvfPqIndex, SearchParams};
use anna_telemetry::Telemetry;
use anna_vector::{Metric, VectorSet};
use serde::{Deserialize, Serialize};

use crate::json::Json;

/// One measured point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThreadPoint {
    /// Worker count (`1` is the serial reference).
    pub threads: usize,
    /// Measured batch queries per second.
    pub qps: f64,
    /// Speedup over the serial point.
    pub speedup: f64,
    /// Whether this point's neighbors were bit-identical to serial.
    pub identical_to_serial: bool,
    /// Bytes/second the engine effectively moved: the traffic model's
    /// priced bytes for one batch times the measured batch rate.
    pub achieved_bytes_per_sec: f64,
    /// Bytes/second `threads` streaming readers sustain on this host
    /// (measured, not assumed).
    pub roofline_bytes_per_sec: f64,
    /// `achieved / roofline` — fraction of the host's memory roofline the
    /// engine reaches at this worker count.
    pub achieved_vs_roofline: f64,
}

/// The sweep result.
#[derive(Debug, Clone)]
pub struct ThreadsSweep {
    /// Batch size used.
    pub batch: usize,
    /// Database size used.
    pub db_n: usize,
    /// Bytes one batch moves under the executed plan, per the traffic
    /// model (codes + centroids + metadata + query lists + top-k
    /// spill/fill).
    pub traffic_bytes_per_batch: u64,
    /// Cores the OS exposed while sweeping (`available_parallelism`) —
    /// the context for reading the speedup column.
    pub host_cpus: usize,
    /// Measured points, ascending thread count.
    pub points: Vec<ThreadPoint>,
}

/// Times the cluster-major batched scan on the host and returns measured
/// QPS (`threads == 0` means one worker per available core; `1` is the
/// serial reference schedule). Results are bit-identical across
/// `threads` — only the wall clock changes.
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
fn measure_batched_qps_traced(
    index: &IvfPqIndex,
    queries: &VectorSet,
    params: &SearchParams,
    threads: usize,
    tel: &Telemetry,
) -> f64 {
    let scan = BatchedScan::new(index);
    let spec = QuerySpec::from(params);
    let threads = resolve_threads(threads);
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

/// Synthetic clustered dataset sized so the scan dominates the wall clock.
fn dataset(dim: usize, n: usize, blobs: usize) -> VectorSet {
    VectorSet::from_fn(dim, n, |r, c| {
        let blob = (r % blobs) as f32;
        blob * 16.0 + ((r * 31 + c * 7) % 13) as f32 * 0.4
    })
}

/// Runs the sweep over `thread_counts` on a synthetic index.
///
/// `db_n` vectors, batch of `batch` queries drawn from the database; each
/// point re-checks the returned neighbors against the serial reference.
pub fn run(db_n: usize, batch: usize, thread_counts: &[usize]) -> ThreadsSweep {
    run_traced(db_n, batch, thread_counts, &Telemetry::disabled())
}

/// [`run`] with a telemetry sink.
///
/// Each thread count records under a `threads<t>.` prefix on its own
/// chrome-trace process lane (so the per-worker timelines of every point
/// stay separable), and the timed passes bridge the pipeline's `engine.*`
/// step spans, the executor's `batch.*` stage spans and the `plan.*`
/// traffic counters into the snapshot. After the sweep, the
/// same batch runs once through the functional accelerator under the
/// `accel.` prefix, bridging the CPM/EFM/SCM module counters and P-heap
/// spill/fill statistics into the same snapshot.
pub fn run_traced(
    db_n: usize,
    batch: usize,
    thread_counts: &[usize],
    tel: &Telemetry,
) -> ThreadsSweep {
    let dim = 16;
    let data = dataset(dim, db_n, 32);
    let index = IvfPqIndex::build(
        &data,
        &IvfPqConfig {
            metric: Metric::L2,
            num_clusters: 64,
            m: 8,
            kstar: 16,
            ..IvfPqConfig::default()
        },
    );
    let ids: Vec<usize> = (0..batch).map(|i| (i * 37) % db_n).collect();
    let queries = data.gather(&ids);
    let params = SearchParams {
        nprobe: 12,
        k: 10,
        ..Default::default()
    };

    let scan = BatchedScan::new(&index);
    let spec = QuerySpec::from(&params);
    let pipeline = |threads: usize| {
        run_pipeline(
            &scan,
            &queries,
            &spec,
            &PlanOptions::default(),
            threads,
            &Telemetry::disabled(),
        )
        .expect("threads sweep: predicted == measured")
    };

    // The serial reference, and the price of the exact plan the engine
    // executes — so achieved bytes/sec below reflects what this schedule
    // moves, not a generic estimate.
    let (_, predicted, serial_ref) = pipeline(1);
    let traffic_bytes_per_batch = predicted.total();

    let mut points = Vec::new();
    let mut serial_qps: Option<f64> = None;
    for &threads in thread_counts {
        let point_tel = tel
            .scoped(&format!("threads{threads}"))
            .with_process(threads as u64);
        let qps = measure_batched_qps_traced(&index, &queries, &params, threads, &point_tel);
        if threads == 1 {
            serial_qps = Some(qps);
        }
        let (_, _, got) = pipeline(threads);
        let achieved = traffic_bytes_per_batch as f64 * qps / batch.max(1) as f64;
        let roofline = measure_stream_bandwidth(threads);
        points.push(ThreadPoint {
            threads,
            qps,
            speedup: 0.0, // filled below once the serial point is known
            identical_to_serial: got.results == serial_ref.results,
            achieved_bytes_per_sec: achieved,
            roofline_bytes_per_sec: roofline,
            achieved_vs_roofline: achieved / roofline.max(1.0),
        });
    }
    // The speedup column is *defined* relative to the measured threads=1
    // point. Fabricating a stand-in baseline (the old fallback used the
    // first point, or 1.0) would silently rescale every speedup, so a
    // sweep without a positive serial measurement is a hard error.
    let serial_qps = match serial_qps {
        Some(q) if q > 0.0 => q,
        Some(q) => panic!("threads=1 reference measured non-positive QPS ({q}); refusing to fabricate a speedup baseline"),
        None => panic!(
            "threads sweep requires a threads=1 serial reference point, got {thread_counts:?}; \
             speedups would otherwise be relative to a fabricated baseline"
        ),
    };
    for p in &mut points {
        p.speedup = p.qps / serial_qps;
    }

    // One functional-accelerator pass over a slice of the same batch, so
    // the snapshot also carries the hardware-module counters (the sweep
    // itself only exercises the software engine).
    if tel.is_enabled() {
        let accel_tel = tel.scoped("accel");
        let anna = Anna::new(AnnaConfig::paper(), &index).expect("paper config fits the index");
        let sub = queries.gather(&(0..batch.min(64)).collect::<Vec<_>>());
        let _ = anna.search_batch_traced(
            &sub,
            params.nprobe,
            params.k,
            ScmAllocation::Auto,
            &accel_tel,
        );
    }

    ThreadsSweep {
        batch,
        db_n,
        traffic_bytes_per_batch,
        host_cpus: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        points,
    }
}

impl ThreadsSweep {
    /// JSON report.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("batch", self.batch)
            .set("db_n", self.db_n)
            .set("traffic_bytes_per_batch", self.traffic_bytes_per_batch)
            .set("host_cpus", self.host_cpus)
            .set(
                "points",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Json::obj()
                                .set("threads", p.threads)
                                .set("qps", p.qps)
                                .set("speedup", p.speedup)
                                .set("identical_to_serial", p.identical_to_serial)
                                .set("achieved_bytes_per_sec", p.achieved_bytes_per_sec)
                                .set("roofline_bytes_per_sec", p.roofline_bytes_per_sec)
                                .set("achieved_vs_roofline", p.achieved_vs_roofline)
                        })
                        .collect(),
                ),
            )
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = format!(
            "\n=== batched QPS vs worker count (B={}, N={}, {} B/batch, {} host cpus) ===\n\
             {:<8} {:>12} {:>9} {:>10} {:>12} {:>12} {:>9}\n",
            self.batch,
            self.db_n,
            self.traffic_bytes_per_batch,
            self.host_cpus,
            "threads",
            "qps",
            "speedup",
            "identical",
            "achieved",
            "roofline",
            "ach/roof"
        );
        for p in &self.points {
            s.push_str(&format!(
                "{:<8} {:>12.0} {:>8.2}x {:>10} {:>9.2} GB/s {:>9.2} GB/s {:>9.3}\n",
                p.threads,
                p.qps,
                p.speedup,
                p.identical_to_serial,
                p.achieved_bytes_per_sec / 1e9,
                p.roofline_bytes_per_sec / 1e9,
                p.achieved_vs_roofline
            ));
        }
        s
    }

    /// The speedup measured at `threads`, if that point was swept.
    pub fn speedup_at(&self, threads: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.threads == threads)
            .map(|p| p.speedup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_index() -> (IvfPqIndex, VectorSet, SearchParams) {
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
        (index, queries, params)
    }

    #[test]
    fn threads_knob_measures_every_worker_count() {
        let (index, queries, params) = small_index();
        for threads in [0usize, 1, 2, 4] {
            let qps = measure_batched_qps_traced(
                &index,
                &queries,
                &params,
                threads,
                &Telemetry::disabled(),
            );
            assert!(qps > 0.0, "threads={threads} gave qps={qps}");
        }
    }

    #[test]
    fn traced_measurement_fills_the_snapshot() {
        let (index, queries, params) = small_index();
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

    #[test]
    fn sweep_reports_identical_results_for_every_worker_count() {
        let sweep = run(4_000, 64, &[1, 2, 4]);
        assert_eq!(sweep.points.len(), 3);
        assert!(sweep.traffic_bytes_per_batch > 0);
        assert!(sweep.host_cpus >= 1);
        for p in &sweep.points {
            assert!(p.qps > 0.0, "threads={} qps={}", p.threads, p.qps);
            assert!(
                p.identical_to_serial,
                "threads={} diverged from serial",
                p.threads
            );
            assert!(
                p.achieved_bytes_per_sec > 0.0 && p.achieved_bytes_per_sec.is_finite(),
                "threads={} achieved={}",
                p.threads,
                p.achieved_bytes_per_sec
            );
            assert!(
                p.roofline_bytes_per_sec > 0.0 && p.roofline_bytes_per_sec.is_finite(),
                "threads={} roofline={}",
                p.threads,
                p.roofline_bytes_per_sec
            );
            assert!(
                p.achieved_vs_roofline > 0.0 && p.achieved_vs_roofline.is_finite(),
                "threads={} ratio={}",
                p.threads,
                p.achieved_vs_roofline
            );
        }
        assert_eq!(sweep.speedup_at(1), Some(1.0));
        let json = sweep.to_json().to_string();
        for key in [
            "achieved_vs_roofline",
            "roofline_bytes_per_sec",
            "traffic_bytes_per_batch",
            "host_cpus",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    #[should_panic(expected = "threads=1 serial reference")]
    fn sweep_without_serial_point_fails_loudly() {
        // Regression: the old code silently substituted the first point's
        // QPS (or 1.0) as the baseline, fabricating every speedup.
        let _ = run(2_000, 16, &[2, 4]);
    }

    #[test]
    fn traced_sweep_snapshot_carries_stages_workers_and_accel_counters() {
        let tel = Telemetry::enabled();
        let sweep = run_traced(4_000, 48, &[1, 2], &tel);
        for p in &sweep.points {
            assert!(p.identical_to_serial, "threads={} diverged", p.threads);
        }
        let snap = tel.snapshot_json().unwrap();
        for key in [
            // Per-stage timings, per thread count.
            "\"threads1.engine.plan\"",
            "\"threads2.engine.plan\"",
            "\"threads1.batch.merge\"",
            // Per-worker utilization of the 2-thread point.
            "\"threads2.worker0.busy_ns\"",
            "\"threads2.worker1.idle_ns\"",
            "\"threads2.worker0.tiles\"",
            // Bridged software-engine traffic counters.
            "\"threads1.plan.clusters_fetched\"",
            // Bridged accelerator module + P-heap counters.
            "\"accel.cpm.cycles\"",
            "\"accel.efm.code_bytes\"",
            "\"accel.scm.vectors_scored\"",
            "\"accel.pheap.spills\"",
            "\"accel.pheap.fills\"",
        ] {
            assert!(snap.contains(key), "missing {key} in snapshot");
        }
        // The timeline has per-tile spans on separate process lanes.
        let trace = tel.chrome_trace_json().unwrap();
        assert!(trace.contains("batch.tile_scan"), "no tile spans in trace");
        assert!(trace.contains("\"pid\":1") && trace.contains("\"pid\":2"));
    }
}
