//! Offered-load sweep of the online serving layer (`anna-serve`):
//! latency vs load, the curve the paper's offline-batch QPS numbers
//! cannot show.
//!
//! The sweep first *calibrates* the host — measures the batch engine's
//! service rate in TrafficModel bytes per second and converts it to a
//! capacity estimate in queries per second — then replays seeded
//! open-loop traces ([`crate::openloop`]) at fractions of that capacity
//! through the admission queue, the deterministic micro-batcher, and the
//! worker pool. Each point reports delivered QPS, p50/p95/p99/max
//! end-to-end latency, shed/timeout counts, and whether **every**
//! dispatched batch moved exactly the bytes its
//! [`anna_plan::TrafficModel`] pricing predicted (the workspace's
//! predicted == measured invariant; the binary exits non-zero on any
//! mismatch). Poisson points trace the curve; one bursty and one diurnal
//! point show what intensity shape does to the tail at the same average
//! load.

use anna_engine::{plan_uniform, PlanOptions, QuerySpec, SearchEngine};
use anna_index::{IvfPqConfig, IvfPqIndex};
use anna_serve::{calibrate_service_rate, compose, execute, ServeConfig};
use anna_telemetry::Telemetry;
use anna_vector::{Metric, VectorSet};

use crate::json::Json;
use crate::openloop::{generate, ArrivalProfile, OpenLoopConfig};

/// One measured point of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingPoint {
    /// Point label, e.g. `poisson@0.50x`.
    pub label: String,
    /// Arrival profile name.
    pub profile: String,
    /// Offered load in requests per second (trace average).
    pub offered_qps: f64,
    /// Offered load as a fraction of the calibrated capacity.
    pub offered_fraction: f64,
    /// Requests in the trace.
    pub requests: usize,
    /// Requests answered.
    pub completed: usize,
    /// Requests shed at admission (queue full).
    pub shed: usize,
    /// Requests dropped on predicted deadline miss.
    pub timed_out: usize,
    /// Answered requests that still missed their deadline.
    pub deadline_missed: usize,
    /// Completed requests per second of virtual trace time.
    pub delivered_qps: f64,
    /// Median end-to-end latency (virtual queue wait + measured service).
    pub p50_ns: u64,
    /// 95th-percentile end-to-end latency.
    pub p95_ns: u64,
    /// 99th-percentile end-to-end latency.
    pub p99_ns: u64,
    /// Maximum end-to-end latency.
    pub max_ns: u64,
    /// Batches dispatched.
    pub batches: usize,
    /// Mean dispatched batch size.
    pub mean_batch_size: f64,
    /// Whether every batch's measured traffic matched its prediction.
    pub all_traffic_match: bool,
}

/// The sweep result.
#[derive(Debug, Clone)]
pub struct ServingSweep {
    /// Database size.
    pub db_n: usize,
    /// Query-pool size requests draw from.
    pub pool: usize,
    /// Worker threads used for execution.
    pub threads: usize,
    /// Calibrated service rate in TrafficModel bytes per second.
    pub service_bytes_per_sec: u64,
    /// Capacity estimate in queries per second (service rate over priced
    /// bytes per query at the probe shape).
    pub capacity_qps: f64,
    /// Batcher configuration used at every point.
    pub serve_config: ServeConfig,
    /// Measured points.
    pub points: Vec<ServingPoint>,
}

/// Synthetic clustered dataset (same family as the threads sweep).
fn dataset(dim: usize, n: usize, blobs: usize) -> VectorSet {
    VectorSet::from_fn(dim, n, |r, c| {
        let blob = (r % blobs) as f32;
        blob * 16.0 + ((r * 31 + c * 7) % 13) as f32 * 0.4
    })
}

/// Runs the sweep: Poisson traces at each of `load_fractions` (of the
/// calibrated capacity) plus one bursty and one diurnal trace at the
/// middle fraction, `requests` arrivals per trace.
pub fn run(db_n: usize, requests: usize, load_fractions: &[f64]) -> ServingSweep {
    assert!(
        !load_fractions.is_empty(),
        "need at least one load fraction"
    );
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
    let pool = 256.min(db_n);
    let pool_rows: Vec<usize> = (0..pool).map(|i| (i * 37) % db_n).collect();
    let queries = data.gather(&pool_rows);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Calibration: measured service rate at a representative probe batch,
    // converted to QPS via the probe's priced bytes per query.
    let probe = queries.gather(&(0..64.min(pool)).collect::<Vec<_>>());
    let scan = anna_index::BatchedScan::new(&index);
    let probe_spec = QuerySpec { k: 10, scope: 8 };
    let service_bytes_per_sec = calibrate_service_rate(&scan, &probe, &probe_spec, threads);
    let probe_bytes = scan
        .price(&plan_uniform(
            &scan,
            &probe,
            &probe_spec,
            &PlanOptions::default(),
            &Telemetry::disabled(),
        ))
        .total();
    let bytes_per_query = (probe_bytes / probe.len().max(1) as u64).max(1);
    let capacity_qps = service_bytes_per_sec as f64 / bytes_per_query as f64;

    let serve_config = ServeConfig {
        max_batch: 64,
        max_wait_ns: 2_000_000,
        queue_capacity: 256,
        service_bytes_per_sec,
        shape_candidates: 3,
        rerank: None,
        tier: None,
    };
    let deadline_ns = 200_000_000; // generous 200 ms SLO; overload still trips it

    let mid = load_fractions[load_fractions.len() / 2];
    let mut traces: Vec<(f64, ArrivalProfile)> = load_fractions
        .iter()
        .map(|&f| (f, ArrivalProfile::Poisson))
        .collect();
    traces.push((
        mid,
        ArrivalProfile::Bursty {
            period_ns: 10_000_000,
            burst_ns: 2_000_000,
            multiplier: 4.0,
        },
    ));
    traces.push((
        mid,
        ArrivalProfile::Diurnal {
            period_ns: 50_000_000,
            trough_fraction: 0.25,
        },
    ));

    let tel = Telemetry::disabled();
    let mut points = Vec::new();
    for (i, &(fraction, profile)) in traces.iter().enumerate() {
        let rate_qps = (capacity_qps * fraction).max(1.0);
        let trace = generate(&OpenLoopConfig {
            seed: 0xA77A + i as u64,
            rate_qps,
            requests,
            profile,
            k_choices: vec![5, 10],
            nprobe_choices: vec![4, 8, 12],
            deadline_ns,
            query_pool: pool,
        });
        let schedule = compose(&scan, &queries, &trace, &serve_config);
        let report = execute(&scan, &queries, &trace, &schedule, threads, &tel);
        let makespan_ns = schedule
            .server_free_ns
            .max(trace.last().map_or(0, |r| r.arrival_ns))
            .max(1);
        let batches = report.batches.len();
        points.push(ServingPoint {
            label: format!("{}@{fraction:.2}x", profile.name()),
            profile: profile.name().to_string(),
            offered_qps: rate_qps,
            offered_fraction: fraction,
            requests: trace.len(),
            completed: report.completed,
            shed: report.shed,
            timed_out: report.timed_out,
            deadline_missed: report.deadline_missed,
            delivered_qps: report.completed as f64 * 1e9 / makespan_ns as f64,
            p50_ns: report.latency.p50_ns,
            p95_ns: report.latency.p95_ns,
            p99_ns: report.latency.p99_ns,
            max_ns: report.latency.max_ns,
            batches,
            mean_batch_size: report.completed as f64 / batches.max(1) as f64,
            all_traffic_match: report.all_traffic_match,
        });
    }

    ServingSweep {
        db_n,
        pool,
        threads,
        service_bytes_per_sec,
        capacity_qps,
        serve_config,
        points,
    }
}

impl ServingSweep {
    /// Whether every point kept the predicted == measured traffic
    /// invariant on every dispatched batch.
    pub fn all_traffic_match(&self) -> bool {
        self.points.iter().all(|p| p.all_traffic_match)
    }

    /// JSON report (`reports/serving_sweep.json`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("db_n", self.db_n)
            .set("pool", self.pool)
            .set("threads", self.threads)
            .set("service_bytes_per_sec", self.service_bytes_per_sec)
            .set("capacity_qps", self.capacity_qps)
            .set(
                "serve_config",
                Json::obj()
                    .set("max_batch", self.serve_config.max_batch)
                    .set("max_wait_ns", self.serve_config.max_wait_ns)
                    .set("queue_capacity", self.serve_config.queue_capacity)
                    .set("shape_candidates", self.serve_config.shape_candidates),
            )
            .set(
                "points",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Json::obj()
                                .set("label", p.label.as_str())
                                .set("profile", p.profile.as_str())
                                .set("offered_qps", p.offered_qps)
                                .set("offered_fraction", p.offered_fraction)
                                .set("requests", p.requests)
                                .set("completed", p.completed)
                                .set("shed", p.shed)
                                .set("timed_out", p.timed_out)
                                .set("deadline_missed", p.deadline_missed)
                                .set("delivered_qps", p.delivered_qps)
                                .set("p50_ns", p.p50_ns)
                                .set("p95_ns", p.p95_ns)
                                .set("p99_ns", p.p99_ns)
                                .set("max_ns", p.max_ns)
                                .set("batches", p.batches)
                                .set("mean_batch_size", p.mean_batch_size)
                                .set("all_traffic_match", p.all_traffic_match)
                        })
                        .collect(),
                ),
            )
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = format!(
            "\n=== serving latency vs offered load (N={}, {} threads, capacity ≈ {:.0} qps) ===\n\
             {:<16} {:>10} {:>10} {:>6} {:>6} {:>9} {:>9} {:>9} {:>7} {:>7}\n",
            self.db_n,
            self.threads,
            self.capacity_qps,
            "point",
            "offered",
            "delivered",
            "shed",
            "t/out",
            "p50",
            "p95",
            "p99",
            "batch",
            "match"
        );
        for p in &self.points {
            s.push_str(&format!(
                "{:<16} {:>10.0} {:>10.0} {:>6} {:>6} {:>6.2} ms {:>6.2} ms {:>6.2} ms {:>7.1} {:>7}\n",
                p.label,
                p.offered_qps,
                p.delivered_qps,
                p.shed,
                p.timed_out,
                p.p50_ns as f64 / 1e6,
                p.p95_ns as f64 / 1e6,
                p.p99_ns as f64 / 1e6,
                p.mean_batch_size,
                p.all_traffic_match
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_keeps_the_traffic_invariant_and_accounts_every_request() {
        let sweep = run(4_000, 120, &[0.5]);
        // One Poisson point plus the bursty and diurnal riders.
        assert_eq!(sweep.points.len(), 3);
        assert!(sweep.capacity_qps > 0.0);
        assert!(sweep.all_traffic_match(), "traffic diverged from pricing");
        for p in &sweep.points {
            assert_eq!(
                p.completed + p.shed + p.timed_out,
                p.requests,
                "{}: outcomes must partition the trace",
                p.label
            );
            assert!(p.completed > 0, "{}: nothing completed", p.label);
            assert!(
                p.p50_ns <= p.p95_ns && p.p95_ns <= p.p99_ns && p.p99_ns <= p.max_ns,
                "{}: quantiles out of order",
                p.label
            );
        }
        let json = sweep.to_json().to_string();
        for key in [
            "capacity_qps",
            "offered_qps",
            "delivered_qps",
            "p99_ns",
            "all_traffic_match",
            "serve_config",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
