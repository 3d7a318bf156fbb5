//! Recall-vs-bytes frontier of the graph engine next to IVF-PQ, both
//! driven through the shared [`anna_engine::SearchEngine`] pipeline.
//!
//! One clustered dataset, one PQ resolution (m = 8, k* = 256 over
//! dimension 16), two engines: the beam-search [`anna_graph::PqGraph`]
//! sweeps beam width `ef` while the IVF-PQ [`anna_index::BatchedScan`]
//! sweeps `nprobe`. Every point runs `plan → price → execute → verify`
//! through [`anna_engine::run_pipeline`], so each point's
//! `traffic_match` is the standing predicted == measured invariant in
//! the engine's own byte vocabulary (graph adjacency fetches priced as
//! `cluster_meta_bytes`, PQ neighbor scans as `code_bytes`). Each point
//! then re-executes the identical plan at 2 and 4 threads and requires
//! bit-identical results and traffic (`deterministic`) — the graph
//! engine's seeded tie-pinned traversal makes that an equality, not a
//! tolerance.
//!
//! The emitted report (`reports/graph_sweep.json`) holds one
//! recall-vs-bytes point per `(engine, scope)` pair so the two frontiers
//! plot on one axis; `runall` fails if any point fails either gate.

use anna_engine::{run_pipeline, PlanOptions, QuerySpec, SearchEngine};
use anna_graph::{GraphConfig, PqGraph};
use anna_index::{BatchedScan, IvfPqConfig, IvfPqIndex};
use anna_telemetry::Telemetry;
use anna_vector::{exact, Metric, Neighbor, VectorSet};

use crate::json::Json;

/// Vector dimensionality of the sweep dataset.
pub const DIM: usize = 16;
/// PQ sub-quantizers (shared by both engines).
pub const M: usize = 8;
/// PQ codewords per codebook (shared by both engines). The graph
/// encodes vectors absolutely (no coarse-centroid residuals), so it
/// needs the fine codebook to keep quantization error off the recall
/// ceiling; IVF-PQ gets the same resolution to keep the frontiers
/// comparable.
pub const KSTAR: usize = 256;
/// Results per query; recall is measured @ this k.
pub const K: usize = 10;

/// One measured operating point of one engine.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphPoint {
    /// Engine name as reported by [`SearchEngine::name`].
    pub engine: String,
    /// Point label, e.g. `graph@ef32` or `ivf_pq@np4`.
    pub label: String,
    /// The scope knob: beam width `ef` for the graph, `nprobe` for
    /// IVF-PQ.
    pub scope: usize,
    /// Recall@K against the exact f32 reference.
    pub recall: f64,
    /// TrafficModel-predicted bytes per query.
    pub bytes_per_query: f64,
    /// Predicted total bytes for the batch.
    pub predicted_bytes: u64,
    /// Whether measured traffic equalled the prediction exactly on all
    /// six components ([`SearchEngine::verify`]).
    pub traffic_match: bool,
    /// Whether 2- and 4-thread re-executions of the same plan were
    /// bit-identical to the single-thread run (results and traffic).
    pub deterministic: bool,
}

/// The sweep result: both engines' frontiers over one dataset.
#[derive(Debug, Clone)]
pub struct GraphSweep {
    /// Database size.
    pub db_n: usize,
    /// Queries evaluated.
    pub nq: usize,
    /// Graph out-degree bound.
    pub degree: usize,
    /// IVF coarse clusters.
    pub num_clusters: usize,
    /// Measured points: graph first (by `ef`), then IVF-PQ (by
    /// `nprobe`).
    pub points: Vec<GraphPoint>,
}

/// Clustered dataset with a row-scaled epsilon: exact duplicate rows
/// are unreachable pathologies for any proximity graph (every in-edge
/// to the higher-id copy is occluded by the lower-id one), so the
/// generator keeps rows distinct.
fn dataset(n: usize) -> VectorSet {
    VectorSet::from_fn(DIM, n, |r, c| {
        (r % 24) as f32 * 11.0 + ((r * 31 + c * 7) % 17) as f32 * 0.3 + r as f32 * 1e-3
    })
}

fn recall(results: &[Vec<Neighbor>], truth: &[Vec<Neighbor>]) -> f64 {
    let mut found = 0usize;
    let mut total = 0usize;
    for (got, want) in results.iter().zip(truth) {
        total += want.len();
        found += want
            .iter()
            .filter(|t| got.iter().any(|n| n.id == t.id))
            .count();
    }
    found as f64 / total.max(1) as f64
}

/// Runs one engine across its scope ladder, gating every point on
/// predicted == measured and on thread-count determinism.
fn sweep_engine(
    engine: &dyn SearchEngine,
    queries: &VectorSet,
    truth: &[Vec<Neighbor>],
    scopes: &[usize],
    scope_tag: &str,
) -> Vec<GraphPoint> {
    let tel = Telemetry::disabled();
    let nq = queries.len();
    scopes
        .iter()
        .map(|&scope| {
            let spec = QuerySpec { k: K, scope };
            let piped = run_pipeline(engine, queries, &spec, &PlanOptions::default(), 1, &tel);
            let (traffic_match, predicted_total, results, deterministic) = match piped {
                Ok((plan, predicted, base)) => {
                    let deterministic = [2usize, 4].iter().all(|&t| {
                        let run = engine.execute(queries, &plan, t, &tel);
                        run.results == base.results && run.measured == base.measured
                    });
                    (true, predicted.total(), base.results, deterministic)
                }
                Err(msg) => {
                    eprintln!("{}@{scope_tag}{scope}: {msg}", engine.name());
                    (false, 0, Vec::new(), false)
                }
            };
            GraphPoint {
                engine: engine.name().to_string(),
                label: format!("{}@{scope_tag}{scope}", engine.name()),
                scope,
                recall: recall(&results, truth),
                bytes_per_query: predicted_total as f64 / nq as f64,
                predicted_bytes: predicted_total,
                traffic_match,
                deterministic,
            }
        })
        .collect()
}

/// Runs the sweep: one dataset, exact ground truth once, then the graph
/// engine over `ef ∈ {8, 16, 32, 64, 128}` and IVF-PQ over
/// `nprobe ∈ {1, 2, 4, 8, 16}`.
pub fn run(db_n: usize, nq: usize) -> GraphSweep {
    let data = dataset(db_n);
    let rows: Vec<usize> = (0..nq).map(|i| (i * 37) % db_n).collect();
    let queries = data.gather(&rows);
    let truth = exact::search(&queries, &data, Metric::L2, K);

    let graph = PqGraph::build(
        &data,
        &GraphConfig {
            metric: Metric::L2,
            m: M,
            kstar: KSTAR,
            degree: 16,
            build_beam: 32,
            ..GraphConfig::default()
        },
    );
    let mut points = sweep_engine(&graph, &queries, &truth, &[8, 16, 32, 64, 128], "ef");

    let index = IvfPqIndex::build(
        &data,
        &IvfPqConfig {
            metric: Metric::L2,
            num_clusters: 32,
            m: M,
            kstar: KSTAR,
            ..IvfPqConfig::default()
        },
    );
    let scan = BatchedScan::new(&index);
    points.extend(sweep_engine(
        &scan,
        &queries,
        &truth,
        &[1, 2, 4, 8, 16],
        "np",
    ));

    GraphSweep {
        db_n,
        nq,
        degree: graph.degree(),
        num_clusters: index.num_clusters(),
        points,
    }
}

impl GraphSweep {
    /// Whether every point of both engines kept predicted == measured.
    pub fn all_traffic_match(&self) -> bool {
        self.points.iter().all(|p| p.traffic_match)
    }

    /// Whether every point was bit-identical across thread counts.
    pub fn all_deterministic(&self) -> bool {
        self.points.iter().all(|p| p.deterministic)
    }

    /// The acceptance gate.
    pub fn gate(&self) -> Result<(), String> {
        if !self.all_traffic_match() {
            return Err("predicted != measured traffic (`match` column)".into());
        }
        if !self.all_deterministic() {
            return Err("results differ across {1, 2, 4} threads (`det` column)".into());
        }
        Ok(())
    }

    /// JSON report (`reports/graph_sweep.json`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("db_n", self.db_n)
            .set("nq", self.nq)
            .set("k", K)
            .set("m", M)
            .set("kstar", KSTAR)
            .set("degree", self.degree)
            .set("num_clusters", self.num_clusters)
            .set("all_traffic_match", self.all_traffic_match())
            .set("all_deterministic", self.all_deterministic())
            .set(
                "points",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Json::obj()
                                .set("engine", p.engine.clone())
                                .set("label", p.label.clone())
                                .set("scope", p.scope)
                                .set("recall", p.recall)
                                .set("bytes_per_query", p.bytes_per_query)
                                .set("predicted_bytes", p.predicted_bytes)
                                .set("traffic_match", p.traffic_match)
                                .set("deterministic", p.deterministic)
                        })
                        .collect(),
                ),
            )
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = format!(
            "\n=== graph sweep (N={}, {} queries, k={K}, m={M}, k*={KSTAR}) ===\n\
             {:<16} {:>6} {:>8} {:>12} {:>6} {:>6}\n",
            self.db_n, self.nq, "point", "scope", "recall", "bytes/query", "match", "det"
        );
        for p in &self.points {
            s.push_str(&format!(
                "{:<16} {:>6} {:>8.4} {:>12.1} {:>6} {:>6}\n",
                p.label, p.scope, p.recall, p.bytes_per_query, p.traffic_match, p.deterministic
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_engines_hold_the_invariant_and_trade_bytes_for_recall() {
        let sweep = run(1_200, 12);
        assert_eq!(sweep.points.len(), 10);
        assert_eq!(sweep.gate(), Ok(()), "\n{}", sweep.render());

        // Each engine's frontier slopes the right way: the widest scope
        // costs more bytes and recalls at least as much as the
        // narrowest.
        for engine in ["graph", "ivf_pq"] {
            let pts: Vec<&GraphPoint> =
                sweep.points.iter().filter(|p| p.engine == engine).collect();
            assert_eq!(pts.len(), 5, "{engine} frontier incomplete");
            let first = pts.first().unwrap();
            let last = pts.last().unwrap();
            assert!(
                last.bytes_per_query > first.bytes_per_query,
                "{engine}: widening scope should cost bytes"
            );
            assert!(
                last.recall >= first.recall,
                "{engine}: recall degraded with scope: {} -> {}",
                first.recall,
                last.recall
            );
        }

        let json = sweep.to_json().to_string();
        for key in [
            "all_traffic_match",
            "all_deterministic",
            "bytes_per_query",
            "recall",
        ] {
            assert!(json.contains(key), "report lost key {key}");
        }
    }
}
