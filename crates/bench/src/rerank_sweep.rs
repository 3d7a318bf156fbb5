//! Cost/recall sweep of the two-phase (over-fetch + re-rank) pipeline:
//! fixed-precision re-ranking vs the adaptive per-query controller, at
//! several recall targets.
//!
//! The dataset is deliberately *bimodal* (see [`value`]): a handful of
//! tiny, isolated "fine" blobs at large magnitude, where binary16
//! rounding is coarser than the margins between neighbor distances — so
//! f16 re-ranking scrambles the top-k and only exact f32 rescoring
//! recovers it — plus a bulk population of large "coarse" blobs at small
//! magnitude, where f16 is indistinguishable from f32 at half the
//! vector-fetch traffic. Queries targeting fine blobs see small
//! candidate pools (their clusters are tiny); coarse queries see large
//! pools. That is exactly the population the adaptive policy's
//! byte-equalizing escalation rule splits correctly: small pools are
//! rescored exactly (f32 fits the f16 over-fetch byte budget), large
//! pools stay at f16. Fixed f16 caps below high recall targets no matter
//! the over-fetch; fixed f32 reaches them but pays double vector bytes
//! on the bulk; adaptive reaches them at strictly fewer
//! TrafficModel-priced bytes per query.
//!
//! Every point runs the engine pipeline — the scanner's own plan for its
//! policy, priced, executed, verified — and records measured == predicted
//! on all six traffic components; the
//! frontier rows then compare, per recall target, the cheapest adaptive
//! point against the cheapest fixed-precision point. Emitted as
//! `reports/rerank_sweep.json` (and `rerank_sweep_smoke.json`, a
//! narrower query set) by `runall`.

use anna_engine::{plan_uniform, PlanOptions, QuerySpec, SearchEngine};
use anna_index::{BatchedScan, IvfPqConfig, IvfPqIndex, RerankMode, RerankPolicy, RerankPrecision};
use anna_plan::EnginePlan;
use anna_telemetry::Telemetry;
use anna_vector::{exact, Metric, Neighbor, VectorSet};

use crate::json::Json;

/// Vector dimensionality of the sweep dataset.
pub const DIM: usize = 16;
/// Number of tiny fine-grained blobs.
pub const FINE_BLOBS: usize = 8;
/// Rows per fine blob — below `k`, so a fine query's true top-10
/// straddles into the adjacent blob and f16's scrambled ordering there
/// costs recall.
pub const FINE_SIZE: usize = 7;
/// Rows occupied by the fine region (the head of the dataset).
pub const FINE_ROWS: usize = FINE_BLOBS * FINE_SIZE;
/// Number of coarse bulk blobs.
pub const COARSE_BLOBS: usize = 24;
/// Final results per query; recall is measured @ this k.
pub const K: usize = 10;
/// Workers every point executes on; results and traffic do not depend on
/// the count (the engine's thread-invariance), so it is not a report field.
const THREADS: usize = 2;

/// The deterministic dataset formula.
///
/// Fine rows (`r < FINE_ROWS`): magnitude ~8192, where binary16 spacing
/// is 8.0 — far coarser than the 0.37 steps separating blob members, so
/// f16 round-tripping destroys the cross-blob ordering of a query's
/// boundary neighbors. Blob centers sit 64 apart on a shared axis, so
/// each blob's nearest cluster is the adjacent fine blob and fine pools
/// stay tiny.
///
/// Coarse rows: magnitude < 64, where binary16 is plenty precise. Each
/// blob member carries two jitter levels on top of its blob center:
/// a *class* (unit steps, few distinct patterns — the lossy codebook
/// learns these, so the first pass ranks by class) and a *sub-class*
/// (1/16 steps, far below codeword spacing — invisible to the codes).
/// A query's true top-10 are its own sub-class's exact duplicates, which
/// the first pass cannot separate from the rest of the ~33-row class
/// cohort: PQ scores tie and truncation keeps lowest ids. Recall
/// therefore needs the over-fetch to swallow the whole cohort
/// (`k_first ≥ ~33`, i.e. alpha ≥ 4) and any re-rank precision then
/// recovers it — exact duplicates tie at f16 exactly as at f32.
pub fn value(r: usize, c: usize) -> f32 {
    if r < FINE_ROWS {
        let b = r / FINE_SIZE;
        let j = r % FINE_SIZE;
        8192.0 + b as f32 * 64.0 + ((j * 13 + c * 5) % 17) as f32 * 0.37
    } else {
        let r2 = r - FINE_ROWS;
        let blob = r2 % COARSE_BLOBS;
        12.0 * ((blob * 13 + c * 5) % 4) as f32
            + ((r2 + c * 7) % 5) as f32
            + 0.0625 * ((r2 * 8 + c * 9) % 9) as f32
    }
}

/// One measured operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct RerankPoint {
    /// Point label, e.g. `adaptive@a4`.
    pub label: String,
    /// `single`, `f16`, `f32`, or `adaptive`.
    pub mode: String,
    /// Over-fetch factor (1 for the single-phase baseline).
    pub alpha: usize,
    /// Mean recall@[`K`] against exact ground truth.
    pub recall: f64,
    /// Recall over the fine-region queries alone.
    pub recall_fine: f64,
    /// Recall over the coarse-region queries alone.
    pub recall_coarse: f64,
    /// Total TrafficModel-priced bytes per query.
    pub bytes_per_query: f64,
    /// Re-rank stage bytes per query (candidate records + vector
    /// fetches); 0 for the single-phase baseline.
    pub rerank_bytes_per_query: f64,
    /// Queries the policy escalated to f32 (adaptive mode only).
    pub escalated: usize,
    /// Whether all six measured traffic components equalled the
    /// prediction exactly.
    pub traffic_match: bool,
}

/// The cheapest point of one family meeting a target.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPick {
    /// Label of the picked point.
    pub label: String,
    /// Its priced bytes per query.
    pub bytes_per_query: f64,
    /// Its measured recall.
    pub recall: f64,
}

/// Per-target comparison: cheapest adaptive vs cheapest fixed-precision
/// point reaching the target.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierRow {
    /// The recall@[`K`] target.
    pub target: f64,
    /// Cheapest adaptive point meeting it, if any.
    pub adaptive: Option<FrontierPick>,
    /// Cheapest fixed-precision (f16 or f32) point meeting it, if any.
    pub fixed: Option<FrontierPick>,
    /// Whether the adaptive pick is strictly cheaper than the fixed one
    /// (false when either is missing).
    pub adaptive_strictly_cheaper: bool,
}

/// The sweep result.
#[derive(Debug, Clone)]
pub struct RerankSweep {
    /// Database size.
    pub db_n: usize,
    /// Queries (fine + coarse).
    pub queries: usize,
    /// Queries targeting the fine region.
    pub fine_queries: usize,
    /// Shared first-pass cluster fan-out.
    pub nprobe: usize,
    /// All measured points.
    pub points: Vec<RerankPoint>,
    /// Per-target frontier comparisons.
    pub frontier: Vec<FrontierRow>,
}

fn queries(nq_fine: usize, nq_coarse: usize, n: usize) -> VectorSet {
    let rows: Vec<usize> = (0..nq_fine)
        .map(|i| (i % FINE_BLOBS) * FINE_SIZE + (i / FINE_BLOBS) % FINE_SIZE)
        .chain((0..nq_coarse).map(|i| FINE_ROWS + (i * 97) % (n - FINE_ROWS)))
        .collect();
    // Tiny perturbation so queries are near — not exactly on — their row.
    VectorSet::from_fn(DIM, rows.len(), |q, c| {
        value(rows[q], c) + ((q * 3 + c * 5) % 7) as f32 * 0.01
    })
}

fn recall_span(results: &[Vec<Neighbor>], truth: &[Vec<Neighbor>], lo: usize, hi: usize) -> f64 {
    let mut found = 0usize;
    let mut total = 0usize;
    for (gt, res) in truth[lo..hi].iter().zip(&results[lo..hi]) {
        total += gt.len();
        found += gt
            .iter()
            .filter(|t| res.iter().any(|n| n.id == t.id))
            .count();
    }
    found as f64 / total.max(1) as f64
}

/// Runs the sweep: one single-phase baseline plus
/// {f16, f32, adaptive} × alpha ∈ {1, 2, 4, 8}, each executed through
/// its exact priced plan.
pub fn run(db_n: usize, nq_fine: usize, nq_coarse: usize, targets: &[f64]) -> RerankSweep {
    assert!(db_n > FINE_ROWS + 200, "coarse region too small");
    let data = VectorSet::from_fn(DIM, db_n, value);
    let index = IvfPqIndex::build(
        &data,
        &IvfPqConfig {
            metric: Metric::L2,
            num_clusters: 48,
            // Deliberately lossy codes (4 dims per subquantizer): the
            // first pass ranks coarsely and the re-rank stage is what
            // buys recall — the regime the two-phase pipeline targets.
            m: 4,
            kstar: 16,
            ..IvfPqConfig::default()
        },
    );
    let qs = queries(nq_fine, nq_coarse, db_n);
    let nq = qs.len();
    let truth = exact::search(&qs, &data, Metric::L2, K);
    let spec = QuerySpec { k: K, scope: 6 };
    let scan = BatchedScan::with_rerank_db(&index, &data);
    let tel = Telemetry::disabled();
    // One point: the engine's plan under `rerank`, priced, executed,
    // verified.
    let measure = |mode: &str, alpha: usize, rerank: Option<RerankPolicy>| {
        let plan = plan_uniform(&scan, &qs, &spec, &PlanOptions { rerank }, &tel);
        let predicted = scan.price(&plan);
        let run = scan.execute(&qs, &plan, THREADS, &tel);
        let EnginePlan::ClusterMajor { plan: rounds, .. } = &plan else {
            unreachable!("the cluster-major engine plans cluster-major batches");
        };
        let escalated = rounds.rerank.as_ref().map_or(0, |stage| {
            stage
                .queries
                .iter()
                .filter(|q| q.precision == RerankPrecision::F32)
                .count()
        });
        RerankPoint {
            label: match rerank {
                Some(_) => format!("{mode}@a{alpha}"),
                None => mode.to_string(),
            },
            mode: mode.to_string(),
            alpha,
            recall: recall_span(&run.results, &truth, 0, nq),
            recall_fine: recall_span(&run.results, &truth, 0, nq_fine),
            recall_coarse: recall_span(&run.results, &truth, nq_fine, nq),
            bytes_per_query: predicted.total() as f64 / nq as f64,
            rerank_bytes_per_query: (predicted.rerank_candidate_bytes
                + predicted.rerank_vector_bytes) as f64
                / nq as f64,
            escalated,
            traffic_match: scan.verify(&predicted, None, &run.measured).is_ok(),
        }
    };

    // Single-phase baseline: the first-pass kernels alone.
    let mut points = vec![measure("single", 1, None)];
    let modes = [
        (RerankMode::Fixed(RerankPrecision::F16), "f16"),
        (RerankMode::Fixed(RerankPrecision::F32), "f32"),
        (RerankMode::Adaptive, "adaptive"),
    ];
    for &(mode, mode_name) in &modes {
        for alpha in [1usize, 2, 4, 8] {
            points.push(measure(
                mode_name,
                alpha,
                Some(RerankPolicy { mode, alpha }),
            ));
        }
    }

    let pick = |family: &dyn Fn(&RerankPoint) -> bool, target: f64| -> Option<FrontierPick> {
        points
            .iter()
            .filter(|p| family(p) && p.recall >= target)
            .min_by(|a, b| a.bytes_per_query.total_cmp(&b.bytes_per_query))
            .map(|p| FrontierPick {
                label: p.label.clone(),
                bytes_per_query: p.bytes_per_query,
                recall: p.recall,
            })
    };
    let frontier = targets
        .iter()
        .map(|&target| {
            let adaptive = pick(&|p: &RerankPoint| p.mode == "adaptive", target);
            let fixed = pick(
                &|p: &RerankPoint| p.mode == "f16" || p.mode == "f32",
                target,
            );
            let adaptive_strictly_cheaper = match (&adaptive, &fixed) {
                (Some(a), Some(f)) => a.bytes_per_query < f.bytes_per_query,
                _ => false,
            };
            FrontierRow {
                target,
                adaptive,
                fixed,
                adaptive_strictly_cheaper,
            }
        })
        .collect();

    RerankSweep {
        db_n,
        queries: nq,
        fine_queries: nq_fine,
        nprobe: spec.scope,
        points,
        frontier,
    }
}

impl RerankSweep {
    /// Whether every point kept predicted == measured on all six traffic
    /// components.
    pub fn all_traffic_match(&self) -> bool {
        self.points.iter().all(|p| p.traffic_match)
    }

    /// The acceptance gate: predicted == measured at every point, every
    /// frontier target up to 0.95 is reached by an adaptive point, and at
    /// targets of 0.95 and above, wherever both families reach the target
    /// the adaptive pick is strictly cheaper. (Below 0.95 a tie is
    /// allowed: easy targets are met at alpha = 1, where the adaptive and
    /// f16 ladders price identically.)
    pub fn gate(&self) -> Result<(), String> {
        if !self.all_traffic_match() {
            return Err("predicted != measured traffic (`match` column)".into());
        }
        let frontier_ok = self.frontier.iter().all(|row| {
            let reached = row.adaptive.is_some() || row.target > 0.95;
            let cheaper = row.target < 0.95
                || match (&row.adaptive, &row.fixed) {
                    (Some(_), Some(_)) => row.adaptive_strictly_cheaper,
                    _ => true,
                };
            reached && cheaper
        });
        let missed = "a recall target was missed or adaptive was not strictly cheaper";
        frontier_ok.then_some(()).ok_or_else(|| missed.into())
    }

    /// JSON report (`reports/rerank_sweep.json`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("db_n", self.db_n)
            .set("queries", self.queries)
            .set("fine_queries", self.fine_queries)
            .set("k", K)
            .set("nprobe", self.nprobe)
            .set("all_traffic_match", self.all_traffic_match())
            .set(
                "points",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Json::obj()
                                .set("label", p.label.as_str())
                                .set("mode", p.mode.as_str())
                                .set("alpha", p.alpha)
                                .set("recall", p.recall)
                                .set("recall_fine", p.recall_fine)
                                .set("recall_coarse", p.recall_coarse)
                                .set("bytes_per_query", p.bytes_per_query)
                                .set("rerank_bytes_per_query", p.rerank_bytes_per_query)
                                .set("escalated", p.escalated)
                                .set("traffic_match", p.traffic_match)
                        })
                        .collect(),
                ),
            )
            .set(
                "frontier",
                Json::Arr(
                    self.frontier
                        .iter()
                        .map(|row| {
                            let pick = |p: &Option<FrontierPick>| match p {
                                Some(p) => Json::obj()
                                    .set("label", p.label.as_str())
                                    .set("bytes_per_query", p.bytes_per_query)
                                    .set("recall", p.recall),
                                None => Json::Null,
                            };
                            Json::obj()
                                .set("target", row.target)
                                .set("adaptive", pick(&row.adaptive))
                                .set("fixed", pick(&row.fixed))
                                .set("adaptive_strictly_cheaper", row.adaptive_strictly_cheaper)
                        })
                        .collect(),
                ),
            )
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = format!(
            "\n=== two-phase re-rank sweep (N={}, {} queries [{} fine], k={}, nprobe={}) ===\n\
             {:<14} {:>7} {:>7} {:>7} {:>10} {:>10} {:>6} {:>6}\n",
            self.db_n,
            self.queries,
            self.fine_queries,
            K,
            self.nprobe,
            "point",
            "recall",
            "fine",
            "coarse",
            "bytes/q",
            "rerank/q",
            "esc",
            "match"
        );
        for p in &self.points {
            s.push_str(&format!(
                "{:<14} {:>7.4} {:>7.4} {:>7.4} {:>10.0} {:>10.0} {:>6} {:>6}\n",
                p.label,
                p.recall,
                p.recall_fine,
                p.recall_coarse,
                p.bytes_per_query,
                p.rerank_bytes_per_query,
                p.escalated,
                p.traffic_match
            ));
        }
        for row in &self.frontier {
            let fmt = |p: &Option<FrontierPick>| match p {
                Some(p) => format!(
                    "{} ({:.0} B/q, r={:.4})",
                    p.label, p.bytes_per_query, p.recall
                ),
                None => "unreached".to_string(),
            };
            s.push_str(&format!(
                "target {:.2}: adaptive {} vs fixed {} → adaptive cheaper: {}\n",
                row.target,
                fmt(&row.adaptive),
                fmt(&row.fixed),
                row.adaptive_strictly_cheaper
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_meets_targets_with_exact_traffic_and_adaptive_frontier() {
        let sweep = run(4_000, 32, 32, &[0.90, 0.95]);
        assert_eq!(sweep.gate(), Ok(()), "\n{}", sweep.render());
        // The structural premise: at the winning alpha, adaptive splits
        // the population — some queries escalated, some not.
        let split = sweep
            .points
            .iter()
            .any(|p| p.mode == "adaptive" && p.escalated > 0 && p.escalated < sweep.queries);
        assert!(
            split,
            "adaptive never split the population:\n{}",
            sweep.render()
        );
    }
}
