//! The adaptive two-phase controller: measure a ladder of
//! `(precision mode, alpha)` rungs on a calibration sample, then pick the
//! cheapest rung that hits a recall target.
//!
//! The per-query half of the controller lives in the plan layer
//! ([`RerankPolicy::query_decision`]): given a policy, each query's
//! `(candidates, precision)` is a deterministic plan-time function of its
//! candidate pool. What the plan layer cannot know is *which policy* hits
//! a recall target on real data — recall depends on the dataset and the
//! quantization error, not just on byte counts. [`RerankController`]
//! closes that loop empirically: it runs each candidate policy over a
//! sample batch through the engine pipeline
//! ([`anna_engine::SearchEngine`]: plan, price, execute, verify), scores
//! recall against exact ground truth ([`anna_vector::exact::search`]), and
//! records whether measured bytes matched the prediction.
//! [`RerankController::choose`] then returns the cheapest rung meeting the
//! target — minimizing TrafficModel-priced bytes subject to
//! `recall >= target`, the tentpole's controller objective.

use crate::batched::BatchedScan;
use crate::ivf::IvfPqIndex;
use crate::parallel::resolve_threads;
use crate::SearchParams;
use anna_engine::{plan_uniform, PlanOptions, QuerySpec, SearchEngine};
use anna_plan::{RerankPolicy, TrafficReport};
use anna_telemetry::Telemetry;
use anna_vector::{exact, VectorSet};

/// One calibrated operating point of the two-phase pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungMeasurement {
    /// The policy this rung ran.
    pub policy: RerankPolicy,
    /// Mean recall@k against exact ground truth on the calibration sample.
    pub recall: f64,
    /// TrafficModel-priced bytes per query (total plan bytes / batch).
    pub bytes_per_query: f64,
    /// The full predicted traffic of the calibration batch.
    pub predicted: TrafficReport,
    /// Whether every measured traffic component equalled the prediction
    /// exactly (first pass and re-rank stage).
    pub traffic_match: bool,
}

/// A calibrated ladder of two-phase operating points (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct RerankController {
    /// Final `k` the rungs were calibrated for.
    pub k: usize,
    /// Measured rungs, in ladder order.
    pub rungs: Vec<RungMeasurement>,
}

impl RerankController {
    /// Measures every policy in `ladder` on `sample` queries: recall@k
    /// against exact ground truth over `db`, TrafficModel-priced bytes of
    /// the exact executed plan, and the predicted == measured check.
    ///
    /// `params.k` is the final `k`; `params.nprobe` is shared by all
    /// rungs (the ladder varies precision and alpha, not cluster
    /// coverage); `threads == 0` means one worker per available core.
    /// Calibration is deterministic — same index, sample, and ladder
    /// always produce the same rungs at any worker count.
    ///
    /// # Panics
    ///
    /// Panics if `ladder` is empty, dimensions mismatch, or
    /// `params.k == 0`.
    pub fn calibrate(
        index: &IvfPqIndex,
        db: &VectorSet,
        sample: &VectorSet,
        params: &SearchParams,
        ladder: &[RerankPolicy],
        threads: usize,
    ) -> Self {
        assert!(!ladder.is_empty(), "calibration ladder must be non-empty");
        assert!(params.k > 0, "k must be positive");
        let truth = exact::search(sample, db, index.metric(), params.k);
        let scan = BatchedScan::with_rerank_db(index, db);
        let spec = QuerySpec::from(params);
        let threads = resolve_threads(threads);
        let tel = Telemetry::disabled();
        let nq = sample.len().max(1);

        let rungs = ladder
            .iter()
            .map(|&policy| {
                let options = PlanOptions {
                    rerank: Some(policy),
                };
                let plan = plan_uniform(&scan, sample, &spec, &options, &tel);
                let predicted = scan.price(&plan);
                let run = scan.execute(sample, &plan, threads, &tel);
                let traffic_match = scan.verify(&predicted, None, &run.measured).is_ok();
                let mut found = 0usize;
                let mut total = 0usize;
                for (gt, res) in truth.iter().zip(&run.results) {
                    total += gt.len();
                    found += gt
                        .iter()
                        .filter(|t| res.iter().any(|n| n.id == t.id))
                        .count();
                }
                RungMeasurement {
                    policy,
                    recall: found as f64 / total.max(1) as f64,
                    bytes_per_query: predicted.total() as f64 / nq as f64,
                    predicted,
                    traffic_match,
                }
            })
            .collect();
        Self { k: params.k, rungs }
    }

    /// The cheapest rung whose calibrated recall meets `target`
    /// (minimizing bytes per query), or `None` if no rung reaches it —
    /// callers typically fall back to [`RerankController::best_recall`].
    pub fn choose(&self, target: f64) -> Option<&RungMeasurement> {
        self.rungs
            .iter()
            .filter(|r| r.recall >= target)
            .min_by(|a, b| {
                a.bytes_per_query
                    .total_cmp(&b.bytes_per_query)
                    .then_with(|| a.policy.alpha.cmp(&b.policy.alpha))
            })
    }

    /// The rung with the highest calibrated recall (ties to fewer bytes).
    ///
    /// # Panics
    ///
    /// Panics if the controller has no rungs (calibrate rejects that).
    pub fn best_recall(&self) -> &RungMeasurement {
        self.rungs
            .iter()
            .max_by(|a, b| {
                a.recall
                    .total_cmp(&b.recall)
                    .then_with(|| b.bytes_per_query.total_cmp(&a.bytes_per_query))
            })
            .expect("controller holds at least one rung")
    }

    /// Whether every calibration rung's measured bytes matched its
    /// prediction exactly.
    pub fn all_traffic_match(&self) -> bool {
        self.rungs.iter().all(|r| r.traffic_match)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivf::IvfPqConfig;
    use anna_plan::{RerankMode, RerankPrecision};
    use anna_vector::Metric;

    fn fixture() -> (VectorSet, IvfPqIndex, VectorSet) {
        let data = VectorSet::from_fn(8, 600, |r, c| {
            let blob = (r % 8) as f32;
            blob * 20.0 + ((r * 31 + c * 7) % 10) as f32 * 0.2
        });
        let index = IvfPqIndex::build(
            &data,
            &IvfPqConfig {
                metric: Metric::L2,
                num_clusters: 12,
                m: 4,
                kstar: 16,
                ..IvfPqConfig::default()
            },
        );
        let sample = data.gather(&(0..32).map(|i| i * 17 % 600).collect::<Vec<_>>());
        (data, index, sample)
    }

    fn ladder() -> Vec<RerankPolicy> {
        vec![
            RerankPolicy {
                mode: RerankMode::Fixed(RerankPrecision::F16),
                alpha: 2,
            },
            RerankPolicy {
                mode: RerankMode::Fixed(RerankPrecision::F16),
                alpha: 4,
            },
            RerankPolicy {
                mode: RerankMode::Fixed(RerankPrecision::F32),
                alpha: 4,
            },
        ]
    }

    #[test]
    fn calibration_measures_exact_traffic_on_every_rung() {
        let (data, index, sample) = fixture();
        let params = SearchParams {
            nprobe: 4,
            k: 5,
            ..Default::default()
        };
        let ctl = RerankController::calibrate(&index, &data, &sample, &params, &ladder(), 1);
        assert_eq!(ctl.rungs.len(), 3);
        assert!(ctl.all_traffic_match(), "predicted != measured on a rung");
        for r in &ctl.rungs {
            assert!((0.0..=1.0).contains(&r.recall));
            assert!(r.bytes_per_query > 0.0);
            assert!(r.predicted.rerank_vector_bytes > 0);
        }
    }

    #[test]
    fn choose_returns_cheapest_meeting_target_or_none() {
        let (data, index, sample) = fixture();
        let params = SearchParams {
            nprobe: 4,
            k: 5,
            ..Default::default()
        };
        let ctl = RerankController::calibrate(&index, &data, &sample, &params, &ladder(), 1);
        let best = ctl.best_recall();
        if let Some(pick) = ctl.choose(best.recall) {
            assert!(pick.recall >= best.recall);
            // No rung meeting the target is cheaper than the pick.
            for r in ctl.rungs.iter().filter(|r| r.recall >= best.recall) {
                assert!(pick.bytes_per_query <= r.bytes_per_query);
            }
        } else {
            panic!("best-recall rung must satisfy its own recall as target");
        }
        assert!(ctl.choose(1.1).is_none(), "recall above 1.0 is unreachable");
    }

    #[test]
    fn calibration_is_deterministic() {
        let (data, index, sample) = fixture();
        let params = SearchParams {
            nprobe: 4,
            k: 5,
            ..Default::default()
        };
        let a = RerankController::calibrate(&index, &data, &sample, &params, &ladder(), 1);
        let b = RerankController::calibrate(&index, &data, &sample, &params, &ladder(), 4);
        assert_eq!(a, b, "calibration must not depend on worker count");
    }
}
