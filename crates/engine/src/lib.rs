//! The engine-agnostic query-execution layer.
//!
//! Every index family in the workspace answers queries through the same
//! five-step pipeline:
//!
//! ```text
//!  workload() ──▶ plan() ──▶ price() ──▶ execute() ──▶ verify()
//!  (query_scope)  EnginePlan  TrafficReport  EngineRun   predicted ==
//!                 (tagged IR)  (bytes, exact) (results +  measured,
//!                                             measured)   per component
//! ```
//!
//! [`SearchEngine`] is that pipeline as a trait. The cluster-major IVF-PQ
//! batch engine, its sharded/tiered variant (`anna-index`), and the
//! beam-search graph engine (`anna-graph`) all implement it, so the
//! serving layer composes and prices batches against `dyn SearchEngine`
//! without knowing which family it holds, and every engine inherits the
//! workspace's headline invariant: the [`TrafficReport`] predicted from
//! the plan equals the measured byte counters, exactly, component by
//! component.
//!
//! The trait is deliberately object-safe — `anna-serve`'s batcher holds a
//! `&dyn SearchEngine` — and the default `price`/`price_tiered`/`verify`
//! methods delegate to [`TrafficModel::price_engine`] and
//! [`anna_testkit::traffic_match`], so an engine only has to describe
//! scopes, build its tagged [`EnginePlan`], and execute it.

#![deny(missing_docs)]

use anna_plan::{
    ClusterCacheSim, EnginePlan, PlanParams, RerankPolicy, TierTraffic, TrafficModel, TrafficReport,
};
use anna_telemetry::Telemetry;
use anna_vector::{Metric, Neighbor, VectorSet};
use serde::{Deserialize, Serialize};

/// Per-query search request, engine-neutral: how many results and how
/// wide to search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuerySpec {
    /// Number of results to return.
    pub k: usize,
    /// Search width — the engine's recall knob: `nprobe` (clusters
    /// visited) for IVF engines, beam width `ef` for graph engines.
    pub scope: usize,
}

/// Batch-level planning options.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PlanOptions {
    /// Optional two-phase re-rank policy (engines that cannot re-rank
    /// panic if set — see each implementation's docs).
    pub rerank: Option<RerankPolicy>,
}

/// The byte counters an engine measures during execution, in the shared
/// [`TrafficReport`] vocabulary. Components an engine does not measure
/// directly (centroid streams, query lists, result stores) are
/// definitional — they follow from the plan — so only the six measured
/// counters are compared.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MeasuredTraffic {
    /// Encoded-vector bytes fetched.
    pub code_bytes: u64,
    /// Metadata bytes fetched (cluster descriptors, or graph adjacency
    /// lists — same field the model prices them into).
    pub cluster_meta_bytes: u64,
    /// Intermediate top-k spill bytes.
    pub topk_spill_bytes: u64,
    /// Intermediate top-k fill bytes.
    pub topk_fill_bytes: u64,
    /// Re-rank candidate-record bytes (two-phase runs only).
    pub rerank_candidate_bytes: u64,
    /// Re-rank vector-fetch bytes (two-phase runs only).
    pub rerank_vector_bytes: u64,
    /// Storage-tier split, for engines with a tiered backend (`None`
    /// for all-RAM engines).
    pub tier: Option<TierTraffic>,
}

impl MeasuredTraffic {
    /// `(component, predicted, measured)` triples for the six measured
    /// byte counters, ready for [`anna_testkit::traffic_match`].
    pub fn components(&self, predicted: &TrafficReport) -> Vec<(&'static str, u64, u64)> {
        vec![
            ("code_bytes", predicted.code_bytes, self.code_bytes),
            (
                "cluster_meta_bytes",
                predicted.cluster_meta_bytes,
                self.cluster_meta_bytes,
            ),
            (
                "topk_spill_bytes",
                predicted.topk_spill_bytes,
                self.topk_spill_bytes,
            ),
            (
                "topk_fill_bytes",
                predicted.topk_fill_bytes,
                self.topk_fill_bytes,
            ),
            (
                "rerank_candidate_bytes",
                predicted.rerank_candidate_bytes,
                self.rerank_candidate_bytes,
            ),
            (
                "rerank_vector_bytes",
                predicted.rerank_vector_bytes,
                self.rerank_vector_bytes,
            ),
        ]
    }

    /// `(component, predicted, measured)` triples for the storage-tier
    /// split (byte fields and cache-event counts), comparing `self.tier`
    /// against `predicted`. Empty when the engine measured no tier.
    pub fn tier_components(&self, predicted: &TierTraffic) -> Vec<(&'static str, u64, u64)> {
        match &self.tier {
            None => Vec::new(),
            Some(t) => vec![
                (
                    "tier.cache_code_bytes",
                    predicted.cache_code_bytes,
                    t.cache_code_bytes,
                ),
                (
                    "tier.disk_code_bytes",
                    predicted.disk_code_bytes,
                    t.disk_code_bytes,
                ),
                ("tier.cache_hits", predicted.cache_hits, t.cache_hits),
                ("tier.cache_misses", predicted.cache_misses, t.cache_misses),
                (
                    "tier.cache_admissions",
                    predicted.cache_admissions,
                    t.cache_admissions,
                ),
                (
                    "tier.cache_evictions",
                    predicted.cache_evictions,
                    t.cache_evictions,
                ),
            ],
        }
    }
}

/// The output of [`SearchEngine::execute`]: per-query results plus the
/// measured traffic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EngineRun {
    /// Per-query neighbors, best first, query order.
    pub results: Vec<Vec<Neighbor>>,
    /// Measured byte counters for the batch.
    pub measured: MeasuredTraffic,
}

/// An execution engine behind the workload → plan → price → execute →
/// verify pipeline.
///
/// The contract every implementation upholds:
///
/// * `plan()` is a pure function of `(self, queries, specs, scopes,
///   options)` — no hidden state advances — so pricing a plan and then
///   executing it sees the same schedule.
/// * `execute()` is deterministic: results and measured counters are
///   bit-identical at every `threads ≥ 1`.
/// * `verify()` holds: the priced report equals the measured counters
///   component for component, exactly.
pub trait SearchEngine {
    /// The engine family's stable name (telemetry and error contexts).
    fn name(&self) -> &'static str;

    /// Vector dimension `D` the engine indexes.
    fn dim(&self) -> usize;

    /// The similarity metric.
    fn metric(&self) -> Metric;

    /// The *workload* step: resolves one query's search scope into the
    /// engine's own id space — visited cluster ids for IVF engines
    /// (ordering matters: best cluster first), a deterministic traversal
    /// scope for graph engines.
    fn query_scope(&self, q: &[f32], spec: &QuerySpec) -> Vec<usize>;

    /// The *plan* step: builds the engine-tagged plan IR for a batch.
    /// `scopes[i]` must be `query_scope(queries.row(i), &specs[i])` —
    /// callers that already computed scopes (e.g. the serving batcher's
    /// visit cache) pass them through so planning never re-derives them.
    fn plan(
        &self,
        queries: &VectorSet,
        specs: &[QuerySpec],
        scopes: &[Vec<usize>],
        options: &PlanOptions,
    ) -> EnginePlan;

    /// The *price* step: the predicted traffic of executing `plan`.
    fn price(&self, plan: &EnginePlan) -> TrafficReport {
        TrafficModel::new(PlanParams::default()).price_engine(plan)
    }

    /// The *price* step with a storage-tier split: `cache` is the
    /// cluster-cache policy state the plan will run against (cluster-major
    /// plans advance it; pass a clone to predict without committing).
    fn price_tiered(
        &self,
        plan: &EnginePlan,
        cache: &mut ClusterCacheSim,
    ) -> (TrafficReport, TierTraffic) {
        TrafficModel::new(PlanParams::default()).price_engine_tiered(plan, cache)
    }

    /// The *execute* step: runs `plan` on up to `threads` workers.
    /// `queries` must be the batch the plan was built from.
    fn execute(
        &self,
        queries: &VectorSet,
        plan: &EnginePlan,
        threads: usize,
        tel: &Telemetry,
    ) -> EngineRun;

    /// The *verify* step: asserts predicted == measured component by
    /// component (tier split included when both sides carry one),
    /// returning the component-naming error from
    /// [`anna_testkit::traffic_match`] on mismatch.
    fn verify(
        &self,
        predicted: &TrafficReport,
        predicted_tier: Option<&TierTraffic>,
        measured: &MeasuredTraffic,
    ) -> Result<(), String> {
        let mut components = measured.components(predicted);
        if let Some(pt) = predicted_tier {
            components.extend(measured.tier_components(pt));
        }
        anna_testkit::traffic_match(self.name(), &components)
    }
}

/// The first two pipeline steps for one uniform batch: scope every query
/// with `spec`, then plan. Timed as the spans `engine.scope` and
/// `engine.plan`.
pub fn plan_uniform(
    engine: &dyn SearchEngine,
    queries: &VectorSet,
    spec: &QuerySpec,
    options: &PlanOptions,
    tel: &Telemetry,
) -> EnginePlan {
    let scopes: Vec<Vec<usize>> = {
        let _span = tel.span("engine.scope");
        queries
            .iter()
            .map(|q| engine.query_scope(q, spec))
            .collect()
    };
    let specs = vec![*spec; queries.len()];
    let _span = tel.span("engine.plan");
    engine.plan(queries, &specs, &scopes, options)
}

/// Runs the full pipeline for one uniform batch: scope every query with
/// `spec`, plan, price, execute at `threads`, verify (the storage-tier
/// split included when the plan predicts one), and emit `engine.*`
/// telemetry. Returns the plan, the predicted report, and the run, or the
/// component-naming verification error.
///
/// Each step is timed as a span — `engine.scope`, `engine.plan`,
/// `engine.price`, `engine.execute`, `engine.verify` — and the counters
/// `engine.batches`, `engine.queries`, `engine.predicted_bytes`,
/// `engine.code_bytes`, `engine.meta_bytes`, `engine.traffic_mismatches`
/// are emitted (all under the `engine.` prefix).
///
/// # Errors
///
/// Returns `Err` with the component-naming message when predicted and
/// measured traffic disagree.
pub fn run_pipeline(
    engine: &dyn SearchEngine,
    queries: &VectorSet,
    spec: &QuerySpec,
    options: &PlanOptions,
    threads: usize,
    tel: &Telemetry,
) -> Result<(EnginePlan, TrafficReport, EngineRun), String> {
    let plan = plan_uniform(engine, queries, spec, options, tel);
    let predicted = {
        let _span = tel.span("engine.price");
        engine.price(&plan)
    };
    let run = {
        let _span = tel.span("engine.execute");
        engine.execute(queries, &plan, threads, tel)
    };
    tel.counter_add("engine.batches", 1);
    tel.counter_add("engine.queries", queries.len() as u64);
    tel.counter_add("engine.predicted_bytes", predicted.total());
    tel.counter_add("engine.code_bytes", run.measured.code_bytes);
    tel.counter_add("engine.meta_bytes", run.measured.cluster_meta_bytes);
    let verified = {
        let _span = tel.span("engine.verify");
        engine.verify(&predicted, plan.predicted_tier(), &run.measured)
    };
    match verified {
        Ok(()) => Ok((plan, predicted, run)),
        Err(msg) => {
            tel.counter_add("engine.traffic_mismatches", 1);
            Err(msg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anna_plan::{GraphPlan, GraphQueryPlan, GraphShape, GraphWorkload, ShardedBatchPlan};

    /// A toy engine that "scans" nothing and reports exactly what its
    /// plan prices — enough to exercise the default methods and the
    /// pipeline helper without a real index.
    #[derive(Default)]
    struct NullEngine {
        dim: usize,
        lie_about_code_bytes: bool,
        /// `(predicted, measured)` storage-tier disk bytes: when set the
        /// engine plans an (empty) sharded batch predicting the first and
        /// reports the second.
        tier_disk_bytes: Option<(u64, u64)>,
    }

    impl SearchEngine for NullEngine {
        fn name(&self) -> &'static str {
            "null"
        }

        fn dim(&self) -> usize {
            self.dim
        }

        fn metric(&self) -> Metric {
            Metric::L2
        }

        fn query_scope(&self, _q: &[f32], spec: &QuerySpec) -> Vec<usize> {
            (0..spec.scope).collect()
        }

        fn plan(
            &self,
            queries: &VectorSet,
            specs: &[QuerySpec],
            scopes: &[Vec<usize>],
            options: &PlanOptions,
        ) -> EnginePlan {
            assert!(options.rerank.is_none());
            assert_eq!(specs.len(), queries.len());
            if let Some((predicted, _)) = self.tier_disk_bytes {
                return EnginePlan::Sharded(ShardedBatchPlan {
                    per_shard: Vec::new(),
                    merge_units: 0,
                    spill_unit_bytes: 0,
                    b: queries.len(),
                    k: 1,
                    predicted_tier: TierTraffic {
                        disk_code_bytes: predicted,
                        ..TierTraffic::default()
                    },
                });
            }
            EnginePlan::Graph {
                workload: GraphWorkload {
                    shape: GraphShape {
                        d: self.dim,
                        m: 4,
                        kstar: 16,
                        metric: Metric::L2,
                        num_nodes: 10,
                        degree: 4,
                        k: specs.first().map(|s| s.k).unwrap_or(1),
                    },
                    beams: specs.iter().map(|s| s.scope).collect(),
                },
                plan: GraphPlan {
                    per_query: scopes
                        .iter()
                        .map(|s| GraphQueryPlan {
                            visited: s.len() as u64,
                            scanned: 2 * s.len() as u64,
                        })
                        .collect(),
                },
            }
        }

        fn execute(
            &self,
            queries: &VectorSet,
            plan: &EnginePlan,
            _threads: usize,
            _tel: &Telemetry,
        ) -> EngineRun {
            let predicted = self.price(plan);
            EngineRun {
                results: vec![Vec::new(); queries.len()],
                measured: MeasuredTraffic {
                    code_bytes: if self.lie_about_code_bytes {
                        predicted.code_bytes + 1
                    } else {
                        predicted.code_bytes
                    },
                    cluster_meta_bytes: predicted.cluster_meta_bytes,
                    tier: self.tier_disk_bytes.map(|(_, measured)| TierTraffic {
                        disk_code_bytes: measured,
                        ..TierTraffic::default()
                    }),
                    ..MeasuredTraffic::default()
                },
            }
        }
    }

    #[test]
    fn pipeline_verifies_and_counts_under_engine_prefix() {
        let engine = NullEngine {
            dim: 8,
            ..NullEngine::default()
        };
        let queries = VectorSet::from_fn(8, 3, |r, c| (r + c) as f32);
        let tel = Telemetry::enabled();
        let spec = QuerySpec { k: 2, scope: 5 };
        let (plan, predicted, run) =
            run_pipeline(&engine, &queries, &spec, &PlanOptions::default(), 1, &tel)
                .expect("null engine matches its own prediction");
        assert_eq!(plan.engine(), "graph");
        assert_eq!(run.results.len(), 3);
        assert!(predicted.total() > 0);
        let snapshot = tel.snapshot_json().expect("enabled telemetry");
        for key in [
            "engine.batches",
            "engine.predicted_bytes",
            "engine.scope",
            "engine.plan",
            "engine.price",
            "engine.execute",
            "engine.verify",
        ] {
            assert!(snapshot.contains(key), "missing {key} in {snapshot}");
        }
    }

    #[test]
    fn pipeline_reports_mismatch_by_component() {
        let engine = NullEngine {
            dim: 8,
            lie_about_code_bytes: true,
            ..NullEngine::default()
        };
        let queries = VectorSet::from_fn(8, 2, |r, c| (r * 3 + c) as f32);
        let tel = Telemetry::enabled();
        let err = run_pipeline(
            &engine,
            &queries,
            &QuerySpec { k: 1, scope: 3 },
            &PlanOptions::default(),
            1,
            &tel,
        )
        .expect_err("lying engine must fail verification");
        assert!(err.contains("null"), "{err}");
        assert!(err.contains("code_bytes"), "{err}");
        let snapshot = tel.snapshot_json().expect("enabled telemetry");
        assert!(snapshot.contains("engine.traffic_mismatches"), "{snapshot}");
    }

    #[test]
    fn pipeline_verifies_the_tier_split_the_plan_predicts() {
        let queries = VectorSet::from_fn(4, 2, |r, c| (r + c) as f32);
        let run = |tier_disk_bytes| {
            let engine = NullEngine {
                dim: 4,
                tier_disk_bytes: Some(tier_disk_bytes),
                ..NullEngine::default()
            };
            run_pipeline(
                &engine,
                &queries,
                &QuerySpec { k: 1, scope: 1 },
                &PlanOptions::default(),
                1,
                &Telemetry::disabled(),
            )
        };
        run((64, 64)).expect("honest tier split verifies");
        let err = run((64, 65)).expect_err("a drifted tier split must fail verification");
        assert!(err.contains("tier.disk_code_bytes"), "{err}");
    }

    #[test]
    fn verify_includes_tier_components_when_both_sides_have_them() {
        let engine = NullEngine {
            dim: 4,
            ..NullEngine::default()
        };
        let predicted = TrafficReport::default();
        let predicted_tier = TierTraffic {
            cache_code_bytes: 100,
            ..TierTraffic::default()
        };
        let measured = MeasuredTraffic {
            tier: Some(TierTraffic::default()),
            ..MeasuredTraffic::default()
        };
        let err = engine
            .verify(&predicted, Some(&predicted_tier), &measured)
            .expect_err("tier split disagrees");
        assert!(err.contains("tier.cache_code_bytes"), "{err}");
        // Without a measured tier the predicted tier is not compared.
        engine
            .verify(
                &predicted,
                Some(&predicted_tier),
                &MeasuredTraffic::default(),
            )
            .expect("no measured tier to compare");
    }
}
