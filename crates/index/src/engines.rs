//! [`SearchEngine`] implementations for the IVF-PQ engines — the one
//! execution path of this crate: the cluster-major [`BatchedScan`]
//! (single-phase and two-phase re-rank) and the shard-parallel
//! [`ShardedIndex`] (RAM or tiered shards).
//!
//! `plan()` is the only place an engine's schedule is assembled: the
//! cost-shaped cluster-major plan (with the [`anna_plan::RerankStage`]
//! under [`PlanOptions::rerank`]) for [`BatchedScan`], the unbounded
//! per-shard plans plus merge units and tier split for [`ShardedIndex`].
//! `execute()` adapts the two inherent executors,
//! [`BatchedScan::run_plan`] and [`ShardedIndex::run_plan`] — both feed
//! the plan they are handed to the crate's one round loop
//! ([`crate::parallel`]) and nothing else — so the headline
//! predicted == measured invariant is checked on the same code the
//! serving layer and the benchmark run.

use crate::batched::{BatchStats, BatchedScan};
use crate::shard::{ShardedIndex, ShardedStats};
use crate::{LutPrecision, SearchParams};
use anna_engine::{EngineRun, MeasuredTraffic, PlanOptions, QuerySpec, SearchEngine};
use anna_plan::{BatchPlan, EnginePlan, PlanParams, TileShaper, CLUSTER_META_BYTES};
use anna_telemetry::Telemetry;
use anna_vector::{Metric, VectorSet};

/// The engine-neutral view of per-query parameters: `k` results, with
/// `nprobe` as the search scope (the lookup-table precision is an
/// executor concern and does not enter planning).
impl From<&SearchParams> for QuerySpec {
    fn from(params: &SearchParams) -> Self {
        QuerySpec {
            k: params.k,
            scope: params.nprobe,
        }
    }
}

impl BatchStats {
    /// The engine layer's view of these counters: the six compared byte
    /// components, with cluster descriptors priced at
    /// [`CLUSTER_META_BYTES`] per fetch (no storage tier — the plain
    /// batch engine is all-RAM).
    pub fn to_measured(&self) -> MeasuredTraffic {
        MeasuredTraffic {
            code_bytes: self.code_bytes,
            cluster_meta_bytes: self.clusters_fetched * CLUSTER_META_BYTES,
            topk_spill_bytes: self.topk_spill_bytes,
            topk_fill_bytes: self.topk_fill_bytes,
            rerank_candidate_bytes: self.rerank_candidate_bytes,
            rerank_vector_bytes: self.rerank_vector_bytes,
            tier: None,
        }
    }
}

impl ShardedStats {
    /// The engine layer's view of a sharded batch: the cluster-major
    /// counters plus the measured storage-tier split.
    pub fn to_measured(&self) -> MeasuredTraffic {
        MeasuredTraffic {
            tier: Some(self.tier),
            ..self.batch.to_measured()
        }
    }
}

/// The cluster-major IVF-PQ batch engine behind the shared trait.
///
/// `plan()` builds the engine's schedule: the batch-wide result count is
/// the largest requested `k` (every query runs at it and per-request
/// truncation is the caller's concern), the first-pass heap runs at
/// `policy.k_first(k_exec)` under a re-rank policy, and the round schedule
/// is the cost-shaped [`BatchPlan::shaped_from_visitors`] tiling: one
/// tile per visited cluster, except that heavyweight clusters are split
/// by [`TileShaper`] so no tile dominates a round. The shaping is a pure
/// function of the workload (never of the runtime thread count), so the
/// plan — and therefore the measured [`BatchStats`] — is identical
/// however many workers execute it.
///
/// `execute()` pins the lookup tables to [`LutPrecision::F32`] (the CPU
/// reference precision; f16 tables stay on the inherent
/// [`BatchedScan::run_plan`]).
impl SearchEngine for BatchedScan<'_> {
    fn name(&self) -> &'static str {
        "ivf_pq"
    }

    fn dim(&self) -> usize {
        self.index().dim()
    }

    fn metric(&self) -> Metric {
        self.index().metric()
    }

    fn query_scope(&self, q: &[f32], spec: &QuerySpec) -> Vec<usize> {
        self.index().filter_clusters(q, spec.scope)
    }

    fn plan(
        &self,
        queries: &VectorSet,
        specs: &[QuerySpec],
        scopes: &[Vec<usize>],
        options: &PlanOptions,
    ) -> EnginePlan {
        assert_eq!(specs.len(), queries.len(), "one spec per query");
        assert_eq!(scopes.len(), queries.len(), "one scope per query");
        let k_exec = specs.iter().map(|s| s.k).max().unwrap_or(1).max(1);
        // Two-phase plans over-fetch: the engine's heaps (and therefore
        // the workload shape and the spill unit) run at the first-pass k.
        let k_scan = options
            .rerank
            .map_or(k_exec, |policy| policy.k_first(k_exec));
        let workload = self.workload_from_scopes(scopes.to_vec(), k_scan);
        let params = PlanParams::default();
        let spill_unit = k_scan as u64 * params.topk_record_bytes as u64;
        let mut plan = BatchPlan::shaped_from_visitors(
            &workload.visitors_per_cluster(),
            &workload.cluster_sizes,
            workload.shape.encoded_bytes_per_vector(),
            &TileShaper::default(),
            spill_unit,
        );
        if let Some(policy) = options.rerank {
            plan =
                plan.with_rerank(policy.stage(&workload, k_exec, params.topk_record_bytes as u64));
        }
        EnginePlan::ClusterMajor { workload, plan }
    }

    fn execute(
        &self,
        queries: &VectorSet,
        plan: &EnginePlan,
        threads: usize,
        tel: &Telemetry,
    ) -> EngineRun {
        let EnginePlan::ClusterMajor { workload, plan } = plan else {
            panic!("ivf_pq engine received a {} plan", plan.engine());
        };
        let params = SearchParams {
            // The plan already fixes the rounds; nprobe is inert here.
            nprobe: 0,
            k: workload.shape.k,
            lut_precision: LutPrecision::F32,
        };
        let (results, stats) = self.run_plan(queries, &params, plan, threads.max(1), tel);
        EngineRun {
            results,
            measured: stats.to_measured(),
        }
    }
}

/// The shard-parallel IVF-PQ engine behind the shared trait.
///
/// Requires a *uniform* batch (every spec the same `k` and scope — a
/// [`anna_plan::ShardedBatchPlan`] carries one heap size) and no re-rank
/// policy. `plan()` assembles the [`anna_plan::ShardedBatchPlan`]
/// — per-shard unbounded cluster-major plans, the cross-shard merge
/// units, and the tier split replayed against clones of the live cache
/// states — so planning and pricing never advance the tiered shards, and
/// the prediction equals what `execute()` measures provided no other
/// batch runs against the tiered shards in between.
///
/// # Panics
///
/// `plan()` panics on non-uniform specs or a re-rank policy; `execute()`
/// panics on a plan built for another index or batch (see
/// [`ShardedIndex::run_plan`]) and if a tiered shard's storage read fails
/// (the trait path has no error channel — call
/// [`ShardedIndex::run_plan`] directly to handle storage errors).
impl SearchEngine for ShardedIndex {
    fn name(&self) -> &'static str {
        "ivf_pq_sharded"
    }

    fn dim(&self) -> usize {
        ShardedIndex::dim(self)
    }

    fn metric(&self) -> Metric {
        ShardedIndex::metric(self)
    }

    fn query_scope(&self, q: &[f32], spec: &QuerySpec) -> Vec<usize> {
        self.filter_clusters(q, spec.scope)
    }

    fn plan(
        &self,
        queries: &VectorSet,
        specs: &[QuerySpec],
        scopes: &[Vec<usize>],
        options: &PlanOptions,
    ) -> EnginePlan {
        assert_eq!(specs.len(), queries.len(), "one spec per query");
        assert_eq!(scopes.len(), queries.len(), "one scope per query");
        assert!(
            options.rerank.is_none(),
            "the sharded engine has no re-rank phase"
        );
        let first = specs
            .first()
            .copied()
            .unwrap_or(QuerySpec { k: 1, scope: 1 });
        assert!(
            specs.iter().all(|s| *s == first),
            "the sharded engine requires a uniform batch (one k and scope)"
        );
        EnginePlan::Sharded(self.engine_batch_plan(scopes, first.k))
    }

    fn execute(
        &self,
        queries: &VectorSet,
        plan: &EnginePlan,
        threads: usize,
        tel: &Telemetry,
    ) -> EngineRun {
        let EnginePlan::Sharded(p) = plan else {
            panic!("ivf_pq_sharded engine received a {} plan", plan.engine());
        };
        let (results, stats) = self
            .run_plan(queries, p, threads, tel)
            .expect("tiered shard storage read failed");
        EngineRun {
            results,
            measured: stats.to_measured(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivf::{IvfPqConfig, IvfPqIndex};
    use anna_engine::plan_uniform;

    fn build() -> (VectorSet, IvfPqIndex) {
        let data = VectorSet::from_fn(8, 540, |r, c| {
            (r % 9) as f32 * 16.0 + ((r * 31 + c * 7) % 11) as f32 * 0.3
        });
        let index = IvfPqIndex::build(
            &data,
            &IvfPqConfig {
                num_clusters: 12,
                m: 4,
                kstar: 16,
                ..IvfPqConfig::default()
            },
        );
        (data, index)
    }

    #[test]
    #[should_panic(expected = "uniform batch")]
    fn sharded_engine_rejects_mixed_specs() {
        let (data, index) = build();
        let queries = data.gather(&[0, 1]);
        let sharded = ShardedIndex::from_index(&index, 2);
        let specs = [QuerySpec { k: 2, scope: 3 }, QuerySpec { k: 4, scope: 3 }];
        let scopes: Vec<Vec<usize>> = queries
            .iter()
            .zip(&specs)
            .map(|(q, s)| SearchEngine::query_scope(&sharded, q, s))
            .collect();
        SearchEngine::plan(&sharded, &queries, &specs, &scopes, &PlanOptions::default());
    }

    /// Executes, on a 2-shard index and a 3-query batch, the plan `build`
    /// made for them after `tamper` has edited it.
    fn execute_tampered(tamper: impl Fn(&mut anna_plan::ShardedBatchPlan)) {
        let (data, index) = build();
        let queries = data.gather(&[0, 1, 2]);
        let sharded = ShardedIndex::from_index(&index, 2);
        let tel = Telemetry::disabled();
        let spec = QuerySpec { k: 3, scope: 4 };
        let mut plan = plan_uniform(&sharded, &queries, &spec, &PlanOptions::default(), &tel);
        let EnginePlan::Sharded(p) = &mut plan else {
            panic!("sharded engine planned another family");
        };
        tamper(p);
        sharded.execute(&queries, &plan, 2, &tel);
    }

    #[test]
    fn sharded_engine_executes_its_own_plan() {
        execute_tampered(|_| {});
    }

    #[test]
    #[should_panic(expected = "shard count mismatch")]
    fn sharded_engine_rejects_a_plan_for_another_shard_count() {
        execute_tampered(|p| {
            p.per_shard.pop();
        });
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn sharded_engine_rejects_a_plan_for_another_batch_size() {
        execute_tampered(|p| p.b += 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sharded_engine_rejects_a_round_naming_a_foreign_cluster() {
        execute_tampered(|p| p.per_shard[0].1.rounds[0].cluster = 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sharded_engine_rejects_a_round_naming_a_foreign_query() {
        execute_tampered(|p| p.per_shard[1].1.rounds[0].queries.push(3));
    }
}
