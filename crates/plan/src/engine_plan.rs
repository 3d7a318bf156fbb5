//! Engine-tagged plan IR: one priced plan type for every search engine.
//!
//! The workspace's execution engines — the cluster-major IVF-PQ batch
//! engine, its sharded/tiered variant, and the beam-search graph engine —
//! all follow the same pipeline: describe a workload, plan it, price the
//! plan with [`TrafficModel`], execute, and assert predicted == measured.
//! [`EnginePlan`] is the tagged union those pipelines hand around, so the
//! serving layer and the benches can compose and price against *any*
//! engine without knowing which one they hold.
//!
//! Graph plans reuse the cluster-major byte vocabulary (Section IV's
//! [`TrafficReport`] fields) rather than inventing a parallel one:
//!
//! * visited-node adjacency fetches are *metadata* reads —
//!   `degree · 4 B` per visited node goes to `cluster_meta_bytes`, the
//!   same field that prices the 64 B cluster descriptors;
//! * PQ-compressed neighbor scans are *code* reads — `M·log2(k*)/8` per
//!   scanned node goes to `code_bytes`, exactly like a cluster scan;
//! * results price as `B·k` packed top-k records, identical to the batch
//!   engine.
//!
//! Beam state lives on-chip, so graph plans have no centroid stream, no
//! query lists, and no top-k spill/fill.

use crate::cache::{ClusterCacheSim, TierTraffic};
use crate::plan::BatchPlan;
use crate::traffic::{TrafficModel, TrafficReport};
use crate::workload::BatchWorkload;
use anna_vector::Metric;

/// Bytes per node id in a fetched adjacency list (u32 ids cover the
/// paper's billion-vector datasets when sharded, and every dataset this
/// repo builds).
pub const ADJACENCY_ID_BYTES: u64 = 4;

/// The static shape of a graph-search configuration — the graph analogue
/// of [`crate::SearchShape`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphShape {
    /// Vector dimension `D`.
    pub d: usize,
    /// PQ sub-vector count `M` (neighbor scans read PQ codes).
    pub m: usize,
    /// Codewords per codebook `k*` (16 or 256).
    pub kstar: usize,
    /// Similarity metric.
    pub metric: Metric,
    /// Number of graph nodes (= indexed vectors).
    pub num_nodes: usize,
    /// Maximum out-degree; adjacency lists are stored padded to this, so
    /// every visited node fetches the same `degree · 4` bytes.
    pub degree: usize,
    /// Top-k entries returned per query.
    pub k: usize,
}

impl GraphShape {
    /// Bits per encoded identifier, `log2 k*`.
    pub fn code_bits(&self) -> u32 {
        (usize::BITS - 1) - self.kstar.leading_zeros()
    }

    /// Bytes per encoded vector, `M · log2 k* / 8` — same formula as
    /// [`crate::SearchShape::encoded_bytes_per_vector`].
    pub fn encoded_bytes_per_vector(&self) -> usize {
        (self.m * self.code_bits() as usize).div_ceil(8)
    }

    /// Bytes fetched per visited node's adjacency list,
    /// `degree · 4`.
    pub fn adjacency_bytes_per_node(&self) -> u64 {
        self.degree as u64 * ADJACENCY_ID_BYTES
    }
}

/// A batched graph workload: the shape plus each query's beam width.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphWorkload {
    /// Graph-search shape.
    pub shape: GraphShape,
    /// Per-query beam width `ef` (candidate-list size during traversal).
    pub beams: Vec<usize>,
}

impl GraphWorkload {
    /// Batch size `B`.
    pub fn b(&self) -> usize {
        self.beams.len()
    }
}

/// One query's planned traversal footprint.
///
/// Beam-search traversal is a pure function of (graph, query, beam), so
/// the planner *runs* the deterministic traversal and records its
/// footprint; execution then re-traces the identical walk, which is what
/// makes the predicted bytes exact rather than estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GraphQueryPlan {
    /// Nodes whose adjacency list is fetched (beam expansions).
    pub visited: u64,
    /// Nodes whose PQ code is scored (each node at most once per query).
    pub scanned: u64,
}

/// A planned graph batch: one [`GraphQueryPlan`] per query.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GraphPlan {
    /// Per-query traversal footprints, query order.
    pub per_query: Vec<GraphQueryPlan>,
}

impl GraphPlan {
    /// Total adjacency fetches across the batch.
    pub fn total_visited(&self) -> u64 {
        self.per_query.iter().map(|p| p.visited).sum()
    }

    /// Total code scans across the batch.
    pub fn total_scanned(&self) -> u64 {
        self.per_query.iter().map(|p| p.scanned).sum()
    }
}

/// A planned sharded batch: per-shard unbounded cluster-major plans plus
/// the global merge's spill/fill units, assembled by the sharded engine's
/// `plan()` and priced by [`TrafficModel::price_sharded`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedBatchPlan {
    /// Per-shard `(workload, plan)` pairs, ascending shard id. Each plan
    /// is the unbounded [`BatchPlan::from_visitors`] schedule over the
    /// shard's local clusters.
    pub per_shard: Vec<(BatchWorkload, BatchPlan)>,
    /// Cross-shard merge spill/fill units, `Σ_q (S_q − 1)` over each
    /// query's contributing shards.
    pub merge_units: u64,
    /// Spill/fill unit: a full `k`-record heap at packed record size.
    pub spill_unit_bytes: u64,
    /// Batch size `B`.
    pub b: usize,
    /// Top-k entries returned per query.
    pub k: usize,
    /// Predicted storage-tier split, from replaying each tiered shard's
    /// cache simulation at plan time (all-zero for all-RAM shards).
    pub predicted_tier: TierTraffic,
}

/// A priced plan tagged with the engine family that produced it — the
/// value the `SearchEngine` pipeline hands from `plan()` to `price()` to
/// `execute()`.
#[derive(Debug, Clone, PartialEq)]
pub enum EnginePlan {
    /// Cluster-major IVF-PQ batch (single-phase or two-phase re-rank).
    ClusterMajor {
        /// The batch workload the plan was derived from.
        workload: BatchWorkload,
        /// The cluster-major round schedule (with optional re-rank stage).
        plan: BatchPlan,
    },
    /// Shard-parallel IVF-PQ with deterministic global merge.
    Sharded(ShardedBatchPlan),
    /// Beam-search graph traversal over PQ-compressed adjacency.
    Graph {
        /// The graph workload the plan was derived from.
        workload: GraphWorkload,
        /// The recorded deterministic traversal footprints.
        plan: GraphPlan,
    },
}

impl EnginePlan {
    /// The engine family's stable name (used in telemetry and error
    /// messages).
    pub fn engine(&self) -> &'static str {
        match self {
            EnginePlan::ClusterMajor { .. } => "ivf_pq",
            EnginePlan::Sharded(_) => "ivf_pq_sharded",
            EnginePlan::Graph { .. } => "graph",
        }
    }

    /// The per-query result count callers receive (the re-rank stage's
    /// `k` for two-phase plans, else the scan `k`).
    pub fn k_exec(&self) -> usize {
        match self {
            EnginePlan::ClusterMajor { workload, plan } => plan
                .rerank
                .as_ref()
                .map(|s| s.k)
                .unwrap_or(workload.shape.k),
            EnginePlan::Sharded(p) => p.k,
            EnginePlan::Graph { workload, .. } => workload.shape.k,
        }
    }

    /// The first-pass heap size (the over-fetched `k` for two-phase
    /// plans; equals [`EnginePlan::k_exec`] otherwise).
    pub fn k_scan(&self) -> usize {
        match self {
            EnginePlan::ClusterMajor { workload, .. } => workload.shape.k,
            EnginePlan::Sharded(p) => p.k,
            EnginePlan::Graph { workload, .. } => workload.shape.k,
        }
    }

    /// The storage-tier split the plan predicts, for engines with a
    /// tiered backend (`None` for all-RAM plan families).
    pub fn predicted_tier(&self) -> Option<&TierTraffic> {
        match self {
            EnginePlan::Sharded(p) => Some(&p.predicted_tier),
            EnginePlan::ClusterMajor { .. } | EnginePlan::Graph { .. } => None,
        }
    }

    /// Batch size `B`.
    pub fn b(&self) -> usize {
        match self {
            EnginePlan::ClusterMajor { workload, .. } => workload.b(),
            EnginePlan::Sharded(p) => p.b,
            EnginePlan::Graph { workload, .. } => workload.b(),
        }
    }
}

impl TrafficModel {
    /// Prices a graph plan into the cluster-major byte vocabulary:
    /// adjacency fetches as `cluster_meta_bytes`
    /// ([`GraphShape::adjacency_bytes_per_node`] per visited node), PQ
    /// neighbor scans as `code_bytes`
    /// ([`GraphShape::encoded_bytes_per_vector`] per scanned node), and
    /// `B·k` packed result records. Beam state is on-chip, so the
    /// centroid, query-list, and top-k spill/fill components are zero.
    ///
    /// # Panics
    ///
    /// Panics if the plan's query count differs from the workload's.
    pub fn price_graph(&self, workload: &GraphWorkload, plan: &GraphPlan) -> TrafficReport {
        assert_eq!(
            workload.b(),
            plan.per_query.len(),
            "graph plan covers {} queries but workload has {}",
            plan.per_query.len(),
            workload.b()
        );
        let s = &workload.shape;
        TrafficReport {
            cluster_meta_bytes: plan.total_visited() * s.adjacency_bytes_per_node(),
            code_bytes: plan.total_scanned() * s.encoded_bytes_per_vector() as u64,
            result_bytes: (workload.b() * s.k) as u64 * self.params.topk_record_bytes as u64,
            ..TrafficReport::default()
        }
    }

    /// Prices a sharded plan: per-shard [`TrafficModel::price`]
    /// components summed, plus the cross-shard merge's spill/fill units,
    /// with results counted once globally.
    pub fn price_sharded(&self, plan: &ShardedBatchPlan) -> TrafficReport {
        let mut traffic = TrafficReport::default();
        for (workload, shard_plan) in &plan.per_shard {
            let report = self.price(workload, shard_plan);
            traffic.centroid_bytes += report.centroid_bytes;
            traffic.cluster_meta_bytes += report.cluster_meta_bytes;
            traffic.code_bytes += report.code_bytes;
            traffic.topk_spill_bytes += report.topk_spill_bytes;
            traffic.topk_fill_bytes += report.topk_fill_bytes;
            traffic.query_list_bytes += report.query_list_bytes;
        }
        traffic.topk_spill_bytes += plan.merge_units * plan.spill_unit_bytes;
        traffic.topk_fill_bytes += plan.merge_units * plan.spill_unit_bytes;
        traffic.result_bytes = (plan.b * plan.k) as u64 * self.params.topk_record_bytes as u64;
        traffic
    }

    /// Prices any [`EnginePlan`] (dispatch over the engine families).
    pub fn price_engine(&self, plan: &EnginePlan) -> TrafficReport {
        match plan {
            EnginePlan::ClusterMajor { workload, plan } => self.price(workload, plan),
            EnginePlan::Sharded(p) => self.price_sharded(p),
            EnginePlan::Graph { workload, plan } => self.price_graph(workload, plan),
        }
    }

    /// Prices any [`EnginePlan`] with a storage-tier split.
    ///
    /// Only cluster-major plans thread `cache` (see
    /// [`TrafficModel::price_tiered`]); sharded plans carry their tier
    /// prediction from plan time, and graph plans are all-RAM, so for
    /// those families `cache` is left untouched.
    pub fn price_engine_tiered(
        &self,
        plan: &EnginePlan,
        cache: &mut ClusterCacheSim,
    ) -> (TrafficReport, TierTraffic) {
        match plan {
            EnginePlan::ClusterMajor { workload, plan } => self.price_tiered(workload, plan, cache),
            EnginePlan::Sharded(p) => (self.price_sharded(p), p.predicted_tier),
            EnginePlan::Graph { workload, plan } => {
                (self.price_graph(workload, plan), TierTraffic::default())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanParams;

    fn graph_workload() -> GraphWorkload {
        GraphWorkload {
            shape: GraphShape {
                d: 32,
                m: 4,
                kstar: 16,
                metric: Metric::L2,
                num_nodes: 100,
                degree: 8,
                k: 5,
            },
            beams: vec![16, 16],
        }
    }

    #[test]
    fn graph_price_uses_cluster_major_vocabulary() {
        let w = graph_workload();
        let p = GraphPlan {
            per_query: vec![
                GraphQueryPlan {
                    visited: 10,
                    scanned: 40,
                },
                GraphQueryPlan {
                    visited: 7,
                    scanned: 30,
                },
            ],
        };
        let t = TrafficModel::new(PlanParams::default()).price_graph(&w, &p);
        // 4-bit codes, m=4 -> 2 B/vector; degree 8 -> 32 B/adjacency.
        assert_eq!(t.cluster_meta_bytes, 17 * 32);
        assert_eq!(t.code_bytes, 70 * 2);
        assert_eq!(t.result_bytes, 2 * 5 * 5);
        assert_eq!(t.centroid_bytes, 0);
        assert_eq!(t.topk_spill_bytes, 0);
        assert_eq!(t.topk_fill_bytes, 0);
        assert_eq!(t.query_list_bytes, 0);
        assert_eq!(
            t.total(),
            t.cluster_meta_bytes + t.code_bytes + t.result_bytes
        );
    }

    #[test]
    #[should_panic(expected = "graph plan covers")]
    fn graph_price_rejects_mismatched_plan() {
        let w = graph_workload();
        let p = GraphPlan {
            per_query: vec![GraphQueryPlan::default()],
        };
        TrafficModel::new(PlanParams::default()).price_graph(&w, &p);
    }

    #[test]
    fn engine_plan_tags_and_k_accessors() {
        let w = graph_workload();
        let plan = EnginePlan::Graph {
            plan: GraphPlan {
                per_query: vec![GraphQueryPlan::default(); 2],
            },
            workload: w,
        };
        assert_eq!(plan.engine(), "graph");
        assert_eq!(plan.k_exec(), 5);
        assert_eq!(plan.k_scan(), 5);
        assert_eq!(plan.b(), 2);
    }
}
