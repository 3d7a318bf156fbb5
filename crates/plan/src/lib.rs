//! The shared cluster-major batch-planning IR (Section IV).
//!
//! Every execution backend in the workspace — the software batch engine
//! (`anna-index`), the analytic and event-driven timing engines and the
//! functional accelerator (`anna-core`) — runs the *same* cluster-major
//! schedule: fetch each visited cluster's codes once, score them against
//! every query visiting the cluster, and spill/fill intermediate top-k
//! state when a query's work spans multiple rounds. This crate owns that
//! schedule as a first-class IR so the backends cannot silently diverge:
//!
//! * [`SearchShape`] / [`QueryWorkload`] / [`BatchWorkload`] — the
//!   timing-relevant description of a workload (`D`, `M`, `k*`, metric,
//!   `|C|`, `k`, cluster sizes, per-query visit lists).
//! * [`crossbar_tiles`] — cuts per-cluster visitor lists into
//!   *(cluster, query-group)* [`ClusterTile`]s, mirroring ANNA's crossbar
//!   arbitration of SCM groups. The software engines take the unbounded
//!   cut, one tile per visited cluster ([`BatchPlan::from_visitors`] with
//!   a bound of `0`): a worker scores a cluster's whole visitor list. The
//!   batch engine runs those rounds in probe-rank order
//!   ([`BatchPlan::probe_ordered`]), so each query meets its nearest
//!   clusters first.
//! * [`plan()`] — resolves the [`ScmAllocation`] policy to a concrete `g`,
//!   turns the tiles into [`Round`]s, and packages the result as a
//!   [`BatchPlan`] with the spill/fill record size precomputed.
//! * [`RerankStage`] / [`RerankPolicy`] — the optional second phase of a
//!   two-phase plan: per-query candidate counts and rescore precisions
//!   for the over-fetch + re-rank pipeline, carried on the plan so its
//!   traffic (candidate records, vector fetches, rescore results) is
//!   priced exactly like every first-pass component.
//! * [`EnginePlan`] — the engine-tagged union of plan families
//!   (cluster-major, sharded, graph) that the `SearchEngine` pipeline in
//!   `anna-engine` hands from `plan()` to `price()`;
//!   [`TrafficModel::price_engine`] prices any family into the same
//!   [`TrafficReport`] vocabulary (graph adjacency fetches land in
//!   `cluster_meta_bytes`, PQ neighbor scans in `code_bytes`).
//! * [`TrafficModel`] — prices any [`BatchPlan`] in bytes (codes fetched,
//!   metadata, query lists, top-k spill/fill, re-rank candidates/vectors,
//!   results) *before* execution. The workspace's headline invariant is that this predicted
//!   [`TrafficReport`] equals both the software engine's measured
//!   `BatchStats` bytes and the simulators' `TimingReport` traffic,
//!   exactly.
//!
//! The crate depends only on `anna-vector` (for [`anna_vector::Metric`]),
//! so every layer of the stack can consume the IR without dependency
//! cycles.

#![deny(missing_docs)]

mod cache;
mod engine_plan;
mod plan;
mod rerank;
mod tiles;
mod traffic;
mod workload;

pub use cache::{ClusterCacheSim, FetchOutcome, TierTraffic};
pub use engine_plan::{
    EnginePlan, GraphPlan, GraphQueryPlan, GraphShape, GraphWorkload, ShardedBatchPlan,
    ADJACENCY_ID_BYTES,
};
pub use plan::{plan, BatchPlan, PlanParams, Round, ScmAllocation};
pub use rerank::{RerankMode, RerankPolicy, RerankPrecision, RerankQuery, RerankStage};
pub use tiles::{crossbar_tiles, ClusterTile};
pub use traffic::{TrafficModel, TrafficReport, CLUSTER_META_BYTES, QUERY_ID_BYTES};
pub use workload::{BatchWorkload, QueryWorkload, SearchShape};
