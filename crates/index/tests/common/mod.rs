//! Shared by the determinism suites.

use anna_engine::{plan_uniform, PlanOptions, QuerySpec};
use anna_index::{BatchedScan, SearchParams};
use anna_plan::{BatchPlan, EnginePlan};
use anna_telemetry::Telemetry;
use anna_vector::VectorSet;

/// The engine's own single-phase schedule for the batch — the plan
/// [`BatchedScan::run`] executes — for handing to
/// [`BatchedScan::run_plan`] at an explicit worker count (or with f16
/// tables, which the trait's `execute` does not run).
pub fn engine_plan(
    scan: &BatchedScan<'_>,
    queries: &VectorSet,
    params: &SearchParams,
) -> BatchPlan {
    let spec = QuerySpec::from(params);
    let tel = Telemetry::disabled();
    match plan_uniform(scan, queries, &spec, &PlanOptions::default(), &tel) {
        EnginePlan::ClusterMajor { plan, .. } => plan,
        other => panic!("ivf_pq engine planned a {} batch", other.engine()),
    }
}
