//! The ISSUE's acceptance matrix: the parallel cluster-major engine must be
//! bit-identical to the serial schedule — neighbors AND traffic stats — for
//! every combination of
//!
//! * metric in {L2, InnerProduct},
//! * code width in {k* = 16, k* = 256},
//! * worker count in {1, 2, 4, 8},
//! * tile bound (queries per round) in {0 = the engine's cost-shaped
//!   plan, small = the accelerator's fixed grouping},
//!
//! on duplicate-heavy data where many database vectors share exact scores,
//! so any schedule-dependent tie-breaking in the merge would show up.

mod common;

use anna_index::{BatchedScan, IvfPqConfig, IvfPqIndex, LutPrecision, SearchParams};
use anna_plan::{BatchPlan, PlanParams};
use anna_telemetry::Telemetry;
use anna_testkit::{forall, TestRng};
use anna_vector::{Metric, VectorSet};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Duplicate-heavy dataset: only `distinct` unique rows, each repeated many
/// times, so PQ codes — and therefore ADC scores — collide constantly and
/// the top-k outcome hinges on the id tie-break.
fn tie_heavy_data(dim: usize, n: usize, distinct: usize) -> VectorSet {
    VectorSet::from_fn(dim, n, |r, c| {
        let blob = (r % distinct) as f32;
        blob * 10.0 + ((blob as usize * 31 + c * 7) % 11) as f32 * 0.3
    })
}

fn build(metric: Metric, kstar: usize) -> (VectorSet, IvfPqIndex) {
    let data = tie_heavy_data(8, 480, 24);
    let cfg = IvfPqConfig {
        metric,
        num_clusters: 10,
        m: 4,
        kstar,
        ..IvfPqConfig::default()
    };
    let index = IvfPqIndex::build(&data, &cfg);
    (data, index)
}

/// The schedule under test: the engine's own plan (`group == 0`), or one
/// round per visited cluster split into groups of at most `group` queries
/// — the accelerator's fixed `N_SCM / g` grouping.
fn plan_with_group(
    scan: &BatchedScan<'_>,
    queries: &VectorSet,
    params: &SearchParams,
    group: usize,
) -> BatchPlan {
    if group == 0 {
        return common::engine_plan(scan, queries, params);
    }
    let workload = scan.workload(queries, params);
    BatchPlan::from_visitors(
        &workload.visitors_per_cluster(),
        &workload.cluster_sizes,
        group,
        params.k as u64 * PlanParams::default().topk_record_bytes as u64,
    )
}

/// Core property: for random queries, probe widths, k, and tile bounds, all
/// worker counts reproduce the serial neighbors and stats exactly.
fn parallel_matches_serial(metric: Metric, kstar: usize) {
    let (data, index) = build(metric, kstar);
    let scan = BatchedScan::new(&index);
    let name = format!("parallel == serial ({metric:?}, kstar={kstar})");
    forall(&name, 12, |rng: &mut TestRng| {
        let batch = rng.usize(1..64);
        let ids: Vec<usize> = (0..batch).map(|_| rng.usize(0..data.len())).collect();
        let queries = data.gather(&ids);
        let params = SearchParams {
            nprobe: rng.usize(1..8),
            k: rng.usize(1..12),
            lut_precision: LutPrecision::F32,
        };
        let group = *rng.pick(&[0usize, 1, 3, 7]);

        let tel = Telemetry::disabled();
        let reference = common::engine_plan(&scan, &queries, &params);
        let (serial, serial_stats) = scan.run_plan(&queries, &params, &reference, 1, &tel);
        let plan = plan_with_group(&scan, &queries, &params, group);
        for threads in THREADS {
            let (par, par_stats) = scan.run_plan(&queries, &params, &plan, threads, &tel);
            // Exact equality: Neighbor derives PartialEq on (id, f32 score),
            // so this asserts bit-level agreement of every kept hit.
            assert_eq!(
                par, serial,
                "neighbors diverged: threads={threads} group={group}"
            );
            assert_eq!(
                par_stats, serial_stats,
                "stats diverged: threads={threads} group={group}"
            );
        }
    });
}

#[test]
fn l2_kstar16_parallel_matches_serial() {
    parallel_matches_serial(Metric::L2, 16);
}

#[test]
fn l2_kstar256_parallel_matches_serial() {
    parallel_matches_serial(Metric::L2, 256);
}

#[test]
fn inner_product_kstar16_parallel_matches_serial() {
    parallel_matches_serial(Metric::InnerProduct, 16);
}

#[test]
fn inner_product_kstar256_parallel_matches_serial() {
    parallel_matches_serial(Metric::InnerProduct, 256);
}

/// Telemetry must be an observer, not a participant: with a live sink
/// attached, every worker count still reproduces the serial neighbors and
/// [`anna_index::BatchStats`] bit-for-bit — instrumentation only reads
/// clocks and bumps atomics, so the tile race's outcome cannot depend on
/// it. (The serial reference here runs uninstrumented, so this also pins
/// instrumented == uninstrumented.)
#[test]
fn telemetry_enabled_run_stays_bit_identical_to_serial() {
    let (data, index) = build(Metric::L2, 16);
    let scan = BatchedScan::new(&index);
    forall(
        "telemetry on: parallel == serial",
        8,
        |rng: &mut TestRng| {
            let batch = rng.usize(1..48);
            let ids: Vec<usize> = (0..batch).map(|_| rng.usize(0..data.len())).collect();
            let queries = data.gather(&ids);
            let params = SearchParams {
                nprobe: rng.usize(1..8),
                k: rng.usize(1..12),
                lut_precision: LutPrecision::F32,
            };
            let group = *rng.pick(&[0usize, 2, 5]);

            let reference = common::engine_plan(&scan, &queries, &params);
            let (serial, serial_stats) =
                scan.run_plan(&queries, &params, &reference, 1, &Telemetry::disabled());
            let plan = plan_with_group(&scan, &queries, &params, group);
            for threads in THREADS {
                let tel = Telemetry::enabled();
                let (par, par_stats) = scan.run_plan(&queries, &params, &plan, threads, &tel);
                assert_eq!(
                    par, serial,
                    "neighbors diverged with telemetry: threads={threads} group={group}"
                );
                assert_eq!(
                    par_stats, serial_stats,
                    "stats diverged with telemetry: threads={threads} group={group}"
                );
                // And the sink actually observed the run.
                let snap = tel.snapshot_json().expect("telemetry enabled");
                assert!(snap.contains("\"batch.merge\""), "{snap}");
                assert!(snap.contains("\"worker0.tiles\""), "{snap}");
            }
        },
    );
}

/// The parallel batch engine must also agree with per-query search — the
/// end-to-end determinism chain (query-major == cluster-major serial ==
/// cluster-major parallel) on tie-heavy data.
#[test]
fn parallel_batch_matches_query_major_search() {
    let (data, index) = build(Metric::L2, 16);
    let scan = BatchedScan::new(&index);
    forall("parallel batch == query-major search", 8, |rng| {
        let batch = rng.usize(1..24);
        let ids: Vec<usize> = (0..batch).map(|_| rng.usize(0..data.len())).collect();
        let queries = data.gather(&ids);
        let params = SearchParams {
            nprobe: rng.usize(1..6),
            k: rng.usize(1..8),
            lut_precision: LutPrecision::F32,
        };
        let plan = common::engine_plan(&scan, &queries, &params);
        let (batched, _) = scan.run_plan(&queries, &params, &plan, 4, &Telemetry::disabled());
        for (bi, &row) in ids.iter().enumerate() {
            let single = index.search(data.row(row), &params);
            assert_eq!(batched[bi], single, "query row {row} diverged");
        }
    });
}
