//! The acceptance matrix of the round loop ([`anna_index::parallel`]): the
//! parallel cluster-major engine must be bit-identical to the serial
//! schedule — neighbors AND traffic stats — for every combination of
//!
//! * metric in {L2, InnerProduct},
//! * code width in {k* = 16, k* = 256},
//! * worker count in {1, 2, 4, 8},
//! * tile bound (queries per round) in {0 = the engine's cost-shaped
//!   plan, small = the accelerator's fixed grouping},
//! * f32 and f16 lookup tables, telemetry on and off,
//!
//! on two input families ([`TIE_HEAVY`], [`SKEWED`]) chosen so that any
//! schedule-dependence in scoring, tie-breaking or merging shows up as a
//! diff. Seeded through `anna-testkit`, so a failure replays from a
//! printed seed.

mod common;

use anna_index::{BatchedScan, IvfPqConfig, IvfPqIndex, LutPrecision, SearchParams};
use anna_plan::{BatchPlan, PlanParams};
use anna_telemetry::Telemetry;
use anna_testkit::{forall, TestRng};
use anna_vector::{Metric, VectorSet};
use std::ops::Range;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One input family: a dataset and the ranges batches are drawn from.
struct Inputs {
    name: &'static str,
    rows: usize,
    /// Component `c` of database row `r`.
    value: fn(usize, usize) -> f32,
    num_clusters: usize,
    batch: Range<usize>,
    nprobe: Range<usize>,
    k: Range<usize>,
    /// Tile bounds to draw from (see [`plan_with_group`]).
    groups: &'static [usize],
    precisions: &'static [LutPrecision],
}

/// Duplicate-heavy: only 24 unique rows, each repeated many times, so PQ
/// codes — and therefore ADC scores — collide constantly and the top-k
/// outcome hinges on the id tie-break. Small, even batches under every
/// tile bound.
const TIE_HEAVY: Inputs = Inputs {
    name: "tie-heavy",
    rows: 480,
    value: |r, c| {
        let blob = r % 24;
        blob as f32 * 10.0 + ((blob * 31 + c * 7) % 11) as f32 * 0.3
    },
    num_clusters: 10,
    batch: 1..64,
    nprobe: 1..8,
    k: 1..12,
    groups: &[0, 1, 3, 7],
    precisions: &[LutPrecision::F32],
};

/// Heavily skewed: most rows fall into one giant blob (one hot cluster,
/// which the tile shaper splits on the draws whose k is small enough for
/// a split to pay) while the rest spread across small blobs (many light
/// rounds, so workers finish at very different times). Large batches with
/// wide probes under the engine's cost-shaped plan; both table
/// precisions.
const SKEWED: Inputs = Inputs {
    name: "skewed",
    rows: 900,
    value: |r, c| {
        let blob = if r % 5 != 0 { 0 } else { 1 + (r / 5) % 15 };
        blob as f32 * 12.0 + ((blob * 31 + c * 7) % 9) as f32 * 0.25
    },
    num_clusters: 16,
    batch: 16..96,
    nprobe: 4..13,
    k: 1..17,
    groups: &[0],
    precisions: &[LutPrecision::F32, LutPrecision::F16],
};

impl Inputs {
    fn build(&self, metric: Metric, kstar: usize) -> (VectorSet, IvfPqIndex) {
        let data = VectorSet::from_fn(8, self.rows, self.value);
        let cfg = IvfPqConfig {
            metric,
            num_clusters: self.num_clusters,
            m: 4,
            kstar,
            ..IvfPqConfig::default()
        };
        let index = IvfPqIndex::build(&data, &cfg);
        (data, index)
    }

    /// A random batch (database rows it was drawn from, the queries) and
    /// its search parameters and tile bound.
    fn draw(
        &self,
        data: &VectorSet,
        rng: &mut TestRng,
    ) -> (Vec<usize>, VectorSet, SearchParams, usize) {
        let batch = rng.usize(self.batch.clone());
        let ids: Vec<usize> = (0..batch).map(|_| rng.usize(0..data.len())).collect();
        let queries = data.gather(&ids);
        let params = SearchParams {
            nprobe: rng.usize(self.nprobe.clone()),
            k: rng.usize(self.k.clone()),
            lut_precision: *rng.pick(self.precisions),
        };
        (ids, queries, params, *rng.pick(self.groups))
    }
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

/// Core property: for random queries, probe widths, k, table precisions
/// and tile bounds, all worker counts reproduce the serial neighbors and
/// stats exactly.
fn parallel_matches_serial(metric: Metric, kstar: usize) {
    for inputs in [&TIE_HEAVY, &SKEWED] {
        let (data, index) = inputs.build(metric, kstar);
        let scan = BatchedScan::new(&index);
        let name = format!(
            "parallel == serial ({}, {metric:?}, kstar={kstar})",
            inputs.name
        );
        forall(&name, 10, |rng: &mut TestRng| {
            let (_, queries, params, group) = inputs.draw(&data, rng);

            let tel = Telemetry::disabled();
            let reference = common::engine_plan(&scan, &queries, &params);
            let (serial, serial_stats) = scan.run_plan(&queries, &params, &reference, 1, &tel);
            let plan = plan_with_group(&scan, &queries, &params, group);
            for threads in THREADS {
                let (par, par_stats) = scan.run_plan(&queries, &params, &plan, threads, &tel);
                // Exact equality: Neighbor derives PartialEq on (id, f32
                // score), so this asserts bit-level agreement of every
                // kept hit.
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
/// clocks and bumps atomics, so the lane race's outcome cannot depend on
/// it. (The serial reference here runs uninstrumented, so this also pins
/// instrumented == uninstrumented.) The sink must also show every round
/// scored exactly once; *which* worker took a round is scheduling and is
/// not asserted.
#[test]
fn telemetry_enabled_run_stays_bit_identical_to_serial() {
    for inputs in [&TIE_HEAVY, &SKEWED] {
        let (data, index) = inputs.build(Metric::L2, 16);
        let scan = BatchedScan::new(&index);
        let name = format!("telemetry on: parallel == serial ({})", inputs.name);
        forall(&name, 6, |rng: &mut TestRng| {
            let (_, queries, params, group) = inputs.draw(&data, rng);

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
                let registry = tel.registry().expect("telemetry enabled");
                let tiles: u64 = (0..threads)
                    .map(|w| registry.counter(&format!("worker{w}.tiles")).get())
                    .sum();
                assert_eq!(
                    tiles,
                    plan.rounds.len() as u64,
                    "threads={threads} group={group}: rounds scored != rounds planned: {snap}"
                );
            }
        });
    }
}

/// The parallel batch engine must also agree with per-query search — the
/// end-to-end determinism chain (query-major == cluster-major serial ==
/// cluster-major parallel).
#[test]
fn parallel_batch_matches_query_major_search() {
    for (inputs, metric, threads) in [
        (&TIE_HEAVY, Metric::L2, 4),
        (&SKEWED, Metric::InnerProduct, 8),
    ] {
        let (data, index) = inputs.build(metric, 16);
        let scan = BatchedScan::new(&index);
        let name = format!("parallel batch == query-major search ({})", inputs.name);
        forall(&name, 6, |rng| {
            let (ids, queries, params, _) = inputs.draw(&data, rng);
            let plan = common::engine_plan(&scan, &queries, &params);
            let (batched, _) =
                scan.run_plan(&queries, &params, &plan, threads, &Telemetry::disabled());
            for (bi, &row) in ids.iter().enumerate() {
                let single = index.search(data.row(row), &params);
                assert_eq!(batched[bi], single, "query row {row} diverged");
            }
        });
    }
}
