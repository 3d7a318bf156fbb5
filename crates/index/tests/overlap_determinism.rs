//! Determinism of the overlapped (double-buffered) round pipeline.
//!
//! `parallel_determinism.rs` pins serial == parallel on small, even
//! workloads; this suite aims the same bit-identity property squarely at
//! the wave machinery the overlap introduces: workloads with enough
//! rounds to span several waves, skewed cluster populations that force
//! the tile shaper to split hot clusters (so prebuilt LUT slots are
//! exercised across tile boundaries), both metrics (L2 rebuilds tables
//! per cluster inside the pipeline; InnerProduct re-biases shared base
//! tables built in parallel), both code widths, and a telemetry-on pass —
//! all across worker counts {1, 2, 4, 8}, seeded through `anna-testkit`
//! so any failure replays from a printed seed.

mod common;

use anna_index::{BatchedScan, IvfPqConfig, IvfPqIndex, LutPrecision, SearchParams};
use anna_telemetry::Telemetry;
use anna_testkit::{forall, TestRng};
use anna_vector::{Metric, VectorSet};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Heavily skewed dataset: most rows fall into one giant blob (one hot
/// cluster the shaper must split into many tiles) while the rest spread
/// across small blobs (many light rounds, so waves mix split tiles with
/// whole-cluster tiles). Scores collide constantly within a blob, so any
/// schedule-dependence in scoring or merging surfaces as a diff.
fn skewed_data(dim: usize, n: usize) -> VectorSet {
    VectorSet::from_fn(dim, n, |r, c| {
        let blob = if r % 5 != 0 { 0 } else { 1 + (r / 5) % 15 };
        blob as f32 * 12.0 + ((blob * 31 + c * 7) % 9) as f32 * 0.25
    })
}

fn build(metric: Metric, kstar: usize) -> (VectorSet, IvfPqIndex) {
    let data = skewed_data(8, 900);
    let cfg = IvfPqConfig {
        metric,
        num_clusters: 16,
        m: 4,
        kstar,
        ..IvfPqConfig::default()
    };
    let index = IvfPqIndex::build(&data, &cfg);
    (data, index)
}

/// Core property: under the engine's cost-shaped plan (the schedule that
/// engages the tile shaper and the overlapped wave pipeline), every
/// worker count reproduces the serial neighbors and
/// traffic stats bit for bit.
fn overlapped_matches_serial(metric: Metric, kstar: usize) {
    let (data, index) = build(metric, kstar);
    let scan = BatchedScan::new(&index);
    let name = format!("overlap == serial ({metric:?}, kstar={kstar})");
    forall(&name, 10, |rng: &mut TestRng| {
        // Large-ish batches with wide probes: enough rounds for several
        // waves, and enough visitors on the hot cluster to split it.
        let batch = rng.usize(16..96);
        let ids: Vec<usize> = (0..batch).map(|_| rng.usize(0..data.len())).collect();
        let queries = data.gather(&ids);
        let params = SearchParams {
            nprobe: rng.usize(4..13),
            k: *rng.pick(&[1usize, 5, 10, 16]),
            lut_precision: *rng.pick(&[LutPrecision::F32, LutPrecision::F16]),
        };

        let tel = Telemetry::disabled();
        let plan = common::engine_plan(&scan, &queries, &params);
        let (serial, serial_stats) = scan.run_plan(&queries, &params, &plan, 1, &tel);
        for threads in THREADS {
            let (par, par_stats) = scan.run_plan(&queries, &params, &plan, threads, &tel);
            assert_eq!(par, serial, "neighbors diverged: threads={threads}");
            assert_eq!(par_stats, serial_stats, "stats diverged: threads={threads}");
        }
    });
}

#[test]
fn l2_kstar16_overlapped_matches_serial() {
    overlapped_matches_serial(Metric::L2, 16);
}

#[test]
fn l2_kstar256_overlapped_matches_serial() {
    overlapped_matches_serial(Metric::L2, 256);
}

#[test]
fn inner_product_kstar16_overlapped_matches_serial() {
    overlapped_matches_serial(Metric::InnerProduct, 16);
}

#[test]
fn inner_product_kstar256_overlapped_matches_serial() {
    overlapped_matches_serial(Metric::InnerProduct, 256);
}

/// The overlap must survive observation: with a live telemetry sink the
/// pipeline emits per-worker build/scan counters, yet neighbors and stats
/// stay bit-identical to the uninstrumented serial reference. Multi-worker
/// runs must show LUT-build work credited to the workers (`luts_built`) —
/// proof the prebuilt path, not the inline fallback, actually ran.
#[test]
fn telemetry_on_overlap_stays_bit_identical() {
    let (data, index) = build(Metric::L2, 16);
    let scan = BatchedScan::new(&index);
    forall("telemetry on: overlap == serial", 6, |rng: &mut TestRng| {
        let batch = rng.usize(24..80);
        let ids: Vec<usize> = (0..batch).map(|_| rng.usize(0..data.len())).collect();
        let queries = data.gather(&ids);
        let params = SearchParams {
            nprobe: rng.usize(4..13),
            k: rng.usize(1..12),
            lut_precision: LutPrecision::F32,
        };

        let plan = common::engine_plan(&scan, &queries, &params);
        let (serial, serial_stats) =
            scan.run_plan(&queries, &params, &plan, 1, &Telemetry::disabled());
        for threads in THREADS {
            let tel = Telemetry::enabled();
            let (par, par_stats) = scan.run_plan(&queries, &params, &plan, threads, &tel);
            assert_eq!(
                par, serial,
                "neighbors diverged with telemetry: threads={threads}"
            );
            assert_eq!(
                par_stats, serial_stats,
                "stats diverged with telemetry: threads={threads}"
            );
            let snap = tel.snapshot_json().expect("telemetry enabled");
            assert!(snap.contains("\"worker0.tiles\""), "{snap}");
            if threads > 1 {
                assert!(
                    snap.contains("luts_built"),
                    "no prebuilt-LUT work recorded at threads={threads}: {snap}"
                );
            }
        }
    });
}

/// End of the determinism chain: the overlapped engine at 8 workers (with
/// the shaped plan splitting the hot cluster) agrees with plain per-query
/// search on every query.
#[test]
fn overlapped_batch_matches_query_major_search() {
    let (data, index) = build(Metric::InnerProduct, 16);
    let scan = BatchedScan::new(&index);
    forall("overlap batch == query-major search", 6, |rng| {
        let batch = rng.usize(8..48);
        let ids: Vec<usize> = (0..batch).map(|_| rng.usize(0..data.len())).collect();
        let queries = data.gather(&ids);
        let params = SearchParams {
            nprobe: rng.usize(2..9),
            k: rng.usize(1..8),
            lut_precision: LutPrecision::F32,
        };
        let plan = common::engine_plan(&scan, &queries, &params);
        let (batched, _) = scan.run_plan(&queries, &params, &plan, 8, &Telemetry::disabled());
        for (bi, &row) in ids.iter().enumerate() {
            let single = index.search(data.row(row), &params);
            assert_eq!(batched[bi], single, "query row {row} diverged");
        }
    });
}
