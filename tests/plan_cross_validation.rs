//! The plan layer's headline invariant (Section IV): for any
//! [`anna::plan::BatchPlan`], the [`anna::plan::TrafficModel`]-predicted
//! bytes, the software scanner's measured `BatchStats` bytes, and the
//! timing simulators' reported traffic are *exactly* equal — across
//! metrics, code widths, SCM allocations, and thread counts — while
//! results stay bit-identical to the serial software schedule.

use anna::core::engine::{analytic, cycle};
use anna::core::AnnaConfig;
use anna::index::{BatchedScan, IvfPqConfig, IvfPqIndex, SearchParams};
use anna::plan::{BatchWorkload, ScmAllocation, SearchShape, TrafficModel, CLUSTER_META_BYTES};
use anna::vector::{Metric, VectorSet};
use anna_telemetry::Telemetry;
use anna_testkit::{forall, TestRng};

/// Blobby data so the coarse quantizer produces unevenly sized clusters
/// (uneven rounds exercise the spill/fill accounting harder).
fn clustered(dim: usize, n: usize, salt: usize) -> VectorSet {
    VectorSet::from_fn(dim, n, |r, c| {
        let blob = ((r + salt) % 9) as f32;
        blob * 25.0 + ((r * 31 + c * 7 + salt * 13) % 11) as f32 * 0.3
    })
}

fn arb_alloc(rng: &mut TestRng) -> ScmAllocation {
    *rng.pick(&[
        ScmAllocation::InterQuery,
        ScmAllocation::IntraQuery { scm_per_query: 2 },
        ScmAllocation::IntraQuery { scm_per_query: 4 },
        ScmAllocation::Auto,
    ])
}

/// Predicted == measured == simulated, for real indexes over
/// {L2, InnerProduct} × {k* = 16, 256}, random plans, and 1/2/4/8 threads.
#[test]
fn predicted_measured_and_simulated_bytes_agree_exactly() {
    forall("plan cross validation", 6, |rng| {
        let salt = rng.usize(0..1000);
        let num_clusters = rng.usize(8..13);
        let nprobe = rng.usize(1..6).min(num_clusters);
        let k = rng.usize(5..50);
        let b = rng.usize(8..33);
        let alloc = arb_alloc(rng);
        for metric in [Metric::L2, Metric::InnerProduct] {
            for kstar in [16usize, 256] {
                let data = clustered(8, 600, salt);
                let index = IvfPqIndex::build(
                    &data,
                    &IvfPqConfig {
                        metric,
                        num_clusters,
                        m: 4,
                        kstar,
                        coarse_iters: 3,
                        pq_iters: 2,
                        ..IvfPqConfig::default()
                    },
                );
                let ids: Vec<usize> = (0..b).map(|i| (i * 37 + salt) % 600).collect();
                let queries = data.gather(&ids);
                let params = SearchParams {
                    nprobe,
                    k,
                    ..Default::default()
                };

                let cfg = AnnaConfig::paper();
                let scan = BatchedScan::new(&index);
                let w = scan.workload(&queries, &params);
                let pp = cfg.plan_params();
                let plan = anna::plan::plan(&pp, &w, alloc);
                let predicted = TrafficModel::new(pp).price(&w, &plan);

                // Simulators: full-report equality for both engines. The
                // event engine also sums the bytes its memory channel
                // moves and panics unless they equal the report's total,
                // so this call is the independent simulated-bytes leg.
                let a = analytic::batch_plan(&cfg, &w, &plan);
                assert_eq!(a.traffic, predicted, "analytic traffic diverged");
                let cy = cycle::batch_plan(&cfg, &w, &plan);
                assert_eq!(cy.traffic, predicted, "cycle traffic diverged");

                // Software: executing the *same* plan measures the same
                // bytes, component for component, at every thread count —
                // with results bit-identical to the single-thread run.
                let tel = Telemetry::disabled();
                let (reference, stats) = scan.run_plan(&queries, &params, &plan, 1, &tel);
                assert_eq!(stats.code_bytes, predicted.code_bytes);
                assert_eq!(
                    stats.clusters_fetched * CLUSTER_META_BYTES,
                    predicted.cluster_meta_bytes
                );
                assert_eq!(stats.topk_spill_bytes, predicted.topk_spill_bytes);
                assert_eq!(stats.topk_fill_bytes, predicted.topk_fill_bytes);
                for threads in [2usize, 4, 8] {
                    let (got, s) = scan.run_plan(&queries, &params, &plan, threads, &tel);
                    assert_eq!(got, reference, "{threads} threads diverged");
                    assert_eq!(s, stats, "{threads} threads stats diverged");
                }
            }
        }
    });
}

/// Both timing engines report the plan's own fetch and scan-work counters
/// when handed the same [`anna::plan::BatchPlan`], and the event engine's
/// windows *measure* them: one fetch window per fetched cluster, and scan
/// compute cycles that add up to the scan work.
#[test]
fn engines_agree_on_clusters_fetched_and_scan_work() {
    forall("engines agree on plan counters", 32, |rng| {
        let (kstar, m) = *rng.pick(&[(16usize, 4usize), (16, 8), (256, 4), (256, 8)]);
        let metric = *rng.pick(&[Metric::L2, Metric::InnerProduct]);
        let c = rng.usize(4..24);
        let shape = SearchShape {
            d: m * 2,
            m,
            kstar,
            metric,
            num_clusters: c,
            k: rng.usize(10..500),
        };
        let b = rng.usize(2..24);
        let cluster_sizes: Vec<usize> = (0..c).map(|_| rng.usize(100..10_000)).collect();
        let visits: Vec<Vec<usize>> = (0..b)
            .map(|_| {
                let nv = rng.usize(1..5);
                let mut v: Vec<usize> = (0..nv).map(|_| rng.usize(0..c)).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let w = BatchWorkload {
            shape,
            cluster_sizes,
            visits,
        };
        let cfg = AnnaConfig::paper();
        let plan = anna::plan::plan(&cfg.plan_params(), &w, arb_alloc(rng));

        let a = analytic::batch_plan(&cfg, &w, &plan);
        let (cy, windows) = cycle::batch_plan_traced(&cfg, &w, &plan);
        let fetched = plan.clusters_fetched();
        let work = plan.total_scan_work();
        assert_eq!(a.clusters_fetched, fetched, "analytic fetch count");
        assert_eq!(cy.clusters_fetched, fetched, "cycle fetch count");
        let fetch_windows = windows.iter().filter(|r| r.fetch.is_some()).count();
        assert_eq!(fetch_windows as u64, fetched, "fetch windows issued");
        assert_eq!(a.scan_work, work, "analytic scan work");
        assert_eq!(cy.scan_work, work, "cycle scan work");
        // A window computes for ceil(|C_i| / g) vectors at the SCM's
        // cycles-per-vector rate.
        let cpv = shape.scan_cycles_per_vector(cfg.n_u) as f64;
        let g = plan.scm_per_query as u64;
        let scanned: u64 = windows
            .iter()
            .map(|win| (win.compute / cpv).round() as u64)
            .sum();
        let per_scm_work: u64 = plan
            .rounds
            .iter()
            .map(|r| (r.cluster_size as u64).div_ceil(g))
            .sum();
        assert_eq!(scanned, per_scm_work, "scan windows cover the scan work");
    });
}

/// Grep-proof for retired names: the pre-`plan.*` counter key, the entry
/// points the `SearchEngine` pipeline replaced, the scan loops the one
/// round loop replaced, and the scan layer's per-call kernel checks, must
/// not survive anywhere in the workspace sources or the two design
/// documents.
#[test]
fn retired_telemetry_key_is_gone_from_sources() {
    // Built via concat! so this test file does not match itself.
    let stale = [
        concat!("clusters_", "loaded"),
        concat!("run_", "instrumented"),
        concat!("run_", "two_phase"),
        concat!("two_phase_", "plan"),
        concat!("search_", "with_stats"),
        concat!("search_", "instrumented"),
        concat!("price_", "batch"),
        concat!("Batch", "Exec"),
        // The wave pipeline and the plan-ignoring sharded executor.
        concat!("plan_", "waves"),
        concat!("Lut", "Slots"),
        concat!("run_worker_", "overlapped"),
        concat!("scan_", "shard"),
        concat!("shard_", "visitors"),
        // The O(cycles) timing engine the event engine's attribution
        // replaced.
        concat!("engine::", "stepped"),
        concat!("Stepped", "Report"),
        concat!("stepped", "::"),
        // The scan layer's scattered kernel choice, which `Kernel::select`
        // replaced, and the tile path's unpacking scorer.
        concat!("has_simd_", "kernel"),
        concat!("score_block_", "simd"),
        concat!("survivors_", "only"),
        concat!("scalar::", "score_block"),
    ];
    // `worker<w>.` counters of the wave pipeline; the accelerator model's
    // CPM keeps a counter of the same name.
    let stale_outside_core = concat!("luts_", "built");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut pending: Vec<std::path::PathBuf> = ["src", "crates", "tests", "benches", "examples"]
        .iter()
        .map(|d| root.join(d))
        .filter(|p| p.is_dir())
        .collect();
    pending.push(root.join("DESIGN.md"));
    pending.push(root.join("README.md"));
    let mut scanned = 0usize;
    let mut offenders = Vec::new();
    while let Some(path) = pending.pop() {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            for entry in std::fs::read_dir(&path).expect("readable source dir") {
                pending.push(entry.expect("dir entry").path());
            }
        } else if path
            .extension()
            .is_some_and(|e| e == "rs" || e == "md" || e == "toml")
        {
            let text = std::fs::read_to_string(&path).expect("readable source file");
            scanned += 1;
            let in_core = path.starts_with(root.join("crates/core"));
            for name in stale
                .iter()
                .chain((!in_core).then_some(&stale_outside_core))
            {
                if text.contains(name) {
                    offenders.push(format!("`{name}` in {}", path.display()));
                }
            }
        }
    }
    assert!(scanned > 50, "walk looks broken: only {scanned} files");
    assert!(offenders.is_empty(), "retired names: {offenders:?}");
}
