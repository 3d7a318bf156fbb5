//! Seeded property tests for the sharded, tiered engine: sharded tiered
//! search must be bit-identical — results *and* stats — to the
//! single-shard in-RAM serial oracle across {L2, IP} × {k* = 16, 256} ×
//! {1, 2, 4, 8} threads, with predicted tier traffic equal to measured at
//! every step.

use anna_engine::{plan_uniform, PlanOptions, QuerySpec, SearchEngine};
use anna_index::{IvfPqConfig, IvfPqIndex, SearchParams, ShardedIndex, ShardedStats};
use anna_plan::EnginePlan;
use anna_telemetry::Telemetry;
use anna_testkit::forall;
use anna_vector::{Metric, Neighbor, VectorSet};
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "anna_sharded_prop_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs an engine-built plan on the inherent executor.
fn run(
    sharded: &ShardedIndex,
    queries: &VectorSet,
    plan: &EnginePlan,
    threads: usize,
) -> (Vec<Vec<Neighbor>>, ShardedStats) {
    let EnginePlan::Sharded(plan) = plan else {
        panic!("sharded engine planned a {} batch", plan.engine());
    };
    sharded
        .run_plan(queries, plan, threads, &Telemetry::disabled())
        .unwrap()
}

/// Plans the batch at `params` through the engine pipeline and runs that
/// plan.
fn search(
    sharded: &ShardedIndex,
    queries: &VectorSet,
    params: &SearchParams,
    threads: usize,
) -> (Vec<Vec<Neighbor>>, ShardedStats) {
    let plan = plan_uniform(
        sharded,
        queries,
        &QuerySpec::from(params),
        &PlanOptions::default(),
        &Telemetry::disabled(),
    );
    run(sharded, queries, &plan, threads)
}

#[test]
fn sharded_tiered_matches_the_single_shard_ram_oracle() {
    forall("sharded tiered == serial oracle", 6, |rng| {
        let metric = *rng.pick(&[Metric::L2, Metric::InnerProduct]);
        let kstar = *rng.pick(&[16usize, 256]);
        let dim = 8;
        let n = rng.usize(300..500);
        let num_clusters = rng.usize(6..12);
        let blobs = rng.usize(4..8);
        let spread = rng.f32(10.0..30.0);
        let data = VectorSet::from_fn(dim, n, |r, c| {
            (r % blobs) as f32 * spread + ((r * 29 + c * 5) % 17) as f32 * 0.2
        });
        let index = IvfPqIndex::build(
            &data,
            &IvfPqConfig {
                metric,
                num_clusters,
                m: 4,
                kstar,
                ..IvfPqConfig::default()
            },
        );
        let params = SearchParams {
            nprobe: rng.usize(2..num_clusters),
            k: rng.usize(2..8),
            ..SearchParams::default()
        };
        let qn = rng.usize(4..20);
        let rows: Vec<usize> = (0..qn).map(|_| rng.usize(0..n)).collect();
        let queries = data.gather(&rows);

        // The oracle: one in-RAM shard, one worker — plain serial
        // cluster-major execution.
        let oracle = ShardedIndex::from_index(&index, 1);
        let (want, want_stats) = search(&oracle, &queries, &params, 1);
        // Results must also agree with plain query-major search.
        for (qi, &row) in rows.iter().enumerate() {
            assert_eq!(want[qi], index.search(data.row(row), &params), "oracle");
        }

        let shards = rng.usize(2..5);
        let dir = temp_dir("prop");
        let paths = ShardedIndex::write_shard_segments(&index, shards, &dir).unwrap();
        let total: u64 = (0..index.num_clusters())
            .map(|g| index.cluster(g).encoded_bytes())
            .sum();
        let capacity = rng.u64(0..total.max(1) * 2);
        let tiered = ShardedIndex::open_tiered(&paths, capacity).unwrap();
        let spec = QuerySpec::from(&params);
        let tel = Telemetry::disabled();
        for threads in [1usize, 2, 4, 8] {
            // Each search advances the shard caches, so predict from the
            // live state immediately before running.
            let plan = plan_uniform(&tiered, &queries, &spec, &PlanOptions::default(), &tel);
            let predicted = tiered.price(&plan);
            let (got, stats) = run(&tiered, &queries, &plan, threads);
            assert_eq!(
                got, want,
                "{metric:?} k*={kstar} shards={shards} threads={threads}: results diverged"
            );
            assert_eq!(
                stats.batch, want_stats.batch,
                "{metric:?} k*={kstar} shards={shards} threads={threads}: stats diverged"
            );
            tiered
                .verify(&predicted, plan.predicted_tier(), &stats.to_measured())
                .unwrap_or_else(|e| {
                    panic!("{metric:?} k*={kstar} capacity={capacity}: prediction diverged: {e}")
                });
            assert_eq!(
                stats.tier.total_code_bytes(),
                stats.batch.code_bytes,
                "tier split must cover all code bytes"
            );
        }
        std::fs::remove_dir_all(dir).unwrap();
    });
}

#[test]
fn ram_sharding_is_thread_and_shard_count_invariant() {
    forall("ram sharding invariance", 8, |rng| {
        let metric = *rng.pick(&[Metric::L2, Metric::InnerProduct]);
        let kstar = *rng.pick(&[16usize, 256]);
        let data = VectorSet::from_fn(8, 420, |r, c| {
            (r % 6) as f32 * 21.0 + ((r * 13 + c * 11) % 19) as f32 * 0.15
        });
        let index = IvfPqIndex::build(
            &data,
            &IvfPqConfig {
                metric,
                num_clusters: 10,
                m: 4,
                kstar,
                ..IvfPqConfig::default()
            },
        );
        let params = SearchParams {
            nprobe: rng.usize(2..8),
            k: rng.usize(1..6),
            ..SearchParams::default()
        };
        let queries = data.gather(&(0..12).map(|i| i * 33 % 420).collect::<Vec<_>>());
        let (want, want_stats) = search(&ShardedIndex::from_index(&index, 1), &queries, &params, 1);
        let shards = rng.usize(2..6);
        let sharded = ShardedIndex::from_index(&index, shards);
        for threads in [1usize, 2, 4, 8] {
            let (got, stats) = search(&sharded, &queries, &params, threads);
            assert_eq!(got, want, "shards={shards} threads={threads}");
            assert_eq!(stats.batch, want_stats.batch, "shards={shards}");
        }
    });
}
