//! Billion-scale simulation: time ANNA on a SIFT1B-class workload
//! (N = 10⁹, |C| = 10 000) without materializing a billion vectors —
//! the accelerator's runtime depends only on cluster sizes and the search
//! shape (Section IV-B), which is exactly what the timing engines consume.
//!
//! The second half then *runs* the billion-scale serving shape for real
//! at a scaled-down N: the index is written as versioned v2 shard
//! segments, re-opened behind per-shard cluster caches sized to a
//! fraction of the encoded bytes (at 10⁹ vectors the codes alone are
//! 64 GB — they do not fit in RAM, which is exactly why the tiered path
//! exists), and searched shard-parallel with results checked
//! bit-identical against the in-RAM oracle and the measured cache/storage
//! byte split checked against the plan-side prediction.
//!
//! ```sh
//! cargo run --release --example billion_scale
//! ```

use anna::core::engine::{analytic, cycle};
use anna::core::{AnnaConfig, AreaPowerModel, BatchWorkload, ScmAllocation, SearchShape};
use anna::data::ClusterSizeModel;
use anna::engine::{run_pipeline, PlanOptions, QuerySpec};
use anna::index::{IvfPqConfig, IvfPqIndex, SearchParams, ShardedIndex};
use anna::vector::{Metric, VectorSet};
use anna_telemetry::Telemetry;

fn main() {
    // SIFT1B at 4:1 compression with k* = 256: D=128, M=64.
    let shape = SearchShape {
        d: 128,
        m: 64,
        kstar: 256,
        metric: Metric::L2,
        num_clusters: 10_000,
        k: 1000,
    };
    let clusters = ClusterSizeModel::skewed(1_000_000_000, 10_000, 0.35, 1);
    println!(
        "SIFT1B-class workload: N={}, |C|={}, mean cluster {:.0} vectors",
        clusters.total(),
        clusters.num_clusters(),
        clusters.mean()
    );

    let cfg = AnnaConfig::paper();
    let power = AreaPowerModel::paper();
    println!(
        "\n{:>4} {:>12} {:>12} {:>12} {:>10} {:>14}",
        "W", "QPS", "latency(ms)", "traffic(GB)", "bound", "energy(mJ/qy)"
    );
    for w in [4usize, 8, 16, 32, 64, 128] {
        let workload = BatchWorkload {
            shape,
            cluster_sizes: clusters.sizes().to_vec(),
            visits: clusters.sample_query_visits(1000, w, w as u64),
        };
        let r = analytic::batch(&cfg, &workload, ScmAllocation::Auto);
        println!(
            "{:>4} {:>12.0} {:>12.3} {:>12.2} {:>10} {:>14.3}",
            w,
            r.qps(&cfg),
            r.latency_seconds(&cfg) * 1e3,
            r.traffic.total() as f64 / 1e9,
            match r.bound() {
                anna::core::Bound::Memory => "memory",
                anna::core::Bound::Compute => "compute",
            },
            power.energy_per_query_joules(&cfg, &r) * 1e3,
        );
    }

    // Cross-check one point against the event-driven cycle engine.
    let w = 32;
    let workload = BatchWorkload {
        shape,
        cluster_sizes: clusters.sizes().to_vec(),
        visits: clusters.sample_query_visits(1000, w, w as u64),
    };
    let a = analytic::batch(&cfg, &workload, ScmAllocation::Auto);
    let c = cycle::batch(&cfg, &workload, ScmAllocation::Auto);
    println!(
        "\nW=32 cross-check: analytic {:.3} ms/batch vs event-driven {:.3} ms/batch ({:+.1}%)",
        a.seconds(&cfg) * 1e3,
        c.seconds(&cfg) * 1e3,
        (c.cycles / a.cycles - 1.0) * 100.0
    );

    // Scale-out: twelve 75 GB/s instances (the fair-bandwidth comparison
    // against a 900 GB/s V100).
    let x12 = anna::core::scale_out_qps(
        &AnnaConfig::paper_x12_instance(),
        &workload,
        ScmAllocation::Auto,
        12,
    );
    println!("ANNA x12 (75 GB/s each) at W=32: {x12:.0} QPS");

    // ---- The same serving shape, executed for real at scaled-down N ----
    //
    // Sharded segments + cluster-granularity cache: the structure a
    // billion-scale deployment runs (codes on storage, hot clusters
    // cached per shard), exercised end-to-end at N = 20 000 so the
    // example finishes in seconds.
    let n = 20_000usize;
    let shards = 4usize;
    let db = VectorSet::from_fn(128, n, |r, c| {
        (r % 64) as f32 * 8.0 + ((r * 31 + c * 7) % 13) as f32 * 0.3
    });
    let index = IvfPqIndex::build(
        &db,
        &IvfPqConfig {
            metric: Metric::L2,
            num_clusters: 64,
            m: 64,
            kstar: 256,
            ..IvfPqConfig::default()
        },
    );
    let dir = std::env::temp_dir().join(format!("anna_billion_scale_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths = ShardedIndex::write_shard_segments(&index, shards, &dir).unwrap();
    let total_code_bytes: u64 = (0..index.num_clusters())
        .map(|g| index.cluster(g).encoded_bytes())
        .sum();
    // Cache a quarter of the encoded bytes, split across the shards.
    let cache_per_shard = total_code_bytes / 4 / shards as u64;
    let tiered = ShardedIndex::open_tiered(&paths, cache_per_shard).unwrap();
    let params = SearchParams {
        nprobe: 8,
        k: 10,
        ..SearchParams::default()
    };
    let queries = db.gather(&(0..256).map(|i| (i * 61) % n).collect::<Vec<_>>());
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);

    println!(
        "\nscaled-down tiered execution: N={n}, {shards} shards, \
         {total_code_bytes} code bytes, {cache_per_shard} B cache/shard"
    );
    let spec = QuerySpec::from(&params);
    let oracle = ShardedIndex::from_index(&index, 1);
    let (_, _, oracle_run) = run_pipeline(
        &oracle,
        &queries,
        &spec,
        &PlanOptions::default(),
        1,
        &Telemetry::disabled(),
    )
    .expect("the RAM oracle's measured traffic diverged from its prediction");
    let want = oracle_run.results;
    for batch in 0..3 {
        // The engine pipeline: plan and price against the live cache
        // state, execute, then verify predicted == measured — cache vs
        // storage split included.
        let (_, _, run) = run_pipeline(
            &tiered,
            &queries,
            &spec,
            &PlanOptions::default(),
            threads,
            &Telemetry::disabled(),
        )
        .expect("measured traffic diverged from the plan-side prediction");
        assert_eq!(
            run.results, want,
            "tiered results diverged from the RAM oracle"
        );
        let tier = run.measured.tier.expect("sharded engines measure a tier");
        println!(
            "batch {batch}: {} B from cache, {} B from storage \
             ({} hits, {} misses, {} admitted, {} evicted) — predicted == measured",
            tier.cache_code_bytes,
            tier.disk_code_bytes,
            tier.cache_hits,
            tier.cache_misses,
            tier.cache_admissions,
            tier.cache_evictions,
        );
    }
    let counters = tiered.tier_counters();
    println!(
        "replay total: {} / {} code bytes served from cache",
        counters.cache_code_bytes,
        counters.total_code_bytes()
    );
    std::fs::remove_dir_all(&dir).ok();
}
