//! Cache-capacity sweep of the sharded, tiered engine:
//! bytes-from-storage vs cluster-cache capacity, with the two-tier
//! predicted == measured invariant asserted at every point.
//!
//! The sweep builds one clustered index, writes it out as versioned v2
//! shard segments, and re-opens the shard set once per capacity point —
//! from a capacity-0 cache (every fetch ground through the storage tier)
//! up to twice the total encoded bytes (everything admitted, misses are
//! first-touch only). Each point replays the same sequence of query
//! batches; batches repeat a fixed query pool, so the cluster cache warms
//! exactly the way an online serving workload would warm it. At every
//! batch the point asserts three things:
//!
//! 1. results are bit-identical to the single-shard in-RAM serial oracle,
//! 2. measured [`anna_index::BatchStats`] equal the price of the engine's
//!    plan ([`anna_engine::SearchEngine::price`]) component for
//!    component, and
//! 3. the measured [`anna_plan::TierTraffic`] split — bytes from cache vs
//!    bytes from storage, hits, misses, admissions, evictions — equals
//!    the plan-side prediction *exactly* (the cache simulator and the
//!    runtime cache replay the same decisions in the same order).
//!
//! The emitted curve (`reports/tiered_sweep.json`, and
//! `tiered_sweep_smoke.json` at a smaller size) must show
//! bytes-from-storage monotonically non-increasing in capacity; `runall`
//! fails if the curve bends the wrong way or any equality above fails.

use anna_engine::{plan_uniform, PlanOptions, QuerySpec, SearchEngine};
use anna_index::{IvfPqConfig, IvfPqIndex, ShardedIndex, ShardedStats};
use anna_plan::{EnginePlan, TierTraffic};
use anna_telemetry::Telemetry;
use anna_vector::{Metric, Neighbor, VectorSet};

use crate::json::Json;

/// Vector dimensionality of the sweep dataset.
pub const DIM: usize = 16;
/// Coarse clusters in the sweep index.
pub const NUM_CLUSTERS: usize = 48;
/// Shards the segment set is written as.
pub const SHARDS: usize = 4;
/// Results per query.
pub const K: usize = 10;
/// Clusters visited per query.
pub const NPROBE: usize = 8;
/// Workers the tiered replays execute on; every batch must match the
/// one-worker oracle bit for bit, so the count is not a report field.
const THREADS: usize = 2;

/// One capacity point of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TieredPoint {
    /// Cluster-cache capacity per shard, in encoded-code bytes.
    pub cache_bytes_per_shard: u64,
    /// Query batches replayed at this capacity.
    pub batches: usize,
    /// Code bytes served from the cluster cache, summed over the replay.
    pub bytes_from_cache: u64,
    /// Code bytes ground through the storage tier, summed over the
    /// replay.
    pub bytes_from_disk: u64,
    /// Cache hits over the replay.
    pub cache_hits: u64,
    /// Cache misses over the replay.
    pub cache_misses: u64,
    /// Misses the admission rule cached.
    pub cache_admissions: u64,
    /// Blocks evicted to make room.
    pub cache_evictions: u64,
    /// Whether every batch's measured traffic — including the tier
    /// split — equalled its prediction exactly.
    pub traffic_match: bool,
    /// Whether every batch's results and stats were bit-identical to the
    /// single-shard in-RAM serial oracle.
    pub identical_to_oracle: bool,
}

/// The sweep result.
#[derive(Debug, Clone)]
pub struct TieredSweep {
    /// Database size.
    pub db_n: usize,
    /// Shards the index was split into.
    pub shards: usize,
    /// Queries per batch.
    pub queries_per_batch: usize,
    /// Total encoded-code bytes of the index (the natural capacity
    /// scale).
    pub total_code_bytes: u64,
    /// Measured points, in increasing capacity order.
    pub points: Vec<TieredPoint>,
}

/// Synthetic clustered dataset (same blob family as the serving sweep).
fn dataset(n: usize) -> VectorSet {
    VectorSet::from_fn(DIM, n, |r, c| {
        let blob = (r % 32) as f32;
        blob * 16.0 + ((r * 31 + c * 7) % 13) as f32 * 0.4
    })
}

/// The fixed batch sequence every capacity point replays: `batches`
/// query sets drawn from one pool, so later batches revisit earlier
/// batches' clusters and the cache has something to hit.
fn query_batches(data: &VectorSet, batches: usize, per_batch: usize) -> Vec<VectorSet> {
    let pool: Vec<usize> = (0..per_batch * 2).map(|i| (i * 37) % data.len()).collect();
    (0..batches)
        .map(|b| {
            let rows: Vec<usize> = (0..per_batch)
                .map(|q| pool[(b * 7 + q) % pool.len()])
                .collect();
            data.gather(&rows)
        })
        .collect()
}

/// One batch through the sharded engine.
struct BatchRun {
    results: Vec<Vec<Neighbor>>,
    stats: ShardedStats,
    /// Measured traffic equalled the plan's price, tier split included.
    traffic_match: bool,
}

/// Plans and prices `qs` against `engine`'s live cache state, then runs
/// that plan.
fn plan_and_run(engine: &ShardedIndex, qs: &VectorSet, threads: usize) -> BatchRun {
    let spec = QuerySpec {
        k: K,
        scope: NPROBE,
    };
    let tel = Telemetry::disabled();
    let plan = plan_uniform(engine, qs, &spec, &PlanOptions::default(), &tel);
    let predicted = engine.price(&plan);
    let EnginePlan::Sharded(sharded) = &plan else {
        panic!("sharded engine planned a {} batch", plan.engine());
    };
    let (results, stats) = engine.run_plan(qs, sharded, threads, &tel).unwrap();
    let traffic_match = engine
        .verify(&predicted, plan.predicted_tier(), &stats.to_measured())
        .is_ok()
        && stats.tier.total_code_bytes() == stats.batch.code_bytes;
    BatchRun {
        results,
        stats,
        traffic_match,
    }
}

/// Runs the sweep: the oracle replay once, then one tiered replay per
/// capacity in `{0, T/4, T/2, T, 2T}` for `T` = total encoded bytes.
pub fn run(db_n: usize, batches: usize, queries_per_batch: usize) -> TieredSweep {
    let data = dataset(db_n);
    let index = IvfPqIndex::build(
        &data,
        &IvfPqConfig {
            metric: Metric::L2,
            num_clusters: NUM_CLUSTERS,
            m: 8,
            kstar: 16,
            ..IvfPqConfig::default()
        },
    );
    let qsets = query_batches(&data, batches, queries_per_batch);

    // The single-shard in-RAM serial oracle, replayed once up front.
    let oracle = ShardedIndex::from_index(&index, 1);
    let want: Vec<_> = qsets
        .iter()
        .map(|qs| plan_and_run(&oracle, qs, 1))
        .collect();

    // Sized into the name: one process may run two sizes at once.
    let dir = std::env::temp_dir().join(format!("anna_tiered_sweep_{}_{db_n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths = ShardedIndex::write_shard_segments(&index, SHARDS, &dir).unwrap();
    let total_code_bytes: u64 = (0..index.num_clusters())
        .map(|g| index.cluster(g).encoded_bytes())
        .sum();

    let capacities = [
        0,
        total_code_bytes / 4,
        total_code_bytes / 2,
        total_code_bytes,
        total_code_bytes * 2,
    ];
    let mut points = Vec::new();
    for &capacity in &capacities {
        // Per-shard capacity: the shard caches partition the budget.
        let per_shard = capacity / SHARDS as u64;
        let tiered = ShardedIndex::open_tiered(&paths, per_shard).unwrap();
        let mut tier = TierTraffic::default();
        let mut traffic_match = true;
        let mut identical = true;
        for (qs, want) in qsets.iter().zip(&want) {
            // Each batch advances the shard caches, so each is planned
            // from the live state immediately before it runs.
            let run = plan_and_run(&tiered, qs, THREADS);
            identical &= run.results == want.results && run.stats.batch == want.stats.batch;
            traffic_match &= run.traffic_match;
            tier.accumulate(&run.stats.tier);
        }
        points.push(TieredPoint {
            cache_bytes_per_shard: per_shard,
            batches,
            bytes_from_cache: tier.cache_code_bytes,
            bytes_from_disk: tier.disk_code_bytes,
            cache_hits: tier.cache_hits,
            cache_misses: tier.cache_misses,
            cache_admissions: tier.cache_admissions,
            cache_evictions: tier.cache_evictions,
            traffic_match,
            identical_to_oracle: identical,
        });
    }
    std::fs::remove_dir_all(&dir).ok();

    TieredSweep {
        db_n,
        shards: SHARDS,
        queries_per_batch,
        total_code_bytes,
        points,
    }
}

impl TieredSweep {
    /// Whether every batch at every point kept predicted == measured on
    /// both tiers and stayed bit-identical to the oracle.
    pub fn all_match(&self) -> bool {
        self.points
            .iter()
            .all(|p| p.traffic_match && p.identical_to_oracle)
    }

    /// Whether bytes-from-storage is monotone non-increasing in cache
    /// capacity — the shape the cache exists to produce.
    pub fn disk_bytes_monotone(&self) -> bool {
        self.points
            .windows(2)
            .all(|w| w[1].bytes_from_disk <= w[0].bytes_from_disk)
    }

    /// The acceptance gate.
    pub fn gate(&self) -> Result<(), String> {
        if !self.all_match() {
            return Err("predicted != measured, or a batch left the oracle \
                        (`match` / `oracle` columns)"
                .into());
        }
        if !self.disk_bytes_monotone() {
            return Err("bytes-from-storage is not monotone non-increasing in capacity".into());
        }
        Ok(())
    }

    /// JSON report (`reports/tiered_sweep.json`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("db_n", self.db_n)
            .set("num_clusters", NUM_CLUSTERS)
            .set("shards", self.shards)
            .set("queries_per_batch", self.queries_per_batch)
            .set("k", K)
            .set("nprobe", NPROBE)
            .set("total_code_bytes", self.total_code_bytes)
            .set("all_match", self.all_match())
            .set("disk_bytes_monotone", self.disk_bytes_monotone())
            .set(
                "points",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Json::obj()
                                .set("cache_bytes_per_shard", p.cache_bytes_per_shard)
                                .set("batches", p.batches)
                                .set("bytes_from_cache", p.bytes_from_cache)
                                .set("bytes_from_disk", p.bytes_from_disk)
                                .set("cache_hits", p.cache_hits)
                                .set("cache_misses", p.cache_misses)
                                .set("cache_admissions", p.cache_admissions)
                                .set("cache_evictions", p.cache_evictions)
                                .set("traffic_match", p.traffic_match)
                                .set("identical_to_oracle", p.identical_to_oracle)
                        })
                        .collect(),
                ),
            )
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = format!(
            "\n=== tiered sweep (N={}, {} shards, {} q/batch × {} batches, total code {} B) ===\n\
             {:>12} {:>12} {:>12} {:>6} {:>6} {:>6} {:>6} {:>6} {:>7}\n",
            self.db_n,
            self.shards,
            self.queries_per_batch,
            self.points.first().map_or(0, |p| p.batches),
            self.total_code_bytes,
            "cache/shard",
            "disk B",
            "cache B",
            "hit",
            "miss",
            "admit",
            "evict",
            "match",
            "oracle"
        );
        for p in &self.points {
            s.push_str(&format!(
                "{:>12} {:>12} {:>12} {:>6} {:>6} {:>6} {:>6} {:>6} {:>7}\n",
                p.cache_bytes_per_shard,
                p.bytes_from_disk,
                p.bytes_from_cache,
                p.cache_hits,
                p.cache_misses,
                p.cache_admissions,
                p.cache_evictions,
                p.traffic_match,
                p.identical_to_oracle
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_keeps_both_tier_invariants_and_warms_monotonically() {
        let sweep = run(3_000, 3, 12);
        assert_eq!(sweep.points.len(), 5);
        assert_eq!(sweep.gate(), Ok(()), "\n{}", sweep.render());
        // The curve actually moves: the biggest cache grinds strictly
        // fewer bytes through storage than the capacity-0 point, and the
        // capacity-0 point serves nothing from cache.
        let first = sweep.points.first().unwrap();
        let last = sweep.points.last().unwrap();
        assert_eq!(first.bytes_from_cache, 0);
        assert_eq!(first.cache_hits, 0);
        assert!(last.bytes_from_disk < first.bytes_from_disk);
        assert!(last.cache_hits > 0);
        let json = sweep.to_json().to_string();
        for key in [
            "total_code_bytes",
            "bytes_from_disk",
            "bytes_from_cache",
            "disk_bytes_monotone",
            "all_match",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
