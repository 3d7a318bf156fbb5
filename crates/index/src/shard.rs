//! Sharded IVF-PQ search: N shards scanned in parallel, merged into one
//! deterministic top-k.
//!
//! A [`ShardedIndex`] partitions an index's clusters round-robin (global
//! cluster `g` lives in shard `g % N` at local id `g / N`) while keeping
//! the *global* coarse centroids resident, so cluster filtering is the
//! exact arithmetic of [`IvfPqIndex::filter_clusters`] — same centroids,
//! same similarity pushes, same tie-breaks. Each shard is either an
//! in-RAM cluster array or a [`TieredIndex`] (v2 segment behind a
//! cluster-granularity cache; see [`crate::tiered`]).
//!
//! A batch runs the plan it was priced on: the engine's `plan()` (see
//! [`crate::engines`]) assembles one unbounded cluster-major
//! [`BatchPlan`] per shard, and [`ShardedIndex::run_plan`] hands each to
//! the crate's one round loop ([`crate::parallel`]) as a *lane* — workers
//! claim whole shards off an atomic cursor and run each shard's rounds
//! serially in plan order, so per-shard work — including every cache
//! admission/eviction decision of a tiered shard — is a deterministic
//! function of the plan, never of thread scheduling. A worker keeps one
//! partial top-k per query across all the shards it runs; the partials
//! fold with [`TopK::merge`], whose total order (score descending, lower
//! id on ties) makes the fold order-insensitive: results are
//! bit-identical to a single-shard serial oracle at every shard count and
//! every thread count.
//!
//! Traffic accounting mirrors the plan layer's unbounded
//! [`BatchPlan::from_visitors`] schedule: a query visiting `W_sq`
//! clusters inside shard `s` is priced `W_sq − 1` spill/fill units there,
//! and the global merge `S_q − 1` more (one per extra contributing
//! shard), which telescopes to `W_q − 1` — what the round loop measures
//! from the rounds it scored — so the price of the engine's
//! [`ShardedBatchPlan`] equals [`ShardedIndex::run_plan`]'s measurement
//! component for component, storage tier included.

use crate::batched::BatchStats;
use crate::ivf::{Cluster, IvfPqIndex};
use crate::lut::LutPrecision;
use crate::parallel::{self, Lane, LaneStore, RoundJob};
use crate::tiered::TieredIndex;
use anna_plan::{
    BatchPlan, BatchWorkload, PlanParams, SearchShape, ShardedBatchPlan, TierTraffic, TrafficModel,
};
use anna_quant::kmeans::KMeans;
use anna_quant::pq::PqCodebook;
use anna_telemetry::Telemetry;
use anna_vector::{Metric, Neighbor, TopK, VectorSet};
use std::io;
use std::path::{Path, PathBuf};

/// Measured traffic of one sharded batch: the cluster-major byte counters
/// plus the storage-tier split (all zero for all-RAM shards, which have no
/// storage tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct ShardedStats {
    /// Cluster-major traffic counters, summed across shards, with the
    /// cross-shard merge's spill/fill units included.
    pub batch: BatchStats,
    /// Bytes-from-cache vs bytes-from-storage split and cache telemetry,
    /// summed across tiered shards.
    pub tier: TierTraffic,
}

enum ShardStore {
    Ram(Vec<Cluster>),
    Tiered(Box<TieredIndex>),
}

impl ShardStore {
    fn cluster_len(&self, lc: usize) -> usize {
        match self {
            ShardStore::Ram(clusters) => clusters[lc].len(),
            ShardStore::Tiered(t) => t.cluster_len(lc),
        }
    }

    fn num_clusters(&self) -> usize {
        match self {
            ShardStore::Ram(clusters) => clusters.len(),
            ShardStore::Tiered(t) => t.num_clusters(),
        }
    }
}

/// An IVF-PQ index partitioned round-robin across N shards, searched
/// shard-parallel with a deterministic global merge.
pub struct ShardedIndex {
    metric: Metric,
    dim: usize,
    codebook: PqCodebook,
    /// Global coarse centroids — row `g` is cluster `g`, identical to the
    /// unsharded index's, so filtering arithmetic is unchanged.
    centroids: VectorSet,
    cluster_sizes: Vec<usize>,
    num_vectors: u64,
    shards: Vec<ShardStore>,
}

impl std::fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("num_shards", &self.shards.len())
            .field("num_clusters", &self.cluster_sizes.len())
            .field("num_vectors", &self.num_vectors)
            .finish_non_exhaustive()
    }
}

impl ShardedIndex {
    /// Partitions `index` into `num_shards` in-RAM shards (clusters
    /// round-robin by global id). With `num_shards == 1` this is the
    /// serial oracle the multi-shard paths are tested against.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0`.
    pub fn from_index(index: &IvfPqIndex, num_shards: usize) -> ShardedIndex {
        assert!(num_shards > 0, "at least one shard required");
        let c = index.num_clusters();
        let mut shards: Vec<Vec<Cluster>> = (0..num_shards).map(|_| Vec::new()).collect();
        for g in 0..c {
            shards[g % num_shards].push(index.cluster(g).clone());
        }
        ShardedIndex {
            metric: index.metric(),
            dim: index.dim(),
            codebook: index.codebook().clone(),
            centroids: index.centroids().clone(),
            cluster_sizes: index.cluster_sizes(),
            num_vectors: index.num_vectors(),
            shards: shards.into_iter().map(ShardStore::Ram).collect(),
        }
    }

    /// Writes `index` as `num_shards` v2 segment files in `dir`
    /// (`shard-<s>.seg`, clusters round-robin by global id) and returns
    /// the paths, ready for [`ShardedIndex::open_tiered`].
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the files.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0`.
    pub fn write_shard_segments(
        index: &IvfPqIndex,
        num_shards: usize,
        dir: &Path,
    ) -> io::Result<Vec<PathBuf>> {
        assert!(num_shards > 0, "at least one shard required");
        std::fs::create_dir_all(dir)?;
        let c = index.num_clusters();
        let mut paths = Vec::with_capacity(num_shards);
        for s in 0..num_shards {
            let globals: Vec<usize> = (s..c).step_by(num_shards).collect();
            let local = IvfPqIndex::from_parts(
                index.metric(),
                KMeans::from_centroids(index.centroids().gather(&globals)),
                index.codebook().clone(),
                globals.iter().map(|&g| index.cluster(g).clone()).collect(),
            );
            let path = dir.join(format!("shard-{s}.seg"));
            let file = std::fs::File::create(&path)?;
            let mut w = std::io::BufWriter::new(file);
            crate::io::write_segment(&mut w, &local)?;
            std::io::Write::flush(&mut w)?;
            paths.push(path);
        }
        Ok(paths)
    }

    /// Opens segment files as tiered shards, each with its own
    /// cluster cache of `cache_bytes_per_shard` (encoded-code bytes).
    /// `paths[s]` must be shard `s` of a round-robin partition (as
    /// written by [`ShardedIndex::write_shard_segments`]); the global
    /// centroid set is rebuilt by interleaving the shards' rows.
    ///
    /// # Errors
    ///
    /// Returns an error if a segment fails to open or validate, or the
    /// shards are mutually inconsistent (metric/dimension/codebook-shape
    /// mismatch, or cluster counts that no round-robin partition
    /// produces).
    pub fn open_tiered(paths: &[PathBuf], cache_bytes_per_shard: u64) -> io::Result<ShardedIndex> {
        if paths.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "at least one shard required",
            ));
        }
        let shards: Vec<TieredIndex> = paths
            .iter()
            .map(|p| TieredIndex::open(p, cache_bytes_per_shard))
            .collect::<io::Result<_>>()?;
        let first = &shards[0];
        let (metric_, dim) = (first.metric(), first.dim());
        let (m, kstar) = (first.codebook().m(), first.codebook().kstar());
        for (s, sh) in shards.iter().enumerate() {
            if sh.metric() != metric_
                || sh.dim() != dim
                || sh.codebook().m() != m
                || sh.codebook().kstar() != kstar
            {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("shard {s} disagrees with shard 0 on metric/dim/codebook shape"),
                ));
            }
        }
        let n = shards.len();
        let c: usize = shards.iter().map(|sh| sh.num_clusters()).sum();
        for (s, sh) in shards.iter().enumerate() {
            let want = if s < c { (c - s).div_ceil(n) } else { 0 };
            if sh.num_clusters() != want {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "shard {s} has {} clusters; a round-robin partition of {c} over {n} \
                         shards would give it {want}",
                        sh.num_clusters()
                    ),
                ));
            }
        }
        let mut centroids = VectorSet::zeros(dim, 0);
        let mut cluster_sizes = Vec::with_capacity(c);
        for g in 0..c {
            centroids.push(shards[g % n].centroids().row(g / n));
            cluster_sizes.push(shards[g % n].cluster_len(g / n));
        }
        let num_vectors = cluster_sizes.iter().map(|&s| s as u64).sum();
        Ok(ShardedIndex {
            metric: metric_,
            dim,
            codebook: first.codebook().clone(),
            centroids,
            cluster_sizes,
            num_vectors,
            shards: shards
                .into_iter()
                .map(|t| ShardStore::Tiered(Box::new(t)))
                .collect(),
        })
    }

    /// The similarity metric.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Vector dimension `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of shards `N`.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total number of clusters `|C|` across all shards.
    pub fn num_clusters(&self) -> usize {
        self.cluster_sizes.len()
    }

    /// Total number of indexed vectors.
    pub fn num_vectors(&self) -> u64 {
        self.num_vectors
    }

    /// Global cluster sizes `|C_i|` (index = global cluster id).
    pub fn cluster_sizes(&self) -> Vec<usize> {
        self.cluster_sizes.clone()
    }

    /// The global coarse centroids (row `g` = cluster `g`).
    pub fn centroids(&self) -> &VectorSet {
        &self.centroids
    }

    /// Cumulative tier telemetry summed over the tiered shards (all zero
    /// for an all-RAM sharding).
    pub fn tier_counters(&self) -> TierTraffic {
        let mut total = TierTraffic::default();
        for sh in &self.shards {
            if let ShardStore::Tiered(t) = sh {
                total.accumulate(&t.counters());
            }
        }
        total
    }

    /// Cluster filtering against the global centroids — the exact
    /// arithmetic of [`IvfPqIndex::filter_clusters`].
    ///
    /// # Panics
    ///
    /// Panics if `q.len() != self.dim()`.
    pub fn filter_clusters(&self, q: &[f32], nprobe: usize) -> Vec<usize> {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        let mut top = TopK::new(nprobe.clamp(1, self.num_clusters()));
        for (i, c) in self.centroids.iter().enumerate() {
            top.push(i as u64, self.metric.similarity(q, c));
        }
        top.into_sorted_vec()
            .into_iter()
            .map(|n| n.id as usize)
            .collect()
    }

    /// Per-shard visitor lists for a batch: entry `[s][lc]` lists the
    /// queries visiting shard `s`'s local cluster `lc`, ascending query
    /// order (the plan layer's `visitors_per_cluster` inversion, split by
    /// shard), from each query's resolved global cluster list (the engine
    /// layer's `query_scope` output).
    fn visitors_by_shard(&self, scopes: &[Vec<usize>]) -> Vec<Vec<Vec<usize>>> {
        let n = self.shards.len();
        let mut visiting: Vec<Vec<Vec<usize>>> = self
            .shards
            .iter()
            .map(|sh| vec![Vec::new(); sh.num_clusters()])
            .collect();
        for (qi, scope) in scopes.iter().enumerate() {
            for &g in scope {
                visiting[g % n][g / n].push(qi);
            }
        }
        visiting
    }

    /// Assembles the sharded engine's plan IR from resolved per-query
    /// global cluster lists: per shard, the local workload and unbounded
    /// cluster-major schedule; globally, the cross-shard merge units and
    /// the tier split replayed against *clones* of each tiered shard's
    /// live cache state (so planning never advances the caches).
    /// [`TrafficModel::price_sharded`] over the result predicts what
    /// [`ShardedIndex::run_plan`] will measure, exactly.
    pub(crate) fn engine_batch_plan(&self, scopes: &[Vec<usize>], k: usize) -> ShardedBatchPlan {
        let unit = k as u64 * PlanParams::default().topk_record_bytes as u64;
        let model = TrafficModel::new(PlanParams::default());
        let visiting = self.visitors_by_shard(scopes);
        let b = scopes.len();
        let mut contributing = vec![0u64; b];
        for sv in &visiting {
            let mut seen = vec![false; b];
            for qs in sv {
                for &qi in qs {
                    if !seen[qi] {
                        seen[qi] = true;
                        contributing[qi] += 1;
                    }
                }
            }
        }
        let merge_units: u64 = contributing.iter().map(|c| c.saturating_sub(1)).sum();
        let mut per_shard = Vec::with_capacity(self.shards.len());
        let mut predicted_tier = TierTraffic::default();
        for (s, sh) in self.shards.iter().enumerate() {
            let local_sizes: Vec<usize> = (0..sh.num_clusters())
                .map(|lc| sh.cluster_len(lc))
                .collect();
            let mut visits: Vec<Vec<usize>> = vec![Vec::new(); b];
            for (lc, qs) in visiting[s].iter().enumerate() {
                for &qi in qs {
                    visits[qi].push(lc);
                }
            }
            let workload = BatchWorkload {
                shape: SearchShape {
                    d: self.dim,
                    m: self.codebook.m(),
                    kstar: self.codebook.kstar(),
                    metric: self.metric,
                    num_clusters: sh.num_clusters(),
                    k,
                },
                cluster_sizes: local_sizes.clone(),
                visits,
            };
            let plan = BatchPlan::from_visitors(&visiting[s], &local_sizes, 0, unit);
            if let ShardStore::Tiered(t) = sh {
                let mut sim = t.cache_sim();
                let (_, shard_tier) = model.price_tiered(&workload, &plan, &mut sim);
                predicted_tier.accumulate(&shard_tier);
            }
            per_shard.push((workload, plan));
        }
        ShardedBatchPlan {
            per_shard,
            merge_units,
            spill_unit_bytes: unit,
            b,
            k,
            predicted_tier,
        }
    }

    /// Executes a [`ShardedBatchPlan`] on up to `threads` workers — the
    /// inherent executor (the trait's `execute` is its adapter, minus the
    /// error channel), mirroring [`BatchedScan::run_plan`]. Each shard's
    /// plan is one lane of the crate's round loop (see
    /// [`crate::parallel`]): a shard is scanned by exactly one worker, in
    /// plan order, so a tiered shard's cache sees the touch sequence the
    /// plan's tier split was priced on. Results and stats are
    /// bit-identical for any `threads` and equal the single-shard serial
    /// oracle's; lookup tables are [`LutPrecision::F32`].
    ///
    /// `tel`, when enabled, receives the round loop's `batch.*`,
    /// `kernel.*` and `worker<w>.*` telemetry.
    ///
    /// # Errors
    ///
    /// Returns an error if a tiered shard's storage read fails.
    ///
    /// # Panics
    ///
    /// Panics if `queries.dim() != self.dim()`, or if the plan was not
    /// built for this index and batch: a shard count other than
    /// [`ShardedIndex::num_shards`], a batch size other than
    /// `queries.len()`, or a round naming a local cluster or query out of
    /// range.
    ///
    /// [`BatchedScan::run_plan`]: crate::batched::BatchedScan::run_plan
    pub fn run_plan(
        &self,
        queries: &VectorSet,
        plan: &ShardedBatchPlan,
        threads: usize,
        tel: &Telemetry,
    ) -> io::Result<(Vec<Vec<Neighbor>>, ShardedStats)> {
        assert_eq!(queries.dim(), self.dim, "query dimension mismatch");
        assert_eq!(
            plan.per_shard.len(),
            self.shards.len(),
            "foreign sharded plan: shard count mismatch"
        );
        assert_eq!(
            plan.b,
            queries.len(),
            "foreign sharded plan: batch size mismatch"
        );
        let n = self.shards.len();
        let lanes: Vec<Lane<'_>> = self
            .shards
            .iter()
            .zip(&plan.per_shard)
            .enumerate()
            .map(|(s, (sh, (_, shard_plan)))| {
                for r in &shard_plan.rounds {
                    assert!(
                        r.cluster < sh.num_clusters() && r.queries.iter().all(|&q| q < plan.b),
                        "foreign sharded plan: shard {s} round names cluster {} or a query \
                         out of range",
                        r.cluster
                    );
                }
                Lane {
                    rounds: &shard_plan.rounds,
                    store: match sh {
                        ShardStore::Ram(clusters) => LaneStore::Ram(clusters),
                        ShardStore::Tiered(t) => LaneStore::Tiered(t),
                    },
                    // Local cluster `lc` of shard `s` is global `lc·N + s`.
                    centroids: &self.centroids,
                    centroid_stride: n,
                    centroid_offset: s,
                }
            })
            .collect();
        let job = RoundJob {
            queries,
            metric: self.metric,
            codebook: &self.codebook,
            k: plan.k,
            lut_precision: LutPrecision::F32,
            spill_unit_bytes: plan.spill_unit_bytes,
        };
        let (merged, batch, tier) = parallel::execute_rounds(&job, &lanes, threads, tel)?;
        let results = merged.into_iter().map(TopK::into_sorted_vec).collect();
        Ok((results, ShardedStats { batch, tier }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivf::IvfPqConfig;
    use crate::SearchParams;
    use anna_engine::{plan_uniform, PlanOptions, QuerySpec, SearchEngine};
    use anna_plan::EnginePlan;
    use anna_quant::codes::{CodeWidth, PackedCodes};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "anna_shard_{tag}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn clustered(dim: usize, n: usize) -> VectorSet {
        VectorSet::from_fn(dim, n, |r, c| {
            (r % 7) as f32 * 18.0 + ((r * 31 + c * 7) % 13) as f32 * 0.25
        })
    }

    fn build(metric: Metric) -> (VectorSet, IvfPqIndex) {
        let data = clustered(8, 560);
        let index = IvfPqIndex::build(
            &data,
            &IvfPqConfig {
                metric,
                num_clusters: 14,
                m: 4,
                kstar: 16,
                ..IvfPqConfig::default()
            },
        );
        (data, index)
    }

    fn params() -> SearchParams {
        SearchParams {
            nprobe: 5,
            k: 4,
            lut_precision: LutPrecision::F32,
        }
    }

    /// The engine pipeline's plan for a batch at `p`.
    fn plan_for(sharded: &ShardedIndex, queries: &VectorSet, p: &SearchParams) -> EnginePlan {
        plan_uniform(
            sharded,
            queries,
            &QuerySpec::from(p),
            &PlanOptions::default(),
            &Telemetry::disabled(),
        )
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

    /// Plans the batch at `p` and runs that plan.
    fn search(
        sharded: &ShardedIndex,
        queries: &VectorSet,
        p: &SearchParams,
        threads: usize,
    ) -> (Vec<Vec<Neighbor>>, ShardedStats) {
        run(sharded, queries, &plan_for(sharded, queries, p), threads)
    }

    #[test]
    fn sharded_matches_query_major_search() {
        for metric in [Metric::L2, Metric::InnerProduct] {
            let (data, index) = build(metric);
            let queries = data.gather(&(0..24).map(|i| i * 19 % 560).collect::<Vec<_>>());
            let p = params();
            for shards in [1usize, 2, 3, 5] {
                let sharded = ShardedIndex::from_index(&index, shards);
                let (results, _) = search(&sharded, &queries, &p, 4);
                for (qi, q) in queries.iter().enumerate() {
                    assert_eq!(
                        results[qi],
                        index.search(q, &p),
                        "{metric:?} shards={shards} query {qi} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn shard_and_thread_counts_do_not_change_results_or_stats() {
        let (data, index) = build(Metric::L2);
        let queries = data.gather(&(0..32).collect::<Vec<_>>());
        let p = params();
        let oracle = ShardedIndex::from_index(&index, 1);
        let (want, want_stats) = search(&oracle, &queries, &p, 1);
        for shards in [2usize, 3, 4, 7] {
            let sharded = ShardedIndex::from_index(&index, shards);
            for threads in [1usize, 2, 4, 8] {
                let (got, stats) = search(&sharded, &queries, &p, threads);
                assert_eq!(got, want, "shards={shards} threads={threads}");
                assert_eq!(
                    stats.batch, want_stats.batch,
                    "shards={shards} threads={threads} stats"
                );
            }
        }
    }

    #[test]
    fn prediction_matches_measurement_for_ram_shards() {
        let (data, index) = build(Metric::L2);
        let queries = data.gather(&(0..20).collect::<Vec<_>>());
        let p = params();
        for shards in [1usize, 3] {
            let sharded = ShardedIndex::from_index(&index, shards);
            let plan = plan_for(&sharded, &queries, &p);
            let predicted = sharded.price(&plan);
            let (_, measured) = run(&sharded, &queries, &plan, 2);
            sharded
                .verify(&predicted, plan.predicted_tier(), &measured.to_measured())
                .expect("predicted == measured, tier split included");
            assert_eq!(measured.tier, TierTraffic::default());
        }
    }

    #[test]
    fn tiered_shards_match_ram_shards_and_their_prediction() {
        let (data, index) = build(Metric::InnerProduct);
        let queries = data.gather(&(0..16).collect::<Vec<_>>());
        let p = params();
        let dir = temp_dir("tiered");
        let paths = ShardedIndex::write_shard_segments(&index, 3, &dir).unwrap();
        let ram = ShardedIndex::from_index(&index, 3);
        let (want, want_stats) = search(&ram, &queries, &p, 2);
        let total: u64 = (0..index.num_clusters())
            .map(|g| index.cluster(g).encoded_bytes())
            .sum();
        for capacity in [0u64, total / 4, u64::MAX] {
            let tiered = ShardedIndex::open_tiered(&paths, capacity).unwrap();
            // Two batches: the second exercises warm-cache hits.
            for round in 0..2 {
                let plan = plan_for(&tiered, &queries, &p);
                let (got, stats) = run(&tiered, &queries, &plan, 2);
                assert_eq!(got, want, "capacity={capacity} round={round}");
                assert_eq!(stats.batch, want_stats.batch, "capacity={capacity}");
                assert_eq!(
                    plan.predicted_tier(),
                    Some(&stats.tier),
                    "capacity={capacity} tier"
                );
                assert_eq!(
                    stats.tier.total_code_bytes(),
                    stats.batch.code_bytes,
                    "tier split must cover all code bytes"
                );
            }
        }
        let counters = ShardedIndex::open_tiered(&paths, u64::MAX)
            .unwrap()
            .tier_counters();
        assert_eq!(counters, TierTraffic::default());
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Satellite regression: the same code row under identical centroids
    /// placed in two different shards scores identically, and the merged
    /// top-k must keep the lower id — at every shard count — because
    /// [`TopK`]'s total order breaks score ties by ascending id and
    /// `merge` preserves it across shard boundaries.
    #[test]
    fn duplicate_scores_across_shards_keep_the_lower_id() {
        let dim = 4;
        let m = 2;
        let kstar = 16;
        let sub = dim / m;
        let books: Vec<VectorSet> = (0..m)
            .map(|j| VectorSet::from_fn(sub, kstar, |r, c| (r * 3 + c + j) as f32 * 0.5))
            .collect();
        let codebook = PqCodebook::from_books(books);
        let centroids = VectorSet::from_fn(dim, 2, |_, c| c as f32 + 1.0);
        let mk_cluster = |id: u64| {
            let mut codes = PackedCodes::new(m, CodeWidth::U4);
            codes.push(&[3, 9]);
            Cluster {
                ids: vec![id],
                codes,
            }
        };
        // Global cluster 0 (shard 0 when sharded) holds the HIGHER id, so
        // a merge that kept whichever partial came first would be wrong.
        let index = IvfPqIndex::from_parts(
            Metric::L2,
            KMeans::from_centroids(centroids),
            codebook,
            vec![mk_cluster(7), mk_cluster(3)],
        );
        let p = SearchParams {
            nprobe: 2,
            k: 1,
            lut_precision: LutPrecision::F32,
        };
        let queries = VectorSet::from_fn(dim, 1, |_, c| c as f32 * 0.1 + 1.2);
        let oracle = index.search(queries.row(0), &p);
        assert_eq!(oracle.len(), 1);
        assert_eq!(oracle[0].id, 3, "tie must resolve to the lower id");
        for shards in [1usize, 2] {
            for threads in [1usize, 2] {
                let sharded = ShardedIndex::from_index(&index, shards);
                let (results, _) = search(&sharded, &queries, &p, threads);
                assert_eq!(
                    results[0], oracle,
                    "shards={shards} threads={threads}: duplicate score lost the id tie"
                );
            }
        }
        // With k=2 both copies survive; order must still be lower id first.
        let p2 = SearchParams { k: 2, ..p };
        let both = search(&ShardedIndex::from_index(&index, 2), &queries, &p2, 2).0;
        assert_eq!(both[0].len(), 2);
        assert_eq!(both[0][0].score, both[0][1].score);
        assert_eq!(both[0][0].id, 3);
        assert_eq!(both[0][1].id, 7);
    }

    #[test]
    fn open_tiered_rejects_inconsistent_shard_sets() {
        // 15 clusters over 2 shards is an 8/7 split, so presenting the
        // shards in the wrong order cannot be a round-robin partition.
        let data = clustered(8, 560);
        let index = IvfPqIndex::build(
            &data,
            &IvfPqConfig {
                metric: Metric::L2,
                num_clusters: 15,
                m: 4,
                kstar: 16,
                ..IvfPqConfig::default()
            },
        );
        let dir = temp_dir("inconsistent");
        let paths = ShardedIndex::write_shard_segments(&index, 2, &dir).unwrap();
        let swapped = vec![paths[1].clone(), paths[0].clone()];
        assert!(
            ShardedIndex::open_tiered(&swapped, u64::MAX).is_err(),
            "out-of-order shards must be rejected"
        );
        assert!(ShardedIndex::open_tiered(&paths, u64::MAX).is_ok());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn empty_batch_and_more_shards_than_clusters_are_fine() {
        let (data, index) = build(Metric::L2);
        let sharded = ShardedIndex::from_index(&index, 20);
        assert_eq!(sharded.num_shards(), 20);
        let empty = VectorSet::zeros(8, 0);
        let (results, stats) = search(&sharded, &empty, &params(), 2);
        assert!(results.is_empty());
        assert_eq!(stats, ShardedStats::default());
        let queries = data.gather(&[0, 40]);
        let (got, _) = search(&sharded, &queries, &params(), 3);
        for (qi, q) in queries.iter().enumerate() {
            assert_eq!(got[qi], index.search(q, &params()));
        }
    }
}
