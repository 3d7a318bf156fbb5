//! Cluster-major batched execution — the software analogue of ANNA's
//! memory-traffic optimization (Section IV, Figure 5).
//!
//! Instead of each query streaming the codes of its `W` selected clusters
//! (loading `B·|W|` clusters for a batch of `B` queries), the batch first
//! resolves every query's cluster list, inverts it into per-cluster query
//! lists, and then walks the clusters once: each cluster's codes are read a
//! single time and scored against every visiting query (at most `|C|`
//! cluster loads per batch).
//!
//! The schedule itself is a shared-IR [`BatchPlan`] from `anna-plan` — the
//! *same* plan the accelerator simulators execute. The software engine's
//! own schedule is built in exactly one place, the scanner's
//! [`anna_engine::SearchEngine::plan`] (see [`crate::engines`]), and run
//! by [`BatchedScan::run_plan`] — which equally accepts a plan built
//! elsewhere (an accelerator tiling from [`anna_plan::plan`]) for exact
//! cross-validation against the timing engines.
//!
//! The paper observes Faiss16's CPU implementation uses this schedule,
//! which is why it is the fastest CPU baseline; we use the same code for
//! our CPU measurements and reuse its bookkeeping in the accelerator model.

use crate::ivf::IvfPqIndex;
use crate::parallel::{self, Lane, LaneStore, RoundJob};
use crate::SearchParams;
use anna_engine::{plan_uniform, PlanOptions, QuerySpec};
use anna_plan::{BatchPlan, BatchWorkload, EnginePlan, SearchShape};
use anna_telemetry::Telemetry;
use anna_vector::{Neighbor, TopK, VectorSet};
use serde::{Deserialize, Serialize};

/// Memory-traffic bookkeeping for one batch, in the units of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BatchStats {
    /// Clusters actually fetched (each counted once; `≤ |C|`).
    pub clusters_fetched: u64,
    /// Encoded-vector bytes read under the cluster-major schedule.
    pub code_bytes: u64,
    /// Total (query, cluster) visits — `B·|W|`; the conventional schedule
    /// would fetch this many clusters.
    pub query_cluster_visits: u64,
    /// Encoded-vector bytes the conventional (query-major) schedule would
    /// have read.
    pub conventional_code_bytes: u64,
    /// Intermediate top-k records written out when a query's scan is
    /// interrupted by a round boundary (Section IV-C).
    pub topk_spill_bytes: u64,
    /// Intermediate top-k records read back at the start of a query's
    /// later rounds.
    pub topk_fill_bytes: u64,
    /// Re-rank candidate records moved (each first-pass survivor's record
    /// spilled once and read back once). Zero for single-phase runs.
    pub rerank_candidate_bytes: u64,
    /// Re-rank vector fetches at each query's rescore precision. Zero for
    /// single-phase runs.
    pub rerank_vector_bytes: u64,
}

impl BatchStats {
    /// The traffic reduction factor of the optimization
    /// (`conventional / optimized`; the paper's example: B=1000, |C|=10000,
    /// |W|=128 gives 12.8×).
    pub fn traffic_reduction(&self) -> f64 {
        self.conventional_code_bytes as f64 / self.code_bytes.max(1) as f64
    }

    /// Adds another partial count into this one. All fields are plain
    /// sums, so accumulation is commutative and associative — per-worker
    /// partials merge to the same totals in any order.
    pub fn accumulate(&mut self, other: &BatchStats) {
        self.clusters_fetched += other.clusters_fetched;
        self.code_bytes += other.code_bytes;
        self.query_cluster_visits += other.query_cluster_visits;
        self.conventional_code_bytes += other.conventional_code_bytes;
        self.topk_spill_bytes += other.topk_spill_bytes;
        self.topk_fill_bytes += other.topk_fill_bytes;
        self.rerank_candidate_bytes += other.rerank_candidate_bytes;
        self.rerank_vector_bytes += other.rerank_vector_bytes;
    }
}

/// Cluster-major batched scanner over an [`IvfPqIndex`].
///
/// # Example
///
/// ```
/// use anna_index::{BatchedScan, IvfPqConfig, IvfPqIndex, SearchParams};
/// use anna_vector::{Metric, VectorSet};
///
/// let data = VectorSet::from_fn(8, 256, |r, c| ((r * 13 + c * 5) % 23) as f32);
/// let index = IvfPqIndex::build(&data, &IvfPqConfig {
///     metric: Metric::L2, num_clusters: 8, m: 4, kstar: 16,
///     ..IvfPqConfig::default()
/// });
/// let queries = data.gather(&[1, 2, 3]);
/// let params = SearchParams { nprobe: 3, k: 2, ..Default::default() };
/// let (results, stats) = BatchedScan::new(&index).run(&queries, &params);
/// assert_eq!(results.len(), 3);
/// assert!(stats.traffic_reduction() >= 1.0);
/// ```
#[derive(Debug)]
pub struct BatchedScan<'a> {
    index: &'a IvfPqIndex,
    rerank_db: Option<&'a VectorSet>,
}

impl<'a> BatchedScan<'a> {
    /// Creates a scanner over `index`.
    pub fn new(index: &'a IvfPqIndex) -> Self {
        Self {
            index,
            rerank_db: None,
        }
    }

    /// Creates a scanner that can execute two-phase plans: `db` holds the
    /// original vectors (row id == database id) the re-rank stage
    /// rescores candidates against.
    ///
    /// # Panics
    ///
    /// Panics if `db.dim() != index.dim()`.
    pub fn with_rerank_db(index: &'a IvfPqIndex, db: &'a VectorSet) -> Self {
        assert_eq!(db.dim(), index.dim(), "re-rank source dimension mismatch");
        Self {
            index,
            rerank_db: Some(db),
        }
    }

    /// The index this scanner executes over.
    pub fn index(&self) -> &IvfPqIndex {
        self.index
    }

    /// The re-rank source, when the scanner can execute two-phase plans.
    pub fn rerank_db(&self) -> Option<&VectorSet> {
        self.rerank_db
    }

    /// Describes this batch as a plan-layer [`BatchWorkload`]: the index's
    /// shape and cluster sizes plus each query's visited-cluster list (in
    /// filter rank order, exactly the clusters the software scan scores).
    ///
    /// Feed the result to [`anna_plan::plan`] and pass the plan back to
    /// [`BatchedScan::run_plan`] to execute the *same* schedule the timing
    /// engines price.
    ///
    /// # Panics
    ///
    /// Panics if `queries.dim() != index.dim()`.
    pub fn workload(&self, queries: &VectorSet, params: &SearchParams) -> BatchWorkload {
        assert_eq!(queries.dim(), self.index.dim(), "query dimension mismatch");
        let visits = queries
            .iter()
            .map(|q| self.index.filter_clusters(q, params.nprobe))
            .collect();
        self.workload_from_scopes(visits, params.k)
    }

    /// The workload of a batch whose per-query cluster lists are already
    /// resolved, with heaps of `k` records.
    pub(crate) fn workload_from_scopes(&self, visits: Vec<Vec<usize>>, k: usize) -> BatchWorkload {
        let book = self.index.codebook();
        BatchWorkload {
            shape: SearchShape {
                d: self.index.dim(),
                m: book.m(),
                kstar: book.kstar(),
                metric: self.index.metric(),
                num_clusters: self.index.num_clusters(),
                k,
            },
            cluster_sizes: self.index.cluster_sizes(),
            visits,
        }
    }

    /// Runs the batch and returns per-query results (query order, best
    /// first) plus traffic statistics — the convenience wrapper over the
    /// engine pipeline: scope every query, build the single-phase
    /// [`anna_engine::SearchEngine::plan`], and hand it to
    /// [`BatchedScan::run_plan`] with one worker per available core.
    ///
    /// Results are bit-identical to running [`IvfPqIndex::search`] per
    /// query — only the schedule differs (see [`crate::parallel`] for why).
    ///
    /// # Panics
    ///
    /// Panics if `queries.dim() != index.dim()`.
    pub fn run(
        &self,
        queries: &VectorSet,
        params: &SearchParams,
    ) -> (Vec<Vec<Neighbor>>, BatchStats) {
        assert_eq!(queries.dim(), self.index.dim(), "query dimension mismatch");
        let spec = QuerySpec::from(params);
        let tel = Telemetry::disabled();
        let EnginePlan::ClusterMajor { plan, .. } =
            plan_uniform(self, queries, &spec, &PlanOptions::default(), &tel)
        else {
            unreachable!("the cluster-major engine plans cluster-major batches");
        };
        self.run_plan(queries, params, &plan, parallel::resolve_threads(0), &tel)
    }

    /// Executes a [`BatchPlan`] on `threads` workers — the one inherent
    /// executor (the trait's `execute` is its adapter) and the
    /// exact-cross-validation entry point: hand this the same plan a
    /// timing engine prices and the measured [`BatchStats`] bytes equal
    /// the predicted [`anna_plan::TrafficModel`] bytes, component for
    /// component.
    ///
    /// When `tel` is enabled the stages are timed as spans —
    /// `batch.lut_build` (shared inner-product base tables), per-round
    /// `batch.tile_scan` windows on a per-worker timeline, `batch.merge`
    /// (folding the per-worker accumulators), `batch.rerank` — and the
    /// aggregate [`BatchStats`] are bridged into the snapshot as `plan.*`
    /// counters. Telemetry only reads clocks and bumps atomics, so results
    /// and stats are bit-identical to the uninstrumented run.
    ///
    /// The plan must have been built for this index and query set (by the
    /// scanner's [`anna_engine::SearchEngine::plan`], or from
    /// [`BatchedScan::workload`] via [`anna_plan::plan`]): round cluster
    /// ids index this index's clusters and round query ids index
    /// `queries`. A plan carrying a re-rank stage runs its first pass at
    /// `params.k` (the over-fetched heap size) and needs a scanner built
    /// with [`BatchedScan::with_rerank_db`]. Results are bit-identical for
    /// any `threads` and any round splitting, because every
    /// (query, cluster) visit appears in exactly one round.
    ///
    /// # Panics
    ///
    /// Panics if `queries.dim() != index.dim()`, the plan references an
    /// out-of-range cluster or query, or the plan carries a re-rank stage
    /// and the scanner has no re-rank source.
    pub fn run_plan(
        &self,
        queries: &VectorSet,
        params: &SearchParams,
        plan: &BatchPlan,
        threads: usize,
        tel: &Telemetry,
    ) -> (Vec<Vec<Neighbor>>, BatchStats) {
        assert_eq!(queries.dim(), self.index.dim(), "query dimension mismatch");
        // One lane per round: workers self-schedule rounds as they finish.
        let lanes: Vec<Lane<'_>> = plan
            .rounds
            .chunks(1)
            .map(|rounds| Lane {
                rounds,
                store: LaneStore::Ram(self.index.clusters()),
                centroids: self.index.centroids(),
                centroid_stride: 1,
                centroid_offset: 0,
            })
            .collect();
        let job = RoundJob {
            queries,
            metric: self.index.metric(),
            codebook: self.index.codebook(),
            k: params.k,
            lut_precision: params.lut_precision,
            spill_unit_bytes: plan.spill_unit_bytes,
        };
        let (merged, mut stats, _) = parallel::execute_rounds(&job, &lanes, threads, tel)
            .expect("resident lanes read no storage");

        // Second phase: rescore each query's first-pass survivors at the
        // stage's precision and keep the final k. The work items join the
        // same self-scheduling queue discipline as the scan rounds, so
        // serial == parallel stays bit-identical.
        let results = match &plan.rerank {
            Some(stage) => {
                let db = self.rerank_db.expect(
                    "plan carries a re-rank stage but the scanner has no re-rank source; \
                     build it with BatchedScan::with_rerank_db",
                );
                let _span = tel.span("batch.rerank");
                let (results, candidate_bytes, vector_bytes) = parallel::execute_rerank(
                    db,
                    queries,
                    self.index.metric(),
                    stage,
                    merged,
                    threads,
                );
                stats.rerank_candidate_bytes = candidate_bytes;
                stats.rerank_vector_bytes = vector_bytes;
                results
            }
            None => merged.into_iter().map(TopK::into_sorted_vec).collect(),
        };

        tel.counter_add("plan.queries", queries.len() as u64);
        tel.counter_add("plan.clusters_fetched", stats.clusters_fetched);
        tel.counter_add("plan.code_bytes", stats.code_bytes);
        tel.counter_add("plan.query_cluster_visits", stats.query_cluster_visits);
        tel.counter_add(
            "plan.conventional_code_bytes",
            stats.conventional_code_bytes,
        );
        tel.counter_add("plan.topk_spill_bytes", stats.topk_spill_bytes);
        tel.counter_add("plan.topk_fill_bytes", stats.topk_fill_bytes);
        tel.counter_add("plan.rerank_candidate_bytes", stats.rerank_candidate_bytes);
        tel.counter_add("plan.rerank_vector_bytes", stats.rerank_vector_bytes);
        (results, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivf::IvfPqConfig;
    use crate::LutPrecision;
    use anna_vector::Metric;

    fn clustered(dim: usize, n: usize) -> VectorSet {
        VectorSet::from_fn(dim, n, |r, c| {
            let blob = (r % 8) as f32;
            blob * 20.0 + ((r * 31 + c * 7) % 10) as f32 * 0.2
        })
    }

    fn build(metric: Metric) -> (VectorSet, IvfPqIndex) {
        let data = clustered(8, 600);
        let cfg = IvfPqConfig {
            metric,
            num_clusters: 12,
            m: 4,
            kstar: 16,
            ..IvfPqConfig::default()
        };
        let index = IvfPqIndex::build(&data, &cfg);
        (data, index)
    }

    #[test]
    fn batched_matches_query_major_l2() {
        let (data, index) = build(Metric::L2);
        let ids: Vec<usize> = (0..40).map(|i| i * 13 % 600).collect();
        let queries = data.gather(&ids);
        let params = SearchParams {
            nprobe: 4,
            k: 6,
            lut_precision: LutPrecision::F32,
        };
        let (batched, _) = BatchedScan::new(&index).run(&queries, &params);
        for (bi, &row) in ids.iter().enumerate() {
            let single = index.search(data.row(row), &params);
            assert_eq!(batched[bi], single, "query row {row} diverged");
        }
    }

    #[test]
    fn batched_matches_query_major_inner_product() {
        let (data, index) = build(Metric::InnerProduct);
        let ids: Vec<usize> = vec![5, 100, 250, 599];
        let queries = data.gather(&ids);
        let params = SearchParams {
            nprobe: 5,
            k: 4,
            lut_precision: LutPrecision::F32,
        };
        let (batched, _) = BatchedScan::new(&index).run(&queries, &params);
        for (bi, &row) in ids.iter().enumerate() {
            assert_eq!(batched[bi], index.search(data.row(row), &params));
        }
    }

    #[test]
    fn traffic_never_exceeds_conventional() {
        let (data, index) = build(Metric::L2);
        let queries = data.gather(&(0..64).collect::<Vec<_>>());
        let params = SearchParams {
            nprobe: 6,
            k: 3,
            lut_precision: LutPrecision::F32,
        };
        let (_, stats) = BatchedScan::new(&index).run(&queries, &params);
        assert!(stats.code_bytes <= stats.conventional_code_bytes);
        assert!(stats.clusters_fetched as usize <= index.num_clusters());
        assert_eq!(stats.query_cluster_visits, 64 * 6);
        assert!(stats.traffic_reduction() >= 1.0);
    }

    #[test]
    fn traffic_reduction_grows_with_batch_size() {
        let (data, index) = build(Metric::L2);
        let params = SearchParams {
            nprobe: 6,
            k: 3,
            lut_precision: LutPrecision::F32,
        };
        let small = data.gather(&(0..4).collect::<Vec<_>>());
        let large = data.gather(&(0..128).collect::<Vec<_>>());
        let (_, s1) = BatchedScan::new(&index).run(&small, &params);
        let (_, s2) = BatchedScan::new(&index).run(&large, &params);
        assert!(
            s2.traffic_reduction() >= s1.traffic_reduction(),
            "{} vs {}",
            s2.traffic_reduction(),
            s1.traffic_reduction()
        );
    }

    #[test]
    fn workload_visitor_lists_hold_every_query_nprobe_times() {
        let (data, index) = build(Metric::L2);
        let queries = data.gather(&[0, 8, 16, 24]);
        let params = SearchParams {
            nprobe: 3,
            k: 2,
            lut_precision: LutPrecision::F32,
        };
        let w = BatchedScan::new(&index).workload(&queries, &params);
        assert_eq!(w.b(), 4);
        assert_eq!(w.shape.m, 4);
        assert_eq!(w.shape.kstar, 16);
        let mut counts = [0usize; 4];
        for qs in &w.visitors_per_cluster() {
            for &q in qs {
                counts[q] += 1;
            }
        }
        assert_eq!(counts, [3; 4]);
    }

    #[test]
    fn topk_spill_accounting_prices_round_crossings() {
        // With one round per visited cluster, a query probing W clusters
        // crosses W-1 round boundaries, each worth a k-record spill and
        // fill at 5 B per record.
        let (data, index) = build(Metric::L2);
        let queries = data.gather(&(0..16).collect::<Vec<_>>());
        let params = SearchParams {
            nprobe: 4,
            k: 3,
            lut_precision: LutPrecision::F32,
        };
        let (_, stats) = BatchedScan::new(&index).run(&queries, &params);
        let expected = 16 * (4 - 1) * (3 * 5) as u64;
        assert_eq!(stats.topk_spill_bytes, expected);
        assert_eq!(stats.topk_fill_bytes, expected);
    }

    #[test]
    fn traffic_reduction_reproduces_paper_example() {
        // Section IV's example: B = 1000 queries, |C| = 10000 clusters,
        // |W| = 128 probes. The conventional schedule loads B·|W| clusters;
        // the optimized one loads each of the |C| clusters once, so with
        // uniform cluster bytes z: reduction = 1000·128·z / 10000·z = 12.8.
        let z = 64u64; // bytes per cluster (arbitrary, cancels out)
        let stats = BatchStats {
            clusters_fetched: 10_000,
            code_bytes: 10_000 * z,
            query_cluster_visits: 1000 * 128,
            conventional_code_bytes: 1000 * 128 * z,
            ..BatchStats::default()
        };
        assert!((stats.traffic_reduction() - 12.8).abs() < 1e-9);
    }

    #[test]
    fn traffic_reduction_never_divides_by_zero() {
        // An all-empty batch (or an index of empty clusters) loads zero
        // bytes; the max(1) guard must yield a finite ratio, not NaN/inf.
        let zero = BatchStats::default();
        assert_eq!(zero.traffic_reduction(), 0.0);
        let empty_clusters = BatchStats {
            clusters_fetched: 3,
            code_bytes: 0,
            query_cluster_visits: 7,
            conventional_code_bytes: 0,
            ..BatchStats::default()
        };
        let r = empty_clusters.traffic_reduction();
        assert!(r.is_finite());
        assert_eq!(r, 0.0);
    }

    #[test]
    fn stats_accumulate_is_a_field_wise_sum() {
        let mut a = BatchStats {
            clusters_fetched: 1,
            code_bytes: 10,
            query_cluster_visits: 3,
            conventional_code_bytes: 30,
            topk_spill_bytes: 5,
            topk_fill_bytes: 5,
            rerank_candidate_bytes: 2,
            rerank_vector_bytes: 100,
        };
        let b = BatchStats {
            clusters_fetched: 2,
            code_bytes: 20,
            query_cluster_visits: 4,
            conventional_code_bytes: 80,
            topk_spill_bytes: 10,
            topk_fill_bytes: 15,
            rerank_candidate_bytes: 3,
            rerank_vector_bytes: 200,
        };
        a.accumulate(&b);
        assert_eq!(
            a,
            BatchStats {
                clusters_fetched: 3,
                code_bytes: 30,
                query_cluster_visits: 7,
                conventional_code_bytes: 110,
                topk_spill_bytes: 15,
                topk_fill_bytes: 20,
                rerank_candidate_bytes: 5,
                rerank_vector_bytes: 300,
            }
        );
    }

    /// The wrapper's whole contract: `run()` is `run_plan()` over the
    /// trait-built plan, and both equal per-query `search`.
    #[test]
    fn run_equals_run_plan_over_the_trait_plan_and_per_query_search() {
        for metric in [Metric::L2, Metric::InnerProduct] {
            let (data, index) = build(metric);
            let ids: Vec<usize> = (0..24).map(|i| i * 19 % 600).collect();
            let queries = data.gather(&ids);
            let params = SearchParams {
                nprobe: 4,
                k: 3,
                lut_precision: LutPrecision::F32,
            };
            let scan = BatchedScan::new(&index);
            let tel = Telemetry::disabled();
            let spec = QuerySpec::from(&params);
            let EnginePlan::ClusterMajor { plan, .. } =
                plan_uniform(&scan, &queries, &spec, &PlanOptions::default(), &tel)
            else {
                panic!("cluster-major engine planned another family");
            };
            let wrapped = scan.run(&queries, &params);
            assert_eq!(wrapped, scan.run_plan(&queries, &params, &plan, 1, &tel));
            for (bi, &row) in ids.iter().enumerate() {
                assert_eq!(wrapped.0[bi], index.search(data.row(row), &params));
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (_, index) = build(Metric::L2);
        let queries = VectorSet::zeros(8, 0);
        let params = SearchParams::default();
        let (res, stats) = BatchedScan::new(&index).run(&queries, &params);
        assert!(res.is_empty());
        assert_eq!(stats.clusters_fetched, 0);
    }
}
