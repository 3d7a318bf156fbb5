//! Byte-exact traffic accounting for a [`BatchPlan`].
//!
//! [`TrafficModel`] prices a plan in bytes *before* execution, using the
//! paper's Section IV accounting: centroid streams, cluster metadata,
//! encoded-code fetches, query-id lists, intermediate top-k spill/fill,
//! and result stores. All fields are integers, so the workspace can assert
//! **exact** equality between the predicted report, the software engine's
//! measured `BatchStats`, and the simulators' `TimingReport` traffic.

use crate::cache::{ClusterCacheSim, TierTraffic};
use crate::plan::{BatchPlan, PlanParams};
use crate::workload::BatchWorkload;

/// Bytes of metadata fetched per cluster (start address + size, one 64 B
/// line).
pub const CLUSTER_META_BYTES: u64 = 64;

/// Bytes per query id in the traffic-optimization query lists (3 B covers
/// the paper's 10k-query batches).
pub const QUERY_ID_BYTES: u64 = 3;

/// Byte-level memory-traffic breakdown of a run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrafficReport {
    /// Centroid stream during cluster filtering.
    pub centroid_bytes: u64,
    /// Cluster metadata reads (start address + size, 64 B lines).
    pub cluster_meta_bytes: u64,
    /// Encoded-vector fetches (the dominant term).
    pub code_bytes: u64,
    /// Intermediate top-k spill records written to memory (batched mode).
    pub topk_spill_bytes: u64,
    /// Intermediate top-k fill records read back from memory (batched
    /// mode). Separated from spills so reads and writes price
    /// independently, as Table I does.
    pub topk_fill_bytes: u64,
    /// Query-id list writes/reads for the traffic optimization
    /// (Section IV-A).
    pub query_list_bytes: u64,
    /// Re-rank candidate records: each first-pass survivor's `(id, score)`
    /// record is spilled once and read back once by the re-ranker
    /// (`2 · Σ c_q · record`). Zero for single-phase plans.
    pub rerank_candidate_bytes: u64,
    /// Re-rank vector fetches: each candidate's vector at the query's
    /// re-rank precision (`Σ c_q · D · bytes_per_element`). Zero for
    /// single-phase plans.
    pub rerank_vector_bytes: u64,
    /// Final result stores.
    pub result_bytes: u64,
}

impl TrafficReport {
    /// Total bytes moved.
    pub fn total(&self) -> u64 {
        self.centroid_bytes
            + self.cluster_meta_bytes
            + self.code_bytes
            + self.topk_spill_bytes
            + self.topk_fill_bytes
            + self.query_list_bytes
            + self.rerank_candidate_bytes
            + self.rerank_vector_bytes
            + self.result_bytes
    }
}

/// Prices a [`BatchPlan`] in bytes before execution.
///
/// Every backend that executes a plan — the software batch engine, the
/// two timing engines, and the functional accelerator — must account
/// exactly the bytes this model predicts; the workspace's cross-validation
/// property tests enforce that equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficModel {
    /// Planning parameters (record sizes the byte accounting depends on).
    pub params: PlanParams,
}

impl TrafficModel {
    /// A model for the given planning parameters.
    pub fn new(params: PlanParams) -> Self {
        Self { params }
    }

    /// The predicted traffic of executing `plan` for `workload`
    /// (Section IV accounting):
    ///
    /// * `centroid_bytes` — one 2-byte-element centroid stream,
    ///   `2·D·|C|`.
    /// * `cluster_meta_bytes` — one 64 B metadata line per cluster fetch.
    /// * `code_bytes` — each fetching round streams its cluster's codes
    ///   once, `|C_i| · M·log2(k*)/8`.
    /// * `topk_spill_bytes` / `topk_fill_bytes` — the plan's spill/fill
    ///   points times [`BatchPlan::spill_unit_bytes`].
    /// * `query_list_bytes` — the per-cluster query-id lists are written
    ///   once and read once, `2 · Σ|W_q| · 3`.
    /// * `rerank_candidate_bytes` / `rerank_vector_bytes` — two-phase
    ///   plans only: survivor records spilled + filled and candidate
    ///   vectors fetched at per-query precision (see
    ///   [`crate::RerankStage`]).
    /// * `result_bytes` — `B·k` final records; for a two-phase plan the
    ///   final `k` is the stage's (the first pass's over-fetched heap is
    ///   priced as candidate records instead).
    ///
    /// # Panics
    ///
    /// Panics if a carried re-rank stage is inconsistent with the
    /// workload's batch size.
    pub fn price(&self, workload: &BatchWorkload, plan: &BatchPlan) -> TrafficReport {
        let s = &workload.shape;
        let ebpv = s.encoded_bytes_per_vector() as u64;
        let code_bytes: u64 = plan
            .rounds
            .iter()
            .filter(|r| r.fetches_codes)
            .map(|r| r.cluster_size as u64 * ebpv)
            .sum();
        let (fills, spills) = plan.total_topk_units();
        let (rerank_candidate_bytes, rerank_vector_bytes, result_k) = match &plan.rerank {
            Some(stage) => {
                stage.assert_valid(workload.b());
                (
                    stage.candidate_record_bytes(),
                    stage.vector_fetch_bytes(s.d),
                    stage.k,
                )
            }
            None => (0, 0, s.k),
        };
        TrafficReport {
            centroid_bytes: s.centroid_bytes(),
            cluster_meta_bytes: CLUSTER_META_BYTES * plan.clusters_fetched(),
            code_bytes,
            topk_spill_bytes: spills * plan.spill_unit_bytes,
            topk_fill_bytes: fills * plan.spill_unit_bytes,
            query_list_bytes: 2 * workload.total_visits() * QUERY_ID_BYTES,
            rerank_candidate_bytes,
            rerank_vector_bytes,
            result_bytes: (workload.b() * result_k) as u64 * self.params.topk_record_bytes as u64,
        }
    }

    /// Like [`TrafficModel::price`], but additionally splits `code_bytes`
    /// across the two storage tiers by threading the plan's fetches
    /// through `cache` — the cluster-cache policy state of the index the
    /// plan will run against.
    ///
    /// Each fetching round is offered to the cache with the cluster's
    /// encoded bytes and its *total* visit count in this plan (the
    /// cluster-major schedule scores every visitor while the block is
    /// buffered, so the whole batch's visits inform admission). `cache`
    /// is advanced in place; to *predict* without committing, pass a
    /// clone of the runtime cache's state — the runtime makes the
    /// identical decisions in the identical order during execution, so
    /// the predicted [`TierTraffic`] equals the measured one exactly.
    ///
    /// The returned report is identical to [`TrafficModel::price`]'s; the
    /// tier split satisfies
    /// `cache_code_bytes + disk_code_bytes == code_bytes`.
    pub fn price_tiered(
        &self,
        workload: &BatchWorkload,
        plan: &BatchPlan,
        cache: &mut ClusterCacheSim,
    ) -> (TrafficReport, TierTraffic) {
        let report = self.price(workload, plan);
        let ebpv = workload.shape.encoded_bytes_per_vector() as u64;
        // Total visitors per cluster across the plan (a split cluster's
        // later rounds reuse the buffered block of its fetching round).
        let mut visits = vec![0u64; workload.cluster_sizes.len()];
        for r in &plan.rounds {
            visits[r.cluster] += r.queries.len() as u64;
        }
        let mut tier = TierTraffic::default();
        for r in plan.rounds.iter().filter(|r| r.fetches_codes) {
            let bytes = r.cluster_size as u64 * ebpv;
            let outcome = cache.touch(r.cluster, bytes, visits[r.cluster]);
            tier.record(&outcome, bytes);
        }
        debug_assert_eq!(tier.total_code_bytes(), report.code_bytes);
        (report, tier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan, ScmAllocation};
    use crate::workload::SearchShape;
    use anna_vector::Metric;

    #[test]
    fn traffic_total_sums_fields() {
        let t = TrafficReport {
            centroid_bytes: 1,
            cluster_meta_bytes: 2,
            code_bytes: 3,
            topk_spill_bytes: 4,
            topk_fill_bytes: 7,
            query_list_bytes: 5,
            rerank_candidate_bytes: 8,
            rerank_vector_bytes: 9,
            result_bytes: 6,
        };
        assert_eq!(t.total(), 45);
    }

    #[test]
    fn price_accounts_each_component_exactly() {
        let params = PlanParams::default();
        // One query visiting two 10-vector clusters; k=1000, m=64,
        // k*=256 -> 64 B per vector.
        let w = BatchWorkload {
            shape: SearchShape {
                d: 128,
                m: 64,
                kstar: 256,
                metric: Metric::L2,
                num_clusters: 3,
                k: 1000,
            },
            cluster_sizes: vec![10, 10, 10],
            visits: vec![vec![0, 2]],
        };
        let p = plan(&params, &w, ScmAllocation::InterQuery);
        let t = TrafficModel::new(params).price(&w, &p);
        assert_eq!(t.centroid_bytes, 2 * 128 * 3);
        assert_eq!(t.cluster_meta_bytes, 2 * CLUSTER_META_BYTES);
        assert_eq!(t.code_bytes, 2 * 10 * 64);
        // Two rounds for the query: one spill after round 1, one fill at
        // round 2, 1000 records · 5 B each.
        assert_eq!(t.topk_spill_bytes, 5000);
        assert_eq!(t.topk_fill_bytes, 5000);
        assert_eq!(t.query_list_bytes, 2 * 2 * QUERY_ID_BYTES);
        assert_eq!(t.result_bytes, 1000 * 5);
    }

    #[test]
    fn rerank_stage_prices_candidates_vectors_and_final_k() {
        use crate::rerank::{RerankMode, RerankPolicy, RerankPrecision};
        let params = PlanParams::default();
        // One query over two 10-vector clusters, first-pass heap k=40
        // (alpha=4 over final k=10), pool=20 -> 20 candidates.
        let w = BatchWorkload {
            shape: SearchShape {
                d: 128,
                m: 64,
                kstar: 256,
                metric: Metric::L2,
                num_clusters: 3,
                k: 40,
            },
            cluster_sizes: vec![10, 10, 10],
            visits: vec![vec![0, 2]],
        };
        let policy = RerankPolicy {
            mode: RerankMode::Fixed(RerankPrecision::F16),
            alpha: 4,
        };
        let base = plan(&params, &w, ScmAllocation::InterQuery);
        let two_phase =
            base.clone()
                .with_rerank(policy.stage(&w, 10, params.topk_record_bytes as u64));
        let single = TrafficModel::new(params).price(&w, &base);
        let t = TrafficModel::new(params).price(&w, &two_phase);
        // First-pass components are untouched by the stage.
        assert_eq!(t.centroid_bytes, single.centroid_bytes);
        assert_eq!(t.code_bytes, single.code_bytes);
        assert_eq!(t.topk_spill_bytes, single.topk_spill_bytes);
        assert_eq!(t.topk_fill_bytes, single.topk_fill_bytes);
        // 20 survivors: spilled + filled records, f16 vector fetches.
        assert_eq!(t.rerank_candidate_bytes, 2 * 20 * 5);
        assert_eq!(t.rerank_vector_bytes, 20 * 128 * 2);
        // Results price the final k, not the over-fetched heap.
        assert_eq!(t.result_bytes, 10 * 5);
        assert_eq!(single.result_bytes, 40 * 5);
    }

    #[test]
    fn tiered_price_splits_code_bytes_and_matches_base_report() {
        let params = PlanParams::default();
        // Two queries over three 10-vector clusters at 64 B/vector.
        let w = BatchWorkload {
            shape: SearchShape {
                d: 128,
                m: 64,
                kstar: 256,
                metric: Metric::L2,
                num_clusters: 3,
                k: 10,
            },
            cluster_sizes: vec![10, 10, 10],
            visits: vec![vec![0, 1], vec![1, 2]],
        };
        let p = plan(&params, &w, ScmAllocation::InterQuery);
        let model = TrafficModel::new(params);
        let base = model.price(&w, &p);
        // Capacity for exactly one 640 B block: the first fetch admits,
        // the rest bypass (equal or lower counts), all from disk.
        let mut cold = crate::ClusterCacheSim::new(640);
        let (report, tier) = model.price_tiered(&w, &p, &mut cold);
        assert_eq!(report, base);
        assert_eq!(tier.total_code_bytes(), base.code_bytes);
        assert_eq!(tier.disk_code_bytes, base.code_bytes);
        assert_eq!(tier.cache_hits, 0);
        // Re-pricing the same plan against the warmed state hits on the
        // resident block.
        let (_, warm) = model.price_tiered(&w, &p, &mut cold);
        assert!(warm.cache_hits >= 1);
        assert_eq!(
            warm.cache_code_bytes + warm.disk_code_bytes,
            base.code_bytes
        );
        // An effectively infinite cache serves everything from cache on
        // the second pass.
        let mut big = crate::ClusterCacheSim::new(u64::MAX);
        model.price_tiered(&w, &p, &mut big);
        let (_, all_cached) = model.price_tiered(&w, &p, &mut big);
        assert_eq!(all_cached.disk_code_bytes, 0);
        assert_eq!(all_cached.cache_code_bytes, base.code_bytes);
    }

    #[test]
    fn tiered_price_counts_split_cluster_visits_once() {
        // 40 queries on one cluster split into 3 rounds: one fetch, visit
        // count 40, and the tier split covers the single fetch only.
        let params = PlanParams::default();
        let w = BatchWorkload {
            shape: SearchShape {
                d: 128,
                m: 64,
                kstar: 256,
                metric: Metric::L2,
                num_clusters: 1,
                k: 10,
            },
            cluster_sizes: vec![100],
            visits: (0..40).map(|_| vec![0]).collect(),
        };
        let p = plan(&params, &w, ScmAllocation::InterQuery);
        assert!(p.rounds.len() > 1);
        let mut sim = crate::ClusterCacheSim::new(u64::MAX);
        let (report, tier) = TrafficModel::new(params).price_tiered(&w, &p, &mut sim);
        assert_eq!(tier.cache_misses, 1);
        assert_eq!(tier.disk_code_bytes, report.code_bytes);
        assert_eq!(sim.visit_count(0), 40);
    }

    #[test]
    fn empty_batch_prices_only_centroids() {
        let params = PlanParams::default();
        let w = BatchWorkload {
            shape: SearchShape {
                d: 32,
                m: 4,
                kstar: 16,
                metric: Metric::L2,
                num_clusters: 8,
                k: 10,
            },
            cluster_sizes: vec![5; 8],
            visits: vec![],
        };
        let p = plan(&params, &w, ScmAllocation::InterQuery);
        let t = TrafficModel::new(params).price(&w, &p);
        assert_eq!(t.total(), t.centroid_bytes);
    }
}
