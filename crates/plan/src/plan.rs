//! Batch planning for the memory-traffic optimization (Section IV).
//!
//! After cluster filtering, the optimized schedule processes clusters in
//! series; each cluster's codes are fetched once and scored against every
//! query visiting it. With `N_SCM` similarity-computation modules, each
//! *round* runs up to `N_SCM / g` queries in parallel, where `g` is the
//! number of SCMs allocated per query:
//!
//! * `g = 1` (**inter-query**): each SCM runs a different query over the
//!   full cluster (the EFM broadcasts the same codes to all SCMs).
//! * `g > 1` (**intra-query**): a query's cluster scan is split over `g`
//!   SCMs, each scanning `|C_i|/g` codes with its own partial top-k unit
//!   (merged at the end). Lower latency, more top-k spill traffic.
//!
//! The paper's guidance: expect `B·|W|/|C|` queries per cluster and size
//! `g = N_SCM / expected` ("for ANNA with 16 SCMs, we allocate four SCMs to
//! a single query" when 4 queries are expected per cluster).

use crate::tiles::{crossbar_tiles, ClusterTile};
use crate::workload::BatchWorkload;

/// The hardware knobs planning depends on — deliberately a small value
/// type rather than the full accelerator config, so the plan layer stays
/// free of dependency cycles (`anna-core` derives one via
/// `AnnaConfig::plan_params`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanParams {
    /// Number of similarity-computation modules, `N_SCM`.
    pub n_scm: usize,
    /// Hardware top-k capacity per unit (the paper's P-Heap holds 1000
    /// records); spill records are sized by `min(k, capacity)`.
    pub topk_capacity: usize,
    /// Bytes per top-k record (the paper packs id + score into 5 B).
    pub topk_record_bytes: usize,
}

impl Default for PlanParams {
    /// The paper configuration: 16 SCMs, 1000-entry top-k units, 5-byte
    /// records.
    fn default() -> Self {
        Self {
            n_scm: 16,
            topk_capacity: 1000,
            topk_record_bytes: 5,
        }
    }
}

/// How SCMs are assigned to queries within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScmAllocation {
    /// One SCM per query; `N_SCM` queries per round.
    InterQuery,
    /// `scm_per_query` SCMs per query; `N_SCM / scm_per_query` queries per
    /// round.
    IntraQuery {
        /// SCMs allocated to each query (must divide `N_SCM`).
        scm_per_query: usize,
    },
    /// Pick `g` from the expected queries per cluster (`B·|W|/|C|`), per
    /// Section IV-A.
    Auto,
}

impl ScmAllocation {
    /// Resolves to a concrete `g` (SCMs per query) for a workload on a
    /// machine with `n_scm` similarity-computation modules.
    ///
    /// # Panics
    ///
    /// Panics if an explicit `scm_per_query` is zero, exceeds `n_scm`, or
    /// does not divide it.
    pub fn resolve(self, n_scm: usize, workload: &BatchWorkload) -> usize {
        match self {
            ScmAllocation::InterQuery => 1,
            ScmAllocation::IntraQuery { scm_per_query } => {
                assert!(
                    scm_per_query > 0 && scm_per_query <= n_scm,
                    "scm_per_query {scm_per_query} out of range"
                );
                assert!(
                    n_scm.is_multiple_of(scm_per_query),
                    "scm_per_query {scm_per_query} must divide N_SCM {n_scm}"
                );
                scm_per_query
            }
            ScmAllocation::Auto => {
                let b = workload.b().max(1) as f64;
                let w = workload.visits.iter().map(|v| v.len() as f64).sum::<f64>() / b;
                let expected = (b * w / workload.cluster_sizes.len().max(1) as f64).max(1.0);
                let mut g = (n_scm as f64 / expected).round().max(1.0) as usize;
                g = g.min(n_scm);
                // Snap to the largest divisor of N_SCM not exceeding g.
                while !n_scm.is_multiple_of(g) {
                    g -= 1;
                }
                g
            }
        }
    }
}

/// One scheduled round: a set of queries scored against one cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// Cluster id.
    pub cluster: usize,
    /// Cluster size `|C_i|`.
    pub cluster_size: usize,
    /// Queries processed in this round (`≤ N_SCM / g`).
    pub queries: Vec<usize>,
    /// Whether this round is the first to touch its cluster (and therefore
    /// pays the code fetch; later rounds reuse the on-chip buffer).
    pub fetches_codes: bool,
}

/// A full cluster-major batch plan: the IR every execution backend
/// consumes (software batch engine, analytic and event-driven timing
/// engines, functional accelerator).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPlan {
    /// SCMs per query `g`.
    pub scm_per_query: usize,
    /// Queries per round (`N_SCM / g`); `0` means unbounded, one round
    /// per visited cluster — the plan both software IVF-PQ engines run
    /// (see [`BatchPlan::probe_ordered`]).
    pub queries_per_round: usize,
    /// Bytes moved per intermediate top-k spill (or fill) of one query:
    /// `min(k, capacity) · g · record_bytes` (Section IV-C).
    pub spill_unit_bytes: u64,
    /// The rounds, in execution order (cluster-major).
    pub rounds: Vec<Round>,
    /// Optional second phase: re-rank the first pass's survivors at higher
    /// precision (see [`crate::RerankStage`]). `None` plans are single
    /// phase; when present, `shape.k` is the *first-pass* heap size and
    /// the stage carries the final `k`.
    pub rerank: Option<crate::RerankStage>,
}

impl BatchPlan {
    /// Total encoded vectors scanned per SCM-group across all rounds
    /// (timing-relevant work).
    pub fn total_scan_work(&self) -> u64 {
        self.rounds.iter().map(|r| r.cluster_size as u64).sum()
    }

    /// Number of distinct cluster fetches (each loads the cluster's codes
    /// once — at most `|C|`, versus `B·|W|` in the conventional schedule).
    pub fn clusters_fetched(&self) -> u64 {
        self.rounds.iter().filter(|r| r.fetches_codes).count() as u64
    }

    /// Per-round intermediate top-k `(fills, spills)` — how many queries
    /// in each round read partial top-k state back from memory and how
    /// many write it out (Section IV-C).
    ///
    /// A query *fills* at the start of every round after its first, and
    /// *spills* at the end of every round before its last; queries whose
    /// whole batch fits one round never touch memory. The totals are
    /// therefore `(rounds_q − 1)` fills and spills per query — invariant
    /// under round order, so the software engine's measured bytes match
    /// whatever order its worker pool scores tiles in.
    pub fn round_topk_units(&self) -> Vec<(u64, u64)> {
        let nq = self
            .rounds
            .iter()
            .flat_map(|r| r.queries.iter())
            .max()
            .map_or(0, |&m| m + 1);
        let mut rounds_per_query = vec![0u32; nq];
        for r in &self.rounds {
            for &q in &r.queries {
                rounds_per_query[q] += 1;
            }
        }
        let mut seen = vec![0u32; nq];
        self.rounds
            .iter()
            .map(|r| {
                let mut fills = 0u64;
                let mut spills = 0u64;
                for &q in &r.queries {
                    if seen[q] > 0 {
                        fills += 1;
                    }
                    if seen[q] + 1 < rounds_per_query[q] {
                        spills += 1;
                    }
                    seen[q] += 1;
                }
                (fills, spills)
            })
            .collect()
    }

    /// Total intermediate top-k `(fills, spills)` across the plan: the sums
    /// of [`BatchPlan::round_topk_units`], which are equal, `Σ_q (rounds_q
    /// − 1)` over the queries the plan visits — every visit but each
    /// query's first. Counted directly: the visits, less the distinct
    /// queries (one bit set over the query ids).
    pub fn total_topk_units(&self) -> (u64, u64) {
        let nq = self
            .rounds
            .iter()
            .flat_map(|r| r.queries.iter())
            .max()
            .map_or(0, |&m| m + 1);
        let mut seen = vec![0u64; nq.div_ceil(64)];
        let (mut visits, mut queries) = (0u64, 0u64);
        for &q in self.rounds.iter().flat_map(|r| &r.queries) {
            let (word, bit) = (q / 64, 1u64 << (q % 64));
            queries += u64::from(seen[word] & bit == 0);
            seen[word] |= bit;
            visits += 1;
        }
        (visits - queries, visits - queries)
    }

    /// Builds a plan directly from per-cluster visitor lists with `g = 1`,
    /// cutting each list into rounds of at most `queries_per_round`
    /// queries, in cluster-id order. The sharded engine passes `0` (one
    /// round per visited cluster: a worker scores a cluster's whole
    /// visitor list) and a spill unit that prices `k`-record software
    /// heaps; the batch engine runs the same rounds in probe-rank order
    /// ([`BatchPlan::probe_ordered`]).
    ///
    /// The bound moves no priced byte: each `(query, cluster)` visit lands
    /// in exactly one round, only a cluster's first round fetches, and a
    /// query visits a cluster once, so it crosses the same number of
    /// rounds however the cluster's visitor list is cut.
    pub fn from_visitors(
        visiting: &[Vec<usize>],
        cluster_sizes: &[usize],
        queries_per_round: usize,
        spill_unit_bytes: u64,
    ) -> BatchPlan {
        BatchPlan {
            scm_per_query: 1,
            queries_per_round,
            spill_unit_bytes,
            rounds: rounds_from_tiles(crossbar_tiles(visiting, queries_per_round), cluster_sizes),
            rerank: None,
        }
    }

    /// The software batch engine's schedule for `workload`: one round per
    /// visited cluster (`g = 1`, an unbounded query group, each round's
    /// queries ascending), ordered by the **mean probe rank** of the
    /// cluster's visitors, ties to the lower cluster id.
    ///
    /// `workload.visits[q]` is query `q`'s scope, nearest cluster first,
    /// so a cluster's probe rank for `q` is its position there. A top-k
    /// unit admits only candidates that beat its running `k`-th best
    /// (Section III-B(4)), so a query that meets its nearest clusters
    /// first raises its threshold early and is offered fewer candidates by
    /// the farther ones. For one query the order is its scope; for a batch
    /// it serves, on average, each cluster's visitors' nearer probes first.
    /// Mean ranks are compared exactly, as `sum_a · n_b` against
    /// `sum_b · n_a`.
    ///
    /// The rounds are exactly [`BatchPlan::from_visitors`]'s with a bound
    /// of `0`, only reordered, and no priced byte depends on round order:
    /// every cluster is fetched by its one round, and a query's spill/fill
    /// count depends only on how many rounds it joins.
    ///
    /// # Panics
    ///
    /// Panics if a visit names a cluster outside `workload.cluster_sizes`.
    pub fn probe_ordered(workload: &BatchWorkload, spill_unit_bytes: u64) -> BatchPlan {
        let sizes = &workload.cluster_sizes;
        // (rank sum, visitors) per cluster.
        let mut tally = vec![(0u64, 0u64); sizes.len()];
        for scope in &workload.visits {
            for (rank, &cluster) in scope.iter().enumerate() {
                tally[cluster].0 += rank as u64;
                tally[cluster].1 += 1;
            }
        }
        let mut rounds: Vec<Round> = (0..sizes.len())
            .filter(|&c| tally[c].1 > 0)
            .map(|cluster| Round {
                cluster,
                cluster_size: sizes[cluster],
                queries: Vec::with_capacity(tally[cluster].1 as usize),
                fetches_codes: true,
            })
            .collect();
        rounds.sort_unstable_by(|a, b| {
            let ((sum_a, n_a), (sum_b, n_b)) = (tally[a.cluster], tally[b.cluster]);
            (sum_a * n_b)
                .cmp(&(sum_b * n_a))
                .then(a.cluster.cmp(&b.cluster))
        });
        // The tally's first field now names each visited cluster's round.
        for (i, round) in rounds.iter().enumerate() {
            tally[round.cluster].0 = i as u64;
        }
        for (q, scope) in workload.visits.iter().enumerate() {
            for &cluster in scope {
                rounds[tally[cluster].0 as usize].queries.push(q);
            }
        }
        BatchPlan {
            scm_per_query: 1,
            queries_per_round: 0,
            spill_unit_bytes,
            rounds,
            rerank: None,
        }
    }

    /// Attaches a re-rank stage, turning this into a two-phase plan.
    pub fn with_rerank(mut self, stage: crate::RerankStage) -> BatchPlan {
        self.rerank = Some(stage);
        self
    }
}

fn rounds_from_tiles(tiles: Vec<ClusterTile>, cluster_sizes: &[usize]) -> Vec<Round> {
    tiles
        .into_iter()
        .map(|tile| Round {
            cluster_size: cluster_sizes[tile.cluster],
            cluster: tile.cluster,
            queries: tile.queries,
            fetches_codes: tile.fetches_codes,
        })
        .collect()
}

/// Plans the cluster-major schedule for a batch workload.
///
/// The work assignment is delegated to [`crossbar_tiles`] with a
/// query-group bound of `N_SCM / g` — the one cut every backend makes (the
/// software engines make it unbounded), so the timed schedule and the
/// functional reference agree on work placement by construction. Clusters
/// with no visitors are skipped entirely; clusters with more visitors than
/// fit a round get multiple consecutive rounds (codes stay buffered, so
/// only the first round fetches).
///
/// # Panics
///
/// Panics if `g` does not divide `params.n_scm` or any visit references an
/// out-of-range cluster.
pub fn plan(params: &PlanParams, workload: &BatchWorkload, alloc: ScmAllocation) -> BatchPlan {
    let g = alloc.resolve(params.n_scm, workload);
    let queries_per_round = (params.n_scm / g).max(1);
    let spill_unit_bytes =
        (workload.shape.k.min(params.topk_capacity) * g * params.topk_record_bytes) as u64;
    let visitors = workload.visitors_per_cluster();
    BatchPlan {
        scm_per_query: g,
        queries_per_round,
        spill_unit_bytes,
        rounds: rounds_from_tiles(
            crossbar_tiles(&visitors, queries_per_round),
            &workload.cluster_sizes,
        ),
        rerank: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SearchShape;
    use anna_vector::Metric;

    fn shape(num_clusters: usize) -> SearchShape {
        SearchShape {
            d: 128,
            m: 64,
            kstar: 256,
            metric: Metric::L2,
            num_clusters,
            k: 1000,
        }
    }

    fn workload(b: usize, w: usize, c: usize) -> BatchWorkload {
        BatchWorkload {
            shape: shape(c),
            cluster_sizes: vec![100; c],
            visits: (0..b)
                .map(|q| (0..w).map(|i| (q + i) % c).collect())
                .collect(),
        }
    }

    #[test]
    fn auto_matches_paper_example() {
        // B=1000, |C|=10000, |W|=40 -> 4 queries/cluster -> g = 16/4 = 4.
        let w = workload(1000, 40, 10_000);
        assert_eq!(ScmAllocation::Auto.resolve(16, &w), 4);
    }

    #[test]
    fn auto_saturates_to_inter_query_when_crowded() {
        // Many queries per cluster -> g = 1.
        let w = workload(1000, 40, 100);
        assert_eq!(ScmAllocation::Auto.resolve(16, &w), 1);
    }

    #[test]
    fn auto_uses_all_scms_when_sparse() {
        let w = workload(2, 2, 10_000);
        assert_eq!(ScmAllocation::Auto.resolve(16, &w), 16);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn intra_query_must_divide_nscm() {
        let w = workload(10, 2, 100);
        ScmAllocation::IntraQuery { scm_per_query: 3 }.resolve(16, &w);
    }

    #[test]
    fn plan_covers_every_visit_exactly_once() {
        let params = PlanParams::default();
        let w = workload(50, 8, 64);
        let plan = plan(&params, &w, ScmAllocation::InterQuery);
        let mut count = vec![0usize; 50];
        for r in &plan.rounds {
            for &q in &r.queries {
                assert!(w.visits[q].contains(&r.cluster));
                count[q] += 1;
            }
        }
        assert!(
            count.iter().all(|&c| c == 8),
            "every query must appear W times"
        );
    }

    #[test]
    fn only_first_round_per_cluster_fetches() {
        let params = PlanParams::default();
        // 40 queries all visiting cluster 0 -> ceil(40/16) = 3 rounds.
        let w = BatchWorkload {
            shape: shape(4),
            cluster_sizes: vec![100, 0, 0, 0],
            visits: (0..40).map(|_| vec![0]).collect(),
        };
        let plan = plan(&params, &w, ScmAllocation::InterQuery);
        assert_eq!(plan.rounds.len(), 3);
        assert_eq!(plan.clusters_fetched(), 1);
        assert!(plan.rounds[0].fetches_codes);
        assert!(!plan.rounds[1].fetches_codes);
        assert!(!plan.rounds[2].fetches_codes);
    }

    #[test]
    fn empty_clusters_are_skipped() {
        let params = PlanParams::default();
        let w = BatchWorkload {
            shape: shape(3),
            cluster_sizes: vec![10, 10, 10],
            visits: vec![vec![2]],
        };
        let plan = plan(&params, &w, ScmAllocation::InterQuery);
        assert_eq!(plan.rounds.len(), 1);
        assert_eq!(plan.rounds[0].cluster, 2);
    }

    #[test]
    fn intra_query_reduces_queries_per_round() {
        let params = PlanParams::default();
        let w = workload(32, 4, 16);
        let s = plan(&params, &w, ScmAllocation::IntraQuery { scm_per_query: 8 });
        assert_eq!(s.queries_per_round, 2);
        for r in &s.rounds {
            assert!(r.queries.len() <= 2);
        }
    }

    #[test]
    fn spill_unit_prices_g_partial_heaps() {
        let params = PlanParams::default();
        let w = workload(32, 4, 16);
        let inter = plan(&params, &w, ScmAllocation::InterQuery);
        assert_eq!(inter.spill_unit_bytes, 1000 * 5);
        let intra = plan(&params, &w, ScmAllocation::IntraQuery { scm_per_query: 4 });
        assert_eq!(intra.spill_unit_bytes, 1000 * 4 * 5);
        // k above hardware capacity is clamped to the P-Heap size.
        let big_k = BatchWorkload {
            shape: SearchShape {
                k: 5000,
                ..shape(16)
            },
            ..w
        };
        let clamped = plan(&params, &big_k, ScmAllocation::InterQuery);
        assert_eq!(clamped.spill_unit_bytes, 1000 * 5);
    }

    #[test]
    fn topk_units_follow_rounds_per_query() {
        // 40 queries all on cluster 0 -> 3 rounds of 16/16/8, but each
        // query appears in exactly one round: no spills, no fills.
        let params = PlanParams::default();
        let one_round_each = BatchWorkload {
            shape: shape(4),
            cluster_sizes: vec![100, 0, 0, 0],
            visits: (0..40).map(|_| vec![0]).collect(),
        };
        let p = plan(&params, &one_round_each, ScmAllocation::InterQuery);
        assert_eq!(p.total_topk_units(), (0, 0));

        // One query visiting 3 clusters: fills at rounds 2..3, spills at
        // rounds 1..2.
        let multi = BatchWorkload {
            shape: shape(3),
            cluster_sizes: vec![10, 10, 10],
            visits: vec![vec![0, 1, 2]],
        };
        let p = plan(&params, &multi, ScmAllocation::InterQuery);
        assert_eq!(p.round_topk_units(), vec![(0, 1), (1, 1), (1, 0)]);
        assert_eq!(p.total_topk_units(), (2, 2));
    }

    /// [`BatchPlan::total_topk_units`] counts directly what summing
    /// [`BatchPlan::round_topk_units`] gives, on rounds of unordered,
    /// repeated and absent query ids, for batches of a few bit-set words
    /// and batches of over a hundred.
    #[test]
    fn total_topk_units_is_the_sum_of_round_units() {
        anna_testkit::forall("total top-k units == summed round units", 64, |rng| {
            let nq = if rng.bool() {
                rng.usize(1..200)
            } else {
                rng.usize(4_000..9_000)
            };
            let rounds = (0..rng.usize(0..40))
                .map(|cluster| Round {
                    cluster,
                    cluster_size: 10,
                    queries: (0..rng.usize(0..300)).map(|_| rng.usize(0..nq)).collect(),
                    fetches_codes: true,
                })
                .collect();
            let plan = BatchPlan {
                scm_per_query: 1,
                queries_per_round: 0,
                spill_unit_bytes: 1,
                rounds,
                rerank: None,
            };
            let summed = plan
                .round_topk_units()
                .into_iter()
                .fold((0, 0), |(f, s), (rf, rs)| (f + rf, s + rs));
            assert_eq!(plan.total_topk_units(), summed);
        });
    }

    #[test]
    fn query_group_bound_moves_no_priced_byte() {
        // Cutting a cluster's visitor list into rounds leaves every query
        // in exactly one of that cluster's rounds and only the first round
        // fetching, so any bound prices like one round per cluster.
        let model = crate::TrafficModel::new(PlanParams::default());
        anna_testkit::forall("query-group bound moves no priced byte", 64, |rng| {
            let clusters = rng.usize(2..12);
            let b = rng.usize(1..24);
            // Cluster 0 is never visited; the last is visited by query 0
            // alone.
            let visits: Vec<Vec<usize>> = (0..b)
                .map(|q| {
                    let mut v: Vec<usize> = (1..clusters - 1).filter(|_| rng.bool()).collect();
                    if q == 0 {
                        v.push(clusters - 1);
                    }
                    v
                })
                .collect();
            let w = BatchWorkload {
                shape: SearchShape {
                    k: rng.usize(1..100),
                    ..shape(clusters)
                },
                cluster_sizes: (0..clusters).map(|_| rng.usize(0..3000)).collect(),
                visits,
            };
            let visitors = w.visitors_per_cluster();
            let unit = rng.u64(1..500);
            let whole = BatchPlan::from_visitors(&visitors, &w.cluster_sizes, 0, unit);
            for q in [1, 2, 3, 7] {
                let cut = BatchPlan::from_visitors(&visitors, &w.cluster_sizes, q, unit);
                assert_eq!(model.price(&w, &cut), model.price(&w, &whole), "q={q}");
                assert_eq!(cut.clusters_fetched(), whole.clusters_fetched(), "q={q}");
                assert_eq!(cut.total_topk_units(), whole.total_topk_units(), "q={q}");
            }
        });
    }

    /// The cluster order of `visits`' probe-ordered plan.
    fn probe_order(visits: Vec<Vec<usize>>, clusters: usize) -> Vec<usize> {
        let w = BatchWorkload {
            shape: shape(clusters),
            cluster_sizes: vec![10; clusters],
            visits,
        };
        let plan = BatchPlan::probe_ordered(&w, 5);
        plan.rounds.iter().map(|r| r.cluster).collect()
    }

    #[test]
    fn probe_order_is_the_scope_for_one_query() {
        assert_eq!(probe_order(vec![vec![5, 0, 7, 2]], 8), vec![5, 0, 7, 2]);
        assert!(probe_order(Vec::new(), 8).is_empty());
    }

    #[test]
    fn probe_order_sorts_by_mean_rank_then_cluster_id() {
        // Mean ranks: cluster 0 → (1 + 0) / 2, cluster 1 → 0, cluster 2 →
        // (0 + 1) / 2, cluster 3 → 2, cluster 4 unvisited. Clusters 0 and
        // 2 tie at 1/2 and go lower id first.
        let visits = vec![vec![2, 0, 3], vec![0, 2], vec![1]];
        assert_eq!(probe_order(visits, 5), vec![1, 0, 2, 3]);
    }

    #[test]
    fn probe_ordered_rounds_are_the_bound_0_rounds_reordered() {
        let model = crate::TrafficModel::new(PlanParams::default());
        anna_testkit::forall("probe-ordered rounds", 64, |rng| {
            let clusters = rng.usize(1..12);
            let visits: Vec<Vec<usize>> = (0..rng.usize(0..24))
                .map(|_| {
                    let mut scope: Vec<usize> = (0..clusters).filter(|_| rng.bool()).collect();
                    for i in (1..scope.len()).rev() {
                        scope.swap(i, rng.usize(0..i + 1));
                    }
                    scope
                })
                .collect();
            let w = BatchWorkload {
                shape: shape(clusters),
                cluster_sizes: (0..clusters).map(|_| rng.usize(0..3000)).collect(),
                visits,
            };
            let unit = rng.u64(1..500);
            let ordered = BatchPlan::probe_ordered(&w, unit);
            let by_id =
                BatchPlan::from_visitors(&w.visitors_per_cluster(), &w.cluster_sizes, 0, unit);
            let mut resorted = ordered.clone();
            resorted.rounds.sort_by_key(|r| r.cluster);
            assert_eq!(resorted, by_id);
            assert_eq!(model.price(&w, &ordered), model.price(&w, &by_id));
        });
    }

    #[test]
    fn from_visitors_matches_planned_rounds() {
        let params = PlanParams::default();
        let w = workload(20, 3, 8);
        let planned = plan(&params, &w, ScmAllocation::InterQuery);
        let manual = BatchPlan::from_visitors(
            &w.visitors_per_cluster(),
            &w.cluster_sizes,
            planned.queries_per_round,
            planned.spill_unit_bytes,
        );
        assert_eq!(planned, manual);
    }
}
