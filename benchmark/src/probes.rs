//! Layer probes: inside `execute` nothing is visible from outside, so
//! the traced run replays the workload's own plan visit list through the
//! layer primitives in isolation and times each.
//!
//! Every probe also re-derives an output the engine already produced
//! (results, cache counters), so the run can check that the probes
//! replayed the work the engine did and not some other work.

use crate::workloads::Replay;
use anna_index::kernels;
use anna_index::{IvfPqIndex, LutPrecision, SearchParams, TieredIndex};
use anna_plan::{EnginePlan, RerankPrecision, TierTraffic};
use anna_vector::exact::{rescore_subset_into, RescoreScratch};
use anna_vector::{Neighbor, TopK, VectorSet};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Default)]
pub struct ClusterMajorProbe {
    /// `IvfPqIndex::filter_clusters`, one call per query.
    pub filter_ns: u64,
    pub filter_dists: u64,
    /// `IvfPqIndex::build_lut`, once per (query, visited cluster).
    pub lut_tables: u64,
    pub lut_ns: u64,
    /// `kernels::score_all` per visit with the prebuilt LUT.
    pub scan_codes: u64,
    pub scan_code_bytes: u64,
    pub scan_ns: u64,
    /// `kernels::scan` into a `TopK` at the plan's `k_scan`; selection is
    /// this minus `scan_ns`.
    pub scan_select_ns: u64,
    pub scanned: u64,
    pub pruned: u64,
    /// `rescore_subset_into` on each query's first-pass survivors.
    pub rerank_candidates: u64,
    pub rerank_f32_candidates: u64,
    pub rerank_ns: u64,
    /// `(request id, results)` as the probes derived them.
    pub results: Vec<(usize, Vec<Neighbor>)>,
}

fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Replays cluster-major plans through filter → LUT → scan → select →
/// re-rank. `rerank_db` is read only for plans that carry a re-rank stage.
pub fn cluster_major(
    index: &IvfPqIndex,
    rerank_db: &VectorSet,
    pool: &VectorSet,
    replay: &[Replay],
) -> ClusterMajorProbe {
    let mut probe = ClusterMajorProbe::default();
    let mut scratch = RescoreScratch::new();
    for batch in replay {
        let EnginePlan::ClusterMajor { workload, plan } = &batch.plan else {
            continue;
        };
        let params = SearchParams {
            nprobe: 0,
            k: workload.shape.k,
            lut_precision: LutPrecision::F32,
        };
        let code_bytes = workload.shape.encoded_bytes_per_vector() as u64;

        for (&row, visits) in batch.rows.iter().zip(&workload.visits) {
            let start = Instant::now();
            black_box(index.filter_clusters(pool.row(row), visits.len()));
            probe.filter_ns += ns_since(start);
            probe.filter_dists += index.num_clusters() as u64;
        }

        let mut tops: Vec<TopK> = batch
            .rows
            .iter()
            .map(|_| TopK::new(workload.shape.k))
            .collect();
        for round in &plan.rounds {
            let cluster = index.cluster(round.cluster);
            for &qi in &round.queries {
                let q = pool.row(batch.rows[qi]);
                let start = Instant::now();
                let lut = index.build_lut(q, round.cluster, &params);
                probe.lut_ns += ns_since(start);
                probe.lut_tables += 1;

                let start = Instant::now();
                black_box(kernels::score_all(&cluster.codes, &lut));
                probe.scan_ns += ns_since(start);
                probe.scan_codes += cluster.len() as u64;
                probe.scan_code_bytes += cluster.len() as u64 * code_bytes;

                let start = Instant::now();
                let tally = kernels::scan(&cluster.codes, &cluster.ids, &lut, &mut tops[qi]);
                probe.scan_select_ns += ns_since(start);
                probe.scanned += tally.scanned;
                probe.pruned += tally.pruned;
            }
        }

        for (qi, top) in tops.into_iter().enumerate() {
            let mut hits = top.into_sorted_vec();
            if let Some(stage) = &plan.rerank {
                let ids: Vec<u64> = hits.iter().map(|n| n.id).collect();
                let f32_vectors = stage.queries[qi].precision == RerankPrecision::F32;
                let start = Instant::now();
                if !ids.is_empty() {
                    rescore_subset_into(
                        pool.row(batch.rows[qi]),
                        &ids,
                        rerank_db,
                        index.metric(),
                        stage.k,
                        !f32_vectors,
                        &mut scratch,
                        &mut hits,
                    );
                }
                probe.rerank_ns += ns_since(start);
                probe.rerank_candidates += ids.len() as u64;
                probe.rerank_f32_candidates += if f32_vectors { ids.len() as u64 } else { 0 };
            }
            hits.truncate(batch.ks[qi]);
            probe.results.push((batch.request_ids[qi], hits));
        }
    }
    probe
}

#[derive(Default)]
pub struct TieredProbe {
    pub fetches: u64,
    pub fetch_ns: u64,
    /// The cache events the replay produced; must equal the engine's.
    pub counters: TierTraffic,
}

/// Replays the pass's cluster touch sequence through
/// `TieredIndex::fetch_cluster` on freshly opened (cold) shards.
pub fn tiered(
    paths: &[PathBuf],
    cache_bytes_per_shard: u64,
    replay: &[Replay],
) -> std::io::Result<TieredProbe> {
    let shards: Vec<TieredIndex> = paths
        .iter()
        .map(|path| TieredIndex::open(path, cache_bytes_per_shard))
        .collect::<std::io::Result<_>>()?;
    let mut probe = TieredProbe::default();
    for batch in replay {
        let EnginePlan::Sharded(sharded) = &batch.plan else {
            continue;
        };
        for (shard, (_, plan)) in shards.iter().zip(&sharded.per_shard) {
            for round in &plan.rounds {
                let start = Instant::now();
                let fetched = shard.fetch_cluster(round.cluster, round.queries.len() as u64)?;
                probe.fetch_ns += ns_since(start);
                probe.fetches += 1;
                black_box(&fetched.cluster);
            }
        }
    }
    for shard in &shards {
        probe.counters.accumulate(&shard.counters());
    }
    Ok(probe)
}
