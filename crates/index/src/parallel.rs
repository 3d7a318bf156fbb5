//! The one round loop behind every IVF-PQ engine in this crate.
//!
//! `execute_rounds` is the only place a priced schedule turns into
//! scans. It takes **lanes**: a `Lane` is an ordered slice of a plan's
//! [`Round`]s plus where that lane's clusters and centroids live — an
//! [`IvfPqIndex`](crate::ivf::IvfPqIndex)'s cluster array, a RAM shard's,
//! or a [`TieredIndex`] whose blocks are fetched through its cache.
//! Workers claim whole lanes off one atomic cursor (dynamic
//! self-scheduling, like ANNA's crossbar arbitrating SCM groups) and run
//! each lane serially in plan order:
//!
//! * [`BatchedScan`] passes one lane per round, so rounds are balanced
//!   across workers as they finish. Its plan orders the rounds by the
//!   mean probe rank of each cluster's visitors, ties to the lower
//!   cluster id ([`anna_plan::BatchPlan::probe_ordered`]), so a lone
//!   query meets its clusters nearest-first and the cursor hands them out
//!   in that order;
//! * [`ShardedIndex`] passes one lane per shard, its rounds in cluster-id
//!   order, so a tiered shard's cache sees the plan's touch sequence — the
//!   one [`anna_plan::TrafficModel::price_tiered`] priced — from exactly
//!   one worker, whatever the thread count.
//!
//! A round's visitors are taken in groups of up to four consecutive
//! queries where the scan kernel scores a group per pass over the rows
//! (the seeded visits under AVX-512: nibble codes in 4- and 8-byte rows
//! at `k* = 16`, byte codes in 8- and 16-byte rows at `k* = 256`; one
//! query per group elsewhere) — ANNA's
//! crossbar handing one fetched cluster block to every SCM of the query
//! group (Section III-B). Each visitor's lookup table is built inline into
//! one of the worker's reusable [`Lut`] slots, on the batch's one
//! [`KernelDispatch`] — under `avx512`, at a seeded shape, together with
//! its u8 image, in one pass (an inner-product base table gets its image
//! once per query, and each visit's re-biased copy keeps it) — and the
//! group's tables are scanned straight out of L1 together; scores
//! accumulate into **one [`TopK`] per (worker, query)** across every lane
//! the worker runs — the software form of the single intermediate top-k
//! the paper keeps per query (Section IV-C) — so a query's later visits
//! start from a raised threshold and the kernels' survivors filter prunes
//! accordingly. Cluster-major order means consecutive visits feed
//! different queries' selectors, so each visit meets a cold one; a
//! `TopK` takes offers as sequential appends to its candidate buffer and
//! settles them in one partial select every `k` appends, which is what
//! keeps a cold selector cheap. A query's first partial becomes its
//! merged result as is; only further workers' partials are merged into
//! it. The hot loop allocates nothing after warm-up, and a worker leaves
//! its buffers to the next worker on its thread, so a one-worker batch
//! (which drains on the caller's thread) starts warm — its selectors too:
//! the read-out (`read_out`) empties each query's merged selector into
//! the thread's spare buffers, where the next batch's first visits find
//! them. (The LUT-build/scan double buffering of Section III-A stays
//! modelled where it belongs, in `anna-core`'s cycle engine.)
//!
//! # Determinism
//!
//! The merged result is **bit-identical to the serial schedule regardless
//! of thread count, lane shape, or OS scheduling**, because:
//!
//! 1. Every `(cluster, query)` visit lands in exactly one round, so each
//!    query sees the same candidate multiset under any partition.
//! 2. Scores are schedule-invariant: the lookup table for a
//!    `(query, cluster)` pair has a single construction arithmetic, and
//!    the per-vector lookup sum runs in code order within the cluster —
//!    no accumulation crosses a round boundary.
//! 3. Candidate ids are unique per query and [`TopK`]'s order is total
//!    (higher score first, ties to the lower id, NaN rejected), so the
//!    kept top-k *set* is a pure function of the candidate multiset and
//!    [`TopK::merge`] is commutative and associative — which selector a
//!    candidate met first, and when that selector settled, cannot matter.
//!
//! Per-round [`BatchStats`] and [`TierTraffic`] are `u64` sums, and the
//! intermediate top-k spill/fill accounting depends only on how many
//! rounds each query participates in, so the stats too are
//! partition-invariant. (How many candidates the threshold *pruned* —
//! `kernel.pruned` — does depend on which selector a visit met, and is
//! telemetry, not a result.)
//!
//! [`BatchedScan`]: crate::batched::BatchedScan
//! [`ShardedIndex`]: crate::shard::ShardedIndex

use crate::batched::BatchStats;
use crate::ivf::Cluster;
use crate::kernels::{self, KernelDispatch, ScanScratch, ScanTally};
use crate::lut::{Lut, LutPrecision};
use crate::tiered::TieredIndex;
use anna_plan::{RerankPrecision, RerankStage, Round, TierTraffic};
use anna_quant::pq::PqCodebook;
use anna_telemetry::Telemetry;
use anna_vector::exact::{rescore_subset_into, RescoreScratch};
use anna_vector::{metric, Metric, Neighbor, TopK, VectorSet};
use std::cell::Cell;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// The concrete worker count for a `threads` argument: `threads` itself,
/// or one worker per available core when it is `0`.
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// What every lane of one batch shares: the queries, how their lookup
/// tables are built, and the heap size and spill/fill unit the plan was
/// priced with.
pub(crate) struct RoundJob<'a> {
    pub queries: &'a VectorSet,
    pub metric: Metric,
    pub codebook: &'a PqCodebook,
    /// Heap size of the scan (the first-pass `k` of a two-phase plan).
    pub k: usize,
    pub lut_precision: LutPrecision,
    /// Bytes of one intermediate top-k spill or fill (Section IV-C).
    pub spill_unit_bytes: u64,
}

/// Where a lane's cluster blocks live.
pub(crate) enum LaneStore<'a> {
    /// Resident inverted lists, indexed by the rounds' cluster ids.
    Ram(&'a [Cluster]),
    /// A tiered shard: each `fetches_codes` round issues one
    /// [`TieredIndex::fetch_cluster`] carrying the cluster's total
    /// visitors in the lane — the touch sequence
    /// [`anna_plan::TrafficModel::price_tiered`] replays at plan time.
    Tiered(&'a TieredIndex),
}

/// One unit of self-scheduled work: rounds a single worker runs serially,
/// in order, against one cluster store.
pub(crate) struct Lane<'a> {
    pub rounds: &'a [Round],
    pub store: LaneStore<'a>,
    /// Coarse centroids; the lane's cluster `c` is row
    /// `c * centroid_stride + centroid_offset` (a round-robin shard
    /// addresses the global centroid set this way).
    pub centroids: &'a VectorSet,
    pub centroid_stride: usize,
    pub centroid_offset: usize,
}

/// One worker's state: a [`TopK`] per batch query it has scored, its
/// share of the traffic statistics, a per-query count of the rounds it
/// scored (for the spill/fill accounting), its scan-kernel tally and
/// grouped-visit count, and the [`Buffers`] that keep the hot loop
/// allocation-free across every lane it drains.
struct Worker {
    tops: Vec<Option<TopK>>,
    rounds_scored: Vec<u64>,
    stats: BatchStats,
    tier: TierTraffic,
    tally: ScanTally,
    grouped_visits: u64,
    buffers: Buffers,
}

/// A worker's reusable buffers: the table slots, the selector group, the
/// kernel scratch, the L2 residual and spare selectors. None carries
/// meaning from one visit to the next (each is refilled before it is
/// read), so a worker may start with the buffers of any earlier one.
#[derive(Default)]
struct Buffers {
    scratch: ScanScratch,
    /// One table slot per member of a visitor group.
    luts: Vec<Lut>,
    /// The selectors of the group being scanned, moved out of `tops` for
    /// the scan and back after it.
    group: Vec<TopK>,
    residual: Vec<f32>,
    /// Emptied selectors — an earlier batch's, read out ([`read_out`]) or
    /// merged away — that a query's first visit takes before allocating.
    selectors: Vec<TopK>,
}

impl Buffers {
    /// An empty selector of `k`: a spare one reset, or a new one.
    fn selector(&mut self, k: usize) -> TopK {
        match self.selectors.pop() {
            Some(mut top) => {
                top.reset(k);
                top
            }
            None => TopK::new(k),
        }
    }
}

thread_local! {
    /// The buffers the last worker on this thread left behind. A
    /// one-worker batch drains on the caller's thread, so a stream of
    /// small batches (a lone query per request) starts each worker with
    /// buffers already grown to the largest cluster it scanned, and with
    /// the last batch's selectors: no allocation and no first-touch page
    /// faults per batch.
    static SPARE_BUFFERS: Cell<Option<Buffers>> = const { Cell::new(None) };
}

/// Leaves emptied selectors in this thread's spare buffers for the next
/// batch's worker here, keeping at most `keep` of them (a batch's query
/// count): a batch whose workers run on other threads adds no more than
/// that to the caller's.
fn recycle(selectors: impl IntoIterator<Item = TopK>, keep: usize) {
    let mut spare = SPARE_BUFFERS.take().unwrap_or_default();
    spare.selectors.extend(selectors);
    spare.selectors.truncate(keep);
    SPARE_BUFFERS.set(Some(spare));
}

/// Reads each query's merged selector out — best first, or in no order
/// for a re-rank stage, which reorders them anyway — and recycles the
/// emptied selectors ([`recycle`]), so the next batch on this thread
/// allocates none.
pub(crate) fn read_out(mut merged: Vec<TopK>, sorted: bool) -> Vec<Vec<Neighbor>> {
    let hits = merged
        .iter_mut()
        .map(|top| {
            if sorted {
                top.drain_sorted()
            } else {
                top.drain_unsorted()
            }
        })
        .collect();
    let keep = merged.len();
    recycle(merged, keep);
    hits
}

impl Worker {
    fn new(nq: usize) -> Self {
        let mut buffers = SPARE_BUFFERS.take().unwrap_or_default();
        buffers.luts.resize_with(kernels::GROUP, Lut::placeholder);
        Self {
            tops: (0..nq).map(|_| None).collect(),
            rounds_scored: vec![0; nq],
            stats: BatchStats::default(),
            tier: TierTraffic::default(),
            tally: ScanTally::default(),
            grouped_visits: 0,
            buffers,
        }
    }

    /// Runs one lane's rounds in plan order.
    fn run_lane(
        &mut self,
        job: &RoundJob<'_>,
        ip_base: Option<&[Lut]>,
        lane: &Lane<'_>,
        dispatch: KernelDispatch,
        trace: &mut WorkerTrace,
        tel: &Telemetry,
    ) -> io::Result<()> {
        // A tiered fetch credits the cache with the cluster's visitors
        // across the whole lane; a split cluster's later rounds reuse the
        // block its fetching round buffered.
        let mut visitors = Vec::new();
        if let LaneStore::Tiered(t) = lane.store {
            visitors.resize(t.num_clusters(), 0u64);
            for r in lane.rounds {
                visitors[r.cluster] += r.queries.len() as u64;
            }
        }
        let mut buffered: Option<(usize, Arc<Cluster>)> = None;
        for round in lane.rounds {
            let start = if trace.timed { tel.now_ns() } else { 0 };
            let cluster: &Cluster = match lane.store {
                LaneStore::Ram(clusters) => &clusters[round.cluster],
                LaneStore::Tiered(t) => {
                    if round.fetches_codes {
                        let fetched = t.fetch_cluster(round.cluster, visitors[round.cluster])?;
                        self.tier.record(&fetched.outcome, fetched.code_bytes);
                        buffered = Some((round.cluster, fetched.cluster));
                    }
                    match &buffered {
                        Some((c, block)) if *c == round.cluster => block,
                        _ => panic!(
                            "round on cluster {} reuses a block its lane did not just fetch",
                            round.cluster
                        ),
                    }
                }
            };
            // Fetch-flagged rounds pay the cluster load; every round
            // accounts its visits.
            let bytes = cluster.encoded_bytes();
            if round.fetches_codes {
                self.stats.clusters_fetched += 1;
                self.stats.code_bytes += bytes;
            }
            self.stats.query_cluster_visits += round.queries.len() as u64;
            self.stats.conventional_code_bytes += bytes * round.queries.len() as u64;
            let centroid = lane
                .centroids
                .row(round.cluster * lane.centroid_stride + lane.centroid_offset);
            // Consecutive visitors share one pass over the cluster where
            // the kernel scores a group at once.
            let group = kernels::group_size(dispatch, &cluster.codes, job.codebook.kstar());
            for queries in round.queries.chunks(group) {
                for &qi in queries {
                    self.rounds_scored[qi] += 1;
                    let top = match self.tops[qi].take() {
                        Some(top) => top,
                        None => self.buffers.selector(job.k),
                    };
                    self.buffers.group.push(top);
                }
                if !cluster.is_empty() {
                    // Each visit's table: re-bias the shared inner-product
                    // base, or rebuild the cluster-dependent L2 table.
                    for (lut, &qi) in self.buffers.luts.iter_mut().zip(queries) {
                        let q = job.queries.row(qi);
                        match ip_base {
                            Some(base) => {
                                lut.clone_rebias_from(&base[qi], metric::dot(q, centroid))
                            }
                            None => lut.rebuild_l2_with(
                                dispatch,
                                q,
                                centroid,
                                job.codebook,
                                job.lut_precision,
                                &mut self.buffers.residual,
                            ),
                        }
                    }
                    let tally = kernels::scan_group_with(
                        &cluster.codes,
                        &cluster.ids,
                        &self.buffers.luts[..queries.len()],
                        &mut self.buffers.group,
                        dispatch,
                        &mut self.buffers.scratch,
                    );
                    self.tally.accumulate(&tally);
                    if queries.len() > 1 {
                        self.grouped_visits += queries.len() as u64;
                    }
                }
                for (&qi, top) in queries.iter().zip(self.buffers.group.drain(..)) {
                    let slot = &mut self.tops[qi];
                    assert!(
                        slot.is_none(),
                        "query {qi} visits cluster {} twice in one round",
                        round.cluster
                    );
                    *slot = Some(top);
                }
            }
            if trace.timed {
                let dur = tel.now_ns().saturating_sub(start);
                trace.busy_ns += dur;
                trace.scan_windows.push((start, dur));
            }
        }
        Ok(())
    }
}

/// Builds the cluster-invariant inner-product base tables (one per
/// query, with its u8 image where `dispatch` makes one), fanned out over
/// `threads` scoped workers in fixed chunks.
/// Chunking only partitions independent per-query builds, so the output
/// is identical to the serial collect for any worker count.
pub(crate) fn build_ip_base(
    dispatch: KernelDispatch,
    codebook: &PqCodebook,
    queries: &VectorSet,
    precision: LutPrecision,
    threads: usize,
) -> Vec<Lut> {
    let nq = queries.len();
    let workers = threads.max(1).min(nq.max(1));
    if workers <= 1 {
        return queries
            .iter()
            .map(|q| Lut::build_ip_with(dispatch, q, codebook, precision))
            .collect();
    }
    let mut out: Vec<Lut> = (0..nq).map(|_| Lut::placeholder()).collect();
    let chunk = nq.div_ceil(workers);
    std::thread::scope(|s| {
        for (ci, slice) in out.chunks_mut(chunk).enumerate() {
            s.spawn(move || {
                for (j, slot) in slice.iter_mut().enumerate() {
                    let q = queries.row(ci * chunk + j);
                    *slot = Lut::build_ip_with(dispatch, q, codebook, precision);
                }
            });
        }
    });
    out
}

/// Locally-buffered telemetry for one worker: the hot loop only reads
/// clocks; everything is flushed to the registry in one burst after the
/// drain so instrumentation cannot perturb the lane race.
struct WorkerTrace {
    timed: bool,
    begin: u64,
    busy_ns: u64,
    scan_windows: Vec<(u64, u64)>,
}

impl WorkerTrace {
    fn new(tel: &Telemetry) -> Self {
        Self {
            timed: tel.is_enabled(),
            begin: tel.now_ns(),
            busy_ns: 0,
            scan_windows: Vec::new(),
        }
    }

    /// Flushes the buffered windows and counters: `worker<w>.tiles`
    /// (rounds scored) / `busy_ns` / `idle_ns`, the worker's share of
    /// `kernel.codes_scanned` / `kernel.pruned` / `kernel.bound_rejected` /
    /// `kernel.exact` / `kernel.grouped_visits`,
    /// plus one `batch.tile_scan` trace event per round on thread lane `w`.
    fn flush(self, tel: &Telemetry, worker: u64, tally: &ScanTally, grouped_visits: u64) {
        if !self.timed {
            return;
        }
        let total = tel.now_ns().saturating_sub(self.begin);
        let per_worker = tel.scoped(&format!("worker{worker}"));
        per_worker.counter_add("tiles", self.scan_windows.len() as u64);
        per_worker.counter_add("busy_ns", self.busy_ns);
        per_worker.counter_add("idle_ns", total.saturating_sub(self.busy_ns));
        tel.counter_add("kernel.codes_scanned", tally.scanned);
        tel.counter_add("kernel.pruned", tally.pruned);
        tel.counter_add("kernel.bound_rejected", tally.bound_rejected);
        tel.counter_add("kernel.exact", tally.exact);
        tel.counter_add("kernel.grouped_visits", grouped_visits);
        for (start, dur) in self.scan_windows {
            tel.trace_event_ns("batch.tile_scan", worker, start, dur);
        }
    }
}

/// Runs `lanes` on up to `threads` scoped workers and merges the
/// per-worker accumulators into one [`TopK`] per query plus the aggregate
/// [`BatchStats`] and storage-tier split (all zero without tiered lanes).
///
/// `job.spill_unit_bytes` prices the intermediate top-k spill/fill
/// records (Section IV-C): every round a query participates in after its
/// first fills its partial top-k from memory and every round before its
/// last spills it back, so a query scored in `r` rounds — across all
/// lanes — accounts `(r − 1) · spill_unit_bytes` of fill traffic and the
/// same of spill traffic. The counts are measured from the rounds each
/// worker actually scored; since they depend only on how many rounds a
/// query appears in, the totals are independent of thread count and lane
/// shape.
///
/// See the module docs for why the output is independent of `threads` and
/// of how the OS schedules the workers. `tel` adds per-worker utilization
/// counters and a per-round scan timeline when enabled; pass
/// [`Telemetry::disabled`] for the uninstrumented path.
///
/// # Errors
///
/// Returns the first storage error a tiered lane's fetch hit; the other
/// workers stop at their next lane boundary.
pub(crate) fn execute_rounds(
    job: &RoundJob<'_>,
    lanes: &[Lane<'_>],
    threads: usize,
    tel: &Telemetry,
) -> io::Result<(Vec<TopK>, BatchStats, TierTraffic)> {
    let nq = job.queries.len();
    let dispatch = KernelDispatch::current();
    // Inner-product base tables are cluster-invariant: one per query up
    // front, with their u8 images, re-biased per visit. L2 tables are
    // cluster-specific and built inside the round loop.
    let ip_base: Option<Vec<Lut>> = {
        let _span = tel.span("batch.lut_build");
        match job.metric {
            Metric::InnerProduct => Some(build_ip_base(
                dispatch,
                job.codebook,
                job.queries,
                job.lut_precision,
                threads,
            )),
            Metric::L2 => None,
        }
    };
    if tel.is_enabled() {
        tel.counter_add(&format!("kernel.dispatch.{}", dispatch.name()), 1);
    }

    let cursor = AtomicUsize::new(0);
    // Only a hint to stop claiming lanes after a storage error (the error
    // itself travels through the join), so Relaxed suffices.
    let failed = AtomicBool::new(false);
    let drain = |worker: u64| -> io::Result<Worker> {
        let mut acc = Worker::new(nq);
        let mut trace = WorkerTrace::new(tel);
        while !failed.load(Ordering::Relaxed) {
            let Some(lane) = lanes.get(cursor.fetch_add(1, Ordering::Relaxed)) else {
                break;
            };
            acc.run_lane(job, ip_base.as_deref(), lane, dispatch, &mut trace, tel)
                .inspect_err(|_| failed.store(true, Ordering::Relaxed))?;
        }
        trace.flush(tel, worker, &acc.tally, acc.grouped_visits);
        SPARE_BUFFERS.set(Some(std::mem::take(&mut acc.buffers)));
        Ok(acc)
    };
    let workers = threads.max(1).min(lanes.len().max(1));
    let done: Vec<io::Result<Worker>> = if workers == 1 {
        vec![drain(0)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers as u64)
                .map(|w| {
                    let drain = &drain;
                    s.spawn(move || drain(w))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    };

    let _merge = tel.span("batch.merge");
    // A query's first partial is taken as is; later ones merge into it.
    let mut merged: Vec<Option<TopK>> = (0..nq).map(|_| None).collect();
    let mut stats = BatchStats::default();
    let mut tier = TierTraffic::default();
    let mut rounds_per_query = vec![0u64; nq];
    let mut merged_away = Vec::new();
    for acc in done {
        let acc = acc?;
        for (slot, top) in merged.iter_mut().zip(acc.tops) {
            match (slot.as_mut(), top) {
                (Some(into), Some(top)) => {
                    into.merge(&top);
                    merged_away.push(top);
                }
                (None, top) => *slot = top,
                (Some(_), None) => {}
            }
        }
        for (total, n) in rounds_per_query.iter_mut().zip(&acc.rounds_scored) {
            *total += n;
        }
        stats.accumulate(&acc.stats);
        tier.accumulate(&acc.tier);
    }
    recycle(merged_away, nq);
    let crossings: u64 = rounds_per_query.iter().map(|r| r.saturating_sub(1)).sum();
    stats.topk_fill_bytes += crossings * job.spill_unit_bytes;
    stats.topk_spill_bytes += crossings * job.spill_unit_bytes;
    let merged = merged
        .into_iter()
        .map(|top| top.unwrap_or_else(|| TopK::new(job.k)))
        .collect();
    Ok((merged, stats, tier))
}

/// Runs a plan's [`RerankStage`] over the first pass's merged heaps, read
/// out unsorted ([`read_out`]): every query's survivors are rescored
/// against `db` at the stage's per-query precision and truncated to the
/// final `stage.k`.
///
/// Work items (one per query) join the same self-scheduling queue
/// discipline as the scan lanes — a shared atomic cursor that
/// workers drain, with per-worker [`RescoreScratch`] so the hot loop is
/// allocation-free. The output is bit-identical for any worker count
/// because each query is rescored by exactly one worker with the single
/// [`rescore_subset_into`] arithmetic, candidate lists come from the
/// deterministic merged heaps, and results are written back by query
/// index.
///
/// Returns `(results, rerank_candidate_bytes, rerank_vector_bytes)` — the
/// measured byte counts that must equal the
/// [`anna_plan::TrafficModel`]'s prediction exactly: every candidate
/// record is spilled once and filled once (`2 · Σ c_q · record`), and
/// each candidate vector is fetched at the query's precision.
///
/// # Panics
///
/// Panics if the stage's per-query candidate counts disagree with the
/// first pass's survivor counts (the planner and the engine must see the
/// same `min(k_first, pool)`), or if the stage's query count differs
/// from the batch size.
pub(crate) fn execute_rerank(
    db: &VectorSet,
    queries: &VectorSet,
    metric: Metric,
    stage: &RerankStage,
    merged: Vec<TopK>,
    threads: usize,
) -> (Vec<Vec<Neighbor>>, u64, u64) {
    let nq = queries.len();
    stage.assert_valid(nq);

    // Materialize each heap's kept set as its candidate list, unsorted: the
    // rescore ranks by the total score-then-id order, so its output does
    // not depend on the list's order. The list *is* the candidate-id spill
    // the traffic model prices.
    let candidates = read_out(merged, false);
    let mut candidate_records = 0u64;
    let mut vector_bytes = 0u64;
    for (qi, list) in candidates.iter().enumerate() {
        let decision = &stage.queries[qi];
        assert_eq!(
            list.len(),
            decision.candidates,
            "query {qi}: planned candidate count diverged from the first pass's survivors"
        );
        candidate_records += list.len() as u64;
        vector_bytes +=
            list.len() as u64 * db.dim() as u64 * decision.precision.bytes_per_element();
    }
    let candidate_bytes = 2 * candidate_records * stage.record_bytes;

    let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); nq];
    let rescore =
        |qi: usize, ids: &mut Vec<u64>, scratch: &mut RescoreScratch, out: &mut Vec<Neighbor>| {
            ids.clear();
            ids.extend(candidates[qi].iter().map(|n| n.id));
            if ids.is_empty() {
                out.clear();
                return;
            }
            let f16_vectors = stage.queries[qi].precision == RerankPrecision::F16;
            rescore_subset_into(
                queries.row(qi),
                ids,
                db,
                metric,
                stage.k,
                f16_vectors,
                scratch,
                out,
            );
        };

    let workers = threads.max(1).min(nq.max(1));
    if workers <= 1 {
        let mut scratch = RescoreScratch::new();
        let mut ids = Vec::new();
        for (qi, out) in results.iter_mut().enumerate() {
            rescore(qi, &mut ids, &mut scratch, out);
        }
    } else {
        // Each worker returns the queries it rescored; they are scattered
        // by query index after the join.
        let cursor = AtomicUsize::new(0);
        let done: Vec<Vec<(usize, Vec<Neighbor>)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut scratch = RescoreScratch::new();
                        let mut ids = Vec::new();
                        let mut local = Vec::new();
                        loop {
                            let qi = cursor.fetch_add(1, Ordering::Relaxed);
                            if qi >= nq {
                                return local;
                            }
                            let mut out = Vec::new();
                            rescore(qi, &mut ids, &mut scratch, &mut out);
                            local.push((qi, out));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        for (qi, out) in done.into_iter().flatten() {
            results[qi] = out;
        }
    }

    (results, candidate_bytes, vector_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threads_resolves_to_the_core_count() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }
}
