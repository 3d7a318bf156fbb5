//! The deterministic worker pool behind [`BatchedScan`] — an overlapped,
//! double-buffered software mirror of ANNA's EFM/SCM pipeline.
//!
//! ANNA's batch engine assigns work to its 16 similarity-computation
//! modules (SCMs) through a crossbar, and hides lookup-table construction
//! behind code scanning: while the SCMs scan round `r`, the
//! element-wise-multiplication/filtering module (EFM/CPM) builds round
//! `r + 1`'s tables (Section III-A's double buffering). This module
//! executes a shared-IR [`BatchPlan`]'s [`Round`]s the same way:
//!
//! * Rounds are grouped into **waves**. Two [`Lut`] buffers ping-pong:
//!   during super-step `s`, workers first drain a *build* queue that
//!   fills buffer `s % 2` with wave `s`'s lookup tables, then drain the
//!   *scan* queue of wave `s − 1` reading buffer `(s − 1) % 2`. Both
//!   queues are shared atomic cursors (dynamic self-scheduling, like the
//!   crossbar arbitrating SCM groups), so a worker that finishes its
//!   builds immediately helps scan — LUT construction and scanning
//!   overlap inside every super-step, and a [`std::sync::Barrier`] seals
//!   the step so buffer `s % 2` is never read and written concurrently.
//! * Every LUT slot and every worker's [`kernels::ScanScratch`] is reused
//!   across waves (in-place [`Lut::rebuild_l2`] /
//!   [`Lut::clone_rebias_from`]), so the steady-state hot loop performs
//!   no allocation — the scan is shaped by memory bandwidth, not by the
//!   allocator.
//! * Per-worker [`TopK`] accumulators merge after the pool joins.
//!
//! With one worker the pool degenerates to the serial reference schedule:
//! rounds in plan order, tables built inline (still through the reusable
//! slots).
//!
//! # Determinism
//!
//! The merged result is **bit-identical to the serial schedule regardless
//! of thread count, wave grouping, or OS scheduling**, because:
//!
//! 1. Every `(cluster, query)` visit lands in exactly one round, so each
//!    query sees the same candidate multiset under any partition.
//! 2. Scores are schedule-invariant: the lookup table for a
//!    `(query, cluster)` pair has a single construction arithmetic
//!    (in-place rebuild *is* the `build_*` implementation), and the
//!    per-vector lookup sum runs in code order within the cluster — no
//!    accumulation crosses a round boundary, whether the table came from
//!    a prebuilt wave buffer or an inline rebuild.
//! 3. Candidate ids are unique per query and [`TopK`]'s order is total
//!    (higher score first, ties to the lower id, NaN rejected), so the
//!    kept top-k *set* is a pure function of the candidate multiset and
//!    [`TopK::merge`] is commutative and associative.
//!
//! Per-round [`BatchStats`] are `u64` sums, and the intermediate top-k
//! spill/fill accounting depends only on how many rounds each query
//! participates in, so the stats too are partition-invariant.
//!
//! [`BatchedScan`]: crate::batched::BatchedScan

use crate::batched::BatchStats;
use crate::ivf::IvfPqIndex;
use crate::kernels;
use crate::lut::{Lut, LutPrecision};
use crate::SearchParams;
use anna_plan::{BatchPlan, RerankPrecision, RerankStage, Round};
use anna_telemetry::Telemetry;
use anna_vector::exact::{rescore_subset_into, RescoreScratch};
use anna_vector::{metric, Metric, Neighbor, TopK, VectorSet};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

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

/// Per-worker accumulator: one optional [`TopK`] per batch query plus the
/// worker's share of the traffic statistics, a per-query count of the
/// rounds the worker scored (for the spill/fill accounting), the worker's
/// scan-kernel tally, and the reusable kernel scratch that keeps the hot
/// loop allocation-free across every round the worker drains.
struct RoundAccum {
    tops: Vec<Option<TopK>>,
    rounds_scored: Vec<u64>,
    stats: BatchStats,
    tally: kernels::ScanTally,
    scratch: kernels::ScanScratch,
}

impl RoundAccum {
    fn new(nq: usize) -> Self {
        Self {
            tops: (0..nq).map(|_| None).collect(),
            rounds_scored: vec![0; nq],
            stats: BatchStats::default(),
            tally: kernels::ScanTally::default(),
            scratch: kernels::ScanScratch::new(),
        }
    }

    /// Accounts one round's traffic: fetch-flagged rounds pay the cluster
    /// load, every round accounts its visits.
    fn account_round(&mut self, round: &Round, bytes: u64) {
        if round.fetches_codes {
            self.stats.clusters_fetched += 1;
            self.stats.code_bytes += bytes;
        }
        self.stats.query_cluster_visits += round.queries.len() as u64;
        self.stats.conventional_code_bytes += bytes * round.queries.len() as u64;
    }

    /// Scans one query of a round with a ready lookup table.
    fn scan_query(
        &mut self,
        cluster: &crate::ivf::Cluster,
        qi: usize,
        lut: &Lut,
        k: usize,
        dispatch: kernels::KernelDispatch,
    ) {
        self.rounds_scored[qi] += 1;
        let top = self.tops[qi].get_or_insert_with(|| TopK::new(k));
        let tally = kernels::scan_with(
            &cluster.codes,
            &cluster.ids,
            lut,
            top,
            dispatch,
            &mut self.scratch,
        );
        self.tally.accumulate(&tally);
    }

    /// Scores one round building each query's lookup table inline through
    /// the reusable `lut` slot — the serial reference schedule (and the
    /// arithmetic the wave path must reproduce bit for bit).
    #[allow(clippy::too_many_arguments)]
    fn score_round_inline(
        &mut self,
        index: &IvfPqIndex,
        queries: &VectorSet,
        params: &SearchParams,
        ip_base: Option<&[Lut]>,
        round: &Round,
        dispatch: kernels::KernelDispatch,
        lut: &mut Lut,
        residual: &mut Vec<f32>,
    ) {
        let cluster = index.cluster(round.cluster);
        self.account_round(round, cluster.encoded_bytes());
        for &qi in &round.queries {
            build_visit_lut(
                index,
                queries,
                params.lut_precision,
                ip_base,
                round,
                qi,
                lut,
                residual,
            );
            self.scan_query(cluster, qi, lut, params.k, dispatch);
        }
    }

    /// Scores one round whose lookup tables a build task already placed
    /// in `slots` (the wave buffer), starting at `first_slot`.
    ///
    /// # Safety contract (checked by the caller)
    ///
    /// The slots were written in the *previous* super-step and no worker
    /// writes this buffer during the current one (the barrier plus the
    /// two-buffer ping-pong guarantee it), so the shared reads are sound.
    fn score_round_prebuilt(
        &mut self,
        index: &IvfPqIndex,
        round: &Round,
        slots: &LutSlots,
        first_slot: usize,
        k: usize,
        dispatch: kernels::KernelDispatch,
    ) {
        let cluster = index.cluster(round.cluster);
        self.account_round(round, cluster.encoded_bytes());
        for (j, &qi) in round.queries.iter().enumerate() {
            // SAFETY: see the method docs — this buffer is read-only for
            // the whole super-step.
            let lut = unsafe { slots.read(first_slot + j) };
            self.scan_query(cluster, qi, lut, k, dispatch);
        }
    }
}

/// Builds (in place, into `lut`) the lookup table for one
/// `(query, cluster)` visit: re-bias the shared inner-product base table,
/// or rebuild the cluster-dependent L2 table. The single construction
/// path shared by the inline/serial schedule and the wave build tasks.
#[allow(clippy::too_many_arguments)]
fn build_visit_lut(
    index: &IvfPqIndex,
    queries: &VectorSet,
    precision: LutPrecision,
    ip_base: Option<&[Lut]>,
    round: &Round,
    qi: usize,
    lut: &mut Lut,
    residual: &mut Vec<f32>,
) {
    let q = queries.row(qi);
    let centroid = index.centroids().row(round.cluster);
    match ip_base {
        Some(base) => lut.clone_rebias_from(&base[qi], metric::dot(q, centroid)),
        None => lut.rebuild_l2(q, centroid, index.codebook(), precision, residual),
    }
}

/// Builds the cluster-invariant inner-product base tables (one per
/// query), fanned out over `threads` scoped workers in fixed chunks.
/// Chunking only partitions independent per-query builds, so the output
/// is identical to the serial collect for any worker count.
pub(crate) fn build_ip_base(
    index: &IvfPqIndex,
    queries: &VectorSet,
    precision: LutPrecision,
    threads: usize,
) -> Vec<Lut> {
    let nq = queries.len();
    let workers = threads.max(1).min(nq.max(1));
    if workers <= 1 {
        return queries
            .iter()
            .map(|q| Lut::build_ip(q, index.codebook(), precision))
            .collect();
    }
    let mut out: Vec<Lut> = (0..nq).map(|_| Lut::placeholder()).collect();
    let chunk = nq.div_ceil(workers);
    std::thread::scope(|s| {
        for (ci, slice) in out.chunks_mut(chunk).enumerate() {
            s.spawn(move || {
                for (j, slot) in slice.iter_mut().enumerate() {
                    let q = queries.row(ci * chunk + j);
                    *slot = Lut::build_ip(q, index.codebook(), precision);
                }
            });
        }
    });
    out
}

/// A wave buffer: one reusable [`Lut`] slot per `(round, query)` visit of
/// the largest wave. Slots are written by build tasks (each slot range
/// claimed by exactly one worker through the build cursor) in one
/// super-step and read by scan tasks in the next; the step barrier plus
/// the two-buffer ping-pong ensure a buffer is never written and read in
/// the same step, which is what makes the [`UnsafeCell`] sharing sound.
struct LutSlots {
    slots: Vec<UnsafeCell<Lut>>,
}

// SAFETY: cross-thread access is disjoint-by-construction (the atomic
// build cursor hands each round's slot range to exactly one worker) or
// read-only (scan steps), with a Barrier providing the happens-before
// edge between the writing step and the reading step.
unsafe impl Sync for LutSlots {}

impl LutSlots {
    fn new(capacity: usize) -> Self {
        Self {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(Lut::placeholder()))
                .collect(),
        }
    }

    /// Mutable access to slot `i` for a build task.
    ///
    /// # Safety
    ///
    /// The caller must hold the exclusive claim on `i` for this
    /// super-step (its round was handed out by the build cursor) and no
    /// reader may touch this buffer until after the next barrier.
    #[allow(clippy::mut_from_ref)]
    unsafe fn write(&self, i: usize) -> &mut Lut {
        unsafe { &mut *self.slots[i].get() }
    }

    /// Shared access to slot `i` for a scan task.
    ///
    /// # Safety
    ///
    /// No worker may be writing this buffer in the current super-step.
    unsafe fn read(&self, i: usize) -> &Lut {
        unsafe { &*self.slots[i].get() }
    }
}

/// Per-buffer LUT byte budget for a wave (entries are `m · k* · 4` B per
/// visit). Two buffers are live at once; 4 MB each keeps the ping-pong
/// L2/L3-resident on common parts without bounding small workloads.
const WAVE_LUT_BUDGET_BYTES: usize = 4 << 20;

/// How rounds are grouped into waves, and where each round's lookup
/// tables live inside its wave's slot buffer.
struct WaveSchedule {
    /// Wave `w` covers rounds `starts[w]..starts[w + 1]`.
    starts: Vec<usize>,
    /// Slot offset of round `r`'s first table inside its wave's buffer.
    slot_offset: Vec<usize>,
    /// Slots needed by the largest wave (= buffer capacity).
    capacity: usize,
}

/// Cuts the round list into waves: enough rounds per wave to keep
/// `workers` self-scheduling queues busy, capped by the per-buffer LUT
/// byte budget so the ping-pong buffers stay cache-sized. Grouping only
/// affects when tables are built, never what they contain, so any cut is
/// correct; this one balances pipeline depth against footprint.
fn plan_waves(rounds: &[Round], workers: usize, lut_bytes_per_visit: usize) -> WaveSchedule {
    let target_rounds = (workers * 4).max(8);
    let per_visit = lut_bytes_per_visit.max(1);
    let mut starts = vec![0usize];
    let mut slot_offset = Vec::with_capacity(rounds.len());
    let mut capacity = 0usize;
    let (mut visits, mut count) = (0usize, 0usize);
    for (i, r) in rounds.iter().enumerate() {
        let q = r.queries.len();
        if count > 0 && (count >= target_rounds || (visits + q) * per_visit > WAVE_LUT_BUDGET_BYTES)
        {
            starts.push(i);
            capacity = capacity.max(visits);
            visits = 0;
            count = 0;
        }
        slot_offset.push(visits);
        visits += q;
        count += 1;
    }
    starts.push(rounds.len());
    capacity = capacity.max(visits);
    WaveSchedule {
        starts,
        slot_offset,
        capacity,
    }
}

/// Locally-buffered telemetry for one worker: the hot loop only reads
/// clocks; everything is flushed to the registry in one burst after the
/// drain so instrumentation cannot perturb the round race.
struct WorkerTrace {
    timed: bool,
    begin: u64,
    busy_ns: u64,
    lut_build_ns: u64,
    luts_built: u64,
    scan_windows: Vec<(u64, u64)>,
    lut_windows: Vec<(u64, u64)>,
}

impl WorkerTrace {
    fn new(tel: &Telemetry) -> Self {
        Self {
            timed: tel.is_enabled(),
            begin: tel.now_ns(),
            busy_ns: 0,
            lut_build_ns: 0,
            luts_built: 0,
            scan_windows: Vec::new(),
            lut_windows: Vec::new(),
        }
    }

    /// Flushes the buffered windows and counters: `worker<w>.tiles` /
    /// `busy_ns` / `idle_ns` / `luts_built` / `lut_build_ns` counters,
    /// the worker's share of `kernel.codes_scanned` / `kernel.pruned`,
    /// plus one `batch.tile_scan` (and, on the overlapped path, one
    /// `batch.lut_build`) trace event per task on thread lane `w`.
    fn flush(self, tel: &Telemetry, worker: u64, tally: &kernels::ScanTally) {
        if !self.timed {
            return;
        }
        let total = tel.now_ns().saturating_sub(self.begin);
        let per_worker = tel.scoped(&format!("worker{worker}"));
        per_worker.counter_add("tiles", self.scan_windows.len() as u64);
        per_worker.counter_add("busy_ns", self.busy_ns);
        per_worker.counter_add("idle_ns", total.saturating_sub(self.busy_ns));
        if self.luts_built > 0 {
            per_worker.counter_add("luts_built", self.luts_built);
            per_worker.counter_add("lut_build_ns", self.lut_build_ns);
        }
        tel.counter_add("kernel.codes_scanned", tally.scanned);
        tel.counter_add("kernel.pruned", tally.pruned);
        for (start, dur) in self.scan_windows {
            tel.trace_event_ns("batch.tile_scan", worker, start, dur);
        }
        for (start, dur) in self.lut_windows {
            tel.trace_event_ns("batch.lut_build", worker, start, dur);
        }
    }
}

/// Drains rounds off the shared `cursor` with inline LUT construction —
/// the single-worker reference schedule (also used when the plan is too
/// small to pipeline).
#[allow(clippy::too_many_arguments)]
fn drain_rounds_inline(
    index: &IvfPqIndex,
    queries: &VectorSet,
    params: &SearchParams,
    ip_base: Option<&[Lut]>,
    rounds: &[Round],
    cursor: &AtomicUsize,
    worker: u64,
    dispatch: kernels::KernelDispatch,
    tel: &Telemetry,
) -> RoundAccum {
    let mut acc = RoundAccum::new(queries.len());
    let mut lut = Lut::placeholder();
    let mut residual = Vec::new();
    let mut trace = WorkerTrace::new(tel);
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(round) = rounds.get(i) else { break };
        let start = if trace.timed { tel.now_ns() } else { 0 };
        acc.score_round_inline(
            index,
            queries,
            params,
            ip_base,
            round,
            dispatch,
            &mut lut,
            &mut residual,
        );
        if trace.timed {
            let dur = tel.now_ns().saturating_sub(start);
            trace.busy_ns += dur;
            trace.scan_windows.push((start, dur));
        }
    }
    trace.flush(tel, worker, &acc.tally);
    acc
}

/// One worker of the overlapped pipeline: for each super-step `s`, first
/// drain the *build* queue of wave `s` (filling buffer `s % 2`), then
/// drain the *scan* queue of wave `s − 1` (reading buffer
/// `(s − 1) % 2`), then hit the barrier. Because both queues are shared,
/// a worker that runs out of builds scans while its peers still build —
/// that concurrent draining is the EFM/SCM overlap.
#[allow(clippy::too_many_arguments)]
fn run_worker_overlapped(
    index: &IvfPqIndex,
    queries: &VectorSet,
    params: &SearchParams,
    ip_base: Option<&[Lut]>,
    rounds: &[Round],
    schedule: &WaveSchedule,
    buffers: &[LutSlots; 2],
    build_cursors: &[AtomicUsize],
    scan_cursors: &[AtomicUsize],
    barrier: &Barrier,
    worker: u64,
    dispatch: kernels::KernelDispatch,
    tel: &Telemetry,
) -> RoundAccum {
    let mut acc = RoundAccum::new(queries.len());
    let mut residual = Vec::new();
    let mut trace = WorkerTrace::new(tel);
    let waves = schedule.starts.len() - 1;
    for step in 0..=waves {
        if step < waves {
            // Build wave `step`'s tables into buffer `step % 2`.
            let buf = &buffers[step % 2];
            let (lo, hi) = (schedule.starts[step], schedule.starts[step + 1]);
            loop {
                let i = lo + build_cursors[step].fetch_add(1, Ordering::Relaxed);
                if i >= hi {
                    break;
                }
                let round = &rounds[i];
                let start = if trace.timed { tel.now_ns() } else { 0 };
                let first = schedule.slot_offset[i];
                for (j, &qi) in round.queries.iter().enumerate() {
                    // SAFETY: the build cursor handed round `i` (and so
                    // slots `first..first + |queries|`) to this worker
                    // alone; readers wait for the next barrier.
                    let slot = unsafe { buf.write(first + j) };
                    build_visit_lut(
                        index,
                        queries,
                        params.lut_precision,
                        ip_base,
                        round,
                        qi,
                        slot,
                        &mut residual,
                    );
                }
                trace.luts_built += round.queries.len() as u64;
                if trace.timed {
                    let dur = tel.now_ns().saturating_sub(start);
                    trace.busy_ns += dur;
                    trace.lut_build_ns += dur;
                    trace.lut_windows.push((start, dur));
                }
            }
        }
        if step > 0 {
            // Scan wave `step − 1` from buffer `(step − 1) % 2`.
            let buf = &buffers[(step - 1) % 2];
            let (lo, hi) = (schedule.starts[step - 1], schedule.starts[step]);
            loop {
                let i = lo + scan_cursors[step - 1].fetch_add(1, Ordering::Relaxed);
                if i >= hi {
                    break;
                }
                let round = &rounds[i];
                let start = if trace.timed { tel.now_ns() } else { 0 };
                acc.score_round_prebuilt(
                    index,
                    round,
                    buf,
                    schedule.slot_offset[i],
                    params.k,
                    dispatch,
                );
                if trace.timed {
                    let dur = tel.now_ns().saturating_sub(start);
                    trace.busy_ns += dur;
                    trace.scan_windows.push((start, dur));
                }
            }
        }
        barrier.wait();
    }
    trace.flush(tel, worker, &acc.tally);
    acc
}

/// Runs a plan's rounds on `threads` scoped workers — overlapped and
/// double-buffered when more than one worker is available — and merges
/// the per-worker accumulators into one [`TopK`] per query plus aggregate
/// [`BatchStats`].
///
/// `plan.spill_unit_bytes` prices the intermediate top-k spill/fill
/// records (Section IV-C): every round a query participates in after its
/// first fills its partial top-k from memory and every round before its
/// last spills it back, so a query scored in `r` rounds accounts
/// `(r − 1) · spill_unit_bytes` of fill traffic and the same of spill
/// traffic. The counts are measured from the rounds each worker actually
/// scored; since they depend only on how many rounds a query appears in,
/// the totals are independent of thread count and round order.
///
/// See the module docs for why the output is independent of `threads` and
/// of how the OS schedules the workers. `tel` adds per-worker utilization
/// counters and per-task scan/LUT-build timelines when enabled; pass
/// [`Telemetry::disabled`] for the uninstrumented path.
pub(crate) fn execute_rounds(
    index: &IvfPqIndex,
    queries: &VectorSet,
    params: &SearchParams,
    ip_base: Option<&[Lut]>,
    plan: &BatchPlan,
    threads: usize,
    tel: &Telemetry,
) -> (Vec<TopK>, BatchStats) {
    let rounds: &[Round] = &plan.rounds;
    let nq = queries.len();
    let mut merged: Vec<TopK> = (0..nq).map(|_| TopK::new(params.k)).collect();
    let mut stats = BatchStats::default();
    let mut rounds_per_query = vec![0u64; nq];

    let mut fold = |acc: RoundAccum, merged: &mut Vec<TopK>, stats: &mut BatchStats| {
        for (qi, top) in acc.tops.into_iter().enumerate() {
            if let Some(top) = top {
                merged[qi].merge(&top);
            }
        }
        for (qi, &n) in acc.rounds_scored.iter().enumerate() {
            rounds_per_query[qi] += n;
        }
        stats.accumulate(&acc.stats);
    };

    let dispatch = kernels::KernelDispatch::current();
    if tel.is_enabled() {
        tel.counter_add(&format!("kernel.dispatch.{}", dispatch.name()), 1);
    }
    let workers = threads.max(1).min(rounds.len().max(1));
    if workers <= 1 {
        let cursor = AtomicUsize::new(0);
        let acc = drain_rounds_inline(
            index, queries, params, ip_base, rounds, &cursor, 0, dispatch, tel,
        );
        let _merge = tel.span("batch.merge");
        fold(acc, &mut merged, &mut stats);
    } else {
        let book = index.codebook();
        let lut_bytes = book.m() * book.kstar() * std::mem::size_of::<f32>();
        let schedule = plan_waves(rounds, workers, lut_bytes);
        let waves = schedule.starts.len() - 1;
        let buffers = [
            LutSlots::new(schedule.capacity),
            LutSlots::new(schedule.capacity),
        ];
        let build_cursors: Vec<AtomicUsize> = (0..waves).map(|_| AtomicUsize::new(0)).collect();
        let scan_cursors: Vec<AtomicUsize> = (0..waves).map(|_| AtomicUsize::new(0)).collect();
        let barrier = Barrier::new(workers);
        let done: Mutex<Vec<RoundAccum>> = Mutex::new(Vec::with_capacity(workers));
        std::thread::scope(|s| {
            for w in 0..workers {
                let (schedule, buffers) = (&schedule, &buffers);
                let (build_cursors, scan_cursors) = (&build_cursors[..], &scan_cursors[..]);
                let (barrier, done) = (&barrier, &done);
                s.spawn(move || {
                    let acc = run_worker_overlapped(
                        index,
                        queries,
                        params,
                        ip_base,
                        rounds,
                        schedule,
                        buffers,
                        build_cursors,
                        scan_cursors,
                        barrier,
                        w as u64,
                        dispatch,
                        tel,
                    );
                    done.lock().expect("worker poisoned accumulators").push(acc);
                });
            }
        });
        let _merge = tel.span("batch.merge");
        for acc in done.into_inner().expect("worker poisoned accumulators") {
            fold(acc, &mut merged, &mut stats);
        }
    }
    for &r in &rounds_per_query {
        let boundary_crossings = r.saturating_sub(1);
        stats.topk_fill_bytes += boundary_crossings * plan.spill_unit_bytes;
        stats.topk_spill_bytes += boundary_crossings * plan.spill_unit_bytes;
    }
    (merged, stats)
}

/// Runs a plan's [`RerankStage`] over the first pass's merged heaps:
/// every query's survivors are rescored against `db` at the stage's
/// per-query precision and truncated to the final `stage.k`.
///
/// Work items (one per query) join the same self-scheduling queue
/// discipline as the build/scan rounds — a shared atomic cursor that
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

    // Materialize each heap as its pinned best-first candidate list. The
    // list *is* the candidate-id spill the traffic model prices.
    let candidates: Vec<Vec<Neighbor>> = merged.into_iter().map(TopK::into_sorted_vec).collect();
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
        let cursor = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, Vec<Neighbor>)>> = Mutex::new(Vec::with_capacity(nq));
        std::thread::scope(|s| {
            for _ in 0..workers {
                let (cursor, done, rescore) = (&cursor, &done, &rescore);
                s.spawn(move || {
                    let mut scratch = RescoreScratch::new();
                    let mut ids = Vec::new();
                    let mut local: Vec<(usize, Vec<Neighbor>)> = Vec::new();
                    loop {
                        let qi = cursor.fetch_add(1, Ordering::Relaxed);
                        if qi >= nq {
                            break;
                        }
                        let mut out = Vec::new();
                        rescore(qi, &mut ids, &mut scratch, &mut out);
                        local.push((qi, out));
                    }
                    done.lock()
                        .expect("rerank worker poisoned results")
                        .extend(local);
                });
            }
        });
        for (qi, out) in done.into_inner().expect("rerank worker poisoned results") {
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

    fn round(cluster: usize, nq: usize) -> Round {
        Round {
            cluster,
            cluster_size: 10,
            queries: (0..nq).collect(),
            fetches_codes: true,
        }
    }

    #[test]
    fn waves_cover_every_round_in_order() {
        let rounds: Vec<Round> = (0..23).map(|c| round(c, 1 + c % 5)).collect();
        let s = plan_waves(&rounds, 3, 64);
        assert_eq!(*s.starts.first().unwrap(), 0);
        assert_eq!(*s.starts.last().unwrap(), rounds.len());
        assert!(s.starts.windows(2).all(|w| w[0] < w[1]), "empty wave");
        // Slot offsets are a per-wave prefix sum of round query counts,
        // and the capacity covers the largest wave.
        for w in 0..s.starts.len() - 1 {
            let mut expect = 0usize;
            for (i, r) in rounds
                .iter()
                .enumerate()
                .take(s.starts[w + 1])
                .skip(s.starts[w])
            {
                assert_eq!(s.slot_offset[i], expect, "round {i}");
                expect += r.queries.len();
            }
            assert!(expect <= s.capacity);
        }
    }

    #[test]
    fn waves_respect_the_lut_byte_budget() {
        // Huge per-visit tables force one round per wave.
        let rounds: Vec<Round> = (0..5).map(|c| round(c, 2)).collect();
        let s = plan_waves(&rounds, 8, WAVE_LUT_BUDGET_BYTES);
        assert_eq!(s.starts.len() - 1, rounds.len());
        assert_eq!(s.capacity, 2);
    }

    #[test]
    fn single_round_plans_make_one_wave() {
        let rounds = vec![round(0, 7)];
        let s = plan_waves(&rounds, 4, 64);
        assert_eq!(s.starts, vec![0, 1]);
        assert_eq!(s.capacity, 7);
    }
}
