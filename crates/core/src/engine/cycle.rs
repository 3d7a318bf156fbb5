//! Event-driven cycle-level engine.
//!
//! Where [`crate::engine::analytic`] charges each pipeline stage
//! `max(compute, memory)` in closed form, this engine tracks every module
//! as a resource with an explicit busy-until time and every DRAM transfer
//! through a serializing memory channel, honoring:
//!
//! * the double-buffered encoded-vector buffers (fetch `i` may not start
//!   before the buffer that fetch `i−2` used is released by its scan);
//! * the double-buffered LUT SRAMs (fill `i` waits for scan `i−2`);
//! * the serial CPM (one LUT fill / residual / filter at a time);
//! * streaming scans (a scan cannot finish before its cluster's fetch
//!   finishes, and cannot start before the first buffer-sized chunk has
//!   arrived);
//! * FCFS contention on the single memory channel.
//!
//! The two engines are cross-validated by tests; they are expected to agree
//! within a few percent, with the event-driven engine never faster than
//! the larger of the pure-compute / pure-memory bounds.
//!
//! Because every scan's start, compute duration and end are explicit
//! events, the engine also says *why* the SCMs were idle:
//! [`StallBreakdown::attribute`] splits the scan phase into SCM-busy,
//! waiting-on-LUT, waiting-on-data and drain time in O(rounds) — which is
//! how an architect locates the bottleneck the paper's Section IV-B
//! balance equation talks about.

use anna_plan::{BatchPlan, ScmAllocation, TrafficModel, CLUSTER_META_BYTES, QUERY_ID_BYTES};
use anna_vector::Metric;

use crate::config::AnnaConfig;
use crate::timing::{Activity, BatchWorkload, QueryWorkload, TimingReport, TrafficReport};

/// A serializing DRAM channel delivering `bpc` bytes per cycle.
#[derive(Debug, Clone)]
struct MemChannel {
    free_at: f64,
    bpc: f64,
    bytes_moved: u64,
}

impl MemChannel {
    fn new(bpc: f64) -> Self {
        Self {
            free_at: 0.0,
            bpc,
            bytes_moved: 0,
        }
    }

    /// Issues a transfer that may start at `ready`; returns (start, end).
    fn transfer(&mut self, ready: f64, bytes: u64) -> (f64, f64) {
        let start = ready.max(self.free_at);
        let end = start + bytes as f64 / self.bpc;
        self.free_at = end;
        self.bytes_moved += bytes;
        (start, end)
    }

    /// The channel sums its own transfers; the reports carry the
    /// [`TrafficModel`]'s bytes. The two are computed independently and
    /// must agree — the simulators' leg of predicted == measured.
    fn assert_moved(&self, traffic: &TrafficReport) {
        assert_eq!(
            self.bytes_moved,
            traffic.total(),
            "memory channel moved different bytes than the traffic report prices"
        );
    }
}

/// Simulates one query in baseline mode with `g` SCMs (mirror of
/// [`crate::engine::analytic::single_query`]).
///
/// # Panics
///
/// Panics if the shape is invalid or `g` is out of range.
pub fn single_query(cfg: &AnnaConfig, w: &QueryWorkload, g: usize) -> TimingReport {
    single_query_traced(cfg, w, g).0
}

/// Like [`single_query`], additionally returning one event window per
/// visited cluster (`cluster` is the visit position — a
/// [`QueryWorkload`] carries sizes, not ids).
///
/// # Panics
///
/// Panics if the shape is invalid or `g` is out of range.
pub fn single_query_traced(
    cfg: &AnnaConfig,
    w: &QueryWorkload,
    g: usize,
) -> (TimingReport, Vec<RoundTrace>) {
    w.shape.assert_valid();
    assert!(g > 0 && g <= cfg.n_scm, "g={g} out of range");
    let s = &w.shape;
    let mut mem = MemChannel::new(cfg.bytes_per_cycle());
    let cpv = s.scan_cycles_per_vector(cfg.n_u) as f64;
    let bytes_per_vec = s.encoded_bytes_per_vector() as u64;
    let lut_one = s.lut_fill_cycles(cfg.n_cu);
    let residual = s.d as f64 / cfg.n_cu as f64;

    // Step 1: stream centroids; the CPM consumes them as they arrive.
    let (_, centroid_end) = mem.transfer(0.0, s.centroid_bytes());
    let filter_compute = s.filter_compute_cycles(cfg.n_cu);
    let filter_done = centroid_end.max(filter_compute);
    let mut cpm_free = filter_done;
    let mut cpm_busy = filter_compute;

    // Inner product: single LUT build after filtering.
    let mut ip_lut_done = filter_done;
    if s.metric == Metric::InnerProduct {
        ip_lut_done = cpm_free + lut_one;
        cpm_free = ip_lut_done;
        cpm_busy += lut_one;
    }

    let sizes = &w.visited_cluster_sizes;
    let n = sizes.len();
    let mut scan_end = vec![0.0f64; n];
    let mut fetch_end = vec![0.0f64; n];
    let mut data_ready = vec![0.0f64; n];
    let mut scm_busy = 0.0f64;
    let mut traces: Vec<RoundTrace> = Vec::with_capacity(n);

    for i in 0..n {
        // Encoded-vector buffer double buffering: fetch i waits for the
        // buffer used by fetch i−2.
        let buf_free = if i >= 2 { scan_end[i - 2] } else { filter_done };
        let bytes = sizes[i] as u64 * bytes_per_vec + CLUSTER_META_BYTES;
        let (fs, fe) = mem.transfer(buf_free, bytes);
        fetch_end[i] = fe;
        let first_chunk = (cfg.encoded_buffer_bytes as u64).min(bytes);
        data_ready[i] = fs + first_chunk as f64 / mem.bpc;

        // LUT double buffering: fill i waits for scan i−2; the CPM is
        // serial.
        let lut = match s.metric {
            Metric::L2 => {
                let lut_buf_free = if i >= 2 { scan_end[i - 2] } else { filter_done };
                let start = cpm_free.max(lut_buf_free);
                let dur = lut_one + residual;
                cpm_free = start + dur;
                cpm_busy += dur;
                (start, cpm_free)
            }
            Metric::InnerProduct => (filter_done, ip_lut_done),
        };

        // Scan: needs the SCM group (serial across clusters), the LUT, and
        // the first chunk of data; cannot finish before the fetch does.
        let prev_scan = if i > 0 { scan_end[i - 1] } else { filter_done };
        let start = prev_scan.max(lut.1).max(data_ready[i]);
        let dur = ((sizes[i] as f64) / g as f64).ceil() * cpv;
        scan_end[i] = (start + dur).max(fetch_end[i]);
        scm_busy += dur;
        traces.push(RoundTrace {
            round: i,
            cluster: i,
            queries: 1,
            fetch: Some((fs, fe)),
            lut,
            scan: (start, scan_end[i]),
            compute: dur,
        });
    }

    let after_scans = if n > 0 { scan_end[n - 1] } else { filter_done };
    let merge = if g > 1 {
        (g as f64 - 1.0) * s.k as f64
    } else {
        0.0
    };
    let result_bytes = (s.k * cfg.topk_record_bytes) as u64;
    let (_, end) = mem.transfer(after_scans + merge, result_bytes);

    let code_bytes: u64 = sizes.iter().map(|&z| z as u64 * bytes_per_vec).sum();
    let traffic = TrafficReport {
        centroid_bytes: s.centroid_bytes(),
        cluster_meta_bytes: CLUSTER_META_BYTES * n as u64,
        code_bytes,
        topk_spill_bytes: 0,
        topk_fill_bytes: 0,
        query_list_bytes: 0,
        rerank_candidate_bytes: 0,
        rerank_vector_bytes: 0,
        result_bytes,
    };
    mem.assert_moved(&traffic);
    let compute_cycles = cpm_busy + scm_busy + merge;
    let memory_cycles = traffic.total() as f64 / mem.bpc;

    let report = TimingReport {
        cycles: end,
        filter_cycles: filter_done,
        compute_cycles,
        memory_cycles,
        traffic,
        activity: Activity {
            cpm_cycles: cpm_busy,
            scm_cycles: scm_busy * g as f64,
            topk_inputs: w.vectors_scanned() as f64,
        },
        clusters_fetched: n as u64,
        scan_work: w.vectors_scanned(),
        queries: 1,
    };
    (report, traces)
}

/// One round's event times, for timeline rendering (the executable
/// counterpart of the paper's Figure 7).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTrace {
    /// Round index in schedule order.
    pub round: usize,
    /// Cluster processed.
    pub cluster: usize,
    /// Queries processed this round.
    pub queries: usize,
    /// Code-fetch window (None when the cluster was already buffered).
    pub fetch: Option<(f64, f64)>,
    /// CPM LUT-fill window.
    pub lut: (f64, f64),
    /// SCM scan window.
    pub scan: (f64, f64),
    /// SCM compute cycles inside the scan window (the window is longer
    /// when the scan is throttled by its own code stream).
    pub compute: f64,
}

/// Where the scan phase's cycles went, attributed from the event windows.
///
/// The four SCM parts sum to `cycles − filter_cycles`: every post-filter
/// cycle is exactly one of busy, waiting on a LUT, waiting on data, or
/// drain. A scan that is throttled by its code stream books its compute
/// time as busy and only the excess as a data stall.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StallBreakdown {
    /// Cycles the SCM group spent scoring vectors.
    pub scm_busy: f64,
    /// Cycles stalled on memory: codes (or top-k fills) not yet arrived
    /// before a scan, and the stream still running after its compute.
    pub scm_wait_data: f64,
    /// Cycles stalled because the round's LUTs were not ready.
    pub scm_wait_lut: f64,
    /// Cycles after the last scan (merge, result store).
    pub drain: f64,
    /// Cycles the memory channel was transferring.
    pub mem_busy: f64,
}

impl StallBreakdown {
    /// Attributes the scan phase of `report` from the `rounds` the same
    /// run traced ([`single_query_traced`], [`batch_plan_traced`]).
    ///
    /// The idle gap before a scan is LUT wait up to the LUT window's end
    /// and data wait after it; the tail of a scan window beyond its
    /// compute cycles waits on the fetch, so it is data wait too.
    pub fn attribute(report: &TimingReport, rounds: &[RoundTrace]) -> Self {
        let mut b = Self {
            mem_busy: report.memory_cycles,
            ..Self::default()
        };
        let mut prev_end = report.filter_cycles;
        for r in rounds {
            let (start, end) = r.scan;
            let gap = start - prev_end;
            let wait_lut = (r.lut.1 - prev_end).clamp(0.0, gap);
            b.scm_wait_lut += wait_lut;
            b.scm_wait_data += (gap - wait_lut) + (end - start - r.compute);
            b.scm_busy += r.compute;
            prev_end = end;
        }
        b.drain = report.cycles - prev_end;
        b
    }
}

/// Simulates a memory-traffic-optimized batch (mirror of
/// [`crate::engine::analytic::batch`]).
///
/// # Panics
///
/// Panics if the shape is invalid or the allocation is inconsistent.
pub fn batch(cfg: &AnnaConfig, w: &BatchWorkload, alloc: ScmAllocation) -> TimingReport {
    batch_traced(cfg, w, alloc).0
}

/// Simulates a batch executing an explicit, pre-computed [`BatchPlan`]
/// (the shared IR; see [`crate::engine::analytic::batch_plan`]).
///
/// # Panics
///
/// Panics if the shape is invalid or the plan references queries outside
/// the workload.
pub fn batch_plan(cfg: &AnnaConfig, w: &BatchWorkload, plan: &BatchPlan) -> TimingReport {
    batch_plan_traced(cfg, w, plan).0
}

/// Like [`fn@batch`], additionally returning per-round event windows — the
/// data behind the paper's Figure 7 steady-state timeline.
///
/// # Panics
///
/// Panics if the shape is invalid or the allocation is inconsistent.
pub fn batch_traced(
    cfg: &AnnaConfig,
    w: &BatchWorkload,
    alloc: ScmAllocation,
) -> (TimingReport, Vec<RoundTrace>) {
    let plan = anna_plan::plan(&cfg.plan_params(), w, alloc);
    batch_plan_traced(cfg, w, &plan)
}

/// Like [`fn@batch_plan`], additionally returning per-round event windows.
///
/// # Panics
///
/// Panics if the shape is invalid, the plan references queries outside
/// the workload, or the plan carries a re-rank stage (this engine does
/// not move second-phase bytes, so its channel would disagree with the
/// priced report).
pub fn batch_plan_traced(
    cfg: &AnnaConfig,
    w: &BatchWorkload,
    plan: &BatchPlan,
) -> (TimingReport, Vec<RoundTrace>) {
    w.shape.assert_valid();
    let s = &w.shape;
    let g = plan.scm_per_query;
    let b = w.b();
    let mut mem = MemChannel::new(cfg.bytes_per_cycle());
    let cpv = s.scan_cycles_per_vector(cfg.n_u) as f64;
    let bytes_per_vec = s.encoded_bytes_per_vector() as u64;
    let lut_one = s.lut_fill_cycles(cfg.n_cu)
        + match s.metric {
            Metric::L2 => s.d as f64 / cfg.n_cu as f64,
            Metric::InnerProduct => 0.0,
        };

    // Phase 1: batched cluster filtering + query-list writes.
    let (_, centroid_end) = mem.transfer(0.0, s.centroid_bytes());
    let total_visits = w.total_visits();
    let (_, list_end) = mem.transfer(centroid_end, total_visits * QUERY_ID_BYTES);
    let filter_compute = s.filter_compute_cycles(cfg.n_cu) * b as f64;
    let filter_done = list_end.max(filter_compute);
    let mut cpm_free = filter_done;
    let mut cpm_busy = filter_compute;

    // Read the lists back for scheduling (overlapped with first fetches).
    let (_, _lists_read_end) = mem.transfer(filter_done, total_visits * QUERY_ID_BYTES);

    let rounds = &plan.rounds;
    let n = rounds.len();
    let mut scan_end = vec![0.0f64; n];
    let mut scm_busy = 0.0f64;
    // Per-round fill/spill counts come from the plan itself, so the
    // simulated transfers price exactly what the `TrafficModel` predicts.
    let topk_units = plan.round_topk_units();

    // Fetch-order double buffering: map each fetching round to its fetch
    // index and remember when the cluster occupying that buffer is
    // released (after the last round scanning it).
    let mut fetch_release: Vec<f64> = Vec::new(); // release time per fetch idx
    let mut fetch_idx_of_round = vec![usize::MAX; n];
    let mut last_round_of_fetch: Vec<usize> = Vec::new();
    {
        let mut fi = 0usize;
        for (ri, r) in rounds.iter().enumerate() {
            if r.fetches_codes {
                fetch_idx_of_round[ri] = fi;
                last_round_of_fetch.push(ri);
                fi += 1;
            } else {
                *last_round_of_fetch
                    .last_mut()
                    .expect("non-fetching first round") = ri;
                fetch_idx_of_round[ri] = fi - 1;
            }
        }
        fetch_release.resize(fi, 0.0);
    }

    let mut data_ready = vec![0.0f64; n]; // per round: cluster data usable
    let mut fetch_end_of = vec![0.0f64; n];
    let mut spill_bytes = 0u64;
    let mut fill_bytes = 0u64;
    let mut code_bytes = 0u64;
    let mut meta_bytes = 0u64;
    let mut topk_inputs = 0.0f64;
    let mut prev_scan_start = filter_done;
    let mut traces: Vec<RoundTrace> = Vec::with_capacity(n);
    // Spill of round r is issued after round r+1's prefetch so that the
    // EFM's next-cluster prefetch is not blocked behind a transfer that
    // cannot start until the current scan ends (the MAI arbitrates; a
    // not-yet-ready spill must not head-of-line-block the stream).
    let mut pending_spill: Option<(f64, u64)> = None;

    for ri in 0..n {
        let r = &rounds[ri];
        let fi = fetch_idx_of_round[ri];
        let mut fetch_window = None;

        if r.fetches_codes {
            // Wait for the buffer two fetches back.
            let buf_free = if fi >= 2 {
                // Release = scan end of the last round of fetch fi−2.
                fetch_release[fi - 2]
            } else {
                filter_done
            };
            let bytes = r.cluster_size as u64 * bytes_per_vec + CLUSTER_META_BYTES;
            let (fs, fe) = mem.transfer(buf_free, bytes);
            let first_chunk = (cfg.encoded_buffer_bytes as u64).min(bytes);
            data_ready[ri] = fs + first_chunk as f64 / mem.bpc;
            fetch_end_of[ri] = fe;
            code_bytes += r.cluster_size as u64 * bytes_per_vec;
            meta_bytes += CLUSTER_META_BYTES;
            fetch_window = Some((fs, fe));
        } else {
            // Same buffer as the previous round of this cluster.
            data_ready[ri] = data_ready[ri - 1];
            fetch_end_of[ri] = fetch_end_of[ri - 1];
        }

        // Previous round's spill goes out behind this round's prefetch.
        if let Some((ready, bytes)) = pending_spill.take() {
            mem.transfer(ready, bytes);
        }

        // Top-k fills for queries resuming in this round.
        let mut fill_end = filter_done;
        let fill_bytes_total = topk_units[ri].0 * plan.spill_unit_bytes;
        if fill_bytes_total > 0 {
            // The top-k unit keeps two buffer sets (Section III-B(4)): the
            // shadow set can fill from memory while the previous round's
            // scan still uses the active set, so the fill is issued as
            // soon as the previous scan *begins*.
            let (_, fe) = mem.transfer(prev_scan_start, fill_bytes_total);
            fill_end = fe;
            fill_bytes += fill_bytes_total;
        }

        // LUT fills for this round (double buffer: waits for scan ri−2).
        let lut_buf_free = if ri >= 2 {
            scan_end[ri - 2]
        } else {
            filter_done
        };
        let lut_dur = r.queries.len() as f64 * lut_one;
        let lut_start = cpm_free.max(lut_buf_free);
        let lut_end = lut_start + lut_dur;
        cpm_free = lut_end;
        cpm_busy += lut_dur;

        // Scan.
        let prev = if ri > 0 {
            scan_end[ri - 1]
        } else {
            filter_done
        };
        let start = prev.max(lut_end).max(data_ready[ri]).max(fill_end);
        let dur = ((r.cluster_size as f64) / g as f64).ceil() * cpv;
        scan_end[ri] = (start + dur).max(fetch_end_of[ri]);
        scm_busy += dur;
        prev_scan_start = start;
        traces.push(RoundTrace {
            round: ri,
            cluster: r.cluster,
            queries: r.queries.len(),
            fetch: fetch_window,
            lut: (lut_start, lut_end),
            scan: (start, scan_end[ri]),
            compute: dur,
        });
        topk_inputs += r.cluster_size as f64 * r.queries.len() as f64;

        // Record buffer release (last round of this fetch).
        if last_round_of_fetch[fi] == ri {
            fetch_release[fi] = scan_end[ri];
        }

        // Spills for queries that will resume later (issued next
        // iteration, behind the following prefetch).
        let spill_total = topk_units[ri].1 * plan.spill_unit_bytes;
        if spill_total > 0 {
            pending_spill = Some((scan_end[ri], spill_total));
            spill_bytes += spill_total;
        }
    }
    if let Some((ready, bytes)) = pending_spill.take() {
        mem.transfer(ready, bytes);
    }

    let after = if n > 0 { scan_end[n - 1] } else { filter_done };
    let merge = if g > 1 {
        b as f64 * (g as f64 - 1.0) * s.k as f64 / plan.queries_per_round as f64
    } else {
        0.0
    };
    let traffic = TrafficModel::new(cfg.plan_params()).price(w, plan);
    let (_, end) = mem.transfer(after + merge, traffic.result_bytes);

    // The simulated transfers must have moved exactly the priced bytes.
    mem.assert_moved(&traffic);
    debug_assert_eq!(code_bytes, traffic.code_bytes);
    debug_assert_eq!(meta_bytes, traffic.cluster_meta_bytes);
    debug_assert_eq!(spill_bytes, traffic.topk_spill_bytes);
    debug_assert_eq!(fill_bytes, traffic.topk_fill_bytes);

    let compute_cycles = cpm_busy + scm_busy + merge;
    let memory_cycles = traffic.total() as f64 / mem.bpc;

    let report = TimingReport {
        cycles: end,
        filter_cycles: filter_done,
        compute_cycles,
        memory_cycles,
        traffic,
        activity: Activity {
            cpm_cycles: cpm_busy,
            scm_cycles: rounds
                .iter()
                .map(|r| {
                    ((r.cluster_size as f64) / g as f64).ceil() * cpv * (r.queries.len() * g) as f64
                })
                .sum(),
            topk_inputs,
        },
        clusters_fetched: plan.clusters_fetched(),
        scan_work: plan.total_scan_work(),
        queries: b,
    };
    (report, traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::analytic;
    use crate::timing::SearchShape;

    fn shape(metric: Metric, num_clusters: usize) -> SearchShape {
        SearchShape {
            d: 128,
            m: 64,
            kstar: 256,
            metric,
            num_clusters,
            k: 1000,
        }
    }

    #[test]
    fn single_query_agrees_with_analytic() {
        let cfg = AnnaConfig::paper();
        for metric in [Metric::L2, Metric::InnerProduct] {
            for &(w, size) in &[(8usize, 10_000usize), (32, 100_000), (128, 1_000)] {
                let q = QueryWorkload {
                    shape: shape(metric, 10_000),
                    visited_cluster_sizes: vec![size; w],
                };
                let a = analytic::single_query(&cfg, &q, 16);
                let c = single_query(&cfg, &q, 16);
                let ratio = c.cycles / a.cycles;
                assert!(
                    (0.8..1.25).contains(&ratio),
                    "{metric} W={w} size={size}: cycle {} vs analytic {} (ratio {ratio})",
                    c.cycles,
                    a.cycles
                );
                // The engines price a single query independently (neither
                // goes through the `TrafficModel`), so the whole report
                // agreeing is a real cross-check.
                assert_eq!(c.traffic, a.traffic);
            }
        }
    }

    #[test]
    fn batch_agrees_with_analytic() {
        let cfg = AnnaConfig::paper();
        let s = shape(Metric::L2, 100);
        let w = BatchWorkload {
            shape: s,
            cluster_sizes: vec![20_000; 100],
            visits: (0..128)
                .map(|q| (0..8).map(|i| (q * 3 + i) % 100).collect())
                .collect(),
        };
        let a = analytic::batch(&cfg, &w, ScmAllocation::InterQuery);
        let c = batch(&cfg, &w, ScmAllocation::InterQuery);
        let ratio = c.cycles / a.cycles;
        assert!(
            (0.75..1.35).contains(&ratio),
            "cycle {} vs analytic {} (ratio {ratio})",
            c.cycles,
            a.cycles
        );
        assert_eq!(c.traffic.code_bytes, a.traffic.code_bytes);
        assert_eq!(c.traffic.topk_spill_bytes, a.traffic.topk_spill_bytes);
        assert_eq!(c.traffic.topk_fill_bytes, a.traffic.topk_fill_bytes);
    }

    #[test]
    fn never_beats_memory_bound() {
        let cfg = AnnaConfig::paper();
        let q = QueryWorkload {
            shape: shape(Metric::L2, 10_000),
            visited_cluster_sizes: vec![100_000; 32],
        };
        let r = single_query(&cfg, &q, 16);
        assert!(r.cycles + 1e-6 >= r.memory_cycles);
    }

    #[test]
    fn more_bandwidth_is_never_slower() {
        let slow = AnnaConfig {
            mem_bandwidth_gbps: 32.0,
            ..AnnaConfig::paper()
        };
        let fast = AnnaConfig {
            mem_bandwidth_gbps: 128.0,
            ..AnnaConfig::paper()
        };
        let q = QueryWorkload {
            shape: shape(Metric::L2, 10_000),
            visited_cluster_sizes: vec![100_000; 32],
        };
        let rs = single_query(&slow, &q, 16);
        let rf = single_query(&fast, &q, 16);
        assert!(rf.cycles <= rs.cycles);
    }

    #[test]
    fn double_buffering_overlaps_fetch_with_scan() {
        // With g = 1, scan time per cluster equals fetch time per cluster
        // (1 cycle/vector each way); double buffering should give close to
        // max(total_scan, total_fetch) rather than their sum.
        let cfg = AnnaConfig::paper();
        let q = QueryWorkload {
            shape: shape(Metric::InnerProduct, 10_000),
            visited_cluster_sizes: vec![50_000; 16],
        };
        let r = single_query(&cfg, &q, 1);
        let scan_total = 16.0 * 50_000.0; // 1 cycle per vector
        let fetch_total = 16.0 * 50_000.0 * 64.0 / cfg.bytes_per_cycle();
        let serial = scan_total + fetch_total + r.filter_cycles;
        assert!(
            r.cycles < 0.7 * serial,
            "no overlap visible: {} vs serial {serial}",
            r.cycles
        );
    }

    fn query(metric: Metric, w: usize, size: usize) -> QueryWorkload {
        QueryWorkload {
            shape: shape(metric, 10_000),
            visited_cluster_sizes: vec![size; w],
        }
    }

    fn assert_covers_scan_phase(r: &TimingReport, st: &StallBreakdown) {
        let scan_phase = r.cycles - r.filter_cycles;
        let attributed = st.scm_busy + st.scm_wait_data + st.scm_wait_lut + st.drain;
        assert!(
            (attributed - scan_phase).abs() <= 1e-9 * scan_phase,
            "every scan-phase cycle must be attributed: {attributed} vs {scan_phase}"
        );
        for part in [st.scm_busy, st.scm_wait_data, st.scm_wait_lut, st.drain] {
            assert!(part >= -1e-6, "negative attribution: {st:?}");
        }
    }

    #[test]
    fn attribution_covers_the_scan_phase() {
        let cfg = AnnaConfig::paper();
        for metric in [Metric::L2, Metric::InnerProduct] {
            for g in [1usize, 4, 16] {
                let (r, rounds) = single_query_traced(&cfg, &query(metric, 8, 50_000), g);
                assert_covers_scan_phase(&r, &StallBreakdown::attribute(&r, &rounds));
            }
        }
        let w = BatchWorkload {
            shape: shape(Metric::L2, 64),
            cluster_sizes: vec![20_000; 64],
            visits: (0..48)
                .map(|q| {
                    let mut v: Vec<usize> = (0..4).map(|i| (q * 7 + i * 11) % 64).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect(),
        };
        for alloc in [
            ScmAllocation::InterQuery,
            ScmAllocation::IntraQuery { scm_per_query: 4 },
            ScmAllocation::Auto,
        ] {
            let (r, rounds) = batch_traced(&cfg, &w, alloc);
            assert_covers_scan_phase(&r, &StallBreakdown::attribute(&r, &rounds));
        }
    }

    #[test]
    fn memory_bound_run_is_data_stalled() {
        // Big clusters, wide SCM group: the scan waits on the stream.
        let cfg = AnnaConfig::paper();
        let (r, rounds) = single_query_traced(&cfg, &query(Metric::L2, 8, 100_000), 16);
        let st = StallBreakdown::attribute(&r, &rounds);
        assert!(
            st.scm_wait_data > st.scm_busy,
            "expected data stalls to dominate: {st:?}"
        );
        assert!(
            st.mem_busy / r.cycles > 0.8,
            "memory should be nearly saturated"
        );
    }

    #[test]
    fn compute_bound_run_keeps_scm_busy() {
        // Narrow reduction tree and a single SCM: compute dominates.
        let cfg = AnnaConfig {
            n_u: 8,
            ..AnnaConfig::paper()
        };
        let (r, rounds) = single_query_traced(&cfg, &query(Metric::L2, 8, 50_000), 1);
        let st = StallBreakdown::attribute(&r, &rounds);
        assert!(
            st.scm_busy > 4.0 * st.scm_wait_data,
            "expected SCM-busy to dominate: {st:?}"
        );
    }

    #[test]
    fn batched_l2_shows_lut_pressure_with_many_queries_per_round() {
        // Many queries per round at L2 means the CPM must fill many LUTs
        // per round; with a slow CPM the scan stalls on LUTs.
        let slow_cpm = AnnaConfig {
            n_cu: 4,
            ..AnnaConfig::paper()
        };
        let w = BatchWorkload {
            shape: shape(Metric::L2, 10_000),
            cluster_sizes: vec![2_000; 8],
            visits: (0..64).map(|q| vec![q % 8]).collect(),
        };
        let (r, rounds) = batch_traced(&slow_cpm, &w, ScmAllocation::InterQuery);
        let st = StallBreakdown::attribute(&r, &rounds);
        assert!(
            st.scm_wait_lut > st.scm_busy,
            "expected LUT stalls to dominate with a 4-unit CPM: {st:?}"
        );
    }

    #[test]
    fn ip_waits_on_the_lut_only_for_the_shared_build() {
        let cfg = AnnaConfig::paper();
        let (r, rounds) = single_query_traced(&cfg, &query(Metric::InnerProduct, 8, 30_000), 16);
        let st = StallBreakdown::attribute(&r, &rounds);
        let ip_lut = 128.0 * 256.0 / 96.0;
        assert!(
            st.scm_wait_lut <= ip_lut + 1e-6,
            "unexpected LUT stalls: {st:?}"
        );
    }
}
