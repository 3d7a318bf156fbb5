//! Closed-form timing engine, implementing the paper's cycle formulas
//! (Sections III-B and IV-B) with double-buffered overlap.
//!
//! Cross-validated against the event-driven [`crate::engine::cycle`]
//! engine; integration tests assert the two agree within a few percent.

use anna_plan::{BatchPlan, ScmAllocation, TrafficModel, CLUSTER_META_BYTES, QUERY_ID_BYTES};
use anna_vector::Metric;

use crate::config::AnnaConfig;
use crate::timing::{Activity, BatchWorkload, QueryWorkload, TimingReport, TrafficReport};

/// Times one query in the baseline (non-batched) mode, with `g` SCMs
/// assigned to the query (intra-query parallelism; `g = 1` uses a single
/// SCM).
///
/// The pipeline follows Section III-A: cluster filtering first, then the
/// per-cluster loop in which the SCM scans cluster `i` while the CPM builds
/// the (L2) lookup table for cluster `i+1` and the EFM prefetches cluster
/// `i+1`'s codes — both double-buffered.
///
/// # Panics
///
/// Panics if the shape is invalid, `g` is zero or exceeds `N_SCM`.
pub fn single_query(cfg: &AnnaConfig, w: &QueryWorkload, g: usize) -> TimingReport {
    w.shape.assert_valid();
    assert!(
        g > 0 && g <= cfg.n_scm,
        "g={g} out of range (N_SCM={})",
        cfg.n_scm
    );
    let s = &w.shape;
    let bpc = cfg.bytes_per_cycle();
    let cpv = s.scan_cycles_per_vector(cfg.n_u) as f64;
    let bytes_per_vec = s.encoded_bytes_per_vector() as u64;
    let lut_fill = s.lut_fill_cycles(cfg.n_cu);
    // Residual computation (Mode 2) precedes every L2 LUT fill: D/N_cu.
    let residual = s.d as f64 / cfg.n_cu as f64;
    let per_cluster_lut = match s.metric {
        Metric::L2 => lut_fill + residual,
        Metric::InnerProduct => 0.0,
    };

    // --- Step 1: cluster filtering -------------------------------------
    let filter_compute = s.filter_compute_cycles(cfg.n_cu);
    let centroid_bytes = s.centroid_bytes();
    let filter_cycles = filter_compute.max(centroid_bytes as f64 / bpc);

    // --- Steps 2 & 3: per-cluster pipeline ------------------------------
    let sizes = &w.visited_cluster_sizes;
    let nvisits = sizes.len();
    let scan = |size: usize| ((size as f64) / g as f64).ceil() * cpv;
    let fetch_bytes = |size: usize| size as u64 * bytes_per_vec + CLUSTER_META_BYTES;

    // One-off inner-product LUT build (cluster-invariant).
    let ip_lut = match s.metric {
        Metric::InnerProduct => lut_fill,
        Metric::L2 => 0.0,
    };

    let mut scan_phase = 0.0f64;
    if nvisits > 0 {
        // Prologue: fill the first LUT while fetching the first cluster.
        let first_lut = match s.metric {
            Metric::L2 => per_cluster_lut,
            Metric::InnerProduct => 0.0,
        };
        scan_phase += first_lut.max(fetch_bytes(sizes[0]) as f64 / bpc);
        for i in 0..nvisits {
            let next_lut = if i + 1 < nvisits {
                per_cluster_lut
            } else {
                0.0
            };
            let next_fetch = if i + 1 < nvisits {
                fetch_bytes(sizes[i + 1]) as f64 / bpc
            } else {
                0.0
            };
            scan_phase += scan(sizes[i]).max(next_lut).max(next_fetch);
        }
    }

    // Epilogue: merge g partial top-k units and store the result.
    let merge = if g > 1 {
        (g as f64 - 1.0) * s.k as f64
    } else {
        0.0
    };
    let result_bytes = (s.k * cfg.topk_record_bytes) as u64;

    let code_bytes: u64 = sizes.iter().map(|&z| z as u64 * bytes_per_vec).sum();
    let traffic = TrafficReport {
        centroid_bytes,
        cluster_meta_bytes: CLUSTER_META_BYTES * nvisits as u64,
        code_bytes,
        topk_spill_bytes: 0,
        topk_fill_bytes: 0,
        query_list_bytes: 0,
        rerank_candidate_bytes: 0,
        rerank_vector_bytes: 0,
        result_bytes,
    };

    let scan_demand: f64 = sizes.iter().map(|&z| scan(z)).sum();
    let lut_demand = ip_lut + per_cluster_lut * nvisits as f64;
    let compute_cycles = filter_compute + lut_demand + scan_demand + merge;
    let memory_cycles = traffic.total() as f64 / bpc;

    let cycles = filter_cycles + ip_lut + scan_phase + merge + result_bytes as f64 / bpc;

    TimingReport {
        cycles,
        filter_cycles,
        compute_cycles,
        memory_cycles,
        traffic,
        activity: Activity {
            cpm_cycles: filter_compute + lut_demand,
            scm_cycles: scan_demand * g as f64,
            topk_inputs: w.vectors_scanned() as f64,
        },
        clusters_fetched: nvisits as u64,
        scan_work: w.vectors_scanned(),
        queries: 1,
    }
}

/// Times one query with double buffering **disabled** — every stage
/// serializes: fetch cluster `i`, then build its LUT, then scan it, with
/// no overlap. The ablation counterpart of [`single_query`], quantifying
/// what Section III-A's "overlaps lookup table construction on the CPM
/// and similarity computation on the SCM through double buffering" buys.
///
/// # Panics
///
/// Panics if the shape is invalid or `g` is out of range.
pub fn single_query_unbuffered(cfg: &AnnaConfig, w: &QueryWorkload, g: usize) -> TimingReport {
    w.shape.assert_valid();
    assert!(
        g > 0 && g <= cfg.n_scm,
        "g={g} out of range (N_SCM={})",
        cfg.n_scm
    );
    let s = &w.shape;
    let bpc = cfg.bytes_per_cycle();
    let cpv = s.scan_cycles_per_vector(cfg.n_u) as f64;
    let bytes_per_vec = s.encoded_bytes_per_vector() as u64;
    let lut_fill = s.lut_fill_cycles(cfg.n_cu);
    let residual = s.d as f64 / cfg.n_cu as f64;

    let filter_compute = s.filter_compute_cycles(cfg.n_cu);
    // Without overlap even the filter serializes: stream, then compute.
    let filter_cycles = s.centroid_bytes() as f64 / bpc + filter_compute;

    let ip_lut = match s.metric {
        Metric::InnerProduct => lut_fill,
        Metric::L2 => 0.0,
    };
    let per_cluster_lut = match s.metric {
        Metric::L2 => lut_fill + residual,
        Metric::InnerProduct => 0.0,
    };

    let mut scan_phase = ip_lut;
    let mut scan_demand = 0.0;
    for &size in &w.visited_cluster_sizes {
        let fetch = (size as u64 * bytes_per_vec + CLUSTER_META_BYTES) as f64 / bpc;
        let scan = ((size as f64) / g as f64).ceil() * cpv;
        scan_phase += fetch + per_cluster_lut + scan;
        scan_demand += scan;
    }
    let merge = if g > 1 {
        (g as f64 - 1.0) * s.k as f64
    } else {
        0.0
    };
    let result_bytes = (s.k * cfg.topk_record_bytes) as u64;

    let nvisits = w.visited_cluster_sizes.len();
    let code_bytes: u64 = w
        .visited_cluster_sizes
        .iter()
        .map(|&z| z as u64 * bytes_per_vec)
        .sum();
    let traffic = TrafficReport {
        centroid_bytes: s.centroid_bytes(),
        cluster_meta_bytes: CLUSTER_META_BYTES * nvisits as u64,
        code_bytes,
        topk_spill_bytes: 0,
        topk_fill_bytes: 0,
        query_list_bytes: 0,
        rerank_candidate_bytes: 0,
        rerank_vector_bytes: 0,
        result_bytes,
    };
    let lut_demand = ip_lut + per_cluster_lut * nvisits as f64;
    TimingReport {
        cycles: filter_cycles + scan_phase + merge + result_bytes as f64 / bpc,
        filter_cycles,
        compute_cycles: filter_compute + lut_demand + scan_demand + merge,
        memory_cycles: traffic.total() as f64 / bpc,
        traffic,
        activity: Activity {
            cpm_cycles: filter_compute + lut_demand,
            scm_cycles: scan_demand * g as f64,
            topk_inputs: w.vectors_scanned() as f64,
        },
        clusters_fetched: nvisits as u64,
        scan_work: w.vectors_scanned(),
        queries: 1,
    }
}

/// Times `B` queries processed one at a time (ANNA **without** the memory
/// traffic optimization — the baseline side of the Section V-B comparison).
pub fn sequential_queries(cfg: &AnnaConfig, workloads: &[QueryWorkload], g: usize) -> TimingReport {
    let mut total = TimingReport {
        cycles: 0.0,
        filter_cycles: 0.0,
        compute_cycles: 0.0,
        memory_cycles: 0.0,
        traffic: TrafficReport::default(),
        activity: Activity::default(),
        clusters_fetched: 0,
        scan_work: 0,
        queries: 0,
    };
    for w in workloads {
        let r = single_query(cfg, w, g);
        total.cycles += r.cycles;
        total.filter_cycles += r.filter_cycles;
        total.compute_cycles += r.compute_cycles;
        total.memory_cycles += r.memory_cycles;
        total.traffic.centroid_bytes += r.traffic.centroid_bytes;
        total.traffic.cluster_meta_bytes += r.traffic.cluster_meta_bytes;
        total.traffic.code_bytes += r.traffic.code_bytes;
        total.traffic.topk_spill_bytes += r.traffic.topk_spill_bytes;
        total.traffic.topk_fill_bytes += r.traffic.topk_fill_bytes;
        total.traffic.query_list_bytes += r.traffic.query_list_bytes;
        total.traffic.result_bytes += r.traffic.result_bytes;
        total.activity.cpm_cycles += r.activity.cpm_cycles;
        total.activity.scm_cycles += r.activity.scm_cycles;
        total.activity.topk_inputs += r.activity.topk_inputs;
        total.clusters_fetched += r.clusters_fetched;
        total.scan_work += r.scan_work;
        total.queries += 1;
    }
    total
}

/// Times a batch under the memory-traffic-optimized, cluster-major
/// schedule (Section IV-B and Figure 7).
///
/// In the steady state, while the SCMs score round `r`, the CPM fills
/// round `r+1`'s lookup tables (`queries·D·k*/N_cu` cycles) and the memory
/// system moves round `r+1`'s data (top-k spill/fill at 5 B per record plus
/// the next cluster's codes when it changes). Each stage therefore costs
/// `max(scan_r, lut_{r+1}, mem_{r+1}/bpc)` cycles.
///
/// # Panics
///
/// Panics if the shape is invalid or the allocation is inconsistent with
/// `N_SCM`.
pub fn batch(cfg: &AnnaConfig, w: &BatchWorkload, alloc: ScmAllocation) -> TimingReport {
    let plan = anna_plan::plan(&cfg.plan_params(), w, alloc);
    batch_plan(cfg, w, &plan)
}

/// Times a batch executing an explicit, pre-computed [`BatchPlan`] — the
/// shared IR also consumed by the software batch engine, the
/// event-driven simulator, and the functional accelerator. The traffic side of
/// the report is priced by [`TrafficModel`] on the same plan, so predicted
/// and simulated bytes are equal by construction.
///
/// # Panics
///
/// Panics if the shape is invalid or the plan references queries outside
/// the workload.
pub fn batch_plan(cfg: &AnnaConfig, w: &BatchWorkload, plan: &BatchPlan) -> TimingReport {
    w.shape.assert_valid();
    let s = &w.shape;
    let g = plan.scm_per_query;
    let b = w.b();
    let bpc = cfg.bytes_per_cycle();
    let cpv = s.scan_cycles_per_vector(cfg.n_u) as f64;
    let bytes_per_vec = s.encoded_bytes_per_vector() as u64;
    let lut_fill_one = s.lut_fill_cycles(cfg.n_cu)
        + match s.metric {
            Metric::L2 => s.d as f64 / cfg.n_cu as f64, // residual step
            Metric::InnerProduct => 0.0,
        };

    // --- Phase 1: cluster filtering for the whole batch -----------------
    // Centroids stream once and are scored against every query on-chip;
    // selected cluster ids are appended to the per-cluster query lists in
    // main memory (3 B per record, written then read back by the
    // scheduler).
    let filter_compute = s.filter_compute_cycles(cfg.n_cu) * b as f64;
    let total_visits = w.total_visits();
    let filter_mem = s.centroid_bytes() + total_visits * QUERY_ID_BYTES;
    let filter_cycles = filter_compute.max(filter_mem as f64 / bpc);

    // --- Phase 2: cluster-major rounds ----------------------------------
    // Per-round quantities. Spill/fill traffic: a query's partial top-k is
    // filled from memory unless this is its first round, and spilled back
    // unless it is its last; the plan prices each direction at
    // `spill_unit_bytes` (the query's `g` SCM-partitions each hold their
    // own k-entry unit).
    let rounds = &plan.rounds;
    let n_rounds = rounds.len();
    let topk_units = plan.round_topk_units();

    let mut scan_cycles_r = Vec::with_capacity(n_rounds);
    let mut lut_cycles_r = Vec::with_capacity(n_rounds);
    let mut mem_bytes_r = Vec::with_capacity(n_rounds);
    let mut topk_inputs = 0f64;

    for (r, &(fills, spills)) in rounds.iter().zip(&topk_units) {
        let nq = r.queries.len() as f64;
        scan_cycles_r.push(((r.cluster_size as f64) / g as f64).ceil() * cpv);
        lut_cycles_r.push(nq * lut_fill_one);
        let mut bytes = (fills + spills) * plan.spill_unit_bytes;
        if r.fetches_codes {
            bytes += r.cluster_size as u64 * bytes_per_vec + CLUSTER_META_BYTES;
        }
        mem_bytes_r.push(bytes);
        topk_inputs += r.cluster_size as f64 * nq;
    }

    // Steady-state pipeline: stage r overlaps scan(r) with lut(r+1) and
    // mem(r+1).
    let mut scan_phase = 0.0f64;
    if n_rounds > 0 {
        scan_phase += lut_cycles_r[0].max(mem_bytes_r[0] as f64 / bpc); // prologue
        for r in 0..n_rounds {
            let next_lut = if r + 1 < n_rounds {
                lut_cycles_r[r + 1]
            } else {
                0.0
            };
            let next_mem = if r + 1 < n_rounds {
                mem_bytes_r[r + 1] as f64 / bpc
            } else {
                0.0
            };
            scan_phase += scan_cycles_r[r].max(next_lut).max(next_mem);
        }
    }

    // Epilogue: per-query merge of g partial units (groups work in
    // parallel) and the final result store.
    let merge = if g > 1 {
        b as f64 * (g as f64 - 1.0) * s.k as f64 / plan.queries_per_round as f64
    } else {
        0.0
    };

    let traffic = TrafficModel::new(cfg.plan_params()).price(w, plan);
    let result_bytes = traffic.result_bytes;

    let scan_demand: f64 = scan_cycles_r.iter().sum();
    let lut_demand: f64 = lut_cycles_r.iter().sum();
    let compute_cycles = filter_compute + lut_demand + scan_demand + merge;
    let memory_cycles = traffic.total() as f64 / bpc;
    let cycles = filter_cycles + scan_phase + merge + result_bytes as f64 / bpc;

    // Check every query was scheduled for all of its visits.
    debug_assert_eq!(
        rounds.iter().map(|r| r.queries.len() as u64).sum::<u64>(),
        total_visits
    );

    TimingReport {
        cycles,
        filter_cycles,
        compute_cycles,
        memory_cycles,
        traffic,
        activity: Activity {
            cpm_cycles: filter_compute + lut_demand,
            scm_cycles: rounds
                .iter()
                .zip(&scan_cycles_r)
                .map(|(r, &sc)| sc * (r.queries.len() * g) as f64)
                .sum(),
            topk_inputs,
        },
        clusters_fetched: plan.clusters_fetched(),
        scan_work: plan.total_scan_work(),
        queries: b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::SearchShape;

    fn shape(metric: Metric) -> SearchShape {
        SearchShape {
            d: 128,
            m: 64,
            kstar: 256,
            metric,
            num_clusters: 10_000,
            k: 1000,
        }
    }

    fn query(metric: Metric, w: usize, size: usize) -> QueryWorkload {
        QueryWorkload {
            shape: shape(metric),
            visited_cluster_sizes: vec![size; w],
        }
    }

    #[test]
    fn single_query_lower_bounds_hold() {
        let cfg = AnnaConfig::paper();
        let q = query(Metric::L2, 32, 100_000);
        let r = single_query(&cfg, &q, 16);
        // Total time can never beat either pure-compute or pure-memory.
        assert!(r.cycles + 1e-6 >= r.memory_cycles * 0.99);
        assert!(r.cycles * 16.0 + 1e-6 >= r.compute_cycles * 0.99);
        assert_eq!(r.queries, 1);
    }

    #[test]
    fn billion_scale_latency_is_sub_millisecond() {
        // The paper: "ANNA achieves high recall (0.9+) at sub-ms latency in
        // billion-scale datasets". At W=8 the query streams
        // 8 × 100k × 64 B ≈ 51 MB, i.e. ~0.8 ms at 64 GB/s — sub-ms; at
        // W=32 the stream alone exceeds 1 ms, so the paper's point sits at
        // moderate W.
        let cfg = AnnaConfig::paper();
        let q = query(Metric::L2, 8, 100_000);
        let r = single_query(&cfg, &q, 16);
        let latency = r.latency_seconds(&cfg);
        assert!(latency < 1e-3, "latency {latency}s not sub-ms");
        assert!(latency > 1e-5, "latency {latency}s implausibly fast");
    }

    #[test]
    fn ip_skips_per_cluster_lut_rebuild() {
        let cfg = AnnaConfig::paper();
        let l2 = single_query(&cfg, &query(Metric::L2, 64, 1000), 1);
        let ip = single_query(&cfg, &query(Metric::InnerProduct, 64, 1000), 1);
        assert!(
            ip.activity.cpm_cycles < l2.activity.cpm_cycles,
            "IP should do less CPM work ({} vs {})",
            ip.activity.cpm_cycles,
            l2.activity.cpm_cycles
        );
    }

    #[test]
    fn intra_query_parallelism_cuts_latency() {
        // Use a compute-bound configuration (narrow reduction tree) so the
        // scan dominates; then splitting the cluster across 16 SCMs must
        // pay off. In memory-bound regimes g barely matters — also checked.
        let narrow = AnnaConfig {
            n_u: 8,
            ..AnnaConfig::paper()
        };
        let q = query(Metric::L2, 32, 100_000);
        let g1 = single_query(&narrow, &q, 1);
        let g16 = single_query(&narrow, &q, 16);
        assert!(
            g16.cycles < g1.cycles / 2.0,
            "16 SCMs ({}) should be far faster than 1 ({})",
            g16.cycles,
            g1.cycles
        );

        // Memory-bound regime: the paper config at large W is bandwidth
        // limited, so g helps little.
        let cfg = AnnaConfig::paper();
        let m1 = single_query(&cfg, &q, 1);
        let m16 = single_query(&cfg, &q, 16);
        assert!(m16.cycles <= m1.cycles);
        assert!(
            m16.cycles > m1.cycles * 0.5,
            "memory-bound run should not scale with SCMs ({} vs {})",
            m16.cycles,
            m1.cycles
        );
    }

    #[test]
    fn double_buffering_beats_serialized_stages() {
        let cfg = AnnaConfig::paper();
        // Balanced work: scan time per cluster ≈ fetch time per cluster,
        // the regime where overlap pays the most (approaching 2x).
        let q = query(Metric::L2, 16, 50_000);
        let buffered = single_query(&cfg, &q, 1);
        let serial = single_query_unbuffered(&cfg, &q, 1);
        let speedup = serial.cycles / buffered.cycles;
        assert!(
            speedup > 1.5,
            "double buffering should approach 2x here, got {speedup:.2}x"
        );
        // Identical traffic: the optimization moves no extra bytes.
        assert_eq!(buffered.traffic.total(), serial.traffic.total());
        // And never slower, even in memory-bound corner cases.
        let q2 = query(Metric::InnerProduct, 4, 100_000);
        assert!(
            single_query(&cfg, &q2, 16).cycles
                <= single_query_unbuffered(&cfg, &q2, 16).cycles + 1e-6
        );
    }

    #[test]
    fn batch_traffic_matches_figure5_worst_case() {
        // B=100 queries, |C|=50 clusters, W=10: conventional loads B·W=1000
        // clusters; optimized loads at most |C|=50.
        let cfg = AnnaConfig::paper();
        let s = SearchShape {
            num_clusters: 50,
            ..shape(Metric::L2)
        };
        let w = BatchWorkload {
            shape: s,
            cluster_sizes: vec![1000; 50],
            visits: (0..100)
                .map(|q| (0..10).map(|i| (q + i) % 50).collect())
                .collect(),
        };
        let opt = batch(&cfg, &w, ScmAllocation::InterQuery);
        let per_cluster = 1000 * s.encoded_bytes_per_vector() as u64;
        assert!(opt.traffic.code_bytes <= 50 * per_cluster);
        let seq: Vec<QueryWorkload> = w
            .visits
            .iter()
            .map(|v| QueryWorkload {
                shape: s,
                visited_cluster_sizes: v.iter().map(|&c| w.cluster_sizes[c]).collect(),
            })
            .collect();
        let base = sequential_queries(&cfg, &seq, 1);
        assert_eq!(base.traffic.code_bytes, 1000 * per_cluster);
        assert!(
            (base.traffic.code_bytes as f64 / opt.traffic.code_bytes as f64 - 20.0).abs() < 1e-9,
            "expected exactly 20x code-traffic reduction"
        );
    }

    #[test]
    fn optimized_batch_is_faster_when_memory_bound() {
        let cfg = AnnaConfig::paper();
        let s = SearchShape {
            num_clusters: 100,
            ..shape(Metric::L2)
        };
        let w = BatchWorkload {
            shape: s,
            cluster_sizes: vec![50_000; 100],
            visits: (0..256)
                .map(|q| (0..16).map(|i| (q * 7 + i) % 100).collect())
                .collect(),
        };
        let opt = batch(&cfg, &w, ScmAllocation::Auto);
        let seq: Vec<QueryWorkload> = w
            .visits
            .iter()
            .map(|v| QueryWorkload {
                shape: s,
                visited_cluster_sizes: v.iter().map(|&c| w.cluster_sizes[c]).collect(),
            })
            .collect();
        let base = sequential_queries(&cfg, &seq, 16);
        assert!(
            opt.cycles < base.cycles,
            "optimized {} should beat baseline {}",
            opt.cycles,
            base.cycles
        );
    }

    #[test]
    fn spill_traffic_bounded_by_paper_formula() {
        // Section IV-B: per round at most 2·k·N_SCM·5 B.
        let cfg = AnnaConfig::paper();
        let s = SearchShape {
            num_clusters: 20,
            ..shape(Metric::L2)
        };
        let w = BatchWorkload {
            shape: s,
            cluster_sizes: vec![1000; 20],
            visits: (0..64)
                .map(|q| (0..5).map(|i| (q + i) % 20).collect())
                .collect(),
        };
        let schedule = anna_plan::plan(&cfg.plan_params(), &w, ScmAllocation::InterQuery);
        let r = batch(&cfg, &w, ScmAllocation::InterQuery);
        // The bound covers both directions (one spill + one fill per query
        // per round at most), now accounted separately.
        let per_round_max = 2 * 1000 * 16 * 5;
        assert!(
            r.traffic.topk_spill_bytes + r.traffic.topk_fill_bytes
                <= (schedule.rounds.len() * per_round_max) as u64
        );
        // A query fills exactly as many times as it spills (every spilled
        // unit is read back in a later round), so the directions balance.
        assert_eq!(r.traffic.topk_spill_bytes, r.traffic.topk_fill_bytes);
        assert!(r.traffic.topk_spill_bytes > 0, "workload should spill");
    }

    #[test]
    fn empty_batch_times_zero_scan() {
        let cfg = AnnaConfig::paper();
        let w = BatchWorkload {
            shape: shape(Metric::L2),
            cluster_sizes: vec![10; 10_000],
            visits: vec![],
        };
        let r = batch(&cfg, &w, ScmAllocation::InterQuery);
        assert_eq!(r.traffic.code_bytes, 0);
        assert_eq!(r.queries, 0);
    }
}
