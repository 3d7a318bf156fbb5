//! Dispatch × code-width sweep of the ADC scan kernels.
//!
//! Times every [`KernelDispatch`] runnable on the host over the two code
//! widths the paper's CPU baselines use (`k* = 16` nibbles, `k* = 256`
//! bytes), reporting codes/second and effective code-stream GB/s per
//! point. The scalar point **is** the seed implementation, so its row
//! doubles as the "before" measurement and every other row's
//! `speedup_vs_scalar` is the before/after comparison. Every point is
//! also cross-checked to return a bit-identical top-k to the scalar
//! reference — the summation-order invariant, measured rather than
//! assumed.
//!
//! A second section, `lut_build`, times LUT construction (the
//! distance-table kernel) for L2 and inner product at both widths under
//! every dispatch the host runs, each row naming the distance-table arm
//! that dispatch ran ([`table_arm_name`]) and each point cross-checked
//! entry by entry, bit for bit, against the `metric::{l2_squared, dot}`
//! oracle; an `encode` row per width and dispatch times PQ encoding
//! (`DimMajor::nearest_with`) in sub-vectors per second, cross-checked
//! against the row-major first-minimum scan.
//!
//! A third section, `select`, splits one query's scan → select time at the
//! benchmark's shape into scoring, threshold filtering and selector pushes
//! per dispatch × `k*`, for one warm selector and for a batch of cold ones
//! fed cluster-major, one query at a time and grouped (see
//! [`SelectPoint`]).
//!
//! A fourth section, `rerank`, times the two-phase rescore
//! ([`exact::rescore_subset_with`]) per dispatch × metric × vector
//! precision at the benchmark's shape, each row naming the rescore arm
//! that ran ([`exact::rescore_arm_name`]) and each point cross-checked bit
//! for bit against the portable arm (see [`RerankPoint`]).

use anna_index::{kernels, KernelDispatch, Lut, LutPrecision, ScanScratch};
use anna_quant::codes::{CodeWidth, PackedCodes};
use anna_quant::dist_table::table_arm_name;
use anna_quant::pq::{PqCodebook, PqConfig};
use anna_telemetry::Telemetry;
use anna_vector::exact::{self, RescoreScratch};
use anna_vector::{metric, Metric, Neighbor, TopK, VectorSet};

use crate::json::Json;
use std::hint::black_box;

/// One measured point: one dispatch scanning one code width.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPoint {
    /// Sub-quantizer codebook size (16 = nibble codes, 256 = byte codes).
    pub kstar: usize,
    /// Dispatch name (`scalar` / `blocked` / `avx2` / `avx512`).
    pub dispatch: String,
    /// Encoded vectors scored per second, single thread.
    pub codes_per_sec: f64,
    /// Effective code-stream bandwidth, GB/s (codes/sec × bytes/vector).
    pub gbps: f64,
    /// Throughput relative to the scalar (seed) point of the same width.
    pub speedup_vs_scalar: f64,
    /// Whether this point's top-k was bit-identical to the scalar path.
    pub identical_to_scalar: bool,
}

/// One measured LUT-construction point: one metric at one `k*` under one
/// dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct LutBuildPoint {
    /// Codewords per table.
    pub kstar: usize,
    /// Dispatch name (`scalar` / `blocked` / `avx2` / `avx512`).
    pub dispatch: String,
    /// The distance-table arm it ran (`portable` / `avx512`).
    pub arm: String,
    /// `l2` (rebuilt per visited cluster) or `inner-product`.
    pub metric: Metric,
    /// Whole `m × k*` LUTs built per second, single thread: L2 rebuilt in
    /// place in a warm slot (the batch engine's path), inner product
    /// through `Lut::build_ip` (once per query, so it allocates).
    pub tables_per_sec: f64,
    /// Nanoseconds per table entry.
    pub ns_per_entry: f64,
    /// Whether every entry equalled the `metric::*` oracle bit for bit.
    pub identical_to_oracle: bool,
}

/// One measured encoding point: PQ encoding at the benchmark's shape
/// (`dim 64`, `m 16`) at one `k*` under one dispatch — every sub-vector's
/// nearest codeword through `DimMajor::nearest_with`.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodePoint {
    /// Codewords per codebook.
    pub kstar: usize,
    /// Dispatch name (`scalar` / `blocked` / `avx2` / `avx512`).
    pub dispatch: String,
    /// The distance-table arm it ran (`portable` / `avx512`).
    pub arm: String,
    /// Sub-vectors encoded per second, single thread.
    pub subvectors_per_sec: f64,
    /// Whether every code and distance equalled the row-major
    /// `metric::l2_squared` first-minimum scan bit for bit.
    pub identical_to_oracle: bool,
}

/// One measured scan → select split: one dispatch at one `k*`, each
/// query's worth of codes (`m = 16`, 8 clusters × 3 125 codes, `k = 100`
/// — the repo benchmark's shape) scanned into its own [`TopK`], in one of
/// two regimes:
///
/// * **warm** — one selector, its 25 000 codes scanned as one list, so the
///   selector stays in L1;
/// * **cold** — a batch of selectors (512, `batch_k16`'s batch), each with
///   its own table, fed the 8 clusters cluster-major: every selector's
///   visit to cluster 0, then every selector's visit to cluster 1, and so
///   on, so consecutive visits touch different selectors — the order the
///   batch engine scans in. Twice: one `scan_with` per visit, and
///   (`grouped`) one `scan_group_with` per cluster over all its visitors,
///   the batch engine's round loop.
///
/// Times are µs per query: `scan_us`, and its split into differences of
/// three timed loops (each its fastest round):
///
/// * `score_us` — `score_all_with`: every score written out, no selector,
///   one query at a time even on a grouped row (so there `filter_us`
///   carries what grouping saves).
/// * `filter_us` — a scan into a selector already full of `+inf` scores,
///   so every finite score fails the threshold and nothing is pushed,
///   minus `score_us`. Negative when filtering in registers costs less
///   than storing the scores (the SIMD survivors sinks at `k* = 16`).
///   `scalar` has no filter: its scan pushes every score, computed by the
///   same row loop `score_all_with` runs, so on its rows only the sum of
///   the three columns — the scan — means anything.
/// * `push_us` — a scan into an empty selector minus the saturated scan:
///   what the candidates that pass the filter cost in the selector.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectPoint {
    /// Sub-quantizer codebook size.
    pub kstar: usize,
    /// Dispatch name (`scalar` / `blocked` / `avx2` / `avx512`).
    pub dispatch: String,
    /// Selectors fed: 1 in the warm regime, the batch size in the cold one.
    pub selectors: usize,
    /// Whether each cluster's visitors went through one
    /// `kernels::scan_group_with` call rather than one `scan_with` each.
    pub grouped: bool,
    /// The scan into empty selectors, µs per query: the sum of the three
    /// columns below.
    pub scan_us: f64,
    /// Scoring alone, µs per query.
    pub score_us: f64,
    /// Threshold filtering, µs per query (see the type docs).
    pub filter_us: f64,
    /// Selector pushes, µs per query.
    pub push_us: f64,
    /// `push_us` per candidate offered to [`TopK::push`], in ns.
    pub push_ns_per_offer: f64,
    /// Candidates offered to [`TopK::push`] per query (`scanned −
    /// pruned`, over the selectors) in the scan into empty selectors.
    pub offers_per_query: f64,
    /// `ScanTally::pruned / scanned` of the scan into empty selectors.
    pub pruned_frac: f64,
    /// `ScanTally::bound_rejected / scanned` of the same scan: the scores
    /// an `avx512` `k* = 256` seeded visit never computed (0 elsewhere).
    pub bound_rejected_frac: f64,
    /// Live selector storage ([`TopK::buffer_bytes`] summed over the
    /// selectors) after the scan into empty selectors, kB.
    pub selector_kb: f64,
    /// Whether the scan into empty selectors kept a top-k bit-identical to
    /// the scalar path's for every selector and the saturated scan kept
    /// nothing.
    pub identical_to_scalar: bool,
}

/// One measured re-rank point: one dispatch rescoring the benchmark
/// `two_phase` workload's per-query candidate lists — 100 candidates drawn
/// from [`KernelsSweep::rerank_rows`] rows of dim 64 (the benchmark's
/// 100 000 at the default size), best 10 kept — for one metric at one
/// vector precision.
#[derive(Debug, Clone, PartialEq)]
pub struct RerankPoint {
    /// Dispatch name (`scalar` / `blocked` / `avx2` / `avx512`).
    pub dispatch: String,
    /// The rescore arm it ran (`portable` / `f16c`).
    pub arm: String,
    /// Similarity metric.
    pub metric: Metric,
    /// Whether rows were rounded through binary16 (the `f16` precision).
    pub f16_vectors: bool,
    /// Nanoseconds per candidate rescored (fastest round).
    pub ns_per_candidate: f64,
    /// Whether every query's ids and score bits equalled the portable
    /// arm's.
    pub identical_to_portable: bool,
}

impl RerankPoint {
    /// `f16` or `f32`: the precision the rows were scored at.
    pub fn precision(&self) -> &'static str {
        if self.f16_vectors {
            "f16"
        } else {
            "f32"
        }
    }
}

/// The sweep result.
#[derive(Debug, Clone)]
pub struct KernelsSweep {
    /// Codes scanned per pass.
    pub n: usize,
    /// Sub-quantizer count.
    pub m: usize,
    /// Timed passes per point.
    pub passes: usize,
    /// What `KernelDispatch::current()` resolved to on this host.
    pub default_dispatch: String,
    /// Measured points, scalar first within each width.
    pub points: Vec<KernelPoint>,
    /// LUT-construction points: `k* ∈ {16, 256} × {l2, inner-product} ×`
    /// every available dispatch.
    pub lut_build: Vec<LutBuildPoint>,
    /// Encoding points: `k* ∈ {16, 256} ×` every available dispatch.
    pub encode: Vec<EncodePoint>,
    /// Scan → select splits per `k* ∈ {16, 256}`: warm under every
    /// available dispatch, then cold under the process-wide one, per query
    /// and grouped.
    pub select: Vec<SelectPoint>,
    /// Database rows the re-rank candidates are drawn from (100 000, the
    /// benchmark's, at the default size).
    pub rerank_rows: usize,
    /// Re-rank points: every available dispatch × {l2, inner-product} ×
    /// {f16, f32}.
    pub rerank: Vec<RerankPoint>,
}

/// Deterministic SplitMix64 stream for synthetic codes (the bench crate
/// keeps `anna-testkit` dev-only, so the generator is inlined here).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `n` random code rows below `bound` (1..=256), packed at `width`.
fn random_codes(seed: u64, m: usize, width: CodeWidth, bound: usize, n: usize) -> PackedCodes {
    let mut rng = SplitMix(seed);
    let mut packed = PackedCodes::new(m, width);
    let mut row = vec![0u8; m];
    for _ in 0..n {
        for slot in row.iter_mut() {
            *slot = (rng.next() % bound as u64) as u8;
        }
        packed.push(&row);
    }
    packed
}

/// Runs the sweep: `n` codes per pass, `passes` timed passes per point,
/// every available dispatch × `k* ∈ {16, 256}`.
pub fn run(n: usize, passes: usize) -> KernelsSweep {
    run_traced(n, passes, &Telemetry::disabled())
}

/// [`run`] with a telemetry sink: each point's timed scan window bumps the
/// `kernel.*` counters under a `<dispatch>_k<kstar>.` prefix, so the
/// snapshot shows scanned/pruned volume per point.
pub fn run_traced(n: usize, passes: usize, tel: &Telemetry) -> KernelsSweep {
    let m = 8usize;
    let dim = m * 2;
    // Small training set: the sweep times the kernels, not the trainer.
    let train = VectorSet::from_fn(dim, 512, |r, c| ((r * 31 + c * 7) % 29) as f32);
    let q: Vec<f32> = (0..dim).map(|i| (i % 5) as f32 * 0.5).collect();
    let k = 100usize;

    let mut points = Vec::new();
    for kstar in [16usize, 256] {
        let book = PqCodebook::train(
            &train,
            &PqConfig {
                m,
                kstar,
                iters: 4,
                seed: 1,
            },
        );
        let lut = Lut::build_ip(&q, &book, LutPrecision::F32);
        let width = if kstar == 16 {
            CodeWidth::U4
        } else {
            CodeWidth::U8
        };
        // Trained k* can come in under the configured one on tiny
        // training sets; bound the synthetic codes by what the LUT has.
        let codes = random_codes(kstar as u64, m, width, lut.kstar(), n);
        let ids: Vec<u64> = (0..n as u64).collect();
        let bytes_per_vector = codes.vector_bytes() as f64;

        // The scalar reference answer, computed once per width.
        let mut scratch = ScanScratch::new();
        let mut reference = TopK::new(k);
        kernels::scan_with(
            &codes,
            &ids,
            &lut,
            &mut reference,
            KernelDispatch::Scalar,
            &mut scratch,
        );
        let reference = reference.into_sorted_vec();

        let mut scalar_rate = 0.0f64;
        for dispatch in KernelDispatch::available() {
            // Warm-up pass (also the correctness cross-check).
            let mut top = TopK::new(k);
            kernels::scan_with(&codes, &ids, &lut, &mut top, dispatch, &mut scratch);
            let identical = top.into_sorted_vec() == reference;

            let point_tel = tel.scoped(&format!("{}_k{kstar}", dispatch.name()));
            let start = std::time::Instant::now();
            let mut tally = kernels::ScanTally::default();
            for _ in 0..passes {
                let mut top = TopK::new(k);
                let t = kernels::scan_with(&codes, &ids, &lut, &mut top, dispatch, &mut scratch);
                tally.accumulate(&t);
            }
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            point_tel.counter_add("kernel.codes_scanned", tally.scanned);
            point_tel.counter_add("kernel.pruned", tally.pruned);
            point_tel.counter_add("kernel.bound_rejected", tally.bound_rejected);

            let codes_per_sec = (passes * n) as f64 / secs;
            if dispatch == KernelDispatch::Scalar {
                scalar_rate = codes_per_sec;
            }
            points.push(KernelPoint {
                kstar,
                dispatch: dispatch.name().to_string(),
                codes_per_sec,
                gbps: codes_per_sec * bytes_per_vector / 1e9,
                speedup_vs_scalar: if scalar_rate > 0.0 {
                    codes_per_sec / scalar_rate
                } else {
                    0.0
                },
                identical_to_scalar: identical,
            });
        }
    }

    KernelsSweep {
        n,
        m,
        passes,
        default_dispatch: KernelDispatch::current().name().to_string(),
        points,
        lut_build: lut_build_points(passes),
        encode: encode_points(passes),
        select: select_points(passes),
        rerank_rows: rerank_rows(n),
        rerank: rerank_points(rerank_rows(n), passes),
    }
}

/// The re-rank shape of the repo benchmark's `two_phase` workload: rows
/// in the database, candidates per query (`k` 10 × α 10), final `k`.
const RERANK_ROWS: usize = 100_000;
const RERANK_CANDIDATES: usize = 100;
const RERANK_K: usize = 10;
/// Queries per timed round at [`RERANK_ROWS`].
const RERANK_QUERIES: usize = 256;

/// Database rows of the `rerank` section for a sweep of `n` codes per
/// pass: the benchmark's [`RERANK_ROWS`] at the default `n` (200 000),
/// proportionally fewer for the smoke and test sizes.
fn rerank_rows(n: usize) -> usize {
    (n / 2).clamp(RERANK_CANDIDATES, RERANK_ROWS)
}

/// Times every available dispatch × metric × precision over candidate
/// lists drawn from `rows` rows ([`RERANK_QUERIES`] lists at the
/// benchmark's [`RERANK_ROWS`], proportionally fewer below it): the
/// fastest of `passes` rounds, after a cross-check of every query against
/// the portable arm (the `scalar` dispatch's).
fn rerank_points(rows: usize, passes: usize) -> Vec<RerankPoint> {
    let dim = 64usize;
    let nq = (RERANK_QUERIES * rows / RERANK_ROWS).max(8);
    let mut rng = SplitMix(27);
    // Values with more significant bits than binary16 keeps, so the f16
    // precision really rounds.
    let mut uniform = |scale: f32| (rng.next() >> 40) as f32 / (1u64 << 24) as f32 * scale;
    let db = VectorSet::from_fn(dim, rows, |_, _| uniform(128.0));
    let queries = VectorSet::from_fn(dim, nq, |_, _| uniform(128.0));
    // Distinct ids per list, spread evenly over the whole database from a
    // random start.
    let stride = rows / RERANK_CANDIDATES;
    let lists: Vec<Vec<u64>> = (0..nq)
        .map(|_| {
            let base = rng.next() as usize;
            (0..RERANK_CANDIDATES)
                .map(|j| ((base + j * stride) % rows) as u64)
                .collect()
        })
        .collect();

    let mut scratch = RescoreScratch::new();
    let mut out = Vec::new();
    let mut rescore_all = |dispatch: KernelDispatch, metric: Metric, f16_vectors: bool| {
        lists
            .iter()
            .enumerate()
            .map(|(qi, ids)| {
                exact::rescore_subset_with(
                    dispatch,
                    queries.row(qi),
                    ids,
                    &db,
                    metric,
                    RERANK_K,
                    f16_vectors,
                    &mut scratch,
                    &mut out,
                );
                out.iter().map(|n| (n.id, n.score.to_bits())).collect()
            })
            .collect::<Vec<Vec<(u64, u32)>>>()
    };

    let mut points = Vec::new();
    for metric_kind in [Metric::L2, Metric::InnerProduct] {
        for f16_vectors in [true, false] {
            let reference = rescore_all(KernelDispatch::Scalar, metric_kind, f16_vectors);
            for dispatch in KernelDispatch::available() {
                let identical = rescore_all(dispatch, metric_kind, f16_vectors) == reference;
                let best_ns = (0..passes.max(1))
                    .map(|_| {
                        let start = std::time::Instant::now();
                        black_box(rescore_all(dispatch, metric_kind, f16_vectors));
                        start.elapsed().as_secs_f64() * 1e9
                    })
                    .fold(f64::INFINITY, f64::min);
                points.push(RerankPoint {
                    dispatch: dispatch.name().to_string(),
                    arm: exact::rescore_arm_name(dispatch).to_string(),
                    metric: metric_kind,
                    f16_vectors,
                    ns_per_candidate: best_ns / (nq * RERANK_CANDIDATES) as f64,
                    identical_to_portable: identical,
                });
            }
        }
    }
    points
}

/// Selectors in the cold `select` rows: `batch_k16`'s batch size.
const COLD_SELECTORS: usize = 512;

/// One query's visit list at the benchmark's shape: 8 clusters × 3 125
/// codes.
const CLUSTERS: usize = 8;
const LIST_LEN: usize = 3_125;

/// One `select` regime: every selector (one per table) is fed every code
/// list, list-major, under each of `dispatches` — one `scan_with` per
/// visit, or one `scan_group_with` per list when `grouped`.
struct SelectRegime<'a> {
    lists: &'a [(PackedCodes, Vec<u64>)],
    luts: &'a [Lut],
    dispatches: Vec<KernelDispatch>,
    grouped: bool,
}

impl SelectRegime<'_> {
    fn scan(
        &self,
        tops: &mut [TopK],
        dispatch: KernelDispatch,
        scratch: &mut ScanScratch,
    ) -> kernels::ScanTally {
        let mut tally = kernels::ScanTally::default();
        for (codes, ids) in self.lists {
            if self.grouped {
                tally.accumulate(&kernels::scan_group_with(
                    codes, ids, self.luts, tops, dispatch, scratch,
                ));
            } else {
                for (top, lut) in tops.iter_mut().zip(self.luts) {
                    tally.accumulate(&kernels::scan_with(codes, ids, lut, top, dispatch, scratch));
                }
            }
        }
        tally
    }

    fn score(&self, dispatch: KernelDispatch) {
        for (codes, _) in self.lists {
            for lut in self.luts {
                black_box(kernels::score_all_with(codes, lut, dispatch));
            }
        }
    }
}

/// Splits scan → select time per `k*` × {warm, cold, cold grouped} at the
/// benchmark's shape — warm under every available dispatch, cold (many
/// times the work) under the process-wide one, the arm every engine runs;
/// `passes` timed rounds per loop, fastest kept.
fn select_points(passes: usize) -> Vec<SelectPoint> {
    let k = 100usize;
    let mut points = Vec::new();
    for kstar in [16usize, 256] {
        let (book, q) = benchmark_shape_book(kstar);
        let m = book.m();
        let width = if kstar == 16 {
            CodeWidth::U4
        } else {
            CodeWidth::U8
        };
        let lut = Lut::build_ip(&q, &book, LutPrecision::F32);
        let bound = lut.kstar();
        let warm_n = CLUSTERS * LIST_LEN;
        let warm_list = [(
            random_codes(7 + kstar as u64, m, width, bound, warm_n),
            (0..warm_n as u64).collect(),
        )];
        // Ids dealt round-robin across the clusters, as `add` deals them.
        let cold_lists: Vec<(PackedCodes, Vec<u64>)> = (0..CLUSTERS)
            .map(|c| {
                let seed = (100 * kstar + c) as u64;
                let ids = (0..LIST_LEN).map(|i| (i * CLUSTERS + c) as u64).collect();
                (random_codes(seed, m, width, bound, LIST_LEN), ids)
            })
            .collect();
        let mut rng = SplitMix(kstar as u64);
        let cold_luts: Vec<Lut> = (0..COLD_SELECTORS)
            .map(|_| {
                let qb: Vec<f32> = q
                    .iter()
                    .map(|x| x + (rng.next() % 1024) as f32 / 512.0 - 1.0)
                    .collect();
                Lut::build_ip(&qb, &book, LutPrecision::F32)
            })
            .collect();
        let cold = |grouped| SelectRegime {
            lists: &cold_lists,
            luts: &cold_luts,
            dispatches: vec![KernelDispatch::current()],
            grouped,
        };
        let regimes = [
            SelectRegime {
                lists: &warm_list,
                luts: std::slice::from_ref(&lut),
                dispatches: KernelDispatch::available(),
                grouped: false,
            },
            cold(false),
            cold(true),
        ];
        for regime in &regimes {
            points.extend(select_regime_points(kstar, k, regime, passes));
        }
    }
    points
}

/// One [`SelectPoint`] per dispatch of `regime`, each checked against the
/// scalar path.
fn select_regime_points(
    kstar: usize,
    k: usize,
    regime: &SelectRegime<'_>,
    passes: usize,
) -> Vec<SelectPoint> {
    let selectors = regime.luts.len();
    let empty = || -> Vec<TopK> { (0..selectors).map(|_| TopK::new(k)).collect() };
    let mut saturated_one = TopK::new(k);
    // Ids above every scanned one: an `+inf` score could not evict them.
    saturated_one.extend((0..k as u64).map(|i| Neighbor::new(u64::MAX - i, f32::INFINITY)));
    let saturated = vec![saturated_one.clone(); selectors];
    let saturated_kept = saturated_one.into_sorted_vec();
    let sorted = |tops: Vec<TopK>| -> Vec<Vec<Neighbor>> {
        tops.into_iter().map(TopK::into_sorted_vec).collect()
    };

    let mut scratch = ScanScratch::new();
    let mut reference = empty();
    regime.scan(&mut reference, KernelDispatch::Scalar, &mut scratch);
    let reference = sorted(reference);

    // µs per query of `body`, which feeds every selector once: the fastest
    // of `passes` rounds of enough calls for 20 queries. The columns are
    // differences of these, so host drift between loops has to be kept out
    // of them (the repo benchmark reports its best round for the same
    // reason).
    let calls = (20 / selectors).max(1);
    let time = |body: &mut dyn FnMut()| {
        (0..passes.max(1))
            .map(|_| {
                let start = std::time::Instant::now();
                for _ in 0..calls {
                    body();
                }
                start.elapsed().as_secs_f64() * 1e6 / (calls * selectors) as f64
            })
            .fold(f64::INFINITY, f64::min)
    };

    let mut points = Vec::new();
    for &dispatch in &regime.dispatches {
        let mut tops = empty();
        let tally = regime.scan(&mut tops, dispatch, &mut scratch);
        let selector_bytes: usize = tops.iter().map(TopK::buffer_bytes).sum();
        let mut full = saturated.clone();
        regime.scan(&mut full, dispatch, &mut scratch);
        let identical =
            sorted(tops) == reference && sorted(full).iter().all(|kept| *kept == saturated_kept);

        let score_us = time(&mut || regime.score(dispatch));
        let mut scan_into = |mut tops: Vec<TopK>| {
            regime.scan(&mut tops, dispatch, &mut scratch);
            black_box(tops);
        };
        let saturated_us = time(&mut || scan_into(saturated.clone()));
        let scan_us = time(&mut || scan_into(empty()));

        let push_us = scan_us - saturated_us;
        let offers_per_query = (tally.scanned - tally.pruned) as f64 / selectors as f64;
        points.push(SelectPoint {
            kstar,
            dispatch: dispatch.name().to_string(),
            selectors,
            grouped: regime.grouped,
            scan_us,
            score_us,
            filter_us: saturated_us - score_us,
            push_us,
            push_ns_per_offer: push_us * 1e3 / offers_per_query.max(1.0),
            offers_per_query,
            pruned_frac: tally.pruned as f64 / tally.scanned as f64,
            bound_rejected_frac: tally.bound_rejected as f64 / tally.scanned as f64,
            selector_kb: selector_bytes as f64 / 1024.0,
            identical_to_scalar: identical,
        });
    }
    points
}

/// A codebook at the repo benchmark's shape (`dim 64`, `m 16`, so
/// 4-dimensional sub-vectors) and a query for it.
fn benchmark_shape_book(kstar: usize) -> (PqCodebook, Vec<f32>) {
    let m = 16usize;
    let dim = m * 4;
    let train = VectorSet::from_fn(dim, 512, |r, c| ((r * 37 + c * 11) % 41) as f32 * 0.25);
    let q: Vec<f32> = (0..dim).map(|i| (i % 7) as f32 * 0.75 - 1.0).collect();
    let book = PqCodebook::train(
        &train,
        &PqConfig {
            m,
            kstar,
            iters: 4,
            seed: 1,
        },
    );
    (book, q)
}

/// Times LUT construction at the benchmark's shape (`dim 64`, `m 16`, so
/// 4-dimensional sub-vectors) under every available dispatch:
/// `200 × passes` builds per point, after an oracle cross-check of every
/// entry.
fn lut_build_points(passes: usize) -> Vec<LutBuildPoint> {
    let builds = 200 * passes.max(1);

    let mut points = Vec::new();
    for kstar in [16usize, 256] {
        let (book, q) = benchmark_shape_book(kstar);
        let centroid: Vec<f32> = (0..book.dim()).map(|i| (i % 3) as f32 * 0.5).collect();
        let residual_oracle = metric::sub(&q, &centroid);
        let sub = book.sub_dim();
        for metric_kind in [Metric::L2, Metric::InnerProduct] {
            for dispatch in KernelDispatch::available() {
                let mut slot = Lut::placeholder();
                let mut residual = Vec::new();
                let mut build = |slot: &mut Lut| match metric_kind {
                    Metric::L2 => slot.rebuild_l2_with(
                        dispatch,
                        &q,
                        &centroid,
                        &book,
                        LutPrecision::F32,
                        &mut residual,
                    ),
                    Metric::InnerProduct => {
                        *slot = Lut::build_ip_with(dispatch, &q, &book, LutPrecision::F32)
                    }
                };
                build(&mut slot);
                let identical = (0..book.m()).all(|i| {
                    let span = i * sub..(i + 1) * sub;
                    (0..book.kstar()).all(|c| {
                        let w = book.book(i).row(c);
                        let want = match metric_kind {
                            Metric::L2 => -metric::l2_squared(&residual_oracle[span.clone()], w),
                            Metric::InnerProduct => metric::dot(&q[span.clone()], w),
                        };
                        slot.get(i, c).to_bits() == want.to_bits()
                    })
                });

                let start = std::time::Instant::now();
                for _ in 0..builds {
                    build(&mut slot);
                    black_box(slot.entries());
                }
                let secs = start.elapsed().as_secs_f64().max(1e-9);
                let entries = (builds * book.m() * book.kstar()) as f64;
                points.push(LutBuildPoint {
                    kstar,
                    dispatch: dispatch.name().to_string(),
                    arm: table_arm_name(dispatch).to_string(),
                    metric: metric_kind,
                    tables_per_sec: builds as f64 / secs,
                    ns_per_entry: secs * 1e9 / entries,
                    identical_to_oracle: identical,
                });
            }
        }
    }
    points
}

/// Vectors encoded per round of the `encode` section.
const ENCODE_VECTORS: usize = 1_000;

/// Times PQ encoding at the benchmark's shape under every available
/// dispatch: `ENCODE_VECTORS × m` sub-vectors per round, `passes`
/// rounds, after a cross-check of every code and distance against the
/// row-major `metric::l2_squared` first-minimum scan.
fn encode_points(passes: usize) -> Vec<EncodePoint> {
    let mut points = Vec::new();
    for kstar in [16usize, 256] {
        let (book, _) = benchmark_shape_book(kstar);
        let (m, sub) = (book.m(), book.sub_dim());
        let data = VectorSet::from_fn(book.dim(), ENCODE_VECTORS, |r, c| {
            ((r * 13 + c * 29) % 43) as f32 * 0.25 - 2.0
        });
        let oracle = |v: &[f32], j: usize| {
            let mut best = (0usize, f32::INFINITY);
            for (c, w) in book.book(j).iter().enumerate() {
                let d = metric::l2_squared(v, w);
                if d < best.1 {
                    best = (c, d);
                }
            }
            best
        };
        for dispatch in KernelDispatch::available() {
            let encode = |v: &[f32], j: usize| book.dim_major(j).nearest_with(dispatch, v);
            let identical = data.iter().all(|x| {
                (0..m).all(|j| {
                    let v = &x[j * sub..(j + 1) * sub];
                    let (got, want) = (encode(v, j), oracle(v, j));
                    got.0 == want.0 && got.1.to_bits() == want.1.to_bits()
                })
            });
            let start = std::time::Instant::now();
            for _ in 0..passes.max(1) {
                for x in data.iter() {
                    for j in 0..m {
                        black_box(encode(&x[j * sub..(j + 1) * sub], j));
                    }
                }
            }
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            points.push(EncodePoint {
                kstar,
                dispatch: dispatch.name().to_string(),
                arm: table_arm_name(dispatch).to_string(),
                subvectors_per_sec: (passes.max(1) * ENCODE_VECTORS * m) as f64 / secs,
                identical_to_oracle: identical,
            });
        }
    }
    points
}

impl KernelsSweep {
    /// JSON report (`reports/kernels_sweep.json`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("n", self.n)
            .set("m", self.m)
            .set("passes", self.passes)
            .set("default_dispatch", self.default_dispatch.as_str())
            .set(
                "points",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Json::obj()
                                .set("kstar", p.kstar)
                                .set("dispatch", p.dispatch.as_str())
                                .set("codes_per_sec", p.codes_per_sec)
                                .set("gbps", p.gbps)
                                .set("speedup_vs_scalar", p.speedup_vs_scalar)
                                .set("identical_to_scalar", p.identical_to_scalar)
                        })
                        .collect(),
                ),
            )
            .set(
                "lut_build",
                Json::Arr(
                    self.lut_build
                        .iter()
                        .map(|p| {
                            Json::obj()
                                .set("kstar", p.kstar)
                                .set("dispatch", p.dispatch.as_str())
                                .set("arm", p.arm.as_str())
                                .set("metric", p.metric.to_string().as_str())
                                .set("tables_per_sec", p.tables_per_sec)
                                .set("ns_per_entry", p.ns_per_entry)
                                .set("identical_to_oracle", p.identical_to_oracle)
                        })
                        .collect(),
                ),
            )
            .set(
                "encode",
                Json::Arr(
                    self.encode
                        .iter()
                        .map(|p| {
                            Json::obj()
                                .set("kstar", p.kstar)
                                .set("dispatch", p.dispatch.as_str())
                                .set("arm", p.arm.as_str())
                                .set("subvectors_per_sec", p.subvectors_per_sec)
                                .set("identical_to_oracle", p.identical_to_oracle)
                        })
                        .collect(),
                ),
            )
            .set(
                "select",
                Json::Arr(
                    self.select
                        .iter()
                        .map(|p| {
                            Json::obj()
                                .set("kstar", p.kstar)
                                .set("dispatch", p.dispatch.as_str())
                                .set("selectors", p.selectors)
                                .set("grouped", p.grouped)
                                .set("scan_us", p.scan_us)
                                .set("score_us", p.score_us)
                                .set("filter_us", p.filter_us)
                                .set("push_us", p.push_us)
                                .set("push_ns_per_offer", p.push_ns_per_offer)
                                .set("offers_per_query", p.offers_per_query)
                                .set("pruned_frac", p.pruned_frac)
                                .set("bound_rejected_frac", p.bound_rejected_frac)
                                .set("selector_kb", p.selector_kb)
                                .set("identical_to_scalar", p.identical_to_scalar)
                        })
                        .collect(),
                ),
            )
            .set("rerank_rows", self.rerank_rows)
            .set(
                "rerank",
                Json::Arr(
                    self.rerank
                        .iter()
                        .map(|p| {
                            Json::obj()
                                .set("dispatch", p.dispatch.as_str())
                                .set("arm", p.arm.as_str())
                                .set("metric", p.metric.to_string().as_str())
                                .set("precision", p.precision())
                                .set("ns_per_candidate", p.ns_per_candidate)
                                .set("identical_to_portable", p.identical_to_portable)
                        })
                        .collect(),
                ),
            )
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = format!(
            "\n=== scan-kernel sweep (n={}, m={}, default dispatch: {}) ===\n{:<6} {:<9} {:>14} {:>8} {:>9} {:>10}\n",
            self.n, self.m, self.default_dispatch, "k*", "dispatch", "codes/sec", "GB/s", "speedup", "identical"
        );
        for p in &self.points {
            s.push_str(&format!(
                "{:<6} {:<9} {:>14.0} {:>8.2} {:>8.2}x {:>10}\n",
                p.kstar,
                p.dispatch,
                p.codes_per_sec,
                p.gbps,
                p.speedup_vs_scalar,
                p.identical_to_scalar
            ));
        }
        s.push_str(&format!(
            "\n=== LUT build (m=16, sub-dim 4) ===\n{:<6} {:<14} {:<9} {:<9} {:>12} {:>10} {:>10}\n",
            "k*", "metric", "dispatch", "arm", "tables/sec", "ns/entry", "identical"
        ));
        for p in &self.lut_build {
            s.push_str(&format!(
                "{:<6} {:<14} {:<9} {:<9} {:>12.0} {:>10.2} {:>10}\n",
                p.kstar,
                p.metric.to_string(),
                p.dispatch,
                p.arm,
                p.tables_per_sec,
                p.ns_per_entry,
                p.identical_to_oracle
            ));
        }
        s.push_str(&format!(
            "\n=== encode (m=16, sub-dim 4, {ENCODE_VECTORS} vectors) ===\n{:<6} {:<9} {:<9} {:>14} {:>10} {:>10}\n",
            "k*", "dispatch", "arm", "subvec/sec", "ns/subvec", "identical"
        ));
        for p in &self.encode {
            s.push_str(&format!(
                "{:<6} {:<9} {:<9} {:>14.0} {:>10.2} {:>10}\n",
                p.kstar,
                p.dispatch,
                p.arm,
                p.subvectors_per_sec,
                1e9 / p.subvectors_per_sec,
                p.identical_to_oracle
            ));
        }
        s.push_str(&format!(
            "\n=== scan -> select split (m=16, 8 x 3125 codes, k=100; us/query; cold = selectors fed cluster-major, grouped = one scan_group_with per cluster) ===\n{:<6} {:<9} {:>9} {:>7} {:>8} {:>9} {:>10} {:>9} {:>10} {:>7} {:>8} {:>8} {:>9} {:>10}\n",
            "k*", "dispatch", "selectors", "grouped", "scan_us", "score_us", "filter_us", "push_us", "ns/offer", "offers", "pruned", "bound", "sel_kB", "identical"
        ));
        for p in &self.select {
            s.push_str(&format!(
                "{:<6} {:<9} {:>9} {:>7} {:>8.1} {:>9.1} {:>10.1} {:>9.1} {:>10.1} {:>7.0} {:>8.4} {:>8.4} {:>9.1} {:>10}\n",
                p.kstar,
                p.dispatch,
                p.selectors,
                p.grouped,
                p.scan_us,
                p.score_us,
                p.filter_us,
                p.push_us,
                p.push_ns_per_offer,
                p.offers_per_query,
                p.pruned_frac,
                p.bound_rejected_frac,
                p.selector_kb,
                p.identical_to_scalar
            ));
        }
        s.push_str(&format!(
            "\n=== re-rank (dim 64, {RERANK_CANDIDATES} of {} rows per query, k={RERANK_K}) ===\n{:<9} {:<9} {:<14} {:<9} {:>10} {:>10}\n",
            self.rerank_rows, "dispatch", "arm", "metric", "precision", "ns/cand", "identical"
        ));
        for p in &self.rerank {
            s.push_str(&format!(
                "{:<9} {:<9} {:<14} {:<9} {:>10.1} {:>10}\n",
                p.dispatch,
                p.arm,
                p.metric.to_string(),
                p.precision(),
                p.ns_per_candidate,
                p.identical_to_portable
            ));
        }
        s
    }

    /// The fastest point's speedup over scalar at the given width.
    pub fn best_speedup_at(&self, kstar: usize) -> Option<f64> {
        self.points
            .iter()
            .filter(|p| p.kstar == kstar)
            .map(|p| p.speedup_vs_scalar)
            .fold(None, |best, s| Some(best.map_or(s, |b: f64| b.max(s))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_dispatch_and_stays_bit_identical() {
        let sweep = run(3_000, 2);
        let per_width = KernelDispatch::available().len();
        assert_eq!(sweep.points.len(), 2 * per_width);
        for p in &sweep.points {
            assert!(p.codes_per_sec > 0.0, "{} k*={}", p.dispatch, p.kstar);
            assert!(p.gbps > 0.0);
            assert!(
                p.identical_to_scalar,
                "{} k*={} diverged from scalar",
                p.dispatch, p.kstar
            );
        }
        // The scalar row is its own baseline.
        for p in sweep.points.iter().filter(|p| p.dispatch == "scalar") {
            assert!((p.speedup_vs_scalar - 1.0).abs() < 1e-9);
        }
        assert!(sweep.best_speedup_at(16).is_some());
        assert!(sweep.best_speedup_at(512).is_none());
        // LUT build: {l2, ip} x {16, 256} x every dispatch, every entry
        // equal to the oracle; encode: {16, 256} x every dispatch.
        assert_eq!(sweep.lut_build.len(), 4 * per_width);
        for p in &sweep.lut_build {
            let at = format!("{} ({}) {} k*={}", p.dispatch, p.arm, p.metric, p.kstar);
            assert!(p.tables_per_sec > 0.0, "{at}");
            assert!(p.identical_to_oracle, "{at} LUT diverged from metric::*");
        }
        assert_eq!(sweep.encode.len(), 2 * per_width);
        for p in &sweep.encode {
            let at = format!("{} ({}) k*={}", p.dispatch, p.arm, p.kstar);
            assert!(p.subvectors_per_sec > 0.0, "{at}");
            assert!(p.identical_to_oracle, "{at} encode diverged");
        }
        // Select split: {16, 256} x (warm under every dispatch + cold under
        // the process-wide one, per query and grouped), each bit-identical.
        assert_eq!(sweep.select.len(), 2 * (per_width + 2));
        let selectors: Vec<usize> = sweep.select.iter().map(|p| p.selectors).collect();
        assert!(selectors.contains(&1) && selectors.contains(&COLD_SELECTORS));
        assert_eq!(sweep.select.iter().filter(|p| p.grouped).count(), 2);
        for p in &sweep.select {
            let split = p.score_us + p.filter_us + p.push_us;
            assert!((p.scan_us - split).abs() <= 1e-6 * p.scan_us.max(1.0));
            assert!(p.selector_kb > 0.0, "{} k*={}", p.dispatch, p.kstar);
            assert!(p.score_us > 0.0, "{} k*={}", p.dispatch, p.kstar);
            assert!((0.0..=1.0).contains(&p.pruned_frac));
            assert_eq!(p.pruned_frac == 0.0, p.dispatch == "scalar");
            assert!(p.bound_rejected_frac <= p.pruned_frac);
            assert_eq!(
                p.bound_rejected_frac > 0.0,
                p.kstar == 256 && p.dispatch == "avx512",
                "{} k*={}",
                p.dispatch,
                p.kstar
            );
            assert!(
                p.identical_to_scalar,
                "{} k*={} select diverged from scalar",
                p.dispatch, p.kstar
            );
        }
        // Re-rank: every dispatch x {l2, ip} x {f16, f32}, each equal to
        // the portable arm.
        assert_eq!(sweep.rerank.len(), 4 * per_width);
        for p in &sweep.rerank {
            let at = format!("{} ({}) {} {}", p.dispatch, p.arm, p.metric, p.precision());
            assert!(p.ns_per_candidate > 0.0, "{at}");
            assert!(p.identical_to_portable, "{at} diverged from portable");
        }
    }

    #[test]
    fn traced_sweep_records_per_point_kernel_counters() {
        let tel = Telemetry::enabled();
        let sweep = run_traced(2_000, 1, &tel);
        assert!(!sweep.points.is_empty());
        let snap = tel.snapshot_json().unwrap();
        assert!(
            snap.contains("\"scalar_k16.kernel.codes_scanned\""),
            "{snap}"
        );
        assert!(snap.contains("\"blocked_k256.kernel.pruned\""), "{snap}");
        assert!(
            snap.contains("\"blocked_k256.kernel.bound_rejected\""),
            "{snap}"
        );
    }

    #[test]
    fn json_report_has_the_documented_shape() {
        let sweep = run(1_000, 1);
        let rendered = sweep.to_json().to_string();
        for key in [
            "\"n\"",
            "\"default_dispatch\"",
            "\"points\"",
            "\"kstar\"",
            "\"dispatch\"",
            "\"codes_per_sec\"",
            "\"gbps\"",
            "\"speedup_vs_scalar\"",
            "\"identical_to_scalar\"",
            "\"lut_build\"",
            "\"arm\"",
            "\"encode\"",
            "\"subvectors_per_sec\"",
            "\"tables_per_sec\"",
            "\"identical_to_oracle\"",
            "\"select\"",
            "\"score_us\"",
            "\"filter_us\"",
            "\"push_us\"",
            "\"push_ns_per_offer\"",
            "\"offers_per_query\"",
            "\"pruned_frac\"",
            "\"bound_rejected_frac\"",
            "\"selectors\"",
            "\"grouped\"",
            "\"scan_us\"",
            "\"selector_kb\"",
            "\"rerank_rows\"",
            "\"rerank\"",
            "\"precision\"",
            "\"ns_per_candidate\"",
            "\"identical_to_portable\"",
        ] {
            assert!(rendered.contains(key), "missing {key}");
        }
    }
}
