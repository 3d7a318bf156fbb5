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
//! distance-table kernel) for L2 and inner product at both widths, each
//! point cross-checked entry by entry, bit for bit, against the
//! `metric::{l2_squared, dot}` oracle.
//!
//! A third section, `select`, splits one query's scan → select time at the
//! benchmark's shape into scoring, threshold filtering and heap pushes per
//! dispatch × `k*` (see [`SelectPoint`]).

use anna_index::{kernels, KernelDispatch, Lut, LutPrecision, ScanScratch};
use anna_quant::codes::{CodeWidth, PackedCodes};
use anna_quant::pq::{PqCodebook, PqConfig};
use anna_telemetry::Telemetry;
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

/// One measured LUT-construction point: one metric at one `k*`.
#[derive(Debug, Clone, PartialEq)]
pub struct LutBuildPoint {
    /// Codewords per table.
    pub kstar: usize,
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

/// One measured scan → select split: one dispatch at one `k*`, one
/// query's worth of codes (`m = 16`, 8 clusters × 3 125 codes, `k = 100`
/// — the repo benchmark's shape) scanned into one [`TopK`]. Times are
/// µs per query, differences of three timed loops (each its fastest round):
///
/// * `score_us` — `score_all_with`: every score written out, no selector.
/// * `filter_us` — a scan into a selector already full of `+inf` scores,
///   so every finite score fails the threshold and nothing is pushed,
///   minus `score_us`. Negative when filtering in registers costs less
///   than storing the scores (the SIMD survivors sinks at `k* = 16`).
///   `scalar` has no filter and scores through a different loop in a scan
///   (inline, every score pushed) than in `score_all_with` (rows unpacked
///   through `Lut::score`), so on its rows only the sum of the three
///   columns — the scan — means anything.
/// * `push_us` — a scan into an empty selector minus the saturated scan:
///   what the candidates that pass the filter cost in the heap.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectPoint {
    /// Sub-quantizer codebook size.
    pub kstar: usize,
    /// Dispatch name (`scalar` / `blocked` / `avx2` / `avx512`).
    pub dispatch: String,
    /// Scoring alone, µs per query.
    pub score_us: f64,
    /// Threshold filtering, µs per query (see the type docs).
    pub filter_us: f64,
    /// Heap pushes, µs per query.
    pub push_us: f64,
    /// `ScanTally::pruned / scanned` of the scan into an empty selector.
    pub pruned_frac: f64,
    /// Whether the scan into an empty selector kept a top-k bit-identical
    /// to the scalar path's and the saturated scan kept nothing.
    pub identical_to_scalar: bool,
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
    /// LUT-construction points: `{l2, inner-product} × k* ∈ {16, 256}`.
    pub lut_build: Vec<LutBuildPoint>,
    /// Scan → select splits: every available dispatch × `k* ∈ {16, 256}`.
    pub select: Vec<SelectPoint>,
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
        select: select_points(passes),
    }
}

/// Splits scan → select time per dispatch × `k*` at the benchmark's shape;
/// `passes` rounds of 20 queries per timed loop, fastest round kept.
fn select_points(passes: usize) -> Vec<SelectPoint> {
    let (n, k) = (8 * 3_125usize, 100usize);
    // µs per call of `body`: the fastest of `passes` rounds of 20 calls.
    // The columns are differences of these, so host drift between loops
    // has to be kept out of them (the repo benchmark reports its best
    // round for the same reason).
    let time = |body: &mut dyn FnMut()| {
        (0..passes.max(1))
            .map(|_| {
                let start = std::time::Instant::now();
                for _ in 0..20 {
                    body();
                }
                start.elapsed().as_secs_f64() * 1e6 / 20.0
            })
            .fold(f64::INFINITY, f64::min)
    };

    let mut points = Vec::new();
    for kstar in [16usize, 256] {
        let (book, q) = benchmark_shape_book(kstar);
        let m = book.m();
        let lut = Lut::build_ip(&q, &book, LutPrecision::F32);
        let width = if kstar == 16 {
            CodeWidth::U4
        } else {
            CodeWidth::U8
        };
        let codes = random_codes(7 + kstar as u64, m, width, lut.kstar(), n);
        let ids: Vec<u64> = (0..n as u64).collect();
        let mut scratch = ScanScratch::new();
        let mut saturated = TopK::new(k);
        // Ids above every scanned one: an `+inf` score could not evict them.
        saturated.extend((0..k as u64).map(|i| Neighbor::new(u64::MAX - i, f32::INFINITY)));

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

        for dispatch in KernelDispatch::available() {
            let mut top = TopK::new(k);
            let tally = kernels::scan_with(&codes, &ids, &lut, &mut top, dispatch, &mut scratch);
            let mut full = saturated.clone();
            kernels::scan_with(&codes, &ids, &lut, &mut full, dispatch, &mut scratch);
            let identical = top.into_sorted_vec() == reference
                && full.into_sorted_vec() == saturated.clone().into_sorted_vec();

            let score_us = time(&mut || {
                black_box(kernels::score_all_with(
                    &codes,
                    &lut,
                    dispatch,
                    &mut scratch,
                ));
            });
            let mut scan_into = |start: &TopK| {
                let mut top = start.clone();
                kernels::scan_with(&codes, &ids, &lut, &mut top, dispatch, &mut scratch);
                black_box(top);
            };
            let saturated_us = time(&mut || scan_into(&saturated));
            let empty = TopK::new(k);
            let scan_us = time(&mut || scan_into(&empty));

            points.push(SelectPoint {
                kstar,
                dispatch: dispatch.name().to_string(),
                score_us,
                filter_us: saturated_us - score_us,
                push_us: scan_us - saturated_us,
                pruned_frac: tally.pruned as f64 / tally.scanned as f64,
                identical_to_scalar: identical,
            });
        }
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
/// 4-dimensional sub-vectors): `200 × passes` builds per point, after an
/// oracle cross-check of every entry.
fn lut_build_points(passes: usize) -> Vec<LutBuildPoint> {
    let builds = 200 * passes.max(1);

    let mut points = Vec::new();
    for kstar in [16usize, 256] {
        let (book, q) = benchmark_shape_book(kstar);
        let centroid: Vec<f32> = (0..book.dim()).map(|i| (i % 3) as f32 * 0.5).collect();
        let residual_oracle = metric::sub(&q, &centroid);
        let sub = book.sub_dim();
        for metric_kind in [Metric::L2, Metric::InnerProduct] {
            let mut slot = Lut::placeholder();
            let mut residual = Vec::new();
            let mut build = |slot: &mut Lut| match metric_kind {
                Metric::L2 => {
                    slot.rebuild_l2(&q, &centroid, &book, LutPrecision::F32, &mut residual)
                }
                Metric::InnerProduct => *slot = Lut::build_ip(&q, &book, LutPrecision::F32),
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
                metric: metric_kind,
                tables_per_sec: builds as f64 / secs,
                ns_per_entry: secs * 1e9 / entries,
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
                                .set("metric", p.metric.to_string().as_str())
                                .set("tables_per_sec", p.tables_per_sec)
                                .set("ns_per_entry", p.ns_per_entry)
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
                                .set("score_us", p.score_us)
                                .set("filter_us", p.filter_us)
                                .set("push_us", p.push_us)
                                .set("pruned_frac", p.pruned_frac)
                                .set("identical_to_scalar", p.identical_to_scalar)
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
            "\n=== LUT build (m=16, sub-dim 4) ===\n{:<6} {:<14} {:>12} {:>10} {:>10}\n",
            "k*", "metric", "tables/sec", "ns/entry", "identical"
        ));
        for p in &self.lut_build {
            s.push_str(&format!(
                "{:<6} {:<14} {:>12.0} {:>10.2} {:>10}\n",
                p.kstar,
                p.metric.to_string(),
                p.tables_per_sec,
                p.ns_per_entry,
                p.identical_to_oracle
            ));
        }
        s.push_str(&format!(
            "\n=== scan -> select split (m=16, 25000 codes, k=100; us/query) ===\n{:<6} {:<9} {:>9} {:>10} {:>9} {:>8} {:>10}\n",
            "k*", "dispatch", "score_us", "filter_us", "push_us", "pruned", "identical"
        ));
        for p in &self.select {
            s.push_str(&format!(
                "{:<6} {:<9} {:>9.1} {:>10.1} {:>9.1} {:>8.4} {:>10}\n",
                p.kstar,
                p.dispatch,
                p.score_us,
                p.filter_us,
                p.push_us,
                p.pruned_frac,
                p.identical_to_scalar
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
        // LUT build: {l2, ip} x {16, 256}, every entry equal to the oracle.
        assert_eq!(sweep.lut_build.len(), 4);
        for p in &sweep.lut_build {
            assert!(p.tables_per_sec > 0.0, "{} k*={}", p.metric, p.kstar);
            assert!(
                p.identical_to_oracle,
                "{} k*={} LUT diverged from metric::*",
                p.metric, p.kstar
            );
        }
        // Select split: every dispatch x {16, 256}, each bit-identical.
        assert_eq!(sweep.select.len(), 2 * per_width);
        for p in &sweep.select {
            assert!(p.score_us > 0.0, "{} k*={}", p.dispatch, p.kstar);
            assert!((0.0..=1.0).contains(&p.pruned_frac));
            assert_eq!(p.pruned_frac == 0.0, p.dispatch == "scalar");
            assert!(
                p.identical_to_scalar,
                "{} k*={} select diverged from scalar",
                p.dispatch, p.kstar
            );
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
            "\"tables_per_sec\"",
            "\"identical_to_oracle\"",
            "\"select\"",
            "\"score_us\"",
            "\"filter_us\"",
            "\"push_us\"",
            "\"pruned_frac\"",
        ] {
            assert!(rendered.contains(key), "missing {key}");
        }
    }
}
