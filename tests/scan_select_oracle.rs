//! The scan → select invariant at the repo benchmark's shapes, owned by
//! tier-1: one query's visit list — 8 clusters × 3 125 encoded vectors,
//! `m = 16`, `k = 100` — as nibble codes (`k* = 16`, 8-byte rows) and as
//! byte codes (`k* = 256`, 16-byte rows), scanned into one `TopK` under
//! every [`KernelDispatch`] this host can run, must keep exactly what the
//! scalar path keeps by pushing every score: same ids, same
//! `score.to_bits()`, visit after visit as the threshold tightens.
//! `ScanTally::pruned` means `scanned − offered to TopK::push` on every
//! dispatch, so the filtering dispatches (`blocked` and every SIMD arm the
//! host has) must agree on it too. A failure names the arm that diverged
//! and the process-wide [`KernelDispatch::current`] — the arm every engine
//! in this process actually runs.
//!
//! The batch engine does not scan one query at a time: it runs cluster-
//! major, so consecutive visits feed different queries' selectors, each
//! one cold and part-way through its own buffer, and it scans a cluster's
//! visitors together (`scan_group_with`). The cluster-major tests feed 64
//! selectors round-robin, one visit each per cluster — one query at a
//! time, or each cluster's 64 visitors in one grouped call — and hold
//! every query's kept top-k to the scalar oracle after every cluster.

use anna::index::{kernels, KernelDispatch, Lut, LutPrecision, ScanScratch};
use anna::quant::codes::PackedCodes;
use anna::quant::pq::{PqCodebook, PqConfig};
use anna::vector::{TopK, VectorSet};
use anna_testkit::TestRng;

const DIM: usize = 64;
const CLUSTERS: usize = 8;
const LIST_LEN: usize = 3_125;
const K: usize = 100;

struct Cluster {
    centroid: Vec<f32>,
    codes: PackedCodes,
    ids: Vec<u64>,
}

/// SIFT-like rows: small non-negative integers, heavy with exact ties.
fn rows(rng: &mut TestRng, n: usize) -> VectorSet {
    VectorSet::from_vec(DIM, (0..n * DIM).map(|_| rng.below(24) as f32).collect())
}

/// What `top` keeps, as `(id, score bits)` best first, without consuming it.
fn kept(top: &TopK) -> Vec<(u64, u32)> {
    top.clone()
        .into_sorted_vec()
        .iter()
        .map(|h| (h.id, h.score.to_bits()))
        .collect()
}

/// A `k*`-entry codebook at the benchmark's shape and the 8 clusters of
/// one query's visit list, encoded with it.
fn benchmark_shape(
    rng: &mut TestRng,
    kstar: usize,
    vector_bytes: usize,
) -> (PqCodebook, Vec<Cluster>) {
    let book = PqCodebook::train(
        &rows(rng, 1_024),
        &PqConfig {
            m: 16,
            kstar,
            iters: 4,
            seed: 16,
        },
    );
    assert_eq!(book.kstar(), kstar, "training left a narrower book");
    let clusters: Vec<Cluster> = (0..CLUSTERS)
        .map(|c| {
            let codes = book.encode_all(&rows(rng, LIST_LEN));
            assert_eq!(codes.vector_bytes(), vector_bytes);
            Cluster {
                centroid: rng.vec_f32(DIM, 0.0..4.0),
                codes,
                // Interleaved across clusters, as `add` deals them out.
                ids: (0..LIST_LEN).map(|i| (i * CLUSTERS + c) as u64).collect(),
            }
        })
        .collect();
    (book, clusters)
}

/// Scans the benchmark-shaped visit list with `k*`-entry tables under
/// every available dispatch and checks each against the scalar oracle.
fn every_dispatch_keeps_the_scalar_top_k(kstar: usize, vector_bytes: usize) {
    let mut rng = TestRng::new(kstar as u64);
    let (book, clusters) = benchmark_shape(&mut rng, kstar, vector_bytes);
    let mut scratch = ScanScratch::new();
    for _query in 0..4 {
        let q = rng.vec_f32(DIM, 0.0..24.0);
        let luts: Vec<Lut> = clusters
            .iter()
            .map(|c| Lut::build_l2(&q, &c.centroid, &book, LutPrecision::F32))
            .collect();
        // Per dispatch: the kept set after every visit, and the tallies.
        let runs: Vec<_> = KernelDispatch::available()
            .into_iter()
            .map(|dispatch| {
                let mut top = TopK::new(K);
                let mut trail = Vec::new();
                for (cluster, lut) in clusters.iter().zip(&luts) {
                    let tally = kernels::scan_with(
                        &cluster.codes,
                        &cluster.ids,
                        lut,
                        &mut top,
                        dispatch,
                        &mut scratch,
                    );
                    assert_eq!(tally.scanned, LIST_LEN as u64);
                    trail.push((kept(&top), tally.pruned));
                }
                (dispatch, trail)
            })
            .collect();

        let (scalar, oracle) = &runs[0];
        assert_eq!(*scalar, KernelDispatch::Scalar);
        assert!(oracle
            .iter()
            .all(|(kept, pruned)| kept.len() == K && *pruned == 0));
        let filtering = &runs[1..];
        for (dispatch, trail) in filtering {
            let at = format!(
                "k*={kstar} {} (process-wide dispatch: {})",
                dispatch.name(),
                KernelDispatch::current().name()
            );
            for (visit, ((kept, pruned), (want, _))) in trail.iter().zip(oracle).enumerate() {
                assert_eq!(kept, want, "{at} visit {visit}");
                let (_, first) = &filtering[0];
                assert_eq!(*pruned, first[visit].1, "{at} visit {visit}");
            }
            // Once the selector is warm the filter must actually engage.
            let (_, last_pruned) = trail[CLUSTERS - 1];
            assert!(
                last_pruned > LIST_LEN as u64 * 9 / 10,
                "{at} pruned only {last_pruned} of the last visit"
            );
        }
    }
}

#[test]
fn every_dispatch_keeps_the_scalar_top_k_at_the_benchmark_shape() {
    every_dispatch_keeps_the_scalar_top_k(16, 8);
}

/// The `batch_k256` shape: under `avx512` this is the gather kernel and
/// its survivors sink; under every other arm, the blocked kernel.
#[test]
fn every_dispatch_keeps_the_scalar_top_k_at_the_k256_benchmark_shape() {
    every_dispatch_keeps_the_scalar_top_k(256, 16);
}

/// Selectors fed round-robin in the cluster-major tests.
const QUERIES: usize = 64;

/// 64 queries visit the 8 clusters cluster-major — every query's visit to
/// cluster 0, then every query's visit to cluster 1, … — each into its own
/// `TopK` (k = 100) under every available dispatch: one query at a time
/// through `scan_with`, or, `grouped`, each cluster's 64 visitors at once
/// through `scan_group_with`, the batch engine's round loop (under
/// `avx512` at `k* = 16`, the LUT16 kernel scoring four queries per pass
/// over the rows). After every cluster, each query's kept top-k must equal
/// the scalar path's bit for bit, and the filtering dispatches must agree
/// on how many scores they pruned.
fn cluster_major_selectors_keep_the_scalar_top_k(
    kstar: usize,
    vector_bytes: usize,
    grouped: bool,
) -> Vec<(KernelDispatch, u64)> {
    let mut rng = TestRng::new(0xC0 + kstar as u64);
    let (book, clusters) = benchmark_shape(&mut rng, kstar, vector_bytes);
    let queries: Vec<Vec<f32>> = (0..QUERIES).map(|_| rng.vec_f32(DIM, 0.0..24.0)).collect();
    // One table per (cluster, query), as the engine builds them.
    let luts: Vec<Vec<Lut>> = clusters
        .iter()
        .map(|c| {
            queries
                .iter()
                .map(|q| Lut::build_l2(q, &c.centroid, &book, LutPrecision::F32))
                .collect()
        })
        .collect();

    let mut scratch = ScanScratch::new();
    // Per dispatch: every query's kept set after each cluster, and the
    // total pruned count.
    let runs: Vec<_> = KernelDispatch::available()
        .into_iter()
        .map(|dispatch| {
            let mut tops: Vec<TopK> = (0..QUERIES).map(|_| TopK::new(K)).collect();
            let mut trail = Vec::new();
            let mut pruned = 0;
            for (cluster, luts) in clusters.iter().zip(&luts) {
                if grouped {
                    let tally = kernels::scan_group_with(
                        &cluster.codes,
                        &cluster.ids,
                        luts,
                        &mut tops,
                        dispatch,
                        &mut scratch,
                    );
                    assert_eq!(tally.scanned, (QUERIES * LIST_LEN) as u64);
                    pruned += tally.pruned;
                } else {
                    for (top, lut) in tops.iter_mut().zip(luts) {
                        let tally = kernels::scan_with(
                            &cluster.codes,
                            &cluster.ids,
                            lut,
                            top,
                            dispatch,
                            &mut scratch,
                        );
                        pruned += tally.pruned;
                    }
                }
                trail.push(tops.iter().map(kept).collect::<Vec<_>>());
            }
            (dispatch, trail, pruned)
        })
        .collect();

    let (scalar, oracle, _) = &runs[0];
    assert_eq!(*scalar, KernelDispatch::Scalar);
    assert!(oracle.iter().flatten().all(|kept| kept.len() == K));
    let filtering = &runs[1..];
    for (dispatch, trail, pruned) in filtering {
        let at = format!(
            "k*={kstar} grouped={grouped} {} (process-wide dispatch: {})",
            dispatch.name(),
            KernelDispatch::current().name()
        );
        for (c, (got, want)) in trail.iter().zip(oracle).enumerate() {
            for (qi, (got, want)) in got.iter().zip(want).enumerate() {
                assert_eq!(got, want, "{at} cluster {c} query {qi}");
            }
        }
        assert_eq!(*pruned, filtering[0].2, "{at}");
    }
    runs.into_iter().map(|(d, _, pruned)| (d, pruned)).collect()
}

#[test]
fn cluster_major_selectors_keep_the_scalar_top_k_at_the_benchmark_shape() {
    cluster_major_selectors_keep_the_scalar_top_k(16, 8, false);
}

#[test]
fn cluster_major_selectors_keep_the_scalar_top_k_at_the_k256_benchmark_shape() {
    cluster_major_selectors_keep_the_scalar_top_k(256, 16, false);
}

/// The round loop's path at `batch_k16`'s shape: each cluster's visitors
/// scanned together, four per pass where the dispatch groups them, keep
/// what the scalar path keeps — and each dispatch prunes exactly what its
/// one-query-at-a-time scans prune.
#[test]
fn grouped_cluster_major_selectors_keep_the_scalar_top_k_at_the_benchmark_shape() {
    let grouped = cluster_major_selectors_keep_the_scalar_top_k(16, 8, true);
    let per_query = cluster_major_selectors_keep_the_scalar_top_k(16, 8, false);
    assert_eq!(grouped, per_query);
}
