//! Property tests for the two-phase (over-fetch + re-rank) pipeline
//! (seeded `anna-testkit` harness; failures report a replayable seed).
//!
//! The three ISSUE-mandated invariants:
//!
//! 1. recall@k is monotone non-decreasing in the over-fetch factor
//!    `alpha` (exact rescoring of a superset of candidates can only keep
//!    or add ground-truth members),
//! 2. at `alpha = 1` with f32 precision, the two-phase pipeline is
//!    bit-identical to exact rescoring of the single-phase result ids,
//! 3. two-phase parallel execution is bit-identical to serial across
//!    metrics, codebook sizes, and worker counts.

use anna_engine::{run_pipeline, EngineRun, PlanOptions, QuerySpec};
use anna_index::{
    BatchedScan, IvfPqConfig, IvfPqIndex, RerankMode, RerankPolicy, RerankPrecision, SearchParams,
};
use anna_telemetry::Telemetry;
use anna_testkit::{forall, TestRng};
use anna_vector::{exact, Metric, Neighbor, VectorSet};

/// Blobby data with in-blob jitter: coarse clustering is meaningful but
/// PQ codes lose enough detail that the first pass makes real mistakes,
/// so re-ranking has room to improve recall.
fn clustered(rng: &mut TestRng, n: usize) -> VectorSet {
    let salt = rng.usize(0..1000);
    VectorSet::from_fn(8, n, |r, c| {
        let blob = ((r + salt) % 9) as f32;
        blob * 20.0 + ((r * 131 + c * 17 + salt * 7) % 23) as f32 * 0.7
    })
}

fn build(data: &VectorSet, metric: Metric, kstar: usize) -> IvfPqIndex {
    IvfPqIndex::build(
        data,
        &IvfPqConfig {
            metric,
            num_clusters: 12,
            m: 4,
            kstar,
            coarse_iters: 3,
            pq_iters: 2,
            ..IvfPqConfig::default()
        },
    )
}

fn sample_queries(rng: &mut TestRng, data: &VectorSet, nq: usize) -> VectorSet {
    let rows: Vec<usize> = (0..nq).map(|_| rng.usize(0..data.len())).collect();
    data.gather(&rows)
}

fn recall(results: &[Vec<Neighbor>], truth: &[Vec<Neighbor>]) -> f64 {
    let mut found = 0usize;
    let mut total = 0usize;
    for (gt, res) in truth.iter().zip(results) {
        total += gt.len();
        found += gt
            .iter()
            .filter(|t| res.iter().any(|n| n.id == t.id))
            .count();
    }
    found as f64 / total.max(1) as f64
}

/// Runs the two-phase engine pipeline (`params.k` is the final `k`) on
/// `threads` workers; predicted == measured is part of the run.
fn two_phase(
    scan: &BatchedScan<'_>,
    queries: &VectorSet,
    params: &SearchParams,
    policy: RerankPolicy,
    threads: usize,
) -> EngineRun {
    let spec = QuerySpec::from(params);
    let options = PlanOptions {
        rerank: Some(policy),
    };
    let tel = Telemetry::disabled();
    run_pipeline(scan, queries, &spec, &options, threads, &tel)
        .expect("two-phase predicted == measured")
        .2
}

/// Invariant 1: with exact (f32) rescoring, growing alpha grows the
/// candidate set monotonically under the pinned score-then-id order, so
/// recall@k against exact ground truth never decreases.
#[test]
fn recall_is_monotone_in_alpha() {
    forall("two-phase recall monotone in alpha", 6, |rng| {
        let data = clustered(rng, 600);
        let metric = *rng.pick(&[Metric::L2, Metric::InnerProduct]);
        let index = build(&data, metric, 16);
        let queries = sample_queries(rng, &data, 24);
        let params = SearchParams {
            nprobe: rng.usize(2..6),
            k: rng.usize(3..11),
            ..Default::default()
        };
        let truth = exact::search(&queries, &data, metric, params.k);
        let scan = BatchedScan::with_rerank_db(&index, &data);

        let mut prev = -1.0f64;
        for alpha in [1usize, 2, 4, 8] {
            let policy = RerankPolicy {
                mode: RerankMode::Fixed(RerankPrecision::F32),
                alpha,
            };
            let results = two_phase(&scan, &queries, &params, policy, 1).results;
            let r = recall(&results, &truth);
            assert!(
                r >= prev,
                "recall fell from {prev} to {r} when alpha grew to {alpha}"
            );
            prev = r;
        }
    });
}

/// Invariant 2: at `alpha = 1` the first pass keeps exactly the
/// single-phase top-k, so f32 two-phase output is bit-identical to
/// exact rescoring of the single-phase result ids.
#[test]
fn alpha_one_f32_matches_rescored_single_phase() {
    forall("alpha=1 f32 == rescored single phase", 6, |rng| {
        let data = clustered(rng, 500);
        let metric = *rng.pick(&[Metric::L2, Metric::InnerProduct]);
        let index = build(&data, metric, 16);
        let queries = sample_queries(rng, &data, 16);
        let params = SearchParams {
            nprobe: rng.usize(2..6),
            k: rng.usize(3..11),
            ..Default::default()
        };
        let scan = BatchedScan::with_rerank_db(&index, &data);
        let policy = RerankPolicy {
            mode: RerankMode::Fixed(RerankPrecision::F32),
            alpha: 1,
        };
        let rescored = two_phase(&scan, &queries, &params, policy, 1).results;

        let (single, _) = BatchedScan::new(&index).run(&queries, &params);
        for (qi, hits) in single.iter().enumerate() {
            let ids: Vec<u64> = hits.iter().map(|n| n.id).collect();
            let want = exact::rescore_subset(queries.row(qi), &ids, &data, metric, params.k);
            assert_eq!(
                rescored[qi], want,
                "query {qi}: alpha=1 diverged from rescored single phase"
            );
        }
    });
}

/// Invariant 3: two-phase results and measured stats are bit-identical
/// for any worker count, across metrics and codebook sizes — the same
/// determinism contract the first pass already holds.
#[test]
fn two_phase_parallel_equals_serial() {
    for metric in [Metric::L2, Metric::InnerProduct] {
        for kstar in [16usize, 256] {
            let mut rng = TestRng::new(0xA77A ^ kstar as u64 ^ metric as u64);
            let data = clustered(&mut rng, 700);
            let index = build(&data, metric, kstar);
            let queries = sample_queries(&mut rng, &data, 20);
            let params = SearchParams {
                nprobe: 4,
                k: 7,
                ..Default::default()
            };
            let policy = RerankPolicy {
                mode: RerankMode::Adaptive,
                alpha: 3,
            };
            let scan = BatchedScan::with_rerank_db(&index, &data);
            let serial = two_phase(&scan, &queries, &params, policy, 1);
            assert!(
                serial.measured.rerank_vector_bytes > 0,
                "re-rank did not run"
            );
            for threads in [2usize, 4, 8] {
                let parallel = two_phase(&scan, &queries, &params, policy, threads);
                assert_eq!(
                    serial, parallel,
                    "{metric:?} kstar={kstar}: {threads} workers diverged from serial"
                );
            }
        }
    }
}

/// Duplicated vectors exercise the pinned score-then-id order end to end:
/// every duplicate pair ties exactly in the re-rank stage, and the
/// pipeline must keep the lower ids — identically at every alpha and
/// thread count.
#[test]
fn duplicated_vectors_break_ties_by_id() {
    let data = VectorSet::from_fn(8, 400, |r, c| {
        let base = r % 200; // rows r and r+200 are exact duplicates
        ((base * 37 + c * 11) % 50) as f32
    });
    let index = build(&data, Metric::L2, 16);
    let queries = data.gather(&[0, 57, 123, 199]);
    let params = SearchParams {
        nprobe: 4,
        k: 6,
        ..Default::default()
    };
    let scan = BatchedScan::with_rerank_db(&index, &data);
    let policy = RerankPolicy {
        mode: RerankMode::Fixed(RerankPrecision::F32),
        alpha: 4,
    };
    let serial = two_phase(&scan, &queries, &params, policy, 1).results;
    for hits in &serial {
        for pair in hits.windows(2) {
            assert!(
                pair[0].score > pair[1].score
                    || (pair[0].score == pair[1].score && pair[0].id < pair[1].id),
                "tie order violated: {pair:?}"
            );
        }
    }
    let parallel = two_phase(&scan, &queries, &params, policy, 4).results;
    assert_eq!(serial, parallel, "tie-breaking depended on worker count");
}
