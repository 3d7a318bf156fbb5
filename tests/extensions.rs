//! End-to-end tests of the Section VI extension claims: OPQ and AQ models
//! running through the same search pipeline ("ANNA can support all these
//! variations since their computation pattern for the search remains the
//! same").

use anna::core::{Anna, AnnaConfig};
use anna::data::{recall, synth, Character, DatasetSpec};
use anna::index::{BatchedScan, IvfPqConfig, IvfPqIndex, SearchParams};
use anna::quant::additive::{AqCodebook, AqConfig};
use anna::quant::opq::{Opq, OpqConfig};
use anna::quant::pq::PqConfig;
use anna::vector::{metric, Metric, VectorSet};

fn rotate_set(opq: &Opq, set: &VectorSet) -> VectorSet {
    let mut out = VectorSet::zeros(set.dim(), 0);
    for v in set.iter() {
        out.push(&opq.rotate(v));
    }
    out
}

/// OPQ-as-preprocessing: learn a rotation, rotate database and queries,
/// and run the unchanged IVF-PQ + ANNA pipeline in the rotated space. The
/// hardware never knows a rotation happened — exactly the compatibility
/// the paper claims.
#[test]
fn opq_preprocessing_runs_through_the_unchanged_pipeline() {
    let ds = synth::generate(&DatasetSpec {
        name: "opq-e2e".into(),
        dim: 8,
        n: 6000,
        num_queries: 24,
        character: Character::DeepLike,
        num_blobs: 16,
        seed: 21,
    });
    let gt = recall::ground_truth(&ds.queries, &ds.db, ds.metric, 10);

    // Learn the rotation (the inner codebook is retrained below on
    // residuals by the index builder).
    let opq = Opq::train(
        &ds.db,
        &OpqConfig {
            pq: PqConfig {
                m: 4,
                kstar: 16,
                iters: 4,
                seed: 1,
            },
            outer_iters: 3,
        },
    );
    assert!(opq.orthogonality_error() < 1e-4);

    let rotated_db = rotate_set(&opq, &ds.db);
    let rotated_queries = rotate_set(&opq, &ds.queries);

    let index = IvfPqIndex::build(
        &rotated_db,
        &IvfPqConfig {
            metric: ds.metric,
            num_clusters: 16,
            m: 4,
            kstar: 16,
            ..IvfPqConfig::default()
        },
    );

    // Rotation preserves L2 geometry, so ground truth in the original
    // space remains valid for rotated searches.
    let params = SearchParams {
        nprobe: 8,
        k: 100,
        ..Default::default()
    };
    let results = BatchedScan::new(&index).run(&rotated_queries, &params).0;
    let r = recall::recall_x_at_y(&gt, &results, 100);
    assert!(r > 0.5, "OPQ-preprocessed recall too low: {r}");

    // And the hardware path accepts the same index untouched.
    let anna = Anna::new(AnnaConfig::paper(), &index).unwrap();
    let (hits, timing) = anna.search(rotated_queries.row(0), 8, 10);
    assert_eq!(hits.len(), 10);
    assert!(timing.cycles > 0.0);
}

/// AQ end-to-end for MIPS: encode a corpus with additive quantization and
/// verify LUT-based ranking agrees with exact ranking on the decoded
/// approximations (the M-lookups-plus-reduce pattern ANNA executes).
#[test]
fn aq_lut_ranking_matches_decoded_ranking() {
    let ds = synth::generate(&DatasetSpec {
        name: "aq-e2e".into(),
        dim: 8,
        n: 2000,
        num_queries: 6,
        character: Character::GloveLike,
        num_blobs: 12,
        seed: 33,
    });
    let book = AqCodebook::train(
        &ds.db,
        &AqConfig {
            m: 4,
            kstar: 16,
            iters: 6,
            beam: 2,
            seed: 0,
        },
    );
    let codes: Vec<_> = ds.db.iter().map(|v| book.encode(v)).collect();

    for qi in 0..ds.queries.len() {
        let q = ds.queries.row(qi);
        let lut = book.build_lut(q);
        // Rank via the hardware pattern (M lookups + reduce).
        let mut by_lut: Vec<(usize, f32)> = codes
            .iter()
            .enumerate()
            .map(|(i, c)| (i, AqCodebook::score_ip(&lut, c)))
            .collect();
        by_lut.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        // Rank via decoded dot products.
        let mut by_decode: Vec<(usize, f32)> = codes
            .iter()
            .enumerate()
            .map(|(i, c)| (i, metric::dot(q, &book.decode(&c.codes))))
            .collect();
        by_decode.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        // The top-10 sets must substantially agree (f16 LUT rounding may
        // swap near-ties).
        let top_lut: std::collections::HashSet<usize> =
            by_lut.iter().take(10).map(|&(i, _)| i).collect();
        let hits = by_decode
            .iter()
            .take(10)
            .filter(|(i, _)| top_lut.contains(i))
            .count();
        assert!(hits >= 8, "query {qi}: only {hits}/10 agreement");
    }
}

/// AQ recall against exact ground truth: the additive model must be a
/// usable ANNS quantizer, not just self-consistent.
#[test]
fn aq_mips_recall_is_usable() {
    let ds = synth::generate(&DatasetSpec {
        name: "aq-recall".into(),
        dim: 8,
        n: 3000,
        num_queries: 16,
        character: Character::GloveLike,
        num_blobs: 12,
        seed: 44,
    });
    assert_eq!(ds.metric, Metric::InnerProduct);
    let gt = recall::ground_truth(&ds.queries, &ds.db, ds.metric, 10);
    let book = AqCodebook::train(
        &ds.db,
        &AqConfig {
            m: 4,
            kstar: 16,
            iters: 8,
            beam: 2,
            seed: 0,
        },
    );
    let codes: Vec<_> = ds.db.iter().map(|v| book.encode(v)).collect();

    let mut total = 0.0;
    for qi in 0..ds.queries.len() {
        let lut = book.build_lut(ds.queries.row(qi));
        let mut scored: Vec<(u64, f32)> = codes
            .iter()
            .enumerate()
            .map(|(i, c)| (i as u64, AqCodebook::score_ip(&lut, c)))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let retrieved: Vec<anna::vector::Neighbor> = scored
            .iter()
            .take(100)
            .map(|&(id, s)| anna::vector::Neighbor::new(id, s))
            .collect();
        total += recall::recall_one(&gt.ids[qi], &retrieved, 100);
    }
    let r = total / ds.queries.len() as f64;
    assert!(r > 0.6, "AQ MIPS recall 10@100 too low: {r}");
}
