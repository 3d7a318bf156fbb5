//! Cross-crate integration tests: the full pipeline from synthetic data
//! through training, indexing, software search, accelerator-functional
//! search, and timing.

use anna::core::engine::{analytic, cycle};
use anna::core::{Anna, AnnaConfig, ScmAllocation};
use anna::data::{recall, synth, Character, ClusterSizeModel, DatasetSpec, PaperDataset};
use anna::index::{BatchedScan, IvfPqConfig, IvfPqIndex, SearchParams, Trainer};
use anna::vector::Metric;

fn dataset(character: Character, n: usize) -> synth::Dataset {
    synth::generate(&DatasetSpec {
        name: "e2e".into(),
        dim: 16,
        n,
        num_queries: 32,
        character,
        num_blobs: 24,
        seed: 5,
    })
}

fn build(ds: &synth::Dataset, kstar: usize, trainer: Trainer) -> IvfPqIndex {
    IvfPqIndex::build(
        &ds.db,
        &IvfPqConfig {
            metric: ds.metric,
            num_clusters: 24,
            m: 8,
            kstar,
            trainer,
            coarse_iters: 8,
            pq_iters: 6,
            seed: 5,
        },
    )
}

#[test]
fn recall_improves_with_w_on_every_dataset_family() {
    for character in [
        Character::SiftLike,
        Character::DeepLike,
        Character::GloveLike,
        Character::TtiLike,
    ] {
        let ds = dataset(character, 8000);
        let gt = recall::ground_truth(&ds.queries, &ds.db, ds.metric, 10);
        let index = build(&ds, 16, Trainer::Faiss);
        let mut last = 0.0;
        for w in [1usize, 4, 16] {
            let params = SearchParams {
                nprobe: w,
                k: 100,
                ..Default::default()
            };
            let results = BatchedScan::new(&index).run(&ds.queries, &params).0;
            let r = recall::recall_x_at_y(&gt, &results, 100);
            assert!(
                r >= last - 0.02,
                "{character:?}: recall dropped from {last} to {r} at W={w}"
            );
            last = r;
        }
        assert!(
            last > 0.35,
            "{character:?}: recall {last} too low at W=16/24"
        );
    }
}

#[test]
fn kstar256_recall_at_least_matches_kstar16() {
    // The paper: k*=256 reaches higher maximum recall than k*=16 (same
    // compression budget means more codewords per subspace but fewer
    // subspaces; at matched M here we isolate codebook resolution).
    let ds = dataset(Character::DeepLike, 8000);
    let gt = recall::ground_truth(&ds.queries, &ds.db, ds.metric, 10);
    let k16 = build(&ds, 16, Trainer::Faiss);
    let k256 = build(&ds, 256, Trainer::Faiss);
    let params = SearchParams {
        nprobe: 24,
        k: 100,
        ..Default::default()
    };
    let r16 = recall::recall_x_at_y(
        &gt,
        &BatchedScan::new(&k16).run(&ds.queries, &params).0,
        100,
    );
    let r256 = recall::recall_x_at_y(
        &gt,
        &BatchedScan::new(&k256).run(&ds.queries, &params).0,
        100,
    );
    assert!(
        r256 >= r16 - 0.01,
        "k*=256 ({r256}) should reach at least k*=16's recall ({r16})"
    );
}

#[test]
fn anna_functional_recall_matches_software() {
    let ds = dataset(Character::SiftLike, 6000);
    let gt = recall::ground_truth(&ds.queries, &ds.db, ds.metric, 10);
    let index = build(&ds, 16, Trainer::Faiss);
    let params = SearchParams {
        nprobe: 6,
        k: 100,
        ..Default::default()
    };
    let sw = recall::recall_x_at_y(
        &gt,
        &BatchedScan::new(&index).run(&ds.queries, &params).0,
        100,
    );

    let anna = Anna::new(AnnaConfig::paper(), &index).unwrap();
    let (hw_results, _) = anna.search_batch(&ds.queries, 6, 100, ScmAllocation::Auto);
    let hw = recall::recall_x_at_y(&gt, &hw_results, 100);
    assert!(
        (sw - hw).abs() < 0.02,
        "hardware datapath recall {hw} deviates from software {sw}"
    );
}

#[test]
fn batched_scan_traffic_matches_anna_code_traffic_model() {
    // The software cluster-major scanner and the accelerator's batch
    // engine must agree on which clusters get loaded.
    let ds = dataset(Character::SiftLike, 6000);
    let index = build(&ds, 16, Trainer::Faiss);
    let params = SearchParams {
        nprobe: 5,
        k: 50,
        ..Default::default()
    };
    let (_, stats) = BatchedScan::new(&index).run(&ds.queries, &params);

    let anna = Anna::new(AnnaConfig::paper(), &index).unwrap();
    let (_, timing) = anna.search_batch(&ds.queries, 5, 50, ScmAllocation::InterQuery);
    assert_eq!(
        stats.code_bytes, timing.traffic.code_bytes,
        "software scanner and accelerator disagree on code traffic"
    );
}

#[test]
fn engines_agree_at_paper_scale() {
    let clusters = ClusterSizeModel::skewed(1_000_000_000, 10_000, 0.35, 2);
    for dataset in [PaperDataset::Sift1B, PaperDataset::Tti1B] {
        let shape = anna::core::SearchShape {
            d: dataset.dim(),
            m: dataset.m_for(4, 256),
            kstar: 256,
            metric: dataset.metric(),
            num_clusters: 10_000,
            k: 1000,
        };
        let workload = anna::core::BatchWorkload {
            shape,
            cluster_sizes: clusters.sizes().to_vec(),
            visits: clusters.sample_query_visits(256, 32, 4),
        };
        let cfg = AnnaConfig::paper();
        let a = analytic::batch(&cfg, &workload, ScmAllocation::Auto);
        let c = cycle::batch(&cfg, &workload, ScmAllocation::Auto);
        let ratio = c.cycles / a.cycles;
        assert!(
            (0.7..1.4).contains(&ratio),
            "{dataset}: engines diverge (ratio {ratio})"
        );
        // Both engines must respect the bandwidth lower bound.
        assert!(a.cycles + 1.0 >= a.traffic.total() as f64 / cfg.bytes_per_cycle());
        assert!(c.cycles + 1.0 >= c.traffic.total() as f64 / cfg.bytes_per_cycle());
    }
}

#[test]
fn traffic_optimization_shows_figure5_effect_end_to_end() {
    let ds = dataset(Character::DeepLike, 10_000);
    let index = build(&ds, 16, Trainer::Faiss);
    let anna = Anna::new(AnnaConfig::paper(), &index).unwrap();

    let workload = anna.plan_batch(&ds.queries, 8, 100);
    let singles: Vec<anna::core::QueryWorkload> = workload
        .visits
        .iter()
        .map(|v| anna::core::QueryWorkload {
            shape: workload.shape,
            visited_cluster_sizes: v.iter().map(|&c| workload.cluster_sizes[c]).collect(),
        })
        .collect();
    let cfg = anna.config();
    let baseline = analytic::sequential_queries(cfg, &singles, cfg.n_scm);
    let optimized = analytic::batch(cfg, &workload, ScmAllocation::Auto);
    assert!(
        optimized.traffic.code_bytes < baseline.traffic.code_bytes,
        "optimization must reduce code traffic ({} vs {})",
        optimized.traffic.code_bytes,
        baseline.traffic.code_bytes
    );
}

#[test]
fn scann_trainer_improves_or_matches_mips_recall() {
    // ScaNN's anisotropic objective targets inner-product workloads.
    let ds = dataset(Character::GloveLike, 8000);
    let gt = recall::ground_truth(&ds.queries, &ds.db, ds.metric, 10);
    assert_eq!(ds.metric, Metric::InnerProduct);
    let faiss = build(&ds, 16, Trainer::Faiss);
    let scann = build(&ds, 16, Trainer::Scann);
    let params = SearchParams {
        nprobe: 12,
        k: 100,
        ..Default::default()
    };
    let rf = recall::recall_x_at_y(
        &gt,
        &BatchedScan::new(&faiss).run(&ds.queries, &params).0,
        100,
    );
    let rs = recall::recall_x_at_y(
        &gt,
        &BatchedScan::new(&scann).run(&ds.queries, &params).0,
        100,
    );
    // Not guaranteed to strictly win on synthetic data, but must be
    // competitive (within a few points) — and both must be usable.
    assert!(
        rs > rf - 0.08,
        "anisotropic recall {rs} collapsed vs Faiss {rf}"
    );
    assert!(rf > 0.3 && rs > 0.3);
}
