//! Semantic search: maximum inner product search over GloVe-like word
//! embeddings, comparing the Faiss and ScaNN (anisotropic) codebook
//! objectives — the model-family difference the paper evaluates.
//!
//! ```sh
//! cargo run --release --example semantic_search
//! ```

use anna::core::{Anna, AnnaConfig, ScmAllocation};
use anna::data::{recall, synth, Character, DatasetSpec};
use anna::index::{BatchedScan, IvfPqConfig, IvfPqIndex, SearchParams, Trainer};

fn main() {
    // GloVe-like embeddings: heavy-tailed norms, inner-product metric.
    let spec = DatasetSpec {
        name: "glove-like".into(),
        dim: 20,
        n: 30_000,
        num_queries: 64,
        character: Character::GloveLike,
        num_blobs: 60,
        seed: 7,
    };
    let ds = synth::generate(&spec);
    let gt = recall::ground_truth(&ds.queries, &ds.db, ds.metric, 10);
    println!(
        "MIPS over {} embeddings ({} dims)",
        ds.db.len(),
        ds.db.dim()
    );

    // Train both model families at k*=16 (the ScaNN16/Faiss16 pairing).
    for trainer in [Trainer::Faiss, Trainer::Scann] {
        let index = IvfPqIndex::build(
            &ds.db,
            &IvfPqConfig {
                metric: ds.metric,
                num_clusters: 64,
                m: 10,
                kstar: 16,
                trainer,
                ..IvfPqConfig::default()
            },
        );
        print!("{trainer:?} codebook:  ");
        for w in [2usize, 8, 32] {
            let params = SearchParams {
                nprobe: w,
                k: 100,
                ..Default::default()
            };
            let results = BatchedScan::new(&index).run(&ds.queries, &params).0;
            let r = recall::recall_x_at_y(&gt, &results, 100);
            print!("W={w}: {r:.3}  ");
        }
        println!();

        // Batched ANNA execution with the memory-traffic optimization: for
        // inner product, lookup tables are cluster-invariant, so the CPM
        // load is light.
        let anna = Anna::new(AnnaConfig::paper(), &index).expect("valid configuration");
        let (results, timing) = anna.search_batch(&ds.queries, 8, 100, ScmAllocation::Auto);
        let r = recall::recall_x_at_y(&gt, &results, 100);
        println!(
            "  ANNA batched (W=8): recall {:.3}, {:.0} model-QPS, traffic {:.2} MB",
            r,
            timing.qps(anna.config()),
            timing.traffic.total() as f64 / 1e6,
        );
    }
}
