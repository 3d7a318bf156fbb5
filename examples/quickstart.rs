//! Quickstart: build an IVF-PQ index over a synthetic dataset, search it
//! in software and on the ANNA accelerator model, and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use anna::core::{Anna, AnnaConfig};
use anna::data::{recall, synth, Character, DatasetSpec};
use anna::index::{BatchedScan, IvfPqConfig, IvfPqIndex, SearchParams};

fn main() {
    // 1. A SIFT-like dataset: 20k vectors, 16 dimensions.
    let spec = DatasetSpec {
        name: "quickstart".into(),
        dim: 16,
        n: 20_000,
        num_queries: 64,
        character: Character::SiftLike,
        num_blobs: 40,
        seed: 42,
    };
    let ds = synth::generate(&spec);
    println!(
        "dataset: {} vectors x {} dims, metric {}",
        ds.db.len(),
        ds.db.dim(),
        ds.metric
    );

    // 2. Exact ground truth for recall measurement.
    let gt = recall::ground_truth(&ds.queries, &ds.db, ds.metric, 10);

    // 3. Build the two-level PQ index (|C|=64 clusters, M=8, k*=16 — the
    //    Faiss16-style configuration).
    let index = IvfPqIndex::build(
        &ds.db,
        &IvfPqConfig {
            metric: ds.metric,
            num_clusters: 64,
            m: 8,
            kstar: 16,
            ..IvfPqConfig::default()
        },
    );
    let stats = index.stats();
    println!(
        "index: |C|={}, {:.1}:1 compression ({} -> {} bytes)",
        index.num_clusters(),
        stats.compression_ratio(),
        stats.raw_bytes,
        stats.code_bytes
    );

    // 4. Software search at increasing W: recall/throughput trade-off.
    println!("\nsoftware search (recall 10@100):");
    for w in [1usize, 2, 4, 8, 16] {
        let params = SearchParams {
            nprobe: w,
            k: 100,
            ..Default::default()
        };
        let results = BatchedScan::new(&index).run(&ds.queries, &params).0;
        let r = recall::recall_x_at_y(&gt, &results, 100);
        println!("  W={w:>2}: recall {r:.3}");
    }

    // 5. The same search on the ANNA accelerator model: identical results
    //    (f16 lookup tables, P-heap top-k) plus cycle-level timing.
    let anna = Anna::new(AnnaConfig::paper(), &index).expect("valid configuration");
    let (hits, timing) = anna.search(ds.queries.row(0), 8, 10);
    println!("\nANNA search of query 0 (W=8):");
    for (rank, h) in hits.iter().take(5).enumerate() {
        println!("  #{rank}: id {} (score {:.1})", h.id, h.score);
    }
    println!(
        "  {:.0} cycles = {:.1} us at 1 GHz; {} bytes of DRAM traffic; {:?}-bound",
        timing.cycles,
        timing.latency_seconds(anna.config()) * 1e6,
        timing.traffic.total(),
        timing.bound(),
    );
}
