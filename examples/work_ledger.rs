//! Work ledger: how many candidates the scan kernels offer each query's
//! selector and how many rows they score at f32, at the repo benchmark's
//! full-scale `batch_k16` / `batch_k256` shape, as the engine counts them
//! (`kernel.codes_scanned`, `kernel.pruned`, `kernel.bound_rejected`,
//! `kernel.exact` from a `Telemetry::enabled()` pass).
//!
//! ```sh
//! cargo run --release --example work_ledger -- [seed] [k*]
//! ```
//!
//! The data is the benchmark's for that seed (`benchmark/src/inputs.rs`:
//! 100 000 SIFT-like rows of 64 dimensions, 2 048 blobs, the next 512 rows
//! as the query pool; 32 clusters and `m = 16`, trained on the first
//! 12 500 rows, the rest added), and the requests are its closed-loop
//! ones (`k = 100`, `nprobe = 8`), run at one thread in batches of one
//! query and of the whole pool. The counts are exact and repeat run to
//! run: they change only when the work does, so they are the noise-free
//! half of a timing claim.

use anna::data::{synth, Character, DatasetSpec};
use anna::engine::{PlanOptions, QuerySpec, SearchEngine};
use anna::index::{BatchedScan, IvfPqConfig, IvfPqIndex};
use anna::vector::VectorSet;
use anna_telemetry::Telemetry;

const N: usize = 100_000;
const TRAIN_N: usize = 12_500;
const POOL: usize = 512;

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().map_or(1, |s| s.parse().expect("a seed"));
    let kstar: usize = args.next().map_or(16, |s| s.parse().expect("16 or 256"));

    let dataset = synth::generate(&DatasetSpec {
        name: "benchmark".into(),
        dim: 64,
        n: N + POOL,
        num_queries: 1,
        character: Character::SiftLike,
        num_blobs: 2048,
        seed,
    });
    let rows = |range: std::ops::Range<usize>| dataset.db.gather(&range.collect::<Vec<_>>());
    let mut index = IvfPqIndex::build(
        &rows(0..TRAIN_N),
        &IvfPqConfig {
            num_clusters: 32,
            m: 16,
            kstar,
            ..IvfPqConfig::default()
        },
    );
    index.add(&rows(TRAIN_N..N));
    let pool: VectorSet = rows(N..N + POOL);
    let scan = BatchedScan::new(&index);
    // The trait's `plan`, which the benchmark calls (the inherent one
    // shadows it).
    let engine: &dyn SearchEngine = &scan;

    println!("seed {seed}, k* = {kstar}, k = 100, nprobe = 8, {POOL} queries, per query:");
    for batch in [1, POOL] {
        let tel = Telemetry::enabled();
        for chunk in (0..POOL).collect::<Vec<_>>().chunks(batch) {
            let queries = pool.gather(chunk);
            let specs = vec![QuerySpec { k: 100, scope: 8 }; chunk.len()];
            let scopes: Vec<Vec<usize>> = queries
                .iter()
                .zip(&specs)
                .map(|(q, spec)| engine.query_scope(q, spec))
                .collect();
            let plan = engine.plan(&queries, &specs, &scopes, &PlanOptions::default());
            engine.execute(&queries, &plan, 1, &tel);
        }
        let registry = tel.registry().expect("telemetry enabled");
        let per_query = |name: &str| registry.counter(name).get() as f64 / POOL as f64;
        let scanned = per_query("kernel.codes_scanned");
        println!(
            "  B = {batch:>3}: scanned {scanned:.3}, offers {:.3}, exact {:.3}, bound-rejected {:.3}",
            scanned - per_query("kernel.pruned"),
            per_query("kernel.exact"),
            per_query("kernel.bound_rejected"),
        );
    }
}
