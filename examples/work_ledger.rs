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
//! half of a timing claim. At seed 1 under the `avx512` dispatch the run
//! asserts them against the committed ledger below (CI runs it at both
//! `k*`), so a change that moves offers or exact rows must change those
//! numbers in its own diff; any other seed or dispatch prints a skip line.

use anna::data::{synth, Character, DatasetSpec};
use anna::engine::{PlanOptions, QuerySpec, SearchEngine};
use anna::index::{BatchedScan, IvfPqConfig, IvfPqIndex, KernelDispatch};
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

    let dispatch = KernelDispatch::current();
    println!(
        "seed {seed}, k* = {kstar}, k = 100, nprobe = 8, {POOL} queries, {} dispatch, per query:",
        dispatch.name()
    );
    let mut ledger = Vec::new();
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
        let total = |name: &str| registry.counter(name).get();
        let scanned = total("kernel.codes_scanned");
        let (offers, exact) = (scanned - total("kernel.pruned"), total("kernel.exact"));
        let per_query = |n: u64| n as f64 / POOL as f64;
        println!(
            "  B = {batch:>3}: scanned {:.3}, offers {:.3}, exact {:.3}, bound-rejected {:.3} \
             (totals: offers {offers}, exact {exact})",
            per_query(scanned),
            per_query(offers),
            per_query(exact),
            per_query(total("kernel.bound_rejected")),
        );
        ledger.push((batch, offers, exact));
    }
    // The committed ledger: `(k*, batch, offers, exact rows)` over the
    // whole pool, at seed 1 under the `avx512` dispatch, whose seeded
    // visits set both. A change that moves offers or exact rows changes
    // these numbers in its own diff.
    const SEED_1_AVX512: [(usize, usize, u64, u64); 4] = [
        (16, 1, 134_562, 175_335),
        (16, POOL, 215_481, 290_581),
        (256, 1, 145_525, 207_727),
        (256, POOL, 218_842, 317_477),
    ];
    if seed != 1 || dispatch != KernelDispatch::Avx512 {
        println!(
            "skip: the committed ledger is seed 1's under the avx512 dispatch \
             (this run: seed {seed}, {})",
            dispatch.name()
        );
        return;
    }
    for (batch, offers, exact) in ledger {
        let want = SEED_1_AVX512
            .iter()
            .find(|&&(k, b, _, _)| k == kstar && b == batch)
            .map(|&(_, _, offers, exact)| (offers, exact));
        match want {
            Some(want) => assert_eq!(
                (offers, exact),
                want,
                "k* = {kstar}, B = {batch}: (offers, exact) moved from the committed ledger"
            ),
            None => println!("skip: no committed ledger for k* = {kstar}"),
        }
    }
    println!("ledger: seed 1, k* = {kstar} matches the committed counts");
}
