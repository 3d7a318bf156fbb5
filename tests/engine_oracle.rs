//! The engine oracle: every IVF-PQ engine, driven the only way a batch is
//! run — `&dyn SearchEngine` through [`run_pipeline`] — must return, for
//! every query, exactly what the query-at-a-time schedule returns
//! ([`IvfPqIndex::search`], or [`IvfPqIndex::search_two_phase`] under a
//! re-rank policy), bit for bit; `verify()` must hold (predicted ==
//! measured per component); and results plus [`MeasuredTraffic`] must be
//! identical at 1, 2, 4 and 8 threads. Across {L2, IP} × {k* = 16, 256};
//! the tiered case adds the storage tier (cold, then warm) to all three.
//! At the benchmark's two-phase shape the re-rank is also pinned to the
//! portable rescore arm, whichever arm the process dispatches.

use anna::data::synth::{self, Character, DatasetSpec};
use anna::engine::{
    plan_uniform, run_pipeline, MeasuredTraffic, PlanOptions, QuerySpec, SearchEngine,
};
use anna::index::{
    BatchedScan, IvfPqConfig, IvfPqIndex, RerankMode, RerankPolicy, RerankPrecision, SearchParams,
    ShardedIndex,
};
use anna::plan::EnginePlan;
use anna::vector::exact::{self, RescoreArm, RescoreScratch};
use anna::vector::{Metric, Neighbor, VectorSet};
use anna_telemetry::Telemetry;
use anna_testkit::{forall, TestRng};

/// Grep-proof for the engine layer's telemetry namespace: every counter,
/// histogram, and span the engine-layer crates emit must use the
/// `engine.` prefix, so dashboards can select the whole layer with one
/// glob and no key silently lands in another layer's namespace.
#[test]
fn engine_layer_telemetry_keys_use_the_engine_prefix() {
    // Built via concat! so this test file does not match itself.
    let emitters = [
        concat!("counter_", "add(\""),
        concat!("record_", "ns(\""),
        concat!("sp", "an(\""),
    ];
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut scanned = 0usize;
    let mut keys = 0usize;
    let mut offenders = Vec::new();
    for dir in ["crates/engine/src", "crates/graph/src"] {
        let mut pending = vec![root.join(dir)];
        while let Some(path) = pending.pop() {
            if path.is_dir() {
                for entry in std::fs::read_dir(&path).expect("readable source dir") {
                    pending.push(entry.expect("dir entry").path());
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("readable source file");
                scanned += 1;
                for emitter in emitters {
                    for (i, _) in text.match_indices(emitter) {
                        let key_start = i + emitter.len();
                        let key: String = text[key_start..]
                            .chars()
                            .take_while(|&c| c != '"')
                            .collect();
                        keys += 1;
                        if !key.starts_with("engine.") {
                            offenders.push(format!("{}: `{key}`", path.display()));
                        }
                    }
                }
            }
        }
    }
    assert!(scanned >= 2, "walk looks broken: only {scanned} files");
    assert!(keys >= 8, "extraction looks broken: only {keys} keys");
    assert!(
        offenders.is_empty(),
        "telemetry keys outside the engine. namespace: {offenders:?}"
    );
}

/// Blobby data so the coarse quantizer produces unevenly sized clusters.
fn clustered(dim: usize, n: usize, salt: usize) -> VectorSet {
    VectorSet::from_fn(dim, n, |r, c| {
        let blob = ((r + salt) % 9) as f32;
        blob * 25.0 + ((r * 31 + c * 7 + salt * 13) % 11) as f32 * 0.3
    })
}

fn build(
    metric: Metric,
    kstar: usize,
    salt: usize,
    num_clusters: usize,
) -> (VectorSet, IvfPqIndex) {
    let data = clustered(8, 600, salt);
    let index = IvfPqIndex::build(
        &data,
        &IvfPqConfig {
            metric,
            num_clusters,
            m: 4,
            kstar,
            coarse_iters: 3,
            pq_iters: 2,
            ..IvfPqConfig::default()
        },
    );
    (data, index)
}

/// `b` query rows drawn from `data`.
fn sample(data: &VectorSet, b: usize, salt: usize) -> VectorSet {
    data.gather(&(0..b).map(|i| (i * 37 + salt) % 600).collect::<Vec<_>>())
}

/// Runs `engine` at every thread count and checks the three oracle
/// properties (see the module docs) against `oracle(query)`.
fn check_against_oracle(
    label: &str,
    engine: &dyn SearchEngine,
    queries: &VectorSet,
    spec: QuerySpec,
    options: PlanOptions,
    oracle: impl Fn(&[f32]) -> Vec<Neighbor>,
) {
    let want: Vec<Vec<Neighbor>> = queries.iter().map(oracle).collect();
    let tel = Telemetry::disabled();
    let mut serial: Option<MeasuredTraffic> = None;
    for threads in [1usize, 2, 4, 8] {
        let (_, _, run) = run_pipeline(engine, queries, &spec, &options, threads, &tel)
            .unwrap_or_else(|e| panic!("{label}/t={threads}: verify failed: {e}"));
        assert_eq!(run.results.len(), want.len(), "{label}/t={threads}");
        for (qi, (got, want)) in run.results.iter().zip(&want).enumerate() {
            assert_eq!(
                got, want,
                "{label}/t={threads}: query {qi} differs from the oracle"
            );
        }
        assert_eq!(
            run.measured,
            *serial.get_or_insert(run.measured),
            "{label}/t={threads}: traffic differs from t=1"
        );
    }
}

#[test]
fn ivf_pq_engine_matches_the_query_at_a_time_oracle() {
    forall("ivf_pq engine == oracle", 4, |rng: &mut TestRng| {
        let salt = rng.usize(0..1000);
        let num_clusters = rng.usize(8..13);
        let nprobe = rng.usize(1..6).min(num_clusters);
        let k = rng.usize(5..40);
        let b = rng.usize(8..25);
        for metric in [Metric::L2, Metric::InnerProduct] {
            for kstar in [16usize, 256] {
                let (data, index) = build(metric, kstar, salt, num_clusters);
                let params = SearchParams {
                    nprobe,
                    k,
                    ..Default::default()
                };
                check_against_oracle(
                    &format!("ivf_pq/{metric:?}/k*={kstar}"),
                    &BatchedScan::new(&index),
                    &sample(&data, b, salt),
                    QuerySpec { k, scope: nprobe },
                    PlanOptions::default(),
                    |q| index.search(q, &params),
                );
            }
        }
    });
}

#[test]
fn two_phase_engine_matches_the_two_phase_oracle() {
    forall("two-phase engine == oracle", 4, |rng: &mut TestRng| {
        let salt = rng.usize(0..1000);
        let k = rng.usize(3..15);
        let alpha = rng.usize(1..5);
        let params = SearchParams {
            nprobe: 4,
            k,
            ..Default::default()
        };
        for mode in [
            RerankMode::Fixed(RerankPrecision::F16),
            RerankMode::Fixed(RerankPrecision::F32),
            RerankMode::Adaptive,
        ] {
            let policy = RerankPolicy { mode, alpha };
            for metric in [Metric::L2, Metric::InnerProduct] {
                for kstar in [16usize, 256] {
                    let (data, index) = build(metric, kstar, salt, 10);
                    check_against_oracle(
                        &format!("two_phase/{mode:?}@a{alpha}/{metric:?}/k*={kstar}"),
                        &BatchedScan::with_rerank_db(&index, &data),
                        &sample(&data, 12, salt),
                        QuerySpec { k, scope: 4 },
                        PlanOptions {
                            rerank: Some(policy),
                        },
                        |q| index.search_two_phase(q, &params, &policy, &data),
                    );
                }
            }
        }
    });
}

/// The two-phase engine at the repo benchmark's `two_phase` shape
/// (adaptive α 10, k 10, nprobe 8, dim 64, m 16, k* 16) answers each query
/// with, bit for bit, the **portable** rescore arm run on that query's
/// first-pass survivors (the query-at-a-time top `k_first`) at the
/// controller's precision — so whichever arm the process dispatches (F16C
/// where the host has it, the portable one under `ANNA_FORCE_SCALAR`), the
/// engine returns the reference arithmetic. One L2 and one inner-product
/// family, neither integer-valued, so the f16 precision really rounds.
#[test]
fn two_phase_engine_matches_the_portable_rescore_at_the_benchmark_shape() {
    let policy = RerankPolicy {
        mode: RerankMode::Adaptive,
        alpha: 10,
    };
    let spec = QuerySpec { k: 10, scope: 8 };
    let k_first = policy.k_first(spec.k);
    for character in [Character::DeepLike, Character::GloveLike] {
        let dataset = synth::generate(&DatasetSpec {
            name: "two_phase_shape".into(),
            dim: 64,
            n: 6_000,
            num_queries: 32,
            character,
            num_blobs: 256,
            seed: 27,
        });
        let (db, queries) = (&dataset.db, &dataset.queries);
        let index = IvfPqIndex::build(
            db,
            &IvfPqConfig {
                metric: dataset.metric,
                num_clusters: 32,
                m: 16,
                kstar: 16,
                ..IvfPqConfig::default()
            },
        );
        let first = SearchParams {
            nprobe: spec.scope,
            k: k_first,
            ..Default::default()
        };
        let mut scratch = RescoreScratch::new();
        let want: Vec<Vec<Neighbor>> = queries
            .iter()
            .map(|q| {
                let ids: Vec<u64> = index.search(q, &first).iter().map(|n| n.id).collect();
                let pool = index
                    .filter_clusters(q, spec.scope)
                    .into_iter()
                    .map(|c| index.cluster(c).len())
                    .sum();
                let decision = policy.query_decision(k_first, pool);
                let mut out = Vec::new();
                exact::rescore_subset_with(
                    RescoreArm::Portable,
                    q,
                    &ids,
                    db,
                    dataset.metric,
                    spec.k,
                    decision.precision == RerankPrecision::F16,
                    &mut scratch,
                    &mut out,
                );
                out
            })
            .collect();
        let engine = BatchedScan::with_rerank_db(&index, db);
        let options = PlanOptions {
            rerank: Some(policy),
        };
        for threads in [1usize, 2] {
            let (_, _, run) = run_pipeline(
                &engine,
                queries,
                &spec,
                &options,
                threads,
                &Telemetry::disabled(),
            )
            .unwrap_or_else(|e| panic!("{character:?}/t={threads}: verify failed: {e}"));
            for (qi, (got, want)) in run.results.iter().zip(&want).enumerate() {
                assert_eq!(want.len(), spec.k, "{character:?}: query {qi}");
                let bits = |v: &[Neighbor]| -> Vec<(u64, u32)> {
                    v.iter().map(|n| (n.id, n.score.to_bits())).collect()
                };
                assert_eq!(
                    bits(got),
                    bits(want),
                    "{character:?}/t={threads}: query {qi} differs from the portable rescore"
                );
            }
        }
    }
}

#[test]
fn sharded_engine_matches_the_query_at_a_time_oracle() {
    forall("sharded engine == oracle", 4, |rng: &mut TestRng| {
        let salt = rng.usize(0..1000);
        let shards = rng.usize(2..5);
        let nprobe = rng.usize(2..6);
        let k = rng.usize(4..20);
        for metric in [Metric::L2, Metric::InnerProduct] {
            for kstar in [16usize, 256] {
                let (data, index) = build(metric, kstar, salt, 12);
                let params = SearchParams {
                    nprobe,
                    k,
                    ..Default::default()
                };
                check_against_oracle(
                    &format!("sharded x{shards}/{metric:?}/k*={kstar}"),
                    &ShardedIndex::from_index(&index, shards),
                    &sample(&data, 10, salt),
                    QuerySpec { k, scope: nprobe },
                    PlanOptions::default(),
                    |q| index.search(q, &params),
                );
            }
        }
    });
}

/// The tiered invariant, owned by tier-1: shard segments on storage behind
/// caches holding half the code bytes, one batch run twice — cold, then
/// warm — on freshly opened shards per thread count. Both runs return the
/// oracle's results, `verify()` holds with the tier split included, and
/// the pair of [`MeasuredTraffic`]s (tier included) is thread-invariant.
#[test]
fn tiered_engine_matches_the_oracle_cold_and_warm() {
    forall("tiered engine == oracle", 3, |rng: &mut TestRng| {
        let salt = rng.usize(0..1000);
        let shards = rng.usize(2..5);
        let nprobe = rng.usize(3..7);
        let k = rng.usize(4..20);
        let spec = QuerySpec { k, scope: nprobe };
        let tel = Telemetry::disabled();
        for metric in [Metric::L2, Metric::InnerProduct] {
            for kstar in [16usize, 256] {
                let label = format!("tiered x{shards}/{metric:?}/k*={kstar}");
                let (data, index) = build(metric, kstar, salt, 12);
                let params = SearchParams {
                    nprobe,
                    k,
                    ..Default::default()
                };
                let queries = sample(&data, 10, salt);
                let want: Vec<Vec<Neighbor>> =
                    queries.iter().map(|q| index.search(q, &params)).collect();
                let dir = std::env::temp_dir().join(format!(
                    "anna_engine_oracle_{}_{salt}_{metric:?}_{kstar}",
                    std::process::id()
                ));
                let paths = ShardedIndex::write_shard_segments(&index, shards, &dir).unwrap();
                let cache_per_shard = index.stats().code_bytes / 2 / shards as u64;

                let mut serial: Option<[MeasuredTraffic; 2]> = None;
                for threads in [1usize, 2, 4, 8] {
                    let tiered = ShardedIndex::open_tiered(&paths, cache_per_shard).unwrap();
                    let engine: &dyn SearchEngine = &tiered;
                    let measured = ["cold", "warm"].map(|pass| {
                        let (_, _, run) = run_pipeline(
                            engine,
                            &queries,
                            &spec,
                            &PlanOptions::default(),
                            threads,
                            &tel,
                        )
                        .unwrap_or_else(|e| {
                            panic!("{label}/t={threads}/{pass}: verify failed: {e}")
                        });
                        assert_eq!(run.results, want, "{label}/t={threads}/{pass}");
                        run.measured
                    });
                    let [cold, warm] = measured.map(|m| m.tier.expect("sharded engines measure"));
                    assert_eq!(cold.cache_hits, 0, "{label}: a cold cache hit");
                    assert!(warm.cache_hits > 0, "{label}: the warm pass never hit");
                    assert_eq!(
                        measured,
                        *serial.get_or_insert(measured),
                        "{label}/t={threads}: traffic differs from t=1"
                    );
                }
                std::fs::remove_dir_all(dir).unwrap();
            }
        }
    });
}

/// True by construction since both executors feed one round loop: a
/// 1-shard RAM [`ShardedIndex`] and [`BatchedScan::run_plan`], handed the
/// same unbounded cluster-major schedule, return identical results and
/// [`anna::index::BatchStats`] and do identical kernel work.
#[test]
fn one_shard_schedule_runs_identically_on_both_executors() {
    for metric in [Metric::L2, Metric::InnerProduct] {
        for kstar in [16usize, 256] {
            let (data, index) = build(metric, kstar, 7, 11);
            let queries = sample(&data, 16, 3);
            let spec = QuerySpec { k: 9, scope: 5 };
            let sharded = ShardedIndex::from_index(&index, 1);
            let plan = plan_uniform(
                &sharded,
                &queries,
                &spec,
                &PlanOptions::default(),
                &Telemetry::disabled(),
            );
            let EnginePlan::Sharded(plan) = &plan else {
                panic!("sharded engine planned a {} batch", plan.engine());
            };
            let params = SearchParams {
                k: spec.k,
                ..Default::default()
            };
            let (batched_tel, sharded_tel) = (Telemetry::enabled(), Telemetry::enabled());
            let (batched, batched_stats) = BatchedScan::new(&index).run_plan(
                &queries,
                &params,
                &plan.per_shard[0].1,
                1,
                &batched_tel,
            );
            let (got, stats) = sharded.run_plan(&queries, plan, 1, &sharded_tel).unwrap();
            assert_eq!(got, batched, "{metric:?}/k*={kstar}: results");
            assert_eq!(stats.batch, batched_stats, "{metric:?}/k*={kstar}: stats");
            let count = |tel: &Telemetry, key| tel.registry().expect("enabled").counter(key).get();
            assert!(count(&batched_tel, "kernel.codes_scanned") > 0);
            for key in ["kernel.codes_scanned", "kernel.pruned"] {
                assert_eq!(
                    count(&sharded_tel, key),
                    count(&batched_tel, key),
                    "{metric:?}/k*={kstar}: {key}"
                );
            }
        }
    }
}
