//! Microbenchmark comparing the two timing engines' own runtimes (the
//! cost of simulation, not of ANNA): analytic is O(W) closed form,
//! event-driven is O(W) events.

use anna_core::engine::{analytic, cycle};
use anna_core::{AnnaConfig, QueryWorkload, SearchShape};
use anna_vector::Metric;
use criterion::{criterion_group, criterion_main, Criterion};

fn workload(w: usize, size: usize) -> QueryWorkload {
    QueryWorkload {
        shape: SearchShape {
            d: 128,
            m: 64,
            kstar: 256,
            metric: Metric::L2,
            num_clusters: 10_000,
            k: 1000,
        },
        visited_cluster_sizes: vec![size; w],
    }
}

fn engine_costs(c: &mut Criterion) {
    let cfg = AnnaConfig::paper();
    let q = workload(16, 20_000);
    let mut group = c.benchmark_group("engines");
    group.bench_function("analytic", |b| {
        b.iter(|| analytic::single_query(&cfg, &q, 16))
    });
    group.bench_function("event_driven", |b| {
        b.iter(|| cycle::single_query(&cfg, &q, 16))
    });
    group.finish();
}

criterion_group!(benches, engine_costs);
criterion_main!(benches);
