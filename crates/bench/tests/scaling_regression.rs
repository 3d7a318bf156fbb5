//! Nightly scaling regression: the batch engine's round loop
//! (`anna_index::parallel`) must reach at least 1.5x over serial with 4
//! workers on the seed workload (200k vectors, batch 512), and return the
//! serial answer while doing it.
//!
//! This gate is the **only** evidence the repo has for 4 or more workers:
//! no host the engine has been developed or benchmarked on exposed more
//! than 2 CPUs, and the benchmark's `index.threads2_speedup` measures 2
//! workers only. A failure here is a finding about the round loop, not
//! noise.
//!
//! `#[ignore]`d because it needs real cores and a release build: CI runs
//! it in the nightly job with `--ignored`. On hosts exposing fewer than 4
//! CPUs the assertion is vacuous (there is nothing to scale onto), so the
//! test skips with a message instead of failing on ceremony.

use std::time::Instant;

use anna_engine::{run_pipeline, EngineRun, PlanOptions, QuerySpec};
use anna_index::{BatchedScan, IvfPqConfig, IvfPqIndex};
use anna_telemetry::Telemetry;
use anna_vector::{Metric, VectorSet};

#[test]
#[ignore = "needs 4 cores and a release build; run in the nightly lane with --ignored"]
fn four_workers_reach_1_5x_on_the_seed_workload() {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cpus < 4 {
        eprintln!(
            "SKIP scaling regression: host exposes {cpus} CPU(s); \
             4-worker speedup is unmeasurable without 4 cores"
        );
        return;
    }

    let (db_n, batch) = (200_000, 512);
    let data = VectorSet::from_fn(16, db_n, |r, c| {
        (r % 32) as f32 * 16.0 + ((r * 31 + c * 7) % 13) as f32 * 0.4
    });
    let config = IvfPqConfig {
        metric: Metric::L2,
        num_clusters: 64,
        m: 8,
        kstar: 16,
        ..IvfPqConfig::default()
    };
    let index = IvfPqIndex::build(&data, &config);
    let queries = data.gather(&(0..batch).map(|i| (i * 37) % db_n).collect::<Vec<_>>());
    let spec = QuerySpec { k: 10, scope: 12 };
    let scan = BatchedScan::new(&index);
    let pass = |threads: usize| -> EngineRun {
        run_pipeline(
            &scan,
            &queries,
            &spec,
            &PlanOptions::default(),
            threads,
            &Telemetry::disabled(),
        )
        .expect("scaling regression: predicted == measured")
        .2
    };

    // One warm-up pass, then the best of three timed passes: scheduler
    // noise only ever slows a pass down.
    let best_secs = |threads: usize| -> (f64, EngineRun) {
        let mut run = pass(threads);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            run = pass(threads);
            best = best.min(start.elapsed().as_secs_f64());
        }
        (best, run)
    };
    let (serial_s, serial) = best_secs(1);
    let (four_s, four) = best_secs(4);
    assert!(
        four.results == serial.results,
        "4 workers diverged from serial"
    );

    let s4 = serial_s / four_s.max(1e-9);
    if s4 < 1.5 {
        eprintln!("threads=1: best of 3 = {serial_s:.4} s");
        eprintln!("threads=4: best of 3 = {four_s:.4} s");
    }
    assert!(
        s4 >= 1.5,
        "4-worker speedup regressed: {s4:.2}x < 1.5x on {cpus}-cpu host \
         (per-point seconds above)"
    );
}
