//! Nightly scaling regression: the batch engine's round loop
//! (`anna_index::parallel`) must reach at least 1.5x over serial with 4
//! workers on the seed workload (200k vectors, batch 512 — the same
//! configuration `reports/threads_sweep.json` is generated from).
//!
//! This gate is the **only** evidence the repo has for 4 or more workers:
//! the hosts the engine has been developed and benchmarked on expose 2
//! CPUs, so the change that made the inline-LUT round loop the only loop
//! (replacing a double-buffered wave pipeline) measured it at 1 and 2
//! workers only. A failure here is a finding about that loop, not noise.
//!
//! `#[ignore]`d because it takes minutes and needs real cores: CI runs it
//! in the nightly job with `--ignored`. On hosts exposing fewer than 4
//! CPUs the assertion is vacuous (there is nothing to scale onto), so the
//! test skips with a message instead of failing on ceremony.

use anna_bench::threads_sweep;

#[test]
#[ignore = "minutes-long; run in the nightly lane with --ignored"]
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

    let sweep = threads_sweep::run(200_000, 512, &[1, 4]);
    for p in &sweep.points {
        assert!(
            p.identical_to_serial,
            "threads={} diverged from serial",
            p.threads
        );
    }
    let s4 = sweep
        .speedup_at(4)
        .expect("4-thread point was swept by construction");

    // On failure, say where the machine's ceiling was: a point already at
    // its roofline cannot speed up by adding workers, and that diagnosis
    // belongs in the log, not in a rerun with extra printouts.
    if s4 < 1.5 {
        for p in &sweep.points {
            eprintln!(
                "threads={}: qps={:.0} speedup={:.2}x achieved={:.2} GB/s \
                 roofline={:.2} GB/s achieved_vs_roofline={:.3}",
                p.threads,
                p.qps,
                p.speedup,
                p.achieved_bytes_per_sec / 1e9,
                p.roofline_bytes_per_sec / 1e9,
                p.achieved_vs_roofline
            );
        }
    }
    assert!(
        s4 >= 1.5,
        "4-worker speedup regressed: {s4:.2}x < 1.5x on {cpus}-cpu host \
         (see the per-point roofline placement above)"
    );
}
