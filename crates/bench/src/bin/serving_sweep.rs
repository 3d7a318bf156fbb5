//! Sweeps the online serving layer across offered loads and writes the
//! latency-vs-load report.
//!
//! Calibrates the host's service rate, then replays seeded open-loop
//! traces (Poisson at several fractions of capacity, plus one bursty and
//! one diurnal trace) through the admission queue, the deterministic
//! micro-batcher, and the batch engine. Writes
//! `reports/serving_sweep.json` (p50/p95/p99 and delivered QPS per
//! offered-load point) and exits non-zero if any dispatched batch moved
//! different bytes than its TrafficModel pricing predicted — CI treats a
//! broken predicted == measured invariant as a hard failure. A report
//! that cannot be written also exits non-zero, naming the path: CI
//! uploads it.
//!
//! With `--smoke`, a small trace set runs in seconds and writes
//! `serving_sweep_smoke.json` — the CI per-commit check.

use anna_bench::{serving_sweep, write_report};

fn main() {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: serving_sweep [--smoke]");
                std::process::exit(2);
            }
        }
    }
    let (db_n, requests, fractions, report): (usize, usize, &[f64], &str) = if smoke {
        (20_000, 300, &[0.5, 1.0], "serving_sweep_smoke")
    } else {
        (
            100_000,
            1_500,
            &[0.25, 0.5, 0.75, 1.0, 1.5],
            "serving_sweep",
        )
    };
    eprintln!(
        "building index over {db_n} vectors, sweeping {} offered-load points × {requests} requests",
        fractions.len() + 2
    );
    let sweep = serving_sweep::run(db_n, requests, fractions);
    print!("{}", sweep.render());
    match write_report(report, &sweep.to_json()) {
        Ok(path) => eprintln!("report written to {}", path.display()),
        Err(e) => {
            eprintln!("serving_sweep: could not write report: {e}");
            std::process::exit(1);
        }
    }
    // Invariant gate, checked last so the report is on disk for the
    // post-mortem when it trips.
    if !sweep.all_traffic_match() {
        let bad: Vec<&str> = sweep
            .points
            .iter()
            .filter(|p| !p.all_traffic_match)
            .map(|p| p.label.as_str())
            .collect();
        eprintln!("predicted != measured traffic at points {bad:?}");
        std::process::exit(1);
    }
}
