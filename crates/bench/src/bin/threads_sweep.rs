//! Measures batched QPS of the parallel cluster-major engine at worker
//! counts 1/2/4/8 and writes a JSON report. Every point is checked to
//! return bit-identical neighbors to the serial schedule, and the
//! process exits non-zero if any point diverges — CI treats a
//! determinism break as a hard failure, not a footnote in a report. A
//! report that cannot be written also exits non-zero, naming the path:
//! CI uploads it.
//!
//! Each point also carries the roofline placement: the traffic model's
//! bytes for the executed plan, the measured streaming bandwidth at that
//! worker count, and their ratio (`achieved_vs_roofline`).
//!
//! With `--smoke`, a small workload (20k vectors, batch 128, workers 1/2)
//! runs in seconds and writes `threads_sweep_smoke.json` — the CI
//! per-commit check; the full sweep is the nightly job.
//!
//! With `--telemetry <path>`, the run records per-stage timings,
//! per-worker utilization and the bridged software/accelerator counters,
//! writing the metric snapshot to `<path>` and a chrome://tracing
//! timeline to `<path>.trace.json` (open it in chrome://tracing or
//! <https://ui.perfetto.dev>).

use anna_bench::{threads_sweep, write_report};
use anna_telemetry::Telemetry;

fn main() {
    let mut telemetry_path: Option<String> = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--telemetry" => match args.next() {
                Some(p) => telemetry_path = Some(p),
                None => {
                    eprintln!("--telemetry requires a path argument");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: threads_sweep [--smoke] [--telemetry <path>]");
                std::process::exit(2);
            }
        }
    }
    let tel = if telemetry_path.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };

    // Full run sized so the scan dominates setup but stays under a
    // minute; smoke sized for a per-commit CI lane.
    let (db_n, batch, counts, report): (usize, usize, &[usize], &str) = if smoke {
        (20_000, 128, &[1, 2], "threads_sweep_smoke")
    } else {
        (200_000, 512, &[1, 2, 4, 8], "threads_sweep")
    };
    eprintln!("building index over {db_n} vectors, sweeping batch of {batch} queries");
    let sweep = threads_sweep::run_traced(db_n, batch, counts, &tel);
    print!("{}", sweep.render());
    if let Some(s4) = sweep.speedup_at(4) {
        eprintln!("speedup at 4 workers: {s4:.2}x");
    }
    match write_report(report, &sweep.to_json()) {
        Ok(path) => eprintln!("report written to {}", path.display()),
        Err(e) => {
            eprintln!("threads_sweep: could not write report: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = telemetry_path {
        let snapshot = tel.snapshot_json().expect("telemetry was enabled");
        let trace = tel.chrome_trace_json().expect("telemetry was enabled");
        if let Err(e) = std::fs::write(&path, snapshot) {
            eprintln!("could not write telemetry snapshot to {path}: {e}");
            std::process::exit(1);
        }
        let trace_path = format!("{path}.trace.json");
        if let Err(e) = std::fs::write(&trace_path, trace) {
            eprintln!("could not write chrome trace to {trace_path}: {e}");
            std::process::exit(1);
        }
        eprintln!("telemetry snapshot written to {path}, timeline to {trace_path}");
    }
    // Determinism gate: every swept point must have reproduced the serial
    // neighbors bit for bit. Checked last so the report and telemetry are
    // on disk for the post-mortem when it trips.
    let diverged: Vec<usize> = sweep
        .points
        .iter()
        .filter(|p| !p.identical_to_serial)
        .map(|p| p.threads)
        .collect();
    if !diverged.is_empty() {
        eprintln!("determinism violation: thread counts {diverged:?} diverged from serial");
        std::process::exit(1);
    }
}
