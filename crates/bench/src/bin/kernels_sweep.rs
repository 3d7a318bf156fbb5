//! Times every scan-kernel dispatch runnable on this host over `k* = 16`
//! and `k* = 256` codes, printing codes/sec, effective GB/s and the
//! speedup over the seed scalar path, and writing
//! `reports/kernels_sweep.json`. Every point is cross-checked to return a
//! bit-identical top-k to the scalar reference. A `lut_build` section
//! reports LUT construction in tables/sec for L2 and inner product at both
//! widths under every dispatch, each row naming the distance-table arm it
//! ran (`avx512` under the `avx512` dispatch, else `portable`), every
//! entry cross-checked against the `metric::*` oracle, and an `encode`
//! section PQ encoding in sub-vectors/sec per width and dispatch, every
//! code cross-checked against the row-major scan. A
//! `select` section splits one query's scan → select time into scoring,
//! threshold filtering and selector pushes per dispatch × `k*` for one
//! warm selector, and under the process-wide dispatch for 512 cold
//! selectors fed cluster-major (with the cost per offer and the live
//! selector kB) — one scan per visit, and grouped, one scan of each
//! cluster for all its visitors as the batch engine runs it — each point
//! cross-checked against the scalar path. A
//! `rerank` section reports ns per candidate of the two-phase rescore per
//! dispatch (each row naming its arm: `f16c` under `avx2` and `avx512`,
//! else `portable`) × metric × vector precision at the benchmark's shape (100 candidates from 100 000 rows of
//! dim 64), each point cross-checked bit for bit against the portable arm.
//! Any divergence exits non-zero, and so does a report or snapshot that
//! cannot be written (the error names the path).
//!
//! `--smoke` shrinks the run for CI (the `rerank` section draws from
//! 10 000 rows); `--telemetry <path>` writes a metric snapshot with
//! per-point `kernel.*` counters.

use anna_bench::{kernels_sweep, write_report};
use anna_telemetry::Telemetry;

fn main() {
    let mut smoke = false;
    let mut telemetry_path: Option<String> = None;
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
                eprintln!("usage: kernels_sweep [--smoke] [--telemetry <path>]");
                std::process::exit(2);
            }
        }
    }
    let tel = if telemetry_path.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };

    let (n, passes) = if smoke { (20_000, 3) } else { (200_000, 20) };
    eprintln!("sweeping scan kernels over {n} codes x {passes} passes per point");
    let sweep = kernels_sweep::run_traced(n, passes, &tel);
    print!("{}", sweep.render());
    if let Some(best16) = sweep.best_speedup_at(16) {
        eprintln!("best k*=16 speedup over scalar: {best16:.2}x");
    }
    for p in &sweep.points {
        if !p.identical_to_scalar {
            eprintln!(
                "FAIL: dispatch {} k*={} diverged from the scalar reference",
                p.dispatch, p.kstar
            );
            std::process::exit(1);
        }
    }
    for p in &sweep.lut_build {
        if !p.identical_to_oracle {
            eprintln!(
                "FAIL: dispatch {} (table arm {}) {} k*={} LUT diverged from the metric::* oracle",
                p.dispatch, p.arm, p.metric, p.kstar
            );
            std::process::exit(1);
        }
    }
    for p in &sweep.encode {
        if !p.identical_to_oracle {
            eprintln!(
                "FAIL: dispatch {} (table arm {}) k*={} encoding diverged from the row-major oracle",
                p.dispatch, p.arm, p.kstar
            );
            std::process::exit(1);
        }
    }
    for p in &sweep.select {
        if !p.identical_to_scalar {
            eprintln!(
                "FAIL: select split {} k*={} ({} selectors, grouped {}) diverged from the scalar reference",
                p.dispatch, p.kstar, p.selectors, p.grouped
            );
            std::process::exit(1);
        }
    }
    for p in &sweep.rerank {
        if !p.identical_to_portable {
            eprintln!(
                "FAIL: dispatch {} (re-rank arm {}, {} {}) diverged from the portable arm",
                p.dispatch,
                p.arm,
                p.metric,
                p.precision()
            );
            std::process::exit(1);
        }
    }
    match write_report("kernels_sweep", &sweep.to_json()) {
        Ok(path) => eprintln!("report written to {}", path.display()),
        Err(e) => {
            eprintln!("kernels_sweep: could not write report: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = telemetry_path {
        let snapshot = tel.snapshot_json().expect("telemetry was enabled");
        if let Err(e) = std::fs::write(&path, snapshot) {
            eprintln!("could not write telemetry snapshot to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("telemetry snapshot written to {path}");
    }
}
