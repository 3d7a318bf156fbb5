//! The one driver of the report table ([`anna_bench::reports`]):
//! `runall [--full] [--check] [NAME…]`. `--full` rewrites `reports/*.json`
//! — the data source for EXPERIMENTS.md — and `--check` proves the
//! committed copies are what the source tree regenerates.

use anna_bench::{harness, reports};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let verdict = harness::reports_dir()
        .map_err(|e| e.to_string())
        .and_then(|dir| reports::drive(&args, &dir));
    if let Err(e) = verdict {
        eprintln!("runall: {e}");
        std::process::exit(1);
    }
}
