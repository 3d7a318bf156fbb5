//! `reports/` is a golden set: every committed report is what
//! `runall --full` regenerates from this source tree, byte for byte.
//!
//! This suite checks the entries that regenerate in about two seconds or
//! less — the analytic reports and the three sweeps — so a change that
//! moves a committed number, or breaks a sweep's own gate (predicted ==
//! measured, identical to the oracle, identical across thread counts),
//! fails `cargo test -q`. The five trained figure reports are checked by
//! CI's `reports-golden` job (`runall --full --check`, minutes).

use anna_bench::{harness, reports};

fn check(names: &[&str]) {
    let dir = harness::reports_dir().expect("tests run inside the workspace");
    let args = [&["--check"], names].concat();
    if let Err(e) = reports::drive(&args, &dir) {
        panic!("{e}\nif the change is meant, regenerate with `runall --full` and commit reports/");
    }
}

#[test]
fn analytic_reports_match_their_committed_bytes() {
    check(&["table1", "ablation", "related_work", "timeline"]);
}

#[test]
fn two_phase_sweeps_match_their_committed_bytes() {
    check(&["rerank_sweep"]);
}

#[test]
fn tiered_sweeps_match_their_committed_bytes() {
    check(&["tiered_sweep"]);
}

#[test]
fn graph_sweeps_match_their_committed_bytes() {
    check(&["graph_sweep"]);
}
