//! The report table and its one driver.
//!
//! A file under `reports/` is a pure function of the source tree: every
//! committed report is an entry of [`REPORTS`], `runall --full` writes
//! them, and `runall --check` regenerates each in memory and fails on the
//! first byte that differs from the committed copy. The committed set is
//! the full profile's; the quick profile prints and writes nothing.

use std::path::Path;

use anna_data::PaperDataset;

use crate::ablation::{self, Ablation};
use crate::compression::{self, Compression};
use crate::fig10::{self, Fig10};
use crate::fig8::{self, Fig8};
use crate::fig9::{self, Fig9};
use crate::graph_sweep::{self, GraphSweep};
use crate::harness::{write_report_in, Contexts};
use crate::json::Json;
use crate::related::{self, Related};
use crate::rerank_sweep::{self, RerankSweep};
use crate::scale::Scale;
use crate::table1;
use crate::tiered_sweep::{self, TieredSweep};
use crate::timeline::{self, Timeline};
use crate::traffic_opt::{self, TrafficOpt};

/// One regenerated report.
#[derive(Debug)]
pub struct Outcome {
    /// The bytes `reports/<name>.json` must hold.
    pub json: Json,
    /// The same result as a text table.
    pub text: String,
    /// The report's own invariants (predicted == measured, identical to
    /// the oracle, …); a report that fails them is never written.
    pub gate: Result<(), String>,
}

fn outcome<T>(
    result: T,
    json: fn(&T) -> Json,
    text: fn(&T) -> String,
    gate: fn(&T) -> Result<(), String>,
) -> Outcome {
    Outcome {
        json: json(&result),
        text: text(&result),
        gate: gate(&result),
    }
}

/// The gate of a report with no invariant beyond its bytes.
fn ungated<T>(_: &T) -> Result<(), String> {
    Ok(())
}

// The rerank dataset's cohort structure (see rerank_sweep::value) is sized
// for this row count; the full size widens the query set instead.
fn rerank(queries_per_region: usize) -> RerankSweep {
    rerank_sweep::run(
        4_000,
        queries_per_region,
        queries_per_region,
        &[0.90, 0.95, 0.97],
    )
}

/// Regenerates one report; the contexts carry the profile and the models
/// earlier entries already trained.
pub type Run = fn(&mut Contexts) -> Outcome;

/// Every committed report — file stem under `reports/`, which is also the
/// name `runall` selects it by — in the order `runall` regenerates them.
/// The `_smoke` entries are the same sweeps at sizes CI can afford twice
/// per commit (once per kernel dispatch).
#[rustfmt::skip]
pub const REPORTS: [(&str, Run); 15] = [
    ("table1", |_| outcome((), |_| table1::to_json(), |_| table1::render(), ungated)),
    ("fig8", |c| outcome(fig8::run(c), Fig8::to_json, Fig8::render, ungated)),
    ("fig9", |c| outcome(fig9::run(&PaperDataset::ALL, c), Fig9::to_json, Fig9::render, ungated)),
    ("fig10", |c| outcome(fig10::run(&PaperDataset::ALL, c), Fig10::to_json, Fig10::render, ungated)),
    ("traffic_opt", |c| outcome(traffic_opt::run(&traffic_opt::DATASETS, c),
        TrafficOpt::to_json, TrafficOpt::render, ungated)),
    ("ablation", |_| outcome(ablation::run(1000), Ablation::to_json, Ablation::render, ungated)),
    ("related_work", |_| outcome(related::run(), Related::to_json, Related::render, ungated)),
    ("compression", |c| outcome(compression::run(c), Compression::to_json, Compression::render, ungated)),
    ("timeline", |c| outcome(timeline::run(256, 8, c.scale.seed),
        Timeline::to_json, |t| t.render(6), ungated)),
    ("rerank_sweep", |_| outcome(rerank(64),
        RerankSweep::to_json, RerankSweep::render, RerankSweep::gate)),
    ("rerank_sweep_smoke", |_| outcome(rerank(32),
        RerankSweep::to_json, RerankSweep::render, RerankSweep::gate)),
    ("tiered_sweep", |_| outcome(tiered_sweep::run(40_000, 4, 48),
        TieredSweep::to_json, TieredSweep::render, TieredSweep::gate)),
    ("tiered_sweep_smoke", |_| outcome(tiered_sweep::run(6_000, 3, 16),
        TieredSweep::to_json, TieredSweep::render, TieredSweep::gate)),
    ("graph_sweep", |_| outcome(graph_sweep::run(12_000, 48),
        GraphSweep::to_json, GraphSweep::render, GraphSweep::gate)),
    ("graph_sweep_smoke", |_| outcome(graph_sweep::run(2_000, 16),
        GraphSweep::to_json, GraphSweep::render, GraphSweep::gate)),
];

/// Compares a fresh report with `<dir>/<name>.json` byte for byte.
fn check(dir: &Path, name: &str, fresh: &Json) -> Result<(), String> {
    let path = dir.join(format!("{name}.json"));
    let committed = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let fresh_text = fresh.to_string();
    let fresh_bytes = fresh_text.as_bytes();
    if committed == fresh_bytes {
        return Ok(());
    }
    let at = committed
        .iter()
        .zip(fresh_bytes)
        .position(|(a, b)| a != b)
        .unwrap_or(committed.len().min(fresh_bytes.len()));
    Err(format!(
        "{} differs from a fresh run at byte {at}, {}",
        path.display(),
        fresh.path_at(at)
    ))
}

/// `runall [--full] [--check] [NAME…]` against the reports directory
/// `dir`: regenerates the named reports (all of them when none is named)
/// in table order. `--full` writes them into `dir`; `--check` compares
/// them with the copies in `dir` instead and, the committed set being the
/// full profile's, implies `--full`; with neither, the quick profile is
/// printed and `dir` left alone. The first failed gate, differing byte or
/// write error ends the run with an `Err` naming the report or path.
pub fn drive(args: &[&str], dir: &Path) -> Result<(), String> {
    let (mut full, mut check_only, mut names) = (false, false, Vec::new());
    for &arg in args {
        match arg {
            "--full" => full = true,
            "--check" => check_only = true,
            name if REPORTS.iter().any(|(known, _)| *known == name) => names.push(name),
            other => {
                let known: Vec<&str> = REPORTS.iter().map(|(name, _)| *name).collect();
                return Err(format!(
                    "unknown argument `{other}`\nusage: runall [--full] [--check] [NAME…]\n\
                     reports: {}",
                    known.join(" ")
                ));
            }
        }
    }
    let scale = if full || check_only {
        Scale::full()
    } else {
        Scale::quick()
    };
    eprintln!("running with {scale:?}");
    let mut contexts = Contexts::new(scale);
    for (name, run) in REPORTS {
        if !names.is_empty() && !names.contains(&name) {
            continue;
        }
        let outcome = run(&mut contexts);
        // `--check` is quiet unless a gate trips: the table says which rows did.
        if !check_only || outcome.gate.is_err() {
            print!("{}", outcome.text);
        }
        outcome.gate.map_err(|e| format!("{name}: {e}"))?;
        if check_only {
            check(dir, name, &outcome.json)?;
            println!("{name}: matches the committed bytes");
        } else if full {
            let path = write_report_in(dir, name, &outcome.json).map_err(|e| e.to_string())?;
            eprintln!("wrote {}", path.display());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::reports_dir;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("anna_reports_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn files_in(dir: &Path) -> usize {
        std::fs::read_dir(dir).unwrap().count()
    }

    #[test]
    fn a_full_run_writes_into_the_directory_it_is_given_and_nowhere_else() {
        let dir = temp_dir("full");
        let committed = reports_dir().unwrap().join("table1.json");
        let modified = || std::fs::metadata(&committed).unwrap().modified().unwrap();
        let before = modified();
        drive(&["--full", "related_work", "table1"], &dir).unwrap();
        assert!(dir.join("related_work.json").is_file() && dir.join("table1.json").is_file());
        assert_eq!(files_in(&dir), 2);
        assert_eq!(modified(), before, "the checkout's reports/ was written");

        // A reports directory that is not there is an error naming the
        // path, not a directory created on the side or a silent success.
        let absent = dir.join("absent");
        let err = drive(&["--full", "table1"], &absent).unwrap_err();
        assert!(err.contains("absent/table1.json"), "{err}");
        assert!(!absent.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_quick_profile_and_a_refused_argument_leave_the_directory_untouched() {
        let dir = temp_dir("quick");
        drive(&["table1", "timeline", "related_work"], &dir).unwrap();
        for bad in ["fig11", "--smoke"] {
            let err = drive(&["--full", bad], &dir).unwrap_err();
            assert!(err.contains("usage: runall"), "{err}");
        }
        assert_eq!(files_in(&dir), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn check_passes_on_the_golden_and_names_file_and_path_of_one_moved_digit() {
        let dir = temp_dir("check");
        let golden = std::fs::read_to_string(reports_dir().unwrap().join("table1.json")).unwrap();
        let copy = dir.join("table1.json");
        std::fs::write(&copy, &golden).unwrap();
        drive(&["--check", "table1"], &dir).unwrap();

        assert!(golden.contains("\"total_area_mm2\":17.51"));
        let moved = golden.replace("\"total_area_mm2\":17.51", "\"total_area_mm2\":17.61");
        std::fs::write(&copy, moved).unwrap();
        let err = drive(&["--check", "table1"], &dir).unwrap_err();
        assert!(err.contains("table1.json"), "{err}");
        assert!(err.contains("$.total_area_mm2"), "{err}");
        assert_eq!(files_in(&dir), 1, "--check wrote something");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
