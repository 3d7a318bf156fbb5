//! Run sets and their comparison.
//!
//! A *run set* is every workload run once per seed, one fresh process per
//! run, one after another, folded into a single document: per (workload,
//! metric) the values, their median, and the inter-quartile distance as a
//! share of the median. `--compare` applies each metric's bound from
//! `BENCHMARK.json` to two such documents.

use crate::json::Json;
use crate::run::{benchmark_dir, provenance};
use crate::stats;
use crate::workloads::WORKLOADS;
use std::process::{Command, Stdio};

/// Per-layer numbers need fewer repeats than bounded end-to-end ones.
const TRACED_SEEDS: usize = 3;

pub struct SuiteConfig {
    pub seed: u64,
    pub runs: usize,
    pub seconds: f64,
    pub smoke: bool,
    pub out: Option<String>,
}

/// The two JSON lines a single run ends with: detail, then the contract
/// line.
struct ChildResult {
    detail: Json,
    contract: Json,
}

fn run_child(
    workload: &str,
    seed: u64,
    cfg: &SuiteConfig,
    trace: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if cfg.smoke {
        command.arg("--smoke");
    }
    // `output()` waits for the child, so no process outlives its run.
    let output = command
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let contract = lines.next().unwrap_or_default();
    let detail = lines.next().unwrap_or_default();
    match (Json::parse(detail), Json::parse(contract)) {
        (Ok(detail), Ok(contract)) => Ok(ChildResult { detail, contract }),
        _ => Err(format!(
            "{workload} seed {seed} trace {}: exited with {} without printing a result",
            trace as u8, output.status
        )),
    }
}

#[derive(Default)]
struct Series {
    unit: String,
    values: Vec<f64>,
}

/// Metric name → series, in first-seen (that is, list) order.
#[derive(Default)]
struct SeriesMap(Vec<(String, Series)>);

impl SeriesMap {
    fn add(&mut self, contract: &Json) {
        let Some(metrics) = contract.get("metrics").and_then(Json::as_obj) else {
            return;
        };
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            let unit = entry.get("unit").and_then(Json::as_str).unwrap_or_default();
            let slot = match self.0.iter().position(|(n, _)| n == name) {
                Some(slot) => slot,
                None => {
                    self.0.push((name.clone(), Series::default()));
                    self.0.len() - 1
                }
            };
            self.0[slot].1.unit = unit.to_string();
            self.0[slot].1.values.push(value);
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(self.0.iter().map(|(name, series)| {
            (
                name.as_str(),
                Json::obj([
                    ("unit", Json::str(series.unit.as_str())),
                    ("median", Json::Num(stats::median(&series.values))),
                    ("iqr_frac", Json::Num(stats::iqr_frac(&series.values))),
                    ("values", Json::nums(&series.values)),
                ]),
            )
        }))
    }
}

/// Runs the whole set and prints (and optionally writes) its document.
/// Returns whether every run was correct.
pub fn run_set(cfg: &SuiteConfig) -> Result<bool, String> {
    let seeds: Vec<u64> = (0..cfg.runs as u64).map(|i| cfg.seed + i).collect();
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for spec in &WORKLOADS {
        let (mut end_to_end, mut per_layer) = (SeriesMap::default(), SeriesMap::default());
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut correct = true;
        let mut violations = Vec::new();
        let mut rounds = Vec::new();
        for (i, &seed) in seeds.iter().enumerate() {
            for trace in [false, true] {
                if trace && i >= TRACED_SEEDS {
                    continue;
                }
                eprintln!("[{}] seed {seed} trace {}", spec.name, trace as u8);
                let child = run_child(spec.name, seed, cfg, trace)?;
                let field = |key: &str| {
                    child
                        .contract
                        .get(key)
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0)
                };
                attempted += field("attempted");
                failed += field("failed");
                correct &= child.contract.get("correct").and_then(Json::as_bool) == Some(true);
                if let Some(found) = child.detail.get("violations").and_then(Json::as_arr) {
                    violations.extend_from_slice(found);
                }
                if trace {
                    per_layer.add(&child.contract);
                } else {
                    end_to_end.add(&child.contract);
                    // Per-round values and spreads of the timing metrics,
                    // and every timed set-up.
                    rounds.push(Json::obj(
                        ["qps", "latency_p50_ms", "latency_p99_ms", "setup_s_repeats"]
                            .into_iter()
                            .filter_map(|m| Some((m, child.detail.get(m)?.clone()))),
                    ));
                }
            }
        }
        all_correct &= correct;
        workloads.push((
            spec.name,
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("end_to_end", end_to_end.to_json()),
                ("per_layer", per_layer.to_json()),
                ("rounds", Json::Arr(rounds)),
                ("violations", Json::Arr(violations)),
            ]),
        ));
    }
    let doc = Json::obj([
        ("provenance", provenance()),
        ("run_seconds", Json::Num(cfg.seconds)),
        ("smoke", Json::Bool(cfg.smoke)),
        (
            "seeds",
            Json::nums(&seeds.iter().map(|&s| s as f64).collect::<Vec<_>>()),
        ),
        (
            "traced_seeds",
            Json::Num(TRACED_SEEDS.min(seeds.len()) as f64),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    let text = doc.render_pretty();
    if let Some(path) = &cfg.out {
        std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
    }
    print!("{text}");
    Ok(all_correct)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn values_of(series: &Json) -> Vec<f64> {
    series
        .get("values")
        .and_then(Json::as_arr)
        .map(|v| v.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Compares run set `change` against run set `parent`, one row per
/// (workload, end-to-end metric). Returns whether any row regressed.
pub fn compare(parent_path: &str, change_path: &str) -> Result<bool, String> {
    let parent = load(parent_path)?;
    let change = load(change_path)?;
    let manifest = benchmark_dir().join("..").join("BENCHMARK.json");
    let manifest = load(&manifest.to_string_lossy())?;
    let metrics = manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;

    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7} {:>7}  status",
        "workload", "metric", "parent", "change", "ratio", "spread", "bound"
    );
    let mut regressed = false;
    for spec in &WORKLOADS {
        let side = |doc| Json::get(doc, "workloads")?.get(spec.name);
        let (Some(p), Some(c)) = (side(&parent), side(&change)) else {
            println!("{:<14} missing from one run set", spec.name);
            regressed = true;
            continue;
        };
        for metric in metrics {
            let name = metric
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_default();
            let lower_is_better = metric.get("better").and_then(Json::as_str) == Some("lower");
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let series = |side| Json::get(side, "end_to_end")?.get(name);
            let (Some(ps), Some(cs)) = (series(p), series(c)) else {
                println!("{:<14} {:<16} missing from one run set", spec.name, name);
                regressed = true;
                continue;
            };
            let (pv, cv) = (values_of(ps), values_of(cs));
            if pv.is_empty() || cv.is_empty() {
                println!("{:<14} {:<16} has no values", spec.name, name);
                regressed = true;
                continue;
            }
            let (pm, cm) = (stats::median(&pv), stats::median(&cv));
            let worse_by = if lower_is_better { cm - pm } else { pm - cm } / pm.abs();
            let spread = stats::iqr_frac(&pv).max(stats::iqr_frac(&cv));
            // "Better on every run": the change's worst beats the parent's best.
            let every_run_better = if lower_is_better {
                stats::max(&cv) < stats::min(&pv)
            } else {
                stats::min(&cv) > stats::max(&pv)
            };
            let status = if worse_by > bound {
                regressed = true;
                "REGRESSION"
            } else if every_run_better {
                "better on every run"
            } else if spread > bound {
                "unresolved (spread > bound)"
            } else {
                "ok"
            };
            println!(
                "{:<14} {:<16} {:>14.6} {:>14.6} {:>9.4} {:>7.4} {:>7.4}  {status}",
                spec.name,
                name,
                pm,
                cm,
                cm / pm,
                spread,
                bound
            );
        }
        let count = |side: &Json, key: &str| side.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let correct = c.get("correct").and_then(Json::as_bool) == Some(true);
        let (pf, cf) = (
            count(p, "failed") / count(p, "attempted").max(1.0),
            count(c, "failed") / count(c, "attempted").max(1.0),
        );
        let status = if !correct || cf > pf {
            regressed = true;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "{:<14} {:<16} {:>14.6} {:>14.6} {:>9} {:>7} {:>7}  {status}{}",
            spec.name,
            "failed_frac",
            pf,
            cf,
            "-",
            "-",
            "0",
            if correct {
                ""
            } else {
                " (correctness gate failed)"
            }
        );
    }
    println!("ratio = change / parent (base: the parent's median); spread = larger IQR / median of the two sets");
    Ok(regressed)
}
