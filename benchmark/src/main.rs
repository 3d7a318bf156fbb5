//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! anna-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run; the last stdout line is the driver's result object
//! anna-benchmark [--seed <n>] [--runs <n>] [--seconds <s>] [--out <file>]
//!     a run set: every workload, one fresh process per run
//! anna-benchmark --compare <parent.json> <change.json>
//!     applies each metric's bound to two run sets
//! ```

use anna_benchmark::json::Json;
use anna_benchmark::{run, suite, workloads};
use std::process::ExitCode;

const USAGE: &str = "usage: anna-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--runs <n>] [--out <file>] [--smoke] [--recall-floor <x>] \
| --compare <parent.json> <change.json>";

/// `BENCHMARK.json`'s `run_seconds`, the default when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 8.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<String>,
    smoke: bool,
    recall_floor: Option<f64>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 1,
        out: None,
        smoke: false,
        recall_floor: None,
        compare: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: cannot read {text:?} as a number"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = number(&flag, value("a number")?)?,
            "--seconds" => args.seconds = number(&flag, value("a number")?)?,
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--runs" => args.runs = number(&flag, value("a number")?)?,
            "--out" => args.out = Some(value("a file")?),
            "--smoke" => args.smoke = true,
            "--recall-floor" => args.recall_floor = Some(number(&flag, value("a number")?)?),
            "--compare" => {
                args.compare = Some((value("two run-set files")?, value("two run-set files")?))
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if args.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    Ok(args)
}

/// One run: human-readable metric lines, then the detail object, then —
/// as the last line — the driver's result object.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let workload = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name:?}; the workloads are {}",
            names.join(", ")
        )
    })?;
    let report = run::run(&run::RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        recall_floor: args.recall_floor,
    })?;
    for (name, unit, value) in report.metrics.entries() {
        println!("{name} = {value} {unit}");
    }
    if let Some(violations) = report.detail.get("violations").and_then(Json::as_arr) {
        for violation in violations {
            println!("VIOLATION: {}", violation.as_str().unwrap_or_default());
        }
    }
    println!("{}", report.detail.render());
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(report.correct)),
            ("attempted", Json::Num(report.attempted as f64)),
            ("failed", Json::Num(report.failed as f64)),
            ("metrics", report.metrics.to_json()),
        ])
        .render()
    );
    Ok(report.correct)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if let Some((parent, change)) = &args.compare {
            suite::compare(parent, change).map(|regressed| !regressed)
        } else if let Some(name) = &args.workload {
            run_one(name, &args)
        } else {
            suite::run_set(&suite::SuiteConfig {
                seed: args.seed,
                runs: args.runs,
                seconds: args.seconds,
                smoke: args.smoke,
                out: args.out.clone(),
            })
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A failed gate or a regression: the result was printed, the exit
        // code says not to trust it.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("anna-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
