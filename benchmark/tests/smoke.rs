//! Runs the benchmark's `--smoke` run set (small data, one short round,
//! every workload, both trace modes) and checks that what it emits is
//! what `BENCHMARK.json` declares, in both directions.

use anna_benchmark::json::Json;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn names(list: &Json) -> BTreeSet<(String, String)> {
    list.as_arr()
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            let field = |key| {
                m.get(key)
                    .and_then(Json::as_str)
                    .expect("a string")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn smoke_run_emits_exactly_what_benchmark_json_declares() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(dir.join("../BENCHMARK.json")).unwrap();
    let manifest = Json::parse(&manifest).unwrap();

    let out = dir.join("out");
    std::fs::create_dir_all(&out).unwrap();
    let out = out.join(format!("smoke-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_anna-benchmark"))
        .args(["--smoke", "--seed", "7", "--out"])
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap();
    let doc = std::fs::read_to_string(&out).unwrap();
    std::fs::remove_file(&out).unwrap();
    assert!(status.success(), "the smoke run set failed its own gate");
    let doc = Json::parse(&doc).unwrap();

    let declared_workloads: BTreeSet<String> = manifest
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    let emitted = doc.get("workloads").and_then(Json::as_obj).unwrap();
    let emitted_workloads: BTreeSet<String> = emitted.iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(emitted_workloads, declared_workloads);

    for (workload, result) in emitted {
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
        for section in ["end_to_end", "per_layer"] {
            let series = result.get(section).and_then(Json::as_obj).unwrap();
            let emitted: BTreeSet<(String, String)> = series
                .iter()
                .map(|(name, s)| {
                    let unit = s.get("unit").and_then(Json::as_str).unwrap();
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(
                emitted,
                names(manifest.get(section).unwrap()),
                "{workload}: {section} names and units"
            );
            for (name, s) in series {
                assert!(
                    !name.is_empty()
                        && name.len() <= 64
                        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                        && name
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{name} is not a valid metric name"
                );
                let values = s.get("values").and_then(Json::as_arr).unwrap();
                assert!(!values.is_empty(), "{workload}: {name} has no value");
                for value in values {
                    let value = value.as_f64().expect("a finite number, not null");
                    assert!(value.is_finite(), "{workload}: {name} = {value}");
                    if section == "end_to_end" {
                        assert!(value > 0.0, "{workload}: {name} must never be 0");
                    }
                }
            }
        }
    }
}
