//! The benchmark's self-test: a short run of every workload, plain and
//! traced, through the real command line. Each must end with the JSON
//! result line carrying exactly the metrics `BENCHMARK.json` declares,
//! with their units, no failed operation and correct outputs; a plain
//! run must also print the workload's own metrics (`fail_ratio` at 0).
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde::Value;
use std::process::Command;

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Value::Seq(entries) = json.field(section).expect("section present") else {
        panic!("{section} is not a list");
    };
    entries
        .iter()
        .map(|e| {
            let text = |k: &str| match e.field(k).expect("field") {
                Value::Str(s) => s.clone(),
                other => panic!("{k} is not a string: {other:?}"),
            };
            (text("name"), text("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--short"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    let last = stdout.lines().last().expect("output").to_string();
    let result = serde_json::from_str(&last).expect("last line is JSON");
    (stdout, result)
}

fn check_result(workload: &str, result: &Value, catalogue: &[(String, String)]) {
    let Value::Map(top) = result else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.field("correct").ok(), Some(&Value::Bool(true)));
    assert_eq!(
        result.field("failed").ok(),
        Some(&Value::I64(0)),
        "{workload}: fail_ratio must be 0"
    );
    let Value::Map(metrics) = result.field("metrics").expect("metrics") else {
        panic!("metrics is not an object")
    };
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                matches!(m.field("value"), Ok(Value::F64(v)) if v.is_finite()),
                "{workload}: {name} has no finite value"
            );
            let Ok(Value::Str(unit)) = m.field("unit") else {
                panic!("{workload}: {name} has no unit")
            };
            (name.clone(), unit.clone())
        })
        .collect();
    assert_eq!(
        emitted, catalogue,
        "{workload}: metrics differ from BENCHMARK.json"
    );
}

#[test]
fn every_workload_emits_every_declared_metric_without_failures() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    let named: [(&str, &[(&str, &str)]); 3] = [
        (
            "extract_cold",
            &[
                ("cold_design_s", "s"),
                ("model_edge_ratio", "ratio"),
                ("model_mean_err", "ratio"),
                ("model_sigma_err", "ratio"),
            ],
        ),
        ("sweep_warm", &[("sweep_corners_per_s", "1/s")]),
        (
            "serve_warm",
            &[
                ("serve_p50_ms", "ms"),
                ("serve_p99_ms", "ms"),
                ("serve_capacity_rps", "1/s"),
            ],
        ),
    ];
    for (workload, own) in named {
        let (stdout, result) = run(workload, false);
        check_result(workload, &result, &end_to_end);
        let common = [
            ("setup_s", "s"),
            ("peak_rss_mb", "MB"),
            ("fail_ratio", "ratio"),
        ];
        for (name, unit) in own.iter().chain(&common) {
            let line = stdout
                .lines()
                .find(|l| l.trim_start().starts_with(&format!("{workload}: {name} ")))
                .unwrap_or_else(|| panic!("{workload}: {name} not printed:\n{stdout}"));
            assert!(line.trim_end().ends_with(unit), "{line}");
            if *name == "fail_ratio" {
                assert!(line.contains(" 0.000000 "), "{line}");
            }
        }

        let (stdout, result) = run(workload, true);
        check_result(workload, &result, &per_layer);
        assert!(stdout.contains("chrome trace: "), "{stdout}");
    }
}
