//! Runs every workload at `--scale smoke` through the real binary and
//! checks the result line against `BENCHMARK.json`.

use std::process::Command;

use serde::{Number, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn declared(section: &str) -> Vec<(String, String)> {
    let root: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let root = root.as_object().expect("an object");
    serde::field(root, section)
        .as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            let m = m.as_object().expect("metric objects");
            let text = |k: &str| serde::field(m, k).as_str().expect("string").to_owned();
            (text("name"), text("unit"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let root: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    serde::field(root.as_object().expect("an object"), "workloads")
        .as_array()
        .expect("a list")
        .iter()
        .map(|w| {
            let w = w.as_object().expect("workload objects");
            serde::field(w, "name").as_str().expect("string").to_owned()
        })
        .collect()
}

/// Run one smoke benchmark; its stdout and the parsed metrics of its
/// result line, by name.
fn smoke(workload: &str, trace: bool) -> (String, Vec<(String, f64, String)>) {
    let output = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "smoke"])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last: Value = serde_json::from_str(stdout.lines().last().expect("a result line"))
        .expect("the last line is JSON");
    let last = last.as_object().expect("an object");
    assert_eq!(
        serde::field(last, "correct"),
        &Value::Bool(true),
        "{stdout}"
    );
    assert_eq!(
        serde::field(last, "failed"),
        &Value::Num(Number::PosInt(0)),
        "{stdout}"
    );
    let metrics = serde::field(last, "metrics")
        .as_object()
        .expect("a metrics object")
        .iter()
        .map(|(name, m)| {
            let m = m.as_object().expect("metric objects");
            let value = match serde::field(m, "value") {
                Value::Num(n) => n.as_f64(),
                other => panic!("{name}: value {other:?}"),
            };
            let unit = serde::field(m, "unit").as_str().expect("a unit").to_owned();
            (name.clone(), value, unit)
        })
        .collect();
    (stdout, metrics)
}

#[test]
fn every_declared_metric_is_printed_with_its_unit_and_a_finite_value() {
    for workload in workloads() {
        for trace in [false, true] {
            let (stdout, metrics) = smoke(&workload, trace);
            let want = declared(if trace { "per_layer" } else { "end_to_end" });
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(n, _, u)| (n.clone(), u.clone()))
                .collect();
            assert_eq!(got, want, "{workload} trace={trace}");
            for (name, value, unit) in &metrics {
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                let line = format!("{name} {value} {unit}");
                assert!(
                    stdout.lines().any(|l| l.starts_with(&line)),
                    "{workload}: no line {line:?} in\n{stdout}"
                );
            }
            if trace {
                let (_, share, _) = metrics
                    .iter()
                    .find(|(n, _, _)| n == "trace.unattributed_share")
                    .expect("declared");
                assert!(*share <= 0.05, "{workload}: unattributed {share}");
            }
        }
    }
}

#[test]
fn exact_counters_repeat_across_runs() {
    let counts = |metrics: Vec<(String, f64, String)>| -> Vec<(String, f64)> {
        metrics
            .into_iter()
            .filter(|(_, _, unit)| unit == "count")
            .map(|(n, v, _)| (n, v))
            .collect()
    };
    for workload in ["table2-hid", "tall"] {
        let first = counts(smoke(workload, true).1);
        let second = counts(smoke(workload, true).1);
        assert!(!first.is_empty());
        assert_eq!(first, second, "{workload}");
    }
}
