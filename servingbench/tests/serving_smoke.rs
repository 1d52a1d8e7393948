//! Drives the built `serving` binary in `--quick` mode (the four workloads on
//! the tiny test graph) and holds what it prints against `BENCHMARK.json`, so
//! that the file and the code cannot drift apart.

use serde::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

const SERVING: &str = env!("CARGO_BIN_EXE_serving");

fn benchmark_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn benchmark() -> Value {
    let text = std::fs::read_to_string(benchmark_path()).expect("BENCHMARK.json at the repo root");
    serde_json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn array<'a>(value: &'a Value, key: &str) -> &'a [Value] {
    match value.get_field(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key} should be an array, found {other:?}"),
    }
}

fn string<'a>(value: &'a Value, key: &str) -> &'a str {
    match value.get_field(key) {
        Some(Value::Str(text)) => text,
        other => panic!("{key} should be a string, found {other:?}"),
    }
}

fn keys(value: &Value) -> BTreeSet<String> {
    match value {
        Value::Object(fields) => fields.iter().map(|(key, _)| key.clone()).collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

/// The (name, unit) pairs a section of `BENCHMARK.json` declares.
fn declared(benchmark: &Value, section: &str) -> BTreeSet<(String, String)> {
    array(benchmark, section)
        .iter()
        .map(|m| (string(m, "name").to_owned(), string(m, "unit").to_owned()))
        .collect()
}

/// The (name, unit) pairs of a printed `metrics` object; every value must be
/// a finite number.
fn printed(metrics: &Value) -> BTreeSet<(String, String)> {
    let Value::Object(fields) = metrics else { panic!("metrics should be an object") };
    fields
        .iter()
        .map(|(name, entry)| {
            let value = entry.get_field("value").and_then(Value::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name} has no finite value: {entry:?}");
            (name.clone(), string(entry, "unit").to_owned())
        })
        .collect()
}

/// Runs `serving` with `args`; returns the last line of its stdout, parsed.
fn serving(args: &[&str]) -> Value {
    let output = Command::new(SERVING).args(args).output().expect("run serving");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "serving {args:?} exited with {}:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().unwrap_or_else(|| panic!("serving {args:?} printed nothing"));
    serde_json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn quick_run_prints_exactly_the_declared_end_to_end_metrics() {
    let benchmark = benchmark();
    let out = scratch("quick-run.json");
    let document = serving(&[
        "run",
        "--quick",
        "--seconds",
        "1",
        "--seed",
        "5",
        "--out",
        out.to_str().unwrap(),
    ]);

    let declared_workloads: BTreeSet<String> =
        array(&benchmark, "workloads").iter().map(|w| string(w, "name").to_owned()).collect();
    let runs = array(&document, "runs");
    let ran: BTreeSet<String> = runs.iter().map(|r| string(r, "workload").to_owned()).collect();
    assert_eq!(ran, declared_workloads);

    for run in runs {
        assert_eq!(run.get_field("failed").and_then(Value::as_u64), Some(0), "{run:?}");
        assert!(run.get_field("attempted").and_then(Value::as_u64) > Some(0));
        let metrics = run.get_field("metrics").expect("metrics");
        assert_eq!(
            printed(metrics),
            declared(&benchmark, "end_to_end"),
            "{}",
            string(run, "workload")
        );
    }
    assert!(document.get_field("nproc").and_then(Value::as_u64) >= Some(1));

    // The document `run` wrote is what `compare` reads: against itself every
    // row is within its bound.
    let status = Command::new(SERVING)
        .args(["compare", out.to_str().unwrap(), out.to_str().unwrap(), "--benchmark"])
        .arg(benchmark_path())
        .status()
        .expect("run serving compare");
    assert!(status.success(), "a document must not regress against itself");
}

#[test]
fn contract_form_prints_the_declared_metrics_for_every_workload() {
    let benchmark = benchmark();
    let result_keys: BTreeSet<String> =
        ["correct", "attempted", "failed", "metrics"].map(String::from).into();
    for workload in array(&benchmark, "workloads") {
        let name = string(workload, "name");
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let spans = scratch(&format!("{name}.jsonl"));
            let result = serving(&[
                "--workload",
                name,
                "--seed",
                "9",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--quick",
                "--out",
                spans.to_str().unwrap(),
            ]);
            assert_eq!(keys(&result), result_keys, "{name} --trace {trace}");
            assert_eq!(
                result.get_field("correct"),
                Some(&Value::Bool(true)),
                "{name} --trace {trace}"
            );
            assert_eq!(result.get_field("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get_field("attempted").and_then(Value::as_u64) >= Some(1));
            let metrics = result.get_field("metrics").expect("metrics");
            assert_eq!(printed(metrics), declared(&benchmark, section), "{name} --trace {trace}");
            if trace == "1" {
                let lines = std::fs::read_to_string(&spans).expect("the span file");
                assert!(lines.lines().count() > 100, "{name}: too few spans");
                assert!(lines.lines().all(|line| serde_json::parse(line).is_ok()));
            }
        }
    }
}

#[test]
fn bad_invocations_fail_without_a_result() {
    for args in [&["--workload", "no_such_workload", "--seed", "1"][..], &["--seconds", "0"], &[]] {
        let output = Command::new(SERVING).args(args).output().expect("run serving");
        assert!(!output.status.success(), "serving {args:?} should fail");
        assert!(output.stdout.is_empty(), "serving {args:?} printed a result");
    }
}
