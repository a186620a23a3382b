//! Drives the built binary at 1/100 scale: every workload passes its checks and prints
//! every metric `BENCHMARK.json` declares, and a corrupted body is caught.

use std::path::PathBuf;
use std::process::{Command, Output};

use legaliot_benchmark::catalogue;
use legaliot_benchmark::workloads::Workload;
use serde_json::Value;

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(workload: Workload, traced: bool, extra: &[&str], tag: &str) -> (Output, Value) {
    let dir = scratch(tag);
    let output = Command::new(env!("CARGO_BIN_EXE_legaliot-benchmark"))
        .args(["--workload", workload.name(), "--seed", "3", "--seconds", "12", "--smoke"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&dir)
        .arg("--dir")
        .arg(dir.join("durable"))
        .args(extra)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!("no output; stderr: {}", String::from_utf8_lossy(&output.stderr))
    });
    let result = serde_json::from_str(last)
        .unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"));
    let _ = std::fs::remove_dir_all(&dir);
    (output, result)
}

fn assert_result_shape(result: &Value, traced: bool) {
    let keys: Vec<&str> =
        result.as_object().expect("an object").keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let declared: &[catalogue::MetricDef] =
        if traced { &catalogue::PER_LAYER } else { &catalogue::END_TO_END };
    let metrics = result["metrics"].as_object().expect("metrics is an object");
    assert_eq!(metrics.len(), declared.len(), "exactly the declared metrics");
    for def in declared {
        let entry =
            metrics.get(def.name).unwrap_or_else(|| panic!("metric `{}` missing", def.name));
        assert_eq!(entry["unit"].as_str(), Some(def.unit), "{}", def.name);
        let value = entry["value"]
            .as_f64()
            .unwrap_or_else(|| panic!("`{}` has no numeric value", def.name));
        assert!(value.is_finite() && value >= 0.0, "{} = {value}", def.name);
        if !traced {
            assert!(value > 0.0, "end-to-end metric `{}` must never be 0", def.name);
        }
    }
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_declared_metric() {
    for workload in Workload::ALL {
        for traced in [false, true] {
            let tag = format!("{}-{traced}", workload.name());
            let (output, result) = run(workload, traced, &[], &tag);
            assert!(output.status.success(), "{tag}: {}", String::from_utf8_lossy(&output.stdout));
            assert_eq!(result["correct"].as_bool(), Some(true), "{tag}");
            assert_eq!(result["failed"].as_u64(), Some(0), "{tag}");
            assert!(result["attempted"].as_u64().is_some_and(|n| n >= 1), "{tag}");
            assert_result_shape(&result, traced);
        }
    }
}

#[test]
fn a_corrupted_received_body_fails_the_run() {
    for workload in Workload::ALL {
        let tag = format!("corrupt-{}", workload.name());
        let (output, result) = run(workload, false, &["--inject-corruption"], &tag);
        assert_eq!(output.status.code(), Some(1), "{tag}: exit code");
        assert_eq!(result["correct"].as_bool(), Some(false), "{tag}");
        let failed = result["failed"].as_u64().expect("failed is a whole number");
        let attempted = result["attempted"].as_u64().expect("attempted is a whole number");
        assert!(
            failed >= 1 && failed as f64 / attempted as f64 > 0.0,
            "{tag}: failed_share must be > 0"
        );
    }
}

#[test]
fn measuring_is_refused_without_optimisation() {
    // `cargo test` builds the binary with debug assertions unless run with --release.
    if !cfg!(debug_assertions) {
        return;
    }
    let output = Command::new(env!("CARGO_BIN_EXE_legaliot-benchmark"))
        .args(["--workload", "bus_inline", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("the benchmark binary starts");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("debug_assertions"));
}
