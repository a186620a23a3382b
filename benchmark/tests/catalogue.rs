//! The metric catalogue against the contract's limits and against `BENCHMARK.json`.

use std::collections::BTreeSet;

use legaliot_benchmark::catalogue::{self, valid_name};
use legaliot_benchmark::workloads::Workload;

#[test]
fn metric_names_use_the_allowed_characters_once_each() {
    let mut seen = BTreeSet::new();
    for def in catalogue::END_TO_END.iter().chain(catalogue::PER_LAYER.iter()) {
        assert!(valid_name(def.name), "bad metric name `{}`", def.name);
        assert!(seen.insert(def.name), "metric `{}` is listed twice", def.name);
        let unit_ok =
            |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        assert!(
            !def.unit.is_empty() && def.unit.len() <= 16 && def.unit.chars().all(unit_ok),
            "{}",
            def.unit
        );
    }
    for workload in Workload::ALL {
        assert!(valid_name(workload.name()));
        assert!(catalogue::why(workload).len() <= 200 && !catalogue::why(workload).contains('\n'));
    }
    assert!(!valid_name("latency µs"));
    assert!(!valid_name(".hidden"));
    assert!(!valid_name(""));
    assert!(!valid_name(&"x".repeat(65)));
}

#[test]
fn catalogue_respects_the_contracts_limits() {
    assert!((1..=16).contains(&catalogue::END_TO_END.len()));
    assert!((1..=128).contains(&catalogue::PER_LAYER.len()));
    assert!((1..=60).contains(&catalogue::RUN_SECONDS));
    for def in &catalogue::END_TO_END {
        let bound = def.bound.expect("end-to-end metrics are gated");
        assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", def.name);
    }
    let setup = catalogue::find("setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.name()), ("s", "lower"));
    // The set-up time carries the largest bound.
    let largest = catalogue::END_TO_END.iter().filter_map(|def| def.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest));
}

#[test]
fn benchmark_json_is_the_catalogue_written_out() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    assert!(text.len() <= 64 * 1024);
    let committed: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(committed, catalogue::benchmark_json(), "regenerate with --print-benchmark-json");
    let keys: Vec<&str> =
        committed.as_object().expect("an object").keys().map(String::as_str).collect();
    assert_eq!(keys, ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]);
}
