//! Turning an [`Outcome`] into what gets printed and written: the one-line result the
//! driver reads, the full result document `--compare` and the suite read, the trace
//! file, and a table for people.

use std::fmt::Write as _;
use std::path::Path;

use serde_json::{json, Map, Value};

use crate::catalogue::{self, Better, MetricDef};
use crate::outcome::Outcome;
use crate::stats;
use crate::workloads::Workload;

fn metric_value(def: &MetricDef, outcome: &Outcome) -> Value {
    let mut map = Map::new();
    map.insert("value".into(), json!(outcome.metrics.get(def.name).copied().unwrap_or(0.0)));
    map.insert("unit".into(), json!(def.unit));
    Value::Object(map)
}

/// The last line of standard output: exactly `correct`, `attempted`, `failed` and
/// `metrics` — every end-to-end metric of an untraced run, every per-layer metric of a
/// traced one.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let defs: &[MetricDef] = if traced { &catalogue::PER_LAYER } else { &catalogue::END_TO_END };
    let metrics: Map =
        defs.iter().map(|def| (def.name.to_string(), metric_value(def, outcome))).collect();
    let mut root = Map::new();
    root.insert("correct".into(), json!(outcome.correct()));
    root.insert("attempted".into(), json!(outcome.attempted.max(1)));
    root.insert("failed".into(), json!(outcome.failed));
    root.insert("metrics".into(), Value::Object(metrics));
    serde_json::to_string(&Value::Object(root)).expect("a value tree serialises")
}

/// End-to-end metrics an untraced run failed to produce (each must be non-zero).
pub fn missing_end_to_end(outcome: &Outcome) -> Vec<&'static str> {
    catalogue::END_TO_END
        .iter()
        .filter(|def| !outcome.metrics.get(def.name).is_some_and(|value| *value > 0.0))
        .map(|def| def.name)
        .collect()
}

/// The full result document of one run: stamp, counts, every metric measured (with its
/// unit), the windows behind each figure, and per-phase sample counts.
pub fn result_document(
    workload: Workload,
    traced: bool,
    stamp: &Value,
    outcome: &Outcome,
) -> Value {
    let mut metrics = Map::new();
    for (name, value) in &outcome.metrics {
        let unit = catalogue::find(name).map_or("", |def| def.unit);
        let mut entry = Map::new();
        entry.insert("value".into(), json!(*value));
        entry.insert("unit".into(), json!(unit));
        // The windows behind a figure: their quartiles (how disturbed the run was), the
        // values a twentieth and a fifth of the way in from the fast end (how sharply the
        // decile between them is defined; `--compare` reads these), and the values
        // themselves unless there are very many.
        if let Some(series) = outcome.series.get(name) {
            if let Some((q1, q3)) = stats::quartiles(series) {
                entry.insert("q1".into(), json!(q1));
                entry.insert("q3".into(), json!(q3));
            }
            let rate = catalogue::find(name).is_some_and(|def| def.better == Better::Higher);
            entry.insert("fast_5".into(), json!(stats::fast_quantile(series, 0.05, rate)));
            entry.insert("fast_20".into(), json!(stats::fast_quantile(series, 0.2, rate)));
            entry.insert("of".into(), json!(series.len()));
            if series.len() <= 256 {
                entry.insert(
                    "series".into(),
                    Value::Array(series.iter().map(|v| json!(*v)).collect()),
                );
            }
        }
        metrics.insert(name.clone(), Value::Object(entry));
    }
    let mut root = Map::new();
    root.insert("workload".into(), json!(workload.name()));
    root.insert("traced".into(), json!(traced));
    root.insert("stamp".into(), stamp.clone());
    root.insert("correct".into(), json!(outcome.correct()));
    root.insert("attempted".into(), json!(outcome.attempted));
    root.insert("failed".into(), json!(outcome.failed));
    root.insert(
        "failed_share".into(),
        json!(outcome.failed as f64 / outcome.attempted.max(1) as f64),
    );
    root.insert(
        "failures".into(),
        Value::Array(outcome.failures.iter().map(|f| json!(f.as_str())).collect()),
    );
    root.insert("metrics".into(), Value::Object(metrics));
    root.insert(
        "samples".into(),
        Value::Object(
            outcome.samples.iter().map(|(name, count)| (name.clone(), json!(*count))).collect(),
        ),
    );
    Value::Object(root)
}

/// A table of every metric of `document` (a [`result_document`]), catalogue order
/// first, for people.
pub fn table(document: &Value) -> String {
    let mut out = String::new();
    let empty = Map::new();
    let metrics = document["metrics"].as_object().unwrap_or(&empty);
    let _ = writeln!(
        out,
        "== {} ({}) — correct: {}, attempted: {}, failed: {}",
        document["workload"].as_str().unwrap_or("?"),
        if document["traced"].as_bool() == Some(true) { "traced" } else { "untraced" },
        document["correct"].as_bool().unwrap_or(false),
        document["attempted"].as_u64().unwrap_or(0),
        document["failed"].as_u64().unwrap_or(0),
    );
    for def in catalogue::END_TO_END.iter().chain(catalogue::PER_LAYER.iter()) {
        let Some(entry) = metrics.get(def.name) else { continue };
        let value = entry["value"].as_f64().unwrap_or(0.0);
        let spread = match (entry["q1"].as_f64(), entry["q3"].as_f64(), entry["of"].as_u64()) {
            (Some(q1), Some(q3), Some(of)) => format!("   [q1 {q1:.4}  q3 {q3:.4}  of {of}]"),
            _ => String::new(),
        };
        let _ = writeln!(out, "{:<44} {:>16.4} {}{}", def.name, value, def.unit, spread);
    }
    if let Some(samples) = document["samples"].as_object() {
        let listed: Vec<String> = samples
            .iter()
            .map(|(name, count)| format!("{name}={}", count.as_u64().unwrap_or(0)))
            .collect();
        let _ = writeln!(out, "samples: {}", listed.join(" "));
    }
    for failure in document["failures"].as_array().into_iter().flatten() {
        let _ = writeln!(out, "FAILED: {}", failure.as_str().unwrap_or("?"));
    }
    out
}

/// Writes `text` to `path`, creating the directory first.
pub fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, text)
}
