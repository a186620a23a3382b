//! Running workloads: one in this process, or all four each in a sequential child
//! process of its own (so `peak_rss_mb` is per workload and no workload inherits
//! another's heap, threads or page cache state).

use std::path::{Path, PathBuf};
use std::process::Command as Process;

use serde_json::{json, Map, Value};

use crate::outcome::RunOptions;
use crate::report;
use crate::stamp;
use crate::workloads::{home::SHARDS, Workload};

fn result_path(out_dir: &Path, workload: Workload, traced: bool) -> PathBuf {
    out_dir.join(format!("{}-{}.json", workload.name(), if traced { "traced" } else { "untraced" }))
}

/// Runs one workload in this process: prints the table, writes the result document
/// (and the trace, when traced), and prints the driver's result line last. Returns the
/// process exit code.
pub fn run_one(workload: Workload, options: &RunOptions) -> i32 {
    let mut outcome = workload.run(options);
    outcome.metrics.entry("peak_rss_mb".into()).or_insert_with(stamp::peak_rss_mb);
    if let (true, Some(throughput)) = (options.traced, outcome.metrics.get("throughput_msgs_per_s"))
    {
        outcome.set("harness.traced_throughput_msgs_per_s", *throughput);
    }
    outcome.set("harness.spans_recorded", outcome.spans.spans().len() as f64);
    outcome.set("harness.spans_overflowed", outcome.spans.overflowed() as f64);
    if !options.traced {
        for name in report::missing_end_to_end(&outcome) {
            outcome.fail(1, format!("end-to-end metric `{name}` was not measured"));
        }
    }

    let stamp = stamp::stamp(options.seed, options.seconds, SHARDS, &options.durable_dir);
    let document = report::result_document(workload, options.traced, &stamp, &outcome);
    print!("{}", report::table(&document));
    let text = serde_json::to_string_pretty(&document).expect("a value tree serialises");
    let written =
        report::write_file(&result_path(&options.out_dir, workload, options.traced), &text)
            .and_then(|()| {
                if !options.traced {
                    return Ok(());
                }
                let per_layer = report::result_line(&outcome, true);
                let trace = format!("{}{per_layer}\n", outcome.spans.to_jsonl());
                report::write_file(
                    &options.out_dir.join(format!("trace-{}.jsonl", workload.name())),
                    &trace,
                )
            });
    if let Err(error) = written {
        eprintln!("cannot write results under {}: {error}", options.out_dir.display());
        return 2;
    }
    println!("{}", report::result_line(&outcome, options.traced));
    i32::from(!outcome.correct())
}

/// Runs `workload` in a child process and returns its result document.
fn run_child(workload: Workload, options: &RunOptions, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut child = Process::new(exe);
    child
        .args(["--workload", workload.name()])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--dir")
        .arg(&options.durable_dir)
        .arg("--out-dir")
        .arg(&options.out_dir);
    if options.smoke {
        child.arg("--smoke");
    }
    if options.inject_corruption {
        child.arg("--inject-corruption");
    }
    // `output()` waits for the child and collects what it printed.
    let output = child.output().map_err(|e| format!("cannot start {}: {e}", workload.name()))?;
    let path = result_path(&options.out_dir, workload, traced);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{} left no result at {} ({e}); it printed:\n{}",
            workload.name(),
            path.display(),
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let document: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if !output.status.success() && document["correct"].as_bool() != Some(false) {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    Ok(document)
}

/// Runs every workload (and, with `--traced`, every workload again with tracing on),
/// prints every metric by name with its unit, writes the combined document, and
/// returns the process exit code: non-zero when any correctness check failed.
pub fn run_suite(options: &RunOptions, out: Option<&Path>) -> i32 {
    let mut workloads = Map::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        let mut entry = Map::new();
        for traced in [false, true] {
            if traced && !options.traced {
                continue;
            }
            eprintln!(
                "running {} ({})…",
                workload.name(),
                if traced { "traced" } else { "untraced" }
            );
            match run_child(workload, options, traced) {
                Ok(document) => {
                    print!("{}", report::table(&document));
                    all_correct &= document["correct"].as_bool() == Some(true);
                    entry.insert(if traced { "traced" } else { "untraced" }.into(), document);
                }
                Err(error) => {
                    eprintln!("{error}");
                    all_correct = false;
                }
            }
        }
        // Tracing overhead: traced over untraced throughput (ROADMAP's 0.65–0.74×).
        let throughput =
            |mode: &str| entry.get(mode)?["metrics"]["throughput_msgs_per_s"]["value"].as_f64();
        if let (Some(untraced), Some(traced)) = (throughput("untraced"), throughput("traced")) {
            let ratio = traced / untraced;
            println!(
                "{:<44} {ratio:>16.4} ratio",
                format!("{}: harness.trace_overhead_ratio", workload.name())
            );
            entry.insert("trace_overhead_ratio".into(), json!(ratio));
        }
        workloads.insert(workload.name().into(), Value::Object(entry));
    }
    let mut root = Map::new();
    root.insert(
        "stamp".into(),
        stamp::stamp(options.seed, options.seconds, SHARDS, &options.durable_dir),
    );
    root.insert("smoke".into(), json!(options.smoke));
    root.insert("workloads".into(), Value::Object(workloads));
    let path = out.map_or_else(
        || options.out_dir.join(format!("suite-{}.json", options.seed)),
        Path::to_path_buf,
    );
    let text = serde_json::to_string_pretty(&Value::Object(root)).expect("a value tree serialises");
    if let Err(error) = report::write_file(&path, &text) {
        eprintln!("cannot write {}: {error}", path.display());
        return 2;
    }
    println!("wrote {}", path.display());
    i32::from(!all_correct)
}
