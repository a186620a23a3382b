//! How one workload run is made and what it hands back: counts, named metric values, and
//! the windows or passes behind each end-to-end value.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::spans::SpanBuffer;
use crate::stats;

/// How a run is to be made (the command line's options).
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds of measured work; message counts are absolute constants times this.
    pub seconds: f64,
    /// `ObsConfig::enabled()`, per-call generator timing, spans and probes.
    pub traced: bool,
    /// 1/100 scale: every check on, nothing worth quoting measured.
    pub smoke: bool,
    /// Directory for traces, results and probe scratch files.
    pub out_dir: PathBuf,
    /// Directory the durable workload persists into (removed afterwards).
    pub durable_dir: PathBuf,
    /// Test hook: corrupt one received body before it is checked, so the failure path
    /// (`failed` > 0, non-zero exit) can be exercised.
    pub inject_corruption: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            seed: 1,
            seconds: crate::catalogue::RUN_SECONDS as f64,
            traced: false,
            smoke: false,
            out_dir: PathBuf::from("benchmark/out"),
            durable_dir: PathBuf::from("benchmark/out/durable"),
            inject_corruption: false,
        }
    }
}

impl RunOptions {
    /// Span capacity for a recording thread: enough for the 1-in-64 sample of
    /// `messages` plus `extra` unsampled spans when traced, nothing otherwise.
    pub fn span_capacity(&self, messages: u64, extra: usize) -> usize {
        if self.traced {
            (messages / crate::spans::SAMPLE_EVERY) as usize * 2 + extra + 64
        } else {
            0
        }
    }
}

/// Result of one workload run.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (fan-out deliveries, or sends on the bus).
    pub attempted: u64,
    /// Operations that failed: publish errors, lost or dropped deliveries, and messages
    /// missing, duplicated or differing from the reference.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Metric name → value, in the unit the catalogue states.
    pub metrics: BTreeMap<String, f64>,
    /// Metric name → the windows' or passes' values the metric is taken over, in the
    /// order they were measured.
    pub series: BTreeMap<String, Vec<f64>>,
    /// Phase name → samples behind its numbers.
    pub samples: BTreeMap<String, u64>,
    /// Spans of the traced run.
    pub spans: SpanBuffer,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: BTreeMap::new(),
            series: BTreeMap::new(),
            samples: BTreeMap::new(),
            spans: SpanBuffer::with_capacity(0),
        }
    }
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Sets a metric to the fast-side decile ([`stats::fast_decile`]) of its windows'
    /// (or passes') `values`, and keeps the values.
    pub fn set_undisturbed(&mut self, name: &str, values: &[f64], rate: bool) {
        self.set(name, stats::fast_decile(values, rate));
        self.series.insert(name.to_string(), values.to_vec());
    }

    /// Records a failed check covering `count` operations.
    pub fn fail(&mut self, count: u64, what: impl Into<String>) {
        if count > 0 {
            self.failed += count;
            self.failures.push(what.into());
        }
    }

    /// Records a failed check unless `holds`.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.fail(1, what());
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Runs `f`, returning its result and how long it took in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}
