//! The four workloads and what the dataplane-driven ones share.

pub mod bus;
pub mod fleet;
pub mod home;

use legaliot_dataplane::{DataplaneStats, Stage, TelemetrySnapshot};

use crate::outcome::{Outcome, RunOptions};

/// A workload of the benchmark. Names are fixed; later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Smart home, caches hot, summarised audit, no IO.
    HomeSteady,
    /// A thousand generated deployments under churn, checked against the oracle.
    FleetChurn,
    /// Smart home with full audit persisted and fsynced.
    HomeDurable,
    /// The same job on the synchronous single-threaded bus.
    BusInline,
}

impl Workload {
    /// Every workload, in the order the suite runs them.
    pub const ALL: [Workload; 4] =
        [Workload::HomeSteady, Workload::FleetChurn, Workload::HomeDurable, Workload::BusInline];

    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HomeSteady => "home_steady",
            Workload::FleetChurn => "fleet_churn",
            Workload::HomeDurable => "home_durable",
            Workload::BusInline => "bus_inline",
        }
    }

    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|workload| workload.name() == name)
    }

    /// Runs the workload once.
    pub fn run(self, opts: &RunOptions) -> Outcome {
        match self {
            Workload::HomeSteady => home::run(opts, false),
            Workload::HomeDurable => home::run(opts, true),
            Workload::FleetChurn => fleet::run(opts),
            Workload::BusInline => bus::run(opts),
        }
    }
}

/// Nanoseconds the shard threads spent on enforcement work so far: every stage sum
/// except waiting (`queue_wait`, `block_stall`) and the end-to-end `delivery` span.
pub fn shard_work_ns(snapshot: &TelemetrySnapshot) -> u64 {
    let merged = snapshot.merged();
    Stage::ALL
        .into_iter()
        .filter(|stage| !matches!(stage, Stage::QueueWait | Stage::Delivery | Stage::BlockStall))
        .map(|stage| merged.stage(stage).sum())
        .sum()
}

/// Records a traced dataplane's per-stage and queue metrics, as `sum`/`count` of the
/// public histograms rather than their log2 quantiles.
pub fn record_stage_metrics(outcome: &mut Outcome, snapshot: &TelemetrySnapshot) {
    let merged = snapshot.merged();
    for stage in Stage::ALL {
        let histogram = merged.stage(stage);
        let mean = histogram.sum() as f64 / histogram.count().max(1) as f64;
        outcome.set(&format!("shard.{}_mean_ns", stage.name()), mean);
        outcome.set(&format!("shard.{}_busy_s", stage.name()), histogram.sum() as f64 / 1e9);
    }
    outcome.set("queue.depth_hwm", merged.queue_depth_high_water as f64);
    outcome.set("queue.producer_waits", merged.queue_producer_waits as f64);
    outcome.set("queue.consumer_parks", merged.queue_consumer_parks as f64);
}

/// Records the counters every dataplane workload reports.
pub fn record_engine_counters(outcome: &mut Outcome, stats: &DataplaneStats) {
    outcome.set("ifc.cache_hit_ratio", stats.cache_hit_ratio());
    outcome.set("policy.ac_cache_hit_ratio", stats.ac_cache_hit_ratio());
    outcome.set("subscriber.enqueued", stats.receiver_enqueued as f64);
    outcome.set("subscriber.dropped", stats.receiver_dropped as f64);
    outcome.set(
        "schema.payload_bytes_per_msg",
        stats.payload_bytes as f64 / stats.delivered.max(1) as f64,
    );
}

/// Records the whole-phase latency tail (known-noisy diagnostics): p99 and p99.9 where
/// at least ten samples lie beyond them, and the maximum. Sorts `latency_ns`.
pub fn record_latency_tail(outcome: &mut Outcome, latency_ns: &mut [u32]) {
    latency_ns.sort_unstable();
    for (name, p) in [("harness.latency_p99_us", 0.99), ("harness.latency_p999_us", 0.999)] {
        let value = crate::stats::supported_percentile(latency_ns, p).map_or(0.0, f64::from);
        outcome.set(name, value / 1e3);
    }
    outcome.set("harness.latency_max_us", latency_ns.last().map_or(0.0, |ns| f64::from(*ns)) / 1e3);
    outcome.samples.insert("latency_samples".into(), latency_ns.len() as u64);
}

/// The rule `Dataplane::allow_sends_to` installs.
pub fn open_send_rule() -> legaliot_middleware::AccessRule {
    use legaliot_middleware::{AccessRule, Operation, Subject};
    AccessRule::allow(Subject::Anyone, Operation::Send, None)
}
