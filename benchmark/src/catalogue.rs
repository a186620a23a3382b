//! The metric catalogue: every name the benchmark prints, with its unit, direction and
//! (for gated metrics) the bound by which it may worsen before it counts as a
//! regression. `BENCHMARK.json` at the repo root is this catalogue written out
//! (`--print-benchmark-json`); a test keeps the two equal.

use serde_json::{json, Map, Value};

use crate::workloads::Workload;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// `<layer>.<metric>` for layer metrics, a bare name end to end.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline by which the value may worsen before `--compare` (and,
    /// for end-to-end metrics, the driver) calls it a regression; `None` for
    /// diagnostics that are reported but never gated.
    pub bound: Option<f64>,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: None }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher, bound: None }
}

const fn gated(mut def: MetricDef, bound: f64) -> MetricDef {
    def.bound = Some(bound);
    def
}

/// What a user of the middleware sees; reported by every workload of an untraced run.
///
/// The bounds are what this two-vCPU shared host allows, not what one would like: the
/// fast-side decile of throughput repeats within 1–19 % across seeds (worst:
/// `home_durable`), and the driver refuses a benchmark whose spread exceeds its own
/// bound. Paced latency is not in this list for that reason: at the low utilisation an
/// open loop needs, it is a chain of three thread wake-ups, whose cost on this host
/// moves between levels 25 % apart for minutes at a time (see
/// `harness.latency_p50_us`, which `--compare` gates where it is steady enough).
pub const END_TO_END: [MetricDef; 3] = [
    gated(lower("setup_s", "s"), 0.25),
    gated(higher("throughput_msgs_per_s", "1/s"), 0.25),
    gated(lower("peak_rss_mb", "MB"), 0.10),
];

/// Single layers, measured from outside; reported by every workload of a traced run
/// (`0` where a workload does not exercise the layer).
pub const PER_LAYER: [MetricDef; 99] = [
    lower("ifc.can_flow_ns", "ns"),
    lower("ifc.cache_hit_ns", "ns"),
    lower("ifc.cache_miss_ns", "ns"),
    lower("ifc.context_hash_ns", "ns"),
    higher("ifc.cache_hit_ratio", "ratio"),
    lower("ifc.distinct_context_pairs", "count"),
    lower("policy.ac_decide_ns", "ns"),
    lower("policy.ac_cache_hit_ns", "ns"),
    lower("policy.ac_cache_sync_ns", "ns"),
    higher("policy.ac_cache_hit_ratio", "ratio"),
    lower("policy.rules", "count"),
    lower("context.set_ns", "ns"),
    lower("context.snapshot_ns", "ns"),
    lower("context.snapshot_if_newer_unchanged_ns", "ns"),
    lower("schema.validate_ns", "ns"),
    lower("schema.freeze_ns", "ns"),
    lower("schema.quench_mask_ns", "ns"),
    lower("schema.quench_ns", "ns"),
    lower("schema.thaw_ns", "ns"),
    lower("schema.payload_bytes_per_msg", "B"),
    lower("admission.admit_channel_ns", "ns"),
    lower("admission.admit_channel_cached_ns", "ns"),
    lower("bus.send_ns", "ns"),
    lower("bus.try_recv_ns", "ns"),
    lower("bus.establish_channel_ns", "ns"),
    lower("bus.audit_records_per_send", "count"),
    lower("audit.event_build_ns", "ns"),
    lower("audit.record_ns", "ns"),
    lower("audit.batch_append_ns", "ns"),
    lower("audit.batch_flush_ns_per_record", "ns"),
    lower("audit.segment_append_ns", "ns"),
    lower("audit.segment_sync_p50_us", "us"),
    lower("audit.recover_ns_per_record", "ns"),
    lower("audit.verify_ns_per_record", "ns"),
    lower("audit.records_per_msg", "count"),
    lower("audit.segment_bytes_per_record", "B"),
    lower("audit.segment_sync_count", "count"),
    lower("audit.segment_sync_p99_ms", "ms"),
    lower("audit.segment_sync_max_ms", "ms"),
    gated(lower("audit.recover_s", "s"), 0.10),
    gated(lower("audit.segment_bytes_per_msg", "B"), 0.001),
    lower("engine.publish_ns", "ns"),
    lower("engine.publish_blocked_share", "ratio"),
    lower("engine.drain_ms", "ms"),
    lower("engine.shutdown_ms", "ms"),
    gated(lower("engine.control_op_p50_us", "us"), 0.15),
    lower("engine.set_key_us", "us"),
    lower("engine.set_context_us", "us"),
    lower("engine.set_isolated_us", "us"),
    lower("engine.add_rule_us", "us"),
    lower("engine.join_us", "us"),
    lower("engine.leave_us", "us"),
    lower("queue.push_pop_ns", "ns"),
    lower("queue.depth_hwm", "count"),
    lower("queue.producer_waits", "count"),
    lower("queue.consumer_parks", "count"),
    lower("shard.queue_wait_mean_ns", "ns"),
    lower("shard.queue_wait_busy_s", "s"),
    lower("shard.isolation_mean_ns", "ns"),
    lower("shard.isolation_busy_s", "s"),
    lower("shard.ac_hit_mean_ns", "ns"),
    lower("shard.ac_hit_busy_s", "s"),
    lower("shard.ac_miss_mean_ns", "ns"),
    lower("shard.ac_miss_busy_s", "s"),
    lower("shard.ifc_mean_ns", "ns"),
    lower("shard.ifc_busy_s", "s"),
    lower("shard.quench_mean_ns", "ns"),
    lower("shard.quench_busy_s", "s"),
    lower("shard.audit_append_mean_ns", "ns"),
    lower("shard.audit_append_busy_s", "s"),
    lower("shard.handoff_mean_ns", "ns"),
    lower("shard.handoff_busy_s", "s"),
    lower("shard.block_stall_mean_ns", "ns"),
    lower("shard.block_stall_busy_s", "s"),
    lower("shard.dir_lock_wait_mean_ns", "ns"),
    lower("shard.dir_lock_wait_busy_s", "s"),
    lower("shard.delivery_mean_ns", "ns"),
    lower("shard.delivery_busy_s", "s"),
    lower("subscriber.drain_ns_per_msg", "ns"),
    lower("subscriber.empty_sweeps", "count"),
    higher("subscriber.enqueued", "count"),
    lower("subscriber.dropped", "count"),
    lower("fleet.generate_ms", "ms"),
    lower("fleet.predict_ms", "ms"),
    lower("ledger.wall", "ns/msg"),
    lower("ledger.publish", "ns/msg"),
    lower("ledger.shard", "ns/msg"),
    lower("ledger.recv", "ns/msg"),
    gated(lower("harness.latency_p50_us", "us"), 0.25),
    lower("harness.latency_p90_us", "us"),
    lower("harness.latency_p99_us", "us"),
    lower("harness.latency_p999_us", "us"),
    lower("harness.latency_max_us", "us"),
    lower("harness.generator_late_p50_us", "us"),
    lower("harness.generator_max_late_us", "us"),
    higher("harness.throughput_mean_msgs_per_s", "1/s"),
    higher("harness.traced_throughput_msgs_per_s", "1/s"),
    lower("harness.spans_recorded", "count"),
    lower("harness.spans_overflowed", "count"),
];

/// Layer metrics `--compare` gates, each on the workloads built to move it (their
/// bounds are in [`PER_LAYER`]). The driver cannot gate them: its end-to-end list is
/// shared by all workloads, may never read 0, and has to repeat within its bound on
/// every one of them — paced latency does not on `home_durable`.
pub const LAYER_GATES: [(&str, Workload); 6] = [
    ("harness.latency_p50_us", Workload::HomeSteady),
    ("harness.latency_p50_us", Workload::FleetChurn),
    ("harness.latency_p50_us", Workload::BusInline),
    ("engine.control_op_p50_us", Workload::FleetChurn),
    ("audit.recover_s", Workload::HomeDurable),
    ("audit.segment_bytes_per_msg", Workload::HomeDurable),
];

/// Seconds one driver run measures.
pub const RUN_SECONDS: u64 = 16;

/// The catalogue entry called `name`.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|def| def.name == name)
}

/// Whether `name` is made of the characters the contract allows in a metric name.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

/// Why each workload exists, one line each.
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::HomeSteady => "caches hot, no IO: publish path, queue, shard hit path and subscriber hand-off do the work",
        Workload::FleetChurn => "1000 generated deployments under churn, 68 % denied: policy, context, IFC miss paths and the control plane do the work",
        Workload::HomeDurable => "full audit persisted and fsynced: event construction, hash chain, encode, segment write and sync do the work",
        Workload::BusInline => "the same job on the synchronous single-threaded bus: no queue, shard or mailbox; pins the bus's copy of the enforcement sequence",
    }
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let metric = |def: &MetricDef, with_bound: bool| {
        let mut map = Map::new();
        map.insert("name".into(), json!(def.name));
        map.insert("unit".into(), json!(def.unit));
        map.insert("better".into(), json!(def.better.name()));
        if with_bound {
            map.insert("bound".into(), json!(def.bound.expect("end-to-end metrics are gated")));
        }
        Value::Object(map)
    };
    let mut root = Map::new();
    root.insert(
        "command".into(),
        json!([
            "cargo",
            "run",
            "--release",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--"
        ]),
    );
    root.insert("paths".into(), json!(["benchmark"]));
    root.insert("run_seconds".into(), json!(RUN_SECONDS));
    root.insert(
        "workloads".into(),
        Value::Array(
            Workload::ALL
                .into_iter()
                .map(|workload| {
                    let mut map = Map::new();
                    map.insert("name".into(), json!(workload.name()));
                    map.insert("why".into(), json!(why(workload)));
                    Value::Object(map)
                })
                .collect(),
        ),
    );
    root.insert(
        "end_to_end".into(),
        Value::Array(END_TO_END.iter().map(|def| metric(def, true)).collect()),
    );
    root.insert(
        "per_layer".into(),
        Value::Array(PER_LAYER.iter().map(|def| metric(def, false)).collect()),
    );
    Value::Object(root)
}
