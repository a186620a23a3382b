//! Exposition smoke test: builds a small dataplane, publishes through it, and
//! round-trips the telemetry snapshot through the documented JSON exposition
//! schema with an independent parser (the vendored `serde_json`), asserting the
//! fields a scraper would rely on are present, typed, and internally consistent —
//! and that every number is defined once: the exposition's counters and gauges are
//! exactly the fields of `DataplaneStats`, under the same names with the same values.

use std::collections::BTreeMap;

use legaliot::context::{ContextSnapshot, Timestamp};
use legaliot::dataplane::{
    smart_home, AuditDetail, Dataplane, DataplaneConfig, PersistenceConfig, TelemetrySnapshot,
};
use serde_json::Value;

const MESSAGES: u64 = 2_000;

fn driven_dataplane(config: DataplaneConfig) -> Dataplane {
    let topology = smart_home(2, 2016);
    let config = DataplaneConfig { shards: 2, ..config };
    let dataplane = Dataplane::new(topology.name.clone(), config);
    topology
        .install_with_payload_schemas(&dataplane, &ContextSnapshot::default(), Timestamp(1))
        .expect("topology installs");
    let pairs = topology.publisher_messages();
    let mut published = 0u64;
    let mut clock = 2u64;
    'outer: loop {
        for (publisher, message) in &pairs {
            published +=
                dataplane.publish_message(publisher, message, Timestamp(clock)).unwrap() as u64;
            clock += 1;
            if published >= MESSAGES {
                break 'outer;
            }
        }
    }
    dataplane.drain();
    dataplane
}

/// "Defined once", checked from outside: every field `DataplaneStats` prints is in the
/// exposition as a counter or gauge of that name with that value, and the exposition
/// has no counter or gauge beyond those and the queue contention rows.
fn assert_exposition_is_the_stats(snapshot: &TelemetrySnapshot) {
    let debug = format!("{:?}", snapshot.stats);
    let fields = debug.trim_start_matches("DataplaneStats {").trim_end_matches('}');
    let fields: BTreeMap<&str, u64> = fields
        .split(',')
        .map(|field| {
            let (name, value) = field.split_once(':').expect("`name: value`");
            (name.trim(), value.trim().parse().expect("every stats field is an integer"))
        })
        .collect();
    assert_eq!(fields.get("published"), Some(&snapshot.stats.published), "parsed {debug}");

    let exposition = snapshot.exposition();
    let exposed: BTreeMap<&str, u64> = exposition
        .counters()
        .chain(exposition.gauges())
        .filter(|(name, _)| !name.contains("queue_"))
        .collect();
    assert_eq!(exposed, fields);
    assert_eq!(exposition.gauge("degraded_shards"), Some(snapshot.stats.degraded_shards));
}

#[test]
fn json_exposition_round_trips_through_an_independent_parser() {
    let dataplane = driven_dataplane(DataplaneConfig::default());
    let stats = dataplane.stats();
    let snapshot = dataplane.telemetry();
    assert_exposition_is_the_stats(&snapshot);
    let parsed: Value =
        serde_json::from_str(&snapshot.to_json()).expect("exposition is well-formed JSON");

    // Counters mirror DataplaneStats exactly.
    let counters = parsed["counters"].as_object().expect("counters object");
    assert_eq!(counters.get("published").and_then(Value::as_u64), Some(stats.published));
    assert_eq!(counters.get("delivered").and_then(Value::as_u64), Some(stats.delivered));
    assert!(counters.contains_key("queue_consumer_parks"));
    assert!(counters.contains_key("queue_producer_waits"));

    // Gauges carry the queue-depth high-water mark.
    assert!(parsed["gauges"]["queue_depth_hwm"].as_u64().is_some());

    // The merged per-stage histograms: every delivered message landed one
    // end-to-end `stage.delivery` sample, with ordered quantile estimates and
    // buckets that sum back to the count.
    let delivery = &parsed["histograms"]["stage.delivery"];
    assert_eq!(delivery["count"].as_u64(), Some(stats.delivered));
    let (p50, p99, p999) = (
        delivery["p50"].as_u64().expect("p50"),
        delivery["p99"].as_u64().expect("p99"),
        delivery["p999"].as_u64().expect("p999"),
    );
    assert!(0 < p50 && p50 <= p99 && p99 <= p999);
    assert!(delivery["min"].as_u64().unwrap() <= delivery["max"].as_u64().unwrap());
    let bucket_total: u64 = delivery["buckets"]
        .as_array()
        .expect("buckets array")
        .iter()
        .map(|b| b[2].as_u64().expect("bucket count"))
        .sum();
    assert_eq!(bucket_total, stats.delivered);

    // Per-shard histograms exist for each configured shard and fold into the merge.
    let shard_total: u64 = (0..dataplane.config().shards)
        .map(|i| {
            parsed["histograms"][format!("shard{i}.stage.delivery").as_str()]["count"]
                .as_u64()
                .expect("per-shard delivery count")
        })
        .sum();
    assert_eq!(shard_total, stats.delivered);

    // The text exposition names the same histogram with the same count.
    let text = snapshot.to_text();
    assert!(text.lines().any(|line| {
        line.starts_with("histogram stage.delivery ")
            && line.contains(&format!("count={}", stats.delivered))
    }));

    dataplane.shutdown();
}

/// A durable run: the `segment_*` counters are the merged segment stores' fields, and
/// the stores' fsync latency — recorded into the same histogram type as the stage
/// spans — is in the exposition as `segment.fsync`.
#[test]
fn segment_store_rows_mirror_segment_stats() {
    let dir = std::env::temp_dir().join(format!("legaliot-exposition-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Full audit and a small retention window, so prunes stream to disk and sync
    // mid-run instead of only at shutdown.
    let dataplane = driven_dataplane(DataplaneConfig {
        audit_detail: AuditDetail::Full,
        audit_batch: 16,
        audit_retention: Some(32),
        persistence: Some(PersistenceConfig::at(&dir)),
        ..DataplaneConfig::default()
    });
    let snapshot = dataplane.telemetry();
    assert_exposition_is_the_stats(&snapshot);
    let segments = dataplane.segment_stats().expect("persistence is on");
    let exposition = snapshot.exposition();
    for (name, value) in [
        ("segments_written", segments.segments_written),
        ("segment_records_persisted", segments.records_persisted),
        ("segment_bytes_fsynced", segments.bytes_fsynced),
        ("segment_records_dropped", segments.records_dropped),
    ] {
        assert_eq!(exposition.counter(name), Some(value), "{name}");
    }
    assert!(segments.records_persisted > 0 && segments.fsync.count() > 0);
    let fsync = exposition.histogram("segment.fsync").expect("the fsync histogram is exposed");
    assert_eq!(fsync.count(), segments.fsync.count());
    assert_eq!(fsync.max(), Some(segments.fsync.max_ns()));

    dataplane.shutdown();
    std::fs::remove_dir_all(&dir).expect("the run's segments are removed");
}
