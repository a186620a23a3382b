//! Probes: micro-timings of the layers' public functions on inputs taken from the
//! workload that just ran (its contexts, rules, schemas and audit records).
//!
//! Every probe makes at least [`CALLS`] calls per batch behind `black_box` and reports
//! the median of [`BATCHES`] batches in nanoseconds per call. They run in traced runs
//! only, after the timed phases, and claim nothing end to end: they say which layer a
//! later change moved.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use legaliot_audit::{AuditEvent, AuditLog, AuditRecord, BatchedAppender, SegmentStore};
use legaliot_context::{ContextStore, ContextValue, Timestamp};
use legaliot_dataplane::queue::BoundedQueue;
use legaliot_ifc::{can_flow, context_hash64, DecisionCache};
use legaliot_middleware::{
    admit_channel, admit_channel_cached, AccessRegime, AccessRule, AdmissionCache, Component,
    FrozenMessage, FrozenSchema, Message, MessageSchema, Middleware, Operation,
};

use crate::outcome::Outcome;
use crate::stats;

/// Calls per batch.
pub const CALLS: usize = 1000;
/// Batches per probe; the median batch is reported.
pub const BATCHES: usize = 5;

/// Inputs a workload hands the probes.
#[derive(Debug)]
pub struct ProbeInputs {
    /// `(source, destination)` components of the workload's edges.
    pub pairs: Vec<(Component, Component)>,
    /// The workload's access rules, by guarded component.
    pub rules: Vec<(String, AccessRule)>,
    /// Context keys the rules read, with their initial values.
    pub keys: Vec<(String, ContextValue)>,
    /// A message schema of the workload.
    pub schema: MessageSchema,
    /// A message conforming to `schema`.
    pub message: Message,
    /// Audit records the run produced (may be few under summarised audit).
    pub records: Vec<AuditRecord>,
    /// Scratch directory for the segment probes (created, then removed).
    pub scratch: PathBuf,
}

/// Median over [`BATCHES`] batches of the mean nanoseconds per call of `op`, called
/// [`CALLS`] times per batch with the call index.
fn per_call_ns(mut op: impl FnMut(usize)) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|batch| {
            let start = Instant::now();
            for call in 0..CALLS {
                op(batch * CALLS + call);
            }
            start.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    stats::median(&batches)
}

/// Like [`per_call_ns`], but `prepare` runs untimed before every timed `op`.
fn per_prepared_call_ns<T>(mut prepare: impl FnMut(usize) -> T, mut op: impl FnMut(T)) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|batch| {
            let mut busy = 0u128;
            for call in 0..CALLS {
                let input = prepare(batch * CALLS + call);
                let start = Instant::now();
                op(input);
                busy += start.elapsed().as_nanos();
            }
            busy as f64 / CALLS as f64
        })
        .collect();
    stats::median(&batches)
}

/// Runs every probe and records its metric.
pub fn run(inputs: &ProbeInputs, outcome: &mut Outcome) {
    assert!(!inputs.pairs.is_empty(), "a workload has at least one edge");
    let pair = |call: usize| &inputs.pairs[call % inputs.pairs.len()];
    let now = Timestamp(1);

    // ---- ifc ----
    outcome.set(
        "ifc.can_flow_ns",
        per_call_ns(|call| {
            let (source, destination) = pair(call);
            black_box(can_flow(black_box(source.context()), black_box(destination.context())));
        }),
    );
    outcome.set(
        "ifc.context_hash_ns",
        per_call_ns(|call| {
            black_box(context_hash64(black_box(pair(call).0.context())));
        }),
    );
    let hashes: Vec<(u64, u64)> = inputs
        .pairs
        .iter()
        .map(|(s, d)| (context_hash64(s.context()), context_hash64(d.context())))
        .collect();
    let distinct: std::collections::BTreeSet<(u64, u64)> = hashes.iter().copied().collect();
    outcome.set("ifc.distinct_context_pairs", distinct.len() as f64);
    let mut cache = DecisionCache::new();
    for ((source, destination), (sh, dh)) in inputs.pairs.iter().zip(&hashes) {
        cache.check(source.context(), *sh, destination.context(), *dh);
    }
    outcome.set(
        "ifc.cache_hit_ns",
        per_call_ns(|call| {
            let (source, destination) = pair(call);
            let (sh, dh) = hashes[call % hashes.len()];
            black_box(cache.check(source.context(), sh, destination.context(), dh));
        }),
    );
    let mut cold = DecisionCache::new();
    outcome.set(
        "ifc.cache_miss_ns",
        per_call_ns(|call| {
            // A never-seen key per call: the lattice walk plus the insert.
            let (source, destination) = pair(call);
            black_box(cold.check(source.context(), call as u64, destination.context(), u64::MAX));
        }),
    );

    // ---- policy, context, admission ----
    let store = Arc::new(ContextStore::new());
    for (key, value) in &inputs.keys {
        store.set(key.as_str(), value.clone(), now);
    }
    let probe_key = inputs.keys.first().map_or("benchmark.probe-key", |(key, _)| key.as_str());
    let probe_value =
        inputs.keys.first().map_or(ContextValue::Bool(false), |(_, value)| value.clone());
    store.set(probe_key, probe_value.clone(), now);
    let mut access = AccessRegime::new();
    for (component, rule) in &inputs.rules {
        access.add_rule(component.as_str(), rule.clone());
    }
    outcome.set("policy.rules", access.rule_count() as f64);
    let snapshot = store.snapshot();
    outcome.set(
        "policy.ac_decide_ns",
        per_call_ns(|call| {
            let (source, destination) = pair(call);
            black_box(access.decide(
                destination.name(),
                source.principal(),
                Operation::Send,
                None,
                &snapshot,
                now,
            ));
        }),
    );
    let mut admission = AdmissionCache::new();
    admission.attach(&store);
    admission.sync(&store, &access);
    outcome.set(
        "policy.ac_cache_hit_ns",
        per_call_ns(|call| {
            let (source, destination) = pair(call);
            black_box(admission.decide(
                &access,
                destination.name(),
                source.principal(),
                Operation::Send,
                None,
                &snapshot,
                now,
            ));
        }),
    );
    outcome.set(
        "policy.ac_cache_sync_ns",
        per_prepared_call_ns(
            |_| store.set(probe_key, probe_value.clone(), now),
            |_| {
                black_box(admission.sync(&store, &access));
            },
        ),
    );
    outcome.set(
        "admission.admit_channel_ns",
        per_call_ns(|call| {
            let (source, destination) = pair(call);
            black_box(admit_channel(source, destination, &access, &snapshot, now));
        }),
    );
    let snapshot = store.snapshot();
    admission.sync(&store, &access);
    outcome.set(
        "admission.admit_channel_cached_ns",
        per_call_ns(|call| {
            let (source, destination) = pair(call);
            black_box(admit_channel_cached(
                source,
                destination,
                &access,
                &snapshot,
                now,
                &mut admission,
            ));
        }),
    );
    admission.detach(&store);
    outcome.set(
        "context.set_ns",
        per_call_ns(|_| {
            black_box(store.set(probe_key, probe_value.clone(), now));
        }),
    );
    outcome.set("context.snapshot_ns", per_call_ns(|_| drop(black_box(store.snapshot()))));
    let version = store.version();
    outcome.set(
        "context.snapshot_if_newer_unchanged_ns",
        per_call_ns(|_| {
            black_box(store.snapshot_if_newer(black_box(version)));
        }),
    );

    // ---- schema ----
    let frozen_schema =
        Arc::new(FrozenSchema::new(&inputs.schema).expect("workload schema freezes"));
    let destination_secrecy = inputs.pairs[0].1.context().secrecy().clone();
    outcome.set(
        "schema.validate_ns",
        per_call_ns(|_| {
            black_box(frozen_schema.validate(black_box(&inputs.message))).expect("conforms");
        }),
    );
    outcome.set(
        "schema.freeze_ns",
        per_call_ns(|_| {
            black_box(FrozenMessage::freeze(&inputs.message, Arc::clone(&frozen_schema)))
                .expect("conforms");
        }),
    );
    outcome.set(
        "schema.quench_mask_ns",
        per_call_ns(|_| {
            black_box(frozen_schema.quench_mask_for(black_box(&destination_secrecy)));
        }),
    );
    let frozen =
        FrozenMessage::freeze(&inputs.message, Arc::clone(&frozen_schema)).expect("conforms");
    let mask = frozen_schema.quench_mask_for(&destination_secrecy);
    outcome
        .set("schema.quench_ns", per_call_ns(|_| drop(black_box(frozen.quench(black_box(mask))))));
    outcome.set("schema.thaw_ns", per_call_ns(|_| drop(black_box(frozen.thaw()))));

    // ---- bus: the first edge on a fresh synchronous middleware ----
    let (source, destination) = &inputs.pairs[0];
    let mut bus = Middleware::new("probe-bus");
    bus.registry_mut().register(source.clone());
    bus.registry_mut().register(destination.clone());
    bus.registry_mut().register_schema(inputs.schema.clone());
    for (component, rule) in &inputs.rules {
        bus.access_mut().add_rule(component.as_str(), rule.clone());
    }
    outcome.set(
        "bus.establish_channel_ns",
        per_call_ns(|_| {
            black_box(bus.establish_channel(source.name(), destination.name(), &snapshot, now))
                .expect("registered");
        }),
    );
    let open = bus.has_open_channel(source.name(), destination.name());
    let records_before = bus.audit().len();
    outcome.set(
        "bus.send_ns",
        per_prepared_call_ns(
            |_| inputs.message.clone(),
            |message| {
                black_box(bus.send(source.name(), destination.name(), message, &snapshot, now))
                    .expect("registered");
            },
        ),
    );
    outcome.set(
        "bus.audit_records_per_send",
        (bus.audit().len() - records_before) as f64 / (CALLS * BATCHES) as f64,
    );
    // Only an admitted edge delivered anything to take back out.
    outcome.set(
        "bus.try_recv_ns",
        if open { per_call_ns(|_| drop(black_box(bus.try_recv(destination.name())))) } else { 0.0 },
    );

    // ---- audit ----
    let flow_event = || AuditEvent::FlowChecked {
        source: source.name().to_string(),
        destination: destination.name().to_string(),
        source_context: source.context().clone(),
        destination_context: destination.context().clone(),
        decision: can_flow(source.context(), destination.context()),
        data_item: Some("reading@1".to_string()),
    };
    outcome.set("audit.event_build_ns", per_call_ns(|_| drop(black_box(flow_event()))));
    let event_of = |call: usize| match inputs.records.get(call % inputs.records.len().max(1)) {
        Some(record) => record.event.clone(),
        None => flow_event(),
    };
    let mut log = AuditLog::new("probe");
    outcome.set(
        "audit.record_ns",
        per_prepared_call_ns(&event_of, |event| {
            black_box(log.record(event, 1));
        }),
    );
    // Capacity beyond the batch: appends only stage, the flush is timed on its own.
    let mut appender = BatchedAppender::new("probe-batch", CALLS + 1);
    let (mut appends, mut flushes) = (Vec::with_capacity(BATCHES), Vec::with_capacity(BATCHES));
    for batch in 0..BATCHES {
        let events: Vec<AuditEvent> =
            (0..CALLS).map(|call| event_of(batch * CALLS + call)).collect();
        let start = Instant::now();
        for event in events {
            appender.append(event, 1);
        }
        appends.push(start.elapsed().as_nanos() as f64 / CALLS as f64);
        let start = Instant::now();
        appender.flush();
        flushes.push(start.elapsed().as_nanos() as f64 / CALLS as f64);
    }
    outcome.set("audit.batch_append_ns", stats::median(&appends));
    outcome.set("audit.batch_flush_ns_per_record", stats::median(&flushes));

    // Segment probes: the run's records (or synthetic flow checks) through a real file.
    let _ = std::fs::remove_dir_all(&inputs.scratch);
    let records = log.records();
    if let Ok(mut store) = SegmentStore::create(&inputs.scratch, log.anchor_hash(), 65_536) {
        let mut syncs = Vec::new();
        outcome.set(
            "audit.segment_append_ns",
            per_call_ns(|call| {
                black_box(store.append(&records[call]));
            }),
        );
        for _ in 0..21 {
            for record in &records[..256] {
                store.append(record);
            }
            let start = Instant::now();
            store.sync();
            syncs.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
        outcome.set("audit.segment_sync_p50_us", stats::median(&syncs));
        store.seal();
    }
    let _ = std::fs::remove_dir_all(&inputs.scratch);

    // ---- queue ----
    let queue = BoundedQueue::new(CALLS);
    let mut popped = Vec::with_capacity(CALLS);
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for item in 0..CALLS {
                queue.push(black_box(item));
            }
            queue.pop_batch(&mut popped, CALLS);
            black_box(popped.len());
            popped.clear();
            start.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    outcome.set("queue.push_pop_ns", stats::median(&batches));
}
