//! `fleet_churn`: a thousand generated deployments driven round by round over the
//! dataplane's public API by the benchmark's own driver, every control-plane call timed
//! individually, every delivery kept frozen and compared with the model oracle
//! afterwards.
//!
//! Closed loop with the round barrier the oracle needs: a round applies its control
//! events to a settled engine, publishes, waits for the shards, then sweeps every
//! mailbox. One thread generates and consumes. The same script is played several times
//! on fresh engines. Round `r` does the same work in every pass, so the end-to-end
//! figures are built round by round: the fast-side decile over the passes of each
//! round's wall time (with fewer than ten passes, the best one), summed over the rounds.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use legaliot_audit::AuditRecord;
use legaliot_context::{ContextStore, Timestamp};
use legaliot_dataplane::{
    AuditDetail, Dataplane, DataplaneConfig, DataplaneReport, DataplaneStats, OverflowPolicy,
    ReceivedMessage, Subscriber, TelemetrySnapshot, TopologyBuilder,
};
use legaliot_fleet::{
    generate, predict, ControlEvent, Fleet, FleetConfig, PredictedOutcome, Prediction,
};
use legaliot_ifc::SecurityContext;
use legaliot_middleware::Message;
use legaliot_obs::ObsConfig;

use crate::outcome::{timed, Outcome, RunOptions};
use crate::pace::now_ns;
use crate::probes::ProbeInputs;
use crate::spans::SpanBuffer;
use crate::stats;
use crate::workloads::{
    record_engine_counters, record_latency_tail, record_stage_metrics, shard_work_ns,
};

/// The control-plane calls of a script: `(engine.<kind>_us metric, span name)`, indexed by
/// [`kind_of`].
const KINDS: [(&str, &str); 6] = [
    ("engine.set_key_us", "control.set_key"),
    ("engine.set_context_us", "control.set_context"),
    ("engine.set_isolated_us", "control.set_isolated"),
    ("engine.add_rule_us", "control.add_rule"),
    ("engine.join_us", "control.join"),
    ("engine.leave_us", "control.leave"),
];

fn kind_of(event: &ControlEvent) -> usize {
    match event {
        ControlEvent::SetKey { .. } => 0,
        ControlEvent::SetContext { .. } => 1,
        ControlEvent::SetIsolated { .. } => 2,
        ControlEvent::AddRule(_) => 3,
        ControlEvent::Join { .. } => 4,
        ControlEvent::Leave { .. } => 5,
    }
}

/// Fleet size and repetitions of one run.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Generated deployments.
    pub deployments: usize,
    /// Script rounds (round 0 has no churn).
    pub rounds: usize,
    /// Untimed passes before the timed ones (caches of the process, allocator, page
    /// cache; every pass is still checked against the oracle).
    pub warmup_passes: usize,
    /// Timed passes; each is one complete play of the script on a fresh engine.
    pub passes: usize,
}

impl Sizing {
    /// The sizing for a run of `seconds`: a pass takes ≈2 s at today's ≈50 k msgs/s.
    pub fn of(seconds: f64, smoke: bool) -> Self {
        if smoke {
            Sizing { deployments: 10, rounds: 40, warmup_passes: 0, passes: 2 }
        } else {
            let passes = ((seconds / 2.0).round() as usize).max(3);
            Sizing { deployments: 1000, rounds: 40, warmup_passes: 1, passes }
        }
    }
}

/// The dataplane configuration of the workload.
pub fn config(traced: bool) -> DataplaneConfig {
    DataplaneConfig {
        shards: super::home::SHARDS,
        audit_detail: AuditDetail::Summarised,
        audit_retention: Some(65_536),
        mailbox_capacity: 4096,
        overflow: OverflowPolicy::Block,
        telemetry: if traced { ObsConfig::enabled() } else { ObsConfig::disabled() },
        ..DataplaneConfig::default()
    }
}

/// What is built once per run from the fleet, outside every timed region: the messages
/// each round publishes and the endpoints that ever receive.
struct Script {
    /// Per round, `(publisher, message, at_millis)` in script order.
    publishes: Vec<Vec<(String, Message, u64)>>,
    /// Every edge destination of the run, sorted: each keeps a mailbox open throughout.
    consumers: Vec<String>,
    control_events: usize,
}

impl Script {
    fn prepare(fleet: &Fleet) -> Self {
        let schemas: BTreeMap<&str, _> = fleet
            .deployments
            .iter()
            .flat_map(|deployment| deployment.schemas.iter())
            .map(|schema| (schema.message_type.as_str(), schema))
            .collect();
        let publishes = fleet
            .rounds
            .iter()
            .map(|round| {
                round
                    .publishes
                    .iter()
                    .map(|publish| {
                        let schema = schemas[publish.message_type.as_str()];
                        (publish.publisher.clone(), publish.message(schema), publish.at_millis)
                    })
                    .collect()
            })
            .collect();
        let mut consumers: BTreeSet<&str> = fleet
            .deployments
            .iter()
            .flat_map(|deployment| deployment.edges.iter().map(|(_, to)| to.as_str()))
            .collect();
        for round in &fleet.rounds {
            for (_, event) in &round.events {
                if let ControlEvent::Join { edges, .. } = event {
                    consumers.extend(edges.iter().map(|(_, to)| to.as_str()));
                }
            }
        }
        Script {
            publishes,
            consumers: consumers.into_iter().map(str::to_string).collect(),
            control_events: fleet.rounds.iter().map(|round| round.events.len()).sum(),
        }
    }
}

/// Everything one pass observed.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    admissions: Vec<(String, String, bool)>,
    /// `(consumer index, body, clock read after the drain that returned it)`.
    received: Vec<(u32, ReceivedMessage, u64)>,
    /// `received.len()` at the end of each round.
    received_by_round: Vec<usize>,
    /// Wall time of each round: its control calls, publishes, barrier and sweep.
    round_s: Vec<f64>,
    /// Start of each `publish_message` call, in script order.
    publish_start_ns: Vec<u64>,
    publish_errors: u64,
    publish_busy_ns: u64,
    sweep_busy_ns: u64,
    drain_ms: Vec<f64>,
    control_us: [Vec<f64>; 6],
    shutdown_s: f64,
    /// Dropped once checked, except for the last pass (whose counters, stage histograms
    /// and audit records the layer metrics and probes read).
    evidence: Option<Evidence>,
}

/// What the engine itself reported about a pass.
struct Evidence {
    stats: DataplaneStats,
    telemetry: TelemetrySnapshot,
    report: DataplaneReport,
}

/// A fleet installed on a fresh engine.
struct Installed {
    dataplane: Dataplane,
    store: Arc<ContextStore>,
    subscribers: Vec<Subscriber>,
    /// Per subscribe attempt, in script order: `(publisher, subscriber, admitted)`.
    admissions: Vec<(String, String, bool)>,
}

/// Installs the fleet on a fresh engine — the same steps as `legaliot_fleet`'s harness.
fn install(fleet: &Fleet, script: &Script, traced: bool) -> Installed {
    let dataplane = Dataplane::new("fleet", config(traced));
    let store = Arc::clone(dataplane.context_store());
    for deployment in &fleet.deployments {
        for (key, value) in &deployment.initial_keys {
            store.set(key.as_str(), value.to_context_value(), Timestamp(1));
        }
    }
    let mut builder = TopologyBuilder::new("generated-fleet");
    for deployment in &fleet.deployments {
        for thing in &deployment.things {
            builder = builder.thing(&thing.to_thing());
        }
        for (from, to) in &deployment.edges {
            builder = builder.edge(from.as_str(), to.as_str());
        }
    }
    let topology = builder.build();
    topology.register(&dataplane).expect("generated names are unique");
    for deployment in &fleet.deployments {
        for schema in &deployment.schemas {
            dataplane.register_schema(schema.to_schema()).expect("generated schemas freeze");
        }
    }
    dataplane.with_access(|access| {
        for deployment in &fleet.deployments {
            for rule in &deployment.rules {
                access.add_rule(rule.component.as_str(), rule.to_access_rule());
            }
        }
    });
    let subscribers = script
        .consumers
        .iter()
        .map(|consumer| dataplane.open_subscriber(consumer).expect("consumers are registered"))
        .collect();
    let snapshot = store.snapshot();
    let admissions = topology
        .edges
        .iter()
        .map(|(from, to)| {
            let outcome = dataplane
                .subscribe(from, to, &snapshot, Timestamp(2))
                .expect("registered endpoints");
            (from.clone(), to.clone(), outcome.is_delivered())
        })
        .collect();
    Installed { dataplane, store, subscribers, admissions }
}

/// Applies one control event through the public API, as the fleet harness does.
fn apply(
    dataplane: &Dataplane,
    store: &ContextStore,
    admissions: &mut Vec<(String, String, bool)>,
    at: u64,
    event: &ControlEvent,
) {
    match event {
        ControlEvent::SetKey { key, value } => {
            store.set(key.as_str(), value.to_context_value(), Timestamp(at));
        }
        ControlEvent::SetContext { endpoint, secrecy, integrity } => {
            let context = SecurityContext::from_names(
                secrecy.iter().map(String::as_str),
                integrity.iter().map(String::as_str),
            );
            dataplane
                .set_context(endpoint, context, Timestamp(at))
                .expect("scripted endpoint exists");
        }
        ControlEvent::SetIsolated { endpoint, isolated } => {
            dataplane
                .set_isolated(endpoint, *isolated, Timestamp(at))
                .expect("scripted endpoint exists");
        }
        ControlEvent::AddRule(rule) => {
            dataplane.with_access(|access| {
                access.add_rule(rule.component.as_str(), rule.to_access_rule())
            });
        }
        ControlEvent::Join { thing, edges } => {
            dataplane.register(thing.to_thing().to_component()).expect("joiners are new");
            let snapshot = store.snapshot();
            for (from, to) in edges {
                let outcome = dataplane
                    .subscribe(from, to, &snapshot, Timestamp(at))
                    .expect("registered endpoints");
                admissions.push((from.clone(), to.clone(), outcome.is_delivered()));
            }
        }
        ControlEvent::Leave { endpoint } => {
            dataplane.deregister(endpoint).expect("leavers are registered");
        }
    }
}

/// Plays the whole script once on a fresh engine.
fn play(
    fleet: &Fleet,
    script: &Script,
    traced: bool,
    epoch: Instant,
    spans: &mut SpanBuffer,
) -> Pass {
    let (Installed { dataplane, store, subscribers, mut admissions }, setup_s) =
        timed(|| install(fleet, script, traced));
    let publishes: usize = script.publishes.iter().map(Vec::len).sum();
    let mut received = Vec::with_capacity(publishes * 2);
    let mut publish_start_ns = Vec::with_capacity(publishes);
    let mut control_us: [Vec<f64>; 6] = Default::default();
    let mut drain_ms = Vec::with_capacity(fleet.rounds.len());
    let mut received_by_round = Vec::with_capacity(fleet.rounds.len());
    let mut round_s = Vec::with_capacity(fleet.rounds.len());
    let (mut publish_errors, mut publish_busy_ns, mut sweep_busy_ns) = (0u64, 0u64, 0u64);
    let mut event_index = 0u64;

    let start_ns = now_ns(epoch);
    let mut round_start_ns = start_ns;
    for (round, round_publishes) in fleet.rounds.iter().zip(&script.publishes) {
        for (at, event) in &round.events {
            let before_ns = now_ns(epoch);
            apply(&dataplane, &store, &mut admissions, *at, event);
            let after_ns = now_ns(epoch);
            let kind = kind_of(event);
            control_us[kind].push((after_ns - before_ns) as f64 / 1e3);
            spans.record(KINDS[kind].1, "", event_index, before_ns, after_ns);
            event_index += 1;
        }
        for (publisher, message, at_millis) in round_publishes {
            let before_ns = now_ns(epoch);
            publish_start_ns.push(before_ns);
            if dataplane.publish_message(publisher, message, Timestamp(*at_millis)).is_err() {
                publish_errors += 1;
            }
            if traced {
                let after_ns = now_ns(epoch);
                publish_busy_ns += after_ns - before_ns;
                if spans.samples(*at_millis) {
                    spans.record("publish", "deliver", *at_millis, before_ns, after_ns);
                }
            }
        }
        let before_ns = now_ns(epoch);
        dataplane.drain();
        let drained_ns = now_ns(epoch);
        drain_ms.push((drained_ns - before_ns) as f64 / 1e6);
        for (index, subscriber) in subscribers.iter().enumerate() {
            let batch = subscriber.drain();
            if batch.is_empty() {
                continue;
            }
            let at_ns = now_ns(epoch);
            received.extend(batch.into_iter().map(|message| (index as u32, message, at_ns)));
        }
        let round_end_ns = now_ns(epoch);
        sweep_busy_ns += round_end_ns - drained_ns;
        received_by_round.push(received.len());
        round_s.push((round_end_ns - round_start_ns) as f64 / 1e9);
        round_start_ns = round_end_ns;
    }
    let wall_s = (round_start_ns - start_ns) as f64 / 1e9;

    let stats = dataplane.stats();
    let telemetry = dataplane.telemetry();
    drop(subscribers);
    let shutdown_start = now_ns(epoch);
    let (report, shutdown_s) = timed(|| dataplane.shutdown());
    spans.record("shutdown", "", 0, shutdown_start, now_ns(epoch));
    Pass {
        setup_s,
        wall_s,
        admissions,
        received,
        received_by_round,
        round_s,
        publish_start_ns,
        publish_errors,
        publish_busy_ns,
        sweep_busy_ns,
        drain_ms,
        control_us,
        shutdown_s,
        evidence: Some(Evidence { stats, telemetry, report }),
    }
}

/// Compares one pass record for record with the oracle, and returns the latency
/// (publish call start → received) of every delivery in nanoseconds.
fn verify(
    pass: &mut Pass,
    script: &Script,
    prediction: &Prediction,
    inject_corruption: bool,
    epoch: Instant,
    spans: &mut SpanBuffer,
    outcome: &mut Outcome,
) -> Vec<u32> {
    let starts: HashMap<u64, u64> = script
        .publishes
        .iter()
        .flatten()
        .map(|(_, _, at_millis)| *at_millis)
        .zip(pass.publish_start_ns.iter().copied())
        .collect();
    let mut seen: BTreeSet<(String, String, u64)> = BTreeSet::new();
    let mut latency_ns = Vec::with_capacity(pass.received.len());
    let (mut wrong, mut duplicated) = (0u64, 0u64);
    for (position, (consumer, received, at_ns)) in pass.received.drain(..).enumerate() {
        let mut message = received.thaw();
        if inject_corruption && position == 0 {
            message.attributes.clear();
        }
        let start_ns = starts.get(&message.sent_at_millis).copied().unwrap_or(at_ns);
        latency_ns.push((at_ns - start_ns).min(u64::from(u32::MAX)) as u32);
        if spans.samples(message.sent_at_millis) {
            spans.record("deliver", "", message.sent_at_millis, start_ns, at_ns);
        }
        let key = (
            message.sender.clone(),
            script.consumers[consumer as usize].clone(),
            message.sent_at_millis,
        );
        match prediction.outcomes.get(&key) {
            Some(PredictedOutcome::Delivered(expected)) if **expected == message => {}
            _ => wrong += 1,
        }
        if !seen.insert(key) {
            duplicated += 1;
        }
    }
    let missing = prediction.delivered.saturating_sub(seen.len() as u64);
    outcome.attempted += prediction.published;
    outcome
        .fail(pass.publish_errors, format!("{} publish_message calls failed", pass.publish_errors));
    outcome.fail(wrong, format!("{wrong} received bodies differ from the oracle's"));
    outcome.fail(duplicated, format!("{duplicated} deliveries received twice"));
    outcome.fail(missing, format!("{missing} predicted deliveries never received"));
    let report = &pass.evidence.as_ref().expect("a fresh pass carries its evidence").report;
    let stats = &report.stats;
    outcome.fail(
        stats.deliveries_lost + stats.receiver_dropped + stats.missing_endpoint,
        format!(
            "lost {} dropped {} missing endpoint {}",
            stats.deliveries_lost, stats.receiver_dropped, stats.missing_endpoint
        ),
    );
    outcome.check(
        (stats.published, stats.delivered, stats.denied)
            == (prediction.published, prediction.delivered, prediction.denied),
        || format!("counters differ from the oracle's: {stats:?}"),
    );
    let admitted: Vec<(&str, &str, bool)> = prediction
        .admissions
        .iter()
        .map(|(from, to, o)| (from.as_str(), to.as_str(), o.admitted()))
        .collect();
    outcome.check(
        pass.admissions.iter().map(|(from, to, ok)| (from.as_str(), to.as_str(), *ok)).eq(admitted),
        || "admission outcomes differ from the oracle's".into(),
    );
    let verify_start = now_ns(epoch);
    let intact = report.shard_audit.iter().all(|log| log.verify_chain().is_intact())
        && report.control_audit.verify_chain().is_intact();
    spans.record("verify", "", 0, verify_start, now_ns(epoch));
    outcome.check(intact, || "an audit chain does not verify".into());
    outcome.check(report.worker_panics.is_empty(), || {
        format!("workers panicked: {:?}", report.worker_panics)
    });
    latency_ns
}

/// Runs `fleet_churn`.
pub fn run(opts: &RunOptions) -> Outcome {
    let mut outcome = Outcome::default();
    let sizing = Sizing::of(opts.seconds, opts.smoke);
    let epoch = Instant::now();
    let (fleet, generate_s) = timed(|| {
        generate(FleetConfig {
            seed: opts.seed,
            deployments: sizing.deployments,
            rounds: sizing.rounds,
        })
    });
    let (prediction, predict_s) = timed(|| predict(&fleet));
    let script = Script::prepare(&fleet);
    let plays = sizing.warmup_passes + sizing.passes;
    let mut spans =
        SpanBuffer::with_capacity(opts.span_capacity(
            prediction.published * plays as u64,
            (script.control_events + 4) * plays,
        ));

    let mut passes = Vec::with_capacity(sizing.passes);
    for index in 0..plays {
        let mut pass = play(&fleet, &script, opts.traced, epoch, &mut spans);
        let inject = opts.inject_corruption && index == 0;
        let latency_ns =
            verify(&mut pass, &script, &prediction, inject, epoch, &mut spans, &mut outcome);
        if index + 1 < plays {
            pass.evidence = None;
        }
        if index >= sizing.warmup_passes {
            passes.push((pass, latency_ns));
        }
    }

    // ---- end-to-end numbers: round by round, the fast-side decile of the passes ----
    // Per pass and round that delivered anything: the median and 90th percentile latency.
    let (mut p50s, mut p90s, mut all) = (Vec::new(), Vec::new(), Vec::new());
    for (pass, latency_ns) in &mut passes {
        all.extend_from_slice(latency_ns);
        let (mut round_p50s, mut round_p90s, mut from) = (Vec::new(), Vec::new(), 0);
        for upto in pass.received_by_round.iter().copied() {
            if upto > from {
                let (p50, p90) = stats::window_p50_p90_us(&mut latency_ns[from..upto]);
                round_p50s.push(p50);
                round_p90s.push(p90);
            }
            from = upto;
        }
        p50s.push(round_p50s);
        p90s.push(round_p90s);
    }
    let of =
        |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(|(pass, _)| f(pass)).collect() };
    let deliveries = prediction.published as f64;
    let round_s: Vec<Vec<f64>> = passes.iter().map(|(pass, _)| pass.round_s.clone()).collect();
    let undisturbed_wall_s: f64 = stats::fast_decile_by_part(&round_s, false).iter().sum();
    outcome.set("throughput_msgs_per_s", deliveries / undisturbed_wall_s.max(f64::MIN_POSITIVE));
    outcome.series.insert("throughput_msgs_per_s".into(), of(&|pass| deliveries / pass.wall_s));
    // The typical round's latency: the median over the rounds of each round's figure.
    for (name, by_pass) in [("harness.latency_p50_us", &p50s), ("harness.latency_p90_us", &p90s)] {
        outcome.set(name, stats::median(&stats::fast_decile_by_part(by_pass, false)));
        outcome
            .series
            .insert(name.into(), by_pass.iter().map(|rounds| stats::median(rounds)).collect());
    }
    outcome.set_undisturbed("setup_s", &of(&|pass| pass.setup_s), false);
    record_latency_tail(&mut outcome, &mut all);
    let control: Vec<f64> =
        of(&|pass| stats::median(&pass.control_us.iter().flatten().copied().collect::<Vec<f64>>()));
    outcome.set_undisturbed("engine.control_op_p50_us", &control, false);
    let wall_total: f64 = passes.iter().map(|(pass, _)| pass.wall_s).sum();
    outcome
        .set("harness.throughput_mean_msgs_per_s", deliveries * passes.len() as f64 / wall_total);
    outcome.samples.insert("passes".into(), passes.len() as u64);
    outcome.samples.insert("deliveries_per_pass".into(), prediction.published);
    outcome.samples.insert("delivered_per_pass".into(), prediction.delivered);
    outcome.samples.insert("control_ops_per_pass".into(), script.control_events as u64);
    outcome.samples.insert("endpoints".into(), fleet.endpoint_count() as u64);

    // ---- layer numbers measured around the calls ----
    outcome.set("fleet.generate_ms", generate_s * 1e3);
    outcome.set("fleet.predict_ms", predict_s * 1e3);
    for (kind, (metric, _)) in KINDS.iter().enumerate() {
        let pooled: Vec<f64> =
            passes.iter().flat_map(|(pass, _)| pass.control_us[kind].iter().copied()).collect();
        outcome.set(metric, stats::median(&pooled));
    }
    outcome.set("engine.drain_ms", stats::median(&of(&|pass| stats::median(&pass.drain_ms))));
    outcome.set("engine.shutdown_ms", stats::median(&of(&|pass| pass.shutdown_s * 1e3)));
    outcome.set("ledger.wall", stats::median(&of(&|pass| pass.wall_s * 1e9 / deliveries)));
    outcome.set("ledger.recv", stats::median(&of(&|pass| pass.sweep_busy_ns as f64 / deliveries)));
    outcome.set("subscriber.drain_ns_per_msg", outcome.metrics["ledger.recv"]);
    let last = passes
        .last()
        .and_then(|(pass, _)| pass.evidence.as_ref())
        .expect("the last pass keeps its evidence");
    record_engine_counters(&mut outcome, &last.stats);
    let retained: usize = last.report.shard_audit.iter().map(|log| log.len()).sum();
    outcome.set("audit.records_per_msg", retained as f64 / deliveries);
    let (_, verify_s) =
        timed(|| last.report.shard_audit.iter().all(|log| log.verify_chain().is_intact()));
    outcome.set("audit.verify_ns_per_record", verify_s * 1e9 / retained.max(1) as f64);
    if opts.traced {
        let publishes: f64 = script.publishes.iter().map(|round| round.len() as f64).sum();
        outcome.set(
            "engine.publish_ns",
            stats::median(&of(&|pass| pass.publish_busy_ns as f64 / publishes)),
        );
        outcome.set(
            "ledger.publish",
            stats::median(&of(&|pass| pass.publish_busy_ns as f64 / deliveries)),
        );
        outcome.set("ledger.shard", shard_work_ns(&last.telemetry) as f64 / deliveries);
        record_stage_metrics(&mut outcome, &last.telemetry);
        crate::probes::run(&probe_inputs(&fleet, last, opts), &mut outcome);
    }
    outcome.spans = spans;
    outcome
}

/// Probe inputs from the fleet itself: its first deployments' edges, rules, keys and
/// schema, and the audit records of the last pass.
fn probe_inputs(fleet: &Fleet, last: &Evidence, opts: &RunOptions) -> ProbeInputs {
    let sample = &fleet.deployments[..fleet.deployments.len().min(50)];
    let component = |name: &str| {
        sample
            .iter()
            .flat_map(|deployment| deployment.things.iter())
            .find(|thing| thing.name == name)
            .map(|thing| thing.to_thing().to_component())
    };
    let pairs = sample
        .iter()
        .flat_map(|deployment| deployment.edges.iter())
        .filter_map(|(from, to)| Some((component(from)?, component(to)?)))
        .collect();
    let first = fleet
        .rounds
        .iter()
        .flat_map(|round| round.publishes.iter())
        .next()
        .expect("a fleet publishes");
    let schema = fleet
        .deployments
        .iter()
        .flat_map(|deployment| deployment.schemas.iter())
        .find(|schema| schema.message_type == first.message_type)
        .expect("published types have schemas");
    let records: Vec<AuditRecord> = last
        .report
        .shard_audit
        .iter()
        .flat_map(|log| log.records().iter().cloned())
        .take(4096)
        .collect();
    ProbeInputs {
        pairs,
        rules: sample
            .iter()
            .flat_map(|deployment| deployment.rules.iter())
            .map(|rule| (rule.component.clone(), rule.to_access_rule()))
            .collect(),
        keys: sample
            .iter()
            .flat_map(|deployment| deployment.initial_keys.iter())
            .map(|(key, value)| (key.clone(), value.to_context_value()))
            .collect(),
        schema: schema.to_schema(),
        message: first.message(schema),
        records,
        scratch: opts.out_dir.join(format!("probe-{}", std::process::id())),
    }
}
