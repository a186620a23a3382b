//! Seeded churn soak: drives registration churn, context flips, policy/regime
//! updates, subscriber drops and break-glass overrides *concurrently* with
//! deterministic fault injection (shard panics, delays, injected queue-full),
//! under a hard watchdog deadline, and asserts the robustness contract:
//!
//! 1. the run completes (no hang, no deadlock — the watchdog aborts otherwise);
//! 2. every per-shard audit chain verifies across restarts (the re-anchor on
//!    the last hash is exercised by real mid-batch panics);
//! 3. the accounting identity is exact: every accepted publish is delivered,
//!    denied, counted against a missing endpoint, or *evidenced* lost — never
//!    silently dropped;
//! 4. the evidence matches the counters (`legaliot_fleet::reconcile`): one
//!    `ShardRestarted` record per restart, the non-hand-off `DeliveryLost`
//!    records total exactly `deliveries_lost`, and the pair summaries and
//!    `DeliveryDropped` records total every verdict and shed.
//!
//! The run is reproducible from its seed (`LEGALIOT_SOAK_SEED`, default 1);
//! the shard count (`LEGALIOT_SOAK_SHARDS`, default 2), publish volume
//! (`LEGALIOT_SOAK_PUBLISHES`, default 4000) and generated-fleet background
//! population (`LEGALIOT_SOAK_FLEETS`, default 0 — deployments installed from
//! the seeded `legaliot-fleet` generator, with their scripted publishes
//! replayed as extra load) are environment-tunable so CI can run a fixed-seed
//! matrix. Cross-thread interleaving still varies run to run; what the seed
//! pins is the churn decision sequence and the failpoint schedule, which is
//! what the assertions depend on.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use legaliot::audit::AuditEvent;
use legaliot::context::{ContextSnapshot, ContextStore, Timestamp};
use legaliot::dataplane::AuditDetail;
use legaliot::dataplane::{
    Dataplane, DataplaneConfig, FailpointRegistry, FailpointSite, FailpointSpec, FaultKind,
    OverflowPolicy, Subscriber, TopologyBuilder,
};
use legaliot::fleet::{generate, reconcile, FleetConfig};
use legaliot::ifc::{Label, SecurityContext};
use legaliot::middleware::{
    AccessRule, AttributeKind, AttributeValue, Component, Message, MessageSchema, Operation,
    Principal, Subject,
};
use legaliot::policy::{BreakGlass, Condition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Aborts the whole process if `done` is not set within `limit` — a soak that
/// hangs must fail loudly, not eat the CI job's timeout.
fn watchdog(label: &'static str, limit: Duration, done: Arc<AtomicBool>) {
    std::thread::spawn(move || {
        let start = std::time::Instant::now();
        while start.elapsed() < limit {
            if done.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        eprintln!("watchdog: `{label}` still running after {limit:?} — aborting");
        std::process::exit(1);
    });
}

fn endpoint(name: &str, secrecy: &[&str]) -> Component {
    Component::builder(name, Principal::new("owner"))
        .context(SecurityContext::from_names(secrecy.iter().copied(), Vec::<&str>::new()))
        .build()
}

fn reading_schema() -> MessageSchema {
    MessageSchema::new("reading").attribute("value", AttributeKind::Float).sensitive_attribute(
        "subject",
        AttributeKind::Text,
        Label::from_names(["secret-id"]),
    )
}

fn reading_message() -> Message {
    Message::new("reading", SecurityContext::public())
        .with("value", AttributeValue::Float(72.0))
        .with("subject", AttributeValue::Text("ann".into()))
}

/// The conditional send rule every sink carries: admit while the load is
/// nominal, or whenever the break-glass override holds the emergency open.
fn sink_rule() -> AccessRule {
    AccessRule::allow(Subject::Anyone, Operation::Send, None)
        .when(Condition::number_below("load", 120.0).or(Condition::is_true("emergency.active")))
}

const PUBLISHERS: [&str; 3] = ["pub-0", "pub-1", "pub-2"];
const SINKS: [&str; 4] = ["sink-0", "sink-1", "sink-2", "sink-3"];
/// Most ephemeral subscribers alive at once. A control call never waits on the
/// shards, so the churn thread runs at control-plane speed; the cap keeps the
/// fan-out — and with it the soak's volume and memory — independent of how the
/// threads happen to be scheduled.
const MAX_EPHEMERAL: usize = 16;

/// Installs `fleets` generated deployments as background population — things,
/// schemas, policies and admitted edges all through the shared builder path —
/// and replays their scripted publishes as extra load. Returns how many
/// publish calls were made (accepted or not; the identity is over what the
/// dataplane itself counted).
fn install_generated_fleet(
    dataplane: &Dataplane,
    store: &ContextStore,
    seed: u64,
    fleets: usize,
) -> u64 {
    let fleet = generate(FleetConfig { seed, deployments: fleets, rounds: 1 });
    for deployment in &fleet.deployments {
        for (key, value) in &deployment.initial_keys {
            store.set(key.as_str(), value.to_context_value(), Timestamp(1));
        }
    }
    let mut builder = TopologyBuilder::new("soak-fleet");
    for deployment in &fleet.deployments {
        for thing in &deployment.things {
            builder = builder.thing(&thing.to_thing());
        }
        for (from, to) in &deployment.edges {
            builder = builder.edge(from.as_str(), to.as_str());
        }
    }
    let topology = builder.build();
    topology.register(dataplane).expect("fleet endpoints register");
    let mut schemas = std::collections::BTreeMap::new();
    for deployment in &fleet.deployments {
        for schema in &deployment.schemas {
            dataplane.register_schema(schema.to_schema()).expect("fleet schemas register");
            schemas.insert(schema.message_type.clone(), schema.clone());
        }
    }
    dataplane.with_access(|access| {
        for deployment in &fleet.deployments {
            for rule in &deployment.rules {
                access.add_rule(rule.component.as_str(), rule.to_access_rule());
            }
        }
    });
    let snapshot = store.snapshot();
    topology.subscribe_edges(dataplane, &snapshot, Timestamp(2)).expect("fleet edges subscribe");
    let mut published = 0u64;
    for round in &fleet.rounds {
        for publish in &round.publishes {
            let schema = &schemas[&publish.message_type];
            let _ = dataplane.publish_message(
                &publish.publisher,
                &publish.message(schema),
                Timestamp(publish.at_millis),
            );
            published += 1;
        }
    }
    published
}

#[test]
fn churn_soak_with_injected_faults_keeps_the_accounting_exact() {
    let seed = env_u64("LEGALIOT_SOAK_SEED", 1);
    let shards = env_u64("LEGALIOT_SOAK_SHARDS", 2) as usize;
    let publishes = env_u64("LEGALIOT_SOAK_PUBLISHES", 4000);
    let fleets = env_u64("LEGALIOT_SOAK_FLEETS", 0) as usize;

    let done = Arc::new(AtomicBool::new(false));
    watchdog("churn_soak", Duration::from_secs(240), Arc::clone(&done));

    // The fault schedule. The `on_hits` panic spec makes at least one mid-batch
    // shard panic *certain* (hit indices are global across shards, and the run
    // processes far more than 25 deliveries); the probabilistic specs add
    // seed-reproducible delays, hand-off/audit-append crashes and injected
    // ingress backpressure. Total possible panics (6 + 4 + 3) stay far below
    // the restart budget so no shard ever degrades: this soak asserts the
    // restart path, the degraded path has its own deterministic unit test.
    let registry = Arc::new(
        FailpointRegistry::new(seed)
            .with_spec(
                FailpointSpec::on_hits(FailpointSite::ShardProcess, FaultKind::Panic, 25, 701)
                    .limit(6),
            )
            .with_spec(FailpointSpec::with_probability(
                FailpointSite::ShardProcess,
                FaultKind::Delay(Duration::from_micros(20)),
                0.002,
            ))
            .with_spec(
                FailpointSpec::with_probability(
                    FailpointSite::MailboxHandOff,
                    FaultKind::Panic,
                    0.0005,
                )
                .limit(4),
            )
            .with_spec(
                FailpointSpec::with_probability(FailpointSite::AuditAppend, FaultKind::Panic, 0.01)
                    .limit(3),
            )
            .with_spec(FailpointSpec::with_probability(
                FailpointSite::IngressEnqueue,
                FaultKind::QueueFull,
                0.001,
            ))
            .with_spec(FailpointSpec::with_probability(
                FailpointSite::ShardLoop,
                FaultKind::Delay(Duration::from_micros(50)),
                0.001,
            )),
    );

    // The churn writes context keys constantly and nothing subscribes to the
    // store's change feed: it must record nothing under load while every shard
    // judges against the current values.
    let store = Arc::new(ContextStore::new());
    store.set("load", 80i64, Timestamp(0));
    store.set("emergency.active", false, Timestamp(0));

    let config = DataplaneConfig {
        shards,
        // Drop-oldest mailboxes: churn may abandon a subscriber handle for a
        // while, and the soak must keep moving rather than park a shard on it
        // (the Block-policy stall has its own watchdogged teardown test below).
        overflow: OverflowPolicy::DropOldest,
        mailbox_capacity: 32,
        failpoints: Some(Arc::clone(&registry)),
        restart_budget: 64,
        ..DataplaneConfig::default()
    };
    let dataplane =
        Arc::new(Dataplane::with_context_store("churn-soak", config, Arc::clone(&store)));
    dataplane.register_schema(reading_schema()).unwrap();
    let snapshot = store.snapshot();
    for name in PUBLISHERS {
        dataplane.register(endpoint(name, &["t"])).unwrap();
    }
    for name in SINKS {
        dataplane.register(endpoint(name, &["t", "sink"])).unwrap();
        dataplane.with_access(|access| {
            access.add_rule(name, sink_rule());
        });
    }
    for publisher in PUBLISHERS {
        for sink in SINKS {
            assert!(dataplane
                .subscribe(publisher, sink, &snapshot, Timestamp(1))
                .unwrap()
                .is_delivered());
        }
    }
    // One "anchor" sink per shard, each subscribed to pub-0: every shard then
    // processes payload batches throughout the run, refreshing its context
    // snapshot, whichever endpoints it happens to own.
    let mut covered = vec![false; shards];
    let mut candidate = 0u64;
    while covered.iter().any(|shard_covered| !shard_covered) {
        let name = format!("anchor-{candidate}");
        candidate += 1;
        let shard = dataplane.shard_of(&name);
        if covered[shard] {
            continue;
        }
        covered[shard] = true;
        dataplane.register(endpoint(&name, &["t", "sink"])).unwrap();
        dataplane.with_access(|access| {
            access.add_rule(&name, sink_rule());
        });
        assert!(dataplane
            .subscribe(PUBLISHERS[0], &name, &snapshot, Timestamp(1))
            .unwrap()
            .is_delivered());
    }

    // Optional generated-fleet background population: thousands of extra
    // endpoints, schemas and policies sharing the shards with the hand-built
    // topology, their scripted publishes replayed before the churn starts.
    let fleet_publishes =
        if fleets > 0 { install_generated_fleet(&dataplane, &store, seed, fleets) } else { 0 };

    // Simulated clock shared by every driver thread.
    let clock = Arc::new(AtomicU64::new(10));
    let stop_churn = Arc::new(AtomicBool::new(false));

    // Publisher threads: fixed total volume, every error tolerated (injected
    // queue-full, a racing deregister) — the identity assertion below is over
    // what the dataplane *accepted*, which it counts itself.
    let mut drivers = Vec::new();
    for worker in 0..2u64 {
        let dataplane = Arc::clone(&dataplane);
        let clock = Arc::clone(&clock);
        let message = reading_message();
        let rounds = publishes / 2;
        drivers.push(std::thread::spawn(move || {
            for i in 0..rounds {
                let publisher = PUBLISHERS[((worker + i) % PUBLISHERS.len() as u64) as usize];
                let now = Timestamp(clock.fetch_add(1, Ordering::Relaxed));
                let _ = dataplane.publish_message(publisher, &message, now);
                if i % 256 == 0 {
                    std::thread::yield_now();
                }
            }
        }));
    }

    // The churn thread: a seeded random walk over every reconfiguration the
    // control plane offers, racing the publishers and the injected faults.
    let churn = {
        let dataplane = Arc::clone(&dataplane);
        let store = Arc::clone(&store);
        let clock = Arc::clone(&clock);
        let stop = Arc::clone(&stop_churn);
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00);
            let mut break_glass =
                BreakGlass::new("bg-soak", "regulator", 5_000).overriding("load-limit");
            let mut ephemeral: Vec<(String, Option<Subscriber>)> = Vec::new();
            let mut minted = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let now = Timestamp(clock.fetch_add(1, Ordering::Relaxed));
                match rng.gen_range(0u32..100) {
                    // Mint an ephemeral subscriber (sometimes with a live
                    // streaming receiver) and admit it behind the same rule.
                    0..=19 if ephemeral.len() < MAX_EPHEMERAL => {
                        let name = format!("eph-{minted}");
                        minted += 1;
                        if dataplane.register(endpoint(&name, &["t", "sink"])).is_ok() {
                            dataplane.with_access(|access| {
                                access.add_rule(&name, sink_rule());
                            });
                            let snapshot = store.snapshot();
                            let publisher = PUBLISHERS[rng.gen_range(0..PUBLISHERS.len())];
                            let _ = dataplane.subscribe(publisher, &name, &snapshot, now);
                            let receiver = if rng.gen_bool(0.5) {
                                dataplane.open_subscriber(&name).ok()
                            } else {
                                None
                            };
                            ephemeral.push((name, receiver));
                        }
                    }
                    // Tear one down again: deregister, then drop the handle.
                    20..=34 => {
                        if !ephemeral.is_empty() {
                            let index = rng.gen_range(0..ephemeral.len());
                            let (name, receiver) = ephemeral.swap_remove(index);
                            let _ = dataplane.deregister(&name);
                            drop(receiver);
                        }
                    }
                    // Context flip on a sink: quenching toggles on and off.
                    35..=49 => {
                        let sink = SINKS[rng.gen_range(0..SINKS.len())];
                        let secrecy: Vec<&str> = if rng.gen_bool(0.5) {
                            vec!["t", "sink"]
                        } else {
                            vec!["t", "sink", "secret-id"]
                        };
                        let context = SecurityContext::from_names(secrecy, Vec::<&str>::new());
                        let _ = dataplane.set_context(sink, context, now);
                    }
                    // Context flip on a publisher: the flow turns illegal
                    // (denials) and legal again, mid-stream.
                    50..=59 => {
                        let publisher = PUBLISHERS[rng.gen_range(0..PUBLISHERS.len())];
                        let secrecy: Vec<&str> =
                            if rng.gen_bool(0.5) { vec!["t"] } else { vec!["t", "quarantine"] };
                        let context = SecurityContext::from_names(secrecy, Vec::<&str>::new());
                        let _ = dataplane.set_context(publisher, context, now);
                    }
                    // Load swings across the rule threshold: per-message AC
                    // flips between admit and refuse on every shard.
                    60..=69 => {
                        let load: i64 = if rng.gen_bool(0.5) { 80 } else { 150 };
                        store.set("load", load, now);
                    }
                    // Break-glass: the override suspends the load limit; its
                    // active state is mirrored into the context key the rules
                    // read, so activation visibly reopens refused flows.
                    70..=79 => {
                        if break_glass.is_active(now) {
                            break_glass.revoke();
                            store.set("emergency.active", false, now);
                        } else if break_glass.activate("soak emergency", now).is_ok() {
                            store.set("emergency.active", true, now);
                        }
                    }
                    // Regime update: reinstall a sink's rule set (an AC-regime
                    // change, in force for that sink's next delivery).
                    80..=89 => {
                        let sink = SINKS[rng.gen_range(0..SINKS.len())];
                        dataplane.with_access(|access| {
                            access.add_rule(sink, sink_rule());
                        });
                    }
                    // Isolation flips: §8.2.2's other in-flight denial source.
                    90..=94 => {
                        let sink = SINKS[rng.gen_range(0..SINKS.len())];
                        let _ = dataplane.set_isolated(sink, rng.gen_bool(0.5), now);
                    }
                    // Drain a live ephemeral receiver so mailboxes keep moving.
                    _ => {
                        if !ephemeral.is_empty() {
                            let index = rng.gen_range(0..ephemeral.len());
                            if let (_, Some(receiver)) = &ephemeral[index] {
                                let _ = receiver.drain();
                            }
                        }
                    }
                }
                if rng.gen_bool(0.2) {
                    std::thread::yield_now();
                }
            }
            // Leave isolation off so the final drain is not artificially denied
            // (denials are fine for the identity either way; this just keeps
            // the run's tail representative).
            for sink in SINKS {
                let _ =
                    dataplane.set_isolated(sink, false, Timestamp(clock.load(Ordering::Relaxed)));
            }
            ephemeral
        })
    };

    for driver in drivers {
        driver.join().expect("publisher thread completed");
    }
    stop_churn.store(true, Ordering::Relaxed);
    let ephemeral = churn.join().expect("churn thread completed");
    dataplane.drain();

    let stats = dataplane.stats();
    assert!(stats.published > 0, "the soak actually published");
    assert!(
        stats.shard_restarts >= 1,
        "the deterministic panic spec must have restarted at least one shard"
    );
    assert_eq!(stats.degraded_shards, 0, "the budget comfortably covers every injected panic");
    assert_eq!(
        stats.published,
        stats.delivered + stats.denied + stats.missing_endpoint + stats.deliveries_lost,
        "every accepted publish must be delivered, denied, missing or evidenced lost \
         (seed {seed}, shards {shards}): {stats:?}"
    );
    assert!(registry.fired(FailpointSite::ShardProcess) >= 1);

    let dataplane = Arc::into_inner(dataplane).expect("all driver clones joined");
    let report = dataplane.shutdown();
    assert!(
        report.worker_panics.is_empty(),
        "every panic was supervised in-shard: {:?}",
        report.worker_panics
    );
    for log in &report.shard_audit {
        assert!(
            log.verify_chain().is_intact(),
            "chain intact across restarts: {}",
            log.authority()
        );
    }
    assert!(report.control_audit.verify_chain().is_intact());

    // Evidence ↔ counter cross-check: one ShardRestarted record per counted
    // restart, the non-hand-off DeliveryLost records total exactly the lost
    // counter, and every verdict and shed is evidenced once (summarised audit,
    // the default). Hand-off losses are at-most-once evidence of deliveries
    // already counted as delivered, so they stay outside the identity.
    let shard_records = report.shard_audit.iter().flat_map(|log| log.records());
    reconcile(&report.stats, shard_records, AuditDetail::Summarised).unwrap_or_else(|unequal| {
        panic!("counters and trail disagree (seed {seed}, shards {shards}):\n{unequal}")
    });
    let mut lost_hand_off = 0u64;
    for record in report.merged_timeline() {
        if let AuditEvent::DeliveryLost { lost, ref cause, ref message_type, .. } = record.event {
            assert!(message_type.is_some(), "every lost delivery names its type: {cause}");
            if cause.starts_with("mailbox hand-off abandoned") {
                lost_hand_off += lost;
            }
        }
    }
    assert!(lost_hand_off <= stats.delivered, "hand-off losses are a subset of counted deliveries");

    // No change was recorded under churn: no shard holds a change-feed cursor, so
    // no one would read one.
    assert!(
        store.history().is_empty(),
        "context history recorded with no subscriber: {}",
        store.history().len()
    );
    drop(ephemeral);
    done.store(true, Ordering::Relaxed);
    println!(
        "churn soak seed={seed} shards={shards} fleets={fleets} fleet_publishes={fleet_publishes}: \
         published={} delivered={} denied={} missing={} lost={} restarts={} hand_off_losses={}",
        stats.published,
        stats.delivered,
        stats.denied,
        stats.missing_endpoint,
        stats.deliveries_lost,
        stats.shard_restarts,
        lost_hand_off
    );
}

/// Satellite: teardown under stall. A shard is parked on a full Block-policy
/// mailbox when first the subscriber handle and then the whole dataplane are
/// dropped — both must complete within the watchdog deadline (the close wakes
/// the parked shard; Drop closes mailboxes before joining workers).
#[test]
fn teardown_under_mailbox_stall_completes() {
    let done = Arc::new(AtomicBool::new(false));
    watchdog("teardown_under_mailbox_stall", Duration::from_secs(120), Arc::clone(&done));

    let config = DataplaneConfig {
        shards: 1,
        mailbox_capacity: 1,
        overflow: OverflowPolicy::Block,
        ..DataplaneConfig::default()
    };
    let dataplane = Dataplane::new("stalled-teardown", config);
    dataplane.register(endpoint("pub", &["t"])).unwrap();
    dataplane.register(endpoint("sub", &["t"])).unwrap();
    dataplane.allow_sends_to("sub");
    dataplane.register_schema(reading_schema()).unwrap();
    let (outcome, subscriber) = dataplane
        .subscribe_receiver("pub", "sub", &ContextSnapshot::default(), Timestamp(1))
        .unwrap();
    assert!(outcome.is_delivered());

    // Fill the 1-slot mailbox and queue more: the shard parks on the hand-off.
    for t in 2..10 {
        dataplane.publish_message("pub", &reading_message(), Timestamp(t)).unwrap();
    }
    // Give the worker time to actually park on the full mailbox.
    std::thread::sleep(Duration::from_millis(30));

    // Drop the Subscriber first (closes the mailbox, waking the shard), then
    // the Dataplane (joins workers). Neither may hang.
    drop(subscriber);
    drop(dataplane);
    done.store(true, Ordering::Relaxed);
}
