//! End-to-end enforcement conformance: drives whole scenarios through the public
//! dataplane API and asserts on exactly what each *subscriber receives* — the paper's
//! guarantee is about what a consumer ultimately observes (messages admitted,
//! IFC-checked and quenched per its context), not about internal counters.
//!
//! Scenarios run over the smart-home (Fig. 7) and smart-city topologies and cover:
//! post-quench payload contents, §8.2.2 re-evaluation observed mid-stream from the
//! consumer side, mailbox-overflow policies with `DeliveryDropped` evidence, teardown
//! races, and zero-copy preservation on the receive path.
//!
//! The shard count is configurable from the environment (`LEGALIOT_E2E_SHARDS`,
//! default 2) so CI can run the suite across a shard matrix.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use legaliot::audit::AuditEvent;
use legaliot::context::{ContextSnapshot, Timestamp};
use legaliot::dataplane::{
    smart_city, smart_home, Dataplane, DataplaneConfig, OverflowPolicy, ReceivedMessage, RecvError,
    RecvTimeoutError, Subscriber, Topology, TryRecvError,
};
use legaliot::ifc::{Label, SecurityContext};
use legaliot::middleware::{
    encoded_payload_len, AttributeKind, AttributeValue, Component, Message, MessageSchema,
    Principal,
};

/// Shard count under test; CI runs the suite with 1 and 4.
fn shards() -> usize {
    std::env::var("LEGALIOT_E2E_SHARDS").ok().and_then(|v| v.parse().ok()).unwrap_or(2)
}

fn config() -> DataplaneConfig {
    DataplaneConfig { shards: shards(), ..DataplaneConfig::default() }
}

fn topologies() -> Vec<Topology> {
    vec![smart_home(4, 7), smart_city(3, 4)]
}

fn snap() -> ContextSnapshot {
    ContextSnapshot::default()
}

/// Receives everything a subscriber will ever observe: the backlog, then
/// `Disconnected` (call after the dataplane shut down or the endpoint deregistered).
fn receive_all(subscriber: &Subscriber) -> Vec<ReceivedMessage> {
    let mut received = Vec::new();
    loop {
        match subscriber.recv_timeout(Duration::from_secs(10)) {
            Ok(message) => received.push(message),
            Err(RecvTimeoutError::Disconnected) => return received,
            Err(RecvTimeoutError::Timeout) => panic!("mailbox neither closed nor delivering"),
        }
    }
}

/// Acceptance core: on both scenario topologies every subscriber observes
/// exactly the enforced deliveries — the sensitive `subject-id`
/// attribute (message-level `identity` tag no scenario subscriber holds) is absent
/// from every received payload, the open attributes are intact, and the sender is one
/// of the endpoint's admitted publishers.
#[test]
fn subscribers_observe_post_quench_payloads_on_scenario_topologies() {
    const ROUNDS: u64 = 3;
    for topology in topologies() {
        // Who may legally appear as a sender at each subscribing endpoint.
        let mut publishers_of: HashMap<&str, HashSet<&str>> = HashMap::new();
        for (from, to) in &topology.edges {
            publishers_of.entry(to.as_str()).or_default().insert(from.as_str());
        }
        let dataplane = Dataplane::new(topology.name.clone(), config());
        topology
            .install_with_payload_schemas(&dataplane, &snap(), Timestamp(1))
            .expect("topology installs");
        let receivers: Vec<Subscriber> = publishers_of
            .keys()
            .map(|name| dataplane.open_subscriber(name).expect("receiver opens"))
            .collect();

        let pairs = topology.publisher_messages();
        let mut clock = 2;
        for _ in 0..ROUNDS {
            for (publisher, message) in &pairs {
                dataplane.publish_message(publisher, message, Timestamp(clock)).unwrap();
                clock += 1;
            }
        }
        dataplane.drain();
        let stats = dataplane.stats();
        assert_eq!(stats.delivered, ROUNDS * topology.edges.len() as u64);
        assert_eq!(stats.receiver_enqueued, stats.delivered);
        assert_eq!(stats.receiver_dropped, 0);
        // Every delivery quenches exactly `subject-id`.
        assert_eq!(stats.quenched_attributes, stats.delivered);

        let report = dataplane.shutdown();
        assert!(report.shard_audit.iter().all(|log| log.verify_chain().is_intact()));
        let mut received_total = 0u64;
        for subscriber in &receivers {
            let allowed_senders = &publishers_of[subscriber.name()];
            for message in receive_all(subscriber) {
                received_total += 1;
                assert!(
                    allowed_senders.contains(message.sender()),
                    "{} received from unadmitted {}",
                    subscriber.name(),
                    message.sender()
                );
                // The quenched attribute never reaches a consumer; the open
                // attributes arrive intact.
                assert!(message.get("subject-id").is_none());
                assert_eq!(message.get("value"), Some(AttributeValue::Float(98.6)));
                assert_eq!(message.get("unit"), Some(AttributeValue::Text("bpm".into())));
                assert_eq!(message.attribute_count(), 2);
                // Zero-copy preserved.
                assert!(message.frozen().is_some());
            }
        }
        assert_eq!(received_total, stats.delivered, "{}", topology.name);
    }
}

/// Drop-oldest overflow on both topologies: tiny mailboxes shed the oldest
/// deliveries, the sheds are counted per subscriber and globally, and the
/// audit evidence (`DeliveryDropped` records) totals every shed message.
#[test]
fn drop_oldest_overflow_is_evidenced_on_scenario_topologies() {
    const ROUNDS: u64 = 5;
    const CAPACITY: usize = 2;
    for topology in topologies() {
        let mut incoming: HashMap<&str, u64> = HashMap::new();
        for (_, to) in &topology.edges {
            *incoming.entry(to.as_str()).or_default() += 1;
        }
        let config = DataplaneConfig {
            mailbox_capacity: CAPACITY,
            overflow: OverflowPolicy::DropOldest,
            ..config()
        };
        let dataplane = Dataplane::new(topology.name.clone(), config);
        topology
            .install_with_payload_schemas(&dataplane, &snap(), Timestamp(1))
            .expect("topology installs");
        let receivers: Vec<Subscriber> = incoming
            .keys()
            .map(|name| dataplane.open_subscriber(name).expect("receiver opens"))
            .collect();
        let pairs = topology.publisher_messages();
        let mut clock = 2;
        for _ in 0..ROUNDS {
            for (publisher, message) in &pairs {
                dataplane.publish_message(publisher, message, Timestamp(clock)).unwrap();
                clock += 1;
            }
        }
        dataplane.drain();

        let mut expected_dropped_total = 0u64;
        for subscriber in &receivers {
            let enqueued = ROUNDS * incoming[subscriber.name()];
            let expected_dropped = enqueued.saturating_sub(CAPACITY as u64);
            assert_eq!(
                subscriber.dropped(),
                expected_dropped,
                "{} drops at {}",
                topology.name,
                subscriber.name()
            );
            expected_dropped_total += expected_dropped;
            // The survivors are the *newest* deliveries.
            let survivors = subscriber.drain();
            assert_eq!(survivors.len() as u64, enqueued.min(CAPACITY as u64));
            let stamps: Vec<u64> = survivors.iter().map(ReceivedMessage::sent_at_millis).collect();
            let sorted = {
                let mut s = stamps.clone();
                s.sort_unstable();
                s
            };
            assert_eq!(stamps, sorted, "mailbox preserves delivery order");
        }
        let stats = dataplane.stats();
        assert_eq!(stats.receiver_dropped, expected_dropped_total);
        assert_eq!(stats.receiver_enqueued, stats.delivered);

        // Evidence: the per-pair DeliveryDropped totals account for every shed.
        let report = dataplane.shutdown();
        let evidenced: u64 = report
            .merged_timeline()
            .into_iter()
            .filter_map(|r| match r.event {
                AuditEvent::DeliveryDropped { dropped, .. } => Some(dropped),
                _ => None,
            })
            .sum();
        assert_eq!(evidenced, expected_dropped_total, "{}", topology.name);
    }
}

fn patient_schema() -> MessageSchema {
    MessageSchema::new("reading").attribute("value", AttributeKind::Float).sensitive_attribute(
        "patient",
        AttributeKind::Text,
        Label::from_names(["secret-id"]),
    )
}

fn patient_message() -> Message {
    Message::new("reading", SecurityContext::public())
        .with("value", AttributeValue::Float(72.0))
        .with("patient", AttributeValue::Text("ann".into()))
}

fn endpoint(name: &str, secrecy: &[&str]) -> Component {
    Component::builder(name, Principal::new("owner"))
        .context(SecurityContext::from_names(secrecy.iter().copied(), Vec::<&str>::new()))
        .build()
}

/// §8.2.2 re-evaluation observed from the consumer side: a context change mid-stream
/// flips what subsequent receives contain — first the quenched view, then (once the
/// subscriber holds the message-level tag) the full payload, then quenched again, and
/// finally nothing at all once the publisher's context makes the flow illegal.
#[test]
fn context_change_mid_stream_flips_subscriber_observations() {
    let dataplane = Dataplane::new("ctx-flip", config());
    dataplane.register(endpoint("pub", &["t"])).unwrap();
    dataplane.register(endpoint("sub", &["t", "sink"])).unwrap();
    dataplane.allow_sends_to("sub");
    dataplane.register_schema(patient_schema()).unwrap();
    let (outcome, subscriber) =
        dataplane.subscribe_receiver("pub", "sub", &snap(), Timestamp(1)).unwrap();
    assert!(outcome.is_delivered());

    let recv_next = |deadline_tag: &str| -> ReceivedMessage {
        subscriber
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("expected delivery at {deadline_tag}: {e}"))
    };

    // Phase 1: `sub` lacks `secret-id` — `patient` is quenched before hand-off.
    dataplane.publish_message("pub", &patient_message(), Timestamp(10)).unwrap();
    dataplane.drain();
    let observed = recv_next("phase 1");
    assert!(observed.get("patient").is_none());
    assert_eq!(observed.get("value"), Some(AttributeValue::Float(72.0)));

    // Phase 2: `sub` gains the tag — the very next receive carries the full body.
    dataplane
        .set_context(
            "sub",
            SecurityContext::from_names(["t", "sink", "secret-id"], Vec::<&str>::new()),
            Timestamp(11),
        )
        .unwrap();
    dataplane.publish_message("pub", &patient_message(), Timestamp(12)).unwrap();
    dataplane.drain();
    let observed = recv_next("phase 2");
    assert_eq!(observed.get("patient"), Some(AttributeValue::Text("ann".into())));

    // Phase 3: the tag is withdrawn — quenching resumes (no stale cached mask).
    dataplane
        .set_context(
            "sub",
            SecurityContext::from_names(["t", "sink"], Vec::<&str>::new()),
            Timestamp(13),
        )
        .unwrap();
    dataplane.publish_message("pub", &patient_message(), Timestamp(14)).unwrap();
    dataplane.drain();
    assert!(recv_next("phase 3").get("patient").is_none());

    // Phase 4: the publisher's context makes the established flow illegal — the
    // subscriber observes *nothing*, and the denial is counted.
    dataplane
        .set_context(
            "pub",
            SecurityContext::from_names(["t", "quarantine"], Vec::<&str>::new()),
            Timestamp(15),
        )
        .unwrap();
    dataplane.publish_message("pub", &patient_message(), Timestamp(16)).unwrap();
    dataplane.drain();
    assert_eq!(subscriber.try_recv().unwrap_err(), TryRecvError::Empty);
    let stats = dataplane.stats();
    assert_eq!(stats.denied, 1);
    assert_eq!(stats.receiver_enqueued, 3);
    drop(dataplane);
    // Teardown closed the mailbox behind the live handle.
    assert_eq!(subscriber.recv().unwrap_err(), RecvError::Disconnected);
}

/// Zero-copy preserved on the receive path: subscribers of one publish share the
/// frozen payload allocation — byte-for-byte the same buffer, whether or not their
/// views were quenched. The body is what is shared; the `Arc<FrozenMessage>` around
/// each view is made per receive, on the receiving thread, by design.
#[test]
fn receive_path_shares_the_frozen_payload_buffer() {
    let dataplane = Dataplane::new("zero-copy", config());
    dataplane.register(endpoint("pub", &[])).unwrap();
    // Two subscribers holding `secret-id` (unquenched view) and one without (quenched).
    for (name, secrecy) in
        [("full-a", vec!["secret-id"]), ("full-b", vec!["secret-id"]), ("redacted", vec![])]
    {
        dataplane.register(endpoint(name, &secrecy)).unwrap();
        dataplane.allow_sends_to(name);
        assert!(dataplane.subscribe("pub", name, &snap(), Timestamp(1)).unwrap().is_delivered());
    }
    dataplane.register_schema(patient_schema()).unwrap();
    let full_a = dataplane.open_subscriber("full-a").unwrap();
    let full_b = dataplane.open_subscriber("full-b").unwrap();
    let redacted = dataplane.open_subscriber("redacted").unwrap();
    dataplane.publish_message("pub", &patient_message(), Timestamp(2)).unwrap();
    dataplane.drain();

    let on_a = full_a.recv().unwrap();
    let on_b = full_b.recv().unwrap();
    let on_redacted = redacted.recv().unwrap();
    let frozen_a = on_a.frozen().expect("zero-copy delivery");
    let frozen_b = on_b.frozen().expect("zero-copy delivery");
    let frozen_redacted = on_redacted.frozen().expect("zero-copy delivery");
    // Unquenched views are the same shared body.
    assert!(std::ptr::eq(
        frozen_a.payload().as_slice().as_ptr(),
        frozen_b.payload().as_slice().as_ptr()
    ));
    assert_eq!(frozen_a.get("patient"), Some(AttributeValue::Text("ann".into())));
    // The quenched view is a distinct presence mask over the *same* buffer.
    assert!(frozen_redacted.get("patient").is_none());
    assert!(std::ptr::eq(
        frozen_a.payload().as_slice().as_ptr(),
        frozen_redacted.payload().as_slice().as_ptr()
    ));
    // The quenched view's effective bytes exclude the redacted span.
    assert_eq!(frozen_redacted.present_byte_len(), frozen_a.present_byte_len() - "ann".len());
    dataplane.shutdown();
}

/// Teardown races: a subscriber handle dropped mid-fanout releases a shard parked on
/// its full mailbox (publishes and `drain` complete instead of hanging), receives on
/// a torn-down dataplane surface the documented `Disconnected`, and deregistering an
/// endpoint closes its receiver.
#[test]
fn teardown_races_release_shards_and_report_disconnected() {
    // (1) Handle dropped mid-fanout while a Block-policy mailbox is full: without the
    // drop the shard would park forever (capacity 1, no consumer); the close must
    // wake it and let the remaining fan-out proceed.
    {
        let config = DataplaneConfig { mailbox_capacity: 1, ..config() };
        let dataplane = Dataplane::new("teardown", config);
        dataplane.register(endpoint("pub", &["t"])).unwrap();
        dataplane.register(endpoint("sub", &["t"])).unwrap();
        dataplane.allow_sends_to("sub");
        dataplane.register_schema(patient_schema()).unwrap();
        let (outcome, subscriber) =
            dataplane.subscribe_receiver("pub", "sub", &snap(), Timestamp(1)).unwrap();
        assert!(outcome.is_delivered());

        let closer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            drop(subscriber); // mid-fanout: the shard is parked on the full mailbox
        });
        for t in 2..40 {
            dataplane.publish_message("pub", &patient_message(), Timestamp(t)).unwrap();
        }
        dataplane.drain(); // must return: the closed mailbox no longer blocks
        closer.join().unwrap();
        let stats = dataplane.stats();
        assert_eq!(stats.delivered, 38, "every delivery was still enforced");
        assert!(stats.receiver_enqueued < 38, "the closed mailbox stopped enqueueing");
        assert_eq!(stats.receiver_dropped, 0, "Block policy never sheds");
        dataplane.shutdown();
    }

    // (2) recv on a torn-down dataplane: backlog first, then Disconnected — never a
    // hang. try_recv and recv_timeout report the same.
    let dataplane = Dataplane::new("torn-down", config());
    dataplane.register(endpoint("pub", &["t"])).unwrap();
    dataplane.register(endpoint("sub", &["t"])).unwrap();
    dataplane.allow_sends_to("sub");
    dataplane.register_schema(patient_schema()).unwrap();
    let (_, subscriber) =
        dataplane.subscribe_receiver("pub", "sub", &snap(), Timestamp(1)).unwrap();
    dataplane.publish_message("pub", &patient_message(), Timestamp(2)).unwrap();
    dataplane.drain();
    dataplane.shutdown();
    assert!(subscriber.recv().is_ok(), "backlog survives shutdown");
    assert_eq!(subscriber.recv().unwrap_err(), RecvError::Disconnected);
    assert_eq!(subscriber.try_recv().unwrap_err(), TryRecvError::Disconnected);
    assert_eq!(
        subscriber.recv_timeout(Duration::from_millis(5)).unwrap_err(),
        RecvTimeoutError::Disconnected
    );

    // (3) Dropping the *dataplane* while a live handle keeps a Block-policy mailbox
    // full: Drop must close mailboxes before joining the workers, or the shard
    // parked on the full mailbox would never pop its Shutdown task (deadlock).
    {
        let config = DataplaneConfig { mailbox_capacity: 1, ..config() };
        let dataplane = Dataplane::new("abandoned", config);
        dataplane.register(endpoint("pub", &["t"])).unwrap();
        dataplane.register(endpoint("sub", &["t"])).unwrap();
        dataplane.allow_sends_to("sub");
        dataplane.register_schema(patient_schema()).unwrap();
        let (_, subscriber) =
            dataplane.subscribe_receiver("pub", "sub", &snap(), Timestamp(1)).unwrap();
        for t in 2..10 {
            dataplane.publish_message("pub", &patient_message(), Timestamp(t)).unwrap();
        }
        drop(dataplane); // must return: the abandon path closes mailboxes first
        assert!(subscriber.is_closed());
        // Whatever was enqueued before the close is still receivable, then closed.
        while subscriber.try_recv().is_ok() {}
        assert_eq!(subscriber.try_recv().unwrap_err(), TryRecvError::Disconnected);
    }

    // (4) Deregistering the endpoint closes its receiver the same way.
    let dataplane = Dataplane::new("deregister", config());
    dataplane.register(endpoint("pub", &["t"])).unwrap();
    dataplane.register(endpoint("sub", &["t"])).unwrap();
    dataplane.allow_sends_to("sub");
    dataplane.register_schema(patient_schema()).unwrap();
    let (_, subscriber) =
        dataplane.subscribe_receiver("pub", "sub", &snap(), Timestamp(1)).unwrap();
    dataplane.publish_message("pub", &patient_message(), Timestamp(2)).unwrap();
    dataplane.drain();
    dataplane.deregister("sub").unwrap();
    assert!(subscriber.recv().is_ok());
    assert_eq!(subscriber.recv().unwrap_err(), RecvError::Disconnected);
    dataplane.shutdown();

    // (5) Control-plane writes stay live while a shard is parked on a full
    // Block-policy mailbox: the shard releases the directory lock before the
    // hand-off, so `deregister` (which needs the write lock, and whose mailbox
    // close is the very thing that unparks the shard) completes instead of
    // deadlocking.
    let config = DataplaneConfig { mailbox_capacity: 1, ..config() };
    let dataplane = Dataplane::new("parked", config);
    dataplane.register(endpoint("pub", &["t"])).unwrap();
    dataplane.register(endpoint("sub", &["t"])).unwrap();
    dataplane.allow_sends_to("sub");
    dataplane.register_schema(patient_schema()).unwrap();
    let (_, subscriber) =
        dataplane.subscribe_receiver("pub", "sub", &snap(), Timestamp(1)).unwrap();
    for t in 2..8 {
        dataplane.publish_message("pub", &patient_message(), Timestamp(t)).unwrap();
    }
    // Let the shard fill the 1-slot mailbox and park on the next hand-off.
    std::thread::sleep(Duration::from_millis(30));
    dataplane.deregister("sub").unwrap(); // must not deadlock
    dataplane.drain(); // completes: the closed mailbox no longer blocks the shard
    assert!(subscriber.is_closed());
    while subscriber.try_recv().is_ok() {}
    assert_eq!(subscriber.try_recv().unwrap_err(), TryRecvError::Disconnected);
    dataplane.shutdown();
}

/// Blocking overflow end to end: with a concurrent drain-loop consumer, every
/// enforced delivery is observed exactly once, in order, with nothing shed — the
/// documented lossless behaviour rather than a hang.
#[test]
fn block_overflow_with_concurrent_consumer_is_lossless() {
    let config =
        DataplaneConfig { mailbox_capacity: 4, overflow: OverflowPolicy::Block, ..config() };
    let dataplane = Dataplane::new("lossless", config);
    dataplane.register(endpoint("pub", &["t"])).unwrap();
    dataplane.register(endpoint("sub", &["t"])).unwrap();
    dataplane.allow_sends_to("sub");
    dataplane.register_schema(patient_schema()).unwrap();
    let (outcome, subscriber) =
        dataplane.subscribe_receiver("pub", "sub", &snap(), Timestamp(1)).unwrap();
    assert!(outcome.is_delivered());
    let consumer = std::thread::spawn(move || {
        let mut stamps = Vec::new();
        while let Ok(message) = subscriber.recv() {
            stamps.push(message.sent_at_millis());
        }
        stamps
    });
    for t in 10..110 {
        dataplane.publish_message("pub", &patient_message(), Timestamp(t)).unwrap();
    }
    dataplane.drain();
    let stats = dataplane.stats();
    assert_eq!(stats.receiver_enqueued, 100);
    assert_eq!(stats.receiver_dropped, 0);
    dataplane.shutdown();
    let stamps = consumer.join().unwrap();
    assert_eq!(stamps, (10..110).collect::<Vec<u64>>());
}

mod mode_equivalence {
    use super::*;
    use legaliot::dataplane::AuditDetail;
    use legaliot::ifc::FlowDecision;
    use legaliot::middleware::{
        AccessRule, Action, ControlOutcome, DeliveryOutcome, Middleware, MiddlewareError,
        Operation, ReconfigurationCommand, Subject,
    };
    use proptest::prelude::*;

    /// One generated enforcement case. Both drivers first establish `pub → sub`
    /// between two public endpoints, then are put in this state, then carry the
    /// message — so it is the per-message sequence, not admission, that decides.
    struct Case {
        schema: MessageSchema,
        message: Message,
        source: SecurityContext,
        destination: SecurityContext,
        isolated: (bool, bool),
        ac_denied: bool,
    }

    /// Where the sequence stopped, as far as both drivers can tell an observer.
    #[derive(Debug, PartialEq, Clone, Copy)]
    enum Class {
        Delivered,
        /// Isolation or AC: refused with no flow check, hence no `FlowChecked` record.
        RefusedBeforeFlow,
        DeniedByIfc,
    }

    /// The compared fields of a `FlowChecked` record.
    type FlowCheck = (SecurityContext, SecurityContext, FlowDecision, Option<String>);

    /// Everything a consumer and an auditor can observe of one case on one driver.
    #[derive(Debug, PartialEq)]
    struct Observed {
        class: Class,
        quenched: Vec<String>,
        received: Vec<Message>,
        flow_checks: Vec<FlowCheck>,
        /// Re-admission of the channel in the case's state.
        admission: DeliveryOutcome,
    }

    fn flow_check(event: &AuditEvent) -> Option<FlowCheck> {
        match event {
            AuditEvent::FlowChecked {
                source_context,
                destination_context,
                decision,
                data_item,
                ..
            } => Some((
                source_context.clone(),
                destination_context.clone(),
                decision.clone(),
                data_item.clone(),
            )),
            _ => None,
        }
    }

    /// Runs the case through a fresh dataplane (full audit detail); also returns the
    /// effective payload-byte count.
    fn observe_dataplane(case: &Case) -> (Observed, u64) {
        let config = DataplaneConfig { audit_detail: AuditDetail::Full, ..config() };
        let dataplane = Dataplane::new("equivalence", config);
        dataplane.register(endpoint("pub", &[])).unwrap();
        dataplane.register(endpoint("sub", &[])).unwrap();
        dataplane.allow_sends_to("sub");
        dataplane.register_schema(case.schema.clone()).unwrap();
        let (outcome, subscriber) =
            dataplane.subscribe_receiver("pub", "sub", &snap(), Timestamp(1)).unwrap();
        assert!(outcome.is_delivered());

        dataplane.set_context("pub", case.source.clone(), Timestamp(1)).unwrap();
        dataplane.set_context("sub", case.destination.clone(), Timestamp(1)).unwrap();
        dataplane.set_isolated("pub", case.isolated.0, Timestamp(1)).unwrap();
        dataplane.set_isolated("sub", case.isolated.1, Timestamp(1)).unwrap();
        if case.ac_denied {
            dataplane.with_access(|access| {
                access.add_rule("sub", AccessRule::deny(Subject::Anyone, Operation::Send, None));
            });
        }
        dataplane.publish_message("pub", &case.message, Timestamp(2)).unwrap();
        dataplane.drain();
        let stats = dataplane.stats();
        assert_eq!(stats.delivered + stats.denied, 1);
        let admission = dataplane.subscribe("pub", "sub", &snap(), Timestamp(3)).unwrap();
        let timeline = dataplane.shutdown().merged_timeline();

        let flow_checks: Vec<FlowCheck> =
            timeline.iter().filter_map(|record| flow_check(&record.event)).collect();
        let class = match (stats.delivered, flow_checks.is_empty()) {
            (1, _) => Class::Delivered,
            (_, true) => Class::RefusedBeforeFlow,
            (_, false) => Class::DeniedByIfc,
        };
        let quenched = timeline
            .iter()
            .filter_map(|record| match &record.event {
                AuditEvent::MessageQuenched { attributes, .. } => Some(attributes.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        let received = receive_all(&subscriber).into_iter().map(ReceivedMessage::thaw).collect();
        (Observed { class, quenched, received, flow_checks, admission }, stats.payload_bytes)
    }

    /// Runs the same case through the synchronous bus: `send`, then `try_recv`.
    fn observe_bus(case: &Case) -> Observed {
        let mut bus = Middleware::new("equivalence");
        bus.registry_mut().register(endpoint("pub", &[]));
        bus.registry_mut().register(endpoint("sub", &[]));
        bus.access_mut().add_rule("sub", AccessRule::allow(Subject::Anyone, Operation::Send, None));
        bus.registry_mut().register_schema(case.schema.clone());
        assert!(bus.establish_channel("pub", "sub", &snap(), Timestamp(1)).unwrap().is_delivered());

        // Straight into the registry: a control message would re-evaluate (and close)
        // the channel, and it is `send`'s own sequence that is under test.
        for (name, context, isolated) in
            [("pub", &case.source, case.isolated.0), ("sub", &case.destination, case.isolated.1)]
        {
            let component = bus.registry_mut().get_mut(name).unwrap();
            component.entity_mut().set_context_trusted(context.clone());
            component.set_isolated(isolated);
        }
        if case.ac_denied {
            let deny = AccessRule::deny(Subject::Anyone, Operation::Send, None);
            bus.access_mut().add_rule("sub", deny);
        }
        let outcome = bus.send("pub", "sub", case.message.clone(), &snap(), Timestamp(2)).unwrap();
        let (class, mut quenched) = match outcome {
            DeliveryOutcome::Delivered { quenched_attributes } => {
                (Class::Delivered, quenched_attributes)
            }
            DeliveryOutcome::Isolated | DeliveryOutcome::DeniedByAccessControl { .. } => {
                (Class::RefusedBeforeFlow, Vec::new())
            }
            DeliveryOutcome::DeniedByIfc(_) => (Class::DeniedByIfc, Vec::new()),
            other => panic!("the bus stopped outside the sequence: {other:?}"),
        };
        quenched.sort();
        let flow_checks: Vec<FlowCheck> =
            bus.audit().records().iter().filter_map(|record| flow_check(&record.event)).collect();
        let mut received: Vec<Message> = std::iter::from_fn(|| bus.try_recv("sub")).collect();
        // The one representational difference: the bus hands over the *effective*
        // context it audited, a thawed frozen message its own message-level context.
        for message in &mut received {
            assert_eq!(message.context, flow_checks[0].0);
            message.context = case.message.context.clone();
        }
        let admission = bus.establish_channel("pub", "sub", &snap(), Timestamp(3)).unwrap();
        Observed { class, quenched, received, flow_checks, admission }
    }

    proptest! {
        /// For random schemas (random sensitivity pattern), random values, random
        /// source, message-level and destination secrecy (hence random flow
        /// decisions and quench masks), isolation on either side and an allow or
        /// deny AC rule, the sharded dataplane and the synchronous bus — two drivers
        /// of the one `enforce` core — agree on the outcome class, the quenched
        /// attribute names, the received body, the `FlowChecked` evidence and channel
        /// re-admission; both agree with the model of the sequence; a delivered body
        /// is exactly the reference `Message::quenched` view, and the effective byte
        /// accounting equals `encoded_payload_len` of that view — a count that does
        /// not go through the frozen encoder.
        #[test]
        fn prop_bus_and_dataplane_agree_on_outcome_body_and_evidence(
            count in -1_000i64..1_000,
            level in 0.0f64..100.0,
            ok in proptest::bool::ANY,
            note in "[a-z ]{0,10}",
            who in "[a-z]{1,6}",
            sensitive_bits in 0u64..32,
            held_bits in 0u64..32,
            source_bits in 0u64..4,
            message_tagged in proptest::bool::ANY,
            held_flow_bits in 0u64..8,
            isolation in 0u8..6,
            access in 0u8..4,
        ) {
            // Five attributes; bit i of `sensitive_bits` gives attribute i the
            // message-level tag `tag-i`; bit i of `held_bits` puts `tag-i` in the
            // destination's secrecy label. The flow tags `flow-0`/`flow-1` (source
            // secrecy, by `source_bits`) and `flow-2` (message-level secrecy, when
            // `message_tagged`) are held by the destination per `held_flow_bits`.
            // One case in three isolates an endpoint, one in four denies by AC.
            let names = ["a-count", "b-level", "c-ok", "d-note", "e-who"];
            let kinds = [
                AttributeKind::Integer,
                AttributeKind::Float,
                AttributeKind::Bool,
                AttributeKind::Text,
                AttributeKind::Text,
            ];
            let mut schema = MessageSchema::new("mixed");
            for (index, (name, kind)) in names.iter().zip(kinds).enumerate() {
                if sensitive_bits & (1 << index) != 0 {
                    schema = schema.sensitive_attribute(
                        *name,
                        kind,
                        Label::from_names([format!("tag-{index}")]),
                    );
                } else {
                    schema = schema.attribute(*name, kind);
                }
            }
            let tags = |prefix: &str, bits: u64| {
                (0..5)
                    .filter(|index| bits & (1 << index) != 0)
                    .map(|index| format!("{prefix}-{index}"))
                    .collect::<Vec<String>>()
            };
            let secrecy = |names: Vec<String>| SecurityContext::from_names(names, Vec::<&str>::new());
            let message_bits = if message_tagged { 0b100 } else { 0 };
            let mut held = tags("tag", held_bits);
            held.extend(tags("flow", held_flow_bits));
            let message = Message::new("mixed", secrecy(tags("flow", message_bits)))
                .with("a-count", AttributeValue::Integer(count))
                .with("b-level", AttributeValue::Float(level))
                .with("c-ok", AttributeValue::Bool(ok))
                .with("d-note", AttributeValue::Text(note))
                .with("e-who", AttributeValue::Text(who));
            let case = Case {
                schema,
                message,
                source: secrecy(tags("flow", source_bits)),
                destination: secrecy(held),
                isolated: (isolation == 4, isolation == 5),
                ac_denied: access == 0,
            };

            let (on_dataplane, payload_bytes) = observe_dataplane(&case);
            let on_bus = observe_bus(&case);
            prop_assert_eq!(&on_dataplane, &on_bus);

            // The model of the sequence: isolation, then AC, then IFC over the
            // sender's secrecy joined with the message's.
            let flows = (source_bits | message_bits) & !held_flow_bits == 0;
            let expected_class = if case.isolated.0 || case.isolated.1 || case.ac_denied {
                Class::RefusedBeforeFlow
            } else if flows {
                Class::Delivered
            } else {
                Class::DeniedByIfc
            };
            prop_assert_eq!(on_bus.class, expected_class);
            prop_assert_eq!(
                on_bus.flow_checks.len(),
                usize::from(expected_class != Class::RefusedBeforeFlow)
            );
            if let Some((_, _, decision, data_item)) = on_bus.flow_checks.first() {
                prop_assert_eq!(decision.is_allowed(), flows);
                prop_assert_eq!(data_item.as_deref(), Some("mixed@2"));
            }
            if expected_class != Class::Delivered {
                prop_assert!(on_bus.received.is_empty() && on_bus.quenched.is_empty());
                prop_assert_eq!(payload_bytes, 0);
                return Ok(());
            }

            // The reference semantics: quench exactly the sensitive attributes whose
            // tag the destination does not hold.
            let expected_quenched: Vec<&str> = (0..5)
                .filter(|index| {
                    sensitive_bits & (1 << index) != 0 && held_bits & (1 << index) == 0
                })
                .map(|index| names[index as usize])
                .collect();
            let mut expected = case.message.quenched(expected_quenched.iter().copied());
            expected.sender = "pub".into();
            expected.sent_at_millis = 2;
            prop_assert_eq!(&on_bus.quenched, &expected_quenched);
            prop_assert_eq!(on_bus.received.len(), 1);
            prop_assert_eq!(&on_bus.received[0], &expected);
            prop_assert_eq!(payload_bytes, encoded_payload_len(&expected) as u64);
        }
    }

    /// The three endpoints of a control case: `pub → sub` carries the message, `via`
    /// is the intermediary of a `RouteVia`. Every flow among them is legal at first.
    const CONTROL_ENDPOINTS: [&str; 3] = ["pub", "sub", "via"];

    fn control_endpoint(name: &str) -> Component {
        let secrecy: &[&str] = if name == "sub" { &["s", "x"] } else { &["s"] };
        Component::builder(name, Principal::new("owner"))
            .context(SecurityContext::from_names(secrecy.iter().copied(), ["i"]))
            .build()
    }

    /// `Send` is open everywhere; `operator` may `Reconfigure` the endpoints of
    /// `allowed`, and nobody may on those of `denied` (a deny overrides an allow).
    fn control_rules(allowed: [bool; 3], denied: [bool; 3]) -> Vec<(&'static str, AccessRule)> {
        let mut rules = Vec::new();
        for (index, name) in CONTROL_ENDPOINTS.into_iter().enumerate() {
            rules.push((name, AccessRule::allow(Subject::Anyone, Operation::Send, None)));
            if allowed[index] {
                let operator = Subject::Principal("operator".into());
                rules.push((name, AccessRule::allow(operator, Operation::Reconfigure, None)));
            }
            if denied[index] {
                rules.push((name, AccessRule::deny(Subject::Anyone, Operation::Reconfigure, None)));
            }
        }
        rules
    }

    fn reading() -> Message {
        Message::new("reading", SecurityContext::public()).with("value", AttributeValue::Integer(7))
    }

    /// `(component, issuer, action, accepted)` of every `Reconfigured` record.
    type Reconfigured = (String, String, String, bool);

    fn reconfigured(records: &[legaliot::audit::AuditRecord]) -> Vec<Reconfigured> {
        let fields = |record: &legaliot::audit::AuditRecord| match &record.event {
            AuditEvent::Reconfigured { component, issued_by, action, accepted } => {
                Some((component.clone(), issued_by.clone(), action.clone(), *accepted))
            }
            _ => None,
        };
        records.iter().filter_map(fields).collect()
    }

    /// What an observer can tell of a control case on one driver.
    #[derive(Debug, PartialEq)]
    struct ControlObserved {
        outcomes: Vec<ControlOutcome>,
        records: Vec<Reconfigured>,
        /// Whether `sub` received the message `pub` sent after the command.
        delivered: bool,
    }

    /// The command through the dataplane's `handle_control`, then one publish by `pub`.
    fn control_on_dataplane(
        command: &ReconfigurationCommand,
        rules: &[(&str, AccessRule)],
    ) -> ControlObserved {
        let dataplane = Dataplane::new("equivalence", config());
        for name in CONTROL_ENDPOINTS {
            dataplane.register(control_endpoint(name)).unwrap();
        }
        dataplane.with_access(|access| {
            for (name, rule) in rules {
                access.add_rule(*name, rule.clone());
            }
        });
        let schema = MessageSchema::new("reading").attribute("value", AttributeKind::Integer);
        dataplane.register_schema(schema).unwrap();
        let (outcome, subscriber) =
            dataplane.subscribe_receiver("pub", "sub", &snap(), Timestamp(1)).unwrap();
        assert!(outcome.is_delivered());
        let outcomes = dataplane.handle_control(command, &snap(), Timestamp(2));
        dataplane.publish_message("pub", &reading(), Timestamp(3)).unwrap();
        dataplane.drain();
        let report = dataplane.shutdown();
        let records = reconfigured(report.control_audit.records());
        let delivered = !receive_all(&subscriber).is_empty();
        ControlObserved { outcomes, records, delivered }
    }

    /// The command through the bus's `handle_control`, then one `send` over `pub → sub`.
    /// The bus re-evaluates its channels after a step, so a channel still open must
    /// carry the message and a closed one must not.
    fn control_on_bus(
        command: &ReconfigurationCommand,
        rules: &[(&str, AccessRule)],
    ) -> ControlObserved {
        let mut bus = Middleware::new("equivalence");
        for name in CONTROL_ENDPOINTS {
            bus.registry_mut().register(control_endpoint(name));
        }
        for (name, rule) in rules {
            bus.access_mut().add_rule(*name, rule.clone());
        }
        let schema = MessageSchema::new("reading").attribute("value", AttributeKind::Integer);
        bus.registry_mut().register_schema(schema);
        assert!(bus.establish_channel("pub", "sub", &snap(), Timestamp(1)).unwrap().is_delivered());
        let outcomes = bus.handle_control(command, &snap(), Timestamp(2));
        let open = bus.has_open_channel("pub", "sub");
        let delivered = match bus.send("pub", "sub", reading(), &snap(), Timestamp(3)) {
            Ok(outcome) => outcome.is_delivered(),
            Err(MiddlewareError::ChannelClosed { .. }) => false,
            Err(other) => panic!("the bus refused the send: {other}"),
        };
        assert_eq!(open, delivered, "an open channel carries the message, a closed one not");
        assert_eq!(bus.try_recv("sub").is_some(), delivered);
        let records = reconfigured(bus.audit().records());
        ControlObserved { outcomes, records, delivered }
    }

    proptest! {
        /// A control message — `Isolate`, `Deisolate`, `SetSecurityContext`, `AddTag`,
        /// `RemoveTag`, `GrantPrivilege` / `RevokePrivilege` on unregistered tags, or a
        /// three-step `RouteVia` — from an issuer that holds a `Reconfigure` allow rule
        /// on the target or not, under a deny or not, is handled alike by the bus and
        /// the dataplane, the two drivers of the one reconfiguration core: equal
        /// outcomes, equal `Reconfigured` records, and the same fate for the next
        /// message. Both agree with the model: a step is applied iff the issuer is
        /// allowed on its target and no deny applies, and refused as `Unauthorised`
        /// otherwise.
        #[test]
        fn prop_bus_and_dataplane_agree_on_control_messages(
            is_operator in proptest::bool::ANY,
            allowed_bits in 0u8..8,
            denied_bits in 0u8..8,
            kind in 0u8..8,
            on_sub in proptest::bool::ANY,
            tag in 0usize..4,
            secrecy in proptest::bool::ANY,
            secrecy_bits in 0u8..8,
            integrity in proptest::bool::ANY,
            privilege_kind in 0usize..4,
        ) {
            use legaliot::ifc::{Privilege, PrivilegeKind, Tag};
            let bits = |bits: u8| [0, 1, 2].map(|index| bits & (1 << index) != 0);
            let (allowed, denied) = (bits(allowed_bits), bits(denied_bits));
            let target = if on_sub { "sub" } else { "pub" };
            let component = target.to_string();
            let tag = Tag::new(["s", "x", "y", "i"][tag]);
            let kinds = [
                PrivilegeKind::SecrecyAdd,
                PrivilegeKind::SecrecyRemove,
                PrivilegeKind::IntegrityAdd,
                PrivilegeKind::IntegrityRemove,
            ];
            let privilege = Privilege::new(tag.clone(), kinds[privilege_kind]);
            let action = match kind {
                0 => Action::Isolate { component },
                1 => Action::Deisolate { component },
                2 => {
                    let secrecy = ["s", "x", "y"]
                        .into_iter()
                        .zip(bits(secrecy_bits))
                        .filter_map(|(name, held)| held.then_some(name));
                    let integrity: &[&str] = if integrity { &["i"] } else { &[] };
                    let context = SecurityContext::from_names(secrecy, integrity.iter().copied());
                    Action::SetSecurityContext { component, context }
                }
                3 => Action::AddTag { component, tag, secrecy },
                4 => Action::RemoveTag { component, tag, secrecy },
                5 => Action::GrantPrivilege { component, privilege },
                6 => Action::RevokePrivilege { component, privilege },
                _ => Action::RouteVia { from: "pub".into(), via: "via".into(), to: "sub".into() },
            };
            let issuer = if is_operator { "operator" } else { "stranger" };
            let command = ReconfigurationCommand::new("p", issuer, action, 2);
            let rules = control_rules(allowed, denied);

            let on_dataplane = control_on_dataplane(&command, &rules);
            let on_bus = control_on_bus(&command, &rules);
            prop_assert_eq!(&on_dataplane, &on_bus);

            // The model: each step's target, and whether the issuer may change it.
            let targets: Vec<&str> = match &command.action {
                Action::RouteVia { .. } => vec!["pub", "via", "pub"],
                _ => vec![target],
            };
            let authorised = |name: &str| {
                let index = CONTROL_ENDPOINTS.iter().position(|n| *n == name).unwrap();
                is_operator && allowed[index] && !denied[index]
            };
            prop_assert_eq!(on_bus.outcomes.len(), targets.len());
            prop_assert_eq!(on_bus.records.len(), targets.len());
            let steps = on_bus.outcomes.iter().zip(&on_bus.records).zip(&targets);
            for ((outcome, record), target) in steps {
                prop_assert_eq!(outcome.is_applied(), authorised(target));
                prop_assert!(
                    outcome.is_applied() || matches!(outcome, ControlOutcome::Unauthorised { .. })
                );
                prop_assert_eq!((record.0.as_str(), record.1.as_str()), (*target, issuer));
                prop_assert_eq!(record.3, outcome.is_applied());
            }
        }
    }
}
