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
use std::sync::Arc;
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
/// views were quenched — and unquenched views share the very `Arc` the publisher
/// froze (no per-subscriber allocation at all).
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
    // Unquenched views are the same shared message object.
    assert!(Arc::ptr_eq(frozen_a, frozen_b));
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
    use proptest::prelude::*;

    /// Runs one publish through a fresh dataplane and returns what the subscriber
    /// received (thawed) plus the effective payload-byte count.
    fn observe(
        schema: &MessageSchema,
        message: &Message,
        destination_secrecy: &[String],
    ) -> (Vec<Message>, u64) {
        let dataplane = Dataplane::new("equivalence", config());
        dataplane.register(endpoint("pub", &[])).unwrap();
        let secrecy: Vec<&str> = destination_secrecy.iter().map(String::as_str).collect();
        dataplane.register(endpoint("sub", &secrecy)).unwrap();
        dataplane.allow_sends_to("sub");
        dataplane.register_schema(schema.clone()).unwrap();
        let (outcome, subscriber) =
            dataplane.subscribe_receiver("pub", "sub", &snap(), Timestamp(1)).unwrap();
        assert!(outcome.is_delivered());
        dataplane.publish_message("pub", message, Timestamp(2)).unwrap();
        dataplane.drain();
        let payload_bytes = dataplane.stats().payload_bytes;
        dataplane.shutdown();
        let received = receive_all(&subscriber).into_iter().map(ReceivedMessage::thaw).collect();
        (received, payload_bytes)
    }

    proptest! {
        /// Satellite: for random schemas (random sensitivity pattern), random values
        /// and random destination contexts (hence random quench masks), a subscriber
        /// receives exactly the reference `Message::quenched` view of the message,
        /// and the effective byte accounting equals `encoded_payload_len` of that
        /// view — a count that does not go through the frozen encoder.
        #[test]
        fn prop_subscriber_observations_agree_across_payload_modes(
            count in -1_000i64..1_000,
            level in 0.0f64..100.0,
            ok in proptest::bool::ANY,
            note in "[a-z ]{0,10}",
            who in "[a-z]{1,6}",
            sensitive_bits in 0u64..32,
            held_bits in 0u64..32,
        ) {
            // Five attributes; bit i of `sensitive_bits` gives attribute i the
            // message-level tag `tag-i`; bit i of `held_bits` puts `tag-i` in the
            // destination's secrecy label.
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
            let held: Vec<String> = (0..5)
                .filter(|index| held_bits & (1 << index) != 0)
                .map(|index| format!("tag-{index}"))
                .collect();
            let message = Message::new("mixed", SecurityContext::public())
                .with("a-count", AttributeValue::Integer(count))
                .with("b-level", AttributeValue::Float(level))
                .with("c-ok", AttributeValue::Bool(ok))
                .with("d-note", AttributeValue::Text(note))
                .with("e-who", AttributeValue::Text(who));

            let (received, payload_bytes) = observe(&schema, &message, &held);

            // The reference semantics: quench exactly the sensitive attributes whose
            // tag the destination does not hold.
            let expected_quenched: Vec<&str> = (0..5)
                .filter(|index| {
                    sensitive_bits & (1 << index) != 0 && held_bits & (1 << index) == 0
                })
                .map(|index| names[index as usize])
                .collect();
            let mut expected = message.quenched(expected_quenched.iter().copied());
            expected.sender = "pub".into();
            expected.sent_at_millis = 2;
            prop_assert_eq!(received.len(), 1);
            prop_assert_eq!(&received[0], &expected);
            prop_assert_eq!(payload_bytes, encoded_payload_len(&expected) as u64);
        }
    }
}
