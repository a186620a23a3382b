//! # legaliot-dataplane
//!
//! A sharded publish/subscribe enforcement engine on top of the
//! `legaliot` middleware stack — the paper's §8.2.2 enforcement model (admission checks
//! at channel establishment, IFC on every message, re-evaluation when a security
//! context changes) scaled from a synchronous single-threaded bus to a multi-threaded
//! dataplane.
//!
//! Architecture (see the README's "Dataplane & scaling" section for the full picture):
//!
//! * **Sharding** — components hash onto `N` worker shards by name; each shard runs its
//!   own thread and enforces the traffic of the subscribers it owns, in one loop a
//!   supervisor restarts after a panic and a degraded shard keeps running to evidence
//!   what it was handed as lost. Ingress queues are bounded
//!   ([`queue::BoundedQueue`], the one bounded hand-off — mailboxes are the same type):
//!   a full queue blocks the publisher.
//! * **One way in, zero-copy** — every delivery is a typed message:
//!   [`Dataplane::publish_message`] validates and freezes it once at
//!   ingress ([`legaliot_middleware::FrozenMessage`]: one reference-counted body
//!   holding the schema's interned name table, context, sender, send time and a
//!   single-buffer [`Payload`](legaliot_middleware::Payload)) and fans handles on it
//!   out to the shards. The body is refilled in place from an engine-wide
//!   [`legaliot_middleware::BodyRing`] once every receiver has dropped it, and a
//!   delivery travels by value from the publish to the mailbox, so in steady state
//!   neither the publisher nor a shard allocates per message. Per-delivery source
//!   quenching (Fig. 10) is the schema's bitmask over the shared body instead of a map
//!   clone; quenched attribute names are evidenced in the per-shard audit
//!   ([`legaliot_audit::AuditEvent::MessageQuenched`]).
//! * **Endpoint handles** — an endpoint is filed under its name's id in the
//!   process-wide name table ([`legaliot_context::Name`]), the id its component's
//!   [`legaliot_middleware::Party`] already holds for the access regime: one number per
//!   name in every engine, for the life of the process. Subscription edges, queued
//!   deliveries and pair summaries carry ids, shards resolve them by index, and a
//!   name's text is read back from the table only where an audit record is written —
//!   no name reference count is touched per message, and no directory lock is taken
//!   to name an endpoint in evidence.
//! * **No decision caches** — a shard asks the access regime, [`legaliot_ifc::can_flow`]
//!   and the schema's quench mask directly for every delivery, against the directory
//!   and a context snapshot refreshed once per batch. Each answer costs about what a
//!   cache probe did, and the paper's re-evaluation on context change (§8.2.2) needs
//!   nothing beyond the change itself: [`Dataplane::set_context`] is one directory
//!   write, a [`legaliot_context::ContextStore::set`] or a rule edit is in force from
//!   each shard's next batch, and no shard subscribes to anything.
//! * **A control plane that costs what it changes** — a context snapshot is a
//!   reference-count bump on the store's copy-on-write map, a change-feed poll visits
//!   only unseen changes, and `deregister` follows the leaver's own edges (each
//!   endpoint keeps its publishers beside its subscribers), so joins, leaves and
//!   rule updates do not slow as the fleet grows
//!   (`tests/control_plane_scaling.rs`).
//! * **Batched, tamper-evident audit** — every shard, and the control plane, keeps its
//!   own hash-chained trail, each opened, written and sealed the same way
//!   ([`legaliot_audit::BatchedAppender`], persisted side by side when durable); in
//!   [`AuditDetail::Summarised`] mode repeated checks of a pair fold into one
//!   `FlowSummary` record (whose counts total every check in the window) while IFC
//!   denials and the pair's first allowed check of each message type under its
//!   current contexts stay individually recorded — a trail that depends on the
//!   message stream alone, which `legaliot-fleet`'s model predicts record for record.
//! * **One enforcement core** — subscriptions and every shard delivery call the
//!   sequence the bus calls, [`legaliot_middleware::admission::enforce`] (isolation →
//!   access control → IFC); admission is audited on a control-plane log.
//! * **Streaming receivers** — [`Dataplane::open_subscriber`] /
//!   [`Dataplane::subscribe_receiver`] hand consumers a [`Subscriber`] over a bounded
//!   per-endpoint mailbox ([`subscriber`]) — a `BoundedQueue` of deliveries, closed
//!   when the handle goes: enforced, post-quench bodies arrive as
//!   handles on the body the publisher froze (zero-copy end to end), with
//!   `recv`/`try_recv`/`recv_timeout`/`drain` receives and a configurable overflow
//!   policy — block the shard (lossless backpressure) or drop-oldest with counted,
//!   audited [`legaliot_audit::AuditEvent::DeliveryDropped`] evidence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod queue;
pub mod subscriber;
pub mod telemetry;
pub mod topologies;

mod failpoint;
mod shard;

pub use engine::{
    AuditDetail, Dataplane, DataplaneConfig, DataplaneError, DataplaneReport, PayloadMode,
    PersistenceConfig,
};
pub use legaliot_obs::{FailpointRegistry, FailpointSite, FailpointSpec, FaultKind};
pub use queue::QueueContention;
pub use subscriber::{
    OverflowPolicy, ReceivedMessage, RecvError, RecvTimeoutError, Subscriber, TryRecvError,
};
pub use telemetry::{DataplaneStats, ShardTelemetrySnapshot, Stage, TelemetrySnapshot};
pub use topologies::{payload_schema, smart_city, smart_home, Topology, TopologyBuilder};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use legaliot_context::{ContextSnapshot, Name, Timestamp};
    use legaliot_ifc::SecurityContext;
    use legaliot_middleware::{Component, DeliveryOutcome, Principal, ReconfigurationCommand};

    fn snap() -> ContextSnapshot {
        ContextSnapshot::default()
    }

    fn endpoint(name: &str, secrecy: &[&str]) -> Component {
        Component::builder(name, Principal::new("owner"))
            .context(SecurityContext::from_names(secrecy.iter().copied(), Vec::<&str>::new()))
            .build()
    }

    /// A 2-shard dataplane with four endpoints and two legal channels a→b, c→d, where
    /// every endpoint has a distinct security context, and the schema of a `tick`: no
    /// attribute, so nothing to quench.
    fn two_pair_plane(config: DataplaneConfig) -> Dataplane {
        let dataplane = Dataplane::new("test", config);
        dataplane.register_schema(legaliot_middleware::MessageSchema::new("tick")).unwrap();
        for (name, secrecy) in [
            ("a", vec!["t"]),
            ("b", vec!["t", "b-only"]),
            ("c", vec!["u"]),
            ("d", vec!["u", "d-only"]),
        ] {
            let secrecy: Vec<&str> = secrecy;
            dataplane.register(endpoint(name, &secrecy)).unwrap();
            dataplane.allow_sends_to(name);
        }
        assert!(dataplane.subscribe("a", "b", &snap(), Timestamp(1)).unwrap().is_delivered());
        assert!(dataplane.subscribe("c", "d", &snap(), Timestamp(1)).unwrap().is_delivered());
        dataplane
    }

    /// Publishes one `tick` from `publisher`.
    fn tick(dataplane: &Dataplane, publisher: &str, at: u64) -> Result<usize, DataplaneError> {
        let tick = legaliot_middleware::Message::new("tick", SecurityContext::public());
        dataplane.publish_message(publisher, &tick, Timestamp(at))
    }

    /// Every shard's `FlowChecked` records as `(source, destination, send time)`, in
    /// shard then chain order.
    fn flow_checks(report: &DataplaneReport) -> Vec<(String, String, u64)> {
        use legaliot_audit::AuditEvent;
        let records = report.shard_audit.iter().flat_map(|log| log.records());
        records
            .filter_map(|record| match &record.event {
                AuditEvent::FlowChecked { source, destination, .. } => {
                    Some((source.clone(), destination.clone(), record.at_millis))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn publish_enforces_and_counts() {
        let dataplane = two_pair_plane(DataplaneConfig::default());
        for round in 0..10 {
            tick(&dataplane, "a", 10 + round).unwrap();
            tick(&dataplane, "c", 10 + round).unwrap();
        }
        dataplane.drain();
        let stats = dataplane.stats();
        assert_eq!(stats.published, 20);
        assert_eq!(stats.delivered, 20);
        assert_eq!(stats.denied, 0);
        // Two pairs, one message type, contexts unchanged: each pair's first check is
        // written in full and the other nine fold into its summary.
        let mut checks = flow_checks(&dataplane.shutdown());
        checks.sort();
        assert_eq!(checks, [("a".into(), "b".into(), 10), ("c".into(), "d".into(), 10)]);
    }

    /// Acceptance criterion: a context change re-judges exactly the affected entity —
    /// its next message is checked against the new context and evidenced in full,
    /// while an unrelated pair goes on folding into its summary.
    #[test]
    fn context_change_invalidates_exactly_the_affected_entity() {
        let dataplane = two_pair_plane(DataplaneConfig::default());
        for at in [10, 11] {
            tick(&dataplane, "a", at).unwrap();
            tick(&dataplane, "c", at).unwrap();
        }
        dataplane.drain();

        // `a` changes context (still flow-legal into b): its next check is a new one.
        let moved = SecurityContext::from_names(["t", "b-only"], Vec::<&str>::new());
        dataplane.set_context("a", moved.clone(), Timestamp(12)).unwrap();
        tick(&dataplane, "a", 13).unwrap();
        tick(&dataplane, "c", 13).unwrap();
        dataplane.drain();
        assert_eq!(dataplane.stats().delivered, 6);

        // One full record per pair before the change, and exactly one after it: a→b,
        // judged over `a`'s new context.
        let report = dataplane.shutdown();
        let mut checks = flow_checks(&report);
        checks.sort();
        let expected = [("a", "b", 10), ("a", "b", 13), ("c", "d", 10)];
        assert_eq!(checks, expected.map(|(s, d, at)| (s.to_string(), d.to_string(), at)));
        let after = report.merged_timeline().into_iter().find_map(|record| match record.event {
            legaliot_audit::AuditEvent::FlowChecked { source_context, .. }
                if record.at_millis == 13 =>
            {
                Some(source_context)
            }
            _ => None,
        });
        assert_eq!(after, Some(moved));
    }

    /// A control call never waits on data-path backpressure: with one shard parked and
    /// its ingress queue full, a context change on another shard's endpoint returns at
    /// once.
    #[test]
    fn set_context_never_waits_on_a_full_ingress_queue() {
        use std::time::Duration;

        let dataplane =
            Dataplane::new("parked", DataplaneConfig { shards: 2, ..Default::default() });
        dataplane.register_schema(legaliot_middleware::MessageSchema::new("tick")).unwrap();
        let candidates = ["n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8", "n9"];
        let on = |shard| *candidates.iter().find(|name| dataplane.shard_of(name) == shard).unwrap();
        let (parked, elsewhere) = (on(0), on(1));
        for name in ["pub", parked, elsewhere] {
            dataplane.register(endpoint(name, &["t"])).unwrap();
            dataplane.allow_sends_to(name);
        }
        assert!(dataplane.subscribe("pub", parked, &snap(), Timestamp(1)).unwrap().is_delivered());
        let barrier = dataplane.block_shard(0);
        // Shard 0's ingress holds 4096 tasks: the next push would block.
        for at in 0..4096 {
            assert_eq!(tick(&dataplane, "pub", 10 + at), Ok(1));
        }
        let (done, returned) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let dataplane = &dataplane;
            scope.spawn(move || {
                let context = SecurityContext::from_names(["t", "moved"], Vec::<&str>::new());
                dataplane.set_context(elsewhere, context, Timestamp(9)).unwrap();
                done.send(()).unwrap();
            });
            let outcome = returned.recv_timeout(Duration::from_secs(1));
            // Unpark the shard either way, so a hung call finishes and the test ends.
            barrier.wait();
            assert!(outcome.is_ok(), "set_context waited on shard 0's full ingress queue");
        });
        dataplane.drain();
        assert_eq!(dataplane.stats().delivered, 4096);
    }

    /// §8.2.2 re-evaluation semantics: after a context change makes an established
    /// channel illegal, the very next message on it is denied (and audited), without
    /// any re-subscription step.
    #[test]
    fn context_change_reevaluates_established_channels() {
        let config =
            DataplaneConfig { audit_detail: AuditDetail::Summarised, ..DataplaneConfig::default() };
        let dataplane = two_pair_plane(config);
        tick(&dataplane, "a", 10).unwrap();
        dataplane.drain();
        assert_eq!(dataplane.stats().delivered, 1);

        // `a` gains a secrecy tag `b` does not hold: a→b becomes illegal.
        dataplane
            .set_context(
                "a",
                SecurityContext::from_names(["t", "quarantine"], Vec::<&str>::new()),
                Timestamp(11),
            )
            .unwrap();
        tick(&dataplane, "a", 12).unwrap();
        dataplane.drain();
        let stats = dataplane.stats();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.denied, 1);

        // The denial is individually evidenced even in summarised mode, and every
        // shard chain verifies.
        let report = dataplane.shutdown();
        let denied_records: usize =
            report.shard_audit.iter().map(|log| log.denied_flows().count()).sum();
        assert_eq!(denied_records, 1);
        for log in &report.shard_audit {
            assert!(log.verify_chain().is_intact());
        }
        assert!(report.control_audit.verify_chain().is_intact());
        // The control log evidences the subscriptions and the label change.
        use legaliot_audit::AuditEventKind;
        assert_eq!(report.control_audit.of_kind(AuditEventKind::ChannelChanged).count(), 2);
        assert_eq!(report.control_audit.of_kind(AuditEventKind::LabelChanged).count(), 1);
    }

    #[test]
    fn subscription_admission_refuses_illegal_edges() {
        let dataplane = two_pair_plane(DataplaneConfig::default());
        // b→a is an illegal flow (a lacks `b-only`): admission refuses, no subscription.
        let outcome = dataplane.subscribe("b", "a", &snap(), Timestamp(2)).unwrap();
        assert!(matches!(outcome, DeliveryOutcome::DeniedByIfc(_)));
        assert_eq!(tick(&dataplane, "b", 3).unwrap(), 0);
        // An endpoint with no AC rule is default-deny.
        dataplane.register(endpoint("locked", &["t"])).unwrap();
        let outcome = dataplane.subscribe("a", "locked", &snap(), Timestamp(4)).unwrap();
        assert!(matches!(outcome, DeliveryOutcome::DeniedByAccessControl { .. }));
        // Unknown endpoints are errors, not outcomes.
        assert_eq!(
            dataplane.subscribe("ghost", "a", &snap(), Timestamp(5)),
            Err(DataplaneError::UnknownEndpoint { name: "ghost".into() })
        );
        assert_eq!(
            tick(&dataplane, "ghost", 6),
            Err(DataplaneError::UnknownEndpoint { name: "ghost".into() })
        );
    }

    #[test]
    fn isolation_denies_in_flight_traffic() {
        let dataplane = two_pair_plane(DataplaneConfig::default());
        dataplane.set_isolated("b", true, Timestamp(9)).unwrap();
        tick(&dataplane, "a", 10).unwrap();
        dataplane.drain();
        assert_eq!(dataplane.stats().denied, 1);
        dataplane.set_isolated("b", false, Timestamp(11)).unwrap();
        tick(&dataplane, "a", 12).unwrap();
        dataplane.drain();
        assert_eq!(dataplane.stats().delivered, 1);

        // The isolation change is control-plane evidence, and the denied delivery is
        // totalled in the pair summary.
        let report = dataplane.shutdown();
        use legaliot_audit::AuditEvent;
        let actions: Vec<_> = report
            .control_audit
            .records()
            .iter()
            .filter_map(|r| match &r.event {
                AuditEvent::Reconfigured { action, .. } => Some(action.as_str()),
                _ => None,
            })
            .collect();
        // Spelt as the bus spells the same change.
        assert_eq!(actions, ["isolate b", "deisolate b"]);
        let summary = report
            .merged_timeline()
            .into_iter()
            .find_map(|r| match r.event {
                AuditEvent::FlowSummary { ref source, allowed, denied, .. } if source == "a" => {
                    Some((allowed, denied))
                }
                _ => None,
            })
            .expect("pair summary present");
        assert_eq!(summary, (1, 1));
    }

    #[test]
    fn unsubscribe_and_deregister_stop_fanout() {
        let dataplane = two_pair_plane(DataplaneConfig::default());
        dataplane.unsubscribe("a", "b", Timestamp(9)).unwrap();
        assert_eq!(tick(&dataplane, "a", 10).unwrap(), 0);
        dataplane.deregister("d").unwrap();
        assert_eq!(tick(&dataplane, "c", 11).unwrap(), 0);
        assert_eq!(
            dataplane.deregister("d"),
            Err(DataplaneError::UnknownEndpoint { name: "d".into() })
        );
        assert_eq!(
            dataplane.register(endpoint("a", &["t"])),
            Err(DataplaneError::DuplicateEndpoint { name: "a".into() })
        );
    }

    /// An edge `unsubscribe` removes never vanishes without evidence: removing one
    /// writes the bus's teardown record on the control-plane log, and removing an
    /// absent one (an edge never made, already removed, or to a name never registered)
    /// writes nothing. `deregister` is the exception: it drops a leaver's edges with no
    /// record, as it is given no time to stamp one.
    #[test]
    fn unsubscribe_evidences_each_removed_edge() {
        use legaliot_audit::AuditEvent;
        let dataplane = two_pair_plane(DataplaneConfig::default());
        dataplane.unsubscribe("a", "b", Timestamp(5)).unwrap();
        dataplane.unsubscribe("a", "b", Timestamp(6)).unwrap();
        dataplane.unsubscribe("a", "d", Timestamp(7)).unwrap();
        dataplane.unsubscribe("a", "ghost", Timestamp(8)).unwrap();
        let report = dataplane.shutdown();
        let records = report.control_audit.records();
        // Two subscriptions, then the one removal.
        assert_eq!(records.len(), 3);
        assert_eq!(records[2].at_millis, 5);
        assert_eq!(
            records[2].event,
            AuditEvent::ChannelChanged {
                from: "a".into(),
                to: "b".into(),
                established: false,
                reason: "torn down".into(),
            }
        );
        assert_eq!(records[2].event, legaliot_middleware::bus::teardown_evidence("a", "b"));
        assert!(report.control_audit.verify_chain().is_intact());
    }

    /// A control message issued by `authority`.
    fn command(authority: &str, action: legaliot_middleware::Action) -> ReconfigurationCommand {
        ReconfigurationCommand::new("p", authority, action, 0)
    }

    /// Every `Reconfigured` record of a log, in order.
    fn reconfigured(log: &legaliot_audit::AuditLog) -> Vec<legaliot_audit::AuditEvent> {
        let kind = legaliot_audit::AuditEventKind::Reconfigured;
        log.of_kind(kind).map(|record| record.event.clone()).collect()
    }

    /// The rule that lets `issuer` reconfigure the component it is added to.
    fn reconfigure_rule(issuer: &str) -> legaliot_middleware::AccessRule {
        use legaliot_middleware::{AccessRule, Operation, Subject};
        AccessRule::allow(Subject::Principal(issuer.into()), Operation::Reconfigure, None)
    }

    /// A control message from an issuer with no `Reconfigure` rule changes nothing: the
    /// step is `Unauthorised`, its record is on the control-plane log as not accepted,
    /// and the endpoint it would have isolated still receives. An unknown target is
    /// the step's outcome, not an error.
    #[test]
    fn an_unauthorised_control_message_is_refused_and_evidenced() {
        use legaliot_audit::AuditEvent;
        use legaliot_middleware::{Action, ControlOutcome};
        let dataplane = two_pair_plane(DataplaneConfig::default());
        let isolate = command("rogue", Action::Isolate { component: "b".into() });
        assert_eq!(
            dataplane.handle_control(&isolate, &snap(), Timestamp(5)),
            [ControlOutcome::Unauthorised {
                reason: "no allow rule matches rogue performing reconfigure on `b`".into()
            }]
        );
        let ghost = command("rogue", Action::Isolate { component: "ghost".into() });
        assert_eq!(
            dataplane.handle_control(&ghost, &snap(), Timestamp(6)),
            [ControlOutcome::UnknownTarget]
        );
        assert_eq!(tick(&dataplane, "a", 7).unwrap(), 1);
        dataplane.drain();
        assert_eq!((dataplane.stats().delivered, dataplane.stats().denied), (1, 0));

        let report = dataplane.shutdown();
        let refused = |component: &str| AuditEvent::Reconfigured {
            component: component.into(),
            issued_by: "rogue".into(),
            action: format!("isolate {component}"),
            accepted: false,
        };
        assert_eq!(reconfigured(&report.control_audit), [refused("b"), refused("ghost")]);
        assert!(report.control_audit.verify_chain().is_intact());
    }

    /// An authorised `RouteVia` is three applied steps with three records, and leaves
    /// the dataplane's edges where the bus leaves its open channels for the same
    /// command: the two drivers of the one reconfiguration core agree.
    #[test]
    fn route_via_moves_the_edges_the_bus_moves_its_channels() {
        use legaliot_middleware::{
            AccessRule, Action, ControlOutcome, Middleware, Operation, Subject,
        };
        let dataplane = two_pair_plane(DataplaneConfig::default());
        // The via endpoint `v` may receive from `a` and send to `b`.
        dataplane.register(endpoint("v", &["t"])).unwrap();
        dataplane.allow_sends_to("v");
        let mut bus = Middleware::new("test");
        let secrecy: [(&str, &[&str]); 5] = [
            ("a", &["t"]),
            ("b", &["t", "b-only"]),
            ("c", &["u"]),
            ("d", &["u", "d-only"]),
            ("v", &["t"]),
        ];
        for (name, secrecy) in secrecy {
            bus.registry_mut().register(endpoint(name, secrecy));
            let send = AccessRule::allow(Subject::Anyone, Operation::Send, None);
            bus.access_mut().add_rule(name, send);
            bus.access_mut().add_rule(name, reconfigure_rule("operator"));
            dataplane.with_access(|access| access.add_rule(name, reconfigure_rule("operator")));
        }
        for (from, to) in [("a", "b"), ("c", "d")] {
            assert!(bus.establish_channel(from, to, &snap(), Timestamp(1)).unwrap().is_delivered());
        }
        let route = command(
            "operator",
            Action::RouteVia { from: "a".into(), via: "v".into(), to: "b".into() },
        );
        let outcomes = dataplane.handle_control(&route, &snap(), Timestamp(2));
        assert!(outcomes.len() == 3 && outcomes.iter().all(ControlOutcome::is_applied));
        assert_eq!(bus.handle_control(&route, &snap(), Timestamp(2)), outcomes);

        let open: Vec<(String, String)> = bus
            .channels()
            .into_iter()
            .filter(|channel| bus.has_open_channel(&channel.from, &channel.to))
            .map(|channel| (channel.from, channel.to))
            .collect();
        let [forward, inverse] = dataplane.edges_both_ways();
        assert_eq!(forward, open);
        assert_eq!(inverse, open);
        let pairs = |edges: &[(&str, &str)]| -> Vec<(String, String)> {
            edges.iter().map(|(from, to)| (from.to_string(), to.to_string())).collect()
        };
        assert_eq!(open, pairs(&[("a", "v"), ("c", "d"), ("v", "b")]));

        let report = dataplane.shutdown();
        let records = reconfigured(&report.control_audit);
        assert_eq!(records.len(), 3);
        assert_eq!(records, reconfigured(bus.audit()));
    }

    /// `set_isolated` is one reconfiguration step under the engine's own authority:
    /// its record is the bus's record for an applied `Isolate` / `Deisolate` issued in
    /// the engine's name, field for field.
    #[test]
    fn set_isolated_writes_the_record_the_bus_writes() {
        use legaliot_middleware::{Action, Middleware};
        let dataplane = two_pair_plane(DataplaneConfig::default());
        dataplane.set_isolated("b", true, Timestamp(5)).unwrap();
        dataplane.set_isolated("b", false, Timestamp(6)).unwrap();
        assert_eq!(
            dataplane.set_isolated("ghost", true, Timestamp(7)),
            Err(DataplaneError::UnknownEndpoint { name: "ghost".into() })
        );
        let mut bus = Middleware::new("bus");
        bus.registry_mut().register(endpoint("b", &["t", "b-only"]));
        bus.access_mut().add_rule("b", reconfigure_rule("test"));
        for (action, at) in [
            (Action::Isolate { component: "b".into() }, 5),
            (Action::Deisolate { component: "b".into() }, 6),
        ] {
            bus.handle_control(&command("test", action), &snap(), Timestamp(at));
        }
        let report = dataplane.shutdown();
        let from_engine = reconfigured(&report.control_audit);
        assert_eq!(from_engine.len(), 2);
        assert_eq!(from_engine, reconfigured(bus.audit()));
    }

    /// `publishers` is the exact inverse of `subscribers` after any sequence of
    /// subscribe / unsubscribe / deregister / re-register, checked against a plain
    /// edge set; a name that leaves and comes back inherits no edge — but it is filed
    /// under its id again: every endpoint sits under its name's id, the one its party
    /// holds, which reads back as its name (asserted inside `edges_both_ways`).
    #[test]
    fn publishers_stay_the_exact_inverse_of_subscribers() {
        use std::collections::BTreeSet;
        const NAMES: [&str; 6] = ["n0", "n1", "n2", "n3", "n4", "n5"];
        for seed in 1..=4u64 {
            let config = DataplaneConfig { shards: 2, ..DataplaneConfig::default() };
            let dataplane = Dataplane::new("edges", config);
            let mut registered: BTreeSet<&str> = BTreeSet::new();
            let mut model: BTreeSet<(String, String)> = BTreeSet::new();
            // The id each name had when it first registered.
            let mut first_ids: std::collections::BTreeMap<&str, u32> = Default::default();
            // SplitMix64: a fixed, seed-replayable operation stream.
            let mut state = seed;
            let mut next = move |bound: usize| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                ((z ^ (z >> 31)) % bound as u64) as usize
            };
            for step in 0..400u64 {
                let (from, to) = (NAMES[next(NAMES.len())], NAMES[next(NAMES.len())]);
                match next(8) {
                    0 | 1 => {
                        let fresh = dataplane.register(endpoint(from, &["t"])).is_ok();
                        assert_eq!(fresh, registered.insert(from));
                        dataplane.allow_sends_to(from);
                    }
                    2 => {
                        assert_eq!(dataplane.deregister(from).is_ok(), registered.remove(from));
                        model.retain(|(publisher, subscriber)| {
                            publisher != from && subscriber != from
                        });
                    }
                    3 => {
                        let known = dataplane.unsubscribe(from, to, Timestamp(step)).is_ok();
                        assert_eq!(known, registered.contains(from));
                        model.remove(&(from.to_string(), to.to_string()));
                    }
                    // Same context and open rules everywhere: every edge (a
                    // self-subscription too) is admitted, repeats are idempotent.
                    _ => match dataplane.subscribe(from, to, &snap(), Timestamp(step)) {
                        Ok(outcome) => {
                            assert!(outcome.is_delivered());
                            model.insert((from.to_string(), to.to_string()));
                        }
                        Err(_) => {
                            assert!(!registered.contains(from) || !registered.contains(to));
                        }
                    },
                }
                let [forward, inverse] = dataplane.edges_both_ways();
                let expected: Vec<(String, String)> = model.iter().cloned().collect();
                assert_eq!(forward, expected, "seed {seed} step {step}");
                assert_eq!(inverse, expected, "seed {seed} step {step}");
                for &name in &registered {
                    let id = Name::lookup(name).expect("a registered name is interned").id();
                    let first = *first_ids.entry(name).or_insert(id);
                    assert_eq!(id, first, "a name keeps its id: seed {seed} step {step}");
                }
            }
        }
    }

    /// The store an engine creates for itself records no change — the engine holds no
    /// change-feed cursor, so no one would read one — and both shards judge every burst
    /// under the value its last write left.
    #[test]
    fn own_store_history_stays_within_its_retention_with_no_cursor() {
        use legaliot_middleware::{AccessRule, Operation, Subject};
        use legaliot_policy::Condition;

        const BURST: usize = 100;
        let config = DataplaneConfig { shards: 2, ..DataplaneConfig::default() };
        let dataplane = Dataplane::new("bounded-history", config);
        let store = Arc::clone(dataplane.context_store());
        dataplane.register(endpoint("pub", &["t"])).unwrap();
        // One subscriber per shard, each guarded by a rule reading the churned key.
        let candidates = ["s-alpha", "s-beta", "s-gamma", "s-delta", "s-epsilon", "s-zeta"];
        let subscribers: Vec<&str> = (0..2)
            .map(|shard| *candidates.iter().find(|name| dataplane.shard_of(name) == shard).unwrap())
            .collect();
        store.set("load", 10i64, Timestamp(0));
        for name in &subscribers {
            dataplane.register(endpoint(name, &["t", "sink"])).unwrap();
            dataplane.with_access(|access| {
                access.add_rule(
                    *name,
                    AccessRule::allow(Subject::Anyone, Operation::Send, None)
                        .when(Condition::number_below("load", 50.0)),
                );
            });
            assert!(dataplane
                .subscribe("pub", name, &store.snapshot(), Timestamp(1))
                .unwrap()
                .is_delivered());
        }
        dataplane.register_schema(reading_schema()).unwrap();
        let message = reading_message();

        let (mut delivered, mut denied) = (0u64, 0u64);
        for burst in 0..(10_000 / BURST) {
            // The burst ends high on odd bursts, low on even ones.
            let allowed = burst % 2 == 0;
            for write in 0..BURST {
                let low = (write % 2 == 1) == allowed;
                let at = Timestamp((burst * BURST + write) as u64);
                store.set("load", if low { 10i64 } else { 90i64 }, at);
            }
            let now = Timestamp(10 + burst as u64);
            dataplane.publish_message("pub", &message, now).unwrap();
            dataplane.drain();
            if allowed {
                delivered += 2;
            } else {
                denied += 2;
            }
            let stats = dataplane.stats();
            assert_eq!((stats.delivered, stats.denied), (delivered, denied), "burst {burst}");
            // A repeat admission check evaluates the regime on the snapshot it is given.
            let outcome =
                dataplane.subscribe("pub", subscribers[0], &store.snapshot(), now).unwrap();
            assert_eq!(outcome.is_delivered(), allowed, "burst {burst}");
            // No subscriber, no record: the writes kept no change.
            let retained = store.history().len();
            assert_eq!(retained, 0, "{retained} changes held at burst {burst}");
        }
        assert_eq!(store.version(), 10_001);
        dataplane.shutdown();
    }

    #[test]
    fn full_audit_records_every_message() {
        let config =
            DataplaneConfig { audit_detail: AuditDetail::Full, shards: 2, ..Default::default() };
        let dataplane = two_pair_plane(config);
        for round in 0..5 {
            tick(&dataplane, "a", 10 + round).unwrap();
        }
        dataplane.drain();
        let report = dataplane.shutdown();
        use legaliot_audit::AuditEventKind;
        let flow_records: usize = report
            .shard_audit
            .iter()
            .map(|log| log.of_kind(AuditEventKind::FlowChecked).count())
            .sum();
        assert_eq!(flow_records, 5);
        for log in &report.shard_audit {
            assert!(log.verify_chain().is_intact());
        }
    }

    /// Full-audit mode cannot emit a `FlowChecked` record for denials that never
    /// reach the IFC stage (isolation, per-message AC) — but they must still be
    /// evidenced, as per-pair `FlowSummary` records at shutdown.
    #[test]
    fn full_audit_evidences_no_flow_check_denials() {
        use legaliot_audit::AuditEvent;
        let config = DataplaneConfig { audit_detail: AuditDetail::Full, ..Default::default() };
        let dataplane = two_pair_plane(config);
        dataplane.set_isolated("b", true, Timestamp(9)).unwrap();
        tick(&dataplane, "a", 10).unwrap();
        dataplane.drain();
        assert_eq!(dataplane.stats().denied, 1);
        let report = dataplane.shutdown();
        let summary = report
            .merged_timeline()
            .into_iter()
            .find_map(|r| match r.event {
                AuditEvent::FlowSummary { ref source, denied, .. } if source == "a" => Some(denied),
                _ => None,
            })
            .expect("isolation denial is summarised even in full mode");
        assert_eq!(summary, 1);
    }

    #[test]
    fn summarised_audit_folds_repeats_into_flow_summary() {
        let config =
            DataplaneConfig { audit_detail: AuditDetail::Summarised, ..Default::default() };
        let dataplane = two_pair_plane(config);
        for round in 0..50 {
            tick(&dataplane, "a", 10 + round).unwrap();
        }
        dataplane.drain();
        let report = dataplane.shutdown();
        use legaliot_audit::{AuditEvent, AuditEventKind};
        let all: Vec<_> = report.merged_timeline();
        let full_records =
            all.iter().filter(|r| r.event.kind() == AuditEventKind::FlowChecked).count();
        let summaries: Vec<_> =
            all.iter().filter(|r| r.event.kind() == AuditEventKind::FlowSummary).cloned().collect();
        // One full record (first check) + one summary covering all 50.
        assert_eq!(full_records, 1);
        assert_eq!(summaries.len(), 1);
        match &summaries[0].event {
            AuditEvent::FlowSummary { allowed, denied, source, destination, .. } => {
                assert_eq!((source.as_str(), destination.as_str()), ("a", "b"));
                assert_eq!(*allowed, 50);
                assert_eq!(*denied, 0);
            }
            other => panic!("expected FlowSummary, got {other:?}"),
        }
    }

    #[test]
    fn error_display() {
        assert!(DataplaneError::UnknownEndpoint { name: "x".into() }.to_string().contains("x"));
        assert!(DataplaneError::QueueFull { shard: 3, capacity: 8 }
            .to_string()
            .contains("shard 3"));
        assert!(DataplaneError::ShardUnavailable { shard: 2 }
            .to_string()
            .contains("shard 2 is unavailable"));
        assert!(DataplaneError::DuplicateEndpoint { name: "x".into() }
            .to_string()
            .contains("already"));
        assert!(DataplaneError::SchemaViolation { reason: "r".into() }
            .to_string()
            .contains("schema"));
        assert!(DataplaneError::UnknownSchema { message_type: "mt".into() }
            .to_string()
            .contains("mt"));
    }

    /// Test schema: `patient` carries a message-level `secret-id` tag that endpoint
    /// `b` (secrecy `{t, b-only}`) does not hold, so deliveries a→b quench it.
    fn reading_schema() -> legaliot_middleware::MessageSchema {
        use legaliot_middleware::AttributeKind;
        legaliot_middleware::MessageSchema::new("reading")
            .attribute("value", AttributeKind::Float)
            .sensitive_attribute(
                "patient",
                AttributeKind::Text,
                legaliot_ifc::Label::from_names(["secret-id"]),
            )
    }

    fn reading_message() -> legaliot_middleware::Message {
        use legaliot_middleware::AttributeValue;
        legaliot_middleware::Message::new("reading", SecurityContext::public())
            .with("value", AttributeValue::Float(72.0))
            .with("patient", AttributeValue::Text("ann".into()))
    }

    #[test]
    fn payload_publish_quenches_counts_and_audits() {
        use legaliot_audit::AuditEventKind;
        use legaliot_middleware::AttributeValue;

        let dataplane = two_pair_plane(DataplaneConfig::default());
        dataplane.register_schema(reading_schema()).unwrap();
        let (outcome, receiver) =
            dataplane.subscribe_receiver("a", "b", &snap(), Timestamp(2)).unwrap();
        assert!(outcome.is_delivered());

        // Payload publishing is schema-driven: unknown types and violations error.
        let unknown = legaliot_middleware::Message::new("mystery", SecurityContext::public());
        assert!(matches!(
            dataplane.publish_message("a", &unknown, Timestamp(9)),
            Err(DataplaneError::UnknownSchema { .. })
        ));
        let bad = reading_message().with("value", AttributeValue::Text("high".into()));
        assert!(matches!(
            dataplane.publish_message("a", &bad, Timestamp(9)),
            Err(DataplaneError::SchemaViolation { .. })
        ));

        for t in 10..14 {
            assert_eq!(
                dataplane.publish_message("a", &reading_message(), Timestamp(t)).unwrap(),
                1
            );
        }
        dataplane.drain();
        let stats = dataplane.stats();
        assert_eq!(stats.delivered, 4);
        // `b` lacks `secret-id`: exactly one attribute quenched per delivery.
        assert_eq!(stats.quenched_attributes, 4);
        assert!(stats.payload_bytes > 0);
        // Per-message AC asks the regime for every delivery.
        let merged = dataplane.telemetry().merged();
        assert_eq!(merged.stage(Stage::AcMiss).count(), 4);
        assert!(merged.stage(Stage::AcHit).is_empty());

        // The receiver observes the post-quench bodies.
        let inbox = receiver.drain();
        assert_eq!(inbox.len(), 4);
        for message in inbox {
            let message = message.thaw();
            assert!(!message.attributes.contains_key("patient"));
            assert_eq!(message.attributes["value"], AttributeValue::Float(72.0));
            assert_eq!(message.sender, "a");
        }
        assert!(receiver.drain().is_empty());
        assert!(dataplane.open_subscriber("ghost").is_err());

        // `d` has no open receiver: its delivery is enforced, quenched and counted
        // all the same, it just reaches no mailbox.
        dataplane.publish_message("c", &reading_message(), Timestamp(14)).unwrap();
        dataplane.drain();
        let after = dataplane.stats();
        assert_eq!(after.delivered, 5);
        assert_eq!(after.quenched_attributes, 5);
        assert_eq!(after.payload_bytes, stats.payload_bytes / 4 * 5);
        assert_eq!(after.receiver_enqueued, 4);

        // In summarised mode quenching is evidenced beside each pair's first check
        // (a→b's and c→d's), and every shard chain stays intact.
        let report = dataplane.shutdown();
        let quench_records: usize = report
            .shard_audit
            .iter()
            .map(|log| log.of_kind(AuditEventKind::MessageQuenched).count())
            .sum();
        assert_eq!(quench_records, 2);
        assert_eq!(flow_checks(&report).len(), 2);
        assert!(report.shard_audit.iter().all(|log| log.verify_chain().is_intact()));
    }

    #[test]
    fn quench_masks_follow_destination_context_changes() {
        let dataplane = two_pair_plane(DataplaneConfig::default());
        dataplane.register_schema(reading_schema()).unwrap();
        dataplane.publish_message("a", &reading_message(), Timestamp(10)).unwrap();
        dataplane.drain();
        assert_eq!(dataplane.stats().quenched_attributes, 1);

        // `b` gains the `secret-id` tag: its next delivery is quenched against the new
        // context and carries the full message.
        dataplane
            .set_context(
                "b",
                SecurityContext::from_names(["t", "b-only", "secret-id"], Vec::<&str>::new()),
                Timestamp(11),
            )
            .unwrap();
        dataplane.publish_message("a", &reading_message(), Timestamp(12)).unwrap();
        dataplane.drain();
        let stats = dataplane.stats();
        assert_eq!(stats.delivered, 2);
        assert_eq!(stats.quenched_attributes, 1);
    }

    /// Satellite acceptance: a rule reading `patient.heart-rate` flips its decision
    /// after `ContextStore::set` bumps that key, on every shard, and a rule edit flips
    /// exactly the component it governs. No context changed, so the trail holds each
    /// pair's first check and nothing more.
    #[test]
    fn key_writes_and_rule_edits_flip_decisions_on_every_shard() {
        use legaliot_middleware::{AccessRule, Operation, Subject};
        use legaliot_policy::Condition;

        let store = Arc::new(legaliot_context::ContextStore::new());
        store.set("patient.heart-rate", 80i64, Timestamp(0));
        let config = DataplaneConfig { shards: 4, ..DataplaneConfig::default() };
        let dataplane = Dataplane::with_context_store("ac-cache-test", config, Arc::clone(&store));
        dataplane.register(endpoint("pub", &["t"])).unwrap();
        let subscribers = ["s-alpha", "s-beta", "s-gamma", "s-delta", "s-epsilon", "s-zeta"];
        for name in subscribers {
            dataplane.register(endpoint(name, &["t", "sink"])).unwrap();
            dataplane.with_access(|access| {
                access.add_rule(
                    name,
                    AccessRule::allow(Subject::Anyone, Operation::Send, None)
                        .when(Condition::number_below("patient.heart-rate", 120.0)),
                );
            });
        }
        let snapshot = store.snapshot();
        for name in subscribers {
            assert!(dataplane
                .subscribe("pub", name, &snapshot, Timestamp(1))
                .unwrap()
                .is_delivered());
        }
        // The subscribers must actually span shards for this test to mean anything.
        let shards: std::collections::HashSet<usize> =
            subscribers.iter().map(|name| dataplane.shard_of(name)).collect();
        assert!(shards.len() >= 2, "subscribers landed on one shard");

        dataplane.register_schema(reading_schema()).unwrap();
        let message = reading_message();
        for t in 2..4 {
            assert_eq!(dataplane.publish_message("pub", &message, Timestamp(t)).unwrap(), 6);
        }
        dataplane.drain();
        let warm = dataplane.stats();
        assert_eq!((warm.delivered, warm.denied), (12, 0));

        // Bump the key the rule reads: every shard denies the next delivery.
        store.set("patient.heart-rate", 150i64, Timestamp(4));
        dataplane.publish_message("pub", &message, Timestamp(5)).unwrap();
        dataplane.drain();
        let high = dataplane.stats();
        assert_eq!((high.delivered, high.denied), (12, 6));

        // And back below the threshold: deliveries resume.
        store.set("patient.heart-rate", 90i64, Timestamp(6));
        dataplane.publish_message("pub", &message, Timestamp(7)).unwrap();
        dataplane.drain();
        let calm = dataplane.stats();
        assert_eq!(calm.delivered, 18);

        // A rule change is per component: deny one subscriber on every shard, and
        // exactly those decisions flip.
        let mut flipped = Vec::new();
        for shard in &shards {
            let name = subscribers.iter().find(|name| dataplane.shard_of(name) == *shard).unwrap();
            dataplane.with_access(|access| {
                access.add_rule(*name, AccessRule::deny(Subject::Anyone, Operation::Send, None));
            });
            flipped.push(*name);
        }
        let (changed, untouched) = (flipped.len() as u64, (6 - flipped.len()) as u64);
        dataplane.publish_message("pub", &message, Timestamp(8)).unwrap();
        dataplane.drain();
        let ruled = dataplane.stats();
        assert_eq!(ruled.denied - calm.denied, changed);
        assert_eq!(ruled.delivered - calm.delivered, untouched);

        // AC denials carry no flow check, and an allowed check after one is under the
        // contexts already evidenced: one full record per pair, at its first send.
        let checks = flow_checks(&dataplane.shutdown());
        assert_eq!(checks.len(), 6);
        assert!(checks.iter().all(|(source, _, at)| (source.as_str(), *at) == ("pub", 2)));
    }

    /// Tentpole acceptance: the streaming receiver observes exactly the enforced,
    /// post-quench bodies, zero-copy (the mailbox hand-off shares the frozen payload
    /// buffer; nothing is re-encoded or deep-cloned).
    #[test]
    fn subscriber_receives_post_quench_bodies_zero_copy() {
        use legaliot_middleware::AttributeValue;

        let dataplane = two_pair_plane(DataplaneConfig::default());
        dataplane.register_schema(reading_schema()).unwrap();
        let receiver = dataplane.open_subscriber("b").unwrap();
        assert_eq!(receiver.name(), "b");
        // A mailbox has exactly one live handle.
        assert_eq!(
            dataplane.open_subscriber("b").unwrap_err(),
            DataplaneError::ReceiverAttached { name: "b".into() }
        );
        for t in 10..13 {
            dataplane.publish_message("a", &reading_message(), Timestamp(t)).unwrap();
        }
        dataplane.drain();
        let stats = dataplane.stats();
        assert_eq!(stats.receiver_enqueued, 3);
        assert_eq!(stats.receiver_dropped, 0);
        let received: Vec<_> = receiver.drain();
        assert_eq!(received.len(), 3);
        for message in &received {
            assert_eq!(message.sender(), "a");
            // `b` lacks `secret-id`: the subscriber never observes `patient`.
            assert!(message.get("patient").is_none());
            assert_eq!(message.get("value"), Some(AttributeValue::Float(72.0)));
            assert_eq!(message.attribute_count(), 1);
        }
        // Zero-copy witness: a second subscriber receiving the same publish observes
        // the *same* frozen payload buffer (the fan-out and the mailbox hand-off are
        // refcount bumps, never payload copies).
        dataplane.register(endpoint("b2", &["t", "b-only"])).unwrap();
        dataplane.allow_sends_to("b2");
        assert!(dataplane.subscribe("a", "b2", &snap(), Timestamp(14)).unwrap().is_delivered());
        let receiver2 = dataplane.open_subscriber("b2").unwrap();
        dataplane.publish_message("a", &reading_message(), Timestamp(15)).unwrap();
        dataplane.drain();
        let on_b = receiver.recv().unwrap();
        let on_b2 = receiver2.recv().unwrap();
        assert!(std::ptr::eq(
            on_b.frozen().expect("zero-copy mode").payload().as_slice().as_ptr(),
            on_b2.frozen().expect("zero-copy mode").payload().as_slice().as_ptr(),
        ));
        drop(receiver2);

        // Dropping the handle closes the mailbox: shards stop enqueueing (no hang,
        // no error), and the endpoint can be re-opened for a fresh mailbox.
        drop(receiver);
        dataplane.publish_message("a", &reading_message(), Timestamp(20)).unwrap();
        dataplane.drain();
        assert_eq!(dataplane.stats().receiver_enqueued, 5);
        let reopened = dataplane.open_subscriber("b").unwrap();
        dataplane.publish_message("a", &reading_message(), Timestamp(21)).unwrap();
        dataplane.drain();
        assert_eq!(reopened.len(), 1);

        // Shutdown closes mailboxes: the backlog is received, then Disconnected.
        let report = dataplane.shutdown();
        assert!(reopened.recv().is_ok());
        assert_eq!(reopened.recv().unwrap_err(), RecvError::Disconnected);
        assert!(report.shard_audit.iter().all(|log| log.verify_chain().is_intact()));
    }

    /// Drop-oldest overflow sheds the oldest deliveries, counts them, and leaves
    /// `DeliveryDropped` evidence whose totals account for every shed message —
    /// exactly once per shed in *both* audit modes (full mode records per-drop,
    /// summarised mode folds per-pair totals; never both).
    #[test]
    fn drop_oldest_overflow_is_counted_and_evidenced() {
        for audit_detail in [AuditDetail::Summarised, AuditDetail::Full] {
            drop_oldest_evidence_totals_exactly_once(audit_detail);
        }
    }

    fn drop_oldest_evidence_totals_exactly_once(audit_detail: AuditDetail) {
        use legaliot_audit::AuditEvent;

        let config = DataplaneConfig {
            mailbox_capacity: 2,
            overflow: OverflowPolicy::DropOldest,
            audit_detail,
            ..DataplaneConfig::default()
        };
        let dataplane = two_pair_plane(config);
        dataplane.register_schema(reading_schema()).unwrap();
        let receiver = dataplane.open_subscriber("b").unwrap();
        for t in 10..15 {
            dataplane.publish_message("a", &reading_message(), Timestamp(t)).unwrap();
        }
        dataplane.drain();
        let stats = dataplane.stats();
        assert_eq!(stats.delivered, 5);
        assert_eq!(stats.receiver_enqueued, 5);
        assert_eq!(stats.receiver_dropped, 3);
        assert_eq!(receiver.dropped(), 3);
        // The two newest deliveries survive.
        let received = receiver.drain();
        assert_eq!(received.len(), 2);
        assert_eq!(
            received.iter().map(ReceivedMessage::sent_at_millis).collect::<Vec<_>>(),
            vec![13, 14]
        );
        // Audit evidence totals every shed delivery exactly once, whichever mode.
        let report = dataplane.shutdown();
        let dropped_total: u64 = report
            .merged_timeline()
            .into_iter()
            .filter_map(|r| match r.event {
                AuditEvent::DeliveryDropped { dropped, ref source, ref destination, .. } => {
                    assert_eq!((source.as_str(), destination.as_str()), ("a", "b"));
                    Some(dropped)
                }
                _ => None,
            })
            .sum();
        assert_eq!(dropped_total, 3, "{audit_detail:?}");
    }

    /// Block overflow never sheds: a full mailbox parks the shard, which
    /// backpressures publishers end-to-end, and a concurrent consumer releases it.
    #[test]
    fn block_overflow_backpressures_until_the_consumer_drains() {
        let config = DataplaneConfig {
            mailbox_capacity: 2,
            overflow: OverflowPolicy::Block,
            shards: 2,
            ..DataplaneConfig::default()
        };
        let dataplane = two_pair_plane(config);
        dataplane.register_schema(reading_schema()).unwrap();
        let receiver = dataplane.open_subscriber("b").unwrap();
        let consumer = std::thread::spawn(move || {
            let mut received = Vec::new();
            while let Ok(message) = receiver.recv() {
                received.push(message.sent_at_millis());
            }
            received
        });
        for t in 10..30 {
            dataplane.publish_message("a", &reading_message(), Timestamp(t)).unwrap();
        }
        dataplane.drain();
        let stats = dataplane.stats();
        assert_eq!(stats.receiver_enqueued, 20);
        assert_eq!(stats.receiver_dropped, 0);
        // Shutdown closes the mailbox; the consumer exits after draining everything.
        dataplane.shutdown();
        let received = consumer.join().unwrap();
        assert_eq!(received, (10..30).collect::<Vec<u64>>());
    }

    /// One batch whose deliveries alternate between two mailboxes is handed over as two
    /// group pushes — one `handoff` sample each — and each mailbox receives its own
    /// deliveries in publish order, even with groups three times its capacity pushed
    /// into it while its consumer waits.
    #[test]
    fn one_batch_for_two_mailboxes_arrives_fifo_per_mailbox() {
        use legaliot_obs::ObsConfig;
        use telemetry::Stage;

        let config = DataplaneConfig {
            shards: 1,
            mailbox_capacity: 2,
            overflow: OverflowPolicy::Block,
            telemetry: ObsConfig::enabled(),
            ..DataplaneConfig::default()
        };
        let dataplane = two_pair_plane(config);
        let consumers: Vec<_> = ["b", "d"]
            .map(|name| {
                let receiver = dataplane.open_subscriber(name).unwrap();
                std::thread::spawn(move || {
                    let mut received = Vec::new();
                    while let Ok(message) = receiver.recv() {
                        received.push(message.sent_at_millis());
                    }
                    received
                })
            })
            .into();
        let barrier = dataplane.block_shard(0);
        for t in 10..22 {
            let publisher = if t % 2 == 0 { "a" } else { "c" };
            assert_eq!(tick(&dataplane, publisher, t), Ok(1));
        }
        barrier.wait();
        dataplane.drain();
        assert_eq!(dataplane.stats().receiver_enqueued, 12);
        assert_eq!(dataplane.telemetry().merged().stage(Stage::Handoff).count(), 2);
        dataplane.shutdown();
        let received: Vec<Vec<u64>> =
            consumers.into_iter().map(|consumer| consumer.join().unwrap()).collect();
        assert_eq!(received[0], vec![10, 12, 14, 16, 18, 20]);
        assert_eq!(received[1], vec![11, 13, 15, 17, 19, 21]);
    }

    /// A shard ends as a mailbox's consumer does: once its ingress queue is closed, the
    /// worker enforces the backlog queued before the close, in queue order, and returns.
    /// Nothing is pushed to stop it.
    #[test]
    fn a_shard_stops_when_its_ingress_queue_closes() {
        use std::time::{Duration, Instant};
        const N: u64 = 64;

        let dataplane = two_pair_plane(DataplaneConfig { shards: 1, ..DataplaneConfig::default() });
        let receiver = dataplane.open_subscriber("b").unwrap();
        let barrier = dataplane.block_shard(0);
        for t in 10..10 + N {
            assert_eq!(tick(&dataplane, "a", t), Ok(1));
        }
        dataplane.close_ingress(0);
        barrier.wait();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !dataplane.worker_exited(0) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        if !dataplane.worker_exited(0) {
            // Leaked, not dropped: dropping would join a worker that never returns.
            std::mem::forget(dataplane);
            panic!("the worker did not return after its ingress queue closed");
        }
        let received: Vec<u64> =
            receiver.drain().iter().map(|message| message.sent_at_millis()).collect();
        assert_eq!(received, (10..10 + N).collect::<Vec<_>>());
        let stats = dataplane.stats();
        assert_eq!((stats.published, stats.delivered), (N, N));
        assert_eq!(
            stats.published,
            stats.delivered + stats.denied + stats.missing_endpoint + stats.deliveries_lost
        );
        let report = dataplane.shutdown();
        assert!(report.worker_panics.is_empty());
        assert!(report.shard_audit[0].verify_chain().is_intact());
    }

    /// A Full-mode drop-oldest group that overflows its mailbox writes one
    /// `DeliveryDropped` per shed delivery, each naming that delivery's own source and
    /// stamped with the send time of the delivery whose push shed it.
    #[test]
    fn a_drop_oldest_group_evidences_each_shed_with_its_own_source() {
        use legaliot_audit::AuditEvent;

        let config = DataplaneConfig {
            shards: 1,
            mailbox_capacity: 2,
            overflow: OverflowPolicy::DropOldest,
            audit_detail: AuditDetail::Full,
            ..DataplaneConfig::default()
        };
        let dataplane = two_pair_plane(config);
        dataplane.register(endpoint("e", &["t"])).unwrap();
        assert!(dataplane.subscribe("e", "b", &snap(), Timestamp(1)).unwrap().is_delivered());
        let receiver = dataplane.open_subscriber("b").unwrap();
        let barrier = dataplane.block_shard(0);
        for t in 10..15 {
            let publisher = if t % 2 == 0 { "a" } else { "e" };
            assert_eq!(tick(&dataplane, publisher, t), Ok(1));
        }
        barrier.wait();
        dataplane.drain();
        let stats = dataplane.stats();
        assert_eq!((stats.receiver_enqueued, stats.receiver_dropped), (5, 3));
        let received: Vec<u64> =
            receiver.drain().iter().map(ReceivedMessage::sent_at_millis).collect();
        assert_eq!(received, vec![13, 14]);

        let report = dataplane.shutdown();
        let dropped: Vec<(String, u64, u64)> = report
            .merged_timeline()
            .into_iter()
            .filter_map(|record| match record.event {
                AuditEvent::DeliveryDropped { source, destination, dropped, .. } => {
                    assert_eq!(destination, "b");
                    Some((source, dropped, record.at_millis))
                }
                _ => None,
            })
            .collect();
        let expected =
            [("a", 12), ("e", 13), ("a", 14)].map(|(source, at)| (source.to_string(), 1, at));
        assert_eq!(dropped, expected);
    }

    #[test]
    fn stats_default_and_shard_routing_are_stable() {
        let dataplane = Dataplane::new("routing", DataplaneConfig::default());
        assert_eq!(dataplane.stats(), DataplaneStats::default());
        assert_eq!(dataplane.shard_of("sensor-1"), dataplane.shard_of("sensor-1"));
        assert!(dataplane.shard_of("sensor-1") < dataplane.config().shards);
    }

    /// Publishers never wait on each other for the body ring: one that finds it taken
    /// builds a body of its own, and two publishing at once both get through with
    /// every delivery accounted for.
    #[test]
    fn publishers_share_the_body_ring_without_waiting_on_it() {
        const EACH: u64 = 2000;
        let dataplane = two_pair_plane(DataplaneConfig::default());
        {
            // The ring is taken: this publish returns all the same, on a fresh body.
            let _ring = dataplane.hold_body_ring();
            assert_eq!(tick(&dataplane, "a", 1), Ok(1));
        }
        // Released, and the first body free again once its delivery is done.
        dataplane.drain();
        assert_eq!(tick(&dataplane, "a", 2), Ok(1));
        dataplane.drain();
        assert_eq!(tick(&dataplane, "a", 3), Ok(1));
        assert_eq!(dataplane.stats().bodies_reused, 1, "only the third found a body to refill");

        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for publisher in ["a", "c"] {
                let (dataplane, start) = (&dataplane, &start);
                scope.spawn(move || {
                    start.wait();
                    for at in 0..EACH {
                        assert_eq!(tick(dataplane, publisher, 10 + at), Ok(1));
                    }
                });
            }
        });
        dataplane.drain();
        let stats = dataplane.stats();
        assert_eq!(stats.published, 3 + 2 * EACH);
        assert_eq!(
            stats.published,
            stats.delivered + stats.denied + stats.missing_endpoint + stats.deliveries_lost
        );
        assert_eq!((stats.delivered, stats.deliveries_lost), (stats.published, 0));
        assert!(stats.bodies_reused <= stats.published);
        dataplane.shutdown();
    }

    /// Tentpole acceptance: a seeded failpoint panics the shard mid-delivery.
    /// The supervisor restarts it, the interrupted delivery is evidenced as
    /// lost (never silently dropped), the audit chain stays intact across the
    /// re-anchor, and the accounting identity holds exactly after drain.
    #[test]
    fn shard_panic_restarts_worker_and_accounts_exactly() {
        use legaliot_audit::{AuditEvent, AuditEventKind};

        let registry = Arc::new(FailpointRegistry::new(42).with_spec(
            FailpointSpec::on_hits(FailpointSite::ShardProcess, FaultKind::Panic, 3, 0).limit(1),
        ));
        let config = DataplaneConfig {
            shards: 1,
            failpoints: Some(Arc::clone(&registry)),
            ..DataplaneConfig::default()
        };
        let dataplane = two_pair_plane(config);
        for t in 10..20 {
            tick(&dataplane, "a", t).unwrap();
        }
        dataplane.drain();
        assert_eq!(registry.fired(FailpointSite::ShardProcess), 1);
        let stats = dataplane.stats();
        assert_eq!(stats.shard_restarts, 1);
        assert_eq!(stats.deliveries_lost, 1);
        assert_eq!(stats.degraded_shards, 0);
        assert_eq!(stats.delivered, 9);
        assert_eq!(
            stats.published,
            stats.delivered + stats.denied + stats.missing_endpoint + stats.deliveries_lost,
            "accounting identity must hold exactly after drain"
        );
        // The restart and loss counters reach the exposition surface.
        let exposition = dataplane.telemetry().exposition();
        assert_eq!(exposition.counter("shard_restarts"), Some(1));
        assert_eq!(exposition.counter("deliveries_lost"), Some(1));
        assert_eq!(exposition.gauge("degraded_shards"), Some(0));

        let report = dataplane.shutdown();
        assert!(report.worker_panics.is_empty(), "the panic was supervised, not escaped");
        let log = &report.shard_audit[0];
        assert!(log.verify_chain().is_intact(), "chain must re-anchor across the restart");
        assert_eq!(log.of_kind(AuditEventKind::ShardRestarted).count(), 1);
        let lost_total: u64 = report
            .merged_timeline()
            .into_iter()
            .filter_map(|r| match r.event {
                AuditEvent::DeliveryLost {
                    lost, ref source, ref destination, ref cause, ..
                } => {
                    assert_eq!((source.as_str(), destination.as_str()), ("a", "b"));
                    assert!(cause.contains("failpoint"), "cause carries the panic payload");
                    Some(lost)
                }
                _ => None,
            })
            .sum();
        assert_eq!(lost_total, 1, "exactly the crashed delivery is evidenced lost");
    }

    /// A panic during the mailbox hand-off is the at-most-once edge: the
    /// delivery was already enforced and counted, so the abandoned push is
    /// evidenced as lost without re-counting it anywhere.
    #[test]
    fn hand_off_panic_is_evidenced_without_double_counting() {
        use legaliot_audit::AuditEvent;

        let registry = Arc::new(FailpointRegistry::new(1).with_spec(
            FailpointSpec::on_hits(FailpointSite::MailboxHandOff, FaultKind::Panic, 2, 0).limit(1),
        ));
        let config = DataplaneConfig {
            shards: 1,
            failpoints: Some(Arc::clone(&registry)),
            ..DataplaneConfig::default()
        };
        let dataplane = two_pair_plane(config);
        dataplane.register_schema(reading_schema()).unwrap();
        let receiver = dataplane.open_subscriber("b").unwrap();
        for t in 10..15 {
            dataplane.publish_message("a", &reading_message(), Timestamp(t)).unwrap();
        }
        dataplane.drain();
        let stats = dataplane.stats();
        assert_eq!(stats.shard_restarts, 1);
        assert_eq!(stats.delivered, 5, "enforcement completed before the hand-off crashed");
        assert_eq!(stats.deliveries_lost, 0, "hand-off losses are evidence, not a re-count");
        assert_eq!(receiver.drain().len(), 4, "the abandoned hand-off never arrived");

        let report = dataplane.shutdown();
        let hand_off_losses: Vec<_> = report
            .merged_timeline()
            .into_iter()
            .filter_map(|r| match r.event {
                AuditEvent::DeliveryLost { lost, ref message_type, ref cause, .. } => {
                    assert!(cause.contains("mailbox hand-off abandoned"));
                    assert_eq!(message_type.as_deref(), Some("reading"));
                    Some(lost)
                }
                _ => None,
            })
            .collect();
        assert_eq!(hand_off_losses, vec![1]);
        assert!(report.shard_audit[0].verify_chain().is_intact());
    }

    /// A queued delivery names its destination by handle, and a handle stands for the
    /// *name*: whoever holds the name when the shard gets to the delivery is who it is
    /// enforced against — the new registration's context, mailbox and quench mask after
    /// a leave + re-join, nobody (`missing_endpoint`) after a leave.
    #[test]
    fn queued_delivery_is_enforced_against_whoever_holds_the_name_then() {
        let config = DataplaneConfig { shards: 1, ..DataplaneConfig::default() };
        let dataplane = two_pair_plane(config);
        dataplane.register_schema(reading_schema()).unwrap();
        let b = Name::lookup("b").expect("registered");
        let rejoin = |secrecy: &[&str]| {
            dataplane.deregister("b").unwrap();
            let component = endpoint("b", secrecy);
            assert_eq!(component.party().component().id(), b.id(), "a name keeps its id");
            dataplane.register(component).unwrap();
            dataplane.edges_both_ways();
            dataplane.open_subscriber("b").unwrap()
        };
        let queue_one = |at: u64| {
            let barrier = dataplane.block_shard(0);
            assert_eq!(dataplane.publish_message("a", &reading_message(), Timestamp(at)), Ok(1));
            barrier
        };

        // Re-joined holding the message-level tag too: delivered to the new mailbox,
        // nothing quenched (the `b` that was subscribed would have lost `patient`).
        let barrier = queue_one(10);
        let receiver = rejoin(&["t", "b-only", "secret-id"]);
        barrier.wait();
        dataplane.drain();
        let stats = dataplane.stats();
        assert_eq!((stats.delivered, stats.quenched_attributes), (1, 0));
        let received = receiver.drain();
        assert_eq!(received.len(), 1);
        assert_eq!((received[0].sender(), received[0].attribute_count()), ("a", 2));
        // The edge went with the old registration: nothing new is fanned out.
        assert_eq!(tick(&dataplane, "a", 11), Ok(0));

        // Re-joined below the source's secrecy: the queued delivery is an IFC denial.
        assert!(dataplane.subscribe("a", "b", &snap(), Timestamp(12)).unwrap().is_delivered());
        let barrier = queue_one(13);
        let receiver = rejoin(&[]);
        barrier.wait();
        dataplane.drain();
        let stats = dataplane.stats();
        assert_eq!((stats.delivered, stats.denied, stats.missing_endpoint), (1, 1, 0));
        assert!(receiver.drain().is_empty());

        // Left and did not come back: nobody holds the name.
        dataplane.deregister("b").unwrap();
        dataplane.register(endpoint("b", &["t", "b-only"])).unwrap();
        assert!(dataplane.subscribe("a", "b", &snap(), Timestamp(14)).unwrap().is_delivered());
        let barrier = queue_one(15);
        dataplane.deregister("b").unwrap();
        barrier.wait();
        dataplane.drain();
        let stats = dataplane.stats();
        assert_eq!((stats.delivered, stats.denied, stats.missing_endpoint), (1, 1, 1));
        assert_eq!(stats.published, 3);
        assert_eq!(Name::from_id(b.id()).map(Name::as_str), Some("b"), "also after it has left");
    }

    /// An endpoint is filed under its name's id in the process-wide table — the id its
    /// party holds, the same in every engine — and an id the table handed out for
    /// anything else is no endpoint: a context key, a rule's principal, a name interned
    /// after the last registration (an id past the slots). Every call naming one is
    /// refused as `UnknownEndpoint`, and unsubscribing one changes and records nothing.
    #[test]
    fn one_id_per_name_and_names_from_elsewhere_are_not_endpoints() {
        use legaliot_audit::AuditEvent;
        use legaliot_middleware::{AccessRule, Message, Operation, Subject};

        let b = Name::intern("b");
        let engines = [
            two_pair_plane(DataplaneConfig::default()),
            Dataplane::new("other", DataplaneConfig { shards: 1, ..DataplaneConfig::default() }),
        ];
        engines[1].register(endpoint("b", &["t"])).unwrap();
        assert_eq!(endpoint("b", &[]).party().component().id(), b.id());
        for engine in &engines {
            // Every endpoint sits under the id its party holds: `b` under `b`'s.
            engine.edges_both_ways();
            assert_eq!(engine.set_isolated("b", false, Timestamp(1)), Ok(()));
        }

        let dataplane = &engines[0];
        let key = "dp-names.only-a-key";
        dataplane.context_store().set(key, true, Timestamp(1));
        let principal = "dp-names.only-a-principal";
        dataplane.with_access(|access| {
            let subject = Subject::Principal(principal.into());
            access.add_rule("a", AccessRule::allow(subject, Operation::Receive, None));
        });
        // Registered after both texts were interned, so their ids fall inside the slots.
        dataplane.register(endpoint("dp-names.last", &["t"])).unwrap();
        let last = Name::lookup("dp-names.last").unwrap().id();
        assert!(Name::lookup(key).unwrap().id() < last);
        assert!(Name::lookup(principal).unwrap().id() < last);
        let late = Name::intern("dp-names.interned-late");
        assert!(late.id() > last, "past every slot");
        let late = late.as_str();
        let edges = dataplane.edges_both_ways();
        let tick = Message::new("tick", SecurityContext::public());
        for text in [key, principal, late] {
            let refused = |result: Result<(), DataplaneError>| {
                assert_eq!(result, Err(DataplaneError::UnknownEndpoint { name: text.into() }));
            };
            refused(dataplane.publish_message(text, &tick, Timestamp(2)).map(drop));
            refused(dataplane.subscribe(text, "a", &snap(), Timestamp(2)).map(drop));
            refused(dataplane.subscribe("a", text, &snap(), Timestamp(2)).map(drop));
            refused(dataplane.unsubscribe(text, "a", Timestamp(2)));
            refused(dataplane.set_context(text, SecurityContext::public(), Timestamp(2)));
            refused(dataplane.set_isolated(text, true, Timestamp(2)));
            refused(dataplane.open_subscriber(text).map(drop));
            refused(dataplane.deregister(text));
            assert_eq!(dataplane.unsubscribe("a", text, Timestamp(2)), Ok(()));
            assert_eq!(dataplane.edges_both_ways(), edges);
        }
        let [first, _] = engines;
        let report = first.shutdown();
        let teardowns = report.control_audit.records().iter().filter(|record| {
            matches!(record.event, AuditEvent::ChannelChanged { established: false, .. })
        });
        assert_eq!(teardowns.count(), 0);
    }

    /// Evidence names endpoints through the process-wide name table, which keeps the
    /// name of an endpoint that has left: a shard that degrades over a queue of
    /// deliveries whose destination deregistered meanwhile still writes source and
    /// destination into every `DeliveryLost` — the crashed unit's and the abandoned
    /// remainder's.
    #[test]
    fn loss_evidence_names_an_endpoint_that_has_left() {
        use legaliot_audit::AuditEvent;

        let registry = Arc::new(FailpointRegistry::new(3).with_spec(FailpointSpec::on_hits(
            FailpointSite::ShardProcess,
            FaultKind::Panic,
            0,
            0,
        )));
        let config = DataplaneConfig {
            shards: 1,
            restart_budget: 0,
            failpoints: Some(registry),
            ..DataplaneConfig::default()
        };
        let dataplane = two_pair_plane(config);
        dataplane.register_schema(reading_schema()).unwrap();
        let barrier = dataplane.block_shard(0);
        for t in 10..13 {
            dataplane.publish_message("a", &reading_message(), Timestamp(t)).unwrap();
        }
        dataplane.deregister("b").unwrap();
        barrier.wait();
        dataplane.drain();
        let stats = dataplane.stats();
        assert_eq!((stats.degraded_shards, stats.deliveries_lost, stats.published), (1, 3, 3));
        let report = dataplane.shutdown();
        let lost: Vec<u64> = report
            .merged_timeline()
            .into_iter()
            .filter_map(|record| match record.event {
                AuditEvent::DeliveryLost { source, destination, message_type, lost, .. } => {
                    assert_eq!((source.as_str(), destination.as_str()), ("a", "b"));
                    assert_eq!(message_type.as_deref(), Some("reading"));
                    Some(lost)
                }
                _ => None,
            })
            .collect();
        assert_eq!(lost, vec![1, 1, 1]);
        assert!(report.shard_audit[0].verify_chain().is_intact());
    }

    /// A shard that degrades mid-way through its hand-offs finishes the batch in the
    /// loop it always runs: the crashed hand-off and the two behind it are evidenced as
    /// abandoned, none re-counted — their deliveries were enforced and counted already.
    #[test]
    fn degrading_during_hand_offs_abandons_the_rest_of_the_batch() {
        use legaliot_audit::AuditEvent;

        let registry = Arc::new(FailpointRegistry::new(5).with_spec(
            FailpointSpec::on_hits(FailpointSite::MailboxHandOff, FaultKind::Panic, 1, 0).limit(1),
        ));
        let config = DataplaneConfig {
            shards: 1,
            restart_budget: 0,
            failpoints: Some(registry),
            ..DataplaneConfig::default()
        };
        let dataplane = two_pair_plane(config);
        dataplane.register_schema(reading_schema()).unwrap();
        let receiver = dataplane.open_subscriber("b").unwrap();
        let barrier = dataplane.block_shard(0);
        for t in 10..14 {
            dataplane.publish_message("a", &reading_message(), Timestamp(t)).unwrap();
        }
        barrier.wait();
        dataplane.drain();
        let stats = dataplane.stats();
        assert_eq!((stats.degraded_shards, stats.delivered, stats.deliveries_lost), (1, 4, 0));
        assert_eq!(stats.published, stats.delivered + stats.denied + stats.missing_endpoint);
        assert_eq!(receiver.drain().len(), 1);

        let report = dataplane.shutdown();
        let abandoned: Vec<(u64, u64)> = report
            .merged_timeline()
            .into_iter()
            .filter_map(|record| match record.event {
                AuditEvent::DeliveryLost { lost, ref cause, .. } => {
                    assert!(cause.starts_with("mailbox hand-off abandoned"), "{cause}");
                    Some((record.at_millis, lost))
                }
                _ => None,
            })
            .collect();
        assert_eq!(abandoned, vec![(11, 1), (12, 1), (13, 1)], "in hand-off order");
        assert!(report.shard_audit[0].verify_chain().is_intact());
    }

    /// The shutdown `FlowSummary` / `DeliveryDropped` records come out ordered by
    /// source then destination *name* — not by the ids the pairs are keyed on, which
    /// follow registration order — so the same traffic yields the same chain however
    /// the deployment was brought up.
    #[test]
    fn shutdown_summaries_are_ordered_by_name_not_by_id() {
        use legaliot_audit::AuditEvent;

        let config = DataplaneConfig {
            shards: 1,
            mailbox_capacity: 1,
            overflow: OverflowPolicy::DropOldest,
            ..DataplaneConfig::default()
        };
        let dataplane = Dataplane::new("ordered", config);
        // Registration (and so id) order is the reverse of name order.
        const NAMES: [&str; 5] = ["z-pub", "y-sub", "m-pub", "b-sub", "a-pub"];
        for name in NAMES {
            dataplane.register(endpoint(name, &["t"])).unwrap();
            dataplane.allow_sends_to(name);
        }
        dataplane.register_schema(reading_schema()).unwrap();
        let edges =
            [("z-pub", "y-sub"), ("z-pub", "b-sub"), ("m-pub", "b-sub"), ("a-pub", "y-sub")];
        for (publisher, subscriber) in edges {
            let admitted = dataplane.subscribe(publisher, subscriber, &snap(), Timestamp(1));
            assert!(admitted.unwrap().is_delivered());
        }
        let _receivers = [dataplane.open_subscriber("y-sub"), dataplane.open_subscriber("b-sub")];
        for t in 10..13 {
            for publisher in ["z-pub", "m-pub", "a-pub"] {
                dataplane.publish_message(publisher, &reading_message(), Timestamp(t)).unwrap();
            }
        }
        let report = dataplane.shutdown();
        let (mut summaries, mut drops) = (Vec::new(), Vec::new());
        for record in report.shard_audit[0].records() {
            match &record.event {
                AuditEvent::FlowSummary { source, destination, .. } => {
                    summaries.push((source.as_str(), destination.as_str()));
                }
                AuditEvent::DeliveryDropped { source, destination, .. } => {
                    drops.push((source.as_str(), destination.as_str()));
                }
                _ => {}
            }
        }
        let by_name =
            [("a-pub", "y-sub"), ("m-pub", "b-sub"), ("z-pub", "b-sub"), ("z-pub", "y-sub")];
        assert_eq!(summaries, by_name);
        // Each mailbox holds one message, so every pair shed something.
        assert_eq!(drops, by_name);
    }

    /// Once a shard exhausts its restart budget it degrades instead of crash
    /// looping: publishes routed to it fail fast with `ShardUnavailable`
    /// (no hang), the degradation is visible in stats/telemetry, and shutdown
    /// still completes with an intact, restart-evidenced chain.
    #[test]
    fn restart_budget_exhaustion_degrades_the_shard() {
        use legaliot_audit::AuditEventKind;
        use std::time::Duration;

        let registry = Arc::new(FailpointRegistry::new(7).with_spec(FailpointSpec::on_hits(
            FailpointSite::ShardLoop,
            FaultKind::Panic,
            0,
            1,
        )));
        let config = DataplaneConfig {
            shards: 1,
            restart_budget: 2,
            failpoints: Some(registry),
            ..DataplaneConfig::default()
        };
        let dataplane = two_pair_plane(config);
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while dataplane.stats().degraded_shards == 0 {
            assert!(std::time::Instant::now() < deadline, "shard never degraded");
            std::thread::yield_now();
        }
        let stats = dataplane.stats();
        assert_eq!(stats.shard_restarts, 2, "every budgeted restart was attempted first");
        assert_eq!(stats.degraded_shards, 1);
        assert_eq!(tick(&dataplane, "a", 10), Err(DataplaneError::ShardUnavailable { shard: 0 }));
        // A rejected publish enqueues (and counts) nothing, so the accounting
        // identity is untouched and drain has nothing to wait for.
        dataplane.drain();
        assert_eq!(dataplane.telemetry().exposition().gauge("degraded_shards"), Some(1));
        let report = dataplane.shutdown();
        assert!(report.worker_panics.is_empty());
        let log = &report.shard_audit[0];
        assert_eq!(log.of_kind(AuditEventKind::ShardRestarted).count(), 2);
        assert!(log.verify_chain().is_intact());
    }

    /// Shutdown (and Drop) must reap a worker whose panic escaped supervision
    /// without re-panicking: the payload is captured in the report instead.
    /// The rendering helper is the piece unit-testable in isolation.
    #[test]
    fn panic_payloads_render_for_reports() {
        let payload: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(crate::shard::panic_message(payload.as_ref()), "boom");
        let payload: Box<dyn std::any::Any + Send> = Box::new(String::from("kaboom"));
        assert_eq!(crate::shard::panic_message(payload.as_ref()), "kaboom");
        let payload: Box<dyn std::any::Any + Send> = Box::new(77u32);
        assert_eq!(crate::shard::panic_message(payload.as_ref()), "<non-string panic payload>");
    }

    /// Enabled telemetry attributes every allowed delivery across the pipeline
    /// stages; disabled telemetry leaves histograms empty while the enforcement
    /// counters stay exact.
    #[test]
    fn telemetry_snapshot_reflects_enabled_and_disabled_modes() {
        use legaliot_obs::ObsConfig;
        use telemetry::Stage;

        for enabled in [true, false] {
            let config = DataplaneConfig {
                telemetry: if enabled { ObsConfig::enabled() } else { ObsConfig::disabled() },
                ..DataplaneConfig::default()
            };
            let dataplane = two_pair_plane(config);
            dataplane.register_schema(reading_schema()).unwrap();
            for t in 10..18 {
                dataplane.publish_message("a", &reading_message(), Timestamp(t)).unwrap();
            }
            dataplane.drain();

            let snapshot = dataplane.telemetry();
            assert_eq!(snapshot.dataplane, "test");
            assert_eq!(snapshot.enabled, enabled);
            assert_eq!(snapshot.stats.delivered, 8);
            assert_eq!(snapshot.shards.len(), dataplane.config().shards);

            let merged = snapshot.merged();
            if enabled {
                // Every allowed delivery passes isolation, AC, IFC, quench, and
                // lands one end-to-end Delivery sample with a real latency.
                assert_eq!(merged.stage(Stage::Delivery).count(), 8);
                assert_eq!(merged.stage(Stage::Isolation).count(), 8);
                assert_eq!(merged.stage(Stage::Ifc).count(), 8);
                assert_eq!(merged.stage(Stage::Quench).count(), 8);
                assert_eq!(merged.stage(Stage::AcMiss).count(), 8);
                assert!(merged.stage(Stage::AcHit).is_empty(), "no cache answers");
                assert!(merged.stage(Stage::Delivery).p99() > 0);
                let exposition = snapshot.exposition();
                assert_eq!(exposition.counter("delivered"), Some(8));
                let delivery = exposition.histogram("stage.delivery").unwrap();
                assert_eq!(delivery.count(), 8);
            } else {
                for stage in Stage::ALL {
                    assert!(
                        merged.stage(stage).is_empty(),
                        "disabled telemetry recorded {}",
                        stage.name()
                    );
                }
                assert_eq!(snapshot.exposition().counter("delivered"), Some(8));
            }
        }
    }

    /// Both records a Full-mode delivery writes are audit time: the `MessageQuenched`
    /// append (and whatever flush and prune it runs) ends in an `AuditAppend`
    /// lap of its own, and `Quench` is what is left — mask, byte count, hand-off.
    #[test]
    fn full_mode_delivery_laps_audit_append_twice_and_quench_once() {
        use legaliot_audit::AuditEventKind;
        use legaliot_obs::ObsConfig;
        use telemetry::Stage;

        let config = DataplaneConfig {
            audit_detail: AuditDetail::Full,
            telemetry: ObsConfig::enabled(),
            ..DataplaneConfig::default()
        };
        let dataplane = two_pair_plane(config);
        dataplane.register_schema(reading_schema()).unwrap();
        for t in 10..18 {
            dataplane.publish_message("a", &reading_message(), Timestamp(t)).unwrap();
        }
        dataplane.drain();
        let merged = dataplane.telemetry().merged();
        assert_eq!(merged.stage(Stage::AuditAppend).count(), 16);
        assert_eq!(merged.stage(Stage::Quench).count(), 8);
        assert_eq!(merged.stage(Stage::Delivery).count(), 8);

        let report = dataplane.shutdown();
        assert_eq!(report.stats.quenched_attributes, 8);
        let count = |kind| report.shard_audit.iter().flat_map(|log| log.of_kind(kind)).count();
        assert_eq!(count(AuditEventKind::FlowChecked), 8);
        assert_eq!(count(AuditEventKind::MessageQuenched), 8);
    }

    fn durable_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static UNIQUE: AtomicUsize = AtomicUsize::new(0);
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("legaliot-dp-durable-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_config(dir: &std::path::Path) -> DataplaneConfig {
        DataplaneConfig {
            audit_detail: AuditDetail::Full,
            audit_batch: 4,
            audit_retention: Some(8),
            persistence: Some(PersistenceConfig::at(dir)),
            ..DataplaneConfig::default()
        }
    }

    /// Durable audit end to end: every batch's records stream to per-shard
    /// segments, shutdown seals everything fsynced, the on-disk stream is each
    /// shard's complete dense history, and a second incarnation on the same
    /// directories extends the very same verifiable chain.
    #[test]
    fn durable_audit_persists_prunes_and_survives_restart() {
        let dir = durable_dir("roundtrip");
        let config = durable_config(&dir);
        let persistence = config.persistence.clone().unwrap();

        let dataplane = two_pair_plane(config.clone());
        for round in 0..100 {
            tick(&dataplane, "a", 10 + round).unwrap();
            tick(&dataplane, "c", 10 + round).unwrap();
        }
        dataplane.drain();
        let live = dataplane.stats();
        assert!(live.segment_records_persisted > 0, "retention streamed to disk: {live:?}");
        assert!(live.segment_bytes_fsynced > 0, "flushes fsynced: {live:?}");
        assert_eq!(live.segment_records_dropped, 0, "{live:?}");
        assert_eq!(live.recovery_truncations, 0, "{live:?}");

        let report = dataplane.shutdown();
        assert!(report.segments_sealed >= 1, "shutdown sealed open segments");
        assert_eq!(report.unsynced_bytes, 0, "clean shutdown leaves nothing unsynced");
        let segment_stats = report.segment_stats.as_ref().expect("persistence was on");
        assert_eq!(segment_stats.records_dropped, 0);
        assert!(segment_stats.fsync.count() > 0, "fsync latency histogram populated");

        // Disk holds each shard's complete stream: clean recovery, dense ids,
        // intact chain, and the totals equal the persisted counter.
        let mut disk_records = 0u64;
        for shard in 0..report.shard_audit.len() {
            let recovered =
                legaliot_audit::SegmentStore::recover(persistence.shard_dir(shard)).unwrap();
            assert!(recovered.is_clean(), "truncations: {:?}", recovered.truncations);
            assert!(recovered.chain.is_intact());
            for (i, record) in recovered.records.iter().enumerate() {
                assert_eq!(record.id.0, i as u64, "ids are dense from 0");
            }
            disk_records += recovered.records.len() as u64;
        }
        assert_eq!(disk_records, report.stats.segment_records_persisted);
        // The control trail is on disk beside them, whole: the two subscriptions.
        let control = legaliot_audit::SegmentStore::recover(persistence.control_dir()).unwrap();
        assert!(control.is_clean(), "truncations: {:?}", control.truncations);
        assert!(control.chain.is_intact());
        assert_eq!(control.records, report.control_audit.records());

        // Second incarnation on the same directories: each shard re-anchors on
        // its persisted head, and the combined disk stream still verifies as one
        // chain across both incarnations.
        let dataplane = two_pair_plane(config);
        assert_eq!(dataplane.stats().recovery_truncations, 0);
        for round in 0..20 {
            tick(&dataplane, "a", 500 + round).unwrap();
        }
        dataplane.drain();
        let report = dataplane.shutdown();
        assert_eq!(report.unsynced_bytes, 0);
        let mut grown = 0u64;
        for shard in 0..report.shard_audit.len() {
            let recovered =
                legaliot_audit::SegmentStore::recover(persistence.shard_dir(shard)).unwrap();
            assert!(recovered.is_clean(), "truncations: {:?}", recovered.truncations);
            assert!(recovered.chain.is_intact(), "cross-incarnation chain verifies");
            grown += recovered.records.len() as u64;
        }
        assert!(grown > disk_records, "the second incarnation extended the chain");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The control plane's trail lives as a shard's does: each incarnation resumes the
    /// chain its control directory holds, so subscriptions and relabellings across two
    /// incarnations are one chain on disk with ids dense from 0, while the reports
    /// keep only what retention bounds.
    #[test]
    fn a_restart_continues_the_control_chain() {
        use legaliot_audit::{AuditEvent, AuditEventKind};
        let dir = durable_dir("control");
        let config = durable_config(&dir);
        let persistence = config.persistence.clone().unwrap();
        let mut retained = Vec::new();
        for incarnation in 0..2u64 {
            let dataplane = two_pair_plane(config.clone());
            for round in 0..10 {
                let secrecy = if round % 2 == 0 { vec!["t", "x"] } else { vec!["t"] };
                let at = Timestamp(100 * (incarnation + 1) + round);
                let context = SecurityContext::from_names(secrecy, Vec::<&str>::new());
                dataplane.set_context("b", context, at).unwrap();
            }
            dataplane.unsubscribe("a", "b", Timestamp(100 * (incarnation + 1) + 50)).unwrap();
            let report = dataplane.shutdown();
            assert!(report.control_audit.verify_chain().is_intact());
            assert!(report.control_audit.len() <= 16, "retention bounds the control trail");
            retained.push(report.control_audit);
        }
        let recovered = legaliot_audit::SegmentStore::recover(persistence.control_dir()).unwrap();
        assert!(recovered.is_clean(), "truncations: {:?}", recovered.truncations);
        assert!(recovered.chain.is_intact(), "one chain across both incarnations");
        assert_eq!(recovered.initial_anchor, 0, "the chain starts at genesis");
        // Per incarnation: two subscriptions, ten relabellings, one teardown.
        assert_eq!(recovered.records.len(), 2 * 13);
        for (i, record) in recovered.records.iter().enumerate() {
            assert_eq!(record.id.0, i as u64, "ids are dense from 0");
            assert_eq!(record.recorded_by, "test-control");
        }
        let kinds = |kind| recovered.records.iter().filter(|r| r.event.kind() == kind).count();
        assert_eq!(kinds(AuditEventKind::ChannelChanged), 2 * 3);
        assert_eq!(kinds(AuditEventKind::LabelChanged), 2 * 10);
        assert!(matches!(
            &recovered.records[13].event,
            AuditEvent::ChannelChanged { from, to, established: true, .. } if from == "a" && to == "b"
        ));
        // What each report kept is the newest part of that chain.
        for (log, end) in retained.iter().zip([13, 26]) {
            assert_eq!(log.records(), &recovered.records[end - log.len()..end]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Retention bounds the control trail as it bounds a shard's: 100 relabellings
    /// under a retention of 8 leave at most 16 records in the report, re-anchored on
    /// the last one freed, and the chain still verifies.
    #[test]
    fn the_control_trail_is_bounded_by_retention() {
        let config = DataplaneConfig { audit_retention: Some(8), ..DataplaneConfig::default() };
        let dataplane = two_pair_plane(config);
        for round in 0..100 {
            let secrecy = if round % 2 == 0 { vec!["t", "x"] } else { vec!["t"] };
            let context = SecurityContext::from_names(secrecy, Vec::<&str>::new());
            dataplane.set_context("b", context, Timestamp(10 + round)).unwrap();
        }
        let report = dataplane.shutdown();
        let control = &report.control_audit;
        assert!(control.len() <= 16, "{} control records retained", control.len());
        assert!(control.verify_chain().is_intact());
        assert_ne!(control.anchor_hash(), 0, "re-anchored on the last record freed");
        assert_eq!(control.next_id(), 102, "two subscriptions and 100 relabellings");
        assert_eq!(control.records().last().map(|record| record.at_millis), Some(109));
    }

    /// Startup recovery semantics: a torn tail (crash mid-frame) is truncated,
    /// surfaced in `stats().recovery_truncations`, and the next incarnation
    /// re-anchors on the last *persisted* record so the chain still verifies.
    #[test]
    fn startup_recovery_truncates_torn_tails_and_reanchors() {
        let dir = durable_dir("torn");
        let config = durable_config(&dir);
        let persistence = config.persistence.clone().unwrap();

        let dataplane = two_pair_plane(config.clone());
        for round in 0..100 {
            tick(&dataplane, "a", 10 + round).unwrap();
            tick(&dataplane, "c", 10 + round).unwrap();
        }
        dataplane.drain();
        drop(dataplane);

        // Tear the tail of every trail directory that has segments — each shard's and
        // the control plane's: cut the highest-sequence file a few bytes short, mid-frame.
        let shards = config.shards;
        let trail_dirs: Vec<_> = (0..shards)
            .map(|shard| persistence.shard_dir(shard))
            .chain([persistence.control_dir()])
            .collect();
        let mut torn = 0u64;
        for trail_dir in &trail_dirs {
            let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(trail_dir)
                .map(|entries| entries.map(|e| e.unwrap().path()).collect())
                .unwrap_or_default();
            files.sort();
            if let Some(last) = files.pop() {
                let len = std::fs::metadata(&last).unwrap().len();
                assert!(len > 27, "a sealed segment holds at least one frame");
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&last)
                    .unwrap()
                    .set_len(len - 3)
                    .unwrap();
                torn += 1;
            }
        }
        assert!(torn >= 2, "the workload persisted segments to tear, the control trail's too");

        // The next incarnation surfaces exactly the torn tails it repaired and
        // still verifies one chain across the truncation point.
        let dataplane = two_pair_plane(config);
        assert_eq!(dataplane.stats().recovery_truncations, torn);
        for round in 0..20 {
            tick(&dataplane, "a", 500 + round).unwrap();
        }
        dataplane.drain();
        let report = dataplane.shutdown();
        assert_eq!(report.stats.recovery_truncations, torn);
        assert_eq!(report.unsynced_bytes, 0);
        for trail_dir in &trail_dirs {
            let recovered = legaliot_audit::SegmentStore::recover(trail_dir).unwrap();
            assert!(
                recovered.is_clean(),
                "recovery repaired the tear: {:?}",
                recovered.truncations
            );
            assert!(recovered.chain.is_intact(), "chain re-anchored across the truncation");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A shard directory left by a release that wrote the retired version-1 segment
    /// format: startup reports it (`recovery_truncations`) and must not touch it —
    /// audit history this build cannot read is still audit history.
    #[test]
    fn startup_leaves_a_retired_v1_segment_untouched() {
        let dir = durable_dir("v1");
        let config = durable_config(&dir);
        let persistence = config.persistence.clone().unwrap();
        let mut v1 = b"LGAS".to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes()); // version
        v1.extend_from_slice(&0u64.to_le_bytes()); // sequence
        v1.extend_from_slice(&0u64.to_le_bytes()); // anchor
        v1.extend_from_slice(b"{\"id\":0,\"at_millis\":10,\"recorded_by\":\"durable-shard-0\"}");
        let path = persistence.shard_dir(0).join("segment-00000000.seg");
        std::fs::create_dir_all(persistence.shard_dir(0)).unwrap();
        std::fs::write(&path, &v1).unwrap();

        let dataplane = two_pair_plane(config);
        assert_eq!(dataplane.stats().recovery_truncations, 1);
        for round in 0..100 {
            tick(&dataplane, "a", 10 + round).unwrap();
            tick(&dataplane, "c", 10 + round).unwrap();
        }
        dataplane.drain();
        let report = dataplane.shutdown();
        assert_eq!(report.unsynced_bytes, 0);
        assert_eq!(std::fs::read(&path).unwrap(), v1, "the v1 segment was modified");

        let recovered = legaliot_audit::SegmentStore::recover(persistence.shard_dir(0)).unwrap();
        assert!(recovered.records.is_empty(), "nothing chains through unreadable history");
        assert!(recovered.truncations[0].reason.contains("retired segment format v1"));
        assert_eq!(std::fs::read(&path).unwrap(), v1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
