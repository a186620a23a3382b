//! Integration tests reproducing the paper's figures end-to-end across crates.
//! One test (or group) per figure.

use legaliot::audit::{AuditEventKind, ProvenanceGraph};
use legaliot::compliance::RegulationSet;
use legaliot::core::{Deployment, HomeMonitoringScenario};
use legaliot::ifc::{can_flow, Entity, Gateway, PrivilegeKind, SecurityContext, Transformation};
use legaliot::iot::{Chain, HomeMonitoringWorkload, Thing, ThingKind};
use legaliot::kernel::{EnforcementMode, ObjectKind, Os};
use legaliot::middleware::{DeliveryOutcome, Message};
use legaliot::net::{Network, NodeKind};

fn ctx(s: &[&str], i: &[&str]) -> SecurityContext {
    SecurityContext::from_names(s.iter().copied(), i.iter().copied())
}

/// Fig. 3 — declassification and endorsement across security-context domains.
#[test]
fn fig3_declassification_and_endorsement_lattice() {
    let d_s1 = ctx(&["s1"], &[]);
    let d_s1s2 = ctx(&["s1", "s2"], &[]);
    let d_s3 = ctx(&["s3"], &[]);
    let d_i1 = ctx(&[], &["i1"]);

    // Allowed flow: s1 -> {s1, s2}; then confined to that (or more constrained) domains.
    assert!(can_flow(&d_s1, &d_s1s2).is_allowed());
    assert!(can_flow(&d_s1s2, &d_s1).is_denied());
    // Prevented flows between unrelated domains.
    assert!(can_flow(&d_s1, &d_s3).is_denied());
    assert!(can_flow(&d_s1, &d_i1).is_denied());

    // A declassifier entity bridges {s1,s2} back towards the public domain.
    let mut declassifier = Entity::active("declassifier", d_s1s2.clone());
    declassifier.privileges_mut().grant("s1", PrivilegeKind::SecrecyRemove);
    declassifier.privileges_mut().grant("s2", PrivilegeKind::SecrecyRemove);
    let transformation = Transformation::named("release-after-embargo")
        .removing_secrecy("s1")
        .removing_secrecy("s2");
    let gateway = Gateway::new(declassifier, transformation, ctx(&[], &[])).unwrap();
    assert!(gateway.bridges(&d_s1s2, &ctx(&[], &[])));
}

/// Fig. 2 / E2 — functional component chains of increasing length enforce every hop.
#[test]
fn fig2_chain_enforcement_across_lengths() {
    for length in [2usize, 4, 8, 16] {
        let chain = Chain::synthetic("stage", length);
        let mut deployment = Deployment::new("chain", "engine");
        let shared = ctx(&["pipeline"], &[]);
        for stage in &chain.stages {
            deployment.add_thing(
                &Thing::new(
                    stage.clone(),
                    ThingKind::CloudService,
                    "operator",
                    "node",
                    shared.clone(),
                )
                .produces("item")
                .consumes("item"),
                "eu",
            );
        }
        for (from, to) in chain.hops() {
            assert!(deployment.connect(&from, &to).unwrap().is_delivered());
            assert!(deployment
                .send(&from, &to, Message::new("item", SecurityContext::public()))
                .unwrap()
                .is_delivered());
        }
        // One channel event + one flow check per hop, at minimum.
        assert!(deployment.audit().len() >= 2 * chain.len());
    }
}

/// Fig. 4 — Zeb's data cannot reach Ann's analyser; Ann's can.
#[test]
fn fig4_illegal_flow_prevented() {
    let mut scenario = HomeMonitoringScenario::build(4);
    let (cross, unsanitised) = scenario.demonstrate_illegal_flows();
    assert!(matches!(cross, DeliveryOutcome::DeniedByIfc(_)));
    assert!(matches!(unsanitised, DeliveryOutcome::DeniedByIfc(_)));
    assert!(scenario.deployment.middleware().has_open_channel("ann-sensor", "ann-analyser"));
    // The denials are visible in the audit trail (accountability).
    assert!(scenario.deployment.audit().of_kind(AuditEventKind::ChannelChanged).any(
        |r| !matches!(
            r.event,
            legaliot::audit::AuditEvent::ChannelChanged { established: true, .. }
        )
    ));
}

/// Fig. 5 — the input sanitiser endorses Zeb's non-standard data: the raw reading is
/// accepted in the device context, and only after the (privileged) context change does
/// the converted reading reach Zeb's hospital analyser.
#[test]
fn fig5_endorsement_via_sanitiser() {
    let mut scenario = HomeMonitoringScenario::build(5);
    scenario.run_sanitiser_endorsement();
    assert!(scenario.deployment.middleware().has_open_channel("input-sanitiser", "zeb-analyser"));
    // Relay one reading through the alternating-context sanitiser pipeline.
    assert!(scenario.relay_third_party_reading("zeb", 82));
    assert_eq!(scenario.deployment.receive("zeb-analyser").len(), 1);
    // An unknown patient cannot be relayed.
    assert!(!scenario.relay_third_party_reading("nobody", 82));
}

/// Fig. 6 — anonymising declassification before the ward manager.
#[test]
fn fig6_declassification_for_statistics() {
    let mut scenario = HomeMonitoringScenario::build(6);
    let outcome = scenario.run_statistics_declassification();
    assert!(outcome.is_delivered());
    // The ward manager never gains access to raw per-patient data.
    let raw = scenario.deployment.connect("ann-analyser", "ward-manager").unwrap();
    assert!(matches!(raw, DeliveryOutcome::DeniedByIfc(_)));
}

/// Fig. 7 — emergency detection reconfigures the system and alerts responders.
#[test]
fn fig7_emergency_response_loop() {
    let mut scenario = HomeMonitoringScenario::build(77);
    scenario.run_sanitiser_endorsement();
    scenario.workload.emergency_probability = 1.0;
    let outcome = scenario.run(2);
    assert!(outcome.emergencies > 0);
    assert!(scenario.deployment.middleware().has_open_channel("ann-analyser", "emergency-doctor"));
    assert!(!scenario.deployment.middleware().actuations().is_empty());
    assert!(outcome.notifications > 0);
}

/// Fig. 8 — third-party reconfiguration is applied only from authorised issuers.
#[test]
fn fig8_third_party_reconfiguration_authorisation() {
    let mut deployment = Deployment::new("fig8", "trusted-engine");
    let shared = ctx(&["app"], &[]);
    for name in ["component-a", "component-b"] {
        deployment.add_thing(
            &Thing::new(name, ThingKind::CloudService, "operator", "node", shared.clone()),
            "eu",
        );
    }
    use legaliot::middleware::{Action, ReconfigurationCommand};
    let snapshot = deployment.context().snapshot();
    let now = deployment.now();
    // Authorised engine connects A to B.
    let ok = deployment.middleware_mut().handle_control(
        &ReconfigurationCommand::new(
            "orchestration",
            "trusted-engine",
            Action::Connect { from: "component-a".into(), to: "component-b".into() },
            1,
        ),
        &snapshot,
        now,
    );
    assert!(ok[0].is_applied());
    assert!(deployment.middleware().has_open_channel("component-a", "component-b"));
    // An unknown third party is refused.
    let rejected = deployment.middleware_mut().handle_control(
        &ReconfigurationCommand::new(
            "none",
            "mallory",
            Action::Isolate { component: "component-a".into() },
            2,
        ),
        &snapshot,
        now,
    );
    assert!(!rejected[0].is_applied());
    // Both attempts are audited.
    assert_eq!(deployment.audit().of_kind(AuditEventKind::Reconfigured).count(), 2);
}

/// Fig. 9 — two-level enforcement: kernel-level IFC locally, messaging-level IFC across
/// machines, labels preserved across the hand-off.
#[test]
fn fig9_cross_machine_two_level_enforcement() {
    // Kernel level on the home gateway: the sensor process writes a labelled reading.
    let mut home_os = Os::new("ann-home-gateway", EnforcementMode::Enforce);
    let sensor_proc =
        home_os.spawn("sensor-daemon", ctx(&["medical", "ann"], &["hosp-dev", "consent"]));
    let reading = home_os.create_object(sensor_proc, "reading-1", ObjectKind::File).unwrap();
    assert!(home_os.write(sensor_proc, reading, 1).unwrap().is_completed());
    // A co-located untrusted process cannot read it.
    let snoop = home_os.spawn("snoop", SecurityContext::public());
    assert!(!home_os.read(snoop, reading, 2).unwrap().is_completed());

    // Network: the gateway is connected to the hospital cloud.
    let mut network = Network::new();
    let gw = network.add_node("ann-home-gateway", NodeKind::Gateway, "ann-home").unwrap();
    let cloud = network.add_node("hospital-cloud", NodeKind::Cloud, "hospital").unwrap();
    network.link(gw, cloud, 20).unwrap();
    assert!(!network.same_domain(gw, cloud));

    // Messaging level: the middleware carries the kernel-level context across machines
    // and enforces the same rule at the receiving side.
    let mut deployment = Deployment::new("fig9", "hospital-engine");
    let sensor_ctx = home_os.process_context(sensor_proc).unwrap().clone();
    deployment.add_thing(
        &Thing::new("ann-sensor", ThingKind::Sensor, "ann", "ann-home-gateway", sensor_ctx)
            .produces("sensor-reading"),
        "eu",
    );
    deployment.add_thing(
        &Thing::new(
            "ann-analyser",
            ThingKind::CloudService,
            "hospital",
            "hospital-cloud",
            ctx(&["medical", "ann"], &["hosp-dev", "consent"]),
        )
        .consumes("sensor-reading"),
        "eu",
    );
    deployment.add_thing(
        &Thing::new(
            "public-dashboard",
            ThingKind::Application,
            "city",
            "hospital-cloud",
            SecurityContext::public(),
        ),
        "eu",
    );
    assert!(deployment.connect("ann-sensor", "ann-analyser").unwrap().is_delivered());
    assert!(matches!(
        deployment.connect("ann-sensor", "public-dashboard").unwrap(),
        DeliveryOutcome::DeniedByIfc(_)
    ));
    network.send(gw, cloud, &b"reading-1"[..]).unwrap();
    network.advance(25);
    assert_eq!(network.receive(cloud).len(), 1);
}

/// Fig. 10 — message-level tags: the sensitive attribute is quenched for receivers that
/// lack the app-specific tag.
#[test]
fn fig10_message_level_tags_source_quenching() {
    use legaliot::ifc::Label;
    use legaliot::middleware::{AttributeValue, MessageSchema};

    let mut deployment = Deployment::new("fig10", "engine");
    deployment.add_thing(
        &Thing::new("app-vm1", ThingKind::Application, "tenant", "vm1", ctx(&["A", "B"], &[]))
            .produces("person"),
        "eu",
    );
    deployment.add_thing(
        &Thing::new(
            "analyser-vm2",
            ThingKind::CloudService,
            "tenant",
            "vm2",
            ctx(&["A", "B"], &[]),
        )
        .consumes("person"),
        "eu",
    );
    deployment.add_thing(
        &Thing::new(
            "trusted-vault",
            ThingKind::CloudService,
            "tenant",
            "vm2",
            ctx(&["A", "B", "C"], &[]),
        )
        .consumes("person"),
        "eu",
    );
    // Attribute `name` carries the messaging-level tag C; `country` does not.
    deployment.middleware_mut().registry_mut().register_schema(
        MessageSchema::new("person")
            .attribute("country", legaliot::middleware::schema::AttributeKind::Text)
            .sensitive_attribute(
                "name",
                legaliot::middleware::schema::AttributeKind::Text,
                Label::from_names(["C"]),
            ),
    );
    deployment.connect("app-vm1", "analyser-vm2").unwrap();
    deployment.connect("app-vm1", "trusted-vault").unwrap();

    let message = || {
        Message::new("person", SecurityContext::public())
            .with("name", AttributeValue::Text("Ann".into()))
            .with("country", AttributeValue::Text("UK".into()))
    };
    match deployment.send("app-vm1", "analyser-vm2", message()).unwrap() {
        DeliveryOutcome::Delivered { quenched_attributes } => {
            assert_eq!(quenched_attributes, vec!["name".to_string()]);
        }
        other => panic!("expected delivery, got {other:?}"),
    }
    match deployment.send("app-vm1", "trusted-vault", message()).unwrap() {
        DeliveryOutcome::Delivered { quenched_attributes } => {
            assert!(quenched_attributes.is_empty())
        }
        other => panic!("expected delivery, got {other:?}"),
    }
    let vault_inbox = deployment.receive("trusted-vault");
    assert!(vault_inbox[0].attributes.contains_key("name"));
    let analyser_inbox = deployment.receive("analyser-vm2");
    assert!(!analyser_inbox[0].attributes.contains_key("name"));
    assert!(analyser_inbox[0].attributes.contains_key("country"));
}

/// Fig. 11 — the provenance graph built from enforcement records supports audit queries.
#[test]
fn fig11_provenance_graph_from_audit() {
    let mut scenario = HomeMonitoringScenario::build(11);
    scenario.run_sanitiser_endorsement();
    scenario.run_statistics_declassification();
    let provenance = scenario.deployment.provenance();
    assert!(provenance.derivation_is_acyclic());
    let ancestry: Vec<_> =
        provenance.ancestry("monthly-statistics").into_iter().map(|n| n.name.clone()).collect();
    assert!(ancestry.contains(&"ann-reading".to_string()));
    assert!(ancestry.contains(&"zeb-analysis".to_string()));
    let dot = provenance.to_dot();
    assert!(dot.contains("monthly-statistics"));

    // The same graph can also be reconstructed from the middleware audit log alone.
    let from_log = ProvenanceGraph::from_log(scenario.deployment.audit());
    assert!(from_log.node_count() > 0);
}

/// Fig. 1 / E1 — the full feedback loop: regulation compiled to policy, enforced,
/// audited, and demonstrably compliant; violations surface when obligations are unmet.
#[test]
fn fig1_feedback_loop_compliance() {
    let mut scenario = HomeMonitoringScenario::build(1);
    scenario.run_sanitiser_endorsement();
    scenario.workload.emergency_probability = 0.0;
    let outcome = scenario.run(5);
    let report = outcome.compliance.expect("report");
    assert!(report.is_compliant(), "violations: {:?}", report.violations);
    assert!(report.records_examined > 0);
    assert_eq!(report.obligations_checked, 5);
}

/// Failure injection: a rogue component is isolated by policy and cannot re-join flows;
/// a crashed node drops deliveries without breaking audit verifiability.
#[test]
fn failure_injection_rogue_component_and_node_crash() {
    // Rogue component isolation.
    let mut scenario = HomeMonitoringScenario::build(13);
    use legaliot::middleware::{Action, ReconfigurationCommand};
    let snapshot = scenario.deployment.context().snapshot();
    let now = scenario.deployment.now();
    let outcome = scenario.deployment.middleware_mut().handle_control(
        &ReconfigurationCommand::new(
            "incident",
            "hospital-engine",
            Action::Isolate { component: "ann-sensor".into() },
            1,
        ),
        &snapshot,
        now,
    );
    assert!(outcome[0].is_applied());
    // Isolation tore down the open channel; the bus reports the closed channel as a
    // hard error until it is re-established (which isolation prevents).
    assert_eq!(
        scenario.deployment.send(
            "ann-sensor",
            "ann-analyser",
            Message::new("sensor-reading", SecurityContext::public())
        ),
        Err(legaliot::middleware::MiddlewareError::ChannelClosed {
            from: "ann-sensor".into(),
            to: "ann-analyser".into()
        })
    );
    assert!(scenario.deployment.audit().verify_chain().is_intact());

    // Node crash in the network substrate.
    let mut network = Network::new();
    let a = network.add_node("gw", NodeKind::Gateway, "home").unwrap();
    let b = network.add_node("cloud", NodeKind::Cloud, "hospital").unwrap();
    network.link(a, b, 10).unwrap();
    network.send(a, b, &b"x"[..]).unwrap();
    network.set_node_up(b, false).unwrap();
    assert_eq!(network.advance(100), 0);
    assert!(network.receive(b).is_empty());
}

/// Consent withdrawal: without recorded consent the same flows become violations (E17).
#[test]
fn consent_governs_compliance_verdict() {
    let workload = HomeMonitoringWorkload::fig7(3);
    let mut deployment = Deployment::new("consent-test", "engine");
    for thing in workload.things() {
        deployment.add_thing(&thing, "eu");
    }
    let regulation = RegulationSet::eu_style_data_protection("ann");
    deployment.add_regulation(&regulation);
    deployment.connect("ann-sensor", "ann-analyser").unwrap();
    // Tag the flow's data as personal by joining the tag into the sensor context.
    use legaliot::middleware::{Action, ReconfigurationCommand};
    let snapshot = deployment.context().snapshot();
    let now = deployment.now();
    let add_personal = |component: &str, at| {
        let tag = legaliot::ifc::Tag::new("personal");
        let action = Action::AddTag { component: component.into(), tag, secrecy: true };
        ReconfigurationCommand::new("classification", "engine", action, at)
    };
    deployment.middleware_mut().handle_control(&add_personal("ann-sensor", 1), &snapshot, now);
    // Destination also needs the tag for the flow to be allowed at all.
    deployment.middleware_mut().handle_control(&add_personal("ann-analyser", 2), &snapshot, now);
    deployment.connect("ann-sensor", "ann-analyser").unwrap();
    deployment
        .send(
            "ann-sensor",
            "ann-analyser",
            Message::new("sensor-reading", SecurityContext::public()),
        )
        .unwrap();
    // No consent recorded: violation.
    let report = deployment.compliance_report(&regulation);
    assert!(!report.is_compliant());
    // Consent recorded: the same evidence is compliant.
    deployment.record_consent("ann");
    let report = deployment.compliance_report(&regulation);
    assert!(report.violations.iter().all(|v| !v.obligation.starts_with("consent:")));
}
