//! Smoke tests mirroring the core entry path of each example in `examples/`,
//! so the public API the examples showcase cannot drift without failing CI.
//! (CI additionally runs `cargo run --example quickstart` end-to-end.)

use legaliot::compliance::ComplianceChecker;
use legaliot::core::{Deployment, HomeMonitoringScenario};
use legaliot::ifc::{can_flow, SecurityContext};
use legaliot::iot::{CityWorkload, Thing, ThingKind};
use legaliot::middleware::Message;

/// `examples/quickstart.rs`: label components, check flows, enforce through
/// the middleware, inspect the audit chain.
#[test]
fn quickstart_entry_path() {
    let sensor_ctx = SecurityContext::from_names(["medical", "ann"], ["hosp-dev", "consent"]);
    let analyser_ctx = SecurityContext::from_names(["medical", "ann"], ["hosp-dev", "consent"]);
    let advertiser_ctx = SecurityContext::public();
    assert!(can_flow(&sensor_ctx, &analyser_ctx).is_allowed());
    assert!(can_flow(&sensor_ctx, &advertiser_ctx).is_denied());

    let mut deployment = Deployment::new("quickstart", "engine");
    deployment.add_thing(
        &Thing::new("ann-sensor", ThingKind::Sensor, "ann", "home", sensor_ctx)
            .produces("sensor-reading"),
        "eu",
    );
    deployment.add_thing(
        &Thing::new("ann-analyser", ThingKind::CloudService, "hospital", "cloud", analyser_ctx)
            .consumes("sensor-reading"),
        "eu",
    );
    deployment.add_thing(
        &Thing::new("advertiser", ThingKind::Application, "ad-corp", "ad-cloud", advertiser_ctx),
        "us",
    );

    assert!(deployment.connect("ann-sensor", "ann-analyser").unwrap().is_delivered());
    assert!(!deployment.connect("ann-sensor", "advertiser").unwrap().is_delivered());

    deployment
        .send(
            "ann-sensor",
            "ann-analyser",
            Message::new("sensor-reading", SecurityContext::public()),
        )
        .unwrap();
    assert_eq!(deployment.receive("ann-analyser").len(), 1);
    assert!(!deployment.audit().is_empty());
    assert!(deployment.audit().verify_chain().is_intact());
}

/// `examples/home_monitoring.rs`: the Fig. 4 scenario delivers readings and
/// keeps an intact audit chain over several rounds.
#[test]
fn home_monitoring_entry_path() {
    let mut scenario = HomeMonitoringScenario::build(2016);
    scenario.run_sanitiser_endorsement();
    let outcome = scenario.run(3);
    assert!(outcome.delivered > 0);
    assert!(scenario.deployment.audit().verify_chain().is_intact());
}

/// `examples/smart_city.rs`: a multi-district city workload registers all of
/// its components with the deployment.
#[test]
fn smart_city_entry_path() {
    let city = CityWorkload::new(3, 4);
    let mut deployment = Deployment::new("smart-city", "council-engine");
    for thing in city.things() {
        let region = if thing.owner == "ad-corp" { "us" } else { "eu" };
        deployment.add_thing(&thing, region);
    }
    assert!(deployment.middleware().registry().len() >= 3 * 4);
}

/// `examples/compliance_audit.rs`: obligations → enforcement → audit →
/// compliance report → liability apportionment.
#[test]
fn compliance_audit_entry_path() {
    let mut scenario = HomeMonitoringScenario::build(7);
    scenario.run_sanitiser_endorsement();
    scenario.run_statistics_declassification();
    let outcome = scenario.run(5);
    assert!(outcome.delivered > 0);

    let regulation = scenario.regulation().clone();
    let report = scenario.deployment.compliance_report(&regulation);
    assert!(report.evidence_intact);

    let liability = ComplianceChecker::liability(&scenario.deployment.provenance(), "ann-analysis");
    assert_eq!(liability.data_item, "ann-analysis");
}

/// The dataplane path (`Dataplane::publish_message`): the smart-home and
/// smart-city topologies install onto the dataplane, traffic is enforced, the
/// summarised trail holds one full `FlowChecked` per (pair, message type), and every
/// per-shard audit chain verifies.
#[test]
fn dataplane_entry_path() {
    use legaliot::audit::AuditEvent;
    use legaliot::context::Timestamp;
    use legaliot::dataplane::{smart_city, smart_home, Dataplane, DataplaneConfig};
    use std::collections::BTreeSet;

    for topology in [smart_home(4, 2016), smart_city(2, 3)] {
        let dataplane = Dataplane::new(topology.name.clone(), DataplaneConfig::default());
        let admitted = dataplane_install(&topology, &dataplane);
        assert_eq!(admitted, topology.edges.len());
        let mut clock = 2;
        for _ in 0..50 {
            for (publisher, message) in topology.publisher_messages() {
                dataplane.publish_message(&publisher, &message, Timestamp(clock)).unwrap();
                clock += 1;
            }
        }
        dataplane.drain();
        let stats = dataplane.stats();
        assert_eq!(stats.delivered, stats.published);
        let report = dataplane.shutdown();
        // Nothing changes context: each (pair, message type) is evidenced in full once,
        // at its first message, and every repeat folds into the pair's summary.
        let messages = topology.publisher_messages();
        let sent: BTreeSet<(&str, &str, &str)> = topology
            .edges
            .iter()
            .flat_map(|(from, to)| {
                let types = messages.iter().filter(move |(publisher, _)| publisher == from);
                types.map(move |(_, message)| {
                    (from.as_str(), to.as_str(), message.message_type.as_str())
                })
            })
            .collect();
        let checked: Vec<(&str, &str, &str)> = report
            .shard_audit
            .iter()
            .flat_map(|log| log.records())
            .filter_map(|record| match &record.event {
                AuditEvent::FlowChecked { source, destination, data_item, .. } => {
                    let item = data_item.as_deref().expect("a message was checked");
                    let message_type = item.split('@').next().unwrap();
                    Some((source.as_str(), destination.as_str(), message_type))
                }
                _ => None,
            })
            .collect();
        assert_eq!(checked.len(), sent.len(), "one full check per (pair, message type)");
        assert_eq!(checked.into_iter().collect::<BTreeSet<_>>(), sent);
        assert!(report.shard_audit.iter().all(|log| log.verify_chain().is_intact()));
        assert!(report.control_audit.verify_chain().is_intact());
    }
}

/// A failpoint registry injects a supervised shard panic mid-run; the accounting
/// identity stays exact, the restart is counted and evidenced, and every audit chain
/// verifies across the restart.
#[test]
fn churn_soak_entry_path() {
    use legaliot::audit::AuditEvent;
    use legaliot::context::{ContextSnapshot, ContextStore, Timestamp};
    use legaliot::dataplane::{
        Dataplane, DataplaneConfig, FailpointRegistry, FailpointSite, FailpointSpec, FaultKind,
    };
    use std::sync::Arc;

    let registry = Arc::new(FailpointRegistry::new(9).with_spec(
        FailpointSpec::on_hits(FailpointSite::ShardProcess, FaultKind::Panic, 5, 0).limit(1),
    ));
    let store = Arc::new(ContextStore::new());
    let config = DataplaneConfig {
        shards: 1,
        failpoints: Some(Arc::clone(&registry)),
        ..DataplaneConfig::default()
    };
    let dataplane = Dataplane::with_context_store("soak-smoke", config, store);
    let topology = legaliot::dataplane::smart_home(2, 7);
    topology
        .install_with_payload_schemas(&dataplane, &ContextSnapshot::default(), Timestamp(1))
        .expect("topology installs");
    let pairs = topology.publisher_messages();
    let mut clock = 2u64;
    for _ in 0..40 {
        for (publisher, message) in &pairs {
            dataplane.publish_message(publisher, message, Timestamp(clock)).unwrap();
            clock += 1;
        }
    }
    dataplane.drain();
    let stats = dataplane.stats();
    assert_eq!(registry.fired(FailpointSite::ShardProcess), 1);
    assert_eq!(stats.shard_restarts, 1);
    assert_eq!(
        stats.published,
        stats.delivered + stats.denied + stats.missing_endpoint + stats.deliveries_lost
    );
    let report = dataplane.shutdown();
    assert!(report.worker_panics.is_empty());
    assert!(report.shard_audit.iter().all(|log| log.verify_chain().is_intact()));
    assert!(report
        .merged_timeline()
        .iter()
        .any(|record| matches!(record.event, AuditEvent::ShardRestarted { .. })));
}

/// `examples/audit_recover.rs`: build a segment store, tear the final segment
/// mid-frame, recover the verified prefix with the tear reported, and resume
/// the chain from the recovered head.
#[test]
fn audit_recover_entry_path() {
    use legaliot::audit::{AuditEvent, AuditLog, SegmentStore};
    use std::path::PathBuf;

    let dir =
        std::env::temp_dir().join(format!("legaliot-audit-recover-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut log = AuditLog::new("demo-shard");
    for i in 0..10u64 {
        log.record(
            AuditEvent::PolicyFired { policy: format!("p{i}"), trigger: "t".into(), actions: 1 },
            100 + i,
        );
    }
    let mut store = SegmentStore::create(&dir, 0, 4).expect("create store");
    for record in log.records() {
        assert!(store.append(record));
    }
    assert!(store.seal());

    let mut segments: Vec<PathBuf> =
        std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    segments.sort();
    let last = segments.last().unwrap();
    let len = std::fs::metadata(last).unwrap().len();
    std::fs::OpenOptions::new().write(true).open(last).unwrap().set_len(len - 5).unwrap();

    let report = SegmentStore::recover(&dir).expect("recover");
    assert!(report.chain.is_intact());
    assert_eq!(report.records.len(), 9);
    assert_eq!(report.truncations.len(), 1);
    assert_eq!(report.segments.len(), 3);
    assert_eq!(report.next_id, 9);

    let again = SegmentStore::recover(&dir).expect("recover repaired dir");
    assert!(again.is_clean());
    let mut resumed = again.resume_log("demo-shard");
    resumed.record(
        AuditEvent::PolicyFired { policy: "post".into(), trigger: "t".into(), actions: 1 },
        200,
    );
    let mut combined = again.records.clone();
    combined.extend(resumed.records().iter().cloned());
    assert!(AuditLog::verify_records(again.initial_anchor, &combined).is_intact());
    std::fs::remove_dir_all(&dir).unwrap();
}

fn dataplane_install(
    topology: &legaliot::dataplane::Topology,
    dataplane: &legaliot::dataplane::Dataplane,
) -> usize {
    use legaliot::context::{ContextSnapshot, Timestamp};
    topology
        .install_with_payload_schemas(dataplane, &ContextSnapshot::default(), Timestamp(1))
        .expect("installs")
}
