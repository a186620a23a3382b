//! Drives a generated fleet against a real [`Dataplane`].
//!
//! The harness installs the fleet through the same [`TopologyBuilder`] +
//! [`Dataplane::register_bulk`] path the hand-built topologies use, then walks
//! the script under a round barrier: each round applies its control events
//! while no work is in flight, publishes, drains the engine, and collects
//! every subscriber mailbox. The returned [`RunOutcome`] is keyed exactly like
//! the oracle's [`crate::model::Prediction`], so conformance is a map
//! comparison.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use legaliot_audit::{AuditEvent, AuditRecord};
use legaliot_context::{ContextStore, Timestamp};
use legaliot_dataplane::{
    Dataplane, DataplaneConfig, DataplaneError, DataplaneStats, Subscriber, TopologyBuilder,
};
use legaliot_ifc::SecurityContext;
use legaliot_middleware::Message;

use crate::model::PairTrail;
use crate::spec::{ControlEvent, Fleet, SchemaSpec};

/// A `DeliveryLost` evidence record, keyed like a predicted delivery.
#[derive(Debug, Clone, PartialEq)]
pub struct LostDelivery {
    /// The publishing endpoint.
    pub source: String,
    /// The subscriber that never saw the message.
    pub destination: String,
    /// The publish timestamp (records are appended with the unit's own time).
    pub at_millis: u64,
    /// How many deliveries the record accounts for.
    pub lost: u64,
    /// Why the work was abandoned.
    pub cause: String,
}

/// Everything observed from one fleet run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Per subscribe attempt, in script order: `(publisher, subscriber, admitted)`.
    pub admissions: Vec<(String, String, bool)>,
    /// Every delivery observed on a subscriber mailbox, thawed, keyed
    /// `(sender, receiver, sent_at_millis)`.
    pub observed: BTreeMap<(String, String, u64), Message>,
    /// Observed deliveries whose key was already present (must be zero — the
    /// global clock makes keys unique).
    pub duplicate_deliveries: u64,
    /// Final engine counters.
    pub stats: DataplaneStats,
    /// All `DeliveryLost` evidence from the merged audit timeline.
    pub lost: Vec<LostDelivery>,
    /// Every shard's audit records, shard by shard, each in chain order.
    pub shard_records: Vec<AuditRecord>,
    /// Whether every audit chain (shards + control plane) verified intact.
    pub chains_intact: bool,
    /// Workers that escaped supervision and died (must be zero).
    pub worker_panics: usize,
}

/// A fleet installed on a live dataplane, ready to play rounds — the machinery
/// behind [`run_fleet_partial`], which hands the live engine back after the rounds it
/// plays; [`run_fleet`] is that run over every round, shut down gracefully.
struct FleetSession {
    dataplane: Dataplane,
    store: Arc<ContextStore>,
    schemas: BTreeMap<String, SchemaSpec>,
    subscribers: BTreeMap<String, Subscriber>,
    admissions: Vec<(String, String, bool)>,
    observed: BTreeMap<(String, String, u64), Message>,
    duplicate_deliveries: u64,
}

impl FleetSession {
    fn install(fleet: &Fleet, name: &str, config: DataplaneConfig) -> Result<Self, DataplaneError> {
        let dataplane = Dataplane::new(name, config);
        let store = Arc::clone(dataplane.context_store());

        // Settle every context key before any admission reads it.
        for deployment in &fleet.deployments {
            for (key, value) in &deployment.initial_keys {
                store.set(key.as_str(), value.to_context_value(), Timestamp(1));
            }
        }

        // One fleet-wide topology through the shared builder/bulk path.
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
        topology.register(&dataplane)?;

        let mut schemas: BTreeMap<String, SchemaSpec> = BTreeMap::new();
        for deployment in &fleet.deployments {
            for schema in &deployment.schemas {
                dataplane.register_schema(schema.to_schema())?;
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

        // Every edge destination gets a streaming receiver for the whole run —
        // including destinations only joiners ever publish to (consumers never
        // leave and joins only add publishers, so every destination is registered
        // from install and keeps its mailbox to the end).
        let mut subscribers: BTreeMap<String, Subscriber> = BTreeMap::new();
        let mut consumer_names: BTreeSet<&str> =
            topology.edges.iter().map(|(_, to)| to.as_str()).collect();
        for round in &fleet.rounds {
            for (_, event) in &round.events {
                if let ControlEvent::Join { edges, .. } = event {
                    consumer_names.extend(edges.iter().map(|(_, to)| to.as_str()));
                }
            }
        }
        for consumer in consumer_names {
            subscribers.insert(consumer.to_string(), dataplane.open_subscriber(consumer)?);
        }

        let mut admissions = Vec::new();
        {
            let snapshot = store.snapshot();
            for (from, to) in &topology.edges {
                let outcome = dataplane.subscribe(from, to, &snapshot, Timestamp(2))?;
                admissions.push((from.clone(), to.clone(), outcome.is_delivered()));
            }
        }

        Ok(FleetSession {
            dataplane,
            store,
            schemas,
            subscribers,
            admissions,
            observed: BTreeMap::new(),
            duplicate_deliveries: 0,
        })
    }

    /// Plays one scripted round: control events against a settled engine, then
    /// publishes, a full drain, and a sweep of every subscriber mailbox.
    fn play_round(&mut self, round: &crate::spec::Round) -> Result<(), DataplaneError> {
        // Control phase: the previous round fully drained, so every change
        // lands while no delivery is in flight — enforcement and the oracle
        // judge each round against the same settled state.
        for (at, event) in &round.events {
            apply_event(&self.dataplane, &self.store, &mut self.admissions, *at, event)?;
        }
        for publish in &round.publishes {
            let schema =
                self.schemas.get(&publish.message_type).expect("generated publishes have schemas");
            let message = publish.message(schema);
            self.dataplane.publish_message(
                &publish.publisher,
                &message,
                Timestamp(publish.at_millis),
            )?;
        }
        self.dataplane.drain();
        for (consumer, subscriber) in &self.subscribers {
            for received in subscriber.drain() {
                let message = received.thaw();
                let key = (message.sender.clone(), consumer.clone(), message.sent_at_millis);
                if self.observed.insert(key, message).is_some() {
                    self.duplicate_deliveries += 1;
                }
            }
        }
        Ok(())
    }
}

/// Installs and runs `fleet` on a dataplane with the given configuration: every
/// round through [`run_fleet_partial`], then a graceful shutdown.
///
/// # Errors
///
/// Propagates engine errors (duplicate endpoints, unknown schemas, publishes
/// routed to degraded shards under heavy fault injection).
pub fn run_fleet(
    fleet: &Fleet,
    name: &str,
    config: DataplaneConfig,
) -> Result<RunOutcome, DataplaneError> {
    let PartialRun { admissions, observed, duplicate_deliveries, dataplane, .. } =
        run_fleet_partial(fleet, name, config, fleet.rounds.len())?;
    let report = dataplane.shutdown();
    let lost = report
        .merged_timeline()
        .into_iter()
        .filter_map(|record| match record.event {
            AuditEvent::DeliveryLost { source, destination, lost, cause, .. } => {
                Some(LostDelivery { source, destination, at_millis: record.at_millis, lost, cause })
            }
            _ => None,
        })
        .collect();
    let chains_intact = report.shard_audit.iter().all(|log| log.verify_chain().is_intact())
        && report.control_audit.verify_chain().is_intact();
    let shard_records = report.shard_audit.iter().flat_map(|log| log.records()).cloned().collect();
    Ok(RunOutcome {
        admissions,
        observed,
        duplicate_deliveries,
        stats: report.stats,
        lost,
        shard_records,
        chains_intact,
        worker_panics: report.worker_panics.len(),
    })
}

impl RunOutcome {
    /// The shard records folded per `(source, destination)` pair into the shape
    /// [`crate::model::Prediction::trail`] predicts: `FlowChecked`,
    /// `MessageQuenched` and `FlowSummary` records, in chain order. Records of any
    /// other kind (losses, drops, restarts) are not part of a pair's trail.
    pub fn trail(&self) -> BTreeMap<(String, String), PairTrail> {
        let mut trails: BTreeMap<(String, String), PairTrail> = BTreeMap::new();
        for record in &self.shard_records {
            let (source, destination) = match &record.event {
                AuditEvent::FlowChecked { source, destination, .. }
                | AuditEvent::MessageQuenched { source, destination, .. }
                | AuditEvent::FlowSummary { source, destination, .. } => (source, destination),
                _ => continue,
            };
            let trail = trails.entry((source.clone(), destination.clone())).or_default();
            match &record.event {
                AuditEvent::MessageQuenched { attributes, .. } => {
                    trail.quenched.push((record.at_millis, attributes.clone()));
                }
                AuditEvent::FlowSummary {
                    allowed,
                    denied,
                    window_start_millis,
                    window_end_millis,
                    ..
                } => {
                    (trail.allowed, trail.denied) = (*allowed, *denied);
                    trail.window = (*window_start_millis, *window_end_millis);
                }
                _ => trail.flow_checked.push(record.at_millis),
            }
        }
        trails
    }
}

/// Everything observed from a fleet run stopped after [`Self::rounds_played`]
/// rounds, with the engine still alive.
#[derive(Debug)]
pub struct PartialRun {
    /// Per subscribe attempt so far, in script order: `(publisher, subscriber, admitted)`.
    pub admissions: Vec<(String, String, bool)>,
    /// Every delivery observed so far, thawed, keyed `(sender, receiver, sent_at_millis)`.
    pub observed: BTreeMap<(String, String, u64), Message>,
    /// Observed deliveries whose key was already present (must be zero).
    pub duplicate_deliveries: u64,
    /// Engine counters snapshotted after the last played round's drain — exact,
    /// because nothing is in flight at a round boundary.
    pub stats: DataplaneStats,
    /// How many script rounds actually ran (the script may be shorter than asked).
    pub rounds_played: usize,
    /// The live engine. Dropping it takes the abandon path (mailboxes closed
    /// first, then workers joined) — the harness's stand-in for a process torn
    /// down mid-churn, used by the durable-audit crash-recovery tests.
    pub dataplane: Dataplane,
}

/// Installs `fleet` and plays only the first `rounds` rounds, then hands back
/// the live engine plus everything observed so far (subscriber mailboxes are
/// already dropped). The caller decides how the run ends: `shutdown()` for a
/// graceful close, or dropping [`PartialRun::dataplane`] to model a mid-churn
/// teardown for crash-recovery testing.
///
/// # Errors
///
/// Propagates engine errors exactly as [`run_fleet`] does.
pub fn run_fleet_partial(
    fleet: &Fleet,
    name: &str,
    config: DataplaneConfig,
    rounds: usize,
) -> Result<PartialRun, DataplaneError> {
    let mut session = FleetSession::install(fleet, name, config)?;
    let rounds_played = rounds.min(fleet.rounds.len());
    for round in &fleet.rounds[..rounds_played] {
        session.play_round(round)?;
    }
    let FleetSession { dataplane, subscribers, admissions, observed, duplicate_deliveries, .. } =
        session;
    drop(subscribers);
    let stats = dataplane.stats();
    Ok(PartialRun { admissions, observed, duplicate_deliveries, stats, rounds_played, dataplane })
}

fn apply_event(
    dataplane: &Dataplane,
    store: &ContextStore,
    admissions: &mut Vec<(String, String, bool)>,
    at: u64,
    event: &ControlEvent,
) -> Result<(), DataplaneError> {
    match event {
        ControlEvent::SetKey { key, value } => {
            store.set(key.as_str(), value.to_context_value(), Timestamp(at));
        }
        ControlEvent::SetContext { endpoint, secrecy, integrity } => {
            let context = SecurityContext::from_names(
                secrecy.iter().map(String::as_str),
                integrity.iter().map(String::as_str),
            );
            dataplane.set_context(endpoint, context, Timestamp(at))?;
        }
        ControlEvent::SetIsolated { endpoint, isolated } => {
            dataplane.set_isolated(endpoint, *isolated, Timestamp(at))?;
        }
        ControlEvent::AddRule(rule) => {
            dataplane.with_access(|access| {
                access.add_rule(rule.component.as_str(), rule.to_access_rule())
            });
        }
        ControlEvent::Join { thing, edges } => {
            // The same builder path as install, one joiner at a time.
            let mut builder = TopologyBuilder::new("join").thing(&thing.to_thing());
            for (from, to) in edges {
                builder = builder.edge(from.as_str(), to.as_str());
            }
            let topology = builder.build();
            topology.register(dataplane)?;
            let snapshot = store.snapshot();
            for (from, to) in &topology.edges {
                let outcome = dataplane.subscribe(from, to, &snapshot, Timestamp(at))?;
                admissions.push((from.clone(), to.clone(), outcome.is_delivered()));
            }
        }
        ControlEvent::Leave { endpoint } => {
            dataplane.deregister(endpoint)?;
        }
    }
    Ok(())
}
