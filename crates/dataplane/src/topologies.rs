//! Adapters from the `legaliot-iot` scenario workloads to dataplane deployments.
//!
//! The benchmarks and examples drive the dataplane with the same smart-home (Fig. 7)
//! and smart-city topologies the `legaliot-core` scenarios wire on the synchronous bus,
//! so throughput numbers are measured against paper-faithful component graphs rather
//! than synthetic stars.

use legaliot_context::{ContextSnapshot, Timestamp};
use legaliot_ifc::{Label, SecurityContext};
use legaliot_iot::{CityWorkload, HomeMonitoringWorkload, Thing};
use legaliot_middleware::{
    AttributeKind, AttributeValue, Component, Message, MessageSchema, MessageType,
};

use crate::engine::{Dataplane, DataplaneError};

/// The demo payload schema the topologies register for every message type their
/// components produce: a float reading, a text unit, and a `subject-id` attribute
/// carrying the message-level `identity` tag (Fig. 10's tag `C`). No scenario
/// subscriber holds `identity`, so every payload delivery exercises per-attribute
/// source quenching.
pub fn payload_schema(message_type: &MessageType) -> MessageSchema {
    MessageSchema::new(message_type.as_str())
        .attribute("value", AttributeKind::Float)
        .attribute("unit", AttributeKind::Text)
        .sensitive_attribute("subject-id", AttributeKind::Text, Label::from_names(["identity"]))
}

/// A message conforming to [`payload_schema`] for the given type.
fn sample_message(message_type: &MessageType) -> Message {
    Message::new(message_type.as_str(), SecurityContext::public())
        .with("value", AttributeValue::Float(98.6))
        .with("unit", AttributeValue::Text("bpm".into()))
        .with("subject-id", AttributeValue::Text("subject-0017".into()))
}

/// A component graph: the things to register and the pub/sub edges to establish.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Human-readable name (used for audit authorities and reports).
    pub name: String,
    /// Components to register, in deterministic order.
    pub components: Vec<Component>,
    /// `(publisher, subscriber)` edges to admission-check and subscribe.
    pub edges: Vec<(String, String)>,
}

/// Builds a [`Topology`] incrementally — the one conversion + wiring path shared
/// by the hand-built adapters below and the `legaliot-fleet` generator, so
/// hand-built and generated deployments register identically.
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    name: String,
    components: Vec<Component>,
    edges: Vec<(String, String)>,
}

impl TopologyBuilder {
    /// Starts an empty topology with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TopologyBuilder { name: name.into(), components: Vec::new(), edges: Vec::new() }
    }

    /// Adds a thing, converted via [`Thing::to_component`] (owner principal carries
    /// the thing-kind role, context/node/produces/consumes preserved).
    pub fn thing(mut self, thing: &Thing) -> Self {
        self.components.push(thing.to_component());
        self
    }

    /// Adds every thing of an iterator, in order.
    pub fn things<'a>(mut self, things: impl IntoIterator<Item = &'a Thing>) -> Self {
        for thing in things {
            self.components.push(thing.to_component());
        }
        self
    }

    /// Adds an already-built component.
    pub fn component(mut self, component: Component) -> Self {
        self.components.push(component);
        self
    }

    /// Adds a `publisher → subscriber` edge.
    pub fn edge(mut self, publisher: impl Into<String>, subscriber: impl Into<String>) -> Self {
        self.edges.push((publisher.into(), subscriber.into()));
        self
    }

    /// Finishes the topology.
    pub fn build(self) -> Topology {
        Topology { name: self.name, components: self.components, edges: self.edges }
    }
}

impl Topology {
    /// The names of components that publish (appear as an edge source) — the driver
    /// loop publishes from these.
    pub fn publishers(&self) -> Vec<String> {
        let mut names: Vec<String> = self.edges.iter().map(|(from, _)| from.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// Registers every component as an endpoint via [`Dataplane::register_bulk`]
    /// (one directory lock for the whole batch), without touching access rules or
    /// subscriptions — generated fleets install their own per-component policies
    /// before wiring edges.
    ///
    /// # Errors
    ///
    /// Propagates duplicate-endpoint errors; nothing is registered on `Err`.
    pub fn register(&self, dataplane: &Dataplane) -> Result<(), DataplaneError> {
        dataplane.register_bulk(self.components.iter().cloned())?;
        Ok(())
    }

    /// Admission-checks and subscribes every edge, in order. Returns how many edges
    /// were admitted (an edge refused by access control or IFC is an outcome, not an
    /// error).
    ///
    /// # Errors
    ///
    /// Propagates unknown-endpoint subscription errors.
    pub fn subscribe_edges(
        &self,
        dataplane: &Dataplane,
        snapshot: &ContextSnapshot,
        now: Timestamp,
    ) -> Result<usize, DataplaneError> {
        let mut admitted = 0;
        for (publisher, subscriber) in &self.edges {
            if dataplane.subscribe(publisher, subscriber, snapshot, now)?.is_delivered() {
                admitted += 1;
            }
        }
        Ok(admitted)
    }

    /// Every message type produced by a component of this topology, deduplicated.
    pub fn message_types(&self) -> Vec<MessageType> {
        let mut types: Vec<MessageType> =
            self.components.iter().flat_map(|c| c.produces().iter().cloned()).collect();
        types.sort();
        types.dedup();
        types
    }

    /// Registers every component (with open `Send` access, as the scenarios configure),
    /// subscribes every edge, and registers [`payload_schema`] for every produced
    /// message type, so every publisher can [`Dataplane::publish_message`]. Returns how
    /// many edges were admitted.
    ///
    /// # Errors
    ///
    /// Propagates registration, subscription and schema-registration errors (duplicate
    /// or unknown endpoints).
    pub fn install_with_payload_schemas(
        &self,
        dataplane: &Dataplane,
        snapshot: &ContextSnapshot,
        now: Timestamp,
    ) -> Result<usize, DataplaneError> {
        self.register(dataplane)?;
        for component in &self.components {
            dataplane.allow_sends_to(component.name());
        }
        let admitted = self.subscribe_edges(dataplane, snapshot, now)?;
        for message_type in self.message_types() {
            dataplane.register_schema(payload_schema(&message_type))?;
        }
        Ok(admitted)
    }

    /// `(publisher, sample message)` pairs for payload-driving loops: each publisher
    /// paired with a message conforming to [`payload_schema`] for the first type it
    /// produces.
    pub fn publisher_messages(&self) -> Vec<(String, Message)> {
        self.publishers()
            .into_iter()
            .filter_map(|name| {
                let component = self.components.iter().find(|c| c.name() == name)?;
                let message_type = component.produces().first()?;
                Some((name, sample_message(message_type)))
            })
            .collect()
    }
}

/// The smart-home monitoring topology (Fig. 7) for `patients` patients: hospital-device
/// sensors feed their analysers directly, third-party sensors go through the input
/// sanitiser, and every analyser feeds the statistics generator.
pub fn smart_home(patients: usize, seed: u64) -> Topology {
    let workload = HomeMonitoringWorkload::with_patients(patients.max(1), seed);
    let mut builder = TopologyBuilder::new("smart-home").things(workload.things().iter());
    for patient in &workload.patients {
        if patient.hospital_device {
            builder = builder
                .edge(format!("{}-sensor", patient.name), format!("{}-analyser", patient.name));
        } else {
            builder = builder.edge(format!("{}-sensor", patient.name), "input-sanitiser");
        }
        builder = builder.edge(format!("{}-analyser", patient.name), "stats-generator");
    }
    builder.build()
}

/// The smart-city topology: per-district sensors feed their district gateway, gateways
/// feed the council analytics service, analytics feeds the anonymiser.
pub fn smart_city(districts: usize, sensors_per_district: usize) -> Topology {
    let workload = CityWorkload::new(districts.max(1), sensors_per_district.max(1));
    let mut builder = TopologyBuilder::new("smart-city").things(workload.things().iter());
    for district in 0..workload.districts {
        for sensor in 0..workload.sensors_per_district {
            builder = builder.edge(
                format!("district{district}-sensor{sensor}"),
                format!("district{district}-gateway"),
            );
        }
        builder = builder.edge(format!("district{district}-gateway"), "council-analytics");
    }
    builder.edge("council-analytics", "city-anonymiser").build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DataplaneConfig;

    #[test]
    fn smart_home_topology_installs_fully() {
        let topology = smart_home(4, 7);
        let dataplane = Dataplane::new("smart-home-test", DataplaneConfig::default());
        let admitted = topology
            .install_with_payload_schemas(&dataplane, &ContextSnapshot::default(), Timestamp(1))
            .expect("install succeeds");
        // Every wired edge is IFC-legal in the scenario, so all must be admitted.
        assert_eq!(admitted, topology.edges.len());
        assert!(!topology.publishers().is_empty());
    }

    #[test]
    fn payload_schemas_install_and_sample_messages_conform() {
        let topology = smart_home(3, 7);
        let dataplane = Dataplane::new("smart-home-payload-test", DataplaneConfig::default());
        topology
            .install_with_payload_schemas(&dataplane, &ContextSnapshot::default(), Timestamp(1))
            .expect("install succeeds");
        let pairs = topology.publisher_messages();
        assert_eq!(pairs.len(), topology.publishers().len());
        for (publisher, message) in &pairs {
            dataplane.publish_message(publisher, message, Timestamp(2)).expect("publishes");
        }
        dataplane.drain();
        let stats = dataplane.stats();
        assert_eq!(stats.delivered, stats.published);
        // `subject-id` carries the `identity` tag no subscriber holds: every delivery
        // quenches exactly one attribute.
        assert_eq!(stats.quenched_attributes, stats.delivered);
        assert!(stats.payload_bytes > 0);
    }

    #[test]
    fn smart_city_topology_installs_fully() {
        let topology = smart_city(3, 4);
        let dataplane = Dataplane::new("smart-city-test", DataplaneConfig::default());
        let admitted = topology
            .install_with_payload_schemas(&dataplane, &ContextSnapshot::default(), Timestamp(1))
            .expect("install succeeds");
        assert_eq!(admitted, topology.edges.len());
        // 3 districts × 4 sensors + 3 gateway→analytics + analytics→anonymiser.
        assert_eq!(topology.edges.len(), 3 * 4 + 3 + 1);
    }
}
