//! Things and functional component chains.

use std::fmt;

use legaliot_ifc::SecurityContext;
use legaliot_middleware::{Component, Principal};

/// The kinds of 'thing' in the paper's architecture (§2): "an entity, physical or
/// virtual, capable of interaction in its own right".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThingKind {
    /// A sensor producing readings.
    Sensor,
    /// An actuator accepting commands.
    Actuator,
    /// A gateway/hub fronting a subsystem (§2.1).
    Gateway,
    /// A cloud-hosted service (storage, processing, analytics; §2.2).
    CloudService,
    /// An application or user-facing endpoint.
    Application,
}

impl fmt::Display for ThingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ThingKind::Sensor => "sensor",
            ThingKind::Actuator => "actuator",
            ThingKind::Gateway => "gateway",
            ThingKind::CloudService => "cloud-service",
            ThingKind::Application => "application",
        };
        f.write_str(s)
    }
}

/// A 'thing': a named entity of a given kind, owned by a principal, hosted on a node,
/// with an IFC security context.
#[derive(Debug, Clone, PartialEq)]
pub struct Thing {
    /// The thing's name (unique in a deployment).
    pub name: String,
    /// What kind of thing it is.
    pub kind: ThingKind,
    /// The owning principal (person or organisation).
    pub owner: String,
    /// The network node hosting it.
    pub node: String,
    /// Its initial security context.
    pub context: SecurityContext,
    /// Message types it produces.
    pub produces: Vec<String>,
    /// Message types it consumes.
    pub consumes: Vec<String>,
}

impl Thing {
    /// Creates a thing with no declared message types.
    pub fn new(
        name: impl Into<String>,
        kind: ThingKind,
        owner: impl Into<String>,
        node: impl Into<String>,
        context: SecurityContext,
    ) -> Self {
        Thing {
            name: name.into(),
            kind,
            owner: owner.into(),
            node: node.into(),
            context,
            produces: Vec::new(),
            consumes: Vec::new(),
        }
    }

    /// Declares a produced message type.
    pub fn produces(mut self, message_type: impl Into<String>) -> Self {
        self.produces.push(message_type.into());
        self
    }

    /// Declares a consumed message type.
    pub fn consumes(mut self, message_type: impl Into<String>) -> Self {
        self.consumes.push(message_type.into());
        self
    }

    /// Converts the thing into a middleware [`Component`].
    pub fn to_component(&self) -> Component {
        let mut builder = Component::builder(
            self.name.clone(),
            Principal::new(self.owner.clone()).with_role(self.kind.to_string()),
        )
        .context(self.context.clone())
        .on_node(self.node.clone());
        for p in &self.produces {
            builder = builder.produces(p.as_str());
        }
        for c in &self.consumes {
            builder = builder.consumes(c.as_str());
        }
        builder.build()
    }
}

impl fmt::Display for Thing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}, owned by {})", self.name, self.kind, self.owner)
    }
}

/// A functional component chain (Fig. 2): an ordered sequence of things through which
/// data flows to realise some functionality.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Chain {
    /// The chain's name (e.g. `home-manager → gateway → app → DB → analyser`).
    pub name: String,
    /// The ordered component names.
    pub stages: Vec<String>,
}

impl Chain {
    /// Creates a named chain from ordered stage names.
    pub fn new<I, S>(name: impl Into<String>, stages: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Chain { name: name.into(), stages: stages.into_iter().map(Into::into).collect() }
    }

    /// The consecutive `(from, to)` hops of the chain.
    pub fn hops(&self) -> Vec<(String, String)> {
        self.stages.windows(2).map(|w| (w[0].clone(), w[1].clone())).collect()
    }

    /// The number of hops (stages minus one, zero for degenerate chains).
    pub fn len(&self) -> usize {
        self.stages.len().saturating_sub(1)
    }

    /// Whether the chain has no hops.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A synthetic chain of `n` stages named `prefix-0 … prefix-(n-1)`, used by the
    /// chain-length experiments (E2).
    pub fn synthetic(prefix: &str, n: usize) -> Self {
        Chain::new(format!("{prefix}-chain"), (0..n).map(|i| format!("{prefix}-{i}")))
    }
}

impl fmt::Display for Chain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.stages.join(" -> "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thing_to_component_carries_everything() {
        let thing = Thing::new(
            "ann-sensor",
            ThingKind::Sensor,
            "ann",
            "ann-home-gateway",
            SecurityContext::from_names(["medical", "ann"], ["hosp-dev", "consent"]),
        )
        .produces("sensor-reading")
        .consumes("actuation-command");
        let component = thing.to_component();
        assert_eq!(component.name(), "ann-sensor");
        assert_eq!(component.principal().name, "ann");
        assert!(component.principal().has_role("sensor"));
        assert_eq!(component.node(), "ann-home-gateway");
        assert!(component.context().secrecy().contains_name("medical"));
        assert_eq!(component.produces().len(), 1);
        assert_eq!(component.consumes().len(), 1);
        assert!(thing.to_string().contains("ann-sensor"));
    }

    #[test]
    fn chain_hops_and_length() {
        let chain = Chain::new("fig2", ["home-manager", "gateway", "app", "db", "analyser"]);
        assert_eq!(chain.len(), 4);
        assert!(!chain.is_empty());
        let hops = chain.hops();
        assert_eq!(hops.len(), 4);
        assert_eq!(hops[0], ("home-manager".to_string(), "gateway".to_string()));
        assert_eq!(hops[3], ("db".to_string(), "analyser".to_string()));
        assert!(chain.to_string().contains("->"));
    }

    #[test]
    fn degenerate_chains() {
        assert!(Chain::new("empty", Vec::<String>::new()).is_empty());
        assert!(Chain::new("single", ["only"]).is_empty());
        assert_eq!(Chain::default().len(), 0);
    }

    #[test]
    fn synthetic_chain_generation() {
        let chain = Chain::synthetic("stage", 8);
        assert_eq!(chain.stages.len(), 8);
        assert_eq!(chain.len(), 7);
        assert_eq!(chain.stages[0], "stage-0");
        assert_eq!(chain.stages[7], "stage-7");
    }

    #[test]
    fn kind_display() {
        assert_eq!(ThingKind::Sensor.to_string(), "sensor");
        assert_eq!(ThingKind::CloudService.to_string(), "cloud-service");
        assert_eq!(ThingKind::Gateway.to_string(), "gateway");
        assert_eq!(ThingKind::Actuator.to_string(), "actuator");
        assert_eq!(ThingKind::Application.to_string(), "application");
    }
}
