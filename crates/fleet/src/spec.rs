//! The fleet intermediate representation.
//!
//! Generated fleets are described in a small, self-contained IR — plain strings,
//! sorted collections, no engine types — so the enforcement oracle in
//! [`crate::model`] can interpret the *same* description the harness installs,
//! without sharing any enforcement code with the dataplane it checks. The IR
//! also renders to a deterministic [`Fleet::manifest`] used by the
//! byte-identical-determinism tests.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use legaliot_context::ContextValue;
use legaliot_ifc::{Label, SecurityContext};
use legaliot_iot::{DeploymentKind, Thing, ThingKind};
use legaliot_middleware::{
    AccessRule, AttributeKind, AttributeValue, Message, MessageSchema, Operation, Subject,
};
use legaliot_policy::Condition;

/// A context value a fleet script writes: booleans and numbers are all the
/// generated policies condition on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyValue {
    /// A boolean key (lockdown, break-glass, quarantine …).
    Bool(bool),
    /// A numeric key (load …).
    Number(f64),
}

impl KeyValue {
    /// The engine-side value.
    pub fn to_context_value(self) -> ContextValue {
        match self {
            KeyValue::Bool(b) => ContextValue::Bool(b),
            KeyValue::Number(n) => ContextValue::Float(n),
        }
    }

    fn render(self) -> String {
        match self {
            KeyValue::Bool(b) => format!("bool:{b}"),
            KeyValue::Number(n) => format!("num:{n}"),
        }
    }
}

/// The subject of a generated access rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubjectSpec {
    /// Matches every principal.
    Anyone,
    /// Matches the named principal (a deployment owner).
    Principal(String),
}

impl SubjectSpec {
    fn to_subject(&self) -> Subject {
        match self {
            SubjectSpec::Anyone => Subject::Anyone,
            SubjectSpec::Principal(name) => Subject::Principal(name.clone()),
        }
    }

    fn render(&self) -> String {
        match self {
            SubjectSpec::Anyone => "anyone".to_string(),
            SubjectSpec::Principal(name) => format!("principal:{name}"),
        }
    }
}

/// A generated rule condition — the subset of [`Condition`] fleets emit, with
/// its own evaluator mirroring the engine's semantics exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum CondSpec {
    /// Always true.
    Always,
    /// True when the boolean key is present and true.
    IsTrue(String),
    /// True when the boolean key is absent or false.
    IsFalse(String),
    /// True when the numeric key is present and strictly below the threshold.
    NumberBelow(String, f64),
    /// True when any branch is true (false when empty).
    AnyOf(Vec<CondSpec>),
}

impl CondSpec {
    /// The engine-side condition.
    fn to_condition(&self) -> Condition {
        match self {
            CondSpec::Always => Condition::Always,
            CondSpec::IsTrue(key) => Condition::is_true(key.as_str()),
            CondSpec::IsFalse(key) => Condition::is_false(key.as_str()),
            CondSpec::NumberBelow(key, threshold) => {
                Condition::number_below(key.as_str(), *threshold)
            }
            CondSpec::AnyOf(branches) => {
                Condition::Any(branches.iter().map(CondSpec::to_condition).collect())
            }
        }
    }

    /// Evaluates against a key map with the engine's semantics: `IsTrue` needs
    /// the key present and `true`, `IsFalse` is its negation, `NumberBelow` is a
    /// strict `<` that is false when the key is missing or non-numeric.
    pub(crate) fn eval(&self, keys: &BTreeMap<String, KeyValue>) -> bool {
        match self {
            CondSpec::Always => true,
            CondSpec::IsTrue(key) => matches!(keys.get(key), Some(KeyValue::Bool(true))),
            CondSpec::IsFalse(key) => !matches!(keys.get(key), Some(KeyValue::Bool(true))),
            CondSpec::NumberBelow(key, threshold) => {
                matches!(keys.get(key), Some(KeyValue::Number(n)) if n < threshold)
            }
            CondSpec::AnyOf(branches) => branches.iter().any(|branch| branch.eval(keys)),
        }
    }

    fn render(&self) -> String {
        match self {
            CondSpec::Always => "always".to_string(),
            CondSpec::IsTrue(key) => format!("is-true({key})"),
            CondSpec::IsFalse(key) => format!("is-false({key})"),
            CondSpec::NumberBelow(key, threshold) => format!("below({key},{threshold})"),
            CondSpec::AnyOf(branches) => {
                let inner: Vec<String> = branches.iter().map(CondSpec::render).collect();
                format!("any-of[{}]", inner.join("|"))
            }
        }
    }
}

/// A generated access rule on a consuming component: all fleet rules govern
/// `Operation::Send` at any message type, so subscribe-time and per-message AC
/// agree by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSpec {
    /// The component the rule guards (the message destination).
    pub component: String,
    /// Who the rule applies to.
    pub subject: SubjectSpec,
    /// Allow or (overriding) deny.
    pub allow: bool,
    /// When the rule applies.
    pub condition: CondSpec,
}

impl RuleSpec {
    /// The engine-side rule.
    pub fn to_access_rule(&self) -> AccessRule {
        let rule = if self.allow {
            AccessRule::allow(self.subject.to_subject(), Operation::Send, None)
        } else {
            AccessRule::deny(self.subject.to_subject(), Operation::Send, None)
        };
        rule.when(self.condition.to_condition())
    }

    fn render(&self) -> String {
        format!(
            "rule {} {} {} when {}",
            self.component,
            if self.allow { "allow" } else { "deny" },
            self.subject.render(),
            self.condition.render()
        )
    }
}

/// One attribute of a generated schema.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrSpec {
    /// Attribute name.
    pub name: String,
    /// Attribute kind.
    pub kind: AttributeKind,
    /// Extra message-level secrecy tags; non-empty makes the attribute
    /// quenchable for destinations not holding them.
    pub secrecy: Vec<String>,
}

/// A generated message schema.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaSpec {
    /// The message type.
    pub message_type: String,
    /// Attributes, in declaration order.
    pub attrs: Vec<AttrSpec>,
}

impl SchemaSpec {
    /// The engine-side schema.
    pub fn to_schema(&self) -> MessageSchema {
        let mut schema = MessageSchema::new(self.message_type.as_str());
        for attr in &self.attrs {
            if attr.secrecy.is_empty() {
                schema = schema.attribute(attr.name.as_str(), attr.kind);
            } else {
                schema = schema.sensitive_attribute(
                    attr.name.as_str(),
                    attr.kind,
                    Label::from_names(attr.secrecy.iter().map(String::as_str)),
                );
            }
        }
        schema
    }

    fn render(&self) -> String {
        let attrs: Vec<String> = self
            .attrs
            .iter()
            .map(|a| format!("{}:{:?}:[{}]", a.name, a.kind, a.secrecy.join(",")))
            .collect();
        format!("schema {} {{{}}}", self.message_type, attrs.join(" "))
    }
}

/// A generated thing: [`Thing`] plus label lists kept as sorted strings for
/// manifest rendering and oracle-side set logic.
#[derive(Debug, Clone, PartialEq)]
pub struct ThingSpec {
    /// Endpoint name (unique across the whole fleet).
    pub name: String,
    /// What kind of thing it is.
    pub kind: ThingKind,
    /// Owning principal (the component's principal name at enforcement time).
    pub owner: String,
    /// Hosting node.
    pub node: String,
    /// Secrecy tags held.
    pub secrecy: Vec<String>,
    /// Integrity tags held.
    pub integrity: Vec<String>,
    /// Message types produced.
    pub produces: Vec<String>,
}

impl ThingSpec {
    /// The engine-side thing (converted onwards by the shared
    /// [`legaliot_dataplane::TopologyBuilder`] path).
    pub fn to_thing(&self) -> Thing {
        let mut thing = Thing::new(
            self.name.clone(),
            self.kind,
            self.owner.clone(),
            self.node.clone(),
            self.security_context(),
        );
        for message_type in &self.produces {
            thing = thing.produces(message_type.as_str());
        }
        thing
    }

    /// The engine-side security context for the label lists.
    fn security_context(&self) -> SecurityContext {
        SecurityContext::from_names(
            self.secrecy.iter().map(String::as_str),
            self.integrity.iter().map(String::as_str),
        )
    }

    fn render(&self) -> String {
        format!(
            "thing {} kind={} owner={} node={} s=[{}] i=[{}] produces=[{}]",
            self.name,
            self.kind,
            self.owner,
            self.node,
            self.secrecy.join(","),
            self.integrity.join(","),
            self.produces.join(",")
        )
    }
}

/// One generated deployment: a home, hospital ward or vehicle fleet with its
/// own endpoints, schemas, policies, labels and context keys.
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    /// Deployment name (`d0000` …), the prefix of everything it owns.
    pub name: String,
    /// Which catalog profile it was drawn from.
    pub kind: DeploymentKind,
    /// Its things, devices first, consumers after.
    pub things: Vec<ThingSpec>,
    /// Its message schemas.
    pub schemas: Vec<SchemaSpec>,
    /// `(publisher, subscriber)` edges to admit at install.
    pub edges: Vec<(String, String)>,
    /// Access rules guarding its consumers.
    pub rules: Vec<RuleSpec>,
    /// Initial context-key values (every key any of its rules reads).
    pub initial_keys: BTreeMap<String, KeyValue>,
    /// Every secrecy tag the deployment uses (label-lattice universe).
    pub secrecy_universe: Vec<String>,
    /// Every integrity tag the deployment uses.
    pub integrity_universe: Vec<String>,
}

impl Deployment {
    /// The names of things that publish (appear as an edge source).
    pub fn publishers(&self) -> Vec<String> {
        let mut names: Vec<String> = self.edges.iter().map(|(from, _)| from.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// The names of things that consume (appear as an edge destination).
    pub fn consumers(&self) -> Vec<String> {
        let mut names: Vec<String> = self.edges.iter().map(|(_, to)| to.clone()).collect();
        names.sort();
        names.dedup();
        names
    }
}

/// A scripted control-plane event.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlEvent {
    /// Write a context key.
    SetKey {
        /// The key.
        key: String,
        /// The new value.
        value: KeyValue,
    },
    /// Replace an endpoint's security context.
    SetContext {
        /// The endpoint.
        endpoint: String,
        /// New secrecy tags.
        secrecy: Vec<String>,
        /// New integrity tags.
        integrity: Vec<String>,
    },
    /// Isolate or de-isolate an endpoint.
    SetIsolated {
        /// The endpoint.
        endpoint: String,
        /// The new isolation state.
        isolated: bool,
    },
    /// Add an access rule mid-run (policy update).
    AddRule(RuleSpec),
    /// A new device joins, wired to existing consumers.
    Join {
        /// The joining thing (producing an already-registered message type).
        thing: ThingSpec,
        /// Its edges (`thing → existing consumer`).
        edges: Vec<(String, String)>,
    },
    /// A device leaves (deregistered; never scripted twice for one endpoint).
    Leave {
        /// The departing endpoint.
        endpoint: String,
    },
}

impl ControlEvent {
    fn render(&self) -> String {
        match self {
            ControlEvent::SetKey { key, value } => format!("set-key {key}={}", value.render()),
            ControlEvent::SetContext { endpoint, secrecy, integrity } => {
                format!(
                    "set-context {endpoint} s=[{}] i=[{}]",
                    secrecy.join(","),
                    integrity.join(",")
                )
            }
            ControlEvent::SetIsolated { endpoint, isolated } => {
                format!("set-isolated {endpoint}={isolated}")
            }
            ControlEvent::AddRule(rule) => format!("add-{}", rule.render()),
            ControlEvent::Join { thing, edges } => {
                let edges: Vec<String> =
                    edges.iter().map(|(from, to)| format!("{from}->{to}")).collect();
                format!("join {} edges=[{}]", thing.render(), edges.join(","))
            }
            ControlEvent::Leave { endpoint } => format!("leave {endpoint}"),
        }
    }
}

/// A scripted publish. The message it denotes is a pure function of the spec
/// and the deployment's schema, so the harness and the oracle construct the
/// *same* message independently.
#[derive(Debug, Clone, PartialEq)]
pub struct PublishSpec {
    /// The publishing endpoint.
    pub publisher: String,
    /// The message type (one the publisher produces).
    pub message_type: String,
    /// The publish timestamp — globally unique, so `(from, to, at_millis)`
    /// uniquely keys every fan-out delivery of the run.
    pub at_millis: u64,
    /// The numeric reading carried.
    pub value: f64,
    /// Subject discriminator for text attributes.
    pub subject_id: u64,
    /// Message-level extra secrecy tags (joined with the sender's context at
    /// flow-check time).
    pub extra_secrecy: Vec<String>,
}

impl PublishSpec {
    /// Builds the message this spec denotes against its schema: one attribute
    /// per declared schema attribute, values derived from `value`/`subject_id`
    /// by kind, message context carrying the extra secrecy tags.
    pub fn message(&self, schema: &SchemaSpec) -> Message {
        let context = SecurityContext::new(
            Label::from_names(self.extra_secrecy.iter().map(String::as_str)),
            Label::default(),
        );
        let mut message = Message::new(self.message_type.as_str(), context);
        for attr in &schema.attrs {
            let value = match attr.kind {
                AttributeKind::Float => AttributeValue::Float(self.value),
                AttributeKind::Integer => AttributeValue::Integer(self.value as i64),
                AttributeKind::Bool => AttributeValue::Bool(self.value > 50.0),
                AttributeKind::Text => {
                    AttributeValue::Text(format!("subject-{:04}", self.subject_id))
                }
            };
            message = message.with(attr.name.as_str(), value);
        }
        message
    }

    fn render(&self) -> String {
        format!(
            "publish {}@{} type={} value={} subject={} extra=[{}]",
            self.publisher,
            self.at_millis,
            self.message_type,
            self.value,
            self.subject_id,
            self.extra_secrecy.join(",")
        )
    }
}

/// One round of the fleet script: control events first, then publishes. The
/// harness drains between the phases, so enforcement always sees settled
/// control state — the same round barrier the oracle assumes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Round {
    /// `(at_millis, event)` control events, in order.
    pub events: Vec<(u64, ControlEvent)>,
    /// Publishes, in order.
    pub publishes: Vec<PublishSpec>,
}

/// Generation knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// The master seed; everything downstream is a pure function of it.
    pub seed: u64,
    /// How many deployments to synthesize.
    pub deployments: usize,
    /// How many script rounds (round 0 has no churn).
    pub rounds: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig { seed: 1, deployments: 1000, rounds: 4 }
    }
}

/// A generated fleet: deployments plus their churn/publish script.
#[derive(Debug, Clone, PartialEq)]
pub struct Fleet {
    /// The knobs it was generated from.
    pub config: FleetConfig,
    /// The deployments, in generation order.
    pub deployments: Vec<Deployment>,
    /// The script rounds.
    pub rounds: Vec<Round>,
}

impl Fleet {
    /// Total things at install time (before churn).
    pub fn endpoint_count(&self) -> usize {
        self.deployments.iter().map(|d| d.things.len()).sum()
    }

    /// Total install-time edges.
    pub fn edge_count(&self) -> usize {
        self.deployments.iter().map(|d| d.edges.len()).sum()
    }

    /// Renders the whole fleet — deployments, schemas, rules, script — into a
    /// deterministic text manifest. Two fleets are byte-identical iff their
    /// manifests are equal; a reproducing seed is reported alongside any
    /// conformance failure so `Fleet` state can be regenerated exactly.
    pub fn manifest(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet seed={} deployments={} rounds={}",
            self.config.seed, self.config.deployments, self.config.rounds
        );
        for deployment in &self.deployments {
            let _ = writeln!(
                out,
                "deployment {} kind={} s-universe=[{}] i-universe=[{}]",
                deployment.name,
                deployment.kind.name(),
                deployment.secrecy_universe.join(","),
                deployment.integrity_universe.join(",")
            );
            for thing in &deployment.things {
                let _ = writeln!(out, "  {}", thing.render());
            }
            for schema in &deployment.schemas {
                let _ = writeln!(out, "  {}", schema.render());
            }
            for (from, to) in &deployment.edges {
                let _ = writeln!(out, "  edge {from}->{to}");
            }
            for rule in &deployment.rules {
                let _ = writeln!(out, "  {}", rule.render());
            }
            for (key, value) in &deployment.initial_keys {
                let _ = writeln!(out, "  key {key}={}", value.render());
            }
        }
        for (index, round) in self.rounds.iter().enumerate() {
            let _ = writeln!(out, "round {index}");
            for (at, event) in &round.events {
                let _ = writeln!(out, "  @{at} {}", event.render());
            }
            for publish in &round.publishes {
                let _ = writeln!(out, "  {}", publish.render());
            }
        }
        out
    }
}
