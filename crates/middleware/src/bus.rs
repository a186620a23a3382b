//! The middleware deployment object: registry + channels + enforcement + audit.
//!
//! Enforcement follows §8.2.2: "Enforcement occurs on the establishment of communication
//! (messaging) channels. A channel is only established if the policy allows, i.e. the
//! tags of the components accord. Specifically, this involves augmenting the standard MW
//! AC (principal and contextual policy) enforcement with a subsequent evaluation of IFC
//! policy … This is monitored throughout the connection's lifetime, where an entity
//! changing its security context triggers re-evaluation."

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use legaliot_audit::{AuditEvent, AuditLog};
use legaliot_context::{ContextSnapshot, Timestamp};
use legaliot_ifc::{FlowDecision, Tag, TagRegistry};
use legaliot_policy::{Action, ReconfigurationCommand};

use crate::acl::{AccessRegime, Operation, Principal};
use crate::admission::{
    admit_channel, control_steps, direct_flow, enforce, reconfigure, ControlDelta, ControlOutcome,
    MessageFacts, Verdict,
};
use crate::component::{Component, Registry};
use crate::schema::Message;

/// Errors raised by middleware operations (not enforcement denials, which are outcomes).
///
/// The distinction: an enforcement *denial* (AC, IFC, isolation) is an expected,
/// auditable [`DeliveryOutcome`]; an *error* means the operation could not be carried
/// out at all — the caller named an unknown component or used a torn-down channel —
/// and should be surfaced rather than silently folded into outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MiddlewareError {
    /// The referenced component is not registered.
    UnknownComponent {
        /// The missing component's name.
        name: String,
    },
    /// The channel exists but has been torn down; re-establish it (which re-runs the
    /// full §8.2.2 admission checks) before sending again.
    ChannelClosed {
        /// Source component of the closed channel.
        from: String,
        /// Destination component of the closed channel.
        to: String,
    },
}

impl fmt::Display for MiddlewareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MiddlewareError::UnknownComponent { name } => {
                write!(f, "unknown component `{name}`")
            }
            MiddlewareError::ChannelClosed { from, to } => {
                write!(f, "channel `{from}` -> `{to}` is closed; re-establish before sending")
            }
        }
    }
}

impl std::error::Error for MiddlewareError {}

/// The state of a channel between two components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelState {
    /// Established and usable.
    Open,
    /// Torn down (kept for audit; re-establishment goes through the full checks again).
    Closed,
}

/// A directed channel between two components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Channel {
    /// Source component.
    pub from: String,
    /// Destination component.
    pub to: String,
    /// Current state.
    pub state: ChannelState,
}

/// The outcome of attempting to deliver a message.
#[derive(Debug, Clone, PartialEq)]
pub enum DeliveryOutcome {
    /// Delivered; lists any attributes removed by source quenching (Fig. 10).
    Delivered {
        /// Names of attributes quenched because their message-level tags did not accord.
        quenched_attributes: Vec<String>,
    },
    /// No open channel between the components.
    NoChannel,
    /// The access-control regime denied the interaction.
    DeniedByAccessControl {
        /// Why.
        reason: String,
    },
    /// The IFC flow check denied the interaction.
    DeniedByIfc(FlowDecision),
    /// The message does not conform to its declared schema.
    SchemaViolation {
        /// Why.
        reason: String,
    },
    /// One of the endpoints is isolated.
    Isolated,
}

impl DeliveryOutcome {
    /// Whether the message (possibly quenched) reached the destination.
    pub fn is_delivered(&self) -> bool {
        matches!(self, DeliveryOutcome::Delivered { .. })
    }

    /// The `ChannelChanged` record of an admission attempt `from → to` that ended in
    /// this outcome: the one outcome-to-reason mapping every surface writes.
    pub fn channel_evidence(&self, from: &str, to: &str) -> AuditEvent {
        let reason = match self {
            DeliveryOutcome::Delivered { .. } => "admission checks passed".to_string(),
            DeliveryOutcome::NoChannel => "no channel".to_string(),
            DeliveryOutcome::DeniedByAccessControl { reason }
            | DeliveryOutcome::SchemaViolation { reason } => reason.clone(),
            DeliveryOutcome::DeniedByIfc(decision) => format!("ifc: {decision}"),
            DeliveryOutcome::Isolated => "endpoint isolated".to_string(),
        };
        channel_changed(from, to, self.is_delivered(), reason)
    }
}

/// The `ChannelChanged` record of removing the channel `from → to`: what the bus's
/// teardown and the dataplane's `unsubscribe` both write.
pub fn teardown_evidence(from: &str, to: &str) -> AuditEvent {
    channel_changed(from, to, false, "torn down".to_string())
}

/// The `ChannelChanged` record for `from → to`.
fn channel_changed(from: &str, to: &str, established: bool, reason: String) -> AuditEvent {
    AuditEvent::ChannelChanged { from: from.to_string(), to: to.to_string(), established, reason }
}

/// Looks `name` up in the registry. A free function over the one field so callers can
/// keep the component borrowed while they mutate channels, mailboxes and audit.
fn lookup<'a>(registry: &'a Registry, name: &str) -> Result<&'a Component, MiddlewareError> {
    registry.get(name).ok_or_else(|| MiddlewareError::UnknownComponent { name: name.to_string() })
}

/// The policy-enforcing middleware: component registry, AC regime, channels, per-node
/// mailboxes, notifications, and an audit log of every decision.
#[derive(Debug)]
pub struct Middleware {
    registry: Registry,
    access: AccessRegime,
    tag_registry: TagRegistry,
    /// `from → to → state`: looked up with the two names as they are given.
    channels: BTreeMap<String, BTreeMap<String, ChannelState>>,
    mailboxes: BTreeMap<String, VecDeque<Message>>,
    notifications: Vec<(String, String)>,
    actuations: Vec<(String, String)>,
    audit: AuditLog,
}

impl Middleware {
    /// Creates an empty middleware deployment recording audit under the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Middleware {
            registry: Registry::new(),
            access: AccessRegime::new(),
            tag_registry: TagRegistry::new(),
            channels: BTreeMap::new(),
            mailboxes: BTreeMap::new(),
            notifications: Vec::new(),
            actuations: Vec::new(),
            audit: AuditLog::new(name),
        }
    }

    /// The component registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mutable access to the component registry (registration, schema registration).
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// The access-control regime.
    pub fn access(&self) -> &AccessRegime {
        &self.access
    }

    /// Mutable access to the AC regime.
    pub fn access_mut(&mut self) -> &mut AccessRegime {
        &mut self.access
    }

    /// The global tag registry (ownership checks for privilege grants).
    pub fn tag_registry(&self) -> &TagRegistry {
        &self.tag_registry
    }

    /// Mutable access to the tag registry.
    pub fn tag_registry_mut(&mut self) -> &mut TagRegistry {
        &mut self.tag_registry
    }

    /// The audit log recorded by this middleware instance.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Notifications sent to principals (recipient, message), in order.
    pub fn notifications(&self) -> &[(String, String)] {
        &self.notifications
    }

    /// Actuation commands delivered to devices (component, command), in order.
    pub fn actuations(&self) -> &[(String, String)] {
        &self.actuations
    }

    /// Records a notification to a principal (e.g. from a policy `Notify` action).
    pub fn notify(&mut self, recipient: impl Into<String>, message: impl Into<String>) {
        self.notifications.push((recipient.into(), message.into()));
    }

    /// Appends an externally produced audit event (e.g. a break-glass activation
    /// recorded by the deployment layer) to this middleware's audit log.
    pub fn record_audit_event(&mut self, event: AuditEvent, at_millis: u64) {
        self.audit.record(event, at_millis);
    }

    /// All channels and their state, ordered by source then destination.
    pub fn channels(&self) -> Vec<Channel> {
        let mut channels = Vec::new();
        for (from, outgoing) in &self.channels {
            for (to, state) in outgoing {
                channels.push(Channel { from: from.clone(), to: to.clone(), state: *state });
            }
        }
        channels
    }

    /// The state of the channel `from → to`, if one was ever established.
    fn channel_state(&self, from: &str, to: &str) -> Option<ChannelState> {
        self.channels.get(from)?.get(to).copied()
    }

    /// Attempts to establish a channel `from → to`.
    ///
    /// Runs the §8.2.2 sequence ([`crate::admission::enforce`], via
    /// [`admit_channel`]) on the bare channel: isolation, then AC (the *sender's*
    /// principal must hold `Send` rights on the destination component), then IFC
    /// between the two components' security contexts. Every attempt is audited.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::UnknownComponent`] if either endpoint is unregistered.
    pub fn establish_channel(
        &mut self,
        from: &str,
        to: &str,
        snapshot: &ContextSnapshot,
        now: Timestamp,
    ) -> Result<DeliveryOutcome, MiddlewareError> {
        let source = lookup(&self.registry, from)?;
        let destination = lookup(&self.registry, to)?;
        let outcome = admit_channel(source, destination, &self.access, snapshot, now);

        if outcome.is_delivered() {
            let outgoing = self.channels.entry(from.to_string()).or_default();
            outgoing.insert(to.to_string(), ChannelState::Open);
        }
        self.audit.record(outcome.channel_evidence(from, to), now.as_millis());
        Ok(outcome)
    }

    /// Tears down the channel `from → to`, if present.
    fn teardown_channel(&mut self, from: &str, to: &str, now: Timestamp) {
        if let Some(state) = self.channels.get_mut(from).and_then(|outgoing| outgoing.get_mut(to)) {
            *state = ChannelState::Closed;
            self.audit.record(teardown_evidence(from, to), now.as_millis());
        }
    }

    /// Whether an open channel `from → to` exists.
    pub fn has_open_channel(&self, from: &str, to: &str) -> bool {
        self.channel_state(from, to) == Some(ChannelState::Open)
    }

    /// Re-evaluates every open channel against the endpoints' *current* state — the
    /// same sequence with no AC question, the channel having been admitted — closing
    /// those now isolated or failing IFC. Called after any reconfiguration that
    /// changes labels or isolation (§8.2.2).
    fn reevaluate_channels(&mut self, now: Timestamp) {
        let open = self
            .channels
            .iter_mut()
            .flat_map(|(from, outgoing)| {
                outgoing.iter_mut().map(move |(to, state)| (from, to, state))
            })
            .filter(|(_, _, state)| **state == ChannelState::Open);
        for (from, to, state) in open {
            let still_allowed = match (self.registry.get(from), self.registry.get(to)) {
                (Some(a), Some(b)) => matches!(
                    enforce(a, b, None, || None, direct_flow(b)),
                    Verdict::Flow(flow) if flow.decision.is_allowed()
                ),
                _ => false,
            };
            if !still_allowed {
                *state = ChannelState::Closed;
                let reason = "re-evaluation after context change".to_string();
                self.audit.record(channel_changed(from, to, false, reason), now.as_millis());
            }
        }
    }

    /// Sends a typed message over an established channel.
    ///
    /// The bus checks that the channel is open and that the message conforms to its
    /// schema (if one is registered — [`crate::FrozenSchema::validate`] at ingress, as
    /// on the dataplane), runs the one §8.2.2 sequence, [`crate::admission::enforce`] —
    /// isolation; AC for the sender on the destination at message-type granularity;
    /// IFC between the *message's effective context* and the destination — then
    /// quenches the attributes of the schema's [`crate::FrozenSchema::quench_mask_for`]
    /// the destination's secrecy (Fig. 10) and enqueues in the destination's
    /// (unbounded) mailbox. A send that reaches the IFC check is audited as one
    /// `FlowChecked` record, allowed or denied; a send refused earlier (`NoChannel`,
    /// `SchemaViolation`, `Isolated`, `DeniedByAccessControl`) leaves no audit record —
    /// the caller sees it in the returned outcome only.
    ///
    /// The message is consumed, and what the destination receives is that same object:
    /// quenched in place, stamped with the sender, the send time and the effective
    /// context (shared with the sender's, not copied), and moved into the mailbox —
    /// nothing of it is cloned. Its evidence is encoded from borrowed fields straight
    /// into the audit log's frame ([`crate::admission::FlowVerdict::evidence`]) and
    /// sealed with the log's batch, so a delivered send allocates only what it keeps:
    /// the delivered message's sender name and the names of the quenched attributes in
    /// the outcome. Channel and mailbox are looked up with the `&str`s given;
    /// `tests/hot_path_allocations.rs` holds the count.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::UnknownComponent`] if either endpoint is
    /// unregistered and [`MiddlewareError::ChannelClosed`] if the channel was torn
    /// down (re-establish to send again).
    pub fn send(
        &mut self,
        from: &str,
        to: &str,
        mut message: Message,
        snapshot: &ContextSnapshot,
        now: Timestamp,
    ) -> Result<DeliveryOutcome, MiddlewareError> {
        let source = lookup(&self.registry, from)?;
        let destination = lookup(&self.registry, to)?;

        match self.channel_state(from, to) {
            Some(ChannelState::Open) => {}
            Some(ChannelState::Closed) => {
                return Err(MiddlewareError::ChannelClosed {
                    from: from.to_string(),
                    to: to.to_string(),
                });
            }
            None => return Ok(DeliveryOutcome::NoChannel),
        }
        let schema = self.registry.schema(&message.message_type);
        if let Some(schema) = schema {
            if let Err(reason) = schema.validate(&message) {
                return Ok(DeliveryOutcome::SchemaViolation { reason });
            }
        }
        let facts = MessageFacts {
            message_type: &message.message_type,
            secrecy: message.context.secrecy(),
        };
        let ask = || {
            // The type is its interned name: a typed rule matches it by id.
            let message_type = Some(message.message_type.name());
            let (to, from) = (destination.party(), source.party());
            Some(self.access.decide_by_id(to, from, Operation::Send, message_type, snapshot, now))
        };
        let flow = match enforce(source, destination, Some(facts), ask, direct_flow(destination)) {
            Verdict::Flow(flow) => flow,
            refused => return Ok(refused.into_outcome()),
        };

        self.audit.record_flow_checked(&flow.evidence(now.as_millis()), now.as_millis());
        if flow.decision.is_denied() {
            return Ok(DeliveryOutcome::DeniedByIfc(flow.decision));
        }
        let effective_context = flow.source_context.into_owned();

        // Source quenching, in place: attributes whose message-level secrecy tags are
        // not all present in the destination's secrecy label are removed (Fig. 10). The
        // message passed the schema, so its entries are the schema's, index for index.
        let mut quenched_attributes = Vec::new();
        if let Some(schema) = schema {
            let mask = schema.quench_mask_for(destination.context().secrecy());
            message.attributes.remove_masked(mask);
            quenched_attributes.extend(schema.mask_names(mask).map(str::to_string));
        }
        message.sender = from.to_string();
        message.sent_at_millis = now.as_millis();
        message.context = effective_context;
        match self.mailboxes.get_mut(to) {
            Some(mailbox) => mailbox.push_back(message),
            None => drop(self.mailboxes.insert(to.to_string(), VecDeque::from([message]))),
        }
        Ok(DeliveryOutcome::Delivered { quenched_attributes })
    }

    /// Drains the mailbox of a component.
    pub fn receive(&mut self, component: &str) -> Vec<Message> {
        self.mailboxes
            .get_mut(component)
            .map(|mailbox| mailbox.drain(..).collect())
            .unwrap_or_default()
    }

    /// Removes and returns the oldest undelivered message of a component, or `None`
    /// when the mailbox is empty — the synchronous counterpart of the dataplane
    /// `Subscriber::try_recv`, so receive loops port between the two surfaces.
    pub fn try_recv(&mut self, component: &str) -> Option<Message> {
        self.mailboxes.get_mut(component).and_then(VecDeque::pop_front)
    }

    /// Handles a third-party reconfiguration command (Fig. 8).
    ///
    /// "SBUS not only supports system components reconfiguring their own state; but
    /// importantly, allows reconfiguration actions to be issued by third parties. …
    /// These third-party instructions are executed as though the application had
    /// initiated them … The reconfiguration commands are issued through the messaging
    /// system via control messages … subject to the same general AC regime, to ensure
    /// that reconfigurations are only actioned when received from trusted third
    /// parties." (§8.1)
    ///
    /// A `Notify` is recorded as a notification. Each step ([`control_steps`]) goes
    /// through the reconfiguration core, [`reconfigure`], as on the dataplane: it is
    /// authorised on its own target (`Reconfigure`, for the principal the command names
    /// as its authority, with no role; a grant over a registered tag needs its owner)
    /// and applied to the component. The bus then applies the step's delta —
    /// re-evaluates open channels, establishes or tears down a channel, or records an
    /// actuation — and audits the step as one `Reconfigured` record, accepted or not.
    /// Returns the steps' outcomes in order.
    pub fn handle_control(
        &mut self,
        command: &ReconfigurationCommand,
        snapshot: &ContextSnapshot,
        now: Timestamp,
    ) -> Vec<ControlOutcome> {
        let issuer = command.authority.as_str();
        if let Action::Notify { recipient, message } = &command.action {
            self.notify(recipient.clone(), message.clone());
        }
        let mut outcomes = Vec::new();
        for step in control_steps(&command.action) {
            let target = step.target().expect("a control step is addressed");
            let ask = |who: &Principal| {
                Some(self.access.decide(target, who, Operation::Reconfigure, None, snapshot, now))
            };
            let owns = |tag: &Tag| match self.tag_registry.contains(tag) {
                true => self.tag_registry.ownership().authorise_delegation(tag, issuer),
                false => Ok(()),
            };
            let mut done = reconfigure(self.registry.get_mut(target), issuer, &step, ask, owns);
            match done.delta {
                Some(ControlDelta::Relabelled) => self.reevaluate_channels(now),
                Some(ControlDelta::Connect { to }) => {
                    done.connected(self.establish_channel(target, to, snapshot, now));
                }
                Some(ControlDelta::Disconnect { to }) => self.teardown_channel(target, to, now),
                Some(ControlDelta::Actuate { command }) => {
                    self.actuations.push((target.to_string(), command.to_string()));
                }
                None => {}
            }
            self.audit.record(done.evidence(), now.as_millis());
            outcomes.push(done.outcome);
        }
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::{AccessRule, Subject};
    use crate::schema::{
        AttributeKind, AttributeValue, FrozenSchema, MessageSchema, MessageType,
        MAX_FROZEN_ATTRIBUTES,
    };
    use legaliot_ifc::{Label, Privilege, PrivilegeKind, SecurityContext, Tag, TagScope};

    fn medical_ctx(patient: &str) -> SecurityContext {
        SecurityContext::from_names(["medical", patient], ["hosp-dev", "consent"])
    }

    /// Builds the home-monitoring middleware used across tests: Ann's and Zeb's sensors
    /// and analysers, open AC for sends, and the hospital's policy engine allowed to
    /// reconfigure.
    fn home_monitoring() -> Middleware {
        let mut mw = Middleware::new("hospital-mw");
        for (name, owner, ctx) in [
            ("ann-sensor", "ann", medical_ctx("ann")),
            ("ann-analyser", "hospital", medical_ctx("ann")),
            (
                "zeb-sensor",
                "zeb",
                SecurityContext::from_names(["medical", "zeb"], ["zeb-dev", "consent"]),
            ),
            ("zeb-analyser", "hospital", medical_ctx("zeb")),
        ] {
            mw.registry_mut().register(
                Component::builder(name, Principal::new(owner))
                    .context(ctx)
                    .produces("sensor-reading")
                    .consumes("sensor-reading")
                    .build(),
            );
        }
        for target in ["ann-sensor", "ann-analyser", "zeb-sensor", "zeb-analyser"] {
            mw.access_mut()
                .add_rule(target, AccessRule::allow(Subject::Anyone, Operation::Send, None));
            mw.access_mut().add_rule(
                target,
                AccessRule::allow(
                    Subject::Principal("hospital-engine".into()),
                    Operation::Reconfigure,
                    None,
                ),
            );
        }
        mw
    }

    fn snap() -> ContextSnapshot {
        ContextSnapshot::default()
    }

    #[test]
    fn channel_establishment_checks_ac_then_ifc() {
        let mut mw = home_monitoring();
        // Ann's sensor → Ann's analyser: allowed (Fig. 4, legal flow).
        let outcome =
            mw.establish_channel("ann-sensor", "ann-analyser", &snap(), Timestamp(1)).unwrap();
        assert!(outcome.is_delivered());
        assert!(mw.has_open_channel("ann-sensor", "ann-analyser"));
        // Zeb's sensor → Ann's analyser: denied by IFC (Fig. 4, illegal flow).
        let outcome =
            mw.establish_channel("zeb-sensor", "ann-analyser", &snap(), Timestamp(2)).unwrap();
        assert!(matches!(outcome, DeliveryOutcome::DeniedByIfc(_)));
        assert!(!mw.has_open_channel("zeb-sensor", "ann-analyser"));
        // Both attempts are audited.
        assert_eq!(mw.audit().len(), 2);
        // Unknown components error.
        assert!(mw.establish_channel("ghost", "ann-analyser", &snap(), Timestamp(3)).is_err());
    }

    #[test]
    fn channel_denied_without_ac_rule() {
        let mut mw = home_monitoring();
        // A component with no AC rules at all is default-deny.
        mw.registry_mut().register(
            Component::builder("locked", Principal::new("x")).context(medical_ctx("ann")).build(),
        );
        let outcome = mw.establish_channel("ann-sensor", "locked", &snap(), Timestamp(1)).unwrap();
        assert!(matches!(outcome, DeliveryOutcome::DeniedByAccessControl { .. }));
    }

    #[test]
    fn send_requires_open_channel_and_reevaluates_ifc() {
        let mut mw = home_monitoring();
        let msg = Message::new("sensor-reading", SecurityContext::public())
            .with("value", AttributeValue::Float(72.0));
        // No channel yet.
        assert_eq!(
            mw.send("ann-sensor", "ann-analyser", msg.clone(), &snap(), Timestamp(1)).unwrap(),
            DeliveryOutcome::NoChannel
        );
        mw.establish_channel("ann-sensor", "ann-analyser", &snap(), Timestamp(2)).unwrap();
        let outcome =
            mw.send("ann-sensor", "ann-analyser", msg.clone(), &snap(), Timestamp(3)).unwrap();
        assert!(outcome.is_delivered());
        let inbox = mw.receive("ann-analyser");
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].sender, "ann-sensor");
        // The delivered message carries the sender's (joined) security context.
        assert!(inbox[0].context.secrecy().contains_name("medical"));
        assert!(mw.receive("ann-analyser").is_empty());
    }

    #[test]
    fn message_level_tags_are_source_quenched_fig10() {
        let mut mw = home_monitoring();
        // `patient-name` carries an extra messaging-level tag `identity` (tag C in
        // Fig. 10) that Ann's analyser does not hold.
        mw.registry_mut().register_schema(
            MessageSchema::new("sensor-reading")
                .attribute("value", AttributeKind::Float)
                .sensitive_attribute(
                    "patient-name",
                    AttributeKind::Text,
                    Label::from_names(["identity"]),
                ),
        );
        mw.establish_channel("ann-sensor", "ann-analyser", &snap(), Timestamp(1)).unwrap();
        let msg = Message::new("sensor-reading", SecurityContext::public())
            .with("value", AttributeValue::Float(72.0))
            .with("patient-name", AttributeValue::Text("Ann".into()));
        let outcome = mw.send("ann-sensor", "ann-analyser", msg, &snap(), Timestamp(2)).unwrap();
        match &outcome {
            DeliveryOutcome::Delivered { quenched_attributes } => {
                assert_eq!(quenched_attributes, &vec!["patient-name".to_string()]);
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        let inbox = mw.receive("ann-analyser");
        assert!(!inbox[0].attributes.contains_key("patient-name"));
        assert!(inbox[0].attributes.contains_key("value"));

        // A destination that *does* hold the identity tag receives the full message.
        mw.registry_mut().register(
            Component::builder("identity-vault", Principal::new("hospital"))
                .context(SecurityContext::from_names(
                    ["medical", "ann", "identity"],
                    Vec::<&str>::new(),
                ))
                .build(),
        );
        mw.access_mut()
            .add_rule("identity-vault", AccessRule::allow(Subject::Anyone, Operation::Send, None));
        mw.establish_channel("ann-sensor", "identity-vault", &snap(), Timestamp(3)).unwrap();
        let msg = Message::new("sensor-reading", SecurityContext::public())
            .with("value", AttributeValue::Float(72.0))
            .with("patient-name", AttributeValue::Text("Ann".into()));
        let outcome = mw.send("ann-sensor", "identity-vault", msg, &snap(), Timestamp(4)).unwrap();
        assert_eq!(outcome, DeliveryOutcome::Delivered { quenched_attributes: vec![] });
        assert!(mw.receive("identity-vault")[0].attributes.contains_key("patient-name"));
    }

    #[test]
    fn schema_violations_are_rejected() {
        let mut mw = home_monitoring();
        mw.registry_mut().register_schema(
            MessageSchema::new("sensor-reading").attribute("value", AttributeKind::Float),
        );
        mw.establish_channel("ann-sensor", "ann-analyser", &snap(), Timestamp(1)).unwrap();
        let bad = Message::new("sensor-reading", SecurityContext::public())
            .with("value", AttributeValue::Text("not a number".into()));
        let outcome = mw.send("ann-sensor", "ann-analyser", bad, &snap(), Timestamp(2)).unwrap();
        assert!(matches!(outcome, DeliveryOutcome::SchemaViolation { .. }));
    }

    /// A command issued by `authority` under policy `p`.
    fn command(authority: &str, action: Action, at: u64) -> ReconfigurationCommand {
        ReconfigurationCommand::new("p", authority, action, at)
    }

    fn isolate(component: &str) -> Action {
        Action::Isolate { component: component.into() }
    }

    /// Every `Reconfigured` record: (component, action, accepted).
    fn reconfigured(mw: &Middleware) -> Vec<(&str, &str, bool)> {
        let records = mw.audit().records().iter();
        records
            .filter_map(|record| match &record.event {
                AuditEvent::Reconfigured { component, action, accepted, .. } => {
                    Some((component.as_str(), action.as_str(), *accepted))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn third_party_reconfiguration_fig8() {
        let mut mw = home_monitoring();
        // The hospital policy engine (authorised) connects analyser to a new doctor
        // component via a control message.
        mw.registry_mut().register(
            Component::builder("emergency-doctor", Principal::new("hospital"))
                .context(medical_ctx("ann"))
                .build(),
        );
        mw.access_mut().add_rule(
            "emergency-doctor",
            AccessRule::allow(Subject::Anyone, Operation::Send, None),
        );
        let connect = ReconfigurationCommand::new(
            "emergency-response",
            "hospital-engine",
            Action::Connect { from: "ann-analyser".into(), to: "emergency-doctor".into() },
            10,
        );
        assert_eq!(mw.handle_control(&connect, &snap(), Timestamp(10)), [ControlOutcome::Applied]);
        assert!(mw.has_open_channel("ann-analyser", "emergency-doctor"));

        // An unauthorised issuer is refused and audited as rejected.
        let rogue = command("attacker", isolate("ann-analyser"), 11);
        let outcome = mw.handle_control(&rogue, &snap(), Timestamp(11));
        assert!(matches!(outcome[..], [ControlOutcome::Unauthorised { .. }]));
        // Unknown targets are reported.
        let ghost = command("hospital-engine", isolate("ghost"), 12);
        assert_eq!(
            mw.handle_control(&ghost, &snap(), Timestamp(12)),
            [ControlOutcome::UnknownTarget]
        );
        // All three control messages are in the audit log, spelt as `Action` spells them.
        assert_eq!(
            reconfigured(&mw),
            [
                ("ann-analyser", "connect ann-analyser -> emergency-doctor", true),
                ("ann-analyser", "isolate ann-analyser", false),
                ("ghost", "isolate ghost", false),
            ]
        );
    }

    /// An issuer is the principal it names: it holds no role a rule could match, so a
    /// role rule on the target authorises nobody's control messages.
    #[test]
    fn a_control_message_carries_no_role_for_its_issuer() {
        let mut mw = Middleware::new("hospital-mw");
        mw.registry_mut().register(
            Component::builder("ann-sensor", Principal::new("ann"))
                .context(medical_ctx("ann"))
                .build(),
        );
        mw.access_mut().add_rule(
            "ann-sensor",
            AccessRule::allow(Subject::Role("policy-engine".into()), Operation::Reconfigure, None),
        );
        let rogue = command("attacker", isolate("ann-sensor"), 3);
        let outcome = mw.handle_control(&rogue, &snap(), Timestamp(3));
        assert_eq!(
            outcome,
            [ControlOutcome::Unauthorised {
                reason: "no allow rule matches attacker performing reconfigure on `ann-sensor`"
                    .into()
            }]
        );
        assert!(!mw.registry().get("ann-sensor").unwrap().is_isolated());
        let record = &mw.audit().records()[0];
        assert_eq!(mw.audit().len(), 1);
        assert_eq!(
            record.event,
            AuditEvent::Reconfigured {
                component: "ann-sensor".into(),
                issued_by: "attacker".into(),
                action: "isolate ann-sensor".into(),
                accepted: false,
            }
        );
    }

    #[test]
    fn label_change_triggers_channel_reevaluation() {
        let mut mw = home_monitoring();
        mw.establish_channel("ann-sensor", "ann-analyser", &snap(), Timestamp(1)).unwrap();
        assert!(mw.has_open_channel("ann-sensor", "ann-analyser"));
        // The policy engine adds a secrecy tag to the sensor that the analyser lacks;
        // the existing channel must be closed on re-evaluation (§8.2.2).
        let cm = ReconfigurationCommand::new(
            "incident-response",
            "hospital-engine",
            Action::AddTag {
                component: "ann-sensor".into(),
                tag: Tag::new("quarantine"),
                secrecy: true,
            },
            5,
        );
        assert_eq!(mw.handle_control(&cm, &snap(), Timestamp(5)), [ControlOutcome::Applied]);
        assert!(!mw.has_open_channel("ann-sensor", "ann-analyser"));
    }

    #[test]
    fn isolation_blocks_channels_and_sends() {
        let mut mw = home_monitoring();
        mw.establish_channel("ann-sensor", "ann-analyser", &snap(), Timestamp(1)).unwrap();
        let cm = command("hospital-engine", isolate("ann-sensor"), 2);
        assert_eq!(mw.handle_control(&cm, &snap(), Timestamp(2)), [ControlOutcome::Applied]);
        // Open channels involving the isolated component were closed; sending over the
        // torn-down channel is now an error, not a silent outcome.
        assert!(!mw.has_open_channel("ann-sensor", "ann-analyser"));
        let msg = Message::new("sensor-reading", SecurityContext::public());
        assert_eq!(
            mw.send("ann-sensor", "ann-analyser", msg, &snap(), Timestamp(3)),
            Err(MiddlewareError::ChannelClosed {
                from: "ann-sensor".into(),
                to: "ann-analyser".into()
            })
        );
        // New channels are refused while isolated.
        let outcome =
            mw.establish_channel("ann-sensor", "ann-analyser", &snap(), Timestamp(4)).unwrap();
        assert_eq!(outcome, DeliveryOutcome::Isolated);
        // Deisolation restores the ability to connect.
        let cm =
            command("hospital-engine", Action::Deisolate { component: "ann-sensor".into() }, 5);
        assert_eq!(mw.handle_control(&cm, &snap(), Timestamp(5)), [ControlOutcome::Applied]);
        assert!(mw
            .establish_channel("ann-sensor", "ann-analyser", &snap(), Timestamp(6))
            .unwrap()
            .is_delivered());
    }

    #[test]
    fn privilege_grant_requires_tag_ownership() {
        let mut mw = home_monitoring();
        mw.tag_registry_mut()
            .register(
                Tag::new("medical"),
                "medical data",
                TagScope::Global,
                true,
                "hospital-engine",
            )
            .unwrap();
        mw.tag_registry_mut()
            .register(Tag::new("city"), "city data", TagScope::Global, false, "council")
            .unwrap();
        let privilege = |tag: &str| Privilege::new(tag, PrivilegeKind::SecrecyRemove);
        let grant = |tag: &str, at| {
            let component = "ann-analyser".into();
            command(
                "hospital-engine",
                Action::GrantPrivilege { component, privilege: privilege(tag) },
                at,
            )
        };
        // The engine owns `medical`: grant succeeds.
        assert_eq!(
            mw.handle_control(&grant("medical", 1), &snap(), Timestamp(1)),
            [ControlOutcome::Applied]
        );
        assert!(mw
            .registry()
            .get("ann-analyser")
            .unwrap()
            .privileges()
            .permits(&Tag::new("medical"), PrivilegeKind::SecrecyRemove));
        // The engine does not own `city`: grant fails.
        let outcome = mw.handle_control(&grant("city", 2), &snap(), Timestamp(2));
        assert!(matches!(outcome[..], [ControlOutcome::Failed { .. }]));
        // Revocation is always possible for the authorised engine.
        let revoke = command(
            "hospital-engine",
            Action::RevokePrivilege {
                component: "ann-analyser".into(),
                privilege: privilege("medical"),
            },
            3,
        );
        assert_eq!(mw.handle_control(&revoke, &snap(), Timestamp(3)), [ControlOutcome::Applied]);
    }

    #[test]
    fn apply_command_translates_policy_actions() {
        let mut mw = home_monitoring();
        // A notification is recorded, and neither it nor a flow rule is a step: no
        // outcome, no audit record.
        let notify = ReconfigurationCommand::new(
            "emergency-response",
            "hospital-engine",
            Action::Notify { recipient: "emergency-doctor".into(), message: "go".into() },
            1,
        );
        assert!(mw.handle_control(&notify, &snap(), Timestamp(1)).is_empty());
        assert_eq!(mw.notifications(), &[("emergency-doctor".to_string(), "go".to_string())]);
        for action in [
            Action::AllowFlow { from: "ann-sensor".into(), to: "ann-analyser".into() },
            Action::DenyFlow { from: "ann-sensor".into(), to: "ann-analyser".into() },
        ] {
            let flow = command("hospital-engine", action, 1);
            assert!(mw.handle_control(&flow, &snap(), Timestamp(1)).is_empty());
        }
        assert_eq!(mw.notifications().len(), 1);
        assert!(mw.audit().is_empty());

        let actuate = ReconfigurationCommand::new(
            "emergency-response",
            "hospital-engine",
            Action::Actuate {
                component: "ann-sensor".into(),
                command: "sample-interval=1s".into(),
            },
            2,
        );
        let outcomes = mw.handle_control(&actuate, &snap(), Timestamp(2));
        assert_eq!(outcomes, [ControlOutcome::Applied]);
        assert_eq!(
            mw.actuations(),
            &[("ann-sensor".to_string(), "sample-interval=1s".to_string())]
        );
    }

    /// `RouteVia` is three steps, each authorised on its own target and audited on its
    /// own: an issuer that may reconfigure `from` but not `via` gets the two steps on
    /// `from` and is refused the one on `via`.
    #[test]
    fn route_via_authorises_and_audits_each_step_on_its_own_target() {
        let mut mw = home_monitoring();
        mw.registry_mut().register(
            Component::builder("ann-archive", Principal::new("hospital"))
                .context(medical_ctx("ann"))
                .build(),
        );
        mw.access_mut()
            .add_rule("ann-archive", AccessRule::allow(Subject::Anyone, Operation::Send, None));
        mw.access_mut().add_rule(
            "ann-sensor",
            AccessRule::allow(
                Subject::Principal("records-engine".into()),
                Operation::Reconfigure,
                None,
            ),
        );
        mw.establish_channel("ann-sensor", "ann-archive", &snap(), Timestamp(1)).unwrap();
        let route = Action::RouteVia {
            from: "ann-sensor".into(),
            via: "ann-analyser".into(),
            to: "ann-archive".into(),
        };
        let outcomes =
            mw.handle_control(&command("records-engine", route, 2), &snap(), Timestamp(2));
        assert!(matches!(
            outcomes[..],
            [ControlOutcome::Applied, ControlOutcome::Unauthorised { .. }, ControlOutcome::Applied]
        ));
        assert_eq!(
            reconfigured(&mw),
            [
                ("ann-sensor", "connect ann-sensor -> ann-analyser", true),
                ("ann-analyser", "connect ann-analyser -> ann-archive", false),
                ("ann-sensor", "disconnect ann-sensor -> ann-archive", true),
            ]
        );
        assert!(mw.has_open_channel("ann-sensor", "ann-analyser"));
        assert!(!mw.has_open_channel("ann-sensor", "ann-archive"));
        assert!(!mw.has_open_channel("ann-analyser", "ann-archive"));
    }

    #[test]
    fn a_schema_too_wide_to_freeze_is_refused_and_registers_nothing() {
        let mut mw = home_monitoring();
        let wide = |attributes: usize| {
            (0..attributes).fold(MessageSchema::new("wide"), |schema, i| {
                schema.attribute(format!("a{i:02}"), AttributeKind::Bool)
            })
        };
        let wide_type = MessageType::new("wide");
        assert!(!mw.registry_mut().register_schema(wide(MAX_FROZEN_ATTRIBUTES + 1)));
        assert!(mw.registry().schema(&wide_type).is_none());
        // Nor does a refused schema replace the one already registered for its type.
        assert!(mw.registry_mut().register_schema(wide(2)));
        assert!(!mw.registry_mut().register_schema(wide(MAX_FROZEN_ATTRIBUTES + 1)));
        assert_eq!(mw.registry().schema(&wide_type).map(FrozenSchema::len), Some(2));
    }

    #[test]
    fn outcome_helpers() {
        assert!(ControlOutcome::Applied.is_applied());
        assert!(!ControlOutcome::UnknownTarget.is_applied());
        assert!(ControlOutcome::Unauthorised { reason: "r".into() }
            .to_string()
            .contains("unauthorised"));
        assert!(ControlOutcome::Failed { reason: "r".into() }.to_string().contains("failed"));
        assert_eq!(ControlOutcome::UnknownTarget.to_string(), "unknown target");
        assert_eq!(ControlOutcome::Applied.to_string(), "applied");
    }

    #[test]
    fn error_display_and_channel_listing() {
        let mut mw = home_monitoring();
        mw.establish_channel("ann-sensor", "ann-analyser", &snap(), Timestamp(1)).unwrap();
        mw.teardown_channel("ann-sensor", "ann-analyser", Timestamp(2));
        let channels = mw.channels();
        assert_eq!(channels.len(), 1);
        assert_eq!(channels[0].state, ChannelState::Closed);
        assert!(!DeliveryOutcome::NoChannel.is_delivered());
        assert!(MiddlewareError::UnknownComponent { name: "x".into() }.to_string().contains("x"));
        assert!(MiddlewareError::ChannelClosed { from: "a".into(), to: "b".into() }
            .to_string()
            .contains("closed"));
    }

    #[test]
    fn send_over_torn_down_channel_is_an_error_until_reestablished() {
        let mut mw = home_monitoring();
        mw.establish_channel("ann-sensor", "ann-analyser", &snap(), Timestamp(1)).unwrap();
        mw.teardown_channel("ann-sensor", "ann-analyser", Timestamp(2));
        let msg = Message::new("sensor-reading", SecurityContext::public());
        assert!(matches!(
            mw.send("ann-sensor", "ann-analyser", msg.clone(), &snap(), Timestamp(3)),
            Err(MiddlewareError::ChannelClosed { .. })
        ));
        // Re-establishment re-runs the full admission checks and clears the error.
        mw.establish_channel("ann-sensor", "ann-analyser", &snap(), Timestamp(4)).unwrap();
        assert!(mw
            .send("ann-sensor", "ann-analyser", msg, &snap(), Timestamp(5))
            .unwrap()
            .is_delivered());
    }

    #[test]
    fn try_recv_pops_oldest_first_and_reports_empty() {
        let mut mw = home_monitoring();
        mw.establish_channel("ann-sensor", "ann-analyser", &snap(), Timestamp(1)).unwrap();
        let msg = Message::new("sensor-reading", SecurityContext::public());
        for t in 5..7 {
            assert!(mw
                .send("ann-sensor", "ann-analyser", msg.clone(), &snap(), Timestamp(t))
                .unwrap()
                .is_delivered());
        }
        assert_eq!(mw.try_recv("ann-analyser").unwrap().sent_at_millis, 5);
        assert_eq!(mw.try_recv("ann-analyser").unwrap().sent_at_millis, 6);
        assert!(mw.try_recv("ann-analyser").is_none());
        assert!(mw.try_recv("ghost").is_none());
    }
}
