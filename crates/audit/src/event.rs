//! Auditable events and the records that wrap them.

use std::fmt;

use legaliot_ifc::{FlowDecision, SecurityContext};

/// Identifier of a record within an [`crate::AuditLog`]: its position in the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId(pub u64);

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The kind of an audit event, used for filtering and compliance checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuditEventKind {
    /// A data flow was checked (and allowed or denied).
    FlowChecked,
    /// An aggregated count of repeated flow checks between one entity pair.
    FlowSummary,
    /// An entity changed its own security context (declassification/endorsement).
    LabelChanged,
    /// A privilege was granted or revoked.
    PrivilegeChanged,
    /// A component was reconfigured by a third party (Fig. 8).
    Reconfigured,
    /// A policy rule fired.
    PolicyFired,
    /// A channel between components was established or torn down.
    ChannelChanged,
    /// A data item was created or derived from others.
    DataDerived,
    /// A break-glass override was activated or expired.
    BreakGlass,
    /// Attributes of a delivered message were source-quenched (Fig. 10).
    MessageQuenched,
    /// Enforcement allowed a delivery, but the subscriber's bounded mailbox shed it
    /// (drop-oldest overflow): the consumer never observed the message.
    DeliveryDropped,
    /// An enforcement shard crashed and was restarted by its supervisor.
    ShardRestarted,
    /// Accepted work was abandoned by a crashed (or degraded) enforcement shard:
    /// the affected deliveries were neither enforced nor delivered.
    DeliveryLost,
}

impl fmt::Display for AuditEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AuditEventKind::FlowChecked => "flow-checked",
            AuditEventKind::FlowSummary => "flow-summary",
            AuditEventKind::LabelChanged => "label-changed",
            AuditEventKind::PrivilegeChanged => "privilege-changed",
            AuditEventKind::Reconfigured => "reconfigured",
            AuditEventKind::PolicyFired => "policy-fired",
            AuditEventKind::ChannelChanged => "channel-changed",
            AuditEventKind::DataDerived => "data-derived",
            AuditEventKind::BreakGlass => "break-glass",
            AuditEventKind::MessageQuenched => "message-quenched",
            AuditEventKind::DeliveryDropped => "delivery-dropped",
            AuditEventKind::ShardRestarted => "shard-restarted",
            AuditEventKind::DeliveryLost => "delivery-lost",
        };
        f.write_str(s)
    }
}

/// An auditable occurrence somewhere in the deployment.
///
/// Entity references are plain strings (component/process/data names scoped by the
/// caller) so the audit crate stays decoupled from the middleware and kernel models.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditEvent {
    /// A flow from `source` to `destination` was checked.
    FlowChecked {
        /// Name of the source entity.
        source: String,
        /// Name of the destination entity.
        destination: String,
        /// Source security context at check time.
        source_context: SecurityContext,
        /// Destination security context at check time.
        destination_context: SecurityContext,
        /// The decision reached.
        decision: FlowDecision,
        /// Optional name of the data item transferred (present when allowed).
        data_item: Option<String>,
    },
    /// Aggregated record of repeated flow checks between one `(source, destination)`
    /// pair whose decision was served from a flow-decision cache.
    ///
    /// High-throughput enforcement points audit the *first* check of a context pair in
    /// full (a [`AuditEvent::FlowChecked`] record carrying both contexts and the
    /// decision) and fold repeats into one summary per pair, preserving the "all
    /// attempted flows are evidenced" property (§8.3) at a fraction of the per-message
    /// cost. The summary's counts total **every** check in its window — including
    /// checks that were also recorded individually (first-of-pair records, denials) —
    /// so the summary alone answers "how many flows were attempted/denied".
    FlowSummary {
        /// Name of the source entity.
        source: String,
        /// Name of the destination entity.
        destination: String,
        /// Number of checks in the window that were allowed.
        allowed: u64,
        /// Number of checks in the window that were denied.
        denied: u64,
        /// Timestamp (millis) of the first check folded into this summary.
        window_start_millis: u64,
        /// Timestamp (millis) of the last check folded into this summary.
        window_end_millis: u64,
    },
    /// An entity changed its own labels, naming the approved transformation applied.
    LabelChanged {
        /// The entity that changed context.
        entity: String,
        /// Context before the change.
        before: SecurityContext,
        /// Context after the change.
        after: SecurityContext,
        /// Name of the approved algorithm (e.g. `k-anonymise`), if any.
        algorithm: Option<String>,
    },
    /// A privilege over `tag` was granted to or revoked from `entity` by `authority`.
    PrivilegeChanged {
        /// The entity whose privileges changed.
        entity: String,
        /// The tag concerned.
        tag: String,
        /// Human-readable description of the change (e.g. `grant secrecy-remove`).
        change: String,
        /// The principal that authorised the change.
        authority: String,
    },
    /// A component was reconfigured by a third party via a control message.
    Reconfigured {
        /// The component that was reconfigured.
        component: String,
        /// The principal that issued the reconfiguration.
        issued_by: String,
        /// Description of the reconfiguration action.
        action: String,
        /// Whether the control message was accepted.
        accepted: bool,
    },
    /// A policy rule fired, possibly producing reconfiguration commands.
    PolicyFired {
        /// The policy rule's identifier.
        policy: String,
        /// The event or context change that triggered it.
        trigger: String,
        /// Number of resulting actions.
        actions: usize,
    },
    /// A messaging channel was established or torn down.
    ChannelChanged {
        /// Source component.
        from: String,
        /// Destination component.
        to: String,
        /// Whether the channel now exists.
        established: bool,
        /// Why (AC denied, IFC denied, policy, …).
        reason: String,
    },
    /// A data item was derived from zero or more input items by a process.
    DataDerived {
        /// The new data item's name.
        output: String,
        /// The names of input data items.
        inputs: Vec<String>,
        /// The process that produced it.
        process: String,
        /// The agent controlling the process.
        agent: String,
        /// Security context of the output item.
        context: SecurityContext,
    },
    /// A break-glass override was activated or deactivated.
    BreakGlass {
        /// The override's policy id.
        policy: String,
        /// Whether it became active (`true`) or expired/was revoked (`false`).
        active: bool,
        /// The justification recorded at activation.
        justification: String,
    },
    /// Attributes of a message delivered `source -> destination` were removed by
    /// source quenching: their message-level secrecy tags were not all present in the
    /// destination's secrecy label (Fig. 10).
    MessageQuenched {
        /// Name of the source entity.
        source: String,
        /// Name of the destination entity.
        destination: String,
        /// The message type concerned.
        message_type: String,
        /// The quenched attribute names.
        attributes: Vec<String>,
    },
    /// Messages that passed enforcement for `source -> destination` were shed from the
    /// destination's bounded mailbox under a drop-oldest overflow policy, so the
    /// consumer never received them. Counterpart of the delivery evidence: every
    /// admitted-but-unobserved message is accounted for.
    DeliveryDropped {
        /// Name of the source entity whose messages were shed.
        source: String,
        /// Name of the destination entity whose mailbox overflowed.
        destination: String,
        /// The message type concerned.
        message_type: String,
        /// How many deliveries this record accounts for. Enforcement points either
        /// record each shed individually (`dropped: 1`) or fold a pair's sheds into
        /// one summary record — never both for the same shed — so summing `dropped`
        /// across records counts every shed delivery exactly once.
        dropped: u64,
    },
    /// An enforcement shard's worker panicked and its supervisor restarted it:
    /// decision caches were rebuilt cold and the shard's audit chain was re-anchored
    /// on the last flushed hash, so chain verification still passes across the
    /// restart. Recorded on the restarted shard's own log, first record after the
    /// re-anchor.
    ShardRestarted {
        /// The restarted shard's identifier (its per-shard audit authority name).
        shard: String,
        /// 1-based restart ordinal for this shard (how many restarts so far).
        restart: u64,
        /// The captured panic message, best-effort (`<non-string panic payload>`
        /// when the payload was not a string).
        cause: String,
    },
    /// Deliveries accepted for `source -> destination` that were neither enforced
    /// nor delivered, because the shard processing them crashed mid-task (or had
    /// degraded after exhausting its restart budget). The loss is evidenced so the
    /// accounting identity `published == delivered + denied + missing + lost`
    /// stays exact; a lost delivery is never silently dropped.
    DeliveryLost {
        /// Name of the source entity.
        source: String,
        /// Name of the destination entity.
        destination: String,
        /// The message type concerned, when the lost delivery carried a payload
        /// (`None` for flow-only deliveries).
        message_type: Option<String>,
        /// How many deliveries this record accounts for.
        lost: u64,
        /// Why the work was abandoned (captured panic message, or a degraded-shard
        /// note).
        cause: String,
    },
}

impl AuditEvent {
    /// The kind of this event.
    pub fn kind(&self) -> AuditEventKind {
        match self {
            AuditEvent::FlowChecked { .. } => AuditEventKind::FlowChecked,
            AuditEvent::FlowSummary { .. } => AuditEventKind::FlowSummary,
            AuditEvent::LabelChanged { .. } => AuditEventKind::LabelChanged,
            AuditEvent::PrivilegeChanged { .. } => AuditEventKind::PrivilegeChanged,
            AuditEvent::Reconfigured { .. } => AuditEventKind::Reconfigured,
            AuditEvent::PolicyFired { .. } => AuditEventKind::PolicyFired,
            AuditEvent::ChannelChanged { .. } => AuditEventKind::ChannelChanged,
            AuditEvent::DataDerived { .. } => AuditEventKind::DataDerived,
            AuditEvent::BreakGlass { .. } => AuditEventKind::BreakGlass,
            AuditEvent::MessageQuenched { .. } => AuditEventKind::MessageQuenched,
            AuditEvent::DeliveryDropped { .. } => AuditEventKind::DeliveryDropped,
            AuditEvent::ShardRestarted { .. } => AuditEventKind::ShardRestarted,
            AuditEvent::DeliveryLost { .. } => AuditEventKind::DeliveryLost,
        }
    }

    /// Whether the event records a *denied* flow.
    pub(crate) fn is_denied_flow(&self) -> bool {
        matches!(
            self,
            AuditEvent::FlowChecked { decision, .. } if decision.is_denied()
        )
    }

    /// The names of entities mentioned by the event (used to answer "all records
    /// relating to X" audit queries).
    pub fn entities(&self) -> Vec<&str> {
        match self {
            AuditEvent::FlowChecked { source, destination, data_item, .. } => {
                let mut v = vec![source.as_str(), destination.as_str()];
                if let Some(d) = data_item {
                    v.push(d.as_str());
                }
                v
            }
            AuditEvent::FlowSummary { source, destination, .. } => {
                vec![source.as_str(), destination.as_str()]
            }
            AuditEvent::LabelChanged { entity, .. } => vec![entity.as_str()],
            AuditEvent::PrivilegeChanged { entity, authority, .. } => {
                vec![entity.as_str(), authority.as_str()]
            }
            AuditEvent::Reconfigured { component, issued_by, .. } => {
                vec![component.as_str(), issued_by.as_str()]
            }
            AuditEvent::PolicyFired { policy, .. } => vec![policy.as_str()],
            AuditEvent::ChannelChanged { from, to, .. } => vec![from.as_str(), to.as_str()],
            AuditEvent::DataDerived { output, inputs, process, agent, .. } => {
                let mut v = vec![output.as_str(), process.as_str(), agent.as_str()];
                v.extend(inputs.iter().map(String::as_str));
                v
            }
            AuditEvent::BreakGlass { policy, .. } => vec![policy.as_str()],
            AuditEvent::MessageQuenched { source, destination, .. } => {
                vec![source.as_str(), destination.as_str()]
            }
            AuditEvent::DeliveryDropped { source, destination, .. } => {
                vec![source.as_str(), destination.as_str()]
            }
            AuditEvent::ShardRestarted { shard, .. } => vec![shard.as_str()],
            AuditEvent::DeliveryLost { source, destination, .. } => {
                vec![source.as_str(), destination.as_str()]
            }
        }
    }
}

impl fmt::Display for AuditEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditEvent::FlowChecked { source, destination, decision, .. } => {
                write!(f, "flow {source} -> {destination}: {decision}")
            }
            AuditEvent::FlowSummary { source, destination, allowed, denied, .. } => {
                write!(f, "flows {source} -> {destination}: {allowed} allowed, {denied} denied")
            }
            AuditEvent::LabelChanged { entity, algorithm, .. } => match algorithm {
                Some(a) => write!(f, "{entity} changed context via {a}"),
                None => write!(f, "{entity} changed context"),
            },
            AuditEvent::PrivilegeChanged { entity, tag, change, authority } => {
                write!(f, "{authority}: {change} on {tag} for {entity}")
            }
            AuditEvent::Reconfigured { component, issued_by, action, accepted } => write!(
                f,
                "{issued_by} reconfigured {component}: {action} ({})",
                if *accepted { "accepted" } else { "rejected" }
            ),
            AuditEvent::PolicyFired { policy, trigger, actions } => {
                write!(f, "policy {policy} fired on {trigger} ({actions} actions)")
            }
            AuditEvent::ChannelChanged { from, to, established, reason } => write!(
                f,
                "channel {from} -> {to} {} ({reason})",
                if *established { "established" } else { "closed" }
            ),
            AuditEvent::DataDerived { output, process, .. } => {
                write!(f, "{process} derived {output}")
            }
            AuditEvent::BreakGlass { policy, active, .. } => write!(
                f,
                "break-glass {policy} {}",
                if *active { "activated" } else { "deactivated" }
            ),
            AuditEvent::MessageQuenched { source, destination, message_type, attributes } => {
                write!(
                    f,
                    "quenched {} of {message_type} {source} -> {destination}",
                    attributes.join(", ")
                )
            }
            AuditEvent::DeliveryDropped { source, destination, message_type, dropped } => {
                write!(
                    f,
                    "dropped {dropped} {message_type} {source} -> {destination} (mailbox overflow)"
                )
            }
            AuditEvent::ShardRestarted { shard, restart, cause } => {
                write!(f, "shard {shard} restarted (restart #{restart}: {cause})")
            }
            AuditEvent::DeliveryLost { source, destination, message_type, lost, cause } => {
                match message_type {
                    Some(message_type) => {
                        write!(f, "lost {lost} {message_type} {source} -> {destination} ({cause})")
                    }
                    None => write!(f, "lost {lost} {source} -> {destination} ({cause})"),
                }
            }
        }
    }
}

/// A log record: an event plus its position, timestamp and hash-chain linkage.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRecord {
    /// Position of this record in the log (0-based).
    pub id: RecordId,
    /// Simulated time (milliseconds) at which the event was recorded.
    pub at_millis: u64,
    /// The node or domain that recorded the event (for federated/distributed audit).
    pub recorded_by: String,
    /// The event itself.
    pub event: AuditEvent,
    /// Hash of the previous record (0 for the first record).
    pub previous_hash: u64,
    /// Hash of this record's contents chained with `previous_hash`.
    pub hash: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use legaliot_ifc::{can_flow, SecurityContext};

    fn sample_flow_event(denied: bool) -> AuditEvent {
        let src = SecurityContext::from_names(["medical"], Vec::<&str>::new());
        let dst = if denied { SecurityContext::public() } else { src.clone() };
        AuditEvent::FlowChecked {
            source: "sensor".into(),
            destination: "analyser".into(),
            source_context: src.clone(),
            destination_context: dst.clone(),
            decision: can_flow(&src, &dst),
            data_item: Some("reading-1".into()),
        }
    }

    #[test]
    fn kind_classification() {
        assert_eq!(sample_flow_event(false).kind(), AuditEventKind::FlowChecked);
        let label_change = AuditEvent::LabelChanged {
            entity: "sanitiser".into(),
            before: SecurityContext::public(),
            after: SecurityContext::public(),
            algorithm: Some("convert".into()),
        };
        assert_eq!(label_change.kind(), AuditEventKind::LabelChanged);
        assert_eq!(
            AuditEvent::BreakGlass {
                policy: "p".into(),
                active: true,
                justification: "emergency".into()
            }
            .kind(),
            AuditEventKind::BreakGlass
        );
    }

    #[test]
    fn denied_flow_detection() {
        assert!(!sample_flow_event(false).is_denied_flow());
        assert!(sample_flow_event(true).is_denied_flow());
        assert!(!AuditEvent::PolicyFired { policy: "p".into(), trigger: "t".into(), actions: 0 }
            .is_denied_flow());
    }

    #[test]
    fn entities_extraction() {
        let e = sample_flow_event(false);
        let names = e.entities();
        assert!(names.contains(&"sensor"));
        assert!(names.contains(&"analyser"));
        assert!(names.contains(&"reading-1"));

        let derived = AuditEvent::DataDerived {
            output: "stats".into(),
            inputs: vec!["ann-reading".into(), "zeb-reading".into()],
            process: "stats-gen".into(),
            agent: "hospital".into(),
            context: SecurityContext::public(),
        };
        let names = derived.entities();
        assert_eq!(names.len(), 5);
        assert!(names.contains(&"ann-reading"));
    }

    #[test]
    fn display_is_informative() {
        let e = sample_flow_event(true);
        let s = e.to_string();
        assert!(s.contains("sensor"));
        assert!(s.contains("denied"));
        let kinds = [
            AuditEventKind::FlowChecked,
            AuditEventKind::FlowSummary,
            AuditEventKind::LabelChanged,
            AuditEventKind::PrivilegeChanged,
            AuditEventKind::Reconfigured,
            AuditEventKind::PolicyFired,
            AuditEventKind::ChannelChanged,
            AuditEventKind::DataDerived,
            AuditEventKind::BreakGlass,
        ];
        for k in kinds {
            assert!(!k.to_string().is_empty());
        }
    }

    #[test]
    fn record_id_display() {
        assert_eq!(RecordId(7).to_string(), "#7");
    }

    #[test]
    fn delivery_dropped_event() {
        let e = AuditEvent::DeliveryDropped {
            source: "sensor".into(),
            destination: "analyser".into(),
            message_type: "reading".into(),
            dropped: 12,
        };
        assert_eq!(e.kind(), AuditEventKind::DeliveryDropped);
        assert!(!e.is_denied_flow());
        assert_eq!(e.entities(), vec!["sensor", "analyser"]);
        let s = e.to_string();
        assert!(s.contains("dropped 12"));
        assert!(s.contains("overflow"));
        assert_eq!(AuditEventKind::DeliveryDropped.to_string(), "delivery-dropped");
    }

    #[test]
    fn shard_restarted_event() {
        let e = AuditEvent::ShardRestarted {
            shard: "plane-shard-2".into(),
            restart: 3,
            cause: "failpoint `shard.process` fired".into(),
        };
        assert_eq!(e.kind(), AuditEventKind::ShardRestarted);
        assert!(!e.is_denied_flow());
        assert_eq!(e.entities(), vec!["plane-shard-2"]);
        let s = e.to_string();
        assert!(s.contains("restart #3"));
        assert!(s.contains("shard.process"));
        assert_eq!(AuditEventKind::ShardRestarted.to_string(), "shard-restarted");
    }

    #[test]
    fn delivery_lost_event() {
        let e = AuditEvent::DeliveryLost {
            source: "sensor".into(),
            destination: "analyser".into(),
            message_type: Some("reading".into()),
            lost: 2,
            cause: "shard worker panicked".into(),
        };
        assert_eq!(e.kind(), AuditEventKind::DeliveryLost);
        assert!(!e.is_denied_flow());
        assert_eq!(e.entities(), vec!["sensor", "analyser"]);
        let s = e.to_string();
        assert!(s.contains("lost 2 reading"));
        assert!(s.contains("panicked"));
        assert_eq!(AuditEventKind::DeliveryLost.to_string(), "delivery-lost");

        let flow_only = AuditEvent::DeliveryLost {
            source: "sensor".into(),
            destination: "analyser".into(),
            message_type: None,
            lost: 1,
            cause: "shard degraded".into(),
        };
        assert!(flow_only.to_string().contains("lost 1 sensor -> analyser"));
    }

    #[test]
    fn flow_summary_event() {
        let e = AuditEvent::FlowSummary {
            source: "sensor".into(),
            destination: "analyser".into(),
            allowed: 41,
            denied: 1,
            window_start_millis: 10,
            window_end_millis: 500,
        };
        assert_eq!(e.kind(), AuditEventKind::FlowSummary);
        // A summary aggregates; it is not itself a denied flow record.
        assert!(!e.is_denied_flow());
        assert_eq!(e.entities(), vec!["sensor", "analyser"]);
        let s = e.to_string();
        assert!(s.contains("41 allowed"));
        assert!(s.contains("1 denied"));
    }
}
