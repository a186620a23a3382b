//! Third-party reconfiguration control messages (Fig. 8).
//!
//! "SBUS not only supports system components reconfiguring their own state; but
//! importantly, allows reconfiguration actions to be issued by third parties. … These
//! third-party instructions are executed as though the application had initiated them
//! … The reconfiguration commands are issued through the messaging system via control
//! messages … subject to the same general AC regime, to ensure that reconfigurations are
//! only actioned when received from trusted third parties." (§8.1)

use std::fmt;

use legaliot_ifc::{Privilege, SecurityContext, Tag};
use legaliot_policy::{Action, ReconfigurationCommand};

/// The concrete reconfiguration operations a control message can carry.
#[derive(Debug, Clone, PartialEq)]
pub enum ReconfigureOp {
    /// Replace the target component's security context.
    SetContext {
        /// The new context.
        context: SecurityContext,
    },
    /// Add a tag to the target's secrecy or integrity label.
    AddTag {
        /// The tag to add.
        tag: Tag,
        /// `true` for the secrecy label, `false` for integrity.
        secrecy: bool,
    },
    /// Remove a tag from the target's secrecy or integrity label.
    RemoveTag {
        /// The tag to remove.
        tag: Tag,
        /// `true` for the secrecy label, `false` for integrity.
        secrecy: bool,
    },
    /// Grant an IFC privilege to the target.
    GrantPrivilege {
        /// The privilege to grant.
        privilege: Privilege,
    },
    /// Revoke an IFC privilege from the target.
    RevokePrivilege {
        /// The privilege to revoke.
        privilege: Privilege,
    },
    /// Establish a channel from the target to another component.
    Connect {
        /// The destination component.
        to: String,
    },
    /// Tear down the channel from the target to another component.
    Disconnect {
        /// The destination component.
        to: String,
    },
    /// Isolate the target: tear down all channels and refuse new ones.
    Isolate,
    /// Lift a previous isolation.
    Deisolate,
    /// Deliver an actuation command to the target device.
    Actuate {
        /// The command, e.g. `sample-interval=1s`.
        command: String,
    },
}

impl fmt::Display for ReconfigureOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconfigureOp::SetContext { context } => write!(f, "set-context {context}"),
            ReconfigureOp::AddTag { tag, secrecy } => {
                write!(f, "add-{}-tag {tag}", if *secrecy { "secrecy" } else { "integrity" })
            }
            ReconfigureOp::RemoveTag { tag, secrecy } => {
                write!(f, "remove-{}-tag {tag}", if *secrecy { "secrecy" } else { "integrity" })
            }
            ReconfigureOp::GrantPrivilege { privilege } => write!(f, "grant {privilege}"),
            ReconfigureOp::RevokePrivilege { privilege } => write!(f, "revoke {privilege}"),
            ReconfigureOp::Connect { to } => write!(f, "connect-to {to}"),
            ReconfigureOp::Disconnect { to } => write!(f, "disconnect-from {to}"),
            ReconfigureOp::Isolate => write!(f, "isolate"),
            ReconfigureOp::Deisolate => write!(f, "deisolate"),
            ReconfigureOp::Actuate { command } => write!(f, "actuate {command}"),
        }
    }
}

/// A control message: a reconfiguration operation addressed to a component, issued by a
/// principal on behalf of a policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlMessage {
    /// The component the operation targets.
    pub target: String,
    /// The operation.
    pub op: ReconfigureOp,
    /// The issuing principal's name (checked against the AC regime's `Reconfigure`
    /// operation for the target).
    pub issued_by: String,
    /// The policy rule that produced the instruction, for audit.
    pub policy: String,
    /// Simulated issue time (ms).
    pub issued_at_millis: u64,
}

impl ControlMessage {
    /// Creates a control message.
    pub fn new(
        target: impl Into<String>,
        op: ReconfigureOp,
        issued_by: impl Into<String>,
        policy: impl Into<String>,
        issued_at_millis: u64,
    ) -> Self {
        ControlMessage {
            target: target.into(),
            op,
            issued_by: issued_by.into(),
            policy: policy.into(),
            issued_at_millis,
        }
    }

    /// Translates a policy-engine [`ReconfigurationCommand`] into zero or more control
    /// messages. `Notify` actions produce no control message (they go to principals, not
    /// components); flow allow/deny actions are enforced by the channel layer directly.
    pub(crate) fn from_command(command: &ReconfigurationCommand) -> Vec<ControlMessage> {
        let mk = |target: &str, op: ReconfigureOp| {
            ControlMessage::new(
                target,
                op,
                command.authority.clone(),
                command.issued_by_policy.clone(),
                command.issued_at_millis,
            )
        };
        match &command.action {
            Action::SetSecurityContext { component, context } => {
                vec![mk(component, ReconfigureOp::SetContext { context: context.clone() })]
            }
            Action::AddTag { component, tag, secrecy } => {
                vec![mk(component, ReconfigureOp::AddTag { tag: tag.clone(), secrecy: *secrecy })]
            }
            Action::RemoveTag { component, tag, secrecy } => {
                vec![mk(
                    component,
                    ReconfigureOp::RemoveTag { tag: tag.clone(), secrecy: *secrecy },
                )]
            }
            Action::GrantPrivilege { component, privilege } => {
                vec![mk(component, ReconfigureOp::GrantPrivilege { privilege: privilege.clone() })]
            }
            Action::RevokePrivilege { component, privilege } => {
                vec![mk(component, ReconfigureOp::RevokePrivilege { privilege: privilege.clone() })]
            }
            Action::Connect { from, to } => {
                vec![mk(from, ReconfigureOp::Connect { to: to.clone() })]
            }
            Action::Disconnect { from, to } => {
                vec![mk(from, ReconfigureOp::Disconnect { to: to.clone() })]
            }
            Action::RouteVia { from, via, to } => vec![
                mk(from, ReconfigureOp::Connect { to: via.clone() }),
                mk(via, ReconfigureOp::Connect { to: to.clone() }),
                mk(from, ReconfigureOp::Disconnect { to: to.clone() }),
            ],
            Action::Isolate { component } => vec![mk(component, ReconfigureOp::Isolate)],
            Action::Actuate { component, command: cmd } => {
                vec![mk(component, ReconfigureOp::Actuate { command: cmd.clone() })]
            }
            Action::AllowFlow { .. } | Action::DenyFlow { .. } | Action::Notify { .. } => {
                Vec::new()
            }
        }
    }
}

impl fmt::Display for ControlMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "control[{} -> {}]: {} (policy {})",
            self.issued_by, self.target, self.op, self.policy
        )
    }
}

/// The middleware's response to a control message.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlOutcome {
    /// The operation was authorised and applied.
    Applied,
    /// The issuer is not authorised to reconfigure the target.
    Unauthorised {
        /// Why.
        reason: String,
    },
    /// The target component is unknown.
    UnknownTarget,
    /// The operation was authorised but could not be applied (e.g. privilege grant for
    /// a tag the authority does not own).
    Failed {
        /// Why.
        reason: String,
    },
}

impl ControlOutcome {
    /// Whether the operation was applied.
    pub fn is_applied(&self) -> bool {
        matches!(self, ControlOutcome::Applied)
    }
}

impl fmt::Display for ControlOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlOutcome::Applied => write!(f, "applied"),
            ControlOutcome::Unauthorised { reason } => write!(f, "unauthorised: {reason}"),
            ControlOutcome::UnknownTarget => write!(f, "unknown target"),
            ControlOutcome::Failed { reason } => write!(f, "failed: {reason}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legaliot_ifc::PrivilegeKind;

    #[test]
    fn command_translation_covers_addressed_actions() {
        let cmd = ReconfigurationCommand::new(
            "emergency-response",
            "hospital",
            Action::Connect { from: "ann-analyser".into(), to: "doctor".into() },
            7,
        );
        let msgs = ControlMessage::from_command(&cmd);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].target, "ann-analyser");
        assert_eq!(msgs[0].issued_by, "hospital");
        assert_eq!(msgs[0].policy, "emergency-response");
        assert_eq!(msgs[0].issued_at_millis, 7);
        assert!(matches!(msgs[0].op, ReconfigureOp::Connect { .. }));
    }

    #[test]
    fn route_via_expands_to_three_operations() {
        let cmd = ReconfigurationCommand::new(
            "anonymise",
            "hospital",
            Action::RouteVia {
                from: "records".into(),
                via: "anonymiser".into(),
                to: "analytics".into(),
            },
            0,
        );
        let msgs = ControlMessage::from_command(&cmd);
        assert_eq!(msgs.len(), 3);
        assert!(matches!(msgs[0].op, ReconfigureOp::Connect { .. }));
        assert_eq!(msgs[1].target, "anonymiser");
        assert!(matches!(msgs[2].op, ReconfigureOp::Disconnect { .. }));
    }

    #[test]
    fn notify_and_flow_actions_produce_no_control_messages() {
        for action in [
            Action::Notify { recipient: "doc".into(), message: "m".into() },
            Action::AllowFlow { from: "a".into(), to: "b".into() },
            Action::DenyFlow { from: "a".into(), to: "b".into() },
        ] {
            let cmd = ReconfigurationCommand::new("p", "a", action, 0);
            assert!(ControlMessage::from_command(&cmd).is_empty());
        }
    }

    #[test]
    fn all_ops_translate_and_display() {
        let ops = vec![
            Action::SetSecurityContext {
                component: "c".into(),
                context: SecurityContext::public(),
            },
            Action::AddTag { component: "c".into(), tag: Tag::new("t"), secrecy: true },
            Action::RemoveTag { component: "c".into(), tag: Tag::new("t"), secrecy: false },
            Action::GrantPrivilege {
                component: "c".into(),
                privilege: Privilege::new("t", PrivilegeKind::IntegrityAdd),
            },
            Action::RevokePrivilege {
                component: "c".into(),
                privilege: Privilege::new("t", PrivilegeKind::IntegrityAdd),
            },
            Action::Isolate { component: "c".into() },
            Action::Actuate { component: "c".into(), command: "x".into() },
        ];
        for action in ops {
            let cmd = ReconfigurationCommand::new("p", "a", action, 0);
            let msgs = ControlMessage::from_command(&cmd);
            assert_eq!(msgs.len(), 1);
            assert!(!msgs[0].to_string().is_empty());
            assert!(!msgs[0].op.to_string().is_empty());
        }
        assert_eq!(ReconfigureOp::Isolate.to_string(), "isolate");
        assert_eq!(ReconfigureOp::Deisolate.to_string(), "deisolate");
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
}
