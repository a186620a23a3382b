//! Policy actions and the reconfiguration commands they expand to.
//!
//! §5.2 distinguishes two forms of reconfiguration: *setting the security/management
//! regime* (labels, privileges, an IFC security context) and *proactively taking direct
//! security operations* (initiating/ceasing connections, forcing data through a
//! sanitiser, disconnecting an employee, isolating a rogue 'thing'). [`Action`] is the
//! vocabulary a policy author writes; [`ReconfigurationCommand`] is the concrete,
//! addressed instruction the middleware authorises and applies as a control message
//! (Fig. 8).

use std::fmt;

use legaliot_ifc::{Privilege, SecurityContext, Tag};

/// A declarative action taken when a policy rule fires.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Permit a flow class (used by authorisation-style rules).
    AllowFlow {
        /// Source component (name or pattern).
        from: String,
        /// Destination component.
        to: String,
    },
    /// Deny a flow class.
    DenyFlow {
        /// Source component.
        from: String,
        /// Destination component.
        to: String,
    },
    /// Reconfigure a component's security context.
    SetSecurityContext {
        /// The component to reconfigure.
        component: String,
        /// The new context.
        context: SecurityContext,
    },
    /// Add a secrecy or integrity tag to a component's context.
    AddTag {
        /// The component to reconfigure.
        component: String,
        /// The tag to add.
        tag: Tag,
        /// `true` to add to the secrecy label, `false` for integrity.
        secrecy: bool,
    },
    /// Remove a tag from a component's context.
    RemoveTag {
        /// The component to reconfigure.
        component: String,
        /// The tag to remove.
        tag: Tag,
        /// `true` to remove from the secrecy label, `false` for integrity.
        secrecy: bool,
    },
    /// Grant a privilege to a component (requires tag ownership at enforcement time).
    GrantPrivilege {
        /// The component receiving the privilege.
        component: String,
        /// The privilege granted.
        privilege: Privilege,
    },
    /// Revoke a privilege from a component.
    RevokePrivilege {
        /// The component losing the privilege.
        component: String,
        /// The privilege revoked.
        privilege: Privilege,
    },
    /// Establish a messaging channel between two components.
    Connect {
        /// Source component.
        from: String,
        /// Destination component.
        to: String,
    },
    /// Tear down a messaging channel.
    Disconnect {
        /// Source component.
        from: String,
        /// Destination component.
        to: String,
    },
    /// Re-route a flow through an intermediary (e.g. force data through a sanitiser).
    RouteVia {
        /// Source component.
        from: String,
        /// The mandatory intermediary.
        via: String,
        /// Destination component.
        to: String,
    },
    /// Isolate a component: tear down all of its channels and refuse new ones.
    Isolate {
        /// The component to isolate (e.g. a rogue 'thing').
        component: String,
    },
    /// Lift a previous isolation: the component may establish channels again.
    Deisolate {
        /// The component to restore.
        component: String,
    },
    /// Send an alert/notification to a principal (e.g. emergency services, a relative).
    Notify {
        /// Who to notify.
        recipient: String,
        /// The message.
        message: String,
    },
    /// Request a different sampling rate or actuation from a device.
    Actuate {
        /// The device to actuate.
        component: String,
        /// The actuation command (e.g. `sample-interval=1s`).
        command: String,
    },
}

impl Action {
    /// The component this action primarily targets, if it is addressed to one.
    pub fn target(&self) -> Option<&str> {
        match self {
            Action::SetSecurityContext { component, .. }
            | Action::AddTag { component, .. }
            | Action::RemoveTag { component, .. }
            | Action::GrantPrivilege { component, .. }
            | Action::RevokePrivilege { component, .. }
            | Action::Isolate { component }
            | Action::Deisolate { component }
            | Action::Actuate { component, .. } => Some(component),
            Action::Connect { from, .. }
            | Action::Disconnect { from, .. }
            | Action::RouteVia { from, .. }
            | Action::AllowFlow { from, .. }
            | Action::DenyFlow { from, .. } => Some(from),
            Action::Notify { .. } => None,
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::AllowFlow { from, to } => write!(f, "allow flow {from} -> {to}"),
            Action::DenyFlow { from, to } => write!(f, "deny flow {from} -> {to}"),
            Action::SetSecurityContext { component, context } => {
                write!(f, "set context of {component} to {context}")
            }
            Action::AddTag { component, tag, secrecy } => write!(
                f,
                "add {} tag {tag} to {component}",
                if *secrecy { "secrecy" } else { "integrity" }
            ),
            Action::RemoveTag { component, tag, secrecy } => write!(
                f,
                "remove {} tag {tag} from {component}",
                if *secrecy { "secrecy" } else { "integrity" }
            ),
            Action::GrantPrivilege { component, privilege } => {
                write!(f, "grant {privilege} to {component}")
            }
            Action::RevokePrivilege { component, privilege } => {
                write!(f, "revoke {privilege} from {component}")
            }
            Action::Connect { from, to } => write!(f, "connect {from} -> {to}"),
            Action::Disconnect { from, to } => write!(f, "disconnect {from} -> {to}"),
            Action::RouteVia { from, via, to } => write!(f, "route {from} -> {via} -> {to}"),
            Action::Isolate { component } => write!(f, "isolate {component}"),
            Action::Deisolate { component } => write!(f, "deisolate {component}"),
            Action::Notify { recipient, message } => write!(f, "notify {recipient}: {message}"),
            Action::Actuate { component, command } => write!(f, "actuate {component}: {command}"),
        }
    }
}

/// A concrete reconfiguration instruction issued by the policy engine, addressed to a
/// component and attributed to the policy that produced it.
///
/// This is the control message itself (Fig. 8): the middleware authorises it against
/// its own access control before applying it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigurationCommand {
    /// The policy rule that produced the command.
    pub issued_by_policy: String,
    /// The principal on whose authority the policy engine acts.
    pub authority: String,
    /// The action to apply.
    pub action: Action,
    /// Simulated time (ms) at which the command was issued.
    pub issued_at_millis: u64,
}

impl ReconfigurationCommand {
    /// Creates a command.
    pub fn new(
        issued_by_policy: impl Into<String>,
        authority: impl Into<String>,
        action: Action,
        issued_at_millis: u64,
    ) -> Self {
        ReconfigurationCommand {
            issued_by_policy: issued_by_policy.into(),
            authority: authority.into(),
            action,
            issued_at_millis,
        }
    }
}

impl fmt::Display for ReconfigurationCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} by {}] {}", self.issued_by_policy, self.authority, self.action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legaliot_ifc::PrivilegeKind;

    #[test]
    fn targets() {
        assert_eq!(Action::Isolate { component: "rogue".into() }.target(), Some("rogue"));
        assert_eq!(Action::Deisolate { component: "rogue".into() }.target(), Some("rogue"));
        assert_eq!(Action::Connect { from: "a".into(), to: "b".into() }.target(), Some("a"));
        assert_eq!(
            Action::Notify { recipient: "doctor".into(), message: "m".into() }.target(),
            None
        );
        assert_eq!(
            Action::Actuate { component: "sensor".into(), command: "faster".into() }.target(),
            Some("sensor")
        );
    }

    #[test]
    fn displays_are_informative() {
        let actions = vec![
            Action::AllowFlow { from: "a".into(), to: "b".into() },
            Action::DenyFlow { from: "a".into(), to: "b".into() },
            Action::SetSecurityContext {
                component: "c".into(),
                context: SecurityContext::public(),
            },
            Action::AddTag { component: "c".into(), tag: Tag::new("t"), secrecy: false },
            Action::RemoveTag { component: "c".into(), tag: Tag::new("t"), secrecy: true },
            Action::GrantPrivilege {
                component: "c".into(),
                privilege: Privilege::new("t", PrivilegeKind::IntegrityAdd),
            },
            Action::RevokePrivilege {
                component: "c".into(),
                privilege: Privilege::new("t", PrivilegeKind::IntegrityAdd),
            },
            Action::Connect { from: "a".into(), to: "b".into() },
            Action::Disconnect { from: "a".into(), to: "b".into() },
            Action::RouteVia { from: "a".into(), via: "san".into(), to: "b".into() },
            Action::Isolate { component: "c".into() },
            Action::Deisolate { component: "c".into() },
            Action::Notify { recipient: "r".into(), message: "m".into() },
            Action::Actuate { component: "c".into(), command: "x".into() },
        ];
        for a in actions {
            assert!(!a.to_string().is_empty());
        }
    }

    #[test]
    fn command_display_mentions_policy_and_authority() {
        let cmd = ReconfigurationCommand::new(
            "emergency-response",
            "hospital",
            Action::Connect { from: "analyser".into(), to: "emergency-doctor".into() },
            42,
        );
        let s = cmd.to_string();
        assert!(s.contains("emergency-response"));
        assert!(s.contains("hospital"));
        assert!(s.contains("connect"));
        assert_eq!(cmd.issued_at_millis, 42);
    }
}
