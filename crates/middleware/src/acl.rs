//! The middleware's access-control regime.
//!
//! SBUS "has a general AC regime to govern interactions. This policy, encapsulating
//! attributes of principals and context, is enforced at the granularity of message type,
//! and can be reconfigured" (§8.1). Rules name a principal or a (parametrised) role, a
//! message type (or any), a direction, and an optional context condition; the regime is
//! consulted at channel establishment, on every message, and — crucially — when a
//! third-party reconfiguration control message arrives (Fig. 8).

use std::collections::HashMap;
use std::fmt;

use legaliot_context::{ContextSnapshot, Timestamp};
use legaliot_policy::Condition;

use crate::schema::MessageType;

/// A principal known to the middleware: a person, organisation or service identity,
/// optionally holding roles (possibly parametrised, e.g. `nurse(ward-3)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Principal {
    /// The principal's name.
    pub name: String,
    /// Roles held, e.g. `nurse(ward-3)`, `patient`, `policy-engine`.
    pub roles: Vec<String>,
}

impl Principal {
    /// Creates a principal with no roles.
    pub fn new(name: impl Into<String>) -> Self {
        Principal { name: name.into(), roles: Vec::new() }
    }

    /// Adds a role.
    pub fn with_role(mut self, role: impl Into<String>) -> Self {
        self.roles.push(role.into());
        self
    }

    /// Whether the principal holds the given role (exact match, including parameters).
    pub fn has_role(&self, role: &str) -> bool {
        self.roles.iter().any(|r| r == role)
    }
}

impl fmt::Display for Principal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if !self.roles.is_empty() {
            write!(f, " [{}]", self.roles.join(", "))?;
        }
        Ok(())
    }
}

/// Who a rule applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Subject {
    /// A specific principal by name.
    Principal(String),
    /// Any principal holding the given role.
    Role(String),
    /// Any principal.
    Anyone,
}

/// The operations the AC regime governs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operation {
    /// Sending messages of the given type.
    Send,
    /// Receiving messages of the given type.
    Receive,
    /// Issuing third-party reconfiguration control messages (Fig. 8).
    Reconfigure,
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Operation::Send => "send",
            Operation::Receive => "receive",
            Operation::Reconfigure => "reconfigure",
        };
        f.write_str(s)
    }
}

/// An access rule: subject + operation + message type (or any) + optional context
/// condition, producing allow or deny.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessRule {
    /// Who the rule applies to.
    pub subject: Subject,
    /// The operation governed.
    pub operation: Operation,
    /// The message type, or `None` for any.
    pub message_type: Option<MessageType>,
    /// A context condition that must hold for the rule to apply.
    pub condition: Condition,
    /// Whether the rule allows (`true`) or denies (`false`).
    pub allow: bool,
}

impl AccessRule {
    /// A rule allowing `subject` to perform `operation` on `message_type`.
    pub fn allow(
        subject: Subject,
        operation: Operation,
        message_type: Option<MessageType>,
    ) -> Self {
        AccessRule { subject, operation, message_type, condition: Condition::Always, allow: true }
    }

    /// A rule denying `subject` the `operation` on `message_type`.
    pub fn deny(subject: Subject, operation: Operation, message_type: Option<MessageType>) -> Self {
        AccessRule { subject, operation, message_type, condition: Condition::Always, allow: false }
    }

    /// Restricts the rule to circumstances where `condition` holds.
    pub fn when(mut self, condition: Condition) -> Self {
        self.condition = condition;
        self
    }

    fn applies_to(
        &self,
        principal: &Principal,
        operation: Operation,
        message_type: Option<&MessageType>,
        snapshot: &ContextSnapshot,
        now: Timestamp,
    ) -> bool {
        if self.operation != operation {
            return false;
        }
        let subject_matches = match &self.subject {
            Subject::Principal(name) => name == &principal.name,
            Subject::Role(role) => principal.has_role(role),
            Subject::Anyone => true,
        };
        if !subject_matches {
            return false;
        }
        let type_matches = match (&self.message_type, message_type) {
            (None, _) => true,
            (Some(required), Some(actual)) => required == actual,
            (Some(_), None) => false,
        };
        if !type_matches {
            return false;
        }
        self.condition.evaluate(snapshot, now)
    }
}

/// The decision reached by the regime. `Copy`: deciding allocates nothing, a denial
/// included — its text is built by [`DenialCause::reason`] where one is wanted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessDecision {
    /// Some allow rule applied and no deny rule did.
    Allowed,
    /// Denied: either an explicit deny rule applied or no allow rule matched
    /// (default-deny).
    Denied {
        /// Which of the three ways the regime refuses.
        cause: DenialCause,
    },
}

/// Why the regime refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenialCause {
    /// No rule governs the component.
    NoRules,
    /// An explicit deny rule applied.
    ExplicitDeny {
        /// The rule's index among the component's rules.
        rule: usize,
    },
    /// Rules govern the component, but no allow rule applied (default-deny).
    NoAllowRule,
}

impl DenialCause {
    /// The human-readable explanation of a refusal of `principal`'s `operation` on
    /// `component`.
    pub fn reason(self, component: &str, principal: &Principal, operation: Operation) -> String {
        let name = &principal.name;
        match self {
            DenialCause::NoRules => format!("no access rules defined for component `{component}`"),
            DenialCause::ExplicitDeny { .. } => {
                format!("explicit deny: {name} may not {operation} on `{component}`")
            }
            DenialCause::NoAllowRule => {
                format!("no allow rule matches {name} performing {operation} on `{component}`")
            }
        }
    }
}

impl AccessDecision {
    /// Whether access is allowed.
    pub fn is_allowed(&self) -> bool {
        matches!(self, AccessDecision::Allowed)
    }
}

/// The middleware's access-control regime: per-component rule lists, default-deny, with
/// explicit denies overriding allows.
#[derive(Debug, Clone, Default)]
pub struct AccessRegime {
    /// The rules governing each component (the one whose resources are accessed).
    components: HashMap<String, Vec<AccessRule>>,
}

impl AccessRegime {
    /// Creates an empty (default-deny) regime.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule governing access to `component`.
    pub fn add_rule(&mut self, component: impl Into<String>, rule: AccessRule) {
        self.components.entry(component.into()).or_default().push(rule);
    }

    /// Number of rules across all components.
    pub fn rule_count(&self) -> usize {
        self.components.values().map(Vec::len).sum()
    }

    /// Decides whether `principal` may perform `operation` (optionally on
    /// `message_type`) against `component`, in the given context.
    ///
    /// Deny rules override allow rules; with no matching rule the default is deny.
    pub fn decide(
        &self,
        component: &str,
        principal: &Principal,
        operation: Operation,
        message_type: Option<&MessageType>,
        snapshot: &ContextSnapshot,
        now: Timestamp,
    ) -> AccessDecision {
        let Some(rules) = self.components.get(component) else {
            return AccessDecision::Denied { cause: DenialCause::NoRules };
        };
        let mut allowed = false;
        for (index, rule) in rules.iter().enumerate() {
            if rule.applies_to(principal, operation, message_type, snapshot, now) {
                if !rule.allow {
                    let cause = DenialCause::ExplicitDeny { rule: index };
                    return AccessDecision::Denied { cause };
                }
                allowed = true;
            }
        }
        if allowed {
            AccessDecision::Allowed
        } else {
            AccessDecision::Denied { cause: DenialCause::NoAllowRule }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legaliot_context::ContextSnapshot;

    fn nurse() -> Principal {
        Principal::new("nina").with_role("nurse(ward-3)")
    }

    fn snapshot_on_shift(on: bool) -> ContextSnapshot {
        ContextSnapshot::from_pairs([("nina.on-shift", on)])
    }

    #[test]
    fn default_deny_without_rules() {
        let regime = AccessRegime::new();
        let d = regime.decide(
            "ann-analyser",
            &nurse(),
            Operation::Receive,
            None,
            &ContextSnapshot::default(),
            Timestamp::ZERO,
        );
        assert!(!d.is_allowed());
        assert_eq!(regime.rule_count(), 0);
    }

    #[test]
    fn role_based_allow_with_context_condition() {
        let mut regime = AccessRegime::new();
        regime.add_rule(
            "ann-analyser",
            AccessRule::allow(
                Subject::Role("nurse(ward-3)".into()),
                Operation::Receive,
                Some(MessageType::new("sensor-reading")),
            )
            .when(Condition::is_true("nina.on-shift")),
        );
        let mt = MessageType::new("sensor-reading");
        // On shift: allowed.
        let d = regime.decide(
            "ann-analyser",
            &nurse(),
            Operation::Receive,
            Some(&mt),
            &snapshot_on_shift(true),
            Timestamp::ZERO,
        );
        assert!(d.is_allowed());
        // Off shift: denied.
        let d = regime.decide(
            "ann-analyser",
            &nurse(),
            Operation::Receive,
            Some(&mt),
            &snapshot_on_shift(false),
            Timestamp::ZERO,
        );
        assert!(!d.is_allowed());
        // Wrong message type: denied.
        let other = MessageType::new("actuation-command");
        let d = regime.decide(
            "ann-analyser",
            &nurse(),
            Operation::Receive,
            Some(&other),
            &snapshot_on_shift(true),
            Timestamp::ZERO,
        );
        assert!(!d.is_allowed());
        // Wrong role: denied.
        let visitor = Principal::new("victor").with_role("visitor");
        let d = regime.decide(
            "ann-analyser",
            &visitor,
            Operation::Receive,
            Some(&mt),
            &snapshot_on_shift(true),
            Timestamp::ZERO,
        );
        assert!(!d.is_allowed());
    }

    #[test]
    fn explicit_deny_overrides_allow() {
        let mut regime = AccessRegime::new();
        regime.add_rule("device", AccessRule::allow(Subject::Anyone, Operation::Send, None));
        regime.add_rule(
            "device",
            AccessRule::deny(Subject::Principal("mallory".into()), Operation::Send, None),
        );
        let mallory = Principal::new("mallory");
        let alice = Principal::new("alice");
        assert!(!regime
            .decide(
                "device",
                &mallory,
                Operation::Send,
                None,
                &ContextSnapshot::default(),
                Timestamp::ZERO
            )
            .is_allowed());
        assert!(regime
            .decide(
                "device",
                &alice,
                Operation::Send,
                None,
                &ContextSnapshot::default(),
                Timestamp::ZERO
            )
            .is_allowed());
    }

    #[test]
    fn reconfigure_operation_is_separately_controlled() {
        let mut regime = AccessRegime::new();
        regime.add_rule(
            "ann-sensor",
            AccessRule::allow(Subject::Role("policy-engine".into()), Operation::Reconfigure, None),
        );
        let engine = Principal::new("hospital-engine").with_role("policy-engine");
        let attacker = Principal::new("attacker");
        assert!(regime
            .decide(
                "ann-sensor",
                &engine,
                Operation::Reconfigure,
                None,
                &ContextSnapshot::default(),
                Timestamp::ZERO
            )
            .is_allowed());
        assert!(!regime
            .decide(
                "ann-sensor",
                &attacker,
                Operation::Reconfigure,
                None,
                &ContextSnapshot::default(),
                Timestamp::ZERO
            )
            .is_allowed());
        // Holding reconfigure rights does not imply send rights.
        assert!(!regime
            .decide(
                "ann-sensor",
                &engine,
                Operation::Send,
                None,
                &ContextSnapshot::default(),
                Timestamp::ZERO
            )
            .is_allowed());
    }

    #[test]
    fn principal_roles_and_display() {
        let p = nurse();
        assert!(p.has_role("nurse(ward-3)"));
        assert!(!p.has_role("nurse(ward-4)"));
        assert!(p.to_string().contains("nina"));
        assert!(p.to_string().contains("nurse(ward-3)"));
        assert_eq!(Operation::Reconfigure.to_string(), "reconfigure");
        assert!(!AccessDecision::Denied { cause: DenialCause::NoRules }.is_allowed());
    }

    /// Each way the regime refuses, the cause it returns, and the text that cause
    /// spells — the words denials have always carried, byte for byte.
    #[test]
    fn denial_causes_spell_the_three_reasons() {
        let mut regime = AccessRegime::new();
        regime.add_rule("ruled", AccessRule::allow(Subject::Anyone, Operation::Send, None));
        regime.add_rule(
            "ruled",
            AccessRule::deny(Subject::Principal("mallory".into()), Operation::Send, None),
        );
        let (nina, mallory) = (nurse(), Principal::new("mallory").with_role("visitor"));
        let cases = [
            (
                "unruled",
                &nina,
                Operation::Send,
                DenialCause::NoRules,
                "no access rules defined for component `unruled`",
            ),
            (
                "ruled",
                &mallory,
                Operation::Send,
                DenialCause::ExplicitDeny { rule: 1 },
                "explicit deny: mallory may not send on `ruled`",
            ),
            (
                "ruled",
                &nina,
                Operation::Reconfigure,
                DenialCause::NoAllowRule,
                "no allow rule matches nina performing reconfigure on `ruled`",
            ),
        ];
        for (component, principal, operation, cause, text) in cases {
            let decision = regime.decide(
                component,
                principal,
                operation,
                None,
                &ContextSnapshot::default(),
                Timestamp::ZERO,
            );
            assert_eq!(decision, AccessDecision::Denied { cause }, "{text}");
            assert_eq!(cause.reason(component, principal, operation), text);
        }
    }
}
