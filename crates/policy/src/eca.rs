//! Event–Condition–Action policy rules.
//!
//! "Event-driven systems embody policy-driven behaviour; for example, Event-Condition-
//! Action (ECA) rules can specify the circumstances under which systems need to be
//! reconfigured" (§5). A [`PolicyRule`] names the triggering [`PolicyEvent`] class, a
//! [`Condition`] over context, and the [`Action`]s to take, together with the authority
//! that defined it and a priority used by conflict resolution (Challenge 4).

use std::fmt;

use crate::action::Action;
use crate::condition::Condition;

/// Identifier of a policy rule (unique within a deployment).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PolicyId(String);

impl PolicyId {
    /// Creates a policy id.
    pub fn new(id: impl Into<String>) -> Self {
        PolicyId(id.into())
    }

    /// The textual id.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for PolicyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for PolicyId {
    fn from(value: &str) -> Self {
        PolicyId::new(value)
    }
}

/// Priority of a rule; higher wins under the priority resolution strategy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PolicyPriority(pub i32);

impl PolicyPriority {
    /// The default priority for ordinary rules.
    pub const NORMAL: PolicyPriority = PolicyPriority(0);
    /// Priority used by regulatory obligations, above user preferences.
    pub const REGULATORY: PolicyPriority = PolicyPriority(100);
    /// Priority used by break-glass/emergency rules, above everything else.
    pub const EMERGENCY: PolicyPriority = PolicyPriority(1000);
}

/// The classes of event that can trigger a policy rule.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyEvent {
    /// A context key changed value.
    ContextChanged {
        /// The key that changed.
        key: String,
    },
    /// A data flow was attempted between two components (allowed or denied).
    FlowAttempted {
        /// Source component.
        from: String,
        /// Destination component.
        to: String,
        /// Whether the IFC/AC checks allowed it.
        allowed: bool,
    },
    /// A component joined the deployment.
    ComponentJoined {
        /// The new component's name.
        component: String,
    },
    /// A component left or became unreachable.
    ComponentLeft {
        /// The departed component's name.
        component: String,
    },
    /// A periodic evaluation tick (rules may fire on every tick).
    Tick,
}

impl PolicyEvent {
    /// A short class name for matching against [`PolicyRule::trigger`].
    pub fn class(&self) -> &'static str {
        match self {
            PolicyEvent::ContextChanged { .. } => "context-changed",
            PolicyEvent::FlowAttempted { .. } => "flow-attempted",
            PolicyEvent::ComponentJoined { .. } => "component-joined",
            PolicyEvent::ComponentLeft { .. } => "component-left",
            PolicyEvent::Tick => "tick",
        }
    }
}

impl fmt::Display for PolicyEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyEvent::ContextChanged { key } => write!(f, "context-changed({key})"),
            PolicyEvent::FlowAttempted { from, to, allowed } => write!(
                f,
                "flow-attempted({from} -> {to}, {})",
                if *allowed { "allowed" } else { "denied" }
            ),
            PolicyEvent::ComponentJoined { component } => {
                write!(f, "component-joined({component})")
            }
            PolicyEvent::ComponentLeft { component } => write!(f, "component-left({component})"),
            PolicyEvent::Tick => write!(f, "tick"),
        }
    }
}

/// What a rule is triggered by.
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// Fires on any event (conditions still apply).
    AnyEvent,
    /// Fires when a specific context key changes.
    OnContextKey {
        /// The key of interest.
        key: String,
    },
    /// Fires on flow attempts, optionally restricted to denied ones.
    OnFlowAttempt {
        /// Only fire for denied flows when `true`.
        denied_only: bool,
    },
    /// Fires when a component joins.
    OnComponentJoined,
    /// Fires when a component leaves.
    OnComponentLeft,
    /// Fires on the periodic tick.
    OnTick,
}

impl Trigger {
    /// Whether the trigger matches an event.
    pub fn matches(&self, event: &PolicyEvent) -> bool {
        match (self, event) {
            (Trigger::AnyEvent, _) => true,
            (Trigger::OnContextKey { key }, PolicyEvent::ContextChanged { key: changed }) => {
                key == changed
            }
            (
                Trigger::OnFlowAttempt { denied_only },
                PolicyEvent::FlowAttempted { allowed, .. },
            ) => !*denied_only || !*allowed,
            (Trigger::OnComponentJoined, PolicyEvent::ComponentJoined { .. }) => true,
            (Trigger::OnComponentLeft, PolicyEvent::ComponentLeft { .. }) => true,
            (Trigger::OnTick, PolicyEvent::Tick) => true,
            _ => false,
        }
    }
}

/// An Event–Condition–Action policy rule.
///
/// ```
/// use legaliot_policy::{PolicyRule, Condition, Action, PolicyPriority};
///
/// let rule = PolicyRule::builder("emergency-response", "hospital")
///     .on_context_key("patient.heart-rate")
///     .when(Condition::number_at_least("patient.heart-rate", 180.0))
///     .then(Action::Notify {
///         recipient: "emergency-doctor".into(),
///         message: "cardiac emergency".into(),
///     })
///     .priority(PolicyPriority::EMERGENCY)
///     .build();
/// assert_eq!(rule.actions.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRule {
    /// The rule's identifier.
    pub id: PolicyId,
    /// The authority (person, organisation, regulator) that defined the rule.
    pub authority: String,
    /// What triggers evaluation of the rule.
    pub trigger: Trigger,
    /// The condition over context that must hold for the rule to fire.
    pub condition: Condition,
    /// The actions taken when the rule fires.
    pub actions: Vec<Action>,
    /// Priority for conflict resolution.
    pub priority: PolicyPriority,
    /// Human-readable description (e.g. the legal obligation the rule encodes).
    pub description: String,
}

impl PolicyRule {
    /// Starts building a rule with the given id and authority.
    pub fn builder(id: impl Into<String>, authority: impl Into<String>) -> PolicyRuleBuilder {
        PolicyRuleBuilder {
            id: PolicyId::new(id),
            authority: authority.into(),
            trigger: Trigger::AnyEvent,
            condition: Condition::Always,
            actions: Vec::new(),
            priority: PolicyPriority::NORMAL,
            description: String::new(),
        }
    }

    /// Whether this rule should be evaluated for the given event.
    pub(crate) fn triggered_by(&self, event: &PolicyEvent) -> bool {
        self.trigger.matches(event)
    }
}

impl fmt::Display for PolicyRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] when {} then {} action(s)",
            self.id,
            self.authority,
            self.condition,
            self.actions.len()
        )
    }
}

/// Builder for [`PolicyRule`] (non-consuming terminal not needed; rules are cheap).
#[derive(Debug, Clone)]
pub struct PolicyRuleBuilder {
    id: PolicyId,
    authority: String,
    trigger: Trigger,
    condition: Condition,
    actions: Vec<Action>,
    priority: PolicyPriority,
    description: String,
}

impl PolicyRuleBuilder {
    /// Fire when the given context key changes.
    pub fn on_context_key(mut self, key: impl Into<String>) -> Self {
        self.trigger = Trigger::OnContextKey { key: key.into() };
        self
    }

    /// Fire on flow attempts (all of them, or only denied ones).
    pub fn on_flow_attempt(mut self, denied_only: bool) -> Self {
        self.trigger = Trigger::OnFlowAttempt { denied_only };
        self
    }

    /// Fire when a component joins the deployment.
    pub fn on_component_joined(mut self) -> Self {
        self.trigger = Trigger::OnComponentJoined;
        self
    }

    /// Fire when a component leaves the deployment.
    pub fn on_component_left(mut self) -> Self {
        self.trigger = Trigger::OnComponentLeft;
        self
    }

    /// Fire on the periodic tick.
    pub fn on_tick(mut self) -> Self {
        self.trigger = Trigger::OnTick;
        self
    }

    /// Fire on any event.
    pub fn on_any_event(mut self) -> Self {
        self.trigger = Trigger::AnyEvent;
        self
    }

    /// Sets the condition (replacing the default `Always`).
    pub fn when(mut self, condition: Condition) -> Self {
        self.condition = condition;
        self
    }

    /// Adds an action.
    pub fn then(mut self, action: Action) -> Self {
        self.actions.push(action);
        self
    }

    /// Sets the priority.
    pub fn priority(mut self, priority: PolicyPriority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the human-readable description.
    pub fn describe(mut self, description: impl Into<String>) -> Self {
        self.description = description.into();
        self
    }

    /// Finishes building the rule.
    pub fn build(self) -> PolicyRule {
        PolicyRule {
            id: self.id,
            authority: self.authority,
            trigger: self.trigger,
            condition: self.condition,
            actions: self.actions,
            priority: self.priority,
            description: self.description,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_setters() {
        let rule = PolicyRule::builder("r1", "hospital")
            .when(Condition::is_true("emergency.active"))
            .then(Action::Notify { recipient: "doctor".into(), message: "go".into() })
            .then(Action::Isolate { component: "rogue".into() })
            .priority(PolicyPriority::REGULATORY)
            .describe("emergency handling")
            .build();
        assert_eq!(rule.id, PolicyId::new("r1"));
        assert_eq!(rule.authority, "hospital");
        assert_eq!(rule.actions.len(), 2);
        assert_eq!(rule.priority, PolicyPriority::REGULATORY);
        assert!(rule.to_string().contains("r1"));
        assert_eq!(rule.description, "emergency handling");
    }

    #[test]
    fn priorities_order() {
        assert!(PolicyPriority::EMERGENCY > PolicyPriority::REGULATORY);
        assert!(PolicyPriority::REGULATORY > PolicyPriority::NORMAL);
        assert_eq!(PolicyPriority::default(), PolicyPriority::NORMAL);
    }

    #[test]
    fn trigger_matching() {
        let ctx_event = PolicyEvent::ContextChanged { key: "patient.hr".into() };
        let other_ctx = PolicyEvent::ContextChanged { key: "other".into() };
        let denied_flow =
            PolicyEvent::FlowAttempted { from: "a".into(), to: "b".into(), allowed: false };
        let allowed_flow =
            PolicyEvent::FlowAttempted { from: "a".into(), to: "b".into(), allowed: true };
        let joined = PolicyEvent::ComponentJoined { component: "c".into() };
        let left = PolicyEvent::ComponentLeft { component: "c".into() };

        assert!(Trigger::AnyEvent.matches(&ctx_event));
        assert!(Trigger::OnContextKey { key: "patient.hr".into() }.matches(&ctx_event));
        assert!(!Trigger::OnContextKey { key: "patient.hr".into() }.matches(&other_ctx));
        assert!(Trigger::OnFlowAttempt { denied_only: true }.matches(&denied_flow));
        assert!(!Trigger::OnFlowAttempt { denied_only: true }.matches(&allowed_flow));
        assert!(Trigger::OnFlowAttempt { denied_only: false }.matches(&allowed_flow));
        assert!(Trigger::OnComponentJoined.matches(&joined));
        assert!(!Trigger::OnComponentJoined.matches(&left));
        assert!(Trigger::OnComponentLeft.matches(&left));
        assert!(Trigger::OnTick.matches(&PolicyEvent::Tick));
        assert!(!Trigger::OnTick.matches(&joined));
    }

    #[test]
    fn rule_triggered_by_uses_trigger() {
        let rule = PolicyRule::builder("r", "a").on_tick().build();
        assert!(rule.triggered_by(&PolicyEvent::Tick));
        assert!(!rule.triggered_by(&PolicyEvent::ComponentJoined { component: "x".into() }));
    }

    #[test]
    fn event_class_and_display() {
        assert_eq!(PolicyEvent::Tick.class(), "tick");
        assert_eq!(PolicyEvent::ContextChanged { key: "k".into() }.class(), "context-changed");
        assert!(PolicyEvent::FlowAttempted { from: "a".into(), to: "b".into(), allowed: false }
            .to_string()
            .contains("denied"));
        assert!(PolicyEvent::ComponentJoined { component: "c".into() }.to_string().contains("c"));
        assert!(PolicyEvent::ComponentLeft { component: "c".into() }.to_string().contains("c"));
    }

    #[test]
    fn policy_id_conversions() {
        let id: PolicyId = "geo-fence".into();
        assert_eq!(id.as_str(), "geo-fence");
        assert_eq!(id.to_string(), "geo-fence");
    }
}
