//! The middleware's access-control regime.
//!
//! SBUS "has a general AC regime to govern interactions. This policy, encapsulating
//! attributes of principals and context, is enforced at the granularity of message type,
//! and can be reconfigured" (§8.1). Rules name a principal or a (parametrised) role, a
//! message type (or any), a direction, and an optional context condition; the regime is
//! consulted at channel establishment, on every message, and — crucially — when a
//! third-party reconfiguration control message arrives (Fig. 8).
//!
//! # Source rules and the compiled program
//!
//! Each component keeps its rules as they were added ([`AccessRule`], the source of
//! truth; an explicit denial reports a rule's index among them) and, beside them, a
//! compiled program: each rule as a small `Copy` record over interned names — its
//! subject (a principal, a role or anyone), its message type or any, its operation and
//! effect, whether it has a condition, and its source index. This is XEngine's move for
//! XACML (Liu et al., SIGMETRICS 2008): turn names into numbers once, then compare
//! integers.
//!
//! **What is interned.** The component, principal, role and message-type names of every
//! rule, and — by [`Condition`] itself — every context key a condition reads. All go
//! into the one process-wide table of [`legaliot_context::Name`], so an id means the
//! same in every regime and every snapshot. A component's own names are interned once,
//! when it is built ([`Party`]).
//!
//! **What an edit costs.** [`AccessRegime::add_rule`] interns one rule's names and
//! appends one record to one component's program. Rules are only ever appended, so
//! that append is the component's rebuild: no other component is touched, and nothing
//! is compiled later or marked stale.
//!
//! **What a question costs.** One evaluator runs over the guarded component's program:
//! the operation's denies in source order (the first that applies is the answer), then
//! its allows until one applies. Admission, the bus and the dataplane's shards ask with
//! the two components' parties ([`AccessRegime::decide_by_id`]): one probe of an
//! integer-keyed map, integer compares, and one snapshot read by key id per condition —
//! no string hashed or compared, nothing allocated. A question by name
//! ([`AccessRegime::decide`], as control steps ask it for an issuer) runs the same
//! evaluator, looking the component up in the name table first and the message type,
//! the principal and its roles only when a rule names one — interning nothing.
//!
//! **Why no answer is kept.** A decision depends on the rules, the context snapshot and
//! the time, and the last two move under every message. The regime holds the compiled
//! rules and nothing else, so an edit, a context write or a clock tick is in force for
//! the next question, with nothing to invalidate.

use std::fmt;

use legaliot_context::{ContextSnapshot, Name, NameMap, Timestamp};
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

/// A component's names as ids, interned once, when the component is built
/// ([`crate::Component::party`]): the component, whose rules guard it, and its
/// principal's name and roles, which rules name as subjects. A party is valid for any
/// regime, rules added after it was built included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Party {
    component: Name,
    principal: u32,
    roles: Box<[u32]>,
}

impl Party {
    /// Interns the component name `component` and `principal`'s name and roles.
    pub(crate) fn new(component: &str, principal: &Principal) -> Self {
        Party {
            component: Name::intern(component),
            principal: Name::intern(&principal.name).id(),
            roles: principal.roles.iter().map(|role| Name::intern(role).id()).collect(),
        }
    }

    /// The component's name: the one number the regime and the dataplane's directory
    /// both file the component under.
    pub fn component(&self) -> Name {
        self.component
    }
}

/// A rule's subject over interned names.
#[derive(Debug, Clone, Copy)]
enum Who {
    Principal(Name),
    Role(Name),
    Anyone,
}

/// One rule, compiled.
#[derive(Debug, Clone, Copy)]
struct Compiled {
    who: Who,
    /// `None` for any message type.
    message_type: Option<Name>,
    operation: Operation,
    allow: bool,
    /// Whether the rule's condition is anything but [`Condition::Always`].
    conditional: bool,
    /// The rule's index among the component's rules.
    source: u32,
}

/// A component's rules — the source — and their program: the same rules compiled,
/// index for index.
#[derive(Debug, Clone, Default)]
struct Guard {
    rules: Vec<AccessRule>,
    program: Vec<Compiled>,
}

impl Guard {
    /// Appends `rule` to the source and its compiled record to the program.
    fn add(&mut self, rule: AccessRule) {
        self.program.push(Compiled {
            who: match &rule.subject {
                Subject::Principal(name) => Who::Principal(Name::intern(name)),
                Subject::Role(role) => Who::Role(Name::intern(role)),
                Subject::Anyone => Who::Anyone,
            },
            message_type: rule.message_type.map(MessageType::name),
            operation: rule.operation,
            allow: rule.allow,
            conditional: rule.condition != Condition::Always,
            source: u32::try_from(self.rules.len()).expect("under 2^32 rules per component"),
        });
        self.rules.push(rule);
    }

    /// The one evaluator: the operation's denies in source order, the first that
    /// applies being the answer, then its allows until one applies. A subject is
    /// matched by id against the asker's principal (`None`: a name no rule holds) and
    /// role ids, each read only when a rule names one, and a typed rule against the
    /// message type's id.
    fn decide(
        &self,
        principal: impl Fn() -> Option<u32>,
        roles: impl Iterator<Item = u32> + Clone,
        operation: Operation,
        message_type: Option<Name>,
        snapshot: &ContextSnapshot,
        now: Timestamp,
    ) -> AccessDecision {
        let mut applies = |rule: &&Compiled| {
            let subject = match rule.who {
                Who::Principal(name) => principal() == Some(name.id()),
                Who::Role(role) => roles.clone().any(|id| id == role.id()),
                Who::Anyone => true,
            };
            subject
                && rule.message_type.map_or(true, |typed| message_type == Some(typed))
                && (!rule.conditional
                    || self.rules[rule.source as usize].condition.evaluate(snapshot, now))
        };
        let asked = |allow: bool| {
            self.program
                .iter()
                .filter(move |rule| rule.operation == operation && rule.allow == allow)
        };
        if let Some(deny) = asked(false).find(&mut applies) {
            let cause = DenialCause::ExplicitDeny { rule: deny.source as usize };
            return AccessDecision::Denied { cause };
        }
        if asked(true).any(|rule| applies(&rule)) {
            AccessDecision::Allowed
        } else {
            AccessDecision::Denied { cause: DenialCause::NoAllowRule }
        }
    }
}

/// The middleware's access-control regime: per-component rule lists, default-deny, with
/// explicit denies overriding allows, each component's list compiled as it is edited
/// (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct AccessRegime {
    /// The rules guarding each component (the one whose resources are accessed).
    guards: NameMap<u32, Guard>,
}

impl AccessRegime {
    /// Creates an empty (default-deny) regime.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule governing access to `component`, compiling it into that component's
    /// program: one rule's names interned, one record appended.
    pub fn add_rule(&mut self, component: impl AsRef<str>, rule: AccessRule) {
        self.guards.entry(Name::intern(component.as_ref()).id()).or_default().add(rule);
    }

    /// Number of rules across all components.
    pub fn rule_count(&self) -> usize {
        self.guards.values().map(|guard| guard.rules.len()).sum()
    }

    /// Decides whether `principal` may perform `operation` (optionally on
    /// `message_type`) against `component`, in the given context.
    ///
    /// Deny rules override allow rules; with no matching rule the default is deny.
    /// The component, the principal and its roles are looked up in the name table,
    /// interning nothing, the last two only when a rule names one; a name the process
    /// never interned is one no rule holds. A message type is its interned name.
    pub fn decide(
        &self,
        component: &str,
        principal: &Principal,
        operation: Operation,
        message_type: Option<&MessageType>,
        snapshot: &ContextSnapshot,
        now: Timestamp,
    ) -> AccessDecision {
        let Some(guard) = Name::lookup(component).and_then(|name| self.guards.get(&name.id()))
        else {
            return AccessDecision::Denied { cause: DenialCause::NoRules };
        };
        let message_type = message_type.copied().map(MessageType::name);
        let id = |name: &str| Name::lookup(name).map(Name::id);
        let roles = principal.roles.iter().filter_map(|role| id(role));
        guard.decide(|| id(&principal.name), roles, operation, message_type, snapshot, now)
    }

    /// [`Self::decide`] with the names already resolved: may `asker`'s principal
    /// perform `operation` against `guarded`'s component, on the message type named
    /// `message_type` (`None`: no type). The same evaluator and the same answers, with
    /// no string hashed, compared or allocated.
    pub fn decide_by_id(
        &self,
        guarded: &Party,
        asker: &Party,
        operation: Operation,
        message_type: Option<Name>,
        snapshot: &ContextSnapshot,
        now: Timestamp,
    ) -> AccessDecision {
        match self.guards.get(&guarded.component.id()) {
            Some(guard) => {
                let (principal, roles) = (|| Some(asker.principal), asker.roles.iter().copied());
                guard.decide(principal, roles, operation, message_type, snapshot, now)
            }
            None => AccessDecision::Denied { cause: DenialCause::NoRules },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legaliot_context::{ContextSnapshot, ContextValue};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};
    use std::sync::atomic::{AtomicU64, Ordering};

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

    /// The retired evaluator, kept as the compiled regime's oracle: a scan of
    /// name-keyed rule lists in source order, subjects and message types compared as
    /// strings, conditions read by key name from the snapshot's values.
    #[derive(Default)]
    struct Reference {
        components: HashMap<String, Vec<AccessRule>>,
    }

    impl Reference {
        fn add_rule(&mut self, component: &str, rule: AccessRule) {
            self.components.entry(component.to_string()).or_default().push(rule);
        }

        fn decide(
            &self,
            component: &str,
            principal: &Principal,
            operation: Operation,
            message_type: Option<&MessageType>,
            values: &BTreeMap<String, ContextValue>,
            now: Timestamp,
        ) -> AccessDecision {
            let Some(rules) = self.components.get(component) else {
                return AccessDecision::Denied { cause: DenialCause::NoRules };
            };
            let mut allowed = false;
            for (index, rule) in rules.iter().enumerate() {
                if reference_applies(rule, principal, operation, message_type, values, now) {
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

    fn reference_applies(
        rule: &AccessRule,
        principal: &Principal,
        operation: Operation,
        message_type: Option<&MessageType>,
        values: &BTreeMap<String, ContextValue>,
        now: Timestamp,
    ) -> bool {
        if rule.operation != operation {
            return false;
        }
        let subject_matches = match &rule.subject {
            Subject::Principal(name) => name == &principal.name,
            Subject::Role(role) => principal.roles.iter().any(|held| held == role),
            Subject::Anyone => true,
        };
        let type_matches = match (&rule.message_type, message_type) {
            (None, _) => true,
            (Some(required), Some(actual)) => required.as_str() == actual.as_str(),
            (Some(_), None) => false,
        };
        subject_matches && type_matches && reference_holds(&rule.condition, values, now)
    }

    /// [`Condition::evaluate`] as it was: every key read by its name.
    fn reference_holds(
        condition: &Condition,
        values: &BTreeMap<String, ContextValue>,
        now: Timestamp,
    ) -> bool {
        let read = |key: &legaliot_context::ContextKey| values.get(key.name());
        let number = |key| read(key).and_then(ContextValue::as_number);
        match condition {
            Condition::Always => true,
            Condition::Never => false,
            Condition::IsTrue { key } => read(key).and_then(ContextValue::as_bool) == Some(true),
            Condition::IsFalse { key } => read(key).and_then(ContextValue::as_bool) != Some(true),
            Condition::TextEquals { key, value } => {
                read(key).and_then(ContextValue::as_text) == Some(value.as_str())
            }
            Condition::NumberAtLeast { key, threshold } => {
                number(key).is_some_and(|n| n >= *threshold)
            }
            Condition::NumberBelow { key, threshold } => {
                number(key).is_some_and(|n| n < *threshold)
            }
            Condition::WithinTime { start_millis, end_millis } => {
                (*start_millis..*end_millis).contains(&now.as_millis())
            }
            Condition::Not(inner) => !reference_holds(inner, values, now),
            Condition::All(all) => all.iter().all(|c| reference_holds(c, values, now)),
            Condition::Any(any) => any.iter().any(|c| reference_holds(c, values, now)),
        }
    }

    /// A case's choices, drawn one at a time from a list of random numbers (zeros once
    /// it runs out).
    struct Draws<'a>(std::slice::Iter<'a, u32>);

    impl Draws<'_> {
        fn pick(&mut self, choices: usize) -> usize {
            self.0.next().map_or(0, |draw| *draw as usize % choices)
        }

        fn one_of<'t, T>(&mut self, choices: &'t [T]) -> &'t T {
            &choices[self.pick(choices.len())]
        }
    }

    /// Principal and role names come from one pool, so a name can be a principal's in
    /// one rule and a role in another.
    const PEOPLE: [&str; 4] = ["acl-eq.ann", "acl-eq.bob", "acl-eq.nurse(ward-3)", "acl-eq.carer"];
    const COMPONENTS: [&str; 3] = ["acl-eq.sensor", "acl-eq.analyser", "acl-eq.hub"];
    const TYPES: [&str; 2] = ["acl-eq.reading", "acl-eq.command"];
    const KEYS: [&str; 3] = ["acl-eq.flag", "acl-eq.level", "acl-eq.mode"];
    const OPERATIONS: [Operation; 3] =
        [Operation::Send, Operation::Receive, Operation::Reconfigure];
    const MILLIS: [u64; 4] = [0, 100, 150, 200];

    /// A name no other call ever made: the process has not interned it.
    fn fresh(prefix: &str) -> String {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        format!("acl-eq.{prefix}-{}", NEXT.fetch_add(1, Ordering::Relaxed))
    }

    fn draw_condition(draws: &mut Draws<'_>, depth: usize) -> Condition {
        let key = |draws: &mut Draws<'_>| *draws.one_of(&KEYS);
        let threshold = |draws: &mut Draws<'_>| *draws.one_of(&[-1.0, 0.0, 5.0, 10.5]);
        let leaves = 8;
        match draws.pick(if depth == 0 { leaves } else { leaves + 3 }) {
            0 => Condition::Always,
            1 => Condition::Never,
            2 => Condition::is_true(key(draws)),
            3 => Condition::is_false(key(draws)),
            4 => Condition::TextEquals {
                key: key(draws).into(),
                value: draws.one_of(&["on", "off"]).to_string(),
            },
            5 => Condition::NumberAtLeast { key: key(draws).into(), threshold: threshold(draws) },
            6 => Condition::number_below(key(draws), threshold(draws)),
            7 => Condition::within_time(*draws.one_of(&MILLIS), *draws.one_of(&MILLIS)),
            8 => Condition::Not(Box::new(draw_condition(draws, depth - 1))),
            branch => {
                let children = (0..draws.pick(3)).map(|_| draw_condition(draws, depth - 1));
                if branch == 9 {
                    Condition::All(children.collect())
                } else {
                    Condition::Any(children.collect())
                }
            }
        }
    }

    fn draw_rule(draws: &mut Draws<'_>) -> AccessRule {
        let subject = match draws.pick(3) {
            0 => Subject::Principal(draws.one_of(&PEOPLE).to_string()),
            1 => Subject::Role(draws.one_of(&PEOPLE).to_string()),
            _ => Subject::Anyone,
        };
        let operation = *draws.one_of(&OPERATIONS);
        let message_type = match draws.pick(3) {
            0 => None,
            typed => Some(MessageType::new(TYPES[typed - 1])),
        };
        let condition =
            if draws.pick(4) == 0 { Condition::Always } else { draw_condition(draws, 3) };
        let rule = if draws.pick(3) == 0 {
            AccessRule::deny(subject, operation, message_type)
        } else {
            AccessRule::allow(subject, operation, message_type)
        };
        rule.when(condition)
    }

    fn draw_principal(draws: &mut Draws<'_>) -> Principal {
        let name =
            if draws.pick(5) == 0 { fresh("stranger") } else { draws.one_of(&PEOPLE).to_string() };
        let mut principal = Principal::new(name);
        for role in PEOPLE {
            if draws.pick(3) == 0 {
                principal = principal.with_role(role);
            }
        }
        principal
    }

    /// Values for the keys: absent, or a value of any kind — the wrongly typed ones
    /// included.
    fn draw_values(draws: &mut Draws<'_>) -> BTreeMap<String, ContextValue> {
        let mut values = BTreeMap::new();
        for key in KEYS {
            let value = match draws.pick(7) {
                0 => continue,
                1 => ContextValue::Bool(false),
                2 => ContextValue::Bool(true),
                3 => ContextValue::Integer(*draws.one_of(&[-3, 0, 5, 12])),
                4 => ContextValue::Float(*draws.one_of(&[-0.5, 5.0, 10.5])),
                5 => ContextValue::Text(draws.one_of(&["on", "off"]).to_string()),
                _ => ContextValue::Timestamp(*draws.one_of(&MILLIS)),
            };
            values.insert(key.to_string(), value);
        }
        values
    }

    /// Asks every question of a round both ways and checks the answers against the
    /// oracle's.
    fn ask_round(
        draws: &mut Draws<'_>,
        regime: &AccessRegime,
        reference: &Reference,
        askers: &[(Principal, Party)],
        guarded: &[Party],
    ) -> Result<(), TestCaseError> {
        for _ in 0..8 {
            let component = draws.pick(COMPONENTS.len());
            let (principal, asker) = draws.one_of(askers);
            let operation = *draws.one_of(&OPERATIONS);
            let message_type = match draws.pick(TYPES.len() + 2) {
                0 => None,
                1 => Some(MessageType::new(fresh("unruled-type"))),
                typed => Some(MessageType::new(TYPES[typed - 2])),
            };
            let values = draw_values(draws);
            let snapshot =
                ContextSnapshot::from_pairs(values.iter().map(|(k, v)| (k.as_str(), v.clone())));
            let now = Timestamp(*draws.one_of(&MILLIS) + draws.pick(2) as u64);
            let name = COMPONENTS[component];
            let expected =
                reference.decide(name, principal, operation, message_type.as_ref(), &values, now);
            let by_name =
                regime.decide(name, principal, operation, message_type.as_ref(), &snapshot, now);
            let type_name = message_type.map(MessageType::name);
            let by_id = regime.decide_by_id(
                &guarded[component],
                asker,
                operation,
                type_name,
                &snapshot,
                now,
            );
            let question =
                format!("{principal} {operation} {message_type:?} on {name} at {now}, {values:?}");
            prop_assert!(
                by_name == expected,
                "name path: {by_name:?}, not {expected:?}: {question}"
            );
            prop_assert!(by_id == expected, "id path: {by_id:?}, not {expected:?}: {question}");
        }
        Ok(())
    }

    /// Up to six rules, each added to both regimes.
    fn add_rules(draws: &mut Draws<'_>, regime: &mut AccessRegime, reference: &mut Reference) {
        for _ in 0..draws.pick(7) {
            let component = *draws.one_of(&COMPONENTS);
            let rule = draw_rule(draws);
            reference.add_rule(component, rule.clone());
            regime.add_rule(component, rule);
        }
    }

    proptest! {
        /// The compiled regime answers as the retired string scan did — the same
        /// decision, an explicit deny's source index and `NoRules` against
        /// `NoAllowRule` included — by name and by id, whether the parties were
        /// resolved before the rules they meet were added or after.
        #[test]
        fn prop_the_compiled_regime_answers_as_the_string_scan(
            numbers in proptest::collection::vec(0u32..u32::MAX, 1200)
        ) {
            let mut draws = Draws(numbers.iter());
            let (mut regime, mut reference) = (AccessRegime::new(), Reference::default());
            add_rules(&mut draws, &mut regime, &mut reference);
            // Resolved now, as a component's are when it is built: some rules exist
            // already, more follow.
            let askers: Vec<(Principal, Party)> = (0..3)
                .map(|_| draw_principal(&mut draws))
                .map(|principal| {
                    let party = Party::new(&fresh("endpoint"), &principal);
                    (principal, party)
                })
                .collect();
            let owner = Principal::new("acl-eq.owner");
            let guarded: Vec<Party> =
                COMPONENTS.iter().map(|name| Party::new(name, &owner)).collect();
            ask_round(&mut draws, &regime, &reference, &askers, &guarded)?;
            add_rules(&mut draws, &mut regime, &mut reference);
            ask_round(&mut draws, &regime, &reference, &askers, &guarded)?;
            add_rules(&mut draws, &mut regime, &mut reference);
            ask_round(&mut draws, &regime, &reference, &askers, &guarded)?;
            prop_assert_eq!(regime.rule_count(), reference.components.values().map(Vec::len).sum::<usize>());
        }
    }
}
