//! The policy engine.
//!
//! "We envisage policy engines, entities that encapsulate a range of related policies,
//! monitor environments and use the MW's remote-reconfiguration functionality to issue
//! instructions to components, when/where necessary, to ensure system behaviour remains
//! appropriate over time" (§8.1). The engine here holds a rule set, is fed events (and a
//! context snapshot), and returns the reconfiguration commands to apply. Applying the
//! commands is the middleware's job (`legaliot-middleware`), which keeps the engine
//! purely functional and easy to test and benchmark (experiment E7/E15).

use std::collections::BTreeMap;

use legaliot_context::{ContextSnapshot, Timestamp};

use crate::action::ReconfigurationCommand;
use crate::conflict::{ConflictResolver, ResolutionStrategy};
use crate::eca::{PolicyEvent, PolicyId, PolicyRule};

/// The result of evaluating one event against the engine's rule set.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOutcome {
    /// The rules whose trigger matched and condition held.
    pub fired: Vec<PolicyId>,
    /// The rules whose trigger matched but condition did not hold.
    pub suppressed: Vec<PolicyId>,
    /// The reconfiguration commands to apply, after conflict resolution.
    pub commands: Vec<ReconfigurationCommand>,
    /// Whether conflict resolution removed any commands.
    pub conflicts_resolved: usize,
}

/// A policy engine holding a set of rules for one administrative authority (or a
/// federation of them, with conflicts resolved by the configured strategy).
#[derive(Debug, Clone)]
pub struct PolicyEngine {
    name: String,
    rules: BTreeMap<PolicyId, PolicyRule>,
    resolver: ConflictResolver,
}

impl PolicyEngine {
    /// Creates an engine with the default (priority, then deny-overrides) resolution.
    pub fn new(name: impl Into<String>) -> Self {
        PolicyEngine {
            name: name.into(),
            rules: BTreeMap::new(),
            resolver: ConflictResolver::new(ResolutionStrategy::PriorityThenDenyOverrides),
        }
    }

    /// Creates an engine with an explicit conflict-resolution strategy.
    pub fn with_strategy(name: impl Into<String>, strategy: ResolutionStrategy) -> Self {
        PolicyEngine {
            name: name.into(),
            rules: BTreeMap::new(),
            resolver: ConflictResolver::new(strategy),
        }
    }

    /// The engine's name (used as the issuing authority on commands it produces when a
    /// rule does not carry its own authority).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds (or replaces) a rule. Returns the previous rule with the same id, if any.
    pub fn add_rule(&mut self, rule: PolicyRule) -> Option<PolicyRule> {
        self.rules.insert(rule.id.clone(), rule)
    }

    /// The number of rules held.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Looks up a rule.
    pub fn rule(&self, id: &PolicyId) -> Option<&PolicyRule> {
        self.rules.get(id)
    }

    /// Iterates over all rules.
    pub fn rules(&self) -> impl Iterator<Item = &PolicyRule> + '_ {
        self.rules.values()
    }

    /// Evaluates an event against the rule set under the given context snapshot.
    ///
    /// Rules whose trigger matches the event have their condition evaluated; the actions
    /// of all firing rules are expanded into commands, then passed through conflict
    /// resolution.
    pub fn evaluate(
        &self,
        event: &PolicyEvent,
        snapshot: &ContextSnapshot,
        now: Timestamp,
    ) -> EngineOutcome {
        let mut fired = Vec::new();
        let mut suppressed = Vec::new();
        let mut firing_rules: Vec<&PolicyRule> = Vec::new();
        for rule in self.rules.values() {
            if !rule.triggered_by(event) {
                continue;
            }
            if rule.condition.evaluate(snapshot, now) {
                fired.push(rule.id.clone());
                firing_rules.push(rule);
            } else {
                suppressed.push(rule.id.clone());
            }
        }

        let raw_commands: Vec<ReconfigurationCommand> = firing_rules
            .iter()
            .flat_map(|rule| {
                rule.actions.iter().map(|action| {
                    ReconfigurationCommand::new(
                        rule.id.as_str(),
                        rule.authority.clone(),
                        action.clone(),
                        now.as_millis(),
                    )
                })
            })
            .collect();

        let before = raw_commands.len();
        let commands = self.resolver.resolve(&firing_rules, raw_commands);
        let conflicts_resolved = before - commands.len();

        EngineOutcome { fired, suppressed, commands, conflicts_resolved }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::condition::Condition;
    use crate::eca::PolicyPriority;
    use legaliot_context::ContextSnapshot;

    fn emergency_rule() -> PolicyRule {
        PolicyRule::builder("emergency-response", "hospital")
            .on_context_key("patient.heart-rate")
            .when(Condition::NumberAtLeast { key: "patient.heart-rate".into(), threshold: 180.0 })
            .then(Action::Notify {
                recipient: "emergency-doctor".into(),
                message: "cardiac emergency".into(),
            })
            .then(Action::Actuate {
                component: "ann-sensor".into(),
                command: "sample-interval=1s".into(),
            })
            .then(Action::Connect { from: "ann-analyser".into(), to: "emergency-doctor".into() })
            .priority(PolicyPriority::EMERGENCY)
            .build()
    }

    fn quiet_rule() -> PolicyRule {
        PolicyRule::builder("night-quiet", "ann")
            .on_context_key("patient.heart-rate")
            .when(Condition::number_below("patient.heart-rate", 100.0))
            .then(Action::Actuate {
                component: "ann-sensor".into(),
                command: "sample-interval=60s".into(),
            })
            .build()
    }

    #[test]
    fn rules_fire_when_triggered_and_condition_holds() {
        let mut engine = PolicyEngine::new("hospital-engine");
        engine.add_rule(emergency_rule());
        engine.add_rule(quiet_rule());
        assert_eq!(engine.rule_count(), 2);

        let snap = ContextSnapshot::from_pairs([("patient.heart-rate", 190i64)]);
        let event = PolicyEvent::ContextChanged { key: "patient.heart-rate".into() };
        let outcome = engine.evaluate(&event, &snap, Timestamp(5));
        assert_eq!(outcome.fired, vec![PolicyId::new("emergency-response")]);
        assert_eq!(outcome.suppressed, vec![PolicyId::new("night-quiet")]);
        assert_eq!(outcome.commands.len(), 3);
        assert!(!outcome.fired.is_empty());
        assert!(outcome.commands.iter().all(|c| c.issued_by_policy == "emergency-response"));
        assert!(outcome.commands.iter().all(|c| c.issued_at_millis == 5));
    }

    #[test]
    fn unrelated_events_do_not_trigger() {
        let mut engine = PolicyEngine::new("e");
        engine.add_rule(emergency_rule());
        let snap = ContextSnapshot::from_pairs([("patient.heart-rate", 190i64)]);
        let event = PolicyEvent::ContextChanged { key: "unrelated.key".into() };
        let outcome = engine.evaluate(&event, &snap, Timestamp::ZERO);
        assert!(outcome.fired.is_empty());
        assert!(outcome.commands.is_empty());
        assert!(outcome.suppressed.is_empty());
    }

    #[test]
    fn add_replace_and_lookup_rules() {
        let mut engine = PolicyEngine::new("e");
        assert!(engine.add_rule(quiet_rule()).is_none());
        // Replacing returns the old rule.
        assert!(engine.add_rule(quiet_rule()).is_some());
        assert!(engine.rule(&PolicyId::new("night-quiet")).is_some());
        assert_eq!(engine.rules().count(), 1);
        assert_eq!(engine.rule_count(), 1);
        assert_eq!(engine.name(), "e");
    }

    #[test]
    fn conflicting_actuations_resolved_by_priority() {
        // Both rules target the same sensor with different sampling commands; the
        // emergency rule has higher priority and must win.
        let mut engine = PolicyEngine::new("e");
        engine.add_rule(emergency_rule());
        // Make the quiet rule also fire by widening its condition.
        let mut contradictory = quiet_rule();
        contradictory.condition = Condition::Always;
        engine.add_rule(contradictory);

        let snap = ContextSnapshot::from_pairs([("patient.heart-rate", 200i64)]);
        let event = PolicyEvent::ContextChanged { key: "patient.heart-rate".into() };
        let outcome = engine.evaluate(&event, &snap, Timestamp::ZERO);
        assert_eq!(outcome.fired.len(), 2);
        assert!(outcome.conflicts_resolved >= 1);
        let actuations: Vec<&ReconfigurationCommand> = outcome
            .commands
            .iter()
            .filter(|c| matches!(c.action, Action::Actuate { .. }))
            .collect();
        assert_eq!(actuations.len(), 1);
        assert_eq!(actuations[0].issued_by_policy, "emergency-response");
    }

    #[test]
    fn tick_rules_fire_on_tick() {
        let mut engine = PolicyEngine::new("e");
        engine.add_rule(
            PolicyRule::builder("audit-heartbeat", "operator")
                .on_tick()
                .then(Action::Notify { recipient: "auditor".into(), message: "alive".into() })
                .build(),
        );
        let outcome =
            engine.evaluate(&PolicyEvent::Tick, &ContextSnapshot::default(), Timestamp::ZERO);
        assert_eq!(outcome.fired.len(), 1);
        assert_eq!(outcome.commands.len(), 1);
    }
}
