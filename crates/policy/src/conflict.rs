//! Policy conflict detection and resolution (Challenge 4: "Authority and conflict").
//!
//! "Federation means that policy will conflict … Work is certainly required on policy
//! conflict resolution, e.g. standardisation, authoring interfaces and/or mechanisms for
//! runtime negotiation and resolution." This module implements the runtime-resolution
//! half for the reproduction: detecting when the commands produced by simultaneously
//! firing rules contradict each other, and resolving the contradiction under a chosen
//! strategy.
//!
//! Two commands conflict when they target the same component (or the same `from → to`
//! pair) and prescribe incompatible outcomes: connect vs disconnect/isolate, isolate vs
//! deisolate, allow vs deny of the same flow, adding vs removing the same tag, granting
//! vs revoking the same privilege, or two different actuation commands for the same
//! device.

use std::fmt;

use crate::action::{Action, ReconfigurationCommand};
use crate::eca::{PolicyPriority, PolicyRule};

/// How conflicts between simultaneously issued commands are resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolutionStrategy {
    /// Higher-priority rule wins; ties resolved by preferring the restrictive command.
    PriorityThenDenyOverrides,
    /// The restrictive (deny/disconnect/isolate/revoke/remove-privilege) command wins
    /// regardless of priority.
    DenyOverrides,
    /// The permissive command wins (used in break-glass situations where availability
    /// trumps confidentiality).
    PermitOverrides,
    /// Keep the command from the rule listed first (deterministic but arbitrary); the
    /// baseline the paper warns against, retained for the E15 ablation.
    FirstApplicable,
}

impl fmt::Display for ResolutionStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResolutionStrategy::PriorityThenDenyOverrides => "priority-then-deny-overrides",
            ResolutionStrategy::DenyOverrides => "deny-overrides",
            ResolutionStrategy::PermitOverrides => "permit-overrides",
            ResolutionStrategy::FirstApplicable => "first-applicable",
        };
        f.write_str(s)
    }
}

/// A detected conflict between two commands.
#[derive(Debug, Clone, PartialEq)]
pub struct ConflictReport {
    /// Index (in the submitted command list) of the command that was kept.
    pub kept: usize,
    /// Index of the command that was dropped.
    pub dropped: usize,
    /// Why the pair was considered conflicting.
    pub reason: String,
}

/// Detects and resolves conflicts among the commands of one evaluation round.
#[derive(Debug, Clone)]
pub struct ConflictResolver {
    strategy: ResolutionStrategy,
}

/// Whether an action is "restrictive" for deny/permit-overrides purposes.
fn is_restrictive(action: &Action) -> bool {
    matches!(
        action,
        Action::DenyFlow { .. }
            | Action::Disconnect { .. }
            | Action::Isolate { .. }
            | Action::RevokePrivilege { .. }
            | Action::RemoveTag { .. }
    )
}

/// The "subject" two actions must share to be in conflict, if any.
fn conflict_subject(a: &Action, b: &Action) -> Option<String> {
    use Action::*;
    let pair_key = |from: &str, to: &str| format!("{from}->{to}");
    match (a, b) {
        (AllowFlow { from: f1, to: t1 }, DenyFlow { from: f2, to: t2 })
        | (DenyFlow { from: f1, to: t1 }, AllowFlow { from: f2, to: t2 })
            if f1 == f2 && t1 == t2 =>
        {
            Some(pair_key(f1, t1))
        }
        (Connect { from: f1, to: t1 }, Disconnect { from: f2, to: t2 })
        | (Disconnect { from: f1, to: t1 }, Connect { from: f2, to: t2 })
            if f1 == f2 && t1 == t2 =>
        {
            Some(pair_key(f1, t1))
        }
        (Isolate { component: c1 }, Deisolate { component: c2 })
        | (Deisolate { component: c1 }, Isolate { component: c2 })
            if c1 == c2 =>
        {
            Some(c1.clone())
        }
        (Connect { from, to }, Isolate { component })
        | (Isolate { component }, Connect { from, to })
            if component == from || component == to =>
        {
            Some(component.clone())
        }
        (
            AddTag { component: c1, tag: t1, secrecy: s1 },
            RemoveTag { component: c2, tag: t2, secrecy: s2 },
        )
        | (
            RemoveTag { component: c1, tag: t1, secrecy: s1 },
            AddTag { component: c2, tag: t2, secrecy: s2 },
        ) if c1 == c2 && t1 == t2 && s1 == s2 => Some(format!("{c1}:{t1}")),
        (
            GrantPrivilege { component: c1, privilege: p1 },
            RevokePrivilege { component: c2, privilege: p2 },
        )
        | (
            RevokePrivilege { component: c1, privilege: p1 },
            GrantPrivilege { component: c2, privilege: p2 },
        ) if c1 == c2 && p1 == p2 => Some(format!("{c1}:{p1}")),
        (Actuate { component: c1, command: k1 }, Actuate { component: c2, command: k2 })
            if c1 == c2 && k1 != k2 =>
        {
            Some(c1.clone())
        }
        _ => None,
    }
}

impl ConflictResolver {
    /// Creates a resolver with the given strategy.
    pub fn new(strategy: ResolutionStrategy) -> Self {
        ConflictResolver { strategy }
    }

    /// Detects conflicting pairs among `commands` without resolving them.
    pub fn detect(&self, commands: &[ReconfigurationCommand]) -> Vec<(usize, usize, String)> {
        let mut conflicts = Vec::new();
        for i in 0..commands.len() {
            for j in (i + 1)..commands.len() {
                if let Some(subject) = conflict_subject(&commands[i].action, &commands[j].action) {
                    conflicts.push((i, j, subject));
                }
            }
        }
        conflicts
    }

    fn priority_of(rules: &[&PolicyRule], command: &ReconfigurationCommand) -> PolicyPriority {
        rules
            .iter()
            .find(|r| r.id.as_str() == command.issued_by_policy)
            .map(|r| r.priority)
            .unwrap_or_default()
    }

    /// Resolves conflicts among `commands`, returning the surviving commands in their
    /// original order. `rules` supplies the priorities of the rules that produced them.
    pub fn resolve(
        &self,
        rules: &[&PolicyRule],
        commands: Vec<ReconfigurationCommand>,
    ) -> Vec<ReconfigurationCommand> {
        let conflicts = self.detect(&commands);
        if conflicts.is_empty() {
            return commands;
        }
        let mut dropped = vec![false; commands.len()];
        for (i, j, _subject) in conflicts {
            if dropped[i] || dropped[j] {
                continue;
            }
            let loser = match self.strategy {
                ResolutionStrategy::FirstApplicable => j,
                ResolutionStrategy::DenyOverrides => {
                    if is_restrictive(&commands[i].action) {
                        j
                    } else if is_restrictive(&commands[j].action) {
                        i
                    } else {
                        j
                    }
                }
                ResolutionStrategy::PermitOverrides => {
                    // The permissive command wins; with two permissive
                    // commands, the earlier one is kept.
                    if is_restrictive(&commands[i].action) {
                        i
                    } else {
                        j
                    }
                }
                ResolutionStrategy::PriorityThenDenyOverrides => {
                    let pi = Self::priority_of(rules, &commands[i]);
                    let pj = Self::priority_of(rules, &commands[j]);
                    if pi > pj {
                        j
                    } else if pj > pi {
                        i
                    } else if is_restrictive(&commands[i].action) {
                        j
                    } else if is_restrictive(&commands[j].action) {
                        i
                    } else {
                        j
                    }
                }
            };
            dropped[loser] = true;
        }
        commands.into_iter().enumerate().filter(|(idx, _)| !dropped[*idx]).map(|(_, c)| c).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use crate::eca::PolicyRule;
    use legaliot_ifc::{Privilege, PrivilegeKind, Tag};

    fn cmd(policy: &str, action: Action) -> ReconfigurationCommand {
        ReconfigurationCommand::new(policy, "authority", action, 0)
    }

    fn rule(id: &str, priority: PolicyPriority) -> PolicyRule {
        PolicyRule::builder(id, "auth").when(Condition::Always).priority(priority).build()
    }

    #[test]
    fn detects_connect_disconnect_conflict() {
        let resolver = ConflictResolver::new(ResolutionStrategy::DenyOverrides);
        let commands = vec![
            cmd("p1", Action::Connect { from: "a".into(), to: "b".into() }),
            cmd("p2", Action::Disconnect { from: "a".into(), to: "b".into() }),
            cmd("p3", Action::Connect { from: "a".into(), to: "c".into() }),
        ];
        let conflicts = resolver.detect(&commands);
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].0, 0);
        assert_eq!(conflicts[0].1, 1);
    }

    #[test]
    fn deny_overrides_keeps_restrictive_command() {
        let resolver = ConflictResolver::new(ResolutionStrategy::DenyOverrides);
        let commands = vec![
            cmd("p1", Action::AllowFlow { from: "a".into(), to: "b".into() }),
            cmd("p2", Action::DenyFlow { from: "a".into(), to: "b".into() }),
        ];
        let rules = [rule("p1", PolicyPriority::NORMAL), rule("p2", PolicyPriority::NORMAL)];
        let rule_refs: Vec<&PolicyRule> = rules.iter().collect();
        let out = resolver.resolve(&rule_refs, commands);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].action, Action::DenyFlow { .. }));
    }

    #[test]
    fn permit_overrides_keeps_permissive_command() {
        let resolver = ConflictResolver::new(ResolutionStrategy::PermitOverrides);
        let commands = vec![
            cmd("p1", Action::AllowFlow { from: "a".into(), to: "b".into() }),
            cmd("p2", Action::DenyFlow { from: "a".into(), to: "b".into() }),
        ];
        let rules = [rule("p1", PolicyPriority::NORMAL), rule("p2", PolicyPriority::NORMAL)];
        let rule_refs: Vec<&PolicyRule> = rules.iter().collect();
        let out = resolver.resolve(&rule_refs, commands);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].action, Action::AllowFlow { .. }));
    }

    #[test]
    fn priority_wins_over_restrictiveness() {
        let resolver = ConflictResolver::new(ResolutionStrategy::PriorityThenDenyOverrides);
        // The emergency (high-priority) rule wants to connect; a normal rule wants to
        // isolate the same component. Priority must win: break-glass connectivity.
        let commands = vec![
            cmd("emergency", Action::Connect { from: "analyser".into(), to: "doctor".into() }),
            cmd("lockdown", Action::Isolate { component: "analyser".into() }),
        ];
        let rules = [
            rule("emergency", PolicyPriority::EMERGENCY),
            rule("lockdown", PolicyPriority::NORMAL),
        ];
        let rule_refs: Vec<&PolicyRule> = rules.iter().collect();
        let out = resolver.resolve(&rule_refs, commands);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].action, Action::Connect { .. }));
    }

    #[test]
    fn equal_priority_falls_back_to_deny_overrides() {
        let resolver = ConflictResolver::new(ResolutionStrategy::PriorityThenDenyOverrides);
        let commands = vec![
            cmd("p1", Action::Connect { from: "a".into(), to: "b".into() }),
            cmd("p2", Action::Disconnect { from: "a".into(), to: "b".into() }),
        ];
        let rules = [rule("p1", PolicyPriority::NORMAL), rule("p2", PolicyPriority::NORMAL)];
        let rule_refs: Vec<&PolicyRule> = rules.iter().collect();
        let out = resolver.resolve(&rule_refs, commands);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].action, Action::Disconnect { .. }));
    }

    #[test]
    fn tag_and_privilege_conflicts() {
        let resolver = ConflictResolver::new(ResolutionStrategy::DenyOverrides);
        let commands = vec![
            cmd(
                "p1",
                Action::AddTag { component: "c".into(), tag: Tag::new("medical"), secrecy: true },
            ),
            cmd(
                "p2",
                Action::RemoveTag {
                    component: "c".into(),
                    tag: Tag::new("medical"),
                    secrecy: true,
                },
            ),
            cmd(
                "p3",
                Action::GrantPrivilege {
                    component: "c".into(),
                    privilege: Privilege::new("medical", PrivilegeKind::SecrecyRemove),
                },
            ),
            cmd(
                "p4",
                Action::RevokePrivilege {
                    component: "c".into(),
                    privilege: Privilege::new("medical", PrivilegeKind::SecrecyRemove),
                },
            ),
        ];
        assert_eq!(resolver.detect(&commands).len(), 2);
        let rules: Vec<PolicyRule> =
            ["p1", "p2", "p3", "p4"].iter().map(|id| rule(id, PolicyPriority::NORMAL)).collect();
        let rule_refs: Vec<&PolicyRule> = rules.iter().collect();
        let out = resolver.resolve(&rule_refs, commands);
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0].action, Action::RemoveTag { .. }));
        assert!(matches!(out[1].action, Action::RevokePrivilege { .. }));
    }

    #[test]
    fn differing_actuations_conflict_but_same_do_not() {
        let resolver = ConflictResolver::new(ResolutionStrategy::FirstApplicable);
        let conflicting = vec![
            cmd("p1", Action::Actuate { component: "sensor".into(), command: "1s".into() }),
            cmd("p2", Action::Actuate { component: "sensor".into(), command: "60s".into() }),
        ];
        assert_eq!(resolver.detect(&conflicting).len(), 1);
        let same = vec![
            cmd("p1", Action::Actuate { component: "sensor".into(), command: "1s".into() }),
            cmd("p2", Action::Actuate { component: "sensor".into(), command: "1s".into() }),
        ];
        assert!(resolver.detect(&same).is_empty());
        // FirstApplicable keeps the first command.
        let rules = [rule("p1", PolicyPriority::NORMAL), rule("p2", PolicyPriority::NORMAL)];
        let rule_refs: Vec<&PolicyRule> = rules.iter().collect();
        let out = resolver.resolve(&rule_refs, conflicting);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].issued_by_policy, "p1");
    }

    #[test]
    fn non_conflicting_commands_pass_through() {
        let resolver = ConflictResolver::new(ResolutionStrategy::PriorityThenDenyOverrides);
        let commands = vec![
            cmd("p1", Action::Connect { from: "a".into(), to: "b".into() }),
            cmd("p2", Action::Notify { recipient: "doctor".into(), message: "hi".into() }),
        ];
        let out = resolver.resolve(&[], commands.clone());
        assert_eq!(out, commands);
    }

    #[test]
    fn isolate_conflicts_with_connect_to_or_from() {
        let resolver = ConflictResolver::new(ResolutionStrategy::DenyOverrides);
        let commands = vec![
            cmd("p1", Action::Connect { from: "x".into(), to: "victim".into() }),
            cmd("p2", Action::Isolate { component: "victim".into() }),
        ];
        let rules = [rule("p1", PolicyPriority::NORMAL), rule("p2", PolicyPriority::NORMAL)];
        let rule_refs: Vec<&PolicyRule> = rules.iter().collect();
        let out = resolver.resolve(&rule_refs, commands);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].action, Action::Isolate { .. }));
    }

    #[test]
    fn isolate_and_deisolate_of_one_component_conflict() {
        let resolver = ConflictResolver::new(ResolutionStrategy::DenyOverrides);
        let commands = vec![
            cmd("p1", Action::Deisolate { component: "victim".into() }),
            cmd("p2", Action::Isolate { component: "other".into() }),
            cmd("p3", Action::Isolate { component: "victim".into() }),
        ];
        assert_eq!(resolver.detect(&commands), vec![(0, 2, "victim".to_string())]);
        // `Deisolate` is not restrictive: deny-overrides keeps the isolation.
        let rules: Vec<PolicyRule> =
            ["p1", "p2", "p3"].iter().map(|id| rule(id, PolicyPriority::NORMAL)).collect();
        let rule_refs: Vec<&PolicyRule> = rules.iter().collect();
        let out = resolver.resolve(&rule_refs, commands);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|c| matches!(c.action, Action::Isolate { .. })));
    }

    #[test]
    fn strategy_display() {
        assert_eq!(
            ResolutionStrategy::PriorityThenDenyOverrides.to_string(),
            "priority-then-deny-overrides"
        );
        assert_eq!(ResolutionStrategy::DenyOverrides.to_string(), "deny-overrides");
        assert_eq!(ResolutionStrategy::PermitOverrides.to_string(), "permit-overrides");
        assert_eq!(ResolutionStrategy::FirstApplicable.to_string(), "first-applicable");
    }
}
