//! The LSM-style hook layer: every kernel-mediated flow passes through here.

use std::fmt;

use legaliot_ifc::{can_flow, FlowDecision, SecurityContext};

/// Whether IFC enforcement is active, audit-only, or disabled.
///
/// `Disabled` is the baseline for the overhead experiment (E12): the hook is still
/// called (as it would be with an inert LSM) but performs no label comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnforcementMode {
    /// Check labels and refuse violating calls.
    Enforce,
    /// Check labels and record decisions, but never refuse a call (provenance-only
    /// deployments, §8.3).
    AuditOnly,
    /// Perform no checks (baseline).
    Disabled,
}

impl fmt::Display for EnforcementMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EnforcementMode::Enforce => "enforce",
            EnforcementMode::AuditOnly => "audit-only",
            EnforcementMode::Disabled => "disabled",
        };
        f.write_str(s)
    }
}

/// Counters kept by the hook layer, used to quantify enforcement overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HookStats {
    /// Total hook invocations.
    pub invocations: u64,
    /// Flows allowed.
    pub allowed: u64,
    /// Flows denied (only in `Enforce` mode).
    pub denied: u64,
    /// Violations observed but not blocked (only in `AuditOnly` mode).
    pub observed_violations: u64,
}

/// The hook layer itself: a mode plus counters.
#[derive(Debug, Clone, Default)]
pub struct LsmHooks {
    mode: Option<EnforcementMode>,
    stats: HookStats,
}

impl LsmHooks {
    /// Creates a hook layer in the given mode.
    pub fn new(mode: EnforcementMode) -> Self {
        LsmHooks { mode: Some(mode), stats: HookStats::default() }
    }

    /// The current mode.
    pub fn mode(&self) -> EnforcementMode {
        self.mode.unwrap_or(EnforcementMode::Enforce)
    }

    /// Switches mode (e.g. a trusted reconfiguration turning a node to audit-only).
    pub fn set_mode(&mut self, mode: EnforcementMode) {
        self.mode = Some(mode);
    }

    /// The counters so far.
    pub fn stats(&self) -> HookStats {
        self.stats
    }

    /// Resets the counters (between benchmark iterations).
    pub fn reset_stats(&mut self) {
        self.stats = HookStats::default();
    }

    /// The hook proper: decides whether a flow from `source` to `destination` may
    /// proceed. Returns the decision; in `AuditOnly`/`Disabled` modes the call is always
    /// permitted but the decision still reports what enforcement *would* have done (in
    /// `Disabled` mode no check is made and `Allowed` is reported).
    pub fn check_flow(
        &mut self,
        source: &SecurityContext,
        destination: &SecurityContext,
    ) -> (FlowDecision, bool) {
        self.stats.invocations += 1;
        match self.mode() {
            EnforcementMode::Disabled => {
                self.stats.allowed += 1;
                (FlowDecision::Allowed, true)
            }
            EnforcementMode::AuditOnly => {
                let decision = can_flow(source, destination);
                if decision.is_denied() {
                    self.stats.observed_violations += 1;
                } else {
                    self.stats.allowed += 1;
                }
                (decision, true)
            }
            EnforcementMode::Enforce => {
                let decision = can_flow(source, destination);
                let permitted = decision.is_allowed();
                if permitted {
                    self.stats.allowed += 1;
                } else {
                    self.stats.denied += 1;
                }
                (decision, permitted)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(s: &[&str], i: &[&str]) -> SecurityContext {
        SecurityContext::from_names(s.iter().copied(), i.iter().copied())
    }

    #[test]
    fn enforce_mode_blocks_and_counts() {
        let mut hooks = LsmHooks::new(EnforcementMode::Enforce);
        let secret = ctx(&["medical"], &[]);
        let public = ctx(&[], &[]);
        let (decision, permitted) = hooks.check_flow(&public, &secret);
        assert!(decision.is_allowed());
        assert!(permitted);
        let (decision, permitted) = hooks.check_flow(&secret, &public);
        assert!(decision.is_denied());
        assert!(!permitted);
        let stats = hooks.stats();
        assert_eq!(stats.invocations, 2);
        assert_eq!(stats.allowed, 1);
        assert_eq!(stats.denied, 1);
        assert_eq!(stats.observed_violations, 0);
    }

    #[test]
    fn audit_only_mode_observes_but_permits() {
        let mut hooks = LsmHooks::new(EnforcementMode::AuditOnly);
        let secret = ctx(&["medical"], &[]);
        let public = ctx(&[], &[]);
        let (decision, permitted) = hooks.check_flow(&secret, &public);
        assert!(decision.is_denied());
        assert!(permitted);
        assert_eq!(hooks.stats().observed_violations, 1);
        assert_eq!(hooks.stats().denied, 0);
    }

    #[test]
    fn disabled_mode_skips_checks() {
        let mut hooks = LsmHooks::new(EnforcementMode::Disabled);
        let secret = ctx(&["medical"], &[]);
        let public = ctx(&[], &[]);
        let (decision, permitted) = hooks.check_flow(&secret, &public);
        assert!(decision.is_allowed());
        assert!(permitted);
        assert_eq!(hooks.stats().allowed, 1);
    }

    #[test]
    fn mode_switching_and_reset() {
        let mut hooks = LsmHooks::new(EnforcementMode::Enforce);
        assert_eq!(hooks.mode(), EnforcementMode::Enforce);
        hooks.set_mode(EnforcementMode::AuditOnly);
        assert_eq!(hooks.mode(), EnforcementMode::AuditOnly);
        hooks.check_flow(&SecurityContext::public(), &SecurityContext::public());
        assert_eq!(hooks.stats().invocations, 1);
        hooks.reset_stats();
        assert_eq!(hooks.stats(), HookStats::default());
        assert_eq!(EnforcementMode::Enforce.to_string(), "enforce");
        assert_eq!(EnforcementMode::AuditOnly.to_string(), "audit-only");
        assert_eq!(EnforcementMode::Disabled.to_string(), "disabled");
    }

    #[test]
    fn default_hooks_enforce() {
        let hooks = LsmHooks::default();
        assert_eq!(hooks.mode(), EnforcementMode::Enforce);
    }
}
