//! Break-glass overrides.
//!
//! §3 Concern 6: "In an emergency, 'break-glass' policy overrides normal security
//! constraints, alerting emergency services and (say) a family member, and replugging
//! the sensor-data streams to make them available to the emergency response team."
//! A [`BreakGlass`] is an exceptional grant: it names the policy it overrides, the
//! justification, an expiry, and the compensating obligations (alerts, audit flags)
//! that must accompany activation. Activations and expiries are auditable events.

use std::fmt;

use legaliot_context::Timestamp;

use crate::action::Action;
use crate::eca::PolicyId;

/// The lifecycle state of a break-glass override.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakGlassState {
    /// Defined but not active.
    Armed,
    /// Currently overriding normal policy, until the recorded expiry.
    Active {
        /// When the override expires (exclusive).
        expires_at_millis: u64,
    },
    /// No longer active (expired or explicitly revoked).
    Expired,
}

impl fmt::Display for BreakGlassState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BreakGlassState::Armed => write!(f, "armed"),
            BreakGlassState::Active { expires_at_millis } => {
                write!(f, "active until {expires_at_millis}ms")
            }
            BreakGlassState::Expired => write!(f, "expired"),
        }
    }
}

/// A break-glass override definition and its runtime state.
///
/// ```
/// use legaliot_policy::{BreakGlass, Action};
/// use legaliot_context::Timestamp;
///
/// let mut bg = BreakGlass::new("emergency-access", "hospital", 60_000)
///     .overriding("patient-privacy")
///     .with_emergency_action(Action::Connect {
///         from: "ann-analyser".into(),
///         to: "emergency-doctor".into(),
///     });
/// let actions = bg.activate("cardiac arrest detected", Timestamp(1_000)).unwrap();
/// assert_eq!(actions.len(), 1);
/// assert!(bg.is_active(Timestamp(30_000)));
/// assert!(!bg.is_active(Timestamp(61_001)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BreakGlass {
    /// The override's identifier.
    pub id: PolicyId,
    /// The authority allowed to activate it.
    pub authority: String,
    /// How long an activation lasts, in milliseconds of simulated time.
    pub duration_millis: u64,
    /// The policies this override suspends while active.
    pub overrides: Vec<PolicyId>,
    /// The emergency actions applied on activation (connections, notifications, …).
    pub emergency_actions: Vec<Action>,
    /// The current state.
    pub state: BreakGlassState,
    /// The justification recorded at the last activation, if any.
    pub justification: Option<String>,
}

impl BreakGlass {
    /// Defines a new, armed break-glass override.
    pub fn new(id: impl Into<String>, authority: impl Into<String>, duration_millis: u64) -> Self {
        BreakGlass {
            id: PolicyId::new(id),
            authority: authority.into(),
            duration_millis,
            overrides: Vec::new(),
            emergency_actions: Vec::new(),
            state: BreakGlassState::Armed,
            justification: None,
        }
    }

    /// Adds a policy that this override suspends while active.
    pub fn overriding(mut self, policy: impl Into<String>) -> Self {
        self.overrides.push(PolicyId::new(policy));
        self
    }

    /// Adds an emergency action applied on activation.
    pub fn with_emergency_action(mut self, action: Action) -> Self {
        self.emergency_actions.push(action);
        self
    }

    /// Activates the override at time `now` with a mandatory justification, returning
    /// the emergency actions to apply.
    ///
    /// # Errors
    ///
    /// Returns an error string if the justification is empty or the override is already
    /// active (re-activation must be explicit after expiry, so activations are
    /// individually auditable).
    pub fn activate(
        &mut self,
        justification: impl Into<String>,
        now: Timestamp,
    ) -> Result<Vec<Action>, String> {
        let justification = justification.into();
        if justification.trim().is_empty() {
            return Err("break-glass activation requires a justification".to_string());
        }
        if self.is_active(now) {
            return Err(format!("break-glass {} is already active", self.id));
        }
        self.state =
            BreakGlassState::Active { expires_at_millis: now.as_millis() + self.duration_millis };
        self.justification = Some(justification);
        Ok(self.emergency_actions.clone())
    }

    /// Whether the override is active at time `now` (also transitions the externally
    /// visible answer after expiry; call [`Self::tick`] to update the stored state).
    pub fn is_active(&self, now: Timestamp) -> bool {
        match self.state {
            BreakGlassState::Active { expires_at_millis } => now.as_millis() < expires_at_millis,
            _ => false,
        }
    }

    /// Whether the given policy is currently suspended by this override.
    pub fn suspends(&self, policy: &PolicyId, now: Timestamp) -> bool {
        self.is_active(now) && self.overrides.contains(policy)
    }

    /// Updates the stored state for the passage of time; returns `true` if the override
    /// expired on this tick (so the caller can emit a deactivation audit event).
    pub fn tick(&mut self, now: Timestamp) -> bool {
        if let BreakGlassState::Active { expires_at_millis } = self.state {
            if now.as_millis() >= expires_at_millis {
                self.state = BreakGlassState::Expired;
                return true;
            }
        }
        false
    }

    /// Explicitly revokes an active override (e.g. the emergency is resolved early).
    /// Returns `true` if it was active.
    pub fn revoke(&mut self) -> bool {
        let was_active = matches!(self.state, BreakGlassState::Active { .. });
        if was_active {
            self.state = BreakGlassState::Expired;
        }
        was_active
    }
}

impl fmt::Display for BreakGlass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "break-glass {} ({}) {}", self.id, self.authority, self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BreakGlass {
        BreakGlass::new("emergency-access", "hospital", 60_000)
            .overriding("patient-privacy")
            .overriding("nurse-shift-only")
            .with_emergency_action(Action::Connect {
                from: "ann-analyser".into(),
                to: "emergency-doctor".into(),
            })
            .with_emergency_action(Action::Notify {
                recipient: "ann-family".into(),
                message: "emergency response started".into(),
            })
    }

    #[test]
    fn activation_returns_emergency_actions() {
        let mut bg = sample();
        assert_eq!(bg.state, BreakGlassState::Armed);
        let actions = bg.activate("cardiac arrest detected", Timestamp(1_000)).unwrap();
        assert_eq!(actions.len(), 2);
        assert!(bg.is_active(Timestamp(1_001)));
        assert_eq!(bg.justification.as_deref(), Some("cardiac arrest detected"));
    }

    #[test]
    fn activation_requires_justification() {
        let mut bg = sample();
        assert!(bg.activate("   ", Timestamp::ZERO).is_err());
        assert_eq!(bg.state, BreakGlassState::Armed);
    }

    #[test]
    fn double_activation_rejected_while_active() {
        let mut bg = sample();
        bg.activate("first", Timestamp(0)).unwrap();
        let err = bg.activate("second", Timestamp(10)).unwrap_err();
        assert!(err.contains("already active"));
    }

    #[test]
    fn expiry_and_reactivation() {
        let mut bg = sample();
        bg.activate("emergency", Timestamp(0)).unwrap();
        assert!(bg.is_active(Timestamp(59_999)));
        assert!(!bg.is_active(Timestamp(60_000)));
        // tick transitions the stored state exactly once.
        assert!(bg.tick(Timestamp(60_000)));
        assert!(!bg.tick(Timestamp(70_000)));
        assert_eq!(bg.state, BreakGlassState::Expired);
        // A new emergency can re-activate after expiry.
        assert!(bg.activate("second emergency", Timestamp(100_000)).is_ok());
        assert!(bg.is_active(Timestamp(100_001)));
    }

    #[test]
    fn suspends_only_named_policies_while_active() {
        let mut bg = sample();
        let privacy = PolicyId::new("patient-privacy");
        let unrelated = PolicyId::new("billing");
        assert!(!bg.suspends(&privacy, Timestamp(0)));
        bg.activate("emergency", Timestamp(0)).unwrap();
        assert!(bg.suspends(&privacy, Timestamp(10)));
        assert!(bg.suspends(&PolicyId::new("nurse-shift-only"), Timestamp(10)));
        assert!(!bg.suspends(&unrelated, Timestamp(10)));
        assert!(!bg.suspends(&privacy, Timestamp(60_001)));
    }

    #[test]
    fn revoke_ends_override_early() {
        let mut bg = sample();
        assert!(!bg.revoke());
        bg.activate("emergency", Timestamp(0)).unwrap();
        assert!(bg.revoke());
        assert!(!bg.is_active(Timestamp(1)));
        assert_eq!(bg.state, BreakGlassState::Expired);
    }

    #[test]
    fn displays() {
        let mut bg = sample();
        assert!(bg.to_string().contains("armed"));
        bg.activate("x", Timestamp(0)).unwrap();
        assert!(bg.to_string().contains("active until"));
        assert_eq!(BreakGlassState::Expired.to_string(), "expired");
    }
}
