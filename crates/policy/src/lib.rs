//! # legaliot-policy
//!
//! The policy model and engine for policy-driven IoT middleware (§3.1, §5, §8.1 of
//! Singh et al., Middleware 2016).
//!
//! "Policy encapsulates a set of concerns, defining the actions to take in particular
//! circumstances to effect some outcome." In this reproduction:
//!
//! * [`condition`] — boolean condition expressions over [`legaliot_context`] snapshots
//!   (attribute comparisons, presence, time windows, conjunction/disjunction/negation);
//! * [`action`] — the reconfiguration vocabulary: label/privilege changes, channel
//!   establishment/teardown, routing through sanitisers, isolation, alerts
//!   (§5.2 "Dynamic, context-aware reconfiguration");
//! * [`eca`] — Event–Condition–Action rules and the events that trigger them;
//! * [`engine`] — the policy engine: holds a rule set, watches context, and emits
//!   reconfiguration commands (Fig. 7's "application-aware policy engine");
//! * [`conflict`] — conflict detection and resolution across federated authorities
//!   (Challenge 4), with priority, specificity and deny/permit-overrides strategies;
//! * [`breakglass`] — break-glass overrides with expiry and mandatory justification
//!   (§3 Concern 6);
//! * [`template`] — authoring templates that compile common legal obligations
//!   (geo-fencing, consent, retention, anonymise-before-analytics) into rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod breakglass;
pub mod condition;
pub mod conflict;
pub mod eca;
pub mod engine;
pub mod template;

pub use action::{Action, ReconfigurationCommand};
pub use breakglass::{BreakGlass, BreakGlassState};
pub use condition::Condition;
pub use conflict::{ConflictReport, ConflictResolver, ResolutionStrategy};
pub use eca::{PolicyEvent, PolicyId, PolicyPriority, PolicyRule};
pub use engine::{EngineOutcome, PolicyEngine};
pub use template::PolicyTemplate;
