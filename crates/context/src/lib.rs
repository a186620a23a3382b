//! # legaliot-context
//!
//! Context representation and management for policy-driven IoT middleware.
//!
//! "Policy is inherently contextual, defined to be enforced in particular
//! circumstances. Therefore, a richer representation of state allows for more granular
//! and expressive policy" (§10.2 of Singh et al., Middleware 2016). This crate provides:
//!
//! * a typed attribute/value model ([`ContextValue`], [`ContextKey`]) over interned
//!   [`Name`]s — one process-wide table, so a key is an integer to every snapshot;
//! * a versioned [`ContextStore`] with change subscriptions, so policy engines can react
//!   to context changes (the trigger for reconfiguration in Fig. 7);
//! * simulated [`time`]: a logical clock and the timestamps every record carries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod name;
pub mod store;
pub mod time;
pub mod value;

pub use name::{Name, NameMap};
pub use store::{ContextChange, ContextSnapshot, ContextStore, SubscriptionId};
pub use time::{LogicalClock, Timestamp};
pub use value::{ContextKey, ContextValue};
