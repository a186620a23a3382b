//! # legaliot-middleware
//!
//! A reconfigurable, policy-enforcing messaging middleware in the style of SBUS /
//! CamFlow-messaging (§5, §8.1 and §8.2.2 of Singh et al., Middleware 2016).
//!
//! The middleware mediates every interaction between components ('things'):
//!
//! * typed, schema-checked messages ([`schema`]), with message-level tags that augment
//!   the component's OS-level security context (Fig. 10) and *source quenching* when an
//!   attribute's tags do not accord with the receiver;
//! * an access-control regime at message-type granularity ([`acl`]): principals,
//!   parametrised roles and contextual conditions, enforced at channel establishment;
//! * IFC enforcement at channel establishment and on every message, with re-evaluation
//!   when either endpoint changes security context (§8.2.2);
//! * third-party reconfiguration (Fig. 8): a control message is the policy engine's
//!   [`ReconfigurationCommand`], which [`bus::Middleware::handle_control`] authorises
//!   against the AC regime and applies one step at a time through
//!   [`admission::reconfigure`], the core the dataplane drives too;
//! * a component registry ([`component`]) and the [`bus::Middleware`] deployment object
//!   that ties registry, channels, enforcement and audit together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acl;
pub mod admission;
pub mod bus;
pub mod component;
pub mod schema;

pub use acl::{
    AccessDecision, AccessRegime, AccessRule, DenialCause, Operation, Principal, Subject,
};
pub use admission::{admit_channel, admit_channel_cached, AdmissionCache, ControlOutcome};
pub use bus::{Channel, ChannelState, DeliveryOutcome, Middleware, MiddlewareError};
pub use component::{Component, ComponentBuilder, Registry};
pub use legaliot_policy::{Action, ReconfigurationCommand};
pub use schema::{
    encoded_payload_len, AttributeKind, AttributeValue, Attributes, BodyRing, FrozenMessage,
    FrozenSchema, Message, MessageSchema, MessageType, Payload, MAX_FROZEN_ATTRIBUTES,
};
