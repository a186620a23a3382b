//! # legaliot-ifc
//!
//! Decentralised Information Flow Control (IFC) primitives, as described in §6 of
//! Singh et al., *Policy-driven middleware for a legally-compliant Internet of Things*
//! (Middleware 2016).
//!
//! The model associates every entity `A` (active — a process, a component — or passive —
//! a file, a message) with a *security context*: a pair of labels `S(A)` (secrecy) and
//! `I(A)` (integrity), each a set of [`Tag`]s. A flow `A → B` is permitted iff
//!
//! ```text
//! S(A) ⊆ S(B)  ∧  I(B) ⊆ I(A)
//! ```
//!
//! i.e. data may only flow towards equally- or more-constrained entities (Bell–LaPadula
//! for secrecy, Biba for integrity). Entities holding *privileges* over tags may change
//! their own labels, acting as **declassifiers** (secrecy) or **endorsers** (integrity) —
//! the trusted gateways between security-context domains of Fig. 3.
//!
//! A flow question is answered by [`can_flow`] when it is asked; nothing in the crate
//! remembers a decision, so a context change (§8.2.2) is in force for the next check.
//! The stack's stable 64-bit hashes live in [`hash`].
//!
//! # Quick example
//!
//! ```
//! use legaliot_ifc::{Label, SecurityContext, can_flow};
//!
//! // Ann's home-monitoring sensor (Fig. 4).
//! let sensor = SecurityContext::new(
//!     Label::from_names(["medical", "ann"]),
//!     Label::from_names(["hosp-dev", "consent"]),
//! );
//! // Ann's hospital-based data analyser.
//! let analyser = SecurityContext::new(
//!     Label::from_names(["medical", "ann"]),
//!     Label::from_names(["hosp-dev", "consent"]),
//! );
//! assert!(can_flow(&sensor, &analyser).is_allowed());
//!
//! // Zeb's sensor must not flow to Ann's analyser.
//! let zeb = SecurityContext::new(
//!     Label::from_names(["medical", "zeb"]),
//!     Label::from_names(["zeb-dev", "consent"]),
//! );
//! assert!(!can_flow(&zeb, &analyser).is_allowed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod creep;
pub mod entity;
pub mod error;
pub mod flow;
pub mod gateway;
pub mod hash;
pub mod label;
pub mod privilege;
pub mod registry;
pub mod tag;

pub use cache::DecisionCache;
pub use creep::{CreepAnalysis, CreepReport};
pub use entity::{Entity, EntityId, EntityKind};
pub use error::IfcError;
pub use flow::{can_flow, FlowCheck, FlowDecision, FlowDenialReason};
pub use gateway::{Declassifier, Endorser, Gateway, GatewayKind, Transformation};
pub use hash::{context_hash64, str_hash64, StableHasher};
pub use label::Label;
pub use privilege::{Privilege, PrivilegeKind, PrivilegeSet, TagOwnership};
pub use registry::{TagRegistry, TagScope};
pub use tag::{SecurityContext, Tag, TagName};
