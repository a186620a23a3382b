//! # legaliot-audit
//!
//! Audit, provenance and traceability for IFC-enforced IoT systems (§8.3 and
//! Challenge 6 of Singh et al., Middleware 2016).
//!
//! "IFC checks are carried out on every attempted flow. This facilitates the creation of
//! logs recording all attempted and permitted flows. Such information provides the means
//! to demonstrate that user policies have been enforced and regulations have been
//! complied with."
//!
//! The crate provides:
//!
//! * [`AuditEvent`] — the vocabulary of auditable occurrences (flow checks, label
//!   changes, declassifications, reconfigurations, policy decisions);
//! * [`AuditLog`] — an append-only, hash-chained log with tamper-evidence and offload
//!   support, held as its records' sealed frames and decoded only when read, and
//!   [`BatchedAppender`], which prunes a trail to a retention bound
//!   (Challenge 6: "When can logs safely be pruned? Can logs be offloaded to others for
//!   distributed audit?");
//! * [`ProvenanceGraph`] — the audit graph of Fig. 11 (data items, processes, agents)
//!   built from the log, with ancestry/taint queries and DOT export;
//! * [`codec`] — the one canonical binary encoding of a record, which both the chain
//!   hash and the on-disk frames are defined over;
//! * [`SegmentStore`] — crash-safe on-disk segments for handed-over records, with
//!   torn-write recovery ([`SegmentStore::recover`]) and IO fault injection from the
//!   stack's one failpoint schedule ([`SegmentStore::set_failpoints`]), so the
//!   tamper-evident chain survives pruning *and* process crashes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod codec;
pub mod event;
pub mod log;
pub mod provenance;
pub mod segment;

pub use batch::BatchedAppender;
pub use event::{AuditEvent, AuditEventKind, AuditRecord, RecordId};
pub use log::{AuditLog, ChainVerification};
pub use provenance::{NodeId, NodeKind, ProvenanceEdge, ProvenanceGraph, ProvenanceNode, Relation};
pub use segment::{
    FsyncHistogram, RecoveryReport, Reopened, SegmentStats, SegmentStore, SegmentSummary,
    Truncation,
};
