//! The append-only, hash-chained audit log.
//!
//! Tamper evidence is provided by chaining each record's hash with its predecessor's
//! (the paper cites hardware-backed secure logs, e.g. BBox \[6\]; we model the chain in
//! software — the integrity *property* is what compliance checking relies on). A
//! record's hash is `codec::record_hash`: an algorithm and an input this
//! repository pins (golden vectors below), because persisted segments must still verify
//! after a toolchain upgrade — which `std`'s `DefaultHasher` does not promise.
//! Challenge 6 asks "when can logs safely be pruned? Can logs be offloaded to others for
//! distributed audit?" — [`crate::BatchedAppender::with_retention`] and
//! [`AuditLog::offload`] model both, preserving chain verifiability across the cut by
//! retaining the anchor hash.

use std::fmt;

use crate::codec::record_hash;
use crate::event::{AuditEvent, AuditEventKind, AuditRecord, RecordId};

/// The outcome of verifying the hash chain of a log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainVerification {
    /// Every record's hash links correctly to its predecessor.
    Intact {
        /// Number of records verified.
        records: usize,
    },
    /// The chain is broken at the given record.
    Broken {
        /// The first record whose hash does not verify.
        at: RecordId,
    },
}

impl ChainVerification {
    /// Whether the chain verified successfully.
    pub fn is_intact(&self) -> bool {
        matches!(self, ChainVerification::Intact { .. })
    }
}

impl fmt::Display for ChainVerification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainVerification::Intact { records } => write!(f, "intact ({records} records)"),
            ChainVerification::Broken { at } => write!(f, "broken at {at}"),
        }
    }
}

/// An append-only, hash-chained audit log for one recording authority (node, domain or
/// gateway).
///
/// ```
/// use legaliot_audit::{AuditLog, AuditEvent};
/// use legaliot_ifc::{SecurityContext, can_flow};
///
/// let mut log = AuditLog::new("hospital-gateway");
/// let ctx = SecurityContext::from_names(["medical"], Vec::<&str>::new());
/// log.record(AuditEvent::FlowChecked {
///     source: "sensor".into(),
///     destination: "analyser".into(),
///     source_context: ctx.clone(),
///     destination_context: ctx.clone(),
///     decision: can_flow(&ctx, &ctx),
///     data_item: Some("reading".into()),
/// }, 10);
/// assert!(log.verify_chain().is_intact());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AuditLog {
    authority: String,
    records: Vec<AuditRecord>,
    /// Hash the first retained record chains from (non-zero after pruning/offload).
    anchor_hash: u64,
    /// Id to assign to the next record (ids keep increasing across pruning).
    next_id: u64,
}

impl AuditLog {
    /// Creates an empty log recorded by the given authority: a chain started afresh,
    /// [`Self::resume`] from hash 0 at id 0.
    pub fn new(authority: impl Into<String>) -> Self {
        Self::resume(authority, 0, 0)
    }

    /// Creates an empty log that resumes an earlier chain: the first record appended
    /// will chain onto `anchor_hash` and be numbered `next_id`. This is how a process
    /// restart re-anchors on the crashed incarnation's last *persisted* record — the
    /// on-disk prefix plus the resumed log verify as one chain.
    pub fn resume(authority: impl Into<String>, anchor_hash: u64, next_id: u64) -> Self {
        AuditLog { authority: authority.into(), records: Vec::new(), anchor_hash, next_id }
    }

    /// Rebuilds a log from records that came from outside this process — decoded from a
    /// file, received from another party — so it can be verified, judged and appended
    /// to. Nothing is trusted: no hash is checked here, [`Self::verify_chain`] decides
    /// whether `records` chain from `anchor_hash`. The next id follows the last record
    /// (0 when there is none; use [`Self::resume`] to continue an empty span elsewhere).
    pub fn from_records(
        authority: impl Into<String>,
        anchor_hash: u64,
        records: Vec<AuditRecord>,
    ) -> Self {
        let next_id = records.last().map_or(0, |last| last.id.0.saturating_add(1));
        AuditLog { authority: authority.into(), records, anchor_hash, next_id }
    }

    /// The recording authority's name.
    pub fn authority(&self) -> &str {
        &self.authority
    }

    /// The hash the first retained record chains from (0 for a fresh, unpruned log).
    pub fn anchor_hash(&self) -> u64 {
        self.anchor_hash
    }

    /// The id the next appended record will get (ids keep increasing across pruning).
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// The hash of the newest record, or the anchor if the log is empty — exactly what
    /// the next appended record will chain from.
    pub fn head_hash(&self) -> u64 {
        self.records.last().map(|r| r.hash).unwrap_or(self.anchor_hash)
    }

    /// Appends an event at the given simulated time, returning the new record's id.
    pub fn record(&mut self, event: AuditEvent, at_millis: u64) -> RecordId {
        let previous_hash = self.records.last().map(|r| r.hash).unwrap_or(self.anchor_hash);
        let id = RecordId(self.next_id);
        self.next_id += 1;
        let hash = record_hash(id, at_millis, &self.authority, &event, previous_hash);
        self.records.push(AuditRecord {
            id,
            at_millis,
            recorded_by: self.authority.clone(),
            event,
            previous_hash,
            hash,
        });
        id
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records, oldest first.
    pub fn records(&self) -> &[AuditRecord] {
        &self.records
    }

    /// Iterates records of a given kind.
    pub fn of_kind(&self, kind: AuditEventKind) -> impl Iterator<Item = &AuditRecord> + '_ {
        self.records.iter().filter(move |r| r.event.kind() == kind)
    }

    /// Records mentioning the given entity name.
    pub fn involving<'a>(&'a self, entity: &'a str) -> impl Iterator<Item = &'a AuditRecord> + 'a {
        self.records.iter().filter(move |r| r.event.entities().contains(&entity))
    }

    /// Records of denied flows — the first thing an investigator looks at.
    pub fn denied_flows(&self) -> impl Iterator<Item = &AuditRecord> + '_ {
        self.records.iter().filter(|r| r.event.is_denied_flow())
    }

    /// Verifies the hash chain from the anchor to the newest record.
    pub fn verify_chain(&self) -> ChainVerification {
        Self::verify_records(self.anchor_hash, &self.records)
    }

    /// Verifies an arbitrary record slice as a chain anchored on `anchor_hash`.
    ///
    /// This is the same check as [`Self::verify_chain`], exposed so external stores of
    /// records (e.g. recovered on-disk segments) can be verified — including spans that
    /// cross storage boundaries, by concatenating the disk prefix with the in-memory
    /// suffix and anchoring on the first segment's anchor.
    pub fn verify_records(anchor_hash: u64, records: &[AuditRecord]) -> ChainVerification {
        let mut expected_prev = anchor_hash;
        for r in records {
            if r.previous_hash != expected_prev
                || record_hash(r.id, r.at_millis, &r.recorded_by, &r.event, r.previous_hash)
                    != r.hash
            {
                return ChainVerification::Broken { at: r.id };
            }
            expected_prev = r.hash;
        }
        ChainVerification::Intact { records: records.len() }
    }

    /// Offloads (moves) all current records into a new log destined for a remote
    /// auditor, leaving this log empty but anchored so future records still chain onto
    /// the offloaded history (distributed audit, Challenge 6).
    pub fn offload(&mut self, auditor: impl Into<String>) -> AuditLog {
        let offloaded = AuditLog {
            authority: auditor.into(),
            records: std::mem::take(&mut self.records),
            anchor_hash: self.anchor_hash,
            next_id: self.next_id,
        };
        if let Some(last) = offloaded.records.last() {
            self.anchor_hash = last.hash;
        }
        offloaded
    }

    /// Merges the records of several per-node logs into a single timeline ordered by
    /// timestamp (then by recording authority for determinism). The merged view is used
    /// by system-wide compliance checking; per-node chains remain the tamper evidence.
    pub fn merged_timeline<'a>(logs: impl IntoIterator<Item = &'a AuditLog>) -> Vec<AuditRecord> {
        let mut all: Vec<AuditRecord> =
            logs.into_iter().flat_map(|l| l.records.iter().cloned()).collect();
        all.sort_by(|a, b| {
            a.at_millis
                .cmp(&b.at_millis)
                .then_with(|| a.recorded_by.cmp(&b.recorded_by))
                .then_with(|| a.id.cmp(&b.id))
        });
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_record, encode_record};
    use legaliot_ifc::{can_flow, SecurityContext};
    use proptest::prelude::*;

    fn flow_event(src: &str, dst: &str, denied: bool) -> AuditEvent {
        let s = SecurityContext::from_names(["medical"], Vec::<&str>::new());
        let d = if denied { SecurityContext::public() } else { s.clone() };
        AuditEvent::FlowChecked {
            source: src.into(),
            destination: dst.into(),
            source_context: s.clone(),
            destination_context: d.clone(),
            decision: can_flow(&s, &d),
            data_item: None,
        }
    }

    #[test]
    fn record_and_verify() {
        let mut log = AuditLog::new("node-a");
        assert!(log.is_empty());
        log.record(flow_event("s", "d", false), 1);
        log.record(flow_event("s", "d", true), 2);
        assert_eq!(log.len(), 2);
        assert_eq!(log.authority(), "node-a");
        assert!(log.verify_chain().is_intact());
        assert_eq!(log.denied_flows().count(), 1);
    }

    #[test]
    fn tampering_breaks_the_chain() {
        let mut log = AuditLog::new("node-a");
        log.record(flow_event("s", "d", false), 1);
        log.record(flow_event("s", "d", true), 2);
        log.record(flow_event("s", "d", false), 3);
        // Tamper with the middle record's event.
        if let AuditEvent::FlowChecked { destination, .. } = &mut log.records[1].event {
            *destination = "covered-up".into();
        }
        let v = log.verify_chain();
        assert_eq!(v, ChainVerification::Broken { at: RecordId(1) });
        assert!(!v.is_intact());
        assert!(v.to_string().contains("#1"));
    }

    #[test]
    fn removing_a_record_breaks_the_chain() {
        let mut log = AuditLog::new("node-a");
        log.record(flow_event("a", "b", false), 1);
        log.record(flow_event("b", "c", false), 2);
        log.record(flow_event("c", "d", false), 3);
        log.records.remove(1);
        assert!(!log.verify_chain().is_intact());
    }

    #[test]
    fn offload_moves_history_and_keeps_chain() {
        let mut log = AuditLog::new("gateway");
        for t in 0..4 {
            log.record(flow_event("s", "d", false), t);
        }
        let offloaded = log.offload("cloud-auditor");
        assert_eq!(offloaded.len(), 4);
        assert_eq!(offloaded.authority(), "cloud-auditor");
        assert!(offloaded.verify_chain().is_intact());
        assert!(log.is_empty());
        log.record(flow_event("s", "d", false), 10);
        assert!(log.verify_chain().is_intact());
        // The retained log's first record chains from the offloaded history.
        assert_eq!(log.records()[0].previous_hash, offloaded.records().last().unwrap().hash);
    }

    #[test]
    fn filtering_by_kind_and_entity() {
        let mut log = AuditLog::new("node");
        log.record(flow_event("sensor", "analyser", false), 1);
        log.record(
            AuditEvent::PolicyFired {
                policy: "emergency".into(),
                trigger: "hr>180".into(),
                actions: 3,
            },
            2,
        );
        assert_eq!(log.of_kind(AuditEventKind::FlowChecked).count(), 1);
        assert_eq!(log.of_kind(AuditEventKind::PolicyFired).count(), 1);
        assert_eq!(log.involving("sensor").count(), 1);
        assert_eq!(log.involving("emergency").count(), 1);
        assert_eq!(log.involving("nobody").count(), 0);
    }

    #[test]
    fn merged_timeline_orders_by_time() {
        let mut a = AuditLog::new("node-a");
        let mut b = AuditLog::new("node-b");
        a.record(flow_event("x", "y", false), 5);
        b.record(flow_event("p", "q", false), 3);
        a.record(flow_event("x", "y", false), 9);
        b.record(flow_event("p", "q", false), 7);
        let merged = AuditLog::merged_timeline([&a, &b]);
        let times: Vec<u64> = merged.iter().map(|r| r.at_millis).collect();
        assert_eq!(times, vec![3, 5, 7, 9]);
    }

    #[test]
    fn resume_continues_the_chain_from_a_persisted_head() {
        let mut first = AuditLog::new("shard-0");
        for t in 0..5 {
            first.record(flow_event("s", "d", false), t);
        }
        let persisted: Vec<AuditRecord> = first.records().to_vec();
        let head = first.head_hash();
        let next_id = first.next_id();

        // A restarted incarnation re-anchors on the persisted head.
        let mut resumed = AuditLog::resume("shard-0", head, next_id);
        assert_eq!(resumed.anchor_hash(), head);
        assert_eq!(resumed.next_id(), next_id);
        resumed.record(flow_event("s", "d", false), 10);
        assert!(resumed.verify_chain().is_intact());

        // Disk prefix + resumed suffix verify as one chain.
        let mut combined = persisted;
        combined.extend(resumed.records().iter().cloned());
        assert_eq!(
            AuditLog::verify_records(0, &combined),
            ChainVerification::Intact { records: 6 }
        );
        assert_eq!(combined.last().unwrap().id, RecordId(5));
    }

    #[test]
    fn verify_records_detects_a_cross_boundary_break() {
        let mut log = AuditLog::new("n");
        for t in 0..4 {
            log.record(flow_event("s", "d", false), t);
        }
        let mut records: Vec<AuditRecord> = log.records().to_vec();
        // Dropping a middle record breaks the slice chain.
        records.remove(2);
        assert!(!AuditLog::verify_records(0, &records).is_intact());
        // A wrong anchor breaks it at the first record.
        assert_eq!(
            AuditLog::verify_records(7, log.records()),
            ChainVerification::Broken { at: RecordId(0) }
        );
    }

    /// What an auditor does with evidence from outside: every record through the
    /// wire format and back, then [`AuditLog::from_records`].
    fn through_the_codec(records: &[AuditRecord]) -> Vec<AuditRecord> {
        records
            .iter()
            .map(|record| {
                let mut bytes = Vec::new();
                encode_record(record, &mut bytes);
                decode_record(&bytes).expect("a canonical encoding decodes")
            })
            .collect()
    }

    #[test]
    fn from_records_rebuilds_a_log_from_its_encoded_records() {
        let mut log = AuditLog::new("shard-0");
        for t in 0..6 {
            if t == 2 {
                // Offloaded first, so the anchor and the first id are not the defaults.
                log.offload("auditor");
            }
            log.record(flow_event("s", "d", t % 2 == 0), t);
        }

        let mut rebuilt =
            AuditLog::from_records("shard-0", log.anchor_hash(), through_the_codec(log.records()));
        assert_eq!(rebuilt.records(), log.records());
        assert_eq!(rebuilt.anchor_hash(), log.anchor_hash());
        assert_eq!(rebuilt.head_hash(), log.head_hash());
        assert_eq!(rebuilt.next_id(), log.next_id());
        assert_eq!(rebuilt.verify_chain(), ChainVerification::Intact { records: 4 });

        // Appending continues the same chain.
        rebuilt.record(flow_event("s", "d", false), 10);
        log.record(flow_event("s", "d", false), 10);
        assert_eq!(rebuilt, log);
        assert!(rebuilt.verify_chain().is_intact());

        // One field of one record changed: the chain breaks at that record.
        let mut records = through_the_codec(log.records());
        records[2].recorded_by = "someone-else".into();
        let forged = AuditLog::from_records("shard-0", log.anchor_hash(), records);
        assert_eq!(forged.verify_chain(), ChainVerification::Broken { at: log.records()[2].id });

        // No records: an empty log on the anchor, numbering from 0.
        let empty = AuditLog::from_records("shard-0", 7, Vec::new());
        assert_eq!((empty.head_hash(), empty.next_id()), (7, 0));
    }

    /// Golden vectors: persisted segments carry these hashes, so neither the algorithm
    /// (FNV-1a 64) nor its input (the canonical encoding) may drift — not with a
    /// toolchain, not with a refactor. The expected values were computed independently
    /// of this crate, from the layout documented in [`crate::codec`].
    #[test]
    fn chain_hashes_are_pinned() {
        let source = SecurityContext::from_names(["medical", "ann"], ["hosp-dev"]);
        let destination = SecurityContext::from_names(["medical"], ["consent"]);
        let mut log = AuditLog::new("gateway");
        log.record(
            AuditEvent::FlowChecked {
                source: "sensor".into(),
                destination: "analyser".into(),
                decision: can_flow(&source, &destination),
                source_context: source,
                destination_context: destination,
                data_item: Some("reading-1".into()),
            },
            10,
        );
        log.record(
            AuditEvent::PolicyFired {
                policy: "emergency".into(),
                trigger: "hr>180".into(),
                actions: 3,
            },
            20,
        );
        assert!(log.records()[0].event.is_denied_flow());
        assert_eq!(log.records()[0].hash, 0x7fa9_4201_b134_afd9);
        assert_eq!(log.records()[1].previous_hash, 0x7fa9_4201_b134_afd9);
        assert_eq!(log.records()[1].hash, 0x7cb9_427e_c210_250e);
        assert!(log.verify_chain().is_intact());
    }

    /// The retired hash went through `Debug`, where the one-tag label `{"a, b"}` and the
    /// two-tag label `{"a", "b"}` both print `Label{a, b}` — two different records, one
    /// hash. Hashing the length-prefixed encoding tells them apart.
    #[test]
    fn labels_that_print_alike_hash_apart() {
        let one_tag = SecurityContext::from_names(["a, b"], Vec::<&str>::new());
        let two_tags = SecurityContext::from_names(["a", "b"], Vec::<&str>::new());
        assert_eq!(format!("{one_tag:?}"), format!("{two_tags:?}"));
        let hash_of = |context: &SecurityContext| {
            let mut log = AuditLog::new("n");
            log.record(
                AuditEvent::LabelChanged {
                    entity: "e".into(),
                    before: SecurityContext::public(),
                    after: context.clone(),
                    algorithm: None,
                },
                1,
            );
            log.records()[0].hash
        };
        assert_ne!(hash_of(&one_tag), hash_of(&two_tags));
    }

    #[test]
    fn empty_log_verifies() {
        let log = AuditLog::new("n");
        assert!(log.verify_chain().is_intact());
        assert_eq!(log.verify_chain(), ChainVerification::Intact { records: 0 });
    }

    proptest! {
        /// Chain verification always succeeds on an untampered log, for any sequence of
        /// events and timestamps.
        #[test]
        fn prop_untampered_chain_is_intact(times in proptest::collection::vec(0u64..1000, 0..40)) {
            let mut log = AuditLog::new("n");
            for t in &times {
                log.record(flow_event("a", "b", t % 2 == 0), *t);
            }
            prop_assert!(log.verify_chain().is_intact());
        }
    }
}
