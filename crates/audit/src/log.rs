//! The append-only, hash-chained audit log, held as its records' frames.
//!
//! A log is a read view over a trail's bytes: it holds the sealed segment frames
//! ([`crate::codec`]) a [`crate::BatchedAppender`] hands over on `close`, the same
//! bytes the trail writes to disk, and decodes them only when a reader asks for
//! records — once, keeping what it decoded. A record appended to the log itself (the
//! bus's evidence) is encoded into a frame as an appender encodes it, and sealed as an
//! appender seals: once per batch of frames (group commit applied to the hash chain,
//! DeWitt et al., SIGMOD 1984), and before any read. Its chain is verified over the frames by
//! the check a restart makes on disk, decoding nothing; validate once, then let
//! readers navigate without building a tree (Langdale and Lemire, *Parsing Gigabytes
//! of JSON per Second*, VLDB J. 2019).
//!
//! Tamper evidence is provided by chaining each record's hash with its predecessor's
//! (the paper cites hardware-backed secure logs, e.g. BBox \[6\]; we model the chain in
//! software — the integrity *property* is what compliance checking relies on). A
//! record's hash is the FNV-1a 64 of its encoded body (`codec::record_hash` from a
//! record's fields): an algorithm and an input this repository pins (golden vectors
//! below), because persisted segments must still verify after a toolchain upgrade —
//! which `std`'s `DefaultHasher` does not promise. The hash has no key, so the chain
//! detects corruption, and any edit that leaves the later hashes as they were, but not
//! a writer of the trail directory who re-records the trail from its anchor:
//! [`crate::SegmentStore::recover`] reads such a trail clean. A keyed chain is
//! ROADMAP's "evidence an adversary cannot rewrite" item.
//! Challenge 6 asks "when can logs safely be pruned? Can logs be offloaded to others for
//! distributed audit?" — [`crate::BatchedAppender::with_retention`] and
//! [`AuditLog::offload`] model both, preserving chain verifiability across the cut by
//! retaining the anchor hash.

use std::fmt;
use std::sync::{MutexGuard, OnceLock};

use parking_lot::Mutex;

use crate::batch::Trail;
use crate::codec::{self, record_hash, FlowCheckedRef, Refusal, FRAME_PREFIX_LEN};
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

/// Frames a log holds unsealed, at most, while no reader keeps its decoded view: the
/// `record` that reaches this many seals them as one batch, four frames folded at a
/// time. Measured on `bus_inline` (2 vCPUs, ten runs each), 16, 64, 256 and 1 024
/// read 1.19, 1.23, 1.22 and 1.21 M sends/s in the median, one seal a record 0.78 M:
/// past 16 the batch no longer shows. 64 is the smallest of the flat part, so a
/// reader seals at most 63 frames, and each 2 500-send window the benchmark rates
/// holds ≈39 seals, not a share that varies from window to window. A bound, and not a
/// seal left to the next read, keeps the hashing inside the `record` calls whose
/// frames it seals.
const SEAL_BATCH: usize = 64;

/// An append-only, hash-chained audit log for one recording authority (node, domain or
/// gateway), held as its records' sealed segment frames.
///
/// The frames are the bytes a [`crate::BatchedAppender`] writes to disk: its `close`
/// hands them over as they are, and [`Self::record`] and [`Self::record_flow_checked`]
/// encode each record the same way and seal them in batches, as an appender does: a
/// `record` leaves its frame unsealed until `SEAL_BATCH` (64) are, and every reader seals
/// what is left first, so no reader sees an unsealed frame. Nothing is decoded until a
/// reader asks for records ([`Self::records`] and the filters over it): the first one
/// decodes them all, and the decoded view is kept — and kept current, each `record`
/// then sealed at once. [`Self::verify_chain`], [`Self::len`] and the hashes read the
/// frames themselves.
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
pub struct AuditLog {
    authority: String,
    /// The frames and the newest sealed one's hash. Readers take `&self` and seal the
    /// tail first, so both sit behind a lock; [`Self::record`] takes `&mut self` and
    /// never locks.
    chain: Mutex<Chain>,
    /// Hash the first retained record chains from (non-zero after pruning/offload).
    anchor_hash: u64,
    /// Id to assign to the next record (ids keep increasing across pruning).
    next_id: u64,
    /// The records decoded, built by the first read that needs them.
    view: OnceLock<Vec<AuditRecord>>,
}

/// A log's frames, oldest first — the ones behind the trail's mark sealed, the ones
/// after it not — and what the next frame sealed chains from.
#[derive(Clone)]
struct Chain {
    trail: Trail,
    /// Hash of the newest sealed frame, or the anchor while none is held.
    head: u64,
}

impl Chain {
    /// Seals the frames appended since the last seal, as one batch (none: nothing
    /// changes).
    fn seal(&mut self) {
        self.head = self.trail.hand_over(self.head).0;
    }
}

/// What a record is made of: encoded straight into its frame, and built into an owned
/// event only for a reader that keeps the decoded view.
trait Evidence {
    fn put(&self, out: &mut Vec<u8>);
    fn into_event(self) -> AuditEvent;
}

impl Evidence for AuditEvent {
    fn put(&self, out: &mut Vec<u8>) {
        codec::put_event(out, self);
    }

    fn into_event(self) -> AuditEvent {
        self
    }
}

impl Evidence for &FlowCheckedRef<'_> {
    fn put(&self, out: &mut Vec<u8>) {
        codec::put_flow_checked(out, self);
    }

    fn into_event(self) -> AuditEvent {
        AuditEvent::FlowChecked {
            source: self.source.to_string(),
            destination: self.destination.to_string(),
            source_context: self.source_context.clone(),
            destination_context: self.destination_context.clone(),
            decision: self.decision.clone(),
            data_item: self.data_item.map(|item| item.to_string()),
        }
    }
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
        Self::from_trail(authority.into(), anchor_hash, next_id, Trail::default())
    }

    /// Rebuilds a log from records that came from outside this process — decoded from a
    /// file, received from another party — so it can be verified, judged and appended
    /// to. Nothing is trusted: each record is framed as it stands, whatever hashes it
    /// claims, and [`Self::verify_chain`] decides whether `records` chain from
    /// `anchor_hash`. The next id follows the last record (0 when there is none; use
    /// [`Self::resume`] to continue an empty span elsewhere).
    pub fn from_records(
        authority: impl Into<String>,
        anchor_hash: u64,
        records: Vec<AuditRecord>,
    ) -> Self {
        let next_id = records.last().map_or(0, |last| last.id.0.saturating_add(1));
        let mut trail = Trail::default();
        records.iter().for_each(|record| trail.push_sealed(record));
        Self::from_trail(authority.into(), anchor_hash, next_id, trail)
    }

    /// The log of `trail`'s frames, all handed over: a closed appender's.
    pub(crate) fn from_trail(
        authority: String,
        anchor_hash: u64,
        next_id: u64,
        trail: Trail,
    ) -> Self {
        let head = trail.head().unwrap_or(anchor_hash);
        let chain = Mutex::new(Chain { trail, head });
        AuditLog { authority, chain, anchor_hash, next_id, view: OnceLock::new() }
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
        self.sealed().head
    }

    /// Appends an event at the given simulated time, returning the new record's id: the
    /// event is encoded into a frame and dropped, and the frame is sealed onto the
    /// chain with its batch — at once if the records were read already, when the event
    /// joins their decoded view.
    pub fn record(&mut self, event: AuditEvent, at_millis: u64) -> RecordId {
        self.record_with(at_millis, event)
    }

    /// Appends a `FlowChecked` record from borrowed fields — the same bytes as
    /// [`Self::record`] of the owned event, with nothing built or cloned unless a
    /// reader keeps the decoded view.
    pub fn record_flow_checked(&mut self, fields: &FlowCheckedRef<'_>, at_millis: u64) -> RecordId {
        self.record_with(at_millis, fields)
    }

    /// The one append: the next id and `evidence`'s bytes become an unsealed frame,
    /// sealed with the batch it completes — or at once, the record joining the view,
    /// while a reader keeps one.
    fn record_with(&mut self, at_millis: u64, evidence: impl Evidence) -> RecordId {
        let id = RecordId(self.next_id);
        let chain = self.chain.get_mut();
        chain.trail.push(id, at_millis, &self.authority, |out| evidence.put(out));
        self.next_id += 1;
        if let Some(records) = self.view.get_mut() {
            // Every frame before this one was sealed when the view was built, or since.
            let previous_hash = chain.head;
            chain.seal();
            let (recorded_by, event, hash) =
                (self.authority.clone(), evidence.into_event(), chain.head);
            records.push(AuditRecord { id, at_millis, recorded_by, event, previous_hash, hash });
        } else if chain.trail.unsealed() == SEAL_BATCH {
            chain.seal();
        }
        id
    }

    /// The chain with every frame sealed: what a reader reads.
    fn sealed(&self) -> MutexGuard<'_, Chain> {
        let mut chain = self.chain.lock();
        chain.seal();
        chain
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.sealed().trail.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All records, oldest first: decoded from the frames by the first call, and kept.
    pub fn records(&self) -> &[AuditRecord] {
        self.view.get_or_init(|| self.decode())
    }

    /// Every frame decoded, oldest first.
    fn decode(&self) -> Vec<AuditRecord> {
        let chain = self.sealed();
        let mut records = Vec::with_capacity(chain.trail.len());
        records.extend(chain.trail.each_frame().map(|frame| {
            codec::decode_record(&frame[FRAME_PREFIX_LEN..]).expect("a log's frames decode")
        }));
        records
    }

    /// Iterates records of a given kind.
    pub fn of_kind(&self, kind: AuditEventKind) -> impl Iterator<Item = &AuditRecord> + '_ {
        self.records().iter().filter(move |r| r.event.kind() == kind)
    }

    /// Records mentioning the given entity name.
    pub fn involving<'a>(&'a self, entity: &'a str) -> impl Iterator<Item = &'a AuditRecord> + 'a {
        self.records().iter().filter(move |r| r.event.entities().contains(&entity))
    }

    /// Records of denied flows — the first thing an investigator looks at.
    pub fn denied_flows(&self) -> impl Iterator<Item = &AuditRecord> + '_ {
        self.records().iter().filter(|r| r.event.is_denied_flow())
    }

    /// Verifies the hash chain from the anchor to the newest record, over the frames:
    /// each is checked as a restart checks a frame on disk (`codec::check_frames`),
    /// and no record is built.
    pub fn verify_chain(&self) -> ChainVerification {
        let chain = self.sealed();
        let (mut head, mut records) = (self.anchor_hash, 0);
        let check = |payload: &[u8]| codec::check_record(payload).map(|links| (links, ()));
        for run in chain.trail.retained() {
            let verdict = codec::check_frames(run, 0..run.len(), check);
            if let Some(((first, previous_hash, _), (_, _, hash))) = verdict.ends {
                if previous_hash != head {
                    return ChainVerification::Broken { at: first };
                }
                head = hash;
            }
            records += verdict.passed.len();
            if let Some((_, refusal)) = verdict.failed {
                let at = match refusal {
                    Refusal::Chain(id) => id,
                    // Frames this log encoded always read back; were one not to, it is
                    // named by its place in the numbering.
                    Refusal::Frame(_) => {
                        RecordId(self.next_id.saturating_sub((chain.trail.len() - records) as u64))
                    }
                };
                return ChainVerification::Broken { at };
            }
        }
        ChainVerification::Intact { records }
    }

    /// Verifies an arbitrary record slice as a chain anchored on `anchor_hash`.
    ///
    /// This is the check [`Self::verify_chain`] makes, over records instead of frames,
    /// so external stores of records (e.g. recovered on-disk segments) can be verified —
    /// including spans that cross storage boundaries, by concatenating the disk prefix
    /// with the in-memory suffix and anchoring on the first segment's anchor.
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
        let chain = self.chain.get_mut();
        chain.seal();
        // What stays keeps the head: the next record sealed here chains onto it.
        let offloaded = Chain { trail: std::mem::take(&mut chain.trail), head: chain.head };
        AuditLog {
            authority: auditor.into(),
            chain: Mutex::new(offloaded),
            anchor_hash: std::mem::replace(&mut self.anchor_hash, chain.head),
            next_id: self.next_id,
            view: std::mem::take(&mut self.view),
        }
    }

    /// Merges the records of several per-node logs into a single timeline ordered by
    /// timestamp (then by recording authority for determinism). The merged view is used
    /// by system-wide compliance checking; per-node chains remain the tamper evidence.
    /// A log whose records were not read yet is decoded for the timeline alone.
    pub fn merged_timeline<'a>(logs: impl IntoIterator<Item = &'a AuditLog>) -> Vec<AuditRecord> {
        let mut all: Vec<AuditRecord> = logs
            .into_iter()
            .flat_map(|l| l.view.get().cloned().unwrap_or_else(|| l.decode()))
            .collect();
        all.sort_by(|a, b| {
            a.at_millis
                .cmp(&b.at_millis)
                .then_with(|| a.recorded_by.cmp(&b.recorded_by))
                .then_with(|| a.id.cmp(&b.id))
        });
        all
    }
}

/// A copy holds the same frames, sealed.
impl Clone for AuditLog {
    fn clone(&self) -> Self {
        AuditLog {
            authority: self.authority.clone(),
            chain: Mutex::new(self.sealed().clone()),
            anchor_hash: self.anchor_hash,
            next_id: self.next_id,
            view: self.view.clone(),
        }
    }
}

/// Two logs are equal when they hold the same frames on the same anchor, under the
/// same authority and numbering: the encoding is canonical, so equal frames are equal
/// records, hashes included.
impl PartialEq for AuditLog {
    fn eq(&self, other: &Self) -> bool {
        if std::ptr::eq(self, other) {
            return true;
        }
        // Locked in address order, so that `a == b` and `b == a` on two threads
        // cannot each hold the lock the other waits for.
        let (first, second) =
            if (self as *const Self) < other { (self, other) } else { (other, self) };
        let (first_chain, second_chain) = (first.sealed(), second.sealed());
        self.authority == other.authority
            && self.anchor_hash == other.anchor_hash
            && self.next_id == other.next_id
            && first_chain.trail.each_frame().eq(second_chain.trail.each_frame())
    }
}

impl fmt::Debug for AuditLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuditLog")
            .field("authority", &self.authority)
            .field("records", &self.records())
            .field("anchor_hash", &self.anchor_hash)
            .field("next_id", &self.next_id)
            .finish()
    }
}

// Readers take `&self` from any thread: the lock around the frames keeps a log `Sync`,
// where a `RefCell` would not.
const _: () = {
    const fn shared<T: Send + Sync>() {}
    shared::<AuditLog>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::CHUNK_BYTES;
    use crate::codec::{decode_record, encode_record, DataItem};
    use crate::BatchedAppender;
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
        let mut records = log.records().to_vec();
        if let AuditEvent::FlowChecked { destination, .. } = &mut records[1].event {
            *destination = "covered-up".into();
        }
        let log = AuditLog::from_records("node-a", 0, records);
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
        let mut records = log.records().to_vec();
        records.remove(1);
        let log = AuditLog::from_records("node-a", 0, records);
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

    /// One append of [`prop_a_log_sealed_per_batch_is_the_log_sealed_per_record`]: an
    /// event, its time, and whether a `FlowChecked` goes in borrowed.
    type Append = (AuditEvent, u64, bool);

    /// A step of a log's life: appends, a read, a clone that both copies then append to
    /// (the copy's own append second), or an offload that appends continue after.
    #[derive(Debug, Clone)]
    enum Step {
        Appends(Vec<Append>),
        Read(Read),
        Clone(Box<(Append, Append)>),
        Offload,
    }

    #[derive(Debug, Clone, Copy)]
    enum Read {
        Len,
        HeadHash,
        Verify,
        Records,
        Equal,
        SelfEqual,
    }

    /// Mostly any event, one in thirty wide enough that a few cross a chunk's line.
    fn append() -> impl Strategy<Value = Append> {
        let wide = AuditEvent::ShardRestarted {
            shard: "s".into(),
            restart: 1,
            cause: "x".repeat(CHUNK_BYTES / 3),
        };
        (crate::codec::tests::event(), 0u64..1000, prop::bool::ANY, 0usize..30).prop_map(
            move |(event, at_millis, borrowed, pick)| {
                (if pick == 0 { wide.clone() } else { event }, at_millis, borrowed)
            },
        )
    }

    fn step() -> impl Strategy<Value = Step> {
        let read = |read| Just(Step::Read(read));
        let appends = || collection::vec(append(), 0..100).prop_map(Step::Appends);
        prop_oneof![
            appends(),
            appends(),
            appends(),
            read(Read::Len),
            read(Read::HeadHash),
            read(Read::Verify),
            read(Read::Records),
            read(Read::Equal),
            read(Read::SelfEqual),
            (append(), append()).prop_map(|pair| Step::Clone(Box::new(pair))),
            Just(Step::Offload),
        ]
    }

    /// `event` as borrowed fields, if it is a `FlowChecked` to go in borrowed.
    fn borrowed((event, _, borrowed): &Append) -> Option<FlowCheckedRef<'_>> {
        match event {
            AuditEvent::FlowChecked {
                source,
                destination,
                source_context,
                destination_context,
                decision,
                data_item,
            } if *borrowed => Some(FlowCheckedRef {
                source,
                destination,
                source_context,
                destination_context,
                decision,
                data_item: data_item.as_deref().map(DataItem::Text),
            }),
            _ => None,
        }
    }

    fn record(log: &mut AuditLog, append: &Append) {
        match borrowed(append) {
            Some(fields) => log.record_flow_checked(&fields, append.1),
            None => log.record(append.0.clone(), append.1),
        };
    }

    /// What a log sealed per record holds after `history`: every append written to a
    /// trail at once, each offload (`None`) a `close`. The logs offloaded, then the one
    /// that stays.
    fn sealed_per_record(history: &[Option<Append>]) -> (Vec<AuditLog>, AuditLog) {
        let mut trail = BatchedAppender::new("n", 0);
        let mut offloaded = Vec::new();
        for step in history {
            match step {
                Some(append) => {
                    match borrowed(append) {
                        Some(fields) => trail.append_flow_checked(&fields, append.1),
                        None => trail.append(append.0.clone(), append.1),
                    }
                    trail.write();
                }
                None => offloaded.push(trail.close()),
            }
        }
        (offloaded, trail.close())
    }

    /// Asks `log` what `read` asks and holds the answer to `expected`'s.
    fn check(log: &AuditLog, expected: &AuditLog, read: Read) -> Result<(), TestCaseError> {
        match read {
            Read::Len => prop_assert_eq!(log.len(), expected.len()),
            Read::HeadHash => prop_assert_eq!(log.head_hash(), expected.head_hash()),
            Read::Verify => prop_assert_eq!(
                log.verify_chain(),
                ChainVerification::Intact { records: expected.len() }
            ),
            Read::Records => prop_assert_eq!(log.records(), expected.records()),
            Read::Equal => prop_assert_eq!(log, expected),
            Read::SelfEqual => {
                let same = log;
                prop_assert!(log.eq(same));
            }
        }
        Ok(())
    }

    proptest! {
        /// The frame walk is the record walk: on a log built by `record` (its records
        /// read now and then between appends), on one an appender's `close` hands over
        /// (pruned by retention, so anchored past genesis), on one `from_records` builds
        /// with one record's `hash` or `previous_hash` changed or on the wrong anchor, and
        /// on both halves of an offload, `verify_chain` over the frames says what
        /// `verify_records` says over the decoded records — the id of a break included.
        #[test]
        fn prop_the_frame_walk_agrees_with_the_record_walk(
            events in collection::vec((crate::codec::tests::event(), 0u64..1000), 1..30),
            retention in 1usize..5,
            read_every in 1usize..6,
            forged in 0usize..1000,
            forge_hash in prop::bool::ANY,
            offload_at in 0usize..1000,
        ) {
            let record_walk = |log: &AuditLog| AuditLog::verify_records(log.anchor_hash(), log.records());
            let mut unread = AuditLog::new("n");
            let mut read = AuditLog::new("n");
            for (n, (event, at_millis)) in events.iter().enumerate() {
                unread.record(event.clone(), *at_millis);
                read.record(event.clone(), *at_millis);
                if n % read_every == 0 {
                    prop_assert_eq!(read.records().len(), n + 1);
                    prop_assert_eq!(&read.records()[n].event, event);
                }
            }
            prop_assert_eq!(read.records(), unread.records());
            prop_assert_eq!(&read, &unread);
            prop_assert_eq!(read.verify_chain(), ChainVerification::Intact { records: events.len() });
            prop_assert_eq!(read.verify_chain(), record_walk(&read));

            let mut appender = BatchedAppender::new("n", 0).with_retention(Some(retention));
            for (event, at_millis) in &events {
                appender.append(event.clone(), *at_millis);
                appender.write();
            }
            let closed = appender.close();
            let kept = events.len() - closed.len();
            prop_assert_eq!(closed.records(), &read.records()[kept..]);
            prop_assert_eq!(closed.anchor_hash(), kept.checked_sub(1).map_or(0, |n| read.records()[n].hash));
            prop_assert_eq!(closed.verify_chain(), ChainVerification::Intact { records: closed.len() });
            prop_assert_eq!(closed.verify_chain(), record_walk(&closed));

            let mut records = read.records().to_vec();
            let at = forged % records.len();
            if forge_hash {
                records[at].hash ^= 1;
            } else {
                records[at].previous_hash ^= 1;
            }
            let forged = AuditLog::from_records("n", 0, records);
            prop_assert_eq!(forged.verify_chain(), ChainVerification::Broken { at: RecordId(at as u64) });
            prop_assert_eq!(forged.verify_chain(), record_walk(&forged));
            let misanchored = AuditLog::from_records("n", 1, closed.records().to_vec());
            prop_assert_eq!(misanchored.verify_chain(), record_walk(&misanchored));
            prop_assert_eq!(misanchored.verify_chain().is_intact(), closed.is_empty());

            let cut = offload_at % (events.len() + 1);
            let mut kept_here = AuditLog::new("n");
            for (event, at_millis) in &events[..cut] {
                kept_here.record(event.clone(), *at_millis);
            }
            let offloaded = kept_here.offload("auditor");
            for (event, at_millis) in &events[cut..] {
                kept_here.record(event.clone(), *at_millis);
            }
            prop_assert_eq!(kept_here.anchor_hash(), offloaded.head_hash());
            prop_assert_eq!(kept_here.head_hash(), read.head_hash());
            for half in [&offloaded, &kept_here] {
                prop_assert!(half.verify_chain().is_intact());
                prop_assert_eq!(half.verify_chain(), record_walk(half));
            }
            prop_assert_eq!((offloaded.len(), kept_here.len()), (cut, events.len() - cut));
        }

        /// A log sealed per batch is the log sealed per record: under any mix of owned and
        /// borrowed appends — enough to cross the seal batch and a chunk's line — reads,
        /// clones appended to on both sides and offloads appended after, every read of
        /// the log says what a trail written after every append says once closed, and
        /// every log offloaded holds what that trail held when it was closed.
        #[test]
        fn prop_a_log_sealed_per_batch_is_the_log_sealed_per_record(
            steps in collection::vec(step(), 1..8),
        ) {
            let mut log = AuditLog::new("n");
            let mut history = Vec::new();
            for step in &steps {
                match step {
                    Step::Appends(appends) => {
                        for append in appends {
                            record(&mut log, append);
                            history.push(Some(append.clone()));
                        }
                    }
                    Step::Read(read) => check(&log, &sealed_per_record(&history).1, *read)?,
                    Step::Clone(pair) => {
                        let (mine, theirs) = pair.as_ref();
                        let mut copy = log.clone();
                        let mut copied = history.clone();
                        record(&mut log, mine);
                        history.push(Some(mine.clone()));
                        record(&mut copy, theirs);
                        copied.push(Some(theirs.clone()));
                        prop_assert_eq!(&copy, &sealed_per_record(&copied).1);
                    }
                    Step::Offload => {
                        let offloaded = log.offload("auditor");
                        history.push(None);
                        let expected = sealed_per_record(&history).0.pop().expect("closed");
                        prop_assert_eq!(offloaded.records(), expected.records());
                        prop_assert_eq!(offloaded.anchor_hash(), expected.anchor_hash());
                        prop_assert_eq!(offloaded.head_hash(), expected.head_hash());
                        prop_assert_eq!(offloaded.next_id(), expected.next_id());
                        prop_assert!(offloaded.verify_chain().is_intact());
                    }
                }
            }
            let expected = sealed_per_record(&history).1;
            for read in [Read::HeadHash, Read::Len, Read::Verify, Read::Equal, Read::Records] {
                check(&log, &expected, read)?;
            }
        }

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
