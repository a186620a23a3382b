//! An append-only audit trail held as its wire bytes.
//!
//! Hash-chaining means every record is serialised and hashed when it is appended; a
//! durable log means it is serialised again when it reaches disk. A
//! [`BatchedAppender`] does both once: an append assigns the record its id and encodes
//! it **as the segment frame it will be on disk** (`len ‖ checksum ‖ body ‖ hash`, see
//! [`crate::segment`]) straight into the trail, its two hashes and checksum left zero.
//! The chain is sealed once per batch, when the trail is next read — written, its
//! head asked for, or decoded: the chain-independent bytes of every new frame are
//! folded four frames at a time, and only each frame's last sixteen bytes are then
//! folded in chain order, giving its `previous_hash`, its hash and (continuing that
//! pass) its checksum (see [`crate::codec`]). The chain is byte for byte the one
//! [`AuditLog::record`] would have produced; what differs is that nothing is built,
//! cloned or freed per record — the two records a dataplane writes per message are
//! encoded from borrowed fields ([`BatchedAppender::append_flow_checked`],
//! [`BatchedAppender::append_message_quenched`]), and an owned [`AuditEvent`]
//! ([`BatchedAppender::append`]) is encoded and dropped.
//!
//! The trail is a queue of fixed-size chunks of whole frames (no locks). Every trail lives
//! the same way: [`BatchedAppender::open`] resumes the chain a segment directory holds,
//! each unit of work ends with [`BatchedAppender::write`], which passes the new frames to
//! the [`SegmentStore`] as the byte runs they already are (a `write_all`; when they are
//! fsynced is the store's decision), and [`BatchedAppender::close`] writes the rest and
//! seals the store. Retention, checked every `capacity` appends (the batch), prunes only
//! frames written, from the front, reusing their chunks. Records exist as structs only for
//! a reader: [`BatchedAppender::into_log`] decodes what is retained.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use legaliot_ifc::StableHasher;
use parking_lot::Mutex;

use crate::codec::{self, FlowCheckedRef, FRAME_PREFIX_LEN};
use crate::event::{AuditEvent, AuditRecord, RecordId};
use crate::log::AuditLog;
use crate::segment::{SegmentStore, Truncation};

/// Bytes after which a chunk takes no further frame. A chunk is allocated with an
/// eighth more, so the frame that crosses the line rarely grows it.
const CHUNK_BYTES: usize = 64 * 1024;

/// A run of whole frames: `bytes[start..end]`. Frames before `start` were pruned;
/// bytes past `end` are a frame whose encoding a panic interrupted.
struct Chunk {
    bytes: Vec<u8>,
    start: usize,
    end: usize,
    frames: usize,
}

impl Chunk {
    fn retained(&self) -> &[u8] {
        &self.bytes[self.start..self.end]
    }
}

/// The frames in `chunks` from `mark` to the end, as one run per chunk.
fn runs(chunks: &VecDeque<Chunk>, (first, offset): (usize, usize)) -> impl Iterator<Item = &[u8]> {
    chunks
        .range(first..)
        .enumerate()
        .map(move |(n, chunk)| &chunk.bytes[if n == 0 { offset } else { chunk.start }..chunk.end])
}

/// The retained frames, oldest first, and the emptied chunks waiting to be refilled.
#[derive(Default)]
struct Trail {
    chunks: VecDeque<Chunk>,
    spare: Vec<Vec<u8>>,
    /// Frames held across all chunks.
    frames: usize,
    /// Of those, the oldest ones already handed over: the frames behind the mark.
    handed: usize,
    /// Where the frame after the last one handed over starts: chunk index, byte offset.
    mark: (usize, usize),
    /// Of the frames held, the oldest ones whose hashes and checksum are written: at
    /// least those behind the mark.
    sealed: usize,
    /// Where the first unsealed frame starts, as `mark` says it.
    seal_mark: (usize, usize),
    /// [`Self::seal`]'s folds, one per unsealed frame, kept from batch to batch.
    folds: Vec<StableHasher>,
}

impl Trail {
    /// Where the next frame is encoded: the end of the newest chunk, or of a new one
    /// once that is full. Nothing written there counts until [`Self::commit`].
    fn writable(&mut self) -> &mut Vec<u8> {
        if self.chunks.back().map_or(true, |chunk| chunk.end >= CHUNK_BYTES) {
            let bytes = self
                .spare
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(CHUNK_BYTES + CHUNK_BYTES / 8));
            self.chunks.push_back(Chunk { bytes, start: 0, end: 0, frames: 0 });
        }
        let chunk = self.chunks.back_mut().expect("a chunk was just ensured");
        chunk.bytes.truncate(chunk.end);
        &mut chunk.bytes
    }

    /// Makes the frame just encoded into [`Self::writable`] part of the trail.
    fn commit(&mut self) {
        let chunk = self.chunks.back_mut().expect("commit follows writable");
        chunk.end = chunk.bytes.len();
        chunk.frames += 1;
        self.frames += 1;
    }

    /// Drops the oldest `frames` frames (at least one, at most all handed over) and
    /// returns the hash of the last one dropped. Whole chunks are emptied for reuse;
    /// the one the cut falls inside just moves its `start`.
    fn prune(&mut self, frames: usize) -> u64 {
        let (mut whole, mut partial) = (0, frames);
        while partial > 0 && self.chunks[whole].frames <= partial {
            partial -= self.chunks[whole].frames;
            whole += 1;
        }
        // The cut inside the first chunk that stays, found by walking `partial` length
        // prefixes.
        let cut = (partial > 0).then(|| {
            let chunk = &self.chunks[whole];
            let mut rest = chunk.retained();
            for _ in 0..partial {
                rest = codec::split_frame(rest).expect("the trail holds whole frames").1;
            }
            chunk.end - rest.len()
        });
        let cut_run = cut.map(|cut| &self.chunks[whole].bytes[self.chunks[whole].start..cut]);
        let last_run = cut_run.unwrap_or_else(|| self.chunks[whole - 1].retained());
        let hash = last_run[last_run.len() - 8..].try_into().expect("a frame ends in its hash");
        for mut chunk in self.chunks.drain(..whole) {
            chunk.bytes.clear();
            self.spare.push(chunk.bytes);
        }
        if let Some(cut) = cut {
            let chunk = &mut self.chunks[0];
            chunk.start = cut;
            chunk.frames -= partial;
        }
        self.frames -= frames;
        self.handed -= frames;
        self.sealed -= frames;
        // Only a chunk a mark ends could go with the ones before it.
        let shift = |(chunk, offset): (usize, usize)| {
            chunk.checked_sub(whole).map_or((0, 0), |chunk| (chunk, offset))
        };
        self.mark = shift(self.mark);
        self.seal_mark = shift(self.seal_mark);
        u64::from_le_bytes(hash)
    }

    /// The mark that lies after every frame held.
    fn end_mark(&self) -> (usize, usize) {
        self.chunks.back().map_or((0, 0), |chunk| (self.chunks.len() - 1, chunk.end))
    }

    /// Seals the frames appended since the last seal, the first chained from `head`,
    /// and returns the newest one's hash. Each frame's bytes up to its `previous_hash`
    /// are folded four frames at a time; then, oldest first, its fold is continued over
    /// the hash before it (the frame's chain hash) and over its own hash (the checksum),
    /// and all three are written into the frame.
    fn seal(&mut self, mut head: u64) -> u64 {
        let unsealed = self.frames - self.sealed;
        if unsealed == 0 {
            return head;
        }
        let folds = &mut self.folds;
        folds.clear();
        folds.resize(unsealed, StableHasher::new());
        let frames = runs(&self.chunks, self.seal_mark).flat_map(|run| {
            std::iter::successors(codec::split_frame(run), |(_, rest)| codec::split_frame(rest))
        });
        let chain_free = frames.map(|(frame, _)| &frame[FRAME_PREFIX_LEN..frame.len() - 16]);
        StableHasher::fold_each(chain_free, |index, fold| folds[index] = fold);
        let (first, offset) = self.seal_mark;
        let mut fold = folds.iter();
        for (n, chunk) in self.chunks.range_mut(first..).enumerate() {
            let mut at = if n == 0 { offset } else { chunk.start };
            while at < chunk.end {
                let len = u32::from_le_bytes(chunk.bytes[at..at + 4].try_into().expect("4 bytes"));
                let frame = &mut chunk.bytes[at..at + FRAME_PREFIX_LEN + len as usize];
                let hashes = frame.len() - 16;
                frame[hashes..hashes + 8].copy_from_slice(&head.to_le_bytes());
                let chained =
                    fold.next().expect("a fold per frame").write_bytes(&head.to_le_bytes());
                head = chained.finish();
                frame[hashes + 8..].copy_from_slice(&head.to_le_bytes());
                let checksum = chained.write_bytes(&head.to_le_bytes()).finish();
                frame[4..FRAME_PREFIX_LEN].copy_from_slice(&checksum.to_le_bytes());
                at += frame.len();
            }
        }
        self.sealed = self.frames;
        self.seal_mark = self.end_mark();
        head
    }
}

/// Appends audit records to a hash-chained trail of encoded frames, pruning it to a
/// retention bound in batches.
///
/// ```
/// use legaliot_audit::{AuditEvent, BatchedAppender};
/// let mut appender = BatchedAppender::new("shard-0", 128);
/// appender.append(
///     AuditEvent::PolicyFired { policy: "p".into(), trigger: "t".into(), actions: 1 },
///     10,
/// );
/// assert_eq!(appender.len(), 1);
/// let log = appender.into_log(); // final flush included
/// assert_eq!(log.len(), 1);
/// assert!(log.verify_chain().is_intact());
/// ```
pub struct BatchedAppender {
    authority: String,
    trail: Trail,
    /// Hash the oldest retained record chains from.
    anchor_hash: u64,
    /// Hash of the newest sealed record: what the next one sealed chains from.
    head_hash: u64,
    next_id: u64,
    /// Appends since the last batch ended.
    buffered: usize,
    capacity: usize,
    retention: Option<usize>,
    /// Where a durable trail writes; shared so that its owner's engine can read stats.
    store: Option<Arc<Mutex<SegmentStore>>>,
}

impl fmt::Debug for BatchedAppender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchedAppender")
            .field("authority", &self.authority)
            .field("len", &self.trail.frames)
            .field("anchor_hash", &self.anchor_hash)
            .field("next_id", &self.next_id)
            .field("buffered", &self.buffered)
            .field("capacity", &self.capacity)
            .field("retention", &self.retention)
            .field("handed", &self.trail.handed)
            .field("sealed", &self.trail.sealed)
            .finish()
    }
}

impl BatchedAppender {
    /// Creates an appender starting a fresh chain recorded by `authority`, flushing
    /// (checking retention) whenever `capacity` records have been appended since the
    /// last flush. A capacity of 1 checks after every record.
    pub fn new(authority: impl Into<String>, capacity: usize) -> Self {
        Self::over(AuditLog::new(authority), capacity)
    }

    /// Creates an appender continuing an existing log (e.g. one resumed from a
    /// persisted head, or after an offload): its anchor, numbering and records carry
    /// over, the records re-encoded exactly as they are — sealed already, so never
    /// rewritten, whatever hashes they claim.
    pub fn over(log: AuditLog, capacity: usize) -> Self {
        let mut trail = Trail::default();
        for record in log.records() {
            codec::put_record_frame(trail.writable(), record);
            trail.commit();
        }
        trail.sealed = trail.frames;
        trail.seal_mark = trail.end_mark();
        BatchedAppender {
            authority: log.authority().to_string(),
            trail,
            anchor_hash: log.anchor_hash(),
            head_hash: log.head_hash(),
            next_id: log.next_id(),
            buffered: 0,
            capacity: capacity.max(1),
            retention: None,
            store: None,
        }
    }

    /// [`Self::new`] with [`Self::with_retention`], durable with `segments` — a
    /// directory, its records per segment and group commit ([`SegmentStore::reopen`]):
    /// the chain resumes where the directory's ends, [`Self::write`] appends there, and
    /// the torn tails truncated are returned. Without, it writes nowhere.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors re-opening the directory.
    pub fn open(
        authority: impl Into<String>,
        capacity: usize,
        retention: Option<usize>,
        segments: Option<(std::path::PathBuf, usize, Option<usize>)>,
    ) -> std::io::Result<(Self, Vec<Truncation>)> {
        let mut trail = Self::new(authority, capacity).with_retention(retention);
        let Some((dir, max_segment_records, group_commit)) = segments else {
            return Ok((trail, Vec::new()));
        };
        let (store, reopened) = SegmentStore::reopen(dir, max_segment_records, group_commit)?;
        (trail.anchor_hash, trail.head_hash) = (reopened.head_hash, reopened.head_hash);
        trail.next_id = reopened.next_id;
        trail.store = Some(Arc::new(Mutex::new(store)));
        Ok((trail, reopened.truncations))
    }

    /// The segment store a durable trail writes to.
    pub fn store(&self) -> Option<&Arc<Mutex<SegmentStore>>> {
        self.store.as_ref()
    }

    /// Bounds in-memory retention: once the trail holds `2 × keep` records at a flush,
    /// it is pruned back to the newest `keep`, or to the oldest not handed over if that
    /// is older, re-anchored on the last pruned record's hash (the chain stays verifiable;
    /// the hysteresis keeps pruning amortised O(1) per record). `None` keeps everything.
    pub fn with_retention(mut self, keep: Option<usize>) -> Self {
        self.retention = keep.map(|k| k.max(1));
        self
    }

    /// Appends an owned event: encoded like any other record, then dropped.
    pub fn append(&mut self, event: AuditEvent, at_millis: u64) {
        self.append_with(at_millis, |out| codec::put_event(out, &event));
    }

    /// Appends a `FlowChecked` record from borrowed fields — the same bytes as
    /// [`Self::append`] of the owned event, with nothing built or cloned.
    pub fn append_flow_checked(&mut self, fields: &FlowCheckedRef<'_>, at_millis: u64) {
        self.append_with(at_millis, |out| codec::put_flow_checked(out, fields));
    }

    /// Appends a `MessageQuenched` record from borrowed names — the same bytes as
    /// [`Self::append`] of the owned event.
    pub fn append_message_quenched<'a>(
        &mut self,
        source: &str,
        destination: &str,
        message_type: &str,
        attributes: impl Iterator<Item = &'a str> + Clone,
        at_millis: u64,
    ) {
        self.append_with(at_millis, |out| {
            codec::put_message_quenched(out, source, destination, message_type, attributes)
        });
    }

    /// The one append: the next id and `event`'s bytes become an unsealed frame at the
    /// end of the trail, chained when the batch is sealed. The frame counts only once
    /// it is whole, so a panic inside `event` leaves the trail as it was.
    fn append_with(&mut self, at_millis: u64, event: impl FnOnce(&mut Vec<u8>)) {
        let id = RecordId(self.next_id);
        codec::put_unsealed_frame(self.trail.writable(), id, at_millis, &self.authority, event);
        self.trail.commit();
        self.next_id += 1;
        self.buffered += 1;
        if self.buffered >= self.capacity {
            self.buffered = 0;
            self.flush();
        }
    }

    /// Applies the retention bound (if configured) to the frames already handed over;
    /// every `capacity`-th append ends a batch with it.
    pub fn flush(&mut self) {
        let Some(keep) = self.retention else { return };
        let frames = self.trail.frames.saturating_sub(keep).min(self.trail.handed);
        if self.trail.frames >= keep.saturating_mul(2) && frames > 0 {
            self.anchor_hash = self.trail.prune(frames);
        }
    }

    /// Seals the frames appended since the last hand-over and hands them to `write` —
    /// runs of whole segment frames for [`SegmentStore::append_frames`], oldest first,
    /// one per chunk from the mark's — then applies retention ([`Self::flush`]), which
    /// may now free them. `write` is not called when no frame is new.
    pub(crate) fn hand_over(&mut self, write: impl FnOnce(&mut dyn Iterator<Item = &[u8]>)) {
        if self.trail.handed == self.trail.frames {
            return;
        }
        self.head_hash = self.trail.seal(self.head_hash);
        let trail = &mut self.trail;
        let end = trail.end_mark();
        let from = std::mem::replace(&mut trail.mark, end);
        trail.handed = trail.frames;
        write(&mut runs(&trail.chunks, from));
        self.flush();
    }

    /// Ends a unit of work: hands the frames appended since the last write to the
    /// segment store of a durable trail, one `write_all` per run, then applies retention.
    pub fn write(&mut self) {
        let store = self.store.clone();
        self.hand_over(|runs| {
            let Some(store) = store else { return };
            let mut store = store.lock();
            for run in runs {
                store.append_frames(run);
            }
        });
    }

    /// Writes the rest, seals the segment store and decodes what is retained, as
    /// [`Self::into_log`] does, leaving the appender empty where its chain stands.
    pub fn close(&mut self) -> AuditLog {
        self.write();
        if let Some(store) = &self.store {
            store.lock().seal();
        }
        self.decode()
    }

    /// The configured auto-flush threshold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.trail.frames
    }

    /// Whether no record is retained.
    pub fn is_empty(&self) -> bool {
        self.trail.frames == 0
    }

    /// The hash of the newest record (the anchor while there is none) — what the next
    /// record will chain from. Seals the frames not yet sealed to learn it.
    pub fn head_hash(&mut self) -> u64 {
        self.head_hash = self.trail.seal(self.head_hash);
        self.head_hash
    }

    /// Seals and flushes, then decodes the retained frames into the log a reader works
    /// with, releasing each chunk as it is decoded.
    pub fn into_log(mut self) -> AuditLog {
        self.decode()
    }

    /// [`Self::into_log`] in place: the appender is left empty, anchored on its head.
    fn decode(&mut self) -> AuditLog {
        self.head_hash = self.trail.seal(self.head_hash);
        self.flush();
        let mut records: Vec<AuditRecord> = Vec::with_capacity(self.trail.frames);
        while let Some(chunk) = self.trail.chunks.pop_front() {
            let mut rest = chunk.retained();
            while let Some((frame, after)) = codec::split_frame(rest) {
                let record = codec::decode_record(&frame[FRAME_PREFIX_LEN..]);
                records.push(record.expect("the appender's own frames decode"));
                rest = after;
            }
        }
        self.trail = Trail::default();
        let anchor = std::mem::replace(&mut self.anchor_hash, self.head_hash);
        if records.is_empty() {
            // `from_records` numbers an empty log from 0; this chain may be further on.
            return AuditLog::resume(self.authority.clone(), anchor, self.next_id);
        }
        AuditLog::from_records(self.authority.clone(), anchor, records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::event as any_event;
    use crate::codec::DataItem;
    use crate::event::AuditEventKind;
    use legaliot_ifc::{can_flow, SecurityContext, StableHasher};
    use proptest::prelude::*;

    /// The plain FNV-1a 64 of a frame payload, what its stored checksum must be.
    fn checksum(payload: &[u8]) -> u64 {
        StableHasher::new().write_bytes(payload).finish()
    }

    fn event(n: usize) -> AuditEvent {
        AuditEvent::PolicyFired { policy: format!("p{n}"), trigger: "t".into(), actions: n }
    }

    /// The records in `run`, each frame's stored checksum checked against the plain
    /// FNV-1a of its payload on the way.
    fn decoded(run: &[u8]) -> Vec<AuditRecord> {
        let mut records = Vec::new();
        let mut rest = run;
        while let Some((frame, after)) = codec::split_frame(rest) {
            let payload = &frame[FRAME_PREFIX_LEN..];
            let stored = u64::from_le_bytes(frame[4..FRAME_PREFIX_LEN].try_into().unwrap());
            assert_eq!(stored, checksum(payload), "the derived checksum is the payload's");
            records.push(codec::decode_record(payload).expect("a frame holds one record"));
            rest = after;
        }
        assert!(rest.is_empty(), "a run is whole frames");
        records
    }

    /// What `appender` hands over, as one run.
    fn hand_over(appender: &mut BatchedAppender) -> Vec<u8> {
        let mut handed = Vec::new();
        appender.hand_over(|runs| runs.for_each(|run| handed.extend_from_slice(run)));
        handed
    }

    #[test]
    fn auto_flush_at_capacity_preserves_order_and_chain() {
        let mut appender = BatchedAppender::new("shard-0", 4);
        for n in 0..10 {
            appender.append(event(n), n as u64);
        }
        // 10 events, capacity 4: two auto-flushes have happened, two appends since.
        assert_eq!(appender.len(), 10);
        assert_eq!(appender.buffered, 2);
        assert_eq!(appender.capacity(), 4);
        let log = appender.into_log();
        assert_eq!(log.len(), 10);
        assert!(log.verify_chain().is_intact());
        // Order is arrival order.
        let times: Vec<u64> = log.records().iter().map(|r| r.at_millis).collect();
        assert_eq!(times, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn batched_chain_equals_unbatched_chain() {
        let mut unbatched = AuditLog::new("node");
        let mut appender = BatchedAppender::new("node", 8);
        for n in 0..20 {
            unbatched.record(event(n), n as u64);
            appender.append(event(n), n as u64);
        }
        assert_eq!(appender.head_hash(), unbatched.head_hash());
        let batched = appender.into_log();
        // Identical inputs produce the identical tamper-evident chain.
        assert_eq!(batched, unbatched);
    }

    #[test]
    fn over_resumes_an_existing_log() {
        let mut log = AuditLog::new("gateway");
        log.record(event(0), 0);
        let mut appender = BatchedAppender::over(log, 2);
        appender.append(event(1), 1);
        appender.flush();
        let log = appender.into_log();
        assert_eq!(log.len(), 2);
        assert!(log.verify_chain().is_intact());
        assert_eq!(log.of_kind(AuditEventKind::PolicyFired).count(), 2);

        // A resumed, still empty chain keeps its place: anchor and numbering.
        let mut resumed = BatchedAppender::over(AuditLog::resume("gateway", 7, 40), 2);
        assert_eq!((resumed.len(), resumed.head_hash()), (0, 7));
        assert_eq!(resumed.into_log(), AuditLog::resume("gateway", 7, 40));
    }

    #[test]
    fn retention_bounds_the_log_after_flushes() {
        let mut appender = BatchedAppender::new("n", 4).with_retention(Some(6));
        for n in 0..40 {
            appender.append(event(n), n as u64);
            appender.hand_over(|_| {});
        }
        let log = appender.into_log();
        assert!(log.len() <= 12, "retention keeps the log near 2x its bound, got {}", log.len());
        assert!(log.verify_chain().is_intact());
        // The newest records survive.
        assert_eq!(log.records().last().unwrap().at_millis, 39);
    }

    #[test]
    fn no_record_is_both_pruned_and_unpersisted() {
        let mut appender = BatchedAppender::new("n", 4).with_retention(Some(6));
        let mut persisted = Vec::new();
        for n in 0..40 {
            appender.append(event(n), n as u64);
            // Every record not yet handed over is still retained.
            assert!(appender.len() >= n + 1 - persisted.len());
            if n % 5 == 4 {
                persisted.extend(decoded(&hand_over(&mut appender)));
            }
        }
        persisted.extend(decoded(&hand_over(&mut appender)));
        let log = appender.into_log();
        assert!(log.verify_chain().is_intact());

        // Every record ever appended was handed over, as the full chain from genesis,
        // and what retention kept is its newest part, anchored on the last one freed.
        assert!(log.len() < 40, "retention must have pruned something");
        assert_eq!(persisted.len(), 40, "the hand-overs must cover every appended record");
        assert!(AuditLog::verify_records(0, &persisted).is_intact());
        let ids: Vec<u64> = persisted.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, (0..40).collect::<Vec<u64>>());
        let kept = 40 - log.len();
        assert_eq!(log.records(), &persisted[kept..]);
        assert_eq!(log.anchor_hash(), persisted[kept - 1].hash);
    }

    #[test]
    fn debug_shows_the_mark_not_contents() {
        let mut appender = BatchedAppender::new("n", 2);
        appender.append(event(0), 0);
        hand_over(&mut appender);
        let s = format!("{appender:?}");
        assert!(s.contains("handed: 1"), "{s}");
        assert!(!s.contains("p0"), "{s}");
    }

    /// Retention smaller than a batch waits for the hand-over: with room for one
    /// record and a flush every 11, no frame is freed before it has been handed over,
    /// and a trail that is never handed over keeps every frame.
    #[test]
    fn no_frame_is_freed_before_it_is_handed_over() {
        let mut unbatched = AuditLog::new("n");
        let mut appender = BatchedAppender::new("n", 11).with_retention(Some(1));
        let mut kept = BatchedAppender::new("n", 11).with_retention(Some(1));
        let mut handed = Vec::new();
        for n in 0..100 {
            unbatched.record(event(n), n as u64);
            appender.append(event(n), n as u64);
            kept.append(event(n), n as u64);
            assert!(appender.len() >= n + 1 - handed.len(), "freed before its hand-over");
            if n % 7 == 6 {
                handed.extend(decoded(&hand_over(&mut appender)));
            }
        }
        handed.extend(decoded(&hand_over(&mut appender)));
        assert_eq!(handed, unbatched.records());
        appender.flush();
        assert_eq!(appender.len(), 1, "all handed over: retention keeps its one");
        let log = appender.into_log();
        assert_eq!(log.records(), &handed[99..]);
        assert_eq!(log.anchor_hash(), handed[98].hash);
        assert_eq!(kept.into_log(), unbatched);
    }

    #[test]
    fn capacity_one_is_unbatched() {
        let mut appender = BatchedAppender::new("n", 0); // clamped to 1
        appender.append(event(0), 0);
        assert_eq!(appender.buffered, 0);
        assert_eq!(appender.len(), 1);
    }

    /// Enough bytes for several chunks, one record larger than a chunk among them:
    /// hand-overs that span chunks, and prunes that release whole chunks, cut inside
    /// one and refill the released ones, still hand over exactly the unbatched chain
    /// and leave its newest part in the log.
    #[test]
    fn pruning_across_chunks_hands_over_the_unbatched_chain() {
        const RECORDS: usize = 6000;
        let wide = |n: usize| AuditEvent::ShardRestarted {
            shard: "s".into(),
            restart: n as u64,
            cause: "x".repeat(if n == 2500 { 2 * CHUNK_BYTES } else { 40 }),
        };
        let mut unbatched = AuditLog::new("n");
        let mut appender = BatchedAppender::new("n", 64).with_retention(Some(700));
        let mut handed = Vec::new();
        for n in 0..RECORDS {
            unbatched.record(wide(n), n as u64);
            appender.append(wide(n), n as u64);
            assert!(appender.len() < 1400 + 64);
            if n % 100 == 99 {
                handed.extend(decoded(&hand_over(&mut appender)));
            }
        }
        // 6000 records of ≈80 B went through ≈1500 records' worth of chunks.
        let chunks = appender.trail.chunks.len() + appender.trail.spare.len();
        assert!((2..=8).contains(&chunks), "{chunks} chunks allocated");
        appender.flush();
        handed.extend(decoded(&hand_over(&mut appender)));
        let log = appender.into_log();
        assert_eq!(handed, unbatched.records());
        let kept = RECORDS - log.len();
        assert_eq!(log.records(), &handed[kept..]);
        assert_eq!(log.anchor_hash(), handed[kept - 1].hash);
        assert_eq!((log.head_hash(), log.next_id()), (unbatched.head_hash(), RECORDS as u64));
    }

    /// A frame counts once it is whole: an append that panics while encoding leaves
    /// no record, and its bytes are gone before the next one is written.
    #[test]
    fn a_panic_while_encoding_leaves_no_partial_record() {
        let mut appender = BatchedAppender::new("n", 8);
        appender.append(event(0), 0);
        let poisoned = ["a", "b"].into_iter().map(|name| match name {
            "b" => panic!("an attribute name that cannot be read"),
            name => name,
        });
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            appender.append_message_quenched("s", "d", "t", poisoned, 1);
        }));
        assert!(outcome.is_err());
        assert_eq!(appender.len(), 1);
        appender.append(event(2), 2);

        let mut expected = AuditLog::new("n");
        expected.record(event(0), 0);
        expected.record(event(2), 2);
        assert_eq!(appender.into_log(), expected);
    }

    /// The borrowed writers are the owned events' encoders: same bytes, same chain —
    /// a message's data item included, whatever its timestamp's digit count.
    #[test]
    fn borrowed_appends_write_the_owned_events_bytes() {
        let source = SecurityContext::from_names(["medical", "ann"], ["hosp-dev"]);
        let contexts = [SecurityContext::from_names(["medical"], ["consent"]), source.clone()];
        let mut owned = BatchedAppender::new("n", 64);
        let mut borrowed = BatchedAppender::new("n", 64);
        for destination in &contexts {
            let decision = can_flow(&source, destination);
            for at_millis in [0, 9, 10, 1_234_567_890_123, u64::MAX] {
                let items = [
                    (None, None),
                    (Some(DataItem::Text("reading-1")), Some("reading-1".to_string())),
                    (
                        Some(DataItem::Message { message_type: "sensor-reading", at_millis }),
                        Some(format!("sensor-reading@{at_millis}")),
                    ),
                ];
                for (data_item, text) in items {
                    let fields = FlowCheckedRef {
                        source: "sensor",
                        destination: "analyser",
                        source_context: &source,
                        destination_context: destination,
                        decision: &decision,
                        data_item,
                    };
                    borrowed.append_flow_checked(&fields, at_millis);
                    let event = AuditEvent::FlowChecked {
                        source: "sensor".into(),
                        destination: "analyser".into(),
                        source_context: source.clone(),
                        destination_context: destination.clone(),
                        decision: decision.clone(),
                        data_item: text,
                    };
                    owned.append(event, at_millis);
                }
            }
        }
        for attributes in [vec![], vec!["name"], vec!["name", "", "雪"]] {
            borrowed.append_message_quenched("s", "d", "t", attributes.iter().copied(), 5);
            let event = AuditEvent::MessageQuenched {
                source: "s".into(),
                destination: "d".into(),
                message_type: "t".into(),
                attributes: attributes.iter().map(|name| name.to_string()).collect(),
            };
            owned.append(event, 5);
        }
        assert_eq!(hand_over(&mut borrowed), hand_over(&mut owned));
        assert_eq!(borrowed.len(), 2 * 5 * 3 + 3);
        let log = borrowed.into_log();
        assert!(log.verify_chain().is_intact());
        assert_eq!(log, owned.into_log());
    }

    /// The trail's lifecycle: opened on a directory it resumes the chain the directory
    /// holds, each write puts the new frames there, and closing seals the store and
    /// leaves the appender empty where its chain stands — so two lifetimes leave one
    /// dense chain on disk, and each close returns that chain's retained suffix. Opened
    /// on no directory, a trail writes nowhere.
    #[test]
    fn an_opened_trail_resumes_writes_and_seals_its_directory() {
        let dir = std::env::temp_dir().join(format!("legaliot-trail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut unbatched = AuditLog::new("n");
        for life in 0..2 {
            let segments = Some((dir.clone(), 4, Some(3)));
            let (mut trail, truncations) =
                BatchedAppender::open("n", 2, Some(2), segments).unwrap();
            assert!(truncations.is_empty());
            assert_eq!(trail.head_hash(), unbatched.head_hash(), "resumed at the disk's head");
            for n in 0..5 {
                unbatched.record(event(n), (10 * life + n) as u64);
                trail.append(event(n), (10 * life + n) as u64);
                trail.write();
            }
            let store = Arc::clone(trail.store().expect("opened on a directory"));
            let log = trail.close();
            assert!(log.len() <= 4 && log.verify_chain().is_intact(), "{}", log.len());
            assert_eq!(log.records(), &unbatched.records()[unbatched.len() - log.len()..]);
            let stats = store.lock().stats().clone();
            assert_eq!((stats.records_persisted, stats.unsynced_bytes), (5, 0));
            assert!(trail.is_empty());
            assert_eq!(trail.head_hash(), unbatched.head_hash(), "closed where the chain stands");
        }
        let recovered = SegmentStore::recover(&dir).unwrap();
        assert!(recovered.is_clean(), "{:?}", recovered.truncations);
        assert_eq!(recovered.records, unbatched.records());

        let (mut nowhere, truncations) = BatchedAppender::open("n", 2, None, None).unwrap();
        assert!(nowhere.store().is_none() && truncations.is_empty());
        nowhere.append(event(0), 0);
        nowhere.write();
        let mut expected = AuditLog::new("n");
        expected.record(event(0), 0);
        assert_eq!(nowhere.close(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Mostly any event, now and then one wide enough to cross a chunk's line or to
    /// fill chunks of its own.
    fn any_event_or_wide() -> impl Strategy<Value = AuditEvent> {
        (any_event(), 0usize..10).prop_map(|(event, pick)| match pick {
            0 | 1 => AuditEvent::ShardRestarted {
                shard: "s".into(),
                restart: 1,
                cause: "x".repeat([CHUNK_BYTES / 3, 2 * CHUNK_BYTES][pick]),
            },
            _ => event,
        })
    }

    proptest! {
        /// Sealing writes what the unbatched log holds and rewrites nothing it did not
        /// append: over an existing log one of whose records claims a hash that does not
        /// chain, with records that cross chunks, a small retention bound, hand-overs at
        /// any cadence and the head asked for in between, the trail hands over
        /// `encode_record`'s frame of every record `AuditLog::record` chains — the
        /// existing ones exactly as `put_record_frame` wrote them.
        #[test]
        fn prop_sealing_hands_over_the_unbatched_frames(
            existing in collection::vec((any_event(), 0u64..1000), 0..4),
            tamper in 0u64..u64::MAX,
            events in collection::vec((any_event_or_wide(), 0u64..1000), 0..30),
            capacity in 1usize..12,
            retention in prop_oneof![Just(None), (1usize..4).prop_map(Some)],
            every in 1usize..8,
            peek in 1usize..5,
        ) {
            let mut records = AuditLog::new("n");
            for (event, at_millis) in &existing {
                records.record(event.clone(), *at_millis);
            }
            let mut records = records.records().to_vec();
            let count = records.len().max(1);
            if let Some(record) = records.get_mut(tamper as usize % count) {
                record.hash ^= tamper | 1;
            }
            let mut written = Vec::new();
            records.iter().for_each(|record| codec::put_record_frame(&mut written, record));
            let mut unbatched = AuditLog::from_records("n", 0, records);
            let mut appender =
                BatchedAppender::over(unbatched.clone(), capacity).with_retention(retention);
            let mut handed = Vec::new();
            for (n, (event, at_millis)) in events.iter().enumerate() {
                unbatched.record(event.clone(), *at_millis);
                appender.append(event.clone(), *at_millis);
                if n % peek == 0 {
                    prop_assert_eq!(appender.head_hash(), unbatched.head_hash());
                }
                if n % every == 0 {
                    handed.extend(hand_over(&mut appender));
                }
            }
            handed.extend(hand_over(&mut appender));
            prop_assert_eq!(&handed[..written.len()], written.as_slice());
            let mut expected = Vec::new();
            for record in unbatched.records() {
                let mut payload = Vec::new();
                codec::encode_record(record, &mut payload);
                expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                expected.extend_from_slice(&checksum(&payload).to_le_bytes());
                expected.extend_from_slice(&payload);
            }
            prop_assert!(handed == expected, "the handed-over frames are not the log's");
            prop_assert_eq!(appender.head_hash(), unbatched.head_hash());
        }
    }

    proptest! {
        /// The trail is the log, byte for byte: any sequence over all 13 variants, any
        /// batch size, with or without a (small) retention bound, handed over at any
        /// cadence, hands over every record as a frame — `encode_record`'s bytes
        /// behind the payload's own checksum — in the order `AuditLog::record` would
        /// have chained them, and leaves that log's newest records, anchor, head and
        /// numbering.
        #[test]
        fn prop_the_trail_is_the_unbatched_log(
            events in collection::vec((any_event(), 0u64..1000), 0..40),
            capacity in 1usize..12,
            retention in prop_oneof![Just(None), (1usize..6).prop_map(Some)],
            every in 1usize..8,
        ) {
            let mut unbatched = AuditLog::new("shard-é");
            let mut appender = BatchedAppender::new("shard-é", capacity).with_retention(retention);
            let mut handed = Vec::new();
            for (n, (event, at_millis)) in events.iter().enumerate() {
                unbatched.record(event.clone(), *at_millis);
                appender.append(event.clone(), *at_millis);
                prop_assert_eq!(appender.head_hash(), unbatched.head_hash());
                if n % every == 0 {
                    handed.extend(hand_over(&mut appender));
                }
            }
            handed.extend(hand_over(&mut appender));
            let log = appender.into_log();
            if retention.is_none() {
                prop_assert_eq!(&log, &unbatched);
            }
            let mut expected_frames = Vec::new();
            for record in unbatched.records() {
                let start = expected_frames.len();
                expected_frames.extend_from_slice(&[0; FRAME_PREFIX_LEN]);
                codec::encode_record(record, &mut expected_frames);
                let payload = expected_frames[start + FRAME_PREFIX_LEN..].to_vec();
                expected_frames[start..start + 4]
                    .copy_from_slice(&(payload.len() as u32).to_le_bytes());
                expected_frames[start + 4..start + FRAME_PREFIX_LEN]
                    .copy_from_slice(&checksum(&payload).to_le_bytes());
            }
            prop_assert_eq!(&handed, &expected_frames);
            let all = decoded(&handed);
            prop_assert_eq!(all.as_slice(), unbatched.records());

            let kept = all.len() - log.len();
            prop_assert_eq!(log.records(), &all[kept..]);
            prop_assert_eq!(log.anchor_hash(), kept.checked_sub(1).map_or(0, |n| all[n].hash));
            prop_assert_eq!(log.head_hash(), unbatched.head_hash());
            prop_assert_eq!(log.next_id(), unbatched.next_id());
            prop_assert!(log.verify_chain().is_intact());
            let ids: Vec<u64> = all.iter().map(|record| record.id.0).collect();
            prop_assert_eq!(ids, (0..events.len() as u64).collect::<Vec<u64>>());
            prop_assert!(AuditLog::verify_records(0, &all).is_intact());
        }
    }
}
