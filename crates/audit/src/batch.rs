//! An append-only audit trail held as its wire bytes.
//!
//! Hash-chaining means every record is serialised and hashed when it is appended; a
//! durable log means it is serialised again when it reaches disk. A
//! [`BatchedAppender`] does both once: an append assigns the record its id and encodes
//! it **as the segment frame it will be on disk** (`len ‖ checksum ‖ body ‖ hash`, see
//! [`crate::segment`]) straight into the trail, its two hashes and checksum left zero.
//! The chain is sealed once per batch, when the batch is written: the chain-independent
//! bytes of every new frame are folded four frames at a time, and only each frame's
//! last sixteen bytes are then folded in chain order, giving its `previous_hash`, its
//! hash and (continuing that pass) its checksum (see [`crate::codec`]). The chain is
//! byte for byte the one [`AuditLog::record`] would have produced; what differs is that
//! nothing is built, cloned or freed per record — the two records a dataplane writes
//! per message are encoded from borrowed fields
//! ([`BatchedAppender::append_flow_checked`],
//! [`BatchedAppender::append_message_quenched`]), and an owned [`AuditEvent`]
//! ([`BatchedAppender::append`]) is encoded and dropped.
//!
//! The trail is a queue of fixed-size chunks of whole frames (no locks). Every trail lives
//! one way: [`BatchedAppender::open`] resumes the chain a segment directory holds (or
//! starts one that is written nowhere), each unit of work ends with
//! [`BatchedAppender::write`], which seals the new frames and passes them to the
//! [`SegmentStore`] as the byte runs they already are (a `write_all`; when they are
//! fsynced is the store's decision), and [`BatchedAppender::close`] writes the rest,
//! seals the store and hands the retained chunks to the [`AuditLog`] it returns, as
//! they are: a record is decoded only when a reader of that log asks for it.
//! Retention is applied as each write ends, and prunes only frames written, from the
//! front, reusing their chunks. The same chunks hold an [`AuditLog`]'s frames, so a
//! trail is one representation in RAM and on disk.

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
pub(crate) const CHUNK_BYTES: usize = 64 * 1024;

/// A run of whole frames: `bytes[start..end]`. Frames before `start` were pruned;
/// bytes past `end` are a frame whose encoding a panic interrupted.
#[derive(Clone)]
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

/// Each frame of `runs` of whole frames, in order.
fn split_frames<'a>(runs: impl Iterator<Item = &'a [u8]>) -> impl Iterator<Item = &'a [u8]> {
    runs.flat_map(|run| {
        std::iter::successors(codec::split_frame(run), |(_, rest)| codec::split_frame(rest))
            .map(|(frame, _)| frame)
    })
}

/// The retained frames, oldest first, and the emptied chunks waiting to be refilled:
/// an appender's trail, and the records of an [`AuditLog`], which holds the frames an
/// appender hands it on `close` and seals the records it appends in batches, as an
/// appender does.
#[derive(Default, Clone)]
pub(crate) struct Trail {
    chunks: VecDeque<Chunk>,
    spare: Vec<Vec<u8>>,
    /// Frames held across all chunks.
    frames: usize,
    /// Of those, the oldest ones already handed over: the frames behind the mark.
    handed: usize,
    /// Where the frame after the last one handed over starts: chunk index, byte offset.
    /// The frames behind it are sealed; the ones after it are not.
    mark: (usize, usize),
    /// [`Self::seal`]'s folds, one per frame not handed over, kept from batch to batch.
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

    /// Appends a new record's frame, unsealed: numbered `id`, its event written by
    /// `event`. The frame counts only once it is whole, so a panic inside `event`
    /// leaves the trail as it was.
    pub(crate) fn push(
        &mut self,
        id: RecordId,
        at_millis: u64,
        recorded_by: &str,
        event: impl FnOnce(&mut Vec<u8>),
    ) {
        codec::put_unsealed_frame(self.writable(), id, at_millis, recorded_by, event);
        self.commit();
    }

    /// Appends the frame of an existing record as it stands, hashes included, and
    /// counts it handed over: it is sealed already.
    pub(crate) fn push_sealed(&mut self, record: &AuditRecord) {
        codec::put_record_frame(self.writable(), record);
        self.commit();
        self.mark = self.end_mark();
        self.handed = self.frames;
    }

    /// Frames held.
    pub(crate) fn len(&self) -> usize {
        self.frames
    }

    /// Frames appended since the last hand-over: unsealed.
    pub(crate) fn unsealed(&self) -> usize {
        self.frames - self.handed
    }

    /// Each chunk's frames, oldest first, as one run of whole frames per chunk.
    pub(crate) fn retained(&self) -> impl DoubleEndedIterator<Item = &[u8]> {
        self.chunks.iter().map(Chunk::retained)
    }

    /// Every frame held, oldest first.
    pub(crate) fn each_frame(&self) -> impl Iterator<Item = &[u8]> {
        split_frames(self.retained())
    }

    /// The hash the newest frame ends in, if a frame is held.
    pub(crate) fn head(&self) -> Option<u64> {
        let run = self.retained().rev().find(|run| !run.is_empty())?;
        Some(u64::from_le_bytes(run[run.len() - 8..].try_into().expect("a frame ends in its hash")))
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
        // Only a chunk the mark ends could go with the ones before it.
        self.mark = self.mark.0.checked_sub(whole).map_or((0, 0), |chunk| (chunk, self.mark.1));
        u64::from_le_bytes(hash)
    }

    /// The mark that lies after every frame held.
    fn end_mark(&self) -> (usize, usize) {
        self.chunks.back().map_or((0, 0), |chunk| (self.chunks.len() - 1, chunk.end))
    }

    /// Seals the frames after the mark, the first chained from `head`, and returns the
    /// newest one's hash. Each frame's bytes up to its `previous_hash` are folded four
    /// frames at a time (a lone frame on its own); then, oldest first, its fold is
    /// continued over the hash before it (the frame's chain hash) and over its own hash
    /// (the checksum), and all three are written into the frame.
    fn seal(&mut self, mut head: u64) -> u64 {
        let folds = &mut self.folds;
        folds.clear();
        folds.resize(self.frames - self.handed, StableHasher::new());
        {
            let mut chain_free = split_frames(runs(&self.chunks, self.mark))
                .map(|frame| &frame[FRAME_PREFIX_LEN..frame.len() - 16]);
            if let [only] = folds.as_mut_slice() {
                // A batch of one, as a log with a decoded view seals each record it
                // appends: no lanes to fill.
                *only = StableHasher::new().write_bytes(chain_free.next().expect("one frame"));
            } else {
                StableHasher::fold_each(chain_free, |index, fold| folds[index] = fold);
            }
        }
        let (first, offset) = self.mark;
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
        head
    }

    /// Seals the frames after the mark, the first chained from `head`, and moves the
    /// mark past them: they are handed over. Returns the newest frame's hash and where
    /// the frames just handed over start.
    pub(crate) fn hand_over(&mut self, head: u64) -> (u64, (usize, usize)) {
        let (head, end) = (self.seal(head), self.end_mark());
        let from = std::mem::replace(&mut self.mark, end);
        self.handed = self.frames;
        (head, from)
    }
}

/// Appends audit records to a hash-chained trail of encoded frames, sealing them and
/// pruning the trail to a retention bound each time it is written.
///
/// ```
/// use legaliot_audit::{AuditEvent, BatchedAppender};
/// let mut appender = BatchedAppender::new("shard-0", 128);
/// appender.append(
///     AuditEvent::PolicyFired { policy: "p".into(), trigger: "t".into(), actions: 1 },
///     10,
/// );
/// assert_eq!(appender.len(), 1);
/// let log = appender.close(); // written (nowhere), sealed and handed over
/// assert_eq!(log.len(), 1);
/// assert!(log.verify_chain().is_intact());
/// ```
pub struct BatchedAppender {
    authority: String,
    trail: Trail,
    /// Hash the oldest retained record chains from.
    anchor_hash: u64,
    /// Hash of the newest record handed over: what the next one sealed chains from.
    head_hash: u64,
    next_id: u64,
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
            .field("retention", &self.retention)
            .field("handed", &self.trail.handed)
            .finish()
    }
}

impl BatchedAppender {
    /// Creates an appender starting a fresh chain recorded by `authority`, written
    /// nowhere. Inert: `capacity` — a trail is sealed and pruned only when it is
    /// written — kept while `benchmark/` names it.
    pub fn new(authority: impl Into<String>, _capacity: usize) -> Self {
        BatchedAppender {
            authority: authority.into(),
            trail: Trail::default(),
            anchor_hash: 0,
            head_hash: 0,
            next_id: 0,
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
        retention: Option<usize>,
        segments: Option<(std::path::PathBuf, usize, Option<usize>)>,
    ) -> std::io::Result<(Self, Vec<Truncation>)> {
        let mut trail = Self::new(authority, 0).with_retention(retention);
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

    /// Bounds in-memory retention: once the trail holds `2 × keep` records when it is
    /// written, it is pruned by a whole multiple of `keep` to between `keep` and
    /// `2 × keep` of the newest, re-anchored on the last pruned record's hash (the chain
    /// stays verifiable; the hysteresis keeps pruning amortised O(1) per record). Whole
    /// multiples make what stays depend on the number of records alone, not on where
    /// the writes fell. `None` keeps everything.
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
    /// end of the trail, chained when it is next written. The frame counts only once
    /// it is whole, so a panic inside `event` leaves the trail as it was.
    fn append_with(&mut self, at_millis: u64, event: impl FnOnce(&mut Vec<u8>)) {
        self.trail.push(RecordId(self.next_id), at_millis, &self.authority, event);
        self.next_id += 1;
    }

    /// Applies the retention bound (if configured) to the frames already handed over,
    /// as every hand-over ends.
    pub fn flush(&mut self) {
        let Some(keep) = self.retention else { return };
        let frames = (self.trail.frames.saturating_sub(keep) / keep * keep).min(self.trail.handed);
        if frames > 0 {
            self.anchor_hash = self.trail.prune(frames);
        }
    }

    /// Seals the frames appended since the last hand-over and hands them to `write` —
    /// runs of whole segment frames for [`SegmentStore::append_frames`], oldest first,
    /// one per chunk from the mark's — then applies retention ([`Self::flush`]), which
    /// may now free them. `write` is not called when no frame is new.
    pub(crate) fn hand_over(&mut self, write: impl FnOnce(&mut dyn Iterator<Item = &[u8]>)) {
        if self.trail.unsealed() == 0 {
            return;
        }
        let from;
        (self.head_hash, from) = self.trail.hand_over(self.head_hash);
        write(&mut runs(&self.trail.chunks, from));
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

    /// Ends the trail: writes the rest, seals the segment store and, when it wrote
    /// records since the directory's checkpoint, leaves a new one there (so the next
    /// restart reads only what comes after it; see [`SegmentStore::reopen`]), and hands
    /// what is retained — every frame of it handed over and sealed — to the log a reader
    /// works with, chunks and all: nothing is copied or decoded. The appender is left
    /// empty, anchored on its head, so what is appended next continues the chain and the
    /// next close returns the log after this one.
    pub fn close(&mut self) -> AuditLog {
        self.write();
        if let Some(store) = &self.store {
            store.lock().close();
        }
        let Trail { chunks, frames, handed, mark, .. } = std::mem::take(&mut self.trail);
        let trail = Trail { chunks, frames, handed, mark, ..Trail::default() };
        let anchor = std::mem::replace(&mut self.anchor_hash, self.head_hash);
        AuditLog::from_trail(self.authority.clone(), anchor, self.next_id, trail)
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.trail.frames
    }

    /// Whether no record is retained.
    pub fn is_empty(&self) -> bool {
        self.trail.frames == 0
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

    /// Appending past the capacity `new` was given flushes nothing (the capacity is
    /// inert): every append is retained until the trail is closed, and the log closed
    /// is intact, in arrival order, and the same whatever the capacity.
    #[test]
    fn auto_flush_at_capacity_preserves_order_and_chain() {
        let logs: Vec<AuditLog> = [4, 64]
            .into_iter()
            .map(|capacity| {
                let mut appender = BatchedAppender::new("shard-0", capacity);
                for n in 0..10 {
                    appender.append(event(n), n as u64);
                }
                assert_eq!(appender.len(), 10);
                appender.close()
            })
            .collect();
        let log = &logs[0];
        assert_eq!(log.len(), 10);
        assert!(log.verify_chain().is_intact());
        // Order is arrival order.
        let times: Vec<u64> = log.records().iter().map(|r| r.at_millis).collect();
        assert_eq!(times, (0..10).collect::<Vec<u64>>());
        assert_eq!(logs[1], *log);
    }

    /// A capacity of one, or of zero, is the unbatched log: each append is retained at
    /// once, and the trail closes to the chain [`AuditLog::record`] builds.
    #[test]
    fn capacity_one_is_unbatched() {
        for capacity in [0, 1] {
            let mut unbatched = AuditLog::new("n");
            let mut appender = BatchedAppender::new("n", capacity);
            for n in 0..3 {
                unbatched.record(event(n), n as u64);
                appender.append(event(n), n as u64);
                assert_eq!(appender.len(), n + 1);
            }
            assert_eq!(appender.close(), unbatched);
        }
    }

    #[test]
    fn batched_chain_equals_unbatched_chain() {
        let mut unbatched = AuditLog::new("node");
        let mut appender = BatchedAppender::new("node", 8);
        for n in 0..20 {
            unbatched.record(event(n), n as u64);
            appender.append(event(n), n as u64);
        }
        let batched = appender.close();
        // Identical inputs produce the identical tamper-evident chain.
        assert_eq!(batched, unbatched);
    }

    /// A trail opened on a directory continues the chain it holds: anchor and numbering
    /// carry over, and the directory then holds one chain. Opened again with nothing
    /// appended, it keeps its place.
    #[test]
    fn open_resumes_an_existing_chain() {
        let dir = std::env::temp_dir().join(format!("legaliot-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || BatchedAppender::open("gateway", None, Some((dir.clone(), 8, None))).unwrap();
        let (mut first, _) = open();
        first.append(event(0), 0);
        let head = first.close().head_hash();
        let (mut appender, truncations) = open();
        assert!(truncations.is_empty());
        assert_eq!(appender.head_hash, head, "resumed at the disk's head");
        appender.append(event(1), 1);
        appender.flush();
        let log = appender.close();
        assert_eq!((log.anchor_hash(), log.len()), (head, 1));

        let recovered = SegmentStore::recover(&dir).unwrap();
        let all = AuditLog::from_records("gateway", recovered.initial_anchor, recovered.records);
        assert_eq!(all.len(), 2);
        assert!(all.verify_chain().is_intact());
        assert_eq!(all.of_kind(AuditEventKind::PolicyFired).count(), 2);
        assert_eq!(log.records(), &all.records()[1..]);

        // A resumed, still empty chain keeps its place: anchor and numbering.
        let (mut resumed, _) = open();
        assert_eq!((resumed.len(), resumed.head_hash), (0, all.head_hash()));
        assert_eq!(resumed.close(), AuditLog::resume("gateway", all.head_hash(), 2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_bounds_the_log_after_flushes() {
        let mut appender = BatchedAppender::new("n", 4).with_retention(Some(6));
        for n in 0..40 {
            appender.append(event(n), n as u64);
            appender.hand_over(|_| {});
        }
        let log = appender.close();
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
        let log = appender.close();
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
    /// record, no frame is freed before it has been handed over, and a trail that is
    /// never handed over keeps every frame until it is closed.
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
        let log = appender.close();
        assert_eq!(log.records(), &handed[99..]);
        assert_eq!(log.anchor_hash(), handed[98].hash);
        assert_eq!(kept.len(), 100, "never handed over: nothing freed");
        assert_eq!(kept.close(), log, "closing hands over, then retention applies");
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
            // Pruned back to 700 at a hand-over once 1 400 are held; 100 appends between.
            assert!(appender.len() < 1400 + 100);
            if n % 100 == 99 {
                handed.extend(decoded(&hand_over(&mut appender)));
            }
        }
        // 6000 records of ≈80 B went through ≈1500 records' worth of chunks.
        let chunks = appender.trail.chunks.len() + appender.trail.spare.len();
        assert!((2..=8).contains(&chunks), "{chunks} chunks allocated");
        appender.flush();
        handed.extend(decoded(&hand_over(&mut appender)));
        let log = appender.close();
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
        assert_eq!(appender.close(), expected);
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
        let log = borrowed.close();
        assert!(log.verify_chain().is_intact());
        assert_eq!(log, owned.close());
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
            let (mut trail, truncations) = BatchedAppender::open("n", Some(2), segments).unwrap();
            assert!(truncations.is_empty());
            assert_eq!(trail.head_hash, unbatched.head_hash(), "resumed at the disk's head");
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
            assert_eq!(trail.head_hash, unbatched.head_hash(), "closed where the chain stands");
        }
        let recovered = SegmentStore::recover(&dir).unwrap();
        assert!(recovered.is_clean(), "{:?}", recovered.truncations);
        assert_eq!(recovered.records, unbatched.records());

        let (mut nowhere, truncations) = BatchedAppender::open("n", None, None).unwrap();
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
        /// Sealing writes what the unbatched log holds: with records that cross chunks,
        /// a small retention bound and hand-overs at any cadence, the trail hands over
        /// `encode_record`'s frame of every record `AuditLog::record` chains, and closes
        /// at its head.
        #[test]
        fn prop_sealing_hands_over_the_unbatched_frames(
            events in collection::vec((any_event_or_wide(), 0u64..1000), 0..30),
            retention in prop_oneof![Just(None), (1usize..4).prop_map(Some)],
            every in 1usize..8,
        ) {
            let mut unbatched = AuditLog::new("n");
            let mut appender = BatchedAppender::new("n", 0).with_retention(retention);
            let mut handed = Vec::new();
            for (n, (event, at_millis)) in events.iter().enumerate() {
                unbatched.record(event.clone(), *at_millis);
                appender.append(event.clone(), *at_millis);
                if n % every == 0 {
                    handed.extend(hand_over(&mut appender));
                }
            }
            handed.extend(hand_over(&mut appender));
            let mut expected = Vec::new();
            for record in unbatched.records() {
                let mut payload = Vec::new();
                codec::encode_record(record, &mut payload);
                expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                expected.extend_from_slice(&checksum(&payload).to_le_bytes());
                expected.extend_from_slice(&payload);
            }
            prop_assert!(handed == expected, "the handed-over frames are not the log's");
            prop_assert_eq!(appender.close().head_hash(), unbatched.head_hash());
        }
    }

    proptest! {
        /// The trail is the log, byte for byte: any sequence over all 13 variants, any
        /// batch size, with or without a (small) retention bound, handed over at any
        /// cadence, hands over every record as a frame — `encode_record`'s bytes
        /// behind the payload's own checksum — in the order `AuditLog::record` would
        /// have chained them, and leaves that log's newest records, anchor, head and
        /// numbering: the same ones a trail written after every append leaves.
        #[test]
        fn prop_the_trail_is_the_unbatched_log(
            events in collection::vec((any_event(), 0u64..1000), 0..40),
            capacity in 1usize..12,
            retention in prop_oneof![Just(None), (1usize..6).prop_map(Some)],
            every in 1usize..8,
        ) {
            let mut unbatched = AuditLog::new("shard-é");
            let mut appender = BatchedAppender::new("shard-é", capacity).with_retention(retention);
            let mut every_append = BatchedAppender::new("shard-é", 0).with_retention(retention);
            let mut handed = Vec::new();
            for (n, (event, at_millis)) in events.iter().enumerate() {
                unbatched.record(event.clone(), *at_millis);
                appender.append(event.clone(), *at_millis);
                every_append.append(event.clone(), *at_millis);
                every_append.write();
                if n % every == 0 {
                    handed.extend(hand_over(&mut appender));
                    prop_assert_eq!(appender.head_hash, unbatched.head_hash());
                }
            }
            handed.extend(hand_over(&mut appender));
            let log = appender.close();
            prop_assert_eq!(&every_append.close(), &log);
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
