//! Crash-safe on-disk segments for audit records.
//!
//! In-memory retention ([`crate::BatchedAppender::with_retention`]) keeps enforcement
//! points bounded, and a [`SegmentStore`] keeps the whole history: records stream into
//! append-only segment files of length-prefixed, checksummed frames each time the trail
//! that owns the store writes ([`crate::BatchedAppender::write`], at the end of each
//! unit of work), before retention may free them, and each segment's header carries
//! the previous segment's anchor hash, so the on-disk prefix and the in-memory suffix
//! verify as **one** hash chain (the records recovered here followed by the log's own,
//! from the first segment's anchor).
//!
//! # On-disk format (version 2)
//!
//! ```text
//! segment-00000003.seg
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header (24 bytes)                                            │
//! │   magic  b"LGAS"          4 bytes                            │
//! │   version u32 LE          4 bytes  (2)                       │
//! │   sequence u64 LE         8 bytes  (must match the filename) │
//! │   anchor  u64 LE          8 bytes  (hash the first frame's   │
//! │                                     record chains from)      │
//! ├──────────────────────────────────────────────────────────────┤
//! │ frame 0                                                      │
//! │   len      u32 LE         4 bytes  (payload length)          │
//! │   checksum u64 LE         8 bytes  (FNV-1a 64 of payload)    │
//! │   payload  len bytes      (one record, [`crate::codec`])     │
//! ├──────────────────────────────────────────────────────────────┤
//! │ frame 1 … frame N                                            │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Beside the segments, a directory a trail closed cleanly holds one small file,
//! `checkpoint` (its name, and that of `checkpoint.tmp` it is written through, sort
//! before every segment's):
//!
//! ```text
//! checkpoint (76 bytes, every field u64 LE)
//!   magic b"LGCP"                    4 bytes
//!   first                            the oldest segment listed
//!   sequence                         the segment holding the newest record
//!   length                           that segment's bytes up to the record's end
//!   segment_records                  its records
//!   last_frame                       offset of the newest record's frame
//!   head_hash, next_id               the chain after that record
//!   records                          the records from `first` on
//!   checksum                         FNV-1a 64 of the 68 bytes before it
//! ```
//!
//! The payload is the record's canonical binary encoding — the same bytes its chain
//! hash is computed over, see [`crate::codec`] for the field-by-field layout. Version
//! 1 (a JSON payload, chain hashes over `Debug` strings under `std`'s unpinned
//! `DefaultHasher`) is retired: its hashes cannot be re-verified, so no reader for it
//! exists. [`SegmentStore::recover`] leaves a version-1 segment untouched and reports
//! it.
//!
//! # Writing
//!
//! There is one write path, the store's `append_frames`, and it takes frames that
//! already exist: a [`crate::BatchedAppender`] opened on the directory
//! ([`crate::BatchedAppender::open`]) holds its records *as* these frames — encoded,
//! hashed and checksummed once per batch (see [`crate::codec`]) — and at each write
//! hands the new ones over as the byte runs they are. The store walks the length
//! prefixes, to probe the `segment.write` failpoint once per record and to rotate at
//! the right ones, and gives every contiguous stretch to the file in one `write_all`
//! straight from the caller's bytes. [`SegmentStore::append`] frames its one
//! [`AuditRecord`] into a store-owned buffer, empty again when it returns, and takes
//! the same path: no bytes wait in user space between calls.
//!
//! Every fsync is decided here; a caller only hands over bytes. A rotation and the seal
//! fsync the segment they close, [`SegmentStore::sync`] fsyncs on request, and a store
//! re-opened with a group commit of `n` ([`SegmentStore::reopen`]) ends an
//! `append_frames` call with an fsync once `n` records were written since the last one.
//! A restart continues the newest segment while it has room ([`SegmentStore::reopen`]),
//! so incarnations that write little share one file. Creating a segment fsyncs the
//! directory too, and so does creating a store's directory its parent: syncing a file
//! does not sync its directory entry (fsync(2)). These directory fsyncs are not timed
//! in [`SegmentStats::fsync`], which counts the segments' own.
//!
//! A clean close of a durable trail ([`crate::BatchedAppender::close`]) seals the
//! store — its fsync first — and then, when records were written since the
//! directory's checkpoint, replaces the checkpoint with one for the chain's new end:
//! written to `checkpoint.tmp`, fsynced, renamed over `checkpoint`, and the directory
//! fsynced. A close that wrote nothing writes no file and fsyncs nothing, so the old
//! checkpoint stays valid. A rotation writes none.
//!
//! # Crash model and recovery
//!
//! A process kill keeps every record `append_frames` has written. A power cut keeps
//! what was fsynced: with a group commit of `n`, all but fewer than `n` of them.
//!
//! Writes can tear: a crash mid-frame leaves a short or checksum-corrupt tail.
//! [`SegmentStore::recover`] scans a directory, truncates each torn tail back to the
//! last complete, checksum-clean, chain-linked frame, and reports **exactly** what
//! was discarded ([`Truncation`]) — a loss is never silent.
//!
//! The scan checks each frame from its bytes, hashing them once: its lengths, then one
//! FNV-1a fold over the record's body — that state is the record's chain hash, and
//! continued over the stored hash it is the frame checksum, the frame's construction
//! run backwards — then the codec's canonical-form walk, and the chain link (previous
//! hash against the chain head, stored hash against the fold). The codec's canonical
//! form (equal bytes ⇔ equal records) is what makes a hash over the bytes the hash of
//! the record they encode. [`SegmentStore::recover`], which returns the records, runs
//! that walk in the mode that builds them; a restart ([`SegmentStore::reopen`]) runs
//! the same scan in the mode that copies nothing and decodes no record — each body
//! hashed once, nothing allocated per record.
//!
//! Only a frame's length and its link to the record before depend on the frames
//! before it, so the scan reads each segment whole on the calling thread, walks all its
//! length prefixes, and checks its frames in shares of a few hundred on every core
//! (four bodies folded at once on each, [`legaliot_ifc::StableHasher::fold_each`])
//! before it reads the verdicts back in chain order: the first frame that fails
//! decides the truncation, as it would one frame at a time, and no frame after it is
//! accepted.
//!
//! [`SegmentStore::recover`], the auditor's path, scans every segment from the first
//! and ignores the checkpoint. A restart ([`SegmentStore::reopen`]) runs the same scan
//! but starts it where a checkpoint that agrees with the directory says the chain ends,
//! and reads only the bytes after it: the tail an incarnation killed after the last
//! clean close wrote. The checkpoint agrees when no `checkpoint.tmp` is left, the
//! segments `first..=sequence` are listed with headers the scan would accept (a
//! zero-length tombstone is skipped, as the scan skips it), the vouched segment is at
//! least `length` bytes, and its frame at `last_frame` — one small read — passes its
//! checksum, reads as a record and hashes to `head_hash`, numbered `next_id - 1`.
//! Anything else — no checkpoint, a torn or garbled one, a leftover temporary file, a
//! shorter or missing segment, a hash that differs — falls back to the full scan.
//!
//! The trust rule: the bytes a checkpoint vouches for were fsynced before it was
//! renamed in, and under this crash model only unsynced bytes tear, so a crash cannot
//! change them. A bit flipped inside a vouched prefix is therefore not caught by a
//! restart; [`SegmentStore::recover`] still reports it. Nor does a restart re-check the
//! anchors of the segments before the vouched one: the close that wrote the checkpoint
//! had a scan behind it that reached every file, and a store whose scan stopped at a
//! file it kept whole writes none. A checkpoint only ever vouches for bytes that are on
//! disk unchanged: a truncation that cuts a segment at or below what it vouches for —
//! by either scan — removes it, and fsyncs the directory, before anything is appended.
//!
//! Otherwise [`SegmentStore::recover`] and [`SegmentStore::reopen`] differ only in the
//! function that reads a frame's record.
//!
//! After the first injected or real IO failure the store *wedges*: subsequent appends
//! are counted ([`SegmentStats::records_dropped`]) rather than written, modelling a
//! crashed process whose disk state stays a clean prefix.
//!
//! Faults are injected by the stack's one failpoint schedule
//! ([`legaliot_obs::FailpointRegistry`], attached with [`SegmentStore::set_failpoints`]):
//! the store probes `segment.write` before every record's write (once per record, in
//! order, batched or not), `segment.sync` before every fsync and `segment.rotate`
//! before opening every new segment (not the tail a re-opened store continues). A
//! probe sleeps through a delay; a short write or an IO error it returns wedges the
//! store. With no registry each probe is one `Option` branch.

use std::cell::OnceCell;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use legaliot_ifc::StableHasher;
use legaliot_obs::{FailpointRegistry, FailpointSite, FaultKind, HistogramSnapshot};

use crate::codec::{
    check_frames, check_record, decode_record, put_record_frame, split_frame, ReadRecord,
    RecordLinks, Refusal, Verdict, FRAME_PREFIX_LEN,
};
use crate::event::AuditRecord;
use crate::log::{AuditLog, ChainVerification};

/// Magic bytes opening every segment file.
const MAGIC: [u8; 4] = *b"LGAS";
/// On-disk format version.
const VERSION: u32 = 2;
/// The retired JSON-framed format: recognised so it is never mistaken for damage.
const RETIRED_VERSION: u32 = 1;
/// Fixed header length: magic + version + sequence + anchor.
const HEADER_LEN: usize = 4 + 4 + 8 + 8;
/// Upper bound on a frame payload; anything larger is treated as corruption.
const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;
/// The file a clean close leaves, and the one it is written through first. Both sort
/// before every `segment-` name.
const CHECKPOINT: &str = "checkpoint";
const CHECKPOINT_TMP: &str = "checkpoint.tmp";
/// Magic bytes opening a checkpoint.
const CHECKPOINT_MAGIC: [u8; 4] = *b"LGCP";
/// A checkpoint's length: magic, eight fields and the checksum.
const CHECKPOINT_LEN: usize = 4 + 8 * 8 + 8;

/// Where a directory's chain ends, as a clean close left it: the segments
/// `first..=sequence`, the last of them up to `length` bytes, whose frame at
/// `last_frame` holds the newest record. A restart that trusts it starts its scan there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Checkpoint {
    first: u64,
    sequence: u64,
    length: u64,
    segment_records: u64,
    last_frame: u64,
    head_hash: u64,
    next_id: u64,
    /// Records in the chain from `first` on.
    records: u64,
}

impl Checkpoint {
    fn fields(&self) -> [u64; 8] {
        [
            self.first,
            self.sequence,
            self.length,
            self.segment_records,
            self.last_frame,
            self.head_hash,
            self.next_id,
            self.records,
        ]
    }

    fn encode(&self) -> [u8; CHECKPOINT_LEN] {
        let mut bytes = [0u8; CHECKPOINT_LEN];
        bytes[..4].copy_from_slice(&CHECKPOINT_MAGIC);
        for (field, value) in bytes[4..].chunks_exact_mut(8).zip(self.fields()) {
            field.copy_from_slice(&value.to_le_bytes());
        }
        let checksum = StableHasher::new().write_bytes(&bytes[..CHECKPOINT_LEN - 8]).finish();
        bytes[CHECKPOINT_LEN - 8..].copy_from_slice(&checksum.to_le_bytes());
        bytes
    }

    /// The checkpoint `bytes` are, or `None` when they are not exactly one.
    fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != CHECKPOINT_LEN || bytes[..4] != CHECKPOINT_MAGIC {
            return None;
        }
        let (body, checksum) = bytes.split_at(CHECKPOINT_LEN - 8);
        if StableHasher::new().write_bytes(body).finish().to_le_bytes() != checksum {
            return None;
        }
        let mut fields = body[4..]
            .chunks_exact(8)
            .map(|field| u64::from_le_bytes(field.try_into().expect("eight bytes")));
        let mut field = || fields.next().expect("eight fields");
        Some(Checkpoint {
            first: field(),
            sequence: field(),
            length: field(),
            segment_records: field(),
            last_frame: field(),
            head_hash: field(),
            next_id: field(),
            records: field(),
        })
    }

    /// The checkpoint in `dir`; `None` when there is none or it cannot be read as one.
    fn read(dir: &Path) -> Option<Self> {
        fs::read(dir.join(CHECKPOINT)).ok().and_then(|bytes| Self::decode(&bytes))
    }

    /// Replaces `dir`'s checkpoint with this one: written to `checkpoint.tmp`, fsynced,
    /// renamed over `checkpoint`, and the directory fsynced.
    fn write(&self, dir: &Path) -> io::Result<()> {
        let tmp = dir.join(CHECKPOINT_TMP);
        let mut file = File::create(&tmp)?;
        file.write_all(&self.encode())?;
        file.sync_all()?;
        fs::rename(&tmp, dir.join(CHECKPOINT))?;
        sync_dir(dir)
    }

    /// Removes `dir`'s checkpoint, if there is one, and fsyncs the directory.
    fn remove(dir: &Path) -> io::Result<()> {
        match fs::remove_file(dir.join(CHECKPOINT)) {
            Ok(()) => sync_dir(dir),
            Err(err) if err.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(err) => Err(err),
        }
    }

    /// Whether cutting segment `sequence` to `offset` bytes cuts what this vouches for.
    fn is_cut_by(&self, sequence: u64, offset: u64) -> bool {
        sequence < self.sequence || (sequence == self.sequence && offset <= self.length)
    }

    /// Whether `files`, a directory's segments in sequence order, agree with this
    /// checkpoint — `first..=sequence` listed, each header one the scan accepts, the
    /// vouched segment at least `length` bytes and its frame at `last_frame` the chain's
    /// head — and, if so, the anchor the first segment chains from.
    fn agrees(&self, files: &[(u64, PathBuf)]) -> Option<u64> {
        let vouched = &files[..files.partition_point(|(sequence, _)| *sequence <= self.sequence)];
        let listed = vouched.first()?.0 == self.first
            && vouched.last()?.0 == self.sequence
            && vouched.len() as u64 == self.sequence - self.first + 1;
        if !listed {
            return None;
        }
        let mut anchor = None;
        for (sequence, path) in vouched {
            let mut file = File::open(path).ok()?;
            let length = file.metadata().ok()?.len();
            if length == 0 && *sequence < self.sequence {
                continue;
            }
            let mut header = [0u8; HEADER_LEN];
            file.read_exact(&mut header).ok()?;
            let field = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().unwrap());
            let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
            if header[..4] != MAGIC || version != VERSION || field(8) != *sequence {
                return None;
            }
            anchor.get_or_insert(field(16));
            if *sequence == self.sequence {
                if length < self.length {
                    return None;
                }
                let (id, _, hash) = frame_links(&mut file, self.last_frame, self.length)?;
                if hash != self.head_hash || id.0.checked_add(1) != Some(self.next_id) {
                    return None;
                }
            }
        }
        anchor
    }
}

/// The links of the record in the one frame that `file` holds from `at` to `end`, if
/// that frame passes its checksum and reads as a record whose bytes hash to its stored
/// hash: one small read. What a close vouches for and a restart trusts.
fn frame_links(file: &mut File, at: u64, end: u64) -> Option<RecordLinks> {
    let len = usize::try_from(end.checked_sub(at)?).ok()?;
    if at < HEADER_LEN as u64 || len > FRAME_PREFIX_LEN + MAX_FRAME_LEN as usize {
        return None;
    }
    let mut frame = vec![0; len];
    file.seek(SeekFrom::Start(at)).ok()?;
    file.read_exact(&mut frame).ok()?;
    if frame_len(&frame).ok()? != len {
        return None;
    }
    let read: ReadRecord<()> = |payload| check_record(payload).map(|links| (links, ()));
    match check_frames(&frame, 0..len, read) {
        Verdict { ends: Some((_, links)), failed: None, .. } => Some(links),
        _ => None,
    }
}

/// Fsyncs the directory `dir`, so the entries created, renamed or removed in it survive
/// a power cut: syncing a file does not sync its directory entry (fsync(2)).
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Creates `dir` and whatever parents it lacks, fsyncing the parent of each directory
/// created.
fn create_dir(dir: &Path) -> io::Result<()> {
    if dir.is_dir() {
        return Ok(());
    }
    let parent = match dir.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    create_dir(parent)?;
    match fs::create_dir(dir) {
        Ok(()) => sync_dir(parent),
        Err(err) if err.kind() == io::ErrorKind::AlreadyExists && dir.is_dir() => Ok(()),
        Err(err) => Err(err),
    }
}

/// The bytes of the file at `path` from `offset` on: one seek, one read.
fn read_from(path: &Path, offset: u64) -> io::Result<Vec<u8>> {
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(offset))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// A store's fsync latency distribution: a view over the workspace's one histogram
/// type, [`HistogramSnapshot`] (nanosecond samples, recorded by the store under its
/// owner's lock; [`SegmentStats::merge`] merges it bucket-wise). The name and its three
/// accessors are what `benchmark/` reads; everything else goes through `.0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsyncHistogram(pub HistogramSnapshot);

impl FsyncHistogram {
    /// Number of fsyncs recorded.
    pub fn count(&self) -> u64 {
        self.0.count()
    }

    /// The slowest fsync observed, in nanoseconds; 0 when nothing was recorded.
    pub fn max_ns(&self) -> u64 {
        self.0.max().unwrap_or(0)
    }

    /// Conservative (upper-bound) 99th-percentile fsync latency in nanoseconds;
    /// 0 when nothing was recorded.
    pub fn p99_ns(&self) -> u64 {
        self.0.p99()
    }
}

/// Counters describing one store's (or several merged stores') segment IO.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Segment files opened for writing (including the currently open one). A segment
    /// a re-opened store continues counts once, when its first append opens it.
    pub segments_written: u64,
    /// Segment files sealed (synced and closed) cleanly.
    pub segments_sealed: u64,
    /// Record frames written completely.
    pub records_persisted: u64,
    /// Total bytes written (headers + complete frames).
    pub bytes_written: u64,
    /// Bytes covered by a successful fsync.
    pub bytes_fsynced: u64,
    /// Bytes written but not yet (or never) fsynced — non-zero after an unclean
    /// teardown.
    pub unsynced_bytes: u64,
    /// Records the store *dropped* because it was wedged by an earlier fault. Never
    /// silent: this is the store-side count of unpersisted history.
    pub records_dropped: u64,
    /// Fsync latency distribution.
    pub fsync: FsyncHistogram,
}

impl SegmentStats {
    /// Folds another store's stats into this one (for per-shard aggregation).
    pub fn merge(&mut self, other: &SegmentStats) {
        self.segments_written += other.segments_written;
        self.segments_sealed += other.segments_sealed;
        self.records_persisted += other.records_persisted;
        self.bytes_written += other.bytes_written;
        self.bytes_fsynced += other.bytes_fsynced;
        self.unsynced_bytes += other.unsynced_bytes;
        self.records_dropped += other.records_dropped;
        self.fsync.0.merge(&other.fsync.0);
    }
}

/// An append-only store of audit records in checksummed, chain-anchored segment
/// files. See the [module docs](self) for the format and crash model.
pub struct SegmentStore {
    dir: PathBuf,
    max_segment_records: usize,
    file: Option<File>,
    /// The newest segment file and its records, when a re-opened store continues it:
    /// opened for appending by the first append, and only then.
    tail: Option<(PathBuf, usize)>,
    next_sequence: u64,
    records_in_segment: usize,
    /// Bytes of the segment written last, and the offset of its newest frame.
    segment_bytes: u64,
    last_frame: u64,
    /// The oldest segment listed and the records in the chain from it, when the store
    /// knows them: re-opened on a directory whose scan reached every file. A store
    /// without them writes no checkpoint.
    chain: Option<(u64, u64)>,
    /// Whether records were written since the directory's checkpoint was.
    unvouched: bool,
    head_hash: u64,
    wedged: Option<String>,
    stats: SegmentStats,
    failpoints: Option<Arc<FailpointRegistry>>,
    /// Group commit: [`Self::append_frames`] ends with an fsync once this many are unsynced.
    group_commit: Option<usize>,
    /// Records written since the last fsync.
    unsynced_records: usize,
    /// Where [`Self::append`] frames its record. Reused across calls for its capacity
    /// only: empty whenever a public method returns.
    buffer: Vec<u8>,
}

impl fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegmentStore")
            .field("dir", &self.dir)
            .field("next_sequence", &self.next_sequence)
            .field("head_hash", &self.head_hash)
            .field("wedged", &self.wedged)
            .field("stats", &self.stats)
            .field("failpoints", &self.failpoints.is_some())
            .finish()
    }
}

fn segment_file_name(sequence: u64) -> String {
    format!("segment-{sequence:08}.seg")
}

fn parse_segment_sequence(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("segment-")?.strip_suffix(".seg")?;
    rest.parse().ok()
}

/// The segment files `dir` holds, in sequence order.
fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_sequence) {
            files.push((seq, entry.path()));
        }
    }
    files.sort();
    Ok(files)
}

fn encode_header(sequence: u64, anchor: u64) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..8].copy_from_slice(&VERSION.to_le_bytes());
    header[8..16].copy_from_slice(&sequence.to_le_bytes());
    header[16..24].copy_from_slice(&anchor.to_le_bytes());
    header
}

impl SegmentStore {
    /// Opens a store writing new segments into `dir` (created if missing), chaining
    /// the first record from `anchor_hash`. Numbering continues after any segment
    /// files already present, so a store re-opened after [`Self::recover`] appends —
    /// it never overwrites recovered history. It fsyncs segments at rotation, seal and
    /// sync only, and writes no checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating or scanning the directory.
    pub fn create(
        dir: impl Into<PathBuf>,
        anchor_hash: u64,
        max_segment_records: usize,
    ) -> io::Result<Self> {
        let dir = dir.into();
        create_dir(&dir)?;
        let next_sequence = list_segments(&dir)?.last().map_or(0, |(seq, _)| seq + 1);
        Ok(Self::new(dir, anchor_hash, max_segment_records, next_sequence))
    }

    /// A store appending into `dir`, which exists, chaining from `anchor_hash`; its
    /// first segment is numbered `next_sequence`, after every segment file `dir` holds.
    fn new(dir: PathBuf, anchor_hash: u64, max_segment_records: usize, next_sequence: u64) -> Self {
        SegmentStore {
            dir,
            max_segment_records: max_segment_records.max(1),
            group_commit: None,
            unsynced_records: 0,
            file: None,
            tail: None,
            next_sequence,
            records_in_segment: 0,
            segment_bytes: 0,
            last_frame: 0,
            chain: None,
            unvouched: false,
            head_hash: anchor_hash,
            wedged: None,
            stats: SegmentStats::default(),
            failpoints: None,
            buffer: Vec::new(),
        }
    }

    /// Attaches the failpoint schedule whose `segment.*` sites this store probes.
    pub fn set_failpoints(&mut self, registry: Arc<FailpointRegistry>) {
        self.failpoints = Some(registry);
    }

    /// Hash of the last persisted record — what the next frame (and a resumed
    /// in-memory log) chains from.
    pub fn head_hash(&self) -> u64 {
        self.head_hash
    }

    /// IO counters so far.
    pub fn stats(&self) -> &SegmentStats {
        &self.stats
    }

    /// Probes `site`: a delay has been slept through, any fault returned is one the
    /// site honours.
    fn fault(&self, site: FailpointSite) -> Option<FaultKind> {
        self.failpoints.as_deref().and_then(|registry| registry.probe(site))
    }

    fn wedge(&mut self, cause: String) {
        if self.wedged.is_none() {
            self.wedged = Some(cause);
        }
        self.file = None;
    }

    /// Opens the segment the next record goes to: the newest file, when a re-opened
    /// store continues it, else the next one, its header written and the directory
    /// fsynced. Wedges on fault/IO error.
    fn open_segment(&mut self) {
        if let Some((path, records)) = self.tail.take() {
            let opened = OpenOptions::new().append(true).open(&path);
            match opened.and_then(|file| file.metadata().map(|meta| (file, meta.len()))) {
                Ok((file, bytes)) => {
                    self.file = Some(file);
                    self.records_in_segment = records;
                    self.segment_bytes = bytes;
                    self.stats.segments_written += 1;
                }
                Err(err) => self.wedge(format!("continuing {}: {err}", path.display())),
            }
            return;
        }
        match self.fault(FailpointSite::SegmentRotate) {
            Some(FaultKind::ShortWrite) => {
                // A torn header: the new segment exists but is unusable. Recovery
                // must discard it without losing the sealed prefix.
                let path = self.dir.join(segment_file_name(self.next_sequence));
                let header = encode_header(self.next_sequence, self.head_hash);
                if let Ok(mut file) =
                    OpenOptions::new().write(true).create(true).truncate(true).open(&path)
                {
                    let _ = file.write_all(&header[..HEADER_LEN / 2]);
                }
                self.next_sequence += 1;
                self.wedge("short write injected at segment rotation".into());
                return;
            }
            // An IO error, the other fault the site honours.
            Some(_) => {
                self.wedge("io error injected at segment rotation".into());
                return;
            }
            None => {}
        }
        let sequence = self.next_sequence;
        let path = self.dir.join(segment_file_name(sequence));
        let header = encode_header(sequence, self.head_hash);
        let result = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .and_then(|mut file| file.write_all(&header).map(|()| file))
            .and_then(|file| sync_dir(&self.dir).map(|()| file));
        match result {
            Ok(file) => {
                self.file = Some(file);
                self.next_sequence = sequence + 1;
                self.records_in_segment = 0;
                self.segment_bytes = HEADER_LEN as u64;
                self.stats.segments_written += 1;
                self.stats.bytes_written += HEADER_LEN as u64;
                self.stats.unsynced_bytes += HEADER_LEN as u64;
            }
            Err(err) => self.wedge(format!("opening {}: {err}", path.display())),
        }
    }

    /// Appends one record frame: encodes it into the store's buffer and hands that to
    /// `append_frames`, the one write path. Returns `true` when the record
    /// reached the segment file, `false` when the store is (or became) wedged — the
    /// drop is counted in [`SegmentStats::records_dropped`], never silent.
    pub fn append(&mut self, record: &AuditRecord) -> bool {
        let mut buffer = std::mem::take(&mut self.buffer);
        put_record_frame(&mut buffer, record);
        let persisted = self.append_frames(&buffer) == 1;
        buffer.clear();
        self.buffer = buffer;
        persisted
    }

    /// Appends a run of whole frames — what a [`crate::BatchedAppender`] holds and
    /// hands over — as they are: nothing is encoded or checksummed here.
    /// The length prefixes are walked to find the records, and each contiguous stretch
    /// of them goes to the file in one `write_all` straight from `frames` (a stretch
    /// ends where a segment fills and rotates). Returns how many records reached the
    /// segment file — always a prefix of the run; the rest, once the store is (or
    /// becomes) wedged, are counted in [`SegmentStats::records_dropped`], never silent.
    ///
    /// The failpoints see exactly what they would for one [`Self::append`] per record:
    /// `segment.write` probed once per record in order, rotations and their fsyncs
    /// between the same records. A fault at record *k* leaves frames `0..k` in the file (plus, for
    /// a short write, the synced torn half of frame *k*) and drops `k..`. Bytes that
    /// are not whole frames wedge the store like an oversized record does. With a group
    /// commit of `n` ([`Self::reopen`]), fewer than `n` records are unsynced on return.
    pub(crate) fn append_frames(&mut self, frames: &[u8]) -> usize {
        let persisted_before = self.stats.records_persisted;
        // `frames[written..next]` holds `pending` records accepted but not yet written,
        // the newest from `last`.
        let (mut written, mut next, mut last, mut pending, mut accepted) = (0, 0, 0, 0, 0);
        while next < frames.len() {
            if self.wedged.is_none() && self.file.is_none() {
                self.open_segment();
            }
            if self.wedged.is_some() {
                break;
            }
            let frame = split_frame(&frames[next..]).map(|(frame, _)| frame);
            let fault = self.fault(FailpointSite::SegmentWrite);
            let refusal = match (fault, frame) {
                (Some(FaultKind::ShortWrite), _) => Some("short write injected at segment append"),
                (Some(_), _) => Some("io error injected at segment append"), // IoError
                (_, None) => Some("a record's bytes are not one whole frame"),
                (_, Some(frame)) if frame.len() - FRAME_PREFIX_LEN > MAX_FRAME_LEN as usize => {
                    Some("a record exceeds the frame size limit")
                }
                _ => None,
            };
            if let Some(cause) = refusal {
                // The clean frames before it first; a short write then tears this one:
                // a strict prefix, synced, for recovery to truncate.
                if self.write_run(&frames[written..next], pending, next - last) {
                    if fault == Some(FaultKind::ShortWrite) {
                        let torn = frame.unwrap_or(&frames[next..]);
                        if let Some(file) = self.file.as_mut() {
                            let _ = file.write_all(&torn[..torn.len() / 2]);
                            let _ = file.sync_all();
                        }
                    }
                    self.wedge(cause.into());
                }
                (written, pending) = (next, 0);
                break;
            }
            last = next;
            next += frame.expect("refused otherwise").len();
            (pending, accepted) = (pending + 1, accepted + 1);
            if self.records_in_segment + pending >= self.max_segment_records {
                if self.write_run(&frames[written..next], pending, next - last) {
                    self.seal();
                }
                (written, pending) = (next, 0);
            }
        }
        self.write_run(&frames[written..next], pending, next - last);
        if self.group_commit.is_some_and(|n| self.unsynced_records >= n) {
            self.sync();
        }
        // Everything from a refusal on is dropped, and so is a run a real IO error
        // refused: count them, never silent.
        let (mut offered, mut unwalked) = (accepted, &frames[next..]);
        while !unwalked.is_empty() {
            offered += 1;
            unwalked = split_frame(unwalked).map_or(&[], |(_, after)| after);
        }
        let persisted = (self.stats.records_persisted - persisted_before) as usize;
        self.stats.records_dropped += (offered - persisted) as u64;
        persisted
    }

    /// Hands a run of `records` whole frames, the newest `newest` bytes long, to the file
    /// in one `write_all`. Only a complete write counts: a real IO error wedges the store
    /// and the whole run is unpersisted (`false`), whatever part of it the OS took.
    fn write_run(&mut self, run: &[u8], records: usize, newest: usize) -> bool {
        if records == 0 {
            return true;
        }
        let file = self.file.as_mut().expect("a segment is open while records are pending");
        match file.write_all(run) {
            Ok(()) => {
                self.stats.records_persisted += records as u64;
                self.stats.bytes_written += run.len() as u64;
                self.stats.unsynced_bytes += run.len() as u64;
                self.head_hash =
                    u64::from_le_bytes(run[run.len() - 8..].try_into().expect("eight bytes"));
                self.records_in_segment += records;
                self.unsynced_records += records;
                self.segment_bytes += run.len() as u64;
                self.last_frame = self.segment_bytes - newest as u64;
                if let Some((_, chained)) = &mut self.chain {
                    *chained += records as u64;
                }
                self.unvouched = true;
                true
            }
            Err(err) => {
                self.wedge(format!("appending {records} record(s): {err}"));
                false
            }
        }
    }

    /// Fsyncs the current segment. Returns `true` when everything written is now
    /// durable; `false` when wedged (by this call or earlier) —
    /// [`SegmentStats::unsynced_bytes`] then stays non-zero, making the unclean state
    /// visible.
    pub fn sync(&mut self) -> bool {
        if self.wedged.is_some() {
            return false;
        }
        if self.file.is_none() {
            return true;
        }
        // An IO error, the one fault `segment.sync` honours (a delay was slept through).
        if self.fault(FailpointSite::SegmentSync).is_some() {
            self.wedge("io error injected at segment fsync".into());
            return false;
        }
        let started = Instant::now();
        match self.file.as_mut().expect("segment open").sync_all() {
            Ok(()) => {
                let elapsed = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                self.stats.fsync.0.record(elapsed);
                self.stats.bytes_fsynced += self.stats.unsynced_bytes;
                self.stats.unsynced_bytes = 0;
                self.unsynced_records = 0;
                true
            }
            Err(err) => {
                self.wedge(format!("fsync: {err}"));
                false
            }
        }
    }

    /// Seals the open segment — a rotation, or the last at shutdown: fsyncs and closes
    /// it, and the next append opens a fresh one anchored on its last record.
    /// Idempotent. Returns `true` when the store is fully durable (nothing unsynced).
    pub fn seal(&mut self) -> bool {
        if !self.sync() {
            return false;
        }
        if self.file.take().is_some() {
            self.stats.segments_sealed += 1;
        }
        true
    }

    /// Ends the store's incarnation, as a trail's clean close does: [`Self::seal`]s it
    /// and then, when records were written since the directory's checkpoint, replaces
    /// that with one for the chain's new end (see the [module docs](self)). A store that
    /// wrote nothing writes no file and fsyncs nothing. A checkpoint that cannot be
    /// written leaves the old one, still true of the bytes it vouches for, and costs the
    /// next restart a full scan only. Returns what the seal returns.
    pub(crate) fn close(&mut self) -> bool {
        let sealed = self.seal();
        if sealed && self.unvouched {
            self.checkpoint();
        }
        sealed
    }

    /// Writes the checkpoint for where the chain now ends, its newest frame read back
    /// and checked as a restart will check it; nothing when the store does not know the
    /// chain or the frame does not hold its head.
    fn checkpoint(&mut self) {
        let Some((first, records)) = self.chain else { return };
        let sequence = self.next_sequence - 1;
        let path = self.dir.join(segment_file_name(sequence));
        let links = File::open(&path)
            .ok()
            .and_then(|mut file| frame_links(&mut file, self.last_frame, self.segment_bytes));
        let Some((id, _, head_hash)) = links.filter(|(_, _, hash)| *hash == self.head_hash) else {
            return;
        };
        let checkpoint = Checkpoint {
            first,
            sequence,
            length: self.segment_bytes,
            segment_records: self.records_in_segment as u64,
            last_frame: self.last_frame,
            head_hash,
            next_id: id.0 + 1,
            records,
        };
        if checkpoint.write(&self.dir).is_ok() {
            self.unvouched = false;
        }
    }

    /// Scans `dir` and rebuilds the durable record stream: reads segments in
    /// sequence order, validates headers, checksums and chain linkage frame by
    /// frame, **truncates** each torn or corrupt tail back to the last clean frame,
    /// and reports every discarded byte as a [`Truncation`]. The returned
    /// [`RecoveryReport`] carries the verified records, the hash/id to re-seat an
    /// in-memory [`AuditLog::resume`] on, and the chain verification over everything
    /// recovered. [`Self::reopen`] makes the same scan without building the records.
    ///
    /// A missing directory is an empty (clean) recovery, not an error.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors reading, measuring or truncating segment files;
    /// corruption is never an error, it is a reported truncation.
    pub fn recover(dir: impl AsRef<Path>) -> io::Result<RecoveryReport> {
        let mut records = Vec::new();
        let read = |payload: &[u8]| {
            decode_record(payload)
                .map(|record| ((record.id, record.previous_hash, record.hash), record))
        };
        let scan = Self::scan(dir.as_ref(), read, |record| records.push(record), false)?;
        Ok(RecoveryReport {
            segments: scan.segments,
            // Every record was checked against its predecessor as it was scanned.
            chain: ChainVerification::Intact { records: records.len() },
            records,
            truncations: scan.truncations,
            initial_anchor: scan.initial_anchor,
            head_hash: scan.head_hash,
            next_id: scan.next_id,
        })
    }

    /// Re-opens the store in `dir` after a restart: the scan [`Self::recover`] makes — the
    /// same checks, truncations and reports — but no record is built, only the chain head
    /// and the next id are kept, and the store returned appends after them. Each frame's
    /// body is hashed once, and nothing is allocated per record. A `group_commit` of `n`
    /// (clamped to ≥ 1) ends an `append_frames` call with an fsync once `n` records are
    /// unsynced.
    ///
    /// The scan starts where the directory's checkpoint says the chain ends, when it
    /// agrees with the directory, and reads only the bytes after it — after a kill, the
    /// tail the killed incarnation wrote; its torn tails are cut back and reported as
    /// [`Self::recover`] would. What a restart then no longer checks — the bytes the
    /// checkpoint vouches for, fsynced before it was written — and when it falls back to
    /// the full scan are in the [module docs](self); [`Self::recover`] checks everything.
    /// A directory with no checkpoint, such as one an earlier release wrote, is scanned
    /// whole.
    ///
    /// The store continues the newest segment file when the scan accepted it, whole or
    /// cut back to a clean prefix, no file follows it, and it holds fewer than
    /// `max_segment_records` records; the first append opens it for appending, so a
    /// store that writes nothing opens and fsyncs nothing. Any other directory — its
    /// newest file a tombstone, kept whole as evidence, unreachable, or full — gets a
    /// new segment numbered after every file listed. A directory created here has its
    /// parent fsynced.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors scanning, truncating or creating the directory.
    pub fn reopen(
        dir: impl Into<PathBuf>,
        max_segment_records: usize,
        group_commit: Option<usize>,
    ) -> io::Result<(SegmentStore, Reopened)> {
        let dir = dir.into();
        // A restart keeps nothing of a record, and a `Vec<()>` counts without allocating.
        let read = |payload: &[u8]| check_record(payload).map(|links| (links, ()));
        let mut scan = Self::scan(&dir, read, |()| {}, true)?;
        create_dir(&dir)?;
        let mut store = Self::new(dir, scan.head_hash, max_segment_records, scan.next_sequence);
        store.group_commit = group_commit.map(|n| n.max(1));
        store.chain = scan.whole.then_some((scan.first_sequence, scan.records as u64));
        store.tail = (scan.segments.pop())
            .filter(|tail| tail.sequence + 1 == scan.next_sequence)
            .filter(|tail| tail.records < store.max_segment_records)
            .map(|tail| (tail.path, tail.records));
        let reopened = Reopened {
            head_hash: scan.head_hash,
            next_id: scan.next_id,
            truncations: scan.truncations,
        };
        Ok((store, reopened))
    }

    /// The one recovery walk, behind [`Self::recover`] and [`Self::reopen`]: reads
    /// segments in sequence order on the calling thread, checks their headers, checks
    /// every frame ([`check_segment`]: a whole segment at a time, on every core, each
    /// record read by `read`), truncates each torn or corrupt tail and records what it
    /// discarded. `accept` is handed what is kept of every frame that passed, in chain
    /// order. With `trust`, it starts after what a checkpoint that agrees with the
    /// directory vouches for; a truncation that cuts into what the checkpoint vouches
    /// for removes it first, trusted or not.
    fn scan<K: Send>(
        dir: &Path,
        read: ReadRecord<K>,
        mut accept: impl FnMut(K),
        trust: bool,
    ) -> io::Result<Scan> {
        let mut scan = Scan {
            segments: Vec::new(),
            truncations: Vec::new(),
            initial_anchor: 0,
            head_hash: 0,
            next_id: 0,
            records: 0,
            first_sequence: 0,
            next_sequence: 0,
            whole: true,
        };
        if !dir.exists() {
            return Ok(scan);
        }
        let files = list_segments(dir)?;
        scan.next_sequence = files.last().map_or(0, |(seq, _)| seq + 1);
        scan.first_sequence = files.first().map_or(0, |(seq, _)| *seq);
        let mut vouched = Checkpoint::read(dir);
        let start = vouched
            .filter(|_| trust && !dir.join(CHECKPOINT_TMP).exists())
            .and_then(|checkpoint| Some((checkpoint, checkpoint.agrees(&files)?)));
        if let Some((checkpoint, anchor)) = start {
            scan.initial_anchor = anchor;
            scan.head_hash = checkpoint.head_hash;
            scan.next_id = checkpoint.next_id;
            scan.records = checkpoint.records as usize;
        }
        let start = start.map(|(checkpoint, _)| checkpoint);

        // The threads a segment's check may use; asked for once a segment has two shares.
        let cores = OnceCell::new();
        let mut first = start.is_none();
        let mut stopped_at: Option<u64> = None;
        for (sequence, path) in files {
            if let Some(torn_seq) = stopped_at {
                // Everything after a torn segment is chain-orphaned; report it, do
                // not silently skip (files are left untouched as evidence).
                let bytes = fs::metadata(&path)?.len();
                scan.truncations.push(Truncation {
                    sequence,
                    path,
                    offset: 0,
                    bytes_dropped: bytes,
                    records_recovered_before: scan.records,
                    reason: format!("unreachable: the scan stopped at segment {torn_seq}"),
                });
                scan.whole = false;
                continue;
            }
            // The segment the checkpoint vouches for is read from where it ends, and the
            // ones before it not at all.
            let resume = match start {
                Some(checkpoint) if sequence < checkpoint.sequence => continue,
                Some(checkpoint) if sequence == checkpoint.sequence => Some(checkpoint),
                _ => None,
            };
            let (bytes, base) = match resume {
                Some(checkpoint) => (read_from(&path, checkpoint.length)?, checkpoint.length),
                None => (fs::read(&path)?, 0),
            };
            let len = base + bytes.len() as u64;
            if len == 0 {
                // A zero-length file carries no records by construction: either a
                // crash between create and the header write, or the tombstone a
                // previous recovery left behind. Skipping it (instead of reporting)
                // keeps recovery idempotent while the file keeps its sequence
                // number reserved.
                continue;
            }
            let mut truncate_to: Option<(u64, String)> = None;
            // Where the frames left to check start in `bytes`, and the records before them.
            let mut frames = resume.map(|checkpoint| (0, checkpoint.segment_records as usize));

            if resume.is_some() {
                // Its header was read when the checkpoint was found to agree.
            } else if bytes.len() < HEADER_LEN {
                truncate_to = Some((0, "short segment header".into()));
            } else if bytes[0..4] != MAGIC {
                truncate_to = Some((0, "bad magic".into()));
            } else if u64::from_le_bytes(bytes[8..16].try_into().unwrap()) != sequence {
                truncate_to = Some((0, "sequence mismatch with filename".into()));
            } else {
                let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
                let anchor = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
                // Unlike a bad header (which means the segment never held records),
                // these two mean the file holds history the scan cannot use: it is
                // left untouched as evidence, and nothing after it can chain either.
                let mut keep_whole: Option<String> = None;
                if version == RETIRED_VERSION {
                    // A well-formed header of the retired format is not damage:
                    // never a tombstone.
                    keep_whole = Some(
                        "retired segment format v1 (JSON frames): left untouched, \
                         not readable by this version"
                            .into(),
                    );
                } else if version != VERSION {
                    truncate_to = Some((0, "unsupported version".into()));
                } else if first {
                    scan.initial_anchor = anchor;
                    scan.head_hash = anchor;
                } else if anchor != scan.head_hash {
                    // Written against history we no longer have.
                    let head = scan.head_hash;
                    keep_whole = Some(format!("anchor {anchor:#x} does not chain from {head:#x}"));
                }
                if let Some(reason) = keep_whole {
                    scan.truncations.push(Truncation {
                        sequence,
                        path,
                        offset: 0,
                        bytes_dropped: len,
                        records_recovered_before: scan.records,
                        reason,
                    });
                    stopped_at = Some(sequence);
                    scan.whole = false;
                    continue;
                }
                if truncate_to.is_none() {
                    first = false;
                    frames = Some((HEADER_LEN, 0));
                }
            }
            let mut records_here = 0usize;
            if let Some((from, before)) = frames {
                let counted = scan.records;
                let (unchecked, at) = (&bytes[from..], base + from as u64);
                truncate_to = check_segment(unchecked, at, read, &cores, &mut scan, &mut accept);
                records_here = before + scan.records - counted;
            }

            match truncate_to {
                None => {
                    scan.segments.push(SegmentSummary {
                        sequence,
                        path,
                        records: records_here,
                        bytes: len,
                    });
                }
                Some((offset, reason)) => {
                    if vouched.is_some_and(|checkpoint| checkpoint.is_cut_by(sequence, offset)) {
                        Checkpoint::remove(dir)?;
                        vouched = None;
                    }
                    let dropped = len - offset;
                    OpenOptions::new().write(true).open(&path)?.set_len(offset)?;
                    if offset as usize >= HEADER_LEN {
                        // A truncated-but-headered segment still contributes its
                        // clean prefix of frames, and its tear orphans everything
                        // after it (later anchors depend on the frames just lost).
                        scan.segments.push(SegmentSummary {
                            sequence,
                            path: path.clone(),
                            records: records_here,
                            bytes: offset,
                        });
                        stopped_at = Some(sequence);
                    }
                    // Header-level failures (offset 0: a rotation torn mid-header,
                    // bad magic, an unknown version) mean the segment never held a record the
                    // chain could depend on — the file becomes a zero-length
                    // tombstone and the scan continues: a later incarnation's
                    // segments still chain from `head` and must not be orphaned.
                    // If records *were* lost to bitrot here, the next segment's
                    // anchor check catches it.
                    scan.truncations.push(Truncation {
                        sequence,
                        path,
                        offset,
                        bytes_dropped: dropped,
                        records_recovered_before: scan.records,
                        reason,
                    });
                }
            }
        }
        Ok(scan)
    }
}

/// What one scan of a segment directory found; see `SegmentStore::scan`.
struct Scan {
    segments: Vec<SegmentSummary>,
    truncations: Vec<Truncation>,
    initial_anchor: u64,
    /// Hash of the last accepted record; the first segment's anchor when there is none.
    /// The chain head every next frame is checked against.
    head_hash: u64,
    next_id: u64,
    /// Frames accepted so far.
    records: usize,
    /// The lowest-numbered segment file listed.
    first_sequence: u64,
    /// The sequence after the highest-numbered segment file listed.
    next_sequence: u64,
    /// Whether the scan reached every file listed: none kept whole, none unreachable.
    whole: bool,
}

/// The frames in a share: what a check thread claims at a time. A segment of no more
/// than this many is checked on the calling thread alone.
const PARALLEL_FLOOR: usize = 256;

/// Checks the frames `segment` holds — a segment's bytes from file offset `base` on, all
/// after its header — chaining from `scan.head_hash`, and hands on what is kept of each
/// that passes to `accept`, in chain order, counting it into `scan`. Returns the file
/// offset of the first frame that failed and why, if one did; no frame after it is
/// accepted.
///
/// Each frame is checked, in this order: its lengths here, then, by the codec's one
/// frame check ([`check_frames`], which an in-memory log verifies with too), its
/// checksum, the canonical form of its record (`read`), and its chain link — its
/// `previous_hash` against the chain head, its stored `hash` against the chain hash.
/// The payload is hashed once.
///
/// Only the lengths and the chain link depend on the frames before. The calling thread
/// walks the segment's length prefixes and cuts its frames into shares of
/// [`PARALLEL_FLOOR`]; the caller and, for two shares or more, up to one helper per
/// other core (`cores`) claim the shares in turn, so a helper that starts late takes
/// less and keeps no one waiting long, and each checks its shares in chain order from
/// their first frame, whose link to the head before it is all that is left; the caller
/// then reads the verdicts back in chain order.
fn check_segment<K: Send>(
    segment: &[u8],
    base: u64,
    read: ReadRecord<K>,
    cores: &OnceCell<usize>,
    scan: &mut Scan,
    accept: &mut impl FnMut(K),
) -> Option<(u64, String)> {
    let mut shares = Vec::new();
    let (mut offset, mut start, mut frames) = (0, 0, 0);
    let mut refused = None;
    while offset < segment.len() {
        match frame_len(&segment[offset..]) {
            Ok(len) => offset += len,
            Err(reason) => {
                refused = Some(reason);
                break;
            }
        }
        frames += 1;
        if frames % PARALLEL_FLOOR == 0 {
            shares.push(start..offset);
            start = offset;
        }
    }
    if start < offset {
        shares.push(start..offset);
    }

    let mut verdicts: Vec<Verdict<K>> =
        shares.iter().map(|_| Verdict { ends: None, passed: Vec::new(), failed: None }).collect();
    let threads = if shares.len() < 2 {
        1
    } else {
        let cores = cores
            .get_or_init(|| thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get));
        shares.len().min(*cores)
    };
    let claims = Mutex::new(shares.iter().zip(verdicts.iter_mut()));
    let claim = || loop {
        let claimed = claims.lock().expect("a share is claimed whole").next();
        let Some((share, verdict)) = claimed else { break };
        *verdict = check_frames(segment, share.clone(), read);
    };
    thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(claim);
        }
        claim();
    });

    for (share, verdict) in shares.iter().zip(verdicts) {
        if let Some(((id, previous_hash, _), (last, _, hash))) = verdict.ends {
            if previous_hash != scan.head_hash {
                return Some((base + share.start as u64, Refusal::Chain(id).to_string()));
            }
            scan.head_hash = hash;
            scan.next_id = last.0 + 1;
        }
        scan.records += verdict.passed.len();
        verdict.passed.into_iter().for_each(&mut *accept);
        if let Some((at, refusal)) = verdict.failed {
            return Some((base + at as u64, refusal.to_string()));
        }
    }
    refused.map(|reason| (base + offset as u64, reason))
}

/// The length of the frame `bytes` start with, prefix and payload, or why its lengths
/// refuse it.
fn frame_len(bytes: &[u8]) -> Result<usize, String> {
    if bytes.len() < FRAME_PREFIX_LEN {
        return Err("short frame prefix".into());
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("four bytes"));
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(format!("corrupt frame length {len}"));
    }
    let end = FRAME_PREFIX_LEN + len as usize;
    if bytes.len() < end {
        return Err("short frame payload".into());
    }
    Ok(end)
}

/// One segment file's contribution to a recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentSummary {
    /// The segment's sequence number.
    pub sequence: u64,
    /// Path of the segment file.
    pub path: PathBuf,
    /// Complete records recovered from it.
    pub records: usize,
    /// Bytes of the clean prefix (post-truncation file length).
    pub bytes: u64,
}

/// A torn or corrupt tail discarded by [`SegmentStore::recover`] — the exact,
/// reported shape of every loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Truncation {
    /// Sequence of the affected segment.
    pub sequence: u64,
    /// Path of the affected segment file.
    pub path: PathBuf,
    /// Byte offset the file was truncated to (length of the surviving clean prefix).
    /// 0 covers four shapes: a header-level failure (the file becomes a zero-length
    /// tombstone and the scan continues), an anchor mismatch, a segment of the retired
    /// version-1 format, or a segment that is unreachable behind one the scan stopped
    /// at (the latter three are reported but left untouched as evidence, and stop the
    /// scan).
    pub offset: u64,
    /// Bytes discarded (or unreachable) past the clean prefix.
    pub bytes_dropped: u64,
    /// How many records had been recovered in total when this truncation was hit.
    pub records_recovered_before: usize,
    /// Why the tail was discarded (short frame, checksum mismatch, …).
    pub reason: String,
}

/// Everything [`SegmentStore::recover`] found: the verified durable record stream
/// plus an exact account of what could not be recovered.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Per-segment summaries, sequence order, clean prefixes only.
    pub segments: Vec<SegmentSummary>,
    /// Every recovered record, chain order.
    pub records: Vec<AuditRecord>,
    /// Every discarded tail / unreachable segment. Empty for a clean shutdown.
    pub truncations: Vec<Truncation>,
    /// The anchor hash the first segment chained from.
    pub initial_anchor: u64,
    /// Hash of the last recovered record (the anchor for a resumed log and for new
    /// segments) — `initial_anchor` when nothing was recovered.
    pub head_hash: u64,
    /// The id after the last recovered record (0 when nothing was recovered) — what
    /// a resumed log should number its next record.
    pub next_id: u64,
    /// Verification of the recovered stream against `initial_anchor`. Intact by
    /// construction (recovery truncates at the first break).
    pub chain: ChainVerification,
}

impl RecoveryReport {
    /// Whether recovery found a fully clean store: nothing truncated, chain intact.
    pub fn is_clean(&self) -> bool {
        self.truncations.is_empty() && self.chain.is_intact()
    }

    /// An in-memory log resuming exactly where the durable stream ends: appending to
    /// it continues the recovered chain.
    pub fn resume_log(&self, authority: impl Into<String>) -> AuditLog {
        AuditLog::resume(authority, self.head_hash, self.next_id)
    }
}

/// What [`SegmentStore::reopen`] found: where the durable chain ends, and what the
/// scan discarded on the way — a [`RecoveryReport`] without the records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reopened {
    /// Hash of the last recovered record — what the store's next frame, and a resumed
    /// in-memory log, chain from; the first segment's anchor when there is none.
    pub head_hash: u64,
    /// The id after the last recovered record (0 when nothing was recovered).
    pub next_id: u64,
    /// Every discarded tail / unreachable segment, as [`RecoveryReport::truncations`].
    pub truncations: Vec<Truncation>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_record, split_payload, RecordLinks};
    use crate::event::AuditEvent;
    use legaliot_ifc::StableHasher;
    use legaliot_obs::FailpointSpec;
    use proptest::prelude::*;
    use std::ops::Range;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn temp_dir(tag: &str) -> PathBuf {
        static UNIQUE: AtomicUsize = AtomicUsize::new(0);
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("legaliot-segment-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Arms `store` with one fault, `kind` at hit `k` (0-based) of `site`, and returns
    /// the registry, whose `hits` and `fired` count the store's probes and faults.
    fn arm(
        store: &mut SegmentStore,
        site: FailpointSite,
        kind: FaultKind,
        k: u64,
    ) -> Arc<FailpointRegistry> {
        let registry =
            Arc::new(FailpointRegistry::new(0).with_spec(FailpointSpec::on_hits(site, kind, k, 0)));
        store.set_failpoints(Arc::clone(&registry));
        registry
    }

    fn sample_records(n: usize) -> Vec<AuditRecord> {
        let mut log = AuditLog::new("shard-0");
        for i in 0..n {
            log.record(
                AuditEvent::PolicyFired {
                    policy: format!("p{i}"),
                    trigger: "t".into(),
                    actions: i,
                },
                i as u64,
            );
        }
        log.records().to_vec()
    }

    #[test]
    fn roundtrip_across_rotations() {
        let dir = temp_dir("roundtrip");
        let records = sample_records(10);
        let mut store = SegmentStore::create(&dir, 0, 3).unwrap();
        for r in &records {
            assert!(store.append(r));
        }
        assert!(store.seal());
        assert_eq!(store.stats().records_persisted, 10);
        assert_eq!(store.stats().unsynced_bytes, 0);
        // 10 records at 3 per segment: segments 0..=3 written, all sealed.
        assert_eq!(store.stats().segments_written, 4);
        assert_eq!(store.stats().segments_sealed, 4);
        assert!(store.stats().fsync.count() > 0);

        let report = SegmentStore::recover(&dir).unwrap();
        assert!(report.is_clean(), "truncations: {:?}", report.truncations);
        assert_eq!(report.records, records);
        assert_eq!(report.head_hash, records.last().unwrap().hash);
        assert_eq!(report.next_id, 10);
        assert_eq!(report.segments.len(), 4);
        assert_eq!(report.segments.iter().map(|s| s.records).sum::<usize>(), 10);
        // A log resumed from the report continues the same chain.
        let mut resumed = report.resume_log("shard-0");
        resumed.record(
            AuditEvent::PolicyFired { policy: "px".into(), trigger: "t".into(), actions: 0 },
            99,
        );
        let mut combined = report.records.clone();
        combined.extend(resumed.records().iter().cloned());
        assert!(AuditLog::verify_records(report.initial_anchor, &combined).is_intact());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_of_missing_or_empty_dir_is_clean() {
        let dir = temp_dir("missing");
        let report = SegmentStore::recover(&dir).unwrap();
        assert!(report.is_clean());
        assert!(report.records.is_empty());
        assert_eq!(report.next_id, 0);
        std::fs::create_dir_all(&dir).unwrap();
        let report = SegmentStore::recover(&dir).unwrap();
        assert!(report.is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_write_leaves_recoverable_prefix_and_reported_truncation() {
        let dir = temp_dir("shortwrite");
        let records = sample_records(6);
        let mut store = SegmentStore::create(&dir, 0, 100).unwrap();
        // Tear the 5th write.
        arm(&mut store, FailpointSite::SegmentWrite, FaultKind::ShortWrite, 4);
        let mut persisted = 0;
        for r in &records {
            if store.append(r) {
                persisted += 1;
            }
        }
        assert_eq!(persisted, 4);
        assert!(store.wedged.is_some());
        assert_eq!(store.stats().records_dropped, 2);
        // Post-wedge sealing is a no-op that reports failure.
        assert!(!store.seal());

        let report = SegmentStore::recover(&dir).unwrap();
        assert_eq!(report.records, records[..4].to_vec());
        assert!(report.chain.is_intact());
        assert_eq!(report.truncations.len(), 1);
        let t = &report.truncations[0];
        assert!(t.bytes_dropped > 0);
        assert!(t.reason.contains("short frame"), "reason: {}", t.reason);
        assert_eq!(t.records_recovered_before, 4);
        // The torn tail was physically truncated: a second recovery is clean.
        let again = SegmentStore::recover(&dir).unwrap();
        assert!(again.is_clean());
        assert_eq!(again.records.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn io_error_wedges_with_clean_prefix() {
        let dir = temp_dir("ioerror");
        let records = sample_records(5);
        let mut store = SegmentStore::create(&dir, 0, 100).unwrap();
        arm(&mut store, FailpointSite::SegmentWrite, FaultKind::IoError, 3);
        for r in &records {
            store.append(r);
        }
        assert!(store.wedged.is_some());
        assert!(store.wedged.as_deref().unwrap().contains("io error"));
        assert_eq!(store.stats().records_dropped, 2);
        let report = SegmentStore::recover(&dir).unwrap();
        // A hard error leaves no torn bytes: the prefix is clean.
        assert!(report.is_clean(), "truncations: {:?}", report.truncations);
        assert_eq!(report.records, records[..3].to_vec());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_error_leaves_unsynced_bytes_visible() {
        let dir = temp_dir("syncerror");
        let records = sample_records(3);
        let mut store = SegmentStore::create(&dir, 0, 100).unwrap();
        arm(&mut store, FailpointSite::SegmentSync, FaultKind::IoError, 0);
        for r in &records {
            assert!(store.append(r));
        }
        assert!(!store.sync());
        assert!(store.wedged.is_some());
        assert!(store.stats().unsynced_bytes > 0);
        assert_eq!(store.stats().bytes_fsynced, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_rotation_header_is_discarded_cleanly() {
        let dir = temp_dir("tornrotate");
        let records = sample_records(4);
        let mut store = SegmentStore::create(&dir, 0, 2).unwrap();
        arm(&mut store, FailpointSite::SegmentRotate, FaultKind::ShortWrite, 1);
        // Records 0,1 fill segment 0; opening segment 1 tears its header.
        for r in &records {
            store.append(r);
        }
        assert!(store.wedged.is_some());
        let report = SegmentStore::recover(&dir).unwrap();
        assert_eq!(report.records, records[..2].to_vec());
        assert_eq!(report.truncations.len(), 1);
        assert!(report.truncations[0].reason.contains("short segment header"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delay_fault_only_slows_the_write() {
        let dir = temp_dir("delay");
        let records = sample_records(2);
        let mut store = SegmentStore::create(&dir, 0, 100).unwrap();
        let delay = FaultKind::Delay(Duration::from_micros(50));
        arm(&mut store, FailpointSite::SegmentSync, delay, 0);
        for r in &records {
            assert!(store.append(r));
        }
        assert!(store.sync());
        assert!(store.wedged.is_none());
        assert_eq!(store.stats().unsynced_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every kind each `segment.*` site honours, armed on its first probe, against
    /// three records two to a segment: a delay only slows the store, any other kind
    /// wedges it where the site stands, and `fired` counts exactly the one fault
    /// injected.
    #[test]
    fn every_honoured_fault_at_every_segment_site_is_injected_and_counted() {
        use FailpointSite::{SegmentRotate, SegmentSync, SegmentWrite};
        let delay = FaultKind::Delay(Duration::from_micros(20));
        let records = sample_records(3);
        // (site, kind, records persisted, torn tails recovery reports)
        let cases = [
            (SegmentWrite, FaultKind::ShortWrite, 0, 1),
            (SegmentWrite, FaultKind::IoError, 0, 0),
            (SegmentWrite, delay, 3, 0),
            // The first fsync seals segment 0 after its two records.
            (SegmentSync, FaultKind::IoError, 2, 0),
            (SegmentSync, delay, 3, 0),
            (SegmentRotate, FaultKind::ShortWrite, 0, 1),
            (SegmentRotate, FaultKind::IoError, 0, 0),
            (SegmentRotate, delay, 3, 0),
        ];
        for (site, kind, persisted, torn) in cases {
            let ctx = format!("[{kind:?} at {site}]");
            let dir = temp_dir("everyfault");
            let mut store = SegmentStore::create(&dir, 0, 2).unwrap();
            let registry = arm(&mut store, site, kind, 0);
            let kept = store.append_frames(&frames_of(&records));
            assert_eq!(store.seal(), kind == delay, "{ctx}");
            assert_eq!(kept, persisted, "{ctx}");
            assert_eq!(store.wedged.is_some(), kind != delay, "{ctx}");
            let fired: Vec<u64> = FailpointSite::ALL.map(|s| registry.fired(s)).to_vec();
            let expected: Vec<u64> = FailpointSite::ALL.map(|s| u64::from(s == site)).to_vec();
            assert_eq!(fired, expected, "{ctx}");
            drop(store);

            let report = SegmentStore::recover(&dir).unwrap();
            assert_eq!(report.records, records[..persisted], "{ctx}");
            assert_eq!(report.truncations.len(), torn, "{ctx}: {:?}", report.truncations);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn reopened_store_continues_numbering_and_chain() {
        let dir = temp_dir("reopen");
        let records = sample_records(6);
        let mut store = SegmentStore::create(&dir, 0, 2).unwrap();
        for r in &records[..4] {
            store.append(r);
        }
        assert!(store.seal());
        drop(store);

        let report = SegmentStore::recover(&dir).unwrap();
        assert_eq!(report.records.len(), 4);
        let mut store = SegmentStore::create(&dir, report.head_hash, 2).unwrap();
        for r in &records[4..] {
            store.append(r);
        }
        assert!(store.seal());

        let report = SegmentStore::recover(&dir).unwrap();
        assert!(report.is_clean(), "truncations: {:?}", report.truncations);
        assert_eq!(report.records, records);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A restart that writes nothing leaves the directory as it found it: the newest
    /// segment it would continue is never opened, so nothing is written or fsynced,
    /// sealed or not.
    #[test]
    fn a_reopen_that_appends_nothing_changes_no_file_and_fsyncs_nothing() {
        let dir = temp_dir("idle-reopen");
        let mut store = SegmentStore::create(&dir, 0, 8).unwrap();
        assert_eq!(store.append_frames(&frames_of(&sample_records(3))), 3);
        assert!(store.seal());
        let before = segment_files(&dir);
        for _ in 0..3 {
            let (mut store, reopened) = SegmentStore::reopen(&dir, 8, Some(1)).unwrap();
            assert!(reopened.truncations.is_empty());
            assert!(store.tail.is_some(), "the newest segment has room");
            assert!(store.sync() && store.seal());
            assert_eq!(*store.stats(), SegmentStats::default(), "nothing opened or fsynced");
        }
        assert_eq!(segment_files(&dir), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A tail the restart's scan cut back to its clean prefix is continued from there:
    /// the records appended after the restart follow in the same file, which then
    /// recovers clean as one chain; the segment fills and rotates as if never closed.
    #[test]
    fn a_torn_tail_cut_back_is_continued_and_recovers_clean() {
        let dir = temp_dir("torn-continued");
        let records = sample_records(7);
        let mut store = SegmentStore::create(&dir, 0, 5).unwrap();
        assert_eq!(store.append_frames(&frames_of(&records[..3])), 3);
        assert!(store.seal());
        let path = dir.join(segment_file_name(0));
        let whole = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(whole - 3).unwrap();

        let (mut store, reopened) = SegmentStore::reopen(&dir, 5, None).unwrap();
        assert_eq!(reopened.truncations.len(), 1, "{:?}", reopened.truncations);
        assert_eq!((reopened.next_id, reopened.head_hash), (2, records[1].hash));
        assert_eq!(store.append_frames(&frames_of(&records[2..])), 5);
        assert!(store.seal());
        let stats = store.stats();
        assert_eq!((stats.segments_written, stats.segments_sealed), (2, 2));
        assert_eq!(stats.bytes_written, (frames_of(&records[2..]).len() + HEADER_LEN) as u64);
        let names: Vec<String> = segment_files(&dir).into_iter().map(|(name, _)| name).collect();
        assert_eq!(names, [segment_file_name(0), segment_file_name(1)]);

        let report = SegmentStore::recover(&dir).unwrap();
        assert!(report.is_clean(), "truncations: {:?}", report.truncations);
        assert_eq!(report.records, records);
        let held: Vec<usize> = report.segments.iter().map(|segment| segment.records).collect();
        assert_eq!(held, [5, 2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Only a newest segment that is clean, reachable and not full is continued: after
    /// a zero-length tombstone, a segment kept whole as evidence or a full segment, the
    /// next record opens a new segment numbered after every file, and the files there
    /// are left as they were.
    #[test]
    fn a_restart_continues_no_tombstone_evidence_or_full_segment() {
        let records = sample_records(3);
        let cases = [
            ("a zero-length tombstone", Some(Vec::new())),
            ("an anchor that does not chain", Some(encode_header(1, 7).to_vec())),
            ("a full segment", None),
        ];
        for (case, newest) in cases {
            let dir = temp_dir("no-continue");
            let mut store = SegmentStore::create(&dir, 0, 2).unwrap();
            assert_eq!(store.append_frames(&frames_of(&records[..2])), 2);
            assert!(store.seal());
            if let Some(bytes) = newest {
                std::fs::write(dir.join(segment_file_name(1)), bytes).unwrap();
            }
            let before = segment_files(&dir);

            let (mut store, _) = SegmentStore::reopen(&dir, 2, None).unwrap();
            assert!(store.tail.is_none(), "{case}");
            assert!(store.append(&records[2]), "{case}");
            assert!(store.seal());
            let mut after = segment_files(&dir);
            let (name, _) = after.pop().unwrap();
            assert_eq!(name, segment_file_name(before.len() as u64), "{case}: a new segment");
            assert_eq!(after, before, "{case}: the older files are untouched");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A fault at record `k` of a batch behaves as it would in a loop of single
    /// appends: frames `0..k` are on disk, `k..` are counted dropped, `segment.write`
    /// was probed once per record up to and including `k`, and only a short write
    /// leaves a torn tail. A delay is not a failure: everything persists.
    #[test]
    fn batch_fault_at_record_k_keeps_exactly_the_first_k() {
        const N: usize = 6;
        let records = sample_records(N);
        let delay = FaultKind::Delay(Duration::from_micros(20));
        for fault in [FaultKind::ShortWrite, FaultKind::IoError, delay] {
            for k in 0..N {
                let ctx = format!("[{fault:?} at record {k} of {N}]");
                let dir = temp_dir("batchfault");
                let mut store = SegmentStore::create(&dir, 0, 100).unwrap();
                let registry = arm(&mut store, FailpointSite::SegmentWrite, fault, k as u64);
                let (kept, consulted) = if fault == delay { (N, N) } else { (k, k + 1) };

                assert_eq!(store.append_frames(&frames_of(&records)), kept, "{ctx}");
                assert_eq!(registry.hits(FailpointSite::SegmentWrite), consulted as u64, "{ctx}");
                assert_eq!(store.stats().records_persisted, kept as u64, "{ctx}");
                assert_eq!(store.stats().records_dropped, (N - kept) as u64, "{ctx}");
                assert_eq!(store.wedged.is_some(), fault != delay, "{ctx}");
                // A wedged store keeps counting, batch or not.
                if store.wedged.is_some() {
                    assert_eq!(store.append_frames(&frames_of(&records[..2])), 0, "{ctx}");
                    assert_eq!(store.stats().records_dropped, (N - kept + 2) as u64, "{ctx}");
                }
                drop(store);

                let report = SegmentStore::recover(&dir).unwrap();
                assert_eq!(report.records, records[..kept], "{ctx}");
                assert!(report.chain.is_intact(), "{ctx}");
                let torn = usize::from(fault == FaultKind::ShortWrite);
                assert_eq!(report.truncations.len(), torn, "{ctx}: {:?}", report.truncations);
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    fn segment_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap())
            .map(|entry| {
                (entry.file_name().into_string().unwrap(), std::fs::read(entry.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    /// One batch larger than a segment rotates exactly where single appends would:
    /// the same files byte for byte (so the same anchors) and the same counters.
    #[test]
    fn batch_across_rotations_matches_single_appends() {
        let records = sample_records(10);
        let (batch_dir, single_dir) = (temp_dir("rotbatch"), temp_dir("rotsingle"));
        let mut batched = SegmentStore::create(&batch_dir, 0, 3).unwrap();
        assert_eq!(batched.append_frames(&frames_of(&records)), 10);
        let mut single = SegmentStore::create(&single_dir, 0, 3).unwrap();
        for record in &records {
            assert!(single.append(record));
        }
        for store in [&mut batched, &mut single] {
            assert_eq!(store.head_hash(), records[9].hash);
            assert!(store.seal());
        }

        let files = segment_files(&batch_dir);
        assert_eq!(files.len(), 4);
        assert_eq!(files, segment_files(&single_dir));
        let (a, b) = (batched.stats(), single.stats());
        assert_eq!(a.fsync.count(), b.fsync.count());
        let timeless = |stats: &SegmentStats| SegmentStats {
            fsync: FsyncHistogram::default(),
            ..stats.clone()
        };
        assert_eq!(timeless(a), timeless(b));
        assert_eq!((a.segments_written, a.segments_sealed, a.records_persisted), (4, 4, 10));

        let report = SegmentStore::recover(&batch_dir).unwrap();
        assert!(report.is_clean(), "truncations: {:?}", report.truncations);
        assert_eq!(report.records, records);
        std::fs::remove_dir_all(&batch_dir).unwrap();
        std::fs::remove_dir_all(&single_dir).unwrap();
    }

    /// Every record of `records` as one run of frames, as a `BatchedAppender` holds
    /// them.
    fn frames_of(records: &[AuditRecord]) -> Vec<u8> {
        let mut frames = Vec::new();
        for record in records {
            put_record_frame(&mut frames, record);
        }
        frames
    }

    /// The fault contract on the frame path: one run of frames crossing two rotations,
    /// a short write injected at record `k`, against one `append` per record under
    /// the same fault. Each `segment.*` site is probed as often in both — `write` once
    /// per record up to `k`, `rotate` and `sync` once per segment opened and sealed —
    /// the files are the same bytes (frames `0..k` and the synced torn half of `k`),
    /// and `k..` are counted dropped.
    #[test]
    fn frame_run_across_rotations_tears_at_record_k_like_single_appends() {
        const N: usize = 8;
        let records = sample_records(N);
        let frames = frames_of(&records);
        let sites =
            [FailpointSite::SegmentWrite, FailpointSite::SegmentSync, FailpointSite::SegmentRotate];
        for k in 0..N {
            let ctx = format!("[short write at record {k} of {N}]");
            let (run_dir, single_dir) = (temp_dir("framerun"), temp_dir("framesingle"));
            let mut run = SegmentStore::create(&run_dir, 0, 3).unwrap();
            let short_write = FaultKind::ShortWrite;
            let run_probes = arm(&mut run, FailpointSite::SegmentWrite, short_write, k as u64);
            let mut single = SegmentStore::create(&single_dir, 0, 3).unwrap();
            let single_probes =
                arm(&mut single, FailpointSite::SegmentWrite, short_write, k as u64);

            assert_eq!(run.append_frames(&frames), k, "{ctx}");
            let kept = records.iter().filter(|record| single.append(record)).count();
            assert_eq!(kept, k, "{ctx}");

            let hits = |registry: &FailpointRegistry| sites.map(|site| registry.hits(site));
            assert_eq!(hits(&run_probes), hits(&single_probes), "{ctx}");
            assert_eq!(hits(&run_probes), [k + 1, k / 3, k / 3 + 1].map(|n| n as u64), "{ctx}");
            for store in [&run, &single] {
                assert!(store.wedged.is_some(), "{ctx}");
                assert_eq!(store.stats().records_persisted, k as u64, "{ctx}");
                assert_eq!(store.stats().records_dropped, (N - k) as u64, "{ctx}");
                let head = if k == 0 { 0 } else { records[k - 1].hash };
                assert_eq!(store.head_hash(), head, "{ctx}");
            }
            drop((run, single));

            let files = segment_files(&run_dir);
            assert_eq!(files, segment_files(&single_dir), "{ctx}");
            // The torn half of frame `k` is on disk behind the clean frames.
            let frame_k = split_frame(&frames_of(&records[k..])).unwrap().0.len();
            let clean = frames_of(&records[k - k % 3..k]).len();
            assert_eq!(files.last().unwrap().1.len(), HEADER_LEN + clean + frame_k / 2, "{ctx}");
            let report = SegmentStore::recover(&run_dir).unwrap();
            assert_eq!(report.records, records[..k], "{ctx}");
            assert_eq!(report.truncations.len(), 1, "{ctx}: {:?}", report.truncations);
            std::fs::remove_dir_all(&run_dir).unwrap();
            std::fs::remove_dir_all(&single_dir).unwrap();
        }
    }

    /// Bytes that are not whole frames are refused like an oversized record: what
    /// came before them is written, the store wedges, the rest is counted.
    #[test]
    fn a_malformed_run_wedges_after_its_clean_prefix() {
        let dir = temp_dir("malformed");
        let records = sample_records(3);
        let mut frames = frames_of(&records);
        frames.truncate(frames.len() - 3);
        let mut store = SegmentStore::create(&dir, 0, 100).unwrap();
        assert_eq!(store.append_frames(&frames), 2);
        assert!(store.wedged.as_deref().unwrap().contains("not one whole frame"));
        assert_eq!(store.stats().records_dropped, 1);
        drop(store);
        let report = SegmentStore::recover(&dir).unwrap();
        assert!(report.is_clean(), "truncations: {:?}", report.truncations);
        assert_eq!(report.records, records[..2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The format did not move: a shard directory the previous release wrote (a
    /// durable smart-home dataplane, `AuditDetail::Full`, committed under
    /// `tests/fixtures`) recovers clean, both write paths reproduce its files byte for
    /// byte from the recovered records — `append` of each record, and an
    /// appender's frames of the events through `append_frames` — and a chain resumed
    /// on it extends it.
    #[test]
    fn a_directory_written_by_the_previous_release_recovers_and_extends() {
        use crate::BatchedAppender;

        let fixture =
            Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/pr21-shard-0"));
        let dir = temp_dir("fixture");
        std::fs::create_dir_all(&dir).unwrap();
        let written = segment_files(fixture);
        assert_eq!(written.len(), 2);
        for (name, bytes) in &written {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        let report = SegmentStore::recover(&dir).unwrap();
        assert!(report.is_clean(), "truncations: {:?}", report.truncations);
        assert_eq!((report.records.len(), report.initial_anchor, report.next_id), (16, 0, 16));
        let kinds = |kind| report.records.iter().filter(|r| r.event.kind() == kind).count();
        assert_eq!(kinds(crate::AuditEventKind::FlowChecked), 8);
        assert_eq!(kinds(crate::AuditEventKind::MessageQuenched), 8);
        let authority = report.records[0].recorded_by.clone();

        // Re-written from the records …
        let rewritten = temp_dir("fixture-records");
        let mut store = SegmentStore::create(&rewritten, 0, 10).unwrap();
        for record in &report.records {
            assert!(store.append(record));
        }
        assert!(store.seal());
        assert_eq!(segment_files(&rewritten), written);
        // … and re-recorded from the events, frames straight to the store.
        let rerecorded = temp_dir("fixture-frames");
        let mut store = SegmentStore::create(&rerecorded, 0, 10).unwrap();
        let mut appender = BatchedAppender::new(authority.clone(), 4);
        for record in &report.records {
            appender.append(record.event.clone(), record.at_millis);
        }
        appender.hand_over(|runs| {
            runs.for_each(|run| {
                assert_eq!(store.append_frames(run), 16);
            })
        });
        assert!(store.seal());
        assert_eq!(segment_files(&rerecorded), written);

        // A new incarnation resumes the chain where the disk ends.
        let (mut appender, truncations) =
            BatchedAppender::open(authority, None, Some((dir.clone(), 10, None))).unwrap();
        assert!(truncations.is_empty());
        let store = Arc::clone(appender.store().expect("opened on a directory"));
        for n in 0..5 {
            let event = AuditEvent::PolicyFired {
                policy: format!("p{n}"),
                trigger: "t".into(),
                actions: n,
            };
            appender.append(event, 100 + n as u64);
        }
        appender.hand_over(|runs| {
            runs.for_each(|run| {
                assert_eq!(store.lock().append_frames(run), 5);
            })
        });
        assert!(store.lock().seal());
        let extended = SegmentStore::recover(&dir).unwrap();
        assert!(extended.is_clean(), "truncations: {:?}", extended.truncations);
        assert_eq!(extended.records.len(), 21);
        assert_eq!(extended.records[..16], report.records[..]);
        assert_eq!(extended.records[16..], *appender.close().records());
        assert!(AuditLog::verify_records(0, &extended.records).is_intact());
        for dir in [dir, rewritten, rerecorded] {
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A record goes out through the store's buffer as one frame: the buffer holds
    /// that frame, never a run of them, and is empty between calls.
    #[test]
    fn batch_buffer_stays_bounded() {
        let dir = temp_dir("chunks");
        let mut log = AuditLog::new("shard-0");
        for i in 0..40 {
            let event = AuditEvent::ShardRestarted {
                shard: "s".into(),
                restart: i,
                cause: "x".repeat(32 * 1024),
            };
            log.record(event, i);
        }
        let frame = frames_of(&log.records()[..1]).len();
        let mut store = SegmentStore::create(&dir, 0, 1000).unwrap();
        for record in log.records() {
            assert!(store.append(record));
            assert!(store.buffer.is_empty());
            // One frame, at `Vec`'s doubling growth.
            assert!(store.buffer.capacity() <= 2 * frame, "{}", store.buffer.capacity());
        }
        assert!(store.stats().bytes_written > 40 * frame as u64);
        assert!(store.seal());
        let report = SegmentStore::recover(&dir).unwrap();
        assert!(report.is_clean(), "truncations: {:?}", report.truncations);
        assert_eq!(report.records, log.records());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A segment of the retired version-1 format is history, not damage: recovery
    /// reports it, stops there, and leaves every byte in place — where any *other*
    /// unknown version is still a header failure and becomes a tombstone.
    #[test]
    fn retired_v1_segment_is_reported_and_left_untouched() {
        let dir = temp_dir("v1");
        let records = sample_records(5);
        let mut store = SegmentStore::create(&dir, 0, 2).unwrap();
        assert_eq!(store.append_frames(&frames_of(&records[..4])), 4); // segments 0 and 1, sealed
        drop(store);
        // Segment 2: what the previous release wrote. Segment 3: written after it.
        let mut v1 = encode_header(2, records[3].hash).to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(br#"....json frames of the old format...."#);
        std::fs::write(dir.join(segment_file_name(2)), &v1).unwrap();
        let mut store = SegmentStore::create(&dir, records[3].hash, 2).unwrap();
        assert!(store.append(&records[4]));
        assert!(store.seal());
        let before = segment_files(&dir);
        assert_eq!(before.len(), 4);

        for pass in 0..2 {
            let report = SegmentStore::recover(&dir).unwrap();
            assert_eq!(report.records, records[..4], "pass {pass}");
            assert!(report.chain.is_intact());
            assert!(!report.is_clean());
            assert_eq!(report.truncations.len(), 2, "{:?}", report.truncations);
            let retired = &report.truncations[0];
            assert_eq!((retired.sequence, retired.offset), (2, 0));
            assert_eq!(retired.bytes_dropped, v1.len() as u64);
            assert_eq!(retired.records_recovered_before, 4);
            assert!(retired.reason.contains("retired segment format v1"), "{}", retired.reason);
            assert!(report.truncations[1].reason.contains("unreachable"));
            assert_eq!(segment_files(&dir), before, "pass {pass} changed a file");
        }

        // Version 3 does not exist: that header is damage, as before.
        let mut v3 = v1.clone();
        v3[4..8].copy_from_slice(&3u32.to_le_bytes());
        std::fs::write(dir.join(segment_file_name(2)), &v3).unwrap();
        let report = SegmentStore::recover(&dir).unwrap();
        assert_eq!(report.truncations.len(), 1);
        assert_eq!(report.truncations[0].reason, "unsupported version");
        assert_eq!(std::fs::metadata(dir.join(segment_file_name(2))).unwrap().len(), 0);
        assert_eq!(report.records, records, "the scan went on past the tombstone");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Recovers one copy of `files` and re-opens another — each written over the
    /// segments of one of `dirs` — and asserts the two agree: the same chain head, next
    /// id and truncations (all but the path, which names the copy), and the same bytes
    /// left on disk.
    fn assert_reopen_matches_recover(dirs: &[PathBuf; 2], files: &[(String, Vec<u8>)], ctx: &str) {
        for dir in dirs {
            for (name, bytes) in files {
                std::fs::write(dir.join(name), bytes).unwrap();
            }
        }
        let report = SegmentStore::recover(&dirs[0]).unwrap();
        let (store, reopened) = SegmentStore::reopen(&dirs[1], 4, None).unwrap();
        assert_eq!(store.head_hash(), reopened.head_hash, "{ctx}");
        assert_eq!(
            (reopened.head_hash, reopened.next_id),
            (report.head_hash, report.next_id),
            "{ctx}"
        );
        let shape = |truncations: &[Truncation]| -> Vec<(u64, u64, u64, String, usize)> {
            truncations
                .iter()
                .map(|t| {
                    (
                        t.sequence,
                        t.offset,
                        t.bytes_dropped,
                        t.reason.clone(),
                        t.records_recovered_before,
                    )
                })
                .collect()
        };
        assert_eq!(shape(&reopened.truncations), shape(&report.truncations), "{ctx}");
        drop(store);
        assert_eq!(segment_files(&dirs[1]), segment_files(&dirs[0]), "{ctx}");
    }

    /// A restart's scan is recovery's scan: on every cut and every bit flip of a last
    /// segment, a retired v1 segment, an anchor mismatch and a torn header, the store
    /// [`SegmentStore::reopen`] returns agrees with [`SegmentStore::recover`] on where
    /// the chain ends and what was lost, and both leave the same files.
    #[test]
    fn reopen_scans_exactly_as_recover_does() {
        use legaliot_ifc::{can_flow, SecurityContext};

        let dir = temp_dir("walk-source");
        let mut log = AuditLog::new("shard-0");
        for i in 0..8 {
            let event = AuditEvent::PolicyFired {
                policy: format!("p{i}"),
                trigger: "t".into(),
                actions: i,
            };
            log.record(event, i as u64);
        }
        // The last segment holds flow checks, so the flips reach labels and decisions.
        let medical = SecurityContext::from_names(["medical", "personal"], ["hospital"]);
        for (i, destination) in [medical.clone(), SecurityContext::public()].iter().enumerate() {
            let event = AuditEvent::FlowChecked {
                source: "sensor".into(),
                destination: "cloud".into(),
                source_context: medical.clone(),
                destination_context: destination.clone(),
                decision: can_flow(&medical, destination),
                data_item: Some(format!("reading@{i}")),
            };
            log.record(event, 8 + i as u64);
        }
        let mut store = SegmentStore::create(&dir, 0, 4).unwrap();
        assert_eq!(store.append_frames(&frames_of(log.records())), 10);
        assert!(store.seal());
        drop(store);
        let pristine = segment_files(&dir);
        assert_eq!(pristine.len(), 3);
        let dirs = [temp_dir("walk-recover"), temp_dir("walk-reopen")];
        for dir in &dirs {
            std::fs::create_dir_all(dir).unwrap();
        }
        assert_reopen_matches_recover(&dirs, &pristine, "pristine");

        let last = pristine.len() - 1;
        let with_last = |bytes: Vec<u8>| {
            let mut files = pristine.clone();
            files[last].1 = bytes;
            files
        };
        let segment = &pristine[last].1;
        for cut in 0..segment.len() {
            assert_reopen_matches_recover(
                &dirs,
                &with_last(segment[..cut].to_vec()),
                &format!("cut {cut}"),
            );
        }
        for bit in 0..segment.len() * 8 {
            let mut flipped = segment.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_reopen_matches_recover(&dirs, &with_last(flipped), &format!("bit {bit}"));
        }

        // Segment 1 of the retired v1 format, segment 2 after it.
        let mut v1 = pristine.clone();
        v1[1].1[4..8].copy_from_slice(&RETIRED_VERSION.to_le_bytes());
        assert_reopen_matches_recover(&dirs, &v1, "v1 segment");
        // Segment 2 anchored on history the disk does not hold.
        let mut stranger = pristine.clone();
        stranger[2].1[16..24].copy_from_slice(&0xdead_beef_u64.to_le_bytes());
        assert_reopen_matches_recover(&dirs, &stranger, "anchor mismatch");
        // Segment 1's header torn in half by a rotation.
        let mut torn = pristine.clone();
        torn[1].1.truncate(HEADER_LEN / 2);
        assert_reopen_matches_recover(&dirs, &torn, "torn header");
        for dir in dirs.iter().chain([&dir]) {
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    /// Checks the frame `bytes` start with against the chain head `head`, one frame on
    /// its own, in this order: its lengths, its checksum, the canonical form of its
    /// record, the record's `previous_hash` against `head`, and its stored `hash`
    /// against the chain hash. Returns the frame's length and its record's links, or why
    /// the frame was refused. The scan's per-frame contract, kept as the reference the
    /// share-parallel scan is held to.
    fn check_frame(bytes: &[u8], head: u64) -> Result<(usize, RecordLinks), String> {
        if bytes.len() < FRAME_PREFIX_LEN {
            return Err("short frame prefix".into());
        }
        let len = u32::from_le_bytes(bytes[..4].try_into().expect("four bytes"));
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(format!("corrupt frame length {len}"));
        }
        let Some(payload) = bytes[FRAME_PREFIX_LEN..].get(..len as usize) else {
            return Err("short frame payload".into());
        };
        let checksum =
            u64::from_le_bytes(bytes[4..FRAME_PREFIX_LEN].try_into().expect("eight bytes"));
        let (body, stored_hash) = payload.split_at(payload.len().saturating_sub(8));
        let fold = StableHasher::new().write_bytes(body);
        if fold.write_bytes(stored_hash).finish() != checksum {
            return Err("frame checksum mismatch".into());
        }
        let Some(links) = check_record(payload) else {
            return Err("frame decode failure".into());
        };
        let (id, previous_hash, hash) = links;
        if previous_hash != head || fold.finish() != hash {
            return Err(format!("record {id} breaks the chain"));
        }
        Ok((FRAME_PREFIX_LEN + payload.len(), links))
    }

    /// A truncation as the scans must agree on it: all but the path.
    type Shape = (u64, u64, u64, String, usize);

    fn shapes(truncations: &[Truncation]) -> Vec<Shape> {
        let shape = |t: &Truncation| {
            (t.sequence, t.offset, t.bytes_dropped, t.reason.clone(), t.records_recovered_before)
        };
        truncations.iter().map(shape).collect()
    }

    /// What the per-frame loop finds in `files` — segments in sequence order, some
    /// perhaps missing, with sound headers, damaged in their frames only — running
    /// [`check_frame`] one frame after another, and checking each segment's anchor
    /// against the chain head: the chain head, the next id, and every truncation.
    fn serial_scan(files: &[(String, Vec<u8>)]) -> (u64, u64, Vec<Shape>) {
        let anchor = |bytes: &[u8]| u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let (mut head, mut next_id, mut records) = (anchor(&files[0].1), 0, 0);
        let mut truncations = Vec::new();
        let mut stopped_at = None;
        for (name, bytes) in files {
            let sequence = parse_segment_sequence(name).expect("a segment file");
            let whole = bytes.len() as u64;
            if let Some(torn) = stopped_at {
                let reason = format!("unreachable: the scan stopped at segment {torn}");
                truncations.push((sequence, 0, whole, reason, records));
                continue;
            }
            if anchor(bytes) != head {
                let reason = format!("anchor {:#x} does not chain from {head:#x}", anchor(bytes));
                truncations.push((sequence, 0, whole, reason, records));
                stopped_at = Some(sequence);
                continue;
            }
            let mut offset = HEADER_LEN;
            while offset < bytes.len() {
                match check_frame(&bytes[offset..], head) {
                    Ok((len, (id, _, hash))) => {
                        (head, next_id, records) = (hash, id.0 + 1, records + 1);
                        offset += len;
                    }
                    Err(reason) => {
                        let dropped = (bytes.len() - offset) as u64;
                        truncations.push((sequence, offset as u64, dropped, reason, records));
                        stopped_at = Some(sequence);
                        break;
                    }
                }
            }
        }
        (head, next_id, truncations)
    }

    /// Records like a shard's trail: flow checks with their labels, and the shorter
    /// quench records between them, so the four-lane fold meets bodies of unequal length.
    fn trail_records(n: usize) -> Vec<AuditRecord> {
        use legaliot_ifc::{can_flow, SecurityContext};

        let source = SecurityContext::from_names(["medical", "patient-0"], ["consent", "hosp-dev"]);
        let wide = SecurityContext::from_names(
            ["medical", "patient-0", "patient-1", "patient-2", "patient-3"],
            ["consent", "hosp-dev"],
        );
        let mut log = AuditLog::new("shard-0");
        for i in 0..n {
            let event = if i % 3 == 2 {
                AuditEvent::MessageQuenched {
                    source: "patient-0-analyser".into(),
                    destination: "stats-generator".into(),
                    message_type: "analysis-report".into(),
                    attributes: vec!["subject-id".into()],
                }
            } else {
                let destination = if i % 2 == 0 { &wide } else { &source };
                AuditEvent::FlowChecked {
                    source: "patient-0-analyser".into(),
                    destination: "stats-generator".into(),
                    source_context: source.clone(),
                    destination_context: destination.clone(),
                    decision: can_flow(&source, destination),
                    data_item: Some(format!("analysis-report@{i}")),
                }
            };
            log.record(event, i as u64);
        }
        log.records().to_vec()
    }

    /// At the scale where the scan goes parallel — four segments, the first three of
    /// eight shares each — damage planted in segment 1 is found where the per-frame loop
    /// finds it: a flipped checksum byte, a corrupt length, a torn tail, a
    /// `previous_hash` broken (its frame re-sealed) at the segment's first frame, at a
    /// share's first frame and within a share, and a record altered under a fresh
    /// checksum. So is a missing segment: with segment 1 gone, segment 2's anchor does
    /// not chain and the file is kept whole, segment 3 unreachable; with the newest gone,
    /// the prefix before it is clean. [`SegmentStore::recover`] and
    /// [`SegmentStore::reopen`] agree with [`check_frame`], run frame by frame, on the
    /// chain head, the next id and every truncation, and leave the same files;
    /// `recover` returns exactly the records before the damage, and the store `reopen`
    /// returns numbers its segments after the highest one listed.
    #[test]
    fn a_parallel_scan_finds_damage_where_the_per_frame_loop_does() {
        let per_segment = 8 * PARALLEL_FLOOR;
        let records = trail_records(3 * per_segment + PARALLEL_FLOOR);
        let source = temp_dir("parallel-source");
        let mut store = SegmentStore::create(&source, 0, per_segment).unwrap();
        assert_eq!(store.append_frames(&frames_of(&records)), records.len());
        assert!(store.seal());
        drop(store);
        let pristine = segment_files(&source);
        assert_eq!(pristine.len(), 4);

        let segment = &pristine[1].1;
        let mut offsets = vec![HEADER_LEN];
        while let Some((frame, _)) = split_frame(&segment[*offsets.last().unwrap()..]) {
            offsets.push(offsets.last().unwrap() + frame.len());
        }
        assert_eq!(offsets.len(), per_segment + 1);
        // Frame `k` of segment 1's share `share`, and its bytes' range.
        let frame = |share: usize, k: usize| {
            let index = share * PARALLEL_FLOOR + k;
            (per_segment + index, offsets[index]..offsets[index + 1])
        };
        let damaged = |damage: &dyn Fn(&mut Vec<u8>)| {
            let mut files = pristine.clone();
            damage(&mut files[1].1);
            files
        };
        let without = |segment: usize| {
            let mut files = pristine.clone();
            files.remove(segment);
            files
        };
        // Frame `at` re-sealed on a `previous_hash` that is not its predecessor's hash:
        // its checksum and its own hash hold, only its link to the chain breaks.
        let forged = |at: Range<usize>| {
            move |bytes: &mut Vec<u8>| {
                let mut record =
                    decode_record(&bytes[at.start + FRAME_PREFIX_LEN..at.end]).unwrap();
                record.previous_hash ^= 1;
                let mut payload = Vec::new();
                encode_record(&record, &mut payload);
                record.hash = StableHasher::new().write_bytes(split_payload(&payload).0).finish();
                let mut frame = Vec::new();
                put_record_frame(&mut frame, &record);
                bytes[at.clone()].copy_from_slice(&frame);
            }
        };
        // Frame `at`'s record altered and its frame re-checksummed: its stored hash is
        // no longer the hash of its bytes.
        let altered = |at: Range<usize>| {
            move |bytes: &mut Vec<u8>| {
                let mut record =
                    decode_record(&bytes[at.start + FRAME_PREFIX_LEN..at.end]).unwrap();
                record.at_millis ^= 1;
                let mut frame = Vec::new();
                put_record_frame(&mut frame, &record);
                bytes[at.clone()].copy_from_slice(&frame);
            }
        };
        let breaks = |id: usize| Some((id, format!("record #{id} breaks the chain")));
        let (checksum_id, checksum) = frame(1, 17);
        let (length_id, length) = frame(3, 1);
        let (torn_id, torn) = frame(7, PARALLEL_FLOOR - 3);
        let [(opening_id, opening), (share_id, share), (within_id, within), (body_id, body)] =
            [frame(0, 0), frame(2, 0), frame(5, PARALLEL_FLOOR / 2), frame(4, 100)];
        let (seg0_head, seg2_anchor) =
            (records[per_segment - 1].hash, records[2 * per_segment - 1].hash);
        let cases = [
            ("pristine", pristine.clone(), None),
            (
                "flipped checksum byte",
                damaged(&|bytes| bytes[checksum.start + 9] ^= 0x40),
                Some((checksum_id, "frame checksum mismatch".to_string())),
            ),
            (
                "corrupt length",
                damaged(&|bytes| bytes[length.start..length.start + 4].fill(0xff)),
                Some((length_id, format!("corrupt frame length {}", u32::MAX))),
            ),
            (
                "torn tail",
                damaged(&|bytes| bytes.truncate(torn.start + FRAME_PREFIX_LEN + 5)),
                Some((torn_id, "short frame payload".to_string())),
            ),
            (
                "previous_hash broken opening the segment",
                damaged(&forged(opening)),
                breaks(opening_id),
            ),
            ("previous_hash broken opening a share", damaged(&forged(share)), breaks(share_id)),
            ("previous_hash broken within a share", damaged(&forged(within)), breaks(within_id)),
            (
                "a record altered, its frame re-checksummed",
                damaged(&altered(body)),
                breaks(body_id),
            ),
            (
                "a middle segment deleted",
                without(1),
                Some((
                    per_segment,
                    format!("anchor {seg2_anchor:#x} does not chain from {seg0_head:#x}"),
                )),
            ),
            ("the newest segment deleted", without(3), None),
        ];
        for (case, files, expected) in cases {
            let (head, next_id, truncations) = serial_scan(&files);
            // The damage is what the case says, where it says, and every segment after
            // the one it stopped the scan at is unreachable.
            match &expected {
                None => assert!(truncations.is_empty(), "{case}"),
                Some((records_before, reason)) => {
                    let found = (&truncations[0].3, truncations[0].4);
                    assert_eq!(found, (reason, *records_before), "{case}");
                    let unreachable = &truncations[1..];
                    assert!(!unreachable.is_empty(), "{case}: a later segment is unreachable");
                    assert!(
                        unreachable.iter().all(|t| t.3.starts_with("unreachable") && t.1 == 0),
                        "{case}: {unreachable:?}"
                    );
                    assert_eq!(unreachable.last().unwrap().0, 3, "{case}: up to the last");
                }
            }
            let dirs = [temp_dir("parallel-recover"), temp_dir("parallel-reopen")];
            for dir in &dirs {
                std::fs::create_dir_all(dir).unwrap();
                for (name, bytes) in &files {
                    std::fs::write(dir.join(name), bytes).unwrap();
                }
            }
            let report = SegmentStore::recover(&dirs[0]).unwrap();
            assert_eq!(
                (report.head_hash, report.next_id, shapes(&report.truncations)),
                (head, next_id, truncations.clone()),
                "{case}: recover"
            );
            assert_eq!(report.records, records[..next_id as usize], "{case}");
            let (store, reopened) = SegmentStore::reopen(&dirs[1], per_segment, None).unwrap();
            assert_eq!(
                (reopened.head_hash, reopened.next_id, shapes(&reopened.truncations)),
                (head, next_id, truncations.clone()),
                "{case}: reopen"
            );
            assert_eq!(store.head_hash(), head, "{case}");
            let highest = parse_segment_sequence(&files.last().unwrap().0).unwrap();
            assert_eq!(store.next_sequence, highest + 1, "{case}: numbered after the files");
            // Only an unfilled newest segment the scan reached is continued.
            let tail = store.tail.as_ref().map(|(path, _)| path.file_name().unwrap());
            let newest = segment_file_name(highest);
            let continued = (case == "pristine").then_some(std::ffi::OsStr::new(&newest));
            assert_eq!(tail, continued, "{case}");
            drop(store);
            let left = segment_files(&dirs[0]);
            assert_eq!(segment_files(&dirs[1]), left, "{case}: the same files left");
            // A segment the scan stopped at without cutting it, and every one after it,
            // is kept byte for byte.
            for (sequence, offset, ..) in &truncations {
                if *offset == 0 {
                    let name = segment_file_name(*sequence);
                    let kept = files.iter().find(|(file, _)| *file == name).unwrap();
                    assert!(left.contains(kept), "{case}: segment {sequence} kept whole");
                }
            }
            for dir in &dirs {
                std::fs::remove_dir_all(dir).unwrap();
            }
        }
        std::fs::remove_dir_all(&source).unwrap();
    }

    /// A segment the scan cannot reach is reported with its size, and a segment whose
    /// size cannot be read fails the recovery: a loss is never reported as 0 bytes.
    #[cfg(unix)]
    #[test]
    fn an_unmeasurable_unreachable_segment_is_an_error_not_a_zero_byte_loss() {
        let dir = temp_dir("unmeasurable");
        let records = sample_records(4);
        let mut store = SegmentStore::create(&dir, 0, 2).unwrap();
        assert_eq!(store.append_frames(&frames_of(&records)), 4);
        assert!(store.seal());
        drop(store);
        // Segment 0 of the retired format stops the scan; segment 1 is unreachable.
        let first = dir.join(segment_file_name(0));
        let mut bytes = std::fs::read(&first).unwrap();
        bytes[4..8].copy_from_slice(&RETIRED_VERSION.to_le_bytes());
        std::fs::write(&first, bytes).unwrap();
        let report = SegmentStore::recover(&dir).unwrap();
        let unreachable = &report.truncations[1];
        assert!(unreachable.reason.contains("unreachable"), "{}", unreachable.reason);
        let size = std::fs::metadata(dir.join(segment_file_name(1))).unwrap().len();
        assert_eq!(unreachable.bytes_dropped, size);
        // Segment 2: a name whose target is gone, so its size cannot be read.
        std::os::unix::fs::symlink(dir.join("gone"), dir.join(segment_file_name(2))).unwrap();
        assert!(SegmentStore::recover(&dir).is_err());
        assert!(SegmentStore::reopen(&dir, 2, None).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `records` written by a store re-opened on `dir`, `per_segment` to a segment, and
    /// closed cleanly: the checkpoint it leaves, which vouches for them all.
    fn closed_cleanly(dir: &Path, records: &[AuditRecord], per_segment: usize) -> Checkpoint {
        let (mut store, _) = SegmentStore::reopen(dir, per_segment, None).unwrap();
        assert_eq!(store.append_frames(&frames_of(records)), records.len());
        assert!(store.close());
        assert!(!dir.join(CHECKPOINT_TMP).exists(), "renamed over the checkpoint");
        Checkpoint::read(dir).expect("a clean close leaves a checkpoint")
    }

    /// How many frames a restart's scan of `dir` checks: those after a checkpoint it
    /// trusts, or every one.
    fn frames_checked(dir: &Path) -> usize {
        let mut checked = 0;
        let read: ReadRecord<()> = |payload| check_record(payload).map(|links| (links, ()));
        SegmentStore::scan(dir, read, |()| checked += 1, true).unwrap();
        checked
    }

    /// Writes `files` into two fresh directories, recovers one and re-opens the other
    /// (four records to a segment), and asserts the two agree: the same chain head, next
    /// id and truncations, and the same files left. Returns the truncations and the
    /// files.
    fn reopen_beside_recover(
        files: &[(String, Vec<u8>)],
        ctx: &str,
    ) -> (Vec<Shape>, Vec<(String, Vec<u8>)>) {
        let dirs = [temp_dir("beside-recover"), temp_dir("beside-reopen")];
        for dir in &dirs {
            std::fs::create_dir_all(dir).unwrap();
            for (name, bytes) in files {
                std::fs::write(dir.join(name), bytes).unwrap();
            }
        }
        let report = SegmentStore::recover(&dirs[0]).unwrap();
        let (store, reopened) = SegmentStore::reopen(&dirs[1], 4, None).unwrap();
        let recovered = (report.head_hash, report.next_id, shapes(&report.truncations));
        let restarted = (reopened.head_hash, reopened.next_id, shapes(&reopened.truncations));
        assert_eq!(restarted, recovered, "{ctx}");
        assert_eq!(store.head_hash(), reopened.head_hash, "{ctx}");
        drop(store);
        let left = segment_files(&dirs[0]);
        assert_eq!(segment_files(&dirs[1]), left, "{ctx}: the same files left");
        for dir in &dirs {
            std::fs::remove_dir_all(dir).unwrap();
        }
        (recovered.2, left)
    }

    /// A checkpoint a restart cannot trust sends it back to the full scan: none at all, a
    /// torn or a garbled one, a `checkpoint.tmp` left beside it, the vouched segment
    /// shorter than it says or missing, the oldest segment missing, a header before it
    /// that the scan would not accept, and a head that does not agree — another head
    /// hash or next id, a frame offset that is no frame, a last frame that fails its
    /// checksum. In every case a byte is also flipped inside the prefix it vouches for,
    /// which only a full scan sees: `reopen` agrees with `recover` — on the chain head,
    /// the next id, the truncations and the files left — because it scanned it too.
    #[test]
    fn a_checkpoint_that_disagrees_with_the_directory_is_not_trusted() {
        use std::collections::BTreeMap;

        let source = temp_dir("distrust");
        let checkpoint = closed_cleanly(&source, &sample_records(10), 4);
        let pristine: BTreeMap<String, Vec<u8>> = segment_files(&source).into_iter().collect();
        std::fs::remove_dir_all(&source).unwrap();
        let [oldest, middle, newest] = [0, 1, 2].map(segment_file_name);
        let names: Vec<&String> = pristine.keys().collect();
        assert_eq!(names, [CHECKPOINT, &oldest, &middle, &newest]);
        assert_eq!((checkpoint.first, checkpoint.sequence, checkpoint.next_id), (0, 2, 10));
        let rewritten = |edit: fn(&mut Checkpoint)| {
            let mut edited = checkpoint;
            edit(&mut edited);
            edited.encode().to_vec()
        };
        let cases = [
            "no checkpoint",
            "a torn checkpoint",
            "a garbled checkpoint",
            "a checkpoint.tmp left beside it",
            "the vouched segment shorter",
            "the vouched segment missing",
            "the oldest segment missing",
            "a retired header before it",
            "another head hash",
            "another next id",
            "a frame offset that is no frame",
            "a last frame that fails its checksum",
        ];
        for case in cases {
            let mut files = pristine.clone();
            let file = |files: &mut BTreeMap<String, Vec<u8>>, name: &str| {
                std::mem::take(files.get_mut(name).unwrap())
            };
            match case {
                "no checkpoint" => drop(files.remove(CHECKPOINT)),
                "a torn checkpoint" => {
                    files.get_mut(CHECKPOINT).unwrap().truncate(CHECKPOINT_LEN / 2);
                }
                "a garbled checkpoint" => files.get_mut(CHECKPOINT).unwrap()[12] ^= 1,
                "a checkpoint.tmp left beside it" => {
                    files.insert(CHECKPOINT_TMP.into(), checkpoint.encode().to_vec());
                }
                "the vouched segment shorter" => {
                    let mut bytes = file(&mut files, &newest);
                    bytes.truncate(checkpoint.length as usize - 3);
                    files.insert(newest.clone(), bytes);
                }
                "the vouched segment missing" => drop(files.remove(&newest)),
                "the oldest segment missing" => drop(files.remove(&oldest)),
                "a retired header before it" => {
                    let mut bytes = file(&mut files, &oldest);
                    bytes[4..8].copy_from_slice(&RETIRED_VERSION.to_le_bytes());
                    files.insert(oldest.clone(), bytes);
                }
                "another head hash" => {
                    files.insert(CHECKPOINT.into(), rewritten(|c| c.head_hash ^= 1));
                }
                "another next id" => {
                    files.insert(CHECKPOINT.into(), rewritten(|c| c.next_id += 1));
                }
                "a frame offset that is no frame" => {
                    files.insert(CHECKPOINT.into(), rewritten(|c| c.last_frame += 1));
                }
                "a last frame that fails its checksum" => {
                    let mut bytes = file(&mut files, &newest);
                    bytes[checkpoint.last_frame as usize + 5] ^= 1;
                    files.insert(newest.clone(), bytes);
                }
                _ => unreachable!("{case}"),
            }
            // Only a scan of the vouched prefix finds this: segment 1's first frame.
            files.get_mut(&middle).unwrap()[HEADER_LEN + FRAME_PREFIX_LEN] ^= 1;
            let files: Vec<(String, Vec<u8>)> = files.into_iter().collect();
            let (truncations, _) = reopen_beside_recover(&files, case);
            assert!(!truncations.is_empty(), "{case}: the full scan found damage");
        }
    }

    /// A kill after a clean close: the checkpoint vouches for six records, the killed
    /// incarnation appended four more — filling the vouched segment and rotating — and
    /// its tail may have torn. A restart trusts the checkpoint and checks only the
    /// frames after it; it cuts a tear back where `recover` does, reports it the same
    /// way (the records before it counted from the first segment) and leaves the same
    /// files. The checkpoint stays, as the cut is past what it vouches for, unless the
    /// cut falls at its very end.
    #[test]
    fn a_torn_tail_past_the_checkpoint_is_cut_back_as_recover_cuts_it() {
        let records = sample_records(10);
        let source = temp_dir("killed-tail");
        let checkpoint = closed_cleanly(&source, &records[..6], 4);
        let vouched = (checkpoint.sequence, checkpoint.segment_records, checkpoint.records);
        assert_eq!(vouched, (1, 2, 6));
        let (mut store, reopened) = SegmentStore::reopen(&source, 4, None).unwrap();
        assert_eq!((reopened.head_hash, reopened.next_id), (records[5].hash, 6));
        assert_eq!(store.append_frames(&frames_of(&records[6..])), 4);
        drop(store); // killed: no close, so the checkpoint still vouches for six
        assert_eq!(Checkpoint::read(&source), Some(checkpoint));
        assert_eq!(frames_checked(&source), 4, "only the killed incarnation's frames");
        let written = segment_files(&source);
        std::fs::remove_dir_all(&source).unwrap();
        let [middle, newest] = [1, 2].map(segment_file_name);
        let len = |name: &str| written.iter().find(|(file, _)| file == name).unwrap().1.len();
        let end = checkpoint.length as usize;
        let cases = [
            ("nothing torn", None, true),
            ("the vouched segment torn past its end", Some((&middle, len(&middle) - 3)), true),
            ("the first frame after its end torn", Some((&middle, end + 3)), false),
            ("the newest segment torn", Some((&newest, len(&newest) - 3)), true),
        ];
        for (case, cut, kept) in cases {
            let mut files = written.clone();
            if let Some((name, at)) = cut {
                files.iter_mut().find(|(file, _)| file == name).unwrap().1.truncate(at);
            }
            let (truncations, left) = reopen_beside_recover(&files, case);
            assert_eq!(truncations.is_empty(), cut.is_none(), "{case}: {truncations:?}");
            let still =
                left.iter().any(|(name, bytes)| name == CHECKPOINT && *bytes == written[0].1);
            assert_eq!(still, kept, "{case}");
        }
    }

    /// The trust rule: a restart does not re-read what a checkpoint vouches for, so a
    /// byte flipped inside that prefix after the clean close goes unseen by `reopen`,
    /// while `recover`, the auditor's path, reports it, cuts it and removes the
    /// checkpoint — after which a restart scans everything and agrees with it.
    #[test]
    fn a_restart_trusts_the_vouched_prefix_and_recover_still_checks_it() {
        let records = sample_records(10);
        let dir = temp_dir("trusted");
        closed_cleanly(&dir, &records, 4);
        let middle = dir.join(segment_file_name(1));
        let mut bytes = std::fs::read(&middle).unwrap();
        bytes[HEADER_LEN + FRAME_PREFIX_LEN] ^= 1;
        std::fs::write(&middle, &bytes).unwrap();

        assert_eq!(frames_checked(&dir), 0);
        let (store, reopened) = SegmentStore::reopen(&dir, 4, None).unwrap();
        assert!(reopened.truncations.is_empty());
        assert_eq!((reopened.head_hash, reopened.next_id), (records[9].hash, 10));
        drop(store);

        let report = SegmentStore::recover(&dir).unwrap();
        assert_eq!(report.records, records[..4]);
        let found: Vec<(u64, u64)> =
            report.truncations.iter().map(|t| (t.sequence, t.offset)).collect();
        assert_eq!(found, [(1, HEADER_LEN as u64), (2, 0)], "{:?}", report.truncations);
        assert!(!dir.join(CHECKPOINT).exists(), "the cut removed it");
        assert_eq!(frames_checked(&dir), 4);
        let (_, reopened) = SegmentStore::reopen(&dir, 4, None).unwrap();
        assert_eq!((reopened.head_hash, reopened.next_id), (records[3].hash, 4));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A cut inside what a checkpoint vouches for removes it, and fsyncs the directory,
    /// before anything is appended: a restart whose fallback cuts the vouched segment
    /// below the checkpointed length leaves none, the next append goes after the cut,
    /// and the clean close leaves a checkpoint for the new end, which the next restart
    /// trusts and `recover` agrees with.
    #[test]
    fn a_cut_inside_the_vouched_prefix_removes_the_checkpoint_before_the_next_append() {
        let records = sample_records(8);
        let dir = temp_dir("cut-vouched");
        let checkpoint = closed_cleanly(&dir, &records[..6], 4);
        let middle = dir.join(segment_file_name(1));
        OpenOptions::new()
            .write(true)
            .open(&middle)
            .unwrap()
            .set_len(checkpoint.length - 3)
            .unwrap();

        let (mut store, reopened) = SegmentStore::reopen(&dir, 4, None).unwrap();
        let cut: Vec<(u64, u64)> =
            reopened.truncations.iter().map(|t| (t.sequence, t.offset)).collect();
        assert_eq!(cut, [(1, checkpoint.last_frame)]);
        assert_eq!((reopened.head_hash, reopened.next_id), (records[4].hash, 5));
        assert!(!dir.join(CHECKPOINT).exists(), "removed before the next append");
        assert_eq!(store.append_frames(&frames_of(&records[5..])), 3);
        assert!(store.close());

        let renewed = Checkpoint::read(&dir).expect("the clean close leaves a new one");
        let vouched = (renewed.sequence, renewed.segment_records, renewed.next_id, renewed.records);
        assert_eq!(vouched, (1, 4, 8, 8), "segment 1 continued from the cut, and filled");
        assert_eq!(frames_checked(&dir), 0);
        let report = SegmentStore::recover(&dir).unwrap();
        assert!(report.is_clean(), "truncations: {:?}", report.truncations);
        assert_eq!(report.records, records);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A close that wrote nothing changes nothing: three restarts on a cleanly closed
    /// directory, each closed without appending, check no frame, open and fsync nothing,
    /// and leave every file — the checkpoint too, not even replaced by its own bytes —
    /// byte for byte as it was.
    #[test]
    fn an_idle_close_leaves_the_checkpoint_byte_for_byte() {
        let dir = temp_dir("idle-close");
        closed_cleanly(&dir, &sample_records(6), 4);
        let before = segment_files(&dir);
        #[cfg(unix)]
        let inode = || {
            use std::os::unix::fs::MetadataExt;
            std::fs::metadata(dir.join(CHECKPOINT)).unwrap().ino()
        };
        #[cfg(unix)]
        let original = inode();
        for _ in 0..3 {
            assert_eq!(frames_checked(&dir), 0);
            let (mut store, reopened) = SegmentStore::reopen(&dir, 4, Some(1)).unwrap();
            assert!(reopened.truncations.is_empty());
            assert_eq!(reopened.next_id, 6);
            assert!(store.close());
            assert_eq!(*store.stats(), SegmentStats::default(), "nothing opened or fsynced");
        }
        assert_eq!(segment_files(&dir), before);
        #[cfg(unix)]
        assert_eq!(inode(), original, "the checkpoint was not renamed over");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A store whose scan stopped at a file it kept whole — an anchor that does not
    /// chain — cannot vouch for the directory, so its clean close writes no checkpoint,
    /// and every restart reports that file as `recover` does.
    #[test]
    fn a_store_whose_scan_left_a_file_unread_writes_no_checkpoint() {
        let records = sample_records(5);
        let dir = temp_dir("unvouched");
        closed_cleanly(&dir, &records[..2], 2);
        std::fs::write(dir.join(segment_file_name(1)), encode_header(1, 7)).unwrap();
        std::fs::remove_file(dir.join(CHECKPOINT)).unwrap();
        for restart in 0..2 {
            let (mut store, reopened) = SegmentStore::reopen(&dir, 2, None).unwrap();
            let reasons: Vec<&str> =
                reopened.truncations.iter().map(|t| t.reason.as_str()).collect();
            assert!(reasons[0].starts_with("anchor"), "restart {restart}: {reasons:?}");
            assert!(store.append(&records[2 + restart]));
            assert!(store.close());
            assert!(!dir.join(CHECKPOINT).exists(), "restart {restart}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    proptest! {
        /// Group commit against a reference counter. Runs of any size through a store
        /// re-opened with a group commit of `n` fsync exactly when the model does: at
        /// each rotation, which restarts the count, and at the end of a call that
        /// leaves `n` or more records written since the last fsync. So fewer than `n`
        /// are unsynced after every call, and the seal leaves nothing unsynced. The
        /// same runs through a `create`d store fsync at its rotations and seal only.
        #[test]
        fn prop_group_commit_follows_its_reference_counter(
            runs in collection::vec(0usize..10, 1..12),
            n in 1usize..12,
            per_segment in 2usize..24,
        ) {
            let records = sample_records(runs.iter().sum());
            let (grouped_dir, plain_dir) = (temp_dir("group"), temp_dir("no-group"));
            let (mut grouped, _) = SegmentStore::reopen(&grouped_dir, per_segment, Some(n)).unwrap();
            let mut plain = SegmentStore::create(&plain_dir, 0, per_segment).unwrap();
            // The model: records in the open segment, records since the last fsync, and
            // the fsyncs of rotations and of group commits.
            let (mut in_segment, mut unsynced, mut rotations, mut commits) = (0, 0, 0u64, 0u64);
            let mut at = 0;
            for run in runs {
                for _ in 0..run {
                    (in_segment, unsynced) = (in_segment + 1, unsynced + 1);
                    if in_segment == per_segment {
                        (in_segment, unsynced, rotations) = (0, 0, rotations + 1);
                    }
                }
                if unsynced >= n {
                    (unsynced, commits) = (0, commits + 1);
                }
                let frames = frames_of(&records[at..at + run]);
                at += run;
                prop_assert_eq!(grouped.append_frames(&frames), run);
                prop_assert_eq!(plain.append_frames(&frames), run);
                prop_assert_eq!(grouped.stats().fsync.count(), rotations + commits);
                prop_assert_eq!(grouped.unsynced_records, unsynced);
                prop_assert!(grouped.unsynced_records < n);
                prop_assert_eq!(plain.stats().fsync.count(), rotations);
            }
            let sealing = u64::from(in_segment > 0);
            for store in [&mut grouped, &mut plain] {
                prop_assert!(store.seal());
                prop_assert_eq!(store.stats().unsynced_bytes, 0);
                prop_assert_eq!(store.unsynced_records, 0);
            }
            prop_assert_eq!(grouped.stats().fsync.count(), rotations + commits + sealing);
            prop_assert_eq!(plain.stats().fsync.count(), rotations + sealing);
            for dir in [grouped_dir, plain_dir] {
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn fsync_histogram_percentiles() {
        let mut h = FsyncHistogram::default();
        assert_eq!(h.p99_ns(), 0);
        for ns in [100u64, 200, 300, 1000, 50_000] {
            h.0.record(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max_ns(), 50_000);
        let p99 = h.p99_ns();
        assert!((1000..=50_000).contains(&p99), "p99 = {p99}");
        let mut merged = FsyncHistogram::default();
        merged.0.record(7);
        merged.0.merge(&h.0);
        assert_eq!(merged.count(), 6);
        assert_eq!(merged.max_ns(), 50_000);
    }

    #[test]
    fn stats_merge_sums_counters() {
        let mut a = SegmentStats { records_persisted: 3, bytes_written: 100, ..Default::default() };
        let b = SegmentStats { records_persisted: 2, records_dropped: 1, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.records_persisted, 5);
        assert_eq!(a.records_dropped, 1);
        assert_eq!(a.bytes_written, 100);
    }
}
