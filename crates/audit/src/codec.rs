//! The canonical binary encoding of an [`AuditRecord`].
//!
//! One encoder, one decoder, and two consumers of the same bytes: the chain hash
//! (`record_hash`, which [`crate::AuditLog::verify_records`] calls for every record it
//! verifies) and the frame body ([`encode_record`] / [`decode_record`], which
//! [`crate::SegmentStore`] reads and writes in every frame on disk, and
//! [`crate::AuditLog`] holds in memory). The decoder has two outputs from one walk:
//! the record, or only the verdict and the record's id and hashes (`check_record`, what
//! a restart and [`crate::AuditLog::verify_chain`] read a frame with). The hash is
//! *defined* over the encoding, so a record means the same thing to the chain and to
//! the disk. One frame check (`check_frames`) serves frames on disk and in memory.
//!
//! Each variant has exactly one encoder. The two a dataplane writes per message —
//! `FlowChecked` and `MessageQuenched` — take their fields *borrowed*
//! ([`FlowCheckedRef`], with the data item as its parts, and `&str` names plus an
//! iterator of attribute names), so a [`crate::BatchedAppender`] encodes them straight
//! from the enforcement point's own state without building an [`AuditEvent`]; the
//! owned variants are encoded by lending their fields to those same writers.
//!
//! # Layout
//!
//! ```text
//! record   := body hash:u64le
//! body     := id:varint at_millis:varint recorded_by:str event previous_hash:u64le
//! event    := variant:u8 fields…           (variant numbers and field order below)
//! str      := len:varint utf8-bytes
//! bool     := 0x00 | 0x01
//! opt-str  := 0x00 | 0x01 str
//! strs     := count:varint str*
//! tags     := count:varint str*            (each a valid tag name)
//! context  := secrecy:tags integrity:tags  (each list strictly ascending)
//! decision := 0x00                         (allowed)
//!           | 0x01 missing_secrecy:tags missing_integrity:tags
//! ```
//!
//! The record's chain hash is the FNV-1a 64 ([`StableHasher`]) of exactly the `body`
//! bytes — everything in the record's encoding before the trailing `hash` field.
//!
//! | variant | event | fields, in order |
//! |---|---|---|
//! | 0 | `FlowChecked` | source:str destination:str source_context:context destination_context:context decision data_item:opt-str |
//! | 1 | `FlowSummary` | source:str destination:str allowed:varint denied:varint window_start_millis:varint window_end_millis:varint |
//! | 2 | `LabelChanged` | entity:str before:context after:context algorithm:opt-str |
//! | 3 | `PrivilegeChanged` | entity:str tag:str change:str authority:str |
//! | 4 | `Reconfigured` | component:str issued_by:str action:str accepted:bool |
//! | 5 | `PolicyFired` | policy:str trigger:str actions:varint |
//! | 6 | `ChannelChanged` | from:str to:str established:bool reason:str |
//! | 7 | `DataDerived` | output:str inputs:strs process:str agent:str context |
//! | 8 | `BreakGlass` | policy:str active:bool justification:str |
//! | 9 | `MessageQuenched` | source:str destination:str message_type:str attributes:strs |
//! | 10 | `DeliveryDropped` | source:str destination:str message_type:str dropped:varint |
//! | 11 | `ShardRestarted` | shard:str restart:varint cause:str |
//! | 12 | `DeliveryLost` | source:str destination:str message_type:opt-str lost:varint cause:str |
//!
//! # Frames
//!
//! On disk, and in the memory of a [`crate::BatchedAppender`] and of a
//! [`crate::AuditLog`], a record travels as a *frame*: `len:u32le checksum:u64le
//! record`, the checksum being the FNV-1a 64 of the record's bytes (see
//! [`crate::segment`] for the file around it). A new record's frame is first *encoded* —
//! its length and its body up to `previous_hash`, with the two hashes and the checksum
//! left zero — and then *sealed* with its batch, when the batch is written
//! ([`crate::BatchedAppender::write`], or `close`, which then hands the sealed frames to
//! the log it returns, decoding none; [`crate::AuditLog::record`] seals each record as a
//! batch of one): the bytes that do not depend on the chain are folded, four frames at
//! once ([`StableHasher::fold_each`]); then, oldest first, each fold is continued over the
//! previous record's hash — that state is the chain hash — and over the hash's eight
//! bytes, which makes it the FNV-1a of `body ‖ hash`, the checksum a reader recomputes
//! over the whole payload. FNV-1a being a plain running fold, and
//! [`StableHasher::finish`] the fold's state unchanged, is what allows that; nothing
//! about the format moves.
//!
//! # Canonical form
//!
//! Every record has exactly one encoding and [`decode_record`] accepts nothing else, so
//! equal bytes ⇔ equal records (which is what makes a hash over the bytes injective
//! where the retired `Debug`-string hash was not — `{"a, b"}` and `{"a", "b"}` print
//! alike but encode differently):
//!
//! * integers are unsigned LEB128 varints in their *shortest* form (7 bits per byte,
//!   low group first, high bit = "more follows"); a padded varint or one that
//!   overflows 64 bits is rejected. The two hashes are fixed 8-byte little-endian —
//!   they are uniformly distributed, a varint would only make them longer;
//! * strings are length-prefixed UTF-8, never terminated; invalid UTF-8 is rejected;
//! * a label is its tag names in strictly ascending byte order (the order
//!   [`legaliot_ifc::Label`] iterates in), so duplicates and permutations are
//!   rejected; every tag name — in labels and in denial reasons — must be one
//!   [`Tag::try_new`] returns unchanged (non-empty, no surrounding whitespace). The
//!   `missing_*` lists of a denial are plain vectors and keep their order;
//! * booleans and option markers are one byte, `0x00` or `0x01`; any other value is
//!   rejected;
//! * a record is exactly its fields: trailing bytes are rejected, and because every
//!   field is self-delimiting no strict prefix of a record decodes.
//!
//! It is also what lets a reader check the chain over raw bytes. Bytes that decode are
//! the encoding of the record they decode to, so that record's chain hash is the
//! FNV-1a of the `body` bytes as they stand: a reader that has checked the bytes are
//! canonical — the decoder's own walk, run in a mode that copies nothing — folds the
//! body once and has both the chain hash and (continued over the stored hash) the
//! frame checksum, without building the record. [`crate::SegmentStore`]'s recovery
//! works that way.
//!
//! Lengths and counts read from input are bounded by the bytes actually remaining
//! before anything is allocated, so arbitrary input can neither panic the decoder nor
//! make it reserve more than the input's own size.

use std::fmt;
use std::ops::Range;

use legaliot_ifc::{FlowDecision, FlowDenialReason, Label, SecurityContext, StableHasher, Tag};

use crate::event::{AuditEvent, AuditRecord, RecordId};

/// Where encoded bytes go: a buffer (the frame body) or the chain hasher. The encoder
/// is written once against this, so the hash is over the frame's bytes by construction.
pub(crate) trait Sink {
    fn put(&mut self, bytes: &[u8]);

    /// One byte — a short varint, a marker or a variant tag — as `put` would write it.
    fn put_byte(&mut self, byte: u8) {
        self.put(&[byte]);
    }
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn put_byte(&mut self, byte: u8) {
        self.push(byte);
    }
}

impl Sink for StableHasher {
    fn put(&mut self, bytes: &[u8]) {
        *self = self.write_bytes(bytes);
    }
}

fn put_varint(out: &mut impl Sink, mut value: u64) {
    if value < 0x80 {
        out.put_byte(value as u8);
        return;
    }
    let mut bytes = [0u8; 10];
    let mut len = 0;
    while value >= 0x80 {
        bytes[len] = value as u8 | 0x80;
        value >>= 7;
        len += 1;
    }
    bytes[len] = value as u8;
    out.put(&bytes[..=len]);
}

fn put_str(out: &mut impl Sink, value: &str) {
    put_varint(out, value.len() as u64);
    out.put(value.as_bytes());
}

fn put_bool(out: &mut impl Sink, value: bool) {
    out.put_byte(u8::from(value));
}

fn put_opt_str(out: &mut impl Sink, value: Option<&str>) {
    put_bool(out, value.is_some());
    if let Some(value) = value {
        put_str(out, value);
    }
}

fn put_strs<T: AsRef<str>>(out: &mut impl Sink, count: usize, values: impl Iterator<Item = T>) {
    put_varint(out, count as u64);
    for value in values {
        put_str(out, value.as_ref());
    }
}

fn put_context(out: &mut impl Sink, context: &SecurityContext) {
    for label in [context.secrecy(), context.integrity()] {
        put_strs(out, label.len(), label.iter());
    }
}

fn put_decision(out: &mut impl Sink, decision: &FlowDecision) {
    put_bool(out, decision.is_denied());
    if let FlowDecision::Denied(reason) = decision {
        put_strs(out, reason.missing_secrecy.len(), reason.missing_secrecy.iter());
        put_strs(out, reason.missing_integrity.len(), reason.missing_integrity.iter());
    }
}

/// The fields of an [`AuditEvent::FlowChecked`], borrowed from wherever the check ran:
/// what [`crate::BatchedAppender::append_flow_checked`] encodes without an owned event.
#[derive(Debug, Clone, Copy)]
pub struct FlowCheckedRef<'a> {
    /// The entity data would flow from.
    pub source: &'a str,
    /// The entity data would flow to.
    pub destination: &'a str,
    /// The source's security context at the time of the check.
    pub source_context: &'a SecurityContext,
    /// The destination's security context at the time of the check.
    pub destination_context: &'a SecurityContext,
    /// The flow decision.
    pub decision: &'a FlowDecision,
    /// The data item concerned, if the check was about one.
    pub data_item: Option<DataItem<'a>>,
}

/// The `data_item` of a flow check, as text or as the parts a message is named from.
#[derive(Debug, Clone, Copy)]
pub enum DataItem<'a> {
    /// The item's name, as is.
    Text(&'a str),
    /// A message, named `"{message_type}@{at_millis}"` — encoded from the parts, no
    /// string is built.
    Message {
        /// The message's declared type.
        message_type: &'a str,
        /// When it was sent.
        at_millis: u64,
    },
}

/// `value` in decimal — ASCII digits, written into the tail of `digits` (`u64::MAX`
/// has twenty).
fn decimal(value: u64, digits: &mut [u8; 20]) -> &[u8] {
    let (mut first, mut rest) = (digits.len(), value);
    loop {
        first -= 1;
        digits[first] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    &digits[first..]
}

/// The item's name — the one spelling of `"{message_type}@{at_millis}"`, which the
/// encoder writes from the same parts.
impl fmt::Display for DataItem<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DataItem::Text(text) => f.write_str(text),
            DataItem::Message { message_type, at_millis } => {
                f.write_str(message_type)?;
                f.write_str("@")?;
                let mut digits = [0; 20];
                f.write_str(std::str::from_utf8(decimal(at_millis, &mut digits)).expect("ASCII"))
            }
        }
    }
}

fn put_data_item(out: &mut impl Sink, item: Option<DataItem<'_>>) {
    put_bool(out, item.is_some());
    match item {
        None => {}
        Some(DataItem::Text(text)) => put_str(out, text),
        Some(DataItem::Message { message_type, at_millis }) => {
            let mut digits = [0; 20];
            let digits = decimal(at_millis, &mut digits);
            put_varint(out, (message_type.len() + 1 + digits.len()) as u64);
            out.put(message_type.as_bytes());
            out.put_byte(b'@');
            out.put(digits);
        }
    }
}

/// Variant 0, `FlowChecked`.
pub(crate) fn put_flow_checked(out: &mut impl Sink, fields: &FlowCheckedRef<'_>) {
    out.put_byte(0);
    put_str(out, fields.source);
    put_str(out, fields.destination);
    put_context(out, fields.source_context);
    put_context(out, fields.destination_context);
    put_decision(out, fields.decision);
    put_data_item(out, fields.data_item);
}

/// Variant 9, `MessageQuenched`. The attribute count is taken from the iterator
/// itself, so it cannot disagree with what follows it.
pub(crate) fn put_message_quenched<'a>(
    out: &mut impl Sink,
    source: &str,
    destination: &str,
    message_type: &str,
    attributes: impl Iterator<Item = &'a str> + Clone,
) {
    out.put_byte(9);
    put_str(out, source);
    put_str(out, destination);
    put_str(out, message_type);
    put_strs(out, attributes.clone().count(), attributes);
}

pub(crate) fn put_event(out: &mut impl Sink, event: &AuditEvent) {
    match event {
        AuditEvent::FlowChecked {
            source,
            destination,
            source_context,
            destination_context,
            decision,
            data_item,
        } => put_flow_checked(
            out,
            &FlowCheckedRef {
                source,
                destination,
                source_context,
                destination_context,
                decision,
                data_item: data_item.as_deref().map(DataItem::Text),
            },
        ),
        AuditEvent::FlowSummary {
            source,
            destination,
            allowed,
            denied,
            window_start_millis,
            window_end_millis,
        } => {
            out.put_byte(1);
            put_str(out, source);
            put_str(out, destination);
            put_varint(out, *allowed);
            put_varint(out, *denied);
            put_varint(out, *window_start_millis);
            put_varint(out, *window_end_millis);
        }
        AuditEvent::LabelChanged { entity, before, after, algorithm } => {
            out.put_byte(2);
            put_str(out, entity);
            put_context(out, before);
            put_context(out, after);
            put_opt_str(out, algorithm.as_deref());
        }
        AuditEvent::PrivilegeChanged { entity, tag, change, authority } => {
            out.put_byte(3);
            put_str(out, entity);
            put_str(out, tag);
            put_str(out, change);
            put_str(out, authority);
        }
        AuditEvent::Reconfigured { component, issued_by, action, accepted } => {
            out.put_byte(4);
            put_str(out, component);
            put_str(out, issued_by);
            put_str(out, action);
            put_bool(out, *accepted);
        }
        AuditEvent::PolicyFired { policy, trigger, actions } => {
            out.put_byte(5);
            put_str(out, policy);
            put_str(out, trigger);
            put_varint(out, *actions as u64);
        }
        AuditEvent::ChannelChanged { from, to, established, reason } => {
            out.put_byte(6);
            put_str(out, from);
            put_str(out, to);
            put_bool(out, *established);
            put_str(out, reason);
        }
        AuditEvent::DataDerived { output, inputs, process, agent, context } => {
            out.put_byte(7);
            put_str(out, output);
            put_strs(out, inputs.len(), inputs.iter());
            put_str(out, process);
            put_str(out, agent);
            put_context(out, context);
        }
        AuditEvent::BreakGlass { policy, active, justification } => {
            out.put_byte(8);
            put_str(out, policy);
            put_bool(out, *active);
            put_str(out, justification);
        }
        AuditEvent::MessageQuenched { source, destination, message_type, attributes } => {
            let attributes = attributes.iter().map(String::as_str);
            put_message_quenched(out, source, destination, message_type, attributes);
        }
        AuditEvent::DeliveryDropped { source, destination, message_type, dropped } => {
            out.put_byte(10);
            put_str(out, source);
            put_str(out, destination);
            put_str(out, message_type);
            put_varint(out, *dropped);
        }
        AuditEvent::ShardRestarted { shard, restart, cause } => {
            out.put_byte(11);
            put_str(out, shard);
            put_varint(out, *restart);
            put_str(out, cause);
        }
        AuditEvent::DeliveryLost { source, destination, message_type, lost, cause } => {
            out.put_byte(12);
            put_str(out, source);
            put_str(out, destination);
            put_opt_str(out, message_type.as_deref());
            put_varint(out, *lost);
            put_str(out, cause);
        }
    }
}

/// The part of a record its chain hash covers (`body` in the module docs), its event
/// written by `event` — [`put_event`] over an owned one, or a borrowed writer.
fn put_body<S: Sink>(
    out: &mut S,
    id: RecordId,
    at_millis: u64,
    recorded_by: &str,
    event: impl FnOnce(&mut S),
    previous_hash: u64,
) {
    put_varint(out, id.0);
    put_varint(out, at_millis);
    put_str(out, recorded_by);
    event(out);
    out.put(&previous_hash.to_le_bytes());
}

/// The chain hash of a record with these contents: FNV-1a 64 over the record's
/// canonical encoding up to (not including) its `hash` field. The bytes are folded
/// into the hasher as they are produced — nothing is allocated.
pub(crate) fn record_hash(
    id: RecordId,
    at_millis: u64,
    recorded_by: &str,
    event: &AuditEvent,
    previous_hash: u64,
) -> u64 {
    let mut hasher = StableHasher::new();
    put_body(&mut hasher, id, at_millis, recorded_by, |out| put_event(out, event), previous_hash);
    hasher.finish()
}

/// Appends the canonical encoding of `record` to `out`.
pub fn encode_record(record: &AuditRecord, out: &mut Vec<u8>) {
    put_body(
        out,
        record.id,
        record.at_millis,
        &record.recorded_by,
        |out| put_event(out, &record.event),
        record.previous_hash,
    );
    out.put(&record.hash.to_le_bytes());
}

/// Bytes of a segment frame before its payload: the payload's length (`u32` LE) and
/// checksum (`u64` LE). The payload is one record's encoding; see
/// [`crate::segment`] for the file around it.
pub(crate) const FRAME_PREFIX_LEN: usize = 4 + 8;

/// Appends one frame — `len ‖ checksum ‖ payload` — its payload written by `payload`
/// and its checksum left zero, and returns where the payload starts.
fn put_framed(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = out.len() + FRAME_PREFIX_LEN;
    out.extend_from_slice(&[0; FRAME_PREFIX_LEN]);
    payload(out);
    let len =
        u32::try_from(out.len() - start).expect("one audit record encodes to less than 4 GiB");
    out[start - FRAME_PREFIX_LEN..start - 8].copy_from_slice(&len.to_le_bytes());
    start
}

/// Appends the frame of a new record — numbered `id`, its event written by `event` —
/// *unsealed*: its `previous_hash`, `hash` and checksum are zeros until the frame is
/// sealed with its batch (the last sixteen bytes of a frame are always the two hashes;
/// see [`crate::BatchedAppender`]). Nothing is hashed here.
pub(crate) fn put_unsealed_frame(
    out: &mut Vec<u8>,
    id: RecordId,
    at_millis: u64,
    recorded_by: &str,
    event: impl FnOnce(&mut Vec<u8>),
) {
    put_framed(out, |out| {
        put_body(out, id, at_millis, recorded_by, event, 0);
        out.put(&[0; 8]);
    });
}

/// Appends the frame of an existing record, exactly as it is: the payload is
/// [`encode_record`]'s bytes, whatever hash the record claims, behind its checksum.
pub(crate) fn put_record_frame(out: &mut Vec<u8>, record: &AuditRecord) {
    let start = put_framed(out, |out| encode_record(record, out));
    let checksum = StableHasher::new().write_bytes(&out[start..]).finish();
    out[start - 8..start].copy_from_slice(&checksum.to_le_bytes());
}

/// Splits the first frame — prefix and payload — off a run of frames. `None` when
/// `bytes` does not start with a whole one.
pub(crate) fn split_frame(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let len = u32::from_le_bytes(bytes.get(..4)?.try_into().expect("four bytes"));
    let end = FRAME_PREFIX_LEN.checked_add(usize::try_from(len).ok()?)?;
    (end <= bytes.len()).then(|| bytes.split_at(end))
}

/// Decodes exactly one canonically encoded record spanning all of `bytes`. Anything
/// else — a truncated record, trailing bytes, a non-canonical or malformed field —
/// is `None`; no input panics.
pub fn decode_record(bytes: &[u8]) -> Option<AuditRecord> {
    Reader::<true>::record(bytes)
}

/// What [`decode_record`] says of `bytes`, reduced to the record's id, `previous_hash`
/// and `hash` — by the same walk, with every check, but nothing copied or allocated:
/// a string is held to being UTF-8 (at once when it is ASCII) and a tag name to
/// [`Tag::try_new`]'s rule on its bytes, neither built. This is how a restart
/// ([`crate::SegmentStore::reopen`]) checks a frame's record without building it, on
/// whichever thread the scan gives the frame to.
pub(crate) fn check_record(bytes: &[u8]) -> Option<RecordLinks> {
    Reader::<false>::record(bytes).map(|record| (record.id, record.previous_hash, record.hash))
}

/// A record's id, `previous_hash` and `hash`.
pub(crate) type RecordLinks = (RecordId, u64, u64);

/// How [`check_frames`] reads the record in a frame, after its lengths and checksum:
/// the one canonical record the payload is — its links and what the caller keeps of
/// it — or `None`. [`crate::SegmentStore::recover`] reads it in full and keeps it
/// ([`decode_record`]); a restart and [`crate::AuditLog::verify_chain`] check it just
/// as strictly, build nothing and keep `()` ([`check_record`]). Either way it is one
/// walk of the decoder.
pub(crate) type ReadRecord<K> = fn(&[u8]) -> Option<(RecordLinks, K)>;

/// Frames whose bodies [`check_frames`] folds at once.
const FOLD_BLOCK: usize = 256;

/// What a run of frames says, checked in chain order from its first frame.
pub(crate) struct Verdict<K> {
    /// The links of the first and of the last frame that passed, if any did: the
    /// run chains from the first's `previous_hash`, and the last's `hash` is where
    /// the chain stands after it.
    pub(crate) ends: Option<(RecordLinks, RecordLinks)>,
    /// What is kept of each frame that passed, in chain order.
    pub(crate) passed: Vec<K>,
    /// The frame that failed, if one did: its offset in the bytes and why.
    pub(crate) failed: Option<(usize, Refusal)>,
}

/// Why a frame ended a run's clean prefix.
pub(crate) enum Refusal {
    /// Its bytes are no frame of a record.
    Frame(&'static str),
    /// Its record, with this id, does not chain from the record before it.
    Chain(RecordId),
}

impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refusal::Frame(reason) => f.write_str(reason),
            Refusal::Chain(id) => write!(f, "record {id} breaks the chain"),
        }
    }
}

/// The one frame check, for frames on disk and in memory: checks the frames of
/// `bytes[run]`, whole ones whose lengths the caller has measured, in chain order, each
/// against the one before; the first frame's link to whatever precedes the run is left
/// to the caller. Each frame is checked, in this order: its checksum, the canonical
/// form of its record (`read`), and its stored `hash` against the chain hash.
///
/// The payload is hashed once: the FNV-1a fold over the record's body is its chain
/// hash (the body is canonical, so that is the hash of the record it encodes), and the
/// same fold continued over the stored hash's eight bytes is the checksum — how a frame
/// is built, run backwards. The bodies are folded a block at a time, four at once
/// ([`StableHasher::fold_each`]). Nothing is allocated but what is kept of the records
/// that pass.
pub(crate) fn check_frames<K>(bytes: &[u8], run: Range<usize>, read: ReadRecord<K>) -> Verdict<K> {
    let mut verdict = Verdict { ends: None, passed: Vec::new(), failed: None };
    let (mut block, end) = (run.start, run.end);
    while block < end {
        let start = block;
        let frames = move || {
            let mut offset = start;
            std::iter::from_fn(move || {
                let (frame, _) = split_frame(&bytes[offset..end])?;
                offset += frame.len();
                Some((offset - frame.len(), frame))
            })
            .take(FOLD_BLOCK)
        };
        let mut folds = [StableHasher::new(); FOLD_BLOCK];
        let bodies = frames().map(|(_, frame)| split_payload(&frame[FRAME_PREFIX_LEN..]).0);
        StableHasher::fold_each(bodies, |i, fold| folds[i] = fold);
        for ((offset, frame), fold) in frames().zip(folds) {
            let chained =
                read_frame(frame, fold, read).and_then(|(links, kept)| match verdict.ends {
                    Some((_, (_, _, head))) if links.1 != head => Err(Refusal::Chain(links.0)),
                    _ => Ok((links, kept)),
                });
            match chained {
                Ok((links, kept)) => {
                    verdict.ends = Some((verdict.ends.map_or(links, |(first, _)| first), links));
                    verdict.passed.push(kept);
                }
                Err(refusal) => {
                    verdict.failed = Some((offset, refusal));
                    return verdict;
                }
            }
            block = offset + frame.len();
        }
        if block == start {
            // Bytes that are no whole frame: nothing more to check.
            break;
        }
    }
    verdict
}

/// What the frame `frame` says on its own, its body already folded into `fold`: its
/// checksum, its record's canonical form (`read`), and its stored hash against the
/// chain hash.
fn read_frame<K>(
    frame: &[u8],
    fold: StableHasher,
    read: ReadRecord<K>,
) -> Result<(RecordLinks, K), Refusal> {
    let (prefix, payload) = frame.split_at(FRAME_PREFIX_LEN);
    let stored_hash = split_payload(payload).1;
    if fold.write_bytes(stored_hash).finish().to_le_bytes() != prefix[4..] {
        return Err(Refusal::Frame("frame checksum mismatch"));
    }
    let (links, kept) = read(payload).ok_or(Refusal::Frame("frame decode failure"))?;
    if fold.finish() != links.2 {
        return Err(Refusal::Chain(links.0));
    }
    Ok((links, kept))
}

/// A frame's payload as its record's body and the stored hash after it. A payload
/// under eight bytes holds no record; folded whole, it still gets its checksum
/// checked first, and then fails the decode.
pub(crate) fn split_payload(payload: &[u8]) -> (&[u8], &[u8]) {
    payload.split_at(payload.len().saturating_sub(8))
}

/// A cursor over undecoded input; every read either consumes what it returns or
/// fails. `OWN` picks what a read returns: the value (`true`, for [`decode_record`]),
/// or — every check made all the same — an empty stand-in for any string, list or
/// label (`false`, for [`check_record`]), so a walk that only checks allocates nothing.
struct Reader<'a, const OWN: bool> {
    bytes: &'a [u8],
}

impl<'a, const OWN: bool> Reader<'a, OWN> {
    fn record(bytes: &'a [u8]) -> Option<AuditRecord> {
        let mut reader = Self { bytes };
        let record = AuditRecord {
            id: RecordId(reader.varint()?),
            at_millis: reader.varint()?,
            recorded_by: reader.string()?,
            event: reader.event()?,
            previous_hash: reader.u64_le()?,
            hash: reader.u64_le()?,
        };
        reader.bytes.is_empty().then_some(record)
    }

    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        if len > self.bytes.len() {
            return None;
        }
        let (head, rest) = self.bytes.split_at(len);
        self.bytes = rest;
        Some(head)
    }

    fn byte(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u64_le(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().expect("took 8 bytes")))
    }

    fn varint(&mut self) -> Option<u64> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            let group = u64::from(byte & 0x7f);
            // The tenth group holds bit 63 only.
            if shift == 63 && group > 1 {
                return None;
            }
            value |= group << shift;
            if byte & 0x80 == 0 {
                // Shortest form: only a lone byte may be zero.
                return (byte != 0 || shift == 0).then_some(value);
            }
        }
        None
    }

    /// A length or count, usable as an allocation size: each counted item occupies at
    /// least one byte, so anything above the remaining input is malformed.
    fn len(&mut self) -> Option<usize> {
        let len = usize::try_from(self.varint()?).ok()?;
        (len <= self.bytes.len()).then_some(len)
    }

    fn str(&mut self) -> Option<&'a str> {
        let len = self.len()?;
        std::str::from_utf8(self.take(len)?).ok()
    }

    /// What [`Self::str`] reads, as the bytes it checked: a walk that only checks asks
    /// no more of a string than that it is UTF-8, which ASCII text is.
    fn utf8(&mut self) -> Option<&'a [u8]> {
        let len = self.len()?;
        let bytes = self.take(len)?;
        (bytes.is_ascii() || std::str::from_utf8(bytes).is_ok()).then_some(bytes)
    }

    fn string(&mut self) -> Option<String> {
        if OWN {
            self.str().map(str::to_owned)
        } else {
            self.utf8().map(|_| String::new())
        }
    }

    fn bool(&mut self) -> Option<bool> {
        match self.byte()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn opt_string(&mut self) -> Option<Option<String>> {
        Some(if self.bool()? { Some(self.string()?) } else { None })
    }

    /// A counted list, each item read by `item`: collected when owning, checked and
    /// dropped when not.
    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let count = self.len()?;
        if OWN {
            return (0..count).map(|_| item(self)).collect();
        }
        for _ in 0..count {
            item(self)?;
        }
        Some(Vec::new())
    }

    fn strings(&mut self) -> Option<Vec<String>> {
        self.list(Self::string)
    }

    fn tag(&mut self) -> Option<Tag> {
        let name = self.str()?;
        Tag::try_new(name).filter(|tag| tag.name() == name)
    }

    /// A tag name, held to [`Self::tag`]'s rule without building the tag:
    /// [`Tag::try_new`] trims and refuses what is left empty, so the name returned
    /// unchanged is a non-empty one with nothing to trim.
    fn tag_name(&mut self) -> Option<&'a [u8]> {
        let name = self.utf8()?;
        let untrimmed = match (name.first(), name.last()) {
            (Some(&first), Some(&last)) if first.is_ascii() && last.is_ascii() => {
                !char::from(first).is_whitespace() && !char::from(last).is_whitespace()
            }
            (Some(_), Some(_)) => std::str::from_utf8(name).is_ok_and(|name| name.trim() == name),
            _ => false,
        };
        untrimmed.then_some(name)
    }

    fn tags(&mut self) -> Option<Vec<Tag>> {
        if OWN {
            self.list(Self::tag)
        } else {
            self.list(Self::tag_name).map(|_| Vec::new())
        }
    }

    /// The canonical form is the label's own order, so the list is the label: checked
    /// strictly ascending and taken as it stands, not sorted again. A tag orders by its
    /// name, so a walk that only checks compares the names.
    fn label(&mut self) -> Option<Label> {
        if OWN {
            return Label::from_ascending(self.tags()?);
        }
        let mut previous: Option<&[u8]> = None;
        self.list(|reader| {
            let name = reader.tag_name()?;
            let ascending = !previous.is_some_and(|previous| previous >= name);
            previous = Some(name);
            ascending.then_some(())
        })?;
        Some(Label::empty())
    }

    fn context(&mut self) -> Option<SecurityContext> {
        Some(SecurityContext::new(self.label()?, self.label()?))
    }

    fn decision(&mut self) -> Option<FlowDecision> {
        Some(if self.bool()? {
            FlowDecision::Denied(FlowDenialReason {
                missing_secrecy: self.tags()?,
                missing_integrity: self.tags()?,
            })
        } else {
            FlowDecision::Allowed
        })
    }

    fn event(&mut self) -> Option<AuditEvent> {
        Some(match self.byte()? {
            0 => AuditEvent::FlowChecked {
                source: self.string()?,
                destination: self.string()?,
                source_context: self.context()?,
                destination_context: self.context()?,
                decision: self.decision()?,
                data_item: self.opt_string()?,
            },
            1 => AuditEvent::FlowSummary {
                source: self.string()?,
                destination: self.string()?,
                allowed: self.varint()?,
                denied: self.varint()?,
                window_start_millis: self.varint()?,
                window_end_millis: self.varint()?,
            },
            2 => AuditEvent::LabelChanged {
                entity: self.string()?,
                before: self.context()?,
                after: self.context()?,
                algorithm: self.opt_string()?,
            },
            3 => AuditEvent::PrivilegeChanged {
                entity: self.string()?,
                tag: self.string()?,
                change: self.string()?,
                authority: self.string()?,
            },
            4 => AuditEvent::Reconfigured {
                component: self.string()?,
                issued_by: self.string()?,
                action: self.string()?,
                accepted: self.bool()?,
            },
            5 => AuditEvent::PolicyFired {
                policy: self.string()?,
                trigger: self.string()?,
                actions: usize::try_from(self.varint()?).ok()?,
            },
            6 => AuditEvent::ChannelChanged {
                from: self.string()?,
                to: self.string()?,
                established: self.bool()?,
                reason: self.string()?,
            },
            7 => AuditEvent::DataDerived {
                output: self.string()?,
                inputs: self.strings()?,
                process: self.string()?,
                agent: self.string()?,
                context: self.context()?,
            },
            8 => AuditEvent::BreakGlass {
                policy: self.string()?,
                active: self.bool()?,
                justification: self.string()?,
            },
            9 => AuditEvent::MessageQuenched {
                source: self.string()?,
                destination: self.string()?,
                message_type: self.string()?,
                attributes: self.strings()?,
            },
            10 => AuditEvent::DeliveryDropped {
                source: self.string()?,
                destination: self.string()?,
                message_type: self.string()?,
                dropped: self.varint()?,
            },
            11 => AuditEvent::ShardRestarted {
                shard: self.string()?,
                restart: self.varint()?,
                cause: self.string()?,
            },
            12 => AuditEvent::DeliveryLost {
                source: self.string()?,
                destination: self.string()?,
                message_type: self.opt_string()?,
                lost: self.varint()?,
                cause: self.string()?,
            },
            _ => return None,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Free text: may be empty, holds non-ASCII, spaces and the `", "` that made two
    /// different labels print alike.
    const TEXT: &str = "[a-cé雪 ,]{0,6}";
    /// Tag names: non-empty, nothing to trim.
    const TAG: &str = "[a-cé,]{1,3}";

    fn number() -> impl Strategy<Value = u64> {
        // Every varint length: one byte, two bytes, up to all ten.
        prop_oneof![0u64..0x80, 0x80u64..0x4000, 0u64..u64::MAX, Just(u64::MAX)]
    }

    fn opt_text() -> impl Strategy<Value = Option<String>> {
        (prop::bool::ANY, TEXT).prop_map(|(some, text)| some.then_some(text))
    }

    fn texts() -> impl Strategy<Value = Vec<String>> {
        collection::vec(TEXT, 0..4)
    }

    fn tags() -> impl Strategy<Value = Vec<Tag>> {
        collection::vec(TAG, 0..4).prop_map(|names| names.into_iter().map(Tag::new).collect())
    }

    fn context() -> impl Strategy<Value = SecurityContext> {
        (tags(), tags()).prop_map(|(secrecy, integrity)| {
            SecurityContext::new(secrecy.into_iter().collect(), integrity.into_iter().collect())
        })
    }

    fn decision() -> impl Strategy<Value = FlowDecision> {
        prop_oneof![
            Just(FlowDecision::Allowed),
            (tags(), tags()).prop_map(|(missing_secrecy, missing_integrity)| {
                FlowDecision::Denied(FlowDenialReason { missing_secrecy, missing_integrity })
            }),
        ]
    }

    /// Any event, over all 13 variants.
    pub(crate) fn event() -> impl Strategy<Value = AuditEvent> {
        prop_oneof![
            ((TEXT, TEXT, context(), context()), (decision(), opt_text())).prop_map(
                |(
                    (source, destination, source_context, destination_context),
                    (decision, data_item),
                )| {
                    AuditEvent::FlowChecked {
                        source,
                        destination,
                        source_context,
                        destination_context,
                        decision,
                        data_item,
                    }
                }
            ),
            ((TEXT, TEXT), (number(), number(), number(), number())).prop_map(
                |((source, destination), (allowed, denied, start, end))| AuditEvent::FlowSummary {
                    source,
                    destination,
                    allowed,
                    denied,
                    window_start_millis: start,
                    window_end_millis: end,
                }
            ),
            (TEXT, context(), context(), opt_text()).prop_map(
                |(entity, before, after, algorithm)| AuditEvent::LabelChanged {
                    entity,
                    before,
                    after,
                    algorithm
                }
            ),
            (TEXT, TEXT, TEXT, TEXT).prop_map(|(entity, tag, change, authority)| {
                AuditEvent::PrivilegeChanged { entity, tag, change, authority }
            }),
            (TEXT, TEXT, TEXT, prop::bool::ANY).prop_map(
                |(component, issued_by, action, accepted)| AuditEvent::Reconfigured {
                    component,
                    issued_by,
                    action,
                    accepted
                }
            ),
            (TEXT, TEXT, number()).prop_map(|(policy, trigger, actions)| {
                AuditEvent::PolicyFired { policy, trigger, actions: actions as usize }
            }),
            (TEXT, TEXT, prop::bool::ANY, TEXT).prop_map(|(from, to, established, reason)| {
                AuditEvent::ChannelChanged { from, to, established, reason }
            }),
            ((TEXT, texts()), (TEXT, TEXT, context())).prop_map(
                |((output, inputs), (process, agent, context))| AuditEvent::DataDerived {
                    output,
                    inputs,
                    process,
                    agent,
                    context
                }
            ),
            (TEXT, prop::bool::ANY, TEXT).prop_map(|(policy, active, justification)| {
                AuditEvent::BreakGlass { policy, active, justification }
            }),
            (TEXT, TEXT, TEXT, texts()).prop_map(
                |(source, destination, message_type, attributes)| AuditEvent::MessageQuenched {
                    source,
                    destination,
                    message_type,
                    attributes
                }
            ),
            (TEXT, TEXT, TEXT, number()).prop_map(
                |(source, destination, message_type, dropped)| AuditEvent::DeliveryDropped {
                    source,
                    destination,
                    message_type,
                    dropped
                }
            ),
            (TEXT, number(), TEXT).prop_map(|(shard, restart, cause)| {
                AuditEvent::ShardRestarted { shard, restart, cause }
            }),
            ((TEXT, TEXT, opt_text()), (number(), TEXT)).prop_map(
                |((source, destination, message_type), (lost, cause))| AuditEvent::DeliveryLost {
                    source,
                    destination,
                    message_type,
                    lost,
                    cause
                }
            ),
        ]
    }

    fn record() -> impl Strategy<Value = AuditRecord> {
        ((number(), number(), TEXT, event()), (number(), number())).prop_map(
            |((id, at_millis, recorded_by, event), (previous_hash, hash))| AuditRecord {
                id: RecordId(id),
                at_millis,
                recorded_by,
                event,
                previous_hash,
                hash,
            },
        )
    }

    fn encoded(record: &AuditRecord) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_record(record, &mut bytes);
        bytes
    }

    fn bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
        collection::vec((0u16..256).prop_map(|b| b as u8), len)
    }

    /// The format, byte for byte, on a record small enough to encode by hand.
    #[test]
    fn a_small_record_encodes_to_the_documented_bytes() {
        let record = AuditRecord {
            id: RecordId(1),
            at_millis: 300,
            recorded_by: "n".into(),
            event: AuditEvent::PolicyFired {
                policy: "pé".into(),
                trigger: String::new(),
                actions: 128,
            },
            previous_hash: 0x0102_0304_0506_0708,
            hash: 0x1112_1314_1516_1718,
        };
        #[rustfmt::skip]
        let expected = [
            0x01,                               // id
            0xac, 0x02,                         // at_millis = 300
            0x01, b'n',                         // recorded_by
            0x05,                               // PolicyFired
            0x03, b'p', 0xc3, 0xa9,             // policy (length in bytes, not chars)
            0x00,                               // trigger: empty
            0x80, 0x01,                         // actions = 128
            0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // previous_hash, LE
            0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11, // hash, LE
        ];
        assert_eq!(encoded(&record), expected);
        assert_eq!(decode_record(&expected), Some(record));
    }

    /// A `LabelChanged` record whose `before` secrecy label lists `secrecy`, as given.
    fn label_changed(secrecy: &[&[u8]]) -> Vec<u8> {
        // id 0, at 0, recorded_by "", LabelChanged, entity "", then `before`.
        let mut bytes = vec![0, 0, 0, 2, 0, secrecy.len() as u8];
        for name in secrecy {
            bytes.push(name.len() as u8);
            bytes.extend_from_slice(name);
        }
        // before.integrity, after (two empty labels), no algorithm, two hashes.
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        bytes.extend_from_slice(&[0; 16]);
        bytes
    }

    /// A `ShardRestarted` record whose id is the varint bytes `id`, as given.
    fn with_id(id: &[u8]) -> Vec<u8> {
        let mut bytes = id.to_vec();
        // at 0, recorded_by "", ShardRestarted { "", 0, "" }, two hashes.
        bytes.extend_from_slice(&[0, 0, 11, 0, 0, 0]);
        bytes.extend_from_slice(&[0; 16]);
        bytes
    }

    /// `check_record` is `decode_record` reduced to the id and the two hashes.
    fn check_agrees_with_decode(bytes: &[u8]) -> Result<(), TestCaseError> {
        let decoded = decode_record(bytes).map(|r| (r.id, r.previous_hash, r.hash));
        let checked = check_record(bytes);
        prop_assert!(checked == decoded, "on {bytes:?}: checked {checked:?}, decoded {decoded:?}");
        Ok(())
    }

    #[test]
    fn non_canonical_fields_are_rejected() {
        assert!(decode_record(&label_changed(&[b"a", b"b"])).is_some());
        assert!(decode_record(&label_changed(&[b"b", b"a"])).is_none(), "unsorted tags");
        assert!(decode_record(&label_changed(&[b"a", b"a"])).is_none(), "duplicate tag");
        assert!(decode_record(&label_changed(&[b" a"])).is_none(), "untrimmed tag");
        assert!(decode_record(&label_changed(&[b""])).is_none(), "empty tag");
        assert!(decode_record(&label_changed(&[b"\xff"])).is_none(), "invalid UTF-8");

        assert_eq!(decode_record(&with_id(&[0x7f])).map(|r| r.id), Some(RecordId(127)));
        assert!(decode_record(&with_id(&[0xff, 0x00])).is_none(), "padded varint");
        let max = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        assert_eq!(decode_record(&with_id(&max)).map(|r| r.id), Some(RecordId(u64::MAX)));
        let overflow = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        assert!(decode_record(&with_id(&overflow)).is_none(), "varint overflows 64 bits");
        assert!(decode_record(&with_id(&[0xff; 11])).is_none(), "varint never ends");
        // A bool that is neither 0 nor 1, an unknown variant, a count beyond the input.
        assert!(decode_record(&[0, 0, 0, 8, 0, 2, 0]).is_none());
        assert!(decode_record(&[0, 0, 0, 13]).is_none());
        assert!(decode_record(&[0, 0, 0, 9, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f]).is_none());
    }

    /// The checking walk refuses each canonical-form violation the decoder refuses, and
    /// accepts the canonical bytes next to them with the decoder's id and hashes.
    #[test]
    fn check_record_refuses_what_decode_record_refuses() {
        let mut trailing = with_id(&[0x7f]);
        trailing.push(0);
        let mut bool_two = label_changed(&[]);
        // `algorithm`'s option marker: neither 0 nor 1.
        let marker = bool_two.len() - 17;
        bool_two[marker] = 2;
        let refused: [(&str, Vec<u8>); 8] = [
            ("padded varint", with_id(&[0xff, 0x00])),
            ("bool byte 2", bool_two),
            ("unsorted label", label_changed(&[b"b", b"a"])),
            ("duplicate tag", label_changed(&[b"a", b"a"])),
            ("leading space", label_changed(&[b" a"])),
            ("trailing space", label_changed(&[b"a "])),
            ("invalid UTF-8", label_changed(&[b"\xff"])),
            ("trailing byte", trailing),
        ];
        for (rule, bytes) in &refused {
            assert!(decode_record(bytes).is_none(), "{rule}: decoded");
            assert_eq!(check_record(bytes), None, "{rule}: checked");
        }
        for canonical in [with_id(&[0x7f]), label_changed(&[b"a", b"b"]), label_changed(&[])] {
            assert!(check_record(&canonical).is_some());
            check_agrees_with_decode(&canonical).unwrap();
        }
    }

    /// A data item's name is spelt in one place: what `Display` prints is what the
    /// encoder writes, at every digit count.
    #[test]
    fn a_data_item_prints_as_it_is_encoded() {
        assert_eq!(DataItem::Text("reading-1").to_string(), "reading-1");
        for at_millis in [0, 9, 10, 1_234_567_890_123, u64::MAX] {
            let item = DataItem::Message { message_type: "sensor-reading", at_millis };
            assert_eq!(item.to_string(), format!("sensor-reading@{at_millis}"));
            let (mut from_parts, mut from_text) = (Vec::new(), Vec::new());
            put_data_item(&mut from_parts, Some(item));
            put_data_item(&mut from_text, Some(DataItem::Text(&item.to_string())));
            assert_eq!(from_parts, from_text);
        }
    }

    proptest! {
        /// A decoded context is built from the tag lists as they stand, and is the
        /// context that was encoded: equal, and equal under both hashes.
        #[test]
        fn prop_a_decoded_context_is_the_encoded_one(context in context()) {
            use std::hash::{Hash, Hasher};
            let std_hash = |context: &SecurityContext| {
                let mut hasher = std::collections::hash_map::DefaultHasher::new();
                context.hash(&mut hasher);
                hasher.finish()
            };
            let mut bytes = Vec::new();
            put_context(&mut bytes, &context);
            let mut reader = Reader::<true> { bytes: &bytes };
            let decoded = reader.context().expect("a canonical context decodes");
            prop_assert!(reader.bytes.is_empty());
            prop_assert_eq!(&decoded, &context);
            prop_assert_eq!(std_hash(&decoded), std_hash(&context));
            prop_assert_eq!(decoded.stable_hash(), context.stable_hash());
        }

        /// Any record over all 13 variants survives the round trip, its chain hash is
        /// the FNV-1a of the encoding minus the trailing hash field, and the encoding
        /// is neither extensible nor truncatable.
        #[test]
        fn prop_round_trip_and_framing(record in record(), garbage in bytes(1..8)) {
            let bytes = encoded(&record);
            prop_assert_eq!(decode_record(&bytes), Some(record.clone()));
            prop_assert_eq!(
                record_hash(
                    record.id,
                    record.at_millis,
                    &record.recorded_by,
                    &record.event,
                    record.previous_hash
                ),
                StableHasher::new().write_bytes(&bytes[..bytes.len() - 8]).finish()
            );
            for cut in 0..bytes.len() {
                prop_assert!(decode_record(&bytes[..cut]).is_none(), "prefix of {cut} bytes decoded");
            }
            let mut extended = bytes;
            extended.extend_from_slice(&garbage);
            prop_assert!(decode_record(&extended).is_none(), "trailing {garbage:?} accepted");
        }

        /// One walk, two outputs: on noise, on every record over all 13 variants, on
        /// every single-byte flip of it and on every prefix of it, checking says exactly
        /// what decoding says.
        #[test]
        fn prop_check_record_is_decode_record_reduced(
            noise in bytes(0..64),
            record in record(),
            flip in 1u16..256,
        ) {
            check_agrees_with_decode(&noise)?;
            let bytes = encoded(&record);
            prop_assert_eq!(
                check_record(&bytes),
                Some((record.id, record.previous_hash, record.hash))
            );
            for position in 0..bytes.len() {
                let mut damaged = bytes.clone();
                damaged[position] ^= flip as u8;
                check_agrees_with_decode(&damaged)?;
            }
            for cut in 0..bytes.len() {
                check_agrees_with_decode(&bytes[..cut])?;
            }
        }

        /// Arbitrary input never panics, and whatever does decode re-encodes to the
        /// very same bytes: one record, one encoding.
        #[test]
        fn prop_arbitrary_bytes_never_panic_and_decode_canonically(
            noise in bytes(0..64),
            record in record(),
            position in 0usize..4096,
            flip in 1u16..256,
        ) {
            if let Some(decoded) = decode_record(&noise) {
                prop_assert_eq!(encoded(&decoded), noise);
            }
            // Damage near a valid encoding reaches far deeper into the decoder than
            // noise does.
            let mut damaged = encoded(&record);
            let position = position % damaged.len();
            damaged[position] ^= flip as u8;
            if let Some(decoded) = decode_record(&damaged) {
                prop_assert_eq!(encoded(&decoded), damaged);
            }
        }
    }
}
