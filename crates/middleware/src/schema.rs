//! Typed message schemas and messages with message-level IFC tags.
//!
//! "Messages are strongly typed, consisting of a set of named and typed attributes, and
//! certain message types, or attributes thereof, can be more sensitive than others; e.g.
//! for a message type `person`, attribute `name` is likely more sensitive than
//! `country`" (§8.2.2). Message-level tags augment the component's security context
//! (Fig. 10); enforcement "may entail source quenching, in that messages/attribute
//! values are not transferred if the tags of each party do not accord".
//!
//! Two forms of a message live here. [`Message`] is the mutable form the bus carries:
//! its [`Attributes`] are one vector sorted by name, and every name — the type's and
//! each attribute's — is a 4-byte [`Name`] from the process-wide table, so a clone or a
//! thaw copies values, never a name, and a schema check matches names by id. Building a
//! message interns its names ([`MessageType::new`], [`Message::with`]): the table grows
//! with each distinct type or attribute name the process builds a message from, not
//! with the messages. [`FrozenMessage`] is what the dataplane shares between threads: a
//! validated message compiled against a [`FrozenSchema`] into one reference-counted
//! body — schema handle, message-level context, sender, send time and a [`Payload`]
//! whose offset table and value bytes are a single buffer — plus a `u64` mask of the
//! attributes still present. The sender is a `Copy` [`Name`] from the process-wide
//! table ([`FrozenMessage::freeze`] interns the message's own). Freezing costs two
//! allocations, payload and body — or none, through a [`BodyRing`], which refills in
//! place a body nobody holds any more; cloning and quenching are one refcount bump, the
//! latter with a smaller mask, and neither allocates.

use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use legaliot_context::Name;
use legaliot_ifc::{Label, SecurityContext};

/// The name of a message type (e.g. `sensor-reading`, `actuation-command`): an
/// interned [`Name`], so copying one — into every clone, thaw and registry entry — is
/// copying 4 bytes, and a map keyed by types hashes one integer. Equal by id, ordered
/// by text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageType(Name);

const _: () = assert!(std::mem::size_of::<MessageType>() == 4);

impl MessageType {
    /// The message type named `name`, interned in the process-wide table.
    pub fn new(name: impl AsRef<str>) -> Self {
        MessageType(Name::intern(name.as_ref()))
    }

    /// The type's name.
    pub fn as_str(self) -> &'static str {
        self.0.as_str()
    }

    /// The type's interned name, what a typed access rule is matched against
    /// ([`crate::AccessRegime::decide_by_id`]).
    pub fn name(self) -> Name {
        self.0
    }
}

impl fmt::Display for MessageType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl From<&str> for MessageType {
    fn from(value: &str) -> Self {
        MessageType::new(value)
    }
}

/// A typed attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttributeValue {
    /// Text.
    Text(String),
    /// Integer.
    Integer(i64),
    /// Floating point.
    Float(f64),
    /// Boolean.
    Bool(bool),
}

impl fmt::Display for AttributeValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttributeValue::Text(s) => write!(f, "{s}"),
            AttributeValue::Integer(i) => write!(f, "{i}"),
            AttributeValue::Float(x) => write!(f, "{x}"),
            AttributeValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// The kind of an attribute, for schema checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttributeKind {
    /// Text attribute.
    Text,
    /// Integer attribute.
    Integer,
    /// Float attribute.
    Float,
    /// Boolean attribute.
    Bool,
}

impl AttributeValue {
    /// The kind of this value.
    pub fn kind(&self) -> AttributeKind {
        match self {
            AttributeValue::Text(_) => AttributeKind::Text,
            AttributeValue::Integer(_) => AttributeKind::Integer,
            AttributeValue::Float(_) => AttributeKind::Float,
            AttributeValue::Bool(_) => AttributeKind::Bool,
        }
    }
}

/// The schema of a message type: attribute names, kinds and per-attribute secrecy tags.
///
/// This is the declaration; [`FrozenSchema::new`] compiles it into the form that
/// validates and quenches messages.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageSchema {
    /// The message type this schema describes.
    pub message_type: MessageType,
    /// Attribute name → kind.
    pub attributes: BTreeMap<String, AttributeKind>,
    /// Per-attribute additional secrecy tags (message-level tags; Fig. 10's tag `C`).
    pub attribute_secrecy: BTreeMap<String, Label>,
}

impl MessageSchema {
    /// Creates a schema for the given message type with no attributes.
    pub fn new(message_type: impl Into<MessageType>) -> Self {
        MessageSchema {
            message_type: message_type.into(),
            attributes: BTreeMap::new(),
            attribute_secrecy: BTreeMap::new(),
        }
    }

    /// Adds an attribute of the given kind.
    pub fn attribute(mut self, name: impl Into<String>, kind: AttributeKind) -> Self {
        self.attributes.insert(name.into(), kind);
        self
    }

    /// Adds an attribute with extra secrecy tags that only exist at the messaging level.
    pub fn sensitive_attribute(
        mut self,
        name: impl Into<String>,
        kind: AttributeKind,
        secrecy: Label,
    ) -> Self {
        let name = name.into();
        self.attributes.insert(name.clone(), kind);
        self.attribute_secrecy.insert(name, secrecy);
        self
    }
}

/// One attribute of a [`Message`]: its interned name and its value.
type Entry = (Name, AttributeValue);

/// The attribute values of a [`Message`]: one vector of `(name, value)` entries,
/// strictly ascending by the names' bytes — the order a `BTreeMap<String, _>` keeps,
/// which a [`FrozenSchema`]'s name table and the [`Payload`] encoding share.
///
/// Names are 4-byte interned [`Name`]s, so a copy allocates the vector and the text
/// values and never a name: cloning the smart-home reading (`value`, `unit`,
/// `subject-id`) is 3 allocations and 111 requested bytes on x86-64, where
/// reference-counted string names took 135 and the map before them 7 allocations and
/// 593 bytes. A lookup by text is a binary search over a handful of entries.
#[derive(Clone, Default, PartialEq)]
pub struct Attributes(Vec<Entry>);

impl Attributes {
    /// The value of the attribute `name`, if present.
    pub(crate) fn get(&self, name: &str) -> Option<&AttributeValue> {
        self.position(name).ok().map(|at| &self.0[at].1)
    }

    /// Whether the attribute `name` is present.
    pub fn contains_key(&self, name: &str) -> bool {
        self.position(name).is_ok()
    }

    /// Number of attributes.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Removes every attribute.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// The attributes as `(name, value)`, in name order.
    pub(crate) fn iter(&self) -> <&Self as IntoIterator>::IntoIter {
        self.into_iter()
    }

    /// The values, in name order, without reading a name's text.
    fn values(&self) -> impl Iterator<Item = &AttributeValue> {
        self.0.iter().map(|(_, value)| value)
    }

    /// Sets the attribute `name` to `value`, returning the value it replaces.
    pub(crate) fn insert(&mut self, name: Name, value: AttributeValue) -> Option<AttributeValue> {
        match self.position(name.as_str()) {
            Ok(at) => Some(std::mem::replace(&mut self.0[at].1, value)),
            Err(at) => {
                self.0.insert(at, (name, value));
                None
            }
        }
    }

    /// Drops, in one pass, the entries whose index is set in `mask`. Entry `i` must be
    /// the schema's attribute `i`, as it is in a message that passed
    /// [`FrozenSchema::validate`].
    pub(crate) fn remove_masked(&mut self, mask: u64) {
        let mut index = 0;
        self.0.retain(|_| {
            let keep = mask.checked_shr(index).unwrap_or(0) & 1 == 0;
            index += 1;
            keep
        });
    }

    /// The attributes not named in `removed`: only the kept entries are copied.
    fn without(&self, removed: &[impl AsRef<str>]) -> Attributes {
        let kept = |(name, _): &&Entry| !removed.iter().any(|gone| gone.as_ref() == name.as_str());
        let mut entries = Vec::with_capacity(self.0.iter().filter(kept).count());
        entries.extend(self.0.iter().filter(kept).cloned());
        Attributes(entries)
    }

    fn position(&self, name: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(candidate, _)| candidate.as_str().cmp(name))
    }
}

impl<'a> IntoIterator for &'a Attributes {
    type Item = (&'a str, &'a AttributeValue);
    type IntoIter =
        std::iter::Map<std::slice::Iter<'a, Entry>, fn(&'a Entry) -> (&'a str, &'a AttributeValue)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().map(|(name, value)| (name.as_str(), value))
    }
}

impl Index<&str> for Attributes {
    type Output = AttributeValue;

    /// # Panics
    ///
    /// When the attribute `name` is not present.
    fn index(&self, name: &str) -> &AttributeValue {
        self.get(name).unwrap_or_else(|| panic!("no attribute `{name}`"))
    }
}

impl fmt::Debug for Attributes {
    /// As a map: `{"unit": Text("bpm"), "value": Float(72.0)}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A typed message: attributes plus the security context it carries end-to-end.
///
/// Its type and attribute names are interned [`Name`]s, so what a copy allocates is
/// what it carries — the [`Attributes`] vector, each text value and the sender: a clone
/// of the smart-home reading is 3 allocations and 111 requested bytes on x86-64 (135
/// with reference-counted string names, 7 and 593 as a map), and
/// [`FrozenMessage::thaw`] of its quenched delivery is 3 and 85 with an 18-byte sender
/// (101; 7 and 781), its names taken from the schema's table. Building one from names
/// the process already holds allocates the vector and the text values and nothing
/// else.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// The message's type.
    pub message_type: MessageType,
    /// The attribute values, sorted by name.
    pub attributes: Attributes,
    /// The security context the data carries (normally the sender's context joined with
    /// any message-level tags).
    pub context: SecurityContext,
    /// The sending component's name (filled in by the middleware).
    pub sender: String,
    /// Simulated send time (ms).
    pub sent_at_millis: u64,
}

impl Message {
    /// Creates a message of the given type with no attributes.
    pub fn new(message_type: impl Into<MessageType>, context: SecurityContext) -> Self {
        Message {
            message_type: message_type.into(),
            attributes: Attributes::default(),
            context,
            sender: String::new(),
            sent_at_millis: 0,
        }
    }

    /// Adds an attribute, interning its name.
    pub fn with(mut self, name: impl Into<Name>, value: AttributeValue) -> Self {
        self.attributes.insert(name.into(), value);
        self
    }

    /// Returns a copy of this message with the named attributes removed — the
    /// *source-quenched* form delivered when some attributes' tags do not accord.
    ///
    /// Accepts any iterator of string-likes (`&str`, `String`, `&String`, …) so call
    /// sites never have to allocate fresh `String`s just to name the attributes.
    pub fn quenched<I>(&self, removed: I) -> Message
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let removed: Vec<I::Item> = removed.into_iter().collect();
        Message {
            message_type: self.message_type,
            attributes: self.attributes.without(&removed),
            context: self.context.clone(),
            sender: self.sender.clone(),
            sent_at_millis: self.sent_at_millis,
        }
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({} attrs) from {}", self.message_type, self.attributes.len(), self.sender)
    }
}

/// The largest number of attributes a schema may declare and still be frozen: presence
/// and quench state of a [`FrozenMessage`] is a single `u64` bitmask over attribute
/// indices, which is what makes per-delivery quenching O(attributes) bit work instead
/// of a map clone.
pub const MAX_FROZEN_ATTRIBUTES: usize = 64;

/// An immutable, shareable compilation of a [`MessageSchema`] for the enforcement hot
/// path: attribute names are interned once (`Arc<[Name]>`), kinds and message-level
/// secrecy labels are index-aligned arrays, and the sensitive attributes are a bitmask,
/// so per-delivery source quenching (Fig. 10) touches no allocations.
///
/// Frozen schemas are handed around as `Arc<FrozenSchema>`; every [`FrozenMessage`] of
/// the type shares the same name table.
#[derive(Debug, Clone)]
pub struct FrozenSchema {
    message_type: MessageType,
    /// Attribute names, sorted by text — the name table every message of the type
    /// shares.
    names: Arc<[Name]>,
    /// Attribute kinds, index-aligned with `names`.
    kinds: Box<[AttributeKind]>,
    /// Message-level secrecy labels, index-aligned with `names`.
    secrecy: Box<[Option<Label>]>,
    /// Bitmask of indices that carry a message-level secrecy label.
    sensitive_mask: u64,
}

impl FrozenSchema {
    /// Compiles a schema into its frozen form.
    ///
    /// # Errors
    ///
    /// Fails when the schema declares more than [`MAX_FROZEN_ATTRIBUTES`] attributes.
    pub fn new(schema: &MessageSchema) -> Result<Self, String> {
        if schema.attributes.len() > MAX_FROZEN_ATTRIBUTES {
            return Err(format!(
                "schema `{}` declares {} attributes; frozen schemas support at most {}",
                schema.message_type,
                schema.attributes.len(),
                MAX_FROZEN_ATTRIBUTES
            ));
        }
        let names: Arc<[Name]> = schema.attributes.keys().map(Name::from).collect();
        let kinds: Box<[AttributeKind]> = schema.attributes.values().copied().collect();
        let mut sensitive_mask = 0u64;
        let secrecy: Box<[Option<Label>]> = names
            .iter()
            .enumerate()
            .map(|(index, name)| {
                let label = schema.attribute_secrecy.get(name.as_str()).cloned();
                if label.is_some() {
                    sensitive_mask |= 1 << index;
                }
                label
            })
            .collect();
        let message_type = schema.message_type;
        Ok(FrozenSchema { message_type, names, kinds, secrecy, sensitive_mask })
    }

    /// The message type this schema describes.
    pub fn message_type(&self) -> &MessageType {
        &self.message_type
    }

    /// Number of declared attributes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the schema declares no attributes.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The interned attribute-name table (sorted by text).
    pub fn names(&self) -> &[Name] {
        &self.names
    }

    /// The index of an attribute name, if declared.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.binary_search_by(|candidate| candidate.as_str().cmp(name)).ok()
    }

    /// The kind of the attribute at `index`.
    pub fn kind(&self, index: usize) -> AttributeKind {
        self.kinds[index]
    }

    /// The message-level secrecy label of the attribute at `index`, if any.
    pub fn secrecy(&self, index: usize) -> Option<&Label> {
        self.secrecy[index].as_ref()
    }

    /// The bitmask of attributes that must be *source-quenched* for a destination
    /// holding `destination_secrecy` (Fig. 10): every attribute whose message-level
    /// tags are not all present in the destination's secrecy label. O(sensitive
    /// attributes), no allocation.
    pub fn quench_mask_for(&self, destination_secrecy: &Label) -> u64 {
        let mut mask = 0u64;
        let mut remaining = self.sensitive_mask;
        while remaining != 0 {
            let index = remaining.trailing_zeros() as usize;
            remaining &= remaining - 1;
            let label = self.secrecy[index].as_ref().expect("sensitive bit implies label");
            if !label.is_subset(destination_secrecy) {
                mask |= 1 << index;
            }
        }
        mask
    }

    /// The attribute names selected by `mask`, in index order (for audit records).
    pub fn mask_names(&self, mask: u64) -> impl Iterator<Item = &str> + Clone + '_ {
        self.names
            .iter()
            .enumerate()
            .filter(move |(index, _)| mask & (1 << index) != 0)
            .map(|(_, name)| name.as_str())
    }

    /// Validates a message against this schema: the message type must match, every
    /// declared attribute must be present with its declared kind, and no undeclared
    /// attribute may be present. The error names the first missing or wrong-typed
    /// declared attribute in name order, else the first undeclared one.
    ///
    /// Both name lists are sorted, so this is one lockstep walk over the two. Names
    /// match by id; their texts are compared only where the ids differ.
    pub fn validate(&self, message: &Message) -> Result<(), String> {
        if message.message_type != self.message_type {
            return Err(format!(
                "message type `{}` does not match schema `{}`",
                message.message_type, self.message_type
            ));
        }
        let given = &message.attributes.0;
        let (mut at, mut undeclared) = (0, None);
        for (declared, kind) in self.names.iter().zip(&self.kinds) {
            loop {
                let Some((name, value)) = given.get(at) else {
                    return Err(format!("missing attribute `{declared}`"));
                };
                match name.cmp(declared) {
                    Ordering::Less => {
                        undeclared.get_or_insert(name);
                        at += 1;
                    }
                    Ordering::Equal if value.kind() != *kind => {
                        return Err(format!("attribute `{declared}` has the wrong type"));
                    }
                    Ordering::Equal => {
                        at += 1;
                        break;
                    }
                    Ordering::Greater => return Err(format!("missing attribute `{declared}`")),
                }
            }
        }
        match undeclared.or(given.get(at).map(|(name, _)| name)) {
            Some(name) => Err(format!("undeclared attribute `{name}`")),
            None => Ok(()),
        }
    }
}

fn encoded_value_len(value: &AttributeValue) -> usize {
    match value {
        AttributeValue::Text(s) => s.len(),
        AttributeValue::Integer(_) | AttributeValue::Float(_) => 8,
        AttributeValue::Bool(_) => 1,
    }
}

/// The encoded payload size of a message's attribute values under the
/// [`Payload`] wire format, without encoding anything (a count independent of the
/// frozen encoder, which tests check the dataplane's bytes-moved accounting against).
pub fn encoded_payload_len(message: &Message) -> usize {
    message.attributes.values().map(encoded_value_len).sum()
}

/// Every check a freeze makes, before anything is written: `message` conforms to
/// `schema` and its encoded values fit the payload's `u32` offsets. Returns their
/// encoded size.
fn checked_payload_len(message: &Message, schema: &FrozenSchema) -> Result<usize, String> {
    schema.validate(message)?;
    let total = encoded_payload_len(message);
    if u32::try_from(total).is_err() {
        return Err(format!("payload of {total} bytes exceeds the 4 GiB offset range"));
    }
    Ok(total)
}

/// The attribute values of one message and their offset table, in *one* allocation:
/// `len` little-endian `u32` end offsets, then the values encoded back-to-back.
/// Attribute `i` occupies `values[end(i - 1)..end(i)]` (from 0 for the first).
///
/// A payload lives inside its message's shared body, so it carries no reference count
/// of its own; values decode lazily against the schema's kind table.
#[derive(Debug, Clone, Default)]
pub struct Payload {
    /// A `Vec` so that a reused body's next message is encoded into the capacity
    /// the last one left.
    buffer: Vec<u8>,
    /// Where the values start in `buffer`: 4 × the attribute count.
    values_at: usize,
}

impl Payload {
    /// Overwrites this payload with `message`, which has passed
    /// [`checked_payload_len`] against `schema`, the schema it will be read with, and
    /// encodes to `total` bytes. Allocates only when the buffer's capacity falls short,
    /// and then exactly what the message needs.
    fn encode(&mut self, message: &Message, schema: &FrozenSchema, total: usize) {
        // A validated message holds exactly the schema's names, and both are sorted:
        // its values are already in table order.
        debug_assert!(
            message.attributes.0.iter().map(|(name, _)| name).eq(schema.names.iter()),
            "a payload is encoded from a message holding its schema's names, in order"
        );
        let values_at = 4 * message.attributes.len();
        let buffer = &mut self.buffer;
        buffer.clear();
        if buffer.capacity() < values_at + total {
            *buffer = Vec::with_capacity(values_at + total);
        }
        buffer.resize(values_at, 0);
        for (index, value) in message.attributes.values().enumerate() {
            match value {
                AttributeValue::Text(s) => buffer.extend_from_slice(s.as_bytes()),
                AttributeValue::Integer(i) => buffer.extend_from_slice(&i.to_le_bytes()),
                AttributeValue::Float(x) => buffer.extend_from_slice(&x.to_bits().to_le_bytes()),
                AttributeValue::Bool(b) => buffer.push(u8::from(*b)),
            }
            let end = (buffer.len() - values_at) as u32;
            buffer[4 * index..4 * index + 4].copy_from_slice(&end.to_le_bytes());
        }
        self.values_at = values_at;
    }

    /// Total encoded size of the values in bytes.
    fn byte_len(&self) -> usize {
        self.buffer.len() - self.values_at
    }

    /// The encoded values (not the offset table). Clones and quenched forms of a
    /// message share this allocation, so pointer identity of the returned slice
    /// witnesses that no copy happened.
    pub fn as_slice(&self) -> &[u8] {
        &self.buffer[self.values_at..]
    }

    /// The byte range of the attribute at `index` within [`Self::as_slice`].
    fn span(&self, index: usize) -> std::ops::Range<usize> {
        let end = |index: usize| {
            let mut raw = [0u8; 4];
            raw.copy_from_slice(&self.buffer[4 * index..4 * index + 4]);
            u32::from_le_bytes(raw) as usize
        };
        let start = if index == 0 { 0 } else { end(index - 1) };
        start..end(index)
    }

    fn decode(&self, index: usize, kind: AttributeKind) -> AttributeValue {
        let bytes = &self.as_slice()[self.span(index)];
        match kind {
            AttributeKind::Text => {
                AttributeValue::Text(String::from_utf8_lossy(bytes).into_owned())
            }
            AttributeKind::Integer => {
                let mut raw = [0u8; 8];
                raw.copy_from_slice(bytes);
                AttributeValue::Integer(i64::from_le_bytes(raw))
            }
            AttributeKind::Float => {
                let mut raw = [0u8; 8];
                raw.copy_from_slice(bytes);
                AttributeValue::Float(f64::from_bits(u64::from_le_bytes(raw)))
            }
            AttributeKind::Bool => AttributeValue::Bool(bytes[0] != 0),
        }
    }
}

/// Everything about a frozen message that never changes once it is published, behind
/// the one reference count its clones and quenched forms share.
#[derive(Debug)]
struct Body {
    schema: Arc<FrozenSchema>,
    payload: Payload,
    /// The message-level security context the application attached (extra secrecy
    /// tags; integrity always comes from the sender at enforcement time).
    extra_context: SecurityContext,
    sender: Name,
    sent_at_millis: u64,
}

impl Body {
    /// The body of `message`, its payload encoded into `payload`'s buffer — an empty
    /// one for a new body, a reused body's own for the capacity it has. The one place
    /// a body is written. The message has passed [`checked_payload_len`] against
    /// `schema` (`total` is what it returned), so nothing here fails.
    fn filled(
        mut payload: Payload,
        message: &Message,
        total: usize,
        schema: Arc<FrozenSchema>,
        sender: Name,
        sent_at_millis: u64,
    ) -> Body {
        payload.encode(message, &schema, total);
        Body { schema, payload, extra_context: message.context.clone(), sender, sent_at_millis }
    }
}

/// A validated, immutable message frozen against a [`FrozenSchema`]: the zero-copy
/// representation the dataplane carries through its shards.
///
/// A message is one shared body — schema, payload, context, sender, send time — plus
/// the mask of attributes still present. Cloning one (once per subscriber in a
/// fan-out) is one refcount bump; quenching is that bump and a mask, in contrast to
/// [`Message::quenched`]'s full map clone.
#[derive(Debug, Clone)]
pub struct FrozenMessage {
    body: Arc<Body>,
    /// Bitmask of attributes still present (quenching clears bits).
    present: u64,
}

impl FrozenMessage {
    /// Validates `message` against `schema` and freezes it, sender and send time as
    /// the message states them.
    ///
    /// # Errors
    ///
    /// Returns the schema-violation message [`FrozenSchema::validate`] gives.
    pub fn freeze(message: &Message, schema: Arc<FrozenSchema>) -> Result<FrozenMessage, String> {
        Self::freeze_stamped(message, schema, message.sender.as_str(), message.sent_at_millis)
    }

    /// [`Self::freeze`] with the sender and send time the middleware stamps (the
    /// publishing endpoint's name, the publish timestamp) in place of the message's
    /// own, so a publish builds its body once. A sender given as text is interned.
    ///
    /// # Errors
    ///
    /// As [`Self::freeze`].
    pub fn freeze_stamped(
        message: &Message,
        schema: Arc<FrozenSchema>,
        sender: impl Into<Name>,
        sent_at_millis: u64,
    ) -> Result<FrozenMessage, String> {
        let total = checked_payload_len(message, &schema)?;
        let sender = sender.into();
        let body = Body::filled(Payload::default(), message, total, schema, sender, sent_at_millis);
        Ok(FrozenMessage::whole(Arc::new(body)))
    }

    /// The message over `body` with every attribute of its schema present.
    fn whole(body: Arc<Body>) -> FrozenMessage {
        let attributes = body.schema.len();
        let present =
            if attributes == MAX_FROZEN_ATTRIBUTES { u64::MAX } else { (1u64 << attributes) - 1 };
        FrozenMessage { body, present }
    }

    /// The schema this message was frozen against.
    pub fn schema(&self) -> &Arc<FrozenSchema> {
        &self.body.schema
    }

    /// The message's type.
    pub fn message_type(&self) -> &MessageType {
        self.body.schema.message_type()
    }

    /// The sending component's name.
    pub fn sender(&self) -> &str {
        self.body.sender.as_str()
    }

    /// The sending component's name as the process-wide table holds it.
    pub fn sender_name(&self) -> Name {
        self.body.sender
    }

    /// Simulated send time (ms).
    pub fn sent_at_millis(&self) -> u64 {
        self.body.sent_at_millis
    }

    /// The message-level security context (application-supplied extra tags).
    pub fn extra_context(&self) -> &SecurityContext {
        &self.body.extra_context
    }

    /// Bitmask of attributes still present.
    pub fn present_mask(&self) -> u64 {
        self.present
    }

    /// Number of attributes still present.
    pub fn attribute_count(&self) -> usize {
        self.present.count_ones() as usize
    }

    /// Encoded payload size in bytes (shared across clones and quenched forms).
    fn payload_byte_len(&self) -> usize {
        self.body.payload.byte_len()
    }

    /// The shared encoded payload (for byte-level inspection; the buffer is common to
    /// every clone and quenched form of this message).
    pub fn payload(&self) -> &Payload {
        &self.body.payload
    }

    /// Encoded size in bytes of the attributes still *present* — the effective bytes a
    /// receiver observes, which shrinks as attributes are quenched.
    pub fn present_byte_len(&self) -> usize {
        self.masked_byte_len(self.present)
    }

    /// Encoded size in bytes of the attributes that would remain present after
    /// quenching `mask` — post-quench bytes-moved accounting without materialising the
    /// quenched form.
    pub fn byte_len_after_quench(&self, mask: u64) -> usize {
        self.masked_byte_len(self.present & !mask)
    }

    fn masked_byte_len(&self, mut present: u64) -> usize {
        let mut total = 0;
        while present != 0 {
            let index = present.trailing_zeros() as usize;
            present &= present - 1;
            total += self.body.payload.span(index).len();
        }
        total
    }

    /// Decodes a present attribute by name.
    pub fn get(&self, name: &str) -> Option<AttributeValue> {
        let schema = &self.body.schema;
        let index = schema.index_of(name)?;
        if self.present & (1 << index) == 0 {
            return None;
        }
        Some(self.body.payload.decode(index, schema.kind(index)))
    }

    /// Iterates the present attributes as `(name, value)` in name order, decoding
    /// values on the fly.
    pub fn attributes(&self) -> impl Iterator<Item = (&str, AttributeValue)> + '_ {
        self.entries().map(|(name, value)| (name.as_str(), value))
    }

    /// [`Self::attributes`] under the schema's interned names.
    fn entries(&self) -> impl Iterator<Item = (Name, AttributeValue)> + '_ {
        let body = &*self.body;
        body.schema
            .names
            .iter()
            .enumerate()
            .filter(move |(index, _)| self.present & (1 << index) != 0)
            .map(move |(index, name)| (*name, body.payload.decode(index, body.schema.kind(index))))
    }

    /// The source-quenched form with the attributes in `mask` removed: the same body,
    /// a smaller presence mask.
    #[must_use]
    pub fn quench(&self, mask: u64) -> FrozenMessage {
        self.clone().into_quenched(mask)
    }

    /// [`Self::quench`] of a message the caller owns: the bits are cleared in place,
    /// so the body's reference count is not touched.
    #[must_use]
    pub fn into_quenched(mut self, mask: u64) -> FrozenMessage {
        self.present &= !mask;
        self
    }

    /// Reconstructs the mutable [`Message`] form (decoding every present attribute).
    /// `freeze` followed by `thaw` round-trips exactly.
    ///
    /// The type and attribute names are the schema's own ids: a thaw allocates the
    /// attribute vector, at its exact length, each text value and the sender.
    pub fn thaw(&self) -> Message {
        let mut attributes = Vec::with_capacity(self.attribute_count());
        attributes.extend(self.entries());
        Message {
            message_type: *self.message_type(),
            attributes: Attributes(attributes),
            context: self.body.extra_context.clone(),
            sender: String::from(self.sender()),
            sent_at_millis: self.body.sent_at_millis,
        }
    }
}

impl fmt::Display for FrozenMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({} attrs, {} bytes) from {}",
            self.message_type(),
            self.attribute_count(),
            self.payload_byte_len(),
            self.sender()
        )
    }
}

/// Frozen bodies kept for reuse: a publisher that freezes through a ring refills, in
/// place, the oldest body it handed out once nobody holds it any more, in place of
/// allocating a body and a payload buffer that some other thread will free.
///
/// The ring keeps one reference to every body it hands out, oldest first, and the
/// reference count is the return path: a body is free again when the ring's reference
/// is the only one left (`Arc::get_mut`), so receivers release bodies by dropping
/// them as they always did — no hook, and no lock shared with them. While the oldest
/// body is still held elsewhere the ring builds a new one and keeps that too, up to
/// `bound` bodies; at the bound it lets the oldest go (whoever retains it keeps it
/// alive) so a body held for good cannot wedge the ring. Reuse therefore needs bodies
/// to be released before their turn comes round, which holds while at most `bound`
/// are in flight.
///
/// Memory: the ring starts empty and grows to the high-water mark of bodies in flight,
/// at most `bound` × (a body of ≈128 bytes + its offset table, 4 bytes an attribute +
/// [`Self::MAX_KEPT_PAYLOAD`]) — a message with a larger payload is built fresh and
/// not kept — and never shrinks. An idle body pins its schema and message-level context
/// until it is reused.
///
/// A message frozen through a ring is indistinguishable from one
/// [`FrozenMessage::freeze_stamped`] built, and a message somebody still holds is never
/// written to.
#[derive(Debug)]
pub struct BodyRing {
    /// Every body handed out and not yet let go of, oldest first.
    slots: VecDeque<Arc<Body>>,
    bound: usize,
    reused: u64,
}

impl BodyRing {
    /// The largest encoded payload (the bytes of [`FrozenMessage::payload`]) a ring keeps
    /// for reuse; a bigger message is frozen into a body of its own that the ring
    /// never holds, so one large message cannot raise what every kept body costs.
    pub const MAX_KEPT_PAYLOAD: usize = 1024;

    /// An empty ring that will keep at most `bound` bodies (at least one). Allocates
    /// nothing.
    pub fn new(bound: usize) -> Self {
        BodyRing { slots: VecDeque::new(), bound: bound.max(1), reused: 0 }
    }

    /// How many freezes refilled a body in place rather than allocating one.
    pub fn reused(&self) -> u64 {
        self.reused
    }

    /// [`FrozenMessage::freeze_stamped`], into the oldest body if it is free. Every
    /// check runs before any body is touched, so a refused message costs the ring
    /// nothing.
    ///
    /// # Errors
    ///
    /// As [`FrozenMessage::freeze`].
    pub fn freeze_stamped(
        &mut self,
        message: &Message,
        schema: &Arc<FrozenSchema>,
        sender: Name,
        sent_at_millis: u64,
    ) -> Result<FrozenMessage, String> {
        let total = checked_payload_len(message, schema)?;
        let filled = |payload| {
            Body::filled(payload, message, total, Arc::clone(schema), sender, sent_at_millis)
        };
        if total > Self::MAX_KEPT_PAYLOAD {
            return Ok(FrozenMessage::whole(Arc::new(filled(Payload::default()))));
        }
        let body = if let Some(oldest) = self.slots.front_mut().and_then(Arc::get_mut) {
            *oldest = filled(std::mem::take(&mut oldest.payload));
            self.reused += 1;
            self.slots.pop_front().expect("the front was just refilled")
        } else {
            // The oldest is still held elsewhere (or there is none yet): build one, and
            // at the bound let the oldest go to make room for it.
            if self.slots.len() >= self.bound {
                self.slots.pop_front();
            }
            Arc::new(filled(Payload::default()))
        };
        self.slots.push_back(Arc::clone(&body));
        Ok(FrozenMessage::whole(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading_schema() -> MessageSchema {
        MessageSchema::new("sensor-reading")
            .attribute("value", AttributeKind::Float)
            .attribute("unit", AttributeKind::Text)
            .sensitive_attribute(
                "patient-name",
                AttributeKind::Text,
                Label::from_names(["identity"]),
            )
    }

    fn reading_message() -> Message {
        Message::new("sensor-reading", SecurityContext::from_names(["medical"], Vec::<&str>::new()))
            .with("value", AttributeValue::Float(72.0))
            .with("unit", AttributeValue::Text("bpm".into()))
            .with("patient-name", AttributeValue::Text("Ann".into()))
    }

    #[test]
    fn sensitive_attributes_carry_extra_labels() {
        let schema = reading_schema();
        let label = |name: &str| schema.attribute_secrecy.get(name);
        assert_eq!(label("patient-name"), Some(&Label::from_names(["identity"])));
        assert!(label("value").is_none());
    }

    #[test]
    fn quenching_removes_attributes() {
        let msg = reading_message();
        let quenched = msg.quenched(&["patient-name".to_string()]);
        assert_eq!(quenched.attributes.len(), 2);
        assert!(!quenched.attributes.contains_key("patient-name"));
        // Original untouched.
        assert_eq!(msg.attributes.len(), 3);
    }

    #[test]
    fn frozen_schema_interns_names_and_masks_sensitive_attributes() {
        let schema = Arc::new(FrozenSchema::new(&reading_schema()).unwrap());
        assert_eq!(schema.message_type().as_str(), "sensor-reading");
        assert_eq!(schema.len(), 3);
        assert!(!schema.is_empty());
        // Sorted name table; `patient-name` sorts first.
        assert_eq!(schema.index_of("patient-name"), Some(0));
        assert_eq!(schema.index_of("unit"), Some(1));
        assert_eq!(schema.index_of("value"), Some(2));
        assert_eq!(schema.index_of("missing"), None);
        assert_eq!(schema.kind(2), AttributeKind::Float);
        assert_eq!(schema.sensitive_mask, 0b001);
        assert_eq!(schema.secrecy(0), Some(&Label::from_names(["identity"])));
        assert!(schema.secrecy(1).is_none());
    }

    #[test]
    fn frozen_schema_rejects_too_many_attributes() {
        let mut schema = MessageSchema::new("wide");
        for i in 0..=MAX_FROZEN_ATTRIBUTES {
            schema = schema.attribute(format!("a{i:02}"), AttributeKind::Bool);
        }
        assert!(FrozenSchema::new(&schema).unwrap_err().contains("at most"));
    }

    #[test]
    fn frozen_validation_matches_schema_validation() {
        let schema = FrozenSchema::new(&reading_schema()).unwrap();
        assert!(schema.validate(&reading_message()).is_ok());
        let missing = Message::new("sensor-reading", SecurityContext::public())
            .with("value", AttributeValue::Float(1.0))
            .with("unit", AttributeValue::Text("bpm".into()));
        assert!(schema.validate(&missing).unwrap_err().contains("missing"));
        let wrong = reading_message().with("value", AttributeValue::Text("high".into()));
        assert!(schema.validate(&wrong).unwrap_err().contains("wrong type"));
        let undeclared = reading_message().with("extra", AttributeValue::Bool(true));
        assert!(schema.validate(&undeclared).unwrap_err().contains("undeclared"));
        let wrong_type = Message::new("other", SecurityContext::public());
        assert!(schema.validate(&wrong_type).unwrap_err().contains("does not match"));
    }

    #[test]
    fn freeze_then_thaw_round_trips() {
        let schema = Arc::new(FrozenSchema::new(&reading_schema()).unwrap());
        let mut message = reading_message();
        message.sender = "ann-sensor".into();
        message.sent_at_millis = 42;
        let frozen = FrozenMessage::freeze(&message, Arc::clone(&schema)).unwrap();
        assert_eq!(frozen.thaw(), message);
        assert_eq!(frozen.attribute_count(), 3);
        assert_eq!(frozen.sender(), "ann-sensor");
        assert_eq!(frozen.sent_at_millis(), 42);
        assert_eq!(frozen.get("unit"), Some(AttributeValue::Text("bpm".into())));
        assert_eq!(frozen.get("value"), Some(AttributeValue::Float(72.0)));
        assert!(frozen.get("missing").is_none());
        assert!(frozen.payload_byte_len() > 0);
        assert!(frozen.to_string().contains("sensor-reading"));
        // The schema freeze fails on is a schema violation, not a panic.
        let bad = Message::new("other", SecurityContext::public());
        assert!(FrozenMessage::freeze(&bad, schema).is_err());
    }

    #[test]
    fn frozen_quenching_is_a_bitmask_over_shared_buffers() {
        let schema = Arc::new(FrozenSchema::new(&reading_schema()).unwrap());
        let frozen = FrozenMessage::freeze(&reading_message(), Arc::clone(&schema)).unwrap();
        // A destination without `identity` quenches exactly `patient-name`.
        let mask = schema.quench_mask_for(&Label::from_names(["medical"]));
        assert_eq!(mask, 0b001);
        assert_eq!(schema.mask_names(mask).collect::<Vec<_>>(), vec!["patient-name"]);
        // A destination holding `identity` quenches nothing.
        assert_eq!(schema.quench_mask_for(&Label::from_names(["medical", "identity"])), 0);
        let quenched = frozen.quench(mask);
        assert_eq!(quenched.attribute_count(), 2);
        assert!(quenched.get("patient-name").is_none());
        assert_eq!(quenched.get("unit"), Some(AttributeValue::Text("bpm".into())));
        // The original is untouched and the payload buffer is shared, not copied.
        assert_eq!(frozen.attribute_count(), 3);
        assert_eq!(quenched.payload_byte_len(), frozen.payload_byte_len());
        // Thawing the quenched form agrees with quenching the message itself.
        assert_eq!(
            quenched.thaw().attributes,
            reading_message().quenched(["patient-name"]).attributes
        );
    }

    #[test]
    fn quenching_shrinks_present_byte_len_but_shares_the_buffer() {
        let schema = Arc::new(FrozenSchema::new(&reading_schema()).unwrap());
        let frozen = FrozenMessage::freeze(&reading_message(), Arc::clone(&schema)).unwrap();
        assert_eq!(frozen.present_byte_len(), frozen.payload_byte_len());
        let mask = schema.quench_mask_for(&Label::from_names(["medical"]));
        let quenched = frozen.quench(mask);
        // `patient-name` is "Ann": 3 encoded bytes gone from the effective size...
        assert_eq!(quenched.present_byte_len(), frozen.present_byte_len() - 3);
        assert_eq!(frozen.byte_len_after_quench(mask), quenched.present_byte_len());
        // ...and it agrees with re-encoding the thawed quenched message.
        assert_eq!(quenched.present_byte_len(), encoded_payload_len(&quenched.thaw()));
        // The underlying buffer is untouched and shared (zero-copy witness).
        assert_eq!(quenched.payload_byte_len(), frozen.payload_byte_len());
        assert!(std::ptr::eq(
            frozen.payload().as_slice().as_ptr(),
            quenched.payload().as_slice().as_ptr()
        ));
    }

    #[test]
    fn successive_quenches_compose_and_share_one_body() {
        let schema = Arc::new(FrozenSchema::new(&reading_schema()).unwrap());
        let frozen = FrozenMessage::freeze(&reading_message(), schema).unwrap();
        for (a, b) in [(0b001u64, 0b100u64), (0b011, 0b110), (0, 0b010), (0b111, 0b111)] {
            let stepwise = frozen.quench(a).quench(b);
            let at_once = frozen.quench(a | b);
            assert_eq!(stepwise.present_mask(), at_once.present_mask());
            assert_eq!(stepwise.thaw(), at_once.thaw());
            assert!(Arc::ptr_eq(&stepwise.body, &frozen.body));
            assert!(Arc::ptr_eq(&at_once.body, &frozen.body));
        }
    }

    #[test]
    fn freeze_stamped_stamps_sender_and_time_and_thaws_to_the_same_message() {
        let schema = Arc::new(FrozenSchema::new(&reading_schema()).unwrap());
        let mut message = reading_message();
        message.sender = "ann-sensor".into();
        message.sent_at_millis = 42;
        let stamped = FrozenMessage::freeze_stamped(&message, schema, "relay", 44).unwrap();
        assert_eq!((stamped.sender(), stamped.sent_at_millis()), ("relay", 44));
        message.sender = "relay".into();
        message.sent_at_millis = 44;
        assert_eq!(stamped.thaw(), message);
    }

    #[test]
    fn encoded_payload_len_matches_frozen_encoding() {
        let schema = Arc::new(FrozenSchema::new(&reading_schema()).unwrap());
        let message = reading_message();
        let frozen = FrozenMessage::freeze(&message, schema).unwrap();
        assert_eq!(encoded_payload_len(&message), frozen.payload_byte_len());
    }

    #[test]
    fn value_kinds_and_display() {
        assert_eq!(AttributeValue::Text("x".into()).kind(), AttributeKind::Text);
        assert_eq!(AttributeValue::Integer(1).kind(), AttributeKind::Integer);
        assert_eq!(AttributeValue::Float(1.0).kind(), AttributeKind::Float);
        assert_eq!(AttributeValue::Bool(true).kind(), AttributeKind::Bool);
        assert_eq!(AttributeValue::Bool(true).to_string(), "true");
        assert_eq!(MessageType::new("t").to_string(), "t");
        assert!(reading_message().to_string().contains("sensor-reading"));
    }

    /// Everything a receiver can read of a message.
    fn observed(message: &FrozenMessage) -> (Message, u64, Vec<u8>, String, u64, SecurityContext) {
        (
            message.thaw(),
            message.present_mask(),
            message.payload().as_slice().to_vec(),
            message.sender().to_string(),
            message.sent_at_millis(),
            message.extra_context().clone(),
        )
    }

    #[test]
    fn ring_refills_released_bodies_and_never_writes_to_a_held_one() {
        const BOUND: usize = 4;
        let schema = Arc::new(FrozenSchema::new(&reading_schema()).unwrap());
        let sender = Name::intern("ann-sensor");
        let mut ring = BodyRing::new(BOUND);
        let held = ring.freeze_stamped(&reading_message(), &schema, sender, 7).unwrap();
        let (before, buffer) = (observed(&held), held.payload().as_slice().as_ptr());
        for at in 0..3 * BOUND as u64 {
            let other = reading_message().with("unit", AttributeValue::Text(format!("u{at}")));
            let frozen = ring.freeze_stamped(&other, &schema, sender, 100 + at).unwrap();
            assert_eq!(frozen.thaw().attributes, other.attributes);
            assert!(ring.slots.len() <= BOUND, "{} bodies in a ring of {BOUND}", ring.slots.len());
        }
        assert_eq!(observed(&held), before);
        assert!(std::ptr::eq(held.payload().as_slice().as_ptr(), buffer));
        // The held body was at the front until the ring filled, and was then let go of;
        // everything frozen since was dropped at once, so from there on each freeze
        // refilled the body before it.
        assert!(ring.slots.iter().all(|body| !Arc::ptr_eq(body, &held.body)));
        assert_eq!(ring.reused(), 3 * BOUND as u64 - BOUND as u64);
    }

    #[test]
    fn ring_refuses_what_freeze_refuses_and_keeps_its_bodies() {
        let schema = Arc::new(FrozenSchema::new(&reading_schema()).unwrap());
        let sender = Name::intern("ann-sensor");
        let mut ring = BodyRing::new(4);
        let first = ring.freeze_stamped(&reading_message(), &schema, sender, 1).unwrap();
        let buffer = first.payload().as_slice().as_ptr();
        drop(first);
        let violations = [
            Message::new("other", SecurityContext::public()),
            reading_message().with("value", AttributeValue::Text("high".into())),
            reading_message().with("extra", AttributeValue::Bool(true)),
        ];
        for bad in &violations {
            let fresh = FrozenMessage::freeze_stamped(bad, Arc::clone(&schema), sender, 2);
            let ringed = ring.freeze_stamped(bad, &schema, sender, 2);
            assert_eq!(ringed.unwrap_err(), fresh.unwrap_err());
        }
        assert_eq!((ring.slots.len(), ring.reused()), (1, 0));
        // The one body is as the first message left it, and is the one refilled next.
        assert_eq!(ring.slots[0].sent_at_millis, 1);
        let next = ring.freeze_stamped(&reading_message(), &schema, sender, 3).unwrap();
        assert_eq!((ring.slots.len(), ring.reused()), (1, 1));
        assert!(std::ptr::eq(next.payload().as_slice().as_ptr(), buffer));
        assert_eq!(next.sent_at_millis(), 3);
    }

    #[test]
    fn ring_does_not_keep_a_body_with_a_large_payload() {
        let schema = Arc::new(FrozenSchema::new(&reading_schema()).unwrap());
        let sender = Name::intern("ann-sensor");
        let mut ring = BodyRing::new(4);
        let large = reading_message()
            .with("unit", AttributeValue::Text("x".repeat(BodyRing::MAX_KEPT_PAYLOAD)));
        let frozen = ring.freeze_stamped(&large, &schema, sender, 1).unwrap();
        assert_eq!(frozen.thaw().attributes, large.attributes);
        assert_eq!(Arc::strong_count(&frozen.body), 1, "the ring kept a reference");
        assert!(ring.slots.is_empty());
        // Nor does a large message grow a kept body: it leaves the free one alone.
        drop(ring.freeze_stamped(&reading_message(), &schema, sender, 2).unwrap());
        drop(ring.freeze_stamped(&large, &schema, sender, 3).unwrap());
        assert_eq!((ring.slots.len(), ring.reused()), (1, 0));
        assert!(ring.slots[0].payload.buffer.capacity() <= BodyRing::MAX_KEPT_PAYLOAD);
    }

    mod freeze_equivalence {
        use super::*;
        use proptest::prelude::*;

        /// A five-attribute schema exercising every kind, with two sensitive attrs.
        fn wide_schema() -> MessageSchema {
            MessageSchema::new("mixed")
                .attribute("count", AttributeKind::Integer)
                .attribute("level", AttributeKind::Float)
                .attribute("ok", AttributeKind::Bool)
                .sensitive_attribute("note", AttributeKind::Text, Label::from_names(["identity"]))
                .sensitive_attribute(
                    "who",
                    AttributeKind::Text,
                    Label::from_names(["identity", "medical"]),
                )
        }

        proptest! {
            /// Freezing a message and quenching *any* attribute subset agrees exactly
            /// with `Message::quenched` on the message itself.
            #[test]
            fn prop_frozen_quench_equals_map_quench(
                count in -1_000_000i64..1_000_000,
                level in 0.0f64..1000.0,
                ok in proptest::bool::ANY,
                note in "[a-z ]{0,12}",
                who in "[a-z]{1,8}",
                subset in 0u64..32,
            ) {
                let schema = Arc::new(FrozenSchema::new(&wide_schema()).unwrap());
                let mut message = Message::new(
                    "mixed",
                    SecurityContext::from_names(["medical"], Vec::<&str>::new()),
                )
                .with("count", AttributeValue::Integer(count))
                .with("level", AttributeValue::Float(level))
                .with("ok", AttributeValue::Bool(ok))
                .with("note", AttributeValue::Text(note))
                .with("who", AttributeValue::Text(who));
                message.sender = "prop-sender".into();
                message.sent_at_millis = 9;

                let frozen = FrozenMessage::freeze(&message, Arc::clone(&schema)).unwrap();
                prop_assert_eq!(frozen.thaw(), message.clone());

                let names: Vec<String> =
                    schema.mask_names(subset).map(str::to_string).collect();
                let thawed = frozen.quench(subset).thaw();
                let expected = message.quenched(&names);
                prop_assert_eq!(thawed, expected);
            }

            /// Over any sequence of messages — two schemas, three senders, tagged and
            /// public contexts, payloads from empty to past what a ring keeps — with
            /// some results held and some dropped, a ring-frozen message reads exactly
            /// as a freshly frozen one, when made and for as long as it is held.
            #[test]
            fn prop_ring_freeze_equals_fresh_freeze(
                steps in proptest::collection::vec(
                    (
                        proptest::bool::ANY,
                        prop_oneof!["[a-z ]{0,24}", "[a-z]{1000,1040}"],
                        0usize..3,
                        0u8..3,
                    ),
                    1..48,
                ),
                bound in 1usize..6,
            ) {
                let schemas = [
                    Arc::new(FrozenSchema::new(&reading_schema()).unwrap()),
                    Arc::new(FrozenSchema::new(&wide_schema()).unwrap()),
                ];
                let senders = ["a", "b-sensor", ""].map(Name::intern);
                let mut ring = BodyRing::new(bound);
                let mut held: Vec<(FrozenMessage, FrozenMessage)> = Vec::new();
                for (at, (wide, text, sender, keep)) in steps.into_iter().enumerate() {
                    let text: String = text;
                    let context = match text.len() % 3 {
                        0 => SecurityContext::public(),
                        1 => SecurityContext::from_names(["medical"], Vec::<&str>::new()),
                        _ => SecurityContext::from_names(["medical", "identity"], ["checked"]),
                    };
                    let message = if wide {
                        Message::new("mixed", context)
                            .with("count", AttributeValue::Integer(at as i64 - 7))
                            .with("level", AttributeValue::Float(at as f64 / 3.0))
                            .with("ok", AttributeValue::Bool(at % 2 == 0))
                            .with("note", AttributeValue::Text(text.clone()))
                            .with("who", AttributeValue::Text(text))
                    } else {
                        reading_message().with("unit", AttributeValue::Text(text))
                    };
                    let (schema, sender, at) = (&schemas[usize::from(wide)], senders[sender], at as u64);
                    let ringed = ring.freeze_stamped(&message, schema, sender, at).unwrap();
                    // The fresh body is given the sender as text, and interns it.
                    let fresh = FrozenMessage::freeze_stamped(
                        &message,
                        Arc::clone(schema),
                        sender.as_str(),
                        at,
                    )
                    .unwrap();
                    prop_assert_eq!(observed(&ringed), observed(&fresh));
                    prop_assert!(Arc::ptr_eq(ringed.schema(), schema));
                    prop_assert!(ring.slots.len() <= bound);
                    // Drop it, hold it, or hold it and release one held before.
                    if keep > 0 {
                        held.push((ringed, fresh));
                    }
                    if keep > 1 {
                        held.swap_remove(0);
                    }
                    for (ringed, fresh) in &held {
                        prop_assert_eq!(observed(ringed), observed(fresh));
                    }
                }
            }
        }
    }

    /// The validation `FrozenSchema::validate` replaced, kept as its reference: a
    /// lookup per declared name, then — when there are more attributes than declared —
    /// a search per given name.
    fn map_validate(schema: &FrozenSchema, message: &Message) -> Result<(), String> {
        if message.message_type != schema.message_type {
            return Err(format!(
                "message type `{}` does not match schema `{}`",
                message.message_type, schema.message_type
            ));
        }
        for (index, name) in schema.names.iter().enumerate() {
            match message.attributes.get(name.as_str()) {
                None => return Err(format!("missing attribute `{name}`")),
                Some(v) if v.kind() != schema.kinds[index] => {
                    return Err(format!("attribute `{name}` has the wrong type"))
                }
                Some(_) => {}
            }
        }
        if message.attributes.len() > schema.names.len() {
            for (name, _) in &message.attributes {
                if schema.index_of(name).is_none() {
                    return Err(format!("undeclared attribute `{name}`"));
                }
            }
        }
        Ok(())
    }

    #[test]
    fn a_message_debugs_as_the_map_it_was() {
        let message = reading_message();
        assert_eq!(
            format!("{:?}", message.attributes),
            r#"{"patient-name": Text("Ann"), "unit": Text("bpm"), "value": Float(72.0)}"#
        );
        assert!(format!("{message:?}").starts_with(
            r#"Message { message_type: MessageType("sensor-reading"), attributes: {"patient-name""#
        ));
        assert_eq!(message.attributes["value"], AttributeValue::Float(72.0));
    }

    /// A thaw and its clone carry the schema's own names, the same ids.
    #[test]
    fn a_thaw_shares_the_schema_names_and_type() {
        let schema = Arc::new(FrozenSchema::new(&reading_schema()).unwrap());
        let frozen = FrozenMessage::freeze(&reading_message(), Arc::clone(&schema)).unwrap();
        let thawed = frozen.quench(0b001).thaw();
        assert_eq!(thawed.message_type.name().id(), schema.message_type.name().id());
        for ((name, _), declared) in thawed.attributes.0.iter().zip(&schema.names[1..]) {
            assert_eq!(name.id(), declared.id(), "`{name}` is not the schema's name");
        }
        assert_eq!(thawed.attributes.0.capacity(), 2);
        let copy = thawed.clone();
        assert_eq!(copy.attributes.0[0].0.id(), schema.names[1].id());
    }

    mod attributes_model {
        use super::*;
        use proptest::prelude::*;

        /// Names that collide, share prefixes and sort by bytes (`Z` before `a`, `é`
        /// after `unit`).
        const NAMES: [&str; 7] = ["", "Z", "a", "ab", "b", "unit", "é"];

        fn value(pick: u8) -> AttributeValue {
            match pick % 4 {
                0 => AttributeValue::Text(format!("t{pick}")),
                1 => AttributeValue::Integer(i64::from(pick)),
                2 => AttributeValue::Float(f64::from(pick) / 2.0),
                _ => AttributeValue::Bool(pick % 8 == 3),
            }
        }

        proptest! {
            /// Any sequence of inserts, replacements, removals (by name, and by index
            /// mask as the bus quenches), lookups and clears leaves `Attributes` and
            /// the `BTreeMap<String, AttributeValue>` it replaced agreeing on order,
            /// length, equality, indexing and `Debug` text.
            #[test]
            fn prop_attributes_behave_as_the_map_they_replaced(
                steps in proptest::collection::vec((0u8..8, 0usize..NAMES.len(), 0u8..64), 0..64),
            ) {
                let mut model: BTreeMap<String, AttributeValue> = BTreeMap::new();
                let mut attributes = Attributes::default();
                for (op, name, pick) in steps {
                    let name = NAMES[name];
                    match op {
                        0..=2 => prop_assert_eq!(
                            attributes.insert(Name::intern(name), value(pick)),
                            model.insert(name.to_string(), value(pick))
                        ),
                        3 => {
                            let had = model.remove(name).is_some();
                            prop_assert_eq!(attributes.contains_key(name), had);
                            attributes = attributes.without(&[name]);
                        }
                        4 => {
                            let mask = u64::from(pick);
                            let gone: Vec<String> = model
                                .keys()
                                .enumerate()
                                .filter(|(index, _)| mask & (1 << index) != 0)
                                .map(|(_, name)| name.clone())
                                .collect();
                            for name in &gone {
                                model.remove(name);
                            }
                            attributes.remove_masked(mask);
                        }
                        5 => prop_assert_eq!(attributes.get(name), model.get(name)),
                        6 => prop_assert_eq!(attributes.contains_key(name), model.contains_key(name)),
                        _ => {
                            attributes.clear();
                            model.clear();
                        }
                    }
                    prop_assert_eq!(attributes.len(), model.len());
                    prop_assert!(attributes
                        .iter()
                        .eq(model.iter().map(|(name, value)| (name.as_str(), value))));
                    for (name, value) in &model {
                        prop_assert_eq!(&attributes[name.as_str()], value);
                    }
                    let mut rebuilt = Attributes::default();
                    for (name, value) in model.iter().rev() {
                        rebuilt.insert(Name::intern(name), value.clone());
                    }
                    prop_assert_eq!(&attributes, &rebuilt);
                    prop_assert_eq!(format!("{attributes:?}"), format!("{model:?}"));
                }
            }
        }
    }

    mod validate_equivalence {
        use super::*;
        use proptest::prelude::*;

        const POOL: [&str; 8] = ["Z", "a", "ab", "b", "count", "unit", "value", "é"];
        const KINDS: [AttributeKind; 4] = [
            AttributeKind::Text,
            AttributeKind::Integer,
            AttributeKind::Float,
            AttributeKind::Bool,
        ];

        fn value_of(kind: AttributeKind) -> AttributeValue {
            match kind {
                AttributeKind::Text => AttributeValue::Text("x".into()),
                AttributeKind::Integer => AttributeValue::Integer(1),
                AttributeKind::Float => AttributeValue::Float(1.5),
                AttributeKind::Bool => AttributeValue::Bool(true),
            }
        }

        fn another_kind(kind: AttributeKind) -> AttributeKind {
            let at = KINDS.iter().position(|candidate| *candidate == kind).unwrap();
            KINDS[(at + 1) % KINDS.len()]
        }

        proptest! {
            /// Over random schemas of up to 8 attributes and messages with declared
            /// attributes missing, of the wrong kind or present, plus undeclared names
            /// and second values for declared ones — each name either the schema's own
            /// `Name` or its text interned again, which must give the same id — the
            /// lockstep walk returns exactly what the map-style check returned, error
            /// text included.
            #[test]
            fn prop_lockstep_validate_is_the_map_validate(
                declared in proptest::collection::vec((0usize..POOL.len(), 0usize..4), 0..9),
                fates in proptest::collection::vec((0u8..6, proptest::bool::ANY), 8),
                extras in proptest::collection::vec(
                    (0usize..POOL.len(), 0usize..4, proptest::bool::ANY),
                    0..4,
                ),
                other_type in 0u8..8,
            ) {
                let schema = declared.iter().fold(MessageSchema::new("t"), |schema, &(name, kind)| {
                    schema.attribute(POOL[name], KINDS[kind])
                });
                let frozen = FrozenSchema::new(&schema).unwrap();
                let mut message =
                    Message::new(if other_type == 0 { "u" } else { "t" }, SecurityContext::public());
                for (index, &declared) in frozen.names().iter().enumerate() {
                    let (fate, shared) = fates[index];
                    let name = if shared { declared } else { Name::intern(declared.as_str()) };
                    prop_assert_eq!(name.id(), declared.id());
                    let kind = frozen.kind(index);
                    match fate {
                        0 => {}
                        1 => message = message.with(name, value_of(another_kind(kind))),
                        _ => message = message.with(name, value_of(kind)),
                    }
                }
                for (name, kind, shared) in extras {
                    let name = match frozen.index_of(POOL[name]) {
                        Some(index) if shared => frozen.names()[index],
                        Some(index) => {
                            let interned = Name::intern(POOL[name]);
                            prop_assert_eq!(interned.id(), frozen.names()[index].id());
                            interned
                        }
                        None => Name::intern(POOL[name]),
                    };
                    message = message.with(name, value_of(KINDS[kind]));
                }
                prop_assert_eq!(frozen.validate(&message), map_validate(&frozen, &message));
            }
        }
    }
}
