//! Interned names: every context key, principal, role, component, message type and
//! attribute name the policy layers compare, turned into a number once.
//!
//! One append-only, process-wide table hands out a [`Name`] per distinct string, so a
//! name's id means the same thing in every store, snapshot, schema, message and access
//! regime of the process — a snapshot built with [`crate::ContextSnapshot::from_pairs`]
//! included — and nothing has to be re-resolved when a snapshot changes. A [`Name`] *is*
//! its id, 4 bytes: its text is read back from the table ([`Name::as_str`],
//! [`Name::from_id`]) with no lock, from slots that are set once and never move. A
//! name's text is kept for the life of the process (the table never shrinks), which is
//! what lets [`Name`] be `Copy` and hand out a `&'static str`: the table grows with the
//! distinct names a process has seen — every name a process builds a message or a
//! schema from included — not with how often it sees them.
//!
//! Only [`Name::intern`] and [`Name::lookup`] take a lock, the one around the text → id
//! map; reading a name's text, printing it and ordering names take none.
//!
//! Equality and hashing are by id — one integer compare, one integer hash ([`IdHasher`])
//! — and order is by text, so a sorted collection of names sorts as its strings would.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU32, Ordering as AtomicOrdering};
use std::sync::OnceLock;

use parking_lot::RwLock;

/// A string interned in the process-wide name table: its id, and nothing else.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Name(u32);

const _: () = assert!(std::mem::size_of::<Name>() == 4);

/// Every name handed out, by text, and the chunk new texts are copied into. Never
/// shrinks. Only interning and [`Name::lookup`] read it, under its lock.
#[derive(Default)]
struct Table {
    /// Keyed by the standard library's randomly seeded hasher: names can come from
    /// outside the program (a device joining under a name of its choosing), and a
    /// text hash an outsider can predict is one they can make collide.
    names: HashMap<&'static str, Name>,
    /// The unused tail of the chunk new texts are copied into: texts are kept in a few
    /// large blocks, side by side in the order they were interned, not one small
    /// allocation each among the process's short-lived ones.
    free: &'static mut [u8],
}

/// Bytes in a chunk of interned text.
const CHUNK: usize = 64 * 1024;

impl Table {
    fn intern(&mut self, text: &str) -> Name {
        if let Some(name) = self.names.get(text) {
            return *name;
        }
        let text = self.keep(text);
        let name = Name(TEXTS.push(text));
        self.names.insert(text, name);
        name
    }

    /// Copies `text` into the current chunk, starting a new one when it does not fit.
    fn keep(&mut self, text: &str) -> &'static str {
        if self.free.len() < text.len() {
            self.free = Box::leak(vec![0; text.len().max(CHUNK)].into_boxed_slice());
        }
        let (kept, rest) = std::mem::take(&mut self.free).split_at_mut(text.len());
        self.free = rest;
        kept.copy_from_slice(text.as_bytes());
        let kept: &'static [u8] = kept;
        std::str::from_utf8(kept).expect("copied from a str")
    }
}

fn table() -> &'static RwLock<Table> {
    static TABLE: OnceLock<RwLock<Table>> = OnceLock::new();
    TABLE.get_or_init(RwLock::default)
}

/// Slots in the id → text table's first chunk; chunk `k` holds `FIRST_SLOTS << k`.
const FIRST_SLOTS: usize = 256;

/// Chunks enough for every `u32` id: chunk `k` starts at id `FIRST_SLOTS × (2^k − 1)`.
const CHUNKS: usize = 25;

/// id → text, read with no lock. Slots sit in chunks that double in size, each
/// allocated when its first id is handed out and never moved or freed, so the table
/// grows without copying and a text once read stays where it is. Every slot is set
/// once, before its id is published.
struct Texts {
    /// How many ids were handed out: the slot of every id below it is set. Stored with
    /// `Release` after the slot is, loaded with `Acquire` before an id from outside
    /// ([`Name::from_id`]) is read. A [`Name`]'s own text skips it: the slot is a
    /// `OnceLock`, set before the name existed.
    len: AtomicU32,
    chunks: [OnceLock<Box<[OnceLock<&'static str>]>>; CHUNKS],
}

impl Texts {
    const fn new() -> Self {
        Texts { len: AtomicU32::new(0), chunks: [const { OnceLock::new() }; CHUNKS] }
    }

    /// The chunk holding `id`'s slot, and the slot's index in it.
    fn slot_of(id: u32) -> (usize, usize) {
        let id = id as usize;
        let chunk = (id / FIRST_SLOTS + 1).ilog2() as usize;
        (chunk, id - FIRST_SLOTS * ((1 << chunk) - 1))
    }

    /// Sets the next id's slot to `text`, then publishes the id. Callers push one at a
    /// time (the name table's write lock); a second pusher of the same id panics.
    fn push(&self, text: &'static str) -> u32 {
        let id = self.len.load(AtomicOrdering::Relaxed);
        let next = id.checked_add(1).expect("under 2^32 distinct names");
        let (chunk, at) = Self::slot_of(id);
        let slots = self.chunks[chunk]
            .get_or_init(|| (0..FIRST_SLOTS << chunk).map(|_| OnceLock::new()).collect());
        slots[at].set(text).expect("one pusher at a time, so every slot is set once");
        self.len.store(next, AtomicOrdering::Release);
        id
    }

    /// The text of `id`, if it was published.
    fn get(&self, id: u32) -> Option<&'static str> {
        if id >= self.len.load(AtomicOrdering::Acquire) {
            return None;
        }
        self.text(id)
    }

    /// The text in `id`'s slot, if it is set. A [`Name`] is handed out only after its
    /// slot is, so reading its text needs no look at the count.
    fn text(&self, id: u32) -> Option<&'static str> {
        let (chunk, at) = Self::slot_of(id);
        self.chunks[chunk].get()?[at].get().copied()
    }
}

static TEXTS: Texts = Texts::new();

impl Name {
    /// The name of `text`: its id if the process has seen it, a new one otherwise.
    pub fn intern(text: &str) -> Name {
        Name::lookup(text).unwrap_or_else(|| table().write().intern(text))
    }

    /// The name of `text` if the process has interned it. A string nobody interned
    /// names nothing a rule or a snapshot holds, so a reader can stop at `None`.
    /// Allocates nothing.
    pub fn lookup(text: &str) -> Option<Name> {
        table().read().names.get(text).copied()
    }

    /// The name whose id is `id`, if one was handed out: the way back from a number
    /// that stands for a name — an endpoint that has left included — to its text.
    /// Takes no lock and allocates nothing.
    pub fn from_id(id: u32) -> Option<Name> {
        TEXTS.get(id).map(|_| Name(id))
    }

    /// The interned text, read with no lock.
    pub fn as_str(self) -> &'static str {
        TEXTS.text(self.0).expect("a name is handed out after its text is set")
    }

    /// The name's number: the count of names interned before it. Equal ids, equal
    /// names.
    pub fn id(self) -> u32 {
        self.0
    }
}

/// Interns the text: `Name::from(text)` is [`Name::intern`].
impl<T: AsRef<str>> From<T> for Name {
    fn from(text: T) -> Name {
        Name::intern(text.as_ref())
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// By text, as the strings order (bytewise); equal ids are equal without a text read.
impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        if self == other {
            return Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The hasher of maps keyed by name ids: the id times a 64-bit odd constant (Fibonacci
/// hashing), so high and low bits both vary. Ids are handed out by the name table, one
/// after another, so no outsider picks them. Anything else written is folded in the
/// same way, byte by byte.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|byte| self.fold(u64::from(*byte)));
    }

    fn write_u32(&mut self, id: u32) {
        self.fold(u64::from(id));
    }
}

/// A map keyed by interned names: a lookup hashes one integer.
pub type NameMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn one_id_per_text_and_back() {
        let a = Name::intern("name-test.alpha");
        let b = Name::intern(&String::from("name-test.alpha"));
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "name-test.alpha");
        assert_eq!(Name::lookup("name-test.alpha"), Some(a));
        assert_ne!(Name::intern("name-test.beta"), a);
        assert_eq!(Name::lookup("name-test.never-interned"), None);
        assert_eq!(format!("{a} {a:?}"), "name-test.alpha \"name-test.alpha\"");
    }

    #[test]
    fn every_id_handed_out_reads_back_as_its_name() {
        let a = Name::intern("name-test.by-id");
        assert_eq!(Name::from_id(a.id()).map(Name::as_str), Some("name-test.by-id"));
        // Ids are dense: every one below the newest maps back to the name holding it.
        let newest = Name::intern("name-test.newest").id();
        for id in 0..=newest {
            let name = Name::from_id(id).expect("every id up to the newest was handed out");
            assert_eq!((name.id(), Name::lookup(name.as_str())), (id, Some(name)));
        }
        assert_eq!(Name::from_id(u32::MAX), None, "an id past the end");
    }

    #[test]
    fn order_is_the_texts_and_ids_hash_apart() {
        let (z, a) = (Name::intern("name-test.z"), Name::intern("name-test.a"));
        assert!(a < z, "ordered by text, not by interning order");
        let hashes: HashSet<u64> = (0..1000u32)
            .map(|id| {
                let mut hasher = IdHasher::default();
                hasher.write_u32(id);
                hasher.finish() >> 57
            })
            .collect();
        assert!(hashes.len() > 64, "the top seven bits vary across small ids");
    }

    #[test]
    fn slots_fill_each_chunk_then_the_next_twice_its_size() {
        let at = |id: u32| Texts::slot_of(id);
        let first = FIRST_SLOTS as u32;
        assert_eq!((at(0), at(first - 1)), ((0, 0), (0, FIRST_SLOTS - 1)));
        assert_eq!((at(first), at(3 * first - 1)), ((1, 0), (1, 2 * FIRST_SLOTS - 1)));
        assert_eq!((at(3 * first), at(7 * first)), ((2, 0), (3, 0)));
        let (chunk, slot) = at(u32::MAX);
        assert!(chunk < CHUNKS && slot < FIRST_SLOTS << chunk, "every id has a slot");
    }

    /// Readers race one pusher across the first two chunk boundaries: every id below
    /// the published count reads back the text pushed under it, never a missing slot.
    #[test]
    fn readers_racing_a_pusher_read_every_published_id() {
        let texts = Texts::new();
        let total = 3 * FIRST_SLOTS as u32 + 64;
        let text = |id: u32| -> &'static str { Box::leak(format!("t{id}").into_boxed_str()) };
        let expected: Vec<&'static str> = (0..total).map(text).collect();
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    let mut seen = 0;
                    while seen < total {
                        seen = texts.len.load(AtomicOrdering::Acquire);
                        for id in 0..seen {
                            assert_eq!(texts.get(id), Some(expected[id as usize]), "id {id}");
                        }
                        assert_eq!(texts.get(total), None, "past the count");
                    }
                });
            }
            start.wait();
            for (id, text) in (0..).zip(&expected) {
                assert_eq!(texts.push(text), id);
            }
        });
        assert!(texts.chunks[2].get().is_some() && texts.chunks[3].get().is_none());
    }

    #[test]
    fn threads_interning_one_text_get_one_name() {
        let names: Vec<Name> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|thread| {
                    scope.spawn(move || {
                        let name = Name::intern("name-test.raced");
                        // Others intern texts of their own meanwhile: the id read agrees
                        // with the name every time.
                        for round in 0..64 {
                            let own = Name::intern(&format!("name-test.raced-{thread}-{round}"));
                            let read = |name: Name| Name::from_id(name.id()).map(Name::as_str);
                            assert_eq!(read(own), Some(own.as_str()));
                            assert_eq!(read(name), Some("name-test.raced"));
                        }
                        name
                    })
                })
                .collect();
            handles.into_iter().map(|handle| handle.join().unwrap()).collect()
        });
        assert!(names.windows(2).all(|pair| pair[0] == pair[1]));
        assert_eq!(Name::from_id(names[0].id()).map(Name::as_str), Some("name-test.raced"));
    }
}
