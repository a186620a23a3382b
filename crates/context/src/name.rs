//! Interned names: every context key, principal, role, component and message-type name
//! the policy layers compare, turned into a number once.
//!
//! One append-only, process-wide table hands out a [`Name`] per distinct string, so a
//! name's id means the same thing in every store, snapshot and access regime of the
//! process — a snapshot built with [`crate::ContextSnapshot::from_pairs`] included —
//! and nothing has to be re-resolved when a snapshot changes. An id reads back as its
//! name ([`Name::from_id`]), so a number is all a holder has to keep. A name's text is
//! kept for the life of the process (the table never shrinks), which is what lets
//! [`Name`] be `Copy` and carry its `&'static str`: the table grows with the distinct
//! names a process has seen, not with how often it sees them.
//!
//! Equality and hashing are by id — one integer compare, one integer hash ([`IdHasher`])
//! — and order is by text, so a sorted collection of names sorts as its strings would.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::OnceLock;

use parking_lot::RwLock;

/// A string interned in the process-wide name table.
#[derive(Clone, Copy)]
pub struct Name {
    id: u32,
    text: &'static str,
}

/// Every name handed out, by text. Never shrinks.
#[derive(Default)]
struct Table {
    /// Keyed by the standard library's randomly seeded hasher: names can come from
    /// outside the program (a device joining under a name of its choosing), and a
    /// text hash an outsider can predict is one they can make collide.
    names: HashMap<&'static str, Name>,
    /// id → text, for every name in `names`.
    texts: Vec<&'static str>,
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
        let id = u32::try_from(self.names.len()).expect("under 2^32 distinct names");
        let name = Name { id, text: self.keep(text) };
        self.names.insert(name.text, name);
        self.texts.push(name.text);
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
    /// Allocates nothing.
    pub fn from_id(id: u32) -> Option<Name> {
        let text = *table().read().texts.get(usize::try_from(id).ok()?)?;
        Some(Name { id, text })
    }

    /// The interned text.
    pub fn as_str(self) -> &'static str {
        self.text
    }

    /// The name's number: the count of names interned before it. Equal ids, equal
    /// names.
    pub fn id(self) -> u32 {
        self.id
    }
}

/// Interns the text: `Name::from(text)` is [`Name::intern`].
impl<T: AsRef<str>> From<T> for Name {
    fn from(text: T) -> Name {
        Name::intern(text.as_ref())
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.id);
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        self.text.cmp(other.text)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.text, f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text)
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
