//! Context-keyed caching of access-control decisions.
//!
//! Contextual AC is evaluated per interaction (§8.1's "general AC regime" consults
//! principal attributes *and context*), and in a high-throughput dataplane the same
//! `(component, principal, operation, message type)` question is asked millions of
//! times between context changes. Unlike IFC decisions — pure functions of two security
//! contexts, cacheable by their hashes ([`legaliot_ifc::DecisionCache`]) — an AC
//! decision depends on whatever [`ContextStore`] keys the rules' conditions actually
//! read, so correct caching needs *key-level* invalidation:
//!
//! 1. every cached decision records the context keys the deciding rule set references
//!    ([`crate::Condition::referenced_keys`]);
//! 2. the cache subscribes to the [`ContextStore`]; [`AcDecisionCache::sync`] polls the
//!    subscription (cheap version check first) and drops exactly the entries that
//!    reference a changed key, forcing a fresh evaluation against the new context;
//! 3. time-dependent conditions ([`crate::Condition::is_time_dependent`]) are never
//!    cached — their outcome can change without any store write.
//!
//! The cache is value-generic so enforcement layers can store their own decision type
//! (e.g. the middleware's `AccessDecision`) without this crate depending on them.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use legaliot_context::{ContextStore, SubscriptionId};

/// Counters describing an [`AcDecisionCache`]'s effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AcCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a fresh rule-set evaluation.
    pub misses: u64,
    /// Entries dropped because a context key they reference changed.
    pub invalidated: u64,
    /// Entries currently cached.
    pub entries: usize,
}

impl AcCacheStats {
    /// Hit ratio in `[0, 1]`; `0` when no lookups have happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Entry<V> {
    value: V,
    /// The context keys this entry depends on (for removal from the reverse index);
    /// each name is the reverse index's own allocation.
    keys: Vec<Arc<str>>,
}

/// A cache of access-control decisions keyed by a caller-provided stable 64-bit key
/// (e.g. a hash of `(component, principal, roles, operation, message type)`), with
/// entries invalidated when any [`ContextStore`] key they reference changes.
///
/// Single-owner by design (no interior locking), mirroring
/// [`legaliot_ifc::DecisionCache`]: a sharded enforcement engine gives each shard its
/// own cache, each holding its own store subscription.
///
/// ```
/// use legaliot_context::{ContextStore, Timestamp};
/// use legaliot_policy::AcDecisionCache;
///
/// let store = ContextStore::new();
/// let mut cache: AcDecisionCache<bool> = AcDecisionCache::new();
/// cache.attach(&store);
/// cache.insert(7, true, ["patient.heart-rate"]);
/// assert_eq!(cache.lookup(7), Some(true));
/// store.set("patient.heart-rate", 150i64, Timestamp(1));
/// assert_eq!(cache.sync(&store), 1); // the dependent entry is dropped
/// assert_eq!(cache.lookup(7), None); // forcing re-evaluation
/// ```
#[derive(Debug)]
pub struct AcDecisionCache<V> {
    entries: HashMap<u64, Entry<V>>,
    /// Reverse index: context key name → cache keys of entries referencing it.
    by_context_key: HashMap<Arc<str>, HashSet<u64>>,
    /// Store subscription used by [`Self::sync`] (set by [`Self::attach`]).
    subscription: Option<SubscriptionId>,
    /// Last store version [`Self::sync`] processed (version-check fast path).
    seen_version: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
    invalidated: u64,
}

impl<V> Default for AcDecisionCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> AcDecisionCache<V> {
    /// Default maximum number of cached decisions.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// Creates a cache with [`Self::DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a cache holding at most `capacity` decisions. When full, the next
    /// insert clears the cache (epoch eviction, as in the IFC decision cache).
    pub fn with_capacity(capacity: usize) -> Self {
        AcDecisionCache {
            entries: HashMap::new(),
            by_context_key: HashMap::new(),
            subscription: None,
            seen_version: 0,
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
            invalidated: 0,
        }
    }

    /// Subscribes to `store` so [`Self::sync`] can invalidate by changed key. Entries
    /// cached before attachment stay valid (the subscription cursor starts at the
    /// store's current version).
    pub fn attach(&mut self, store: &ContextStore) {
        self.subscription = Some(store.subscribe());
        self.seen_version = store.version();
    }

    /// Releases the store subscription taken by [`Self::attach`]. An attached cache
    /// that is simply dropped leaves its cursor behind in the store, and under a
    /// retention bound ([`ContextStore::set_retention`]) an abandoned cursor pins
    /// change-history compaction forever — so owners discarding an attached cache
    /// (e.g. when rebuilding a shard's state after a panic) must detach it first.
    pub fn detach(&mut self, store: &ContextStore) {
        if let Some(id) = self.subscription.take() {
            store.unsubscribe(id);
        }
    }

    /// Brings the cache up to date with the store: a no-op (one read-locked version
    /// check) when nothing changed; otherwise polls the subscription and drops every
    /// entry referencing a changed key. Returns how many entries were invalidated.
    ///
    /// Without a prior [`Self::attach`], a version change conservatively clears the
    /// whole cache (there is no change feed to consult).
    pub fn sync(&mut self, store: &ContextStore) -> usize {
        let version = store.version();
        if version == self.seen_version {
            return 0;
        }
        self.seen_version = version;
        match self.subscription {
            Some(id) => {
                let mut dropped = 0;
                for change in store.poll(id) {
                    dropped += self.invalidate_key(change.key.name());
                }
                dropped
            }
            None => {
                let dropped = self.entries.len();
                self.invalidated += dropped as u64;
                self.entries.clear();
                self.by_context_key.clear();
                dropped
            }
        }
    }

    /// Caches a decision for `key`, recording the context keys it depends on.
    ///
    /// Callers must *not* insert decisions whose rules are time-dependent
    /// ([`crate::Condition::is_time_dependent`]); such decisions can flip without any
    /// context change, which this cache cannot observe.
    pub fn insert<I, K>(&mut self, key: u64, value: V, referenced_keys: I)
    where
        I: IntoIterator<Item = K>,
        K: AsRef<str>,
    {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            self.entries.clear();
            self.by_context_key.clear();
        }
        if let Some(old) = self.entries.remove(&key) {
            self.unindex(key, &old.keys);
        }
        // A name the index already holds is shared, not copied: only the first entry
        // to reference a context key allocates its name. (A repeated name only
        // repeats work in `unindex`.)
        let mut keys = Vec::new();
        for name in referenced_keys {
            let name = name.as_ref();
            let shared = match self.by_context_key.get_key_value(name) {
                Some((shared, _)) => Arc::clone(shared),
                None => Arc::from(name),
            };
            self.by_context_key.entry(Arc::clone(&shared)).or_default().insert(key);
            keys.push(shared);
        }
        self.entries.insert(key, Entry { value, keys });
    }

    /// Drops every entry that references the named context key, returning how many
    /// were removed.
    pub fn invalidate_key(&mut self, context_key: &str) -> usize {
        let Some(dependents) = self.by_context_key.remove(context_key) else {
            return 0;
        };
        let mut removed = 0;
        for cache_key in dependents {
            if let Some(entry) = self.entries.remove(&cache_key) {
                removed += 1;
                self.unindex(cache_key, &entry.keys);
            }
        }
        self.invalidated += removed as u64;
        removed
    }

    fn unindex(&mut self, cache_key: u64, keys: &[Arc<str>]) {
        for name in keys {
            if let Some(set) = self.by_context_key.get_mut(name) {
                set.remove(&cache_key);
                if set.is_empty() {
                    self.by_context_key.remove(name);
                }
            }
        }
    }

    /// Number of cached decisions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no decisions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every cached decision (counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.by_context_key.clear();
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> AcCacheStats {
        AcCacheStats {
            hits: self.hits,
            misses: self.misses,
            invalidated: self.invalidated,
            entries: self.entries.len(),
        }
    }
}

impl<V: Clone> AcDecisionCache<V> {
    /// Returns the cached decision for `key`, if present.
    pub fn lookup(&mut self, key: u64) -> Option<V> {
        self.lookup_if(key, |_| true)
    }

    /// Returns the cached decision for `key` if present *and* `still_valid` accepts
    /// it; otherwise counts a miss. For owners whose entries can go stale for reasons
    /// this cache cannot observe (e.g. a rule-set revision stored in `V`): the stale
    /// entry stays until the owner's fresh [`Self::insert`] replaces it.
    pub fn lookup_if(&mut self, key: u64, still_valid: impl FnOnce(&V) -> bool) -> Option<V> {
        match self.entries.get(&key) {
            Some(entry) if still_valid(&entry.value) => {
                self.hits += 1;
                Some(entry.value.clone())
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legaliot_context::Timestamp;

    #[test]
    fn lookup_insert_and_stats() {
        let mut cache: AcDecisionCache<u32> = AcDecisionCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(1), None);
        cache.insert(1, 10, ["a", "b"]);
        cache.insert(2, 20, Vec::<String>::new());
        assert_eq!(cache.lookup(1), Some(10));
        assert_eq!(cache.lookup(2), Some(20));
        assert_eq!(cache.len(), 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 2));
        assert!((stats.hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(AcCacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn key_invalidation_drops_exactly_the_dependent_entries() {
        let mut cache: AcDecisionCache<u32> = AcDecisionCache::new();
        cache.insert(1, 10, ["patient.heart-rate", "emergency.active"]);
        cache.insert(2, 20, ["emergency.active"]);
        cache.insert(3, 30, Vec::<&str>::new());
        assert_eq!(cache.invalidate_key("patient.heart-rate"), 1);
        assert_eq!(cache.lookup(1), None);
        assert_eq!(cache.lookup(2), Some(20));
        assert_eq!(cache.lookup(3), Some(30));
        // Entry 1 is gone from the other key's index too.
        assert_eq!(cache.invalidate_key("emergency.active"), 1);
        assert_eq!(cache.lookup(2), None);
        assert_eq!(cache.lookup(3), Some(30));
        assert_eq!(cache.stats().invalidated, 2);
        // Unknown keys are a no-op.
        assert_eq!(cache.invalidate_key("missing"), 0);
    }

    #[test]
    fn sync_invalidates_by_changed_store_key() {
        let store = ContextStore::new();
        store.set("pre-existing", 1i64, Timestamp(0));
        let mut cache: AcDecisionCache<bool> = AcDecisionCache::new();
        cache.attach(&store);
        cache.insert(1, true, ["patient.heart-rate"]);
        cache.insert(2, false, ["nurse.on-shift"]);
        // No change: free.
        assert_eq!(cache.sync(&store), 0);
        store.set("patient.heart-rate", 150i64, Timestamp(1));
        assert_eq!(cache.sync(&store), 1);
        assert_eq!(cache.lookup(1), None);
        assert_eq!(cache.lookup(2), Some(false));
        // Changes to keys nobody references drop nothing.
        store.set("unrelated", 1i64, Timestamp(2));
        assert_eq!(cache.sync(&store), 0);
        // Syncing twice without new writes is a no-op version check.
        assert_eq!(cache.sync(&store), 0);
    }

    #[test]
    fn sync_without_attachment_clears_conservatively() {
        let store = ContextStore::new();
        let mut cache: AcDecisionCache<bool> = AcDecisionCache::new();
        cache.insert(1, true, ["a"]);
        cache.insert(2, true, Vec::<&str>::new());
        store.set("anything", 1i64, Timestamp(1));
        assert_eq!(cache.sync(&store), 2);
        assert!(cache.is_empty());
    }

    #[test]
    fn detach_releases_the_store_cursor_so_retention_can_compact() {
        let store = ContextStore::with_retention(2);
        let mut cache: AcDecisionCache<bool> = AcDecisionCache::new();
        cache.attach(&store);
        for i in 0..10u64 {
            store.set("k", i as i64, Timestamp(i));
        }
        // The never-synced cache's cursor pins the whole history.
        assert_eq!(store.history().len(), 10);
        cache.detach(&store);
        assert!(store.history().len() <= 2);
        // After detach, sync falls back to the conservative full clear.
        cache.insert(1, true, ["k"]);
        store.set("other", 1i64, Timestamp(11));
        assert_eq!(cache.sync(&store), 1);
        assert!(cache.is_empty());
        // Detaching twice (or while never attached) is a no-op.
        cache.detach(&store);
    }

    #[test]
    fn reinserting_a_key_replaces_its_dependencies() {
        let mut cache: AcDecisionCache<u32> = AcDecisionCache::new();
        cache.insert(1, 10, ["a"]);
        cache.insert(1, 11, ["b"]);
        assert_eq!(cache.len(), 1);
        // The stale index entry for `a` no longer drops key 1.
        assert_eq!(cache.invalidate_key("a"), 0);
        assert_eq!(cache.lookup(1), Some(11));
        assert_eq!(cache.invalidate_key("b"), 1);
        assert_eq!(cache.lookup(1), None);
    }

    #[test]
    fn key_names_are_shared_between_entries_and_index() {
        let mut cache: AcDecisionCache<u32> = AcDecisionCache::new();
        cache.insert(1, 10, ["emergency.active", "emergency.active"]);
        cache.insert(2, 20, [String::from("emergency.active")]);
        let (indexed, _) = cache.by_context_key.get_key_value("emergency.active").unwrap();
        for entry in cache.entries.values() {
            assert!(entry.keys.iter().all(|name| Arc::ptr_eq(name, indexed)));
        }
        // One allocation: the index's key plus one reference per mention.
        assert_eq!(Arc::strong_count(indexed), 4);
        // A repeated name is harmless: replacing and invalidating still balance.
        cache.insert(1, 11, Vec::<&str>::new());
        assert_eq!(cache.invalidate_key("emergency.active"), 1);
        assert!(cache.by_context_key.is_empty());
        assert_eq!(cache.lookup(1), Some(11));
    }

    #[test]
    fn lookup_if_counts_a_rejected_entry_as_a_miss() {
        let mut cache: AcDecisionCache<(u32, u64)> = AcDecisionCache::new();
        cache.insert(1, (10, 7), ["a"]);
        assert_eq!(cache.lookup_if(1, |(_, stamp)| *stamp == 7), Some((10, 7)));
        assert_eq!(cache.lookup_if(1, |(_, stamp)| *stamp == 8), None);
        assert_eq!(cache.lookup_if(2, |_| true), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
        // The owner's fresh insert replaces the stale entry and its dependencies.
        cache.insert(1, (11, 8), ["b"]);
        assert_eq!(cache.invalidate_key("a"), 0);
        assert_eq!(cache.lookup_if(1, |(_, stamp)| *stamp == 8), Some((11, 8)));
    }

    #[test]
    fn capacity_eviction_clears_and_refills() {
        let mut cache: AcDecisionCache<u32> = AcDecisionCache::with_capacity(2);
        cache.insert(1, 1, ["a"]);
        cache.insert(2, 2, ["a"]);
        cache.insert(3, 3, ["a"]);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(3), Some(3));
        // Re-inserting an existing key never evicts.
        cache.insert(3, 4, ["a"]);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    proptest::proptest! {
        /// Against a naive model (a map of values with their key sets): lookups agree,
        /// invalidation drops exactly the dependants, and the reverse index stays the
        /// exact inverse of the entries' key lists.
        #[test]
        fn prop_cache_matches_a_naive_model(
            ops in proptest::collection::vec((0u8..4, 0u64..6, 0usize..4, 0usize..4), 1..60)
        ) {
            use std::collections::{BTreeMap, BTreeSet};
            const NAMES: [&str; 4] = ["a", "b", "c", "d"];
            let mut cache: AcDecisionCache<usize> = AcDecisionCache::with_capacity(4);
            let mut model: BTreeMap<u64, (usize, BTreeSet<&str>)> = BTreeMap::new();
            for (step, (op, key, first, second)) in ops.into_iter().enumerate() {
                match op {
                    0 | 1 => {
                        let names = &NAMES[first.min(second)..first.max(second)];
                        if model.len() >= 4 && !model.contains_key(&key) {
                            model.clear();
                        }
                        model.insert(key, (step, names.iter().copied().collect()));
                        cache.insert(key, step, names);
                    }
                    2 => {
                        let dependants: Vec<u64> = model
                            .iter()
                            .filter(|(_, (_, names))| names.contains(NAMES[first]))
                            .map(|(key, _)| *key)
                            .collect();
                        proptest::prop_assert_eq!(
                            cache.invalidate_key(NAMES[first]),
                            dependants.len()
                        );
                        for key in dependants {
                            model.remove(&key);
                        }
                    }
                    _ => {
                        proptest::prop_assert_eq!(
                            cache.lookup(key),
                            model.get(&key).map(|(value, _)| *value)
                        );
                    }
                }
                proptest::prop_assert_eq!(cache.len(), model.len());
                let mut indexed: BTreeSet<(&str, u64)> = BTreeSet::new();
                for (name, keys) in &cache.by_context_key {
                    proptest::prop_assert!(!keys.is_empty(), "empty index sets are removed");
                    indexed.extend(keys.iter().map(|key| (&**name, *key)));
                }
                let expected: BTreeSet<(&str, u64)> = model
                    .iter()
                    .flat_map(|(key, (_, names))| names.iter().map(|name| (*name, *key)))
                    .collect();
                proptest::prop_assert_eq!(indexed, expected);
            }
        }
    }
}
