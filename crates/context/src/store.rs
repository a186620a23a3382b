//! The versioned context store with change subscriptions.
//!
//! Policy engines "monitor environments and use the MW's remote-reconfiguration
//! functionality to issue instructions to components, when/where necessary" (§8.1).
//! The store is the piece they monitor: every update bumps a monotonically increasing
//! version, and a subscriber drains, as [`ContextChange`]s, the updates made since it
//! last polled.
//!
//! The change feed is kept for its readers only. A change is recorded while some live
//! subscriber has not yet polled it and dropped once every one has; with no subscriber,
//! a write sets the value and bumps the version, and records nothing. So the feed holds
//! what the laggiest subscriber has still to read, and no knob bounds it.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::name::NameMap;
use crate::time::Timestamp;
use crate::value::{ContextKey, ContextValue};

/// A store's values, keyed by interned key: a read hashes one integer, and a copy
/// copies no key string.
type Values = NameMap<ContextKey, ContextValue>;

/// Identifier handed out when subscribing to the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubscriptionId(u64);

/// A single recorded change to the context store.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextChange {
    /// Store version after this change was applied (starts at 1).
    pub version: u64,
    /// Simulated time at which the change was recorded.
    pub at: Timestamp,
    /// The key that changed.
    pub key: ContextKey,
    /// The previous value, if any.
    pub previous: Option<ContextValue>,
    /// The new value, or `None` if the key was removed.
    pub current: Option<ContextValue>,
}

impl fmt::Display for ContextChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.current {
            Some(v) => write!(f, "v{}: {} = {}", self.version, self.key, v),
            None => write!(f, "v{}: {} removed", self.version, self.key),
        }
    }
}

/// An immutable snapshot of the store at a particular version, handed to policy
/// condition evaluation so a whole rule set sees a consistent view.
///
/// Copy-on-write: the snapshot shares the store's value map, so taking (or cloning)
/// one is a reference-count bump whatever the number of keys. The store copies the map
/// on its first write after a snapshot that is still alive — a snapshot never changes.
///
/// Values are stored by key id ([`ContextKey`] is an interned name, valid for every
/// snapshot of the process): a read is one integer hash and probe, by key or by name,
/// and allocates nothing; the copy a write makes copies no key string.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContextSnapshot {
    version: u64,
    values: Arc<Values>,
}

impl ContextSnapshot {
    /// The store version this snapshot reflects.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Looks up a value by key.
    pub fn get(&self, key: &ContextKey) -> Option<&ContextValue> {
        self.values.get(key)
    }

    /// Looks up a value by key name: a lookup in the name table, then a read by key.
    /// Allocates nothing — a name never interned is a key no snapshot holds.
    fn get_name(&self, name: &str) -> Option<&ContextValue> {
        self.values.get(&ContextKey::lookup(name)?)
    }

    /// Whether a boolean key is present and true.
    pub fn is_true(&self, name: &str) -> bool {
        self.get_name(name).and_then(ContextValue::as_bool) == Some(true)
    }

    /// Number of keys in the snapshot.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the snapshot holds no keys.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over the `(key, value)` pairs in key (name) order. Sorts a list of the
    /// pairs first: this is for inspection, not for a hot path.
    pub fn iter(&self) -> impl Iterator<Item = (&ContextKey, &ContextValue)> + '_ {
        let mut pairs: Vec<_> = self.values.iter().collect();
        pairs.sort_unstable_by_key(|(key, _)| **key);
        pairs.into_iter()
    }

    /// Builds a snapshot directly from key/value pairs (for tests and ad-hoc evaluation).
    pub fn from_pairs<I, K, V>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<ContextKey>,
        V: Into<ContextValue>,
    {
        ContextSnapshot {
            version: 0,
            values: Arc::new(pairs.into_iter().map(|(k, v)| (k.into(), v.into())).collect()),
        }
    }
}

#[derive(Debug, Default)]
struct StoreInner {
    /// Shared with every live snapshot; written through `Arc::make_mut`.
    values: Arc<Values>,
    /// The changes some live subscriber has not yet polled, version-sorted, oldest
    /// first.
    changes: VecDeque<ContextChange>,
    version: u64,
    next_subscription: u64,
    /// Last version delivered to each live subscriber.
    cursors: BTreeMap<SubscriptionId, u64>,
}

impl StoreInner {
    /// Records the change that made the current version, if a subscriber will read it.
    fn record(
        &mut self,
        at: Timestamp,
        key: ContextKey,
        previous: Option<ContextValue>,
        current: Option<ContextValue>,
    ) {
        if !self.cursors.is_empty() {
            let version = self.version;
            self.changes.push_back(ContextChange { version, at, key, previous, current });
        }
    }

    /// Drops the changes every live subscriber has polled — a prefix, as the feed is
    /// version-sorted, and all of it once no subscriber is left.
    fn compact(&mut self) {
        let oldest = self.cursors.values().copied().min().unwrap_or(u64::MAX);
        let polled = self.changes.partition_point(|c| c.version <= oldest);
        self.changes.drain(..polled);
    }

    fn snapshot(&self) -> ContextSnapshot {
        ContextSnapshot { version: self.version, values: Arc::clone(&self.values) }
    }
}

/// A thread-safe, versioned key/value context store.
///
/// ```
/// use legaliot_context::{ContextStore, ContextValue, Timestamp};
/// let store = ContextStore::new();
/// store.set("emergency.active", true, Timestamp::ZERO);
/// let snap = store.snapshot();
/// assert!(snap.is_true("emergency.active"));
/// ```
#[derive(Debug, Default)]
pub struct ContextStore {
    inner: RwLock<StoreInner>,
}

impl ContextStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a key to a value, recording the change for the subscribers (if any).
    /// Returns the new store version.
    pub fn set(
        &self,
        key: impl Into<ContextKey>,
        value: impl Into<ContextValue>,
        at: Timestamp,
    ) -> u64 {
        let key = key.into();
        let value = value.into();
        let mut inner = self.inner.write();
        inner.version += 1;
        // The value is copied into the feed only when a subscriber will read it.
        let current = (!inner.cursors.is_empty()).then(|| value.clone());
        let previous = Arc::make_mut(&mut inner.values).insert(key, value);
        inner.record(at, key, previous, current);
        inner.version
    }

    /// Removes a key, recording the change for the subscribers (if any) when the key
    /// existed. Returns the new version (unchanged if the key was absent).
    pub fn remove(&self, key: &ContextKey, at: Timestamp) -> u64 {
        let mut inner = self.inner.write();
        // Checked first so that removing an absent key never copies a shared map.
        if inner.values.contains_key(key) {
            let previous = Arc::make_mut(&mut inner.values).remove(key);
            inner.version += 1;
            inner.record(at, *key, previous, None);
        }
        inner.version
    }

    /// The current value for a key, if any.
    pub fn get(&self, key: &ContextKey) -> Option<ContextValue> {
        self.inner.read().values.get(key).cloned()
    }

    /// The current store version (0 if never written).
    pub fn version(&self) -> u64 {
        self.inner.read().version
    }

    /// Takes a consistent snapshot of the whole store: a reference-count bump on the
    /// shared value map, whatever the number of keys.
    pub fn snapshot(&self) -> ContextSnapshot {
        self.inner.read().snapshot()
    }

    /// Takes a snapshot only if the store has moved past `seen_version`, under a
    /// single read-lock acquisition. Hot loops that keep a cached snapshot (e.g. a
    /// dataplane shard's enforcement view) use this to refresh per batch.
    pub fn snapshot_if_newer(&self, seen_version: u64) -> Option<ContextSnapshot> {
        let inner = self.inner.read();
        (inner.version != seen_version).then(|| inner.snapshot())
    }

    /// Registers a subscriber; its cursor starts at the current version, so it will
    /// only see future changes, and from now on every change is recorded until it has
    /// polled it.
    pub fn subscribe(&self) -> SubscriptionId {
        let mut inner = self.inner.write();
        inner.next_subscription += 1;
        let id = SubscriptionId(inner.next_subscription);
        let version = inner.version;
        inner.cursors.insert(id, version);
        id
    }

    /// Removes a subscriber, dropping the changes only it had left to poll. Call when a
    /// subscription's owner goes away: a subscriber that never polls holds every change
    /// made since it last did. Polling a removed id afterwards yields nothing.
    pub fn unsubscribe(&self, id: SubscriptionId) {
        let mut inner = self.inner.write();
        inner.cursors.remove(&id);
        inner.compact();
    }

    /// Returns (and consumes) the changes a subscriber has not yet seen, in version
    /// order; nothing for an id that is not subscribed.
    pub fn poll(&self, id: SubscriptionId) -> Vec<ContextChange> {
        let mut inner = self.inner.write();
        let version = inner.version;
        let Some(cursor) = inner.cursors.get_mut(&id) else { return Vec::new() };
        let seen = std::mem::replace(cursor, version);
        // The feed is version-sorted: only the unseen suffix is visited.
        let unseen = inner.changes.partition_point(|c| c.version <= seen);
        let fresh = inner.changes.range(unseen..).cloned().collect();
        inner.compact();
        fresh
    }

    /// The changes some live subscriber has not yet polled, oldest first (for audit and
    /// tests): empty when no one subscribes or every subscriber has caught up.
    pub fn history(&self) -> Vec<ContextChange> {
        self.inner.read().changes.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_get_remove() {
        let store = ContextStore::new();
        assert_eq!(store.version(), 0);
        let v1 = store.set("patient.hr", 72i64, Timestamp(10));
        assert_eq!(v1, 1);
        assert_eq!(store.get(&ContextKey::new("patient.hr")), Some(ContextValue::Integer(72)));
        let v2 = store.remove(&ContextKey::new("patient.hr"), Timestamp(20));
        assert_eq!(v2, 2);
        assert_eq!(store.get(&ContextKey::new("patient.hr")), None);
        // Removing an absent key does not bump the version.
        assert_eq!(store.remove(&ContextKey::new("patient.hr"), Timestamp(30)), 2);
    }

    #[test]
    fn snapshot_is_consistent_and_versioned() {
        let store = ContextStore::new();
        store.set("a", 1i64, Timestamp(1));
        store.set("b", 2i64, Timestamp(2));
        let snap = store.snapshot();
        assert_eq!(snap.version(), 2);
        assert_eq!(snap.len(), 2);
        assert!(!snap.is_empty());
        // Later writes do not affect the snapshot.
        store.set("a", 99i64, Timestamp(3));
        assert_eq!(snap.get_name("a"), Some(&ContextValue::Integer(1)));
    }

    #[test]
    fn snapshot_if_newer_skips_unchanged_versions() {
        let store = ContextStore::new();
        assert!(store.snapshot_if_newer(0).is_none());
        store.set("a", 1i64, Timestamp(1));
        let snap = store.snapshot_if_newer(0).expect("store moved");
        assert_eq!(snap.version(), 1);
        assert!(store.snapshot_if_newer(1).is_none());
        store.set("a", 2i64, Timestamp(2));
        assert_eq!(store.snapshot_if_newer(1).unwrap().version(), 2);
    }

    #[test]
    fn is_true_helper() {
        let snap = ContextSnapshot::from_pairs([("emergency.active", true)]);
        assert!(snap.is_true("emergency.active"));
        assert!(!snap.is_true("missing"));
        let snap2 = ContextSnapshot::from_pairs([("flag", false)]);
        assert!(!snap2.is_true("flag"));
    }

    #[test]
    fn subscription_sees_only_future_changes() {
        let store = ContextStore::new();
        store.set("before", 1i64, Timestamp(1));
        let sub = store.subscribe();
        assert!(store.poll(sub).is_empty());
        store.set("after", 2i64, Timestamp(2));
        store.set("after", 3i64, Timestamp(3));
        let changes = store.poll(sub);
        assert_eq!(changes.len(), 2);
        assert_eq!(changes[0].key, ContextKey::new("after"));
        assert_eq!(changes[1].previous, Some(ContextValue::Integer(2)));
        // Polling again yields nothing until a new change arrives.
        assert!(store.poll(sub).is_empty());
    }

    #[test]
    fn multiple_subscribers_have_independent_cursors() {
        let store = ContextStore::new();
        let s1 = store.subscribe();
        store.set("x", 1i64, Timestamp(1));
        let s2 = store.subscribe();
        store.set("y", 2i64, Timestamp(2));
        assert_eq!(store.poll(s1).len(), 2);
        assert_eq!(store.poll(s2).len(), 1);
    }

    #[test]
    fn history_records_everything() {
        // Everything a subscriber has yet to poll, and nothing once it has.
        let store = ContextStore::new();
        let sub = store.subscribe();
        store.set("k", 1i64, Timestamp(1));
        store.set("k", 2i64, Timestamp(2));
        store.remove(&ContextKey::new("k"), Timestamp(3));
        let history = store.history();
        assert_eq!(history.len(), 3);
        assert_eq!(history[2].current, None);
        assert!(history[0].to_string().contains("k"));
        assert!(history[2].to_string().contains("removed"));
        assert_eq!(store.poll(sub), history);
        assert!(store.history().is_empty());
    }

    #[test]
    fn retention_bounds_history() {
        // With no subscriber nothing is recorded, and the version keeps counting.
        let store = ContextStore::new();
        for i in 0..100u64 {
            store.set("k", i as i64, Timestamp(i));
            assert!(store.history().is_empty(), "a change recorded at write {i}");
        }
        store.remove(&ContextKey::new("k"), Timestamp(100));
        assert_eq!(store.version(), 101);
        assert!(store.history().is_empty());
        assert_eq!(store.get(&ContextKey::new("k")), None);
    }

    #[test]
    fn retention_never_drops_unpolled_changes() {
        let store = ContextStore::new();
        let sub = store.subscribe();
        for i in 0..10u64 {
            store.set("k", i as i64, Timestamp(i));
        }
        // The lagging subscriber holds the feed: every change is still there.
        assert_eq!(store.history().len(), 10);
        let changes = store.poll(sub);
        assert_eq!(changes.len(), 10);
        assert_eq!(changes.first().unwrap().version, 1);
        // Once delivered, it is gone; the next write is held until it is polled.
        assert!(store.history().is_empty());
        store.set("k", 99i64, Timestamp(10));
        assert_eq!(store.history().len(), 1);
        assert_eq!(store.poll(sub).len(), 1);
        assert!(store.history().is_empty());
    }

    #[test]
    fn set_retention_reconfigures_at_runtime() {
        // Subscribing and unsubscribing are the only knob: the feed records from the
        // first subscription on and stops at the last one's end.
        let store = ContextStore::new();
        for i in 0..8u64 {
            store.set("k", i as i64, Timestamp(i));
        }
        assert!(store.history().is_empty());
        let sub = store.subscribe();
        for i in 8..16u64 {
            store.set("k", i as i64, Timestamp(i));
        }
        assert_eq!(store.history().len(), 8);
        store.unsubscribe(sub);
        assert!(store.history().is_empty());
        store.set("k", 16i64, Timestamp(16));
        assert!(store.history().is_empty());
        assert!(store.poll(sub).is_empty(), "an unsubscribed id polls nothing");
        assert_eq!(store.version(), 17);
    }

    #[test]
    fn history_is_what_the_laggard_has_not_polled() {
        let versions = |changes: Vec<ContextChange>| -> Vec<u64> {
            changes.iter().map(|c| c.version).collect()
        };
        let store = ContextStore::new();
        let (first, second) = (store.subscribe(), store.subscribe());
        for i in 0..4u64 {
            store.set("k", i as i64, Timestamp(i));
        }
        assert_eq!(versions(store.poll(first)), vec![1, 2, 3, 4]);
        store.set("k", 4i64, Timestamp(4));
        store.remove(&ContextKey::new("k"), Timestamp(5));
        // `second` lags: the feed is its six unpolled changes, `first`'s two among them.
        assert_eq!(versions(store.history()), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(versions(store.poll(second)), vec![1, 2, 3, 4, 5, 6]);
        // Now `first` lags, by two.
        assert_eq!(versions(store.history()), vec![5, 6]);
        assert_eq!(versions(store.poll(first)), vec![5, 6]);
        assert!(store.history().is_empty(), "both have polled");
        store.set("k", 7i64, Timestamp(7));
        store.set("k", 8i64, Timestamp(8));
        assert_eq!(versions(store.poll(first)), vec![7, 8]);
        assert_eq!(versions(store.history()), vec![7, 8]);
        store.unsubscribe(second);
        assert!(store.history().is_empty(), "the laggard left");
        store.unsubscribe(first);
        store.set("k", 9i64, Timestamp(9));
        assert!(store.history().is_empty(), "no subscriber, no record");
    }

    #[test]
    fn snapshots_share_the_map_until_the_next_write() {
        let store = ContextStore::new();
        store.set("a", 1i64, Timestamp(1));
        let first = store.snapshot();
        let second = store.snapshot();
        assert!(Arc::ptr_eq(&first.values, &second.values), "a snapshot is a refcount bump");
        // The first write after a live snapshot copies; the snapshots keep the old map.
        store.set("b", 2i64, Timestamp(2));
        store.remove(&ContextKey::new("a"), Timestamp(3));
        assert_eq!(first.get_name("a"), Some(&ContextValue::Integer(1)));
        assert_eq!(first.len(), 1);
        assert_eq!(first, second);
        let third = store.snapshot();
        assert!(!Arc::ptr_eq(&first.values, &third.values));
        assert_eq!((third.version(), third.len()), (3, 1));
        // Removing an absent key neither copies nor changes anything.
        store.remove(&ContextKey::new("missing"), Timestamp(4));
        assert!(Arc::ptr_eq(&third.values, &store.snapshot().values));
    }

    #[test]
    fn poll_returns_only_the_unseen_suffix() {
        let store = ContextStore::new();
        let early = store.subscribe();
        for i in 0..50u64 {
            store.set("k", i as i64, Timestamp(i));
        }
        let late = store.subscribe();
        store.set("k", 50i64, Timestamp(50));
        store.set("k", 51i64, Timestamp(51));
        let versions = |changes: Vec<ContextChange>| -> Vec<u64> {
            changes.iter().map(|c| c.version).collect()
        };
        assert_eq!(versions(store.poll(late)), vec![51, 52]);
        assert_eq!(versions(store.poll(early)), (1..=52).collect::<Vec<u64>>());
        assert!(store.poll(late).is_empty());
        // An unknown (unsubscribed) id polls nothing and subscribes no one.
        store.unsubscribe(late);
        assert!(store.poll(late).is_empty());
        store.unsubscribe(early);
        store.set("k", 52i64, Timestamp(52));
        assert!(store.poll(late).is_empty());
        assert!(store.history().is_empty());
    }

    #[test]
    fn snapshot_iter_is_sorted() {
        let snap = ContextSnapshot::from_pairs([("b", 1i64), ("a", 2i64)]);
        let keys: Vec<_> = snap.iter().map(|(k, _)| k.name().to_string()).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }

    proptest! {
        /// The version equals the number of effective changes, and history length
        /// matches while a subscriber has polled none of them.
        #[test]
        fn prop_version_counts_changes(keys in proptest::collection::vec("[a-c]", 1..20)) {
            let store = ContextStore::new();
            let _subscriber = store.subscribe();
            for (i, k) in keys.iter().enumerate() {
                store.set(k.as_str(), i as i64, Timestamp(i as u64));
            }
            prop_assert_eq!(store.version(), keys.len() as u64);
            prop_assert_eq!(store.history().len(), keys.len());
        }

        /// A subscriber that polls after every write sees every change exactly once, in order.
        #[test]
        fn prop_subscriber_sees_each_change_once(values in proptest::collection::vec(0i64..100, 1..20)) {
            let store = ContextStore::new();
            let sub = store.subscribe();
            let mut seen = Vec::new();
            for (i, v) in values.iter().enumerate() {
                store.set("k", *v, Timestamp(i as u64));
                seen.extend(store.poll(sub));
            }
            prop_assert_eq!(seen.len(), values.len());
            let versions: Vec<u64> = seen.iter().map(|c| c.version).collect();
            let mut sorted = versions.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(versions, sorted);
        }

        /// The store against a naive deep-copy model under random operations: every
        /// snapshot equals the model at its version forever after (copy-on-write
        /// isolation), and every subscriber receives every change made while it was
        /// subscribed exactly once and in order, and the feed holds exactly what the
        /// laggiest subscriber has not polled.
        #[test]
        fn prop_store_matches_a_deep_copy_model(
            ops in proptest::collection::vec((0u8..8, 0usize..4, 0i64..100, 0usize..3), 1..80)
        ) {
            const KEYS: [&str; 4] = ["a", "b", "c", "d"];
            let store = ContextStore::new();
            let mut model: BTreeMap<ContextKey, ContextValue> = BTreeMap::new();
            let mut version = 0u64;
            // (snapshot, deep copy of the model when it was taken)
            let mut snapshots: Vec<(ContextSnapshot, BTreeMap<ContextKey, ContextValue>)> = Vec::new();
            // Per slot: (id, versions received, versions it should have received).
            type Feed = (SubscriptionId, Vec<u64>, Vec<u64>);
            let mut subscribers: [Option<Feed>; 3] = [None, None, None];
            for (step, (op, key, value, slot)) in ops.into_iter().enumerate() {
                let at = Timestamp(step as u64);
                let changed = match op {
                    0..=2 => {
                        model.insert(ContextKey::new(KEYS[key]), ContextValue::Integer(value));
                        prop_assert_eq!(store.set(KEYS[key], value, at), version + 1);
                        true
                    }
                    3 => {
                        let existed = model.remove(&ContextKey::new(KEYS[key])).is_some();
                        let after = store.remove(&ContextKey::new(KEYS[key]), at);
                        prop_assert_eq!(after, version + u64::from(existed));
                        existed
                    }
                    4 => {
                        let snapshot = match store.snapshot_if_newer(version) {
                            None => store.snapshot(),
                            Some(_) => return Err(TestCaseError::fail("newer than the newest")),
                        };
                        prop_assert_eq!(snapshot.version(), version);
                        snapshots.push((snapshot, model.clone()));
                        false
                    }
                    5 => {
                        match &mut subscribers[slot] {
                            Some((id, received, _)) => {
                                received.extend(store.poll(*id).iter().map(|c| c.version));
                            }
                            empty => *empty = Some((store.subscribe(), Vec::new(), Vec::new())),
                        }
                        false
                    }
                    6 => {
                        if let Some((id, mut received, expected)) = subscribers[slot].take() {
                            received.extend(store.poll(id).iter().map(|c| c.version));
                            store.unsubscribe(id);
                            prop_assert_eq!(received, expected);
                        }
                        false
                    }
                    _ => {
                        let laggard = subscribers
                            .iter()
                            .flatten()
                            .map(|(_, received, expected)| &expected[received.len()..])
                            .max_by_key(|unpolled| unpolled.len())
                            .unwrap_or_default();
                        let held: Vec<u64> = store.history().iter().map(|c| c.version).collect();
                        prop_assert_eq!(held.as_slice(), laggard);
                        false
                    }
                };
                if changed {
                    version += 1;
                    for (_, _, expected) in subscribers.iter_mut().flatten() {
                        expected.push(version);
                    }
                }
                prop_assert_eq!(store.version(), version);
                for (snapshot, copy) in &snapshots {
                    prop_assert!(snapshot.iter().eq(copy.iter()), "a snapshot changed after the fact");
                }
            }
            prop_assert!(store.snapshot().iter().eq(model.iter()));
            for (id, mut received, expected) in subscribers.into_iter().flatten() {
                received.extend(store.poll(id).iter().map(|c| c.version));
                prop_assert_eq!(received, expected);
            }
        }
    }
}
