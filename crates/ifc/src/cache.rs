//! Flow-decision caching for hot-path enforcement.
//!
//! The paper evaluates IFC policy on channel establishment and re-evaluates when an
//! entity's security context changes (§8.2.2). In a high-throughput dataplane the same
//! `(source context, destination context)` pair is checked millions of times between
//! context changes, so the decision can be computed once and replayed from a cache keyed
//! by a *stable 64-bit hash* of each context. Correctness rests on two properties:
//!
//! 1. `can_flow` is a pure function of the two contexts, so a cached decision is valid
//!    for as long as both contexts are unchanged;
//! 2. lookups key on the hashes of the entities' *current* contexts, so a context change
//!    automatically misses the cache and forces a fresh lattice walk — exactly the
//!    paper's re-evaluation-on-context-change semantics.

use std::collections::HashMap;

use crate::flow::{can_flow, FlowDecision};
use crate::label::Label;
use crate::tag::SecurityContext;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// A stable 64-bit FNV-1a hash of an arbitrary string: deterministic across runs and
/// processes. [`context_hash64`] builds on the same byte-fold; infrastructure that
/// routes by name (e.g. the dataplane's shard router) uses this so every stable hash in
/// the stack comes from one definition.
pub fn str_hash64(value: &str) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, value.as_bytes());
    hash
}

/// An incremental builder over the same stable FNV-1a fold as [`str_hash64`] and
/// [`context_hash64`], for callers that need a deterministic 64-bit key over several
/// fields (e.g. an access-control decision key of `(component, principal, roles,
/// operation, message type)` or a frozen message schema's identity).
///
/// Every written string is terminated with a separator byte so `["ab","c"]` and
/// `["a","bc"]` hash differently, matching the convention [`context_hash64`] uses for
/// tag names.
///
/// ```
/// use legaliot_ifc::StableHasher;
/// let a = StableHasher::new().write_str("analyser").write_str("ann").finish();
/// let b = StableHasher::new().write_str("analyser").write_str("ann").finish();
/// assert_eq!(a, b); // deterministic
/// assert_ne!(a, StableHasher::new().write_str("analyserann").finish());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// Starts a fresh hash at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher(FNV_OFFSET)
    }

    /// Folds in a string followed by a separator byte.
    #[must_use]
    pub fn write_str(mut self, value: &str) -> Self {
        fnv1a(&mut self.0, value.as_bytes());
        fnv1a(&mut self.0, &[0x1f]);
        self
    }

    /// Folds in raw bytes with no separator: the plain FNV-1a 64 of everything written
    /// so far. Callers hashing several variable-length fields must make the byte stream
    /// self-delimiting themselves (the audit codec's length prefixes do).
    #[must_use]
    pub fn write_bytes(mut self, bytes: &[u8]) -> Self {
        fnv1a(&mut self.0, bytes);
        self
    }

    /// The accumulated hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}

fn hash_label(hash: &mut u64, label: &Label) {
    for tag in label.iter() {
        fnv1a(hash, tag.name().as_bytes());
        // Separator byte so ["ab","c"] and ["a","bc"] hash differently.
        fnv1a(hash, &[0x1f]);
    }
}

/// A stable 64-bit hash of a security context (FNV-1a over the sorted tag names of both
/// labels, with domain separation between secrecy and integrity).
///
/// Unlike `std::hash::Hash` + a randomly seeded hasher, the value is deterministic
/// across processes and runs, so it can key caches, appear in logs and cross process
/// boundaries. Equal contexts always hash equally; distinct contexts collide with
/// probability ~2⁻⁶⁴ per pair.
///
/// ```
/// use legaliot_ifc::{context_hash64, SecurityContext};
/// let a = SecurityContext::from_names(["medical", "ann"], ["consent"]);
/// let b = SecurityContext::from_names(["ann", "medical"], ["consent"]);
/// assert_eq!(context_hash64(&a), context_hash64(&b)); // order-independent
/// assert_ne!(context_hash64(&a), context_hash64(&SecurityContext::public()));
/// ```
pub fn context_hash64(context: &SecurityContext) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, b"S|");
    hash_label(&mut hash, context.secrecy());
    fnv1a(&mut hash, b"|I|");
    hash_label(&mut hash, context.integrity());
    hash
}

/// Counters describing a decision cache's effectiveness: a [`DecisionCache`]'s, or that
/// of the middleware's cache of contextual access-control decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a fresh evaluation (`can_flow`, or the AC rule set).
    pub misses: u64,
    /// Entries dropped because what they were computed from changed (for AC decisions,
    /// a write to a context key the rules read; a [`DecisionCache`] never drops one).
    pub invalidated: u64,
    /// Entries currently cached.
    pub entries: usize,
}

impl CacheStats {
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

/// A cache of flow decisions keyed by `(source context hash, destination context hash)`.
///
/// Single-owner by design (no interior locking). A context change needs no eviction:
/// the changed context hashes to a new key.
///
/// ```
/// use legaliot_ifc::{context_hash64, DecisionCache, SecurityContext};
/// let mut cache = DecisionCache::new();
/// let src = SecurityContext::from_names(["medical"], Vec::<&str>::new());
/// let dst = SecurityContext::from_names(["medical", "stats"], Vec::<&str>::new());
/// let (sh, dh) = (context_hash64(&src), context_hash64(&dst));
/// let (decision, hit) = cache.check(&src, sh, &dst, dh);
/// assert!(decision.is_allowed() && !hit);
/// let (_, hit) = cache.check(&src, sh, &dst, dh);
/// assert!(hit);
/// assert_eq!(cache.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DecisionCache {
    entries: HashMap<(u64, u64), FlowDecision>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl Default for DecisionCache {
    fn default() -> Self {
        Self::new()
    }
}

impl DecisionCache {
    /// Default maximum number of cached pairs.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// Creates a cache with [`Self::DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a cache holding at most `capacity` decisions. When full, the next insert
    /// clears the cache (epoch eviction: cheap, and the working set refills in one pass).
    pub fn with_capacity(capacity: usize) -> Self {
        DecisionCache { entries: HashMap::new(), capacity: capacity.max(1), hits: 0, misses: 0 }
    }

    /// Returns the decision for `source → destination`, computing and caching it on a
    /// miss. The boolean is `true` when the decision came from the cache.
    ///
    /// `source_hash`/`destination_hash` must be [`context_hash64`] of the respective
    /// contexts *as currently held by the caller* — passing stale hashes replays stale
    /// decisions.
    pub fn check(
        &mut self,
        source: &SecurityContext,
        source_hash: u64,
        destination: &SecurityContext,
        destination_hash: u64,
    ) -> (FlowDecision, bool) {
        let key = (source_hash, destination_hash);
        if let Some(decision) = self.entries.get(&key) {
            self.hits += 1;
            return (decision.clone(), true);
        }
        self.misses += 1;
        let decision = can_flow(source, destination);
        self.insert(key, decision.clone());
        (decision, false)
    }

    /// Caches a decision for the given key pair.
    fn insert(&mut self, key: (u64, u64), decision: FlowDecision) {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            self.entries.clear();
        }
        self.entries.insert(key, decision);
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
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            invalidated: 0,
            entries: self.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ctx(s: &[&str], i: &[&str]) -> SecurityContext {
        SecurityContext::from_names(s.iter().copied(), i.iter().copied())
    }

    #[test]
    fn stable_hash_is_order_independent_and_deterministic() {
        let a = SecurityContext::from_names(["medical", "ann"], ["consent", "hosp-dev"]);
        let b = SecurityContext::from_names(["ann", "medical"], ["hosp-dev", "consent"]);
        assert_eq!(context_hash64(&a), context_hash64(&b));
        assert_eq!(a.stable_hash(), context_hash64(&a));
        // Known-value pin so the hash cannot silently change across sessions.
        assert_eq!(context_hash64(&SecurityContext::public()), {
            let mut h = FNV_OFFSET;
            fnv1a(&mut h, b"S|");
            fnv1a(&mut h, b"|I|");
            h
        });
    }

    #[test]
    fn write_bytes_is_plain_fnv1a_64() {
        // Published FNV-1a 64 test vectors: persisted audit segments depend on these.
        assert_eq!(StableHasher::new().write_bytes(b"").finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(StableHasher::new().write_bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(StableHasher::new().write_bytes(b"foobar").finish(), 0x8594_4171_f739_67e8);
        // Incremental writes fold the same stream.
        assert_eq!(
            StableHasher::new().write_bytes(b"foo").write_bytes(b"bar").finish(),
            StableHasher::new().write_bytes(b"foobar").finish()
        );
    }

    #[test]
    fn stable_hash_separates_labels_and_tags() {
        // Same tags, different side of the context.
        let secrecy_only = ctx(&["medical"], &[]);
        let integrity_only = ctx(&[], &["medical"]);
        assert_ne!(context_hash64(&secrecy_only), context_hash64(&integrity_only));
        // Concatenation ambiguity.
        let ab_c = ctx(&["ab", "c"], &[]);
        let a_bc = ctx(&["a", "bc"], &[]);
        assert_ne!(context_hash64(&ab_c), context_hash64(&a_bc));
    }

    #[test]
    fn check_caches_and_replays_decisions() {
        let mut cache = DecisionCache::new();
        let src = ctx(&["medical"], &[]);
        let dst = ctx(&["medical", "stats"], &[]);
        let (sh, dh) = (context_hash64(&src), context_hash64(&dst));
        let (d1, hit1) = cache.check(&src, sh, &dst, dh);
        assert!(d1.is_allowed() && !hit1);
        let (d2, hit2) = cache.check(&src, sh, &dst, dh);
        assert!(d2.is_allowed() && hit2);
        // Denials are cached too, with their full reason.
        let (d3, _) = cache.check(&dst, dh, &src, sh);
        assert!(d3.is_denied());
        let (d4, hit4) = cache.check(&dst, dh, &src, sh);
        assert_eq!(d3, d4);
        assert!(hit4);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 2, 2));
        assert!((stats.hit_ratio() - 0.5).abs() < f64::EPSILON);
    }

    #[test]
    fn capacity_eviction_clears_and_refills() {
        let mut cache = DecisionCache::with_capacity(2);
        let contexts: Vec<SecurityContext> =
            (0..3).map(|i| ctx(&[format!("t{i}").as_str()], &[])).collect();
        let hashes: Vec<u64> = contexts.iter().map(context_hash64).collect();
        cache.check(&contexts[0], hashes[0], &contexts[1], hashes[1]);
        cache.check(&contexts[1], hashes[1], &contexts[2], hashes[2]);
        assert_eq!(cache.len(), 2);
        // Third distinct pair trips the epoch eviction.
        cache.check(&contexts[0], hashes[0], &contexts[2], hashes[2]);
        assert_eq!(cache.len(), 1);
        // Re-inserting an existing key never evicts.
        cache.check(&contexts[0], hashes[0], &contexts[2], hashes[2]);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().hits, 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    proptest! {
        /// Cached answers always equal a fresh `can_flow` evaluation.
        #[test]
        fn prop_cache_is_transparent(
            s1 in proptest::collection::btree_set("[a-c]{1,2}", 0..4),
            i1 in proptest::collection::btree_set("[a-c]{1,2}", 0..4),
            s2 in proptest::collection::btree_set("[a-c]{1,2}", 0..4),
            i2 in proptest::collection::btree_set("[a-c]{1,2}", 0..4),
        ) {
            let a = SecurityContext::new(Label::from_names(s1), Label::from_names(i1));
            let b = SecurityContext::new(Label::from_names(s2), Label::from_names(i2));
            let (ha, hb) = (context_hash64(&a), context_hash64(&b));
            let mut cache = DecisionCache::new();
            let (first, _) = cache.check(&a, ha, &b, hb);
            let (second, hit) = cache.check(&a, ha, &b, hb);
            prop_assert!(hit);
            prop_assert_eq!(&first, &second);
            prop_assert_eq!(first, can_flow(&a, &b));
        }

        /// Equal contexts hash equally; the hash never depends on construction order.
        #[test]
        fn prop_hash_respects_equality(
            s in proptest::collection::vec("[a-d]{1,2}", 0..5),
            i in proptest::collection::vec("[a-d]{1,2}", 0..5),
        ) {
            let forward = SecurityContext::from_names(s.iter().cloned(), i.iter().cloned());
            let reversed = SecurityContext::from_names(
                s.iter().rev().cloned(),
                i.iter().rev().cloned(),
            );
            prop_assert_eq!(forward.clone(), reversed.clone());
            prop_assert_eq!(context_hash64(&forward), context_hash64(&reversed));
        }
    }
}
