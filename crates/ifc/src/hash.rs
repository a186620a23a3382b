//! The stack's stable 64-bit hashes: one FNV-1a fold, deterministic across runs and
//! processes, behind [`str_hash64`] (the dataplane's shard router), [`StableHasher`]
//! (the audit codec's chain hash) and [`context_hash64`]
//! ([`SecurityContext::stable_hash`]).

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
/// [`context_hash64`], for callers that need a deterministic 64-bit hash over several
/// fields or a byte stream (e.g. the audit codec's record chain hash).
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
/// across processes and runs, so it can appear in logs and cross process boundaries.
/// Equal contexts always hash equally; distinct contexts collide with probability
/// ~2⁻⁶⁴ per pair.
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

    proptest! {
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
