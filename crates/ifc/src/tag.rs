//! Tags and security contexts.
//!
//! A [`Tag`] names a single security concern (e.g. `medical`, `ann`, `consent`,
//! `hosp-dev`, `eu-only`). Tags carry no ordering themselves; constraint comes from set
//! inclusion between the labels that contain them (see [`crate::label::Label`]).
//!
//! A [`SecurityContext`] is the pair of labels `(S, I)` attached to an entity — the
//! paper calls the set of entities sharing the same pair a *security context domain*.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

use crate::label::Label;

/// The textual name of a tag.
///
/// Names are non-empty, use lower-case `kebab-case` by convention, and may be
/// namespaced with `:` separators (e.g. `nhs:medical`, `eu:data-residency`) to support
/// the global tag namespace of §9.3 Challenge 1.
pub type TagName = str;

/// A single security concern, e.g. `medical` (secrecy) or `sanitised` (integrity).
///
/// `Tag` is cheap to clone (the name is reference-counted) and is ordered and hashable
/// so that labels can be kept as sorted sets with deterministic iteration order.
///
/// ```
/// use legaliot_ifc::Tag;
/// let medical = Tag::new("medical");
/// assert_eq!(medical.name(), "medical");
/// assert_eq!(medical.to_string(), "medical");
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tag {
    name: Arc<str>,
}

impl Tag {
    /// Creates a tag with the given name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty. Use [`Tag::try_new`] for fallible construction.
    pub fn new(name: impl AsRef<TagName>) -> Self {
        Self::try_new(name).expect("tag name must not be empty")
    }

    /// Creates a tag, returning `None` if the name is empty or all-whitespace.
    pub fn try_new(name: impl AsRef<TagName>) -> Option<Self> {
        let name = name.as_ref().trim();
        if name.is_empty() {
            return None;
        }
        Some(Self { name: Arc::from(name) })
    }

    /// The full name of this tag.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

impl fmt::Debug for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tag({})", self.name)
    }
}

impl From<&str> for Tag {
    fn from(value: &str) -> Self {
        Tag::new(value)
    }
}

impl From<String> for Tag {
    fn from(value: String) -> Self {
        Tag::new(value)
    }
}

impl Borrow<str> for Tag {
    fn borrow(&self) -> &str {
        &self.name
    }
}

impl AsRef<str> for Tag {
    fn as_ref(&self) -> &str {
        &self.name
    }
}

/// The security context of an entity: its secrecy label `S` and integrity label `I`.
///
/// Two entities with equal security contexts belong to the same *security context
/// domain*; data may flow freely within a domain and only towards more-constrained
/// domains (see [`crate::flow::can_flow`]).
///
/// ```
/// use legaliot_ifc::{Label, SecurityContext};
/// let ctx = SecurityContext::new(
///     Label::from_names(["medical", "ann"]),
///     Label::from_names(["hosp-dev"]),
/// );
/// assert!(ctx.secrecy().contains_name("medical"));
/// assert!(ctx.integrity().contains_name("hosp-dev"));
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct SecurityContext {
    secrecy: Label,
    integrity: Label,
}

impl SecurityContext {
    /// Creates a security context from a secrecy and an integrity label.
    pub fn new(secrecy: Label, integrity: Label) -> Self {
        Self { secrecy, integrity }
    }

    /// The public context: both labels empty. Unlabelled data may flow anywhere that
    /// imposes no integrity requirement.
    pub fn public() -> Self {
        Self::default()
    }

    /// Convenience constructor from iterators of tag names.
    ///
    /// ```
    /// use legaliot_ifc::SecurityContext;
    /// let ctx = SecurityContext::from_names(["medical"], ["consent"]);
    /// assert_eq!(ctx.secrecy().len(), 1);
    /// ```
    pub fn from_names<S, I, T, U>(secrecy: S, integrity: I) -> Self
    where
        S: IntoIterator<Item = T>,
        I: IntoIterator<Item = U>,
        T: AsRef<TagName>,
        U: AsRef<TagName>,
    {
        Self::new(Label::from_names(secrecy), Label::from_names(integrity))
    }

    /// The secrecy label `S`.
    pub fn secrecy(&self) -> &Label {
        &self.secrecy
    }

    /// The integrity label `I`.
    pub fn integrity(&self) -> &Label {
        &self.integrity
    }

    /// Mutable access to the secrecy label.
    ///
    /// Label changes on live entities should normally go through
    /// [`crate::entity::Entity::add_secrecy_tag`] and friends, which check privileges;
    /// this accessor exists for construction and for trusted infrastructure code.
    pub fn secrecy_mut(&mut self) -> &mut Label {
        &mut self.secrecy
    }

    /// Mutable access to the integrity label. See [`Self::secrecy_mut`].
    pub fn integrity_mut(&mut self) -> &mut Label {
        &mut self.integrity
    }

    /// Total number of tags across both labels.
    pub fn len(&self) -> usize {
        self.secrecy.len() + self.integrity.len()
    }

    /// Whether the context carries no tags at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `self` and `other` denote the same security context domain.
    pub fn same_domain(&self, other: &SecurityContext) -> bool {
        self == other
    }

    /// A stable 64-bit hash of this context (see [`crate::hash::context_hash64`]):
    /// deterministic across runs and processes, order-independent over the tag sets.
    pub fn stable_hash(&self) -> u64 {
        crate::hash::context_hash64(self)
    }
}

impl fmt::Display for SecurityContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S={} I={}", self.secrecy, self.integrity)
    }
}

impl fmt::Debug for SecurityContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SecurityContext {{ {self} }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_construction_and_accessors() {
        let t = Tag::new("medical");
        assert_eq!(t.name(), "medical");
    }

    #[test]
    fn tag_trims_whitespace() {
        let t = Tag::new("  medical  ");
        assert_eq!(t.name(), "medical");
    }

    #[test]
    fn empty_tag_rejected() {
        assert!(Tag::try_new("").is_none());
        assert!(Tag::try_new("   ").is_none());
    }

    #[test]
    #[should_panic(expected = "tag name must not be empty")]
    fn empty_tag_panics_with_new() {
        let _ = Tag::new("");
    }

    #[test]
    fn tags_order_deterministically() {
        let mut v = [Tag::new("zeb"), Tag::new("ann"), Tag::new("medical")];
        v.sort();
        let names: Vec<_> = v.iter().map(Tag::name).collect();
        assert_eq!(names, vec!["ann", "medical", "zeb"]);
    }

    #[test]
    fn tag_equality_is_by_name() {
        assert_eq!(Tag::new("medical"), Tag::new("medical"));
        assert_ne!(Tag::new("medical"), Tag::new("stats"));
    }

    #[test]
    fn tag_display_round_trip() {
        let t = Tag::new("nhs:medical");
        assert_eq!(Tag::new(format!("{t}")), t);
    }

    #[test]
    fn security_context_display() {
        let ctx = SecurityContext::from_names(["medical", "ann"], ["consent"]);
        let s = ctx.to_string();
        assert!(s.contains("medical"));
        assert!(s.contains("consent"));
        assert!(s.starts_with("S="));
    }

    #[test]
    fn public_context_is_empty() {
        let ctx = SecurityContext::public();
        assert!(ctx.is_empty());
        assert_eq!(ctx.len(), 0);
    }

    #[test]
    fn same_domain_requires_equal_pairs() {
        let a = SecurityContext::from_names(["medical"], ["consent"]);
        let b = SecurityContext::from_names(["medical"], ["consent"]);
        let c = SecurityContext::from_names(["medical"], Vec::<&str>::new());
        assert!(a.same_domain(&b));
        assert!(!a.same_domain(&c));
    }

    #[test]
    fn context_len_counts_both_labels() {
        let ctx = SecurityContext::from_names(["a", "b"], ["c"]);
        assert_eq!(ctx.len(), 3);
        assert!(!ctx.is_empty());
    }

    /// `Tag`, `Label` and `SecurityContext` all implement `Hash` consistently with
    /// `Eq`, so callers can use them directly as `HashMap` keys.
    #[test]
    fn tag_label_and_context_are_hashmap_keys() {
        use crate::label::Label;
        use std::collections::HashMap;

        let mut by_tag: HashMap<Tag, u32> = HashMap::new();
        by_tag.insert(Tag::new("medical"), 1);
        assert_eq!(by_tag.get(&Tag::new("medical")), Some(&1));

        let mut by_label: HashMap<Label, u32> = HashMap::new();
        by_label.insert(Label::from_names(["medical", "ann"]), 2);
        assert_eq!(by_label.get(&Label::from_names(["ann", "medical"])), Some(&2));

        let mut by_context: HashMap<SecurityContext, u32> = HashMap::new();
        by_context.insert(SecurityContext::from_names(["medical"], ["consent"]), 3);
        assert_eq!(
            by_context.get(&SecurityContext::from_names(["medical"], ["consent"])),
            Some(&3)
        );
        assert_eq!(by_context.get(&SecurityContext::public()), None);
    }
}
