//! Privileges for label change and tag ownership.
//!
//! In addition to its two labels, an active entity may hold privileges to **add** or
//! **remove** specific tags to/from its secrecy or integrity labels (§6, "Privileges for
//! label change"). Created entities inherit labels but *never* privileges — privileges
//! must be passed explicitly, and only by a tag's owner (§6, "Tag Ownership").

use std::collections::BTreeMap;
use std::fmt;

use crate::label::Label;
use crate::tag::Tag;

/// The four kinds of label-change privilege an active entity may hold for a tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PrivilegeKind {
    /// May add the tag to its secrecy label (raise its own secrecy).
    SecrecyAdd,
    /// May remove the tag from its secrecy label — the *declassification* privilege.
    SecrecyRemove,
    /// May add the tag to its integrity label — the *endorsement* privilege.
    IntegrityAdd,
    /// May remove the tag from its integrity label.
    IntegrityRemove,
}

impl PrivilegeKind {
    /// All four privilege kinds.
    pub const ALL: [PrivilegeKind; 4] = [
        PrivilegeKind::SecrecyAdd,
        PrivilegeKind::SecrecyRemove,
        PrivilegeKind::IntegrityAdd,
        PrivilegeKind::IntegrityRemove,
    ];

    /// Whether this privilege targets the secrecy label.
    pub(crate) fn is_secrecy(self) -> bool {
        matches!(self, PrivilegeKind::SecrecyAdd | PrivilegeKind::SecrecyRemove)
    }

    /// Whether this privilege permits adding a tag (as opposed to removing it).
    pub(crate) fn is_add(self) -> bool {
        matches!(self, PrivilegeKind::SecrecyAdd | PrivilegeKind::IntegrityAdd)
    }
}

impl fmt::Display for PrivilegeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PrivilegeKind::SecrecyAdd => "secrecy+",
            PrivilegeKind::SecrecyRemove => "secrecy-",
            PrivilegeKind::IntegrityAdd => "integrity+",
            PrivilegeKind::IntegrityRemove => "integrity-",
        };
        f.write_str(s)
    }
}

/// A single (tag, kind) privilege grant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Privilege {
    /// The tag the privilege applies to.
    pub tag: Tag,
    /// The kind of label change permitted.
    pub kind: PrivilegeKind,
}

impl Privilege {
    /// Creates a privilege over `tag` of the given `kind`.
    pub fn new(tag: impl Into<Tag>, kind: PrivilegeKind) -> Self {
        Privilege { tag: tag.into(), kind }
    }
}

impl fmt::Display for Privilege {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.kind, self.tag)
    }
}

/// The set of privileges held by an active entity: the four privilege tag-sets of §6.
///
/// ```
/// use legaliot_ifc::{PrivilegeSet, PrivilegeKind, Tag};
/// let mut p = PrivilegeSet::new();
/// p.grant(Tag::new("medical"), PrivilegeKind::SecrecyRemove);
/// assert!(p.permits(&Tag::new("medical"), PrivilegeKind::SecrecyRemove));
/// assert!(!p.permits(&Tag::new("medical"), PrivilegeKind::SecrecyAdd));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrivilegeSet {
    secrecy_add: Label,
    secrecy_remove: Label,
    integrity_add: Label,
    integrity_remove: Label,
}

impl PrivilegeSet {
    /// Creates an empty privilege set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grants a privilege, returning `true` if it was newly added.
    pub fn grant(&mut self, tag: impl Into<Tag>, kind: PrivilegeKind) -> bool {
        self.set_for(kind).insert(tag.into())
    }

    /// Grants a [`Privilege`] value.
    pub fn grant_privilege(&mut self, privilege: Privilege) -> bool {
        self.grant(privilege.tag, privilege.kind)
    }

    /// Revokes a privilege, returning `true` if it was present.
    pub fn revoke(&mut self, tag: &Tag, kind: PrivilegeKind) -> bool {
        self.set_for(kind).remove(tag)
    }

    /// Whether the set permits the given label change.
    pub fn permits(&self, tag: &Tag, kind: PrivilegeKind) -> bool {
        self.label_for(kind).contains(tag)
    }

    /// The tags this set may apply for the given privilege kind.
    fn label_for(&self, kind: PrivilegeKind) -> &Label {
        match kind {
            PrivilegeKind::SecrecyAdd => &self.secrecy_add,
            PrivilegeKind::SecrecyRemove => &self.secrecy_remove,
            PrivilegeKind::IntegrityAdd => &self.integrity_add,
            PrivilegeKind::IntegrityRemove => &self.integrity_remove,
        }
    }

    fn set_for(&mut self, kind: PrivilegeKind) -> &mut Label {
        match kind {
            PrivilegeKind::SecrecyAdd => &mut self.secrecy_add,
            PrivilegeKind::SecrecyRemove => &mut self.secrecy_remove,
            PrivilegeKind::IntegrityAdd => &mut self.integrity_add,
            PrivilegeKind::IntegrityRemove => &mut self.integrity_remove,
        }
    }

    /// Whether the set holds no privileges at all.
    pub fn is_empty(&self) -> bool {
        self.secrecy_add.is_empty()
            && self.secrecy_remove.is_empty()
            && self.integrity_add.is_empty()
            && self.integrity_remove.is_empty()
    }

    /// Total number of (tag, kind) privileges held.
    pub fn len(&self) -> usize {
        self.secrecy_add.len()
            + self.secrecy_remove.len()
            + self.integrity_add.len()
            + self.integrity_remove.len()
    }

    /// Iterates all privileges as `(tag, kind)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = Privilege> + '_ {
        PrivilegeKind::ALL.into_iter().flat_map(move |kind| {
            self.label_for(kind).iter().map(move |tag| Privilege::new(tag.clone(), kind))
        })
    }

    /// Merges another privilege set into this one (used when an owner delegates a bundle).
    pub fn merge(&mut self, other: &PrivilegeSet) {
        for p in other.iter() {
            self.grant_privilege(p);
        }
    }
}

impl FromIterator<Privilege> for PrivilegeSet {
    fn from_iter<I: IntoIterator<Item = Privilege>>(iter: I) -> Self {
        let mut set = PrivilegeSet::new();
        for p in iter {
            set.grant_privilege(p);
        }
        set
    }
}

/// Records, per tag, which entity *owns* the tag and may therefore delegate privileges
/// over it (§6 "Tag Ownership"; the paper's application-manager role in CamFlow).
///
/// Ownership is keyed by an opaque owner identifier so that this crate does not depend
/// on any particular entity or principal model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TagOwnership {
    owners: BTreeMap<Tag, String>,
}

impl TagOwnership {
    /// Creates an empty ownership table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `owner` as the owner of `tag`. The first registration wins; returns
    /// `false` if the tag already had a (different or identical) owner.
    pub fn register(&mut self, tag: impl Into<Tag>, owner: impl Into<String>) -> bool {
        let tag = tag.into();
        if self.owners.contains_key(&tag) {
            return false;
        }
        self.owners.insert(tag, owner.into());
        true
    }

    /// The owner of `tag`, if registered.
    fn owner_of(&self, tag: &Tag) -> Option<&str> {
        self.owners.get(tag).map(String::as_str)
    }

    /// Whether `candidate` owns `tag`.
    fn is_owner(&self, tag: &Tag, candidate: &str) -> bool {
        self.owner_of(tag) == Some(candidate)
    }

    /// Checks that `delegator` owns `tag`, so a privilege over it may be delegated.
    ///
    /// # Errors
    ///
    /// Returns [`crate::IfcError::NotTagOwner`] if `delegator` is not the registered
    /// owner (or the tag has no owner).
    pub fn authorise_delegation(&self, tag: &Tag, delegator: &str) -> Result<(), crate::IfcError> {
        if self.is_owner(tag, delegator) {
            Ok(())
        } else {
            Err(crate::IfcError::NotTagOwner { tag: tag.clone() })
        }
    }

    /// Number of owned tags.
    pub fn len(&self) -> usize {
        self.owners.len()
    }

    /// Whether no tags are owned.
    pub fn is_empty(&self) -> bool {
        self.owners.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn grant_and_permit() {
        let mut p = PrivilegeSet::new();
        assert!(p.grant("medical", PrivilegeKind::SecrecyRemove));
        assert!(!p.grant("medical", PrivilegeKind::SecrecyRemove));
        assert!(p.permits(&Tag::new("medical"), PrivilegeKind::SecrecyRemove));
        assert!(!p.permits(&Tag::new("medical"), PrivilegeKind::SecrecyAdd));
        assert!(!p.permits(&Tag::new("stats"), PrivilegeKind::SecrecyRemove));
    }

    #[test]
    fn revoke_removes_privilege() {
        let mut p = PrivilegeSet::new();
        p.grant("anon", PrivilegeKind::IntegrityAdd);
        assert!(p.revoke(&Tag::new("anon"), PrivilegeKind::IntegrityAdd));
        assert!(!p.permits(&Tag::new("anon"), PrivilegeKind::IntegrityAdd));
        assert!(!p.revoke(&Tag::new("anon"), PrivilegeKind::IntegrityAdd));
    }

    #[test]
    fn privilege_kinds_classification() {
        assert!(PrivilegeKind::SecrecyAdd.is_secrecy());
        assert!(PrivilegeKind::SecrecyAdd.is_add());
        assert!(PrivilegeKind::SecrecyRemove.is_secrecy());
        assert!(!PrivilegeKind::SecrecyRemove.is_add());
        assert!(!PrivilegeKind::IntegrityAdd.is_secrecy());
        assert!(PrivilegeKind::IntegrityAdd.is_add());
        assert!(!PrivilegeKind::IntegrityRemove.is_add());
    }

    #[test]
    fn iter_and_len() {
        let mut p = PrivilegeSet::new();
        p.grant("a", PrivilegeKind::SecrecyAdd);
        p.grant("b", PrivilegeKind::IntegrityRemove);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        let all: Vec<_> = p.iter().collect();
        assert_eq!(all.len(), 2);
        assert!(all.contains(&Privilege::new("a", PrivilegeKind::SecrecyAdd)));
        assert!(all.contains(&Privilege::new("b", PrivilegeKind::IntegrityRemove)));
    }

    #[test]
    fn merge_unions_privileges() {
        let mut a = PrivilegeSet::new();
        a.grant("x", PrivilegeKind::SecrecyAdd);
        let mut b = PrivilegeSet::new();
        b.grant("y", PrivilegeKind::SecrecyRemove);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert!(a.permits(&Tag::new("y"), PrivilegeKind::SecrecyRemove));
    }

    #[test]
    fn from_iterator_builds_set() {
        let set: PrivilegeSet = vec![
            Privilege::new("medical", PrivilegeKind::SecrecyRemove),
            Privilege::new("anon", PrivilegeKind::IntegrityAdd),
        ]
        .into_iter()
        .collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn ownership_first_registration_wins() {
        let mut o = TagOwnership::new();
        assert!(o.register("medical", "hospital"));
        assert!(!o.register("medical", "attacker"));
        assert_eq!(o.owner_of(&Tag::new("medical")), Some("hospital"));
        assert!(o.is_owner(&Tag::new("medical"), "hospital"));
        assert!(!o.is_owner(&Tag::new("medical"), "attacker"));
    }

    #[test]
    fn delegation_requires_ownership() {
        let mut o = TagOwnership::new();
        o.register("medical", "hospital");
        assert!(o.authorise_delegation(&Tag::new("medical"), "hospital").is_ok());
        let err = o.authorise_delegation(&Tag::new("medical"), "rogue").unwrap_err();
        assert!(matches!(err, crate::IfcError::NotTagOwner { .. }));
        // Unowned tags cannot be delegated by anyone.
        assert!(o.authorise_delegation(&Tag::new("unowned"), "hospital").is_err());
    }

    #[test]
    fn privilege_display() {
        let p = Privilege::new("medical", PrivilegeKind::SecrecyRemove);
        assert_eq!(p.to_string(), "secrecy-(medical)");
    }

    fn arb_kind() -> impl Strategy<Value = PrivilegeKind> {
        prop_oneof![
            Just(PrivilegeKind::SecrecyAdd),
            Just(PrivilegeKind::SecrecyRemove),
            Just(PrivilegeKind::IntegrityAdd),
            Just(PrivilegeKind::IntegrityRemove),
        ]
    }

    proptest! {
        /// A granted privilege is always observable and revocation always removes it.
        #[test]
        fn prop_grant_then_revoke(name in "[a-f]{1,4}", kind in arb_kind()) {
            let tag = Tag::new(&name);
            let mut p = PrivilegeSet::new();
            p.grant(tag.clone(), kind);
            prop_assert!(p.permits(&tag, kind));
            // Granting one kind never grants another.
            for other in PrivilegeKind::ALL {
                if other != kind {
                    prop_assert!(!p.permits(&tag, other));
                }
            }
            p.revoke(&tag, kind);
            prop_assert!(!p.permits(&tag, kind));
            prop_assert!(p.is_empty());
        }

        /// `iter` round-trips through `FromIterator`.
        #[test]
        fn prop_iter_round_trip(names in proptest::collection::vec("[a-f]{1,3}", 0..6), kind in arb_kind()) {
            let mut set = PrivilegeSet::new();
            for n in &names {
                set.grant(Tag::new(n), kind);
            }
            let rebuilt: PrivilegeSet = set.iter().collect();
            prop_assert_eq!(set, rebuilt);
        }
    }
}
