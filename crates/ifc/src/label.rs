//! Labels: sets of tags forming the IFC lattice.
//!
//! A [`Label`] is a finite set of [`Tag`]s. Labels are ordered by set inclusion; the
//! induced lattice (join = union, meet = intersection) is what makes flow checks and
//! label propagation well-defined.

use std::collections::BTreeSet;
use std::fmt;
use std::iter::FromIterator;

use crate::tag::{Tag, TagName};

/// A set of tags; one of the two components of a security context.
///
/// Internally a sorted set, so iteration order, `Display` output and the audit encoding
/// are deterministic — important for audit logs and for reproducible tests.
///
/// ```
/// use legaliot_ifc::{Label, Tag};
/// let mut l = Label::from_names(["medical", "ann"]);
/// assert!(l.contains_name("medical"));
/// l.insert(Tag::new("stats"));
/// assert_eq!(l.len(), 3);
/// assert!(Label::from_names(["medical"]).is_subset(&l));
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Label {
    tags: BTreeSet<Tag>,
}

impl Label {
    /// Creates an empty label.
    pub fn new() -> Self {
        Self::default()
    }

    /// The empty label (no constraints for secrecy; no endorsements for integrity).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Creates a label from an iterator of tag names.
    pub fn from_names<I, T>(names: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: AsRef<TagName>,
    {
        names.into_iter().map(Tag::new).collect()
    }

    /// Creates a label holding a single tag.
    pub fn singleton(tag: impl Into<Tag>) -> Self {
        let mut l = Label::new();
        l.insert(tag.into());
        l
    }

    /// Inserts a tag, returning `true` if it was not already present.
    pub fn insert(&mut self, tag: Tag) -> bool {
        self.tags.insert(tag)
    }

    /// Removes a tag, returning `true` if it was present.
    pub fn remove(&mut self, tag: &Tag) -> bool {
        self.tags.remove(tag)
    }

    /// Removes a tag by name, returning `true` if it was present.
    pub fn remove_name(&mut self, name: &str) -> bool {
        self.tags.remove(name)
    }

    /// Whether the label contains the given tag.
    pub fn contains(&self, tag: &Tag) -> bool {
        self.tags.contains(tag)
    }

    /// Whether the label contains a tag with the given name.
    pub fn contains_name(&self, name: &str) -> bool {
        self.tags.contains(name)
    }

    /// Number of tags in the label.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the label is empty.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Iterates over the tags in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Tag> + '_ {
        self.tags.iter()
    }

    /// Whether every tag of `self` is also in `other` (`self ⊆ other`).
    pub fn is_subset(&self, other: &Label) -> bool {
        self.tags.is_subset(&other.tags)
    }

    /// Whether every tag of `other` is also in `self` (`other ⊆ self`).
    pub fn is_superset(&self, other: &Label) -> bool {
        self.tags.is_superset(&other.tags)
    }

    /// The union of two labels (lattice join for secrecy).
    pub fn union(&self, other: &Label) -> Label {
        Label { tags: self.tags.union(&other.tags).cloned().collect() }
    }

    /// The intersection of two labels (lattice meet for secrecy).
    pub fn intersection(&self, other: &Label) -> Label {
        Label { tags: self.tags.intersection(&other.tags).cloned().collect() }
    }

    /// Tags present in `self` but not in `other`.
    pub fn difference(&self, other: &Label) -> Label {
        Label { tags: self.tags.difference(&other.tags).cloned().collect() }
    }

    /// The tags of `other` that `self` is missing; useful for explaining flow denials.
    pub fn missing_from(&self, other: &Label) -> Vec<Tag> {
        other.tags.difference(&self.tags).cloned().collect()
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.tags.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Label{self}")
    }
}

impl FromIterator<Tag> for Label {
    fn from_iter<I: IntoIterator<Item = Tag>>(iter: I) -> Self {
        Label { tags: iter.into_iter().collect() }
    }
}

impl Extend<Tag> for Label {
    fn extend<I: IntoIterator<Item = Tag>>(&mut self, iter: I) {
        self.tags.extend(iter)
    }
}

impl IntoIterator for Label {
    type Item = Tag;
    type IntoIter = std::collections::btree_set::IntoIter<Tag>;

    fn into_iter(self) -> Self::IntoIter {
        self.tags.into_iter()
    }
}

impl<'a> IntoIterator for &'a Label {
    type Item = &'a Tag;
    type IntoIter = std::collections::btree_set::Iter<'a, Tag>;

    fn into_iter(self) -> Self::IntoIter {
        self.tags.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_label() {
        let l = Label::empty();
        assert!(l.is_empty());
        assert_eq!(l.len(), 0);
        assert_eq!(l.to_string(), "{}");
    }

    #[test]
    fn insert_and_contains() {
        let mut l = Label::new();
        assert!(l.insert(Tag::new("medical")));
        assert!(!l.insert(Tag::new("medical")));
        assert!(l.contains(&Tag::new("medical")));
        assert!(l.contains_name("medical"));
        assert!(!l.contains_name("stats"));
    }

    #[test]
    fn remove_tags() {
        let mut l = Label::from_names(["a", "b"]);
        assert!(l.remove(&Tag::new("a")));
        assert!(!l.remove(&Tag::new("a")));
        assert!(l.remove_name("b"));
        assert!(l.is_empty());
    }

    #[test]
    fn subset_and_superset() {
        let small = Label::from_names(["medical"]);
        let big = Label::from_names(["medical", "ann"]);
        assert!(small.is_subset(&big));
        assert!(big.is_superset(&small));
        assert!(!big.is_subset(&small));
        assert!(small.is_subset(&small));
    }

    #[test]
    fn union_intersection_difference() {
        let a = Label::from_names(["medical", "ann"]);
        let b = Label::from_names(["medical", "zeb"]);
        assert_eq!(a.union(&b), Label::from_names(["medical", "ann", "zeb"]));
        assert_eq!(a.intersection(&b), Label::from_names(["medical"]));
        assert_eq!(a.difference(&b), Label::from_names(["ann"]));
    }

    #[test]
    fn missing_from_explains_denial() {
        let src = Label::from_names(["medical", "zeb"]);
        let dst = Label::from_names(["medical", "ann"]);
        // Tags of src the destination is missing.
        let missing = dst.missing_from(&src);
        assert_eq!(missing, vec![Tag::new("zeb")]);
    }

    #[test]
    fn display_is_sorted() {
        let l = Label::from_names(["zeb", "ann", "medical"]);
        assert_eq!(l.to_string(), "{ann, medical, zeb}");
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut l: Label = vec![Tag::new("a")].into_iter().collect();
        l.extend(vec![Tag::new("b")]);
        assert_eq!(l.len(), 2);
        let names: Vec<String> = (&l).into_iter().map(|t| t.name().to_string()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn singleton_label() {
        let l = Label::singleton("medical");
        assert_eq!(l.len(), 1);
        assert!(l.contains_name("medical"));
    }

    fn arb_label() -> impl Strategy<Value = Label> {
        proptest::collection::btree_set("[a-e]{1,3}", 0..6).prop_map(Label::from_names)
    }

    proptest! {
        /// Subset is a partial order: reflexive, antisymmetric, transitive.
        #[test]
        fn prop_subset_partial_order(a in arb_label(), b in arb_label(), c in arb_label()) {
            prop_assert!(a.is_subset(&a));
            if a.is_subset(&b) && b.is_subset(&a) {
                prop_assert_eq!(a.clone(), b.clone());
            }
            if a.is_subset(&b) && b.is_subset(&c) {
                prop_assert!(a.is_subset(&c));
            }
        }

        /// Union is the least upper bound.
        #[test]
        fn prop_union_is_lub(a in arb_label(), b in arb_label()) {
            let j = a.union(&b);
            prop_assert!(a.is_subset(&j));
            prop_assert!(b.is_subset(&j));
            // Any other upper bound contains the union.
            let ub = a.union(&b).union(&Label::from_names(["zz"]));
            prop_assert!(j.is_subset(&ub));
        }

        /// Intersection is the greatest lower bound.
        #[test]
        fn prop_intersection_is_glb(a in arb_label(), b in arb_label()) {
            let m = a.intersection(&b);
            prop_assert!(m.is_subset(&a));
            prop_assert!(m.is_subset(&b));
        }

        /// Union and intersection are commutative and associative.
        #[test]
        fn prop_lattice_laws(a in arb_label(), b in arb_label(), c in arb_label()) {
            prop_assert_eq!(a.union(&b), b.union(&a));
            prop_assert_eq!(a.intersection(&b), b.intersection(&a));
            prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
            prop_assert_eq!(a.intersection(&b).intersection(&c), a.intersection(&b.intersection(&c)));
            // Absorption.
            prop_assert_eq!(a.union(&a.intersection(&b)), a.clone());
            prop_assert_eq!(a.intersection(&a.union(&b)), a.clone());
        }
    }
}
