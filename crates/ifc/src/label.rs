//! Labels: sets of tags forming the IFC lattice.
//!
//! A [`Label`] is a finite set of [`Tag`]s. Labels are ordered by set inclusion; the
//! induced lattice (join = union) is what makes flow checks and label propagation
//! well-defined.
//!
//! # Representation
//!
//! A label is a *shared value*: its tags are one strictly ascending slice behind a
//! reference count, and the empty label holds nothing at all. The paper's enforcement
//! unit is the security context domain — many entities, few distinct contexts — so a
//! context is copied far more often than it is changed: into every delivered message,
//! into both sides of every flow-check record, into every component of a fleet. What
//! each operation costs:
//!
//! * `clone`, and so a [`crate::SecurityContext`] clone: a count bump per non-empty
//!   label, no allocation;
//! * `contains` / `contains_name`: a binary search;
//! * `is_subset`, `==`: a pointer comparison when both sides share storage (two copies
//!   of one context), otherwise one walk over both slices in step;
//! * `union`: a copy of whichever operand already is the result; otherwise, like
//!   `difference` and `missing_from`, one walk in step and one allocation — none for
//!   an empty result;
//! * `insert` / `remove` / `remove_name` / `extend`: copy on write — a change builds a
//!   new slice and leaves every other holder of the old one as it was; a call that
//!   changes nothing allocates nothing.
//!
//! Mutation may copy because it is the control plane's: a label changes when an entity
//! is declassified, endorsed or reconfigured, and is then read — cloned, compared,
//! encoded — once per message until the next change. Labels hold a handful of tags, so
//! the copy is a few count bumps.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::FromIterator;
use std::sync::Arc;

use crate::tag::{Tag, TagName};

/// A set of tags; one of the two components of a security context.
///
/// Kept sorted, so iteration order, `Display` output and the audit encoding are
/// deterministic — important for audit logs and for reproducible tests. Cloning shares
/// the tags rather than copying them (see the [module documentation](self)).
///
/// ```
/// use legaliot_ifc::{Label, Tag};
/// let mut l = Label::from_names(["medical", "ann"]);
/// assert!(l.contains_name("medical"));
/// l.insert(Tag::new("stats"));
/// assert_eq!(l.len(), 3);
/// assert!(Label::from_names(["medical"]).is_subset(&l));
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Label {
    /// Strictly ascending and never empty: the empty label is `None`, so equal labels
    /// are equal field for field.
    tags: Option<Arc<[Tag]>>,
}

/// Visits every tag of two ascending slices once, in ascending order, with whether
/// `a` and whether `b` holds it.
fn walk_in_step<'a>(a: &'a [Tag], b: &'a [Tag], mut visit: impl FnMut(&'a Tag, bool, bool)) {
    let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
    loop {
        let order = match (a.peek(), b.peek()) {
            (Some(left), Some(right)) => left.cmp(right),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return,
        };
        match order {
            Ordering::Less => visit(a.next().expect("peeked"), true, false),
            Ordering::Greater => visit(b.next().expect("peeked"), false, true),
            Ordering::Equal => {
                b.next();
                visit(a.next().expect("peeked"), true, true);
            }
        }
    }
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

    /// Creates a label from tags already in strictly ascending order — the order
    /// [`Label::iter`] yields them in, and the audit encoding stores them in — without
    /// sorting them again. `None` if a tag repeats or is out of order.
    pub fn from_ascending(tags: Vec<Tag>) -> Option<Self> {
        is_strictly_ascending(&tags).then(|| Label::of_ascending(tags))
    }

    /// The label of `tags`, which the caller has put in strictly ascending order.
    fn of_ascending(tags: Vec<Tag>) -> Self {
        debug_assert!(is_strictly_ascending(&tags));
        Label { tags: (!tags.is_empty()).then(|| Arc::from(tags)) }
    }

    /// The label of `tags` in any order, repeats included.
    fn of_unordered(mut tags: Vec<Tag>) -> Self {
        tags.sort();
        tags.dedup();
        Label::of_ascending(tags)
    }

    /// The tags, ascending.
    fn as_slice(&self) -> &[Tag] {
        self.tags.as_deref().unwrap_or_default()
    }

    fn position(&self, name: &str) -> Result<usize, usize> {
        self.as_slice().binary_search_by(|tag| tag.name().cmp(name))
    }

    /// The tags of `self` and `other` that `keep` selects, told whether `self` and
    /// whether `other` holds each.
    fn select(&self, other: &Label, keep: impl Fn(bool, bool) -> bool) -> Vec<Tag> {
        let mut selected = Vec::new();
        walk_in_step(self.as_slice(), other.as_slice(), |tag, in_self, in_other| {
            if keep(in_self, in_other) {
                selected.push(tag.clone());
            }
        });
        selected
    }

    /// Inserts a tag, returning `true` if it was not already present.
    pub fn insert(&mut self, tag: Tag) -> bool {
        let Err(at) = self.position(tag.name()) else {
            return false;
        };
        let held = self.as_slice();
        let mut tags = Vec::with_capacity(held.len() + 1);
        tags.extend_from_slice(&held[..at]);
        tags.push(tag);
        tags.extend_from_slice(&held[at..]);
        *self = Label::of_ascending(tags);
        true
    }

    /// Removes a tag, returning `true` if it was present.
    pub fn remove(&mut self, tag: &Tag) -> bool {
        self.remove_name(tag.name())
    }

    /// Removes a tag by name, returning `true` if it was present.
    fn remove_name(&mut self, name: &str) -> bool {
        let Ok(at) = self.position(name) else {
            return false;
        };
        let held = self.as_slice();
        *self = Label::of_ascending([&held[..at], &held[at + 1..]].concat());
        true
    }

    /// Whether the label contains the given tag.
    pub fn contains(&self, tag: &Tag) -> bool {
        self.contains_name(tag.name())
    }

    /// Whether the label contains a tag with the given name.
    pub fn contains_name(&self, name: &str) -> bool {
        self.position(name).is_ok()
    }

    /// Number of tags in the label.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the label is empty.
    pub fn is_empty(&self) -> bool {
        self.tags.is_none()
    }

    /// Iterates over the tags in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Tag> + '_ {
        self.as_slice().iter()
    }

    /// Whether every tag of `self` is also in `other` (`self ⊆ other`).
    pub fn is_subset(&self, other: &Label) -> bool {
        let (ours, theirs) = (self.as_slice(), other.as_slice());
        if std::ptr::eq(ours, theirs) {
            return true;
        }
        // Both ascending: each of our tags is looked for from where the last was found.
        let mut theirs = theirs.iter();
        ours.len() <= theirs.len() && ours.iter().all(|tag| theirs.any(|held| held == tag))
    }

    /// The union of two labels (lattice join for secrecy).
    pub fn union(&self, other: &Label) -> Label {
        if other.is_subset(self) {
            self.clone()
        } else if self.is_subset(other) {
            other.clone()
        } else {
            Label::of_ascending(self.select(other, |_, _| true))
        }
    }

    /// Tags present in `self` but not in `other`.
    pub fn difference(&self, other: &Label) -> Label {
        Label::of_ascending(self.select(other, |_, in_other| !in_other))
    }

    /// The tags of `other` that `self` is missing; useful for explaining flow denials.
    pub(crate) fn missing_from(&self, other: &Label) -> Vec<Tag> {
        self.select(other, |in_self, _| !in_self)
    }
}

fn is_strictly_ascending(tags: &[Tag]) -> bool {
    tags.windows(2).all(|pair| pair[0] < pair[1])
}

/// A label hashes as the sequence of its tags (as a sorted set of them would).
impl Hash for Label {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.iter().enumerate() {
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
        Label::of_unordered(iter.into_iter().collect())
    }
}

impl Extend<Tag> for Label {
    fn extend<I: IntoIterator<Item = Tag>>(&mut self, iter: I) {
        let mut added = iter.into_iter().filter(|tag| !self.contains(tag)).peekable();
        if added.peek().is_some() {
            *self = Label::of_unordered(self.iter().cloned().chain(added).collect());
        }
    }
}

impl IntoIterator for Label {
    type Item = Tag;
    type IntoIter = std::vec::IntoIter<Tag>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Label {
    type Item = &'a Tag;
    type IntoIter = std::slice::Iter<'a, Tag>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
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
        assert!(!big.is_subset(&small));
        assert!(small.is_subset(&small));
    }

    #[test]
    fn union_and_difference() {
        let a = Label::from_names(["medical", "ann"]);
        let b = Label::from_names(["medical", "zeb"]);
        assert_eq!(a.union(&b), Label::from_names(["medical", "ann", "zeb"]));
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
    fn a_label_is_one_pointer_and_a_length() {
        assert!(std::mem::size_of::<Label>() <= 16);
    }

    #[test]
    fn from_ascending_takes_only_strictly_ascending_tags() {
        let tags = |names: &[&str]| names.iter().map(Tag::new).collect::<Vec<_>>();
        assert_eq!(Label::from_ascending(tags(&["a", "b"])), Some(Label::from_names(["b", "a"])));
        assert_eq!(Label::from_ascending(Vec::new()), Some(Label::empty()));
        assert_eq!(Label::from_ascending(tags(&["b", "a"])), None);
        assert_eq!(Label::from_ascending(tags(&["a", "a"])), None);
    }

    #[test]
    fn a_change_leaves_other_holders_of_the_tags_alone() {
        let original = Label::from_names(["a", "c"]);
        let mut changed = original.clone();
        assert!(changed.insert(Tag::new("b")));
        assert!(changed.remove_name("a"));
        changed.extend([Tag::new("d")]);
        assert_eq!(original, Label::from_names(["a", "c"]));
        assert_eq!(changed, Label::from_names(["b", "c", "d"]));
    }

    fn arb_label() -> impl Strategy<Value = Label> {
        proptest::collection::btree_set("[a-e]{1,3}", 0..6).prop_map(Label::from_names)
    }

    /// The tree a label used to be: the oracle of the model test.
    type Model = std::collections::BTreeSet<Tag>;

    fn std_hash(value: &impl Hash) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    proptest! {
        /// A label and a sorted set of tags, driven through the same random calls, hold
        /// the same tags in the same order, answer alike, and print, compare and hash
        /// alike after every step — and a copy taken before a step is not moved by it.
        #[test]
        fn prop_a_label_behaves_as_the_sorted_set_it_replaced(
            steps in proptest::collection::vec(
                (0u8..9, proptest::collection::vec("[a-d]{1,2}", 0..4)),
                0..24,
            ),
        ) {
            let (mut label, mut model) = (Label::new(), Model::new());
            for (call, names) in steps {
                let (held, held_model) = (label.clone(), model.clone());
                let first = Tag::new(names.first().map_or("a", String::as_str));
                let other = Label::from_names(&names);
                let other_model: Model = names.iter().map(Tag::new).collect();
                match call {
                    0 => prop_assert_eq!(label.insert(first.clone()), model.insert(first)),
                    1 => prop_assert_eq!(label.remove(&first), model.remove(&first)),
                    2 => prop_assert_eq!(label.remove_name(first.name()), model.remove(&first)),
                    3 => {
                        label.extend(names.iter().map(Tag::new));
                        model.extend(names.iter().map(Tag::new));
                    }
                    4 => {
                        label = label.union(&other);
                        model = model.union(&other_model).cloned().collect();
                    }
                    5 => {
                        label = label.difference(&other);
                        model = model.difference(&other_model).cloned().collect();
                    }
                    6 => prop_assert_eq!(
                        label.missing_from(&other),
                        other_model.difference(&model).cloned().collect::<Vec<_>>()
                    ),
                    7 => {
                        prop_assert_eq!(label.is_subset(&other), model.is_subset(&other_model));
                        prop_assert_eq!(other.is_subset(&label), other_model.is_subset(&model));
                    }
                    _ => {
                        prop_assert_eq!(label.contains_name(first.name()), model.contains(&first));
                        prop_assert_eq!(label.contains(&first), model.contains(&first));
                    }
                }
                for (label, model) in [(&label, &model), (&held, &held_model)] {
                    prop_assert!(label.iter().eq(model.iter()), "{label} against {model:?}");
                    prop_assert_eq!((label.len(), label.is_empty()), (model.len(), model.is_empty()));
                    let names: Vec<&str> = model.iter().map(Tag::name).collect();
                    prop_assert_eq!(label.to_string(), format!("{{{}}}", names.join(", ")));
                    let rebuilt: Label = model.iter().rev().cloned().collect();
                    prop_assert_eq!(label, &rebuilt);
                    let ascending = Label::from_ascending(model.iter().cloned().collect());
                    prop_assert_eq!(ascending.as_ref(), Some(label));
                    prop_assert_eq!(std_hash(label), std_hash(model));
                    prop_assert!(label.is_subset(&rebuilt) && rebuilt.is_subset(label));
                }
            }
        }

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

        /// Union is idempotent, commutative and associative.
        #[test]
        fn prop_lattice_laws(a in arb_label(), b in arb_label(), c in arb_label()) {
            prop_assert_eq!(a.union(&a), a.clone());
            prop_assert_eq!(a.union(&b), b.union(&a));
            prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        }
    }
}
