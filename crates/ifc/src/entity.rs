//! Labelled entities: the things flows happen between.
//!
//! Both active entities (processes, middleware components, analytics services) and
//! passive entities (files, messages, database rows) carry a [`SecurityContext`]. Only
//! active entities hold privileges and may change their own labels.
//!
//! Creation flows (§6): an entity created by another inherits the creator's labels
//! (security context) but **not** its privileges.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::IfcError;
use crate::privilege::{PrivilegeKind, PrivilegeSet};
use crate::tag::{SecurityContext, Tag};

static NEXT_ENTITY_ID: AtomicU64 = AtomicU64::new(1);

/// A unique identifier for an entity.
///
/// Ids are unique within a process; distributed deployments scope them by node
/// (see `legaliot-net`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntityId(u64);

impl EntityId {
    /// Allocates a fresh entity id.
    pub fn fresh() -> Self {
        EntityId(NEXT_ENTITY_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// The raw numeric value.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Whether an entity is active (may hold privileges, may act) or passive (pure data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntityKind {
    /// A process, component, service — anything that initiates flows.
    Active,
    /// A file, message, datum — anything that only carries information.
    Passive,
}

impl fmt::Display for EntityKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntityKind::Active => write!(f, "active"),
            EntityKind::Passive => write!(f, "passive"),
        }
    }
}

/// A labelled entity with (for active entities) privileges for label change.
///
/// ```
/// use legaliot_ifc::{Entity, EntityKind, SecurityContext, PrivilegeKind, Tag};
///
/// let mut sanitiser = Entity::active(
///     "input-sanitiser",
///     SecurityContext::from_names(["medical", "zeb"], ["zeb-dev", "consent"]),
/// );
/// // The hospital (tag owner) grants the endorsement privilege.
/// sanitiser.privileges_mut().grant(Tag::new("hosp-dev"), PrivilegeKind::IntegrityAdd);
/// sanitiser.privileges_mut().grant(Tag::new("zeb-dev"), PrivilegeKind::IntegrityRemove);
/// // The sanitiser endorses its output as hospital-standard (Fig. 5).
/// sanitiser.add_integrity_tag(Tag::new("hosp-dev")).unwrap();
/// sanitiser.remove_integrity_tag(&Tag::new("zeb-dev")).unwrap();
/// assert!(sanitiser.context().integrity().contains_name("hosp-dev"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entity {
    id: EntityId,
    name: String,
    kind: EntityKind,
    context: SecurityContext,
    privileges: PrivilegeSet,
    /// Number of label changes this entity has performed; useful for audit correlation.
    label_changes: u64,
}

impl Entity {
    /// Creates an active entity with the given name and initial security context.
    pub fn active(name: impl Into<String>, context: SecurityContext) -> Self {
        Self::with_kind(name, EntityKind::Active, context)
    }

    /// Creates an entity of the given kind.
    pub fn with_kind(name: impl Into<String>, kind: EntityKind, context: SecurityContext) -> Self {
        Entity {
            id: EntityId::fresh(),
            name: name.into(),
            kind,
            context,
            privileges: PrivilegeSet::new(),
            label_changes: 0,
        }
    }

    /// Creation flow: spawns a child entity that inherits this entity's security
    /// context but none of its privileges (§6 "Creation flows").
    pub fn create_child(&self, name: impl Into<String>, kind: EntityKind) -> Entity {
        Entity {
            id: EntityId::fresh(),
            name: name.into(),
            kind,
            context: self.context.clone(),
            privileges: PrivilegeSet::new(),
            label_changes: 0,
        }
    }

    /// The entity's unique id.
    pub fn id(&self) -> EntityId {
        self.id
    }

    /// The entity's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the entity is active or passive.
    pub fn kind(&self) -> EntityKind {
        self.kind
    }

    /// The entity's current security context.
    pub fn context(&self) -> &SecurityContext {
        &self.context
    }

    /// The entity's privileges.
    pub fn privileges(&self) -> &PrivilegeSet {
        &self.privileges
    }

    /// Mutable access to the privileges, for grants by tag owners / application managers.
    pub fn privileges_mut(&mut self) -> &mut PrivilegeSet {
        &mut self.privileges
    }

    /// Number of label changes performed so far.
    pub fn label_changes(&self) -> u64 {
        self.label_changes
    }

    /// Adds `tag` to the secrecy label, if privileged.
    ///
    /// # Errors
    ///
    /// Returns [`IfcError::MissingAddPrivilege`] if the entity does not hold the
    /// `SecrecyAdd` privilege for `tag`.
    pub fn add_secrecy_tag(&mut self, tag: Tag) -> Result<(), IfcError> {
        self.change_label(tag, PrivilegeKind::SecrecyAdd)
    }

    /// Removes `tag` from the secrecy label (declassification), if privileged.
    ///
    /// # Errors
    ///
    /// Returns [`IfcError::MissingRemovePrivilege`] if the entity does not hold the
    /// `SecrecyRemove` privilege for `tag`.
    pub fn remove_secrecy_tag(&mut self, tag: &Tag) -> Result<(), IfcError> {
        self.change_label(tag.clone(), PrivilegeKind::SecrecyRemove)
    }

    /// Adds `tag` to the integrity label (endorsement), if privileged.
    ///
    /// # Errors
    ///
    /// Returns [`IfcError::MissingAddPrivilege`] if the entity does not hold the
    /// `IntegrityAdd` privilege for `tag`.
    pub fn add_integrity_tag(&mut self, tag: Tag) -> Result<(), IfcError> {
        self.change_label(tag, PrivilegeKind::IntegrityAdd)
    }

    /// Removes `tag` from the integrity label, if privileged.
    ///
    /// # Errors
    ///
    /// Returns [`IfcError::MissingRemovePrivilege`] if the entity does not hold the
    /// `IntegrityRemove` privilege for `tag`.
    pub fn remove_integrity_tag(&mut self, tag: &Tag) -> Result<(), IfcError> {
        self.change_label(tag.clone(), PrivilegeKind::IntegrityRemove)
    }

    /// Replaces the whole security context **without** privilege checks.
    ///
    /// This models trusted-infrastructure actions (e.g. the middleware applying an
    /// authorised third-party reconfiguration, Fig. 8); application-level code should
    /// use the per-tag methods which check privileges.
    pub fn set_context_trusted(&mut self, context: SecurityContext) {
        self.context = context;
        self.label_changes += 1;
    }

    fn change_label(&mut self, tag: Tag, kind: PrivilegeKind) -> Result<(), IfcError> {
        if self.kind == EntityKind::Passive {
            // Passive entities cannot act; treat as missing privilege.
            return Err(missing_privilege_error(tag, kind));
        }
        if !self.privileges.permits(&tag, kind) {
            return Err(missing_privilege_error(tag, kind));
        }
        let label = if kind.is_secrecy() {
            self.context.secrecy_mut()
        } else {
            self.context.integrity_mut()
        };
        if kind.is_add() {
            label.insert(tag);
        } else {
            label.remove(&tag);
        }
        self.label_changes += 1;
        Ok(())
    }
}

fn missing_privilege_error(tag: Tag, kind: PrivilegeKind) -> IfcError {
    if kind.is_add() {
        IfcError::MissingAddPrivilege { tag, secrecy: kind.is_secrecy() }
    } else {
        IfcError::MissingRemovePrivilege { tag, secrecy: kind.is_secrecy() }
    }
}

impl fmt::Display for Entity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}", self.name, self.id, self.context)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::can_flow;
    use crate::label::Label;
    use proptest::prelude::*;

    fn ctx(s: &[&str], i: &[&str]) -> SecurityContext {
        SecurityContext::from_names(s.iter().copied(), i.iter().copied())
    }

    #[test]
    fn ids_are_unique() {
        let a = Entity::active("a", SecurityContext::public());
        let b = Entity::active("b", SecurityContext::public());
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn child_inherits_labels_not_privileges() {
        let mut parent = Entity::active("parent", ctx(&["medical"], &["consent"]));
        parent.privileges_mut().grant("medical", PrivilegeKind::SecrecyRemove);
        let child = parent.create_child("child", EntityKind::Active);
        assert_eq!(child.context(), parent.context());
        assert!(child.privileges().is_empty());
        assert_ne!(child.id(), parent.id());
    }

    #[test]
    fn label_change_requires_privilege() {
        let mut e = Entity::active("e", ctx(&["medical"], &[]));
        let err = e.remove_secrecy_tag(&Tag::new("medical")).unwrap_err();
        assert!(matches!(err, IfcError::MissingRemovePrivilege { .. }));
        assert!(e.context().secrecy().contains_name("medical"));

        e.privileges_mut().grant("medical", PrivilegeKind::SecrecyRemove);
        e.remove_secrecy_tag(&Tag::new("medical")).unwrap();
        assert!(!e.context().secrecy().contains_name("medical"));
        assert_eq!(e.label_changes(), 1);
    }

    #[test]
    fn passive_entities_cannot_change_labels() {
        let mut datum = Entity::with_kind("reading", EntityKind::Passive, ctx(&["medical"], &[]));
        datum.privileges_mut().grant("medical", PrivilegeKind::SecrecyRemove);
        // Even with (erroneously granted) privileges, a passive entity cannot act.
        assert!(datum.remove_secrecy_tag(&Tag::new("medical")).is_err());
    }

    #[test]
    fn endorsement_adds_integrity_tag() {
        let mut sanitiser = Entity::active("sanitiser", ctx(&["medical", "zeb"], &["zeb-dev"]));
        sanitiser.privileges_mut().grant("hosp-dev", PrivilegeKind::IntegrityAdd);
        sanitiser.add_integrity_tag(Tag::new("hosp-dev")).unwrap();
        assert!(sanitiser.context().integrity().contains_name("hosp-dev"));
    }

    #[test]
    fn flow_between_entities_uses_contexts() {
        let ann_sensor =
            Entity::active("ann-sensor", ctx(&["medical", "ann"], &["hosp-dev", "consent"]));
        let ann_analyser =
            Entity::active("ann-analyser", ctx(&["medical", "ann"], &["hosp-dev", "consent"]));
        let zeb_sensor =
            Entity::active("zeb-sensor", ctx(&["medical", "zeb"], &["zeb-dev", "consent"]));
        assert!(can_flow(ann_sensor.context(), ann_analyser.context()).is_allowed());
        assert!(can_flow(zeb_sensor.context(), ann_analyser.context()).is_denied());
    }

    #[test]
    fn trusted_context_replacement_counts_as_label_change() {
        let mut e = Entity::active("e", SecurityContext::public());
        e.set_context_trusted(ctx(&["medical"], &[]));
        assert_eq!(e.label_changes(), 1);
        assert!(e.context().secrecy().contains_name("medical"));
    }

    #[test]
    fn display_includes_name_and_labels() {
        let e = Entity::active("monitor", ctx(&["medical"], &[]));
        let s = e.to_string();
        assert!(s.contains("monitor"));
        assert!(s.contains("medical"));
    }

    #[test]
    fn entity_id_round_trip() {
        let id = EntityId(42);
        assert_eq!(id.as_u64(), 42);
        assert_eq!(id.to_string(), "e42");
    }

    proptest! {
        /// Creation-flow invariant: for any context, the child has the same context and
        /// empty privileges, and can always exchange data with its parent in both
        /// directions (same security context domain).
        #[test]
        fn prop_creation_flow_inheritance(
            s in proptest::collection::btree_set("[a-d]{1,2}", 0..4),
            i in proptest::collection::btree_set("[a-d]{1,2}", 0..4),
        ) {
            let parent_ctx = SecurityContext::new(Label::from_names(s), Label::from_names(i));
            let mut parent = Entity::active("p", parent_ctx);
            parent.privileges_mut().grant("some-tag", PrivilegeKind::SecrecyAdd);
            let child = parent.create_child("c", EntityKind::Active);
            prop_assert!(child.privileges().is_empty());
            prop_assert!(can_flow(parent.context(), child.context()).is_allowed());
            prop_assert!(can_flow(child.context(), parent.context()).is_allowed());
        }

        /// Privileged add-then-remove returns the context to its original state.
        #[test]
        fn prop_add_remove_inverse(name in "[a-d]{1,3}") {
            let tag = Tag::new(&name);
            let mut e = Entity::active("e", SecurityContext::public());
            e.privileges_mut().grant(tag.clone(), PrivilegeKind::SecrecyAdd);
            e.privileges_mut().grant(tag.clone(), PrivilegeKind::SecrecyRemove);
            let before = e.context().clone();
            e.add_secrecy_tag(tag.clone()).unwrap();
            e.remove_secrecy_tag(&tag).unwrap();
            prop_assert_eq!(e.context().clone(), before);
            prop_assert_eq!(e.label_changes(), 2);
        }
    }
}
