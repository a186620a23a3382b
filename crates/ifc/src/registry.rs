//! A global tag registry: the paper's Challenge 1 (global policy representation).
//!
//! "For security policy to apply at scale, throughout the IoT, there is a need for a
//! global policy representation, including tag and privilege descriptions" (§9.3). The
//! registry provides a DNS-like, namespace-scoped catalogue of tags: who owns a tag,
//! what it means, whether it is globally applicable or scoped to an application or
//! administrative domain, and whether its very *existence* is sensitive (Challenge 2
//! notes tags themselves may reveal, e.g., a medical condition).

use std::collections::BTreeMap;
use std::fmt;

use crate::error::IfcError;
use crate::privilege::TagOwnership;
use crate::tag::Tag;

/// The scope within which a registered tag is meaningful.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TagScope {
    /// Understood by every participant, e.g. `eu:data-residency`.
    Global,
    /// Scoped to a named administrative domain, e.g. a hospital.
    Domain(String),
    /// Scoped to a single application.
    Application(String),
}

impl fmt::Display for TagScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TagScope::Global => write!(f, "global"),
            TagScope::Domain(d) => write!(f, "domain:{d}"),
            TagScope::Application(a) => write!(f, "application:{a}"),
        }
    }
}

/// Metadata describing a registered tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagDescriptor {
    /// The tag itself.
    pub tag: Tag,
    /// Human-readable description of the concern the tag represents.
    pub description: String,
    /// Where the tag is meaningful.
    pub scope: TagScope,
    /// Whether knowledge of the tag's presence is itself sensitive (Challenge 2).
    pub sensitive: bool,
}

/// A registry of tag descriptors plus the ownership table used to authorise privilege
/// delegation.
///
/// ```
/// use legaliot_ifc::{TagRegistry, TagScope, Tag};
/// let mut reg = TagRegistry::new();
/// reg.register(Tag::new("medical"), "medical data", TagScope::Global, true, "hospital")
///     .unwrap();
/// assert!(reg.lookup(&Tag::new("medical")).is_some());
/// assert!(reg.ownership().authorise_delegation(&Tag::new("medical"), "hospital").is_ok());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TagRegistry {
    descriptors: BTreeMap<Tag, TagDescriptor>,
    ownership: TagOwnership,
}

impl TagRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tag with its description, scope, sensitivity and owning principal.
    ///
    /// # Errors
    ///
    /// Returns [`IfcError::InvalidTagName`] if the tag is already registered.
    pub fn register(
        &mut self,
        tag: Tag,
        description: impl Into<String>,
        scope: TagScope,
        sensitive: bool,
        owner: impl Into<String>,
    ) -> Result<(), IfcError> {
        if self.descriptors.contains_key(&tag) {
            return Err(IfcError::InvalidTagName {
                name: tag.name().to_string(),
                detail: "tag is already registered".to_string(),
            });
        }
        self.ownership.register(tag.clone(), owner);
        self.descriptors.insert(
            tag.clone(),
            TagDescriptor { tag, description: description.into(), scope, sensitive },
        );
        Ok(())
    }

    /// Looks up the descriptor for a tag.
    pub fn lookup(&self, tag: &Tag) -> Option<&TagDescriptor> {
        self.descriptors.get(tag)
    }

    /// Whether the tag is registered.
    pub fn contains(&self, tag: &Tag) -> bool {
        self.descriptors.contains_key(tag)
    }

    /// The ownership table, used to authorise privilege delegation.
    pub fn ownership(&self) -> &TagOwnership {
        &self.ownership
    }

    /// Number of registered tags.
    pub fn len(&self) -> usize {
        self.descriptors.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }

    /// Iterates all descriptors in tag order.
    pub fn iter(&self) -> impl Iterator<Item = &TagDescriptor> + '_ {
        self.descriptors.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TagRegistry {
        let mut reg = TagRegistry::new();
        reg.register(Tag::new("medical"), "medical data", TagScope::Global, true, "hospital")
            .unwrap();
        reg.register(
            Tag::new("nhs:consent"),
            "patient consent recorded",
            TagScope::Domain("nhs".into()),
            false,
            "hospital",
        )
        .unwrap();
        reg.register(
            Tag::new("nhs:hosp-dev"),
            "hospital-issued device",
            TagScope::Domain("nhs".into()),
            false,
            "hospital",
        )
        .unwrap();
        reg.register(
            Tag::new("eu:data-residency"),
            "data must remain in the EU",
            TagScope::Global,
            false,
            "regulator",
        )
        .unwrap();
        reg
    }

    #[test]
    fn register_and_lookup() {
        let reg = sample();
        assert_eq!(reg.len(), 4);
        let d = reg.lookup(&Tag::new("medical")).unwrap();
        assert!(d.sensitive);
        assert_eq!(d.scope, TagScope::Global);
        assert!(reg.contains(&Tag::new("eu:data-residency")));
        assert!(!reg.contains(&Tag::new("unknown")));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut reg = sample();
        let err = reg
            .register(Tag::new("medical"), "dup", TagScope::Global, false, "attacker")
            .unwrap_err();
        assert!(matches!(err, IfcError::InvalidTagName { .. }));
        // Ownership unchanged.
        assert!(reg.ownership().authorise_delegation(&Tag::new("medical"), "hospital").is_ok());
    }

    #[test]
    fn ownership_authorises_delegation() {
        let reg = sample();
        assert!(reg.ownership().authorise_delegation(&Tag::new("medical"), "hospital").is_ok());
        assert!(reg.ownership().authorise_delegation(&Tag::new("medical"), "tenant").is_err());
    }

    #[test]
    fn empty_registry() {
        let reg = TagRegistry::new();
        assert!(reg.is_empty());
        assert_eq!(reg.iter().count(), 0);
    }

    #[test]
    fn scope_display() {
        assert_eq!(TagScope::Global.to_string(), "global");
        assert_eq!(TagScope::Domain("nhs".into()).to_string(), "domain:nhs");
        assert_eq!(
            TagScope::Application("home-monitor".into()).to_string(),
            "application:home-monitor"
        );
    }
}
