//! Declassifiers and endorsers: trusted gateways between security-context domains.
//!
//! Fig. 3 of the paper: an entity changing its security context is a *declassifier*
//! when it relaxes secrecy constraints and an *endorser* when it asserts integrity
//! constraints. They "can be seen as trusted gateways between security context domains,
//! where IFC constraints would otherwise prohibit a direct flow" — e.g. medical data may
//! only flow to a research domain after passing through a declassifier that applies an
//! approved anonymisation algorithm (Fig. 6), and non-standard device data may only
//! reach the hospital analyser through an input sanitiser that endorses it (Fig. 5).

use std::fmt;

use crate::entity::Entity;
use crate::error::IfcError;
use crate::flow::can_flow;
use crate::privilege::PrivilegeKind;
use crate::tag::{SecurityContext, Tag};

/// The kind of context change a gateway performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GatewayKind {
    /// Relaxes secrecy (removes and/or replaces secrecy tags): e.g. an anonymiser.
    Declassifier,
    /// Asserts integrity (adds integrity tags after validation): e.g. an input sanitiser.
    Endorser,
    /// Performs both secrecy and integrity changes.
    Both,
}

impl fmt::Display for GatewayKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatewayKind::Declassifier => write!(f, "declassifier"),
            GatewayKind::Endorser => write!(f, "endorser"),
            GatewayKind::Both => write!(f, "declassifier+endorser"),
        }
    }
}

/// The approved transformation a gateway applies to data passing through it.
///
/// The paper requires that declassification/endorsement is bound to an explicit,
/// auditable operation (an "approved algorithm"), not a silent relabel; audit records
/// carry this name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transformation {
    /// The name of the approved algorithm, e.g. `k-anonymise(k=5)` or
    /// `convert-to-hospital-format`.
    pub algorithm: String,
    /// Secrecy tags removed from data passing through.
    pub secrecy_removed: Vec<Tag>,
    /// Secrecy tags added to data passing through.
    pub secrecy_added: Vec<Tag>,
    /// Integrity tags removed from data passing through.
    pub integrity_removed: Vec<Tag>,
    /// Integrity tags added (endorsed) on data passing through.
    pub integrity_added: Vec<Tag>,
}

impl Transformation {
    /// Creates a transformation with the given algorithm name and no label changes.
    pub fn named(algorithm: impl Into<String>) -> Self {
        Transformation {
            algorithm: algorithm.into(),
            secrecy_removed: Vec::new(),
            secrecy_added: Vec::new(),
            integrity_removed: Vec::new(),
            integrity_added: Vec::new(),
        }
    }

    /// Adds a secrecy tag removal to the transformation.
    pub fn removing_secrecy(mut self, tag: impl Into<Tag>) -> Self {
        self.secrecy_removed.push(tag.into());
        self
    }

    /// Applies the transformation to a security context, producing the output context.
    pub fn apply(&self, input: &SecurityContext) -> SecurityContext {
        let mut out = input.clone();
        for t in &self.secrecy_removed {
            out.secrecy_mut().remove(t);
        }
        for t in &self.secrecy_added {
            out.secrecy_mut().insert(t.clone());
        }
        for t in &self.integrity_removed {
            out.integrity_mut().remove(t);
        }
        for t in &self.integrity_added {
            out.integrity_mut().insert(t.clone());
        }
        out
    }

    /// The privileges an entity must hold to perform this transformation on itself.
    fn required_privileges(&self) -> Vec<(Tag, PrivilegeKind)> {
        let mut req = Vec::new();
        for t in &self.secrecy_removed {
            req.push((t.clone(), PrivilegeKind::SecrecyRemove));
        }
        for t in &self.secrecy_added {
            req.push((t.clone(), PrivilegeKind::SecrecyAdd));
        }
        for t in &self.integrity_removed {
            req.push((t.clone(), PrivilegeKind::IntegrityRemove));
        }
        for t in &self.integrity_added {
            req.push((t.clone(), PrivilegeKind::IntegrityAdd));
        }
        req
    }
}

/// A trusted gateway: an entity plus the input context it reads in, the output context
/// it writes out, and the approved transformation connecting them.
///
/// ```
/// use legaliot_ifc::{Entity, Gateway, GatewayKind, SecurityContext, Transformation,
///                    PrivilegeKind, Tag};
///
/// // Fig. 5: the input sanitiser reads Zeb's non-standard data and endorses it.
/// let input = SecurityContext::from_names(["medical", "zeb"], ["zeb-dev", "consent"]);
/// let output = SecurityContext::from_names(["medical", "zeb"], ["hosp-dev", "consent"]);
/// let mut sanitiser = Entity::active("input-sanitiser", input.clone());
/// sanitiser.privileges_mut().grant(Tag::new("hosp-dev"), PrivilegeKind::IntegrityAdd);
/// sanitiser.privileges_mut().grant(Tag::new("zeb-dev"), PrivilegeKind::IntegrityRemove);
///
/// let transformation = Transformation {
///     integrity_removed: vec![Tag::new("zeb-dev")],
///     integrity_added: vec![Tag::new("hosp-dev")],
///     ..Transformation::named("convert-to-hospital-format")
/// };
/// let gateway = Gateway::new(sanitiser, transformation, output).unwrap();
/// assert_eq!(gateway.kind(), GatewayKind::Endorser);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gateway {
    entity: Entity,
    transformation: Transformation,
    output_context: SecurityContext,
}

impl Gateway {
    /// Builds a gateway from an entity, its approved transformation, and the expected
    /// output context.
    ///
    /// # Errors
    ///
    /// * [`IfcError::GatewayNotPrivileged`] if the entity does not hold every privilege
    ///   the transformation requires.
    /// * [`IfcError::GatewayNotPrivileged`] if applying the transformation to the
    ///   entity's context does not yield `output_context` (the declared output would be
    ///   unreachable, so the gateway definition is inconsistent).
    pub fn new(
        entity: Entity,
        transformation: Transformation,
        output_context: SecurityContext,
    ) -> Result<Self, IfcError> {
        for (tag, kind) in transformation.required_privileges() {
            if !entity.privileges().permits(&tag, kind) {
                return Err(IfcError::GatewayNotPrivileged {
                    gateway: entity.name().to_string(),
                    detail: format!("requires {kind} privilege over tag `{tag}`"),
                });
            }
        }
        let produced = transformation.apply(entity.context());
        if produced != output_context {
            return Err(IfcError::GatewayNotPrivileged {
                gateway: entity.name().to_string(),
                detail: format!(
                    "transformation yields {produced} but gateway declares output {output_context}"
                ),
            });
        }
        Ok(Gateway { entity, transformation, output_context })
    }

    /// The underlying entity.
    pub fn entity(&self) -> &Entity {
        &self.entity
    }

    /// The approved transformation.
    pub fn transformation(&self) -> &Transformation {
        &self.transformation
    }

    /// Classifies the gateway by the kind of label change it performs.
    pub fn kind(&self) -> GatewayKind {
        let t = &self.transformation;
        let secrecy = !t.secrecy_removed.is_empty() || !t.secrecy_added.is_empty();
        let integrity = !t.integrity_removed.is_empty() || !t.integrity_added.is_empty();
        match (secrecy, integrity) {
            (true, true) => GatewayKind::Both,
            (true, false) => GatewayKind::Declassifier,
            _ => GatewayKind::Endorser,
        }
    }

    /// Whether this gateway bridges a flow from `source` to `destination` that would
    /// otherwise be denied: i.e. `source → gateway-input` and `gateway-output →
    /// destination` are both allowed.
    pub fn bridges(&self, source: &SecurityContext, destination: &SecurityContext) -> bool {
        can_flow(source, self.entity.context()).is_allowed()
            && can_flow(&self.output_context, destination).is_allowed()
    }
}

/// Convenience alias used in scenario code for gateways that relax secrecy.
pub type Declassifier = Gateway;
/// Convenience alias used in scenario code for gateways that assert integrity.
pub type Endorser = Gateway;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ctx(s: &[&str], i: &[&str]) -> SecurityContext {
        SecurityContext::from_names(s.iter().copied(), i.iter().copied())
    }

    fn tags(names: &[&str]) -> Vec<Tag> {
        names.iter().copied().map(Tag::new).collect()
    }

    fn sanitiser_gateway() -> Gateway {
        let input = ctx(&["medical", "zeb"], &["zeb-dev", "consent"]);
        let output = ctx(&["medical", "zeb"], &["hosp-dev", "consent"]);
        let mut e = Entity::active("input-sanitiser", input);
        e.privileges_mut().grant("hosp-dev", PrivilegeKind::IntegrityAdd);
        e.privileges_mut().grant("zeb-dev", PrivilegeKind::IntegrityRemove);
        let t = Transformation {
            integrity_removed: tags(&["zeb-dev"]),
            integrity_added: tags(&["hosp-dev"]),
            ..Transformation::named("convert-to-hospital-format")
        };
        Gateway::new(e, t, output).unwrap()
    }

    fn anonymiser_gateway() -> Gateway {
        // Fig. 6: the statistics generator reads all patients' data, anonymises, and
        // outputs into the stats/anon domain.
        let input = ctx(&["medical", "ann", "zeb"], &["hosp-dev", "consent"]);
        let output = ctx(&["medical", "stats"], &["anon"]);
        let mut e = Entity::active("stats-generator", input);
        for (t, k) in [
            ("ann", PrivilegeKind::SecrecyRemove),
            ("zeb", PrivilegeKind::SecrecyRemove),
            ("stats", PrivilegeKind::SecrecyAdd),
            ("hosp-dev", PrivilegeKind::IntegrityRemove),
            ("consent", PrivilegeKind::IntegrityRemove),
            ("anon", PrivilegeKind::IntegrityAdd),
        ] {
            e.privileges_mut().grant(t, k);
        }
        let t = Transformation {
            secrecy_added: tags(&["stats"]),
            integrity_removed: tags(&["hosp-dev", "consent"]),
            integrity_added: tags(&["anon"]),
            ..Transformation::named("k-anonymise").removing_secrecy("ann").removing_secrecy("zeb")
        };
        Gateway::new(e, t, output).unwrap()
    }

    #[test]
    fn endorser_classification_and_bridge() {
        let g = sanitiser_gateway();
        assert_eq!(g.kind(), GatewayKind::Endorser);
        let zeb_sensor = ctx(&["medical", "zeb"], &["zeb-dev", "consent"]);
        let zeb_analyser = ctx(&["medical", "zeb"], &["hosp-dev", "consent"]);
        // Direct flow is denied (Fig. 4)…
        assert!(can_flow(&zeb_sensor, &zeb_analyser).is_denied());
        // …but the sanitiser bridges it (Fig. 5).
        assert!(g.bridges(&zeb_sensor, &zeb_analyser));
    }

    #[test]
    fn declassifier_classification_and_bridge() {
        let g = anonymiser_gateway();
        assert_eq!(g.kind(), GatewayKind::Both);
        let ann_sensor = ctx(&["medical", "ann"], &["hosp-dev", "consent"]);
        let ward_manager = ctx(&["medical", "stats"], &["anon"]);
        assert!(can_flow(&ann_sensor, &ward_manager).is_denied());
        // The ward manager cannot read individual patient data directly, but the
        // anonymising statistics generator bridges the flow.
        assert!(g.bridges(&ann_sensor, &ward_manager));
    }

    #[test]
    fn gateway_requires_privileges() {
        let input = ctx(&["medical"], &[]);
        let output = ctx(&[], &[]);
        let e = Entity::active("unprivileged", input);
        let t = Transformation::named("strip-medical").removing_secrecy("medical");
        let err = Gateway::new(e, t, output).unwrap_err();
        assert!(matches!(err, IfcError::GatewayNotPrivileged { .. }));
    }

    #[test]
    fn gateway_output_must_match_transformation() {
        let input = ctx(&["medical"], &[]);
        let wrong_output = ctx(&["medical"], &[]); // strip-medical would remove the tag
        let mut e = Entity::active("anonymiser", input);
        e.privileges_mut().grant("medical", PrivilegeKind::SecrecyRemove);
        let t = Transformation::named("strip-medical").removing_secrecy("medical");
        assert!(Gateway::new(e, t, wrong_output).is_err());
    }

    #[test]
    fn transformation_apply_is_pure() {
        let t = Transformation {
            secrecy_added: tags(&["stats"]),
            ..Transformation::named("anon").removing_secrecy("ann")
        };
        let input = ctx(&["medical", "ann"], &["consent"]);
        let out = t.apply(&input);
        assert!(out.secrecy().contains_name("stats"));
        assert!(!out.secrecy().contains_name("ann"));
        assert!(out.integrity().contains_name("consent"));
        // Input unchanged.
        assert!(input.secrecy().contains_name("ann"));
    }

    #[test]
    fn required_privileges_cover_all_changes() {
        let t = Transformation {
            secrecy_added: tags(&["b"]),
            integrity_removed: tags(&["c"]),
            integrity_added: tags(&["d"]),
            ..Transformation::named("x").removing_secrecy("a")
        };
        let req = t.required_privileges();
        assert_eq!(req.len(), 4);
        assert!(req.contains(&(Tag::new("a"), PrivilegeKind::SecrecyRemove)));
        assert!(req.contains(&(Tag::new("b"), PrivilegeKind::SecrecyAdd)));
        assert!(req.contains(&(Tag::new("c"), PrivilegeKind::IntegrityRemove)));
        assert!(req.contains(&(Tag::new("d"), PrivilegeKind::IntegrityAdd)));
    }

    #[test]
    fn gateway_kind_display() {
        assert_eq!(GatewayKind::Declassifier.to_string(), "declassifier");
        assert_eq!(GatewayKind::Endorser.to_string(), "endorser");
        assert_eq!(GatewayKind::Both.to_string(), "declassifier+endorser");
    }

    proptest! {
        /// Gateway soundness: a gateway can never be constructed whose entity lacks a
        /// privilege required by its transformation.
        #[test]
        fn prop_gateway_requires_all_privileges(
            grant_subset in proptest::collection::vec(proptest::bool::ANY, 4),
        ) {
            let input = ctx(&["a"], &["b"]);
            let t = Transformation {
                secrecy_added: tags(&["c"]),
                integrity_removed: tags(&["b"]),
                integrity_added: tags(&["d"]),
                ..Transformation::named("t").removing_secrecy("a")
            };
            let needed = t.required_privileges();
            let mut e = Entity::active("g", input);
            let mut all_granted = true;
            for (idx, (tag, kind)) in needed.iter().enumerate() {
                if grant_subset[idx % grant_subset.len()] {
                    e.privileges_mut().grant(tag.clone(), *kind);
                } else {
                    all_granted = false;
                }
            }
            let output = t.apply(e.context());
            let result = Gateway::new(e, t, output);
            prop_assert_eq!(result.is_ok(), all_granted);
        }

        /// Bridging property: if a gateway bridges source→destination then composing
        /// the two hops is exactly source→input and output→destination both allowed.
        #[test]
        fn prop_bridge_definition(extra in "[e-h]{1,2}") {
            let g = sanitiser_gateway();
            let src = ctx(&["medical", "zeb"], &["zeb-dev", "consent"]);
            let mut dst = ctx(&["medical", "zeb"], &["hosp-dev", "consent"]);
            dst.secrecy_mut().insert(Tag::new(&extra));
            let bridged = g.bridges(&src, &dst);
            let expected = can_flow(&src, g.entity().context()).is_allowed()
                && can_flow(&g.output_context, &dst).is_allowed();
            prop_assert_eq!(bridged, expected);
        }
    }
}
