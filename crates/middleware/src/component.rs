//! Components and the component registry.
//!
//! A component is a 'thing' participating through the middleware: it has an owning
//! principal, an IFC security context (mirroring the kernel-level context of the process
//! it fronts, §8.2.2), privileges, the message types it produces and consumes, and the
//! node it is hosted on. The [`Registry`] is the middleware's directory (the RDC in
//! SBUS): components are registered, looked up by name, and marked isolated when policy
//! demands.

use std::collections::BTreeMap;
use std::fmt;

use legaliot_context::NameMap;
use legaliot_ifc::{Entity, EntityKind, PrivilegeSet, SecurityContext};

use crate::acl::{Party, Principal};
use crate::schema::{FrozenSchema, MessageSchema, MessageType};

/// A middleware-managed component ('thing').
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    entity: Entity,
    principal: Principal,
    /// The name and principal as the AC regime knows them, interned at `build`.
    party: Party,
    node: String,
    produces: Vec<MessageType>,
    consumes: Vec<MessageType>,
    isolated: bool,
}

impl Component {
    /// Starts building a component.
    pub fn builder(name: impl Into<String>, principal: Principal) -> ComponentBuilder {
        ComponentBuilder {
            name: name.into(),
            principal,
            context: SecurityContext::public(),
            node: "local".to_string(),
            produces: Vec::new(),
            consumes: Vec::new(),
        }
    }

    /// The component's name.
    pub fn name(&self) -> &str {
        self.entity.name()
    }

    /// The owning principal.
    pub fn principal(&self) -> &Principal {
        &self.principal
    }

    /// The component's name and its principal's name and roles, interned when the
    /// component was built: what an AC question by id
    /// ([`crate::AccessRegime::decide_by_id`]) takes.
    pub fn party(&self) -> &Party {
        &self.party
    }

    /// The node hosting the component.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// The component's current security context.
    pub fn context(&self) -> &SecurityContext {
        self.entity.context()
    }

    /// The component's IFC privileges.
    pub fn privileges(&self) -> &PrivilegeSet {
        self.entity.privileges()
    }

    /// Mutable access to the underlying labelled entity (used by the middleware when
    /// applying authorised reconfigurations and privilege grants).
    pub fn entity_mut(&mut self) -> &mut Entity {
        &mut self.entity
    }

    /// The underlying labelled entity.
    pub fn entity(&self) -> &Entity {
        &self.entity
    }

    /// Message types the component produces.
    pub fn produces(&self) -> &[MessageType] {
        &self.produces
    }

    /// Message types the component consumes.
    pub fn consumes(&self) -> &[MessageType] {
        &self.consumes
    }

    /// Whether the component has been isolated by policy (no channels allowed).
    pub(crate) fn is_isolated(&self) -> bool {
        self.isolated
    }

    /// Marks the component isolated or not (trusted middleware operation).
    pub fn set_isolated(&mut self, isolated: bool) {
        self.isolated = isolated;
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} on {} ({})", self.name(), self.node, self.context())
    }
}

/// Builder for [`Component`].
#[derive(Debug, Clone)]
pub struct ComponentBuilder {
    name: String,
    principal: Principal,
    context: SecurityContext,
    node: String,
    produces: Vec<MessageType>,
    consumes: Vec<MessageType>,
}

impl ComponentBuilder {
    /// Sets the component's initial security context.
    pub fn context(mut self, context: SecurityContext) -> Self {
        self.context = context;
        self
    }

    /// Sets the hosting node's name.
    pub fn on_node(mut self, node: impl Into<String>) -> Self {
        self.node = node.into();
        self
    }

    /// Declares a produced message type.
    pub fn produces(mut self, message_type: impl Into<MessageType>) -> Self {
        self.produces.push(message_type.into());
        self
    }

    /// Declares a consumed message type.
    pub fn consumes(mut self, message_type: impl Into<MessageType>) -> Self {
        self.consumes.push(message_type.into());
        self
    }

    /// Finishes building the component.
    pub fn build(self) -> Component {
        Component {
            party: Party::new(&self.name, &self.principal),
            entity: Entity::with_kind(self.name, EntityKind::Active, self.context),
            principal: self.principal,
            node: self.node,
            produces: self.produces,
            consumes: self.consumes,
            isolated: false,
        }
    }
}

/// The middleware's component directory, plus registered message schemas (each frozen
/// once, at registration, and found by the type's id).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    components: BTreeMap<String, Component>,
    schemas: NameMap<MessageType, FrozenSchema>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a component. Returns `false` (and leaves the registry unchanged) if a
    /// component with the same name exists.
    pub fn register(&mut self, component: Component) -> bool {
        if self.components.contains_key(component.name()) {
            return false;
        }
        self.components.insert(component.name().to_string(), component);
        true
    }

    /// Removes a component by name.
    pub fn deregister(&mut self, name: &str) -> Option<Component> {
        self.components.remove(name)
    }

    /// Looks up a component.
    pub fn get(&self, name: &str) -> Option<&Component> {
        self.components.get(name)
    }

    /// Mutable lookup (middleware-internal).
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Component> {
        self.components.get_mut(name)
    }

    /// Number of registered components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Iterates components in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Component> + '_ {
        self.components.values()
    }

    /// Registers a message schema, frozen (replacing any previous schema for the type).
    /// Returns `false` (and leaves the registry unchanged) if the schema cannot be
    /// frozen: it declares more than [`crate::MAX_FROZEN_ATTRIBUTES`] attributes.
    pub fn register_schema(&mut self, schema: MessageSchema) -> bool {
        let Ok(frozen) = FrozenSchema::new(&schema) else {
            return false;
        };
        self.schemas.insert(schema.message_type, frozen);
        true
    }

    /// Looks up the frozen schema for a message type.
    pub fn schema(&self, message_type: &MessageType) -> Option<&FrozenSchema> {
        self.schemas.get(message_type)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttributeKind;

    fn ann_sensor() -> Component {
        Component::builder("ann-sensor", Principal::new("ann").with_role("patient"))
            .context(SecurityContext::from_names(["medical", "ann"], ["hosp-dev", "consent"]))
            .on_node("ann-home-gateway")
            .produces("sensor-reading")
            .build()
    }

    fn ann_analyser() -> Component {
        Component::builder("ann-analyser", Principal::new("hospital"))
            .context(SecurityContext::from_names(["medical", "ann"], ["hosp-dev", "consent"]))
            .on_node("hospital-cloud")
            .consumes("sensor-reading")
            .produces("analysis-report")
            .build()
    }

    #[test]
    fn builder_sets_fields() {
        let c = ann_sensor();
        assert_eq!(c.name(), "ann-sensor");
        assert_eq!(c.principal().name, "ann");
        assert_eq!(c.node(), "ann-home-gateway");
        assert!(c.context().secrecy().contains_name("medical"));
        assert_eq!(c.produces(), &[MessageType::new("sensor-reading")]);
        assert!(c.consumes().is_empty());
        assert!(!c.is_isolated());
        assert!(c.privileges().is_empty());
        assert!(c.to_string().contains("ann-sensor"));
    }

    #[test]
    fn registry_register_lookup_deregister() {
        let mut reg = Registry::new();
        assert!(reg.is_empty());
        assert!(reg.register(ann_sensor()));
        assert!(reg.register(ann_analyser()));
        // Duplicate names rejected.
        assert!(!reg.register(ann_sensor()));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.iter().count(), 2);
        assert!(reg.get("ann-sensor").is_some());
        assert!(reg.get("missing").is_none());
        assert!(reg.deregister("ann-sensor").is_some());
        assert!(reg.deregister("ann-sensor").is_none());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn schemas_registered_and_looked_up() {
        let mut reg = Registry::new();
        assert!(reg.register_schema(
            MessageSchema::new("sensor-reading").attribute("value", AttributeKind::Float),
        ));
        let schema = reg.schema(&MessageType::new("sensor-reading")).unwrap();
        assert_eq!(schema.index_of("value"), Some(0));
        assert!(reg.schema(&MessageType::new("unknown")).is_none());
    }

    #[test]
    fn isolation_flag() {
        let mut c = ann_sensor();
        c.set_isolated(true);
        assert!(c.is_isolated());
        c.set_isolated(false);
        assert!(!c.is_isolated());
    }

    #[test]
    fn component_entity_mutation() {
        let mut c = ann_sensor();
        let new_ctx = SecurityContext::from_names(["medical", "ann", "stats"], Vec::<&str>::new());
        c.entity_mut().set_context_trusted(new_ctx.clone());
        assert_eq!(c.context(), &new_ctx);
        assert_eq!(c.entity().label_changes(), 1);
    }
}
