//! The deployment facade.

use legaliot_audit::{AuditEvent, AuditLog, ProvenanceGraph};
use legaliot_compliance::{ComplianceChecker, ComplianceReport, RegulationSet};
use legaliot_context::{ContextStore, ContextValue, LogicalClock, SubscriptionId, Timestamp};
use legaliot_ifc::{SecurityContext, Tag, TagScope};
use legaliot_iot::Thing;
use legaliot_middleware::{
    AccessRule, DeliveryOutcome, Message, Middleware, MiddlewareError, Operation, Subject,
};
use legaliot_policy::{BreakGlass, PolicyEngine, PolicyEvent, PolicyRule};

/// What happened during one policy-evaluation tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TickReport {
    /// Policy rules that fired.
    pub rules_fired: usize,
    /// Reconfiguration commands issued by the engine.
    pub commands_issued: usize,
    /// Control operations the middleware accepted.
    pub controls_applied: usize,
    /// Control operations the middleware rejected.
    pub controls_rejected: usize,
}

/// A full deployment: clock, context, policy engine, middleware, provenance and
/// compliance, operated together. The middleware's audit log is its one trail:
/// provenance and compliance are read from it.
#[derive(Debug)]
pub struct Deployment {
    name: String,
    clock: LogicalClock,
    context: ContextStore,
    engine: PolicyEngine,
    middleware: Middleware,
    breakglass: Vec<BreakGlass>,
    engine_subscription: SubscriptionId,
    /// Component name → region (for residency compliance checks).
    component_regions: Vec<(String, String)>,
    /// Subjects whose consent has been recorded.
    consent_given: Vec<String>,
    /// Authorities notified of breaches.
    notified_authorities: Vec<String>,
}

impl Deployment {
    /// Creates an empty deployment whose policy engine acts under the given authority
    /// name (e.g. `hospital-engine`).
    pub fn new(name: impl Into<String>, engine_authority: impl Into<String>) -> Self {
        let name = name.into();
        let context = ContextStore::new();
        let engine_subscription = context.subscribe();
        Deployment {
            middleware: Middleware::new(format!("{name}-mw")),
            engine: PolicyEngine::new(engine_authority),
            clock: LogicalClock::new(),
            breakglass: Vec::new(),
            engine_subscription,
            component_regions: Vec::new(),
            consent_given: Vec::new(),
            notified_authorities: Vec::new(),
            context,
            name,
        }
    }

    /// The deployment's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The simulated clock.
    pub fn clock(&self) -> &LogicalClock {
        &self.clock
    }

    /// Current simulated time.
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// Advances simulated time by `millis`.
    pub fn advance(&mut self, millis: u64) -> Timestamp {
        self.clock.advance(millis)
    }

    /// The context store.
    pub fn context(&self) -> &ContextStore {
        &self.context
    }

    /// The policy engine.
    pub fn engine(&self) -> &PolicyEngine {
        &self.engine
    }

    /// The middleware.
    pub fn middleware(&self) -> &Middleware {
        &self.middleware
    }

    /// Mutable access to the middleware (AC rules, schemas, tag registry).
    pub fn middleware_mut(&mut self) -> &mut Middleware {
        &mut self.middleware
    }

    /// The provenance graph of everything recorded so far, built from the audit trail:
    /// its derivations and its allowed flows.
    pub fn provenance(&self) -> ProvenanceGraph {
        ProvenanceGraph::from_log(self.audit())
    }

    /// Registers a thing: converts it to a component, registers it with the middleware,
    /// opens the default AC rules (anyone may send to it; the deployment's policy engine
    /// may reconfigure it), records its region, and raises a `ComponentJoined` event.
    pub fn add_thing(&mut self, thing: &Thing, region: impl Into<String>) {
        let component = thing.to_component();
        let name = component.name().to_string();
        self.middleware.registry_mut().register(component);
        self.middleware
            .access_mut()
            .add_rule(&name, AccessRule::allow(Subject::Anyone, Operation::Send, None));
        let engine_name = self.engine.name().to_string();
        self.middleware.access_mut().add_rule(
            &name,
            AccessRule::allow(Subject::Principal(engine_name), Operation::Reconfigure, None),
        );
        self.component_regions.push((name.clone(), region.into()));
        let now = self.now();
        let snapshot = self.context.snapshot();
        let outcome =
            self.engine.evaluate(&PolicyEvent::ComponentJoined { component: name }, &snapshot, now);
        self.apply_outcome_commands(&outcome.commands);
    }

    /// Records a subject's consent (also published into context for rule conditions).
    pub fn record_consent(&mut self, subject: impl Into<String>) {
        let subject = subject.into();
        let now = self.now();
        self.context.set(format!("{subject}.consent-given"), true, now);
        self.consent_given.push(subject);
    }

    /// Records that a breach notification was delivered to an authority.
    pub fn record_breach_notification(&mut self, authority: impl Into<String>) {
        self.notified_authorities.push(authority.into());
    }

    /// Adds a policy rule to the engine.
    pub fn add_rule(&mut self, rule: PolicyRule) {
        self.engine.add_rule(rule);
    }

    /// Registers a regulation: its obligations are compiled into rules and its required
    /// tags registered under the regulation's authority in the tag registry.
    pub fn add_regulation(&mut self, regulation: &RegulationSet) {
        for tag in regulation.required_tags() {
            // Ignore duplicate registrations: several regulations may govern one tag.
            let _ = self.middleware.tag_registry_mut().register(
                tag.clone(),
                format!("required by {}", regulation.name),
                TagScope::Global,
                false,
                regulation.authority.clone(),
            );
        }
        for rule in regulation.compile() {
            self.engine.add_rule(rule);
        }
    }

    /// Defines a break-glass override.
    pub fn add_breakglass(&mut self, breakglass: BreakGlass) {
        self.breakglass.push(breakglass);
    }

    /// Activates a break-glass override by id with a justification, applying its
    /// emergency actions through the middleware. Returns whether it activated.
    pub fn activate_breakglass(&mut self, id: &str, justification: &str) -> bool {
        let now = self.now();
        let snapshot = self.context.snapshot();
        let engine_name = self.engine.name().to_string();
        let Some(bg) = self.breakglass.iter_mut().find(|b| b.id.as_str() == id) else {
            return false;
        };
        match bg.activate(justification, now) {
            Ok(actions) => {
                let policy_id = bg.id.as_str().to_string();
                let event = AuditEvent::BreakGlass {
                    policy: policy_id.clone(),
                    active: true,
                    justification: justification.to_string(),
                };
                self.middleware.record_audit_event(event, now.as_millis());
                for action in actions {
                    let command = legaliot_policy::ReconfigurationCommand::new(
                        policy_id.clone(),
                        engine_name.clone(),
                        action,
                        now.as_millis(),
                    );
                    self.middleware.handle_control(&command, &snapshot, now);
                }
                true
            }
            Err(_) => false,
        }
    }

    /// Publishes a context value at the current simulated time.
    pub fn set_context(&mut self, key: impl Into<String>, value: impl Into<ContextValue>) {
        let now = self.now();
        self.context.set(key.into(), value, now);
    }

    /// Establishes a channel between two components (subject to AC + IFC).
    ///
    /// # Errors
    ///
    /// Propagates [`MiddlewareError`] for unknown components.
    pub fn connect(&mut self, from: &str, to: &str) -> Result<DeliveryOutcome, MiddlewareError> {
        let snapshot = self.context.snapshot();
        let now = self.now();
        self.middleware.establish_channel(from, to, &snapshot, now)
    }

    /// Sends a message between two components over an established channel.
    ///
    /// # Errors
    ///
    /// Propagates [`MiddlewareError`] for unknown components.
    pub fn send(
        &mut self,
        from: &str,
        to: &str,
        message: Message,
    ) -> Result<DeliveryOutcome, MiddlewareError> {
        let snapshot = self.context.snapshot();
        let now = self.now();
        let outcome = self.middleware.send(from, to, message, &snapshot, now)?;
        // Raise a flow-attempted policy event so obligations such as consent can react.
        let event = PolicyEvent::FlowAttempted {
            from: from.to_string(),
            to: to.to_string(),
            allowed: outcome.is_delivered(),
        };
        let engine_outcome = self.engine.evaluate(&event, &snapshot, now);
        self.apply_outcome_commands(&engine_outcome.commands);
        Ok(outcome)
    }

    /// Drains a component's mailbox.
    pub fn receive(&mut self, component: &str) -> Vec<Message> {
        self.middleware.receive(component)
    }

    /// Runs one policy-evaluation tick: drains context changes since the last tick,
    /// evaluates the engine for each, applies the resulting commands through the
    /// middleware, and expires any break-glass overrides whose time is up.
    pub fn tick(&mut self) -> TickReport {
        let now = self.now();
        let snapshot = self.context.snapshot();
        let changes = self.context.poll(self.engine_subscription);
        let mut events: Vec<PolicyEvent> = changes
            .iter()
            .map(|c| PolicyEvent::ContextChanged { key: c.key.name().to_string() })
            .collect();
        events.push(PolicyEvent::Tick);

        let mut report = TickReport::default();
        for event in &events {
            let outcome = self.engine.evaluate(event, &snapshot, now);
            report.rules_fired += outcome.fired.len();
            report.commands_issued += outcome.commands.len();
            let (applied, rejected) = self.apply_outcome_commands(&outcome.commands);
            report.controls_applied += applied;
            report.controls_rejected += rejected;
        }
        // Expire break-glass overrides.
        let mut expired = Vec::new();
        for b in self.breakglass.iter_mut() {
            if b.tick(now) {
                expired.push(b.id.as_str().to_string());
            }
        }
        for policy in expired {
            let event =
                AuditEvent::BreakGlass { policy, active: false, justification: "expired".into() };
            self.middleware.record_audit_event(event, now.as_millis());
        }
        report
    }

    fn apply_outcome_commands(
        &mut self,
        commands: &[legaliot_policy::ReconfigurationCommand],
    ) -> (usize, usize) {
        let snapshot = self.context.snapshot();
        let now = self.now();
        let mut applied = 0;
        let mut rejected = 0;
        for command in commands {
            let outcomes = self.middleware.handle_control(command, &snapshot, now);
            for o in outcomes {
                if o.is_applied() {
                    applied += 1;
                } else {
                    rejected += 1;
                }
            }
        }
        (applied, rejected)
    }

    /// The middleware's audit log.
    pub fn audit(&self) -> &AuditLog {
        self.middleware.audit()
    }

    /// Registers a tag in the global tag registry under the given owner.
    pub(crate) fn register_tag(&mut self, tag: Tag, description: &str, owner: &str) {
        let _ = self.middleware.tag_registry_mut().register(
            tag,
            description,
            TagScope::Global,
            false,
            owner,
        );
    }

    /// Records a data derivation as a `DataDerived` record in the audit trail at the
    /// current time (called by scenario code when a component processes data), where
    /// [`provenance`](Self::provenance) and the compliance checks read it.
    pub fn record_derivation(
        &mut self,
        output: &str,
        inputs: &[&str],
        process: &str,
        agent: &str,
        context: SecurityContext,
    ) {
        let event = AuditEvent::DataDerived {
            output: output.to_string(),
            inputs: inputs.iter().map(|i| i.to_string()).collect(),
            process: process.to_string(),
            agent: agent.to_string(),
            context,
        };
        let now = self.now();
        self.middleware.record_audit_event(event, now.as_millis());
    }

    /// Runs a compliance check of the given regulation over everything recorded so far.
    pub fn compliance_report(&self, regulation: &RegulationSet) -> ComplianceReport {
        let checker = ComplianceChecker::new(regulation.clone());
        checker.check(
            &[self.middleware.audit()],
            &self.provenance(),
            &self.component_regions,
            &self.consent_given,
            &self.notified_authorities,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legaliot_compliance::Obligation;
    use legaliot_ifc::can_flow;
    use legaliot_iot::{HomeMonitoringWorkload, ThingKind};
    use legaliot_policy::{Action, Condition, PolicyPriority, ReconfigurationCommand};

    fn basic_deployment() -> Deployment {
        let mut d = Deployment::new("test", "hospital-engine");
        let w = HomeMonitoringWorkload::fig7(1);
        for thing in w.things() {
            d.add_thing(&thing, "eu");
        }
        d
    }

    #[test]
    fn a_ticking_deployment_holds_no_change_after_each_tick() {
        let mut d = basic_deployment();
        for round in 0..5i64 {
            for key in 0..1_000 {
                d.set_context(format!("sensor.{key}"), round * 1_000 + key);
            }
            assert_eq!(d.context().history().len(), 1_000, "round {round}: unpolled");
            d.tick();
            assert!(d.context().history().is_empty(), "round {round}: the tick polled all");
        }
        assert_eq!(d.context().version(), 5_000);
    }

    #[test]
    fn add_things_registers_components_with_regions() {
        let d = basic_deployment();
        assert_eq!(d.middleware().registry().len(), 8);
        assert!(d.middleware().registry().get("ann-sensor").is_some());
        assert_eq!(d.name(), "test");
    }

    #[test]
    fn connect_and_send_respect_ifc() {
        let mut d = basic_deployment();
        assert!(d.connect("ann-sensor", "ann-analyser").unwrap().is_delivered());
        assert!(matches!(
            d.connect("zeb-sensor", "ann-analyser").unwrap(),
            DeliveryOutcome::DeniedByIfc(_)
        ));
        let msg = Message::new("sensor-reading", SecurityContext::public());
        assert!(d.send("ann-sensor", "ann-analyser", msg).unwrap().is_delivered());
        assert_eq!(d.receive("ann-analyser").len(), 1);
        // Audit captured channel attempts and the flow.
        assert!(d.audit().len() >= 3);
    }

    #[test]
    fn emergency_rule_fires_on_tick_and_reconfigures() {
        let mut d = basic_deployment();
        d.add_rule(
            PolicyRule::builder("emergency-response", "hospital-engine")
                .on_context_key("ann.emergency")
                .when(Condition::is_true("ann.emergency"))
                .then(Action::Connect {
                    from: "ann-analyser".into(),
                    to: "emergency-doctor".into(),
                })
                .then(Action::Notify { recipient: "emergency-doctor".into(), message: "go".into() })
                .then(Action::Actuate {
                    component: "ann-sensor".into(),
                    command: "sample-interval=1s".into(),
                })
                .priority(PolicyPriority::EMERGENCY)
                .build(),
        );
        d.advance(1_000);
        d.set_context("ann.emergency", true);
        let report = d.tick();
        assert_eq!(report.rules_fired, 1);
        assert_eq!(report.commands_issued, 3);
        assert_eq!(report.controls_applied, 2); // connect + actuate; notify is not a control
        assert!(d.middleware().has_open_channel("ann-analyser", "emergency-doctor"));
        assert_eq!(d.middleware().notifications().len(), 1);
        assert_eq!(d.middleware().actuations().len(), 1);
        // A second tick with no changes is quiet (the rule is keyed to the context change).
        let quiet = d.tick();
        assert_eq!(quiet.rules_fired, 0);
    }

    #[test]
    fn regulations_compile_into_engine_and_tag_registry() {
        let mut d = basic_deployment();
        let reg = RegulationSet::eu_style_data_protection("ann");
        let before = d.engine().rule_count();
        d.add_regulation(&reg);
        assert!(d.engine().rule_count() > before);
        assert!(d.middleware().tag_registry().contains(&Tag::new("personal")));
    }

    #[test]
    fn compliance_report_over_deployment_audit() {
        let mut d = basic_deployment();
        let reg = RegulationSet::eu_style_data_protection("ann");
        d.add_regulation(&reg);
        d.record_consent("ann");
        d.record_breach_notification("regulator");
        d.connect("ann-sensor", "ann-analyser").unwrap();
        d.send(
            "ann-sensor",
            "ann-analyser",
            Message::new("sensor-reading", SecurityContext::public()),
        )
        .unwrap();
        let report = d.compliance_report(&reg);
        assert!(report.evidence_intact);
        assert!(report.records_examined > 0);
        // The only flows were consented, in-region, non-analytics: compliant.
        assert!(report.is_compliant(), "violations: {:?}", report.violations);
    }

    #[test]
    fn breakglass_activation_applies_emergency_actions() {
        let mut d = basic_deployment();
        d.add_breakglass(
            BreakGlass::new("emergency-access", "hospital-engine", 60_000).with_emergency_action(
                Action::Connect { from: "ann-analyser".into(), to: "emergency-doctor".into() },
            ),
        );
        assert!(!d.activate_breakglass("unknown", "x"));
        assert!(!d.activate_breakglass("emergency-access", "  "));
        assert!(d.activate_breakglass("emergency-access", "cardiac arrest"));
        assert!(d.middleware().has_open_channel("ann-analyser", "emergency-doctor"));
        // Double activation while active fails.
        assert!(!d.activate_breakglass("emergency-access", "again"));
        // After expiry (advance past duration and tick), it can be re-activated.
        d.advance(61_000);
        d.tick();
        assert!(d.activate_breakglass("emergency-access", "second emergency"));
    }

    #[test]
    fn provenance_recording_and_liability() {
        let mut d = basic_deployment();
        let ctx = SecurityContext::from_names(["medical", "ann", "personal"], Vec::<&str>::new());
        d.record_derivation("ann-reading-1", &[], "ann-sensor", "ann", ctx.clone());
        d.record_derivation("ann-analysis-1", &["ann-reading-1"], "ann-analyser", "hospital", ctx);
        assert_eq!(d.provenance().node_count(), 6);
        let liability = ComplianceChecker::liability(&d.provenance(), "ann-reading-1");
        assert!(liability.responsible_agents.contains(&"hospital".to_string()));
    }

    #[test]
    fn a_retention_limit_fires_from_the_trail_until_the_store_is_purged() {
        let mut d = basic_deployment();
        let store = "ann-analyser";
        let reg = RegulationSet::new("retention", "regulator")
            .with(Obligation::Retention { store: store.into(), retention_millis: 1_000 });
        let ctx = SecurityContext::from_names(["medical", "ann"], Vec::<&str>::new());
        let ctx_2 = ctx.clone();
        d.record_derivation("ann-analysis-1", &["ann-reading-1"], store, "hospital", ctx);
        d.advance(5_000);
        d.connect("ann-sensor", store).unwrap();
        let report = d.compliance_report(&reg);
        assert_eq!(report.violations.len(), 1, "violations: {:?}", report.violations);
        assert!(report.violations[0].involved.contains(&"ann-analysis-1".to_string()));

        // A purge under the engine's authority, which `add_thing` authorised, clears it.
        let purge = ReconfigurationCommand::new(
            "retention-purge",
            d.engine().name(),
            Action::Actuate { component: store.into(), command: "purge".into() },
            d.now().as_millis(),
        );
        let (snapshot, now) = (d.context().snapshot(), d.now());
        let outcomes = d.middleware_mut().handle_control(&purge, &snapshot, now);
        assert!(outcomes.iter().all(|o| o.is_applied()), "{outcomes:?}");
        let report = d.compliance_report(&reg);
        // The purge came 4 s after the limit lapsed: the breach stands.
        assert_eq!(report.violations.len(), 1, "violations: {:?}", report.violations);
        assert!(report.violations[0].involved.contains(&"ann-analysis-1".to_string()));

        // A second derivation, purged within its limit, is not reported, though the
        // trail runs on well past that limit.
        d.advance(100);
        d.record_derivation("ann-analysis-2", &["ann-reading-2"], store, "hospital", ctx_2);
        d.advance(500);
        let purge = ReconfigurationCommand::new(
            "retention-purge-2",
            d.engine().name(),
            Action::Actuate { component: store.into(), command: "purge".into() },
            d.now().as_millis(),
        );
        let (snapshot, now) = (d.context().snapshot(), d.now());
        let outcomes = d.middleware_mut().handle_control(&purge, &snapshot, now);
        assert!(outcomes.iter().all(|o| o.is_applied()), "{outcomes:?}");
        d.advance(5_000);
        d.connect("ann-sensor", store).unwrap();
        let report = d.compliance_report(&reg);
        let reported: Vec<_> = report.violations.iter().map(|v| &v.involved).collect();
        assert_eq!(reported.len(), 1, "violations: {:?}", report.violations);
        assert!(reported[0].contains(&"ann-analysis-1".to_string()), "{reported:?}");
    }

    #[test]
    fn workload_things_flow_as_in_fig4() {
        let w = HomeMonitoringWorkload::fig7(1);
        let things = w.things();
        let ann_sensor = things.iter().find(|t| t.name == "ann-sensor").unwrap();
        let ward_manager = things.iter().find(|t| t.name == "ward-manager").unwrap();
        assert_eq!(ann_sensor.kind, ThingKind::Sensor);
        // Raw patient data cannot reach the ward manager without declassification.
        assert!(can_flow(&ann_sensor.context, &ward_manager.context).is_denied());
    }
}
