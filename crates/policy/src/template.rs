//! Policy authoring templates.
//!
//! Challenge 2 calls for "suitable, intuitive means for IFC tags, privileges and
//! reconfiguration policy to be expressed, so that obligations can be captured and
//! adhered to. Work concerning policy authoring interfaces and templates can be
//! relevant." A [`PolicyTemplate`] is a parameterised recipe that expands a commonly
//! needed legal or operational obligation into concrete [`PolicyRule`]s (and, where
//! relevant, the IFC tags the middleware must apply).

use legaliot_ifc::Tag;

use crate::action::Action;
use crate::condition::Condition;
use crate::eca::{PolicyPriority, PolicyRule};

/// A parameterised policy recipe that expands into concrete rules.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyTemplate {
    /// Data tagged with `data_tag` may only be handled by components inside `region`
    /// (e.g. "personal data must not leave the EU", §9.3 Challenge 1).
    GeoFence {
        /// The secrecy tag identifying the protected data.
        data_tag: Tag,
        /// The region the data must stay within (a context-key convention:
        /// `<component>.in-<region>` must be true at the destination).
        region: String,
        /// The authority imposing the restriction (e.g. `eu-regulator`).
        authority: String,
    },
    /// Flows of data tagged `data_tag` require recorded consent from `subject`.
    ConsentRequired {
        /// The secrecy tag identifying the subject's data.
        data_tag: Tag,
        /// The data subject whose consent is needed.
        subject: String,
        /// The authority imposing the obligation.
        authority: String,
    },
    /// A worker may receive flows only while on shift (`<worker>.on-shift`).
    ShiftOnlyAccess {
        /// The worker (component / principal name).
        worker: String,
        /// The data source they access.
        source: String,
        /// The authority imposing the restriction.
        authority: String,
    },
    /// Data tagged `data_tag` must be routed through `anonymiser` before reaching
    /// `analytics` (anonymise-before-analytics, Fig. 6).
    AnonymiseBeforeAnalytics {
        /// The secrecy tag identifying the raw data.
        data_tag: Tag,
        /// The source of raw data.
        source: String,
        /// The approved anonymising component.
        anonymiser: String,
        /// The analytics consumer.
        analytics: String,
        /// The authority imposing the obligation.
        authority: String,
    },
    /// Data items older than `retention_millis` must be purged from `store`.
    Retention {
        /// The storage component.
        store: String,
        /// Maximum age in milliseconds of simulated time.
        retention_millis: u64,
        /// The authority imposing the obligation.
        authority: String,
    },
    /// When an emergency context key becomes true, connect the responders and raise
    /// sampling (the Fig. 7 pattern).
    EmergencyResponse {
        /// The context key signalling the emergency.
        emergency_key: String,
        /// The analyser holding the patient's data.
        analyser: String,
        /// The responder to connect.
        responder: String,
        /// The sensor to actuate.
        sensor: String,
        /// The authority defining the response.
        authority: String,
    },
}

impl PolicyTemplate {
    /// Expands the template into concrete policy rules.
    pub fn expand(&self) -> Vec<PolicyRule> {
        match self {
            PolicyTemplate::GeoFence { data_tag, region, authority } => vec![PolicyRule::builder(
                format!("geo-fence-{data_tag}-{region}"),
                authority.clone(),
            )
            .on_flow_attempt(false)
            .when(Condition::is_false(format!("destination.in-{region}")))
            .then(Action::DenyFlow { from: "*".into(), to: "*".into() })
            .priority(PolicyPriority::REGULATORY)
            .describe(format!(
                "data tagged `{data_tag}` must not flow to components outside {region}"
            ))
            .build()],
            PolicyTemplate::ConsentRequired { data_tag, subject, authority } => {
                vec![PolicyRule::builder(
                    format!("consent-{subject}-{data_tag}"),
                    authority.clone(),
                )
                .on_flow_attempt(false)
                .when(Condition::is_false(format!("{subject}.consent-given")))
                .then(Action::DenyFlow { from: "*".into(), to: "*".into() })
                .priority(PolicyPriority::REGULATORY)
                .describe(format!("flows of `{data_tag}` require recorded consent from {subject}"))
                .build()]
            }
            PolicyTemplate::ShiftOnlyAccess { worker, source, authority } => vec![
                PolicyRule::builder(format!("shift-only-{worker}"), authority.clone())
                    .on_context_key(format!("{worker}.on-shift"))
                    .when(Condition::is_false(format!("{worker}.on-shift")))
                    .then(Action::Disconnect { from: source.clone(), to: worker.clone() })
                    .describe(format!("{worker} may access {source} only while on shift"))
                    .build(),
                PolicyRule::builder(format!("shift-reconnect-{worker}"), authority.clone())
                    .on_context_key(format!("{worker}.on-shift"))
                    .when(Condition::is_true(format!("{worker}.on-shift")))
                    .then(Action::Connect { from: source.clone(), to: worker.clone() })
                    .describe(format!("{worker} regains access to {source} when on shift"))
                    .build(),
            ],
            PolicyTemplate::AnonymiseBeforeAnalytics {
                data_tag,
                source,
                anonymiser,
                analytics,
                authority,
            } => vec![PolicyRule::builder(
                format!("anonymise-before-analytics-{data_tag}"),
                authority.clone(),
            )
            .on_component_joined()
            .then(Action::RouteVia {
                from: source.clone(),
                via: anonymiser.clone(),
                to: analytics.clone(),
            })
            .then(Action::DenyFlow { from: source.clone(), to: analytics.clone() })
            .priority(PolicyPriority::REGULATORY)
            .describe(format!(
                "`{data_tag}` data must pass through {anonymiser} before {analytics}"
            ))
            .build()],
            PolicyTemplate::Retention { store, retention_millis, authority } => {
                vec![PolicyRule::builder(format!("retention-{store}"), authority.clone())
                    .on_tick()
                    .when(Condition::NumberAtLeast {
                        key: format!("{store}.oldest-item-age").into(),
                        threshold: *retention_millis as f64,
                    })
                    .then(Action::Actuate {
                        component: store.clone(),
                        command: format!("purge-older-than={retention_millis}"),
                    })
                    .priority(PolicyPriority::REGULATORY)
                    .describe(format!("{store} must purge items older than {retention_millis}ms"))
                    .build()]
            }
            PolicyTemplate::EmergencyResponse {
                emergency_key,
                analyser,
                responder,
                sensor,
                authority,
            } => vec![
                PolicyRule::builder(format!("emergency-response-{analyser}"), authority.clone())
                    .on_context_key(emergency_key.clone())
                    .when(Condition::is_true(emergency_key.clone()))
                    .then(Action::Notify {
                        recipient: responder.clone(),
                        message: format!("emergency detected by {analyser}"),
                    })
                    .then(Action::Connect { from: analyser.clone(), to: responder.clone() })
                    .then(Action::Actuate {
                        component: sensor.clone(),
                        command: "sample-interval=1s".into(),
                    })
                    .priority(PolicyPriority::EMERGENCY)
                    .describe("emergency response: alert, connect responders, raise sampling")
                    .build(),
                PolicyRule::builder(format!("emergency-standdown-{analyser}"), authority.clone())
                    .on_context_key(emergency_key.clone())
                    .when(Condition::is_false(emergency_key.clone()))
                    .then(Action::Disconnect { from: analyser.clone(), to: responder.clone() })
                    .then(Action::Actuate {
                        component: sensor.clone(),
                        command: "sample-interval=60s".into(),
                    })
                    .describe("stand down once the emergency clears")
                    .build(),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eca::PolicyEvent;
    use crate::engine::PolicyEngine;
    use legaliot_context::{ContextSnapshot, Timestamp};

    #[test]
    fn geo_fence_expands_to_regulatory_deny() {
        let rules = PolicyTemplate::GeoFence {
            data_tag: Tag::new("personal"),
            region: "eu".into(),
            authority: "eu-regulator".into(),
        }
        .expand();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].priority, PolicyPriority::REGULATORY);
        assert!(rules[0].description.contains("eu"));
    }

    #[test]
    fn consent_rule_fires_without_consent() {
        let rules = PolicyTemplate::ConsentRequired {
            data_tag: Tag::new("medical"),
            subject: "ann".into(),
            authority: "hospital".into(),
        }
        .expand();
        let mut engine = PolicyEngine::new("e");
        for r in rules {
            engine.add_rule(r);
        }
        let event = PolicyEvent::FlowAttempted {
            from: "sensor".into(),
            to: "analyser".into(),
            allowed: true,
        };
        // No consent recorded: rule fires and denies.
        let outcome = engine.evaluate(&event, &ContextSnapshot::default(), Timestamp::ZERO);
        assert_eq!(outcome.fired.len(), 1);
        // With consent recorded: quiescent.
        let snap = ContextSnapshot::from_pairs([("ann.consent-given", true)]);
        let outcome = engine.evaluate(&event, &snap, Timestamp::ZERO);
        assert!(outcome.fired.is_empty());
    }

    #[test]
    fn shift_only_produces_connect_and_disconnect_rules() {
        let rules = PolicyTemplate::ShiftOnlyAccess {
            worker: "nurse".into(),
            source: "ann-analyser".into(),
            authority: "hospital".into(),
        }
        .expand();
        assert_eq!(rules.len(), 2);
        let mut engine = PolicyEngine::new("e");
        for r in rules {
            engine.add_rule(r);
        }
        let event = PolicyEvent::ContextChanged { key: "nurse.on-shift".into() };
        let off = ContextSnapshot::from_pairs([("nurse.on-shift", false)]);
        let outcome = engine.evaluate(&event, &off, Timestamp::ZERO);
        assert_eq!(outcome.commands.len(), 1);
        assert!(matches!(outcome.commands[0].action, Action::Disconnect { .. }));
        let on = ContextSnapshot::from_pairs([("nurse.on-shift", true)]);
        let outcome = engine.evaluate(&event, &on, Timestamp::ZERO);
        assert!(matches!(outcome.commands[0].action, Action::Connect { .. }));
    }

    #[test]
    fn anonymise_template_routes_via_anonymiser() {
        let rules = PolicyTemplate::AnonymiseBeforeAnalytics {
            data_tag: Tag::new("medical"),
            source: "patient-records".into(),
            anonymiser: "stats-generator".into(),
            analytics: "ward-manager".into(),
            authority: "hospital".into(),
        }
        .expand();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].actions.len(), 2);
        assert!(matches!(rules[0].actions[0], Action::RouteVia { .. }));
    }

    #[test]
    fn retention_rule_fires_when_store_has_old_items() {
        let rules = PolicyTemplate::Retention {
            store: "archive".into(),
            retention_millis: 1_000,
            authority: "dpo".into(),
        }
        .expand();
        let mut engine = PolicyEngine::new("e");
        for r in rules {
            engine.add_rule(r);
        }
        let fresh = ContextSnapshot::from_pairs([("archive.oldest-item-age", 500i64)]);
        assert!(engine.evaluate(&PolicyEvent::Tick, &fresh, Timestamp::ZERO).fired.is_empty());
        let stale = ContextSnapshot::from_pairs([("archive.oldest-item-age", 5_000i64)]);
        let outcome = engine.evaluate(&PolicyEvent::Tick, &stale, Timestamp::ZERO);
        assert_eq!(outcome.commands.len(), 1);
        assert!(matches!(outcome.commands[0].action, Action::Actuate { .. }));
    }

    #[test]
    fn emergency_response_template_matches_fig7() {
        let rules = PolicyTemplate::EmergencyResponse {
            emergency_key: "ann.emergency".into(),
            analyser: "ann-analyser".into(),
            responder: "emergency-doctor".into(),
            sensor: "ann-sensor".into(),
            authority: "hospital".into(),
        }
        .expand();
        assert_eq!(rules.len(), 2);
        let mut engine = PolicyEngine::new("e");
        for r in rules {
            engine.add_rule(r);
        }
        let event = PolicyEvent::ContextChanged { key: "ann.emergency".into() };
        let emergency = ContextSnapshot::from_pairs([("ann.emergency", true)]);
        let outcome = engine.evaluate(&event, &emergency, Timestamp(100));
        assert_eq!(outcome.fired.len(), 1);
        assert_eq!(outcome.commands.len(), 3);
        let over = ContextSnapshot::from_pairs([("ann.emergency", false)]);
        let outcome = engine.evaluate(&event, &over, Timestamp(200));
        assert_eq!(outcome.commands.len(), 2);
        assert!(matches!(outcome.commands[0].action, Action::Disconnect { .. }));
    }
}
