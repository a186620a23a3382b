//! Compliance checking over audit evidence, and liability apportionment.

use std::collections::BTreeSet;
use std::fmt;

use legaliot_audit::{AuditEvent, AuditLog, AuditRecord, NodeKind, ProvenanceGraph};

use crate::regulation::{Obligation, RegulationSet};

/// A detected violation of an obligation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The obligation violated (its stable id).
    pub obligation: String,
    /// Human-readable description of what happened.
    pub description: String,
    /// The audit record (timestamp in ms) that evidences the violation, if applicable.
    pub evidence_at_millis: Option<u64>,
    /// Entities involved.
    pub involved: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.obligation, self.description)
    }
}

/// The result of a compliance check.
#[derive(Debug, Clone, PartialEq)]
pub struct ComplianceReport {
    /// The regulation checked.
    pub regulation: String,
    /// Violations found (empty means demonstrably compliant w.r.t. the evidence).
    pub violations: Vec<Violation>,
    /// Number of audit records examined.
    pub records_examined: usize,
    /// Number of obligations checked.
    pub obligations_checked: usize,
    /// Whether the audit chains backing the evidence verified as tamper-free.
    pub evidence_intact: bool,
}

impl ComplianceReport {
    /// Whether no violations were found and the evidence is intact.
    pub fn is_compliant(&self) -> bool {
        self.violations.is_empty() && self.evidence_intact
    }
}

/// Apportionment of responsibility for a violation, derived from the provenance graph.
#[derive(Debug, Clone, PartialEq)]
pub struct LiabilityReport {
    /// The data item at the centre of the investigation.
    pub data_item: String,
    /// Agents that controlled processes which touched the item (or its derivatives),
    /// in deterministic order — the candidates amongst whom liability is apportioned.
    pub responsible_agents: Vec<String>,
    /// Processes that handled the item or its derivatives.
    pub involved_processes: Vec<String>,
}

/// Checks obligations against audit evidence (merged per-node logs + provenance graph).
#[derive(Debug, Clone)]
pub struct ComplianceChecker {
    regulation: RegulationSet,
}

impl ComplianceChecker {
    /// Creates a checker for the given regulation set.
    pub fn new(regulation: RegulationSet) -> Self {
        ComplianceChecker { regulation }
    }

    /// The regulation being checked.
    pub fn regulation(&self) -> &RegulationSet {
        &self.regulation
    }

    /// Runs every obligation's check against the supplied logs and provenance graph.
    ///
    /// `component_regions` maps component names to the region they are located in
    /// (derived from node domains / attested locations) for residency checks.
    /// `consent_given` lists subjects whose consent is recorded.
    /// `notified_authorities` lists authorities that received breach notifications.
    pub fn check(
        &self,
        logs: &[&AuditLog],
        provenance: &ProvenanceGraph,
        component_regions: &[(String, String)],
        consent_given: &[String],
        notified_authorities: &[String],
    ) -> ComplianceReport {
        let timeline = AuditLog::merged_timeline(logs.iter().copied());
        let evidence_intact = logs.iter().all(|l| l.verify_chain().is_intact());
        let mut violations = Vec::new();
        for obligation in &self.regulation.obligations {
            violations.extend(self.check_obligation(
                obligation,
                &timeline,
                provenance,
                component_regions,
                consent_given,
                notified_authorities,
            ));
        }
        ComplianceReport {
            regulation: self.regulation.name.clone(),
            violations,
            records_examined: timeline.len(),
            obligations_checked: self.regulation.obligations.len(),
            evidence_intact,
        }
    }

    fn check_obligation(
        &self,
        obligation: &Obligation,
        timeline: &[AuditRecord],
        provenance: &ProvenanceGraph,
        component_regions: &[(String, String)],
        consent_given: &[String],
        notified_authorities: &[String],
    ) -> Vec<Violation> {
        match obligation {
            Obligation::ConsentRequired { data_tag, subject } => {
                if consent_given.iter().any(|s| s == subject) {
                    return Vec::new();
                }
                // Without consent, any *allowed* flow of the tagged data is a violation.
                timeline
                    .iter()
                    .filter_map(|r| match &r.event {
                        AuditEvent::FlowChecked {
                            source,
                            destination,
                            source_context,
                            decision,
                            ..
                        } if decision.is_allowed()
                            && source_context.secrecy().contains(data_tag) =>
                        {
                            Some(Violation {
                                obligation: obligation.id(),
                                description: format!(
                                    "flow {source} -> {destination} processed `{data_tag}` data without {subject}'s consent"
                                ),
                                evidence_at_millis: Some(r.at_millis),
                                involved: vec![source.clone(), destination.clone()],
                            })
                        }
                        _ => None,
                    })
                    .collect()
            }
            Obligation::GeoResidency { data_tag, region } => {
                let outside: BTreeSet<&str> = component_regions
                    .iter()
                    .filter(|(_, r)| r != region)
                    .map(|(c, _)| c.as_str())
                    .collect();
                timeline
                    .iter()
                    .filter_map(|r| match &r.event {
                        AuditEvent::FlowChecked {
                            source,
                            destination,
                            source_context,
                            decision,
                            ..
                        } if decision.is_allowed()
                            && source_context.secrecy().contains(data_tag)
                            && outside.contains(destination.as_str()) =>
                        {
                            Some(Violation {
                                obligation: obligation.id(),
                                description: format!(
                                    "`{data_tag}` data flowed to {destination}, which is outside {region}"
                                ),
                                evidence_at_millis: Some(r.at_millis),
                                involved: vec![source.clone(), destination.clone()],
                            })
                        }
                        _ => None,
                    })
                    .collect()
            }
            Obligation::AnonymiseBeforeAnalytics { data_tag, anonymiser, analytics, .. } => {
                // Any data item tagged with the protected tag whose taint set reaches
                // the analytics consumer without the anonymiser appearing in it is a
                // violation.
                let mut violations = Vec::new();
                for item in provenance.items_with_secrecy_tag(data_tag) {
                    let taint = provenance.taint(&item.name);
                    let names: BTreeSet<&str> = taint.iter().map(|n| n.name.as_str()).collect();
                    if names.contains(analytics.as_str()) && !names.contains(anonymiser.as_str()) {
                        violations.push(Violation {
                            obligation: obligation.id(),
                            description: format!(
                                "`{}` reached {analytics} without passing through {anonymiser}",
                                item.name
                            ),
                            evidence_at_millis: None,
                            involved: vec![item.name.clone(), analytics.clone()],
                        });
                    }
                }
                violations
            }
            Obligation::Retention { store, retention_millis } => {
                // Evidence comes from DataDerived events at the store: an item recorded
                // at time t must be purged (an accepted purge actuation of the store) in
                // (t, t + retention]. The horizon is the trail's last record, not the
                // time of the report: an item whose limit lapses after the last record
                // is not yet judged. A purge after the limit does not clear a breach the
                // trail already shows.
                let horizon = timeline.last().map(|r| r.at_millis).unwrap_or(0);
                let purges: Vec<u64> = timeline
                    .iter()
                    .filter_map(|r| match &r.event {
                        AuditEvent::Reconfigured { component, action, accepted, .. }
                            if component == store && *accepted && action.contains("purge") =>
                        {
                            Some(r.at_millis)
                        }
                        _ => None,
                    })
                    .collect();
                timeline
                    .iter()
                    .filter_map(|r| match &r.event {
                        AuditEvent::DataDerived { output, process, .. }
                            if process == store
                                && horizon.saturating_sub(r.at_millis) > *retention_millis
                                && !purges.iter().any(|p| {
                                    *p > r.at_millis && *p - r.at_millis <= *retention_millis
                                }) =>
                        {
                            Some(Violation {
                                obligation: obligation.id(),
                                description: format!(
                                    "item `{output}` stored by {store} at {}ms exceeded the {retention_millis}ms retention limit without a purge",
                                    r.at_millis
                                ),
                                evidence_at_millis: Some(r.at_millis),
                                involved: vec![output.clone(), store.clone()],
                            })
                        }
                        _ => None,
                    })
                    .collect()
            }
            Obligation::BreachNotification { data_tag, authority } => {
                let breaches: Vec<&AuditRecord> = timeline
                    .iter()
                    .filter(|r| match &r.event {
                        AuditEvent::FlowChecked { source_context, decision, .. } => {
                            decision.is_denied() && source_context.secrecy().contains(data_tag)
                        }
                        _ => false,
                    })
                    .collect();
                if breaches.is_empty() || notified_authorities.iter().any(|a| a == authority) {
                    Vec::new()
                } else {
                    vec![Violation {
                        obligation: obligation.id(),
                        description: format!(
                            "{} attempted disclosures of `{data_tag}` data were recorded but {authority} was not notified",
                            breaches.len()
                        ),
                        evidence_at_millis: breaches.first().map(|r| r.at_millis),
                        involved: breaches
                            .iter()
                            .flat_map(|r| r.event.entities())
                            .map(str::to_string)
                            .collect(),
                    }]
                }
            }
        }
    }

    /// Builds a liability report for a data item from the provenance graph: the agents
    /// controlling every process that touched the item or anything derived from it.
    pub fn liability(provenance: &ProvenanceGraph, data_item: &str) -> LiabilityReport {
        let agents =
            provenance.responsible_agents(data_item).into_iter().map(|n| n.name.clone()).collect();
        let processes = provenance
            .taint(data_item)
            .into_iter()
            .filter(|n| n.kind == NodeKind::Process)
            .map(|n| n.name.clone())
            .collect();
        LiabilityReport {
            data_item: data_item.to_string(),
            responsible_agents: agents,
            involved_processes: processes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legaliot_audit::codec;
    use legaliot_ifc::{can_flow, SecurityContext};

    fn personal_ctx() -> SecurityContext {
        SecurityContext::from_names(["personal", "medical"], ["consent"])
    }

    fn log_with_flow(allowed: bool, destination: &str) -> AuditLog {
        let mut log = AuditLog::new("node");
        let src = personal_ctx();
        let dst = if allowed { personal_ctx() } else { SecurityContext::public() };
        log.record(
            AuditEvent::FlowChecked {
                source: "patient-records".into(),
                destination: destination.into(),
                source_context: src.clone(),
                destination_context: dst.clone(),
                decision: can_flow(&src, &dst),
                data_item: Some("record-1".into()),
            },
            100,
        );
        log
    }

    fn checker() -> ComplianceChecker {
        ComplianceChecker::new(RegulationSet::eu_style_data_protection("ann"))
    }

    #[test]
    fn consent_violation_detected_and_cleared_by_consent() {
        let log = log_with_flow(true, "analyser");
        let graph = ProvenanceGraph::new();
        let regions = vec![("analyser".to_string(), "eu".to_string())];
        let report = checker().check(&[&log], &graph, &regions, &[], &[]);
        assert!(!report.is_compliant());
        assert!(report.violations.iter().any(|v| v.obligation.starts_with("consent:ann")));
        // With consent recorded, the consent obligation is satisfied.
        let report = checker().check(&[&log], &graph, &regions, &["ann".to_string()], &[]);
        assert!(!report.violations.iter().any(|v| v.obligation.starts_with("consent:ann")));
        assert_eq!(report.obligations_checked, 5);
        assert_eq!(report.records_examined, 1);
        assert!(report.evidence_intact);
    }

    #[test]
    fn geo_residency_violation_detected() {
        let log = log_with_flow(true, "us-analytics");
        let graph = ProvenanceGraph::new();
        let regions = vec![("us-analytics".to_string(), "us".to_string())];
        let report = checker().check(&[&log], &graph, &regions, &["ann".to_string()], &[]);
        assert!(report.violations.iter().any(|v| v.obligation.starts_with("geo:")));
        // Same flow to an EU-located component is fine.
        let regions = vec![("us-analytics".to_string(), "eu".to_string())];
        let report = checker().check(&[&log], &graph, &regions, &["ann".to_string()], &[]);
        assert!(!report.violations.iter().any(|v| v.obligation.starts_with("geo:")));
    }

    #[test]
    fn anonymise_before_analytics_checked_on_provenance() {
        let mut bad = ProvenanceGraph::new();
        // Raw personal data reaches the ward manager directly.
        bad.record_derivation("raw-1", &[], "patient-records", "hospital", personal_ctx(), 1);
        bad.record_derivation("report", &["raw-1"], "ward-manager", "hospital", personal_ctx(), 2);
        let log = AuditLog::new("node");
        let report = checker().check(&[&log], &bad, &[], &["ann".to_string()], &[]);
        assert!(report
            .violations
            .iter()
            .any(|v| v.obligation.starts_with("anon-before-analytics")));

        let mut good = ProvenanceGraph::new();
        good.record_derivation("raw-1", &[], "patient-records", "hospital", personal_ctx(), 1);
        good.record_derivation(
            "anon-1",
            &["raw-1"],
            "stats-generator",
            "hospital",
            SecurityContext::public(),
            2,
        );
        good.record_derivation(
            "report",
            &["anon-1"],
            "ward-manager",
            "hospital",
            SecurityContext::public(),
            3,
        );
        let report = checker().check(&[&log], &good, &[], &["ann".to_string()], &[]);
        assert!(!report
            .violations
            .iter()
            .any(|v| v.obligation.starts_with("anon-before-analytics")));
    }

    #[test]
    fn breach_notification_required_after_denied_flows() {
        let log = log_with_flow(false, "advertiser");
        let graph = ProvenanceGraph::new();
        let report = checker().check(&[&log], &graph, &[], &["ann".to_string()], &[]);
        assert!(report.violations.iter().any(|v| v.obligation.starts_with("breach-notify")));
        let report =
            checker().check(&[&log], &graph, &[], &["ann".to_string()], &["regulator".to_string()]);
        assert!(!report.violations.iter().any(|v| v.obligation.starts_with("breach-notify")));
    }

    #[test]
    fn retention_violation_detected() {
        let mut log = AuditLog::new("node");
        log.record(
            AuditEvent::DataDerived {
                output: "old-record".into(),
                inputs: vec![],
                process: "archive".into(),
                agent: "hospital".into(),
                context: personal_ctx(),
            },
            0,
        );
        // A much later record moves the horizon far past the retention window.
        log.record(
            AuditEvent::PolicyFired { policy: "tick".into(), trigger: "tick".into(), actions: 0 },
            100 * 24 * 3600 * 1000,
        );
        let graph = ProvenanceGraph::new();
        let report =
            checker().check(&[&log], &graph, &[], &["ann".to_string()], &["regulator".into()]);
        assert!(report.violations.iter().any(|v| v.obligation.starts_with("retention")));
    }

    /// A purge clears an item only within its limit: an item purged in time is not
    /// reported, and one purged after its limit lapsed is, the late purge
    /// notwithstanding.
    #[test]
    fn a_purge_after_the_retention_limit_does_not_clear_the_breach() {
        let retention = Obligation::Retention { store: "archive".into(), retention_millis: 1_000 };
        let reg = RegulationSet::new("retention", "regulator").with(retention);
        let mut log = AuditLog::new("node");
        let stored = |output: &str| AuditEvent::DataDerived {
            output: output.into(),
            inputs: vec![],
            process: "archive".into(),
            agent: "hospital".into(),
            context: personal_ctx(),
        };
        let purge = || AuditEvent::Reconfigured {
            component: "archive".into(),
            issued_by: "engine".into(),
            action: "actuate archive: purge".into(),
            accepted: true,
        };
        log.record(stored("timely"), 0);
        log.record(purge(), 1_000);
        log.record(stored("late"), 2_000);
        log.record(purge(), 3_500);
        log.record(
            AuditEvent::PolicyFired { policy: "tick".into(), trigger: "tick".into(), actions: 0 },
            10_000,
        );
        let report =
            ComplianceChecker::new(reg).check(&[&log], &ProvenanceGraph::new(), &[], &[], &[]);
        let reported: Vec<&str> =
            report.violations.iter().map(|v| v.involved[0].as_str()).collect();
        assert_eq!(reported, ["late"], "violations: {:?}", report.violations);
    }

    #[test]
    fn tampered_evidence_is_flagged() {
        let log = log_with_flow(true, "analyser");
        // AuditLog exposes no mutation of past records (by design); model an attacker
        // rewriting the encoded log at rest instead.
        let mut records: Vec<AuditRecord> = log
            .records()
            .iter()
            .map(|record| {
                let mut bytes = Vec::new();
                codec::encode_record(record, &mut bytes);
                codec::decode_record(&bytes).expect("a canonical encoding decodes")
            })
            .collect();
        assert!(AuditLog::verify_records(log.anchor_hash(), &records).is_intact());
        records[0].at_millis = 999_999;
        let tampered = AuditLog::from_records(log.authority(), log.anchor_hash(), records);
        let graph = ProvenanceGraph::new();
        let report =
            checker().check(&[&tampered], &graph, &[], &["ann".to_string()], &["regulator".into()]);
        assert!(!report.evidence_intact);
        assert!(!report.is_compliant());
    }

    #[test]
    fn liability_report_names_agents_and_processes() {
        let mut graph = ProvenanceGraph::new();
        graph.record_derivation("raw-1", &[], "patient-records", "hospital", personal_ctx(), 1);
        graph.record_derivation(
            "leak",
            &["raw-1"],
            "exporter",
            "cloud-provider",
            personal_ctx(),
            2,
        );
        let report = ComplianceChecker::liability(&graph, "raw-1");
        assert_eq!(report.data_item, "raw-1");
        assert!(report.responsible_agents.contains(&"hospital".to_string()));
        assert!(report.responsible_agents.contains(&"cloud-provider".to_string()));
        assert!(report.involved_processes.contains(&"exporter".to_string()));
    }

    #[test]
    fn display_and_report_helpers() {
        let v = Violation {
            obligation: "geo:personal:eu".into(),
            description: "left the eu".into(),
            evidence_at_millis: Some(1),
            involved: vec![],
        };
        assert!(v.to_string().contains("geo:personal:eu"));
        let report = ComplianceReport {
            regulation: "r".into(),
            violations: vec![],
            records_examined: 0,
            obligations_checked: 0,
            evidence_intact: true,
        };
        assert!(report.is_compliant());
        assert_eq!(checker().regulation().name, "eu-data-protection");
    }
}
