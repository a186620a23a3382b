//! The paper's worked example as a runnable scenario (§7, Figs. 4–7).

use legaliot_compliance::{ComplianceReport, RegulationSet};
use legaliot_ifc::{SecurityContext, Tag};
use legaliot_iot::HomeMonitoringWorkload;
use legaliot_middleware::{DeliveryOutcome, Message};
use legaliot_policy::PolicyTemplate;

use crate::deployment::Deployment;

/// Aggregate results of a scenario run, printed by the examples and checked by the
/// integration tests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioOutcome {
    /// Readings delivered end-to-end to an analyser.
    pub delivered: usize,
    /// Readings denied by IFC (e.g. attempts to bypass the sanitiser).
    pub denied: usize,
    /// Emergencies detected and responded to.
    pub emergencies: usize,
    /// Notifications sent to principals.
    pub notifications: usize,
    /// Total audit records produced.
    pub audit_records: usize,
    /// The compliance report against the configured regulation.
    pub compliance: Option<ComplianceReport>,
}

/// The medical home-monitoring scenario: Ann (hospital device, direct path) and Zeb
/// (third-party device, sanitised path), hospital analysers, anonymised statistics for
/// the ward manager, and policy-driven emergency response.
#[derive(Debug)]
pub struct HomeMonitoringScenario {
    /// The underlying deployment (exposed so tests and examples can inspect it).
    pub deployment: Deployment,
    /// The generating workload; tests and examples may tune its parameters (e.g. the
    /// emergency probability) before calling [`HomeMonitoringScenario::run`].
    pub workload: HomeMonitoringWorkload,
    regulation: RegulationSet,
}

impl HomeMonitoringScenario {
    /// Builds the scenario: things registered, regulation and emergency policies loaded,
    /// consent recorded, and the static channels of Fig. 7 established.
    pub fn build(seed: u64) -> Self {
        let workload = HomeMonitoringWorkload::fig7(seed);
        let mut deployment = Deployment::new("home-monitoring", "hospital-engine");

        for thing in workload.things() {
            deployment.add_thing(&thing, "eu");
        }
        deployment.register_tag(Tag::new("medical"), "medical data", "hospital-engine");
        deployment.register_tag(Tag::new("hosp-dev"), "hospital-issued device", "hospital-engine");

        // Regulation: EU-style data protection over `personal` data.
        let regulation = RegulationSet::eu_style_data_protection("ann");
        deployment.add_regulation(&regulation);
        for patient in &workload.patients {
            if patient.consent {
                deployment.record_consent(patient.name.clone());
            }
        }

        // Emergency response policy per patient (Fig. 7).
        for patient in &workload.patients {
            for rule in (PolicyTemplate::EmergencyResponse {
                emergency_key: format!("{}.emergency", patient.name),
                analyser: format!("{}-analyser", patient.name),
                responder: "emergency-doctor".to_string(),
                sensor: format!("{}-sensor", patient.name),
                // Reconfigurations are issued on the authority of the deployment's
                // policy engine, which the per-component AC rules trust (Fig. 8).
                authority: "hospital-engine".to_string(),
            })
            .expand()
            {
                deployment.add_rule(rule);
            }
        }

        // Static channels: Ann direct; Zeb through the input sanitiser (Fig. 5); both
        // analysers feed the statistics generator.
        deployment.connect("ann-sensor", "ann-analyser").unwrap();
        deployment.connect("zeb-sensor", "input-sanitiser").unwrap();
        deployment.connect("ann-analyser", "stats-generator").unwrap();
        deployment.connect("zeb-analyser", "stats-generator").unwrap();

        HomeMonitoringScenario { deployment, workload, regulation }
    }

    /// The regulation governing the scenario.
    pub fn regulation(&self) -> &RegulationSet {
        &self.regulation
    }

    /// Demonstrates Fig. 4: Zeb's raw data cannot reach Ann's analyser, and cannot reach
    /// Zeb's own analyser without the sanitiser. Returns the two denial outcomes.
    pub fn demonstrate_illegal_flows(&mut self) -> (DeliveryOutcome, DeliveryOutcome) {
        let cross_patient =
            self.deployment.connect("zeb-sensor", "ann-analyser").expect("components exist");
        let unsanitised =
            self.deployment.connect("zeb-sensor", "zeb-analyser").expect("components exist");
        (cross_patient, unsanitised)
    }

    /// Runs the endorsement hop of Fig. 5: the sanitiser converts Zeb's data and — as a
    /// privileged endorser — is reconfigured into the hospital-standard context so its
    /// output can reach Zeb's analyser.
    pub fn run_sanitiser_endorsement(&mut self) {
        // Policy: the hospital engine re-labels the sanitiser's output context.
        let zeb = self
            .workload
            .patients
            .iter()
            .find(|p| !p.hospital_device)
            .expect("zeb present")
            .clone();
        let standard = HomeMonitoringWorkload::analyser_context(&zeb);
        self.set_security_context("sanitise-output", "input-sanitiser", standard);
        self.deployment.connect("input-sanitiser", "zeb-analyser").expect("components exist");
    }

    /// Runs the declassification of Fig. 6: the statistics generator aggregates patient
    /// data, is reconfigured into the anonymised/statistics context, and publishes to
    /// the ward manager.
    pub fn run_statistics_declassification(&mut self) -> DeliveryOutcome {
        // Record the aggregation in provenance: statistics derived from both analysers'
        // outputs by the stats generator, controlled by the hospital.
        let raw_ctx = SecurityContext::from_names(
            ["medical", "ann", "zeb", "personal"],
            ["hosp-dev", "consent"],
        );
        self.deployment.record_derivation(
            "ann-analysis",
            &["ann-reading"],
            "ann-analyser",
            "hospital",
            raw_ctx.clone(),
        );
        self.deployment.record_derivation(
            "zeb-analysis",
            &["zeb-reading"],
            "zeb-analyser",
            "hospital",
            raw_ctx.clone(),
        );
        self.deployment.record_derivation(
            "monthly-statistics",
            &["ann-analysis", "zeb-analysis"],
            "stats-generator",
            "hospital",
            SecurityContext::from_names(["medical", "stats"], ["anon"]),
        );

        // Before declassification the generator cannot reach the ward manager.
        let before =
            self.deployment.connect("stats-generator", "ward-manager").expect("components exist");
        assert!(matches!(before, DeliveryOutcome::DeniedByIfc(_)));

        // The hospital engine declassifies the generator (approved anonymisation).
        let anon_ctx = SecurityContext::from_names(["medical", "stats"], ["anon"]);
        self.set_security_context("anonymise-statistics", "stats-generator", anon_ctx);

        let outcome =
            self.deployment.connect("stats-generator", "ward-manager").expect("components exist");
        assert!(outcome.is_delivered());
        self.deployment
            .send(
                "stats-generator",
                "ward-manager",
                Message::new("statistics", SecurityContext::public()),
            )
            .expect("components exist")
    }

    /// The hospital engine's policy `policy` moves `component` into `context`: one
    /// `SetSecurityContext` command through the bus's control path.
    fn set_security_context(&mut self, policy: &str, component: &str, context: SecurityContext) {
        let now = self.deployment.now();
        let cmd = legaliot_policy::ReconfigurationCommand::new(
            policy,
            "hospital-engine",
            legaliot_policy::Action::SetSecurityContext { component: component.into(), context },
            now.as_millis(),
        );
        let snapshot = self.deployment.context().snapshot();
        self.deployment.middleware_mut().handle_control(&cmd, &snapshot, now);
    }

    /// Relays one third-party reading through the input sanitiser, modelling the
    /// alternating security contexts of Fig. 5: the sanitiser reads in the patient's
    /// device context, converts the data, is endorsed into the hospital-standard
    /// context, and forwards to the patient's analyser. Returns whether the converted
    /// reading reached the analyser.
    pub fn relay_third_party_reading(&mut self, patient: &str, heart_rate: i64) -> bool {
        let Some(p) = self.workload.patients.iter().find(|p| p.name == patient).cloned() else {
            return false;
        };
        let sensor = format!("{patient}-sensor");
        let analyser = format!("{patient}-analyser");

        // Phase 1: input context — receive the raw, non-standard reading.
        self.set_security_context(
            "sanitiser-context-switch",
            "input-sanitiser",
            HomeMonitoringWorkload::sensor_context(&p),
        );
        let _ = self.deployment.connect(&sensor, "input-sanitiser");
        let raw = Message::new("sensor-reading", SecurityContext::public())
            .with("value", legaliot_middleware::AttributeValue::Integer(heart_rate));
        let received = self
            .deployment
            .send(&sensor, "input-sanitiser", raw)
            .map(|o| o.is_delivered())
            .unwrap_or(false);
        if !received {
            return false;
        }
        let _ = self.deployment.receive("input-sanitiser");

        // Phase 2: endorsement — change context and forward the converted reading.
        self.set_security_context(
            "sanitiser-context-switch",
            "input-sanitiser",
            HomeMonitoringWorkload::analyser_context(&p),
        );
        let _ = self.deployment.connect("input-sanitiser", &analyser);
        let converted = Message::new("sensor-reading", SecurityContext::public())
            .with("value", legaliot_middleware::AttributeValue::Integer(heart_rate));
        self.deployment
            .send("input-sanitiser", &analyser, converted)
            .map(|o| o.is_delivered())
            .unwrap_or(false)
    }

    /// Runs `rounds` of readings through the deployment (Fig. 7), detecting emergencies
    /// and letting the policy engine respond, then produces the aggregate outcome
    /// including the compliance report.
    pub fn run(&mut self, rounds: usize) -> ScenarioOutcome {
        let mut outcome = ScenarioOutcome::default();
        let start = self.deployment.now().as_millis();
        let readings = self.workload.readings(rounds, start);
        for reading in readings {
            self.deployment.advance(10);
            self.deployment
                .set_context(format!("{}.heart-rate", reading.patient), reading.heart_rate as i64);

            // Route: hospital devices go straight to their analyser; third-party devices
            // are relayed through the input sanitiser (Fig. 5).
            let patient = self
                .workload
                .patients
                .iter()
                .find(|p| p.name == reading.patient)
                .expect("patient exists")
                .clone();
            let delivered = if patient.hospital_device {
                let message = Message::new("sensor-reading", SecurityContext::public()).with(
                    "value",
                    legaliot_middleware::AttributeValue::Integer(reading.heart_rate as i64),
                );
                match self.deployment.send(
                    &reading.sensor,
                    &format!("{}-analyser", patient.name),
                    message,
                ) {
                    Ok(outcome) => outcome.is_delivered(),
                    // A policy may have torn the channel down mid-run; count as denied.
                    Err(legaliot_middleware::MiddlewareError::ChannelClosed { .. }) => false,
                    Err(e) => panic!("components exist: {e}"),
                }
            } else {
                self.relay_third_party_reading(&patient.name, reading.heart_rate as i64)
            };
            if delivered {
                outcome.delivered += 1;
            } else {
                outcome.denied += 1;
            }

            if reading.is_emergency() {
                outcome.emergencies += 1;
                self.deployment.set_context(format!("{}.emergency", reading.patient), true);
            }
            self.deployment.tick();
        }
        outcome.notifications = self.deployment.middleware().notifications().len();
        outcome.audit_records = self.deployment.audit().len();
        outcome.compliance = Some(self.deployment.compliance_report(&self.regulation));
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn illegal_flows_are_prevented_fig4() {
        let mut scenario = HomeMonitoringScenario::build(1);
        let (cross, unsanitised) = scenario.demonstrate_illegal_flows();
        assert!(matches!(cross, DeliveryOutcome::DeniedByIfc(_)));
        assert!(matches!(unsanitised, DeliveryOutcome::DeniedByIfc(_)));
    }

    #[test]
    fn sanitiser_endorsement_enables_zebs_path_fig5() {
        let mut scenario = HomeMonitoringScenario::build(1);
        scenario.run_sanitiser_endorsement();
        assert!(scenario
            .deployment
            .middleware()
            .has_open_channel("input-sanitiser", "zeb-analyser"));
    }

    #[test]
    fn statistics_declassification_reaches_ward_manager_fig6() {
        let mut scenario = HomeMonitoringScenario::build(1);
        let outcome = scenario.run_statistics_declassification();
        assert!(outcome.is_delivered());
        assert_eq!(scenario.deployment.receive("ward-manager").len(), 1);
        // Provenance shows the statistics derive from both patients' analyses.
        let provenance = scenario.deployment.provenance();
        let ancestry = provenance.ancestry("monthly-statistics");
        assert!(ancestry.iter().any(|n| n.name == "ann-reading"));
        assert!(ancestry.iter().any(|n| n.name == "zeb-reading"));
    }

    #[test]
    fn emergency_rounds_trigger_response_fig7() {
        let mut scenario = HomeMonitoringScenario::build(7);
        scenario.run_sanitiser_endorsement();
        scenario.workload.emergency_probability = 1.0;
        let outcome = scenario.run(2);
        assert!(outcome.emergencies > 0);
        assert!(outcome.delivered > 0);
        // The emergency doctor was connected and notified.
        assert!(scenario
            .deployment
            .middleware()
            .has_open_channel("ann-analyser", "emergency-doctor"));
        assert!(outcome.notifications > 0);
        assert!(outcome.audit_records > 0);
        let compliance = outcome.compliance.expect("report present");
        assert!(compliance.evidence_intact);
    }

    #[test]
    fn quiet_run_is_compliant() {
        let mut scenario = HomeMonitoringScenario::build(3);
        scenario.run_sanitiser_endorsement();
        scenario.workload.emergency_probability = 0.0;
        let outcome = scenario.run(3);
        assert_eq!(outcome.emergencies, 0);
        let compliance = outcome.compliance.expect("report present");
        assert!(compliance.is_compliant(), "violations: {:?}", compliance.violations);
    }
}
