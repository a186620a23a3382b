//! The Fig. 1 feedback loop in isolation: obligations → policy → enforcement → audit →
//! compliance report → liability apportionment, including what happens when a rogue
//! component attempts an unlawful disclosure.
//!
//! Run with: `cargo run --example compliance_audit`

use legaliot::compliance::{ComplianceChecker, RegulationSet};
use legaliot::core::HomeMonitoringScenario;
use legaliot::ifc::SecurityContext;
use legaliot::iot::{Thing, ThingKind};
use legaliot::middleware::Message;

fn main() {
    let mut scenario = HomeMonitoringScenario::build(7);
    scenario.run_sanitiser_endorsement();
    scenario.run_statistics_declassification();

    // A rogue exporter appears and tries to pull Ann's data out of the EU.
    let exporter = Thing::new(
        "overseas-exporter",
        ThingKind::CloudService,
        "data-broker",
        "us-cloud",
        SecurityContext::public(),
    )
    .consumes("sensor-reading");
    scenario.deployment.add_thing(&exporter, "us");
    let attempt = scenario.deployment.connect("ann-analyser", "overseas-exporter").unwrap();
    println!("ann-analyser -> overseas-exporter: {attempt:?}");

    // Normal monitoring continues.
    let outcome = scenario.run(10);
    println!(
        "\nrun: {} delivered, {} denied, {} emergencies, {} audit records",
        outcome.delivered, outcome.denied, outcome.emergencies, outcome.audit_records
    );

    // Breach notification obligation: the denied disclosure must be reported.
    let regulation: RegulationSet = scenario.regulation().clone();
    let before = scenario.deployment.compliance_report(&regulation);
    println!("\nbefore notifying the regulator:");
    println!("  compliant : {}", before.is_compliant());
    for v in &before.violations {
        println!("  - {v}");
    }

    scenario.deployment.record_breach_notification("regulator");
    let after = scenario.deployment.compliance_report(&regulation);
    println!("\nafter notifying the regulator:");
    println!("  compliant : {}", after.is_compliant());
    for v in &after.violations {
        println!("  - {v}");
    }

    // Liability: who handled the statistics and their inputs?
    let liability = ComplianceChecker::liability(&scenario.deployment.provenance(), "ann-analysis");
    println!("\nliability for `{}`:", liability.data_item);
    println!("  responsible agents : {:?}", liability.responsible_agents);
    println!("  involved processes : {:?}", liability.involved_processes);

    // The audit evidence is tamper-evident.
    println!("\naudit chain: {}", scenario.deployment.audit().verify_chain());

    // And sending to the exporter still fails at message time even if someone retries:
    // either the channel never opened (a denial outcome) or it was torn down by the
    // regulation, in which case the bus now reports the closed channel as an error.
    let retry = scenario.deployment.send(
        "ann-analyser",
        "overseas-exporter",
        Message::new("sensor-reading", SecurityContext::public()),
    );
    match retry {
        Ok(outcome) => println!("retry send to exporter: {outcome:?}"),
        Err(e) => println!("retry send to exporter refused: {e}"),
    }
}
