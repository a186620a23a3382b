//! A smart-city deployment: district traffic sensors feed council analytics; raw
//! movement data must never reach a commercial advertiser, and an anonymiser gateway is
//! the only sanctioned path (Concerns 1, 5 and 6 of §3 applied outside healthcare).
//!
//! Run with: `cargo run --example smart_city`

use legaliot::compliance::{Obligation, RegulationSet};
use legaliot::core::Deployment;
use legaliot::ifc::{SecurityContext, Tag};
use legaliot::iot::CityWorkload;
use legaliot::middleware::Message;
use legaliot::policy::{Action, ReconfigurationCommand};

fn main() {
    let city = CityWorkload::new(3, 4);
    let mut deployment = Deployment::new("smart-city", "council-engine");

    for thing in city.things() {
        let region = if thing.owner == "ad-corp" { "us" } else { "eu" };
        deployment.add_thing(&thing, region);
    }
    println!(
        "registered {} components across {} districts",
        deployment.middleware().registry().len(),
        city.districts
    );

    // The council's regulation: movement data is personal; it must stay in the EU and
    // must be anonymised before any analytics consumer outside the council.
    let regulation = RegulationSet::new("council-data-charter", "city-council")
        .with(Obligation::GeoResidency { data_tag: Tag::new("movement"), region: "eu".into() })
        .with(Obligation::AnonymiseBeforeAnalytics {
            data_tag: Tag::new("movement"),
            anonymiser: "city-anonymiser".into(),
            analytics: "advertiser".into(),
            source: "council-analytics".into(),
        });
    deployment.add_regulation(&regulation);

    // Wire one district: sensors -> gateway -> council analytics.
    for s in 0..city.sensors_per_district {
        deployment.connect(&format!("district0-sensor{s}"), "district0-gateway").unwrap();
    }
    deployment.connect("district0-gateway", "council-analytics").unwrap();

    // Raw movement data cannot reach the advertiser directly.
    let direct = deployment.connect("council-analytics", "advertiser").unwrap();
    println!("council-analytics -> advertiser (raw): {direct:?}");

    // Send some readings and record their provenance.
    for s in 0..city.sensors_per_district {
        let sensor = format!("district0-sensor{s}");
        deployment.advance(50);
        deployment
            .send(
                &sensor,
                "district0-gateway",
                Message::new("traffic-reading", SecurityContext::public()),
            )
            .unwrap();
        deployment.record_derivation(
            &format!("reading-{s}"),
            &[],
            &sensor,
            "city-council",
            SecurityContext::from_names(["city", "movement"], ["council-dev"]),
        );
    }
    deployment.record_derivation(
        "district0-aggregate",
        &["reading-0", "reading-1", "reading-2", "reading-3"],
        "council-analytics",
        "city-council",
        SecurityContext::from_names(["city", "movement"], ["council-dev"]),
    );

    // The sanctioned path: the anonymiser is declassified by the council engine, then
    // publishes city statistics the advertiser may consume.
    deployment.connect("council-analytics", "city-anonymiser").unwrap();
    deployment.record_derivation(
        "city-statistics-week-1",
        &["district0-aggregate"],
        "city-anonymiser",
        "city-council",
        SecurityContext::from_names(["city"], Vec::<&str>::new()),
    );
    let declassify = ReconfigurationCommand::new(
        "publish-open-statistics",
        "council-engine",
        Action::SetSecurityContext {
            component: "city-anonymiser".into(),
            context: SecurityContext::from_names(["city"], Vec::<&str>::new()),
        },
        deployment.now().as_millis(),
    );
    let snapshot = deployment.context().snapshot();
    let now = deployment.now();
    deployment.middleware_mut().handle_control(&declassify, &snapshot, now);
    let via_anonymiser = deployment.connect("city-anonymiser", "advertiser").unwrap();
    println!("city-anonymiser -> advertiser (anonymised): {via_anonymiser:?}");

    // Compliance check against the charter.
    let report = deployment.compliance_report(&regulation);
    println!("\ncompliance with {}:", report.regulation);
    println!("  records examined: {}", report.records_examined);
    println!("  evidence intact : {}", report.evidence_intact);
    println!("  violations      : {}", report.violations.len());
    for v in &report.violations {
        println!("    - {v}");
    }
    println!("\ndenied flows recorded in audit: {}", deployment.audit().denied_flows().count());
}
