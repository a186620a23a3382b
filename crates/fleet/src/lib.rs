//! # legaliot-fleet
//!
//! Seeded fleet generation and a model-based enforcement oracle, the scale
//! harness for the dataplane: thousands of heterogeneous deployments (homes,
//! hospital wards, vehicle fleets from the `legaliot-iot` catalog), each with
//! its own endpoints, schemas, policies, secrecy labels and churn script —
//! joins, leaves, context flips, policy updates, break-glass — plus a slow,
//! obviously-correct reference ([`model::FleetModel`]) that computes exactly
//! which subscriber must receive which post-quench message.
//!
//! The pieces compose differentially:
//!
//! * [`generate`] synthesizes a [`spec::Fleet`] from a seed — the same seed, the
//!   same fleet;
//! * [`predict`] walks the fleet's script through the reference model and
//!   returns the exact expected deliveries, denials and admission outcomes, and
//!   the Summarised-mode evidence each pair leaves;
//! * [`run_fleet`] installs and drives the same fleet on a real
//!   [`legaliot_dataplane::Dataplane`] (any shard count, payload mode or
//!   fault-injection registry) and returns what actually happened, keyed
//!   identically.
//!
//! `tests/fleet_conformance.rs` at the workspace root asserts the two agree
//! record-for-record at 1000+ deployments; any failure message carries the
//! reproducing seed; [`reconcile`] holds a run's counters to its audit trail.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod harness;
pub mod model;
mod reconcile;
pub mod spec;

pub use gen::generate;
pub use harness::{run_fleet, run_fleet_partial, LostDelivery, PartialRun, RunOutcome};
pub use model::{predict, AdmissionOutcome, FleetModel, PairTrail, PredictedOutcome, Prediction};
pub use reconcile::reconcile;
pub use spec::{
    AttrSpec, CondSpec, ControlEvent, Deployment, Fleet, FleetConfig, KeyValue, PublishSpec, Round,
    RuleSpec, SchemaSpec, SubjectSpec, ThingSpec,
};

#[cfg(test)]
mod tests {
    use super::*;
    use legaliot_dataplane::{AuditDetail, DataplaneConfig};
    use model::PredictedOutcome;
    use std::sync::Arc;

    fn small_config(seed: u64) -> FleetConfig {
        FleetConfig { seed, deployments: 40, rounds: 3 }
    }

    #[test]
    fn same_seed_regenerates_byte_identical_fleet() {
        let a = generate(small_config(7));
        let b = generate(small_config(7));
        assert_eq!(a, b);
    }

    #[test]
    fn same_seed_predicts_identical_delivery_set() {
        let fleet = generate(small_config(7));
        let first = predict(&fleet);
        let second = predict(&generate(small_config(7)));
        assert_eq!(first.outcomes, second.outcomes);
        assert_eq!(first.admissions, second.admissions);
        assert_eq!(
            (first.published, first.delivered, first.denied),
            (second.published, second.delivered, second.denied)
        );
    }

    #[test]
    fn different_seeds_generate_materially_different_fleets() {
        let a = generate(small_config(7));
        let b = generate(small_config(8));
        assert_ne!(a, b);
        let publishes =
            |fleet: &Fleet| fleet.rounds.iter().map(|r| r.publishes.len()).sum::<usize>();
        let a_shape = (a.endpoint_count(), a.edge_count(), publishes(&a));
        let b_shape = (b.endpoint_count(), b.edge_count(), publishes(&b));
        assert_ne!(a_shape, b_shape, "seeds 7 and 8 must differ in fleet shape");
        let mut schemas = a.deployments.iter().flat_map(|d| &d.schemas);
        let first = schemas.next().expect("a fleet declares schemas");
        assert!(schemas.any(|s| s.attrs != first.attrs), "schemas must vary within one fleet");
    }

    #[test]
    fn fleet_exercises_every_outcome_class() {
        // The generated policy/label mix must produce admitted AND refused
        // edges, delivered AND denied messages, and quenched attributes —
        // otherwise conformance at scale proves less than it claims.
        let fleet = generate(FleetConfig { seed: 11, deployments: 60, rounds: 4 });
        let prediction = predict(&fleet);
        assert!(prediction.delivered > 0, "no predicted deliveries");
        assert!(prediction.denied > 0, "no predicted denials");
        let admitted = prediction.admissions.iter().filter(|(_, _, o)| o.admitted()).count();
        assert!(admitted > 0, "no admitted edges");
        assert!(admitted < prediction.admissions.len(), "no refused edges");
        let quenched = prediction.outcomes.values().any(|outcome| match outcome {
            PredictedOutcome::Delivered(message) => !message.attributes.contains_key("subject-id"),
            PredictedOutcome::Denied => false,
        });
        assert!(quenched, "no delivery with a quenched attribute");
        let intact = prediction.outcomes.values().any(|outcome| match outcome {
            PredictedOutcome::Delivered(message) => message.attributes.contains_key("subject-id"),
            PredictedOutcome::Denied => false,
        });
        assert!(intact, "no delivery kept its sensitive attribute");
    }

    #[test]
    fn small_fleet_conforms_end_to_end() {
        // A quick in-crate differential check so oracle or harness regressions
        // surface here before the workspace-level 1000-deployment suite runs.
        let fleet = generate(FleetConfig { seed: 5, deployments: 12, rounds: 3 });
        let prediction = predict(&fleet);
        let outcome = run_fleet(&fleet, "fleet-smoke", DataplaneConfig::default())
            .expect("fleet run succeeds");
        assert_eq!(outcome.duplicate_deliveries, 0);
        assert_eq!(outcome.stats.published, prediction.published);
        assert_eq!(outcome.stats.delivered, prediction.delivered);
        assert_eq!(outcome.stats.denied, prediction.denied);
        assert_eq!(outcome.stats.missing_endpoint, 0);
        assert_eq!(outcome.stats.deliveries_lost, 0);
        assert!(outcome.chains_intact);
        let expected: std::collections::BTreeMap<_, _> = prediction
            .outcomes
            .iter()
            .filter_map(|(key, outcome)| match outcome {
                PredictedOutcome::Delivered(message) => Some((key.clone(), (**message).clone())),
                PredictedOutcome::Denied => None,
            })
            .collect();
        assert_eq!(outcome.observed, expected);
        let predicted_admissions: Vec<(String, String, bool)> = prediction
            .admissions
            .iter()
            .map(|(from, to, outcome)| (from.clone(), to.clone(), outcome.admitted()))
            .collect();
        assert_eq!(outcome.admissions, predicted_admissions);
        assert_eq!(outcome.trail(), prediction.trail);
        reconcile(&outcome.stats, &outcome.shard_records, AuditDetail::Summarised)
            .unwrap_or_else(|unequal| panic!("counters and trail disagree:\n{unequal}"));
    }

    /// The counters reconcile with the trail in both audit modes, with and without
    /// injected faults: delivery and audit-append panics (losses and restarts), panicked
    /// hand-offs (abandoned) and drop-oldest mailboxes too small for a round (sheds).
    #[test]
    fn counters_reconcile_with_the_trail_in_both_modes_with_and_without_faults() {
        use legaliot_dataplane::{
            FailpointRegistry, FailpointSite, FailpointSpec, FaultKind, OverflowPolicy,
        };
        let fleet = generate(FleetConfig { seed: 5, deployments: 12, rounds: 3 });
        let panics =
            |site, first, every| FailpointSpec::on_hits(site, FaultKind::Panic, first, every);
        for detail in [AuditDetail::Summarised, AuditDetail::Full] {
            for faults in [false, true] {
                let registry = FailpointRegistry::new(5)
                    .with_spec(panics(FailpointSite::ShardProcess, 3, 17).limit(4))
                    .with_spec(panics(FailpointSite::AuditAppend, 2, 11).limit(4))
                    .with_spec(panics(FailpointSite::MailboxHandOff, 4, 13).limit(3));
                let config = DataplaneConfig {
                    shards: 2,
                    audit_detail: detail,
                    overflow: OverflowPolicy::DropOldest,
                    mailbox_capacity: 1,
                    failpoints: faults.then(|| Arc::new(registry)),
                    restart_budget: 64,
                    ..DataplaneConfig::default()
                };
                let outcome = run_fleet(&fleet, "fleet-reconcile", config).expect("fleet runs");
                let stats = outcome.stats;
                let ctx = format!("{detail:?}, faults {faults}");
                assert!(stats.receiver_dropped > 0, "no shed to reconcile ({ctx})");
                if faults {
                    assert!(stats.shard_restarts > 0, "no restart to reconcile ({ctx})");
                    assert!(stats.deliveries_lost > 0, "no loss to reconcile ({ctx})");
                    let abandoned = outcome.lost.iter().any(|lost| lost.cause.contains("hand-off"));
                    assert!(abandoned, "no abandoned hand-off to reconcile ({ctx})");
                }
                reconcile(&stats, &outcome.shard_records, detail).unwrap_or_else(|unequal| {
                    panic!("{ctx}: counters and trail disagree:\n{unequal}")
                });
            }
        }
    }

    /// A degraded shard's run reconciles too. `run_fleet` stops at the first
    /// `ShardUnavailable`, so this drives the engine itself: with no restart budget the
    /// first panic degrades the one shard, what it had accepted is evidenced as lost,
    /// later publishes fail fast, and the counters still equal the trail.
    #[test]
    fn counters_reconcile_with_the_trail_of_a_degraded_shard_in_both_modes() {
        use legaliot_context::{ContextSnapshot, Timestamp};
        use legaliot_dataplane::{
            smart_home, Dataplane, DataplaneError, FailpointRegistry, FailpointSite, FailpointSpec,
            FaultKind,
        };
        for detail in [AuditDetail::Summarised, AuditDetail::Full] {
            let registry = FailpointRegistry::new(3).with_spec(
                FailpointSpec::on_hits(FailpointSite::ShardProcess, FaultKind::Panic, 5, 0)
                    .limit(1),
            );
            let config = DataplaneConfig {
                shards: 1,
                audit_detail: detail,
                failpoints: Some(Arc::new(registry)),
                restart_budget: 0,
                ..DataplaneConfig::default()
            };
            let dataplane = Dataplane::new("fleet-degraded", config);
            let topology = smart_home(2, 7);
            topology
                .install_with_payload_schemas(&dataplane, &ContextSnapshot::default(), Timestamp(1))
                .expect("topology installs");
            let receivers: std::collections::BTreeSet<&str> =
                topology.edges.iter().map(|(_, to)| to.as_str()).collect();
            let _subscribers: Vec<_> = receivers
                .into_iter()
                .map(|name| dataplane.open_subscriber(name).expect("receiver opens"))
                .collect();
            let pairs = topology.publisher_messages();
            let mut clock = 2;
            for _ in 0..40 {
                for (publisher, message) in &pairs {
                    match dataplane.publish_message(publisher, message, Timestamp(clock)) {
                        Ok(_) | Err(DataplaneError::ShardUnavailable { .. }) => {}
                        Err(other) => panic!("{detail:?}: publish failed: {other:?}"),
                    }
                    clock += 1;
                }
            }
            dataplane.drain();
            let report = dataplane.shutdown();
            let stats = report.stats;
            assert_eq!(stats.degraded_shards, 1, "{detail:?}");
            assert!(stats.deliveries_lost >= 1, "{detail:?}: no loss to reconcile");
            let records = report.shard_audit.iter().flat_map(|log| log.records());
            reconcile(&stats, records, detail).unwrap_or_else(|unequal| {
                panic!("{detail:?}: counters and trail disagree:\n{unequal}")
            });
        }
    }
}
