//! Differential fleet conformance: a seeded generator synthesizes 1000+
//! heterogeneous deployments (homes, hospital wards, vehicle fleets) with
//! endpoints, schemas, policies, secrecy labels and a churn script; a slow,
//! obviously-correct reference model predicts exactly which subscriber must
//! receive which post-quench message; and the real dataplane is checked
//! against that prediction **record for record**:
//!
//! 1. fault-free runs match exactly — every observed delivery equals its
//!    predicted post-quench content, every admission outcome matches, and the
//!    counters agree to the unit;
//! 2. under injected faults (mid-unit shard panics, audit-append crashes,
//!    scheduling delays) enforcement stays contained: every observed delivery
//!    was predicted with exactly its predicted content, every abandoned unit
//!    is evidenced as `DeliveryLost` at a predicted key, the counters equal
//!    the prediction minus precisely the evidenced losses, and the identity
//!    `published == delivered + denied + missing + lost` holds exactly;
//! 3. audit chains verify intact across every injected restart;
//! 4. the fault-free run's Summarised evidence is the model's, pair for pair and
//!    record for record: every full `FlowChecked`, every `MessageQuenched` with
//!    its attribute names, and every `FlowSummary`'s totals and window.
//!
//! The run is reproducible from its seed: `LEGALIOT_FLEET_SEED` (default 1),
//! `LEGALIOT_FLEET_DEPLOYMENTS` (default 1000), `LEGALIOT_FLEET_ROUNDS`
//! (default 4) and `LEGALIOT_FLEET_SHARDS` (default 4) tune the matrix, and
//! every failure message embeds the generating seed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use legaliot::dataplane::AuditDetail;
use legaliot::dataplane::{
    DataplaneConfig, FailpointRegistry, FailpointSite, FailpointSpec, FaultKind,
};
use legaliot::fleet::{
    generate, predict, reconcile, run_fleet, Fleet, FleetConfig, PairTrail, PredictedOutcome,
    Prediction, RunOutcome,
};
use legaliot::middleware::Message;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Aborts the whole process if `done` is not set within `limit` — a
/// conformance run that hangs must fail loudly, not eat the CI job's timeout.
fn watchdog(label: &'static str, limit: Duration, done: Arc<AtomicBool>) {
    std::thread::spawn(move || {
        let start = std::time::Instant::now();
        while start.elapsed() < limit {
            if done.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        eprintln!("watchdog: `{label}` still running after {limit:?} — aborting");
        std::process::exit(1);
    });
}

/// The environment-tuned fleet under test, with the context string every
/// assertion embeds so any failure reproduces from its message alone.
fn fleet_under_test() -> (Fleet, usize, String) {
    let seed = env_u64("LEGALIOT_FLEET_SEED", 1);
    let deployments = env_u64("LEGALIOT_FLEET_DEPLOYMENTS", 1000) as usize;
    let rounds = env_u64("LEGALIOT_FLEET_ROUNDS", 4) as usize;
    let shards = env_u64("LEGALIOT_FLEET_SHARDS", 4) as usize;
    let ctx = format!(
        "[reproduce with LEGALIOT_FLEET_SEED={seed} LEGALIOT_FLEET_DEPLOYMENTS={deployments} \
         LEGALIOT_FLEET_ROUNDS={rounds} LEGALIOT_FLEET_SHARDS={shards}]"
    );
    (generate(FleetConfig { seed, deployments, rounds }), shards, ctx)
}

/// The predicted post-quench deliveries as a plain map, keyed like the
/// harness observes them.
fn predicted_deliveries(prediction: &Prediction) -> BTreeMap<(String, String, u64), Message> {
    prediction
        .outcomes
        .iter()
        .filter_map(|(key, outcome)| match outcome {
            PredictedOutcome::Delivered(message) => Some((key.clone(), (**message).clone())),
            PredictedOutcome::Denied => None,
        })
        .collect()
}

/// Asserts two delivery maps are identical, reporting the first divergences
/// (missing, unexpected, content mismatch) rather than dumping both maps.
fn assert_deliveries_match(
    observed: &BTreeMap<(String, String, u64), Message>,
    expected: &BTreeMap<(String, String, u64), Message>,
    ctx: &str,
) {
    let mut diffs = Vec::new();
    for (key, message) in expected {
        match observed.get(key) {
            None => diffs.push(format!("missing delivery {key:?}")),
            Some(seen) if seen != message => diffs.push(format!(
                "content mismatch at {key:?}: observed {seen:?}, predicted {message:?}"
            )),
            Some(_) => {}
        }
        if diffs.len() >= 5 {
            break;
        }
    }
    for key in observed.keys() {
        if !expected.contains_key(key) {
            diffs.push(format!("unpredicted delivery {key:?}"));
        }
        if diffs.len() >= 5 {
            break;
        }
    }
    assert!(
        diffs.is_empty(),
        "dataplane diverged from the oracle {ctx}: {} predicted, {} observed; first diffs:\n  {}",
        expected.len(),
        observed.len(),
        diffs.join("\n  ")
    );
}

/// Asserts the shard trails equal the predicted ones, reporting the first divergent
/// pairs rather than dumping both maps.
fn assert_trails_match(
    observed: &BTreeMap<(String, String), PairTrail>,
    expected: &BTreeMap<(String, String), PairTrail>,
    ctx: &str,
) {
    let pairs = expected.keys().chain(observed.keys().filter(|pair| !expected.contains_key(*pair)));
    let diffs: Vec<String> = pairs
        .filter(|pair| observed.get(*pair) != expected.get(*pair))
        .take(5)
        .map(|pair| {
            format!(
                "{pair:?}: observed {:?}, predicted {:?}",
                observed.get(pair),
                expected.get(pair)
            )
        })
        .collect();
    assert!(
        diffs.is_empty(),
        "Summarised evidence diverged from the oracle {ctx}: {} pairs predicted, {} observed; \
         first diffs:\n  {}",
        expected.len(),
        observed.len(),
        diffs.join("\n  ")
    );
}

/// The run's counters equal a fold of its shards' records, to the unit.
fn assert_reconciled(outcome: &RunOutcome, detail: AuditDetail, ctx: &str) {
    reconcile(&outcome.stats, &outcome.shard_records, detail)
        .unwrap_or_else(|unequal| panic!("counters and trail disagree {ctx}:\n{unequal}"));
}

fn assert_admissions_match(outcome: &RunOutcome, prediction: &Prediction, ctx: &str) {
    let predicted: Vec<(String, String, bool)> = prediction
        .admissions
        .iter()
        .map(|(from, to, outcome)| (from.clone(), to.clone(), outcome.admitted()))
        .collect();
    assert_eq!(outcome.admissions.len(), predicted.len(), "admission count diverged {ctx}");
    for (seen, expected) in outcome.admissions.iter().zip(&predicted) {
        assert_eq!(seen, expected, "admission outcome diverged {ctx}");
    }
}

/// Fault-free conformance: exact content, exact counters, nothing lost, nothing
/// missing, chains intact.
fn conformance_without_faults() {
    let (fleet, shards, ctx) = fleet_under_test();
    let prediction = predict(&fleet);
    let config =
        DataplaneConfig { shards, audit_detail: AuditDetail::Summarised, ..Default::default() };
    let outcome = run_fleet(&fleet, "fleet-conformance", config)
        .unwrap_or_else(|error| panic!("fleet run failed {ctx}: {error}"));

    assert_eq!(outcome.worker_panics, 0, "no worker escaped supervision {ctx}");
    assert!(outcome.chains_intact, "every audit chain verifies {ctx}");
    assert_eq!(outcome.duplicate_deliveries, 0, "delivery keys are unique {ctx}");
    assert_eq!(outcome.stats.missing_endpoint, 0, "round barrier leaves no stragglers {ctx}");
    assert_eq!(outcome.stats.deliveries_lost, 0, "nothing lost without faults {ctx}");
    assert_eq!(outcome.stats.shard_restarts, 0, "no restarts without faults {ctx}");
    assert_eq!(outcome.stats.published, prediction.published, "published diverged {ctx}");
    assert_eq!(outcome.stats.delivered, prediction.delivered, "delivered diverged {ctx}");
    assert_eq!(outcome.stats.denied, prediction.denied, "denied diverged {ctx}");
    assert_eq!(
        outcome.stats.published,
        outcome.stats.delivered
            + outcome.stats.denied
            + outcome.stats.missing_endpoint
            + outcome.stats.deliveries_lost,
        "accounting identity {ctx}: {:?}",
        outcome.stats
    );
    assert_admissions_match(&outcome, &prediction, &ctx);
    assert_deliveries_match(&outcome.observed, &predicted_deliveries(&prediction), &ctx);
    assert_reconciled(&outcome, AuditDetail::Summarised, &ctx);
    let trail = outcome.trail();
    assert_trails_match(&trail, &prediction.trail, &ctx);
    let full: usize = trail.values().map(|pair| pair.flow_checked.len()).sum();
    let quenched: usize = trail.values().map(|pair| pair.quenched.len()).sum();
    println!(
        "fleet conformance {ctx}: endpoints={} edges={} published={} delivered={} denied={} \
         full_flow_checks={full} quench_records={quenched} shard_records={}",
        fleet.endpoint_count(),
        fleet.edge_count(),
        outcome.stats.published,
        outcome.stats.delivered,
        outcome.stats.denied,
        outcome.shard_records.len(),
    );
}

#[test]
fn generated_fleet_conforms_zero_copy() {
    let done = Arc::new(AtomicBool::new(false));
    watchdog("fleet_conformance_zero_copy", Duration::from_secs(240), Arc::clone(&done));
    conformance_without_faults();
    done.store(true, Ordering::Relaxed);
}

/// Conformance under injected faults. Mid-unit shard panics and audit-append
/// crashes roll the in-flight unit back *before* any payload reaches a
/// mailbox, so the contract sharpens to containment: every observed delivery
/// is exactly a predicted one, every abandoned unit is evidenced `DeliveryLost`
/// at a predicted key with the unit's own publish time, and the counters equal
/// the prediction minus precisely those evidenced losses — record for record.
#[test]
fn generated_fleet_conformance_survives_injected_faults() {
    let done = Arc::new(AtomicBool::new(false));
    watchdog("fleet_conformance_faults", Duration::from_secs(240), Arc::clone(&done));

    let (fleet, shards, ctx) = fleet_under_test();
    let ctx = format!("{ctx} faults=on");
    let prediction = predict(&fleet);

    // Deterministic panics on the delivery path (hit indices are global, and
    // the run processes far more units than the first-hit offsets) plus
    // seed-reproducible audit-append crashes and scheduling delays. The panic
    // limits stay far below the restart budget so no shard ever degrades:
    // degradation fails publishes, which this suite treats as a run error.
    let seed = env_u64("LEGALIOT_FLEET_SEED", 1);
    let registry = Arc::new(
        FailpointRegistry::new(seed)
            .with_spec(
                FailpointSpec::on_hits(FailpointSite::ShardProcess, FaultKind::Panic, 10, 97)
                    .limit(8),
            )
            .with_spec(
                FailpointSpec::on_hits(FailpointSite::AuditAppend, FaultKind::Panic, 5, 131)
                    .limit(6),
            )
            .with_spec(FailpointSpec::with_probability(
                FailpointSite::ShardLoop,
                FaultKind::Delay(Duration::from_micros(20)),
                0.002,
            )),
    );
    let config = DataplaneConfig {
        shards,
        failpoints: Some(Arc::clone(&registry)),
        restart_budget: 64,
        ..DataplaneConfig::default()
    };
    let outcome = run_fleet(&fleet, "fleet-conformance-faults", config)
        .unwrap_or_else(|error| panic!("fleet run failed {ctx}: {error}"));

    assert_eq!(outcome.worker_panics, 0, "every panic was supervised in-shard {ctx}");
    assert!(outcome.chains_intact, "chains re-anchor intact across restarts {ctx}");
    assert_eq!(outcome.duplicate_deliveries, 0, "delivery keys are unique {ctx}");
    assert_eq!(outcome.stats.missing_endpoint, 0, "round barrier leaves no stragglers {ctx}");
    assert!(
        outcome.stats.shard_restarts >= 1,
        "the deterministic panic spec must restart at least one shard {ctx}"
    );
    assert_eq!(outcome.stats.degraded_shards, 0, "the budget covers every injected panic {ctx}");
    assert!(registry.fired(FailpointSite::ShardProcess) >= 1, "faults actually fired {ctx}");

    // Every evidenced loss keys a predicted unit that was *not* observed —
    // a unit is rolled back before any payload hand-off, never after.
    let mut lost_at_delivered = 0u64;
    let mut lost_at_denied = 0u64;
    for lost in &outcome.lost {
        let key = (lost.source.clone(), lost.destination.clone(), lost.at_millis);
        assert!(
            !lost.cause.starts_with("mailbox hand-off abandoned"),
            "no hand-off faults are injected {ctx}: {lost:?}"
        );
        assert!(
            !outcome.observed.contains_key(&key),
            "a lost unit must not also be delivered {ctx}: {key:?}"
        );
        match prediction.outcomes.get(&key) {
            Some(PredictedOutcome::Delivered(_)) => lost_at_delivered += lost.lost,
            Some(PredictedOutcome::Denied) => lost_at_denied += lost.lost,
            None => panic!("lost record at unpredicted key {key:?} {ctx}"),
        }
    }
    // The evidence totals the counters: losses, restarts and every verdict.
    assert_reconciled(&outcome, AuditDetail::Summarised, &ctx);

    // Counters: the prediction minus exactly the evidenced losses.
    assert_eq!(outcome.stats.published, prediction.published, "published diverged {ctx}");
    assert_eq!(
        outcome.stats.delivered,
        prediction.delivered - lost_at_delivered,
        "delivered must equal the prediction minus losses at delivered keys {ctx}"
    );
    assert_eq!(
        outcome.stats.denied,
        prediction.denied - lost_at_denied,
        "denied must equal the prediction minus losses at denied keys {ctx}"
    );
    assert_eq!(
        outcome.stats.published,
        outcome.stats.delivered
            + outcome.stats.denied
            + outcome.stats.missing_endpoint
            + outcome.stats.deliveries_lost,
        "accounting identity {ctx}: {:?}",
        outcome.stats
    );

    // Content: every surviving delivery matches its prediction exactly; the
    // only predicted deliveries absent are the evidenced-lost ones.
    let mut expected = predicted_deliveries(&prediction);
    for lost in &outcome.lost {
        expected.remove(&(lost.source.clone(), lost.destination.clone(), lost.at_millis));
    }
    assert_admissions_match(&outcome, &prediction, &ctx);
    assert_deliveries_match(&outcome.observed, &expected, &ctx);
    println!(
        "fleet fault conformance {ctx}: published={} delivered={} denied={} lost={} restarts={}",
        outcome.stats.published,
        outcome.stats.delivered,
        outcome.stats.denied,
        outcome.stats.deliveries_lost,
        outcome.stats.shard_restarts,
    );
}
