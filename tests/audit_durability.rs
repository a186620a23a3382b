//! Durable-audit crash-recovery conformance: a seeded fleet runs on a
//! dataplane whose audit chains stream every batch's records to on-disk
//! segment stores, and the disk is checked against the same reference model
//! that checks the live engine:
//!
//! 1. a graceful durable run leaves each shard's **complete** record stream on
//!    disk — recovery is clean, ids are dense, every recovered `FlowChecked`
//!    record keys a predicted outcome with the predicted decision, and the
//!    allowed records total exactly the oracle's delivered count;
//! 2. a dataplane torn down mid-churn with injected segment IO faults
//!    (`segment.write` short write, `segment.sync` error) recovers to a
//!    verified chain *prefix* that still matches the oracle prefix record for
//!    record, with the accounting identity exact at the teardown point and
//!    every truncated tail reported — never silently lost;
//! 3. a second incarnation on the same directories re-anchors on the last
//!    persisted hash and extends the same verifiable chain;
//! 4. every record a batch appends — a drop-oldest shed, an abandoned hand-off — is
//!    on disk when `drain` returns, with the engine still up;
//! 5. a shard that panics in the middle of a durable batch, the records before the
//!    panic not yet sealed, restarts and leaves an intact chain on disk, its restart
//!    record right after the records appended before the panic.
//!
//! Reproducible from its seed: `LEGALIOT_FLEET_SEED` (default 1),
//! `LEGALIOT_FLEET_DEPLOYMENTS` (default 200), `LEGALIOT_FLEET_ROUNDS`
//! (default 4) and `LEGALIOT_FLEET_SHARDS` (default 4) tune the matrix.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use legaliot::audit::{AuditEvent, RecoveryReport, SegmentStore};
use legaliot::context::{ContextSnapshot, Timestamp};
use legaliot::dataplane::{
    AuditDetail, Dataplane, DataplaneConfig, FailpointRegistry, FailpointSite, FailpointSpec,
    FaultKind, OverflowPolicy, PersistenceConfig, Subscriber,
};
use legaliot::fleet::{
    generate, predict, reconcile, run_fleet, run_fleet_partial, Fleet, FleetConfig,
    PredictedOutcome, Prediction,
};
use legaliot::ifc::SecurityContext;
use legaliot::middleware::{
    AttributeKind, AttributeValue, Component, Message, MessageSchema, Principal,
};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Aborts the whole process if `done` is not set within `limit` — a durability
/// run that hangs must fail loudly, not eat the CI job's timeout.
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

fn fleet_under_test() -> (Fleet, usize, String) {
    let seed = env_u64("LEGALIOT_FLEET_SEED", 1);
    let deployments = env_u64("LEGALIOT_FLEET_DEPLOYMENTS", 200) as usize;
    let rounds = env_u64("LEGALIOT_FLEET_ROUNDS", 4) as usize;
    let shards = env_u64("LEGALIOT_FLEET_SHARDS", 4) as usize;
    let ctx = format!(
        "[reproduce with LEGALIOT_FLEET_SEED={seed} LEGALIOT_FLEET_DEPLOYMENTS={deployments} \
         LEGALIOT_FLEET_ROUNDS={rounds} LEGALIOT_FLEET_SHARDS={shards}]"
    );
    (generate(FleetConfig { seed, deployments, rounds }), shards, ctx)
}

/// A fresh unique persistence root for one test run.
fn durable_root(tag: &str) -> PathBuf {
    let seed = env_u64("LEGALIOT_FLEET_SEED", 1);
    let shards = env_u64("LEGALIOT_FLEET_SHARDS", 4);
    let dir = std::env::temp_dir()
        .join(format!("legaliot-durability-{tag}-s{seed}-n{shards}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Durable-audit configuration: full per-check records, and a small batch and
/// retention window, smaller than a shard's batch of deliveries, so retention
/// prunes mid-run behind the batch writes, and each store commits in groups of as
/// many records.
fn durable_config(shards: usize, dir: &std::path::Path) -> DataplaneConfig {
    DataplaneConfig {
        shards,
        audit_detail: AuditDetail::Full,
        audit_batch: 16,
        audit_retention: Some(32),
        persistence: Some(PersistenceConfig {
            dir: dir.to_path_buf(),
            max_segment_records: 256,
            sync_on_flush: true,
        }),
        ..DataplaneConfig::default()
    }
}

/// Recovers every shard directory under `dir`.
fn recover_all(dir: &std::path::Path, shards: usize) -> Vec<RecoveryReport> {
    (0..shards)
        .map(|shard| {
            SegmentStore::recover(dir.join(format!("shard-{shard}")))
                .unwrap_or_else(|e| panic!("recovery of shard {shard} failed: {e}"))
        })
        .collect()
}

/// Checks one shard's recovered stream against the oracle: intact chain, ids
/// dense from 0, and every `FlowChecked` record keyed at a predicted outcome
/// with the predicted decision and naming the message that was judged
/// (`data_item == "{type}@{at_millis}"`). Returns (flow checks seen, allowed among
/// them).
fn check_recovered_shard(
    shard: usize,
    report: &RecoveryReport,
    prediction: &Prediction,
    ctx: &str,
) -> (u64, u64) {
    assert!(
        report.chain.is_intact(),
        "shard {shard} recovered chain must verify {ctx}: {:?}",
        report.chain
    );
    for (i, record) in report.records.iter().enumerate() {
        assert_eq!(record.id.0, i as u64, "shard {shard} ids must be dense {ctx}");
    }
    let mut checks = 0u64;
    let mut allowed = 0u64;
    for record in &report.records {
        if let AuditEvent::FlowChecked { source, destination, decision, data_item, .. } =
            &record.event
        {
            checks += 1;
            let key = (source.clone(), destination.clone(), record.at_millis);
            let at = format!("@{}", record.at_millis);
            match prediction.outcomes.get(&key) {
                Some(PredictedOutcome::Delivered(message)) => {
                    assert!(
                        decision.is_allowed(),
                        "shard {shard}: disk says denied, oracle says delivered at {key:?} {ctx}"
                    );
                    assert_eq!(
                        data_item.as_deref(),
                        Some(format!("{}{at}", message.message_type).as_str()),
                        "shard {shard}: evidence names another message at {key:?} {ctx}"
                    );
                    allowed += 1;
                }
                Some(PredictedOutcome::Denied) => {
                    assert!(
                        decision.is_denied(),
                        "shard {shard}: disk says allowed, oracle says denied at {key:?} {ctx}"
                    );
                    assert!(
                        data_item.as_deref().is_some_and(|item| item.ends_with(&at)),
                        "shard {shard}: denial names no message at {key:?} {ctx}: {data_item:?}"
                    );
                }
                None => panic!("shard {shard}: unpredicted FlowChecked at {key:?} {ctx}"),
            }
        }
    }
    (checks, allowed)
}

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

/// A graceful durable run: zero hot-path loss, and the disk ends up holding
/// each shard's complete oracle-conformant history, fsynced and sealed.
#[test]
fn durable_fleet_run_leaves_complete_verified_history_on_disk() {
    let done = Arc::new(AtomicBool::new(false));
    watchdog("audit_durability_graceful", Duration::from_secs(240), Arc::clone(&done));

    let (fleet, shards, ctx) = fleet_under_test();
    let ctx = format!("{ctx} durable=graceful");
    let prediction = predict(&fleet);
    let dir = durable_root("graceful");
    let outcome = run_fleet(&fleet, "fleet-durability", durable_config(shards, &dir))
        .unwrap_or_else(|error| panic!("fleet run failed {ctx}: {error}"));

    assert_eq!(outcome.worker_panics, 0, "no worker escaped supervision {ctx}");
    assert!(outcome.chains_intact, "in-memory chains verify {ctx}");
    assert_eq!(outcome.stats.deliveries_lost, 0, "nothing lost without faults {ctx}");
    assert_eq!(outcome.stats.published, prediction.published, "published diverged {ctx}");
    assert_eq!(outcome.stats.delivered, prediction.delivered, "delivered diverged {ctx}");
    assert_eq!(outcome.stats.denied, prediction.denied, "denied diverged {ctx}");
    assert!(outcome.stats.segment_records_persisted > 0, "history streamed to disk {ctx}");
    assert!(outcome.stats.segment_bytes_fsynced > 0, "flushes were fsynced {ctx}");
    assert_eq!(outcome.stats.segment_records_dropped, 0, "no store wedged {ctx}");
    assert_eq!(outcome.stats.recovery_truncations, 0, "fresh directories {ctx}");

    let mut disk_records = 0u64;
    let mut disk_allowed = 0u64;
    let recovered = recover_all(&dir, shards);
    for (shard, report) in recovered.iter().enumerate() {
        assert!(report.is_clean(), "shard {shard} truncations {ctx}: {:?}", report.truncations);
        let (_, allowed) = check_recovered_shard(shard, report, &prediction, &ctx);
        disk_records += report.records.len() as u64;
        disk_allowed += allowed;
    }
    // The disk evidences exactly what the counters count.
    let on_disk = recovered.iter().flat_map(|report| &report.records);
    reconcile(&outcome.stats, on_disk, AuditDetail::Full)
        .unwrap_or_else(|unequal| panic!("counters and disk disagree {ctx}:\n{unequal}"));
    assert_eq!(
        disk_records, outcome.stats.segment_records_persisted,
        "every persisted record is recoverable {ctx}"
    );
    assert_eq!(
        disk_allowed, prediction.delivered,
        "disk evidences exactly the oracle's deliveries {ctx}"
    );
    println!(
        "durable graceful {ctx}: disk_records={disk_records} allowed={disk_allowed} \
         fsynced_bytes={}",
        outcome.stats.segment_bytes_fsynced
    );
    std::fs::remove_dir_all(&dir).unwrap();
    done.store(true, Ordering::Relaxed);
}

/// The crash drill: IO faults wedge segment stores mid-churn, the dataplane is
/// torn down at a round boundary, and recovery from disk must yield verified
/// chain prefixes matching the oracle prefix — then a second incarnation
/// extends the same chain.
#[test]
fn durable_fleet_recovers_from_mid_churn_teardown() {
    let done = Arc::new(AtomicBool::new(false));
    watchdog("audit_durability_crash", Duration::from_secs(240), Arc::clone(&done));

    let (fleet, shards, ctx) = fleet_under_test();
    let ctx = format!("{ctx} durable=crash");
    let seed = env_u64("LEGALIOT_FLEET_SEED", 1);
    let dir = durable_root("crash");

    // Segment IO faults: a short write (torn frame, store wedged) early in the
    // stream and a sync error later — whichever a shard hits first wedges its
    // store with the tail at that point, modelling a crash of the persistence
    // layer while enforcement keeps running.
    let registry = Arc::new(
        FailpointRegistry::new(seed)
            .with_spec(
                FailpointSpec::on_hits(FailpointSite::SegmentWrite, FaultKind::ShortWrite, 50, 1)
                    .limit(1),
            )
            .with_spec(
                FailpointSpec::on_hits(FailpointSite::SegmentSync, FaultKind::IoError, 9, 1)
                    .limit(1),
            ),
    );
    let config =
        DataplaneConfig { failpoints: Some(Arc::clone(&registry)), ..durable_config(shards, &dir) };

    // Play half the script, then tear the engine down (abandon path) — the
    // wedged stores leave torn/partial tails on disk.
    let crash_after = fleet.rounds.len().div_ceil(2);
    let partial = run_fleet_partial(&fleet, "fleet-durability-crash", config, crash_after)
        .unwrap_or_else(|error| panic!("partial fleet run failed {ctx}: {error}"));
    assert!(
        registry.fired(FailpointSite::SegmentWrite) >= 1,
        "the short-write fault must fire {ctx}"
    );
    assert_eq!(
        partial.stats.published,
        partial.stats.delivered
            + partial.stats.denied
            + partial.stats.missing_endpoint
            + partial.stats.deliveries_lost,
        "accounting identity exact at the teardown point {ctx}: {:?}",
        partial.stats
    );
    let observed = partial.observed.clone();
    let pre_crash_stats = partial.stats;
    drop(partial); // drops the Dataplane: the mid-churn teardown

    // The oracle over the played prefix of the script.
    let mut prefix = fleet.clone();
    prefix.rounds.truncate(crash_after);
    let prediction = predict(&prefix);
    assert_eq!(pre_crash_stats.published, prediction.published, "published diverged {ctx}");
    assert_eq!(pre_crash_stats.delivered, prediction.delivered, "delivered diverged {ctx}");
    assert_eq!(pre_crash_stats.denied, prediction.denied, "denied diverged {ctx}");
    let expected = predicted_deliveries(&prediction);
    assert_eq!(observed, expected, "observed deliveries diverged from the oracle {ctx}");

    // Recovery: every shard yields a verified chain prefix of oracle-conformant
    // records, and the short write's torn tail is reported, not silently lost.
    let recovered = recover_all(&dir, shards);
    let mut truncations = 0usize;
    let mut first_pass_records = Vec::with_capacity(shards);
    for (shard, report) in recovered.iter().enumerate() {
        check_recovered_shard(shard, report, &prediction, &ctx);
        truncations += report.truncations.len();
        first_pass_records.push(report.records.len());
    }
    assert!(truncations >= 1, "the torn tail must be reported {ctx}");

    // A second incarnation on the repaired directories: startup recovery is
    // clean now, new traffic re-anchors on the recovered heads, and the final
    // disk state still verifies as one chain per shard across incarnations.
    let dataplane = Dataplane::new("fleet-durability-restart", durable_config(shards, &dir));
    assert_eq!(
        dataplane.stats().recovery_truncations,
        0,
        "manual recovery already repaired the tails {ctx}"
    );
    let restart_ctx = SecurityContext::from_names(["restart"], Vec::<&str>::new());
    for name in ["restart-pub", "restart-sub"] {
        dataplane
            .register(
                Component::builder(name, Principal::new("op")).context(restart_ctx.clone()).build(),
            )
            .unwrap();
        dataplane.allow_sends_to(name);
    }
    let snapshot = ContextSnapshot::default();
    assert!(dataplane
        .subscribe("restart-pub", "restart-sub", &snapshot, Timestamp(1))
        .unwrap()
        .is_delivered());
    dataplane
        .register_schema(MessageSchema::new("restart").attribute("run", AttributeKind::Integer))
        .unwrap();
    let message =
        Message::new("restart", SecurityContext::public()).with("run", AttributeValue::Integer(2));
    for t in 0..50 {
        dataplane.publish_message("restart-pub", &message, Timestamp(10 + t)).unwrap();
    }
    dataplane.drain();
    let report = dataplane.shutdown();
    assert_eq!(report.unsynced_bytes, 0, "graceful close leaves nothing unsynced {ctx}");
    assert!(report.segments_sealed >= 1, "the restart incarnation sealed its segments {ctx}");

    let mut grew = false;
    for (shard, report) in recover_all(&dir, shards).iter().enumerate() {
        assert!(report.is_clean(), "final recovery clean {ctx}: {:?}", report.truncations);
        assert!(report.chain.is_intact(), "shard {shard} chain verifies across incarnations {ctx}");
        for (i, record) in report.records.iter().enumerate() {
            assert_eq!(record.id.0, i as u64, "shard {shard} ids stay dense {ctx}");
        }
        grew |= report.records.len() > first_pass_records[shard];
    }
    assert!(grew, "the second incarnation extended a recovered chain {ctx}");
    println!(
        "durable crash {ctx}: rounds={crash_after} truncations={truncations} \
         pre_crash={pre_crash_stats:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
    done.store(true, Ordering::Relaxed);
}

/// A durable engine with a publisher `pub` that every name in `subscribers` subscribes
/// to, a schema for its messages and one mailbox opened per subscriber.
fn fan_out_plane(
    config: DataplaneConfig,
    subscribers: &[&str],
) -> (Dataplane, Vec<Subscriber>, Message) {
    let dataplane = Dataplane::new("fleet-durability-drain", config);
    let context = SecurityContext::from_names(["drain"], Vec::<&str>::new());
    for name in std::iter::once("pub").chain(subscribers.iter().copied()) {
        let component = Component::builder(name, Principal::new("op")).context(context.clone());
        dataplane.register(component.build()).unwrap();
        dataplane.allow_sends_to(name);
    }
    let snapshot = ContextSnapshot::default();
    for name in subscribers {
        assert!(dataplane.subscribe("pub", name, &snapshot, Timestamp(1)).unwrap().is_delivered());
    }
    dataplane
        .register_schema(MessageSchema::new("drain").attribute("n", AttributeKind::Integer))
        .unwrap();
    let mailboxes = subscribers.iter().map(|name| dataplane.open_subscriber(name).unwrap());
    let mailboxes = mailboxes.collect();
    let message =
        Message::new("drain", SecurityContext::public()).with("n", AttributeValue::Integer(1));
    (dataplane, mailboxes, message)
}

/// Every shed is on disk once `drain` returns: a drop-oldest mailbox of one that is
/// never received from sheds all but the newest delivery during the batches'
/// hand-offs, and the `DeliveryDropped` records those hand-offs append are written
/// before the batch ends — recovered from the live engine's directories, they total
/// the engine's own shed count.
#[test]
fn every_shed_is_on_disk_when_drain_returns() {
    let (_, shards, ctx) = fleet_under_test();
    let dir = durable_root("drain-shed");
    let config = DataplaneConfig {
        mailbox_capacity: 1,
        overflow: OverflowPolicy::DropOldest,
        ..durable_config(shards, &dir)
    };
    let (dataplane, _mailboxes, message) = fan_out_plane(config, &["sub"]);
    const PUBLISHES: u64 = 200;
    for t in 0..PUBLISHES {
        dataplane.publish_message("pub", &message, Timestamp(10 + t)).unwrap();
    }
    dataplane.drain();
    let shed = dataplane.stats().receiver_dropped;
    assert_eq!(shed, PUBLISHES - 1, "a mailbox of one keeps the newest {ctx}");
    let on_disk: u64 = recover_all(&dir, shards)
        .iter()
        .flat_map(|report| &report.records)
        .map(|record| match record.event {
            AuditEvent::DeliveryDropped { dropped, .. } => dropped,
            _ => 0,
        })
        .sum();
    assert_eq!(on_disk, shed, "every shed is evidenced on disk when drain returns {ctx}");
    dataplane.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every abandoned hand-off is on disk once `drain` returns: the first hand-off of a
/// one-publish batch panics with no restart budget left, the shard degrades, and it
/// abandons the second subscriber's hand-off in the same batch. Both `DeliveryLost`
/// records — the one the supervisor settled and the one the degraded batch appended
/// — are recovered from the live engine's directory.
#[test]
fn every_abandoned_hand_off_is_on_disk_when_drain_returns() {
    let (_, _, ctx) = fleet_under_test();
    let dir = durable_root("drain-abandoned");
    let seed = env_u64("LEGALIOT_FLEET_SEED", 1);
    let registry = Arc::new(FailpointRegistry::new(seed).with_spec(
        FailpointSpec::on_hits(FailpointSite::MailboxHandOff, FaultKind::Panic, 0, 0).limit(1),
    ));
    let config = DataplaneConfig {
        restart_budget: 0,
        failpoints: Some(registry),
        ..durable_config(1, &dir)
    };
    let (dataplane, _mailboxes, message) = fan_out_plane(config, &["sub-a", "sub-b"]);
    dataplane.publish_message("pub", &message, Timestamp(10)).unwrap();
    dataplane.drain();
    assert_eq!(dataplane.stats().degraded_shards, 1, "the hand-off panic degraded the shard {ctx}");
    let mut lost: Vec<String> = recover_all(&dir, 1)[0]
        .records
        .iter()
        .filter_map(|record| match &record.event {
            AuditEvent::DeliveryLost { destination, cause, .. } => {
                assert!(cause.starts_with("mailbox hand-off abandoned"), "{cause} {ctx}");
                Some(destination.clone())
            }
            _ => None,
        })
        .collect();
    lost.sort();
    assert_eq!(lost, ["sub-a", "sub-b"], "both abandoned hand-offs are on disk {ctx}");
    dataplane.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A shard restart inside a durable batch: one publish fans out to eight subscribers
/// on one shard, and the `shard.process` failpoint panics on a delivery the seed picks
/// in the middle of that batch, while the records of the deliveries before it are
/// still unsealed frames. The supervisor settles the delivery as lost, appends the
/// `ShardRestarted` record and writes the frames; recovered from disk after shutdown,
/// the chain is intact across the restart, the restart follows the records appended
/// before the panic (the lost delivery's own record between them), and the
/// accounting identity holds.
#[test]
fn a_shard_restart_inside_a_durable_batch_keeps_the_chain_on_disk() {
    let (_, _, ctx) = fleet_under_test();
    let dir = durable_root("restart");
    let seed = env_u64("LEGALIOT_FLEET_SEED", 1);
    let before_panic = 1 + seed % 6;
    let registry = Arc::new(
        FailpointRegistry::new(seed).with_spec(
            FailpointSpec::on_hits(FailpointSite::ShardProcess, FaultKind::Panic, before_panic, 0)
                .limit(1),
        ),
    );
    let config = DataplaneConfig {
        restart_budget: 1,
        failpoints: Some(Arc::clone(&registry)),
        ..durable_config(1, &dir)
    };
    let subscribers: Vec<String> = (0..8).map(|n| format!("sub-{n}")).collect();
    let names: Vec<&str> = subscribers.iter().map(String::as_str).collect();
    let (dataplane, _mailboxes, message) = fan_out_plane(config, &names);
    const PUBLISHES: u64 = 3;
    for t in 0..PUBLISHES {
        dataplane.publish_message("pub", &message, Timestamp(10 + t)).unwrap();
    }
    dataplane.drain();
    let stats = dataplane.shutdown().stats;
    assert_eq!(registry.fired(FailpointSite::ShardProcess), 1, "the panic fired once {ctx}");
    assert_eq!((stats.shard_restarts, stats.deliveries_lost), (1, 1), "{stats:?} {ctx}");
    assert_eq!(stats.published, 8 * PUBLISHES, "{ctx}");
    assert_eq!(
        stats.published,
        stats.delivered + stats.denied + stats.missing_endpoint + stats.deliveries_lost,
        "accounting identity across the restart {ctx}: {stats:?}"
    );

    let report = &recover_all(&dir, 1)[0];
    assert!(report.chain.is_intact(), "the chain verifies across the restart {ctx}");
    assert!(report.truncations.is_empty(), "a clean shutdown leaves no torn tail {ctx}");
    let records = &report.records;
    let restarts: Vec<usize> = (0..records.len())
        .filter(|&n| matches!(records[n].event, AuditEvent::ShardRestarted { .. }))
        .collect();
    assert_eq!(restarts.len(), 1, "one restart on disk {ctx}");
    let restart = restarts[0];
    let flow_checked = |record: &legaliot::audit::AuditRecord| matches!(&record.event, AuditEvent::FlowChecked { decision, .. } if decision.is_allowed());
    let lost = &records[restart - 1];
    assert!(
        matches!(&lost.event, AuditEvent::DeliveryLost { cause, .. } if cause.contains("failpoint")),
        "the lost delivery is settled just before the restart {ctx}: {:?}",
        lost.event
    );
    assert_eq!(
        restart - 1,
        before_panic as usize,
        "every delivery enforced before the panic is on disk before its loss {ctx}"
    );
    assert!(records[..restart - 1].iter().all(flow_checked), "{ctx}");
    for pair in records[restart - 2..=restart].windows(2) {
        assert_eq!(pair[1].previous_hash, pair[0].hash, "the restart chains on {ctx}");
        assert_eq!(pair[1].id.0, pair[0].id.0 + 1, "{ctx}");
    }
    let after = records[restart + 1..].iter().filter(|record| flow_checked(record)).count();
    assert_eq!(before_panic + after as u64, stats.delivered, "every delivery is on disk {ctx}");
    std::fs::remove_dir_all(&dir).unwrap();
}
