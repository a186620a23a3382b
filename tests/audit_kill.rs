//! Evidence before effect, under a process kill: every delivery a consumer received
//! from a durable, fully audited dataplane has its allowed `FlowChecked` record on
//! disk after the process is SIGKILLed — no graceful exit, no shutdown epilogue — and
//! the channel it came by has its established `ChannelChanged` record on the control
//! plane's trail.
//!
//! The test re-executes its own binary as a child (`--exact` on the child test, with
//! `LEGALIOT_KILL_CHILD_DIR` naming the persistence root). The child runs the smart-home
//! topology on a durable dataplane — two shards, `AuditDetail::Full`, retention 8 192,
//! batch 1 024 — publishing without end, every message with its own `sent_at_millis`,
//! and one consumer thread per mailbox prints one `recv <sender> <destination> <data
//! item>` line per delivery, flushed. The parent reads a seeded number of those lines,
//! kills the child, recovers each shard's segments and the control directory, and checks
//! that every chain is intact, that the shards hold an allowed `FlowChecked` record for
//! every line it read, and that the control trail holds an established `ChannelChanged`
//! record for the `(sender, destination)` pair of each.
//!
//! Reproducible from its seed: `LEGALIOT_FLEET_SEED` (default 1) picks the topology's
//! seed and the number of lines read before the kill.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use legaliot::audit::{AuditEvent, SegmentStore, Truncation};
use legaliot::context::{ContextSnapshot, Timestamp};
use legaliot::dataplane::{smart_home, AuditDetail, Dataplane, DataplaneConfig, PersistenceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Names the child's persistence root; without it the child test returns at once.
const CHILD_DIR: &str = "LEGALIOT_KILL_CHILD_DIR";
/// The child test, as `--exact` names it.
const CHILD_TEST: &str = "child_runs_a_durable_dataplane_until_killed";
/// What opens each line a consumer prints per delivery.
const PREFIX: &str = "recv ";
const SHARDS: usize = 2;
/// How long the parent waits for the lines it wants before it fails.
const WATCHDOG: Duration = Duration::from_secs(120);

fn seed() -> u64 {
    std::env::var("LEGALIOT_FLEET_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}

fn config(dir: &Path) -> DataplaneConfig {
    DataplaneConfig {
        shards: SHARDS,
        audit_detail: AuditDetail::Full,
        audit_batch: 1024,
        audit_retention: Some(8192),
        persistence: Some(PersistenceConfig::at(dir)),
        ..DataplaneConfig::default()
    }
}

/// The child: publishes until it is killed (or, orphaned, until a time limit).
#[test]
fn child_runs_a_durable_dataplane_until_killed() {
    let Some(dir) = std::env::var_os(CHILD_DIR) else { return };
    std::thread::spawn(|| {
        std::thread::sleep(2 * WATCHDOG);
        std::process::exit(3);
    });
    let topology = smart_home(8, seed());
    let dataplane = Dataplane::new("killed", config(Path::new(&dir)));
    topology
        .install_with_payload_schemas(&dataplane, &ContextSnapshot::default(), Timestamp(1))
        .expect("a fresh engine takes the topology");
    let mut receivers: Vec<&str> = topology.edges.iter().map(|(_, to)| to.as_str()).collect();
    receivers.sort_unstable();
    receivers.dedup();
    for name in receivers {
        let subscriber = dataplane.open_subscriber(name).expect("registered");
        std::thread::spawn(move || {
            while let Ok(message) = subscriber.recv() {
                let mut out = std::io::stdout().lock();
                let (message_type, at) = (message.message_type(), message.sent_at_millis());
                let (sender, destination) = (message.sender(), subscriber.name());
                writeln!(out, "{PREFIX}{sender} {destination} {message_type}@{at}").unwrap();
                out.flush().unwrap();
            }
        });
    }
    let feeds = topology.publisher_messages();
    for (sent_at, (publisher, message)) in (1..).zip(feeds.iter().cycle()) {
        dataplane.publish_message(publisher, message, Timestamp(sent_at)).expect("publishes");
    }
}

/// Kills the child when dropped, so no path out of the parent leaves it running.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn every_delivery_a_consumer_saw_survives_a_kill() {
    let seed = seed();
    let wanted: usize = StdRng::seed_from_u64(seed).gen_range(2_000..12_000);
    let ctx = format!("[reproduce with LEGALIOT_FLEET_SEED={seed}: {wanted} lines]");
    let dir: PathBuf =
        std::env::temp_dir().join(format!("legaliot-kill-s{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut child = KillOnDrop(
        Command::new(std::env::current_exe().expect("the test binary"))
            .args(["--exact", CHILD_TEST, "--nocapture", "--test-threads=1"])
            .env(CHILD_DIR, &dir)
            .stdout(Stdio::piped())
            .spawn()
            .expect("the child starts"),
    );
    let stdout = child.0.stdout.take().expect("piped");
    let (lines, received) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { return };
            if let Some(delivery) = line.strip_prefix(PREFIX) {
                if lines.send(delivery.to_string()).is_err() {
                    return;
                }
            }
        }
    });
    let deadline = Instant::now() + WATCHDOG;
    let mut seen = Vec::with_capacity(wanted);
    while seen.len() < wanted {
        let left = deadline.saturating_duration_since(Instant::now());
        match received.recv_timeout(left) {
            Ok(line) => seen.push(line),
            Err(error) => panic!("{} of {wanted} lines, then {error:?} {ctx}", seen.len()),
        }
    }
    child.0.kill().expect("SIGKILL");
    child.0.wait().expect("the child is reaped");

    let mut evidenced = HashSet::new();
    for shard in 0..SHARDS {
        let recovered = SegmentStore::recover(dir.join(format!("shard-{shard}")))
            .unwrap_or_else(|error| panic!("shard {shard} recovers: {error} {ctx}"));
        assert!(recovered.chain.is_intact(), "shard {shard}: {:?} {ctx}", recovered.chain);
        for record in recovered.records {
            if let AuditEvent::FlowChecked {
                source,
                destination,
                decision,
                data_item: Some(item),
                ..
            } = record.event
            {
                if !decision.is_denied() {
                    evidenced.insert(format!("{source} {destination} {item}"));
                }
            }
        }
    }
    let missing: Vec<&String> = seen.iter().filter(|line| !evidenced.contains(*line)).collect();
    assert!(
        missing.is_empty(),
        "{} of {} deliveries received before the kill have no FlowChecked on disk, \
         first {:?} {ctx}",
        missing.len(),
        seen.len(),
        missing.first()
    );

    let control_dir = PersistenceConfig::at(&dir).control_dir();
    let control = SegmentStore::recover(&control_dir)
        .unwrap_or_else(|error| panic!("the control trail recovers: {error} {ctx}"));
    assert!(control.chain.is_intact(), "control: {:?} {ctx}", control.chain);
    let mut established = HashSet::new();
    for record in control.records {
        if let AuditEvent::ChannelChanged { from, to, established: true, .. } = record.event {
            established.insert(format!("{from} {to}"));
        }
    }
    let unchannelled: Vec<&String> = seen
        .iter()
        .filter(|line| {
            let pair: Vec<&str> = line.splitn(3, ' ').take(2).collect();
            !established.contains(&pair.join(" "))
        })
        .collect();
    assert!(
        unchannelled.is_empty(),
        "{} of {} deliveries received before the kill came by a channel with no \
         established ChannelChanged on disk, first {:?} {ctx}",
        unchannelled.len(),
        seen.len(),
        unchannelled.first()
    );
    println!(
        "{} deliveries received, each evidenced on disk with its channel ({} established) {ctx}",
        seen.len(),
        established.len()
    );
    std::fs::remove_dir_all(&dir).expect("the temp dir goes");
}

/// The child spawned on `dir`, SIGKILLed once this process has read `wanted` of its
/// delivery lines: the lines.
fn lines_before_a_kill(dir: &Path, wanted: usize, ctx: &str) -> Vec<String> {
    let mut child = KillOnDrop(
        Command::new(std::env::current_exe().expect("the test binary"))
            .args(["--exact", CHILD_TEST, "--nocapture", "--test-threads=1"])
            .env(CHILD_DIR, dir)
            .stdout(Stdio::piped())
            .spawn()
            .expect("the child starts"),
    );
    let stdout = child.0.stdout.take().expect("piped");
    let (lines, received) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { return };
            if let Some(delivery) = line.strip_prefix(PREFIX) {
                if lines.send(delivery.to_string()).is_err() {
                    return;
                }
            }
        }
    });
    let deadline = Instant::now() + WATCHDOG;
    let mut seen = Vec::with_capacity(wanted);
    while seen.len() < wanted {
        let left = deadline.saturating_duration_since(Instant::now());
        match received.recv_timeout(left) {
            Ok(line) => seen.push(line),
            Err(error) => panic!("{} of {wanted} lines, then {error:?} {ctx}", seen.len()),
        }
    }
    child.0.kill().expect("SIGKILL");
    child.0.wait().expect("the child is reaped");
    seen
}

/// A copy of the trail directory `trail`, beside it, named with `tag`.
fn copy_of(trail: &Path, tag: &str) -> PathBuf {
    let copy = trail.with_extension(tag);
    std::fs::create_dir_all(&copy).unwrap();
    for entry in std::fs::read_dir(trail).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
    }
    copy
}

/// A kill after a clean incarnation. Incarnation 1 runs in this process, publishes and
/// shuts down cleanly, leaving a checkpoint in every trail directory; incarnation 2, the
/// child, resumes on those directories, publishes and is SIGKILLed, so the checkpoints
/// are still incarnation 1's; incarnation 3 re-opens each directory. It trusts the
/// prefix the checkpoint vouches for — on a copy with a byte flipped in that prefix it
/// reports exactly the same — and scans the killed tail from the checkpoint's offset,
/// cutting back and reporting exactly what `recover` does on another copy. Every chain
/// is intact, and every delivery the consumer saw in incarnation 2 has an allowed
/// `FlowChecked` record after incarnation 1's records, and its channel an established
/// `ChannelChanged`.
#[test]
fn a_kill_after_a_clean_incarnation_restarts_from_its_checkpoint() {
    let seed = seed();
    let wanted: usize = StdRng::seed_from_u64(seed ^ 0xc1ea).gen_range(2_000..12_000);
    let ctx = format!("[reproduce with LEGALIOT_FLEET_SEED={seed}: {wanted} lines]");
    let dir: PathBuf =
        std::env::temp_dir().join(format!("legaliot-kill-clean-s{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let persistence = PersistenceConfig::at(&dir);
    let trails: Vec<PathBuf> = (0..SHARDS)
        .map(|shard| persistence.shard_dir(shard))
        .chain([persistence.control_dir()])
        .collect();

    // Incarnation 1: a clean shutdown. Where each trail's chain ends is where incarnation
    // 2's records start.
    let topology = smart_home(8, seed);
    let dataplane = Dataplane::new("killed", config(&dir));
    topology
        .install_with_payload_schemas(&dataplane, &ContextSnapshot::default(), Timestamp(1))
        .expect("a fresh engine takes the topology");
    for (sent_at, (publisher, message)) in
        (1..=300).zip(topology.publisher_messages().iter().cycle())
    {
        dataplane.publish_message(publisher, message, Timestamp(sent_at)).expect("publishes");
    }
    let report = dataplane.shutdown();
    let clean_ends: Vec<u64> =
        report.shard_audit.iter().chain([&report.control_audit]).map(|log| log.next_id()).collect();
    let checkpoints: Vec<Vec<u8>> = trails
        .iter()
        .map(|trail| std::fs::read(trail.join("checkpoint")).expect("a clean close checkpoints"))
        .collect();

    // Incarnation 2: killed.
    let seen = lines_before_a_kill(&dir, wanted, &ctx);

    // Incarnation 3.
    let mut evidenced = HashSet::new();
    let mut established = HashSet::new();
    for ((trail, checkpoint), clean_end) in trails.iter().zip(&checkpoints).zip(&clean_ends) {
        let at = trail.display();
        assert_eq!(&std::fs::read(trail.join("checkpoint")).unwrap(), checkpoint, "{at} {ctx}");
        let audited = copy_of(trail, "recovered");
        let flipped = copy_of(trail, "flipped");
        let first = flipped.join("segment-00000000.seg");
        let mut bytes = std::fs::read(&first).unwrap();
        bytes[24 + 12 + 2] ^= 1; // the first frame's record, which the checkpoint vouches for
        std::fs::write(&first, bytes).unwrap();

        let recovered = SegmentStore::recover(&audited).unwrap();
        let max_segment_records = persistence.max_segment_records;
        let (_, reopened) = SegmentStore::reopen(trail, max_segment_records, None).unwrap();
        let (_, trusting) = SegmentStore::reopen(&flipped, max_segment_records, None).unwrap();
        let shape = |truncations: &[Truncation]| {
            let shape = |t: &Truncation| {
                (
                    t.sequence,
                    t.offset,
                    t.bytes_dropped,
                    t.reason.clone(),
                    t.records_recovered_before,
                )
            };
            truncations.iter().map(shape).collect::<Vec<_>>()
        };
        let expected = (recovered.head_hash, recovered.next_id, shape(&recovered.truncations));
        for (restart, case) in [(&reopened, "the trail"), (&trusting, "the flipped copy")] {
            let found = (restart.head_hash, restart.next_id, shape(&restart.truncations));
            assert_eq!(found, expected, "{at}, {case}: a restart agrees with recover {ctx}");
        }
        assert!(recovered.chain.is_intact(), "{at}: {:?} {ctx}", recovered.chain);
        assert!(recovered.next_id > *clean_end, "{at}: incarnation 2 wrote records {ctx}");
        for record in recovered.records.into_iter().filter(|record| record.id.0 >= *clean_end) {
            match record.event {
                AuditEvent::FlowChecked {
                    source,
                    destination,
                    decision,
                    data_item: Some(item),
                    ..
                } if !decision.is_denied() => {
                    evidenced.insert(format!("{source} {destination} {item}"));
                }
                AuditEvent::ChannelChanged { from, to, established: true, .. } => {
                    established.insert(format!("{from} {to}"));
                }
                _ => {}
            }
        }
        for copy in [audited, flipped] {
            std::fs::remove_dir_all(copy).unwrap();
        }
    }
    let missing: Vec<&String> = seen.iter().filter(|line| !evidenced.contains(*line)).collect();
    assert!(
        missing.is_empty(),
        "{} of {} deliveries received before the kill have no FlowChecked on disk, \
         first {:?} {ctx}",
        missing.len(),
        seen.len(),
        missing.first()
    );
    let unchannelled = seen.iter().filter(|line| {
        let pair: Vec<&str> = line.splitn(3, ' ').take(2).collect();
        !established.contains(&pair.join(" "))
    });
    assert_eq!(unchannelled.count(), 0, "deliveries by a channel with no record {ctx}");
    println!(
        "{} deliveries after a clean incarnation, each evidenced on disk with its channel {ctx}",
        seen.len()
    );
    std::fs::remove_dir_all(&dir).expect("the temp dir goes");
}
