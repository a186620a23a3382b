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

use legaliot::audit::{AuditEvent, SegmentStore};
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
