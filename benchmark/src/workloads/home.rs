//! `home_steady` and `home_durable`: the smart-home topology (Fig. 7) on the sharded
//! dataplane, one generator thread and one consumer thread.
//!
//! Phase `sat` is a closed loop of a fixed number of `publish_message` calls; phase
//! `paced` is an open loop at a fixed rate on 250 µs ticks, timed from each message's
//! due time to the consumer's clock read after the drain that returned it. Counts and
//! rates are absolute constants (times `--seconds`), never fractions of a measured
//! saturation, so two builds see identical load. The two phases alternate in a few
//! cycles, so that each of them samples the whole length of the run: the host's speed
//! changes for seconds at a time, and a phase run in one piece would read one level.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use legaliot_audit::{AuditLog, AuditRecord, SegmentStore};
use legaliot_context::{ContextSnapshot, Timestamp};
use legaliot_dataplane::{
    payload_schema, smart_home, AuditDetail, Dataplane, DataplaneConfig, DataplaneReport,
    DataplaneStats, OverflowPolicy, PayloadMode, PersistenceConfig, ReceivedMessage,
    RecvTimeoutError, Subscriber, Topology,
};
use legaliot_ifc::SecurityContext;
use legaliot_middleware::{AttributeValue, FrozenMessage, FrozenSchema, Message};
use legaliot_obs::ObsConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::outcome::{timed, Outcome, RunOptions};
use crate::pace::{now_ns, tighten_timer_slack, wait_until, Schedule};
use crate::probes::ProbeInputs;
use crate::spans::SpanBuffer;
use crate::stats;
use crate::workloads::{
    open_send_rule, record_engine_counters, record_latency_tail, record_stage_metrics,
    shard_work_ns,
};

/// Worker shards: the box has two cores.
pub const SHARDS: usize = 2;
/// Patients in the smart-home topology.
pub const PATIENTS: usize = 8;
/// A `publish_message` call longer than this was blocked on a full ingress queue.
const BLOCKED_CALL_NS: u64 = 50_000;
/// How long the consumer blocks on its busiest endpoint after an empty sweep.
const IDLE_WAIT: Duration = Duration::from_micros(200);

/// Message counts and rates of one run: constants times `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Untimed messages before the first timed phase.
    pub warmup: u64,
    /// Cycles of one closed-loop and one open-loop segment each; the counts below are
    /// totals over the cycles and whole multiples of them.
    pub cycles: u64,
    /// `publish_message` calls of the closed-loop phase.
    pub sat: u64,
    /// Messages per second of the open-loop phase.
    pub paced_rate: u64,
    /// Messages of the open-loop phase.
    pub paced: u64,
    /// Windows of equal work the closed-loop phase is cut into.
    pub sat_windows: u64,
    /// Windows of equal work the open-loop phase is cut into.
    pub paced_windows: u64,
    /// Set-up repetitions behind `setup_s`.
    pub setups: usize,
    /// Records a durable restart has to recover (durable only).
    pub history: u64,
}

impl Sizing {
    /// The sizing of `home_steady` (or `home_durable`) for a run of `seconds`.
    pub fn of(durable: bool, seconds: f64, smoke: bool) -> Self {
        let scale = if smoke { 0.01 } else { 1.0 };
        let seconds = seconds * scale;
        // Per second of run, steady: 0.4 s of closed loop at today's ≈650 k/s and 0.6 s
        // of open loop at 100 k/s (≈15–20 % of saturation; at 200 k/s four threads on two
        // cores fell behind whenever the host slowed, and the latency read backlog).
        // Durable: ≈0.25 s of closed loop at ≈65 k/s and 0.2 s of open loop at 25 k/s —
        // recovering and re-verifying what that persists (two records per message,
        // ≈8 µs each) takes about as long again, and has to fit the run.
        let (sat_per_s, paced_rate, paced_share, warmup, history) = if durable {
            (16_384.0, 25_000, 0.2, 10_000.0, 10_000.0)
        } else {
            (260_000.0, 100_000, 0.6, 100_000.0, 0.0)
        };
        // Steady windows are ≈20–30 ms of work. A durable closed-loop window has to span
        // many prunes (one per 4096 messages per shard, ≈35 ms of encoding each) or it
        // reads one stall or none: it is a whole segment, ≈33 k messages, ≈0.5 s.
        let (cycles, sat_windows, paced_windows) = if smoke {
            (2, 2, 2)
        } else if durable {
            (8, 8, 200)
        } else {
            (4, 240, 240)
        };
        Sizing {
            warmup: (warmup * scale) as u64,
            cycles,
            // Whole windows, so the last window edge of a segment is its last receipt.
            sat: (sat_per_s * seconds) as u64 / sat_windows * sat_windows,
            paced_rate,
            paced: Schedule::new(paced_rate).messages_in(paced_share * seconds) / paced_windows
                * paced_windows,
            sat_windows,
            paced_windows,
            // A steady set-up takes ≈100 µs, so it is repeated many times; a durable one
            // recovers `history` first and takes ≈0.15 s.
            setups: if smoke {
                2
            } else if durable {
                7
            } else {
                101
            },
            history: (history * scale) as u64,
        }
    }

    fn total(&self) -> u64 {
        self.warmup + self.sat + self.paced
    }

    /// Closed-loop messages of one cycle; they come first in it.
    fn sat_per_cycle(&self) -> u64 {
        self.sat / self.cycles
    }

    /// Open-loop messages of one cycle.
    fn paced_per_cycle(&self) -> u64 {
        self.paced / self.cycles
    }

    /// Sequence number of the first message of `cycle`.
    fn cycle_base(&self, cycle: u64) -> u64 {
        self.warmup + cycle * (self.sat_per_cycle() + self.paced_per_cycle())
    }

    /// Which phase message `seq` belongs to: a cycle's closed-loop messages come first.
    fn phase_of(&self, seq: u64) -> Phase {
        let Some(offset) = seq.checked_sub(self.warmup) else { return Phase::Warmup };
        let cycle_len = self.sat_per_cycle() + self.paced_per_cycle();
        match (offset % cycle_len).checked_sub(self.sat_per_cycle()) {
            None => Phase::Sat,
            Some(index) => Phase::Paced { cycle: offset / cycle_len, index },
        }
    }
}

/// Where a message falls in the run.
enum Phase {
    Warmup,
    Sat,
    /// The `index`-th message of `cycle`'s open-loop segment.
    Paced {
        cycle: u64,
        index: u64,
    },
}

/// The dataplane configuration of the two workloads.
pub fn config(durable_dir: Option<&Path>, traced: bool) -> DataplaneConfig {
    let base = DataplaneConfig {
        shards: SHARDS,
        payload_mode: PayloadMode::ZeroCopy,
        cache_decisions: true,
        cache_ac_decisions: true,
        audit_batch: 1024,
        mailbox_capacity: 4096,
        overflow: OverflowPolicy::Block,
        telemetry: if traced { ObsConfig::enabled() } else { ObsConfig::disabled() },
        ..DataplaneConfig::default()
    };
    match durable_dir {
        None => DataplaneConfig {
            audit_detail: AuditDetail::Summarised,
            audit_retention: Some(65_536),
            ..base
        },
        Some(dir) => DataplaneConfig {
            audit_detail: AuditDetail::Full,
            audit_retention: Some(8192),
            persistence: Some(PersistenceConfig {
                dir: dir.to_path_buf(),
                max_segment_records: 65_536,
                sync_on_flush: true,
            }),
            ..base
        },
    }
}

/// One publisher's input and what its single subscriber must observe.
#[derive(Debug, Clone)]
pub struct Feed {
    /// The publishing endpoint.
    pub publisher: String,
    /// The message it publishes (seeded values, fixed encoded size).
    pub message: Message,
    /// The reference: encoded payload bytes of `message`.
    payload: Vec<u8>,
    /// The reference: presence mask with `value` and `unit` set, `subject-id` quenched.
    present: u64,
}

/// The seeded inputs: every publisher of the topology in a seeded order, each with a
/// message whose reading and subject are drawn from the seed.
pub fn feeds(topology: &Topology, seed: u64) -> Vec<Feed> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut feeds: Vec<Feed> = topology
        .publisher_messages()
        .into_iter()
        .map(|(publisher, sample)| {
            let message = Message::new(sample.message_type.as_str(), SecurityContext::public())
                .with("value", AttributeValue::Float(40.0 + rng.gen_range(0..1200) as f64 / 10.0))
                .with("unit", AttributeValue::Text("bpm".into()))
                .with(
                    "subject-id",
                    AttributeValue::Text(format!("subject-{:04}", rng.gen_range(0..10_000))),
                );
            let schema = FrozenSchema::new(&payload_schema(&message.message_type))
                .expect("the demo schema has three attributes");
            let present = ["value", "unit"]
                .iter()
                .map(|name| 1u64 << schema.index_of(name).expect("declared attribute"))
                .sum();
            let frozen = FrozenMessage::freeze(&message, Arc::new(schema))
                .expect("the seeded message conforms to its schema");
            Feed { publisher, payload: frozen.payload().as_slice().to_vec(), present, message }
        })
        .collect();
    // Fisher–Yates: the stand-in `rand` has no `SliceRandom`.
    for i in (1..feeds.len()).rev() {
        feeds.swap(i, rng.gen_range(0..i + 1));
    }
    feeds
}

/// Creates an engine, installs the topology with its payload schemas, and opens a
/// receiver on every subscribing endpoint.
pub fn install(
    topology: &Topology,
    name: &str,
    config: DataplaneConfig,
) -> (Dataplane, Vec<Subscriber>) {
    let dataplane = Dataplane::new(name, config);
    let admitted = topology
        .install_with_payload_schemas(&dataplane, &ContextSnapshot::default(), Timestamp(1))
        .expect("a fresh engine takes the scenario topology");
    assert_eq!(admitted, topology.edges.len(), "scenario edges are legal");
    let subscribers = receivers(topology)
        .iter()
        .map(|endpoint| dataplane.open_subscriber(endpoint).expect("no receiver attached yet"))
        .collect();
    (dataplane, subscribers)
}

/// Receiving endpoints, busiest (most inbound edges) first.
fn receivers(topology: &Topology) -> Vec<String> {
    let mut inbound: Vec<(usize, String)> = Vec::new();
    for (_, to) in &topology.edges {
        match inbound.iter_mut().find(|(_, name)| name == to) {
            Some((count, _)) => *count += 1,
            None => inbound.push((1, to.clone())),
        }
    }
    inbound.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    inbound.into_iter().map(|(_, name)| name).collect()
}

/// What generator and consumer share: a few write-once or monotone words, nothing per
/// message.
#[derive(Debug)]
struct Shared {
    /// Per cycle, the start of its paced segment (ns since epoch), written once before
    /// the segment's first tick.
    paced_start_ns: Vec<AtomicU64>,
    /// Messages the consumer has taken so far (bumped once per drained batch).
    received: AtomicU64,
    /// Set by the generator once everything is published and enforced.
    stop: AtomicBool,
}

/// What the consumer thread hands back.
struct Consumed {
    /// Receipts per sequence number (every publisher has exactly one subscriber).
    counts: Vec<u8>,
    /// Bodies that differed from the reference.
    bad_bodies: u64,
    /// Paced-phase latency per message (ns, due → received), indexed by paced index.
    latency_ns: Vec<u32>,
    /// Per sat segment, the clock reads at which its received count crossed each window
    /// edge: one more than the windows of a segment.
    sat_marks_ns: Vec<u64>,
    /// Time spent draining and checking (loop time minus idle waits), over the sat phase.
    sat_busy_ns: u64,
    /// Sweeps over every receiver that found nothing.
    empty_sweeps: u64,
    /// 1-in-64 sample of bodies, decoded attribute by attribute after the run.
    sampled: Vec<ReceivedMessage>,
    spans: SpanBuffer,
}

struct ConsumerPlan {
    epoch: Instant,
    sizing: Sizing,
    feeds: Vec<Feed>,
    shared: Arc<Shared>,
    span_capacity: usize,
    inject_corruption: bool,
}

/// The consumer thread's state: the plan, what it has seen, and what it hands back.
struct Consumer {
    plan: ConsumerPlan,
    schedule: Schedule,
    out: Consumed,
    /// Of the sat segment being received: messages so far, first clock read, idle time.
    sat_received: u64,
    sat_first_ns: u64,
    idle_in_sat_ns: u64,
}

impl Consumer {
    fn new(plan: ConsumerPlan) -> Self {
        let sizing = plan.sizing;
        let out = Consumed {
            counts: vec![0; sizing.total() as usize],
            bad_bodies: 0,
            latency_ns: vec![u32::MAX; sizing.paced as usize],
            sat_marks_ns: Vec::with_capacity((sizing.sat_windows + sizing.cycles) as usize),
            sat_busy_ns: 0,
            empty_sweeps: 0,
            sampled: Vec::with_capacity((sizing.total() / crate::spans::SAMPLE_EVERY) as usize + 1),
            spans: SpanBuffer::with_capacity(plan.span_capacity),
        };
        Consumer {
            schedule: Schedule::new(sizing.paced_rate),
            plan,
            out,
            sat_received: 0,
            sat_first_ns: 0,
            idle_in_sat_ns: 0,
        }
    }

    fn in_sat(&self) -> bool {
        self.sat_received > 0
    }

    /// Accounts for one drained batch: `before_ns` is the clock read at the start of the
    /// sweep, `at_ns` the one after the drain call that returned the batch — the receive
    /// time of every message in it.
    fn take(&mut self, batch: Vec<ReceivedMessage>, before_ns: u64, at_ns: u64) {
        let sizing = self.plan.sizing;
        let window = sizing.sat / sizing.sat_windows;
        for mut received in batch {
            let seq = received.sent_at_millis();
            if self.plan.inject_corruption && seq >= sizing.warmup {
                self.plan.inject_corruption = false;
                received = corrupted(&received);
            }
            let feed = &self.plan.feeds[(seq % self.plan.feeds.len() as u64) as usize];
            let intact = received.frozen().is_some_and(|frozen| {
                frozen.present_mask() == feed.present
                    && frozen.payload().as_slice() == feed.payload.as_slice()
                    && frozen.sender() == feed.publisher
            });
            self.out.bad_bodies += u64::from(!intact);
            if let Some(count) = self.out.counts.get_mut(seq as usize) {
                *count = count.saturating_add(1);
            }
            match sizing.phase_of(seq) {
                Phase::Warmup => {}
                Phase::Paced { cycle, index } => {
                    let start_ns =
                        self.plan.shared.paced_start_ns[cycle as usize].load(Ordering::Acquire);
                    let due_ns = start_ns + self.schedule.due_ns(index);
                    let latency = at_ns.saturating_sub(due_ns).min(u64::from(u32::MAX - 1));
                    let slot = (cycle * sizing.paced_per_cycle() + index) as usize;
                    if let Some(slot) = self.out.latency_ns.get_mut(slot) {
                        *slot = latency as u32;
                    }
                    if self.out.spans.samples(seq) {
                        self.out.spans.record("deliver", "", seq, due_ns, at_ns);
                    }
                }
                Phase::Sat => {
                    if self.sat_received == 0 {
                        self.sat_first_ns = before_ns;
                        self.out.sat_marks_ns.push(before_ns);
                    }
                    self.sat_received += 1;
                    if self.sat_received % window == 0 {
                        self.out.sat_marks_ns.push(at_ns);
                    }
                    if self.sat_received == sizing.sat_per_cycle() {
                        self.out.sat_busy_ns +=
                            (at_ns - self.sat_first_ns).saturating_sub(self.idle_in_sat_ns);
                        (self.sat_received, self.idle_in_sat_ns) = (0, 0);
                    }
                }
            }
            if seq % crate::spans::SAMPLE_EVERY == 0 {
                if self.out.spans.samples(seq) {
                    self.out.spans.record("drain", "deliver", seq, before_ns, at_ns);
                }
                self.out.sampled.push(received);
            }
        }
    }

    /// Sweeps `Subscriber::drain()` over every receiver; when a sweep is empty, blocks
    /// on the busiest endpoint (the first) — it never spins.
    fn run(mut self, subscribers: Vec<Subscriber>) -> Consumed {
        let epoch = self.plan.epoch;
        let shared = Arc::clone(&self.plan.shared);
        loop {
            let mut got = 0u64;
            let before_ns = now_ns(epoch);
            for subscriber in &subscribers {
                let batch = subscriber.drain();
                if batch.is_empty() {
                    continue;
                }
                let at_ns = now_ns(epoch);
                got += batch.len() as u64;
                self.take(batch, before_ns, at_ns);
            }
            if got > 0 {
                shared.received.fetch_add(got, Ordering::Release);
                continue;
            }
            self.out.empty_sweeps += 1;
            if shared.stop.load(Ordering::Acquire) {
                return self.out;
            }
            let before_ns = now_ns(epoch);
            let arrived = subscribers[0].recv_timeout(IDLE_WAIT);
            let at_ns = now_ns(epoch);
            if self.in_sat() {
                self.idle_in_sat_ns += at_ns - before_ns;
            }
            match arrived {
                Ok(message) => {
                    self.take(vec![message], at_ns, at_ns);
                    shared.received.fetch_add(1, Ordering::Release);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return self.out,
            }
        }
    }
}

/// The received body with `value` quenched too — what the corruption test hook feeds
/// the checker in place of one real delivery.
fn corrupted(received: &ReceivedMessage) -> ReceivedMessage {
    let frozen = received.frozen().expect("zero-copy mode delivers frozen bodies");
    let value = 1u64 << frozen.schema().index_of("value").expect("declared attribute");
    ReceivedMessage::Frozen(Arc::new(frozen.quench(value)))
}

/// Generator-side timings of one run.
#[derive(Default)]
struct Published {
    errors: u64,
    /// Per sat segment, the clock read before its first publish.
    sat_first_ns: Vec<u64>,
    /// Σ duration of sat-phase `publish_message` calls (traced runs only).
    sat_publish_ns: u64,
    sat_blocked_calls: u64,
    /// How late the generator woke for each tick of the paced phase.
    late_ns: Vec<u32>,
    drain_ms: Vec<f64>,
}

struct Generator<'a> {
    epoch: Instant,
    dataplane: &'a Dataplane,
    feeds: &'a [Feed],
    shared: &'a Shared,
    traced: bool,
    spans: SpanBuffer,
    published: Published,
}

impl Generator<'_> {
    fn publish(&mut self, seq: u64) {
        let feed = &self.feeds[(seq % self.feeds.len() as u64) as usize];
        if self.dataplane.publish_message(&feed.publisher, &feed.message, Timestamp(seq)).is_err() {
            self.published.errors += 1;
        }
    }

    /// A publish with the call timed (traced runs): busy time, blocked calls, spans.
    fn publish_timed(&mut self, seq: u64, sat: bool) {
        let start_ns = now_ns(self.epoch);
        self.publish(seq);
        let end_ns = now_ns(self.epoch);
        if sat {
            self.published.sat_publish_ns += end_ns - start_ns;
            self.published.sat_blocked_calls += u64::from(end_ns - start_ns > BLOCKED_CALL_NS);
        }
        if self.spans.samples(seq) {
            self.spans.record("publish", "deliver", seq, start_ns, end_ns);
        }
    }

    /// Waits until the shards have enforced and the consumer has taken `upto` messages.
    fn settle(&mut self, upto: u64) {
        let (_, seconds) = timed(|| self.dataplane.drain());
        self.published.drain_ms.push(seconds * 1e3);
        while self.shared.received.load(Ordering::Acquire) < upto {
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    fn closed_loop(&mut self, range: std::ops::Range<u64>, sat: bool) {
        if sat {
            self.published.sat_first_ns.push(now_ns(self.epoch));
        }
        for seq in range {
            if self.traced {
                self.publish_timed(seq, sat);
            } else {
                self.publish(seq);
            }
        }
    }

    fn open_loop(&mut self, cycle: u64, base: u64, count: u64, schedule: Schedule) {
        let start_ns = now_ns(self.epoch) + 1_000_000;
        self.shared.paced_start_ns[cycle as usize].store(start_ns, Ordering::Release);
        let mut index = 0u64;
        let mut tick = 0u64;
        while index < count {
            let late = wait_until(self.epoch, start_ns + tick * crate::pace::TICK_NS);
            self.published.late_ns.push(late.min(u64::from(u32::MAX)) as u32);
            let end = schedule.first_after(tick).min(count);
            // The messages due on one tick go out back to back.
            while index < end {
                if self.traced {
                    self.publish_timed(base + index, false);
                } else {
                    self.publish(base + index);
                }
                index += 1;
            }
            tick += 1;
        }
    }
}

/// One set-up sample: the topology built from scratch, a fresh engine on `dir`
/// (recovering whatever history it holds), everything installed, receivers open — then
/// torn down again. Returns the set-up time in seconds.
fn setup_sample(seed: u64, dir: Option<&Path>) -> f64 {
    let ((dataplane, subscribers), seconds) =
        timed(|| install(&smart_home(PATIENTS, seed), "home-setup", config(dir, false)));
    drop(subscribers);
    dataplane.shutdown();
    seconds
}

/// Writes `history` records into `dir` so that restarts on it have something to
/// recover: a fixed count, the same for every build.
fn seed_history(topology: &Topology, feeds: &[Feed], dir: &Path, history: u64) {
    let (dataplane, subscribers) = install(topology, "home-history", config(Some(dir), false));
    drop(subscribers);
    for seq in 0..history {
        let feed = &feeds[(seq % feeds.len() as u64) as usize];
        dataplane
            .publish_message(&feed.publisher, &feed.message, Timestamp(seq))
            .expect("publishes");
    }
    dataplane.shutdown();
}

/// Runs `home_steady` (`durable == false`) or `home_durable`.
pub fn run(opts: &RunOptions, durable: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let sizing = Sizing::of(durable, opts.seconds, opts.smoke);
    let topology = smart_home(PATIENTS, opts.seed);
    let feeds = feeds(&topology, opts.seed);
    let epoch = Instant::now();
    let dirs = durable.then(|| DurableDirs::fresh(&opts.durable_dir));
    let slack_ns = tighten_timer_slack();
    outcome.samples.insert("timer_slack_ns".into(), slack_ns.unwrap_or(0));

    // Durable set-ups restart on a directory holding a fixed history, so recovery cost
    // shows in `setup_s`.
    if let Some(dirs) = &dirs {
        seed_history(&topology, &feeds, &dirs.restart, sizing.history);
    }
    // Set-ups are sampled in bursts spread over the run (before the warm-up and after
    // each segment): a burst lasts milliseconds, and the host's speed level changes over
    // seconds, so one burst would read one level.
    let restart_dir = dirs.as_ref().map(|d| d.restart.clone());
    let bursts = 2 * sizing.cycles as usize + 1;
    let mut setups = Vec::with_capacity(sizing.setups);
    let mut sample_setups = |burst: usize| {
        let (from, to) = (sizing.setups * burst / bursts, sizing.setups * (burst + 1) / bursts);
        setups.extend((from..to).map(|_| setup_sample(opts.seed, restart_dir.as_deref())));
    };
    sample_setups(0);

    // The measured engine.
    let main_dir = dirs.as_ref().map(|d| d.main.as_path());
    let (dataplane, subscribers) = install(&topology, "home", config(main_dir, opts.traced));
    let shared = Arc::new(Shared {
        paced_start_ns: (0..sizing.cycles).map(|_| AtomicU64::new(0)).collect(),
        received: AtomicU64::new(0),
        stop: AtomicBool::new(false),
    });
    let plan = ConsumerPlan {
        epoch,
        sizing,
        feeds: feeds.clone(),
        shared: Arc::clone(&shared),
        span_capacity: opts.span_capacity(sizing.total(), 0),
        inject_corruption: opts.inject_corruption,
    };
    let consumer = std::thread::Builder::new()
        .name("consumer".into())
        .spawn(move || Consumer::new(plan).run(subscribers))
        .expect("spawns the consumer thread");

    let mut generator = Generator {
        epoch,
        dataplane: &dataplane,
        feeds: &feeds,
        shared: &shared,
        traced: opts.traced,
        spans: SpanBuffer::with_capacity(opts.span_capacity(sizing.total(), 16)),
        published: Published {
            late_ns: Vec::with_capacity(
                (sizing.paced * crate::pace::TICKS_PER_SEC / sizing.paced_rate + sizing.cycles)
                    as usize,
            ),
            ..Published::default()
        },
    };
    generator.closed_loop(0..sizing.warmup, false);
    generator.settle(sizing.warmup);
    let mut work_in_sat = 0;
    for cycle in 0..sizing.cycles {
        let sat_base = sizing.cycle_base(cycle);
        let paced_base = sat_base + sizing.sat_per_cycle();
        let work_before_sat = shard_work_ns(&dataplane.telemetry());
        generator.closed_loop(sat_base..paced_base, true);
        generator.settle(paced_base);
        work_in_sat += shard_work_ns(&dataplane.telemetry()) - work_before_sat;
        sample_setups(2 * cycle as usize + 1);
        let schedule = Schedule::new(sizing.paced_rate);
        generator.open_loop(cycle, paced_base, sizing.paced_per_cycle(), schedule);
        generator.settle(sizing.cycle_base(cycle + 1));
        sample_setups(2 * cycle as usize + 2);
    }
    outcome.set_undisturbed("setup_s", &setups, false);
    outcome.samples.insert("setups".into(), setups.len() as u64);
    shared.stop.store(true, Ordering::Release);
    let consumed = consumer.join().expect("the consumer thread does not panic");
    let Generator { published, mut spans, .. } = generator;

    let stats = dataplane.stats();
    let telemetry = dataplane.telemetry();
    let shutdown_start = now_ns(epoch);
    let (report, shutdown_s) = timed(|| dataplane.shutdown());
    spans.record("shutdown", "", 0, shutdown_start, now_ns(epoch));
    // The engine's peak, before the checks below load everything it persisted.
    outcome.set("peak_rss_mb", crate::stamp::peak_rss_mb());

    let fanout = sizing.total();
    outcome.attempted = fanout;
    check_deliveries(&mut outcome, &consumed, &published, &stats, fanout);
    let verify_start = now_ns(epoch);
    let (intact, verify_s) = timed(|| {
        report.shard_audit.iter().all(|log| log.verify_chain().is_intact())
            && report.control_audit.verify_chain().is_intact()
    });
    spans.record("verify", "", 0, verify_start, now_ns(epoch));
    outcome.check(intact, || "an audit chain does not verify".into());
    outcome.check(report.worker_panics.is_empty(), || {
        format!("workers panicked: {:?}", report.worker_panics)
    });
    match &dirs {
        Some(dirs) => {
            recover_persisted(&mut outcome, &dirs.main, &report, fanout, epoch, &mut spans)
        }
        None => {
            let retained: usize = report.shard_audit.iter().map(AuditLog::len).sum();
            outcome.set("audit.verify_ns_per_record", verify_s * 1e9 / retained.max(1) as f64);
            outcome.set("audit.records_per_msg", retained as f64 / fanout as f64);
        }
    }

    // ---- end-to-end numbers: the fast-side decile of the windows ----
    let sat = sizing.sat as f64;
    let window = (sizing.sat / sizing.sat_windows) as f64;
    let marks_per_segment = (sizing.sat_windows / sizing.cycles) as usize + 1;
    let segments = consumed.sat_marks_ns.chunks(marks_per_segment);
    let rates: Vec<f64> = segments
        .clone()
        .flat_map(|marks| marks.windows(2))
        .map(|edge| window * 1e9 / (edge[1] - edge[0]).max(1) as f64)
        .collect();
    outcome.set_undisturbed("throughput_msgs_per_s", &rates, true);
    // First publish to last receipt, summed over the segments.
    let sat_wall_ns: u64 = segments
        .zip(&published.sat_first_ns)
        .map(|(marks, first_ns)| marks.last().map_or(0, |last| last.saturating_sub(*first_ns)))
        .sum();
    outcome.set("harness.throughput_mean_msgs_per_s", sat * 1e9 / sat_wall_ns.max(1) as f64);
    let mut latency = consumed.latency_ns;
    let per_window = (latency.len() / sizing.paced_windows as usize).max(1);
    let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
    for chunk in latency.chunks_exact_mut(per_window) {
        let (p50, p90) = stats::window_p50_p90_us(chunk);
        p50s.push(p50);
        p90s.push(p90);
    }
    outcome.set_undisturbed("harness.latency_p50_us", &p50s, false);
    outcome.set_undisturbed("harness.latency_p90_us", &p90s, false);
    record_latency_tail(&mut outcome, &mut latency);
    let mut late_ns = published.late_ns;
    late_ns.sort_unstable();
    let late_us = |ns: Option<u32>| ns.map_or(0.0, f64::from) / 1e3;
    outcome.set("harness.generator_late_p50_us", late_us(stats::nearest_rank(&late_ns, 0.5)));
    outcome.set("harness.generator_max_late_us", late_us(late_ns.last().copied()));
    outcome.samples.insert("sat_messages".into(), sizing.sat);
    outcome.samples.insert("paced_messages".into(), sizing.paced);
    outcome.samples.insert("paced_samples_per_window".into(), per_window as u64);
    outcome.samples.insert("sat_windows".into(), rates.len() as u64);
    outcome.samples.insert("cycles".into(), sizing.cycles);
    outcome.samples.insert("paced_windows".into(), sizing.paced_windows);

    // ---- layer numbers measured around the calls ----
    record_engine_counters(&mut outcome, &stats);
    outcome.set("engine.drain_ms", stats::median(&published.drain_ms));
    outcome.set("engine.shutdown_ms", shutdown_s * 1e3);
    outcome.set("subscriber.empty_sweeps", consumed.empty_sweeps as f64);
    outcome.set("subscriber.drain_ns_per_msg", consumed.sat_busy_ns as f64 / sat);
    outcome.set("ledger.wall", sat_wall_ns as f64 / sat);
    outcome.set("ledger.recv", consumed.sat_busy_ns as f64 / sat);
    if opts.traced {
        outcome.set("engine.publish_ns", published.sat_publish_ns as f64 / sat);
        outcome.set("engine.publish_blocked_share", published.sat_blocked_calls as f64 / sat);
        outcome.set("ledger.publish", published.sat_publish_ns as f64 / sat);
        outcome.set("ledger.shard", work_in_sat as f64 / sat);
        record_stage_metrics(&mut outcome, &telemetry);
        let records = report.shard_audit.iter().flat_map(|log| log.records().iter().cloned());
        let inputs = probe_inputs(&topology, &feeds[0], records.take(4096).collect(), opts);
        crate::probes::run(&inputs, &mut outcome);
    }

    spans.absorb(consumed.spans);
    outcome.spans = spans;
    if let Some(dirs) = dirs {
        dirs.remove();
    }
    outcome
}

/// Every message exactly once, every body the reference's, every counter accounted for.
fn check_deliveries(
    outcome: &mut Outcome,
    consumed: &Consumed,
    published: &Published,
    stats: &DataplaneStats,
    fanout: u64,
) {
    outcome.fail(published.errors, format!("{} publish_message calls failed", published.errors));
    let missing = consumed.counts.iter().filter(|count| **count == 0).count() as u64;
    let duplicated = consumed.counts.iter().filter(|count| **count > 1).count() as u64;
    outcome.fail(missing, format!("{missing} messages never received"));
    outcome.fail(duplicated, format!("{duplicated} messages received more than once"));
    outcome.fail(
        consumed.bad_bodies,
        format!("{} received bodies differ from the reference", consumed.bad_bodies),
    );
    outcome.fail(
        stats.deliveries_lost + stats.receiver_dropped + stats.segment_records_dropped,
        format!(
            "lost {} dropped {} unpersisted {}",
            stats.deliveries_lost, stats.receiver_dropped, stats.segment_records_dropped
        ),
    );
    outcome.check(stats.delivered == fanout && stats.receiver_enqueued == fanout, || {
        format!(
            "delivered {} / enqueued {} of {fanout} published",
            stats.delivered, stats.receiver_enqueued
        )
    });
    outcome.check(
        stats.published
            == stats.delivered + stats.denied + stats.missing_endpoint + stats.deliveries_lost,
        || format!("accounting identity broken: {stats:?}"),
    );
    // The 1-in-64 sample, decoded attribute by attribute.
    for received in &consumed.sampled {
        let decoded = received.get("subject-id").is_none()
            && received.get("unit") == Some(AttributeValue::Text("bpm".into()))
            && matches!(received.get("value"), Some(AttributeValue::Float(v)) if (40.0..160.0).contains(&v));
        outcome.check(decoded, || {
            format!("sampled body {} decodes wrongly", received.sent_at_millis())
        });
    }
}

/// Durable runs: everything persisted under `dir` must come back clean and chained.
/// Recovers one shard at a time, so only one shard's records are resident at once.
fn recover_persisted(
    outcome: &mut Outcome,
    dir: &Path,
    report: &DataplaneReport,
    fanout: u64,
    epoch: Instant,
    spans: &mut SpanBuffer,
) {
    let persistence = PersistenceConfig::at(dir);
    let (mut recover_s, mut reverify_s, mut records) = (0.0, 0.0, 0u64);
    for shard in 0..SHARDS {
        let recover_start = now_ns(epoch);
        let (recovered, seconds) = timed(|| SegmentStore::recover(persistence.shard_dir(shard)));
        spans.record("recover", "", shard as u64, recover_start, now_ns(epoch));
        recover_s += seconds;
        match recovered {
            Err(error) => outcome.fail(1, format!("recovery of shard {shard} failed: {error}")),
            Ok(recovered) => {
                let (chained, seconds) = timed(|| {
                    AuditLog::verify_records(recovered.initial_anchor, &recovered.records)
                        .is_intact()
                });
                reverify_s += seconds;
                records += recovered.records.len() as u64;
                outcome.check(
                    recovered.is_clean() && recovered.chain.is_intact() && chained,
                    || {
                        format!(
                            "shard {shard}: recovery truncated a segment or the chain is broken"
                        )
                    },
                );
            }
        }
    }
    outcome.check(records == report.stats.segment_records_persisted, || {
        format!(
            "recovered {records} of {} persisted records",
            report.stats.segment_records_persisted
        )
    });
    outcome
        .check(report.unsynced_bytes == 0, || format!("{} bytes unsynced", report.unsynced_bytes));
    outcome.set("audit.recover_s", recover_s + reverify_s);
    outcome.set("audit.recover_ns_per_record", recover_s * 1e9 / records.max(1) as f64);
    outcome.set("audit.verify_ns_per_record", reverify_s * 1e9 / records.max(1) as f64);
    outcome.set("audit.records_per_msg", records as f64 / fanout as f64);
    outcome.samples.insert("recovered_records".into(), records);
    if let Some(segments) = &report.segment_stats {
        outcome.set("audit.segment_bytes_per_msg", segments.bytes_written as f64 / fanout as f64);
        outcome.set(
            "audit.segment_bytes_per_record",
            segments.bytes_written as f64 / segments.records_persisted.max(1) as f64,
        );
        outcome.set("audit.segment_sync_count", segments.fsync.count() as f64);
        outcome.set("audit.segment_sync_p99_ms", segments.fsync.p99_ns() as f64 / 1e6);
        outcome.set("audit.segment_sync_max_ms", segments.fsync.max_ns() as f64 / 1e6);
    }
}

/// Probe inputs of a smart-home run: the topology's edges as component pairs, its open
/// `Send` rules, one feed's schema and message, and audit records the run produced.
pub fn probe_inputs(
    topology: &Topology,
    feed: &Feed,
    records: Vec<AuditRecord>,
    opts: &RunOptions,
) -> ProbeInputs {
    let component = |name: &str| topology.components.iter().find(|c| c.name() == name).cloned();
    ProbeInputs {
        pairs: topology
            .edges
            .iter()
            .filter_map(|(from, to)| Some((component(from)?, component(to)?)))
            .collect(),
        rules: topology
            .components
            .iter()
            .map(|c| (c.name().to_string(), open_send_rule()))
            .collect(),
        keys: Vec::new(),
        schema: payload_schema(&feed.message.message_type),
        message: feed.message.clone(),
        records,
        scratch: opts.out_dir.join(format!("probe-{}", std::process::id())),
    }
}

/// The two directories a durable run writes: the measured engine's, and the one
/// restarts are timed on. Both live under a per-process parent, removed afterwards.
struct DurableDirs {
    parent: PathBuf,
    main: PathBuf,
    restart: PathBuf,
}

impl DurableDirs {
    fn fresh(base: &Path) -> Self {
        let parent = base.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&parent);
        let dirs =
            DurableDirs { main: parent.join("main"), restart: parent.join("restart"), parent };
        std::fs::create_dir_all(&dirs.main).expect("creates the durable directory");
        std::fs::create_dir_all(&dirs.restart).expect("creates the restart directory");
        dirs
    }

    fn remove(self) {
        let _ = std::fs::remove_dir_all(&self.parent);
    }
}
