//! What one message costs the allocator, counted — not timed.
//!
//! A payload publish shares one frozen body between the publisher, the destination's
//! shard and the consumer, and names its endpoints by handle. The body is refilled in
//! place from the engine's ring once its last receiver has dropped it, and a delivery
//! travels by value (body handle and presence mask) from the publish to the mailbox,
//! quenched or not. On the smart-home topology (fan-out 1, one attribute quenched per
//! delivery) that leaves one allocation per message — the `Arc<FrozenMessage>` the
//! public `ReceivedMessage::Frozen` wraps a delivery in, made by `Subscriber::drain` on
//! the consumer's thread — and one free, on that same thread. The fraction above one
//! is the `Vec`s each `Subscriber::drain` builds. The publisher allocates nothing once
//! the ring covers what is in flight, and a shard nothing at all — with full, persisted
//! audit too: both records of a delivery are encoded from borrowed fields into trail
//! chunks that are refilled once pruned, and each batch writes its new frames to the
//! segment file as they are.
//!
//! The synchronous bus is on the same ledger. A `Middleware::send` consumes its
//! message and delivers that same object — quenched in place, restamped, moved into
//! the mailbox — and security contexts are shared values. Its evidence is encoded
//! from borrowed fields into its audit log's chunks, as a shard's is, so what a send
//! allocates is only what it keeps: the delivered sender's name and the outcome's
//! list of quenched attributes.
//!
//! Closing a trail is on the ledger too: `BatchedAppender::close` hands its chunks of
//! frames to the log it returns, so what it allocates does not grow with the records
//! it hands over.
//!
//! A message copy is on the ledger too. Attribute and type names are 4-byte interned
//! names, so a `Message` clone, or a thaw of a delivery, allocates what it carries —
//! the attribute vector, each text value, the sender — and no name; and a message built
//! from names the process already holds allocates its vector and text values only.
//!
//! A restart is on the ledger too: an engine started on a durable directory checks
//! every persisted frame after the last clean close's checkpoint — every frame, with
//! none — from its bytes and decodes none, so what it allocates does not grow with the
//! history it re-opens, and after a clean close neither do the bytes it reads.
//!
//! The counts come from a counting `#[global_allocator]`; what *other* threads
//! allocated is the global count minus this thread's own, which works because the
//! test thread, the engine's shard workers and the restart scan's check threads are
//! the only threads doing anything.
//! CI runs this in `--release` (the `e2e-enforcement` job).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use legaliot::audit::{AuditEvent, AuditLog, BatchedAppender, SegmentStore};
use legaliot::context::{ContextSnapshot, Timestamp};
use legaliot::dataplane::payload_schema;
use legaliot::dataplane::{
    smart_home, AuditDetail, Dataplane, DataplaneConfig, OverflowPolicy, PersistenceConfig,
    Subscriber, TopologyBuilder,
};
use legaliot::ifc::{can_flow, Label, SecurityContext, Tag};
use legaliot::middleware::{
    AccessRule, AttributeValue, Component, DeliveryOutcome, FrozenMessage, FrozenSchema, Message,
    Middleware, Operation, Principal, Subject,
};
use legaliot::policy::Condition;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations made by this thread. Const-initialised and without a destructor, so
    /// reading it from inside the allocator never allocates and never finds it gone.
    static OWN_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread's allocations requested (`Layout::size`), likewise.
    static OWN_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls and the bytes they request. A `realloc` goes
/// through the trait's default — an `alloc` and a `dealloc` — and so counts as one of
/// each.
struct Counting;

// SAFETY: every request is passed to `System` unchanged and its result returned
// unchanged, so `System`'s guarantees are this allocator's; the counters touch no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let _ = OWN_ALLOCATIONS.try_with(|own| own.set(own.get() + 1));
        let _ = OWN_BYTES.try_with(|own| own.set(own.get() + layout.size() as u64));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc` above, that is from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counters are process-wide: one measurement at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const MESSAGES: u64 = 1000;

/// `(allocations, frees, allocations by other threads)` during `work`.
fn counted(work: impl FnOnce()) -> (u64, u64, u64) {
    let own = || OWN_ALLOCATIONS.with(Cell::get);
    let before = (ALLOCATIONS.load(Ordering::SeqCst), FREES.load(Ordering::SeqCst), own());
    work();
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before.0;
    (allocations, FREES.load(Ordering::SeqCst) - before.1, allocations - (own() - before.2))
}

/// `(allocations, requested bytes)` this thread made during `work`.
fn own_cost(work: impl FnOnce()) -> (u64, u64) {
    let own = || (OWN_ALLOCATIONS.with(Cell::get), OWN_BYTES.with(Cell::get));
    let before = own();
    work();
    let after = own();
    (after.0 - before.0, after.1 - before.1)
}

/// An engine with `topology` installed and a receiver on every subscribing endpoint.
fn install(topology: &legaliot::dataplane::Topology) -> (Dataplane, Vec<Subscriber>) {
    install_with(topology, DataplaneConfig { shards: 2, ..DataplaneConfig::default() })
}

fn install_with(
    topology: &legaliot::dataplane::Topology,
    config: DataplaneConfig,
) -> (Dataplane, Vec<Subscriber>) {
    let dataplane = Dataplane::new("allocations", config);
    let admitted = topology
        .install_with_payload_schemas(&dataplane, &ContextSnapshot::default(), Timestamp(1))
        .expect("a fresh engine takes the topology");
    assert_eq!(admitted, topology.edges.len());
    let mut receivers: Vec<&str> = topology.edges.iter().map(|(_, to)| to.as_str()).collect();
    receivers.sort_unstable();
    receivers.dedup();
    let subscribers =
        receivers.iter().map(|name| dataplane.open_subscriber(name).expect("registered")).collect();
    (dataplane, subscribers)
}

/// One cycle: `MESSAGES` publishes round-robin over the feeds, the shards run dry, every
/// mailbox is drained, the bodies are dropped. Returns how many bodies arrived.
fn cycle(dataplane: &Dataplane, subscribers: &[Subscriber], feeds: &[(String, Message)]) -> u64 {
    for (seq, (publisher, message)) in (0..MESSAGES).zip(feeds.iter().cycle()) {
        dataplane.publish_message(publisher, message, Timestamp(seq)).expect("publishes");
    }
    dataplane.drain();
    subscribers.iter().map(|subscriber| subscriber.drain().len() as u64).sum()
}

#[test]
fn a_message_costs_one_allocation_and_one_free() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let topology = smart_home(8, 1);
    let feeds = topology.publisher_messages();
    let (dataplane, subscribers) = install(&topology);
    // Warm-up: first-of-pair audit records and summaries, queue and mailbox capacity.
    for _ in 0..3 {
        assert_eq!(cycle(&dataplane, &subscribers, &feeds), MESSAGES, "fan-out 1");
    }
    let before = dataplane.stats();
    let (allocations, frees, elsewhere) = counted(|| {
        assert_eq!(cycle(&dataplane, &subscribers, &feeds), MESSAGES);
    });
    let after = dataplane.stats();
    assert_eq!(after.quenched_attributes - before.quenched_attributes, MESSAGES);
    assert_eq!(after.bodies_reused - before.bodies_reused, MESSAGES, "every body was refilled");
    let per_message = |count: u64| count as f64 / MESSAGES as f64;
    println!(
        "per message: {:.3} allocations ({elsewhere} off-thread), {:.3} frees",
        per_message(allocations),
        per_message(frees)
    );
    assert_eq!(elsewhere, 0, "a shard allocated while delivering quenched bodies");
    assert!(
        per_message(allocations) <= 1.1,
        "{:.3} allocations per message (the consumer's wrapper = 1)",
        per_message(allocations)
    );
    assert!(per_message(frees) <= 1.1, "{:.3} frees per message", per_message(frees));
    dataplane.shutdown();
}

#[test]
fn an_unquenched_delivery_allocates_nothing_on_the_shard() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // One smart-home publisher and a sink cleared for everything it says, the
    // message-level `identity` tag included: quench mask 0.
    let home = smart_home(8, 1);
    let (publisher, message) = home.publisher_messages().swap_remove(0);
    let source = home.components.iter().find(|c| c.name() == publisher).expect("a component");
    let mut secrecy = source.context().secrecy().clone();
    secrecy.insert(Tag::new("identity"));
    let sink = Component::builder("identity-sink", Principal::new("owner"))
        .context(SecurityContext::new(secrecy, Default::default()))
        .build();
    let topology = TopologyBuilder::new("unquenched")
        .component(source.clone())
        .component(sink)
        .edge(publisher.as_str(), "identity-sink")
        .build();
    let feeds = [(publisher, message)];
    let (dataplane, subscribers) = install(&topology);
    for _ in 0..3 {
        assert_eq!(cycle(&dataplane, &subscribers, &feeds), MESSAGES);
    }
    let (allocations, frees, elsewhere) = counted(|| {
        assert_eq!(cycle(&dataplane, &subscribers, &feeds), MESSAGES);
    });
    let stats = dataplane.stats();
    assert_eq!((stats.delivered, stats.quenched_attributes), (4 * MESSAGES, 0));
    println!(
        "{MESSAGES} messages: {allocations} allocations ({elsewhere} off-thread), {frees} frees"
    );
    assert_eq!(elsewhere, 0, "the shard allocated while delivering unquenched bodies");
    assert!(allocations as f64 <= 1.1 * MESSAGES as f64, "{allocations} allocations");
    dataplane.shutdown();
}

/// Full audit, persisted: two records per delivery, each batch's written to the
/// segment file, a prune every 256 of them on each shard and a group commit (the
/// store's own fsync) every 256 written — and still nothing allocated on a shard. A
/// commit may allocate a fixed little (none today); a per-message term would be
/// thousands here.
#[test]
fn a_fully_audited_persisted_delivery_allocates_nothing_on_the_shard() {
    const RETENTION: usize = 256;
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let dir = std::env::temp_dir().join(format!("legaliot-allocations-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DataplaneConfig {
        shards: 2,
        audit_detail: AuditDetail::Full,
        audit_batch: 64,
        audit_retention: Some(RETENTION),
        // One segment for the whole test: a rotation opens a file, which allocates.
        persistence: Some(PersistenceConfig {
            dir: dir.clone(),
            max_segment_records: 1 << 20,
            sync_on_flush: true,
        }),
        ..DataplaneConfig::default()
    };
    let topology = smart_home(8, 1);
    let feeds = topology.publisher_messages();
    let (dataplane, subscribers) = install_with(&topology, config);
    // Warm-up: the trail's chunks, the store's file, queue and mailbox capacity.
    for _ in 0..3 {
        assert_eq!(cycle(&dataplane, &subscribers, &feeds), MESSAGES, "fan-out 1");
    }
    let segments = |dataplane: &Dataplane| dataplane.segment_stats().expect("persistence is on");
    let (before, segments_before) = (dataplane.stats(), segments(&dataplane));
    let (allocations, frees, elsewhere) = counted(|| {
        assert_eq!(cycle(&dataplane, &subscribers, &feeds), MESSAGES);
    });
    let (after, segments_after) = (dataplane.stats(), segments(&dataplane));
    assert_eq!(after.quenched_attributes - before.quenched_attributes, MESSAGES);
    let written = segments_after.records_persisted - segments_before.records_persisted;
    let commits = segments_after.fsync.count() - segments_before.fsync.count();
    println!(
        "{MESSAGES} messages, {written} records written to disk in {commits} group commits: \
         {allocations} allocations ({elsewhere} off-thread), {frees} frees"
    );
    assert!(commits >= 4, "the measured cycle has to span group commits, saw {commits}");
    assert!(
        elsewhere <= 2 * commits,
        "the shards allocated {elsewhere} times over {MESSAGES} fully audited deliveries"
    );
    assert!(allocations as f64 <= 1.1 * MESSAGES as f64, "{allocations} allocations");
    assert!(frees as f64 <= 1.1 * MESSAGES as f64, "{frees} frees");
    let report = dataplane.shutdown();
    assert_eq!(report.unsynced_bytes, 0);
    assert!(report.shard_audit.iter().all(|log| log.verify_chain().is_intact()));
    std::fs::remove_dir_all(&dir).expect("the temp dir goes");
}

/// A directory holding one shard's durable history: `records` fully audited flow
/// checks, chained from 0, in one segment.
fn persisted_history(records: u64) -> PersistenceConfig {
    let dir =
        std::env::temp_dir().join(format!("legaliot-restart-{records:05}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let persistence = PersistenceConfig { dir, max_segment_records: 1 << 20, sync_on_flush: true };
    let source = SecurityContext::from_names(["ann", "medical"], ["consent"]);
    let destination = SecurityContext::from_names(["ann"], Vec::<&str>::new());
    let mut log = AuditLog::new("allocations-shard-0");
    let mut store = SegmentStore::create(persistence.shard_dir(0), 0, 1 << 20).unwrap();
    for at in 0..records {
        log.record(
            AuditEvent::FlowChecked {
                source: "ann-heart-monitor".into(),
                destination: "ann-analyser".into(),
                source_context: source.clone(),
                destination_context: destination.clone(),
                decision: can_flow(&source, &destination),
                data_item: Some(format!("reading@{at}")),
            },
            at,
        );
    }
    assert!(log.records().iter().all(|record| store.append(record)));
    assert!(store.seal());
    persistence
}

/// A restart on a durable directory checks every persisted frame from its bytes and
/// builds no record: starting an engine on 8 192 persisted records allocates what
/// starting it on 1 024 does (a decoded record is about a dozen allocations). The scan
/// checks a segment's frames on every core, so it is counted on every thread too:
/// [`SegmentStore::reopen`] on its own starts no shard worker, and every test here
/// holds `ONE_AT_A_TIME`, so what all threads allocate during it is the scan's.
#[test]
fn a_restart_allocates_nothing_per_persisted_record() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let restart = |records: u64| {
        let persistence = persisted_history(records);
        let config = DataplaneConfig {
            shards: 1,
            persistence: Some(persistence.clone()),
            ..DataplaneConfig::default()
        };
        let (reopen, _, _) = counted(|| {
            let (store, reopened) = SegmentStore::reopen(persistence.shard_dir(0), 1 << 20, None)
                .expect("the directory re-opens");
            assert_eq!((reopened.next_id, reopened.truncations.len()), (records, 0));
            drop(store);
        });
        let mut dataplane = None;
        // This thread's own count: the restart's scan runs here, the workers elsewhere.
        let (allocations, _, elsewhere) = counted(|| {
            dataplane = Some(Dataplane::new("allocations", config));
        });
        let dataplane = dataplane.expect("started");
        assert_eq!(dataplane.stats().recovery_truncations, 0);
        let report = dataplane.shutdown();
        assert!(report.shard_audit.iter().all(|log| log.verify_chain().is_intact()));
        let recovered = SegmentStore::recover(persistence.shard_dir(0)).unwrap();
        assert!(recovered.is_clean(), "{:?}", recovered.truncations);
        assert_eq!(recovered.next_id, records);
        std::fs::remove_dir_all(&persistence.dir).expect("the temp dir goes");
        (allocations - elsewhere, reopen)
    };
    let ((small, small_reopen), (large, large_reopen)) = (restart(1024), restart(8192));
    println!(
        "Dataplane::new on 1024 persisted records: {small} allocations, on 8192: {large}; \
         SegmentStore::reopen on every thread: {small_reopen}, {large_reopen}"
    );
    assert!(
        small.abs_diff(large) <= 16,
        "{small} allocations for 1024 records, {large} for 8192: a restart allocates per record"
    );
    assert!(
        small_reopen.abs_diff(large_reopen) <= 16,
        "{small_reopen} allocations on every thread for 1024 records, {large_reopen} for 8192: \
         the scan allocates per record"
    );
}

/// A restart's cost does not follow history: after a clean close, `SegmentStore::reopen`
/// reads only what no checkpoint vouches for, so the bytes it asks the allocator for are
/// the same within 64 KiB on 1 024 persisted records and on 8 192, written by one clean
/// incarnation or by fifty. Without the checkpoint, the same directory's scan asks for
/// the whole segment.
#[test]
fn a_restart_after_a_clean_close_requests_the_same_bytes_whatever_the_history() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let source = SecurityContext::from_names(["ann", "medical"], ["consent"]);
    let destination = SecurityContext::from_names(["ann"], Vec::<&str>::new());
    // `records` flow checks written by `incarnations` trails opened on one directory in
    // turn, each closed cleanly.
    let history = |records: u64, incarnations: u64| {
        let dir = std::env::temp_dir().join(format!(
            "legaliot-checkpoint-{records:05}-{incarnations:02}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        for incarnation in 0..incarnations {
            let segments = Some((dir.clone(), 1 << 20, None));
            let (mut trail, truncations) =
                BatchedAppender::open("allocations-shard-0", None, segments).unwrap();
            assert!(truncations.is_empty());
            let ends = (records * incarnation / incarnations)
                ..(records * (incarnation + 1) / incarnations);
            for at in ends {
                let event = AuditEvent::FlowChecked {
                    source: "ann-heart-monitor".into(),
                    destination: "ann-analyser".into(),
                    source_context: source.clone(),
                    destination_context: destination.clone(),
                    decision: can_flow(&source, &destination),
                    data_item: Some(format!("reading@{at}")),
                };
                trail.append(event, at);
            }
            trail.close();
        }
        dir
    };
    let requested = |dir: &std::path::Path, records: u64| {
        let (_, bytes) = own_cost(|| {
            let (store, reopened) =
                SegmentStore::reopen(dir, 1 << 20, None).expect("the directory re-opens");
            assert_eq!((reopened.next_id, reopened.truncations.len()), (records, 0));
            drop(store);
        });
        bytes
    };
    let mut costs = Vec::new();
    for (records, incarnations) in [(1024, 1), (8192, 1), (1024, 50), (8192, 50)] {
        let dir = history(records, incarnations);
        let bytes = requested(&dir, records);
        println!(
            "SegmentStore::reopen after {incarnations} clean incarnation(s), {records} records: \
             {bytes} bytes requested"
        );
        costs.push(bytes);
        if (records, incarnations) == (8192, 1) {
            std::fs::remove_file(dir.join("checkpoint")).unwrap();
            let whole = requested(&dir, records);
            println!("… and with no checkpoint: {whole} bytes requested");
            assert!(whole > bytes + (64 << 10), "the full scan reads the segment: {whole} bytes");
        }
        std::fs::remove_dir_all(&dir).expect("the temp dir goes");
    }
    let (least, most) = (costs.iter().min().unwrap(), costs.iter().max().unwrap());
    assert!(most - least <= 64 << 10, "{costs:?} bytes: a restart reads history");
}

/// AC denials: the regime answers every delivery, and a denial is a `Copy` cause —
/// its text is spelled only where an outcome string is built, never on a shard.
#[test]
fn an_access_denial_allocates_nothing_on_the_shard() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let topology = smart_home(8, 1);
    let feeds = topology.publisher_messages();
    let (dataplane, subscribers) = install(&topology);
    for _ in 0..3 {
        assert_eq!(cycle(&dataplane, &subscribers, &feeds), MESSAGES, "fan-out 1");
    }
    // Refused after the subscriptions were admitted: every delivery now stops at AC.
    for (_, to) in &topology.edges {
        dataplane.with_access(|access| {
            access.add_rule(to, AccessRule::deny(Subject::Anyone, Operation::Send, None));
        });
    }
    let denied_cycle = || {
        let before = dataplane.stats();
        for (seq, (publisher, message)) in (0..MESSAGES).zip(feeds.iter().cycle()) {
            dataplane.publish_message(publisher, message, Timestamp(seq)).expect("publishes");
        }
        dataplane.drain();
        let after = dataplane.stats();
        (after.denied - before.denied, after.delivered - before.delivered)
    };
    // Warm-up: each pair's summary and the ring's bodies exist.
    for _ in 0..3 {
        denied_cycle();
    }
    let (allocations, frees, elsewhere) = counted(|| {
        assert_eq!(denied_cycle(), (MESSAGES, 0), "fan-out 1, every delivery denied");
    });
    println!(
        "{MESSAGES} AC denials: {allocations} allocations ({elsewhere} off-thread), {frees} frees"
    );
    assert_eq!(elsewhere, 0, "a shard allocated while denying at AC");
    assert!(subscribers.iter().all(|subscriber| subscriber.drain().is_empty()));
    dataplane.shutdown();
}

/// Drop-oldest sheds under summarised audit: a mailbox nobody drains sheds its oldest
/// delivery for every new one, and each shed is counted in its pair's summary under
/// the message's shared type name, so a shed of a type already counted allocates
/// nothing on the shard.
#[test]
fn a_summarised_shed_allocates_nothing_on_the_shard() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let topology = smart_home(8, 1);
    let feeds = topology.publisher_messages();
    let config = DataplaneConfig {
        shards: 2,
        audit_detail: AuditDetail::Summarised,
        overflow: OverflowPolicy::DropOldest,
        mailbox_capacity: 4,
        ..DataplaneConfig::default()
    };
    let (dataplane, _subscribers) = install_with(&topology, config);
    let shed_cycle = || {
        let before = dataplane.stats();
        for (seq, (publisher, message)) in (0..MESSAGES).zip(feeds.iter().cycle()) {
            dataplane.publish_message(publisher, message, Timestamp(seq)).expect("publishes");
        }
        dataplane.drain();
        let after = dataplane.stats();
        (after.delivered - before.delivered, after.receiver_dropped - before.receiver_dropped)
    };
    // Warm-up: the mailboxes fill, and each pair's summary counts its first sheds.
    for _ in 0..3 {
        shed_cycle();
    }
    let (allocations, frees, elsewhere) = counted(|| {
        assert_eq!(shed_cycle(), (MESSAGES, MESSAGES), "every delivery sheds the oldest");
    });
    println!(
        "{MESSAGES} summarised sheds: {allocations} allocations ({elsewhere} off-thread), \
         {frees} frees"
    );
    assert_eq!(elsewhere, 0, "a shard allocated while shedding under summarised audit");
    dataplane.shutdown();
}

/// Conditional AC: every delivery asks the regime rules whose conditions read context
/// keys — `IsFalse`, `Any(IsFalse, IsTrue)` and `NumberBelow`, as deny rules that do not
/// hold, so each is evaluated on every delivery and every delivery still goes through.
/// A rule reads its keys by id from the shard's snapshot, so none of it allocates.
#[test]
fn a_conditional_ac_question_allocates_nothing_on_the_shard() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let topology = smart_home(8, 1);
    let feeds = topology.publisher_messages();
    let (dataplane, subscribers) = install(&topology);
    let store = dataplane.context_store();
    store.set("home.armed", true, Timestamp(0));
    store.set("home.away", false, Timestamp(0));
    store.set("home.battery", 80i64, Timestamp(0));
    let holds_not = [
        Condition::is_false("home.armed"),
        Condition::Any(vec![Condition::is_false("home.armed"), Condition::is_true("home.away")]),
        Condition::number_below("home.battery", 20.0),
    ];
    for (_, to) in &topology.edges {
        dataplane.with_access(|access| {
            for condition in &holds_not {
                let deny = AccessRule::deny(Subject::Anyone, Operation::Send, None);
                access.add_rule(to, deny.when(condition.clone()));
            }
        });
    }
    // Warm-up, which also proves every delivery is judged and let through.
    for _ in 0..3 {
        assert_eq!(cycle(&dataplane, &subscribers, &feeds), MESSAGES, "fan-out 1");
    }
    let (allocations, frees, elsewhere) = counted(|| {
        assert_eq!(cycle(&dataplane, &subscribers, &feeds), MESSAGES);
    });
    println!(
        "{MESSAGES} conditional AC questions: {allocations} allocations ({elsewhere} \
         off-thread), {frees} frees"
    );
    assert_eq!(elsewhere, 0, "a shard allocated while evaluating conditional AC rules");
    dataplane.shutdown();
}

/// A copy of a message allocates what it carries. The smart-home reading is `unit`
/// ("bpm"), `subject-id` ("subject-0017") and a float `value`, with no sender yet: a
/// clone is the attribute vector and the two texts. Its quenched delivery (`subject-id`
/// gone) thaws into a two-entry vector, "bpm" and the sender. Names and the type are
/// interned ids taken from the schema. On x86-64 that is 3 allocations and 111 bytes a
/// clone (32-byte entries), and 3 and 85 a thaw; with `Arc<str>` names it was 135 and
/// 101, and the map form cost 7 and 593, and 7 and 781.
#[test]
fn a_message_costs_what_it_carries() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (publisher, message) = smart_home(8, 1).publisher_messages().swap_remove(0);
    let schema = Arc::new(FrozenSchema::new(&payload_schema(&message.message_type)).unwrap());
    let sender: Arc<str> = Arc::from(publisher.as_str());
    let frozen = FrozenMessage::freeze_stamped(&message, Arc::clone(&schema), sender, 7).unwrap();
    let delivery = frozen.quench(schema.quench_mask_for(&Label::empty()));
    assert_eq!(delivery.attribute_count(), 2, "`subject-id` is quenched");
    let per_copy = |(allocations, bytes): (u64, u64)| {
        (allocations as f64 / MESSAGES as f64, bytes as f64 / MESSAGES as f64)
    };

    let mut clones = Vec::with_capacity(MESSAGES as usize);
    let clone = per_copy(own_cost(|| {
        for _ in 0..MESSAGES {
            clones.push(std::hint::black_box(&message).clone());
        }
    }));
    let mut thaws = Vec::with_capacity(MESSAGES as usize);
    let thaw = per_copy(own_cost(|| {
        for _ in 0..MESSAGES {
            thaws.push(std::hint::black_box(&delivery).thaw());
        }
    }));
    let mut delivered = message.quenched(["subject-id"]);
    (delivered.sender, delivered.sent_at_millis) = (publisher, 7);
    assert!(clones.iter().all(|copy| *copy == message));
    assert!(thaws.iter().all(|copy| *copy == delivered));
    println!("Message::clone: {:.1} allocations, {:.1} bytes", clone.0, clone.1);
    println!("FrozenMessage::thaw (quenched): {:.1} allocations, {:.1} bytes", thaw.0, thaw.1);
    assert!(clone.0 <= 3.0 && clone.1 <= 111.0, "a clone costs {clone:?}");
    assert!(thaw.0 <= 3.0 && thaw.1 <= 85.0, "a thaw costs {thaw:?}");
}

/// Building a message interns its type and attribute names, and a name the process
/// already holds is found, not allocated: the smart-home reading built with
/// `Message::new(..).with(..)` from text allocates its attribute vector (room for four
/// 32-byte entries at the first insert) and its two text values, "bpm" and
/// "subject-0017" — 3 allocations and 143 bytes on x86-64. With a shared `Arc<str>` per
/// name it was 7: the type and each of the three names were copied.
#[test]
fn a_message_built_from_held_names_allocates_no_name() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // Building the topology's reading interned every name the test builds with.
    let (_, reading) = smart_home(8, 1).publisher_messages().swap_remove(0);
    let (message_type, context) = (reading.message_type.as_str(), reading.context.clone());
    let mut built = Vec::with_capacity(MESSAGES as usize);
    let (allocations, bytes) = own_cost(|| {
        for _ in 0..MESSAGES {
            let message = Message::new(std::hint::black_box(message_type), context.clone())
                .with("value", AttributeValue::Float(98.6))
                .with("unit", AttributeValue::Text("bpm".into()))
                .with("subject-id", AttributeValue::Text("subject-0017".into()));
            built.push(message);
        }
    });
    assert!(built.iter().all(|message| *message == reading));
    let (allocations, bytes) =
        (allocations as f64 / MESSAGES as f64, bytes as f64 / MESSAGES as f64);
    println!("Message::new(..).with(..): {allocations:.1} allocations, {bytes:.1} bytes");
    assert!(allocations <= 3.0 && bytes <= 143.0, "a build costs {allocations} / {bytes}");
}

/// A security context is a shared value: copying one, and allowing a flow between
/// two, never reaches the allocator.
#[test]
fn a_context_clone_and_an_allowed_flow_allocate_nothing() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let source = SecurityContext::from_names(["ann", "medical"], ["consent"]);
    let same_domain = source.clone();
    let wider = SecurityContext::from_names(["ann", "medical", "stats"], Vec::<&str>::new());
    // This thread's own count: the test harness may be reporting on another thread.
    let (allocations, _, elsewhere) = counted(|| {
        for _ in 0..MESSAGES {
            let copy = std::hint::black_box(&source).clone();
            assert_eq!(copy.len(), 3);
            assert!(can_flow(&copy, std::hint::black_box(&same_domain)).is_allowed());
            assert!(can_flow(&copy, std::hint::black_box(&wider)).is_allowed());
        }
    });
    assert_eq!(allocations - elsewhere, 0);
}

/// The bus moves the message it owns. Smart-home topology on a `Middleware`, one
/// attribute quenched per send; outcomes and bodies are kept, so nothing counted is a
/// free the test itself caused.
#[test]
fn a_bus_send_allocates_only_what_it_keeps() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let topology = smart_home(8, 1);
    let snapshot = ContextSnapshot::default();
    let mut bus = Middleware::new("allocations");
    for component in &topology.components {
        assert!(bus.registry_mut().register(component.clone()));
        let open = AccessRule::allow(Subject::Anyone, Operation::Send, None);
        bus.access_mut().add_rule(component.name(), open);
    }
    for message_type in topology.message_types() {
        bus.registry_mut().register_schema(payload_schema(&message_type));
    }
    for (from, to) in &topology.edges {
        let admitted = bus.establish_channel(from, to, &snapshot, Timestamp(1));
        assert!(admitted.expect("registered").is_delivered());
    }
    let feeds = topology.publisher_messages();
    let edges: Vec<(&str, &str, &Message)> = feeds
        .iter()
        .flat_map(|(publisher, message)| {
            let outgoing = topology.edges.iter().filter(move |(from, _)| from == publisher);
            outgoing.map(move |(from, to)| (from.as_str(), to.as_str(), message))
        })
        .collect();
    let send_all = |bus: &mut Middleware, base: u64| {
        let inputs: Vec<Message> =
            edges.iter().cycle().take(MESSAGES as usize).map(|edge| edge.2.clone()).collect();
        let mut kept = Vec::with_capacity(inputs.len());
        let counts = counted(|| {
            for ((seq, message), (from, to, _)) in (base..).zip(inputs).zip(edges.iter().cycle()) {
                let outcome = bus.send(from, to, message, &snapshot, Timestamp(seq));
                kept.push((outcome, bus.try_recv(to)));
            }
        });
        (counts, kept)
    };
    // Warm-up: every mailbox exists and the audit log has grown past the measured sends.
    send_all(&mut bus, 0);
    send_all(&mut bus, MESSAGES);
    send_all(&mut bus, 2 * MESSAGES);
    let ((allocations, frees, _), kept) = send_all(&mut bus, 3 * MESSAGES);

    for ((outcome, body), (from, _, input)) in kept.iter().zip(edges.iter().cycle()) {
        let quenched = vec!["subject-id".to_string()];
        assert_eq!(outcome, &Ok(DeliveryOutcome::Delivered { quenched_attributes: quenched }));
        let body = body.as_ref().expect("delivered");
        assert_eq!(body.attributes, input.quenched(["subject-id"]).attributes);
        assert_eq!(body.sender, *from);
    }
    assert!(bus.audit().verify_chain().is_intact());
    let per_send = |count: u64| count as f64 / MESSAGES as f64;
    println!("per send: {:.3} allocations, {:.3} frees", per_send(allocations), per_send(frees));
    assert!(per_send(allocations) <= 4.0, "{:.3} allocations per send", per_send(allocations));
    assert!(per_send(frees) <= 2.0, "{:.3} frees per send", per_send(frees));
}

/// Closing a trail hands its chunks of frames to the log as they are, decoding
/// nothing: what `close` allocates grows with the chunks, not with the records (a
/// decoded record is about a dozen allocations). Trails of 1 000 and of 20 000 records
/// may differ by less than one allocation per 64 records.
#[test]
fn closing_a_trail_allocates_per_chunk_not_per_record() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let source = SecurityContext::from_names(["ann", "medical"], ["consent"]);
    let destination = SecurityContext::from_names(["ann"], Vec::<&str>::new());
    let close = |records: u64| {
        let mut trail = BatchedAppender::new("allocations-shard-0", 0);
        for at in 0..records {
            let event = AuditEvent::FlowChecked {
                source: "ann-heart-monitor".into(),
                destination: "ann-analyser".into(),
                source_context: source.clone(),
                destination_context: destination.clone(),
                decision: can_flow(&source, &destination),
                data_item: Some(format!("reading@{at}")),
            };
            trail.append(event, at);
        }
        let mut log = None;
        let (allocations, _, _) = counted(|| log = Some(trail.close()));
        let log = log.expect("closed");
        assert_eq!(log.len() as u64, records);
        assert!(log.verify_chain().is_intact());
        allocations
    };
    let (small, large) = (close(1_000), close(20_000));
    println!("BatchedAppender::close on 1000 records: {small} allocations, on 20000: {large}");
    assert!(
        small.abs_diff(large) < 20_000 / 64,
        "{small} allocations closing 1000 records, {large} closing 20000: close allocates per record"
    );
}
