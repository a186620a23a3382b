//! Shard worker: the per-thread enforcement loop.
//!
//! Each shard owns an ingress [`BoundedQueue`] of deliveries ([`ShardTask`]s) and the
//! hash-chained trail ([`BatchedAppender`]) the engine opened for it. It holds no decision
//! cache: every delivery asks the access regime, [`can_flow`] and the schema's quench mask
//! directly, against the directory and the context snapshot in force when its batch runs —
//! so a context change, a key write or a rule edit is a write the next batch reads, and
//! nothing is sent to a shard to follow one. Components are assigned to shards by a stable
//! hash of their name; a message is enforced on the *destination's* shard, so one
//! overloaded subscriber backpressures only its own shard.
//!
//! Everything a delivery passes through here — the queued task, the hand-off group, the
//! pair-summary key — names its endpoints by [`EndpointId`], a `Copy` word each (the
//! source is the body's sender): no name reference count is touched per message, and
//! source and destination are resolved by index into the directory. The names' texts
//! are read only where a record is written (`MessageQuenched`, `DeliveryLost`,
//! `DeliveryDropped`, the shutdown `FlowSummary`), from the process-wide name table,
//! which keeps the name of an endpoint that has left: no directory lock is taken for it.
//!
//! A shard has one loop, [`worker_loop`]: pop a batch, run its tasks under one
//! directory read lock, then hand the batch's enforced deliveries to their mailboxes —
//! each a [`BoundedQueue`] too — with the lock released. It amortises synchronisation
//! over the batch: one directory read-lock acquisition, one context-store freshness
//! check, one `in_flight` decrement and one flush of the statistics counters per batch
//! of up to [`POP_BATCH`] tasks, rather than per message. The counters themselves —
//! the live ones, the batch-local deltas and the flush between them — are declared in
//! [`crate::telemetry`]'s one table. The loop ends as a mailbox's consumer does: the
//! engine closes the ingress queue, the loop pops and enforces the backlog in queue
//! order, and the first empty pop of the closed queue returns.
//!
//! The hand-offs go by mailbox: a batch's deliveries are bucketed per mailbox in
//! hand-off order ([`HandOffs`], found by endpoint index, its buffers kept from batch
//! to batch), and each bucket is one group push — one mailbox lock, one consumer wake
//! and one mailbox reference count per mailbox per batch, rather than per delivery.
//! The unit of rollback and of evidence is still the single delivery: the
//! `mailbox.handoff` failpoint is probed per delivery before its group's push, and a
//! panic there abandons that delivery alone, after the ones before it are pushed.
//!
//! The supervisor, [`run_worker`], re-enters the loop after a panic; once its restart
//! budget is spent it re-enters it *degraded*, and the same steps then evidence each
//! delivery as lost and each prepared hand-off as abandoned, until the queue closes. It
//! needs no copy of the work in flight: a delivery stays the batch's last task until
//! it has run, and a hand-off the front of its group until it is pushed, and that is
//! where the supervisor finds one a panic cut short.
//!
//! The §8.2.2 sequence — isolation, contextual AC at message-type granularity, IFC
//! over the message's *effective* context — is not written here: each delivery is one
//! call of [`legaliot_middleware::admission::enforce`], the core the synchronous bus
//! and channel admission also call, answered from the regime and [`can_flow`] by two
//! closures that also lap the stage spans. This module is the driver side. What became
//! of a delivery is one [`Outcome`] — endpoint missing, refused before the flow check,
//! flow-checked, lost, hand-off abandoned or shed — and one function, [`settle`],
//! applies its batch-local counter, pair-summary count, stage span and record, and is
//! the only reader of the audit detail; `legaliot_fleet::reconcile` checks that the
//! counters equal the trail. Around it: per-attribute source quenching (Fig. 10; the
//! schema's bitmask cleared from the delivery's presence mask), the grouped mailbox
//! hand-off, and the supervisor. A delivery is a [`FrozenMessage`] by value from the
//! queued task to the mailbox: the shard allocates nothing for it, shed or not.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use legaliot_audit::{AuditEvent, AuditLog, BatchedAppender};
use legaliot_context::{ContextSnapshot, NameMap, Timestamp};
use legaliot_ifc::{can_flow, SecurityContext};
use legaliot_middleware::admission::{enforce, FlowVerdict, MessageFacts, Verdict};
use legaliot_middleware::{FrozenMessage, FrozenSchema, MessageType, Operation};
use legaliot_obs::FailpointSite;

use crate::engine::{AuditDetail, DataplaneConfig, Directory, Endpoint, EndpointId, SharedState};
use crate::failpoint;
use crate::queue::{BoundedQueue, Pushed, WhenFull};
use crate::subscriber::OverflowPolicy;
use crate::telemetry::{BatchCounters, DeliveryProbe, ShardCounters, ShardTelemetry, Stage};

/// Work items delivered to a shard's ingress queue.
#[derive(Debug)]
pub(crate) enum ShardTask {
    /// Enforce and deliver one message from its body's sender to `to`.
    Deliver {
        /// The destination endpoint's name (owned by this shard).
        to: EndpointId,
        /// Enqueue time in nanoseconds since the engine's epoch (0 when telemetry is
        /// disabled); the worker derives ingress-queue wait and end-to-end delivery
        /// latency from it. Taken once per fan-out, not per subscriber.
        enqueued_ns: u64,
        /// This delivery's handle on the frozen body the whole fan-out shares (one
        /// refcount bump per subscriber after the first, at publish time).
        body: FrozenMessage,
    },
    /// Test hook: park the worker on a barrier so tests can fill the queue
    /// deterministically.
    #[cfg(test)]
    Block(Arc<std::sync::Barrier>),
}

/// One shard's queue plus its counters and telemetry, and the two atomics that are
/// synchronisation rather than metrics (so they sit outside the counter table).
#[derive(Debug)]
pub(crate) struct ShardState {
    pub queue: BoundedQueue<ShardTask>,
    pub counters: ShardCounters,
    pub telemetry: ShardTelemetry,
    /// Set once the restart budget is exhausted: the shard only evidences and
    /// discards from then on, and publishers routed to it fail fast with
    /// `ShardUnavailable` instead of enqueueing work that cannot be enforced.
    pub degraded: AtomicBool,
    /// Tasks pushed but not yet fully processed (drain watches this reach zero).
    pub in_flight: AtomicU64,
}

impl ShardState {
    pub(crate) fn new(queue_capacity: usize, telemetry_enabled: bool) -> Self {
        ShardState {
            queue: BoundedQueue::new(queue_capacity),
            counters: ShardCounters::default(),
            telemetry: ShardTelemetry::new(telemetry_enabled),
            degraded: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
        }
    }
}

/// A `(source, destination)` endpoint-name pair.
type PairKey = (EndpointId, EndpointId);

/// Per-pair counters folded into one `FlowSummary` record at shutdown, and what the
/// pair's allowed checks were last evidenced under.
#[derive(Debug, Default)]
struct PairSummary {
    allowed: u64,
    denied: u64,
    /// Deliveries of this pair shed by drop-oldest mailbox overflow, counted per
    /// message type (summarised mode only — full mode records each shed individually
    /// instead), folded into one `DeliveryDropped` record per `(pair, type)` at
    /// shutdown. Keyed by the `Copy` type name, so counting a shed allocates nothing; a
    /// `BTreeMap` so the shutdown records come out in a deterministic order.
    dropped: BTreeMap<MessageType, u64>,
    /// The first and last counted delivery's send time: the summary's window.
    first_millis: u64,
    last_millis: u64,
    /// Summarised mode: per message type (named by its schema, a handle the pair
    /// already shares), the (effective source, destination) contexts of the last
    /// allowed check written in full. An allowed check under those same two contexts
    /// is folded into the counts; contexts compare by value, which for shared labels
    /// is a pointer compare.
    evidenced: Vec<(Arc<FrozenSchema>, SecurityContext, SecurityContext)>,
}

impl PairSummary {
    /// Counts one delivery sent at `at_millis`; the first one opens the window.
    fn count(&mut self, allowed: bool, at_millis: u64) {
        if self.allowed + self.denied == 0 {
            self.first_millis = at_millis;
        }
        *if allowed { &mut self.allowed } else { &mut self.denied } += 1;
        self.last_millis = at_millis;
    }

    /// Whether an allowed check of `schema`'s message type was last written in full
    /// under these two contexts.
    fn evidenced(
        &self,
        schema: &FrozenSchema,
        source: &SecurityContext,
        destination: &SecurityContext,
    ) -> bool {
        self.evidenced.iter().any(|(held, held_source, held_destination)| {
            held.message_type() == schema.message_type()
                && held_source == source
                && held_destination == destination
        })
    }

    /// Remembers the contexts of an allowed check of `schema`'s type just written in
    /// full.
    fn remember(
        &mut self,
        schema: &Arc<FrozenSchema>,
        source: &SecurityContext,
        destination: &SecurityContext,
    ) {
        let held =
            self.evidenced.iter_mut().find(|held| held.0.message_type() == schema.message_type());
        let contexts = (source.clone(), destination.clone());
        match held {
            Some(held) => (held.1, held.2) = contexts,
            None => self.evidenced.push((Arc::clone(schema), contexts.0, contexts.1)),
        }
    }
}

/// One mailbox's share of a batch: the enforced deliveries bound for it, prepared
/// under the directory read lock and handed over as one group push only after it is
/// released — a Block-policy push may park this worker until the consumer drains, and
/// parking while holding the directory lock would wedge every control-plane write,
/// including the `deregister`/handle-drop that is supposed to release the mailbox.
#[derive(Debug)]
struct HandOffGroup {
    /// Held once per group, not per delivery; `None` once the group is handed over.
    mailbox: Option<Arc<BoundedQueue<FrozenMessage>>>,
    to: EndpointId,
    /// The slot of the group's first delivery not yet handed over, and of its last.
    head: u32,
    tail: u32,
    /// Deliveries not yet handed over.
    len: usize,
}

/// One enforced delivery of the batch, in [`HandOffs::slots`].
#[derive(Debug)]
struct Slot {
    /// Taken out once pushed or abandoned.
    item: Option<FrozenMessage>,
    /// Its task's send time, which stamps the evidence of a shed it causes.
    at_millis: u64,
    /// The slot of the next delivery for the same mailbox ([`NONE`]: none).
    next: u32,
}

/// A batch's hand-offs bucketed by mailbox. The deliveries sit in one buffer in the
/// order the task loop added them, and each bucket is a FIFO list threaded through it,
/// found by endpoint index however many mailboxes a batch touches. A task adds at most
/// one hand-off, so neither the buffer nor the groups outgrow a batch: sized for one up
/// front and reused, they make bucketing allocate nothing.
#[derive(Debug)]
struct HandOffs {
    slots: Vec<Slot>,
    /// The groups in use this batch, in the order of their first delivery.
    groups: Vec<HandOffGroup>,
    /// Groups already handed over this batch.
    done: usize,
    /// Endpoint index → its group this batch ([`NONE`]: none). Grows to the highest
    /// destination id the shard has handed off to: at most one `u32` per name in the
    /// process, as ids are name-table ids.
    group_of: Vec<u32>,
}

/// A [`Slot::next`] or [`HandOffs::group_of`] entry naming nothing.
const NONE: u32 = u32::MAX;

impl HandOffs {
    fn new() -> Self {
        HandOffs {
            slots: Vec::with_capacity(POP_BATCH),
            groups: Vec::with_capacity(POP_BATCH),
            done: 0,
            group_of: Vec::new(),
        }
    }

    /// Appends an enforced delivery to the group of `to`'s mailbox, opening the group
    /// on the batch's first delivery there.
    fn add(
        &mut self,
        to: EndpointId,
        mailbox: &Arc<BoundedQueue<FrozenMessage>>,
        item: FrozenMessage,
    ) {
        if to.index() >= self.group_of.len() {
            self.group_of.resize(to.index() + 1, NONE);
        }
        let slot = self.slots.len() as u32;
        let at_millis = item.sent_at_millis();
        self.slots.push(Slot { item: Some(item), at_millis, next: NONE });
        // The endpoint's group holds the mailbox it had when the group opened; one
        // re-opened since (a restart mid-batch re-reads the directory) gets a new group.
        let index = self.group_of[to.index()] as usize;
        match self.groups.get_mut(index) {
            Some(group)
                if group.mailbox.as_ref().is_some_and(|held| Arc::ptr_eq(held, mailbox)) =>
            {
                self.slots[group.tail as usize].next = slot;
                group.tail = slot;
                group.len += 1;
            }
            _ => {
                self.group_of[to.index()] = self.groups.len() as u32;
                let mailbox = Some(Arc::clone(mailbox));
                self.groups.push(HandOffGroup { mailbox, to, head: slot, tail: slot, len: 1 });
            }
        }
    }

    /// The group being handed over, if the batch has one left.
    fn current(&self) -> Option<&HandOffGroup> {
        self.groups.get(self.done)
    }

    /// The current group's first delivery not yet handed over.
    fn front(&self) -> Option<&FrozenMessage> {
        let group = self.current().filter(|group| group.len > 0)?;
        self.slots[group.head as usize].item.as_ref()
    }

    /// Takes the current group's first delivery not yet handed over.
    fn pop_front(&mut self) -> Option<FrozenMessage> {
        let group = self.groups.get_mut(self.done)?;
        take_front(&mut self.slots, &mut group.head, &mut group.len)
    }

    /// Pushes the current group's first `count` deliveries into its mailbox as one
    /// group — all of them leave the group, taken or, by a closed mailbox, discarded —
    /// and returns what the push did with the send times of the deliveries it took, in
    /// order: a pushed slot keeps its time and its link.
    fn push_front(
        &mut self,
        count: usize,
        when_full: WhenFull<'_, FrozenMessage>,
    ) -> (Pushed, impl Iterator<Item = u64> + '_) {
        let Self { slots, groups, done, .. } = self;
        let HandOffGroup { mailbox, head, len, .. } = &mut groups[*done];
        let mut slot = *head;
        let mut items = std::iter::from_fn(|| take_front(slots, head, len)).take(count);
        let mailbox = mailbox.as_ref().expect("a group in use holds its mailbox");
        let pushed = mailbox.push_group(items.by_ref(), when_full);
        // A closed mailbox discards the rest, as its consumer is gone.
        items.for_each(drop);
        let sent = std::iter::from_fn(move || {
            let Slot { at_millis, next, .. } = slots[slot as usize];
            slot = next;
            Some(at_millis)
        });
        (pushed, sent.take(pushed.taken))
    }

    /// Ends the current group, releasing its mailbox; after the batch's last, the
    /// buffer and the groups are emptied for the next batch.
    fn finish_group(&mut self) {
        self.groups[self.done].mailbox = None;
        self.done += 1;
        if self.done == self.groups.len() {
            for group in self.groups.drain(..) {
                self.group_of[group.to.index()] = NONE;
            }
            self.slots.clear();
            self.done = 0;
        }
    }
}

/// Takes the first delivery of a group (its `head` and `len`) not yet handed over.
fn take_front(slots: &mut [Slot], head: &mut u32, len: &mut usize) -> Option<FrozenMessage> {
    if *len == 0 {
        return None;
    }
    let slot = &mut slots[*head as usize];
    (*head, *len) = (slot.next, *len - 1);
    Some(slot.item.take().expect("a group's unpushed deliveries are in their slots"))
}

/// The unit of work being processed when a panic can lose a delivery. It holds
/// nothing: the delivery is where the supervisor can reach it — a delivery is the
/// batch's last task until it has run, and a hand-off the front of the current group
/// until it is pushed — so supervision costs no reference count per delivery.
#[derive(Debug, Clone, Copy)]
enum Unit {
    /// A queued [`ShardTask::Deliver`], never enforced or counted: lost if it panics.
    Delivery,
    /// A mailbox hand-off, already enforced and counted: abandoned if it panics.
    HandOff,
}

/// Cross-restart batch progress, owned by the supervisor (it lives *outside*
/// the `catch_unwind` closure): everything needed to resume — or, once the
/// restart budget is exhausted, to evidence and abandon — the in-flight batch
/// after a worker panic. `in_flight` stays held for the whole batch across any
/// number of restarts, so `drain` never observes a half-processed batch as
/// done.
struct BatchProgress {
    /// The popped batch's unprocessed tasks, last first: a delivery is taken off the
    /// end once it has run (a panic in it leaves it there for the supervisor to
    /// evidence and take out), so a restart can never re-run it.
    batch: Vec<ShardTask>,
    /// Hand-offs prepared under the directory lock, handed over group by group after
    /// it is released.
    hand_offs: HandOffs,
    /// Drop-oldest sheds of the group push in progress, evidenced right after it.
    shed: Vec<FrozenMessage>,
    local: BatchCounters,
    /// Tasks popped for the active batch; `in_flight` is decremented by this
    /// once the batch fully completes (or is abandoned).
    popped: u64,
    /// Whether a popped batch is mid-processing (a restart then resumes it
    /// instead of popping a new one).
    active: bool,
    /// Timestamp of the most recent task, for restart evidence.
    last_millis: u64,
    /// The unit being processed, if its loss can be evidenced.
    unit: Option<Unit>,
    /// Counter snapshot taken before the in-flight unit, restored on panic so
    /// a half-processed unit contributes nothing but its `deliveries_lost`.
    saved_counters: BatchCounters,
}

impl BatchProgress {
    fn new() -> Self {
        BatchProgress {
            batch: Vec::with_capacity(POP_BATCH),
            // A task adds at most one hand-off, and a group push sheds at most one
            // delivery per delivery it takes, so none of these ever grows: however
            // deep a batch the scheduler hands a shard, its hand-offs — bucketed by
            // mailbox or not — allocate nothing.
            hand_offs: HandOffs::new(),
            shed: Vec::with_capacity(POP_BATCH),
            local: BatchCounters::default(),
            popped: 0,
            active: false,
            last_millis: 0,
            unit: None,
            saved_counters: BatchCounters::default(),
        }
    }

    /// Marks a freshly popped batch as the active one, turned round so its tasks pop
    /// off the end in queue order.
    fn begin(&mut self) {
        self.batch.reverse();
        self.popped = self.batch.len() as u64;
        self.local = BatchCounters::default();
        self.active = true;
    }
}

/// The worker-private state threaded through delivery processing.
struct WorkerState {
    /// Enforcement-time view of the context store, refreshed per batch when stale.
    snapshot: ContextSnapshot,
    appender: BatchedAppender,
    /// Keyed by ids the name table handed out, which no outsider picks.
    summaries: NameMap<PairKey, PairSummary>,
}

/// Maximum tasks drained from the ingress queue per lock acquisition.
const POP_BATCH: usize = 256;

/// Best-effort extraction of a panic payload's message (the two payload shapes
/// `panic!` actually produces, then a marker for anything exotic).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The supervised worker for shard `index`, writing to `appender`, its trail. Runs
/// until its ingress queue is closed and everything queued before the close has been
/// popped and enforced, then writes the shutdown evidence, closes the trail and
/// returns what it retains.
///
/// The enforcement loop itself lives in [`worker_loop`]; this function is the
/// supervisor around it. A panic anywhere inside the loop (injected by a
/// [`failpoint`](crate::FailpointRegistry) or real) is caught instead of taking the
/// dataplane down: the half-processed unit's counters are rolled back and the
/// abandoned delivery is evidenced as an [`AuditEvent::DeliveryLost`] record, the
/// chain carries on from its last hash — so verification still passes across the
/// restart — with an [`AuditEvent::ShardRestarted`] record first after it, both are
/// written to a durable shard's segments, and the same batch resumes where it left
/// off at once, under a bounded restart budget
/// ([`DataplaneConfig::restart_budget`]). Once the budget is exhausted the
/// shard degrades: publishers routed here fail fast with `ShardUnavailable`,
/// and the worker re-enters the same loop, which then evidences everything
/// already accepted as lost instead of enforcing it and keeps popping until the queue
/// closes, so `drain` and shutdown never hang on a dead shard.
pub(crate) fn run_worker(
    index: usize,
    shared: Arc<SharedState>,
    config: DataplaneConfig,
    appender: BatchedAppender,
) -> AuditLog {
    let snapshot = shared.context_store.snapshot();
    let mut state = WorkerState { snapshot, appender, summaries: NameMap::default() };
    let mut progress = BatchProgress::new();
    let mut restarts: u32 = 0;
    loop {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            worker_loop(index, &shared, &config, &mut state, &mut progress);
        }));
        let Err(payload) = outcome else { break };
        let cause = panic_message(payload.as_ref());
        recover_unit(&config, &mut state, &mut progress, &cause);
        let shard = &shared.shards[index];
        if restarts < config.restart_budget {
            restarts += 1;
            shard.counters.shard_restarts.inc();
            // A frame the panic interrupted was never part of the trail, so the chain
            // carries on and `verify_chain` passes across the restart. Pair summaries
            // carry on too — they are evidence already counted, not state derived from
            // anything the panic could have left half-written.
            state.appender.append(
                AuditEvent::ShardRestarted {
                    shard: format!("{}-shard-{index}", shared.name),
                    restart: u64::from(restarts),
                    cause,
                },
                progress.last_millis,
            );
        } else {
            // Budget exhausted: degrade. Publishers routed here fail fast from now on,
            // and the loop re-entered above evidences everything it is still handed —
            // the rest of the batch, its prepared hand-offs, whatever publishers raced
            // the flag — as lost, until the queue closes.
            shard.degraded.store(true, Ordering::SeqCst);
        }
        // The lost unit's record, and the restart's, go to disk before the loop resumes.
        state.appender.write();
    }

    // Emit one FlowSummary per pair (ordered by source then destination *name* — the
    // order of `Name` — so chains are reproducible whatever ids the names were given),
    // plus — in summarised mode, where sheds are not recorded individually — one
    // DeliveryDropped total per (pair, message type) that shed mailbox deliveries, so
    // every shed is evidenced exactly once, against its own type, in either audit mode.
    let named = |((from, to), summary): (PairKey, _)| (from.name(), to.name(), summary);
    let mut pairs: Vec<_> = std::mem::take(&mut state.summaries).into_iter().map(named).collect();
    pairs.sort_by_key(|&(from, to, _)| (from, to));
    for (from, to, summary) in pairs {
        if summary.allowed + summary.denied > 0 {
            state.appender.append(
                AuditEvent::FlowSummary {
                    source: from.to_string(),
                    destination: to.to_string(),
                    allowed: summary.allowed,
                    denied: summary.denied,
                    window_start_millis: summary.first_millis,
                    window_end_millis: summary.last_millis,
                },
                summary.last_millis,
            );
        }
        for (message_type, dropped) in summary.dropped {
            state.appender.append(
                AuditEvent::DeliveryDropped {
                    source: from.to_string(),
                    destination: to.to_string(),
                    message_type: message_type.to_string(),
                    dropped,
                },
                summary.last_millis,
            );
        }
    }
    // Closing writes the epilogue as every batch is written, and seals the store: the
    // segments hold the shard's complete record stream before the engine's join
    // returns. Only the report reads records: what is retained is decoded.
    state.appender.close()
}

/// Rolls back the effects of a panicked unit of work and settles its loss.
///
/// The counter snapshot restore plus settling the unit as lost is what keeps the
/// accounting identity exact: a crashed delivery contributes either its full set of
/// effects (if it completed) or exactly one `deliveries_lost` (if it did not), never a
/// partial mixture. A panicked *hand-off* is the at-most-once edge: its delivery was
/// already enforced and counted, so the abandoned push is evidenced but not re-counted.
fn recover_unit(
    config: &DataplaneConfig,
    state: &mut WorkerState,
    progress: &mut BatchProgress,
    cause: &str,
) {
    if !progress.active {
        // Panicked between batches (the `shard.loop` site): nothing in flight.
        return;
    }
    progress.local = progress.saved_counters;
    let local = &mut progress.local;
    match progress.unit.take() {
        // The crashed delivery is still the batch's last task: out it goes, so the
        // resumed batch never re-runs it.
        Some(Unit::Delivery) => {
            if let Some(ShardTask::Deliver { to, body, .. }) = progress.batch.pop() {
                settle(config, state, local, None, to, &body, Outcome::Lost(cause));
            }
        }
        // The abandoned hand-off is the front of the current group's unpushed tail.
        Some(Unit::HandOff) => {
            let to = progress.hand_offs.current().map(|group| group.to);
            if let (Some(to), Some(item)) = (to, progress.hand_offs.pop_front()) {
                settle(config, state, local, None, to, &item, Outcome::Abandoned(cause));
            }
        }
        // The panic hit between tasks or in a non-delivery task, which is already out
        // of the batch: no delivery was lost.
        None => {}
    }
}

/// The shard loop, the one there is. Returns once its ingress queue is closed and
/// empty: [`BoundedQueue::pop_batch`] pops nothing only then. Panics propagate to the
/// supervisor in [`run_worker`]; all resumable state lives in `progress`/`state`, which
/// the supervisor owns. A degraded shard runs it too, enforcing nothing and consulting
/// no failpoint: see [`run_batch`].
fn worker_loop(
    index: usize,
    shared: &Arc<SharedState>,
    config: &DataplaneConfig,
    state: &mut WorkerState,
    progress: &mut BatchProgress,
) {
    let shard = &shared.shards[index];
    // Only the supervisor sets the flag, between two runs of this loop.
    let degraded = shard.degraded.load(Ordering::Relaxed);
    loop {
        if !progress.active {
            if !degraded {
                failpoint::inject(&config.failpoints, FailpointSite::ShardLoop);
            }
            if shard.queue.pop_batch(&mut progress.batch, POP_BATCH) == 0 {
                return;
            }
            progress.begin();
        }
        run_batch(shared, config, state, progress, shard, degraded);
        flush_batch(shard, progress);
    }
}

/// Processes (or, after a restart, resumes) the active batch: the task loop
/// under one directory read lock, then the mailbox hand-offs with the lock released,
/// one group push per mailbox.
///
/// On a `degraded` shard the batch takes the same steps without enforcing: a
/// delivery is settled as lost where it would be enforced, each prepared hand-off as
/// abandoned, in hand-off order, where its group would be pushed, and no lock is taken.
fn run_batch(
    shared: &Arc<SharedState>,
    config: &DataplaneConfig,
    state: &mut WorkerState,
    progress: &mut BatchProgress,
    shard: &ShardState,
    degraded: bool,
) {
    let telemetry = &shard.telemetry;
    {
        // One directory read-lock per batch; workers never block a publisher's
        // blocked push while holding it (publishers push outside the lock too),
        // and mailbox hand-offs — which may park this worker under the Block
        // overflow policy — are collected here and performed after the lock is
        // released, so a full mailbox never wedges control-plane writers.
        let has_deliver = progress.batch.iter().any(|t| matches!(t, ShardTask::Deliver { .. }));
        let directory = (has_deliver && !degraded).then(|| {
            // Directory-lock wait is a contention series: one sample per batch,
            // so a writer-heavy control plane shows up as a fat tail here.
            let requested = telemetry.enabled().then(Instant::now);
            let guard = shared.directory.read();
            if let Some(requested) = requested {
                telemetry.record_ns(Stage::DirLockWait, requested.elapsed().as_nanos() as u64);
            }
            guard
        });
        // Every delivery evaluates contextual AC: refresh the enforcement-time view
        // of the context store once per batch (a version check when it has not moved).
        if directory.is_some() {
            let fresh = shared.context_store.snapshot_if_newer(state.snapshot.version());
            if let Some(fresh) = fresh {
                state.snapshot = fresh;
            }
        }
        // A delivery runs where it sits, at the end of the batch, and is taken out once
        // it has run: a panic mid-delivery leaves it there for the supervisor to
        // evidence and take out, and the resumed batch carries on with the rest.
        while let Some(task) = progress.batch.last() {
            progress.saved_counters = progress.local;
            let (to, enqueued_ns, body) = match task {
                &ShardTask::Deliver { to, enqueued_ns, ref body } => (to, enqueued_ns, body),
                // Taken out before it parks: nothing to evidence if it panics.
                #[cfg(test)]
                ShardTask::Block(_) => {
                    if let Some(ShardTask::Block(barrier)) = progress.batch.pop() {
                        barrier.wait();
                    }
                    continue;
                }
            };
            progress.last_millis = body.sent_at_millis();
            progress.unit = Some(Unit::Delivery);
            // A degraded shard takes no lock and enforces nothing: its deliveries are lost.
            let (outcome, probe) = match directory.as_deref() {
                Some(directory) => {
                    let probe = DeliveryProbe::begin(telemetry, shared.epoch, enqueued_ns);
                    let snapshot = &state.snapshot;
                    (process_delivery(directory, config, snapshot, &probe, to, body), Some(probe))
                }
                None => (Outcome::Lost(DEGRADED), None),
            };
            let local = &mut progress.local;
            let allowed = settle(config, state, local, probe.as_ref(), to, body, outcome);
            let Some(ShardTask::Deliver { body, .. }) = progress.batch.pop() else {
                unreachable!("the delivery just run is the batch's last task")
            };
            progress.unit = None;
            if let (Some((dst, mask)), Some(probe)) = (allowed, probe) {
                // The zero-copy hand-off: the delivery's own handle moves on to its
                // mailbox's group, its quenched bits cleared in place. A closed mailbox is
                // skipped with one atomic load — torn-down consumers cost the hot path
                // nothing beyond that check. The push itself happens after the batch
                // releases the directory lock (see `HandOffGroup`).
                let mailbox = dst.mailbox.as_ref().filter(|mailbox| !mailbox.is_closed());
                if let Some(mailbox) = mailbox {
                    progress.hand_offs.add(to, mailbox, body.into_quenched(mask));
                }
                probe.lap(Stage::Quench);
                // End-to-end publish→enforced latency, recorded for allowed messages
                // only (the hand-off itself is timed as its own stage).
                probe.finish();
            }
        }
    }
    // Evidence before effect: the batch's records are written before its hand-offs.
    state.appender.write();
    // Directory lock released: hand each mailbox its group. A Block-policy push may park
    // here until the consumer drains (or the mailbox closes) — `in_flight` is still
    // held, so `drain`/`publish` observe the backpressure, while
    // `deregister`/`set_context` remain free to run (and to close the mailbox, which
    // unparks us).
    while let Some(to) = progress.hand_offs.current().map(|group| group.to) {
        progress.saved_counters = progress.local;
        progress.unit = Some(Unit::HandOff);
        if degraded {
            while let Some(item) = progress.hand_offs.front() {
                let local = &mut progress.local;
                settle(config, state, local, None, to, item, Outcome::Abandoned(DEGRADED));
                progress.hand_offs.pop_front();
            }
        } else {
            hand_off_group(config, state, telemetry, progress);
            if progress.hand_offs.front().is_some() {
                // The failpoint fired at the group's front delivery: the ones before it
                // are pushed and counted, and the supervisor abandons this one.
                progress.saved_counters = progress.local;
                failpoint::fire(FailpointSite::MailboxHandOff);
            }
        }
        progress.unit = None;
        progress.hand_offs.finish_group();
    }
    // What the hand-offs evidenced — sheds, abandoned hand-offs — is on disk before
    // `flush_batch` releases the batch's `in_flight`.
    state.appender.write();
}

/// Flushes the completed batch's counters and releases its `in_flight` hold.
fn flush_batch(shard: &ShardState, progress: &mut BatchProgress) {
    shard.counters.flush(&progress.local);
    // Last: drain() may only observe zero once every effect above is visible.
    shard.in_flight.fetch_sub(progress.popped, Ordering::SeqCst);
    progress.active = false;
    progress.popped = 0;
}

/// Why a degraded shard evidences accepted work as lost.
const DEGRADED: &str = "shard degraded: restart budget exhausted";

/// What became of one delivery: the value [`settle`] books.
enum Outcome<'d, 'm> {
    /// An endpoint had left the directory.
    Missing,
    /// Refused by isolation or AC before any flow check; only its pair summary evidences it.
    Refused,
    /// Flow-checked, allowed or denied.
    Checked { flow: FlowVerdict<'m>, src: &'d Endpoint, dst: &'d Endpoint },
    /// Never enforced, for this cause: a degraded shard, or a panic.
    Lost(&'m str),
    /// Enforced and counted, but its mailbox hand-off abandoned for this cause.
    Abandoned(&'m str),
    /// Shed from a full mailbox by the push of a delivery sent at `at_millis`.
    Shed { at_millis: u64 },
}

/// One delivery's verdict: whether both its endpoints are still registered, then the
/// core's answer. Its effects are [`settle`]'s.
fn process_delivery<'d: 'm, 'm>(
    directory: &'d Directory,
    config: &DataplaneConfig,
    snapshot: &ContextSnapshot,
    probe: &DeliveryProbe<'_>,
    to: EndpointId,
    message: &'m FrozenMessage,
) -> Outcome<'d, 'm> {
    failpoint::inject(&config.failpoints, FailpointSite::ShardProcess);
    // Read both endpoints' *current* contexts: a message is always judged against the
    // state of the world at enforcement time, so an entity's context change is in force
    // for every message behind it in the queue (§8.2.2 re-evaluation). An id stands for
    // a name, so this finds whoever holds the name now — or nobody.
    let from = EndpointId::of(message.sender_name());
    let (Some(src), Some(dst)) = (directory.endpoints.get(from), directory.endpoints.get(to))
    else {
        return Outcome::Missing;
    };
    let facts = MessageFacts {
        message_type: message.message_type(),
        secrecy: message.extra_context().secrecy(),
    };
    // The shard answers the core's two questions from the regime and `can_flow`, and
    // laps the stage spans there: only the answers sit between the steps of the
    // sequence. Every AC answer is an evaluation of the regime (`AcMiss`), asked with
    // the names both components and the schema resolved once: the destination's
    // program, integer compares and one snapshot read per condition key.
    let ask_access = || {
        probe.lap(Stage::Isolation);
        let decision = directory.access.decide_by_id(
            dst.component.party(),
            src.component.party(),
            Operation::Send,
            Some(message.message_type().name()),
            snapshot,
            Timestamp(message.sent_at_millis()),
        );
        probe.lap(Stage::AcMiss);
        Some(decision)
    };
    let destination = dst.component.context();
    let ask_flow = |source: &SecurityContext| {
        let decision = can_flow(source, destination);
        probe.lap(Stage::Ifc);
        decision
    };
    match enforce(&src.component, &dst.component, Some(facts), ask_access, ask_flow) {
        Verdict::Flow(flow) => Outcome::Checked { flow, src, dst },
        Verdict::Isolated => {
            probe.lap(Stage::Isolation);
            Outcome::Refused
        }
        Verdict::AccessDenied { .. } => Outcome::Refused,
    }
}

/// Books `outcome`, what became of `message` bound for `to`: its batch-local counter,
/// pair-summary count, stage span (on `probe`, for an enforced delivery) and record —
/// each applied here and nowhere else, as the audit detail is read here and nowhere
/// else. Returns an allowed delivery's destination and quench mask, for its hand-off.
/// The pair summary is counted last: the supervisor does not roll it back, so nothing
/// that can panic may follow it.
fn settle<'d>(
    config: &DataplaneConfig,
    state: &mut WorkerState,
    local: &mut BatchCounters,
    probe: Option<&DeliveryProbe<'_>>,
    to: EndpointId,
    message: &FrozenMessage,
    outcome: Outcome<'d, '_>,
) -> Option<(&'d Endpoint, u64)> {
    let at_millis = match outcome {
        Outcome::Shed { at_millis } => at_millis,
        _ => message.sent_at_millis(),
    };
    let lap = |stage| probe.map_or((), |probe| probe.lap(stage));
    let summarised = config.audit_detail == AuditDetail::Summarised;
    // A refusal is counted in its pair's summary in both modes, a flow check or a shed in
    // summarised mode only.
    let mut summary = match outcome {
        Outcome::Refused => true,
        Outcome::Checked { .. } | Outcome::Shed { .. } => summarised,
        _ => false,
    }
    .then(|| state.summaries.entry((EndpointId::of(message.sender_name()), to)).or_default());
    let (allowed, hand_off) = match outcome {
        Outcome::Missing => {
            local.missing_endpoint += 1;
            return None;
        }
        // Every loss is evidenced, never silent. The name table names the destination,
        // whether or not it is still registered, with no directory lock.
        Outcome::Lost(cause) | Outcome::Abandoned(cause) => {
            let cause = if let Outcome::Lost(_) = outcome {
                local.deliveries_lost += 1;
                cause.to_string()
            } else {
                format!("mailbox hand-off abandoned: {cause}")
            };
            let lost = AuditEvent::DeliveryLost {
                source: message.sender().to_string(),
                destination: to.name().to_string(),
                message_type: Some(message.message_type().to_string()),
                lost: 1,
                cause,
            };
            state.appender.append(lost, at_millis);
            return None;
        }
        // Full mode records each shed as it happens, summarised mode folds them into one
        // `DeliveryDropped` total per pair and type at shutdown: summing `dropped` over
        // the trail counts every shed exactly once in either mode.
        Outcome::Shed { .. } => {
            local.receiver_dropped += 1;
            if let Some(summary) = summary {
                *summary.dropped.entry(*message.message_type()).or_default() += 1;
                summary.last_millis = summary.last_millis.max(at_millis);
            } else {
                let dropped = AuditEvent::DeliveryDropped {
                    source: message.sender().to_string(),
                    destination: to.name().to_string(),
                    message_type: message.message_type().to_string(),
                    dropped: 1,
                };
                state.appender.append(dropped, at_millis);
            }
            return None;
        }
        Outcome::Refused => (false, None),
        Outcome::Checked { flow, src, dst } => {
            let allowed = !flow.decision.is_denied();
            // Full mode records every check. Summarised mode records every denial, and an
            // allowed check when it is the pair's first of its message type under the two
            // contexts now in force.
            let (schema, destination) = (message.schema(), dst.component.context());
            let full_record = !allowed
                || summary.as_ref().map_or(true, |summary| {
                    !summary.evidenced(schema, &flow.source_context, destination)
                });
            if full_record {
                failpoint::inject(&config.failpoints, FailpointSite::AuditAppend);
                state.appender.append_flow_checked(&flow.evidence(at_millis), at_millis);
                if let Some(summary) = summary.as_mut().filter(|_| allowed) {
                    summary.remember(schema, &flow.source_context, destination);
                }
                lap(Stage::AuditAppend);
            } else if let Some(probe) = probe {
                probe.skip();
            }
            let hand_off = allowed.then(|| {
                // Per-attribute source quenching: the schema's mask for the destination's
                // secrecy, evidenced with the check it follows.
                let mask = schema.quench_mask_for(destination.secrecy());
                if mask != 0 && full_record {
                    state.appender.append_message_quenched(
                        src.component.name(),
                        dst.component.name(),
                        message.message_type().as_str(),
                        schema.mask_names(mask),
                        at_millis,
                    );
                    // The record — and the flush and prune an append may run — is audit
                    // time, not quench time.
                    lap(Stage::AuditAppend);
                }
                local.quenched_attributes += u64::from(mask.count_ones());
                // Effective bytes moved: quenched attributes' spans never reach a receiver.
                local.payload_bytes += message.byte_len_after_quench(mask) as u64;
                (dst, mask)
            });
            (allowed, hand_off)
        }
    };
    if allowed {
        local.delivered += 1;
    } else {
        local.denied += 1;
    }
    if let Some(summary) = summary {
        summary.count(allowed, at_millis);
    }
    hand_off
}

/// Hands the current group to its mailbox — the directory lock is no longer held — in
/// one push, and settles drop-oldest sheds. The `mailbox.handoff` failpoint is probed
/// once per delivery, before the push: when it fires, the deliveries before that one
/// are pushed and it is left at the group's front for the caller to abandon.
fn hand_off_group(
    config: &DataplaneConfig,
    state: &mut WorkerState,
    telemetry: &ShardTelemetry,
    progress: &mut BatchProgress,
) {
    let BatchProgress { local, shed, hand_offs, .. } = progress;
    let Some(&HandOffGroup { to, len, .. }) = hand_offs.current() else { return };
    let probe = || failpoint::panic_due(&config.failpoints, FailpointSite::MailboxHandOff);
    let ready = (0..len).position(|_| probe()).unwrap_or(len);
    if ready == 0 {
        return;
    }
    // The hand-off span is the whole push (including any Block stall); the stall
    // histogram additionally isolates just the parked portion, one sample per wait.
    let started = telemetry.enabled().then(Instant::now);
    let when_full = match config.overflow {
        OverflowPolicy::Block => {
            WhenFull::Block(started.map(|_| telemetry.stage_histogram(Stage::BlockStall)))
        }
        OverflowPolicy::DropOldest => WhenFull::ShedOldest(shed),
    };
    let (pushed, sent) = hand_offs.push_front(ready, when_full);
    if let Some(started) = started {
        telemetry.record_ns(Stage::Handoff, started.elapsed().as_nanos() as u64);
    }
    local.receiver_enqueued += pushed.taken as u64;
    // Once full, the mailbox stays full for the rest of the push: the last
    // `shed.len()` deliveries it took are the ones that shed, one each, in order.
    let shed_at = sent.skip(pushed.taken - shed.len());
    for (item, at_millis) in shed.drain(..).zip(shed_at) {
        settle(config, state, local, None, to, &item, Outcome::Shed { at_millis });
    }
}
