//! Shard worker: the per-thread enforcement loop.
//!
//! Each shard owns an ingress [`BoundedQueue`] of [`ShardTask`]s, a private
//! [`DecisionCache`] for IFC, a private [`AdmissionCache`] for contextual AC
//! (subscribed to the engine's context store), a private quench-mask cache, and a
//! private [`BatchedAppender`] writing a per-shard hash-chained audit log. Components
//! are assigned to shards by a stable hash of their name; a message is enforced on the
//! *destination's* shard, so one overloaded subscriber backpressures only its own
//! shard.
//!
//! Everything a delivery passes through here — the queued task, the supervisor's
//! in-flight descriptor, the deferred hand-off, the pair-summary key — names its two
//! endpoints by [`EndpointId`], two `Copy` words: no name reference count is touched
//! per message, and source and destination are resolved by index into the directory's
//! handle table. The name strings are read only where a record is written
//! (`MessageQuenched`, `DeliveryLost`, `DeliveryDropped`, the shutdown `FlowSummary`),
//! and the table keeps the name of an endpoint that has left, so such evidence can
//! always be written.
//!
//! A shard has one loop, [`worker_loop`]: pop a batch, run its tasks under one
//! directory read lock, then push the batch's enforced deliveries into their mailboxes
//! — each a [`BoundedQueue`] too — with the lock released. It amortises
//! synchronisation over the batch: one directory read-lock acquisition, one
//! context-store freshness check, one `in_flight` decrement and one flush of the
//! statistics counters per batch of up to [`POP_BATCH`] tasks, rather than per
//! message. The counters themselves — the live ones, the batch-local deltas and the
//! flush between them — are declared in [`crate::telemetry`]'s one table. The
//! supervisor, [`run_worker`], re-enters that loop after a panic; once its restart
//! budget is spent it re-enters it *degraded*, and the same steps then evidence each
//! delivery as lost and each prepared hand-off as abandoned, until `Shutdown`.
//!
//! The §8.2.2 sequence — isolation, contextual AC at message-type granularity, IFC
//! over the message's *effective* context — is not written here: each delivery is one
//! call of [`legaliot_middleware::admission::enforce`], the core the synchronous bus
//! and channel admission also call, answered through this shard's caches by two
//! closures that also lap the stage spans (every delivery is a typed message, so both
//! questions are always asked). This module is the driver side: counters, pair
//! summaries, audit appends, per-attribute source quenching against the subscriber's
//! secrecy label (Fig. 10; a cached bitmask cleared from the delivery's own presence
//! mask, over the body the whole fan-out shares), the deferred mailbox hand-off, and
//! the supervisor evidencing every loss. A delivery is a [`FrozenMessage`] by value —
//! body handle and mask — from the queued task to the mailbox: the shard allocates
//! nothing for it, quenched or not.

use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use legaliot_audit::{AuditEvent, AuditLog, BatchedAppender};
use legaliot_context::{ContextSnapshot, ContextStore, Timestamp};
use legaliot_ifc::{can_flow, context_hash64, DecisionCache, SecurityContext};
use legaliot_middleware::admission::{enforce, AdmissionCache, MessageFacts, Verdict};
use legaliot_middleware::{FrozenMessage, Operation};

use crate::engine::{AuditDetail, DataplaneConfig, Directory, EndpointId, SharedState};
use crate::failpoint::{self, FailpointSite};
use crate::queue::BoundedQueue;
use crate::subscriber::OverflowPolicy;
use crate::telemetry::{BatchCounters, DeliveryProbe, ShardCounters, ShardTelemetry, Stage};

/// Work items delivered to a shard's ingress queue.
#[derive(Debug)]
pub(crate) enum ShardTask {
    /// Enforce and deliver one message `from → to`.
    Deliver {
        /// The source endpoint's name.
        from: EndpointId,
        /// The destination endpoint's name (owned by this shard).
        to: EndpointId,
        /// Simulated send time in milliseconds.
        at_millis: u64,
        /// Enqueue time in nanoseconds since the engine's epoch (0 when telemetry is
        /// disabled); the worker derives ingress-queue wait and end-to-end delivery
        /// latency from it. Taken once per fan-out, not per subscriber.
        enqueued_ns: u64,
        /// This delivery's handle on the frozen body the whole fan-out shares (one
        /// refcount bump per subscriber after the first, at publish time).
        body: FrozenMessage,
    },
    /// Drop every cached decision involving this context hash (an entity changed
    /// context — §8.2.2 re-evaluation). Also drops quench masks computed against the
    /// superseded context.
    Invalidate {
        /// The superseded context's stable hash.
        context_hash: u64,
    },
    /// Flush audit buffers and exit the worker loop.
    Shutdown,
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

/// What a shard worker hands back at shutdown.
#[derive(Debug)]
pub(crate) struct ShardReport {
    pub audit: AuditLog,
    pub cache_stats: legaliot_ifc::CacheStats,
    pub ac_cache_stats: legaliot_ifc::CacheStats,
}

/// A `(source, destination)` endpoint-name pair.
type PairKey = (EndpointId, EndpointId);

/// Per-pair counters folded into one `FlowSummary` record at shutdown.
#[derive(Debug, Default)]
struct PairSummary {
    allowed: u64,
    denied: u64,
    /// Deliveries of this pair shed by drop-oldest mailbox overflow, counted per
    /// message type (summarised mode only — full mode records each shed individually
    /// instead), folded into one `DeliveryDropped` record per `(pair, type)` at
    /// shutdown. A `BTreeMap` so the shutdown records come out in a deterministic
    /// order (reproducible audit chains).
    dropped: std::collections::BTreeMap<String, u64>,
    first_millis: u64,
    last_millis: u64,
}

/// A mailbox hand-off prepared under the directory read lock but performed only
/// after it is released: a Block-policy push may park this worker until the consumer
/// drains, and parking while holding the directory lock would wedge every
/// control-plane write — including the `deregister`/handle-drop that is supposed to
/// release the mailbox.
struct PendingHandOff {
    mailbox: Arc<BoundedQueue<FrozenMessage>>,
    from: EndpointId,
    to: EndpointId,
    at_millis: u64,
    item: FrozenMessage,
}

/// What the supervisor knows about the unit of work currently being processed,
/// captured before dispatch so a panic mid-unit can be evidenced as a loss
/// (never a silent drop).
struct InFlight {
    /// `false`: a queued [`ShardTask::Deliver`] (a loss here was never
    /// enforced or counted). `true`: a deferred mailbox hand-off (the delivery
    /// was already enforced and counted `delivered`; only the receiver-side
    /// hand-off is abandoned, so the loss is evidenced but not re-counted).
    hand_off: bool,
    from: EndpointId,
    to: EndpointId,
    at_millis: u64,
    /// The body, held (one refcount bump) so loss evidence can name its message type
    /// without building the string unless the evidence is actually written.
    message: FrozenMessage,
}

/// Cross-restart batch progress, owned by the supervisor (it lives *outside*
/// the `catch_unwind` closure): everything needed to resume — or, once the
/// restart budget is exhausted, to evidence and abandon — the in-flight batch
/// after a worker panic. `in_flight` stays held for the whole batch across any
/// number of restarts, so `drain` never observes a half-processed batch as
/// done.
struct BatchProgress {
    /// The popped batch; processed slots are left as inert tombstones
    /// (`Invalidate { context_hash: 0 }`) so a restart can never re-run a
    /// completed task.
    batch: Vec<ShardTask>,
    /// First unprocessed task in `batch`.
    cursor: usize,
    /// Hand-offs prepared under the directory lock, performed (from the front)
    /// after it is released.
    pending: VecDeque<PendingHandOff>,
    local: BatchCounters,
    /// Tasks popped for the active batch; `in_flight` is decremented by this
    /// once the batch fully completes (or is abandoned).
    popped: u64,
    /// Whether a popped batch is mid-processing (a restart then resumes it
    /// instead of popping a new one).
    active: bool,
    shutdown: bool,
    /// Timestamp of the most recent task, for restart evidence.
    last_millis: u64,
    /// The unit being processed, if its loss can be evidenced.
    unit: Option<InFlight>,
    /// Counter snapshot taken before the in-flight unit, restored on panic so
    /// a half-processed unit contributes nothing but its `deliveries_lost`.
    saved_counters: BatchCounters,
    /// `pending` length before the in-flight unit (partial pushes of a crashed
    /// delivery are truncated away on restore).
    saved_pending: usize,
}

impl BatchProgress {
    fn new() -> Self {
        BatchProgress {
            batch: Vec::with_capacity(POP_BATCH),
            cursor: 0,
            // A task defers at most one hand-off, so this never grows: how deep a
            // batch the scheduler happens to hand a shard costs no allocation.
            pending: VecDeque::with_capacity(POP_BATCH),
            local: BatchCounters::default(),
            popped: 0,
            active: false,
            shutdown: false,
            last_millis: 0,
            unit: None,
            saved_counters: BatchCounters::default(),
            saved_pending: 0,
        }
    }

    /// Marks a freshly popped batch as the active one.
    fn begin(&mut self) {
        self.cursor = 0;
        self.popped = self.batch.len() as u64;
        self.local = BatchCounters::default();
        self.active = true;
    }
}

/// The worker-private enforcement state threaded through delivery processing.
struct WorkerState {
    /// IFC flow-decision cache keyed by (source ctx hash, destination ctx hash).
    cache: DecisionCache,
    /// Contextual-AC decision cache, subscribed to the engine's context store.
    ac_cache: AdmissionCache,
    /// Quench-mask cache: the mask is a pure function of (schema, destination
    /// context), so it is recomputed only when either changes.
    quench_cache: QuenchCache,
    /// Enforcement-time view of the context store, refreshed per batch when stale.
    snapshot: ContextSnapshot,
    appender: BatchedAppender,
    summaries: HashMap<PairKey, PairSummary>,
}

/// Quench masks keyed by destination context hash first, so that superseding a context
/// ([`ShardTask::Invalidate`]) drops its masks with one removal. Under a destination
/// sit `(schema hash, mask)` pairs — as many as message types reach that context, a
/// handful — searched linearly.
#[derive(Debug)]
struct QuenchCache {
    by_destination: HashMap<u64, Vec<(u64, u64)>>,
    /// Masks held across all destinations, at most `capacity`.
    len: usize,
    capacity: usize,
}

impl QuenchCache {
    fn with_capacity(capacity: usize) -> Self {
        QuenchCache { by_destination: HashMap::new(), len: 0, capacity }
    }

    fn get(&self, schema_hash: u64, destination_hash: u64) -> Option<u64> {
        let masks = self.by_destination.get(&destination_hash)?;
        masks.iter().find(|(schema, _)| *schema == schema_hash).map(|(_, mask)| *mask)
    }

    /// Caches a mask [`Self::get`] just missed; a full cache is cleared first (epoch
    /// eviction, as in the decision caches).
    fn insert(&mut self, schema_hash: u64, destination_hash: u64, mask: u64) {
        if self.len >= self.capacity {
            self.clear();
        }
        self.by_destination.entry(destination_hash).or_default().push((schema_hash, mask));
        self.len += 1;
    }

    fn invalidate_destination(&mut self, destination_hash: u64) {
        if let Some(masks) = self.by_destination.remove(&destination_hash) {
            self.len -= masks.len();
        }
    }

    fn clear(&mut self) {
        self.by_destination.clear();
        self.len = 0;
    }
}

/// Maximum tasks drained from the ingress queue per lock acquisition.
const POP_BATCH: usize = 256;

/// Maximum cached decisions per shard (flow, AC and quench-mask cache each).
const CACHE_CAPACITY: usize = DecisionCache::DEFAULT_CAPACITY;

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

/// The supervised worker for shard `index`. Runs until a
/// [`ShardTask::Shutdown`] arrives.
///
/// The enforcement loop itself lives in [`worker_loop`]; this function is the
/// supervisor around it. A panic anywhere inside the loop (injected by a
/// [`failpoint`](crate::failpoint) or real) is caught instead of taking the
/// dataplane down: the half-processed unit's counters are rolled back and the
/// abandoned delivery is evidenced as an [`AuditEvent::DeliveryLost`] record,
/// then the shard's derived state is rebuilt — decision caches cold, audit
/// chain re-anchored on the last hash so verification still passes across the
/// restart, with an [`AuditEvent::ShardRestarted`] record first after the
/// re-anchor — and the same batch resumes where it left off, under a bounded
/// restart budget with exponential backoff
/// ([`DataplaneConfig::restart_budget`] /
/// [`DataplaneConfig::restart_backoff`]). Once the budget is exhausted the
/// shard degrades: publishers routed here fail fast with `ShardUnavailable`,
/// and the worker re-enters the same loop, which then evidences everything
/// already accepted as lost instead of enforcing it and keeps popping until
/// Shutdown, so `drain` and shutdown never hang on a dead shard.
pub(crate) fn run_worker(
    index: usize,
    shared: Arc<SharedState>,
    config: DataplaneConfig,
) -> ShardReport {
    let store = Arc::clone(&shared.context_store);
    let authority = format!("{}-shard-{index}", shared.name);
    let appender = match shared.persistence[index].as_ref() {
        Some(persistence) => {
            // Durable mode: the chain resumes from the last *persisted* record of
            // the previous incarnation (hash and id recovered from disk), and every
            // record pruned out of the retention window streams to the shard's
            // segment store before being discarded — loss-free by construction, and
            // as the frames the trail already holds: one `write_all` per run.
            let segments = Arc::clone(&persistence.store);
            let sync_on_flush = config.persistence.as_ref().map_or(true, |p| p.sync_on_flush);
            BatchedAppender::over(
                AuditLog::resume(
                    authority.clone(),
                    persistence.resume_anchor,
                    persistence.resume_next_id,
                ),
                config.audit_batch,
            )
            .with_retention(config.audit_retention)
            .with_prune_sink(move |runs| {
                let mut segments = segments.lock();
                for run in runs {
                    segments.append_frames(run);
                }
                if sync_on_flush {
                    segments.sync();
                }
            })
        }
        None => BatchedAppender::new(authority.clone(), config.audit_batch)
            .with_retention(config.audit_retention),
    };
    let mut state = WorkerState::fresh(&store, appender);
    let mut progress = BatchProgress::new();
    let mut restarts: u32 = 0;
    loop {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            worker_loop(index, &shared, &config, &store, &mut state, &mut progress);
        }));
        let Err(payload) = outcome else { break };
        let cause = panic_message(payload.as_ref());
        recover_unit(&shared, &mut state, &mut progress, &cause);
        let shard = &shared.shards[index];
        if restarts < config.restart_budget {
            restarts += 1;
            shard.counters.shard_restarts.inc();
            // Exponential backoff, capped: a crash-looping shard backs off without
            // stalling drain for long.
            let exponent = (restarts - 1).min(6);
            std::thread::sleep(config.restart_backoff.saturating_mul(1u32 << exponent));
            rebuild_state(&mut state, &store);
            state.appender.append(
                AuditEvent::ShardRestarted {
                    shard: authority.clone(),
                    restart: u64::from(restarts),
                    cause,
                },
                progress.last_millis,
            );
        } else {
            // Budget exhausted: degrade. Publishers routed here fail fast from now on,
            // and the loop re-entered above evidences everything it is still handed —
            // the rest of the batch, its prepared hand-offs, whatever publishers raced
            // the flag — as lost, until Shutdown.
            shard.degraded.store(true, Ordering::SeqCst);
        }
    }

    // Emit one FlowSummary per pair (ordered by source then destination *name*, so
    // chains are reproducible whatever ids the names were given), plus — in summarised
    // mode, where sheds are not recorded individually — one DeliveryDropped total per
    // (pair, message type) that shed mailbox deliveries, so every shed is evidenced
    // exactly once, against its own type, in either audit mode.
    let mut pairs: Vec<(String, String, PairSummary)> = {
        let directory = shared.directory.read();
        let name = |id| directory.endpoints.name(id).to_string();
        let named = |((from, to), summary)| (name(from), name(to), summary);
        state.summaries.into_iter().map(named).collect()
    };
    pairs.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    for (from, to, summary) in pairs {
        if summary.allowed + summary.denied > 0 {
            state.appender.append(
                AuditEvent::FlowSummary {
                    source: from.clone(),
                    destination: to.clone(),
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
                    source: from.clone(),
                    destination: to.clone(),
                    message_type,
                    dropped,
                },
                summary.last_millis,
            );
        }
    }
    // The worker is done with the store; drop its subscription so a store that
    // outlives the dataplane (`with_context_store`) is not pinned by dead cursors.
    state.ac_cache.detach(&store);
    // Flush with the prune sink still installed, so any final retention prune-out
    // reaches disk before the retained tail does.
    state.appender.flush();
    if let Some(persistence) = shared.persistence[index].as_ref() {
        // Graceful-exit epilogue: persist the in-memory tail — the frames as they
        // are — and seal, so the on-disk segments hold the shard's *complete*
        // record stream (pruned prefix + retained tail, in chain order) fsynced
        // before the engine's join observes this worker as done. A store wedged by
        // an IO fault counts these appends as drops instead — visible, never silent.
        let mut segments = persistence.store.lock();
        for run in state.appender.retained_frames() {
            segments.append_frames(run);
        }
        segments.seal();
    }
    // Only the report reads records: decode what is retained.
    let audit = state.appender.into_log();
    ShardReport { audit, cache_stats: state.cache.stats(), ac_cache_stats: state.ac_cache.stats() }
}

impl WorkerState {
    /// Builds the worker's derived state from scratch around the given audit
    /// appender (fresh at spawn; chain-carrying at restart).
    fn fresh(store: &Arc<ContextStore>, appender: BatchedAppender) -> Self {
        let mut ac_cache = AdmissionCache::with_capacity(CACHE_CAPACITY);
        ac_cache.attach(store);
        WorkerState {
            cache: DecisionCache::with_capacity(CACHE_CAPACITY),
            ac_cache,
            quench_cache: QuenchCache::with_capacity(CACHE_CAPACITY),
            snapshot: store.snapshot(),
            appender,
            summaries: HashMap::new(),
        }
    }
}

/// Rebuilds the worker's derived state after a panic: decision caches cold
/// (stale entries from the crashed incarnation can never be trusted), a fresh
/// context snapshot, and the audit appender carried forward as it is — flushed, so
/// the restart ends the batch; a frame the panic interrupted was never part of the
/// trail, so `verify_chain` still passes across the restart. Pair summaries
/// survive: they are evidence aggregation, not derived cache state, and dropping
/// them would lose already-counted checks from the shutdown `FlowSummary` records.
fn rebuild_state(state: &mut WorkerState, store: &Arc<ContextStore>) {
    let mut appender =
        std::mem::replace(&mut state.appender, BatchedAppender::new(String::new(), 1));
    appender.flush();
    // Release the crashed incarnation's store subscription before dropping it:
    // an abandoned cursor would pin the store's change-history compaction (and
    // so its memory) for the rest of the store's life.
    state.ac_cache.detach(store);
    let summaries = std::mem::take(&mut state.summaries);
    *state = WorkerState { summaries, ..WorkerState::fresh(store, appender) };
}

/// Rolls back the effects of a panicked unit of work and evidences its loss.
///
/// The counter snapshot restore plus the single `deliveries_lost` increment is
/// what keeps the accounting identity exact: a crashed delivery contributes
/// either its full set of effects (if it completed) or exactly one
/// `deliveries_lost` (if it did not), never a partial mixture. A panicked
/// *hand-off* is the at-most-once edge: its delivery was already enforced and
/// counted, so the abandoned push is evidenced but not re-counted.
fn recover_unit(
    shared: &SharedState,
    state: &mut WorkerState,
    progress: &mut BatchProgress,
    cause: &str,
) {
    if !progress.active {
        // Panicked between batches (the `shard.loop` site): nothing in flight.
        return;
    }
    progress.local = progress.saved_counters;
    progress.pending.truncate(progress.saved_pending);
    if let Some(unit) = progress.unit.take() {
        if !unit.hand_off {
            progress.local.deliveries_lost += 1;
            // Skip the poisoned task on resume.
            progress.cursor += 1;
        }
        unit.evidence_loss(&mut state.appender, shared, cause);
    }
    // `unit == None`: the panic hit batch scanning or a non-delivery task.
    // The cursor stays put — the slot holds at worst an inert tombstone, so
    // re-running it is a no-op, and no delivery was lost.
}

/// The shard loop, the one there is. Panics propagate to the supervisor in
/// [`run_worker`]; all resumable state lives in `progress`/`state`, which the
/// supervisor owns. A degraded shard runs it too, enforcing nothing and consulting no
/// failpoint: see [`run_batch`].
fn worker_loop(
    index: usize,
    shared: &Arc<SharedState>,
    config: &DataplaneConfig,
    store: &Arc<ContextStore>,
    state: &mut WorkerState,
    progress: &mut BatchProgress,
) {
    let shard = &shared.shards[index];
    // Only the supervisor sets the flag, between two runs of this loop.
    let degraded = shard.degraded.load(Ordering::Relaxed);
    loop {
        if !progress.active {
            if progress.shutdown {
                return;
            }
            if !degraded {
                failpoint::inject(&config.failpoints, FailpointSite::ShardLoop);
            }
            shard.queue.pop_batch(&mut progress.batch, POP_BATCH);
            progress.begin();
        }
        run_batch(shared, config, store, state, progress, shard, degraded);
        flush_batch(shard, progress);
        if progress.shutdown {
            return;
        }
    }
}

/// Processes (or, after a restart, resumes) the active batch: the task loop
/// under one directory read lock, then the deferred mailbox hand-offs with the
/// lock released.
///
/// On a `degraded` shard the batch takes the same steps without enforcing: a
/// delivery is evidenced as lost and counted in `deliveries_lost` where it would be
/// enforced, a prepared hand-off is evidenced as abandoned where it would be pushed,
/// and no lock is taken.
fn run_batch(
    shared: &Arc<SharedState>,
    config: &DataplaneConfig,
    store: &Arc<ContextStore>,
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
        let remaining = &progress.batch[progress.cursor..];
        let has_deliver = remaining.iter().any(|t| matches!(t, ShardTask::Deliver { .. }));
        let directory = if has_deliver && !degraded {
            // Directory-lock wait is a contention series: one sample per batch,
            // so a writer-heavy control plane shows up as a fat tail here.
            if telemetry.enabled() {
                let requested = Instant::now();
                let guard = shared.directory.read();
                telemetry.record_ns(Stage::DirLockWait, requested.elapsed().as_nanos() as u64);
                Some(guard)
            } else {
                Some(shared.directory.read())
            }
        } else {
            None
        };
        // Every delivery evaluates contextual AC: invalidate AC entries whose
        // keys changed, then refresh the enforcement-time context view, once per
        // batch (no-op version checks when the store has not moved). The order is
        // load-bearing: sync consumes the subscription's change feed, so it must
        // run *before* the snapshot refresh — a write landing in between is then
        // seen by the snapshot but not yet consumed, and the next sync
        // conservatively drops the entries it touched. The reverse order could
        // consume a change and then cache decisions from an older snapshot,
        // leaving a stale decision nothing ever invalidates.
        if let Some(directory) = directory.as_deref() {
            state.ac_cache.sync(store, &directory.access);
            if let Some(fresh) = store.snapshot_if_newer(state.snapshot.version()) {
                state.snapshot = fresh;
            }
        }
        while progress.cursor < progress.batch.len() {
            // Take the task out, leaving an inert tombstone — a panic mid-task
            // can then never re-run (or silently discard) queued work: the
            // supervisor resumes from `cursor`, and the crashed task itself is
            // evidenced from the `unit` descriptor captured below.
            let task = std::mem::replace(
                &mut progress.batch[progress.cursor],
                ShardTask::Invalidate { context_hash: 0 },
            );
            progress.saved_counters = progress.local;
            progress.saved_pending = progress.pending.len();
            match task {
                ShardTask::Deliver { from, to, at_millis, enqueued_ns, body } => {
                    progress.last_millis = at_millis;
                    let unit = progress.unit.insert(InFlight {
                        hand_off: false,
                        from,
                        to,
                        at_millis,
                        message: body.clone(),
                    });
                    if degraded {
                        progress.local.deliveries_lost += 1;
                        unit.evidence_loss(&mut state.appender, shared, DEGRADED);
                    } else {
                        let probe = DeliveryProbe::begin(telemetry, shared.epoch, enqueued_ns);
                        process_delivery(
                            directory.as_deref().expect("lock held when batch has deliveries"),
                            config,
                            state,
                            &mut progress.local,
                            &mut progress.pending,
                            probe,
                            from,
                            to,
                            at_millis,
                            body,
                        );
                    }
                }
                ShardTask::Invalidate { context_hash } => {
                    state.cache.invalidate_context(context_hash);
                    state.quench_cache.invalidate_destination(context_hash);
                }
                ShardTask::Shutdown => {
                    progress.shutdown = true;
                }
                #[cfg(test)]
                ShardTask::Block(barrier) => {
                    barrier.wait();
                }
            }
            progress.unit = None;
            progress.cursor += 1;
        }
        // Every slot is a tombstone now; reset for the next pop.
        progress.batch.clear();
        progress.cursor = 0;
    }
    // Directory lock released: hand enforced deliveries to their mailboxes. A
    // Block-policy push may park here until the consumer drains (or the mailbox
    // closes) — `in_flight` is still held, so `drain`/`publish` observe the
    // backpressure, while `deregister`/`set_context` remain free to run (and to
    // close the mailbox, which unparks us).
    loop {
        progress.saved_counters = progress.local;
        progress.saved_pending = progress.pending.len();
        let Some(hand_off) = progress.pending.pop_front() else { break };
        let unit = progress.unit.insert(InFlight {
            hand_off: true,
            from: hand_off.from,
            to: hand_off.to,
            at_millis: hand_off.at_millis,
            message: hand_off.item.clone(),
        });
        if degraded {
            unit.evidence_loss(&mut state.appender, shared, DEGRADED);
        } else {
            complete_hand_off(shared, config, state, &mut progress.local, telemetry, hand_off);
        }
        progress.unit = None;
    }
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

impl InFlight {
    /// Appends the one `DeliveryLost` record for an accepted delivery (or its
    /// hand-off) that will never complete — every loss is evidenced, never silent.
    /// Runs with no directory lock held: the names are read under a short read lock
    /// of their own, and are there whether or not either endpoint is still registered.
    fn evidence_loss(&self, appender: &mut BatchedAppender, shared: &SharedState, cause: &str) {
        let (source, destination) = {
            let directory = shared.directory.read();
            let name = |id| directory.endpoints.name(id).to_string();
            (name(self.from), name(self.to))
        };
        let cause = if self.hand_off {
            format!("mailbox hand-off abandoned: {cause}")
        } else {
            cause.to_string()
        };
        appender.append(
            AuditEvent::DeliveryLost {
                source,
                destination,
                message_type: Some(self.message.message_type().to_string()),
                lost: 1,
                cause,
            },
            self.at_millis,
        );
    }
}

/// The pair's summary entry, opened at `at_millis` on first use.
fn pair_summary(
    summaries: &mut HashMap<PairKey, PairSummary>,
    pair: PairKey,
    at_millis: u64,
) -> &mut PairSummary {
    summaries
        .entry(pair)
        .or_insert_with(|| PairSummary { first_millis: at_millis, ..PairSummary::default() })
}

/// Counts one AC answer by where it came from.
fn count_access(local: &mut BatchCounters, cache_hit: bool) {
    if cache_hit {
        local.ac_cache_hits += 1;
    } else {
        local.ac_cache_misses += 1;
    }
}

/// One delivery: the core's verdict, then this driver's effects.
#[allow(clippy::too_many_arguments)]
fn process_delivery(
    directory: &Directory,
    config: &DataplaneConfig,
    state: &mut WorkerState,
    local: &mut BatchCounters,
    pending: &mut VecDeque<PendingHandOff>,
    probe: DeliveryProbe<'_>,
    from: EndpointId,
    to: EndpointId,
    at_millis: u64,
    message: FrozenMessage,
) {
    failpoint::inject(&config.failpoints, FailpointSite::ShardProcess);
    // Read both endpoints' *current* contexts: a message is always judged against the
    // state of the world at enforcement time, so an entity's context change is in force
    // for every message behind it in the queue (§8.2.2 re-evaluation). An id stands for
    // a name, so this finds whoever holds the name now — or nobody.
    let (Some(src), Some(dst)) = (directory.endpoints.get(from), directory.endpoints.get(to))
    else {
        local.missing_endpoint += 1;
        return;
    };
    let facts = MessageFacts {
        message_type: message.message_type(),
        secrecy: message.extra_context().secrecy(),
    };
    // The shard answers the core's two questions through its private caches, or from
    // the regime and `can_flow` when the config says so, and laps the stage spans
    // there: only the answers sit between the steps of the sequence.
    let (ac_cache, snapshot) = (&mut state.ac_cache, &state.snapshot);
    let ask_access = || {
        probe.lap(Stage::Isolation);
        let message_type = Some(facts.message_type);
        let (access, principal, now) =
            (&directory.access, src.component.principal(), Timestamp(at_millis));
        let to = dst.component.name();
        let answer = if config.cache_ac_decisions {
            ac_cache.decide(access, to, principal, Operation::Send, message_type, snapshot, now)
        } else {
            (access.decide(to, principal, Operation::Send, message_type, snapshot, now), false)
        };
        probe.lap(if answer.1 { Stage::AcHit } else { Stage::AcMiss });
        Some(answer)
    };
    let cache = &mut state.cache;
    let ask_flow = |source: &SecurityContext, joined: bool| {
        let destination = dst.component.context();
        let answer = if config.cache_decisions {
            // With no message-level tags the endpoint's precomputed context hash keys
            // the cache for free.
            let source_hash = if joined { context_hash64(source) } else { src.context_hash };
            cache.check(source, source_hash, destination, dst.context_hash)
        } else {
            (can_flow(source, destination), false)
        };
        probe.lap(Stage::Ifc);
        answer
    };
    let flow = match enforce(&src.component, &dst.component, Some(facts), ask_access, ask_flow) {
        Verdict::Flow(flow) => Some(flow),
        Verdict::Isolated => {
            probe.lap(Stage::Isolation);
            None
        }
        Verdict::AccessDenied { cache_hit, .. } => {
            count_access(local, cache_hit);
            None
        }
    };
    let Some(flow) = flow else {
        // No flow check ran, so there is no FlowChecked record (as on the bus); the
        // imposition of isolation itself is audited on the control-plane log, and the
        // denial is counted in the pair summary — in *both* audit modes, where
        // `FlowSummary` records then cover exactly these denials — so the evidence
        // totals add up.
        local.denied += 1;
        let summary = pair_summary(&mut state.summaries, (from, to), at_millis);
        summary.denied += 1;
        summary.last_millis = at_millis;
        return;
    };
    if let Some(cache_hit) = flow.access_hit {
        count_access(local, cache_hit);
    }
    let hit = flow.flow_hit;
    if hit {
        local.cache_hits += 1;
    } else {
        local.cache_misses += 1;
    }
    let denied = flow.decision.is_denied();
    if denied {
        local.denied += 1;
    } else {
        local.delivered += 1;
    }

    // Full mode records everything; summarised mode records denials and the first
    // check of each pair in full, folding repeats into the per-pair summary.
    let full_record = match config.audit_detail {
        AuditDetail::Full => true,
        AuditDetail::Summarised => denied || !hit,
    };
    if full_record {
        failpoint::inject(&config.failpoints, FailpointSite::AuditAppend);
        flow.write_evidence(at_millis, &mut state.appender);
        probe.lap(Stage::AuditAppend);
    } else {
        probe.skip();
    }

    if !denied {
        // Per-attribute source quenching. The mask is a pure function of (schema,
        // destination secrecy): cache it per (schema hash, destination context
        // hash). A destination context change either misses (new hash) or was
        // dropped by the invalidation broadcast, so stale masks never apply.
        let schema = message.schema();
        let cached = state.quench_cache.get(schema.schema_hash(), dst.context_hash);
        let mask = cached.unwrap_or_else(|| {
            let mask = schema.quench_mask_for(dst.component.context().secrecy());
            state.quench_cache.insert(schema.schema_hash(), dst.context_hash, mask);
            mask
        });
        let fresh = cached.is_none();
        if mask != 0 && (config.audit_detail == AuditDetail::Full || fresh) {
            state.appender.append_message_quenched(
                src.component.name(),
                dst.component.name(),
                message.message_type().as_str(),
                schema.mask_names(mask),
                at_millis,
            );
            // The record — and the flush, prune and fsync an append may run — is
            // audit time, not quench time (the cached-mask lookup rides along).
            probe.lap(Stage::AuditAppend);
        }
        local.quenched_attributes += u64::from(mask.count_ones());
        // Effective bytes moved: quenched attributes' spans never reach a receiver.
        local.payload_bytes += message.byte_len_after_quench(mask) as u64;
        // A closed mailbox is skipped with one atomic load — torn-down consumers
        // cost the hot path nothing beyond that check. The push itself happens
        // after the batch releases the directory lock (see `PendingHandOff`).
        if let Some(mailbox) = dst.mailbox.as_ref().filter(|mailbox| !mailbox.is_closed()) {
            // The zero-copy hand-off: the delivery's own handle moves on to the
            // mailbox, its quenched bits cleared in place.
            pending.push_back(PendingHandOff {
                mailbox: Arc::clone(mailbox),
                from,
                to,
                at_millis,
                item: message.into_quenched(mask),
            });
        }
        probe.lap(Stage::Quench);
        // End-to-end publish→enforced latency, recorded for allowed messages only
        // (the mailbox hand-off itself is deferred and timed as its own stage).
        probe.finish();
    }

    if config.audit_detail == AuditDetail::Summarised {
        let summary = pair_summary(&mut state.summaries, (from, to), at_millis);
        if denied {
            summary.denied += 1;
        } else {
            summary.allowed += 1;
        }
        summary.last_millis = at_millis;
    }
}

/// Performs a deferred mailbox hand-off (the directory lock is no longer held) and
/// evidences drop-oldest sheds, attributing the shed (oldest) delivery to *its own*
/// source and message type. The two audit modes partition the evidence — full mode
/// records each shed individually as it happens; summarised mode folds sheds into one
/// per-pair `DeliveryDropped` total emitted at shutdown — so summing `dropped` over
/// all records counts every shed delivery exactly once in either mode.
fn complete_hand_off(
    shared: &SharedState,
    config: &DataplaneConfig,
    state: &mut WorkerState,
    local: &mut BatchCounters,
    telemetry: &ShardTelemetry,
    hand_off: PendingHandOff,
) {
    failpoint::inject(&config.failpoints, FailpointSite::MailboxHandOff);
    let PendingHandOff { mailbox, to, at_millis, item, .. } = hand_off;
    // The hand-off span is the whole push (including any Block stall); the stall
    // histogram additionally isolates just the parked portion, one sample per push
    // that actually waited.
    let started = telemetry.enabled().then(Instant::now);
    let stall = started.map(|_| telemetry.stage_histogram(Stage::BlockStall));
    let outcome = match config.overflow {
        OverflowPolicy::Block => mailbox.push_blocking(item, stall).map(|_| None),
        OverflowPolicy::DropOldest => mailbox.push_shedding(item),
    };
    if let Some(started) = started {
        telemetry.record_ns(Stage::Handoff, started.elapsed().as_nanos() as u64);
    }
    match outcome {
        Ok(None) => local.receiver_enqueued += 1,
        Ok(Some(shed)) => {
            local.receiver_enqueued += 1;
            local.receiver_dropped += 1;
            // The shed delivery names its own source; the directory (not locked here,
            // so read under a short lock of its own) has the rest.
            match config.audit_detail {
                AuditDetail::Full => {
                    let destination = shared.directory.read().endpoints.name(to).to_string();
                    state.appender.append(
                        AuditEvent::DeliveryDropped {
                            source: shed.sender().to_string(),
                            destination,
                            message_type: shed.message_type().to_string(),
                            dropped: 1,
                        },
                        at_millis,
                    );
                }
                AuditDetail::Summarised => {
                    let source = shared.directory.read().endpoints.id_of(shed.sender());
                    let source = source.expect("a published message's sender has an id");
                    let summary = pair_summary(&mut state.summaries, (source, to), at_millis);
                    *summary.dropped.entry(shed.message_type().to_string()).or_default() += 1;
                    summary.last_millis = summary.last_millis.max(at_millis);
                }
            }
        }
        // The mailbox closed: the delivery is discarded, as its consumer is gone.
        Err(_) => {}
    }
}
