//! The dataplane engine: registration, subscription (admission-checked channels),
//! sharded publishing, context changes, and shutdown reports.
//!
//! An endpoint is filed under its name's id in the process-wide table of
//! [`Name`]s — the id its component's party holds for the access regime — as a `Copy`
//! `EndpointId`. Subscription edges, queued deliveries and the shards' pair summaries
//! carry ids; a shard resolves an id to the endpoint *currently* holding the name by
//! index, and reads the name's text back from the table only where an audit record is
//! written. Memory: one slot word per name id up to the highest one filed here; the
//! `Endpoint` itself is freed when it leaves.
//!
//! Message bodies come from one engine-wide [`BodyRing`]: a publish refills, in place,
//! the oldest body every receiver has let go of, so in steady state the publishing
//! thread allocates nothing per message. The ring is bounded by what the ingress
//! queues can hold (`shards × QUEUE_CAPACITY` bodies) and taken with `try_lock` only —
//! a publisher that finds another one in it builds a body of its own.

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use legaliot_audit::{AuditEvent, AuditLog, BatchedAppender, SegmentStats, SegmentStore};
use legaliot_context::{ContextSnapshot, ContextStore, Name, NameMap, Timestamp};
use legaliot_ifc::SecurityContext;
use legaliot_middleware::admission::{admit_channel, control_steps, reconfigure, ControlDelta};
use legaliot_middleware::bus::teardown_evidence;
use legaliot_middleware::{
    AccessRegime, Action, BodyRing, Component, ControlOutcome, DeliveryOutcome, FrozenMessage,
    FrozenSchema, Message, MessageSchema, MessageType, Operation, Principal,
    ReconfigurationCommand,
};
use legaliot_obs::{FailpointRegistry, ObsConfig};

use crate::failpoint;
use crate::queue::{BoundedQueue, WhenFull};
use crate::shard::{panic_message, run_worker, ShardState, ShardTask};
use crate::subscriber::{OverflowPolicy, Subscriber};
use crate::telemetry::{DataplaneStats, EngineCounters, TelemetrySnapshot};

/// How much audit evidence the data path records per message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditDetail {
    /// One full `FlowChecked` record (both contexts + decision) per IFC-checked
    /// message — the paper's "all attempted flows are evidenced" reading, and what
    /// the synchronous middleware bus does. Denials that carry no flow check
    /// (isolation, per-message contextual AC) cannot produce a `FlowChecked` record;
    /// they are folded into per-pair `FlowSummary` records emitted at shutdown, so
    /// the evidence still totals every refused message.
    Full,
    /// Full records for every IFC denial, and for the first allowed check of each
    /// message type on a `(source, destination)` pair under the pair's current
    /// (effective source, destination) contexts — a context change on either side
    /// makes the next allowed check of each type a full record again. The rest fold
    /// into one `FlowSummary` per pair, emitted at shutdown, whose counts total
    /// *every* check in the window (including the ones also recorded individually).
    /// Isolation and per-message AC denials carry no flow check, so they appear in the
    /// summary counts (and, for isolation, on the control-plane log) only. Quenching
    /// is evidenced as one `MessageQuenched` record beside each allowed check written
    /// in full whose mask is non-empty. Which records exist depends on the message
    /// stream alone, so a model can predict them. Orders of magnitude cheaper than
    /// [`AuditDetail::Full`] at high message rates.
    Summarised,
}

/// How [`Dataplane::publish_message`] carries message bodies to the shards. A
/// one-value enum kept for source compatibility with `benchmark/`; collapsing it
/// belongs to the next `benchmark`-archetype PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PayloadMode {
    /// Freeze the message once at ingress ([`FrozenMessage`]) and hand every
    /// subscriber a handle on that one body: per-delivery cost is refcount bumps, and
    /// quenching is a bitmask over the shared buffer.
    #[default]
    ZeroCopy,
}

/// Durable audit: every trail — each shard's and the control plane's — is written to
/// its own [`SegmentStore`] at the end of each unit of work: a shard's batch, before
/// its hand-offs and again once they are evidenced; a control call, before it releases
/// the directory lock. Retention frees only written records. A store fsyncs by itself,
/// in groups of [`DataplaneConfig::audit_retention`] records ([`Self::sync_on_flush`]),
/// at rotation and at shutdown. A kill keeps every record written, so under
/// [`AuditDetail::Full`] every delivery received is evidenced, and so is every channel
/// it came by; a power cut keeps what was fsynced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistenceConfig {
    /// Base directory; shard `i` writes segments under `<dir>/shard-<i>/`, the control
    /// plane under `<dir>/control/`. At engine startup each directory is re-opened in
    /// turn ([`SegmentStore::reopen`]: each frame after the checkpoint the last clean
    /// shutdown left checked from its bytes on every core, none decoded), torn tails
    /// truncated and counted in
    /// [`DataplaneStats::recovery_truncations`], and each trail's chain re-anchors on
    /// its last persisted record.
    pub dir: PathBuf,
    /// Records per segment before rotation (sealed segments are fsynced and
    /// closed). Clamped to ≥ 1.
    pub max_segment_records: usize,
    /// Group commit (`true`, the default): a store fsyncs once every
    /// [`DataplaneConfig::audit_retention`] records written, so a power cut loses fewer.
    /// `false`, or no retention bound, fsyncs at rotation and shutdown only.
    pub sync_on_flush: bool,
}

impl PersistenceConfig {
    /// Durable defaults rooted at `dir`: 4096 records per segment, group commit on.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        PersistenceConfig { dir: dir.into(), max_segment_records: 4096, sync_on_flush: true }
    }

    /// The segment directory of one shard.
    pub fn shard_dir(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard}"))
    }

    /// The segment directory of the control-plane trail.
    pub fn control_dir(&self) -> PathBuf {
        self.dir.join("control")
    }
}

/// Tuning knobs for a [`Dataplane`].
#[derive(Debug, Clone)]
pub struct DataplaneConfig {
    /// Number of worker shards (threads). Components hash onto shards by name.
    pub shards: usize,
    /// Inert: shards hold no flow-decision cache, every check is a [`can_flow`]
    /// call. Kept so `benchmark/`, which sets it, keeps compiling; it goes when the
    /// benchmark stops naming it.
    ///
    /// [`can_flow`]: legaliot_ifc::can_flow
    pub cache_decisions: bool,
    /// Inert: shards hold no AC-decision cache, every per-message AC question is
    /// answered by the regime. Kept, like [`Self::cache_decisions`], for `benchmark/`.
    pub cache_ac_decisions: bool,
    /// Inert: a trail is sealed, and its retention applied, each time it is written —
    /// once per unit of work — whatever this says. Kept while `benchmark/`, which
    /// sets it, names it.
    pub audit_batch: usize,
    /// Per-message audit policy.
    pub audit_detail: AuditDetail,
    /// Bounded in-memory audit retention per trail: after each write fewer than
    /// `2 × keep` of the newest records stay resident (the chain remains anchored and
    /// verifiable — see [`legaliot_audit::BatchedAppender::with_retention`]). `None`
    /// retains everything, which is unbounded memory under [`AuditDetail::Full`] at
    /// dataplane rates. It is also a durable trail's group commit
    /// ([`PersistenceConfig::sync_on_flush`]).
    pub audit_retention: Option<usize>,
    /// How message bodies travel through the shards (one value; see [`PayloadMode`]).
    pub payload_mode: PayloadMode,
    /// Bounded capacity of each subscriber mailbox opened by
    /// [`Dataplane::open_subscriber`] / [`Dataplane::subscribe_receiver`] (clamped to
    /// ≥ 1). Endpoints without an open mailbox pay nothing.
    pub mailbox_capacity: usize,
    /// What a shard does when a delivery lands on a full mailbox: block until the
    /// consumer makes space (lossless end-to-end backpressure) or shed the oldest
    /// queued message with counted, audited `DeliveryDropped` evidence.
    pub overflow: OverflowPolicy,
    /// Per-stage span timing and latency histograms ([`Dataplane::telemetry`]).
    /// Enabled by default; [`ObsConfig::disabled`] skips every clock read so the hot
    /// path keeps its uninstrumented cost. Counters and the queue park/wait counts
    /// stay on either way (relaxed atomics, the latter on slow paths only); the
    /// queue-depth high-water mark travels with span timing and reads 0 when disabled.
    pub telemetry: ObsConfig,
    /// Deterministic, seeded fault injection ([`FailpointRegistry`]): panics, delays,
    /// queue-full faults and segment IO faults at named sites on the data path and in
    /// each shard's [`SegmentStore`] (not the control plane's: its writes would take
    /// the hits armed for the shards), for exercising shard supervision, churn soaks and
    /// crash recovery. `None` (the default) disables every probe down to a single
    /// branch, the same zero-cost-when-off discipline as `telemetry`.
    pub failpoints: Option<Arc<FailpointRegistry>>,
    /// How many times a panicked shard worker is restarted (the crashed delivery
    /// evidenced as lost, the audit trail carried on and written, the rest of the
    /// in-flight batch resumed) before the shard degrades.
    /// Once degraded, the shard evidences everything it receives as lost and
    /// publishes routed to it fail fast with [`DataplaneError::ShardUnavailable`].
    pub restart_budget: u32,
    /// Durable audit: when set, every trail writes each unit of work's records to its
    /// own on-disk [`SegmentStore`] — what a process kill keeps; a power cut keeps what
    /// was fsynced ([`PersistenceConfig`]).
    /// `None` (the default) keeps the hot path free of IO, as `telemetry` does.
    pub persistence: Option<PersistenceConfig>,
}

impl Default for DataplaneConfig {
    fn default() -> Self {
        DataplaneConfig {
            shards: 4,
            cache_decisions: true,
            cache_ac_decisions: true,
            audit_batch: 1024,
            audit_detail: AuditDetail::Summarised,
            audit_retention: None,
            payload_mode: PayloadMode::ZeroCopy,
            mailbox_capacity: 1024,
            overflow: OverflowPolicy::Block,
            telemetry: ObsConfig::default(),
            failpoints: None,
            restart_budget: 4,
            persistence: None,
        }
    }
}

/// Ingress-queue capacity per shard: a full queue backpressures publishers, and what
/// the queues can hold in flight bounds the engine's ring of reusable message bodies.
const QUEUE_CAPACITY: usize = 4096;

/// Errors from dataplane operations (enforcement denials are outcomes, not errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataplaneError {
    /// The referenced endpoint is not registered.
    UnknownEndpoint {
        /// The missing endpoint's name.
        name: String,
    },
    /// A publish was refused as if a shard's ingress queue were full. A blocking
    /// publish never produces this on its own — it waits for space; only an injected
    /// [`crate::FaultKind::QueueFull`] does, which is how the churn soak exercises a
    /// publisher-side refusal in mid fan-out. Deliveries already enqueued for earlier
    /// subscribers in the fan-out stay enqueued.
    QueueFull {
        /// The shard whose queue is full.
        shard: usize,
        /// The configured per-shard queue capacity.
        capacity: usize,
    },
    /// An endpoint with this name is already registered.
    DuplicateEndpoint {
        /// The conflicting name.
        name: String,
    },
    /// A published message does not conform to its registered schema (or the schema
    /// cannot be frozen).
    SchemaViolation {
        /// Why.
        reason: String,
    },
    /// [`Dataplane::publish_message`] requires a schema registered for the message's
    /// type (payload enforcement is schema-driven); none was found.
    UnknownSchema {
        /// The message type without a registered schema.
        message_type: String,
    },
    /// [`Dataplane::open_subscriber`] found a live receiver already attached to the
    /// endpoint; a mailbox has exactly one consuming handle. Drop (or
    /// [`Subscriber::close`]) the existing handle first.
    ReceiverAttached {
        /// The endpoint with a live receiver.
        name: String,
    },
    /// The destination's shard has degraded: its worker exhausted the restart
    /// budget ([`DataplaneConfig::restart_budget`]) and no longer enforces
    /// traffic, so the publish is refused instead of enqueueing work that would
    /// only be evidenced as lost (or hanging). Deliveries already enqueued for
    /// earlier subscribers in the fan-out stay enqueued, as with
    /// [`DataplaneError::QueueFull`].
    ShardUnavailable {
        /// The degraded shard.
        shard: usize,
    },
}

impl fmt::Display for DataplaneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataplaneError::UnknownEndpoint { name } => write!(f, "unknown endpoint `{name}`"),
            DataplaneError::QueueFull { shard, capacity } => {
                write!(f, "ingress queue of shard {shard} is full (capacity {capacity})")
            }
            DataplaneError::DuplicateEndpoint { name } => {
                write!(f, "endpoint `{name}` is already registered")
            }
            DataplaneError::SchemaViolation { reason } => {
                write!(f, "schema violation: {reason}")
            }
            DataplaneError::UnknownSchema { message_type } => {
                write!(f, "no schema registered for message type `{message_type}`")
            }
            DataplaneError::ReceiverAttached { name } => {
                write!(f, "endpoint `{name}` already has a live receiver attached")
            }
            DataplaneError::ShardUnavailable { shard } => {
                write!(
                    f,
                    "shard {shard} is unavailable (degraded after exhausting its restart budget)"
                )
            }
        }
    }
}

impl std::error::Error for DataplaneError {}

/// The handle of an endpoint *name*: its id in the process-wide name table
/// ([`Name::id`]), and so its index into the [`EndpointTable`]. `Copy`, so a queued
/// delivery names its two endpoints in two words and no reference count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct EndpointId(u32);

impl EndpointId {
    pub(crate) fn of(name: Name) -> Self {
        EndpointId(name.id())
    }

    /// The id of the text `name`; a text nobody interned names no endpoint.
    fn lookup(name: &str) -> Option<Self> {
        Name::lookup(name).map(Self::of)
    }

    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    /// The name behind the id, also after its endpoint has left: no directory lock.
    pub(crate) fn name(self) -> Name {
        Name::from_id(self.0).expect("an endpoint id is a name's id")
    }
}

/// A registered endpoint: its component (context, principal, isolation), its shard, and
/// its subscription edges in both directions.
#[derive(Debug)]
pub(crate) struct Endpoint {
    pub component: Component,
    pub shard: usize,
    /// `(subscriber, subscriber's shard)`, admission-checked at subscribe time and
    /// ordered by shard (by subscription within one). Behind an `Arc` so a publish can
    /// snapshot the fan-out with one refcount bump instead of cloning the list on every
    /// message.
    pub subscribers: Arc<Vec<(EndpointId, usize)>>,
    /// The inverse edges: every endpoint whose `subscribers` names this one. Kept in
    /// step with them by `EndpointTable::{link, unlink}`, so a leaving endpoint
    /// visits its neighbours and not the whole directory.
    pub publishers: Vec<EndpointId>,
    /// The streaming receiver's bounded mailbox, present while a [`Subscriber`] has
    /// been opened for this endpoint. Shards find it under the directory read lock and
    /// push enforced (post-quench) deliveries into it after releasing that lock; a
    /// closed mailbox is skipped with one atomic load, so torn-down consumers never
    /// slow the hot path.
    pub mailbox: Option<Arc<BoundedQueue<FrozenMessage>>>,
}

impl Endpoint {
    /// The endpoint's name, as its component's party holds it.
    fn name(&self) -> Name {
        self.component.party().component()
    }

    fn new(component: Component, shard: usize) -> Self {
        Endpoint {
            component,
            shard,
            subscribers: Arc::new(Vec::new()),
            publishers: Vec::new(),
            mailbox: None,
        }
    }
}

fn unknown(name: &str) -> DataplaneError {
    DataplaneError::UnknownEndpoint { name: name.to_string() }
}

/// The endpoint directory: the endpoint currently holding each name, under the name's
/// [`EndpointId`]. It keeps no name: one that registers again refills its slot, so an
/// id always means "whoever holds this name now" — an id held by a queued delivery
/// resolves to the registration in force at enforcement time (or to nothing). Slots
/// are read with `get`: a process-wide id may name a context key, a principal or
/// another engine's endpoint, and may lie past the last slot.
#[derive(Debug, Default)]
pub(crate) struct EndpointTable {
    /// id → the endpoint holding the name, `None` if none does. Boxed, so a name that
    /// is not an endpoint here costs one word and not an `Endpoint`-sized hole.
    slots: Vec<Option<Box<Endpoint>>>,
}

impl EndpointTable {
    /// The endpoint currently holding the id's name.
    pub fn get(&self, id: EndpointId) -> Option<&Endpoint> {
        self.slots.get(id.index())?.as_deref()
    }

    fn get_mut(&mut self, id: EndpointId) -> Option<&mut Endpoint> {
        self.slots.get_mut(id.index())?.as_deref_mut()
    }

    /// The registered endpoint of this name, or the error for a name nobody holds.
    fn lookup(&self, name: &str) -> Result<(EndpointId, &Endpoint), DataplaneError> {
        let found = EndpointId::lookup(name).and_then(|id| Some((id, self.get(id)?)));
        found.ok_or_else(|| unknown(name))
    }

    fn lookup_mut(&mut self, name: &str) -> Result<(EndpointId, &mut Endpoint), DataplaneError> {
        let found = EndpointId::lookup(name).and_then(|id| Some((id, self.get_mut(id)?)));
        found.ok_or_else(|| unknown(name))
    }

    /// Puts `endpoint` under its name's id, growing the slots to reach it.
    fn register(&mut self, endpoint: Endpoint) -> Result<(), DataplaneError> {
        let index = EndpointId::of(endpoint.name()).index();
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        let Some(slot @ None) = self.slots.get_mut(index) else {
            return Err(DataplaneError::DuplicateEndpoint { name: endpoint.name().to_string() });
        };
        *slot = Some(Box::new(endpoint));
        Ok(())
    }

    /// Takes the endpoint of this name out.
    fn retire(&mut self, name: &str) -> Result<(EndpointId, Box<Endpoint>), DataplaneError> {
        let take = |id: EndpointId| Some((id, self.slots.get_mut(id.index())?.take()?));
        EndpointId::lookup(name).and_then(take).ok_or_else(|| unknown(name))
    }

    /// Adds the edge `publisher → subscriber` to both sides — the publisher's fan-out,
    /// ordered by shard so a publish pushes each shard's run as one group, and the
    /// subscriber's publishers — unless it is there or an end is not registered.
    fn link(&mut self, publisher: EndpointId, subscriber: EndpointId) {
        let shard = self.get(subscriber).map(|destination| destination.shard);
        let (Some(shard), Some(source)) = (shard, self.get_mut(publisher)) else { return };
        if source.subscribers.iter().any(|&(existing, _)| existing == subscriber) {
            return;
        }
        let subscribers = Arc::make_mut(&mut source.subscribers);
        let at = subscribers.partition_point(|&(_, other)| other <= shard);
        subscribers.insert(at, (subscriber, shard));
        self.get_mut(subscriber).expect("found above").publishers.push(publisher);
    }

    /// Removes the edge `publisher → subscriber` from whichever side is still registered
    /// (a leaver is taken out before its edges), and says whether the publisher had it.
    fn unlink(&mut self, publisher: EndpointId, subscriber: EndpointId) -> bool {
        let linked = self.get_mut(publisher).is_some_and(|source| {
            let linked = source.subscribers.iter().any(|&(existing, _)| existing == subscriber);
            if linked {
                Arc::make_mut(&mut source.subscribers).retain(|&(sub, _)| sub != subscriber);
            }
            linked
        });
        if let Some(destination) = self.get_mut(subscriber) {
            destination.publishers.retain(|&existing| existing != publisher);
        }
        linked
    }

    /// Every registered endpoint with its id.
    fn registered(&self) -> impl Iterator<Item = (EndpointId, &Endpoint)> + '_ {
        (0u32..)
            .map(EndpointId)
            .zip(&self.slots)
            .filter_map(|(id, slot)| Some((id, slot.as_deref()?)))
    }
}

/// Shared mutable state: the endpoint directory, registered (frozen) message schemas,
/// the AC regime, plus the control-plane trail (subscriptions, context changes).
#[derive(Debug)]
pub(crate) struct Directory {
    pub endpoints: EndpointTable,
    pub schemas: NameMap<MessageType, Arc<FrozenSchema>>,
    pub access: AccessRegime,
    pub control_audit: BatchedAppender,
}

impl Directory {
    /// Evidences one control-plane change: appended to the control trail and written —
    /// on disk, on a durable engine, before the caller releases the write lock.
    fn record(&mut self, event: AuditEvent, now: Timestamp) {
        self.control_audit.append(event, now.as_millis());
        self.control_audit.write();
    }

    /// [`Dataplane::subscribe`], under the caller's write lock.
    fn subscribe(
        &mut self,
        publisher: &str,
        subscriber: &str,
        snapshot: &ContextSnapshot,
        now: Timestamp,
    ) -> Result<DeliveryOutcome, DataplaneError> {
        let (subscriber_id, destination) = self.endpoints.lookup(subscriber)?;
        let (publisher_id, source) = self.endpoints.lookup(publisher)?;
        let outcome =
            admit_channel(&source.component, &destination.component, &self.access, snapshot, now);
        if outcome.is_delivered() {
            self.endpoints.link(publisher_id, subscriber_id);
        }
        self.record(outcome.channel_evidence(publisher, subscriber), now);
        Ok(outcome)
    }

    /// [`Dataplane::unsubscribe`], under the caller's write lock.
    fn unsubscribe(
        &mut self,
        publisher: &str,
        subscriber: &str,
        now: Timestamp,
    ) -> Result<(), DataplaneError> {
        let (publisher_id, _) = self.endpoints.lookup(publisher)?;
        // A text nobody interned has no id, and so no edge to remove.
        let unlink = |id| self.endpoints.unlink(publisher_id, id);
        if EndpointId::lookup(subscriber).is_some_and(unlink) {
            self.record(teardown_evidence(publisher, subscriber), now);
        }
        Ok(())
    }
}

/// Opens a trail, a shard's or the control plane's alike: bounded by `audit_retention`
/// each time it is written; on a durable engine resumed from and written to `dir` (its
/// newest segment continued while it has room), committing in groups of
/// `audit_retention` under `sync_on_flush`, its torn tails counted in
/// `recovery_truncations`.
fn open_trail(
    authority: String,
    dir: impl FnOnce(&PersistenceConfig) -> PathBuf,
    config: &DataplaneConfig,
    counters: &EngineCounters,
) -> BatchedAppender {
    let segments = config.persistence.as_ref().map(|persistence| {
        let group_commit = config.audit_retention.filter(|_| persistence.sync_on_flush);
        (dir(persistence), persistence.max_segment_records, group_commit)
    });
    let shown = segments.as_ref().map(|(dir, ..)| dir.display().to_string()).unwrap_or_default();
    let (trail, truncations) = BatchedAppender::open(authority, config.audit_retention, segments)
        .unwrap_or_else(|error| panic!("cannot reopen audit segments in {shown}: {error}"));
    counters.recovery_truncations.add(truncations.len() as u64);
    trail
}

/// State shared between the engine handle and the shard workers.
#[derive(Debug)]
pub(crate) struct SharedState {
    pub name: String,
    pub directory: RwLock<Directory>,
    pub shards: Vec<ShardState>,
    /// The context store enforcement-time AC decisions are evaluated against; shards
    /// refresh a snapshot of it once per batch.
    pub context_store: Arc<ContextStore>,
    /// Time zero for telemetry: enqueue timestamps and worker-side clock reads are
    /// nanoseconds since this instant, so a `u64` carries them through [`ShardTask`]s.
    pub epoch: Instant,
}

/// Everything a dataplane hands back at shutdown.
#[derive(Debug)]
pub struct DataplaneReport {
    /// Final aggregated statistics.
    pub stats: DataplaneStats,
    /// Per-shard hash-chained audit logs (flow checks and summaries), index-aligned
    /// with the shard numbering: what each shard's trail retains, handed over by its
    /// `close` as the sealed frames it holds — a record is decoded only when a reader
    /// asks for the log's records, and [`AuditLog::verify_chain`] decodes none.
    pub shard_audit: Vec<AuditLog>,
    /// The control-plane audit log (subscriptions, context changes, isolation): the
    /// suffix [`DataplaneConfig::audit_retention`] keeps, anchored on the record before
    /// it, handed over as frames like a shard's. On a durable engine the whole trail is
    /// in [`PersistenceConfig::control_dir`].
    pub control_audit: AuditLog,
    /// `(shard index, panic message)` for every worker that did not exit
    /// cleanly at shutdown. Supervision catches worker panics and restarts the
    /// shard, so this is empty in practice; it exists so teardown *never*
    /// re-panics — an escaped panic is reported here (with an empty audit log
    /// in that shard's slot) instead of aborting shutdown and wedging the
    /// remaining joins.
    pub worker_panics: Vec<(usize, String)>,
    /// [`SegmentStats::segments_sealed`] of [`Self::segment_stats`] (0 without it): it
    /// counts the final seal each worker makes before its join returns.
    pub segments_sealed: u64,
    /// [`SegmentStats::unsynced_bytes`] of [`Self::segment_stats`] (0 without it):
    /// non-zero after a shutdown means a store wedged on an IO fault.
    pub unsynced_bytes: u64,
    /// Merged statistics of the shards' segment stores (`None` when persistence is off).
    pub segment_stats: Option<SegmentStats>,
}

impl DataplaneReport {
    /// All audit records (control plane + every shard) merged into one timeline.
    pub fn merged_timeline(&self) -> Vec<legaliot_audit::AuditRecord> {
        AuditLog::merged_timeline(
            self.shard_audit.iter().chain(std::iter::once(&self.control_audit)),
        )
    }
}

/// A sharded publish/subscribe enforcement engine.
///
/// The paper's enforcement model (§8.2.2) — admission checks at channel establishment,
/// AC and IFC on every message, re-evaluation on security-context change — run at
/// dataplane rates: components shard across worker threads by name hash, each shard
/// enforces its own subscribers' traffic against the directory's current contexts and
/// rules (no decision is cached, so a change is in force for the next message judged),
/// and audit is written through per-shard batched appenders whose chains stay
/// tamper-evident.
///
/// ```
/// use legaliot_context::{ContextSnapshot, Timestamp};
/// use legaliot_dataplane::{Dataplane, DataplaneConfig};
/// use legaliot_ifc::SecurityContext;
/// use legaliot_middleware::{Component, Message, MessageSchema, Principal};
///
/// let dataplane = Dataplane::new("example", DataplaneConfig::default());
/// let ctx = SecurityContext::from_names(["medical"], Vec::<&str>::new());
/// for name in ["sensor", "analyser"] {
///     dataplane
///         .register(Component::builder(name, Principal::new("ann")).context(ctx.clone()).build())
///         .unwrap();
///     dataplane.allow_sends_to(name);
/// }
/// dataplane.register_schema(MessageSchema::new("reading")).unwrap();
/// let snapshot = ContextSnapshot::default();
/// let admitted = dataplane.subscribe("sensor", "analyser", &snapshot, Timestamp(1)).unwrap();
/// assert!(admitted.is_delivered());
/// let reading = Message::new("reading", SecurityContext::public());
/// dataplane.publish_message("sensor", &reading, Timestamp(2)).unwrap();
/// dataplane.drain();
/// assert_eq!(dataplane.stats().delivered, 1);
/// let report = dataplane.shutdown();
/// assert!(report.shard_audit.iter().all(|log| log.verify_chain().is_intact()));
/// ```
#[derive(Debug)]
pub struct Dataplane {
    shared: Arc<SharedState>,
    workers: Vec<JoinHandle<AuditLog>>,
    /// The shards' segment stores, which [`Self::segment_stats`] merges (durable only).
    stores: Vec<Arc<Mutex<SegmentStore>>>,
    config: DataplaneConfig,
    counters: EngineCounters,
    /// Where published bodies come from and are reused (see the module docs). Taken
    /// with `try_lock` only, so it orders after any lock and publishers never wait on
    /// each other.
    bodies: Mutex<BodyRing>,
}

impl Dataplane {
    /// Creates the engine (with a fresh private [`ContextStore`]) and spawns one worker
    /// thread per shard.
    pub fn new(name: impl Into<String>, config: DataplaneConfig) -> Self {
        Self::with_context_store(name, config, Arc::new(ContextStore::new()))
    }

    /// Creates the engine around an externally owned [`ContextStore`]: per-message
    /// AC decisions are evaluated against snapshots of this store, which every shard
    /// refreshes once per batch, so a [`ContextStore::set`] on a key a rule reads is in
    /// force on every shard from its next batch on. The engine reads snapshots and
    /// holds no subscription, so its writes keep no change for it.
    ///
    /// With [`DataplaneConfig::persistence`] set, each trail's segment directory is
    /// re-opened first, one after another ([`SegmentStore::reopen`]): each
    /// segment is walked once and its frames checked in one pass on every core, each
    /// persisted record's bytes hashed once with no allocation per record, so a
    /// restart costs the bytes on disk, not the records they encode.
    ///
    /// # Panics
    ///
    /// When [`DataplaneConfig::persistence`] is set and a trail's segment directory
    /// cannot be re-opened (unreadable directory, permission failure). Durable audit
    /// that cannot start is a configuration error, not something to silently disable.
    pub fn with_context_store(
        name: impl Into<String>,
        config: DataplaneConfig,
        context_store: Arc<ContextStore>,
    ) -> Self {
        let name = name.into();
        let shards = config.shards.max(1);
        let counters = EngineCounters::default();
        let trails: Vec<BatchedAppender> = (0..shards)
            .map(|i| {
                open_trail(format!("{name}-shard-{i}"), |p| p.shard_dir(i), &config, &counters)
            })
            .collect();
        let stores: Vec<_> = trails.iter().filter_map(BatchedAppender::store).cloned().collect();
        // The failpoint schedule reaches the shards' stores only.
        if let Some(registry) = &config.failpoints {
            stores.iter().for_each(|store| store.lock().set_failpoints(Arc::clone(registry)));
        }
        let control_audit =
            open_trail(format!("{name}-control"), |p| p.control_dir(), &config, &counters);
        let shared = Arc::new(SharedState {
            directory: RwLock::new(Directory {
                endpoints: EndpointTable::default(),
                schemas: NameMap::default(),
                access: AccessRegime::new(),
                control_audit,
            }),
            shards: (0..shards)
                .map(|_| ShardState::new(QUEUE_CAPACITY, config.telemetry.is_enabled()))
                .collect(),
            context_store,
            epoch: Instant::now(),
            name,
        });
        let workers = (0..shards)
            .zip(trails)
            .map(|(index, trail)| {
                let shared = Arc::clone(&shared);
                let config = config.clone();
                thread::spawn(move || run_worker(index, shared, config, trail))
            })
            .collect();
        let bodies = Mutex::new(BodyRing::new(shards.saturating_mul(QUEUE_CAPACITY)));
        Dataplane { shared, workers, stores, config, counters, bodies }
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &DataplaneConfig {
        &self.config
    }

    /// The context store enforcement-time AC decisions are evaluated against.
    pub fn context_store(&self) -> &Arc<ContextStore> {
        &self.shared.context_store
    }

    /// The shard a component name routes to (stable FNV-1a of the name).
    pub fn shard_of(&self, name: &str) -> usize {
        (legaliot_ifc::str_hash64(name) % self.shared.shards.len() as u64) as usize
    }

    /// Registers a component as a dataplane endpoint.
    ///
    /// # Errors
    ///
    /// [`DataplaneError::DuplicateEndpoint`] if the name is taken.
    pub fn register(&self, component: Component) -> Result<(), DataplaneError> {
        let shard = self.shard_of(component.name());
        let endpoint = Endpoint::new(component, shard);
        self.shared.directory.write().endpoints.register(endpoint)
    }

    /// Registers a batch of components under a single directory write lock — the
    /// bulk-loading path for generated fleets, where thousands of endpoints would
    /// otherwise pay one lock round-trip each.
    ///
    /// All-or-nothing: the whole batch is checked (against the directory and for
    /// duplicates within the batch) before anything is inserted, so an `Err`
    /// registers no endpoint. Returns how many components were registered.
    ///
    /// # Errors
    ///
    /// [`DataplaneError::DuplicateEndpoint`] naming the first taken or repeated name.
    pub fn register_bulk(
        &self,
        components: impl IntoIterator<Item = Component>,
    ) -> Result<usize, DataplaneError> {
        let prepared: Vec<Endpoint> = components
            .into_iter()
            .map(|component| {
                let shard = self.shard_of(component.name());
                Endpoint::new(component, shard)
            })
            .collect();
        let mut directory = self.shared.directory.write();
        let mut batch = std::collections::HashSet::with_capacity(prepared.len());
        for endpoint in &prepared {
            let id = EndpointId::of(endpoint.name());
            if directory.endpoints.get(id).is_some() || !batch.insert(id) {
                return Err(DataplaneError::DuplicateEndpoint {
                    name: endpoint.name().to_string(),
                });
            }
        }
        let registered = prepared.len();
        for endpoint in prepared {
            directory.endpoints.register(endpoint).expect("names checked above");
        }
        Ok(registered)
    }

    /// Opens a streaming receiver for `name`: subsequent enforced (post-quench)
    /// payload deliveries to the endpoint are queued in a bounded mailbox
    /// ([`DataplaneConfig::mailbox_capacity`], [`DataplaneConfig::overflow`]) and
    /// handed out through the returned [`Subscriber`] — each a handle on the body the
    /// publisher froze, so the hand-off never copies payload bytes.
    ///
    /// Dropping (or closing) the handle tears the mailbox down: shards stop
    /// enqueueing without blocking, and the endpoint can be re-opened afterwards.
    ///
    /// # Errors
    ///
    /// [`DataplaneError::UnknownEndpoint`] if the endpoint is unregistered;
    /// [`DataplaneError::ReceiverAttached`] if a live receiver already exists (a
    /// mailbox has exactly one consuming handle).
    pub fn open_subscriber(&self, name: &str) -> Result<Subscriber, DataplaneError> {
        let mut directory = self.shared.directory.write();
        let (_, endpoint) = directory.endpoints.lookup_mut(name)?;
        if endpoint.mailbox.as_ref().is_some_and(|mailbox| !mailbox.is_closed()) {
            return Err(DataplaneError::ReceiverAttached { name: name.to_string() });
        }
        let mailbox = Arc::new(BoundedQueue::new(self.config.mailbox_capacity));
        endpoint.mailbox = Some(Arc::clone(&mailbox));
        Ok(Subscriber::new(endpoint.name(), mailbox))
    }

    /// [`Self::open_subscriber`] plus [`Self::subscribe`] in one call: opens the
    /// receive handle, then runs the full admission sequence for
    /// `subscriber ← publisher` and returns both. The handle is returned even when
    /// admission refuses the edge (the endpoint may be admitted to other publishers,
    /// or re-subscribed after a context change); nothing arrives on it until some
    /// subscription is established.
    ///
    /// # Errors
    ///
    /// As [`Self::subscribe`] and [`Self::open_subscriber`]. The receiver is opened
    /// *before* admission runs, and is closed again if admission errors, so an `Err`
    /// leaves no subscription established and no receiver attached.
    pub fn subscribe_receiver(
        &self,
        publisher: &str,
        subscriber: &str,
        snapshot: &ContextSnapshot,
        now: Timestamp,
    ) -> Result<(DeliveryOutcome, Subscriber), DataplaneError> {
        let handle = self.open_subscriber(subscriber)?;
        // On error the handle drops here, closing the just-opened mailbox — the
        // endpoint stays re-openable and no partial state survives the Err.
        let outcome = self.subscribe(publisher, subscriber, snapshot, now)?;
        Ok((outcome, handle))
    }

    /// Registers (or replaces) the schema for a message type, compiled once into its
    /// frozen form ([`FrozenSchema`]: interned name table, kind array, sensitive-
    /// attribute bitmask) shared by every message of the type.
    ///
    /// # Errors
    ///
    /// [`DataplaneError::SchemaViolation`] when the schema cannot be frozen (more than
    /// [`legaliot_middleware::MAX_FROZEN_ATTRIBUTES`] attributes).
    pub fn register_schema(&self, schema: MessageSchema) -> Result<(), DataplaneError> {
        let frozen = FrozenSchema::new(&schema)
            .map_err(|reason| DataplaneError::SchemaViolation { reason })?;
        let mut directory = self.shared.directory.write();
        directory.schemas.insert(schema.message_type, Arc::new(frozen));
        Ok(())
    }

    /// Removes an endpoint and every subscription involving it. In-flight messages to
    /// or from it are dropped (counted as `missing_endpoint`), and its streaming
    /// receiver, if open, is closed (consumers drain the backlog, then observe
    /// `Disconnected`). Unlike [`Self::unsubscribe`], it leaves no control-plane record
    /// of the edges it removes: it is given no time to stamp one.
    pub fn deregister(&self, name: &str) -> Result<(), DataplaneError> {
        let mut directory = self.shared.directory.write();
        let (id, endpoint) = directory.endpoints.retire(name)?;
        if let Some(mailbox) = &endpoint.mailbox {
            mailbox.close();
        }
        // Only the neighbours hold an edge to the leaver (a self-subscription went
        // with the endpoint itself).
        for &publisher in &endpoint.publishers {
            directory.endpoints.unlink(publisher, id);
        }
        for &(subscriber, _) in endpoint.subscribers.iter() {
            directory.endpoints.unlink(id, subscriber);
        }
        Ok(())
    }

    /// Mutates the access-control regime admission checks run against. Rules use the
    /// same vocabulary as the synchronous bus ([`legaliot_middleware::AccessRule`]).
    pub fn with_access<R>(&self, f: impl FnOnce(&mut AccessRegime) -> R) -> R {
        f(&mut self.shared.directory.write().access)
    }

    /// Convenience: allows anyone to `Send` to `name` (the common pub/sub default;
    /// without any rule the regime is default-deny, as in the bus).
    pub fn allow_sends_to(&self, name: &str) {
        use legaliot_middleware::{AccessRule, Operation, Subject};
        self.with_access(|access| {
            access.add_rule(name, AccessRule::allow(Subject::Anyone, Operation::Send, None));
        });
    }

    /// Admission-checks and establishes the subscription `subscriber ← publisher`
    /// (messages published by `publisher` flow to `subscriber`).
    ///
    /// Runs the one §8.2.2 sequence ([`legaliot_middleware::admission::enforce`]:
    /// isolation → AC → IFC) on the bare channel via [`admit_channel`]. The
    /// subscription is recorded only when admitted; the attempt is audited on the
    /// control-plane log either way, with the record the bus writes. Per-message
    /// enforcement runs the sequence again against current contexts.
    ///
    /// # Errors
    ///
    /// [`DataplaneError::UnknownEndpoint`] if either endpoint is unregistered.
    pub fn subscribe(
        &self,
        publisher: &str,
        subscriber: &str,
        snapshot: &ContextSnapshot,
        now: Timestamp,
    ) -> Result<DeliveryOutcome, DataplaneError> {
        self.shared.directory.write().subscribe(publisher, subscriber, snapshot, now)
    }

    /// Removes the subscription `subscriber ← publisher`, if present. A removal is
    /// audited on the control-plane log with the record the bus writes when it tears a
    /// channel down; removing an absent edge changes and records nothing.
    ///
    /// # Errors
    ///
    /// [`DataplaneError::UnknownEndpoint`] if the publisher is unregistered.
    pub fn unsubscribe(
        &self,
        publisher: &str,
        subscriber: &str,
        now: Timestamp,
    ) -> Result<(), DataplaneError> {
        self.shared.directory.write().unsubscribe(publisher, subscriber, now)
    }

    /// The fan-out of one published message: one [`ShardTask::Deliver`] per subscriber,
    /// each carrying a handle on the frozen body — the last one the publisher's
    /// own, so at fan-out 1 the body's count is never written by publisher and shard
    /// at once. The subscribers are ordered by shard, and each shard's run of them is
    /// one `in_flight` add and one group push. Pushes block on a full shard queue
    /// (backpressure), and run with no directory lock held: a blocked push must never
    /// hold the lock a worker needs.
    fn enqueue_fanout(
        &self,
        subscribers: &[(EndpointId, usize)],
        body: FrozenMessage,
    ) -> Result<usize, DataplaneError> {
        // One clock read per fan-out (not per subscriber); 0 when telemetry is off,
        // which the workers treat as "no timing".
        let enqueued_ns = if self.config.telemetry.is_enabled() {
            self.shared.epoch.elapsed().as_nanos() as u64
        } else {
            0
        };
        let mut body = Some(body);
        let mut enqueued = 0;
        let mut rest = subscribers;
        while let Some(&(_, shard)) = rest.first() {
            let run_length = rest.iter().take_while(|(_, other)| *other == shard).count();
            let (run, after) = rest.split_at(run_length);
            rest = after;
            let state = &self.shared.shards[shard];
            // Both checks stay per delivery: the deliveries before a refused one are
            // enqueued, and stay enqueued.
            let mut refused = None;
            let ready = run
                .iter()
                .position(|_| {
                    // A degraded shard no longer enforces anything: fail fast instead of
                    // enqueueing work that would only be evidenced as lost (or hanging
                    // on a queue nobody fully services).
                    if state.degraded.load(Ordering::Relaxed) {
                        refused = Some(DataplaneError::ShardUnavailable { shard });
                    // The `ingress.enqueue` failpoint: injected queue-full backpressure
                    // (or a publisher-side delay), before any in-flight accounting.
                    } else if failpoint::inject_ingress(&self.config.failpoints) {
                        let capacity = state.queue.capacity();
                        refused = Some(DataplaneError::QueueFull { shard, capacity });
                    }
                    refused.is_some()
                })
                .unwrap_or(run.len());
            if ready > 0 {
                let tasks = run[..ready].iter().map(|&(to, _)| {
                    enqueued += 1;
                    let body =
                        if enqueued == subscribers.len() { body.take() } else { body.clone() };
                    ShardTask::Deliver {
                        to,
                        enqueued_ns,
                        body: body.expect("the publisher's handle moves into the last task only"),
                    }
                });
                state.in_flight.fetch_add(ready as u64, Ordering::SeqCst);
                let pushed = state.queue.push_group(tasks, WhenFull::Block(None));
                state.telemetry.record_queue_depth(pushed.depth);
            }
            if let Some(refused) = refused {
                self.counters.published.add(enqueued as u64);
                return Err(refused);
            }
        }
        self.counters.published.add(enqueued as u64);
        Ok(enqueued)
    }

    /// Publishes a typed message from `publisher` to every admitted subscriber,
    /// blocking on full shard queues (backpressure) — the one way a delivery enters
    /// the dataplane. Returns the number of deliveries enqueued.
    ///
    /// The message is validated against its registered schema once at ingress, then
    /// frozen once — sender and send time stamped as the body is written, into a body
    /// the engine's ring has free when there is one — and shared zero-copy (one
    /// refcount bump per subscriber after the first). Per delivery
    /// the destination's shard calls [`legaliot_middleware::admission::enforce`] —
    /// isolation, contextual AC at message-type granularity, IFC over the message's
    /// effective context — then quenches per attribute against the
    /// subscriber's secrecy label (Fig. 10), with quenched attribute names recorded in
    /// the per-shard audit.
    ///
    /// # Errors
    ///
    /// [`DataplaneError::UnknownEndpoint`] if the publisher is unregistered,
    /// [`DataplaneError::UnknownSchema`] if no schema is registered for the message's
    /// type, and [`DataplaneError::SchemaViolation`] if validation fails.
    pub fn publish_message(
        &self,
        publisher: &str,
        message: &Message,
        now: Timestamp,
    ) -> Result<usize, DataplaneError> {
        let (subscribers, frozen) = {
            let directory = self.shared.directory.read();
            let (_, endpoint) = directory.endpoints.lookup(publisher)?;
            let schema = directory.schemas.get(&message.message_type).ok_or_else(|| {
                DataplaneError::UnknownSchema { message_type: message.message_type.to_string() }
            })?;
            let (sender, at_millis) = (endpoint.name(), now.as_millis());
            // Frozen under the read lock, which lends the schema: neither freeze can
            // block.
            let frozen = match self.bodies.try_lock() {
                Some(mut ring) => {
                    let reused = ring.reused();
                    let frozen = ring.freeze_stamped(message, schema, sender, at_millis);
                    self.counters.bodies_reused.add(ring.reused() - reused);
                    frozen
                }
                None => {
                    FrozenMessage::freeze_stamped(message, Arc::clone(schema), sender, at_millis)
                }
            };
            (Arc::clone(&endpoint.subscribers), frozen)
        };
        let frozen = frozen.map_err(|reason| DataplaneError::SchemaViolation { reason })?;
        self.enqueue_fanout(&subscribers, frozen)
    }

    /// Changes an entity's security context — one write under the directory lock,
    /// audited on the control-plane log. That is all the paper's re-evaluation on
    /// context change (§8.2.2) takes: shards cache no decision, so the next message on
    /// any of the entity's channels, on every shard, is judged against the new context.
    /// The call never waits on data-path backpressure: a full ingress queue does not hold
    /// it up. It does wait for the batches in flight, since each shard holds the
    /// directory's read lock across a whole batch's enforcement, until ROADMAP's
    /// "directory as published snapshots" item takes that lock off the data path.
    pub fn set_context(
        &self,
        name: &str,
        context: SecurityContext,
        now: Timestamp,
    ) -> Result<(), DataplaneError> {
        let mut directory = self.shared.directory.write();
        let (_, endpoint) = directory.endpoints.lookup_mut(name)?;
        let before = endpoint.component.context().clone();
        endpoint.component.entity_mut().set_context_trusted(context.clone());
        let change = AuditEvent::LabelChanged {
            entity: name.to_string(),
            before,
            after: context,
            algorithm: None,
        };
        directory.record(change, now);
        Ok(())
    }

    /// Isolates or de-isolates an endpoint; while isolated, every delivery involving it
    /// is denied (§8.2.2 isolation is monitored throughout the connection's lifetime).
    /// One [`reconfigure`] step under the engine's own authority, with no AC question:
    /// its control-plane record is the bus's for an applied `Isolate` / `Deisolate`
    /// issued in the engine's name. Per-message isolation denials are counted (stats,
    /// pair summaries) but carry no flow-check record, as no flow check ran.
    pub fn set_isolated(
        &self,
        name: &str,
        isolated: bool,
        now: Timestamp,
    ) -> Result<(), DataplaneError> {
        let component = name.to_string();
        let step =
            if isolated { Action::Isolate { component } } else { Action::Deisolate { component } };
        let mut directory = self.shared.directory.write();
        let (_, endpoint) = directory.endpoints.lookup_mut(name)?;
        let issuer = &self.shared.name;
        let done = reconfigure(Some(&mut endpoint.component), issuer, &step, |_| None, |_| Ok(()));
        directory.record(done.evidence(), now);
        Ok(())
    }

    /// Handles a third-party reconfiguration command (Fig. 8): the second driver of
    /// [`reconfigure`], beside the bus's `Middleware::handle_control`, with the same
    /// steps ([`control_steps`]), outcomes and `Reconfigured` records. Each step holds
    /// the directory write lock once: the core asks the regime whether the command's
    /// authority may `Reconfigure` the target and changes the endpoint, a `Connect` /
    /// `Disconnect` runs [`Self::subscribe`] / [`Self::unsubscribe`]'s code, and the
    /// record goes to the control-plane log. The next delivery judges the changed
    /// endpoint anew. With no tag registry, no grant needs an ownership check (the bus
    /// checks registered tags only); with no actuator, an `Actuate` fails.
    pub fn handle_control(
        &self,
        command: &ReconfigurationCommand,
        snapshot: &ContextSnapshot,
        now: Timestamp,
    ) -> Vec<ControlOutcome> {
        let issuer = command.authority.as_str();
        let mut outcomes = Vec::new();
        for step in control_steps(&command.action) {
            let target = step.target().expect("a control step is addressed");
            let mut directory = self.shared.directory.write();
            let dir = &mut *directory;
            let access = &dir.access;
            let ask = |who: &Principal| {
                Some(access.decide(target, who, Operation::Reconfigure, None, snapshot, now))
            };
            let endpoint =
                dir.endpoints.lookup_mut(target).ok().map(|(_, found)| &mut found.component);
            let mut done = reconfigure(endpoint, issuer, &step, ask, |_| Ok(()));
            match done.delta {
                Some(ControlDelta::Connect { to }) => {
                    done.connected(dir.subscribe(target, to, snapshot, now));
                }
                Some(ControlDelta::Disconnect { to }) => {
                    dir.unsubscribe(target, to, now).expect("the target is registered");
                }
                Some(ControlDelta::Actuate { .. }) => {
                    let reason = "no actuator on the dataplane".to_string();
                    done.outcome = ControlOutcome::Failed { reason };
                }
                Some(ControlDelta::Relabelled) | None => {}
            }
            dir.record(done.evidence(), now);
            outcomes.push(done.outcome);
        }
        outcomes
    }

    /// Blocks until every enqueued task has been fully processed by its shard.
    ///
    /// Under [`OverflowPolicy::Block`], a shard parked on a full subscriber mailbox
    /// counts as unprocessed work: `drain` then returns only once the consumer makes
    /// space (or its handle closes) — the same end-to-end backpressure a publish
    /// exhibits. Drain from a different thread than the one consuming.
    pub fn drain(&self) {
        let mut spins = 0u32;
        loop {
            let in_flight: u64 =
                self.shared.shards.iter().map(|shard| shard.in_flight.load(Ordering::SeqCst)).sum();
            if in_flight == 0 {
                return;
            }
            // Yield first (cheap when the workers just need the core), then back off
            // to short sleeps so a long drain does not pin a core busy-waiting.
            if spins < 64 {
                spins += 1;
                thread::yield_now();
            } else {
                thread::sleep(std::time::Duration::from_micros(200));
            }
        }
    }

    /// Live aggregated statistics (racy by nature while publishers are active; exact
    /// after [`Self::drain`]).
    pub fn stats(&self) -> DataplaneStats {
        let segments = self.segment_stats().unwrap_or_default();
        DataplaneStats::collect(&self.counters, &self.shared.shards, &segments)
    }

    /// Merged statistics of the shards' segment stores, including fsync latency
    /// histograms; `None` when [`DataplaneConfig::persistence`] is off.
    pub fn segment_stats(&self) -> Option<SegmentStats> {
        let mut merged = SegmentStats::default();
        for store in &self.stores {
            merged.merge(store.lock().stats());
        }
        (!self.stores.is_empty()).then_some(merged)
    }

    /// A point-in-time [`TelemetrySnapshot`]: aggregated counters plus per-shard
    /// stage-latency histograms and contention series (queue depth high-water marks,
    /// park/wait counts, directory-lock wait, Block-policy stalls). Like
    /// [`Self::stats`], live reads are racy by nature and exact after
    /// [`Self::drain`]. Render with [`TelemetrySnapshot::to_json`] /
    /// [`TelemetrySnapshot::to_text`].
    ///
    /// When the engine runs with [`ObsConfig::disabled`], stage histograms are empty
    /// (no span timing is taken) and the queue-depth high-water marks, which travel
    /// with span timing, read 0; counters and the queue park/wait counts are still real.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let segments = self.segment_stats().unwrap_or_default();
        TelemetrySnapshot {
            dataplane: self.shared.name.clone(),
            enabled: self.config.telemetry.is_enabled(),
            stats: DataplaneStats::collect(&self.counters, &self.shared.shards, &segments),
            segments,
            shards: self
                .shared
                .shards
                .iter()
                .map(|shard| shard.telemetry.snapshot(shard.queue.contention()))
                .collect(),
        }
    }

    /// Closes every open subscriber mailbox: shards stop enqueueing, blocked
    /// consumers wake, and each consumer observes `Disconnected` once its backlog is
    /// drained. Run at shutdown (after workers exit, so nothing enqueued is lost).
    fn close_mailboxes(&self) {
        let directory = self.shared.directory.read();
        for (_, endpoint) in directory.endpoints.registered() {
            if let Some(mailbox) = &endpoint.mailbox {
                mailbox.close();
            }
        }
    }

    /// The one stop: closes each shard's ingress queue — its worker enforces the backlog,
    /// then closes its trail and returns — and joins the worker, then closes the control
    /// trail as a worker's epilogue closes a shard's. A panic that escaped supervision
    /// (e.g. in the shutdown epilogue) is reaped without re-panicking: a placeholder log
    /// fills its slot, and the panic is returned beside the trails.
    fn stop_workers(&mut self) -> (Vec<AuditLog>, AuditLog, Vec<(usize, String)>) {
        for shard in &self.shared.shards {
            shard.queue.close();
        }
        let mut shard_audit = Vec::with_capacity(self.workers.len());
        let mut worker_panics = Vec::new();
        for (index, worker) in self.workers.drain(..).enumerate() {
            shard_audit.push(worker.join().unwrap_or_else(|payload| {
                worker_panics.push((index, panic_message(payload.as_ref())));
                AuditLog::new(format!("{}-shard-{index}", self.shared.name))
            }));
        }
        let control_audit = self.shared.directory.write().control_audit.close();
        (shard_audit, control_audit, worker_panics)
    }

    /// Drains outstanding work, stops every worker and returns the final report with
    /// all audit logs (chains intact).
    pub fn shutdown(mut self) -> DataplaneReport {
        self.drain();
        let (shard_audit, control_audit, worker_panics) = self.stop_workers();
        // Workers are gone, so every enforced delivery is in its mailbox; closing now
        // lets consumers drain the backlog and then observe Disconnected.
        self.close_mailboxes();
        // Workers sealed their stores in the shutdown epilogue (before the joins
        // above returned), so these merged stats already cover the final fsyncs.
        let segment_stats = self.segment_stats();
        let stats = self.stats();
        DataplaneReport {
            stats,
            shard_audit,
            control_audit,
            worker_panics,
            segments_sealed: segment_stats.as_ref().map_or(0, |s| s.segments_sealed),
            unsynced_bytes: segment_stats.as_ref().map_or(0, |s| s.unsynced_bytes),
            segment_stats,
        }
    }
}

impl Drop for Dataplane {
    fn drop(&mut self) {
        // Stop the workers if `shutdown()` was never called, so threads never leak.
        if self.workers.is_empty() {
            return;
        }
        // Close mailboxes *before* the stop, or a shard parked on a full Block-policy
        // mailbox never returns to its queue and the join hangs. The abandon path: the
        // backlog is still enforced, its hand-offs discarded (`shutdown()` closes them
        // only once the workers are done).
        self.close_mailboxes();
        self.stop_workers();
    }
}

/// Test hooks, kept apart: outside them, only [`Dataplane::enqueue_fanout`] pushes into
/// a shard's ingress queue, and only [`Dataplane::stop_workers`] closes one.
#[cfg(test)]
impl Dataplane {
    /// Test hook: every edge as `(publisher, subscriber)`, once as the `subscribers`
    /// lists hold it and once as the `publishers` lists do; both sorted, each name read
    /// back from its id. Checks on the way that every endpoint is filed under its
    /// name's id — the one its party holds — and that `id → name → id` round-trips.
    pub(crate) fn edges_both_ways(&self) -> [Vec<(String, String)>; 2] {
        let directory = self.shared.directory.read();
        let table = &directory.endpoints;
        for (id, endpoint) in table.registered() {
            let name = endpoint.component.party().component();
            assert_eq!((EndpointId::of(name), id.name().as_str()), (id, endpoint.component.name()));
            assert_eq!(EndpointId::lookup(endpoint.component.name()), Some(id));
        }
        let name_of = |id: EndpointId| id.name().to_string();
        let (mut forward, mut inverse) = (Vec::new(), Vec::new());
        for (id, endpoint) in table.registered() {
            for (subscriber, shard) in endpoint.subscribers.iter() {
                assert_eq!(*shard, table.get(*subscriber).expect("edges end at the living").shard);
                forward.push((name_of(id), name_of(*subscriber)));
            }
            for publisher in &endpoint.publishers {
                inverse.push((name_of(*publisher), name_of(id)));
            }
        }
        forward.sort();
        inverse.sort();
        [forward, inverse]
    }

    /// Test hook: takes the body ring, as a publisher in the middle of a freeze has it.
    pub(crate) fn hold_body_ring(&self) -> impl Drop + '_ {
        self.bodies.lock()
    }

    /// Test hook: parks the worker of a drained shard on the returned barrier. Returns
    /// once the worker has taken the task — alone in its batch, so it parks holding no
    /// directory lock and the test may run control-plane writes meanwhile.
    pub(crate) fn block_shard(&self, shard: usize) -> Arc<std::sync::Barrier> {
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let state = &self.shared.shards[shard];
        state.in_flight.fetch_add(1, Ordering::SeqCst);
        state.queue.push(ShardTask::Block(Arc::clone(&barrier)));
        while !state.queue.is_empty() {
            thread::yield_now();
        }
        barrier
    }

    /// Test hook: closes a shard's ingress queue as the stop does, joining nothing.
    pub(crate) fn close_ingress(&self, shard: usize) {
        self.shared.shards[shard].queue.close();
    }

    /// Test hook: whether a shard's worker has returned.
    pub(crate) fn worker_exited(&self, shard: usize) -> bool {
        self.workers[shard].is_finished()
    }
}
