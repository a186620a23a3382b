//! Everything the dataplane reports about itself: the one table of counters, per-stage
//! span timing, contention series, and the [`TelemetrySnapshot`] behind
//! [`Dataplane::telemetry`](crate::Dataplane::telemetry).
//!
//! ## One table
//!
//! Every counter, gauge and store-side histogram is one row of the `metrics_table!`
//! invocation below: its doc line and its one name, grouped by where the value comes
//! from. The [`DataplaneStats`] field *is* the exposition name. The table emits
//! [`DataplaneStats`] itself, the engine's and each shard's live counters
//! ([`legaliot_obs::Counter`]s), the `Copy` batch-local deltas a shard worker adds to per
//! delivery (and its supervisor snapshots and restores), the per-batch flush, the fold
//! behind [`Dataplane::stats`](crate::Dataplane::stats) and the rows of
//! [`TelemetrySnapshot::exposition`] — so adding a counter is one row plus its increment
//! site, and no two lists can fall out of step. Two shard fields stay outside it because
//! they are synchronisation, not metrics: `in_flight`, which `drain` watches, and the
//! `degraded` flag publishers test (the table only counts it).
//!
//! ## Span timing
//!
//! Each shard owns one [`LatencyHistogram`] per [`Stage`] plus a queue-depth
//! high-water-mark gauge; the worker records into them with relaxed atomics only.
//! When [`DataplaneConfig::telemetry`](crate::DataplaneConfig::telemetry) is disabled,
//! every clock read is skipped — the internal `DeliveryProbe` carries no `Instant` and each
//! instrumentation point reduces to one branch — so the hot path keeps its
//! uninstrumented cost (`benchmark/` measures end to end with it off; the gap to its
//! `--traced` run is the overhead).
//!
//! ## Stage glossary
//!
//! Spans cover the §8.2.2 enforcement sequence as the shard worker executes it:
//!
//! - `queue_wait` — publish-side enqueue to the worker popping the task (ingress
//!   queueing delay).
//! - `isolation` — endpoint resolution in the directory plus the isolation check.
//! - `ac_miss` — the per-message contextual AC decision at message-type granularity:
//!   the access regime evaluated on the batch's context snapshot. Every AC answer is
//!   recorded here. `ac_hit` is never recorded (shards hold no decision cache); the
//!   stage stays so the names `benchmark/` reads keep their place.
//! - `ifc` — the IFC flow decision over the message's effective context (the join
//!   of any message-level tags, and the lattice check).
//! - `quench` — per-attribute source quenching: the schema's mask for the
//!   destination, its application, and adding the delivery to its mailbox's group.
//! - `audit_append` — appending the per-message `FlowChecked` record and any
//!   `MessageQuenched` record beside it (recorded only when one is written, so
//!   summarised-mode deliveries folded into the pair summary do not dilute the span).
//! - `handoff` — a mailbox's group push after the directory lock is released,
//!   including any Block-policy stall: one sample per group push, that is per mailbox
//!   per batch, not per delivery.
//! - `delivery` — end-to-end enqueue → enforcement complete for *allowed* messages:
//!   the publish→deliver latency the bench reports percentiles of.
//!
//! Contention series:
//!
//! - `dir_lock_wait` — time the worker waited to acquire the directory read lock
//!   (one sample per batch containing deliveries).
//! - `block_stall` — time a `handoff` spent parked on a full Block-policy mailbox
//!   (one sample per wait; a group larger than the mailbox may wait more than once).
//! - consumer-park / producer-wait counts come from each shard's ingress
//!   [`BoundedQueue`](crate::queue::BoundedQueue) and are always on (relaxed counters on
//!   slow paths only). The queue depth high-water mark travels with span timing: feeding
//!   it is a `fetch_max` on a shared line per push, so with telemetry disabled it is not
//!   fed and reads 0.

use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::time::Instant;

use legaliot_audit::SegmentStats;
use legaliot_obs::{Counter, HistogramSnapshot, LatencyHistogram, MaxGauge, MetricsSnapshot};

use crate::queue::QueueContention;
use crate::shard::ShardState;

/// Declares what the dataplane reports, once (see the module docs): each group is one
/// source of values, each row one number.
macro_rules! metrics_table {
    (
        engine { $($(#[$engine_doc:meta])* $engine:ident,)* }
        batched { $($(#[$batched_doc:meta])* $batched:ident,)* }
        live { $($(#[$live_doc:meta])* $live:ident,)* }
        flags { $($(#[$flag_doc:meta])* $flag:ident <- $flag_field:ident,)* }
        segments { $($(#[$segment_doc:meta])* $segment:ident <- $segment_field:ident,)* }
        segment_histograms {
            $($(#[$histogram_doc:meta])* $histogram:literal <- $histogram_field:ident,)*
        }
    ) => {
        /// Aggregated live statistics across all shards.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct DataplaneStats {
            $($(#[$engine_doc])* pub $engine: u64,)*
            $($(#[$batched_doc])* pub $batched: u64,)*
            $($(#[$live_doc])* pub $live: u64,)*
            $($(#[$flag_doc])* pub $flag: u64,)*
            $($(#[$segment_doc])* pub $segment: u64,)*
        }

        /// The engine handle's own live counters.
        #[derive(Debug, Default)]
        pub(crate) struct EngineCounters {
            $(pub $engine: Counter,)*
        }

        /// One shard's live counters, written by its worker and read by the engine.
        #[derive(Debug, Default)]
        pub(crate) struct ShardCounters {
            $(pub $batched: Counter,)*
            $(pub $live: Counter,)*
        }

        /// Counter deltas accumulated over one pop batch in plain integers, flushed in
        /// one go. `Copy` so the supervisor can snapshot it before each unit of work and
        /// restore the snapshot if the unit panics half-way — a crashed delivery then
        /// contributes exactly one `deliveries_lost`, and nothing else, to the
        /// accounting identity.
        #[derive(Debug, Default, Clone, Copy)]
        pub(crate) struct BatchCounters {
            $(pub $batched: u64,)*
        }

        impl ShardCounters {
            /// Publishes one batch's deltas with relaxed adds. The caller releases the
            /// batch's `in_flight` hold only afterwards.
            pub(crate) fn flush(&self, local: &BatchCounters) {
                $(self.$batched.add(local.$batched);)*
            }
        }

        impl DataplaneStats {
            /// Reads every source once: the engine's counters, each shard's counters
            /// (summed) and flags (counted), the merged segment stores.
            pub(crate) fn collect(
                engine: &EngineCounters,
                shards: &[ShardState],
                segments: &SegmentStats,
            ) -> Self {
                let mut stats = DataplaneStats {
                    $($engine: engine.$engine.get(),)*
                    $($segment: segments.$segment_field,)*
                    ..DataplaneStats::default()
                };
                for shard in shards {
                    $(stats.$batched += shard.counters.$batched.get();)*
                    $(stats.$live += shard.counters.$live.get();)*
                    $(stats.$flag += u64::from(shard.$flag_field.load(Ordering::Relaxed));)*
                }
                stats
            }
        }

        impl TelemetrySnapshot {
            /// The table's rows under their one name: counters (a flag count is a
            /// gauge — a level, not a monotone count) and the segment stores'
            /// histograms.
            fn expose_table(&self, out: &mut MetricsSnapshot) {
                $(out.record_counter(stringify!($engine), self.stats.$engine);)*
                $(out.record_counter(stringify!($batched), self.stats.$batched);)*
                $(out.record_counter(stringify!($live), self.stats.$live);)*
                $(out.record_gauge(stringify!($flag), self.stats.$flag);)*
                $(out.record_counter(stringify!($segment), self.stats.$segment);)*
                $(out.record_histogram($histogram, self.segments.$histogram_field.0);)*
            }
        }
    };
}

metrics_table! {
    // Counted by the engine handle: per fan-out, and once per trail directory at startup.
    engine {
        /// Deliveries enqueued on shard queues by `publish_message`: one per admitted
        /// subscriber of each published message.
        published,
        /// Messages whose body was refilled in place rather than allocated — ring
        /// effectiveness, read against messages published.
        bodies_reused,
        /// Torn or corrupt segment tails truncated while recovering the persistence
        /// directories (every shard's and the control plane's) at engine startup.
        /// Zero in normal runs.
        recovery_truncations,
    }
    // Counted by the shard workers per delivery, batch-locally; summed over shards.
    batched {
        /// Messages whose flow check allowed delivery.
        delivered,
        /// Messages denied: by isolation, by per-message contextual AC or by IFC. Only IFC
        /// denials carry a `FlowChecked` record; all are counted in the per-pair
        /// `FlowSummary` in summarised mode, isolation and AC ones in either mode
        /// (`legaliot_fleet::reconcile` checks the totals).
        denied,
        /// Messages dropped because an endpoint had been deregistered mid-flight.
        missing_endpoint,
        /// Attributes removed by per-delivery source quenching (Fig. 10).
        quenched_attributes,
        /// Effective payload bytes moved to receivers: the encoded size of each delivered
        /// message *minus* the spans of its quenched attributes, summed over deliveries —
        /// what subscribers actually observe, not what publishers encoded.
        payload_bytes,
        /// Enforced deliveries handed to subscriber mailboxes (streaming receivers).
        receiver_enqueued,
        /// Deliveries shed from full subscriber mailboxes under
        /// [`OverflowPolicy::DropOldest`](crate::OverflowPolicy::DropOldest) (each
        /// evidenced as a `DeliveryDropped` record).
        receiver_dropped,
        /// Accepted deliveries abandoned by a crashed or degraded shard, each
        /// evidenced as an `AuditEvent::DeliveryLost` record — the accounting
        /// identity `published == delivered + denied + missing_endpoint +
        /// deliveries_lost` holds exactly after
        /// [`Dataplane::drain`](crate::Dataplane::drain), and those records (less
        /// abandoned hand-offs) total it (`legaliot_fleet::reconcile`). Zero in normal runs.
        deliveries_lost,
    }
    // Counted by a shard's supervisor straight into the live counter; summed over shards.
    live {
        /// Times a panicked shard worker was restarted by its supervisor (audit trail
        /// carried on; see `AuditEvent::ShardRestarted`).
        /// Zero in normal runs.
        shard_restarts,
    }
    // Shards with the named `ShardState` flag up.
    flags {
        /// Shards currently degraded (restart budget exhausted; publishes routed to
        /// them fail with
        /// [`DataplaneError::ShardUnavailable`](crate::DataplaneError::ShardUnavailable)).
        /// Zero in normal runs.
        degraded_shards <- degraded,
    }
    // Copied from the named field of the merged `SegmentStats`.
    segments {
        /// Segment files opened for writing across all shard stores. Zero when
        /// persistence is off.
        segments_written <- segments_written,
        /// Audit records persisted to on-disk segments (each batch's, then the
        /// shutdown epilogue's). Zero when persistence is off.
        segment_records_persisted <- records_persisted,
        /// Bytes covered by successful segment fsyncs. Zero when persistence is off.
        segment_bytes_fsynced <- bytes_fsynced,
        /// Records a wedged segment store had to drop (injected or real IO fault;
        /// each loss is counted, never silent). Zero in normal runs.
        segment_records_dropped <- records_dropped,
    }
    // The named distribution of the merged `SegmentStats`, exposed as a histogram.
    segment_histograms {
        /// Segment fsync latency in nanoseconds, one sample per successful sync.
        "segment.fsync" <- fsync,
    }
}

/// Compatibility shims: shards hold no decision cache, so both ratios read 0. They stay
/// while `benchmark/` names them.
impl DataplaneStats {
    /// Always `0`: there is no flow-decision cache.
    pub fn cache_hit_ratio(&self) -> f64 {
        0.0
    }

    /// Always `0`: there is no AC-decision cache.
    pub fn ac_cache_hit_ratio(&self) -> f64 {
        0.0
    }
}

/// The timed spans of the per-shard enforcement pipeline (see the module docs for
/// the glossary).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // the variants are documented as a set in the module glossary
pub enum Stage {
    QueueWait,
    Isolation,
    AcHit,
    AcMiss,
    Ifc,
    Quench,
    AuditAppend,
    Handoff,
    Delivery,
    DirLockWait,
    BlockStall,
}

impl Stage {
    /// Every stage, in exposition order.
    pub const ALL: [Stage; 11] = [
        Stage::QueueWait,
        Stage::Isolation,
        Stage::AcHit,
        Stage::AcMiss,
        Stage::Ifc,
        Stage::Quench,
        Stage::AuditAppend,
        Stage::Handoff,
        Stage::Delivery,
        Stage::DirLockWait,
        Stage::BlockStall,
    ];

    /// The stage's stable exposition name (snake_case; used as the `stage.<name>`
    /// histogram key in the JSON/text exposition and the bench output).
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Isolation => "isolation",
            Stage::AcHit => "ac_hit",
            Stage::AcMiss => "ac_miss",
            Stage::Ifc => "ifc",
            Stage::Quench => "quench",
            Stage::AuditAppend => "audit_append",
            Stage::Handoff => "handoff",
            Stage::Delivery => "delivery",
            Stage::DirLockWait => "dir_lock_wait",
            Stage::BlockStall => "block_stall",
        }
    }
}

/// One shard's live telemetry: a histogram per stage plus the ingress-queue depth
/// high-water mark. Shared between the worker (writes) and the engine (snapshots).
#[derive(Debug)]
pub(crate) struct ShardTelemetry {
    enabled: bool,
    stages: [LatencyHistogram; Stage::ALL.len()],
    queue_depth_hwm: MaxGauge,
}

impl ShardTelemetry {
    pub(crate) fn new(enabled: bool) -> Self {
        ShardTelemetry {
            enabled,
            stages: std::array::from_fn(|_| LatencyHistogram::new()),
            queue_depth_hwm: MaxGauge::new(),
        }
    }

    /// Whether span timing is on (callers gate their `Instant::now()` calls on this).
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    pub(crate) fn record_ns(&self, stage: Stage, ns: u64) {
        self.stages[stage as usize].record(ns);
    }

    /// The live histogram of one stage (for recording a Block stall from inside the
    /// mailbox push).
    #[inline]
    pub(crate) fn stage_histogram(&self, stage: Stage) -> &LatencyHistogram {
        &self.stages[stage as usize]
    }

    /// Feeds the depth observed right after a queue push into the high-water mark.
    #[inline]
    pub(crate) fn record_queue_depth(&self, depth: usize) {
        if self.enabled {
            self.queue_depth_hwm.record(depth as u64);
        }
    }

    pub(crate) fn snapshot(&self, queue: QueueContention) -> ShardTelemetrySnapshot {
        ShardTelemetrySnapshot {
            stages: std::array::from_fn(|i| self.stages[i].snapshot()),
            queue_depth_high_water: self.queue_depth_hwm.get(),
            queue_consumer_parks: queue.consumer_parks,
            queue_producer_waits: queue.producer_waits,
        }
    }
}

/// Times the stages of one delivery. Constructed per task by the worker; when
/// telemetry is disabled it carries no timestamp and every method is one branch.
pub(crate) struct DeliveryProbe<'a> {
    telemetry: &'a ShardTelemetry,
    epoch: Instant,
    enqueued_ns: u64,
    /// A `Cell` so the shard's two policy-answer closures can both lap.
    last: Cell<Option<Instant>>,
}

impl<'a> DeliveryProbe<'a> {
    /// Starts timing one delivery: records its ingress-queue wait (`now - enqueued`)
    /// and anchors the first stage span.
    pub(crate) fn begin(
        telemetry: &'a ShardTelemetry,
        epoch: Instant,
        enqueued_ns: u64,
    ) -> DeliveryProbe<'a> {
        let last = if telemetry.enabled() {
            let now = Instant::now();
            let now_ns = now.duration_since(epoch).as_nanos() as u64;
            telemetry.record_ns(Stage::QueueWait, now_ns.saturating_sub(enqueued_ns));
            Some(now)
        } else {
            None
        };
        DeliveryProbe { telemetry, epoch, enqueued_ns, last: Cell::new(last) }
    }

    /// Ends the current span, attributing it to `stage`, and starts the next one.
    #[inline]
    pub(crate) fn lap(&self, stage: Stage) {
        if let Some(last) = self.last.get() {
            let now = Instant::now();
            self.telemetry.record_ns(stage, now.duration_since(last).as_nanos() as u64);
            self.last.set(Some(now));
        }
    }

    /// Restarts the span anchor without recording (the stage did not run, e.g. no
    /// audit record was appended for this message).
    #[inline]
    pub(crate) fn skip(&self) {
        if self.last.get().is_some() {
            self.last.set(Some(Instant::now()));
        }
    }

    /// Records the end-to-end `delivery` latency (enqueue → enforcement complete).
    /// Called once per *allowed* message.
    #[inline]
    pub(crate) fn finish(&self) {
        if self.last.get().is_some() {
            let now_ns = Instant::now().duration_since(self.epoch).as_nanos() as u64;
            self.telemetry.record_ns(Stage::Delivery, now_ns.saturating_sub(self.enqueued_ns));
        }
    }
}

/// One shard's telemetry at a point in time: a [`HistogramSnapshot`] per [`Stage`]
/// plus the shard's queue contention counters.
#[derive(Clone, Debug)]
pub struct ShardTelemetrySnapshot {
    stages: [HistogramSnapshot; Stage::ALL.len()],
    /// Peak ingress-queue depth observed by producers (post-push length).
    pub queue_depth_high_water: u64,
    /// Times the shard worker parked on its empty ingress queue.
    pub queue_consumer_parks: u64,
    /// Times a publisher blocked on the full ingress queue.
    pub queue_producer_waits: u64,
}

impl ShardTelemetrySnapshot {
    fn empty() -> Self {
        ShardTelemetrySnapshot {
            stages: [HistogramSnapshot::empty(); Stage::ALL.len()],
            queue_depth_high_water: 0,
            queue_consumer_parks: 0,
            queue_producer_waits: 0,
        }
    }

    /// The latency histogram of one stage.
    pub fn stage(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage as usize]
    }

    /// Folds another shard's snapshot into this one: histograms merge bucket-wise
    /// (exact), park/wait counts add, and the depth high-water mark takes the max.
    pub fn merge(&mut self, other: &ShardTelemetrySnapshot) {
        for (mine, theirs) in self.stages.iter_mut().zip(other.stages.iter()) {
            mine.merge(theirs);
        }
        self.queue_depth_high_water = self.queue_depth_high_water.max(other.queue_depth_high_water);
        self.queue_consumer_parks += other.queue_consumer_parks;
        self.queue_producer_waits += other.queue_producer_waits;
    }

    /// The queue contention series and stage histograms, each name behind `prefix`
    /// (empty for the merged snapshot, `shard<i>.` for one shard's).
    fn expose(&self, prefix: &str, out: &mut MetricsSnapshot) {
        out.record_counter(format!("{prefix}queue_consumer_parks"), self.queue_consumer_parks);
        out.record_counter(format!("{prefix}queue_producer_waits"), self.queue_producer_waits);
        out.record_gauge(format!("{prefix}queue_depth_hwm"), self.queue_depth_high_water);
        for stage in Stage::ALL {
            out.record_histogram(format!("{prefix}stage.{}", stage.name()), *self.stage(stage));
        }
    }
}

/// A point-in-time view of the whole dataplane's telemetry: aggregated counters,
/// per-shard stage histograms and contention series. Obtained from
/// [`Dataplane::telemetry`](crate::Dataplane::telemetry); render it with
/// [`to_json`](Self::to_json) / [`to_text`](Self::to_text) (schema documented on
/// [`legaliot_obs::MetricsSnapshot`]) or consume it programmatically.
#[derive(Clone, Debug)]
pub struct TelemetrySnapshot {
    /// The dataplane's name (as passed to [`Dataplane::new`](crate::Dataplane::new)).
    pub dataplane: String,
    /// Whether span timing was enabled; when `false` the stage histograms are empty and
    /// the queue-depth high-water marks read 0 (they travel with span timing), but
    /// counters and the queue park/wait counts are still populated.
    pub enabled: bool,
    /// Aggregated message counters, identical to
    /// [`Dataplane::stats`](crate::Dataplane::stats).
    pub stats: DataplaneStats,
    /// The shards' segment stores merged
    /// ([`Dataplane::segment_stats`](crate::Dataplane::segment_stats)); all zero when
    /// persistence is off.
    pub segments: SegmentStats,
    /// Per-shard stage histograms and contention counters, index-aligned with the
    /// shard numbering.
    pub shards: Vec<ShardTelemetrySnapshot>,
}

impl TelemetrySnapshot {
    /// All shards folded into one: stage histograms merged bucket-wise, park/wait
    /// counts summed, depth high-water mark maxed.
    pub fn merged(&self) -> ShardTelemetrySnapshot {
        let mut merged = ShardTelemetrySnapshot::empty();
        for shard in &self.shards {
            merged.merge(shard);
        }
        merged
    }

    /// Flattens the snapshot into named metrics for exposition.
    ///
    /// Naming scheme (stable): every row of this module's table under its one name —
    /// [`DataplaneStats`] fields as counters, including the fault-tolerance counters
    /// `shard_restarts` and `deliveries_lost`, with `degraded_shards` a gauge (it is a
    /// level, the number of shards currently past their restart budget, not a monotone
    /// count), and the segment stores' fsync latency as the histogram `segment.fsync`;
    /// merged stage histograms are `stage.<name>` and per-shard ones
    /// `shard<i>.stage.<name>`; queue contention appears as the counters
    /// `queue_consumer_parks` / `queue_producer_waits` (summed) plus per-shard
    /// variants, and the `queue_depth_hwm` gauge (max, plus per-shard variants).
    pub fn exposition(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        self.expose_table(&mut out);
        self.merged().expose("", &mut out);
        for (i, shard) in self.shards.iter().enumerate() {
            shard.expose(&format!("shard{i}."), &mut out);
        }
        out
    }

    /// The JSON exposition of [`Self::exposition`].
    pub fn to_json(&self) -> String {
        self.exposition().to_json()
    }

    /// The line-oriented text exposition of [`Self::exposition`].
    pub fn to_text(&self) -> String {
        self.exposition().to_text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_match_all_order() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(*stage as usize, i, "Stage::ALL out of order at {}", stage.name());
        }
    }

    #[test]
    fn disabled_probe_records_nothing() {
        let telemetry = ShardTelemetry::new(false);
        let epoch = Instant::now();
        let probe = DeliveryProbe::begin(&telemetry, epoch, 0);
        probe.lap(Stage::Isolation);
        probe.skip();
        probe.finish();
        telemetry.record_queue_depth(7);
        let snap = telemetry.snapshot(QueueContention::default());
        for stage in Stage::ALL {
            assert!(snap.stage(stage).is_empty(), "{} recorded while disabled", stage.name());
        }
        assert_eq!(snap.queue_depth_high_water, 0, "the depth gauge travels with span timing");
    }

    #[test]
    fn enabled_probe_attributes_spans() {
        let telemetry = ShardTelemetry::new(true);
        let epoch = Instant::now();
        let probe = DeliveryProbe::begin(&telemetry, epoch, 0);
        probe.lap(Stage::Isolation);
        probe.lap(Stage::Ifc);
        probe.finish();
        let snap = telemetry.snapshot(QueueContention::default());
        assert_eq!(snap.stage(Stage::QueueWait).count(), 1);
        assert_eq!(snap.stage(Stage::Isolation).count(), 1);
        assert_eq!(snap.stage(Stage::Ifc).count(), 1);
        assert_eq!(snap.stage(Stage::Delivery).count(), 1);
        assert!(snap.stage(Stage::Quench).is_empty());
    }

    #[test]
    fn merged_snapshot_folds_shards() {
        let a = ShardTelemetry::new(true);
        let b = ShardTelemetry::new(true);
        a.record_ns(Stage::Delivery, 100);
        b.record_ns(Stage::Delivery, 900);
        a.record_queue_depth(4);
        b.record_queue_depth(9);
        let snapshot = TelemetrySnapshot {
            dataplane: "t".to_string(),
            enabled: true,
            stats: DataplaneStats::default(),
            segments: SegmentStats::default(),
            shards: vec![
                a.snapshot(QueueContention { consumer_parks: 1, producer_waits: 2 }),
                b.snapshot(QueueContention { consumer_parks: 3, producer_waits: 4 }),
            ],
        };
        let merged = snapshot.merged();
        assert_eq!(merged.stage(Stage::Delivery).count(), 2);
        assert_eq!(merged.stage(Stage::Delivery).min(), Some(100));
        assert_eq!(merged.stage(Stage::Delivery).max(), Some(900));
        assert_eq!(merged.queue_depth_high_water, 9);
        assert_eq!(merged.queue_consumer_parks, 4);
        assert_eq!(merged.queue_producer_waits, 6);
        let exposition = snapshot.exposition();
        assert_eq!(exposition.histogram("stage.delivery").unwrap().count(), 2);
        assert_eq!(exposition.histogram("shard1.stage.delivery").unwrap().count(), 1);
        assert_eq!(exposition.gauge("queue_depth_hwm"), Some(9));
        assert_eq!(exposition.counter("queue_consumer_parks"), Some(4));
    }
}
