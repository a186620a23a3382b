//! Per-stage enforcement telemetry: span timing, contention counters, and the
//! [`TelemetrySnapshot`] behind [`Dataplane::telemetry`](crate::Dataplane::telemetry).
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
//! - `ac_hit` / `ac_miss` — the per-message contextual AC decision at message-type
//!   granularity, split by whether the [`AdmissionCache`] answered (payload
//!   deliveries only; the flow-only path never consults it).
//! - `ifc` — the IFC flow decision over the message's effective context (including
//!   decision-cache lookup and any lattice walk).
//! - `quench` — per-attribute source quenching: mask lookup/computation, its
//!   application, and any `MessageQuenched` evidence append.
//! - `audit_append` — appending the per-message `FlowChecked` record (recorded only
//!   when one is written, so summarised-mode cache hits do not dilute the span).
//! - `handoff` — the deferred mailbox push after the directory lock is released,
//!   including any Block-policy stall.
//! - `delivery` — end-to-end enqueue → enforcement complete for *allowed* messages:
//!   the publish→deliver latency the bench reports percentiles of.
//!
//! Contention series:
//!
//! - `dir_lock_wait` — time the worker waited to acquire the directory read lock
//!   (one sample per batch containing deliveries).
//! - `block_stall` — time a `handoff` spent parked on a full Block-policy mailbox
//!   (one sample per push that actually stalled).
//! - queue depth high-water marks and consumer-park / producer-wait counts come from
//!   each shard's ingress [`BoundedQueue`](crate::queue::BoundedQueue) and are always
//!   on (relaxed counters on slow paths only).
//!
//! [`AdmissionCache`]: legaliot_middleware::admission::AdmissionCache

use std::cell::Cell;
use std::time::Instant;

use legaliot_obs::{HistogramSnapshot, LatencyHistogram, MaxGauge, MetricsSnapshot};

use crate::engine::DataplaneStats;
use crate::queue::QueueContention;

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
    /// Whether span timing was enabled; when `false` the stage histograms are empty
    /// but counters and queue contention series are still populated.
    pub enabled: bool,
    /// Aggregated message counters, identical to
    /// [`Dataplane::stats`](crate::Dataplane::stats).
    pub stats: DataplaneStats,
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
    /// Naming scheme (stable): [`DataplaneStats`] fields become counters under their
    /// field names — including the fault-tolerance counters `shard_restarts` and
    /// `deliveries_lost`, with `degraded_shards` exposed as a gauge (it is a level,
    /// the number of shards currently past their restart budget, not a monotone
    /// count); merged stage histograms are `stage.<name>` and per-shard ones
    /// `shard<i>.stage.<name>`; queue contention appears as the counters
    /// `queue_consumer_parks` / `queue_producer_waits` (summed) plus per-shard
    /// variants, and the `queue_depth_hwm` gauge (max, plus per-shard variants).
    pub fn exposition(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        out.record_counter("published", self.stats.published);
        out.record_counter("delivered", self.stats.delivered);
        out.record_counter("denied", self.stats.denied);
        out.record_counter("missing_endpoint", self.stats.missing_endpoint);
        out.record_counter("cache_hits", self.stats.cache_hits);
        out.record_counter("cache_misses", self.stats.cache_misses);
        out.record_counter("ac_cache_hits", self.stats.ac_cache_hits);
        out.record_counter("ac_cache_misses", self.stats.ac_cache_misses);
        out.record_counter("quenched_attributes", self.stats.quenched_attributes);
        out.record_counter("payload_bytes", self.stats.payload_bytes);
        out.record_counter("receiver_enqueued", self.stats.receiver_enqueued);
        out.record_counter("receiver_dropped", self.stats.receiver_dropped);
        out.record_counter("shard_restarts", self.stats.shard_restarts);
        out.record_counter("deliveries_lost", self.stats.deliveries_lost);
        out.record_gauge("degraded_shards", self.stats.degraded_shards);
        out.record_counter("segments_written", self.stats.segments_written);
        out.record_counter("segment_records_persisted", self.stats.segment_records_persisted);
        out.record_counter("segment_bytes_fsynced", self.stats.segment_bytes_fsynced);
        out.record_counter("segment_records_dropped", self.stats.segment_records_dropped);
        out.record_counter("recovery_truncations", self.stats.recovery_truncations);
        let merged = self.merged();
        out.record_counter("queue_consumer_parks", merged.queue_consumer_parks);
        out.record_counter("queue_producer_waits", merged.queue_producer_waits);
        out.record_gauge("queue_depth_hwm", merged.queue_depth_high_water);
        for stage in Stage::ALL {
            out.record_histogram(format!("stage.{}", stage.name()), *merged.stage(stage));
        }
        for (i, shard) in self.shards.iter().enumerate() {
            out.record_counter(
                format!("shard{i}.queue_consumer_parks"),
                shard.queue_consumer_parks,
            );
            out.record_counter(
                format!("shard{i}.queue_producer_waits"),
                shard.queue_producer_waits,
            );
            out.record_gauge(format!("shard{i}.queue_depth_hwm"), shard.queue_depth_high_water);
            for stage in Stage::ALL {
                out.record_histogram(
                    format!("shard{i}.stage.{}", stage.name()),
                    *shard.stage(stage),
                );
            }
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
        let snap = telemetry.snapshot(QueueContention::default());
        for stage in Stage::ALL {
            assert!(snap.stage(stage).is_empty(), "{} recorded while disabled", stage.name());
        }
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
