//! # legaliot-obs
//!
//! Lock-free observability primitives for the enforcement middleware: atomic
//! [`Counter`]s and [`MaxGauge`]s, log2-bucketed [`LatencyHistogram`]s with mergeable
//! [`HistogramSnapshot`]s and `p50/p90/p99/p999` estimation, and a stable text / JSON
//! exposition surface ([`MetricsSnapshot`]). A leaf crate: it depends on nothing, so
//! every layer that measures a distribution — the shards' stage spans, the audit
//! segment stores' fsyncs — records into this one histogram type. For the same reason
//! it holds the stack's one fault vocabulary, the seeded failpoint schedule
//! ([`FailpointRegistry`], [`FailpointSite`], [`FaultKind`]): the dataplane's shards
//! and ingress and the audit crate's segment stores all probe it.
//!
//! The paper's central claim (Singh et al., Middleware 2016) is that policy enforcement
//! can live *inside* the messaging layer at low overhead. Substantiating that requires
//! more than end-to-end msgs/s: each pipeline stage — isolation, contextual AC, IFC,
//! quenching, audit — has its own tax, and regressions (e.g. a 4-shard run slower than
//! a 1-shard one) are only attributable when per-stage latency is visible.
//! This crate provides the recording primitives and no store of names: the dataplane
//! declares what it reports in one typed table (`legaliot-dataplane`'s `telemetry`
//! module), threads these primitives through the shard workers and exposes a
//! [`MetricsSnapshot`] via `Dataplane::telemetry()`.
//!
//! Design constraints:
//!
//! - **Recording is lock-free.** Every `record`/`inc` is a handful of relaxed atomic
//!   RMWs; no allocation, no locks, no syscalls. Histograms use 65 power-of-two
//!   buckets, so the bucket index is a `leading_zeros` away. A recorder with a single
//!   owner skips the atomics: [`HistogramSnapshot::record`] is the same bucketing over
//!   plain integers.
//! - **Snapshots are mergeable.** Per-shard histograms merge into one by summing
//!   bucket counts, which is how per-shard telemetry becomes a single dataplane-wide
//!   percentile report.
//! - **Quantiles are bucket-bounded estimates.** [`HistogramSnapshot::quantile`]
//!   returns the upper bound of the bucket holding the rank-`q` sample, tightened by the
//!   observed maximum: the true sample quantile is never above it and, by the log2
//!   bucketing, never below half of it.
//! - **Disabled means nearly free.** [`ObsConfig::disabled()`] lets instrumented code
//!   skip every clock read; the residual cost is the pre-existing relaxed counters.
//!
//! ```
//! use legaliot_obs::{LatencyHistogram, MetricsSnapshot};
//!
//! let h = LatencyHistogram::new();
//! for v in [120_u64, 340, 950, 4_100] {
//!     h.record(v);
//! }
//! let snap = h.snapshot();
//! assert_eq!(snap.count(), 4);
//! let p50 = snap.p50();
//! assert!(340 <= p50 && p50 < 2 * 340);
//!
//! let mut out = MetricsSnapshot::new();
//! out.record_histogram("stage.delivery", snap);
//! assert!(out.to_json().contains("\"stage.delivery\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expose;
mod failpoint;
mod histogram;
mod metrics;

pub use expose::MetricsSnapshot;
pub use failpoint::{FailpointRegistry, FailpointSite, FailpointSpec, FaultKind};
pub use histogram::{HistogramSnapshot, LatencyHistogram, BUCKETS};
pub use metrics::{Counter, MaxGauge};

/// Whether instrumented components should take timestamps at all.
///
/// Threaded through `DataplaneConfig`. When disabled, instrumented code
/// paths skip every `Instant::now()` call; only always-on relaxed counters remain, so
/// the enforcement hot path keeps its uninstrumented cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// When `false`, span timing is skipped entirely (no clock reads).
    pub enabled: bool,
}

impl ObsConfig {
    /// Telemetry on: per-stage span timing and latency histograms are recorded.
    pub fn enabled() -> Self {
        ObsConfig { enabled: true }
    }

    /// Telemetry off: no clock reads; instrumentation reduces to the handful of
    /// relaxed atomics that exist regardless.
    pub fn disabled() -> Self {
        ObsConfig { enabled: false }
    }

    /// Whether span timing is active.
    pub fn is_enabled(self) -> bool {
        self.enabled
    }
}

impl Default for ObsConfig {
    /// Telemetry defaults to **on**: observability out of the box, with the bench
    /// quantifying the (small) cost and `disabled()` available for peak-throughput
    /// deployments.
    fn default() -> Self {
        ObsConfig::enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_config_roundtrip() {
        assert!(ObsConfig::default().is_enabled());
        assert!(ObsConfig::enabled().is_enabled());
        assert!(!ObsConfig::disabled().is_enabled());
    }
}
