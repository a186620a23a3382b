//! Deterministic, seeded fault injection for the dataplane.
//!
//! A [`FailpointRegistry`] is a set of [`FailpointSpec`]s attached to a
//! [`DataplaneConfig`](crate::DataplaneConfig) via
//! [`failpoints`](crate::DataplaneConfig::failpoints). Each spec names a
//! [`FailpointSite`] — a fixed probe point on the data path — and a
//! [`FaultKind`] to inject there: a panic (exercising shard supervision), a
//! delay (modelling a stall), or queue-full backpressure (ingress only).
//!
//! Probes follow the same zero-cost-when-disabled discipline as
//! [`ObsConfig`](legaliot_obs::ObsConfig): with no registry configured (the
//! default) each probe is a single branch on an `Option`.
//! With a registry attached, every probe execution increments the site's hit
//! counter and evaluates each spec **as a pure function of the hit index**, so
//! a given seed and hit order reproduce the same fault schedule exactly. (With
//! multiple shards the interleaving of hits across threads is scheduling-
//! dependent; *which* hit index fires is still deterministic, *which thread*
//! observes it is not.)

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Named probe points where faults can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailpointSite {
    /// Top of the shard worker loop, before a batch is popped. Nothing is in
    /// flight when a panic fires here, so it exercises pure restart.
    ShardLoop,
    /// Per-delivery enforcement, at the top of the shard's delivery
    /// processing: a panic here abandons the in-flight message (which the
    /// supervisor then evidences as lost).
    ShardProcess,
    /// The per-shard audit append path, immediately before a flow-check
    /// record is written.
    AuditAppend,
    /// The deferred mailbox hand-off, before the push: a delay here models a
    /// stalled consumer, a panic abandons an already-enforced delivery.
    MailboxHandOff,
    /// The publisher-side ingress enqueue
    /// ([`Dataplane::publish_message`](crate::Dataplane::publish_message)).
    /// [`FaultKind::QueueFull`] is
    /// honoured only here; [`FaultKind::Panic`] is ignored here (it would
    /// crash the publisher's thread, not a supervised worker).
    IngressEnqueue,
    /// A durable-audit segment frame write ([`IoOp::Write`](legaliot_audit::IoOp)).
    /// [`FaultKind::ShortWrite`] tears the frame on disk and wedges the store;
    /// [`FaultKind::IoError`] wedges it with a clean prefix.
    SegmentWrite,
    /// A durable-audit segment fsync ([`IoOp::Sync`](legaliot_audit::IoOp)).
    /// [`FaultKind::Delay`] models a slow fsync; [`FaultKind::IoError`] a
    /// failed one (unsynced bytes stay visible in the stats).
    SegmentSync,
    /// Opening/rotating a durable-audit segment file
    /// ([`IoOp::Rotate`](legaliot_audit::IoOp)). [`FaultKind::ShortWrite`]
    /// tears the new segment's header.
    SegmentRotate,
}

/// Number of distinct failpoint sites (indexes the per-site counters).
const SITE_COUNT: usize = 8;

impl FailpointSite {
    /// Every site, in stable order.
    pub const ALL: [FailpointSite; SITE_COUNT] = [
        FailpointSite::ShardLoop,
        FailpointSite::ShardProcess,
        FailpointSite::AuditAppend,
        FailpointSite::MailboxHandOff,
        FailpointSite::IngressEnqueue,
        FailpointSite::SegmentWrite,
        FailpointSite::SegmentSync,
        FailpointSite::SegmentRotate,
    ];

    /// The site's stable catalog name (used in panic messages and docs).
    pub fn name(self) -> &'static str {
        match self {
            FailpointSite::ShardLoop => "shard.loop",
            FailpointSite::ShardProcess => "shard.process",
            FailpointSite::AuditAppend => "audit.append",
            FailpointSite::MailboxHandOff => "mailbox.handoff",
            FailpointSite::IngressEnqueue => "ingress.enqueue",
            FailpointSite::SegmentWrite => "segment.write",
            FailpointSite::SegmentSync => "segment.sync",
            FailpointSite::SegmentRotate => "segment.rotate",
        }
    }

    fn index(self) -> usize {
        match self {
            FailpointSite::ShardLoop => 0,
            FailpointSite::ShardProcess => 1,
            FailpointSite::AuditAppend => 2,
            FailpointSite::MailboxHandOff => 3,
            FailpointSite::IngressEnqueue => 4,
            FailpointSite::SegmentWrite => 5,
            FailpointSite::SegmentSync => 6,
            FailpointSite::SegmentRotate => 7,
        }
    }
}

impl fmt::Display for FailpointSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with a message naming the site. On a shard site this is caught by
    /// the shard supervisor (restart + loss evidence); at
    /// [`FailpointSite::IngressEnqueue`] it is ignored.
    Panic,
    /// Sleep for the given duration before proceeding (a stall, not a fault:
    /// no work is lost, but watchdogs and backpressure get exercised).
    Delay(Duration),
    /// Refuse the publish with [`DataplaneError::QueueFull`](crate::DataplaneError)
    /// without touching the queue — the only source of that error, since a real full
    /// queue blocks the publisher. Honoured only at
    /// [`FailpointSite::IngressEnqueue`]; elsewhere it is ignored.
    QueueFull,
    /// Write only part of the bytes, leaving a torn tail on disk, then wedge
    /// the segment store. Honoured only at the `segment.*` sites; elsewhere it
    /// is ignored.
    ShortWrite,
    /// Fail the IO operation outright and wedge the segment store (its disk
    /// state stays a clean prefix). Honoured only at the `segment.*` sites;
    /// elsewhere it is ignored.
    IoError,
}

/// How a spec decides whether hit number `n` (0-based, per site) fires.
#[derive(Debug, Clone, Copy)]
enum Trigger {
    /// Fire on hit indices `first, first + every, first + 2·every, …`
    /// (`every == 0` fires on `first` only).
    Nth { first: u64, every: u64 },
    /// Fire each hit independently with probability `millionths / 1_000_000`,
    /// derived by hashing the registry seed with the hit index — reproducible
    /// for a given seed, uncorrelated across hits.
    Seeded { millionths: u32 },
}

/// One armed fault: a site, a fault kind, a firing schedule and an optional
/// cap on total firings.
#[derive(Debug, Clone, Copy)]
pub struct FailpointSpec {
    site: FailpointSite,
    kind: FaultKind,
    trigger: Trigger,
    /// Maximum firings of this spec (`u64::MAX` = unlimited).
    limit: u64,
}

impl FailpointSpec {
    /// Fires deterministically on site-hit indices `first, first + every, …`
    /// (0-based; `every == 0` fires exactly once, on hit `first`).
    pub fn on_hits(site: FailpointSite, kind: FaultKind, first: u64, every: u64) -> Self {
        FailpointSpec { site, kind, trigger: Trigger::Nth { first, every }, limit: u64::MAX }
    }

    /// Fires each hit independently with the given probability (clamped to
    /// `[0, 1]`), pseudo-randomly but reproducibly from the registry seed.
    pub fn with_probability(site: FailpointSite, kind: FaultKind, probability: f64) -> Self {
        let millionths = (probability.clamp(0.0, 1.0) * 1_000_000.0) as u32;
        FailpointSpec { site, kind, trigger: Trigger::Seeded { millionths }, limit: u64::MAX }
    }

    /// Caps how many times this spec may fire in total.
    pub fn limit(mut self, limit: u64) -> Self {
        self.limit = limit;
        self
    }

    /// Whether this spec's schedule matches site-hit index `hit` (ignoring the
    /// firing cap, which the registry enforces with a counter).
    fn matches(&self, seed: u64, spec_index: usize, hit: u64) -> bool {
        match self.trigger {
            Trigger::Nth { first, every } => {
                hit >= first
                    && (every == 0 && hit == first || every != 0 && (hit - first) % every == 0)
            }
            Trigger::Seeded { millionths } => {
                let mixed = splitmix64(seed ^ (spec_index as u64).wrapping_mul(0x9E37_79B9) ^ hit);
                mixed % 1_000_000 < u64::from(millionths)
            }
        }
    }
}

/// SplitMix64 finaliser: a high-quality 64-bit mix, so per-hit probabilistic
/// decisions are uncorrelated even for consecutive hit indices.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded set of armed failpoints with per-site hit and firing counters.
///
/// Immutable once built (specs are fixed; only the counters move), so one
/// `Arc<FailpointRegistry>` is shared by every shard and publisher without
/// locking.
#[derive(Debug)]
pub struct FailpointRegistry {
    seed: u64,
    specs: Vec<FailpointSpec>,
    /// Firings so far per spec (enforces each spec's `limit`).
    spec_fired: Vec<AtomicU64>,
    /// Probe executions per site.
    hits: [AtomicU64; SITE_COUNT],
    /// Faults actually injected per site.
    fired: [AtomicU64; SITE_COUNT],
}

impl FailpointRegistry {
    /// An empty registry (no armed faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FailpointRegistry {
            seed,
            specs: Vec::new(),
            spec_fired: Vec::new(),
            hits: Default::default(),
            fired: Default::default(),
        }
    }

    /// Arms one more failpoint.
    pub fn with_spec(mut self, spec: FailpointSpec) -> Self {
        self.specs.push(spec);
        self.spec_fired.push(AtomicU64::new(0));
        self
    }

    /// The seed probabilistic triggers are derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// How many times the probe at `site` has executed.
    pub fn hits(&self, site: FailpointSite) -> u64 {
        self.hits[site.index()].load(Ordering::Relaxed)
    }

    /// How many faults have been injected at `site`.
    pub fn fired(&self, site: FailpointSite) -> u64 {
        self.fired[site.index()].load(Ordering::Relaxed)
    }

    /// Records one probe execution at `site` and returns the fault to inject,
    /// if any armed spec fires on this hit. The decision is a pure function of
    /// (seed, spec, hit index), plus each spec's firing cap.
    pub fn check(&self, site: FailpointSite) -> Option<FaultKind> {
        let hit = self.hits[site.index()].fetch_add(1, Ordering::Relaxed);
        for (spec_index, spec) in self.specs.iter().enumerate() {
            if spec.site != site || !spec.matches(self.seed, spec_index, hit) {
                continue;
            }
            // Claim one of the spec's remaining firings; a concurrent matched
            // hit that loses the race falls through to the next spec.
            let claimed = self.spec_fired[spec_index]
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |fired| {
                    (fired < spec.limit).then_some(fired + 1)
                })
                .is_ok();
            if claimed {
                self.fired[site.index()].fetch_add(1, Ordering::Relaxed);
                return Some(spec.kind);
            }
        }
        None
    }
}

/// Probe for worker-side sites: panics or sleeps when an armed fault fires
/// (`QueueFull` is meaningless off the ingress path and is ignored). The
/// disabled path is one branch.
#[inline]
pub(crate) fn inject(failpoints: &Option<std::sync::Arc<FailpointRegistry>>, site: FailpointSite) {
    if panic_due(failpoints, site) {
        fire(site);
    }
}

/// [`inject`] that leaves the panic to the caller: sleeps through a delay, and returns
/// whether a panic is due — so a caller probing a group item by item can finish the
/// items before the one that fires, then [`fire`].
#[inline]
pub(crate) fn panic_due(
    failpoints: &Option<std::sync::Arc<FailpointRegistry>>,
    site: FailpointSite,
) -> bool {
    if let Some(registry) = failpoints {
        match registry.check(site) {
            Some(FaultKind::Panic) => return true,
            Some(FaultKind::Delay(delay)) => std::thread::sleep(delay),
            Some(FaultKind::QueueFull | FaultKind::ShortWrite | FaultKind::IoError) | None => {}
        }
    }
    false
}

/// The panic an armed [`FaultKind::Panic`] injects at `site`.
pub(crate) fn fire(site: FailpointSite) -> ! {
    panic!("failpoint `{}` fired", site.name())
}

/// Probe for the ingress enqueue site: returns `true` when the publisher
/// should observe queue-full backpressure. Delays sleep in the publisher's
/// thread; panics are ignored here (they would kill the caller, not a
/// supervised worker).
#[inline]
pub(crate) fn inject_ingress(failpoints: &Option<std::sync::Arc<FailpointRegistry>>) -> bool {
    if let Some(registry) = failpoints {
        match registry.check(FailpointSite::IngressEnqueue) {
            Some(FaultKind::QueueFull) => return true,
            Some(FaultKind::Delay(delay)) => std::thread::sleep(delay),
            Some(FaultKind::Panic | FaultKind::ShortWrite | FaultKind::IoError) | None => {}
        }
    }
    false
}

/// Builds a [`FaultHook`](legaliot_audit::FaultHook) for a shard's
/// [`SegmentStore`](legaliot_audit::SegmentStore) that maps its IO operations
/// onto the `segment.*` failpoint sites of `registry`, translating the generic
/// fault kinds into segment IO faults (`ShortWrite` → torn write, `IoError` →
/// hard error, `Delay` → slow IO; `Panic`/`QueueFull` are meaningless for
/// segment IO and are ignored).
pub(crate) fn segment_fault_hook(
    registry: std::sync::Arc<FailpointRegistry>,
) -> legaliot_audit::FaultHook {
    use legaliot_audit::{IoFault, IoOp};
    Box::new(move |op| {
        let site = match op {
            IoOp::Write => FailpointSite::SegmentWrite,
            IoOp::Sync => FailpointSite::SegmentSync,
            IoOp::Rotate => FailpointSite::SegmentRotate,
        };
        match registry.check(site) {
            Some(FaultKind::ShortWrite) => Some(IoFault::ShortWrite),
            Some(FaultKind::IoError) => Some(IoFault::Error),
            Some(FaultKind::Delay(delay)) => Some(IoFault::Delay(delay)),
            Some(FaultKind::Panic | FaultKind::QueueFull) | None => None,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_trigger_fires_on_schedule() {
        let registry = FailpointRegistry::new(7).with_spec(FailpointSpec::on_hits(
            FailpointSite::ShardProcess,
            FaultKind::Panic,
            2,
            3,
        ));
        let fired: Vec<bool> =
            (0..9).map(|_| registry.check(FailpointSite::ShardProcess).is_some()).collect();
        assert_eq!(fired, vec![false, false, true, false, false, true, false, false, true]);
        assert_eq!(registry.hits(FailpointSite::ShardProcess), 9);
        assert_eq!(registry.fired(FailpointSite::ShardProcess), 3);
        // Other sites are untouched.
        assert_eq!(registry.hits(FailpointSite::AuditAppend), 0);
    }

    #[test]
    fn one_shot_trigger_fires_exactly_once() {
        let registry = FailpointRegistry::new(0).with_spec(FailpointSpec::on_hits(
            FailpointSite::ShardLoop,
            FaultKind::Panic,
            1,
            0,
        ));
        let fired: Vec<bool> =
            (0..5).map(|_| registry.check(FailpointSite::ShardLoop).is_some()).collect();
        assert_eq!(fired, vec![false, true, false, false, false]);
    }

    #[test]
    fn limit_caps_total_firings() {
        let registry = FailpointRegistry::new(0).with_spec(
            FailpointSpec::on_hits(FailpointSite::AuditAppend, FaultKind::Panic, 0, 1).limit(2),
        );
        let fired =
            (0..10).filter(|_| registry.check(FailpointSite::AuditAppend).is_some()).count();
        assert_eq!(fired, 2);
        assert_eq!(registry.fired(FailpointSite::AuditAppend), 2);
    }

    #[test]
    fn seeded_trigger_is_reproducible_and_roughly_calibrated() {
        let run = |seed: u64| -> Vec<bool> {
            let registry = FailpointRegistry::new(seed).with_spec(FailpointSpec::with_probability(
                FailpointSite::MailboxHandOff,
                FaultKind::Delay(Duration::from_millis(1)),
                0.25,
            ));
            (0..2000).map(|_| registry.check(FailpointSite::MailboxHandOff).is_some()).collect()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must reproduce the same schedule");
        let c = run(43);
        assert_ne!(a, c, "different seeds should differ");
        let fired = a.iter().filter(|f| **f).count();
        assert!((300..700).contains(&fired), "~25% of 2000 hits expected, got {fired}");
    }

    #[test]
    fn probe_helpers_are_inert_without_a_registry() {
        let none: Option<std::sync::Arc<FailpointRegistry>> = None;
        inject(&none, FailpointSite::ShardProcess);
        assert!(!inject_ingress(&none));
    }

    #[test]
    fn ingress_probe_reports_queue_full() {
        let registry = std::sync::Arc::new(FailpointRegistry::new(0).with_spec(
            FailpointSpec::on_hits(FailpointSite::IngressEnqueue, FaultKind::QueueFull, 1, 0),
        ));
        let some = Some(registry);
        assert!(!inject_ingress(&some));
        assert!(inject_ingress(&some));
        assert!(!inject_ingress(&some));
    }

    #[test]
    fn site_catalog_names_are_stable() {
        let names: Vec<&str> = FailpointSite::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "shard.loop",
                "shard.process",
                "audit.append",
                "mailbox.handoff",
                "ingress.enqueue",
                "segment.write",
                "segment.sync",
                "segment.rotate"
            ]
        );
        assert_eq!(FailpointSite::ShardLoop.to_string(), "shard.loop");
    }

    #[test]
    fn segment_hook_maps_sites_and_kinds() {
        use legaliot_audit::{IoFault, IoOp};
        let registry = std::sync::Arc::new(
            FailpointRegistry::new(0)
                .with_spec(FailpointSpec::on_hits(
                    FailpointSite::SegmentWrite,
                    FaultKind::ShortWrite,
                    0,
                    0,
                ))
                .with_spec(FailpointSpec::on_hits(
                    FailpointSite::SegmentSync,
                    FaultKind::IoError,
                    0,
                    0,
                ))
                .with_spec(FailpointSpec::on_hits(
                    FailpointSite::SegmentRotate,
                    FaultKind::Delay(Duration::from_micros(1)),
                    0,
                    0,
                ))
                // A kind that makes no sense for segment IO is filtered out.
                .with_spec(FailpointSpec::on_hits(
                    FailpointSite::SegmentWrite,
                    FaultKind::Panic,
                    1,
                    1,
                )),
        );
        let mut hook = segment_fault_hook(std::sync::Arc::clone(&registry));
        assert_eq!(hook(IoOp::Write), Some(IoFault::ShortWrite));
        assert_eq!(hook(IoOp::Sync), Some(IoFault::Error));
        assert_eq!(hook(IoOp::Rotate), Some(IoFault::Delay(Duration::from_micros(1))));
        // Second Write hit matches the Panic spec, which the hook ignores.
        assert_eq!(hook(IoOp::Write), None);
        assert_eq!(registry.fired(FailpointSite::SegmentWrite), 2);
        assert_eq!(registry.hits(FailpointSite::SegmentSync), 1);
    }
}
