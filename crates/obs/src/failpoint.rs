//! Deterministic, seeded fault injection: the one fault vocabulary of the stack.
//!
//! A [`FailpointRegistry`] is a set of [`FailpointSpec`]s, each naming a
//! [`FailpointSite`] — a fixed probe point on the dataplane's data path or in a durable
//! audit segment store — and a [`FaultKind`] to inject there: a panic (exercising shard
//! supervision), a delay (modelling a stall), queue-full backpressure (ingress only), or
//! a short write or IO error (the `segment.*` sites). Each site honours a fixed set of
//! kinds ([`FailpointRegistry::with_spec`] refuses any other), so every fault the
//! registry fires is one its site injects. The dataplane takes a registry through its
//! config's `failpoints` field and hands it to each shard's segment store.
//!
//! Probes follow the same zero-cost-when-disabled discipline as
//! [`ObsConfig`](crate::ObsConfig): with no registry configured (the default) each
//! probe is a single branch on an `Option`. With a registry attached, every probe
//! ([`FailpointRegistry::probe`]) increments the site's hit counter and evaluates each
//! spec **as a pure function of the hit index**, so a given seed and hit order
//! reproduce the same fault schedule exactly. (With multiple shards the interleaving
//! of hits across threads is scheduling-dependent; *which* hit index fires is still
//! deterministic, *which thread* observes it is not.)

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
    /// The publisher-side ingress enqueue (`Dataplane::publish_message`), the one site
    /// that honours [`FaultKind::QueueFull`]. It refuses [`FaultKind::Panic`]: that
    /// would crash the publisher's thread, not a supervised worker.
    IngressEnqueue,
    /// A durable-audit segment store's record frame write, probed once per record.
    /// [`FaultKind::ShortWrite`] tears the frame on disk and wedges the store;
    /// [`FaultKind::IoError`] wedges it with a clean prefix.
    SegmentWrite,
    /// A durable-audit segment fsync. [`FaultKind::Delay`] models a slow fsync;
    /// [`FaultKind::IoError`] a failed one (unsynced bytes stay visible in the stats).
    SegmentSync,
    /// Opening a durable-audit segment file (the first and every rotation).
    /// [`FaultKind::ShortWrite`] tears the new segment's header.
    SegmentRotate,
}

/// Number of distinct failpoint sites (indexes the per-site counters).
const SITE_COUNT: usize = FailpointSite::ALL.len();

impl FailpointSite {
    /// Every site, in stable order.
    pub const ALL: [FailpointSite; 8] = [
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

    /// Whether a probe at this site injects `kind`: every site sleeps through a delay,
    /// the shard sites panic, the ingress refuses with queue-full, and the `segment.*`
    /// sites fail their IO (a short write has no meaning for an fsync).
    fn honours(self, kind: FaultKind) -> bool {
        use FailpointSite::*;
        match kind {
            FaultKind::Delay(_) => true,
            FaultKind::Panic => {
                matches!(self, ShardLoop | ShardProcess | AuditAppend | MailboxHandOff)
            }
            FaultKind::QueueFull => self == IngressEnqueue,
            FaultKind::ShortWrite => matches!(self, SegmentWrite | SegmentRotate),
            FaultKind::IoError => matches!(self, SegmentWrite | SegmentSync | SegmentRotate),
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for FailpointSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What an armed failpoint does when it fires. Each kind is honoured at the sites
/// named below and nowhere else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with a message naming the site, which the shard supervisor catches
    /// (restart + loss evidence). Honoured at the four shard sites.
    Panic,
    /// Sleep for the given duration before proceeding (a stall, not a fault:
    /// no work is lost, but watchdogs and backpressure get exercised). Honoured
    /// everywhere.
    Delay(Duration),
    /// Refuse the publish with the dataplane's `QueueFull` error without touching the
    /// queue — the only source of that error, since a real full queue blocks the
    /// publisher. Honoured only at [`FailpointSite::IngressEnqueue`].
    QueueFull,
    /// Write only part of the bytes, leaving a torn tail on disk, then wedge
    /// the segment store. Honoured at [`FailpointSite::SegmentWrite`] and
    /// [`FailpointSite::SegmentRotate`].
    ShortWrite,
    /// Fail the IO operation outright and wedge the segment store (its disk
    /// state stays a clean prefix). Honoured at the three `segment.*` sites.
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
/// `Arc<FailpointRegistry>` is shared by every shard, publisher and segment store
/// without locking.
#[derive(Debug)]
pub struct FailpointRegistry {
    seed: u64,
    specs: Vec<FailpointSpec>,
    /// Firings so far per spec (enforces each spec's `limit`).
    spec_fired: Vec<AtomicU64>,
    /// Probe executions per site.
    hits: [AtomicU64; SITE_COUNT],
    /// Faults injected per site.
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
    ///
    /// # Panics
    ///
    /// If the spec's site does not honour its kind (see [`FaultKind`]): a fault its
    /// site would never inject is a mistake in the schedule, not a no-op.
    pub fn with_spec(mut self, spec: FailpointSpec) -> Self {
        assert!(
            spec.site.honours(spec.kind),
            "failpoint `{}` does not inject {:?}",
            spec.site,
            spec.kind
        );
        self.specs.push(spec);
        self.spec_fired.push(AtomicU64::new(0));
        self
    }

    /// How many times the probe at `site` has executed.
    pub fn hits(&self, site: FailpointSite) -> u64 {
        self.hits[site.index()].load(Ordering::Relaxed)
    }

    /// How many faults have been injected at `site`.
    pub fn fired(&self, site: FailpointSite) -> u64 {
        self.fired[site.index()].load(Ordering::Relaxed)
    }

    /// The probe every site calls: records one execution at `site`, sleeps through a
    /// [`FaultKind::Delay`] that fires, and returns any other kind that fires for the
    /// caller to inject — always one `site` honours.
    pub fn probe(&self, site: FailpointSite) -> Option<FaultKind> {
        match self.check(site) {
            Some(FaultKind::Delay(delay)) => {
                std::thread::sleep(delay);
                None
            }
            fault => fault,
        }
    }

    /// Records one probe execution at `site` and returns the fault that fires on this
    /// hit, if any armed spec does. The decision is a pure function of (seed, spec,
    /// hit index), plus each spec's firing cap; nothing sleeps.
    fn check(&self, site: FailpointSite) -> Option<FaultKind> {
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
    fn a_probe_sleeps_through_a_delay_and_returns_any_other_kind() {
        let registry = FailpointRegistry::new(0)
            .with_spec(FailpointSpec::on_hits(
                FailpointSite::SegmentSync,
                FaultKind::Delay(Duration::from_micros(1)),
                0,
                0,
            ))
            .with_spec(FailpointSpec::on_hits(
                FailpointSite::SegmentSync,
                FaultKind::IoError,
                1,
                0,
            ));
        let probes: Vec<_> = (0..3).map(|_| registry.probe(FailpointSite::SegmentSync)).collect();
        assert_eq!(probes, vec![None, Some(FaultKind::IoError), None]);
        // The delay was injected too: `fired` counts it.
        assert_eq!(registry.fired(FailpointSite::SegmentSync), 2);
        assert_eq!(registry.hits(FailpointSite::SegmentSync), 3);
    }

    #[test]
    fn every_site_honours_a_delay_and_its_own_kinds() {
        let kinds = [
            FaultKind::Panic,
            FaultKind::QueueFull,
            FaultKind::ShortWrite,
            FaultKind::IoError,
            FaultKind::Delay(Duration::ZERO),
        ];
        let honoured: Vec<(&str, usize)> = FailpointSite::ALL
            .iter()
            .map(|site| (site.name(), kinds.iter().filter(|kind| site.honours(**kind)).count()))
            .collect();
        assert_eq!(
            honoured,
            vec![
                ("shard.loop", 2),
                ("shard.process", 2),
                ("audit.append", 2),
                ("mailbox.handoff", 2),
                ("ingress.enqueue", 2),
                ("segment.write", 3),
                ("segment.sync", 2),
                ("segment.rotate", 3)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "failpoint `ingress.enqueue` does not inject Panic")]
    fn a_panic_at_the_ingress_is_refused() {
        let _ = FailpointRegistry::new(0).with_spec(FailpointSpec::on_hits(
            FailpointSite::IngressEnqueue,
            FaultKind::Panic,
            0,
            0,
        ));
    }

    #[test]
    #[should_panic(expected = "failpoint `segment.sync` does not inject ShortWrite")]
    fn a_short_write_at_fsync_is_refused() {
        let _ = FailpointRegistry::new(0).with_spec(FailpointSpec::with_probability(
            FailpointSite::SegmentSync,
            FaultKind::ShortWrite,
            0.5,
        ));
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
        for (i, site) in FailpointSite::ALL.iter().enumerate() {
            assert_eq!(site.index(), i, "FailpointSite::ALL out of order at {site}");
        }
    }
}
