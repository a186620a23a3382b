//! The dataplane's failpoint probes: the shard sites and the ingress enqueue, each
//! one call to [`FailpointRegistry::probe`] — the schedule, its sites and kinds live in
//! [`legaliot_obs`], beside the segment stores' probes. With no registry configured
//! (the default) each probe is a single branch on an `Option`.

use std::sync::Arc;

use legaliot_obs::{FailpointRegistry, FailpointSite, FaultKind};

/// Probe for worker-side sites: panics when an armed fault fires (a delay is slept
/// through by the registry). The disabled path is one branch.
#[inline]
pub(crate) fn inject(failpoints: &Option<Arc<FailpointRegistry>>, site: FailpointSite) {
    if panic_due(failpoints, site) {
        fire(site);
    }
}

/// [`inject`] that leaves the panic to the caller: returns whether a panic is due — so
/// a caller probing a group item by item can finish the items before the one that
/// fires, then [`fire`].
#[inline]
pub(crate) fn panic_due(failpoints: &Option<Arc<FailpointRegistry>>, site: FailpointSite) -> bool {
    failpoints.as_deref().and_then(|registry| registry.probe(site)) == Some(FaultKind::Panic)
}

/// The panic an armed [`FaultKind::Panic`] injects at `site`.
pub(crate) fn fire(site: FailpointSite) -> ! {
    panic!("failpoint `{}` fired", site.name())
}

/// Probe for the ingress enqueue site: returns `true` when the publisher should
/// observe queue-full backpressure. A delay sleeps in the publisher's thread.
#[inline]
pub(crate) fn inject_ingress(failpoints: &Option<Arc<FailpointRegistry>>) -> bool {
    failpoints.as_deref().and_then(|registry| registry.probe(FailpointSite::IngressEnqueue))
        == Some(FaultKind::QueueFull)
}

#[cfg(test)]
mod tests {
    use super::*;
    use legaliot_obs::FailpointSpec;

    #[test]
    fn probe_helpers_are_inert_without_a_registry() {
        let none: Option<Arc<FailpointRegistry>> = None;
        inject(&none, FailpointSite::ShardProcess);
        assert!(!inject_ingress(&none));
    }

    #[test]
    fn ingress_probe_reports_queue_full() {
        let registry = Arc::new(FailpointRegistry::new(0).with_spec(FailpointSpec::on_hits(
            FailpointSite::IngressEnqueue,
            FaultKind::QueueFull,
            1,
            0,
        )));
        let some = Some(registry);
        assert!(!inject_ingress(&some));
        assert!(inject_ingress(&some));
        assert!(!inject_ingress(&some));
    }
}
