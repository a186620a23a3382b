//! Channel-admission checks, factored out of the bus so every enforcement surface
//! (the synchronous [`crate::bus::Middleware`], the sharded `legaliot-dataplane`)
//! applies the identical §8.2.2 sequence: isolation, then the access-control regime
//! (the *sender's* principal must hold `Send` rights on the destination), then IFC
//! between the two components' security contexts.
//!
//! Admission is a pure function of the two components and the AC regime — it mutates
//! nothing and records nothing, so callers stay in charge of channel bookkeeping and
//! audit. A [`crate::bus::DeliveryOutcome`] (not an error) is returned because a refusal
//! is an expected, auditable outcome.

use legaliot_context::{ContextSnapshot, ContextStore, Timestamp};
use legaliot_ifc::{can_flow, StableHasher};
use legaliot_policy::{AcCacheStats, AcDecisionCache};

use crate::acl::{AccessDecision, AccessRegime, Operation, Principal};
use crate::bus::DeliveryOutcome;
use crate::component::Component;
use crate::schema::MessageType;

/// Runs the full channel-admission sequence for a prospective channel
/// `source → destination`.
///
/// Returns [`DeliveryOutcome::Delivered`] (with no quenched attributes — quenching is a
/// per-message concern) when the channel may be established, and the precise refusal
/// otherwise: [`DeliveryOutcome::Isolated`], [`DeliveryOutcome::DeniedByAccessControl`]
/// or [`DeliveryOutcome::DeniedByIfc`].
///
/// ```
/// use legaliot_context::{ContextSnapshot, Timestamp};
/// use legaliot_ifc::SecurityContext;
/// use legaliot_middleware::admission::admit_channel;
/// use legaliot_middleware::{AccessRegime, AccessRule, Component, Operation, Principal, Subject};
///
/// let src = Component::builder("sensor", Principal::new("ann"))
///     .context(SecurityContext::from_names(["medical"], Vec::<&str>::new()))
///     .build();
/// let dst = Component::builder("analyser", Principal::new("hospital"))
///     .context(SecurityContext::from_names(["medical"], Vec::<&str>::new()))
///     .build();
/// let mut access = AccessRegime::new();
/// access.add_rule("analyser", AccessRule::allow(Subject::Anyone, Operation::Send, None));
/// let outcome =
///     admit_channel(&src, &dst, &access, &ContextSnapshot::default(), Timestamp(1));
/// assert!(outcome.is_delivered());
/// ```
pub fn admit_channel(
    source: &Component,
    destination: &Component,
    access: &AccessRegime,
    snapshot: &ContextSnapshot,
    now: Timestamp,
) -> DeliveryOutcome {
    if source.is_isolated() || destination.is_isolated() {
        return DeliveryOutcome::Isolated;
    }
    let ac =
        access.decide(destination.name(), source.principal(), Operation::Send, None, snapshot, now);
    if let AccessDecision::Denied { reason } = ac {
        return DeliveryOutcome::DeniedByAccessControl { reason };
    }
    let decision = can_flow(source.context(), destination.context());
    if decision.is_denied() {
        DeliveryOutcome::DeniedByIfc(decision)
    } else {
        DeliveryOutcome::Delivered { quenched_attributes: Vec::new() }
    }
}

/// A cache of [`AccessRegime`] decisions for one enforcement surface (an engine's
/// control plane, or one dataplane shard), wrapping a context-keyed
/// [`AcDecisionCache`] with per-component rule-set staleness detection: an entry
/// remembers the [`AccessRegime::cacheable_revision`] it was computed under and is
/// re-evaluated at its next lookup once the rules governing *its* component have
/// changed. Rule changes for other components leave it a hit.
///
/// Correctness contract: snapshots passed to [`AdmissionCache::decide`] must derive
/// from the [`ContextStore`] the cache is [`AdmissionCache::attach`]ed to (and
/// [`AdmissionCache::sync`] must run after store changes, before deciding) —
/// key-level invalidation watches exactly that store — and every call must be given
/// the same regime. Components governed by time-dependent rules are never cached and
/// always re-evaluated.
#[derive(Debug, Default)]
pub struct AdmissionCache {
    cache: AcDecisionCache<StampedDecision>,
}

/// A cached decision with the component revision it was computed under.
#[derive(Debug, Clone)]
struct StampedDecision {
    decision: AccessDecision,
    revision: u64,
}

impl AdmissionCache {
    /// Creates a cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a cache holding at most `capacity` decisions.
    pub fn with_capacity(capacity: usize) -> Self {
        AdmissionCache { cache: AcDecisionCache::with_capacity(capacity) }
    }

    /// Subscribes to `store` for key-level invalidation (see [`AcDecisionCache::attach`]).
    pub fn attach(&mut self, store: &ContextStore) {
        self.cache.attach(store);
    }

    /// Releases the store subscription taken by [`Self::attach`]. Must be called
    /// before discarding an attached cache: an abandoned subscription cursor pins
    /// the store's change-history compaction under a retention bound (see
    /// [`AcDecisionCache::detach`]).
    pub fn detach(&mut self, store: &ContextStore) {
        self.cache.detach(store);
    }

    /// Brings the cache up to date with the store: drops entries whose referenced
    /// context keys changed. Returns how many entries were dropped. Rule-set changes
    /// need no sync — [`Self::decide`] checks the component's revision per lookup — so
    /// the regime is not read; the parameter stays because `benchmark/` names this
    /// signature.
    pub fn sync(&mut self, store: &ContextStore, _access: &AccessRegime) -> usize {
        self.cache.sync(store)
    }

    /// The stable cache key for an AC question. Includes the principal's roles: rule
    /// matching is role-sensitive, so two principals sharing a name but not roles must
    /// not share decisions.
    fn decision_key(
        component: &str,
        principal: &Principal,
        operation: Operation,
        message_type: Option<&MessageType>,
    ) -> u64 {
        let mut hasher = StableHasher::new()
            .write_str(component)
            .write_str(&principal.name)
            .write_u64(principal.roles.len() as u64);
        for role in &principal.roles {
            hasher = hasher.write_str(role);
        }
        hasher = match operation {
            Operation::Send => hasher.write_str("send"),
            Operation::Receive => hasher.write_str("receive"),
            Operation::Reconfigure => hasher.write_str("reconfigure"),
        };
        match message_type {
            Some(mt) => hasher.write_str(mt.as_str()),
            None => hasher.write_u64(0),
        }
        .finish()
    }

    /// Decides via the cache, evaluating the regime on a miss. The boolean is `true`
    /// when the decision came from the cache. Components with time-dependent rules
    /// bypass the cache entirely.
    #[allow(clippy::too_many_arguments)]
    pub fn decide(
        &mut self,
        access: &AccessRegime,
        component: &str,
        principal: &Principal,
        operation: Operation,
        message_type: Option<&MessageType>,
        snapshot: &ContextSnapshot,
        now: Timestamp,
    ) -> (AccessDecision, bool) {
        let Some(revision) = access.cacheable_revision(component) else {
            let decision =
                access.decide(component, principal, operation, message_type, snapshot, now);
            return (decision, false);
        };
        let key = Self::decision_key(component, principal, operation, message_type);
        if let Some(hit) = self.cache.lookup_if(key, |entry| entry.revision == revision) {
            return (hit.decision, true);
        }
        let decision = access.decide(component, principal, operation, message_type, snapshot, now);
        self.cache.insert(
            key,
            StampedDecision { decision: decision.clone(), revision },
            access.referenced_context_keys(component),
        );
        (decision, false)
    }

    /// Current effectiveness counters of the underlying decision cache.
    pub fn stats(&self) -> AcCacheStats {
        self.cache.stats()
    }
}

/// [`admit_channel`] with the AC step answered through an [`AdmissionCache`]: the same
/// §8.2.2 sequence (isolation → AC → IFC), with the rule-set evaluation amortised
/// across repeated admission checks of the same `(destination, principal)` question.
///
/// The caller owns cache hygiene: [`AdmissionCache::sync`] against the regime and the
/// attached [`ContextStore`] before deciding, and snapshots derived from that store.
pub fn admit_channel_cached(
    source: &Component,
    destination: &Component,
    access: &AccessRegime,
    snapshot: &ContextSnapshot,
    now: Timestamp,
    cache: &mut AdmissionCache,
) -> DeliveryOutcome {
    if source.is_isolated() || destination.is_isolated() {
        return DeliveryOutcome::Isolated;
    }
    let (ac, _hit) = cache.decide(
        access,
        destination.name(),
        source.principal(),
        Operation::Send,
        None,
        snapshot,
        now,
    );
    if let AccessDecision::Denied { reason } = ac {
        return DeliveryOutcome::DeniedByAccessControl { reason };
    }
    let decision = can_flow(source.context(), destination.context());
    if decision.is_denied() {
        DeliveryOutcome::DeniedByIfc(decision)
    } else {
        DeliveryOutcome::Delivered { quenched_attributes: Vec::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::{AccessRule, Principal, Subject};
    use legaliot_ifc::SecurityContext;

    fn component(name: &str, secrecy: &[&str]) -> Component {
        Component::builder(name, Principal::new("owner"))
            .context(SecurityContext::from_names(secrecy.iter().copied(), Vec::<&str>::new()))
            .build()
    }

    fn open_access(names: &[&str]) -> AccessRegime {
        let mut access = AccessRegime::new();
        for name in names {
            access.add_rule(*name, AccessRule::allow(Subject::Anyone, Operation::Send, None));
        }
        access
    }

    #[test]
    fn admission_order_isolation_then_ac_then_ifc() {
        let snapshot = ContextSnapshot::default();
        let src = component("src", &["medical"]);
        let dst = component("dst", &["medical"]);

        // No AC rule: denied by AC even though IFC would pass.
        let outcome = admit_channel(&src, &dst, &AccessRegime::new(), &snapshot, Timestamp(1));
        assert!(matches!(outcome, DeliveryOutcome::DeniedByAccessControl { .. }));

        // AC open, IFC fails (destination lacks `medical`).
        let public_dst = component("dst", &[]);
        let outcome =
            admit_channel(&src, &public_dst, &open_access(&["dst"]), &snapshot, Timestamp(2));
        assert!(matches!(outcome, DeliveryOutcome::DeniedByIfc(_)));

        // Isolation short-circuits everything, including AC denial.
        let mut isolated = component("src", &["medical"]);
        isolated.set_isolated(true);
        let outcome = admit_channel(&isolated, &dst, &AccessRegime::new(), &snapshot, Timestamp(3));
        assert_eq!(outcome, DeliveryOutcome::Isolated);

        // Everything passing admits the channel with nothing quenched.
        let outcome = admit_channel(&src, &dst, &open_access(&["dst"]), &snapshot, Timestamp(4));
        assert_eq!(outcome, DeliveryOutcome::Delivered { quenched_attributes: vec![] });
    }

    #[test]
    fn cached_admission_agrees_with_uncached_and_hits() {
        use legaliot_context::ContextStore;
        use legaliot_policy::Condition;

        let store = ContextStore::new();
        store.set("emergency.active", false, Timestamp(0));
        let mut access = AccessRegime::new();
        access.add_rule(
            "dst",
            AccessRule::allow(Subject::Anyone, Operation::Send, None)
                .when(Condition::is_true("emergency.active")),
        );
        let src = component("src", &["medical"]);
        let dst = component("dst", &["medical"]);
        let mut cache = AdmissionCache::new();
        cache.attach(&store);

        // Denied while the emergency flag is off; the denial is cached.
        cache.sync(&store, &access);
        let outcome =
            admit_channel_cached(&src, &dst, &access, &store.snapshot(), Timestamp(1), &mut cache);
        assert!(matches!(outcome, DeliveryOutcome::DeniedByAccessControl { .. }));
        let outcome =
            admit_channel_cached(&src, &dst, &access, &store.snapshot(), Timestamp(2), &mut cache);
        assert!(matches!(outcome, DeliveryOutcome::DeniedByAccessControl { .. }));
        assert_eq!(cache.stats().hits, 1);

        // Flipping the referenced key invalidates the entry and flips the decision.
        store.set("emergency.active", true, Timestamp(3));
        assert_eq!(cache.sync(&store, &access), 1);
        let outcome =
            admit_channel_cached(&src, &dst, &access, &store.snapshot(), Timestamp(4), &mut cache);
        assert!(outcome.is_delivered());

        // A rule-set change for the component is seen at its next lookup, sync or not.
        access.clear_component("dst");
        let outcome =
            admit_channel_cached(&src, &dst, &access, &store.snapshot(), Timestamp(5), &mut cache);
        assert!(matches!(outcome, DeliveryOutcome::DeniedByAccessControl { .. }));
    }

    #[test]
    fn a_rule_change_invalidates_only_its_own_component() {
        use legaliot_context::ContextStore;

        let store = ContextStore::new();
        let mut access = open_access(&["a", "b"]);
        let mut cache = AdmissionCache::new();
        cache.attach(&store);
        let principal = Principal::new("owner");
        let snapshot = store.snapshot();
        let ask = |cache: &mut AdmissionCache, access: &AccessRegime, component: &str| {
            cache.sync(&store, access);
            let (decision, hit) = cache.decide(
                access,
                component,
                &principal,
                Operation::Send,
                None,
                &snapshot,
                Timestamp(1),
            );
            (decision.is_allowed(), hit)
        };
        assert_eq!(ask(&mut cache, &access, "a"), (true, false));
        assert_eq!(ask(&mut cache, &access, "b"), (true, false));
        assert_eq!(ask(&mut cache, &access, "never-governed"), (false, false));

        // A deny rule on `a` flips `a` on its next lookup; `b` stays a hit.
        access.add_rule(
            "a",
            AccessRule::deny(Subject::Principal("owner".into()), Operation::Send, None),
        );
        assert_eq!(ask(&mut cache, &access, "b"), (true, true));
        assert_eq!(ask(&mut cache, &access, "a"), (false, false));
        assert_eq!(ask(&mut cache, &access, "a"), (false, true));
        assert_eq!(cache.stats().entries, 3, "the stale entry was replaced, not duplicated");

        // Clear then re-add: neither step can resurrect a decision cached before it.
        access.clear_component("a");
        assert_eq!(ask(&mut cache, &access, "a"), (false, false));
        access.add_rule("a", AccessRule::allow(Subject::Anyone, Operation::Send, None));
        assert_eq!(ask(&mut cache, &access, "a"), (true, false));
        // The first rule ever for a component invalidates its cached default-deny.
        access
            .add_rule("never-governed", AccessRule::allow(Subject::Anyone, Operation::Send, None));
        assert_eq!(ask(&mut cache, &access, "never-governed"), (true, false));
        assert_eq!(ask(&mut cache, &access, "b"), (true, true));
    }

    #[test]
    fn time_dependent_rules_bypass_the_cache() {
        use legaliot_context::ContextStore;
        use legaliot_policy::Condition;

        let store = ContextStore::new();
        let mut access = AccessRegime::new();
        access.add_rule(
            "dst",
            AccessRule::allow(Subject::Anyone, Operation::Send, None)
                .when(Condition::within_time(0, 10)),
        );
        let mut cache = AdmissionCache::new();
        cache.attach(&store);
        cache.sync(&store, &access);
        let principal = Principal::new("owner");
        let snapshot = store.snapshot();
        let (d, hit) = cache.decide(
            &access,
            "dst",
            &principal,
            Operation::Send,
            None,
            &snapshot,
            Timestamp(5),
        );
        assert!(d.is_allowed() && !hit);
        // Inside vs outside the window flips without any context change — which is
        // exactly why it must never be served from the cache.
        let (d, hit) = cache.decide(
            &access,
            "dst",
            &principal,
            Operation::Send,
            None,
            &snapshot,
            Timestamp(50),
        );
        assert!(!d.is_allowed() && !hit);
    }

    #[test]
    fn decision_keys_distinguish_roles_operations_and_types() {
        let plain = Principal::new("nina");
        let nurse = Principal::new("nina").with_role("nurse");
        let mt = MessageType::new("sensor-reading");
        let base = AdmissionCache::decision_key("c", &plain, Operation::Send, None);
        assert_ne!(base, AdmissionCache::decision_key("c", &nurse, Operation::Send, None));
        assert_ne!(base, AdmissionCache::decision_key("c", &plain, Operation::Receive, None));
        assert_ne!(base, AdmissionCache::decision_key("c", &plain, Operation::Send, Some(&mt)));
        assert_ne!(base, AdmissionCache::decision_key("d", &plain, Operation::Send, None));
        assert_eq!(base, AdmissionCache::decision_key("c", &plain, Operation::Send, None));
    }
}
