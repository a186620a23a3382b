//! The one enforcement sequence of §8.2.2, and the channel-admission checks built on it.
//!
//! [`enforce`] is the only place the order is written: isolation, then contextual
//! access control (the *sender's* principal must hold `Send` rights on the
//! destination), then IFC over the message's *effective* context. It is a pure
//! function of two [`Component`]s, the optional [`MessageFacts`] and the caller's two
//! answers — no clock, thread, lock, queue or audit log — and returns a [`Verdict`];
//! one that reached the flow check also yields the one `FlowChecked` record for it —
//! built as an owned event for a log that takes events
//! ([`FlowVerdict::into_evidence`], the bus), or written from the verdict's own
//! borrowed fields straight into an encoded trail ([`FlowVerdict::write_evidence`],
//! the shards: same bytes, nothing built). Quenching and every effect (channel table,
//! mailboxes, counters, audit appends) belong to its drivers: [`admit_channel`] /
//! [`admit_channel_cached`], [`crate::bus::Middleware`] (`establish_channel`, `send`,
//! `reevaluate_channels`) and `legaliot-dataplane` (`Dataplane::subscribe` and each
//! shard worker's per-delivery step).

use std::borrow::Cow;
use std::sync::Arc;

use legaliot_audit::codec::{DataItem, FlowCheckedRef};
use legaliot_audit::{AuditEvent, BatchedAppender};
use legaliot_context::{ContextSnapshot, ContextStore, Timestamp};
use legaliot_ifc::{can_flow, FlowDecision, Label, SecurityContext, StableHasher};
use legaliot_policy::{AcCacheStats, AcDecisionCache};

use crate::acl::{AccessDecision, AccessRegime, Operation, Principal};
use crate::bus::DeliveryOutcome;
use crate::component::Component;
use crate::schema::MessageType;

/// What the sequence needs to know about a typed message; `None` in [`enforce`]
/// judges the bare channel.
#[derive(Debug, Clone, Copy)]
pub struct MessageFacts<'a> {
    /// The declared type: AC is decided at message-type granularity.
    pub message_type: &'a MessageType,
    /// Message-level secrecy tags, joined into the effective source context.
    pub secrecy: &'a Label,
}

/// What [`enforce`] decided, in the order the sequence can stop.
#[derive(Debug)]
pub enum Verdict<'a> {
    /// An endpoint is isolated; no policy question was asked.
    Isolated,
    /// The access-control regime refused; no flow check ran.
    AccessDenied {
        /// The regime's explanation, shared with the decision it came from.
        reason: Arc<str>,
        /// Whether a cache answered.
        cache_hit: bool,
    },
    /// The sequence reached the IFC check; the decision may be a denial.
    Flow(FlowVerdict<'a>),
}

impl Verdict<'_> {
    /// The outcome as channel admission reports it (nothing quenched — quenching is
    /// a per-message, driver-side step).
    pub fn into_outcome(self) -> DeliveryOutcome {
        match self {
            Verdict::Isolated => DeliveryOutcome::Isolated,
            Verdict::AccessDenied { reason, .. } => {
                DeliveryOutcome::DeniedByAccessControl { reason: reason.as_ref().into() }
            }
            Verdict::Flow(flow) if flow.decision.is_denied() => {
                DeliveryOutcome::DeniedByIfc(flow.decision)
            }
            Verdict::Flow(_) => DeliveryOutcome::Delivered { quenched_attributes: Vec::new() },
        }
    }
}

/// The IFC step's result, with what a driver needs to act on and evidence it.
#[derive(Debug)]
pub struct FlowVerdict<'a> {
    source: &'a Component,
    destination: &'a Component,
    message_type: Option<&'a MessageType>,
    /// The effective source context the decision was taken over: the sender's own
    /// (borrowed) when the message adds no secrecy tags, the join when it does.
    pub source_context: Cow<'a, SecurityContext>,
    /// The flow decision.
    pub decision: FlowDecision,
    /// Whether a cache answered the AC question; `None` when none was asked.
    pub access_hit: Option<bool>,
    /// Whether a cache answered the IFC question.
    pub flow_hit: bool,
}

impl FlowVerdict<'_> {
    /// What the check was about: a message sent at `at_millis` ([`DataItem`] spells
    /// its name), or nothing for a bare channel check.
    fn data_item(&self, at_millis: u64) -> Option<DataItem<'_>> {
        self.message_type.map(|message_type| DataItem::Message {
            message_type: message_type.as_str(),
            at_millis,
        })
    }

    /// The one `FlowChecked` record of this check. The two contexts are shared with
    /// the components they came from, not copied.
    pub fn into_evidence(self, at_millis: u64) -> AuditEvent {
        let data_item = self.data_item(at_millis).map(|item| item.to_string());
        AuditEvent::FlowChecked {
            source: self.source.name().to_string(),
            destination: self.destination.name().to_string(),
            source_context: self.source_context.into_owned(),
            destination_context: self.destination.context().clone(),
            decision: self.decision,
            data_item,
        }
    }

    /// Appends that same record to `audit` without building it: names, contexts and
    /// decision are encoded where they stand, the data item from its two parts.
    pub fn write_evidence(&self, at_millis: u64, audit: &mut BatchedAppender) {
        let fields = FlowCheckedRef {
            source: self.source.name(),
            destination: self.destination.name(),
            source_context: &self.source_context,
            destination_context: self.destination.context(),
            decision: &self.decision,
            data_item: self.data_item(at_millis),
        };
        audit.append_flow_checked(&fields, at_millis);
    }
}

/// The §8.2.2 enforcement sequence for `source → destination`, written once:
/// isolation, then the AC question, then IFC over the effective source context.
///
/// The caller answers the two policy questions with whatever it owns — the regime and
/// [`can_flow`] directly, or its decision caches; an answer's boolean is `true` when
/// a cache produced it. `access` answers "may `source`'s principal `Send` this to
/// `destination`?", or `None` when the caller has no AC question because the channel
/// was admission-checked when it was established. `flow` is handed the effective
/// source context and whether it is a fresh join (no precomputed hash of the
/// sender's own context applies). A message carries at least the sender's current
/// context: message-level secrecy tags are *added* (they can only constrain further),
/// while integrity comes from the sender alone — an application cannot endorse its
/// own messages beyond its process-level integrity.
#[inline]
pub fn enforce<'a>(
    source: &'a Component,
    destination: &'a Component,
    message: Option<MessageFacts<'a>>,
    access: impl FnOnce() -> Option<(AccessDecision, bool)>,
    flow: impl FnOnce(&SecurityContext, bool) -> (FlowDecision, bool),
) -> Verdict<'a> {
    if source.is_isolated() || destination.is_isolated() {
        return Verdict::Isolated;
    }
    let mut access_hit = None;
    if let Some((decision, cache_hit)) = access() {
        if let AccessDecision::Denied { reason } = decision {
            return Verdict::AccessDenied { reason, cache_hit };
        }
        access_hit = Some(cache_hit);
    }
    let source_context = match message {
        Some(facts) if !facts.secrecy.is_empty() => Cow::Owned(SecurityContext::new(
            source.context().secrecy().union(facts.secrecy),
            source.context().integrity().clone(),
        )),
        _ => Cow::Borrowed(source.context()),
    };
    let joined = matches!(source_context, Cow::Owned(_));
    let (decision, flow_hit) = flow(&source_context, joined);
    let message_type = message.map(|facts| facts.message_type);
    Verdict::Flow(FlowVerdict {
        source,
        destination,
        message_type,
        source_context,
        decision,
        access_hit,
        flow_hit,
    })
}

/// Runs the admission sequence for a prospective channel `source → destination`,
/// answering from the regime directly.
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
    let (to, principal) = (destination.name(), source.principal());
    let ask = || Some((access.decide(to, principal, Operation::Send, None, snapshot, now), false));
    enforce(source, destination, None, ask, direct_flow(destination)).into_outcome()
}

/// The IFC answer of a caller that holds no decision cache: [`can_flow`] itself.
pub(crate) fn direct_flow(
    destination: &Component,
) -> impl FnOnce(&SecurityContext, bool) -> (FlowDecision, bool) + '_ {
    |source, _joined| (can_flow(source, destination.context()), false)
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

/// [`admit_channel`] with the AC question answered through an [`AdmissionCache`], so
/// the rule-set evaluation is amortised across repeated admission checks of the same
/// `(destination, principal)` question.
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
    let (to, principal) = (destination.name(), source.principal());
    let ask = || Some(cache.decide(access, to, principal, Operation::Send, None, snapshot, now));
    enforce(source, destination, None, ask, direct_flow(destination)).into_outcome()
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

    const NOW: Timestamp = Timestamp(1);

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

    /// The core driven bare — two components and two closures; no `Middleware`,
    /// `Dataplane`, thread or clock — over a table of cases, each answered directly and
    /// again through an `AdmissionCache` + `DecisionCache`.
    #[test]
    fn enforce_orders_the_steps_joins_message_secrecy_and_ignores_who_answers() {
        use legaliot_context::ContextStore;
        use legaliot_ifc::{context_hash64, DecisionCache};

        #[derive(Debug, PartialEq)]
        enum Stops {
            Isolated,
            AccessDenied,
            FlowDenied,
            FlowAllowed,
        }
        struct Case {
            why: &'static str,
            isolated: (bool, bool),
            ac_allows: bool,
            source: (&'static [&'static str], &'static [&'static str]),
            message_secrecy: Option<&'static [&'static str]>,
            destination: (&'static [&'static str], &'static [&'static str]),
            stops: Stops,
            effective_secrecy: &'static [&'static str],
        }
        let case = |why, stops| Case {
            why,
            isolated: (false, false),
            ac_allows: true,
            source: (&["medical"], &["hosp-dev"]),
            message_secrecy: Some(&[]),
            destination: (&["medical"], &[]),
            stops,
            effective_secrecy: &["medical"],
        };
        let leaky: (&[&str], &[&str]) = (&[], &[]);
        let cases = [
            case("everything passes", Stops::FlowAllowed),
            Case {
                isolated: (true, false),
                ac_allows: false,
                destination: leaky,
                ..case("an isolated source beats an AC and an IFC denial", Stops::Isolated)
            },
            Case {
                isolated: (false, true),
                ac_allows: false,
                ..case("an isolated destination beats an AC denial", Stops::Isolated)
            },
            Case {
                ac_allows: false,
                destination: leaky,
                ..case("an AC denial beats an IFC denial", Stops::AccessDenied)
            },
            Case { destination: leaky, ..case("the sender's secrecy binds", Stops::FlowDenied) },
            Case {
                message_secrecy: Some(&["identity"]),
                effective_secrecy: &["identity", "medical"],
                ..case("message-level secrecy joins the sender's", Stops::FlowDenied)
            },
            Case {
                message_secrecy: Some(&["identity"]),
                destination: (&["identity", "medical"], &["hosp-dev"]),
                effective_secrecy: &["identity", "medical"],
                ..case("a destination holding the joined tags receives", Stops::FlowAllowed)
            },
            Case {
                destination: (&["medical"], &["consent"]),
                ..case("integrity comes from the sender alone", Stops::FlowDenied)
            },
            Case { message_secrecy: None, ..case("a bare channel", Stops::FlowAllowed) },
        ];

        let store = ContextStore::new();
        let snapshot = store.snapshot();
        let reading = MessageType::new("reading");
        for (index, case) in cases.iter().enumerate() {
            let build = |name: &str, (secrecy, integrity): (&[&str], &[&str]), isolated| {
                let context =
                    SecurityContext::from_names(secrecy.iter().copied(), integrity.iter().copied());
                let mut built =
                    Component::builder(name, Principal::new("owner")).context(context).build();
                built.set_isolated(isolated);
                built
            };
            let src = build("src", case.source, case.isolated.0);
            let dst = build("dst", case.destination, case.isolated.1);
            let access = if case.ac_allows { open_access(&["dst"]) } else { AccessRegime::new() };
            let secrecy =
                case.message_secrecy.map(|names| Label::from_names(names.iter().copied()));
            let facts =
                secrecy.as_ref().map(|secrecy| MessageFacts { message_type: &reading, secrecy });
            let mut ac_cache = AdmissionCache::new();
            ac_cache.attach(&store);
            let mut flow_cache = DecisionCache::new();
            let (to, principal, message_type) =
                (dst.name(), src.principal(), facts.map(|facts| facts.message_type));

            // Direct, cache-answered cold, cache-answered warm: one verdict. The send
            // times walk over every digit count a data item's name can take.
            for (round, cached) in [false, true, true].into_iter().enumerate() {
                let warm = round == 2;
                let at_millis = [0, 9, 10, u64::MAX][(index + round) % 4];
                let ask = || {
                    let (regime, at) = (&access, &snapshot);
                    Some(if cached {
                        ac_cache.decide(
                            regime,
                            to,
                            principal,
                            Operation::Send,
                            message_type,
                            at,
                            NOW,
                        )
                    } else {
                        (
                            regime.decide(to, principal, Operation::Send, message_type, at, NOW),
                            false,
                        )
                    })
                };
                let flow = |source: &SecurityContext, joined: bool| {
                    assert_eq!(joined, source != src.context(), "{}", case.why);
                    if cached {
                        let hashes = (context_hash64(source), context_hash64(dst.context()));
                        flow_cache.check(source, hashes.0, dst.context(), hashes.1)
                    } else {
                        (can_flow(source, dst.context()), false)
                    }
                };
                let verdict = enforce(&src, &dst, facts, ask, flow);
                let stops = match &verdict {
                    Verdict::Isolated => Stops::Isolated,
                    Verdict::AccessDenied { cache_hit, .. } => {
                        assert_eq!(*cache_hit, warm, "{}", case.why);
                        Stops::AccessDenied
                    }
                    Verdict::Flow(flow) => {
                        assert_eq!((flow.access_hit, flow.flow_hit), (Some(warm), warm));
                        let expected = Label::from_names(case.effective_secrecy.iter().copied());
                        assert_eq!(flow.source_context.secrecy(), &expected, "{}", case.why);
                        assert_eq!(flow.source_context.integrity(), src.context().integrity());
                        assert_eq!(flow.decision, can_flow(&flow.source_context, dst.context()));
                        if flow.decision.is_denied() {
                            Stops::FlowDenied
                        } else {
                            Stops::FlowAllowed
                        }
                    }
                };
                assert_eq!(stops, case.stops, "{} (cached: {cached})", case.why);

                // The one evidence record names the message, or nothing for a channel;
                // written borrowed or built owned, it is the same record.
                if let Verdict::Flow(flow) = verdict {
                    let mut written = BatchedAppender::new("n", 8);
                    flow.write_evidence(at_millis, &mut written);
                    let mut built = legaliot_audit::AuditLog::new("n");
                    let evidence = flow.into_evidence(at_millis);
                    built.record(evidence.clone(), at_millis);
                    assert_eq!(written.into_log(), built, "{}", case.why);
                    match evidence {
                        AuditEvent::FlowChecked { source, destination, data_item, .. } => {
                            assert_eq!((source.as_str(), destination.as_str()), ("src", "dst"));
                            let named = message_type.map(|_| format!("reading@{at_millis}"));
                            assert_eq!(data_item, named, "{}", case.why);
                        }
                        other => panic!("{}: not a flow check: {other:?}", case.why),
                    }
                }
            }
            ac_cache.detach(&store);
        }
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
