//! The one enforcement sequence of §8.2.2, and the channel-admission checks built on it.
//!
//! [`enforce`] is the only place the order is written: isolation, then contextual
//! access control (the *sender's* principal must hold `Send` rights on the
//! destination), then IFC over the message's *effective* context. It is a pure
//! function of two [`Component`]s, the optional [`MessageFacts`] and the caller's two
//! answers — no clock, thread, lock, queue or audit log — and returns a [`Verdict`];
//! one that reached the flow check also yields the one `FlowChecked` record for it —
//! built as an owned event for a log that takes events
//! (`FlowVerdict::into_evidence`, the bus), or written from the verdict's own
//! borrowed fields straight into an encoded trail ([`FlowVerdict::write_evidence`],
//! the shards: same bytes, nothing built). Quenching and every effect (channel table,
//! mailboxes, counters, audit appends) belong to its drivers: [`admit_channel`],
//! [`crate::bus::Middleware`] (`establish_channel`, `send`, `reevaluate_channels`) and
//! `legaliot-dataplane` (`Dataplane::subscribe` and each shard worker's per-delivery
//! step). Every driver answers from the regime and [`can_flow`] directly.
//!
//! [`AdmissionCache`] and [`admit_channel_cached`] have no caller left in the library:
//! they stay, with their tests, until `benchmark/` stops naming them.

use std::borrow::Cow;
use std::collections::HashMap;

use legaliot_audit::codec::{DataItem, FlowCheckedRef};
use legaliot_audit::{AuditEvent, BatchedAppender};
use legaliot_context::{ContextSnapshot, ContextStore, SubscriptionId, Timestamp};
use legaliot_ifc::{can_flow, CacheStats, DecisionCache, FlowDecision, Label, SecurityContext};

use crate::acl::{AccessDecision, AccessRegime, DenialCause, Operation, Principal};
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
    /// The access-control regime refused the sender's `Send`; no flow check ran.
    AccessDenied {
        /// Why the regime refused.
        cause: DenialCause,
        /// The sender's principal.
        principal: &'a Principal,
        /// The destination component, whose rules refused.
        component: &'a str,
    },
    /// The sequence reached the IFC check; the decision may be a denial.
    Flow(FlowVerdict<'a>),
}

impl Verdict<'_> {
    /// The outcome as channel admission reports it (nothing quenched — quenching is
    /// a per-message, driver-side step).
    pub(crate) fn into_outcome(self) -> DeliveryOutcome {
        match self {
            Verdict::Isolated => DeliveryOutcome::Isolated,
            Verdict::AccessDenied { cause, principal, component } => {
                let reason = cause.reason(component, principal, Operation::Send);
                DeliveryOutcome::DeniedByAccessControl { reason }
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
    pub(crate) fn into_evidence(self, at_millis: u64) -> AuditEvent {
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
/// The caller answers the two policy questions with what it owns — the regime and
/// [`can_flow`]. `access` answers "may `source`'s principal `Send` this to
/// `destination`?", or `None` when the caller has no AC question because the channel
/// was admission-checked when it was established. `flow` is handed the effective
/// source context. A message carries at least the sender's current context:
/// message-level secrecy tags are *added* (they can only constrain further), while
/// integrity comes from the sender alone — an application cannot endorse its own
/// messages beyond its process-level integrity.
#[inline]
pub fn enforce<'a>(
    source: &'a Component,
    destination: &'a Component,
    message: Option<MessageFacts<'a>>,
    access: impl FnOnce() -> Option<AccessDecision>,
    flow: impl FnOnce(&SecurityContext) -> FlowDecision,
) -> Verdict<'a> {
    if source.is_isolated() || destination.is_isolated() {
        return Verdict::Isolated;
    }
    if let Some(AccessDecision::Denied { cause }) = access() {
        let (principal, component) = (source.principal(), destination.name());
        return Verdict::AccessDenied { cause, principal, component };
    }
    let source_context = match message {
        Some(facts) if !facts.secrecy.is_empty() => Cow::Owned(SecurityContext::new(
            source.context().secrecy().union(facts.secrecy),
            source.context().integrity().clone(),
        )),
        _ => Cow::Borrowed(source.context()),
    };
    let decision = flow(&source_context);
    let message_type = message.map(|facts| facts.message_type);
    Verdict::Flow(FlowVerdict { source, destination, message_type, source_context, decision })
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
    let ask = || Some(access.decide(to, principal, Operation::Send, None, snapshot, now));
    enforce(source, destination, None, ask, direct_flow(destination)).into_outcome()
}

/// The IFC answer of every driver: [`can_flow`] into `destination`'s context.
pub(crate) fn direct_flow(
    destination: &Component,
) -> impl FnOnce(&SecurityContext) -> FlowDecision + '_ {
    |source| can_flow(source, destination.context())
}

/// A cache of [`AccessRegime`] decisions for one caller (no dataplane shard holds
/// one; `benchmark/` still measures it): per destination component, the answers
/// given under one revision of its rules. A lookup compares the question itself — principal name, roles, operation,
/// message type — so an answer is only ever replayed to the question it was given to.
/// Two things retire an answer: a write to a context key the component's rules read
/// ([`AdmissionCache::sync`]), and a change of those rules, seen at the component's
/// next lookup; rule changes for other components leave it a hit.
///
/// Correctness contract: snapshots passed to [`AdmissionCache::decide`] must derive
/// from the [`ContextStore`] the cache is [`AdmissionCache::attach`]ed to (and
/// [`AdmissionCache::sync`] must run after store changes, before deciding) —
/// key-level invalidation watches exactly that store — and every call must be given
/// the same regime. Components governed by time-dependent rules are never cached.
#[derive(Debug)]
pub struct AdmissionCache {
    components: HashMap<String, CachedComponent>,
    /// Context key → the components whose rules, at their cached revision, read it.
    readers: HashMap<String, Vec<String>>,
    /// Store subscription used by [`Self::sync`] (set by [`Self::attach`]).
    subscription: Option<SubscriptionId>,
    /// Last store version [`Self::sync`] processed (version-check fast path).
    seen_version: u64,
    /// Most answers held across all components.
    capacity: usize,
    stats: CacheStats,
}

/// What the cache holds about one destination component.
#[derive(Debug)]
struct CachedComponent {
    /// The [`AccessRegime::cacheable_revision`] the answers were given under.
    revision: u64,
    /// The context keys the rules read at `revision`, once for all the answers.
    keys: Vec<String>,
    /// Ascending in the order [`Self::position`] searches by.
    answers: Vec<Answer>,
}

/// An AC question about a component, kept whole, and the regime's answer. Rule matching
/// is role-sensitive: two principals sharing a name but not roles share no decision.
#[derive(Debug)]
struct Answer {
    principal: Principal,
    operation: Operation,
    message_type: Option<MessageType>,
    decision: AccessDecision,
}

impl CachedComponent {
    /// Where the asked question's answer is, or where it would be inserted.
    fn position(
        &self,
        principal: &Principal,
        operation: Operation,
        message_type: Option<&MessageType>,
    ) -> Result<usize, usize> {
        self.answers.binary_search_by(|held| {
            (held.principal.name.cmp(&principal.name))
                .then_with(|| held.message_type.as_ref().cmp(&message_type))
                .then_with(|| (held.operation as u8).cmp(&(operation as u8)))
                .then_with(|| held.principal.roles.cmp(&principal.roles))
        })
    }
}

impl Default for AdmissionCache {
    fn default() -> Self {
        Self::with_capacity(DecisionCache::DEFAULT_CAPACITY)
    }
}

impl AdmissionCache {
    /// Creates a cache with the default capacity (65 536 decisions).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a cache holding at most `capacity` decisions. When full, the next
    /// insert clears the cache (epoch eviction, as in the IFC decision cache).
    pub fn with_capacity(capacity: usize) -> Self {
        AdmissionCache {
            components: HashMap::new(),
            readers: HashMap::new(),
            subscription: None,
            seen_version: 0,
            capacity: capacity.max(1),
            stats: CacheStats::default(),
        }
    }

    /// Subscribes to `store` so [`Self::sync`] can invalidate by changed key; the
    /// cursor starts at the store's current version.
    pub fn attach(&mut self, store: &ContextStore) {
        self.subscription = Some(store.subscribe());
        self.seen_version = store.version();
    }

    /// Releases the store subscription taken by [`Self::attach`]. Must be called
    /// before discarding an attached cache: an abandoned subscription cursor pins
    /// the store's change-history compaction under a retention bound
    /// ([`ContextStore::set_retention`]).
    pub fn detach(&mut self, store: &ContextStore) {
        if let Some(id) = self.subscription.take() {
            store.unsubscribe(id);
        }
    }

    /// Brings the cache up to date with the store — one read-locked version check
    /// when nothing changed — by dropping the answers of every component whose rules
    /// read a changed key (of every component, when no [`Self::attach`]ed change feed
    /// says which keys those are). Returns how many answers were dropped. Rule-set
    /// changes need no sync ([`Self::decide`] checks the component's revision), so the
    /// regime is not read; the parameter stays because `benchmark/` names it.
    pub fn sync(&mut self, store: &ContextStore, _access: &AccessRegime) -> usize {
        let version = store.version();
        if version == self.seen_version {
            return 0;
        }
        self.seen_version = version;
        let Some(id) = self.subscription else {
            let dropped = self.clear();
            self.stats.invalidated += dropped as u64;
            return dropped;
        };
        let mut dropped = 0;
        for change in store.poll(id) {
            for reader in self.readers.get(change.key.name()).into_iter().flatten() {
                if let Some(cached) = self.components.get_mut(reader) {
                    dropped += cached.answers.len();
                    cached.answers.clear();
                }
            }
        }
        self.stats.entries -= dropped;
        self.stats.invalidated += dropped as u64;
        dropped
    }

    /// Drops every answer, returning how many; the other counters stay.
    fn clear(&mut self) -> usize {
        self.components.clear();
        self.readers.clear();
        std::mem::take(&mut self.stats.entries)
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
        let evaluate =
            || access.decide(component, principal, operation, message_type, snapshot, now);
        let Some(revision) = access.cacheable_revision(component) else {
            return (evaluate(), false);
        };
        let current = |cached: &&CachedComponent| cached.revision == revision;
        if let Some(cached) = self.components.get(component).filter(current) {
            if let Ok(at) = cached.position(principal, operation, message_type) {
                self.stats.hits += 1;
                return (cached.answers[at].decision, true);
            }
        }
        self.stats.misses += 1;
        let decision = evaluate();
        if self.stats.entries >= self.capacity {
            self.clear();
        }
        if self.components.get(component).filter(current).is_none() {
            self.start_over(access, component, revision);
        }
        let cached = self.components.get_mut(component).expect("current, or just started over");
        let at = cached.position(principal, operation, message_type).unwrap_or_else(|at| at);
        let (principal, message_type) = (principal.clone(), message_type.cloned());
        let answer = Answer { principal, operation, message_type, decision };
        cached.answers.insert(at, answer);
        self.stats.entries += 1;
        (decision, false)
    }

    /// The first question about `component`, or the first since its rules changed:
    /// whatever was answered under other rules goes (not counted as an invalidation),
    /// and the component is indexed under the context keys its rules read now.
    fn start_over(&mut self, access: &AccessRegime, component: &str, revision: u64) {
        if let Some(stale) = self.components.remove(component) {
            self.stats.entries -= stale.answers.len();
            for key in &stale.keys {
                if let Some(readers) = self.readers.get_mut(key) {
                    readers.retain(|reader| reader != component);
                }
            }
        }
        let keys: Vec<String> =
            access.referenced_context_keys(component).into_iter().map(String::from).collect();
        for key in &keys {
            self.readers.entry(key.clone()).or_default().push(component.to_string());
        }
        let cached = CachedComponent { revision, keys, answers: Vec::new() };
        self.components.insert(component.to_string(), cached);
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
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
    let ask = || Some(cache.decide(access, to, principal, Operation::Send, None, snapshot, now).0);
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
        use legaliot_ifc::context_hash64;

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
                let at_millis = [0, 9, 10, u64::MAX][(index + round) % 4];
                let ask = || {
                    let (regime, at, send) = (&access, &snapshot, Operation::Send);
                    Some(if cached {
                        ac_cache.decide(regime, to, principal, send, message_type, at, NOW).0
                    } else {
                        regime.decide(to, principal, send, message_type, at, NOW)
                    })
                };
                let flow = |source: &SecurityContext| {
                    if cached {
                        let hashes = (context_hash64(source), context_hash64(dst.context()));
                        flow_cache.check(source, hashes.0, dst.context(), hashes.1).0
                    } else {
                        can_flow(source, dst.context())
                    }
                };
                let verdict = enforce(&src, &dst, facts, ask, flow);
                let stops = match &verdict {
                    Verdict::Isolated => Stops::Isolated,
                    Verdict::AccessDenied { cause, principal, component } => {
                        assert_eq!((principal.name.as_str(), *component), ("owner", "dst"));
                        assert_eq!(*cause, DenialCause::NoRules, "{}", case.why);
                        Stops::AccessDenied
                    }
                    Verdict::Flow(flow) => {
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
        access.add_rule("dst", AccessRule::deny(Subject::Anyone, Operation::Send, None));
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

    /// The cache's key is the question itself: differ in any part of it and the answer
    /// is the regime's for that question, never a neighbour's.
    #[test]
    fn decision_keys_distinguish_roles_operations_and_types() {
        use legaliot_context::ContextStore;

        let store = ContextStore::new();
        let snapshot = store.snapshot();
        let reading = MessageType::new("sensor-reading");
        let mut access = AccessRegime::new();
        for component in ["c", "d"] {
            let nurses = Subject::Role("nurse".into());
            access.add_rule(component, AccessRule::allow(nurses, Operation::Send, None));
        }
        let anyone = Subject::Anyone;
        access.add_rule("d", AccessRule::allow(anyone, Operation::Receive, Some(reading.clone())));
        let plain = Principal::new("nina");
        let nurse = Principal::new("nina").with_role("nurse");
        let mut cache = AdmissionCache::new();
        cache.attach(&store);
        let mut asked = 0;
        for _round in 0..2 {
            for component in ["c", "d"] {
                for principal in [&plain, &nurse] {
                    for operation in [Operation::Send, Operation::Receive] {
                        for message_type in [None, Some(&reading)] {
                            let expected = access.decide(
                                component,
                                principal,
                                operation,
                                message_type,
                                &snapshot,
                                NOW,
                            );
                            let (decision, hit) = cache.decide(
                                &access,
                                component,
                                principal,
                                operation,
                                message_type,
                                &snapshot,
                                NOW,
                            );
                            assert_eq!(decision, expected, "{component} {principal} {operation}");
                            assert_eq!(hit, asked >= 16, "every question is its own entry");
                            asked += 1;
                        }
                    }
                }
            }
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (16, 16, 16));
        assert!((stats.hit_ratio() - 0.5).abs() < f64::EPSILON);
        cache.detach(&store);
    }

    #[test]
    fn detach_releases_the_store_cursor_so_retention_can_compact() {
        use legaliot_context::ContextStore;
        use legaliot_policy::Condition;

        let store = ContextStore::with_retention(2);
        let mut access = AccessRegime::new();
        let rule = AccessRule::allow(Subject::Anyone, Operation::Send, None);
        access.add_rule("dst", rule.when(Condition::is_false("k")));
        let mut cache = AdmissionCache::new();
        cache.attach(&store);
        for i in 0..10u64 {
            store.set("k", i as i64, Timestamp(i));
        }
        // The never-synced cache's cursor pins the whole history.
        assert_eq!(store.history().len(), 10);
        cache.detach(&store);
        assert!(store.history().len() <= 2);
        // After detach, sync falls back to the conservative full clear.
        assert_eq!(cache.sync(&store, &access), 0);
        let (src, dst) = (component("src", &[]), component("dst", &[]));
        admit_channel_cached(&src, &dst, &access, &store.snapshot(), NOW, &mut cache);
        store.set("other", 1i64, Timestamp(11));
        assert_eq!(cache.sync(&store, &access), 1);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.invalidated), (0, 1));
        // Detaching twice (or while never attached) is a no-op.
        cache.detach(&store);
    }

    proptest::proptest! {
        /// The cache against the regime it caches, over random interleavings of rule
        /// edits, context-key writes, syncs and questions — among them two principals
        /// that share a name but not roles, and components asked about two message
        /// types. Every answer is `AccessRegime::decide` on the snapshot in force; a
        /// hit only ever replays an answer given to that very question since the
        /// component's rules last changed and since the last write to a key they read;
        /// a question asked twice running hits the second time unless its component is
        /// time-dependent; and the counters add up.
        #[test]
        fn prop_cached_answers_are_the_regimes_and_never_outlive_a_write_or_a_rule_edit(
            ops in proptest::collection::vec((0u8..8, 0usize..3, 0usize..3, 0u8..32), 1..80)
        ) {
            use legaliot_context::ContextStore;
            use legaliot_policy::Condition;
            use std::collections::BTreeSet;

            const COMPONENTS: [&str; 3] = ["a", "b", "c"];
            const KEYS: [&str; 3] = ["k0", "k1", "k2"];
            const CAPACITY: usize = 5;
            let principals = [
                Principal::new("nina"),
                Principal::new("nina").with_role("nurse"),
                Principal::new("bob").with_role("nurse"),
            ];
            let types = [None, Some(MessageType::new("reading")), Some(MessageType::new("command"))];
            let subjects =
                [Subject::Anyone, Subject::Role("nurse".into()), Subject::Principal("nina".into())];

            let store = ContextStore::new();
            let mut access = AccessRegime::new();
            let mut cache = AdmissionCache::with_capacity(CAPACITY);
            cache.attach(&store);
            let mut snapshot = store.snapshot();
            // The questions a hit may replay, as `(component, principal, type, operation)`.
            let mut answered: BTreeSet<(usize, usize, usize, bool)> = BTreeSet::new();
            let mut written: BTreeSet<&str> = BTreeSet::new();
            let (mut asked, mut invalidated) = (0u64, 0u64);
            for (step, (op, first, second, bits)) in ops.into_iter().enumerate() {
                let now = Timestamp(step as u64);
                match op {
                    0..=2 => {
                        let condition = match bits % 8 {
                            0 | 1 => Condition::Always,
                            2 | 3 => Condition::is_true(KEYS[second]),
                            4 | 5 => Condition::is_false(KEYS[second]),
                            6 => Condition::All(vec![
                                Condition::is_true(KEYS[second]),
                                Condition::is_false(KEYS[(second + 1) % 3]),
                            ]),
                            _ => Condition::within_time(0, 40),
                        };
                        let rule = AccessRule {
                            subject: subjects[usize::from(bits / 8) % 3].clone(),
                            operation: if bits & 1 == 0 { Operation::Send } else { Operation::Receive },
                            message_type: types[second].clone(),
                            condition,
                            allow: bits & 16 == 0,
                        };
                        access.add_rule(COMPONENTS[first], rule);
                        answered.retain(|question| question.0 != first);
                    }
                    3 => {
                        store.set(KEYS[first], bits & 1 == 0, now);
                        written.insert(KEYS[first]);
                    }
                    4 => {
                        // A shard's batch prologue: consume the change feed, then
                        // refresh the view — with, on odd bits, a write landing between
                        // the two, which the snapshot sees and the next sync consumes.
                        let reads_a_written_key = |held: &&CachedComponent| {
                            held.keys.iter().any(|key| written.contains(key.as_str()))
                        };
                        let due: usize = (cache.components.values())
                            .filter(reads_a_written_key)
                            .map(|held| held.answers.len())
                            .sum();
                        let dropped = cache.sync(&store, &access);
                        proptest::prop_assert_eq!((step, dropped), (step, due));
                        invalidated += dropped as u64;
                        for (index, component) in COMPONENTS.iter().enumerate() {
                            let reads = access.referenced_context_keys(component);
                            if reads.iter().any(|key| written.contains(key)) {
                                answered.retain(|question| question.0 != index);
                            }
                        }
                        written.clear();
                        if bits & 1 == 1 {
                            store.set(KEYS[second], bits & 2 == 0, now);
                            written.insert(KEYS[second]);
                        }
                        snapshot = store.snapshot();
                    }
                    _ => {
                        let (component, principal) = (COMPONENTS[first], &principals[second]);
                        let message_type = types[usize::from(bits / 2) % 3].as_ref();
                        let send = bits & 1 == 0;
                        let operation = if send { Operation::Send } else { Operation::Receive };
                        let question = (first, second, usize::from(bits / 2) % 3, send);
                        let cacheable = access.cacheable_revision(component).is_some();
                        let expected =
                            access.decide(component, principal, operation, message_type, &snapshot, now);
                        for again in [false, true] {
                            let (decision, hit) = cache.decide(
                                &access,
                                component,
                                principal,
                                operation,
                                message_type,
                                &snapshot,
                                now,
                            );
                            proptest::prop_assert_eq!((step, &decision), (step, &expected));
                            if again {
                                proptest::prop_assert_eq!((step, hit), (step, cacheable));
                            } else if hit {
                                proptest::prop_assert!(answered.contains(&question), "step {}", step);
                            }
                            asked += u64::from(cacheable);
                        }
                        if cacheable {
                            answered.insert(question);
                        }
                    }
                }
                let stats = cache.stats();
                proptest::prop_assert!(stats.entries <= CAPACITY);
                proptest::prop_assert_eq!(stats.hits + stats.misses, asked);
                proptest::prop_assert_eq!(stats.invalidated, invalidated);
                let held: usize = cache.components.values().map(|held| held.answers.len()).sum();
                proptest::prop_assert_eq!(stats.entries, held);
                // The index is the exact inverse of the components' key lists.
                let mut indexed: Vec<(&str, &str)> = (cache.readers.iter())
                    .flat_map(|(key, readers)| readers.iter().map(move |reader| (&**key, &**reader)))
                    .collect();
                let mut listed: Vec<(&str, &str)> = (cache.components.iter())
                    .flat_map(|(name, held)| held.keys.iter().map(move |key| (&**key, &**name)))
                    .collect();
                indexed.sort_unstable();
                listed.sort_unstable();
                proptest::prop_assert_eq!(indexed, listed);
            }
            cache.detach(&store);
        }
    }
}
