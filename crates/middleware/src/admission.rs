//! The middleware's two cores, each written once and driven by the bus and the
//! dataplane alike. Both are pure functions of components and the caller's policy
//! answers — no clock, thread, lock, queue or audit log; every other effect is a
//! driver's.
//!
//! * [`enforce`], the §8.2.2 sequence: isolation, then contextual access control (the
//!   *sender's* principal must hold `Send` rights on the destination), then IFC over
//!   the message's *effective* context. A [`Verdict`] that reached the flow check
//!   yields its one `FlowChecked` record as borrowed fields ([`FlowVerdict::evidence`]),
//!   which the bus's log and a shard's trail encode alike. Drivers: [`admit_channel`],
//!   [`crate::bus::Middleware`] (`establish_channel`, `send`, `reevaluate_channels`),
//!   `Dataplane::subscribe` and each shard worker's per-delivery step.
//! * [`reconfigure`], one step of a control message (§8.1, Fig. 8; [`control_steps`]):
//!   unknown target, then the issuer's `Reconfigure` question, then the change inside
//!   the component (context, tags, privileges, isolation). Its [`Reconfiguration`]
//!   holds the [`ControlOutcome`], the [`ControlDelta`] its driver applies outside the
//!   component, and the step's one `Reconfigured` record. Drivers:
//!   [`crate::bus::Middleware::handle_control`], `Dataplane::handle_control` and
//!   `Dataplane::set_isolated`.
//!
//! Every driver answers from the regime and [`can_flow`] directly, so a rule edit or a
//! context write is in force for the next question asked: nothing here remembers an
//! answer. [`AdmissionCache`] and [`admit_channel_cached`] are stateless pass-throughs
//! to [`AccessRegime::decide`] and [`admit_channel`], kept while `benchmark/` names them.

use std::borrow::Cow;
use std::fmt;

use legaliot_audit::codec::{DataItem, FlowCheckedRef};
use legaliot_audit::AuditEvent;
use legaliot_context::{ContextSnapshot, ContextStore, Timestamp};
use legaliot_ifc::{can_flow, FlowDecision, IfcError, Label, SecurityContext, Tag};
use legaliot_policy::Action;

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

    /// The one `FlowChecked` record of this check, as borrowed fields: names, contexts
    /// and decision where they stand, the data item as its two parts. A shard appends
    /// it to its trail, the bus to its log; both encode it without building it.
    pub fn evidence(&self, at_millis: u64) -> FlowCheckedRef<'_> {
        FlowCheckedRef {
            source: self.source.name(),
            destination: self.destination.name(),
            source_context: &self.source_context,
            destination_context: self.destination.context(),
            decision: &self.decision,
            data_item: self.data_item(at_millis),
        }
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
    let (to, from) = (destination.party(), source.party());
    let ask = || Some(access.decide_by_id(to, from, Operation::Send, None, snapshot, now));
    enforce(source, destination, None, ask, direct_flow(destination)).into_outcome()
}

/// The IFC answer of every driver: [`can_flow`] into `destination`'s context.
pub(crate) fn direct_flow(
    destination: &Component,
) -> impl FnOnce(&SecurityContext) -> FlowDecision + '_ {
    |source| can_flow(source, destination.context())
}

/// The middleware's response to one step of a reconfiguration command.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlOutcome {
    /// The operation was authorised and applied.
    Applied,
    /// The issuer is not authorised to reconfigure the target.
    Unauthorised {
        /// Why.
        reason: String,
    },
    /// The target component is unknown.
    UnknownTarget,
    /// The operation was authorised but could not be applied (e.g. privilege grant for
    /// a tag the authority does not own).
    Failed {
        /// Why.
        reason: String,
    },
}

impl ControlOutcome {
    /// Whether the operation was applied.
    pub fn is_applied(&self) -> bool {
        matches!(self, ControlOutcome::Applied)
    }
}

impl fmt::Display for ControlOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlOutcome::Applied => write!(f, "applied"),
            ControlOutcome::Unauthorised { reason } => write!(f, "unauthorised: {reason}"),
            ControlOutcome::UnknownTarget => write!(f, "unknown target"),
            ControlOutcome::Failed { reason } => write!(f, "failed: {reason}"),
        }
    }
}

/// What an applied step leaves its driver to do outside the target component.
#[derive(Debug, Clone, Copy)]
pub enum ControlDelta<'a> {
    /// The target's context or isolation changed: open channels are judged again.
    Relabelled,
    /// Establish the channel `target → to` through the driver's admission.
    Connect {
        /// The destination.
        to: &'a str,
    },
    /// Tear down the channel `target → to`, if there is one.
    Disconnect {
        /// The destination.
        to: &'a str,
    },
    /// Hand `command` to the target device.
    Actuate {
        /// The actuation command.
        command: &'a str,
    },
}

/// One control step as [`reconfigure`] decided it.
#[derive(Debug)]
pub struct Reconfiguration<'a> {
    issuer: &'a str,
    step: &'a Action,
    /// The outcome; a driver that cannot apply the delta makes it `Failed`.
    pub outcome: ControlOutcome,
    /// What the driver applies outside the component, if anything.
    pub delta: Option<ControlDelta<'a>>,
}

impl Reconfiguration<'_> {
    /// Settles a [`ControlDelta::Connect`] with the driver's admission of the channel:
    /// the step fails unless the channel was admitted.
    pub fn connected(&mut self, admission: Result<DeliveryOutcome, impl fmt::Display>) {
        let reason = match admission {
            Ok(outcome) if outcome.is_delivered() => return,
            Ok(other) => format!("channel establishment refused: {other:?}"),
            Err(e) => e.to_string(),
        };
        self.outcome = ControlOutcome::Failed { reason };
    }

    /// The step's one `Reconfigured` record — its action spelt as [`Action`] spells
    /// it, accepted iff the outcome is `Applied`. Written after the driver's delta.
    pub fn evidence(&self) -> AuditEvent {
        AuditEvent::Reconfigured {
            component: self.step.target().expect("a control step is addressed").to_string(),
            issued_by: self.issuer.to_string(),
            action: self.step.to_string(),
            accepted: self.outcome.is_applied(),
        }
    }
}

/// The addressed steps of an action, in order: a `RouteVia` is three (connect
/// `from → via` and `via → to`, disconnect `from → to`), `Notify`, `AllowFlow` and
/// `DenyFlow` none, and any other action itself.
pub fn control_steps(action: &Action) -> Vec<Action> {
    match action {
        Action::Notify { .. } | Action::AllowFlow { .. } | Action::DenyFlow { .. } => Vec::new(),
        Action::RouteVia { from, via, to } => vec![
            Action::Connect { from: from.clone(), to: via.clone() },
            Action::Connect { from: via.clone(), to: to.clone() },
            Action::Disconnect { from: from.clone(), to: to.clone() },
        ],
        step => vec![step.clone()],
    }
}

/// One step of a control message on its `target` (`None`: not registered): unknown
/// target, then authorisation, then the change inside the component. `access` asks
/// "may the issuer, as this principal (no role), `Reconfigure` the target?", `None`
/// for the engine's own change; `ownership` asks, for a privilege grant, whether the
/// issuer may delegate privileges over the tag (§6 Tag Ownership). What reaches past
/// the component is the delta.
pub fn reconfigure<'a>(
    target: Option<&mut Component>,
    issuer: &'a str,
    step: &'a Action,
    access: impl FnOnce(&Principal) -> Option<AccessDecision>,
    ownership: impl FnOnce(&Tag) -> Result<(), IfcError>,
) -> Reconfiguration<'a> {
    let settled = |outcome, delta| Reconfiguration { issuer, step, outcome, delta };
    let Some(component) = target else { return settled(ControlOutcome::UnknownTarget, None) };
    let principal = Principal::new(issuer);
    if let Some(AccessDecision::Denied { cause }) = access(&principal) {
        let reason = cause.reason(component.name(), &principal, Operation::Reconfigure);
        return settled(ControlOutcome::Unauthorised { reason }, None);
    }
    let delta = match step {
        Action::SetSecurityContext { context, .. } => {
            component.entity_mut().set_context_trusted(context.clone());
            Some(ControlDelta::Relabelled)
        }
        Action::AddTag { tag, secrecy, .. } | Action::RemoveTag { tag, secrecy, .. } => {
            let mut context = component.context().clone();
            let label = if *secrecy { context.secrecy_mut() } else { context.integrity_mut() };
            match step {
                Action::AddTag { .. } => label.insert(tag.clone()),
                _ => label.remove(tag),
            };
            component.entity_mut().set_context_trusted(context);
            Some(ControlDelta::Relabelled)
        }
        Action::GrantPrivilege { privilege, .. } => {
            if let Err(e) = ownership(&privilege.tag) {
                return settled(ControlOutcome::Failed { reason: e.to_string() }, None);
            }
            component.entity_mut().privileges_mut().grant(privilege.tag.clone(), privilege.kind);
            None
        }
        Action::RevokePrivilege { privilege, .. } => {
            component.entity_mut().privileges_mut().revoke(&privilege.tag, privilege.kind);
            None
        }
        Action::Isolate { .. } | Action::Deisolate { .. } => {
            component.set_isolated(matches!(step, Action::Isolate { .. }));
            Some(ControlDelta::Relabelled)
        }
        Action::Connect { to, .. } => Some(ControlDelta::Connect { to }),
        Action::Disconnect { to, .. } => Some(ControlDelta::Disconnect { to }),
        Action::Actuate { command, .. } => Some(ControlDelta::Actuate { command }),
        Action::AllowFlow { .. }
        | Action::DenyFlow { .. }
        | Action::RouteVia { .. }
        | Action::Notify { .. } => unreachable!("`control_steps` expands {step}"),
    };
    settled(ControlOutcome::Applied, delta)
}

/// A stateless pass-through to [`AccessRegime::decide`], kept because `benchmark/`
/// names it: every call asks the regime, so it never answers from an earlier question.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionCache;

impl AdmissionCache {
    /// Creates the pass-through.
    pub fn new() -> Self {
        AdmissionCache
    }

    /// Does nothing: there is no change feed to follow.
    pub fn attach(&mut self, _store: &ContextStore) {}

    /// Does nothing: [`Self::attach`] took no subscription.
    pub fn detach(&mut self, _store: &ContextStore) {}

    /// Returns 0: nothing is held, so nothing is dropped.
    pub fn sync(&mut self, _store: &ContextStore, _access: &AccessRegime) -> usize {
        0
    }

    /// `(access.decide(..), false)`: the question asked now, never a hit.
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
        (access.decide(component, principal, operation, message_type, snapshot, now), false)
    }
}

/// [`admit_channel`]; the [`AdmissionCache`] is not consulted.
pub fn admit_channel_cached(
    source: &Component,
    destination: &Component,
    access: &AccessRegime,
    snapshot: &ContextSnapshot,
    now: Timestamp,
    _cache: &mut AdmissionCache,
) -> DeliveryOutcome {
    admit_channel(source, destination, access, snapshot, now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::{AccessRule, Principal, Subject};
    use legaliot_audit::{AuditLog, BatchedAppender};
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
    /// again through the `AdmissionCache` + `DecisionCache` pass-throughs, which answer
    /// the question asked now: `admit_channel_cached` is `admit_channel` on every row,
    /// and `AdmissionCache::decide` is the regime's after an unsynced key write and at
    /// two times under a time window.
    #[test]
    fn enforce_orders_the_steps_joins_message_secrecy_and_ignores_who_answers() {
        use legaliot_context::ContextStore;
        use legaliot_ifc::{context_hash64, DecisionCache};
        use legaliot_policy::Condition;

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

            let cached_admission =
                admit_channel_cached(&src, &dst, &access, &snapshot, NOW, &mut ac_cache);
            let admission = admit_channel(&src, &dst, &access, &snapshot, NOW);
            assert_eq!(cached_admission, admission, "{}", case.why);

            // Direct, then twice through the pass-throughs: one verdict. The send
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

                // The one evidence record names the message, or nothing for a channel.
                // Appended to a trail, recorded borrowed and recorded as the owned event
                // built by hand, it is the same record.
                if let Verdict::Flow(flow) = verdict {
                    let named = message_type.map(|_| format!("reading@{at_millis}"));
                    let context = |secrecy: &[&str], integrity: &[&str]| {
                        SecurityContext::from_names(secrecy.to_vec(), integrity.to_vec())
                    };
                    let source_context = context(case.effective_secrecy, case.source.1);
                    let destination_context = context(case.destination.0, case.destination.1);
                    let owned = AuditEvent::FlowChecked {
                        source: "src".into(),
                        destination: "dst".into(),
                        decision: can_flow(&source_context, &destination_context),
                        source_context,
                        destination_context,
                        data_item: named.clone(),
                    };
                    let mut trail = BatchedAppender::new("n", 8);
                    trail.append_flow_checked(&flow.evidence(at_millis), at_millis);
                    let mut borrowed = AuditLog::new("n");
                    borrowed.record_flow_checked(&flow.evidence(at_millis), at_millis);
                    let mut built = AuditLog::new("n");
                    built.record(owned, at_millis);
                    assert_eq!(trail.close(), built, "{}", case.why);
                    assert_eq!(borrowed, built, "{}", case.why);
                    // Read before the append, the borrowed record joins the view built.
                    let mut viewed = AuditLog::new("n");
                    assert!(viewed.records().is_empty());
                    viewed.record_flow_checked(&flow.evidence(at_millis), at_millis);
                    assert_eq!(viewed.records(), built.records(), "{}", case.why);
                    match &borrowed.records()[0].event {
                        AuditEvent::FlowChecked { source, destination, data_item, .. } => {
                            assert_eq!((source.as_str(), destination.as_str()), ("src", "dst"));
                            assert_eq!(data_item, &named, "{}", case.why);
                        }
                        other => panic!("{}: not a flow check: {other:?}", case.why),
                    }
                }
            }
            ac_cache.detach(&store);
        }

        let mut access = AccessRegime::new();
        let send = AccessRule::allow(Subject::Anyone, Operation::Send, None);
        access.add_rule("keyed", send.clone().when(Condition::is_true("emergency.active")));
        access.add_rule("timed", send.when(Condition::within_time(0, 10)));
        let owner = Principal::new("owner");
        let mut ac_cache = AdmissionCache::new();
        ac_cache.attach(&store);
        let mut ask = |component: &str, snapshot: &ContextSnapshot, now: Timestamp| {
            let send = Operation::Send;
            let direct = access.decide(component, &owner, send, None, snapshot, now);
            let passed = ac_cache.decide(&access, component, &owner, send, None, snapshot, now);
            assert_eq!(passed, (direct, false), "{component} at {now:?}");
            direct.is_allowed()
        };
        assert!(!ask("keyed", &store.snapshot(), NOW));
        store.set("emergency.active", true, Timestamp(2));
        assert!(ask("keyed", &store.snapshot(), NOW), "a key write needs no sync");
        assert!(ask("timed", &snapshot, Timestamp(5)));
        assert!(!ask("timed", &snapshot, Timestamp(50)), "the window closed");
        ac_cache.detach(&store);
    }
}
