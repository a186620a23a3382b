//! The model-based enforcement oracle.
//!
//! [`FleetModel`] is a slow, obviously-correct reference interpreter for the
//! fleet IR: plain `BTreeMap`s and string sets, no caches, no sharding, no
//! engine types on the decision path. Walking a [`Fleet`]'s script through it
//! yields a [`Prediction`] of exactly which subscriber must observe which
//! post-quench message — what `tests/fleet_conformance.rs` differentially
//! checks the dataplane against.
//!
//! The model mirrors the engine's documented per-delivery sequence: current
//! directory state → isolation (either side) → per-message access control on
//! the destination's rules (default-deny, deny-overrides) → IFC over the
//! effective source context (sender secrecy joined with message-level tags;
//! integrity from the sender alone) → per-attribute source quenching against
//! the destination's secrecy. Admission at subscribe time runs the same
//! sequence minus quenching.
//!
//! It also predicts the evidence a run under `AuditDetail::Summarised` leaves,
//! record for record ([`PairTrail`]): the engine's rule for which checks are written
//! in full depends on the message stream alone, so the model replays that rule
//! over the same deliveries.

use std::collections::{BTreeMap, BTreeSet};

use legaliot_middleware::Message;

use crate::spec::{
    ControlEvent, Deployment, Fleet, KeyValue, PublishSpec, RuleSpec, SchemaSpec, SubjectSpec,
};

/// An endpoint's current state in the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointState {
    /// Secrecy tags currently held.
    pub secrecy: BTreeSet<String>,
    /// Integrity tags currently held.
    pub integrity: BTreeSet<String>,
    /// Whether the endpoint is isolated.
    pub isolated: bool,
    /// The owning principal's name.
    pub owner: String,
}

/// Why (or that) an edge was admitted at subscribe time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// Admission checks passed; the subscription is established.
    Admitted,
    /// One side was isolated.
    Isolated,
    /// Refused by access control.
    DeniedByAccessControl,
    /// Refused by information-flow control.
    DeniedByIfc,
}

impl AdmissionOutcome {
    /// Whether the edge was established.
    pub fn admitted(self) -> bool {
        self == AdmissionOutcome::Admitted
    }
}

/// The predicted fate of one fan-out delivery.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictedOutcome {
    /// Delivered: the exact post-quench message the subscriber must observe
    /// (sender and send time stamped, quenched attributes absent).
    Delivered(Box<Message>),
    /// Denied by isolation, access control or IFC.
    Denied,
}

/// The Summarised-mode evidence of one `(source, destination)` pair: what its shard's
/// trail holds about the pair, in order. A `FlowChecked` is written in full when the
/// check is denied, or when it is the pair's first allowed check of its message type
/// under the (effective source, destination) contexts in force; a `MessageQuenched`
/// beside each allowed one written in full whose quench removed something; and one
/// `FlowSummary` at shutdown totals every delivery the pair saw.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairTrail {
    /// Send time of every `FlowChecked` written in full.
    pub flow_checked: Vec<u64>,
    /// Send time and quenched attribute names (in name order) of every
    /// `MessageQuenched`.
    pub quenched: Vec<(u64, Vec<String>)>,
    /// The `FlowSummary` counts: IFC-allowed deliveries, and every denial
    /// (isolation, access control and IFC alike).
    pub allowed: u64,
    /// See [`Self::allowed`].
    pub denied: u64,
    /// The `FlowSummary` window: the first and last counted delivery's send time.
    pub window: (u64, u64),
}

impl PairTrail {
    /// Counts one delivery sent at `at_millis` into the summary.
    pub(crate) fn count(&mut self, allowed: bool, at_millis: u64) {
        if self.allowed + self.denied == 0 {
            self.window.0 = at_millis;
        }
        if allowed {
            self.allowed += 1;
        } else {
            self.denied += 1;
        }
        self.window.1 = at_millis;
    }
}

/// The contexts a check was judged under: effective source secrecy and integrity,
/// then the destination's.
type JudgedContexts = [BTreeSet<String>; 4];

/// What the model decides about one delivery, with what its evidence needs.
enum Judgement {
    /// Stopped by isolation or access control: no flow check ran.
    Refused,
    /// Stopped by IFC.
    FlowDenied,
    /// Delivered: the post-quench message, the contexts it was judged under and the
    /// quenched attribute names.
    Delivered { message: Box<Message>, contexts: JudgedContexts, quenched: Vec<String> },
}

impl Judgement {
    fn outcome(self) -> PredictedOutcome {
        match self {
            Judgement::Delivered { message, .. } => PredictedOutcome::Delivered(message),
            Judgement::Refused | Judgement::FlowDenied => PredictedOutcome::Denied,
        }
    }
}

/// What the oracle expects of a run.
#[derive(Debug, Clone, Default)]
pub struct Prediction {
    /// Per subscribe attempt, in script order: `(publisher, subscriber, outcome)`.
    pub admissions: Vec<(String, String, AdmissionOutcome)>,
    /// Every fan-out delivery, keyed `(from, to, at_millis)`.
    pub outcomes: BTreeMap<(String, String, u64), PredictedOutcome>,
    /// Expected `published` counter (== `outcomes.len()`).
    pub published: u64,
    /// Expected `delivered` counter in a fault-free run.
    pub delivered: u64,
    /// Expected `denied` counter in a fault-free run.
    pub denied: u64,
    /// The Summarised-mode shard evidence of a fault-free run, per
    /// `(source, destination)` pair that saw a delivery.
    pub trail: BTreeMap<(String, String), PairTrail>,
}

/// The reference interpreter.
#[derive(Debug, Clone, Default)]
pub struct FleetModel {
    /// Endpoint name → current state. Departed endpoints are removed.
    pub endpoints: BTreeMap<String, EndpointState>,
    /// Publisher → admitted subscribers, in admission order, deduplicated.
    pub subscriptions: BTreeMap<String, Vec<String>>,
    /// Component → its access rules, in installation order.
    pub rules: BTreeMap<String, Vec<RuleSpec>>,
    /// Context keys.
    pub keys: BTreeMap<String, KeyValue>,
    /// Message type → schema.
    pub schemas: BTreeMap<String, SchemaSpec>,
}

impl FleetModel {
    /// An empty model.
    pub fn new() -> Self {
        FleetModel::default()
    }

    /// Installs a deployment: endpoints, schemas, rules, keys, then its edges
    /// in order. Returns the admission outcome of every edge.
    pub fn install(&mut self, deployment: &Deployment) -> Vec<(String, String, AdmissionOutcome)> {
        for thing in &deployment.things {
            self.endpoints.insert(
                thing.name.clone(),
                EndpointState {
                    secrecy: thing.secrecy.iter().cloned().collect(),
                    integrity: thing.integrity.iter().cloned().collect(),
                    isolated: false,
                    owner: thing.owner.clone(),
                },
            );
        }
        for schema in &deployment.schemas {
            self.schemas.insert(schema.message_type.clone(), schema.clone());
        }
        for rule in &deployment.rules {
            self.rules.entry(rule.component.clone()).or_default().push(rule.clone());
        }
        for (key, value) in &deployment.initial_keys {
            self.keys.insert(key.clone(), *value);
        }
        deployment
            .edges
            .iter()
            .map(|(from, to)| (from.clone(), to.clone(), self.subscribe(from, to)))
            .collect()
    }

    /// Runs the admission sequence for `subscriber ← publisher` and records the
    /// subscription when admitted (idempotently, preserving first-admission
    /// order, as the engine does).
    pub fn subscribe(&mut self, publisher: &str, subscriber: &str) -> AdmissionOutcome {
        let outcome = self.admit(publisher, subscriber);
        if outcome.admitted() {
            let subs = self.subscriptions.entry(publisher.to_string()).or_default();
            if !subs.iter().any(|existing| existing == subscriber) {
                subs.push(subscriber.to_string());
            }
        }
        outcome
    }

    /// The admission decision for `subscriber ← publisher` against current
    /// state: isolation → access control (message type unconstrained) → IFC.
    pub fn admit(&self, publisher: &str, subscriber: &str) -> AdmissionOutcome {
        let (Some(src), Some(dst)) =
            (self.endpoints.get(publisher), self.endpoints.get(subscriber))
        else {
            // The harness only scripts subscriptions between registered
            // endpoints; a missing one here is a generator bug.
            return AdmissionOutcome::DeniedByAccessControl;
        };
        if src.isolated || dst.isolated {
            return AdmissionOutcome::Isolated;
        }
        if !self.access_allows(subscriber, &src.owner) {
            return AdmissionOutcome::DeniedByAccessControl;
        }
        if !(src.secrecy.is_subset(&dst.secrecy) && dst.integrity.is_subset(&src.integrity)) {
            return AdmissionOutcome::DeniedByIfc;
        }
        AdmissionOutcome::Admitted
    }

    /// The destination component's access decision for a send by `principal`:
    /// no rules for the component → denied; any applicable deny → denied; else
    /// allowed iff some allow rule applies. Generated rules never constrain the
    /// message type, so subscribe-time and per-message decisions coincide.
    fn access_allows(&self, component: &str, principal: &str) -> bool {
        let Some(rules) = self.rules.get(component) else {
            return false;
        };
        let mut allowed = false;
        for rule in rules {
            let subject_matches = match &rule.subject {
                SubjectSpec::Anyone => true,
                SubjectSpec::Principal(name) => name == principal,
            };
            if subject_matches && rule.condition.eval(&self.keys) {
                if !rule.allow {
                    return false;
                }
                allowed = true;
            }
        }
        allowed
    }

    /// Applies one control event.
    pub fn apply(&mut self, event: &ControlEvent) -> Vec<(String, String, AdmissionOutcome)> {
        match event {
            ControlEvent::SetKey { key, value } => {
                self.keys.insert(key.clone(), *value);
                Vec::new()
            }
            ControlEvent::SetContext { endpoint, secrecy, integrity } => {
                if let Some(state) = self.endpoints.get_mut(endpoint) {
                    state.secrecy = secrecy.iter().cloned().collect();
                    state.integrity = integrity.iter().cloned().collect();
                }
                Vec::new()
            }
            ControlEvent::SetIsolated { endpoint, isolated } => {
                if let Some(state) = self.endpoints.get_mut(endpoint) {
                    state.isolated = *isolated;
                }
                Vec::new()
            }
            ControlEvent::AddRule(rule) => {
                self.rules.entry(rule.component.clone()).or_default().push(rule.clone());
                Vec::new()
            }
            ControlEvent::Join { thing, edges } => {
                self.endpoints.insert(
                    thing.name.clone(),
                    EndpointState {
                        secrecy: thing.secrecy.iter().cloned().collect(),
                        integrity: thing.integrity.iter().cloned().collect(),
                        isolated: false,
                        owner: thing.owner.clone(),
                    },
                );
                edges
                    .iter()
                    .map(|(from, to)| (from.clone(), to.clone(), self.subscribe(from, to)))
                    .collect()
            }
            ControlEvent::Leave { endpoint } => {
                self.endpoints.remove(endpoint);
                self.subscriptions.remove(endpoint);
                for subs in self.subscriptions.values_mut() {
                    subs.retain(|sub| sub != endpoint);
                }
                Vec::new()
            }
        }
    }

    /// Judges every fan-out delivery of one publish against current state, in
    /// subscriber order, with what each delivery's evidence needs.
    fn judge(&self, publish: &PublishSpec) -> Vec<(String, Judgement)> {
        let Some(subs) = self.subscriptions.get(&publish.publisher) else {
            return Vec::new();
        };
        let Some(src) = self.endpoints.get(&publish.publisher) else {
            return Vec::new();
        };
        let schema = self
            .schemas
            .get(&publish.message_type)
            .unwrap_or_else(|| panic!("schema for `{}` must exist", publish.message_type));
        subs.iter().map(|sub| (sub.clone(), self.judge_one(publish, schema, src, sub))).collect()
    }

    fn judge_one(
        &self,
        publish: &PublishSpec,
        schema: &SchemaSpec,
        src: &EndpointState,
        subscriber: &str,
    ) -> Judgement {
        let Some(dst) = self.endpoints.get(subscriber) else {
            // Subscriptions to departed endpoints are removed with the
            // endpoint, so this cannot happen under the round barrier.
            return Judgement::Refused;
        };
        if src.isolated || dst.isolated {
            return Judgement::Refused;
        }
        if !self.access_allows(subscriber, &src.owner) {
            return Judgement::Refused;
        }
        // Effective source context: sender secrecy joined with message-level
        // tags; integrity comes from the sender alone.
        let mut effective_secrecy = src.secrecy.clone();
        effective_secrecy.extend(publish.extra_secrecy.iter().cloned());
        if !(effective_secrecy.is_subset(&dst.secrecy) && dst.integrity.is_subset(&src.integrity)) {
            return Judgement::FlowDenied;
        }
        // Quench: drop every attribute whose extra tags the destination does
        // not hold in full.
        let mut quenched: Vec<String> = schema
            .attrs
            .iter()
            .filter(|attr| {
                !attr.secrecy.is_empty()
                    && !attr.secrecy.iter().all(|tag| dst.secrecy.contains(tag))
            })
            .map(|attr| attr.name.clone())
            .collect();
        quenched.sort();
        let mut message = publish.message(schema).quenched(&quenched);
        message.sender = publish.publisher.clone();
        message.sent_at_millis = publish.at_millis;
        let contexts =
            [effective_secrecy, src.integrity.clone(), dst.secrecy.clone(), dst.integrity.clone()];
        Judgement::Delivered { message: Box::new(message), contexts, quenched }
    }
}

/// Walks a whole fleet script through a fresh model.
pub fn predict(fleet: &Fleet) -> Prediction {
    let mut model = FleetModel::new();
    let mut prediction = Prediction::default();
    // Per (source, destination, message type): the contexts of the last allowed check
    // written in full.
    let mut evidenced: BTreeMap<(String, String, String), JudgedContexts> = BTreeMap::new();
    for deployment in &fleet.deployments {
        prediction.admissions.extend(model.install(deployment));
    }
    for round in &fleet.rounds {
        for (_, event) in &round.events {
            prediction.admissions.extend(model.apply(event));
        }
        for publish in &round.publishes {
            let at = publish.at_millis;
            for (subscriber, judgement) in model.judge(publish) {
                let pair = (publish.publisher.clone(), subscriber);
                let trail = prediction.trail.entry(pair.clone()).or_default();
                let allowed = matches!(judgement, Judgement::Delivered { .. });
                trail.count(allowed, at);
                match &judgement {
                    Judgement::Refused => {}
                    Judgement::FlowDenied => trail.flow_checked.push(at),
                    Judgement::Delivered { contexts, quenched, .. } => {
                        let (from, to) = pair.clone();
                        let held = (from, to, publish.message_type.clone());
                        if evidenced.get(&held) != Some(contexts) {
                            trail.flow_checked.push(at);
                            if !quenched.is_empty() {
                                trail.quenched.push((at, quenched.clone()));
                            }
                            evidenced.insert(held, contexts.clone());
                        }
                    }
                }
                let outcome = judgement.outcome();
                prediction.published += 1;
                if allowed {
                    prediction.delivered += 1;
                } else {
                    prediction.denied += 1;
                }
                let key = (pair.0, pair.1, at);
                let previous = prediction.outcomes.insert(key.clone(), outcome);
                assert!(previous.is_none(), "delivery key {key:?} must be unique (global clock)");
            }
        }
    }
    prediction
}
