//! The seeded fleet generator.
//!
//! Everything — device populations, labels, schemas, policies, the churn and
//! publish script — is a pure function of [`FleetConfig`]: the same seed
//! regenerates an equal fleet (`Fleet` compares by value, field for field),
//! which is how conformance failures are reproduced from the seed printed in
//! the assertion message.

use std::collections::BTreeMap;

use legaliot_iot::{catalog, DeviceArchetype, ThingKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{
    AttrSpec, CondSpec, ControlEvent, Deployment, Fleet, FleetConfig, KeyValue, PublishSpec, Round,
    RuleSpec, SchemaSpec, SubjectSpec, ThingSpec,
};
use legaliot_middleware::AttributeKind;

/// Mutable generation state for one deployment while the script is written.
struct DeploymentState {
    name: String,
    /// Alive publishers: `(endpoint, message type, owner)`.
    devices: Vec<(String, String, String)>,
    /// Consumers: `(endpoint, secrecy, integrity)` — contexts tracked so
    /// `SetContext` events can vary secrecy while preserving integrity.
    consumers: Vec<(String, Vec<String>, Vec<String>)>,
    /// Message types with registered schemas (what joiners may produce).
    message_types: Vec<String>,
    /// Endpoints ever scripted to leave (never deregistered twice).
    departed: Vec<String>,
    /// Current isolation states, for toggling.
    isolated: BTreeMap<String, bool>,
    lockdown: bool,
    break_glass: bool,
    quarantine: bool,
    owners: [String; 2],
}

fn base_tag(d: &str) -> String {
    format!("{d}.data")
}
fn pii_tag(d: &str) -> String {
    format!("{d}.pii")
}
fn trusted_tag(d: &str) -> String {
    format!("{d}.trusted")
}
fn certified_tag(d: &str) -> String {
    format!("{d}.certified")
}

/// Generates a fleet from the knobs. Deterministic: one seeded RNG stream
/// drives every draw in a fixed order.
pub fn generate(config: FleetConfig) -> Fleet {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut deployments = Vec::with_capacity(config.deployments);
    let mut states = Vec::with_capacity(config.deployments);
    for index in 0..config.deployments {
        let (deployment, state) = generate_deployment(index, &mut rng);
        deployments.push(deployment);
        states.push(state);
    }
    // A single global clock makes every `(from, to, at_millis)` delivery key
    // unique across the whole run.
    let mut clock = 1_000u64;
    let rounds = (0..config.rounds.max(1))
        .map(|round| generate_round(round, &mut states, &mut clock, &mut rng))
        .collect();
    Fleet { config, deployments, rounds }
}

fn generate_deployment(index: usize, rng: &mut StdRng) -> (Deployment, DeploymentState) {
    let profile = catalog::PROFILES[index % catalog::PROFILES.len()];
    let d = format!("d{index:04}");
    let owners = [format!("{d}-op"), format!("{d}-guest")];
    let base = base_tag(&d);
    let pii = pii_tag(&d);
    let trusted = trusted_tag(&d);
    let certified = certified_tag(&d);
    let node = format!("{d}-node");

    let mut things = Vec::new();
    let mut schemas = Vec::new();
    let mut devices = Vec::new();

    // Devices: each archetype included with probability 0.75, at least two.
    let mut picks: Vec<&DeviceArchetype> =
        profile.devices.iter().filter(|_| rng.gen_bool(0.75)).collect();
    if picks.len() < 2 {
        picks = profile.devices.iter().take(2).collect();
    }
    for archetype in picks {
        let name = format!("{d}-{}", archetype.stem);
        let message_type = format!("{d}.{}", archetype.message_stem);
        let owner = if rng.gen_bool(0.3) { owners[1].clone() } else { owners[0].clone() };
        things.push(ThingSpec {
            name: name.clone(),
            kind: archetype.kind,
            owner: owner.clone(),
            node: node.clone(),
            secrecy: vec![base.clone()],
            integrity: vec![trusted.clone()],
            produces: vec![message_type.clone()],
        });
        let mut attrs = vec![
            AttrSpec { name: "value".into(), kind: AttributeKind::Float, secrecy: vec![] },
            AttrSpec { name: "unit".into(), kind: AttributeKind::Text, secrecy: vec![] },
            AttrSpec {
                name: "subject-id".into(),
                kind: AttributeKind::Text,
                secrecy: vec![pii.clone()],
            },
        ];
        if rng.gen_bool(0.4) {
            let kind = match rng.gen_range(0u32..3) {
                0 => AttributeKind::Text,
                1 => AttributeKind::Integer,
                _ => AttributeKind::Bool,
            };
            let secrecy = if rng.gen_bool(0.5) { vec![pii.clone()] } else { vec![] };
            attrs.push(AttrSpec { name: "detail".into(), kind, secrecy });
        }
        schemas.push(SchemaSpec { message_type: message_type.clone(), attrs });
        devices.push((name, message_type, owner));
    }

    // Consumers: first hub always, the rest with probability 0.6, plus the
    // optional archive (holds everything) and auditor (requires an integrity
    // tag no device holds, so its edges are IFC-refused at admission).
    let mut consumers = Vec::new();
    for (slot, archetype) in profile.hubs.iter().enumerate() {
        if slot > 0 && !rng.gen_bool(0.6) {
            continue;
        }
        let name = format!("{d}-{}", archetype.stem);
        let mut secrecy = vec![base.clone()];
        if rng.gen_bool(0.5) {
            secrecy.push(pii.clone());
        }
        let integrity = if rng.gen_bool(0.4) { vec![trusted.clone()] } else { vec![] };
        things.push(ThingSpec {
            name: name.clone(),
            kind: archetype.kind,
            owner: owners[0].clone(),
            node: node.clone(),
            secrecy: secrecy.clone(),
            integrity: integrity.clone(),
            produces: vec![],
        });
        consumers.push((name, secrecy, integrity));
    }
    if rng.gen_bool(0.3) {
        let name = format!("{d}-archive");
        let secrecy = vec![base.clone(), pii.clone()];
        things.push(ThingSpec {
            name: name.clone(),
            kind: ThingKind::CloudService,
            owner: owners[0].clone(),
            node: node.clone(),
            secrecy: secrecy.clone(),
            integrity: vec![],
            produces: vec![],
        });
        consumers.push((name, secrecy, vec![]));
    }
    if rng.gen_bool(0.25) {
        let name = format!("{d}-auditor");
        let secrecy = vec![base.clone(), pii.clone()];
        let integrity = vec![certified.clone(), trusted.clone()];
        things.push(ThingSpec {
            name: name.clone(),
            kind: ThingKind::Application,
            owner: owners[0].clone(),
            node: node.clone(),
            secrecy: secrecy.clone(),
            integrity: integrity.clone(),
            produces: vec![],
        });
        consumers.push((name, secrecy, integrity));
    }

    // Edges: every device feeds each consumer with probability 0.7, and at
    // least its first consumer, so no publisher is generated dead.
    let mut edges = Vec::new();
    for (device, _, _) in &devices {
        let mut wired = false;
        for (consumer, _, _) in &consumers {
            if rng.gen_bool(0.7) {
                edges.push((device.clone(), consumer.clone()));
                wired = true;
            }
        }
        if !wired {
            edges.push((device.clone(), consumers[0].0.clone()));
        }
    }

    // Context keys and the policies that read them.
    let lockdown_key = format!("{d}.lockdown");
    let break_glass_key = format!("{d}.break-glass");
    let quarantine_key = format!("{d}.quarantine");
    let load_key = format!("{d}.load");
    let mut initial_keys = BTreeMap::new();
    initial_keys.insert(lockdown_key.clone(), KeyValue::Bool(false));
    initial_keys.insert(break_glass_key.clone(), KeyValue::Bool(false));
    initial_keys.insert(quarantine_key.clone(), KeyValue::Bool(false));
    initial_keys.insert(load_key.clone(), KeyValue::Number(rng.gen_range(10u32..90) as f64));

    let mut rules = Vec::new();
    for (consumer, _, _) in &consumers {
        let subject = if rng.gen_bool(0.8) {
            SubjectSpec::Anyone
        } else {
            SubjectSpec::Principal(owners[0].clone())
        };
        let condition = match rng.gen_range(0u32..4) {
            0 => CondSpec::Always,
            1 => CondSpec::IsFalse(lockdown_key.clone()),
            2 => CondSpec::AnyOf(vec![
                CondSpec::IsFalse(lockdown_key.clone()),
                CondSpec::IsTrue(break_glass_key.clone()),
            ]),
            _ => CondSpec::NumberBelow(load_key.clone(), 100.0),
        };
        rules.push(RuleSpec { component: consumer.clone(), subject, allow: true, condition });
        if rng.gen_bool(0.25) {
            rules.push(RuleSpec {
                component: consumer.clone(),
                subject: SubjectSpec::Principal(owners[1].clone()),
                allow: false,
                condition: CondSpec::IsTrue(quarantine_key.clone()),
            });
        }
    }

    let message_types = schemas.iter().map(|s| s.message_type.clone()).collect();
    let deployment = Deployment {
        name: d.clone(),
        kind: profile.kind,
        things,
        schemas,
        edges,
        rules,
        initial_keys,
        secrecy_universe: vec![base, pii],
        integrity_universe: vec![trusted, certified],
    };
    let state = DeploymentState {
        name: d,
        devices,
        consumers,
        message_types,
        departed: Vec::new(),
        isolated: BTreeMap::new(),
        lockdown: false,
        break_glass: false,
        quarantine: false,
        owners,
    };
    (deployment, state)
}

fn generate_round(
    round: usize,
    states: &mut [DeploymentState],
    clock: &mut u64,
    rng: &mut StdRng,
) -> Round {
    let mut events = Vec::new();
    if round > 0 {
        for state in states.iter_mut() {
            churn_deployment(round, state, clock, rng, &mut events);
        }
    }
    let mut publishes = Vec::new();
    for state in states.iter() {
        for (device, message_type, _) in &state.devices {
            if !rng.gen_bool(0.7) {
                continue;
            }
            let at_millis = *clock;
            *clock += 1;
            let extra_secrecy =
                if rng.gen_bool(0.15) { vec![pii_tag(&state.name)] } else { Vec::new() };
            publishes.push(PublishSpec {
                publisher: device.clone(),
                message_type: message_type.clone(),
                at_millis,
                value: rng.gen_range(0u32..1000) as f64 / 10.0,
                subject_id: rng.gen_range(0u64..10_000),
                extra_secrecy,
            });
        }
    }
    Round { events, publishes }
}

fn churn_deployment(
    round: usize,
    state: &mut DeploymentState,
    clock: &mut u64,
    rng: &mut StdRng,
    events: &mut Vec<(u64, ControlEvent)>,
) {
    let d = state.name.clone();
    let mut push = |clock: &mut u64, event: ControlEvent| {
        let at = *clock;
        *clock += 1;
        events.push((at, event));
    };

    if rng.gen_bool(0.10) {
        state.lockdown = !state.lockdown;
        push(
            clock,
            ControlEvent::SetKey {
                key: format!("{d}.lockdown"),
                value: KeyValue::Bool(state.lockdown),
            },
        );
    }
    if rng.gen_bool(0.06) {
        state.break_glass = !state.break_glass;
        push(
            clock,
            ControlEvent::SetKey {
                key: format!("{d}.break-glass"),
                value: KeyValue::Bool(state.break_glass),
            },
        );
    }
    if rng.gen_bool(0.10) {
        push(
            clock,
            ControlEvent::SetKey {
                key: format!("{d}.load"),
                value: KeyValue::Number(rng.gen_range(40u32..160) as f64),
            },
        );
    }
    if rng.gen_bool(0.06) {
        state.quarantine = !state.quarantine;
        push(
            clock,
            ControlEvent::SetKey {
                key: format!("{d}.quarantine"),
                value: KeyValue::Bool(state.quarantine),
            },
        );
    }
    // Device context flips: gain pii (denied to consumers not holding it),
    // drop the trusted integrity tag (denied to consumers requiring it), or
    // restore the initial labels.
    if rng.gen_bool(0.08) && !state.devices.is_empty() {
        let (device, _, _) = &state.devices[rng.gen_range(0..state.devices.len())];
        let (secrecy, integrity) = match rng.gen_range(0u32..3) {
            0 => (vec![base_tag(&d), pii_tag(&d)], vec![trusted_tag(&d)]),
            1 => (vec![base_tag(&d)], vec![]),
            _ => (vec![base_tag(&d)], vec![trusted_tag(&d)]),
        };
        push(clock, ControlEvent::SetContext { endpoint: device.clone(), secrecy, integrity });
    }
    // Consumer secrecy flips (integrity preserved): gaining/losing pii changes
    // what gets quenched and whether pii-tagged messages flow at all.
    if rng.gen_bool(0.06) && !state.consumers.is_empty() {
        let slot = rng.gen_range(0..state.consumers.len());
        let has_pii = state.consumers[slot].1.iter().any(|tag| tag == &pii_tag(&d));
        let secrecy = if has_pii { vec![base_tag(&d)] } else { vec![base_tag(&d), pii_tag(&d)] };
        state.consumers[slot].1 = secrecy.clone();
        let integrity = state.consumers[slot].2.clone();
        push(
            clock,
            ControlEvent::SetContext {
                endpoint: state.consumers[slot].0.clone(),
                secrecy,
                integrity,
            },
        );
    }
    // Isolation toggles on any live endpoint.
    if rng.gen_bool(0.05) {
        let device_count = state.devices.len();
        let total = device_count + state.consumers.len();
        if total > 0 {
            let pick = rng.gen_range(0..total);
            let endpoint = if pick < device_count {
                state.devices[pick].0.clone()
            } else {
                state.consumers[pick - device_count].0.clone()
            };
            let entry = state.isolated.entry(endpoint.clone()).or_insert(false);
            *entry = !*entry;
            let isolated = *entry;
            push(clock, ControlEvent::SetIsolated { endpoint, isolated });
        }
    }
    // Policy updates mid-run.
    if rng.gen_bool(0.05) && !state.consumers.is_empty() {
        let consumer = state.consumers[rng.gen_range(0..state.consumers.len())].0.clone();
        let rule = if rng.gen_bool(0.5) {
            RuleSpec {
                component: consumer,
                subject: SubjectSpec::Anyone,
                allow: false,
                condition: CondSpec::IsTrue(format!("{d}.lockdown")),
            }
        } else {
            RuleSpec {
                component: consumer,
                subject: SubjectSpec::Anyone,
                allow: true,
                condition: CondSpec::Always,
            }
        };
        push(clock, ControlEvent::AddRule(rule));
    }
    // Leaves: devices only (consumer mailboxes stay open all run), never the
    // same endpoint twice, and never below two publishers.
    if rng.gen_bool(0.04) && state.devices.len() > 2 {
        let slot = rng.gen_range(0..state.devices.len());
        let (device, _, _) = state.devices.remove(slot);
        state.isolated.remove(&device);
        state.departed.push(device.clone());
        push(clock, ControlEvent::Leave { endpoint: device });
    }
    // Joins: a new device producing an already-registered message type, wired
    // to existing consumers.
    if rng.gen_bool(0.04) && !state.consumers.is_empty() && !state.message_types.is_empty() {
        let message_type = state.message_types[rng.gen_range(0..state.message_types.len())].clone();
        let name = format!("{d}-joiner-r{round}-{}", state.departed.len() + state.devices.len());
        let owner = state.owners[0].clone();
        let thing = ThingSpec {
            name: name.clone(),
            kind: ThingKind::Sensor,
            owner: owner.clone(),
            node: format!("{d}-node"),
            secrecy: vec![base_tag(&d)],
            integrity: vec![trusted_tag(&d)],
            produces: vec![message_type.clone()],
        };
        let mut edges = Vec::new();
        for (consumer, _, _) in &state.consumers {
            if rng.gen_bool(0.6) {
                edges.push((name.clone(), consumer.clone()));
            }
        }
        if edges.is_empty() {
            edges.push((name.clone(), state.consumers[0].0.clone()));
        }
        state.devices.push((name, message_type, owner));
        push(clock, ControlEvent::Join { thing, edges });
    }
}
