//! Property tests over generator invariants: whatever the seed, a generated
//! fleet is well-formed — policies only read keys their deployment defines,
//! every produced message type has a schema, labels stay inside their
//! deployment's lattice universe, and churn scripts never deregister an
//! endpoint twice.

use std::collections::{BTreeMap, BTreeSet};

use legaliot_fleet::{generate, CondSpec, ControlEvent, Fleet, FleetConfig, RuleSpec};
use proptest::prelude::*;

/// The deployment a fleet-wide name belongs to (`d0012-bed-sensor` → `d0012`,
/// `d0012.load` → `d0012`).
fn deployment_of(name: &str) -> &str {
    name.split(['-', '.']).next().expect("split always yields one piece")
}

/// Every context key a generated condition reads.
fn referenced_keys(condition: &CondSpec) -> Vec<&str> {
    match condition {
        CondSpec::Always => Vec::new(),
        CondSpec::IsTrue(key) | CondSpec::IsFalse(key) | CondSpec::NumberBelow(key, _) => {
            vec![key.as_str()]
        }
        CondSpec::AnyOf(branches) => branches.iter().flat_map(referenced_keys).collect(),
    }
}

fn check_rule_keys(fleet: &Fleet, rule: &RuleSpec) {
    let keys: BTreeMap<&str, BTreeSet<&str>> = fleet
        .deployments
        .iter()
        .map(|d| (d.name.as_str(), d.initial_keys.keys().map(String::as_str).collect()))
        .collect();
    let deployment = deployment_of(&rule.component);
    let defined = keys.get(deployment).unwrap_or_else(|| {
        panic!("rule on `{}` names unknown deployment `{deployment}`", rule.component)
    });
    for key in referenced_keys(&rule.condition) {
        assert!(
            defined.contains(key),
            "rule on `{}` reads `{key}`, undefined in {deployment}",
            rule.component
        );
    }
}

proptest! {
    /// Every generated policy references only context keys its own deployment
    /// defines in `initial_keys` — nothing conditions on another deployment's
    /// state or on a key that is never written.
    #[test]
    fn policies_only_reference_defined_keys(
        seed in 0u64..10_000,
        deployments in 1usize..24,
        rounds in 1usize..5,
    ) {
        let fleet = generate(FleetConfig { seed, deployments, rounds });
        for deployment in &fleet.deployments {
            for rule in &deployment.rules {
                check_rule_keys(&fleet, rule);
            }
        }
        for round in &fleet.rounds {
            for (_, event) in &round.events {
                if let ControlEvent::AddRule(rule) = event {
                    check_rule_keys(&fleet, rule);
                }
            }
        }
    }

    /// Every message type any publisher produces — at install or by joining —
    /// has a schema in its deployment, and every scripted publish names one.
    #[test]
    fn every_produced_type_has_a_schema(
        seed in 0u64..10_000,
        deployments in 1usize..24,
        rounds in 1usize..5,
    ) {
        let fleet = generate(FleetConfig { seed, deployments, rounds });
        let schemas: BTreeSet<&str> = fleet
            .deployments
            .iter()
            .flat_map(|d| d.schemas.iter())
            .map(|s| s.message_type.as_str())
            .collect();
        for deployment in &fleet.deployments {
            for thing in &deployment.things {
                for produced in &thing.produces {
                    prop_assert!(schemas.contains(produced.as_str()),
                        "{} produces {produced} with no schema", thing.name);
                }
            }
        }
        for round in &fleet.rounds {
            for (_, event) in &round.events {
                if let ControlEvent::Join { thing, .. } = event {
                    for produced in &thing.produces {
                        prop_assert!(schemas.contains(produced.as_str()),
                            "joiner {} produces {produced} with no schema", thing.name);
                    }
                }
            }
            for publish in &round.publishes {
                prop_assert!(schemas.contains(publish.message_type.as_str()));
            }
        }
    }

    /// Every label anywhere in a deployment — thing contexts, context flips,
    /// schema attribute tags, message-level extra tags — is a point of that
    /// deployment's declared lattice (a subset of its tag universes).
    #[test]
    fn labels_are_valid_lattice_points(
        seed in 0u64..10_000,
        deployments in 1usize..24,
        rounds in 1usize..5,
    ) {
        let fleet = generate(FleetConfig { seed, deployments, rounds });
        let universes: BTreeMap<&str, (BTreeSet<&str>, BTreeSet<&str>)> = fleet
            .deployments
            .iter()
            .map(|d| {
                (
                    d.name.as_str(),
                    (
                        d.secrecy_universe.iter().map(String::as_str).collect(),
                        d.integrity_universe.iter().map(String::as_str).collect(),
                    ),
                )
            })
            .collect();
        let check = |owner: &str, secrecy: &[String], integrity: &[String]| {
            let (s_universe, i_universe) = &universes[deployment_of(owner)];
            for tag in secrecy {
                assert!(s_universe.contains(tag.as_str()),
                    "{owner}: secrecy tag {tag} outside universe");
            }
            for tag in integrity {
                assert!(i_universe.contains(tag.as_str()),
                    "{owner}: integrity tag {tag} outside universe");
            }
        };
        for deployment in &fleet.deployments {
            for thing in &deployment.things {
                check(&thing.name, &thing.secrecy, &thing.integrity);
            }
            for schema in &deployment.schemas {
                for attr in &schema.attrs {
                    check(&schema.message_type, &attr.secrecy, &[]);
                }
            }
        }
        for round in &fleet.rounds {
            for (_, event) in &round.events {
                match event {
                    ControlEvent::SetContext { endpoint, secrecy, integrity } => {
                        check(endpoint, secrecy, integrity);
                    }
                    ControlEvent::Join { thing, .. } => {
                        check(&thing.name, &thing.secrecy, &thing.integrity);
                    }
                    _ => {}
                }
            }
            for publish in &round.publishes {
                check(&publish.publisher, &publish.extra_secrecy, &[]);
            }
        }
    }

    /// Churn scripts stay causally sane: an endpoint is deregistered at most
    /// once and only while registered, joins never collide with a live name,
    /// and no event or publish touches a departed endpoint.
    #[test]
    fn churn_never_deregisters_twice(
        seed in 0u64..10_000,
        deployments in 1usize..24,
        rounds in 1usize..6,
    ) {
        let fleet = generate(FleetConfig { seed, deployments, rounds });
        let mut registered: BTreeSet<&str> = fleet
            .deployments
            .iter()
            .flat_map(|d| d.things.iter())
            .map(|t| t.name.as_str())
            .collect();
        let mut departed: BTreeSet<&str> = BTreeSet::new();
        for round in &fleet.rounds {
            for (_, event) in &round.events {
                match event {
                    ControlEvent::Leave { endpoint } => {
                        prop_assert!(!departed.contains(endpoint.as_str()),
                            "{endpoint} deregistered twice");
                        prop_assert!(registered.remove(endpoint.as_str()),
                            "{endpoint} left while unregistered");
                        departed.insert(endpoint.as_str());
                    }
                    ControlEvent::Join { thing, edges } => {
                        prop_assert!(!registered.contains(thing.name.as_str()),
                            "{} joined twice", thing.name);
                        registered.insert(thing.name.as_str());
                        for (from, to) in edges {
                            prop_assert!(registered.contains(from.as_str()));
                            prop_assert!(registered.contains(to.as_str()));
                        }
                    }
                    ControlEvent::SetContext { endpoint, .. }
                    | ControlEvent::SetIsolated { endpoint, .. } => {
                        prop_assert!(registered.contains(endpoint.as_str()),
                            "event touches unregistered {endpoint}");
                    }
                    ControlEvent::SetKey { .. } | ControlEvent::AddRule(_) => {}
                }
            }
            for publish in &round.publishes {
                prop_assert!(registered.contains(publish.publisher.as_str()),
                    "publish from unregistered {}", publish.publisher);
            }
        }
    }
}
