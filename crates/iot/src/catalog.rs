//! Device and deployment catalogs for fleet generation.
//!
//! The hand-built workloads in [`crate::workload`] model two concrete
//! deployments. Fleet-scale testing (thousands of heterogeneous deployments)
//! instead draws from a *catalog*: per-deployment-kind lists of device and hub
//! archetypes that a seeded generator instantiates into [`crate::Thing`]s.
//! Keeping the vocabulary here (rather than in the generator) means workloads,
//! docs and generated fleets name the same device population.

use crate::things::ThingKind;

/// A device archetype: a template a generator stamps out into concrete things.
///
/// `stem` becomes part of the thing name (`{deployment}-{stem}-{i}`) and
/// `message_stem` part of the message type it produces or consumes
/// (`{deployment}.{message_stem}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceArchetype {
    /// Name stem, e.g. `bed-sensor`.
    pub stem: &'static str,
    /// The thing kind instances take.
    pub kind: ThingKind,
    /// Message-type stem for the telemetry it emits (producers) or the feed it
    /// serves (hubs), e.g. `bed-telemetry`.
    pub message_stem: &'static str,
    /// The unit or nature of the primary reading, for schema attribute naming.
    pub unit: &'static str,
}

/// The kind of deployment a profile describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeploymentKind {
    /// A monitored home (§7's medical home-monitoring shape).
    Home,
    /// A hospital ward.
    Hospital,
    /// A managed vehicle fleet.
    VehicleFleet,
}

/// A deployment profile: the device population one kind of deployment draws
/// from. `devices` are producers (sensors/actuators reporting state); `hubs`
/// are consumers (gateways, applications, cloud services) that subscribe to
/// device telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeploymentProfile {
    /// Which deployment kind this profile describes.
    pub kind: DeploymentKind,
    /// Producer archetypes (each emits its `message_stem` telemetry).
    pub devices: &'static [DeviceArchetype],
    /// Consumer archetypes (each subscribes to device telemetry).
    pub hubs: &'static [DeviceArchetype],
}

/// The home profile: ambient and medical sensing behind a home hub.
pub const HOME: DeploymentProfile = DeploymentProfile {
    kind: DeploymentKind::Home,
    devices: &[
        DeviceArchetype {
            stem: "bed-sensor",
            kind: ThingKind::Sensor,
            message_stem: "bed-telemetry",
            unit: "occupancy",
        },
        DeviceArchetype {
            stem: "door-sensor",
            kind: ThingKind::Sensor,
            message_stem: "door-events",
            unit: "open",
        },
        DeviceArchetype {
            stem: "thermostat",
            kind: ThingKind::Actuator,
            message_stem: "climate",
            unit: "celsius",
        },
        DeviceArchetype {
            stem: "wearable",
            kind: ThingKind::Sensor,
            message_stem: "vitals",
            unit: "bpm",
        },
    ],
    hubs: &[
        DeviceArchetype {
            stem: "home-hub",
            kind: ThingKind::Gateway,
            message_stem: "home-feed",
            unit: "events",
        },
        DeviceArchetype {
            stem: "carer-app",
            kind: ThingKind::Application,
            message_stem: "carer-feed",
            unit: "events",
        },
    ],
};

/// The hospital-ward profile: clinical devices behind ward and records systems.
pub const HOSPITAL: DeploymentProfile = DeploymentProfile {
    kind: DeploymentKind::Hospital,
    devices: &[
        DeviceArchetype {
            stem: "ward-monitor",
            kind: ThingKind::Sensor,
            message_stem: "ward-obs",
            unit: "spo2",
        },
        DeviceArchetype {
            stem: "infusion-pump",
            kind: ThingKind::Actuator,
            message_stem: "infusion",
            unit: "ml-per-hour",
        },
        DeviceArchetype {
            stem: "ecg",
            kind: ThingKind::Sensor,
            message_stem: "ecg-trace",
            unit: "mv",
        },
    ],
    hubs: &[
        DeviceArchetype {
            stem: "ward-station",
            kind: ThingKind::Gateway,
            message_stem: "ward-feed",
            unit: "events",
        },
        DeviceArchetype {
            stem: "ehr-service",
            kind: ThingKind::CloudService,
            message_stem: "ehr-feed",
            unit: "records",
        },
    ],
};

/// The vehicle-fleet profile: on-vehicle units reporting to fleet services.
pub const VEHICLE_FLEET: DeploymentProfile = DeploymentProfile {
    kind: DeploymentKind::VehicleFleet,
    devices: &[
        DeviceArchetype {
            stem: "gps-tracker",
            kind: ThingKind::Sensor,
            message_stem: "position",
            unit: "degrees",
        },
        DeviceArchetype {
            stem: "engine-ecu",
            kind: ThingKind::Sensor,
            message_stem: "engine-stats",
            unit: "rpm",
        },
        DeviceArchetype {
            stem: "dashcam",
            kind: ThingKind::Sensor,
            message_stem: "dash-footage",
            unit: "frames",
        },
        DeviceArchetype {
            stem: "cargo-sensor",
            kind: ThingKind::Sensor,
            message_stem: "cargo-state",
            unit: "kg",
        },
    ],
    hubs: &[
        DeviceArchetype {
            stem: "fleet-gateway",
            kind: ThingKind::Gateway,
            message_stem: "fleet-feed",
            unit: "events",
        },
        DeviceArchetype {
            stem: "dispatch-service",
            kind: ThingKind::CloudService,
            message_stem: "dispatch-feed",
            unit: "jobs",
        },
    ],
};

/// Every deployment profile, in a stable order generators index by seed.
pub const PROFILES: &[DeploymentProfile] = &[HOME, HOSPITAL, VEHICLE_FLEET];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn profiles_cover_all_kinds_in_stable_order() {
        let kinds: Vec<_> = PROFILES.iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![DeploymentKind::Home, DeploymentKind::Hospital, DeploymentKind::VehicleFleet]
        );
    }

    #[test]
    fn every_profile_has_devices_and_hubs() {
        for profile in PROFILES {
            assert!(!profile.devices.is_empty(), "{:?} has no devices", profile.kind);
            assert!(!profile.hubs.is_empty(), "{:?} has no hubs", profile.kind);
            for hub in profile.hubs {
                assert!(
                    !matches!(hub.kind, ThingKind::Sensor | ThingKind::Actuator),
                    "hub archetype {} should not be a device kind",
                    hub.stem
                );
            }
        }
    }

    #[test]
    fn stems_and_message_stems_are_unique_within_a_profile() {
        for profile in PROFILES {
            let all: Vec<_> = profile.devices.iter().chain(profile.hubs).collect();
            let stems: BTreeSet<_> = all.iter().map(|a| a.stem).collect();
            let msgs: BTreeSet<_> = all.iter().map(|a| a.message_stem).collect();
            assert_eq!(stems.len(), all.len(), "duplicate stem in {:?}", profile.kind);
            assert_eq!(msgs.len(), all.len(), "duplicate message stem in {:?}", profile.kind);
        }
    }
}
