//! # legaliot-iot
//!
//! IoT entity modelling and synthetic workload generation for the reproduction's
//! scenarios (§2 and §7 of Singh et al., Middleware 2016).
//!
//! * [`things`] — the 'thing' taxonomy (sensors, actuators, gateways, cloud services,
//!   applications), functional component chains (Fig. 2) and their conversion into
//!   middleware components;
//! * [`workload`] — deterministic synthetic workloads: the medical home-monitoring
//!   deployment of §7 (patients, hospital-issued and third-party devices, analysers,
//!   statistics generation, emergencies) and a smart-city sensing workload, substituting
//!   for the real deployments the paper envisions;
//! * [`catalog`] — device/deployment archetype catalogs (homes, hospital wards,
//!   vehicle fleets) that fleet generators instantiate into things at scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod things;
pub mod workload;

pub use catalog::{DeploymentKind, DeploymentProfile, DeviceArchetype, PROFILES};
pub use things::{Chain, Thing, ThingKind};
pub use workload::{CityWorkload, HomeMonitoringWorkload, Patient, SensorReading};
