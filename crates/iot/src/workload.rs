//! Synthetic workload generators.
//!
//! The paper motivates its design with a medical home-monitoring deployment (§7,
//! Figs. 4–7) and applications such as smart cities (§1). Neither deployment's real
//! data is available, so the workloads here generate deterministic synthetic equivalents
//! that exercise the same code paths: streams of sensor readings with occasional
//! emergencies, and city sensors spread across administrative domains.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use legaliot_ifc::SecurityContext;

use crate::things::{Thing, ThingKind};

/// A patient in the home-monitoring workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Patient {
    /// The patient's name (lower-case, used as an IFC tag).
    pub name: String,
    /// Whether their device is hospital-issued (`hosp-dev`) or third-party (needs the
    /// input sanitiser, Fig. 5).
    pub hospital_device: bool,
    /// Whether consent for processing has been recorded.
    pub consent: bool,
}

/// A single sensor reading.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorReading {
    /// The patient the reading belongs to.
    pub patient: String,
    /// The producing sensor component.
    pub sensor: String,
    /// Heart rate in bpm.
    pub heart_rate: u32,
    /// Simulated time of the reading (ms).
    pub at_millis: u64,
}

impl SensorReading {
    /// Whether the reading indicates a medical emergency (the Fig. 7 trigger).
    pub fn is_emergency(&self) -> bool {
        self.heart_rate >= 180
    }
}

/// The medical home-monitoring workload of §7.
///
/// Generates the things (sensors, analysers, sanitiser, statistics generator, ward
/// manager) and a deterministic stream of readings with configurable emergency
/// probability.
#[derive(Debug, Clone)]
pub struct HomeMonitoringWorkload {
    /// The patients enrolled.
    pub patients: Vec<Patient>,
    rng: StdRng,
    /// Probability that any given reading is an emergency (0.0–1.0).
    pub emergency_probability: f64,
    /// Interval between readings per patient, in simulated ms.
    pub reading_interval_millis: u64,
}

impl HomeMonitoringWorkload {
    /// Creates the standard two-patient workload of the paper's figures: Ann (hospital
    /// device) and Zeb (third-party device).
    pub fn fig7(seed: u64) -> Self {
        HomeMonitoringWorkload {
            patients: vec![
                Patient { name: "ann".into(), hospital_device: true, consent: true },
                Patient { name: "zeb".into(), hospital_device: false, consent: true },
            ],
            rng: StdRng::seed_from_u64(seed),
            emergency_probability: 0.05,
            reading_interval_millis: 1_000,
        }
    }

    /// Creates a workload with `n` synthetic patients (for scale experiments).
    pub fn with_patients(n: usize, seed: u64) -> Self {
        let patients = (0..n)
            .map(|i| Patient {
                name: format!("patient-{i}"),
                hospital_device: i % 3 != 0,
                consent: true,
            })
            .collect();
        HomeMonitoringWorkload {
            patients,
            rng: StdRng::seed_from_u64(seed),
            emergency_probability: 0.02,
            reading_interval_millis: 1_000,
        }
    }

    /// The security context of a patient's sensor (Fig. 4).
    pub fn sensor_context(patient: &Patient) -> SecurityContext {
        let device_tag = if patient.hospital_device { "hosp-dev" } else { "third-party-dev" };
        let mut integrity = vec![device_tag.to_string()];
        if patient.consent {
            integrity.push("consent".to_string());
        }
        SecurityContext::from_names(["medical".to_string(), patient.name.clone()], integrity)
    }

    /// The security context of a patient's hospital-based analyser (Fig. 4): requires
    /// hospital-standard, consented data.
    pub fn analyser_context(patient: &Patient) -> SecurityContext {
        SecurityContext::from_names(
            ["medical".to_string(), patient.name.clone()],
            ["hosp-dev".to_string(), "consent".to_string()],
        )
    }

    /// Generates every thing in the deployment: per-patient sensors and analysers, the
    /// shared input sanitiser, statistics generator and ward manager (Fig. 7).
    pub fn things(&self) -> Vec<Thing> {
        let mut things = Vec::new();
        for p in &self.patients {
            things.push(
                Thing::new(
                    format!("{}-sensor", p.name),
                    ThingKind::Sensor,
                    p.name.clone(),
                    format!("{}-home-gateway", p.name),
                    Self::sensor_context(p),
                )
                .produces("sensor-reading")
                .consumes("actuation-command"),
            );
            things.push(
                Thing::new(
                    format!("{}-analyser", p.name),
                    ThingKind::CloudService,
                    "hospital",
                    "hospital-cloud",
                    Self::analyser_context(p),
                )
                .consumes("sensor-reading")
                .produces("analysis-report"),
            );
        }
        // The input sanitiser starts able to read third-party data for every patient.
        let all_patients: Vec<String> = self.patients.iter().map(|p| p.name.clone()).collect();
        let mut sanitiser_secrecy = vec!["medical".to_string()];
        sanitiser_secrecy.extend(all_patients.clone());
        things.push(
            Thing::new(
                "input-sanitiser",
                ThingKind::CloudService,
                "hospital",
                "hospital-cloud",
                SecurityContext::from_names(
                    sanitiser_secrecy.clone(),
                    ["third-party-dev".to_string(), "consent".to_string()],
                ),
            )
            .consumes("sensor-reading")
            .produces("sensor-reading"),
        );
        // The statistics generator reads every patient's (standardised) data.
        things.push(
            Thing::new(
                "stats-generator",
                ThingKind::CloudService,
                "hospital",
                "hospital-cloud",
                SecurityContext::from_names(
                    sanitiser_secrecy,
                    ["hosp-dev".to_string(), "consent".to_string()],
                ),
            )
            .consumes("sensor-reading")
            .produces("statistics"),
        );
        // The ward manager may only see anonymised statistics (Fig. 6).
        things.push(
            Thing::new(
                "ward-manager",
                ThingKind::Application,
                "hospital",
                "hospital-cloud",
                SecurityContext::from_names(["medical", "stats"], ["anon"]),
            )
            .consumes("statistics"),
        );
        // The emergency doctor is connected only by the emergency-response policy; the
        // emergency team must be able to receive any patient's data once connected
        // ("replugging the sensor-data streams", §3 Concern 6), so its secrecy label
        // covers every enrolled patient.
        let mut doctor_secrecy = vec!["medical".to_string()];
        doctor_secrecy.extend(all_patients);
        things.push(
            Thing::new(
                "emergency-doctor",
                ThingKind::Application,
                "hospital",
                "hospital-cloud",
                SecurityContext::from_names(doctor_secrecy, Vec::<&str>::new()),
            )
            .consumes("analysis-report"),
        );
        things
    }

    /// Generates `per_patient` readings for every patient, starting at `start_millis`.
    pub fn readings(&mut self, per_patient: usize, start_millis: u64) -> Vec<SensorReading> {
        let mut out = Vec::with_capacity(per_patient * self.patients.len());
        for round in 0..per_patient {
            let at = start_millis + round as u64 * self.reading_interval_millis;
            for p in &self.patients {
                let emergency = self.rng.gen_bool(self.emergency_probability);
                let heart_rate = if emergency {
                    self.rng.gen_range(180..220)
                } else {
                    self.rng.gen_range(55..110)
                };
                out.push(SensorReading {
                    patient: p.name.clone(),
                    sensor: format!("{}-sensor", p.name),
                    heart_rate,
                    at_millis: at,
                });
            }
        }
        out
    }
}

/// A smart-city sensing workload: traffic and air-quality sensors across city districts,
/// with a council analytics service and a commercial advertiser that must never receive
/// personally identifiable movement data.
#[derive(Debug, Clone)]
pub struct CityWorkload {
    /// Number of districts.
    pub districts: usize,
    /// Sensors per district.
    pub sensors_per_district: usize,
}

impl CityWorkload {
    /// Creates a city workload.
    pub fn new(districts: usize, sensors_per_district: usize) -> Self {
        CityWorkload { districts, sensors_per_district }
    }

    /// Generates the city's things: per-district sensors and gateways, the council
    /// analytics service, an anonymiser, and the advertiser endpoint.
    pub fn things(&self) -> Vec<Thing> {
        let mut things = Vec::new();
        for d in 0..self.districts {
            for s in 0..self.sensors_per_district {
                things.push(
                    Thing::new(
                        format!("district{d}-sensor{s}"),
                        ThingKind::Sensor,
                        "city-council",
                        format!("district{d}-gateway"),
                        SecurityContext::from_names(["city", "movement"], ["council-dev"]),
                    )
                    .produces("traffic-reading"),
                );
            }
            things.push(
                Thing::new(
                    format!("district{d}-gateway"),
                    ThingKind::Gateway,
                    "city-council",
                    format!("district{d}-gateway"),
                    SecurityContext::from_names(["city", "movement"], ["council-dev"]),
                )
                .consumes("traffic-reading")
                .produces("traffic-reading"),
            );
        }
        things.push(
            Thing::new(
                "council-analytics",
                ThingKind::CloudService,
                "city-council",
                "council-cloud",
                SecurityContext::from_names(["city", "movement"], ["council-dev"]),
            )
            .consumes("traffic-reading")
            .produces("city-statistics"),
        );
        things.push(
            Thing::new(
                "city-anonymiser",
                ThingKind::CloudService,
                "city-council",
                "council-cloud",
                SecurityContext::from_names(["city", "movement"], ["council-dev"]),
            )
            .consumes("traffic-reading")
            .produces("city-statistics"),
        );
        things.push(
            Thing::new(
                "advertiser",
                ThingKind::Application,
                "ad-corp",
                "ad-cloud",
                SecurityContext::from_names(["city"], Vec::<&str>::new()),
            )
            .consumes("city-statistics"),
        );
        things
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legaliot_ifc::can_flow;

    #[test]
    fn fig7_workload_matches_paper_labels() {
        let w = HomeMonitoringWorkload::fig7(1);
        assert_eq!(w.patients.len(), 2);
        let ann = &w.patients[0];
        let zeb = &w.patients[1];
        let ann_sensor = HomeMonitoringWorkload::sensor_context(ann);
        let ann_analyser = HomeMonitoringWorkload::analyser_context(ann);
        let zeb_sensor = HomeMonitoringWorkload::sensor_context(zeb);
        // Fig. 4: Ann's sensor flows to her analyser; Zeb's sensor does not.
        assert!(can_flow(&ann_sensor, &ann_analyser).is_allowed());
        assert!(can_flow(&zeb_sensor, &ann_analyser).is_denied());
        // Zeb's own analyser still refuses his raw (non-standard) data.
        let zeb_analyser = HomeMonitoringWorkload::analyser_context(zeb);
        assert!(can_flow(&zeb_sensor, &zeb_analyser).is_denied());
    }

    #[test]
    fn things_cover_the_fig7_deployment() {
        let w = HomeMonitoringWorkload::fig7(1);
        let things = w.things();
        let names: Vec<&str> = things.iter().map(|t| t.name.as_str()).collect();
        for expected in [
            "ann-sensor",
            "ann-analyser",
            "zeb-sensor",
            "zeb-analyser",
            "input-sanitiser",
            "stats-generator",
            "ward-manager",
            "emergency-doctor",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        // 2 per patient + 4 shared.
        assert_eq!(things.len(), 8);
    }

    #[test]
    fn readings_are_deterministic_for_a_seed() {
        let mut a = HomeMonitoringWorkload::fig7(99);
        let mut b = HomeMonitoringWorkload::fig7(99);
        assert_eq!(a.readings(10, 0), b.readings(10, 0));
        let mut c = HomeMonitoringWorkload::fig7(100);
        assert_ne!(a.readings(10, 0), c.readings(10, 0));
    }

    #[test]
    fn emergencies_follow_probability() {
        let mut w = HomeMonitoringWorkload::fig7(7);
        w.emergency_probability = 1.0;
        let readings = w.readings(5, 0);
        assert!(readings.iter().all(SensorReading::is_emergency));
        w.emergency_probability = 0.0;
        let readings = w.readings(5, 0);
        assert!(readings.iter().all(|r| !r.is_emergency()));
    }

    #[test]
    fn scale_workload_generates_n_patients() {
        let w = HomeMonitoringWorkload::with_patients(25, 3);
        assert_eq!(w.patients.len(), 25);
        // 2 things per patient + 4 shared.
        assert_eq!(w.things().len(), 2 * 25 + 4);
        // A third of patients use third-party devices.
        assert!(w.patients.iter().any(|p| !p.hospital_device));
    }

    #[test]
    fn readings_advance_time_per_round() {
        let mut w = HomeMonitoringWorkload::fig7(1);
        let readings = w.readings(3, 1_000);
        assert_eq!(readings.len(), 6);
        assert_eq!(readings[0].at_millis, 1_000);
        assert_eq!(readings[5].at_millis, 3_000);
        assert!(readings[0].sensor.ends_with("-sensor"));
    }

    #[test]
    fn city_workload_shape() {
        let city = CityWorkload::new(4, 3);
        let things = city.things();
        // 12 sensors + 4 gateways + analytics + anonymiser + advertiser.
        assert_eq!(things.len(), 12 + 4 + 3);
        // The advertiser must not be able to receive raw movement data directly.
        let sensor = things.iter().find(|t| t.name == "district0-sensor0").unwrap();
        let advertiser = things.iter().find(|t| t.name == "advertiser").unwrap();
        assert!(can_flow(&sensor.context, &advertiser.context).is_denied());
    }
}
