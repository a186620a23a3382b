//! Machine-readable obligations and regulation sets.

use std::fmt;

use legaliot_ifc::Tag;
use legaliot_policy::{PolicyRule, PolicyTemplate};

/// A single legal/regulatory obligation, parameterised for compilation into policy.
#[derive(Debug, Clone, PartialEq)]
pub enum Obligation {
    /// Personal data of `subject` (identified by `data_tag`) may only be processed with
    /// recorded consent.
    ConsentRequired {
        /// Tag identifying the subject's data.
        data_tag: Tag,
        /// The data subject.
        subject: String,
    },
    /// Data carrying `data_tag` must remain within components located in `region`.
    GeoResidency {
        /// Tag identifying the regulated data.
        data_tag: Tag,
        /// The region name (matched against `<component>.in-<region>` context keys and
        /// node domains).
        region: String,
    },
    /// Data carrying `data_tag` may reach analytics consumers only after passing
    /// through an approved anonymiser (purpose limitation, Fig. 6).
    AnonymiseBeforeAnalytics {
        /// Tag identifying the raw personal data.
        data_tag: Tag,
        /// The approved anonymising component.
        anonymiser: String,
        /// The analytics consumer it protects.
        analytics: String,
        /// The raw data source.
        source: String,
    },
    /// Data held by `store` must not be retained longer than `retention_millis`: an
    /// item the trail shows stored at `t` (a `DataDerived` record processed by `store`)
    /// must be purged — an accepted purge actuation of `store` — in
    /// `(t, t + retention_millis]`. The check judges the trail up to its last record: an
    /// item whose limit lapses after that is not yet reported, whatever time the report
    /// is made at.
    Retention {
        /// The storage component.
        store: String,
        /// Maximum retention in simulated milliseconds.
        retention_millis: u64,
    },
    /// Denied flows of data carrying `data_tag` must be reported to `authority`
    /// (breach/incident notification).
    BreachNotification {
        /// Tag identifying the protected data.
        data_tag: Tag,
        /// Who must be notified.
        authority: String,
    },
}

impl Obligation {
    /// A short, stable identifier for the obligation (used in violation reports).
    pub fn id(&self) -> String {
        match self {
            Obligation::ConsentRequired { subject, data_tag } => {
                format!("consent:{subject}:{data_tag}")
            }
            Obligation::GeoResidency { data_tag, region } => format!("geo:{data_tag}:{region}"),
            Obligation::AnonymiseBeforeAnalytics { data_tag, analytics, .. } => {
                format!("anon-before-analytics:{data_tag}:{analytics}")
            }
            Obligation::Retention { store, retention_millis } => {
                format!("retention:{store}:{retention_millis}")
            }
            Obligation::BreachNotification { data_tag, authority } => {
                format!("breach-notify:{data_tag}:{authority}")
            }
        }
    }

    /// The tags this obligation requires the middleware/tag-registry to define.
    pub fn required_tags(&self) -> Vec<Tag> {
        match self {
            Obligation::ConsentRequired { data_tag, .. }
            | Obligation::GeoResidency { data_tag, .. }
            | Obligation::AnonymiseBeforeAnalytics { data_tag, .. }
            | Obligation::BreachNotification { data_tag, .. } => vec![data_tag.clone()],
            Obligation::Retention { .. } => Vec::new(),
        }
    }

    /// Compiles the obligation into enforcement-time policy rules (where a rule-level
    /// encoding exists). Some obligations are checked only retrospectively over audit
    /// logs and produce no rules.
    pub fn compile(&self, authority: &str) -> Vec<PolicyRule> {
        match self {
            Obligation::ConsentRequired { data_tag, subject } => PolicyTemplate::ConsentRequired {
                data_tag: data_tag.clone(),
                subject: subject.clone(),
                authority: authority.to_string(),
            }
            .expand(),
            Obligation::GeoResidency { data_tag, region } => PolicyTemplate::GeoFence {
                data_tag: data_tag.clone(),
                region: region.clone(),
                authority: authority.to_string(),
            }
            .expand(),
            Obligation::AnonymiseBeforeAnalytics { data_tag, anonymiser, analytics, source } => {
                PolicyTemplate::AnonymiseBeforeAnalytics {
                    data_tag: data_tag.clone(),
                    source: source.clone(),
                    anonymiser: anonymiser.clone(),
                    analytics: analytics.clone(),
                    authority: authority.to_string(),
                }
                .expand()
            }
            Obligation::Retention { store, retention_millis } => PolicyTemplate::Retention {
                store: store.clone(),
                retention_millis: *retention_millis,
                authority: authority.to_string(),
            }
            .expand(),
            Obligation::BreachNotification { .. } => Vec::new(),
        }
    }
}

impl fmt::Display for Obligation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id())
    }
}

/// A named body of obligations imposed by one authority (regulator, contract, DPO).
#[derive(Debug, Clone, PartialEq)]
pub struct RegulationSet {
    /// The regulation's name, e.g. `eu-data-protection`.
    pub name: String,
    /// The authority imposing it.
    pub authority: String,
    /// The obligations it contains.
    pub obligations: Vec<Obligation>,
}

impl RegulationSet {
    /// Creates an empty regulation set.
    pub fn new(name: impl Into<String>, authority: impl Into<String>) -> Self {
        RegulationSet { name: name.into(), authority: authority.into(), obligations: Vec::new() }
    }

    /// Adds an obligation.
    pub fn with(mut self, obligation: Obligation) -> Self {
        self.obligations.push(obligation);
        self
    }

    /// Compiles every obligation into policy rules, attributed to this regulation's
    /// authority.
    pub fn compile(&self) -> Vec<PolicyRule> {
        self.obligations.iter().flat_map(|o| o.compile(&self.authority)).collect()
    }

    /// All tags the regulation requires to exist.
    pub fn required_tags(&self) -> Vec<Tag> {
        let mut tags: Vec<Tag> =
            self.obligations.iter().flat_map(Obligation::required_tags).collect();
        tags.sort();
        tags.dedup();
        tags
    }

    /// A representative EU-style data-protection regime used by the examples and
    /// scenarios: consent + residency + anonymise-before-analytics + retention +
    /// breach notification for data tagged `personal`.
    pub fn eu_style_data_protection(subject: &str) -> Self {
        RegulationSet::new("eu-data-protection", "eu-regulator")
            .with(Obligation::ConsentRequired {
                data_tag: Tag::new("personal"),
                subject: subject.to_string(),
            })
            .with(Obligation::GeoResidency {
                data_tag: Tag::new("personal"),
                region: "eu".to_string(),
            })
            .with(Obligation::AnonymiseBeforeAnalytics {
                data_tag: Tag::new("personal"),
                anonymiser: "stats-generator".to_string(),
                analytics: "ward-manager".to_string(),
                source: "patient-records".to_string(),
            })
            .with(Obligation::Retention {
                store: "archive".to_string(),
                retention_millis: 30 * 24 * 3600 * 1000,
            })
            .with(Obligation::BreachNotification {
                data_tag: Tag::new("personal"),
                authority: "regulator".to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obligation_ids_are_distinct_and_stable() {
        let a =
            Obligation::ConsentRequired { data_tag: Tag::new("personal"), subject: "ann".into() };
        let b = Obligation::GeoResidency { data_tag: Tag::new("personal"), region: "eu".into() };
        assert_ne!(a.id(), b.id());
        assert_eq!(a.id(), "consent:ann:personal");
        assert_eq!(a.to_string(), a.id());
    }

    #[test]
    fn required_tags_collects_data_tags() {
        let reg = RegulationSet::eu_style_data_protection("ann");
        let tags = reg.required_tags();
        assert_eq!(tags, vec![Tag::new("personal")]);
        assert!(Obligation::Retention { store: "s".into(), retention_millis: 1 }
            .required_tags()
            .is_empty());
    }

    #[test]
    fn compile_expands_rule_bearing_obligations() {
        let reg = RegulationSet::eu_style_data_protection("ann");
        let rules = reg.compile();
        // consent(1) + geo(1) + anonymise(1) + retention(1) = 4; breach notification is
        // checked retrospectively and contributes no rules.
        assert_eq!(rules.len(), 4);
        assert!(rules.iter().all(|r| r.authority == "eu-regulator"));
        assert!(Obligation::BreachNotification {
            data_tag: Tag::new("personal"),
            authority: "reg".into()
        }
        .compile("x")
        .is_empty());
    }

    #[test]
    fn regulation_set_builders() {
        let reg = RegulationSet::new("contract-42", "hospital")
            .with(Obligation::Retention { store: "archive".into(), retention_millis: 10 });
        assert_eq!(reg.obligations.len(), 1);
        assert_eq!(reg.name, "contract-42");
        assert_eq!(reg.compile().len(), 1);
    }
}
