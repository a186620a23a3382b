//! A small term ontology for policy vocabularies.
//!
//! Challenge 2 ("Defining policy") points to "work on ontologies that relate to policy
//! semantics", and §10.2 notes ontological approaches "allow context, tags, privileges,
//! etc. to be defined, based on semantics". The reproduction provides a minimal
//! subsumption hierarchy: terms with broader/narrower relations, so a policy written
//! against `personal-data` also covers `medical-data` and `location-data`, and a
//! vocabulary owner can check that two federations' codings can be aligned.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// The relation asserted between two terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermRelation {
    /// The first term is a narrower kind of the second (`medical-data` ⊑ `personal-data`).
    NarrowerThan,
    /// The two terms are declared equivalent (used to align federated vocabularies).
    EquivalentTo,
}

impl fmt::Display for TermRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TermRelation::NarrowerThan => write!(f, "narrower-than"),
            TermRelation::EquivalentTo => write!(f, "equivalent-to"),
        }
    }
}

/// A term ontology: a set of terms plus narrower/equivalent relations, with subsumption
/// queries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ontology {
    terms: BTreeSet<String>,
    /// term -> set of directly broader terms.
    broader: BTreeMap<String, BTreeSet<String>>,
    /// term -> set of declared-equivalent terms (kept symmetric).
    equivalent: BTreeMap<String, BTreeSet<String>>,
}

impl Ontology {
    /// Creates an empty ontology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a term (idempotent).
    pub fn declare(&mut self, term: impl Into<String>) -> &mut Self {
        self.terms.insert(term.into());
        self
    }

    /// Asserts that `narrow` is a narrower kind of `broad` (both are declared if new).
    pub fn narrower(&mut self, narrow: impl Into<String>, broad: impl Into<String>) -> &mut Self {
        let narrow = narrow.into();
        let broad = broad.into();
        self.terms.insert(narrow.clone());
        self.terms.insert(broad.clone());
        self.broader.entry(narrow).or_default().insert(broad);
        self
    }

    /// Asserts that two terms are equivalent (symmetric; both declared if new).
    pub fn equivalent(&mut self, a: impl Into<String>, b: impl Into<String>) -> &mut Self {
        let a = a.into();
        let b = b.into();
        self.terms.insert(a.clone());
        self.terms.insert(b.clone());
        self.equivalent.entry(a.clone()).or_default().insert(b.clone());
        self.equivalent.entry(b).or_default().insert(a);
        self
    }

    /// Whether a term has been declared.
    pub fn contains(&self, term: &str) -> bool {
        self.terms.contains(term)
    }

    /// Number of declared terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the ontology is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// All terms reachable from `term` by equivalence (including the term itself).
    fn equivalence_class(&self, term: &str) -> BTreeSet<String> {
        let mut seen = BTreeSet::from([term.to_string()]);
        let mut queue = VecDeque::from([term.to_string()]);
        while let Some(t) = queue.pop_front() {
            if let Some(eqs) = self.equivalent.get(&t) {
                for e in eqs {
                    if seen.insert(e.clone()) {
                        queue.push_back(e.clone());
                    }
                }
            }
        }
        seen
    }

    /// Whether `narrow` is subsumed by `broad`: they are equal, equivalent, or `narrow`
    /// is (transitively) narrower than something equivalent to `broad`.
    pub fn subsumed_by(&self, narrow: &str, broad: &str) -> bool {
        let target = self.equivalence_class(broad);
        if target.contains(narrow) {
            return true;
        }
        // BFS upwards through broader terms, expanding equivalence classes as we go.
        let mut seen: BTreeSet<String> = self.equivalence_class(narrow);
        let mut queue: VecDeque<String> = seen.iter().cloned().collect();
        while let Some(t) = queue.pop_front() {
            if target.contains(&t) {
                return true;
            }
            if let Some(broader) = self.broader.get(&t) {
                for b in broader {
                    for member in self.equivalence_class(b) {
                        if target.contains(&member) {
                            return true;
                        }
                        if seen.insert(member.clone()) {
                            queue.push_back(member);
                        }
                    }
                }
            }
        }
        false
    }

    /// All declared terms subsumed by `broad` (its narrower terms, transitively,
    /// including equivalents). Useful for expanding a policy's scope into concrete tags.
    pub fn expand(&self, broad: &str) -> Vec<String> {
        self.terms.iter().filter(|t| self.subsumed_by(t, broad)).cloned().collect()
    }

    /// A default healthcare/IoT vocabulary used by the scenarios and examples.
    pub fn standard_iot() -> Self {
        let mut o = Ontology::new();
        o.narrower("medical-data", "personal-data");
        o.narrower("location-data", "personal-data");
        o.narrower("heart-rate", "medical-data");
        o.narrower("blood-pressure", "medical-data");
        o.narrower("viewing-habits", "behavioural-data");
        o.narrower("behavioural-data", "personal-data");
        o.narrower("actuation-command", "control-data");
        o.equivalent("gdpr:personal-data", "personal-data");
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_contains() {
        let mut o = Ontology::new();
        assert!(o.is_empty());
        o.declare("personal-data");
        assert!(o.contains("personal-data"));
        assert!(!o.contains("medical-data"));
        assert_eq!(o.len(), 1);
    }

    #[test]
    fn subsumption_is_reflexive_and_transitive() {
        let o = Ontology::standard_iot();
        assert!(o.subsumed_by("medical-data", "medical-data"));
        assert!(o.subsumed_by("heart-rate", "medical-data"));
        assert!(o.subsumed_by("heart-rate", "personal-data"));
        assert!(!o.subsumed_by("personal-data", "heart-rate"));
        assert!(!o.subsumed_by("actuation-command", "personal-data"));
    }

    #[test]
    fn equivalence_aligns_vocabularies() {
        let o = Ontology::standard_iot();
        // The GDPR coding and the local coding are interchangeable.
        assert!(o.subsumed_by("heart-rate", "gdpr:personal-data"));
        assert!(o.subsumed_by("gdpr:personal-data", "personal-data"));
        assert!(o.subsumed_by("personal-data", "gdpr:personal-data"));
    }

    #[test]
    fn expand_lists_narrower_terms() {
        let o = Ontology::standard_iot();
        let personal = o.expand("personal-data");
        assert!(personal.contains(&"heart-rate".to_string()));
        assert!(personal.contains(&"medical-data".to_string()));
        assert!(personal.contains(&"viewing-habits".to_string()));
        assert!(!personal.contains(&"actuation-command".to_string()));
    }

    #[test]
    fn chained_equivalence() {
        let mut o = Ontology::new();
        o.equivalent("a", "b");
        o.equivalent("b", "c");
        assert!(o.subsumed_by("a", "c"));
        assert!(o.subsumed_by("c", "a"));
    }

    #[test]
    fn unknown_terms_are_not_subsumed() {
        let o = Ontology::standard_iot();
        assert!(!o.subsumed_by("unknown-term", "personal-data"));
        // Except trivially by themselves.
        assert!(o.subsumed_by("unknown-term", "unknown-term"));
    }

    #[test]
    fn relation_display() {
        assert_eq!(TermRelation::NarrowerThan.to_string(), "narrower-than");
        assert_eq!(TermRelation::EquivalentTo.to_string(), "equivalent-to");
    }
}
