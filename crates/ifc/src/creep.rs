//! Label-creep analysis.
//!
//! "Generally, building a system with increasing constraints can lead to situations of
//! *label creep*" (§6): as data flows into ever-more-constrained domains, fewer and
//! fewer entities can receive it, until processing stalls unless a declassifier
//! intervenes. This module provides a lightweight static analysis over a set of
//! security contexts and gateways to report where creep occurs and which flows can only
//! be bridged by a gateway.

use std::collections::BTreeMap;

use crate::flow::can_flow;
use crate::gateway::Gateway;
use crate::tag::SecurityContext;

/// One entry of a [`CreepReport`]: a named context and how reachable it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreepEntry {
    /// The name of the analysed context (component name).
    pub name: String,
    /// Number of other contexts this one can flow *to* directly.
    pub reachable_direct: usize,
    /// Number of other contexts this one can flow to only through some gateway.
    pub reachable_via_gateway: usize,
    /// Number of other contexts unreachable even via the supplied gateways.
    pub unreachable: usize,
    /// Total number of secrecy tags; large values are the classic symptom of creep.
    pub secrecy_tags: usize,
}

/// The result of a label-creep analysis over a system snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreepReport {
    /// Per-context entries, sorted by name.
    pub entries: Vec<CreepEntry>,
}

impl CreepReport {
    /// Contexts from which fewer than `threshold` other contexts are directly
    /// reachable — candidates for inserting a declassifier.
    pub fn bottlenecks(&self, threshold: usize) -> Vec<&CreepEntry> {
        self.entries.iter().filter(|e| e.reachable_direct < threshold).collect()
    }

    /// The entry with the largest secrecy label, if any.
    pub fn most_constrained(&self) -> Option<&CreepEntry> {
        self.entries.iter().max_by_key(|e| e.secrecy_tags)
    }
}

/// Analyses a set of named security contexts plus available gateways for label creep.
#[derive(Debug, Clone, Default)]
pub struct CreepAnalysis {
    contexts: BTreeMap<String, SecurityContext>,
    gateways: Vec<Gateway>,
}

impl CreepAnalysis {
    /// Creates an empty analysis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a named security context (a component of the system under analysis).
    pub fn add_context(&mut self, name: impl Into<String>, ctx: SecurityContext) -> &mut Self {
        self.contexts.insert(name.into(), ctx);
        self
    }

    /// Adds an available gateway (declassifier/endorser).
    pub fn add_gateway(&mut self, gateway: Gateway) -> &mut Self {
        self.gateways.push(gateway);
        self
    }

    /// Runs the analysis, producing a [`CreepReport`].
    pub fn analyse(&self) -> CreepReport {
        let mut entries = Vec::with_capacity(self.contexts.len());
        for (name, ctx) in &self.contexts {
            let mut direct = 0;
            let mut via_gateway = 0;
            let mut unreachable = 0;
            for (other_name, other) in &self.contexts {
                if other_name == name {
                    continue;
                }
                if can_flow(ctx, other).is_allowed() {
                    direct += 1;
                } else if self.gateways.iter().any(|g| g.bridges(ctx, other)) {
                    via_gateway += 1;
                } else {
                    unreachable += 1;
                }
            }
            entries.push(CreepEntry {
                name: name.clone(),
                reachable_direct: direct,
                reachable_via_gateway: via_gateway,
                unreachable,
                secrecy_tags: ctx.secrecy().len(),
            });
        }
        CreepReport { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::Entity;
    use crate::gateway::Transformation;
    use crate::privilege::PrivilegeKind;

    fn ctx(s: &[&str], i: &[&str]) -> SecurityContext {
        SecurityContext::from_names(s.iter().copied(), i.iter().copied())
    }

    fn anonymiser() -> Gateway {
        let input = ctx(&["medical", "ann"], &[]);
        let mut e = Entity::active("anonymiser", input);
        e.privileges_mut().grant("medical", PrivilegeKind::SecrecyRemove);
        e.privileges_mut().grant("ann", PrivilegeKind::SecrecyRemove);
        let t =
            Transformation::named("anonymise").removing_secrecy("medical").removing_secrecy("ann");
        let output = ctx(&[], &[]);
        Gateway::new(e, t, output).unwrap()
    }

    #[test]
    fn detects_unreachable_and_gateway_bridged_flows() {
        let mut a = CreepAnalysis::new();
        a.add_context("sensor", ctx(&["medical", "ann"], &[]));
        a.add_context("analyser", ctx(&["medical", "ann"], &[]));
        a.add_context("public-dashboard", ctx(&[], &[]));
        let report = a.analyse();
        let sensor = report.entries.iter().find(|e| e.name == "sensor").unwrap();
        // Without a gateway, the dashboard is unreachable from the sensor.
        assert_eq!(sensor.reachable_direct, 1);
        assert_eq!(sensor.unreachable, 1);

        a.add_gateway(anonymiser());
        let report = a.analyse();
        let sensor = report.entries.iter().find(|e| e.name == "sensor").unwrap();
        assert_eq!(sensor.reachable_via_gateway, 1);
        assert_eq!(sensor.unreachable, 0);
    }

    #[test]
    fn bottlenecks_and_most_constrained() {
        let mut a = CreepAnalysis::new();
        a.add_context("deep", ctx(&["s1", "s2", "s3"], &[]));
        a.add_context("mid", ctx(&["s1"], &[]));
        a.add_context("open", ctx(&[], &[]));
        let report = a.analyse();
        let most = report.most_constrained().unwrap();
        assert_eq!(most.name, "deep");
        assert_eq!(most.secrecy_tags, 3);
        // `deep` cannot flow anywhere: it is a bottleneck at threshold 1.
        let bn = report.bottlenecks(1);
        assert_eq!(bn.len(), 1);
        assert_eq!(bn[0].name, "deep");
    }

    #[test]
    fn empty_analysis() {
        let report = CreepAnalysis::new().analyse();
        assert!(report.entries.is_empty());
        assert!(report.most_constrained().is_none());
        assert!(report.bottlenecks(10).is_empty());
    }

    #[test]
    fn monotone_constraint_chain_shows_creep() {
        // Fig. 3's increasingly constrained chain: s1 → s1,s2 → s1,s2,s3.
        let mut a = CreepAnalysis::new();
        a.add_context("d1", ctx(&["s1"], &[]));
        a.add_context("d2", ctx(&["s1", "s2"], &[]));
        a.add_context("d3", ctx(&["s1", "s2", "s3"], &[]));
        let report = a.analyse();
        let d1 = report.entries.iter().find(|e| e.name == "d1").unwrap();
        let d3 = report.entries.iter().find(|e| e.name == "d3").unwrap();
        assert_eq!(d1.reachable_direct, 2); // can reach d2 and d3
        assert_eq!(d3.reachable_direct, 0); // terminal domain: creep
    }
}
