//! The flow rule and structured flow decisions.
//!
//! The paper's constraint (§6), applied on every data flow from entity `A` to `B`:
//!
//! ```text
//! A → B  iff  S(A) ⊆ S(B)  ∧  I(B) ⊆ I(A)
//! ```
//!
//! A denial is not an error: it is an expected outcome that must be *auditable*, so the
//! decision carries the precise reason (which label failed, and which tags were
//! missing), exactly the information Fig. 4 annotates on the prevented flow
//! ("destination S has no zeb", "source I has no hosp-dev").

use std::fmt;

use crate::tag::{SecurityContext, Tag};

/// Why a flow was denied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowDenialReason {
    /// Secrecy tags of the source that the destination's secrecy label is missing.
    /// Non-empty iff the secrecy constraint `S(A) ⊆ S(B)` failed.
    pub missing_secrecy: Vec<Tag>,
    /// Integrity tags required by the destination that the source's integrity label is
    /// missing. Non-empty iff the integrity constraint `I(B) ⊆ I(A)` failed.
    pub missing_integrity: Vec<Tag>,
}

impl FlowDenialReason {
    /// Whether the secrecy constraint failed.
    fn secrecy_failed(&self) -> bool {
        !self.missing_secrecy.is_empty()
    }

    /// Whether the integrity constraint failed.
    fn integrity_failed(&self) -> bool {
        !self.missing_integrity.is_empty()
    }
}

impl fmt::Display for FlowDenialReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.secrecy_failed() {
            write!(f, "destination secrecy label is missing ")?;
            write_tags(f, &self.missing_secrecy)?;
            if self.integrity_failed() {
                write!(f, "; ")?;
            }
        }
        if self.integrity_failed() {
            write!(f, "source integrity label is missing ")?;
            write_tags(f, &self.missing_integrity)?;
        }
        if !self.secrecy_failed() && !self.integrity_failed() {
            write!(f, "no constraint violated")?;
        }
        Ok(())
    }
}

fn write_tags(f: &mut fmt::Formatter<'_>, tags: &[Tag]) -> fmt::Result {
    write!(f, "[")?;
    for (i, t) in tags.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{t}")?;
    }
    write!(f, "]")
}

/// The outcome of a flow check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowDecision {
    /// The flow satisfies both constraints and may proceed.
    Allowed,
    /// The flow violates at least one constraint and must be prevented.
    Denied(FlowDenialReason),
}

impl FlowDecision {
    /// Whether the flow is allowed.
    pub fn is_allowed(&self) -> bool {
        matches!(self, FlowDecision::Allowed)
    }

    /// Whether the flow is denied.
    pub fn is_denied(&self) -> bool {
        !self.is_allowed()
    }
}

impl fmt::Display for FlowDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowDecision::Allowed => write!(f, "allowed"),
            FlowDecision::Denied(r) => write!(f, "denied ({r})"),
        }
    }
}

/// A record of a single flow check: the two contexts compared and the decision.
///
/// This is the unit that enforcement points hand to the audit layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowCheck {
    /// The source entity's security context at the time of the check.
    pub source: SecurityContext,
    /// The destination entity's security context at the time of the check.
    pub destination: SecurityContext,
    /// The decision reached.
    pub decision: FlowDecision,
}

impl FlowCheck {
    /// Performs a flow check between two security contexts and records the result.
    pub fn evaluate(source: &SecurityContext, destination: &SecurityContext) -> Self {
        FlowCheck {
            source: source.clone(),
            destination: destination.clone(),
            decision: can_flow(source, destination),
        }
    }
}

/// Applies the flow rule `S(A) ⊆ S(B) ∧ I(B) ⊆ I(A)` to a pair of security contexts.
///
/// ```
/// use legaliot_ifc::{SecurityContext, can_flow};
/// let source = SecurityContext::from_names(["medical"], ["consent"]);
/// let sink = SecurityContext::from_names(["medical", "stats"], Vec::<&str>::new());
/// // Secrecy can only grow along a flow; integrity requirements of the sink must be met.
/// assert!(can_flow(&source, &sink).is_allowed());
/// assert!(can_flow(&sink, &source).is_denied());
/// ```
pub fn can_flow(source: &SecurityContext, destination: &SecurityContext) -> FlowDecision {
    // An allowed flow is two subset tests — pointer comparisons within one domain —
    // and allocates nothing; only a denial builds its explanation.
    if source.secrecy().is_subset(destination.secrecy())
        && destination.integrity().is_subset(source.integrity())
    {
        return FlowDecision::Allowed;
    }
    FlowDecision::Denied(FlowDenialReason {
        missing_secrecy: destination.secrecy().missing_from(source.secrecy()),
        missing_integrity: source.integrity().missing_from(destination.integrity()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Label;
    use proptest::prelude::*;

    fn ctx(s: &[&str], i: &[&str]) -> SecurityContext {
        SecurityContext::from_names(s.iter().copied(), i.iter().copied())
    }

    #[test]
    fn equal_contexts_flow_both_ways() {
        let a = ctx(&["medical", "ann"], &["hosp-dev", "consent"]);
        let b = a.clone();
        assert!(can_flow(&a, &b).is_allowed());
        assert!(can_flow(&b, &a).is_allowed());
    }

    #[test]
    fn secrecy_can_only_grow() {
        let low = ctx(&["s1"], &[]);
        let high = ctx(&["s1", "s2"], &[]);
        assert!(can_flow(&low, &high).is_allowed());
        let back = can_flow(&high, &low);
        assert!(back.is_denied());
        let FlowDecision::Denied(reason) = back else { panic!("must be denied") };
        assert!(reason.secrecy_failed());
        assert!(!reason.integrity_failed());
        assert_eq!(reason.missing_secrecy, vec![Tag::new("s2")]);
    }

    #[test]
    fn integrity_requirements_of_destination_must_be_met() {
        let unendorsed = ctx(&[], &[]);
        let requires_sanitised = ctx(&[], &["sanitised"]);
        let decision = can_flow(&unendorsed, &requires_sanitised);
        assert!(decision.is_denied());
        let FlowDecision::Denied(reason) = decision else { panic!("must be denied") };
        assert!(reason.integrity_failed());
        assert_eq!(reason.missing_integrity, vec![Tag::new("sanitised")]);
        // The endorsed source can flow to the demanding destination.
        let endorsed = ctx(&[], &["sanitised"]);
        assert!(can_flow(&endorsed, &requires_sanitised).is_allowed());
        // Integrity is dropped, never gained, along a flow: endorsed → unendorsed is fine.
        assert!(can_flow(&endorsed, &unendorsed).is_allowed());
    }

    #[test]
    fn fig4_illegal_flow_both_constraints_fail() {
        // Zeb's sensors → Ann's analyser (Fig. 4): fails secrecy (no `zeb` at the
        // destination) and integrity (source has no `hosp-dev`).
        let zeb_sensor = ctx(&["medical", "zeb"], &["zeb-dev", "consent"]);
        let ann_analyser = ctx(&["medical", "ann"], &["hosp-dev", "consent"]);
        let decision = can_flow(&zeb_sensor, &ann_analyser);
        let FlowDecision::Denied(reason) = decision else { panic!("must be denied") };
        assert!(reason.secrecy_failed());
        assert!(reason.integrity_failed());
        assert_eq!(reason.missing_secrecy, vec![Tag::new("zeb")]);
        assert_eq!(reason.missing_integrity, vec![Tag::new("hosp-dev")]);
    }

    #[test]
    fn public_source_flows_to_any_destination_without_integrity_requirements() {
        let public = SecurityContext::public();
        let sink = ctx(&["medical", "stats"], &[]);
        assert!(can_flow(&public, &sink).is_allowed());
    }

    #[test]
    fn flow_check_records_contexts_and_decision() {
        let a = ctx(&["medical"], &[]);
        let b = ctx(&[], &[]);
        let check = FlowCheck::evaluate(&a, &b);
        assert_eq!(check.source, a);
        assert_eq!(check.destination, b);
        assert!(check.decision.is_denied());
    }

    #[test]
    fn denial_display_mentions_tags() {
        let a = ctx(&["medical"], &[]);
        let b = ctx(&[], &["sanitised"]);
        let d = can_flow(&a, &b);
        let text = d.to_string();
        assert!(text.contains("medical"));
        assert!(text.contains("sanitised"));
    }

    fn arb_ctx() -> impl Strategy<Value = SecurityContext> {
        let label =
            || proptest::collection::btree_set("[a-d]{1,2}", 0..5).prop_map(Label::from_names);
        (label(), label()).prop_map(|(s, i)| SecurityContext::new(s, i))
    }

    proptest! {
        /// Reflexivity: every context can flow to itself.
        #[test]
        fn prop_flow_reflexive(a in arb_ctx()) {
            prop_assert!(can_flow(&a, &a).is_allowed());
        }

        /// Transitivity: if A→B and B→C are allowed then A→C is allowed.
        #[test]
        fn prop_flow_transitive(a in arb_ctx(), b in arb_ctx(), c in arb_ctx()) {
            if can_flow(&a, &b).is_allowed() && can_flow(&b, &c).is_allowed() {
                prop_assert!(can_flow(&a, &c).is_allowed());
            }
        }

        /// The decision is consistent with the raw subset checks.
        #[test]
        fn prop_flow_matches_subset_definition(a in arb_ctx(), b in arb_ctx()) {
            let allowed = a.secrecy().is_subset(b.secrecy()) && b.integrity().is_subset(a.integrity());
            prop_assert_eq!(can_flow(&a, &b).is_allowed(), allowed);
        }

        /// Denial reasons are precise: re-adding exactly the missing tags makes the flow legal.
        #[test]
        fn prop_denial_reason_is_sufficient(a in arb_ctx(), b in arb_ctx()) {
            if let FlowDecision::Denied(reason) = can_flow(&a, &b) {
                let mut fixed_dst = b.clone();
                for t in &reason.missing_secrecy {
                    fixed_dst.secrecy_mut().insert(t.clone());
                }
                let mut fixed_src = a.clone();
                for t in &reason.missing_integrity {
                    fixed_src.integrity_mut().insert(t.clone());
                }
                prop_assert!(can_flow(&fixed_src, &fixed_dst).is_allowed());
            }
        }

        /// `DecisionCache` answers the question asked now: after the destination's
        /// context changes, a reused hash pair still gets `can_flow` of the current
        /// contexts, and never a hit.
        #[test]
        fn prop_decision_cache_answers_the_contexts_it_is_given(
            a in arb_ctx(), b in arb_ctx(), changed in arb_ctx(),
        ) {
            let (ha, hb) = (a.stable_hash(), b.stable_hash());
            let mut cache = crate::cache::DecisionCache::new();
            prop_assert_eq!(cache.check(&a, ha, &b, hb), (can_flow(&a, &b), false));
            prop_assert_eq!(cache.check(&a, ha, &changed, hb), (can_flow(&a, &changed), false));
        }
    }
}
