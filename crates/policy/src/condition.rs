//! Condition expressions evaluated against context snapshots.

use std::fmt;

use legaliot_context::{ContextKey, ContextSnapshot, ContextValue, Timestamp};

/// A boolean condition over a [`ContextSnapshot`].
///
/// Conditions are a small expression tree of plain data (no closures) so that policies
/// can be distributed to gateways and components (Challenge 1: global policy
/// representation). Keys are interned [`ContextKey`]s, resolved when the condition is
/// built: evaluating one reads the snapshot by key id, with no string hashed or
/// allocated.
///
/// ```
/// use legaliot_policy::Condition;
/// use legaliot_context::ContextSnapshot;
///
/// let c = Condition::is_true("emergency.active")
///     .and(Condition::NumberAtLeast { key: "patient.heart-rate".into(), threshold: 120.0 });
/// let snap = ContextSnapshot::from_pairs([
///     ("emergency.active", legaliot_context::ContextValue::Bool(true)),
///     ("patient.heart-rate", legaliot_context::ContextValue::Integer(150)),
/// ]);
/// assert!(c.evaluate(&snap, legaliot_context::Timestamp::ZERO));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// Always true.
    Always,
    /// Always false.
    Never,
    /// A boolean context key is present and true.
    IsTrue {
        /// The context key.
        key: ContextKey,
    },
    /// A boolean context key is absent or false.
    IsFalse {
        /// The context key.
        key: ContextKey,
    },
    /// A text context key equals the given value.
    TextEquals {
        /// The context key.
        key: ContextKey,
        /// The expected value.
        value: String,
    },
    /// A numeric context key is `>=` the given threshold.
    NumberAtLeast {
        /// The context key.
        key: ContextKey,
        /// The inclusive lower bound.
        threshold: f64,
    },
    /// A numeric context key is `<` the given threshold.
    NumberBelow {
        /// The context key.
        key: ContextKey,
        /// The exclusive upper bound.
        threshold: f64,
    },
    /// The current simulated time lies within `[start_millis, end_millis)`.
    WithinTime {
        /// Inclusive start (ms).
        start_millis: u64,
        /// Exclusive end (ms).
        end_millis: u64,
    },
    /// Negation.
    Not(Box<Condition>),
    /// Conjunction of all sub-conditions (true when empty).
    All(Vec<Condition>),
    /// Disjunction of the sub-conditions (false when empty).
    Any(Vec<Condition>),
}

impl Condition {
    /// Shorthand for [`Condition::IsTrue`].
    pub fn is_true(key: impl Into<ContextKey>) -> Self {
        Condition::IsTrue { key: key.into() }
    }

    /// Shorthand for [`Condition::IsFalse`].
    pub fn is_false(key: impl Into<ContextKey>) -> Self {
        Condition::IsFalse { key: key.into() }
    }

    /// Shorthand for [`Condition::NumberBelow`].
    pub fn number_below(key: impl Into<ContextKey>, threshold: f64) -> Self {
        Condition::NumberBelow { key: key.into(), threshold }
    }

    /// Shorthand for [`Condition::WithinTime`].
    pub fn within_time(start_millis: u64, end_millis: u64) -> Self {
        Condition::WithinTime { start_millis, end_millis }
    }

    /// Conjunction with another condition.
    pub fn and(self, other: Condition) -> Self {
        match self {
            Condition::All(mut v) => {
                v.push(other);
                Condition::All(v)
            }
            c => Condition::All(vec![c, other]),
        }
    }

    /// Disjunction with another condition.
    pub fn or(self, other: Condition) -> Self {
        match self {
            Condition::Any(mut v) => {
                v.push(other);
                Condition::Any(v)
            }
            c => Condition::Any(vec![c, other]),
        }
    }

    /// Evaluates the condition against a context snapshot at simulated time `now`.
    pub fn evaluate(&self, snapshot: &ContextSnapshot, now: Timestamp) -> bool {
        match self {
            Condition::Always => true,
            Condition::Never => false,
            Condition::IsTrue { key } => is_true(snapshot, key),
            Condition::IsFalse { key } => !is_true(snapshot, key),
            Condition::TextEquals { key, value } => snapshot
                .get(key)
                .and_then(ContextValue::as_text)
                .map(|t| t == value)
                .unwrap_or(false),
            Condition::NumberAtLeast { key, threshold } => snapshot
                .get(key)
                .and_then(ContextValue::as_number)
                .map(|n| n >= *threshold)
                .unwrap_or(false),
            Condition::NumberBelow { key, threshold } => snapshot
                .get(key)
                .and_then(ContextValue::as_number)
                .map(|n| n < *threshold)
                .unwrap_or(false),
            Condition::WithinTime { start_millis, end_millis } => {
                now.as_millis() >= *start_millis && now.as_millis() < *end_millis
            }
            Condition::Not(inner) => !inner.evaluate(snapshot, now),
            Condition::All(cs) => cs.iter().all(|c| c.evaluate(snapshot, now)),
            Condition::Any(cs) => cs.iter().any(|c| c.evaluate(snapshot, now)),
        }
    }
}

/// Whether a boolean key is present and true.
fn is_true(snapshot: &ContextSnapshot, key: &ContextKey) -> bool {
    snapshot.get(key).and_then(ContextValue::as_bool) == Some(true)
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::Always => write!(f, "true"),
            Condition::Never => write!(f, "false"),
            Condition::IsTrue { key } => write!(f, "{key}"),
            Condition::IsFalse { key } => write!(f, "!{key}"),
            Condition::TextEquals { key, value } => write!(f, "{key} == \"{value}\""),
            Condition::NumberAtLeast { key, threshold } => write!(f, "{key} >= {threshold}"),
            Condition::NumberBelow { key, threshold } => write!(f, "{key} < {threshold}"),
            Condition::WithinTime { start_millis, end_millis } => {
                write!(f, "time in [{start_millis}, {end_millis})")
            }
            Condition::Not(inner) => write!(f, "!({inner})"),
            Condition::All(cs) => {
                write!(f, "(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " && ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Condition::Any(cs) => {
                write!(f, "(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " || ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn snap() -> ContextSnapshot {
        ContextSnapshot::from_pairs([
            ("emergency.active", ContextValue::Bool(true)),
            ("nurse.on-shift", ContextValue::Bool(false)),
            ("patient.heart-rate", ContextValue::Integer(150)),
            ("patient.ward", ContextValue::Text("ward-3".into())),
        ])
    }

    #[test]
    fn primitive_conditions() {
        let s = snap();
        let t = Timestamp(100);
        assert!(Condition::Always.evaluate(&s, t));
        assert!(!Condition::Never.evaluate(&s, t));
        assert!(Condition::is_true("emergency.active").evaluate(&s, t));
        assert!(!Condition::is_true("nurse.on-shift").evaluate(&s, t));
        assert!(Condition::is_false("nurse.on-shift").evaluate(&s, t));
        assert!(Condition::is_false("missing-key").evaluate(&s, t));
        let equals =
            |key: &str, value: &str| Condition::TextEquals { key: key.into(), value: value.into() };
        assert!(equals("patient.ward", "ward-3").evaluate(&s, t));
        assert!(!equals("patient.ward", "ward-4").evaluate(&s, t));
        assert!(!equals("missing", "x").evaluate(&s, t));
        assert!(Condition::NumberAtLeast { key: "patient.heart-rate".into(), threshold: 120.0 }
            .evaluate(&s, t));
        assert!(!Condition::NumberAtLeast { key: "patient.heart-rate".into(), threshold: 151.0 }
            .evaluate(&s, t));
        assert!(Condition::number_below("patient.heart-rate", 200.0).evaluate(&s, t));
        assert!(!Condition::number_below("missing", 200.0).evaluate(&s, t));
    }

    #[test]
    fn time_window_condition() {
        let s = snap();
        let c = Condition::within_time(100, 200);
        assert!(!c.evaluate(&s, Timestamp(99)));
        assert!(c.evaluate(&s, Timestamp(100)));
        assert!(c.evaluate(&s, Timestamp(199)));
        assert!(!c.evaluate(&s, Timestamp(200)));
    }

    #[test]
    fn combinators() {
        let s = snap();
        let t = Timestamp::ZERO;
        let c = Condition::is_true("emergency.active")
            .and(Condition::NumberAtLeast { key: "patient.heart-rate".into(), threshold: 120.0 });
        assert!(c.evaluate(&s, t));
        let c2 = Condition::is_true("nurse.on-shift").or(Condition::is_true("emergency.active"));
        assert!(c2.evaluate(&s, t));
        assert!(!Condition::Not(Box::new(Condition::is_true("emergency.active"))).evaluate(&s, t));
        // Empty All is true; empty Any is false.
        assert!(Condition::All(vec![]).evaluate(&s, t));
        assert!(!Condition::Any(vec![]).evaluate(&s, t));
        // Chaining `and`/`or` flattens into the same variant.
        let chained =
            Condition::is_true("a").and(Condition::is_true("b")).and(Condition::is_true("c"));
        match chained {
            Condition::All(v) => assert_eq!(v.len(), 3),
            other => panic!("expected All, got {other:?}"),
        }
        let chained =
            Condition::is_true("a").or(Condition::is_true("b")).or(Condition::is_true("c"));
        match chained {
            Condition::Any(v) => assert_eq!(v.len(), 3),
            other => panic!("expected Any, got {other:?}"),
        }
    }

    #[test]
    fn display_renders_expression() {
        let c = Condition::is_true("emergency.active").and(Condition::Not(Box::new(
            Condition::NumberAtLeast { key: "hr".into(), threshold: 120.0 },
        )));
        let s = c.to_string();
        assert!(s.contains("emergency.active"));
        assert!(s.contains("&&"));
        assert!(s.contains("!("));
        let any = Condition::is_true("a").or(Condition::is_false("b"));
        assert!(any.to_string().contains("||"));
        assert!(Condition::within_time(1, 2).to_string().contains("time in"));
    }

    proptest! {
        /// Negation is an involution and De Morgan holds for the evaluator.
        #[test]
        fn prop_negation_and_de_morgan(flag_a in proptest::bool::ANY, flag_b in proptest::bool::ANY) {
            let snap = ContextSnapshot::from_pairs([("a", flag_a), ("b", flag_b)]);
            let t = Timestamp::ZERO;
            let a = Condition::is_true("a");
            let b = Condition::is_true("b");
            let not_a = Condition::Not(Box::new(a.clone()));
            let not_b = Condition::Not(Box::new(b.clone()));
            let not_not_a = Condition::Not(Box::new(not_a.clone()));
            prop_assert_eq!(not_not_a.evaluate(&snap, t), a.evaluate(&snap, t));
            let lhs = Condition::Not(Box::new(a.and(b))).evaluate(&snap, t);
            let rhs = not_a.or(not_b).evaluate(&snap, t);
            prop_assert_eq!(lhs, rhs);
        }
    }
}
