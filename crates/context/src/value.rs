//! Typed context attributes and values.

use std::fmt;

use crate::name::Name;

/// The name of a context attribute, e.g. `patient.location`, `nurse.on-shift`,
/// `emergency.active`.
///
/// Keys are dotted paths; the prefix conventionally names the subject and the suffix the
/// attribute, which keeps context for different principals separated in a flat store.
///
/// A key is an interned [`Name`]: `Copy`, compared and hashed by id, ordered by its
/// text. Building one from a string interns it; reading a snapshot by name
/// ([`crate::ContextSnapshot::is_true`]) only looks the name up, and allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContextKey(Name);

impl ContextKey {
    /// Creates (interns) a context key.
    pub fn new(name: impl AsRef<str>) -> Self {
        ContextKey(Name::intern(name.as_ref()))
    }

    /// The key of `name` if some key of that name was ever created.
    pub(crate) fn lookup(name: &str) -> Option<Self> {
        Name::lookup(name).map(ContextKey)
    }

    /// The full dotted name.
    pub fn name(&self) -> &'static str {
        self.0.as_str()
    }

    /// The subject prefix (text before the first `.`), if present.
    pub fn subject(&self) -> Option<&'static str> {
        self.name().split_once('.').map(|(s, _)| s)
    }

    /// The attribute suffix (text after the first `.`), or the whole name.
    pub fn attribute(&self) -> &'static str {
        self.name().split_once('.').map_or(self.name(), |(_, a)| a)
    }
}

impl fmt::Display for ContextKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl From<&str> for ContextKey {
    fn from(value: &str) -> Self {
        ContextKey::new(value)
    }
}

impl From<String> for ContextKey {
    fn from(value: String) -> Self {
        ContextKey::new(value)
    }
}

/// A typed context value.
///
/// The variants cover the kinds of state IoT policy conditions typically reference:
/// booleans (presence, emergency), numbers (heart rate, battery), strings (role, ward),
/// locations and timestamps.
#[derive(Debug, Clone, PartialEq)]
pub enum ContextValue {
    /// A boolean flag, e.g. `emergency.active`.
    Bool(bool),
    /// An integer quantity, e.g. a heart rate in bpm.
    Integer(i64),
    /// A floating-point quantity, e.g. a temperature.
    Float(f64),
    /// A free-text value, e.g. a ward name or role.
    Text(String),
    /// A geographic position (latitude, longitude in degrees).
    Location {
        /// Latitude in degrees, positive north.
        latitude: f64,
        /// Longitude in degrees, positive east.
        longitude: f64,
    },
    /// A timestamp in milliseconds of simulated time.
    Timestamp(u64),
}

impl ContextValue {
    /// Returns the boolean value, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ContextValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the value as `f64` if numeric (integer, float or timestamp).
    pub fn as_number(&self) -> Option<f64> {
        match self {
            ContextValue::Integer(i) => Some(*i as f64),
            ContextValue::Float(f) => Some(*f),
            ContextValue::Timestamp(t) => Some(*t as f64),
            _ => None,
        }
    }

    /// Returns the text value, if this is `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            ContextValue::Text(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for ContextValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContextValue::Bool(b) => write!(f, "{b}"),
            ContextValue::Integer(i) => write!(f, "{i}"),
            ContextValue::Float(x) => write!(f, "{x}"),
            ContextValue::Text(s) => write!(f, "{s}"),
            ContextValue::Location { latitude, longitude } => {
                write!(f, "({latitude}, {longitude})")
            }
            ContextValue::Timestamp(t) => write!(f, "t={t}"),
        }
    }
}

impl From<bool> for ContextValue {
    fn from(value: bool) -> Self {
        ContextValue::Bool(value)
    }
}

impl From<i64> for ContextValue {
    fn from(value: i64) -> Self {
        ContextValue::Integer(value)
    }
}

impl From<f64> for ContextValue {
    fn from(value: f64) -> Self {
        ContextValue::Float(value)
    }
}

impl From<&str> for ContextValue {
    fn from(value: &str) -> Self {
        ContextValue::Text(value.to_string())
    }
}

impl From<String> for ContextValue {
    fn from(value: String) -> Self {
        ContextValue::Text(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_subject_and_attribute() {
        let k = ContextKey::new("patient.location");
        assert_eq!(k.subject(), Some("patient"));
        assert_eq!(k.attribute(), "location");
        assert_eq!(k.name(), "patient.location");
        let plain = ContextKey::new("emergency");
        assert_eq!(plain.subject(), None);
        assert_eq!(plain.attribute(), "emergency");
    }

    #[test]
    fn value_accessors() {
        assert_eq!(ContextValue::Bool(true).as_bool(), Some(true));
        assert_eq!(ContextValue::Integer(7).as_number(), Some(7.0));
        assert_eq!(ContextValue::Float(1.5).as_number(), Some(1.5));
        assert_eq!(ContextValue::Timestamp(10).as_number(), Some(10.0));
        assert_eq!(ContextValue::Text("ward-3".into()).as_text(), Some("ward-3"));
        assert_eq!(ContextValue::Bool(true).as_number(), None);
        assert_eq!(ContextValue::Integer(1).as_bool(), None);
        assert_eq!(ContextValue::Integer(1).as_text(), None);
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(ContextValue::from(true), ContextValue::Bool(true));
        assert_eq!(ContextValue::from(3i64), ContextValue::Integer(3));
        assert_eq!(ContextValue::from(2.5), ContextValue::Float(2.5));
        assert_eq!(ContextValue::from("x"), ContextValue::Text("x".into()));
        assert_eq!(ContextValue::from("x".to_string()), ContextValue::Text("x".into()));
    }

    #[test]
    fn display_forms() {
        assert_eq!(ContextValue::Bool(false).to_string(), "false");
        assert_eq!(ContextValue::Integer(4).to_string(), "4");
        assert_eq!(ContextValue::Text("home".into()).to_string(), "home");
        assert_eq!(ContextValue::Timestamp(9).to_string(), "t=9");
        assert_eq!(ContextKey::new("a.b").to_string(), "a.b");
    }

    #[test]
    fn keys_from_str_and_string() {
        let a: ContextKey = "x.y".into();
        let b: ContextKey = String::from("x.y").into();
        assert_eq!(a, b);
    }
}
