//! Protocols: named, directed signal sets that type ports.
//!
//! A UML-RT protocol declares the signals a port may receive (`in`) and
//! send (`out`). Wiring rules match protocols by name (the model's
//! `sport-protocol` rule); the signal sets type what a port carries.

use crate::value::Value;
use std::fmt;

/// Payload type a signal expects, checked loosely at send time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum PayloadKind {
    /// No payload.
    #[default]
    Empty,
    /// [`Value::Bool`].
    Bool,
    /// [`Value::Int`].
    Int,
    /// [`Value::Real`].
    Real,
    /// [`Value::Vector`].
    Vector,
    /// [`Value::Text`].
    Text,
    /// Any payload accepted.
    Any,
}

impl PayloadKind {
    /// Whether `value` conforms to this payload kind.
    pub fn accepts(self, value: &Value) -> bool {
        matches!(
            (self, value),
            (PayloadKind::Any, _)
                | (PayloadKind::Empty, Value::Empty)
                | (PayloadKind::Bool, Value::Bool(_))
                | (PayloadKind::Int, Value::Int(_))
                | (PayloadKind::Real, Value::Real(_))
                | (PayloadKind::Vector, Value::Vector(_))
                | (PayloadKind::Text, Value::Text(_))
        )
    }
}

/// A named signal with an expected payload kind.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SignalSpec {
    name: String,
    payload: PayloadKind,
}

impl SignalSpec {
    /// Creates a signal spec.
    pub fn new(name: impl Into<String>, payload: PayloadKind) -> Self {
        SignalSpec { name: name.into(), payload }
    }

    /// The signal name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The expected payload kind.
    pub fn payload(&self) -> PayloadKind {
        self.payload
    }
}

/// A protocol: the set of incoming and outgoing signals a port supports.
///
/// # Examples
///
/// ```
/// use urt_umlrt::protocol::{PayloadKind, Protocol};
///
/// let p = Protocol::new("ControlCmd")
///     .with_in("setpoint", PayloadKind::Real)
///     .with_out("ack", PayloadKind::Empty);
/// assert_eq!(p.in_signal("setpoint").map(|s| s.payload()), Some(PayloadKind::Real));
/// assert!(p.out_signal("ack").is_some());
/// assert_eq!(p.to_string(), "ControlCmd");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Protocol {
    name: String,
    in_signals: Vec<SignalSpec>,
    out_signals: Vec<SignalSpec>,
}

impl Protocol {
    /// Creates an empty protocol.
    pub fn new(name: impl Into<String>) -> Self {
        Protocol { name: name.into(), in_signals: Vec::new(), out_signals: Vec::new() }
    }

    /// Adds an incoming signal (builder style).
    pub fn with_in(mut self, name: impl Into<String>, payload: PayloadKind) -> Self {
        self.in_signals.push(SignalSpec::new(name, payload));
        self
    }

    /// Adds an outgoing signal (builder style).
    pub fn with_out(mut self, name: impl Into<String>, payload: PayloadKind) -> Self {
        self.out_signals.push(SignalSpec::new(name, payload));
        self
    }

    /// Protocol name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Signals this protocol can receive.
    pub fn in_signals(&self) -> &[SignalSpec] {
        &self.in_signals
    }

    /// Signals this protocol can send.
    pub fn out_signals(&self) -> &[SignalSpec] {
        &self.out_signals
    }

    /// Looks up an incoming signal by name.
    pub fn in_signal(&self, name: &str) -> Option<&SignalSpec> {
        self.in_signals.iter().find(|s| s.name() == name)
    }

    /// Looks up an outgoing signal by name.
    pub fn out_signal(&self, name: &str) -> Option<&SignalSpec> {
        self.out_signals.iter().find(|s| s.name() == name)
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proto() -> Protocol {
        Protocol::new("P").with_in("a", PayloadKind::Real).with_out("b", PayloadKind::Empty)
    }

    #[test]
    fn payload_kinds_accept_values() {
        assert!(PayloadKind::Real.accepts(&Value::Real(1.0)));
        assert!(!PayloadKind::Real.accepts(&Value::Int(1)));
        assert!(PayloadKind::Any.accepts(&Value::Text("x".into())));
        assert!(PayloadKind::Empty.accepts(&Value::Empty));
        assert!(PayloadKind::Vector.accepts(&Value::Vector(vec![])));
        assert!(!PayloadKind::Bool.accepts(&Value::Empty));
    }

    #[test]
    fn lookup_missing_signal() {
        let p = proto();
        assert!(p.in_signal("nope").is_none());
        assert!(p.out_signal("a").is_none());
    }
}
