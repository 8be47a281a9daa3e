//! Protocols: named, directed signal sets that type ports.
//!
//! A UML-RT protocol declares the signals a port may receive (`in`) and
//! send (`out`). Wiring rules match protocols by name (the model's
//! `sport-protocol` rule); the signal sets type what a port carries.

use std::fmt;

#[cfg(doc)]
use crate::value::Value;

/// Payload type a signal expects.
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
/// assert!(p.in_signal("ack").is_none(), "`ack` is outgoing");
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

    /// Looks up an incoming signal by name.
    pub fn in_signal(&self, name: &str) -> Option<&SignalSpec> {
        self.in_signals.iter().find(|s| s.name() == name)
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
    fn lookup_missing_signal() {
        let p = proto();
        assert!(p.in_signal("nope").is_none());
        assert!(p.in_signal("b").is_none(), "`b` is outgoing");
    }
}
