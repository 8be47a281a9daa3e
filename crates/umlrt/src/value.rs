//! Message payloads.

use std::fmt;

/// Payload carried by a signal [`Message`](crate::message::Message).
///
/// UML-RT signals may carry arbitrary data classes; this runtime offers the
/// closed set a control system needs. DPort dataflow in the streamer
/// extension uses `Real`/`Vector`, while pure events use `Empty`.
///
/// # Examples
///
/// ```
/// use urt_umlrt::value::Value;
///
/// let v = Value::Real(3.5);
/// assert_eq!(v.as_real(), Some(3.5));
/// assert_eq!(Value::Empty.as_real(), None);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub enum Value {
    /// No payload (pure event).
    #[default]
    Empty,
    /// Boolean flag.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Double-precision scalar.
    Real(f64),
    /// Vector of scalars (a frame of dataflow samples).
    Vector(Vec<f64>),
    /// Text payload (labels, diagnostics).
    Text(String),
}

impl Value {
    /// Returns the scalar if the payload is `Real` (or an `Int`, widened).
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Real(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the integer if the payload is `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the text if the payload is `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Short type tag used in traces and generated code.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Empty => "empty",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Real(_) => "real",
            Value::Vector(_) => "vector",
            Value::Text(_) => "text",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Empty => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Real(v) => write!(f, "{v}"),
            Value::Vector(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
            Value::Text(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}

impl From<Vec<f64>> for Value {
    fn from(v: Vec<f64>) -> Self {
        Value::Vector(v)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::Real(1.5).as_real(), Some(1.5));
        assert_eq!(Value::Int(2).as_real(), Some(2.0));
        assert_eq!(Value::Int(2).as_int(), Some(2));
        assert_eq!(Value::Text("hi".into()).as_text(), Some("hi"));
        assert_eq!(Value::Empty.as_real(), None);
        assert_eq!(Value::Real(1.0).as_int(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Empty.to_string(), "()");
        assert_eq!(Value::Real(2.5).to_string(), "2.5");
        assert_eq!(Value::Vector(vec![1.0, 2.0]).to_string(), "[1, 2]");
        assert_eq!(Value::Text("a".into()).to_string(), "\"a\"");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3.0f64), Value::Real(3.0));
        assert_eq!(Value::from(vec![1.0]), Value::Vector(vec![1.0]));
        assert_eq!(Value::from("x"), Value::Text("x".into()));
    }

    #[test]
    fn kinds() {
        assert_eq!(Value::Empty.kind(), "empty");
        assert_eq!(Value::Vector(vec![]).kind(), "vector");
    }
}
