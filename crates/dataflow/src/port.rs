//! DPorts: the data ports of the extension.
//!
//! "Streamers have two kinds of ports: data ports (DPorts) and signal ports
//! (SPorts), which denoted by circle and square respectively. Data ports
//! carrying dataflow, have some kind of data type (flow type). [...] SPorts
//! convey signal message, which associated with a protocol." The model
//! keeps an SPort as its `(name, protocol)` pair; this module types DPorts.

use crate::flowtype::FlowType;
use std::fmt;

/// Dataflow direction of a DPort, relative to its owning streamer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Data flows into the streamer.
    In,
    /// Data flows out of the streamer.
    Out,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Direction::In => "in",
            Direction::Out => "out",
        })
    }
}

/// A data port: a typed, directed dataflow endpoint (drawn as a circle in
/// the paper's notation).
///
/// # Examples
///
/// ```
/// use urt_dataflow::flowtype::{FlowType, Unit};
/// use urt_dataflow::port::{DPortSpec, Direction};
///
/// let p = DPortSpec::new("speed", Direction::Out, FlowType::with_unit(Unit::MeterPerSecond));
/// assert_eq!(p.name(), "speed");
/// assert_eq!(p.flow_type().width(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DPortSpec {
    name: String,
    direction: Direction,
    flow_type: FlowType,
}

impl DPortSpec {
    /// Creates a DPort specification.
    pub fn new(name: impl Into<String>, direction: Direction, flow_type: FlowType) -> Self {
        DPortSpec { name: name.into(), direction, flow_type }
    }

    /// Port name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dataflow direction.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// The carried flow type.
    pub fn flow_type(&self) -> &FlowType {
        &self.flow_type
    }

    /// Number of scalar lanes this port carries.
    pub fn width(&self) -> usize {
        self.flow_type.width()
    }
}

impl fmt::Display for DPortSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.direction, self.name, self.flow_type)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowtype::Unit;

    #[test]
    fn dport_accessors() {
        let p = DPortSpec::new("x", Direction::In, FlowType::vector(3));
        assert_eq!(p.name(), "x");
        assert_eq!(p.direction(), Direction::In);
        assert_eq!(p.width(), 3);
        assert_eq!(p.to_string(), "in x: vec3[1]");
    }

    #[test]
    fn direction_display() {
        assert_eq!(Direction::In.to_string(), "in");
        assert_eq!(Direction::Out.to_string(), "out");
    }

    #[test]
    fn dport_with_unit() {
        let p = DPortSpec::new("t", Direction::Out, FlowType::with_unit(Unit::Kelvin));
        assert_eq!(p.flow_type(), &FlowType::Scalar(Unit::Kelvin));
    }
}
