//! The eight new stereotypes of the paper's Table 1, as a queryable
//! registry.
//!
//! | UML-RT construct | Extension stereotype(s) |
//! |------------------|-------------------------|
//! | capsule          | streamer                |
//! | port             | DPort, SPort            |
//! | connect          | flow, relay             |
//! | protocol         | flow type               |
//! | state machine    | solver / strategy       |
//! | time service     | Time                    |

use std::fmt;

/// One of the paper's eight extension stereotypes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stereotype {
    /// Continuous counterpart of a capsule.
    Streamer,
    /// Typed dataflow port (circle notation).
    DPort,
    /// Protocol-typed signal port (square notation).
    SPort,
    /// Typed dataflow connection between DPorts.
    Flow,
    /// Duplicates one flow into several similar flows.
    Relay,
    /// The data type carried by a flow.
    FlowType,
    /// The computation strategy replacing the state machine in streamers.
    Solver,
    /// Continuous simulation-clock variable.
    Time,
}

impl Stereotype {
    /// All eight stereotypes in Table 1 order.
    pub const ALL: [Stereotype; 8] = [
        Stereotype::Streamer,
        Stereotype::DPort,
        Stereotype::SPort,
        Stereotype::Flow,
        Stereotype::Relay,
        Stereotype::FlowType,
        Stereotype::Solver,
        Stereotype::Time,
    ];

    /// The UML-RT construct this stereotype extends (Table 1 left column).
    pub fn base_construct(self) -> &'static str {
        match self {
            Stereotype::Streamer => "capsule",
            Stereotype::DPort | Stereotype::SPort => "port",
            Stereotype::Flow | Stereotype::Relay => "connect",
            Stereotype::FlowType => "protocol",
            Stereotype::Solver => "state machine",
            Stereotype::Time => "time service",
        }
    }

    /// Extension name as printed in Table 1.
    pub fn extension_name(self) -> &'static str {
        match self {
            Stereotype::Streamer => "streamer",
            Stereotype::DPort => "DPort",
            Stereotype::SPort => "SPort",
            Stereotype::Flow => "flow",
            Stereotype::Relay => "relay",
            Stereotype::FlowType => "flow type",
            Stereotype::Solver => "state solver, strategy",
            Stereotype::Time => "Time",
        }
    }

    /// One-line semantics, paraphrasing §2 of the paper.
    pub fn semantics(self) -> &'static str {
        match self {
            Stereotype::Streamer => {
                "capsule-like object whose behaviour is a solver computing equations; may contain sub-streamers, never capsules"
            }
            Stereotype::DPort => {
                "data port carrying typed dataflow; on capsules only ever a relay port"
            }
            Stereotype::SPort => {
                "signal port with an associated protocol; the streamer/capsule bridge"
            }
            Stereotype::Flow => {
                "dataflow connection; the output flow type must be a subset of the input flow type"
            }
            Stereotype::Relay => "relay point generating two similar flows from a flow",
            Stereotype::FlowType => "the data type of a DPort's flow",
            Stereotype::Solver => {
                "receives signals and data, modifies parameters, computes equations, sends results"
            }
            Stereotype::Time => "continuous variable usable as the simulation clock",
        }
    }

    /// The module in this repository that implements the stereotype.
    pub fn implemented_in(self) -> &'static str {
        match self {
            Stereotype::Streamer => "urt_dataflow::streamer",
            Stereotype::DPort | Stereotype::SPort => "urt_dataflow::port",
            Stereotype::Flow => "urt_dataflow::graph::StepPlan::lower",
            Stereotype::Relay => "urt_core::elaborate::elaborate",
            Stereotype::FlowType => "urt_dataflow::flowtype",
            Stereotype::Solver => "urt_ode::solver",
            Stereotype::Time => "urt_core::time",
        }
    }
}

impl fmt::Display for Stereotype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.extension_name())
    }
}

/// Renders Table 1 of the paper ("New stereotypes comparing with UML-RT")
/// from the registry, grouped by base construct.
///
/// # Examples
///
/// ```
/// let table = urt_core::stereotype::render_table1();
/// assert!(table.contains("streamer"));
/// assert!(table.contains("DPort, SPort"));
/// ```
pub fn render_table1() -> String {
    let rows: [(&str, Vec<Stereotype>); 6] = [
        ("capsule", vec![Stereotype::Streamer]),
        ("port", vec![Stereotype::DPort, Stereotype::SPort]),
        ("connect", vec![Stereotype::Flow, Stereotype::Relay]),
        ("protocol", vec![Stereotype::FlowType]),
        ("state machine", vec![Stereotype::Solver]),
        ("Time service", vec![Stereotype::Time]),
    ];
    let mut out = String::from("| UML-RT         | Extension               |\n");
    out.push_str("|----------------|-------------------------|\n");
    for (base, exts) in rows {
        let ext: Vec<&str> = exts.iter().map(|s| s.extension_name()).collect();
        out.push_str(&format!("| {:<14} | {:<23} |\n", base, ext.join(", ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_eight_stereotypes() {
        assert_eq!(Stereotype::ALL.len(), 8, "the paper introduces eight new stereotypes");
        let mut names: Vec<&str> = Stereotype::ALL.iter().map(|s| s.extension_name()).collect();
        names.dedup();
        assert_eq!(names.len(), 8, "all distinct");
    }

    #[test]
    fn base_constructs_match_table1() {
        assert_eq!(Stereotype::Streamer.base_construct(), "capsule");
        assert_eq!(Stereotype::DPort.base_construct(), "port");
        assert_eq!(Stereotype::SPort.base_construct(), "port");
        assert_eq!(Stereotype::Flow.base_construct(), "connect");
        assert_eq!(Stereotype::Relay.base_construct(), "connect");
        assert_eq!(Stereotype::FlowType.base_construct(), "protocol");
        assert_eq!(Stereotype::Solver.base_construct(), "state machine");
        assert_eq!(Stereotype::Time.base_construct(), "time service");
    }

    #[test]
    fn every_stereotype_is_implemented_somewhere() {
        for s in Stereotype::ALL {
            assert!(s.implemented_in().contains("urt_"), "{s} lacks an implementation pointer");
            assert!(!s.semantics().is_empty());
        }
    }

    #[test]
    fn table_rendering_covers_all_rows() {
        let t = render_table1();
        for base in ["capsule", "port", "connect", "protocol", "state machine", "Time service"] {
            assert!(t.contains(base), "missing row {base}");
        }
        for s in Stereotype::ALL {
            // The solver row prints the composite Table-1 cell text.
            let cell = s.extension_name();
            assert!(t.contains(cell), "missing stereotype {cell}");
        }
        assert_eq!(t.lines().count(), 8, "header + separator + six rows");
    }

    #[test]
    fn display_uses_extension_name() {
        assert_eq!(Stereotype::FlowType.to_string(), "flow type");
        assert_eq!(Stereotype::Time.to_string(), "Time");
    }
}
