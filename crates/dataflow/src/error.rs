//! Errors raised while lowering or executing streamer networks.

use std::error::Error;
use std::fmt;
use urt_ode::SolveError;

/// Errors from the dataflow extension.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowError {
    /// A node or port name did not resolve.
    UnknownPort {
        /// Node name.
        node: String,
        /// Port name.
        port: String,
    },
    /// A node id was out of range.
    UnknownNode {
        /// The offending index.
        index: usize,
    },
    /// The paper's connection rule failed: the output port's flow type is
    /// not a subset of the input port's flow type.
    TypeMismatch {
        /// Source port description.
        from: String,
        /// Destination port description.
        to: String,
        /// Field-level explanation of *which* part breaks the subset
        /// (from [`crate::flowtype::FlowType::subset_failure`]).
        detail: String,
    },
    /// An input DPort has more than one incoming flow.
    MultipleWriters {
        /// Node name.
        node: String,
        /// Port name.
        port: String,
    },
    /// An input DPort has no incoming flow at execution time.
    UnconnectedInput {
        /// Node name.
        node: String,
        /// Port name.
        port: String,
    },
    /// Direct-feedthrough streamers form a cycle.
    AlgebraicLoop {
        /// Names of nodes on the cycle.
        nodes: Vec<String>,
    },
    /// A duplicate name was used where uniqueness is required.
    DuplicateName {
        /// The duplicated name.
        name: String,
    },
    /// The underlying solver failed.
    Solve(SolveError),
}

impl FlowError {
    /// Stable diagnostic code (`URT001`…`URT011`) for this error, shared
    /// with the `urt_analysis` lint registry and included in the display
    /// string so logs and tests can grep on `URTxxx` instead of prose.
    pub fn code(&self) -> &'static str {
        match self {
            FlowError::UnknownPort { .. } => "URT001",
            FlowError::UnknownNode { .. } => "URT002",
            FlowError::TypeMismatch { .. } => "URT004",
            FlowError::MultipleWriters { .. } => "URT005",
            FlowError::UnconnectedInput { .. } => "URT006",
            FlowError::AlgebraicLoop { .. } => "URT007",
            FlowError::DuplicateName { .. } => "URT010",
            FlowError::Solve(_) => "URT011",
        }
    }
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.code())?;
        match self {
            FlowError::UnknownPort { node, port } => {
                write!(f, "unknown port `{port}` on streamer `{node}`")
            }
            FlowError::UnknownNode { index } => write!(f, "unknown node index {index}"),
            FlowError::TypeMismatch { from, to, detail } => {
                write!(f, "flow type of `{from}` is not a subset of `{to}`: {detail}")
            }
            FlowError::MultipleWriters { node, port } => {
                write!(f, "input DPort `{port}` on `{node}` has multiple writers")
            }
            FlowError::UnconnectedInput { node, port } => {
                write!(f, "input DPort `{port}` on `{node}` is unconnected")
            }
            FlowError::AlgebraicLoop { nodes } => {
                write!(f, "algebraic loop through {}", nodes.join(" -> "))
            }
            FlowError::DuplicateName { name } => write!(f, "duplicate name `{name}`"),
            FlowError::Solve(e) => write!(f, "solver failure: {e}"),
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for FlowError {
    fn from(e: SolveError) -> Self {
        FlowError::Solve(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = FlowError::TypeMismatch {
            from: "a.x".into(),
            to: "b.y".into(),
            detail: "unit `m` does not match input unit `K`".into(),
        };
        assert!(e.to_string().contains("subset"));
        assert!(e.to_string().contains("unit `m`"), "field-level detail is shown");
        let e = FlowError::from(SolveError::InvalidStep { step: 0.0 });
        assert!(e.source().is_some());
        let e = FlowError::AlgebraicLoop { nodes: vec!["a".into(), "b".into()] };
        assert_eq!(e.to_string(), "URT007: algebraic loop through a -> b");
    }

    #[test]
    fn every_variant_displays_its_stable_code() {
        let cases: Vec<FlowError> = vec![
            FlowError::UnknownPort { node: "n".into(), port: "p".into() },
            FlowError::UnknownNode { index: 0 },
            FlowError::TypeMismatch { from: "a".into(), to: "b".into(), detail: "d".into() },
            FlowError::MultipleWriters { node: "n".into(), port: "p".into() },
            FlowError::UnconnectedInput { node: "n".into(), port: "p".into() },
            FlowError::AlgebraicLoop { nodes: vec![] },
            FlowError::DuplicateName { name: "n".into() },
            FlowError::Solve(SolveError::InvalidStep { step: 0.0 }),
        ];
        let mut codes = std::collections::BTreeSet::new();
        for e in &cases {
            assert!(e.to_string().starts_with(&format!("{}: ", e.code())), "{e}");
            assert!(codes.insert(e.code()), "code {} reused", e.code());
        }
    }

    #[test]
    fn send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<FlowError>();
    }
}
