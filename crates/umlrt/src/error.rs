//! Runtime error type.

use std::error::Error;
use std::fmt;

/// Errors raised by the UML-RT runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RtError {
    /// A state name was used twice or a referenced state does not exist.
    UnknownState {
        /// The offending state name.
        name: String,
    },
    /// A state machine was built without an initial transition.
    MissingInitial,
    /// Duplicate state name in a builder.
    DuplicateState {
        /// The duplicated state name.
        name: String,
    },
    /// A capsule index passed to the controller does not exist.
    UnknownCapsule {
        /// The offending capsule index.
        index: usize,
    },
    /// The controller was started twice or driven before `start`.
    BadLifecycle {
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::UnknownState { name } => write!(f, "unknown state `{name}`"),
            RtError::MissingInitial => write!(f, "state machine has no initial transition"),
            RtError::DuplicateState { name } => write!(f, "duplicate state `{name}`"),
            RtError::UnknownCapsule { index } => write!(f, "unknown capsule index {index}"),
            RtError::BadLifecycle { detail } => write!(f, "bad lifecycle: {detail}"),
        }
    }
}

impl Error for RtError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(RtError::UnknownState { name: "x".into() }.to_string(), "unknown state `x`");
        assert!(RtError::MissingInitial.to_string().contains("initial"));
        assert!(RtError::UnknownCapsule { index: 3 }.to_string().contains('3'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<RtError>();
    }
}
