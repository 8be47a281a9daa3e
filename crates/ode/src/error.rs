//! Error type shared by all numerical routines in this crate.

use std::error::Error;
use std::fmt;

/// Error raised by solvers and systems.
///
/// # Examples
///
/// ```
/// use urt_ode::SolveError;
///
/// let err = SolveError::DimensionMismatch { expected: 2, found: 3 };
/// assert!(err.to_string().contains("dimension"));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolveError {
    /// A state or derivative buffer had the wrong length.
    DimensionMismatch {
        /// Dimension the system declares.
        expected: usize,
        /// Dimension actually supplied.
        found: usize,
    },
    /// The step size was zero, negative, or not finite.
    InvalidStep {
        /// The offending step size.
        step: f64,
    },
    /// A state component became NaN or infinite during integration.
    NonFiniteState {
        /// Simulation time at which the state diverged.
        time: f64,
    },
    /// An adaptive solver could not meet its tolerance above its minimum
    /// step size.
    StepSizeUnderflow {
        /// Simulation time at which control gave up.
        time: f64,
        /// Step size at which control gave up.
        step: f64,
    },
    /// An iterative (implicit) method failed to converge.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// An event function never bracketed a root it reported.
    EventNotBracketed,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::DimensionMismatch { expected, found } => {
                write!(f, "state dimension mismatch: expected {expected}, found {found}")
            }
            SolveError::InvalidStep { step } => {
                write!(f, "invalid integration step size {step}")
            }
            SolveError::NonFiniteState { time } => {
                write!(f, "state became non-finite at t = {time}")
            }
            SolveError::StepSizeUnderflow { time, step } => {
                write!(f, "adaptive step size underflow at t = {time} (h = {step})")
            }
            SolveError::NoConvergence { iterations } => {
                write!(f, "implicit iteration failed to converge after {iterations} iterations")
            }
            SolveError::EventNotBracketed => {
                write!(f, "event root was not bracketed by the step")
            }
        }
    }
}

impl Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let cases: Vec<SolveError> = vec![
            SolveError::DimensionMismatch { expected: 1, found: 2 },
            SolveError::InvalidStep { step: 0.0 },
            SolveError::NonFiniteState { time: 1.0 },
            SolveError::StepSizeUnderflow { time: 1.0, step: 1e-18 },
            SolveError::NoConvergence { iterations: 50 },
            SolveError::EventNotBracketed,
        ];
        for c in cases {
            let msg = c.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase() || msg.starts_with("state"));
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn is_std_error_send_sync() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<SolveError>();
    }
}
