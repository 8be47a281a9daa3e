//! Numerical substrate for the time-continuous half of the unified model.
//!
//! The DATE 2005 paper extends UML-RT with *streamers* whose behaviour "is
//! carried out by solvers through computing the equations". This crate is
//! that solver layer, built from scratch:
//!
//! * [`system`] — continuous systems described by differential equations
//!   (`dx/dt = f(t, x, u)`).
//! * [`solver`] — integration strategies (the *strategy* stereotype of the
//!   paper's Figure 1): explicit Euler, Heun, classic RK4, adaptive
//!   Dormand–Prince RK45 and a fixed-point backward Euler.
//! * [`difference`] — time-discrete systems described by difference
//!   equations, which UML-RT can already host inside capsule actions.
//! * [`events`] — zero-crossing detection and bisection localisation, the
//!   mechanism by which continuous trajectories raise discrete signals.
//! * [`linalg`] — small dense matrices with LU decomposition, enough for
//!   state-space models.
//! * [`state`] — the state-vector type shared by all of the above.
//!
//! # Examples
//!
//! Integrate exponential decay with RK4:
//!
//! ```
//! use urt_ode::{solver::{Rk4, Solver}, system::FnSystem, integrate};
//!
//! # fn main() -> Result<(), urt_ode::SolveError> {
//! let sys = FnSystem::new(1, |_t, x, dx| dx[0] = -x[0]);
//! let traj = integrate(&sys, &mut Rk4::new(), 0.0, 1.0, &[1.0], 0.01)?;
//! let x1 = traj.last_state()[0];
//! assert!((x1 - (-1.0f64).exp()).abs() < 1e-8);
//! # Ok(())
//! # }
//! ```

pub mod difference;
pub mod error;
pub mod events;
pub mod hybrid;
pub mod linalg;
pub mod rng;
pub mod solver;
pub mod state;
pub mod system;

pub use error::SolveError;
pub use events::{EventDirection, ZeroCrossing};
pub use solver::{Solver, SolverKind, StepOutcome};
pub use state::StateVec;
pub use system::{AffineSystem, BatchOdeSystem, FnSystem, LinearSystem, OdeSystem};

use solver::SolverDriver;

/// A recorded trajectory: sampled times and the matching state vectors.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trajectory {
    times: Vec<f64>,
    states: Vec<StateVec>,
}

impl Trajectory {
    /// Creates an empty trajectory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not strictly greater than the previously pushed time.
    pub fn push(&mut self, t: f64, x: StateVec) {
        if let Some(&last) = self.times.last() {
            assert!(t > last, "trajectory times must be strictly increasing");
        }
        self.times.push(t);
        self.states.push(x);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the trajectory holds no samples.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Sampled times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sampled states, parallel to [`Trajectory::times`].
    pub fn states(&self) -> &[StateVec] {
        &self.states
    }

    /// The final state.
    ///
    /// # Panics
    ///
    /// Panics if the trajectory is empty.
    pub fn last_state(&self) -> &StateVec {
        self.states.last().expect("trajectory is empty")
    }

    /// The final time.
    ///
    /// # Panics
    ///
    /// Panics if the trajectory is empty.
    pub fn last_time(&self) -> f64 {
        *self.times.last().expect("trajectory is empty")
    }

    /// Iterates over `(t, state)` samples.
    pub fn iter(&self) -> impl Iterator<Item = (f64, &StateVec)> {
        self.times.iter().copied().zip(self.states.iter())
    }

    /// Linear interpolation of the state at time `t`, clamped to the
    /// recorded range.
    ///
    /// # Panics
    ///
    /// Panics if the trajectory is empty.
    pub fn sample(&self, t: f64) -> StateVec {
        assert!(!self.is_empty(), "cannot sample an empty trajectory");
        if t <= self.times[0] {
            return self.states[0].clone();
        }
        if t >= *self.times.last().unwrap() {
            return self.states.last().unwrap().clone();
        }
        let idx = match self.times.binary_search_by(|probe| probe.partial_cmp(&t).unwrap()) {
            Ok(i) => return self.states[i].clone(),
            Err(i) => i,
        };
        let (t0, t1) = (self.times[idx - 1], self.times[idx]);
        let alpha = (t - t0) / (t1 - t0);
        self.states[idx - 1].lerp(&self.states[idx], alpha)
    }
}

/// Integrates `sys` from `t0` to `t1` starting at `x0` with nominal step
/// `h`, recording every accepted step.
///
/// The last step is shortened so the trajectory ends exactly at `t1`.
///
/// # Errors
///
/// Returns [`SolveError`] if the solver rejects the problem (e.g. dimension
/// mismatch or a non-finite state).
///
/// # Examples
///
/// ```
/// use urt_ode::{integrate, solver::ForwardEuler, system::FnSystem};
/// # fn main() -> Result<(), urt_ode::SolveError> {
/// let sys = FnSystem::new(1, |_t, x, dx| dx[0] = -x[0]);
/// let traj = integrate(&sys, &mut ForwardEuler::new(), 0.0, 0.5, &[1.0], 0.01)?;
/// assert!(traj.last_state()[0] < 1.0);
/// # Ok(())
/// # }
/// ```
pub fn integrate<S: Solver + ?Sized>(
    sys: &dyn OdeSystem,
    solver: &mut S,
    t0: f64,
    t1: f64,
    x0: &[f64],
    h: f64,
) -> Result<Trajectory, SolveError> {
    let mut driver = SolverDriver::new(t0, x0, h)?;
    let mut traj = Trajectory::new();
    traj.push(t0, StateVec::from_slice(x0));
    while driver.time() < t1 {
        driver.advance(sys, solver, t1)?;
        traj.push(driver.time(), driver.state().clone());
    }
    Ok(traj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{ForwardEuler, Rk4};

    fn decay() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(1, |_t, x: &[f64], dx: &mut [f64]| dx[0] = -x[0])
    }

    #[test]
    fn trajectory_push_and_sample() {
        let mut traj = Trajectory::new();
        traj.push(0.0, StateVec::from_slice(&[0.0]));
        traj.push(1.0, StateVec::from_slice(&[2.0]));
        assert_eq!(traj.len(), 2);
        assert!((traj.sample(0.5)[0] - 1.0).abs() < 1e-12);
        assert_eq!(traj.sample(-1.0)[0], 0.0);
        assert_eq!(traj.sample(9.0)[0], 2.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn trajectory_rejects_nonmonotonic_times() {
        let mut traj = Trajectory::new();
        traj.push(1.0, StateVec::from_slice(&[0.0]));
        traj.push(1.0, StateVec::from_slice(&[0.0]));
    }

    #[test]
    fn integrate_euler_decays() {
        let traj = integrate(&decay(), &mut ForwardEuler::new(), 0.0, 1.0, &[1.0], 1e-3)
            .expect("integration succeeds");
        let exact = (-1.0f64).exp();
        assert!((traj.last_state()[0] - exact).abs() < 1e-3);
        assert!((traj.last_time() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn integrate_rk4_is_much_more_accurate_than_euler() {
        let h = 0.05;
        let e = integrate(&decay(), &mut ForwardEuler::new(), 0.0, 1.0, &[1.0], h).unwrap();
        let r = integrate(&decay(), &mut Rk4::new(), 0.0, 1.0, &[1.0], h).unwrap();
        let exact = (-1.0f64).exp();
        let err_e = (e.last_state()[0] - exact).abs();
        let err_r = (r.last_state()[0] - exact).abs();
        assert!(err_r < err_e / 100.0, "rk4 {err_r} vs euler {err_e}");
    }

    #[test]
    fn integrate_ends_exactly_at_t1() {
        // Step that does not divide the interval evenly.
        let traj = integrate(&decay(), &mut Rk4::new(), 0.0, 1.0, &[1.0], 0.3).unwrap();
        assert!((traj.last_time() - 1.0).abs() < 1e-12);
    }
}
