//! Continuous systems: `dx/dt = f(t, x)` and the input-carrying variant
//! `dx/dt = f(t, x, u)` used by streamers whose equations read DPort data.
//!
//! Systems the batched kernels in [`crate::solver`] step many lanes of at
//! once additionally implement [`BatchOdeSystem`].

use crate::error::SolveError;
use crate::linalg::Matrix;
use crate::solver::ExplicitScheme;

/// A first-order system of ordinary differential equations.
///
/// Implementors describe `dx/dt = f(t, x)`. The trait is object-safe so a
/// streamer can hold its equations as `Box<dyn OdeSystem>` and swap solver
/// strategies independently (the paper's Figure 1).
///
/// # Examples
///
/// ```
/// use urt_ode::system::{FnSystem, OdeSystem};
///
/// let sys = FnSystem::new(2, |_t, x, dx| {
///     dx[0] = x[1];
///     dx[1] = -x[0];
/// });
/// let mut dx = [0.0; 2];
/// sys.derivatives(0.0, &[1.0, 0.0], &mut dx);
/// assert_eq!(dx, [0.0, -1.0]);
/// ```
pub trait OdeSystem {
    /// Dimension of the state vector.
    fn dim(&self) -> usize;

    /// Writes `f(t, x)` into `dx`.
    ///
    /// Callers guarantee `x.len() == dx.len() == self.dim()`.
    fn derivatives(&self, t: f64, x: &[f64], dx: &mut [f64]);

    /// Validates that a state buffer matches this system's dimension.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DimensionMismatch`] when lengths differ.
    fn check_dim(&self, x: &[f64]) -> Result<(), SolveError> {
        if x.len() == self.dim() {
            Ok(())
        } else {
            Err(SolveError::DimensionMismatch { expected: self.dim(), found: x.len() })
        }
    }
}

/// An [`OdeSystem`] whose instance-major lanes a batched solver kernel
/// steps in one call: the system side of
/// [`Solver::step_batch`](crate::solver::Solver::step_batch).
///
/// The default steps every lane through [`OdeSystem::derivatives`], so
/// any system batches bit-identically to its scalar path. A system whose
/// lanes differ, such as an ensemble row holding each instance's own
/// parameters, overrides [`BatchOdeSystem::step_lanes`] to hand each lane
/// its own derivative.
///
/// # Examples
///
/// ```
/// use urt_ode::solver::{Rk4, Solver};
/// use urt_ode::system::library::HarmonicOscillator;
///
/// # fn main() -> Result<(), urt_ode::SolveError> {
/// let sys = HarmonicOscillator { omega: 1.0 };
/// // Two instance-major lanes: x = [1, 0] and x = [0, 1].
/// let mut states = [1.0, 0.0, 0.0, 1.0];
/// Rk4::new().step_batch(&sys, 0.0, &mut states, 2, 0.1)?;
/// let mut lane = [0.0, 1.0];
/// Rk4::new().step(&sys, 0.0, &mut lane, 0.1)?;
/// assert_eq!(states[2..], lane);
/// # Ok(())
/// # }
/// ```
pub trait BatchOdeSystem: OdeSystem {
    /// Advances the `states.len() / dim` instance-major lanes of `states`
    /// (lane `i` at `[i * dim..(i + 1) * dim]`) by one step `h` of
    /// `scheme` from `t`.
    ///
    /// Every implementation runs [`ExplicitScheme::step_lanes`], the
    /// scheme's own stage arithmetic four lanes at a time, so each lane
    /// stays bit-identical to a scalar
    /// [`Solver::step`](crate::solver::Solver::step). The scheme hands
    /// one lane-indexed derivative `f(i, t, x, dx)` the lane's index: the
    /// default ignores it and gives every lane [`OdeSystem::derivatives`];
    /// an override gives lane `i` its own. `scratch` is the solver's
    /// persistent buffer of at least [`ExplicitScheme::scratch_len`]
    /// values, for lanes too wide for local arrays.
    fn step_lanes(
        &self,
        scheme: ExplicitScheme,
        t: f64,
        states: &mut [f64],
        dim: usize,
        h: f64,
        scratch: &mut [f64],
    ) {
        scheme.step_lanes(t, states, dim, h, scratch, |_, t, x: &[f64], dx: &mut [f64]| {
            self.derivatives(t, x, dx)
        });
    }
}

/// An [`OdeSystem`] built from a closure.
///
/// # Examples
///
/// ```
/// use urt_ode::system::FnSystem;
///
/// // Logistic growth: dx/dt = x (1 - x).
/// let logistic = FnSystem::new(1, |_t, x, dx| dx[0] = x[0] * (1.0 - x[0]));
/// ```
#[derive(Debug, Clone)]
pub struct FnSystem<F> {
    dim: usize,
    f: F,
}

impl<F: Fn(f64, &[f64], &mut [f64])> FnSystem<F> {
    /// Wraps closure `f` computing derivatives for a `dim`-dimensional state.
    pub fn new(dim: usize, f: F) -> Self {
        FnSystem { dim, f }
    }
}

impl<F: Fn(f64, &[f64], &mut [f64])> OdeSystem for FnSystem<F> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn derivatives(&self, t: f64, x: &[f64], dx: &mut [f64]) {
        (self.f)(t, x, dx)
    }
}

impl<F: Fn(f64, &[f64], &mut [f64])> BatchOdeSystem for FnSystem<F> {}

/// A linear time-invariant system `x' = A x`.
///
/// # Examples
///
/// ```
/// use urt_ode::linalg::Matrix;
/// use urt_ode::system::LinearSystem;
///
/// // x' = [[0, 1], [-1, 0]] x — the unit harmonic oscillator.
/// let sys = LinearSystem::new(Matrix::from_rows(&[&[0.0, 1.0], &[-1.0, 0.0]]));
/// assert_eq!(sys.matrix().rows(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSystem {
    a: Matrix,
}

impl LinearSystem {
    /// Wraps the square system matrix `A`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn new(a: Matrix) -> Self {
        assert!(a.is_square(), "system matrix must be square");
        LinearSystem { a }
    }

    /// The system matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.a
    }
}

impl OdeSystem for LinearSystem {
    fn dim(&self) -> usize {
        self.a.rows()
    }

    fn derivatives(&self, _t: f64, x: &[f64], dx: &mut [f64]) {
        for (v, out) in dx.iter_mut().enumerate().take(self.a.rows()) {
            let mut acc = 0.0;
            for (j, xj) in x.iter().enumerate().take(self.a.cols()) {
                acc += self.a[(v, j)] * xj;
            }
            *out = acc;
        }
    }
}

impl BatchOdeSystem for LinearSystem {}

/// An affine system `x' = A x + b` (a linear system with a constant
/// drift).
///
/// # Examples
///
/// ```
/// use urt_ode::linalg::Matrix;
/// use urt_ode::system::{AffineSystem, OdeSystem};
///
/// // x' = -x + 1: settles at x = 1.
/// let sys = AffineSystem::new(Matrix::from_rows(&[&[-1.0]]), vec![1.0]);
/// let mut dx = [0.0];
/// sys.derivatives(0.0, &[1.0], &mut dx);
/// assert_eq!(dx[0], 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AffineSystem {
    a: Matrix,
    b: Vec<f64>,
}

impl AffineSystem {
    /// Wraps `A` and the drift vector `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square or `b.len() != a.rows()`.
    pub fn new(a: Matrix, b: Vec<f64>) -> Self {
        assert!(a.is_square(), "system matrix must be square");
        assert_eq!(b.len(), a.rows(), "drift dimension mismatch");
        AffineSystem { a, b }
    }

    /// The system matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.a
    }

    /// The drift vector.
    pub fn drift(&self) -> &[f64] {
        &self.b
    }
}

impl OdeSystem for AffineSystem {
    fn dim(&self) -> usize {
        self.a.rows()
    }

    fn derivatives(&self, _t: f64, x: &[f64], dx: &mut [f64]) {
        for (v, out) in dx.iter_mut().enumerate().take(self.a.rows()) {
            let mut acc = self.b[v];
            for (j, xj) in x.iter().enumerate().take(self.a.cols()) {
                acc += self.a[(v, j)] * xj;
            }
            *out = acc;
        }
    }
}

impl BatchOdeSystem for AffineSystem {}

/// A system with an exogenous input vector `u`: `dx/dt = f(t, x, u)`.
///
/// This is the shape a streamer's equations take: `u` is whatever arrived
/// on its input DPorts, frozen for the duration of a step.
pub trait InputSystem {
    /// Dimension of the state vector.
    fn dim(&self) -> usize;

    /// Dimension of the input vector.
    fn input_dim(&self) -> usize;

    /// Writes `f(t, x, u)` into `dx`.
    fn derivatives(&self, t: f64, x: &[f64], u: &[f64], dx: &mut [f64]);

    /// Optional output map `y = g(t, x, u)`; defaults to `y = x`.
    fn output(&self, _t: f64, x: &[f64], _u: &[f64], y: &mut [f64]) {
        y.copy_from_slice(x);
    }

    /// Dimension of the output vector; defaults to the state dimension.
    fn output_dim(&self) -> usize {
        self.dim()
    }
}

/// An [`InputSystem`] built from a derivative closure (identity output map).
#[derive(Debug, Clone)]
pub struct FnInputSystem<F> {
    dim: usize,
    input_dim: usize,
    f: F,
}

impl<F: Fn(f64, &[f64], &[f64], &mut [f64])> FnInputSystem<F> {
    /// Wraps closure `f(t, x, u, dx)`.
    pub fn new(dim: usize, input_dim: usize, f: F) -> Self {
        FnInputSystem { dim, input_dim, f }
    }
}

impl<F: Fn(f64, &[f64], &[f64], &mut [f64])> InputSystem for FnInputSystem<F> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn derivatives(&self, t: f64, x: &[f64], u: &[f64], dx: &mut [f64]) {
        (self.f)(t, x, u, dx)
    }
}

/// Adapts an [`InputSystem`] plus a frozen input vector into an
/// [`OdeSystem`], the form integration strategies consume.
///
/// During one solver macro-step the paper's streamer semantics hold DPort
/// inputs constant; this adapter encodes exactly that freeze.
#[derive(Debug)]
pub struct FrozenInput<'a, S: ?Sized> {
    system: &'a S,
    input: &'a [f64],
}

impl<'a, S: InputSystem + ?Sized> FrozenInput<'a, S> {
    /// Freezes `input` over `system`.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != system.input_dim()`.
    pub fn new(system: &'a S, input: &'a [f64]) -> Self {
        assert_eq!(input.len(), system.input_dim(), "frozen input dimension mismatch");
        FrozenInput { system, input }
    }
}

impl<S: InputSystem + ?Sized> OdeSystem for FrozenInput<'_, S> {
    fn dim(&self) -> usize {
        self.system.dim()
    }

    fn derivatives(&self, t: f64, x: &[f64], dx: &mut [f64]) {
        self.system.derivatives(t, x, self.input, dx)
    }
}

// Every lane shares the same frozen `u`.
impl<S: InputSystem + ?Sized> BatchOdeSystem for FrozenInput<'_, S> {}

/// Library of classic benchmark systems used across tests, examples and the
/// E1 solver-accuracy experiment.
pub mod library {
    use super::{BatchOdeSystem, FnSystem, OdeSystem};

    /// Harmonic oscillator `x'' = -omega^2 x` as a first-order pair.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct HarmonicOscillator {
        /// Angular frequency (rad/s).
        pub omega: f64,
    }

    impl OdeSystem for HarmonicOscillator {
        #[inline]
        fn dim(&self) -> usize {
            2
        }

        #[inline]
        fn derivatives(&self, _t: f64, x: &[f64], dx: &mut [f64]) {
            dx[0] = x[1];
            dx[1] = -self.omega * self.omega * x[0];
        }
    }

    impl BatchOdeSystem for HarmonicOscillator {}

    /// Van der Pol oscillator, the standard mildly-stiff test problem.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct VanDerPol {
        /// Nonlinearity parameter `mu >= 0`.
        pub mu: f64,
    }

    impl OdeSystem for VanDerPol {
        #[inline]
        fn dim(&self) -> usize {
            2
        }

        #[inline]
        fn derivatives(&self, _t: f64, x: &[f64], dx: &mut [f64]) {
            dx[0] = x[1];
            dx[1] = self.mu * (1.0 - x[0] * x[0]) * x[1] - x[0];
        }
    }

    impl BatchOdeSystem for VanDerPol {}

    /// Damped pendulum `theta'' = -(g/l) sin theta - c theta'`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Pendulum {
        /// Gravity (m/s^2).
        pub gravity: f64,
        /// Rod length (m).
        pub length: f64,
        /// Viscous damping coefficient.
        pub damping: f64,
    }

    impl Default for Pendulum {
        fn default() -> Self {
            Pendulum { gravity: 9.81, length: 1.0, damping: 0.0 }
        }
    }

    impl OdeSystem for Pendulum {
        #[inline]
        fn dim(&self) -> usize {
            2
        }

        #[inline]
        fn derivatives(&self, _t: f64, x: &[f64], dx: &mut [f64]) {
            dx[0] = x[1];
            dx[1] = -(self.gravity / self.length) * x[0].sin() - self.damping * x[1];
        }
    }

    impl BatchOdeSystem for Pendulum {}

    /// Exponential decay `x' = -lambda x`, with a closed-form solution.
    pub fn decay(lambda: f64) -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(1, move |_t, x: &[f64], dx: &mut [f64]| dx[0] = -lambda * x[0])
    }
}

#[cfg(test)]
mod tests {
    use super::library::*;
    use super::*;

    #[test]
    fn fn_system_evaluates() {
        let sys = FnSystem::new(1, |t, _x, dx: &mut [f64]| dx[0] = t);
        let mut dx = [0.0];
        sys.derivatives(2.5, &[0.0], &mut dx);
        assert_eq!(dx[0], 2.5);
        assert_eq!(sys.dim(), 1);
    }

    #[test]
    fn check_dim_reports_mismatch() {
        let sys = FnSystem::new(2, |_t, _x, _dx: &mut [f64]| {});
        assert!(sys.check_dim(&[0.0, 0.0]).is_ok());
        let err = sys.check_dim(&[0.0]).unwrap_err();
        assert_eq!(err, crate::SolveError::DimensionMismatch { expected: 2, found: 1 });
    }

    #[test]
    fn frozen_input_holds_u_constant() {
        let plant = FnInputSystem::new(1, 1, |_t, x: &[f64], u: &[f64], dx: &mut [f64]| {
            dx[0] = u[0] - x[0];
        });
        let u = [3.0];
        let frozen = FrozenInput::new(&plant, &u);
        let mut dx = [0.0];
        frozen.derivatives(0.0, &[1.0], &mut dx);
        assert_eq!(dx[0], 2.0);
    }

    #[test]
    #[should_panic(expected = "frozen input dimension mismatch")]
    fn frozen_input_checks_dimension() {
        let plant = FnInputSystem::new(1, 2, |_t, _x: &[f64], _u: &[f64], _dx: &mut [f64]| {});
        let u = [1.0];
        let _ = FrozenInput::new(&plant, &u);
    }

    #[test]
    fn default_output_is_identity() {
        let plant = FnInputSystem::new(2, 0, |_t, _x: &[f64], _u: &[f64], dx: &mut [f64]| {
            dx.fill(0.0);
        });
        let mut y = [0.0, 0.0];
        plant.output(0.0, &[4.0, 5.0], &[], &mut y);
        assert_eq!(y, [4.0, 5.0]);
        assert_eq!(plant.output_dim(), 2);
    }

    #[test]
    fn library_systems_have_expected_derivatives() {
        let ho = HarmonicOscillator { omega: 2.0 };
        let mut dx = [0.0; 2];
        ho.derivatives(0.0, &[1.0, 0.0], &mut dx);
        assert_eq!(dx, [0.0, -4.0]);

        let vdp = VanDerPol { mu: 1.0 };
        vdp.derivatives(0.0, &[0.0, 1.0], &mut dx);
        assert_eq!(dx, [1.0, 1.0]);

        let p = Pendulum::default();
        p.derivatives(0.0, &[0.0, 0.0], &mut dx);
        assert_eq!(dx, [0.0, 0.0]);
    }
}
