//! Continuous blocks: these are the blocks whose equations cannot run
//! inside a capsule's run-to-completion action (the paper's core point).

use crate::block::Block;
use urt_ode::linalg::Matrix;

/// Integrator with optional output limits and external reset.
///
/// Uses the exact update for a constant input over the step (trapezoid of
/// the frozen input equals rectangle here), which is the standard
/// fixed-step integrator contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Integrator {
    x0: f64,
    x: f64,
    limits: Option<(f64, f64)>,
}

impl Integrator {
    /// Creates an integrator starting at `x0`.
    pub fn new(x0: f64) -> Self {
        Integrator { x0, x: x0, limits: None }
    }

    /// Adds anti-windup output limits (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn with_limits(mut self, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "integrator limits must be ordered");
        self.limits = Some((lo, hi));
        self
    }

    /// Current integrator state.
    pub fn state(&self) -> f64 {
        self.x
    }
}

impl Block for Integrator {
    fn name(&self) -> &str {
        "integrator"
    }

    fn inputs(&self) -> usize {
        1
    }

    fn outputs(&self) -> usize {
        1
    }

    fn direct_feedthrough(&self) -> bool {
        false
    }

    fn reset(&mut self) {
        self.x = self.x0;
    }

    fn step(&mut self, _t: f64, h: f64, u: &[f64], y: &mut [f64]) {
        y[0] = self.x;
        self.x += h * u[0];
        if let Some((lo, hi)) = self.limits {
            self.x = self.x.clamp(lo, hi);
        }
    }
}

/// Filtered derivative `y ≈ du/dt` with time constant `tau`
/// (`tau = 0` gives the raw backward difference).
#[derive(Debug, Clone, PartialEq)]
pub struct Derivative {
    tau: f64,
    prev: Option<f64>,
    filtered: f64,
}

impl Derivative {
    /// Creates a filtered derivative; `tau` is the filter time constant.
    ///
    /// # Panics
    ///
    /// Panics if `tau < 0`.
    pub fn new(tau: f64) -> Self {
        assert!(tau >= 0.0, "filter time constant must be non-negative");
        Derivative { tau, prev: None, filtered: 0.0 }
    }
}

impl Block for Derivative {
    fn name(&self) -> &str {
        "derivative"
    }

    fn inputs(&self) -> usize {
        1
    }

    fn outputs(&self) -> usize {
        1
    }

    fn reset(&mut self) {
        self.prev = None;
        self.filtered = 0.0;
    }

    fn step(&mut self, _t: f64, h: f64, u: &[f64], y: &mut [f64]) {
        let raw = match self.prev {
            Some(p) if h > 0.0 => (u[0] - p) / h,
            _ => 0.0,
        };
        self.prev = Some(u[0]);
        if self.tau > 0.0 {
            let alpha = h / (self.tau + h);
            self.filtered += alpha * (raw - self.filtered);
            y[0] = self.filtered;
        } else {
            y[0] = raw;
        }
    }
}

/// Linear continuous state-space block `x' = A x + B u`, `y = C x + D u`,
/// integrated with classic RK4 on the frozen input.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSpace {
    a: Matrix,
    b: Matrix,
    c: Matrix,
    d: Matrix,
    x0: Vec<f64>,
    x: Vec<f64>,
}

impl StateSpace {
    /// Builds the block; `x0` is the initial state.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent matrix shapes.
    pub fn new(a: Matrix, b: Matrix, c: Matrix, d: Matrix, x0: Vec<f64>) -> Self {
        let n = a.rows();
        assert!(a.is_square(), "A must be square");
        assert_eq!(b.rows(), n, "B rows must match A");
        assert_eq!(c.cols(), n, "C cols must match A");
        assert_eq!(d.rows(), c.rows(), "D rows must match C");
        assert_eq!(d.cols(), b.cols(), "D cols must match B");
        assert_eq!(x0.len(), n, "x0 dimension mismatch");
        StateSpace { a, b, c, d, x: x0.clone(), x0 }
    }

    /// Current state vector.
    pub fn state(&self) -> &[f64] {
        &self.x
    }

    fn deriv(&self, x: &[f64], u: &[f64]) -> Vec<f64> {
        let mut dx = self.a.matvec(x);
        for (di, bi) in dx.iter_mut().zip(self.b.matvec(u)) {
            *di += bi;
        }
        dx
    }
}

impl Block for StateSpace {
    fn name(&self) -> &str {
        "state-space"
    }

    fn inputs(&self) -> usize {
        self.b.cols()
    }

    fn outputs(&self) -> usize {
        self.c.rows()
    }

    fn direct_feedthrough(&self) -> bool {
        // Only if D is nonzero.
        (0..self.d.rows()).any(|i| (0..self.d.cols()).any(|j| self.d[(i, j)] != 0.0))
    }

    fn reset(&mut self) {
        self.x = self.x0.clone();
    }

    fn step(&mut self, _t: f64, h: f64, u: &[f64], y: &mut [f64]) {
        // Output first (uses pre-step state), then RK4 state update.
        let mut out = self.c.matvec(&self.x);
        for (yi, di) in out.iter_mut().zip(self.d.matvec(u)) {
            *yi += di;
        }
        y.copy_from_slice(&out);

        let k1 = self.deriv(&self.x, u);
        let x2: Vec<f64> = self.x.iter().zip(&k1).map(|(x, k)| x + 0.5 * h * k).collect();
        let k2 = self.deriv(&x2, u);
        let x3: Vec<f64> = self.x.iter().zip(&k2).map(|(x, k)| x + 0.5 * h * k).collect();
        let k3 = self.deriv(&x3, u);
        let x4: Vec<f64> = self.x.iter().zip(&k3).map(|(x, k)| x + h * k).collect();
        let k4 = self.deriv(&x4, u);
        for i in 0..self.x.len() {
            self.x[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
    }
}

/// Continuous transfer function `b(s)/a(s)` realised in controllable
/// canonical form as a [`StateSpace`].
#[derive(Debug, Clone, PartialEq)]
pub struct TransferFunction {
    inner: StateSpace,
}

impl TransferFunction {
    /// Builds `Y(s)/U(s) = (b0 s^m + ... + bm) / (a0 s^n + ... + an)`.
    ///
    /// # Panics
    ///
    /// Panics if the system is improper (`m > n`), `a` is empty, or
    /// `a[0] == 0`.
    pub fn new(b: &[f64], a: &[f64]) -> Self {
        assert!(!a.is_empty() && a[0] != 0.0, "leading denominator coefficient must be nonzero");
        assert!(b.len() <= a.len(), "transfer function must be proper");
        let n = a.len() - 1;
        let a0 = a[0];
        let an: Vec<f64> = a.iter().map(|v| v / a0).collect();
        // Pad the numerator to length n+1.
        let mut bn = vec![0.0; a.len() - b.len()];
        bn.extend(b.iter().map(|v| v / a0));
        if n == 0 {
            // Pure gain.
            let gain = bn[0];
            let inner = StateSpace::new(
                Matrix::zeros(0, 0),
                Matrix::zeros(0, 1),
                Matrix::zeros(1, 0),
                Matrix::from_vec(1, 1, vec![gain]),
                vec![],
            );
            return TransferFunction { inner };
        }
        // Controllable canonical form.
        let mut am = Matrix::zeros(n, n);
        for i in 0..n - 1 {
            am[(i, i + 1)] = 1.0;
        }
        for j in 0..n {
            am[(n - 1, j)] = -an[n - j];
        }
        let mut bm = Matrix::zeros(n, 1);
        bm[(n - 1, 0)] = 1.0;
        let d0 = bn[0];
        let mut cm = Matrix::zeros(1, n);
        for j in 0..n {
            cm[(0, j)] = bn[n - j] - an[n - j] * d0;
        }
        let dm = Matrix::from_vec(1, 1, vec![d0]);
        TransferFunction { inner: StateSpace::new(am, bm, cm, dm, vec![0.0; n]) }
    }
}

impl Block for TransferFunction {
    fn name(&self) -> &str {
        "transfer-function"
    }

    fn inputs(&self) -> usize {
        1
    }

    fn outputs(&self) -> usize {
        1
    }

    fn direct_feedthrough(&self) -> bool {
        self.inner.direct_feedthrough()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn step(&mut self, t: f64, h: f64, u: &[f64], y: &mut [f64]) {
        self.inner.step(t, h, u, y);
    }
}

/// Continuous PID controller with filtered derivative and output clamping.
#[derive(Debug, Clone, PartialEq)]
pub struct Pid {
    kp: f64,
    ki: f64,
    kd: f64,
    integrator: Integrator,
    derivative: Derivative,
    limits: Option<(f64, f64)>,
}

impl Pid {
    /// Creates a PID with derivative filter time constant `tau`.
    pub fn new(kp: f64, ki: f64, kd: f64, tau: f64) -> Self {
        Pid {
            kp,
            ki,
            kd,
            integrator: Integrator::new(0.0),
            derivative: Derivative::new(tau),
            limits: None,
        }
    }

    /// Adds output saturation with integrator clamping (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn with_limits(mut self, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "pid limits must be ordered");
        self.limits = Some((lo, hi));
        // Anti-windup: bound the integral contribution as well.
        if self.ki != 0.0 {
            self.integrator = Integrator::new(0.0).with_limits(lo / self.ki, hi / self.ki);
        }
        self
    }

    /// Proportional gain.
    pub fn kp(&self) -> f64 {
        self.kp
    }

    /// Sets the gains at run time (capsule-driven re-tuning).
    pub fn set_gains(&mut self, kp: f64, ki: f64, kd: f64) {
        self.kp = kp;
        self.ki = ki;
        self.kd = kd;
    }
}

impl Block for Pid {
    fn name(&self) -> &str {
        "pid"
    }

    fn inputs(&self) -> usize {
        1
    }

    fn outputs(&self) -> usize {
        1
    }

    fn reset(&mut self) {
        self.integrator.reset();
        self.derivative.reset();
    }

    fn step(&mut self, t: f64, h: f64, u: &[f64], y: &mut [f64]) {
        let e = u[0];
        let mut i_out = [0.0];
        self.integrator.step(t, h, u, &mut i_out);
        let mut d_out = [0.0];
        self.derivative.step(t, h, u, &mut d_out);
        let mut out = self.kp * e + self.ki * i_out[0] + self.kd * d_out[0];
        if let Some((lo, hi)) = self.limits {
            out = out.clamp(lo, hi);
        }
        y[0] = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrator_accumulates_and_limits() {
        let mut i = Integrator::new(0.0).with_limits(0.0, 1.0);
        let mut y = [0.0];
        for k in 0..20 {
            i.step(k as f64 * 0.1, 0.1, &[1.0], &mut y);
        }
        assert_eq!(i.state(), 1.0, "clamped at the limit");
        i.reset();
        assert_eq!(i.state(), 0.0);
    }

    #[test]
    fn integrator_output_is_prestep_state() {
        let mut i = Integrator::new(2.0);
        let mut y = [0.0];
        i.step(0.0, 0.5, &[4.0], &mut y);
        assert_eq!(y[0], 2.0);
        assert_eq!(i.state(), 4.0);
    }

    #[test]
    fn derivative_tracks_slope() {
        let mut d = Derivative::new(0.0);
        let mut y = [0.0];
        d.step(0.0, 0.1, &[0.0], &mut y);
        assert_eq!(y[0], 0.0, "first sample has no history");
        d.step(0.1, 0.1, &[0.2], &mut y);
        assert!((y[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn filtered_derivative_smooths() {
        let mut d = Derivative::new(1.0);
        let mut y = [0.0];
        d.step(0.0, 0.1, &[0.0], &mut y);
        d.step(0.1, 0.1, &[1.0], &mut y);
        // Heavily filtered: far below the raw slope of 10.
        assert!(y[0] < 2.0 && y[0] > 0.0, "filtered {y:?}");
    }

    #[test]
    fn state_space_decay() {
        // x' = -x, y = x, x0 = 1.
        let ss = StateSpace::new(
            Matrix::from_vec(1, 1, vec![-1.0]),
            Matrix::zeros(1, 1),
            Matrix::identity(1),
            Matrix::zeros(1, 1),
            vec![1.0],
        );
        let mut ss = ss;
        assert!(!ss.direct_feedthrough());
        let mut y = [0.0];
        let h = 0.01;
        for k in 0..100 {
            ss.step(k as f64 * h, h, &[0.0], &mut y);
        }
        assert!((ss.state()[0] - (-1.0f64).exp()).abs() < 1e-6);
    }

    #[test]
    fn transfer_function_first_order_dc_gain() {
        // 1 / (s + 1): step response settles at 1.
        let mut tf = TransferFunction::new(&[1.0], &[1.0, 1.0]);
        assert!(!tf.direct_feedthrough());
        let mut y = [0.0];
        let h = 0.01;
        for k in 0..1000 {
            tf.step(k as f64 * h, h, &[1.0], &mut y);
        }
        assert!((y[0] - 1.0).abs() < 0.01, "settled at {}", y[0]);
    }

    #[test]
    fn transfer_function_pure_gain() {
        let mut tf = TransferFunction::new(&[3.0], &[1.0]);
        assert!(tf.direct_feedthrough());
        let mut y = [0.0];
        tf.step(0.0, 0.01, &[2.0], &mut y);
        assert_eq!(y[0], 6.0);
    }

    #[test]
    #[should_panic(expected = "proper")]
    fn transfer_function_rejects_improper() {
        let _ = TransferFunction::new(&[1.0, 0.0], &[1.0]);
    }

    #[test]
    fn pid_proportional_only() {
        let mut pid = Pid::new(2.0, 0.0, 0.0, 0.0);
        let mut y = [0.0];
        pid.step(0.0, 0.01, &[3.0], &mut y);
        assert_eq!(y[0], 6.0);
        assert_eq!(pid.kp(), 2.0);
    }

    #[test]
    fn pid_integral_removes_steady_error() {
        // Plant: x' = u - x; PI controller on error (r=1).
        let mut pid = Pid::new(1.0, 2.0, 0.0, 0.0);
        let mut x = 0.0;
        let h = 0.001;
        let mut y = [0.0];
        for k in 0..20000 {
            let e = 1.0 - x;
            pid.step(k as f64 * h, h, &[e], &mut y);
            x += h * (y[0] - x);
        }
        assert!((x - 1.0).abs() < 1e-3, "steady state {x}");
    }

    #[test]
    fn pid_limits_clamp_output() {
        let mut pid = Pid::new(100.0, 0.0, 0.0, 0.0).with_limits(-1.0, 1.0);
        let mut y = [0.0];
        pid.step(0.0, 0.01, &[5.0], &mut y);
        assert_eq!(y[0], 1.0);
        pid.set_gains(1.0, 0.0, 0.0);
        pid.step(0.0, 0.01, &[0.5], &mut y);
        assert_eq!(y[0], 0.5);
        pid.reset();
    }
}
