//! Continuous blocks: these are the blocks whose equations cannot run
//! inside a capsule's run-to-completion action (the paper's core point).

use crate::block::Block;

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
}
