//! Memoryless math blocks.

use crate::block::Block;

/// `y = k * u`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gain {
    k: f64,
}

impl Gain {
    /// Creates a gain block.
    pub fn new(k: f64) -> Self {
        Gain { k }
    }

    /// The gain value.
    pub fn value(&self) -> f64 {
        self.k
    }
}

impl Block for Gain {
    fn name(&self) -> &str {
        "gain"
    }

    fn inputs(&self) -> usize {
        1
    }

    fn outputs(&self) -> usize {
        1
    }

    fn step(&mut self, _t: f64, _h: f64, u: &[f64], y: &mut [f64]) {
        y[0] = self.k * u[0];
    }
}

/// Weighted sum `y = Σ w_i u_i`; signs `+1`/`-1` give add/subtract.
#[derive(Debug, Clone, PartialEq)]
pub struct Sum {
    weights: Vec<f64>,
}

impl Sum {
    /// Creates a sum with explicit weights (one per input).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "sum needs at least one input");
        Sum { weights: weights.to_vec() }
    }

    /// The classic two-input subtractor `y = u0 - u1` (error junction).
    pub fn error() -> Self {
        Sum::new(&[1.0, -1.0])
    }
}

impl Block for Sum {
    fn name(&self) -> &str {
        "sum"
    }

    fn inputs(&self) -> usize {
        self.weights.len()
    }

    fn outputs(&self) -> usize {
        1
    }

    fn step(&mut self, _t: f64, _h: f64, u: &[f64], y: &mut [f64]) {
        y[0] = self.weights.iter().zip(u).map(|(w, v)| w * v).sum();
    }
}

/// Clamps the input to `[lo, hi]` — actuator limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Saturation {
    lo: f64,
    hi: f64,
}

impl Saturation {
    /// Creates a saturation block.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "saturation bounds must be ordered");
        Saturation { lo, hi }
    }
}

impl Block for Saturation {
    fn name(&self) -> &str {
        "saturation"
    }

    fn inputs(&self) -> usize {
        1
    }

    fn outputs(&self) -> usize {
        1
    }

    fn step(&mut self, _t: f64, _h: f64, u: &[f64], y: &mut [f64]) {
        y[0] = u[0].clamp(self.lo, self.hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(b: &mut impl Block, u: &[f64]) -> f64 {
        let mut y = [0.0];
        b.step(0.0, 0.01, u, &mut y);
        y[0]
    }

    #[test]
    fn gain_scales() {
        let mut g = Gain::new(2.5);
        assert_eq!(run(&mut g, &[4.0]), 10.0);
        assert_eq!(g.value(), 2.5);
    }

    #[test]
    fn sum_weighted() {
        let mut s = Sum::new(&[1.0, -2.0, 0.5]);
        assert_eq!(s.inputs(), 3);
        assert_eq!(run(&mut s, &[1.0, 1.0, 2.0]), 0.0);
        let mut e = Sum::error();
        assert_eq!(run(&mut e, &[5.0, 3.0]), 2.0);
    }

    #[test]
    fn saturation_clamps() {
        let mut s = Saturation::new(-1.0, 1.0);
        assert_eq!(run(&mut s, &[5.0]), 1.0);
        assert_eq!(run(&mut s, &[-5.0]), -1.0);
        assert_eq!(run(&mut s, &[0.5]), 0.5);
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn saturation_validates_bounds() {
        let _ = Saturation::new(1.0, -1.0);
    }
}
