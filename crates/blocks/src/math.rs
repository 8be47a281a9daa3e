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

/// Product of all inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Product {
    arity: usize,
}

impl Product {
    /// Creates an `arity`-input multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `arity == 0`.
    pub fn new(arity: usize) -> Self {
        assert!(arity > 0, "product needs at least one input");
        Product { arity }
    }
}

impl Block for Product {
    fn name(&self) -> &str {
        "product"
    }

    fn inputs(&self) -> usize {
        self.arity
    }

    fn outputs(&self) -> usize {
        1
    }

    fn step(&mut self, _t: f64, _h: f64, u: &[f64], y: &mut [f64]) {
        y[0] = u.iter().product();
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

/// Zero inside `[lo, hi]`, shifted passthrough outside — stiction models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadZone {
    lo: f64,
    hi: f64,
}

impl DeadZone {
    /// Creates a dead zone.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "dead zone bounds must be ordered");
        DeadZone { lo, hi }
    }
}

impl Block for DeadZone {
    fn name(&self) -> &str {
        "deadzone"
    }

    fn inputs(&self) -> usize {
        1
    }

    fn outputs(&self) -> usize {
        1
    }

    fn step(&mut self, _t: f64, _h: f64, u: &[f64], y: &mut [f64]) {
        y[0] = if u[0] > self.hi {
            u[0] - self.hi
        } else if u[0] < self.lo {
            u[0] - self.lo
        } else {
            0.0
        };
    }
}

/// `y = |u|`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Abs;

impl Abs {
    /// Creates the block.
    pub fn new() -> Self {
        Abs
    }
}

impl Block for Abs {
    fn name(&self) -> &str {
        "abs"
    }

    fn inputs(&self) -> usize {
        1
    }

    fn outputs(&self) -> usize {
        1
    }

    fn step(&mut self, _t: f64, _h: f64, u: &[f64], y: &mut [f64]) {
        y[0] = u[0].abs();
    }
}

/// Three-input switch: `y = u0` when `u1 >= threshold`, else `u2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Switch {
    threshold: f64,
}

impl Switch {
    /// Creates a switch with the given control threshold.
    pub fn new(threshold: f64) -> Self {
        Switch { threshold }
    }
}

impl Block for Switch {
    fn name(&self) -> &str {
        "switch"
    }

    fn inputs(&self) -> usize {
        3
    }

    fn outputs(&self) -> usize {
        1
    }

    fn step(&mut self, _t: f64, _h: f64, u: &[f64], y: &mut [f64]) {
        y[0] = if u[1] >= self.threshold { u[0] } else { u[2] };
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
    fn product_multiplies() {
        let mut p = Product::new(3);
        assert_eq!(run(&mut p, &[2.0, 3.0, 4.0]), 24.0);
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

    #[test]
    fn deadzone_regions() {
        let mut d = DeadZone::new(-1.0, 1.0);
        assert_eq!(run(&mut d, &[0.5]), 0.0);
        assert_eq!(run(&mut d, &[2.0]), 1.0);
        assert_eq!(run(&mut d, &[-3.0]), -2.0);
    }

    #[test]
    fn abs_rectifies() {
        let mut a = Abs::new();
        assert_eq!(run(&mut a, &[-3.0]), 3.0);
    }

    #[test]
    fn switch_selects() {
        let mut s = Switch::new(0.5);
        assert_eq!(run(&mut s, &[10.0, 1.0, 20.0]), 10.0);
        assert_eq!(run(&mut s, &[10.0, 0.0, 20.0]), 20.0);
    }
}
