//! Source blocks: signal generators with no inputs.

use crate::block::Block;

/// Emits a constant value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant {
    value: f64,
}

impl Constant {
    /// Creates a constant source.
    pub fn new(value: f64) -> Self {
        Constant { value }
    }
}

impl Block for Constant {
    fn name(&self) -> &str {
        "constant"
    }

    fn inputs(&self) -> usize {
        0
    }

    fn outputs(&self) -> usize {
        1
    }

    fn direct_feedthrough(&self) -> bool {
        false
    }

    fn step(&mut self, _t: f64, _h: f64, _u: &[f64], y: &mut [f64]) {
        y[0] = self.value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out1(b: &mut impl Block, t: f64) -> f64 {
        let mut y = [0.0];
        b.step(t, 0.01, &[], &mut y);
        y[0]
    }

    #[test]
    fn constant_emits_value() {
        let mut c = Constant::new(4.2);
        assert_eq!(out1(&mut c, 0.0), 4.2);
        assert_eq!(out1(&mut c, 100.0), 4.2);
        assert_eq!(c.inputs(), 0);
        assert_eq!(c.outputs(), 1);
    }
}
