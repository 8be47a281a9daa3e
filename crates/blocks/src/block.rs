//! The block trait all library blocks implement.

/// A causal signal block with fixed input/output arity.
///
/// Blocks are stepped with a fixed macro step `h`; continuous blocks
/// integrate internally (exactly or with an embedded method). This is the
/// "Simulink block" abstraction the paper's introduction refers to.
///
/// # Examples
///
/// ```
/// use urt_blocks::block::Block;
/// use urt_blocks::math::Gain;
///
/// let mut g = Gain::new(3.0);
/// let mut y = [0.0];
/// g.step(0.0, 0.01, &[2.0], &mut y);
/// assert_eq!(y[0], 6.0);
/// ```
pub trait Block: Send {
    /// Block-type name (diagnostics; instances are named by the diagram).
    fn name(&self) -> &str;

    /// Number of input lanes.
    fn inputs(&self) -> usize;

    /// Number of output lanes.
    fn outputs(&self) -> usize;

    /// Whether outputs depend directly on this step's inputs.
    fn direct_feedthrough(&self) -> bool {
        true
    }

    /// Resets internal state to initial conditions.
    fn reset(&mut self) {}

    /// Advances the block from `t` to `t + h`.
    fn step(&mut self, t: f64, h: f64, u: &[f64], y: &mut [f64]);
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Null;

    impl Block for Null {
        fn name(&self) -> &str {
            "null"
        }
        fn inputs(&self) -> usize {
            0
        }
        fn outputs(&self) -> usize {
            0
        }
        fn step(&mut self, _t: f64, _h: f64, _u: &[f64], _y: &mut [f64]) {}
    }

    #[test]
    fn defaults() {
        let mut b = Null;
        assert!(b.direct_feedthrough());
        b.reset();
        assert_eq!(b.name(), "null");
    }

    #[test]
    fn object_safe() {
        let b: Box<dyn Block> = Box::new(Null);
        assert_eq!(b.inputs(), 0);
    }
}
