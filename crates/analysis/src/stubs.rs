//! Width- and feedthrough-faithful stub behaviours.
//!
//! [`stub_registry`] builds a [`BehaviorRegistry`] covering every leaf
//! streamer of a model with a [`StubStreamer`]: a behaviour whose
//! input/output widths and direct-feedthrough flag match the model's
//! declarations exactly, but whose dynamics are a bounded deterministic
//! placeholder. This is enough to push any clean model through the whole
//! `model → analyze → compile → run` pipeline — structure, scheduling,
//! channel wiring and probe plumbing are all exercised — without the
//! real solvers, which is exactly what the CI elaboration smoke needs.

use urt_core::elaborate::BehaviorRegistry;
use urt_core::model::UnifiedModel;
use urt_dataflow::streamer::StreamerBehavior;
use urt_ode::SolveError;

/// A placeholder streamer behaviour with declared widths and
/// feedthrough, producing bounded deterministic output.
#[derive(Debug, Clone)]
pub struct StubStreamer {
    name: String,
    in_width: usize,
    out_width: usize,
    feedthrough: bool,
}

impl StubStreamer {
    /// Creates a stub with explicit widths and feedthrough flag.
    pub fn new(
        name: impl Into<String>,
        in_width: usize,
        out_width: usize,
        feedthrough: bool,
    ) -> Self {
        Self { name: name.into(), in_width, out_width, feedthrough }
    }
}

impl StreamerBehavior for StubStreamer {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_width(&self) -> usize {
        self.in_width
    }

    fn output_width(&self) -> usize {
        self.out_width
    }

    fn direct_feedthrough(&self) -> bool {
        self.feedthrough
    }

    fn advance(&mut self, t: f64, _h: f64, u: &[f64], y: &mut [f64]) -> Result<(), SolveError> {
        // Bounded and deterministic: a phase-shifted sine per output
        // lane, nudged by the (tanh-squashed) input sum when the stub
        // declares direct feedthrough.
        let drive = if self.feedthrough { 0.1 * u.iter().sum::<f64>().tanh() } else { 0.0 };
        for (i, lane) in y.iter_mut().enumerate() {
            #[allow(clippy::cast_precision_loss)]
            let phase = i as f64;
            *lane = (t + phase).sin() * 0.5 + drive;
        }
        Ok(())
    }
}

/// Builds a registry stubbing **every** streamer of `model` with widths
/// and feedthrough taken from its declarations. Capsules are left to
/// elaboration's inert fallback (machine spec or placeholder), so the
/// result compiles any clean model as-is.
pub fn stub_registry(model: &UnifiedModel) -> BehaviorRegistry {
    let mut registry = BehaviorRegistry::new();
    for (s, name, _solver) in model.iter_streamers() {
        let in_width: usize = model.streamer_in_dports(s).iter().map(|(_, ty)| ty.width()).sum();
        let out_width: usize = model.streamer_out_dports(s).iter().map(|(_, ty)| ty.width()).sum();
        let feedthrough = model.streamer_feedthrough(s);
        let stub = StubStreamer::new(name, in_width, out_width, feedthrough);
        registry = registry.streamer(name, move || Box::new(stub.clone()));
    }
    registry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stub_matches_declared_widths() {
        let stub = StubStreamer::new("vehicle", 1, 2, false);
        assert_eq!(stub.input_width(), 1);
        assert_eq!(stub.output_width(), 2);
        assert!(!stub.direct_feedthrough());
    }

    #[test]
    fn stub_output_is_bounded() {
        let mut stub = StubStreamer::new("s", 2, 3, true);
        let mut y = [0.0; 3];
        for k in 0..100 {
            let t = f64::from(k) * 0.05;
            stub.advance(t, 0.05, &[1e6, -1e6], &mut y).unwrap();
            assert!(y.iter().all(|v| v.abs() < 1.0), "bounded at t={t}: {y:?}");
        }
    }
}
