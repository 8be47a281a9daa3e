//! The `Time` stereotype: a continuous, predictable simulation clock.
//!
//! "Timing in UML-RT is unpredictable. In this paper, we introduce a Time
//! stereotype, which is a continuous variable, can be used as simulation
//! clock."

use crate::error::CoreError;

/// The continuous simulation clock driving the hybrid engine.
///
/// Unlike the UML-RT timer service (which quantises to ticks), this clock
/// accumulates exactly the solver macro steps — the paper's fix for
/// "unpredictable" timing. [`SimClock::drift_against_ticks`] quantifies the
/// difference for experiment E5.
///
/// The clock is *drift-free*: instead of accumulating `t += h` once per
/// tick (whose rounding error grows with the step count), the current
/// instant is derived as `base + run_steps * run_h`, where
/// `run_steps` counts the ticks of the current uniform run of step size
/// `run_h` and `base` folds in any earlier runs with a different step.
/// For the common case of a fixed macro step from t = 0 this makes
/// `seconds()` bit-equal to `step_count as f64 * h`, however many steps
/// are taken.
#[derive(Debug, Clone, PartialEq)]
pub struct SimClock {
    /// Seconds accumulated by completed uniform runs before the current one.
    base: f64,
    /// Step size of the current uniform run of ticks.
    run_h: f64,
    /// Ticks in the current uniform run.
    run_steps: u64,
    step_count: u64,
}

impl SimClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        SimClock { base: 0.0, run_h: 0.0, run_steps: 0, step_count: 0 }
    }

    /// Current time in seconds.
    pub fn seconds(&self) -> f64 {
        self.base + self.run_steps as f64 * self.run_h
    }

    /// Number of macro steps taken.
    pub fn step_count(&self) -> u64 {
        self.step_count
    }

    /// Advances by one macro step of `h` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not positive and finite.
    pub fn tick(&mut self, h: f64) {
        assert!(h.is_finite() && h > 0.0, "macro step must be positive");
        if self.run_steps > 0 && h != self.run_h {
            // The step size changed: close the uniform run so the new one
            // stays a drift-free product.
            self.base += self.run_steps as f64 * self.run_h;
            self.run_steps = 0;
        }
        self.run_h = h;
        self.run_steps += 1;
        self.step_count += 1;
    }

    /// How far a tick-quantised timer scheduled every `period` seconds on
    /// a `tick` resolution drifts from this continuous clock after
    /// `n` firings (E5's measurement): returns the absolute drift in
    /// seconds.
    pub fn drift_against_ticks(period: f64, tick: f64, n: u64) -> f64 {
        // Continuous clock: n * period. Quantised timer: each period is
        // rounded up to the next tick boundary, then periods accumulate.
        let quantise = |t: f64| {
            if tick <= 0.0 {
                t
            } else {
                // Guard against representation error pushing an exact
                // multiple over the next boundary.
                ((t / tick) - 1e-9).ceil() * tick
            }
        };
        let mut quantised = 0.0;
        for _ in 0..n {
            quantised = quantise(quantised + period);
        }
        (quantised - n as f64 * period).abs()
    }
}

impl Default for SimClock {
    fn default() -> Self {
        Self::new()
    }
}

/// Refuses a time that is not a finite number with
/// [`CoreError::NonFiniteTime`] (`URT118`); `what` names it.
pub(crate) fn check_finite(what: &'static str, t: f64) -> Result<(), CoreError> {
    if t.is_finite() {
        Ok(())
    } else {
        Err(CoreError::NonFiniteTime { what, value: t })
    }
}

/// Number of whole macro steps of size `step` needed to reach `t_end`
/// from instant `t`. Uses a *relative* tolerance so a step landing within
/// rounding distance of `t_end` counts as having reached it — an absolute
/// epsilon is absorbed for large `t_end` (or dwarfs tiny `step`), running
/// one step too many or too few. Shared by every engine's `run_until`.
pub(crate) fn steps_until(t: f64, t_end: f64, step: f64) -> u64 {
    if t_end <= t {
        return 0;
    }
    let raw = (t_end - t) / step;
    (raw * (1.0 - 1e-12)).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_accumulates_exactly() {
        let mut c = SimClock::new();
        for _ in 0..1000 {
            c.tick(0.001);
        }
        assert!((c.seconds() - 1.0).abs() < 1e-12);
        assert_eq!(c.step_count(), 1000);
    }

    #[test]
    fn clock_is_drift_free_over_ten_million_steps() {
        // Regression: the clock used to accumulate `t += h` per tick, so
        // rounding error grew with the step count. Derived time must stay
        // bit-equal to `step_count as f64 * h` forever.
        let h = 1e-3;
        let mut c = SimClock::new();
        for _ in 0..10_000_000u64 {
            c.tick(h);
        }
        assert_eq!(c.step_count(), 10_000_000);
        let derived = c.step_count() as f64 * h;
        assert_eq!(c.seconds().to_bits(), derived.to_bits(), "bit-equal to step_count * h");
        // 10^7 * 1e-3 is 10^4 seconds up to one rounding of the product.
        assert!((c.seconds() - 1e4).abs() <= f64::EPSILON * 1e4, "got {}", c.seconds());
    }

    #[test]
    fn clock_handles_step_size_changes() {
        let mut c = SimClock::new();
        c.tick(0.5);
        c.tick(0.5);
        c.tick(0.25);
        assert_eq!(c.seconds(), 1.25);
        assert_eq!(c.step_count(), 3);
        // Back to a uniform run: the new run is again a drift-free product.
        for _ in 0..4 {
            c.tick(0.25);
        }
        assert_eq!(c.seconds(), 2.25);
        assert_eq!(c.step_count(), 7);
    }

    #[test]
    fn quantised_timer_drift_grows_with_n() {
        // 15 ms period on a 10 ms tick: each firing rounds up to a 20 ms
        // boundary, drifting 5 ms per firing.
        let d10 = SimClock::drift_against_ticks(0.015, 0.010, 10);
        let d100 = SimClock::drift_against_ticks(0.015, 0.010, 100);
        assert!(d10 > 0.0);
        assert!(d100 > d10 * 5.0, "drift accumulates: {d10} vs {d100}");
        // Exact-divisor periods never drift (up to representation noise).
        assert!(SimClock::drift_against_ticks(0.020, 0.010, 100) < 1e-9);
        // The continuous Time clock (tick = 0) never drifts.
        assert!(SimClock::drift_against_ticks(0.015, 0.0, 100) < 1e-9);
    }
}
