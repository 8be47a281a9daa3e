//! Hybrid trajectories: continuous integration punctuated by discrete
//! resets at zero crossings.
//!
//! This is the numerical core of hybrid-system simulation: integrate
//! until a guard crosses zero, localise the event, apply a reset map to
//! the state, and continue — the bouncing ball being the canonical
//! example.

use crate::error::SolveError;
use crate::events::{locate_first_crossing, ZeroCrossing};
use crate::solver::Solver;
use crate::state::StateVec;
use crate::system::OdeSystem;
use crate::Trajectory;

/// What a reset map tells the simulator to do after an event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventOutcome {
    /// Keep integrating with the (possibly reset) state.
    #[default]
    Continue,
    /// Stop the simulation at the event time.
    Stop,
}

/// A discrete event on a hybrid trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridEvent {
    /// Guard label.
    pub label: String,
    /// Event time.
    pub time: f64,
    /// State *before* the reset.
    pub state_before: Vec<f64>,
    /// State *after* the reset.
    pub state_after: Vec<f64>,
}

/// Result of a hybrid simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridTrajectory {
    /// The continuous samples (restarts included).
    pub trajectory: Trajectory,
    /// The discrete events, in time order.
    pub events: Vec<HybridEvent>,
}

/// Integrates `sys` over `[t0, t1]` with step `h`, watching `guards`;
/// whenever one crosses, `reset` maps the state and decides whether to
/// continue. At most `max_events` are processed (guarding against Zeno
/// behaviour).
///
/// # Errors
///
/// Propagates solver failures; returns [`SolveError::EventNotBracketed`]
/// if more than `max_events` fire.
///
/// # Examples
///
/// Bouncing ball with restitution 0.8:
///
/// ```
/// use urt_ode::events::{EventDirection, ZeroCrossing};
/// use urt_ode::hybrid::{simulate_hybrid, EventOutcome};
/// use urt_ode::solver::Rk4;
/// use urt_ode::system::FnSystem;
///
/// # fn main() -> Result<(), urt_ode::SolveError> {
/// let ball = FnSystem::new(2, |_t, x, dx| {
///     dx[0] = x[1];
///     dx[1] = -9.81;
/// });
/// let guards = vec![ZeroCrossing::new("bounce", EventDirection::Falling, |_t, x| x[0])];
/// let result = simulate_hybrid(
///     &ball,
///     &mut Rk4::new(),
///     guards,
///     |label, _t, x| {
///         assert_eq!(label, "bounce");
///         x[1] = -0.8 * x[1];
///         EventOutcome::Continue
///     },
///     0.0,
///     &[1.0, 0.0],
///     3.0,
///     1e-3,
///     50,
/// )?;
/// assert!(!result.events.is_empty());
/// # Ok(())
/// # }
/// ```
#[allow(clippy::too_many_arguments)]
pub fn simulate_hybrid<S, R>(
    sys: &dyn OdeSystem,
    solver: &mut S,
    guards: Vec<ZeroCrossing>,
    mut reset: R,
    t0: f64,
    x0: &[f64],
    t1: f64,
    h: f64,
    max_events: usize,
) -> Result<HybridTrajectory, SolveError>
where
    S: Solver + ?Sized,
    R: FnMut(&str, f64, &mut [f64]) -> EventOutcome,
{
    sys.check_dim(x0)?;
    if !(h.is_finite() && h > 0.0) {
        return Err(SolveError::InvalidStep { step: h });
    }
    let mut t = t0;
    let mut x = x0.to_vec();
    let mut traj = Trajectory::new();
    traj.push(t, StateVec::from_slice(&x));
    let mut events = Vec::new();

    while t < t1 - 1e-12 {
        let step_end = (t + h).min(t1);
        // Try the step; check guards over it.
        let hit = locate_first_crossing(sys, solver, &guards, t, &x, step_end, 1e-10)?;
        match hit {
            None => {
                // Commit the full step.
                let mut x_next = x.clone();
                advance_exact(sys, solver, t, &mut x_next, step_end)?;
                t = step_end;
                x = x_next;
                traj.push(t, StateVec::from_slice(&x));
            }
            Some(event) => {
                if events.len() >= max_events {
                    return Err(SolveError::EventNotBracketed);
                }
                let state_before = event.state.clone();
                let mut state_after = event.state.clone();
                let outcome = reset(&event.label, event.time, &mut state_after);
                // Past-the-event nudge so the same guard cannot re-fire
                // at the identical instant.
                t = event.time + 1e-12;
                x = state_after.clone();
                if traj.last_time() < t {
                    traj.push(t, StateVec::from_slice(&x));
                }
                events.push(HybridEvent {
                    label: event.label,
                    time: event.time,
                    state_before,
                    state_after,
                });
                if outcome == EventOutcome::Stop {
                    break;
                }
            }
        }
    }
    Ok(HybridTrajectory { trajectory: traj, events })
}

/// Integrates from `t` to exactly `t_end` with bounded substeps.
fn advance_exact<S: Solver + ?Sized>(
    sys: &dyn OdeSystem,
    solver: &mut S,
    t: f64,
    x: &mut [f64],
    t_end: f64,
) -> Result<(), SolveError> {
    let mut cur = t;
    let resolution = crate::solver::resolution(t_end);
    let sub = (t_end - t) / 4.0;
    while t_end - cur > resolution {
        let step = sub.min(t_end - cur);
        let out = solver.step(sys, cur, x, step)?;
        if out.accepted {
            cur += out.h_taken;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventDirection;
    use crate::solver::Rk4;
    use crate::system::FnSystem;

    fn ball() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(2, |_t, x: &[f64], dx: &mut [f64]| {
            dx[0] = x[1];
            dx[1] = -9.81;
        })
    }

    #[test]
    fn bouncing_ball_loses_energy_each_bounce() {
        let guards =
            vec![ZeroCrossing::new("bounce", EventDirection::Falling, |_t, x: &[f64]| x[0])];
        let result = simulate_hybrid(
            &ball(),
            &mut Rk4::new(),
            guards,
            |_l, _t, x| {
                x[0] = 0.0;
                x[1] *= -0.8;
                EventOutcome::Continue
            },
            0.0,
            &[1.0, 0.0],
            4.0,
            1e-3,
            100,
        )
        .expect("simulate");
        assert!(result.events.len() >= 3, "several bounces in 4 s");
        // First bounce: free fall from 1 m lands at sqrt(2/g) ≈ 0.4515 s.
        let t_first = result.events[0].time;
        assert!((t_first - (2.0 / 9.81f64).sqrt()).abs() < 1e-3, "first bounce at {t_first}");
        // Impact speeds decay by the restitution factor.
        let speeds: Vec<f64> = result.events.iter().map(|e| e.state_before[1].abs()).collect();
        for w in speeds.windows(2) {
            assert!(w[1] < w[0] * 0.85, "impact speed must decay: {speeds:?}");
        }
        // Height stays (numerically) non-negative.
        for (_, state) in result.trajectory.iter() {
            assert!(state[0] > -1e-3, "ball under the floor: {}", state[0]);
        }
    }

    #[test]
    fn stop_outcome_halts_simulation() {
        let guards =
            vec![ZeroCrossing::new("floor", EventDirection::Falling, |_t, x: &[f64]| x[0])];
        let result = simulate_hybrid(
            &ball(),
            &mut Rk4::new(),
            guards,
            |_l, _t, _x| EventOutcome::Stop,
            0.0,
            &[1.0, 0.0],
            10.0,
            1e-3,
            10,
        )
        .expect("simulate");
        assert_eq!(result.events.len(), 1);
        assert!(result.trajectory.last_time() < 0.5, "stopped at the first event");
    }

    #[test]
    fn zeno_guard_trips_max_events() {
        let guards =
            vec![ZeroCrossing::new("bounce", EventDirection::Falling, |_t, x: &[f64]| x[0])];
        let err = simulate_hybrid(
            &ball(),
            &mut Rk4::new(),
            guards,
            |_l, _t, x| {
                x[0] = 0.0;
                x[1] *= -0.99;
                EventOutcome::Continue
            },
            0.0,
            &[1.0, 0.0],
            200.0,
            1e-3,
            5,
        )
        .expect_err("more than 5 bounces in 200 s");
        assert_eq!(err, SolveError::EventNotBracketed);
    }

    #[test]
    fn no_events_matches_plain_integration() {
        let sys = FnSystem::new(1, |_t, x: &[f64], dx: &mut [f64]| dx[0] = -x[0]);
        let guards =
            vec![ZeroCrossing::new("never", EventDirection::Rising, |_t, x: &[f64]| x[0] - 100.0)];
        let result = simulate_hybrid(
            &sys,
            &mut Rk4::new(),
            guards,
            |_l, _t, _x| EventOutcome::Continue,
            0.0,
            &[1.0],
            1.0,
            1e-2,
            10,
        )
        .expect("simulate");
        assert!(result.events.is_empty());
        let x1 = result.trajectory.last_state()[0];
        assert!((x1 - (-1.0f64).exp()).abs() < 1e-6);
    }

    #[test]
    fn validates_inputs() {
        let sys = ball();
        assert!(
            simulate_hybrid(
                &sys,
                &mut Rk4::new(),
                vec![],
                |_l, _t, _x| EventOutcome::Continue,
                0.0,
                &[1.0],
                1.0,
                1e-2,
                10
            )
            .is_err(),
            "dimension mismatch"
        );
        assert!(
            simulate_hybrid(
                &sys,
                &mut Rk4::new(),
                vec![],
                |_l, _t, _x| EventOutcome::Continue,
                0.0,
                &[1.0, 0.0],
                1.0,
                0.0,
                10
            )
            .is_err(),
            "invalid step"
        );
    }
}
