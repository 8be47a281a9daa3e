//! The Bichler et al. baseline: directed equations attached to states,
//! executed under run-to-completion on the event thread.
//!
//! Two artefacts live here:
//!
//! * [`EquationStateCapsule`] — the *semantic* reproduction: a capsule
//!   whose states carry equation sets, driven by a periodic timer. It
//!   works (the paper concedes the approach is "interesting") but every
//!   equation evaluation occupies the event thread.
//! * [`ArchitectureBenchmark`] — the *performance* reproduction for
//!   experiment E2: wall-clock event latency under equation load, for the
//!   RTC-integrated architecture versus the paper's separate-threads
//!   architecture.

use crate::metrics::LatencyReport;
use std::time::{Duration, Instant};
use urt_ode::solver::{Rk4, Solver};
use urt_ode::system::library::VanDerPol;
use urt_ode::system::OdeSystem;
use urt_umlrt::capsule::{Capsule, CapsuleContext};
use urt_umlrt::message::Message;
use urt_umlrt::timing::TIMER_PORT;

/// A capsule in the Bichler style: each state owns a set of directed
/// equations (an ODE system) integrated inside the run-to-completion
/// action of a periodic `tick` timeout.
///
/// # Examples
///
/// ```
/// use urt_baselines::bichler::EquationStateCapsule;
/// use urt_ode::system::library::HarmonicOscillator;
///
/// let capsule = EquationStateCapsule::new("osc", 0.01, 16)
///     .with_state("running", Box::new(HarmonicOscillator { omega: 1.0 }), &[1.0, 0.0]);
/// assert_eq!(capsule.state_names(), vec!["running"]);
/// ```
pub struct EquationStateCapsule {
    name: String,
    tick: f64,
    substeps: usize,
    states: Vec<(String, Box<dyn OdeSystem + Send>, Vec<f64>)>,
    active: usize,
    x: Vec<f64>,
    solver: Rk4,
    last_t: f64,
    ticks_seen: u64,
}

impl EquationStateCapsule {
    /// Creates the capsule: equations advance on a `tick` timer of period
    /// `tick` seconds, integrating with `substeps` RK4 sub-steps per tick.
    ///
    /// # Panics
    ///
    /// Panics if `tick <= 0` or `substeps == 0`.
    pub fn new(name: impl Into<String>, tick: f64, substeps: usize) -> Self {
        assert!(tick > 0.0, "tick period must be positive");
        assert!(substeps > 0, "need at least one sub-step");
        EquationStateCapsule {
            name: name.into(),
            tick,
            substeps,
            states: Vec::new(),
            active: 0,
            x: Vec::new(),
            solver: Rk4::new(),
            last_t: 0.0,
            ticks_seen: 0,
        }
    }

    /// Adds a state with its equation set and initial conditions
    /// (builder style). The first added state is initially active.
    pub fn with_state(
        mut self,
        name: impl Into<String>,
        equations: Box<dyn OdeSystem + Send>,
        x0: &[f64],
    ) -> Self {
        self.states.push((name.into(), equations, x0.to_vec()));
        if self.states.len() == 1 {
            self.x = x0.to_vec();
        }
        self
    }

    /// Declared state names, in order.
    pub fn state_names(&self) -> Vec<&str> {
        self.states.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    /// Number of tick timeouts processed.
    pub fn ticks_seen(&self) -> u64 {
        self.ticks_seen
    }
}

impl Capsule for EquationStateCapsule {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, ctx: &mut CapsuleContext) {
        self.last_t = ctx.now();
        ctx.inform_every(self.tick, "tick");
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut CapsuleContext) {
        match (msg.port(), msg.signal()) {
            (TIMER_PORT, "tick") => {
                // The whole integration happens inside this RTC step —
                // exactly what the paper says "doesn't work efficiently".
                self.ticks_seen += 1;
                let t_now = ctx.now();
                if let Some((_, sys, _)) = self.states.get(self.active) {
                    let h = (t_now - self.last_t).max(self.tick) / self.substeps as f64;
                    let mut t = self.last_t;
                    for _ in 0..self.substeps {
                        let _ = self.solver.step(sys.as_ref(), t, &mut self.x, h);
                        t += h;
                    }
                }
                self.last_t = t_now;
            }
            (_, "switch") => {
                // Mode change: activate the named state's equations.
                if let Some(name) = msg.value().as_text() {
                    if let Some(idx) = self.states.iter().position(|(n, _, _)| n == name) {
                        self.active = idx;
                        self.x = self.states[idx].2.clone();
                    }
                }
            }
            _ => {}
        }
    }

    fn current_state(&self) -> &str {
        self.states.get(self.active).map(|(n, _, _)| n.as_str()).unwrap_or("-")
    }
}

/// Experiment E2: wall-clock event latency under equation load.
///
/// * **RTC-integrated** (Bichler): one thread alternates between computing
///   all equations and processing pending events; an event that arrives at
///   the start of a step waits for the whole equation batch.
/// * **Unified** (the paper): equations run on a dedicated solver thread;
///   the event thread handles events immediately.
///
/// Both process the same workload: `n_systems` Van der Pol oscillators at
/// `substeps` RK4 sub-steps per macro step, with one environment event per
/// macro step, over `n_steps` steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchitectureBenchmark {
    /// Number of independent equation systems (continuous load).
    pub n_systems: usize,
    /// RK4 sub-steps per system per macro step.
    pub substeps: usize,
    /// Number of macro steps to run.
    pub n_steps: usize,
}

impl ArchitectureBenchmark {
    /// A small default workload.
    pub fn new(n_systems: usize) -> Self {
        ArchitectureBenchmark { n_systems, substeps: 32, n_steps: 200 }
    }

    fn make_load(&self) -> Vec<(VanDerPol, Vec<f64>)> {
        (0..self.n_systems)
            .map(|i| (VanDerPol { mu: 1.0 + i as f64 * 0.01 }, vec![2.0, 0.0]))
            .collect()
    }

    fn compute_equations(
        solver: &mut Rk4,
        load: &mut [(VanDerPol, Vec<f64>)],
        t: f64,
        substeps: usize,
    ) {
        let h = 1e-4;
        for (sys, x) in load.iter_mut() {
            let mut tt = t;
            for _ in 0..substeps {
                let _ = solver.step(sys, tt, x, h);
                tt += h;
            }
        }
    }

    /// Runs the RTC-integrated (Bichler) architecture; returns event
    /// latency statistics.
    pub fn run_rtc_integrated(&self) -> LatencyReport {
        let mut load = self.make_load();
        let mut solver = Rk4::new();
        let mut latencies: Vec<Duration> = Vec::with_capacity(self.n_steps);
        for step in 0..self.n_steps {
            // An environment event arrives now...
            let arrival = Instant::now();
            // ...but the event thread first runs the equations (RTC step
            // of the equation-carrying capsule).
            Self::compute_equations(&mut solver, &mut load, step as f64 * 1e-3, self.substeps);
            // Only now is the event processed.
            latencies.push(arrival.elapsed());
        }
        LatencyReport::from_durations(&latencies)
    }

    /// Runs the paper's architecture: equations on a dedicated solver
    /// thread, events handled immediately on the event thread.
    pub fn run_unified(&self) -> LatencyReport {
        use std::sync::mpsc::sync_channel;
        let mut load = self.make_load();
        let substeps = self.substeps;
        let n_steps = self.n_steps;
        // Capacity 1 so the tick handoff never blocks the event thread on
        // a rendezvous with the solver thread.
        let (tick_tx, tick_rx) = sync_channel::<usize>(1);
        let (done_tx, done_rx) = sync_channel::<()>(1);
        let mut latencies: Vec<Duration> = Vec::with_capacity(n_steps);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut solver = Rk4::new();
                while let Ok(step) = tick_rx.recv() {
                    Self::compute_equations(&mut solver, &mut load, step as f64 * 1e-3, substeps);
                    if done_tx.send(()).is_err() {
                        break;
                    }
                }
            });
            for step in 0..n_steps {
                // The same event arrives at the same point in the cycle...
                let arrival = Instant::now();
                // ...solver thread starts its macro step...
                tick_tx.send(step).expect("solver thread alive");
                // ...and the event thread handles the event immediately.
                latencies.push(arrival.elapsed());
                // Synchronise at the end of the macro step (the engine's
                // barrier), which does not affect the already-recorded
                // event latency.
                done_rx.recv().expect("solver thread alive");
            }
            drop(tick_tx);
        });
        LatencyReport::from_durations(&latencies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urt_umlrt::controller::Controller;
    use urt_umlrt::value::Value;

    #[test]
    fn equation_capsule_integrates_on_ticks() {
        let cap = EquationStateCapsule::new("vdp", 0.01, 8).with_state(
            "run",
            Box::new(VanDerPol { mu: 1.0 }),
            &[2.0, 0.0],
        );
        let mut c = Controller::new("events");
        let i = c.add_capsule(Box::new(cap));
        c.start().unwrap();
        c.run_until(0.1).unwrap();
        assert_eq!(c.capsule_state(i).unwrap(), "run");
        // 10 ticks fired and the state moved.
        assert!(c.delivered_count() >= 10);
    }

    #[test]
    fn equation_capsule_switches_modes() {
        let cap = EquationStateCapsule::new("dual", 0.01, 4)
            .with_state("a", Box::new(VanDerPol { mu: 1.0 }), &[2.0, 0.0])
            .with_state("b", Box::new(VanDerPol { mu: 5.0 }), &[1.0, 1.0]);
        let mut c = Controller::new("events");
        let i = c.add_capsule(Box::new(cap));
        c.start().unwrap();
        c.inject(i, "ctl", Message::new("switch", Value::Text("b".into()))).unwrap();
        c.run_until_quiescent().unwrap();
        assert_eq!(c.capsule_state(i).unwrap(), "b");
    }

    #[test]
    #[should_panic(expected = "tick period must be positive")]
    fn capsule_validates_tick() {
        let _ = EquationStateCapsule::new("x", 0.0, 1);
    }

    #[test]
    fn unified_beats_rtc_integrated_under_load() {
        // Keep the load small for CI, but large enough to dominate thread
        // wake-up noise.
        let bench = ArchitectureBenchmark { n_systems: 50, substeps: 64, n_steps: 50 };
        let rtc = bench.run_rtc_integrated();
        let unified = bench.run_unified();
        assert!(
            unified.p50_us() < rtc.p50_us() / 2.0,
            "unified p50 {}us should be far below rtc p50 {}us",
            unified.p50_us(),
            rtc.p50_us()
        );
    }

    #[test]
    fn rtc_latency_grows_with_equation_load() {
        let small =
            ArchitectureBenchmark { n_systems: 4, substeps: 32, n_steps: 30 }.run_rtc_integrated();
        let large =
            ArchitectureBenchmark { n_systems: 64, substeps: 32, n_steps: 30 }.run_rtc_integrated();
        assert!(
            large.p50_us() > small.p50_us() * 4.0,
            "16x load should raise latency well beyond 4x: {} vs {}",
            small.p50_us(),
            large.p50_us()
        );
    }
}
