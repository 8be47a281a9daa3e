//! Scripted environment scenarios: timed message injections driving an
//! engine run (the workload generators of the E-experiments and tests).

use crate::engine::HybridEngine;
use crate::error::CoreError;
use urt_umlrt::message::Message;
use urt_umlrt::value::Value;

/// One scripted stimulus.
#[derive(Debug, Clone, PartialEq)]
pub struct Stimulus {
    /// Injection time (engine simulation time, seconds).
    pub at: f64,
    /// Destination capsule index.
    pub capsule: usize,
    /// Destination port.
    pub port: String,
    /// Signal name.
    pub signal: String,
    /// Payload.
    pub value: Value,
}

/// A time-ordered list of stimuli, replayed into an engine.
///
/// # Examples
///
/// ```
/// use urt_core::scenario::Scenario;
/// use urt_umlrt::value::Value;
///
/// let scenario = Scenario::new()
///     .at(1.0, 0, "ctl", "start", Value::Empty)
///     .at(5.0, 0, "ctl", "stop", Value::Empty);
/// assert_eq!(scenario.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Scenario {
    stimuli: Vec<Stimulus>,
}

impl Scenario {
    /// An empty scenario.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a stimulus (builder style). Stimuli may be added in any
    /// order; replay sorts by time.
    pub fn at(
        mut self,
        time: f64,
        capsule: usize,
        port: impl Into<String>,
        signal: impl Into<String>,
        value: Value,
    ) -> Self {
        self.stimuli.push(Stimulus {
            at: time,
            capsule,
            port: port.into(),
            signal: signal.into(),
            value,
        });
        self
    }

    /// Number of stimuli.
    pub fn len(&self) -> usize {
        self.stimuli.len()
    }

    /// Whether the scenario is empty.
    pub fn is_empty(&self) -> bool {
        self.stimuli.is_empty()
    }

    /// Runs `engine` until `t_end`, injecting each stimulus at (or just
    /// before) its scheduled time, in time order.
    ///
    /// # Errors
    ///
    /// [`CoreError::NonFiniteTime`] (`URT118`) if `t_end` or a stimulus
    /// time is not a finite number, before anything runs; otherwise
    /// propagates engine and injection failures.
    pub fn run(&self, engine: &mut HybridEngine, t_end: f64) -> Result<(), CoreError> {
        crate::time::check_finite("run horizon", t_end)?;
        for s in &self.stimuli {
            crate::time::check_finite("stimulus time", s.at)?;
        }
        let mut ordered: Vec<&Stimulus> = self.stimuli.iter().collect();
        ordered.sort_by(|a, b| a.at.total_cmp(&b.at));
        for s in ordered {
            if s.at > t_end {
                break;
            }
            if s.at > engine.time() {
                engine.run_until(s.at)?;
            }
            let msg = Message::new(s.signal.clone(), s.value.clone()).with_sent_at(engine.time());
            engine.controller_mut().inject(s.capsule, &s.port, msg)?;
        }
        engine.run_until(t_end)?;
        Ok(())
    }
}

impl FromIterator<Stimulus> for Scenario {
    fn from_iter<I: IntoIterator<Item = Stimulus>>(iter: I) -> Self {
        Scenario { stimuli: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::{elaborate, BehaviorRegistry};
    use crate::engine::EngineConfig;
    use crate::model::ModelBuilder;
    use crate::threading::ThreadPolicy;
    use urt_umlrt::capsule::{CapsuleContext, SmCapsule};
    use urt_umlrt::statemachine::StateMachineBuilder;

    fn counting_engine() -> HybridEngine {
        let mut b = ModelBuilder::new("ev");
        b.capsule("counter");
        let registry = BehaviorRegistry::new().capsule("counter", || {
            let sm = StateMachineBuilder::new("counter")
                .state("s")
                .initial("s", |_d: &mut Vec<f64>, _ctx: &mut CapsuleContext| {})
                .internal("s", ("env", "ping"), |d, m, ctx| {
                    d.push(ctx.now());
                    let _ = m;
                })
                .build()
                .unwrap();
            Box::new(SmCapsule::new(sm, Vec::new()))
        });
        let compiled = elaborate(&b.build(), registry).unwrap();
        let config = EngineConfig { step: 0.01, policy: ThreadPolicy::CurrentThread };
        HybridEngine::from_compiled(&compiled, config).unwrap()
    }

    #[test]
    fn stimuli_arrive_in_time_order() {
        // Added out of order on purpose.
        let scenario = Scenario::new()
            .at(0.5, 0, "env", "ping", Value::Empty)
            .at(0.1, 0, "env", "ping", Value::Empty)
            .at(0.3, 0, "env", "ping", Value::Empty);
        let mut engine = counting_engine();
        scenario.run(&mut engine, 1.0).unwrap();
        assert!((engine.time() - 1.0).abs() < 1e-9);
        assert_eq!(engine.controller().delivered_count(), 3);
    }

    #[test]
    fn stimuli_beyond_t_end_are_skipped() {
        let scenario = Scenario::new().at(0.1, 0, "env", "ping", Value::Empty).at(
            9.0,
            0,
            "env",
            "ping",
            Value::Empty,
        );
        let mut engine = counting_engine();
        scenario.run(&mut engine, 1.0).unwrap();
        assert_eq!(engine.controller().delivered_count(), 1);
    }

    #[test]
    fn empty_scenario_just_runs() {
        let mut engine = counting_engine();
        Scenario::new().run(&mut engine, 0.5).unwrap();
        assert!((engine.time() - 0.5).abs() < 1e-9);
        assert!(Scenario::new().is_empty());
    }

    #[test]
    fn collects_from_iterator() {
        let s: Scenario = (0..3)
            .map(|i| Stimulus {
                at: i as f64,
                capsule: 0,
                port: "p".into(),
                signal: "s".into(),
                value: Value::Int(i),
            })
            .collect();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn non_finite_times_are_refused_before_anything_runs() {
        let ping = |at| Scenario::new().at(at, 0, "env", "ping", Value::Empty);
        let mut engine = counting_engine();
        for (scenario, t_end) in [
            (ping(0.1), f64::NAN),
            (ping(0.1), f64::INFINITY),
            (ping(f64::NAN), 1.0),
            (ping(0.1).at(f64::NEG_INFINITY, 0, "env", "ping", Value::Empty), 1.0),
        ] {
            let err = scenario.run(&mut engine, t_end).expect_err("refused");
            assert_eq!(err.code(), "URT118", "{err}");
            assert_eq!(engine.step_count(), 0, "{err}: no step taken");
            assert_eq!(engine.controller().delivered_count(), 0, "{err}: nothing injected");
        }
        ping(0.1).run(&mut engine, 0.5).expect("the engine stays usable");
        assert_eq!(engine.controller().delivered_count(), 1);
    }

    #[test]
    fn bad_capsule_index_errors() {
        let scenario = Scenario::new().at(0.1, 9, "env", "ping", Value::Empty);
        let mut engine = counting_engine();
        assert!(scenario.run(&mut engine, 1.0).is_err());
    }
}
