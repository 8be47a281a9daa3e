//! Integration: failure paths — diverging solvers, dead links and
//! lifecycle misuse must surface as errors, not hangs or silent
//! corruption.

use unified_rt::core::elaborate::{elaborate, BehaviorRegistry};
use unified_rt::core::engine::{EngineConfig, HybridEngine};
use unified_rt::core::model::ModelBuilder;
use unified_rt::core::pacer::PacedConfig;
use unified_rt::core::threading::ThreadPolicy;
use unified_rt::core::CoreError;
use unified_rt::dataflow::flowtype::FlowType;
use unified_rt::dataflow::streamer::{OdeStreamer, StreamerBehavior};
use unified_rt::ode::solver::SolverKind;
use unified_rt::ode::system::FnInputSystem;
use unified_rt::ode::SolveError;
use unified_rt::umlrt::capsule::{CapsuleContext, SmCapsule};
use unified_rt::umlrt::controller::Controller;
use unified_rt::umlrt::statemachine::StateMachineBuilder;

fn idle_controller() -> Controller {
    let sm = StateMachineBuilder::new("idle")
        .state("s")
        .initial("s", |_d: &mut (), _ctx: &mut CapsuleContext| {})
        .build()
        .expect("sm");
    let mut c = Controller::new("ev");
    c.add_capsule(Box::new(SmCapsule::new(sm, ())));
    c
}

fn exploding_engine(policy: ThreadPolicy) -> HybridEngine {
    // x' = x^2 with x0 = 1 blows up at t = 1 (finite escape time).
    let mut b = ModelBuilder::new("explosive");
    let bomb = b.streamer("bomb", "rk4");
    b.streamer_out(bomb, "y", FlowType::scalar());
    b.streamer_feedthrough(bomb, false);
    let registry = BehaviorRegistry::new().streamer("bomb", || {
        let sys = FnInputSystem::new(1, 0, |_t, x: &[f64], _u: &[f64], dx: &mut [f64]| {
            dx[0] = x[0] * x[0];
        });
        Box::new(OdeStreamer::new("bomb", sys, SolverKind::Rk4.create(), &[1.0], 1e-3))
    });
    let compiled = elaborate(&b.build(), registry).expect("compiles");
    HybridEngine::from_compiled(&compiled, EngineConfig { step: 0.01, policy }).expect("engine")
}

/// After the blow-up inside macro step 101 (t = 1.00 .. 1.01), the
/// engine reports the 100 steps it completed and refuses every further
/// step with a URT111 error naming the failed one — no panic, no
/// stepping on.
fn assert_failed_for_good(engine: &mut HybridEngine, policy: ThreadPolicy) {
    assert_eq!(engine.step_count(), 100, "{policy}: steps completed before the failure");
    assert_eq!(engine.time().to_bits(), 1.0f64.to_bits(), "{policy}: time of the last step");
    let paced = PacedConfig::new().with_rate(1e9);
    for err in [
        engine.run_until(3.0).expect_err("run_until after failure"),
        engine.step_once().expect_err("step_once after failure"),
        engine.run_paced(3.0, paced).expect_err("run_paced after failure"),
    ] {
        assert!(matches!(err, CoreError::Engine { .. }), "{policy}: {err}");
        assert!(err.to_string().starts_with("URT111: "), "{policy}: {err}");
        assert!(err.to_string().contains("macro step 101"), "{policy}: {err}");
    }
    assert_eq!(engine.step_count(), 100, "{policy}: no step taken after the failure");
}

#[test]
fn diverging_solver_errors_locally() {
    let mut engine = exploding_engine(ThreadPolicy::CurrentThread);
    let err = engine.run_until(2.0).expect_err("finite escape must error");
    assert!(
        matches!(err, CoreError::Flow(_)),
        "solver failure surfaces as a dataflow error: {err}"
    );
    assert!(engine.time() < 1.5, "stopped near the blow-up, not at t_end");
    assert_failed_for_good(&mut engine, ThreadPolicy::CurrentThread);
}

#[test]
fn diverging_solver_errors_across_threads() {
    let mut engine = exploding_engine(ThreadPolicy::DedicatedThreads);
    let err = engine.run_until(2.0).expect_err("finite escape must error");
    assert!(matches!(err, CoreError::Flow(_) | CoreError::ThreadLost { .. }));
    assert_failed_for_good(&mut engine, ThreadPolicy::DedicatedThreads);
}

#[test]
fn behaviour_error_mid_run_is_recoverable_state() {
    // A behaviour that fails on the 5th step.
    struct FailsAtFive {
        count: u32,
    }
    impl StreamerBehavior for FailsAtFive {
        fn name(&self) -> &str {
            "flaky"
        }
        fn input_width(&self) -> usize {
            0
        }
        fn output_width(&self) -> usize {
            1
        }
        fn advance(
            &mut self,
            _t: f64,
            _h: f64,
            _u: &[f64],
            y: &mut [f64],
        ) -> Result<(), SolveError> {
            self.count += 1;
            if self.count >= 5 {
                return Err(SolveError::NonFiniteState { time: 0.0 });
            }
            y[0] = self.count as f64;
            Ok(())
        }
    }
    let mut b = ModelBuilder::new("flaky");
    let s = b.streamer("flaky", "none");
    b.streamer_out(s, "y", FlowType::scalar());
    let registry = BehaviorRegistry::new().streamer("flaky", || Box::new(FailsAtFive { count: 0 }));
    let compiled = elaborate(&b.build(), registry).expect("compiles");
    let config = EngineConfig { step: 0.01, policy: ThreadPolicy::CurrentThread };
    let mut engine = HybridEngine::from_compiled(&compiled, config).expect("engine");
    for _ in 0..4 {
        engine.step_once().expect("healthy step");
    }
    let err = engine.step_once().expect_err("fifth step fails");
    assert!(matches!(err, CoreError::Flow(_)), "behaviour failure surfaces as dataflow: {err}");
    // The engine reports its time consistently after the failure.
    assert_eq!(engine.step_count(), 4, "failed step is not counted");
    assert!((engine.time() - 0.04).abs() < 1e-12, "failed step did not advance time");
}

#[test]
fn unstarted_controller_rejects_stepping() {
    let mut c = idle_controller();
    assert!(c.step().is_err());
    assert!(c.run_until_quiescent().is_err());
    assert!(c.run_until(1.0).is_err());
    c.start().expect("start");
    assert!(c.run_until(1.0).is_ok());
}

#[test]
fn undrained_outbox_keeps_messages_and_only_unwired_sends_drop() {
    let sm = StateMachineBuilder::new("talker")
        .state("s")
        .initial("s", |_d: &mut (), ctx: &mut CapsuleContext| {
            for i in 0..3 {
                ctx.send("ext", "hello", unified_rt::umlrt::value::Value::Int(i));
                ctx.send("nowhere", "lost", unified_rt::umlrt::value::Value::Int(i));
            }
        })
        .build()
        .expect("sm");
    let mut c = Controller::new("ev");
    let idx = c.add_capsule(Box::new(SmCapsule::new(sm, ())));
    let endpoint = c.connect_external(idx, "ext").expect("wire");
    c.start().expect("start");
    // Nobody drains the outbox: every send on the wired port waits there,
    // in send order, and none of them counts as a drop.
    let pending: Vec<(String, Option<i64>)> = c
        .external_outbox(endpoint)
        .iter()
        .map(|m| (m.signal().to_owned(), m.value().as_int()))
        .collect();
    let expected: Vec<(String, Option<i64>)> =
        (0..3).map(|i| ("hello".to_owned(), Some(i))).collect();
    assert_eq!(pending, expected, "the undrained outbox keeps every message in order");
    assert!(c.external_outbox(endpoint).iter().all(|m| m.port() == "ext"));
    assert_eq!(c.dropped_count(), 3, "only the sends on the unwired port are drops");
}
