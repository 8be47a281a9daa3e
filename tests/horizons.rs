//! A run asked to reach a time that is not a finite number (NaN, ±∞) is
//! refused with `URT118` before anything starts, on both engines, both
//! entry points and both thread policies, and the engine stays usable.
//!
//! The model's one streamer is a tripwire: while armed, any `advance`
//! panics. A refusal that regressed into stepping — `run_until(∞)` asking
//! for `u64::MAX` macro steps, say — therefore fails at its first step
//! instead of hanging the suite.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use unified_rt::analysis::compile;
use unified_rt::core::elaborate::{BehaviorRegistry, CompiledSystem};
use unified_rt::core::engine::{EngineConfig, HybridEngine};
use unified_rt::core::ensemble::EnsembleEngine;
use unified_rt::core::error::CoreError;
use unified_rt::core::model::ModelBuilder;
use unified_rt::core::pacer::PacedConfig;
use unified_rt::core::threading::ThreadPolicy;
use unified_rt::dataflow::flowtype::FlowType;
use unified_rt::dataflow::streamer::StreamerBehavior;
use unified_rt::ode::SolveError;

const STEP: f64 = 0.01;

/// Counts its starts and panics on any step taken while `armed`.
struct Tripwire {
    armed: Arc<AtomicBool>,
    started: Arc<AtomicUsize>,
}

impl StreamerBehavior for Tripwire {
    fn name(&self) -> &str {
        "trip"
    }
    fn input_width(&self) -> usize {
        0
    }
    fn output_width(&self) -> usize {
        1
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn initialize(&mut self, _t0: f64) -> Result<(), SolveError> {
        self.started.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
    fn advance(&mut self, t: f64, _h: f64, _u: &[f64], y: &mut [f64]) -> Result<(), SolveError> {
        assert!(!self.armed.load(Ordering::Relaxed), "a refused run stepped");
        y[0] = t;
        Ok(())
    }
}

/// One tripwire streamer, probed as `y`.
fn tripwire_system(armed: &Arc<AtomicBool>, started: &Arc<AtomicUsize>) -> CompiledSystem {
    let mut b = ModelBuilder::new("horizons");
    let s = b.streamer("trip", "none");
    b.streamer_out(s, "y", FlowType::scalar());
    b.streamer_feedthrough(s, false);
    b.probe(s, "y", "y");
    let (armed, started) = (armed.clone(), started.clone());
    let registry = BehaviorRegistry::new().streamer("trip", move || {
        Box::new(Tripwire { armed: armed.clone(), started: started.clone() })
    });
    compile(&b.build(), registry).expect("tripwire model compiles")
}

/// Builds an engine with `build` under each policy and asks `run` to
/// reach each non-finite horizon: every call must return `URT118` at
/// once, with nothing started and no step taken. The same engine must
/// then run two steps to a finite horizon.
fn assert_refuses_non_finite_horizons<E>(
    build: impl Fn(&CompiledSystem, EngineConfig) -> E,
    run: impl Fn(&mut E, f64) -> Result<(), CoreError>,
    step_count: impl Fn(&E) -> u64,
) {
    for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
        let armed = Arc::new(AtomicBool::new(true));
        let started = Arc::new(AtomicUsize::new(0));
        let compiled = tripwire_system(&armed, &started);
        let mut engine = build(&compiled, EngineConfig { step: STEP, policy });
        for t_end in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let what = format!("{policy}, t_end {t_end}");
            let err = run(&mut engine, t_end).expect_err(&what);
            assert!(matches!(err, CoreError::NonFiniteTime { .. }), "{what}: {err}");
            assert_eq!(err.code(), "URT118", "{what}");
            assert_eq!(started.load(Ordering::Relaxed), 0, "{what}: nothing started");
            assert_eq!(step_count(&engine), 0, "{what}: no step taken");
        }
        armed.store(false, Ordering::Relaxed);
        run(&mut engine, 2.0 * STEP).expect("the engine stays usable");
        assert_eq!(step_count(&engine), 2, "{policy}");
    }
}

fn hybrid(compiled: &CompiledSystem, config: EngineConfig) -> HybridEngine {
    HybridEngine::from_compiled(compiled, config).expect("engine")
}

fn ensemble(compiled: &CompiledSystem, config: EngineConfig) -> EnsembleEngine {
    EnsembleEngine::from_compiled(compiled, 3, config).expect("ensemble")
}

fn paced() -> PacedConfig {
    PacedConfig::new().with_rate(1e9)
}

#[test]
fn hybrid_run_until_refuses_non_finite_horizons_with_urt118() {
    assert_refuses_non_finite_horizons(hybrid, |e, t| e.run_until(t), HybridEngine::step_count);
}

#[test]
fn hybrid_run_paced_refuses_non_finite_horizons_with_urt118() {
    assert_refuses_non_finite_horizons(
        hybrid,
        |e, t| e.run_paced(t, paced()).map(drop),
        HybridEngine::step_count,
    );
}

#[test]
fn ensemble_run_until_refuses_non_finite_horizons_with_urt118() {
    assert_refuses_non_finite_horizons(ensemble, |e, t| e.run_until(t), EnsembleEngine::step_count);
}

#[test]
fn ensemble_run_paced_refuses_non_finite_horizons_with_urt118() {
    assert_refuses_non_finite_horizons(
        ensemble,
        |e, t| e.run_paced(t, paced()).map(drop),
        EnsembleEngine::step_count,
    );
}
