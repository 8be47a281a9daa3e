//! Shared helpers for the benchmark harness and the table/figure report
//! binaries.
//!
//! Every table and figure of the paper has a regenerator here:
//!
//! | Artifact | Report binary | Bench target |
//! |----------|---------------|-----------------|
//! | Table 1  | `report_table1` | `bench_table1` |
//! | Figure 1 | `report_fig1` | `bench_fig1` |
//! | Figure 2 | `report_fig2` | `bench_fig2` |
//! | Figure 3 | `report_fig3` | `bench_fig3` |
//! | E1 (solver accuracy) | `report_e1` | `bench_e1_solvers` |
//! | E2 (architecture latency) | `report_e2` | `bench_e2_architecture` |
//! | E3 (Kühl translation cost) | `report_e3` | `bench_e3_translation` |
//! | E4 (thread assignment) | `report_e4` | `bench_e4_threading` |
//! | E5 (Time vs timers) | `report_e5` | `bench_e5_time` |

pub mod timer;

use urt_analysis::compile;
use urt_blocks::continuous::Integrator;
use urt_blocks::diagram::BlockDiagram;
use urt_blocks::math::{Gain, Sum};
use urt_blocks::sources::Constant;
use urt_core::elaborate::{elaborate, BehaviorRegistry, CompiledSystem};
use urt_core::model::ModelBuilder;
use urt_core::threading::GroupingPolicy;
use urt_dataflow::flowtype::FlowType;
use urt_dataflow::streamer::{FnStreamer, OdeStreamer, StreamerBehavior};
use urt_ode::solver::SolverKind;
use urt_ode::system::library::VanDerPol;

/// Figure 2 as a one-group compiled model: `sub1` (closed-form
/// `sin(2t)`, or with `ode` the RK4-integrated [`SineOsc`]) fanned out to
/// a doubler `sub2` and a squarer `sub3` — the paper's relay, one flow
/// duplicated into two similar flows; `sub2.y` is probed as `y0`.
///
/// The ODE-backed `sub1` integrates `x'' = -ω² x` with `ω = 2`,
/// `x(0) = 0, x'(0) = 2` (RK4, `substep = 1e-4`), whose exact solution is
/// `x(t) = sin(2t)`, so downstream semantics match; it gives a batched
/// solver kernel ODE lanes to act on, which the closed form has not.
///
/// # Panics
///
/// Panics only on internal construction errors (it is a fixed topology).
pub fn fig2_model(ode: bool) -> CompiledSystem {
    fig2_model_with(ode, |b| b)
}

/// Wraps the behaviour of a model's ODE row on every instantiation; the
/// kernel axis of `bench_engine` hides the row's ODE lanes this way.
pub type Wrap = fn(Box<dyn StreamerBehavior>) -> Box<dyn StreamerBehavior>;

/// [`fig2_model`] with `sub1`'s behaviour passed through `wrap`.
///
/// # Panics
///
/// As [`fig2_model`].
pub fn fig2_model_with(ode: bool, wrap: Wrap) -> CompiledSystem {
    let mut b = ModelBuilder::new("fig2-axis");
    let s1 = b.streamer("sub1", if ode { "rk4" } else { "none" });
    b.streamer_out(s1, "y", FlowType::scalar());
    b.streamer_feedthrough(s1, !ode);
    let registry = BehaviorRegistry::new()
        .streamer("sub1", move || -> Box<dyn StreamerBehavior> {
            wrap(if ode {
                let osc = SineOsc { omega: 2.0 };
                Box::new(OdeStreamer::new("sub1", osc, SolverKind::Rk4.create(), &[0.0, 2.0], 1e-4))
            } else {
                Box::new(FnStreamer::new("sub1", 0, 1, |t: f64, _h, _u: &[f64], y: &mut [f64]| {
                    y[0] = (2.0 * t).sin()
                }))
            })
        })
        .streamer("sub2", || {
            Box::new(FnStreamer::new("sub2", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| {
                y[0] = 2.0 * u[0]
            }))
        })
        .streamer("sub3", || {
            Box::new(FnStreamer::new("sub3", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| {
                y[0] = u[0] * u[0]
            }))
        });
    for name in ["sub2", "sub3"] {
        let s = b.streamer(name, "none");
        b.streamer_in(s, "u", FlowType::scalar());
        b.streamer_out(s, "y", FlowType::scalar());
        b.flow_between_streamers(s1, "y", s, "u");
        if name == "sub2" {
            b.probe(s, "y", "y0");
        }
    }
    compile(&b.build(), registry).expect("fig2 model compiles")
}

/// Undamped harmonic oscillator `x'' = -ω² x` as an input-free
/// [`urt_ode::system::InputSystem`] exposing only the position — the
/// ODE-backed stand-in for fig2's `sin(2t)` source ([`fig2_model`]).
#[derive(Clone)]
pub struct SineOsc {
    /// Angular frequency ω.
    pub omega: f64,
}

impl urt_ode::system::InputSystem for SineOsc {
    fn dim(&self) -> usize {
        2
    }

    fn input_dim(&self) -> usize {
        0
    }

    fn derivatives(&self, _t: f64, x: &[f64], _u: &[f64], dx: &mut [f64]) {
        dx[0] = x[1];
        dx[1] = -self.omega * self.omega * x[0];
    }

    fn output(&self, _t: f64, x: &[f64], _u: &[f64], y: &mut [f64]) {
        y[0] = x[0];
    }

    fn output_dim(&self) -> usize {
        1
    }
}

/// A chain of `stages` streamers as a one-group compiled model, used by
/// the scaling benches: an RK4 Van der Pol oscillator `vdp0`, then (for
/// `stages > 1`) a vec2 → scalar `adapter` and `stages - 1` gains of
/// 0.99. The tail (the last gain, or the oscillator alone) is probed as
/// `y0`.
///
/// # Panics
///
/// Panics if `stages == 0`.
pub fn chain_model(stages: usize) -> CompiledSystem {
    chain_model_with(stages, |b| b)
}

/// [`chain_model`] with `vdp0`'s behaviour passed through `wrap`.
///
/// # Panics
///
/// As [`chain_model`].
pub fn chain_model_with(stages: usize, wrap: Wrap) -> CompiledSystem {
    assert!(stages > 0, "need at least one streamer");
    let mut b = ModelBuilder::new("chain-axis");
    let vdp = b.streamer("vdp0", "rk4");
    b.streamer_out(vdp, "y", FlowType::vector(2));
    b.streamer_feedthrough(vdp, false);
    let mut registry = BehaviorRegistry::new().streamer("vdp0", move || {
        let system = WrappedVdp(VanDerPol { mu: 1.0 });
        wrap(Box::new(OdeStreamer::new(
            "vdp0",
            system,
            SolverKind::Rk4.create(),
            &[2.0, 0.0],
            1e-3,
        )))
    });
    let mut tail = vdp;
    if stages > 1 {
        tail = b.streamer("adapter", "none");
        b.streamer_in(tail, "u", FlowType::vector(2));
        b.streamer_out(tail, "y", FlowType::scalar());
        b.flow_between_streamers(vdp, "y", tail, "u");
        registry = registry.streamer("adapter", || {
            Box::new(FnStreamer::new("adapter", 2, 1, |_t, _h, u: &[f64], y: &mut [f64]| {
                y[0] = u[0]
            }))
        });
    }
    for i in 1..stages {
        let name = format!("gain{i}");
        let s = b.streamer(&name, "none");
        b.streamer_in(s, "u", FlowType::scalar());
        b.streamer_out(s, "y", FlowType::scalar());
        b.flow_between_streamers(tail, "y", s, "u");
        registry = registry.streamer(name.clone(), move || {
            Box::new(FnStreamer::new(name.clone(), 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| {
                y[0] = 0.99 * u[0]
            }))
        });
        tail = s;
    }
    b.probe(tail, "y", "y0");
    compile(&b.build(), registry).expect("chain model compiles")
}

/// An [`OdeStreamer`]-compatible wrapper giving [`VanDerPol`] an input
/// dimension of zero.
#[derive(Clone)]
pub struct WrappedVdp(pub VanDerPol);

impl urt_ode::system::InputSystem for WrappedVdp {
    #[inline]
    fn dim(&self) -> usize {
        2
    }

    #[inline]
    fn input_dim(&self) -> usize {
        0
    }

    #[inline]
    fn derivatives(&self, t: f64, x: &[f64], _u: &[f64], dx: &mut [f64]) {
        use urt_ode::system::OdeSystem;
        self.0.derivatives(t, x, dx);
    }
}

/// The E4 thread-assignment system: `n` independent Van der Pol
/// streamers (μ = 1.5, x0 = (2, 0), RK4 at `substep`), each declared on
/// the solver thread `grouping` assigns it, beside one idle capsule.
/// Shared by `report_e4` and `bench_e4_threading`.
///
/// # Panics
///
/// Panics only on internal construction errors (the topology is fixed).
pub fn vdp_grouping_system(n: usize, grouping: GroupingPolicy, substep: f64) -> CompiledSystem {
    let mut b = ModelBuilder::new("e4");
    b.capsule("idle");
    let mut registry = BehaviorRegistry::new();
    for (i, thread) in grouping.assign(n).into_iter().enumerate() {
        let name = format!("vdp{i}");
        let s = b.streamer(&name, "rk4");
        b.streamer_out(s, "y", FlowType::vector(2));
        b.streamer_feedthrough(s, false);
        b.assign_thread(s, thread);
        registry = registry.streamer(name.clone(), move || {
            Box::new(OdeStreamer::new(
                name.clone(),
                WrappedVdp(VanDerPol { mu: 1.5 }),
                SolverKind::Rk4.create(),
                &[2.0, 0.0],
                substep,
            ))
        });
    }
    elaborate(&b.build(), registry).expect("E4 system compiles")
}

/// One first-order lag streamer (x' = 1 - x, x0 = 0, RK4 at `substep`)
/// beside one idle capsule: the smallest hybrid system, shared by
/// `bench_fig3` and `report_ablation`.
///
/// # Panics
///
/// Panics only on internal construction errors (the topology is fixed).
pub fn lag_system(substep: f64) -> CompiledSystem {
    #[derive(Clone)]
    struct Lag;
    impl urt_ode::system::InputSystem for Lag {
        fn dim(&self) -> usize {
            1
        }
        fn input_dim(&self) -> usize {
            0
        }
        fn derivatives(&self, _t: f64, x: &[f64], _u: &[f64], dx: &mut [f64]) {
            dx[0] = 1.0 - x[0];
        }
    }
    let mut b = ModelBuilder::new("lag");
    b.capsule("idle");
    let s = b.streamer("lag", "rk4");
    b.streamer_out(s, "y", FlowType::scalar());
    b.streamer_feedthrough(s, false);
    let registry = BehaviorRegistry::new().streamer("lag", move || {
        Box::new(OdeStreamer::new("lag", Lag, SolverKind::Rk4.create(), &[0.0], substep))
    });
    elaborate(&b.build(), registry).expect("lag system compiles")
}

/// Builds the standard feedback block diagram of `n_loops` independent
/// PI loops used by the E3 translation comparison.
///
/// # Panics
///
/// Panics if `n_loops == 0`.
pub fn feedback_diagram(n_loops: usize) -> BlockDiagram {
    assert!(n_loops > 0, "need at least one loop");
    let mut d = BlockDiagram::new(format!("feedback{n_loops}"));
    for i in 0..n_loops {
        let r = d.add_block_labeled(format!("ref{i}"), Constant::new(1.0));
        let e = d.add_block_labeled(format!("err{i}"), Sum::error());
        let g = d.add_block_labeled(format!("kp{i}"), Gain::new(2.0));
        let p = d.add_block_labeled(format!("plant{i}"), Integrator::new(0.0));
        d.connect(r, 0, e, 0).expect("wire");
        d.connect(p, 0, e, 1).expect("wire");
        d.connect(e, 0, g, 0).expect("wire");
        d.connect(g, 0, p, 0).expect("wire");
        d.mark_output(p, 0).expect("output");
    }
    d
}

/// The unified model's side of the E3 comparison: the block diagram
/// `diagram` builds, compiled into one native streamer `plant` with one
/// scalar output DPort `y{i}` per diagram output (`outputs` of them, at
/// least one), `y0` probed as `y0`. `diagram` runs once per
/// instantiation.
///
/// # Panics
///
/// Panics if `outputs == 0` or the diagram does not validate.
pub fn native_diagram_model(
    outputs: usize,
    diagram: impl Fn() -> BlockDiagram + Send + Sync + 'static,
) -> CompiledSystem {
    assert!(outputs > 0, "need at least one output");
    let streamer = diagram().into_streamer("plant").expect("diagram validates");
    let mut b = ModelBuilder::new("native");
    let s = b.streamer("plant", "none");
    for i in 0..outputs {
        b.streamer_out(s, format!("y{i}"), FlowType::scalar());
    }
    b.streamer_feedthrough(s, streamer.direct_feedthrough());
    b.probe(s, "y0", "y0");
    let registry = BehaviorRegistry::new().streamer("plant", move || {
        Box::new(diagram().into_streamer("plant").expect("diagram validates"))
    });
    compile(&b.build(), registry).expect("native model compiles")
}

/// Formats a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use urt_core::engine::{EngineConfig, HybridEngine};
    use urt_core::recorder::Recorder;
    use urt_core::threading::ThreadPolicy;

    fn run(compiled: &CompiledSystem, t_end: f64) -> Vec<(f64, f64)> {
        let config = EngineConfig { step: 0.01, policy: ThreadPolicy::CurrentThread };
        let mut engine = HybridEngine::from_compiled(compiled, config).unwrap();
        let rec = Recorder::new();
        engine.set_recorder(rec.clone());
        engine.run_until(t_end).unwrap();
        rec.series("y0")
    }

    #[test]
    fn fig2_model_runs() {
        let doubled = run(&fig2_model(false), 1.0);
        assert_eq!(doubled.len(), 100);
        // sub2 doubles sin(2t) sampled at the step start.
        for (t, y) in doubled {
            assert!((y - 2.0 * (2.0 * (t - 0.01)).sin()).abs() < 1e-9, "got {y} at t={t}");
        }
    }

    #[test]
    fn fig2_ode_source_tracks_the_closed_form() {
        let &(t, doubled) = run(&fig2_model(true), 2.0).last().unwrap();
        // sub2 doubles the integrated sin(2t); RK4 at substep 1e-4 keeps
        // the integration error far below this tolerance.
        assert!((doubled - 2.0 * (2.0 * t).sin()).abs() < 1e-6, "got {doubled} at t={t}");
    }

    #[test]
    fn chain_model_scales() {
        for n in [1, 4, 16] {
            let compiled = chain_model(n);
            assert_eq!(compiled.streamer_node(&format!("gain{}", n - 1)).is_some(), n > 1);
            let series = run(&compiled, 0.01);
            assert!(series.len() == 1 && series[0].1.is_finite(), "{n}: {series:?}");
        }
    }

    #[test]
    fn feedback_diagram_converges_after_translation_source() {
        let mut d = feedback_diagram(2);
        d.validate().unwrap();
        for k in 0..5000 {
            d.step(k as f64 * 0.001, 0.001, &[]);
        }
        for y in d.outputs() {
            assert!((y - 1.0).abs() < 0.05, "loop settled at {y}");
        }
    }

    #[test]
    fn row_formatting() {
        assert_eq!(row(&["a".into(), "b".into()]), "| a | b |");
    }
}
