//! Figure 3 bench: hybrid model step throughput — a capsule supervising
//! streamers through the engine, the paper's end-to-end structure.
//!
//! Runs on the in-tree [`urt_bench::timer`] harness.

use urt_core::engine::{EngineConfig, HybridEngine};
use urt_core::threading::ThreadPolicy;
use urt_dataflow::flowtype::FlowType;
use urt_dataflow::graph::StreamerNetwork;
use urt_dataflow::streamer::OdeStreamer;
use urt_ode::solver::SolverKind;
use urt_ode::system::InputSystem;
use urt_umlrt::capsule::{CapsuleContext, SmCapsule};
use urt_umlrt::controller::Controller;
use urt_umlrt::statemachine::StateMachineBuilder;

#[derive(Clone)]

struct Lag;

impl InputSystem for Lag {
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

fn engine() -> HybridEngine {
    let mut net = StreamerNetwork::new("plant");
    net.add_streamer(
        OdeStreamer::new("lag", Lag, SolverKind::Rk4.create(), &[0.0], 1e-4),
        &[],
        &[("y", FlowType::scalar())],
    )
    .expect("add");
    let sm = StateMachineBuilder::new("sup")
        .state("s")
        .initial("s", |_d: &mut (), _ctx: &mut CapsuleContext| {})
        .build()
        .expect("sm");
    let mut controller = Controller::new("ev");
    controller.add_capsule(Box::new(SmCapsule::new(sm, ())));
    let mut e = HybridEngine::new(
        controller,
        EngineConfig { step: 1e-3, policy: ThreadPolicy::CurrentThread },
    );
    e.add_group(net).expect("group");
    e
}

fn main() {
    use std::hint::black_box;
    use urt_bench::timer::{bench, bench_batched, report_header};

    println!("{}", report_header());

    let mut e = engine();
    let report = bench("fig3_hybrid/engine_macro_step", 5_000, || {
        black_box(&mut e).step_once().expect("step");
    });
    println!("{report}");

    let report = bench_batched("fig3_hybrid/engine_run_10ms", 100, engine, |mut e| {
        e.run_until(0.01).expect("run");
    });
    println!("{report}");
}
