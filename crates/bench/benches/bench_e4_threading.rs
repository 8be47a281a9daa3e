//! E4 bench: simulating 100 ms of k Van der Pol streamers under each
//! thread-assignment policy.
//!
//! Runs on the in-tree [`urt_bench::timer`] harness.

use urt_core::engine::{EngineConfig, HybridEngine};
use urt_core::threading::{GroupingPolicy, ThreadPolicy};
use urt_dataflow::flowtype::FlowType;
use urt_dataflow::graph::StreamerNetwork;
use urt_dataflow::streamer::OdeStreamer;
use urt_ode::solver::SolverKind;
use urt_ode::system::InputSystem;
use urt_umlrt::capsule::{CapsuleContext, SmCapsule};
use urt_umlrt::controller::Controller;
use urt_umlrt::statemachine::StateMachineBuilder;

#[derive(Clone)]

struct Vdp;

impl InputSystem for Vdp {
    fn dim(&self) -> usize {
        2
    }
    fn input_dim(&self) -> usize {
        0
    }
    fn derivatives(&self, _t: f64, x: &[f64], _u: &[f64], dx: &mut [f64]) {
        dx[0] = x[1];
        dx[1] = 1.5 * (1.0 - x[0] * x[0]) * x[1] - x[0];
    }
}

const POLICIES: [(&str, GroupingPolicy, ThreadPolicy); 4] = [
    ("local", GroupingPolicy::Single, ThreadPolicy::CurrentThread),
    ("single-thread", GroupingPolicy::Single, ThreadPolicy::DedicatedThreads),
    ("grouped-4", GroupingPolicy::Grouped(4), ThreadPolicy::DedicatedThreads),
    ("per-streamer", GroupingPolicy::PerStreamer, ThreadPolicy::DedicatedThreads),
];

fn make_engine(n: usize, grouping: GroupingPolicy, policy: ThreadPolicy) -> HybridEngine {
    let assignment = grouping.assign(n);
    let n_groups = assignment.iter().copied().max().map_or(0, |m| m + 1);
    let mut nets: Vec<StreamerNetwork> =
        (0..n_groups).map(|g| StreamerNetwork::new(format!("g{g}"))).collect();
    for (i, &g) in assignment.iter().enumerate() {
        nets[g]
            .add_streamer(
                OdeStreamer::new(
                    format!("vdp{i}"),
                    Vdp,
                    SolverKind::Rk4.create(),
                    &[2.0, 0.0],
                    1e-4,
                ),
                &[],
                &[("y", FlowType::vector(2))],
            )
            .expect("add");
    }
    let sm = StateMachineBuilder::new("idle")
        .state("s")
        .initial("s", |_d: &mut (), _ctx: &mut CapsuleContext| {})
        .build()
        .expect("sm");
    let mut controller = Controller::new("ev");
    controller.add_capsule(Box::new(SmCapsule::new(sm, ())));
    let mut e = HybridEngine::new(controller, EngineConfig { step: 1e-3, policy });
    for net in nets {
        e.add_group(net).expect("group");
    }
    e
}

fn main() {
    use urt_bench::timer::{bench_batched, report_header};

    println!("{}", report_header());
    for n in [4usize, 16] {
        for (label, grouping, policy) in POLICIES {
            let report = bench_batched(
                &format!("e4_threading/{label}/{n}"),
                10,
                || make_engine(n, grouping, policy),
                |mut e| e.run_until(0.1).expect("run"),
            );
            println!("{report}");
        }
    }
}
