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

use urt_blocks::continuous::Integrator;
use urt_blocks::diagram::BlockDiagram;
use urt_blocks::math::{Gain, Sum};
use urt_blocks::sources::Constant;
use urt_dataflow::flowtype::FlowType;
use urt_dataflow::graph::{NodeId, StreamerNetwork};
use urt_dataflow::streamer::{FnStreamer, OdeStreamer};
use urt_ode::solver::SolverKind;
use urt_ode::system::library::VanDerPol;

/// Builds the exact Figure 2 topology: a top streamer context with three
/// sub-streamers, one relay and typed flows.
///
/// Returns the network plus the ids of `(sub1, relay, sub2, sub3)`.
///
/// # Panics
///
/// Panics only on internal construction errors (it is a fixed topology).
pub fn fig2_network() -> (StreamerNetwork, [NodeId; 4]) {
    let mut net = StreamerNetwork::new("fig2");
    let sub1 = net
        .add_streamer(
            FnStreamer::new("sub1", 0, 1, |t: f64, _h, _u: &[f64], y: &mut [f64]| {
                y[0] = (2.0 * t).sin()
            }),
            &[],
            &[("y", FlowType::scalar())],
        )
        .expect("sub1");
    let relay = net.add_relay("relay", FlowType::scalar(), 2).expect("relay");
    let sub2 = net
        .add_streamer(
            FnStreamer::new("sub2", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| y[0] = 2.0 * u[0]),
            &[("u", FlowType::scalar())],
            &[("y", FlowType::scalar())],
        )
        .expect("sub2");
    let sub3 = net
        .add_streamer(
            FnStreamer::new("sub3", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| y[0] = u[0] * u[0]),
            &[("u", FlowType::scalar())],
            &[("y", FlowType::scalar())],
        )
        .expect("sub3");
    net.flow((sub1, "y"), (relay, "in")).expect("flow 1");
    net.flow((relay, "out0"), (sub2, "u")).expect("flow 2");
    net.flow((relay, "out1"), (sub3, "u")).expect("flow 3");
    (net, [sub1, relay, sub2, sub3])
}

/// The Figure 2 topology with an ODE-backed source: identical fan-out to
/// [`fig2_network`], but `sub1` *integrates* the oscillator (RK4,
/// `substep = 1e-4`) instead of evaluating `sin(2t)` in closed form —
/// `x'' = -ω² x` with `ω = 2` and `x(0) = 0, x'(0) = 2` has the exact
/// solution `x(t) = sin(2t)`, so downstream semantics match. This is the
/// fig2 variant the batched-kernel benchmark axis uses: the closed-form
/// fig2 has no ODE lanes for a batched solver kernel to act on.
///
/// Returns the network plus the ids of `(sub1, relay, sub2, sub3)`.
///
/// # Panics
///
/// Panics only on internal construction errors (it is a fixed topology).
pub fn fig2_ode_network() -> (StreamerNetwork, [NodeId; 4]) {
    let mut net = StreamerNetwork::new("fig2-ode");
    let sub1 = net
        .add_streamer(
            OdeStreamer::new(
                "sub1",
                SineOsc { omega: 2.0 },
                SolverKind::Rk4.create(),
                &[0.0, 2.0],
                1e-4,
            ),
            &[],
            &[("y", FlowType::scalar())],
        )
        .expect("sub1");
    let relay = net.add_relay("relay", FlowType::scalar(), 2).expect("relay");
    let sub2 = net
        .add_streamer(
            FnStreamer::new("sub2", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| y[0] = 2.0 * u[0]),
            &[("u", FlowType::scalar())],
            &[("y", FlowType::scalar())],
        )
        .expect("sub2");
    let sub3 = net
        .add_streamer(
            FnStreamer::new("sub3", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| y[0] = u[0] * u[0]),
            &[("u", FlowType::scalar())],
            &[("y", FlowType::scalar())],
        )
        .expect("sub3");
    net.flow((sub1, "y"), (relay, "in")).expect("flow 1");
    net.flow((relay, "out0"), (sub2, "u")).expect("flow 2");
    net.flow((relay, "out1"), (sub3, "u")).expect("flow 3");
    (net, [sub1, relay, sub2, sub3])
}

/// Undamped harmonic oscillator `x'' = -ω² x` as an input-free
/// [`urt_ode::system::InputSystem`] exposing only the position — the
/// ODE-backed stand-in for fig2's `sin(2t)` source.
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

/// Builds a chain network of `n` solver-backed streamers (Van der Pol
/// oscillators feeding gains), used by the scaling benches.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn chain_network(n: usize) -> StreamerNetwork {
    chain_network_tail(n).0
}

/// [`chain_network`], additionally returning the id of the tail node (the
/// last gain, or the adapter/oscillator for short chains) so callers can
/// attach probes — the ensemble benchmark needs a recorded series.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn chain_network_tail(n: usize) -> (StreamerNetwork, NodeId) {
    assert!(n > 0, "need at least one streamer");
    let mut net = StreamerNetwork::new("chain");
    let mut prev: Option<NodeId> = None;
    for i in 0..n {
        let id = if let Some(p) = prev {
            let id = net
                .add_streamer(
                    FnStreamer::new(
                        format!("gain{i}"),
                        1,
                        1,
                        |_t, _h, u: &[f64], y: &mut [f64]| y[0] = 0.99 * u[0],
                    ),
                    &[("u", FlowType::scalar())],
                    &[("y", FlowType::scalar())],
                )
                .expect("gain");
            net.flow((p, "y"), (id, "u")).expect("flow");
            id
        } else {
            net.add_streamer(
                OdeStreamer::new(
                    format!("vdp{i}"),
                    WrappedVdp(VanDerPol { mu: 1.0 }),
                    SolverKind::Rk4.create(),
                    &[2.0, 0.0],
                    1e-3,
                ),
                &[],
                &[("y", FlowType::vector(2))],
            )
            .expect("vdp")
        };
        prev = Some(id);
        // Only the first node is the ODE; subsequent are gains on lane 0.
        if i == 0 && n > 1 {
            // Insert an adapter from vec2 to scalar.
            let adapter = net
                .add_streamer(
                    FnStreamer::new("adapter", 2, 1, |_t, _h, u: &[f64], y: &mut [f64]| {
                        y[0] = u[0]
                    }),
                    &[("u", FlowType::vector(2))],
                    &[("y", FlowType::scalar())],
                )
                .expect("adapter");
            net.flow((id, "y"), (adapter, "u")).expect("adapter flow");
            prev = Some(adapter);
        }
    }
    (net, prev.expect("n > 0"))
}

/// An [`OdeStreamer`]-compatible wrapper giving [`VanDerPol`] an input
/// dimension of zero.
#[derive(Clone)]
pub struct WrappedVdp(pub VanDerPol);

impl urt_ode::system::InputSystem for WrappedVdp {
    fn dim(&self) -> usize {
        2
    }

    fn input_dim(&self) -> usize {
        0
    }

    fn derivatives(&self, t: f64, x: &[f64], _u: &[f64], dx: &mut [f64]) {
        use urt_ode::system::OdeSystem;
        self.0.derivatives(t, x, dx);
    }
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

/// Formats a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_network_runs() {
        let (mut net, [_, _, sub2, sub3]) = fig2_network();
        net.initialize(0.0).unwrap();
        for _ in 0..100 {
            net.step(0.01).unwrap();
        }
        let doubled = net.output(sub2, "y").unwrap()[0];
        let squared = net.output(sub3, "y").unwrap()[0];
        assert!(doubled.is_finite() && squared.is_finite());
        assert!(squared >= 0.0, "square is non-negative");
    }

    #[test]
    fn fig2_ode_source_tracks_the_closed_form() {
        let (mut net, [_, _, sub2, _]) = fig2_ode_network();
        net.initialize(0.0).unwrap();
        let mut t = 0.0f64;
        for _ in 0..200 {
            net.step(0.01).unwrap();
            t += 0.01;
        }
        let doubled = net.output(sub2, "y").unwrap()[0];
        // sub2 doubles the integrated sin(2t); RK4 at substep 1e-4 keeps
        // the integration error far below this tolerance.
        assert!((doubled - 2.0 * (2.0 * t).sin()).abs() < 1e-6, "got {doubled} at t={t}");
    }

    #[test]
    fn chain_network_scales() {
        for n in [1, 4, 16] {
            let mut net = chain_network(n);
            net.initialize(0.0).unwrap();
            net.step(0.01).unwrap();
            assert!(net.node_count() >= n);
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
