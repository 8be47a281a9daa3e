//! The paper's time-continuous dataflow extension: streamers, DPorts,
//! SPorts, flows (fanned out where the paper draws a relay) and flow types.
//!
//! A **streamer** is the continuous counterpart of a capsule: it has ports
//! and may contain sub-streamers, but its behaviour "is implemented by a
//! solver through computing equations" instead of a state machine. This
//! crate provides:
//!
//! * [`flowtype`] — the *flow type* stereotype, with the paper's connection
//!   rule: an output DPort's flow type must be a **subset** of the input
//!   DPort's flow type.
//! * [`port`] — typed data ports (DPorts); an SPort is a
//!   `(name, protocol)` pair on the model.
//! * [`streamer`] — the streamer behaviour trait plus [`OdeStreamer`], the
//!   standard solver-backed streamer with zero-crossing signal emission.
//! * [`graph`] — the one lowering, [`StepPlan::lower`](graph::StepPlan::lower):
//!   declared streamer shapes, flows (fan-out is the paper's relay, one
//!   flow duplicated into similar flows) and exported inputs become the
//!   dense [`StepPlan`](graph::StepPlan), with the wiring rules (type
//!   subset rule, single writer, every input driven, algebraic-loop
//!   detection) checked on the way. The plan's one walk,
//!   [`StepPlan::replay`](graph::StepPlan::replay), is what the engine
//!   runs for `K` instances and [`StreamerNetwork`] runs for one.
//!
//! # Examples
//!
//! A source fanned out to two gains, lowered into its step plan and
//! stepped once.
//!
//! ```
//! use urt_dataflow::flowtype::FlowType;
//! use urt_dataflow::graph::{NodeId, NodeShape, StepPlan, StreamerNetwork};
//! use urt_dataflow::port::{DPortSpec, Direction};
//! use urt_dataflow::streamer::{FnStreamer, StreamerBehavior};
//!
//! # fn main() -> Result<(), urt_dataflow::FlowError> {
//! let port = |name: &str, d| vec![DPortSpec::new(name, d, FlowType::scalar())];
//! let node = |name: &str, ins| NodeShape {
//!     name: name.into(),
//!     in_ports: if ins { port("in", Direction::In) } else { Vec::new() },
//!     out_ports: port("out", Direction::Out),
//!     feedthrough: true,
//! };
//! let (src, double, negate) = (NodeId::from_index(0), NodeId::from_index(1), NodeId::from_index(2));
//! let (plan, _) = StepPlan::lower(
//!     vec![node("source", false), node("double", true), node("negate", true)],
//!     &[((src, "out"), (double, "in")), ((src, "out"), (negate, "in"))],
//!     &[],
//! )?;
//! // The source runs first; each consumer gathers its lane before it runs.
//! assert_eq!(plan.nodes()[0].node, src);
//! assert_eq!(plan.nodes()[1].gathers.len(), 1);
//!
//! // One behaviour per row, in row order, makes the plan runnable.
//! let mut by_node: Vec<Option<Box<dyn StreamerBehavior>>> = vec![
//!     Some(Box::new(FnStreamer::new("source", 0, 1, |t, _h, _u, y| y[0] = t + 1.0))),
//!     Some(Box::new(FnStreamer::new("double", 1, 1, |_t, _h, u, y| y[0] = 2.0 * u[0]))),
//!     Some(Box::new(FnStreamer::new("negate", 1, 1, |_t, _h, u, y| y[0] = -u[0]))),
//! ];
//! let rows = plan.nodes().iter().map(|pn| by_node[pn.node.index()].take().unwrap()).collect();
//! let mut net = StreamerNetwork::from_plan(plan, rows);
//! net.initialize(0.0)?;
//! net.step(0.1)?;
//! assert_eq!(net.output(negate, "out")?, [-1.0]);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod flowtype;
pub mod graph;
pub mod port;
pub mod streamer;

pub use error::FlowError;
pub use flowtype::{FlowType, Unit};
pub use graph::{NodeId, StreamerNetwork};
pub use port::{DPortSpec, Direction};
pub use streamer::{FnStreamer, OdeLane, OdeStreamer, StreamerBehavior};
