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
//! * [`graph`] — the [`StreamerNetwork`] builder (flows, fan-out — the
//!   paper's relay, one flow duplicated into similar flows — and exported
//!   inputs), its validation (type subset rule, single-writer,
//!   algebraic-loop detection), and the [`StepPlan`](graph::StepPlan) it
//!   lowers into: the dense schedule whose one walk,
//!   [`StepPlan::replay`](graph::StepPlan::replay), the engine runs for
//!   `K` instances and [`StreamerNetwork::step`] runs for one.
//!
//! # Examples
//!
//! A source fanned out to two gains, lowered into its step plan.
//!
//! ```
//! use urt_dataflow::flowtype::FlowType;
//! use urt_dataflow::graph::StreamerNetwork;
//! use urt_dataflow::streamer::FnStreamer;
//!
//! # fn main() -> Result<(), urt_dataflow::FlowError> {
//! let mut net = StreamerNetwork::new("demo");
//! let src = net.add_streamer(
//!     FnStreamer::new("source", 0, 1, |t, _h, _u, y| y[0] = t.sin()),
//!     &[],
//!     &[("wave", FlowType::scalar())],
//! )?;
//! let io = [("in", FlowType::scalar())];
//! let out = [("out", FlowType::scalar())];
//! let double = net.add_streamer(FnStreamer::new("double", 1, 1, |_t, _h, u, y| y[0] = 2.0 * u[0]), &io, &out)?;
//! let negate = net.add_streamer(FnStreamer::new("negate", 1, 1, |_t, _h, u, y| y[0] = -u[0]), &io, &out)?;
//! net.flow((src, "wave"), (double, "in"))?;
//! net.flow((src, "wave"), (negate, "in"))?;
//! let (plan, rows) = net.into_plan()?;
//! // One behaviour per row, the source first; each consumer gathers the
//! // source's lane before it runs.
//! assert_eq!(rows.len(), 3);
//! assert_eq!(plan.nodes()[0].node, src);
//! assert_eq!(plan.nodes()[1].gathers.len(), 1);
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
