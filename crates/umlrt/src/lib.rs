//! An event-driven UML-RT service-library runtime, built from scratch.
//!
//! UML-RT (Selic & Rumbaugh, ObjecTime 1998) models event-driven real-time
//! systems as networks of **capsules**: active objects that own **ports**
//! typed by **protocols**, communicate exclusively through asynchronous
//! signal messages, and whose behaviour is a hierarchical **state machine**
//! executed with *run-to-completion* semantics. The DATE 2005 paper this
//! repository reproduces builds its streamer extension on top of exactly
//! such a runtime; this crate is that substrate.
//!
//! * [`protocol`] — named signal sets with in/out direction.
//! * [`value`] — message payloads.
//! * [`message`] — prioritised signal messages and the run-to-completion
//!   queue.
//! * [`statemachine`] — hierarchical state machines with entry/exit
//!   actions, guards, and internal transitions.
//! * [`capsule`] — the capsule behaviour trait and the state-machine-backed
//!   capsule.
//! * [`controller`] — a single-threaded message loop owning a set of
//!   capsules (UML-RT's "controller" concept), wired port to port;
//!   messages leave it through external outboxes its owner drains. It
//!   has no relay ports: the paper's capsule DPorts only relay dataflow,
//!   and elaboration resolves them into flows.
//! * [`timing`] — the timer service, deliberately *tick-quantised* to model
//!   the paper's observation that "timing in UML-RT is unpredictable".
//!
//! # Examples
//!
//! A ping-pong pair of capsules:
//!
//! ```
//! use urt_umlrt::capsule::{CapsuleContext, SmCapsule};
//! use urt_umlrt::controller::Controller;
//! use urt_umlrt::statemachine::StateMachineBuilder;
//! use urt_umlrt::value::Value;
//!
//! # fn main() -> Result<(), urt_umlrt::RtError> {
//! let ping = StateMachineBuilder::new("pinger")
//!     .state("idle")
//!     .initial("idle", |_d: &mut u32, ctx: &mut CapsuleContext| {
//!         ctx.send("out", "ping", Value::Empty);
//!     })
//!     .on("idle", ("out", "pong"), "idle", |d, _m, ctx| {
//!         *d += 1;
//!         if *d < 3 {
//!             ctx.send("out", "ping", Value::Empty);
//!         }
//!     })
//!     .build()?;
//!
//! let pong = StateMachineBuilder::new("ponger")
//!     .state("idle")
//!     .initial("idle", |_d: &mut (), _ctx: &mut CapsuleContext| {})
//!     .on("idle", ("in", "ping"), "idle", |_d, _m, ctx| {
//!         ctx.send("in", "pong", Value::Empty);
//!     })
//!     .build()?;
//!
//! let mut controller = Controller::new("main");
//! let a = controller.add_capsule(Box::new(SmCapsule::new(ping, 0u32)));
//! let b = controller.add_capsule(Box::new(SmCapsule::new(pong, ())));
//! controller.connect((a, "out"), (b, "in"))?;
//! controller.start()?;
//! controller.run_until_quiescent()?;
//! # Ok(())
//! # }
//! ```

pub mod capsule;
pub mod controller;
pub mod error;
pub mod message;
pub mod protocol;
pub mod statemachine;
pub mod sync;
pub mod timing;
pub mod value;

pub use capsule::{Capsule, CapsuleContext, SmCapsule};
pub use controller::Controller;
pub use error::RtError;
pub use message::{Message, Priority};
pub use protocol::{Protocol, SignalSpec};
pub use statemachine::{StateMachine, StateMachineBuilder};
pub use value::Value;
