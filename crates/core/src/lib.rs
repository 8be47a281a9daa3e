//! The unified model of complex real-time control systems — the DATE 2005
//! paper's contribution, reproduced end to end.
//!
//! Complex real-time control systems are hybrids of a time-discrete,
//! event-driven part (UML-RT capsules) and a time-continuous part
//! (differential equations). The paper unifies both on one UML-RT platform
//! by adding eight stereotypes and assigning capsules and streamers to
//! different threads. This crate is that platform:
//!
//! * [`stereotype`] — the Table 1 stereotype registry.
//! * [`model`] — the declarative unified model (capsules + streamers +
//!   containment + connections) with the paper's well-formedness rules
//!   from Figures 2 and 3.
//! * [`elaborate`](mod@elaborate) — checking a model's own rules and
//!   lowering it plus a behaviour registry into an immutable
//!   `CompiledSystem` artifact (hierarchy
//!   flattening, dense id assignment, resolved link/probe tables, a
//!   stable content hash) whose `instantiate()` stamps out live
//!   `SystemInstance`s.
//! * [`cache`] — compile-once, instantiate-many: `SystemCache` memoizes
//!   compiled artifacts by model content hash with hit/miss counters.
//! * [`time`] — the continuous `Time` stereotype: a predictable hybrid
//!   simulation clock, versus UML-RT's tick-quantised timers.
//! * [`strategy`] — the Figure 1 State/Strategy catalogue: named solver
//!   strategies attachable to streamers at run time.
//! * [`threading`] — thread-assignment policies ("assigned to one or
//!   several threads").
//! * [`engine`] — the hybrid co-simulation engine, built from a
//!   `CompiledSystem`: a capsule controller plus streamer groups on
//!   dedicated solver threads, bridged by channel communication
//!   ("communication mechanism of threads").
//! * [`ensemble`] — structure-of-arrays ensemble execution: `K`
//!   parameter-variants of one compiled system stepped in lockstep, with
//!   routing and channel bookkeeping paid once per step instead of once
//!   per instance.
//! * [`pacer`] — hard real-time mode: wall-clock pacing, per-step
//!   deadline budgets and overrun policies behind
//!   [`engine::HybridEngine::run_paced`], the paced, deadline-enforced
//!   run loop in the compiled path.
//! * [`recorder`] — thread-safe signal recording for experiments.
//!
//! # Examples
//!
//! A supervisor capsule beside an oscillator streamer, declared as a
//! model, compiled, and run:
//!
//! ```
//! use urt_core::elaborate::{elaborate, BehaviorRegistry};
//! use urt_core::engine::{EngineConfig, HybridEngine};
//! use urt_core::model::ModelBuilder;
//! use urt_core::recorder::Recorder;
//! use urt_core::threading::ThreadPolicy;
//! use urt_dataflow::flowtype::FlowType;
//! use urt_dataflow::streamer::FnStreamer;
//! use urt_umlrt::capsule::{CapsuleContext, SmCapsule};
//! use urt_umlrt::statemachine::StateMachineBuilder;
//!
//! # fn main() -> Result<(), urt_core::CoreError> {
//! let mut b = ModelBuilder::new("plant");
//! let osc = b.streamer("osc", "none");
//! b.streamer_out(osc, "y", FlowType::scalar());
//! b.probe(osc, "y", "osc.y");
//! b.capsule("supervisor");
//! let registry = BehaviorRegistry::new()
//!     .streamer("osc", || Box::new(FnStreamer::new("osc", 0, 1, |t, _h, _u, y| y[0] = t.sin())))
//!     .capsule("supervisor", || {
//!         let sm = StateMachineBuilder::new("supervisor")
//!             .state("watching")
//!             .initial("watching", |_d: &mut (), _ctx: &mut CapsuleContext| {})
//!             .build()
//!             .expect("well-formed machine");
//!         Box::new(SmCapsule::new(sm, ()))
//!     });
//! let compiled = elaborate(&b.build(), registry)?;
//! let config = EngineConfig { step: 0.001, policy: ThreadPolicy::CurrentThread };
//! let mut engine = HybridEngine::from_compiled(&compiled, config)?;
//! let rec = Recorder::new();
//! engine.set_recorder(rec.clone());
//! engine.run_until(0.1)?;
//! assert!((engine.time() - 0.1).abs() < 1e-9);
//! assert_eq!(rec.series("osc.y").len(), 100);
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod elaborate;
pub mod engine;
pub mod ensemble;
pub mod error;
pub mod model;
pub mod pacer;
pub mod recorder;
pub mod rng;
pub mod scenario;
pub mod stereotype;
pub mod strategy;
pub mod sync;
pub mod threading;
pub mod time;

pub use cache::SystemCache;
pub use elaborate::{elaborate, BehaviorRegistry, CompiledSystem, SystemInstance};
pub use engine::{EngineConfig, HybridEngine};
pub use ensemble::{EnsembleEngine, VariantSpec};
pub use error::CoreError;
pub use model::{ModelBuilder, UnifiedModel};
pub use pacer::{OverrunPolicy, PacedConfig, PacedReport, TimeSource, WallClock};
pub use recorder::{Recorder, SeriesHandle};
pub use stereotype::Stereotype;
pub use threading::ThreadPolicy;
