//! # unified-rt
//!
//! A from-scratch reproduction of *Unified Modeling of Complex Real-Time
//! Control Systems* (He Hai, Zhong Yi-fang, Cai Chi-lan — DATE 2005): a
//! UML-RT service-library runtime extended with **time-continuous
//! streamers**, so hybrid control systems are modeled, simulated, and
//! code-generated on one platform.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`umlrt`] — event-driven UML-RT runtime (capsules, protocols,
//!   hierarchical state machines, run-to-completion controllers, timers).
//! * [`ode`] — numerical solvers (the *solver/strategy* stereotype).
//! * [`dataflow`] — the extension mechanics: streamers, DPorts, SPorts,
//!   flows, relays, flow types.
//! * [`blocks`] — a Simulink-like block library and diagram compiler.
//! * [`core`] — the unified model, Table-1 stereotypes, `Time` clock,
//!   thread assignment and the hybrid co-simulation engine — including
//!   hard real-time mode ([`core::engine::HybridEngine::run_paced`]):
//!   wall-clock-paced, deadline-enforced execution against the model's
//!   declared budget, with `Record`/`CatchUp`/`SafetyStop` overrun
//!   policies.
//! * [`analysis`] — whole-model static analysis: every Table-1 rule plus
//!   graph, state-machine, cross-group flow and timing lints, collected
//!   as structured `URTxxx` diagnostics (the `urt-lint` binary fronts it) — and
//!   [`compile`], the `model → analyze → compile → run` entry point,
//!   which refuses a model the analyzer finds any error in.
//! * [`codegen`] — model-to-Rust code generation.
//! * [`baselines`] — the Bichler and Kühl related-work baselines.
//!
//! # Quickstart
//!
//! The one pipeline is `model → analyze → compile → instantiate → run`:
//! declare the system once, bind behaviour *factories* to its names, and
//! let [`compile`] run the whole-model analyzer, which reports every
//! structure the lowering refuses, before lowering the model into an
//! immutable
//! [`core::elaborate::CompiledSystem`] **artifact**. The artifact is
//! compiled once and instantiated many times: every engine built from it
//! (`HybridEngine::from_compiled` borrows, it does not consume) stamps
//! out a fresh, independent live instance by re-invoking the factories,
//! and [`core::cache::SystemCache`] memoizes the compile itself by the
//! model's stable content hash.
//!
//! ```
//! use unified_rt::compile;
//! use unified_rt::core::elaborate::BehaviorRegistry;
//! use unified_rt::core::engine::{EngineConfig, HybridEngine};
//! use unified_rt::core::model::ModelBuilder;
//! use unified_rt::core::threading::ThreadPolicy;
//! use unified_rt::dataflow::flowtype::FlowType;
//! use unified_rt::dataflow::streamer::FnStreamer;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // One declarative model: a wave source observed by a probe.
//! let mut b = ModelBuilder::new("hello");
//! let wave = b.streamer("wave", "rk4");
//! b.streamer_out(wave, "y", FlowType::scalar());
//! b.probe(wave, "y", "wave.y");
//! let model = b.build();
//!
//! // Behaviour factories bind the model's names to executable code;
//! // each instantiation invokes them afresh.
//! let registry = BehaviorRegistry::new().streamer("wave", || {
//!     Box::new(FnStreamer::new("wave", 0, 1, |t, _h, _u, y| y[0] = t.cos()))
//! });
//!
//! // Analyze + lower once: an immutable artifact with a stable hash.
//! let compiled = compile(&model, registry)?;
//! assert_eq!(compiled.content_hash(), compile(&model, BehaviorRegistry::new()
//!     .streamer("wave", || {
//!         Box::new(FnStreamer::new("wave", 0, 1, |t, _h, _u, y| y[0] = t.cos()))
//!     }))?.content_hash());
//!
//! // Instantiate + run as often as needed — the artifact is only
//! // borrowed, and every run starts from the same fresh state.
//! for _ in 0..2 {
//!     let mut engine = HybridEngine::from_compiled(
//!         &compiled,
//!         EngineConfig { step: 1e-3, policy: ThreadPolicy::CurrentThread },
//!     )?;
//!     engine.run_until(0.25)?;
//! }
//! # Ok(())
//! # }
//! ```

pub use urt_analysis::compile;

pub use urt_analysis as analysis;
pub use urt_baselines as baselines;
pub use urt_blocks as blocks;
pub use urt_codegen as codegen;
pub use urt_core as core;
pub use urt_dataflow as dataflow;
pub use urt_ode as ode;
pub use urt_umlrt as umlrt;
