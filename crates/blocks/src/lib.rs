//! A Simulink-like block library and block-diagram compiler.
//!
//! The paper motivates its extension by the status quo: "modeling these
//! kinds of systems needs use several tools together, such as UML and
//! Simulink". This crate is the Simulink-shaped substrate — the five causal
//! signal blocks that workflow needs ([`sources::Constant`],
//! [`math::Gain`], [`math::Sum`], [`math::Saturation`],
//! [`continuous::Integrator`]) and a diagram builder — used three ways:
//!
//! 1. the cruise-control example models its plant with it,
//! 2. [`diagram::BlockDiagram::into_streamer`] compiles a diagram into a
//!    single streamer behaviour for the unified model (the paper's way),
//! 3. the Kühl baseline (`urt-baselines`) translates each block into its
//!    own capsule object (the related-work way the paper criticises),
//!    via [`diagram::BlockDiagram::into_parts`].
//!
//! A diagram keeps no graph runtime of its own: it lowers through the
//! dataflow crate's `StepPlan::lower`, as a streamer group does, so its
//! wiring is refused with the same `FlowError` codes (an algebraic loop is
//! URT007), and each step is one `StepPlan::replay`.
//!
//! A further block kind belongs here once an example or test wires it.
//!
//! # Examples
//!
//! ```
//! use urt_blocks::diagram::BlockDiagram;
//! use urt_blocks::math::Gain;
//! use urt_blocks::sources::Constant;
//!
//! # fn main() -> Result<(), urt_dataflow::FlowError> {
//! let mut d = BlockDiagram::new("twice");
//! let c = d.add_block(Constant::new(21.0));
//! let g = d.add_block(Gain::new(2.0));
//! d.connect(c, 0, g, 0)?;
//! d.mark_output(g, 0)?;
//! d.validate()?;
//! d.step(0.0, 0.01, &[]);
//! assert_eq!(d.outputs()[0], 42.0);
//! # Ok(())
//! # }
//! ```

pub mod block;
pub mod continuous;
pub mod diagram;
pub mod math;
pub mod sources;

pub use block::Block;
pub use diagram::BlockDiagram;
