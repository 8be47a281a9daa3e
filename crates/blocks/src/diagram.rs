//! Block diagrams: wiring blocks together, lowering a diagram through the
//! dataflow crate's [`StepPlan`], and compiling a diagram into a single
//! streamer behaviour for the unified model.

use crate::block::Block;
use std::convert::Infallible;
use std::fmt;
use urt_dataflow::error::FlowError;
use urt_dataflow::flowtype::FlowType;
use urt_dataflow::graph::{NodeId, NodeShape, PortRef, StepPlan};
use urt_dataflow::port::{DPortSpec, Direction};
use urt_dataflow::streamer::StreamerBehavior;
use urt_ode::SolveError;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Conn {
    from_block: usize,
    from_port: usize,
    to_block: usize,
    to_port: usize,
}

/// The plan-node port name of block input (`u0`, `u1`, ...) or output
/// (`y0`, `y1`, ...) `port`.
fn port_name(input: bool, port: usize) -> String {
    format!("{}{port}", if input { 'u' } else { 'y' })
}

/// Borrows an owned `(node, port name)` as the lowering's [`PortRef`].
fn port_ref((node, name): &(NodeId, String)) -> PortRef<'_> {
    (*node, name)
}

/// A wired set of blocks with designated external inputs and outputs.
///
/// See the crate-level example. Diagrams are the Simulink-shaped modeling
/// surface; [`BlockDiagram::into_streamer`] turns a whole diagram into one
/// streamer for the unified model, while the Kühl baseline instead turns
/// *each block* into a capsule.
///
/// [`BlockDiagram::validate`] lowers the diagram through
/// [`StepPlan::lower`], the lowering streamer groups take: each block is a
/// plan node named by its label, with scalar input DPorts `u0…` and
/// output DPorts `y0…`, each connection a flow and each marked input an
/// export. So a diagram is refused by the same rules, with the same
/// [`FlowError`] codes (URT001/002/005/006/007/010), and
/// [`BlockDiagram::step`] is one [`StepPlan::replay`] of that plan.
pub struct BlockDiagram {
    name: String,
    /// `(label, block)` pairs in id order.
    blocks: Vec<(String, Box<dyn Block>)>,
    conns: Vec<Conn>,
    ext_inputs: Vec<(usize, usize)>,
    ext_outputs: Vec<(usize, usize)>,
    /// The plan and each block's first dense output lane, once validated.
    plan: Option<(StepPlan, Vec<usize>)>,
    ins: Vec<f64>,
    outs: Vec<f64>,
    outputs: Vec<f64>,
}

impl fmt::Debug for BlockDiagram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockDiagram")
            .field("name", &self.name)
            .field("blocks", &self.blocks.len())
            .field("connections", &self.conns.len())
            .finish_non_exhaustive()
    }
}

impl BlockDiagram {
    /// Creates an empty diagram.
    pub fn new(name: impl Into<String>) -> Self {
        BlockDiagram {
            name: name.into(),
            blocks: Vec::new(),
            conns: Vec::new(),
            ext_inputs: Vec::new(),
            ext_outputs: Vec::new(),
            plan: None,
            ins: Vec::new(),
            outs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Diagram name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a block, labelling it with its type name plus index.
    pub fn add_block(&mut self, block: impl Block + 'static) -> NodeId {
        let label = format!("{}_{}", block.name(), self.blocks.len());
        self.add_block_labeled(label, block)
    }

    /// Adds a block with an explicit label. Labels must be unique by the
    /// time the diagram is validated.
    pub fn add_block_labeled(
        &mut self,
        label: impl Into<String>,
        block: impl Block + 'static,
    ) -> NodeId {
        self.blocks.push((label.into(), Box::new(block)));
        self.plan = None;
        NodeId::from_index(self.blocks.len() - 1)
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of connections.
    pub fn connection_count(&self) -> usize {
        self.conns.len()
    }

    /// Label of a block.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownNode`] for a bad id.
    pub fn label(&self, id: NodeId) -> Result<&str, FlowError> {
        self.blocks
            .get(id.index())
            .map(|(label, _)| label.as_str())
            .ok_or(FlowError::UnknownNode { index: id.index() })
    }

    fn check_port(&self, id: NodeId, port: usize, input: bool) -> Result<(), FlowError> {
        let (label, block) =
            self.blocks.get(id.index()).ok_or(FlowError::UnknownNode { index: id.index() })?;
        let count = if input { block.inputs() } else { block.outputs() };
        if port >= count {
            return Err(FlowError::UnknownPort {
                node: label.clone(),
                port: port_name(input, port),
            });
        }
        Ok(())
    }

    /// Refuses a second writer on input `port` of `block`.
    fn check_undriven(&self, block: NodeId, port: usize) -> Result<(), FlowError> {
        let b = block.index();
        if self.conns.iter().any(|c| c.to_block == b && c.to_port == port)
            || self.ext_inputs.contains(&(b, port))
        {
            return Err(FlowError::MultipleWriters {
                node: self.blocks[b].0.clone(),
                port: port_name(true, port),
            });
        }
        Ok(())
    }

    /// Connects output `from_port` of `from` to input `to_port` of `to`.
    ///
    /// # Errors
    ///
    /// * [`FlowError::UnknownNode`] / [`FlowError::UnknownPort`].
    /// * [`FlowError::MultipleWriters`] if the input is already driven.
    pub fn connect(
        &mut self,
        from: NodeId,
        from_port: usize,
        to: NodeId,
        to_port: usize,
    ) -> Result<(), FlowError> {
        self.check_port(from, from_port, false)?;
        self.check_port(to, to_port, true)?;
        self.check_undriven(to, to_port)?;
        self.conns.push(Conn {
            from_block: from.index(),
            from_port,
            to_block: to.index(),
            to_port,
        });
        self.plan = None;
        Ok(())
    }

    /// Exposes a block input as diagram input number
    /// `self.input_count() - 1` (in call order).
    ///
    /// # Errors
    ///
    /// Bad ids/ports and already-driven inputs error as in
    /// [`BlockDiagram::connect`].
    pub fn mark_input(&mut self, block: NodeId, port: usize) -> Result<(), FlowError> {
        self.check_port(block, port, true)?;
        self.check_undriven(block, port)?;
        self.ext_inputs.push((block.index(), port));
        self.plan = None;
        Ok(())
    }

    /// Exposes a block output as diagram output number
    /// `self.output_count() - 1` (in call order).
    ///
    /// # Errors
    ///
    /// Returns bad-id/bad-port errors as in [`BlockDiagram::connect`].
    pub fn mark_output(&mut self, block: NodeId, port: usize) -> Result<(), FlowError> {
        self.check_port(block, port, false)?;
        self.ext_outputs.push((block.index(), port));
        self.outputs.push(0.0);
        Ok(())
    }

    /// Number of diagram inputs.
    pub fn input_count(&self) -> usize {
        self.ext_inputs.len()
    }

    /// Number of diagram outputs.
    pub fn output_count(&self) -> usize {
        self.ext_outputs.len()
    }

    /// Lowers the diagram through [`StepPlan::lower`] and keeps the plan.
    /// Validating again after adding blocks keeps every earlier block's
    /// lanes.
    ///
    /// # Errors
    ///
    /// The lowering's first refusal: [`FlowError::DuplicateName`] for two
    /// equal labels, [`FlowError::UnconnectedInput`] for the first
    /// undriven input, [`FlowError::AlgebraicLoop`] naming the blocks on
    /// a feedthrough cycle.
    pub fn validate(&mut self) -> Result<(), FlowError> {
        let ports = |count: usize, dir: Direction| -> Vec<DPortSpec> {
            let name = |p| port_name(dir == Direction::In, p);
            (0..count).map(|p| DPortSpec::new(name(p), dir, FlowType::scalar())).collect()
        };
        let shapes = self
            .blocks
            .iter()
            .map(|(label, block)| NodeShape {
                name: label.clone(),
                in_ports: ports(block.inputs(), Direction::In),
                out_ports: ports(block.outputs(), Direction::Out),
                feedthrough: block.direct_feedthrough(),
            })
            .collect();
        let at = |b: usize, input: bool, p: usize| (NodeId::from_index(b), port_name(input, p));
        let conns: Vec<_> = self
            .conns
            .iter()
            .map(|c| (at(c.from_block, false, c.from_port), at(c.to_block, true, c.to_port)))
            .collect();
        let inputs: Vec<_> = self.ext_inputs.iter().map(|&(b, p)| at(b, true, p)).collect();
        let flows: Vec<_> = conns.iter().map(|(from, to)| (port_ref(from), port_ref(to))).collect();
        let exports: Vec<_> = inputs.iter().map(port_ref).collect();
        let (plan, _) = StepPlan::lower(shapes, &flows, &exports)?;
        let mut out_base = vec![0; self.blocks.len()];
        for pn in plan.nodes() {
            out_base[pn.node.index()] = pn.out_offset;
        }
        // Blocks are only ever appended, and lanes sit in block order.
        self.ins.resize(plan.in_width(), 0.0);
        self.outs.resize(plan.out_width(), 0.0);
        self.plan = Some((plan, out_base));
        Ok(())
    }

    /// Advances every block by `h`, feeding `ext_u` into the marked
    /// inputs: one [`StepPlan::replay`] of the validated plan, then a copy
    /// of the marked outputs.
    ///
    /// # Panics
    ///
    /// Panics if the diagram changed since it was last successfully
    /// validated, or `ext_u.len() != self.input_count()`.
    pub fn step(&mut self, t: f64, h: f64, ext_u: &[f64]) {
        let (plan, out_base) = self.plan.as_ref().expect("validate() the diagram before stepping");
        assert_eq!(ext_u.len(), self.ext_inputs.len(), "external input arity mismatch");
        let blocks = &mut self.blocks;
        let Ok(()) = plan.replay(1, ext_u, &mut self.ins, &mut self.outs, |_, pn, ins, outs| {
            blocks[pn.node.index()].1.step(
                t,
                h,
                &ins[pn.in_offset..pn.in_offset + pn.in_width],
                &mut outs[pn.out_offset..pn.out_offset + pn.out_width],
            );
            Ok::<(), Infallible>(())
        });
        for (y, &(b, p)) in self.outputs.iter_mut().zip(&self.ext_outputs) {
            *y = self.outs[out_base[b] + p];
        }
    }

    /// The diagram outputs after the latest step, in `mark_output` order.
    pub fn outputs(&self) -> &[f64] {
        &self.outputs
    }

    /// Resets every block to initial conditions.
    pub fn reset(&mut self) {
        for (_, block) in &mut self.blocks {
            block.reset();
        }
        self.ins.fill(0.0);
        self.outs.fill(0.0);
        self.outputs.fill(0.0);
    }

    /// Whether a same-step path connects a marked input to a marked output
    /// through direct-feedthrough blocks only.
    pub fn has_direct_feedthrough(&self) -> bool {
        let feedthrough = |b: usize| self.blocks[b].1.direct_feedthrough();
        let mut tainted = vec![false; self.blocks.len()];
        let mut stack: Vec<usize> =
            self.ext_inputs.iter().map(|&(b, _)| b).filter(|&b| feedthrough(b)).collect();
        while let Some(u) = stack.pop() {
            if !std::mem::replace(&mut tainted[u], true) {
                let next = self.conns.iter().filter(|c| c.from_block == u).map(|c| c.to_block);
                stack.extend(next.filter(|&b| feedthrough(b)));
            }
        }
        self.ext_outputs.iter().any(|&(b, _)| tainted[b])
    }

    /// Decomposes the diagram into its raw parts — the entry point for the
    /// Kühl baseline, which turns every block into its own capsule object.
    pub fn into_parts(self) -> DiagramParts {
        DiagramParts {
            name: self.name,
            blocks: self.blocks,
            connections: self
                .conns
                .iter()
                .map(|c| (c.from_block, c.from_port, c.to_block, c.to_port))
                .collect(),
            ext_inputs: self.ext_inputs,
        }
    }

    /// Compiles the diagram into a single streamer behaviour — the paper's
    /// intended unification path: one streamer per continuous subsystem.
    ///
    /// # Errors
    ///
    /// Validation errors if the diagram is incomplete.
    pub fn into_streamer(mut self, name: impl Into<String>) -> Result<DiagramStreamer, FlowError> {
        self.validate()?;
        Ok(DiagramStreamer {
            name: name.into(),
            feedthrough: self.has_direct_feedthrough(),
            diagram: self,
        })
    }
}

/// The raw parts of a decomposed [`BlockDiagram`]
/// (see [`BlockDiagram::into_parts`]).
pub struct DiagramParts {
    /// Diagram name.
    pub name: String,
    /// `(label, block)` pairs in id order.
    pub blocks: Vec<(String, Box<dyn Block>)>,
    /// Connections as `(from_block, from_port, to_block, to_port)` indices.
    pub connections: Vec<(usize, usize, usize, usize)>,
    /// External inputs as `(block, input port)` indices.
    pub ext_inputs: Vec<(usize, usize)>,
}

impl fmt::Debug for DiagramParts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiagramParts")
            .field("name", &self.name)
            .field("blocks", &self.blocks.len())
            .field("connections", &self.connections.len())
            .finish_non_exhaustive()
    }
}

/// A whole block diagram packaged as one streamer behaviour.
///
/// Created by [`BlockDiagram::into_streamer`].
pub struct DiagramStreamer {
    name: String,
    diagram: BlockDiagram,
    feedthrough: bool,
}

impl fmt::Debug for DiagramStreamer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiagramStreamer")
            .field("name", &self.name)
            .field("diagram", &self.diagram)
            .finish_non_exhaustive()
    }
}

impl StreamerBehavior for DiagramStreamer {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_width(&self) -> usize {
        self.diagram.input_count()
    }

    fn output_width(&self) -> usize {
        self.diagram.output_count()
    }

    fn direct_feedthrough(&self) -> bool {
        self.feedthrough
    }

    fn advance(&mut self, t: f64, h: f64, u: &[f64], y: &mut [f64]) -> Result<(), SolveError> {
        self.diagram.step(t, h, u);
        y.copy_from_slice(self.diagram.outputs());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::Integrator;
    use crate::math::{Gain, Sum};
    use crate::sources::Constant;

    #[test]
    fn constant_through_gain() {
        let mut d = BlockDiagram::new("d");
        let c = d.add_block(Constant::new(10.0));
        let g = d.add_block(Gain::new(0.5));
        d.connect(c, 0, g, 0).unwrap();
        d.mark_output(g, 0).unwrap();
        d.validate().unwrap();
        d.step(0.0, 0.01, &[]);
        assert_eq!(d.outputs(), &[5.0]);
        assert_eq!(d.block_count(), 2);
        assert_eq!(d.connection_count(), 1);
    }

    #[test]
    fn external_inputs_feed_blocks() {
        let mut d = BlockDiagram::new("d");
        let g = d.add_block(Gain::new(3.0));
        d.mark_input(g, 0).unwrap();
        d.mark_output(g, 0).unwrap();
        d.validate().unwrap();
        d.step(0.0, 0.01, &[2.0]);
        assert_eq!(d.outputs(), &[6.0]);
    }

    #[test]
    fn connect_validation_errors() {
        let mut d = BlockDiagram::new("d");
        let c = d.add_block(Constant::new(1.0));
        let g = d.add_block(Gain::new(1.0));
        assert!(
            matches!(d.connect(c, 1, g, 0), Err(FlowError::UnknownPort { port, .. }) if port == "y1")
        );
        assert!(
            matches!(d.connect(c, 0, g, 5), Err(FlowError::UnknownPort { port, .. }) if port == "u5")
        );
        d.connect(c, 0, g, 0).unwrap();
        assert!(matches!(d.connect(c, 0, g, 0), Err(FlowError::MultipleWriters { .. })));
        assert!(matches!(d.mark_input(g, 0), Err(FlowError::MultipleWriters { .. })));
        let ghost = NodeId::from_index(9);
        assert!(matches!(d.connect(ghost, 0, g, 0), Err(FlowError::UnknownNode { .. })));
    }

    #[test]
    fn unconnected_input_detected() {
        let mut d = BlockDiagram::new("d");
        d.add_block(Gain::new(1.0));
        assert!(matches!(d.validate(), Err(FlowError::UnconnectedInput { .. })));
    }

    #[test]
    fn algebraic_loop_detected_and_integrator_breaks_it() {
        // gain -> gain loop: algebraic.
        let mut d = BlockDiagram::new("bad");
        let g1 = d.add_block(Gain::new(0.5));
        let g2 = d.add_block(Gain::new(0.5));
        d.connect(g1, 0, g2, 0).unwrap();
        d.connect(g2, 0, g1, 0).unwrap();
        assert!(matches!(d.validate(), Err(FlowError::AlgebraicLoop { .. })));

        // feedback through an integrator: fine.
        let mut d = BlockDiagram::new("ok");
        let sum = d.add_block(Sum::error());
        let i = d.add_block(Integrator::new(0.0));
        d.mark_input(sum, 0).unwrap();
        d.connect(sum, 0, i, 0).unwrap();
        d.connect(i, 0, sum, 1).unwrap();
        d.mark_output(i, 0).unwrap();
        d.validate().unwrap();
        // Closed-loop first-order lag towards 1.0.
        let h = 0.001;
        for k in 0..10000 {
            d.step(k as f64 * h, h, &[1.0]);
        }
        assert!((d.outputs()[0] - 1.0).abs() < 0.01, "settled at {}", d.outputs()[0]);
    }

    #[test]
    fn a_feedthrough_self_loop_is_algebraic_and_a_stateful_one_is_not() {
        // y = u + 1 with y wired back into u has no same-step order.
        let mut d = BlockDiagram::new("self");
        let s = d.add_block(Sum::new(&[1.0, 1.0]));
        let c = d.add_block(Constant::new(1.0));
        d.connect(s, 0, s, 0).unwrap();
        d.connect(c, 0, s, 1).unwrap();
        match d.validate() {
            Err(FlowError::AlgebraicLoop { nodes }) => assert_eq!(nodes, ["sum_0"]),
            other => panic!("expected an algebraic loop, got {other:?}"),
        }

        // An integrator wired to itself reads its previous step's output
        // (0.0 before the first step): y = 1, 1, 1.5 for x0 = 1, h = 0.5.
        let mut d = BlockDiagram::new("growth");
        let i = d.add_block(Integrator::new(1.0));
        d.connect(i, 0, i, 0).unwrap();
        d.mark_output(i, 0).unwrap();
        d.validate().unwrap();
        let outs: Vec<f64> = (0..3)
            .map(|k| {
                d.step(k as f64 * 0.5, 0.5, &[]);
                d.outputs()[0]
            })
            .collect();
        assert_eq!(outs, [1.0, 1.0, 1.5]);
    }

    #[test]
    fn a_loop_report_names_only_blocks_on_a_cycle() {
        let loop_blocks = |d: &mut BlockDiagram| match d.validate() {
            Err(FlowError::AlgebraicLoop { nodes }) => nodes,
            other => panic!("expected an algebraic loop, got {other:?}"),
        };
        // gain_0 <-> gain_1 -> gain_2: gain_2 only reads the loop.
        let mut d = BlockDiagram::new("downstream");
        let g: Vec<NodeId> = (0..3).map(|_| d.add_block(Gain::new(0.5))).collect();
        d.connect(g[0], 0, g[1], 0).unwrap();
        d.connect(g[1], 0, g[0], 0).unwrap();
        d.connect(g[1], 0, g[2], 0).unwrap();
        assert_eq!(loop_blocks(&mut d), ["gain_0", "gain_1"]);

        // gain_0 <-> sum_1 -> gain_2 -> sum_3 <-> gain_4: gain_2 sits
        // between two loops.
        let mut d = BlockDiagram::new("between");
        let a = d.add_block(Gain::new(0.5));
        let b = d.add_block(Sum::new(&[1.0, 1.0]));
        let c = d.add_block(Gain::new(0.5));
        let e = d.add_block(Sum::new(&[1.0, 1.0]));
        let f = d.add_block(Gain::new(0.5));
        d.connect(a, 0, b, 0).unwrap();
        d.connect(b, 0, a, 0).unwrap();
        d.mark_input(b, 1).unwrap();
        d.connect(b, 0, c, 0).unwrap();
        d.connect(c, 0, e, 0).unwrap();
        d.connect(f, 0, e, 1).unwrap();
        d.connect(e, 0, f, 0).unwrap();
        assert_eq!(loop_blocks(&mut d), ["gain_0", "sum_1", "sum_3", "gain_4"]);
    }

    #[test]
    fn equal_labels_are_refused_with_urt010() {
        let mut d = BlockDiagram::new("twins");
        let c = d.add_block_labeled("k", Constant::new(1.0));
        let g = d.add_block_labeled("k", Gain::new(2.0));
        d.connect(c, 0, g, 0).unwrap();
        let err = d.validate().unwrap_err();
        assert_eq!(err.code(), "URT010");
        assert!(matches!(err, FlowError::DuplicateName { name } if name == "k"));
    }

    #[test]
    fn reset_restores_initial_conditions() {
        let mut d = BlockDiagram::new("d");
        let c = d.add_block(Constant::new(1.0));
        let i = d.add_block(Integrator::new(0.0));
        d.connect(c, 0, i, 0).unwrap();
        d.mark_output(i, 0).unwrap();
        d.validate().unwrap();
        for k in 0..10 {
            d.step(k as f64 * 0.1, 0.1, &[]);
        }
        assert!(d.outputs()[0] > 0.5);
        d.reset();
        d.step(0.0, 0.1, &[]);
        assert_eq!(d.outputs()[0], 0.0);
    }

    #[test]
    fn feedthrough_analysis() {
        // input -> gain -> output: feedthrough.
        let mut d = BlockDiagram::new("ft");
        let g = d.add_block(Gain::new(1.0));
        d.mark_input(g, 0).unwrap();
        d.mark_output(g, 0).unwrap();
        assert!(d.has_direct_feedthrough());

        // input -> integrator -> output: not feedthrough.
        let mut d = BlockDiagram::new("nft");
        let i = d.add_block(Integrator::new(0.0));
        d.mark_input(i, 0).unwrap();
        d.mark_output(i, 0).unwrap();
        assert!(!d.has_direct_feedthrough());
    }

    #[test]
    fn into_streamer_behaves_like_diagram() {
        use urt_dataflow::streamer::StreamerBehavior;
        let mut d = BlockDiagram::new("d");
        let g = d.add_block(Gain::new(4.0));
        d.mark_input(g, 0).unwrap();
        d.mark_output(g, 0).unwrap();
        let mut s = d.into_streamer("quad").unwrap();
        assert_eq!(s.input_width(), 1);
        assert_eq!(s.output_width(), 1);
        assert!(s.direct_feedthrough());
        let mut y = [0.0];
        s.advance(0.0, 0.01, &[2.5], &mut y).unwrap();
        assert_eq!(y[0], 10.0);
    }

    #[test]
    fn labels_name_blocks() {
        let mut d = BlockDiagram::new("d");
        let c = d.add_block_labeled("my_const", Constant::new(1.0));
        let g = d.add_block(Gain::new(1.0));
        d.connect(c, 0, g, 0).unwrap();
        assert_eq!(d.label(c).unwrap(), "my_const");
        assert_eq!(d.label(g).unwrap(), "gain_1");
        assert!(d.label(NodeId::from_index(9)).is_err());
    }
}
