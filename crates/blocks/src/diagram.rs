//! Block diagrams: wiring blocks together, and compiling a diagram into a
//! single streamer behaviour for the unified model.

use crate::block::Block;
use crate::error::BlockError;
use std::collections::VecDeque;
use std::fmt;
use urt_dataflow::streamer::StreamerBehavior;
use urt_ode::SolveError;

/// Identifier of a block within a diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(usize);

impl BlockId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

struct BlockInst {
    label: String,
    block: Box<dyn Block>,
    in_buf: Vec<f64>,
    out_buf: Vec<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Conn {
    from_block: usize,
    from_port: usize,
    to_block: usize,
    to_port: usize,
}

/// A wired set of blocks with designated external inputs and outputs.
///
/// See the crate-level example. Diagrams are the Simulink-shaped modeling
/// surface; [`BlockDiagram::into_streamer`] turns a whole diagram into one
/// streamer for the unified model, while the Kühl baseline instead turns
/// *each block* into a capsule.
pub struct BlockDiagram {
    name: String,
    blocks: Vec<BlockInst>,
    conns: Vec<Conn>,
    ext_inputs: Vec<(usize, usize)>,
    ext_outputs: Vec<(usize, usize)>,
    order: Vec<usize>,
    validated: bool,
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
            order: Vec::new(),
            validated: false,
            outputs: Vec::new(),
        }
    }

    /// Diagram name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a block, labelling it with its type name plus index.
    pub fn add_block(&mut self, block: impl Block + 'static) -> BlockId {
        let label = format!("{}_{}", block.name(), self.blocks.len());
        self.add_block_labeled(label, block)
    }

    /// Adds a block with an explicit label.
    pub fn add_block_labeled(
        &mut self,
        label: impl Into<String>,
        block: impl Block + 'static,
    ) -> BlockId {
        let block: Box<dyn Block> = Box::new(block);
        let (ni, no) = (block.inputs(), block.outputs());
        self.blocks.push(BlockInst {
            label: label.into(),
            block,
            in_buf: vec![0.0; ni],
            out_buf: vec![0.0; no],
        });
        self.validated = false;
        BlockId(self.blocks.len() - 1)
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
    /// Returns [`BlockError::UnknownBlock`] for a bad id.
    pub fn label(&self, id: BlockId) -> Result<&str, BlockError> {
        self.blocks
            .get(id.0)
            .map(|b| b.label.as_str())
            .ok_or(BlockError::UnknownBlock { index: id.0 })
    }

    /// Iterates connections as `(from_block, from_port, to_block, to_port)`.
    pub fn iter_connections(&self) -> impl Iterator<Item = (BlockId, usize, BlockId, usize)> + '_ {
        self.conns
            .iter()
            .map(|c| (BlockId(c.from_block), c.from_port, BlockId(c.to_block), c.to_port))
    }

    fn check_port(&self, id: BlockId, port: usize, input: bool) -> Result<(), BlockError> {
        let b = self.blocks.get(id.0).ok_or(BlockError::UnknownBlock { index: id.0 })?;
        let count = if input { b.block.inputs() } else { b.block.outputs() };
        if port >= count {
            return Err(BlockError::BadPort { block: b.label.clone(), port, input });
        }
        Ok(())
    }

    /// Connects output `from_port` of `from` to input `to_port` of `to`.
    ///
    /// # Errors
    ///
    /// * [`BlockError::UnknownBlock`] / [`BlockError::BadPort`].
    /// * [`BlockError::MultipleWriters`] if the input is already driven.
    pub fn connect(
        &mut self,
        from: BlockId,
        from_port: usize,
        to: BlockId,
        to_port: usize,
    ) -> Result<(), BlockError> {
        self.check_port(from, from_port, false)?;
        self.check_port(to, to_port, true)?;
        if self.input_is_driven(to.0, to_port) {
            return Err(BlockError::MultipleWriters {
                block: self.blocks[to.0].label.clone(),
                port: to_port,
            });
        }
        self.conns.push(Conn { from_block: from.0, from_port, to_block: to.0, to_port });
        self.validated = false;
        Ok(())
    }

    fn input_is_driven(&self, block: usize, port: usize) -> bool {
        self.conns.iter().any(|c| c.to_block == block && c.to_port == port)
            || self.ext_inputs.contains(&(block, port))
    }

    /// Exposes a block input as diagram input number
    /// `self.input_count() - 1` (in call order).
    ///
    /// # Errors
    ///
    /// Bad ids/ports and already-driven inputs error as in
    /// [`BlockDiagram::connect`].
    pub fn mark_input(&mut self, block: BlockId, port: usize) -> Result<(), BlockError> {
        self.check_port(block, port, true)?;
        if self.input_is_driven(block.0, port) {
            return Err(BlockError::MultipleWriters {
                block: self.blocks[block.0].label.clone(),
                port,
            });
        }
        self.ext_inputs.push((block.0, port));
        self.validated = false;
        Ok(())
    }

    /// Exposes a block output as diagram output number
    /// `self.output_count() - 1` (in call order).
    ///
    /// # Errors
    ///
    /// Returns bad-id/bad-port errors as in [`BlockDiagram::connect`].
    pub fn mark_output(&mut self, block: BlockId, port: usize) -> Result<(), BlockError> {
        self.check_port(block, port, false)?;
        self.ext_outputs.push((block.0, port));
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

    /// Validates connectivity and computes the execution order.
    ///
    /// # Errors
    ///
    /// * [`BlockError::UnconnectedInput`] for an undriven input.
    /// * [`BlockError::AlgebraicLoop`] for a feedthrough cycle.
    pub fn validate(&mut self) -> Result<(), BlockError> {
        for (i, inst) in self.blocks.iter().enumerate() {
            for p in 0..inst.block.inputs() {
                if !self.input_is_driven(i, p) {
                    return Err(BlockError::UnconnectedInput {
                        block: inst.label.clone(),
                        port: p,
                    });
                }
            }
        }
        self.order = self.compute_order()?;
        self.validated = true;
        Ok(())
    }

    fn compute_order(&self) -> Result<Vec<usize>, BlockError> {
        let n = self.blocks.len();
        let mut indeg = vec![0usize; n];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for c in &self.conns {
            if self.blocks[c.to_block].block.direct_feedthrough() && c.from_block != c.to_block {
                adj[c.from_block].push(c.to_block);
                indeg[c.to_block] += 1;
            }
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &v in &adj[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push_back(v);
                }
            }
        }
        if order.len() != n {
            let cycle =
                (0..n).filter(|&i| indeg[i] > 0).map(|i| self.blocks[i].label.clone()).collect();
            return Err(BlockError::AlgebraicLoop { blocks: cycle });
        }
        Ok(order)
    }

    /// Advances every block by `h`, feeding `ext_u` into the marked inputs.
    ///
    /// # Panics
    ///
    /// Panics if the diagram was never successfully validated or
    /// `ext_u.len() != self.input_count()`.
    pub fn step(&mut self, t: f64, h: f64, ext_u: &[f64]) {
        assert!(self.validated, "validate() the diagram before stepping");
        assert_eq!(ext_u.len(), self.ext_inputs.len(), "external input arity mismatch");
        // Latch external inputs.
        for (k, &(b, p)) in self.ext_inputs.iter().enumerate() {
            self.blocks[b].in_buf[p] = ext_u[k];
        }
        let order = std::mem::take(&mut self.order);
        for &i in &order {
            for c in &self.conns {
                if c.to_block != i {
                    continue;
                }
                let v = self.blocks[c.from_block].out_buf[c.from_port];
                self.blocks[c.to_block].in_buf[c.to_port] = v;
            }
            let inst = &mut self.blocks[i];
            let in_buf = std::mem::take(&mut inst.in_buf);
            inst.block.step(t, h, &in_buf, &mut inst.out_buf);
            inst.in_buf = in_buf;
        }
        self.order = order;
        for (k, &(b, p)) in self.ext_outputs.iter().enumerate() {
            self.outputs[k] = self.blocks[b].out_buf[p];
        }
    }

    /// The diagram outputs after the latest step, in `mark_output` order.
    pub fn outputs(&self) -> &[f64] {
        &self.outputs
    }

    /// Resets every block to initial conditions.
    pub fn reset(&mut self) {
        for inst in &mut self.blocks {
            inst.block.reset();
            inst.in_buf.fill(0.0);
            inst.out_buf.fill(0.0);
        }
        self.outputs.fill(0.0);
    }

    /// Whether a same-step path connects a marked input to a marked output
    /// through direct-feedthrough blocks only.
    pub fn has_direct_feedthrough(&self) -> bool {
        let n = self.blocks.len();
        let mut tainted = vec![false; n];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &(b, _) in &self.ext_inputs {
            if self.blocks[b].block.direct_feedthrough() && !tainted[b] {
                tainted[b] = true;
                queue.push_back(b);
            }
        }
        while let Some(u) = queue.pop_front() {
            for c in &self.conns {
                if c.from_block == u
                    && self.blocks[c.to_block].block.direct_feedthrough()
                    && !tainted[c.to_block]
                {
                    tainted[c.to_block] = true;
                    queue.push_back(c.to_block);
                }
            }
        }
        self.ext_outputs.iter().any(|&(b, _)| tainted[b])
    }

    /// Decomposes the diagram into its raw parts — the entry point for the
    /// Kühl baseline, which turns every block into its own capsule object.
    pub fn into_parts(self) -> DiagramParts {
        DiagramParts {
            name: self.name,
            blocks: self.blocks.into_iter().map(|b| (b.label, b.block)).collect(),
            connections: self
                .conns
                .iter()
                .map(|c| (c.from_block, c.from_port, c.to_block, c.to_port))
                .collect(),
            ext_inputs: self.ext_inputs,
            ext_outputs: self.ext_outputs,
        }
    }

    /// Compiles the diagram into a single streamer behaviour — the paper's
    /// intended unification path: one streamer per continuous subsystem.
    ///
    /// # Errors
    ///
    /// Validation errors if the diagram is incomplete.
    pub fn into_streamer(mut self, name: impl Into<String>) -> Result<DiagramStreamer, BlockError> {
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
    /// External outputs as `(block, output port)` indices.
    pub ext_outputs: Vec<(usize, usize)>,
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

impl DiagramStreamer {
    /// Read access to the wrapped diagram (e.g. for scope inspection).
    pub fn diagram(&self) -> &BlockDiagram {
        &self.diagram
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
        assert!(matches!(d.connect(c, 1, g, 0), Err(BlockError::BadPort { input: false, .. })));
        assert!(matches!(d.connect(c, 0, g, 5), Err(BlockError::BadPort { input: true, .. })));
        d.connect(c, 0, g, 0).unwrap();
        assert!(matches!(d.connect(c, 0, g, 0), Err(BlockError::MultipleWriters { .. })));
        assert!(matches!(d.mark_input(g, 0), Err(BlockError::MultipleWriters { .. })));
        assert!(matches!(d.connect(BlockId(9), 0, g, 0), Err(BlockError::UnknownBlock { .. })));
    }

    #[test]
    fn unconnected_input_detected() {
        let mut d = BlockDiagram::new("d");
        d.add_block(Gain::new(1.0));
        assert!(matches!(d.validate(), Err(BlockError::UnconnectedInput { .. })));
    }

    #[test]
    fn algebraic_loop_detected_and_integrator_breaks_it() {
        // gain -> gain loop: algebraic.
        let mut d = BlockDiagram::new("bad");
        let g1 = d.add_block(Gain::new(0.5));
        let g2 = d.add_block(Gain::new(0.5));
        d.connect(g1, 0, g2, 0).unwrap();
        d.connect(g2, 0, g1, 0).unwrap();
        assert!(matches!(d.validate(), Err(BlockError::AlgebraicLoop { .. })));

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
        assert_eq!(s.diagram().block_count(), 1);
    }

    #[test]
    fn labels_and_iteration() {
        let mut d = BlockDiagram::new("d");
        let c = d.add_block_labeled("my_const", Constant::new(1.0));
        let g = d.add_block(Gain::new(1.0));
        d.connect(c, 0, g, 0).unwrap();
        assert_eq!(d.label(c).unwrap(), "my_const");
        assert_eq!(d.label(g).unwrap(), "gain_1");
        assert!(d.label(BlockId(9)).is_err());
        let conns: Vec<_> = d.iter_connections().collect();
        assert_eq!(conns, vec![(c, 0, g, 0)]);
    }
}
