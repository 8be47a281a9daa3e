//! Streamer networks: the builder of the paper's Figure 2 abstract
//! syntax (streamers, typed flows, exported inputs), its validation, and
//! the [`StepPlan`] it lowers into — the one dense schedule every macro
//! step walks.

use crate::error::FlowError;
use crate::flowtype::FlowType;
use crate::port::{DPortSpec, Direction};
use crate::streamer::StreamerBehavior;
use std::collections::VecDeque;
use std::fmt;
use urt_umlrt::message::Message;

/// Identifier of a streamer node within a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs an id from a raw index (e.g. deserialised configs).
    /// Validity is only checked when the id is used against a network.
    pub fn from_index(index: usize) -> Self {
        NodeId(index)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One lane copy of a [`StepPlan`], in *dense per-instance* coordinates:
/// `len` lanes from offset `src` of one dense array to offset `dst` of
/// another (which arrays depends on where the copy appears in the plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCopy {
    /// Source lane offset.
    pub src: usize,
    /// Destination lane offset.
    pub dst: usize,
    /// Number of lanes copied.
    pub len: usize,
}

/// One streamer row of a [`StepPlan`], in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    /// The network node this row executes.
    pub node: NodeId,
    /// Offset of the node's input lanes in the dense input array.
    pub in_offset: usize,
    /// Input lane count.
    pub in_width: usize,
    /// Offset of the node's output lanes in the dense output array.
    pub out_offset: usize,
    /// Output lane count.
    pub out_width: usize,
    /// Flow copies feeding this node, in flow declaration order:
    /// `src` indexes the dense *output* array, `dst` the dense *input*
    /// array. [`StepPlan::replay`] runs them right before the row.
    pub gathers: Vec<PlanCopy>,
}

/// A validated, immutable execution schedule over *dense per-instance
/// state arrays*: every node's input lanes are assigned a contiguous span
/// of one flat input array (and likewise for outputs), flows become
/// offset/length copies between the two arrays, and nodes are listed as
/// streamer rows in dependency order.
///
/// [`StepPlan::replay`] is the one walk of this schedule: the engine
/// replays it over `K` instance-major copies of the arrays per macro
/// step, paying the routing bookkeeping once instead of once per
/// instance, and [`StreamerNetwork::step`] is its `K = 1` call.
///
/// The plan also keeps each node's name, DPorts and feedthrough
/// flag, so ports can be resolved against it after the network that
/// produced it is gone.
///
/// Produced by [`StreamerNetwork::into_plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct StepPlan {
    nodes: Vec<PlanNode>,
    ext_loads: Vec<PlanCopy>,
    in_width: usize,
    out_width: usize,
    ext_in_width: usize,
    in_offsets: Vec<usize>,
    out_offsets: Vec<usize>,
    shapes: Vec<NodeShape>,
}

/// The structural half of one node, moved out of its network by
/// [`StreamerNetwork::into_plan`].
#[derive(Debug, Clone, PartialEq)]
struct NodeShape {
    name: String,
    in_ports: Vec<DPortSpec>,
    out_ports: Vec<DPortSpec>,
    feedthrough: bool,
}

/// Lane offset and spec of the port called `port` among `ports`.
fn locate<'a>(
    ports: &'a [DPortSpec],
    node: &str,
    port: &str,
) -> Result<(usize, &'a DPortSpec), FlowError> {
    let mut offset = 0;
    for p in ports {
        if p.name() == port {
            return Ok((offset, p));
        }
        offset += p.width();
    }
    Err(FlowError::UnknownPort { node: node.to_owned(), port: port.to_owned() })
}

impl StepPlan {
    /// Streamer rows in execution order.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// Copies latching exported boundary inputs before the row loop:
    /// `src` indexes the external input vector, `dst` the dense input
    /// array.
    pub fn ext_loads(&self) -> &[PlanCopy] {
        &self.ext_loads
    }

    /// Total dense input lanes per instance.
    pub fn in_width(&self) -> usize {
        self.in_width
    }

    /// Total dense output lanes per instance.
    pub fn out_width(&self) -> usize {
        self.out_width
    }

    /// Width of the external input vector the plan latches from.
    pub fn ext_in_width(&self) -> usize {
        self.ext_in_width
    }

    /// Offset of a node's output lanes in the dense output array, by raw
    /// node index (`None` for an out-of-range index).
    pub fn out_offset(&self, node: usize) -> Option<usize> {
        self.out_offsets.get(node).copied()
    }

    /// One walk of the plan over `k` instance-major copies of the dense
    /// arrays — `ext`, `ins` and `outs` hold `k` runs of
    /// [`ext_in_width`](StepPlan::ext_in_width),
    /// [`in_width`](StepPlan::in_width) and
    /// [`out_width`](StepPlan::out_width) lanes. Latches every instance's
    /// exported inputs from `ext`, then, per row in execution order,
    /// copies the row's gathers for every instance and calls
    /// `row(r, node, ins, outs)` to advance the `k` lanes of row `r`.
    ///
    /// # Errors
    ///
    /// Stops at, and returns, the first error `row` returns.
    // Always inlined: left to the optimiser, the walk stays out of line
    // in the engine's macro step, which cost perfbench's fig2-loop about
    // 10 % of its step rate.
    #[inline(always)]
    pub fn replay<E>(
        &self,
        k: usize,
        ext: &[f64],
        ins: &mut [f64],
        outs: &mut [f64],
        mut row: impl FnMut(usize, &PlanNode, &[f64], &mut [f64]) -> Result<(), E>,
    ) -> Result<(), E> {
        let (inw, outw, extw) = (self.in_width, self.out_width, self.ext_in_width);
        for c in &self.ext_loads {
            for i in 0..k {
                let (src, dst) = (i * extw + c.src, i * inw + c.dst);
                ins[dst..dst + c.len].copy_from_slice(&ext[src..src + c.len]);
            }
        }
        for (r, pn) in self.nodes.iter().enumerate() {
            for c in &pn.gathers {
                for i in 0..k {
                    let (src, dst) = (i * outw + c.src, i * inw + c.dst);
                    ins[dst..dst + c.len].copy_from_slice(&outs[src..src + c.len]);
                }
            }
            row(r, pn, ins, outs)?;
        }
        Ok(())
    }

    fn shape(&self, node: NodeId) -> Result<&NodeShape, FlowError> {
        self.shapes.get(node.0).ok_or(FlowError::UnknownNode { index: node.0 })
    }

    /// Node name lookup.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownNode`] for a bad id.
    pub fn node_name(&self, node: NodeId) -> Result<&str, FlowError> {
        Ok(&self.shape(node)?.name)
    }

    /// Whether a node has direct feedthrough.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownNode`] for a bad id.
    pub fn node_feedthrough(&self, node: NodeId) -> Result<bool, FlowError> {
        Ok(self.shape(node)?.feedthrough)
    }

    /// Dense output-array offset and spec of an output DPort.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownNode`] / [`FlowError::UnknownPort`].
    pub fn output_port(&self, node: NodeId, port: &str) -> Result<(usize, &DPortSpec), FlowError> {
        let shape = self.shape(node)?;
        let (offset, spec) = locate(&shape.out_ports, &shape.name, port)?;
        Ok((self.out_offsets[node.0] + offset, spec))
    }

    /// Dense input-array offset and spec of an input DPort.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownNode`] / [`FlowError::UnknownPort`].
    pub fn input_port(&self, node: NodeId, port: &str) -> Result<(usize, &DPortSpec), FlowError> {
        let shape = self.shape(node)?;
        let (offset, spec) = locate(&shape.in_ports, &shape.name, port)?;
        Ok((self.in_offsets[node.0] + offset, spec))
    }

    /// Offset inside the external input vector of the exported input whose
    /// dense input-array offset is `dense_in` (`None` if that input is not
    /// exported).
    pub fn exported_offset(&self, dense_in: usize) -> Option<usize> {
        self.ext_loads.iter().find(|c| c.dst == dense_in).map(|c| c.src)
    }
}

struct Node {
    name: String,
    behavior: Box<dyn StreamerBehavior>,
    in_ports: Vec<DPortSpec>,
    out_ports: Vec<DPortSpec>,
}

impl Node {
    fn in_port_offset(&self, port_idx: usize) -> usize {
        self.in_ports[..port_idx].iter().map(DPortSpec::width).sum()
    }

    fn out_port_offset(&self, port_idx: usize) -> usize {
        self.out_ports[..port_idx].iter().map(DPortSpec::width).sum()
    }

    fn in_width(&self) -> usize {
        self.behavior.input_width()
    }

    fn out_width(&self) -> usize {
        self.behavior.output_width()
    }
}

/// A dataflow connection: `(node, output port index)` to
/// `(node, input port index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Flow {
    from_node: usize,
    from_port: usize,
    to_node: usize,
    to_port: usize,
}

/// The builder of a network of streamers connected by typed flows.
///
/// See the crate-level example. The network enforces the paper's
/// connection rules as it is built and validated:
///
/// 1. flows go from output DPorts to input DPorts;
/// 2. the output flow type must be a *subset* of the input flow type;
/// 3. each input DPort has exactly one writer;
/// 4. direct-feedthrough cycles are rejected as algebraic loops.
///
/// A relay — one flow duplicated into several similar flows — is plain
/// fan-out: one output DPort may feed any number of inputs.
///
/// [`StreamerNetwork::into_plan`] lowers the network into the
/// [`StepPlan`] the engine runs. [`StreamerNetwork::step`] runs the same
/// walk ([`StepPlan::replay`] at `K = 1`) in place, over dense arrays in
/// the plan's layout.
pub struct StreamerNetwork {
    name: String,
    nodes: Vec<Node>,
    flows: Vec<Flow>,
    /// Boundary inputs exported to a parent context: `(node, port index)`.
    ext_inputs: Vec<(usize, usize)>,
    /// The schedule [`StreamerNetwork::step`] walks; `None` until the
    /// network validates and again after every topology change.
    plan: Option<StepPlan>,
    /// Dense input, output and external-input lanes in the plan's
    /// node-index layout, grown as nodes and exports are added.
    ins: Vec<f64>,
    outs: Vec<f64>,
    ext: Vec<f64>,
    time: f64,
    initialized: bool,
    pending_signals: Vec<(NodeId, String, Message)>,
}

impl fmt::Debug for StreamerNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamerNetwork")
            .field("name", &self.name)
            .field("nodes", &self.nodes.len())
            .field("flows", &self.flows.len())
            .field("time", &self.time)
            .finish_non_exhaustive()
    }
}

impl StreamerNetwork {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>) -> Self {
        StreamerNetwork {
            name: name.into(),
            nodes: Vec::new(),
            flows: Vec::new(),
            ext_inputs: Vec::new(),
            plan: None,
            ins: Vec::new(),
            outs: Vec::new(),
            ext: Vec::new(),
            time: 0.0,
            initialized: false,
            pending_signals: Vec::new(),
        }
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of streamer nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Drops the plan after a topology change; the next
    /// [`StreamerNetwork::initialize`] validates again.
    fn invalidate(&mut self) {
        self.plan = None;
        self.initialized = false;
    }

    /// Adds a streamer with the given input and output DPorts.
    ///
    /// # Errors
    ///
    /// * [`FlowError::DuplicateName`] if the behaviour name is taken.
    /// * [`FlowError::WidthMismatch`] if the DPort lanes do not match the
    ///   behaviour's declared widths.
    pub fn add_streamer(
        &mut self,
        behavior: impl StreamerBehavior + 'static,
        in_ports: &[(&str, FlowType)],
        out_ports: &[(&str, FlowType)],
    ) -> Result<NodeId, FlowError> {
        self.add_streamer_boxed(Box::new(behavior), in_ports, out_ports)
    }

    /// Type-erased variant of [`StreamerNetwork::add_streamer`].
    ///
    /// # Errors
    ///
    /// Same as [`StreamerNetwork::add_streamer`].
    pub fn add_streamer_boxed(
        &mut self,
        behavior: Box<dyn StreamerBehavior>,
        in_ports: &[(&str, FlowType)],
        out_ports: &[(&str, FlowType)],
    ) -> Result<NodeId, FlowError> {
        let name = behavior.name().to_owned();
        if self.nodes.iter().any(|n| n.name == name) {
            return Err(FlowError::DuplicateName { name });
        }
        let ins: Vec<DPortSpec> =
            in_ports.iter().map(|(n, t)| DPortSpec::new(*n, Direction::In, t.clone())).collect();
        let outs: Vec<DPortSpec> =
            out_ports.iter().map(|(n, t)| DPortSpec::new(*n, Direction::Out, t.clone())).collect();
        let in_width: usize = ins.iter().map(DPortSpec::width).sum();
        let out_width: usize = outs.iter().map(DPortSpec::width).sum();
        if in_width != behavior.input_width() {
            return Err(FlowError::WidthMismatch {
                node: name,
                expected: in_width,
                found: behavior.input_width(),
            });
        }
        if out_width != behavior.output_width() {
            return Err(FlowError::WidthMismatch {
                node: name,
                expected: out_width,
                found: behavior.output_width(),
            });
        }
        self.nodes.push(Node { name, behavior, in_ports: ins, out_ports: outs });
        self.ins.resize(self.ins.len() + in_width, 0.0);
        self.outs.resize(self.outs.len() + out_width, 0.0);
        self.invalidate();
        Ok(NodeId(self.nodes.len() - 1))
    }

    /// Node name lookup.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownNode`] for a bad id.
    pub fn node_name(&self, node: NodeId) -> Result<&str, FlowError> {
        self.nodes
            .get(node.0)
            .map(|n| n.name.as_str())
            .ok_or(FlowError::UnknownNode { index: node.0 })
    }

    fn find_port(
        &self,
        node: NodeId,
        port: &str,
        direction: Direction,
    ) -> Result<usize, FlowError> {
        let n = self.nodes.get(node.0).ok_or(FlowError::UnknownNode { index: node.0 })?;
        let ports = match direction {
            Direction::In => &n.in_ports,
            Direction::Out => &n.out_ports,
        };
        ports
            .iter()
            .position(|p| p.name() == port)
            .ok_or_else(|| FlowError::UnknownPort { node: n.name.clone(), port: port.to_owned() })
    }

    /// Connects an output DPort to an input DPort, enforcing the paper's
    /// subset rule and single-writer discipline. One output may feed any
    /// number of inputs (the paper's relay: one flow duplicated into
    /// similar flows).
    ///
    /// # Errors
    ///
    /// * [`FlowError::UnknownNode`] / [`FlowError::UnknownPort`].
    /// * [`FlowError::TypeMismatch`] if the output flow type is not a
    ///   subset of the input flow type.
    /// * [`FlowError::MultipleWriters`] if the input is already driven.
    pub fn flow(&mut self, from: (NodeId, &str), to: (NodeId, &str)) -> Result<(), FlowError> {
        let from_port = self.find_port(from.0, from.1, Direction::Out)?;
        let to_port = self.find_port(to.0, to.1, Direction::In)?;
        let src = &self.nodes[from.0 .0].out_ports[from_port];
        let dst = &self.nodes[to.0 .0].in_ports[to_port];
        if let Some(detail) = src.flow_type().subset_failure(dst.flow_type()) {
            return Err(FlowError::TypeMismatch {
                from: format!("{}.{}", self.nodes[from.0 .0].name, from.1),
                to: format!("{}.{}", self.nodes[to.0 .0].name, to.1),
                detail,
            });
        }
        if self.flows.iter().any(|f| f.to_node == to.0 .0 && f.to_port == to_port) {
            return Err(FlowError::MultipleWriters {
                node: self.nodes[to.0 .0].name.clone(),
                port: to.1.to_owned(),
            });
        }
        self.flows.push(Flow { from_node: from.0 .0, from_port, to_node: to.0 .0, to_port });
        self.invalidate();
        Ok(())
    }

    /// Exports a node's input DPort to the parent context: in the engine
    /// the port is fed by a cross-group channel through the plan's
    /// external input vector ([`StepPlan::ext_loads`]). Returns the lane
    /// offset inside that vector.
    ///
    /// # Errors
    ///
    /// * Unknown node/port errors.
    /// * [`FlowError::MultipleWriters`] if the port is already driven.
    pub fn export_input(&mut self, node: NodeId, port: &str) -> Result<usize, FlowError> {
        let pi = self.find_port(node, port, Direction::In)?;
        if self.flows.iter().any(|f| f.to_node == node.0 && f.to_port == pi)
            || self.ext_inputs.contains(&(node.0, pi))
        {
            return Err(FlowError::MultipleWriters {
                node: self.nodes[node.0].name.clone(),
                port: port.to_owned(),
            });
        }
        let offset = self.ext.len();
        self.ext.resize(offset + self.nodes[node.0].in_ports[pi].width(), 0.0);
        self.ext_inputs.push((node.0, pi));
        self.invalidate();
        Ok(offset)
    }

    /// Every input DPort driven by neither a flow nor an export.
    fn unconnected_inputs(&self) -> impl Iterator<Item = FlowError> + '_ {
        self.nodes.iter().enumerate().flat_map(move |(i, node)| {
            node.in_ports
                .iter()
                .enumerate()
                .filter(move |&(pi, _)| {
                    !self.flows.iter().any(|f| f.to_node == i && f.to_port == pi)
                        && !self.ext_inputs.contains(&(i, pi))
                })
                .map(move |(_, port)| FlowError::UnconnectedInput {
                    node: node.name.clone(),
                    port: port.name().to_owned(),
                })
        })
    }

    /// The execution order: every input driven, no algebraic loop.
    fn checked_order(&self) -> Result<Vec<usize>, FlowError> {
        if let Some(first) = self.unconnected_inputs().next() {
            return Err(first);
        }
        let (order, indeg) = self.kahn();
        if order.len() != self.nodes.len() {
            let cycle: Vec<String> = (0..self.nodes.len())
                .filter(|&i| indeg[i] > 0)
                .map(|i| self.nodes[i].name.clone())
                .collect();
            return Err(FlowError::AlgebraicLoop { nodes: cycle });
        }
        Ok(order)
    }

    /// Validates the whole network — every input driven (by a flow or an
    /// export), no algebraic loops — and lays out the plan
    /// [`StreamerNetwork::step`] walks.
    ///
    /// # Errors
    ///
    /// * [`FlowError::UnconnectedInput`] for the first undriven input
    ///   DPort.
    /// * [`FlowError::AlgebraicLoop`] for a direct-feedthrough cycle.
    pub fn validate(&mut self) -> Result<(), FlowError> {
        self.plan = Some(self.layout(&self.checked_order()?));
        Ok(())
    }

    /// Runs Kahn's algorithm over *feedthrough-relevant* edges: an edge
    /// constrains order only if the downstream node has direct
    /// feedthrough; integrator-like nodes may consume last-step values.
    /// Returns `(order, leftover-indegrees)`; nodes with a positive
    /// leftover indegree sit on a direct-feedthrough cycle.
    fn kahn(&self) -> (Vec<usize>, Vec<usize>) {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for f in &self.flows {
            if self.nodes[f.to_node].behavior.direct_feedthrough() && f.from_node != f.to_node {
                adj[f.from_node].push(f.to_node);
                indeg[f.to_node] += 1;
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
        (order, indeg)
    }

    /// The routing half of the [`StepPlan`] for execution order `order`
    /// (node shapes left empty; [`StreamerNetwork::into_plan`] moves them
    /// in).
    fn layout(&self, order: &[usize]) -> StepPlan {
        // Dense per-instance layout: node i's buffers occupy contiguous
        // spans at prefix-sum offsets, in node-index (not execution)
        // order, so offsets are stable under re-planning.
        let mut in_offsets = Vec::with_capacity(self.nodes.len());
        let mut out_offsets = Vec::with_capacity(self.nodes.len());
        let mut in_width = 0;
        let mut out_width = 0;
        for node in &self.nodes {
            in_offsets.push(in_width);
            out_offsets.push(out_width);
            in_width += node.in_width();
            out_width += node.out_width();
        }

        let mut ext_loads = Vec::with_capacity(self.ext_inputs.len());
        let mut cursor = 0;
        for &(n, p) in &self.ext_inputs {
            let node = &self.nodes[n];
            let w = node.in_ports[p].width();
            ext_loads.push(PlanCopy {
                src: cursor,
                dst: in_offsets[n] + node.in_port_offset(p),
                len: w,
            });
            cursor += w;
        }

        let nodes = order
            .iter()
            .map(|&i| {
                let node = &self.nodes[i];
                let gathers = self
                    .flows
                    .iter()
                    .filter(|f| f.to_node == i)
                    .map(|f| {
                        let src_node = &self.nodes[f.from_node];
                        PlanCopy {
                            src: out_offsets[f.from_node] + src_node.out_port_offset(f.from_port),
                            dst: in_offsets[i] + node.in_port_offset(f.to_port),
                            len: src_node.out_ports[f.from_port].width(),
                        }
                    })
                    .collect();
                PlanNode {
                    node: NodeId(i),
                    in_offset: in_offsets[i],
                    in_width: node.in_width(),
                    out_offset: out_offsets[i],
                    out_width: node.out_width(),
                    gathers,
                }
            })
            .collect();

        StepPlan {
            nodes,
            ext_loads,
            in_width,
            out_width,
            ext_in_width: cursor,
            in_offsets,
            out_offsets,
            shapes: Vec::new(),
        }
    }

    /// Initialises all behaviours at `t0`, validating first if the
    /// topology changed.
    ///
    /// # Errors
    ///
    /// Propagates validation and solver-initialisation failures.
    pub fn initialize(&mut self, t0: f64) -> Result<(), FlowError> {
        if self.plan.is_none() {
            self.validate()?;
        }
        self.time = t0;
        for node in &mut self.nodes {
            node.behavior.initialize(t0)?;
        }
        self.initialized = true;
        Ok(())
    }

    /// Advances every streamer by `h` seconds — one [`StepPlan::replay`]
    /// at `K = 1` over the network's dense arrays — and collects emitted
    /// SPort signals. Exported inputs read zero lanes: their channels
    /// live in the engine.
    ///
    /// # Errors
    ///
    /// * [`FlowError::Solve`] on solver failure; the time does not
    ///   advance.
    /// * Validation errors if the topology changed since `initialize`.
    pub fn step(&mut self, h: f64) -> Result<(), FlowError> {
        if !self.initialized {
            self.initialize(self.time)?;
        }
        let plan = self.plan.as_ref().expect("an initialized network has a plan");
        let t = self.time;
        let (nodes, pending) = (&mut self.nodes, &mut self.pending_signals);
        plan.replay(1, &self.ext, &mut self.ins, &mut self.outs, |_, pn, ins, outs| {
            let b = &mut nodes[pn.node.0].behavior;
            b.advance(
                t,
                h,
                &ins[pn.in_offset..pn.in_offset + pn.in_width],
                &mut outs[pn.out_offset..pn.out_offset + pn.out_width],
            )?;
            for (sport, msg) in b.take_emitted() {
                pending.push((pn.node, sport, msg));
            }
            Ok::<(), FlowError>(())
        })?;
        self.time += h;
        Ok(())
    }

    /// Reads the current lanes of an output DPort.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownNode`] / [`FlowError::UnknownPort`].
    pub fn output(&self, node: NodeId, port: &str) -> Result<&[f64], FlowError> {
        let pi = self.find_port(node, port, Direction::Out)?;
        let n = &self.nodes[node.0];
        let off: usize =
            self.nodes[..node.0].iter().map(Node::out_width).sum::<usize>() + n.out_port_offset(pi);
        let w = n.out_ports[pi].width();
        Ok(&self.outs[off..off + w])
    }

    /// Consumes the network into its dense-layout execution schedule (see
    /// [`StepPlan`]) and its streamer behaviours, one per plan row, in
    /// execution order. The nodes' names and ports move into the
    /// plan, so nothing is cloned.
    ///
    /// # Errors
    ///
    /// The same structural errors as [`StreamerNetwork::validate`]:
    /// undriven inputs and direct-feedthrough cycles.
    pub fn into_plan(self) -> Result<(StepPlan, Vec<Box<dyn StreamerBehavior>>), FlowError> {
        let order = self.checked_order()?;
        let mut plan = self.layout(&order);
        let mut behaviours = Vec::with_capacity(self.nodes.len());
        for node in self.nodes {
            plan.shapes.push(NodeShape {
                feedthrough: node.behavior.direct_feedthrough(),
                name: node.name,
                in_ports: node.in_ports,
                out_ports: node.out_ports,
            });
            behaviours.push(Some(node.behavior));
        }
        let rows = order.iter().filter_map(|&i| behaviours[i].take()).collect();
        Ok((plan, rows))
    }

    /// Appends the signals behaviours emitted since the last drain to
    /// `out` as `(node, sport, message)` triples, in plan order, reusing
    /// both the caller's buffer and the internal queue's capacity.
    pub fn drain_signals_into(&mut self, out: &mut Vec<(NodeId, String, Message)>) {
        out.append(&mut self.pending_signals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowtype::Unit;
    use crate::streamer::FnStreamer;

    fn source(name: &str) -> impl StreamerBehavior {
        FnStreamer::new(name, 0, 1, |t: f64, _h, _u: &[f64], y: &mut [f64]| y[0] = t)
    }

    fn gain(name: &str, k: f64) -> impl StreamerBehavior {
        FnStreamer::new(name, 1, 1, move |_t, _h, u: &[f64], y: &mut [f64]| y[0] = k * u[0])
    }

    /// One scalar DPort `(name, type)`.
    type Port = (&'static str, FlowType);

    fn scalar_io() -> ([Port; 1], [Port; 1]) {
        ([("i", FlowType::scalar())], [("o", FlowType::scalar())])
    }

    #[test]
    fn build_and_step_chain() {
        let mut net = StreamerNetwork::new("chain");
        let s = net.add_streamer(source("src"), &[], &[("o", FlowType::scalar())]).unwrap();
        let (i, o) = scalar_io();
        let g = net.add_streamer(gain("g", 3.0), &i, &o).unwrap();
        net.flow((s, "o"), (g, "i")).unwrap();
        net.validate().unwrap();
        net.initialize(0.0).unwrap();
        net.step(1.0).unwrap();
        net.step(1.0).unwrap();
        // Second step: src emitted t=1.0 (start-of-step time), gain saw it.
        assert_eq!(net.output(g, "o").unwrap()[0], 3.0);
        assert_eq!(net.time(), 2.0);
        assert_eq!(net.node_count(), 2);
        assert_eq!(net.flow_count(), 1);
    }

    #[test]
    fn subset_rule_enforced_on_flow() {
        let mut net = StreamerNetwork::new("t");
        let a = net
            .add_streamer(
                FnStreamer::new("a", 0, 1, |_t, _h, _u: &[f64], y: &mut [f64]| y[0] = 1.0),
                &[],
                &[("o", FlowType::with_unit(Unit::Meter))],
            )
            .unwrap();
        let b = net
            .add_streamer(
                gain("b", 1.0),
                &[("i", FlowType::with_unit(Unit::Kelvin))],
                &[("o", FlowType::scalar())],
            )
            .unwrap();
        let err = net.flow((a, "o"), (b, "i")).unwrap_err();
        assert!(matches!(err, FlowError::TypeMismatch { .. }));
        // Any on the input side accepts.
        let c = net
            .add_streamer(
                gain("c", 1.0),
                &[("i", FlowType::with_unit(Unit::Any))],
                &[("o", FlowType::scalar())],
            )
            .unwrap();
        assert!(net.flow((a, "o"), (c, "i")).is_ok());
    }

    #[test]
    fn single_writer_enforced() {
        let mut net = StreamerNetwork::new("t");
        let a = net.add_streamer(source("a"), &[], &[("o", FlowType::scalar())]).unwrap();
        let b = net.add_streamer(source("b"), &[], &[("o", FlowType::scalar())]).unwrap();
        let (i, o) = scalar_io();
        let g = net.add_streamer(gain("g", 1.0), &i, &o).unwrap();
        net.flow((a, "o"), (g, "i")).unwrap();
        let err = net.flow((b, "o"), (g, "i")).unwrap_err();
        assert!(matches!(err, FlowError::MultipleWriters { .. }));
    }

    #[test]
    fn unconnected_input_rejected() {
        let mut net = StreamerNetwork::new("t");
        net.add_streamer(
            FnStreamer::new("g2", 2, 1, |_t, _h, _u: &[f64], y: &mut [f64]| y[0] = 0.0),
            &[("i1", FlowType::scalar()), ("i2", FlowType::scalar())],
            &[("o", FlowType::scalar())],
        )
        .unwrap();
        // validate fails on the first undriven input.
        assert!(
            matches!(net.validate(), Err(FlowError::UnconnectedInput { port, .. }) if port == "i1")
        );
    }

    #[test]
    fn export_rules_are_enforced() {
        let mut net = StreamerNetwork::new("n");
        let (i, o) = scalar_io();
        let g = net.add_streamer(gain("g", 1.0), &i, &o).unwrap();
        assert_eq!(net.export_input(g, "i").unwrap(), 0);
        // Double export = double driver.
        assert!(matches!(net.export_input(g, "i"), Err(FlowError::MultipleWriters { .. })));
        assert!(net.export_input(g, "ghost").is_err());
        // An exported input counts as driven.
        net.validate().unwrap();
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut net = StreamerNetwork::new("t");
        let err = net
            .add_streamer(
                gain("g", 1.0),
                &[("i", FlowType::vector(2))],
                &[("o", FlowType::scalar())],
            )
            .unwrap_err();
        assert!(matches!(err, FlowError::WidthMismatch { expected: 2, found: 1, .. }));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut net = StreamerNetwork::new("t");
        net.add_streamer(source("x"), &[], &[("o", FlowType::scalar())]).unwrap();
        let err = net.add_streamer(source("x"), &[], &[("o", FlowType::scalar())]).unwrap_err();
        assert!(matches!(err, FlowError::DuplicateName { .. }));
    }

    #[test]
    fn fan_out_duplicates_a_flow() {
        // The paper's relay: one flow duplicated into two similar flows.
        let mut net = StreamerNetwork::new("t");
        let s = net.add_streamer(source("s"), &[], &[("o", FlowType::scalar())]).unwrap();
        let (i, o) = scalar_io();
        let g1 = net.add_streamer(gain("g1", 2.0), &i, &o).unwrap();
        let g2 = net.add_streamer(gain("g2", 5.0), &i, &o).unwrap();
        net.flow((s, "o"), (g1, "i")).unwrap();
        net.flow((s, "o"), (g2, "i")).unwrap();
        net.initialize(0.0).unwrap();
        net.step(1.0).unwrap();
        net.step(1.0).unwrap();
        assert_eq!(net.output(g1, "o").unwrap()[0], 2.0);
        assert_eq!(net.output(g2, "o").unwrap()[0], 5.0);
    }

    #[test]
    fn algebraic_loop_detected() {
        let mut net = StreamerNetwork::new("t");
        let (i, o) = scalar_io();
        let a = net.add_streamer(gain("a", 1.0), &i, &o).unwrap();
        let b = net.add_streamer(gain("b", 1.0), &i, &o).unwrap();
        net.flow((a, "o"), (b, "i")).unwrap();
        net.flow((b, "o"), (a, "i")).unwrap();
        let err = net.validate().unwrap_err();
        match err {
            FlowError::AlgebraicLoop { nodes } => {
                assert_eq!(nodes.len(), 2);
            }
            other => panic!("expected algebraic loop, got {other}"),
        }
    }

    #[test]
    fn non_feedthrough_breaks_loop() {
        // a -> lag -> a is fine because the lag is not direct feedthrough.
        struct Lag {
            state: f64,
        }
        impl StreamerBehavior for Lag {
            fn name(&self) -> &str {
                "lag"
            }
            fn input_width(&self) -> usize {
                1
            }
            fn output_width(&self) -> usize {
                1
            }
            fn direct_feedthrough(&self) -> bool {
                false
            }
            fn advance(
                &mut self,
                _t: f64,
                h: f64,
                u: &[f64],
                y: &mut [f64],
            ) -> Result<(), urt_ode::SolveError> {
                y[0] = self.state;
                self.state += h * (u[0] - self.state);
                Ok(())
            }
        }
        let mut net = StreamerNetwork::new("t");
        let (i, o) = scalar_io();
        let a = net.add_streamer(gain("a", 0.5), &i, &o).unwrap();
        let l = net.add_streamer(Lag { state: 1.0 }, &i, &o).unwrap();
        net.flow((a, "o"), (l, "i")).unwrap();
        net.flow((l, "o"), (a, "i")).unwrap();
        net.validate().unwrap();
        net.initialize(0.0).unwrap();
        for _ in 0..10 {
            net.step(0.1).unwrap();
        }
        assert!(net.output(l, "o").unwrap()[0].is_finite());
    }

    #[test]
    fn drain_signals_into_reuses_buffers() {
        // A behaviour that emits one signal per step.
        struct Beeper {
            n: u64,
            emitted: Vec<(String, Message)>,
        }
        impl StreamerBehavior for Beeper {
            fn name(&self) -> &str {
                "beeper"
            }
            fn input_width(&self) -> usize {
                0
            }
            fn output_width(&self) -> usize {
                0
            }
            fn advance(
                &mut self,
                t: f64,
                _h: f64,
                _u: &[f64],
                _y: &mut [f64],
            ) -> Result<(), urt_ode::SolveError> {
                self.n += 1;
                self.emitted.push((
                    "ctl".to_owned(),
                    Message::new("beep", urt_umlrt::value::Value::Real(self.n as f64))
                        .with_sent_at(t),
                ));
                Ok(())
            }
            fn take_emitted(&mut self) -> Vec<(String, Message)> {
                std::mem::take(&mut self.emitted)
            }
        }
        let mut net = StreamerNetwork::new("t");
        let b = net.add_streamer(Beeper { n: 0, emitted: Vec::new() }, &[], &[]).unwrap();
        net.initialize(0.0).unwrap();
        let mut buf = Vec::new();
        for step in 1..=3u64 {
            net.step(0.1).unwrap();
            buf.clear();
            net.drain_signals_into(&mut buf);
            assert_eq!(buf.len(), 1);
            let (node, sport, msg) = &buf[0];
            assert_eq!(*node, b);
            assert_eq!(sport, "ctl");
            assert_eq!(msg.value().as_real(), Some(step as f64));
        }
        // Nothing pending after a drain.
        net.drain_signals_into(&mut buf);
        assert_eq!(buf.len(), 1, "appends, does not clear the caller's buffer");
    }

    #[test]
    fn unknown_ids_error() {
        let net = StreamerNetwork::new("t");
        let bogus = NodeId(5);
        assert!(matches!(net.node_name(bogus), Err(FlowError::UnknownNode { .. })));
        assert!(net.output(bogus, "o").is_err());
    }

    /// A fan-out source feeding two gains whose outputs meet again in a
    /// two-input node declared *before* them (so execution order differs
    /// from node order), plus a gain on an exported input: gathers,
    /// fan-out, multi-input rows and ext loads in one topology. Returns
    /// the network and `[sum, g1, g2, ext]`.
    fn plan_fixture() -> (StreamerNetwork, [NodeId; 4]) {
        let scalar = FlowType::scalar;
        let mut net = StreamerNetwork::new("plan");
        let sum = net
            .add_streamer(
                FnStreamer::new("sum", 2, 1, |_t, _h, u: &[f64], y: &mut [f64]| {
                    y[0] = u[0] - 0.5 * u[1]
                }),
                &[("a", scalar()), ("b", scalar())],
                &[("o", scalar())],
            )
            .unwrap();
        let s = net
            .add_streamer(
                FnStreamer::new("s", 0, 1, |t: f64, _h, _u: &[f64], y: &mut [f64]| {
                    y[0] = (3.0 * t).sin() + 0.1
                }),
                &[],
                &[("o", scalar())],
            )
            .unwrap();
        let (i, o) = scalar_io();
        let g1 = net.add_streamer(gain("g1", 2.0), &i, &o).unwrap();
        let g2 = net.add_streamer(gain("g2", -3.0), &i, &o).unwrap();
        let ext = net.add_streamer(gain("ext", 10.0), &i, &o).unwrap();
        net.flow((s, "o"), (g1, "i")).unwrap();
        net.flow((s, "o"), (g2, "i")).unwrap();
        net.flow((g2, "o"), (sum, "b")).unwrap();
        net.flow((g1, "o"), (sum, "a")).unwrap();
        net.export_input(ext, "i").unwrap();
        (net, [sum, g1, g2, ext])
    }

    /// FNV-1a 64 over the little-endian bytes of `words`.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn step_replays_the_pinned_series() {
        // Pinned from the network's own step loop before it became a
        // replay of the plan: per step, the time and every output's bits.
        const PINNED: u64 = 0x47e2_f357_f9b1_8b8a;
        let (mut net, nodes) = plan_fixture();
        net.initialize(0.0).unwrap();
        let mut words = Vec::new();
        for _ in 0..10 {
            net.step(0.1).unwrap();
            words.push(net.time().to_bits());
            for n in nodes {
                words.push(net.output(n, "o").unwrap()[0].to_bits());
            }
        }
        assert_eq!(fnv1a(words), PINNED);
        assert_eq!(net.output(nodes[0], "o").unwrap()[0], 1.845_829_580_818_405_8);
    }

    #[test]
    fn replay_latches_each_instances_external_inputs() {
        let (net, [sum, g1, _, ext]) = plan_fixture();
        let (plan, mut rows) = net.into_plan().unwrap();
        for b in &mut rows {
            b.initialize(0.0).unwrap();
        }
        // Two instances, instance-major, each with its own external input;
        // both step the same behaviours, so each row runs twice.
        let k = 2;
        let ext_u = [0.5, -4.0];
        let mut ins = vec![0.0; k * plan.in_width()];
        let mut outs = vec![0.0; k * plan.out_width()];
        let mut seen = Vec::new();
        plan.replay(k, &ext_u, &mut ins, &mut outs, |r, pn, ins, outs| {
            seen.push(pn.node);
            for i in 0..k {
                let ui = i * plan.in_width() + pn.in_offset;
                let yi = i * plan.out_width() + pn.out_offset;
                rows[r].advance(
                    0.0,
                    0.1,
                    &ins[ui..ui + pn.in_width],
                    &mut outs[yi..yi + pn.out_width],
                )?;
            }
            Ok::<(), urt_ode::SolveError>(())
        })
        .unwrap();
        let ext_out = plan.output_port(ext, "o").unwrap().0;
        assert_eq!([outs[ext_out], outs[plan.out_width() + ext_out]], [5.0, -40.0]);
        // Rows run in dependency order: both gains before the sum.
        let pos = |n: NodeId| seen.iter().position(|&m| m == n).unwrap();
        assert!(pos(g1) < pos(sum));
        assert_eq!(seen.len(), plan.nodes().len());
    }

    #[test]
    fn step_plan_rejects_invalid_topologies() {
        let mut net = StreamerNetwork::new("bad");
        let (i, o) = scalar_io();
        net.add_streamer(gain("g", 1.0), &i, &o).unwrap();
        assert!(matches!(net.into_plan(), Err(FlowError::UnconnectedInput { .. })));
    }

    #[test]
    fn plan_layout_is_dense_and_stable() {
        let (net, [_, g1, _, ext]) = plan_fixture();
        let node_count = net.node_count();
        let (plan, rows) = net.into_plan().unwrap();
        assert_eq!(plan.nodes().len(), node_count);
        assert_eq!(rows.len(), node_count, "one behaviour per row");
        assert_eq!(plan.ext_in_width(), 1);
        assert_eq!(plan.ext_loads().len(), 1);
        // Spans tile the dense arrays without overlap: total width equals
        // the sum of node widths.
        let in_sum: usize = plan.nodes().iter().map(|n| n.in_width).sum();
        let out_sum: usize = plan.nodes().iter().map(|n| n.out_width).sum();
        assert_eq!(plan.in_width(), in_sum);
        assert_eq!(plan.out_width(), out_sum);
        // Ports resolve against the plan once the network is gone.
        let (dense, spec) = plan.output_port(g1, "o").unwrap();
        assert_eq!((dense, spec.width()), (plan.out_offset(g1.index()).unwrap(), 1));
        let (dense_in, _) = plan.input_port(ext, "i").unwrap();
        assert_eq!(plan.exported_offset(dense_in), Some(0));
        assert!(plan.output_port(g1, "ghost").is_err());
        assert!(plan.node_name(NodeId(99)).is_err());
        // Planning an identical network yields the identical plan.
        assert_eq!(plan_fixture().0.into_plan().unwrap().0, plan);
    }
}
