//! Streamer networks: the one lowering of the paper's Figure 2 abstract
//! syntax (declared streamer shapes, typed flows, exported inputs) into
//! the [`StepPlan`] every macro step walks, with the wiring rules checked
//! on the way, and [`StreamerNetwork`], the plan's `K = 1` runtime.
//! [`topo_order`] is the workspace's one cycle finder: the lowering orders
//! its rows with it, and the analyzer's loop and deadlock lints use it.

use crate::error::FlowError;
use crate::flowtype::FlowType;
use crate::port::DPortSpec;
use crate::streamer::StreamerBehavior;
use std::collections::VecDeque;
use std::fmt;
use urt_umlrt::message::Message;

/// Identifier of a streamer node within a plan: its position in the
/// declared node list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs an id from a raw index (e.g. a position in the node
    /// list handed to [`StepPlan::lower`]). Validity is only checked when
    /// the id is used against a plan.
    pub fn from_index(index: usize) -> Self {
        NodeId(index)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A DPort of a plan node, `(node, port name)`: one end of a flow, or an
/// exported input.
pub type PortRef<'a> = (NodeId, &'a str);

/// Orders nodes `0..n` so every edge `(from, to)` runs forward: Kahn's
/// algorithm, its queue seeded in index order and each node's successors
/// taken in edge order, so equal inputs give one order.
///
/// # Errors
///
/// If the edges close a cycle, returns the nodes that lie on one, in
/// ascending order: a node only downstream of a cycle, or only on a path
/// between two cycles, is not named.
pub fn topo_order(n: usize, edges: &[(usize, usize)]) -> Result<Vec<usize>, Vec<usize>> {
    let mut indeg = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(from, to) in edges {
        adj[from].push(to);
        indeg[to] += 1;
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
    if order.len() == n {
        return Ok(order);
    }
    // Kahn's leftovers are the cycles plus everything downstream of one;
    // of those, keep the nodes that reach themselves.
    let reaches_itself = |start: usize| {
        let mut seen = vec![false; n];
        let mut stack = adj[start].clone();
        while let Some(u) = stack.pop() {
            if u == start {
                return true;
            }
            if !std::mem::replace(&mut seen[u], true) {
                stack.extend(&adj[u]);
            }
        }
        false
    };
    Err((0..n).filter(|&i| indeg[i] > 0 && reaches_itself(i)).collect())
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

impl PlanCopy {
    /// The copies that carry a value of the output flow type `out` into
    /// the input flow type `input`, lanes counted from each port's first
    /// lane: one per record field, matched by name and recursing into
    /// nested records, at the field's lane offset in the input (so a
    /// reordered record lands field by field), or one for a scalar or a
    /// vector. Adjacent copies merge, so a flow between identical types
    /// is one copy. `out` must be a subset of `input`
    /// ([`FlowType::subset_failure`]); input lanes no output field maps
    /// onto get no copy.
    pub fn for_flow(out: &FlowType, input: &FlowType) -> Vec<PlanCopy> {
        let mut copies = Vec::new();
        lay_out(out, 0, input, 0, &mut copies);
        copies
    }

    /// Runs the copy for each of `k` instances: instance `i`'s lanes go
    /// from `src[i * src_stride + self.src..]` to
    /// `dst[i * dst_stride + self.dst..]`. A one-lane copy is a strided
    /// scalar store, with no slice copy per instance.
    #[inline(always)]
    pub fn run(
        &self,
        k: usize,
        src: &[f64],
        src_stride: usize,
        dst: &mut [f64],
        dst_stride: usize,
    ) {
        if self.len == 1 {
            for i in 0..k {
                dst[i * dst_stride + self.dst] = src[i * src_stride + self.src];
            }
        } else {
            for i in 0..k {
                let (s, d) = (i * src_stride + self.src, i * dst_stride + self.dst);
                dst[d..d + self.len].copy_from_slice(&src[s..s + self.len]);
            }
        }
    }
}

/// Appends to `copies` the copies carrying `out`, at lane `src`, into
/// `input`, at lane `dst` (see [`PlanCopy::for_flow`]).
fn lay_out(out: &FlowType, src: usize, input: &FlowType, dst: usize, copies: &mut Vec<PlanCopy>) {
    if let (FlowType::Record(fields), FlowType::Record(in_fields)) = (out, input) {
        let mut src = src;
        for (name, ty) in fields {
            let mut at = dst;
            for (in_name, in_ty) in in_fields {
                if in_name == name {
                    lay_out(ty, src, in_ty, at, copies);
                    break;
                }
                at += in_ty.width();
            }
            src += ty.width();
        }
        return;
    }
    let len = out.width();
    match copies.last_mut() {
        Some(last) if last.src + last.len == src && last.dst + last.len == dst => last.len += len,
        _ => copies.push(PlanCopy { src, dst, len }),
    }
}

/// One streamer row of a [`StepPlan`], in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    /// The node this row executes.
    pub node: NodeId,
    /// Offset of the node's input lanes in the dense input array.
    pub in_offset: usize,
    /// Input lane count.
    pub in_width: usize,
    /// Offset of the node's output lanes in the dense output array.
    pub out_offset: usize,
    /// Output lane count.
    pub out_width: usize,
    /// Flow copies feeding this node, in flow declaration order, a
    /// record flow's fields in output field order
    /// ([`PlanCopy::for_flow`]): `src` indexes the dense *output* array,
    /// `dst` the dense *input* array. [`StepPlan::replay`] runs them
    /// right before the row.
    pub gathers: Vec<PlanCopy>,
}

/// The declared shape of one streamer node: the input of
/// [`StepPlan::lower`], kept in the plan so ports resolve against it.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeShape {
    /// Streamer name, unique within one plan.
    pub name: String,
    /// Input DPorts, in lane order.
    pub in_ports: Vec<DPortSpec>,
    /// Output DPorts, in lane order.
    pub out_ports: Vec<DPortSpec>,
    /// Declared direct feedthrough: only flows into a feedthrough node
    /// order the rows.
    pub feedthrough: bool,
}

impl NodeShape {
    /// Total input lanes.
    pub fn in_width(&self) -> usize {
        self.in_ports.iter().map(DPortSpec::width).sum()
    }

    /// Total output lanes.
    pub fn out_width(&self) -> usize {
        self.out_ports.iter().map(DPortSpec::width).sum()
    }
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
/// The plan also keeps each node's [`NodeShape`], so ports resolve
/// against it. Produced by [`StepPlan::lower`].
#[derive(Debug, Clone, PartialEq)]
pub struct StepPlan {
    nodes: Vec<PlanNode>,
    ext_loads: Vec<PlanCopy>,
    in_width: usize,
    out_width: usize,
    ext_in_width: usize,
    out_offsets: Vec<usize>,
    shapes: Vec<NodeShape>,
}

/// Index, lane offset and spec of the port called `port` among `ports`.
fn locate<'a>(
    ports: &'a [DPortSpec],
    node: &str,
    port: &str,
) -> Result<(usize, usize, &'a DPortSpec), FlowError> {
    let mut offset = 0;
    for (i, p) in ports.iter().enumerate() {
        if p.name() == port {
            return Ok((i, offset, p));
        }
        offset += p.width();
    }
    Err(FlowError::UnknownPort { node: node.to_owned(), port: port.to_owned() })
}

/// Marks input `port` of `node` driven, refusing a second writer.
fn claim(
    driven: &mut [Vec<bool>],
    node: NodeId,
    port: usize,
    shape: &NodeShape,
) -> Result<(), FlowError> {
    if std::mem::replace(&mut driven[node.0][port], true) {
        return Err(FlowError::MultipleWriters {
            node: shape.name.clone(),
            port: shape.in_ports[port].name().to_owned(),
        });
    }
    Ok(())
}

impl StepPlan {
    /// Lowers declared node shapes, same-group flows
    /// `((from, output port), (to, input port))` and exported inputs
    /// `(node, input port)` into a plan. This is where the paper's
    /// connection rules are enforced, checked in this order:
    ///
    /// 1. node names are unique ([`FlowError::DuplicateName`]);
    /// 2. each flow, in order, runs from a known output DPort to a known
    ///    input DPort ([`FlowError::UnknownNode`],
    ///    [`FlowError::UnknownPort`]), its output flow type is a *subset*
    ///    of its input flow type ([`FlowError::TypeMismatch`]), and its
    ///    input has no other writer ([`FlowError::MultipleWriters`]);
    /// 3. each export, in order, names a known input DPort with no other
    ///    writer;
    /// 4. every input DPort is driven, by a flow or an export
    ///    ([`FlowError::UnconnectedInput`], the first in node and port
    ///    order);
    /// 5. direct-feedthrough cycles are refused as algebraic loops
    ///    ([`FlowError::AlgebraicLoop`], naming the nodes on a cycle,
    ///    [`topo_order`]).
    ///
    /// A relay — one flow duplicated into several similar flows — is
    /// plain fan-out: one output DPort may feed any number of inputs.
    ///
    /// Node lanes sit at prefix-sum offsets in node order; rows follow a
    /// feedthrough-aware topological order ([`topo_order`] over the flows
    /// into feedthrough nodes, in flow order; integrator-like nodes may
    /// consume last-step values), each row's gathers follow flow order (a
    /// record flow lands field by field, [`PlanCopy::for_flow`]), and the
    /// exports take consecutive spans of the external input vector.
    /// Returns the plan and, per export, its lane offset in that vector.
    ///
    /// # Errors
    ///
    /// The first broken rule, as listed above.
    pub fn lower(
        shapes: Vec<NodeShape>,
        flows: &[(PortRef<'_>, PortRef<'_>)],
        exports: &[PortRef<'_>],
    ) -> Result<(StepPlan, Vec<usize>), FlowError> {
        for (i, s) in shapes.iter().enumerate() {
            if shapes[..i].iter().any(|p| p.name == s.name) {
                return Err(FlowError::DuplicateName { name: s.name.clone() });
            }
        }
        let shape =
            |node: NodeId| shapes.get(node.0).ok_or(FlowError::UnknownNode { index: node.0 });
        let n = shapes.len();
        let (mut in_offsets, mut out_offsets) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let (mut in_width, mut out_width) = (0, 0);
        for s in &shapes {
            in_offsets.push(in_width);
            out_offsets.push(out_width);
            in_width += s.in_width();
            out_width += s.out_width();
        }
        let mut driven: Vec<Vec<bool>> =
            shapes.iter().map(|s| vec![false; s.in_ports.len()]).collect();

        // Per consumer: its gather copies, in flow order; per flow into a
        // feedthrough consumer: an ordering edge.
        let mut gathers: Vec<Vec<PlanCopy>> = vec![Vec::new(); n];
        let mut edges = Vec::new();
        for &((from, from_port), (to, to_port)) in flows {
            let from_shape = shape(from)?;
            let (_, src_lane, src) = locate(&from_shape.out_ports, &from_shape.name, from_port)?;
            let to_shape = shape(to)?;
            let (pi, dst_lane, dst) = locate(&to_shape.in_ports, &to_shape.name, to_port)?;
            if let Some(detail) = src.flow_type().subset_failure(dst.flow_type()) {
                return Err(FlowError::TypeMismatch {
                    from: format!("{}.{from_port}", from_shape.name),
                    to: format!("{}.{to_port}", to_shape.name),
                    detail,
                });
            }
            claim(&mut driven, to, pi, to_shape)?;
            let (src_at, dst_at) = (out_offsets[from.0] + src_lane, in_offsets[to.0] + dst_lane);
            gathers[to.0].extend(
                PlanCopy::for_flow(src.flow_type(), dst.flow_type())
                    .into_iter()
                    .map(|c| PlanCopy { src: src_at + c.src, dst: dst_at + c.dst, len: c.len }),
            );
            if to_shape.feedthrough {
                edges.push((from.0, to.0));
            }
        }

        let mut ext_loads = Vec::with_capacity(exports.len());
        let mut ext_in_width = 0;
        for &(node, port) in exports {
            let node_shape = shape(node)?;
            let (pi, lane, spec) = locate(&node_shape.in_ports, &node_shape.name, port)?;
            claim(&mut driven, node, pi, node_shape)?;
            ext_loads.push(PlanCopy {
                src: ext_in_width,
                dst: in_offsets[node.0] + lane,
                len: spec.width(),
            });
            ext_in_width += spec.width();
        }

        for (s, ports) in shapes.iter().zip(&driven) {
            if let Some(pi) = ports.iter().position(|&d| !d) {
                return Err(FlowError::UnconnectedInput {
                    node: s.name.clone(),
                    port: s.in_ports[pi].name().to_owned(),
                });
            }
        }

        let order = topo_order(n, &edges).map_err(|cycle| FlowError::AlgebraicLoop {
            nodes: cycle.into_iter().map(|i| shapes[i].name.clone()).collect(),
        })?;

        let nodes = order
            .into_iter()
            .map(|i| PlanNode {
                node: NodeId(i),
                in_offset: in_offsets[i],
                in_width: shapes[i].in_width(),
                out_offset: out_offsets[i],
                out_width: shapes[i].out_width(),
                gathers: std::mem::take(&mut gathers[i]),
            })
            .collect();
        let ext_offsets = ext_loads.iter().map(|c| c.src).collect();
        let plan =
            StepPlan { nodes, ext_loads, in_width, out_width, ext_in_width, out_offsets, shapes };
        Ok((plan, ext_offsets))
    }

    /// Streamer rows in execution order.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
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
            c.run(k, ext, extw, ins, inw);
        }
        for (r, pn) in self.nodes.iter().enumerate() {
            for c in &pn.gathers {
                c.run(k, outs, outw, ins, inw);
            }
            row(r, pn, ins, outs)?;
        }
        Ok(())
    }

    /// The declared shape of a node.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownNode`] for a bad id.
    pub fn shape(&self, node: NodeId) -> Result<&NodeShape, FlowError> {
        self.shapes.get(node.0).ok_or(FlowError::UnknownNode { index: node.0 })
    }

    /// Dense output-array offset and spec of an output DPort.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownNode`] / [`FlowError::UnknownPort`].
    pub fn output_port(&self, node: NodeId, port: &str) -> Result<(usize, &DPortSpec), FlowError> {
        let shape = self.shape(node)?;
        let (_, offset, spec) = locate(&shape.out_ports, &shape.name, port)?;
        Ok((self.out_offsets[node.0] + offset, spec))
    }
}

/// The `K = 1` runtime of a [`StepPlan`]: one behaviour per plan row,
/// stepped in place over dense arrays in the plan's layout — each
/// [`StreamerNetwork::step`] is one [`StepPlan::replay`] at `K = 1`.
/// Exported inputs read zero lanes: their channels live in the engine.
pub struct StreamerNetwork {
    plan: StepPlan,
    rows: Vec<Box<dyn StreamerBehavior>>,
    ins: Vec<f64>,
    outs: Vec<f64>,
    ext: Vec<f64>,
    time: f64,
    pending_signals: Vec<(NodeId, String, Message)>,
}

impl fmt::Debug for StreamerNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamerNetwork")
            .field("rows", &self.rows.len())
            .field("time", &self.time)
            .finish_non_exhaustive()
    }
}

impl StreamerNetwork {
    /// Runs `plan` over `rows`, its behaviours in plan-row order.
    ///
    /// # Panics
    ///
    /// If `rows` does not hold one behaviour per plan row.
    pub fn from_plan(plan: StepPlan, rows: Vec<Box<dyn StreamerBehavior>>) -> Self {
        assert_eq!(rows.len(), plan.nodes.len(), "one behaviour per plan row");
        StreamerNetwork {
            ins: vec![0.0; plan.in_width],
            outs: vec![0.0; plan.out_width],
            ext: vec![0.0; plan.ext_in_width],
            plan,
            rows,
            time: 0.0,
            pending_signals: Vec::new(),
        }
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Initialises every behaviour at `t0`.
    ///
    /// # Errors
    ///
    /// Propagates solver-initialisation failures.
    pub fn initialize(&mut self, t0: f64) -> Result<(), FlowError> {
        self.time = t0;
        for b in &mut self.rows {
            b.initialize(t0)?;
        }
        Ok(())
    }

    /// Advances every streamer by `h` seconds — one [`StepPlan::replay`]
    /// at `K = 1` over the network's dense arrays — and collects emitted
    /// SPort signals.
    ///
    /// # Errors
    ///
    /// [`FlowError::Solve`] on solver failure; the time does not advance.
    pub fn step(&mut self, h: f64) -> Result<(), FlowError> {
        let t = self.time;
        let (rows, pending) = (&mut self.rows, &mut self.pending_signals);
        self.plan.replay(1, &self.ext, &mut self.ins, &mut self.outs, |r, pn, ins, outs| {
            let b = &mut rows[r];
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
        let (offset, spec) = self.plan.output_port(node, port)?;
        Ok(&self.outs[offset..offset + spec.width()])
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
    use crate::flowtype::{FlowType, Unit};
    use crate::port::Direction;
    use crate::streamer::FnStreamer;

    fn source(name: &str) -> Box<dyn StreamerBehavior> {
        Box::new(FnStreamer::new(name, 0, 1, |t: f64, _h, _u: &[f64], y: &mut [f64]| y[0] = t))
    }

    fn gain(name: &str, k: f64) -> Box<dyn StreamerBehavior> {
        Box::new(FnStreamer::new(name, 1, 1, move |_t, _h, u: &[f64], y: &mut [f64]| {
            y[0] = k * u[0]
        }))
    }

    /// A node shape with the given DPorts.
    fn shape(
        name: &str,
        ins: &[(&str, FlowType)],
        outs: &[(&str, FlowType)],
        feedthrough: bool,
    ) -> NodeShape {
        let ports = |ps: &[(&str, FlowType)], d| {
            ps.iter().map(|(n, t)| DPortSpec::new(*n, d, t.clone())).collect()
        };
        NodeShape {
            name: name.to_owned(),
            in_ports: ports(ins, Direction::In),
            out_ports: ports(outs, Direction::Out),
            feedthrough,
        }
    }

    /// A feedthrough node with one scalar input `i` and output `o`.
    fn scalar_node(name: &str) -> NodeShape {
        shape(name, &[("i", FlowType::scalar())], &[("o", FlowType::scalar())], true)
    }

    /// A node with one scalar output `o` and no inputs.
    fn source_node(name: &str) -> NodeShape {
        shape(name, &[], &[("o", FlowType::scalar())], true)
    }

    /// `n` as a node id.
    fn id(n: usize) -> NodeId {
        NodeId::from_index(n)
    }

    /// Lowers `shapes` and runs the plan over `behaviours`, given in node
    /// order and moved into plan-row order.
    fn network(
        shapes: Vec<NodeShape>,
        behaviours: Vec<Box<dyn StreamerBehavior>>,
        flows: &[(PortRef<'_>, PortRef<'_>)],
        exports: &[PortRef<'_>],
    ) -> StreamerNetwork {
        let (plan, _) = StepPlan::lower(shapes, flows, exports).unwrap();
        let mut by_node: Vec<_> = behaviours.into_iter().map(Some).collect();
        let rows = plan.nodes().iter().map(|pn| by_node[pn.node.index()].take().unwrap()).collect();
        StreamerNetwork::from_plan(plan, rows)
    }

    #[test]
    fn build_and_step_chain() {
        let mut net = network(
            vec![source_node("src"), scalar_node("g")],
            vec![source("src"), gain("g", 3.0)],
            &[((id(0), "o"), (id(1), "i"))],
            &[],
        );
        net.initialize(0.0).unwrap();
        net.step(1.0).unwrap();
        net.step(1.0).unwrap();
        // Second step: src emitted t=1.0 (start-of-step time), gain saw it.
        assert_eq!(net.output(id(1), "o").unwrap()[0], 3.0);
        assert_eq!(net.time(), 2.0);
    }

    #[test]
    fn subset_rule_enforced_on_flow() {
        let shapes = || {
            vec![
                shape("a", &[], &[("o", FlowType::with_unit(Unit::Meter))], true),
                shape("b", &[("i", FlowType::with_unit(Unit::Kelvin))], &[], true),
                shape("c", &[("i", FlowType::with_unit(Unit::Any))], &[], true),
            ]
        };
        let into_c = ((id(0), "o"), (id(2), "i"));
        let err =
            StepPlan::lower(shapes(), &[into_c, ((id(0), "o"), (id(1), "i"))], &[]).unwrap_err();
        assert!(
            matches!(&err, FlowError::TypeMismatch { from, to, .. } if from == "a.o" && to == "b.i")
        );
        // Any on the input side accepts.
        assert!(StepPlan::lower(shapes(), &[into_c], &[(id(1), "i")]).is_ok());
    }

    #[test]
    fn record_flows_land_field_by_field() {
        let scalar = FlowType::scalar;
        let ab = FlowType::record([("a", scalar()), ("b", FlowType::vector(2))]);
        let ba = FlowType::record([("b", FlowType::vector(2)), ("a", scalar())]);
        let copy = |src, dst, len| PlanCopy { src, dst, len };
        // Reordered fields: `a` lands after `b`, not in `b[0]`.
        assert_eq!(PlanCopy::for_flow(&ab, &ba), [copy(0, 2, 1), copy(1, 0, 2)]);
        // Identical layouts (and scalars, vectors) are one copy.
        assert_eq!(PlanCopy::for_flow(&ab, &ab), [copy(0, 0, 3)]);
        assert_eq!(PlanCopy::for_flow(&FlowType::vector(4), &FlowType::vector(4)), [copy(0, 0, 4)]);
        // An input field the output lacks gets no copy; nested records
        // land field by field too.
        let wide = FlowType::record([("c", scalar()), ("a", scalar()), ("b", FlowType::vector(2))]);
        assert_eq!(PlanCopy::for_flow(&ab, &wide), [copy(0, 1, 3)]);
        let nest = |inner| FlowType::record([("x", scalar()), ("r", inner)]);
        let nested_in = FlowType::record([("r", ba.clone()), ("x", scalar())]);
        assert_eq!(
            PlanCopy::for_flow(&nest(ab.clone()), &nested_in),
            [copy(0, 3, 1), copy(1, 2, 1), copy(2, 0, 2)]
        );

        // The lowering lays a reordered record flow out the same way, at
        // the ports' dense offsets.
        let shapes = vec![
            shape("pad", &[], &[("o", scalar())], true),
            shape("src", &[], &[("y", ab.clone())], true),
            shape("dst", &[("k", scalar()), ("u", ba)], &[], true),
        ];
        let flows = [((id(1), "y"), (id(2), "u")), ((id(0), "o"), (id(2), "k"))];
        let (plan, _) = StepPlan::lower(shapes, &flows, &[]).unwrap();
        let row = plan.nodes().iter().find(|pn| pn.node == id(2)).unwrap();
        assert_eq!(row.gathers, [copy(1, 3, 1), copy(2, 1, 2), copy(0, 0, 1)]);
    }

    #[test]
    fn single_writer_enforced() {
        let shapes = || vec![source_node("a"), source_node("b"), scalar_node("g")];
        let (a, b) = (((id(0), "o"), (id(2), "i")), ((id(1), "o"), (id(2), "i")));
        let err = StepPlan::lower(shapes(), &[a, b], &[]).unwrap_err();
        assert!(
            matches!(&err, FlowError::MultipleWriters { node, port } if node == "g" && port == "i")
        );
        // A flow and an export on one input are two writers too.
        let err = StepPlan::lower(shapes(), &[a], &[(id(2), "i")]).unwrap_err();
        assert!(matches!(err, FlowError::MultipleWriters { .. }));
    }

    #[test]
    fn unconnected_input_rejected() {
        let two_in = shape(
            "g2",
            &[("i1", FlowType::scalar()), ("i2", FlowType::scalar())],
            &[("o", FlowType::scalar())],
            true,
        );
        // The first undriven input, in node and port order.
        let err = StepPlan::lower(vec![two_in], &[], &[]).unwrap_err();
        assert!(matches!(err, FlowError::UnconnectedInput { port, .. } if port == "i1"));
    }

    #[test]
    fn export_rules_are_enforced() {
        let shapes = || vec![scalar_node("g"), scalar_node("h")];
        // An exported input counts as driven; exports take consecutive
        // spans of the external input vector.
        let (plan, ext) = StepPlan::lower(shapes(), &[], &[(id(0), "i"), (id(1), "i")]).unwrap();
        assert_eq!((ext, plan.ext_in_width()), (vec![0, 1], 2));
        // Double export = double driver.
        let err = StepPlan::lower(shapes(), &[], &[(id(0), "i"), (id(0), "i")]).unwrap_err();
        assert!(matches!(err, FlowError::MultipleWriters { .. }));
        let err = StepPlan::lower(shapes(), &[], &[(id(0), "ghost")]).unwrap_err();
        assert!(matches!(err, FlowError::UnknownPort { port, .. } if port == "ghost"));
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = StepPlan::lower(vec![source_node("x"), source_node("x")], &[], &[]).unwrap_err();
        assert!(matches!(err, FlowError::DuplicateName { name } if name == "x"));
    }

    #[test]
    fn flows_resolve_output_to_input_ports() {
        // A reversed flow names an input as its source: an unknown port.
        let shapes = || vec![scalar_node("a"), scalar_node("b")];
        let err = StepPlan::lower(shapes(), &[((id(0), "i"), (id(1), "i"))], &[]).unwrap_err();
        assert!(matches!(err, FlowError::UnknownPort { node, port } if node == "a" && port == "i"));
        let err = StepPlan::lower(shapes(), &[((id(0), "o"), (id(1), "o"))], &[]).unwrap_err();
        assert!(matches!(err, FlowError::UnknownPort { node, port } if node == "b" && port == "o"));
    }

    #[test]
    fn fan_out_duplicates_a_flow() {
        // The paper's relay: one flow duplicated into two similar flows.
        let mut net = network(
            vec![source_node("s"), scalar_node("g1"), scalar_node("g2")],
            vec![source("s"), gain("g1", 2.0), gain("g2", 5.0)],
            &[((id(0), "o"), (id(1), "i")), ((id(0), "o"), (id(2), "i"))],
            &[],
        );
        net.initialize(0.0).unwrap();
        net.step(1.0).unwrap();
        net.step(1.0).unwrap();
        assert_eq!(net.output(id(1), "o").unwrap()[0], 2.0);
        assert_eq!(net.output(id(2), "o").unwrap()[0], 5.0);
    }

    #[test]
    fn algebraic_loop_detected() {
        let flows = [((id(0), "o"), (id(1), "i")), ((id(1), "o"), (id(0), "i"))];
        let err =
            StepPlan::lower(vec![scalar_node("a"), scalar_node("b")], &flows, &[]).unwrap_err();
        match err {
            FlowError::AlgebraicLoop { nodes } => assert_eq!(nodes, ["a", "b"]),
            other => panic!("expected algebraic loop, got {other}"),
        }
    }

    #[test]
    fn topo_order_names_only_nodes_on_a_cycle() {
        // Kahn's order: the queue seeded in index order, successors in
        // edge order.
        assert_eq!(topo_order(4, &[(3, 1), (0, 2), (0, 1)]), Ok(vec![0, 3, 2, 1]));
        assert_eq!(topo_order(0, &[]), Ok(vec![]));
        // 0 <-> 1 with 1 -> 2 downstream: 2 is stuck behind the loop but
        // not on it.
        assert_eq!(topo_order(3, &[(0, 1), (1, 0), (1, 2)]), Err(vec![0, 1]));
        // 2 sits on the path from the 0 <-> 1 loop into the 3 <-> 4 loop,
        // and 5 hangs off a self-loop at 4.
        let between = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 3), (4, 4), (4, 5)];
        assert_eq!(topo_order(6, &between), Err(vec![0, 1, 3, 4]));
        assert_eq!(topo_order(2, &[(1, 1), (0, 1)]), Err(vec![1]));
    }

    #[test]
    fn a_loop_report_names_neither_downstream_nor_in_between_nodes() {
        let names =
            |shapes: Vec<NodeShape>, flows: &[(PortRef<'_>, PortRef<'_>)]| match StepPlan::lower(
                shapes,
                flows,
                &[],
            )
            .unwrap_err()
            {
                FlowError::AlgebraicLoop { nodes } => nodes,
                other => panic!("expected algebraic loop, got {other}"),
            };
        let flow = |a: usize, b: usize| ((id(a), "o"), (id(b), "i"));
        // a <-> b, b -> c: `c` only reads the loop.
        let shapes = vec![scalar_node("a"), scalar_node("b"), scalar_node("c")];
        let flows = [flow(0, 1), flow(1, 0), flow(1, 2)];
        assert_eq!(names(shapes, &flows), ["a", "b"]);
        // a <-> b, b -> c -> d, d <-> e: `c` sits between two loops.
        let two_in = |name: &str| {
            let ins = [("i", FlowType::scalar()), ("j", FlowType::scalar())];
            shape(name, &ins, &[("o", FlowType::scalar())], true)
        };
        let shapes = vec![
            scalar_node("a"),
            scalar_node("b"),
            scalar_node("c"),
            two_in("d"),
            scalar_node("e"),
        ];
        let flows = [
            flow(0, 1),
            flow(1, 0),
            flow(1, 2),
            flow(2, 3),
            ((id(4), "o"), (id(3), "j")),
            flow(3, 4),
        ];
        assert_eq!(names(shapes, &flows), ["a", "b", "d", "e"]);
    }

    #[test]
    fn a_feedthrough_self_flow_is_an_algebraic_loop() {
        let flows = [((id(0), "o"), (id(0), "i"))];
        match StepPlan::lower(vec![scalar_node("echo")], &flows, &[]).unwrap_err() {
            FlowError::AlgebraicLoop { nodes } => assert_eq!(nodes, ["echo"]),
            other => panic!("expected algebraic loop, got {other}"),
        }
        // Into a non-feedthrough node the same flow adds no ordering edge.
        let lag = NodeShape { feedthrough: false, ..scalar_node("lag") };
        let (plan, _) = StepPlan::lower(vec![lag], &flows, &[]).unwrap();
        assert_eq!(plan.nodes()[0].gathers, [PlanCopy { src: 0, dst: 0, len: 1 }]);
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
        let lag = NodeShape { feedthrough: false, ..scalar_node("lag") };
        let mut net = network(
            vec![scalar_node("a"), lag],
            vec![gain("a", 0.5), Box::new(Lag { state: 1.0 })],
            &[((id(0), "o"), (id(1), "i")), ((id(1), "o"), (id(0), "i"))],
            &[],
        );
        net.initialize(0.0).unwrap();
        for _ in 0..10 {
            net.step(0.1).unwrap();
        }
        assert!(net.output(id(1), "o").unwrap()[0].is_finite());
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
        let beeper = Box::new(Beeper { n: 0, emitted: Vec::new() });
        let mut net = network(vec![shape("beeper", &[], &[], true)], vec![beeper], &[], &[]);
        net.initialize(0.0).unwrap();
        let mut buf = Vec::new();
        for step in 1..=3u64 {
            net.step(0.1).unwrap();
            buf.clear();
            net.drain_signals_into(&mut buf);
            assert_eq!(buf.len(), 1);
            let (node, sport, msg) = &buf[0];
            assert_eq!(*node, id(0));
            assert_eq!(sport, "ctl");
            assert_eq!(msg.value().as_real(), Some(step as f64));
        }
        // Nothing pending after a drain.
        net.drain_signals_into(&mut buf);
        assert_eq!(buf.len(), 1, "appends, does not clear the caller's buffer");
    }

    #[test]
    fn unknown_ids_error() {
        let bogus = id(5);
        let err = StepPlan::lower(vec![scalar_node("g")], &[((bogus, "o"), (id(0), "i"))], &[])
            .unwrap_err();
        assert!(matches!(err, FlowError::UnknownNode { index: 5 }));
        let net = network(vec![source_node("s")], vec![source("s")], &[], &[]);
        assert!(matches!(net.output(bogus, "o"), Err(FlowError::UnknownNode { .. })));
        assert!(net.output(id(0), "ghost").is_err());
    }

    /// The declarations and behaviours of one plan, behaviours in node
    /// order.
    struct Parts {
        shapes: Vec<NodeShape>,
        flows: [(PortRef<'static>, PortRef<'static>); 4],
        exports: [PortRef<'static>; 1],
        behaviours: Vec<Box<dyn StreamerBehavior>>,
    }

    /// A fan-out source feeding two gains whose outputs meet again in a
    /// two-input node declared *before* them (so execution order differs
    /// from node order), plus a gain on an exported input: gathers,
    /// fan-out, multi-input rows and ext loads in one topology. Node order
    /// is `[sum, s, g1, g2, ext]`.
    fn plan_parts() -> Parts {
        let scalar = FlowType::scalar;
        let shapes = vec![
            shape("sum", &[("a", scalar()), ("b", scalar())], &[("o", scalar())], true),
            source_node("s"),
            scalar_node("g1"),
            scalar_node("g2"),
            scalar_node("ext"),
        ];
        let (sum, s, g1, g2, ext) = (id(0), id(1), id(2), id(3), id(4));
        let flows = [
            ((s, "o"), (g1, "i")),
            ((s, "o"), (g2, "i")),
            ((g2, "o"), (sum, "b")),
            ((g1, "o"), (sum, "a")),
        ];
        let behaviours: Vec<Box<dyn StreamerBehavior>> = vec![
            Box::new(FnStreamer::new("sum", 2, 1, |_t, _h, u: &[f64], y: &mut [f64]| {
                y[0] = u[0] - 0.5 * u[1]
            })),
            Box::new(FnStreamer::new("s", 0, 1, |t: f64, _h, _u: &[f64], y: &mut [f64]| {
                y[0] = (3.0 * t).sin() + 0.1
            })),
            gain("g1", 2.0),
            gain("g2", -3.0),
            gain("ext", 10.0),
        ];
        Parts { shapes, flows, exports: [(ext, "i")], behaviours }
    }

    /// [`plan_parts`] as a runnable network, with the ids
    /// `[sum, g1, g2, ext]`.
    fn plan_fixture() -> (StreamerNetwork, [NodeId; 4]) {
        let Parts { shapes, flows, exports, behaviours } = plan_parts();
        (network(shapes, behaviours, &flows, &exports), [id(0), id(2), id(3), id(4)])
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
        let Parts { shapes, flows, exports, behaviours } = plan_parts();
        let (sum, g1, ext) = (id(0), id(2), id(4));
        let (plan, _) = StepPlan::lower(shapes, &flows, &exports).unwrap();
        let mut by_node: Vec<_> = behaviours.into_iter().map(Some).collect();
        let mut rows: Vec<_> =
            plan.nodes().iter().map(|pn| by_node[pn.node.index()].take().unwrap()).collect();
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
        let err = StepPlan::lower(vec![scalar_node("g")], &[], &[]).unwrap_err();
        assert!(matches!(err, FlowError::UnconnectedInput { .. }));
    }

    #[test]
    fn plan_layout_is_dense_and_stable() {
        let Parts { shapes, flows, exports, .. } = plan_parts();
        let node_count = shapes.len();
        let (plan, ext) = StepPlan::lower(shapes, &flows, &exports).unwrap();
        let g1 = id(2);
        assert_eq!(plan.nodes().len(), node_count, "one row per node");
        assert_eq!((plan.ext_in_width(), ext), (1, vec![0]));
        assert_eq!(plan.ext_loads, [PlanCopy { src: 0, dst: 4, len: 1 }]);
        // Spans tile the dense arrays without overlap, in node order
        // (input offsets 0, 2, 2, 3, 4; output offsets 0 to 4): total width
        // equals the sum of node widths. Rows run in feedthrough-aware
        // topological order, gathers in flow order.
        assert_eq!((plan.in_width(), plan.out_width()), (5, 5));
        let copy = |src, dst| PlanCopy { src, dst, len: 1 };
        let row = |node, in_offset, in_width, out_offset, gathers| PlanNode {
            node: id(node),
            in_offset,
            in_width,
            out_offset,
            out_width: 1,
            gathers,
        };
        let expected = [
            row(1, 2, 0, 1, vec![]),
            row(4, 4, 1, 4, vec![]),
            row(2, 2, 1, 2, vec![copy(1, 2)]),
            row(3, 3, 1, 3, vec![copy(1, 3)]),
            row(0, 0, 2, 0, vec![copy(3, 1), copy(2, 0)]),
        ];
        assert_eq!(plan.nodes(), expected);
        // Ports resolve against the plan.
        let (dense, spec) = plan.output_port(g1, "o").unwrap();
        assert_eq!((dense, spec.width()), (2, 1));
        assert!(plan.output_port(g1, "ghost").is_err());
        assert!(plan.shape(id(99)).is_err());
        // Lowering identical declarations yields the identical plan.
        let Parts { shapes, flows, exports, .. } = plan_parts();
        assert_eq!(StepPlan::lower(shapes, &flows, &exports).unwrap().0, plan);
    }
}
