//! The Kühl et al. baseline: translate a Simulink-style block diagram into
//! UML objects — one capsule per block, one signal connection per wire.
//!
//! The paper's criticism: "lots of objects and classes may be generated,
//! and some information may be lost". [`translate_diagram`] performs the
//! translation into a runnable [`Controller`] and reports the object,
//! class, port and message counts; [`annotation_loss`] counts the typed
//! flow annotations (units, record field names) that the untyped signal
//! translation erases.
//!
//! The translation computes what the diagram computes, firing every
//! block once per step, feedback loops and marked inputs included (see
//! [`translate_diagram`]), so its message counts are those of a working
//! translation.

use std::collections::HashSet;
use urt_blocks::block::Block;
use urt_blocks::diagram::BlockDiagram;
use urt_dataflow::flowtype::FlowType;
use urt_umlrt::capsule::{Capsule, CapsuleContext};
use urt_umlrt::controller::Controller;
use urt_umlrt::message::Message;
use urt_umlrt::timing::TIMER_PORT;
use urt_umlrt::value::Value;
use urt_umlrt::RtError;

/// Object/class/message accounting of a Kühl-style translation.
#[derive(Debug, Clone, PartialEq)]
pub struct KuhlReport {
    /// Capsule instances generated (blocks + scheduler).
    pub capsule_count: usize,
    /// Distinct capsule classes generated (block types + scheduler).
    pub class_count: usize,
    /// Ports generated across all capsules.
    pub port_count: usize,
    /// Signal connections generated.
    pub connection_count: usize,
    /// Messages exchanged per simulated macro step (measured).
    pub messages_per_step: f64,
}

/// A capsule wrapping one translated block.
struct BlockCapsule {
    name: String,
    block: Box<dyn Block>,
    /// The latest value on each input (0.0 before any arrives).
    inputs: Vec<f64>,
    /// Inputs arrived this step; a feedthrough block fires once all have.
    arrived: usize,
    /// Whether the block fires on the scheduler's tick: a source, or a
    /// block whose outputs do not depend on this step's inputs.
    on_tick: bool,
    /// Outgoing routes: `(output index, port name)`.
    out_routes: Vec<(usize, String)>,
    t: f64,
    h: f64,
}

impl BlockCapsule {
    fn fire(&mut self, ctx: &mut CapsuleContext) {
        let mut y = vec![0.0; self.block.outputs()];
        self.block.step(self.t, self.h, &self.inputs, &mut y);
        self.t += self.h;
        self.arrived = 0;
        for (out_idx, port) in &self.out_routes {
            ctx.send(port, "data", Value::Real(y[*out_idx]));
        }
    }
}

impl Capsule for BlockCapsule {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, _ctx: &mut CapsuleContext) {}

    fn on_message(&mut self, msg: &Message, ctx: &mut CapsuleContext) {
        if msg.port() == "tick" {
            if self.on_tick {
                self.fire(ctx);
            }
            return;
        }
        if let Some(rest) = msg.port().strip_prefix("in") {
            if let (Ok(idx), Some(v)) = (rest.parse::<usize>(), msg.value().as_real()) {
                if idx < self.inputs.len() {
                    self.inputs[idx] = v;
                    self.arrived += 1;
                    if !self.on_tick && self.arrived == self.inputs.len() {
                        self.fire(ctx);
                    }
                }
            }
        }
    }
}

/// The generated scheduler capsule: every `h` seconds, ticks each block
/// that fires on the tick and feeds 0.0 to each marked diagram input.
struct SchedulerCapsule {
    name: String,
    h: f64,
    ticks: usize,
    ext_inputs: usize,
}

impl Capsule for SchedulerCapsule {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, ctx: &mut CapsuleContext) {
        ctx.inform_every(self.h, "tick");
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut CapsuleContext) {
        if msg.port() == TIMER_PORT && msg.signal() == "tick" {
            for k in 0..self.ticks {
                ctx.send(&format!("tick{k}"), "tick", Value::Empty);
            }
            for k in 0..self.ext_inputs {
                ctx.send(&format!("ext{k}"), "data", Value::Real(0.0));
            }
        }
    }
}

/// Translates a block diagram into one capsule per block plus a generated
/// scheduler, wired inside a fresh [`Controller`].
///
/// `h` is the simulated macro step. On each step's timer the scheduler
/// ticks every source and every non-feedthrough block, which fire with
/// the inputs they last received (0.0 before any arrive), and feeds 0.0
/// to every marked diagram input. A feedthrough block fires once all of
/// the step's inputs have arrived, so a feedback loop closed through an
/// integrator computes every block once per step, as the diagram does.
///
/// # Errors
///
/// Propagates wiring errors from the controller.
///
/// # Examples
///
/// ```
/// use urt_baselines::kuhl::translate_diagram;
/// use urt_blocks::diagram::BlockDiagram;
/// use urt_blocks::math::Gain;
/// use urt_blocks::sources::Constant;
///
/// # fn main() -> Result<(), urt_umlrt::RtError> {
/// let mut d = BlockDiagram::new("demo");
/// let c = d.add_block(Constant::new(1.0));
/// let g = d.add_block(Gain::new(2.0));
/// d.connect(c, 0, g, 0).unwrap();
/// let (mut controller, report) = translate_diagram(d, 0.01)?;
/// assert_eq!(report.capsule_count, 3, "2 blocks + scheduler");
/// controller.start()?;
/// controller.run_until(0.1)?;
/// assert!(report.connection_count >= 1);
/// # Ok(())
/// # }
/// ```
pub fn translate_diagram(
    diagram: BlockDiagram,
    h: f64,
) -> Result<(Controller, KuhlReport), RtError> {
    let parts = diagram.into_parts();
    let mut controller = Controller::new(format!("kuhl-{}", parts.name));

    // Classes: one per distinct block type + the scheduler class.
    let classes: HashSet<&str> = parts.blocks.iter().map(|(_, b)| b.name()).collect();
    let class_count = classes.len() + 1;

    // Per-block outgoing routes, giving each wire its own port.
    let mut out_routes: Vec<Vec<(usize, String)>> = vec![Vec::new(); parts.blocks.len()];
    for (ci, &(fb, fp, _tb, _tp)) in parts.connections.iter().enumerate() {
        out_routes[fb].push((fp, format!("out{fp}_c{ci}")));
    }

    let mut ticked: Vec<usize> = Vec::new();
    let mut port_count = 0usize;
    let block_count = parts.blocks.len();
    let mut capsule_ids = Vec::with_capacity(block_count);
    for (bi, (label, block)) in parts.blocks.into_iter().enumerate() {
        let n_in = block.inputs();
        let on_tick = n_in == 0 || !block.direct_feedthrough();
        if on_tick {
            ticked.push(bi);
            port_count += 1; // tick port
        }
        port_count += n_in + out_routes[bi].len();
        let capsule = BlockCapsule {
            name: label,
            inputs: vec![0.0; n_in],
            arrived: 0,
            on_tick,
            out_routes: std::mem::take(&mut out_routes[bi]),
            block,
            t: 0.0,
            h,
        };
        capsule_ids.push(controller.add_capsule(Box::new(capsule)));
    }

    let scheduler = controller.add_capsule(Box::new(SchedulerCapsule {
        name: "scheduler".into(),
        h,
        ticks: ticked.len(),
        ext_inputs: parts.ext_inputs.len(),
    }));
    port_count += ticked.len() + parts.ext_inputs.len();

    // Wire data connections.
    for (ci, &(fb, fp, tb, tp)) in parts.connections.iter().enumerate() {
        controller.connect(
            (capsule_ids[fb], &format!("out{fp}_c{ci}")),
            (capsule_ids[tb], &format!("in{tp}")),
        )?;
    }
    // Wire scheduler ticks and marked inputs.
    for (k, &bi) in ticked.iter().enumerate() {
        controller.connect((scheduler, &format!("tick{k}")), (capsule_ids[bi], "tick"))?;
    }
    for (k, &(bi, p)) in parts.ext_inputs.iter().enumerate() {
        controller
            .connect((scheduler, &format!("ext{k}")), (capsule_ids[bi], &format!("in{p}")))?;
    }
    let report = KuhlReport {
        capsule_count: block_count + 1,
        class_count,
        port_count,
        connection_count: parts.connections.len() + ticked.len() + parts.ext_inputs.len(),
        messages_per_step: 0.0,
    };
    Ok((controller, report))
}

/// Counts the typed-flow annotations (units + record field names) a
/// Kühl-style translation erases: UML-RT signals carry bare reals, so
/// every annotation on the original flow types is lost.
///
/// # Examples
///
/// ```
/// use urt_baselines::kuhl::annotation_loss;
/// use urt_dataflow::flowtype::{FlowType, Unit};
///
/// let types = [
///     FlowType::with_unit(Unit::Meter),
///     FlowType::record([("pos", FlowType::with_unit(Unit::Meter))]),
/// ];
/// assert_eq!(annotation_loss(&types), 3);
/// ```
pub fn annotation_loss(flow_types: &[FlowType]) -> usize {
    flow_types.iter().map(FlowType::annotation_count).sum()
}

/// Measures messages-per-step of a translated controller by running it for
/// `n_steps` macro steps of `h`: the window holds the next `n_steps`
/// scheduler ticks, which fall due every `h` from the controller's start.
///
/// # Errors
///
/// Propagates controller failures.
pub fn measure_messages_per_step(
    controller: &mut Controller,
    h: f64,
    n_steps: usize,
) -> Result<f64, RtError> {
    if !controller.is_started() {
        controller.start()?;
    }
    let before = controller.delivered_count();
    let t0 = controller.now();
    // The periodic timer re-arms at `due + h`, so the n-th tick falls due
    // a rounding error either side of `t0 + n·h` (the 20th 0.01 s tick at
    // 0.20000000000000004); half a step of slack keeps it in the window
    // and the next one out.
    controller.run_until(t0 + h * (n_steps as f64 + 0.5))?;
    Ok((controller.delivered_count() - before) as f64 / n_steps as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};
    use urt_blocks::continuous::Integrator;
    use urt_blocks::math::{Gain, Sum};
    use urt_blocks::sources::Constant;
    use urt_dataflow::flowtype::Unit;
    use urt_dataflow::graph::NodeId;

    fn chain_diagram(n_gains: usize) -> BlockDiagram {
        let mut d = BlockDiagram::new("chain");
        let mut prev = d.add_block(Constant::new(1.0));
        let mut prev_port = 0;
        for _ in 0..n_gains {
            let g = d.add_block(Gain::new(2.0));
            d.connect(prev, prev_port, g, 0).unwrap();
            prev = g;
            prev_port = 0;
        }
        d
    }

    #[test]
    fn object_counts_grow_linearly_with_blocks() {
        let (_, small) = translate_diagram(chain_diagram(4), 0.01).unwrap();
        let (_, large) = translate_diagram(chain_diagram(32), 0.01).unwrap();
        assert_eq!(small.capsule_count, 6, "5 blocks + scheduler");
        assert_eq!(large.capsule_count, 34);
        assert!(large.port_count > small.port_count * 4);
        // Class explosion is bounded by the block-type vocabulary.
        assert_eq!(small.class_count, large.class_count);
    }

    #[test]
    fn translated_chain_propagates_values() {
        let mut d = BlockDiagram::new("calc");
        let c = d.add_block(Constant::new(3.0));
        let g = d.add_block(Gain::new(2.0));
        let g2 = d.add_block(Gain::new(5.0));
        d.connect(c, 0, g, 0).unwrap();
        d.connect(g, 0, g2, 0).unwrap();
        let (mut controller, _) = translate_diagram(d, 0.01).unwrap();
        controller.start().unwrap();
        controller.run_until(0.05).unwrap();
        // Messages flowed: the constant fed the gains each tick.
        assert!(controller.delivered_count() > 10);
        assert_eq!(controller.dropped_count(), 0, "all wires connected");
    }

    #[test]
    fn messages_per_step_scales_with_connections() {
        let (mut c4, _) = translate_diagram(chain_diagram(4), 0.01).unwrap();
        let (mut c32, _) = translate_diagram(chain_diagram(32), 0.01).unwrap();
        let m4 = measure_messages_per_step(&mut c4, 0.01, 20).unwrap();
        let m32 = measure_messages_per_step(&mut c32, 0.01, 20).unwrap();
        assert!(m32 > m4 * 4.0, "messages/step {m4} -> {m32}");
    }

    #[test]
    fn a_feedback_loop_step_carries_seven_messages() {
        // Per step: the timer, 2 ticks (reference, integrator), 4 wires.
        let mut d = BlockDiagram::new("loop");
        let r = d.add_block(Constant::new(1.0));
        let s = d.add_block(Sum::error());
        let g = d.add_block(Gain::new(2.0));
        let i = d.add_block(Integrator::new(0.0));
        d.connect(r, 0, s, 0).unwrap();
        d.connect(i, 0, s, 1).unwrap();
        d.connect(s, 0, g, 0).unwrap();
        d.connect(g, 0, i, 0).unwrap();
        let (mut controller, _) = translate_diagram(d, 0.01).unwrap();
        assert_eq!(measure_messages_per_step(&mut controller, 0.01, 20).unwrap(), 7.0);
    }

    #[test]
    fn feedback_loop_translates_and_runs() {
        // sum -> integrator -> back to sum; constant reference.
        let mut d = BlockDiagram::new("loop");
        let r = d.add_block(Constant::new(1.0));
        let s = d.add_block(Sum::error());
        let i = d.add_block(Integrator::new(0.0));
        d.connect(r, 0, s, 0).unwrap();
        d.connect(i, 0, s, 1).unwrap();
        d.connect(s, 0, i, 0).unwrap();
        let (mut controller, report) = translate_diagram(d, 0.01).unwrap();
        assert_eq!(report.capsule_count, 4);
        controller.start().unwrap();
        controller.run_until(0.1).unwrap();
        assert!(controller.delivered_count() > 0);
    }

    /// Wraps a block, logging the first output of every step it takes.
    struct Logged {
        block: Box<dyn Block>,
        log: Arc<Mutex<Vec<f64>>>,
    }

    impl Block for Logged {
        fn name(&self) -> &str {
            self.block.name()
        }
        fn inputs(&self) -> usize {
            self.block.inputs()
        }
        fn outputs(&self) -> usize {
            self.block.outputs()
        }
        fn direct_feedthrough(&self) -> bool {
            self.block.direct_feedthrough()
        }
        fn step(&mut self, t: f64, h: f64, u: &[f64], y: &mut [f64]) {
            self.block.step(t, h, u, y);
            self.log.lock().unwrap().push(y[0]);
        }
    }

    type Logs = Vec<Arc<Mutex<Vec<f64>>>>;

    /// `blocks`, each logging, wired by `wire`.
    fn logged(
        blocks: Vec<Box<dyn Block>>,
        wire: fn(&mut BlockDiagram, &[NodeId]),
    ) -> (BlockDiagram, Logs) {
        let mut d = BlockDiagram::new("logged");
        let logs: Logs = blocks.iter().map(|_| Arc::default()).collect();
        let ids: Vec<NodeId> = blocks
            .into_iter()
            .zip(&logs)
            .map(|(block, log)| d.add_block(Logged { block, log: Arc::clone(log) }))
            .collect();
        wire(&mut d, &ids);
        (d, logs)
    }

    /// Runs the diagram translated for 0.1 s of 0.01 s steps, then
    /// natively for as many steps with every marked input at 0.0: each
    /// block must fire on every translated step and compute what it
    /// computes in the diagram.
    fn assert_every_block_fires_every_step(
        blocks: fn() -> Vec<Box<dyn Block>>,
        wire: fn(&mut BlockDiagram, &[NodeId]),
    ) {
        let (d, translated) = logged(blocks(), wire);
        let (mut controller, _) = translate_diagram(d, 0.01).unwrap();
        controller.start().unwrap();
        controller.run_until(0.1).unwrap();
        let steps = translated[0].lock().unwrap().len();
        assert!(steps >= 9, "the first block fired {steps} times");

        let (mut d, native) = logged(blocks(), wire);
        d.validate().unwrap();
        let zeros = vec![0.0; d.input_count()];
        for k in 0..steps {
            d.step(k as f64 * 0.01, 0.01, &zeros);
        }
        for (i, (t, n)) in translated.iter().zip(&native).enumerate() {
            assert_eq!(*t.lock().unwrap(), *n.lock().unwrap(), "block {i}");
        }
    }

    #[test]
    fn a_translated_feedback_loop_fires_every_block_every_step() {
        // ref -> err -> kp -> plant, plant -> err: the E3 PI loop.
        assert_every_block_fires_every_step(
            || {
                vec![
                    Box::new(Constant::new(1.0)),
                    Box::new(Sum::error()),
                    Box::new(Gain::new(2.0)),
                    Box::new(Integrator::new(0.0)),
                ]
            },
            |d, b| {
                d.connect(b[0], 0, b[1], 0).unwrap();
                d.connect(b[3], 0, b[1], 1).unwrap();
                d.connect(b[1], 0, b[2], 0).unwrap();
                d.connect(b[2], 0, b[3], 0).unwrap();
            },
        );
    }

    #[test]
    fn a_translated_marked_input_diagram_fires_every_block_every_step() {
        // A gain on a marked input, and a sum of a constant and a marked
        // input feeding an integrator.
        assert_every_block_fires_every_step(
            || {
                vec![
                    Box::new(Constant::new(0.5)),
                    Box::new(Gain::new(3.0)),
                    Box::new(Sum::new(&[1.0, 1.0])),
                    Box::new(Integrator::new(1.0)),
                ]
            },
            |d, b| {
                d.mark_input(b[1], 0).unwrap();
                d.connect(b[0], 0, b[2], 0).unwrap();
                d.mark_input(b[2], 1).unwrap();
                d.connect(b[2], 0, b[3], 0).unwrap();
            },
        );
    }

    #[test]
    fn annotation_loss_counts_units_and_fields() {
        assert_eq!(annotation_loss(&[]), 0);
        assert_eq!(annotation_loss(&[FlowType::scalar()]), 0);
        let rich = FlowType::record([
            ("pos", FlowType::with_unit(Unit::Meter)),
            ("vel", FlowType::with_unit(Unit::MeterPerSecond)),
        ]);
        // 2 field names + 2 units.
        assert_eq!(annotation_loss(&[rich]), 4);
    }
}
