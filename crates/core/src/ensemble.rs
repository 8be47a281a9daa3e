//! The execution core: `K` instances of one system stepped in lockstep
//! over structure-of-arrays state, each with its own capsule controller.
//!
//! This is the crate's only macro-step implementation.
//! [`HybridEngine`] is its `K = 1` case; parameter sweeps, Monte-Carlo
//! robustness studies and scenario fans run the *same* lowered model
//! many times through [`EnsembleEngine`]. Each group's [`StepPlan`] (the
//! dense routing schedule a network consumes itself into) is replayed
//! with instance-major inner loops over contiguous state arrays, so the
//! plan walk, the channel parity bookkeeping and the probe/clock overhead
//! are paid once per step, not once per instance, and the inner lane
//! copies run over contiguous memory.
//!
//! Layout: instance `i` of a group owns lanes `[i*W .. (i+1)*W)` of that
//! group's flat input/output arrays, where `W` is the per-instance dense
//! width from the plan. Instance 0 runs on the behaviours and controller
//! of one [`CompiledSystem::instantiate`]; instances `1..K` re-invoke the
//! compiled system's behaviour and capsule factories. Per-instance
//! parameter overrides are applied through
//! [`StreamerBehavior::set_param`] before initialisation
//! ([`VariantSpec`]).
//!
//! One macro step, per group: capsule→streamer SPort messages are
//! delivered to their lanes (`on_signal`), cross-group channel inputs are
//! latched, the plan is replayed, channel outputs are published and
//! probes are recorded. Signals the behaviours emit on linked SPorts are
//! then injected into their instance's controller — per instance in group
//! order, then plan order, exactly as [`StreamerNetwork::step`] emits
//! them — and every controller runs to the post-step instant.
//!
//! Under [`ThreadPolicy::DedicatedThreads`] each group steps on its own
//! worker for the length of a `run_until` segment, in batches of macro
//! steps: a batch is one macro step while SPort links exist (a signal
//! exchange may be due after any step), otherwise as long as the segment
//! allows (capped by [`HybridEngine::set_max_batch`]), with the
//! controllers catching up on the coordinator while the workers step.
//!
//! **Determinism is the correctness anchor**: instance `i` of a
//! `K`-ensemble is bit-identical to a standalone [`HybridEngine`] run
//! with the same variant parameters — same plan semantics as
//! [`StreamerNetwork::step`], same accumulated group time, same
//! cross-group channel parity slots, same drift-free probe timestamps,
//! same controller message order. The equivalence suites pin this for
//! both thread policies.

use crate::elaborate::{CompiledSystem, SystemInstance};
use crate::engine::EngineConfig;
use crate::error::CoreError;
use crate::pacer::{PacedConfig, PacedReport, PacedRunner};
use crate::recorder::{Recorder, SeriesHandle};
use crate::sync::{Mutex, SpinBarrier};
use crate::threading::ThreadPolicy;
use crate::time::SimClock;
use std::cell::RefCell;
use std::fmt;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use urt_dataflow::graph::{NodeId, PlanNodeKind, StepPlan};
use urt_dataflow::streamer::StreamerBehavior;
use urt_ode::solver::Solver;
use urt_ode::system::BatchOdeSystem;
use urt_ode::OdeSystem;
use urt_umlrt::controller::Controller;
use urt_umlrt::message::Message;

#[cfg(doc)]
use crate::engine::HybridEngine;
#[cfg(doc)]
use urt_dataflow::graph::StreamerNetwork;

/// Upper bound on the macro steps one threaded batch may take when no
/// SPort link forces per-step batches: amortises the coordinator
/// rendezvous to nothing while keeping pacing release points bounded.
const DEFAULT_MAX_BATCH: u64 = 4096;

/// Per-instance parameter overrides for one ensemble member: a list of
/// `(streamer, parameter, value)` assignments applied through
/// [`StreamerBehavior::set_param`] after replication and before
/// initialisation.
///
/// An empty spec replicates the compiled system's parameters unchanged.
/// [`OdeStreamer`](urt_dataflow::streamer::OdeStreamer) understands the
/// built-in `x0[i]` names (initial-state lanes) plus whatever its
/// `with_param_fn` hook recognises.
///
/// # Examples
///
/// ```
/// use urt_core::ensemble::VariantSpec;
///
/// let v = VariantSpec::new().set("plant", "x0[0]", 2.5).set("plant", "mu", 1.2);
/// assert_eq!(v.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VariantSpec {
    overrides: Vec<(String, String, f64)>,
}

impl VariantSpec {
    /// An empty spec (the compiled system's own parameters).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one override (builder style).
    pub fn set(
        mut self,
        streamer: impl Into<String>,
        param: impl Into<String>,
        value: f64,
    ) -> Self {
        self.overrides.push((streamer.into(), param.into(), value));
        self
    }

    /// Number of overrides.
    pub fn len(&self) -> usize {
        self.overrides.len()
    }

    /// Whether the spec has no overrides.
    pub fn is_empty(&self) -> bool {
        self.overrides.is_empty()
    }
}

/// Which ODE stepping kernel ensemble groups use for solver-backed lanes.
///
/// [`Batched`](EnsembleKernel::Batched) (the default) routes every
/// eligible streamer row — homogeneous, guard-free lanes whose solver has
/// a true batched kernel — through one width-aware
/// [`Solver::step_batch`] call per sub-step. Per-lane arithmetic is the
/// exact scalar sequence, so results stay bit-identical either way;
/// [`PerLane`](EnsembleKernel::PerLane) exists as the measurable baseline
/// (the `bench_engine` kernel axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnsembleKernel {
    /// Per-lane scalar stepping: K independent `advance` calls per row.
    PerLane,
    /// Width-aware batched stepping for eligible rows.
    #[default]
    Batched,
}

/// Batch-stepping state for one eligible streamer row: the row's lanes
/// share `dim`/`substep`, and the row owns one solver clone (explicit
/// fixed-step strategies carry no cross-step scratch, so a single solver
/// serves all K lanes) plus the instance-major state staging.
struct BatchRow {
    dim: usize,
    substep: f64,
    /// The row's solver clock, shared by all lanes (lockstep): the exact
    /// mirror of the lanes' `SolverDriver` time, persistent across macro
    /// steps. It is *not* recomputed from the group time — the driver's
    /// end-of-interval snap can leave it one rounding shy of `t_end`, and
    /// the next macro step's clamped final sub-step depends on that value
    /// bit-for-bit.
    time: f64,
    solver: Box<dyn Solver + Send>,
    /// Instance-major staging, `K * dim`: gathered from the lanes' drivers
    /// before the sub-step loop, scattered back through
    /// [`OdeLane::lane_sync`](urt_dataflow::streamer::OdeLane::lane_sync) after.
    states: Vec<f64>,
    /// Per-lane gather/scatter scratch for [`LaneBatchSystem`] (`dim`
    /// each), parked here between macro steps to stay allocation-free.
    scratch_x: Vec<f64>,
    scratch_d: Vec<f64>,
}

/// The K lanes of one streamer row viewed as a single batched ODE system.
///
/// Each lane keeps its own parameters and frozen inputs, so the
/// derivative evaluation dispatches per lane — but every lane computes
/// exactly what the scalar path's `FrozenInput` wrapper computes, and the
/// solver's stage algebra above this runs as fused sweeps across all
/// lanes. `OdeSystem::derivatives` is unreachable by construction: only
/// solvers with true batched kernels (which never fall back to the scalar
/// entry point) are routed here.
struct LaneBatchSystem<'a> {
    lanes: &'a [Box<dyn StreamerBehavior>],
    ins: &'a [f64],
    inw: usize,
    in_offset: usize,
    in_width: usize,
    dim: usize,
    scratch: RefCell<(Vec<f64>, Vec<f64>)>,
}

impl OdeSystem for LaneBatchSystem<'_> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn derivatives(&self, _t: f64, _x: &[f64], _dx: &mut [f64]) {
        unreachable!("lane batch systems are only evaluated through derivatives_batch");
    }
}

impl BatchOdeSystem for LaneBatchSystem<'_> {
    fn derivatives_batch(&self, t: f64, states: &[f64], dim: usize, k: usize, dx: &mut [f64]) {
        let mut scratch = self.scratch.borrow_mut();
        let (x, d) = &mut *scratch;
        for (i, b) in self.lanes.iter().enumerate() {
            let lane = b.as_ode_lane().expect("batch rows contain only ODE lanes");
            for v in 0..dim {
                x[v] = states[v * k + i];
            }
            let ui = i * self.inw + self.in_offset;
            lane.lane_derivatives(t, x, &self.ins[ui..ui + self.in_width], d);
            for v in 0..dim {
                dx[v * k + i] = d[v];
            }
        }
    }
}

/// The two parity slots of one cross-group channel, each carrying all
/// `K` instances' samples. During step `n` the consumer reads slot
/// `n % 2` before its group steps and the producer writes slot
/// `(n + 1) % 2` after: the two never touch the same slot within a step,
/// and the consumer deterministically sees the producer's previous step's
/// output — the one-macro-step channel delay (all-zero lanes at step 0).
type ChannelBufs = Arc<[Mutex<Vec<f64>>; 2]>;

/// Per instance, the `(link, message)` signals one group's behaviours
/// emitted on linked SPorts since the last routing, in plan order.
type Emitted = Vec<Vec<(usize, Message)>>;

/// One end of a cross-group channel, held by the group it touches.
struct ChannelEnd {
    bufs: ChannelBufs,
    /// Per-instance lane offset: into the dense output array at the
    /// producer, into the external-input staging at the consumer.
    offset: usize,
    width: usize,
}

/// A probe on the first lane of an output DPort, recorded per instance.
struct Probe {
    /// Per-instance dense output offset; `None` for a zero-width port,
    /// which records nothing.
    lane: Option<usize>,
    series: String,
    /// Interned series, one per instance; empty while no recorder is
    /// attached.
    handles: Vec<SeriesHandle>,
}

/// The streamer end of one SPort link: messages the capsule sends, one
/// receiver per instance, delivered to the linked row's lanes.
struct Inbox {
    /// Plan row of the linked streamer (`None` for a relay, which has no
    /// behaviour to deliver to).
    row: Option<usize>,
    rx: Vec<Receiver<Message>>,
}

/// One group's state: the shared routing plan, `K` instance-major copies
/// of the dense per-instance arrays, and the group's ends of every
/// channel, probe and SPort link.
struct GroupState {
    plan: StepPlan,
    /// `behaviours[r * K + i]` is instance `i` of the `r`-th *streamer*
    /// plan node (relays carry no behaviour), rows in plan order.
    behaviours: Vec<Box<dyn StreamerBehavior>>,
    /// `batch_rows[r]` is the batch-stepping state of the `r`-th streamer
    /// row, `None` for rows that are not batch-eligible. Built once at
    /// start (after `initialize`), empty before.
    batch_rows: Vec<Option<BatchRow>>,
    /// Kernel selection for this group's solver-backed rows.
    kernel: EnsembleKernel,
    /// Dense input lanes, `K * plan.in_width()`.
    ins: Vec<f64>,
    /// Dense output lanes, `K * plan.out_width()`.
    outs: Vec<f64>,
    /// External (channel-fed) input staging, `K * plan.ext_in_width()`.
    ext: Vec<f64>,
    /// Accumulated group time — `t += h` per step, exactly like
    /// `StreamerNetwork::step`, so behaviours see bit-identical instants.
    time: f64,
    incoming: Vec<ChannelEnd>,
    outgoing: Vec<ChannelEnd>,
    probes: Vec<Probe>,
    inboxes: Vec<Inbox>,
    /// `routes[node]`: the node's linked SPorts as `(sport, link)` pairs —
    /// direct indexing to the node, then a scan over its (almost always
    /// 0–2) links.
    routes: Vec<Vec<(String, usize)>>,
    emitted: Emitted,
}

/// Routes the signals `b` emitted on linked SPorts into `out`; signals on
/// unlinked SPorts are dropped, as on the network path.
fn route_emitted(
    b: &mut dyn StreamerBehavior,
    routes: &[(String, usize)],
    out: &mut Vec<(usize, Message)>,
) {
    for (sport, msg) in b.take_emitted() {
        if let Some(&(_, link)) = routes.iter().find(|(s, _)| *s == sport) {
            out.push((link, msg));
        }
    }
}

impl GroupState {
    fn new(plan: StepPlan, behaviours: Vec<Box<dyn StreamerBehavior>>, k: usize) -> Self {
        GroupState {
            ins: vec![0.0; k * plan.in_width()],
            outs: vec![0.0; k * plan.out_width()],
            ext: vec![0.0; k * plan.ext_in_width()],
            routes: vec![Vec::new(); plan.nodes().len()],
            emitted: vec![Vec::new(); k],
            plan,
            behaviours,
            batch_rows: Vec::new(),
            kernel: EnsembleKernel::default(),
            time: 0.0,
            incoming: Vec::new(),
            outgoing: Vec::new(),
            probes: Vec::new(),
            inboxes: Vec::new(),
        }
    }

    /// The plan row of a streamer node (`None` for relays).
    fn row_of(&self, node: NodeId) -> Option<usize> {
        self.plan
            .nodes()
            .iter()
            .filter(|pn| matches!(pn.kind, PlanNodeKind::Streamer))
            .position(|pn| pn.node == node)
    }

    /// One macro step of all `k` instances: deliver capsule messages,
    /// latch channel inputs (slot `step % 2`), replay the plan, publish
    /// channel outputs (slot `(step + 1) % 2`) and record probes at the
    /// post-step instant `t`. `step` is the pre-step macro-step count.
    fn macro_step(&mut self, h: f64, k: usize, step: u64, t: f64) -> Result<(), CoreError> {
        for inbox in &self.inboxes {
            for (i, rx) in inbox.rx.iter().enumerate() {
                while let Ok(msg) = rx.try_recv() {
                    if let Some(r) = inbox.row {
                        self.behaviours[r * k + i].on_signal(&msg);
                    }
                }
            }
        }
        let extw = self.plan.ext_in_width();
        for ch in &self.incoming {
            let src = ch.bufs[(step % 2) as usize].lock();
            for i in 0..k {
                let dst = i * extw + ch.offset;
                self.ext[dst..dst + ch.width]
                    .copy_from_slice(&src[i * ch.width..(i + 1) * ch.width]);
            }
        }
        self.replay(h, k)?;
        let outw = self.plan.out_width();
        for ch in &self.outgoing {
            let mut dst = ch.bufs[((step + 1) % 2) as usize].lock();
            for i in 0..k {
                let src = i * outw + ch.offset;
                dst[i * ch.width..(i + 1) * ch.width]
                    .copy_from_slice(&self.outs[src..src + ch.width]);
            }
        }
        for p in &self.probes {
            if let Some(lane) = p.lane {
                for (i, series) in p.handles.iter().enumerate() {
                    series.push(t, self.outs[i * outw + lane]);
                }
            }
        }
        Ok(())
    }

    /// Replays the plan once, advancing all `k` instances by `h`.
    fn replay(&mut self, h: f64, k: usize) -> Result<(), CoreError> {
        let t = self.time;
        let inw = self.plan.in_width();
        let outw = self.plan.out_width();
        let extw = self.plan.ext_in_width();
        for c in self.plan.ext_loads() {
            for i in 0..k {
                let (src, dst) = (i * extw + c.src, i * inw + c.dst);
                self.ins[dst..dst + c.len].copy_from_slice(&self.ext[src..src + c.len]);
            }
        }
        let mut row = 0usize;
        for pn in self.plan.nodes() {
            for c in &pn.gathers {
                for i in 0..k {
                    let (src, dst) = (i * outw + c.src, i * inw + c.dst);
                    self.ins[dst..dst + c.len].copy_from_slice(&self.outs[src..src + c.len]);
                }
            }
            match pn.kind {
                PlanNodeKind::Streamer => {
                    let r = row;
                    row += 1;
                    let routes = &self.routes[pn.node.index()];
                    let batched = matches!(self.kernel, EnsembleKernel::Batched)
                        && matches!(self.batch_rows.get(r), Some(Some(_)));
                    if batched {
                        let br = self.batch_rows[r].as_mut().expect("row checked above");
                        let dim = br.dim;
                        let t_end = t + h;
                        let resolution = 4.0 * f64::EPSILON * t_end.abs().max(1.0);
                        {
                            let lanes = &self.behaviours[r * k..(r + 1) * k];
                            for (i, b) in lanes.iter().enumerate() {
                                let lane =
                                    b.as_ode_lane().expect("batch rows contain only ODE lanes");
                                let x = lane.lane_state().expect("batch rows are initialized");
                                br.states[i * dim..(i + 1) * dim].copy_from_slice(x);
                            }
                            let sys = LaneBatchSystem {
                                lanes,
                                ins: &self.ins,
                                inw,
                                in_offset: pn.in_offset,
                                in_width: pn.in_width,
                                dim,
                                scratch: RefCell::new((
                                    std::mem::take(&mut br.scratch_x),
                                    std::mem::take(&mut br.scratch_d),
                                )),
                            };
                            // The scalar path's sub-step schedule verbatim
                            // (`OdeStreamer::advance` + `SolverDriver::advance`
                            // for a fixed-step solver), resuming from the
                            // persistent row clock, so every lane sees the
                            // exact `(t, h)` sequence of a standalone run.
                            let mut tl = br.time;
                            while tl < t_end - resolution {
                                let remaining = t_end - tl;
                                if remaining <= resolution {
                                    // The driver's own entry check can
                                    // disagree with the loop test by one
                                    // rounding: snap without stepping.
                                    tl = t_end;
                                    continue;
                                }
                                let h_sub = br.substep.min(remaining);
                                br.solver
                                    .step_batch(&sys, tl, &mut br.states, dim, h_sub)
                                    .map_err(|e| CoreError::Flow(e.into()))?;
                                tl += h_sub;
                                if t_end - tl <= resolution {
                                    tl = t_end;
                                }
                            }
                            br.time = tl;
                            (br.scratch_x, br.scratch_d) = sys.scratch.into_inner();
                        }
                        let lanes = &mut self.behaviours[r * k..(r + 1) * k];
                        for (i, b) in lanes.iter_mut().enumerate() {
                            let ui = i * inw + pn.in_offset;
                            let yi = i * outw + pn.out_offset;
                            let x = &br.states[i * dim..(i + 1) * dim];
                            let lane =
                                b.as_ode_lane_mut().expect("batch rows contain only ODE lanes");
                            // Sync the driver to the row clock (which may
                            // sit one rounding shy of `t_end`), exactly
                            // where the scalar driver would have left it.
                            lane.lane_sync(br.time, x).map_err(|e| CoreError::Flow(e.into()))?;
                            lane.lane_output(
                                t_end,
                                x,
                                &self.ins[ui..ui + pn.in_width],
                                &mut self.outs[yi..yi + pn.out_width],
                            );
                            route_emitted(b.as_mut(), routes, &mut self.emitted[i]);
                        }
                    } else {
                        let lanes = &mut self.behaviours[r * k..(r + 1) * k];
                        for (i, b) in lanes.iter_mut().enumerate() {
                            let ui = i * inw + pn.in_offset;
                            let yi = i * outw + pn.out_offset;
                            b.advance(
                                t,
                                h,
                                &self.ins[ui..ui + pn.in_width],
                                &mut self.outs[yi..yi + pn.out_width],
                            )
                            .map_err(|e| CoreError::Flow(e.into()))?;
                            route_emitted(b.as_mut(), routes, &mut self.emitted[i]);
                        }
                    }
                }
                PlanNodeKind::Relay { in_width, fanout } => {
                    for i in 0..k {
                        let src = i * inw + pn.in_offset;
                        let base = i * outw + pn.out_offset;
                        for f in 0..fanout {
                            let dst = base + f * in_width;
                            self.outs[dst..dst + in_width]
                                .copy_from_slice(&self.ins[src..src + in_width]);
                        }
                    }
                }
            }
        }
        self.time += h;
        Ok(())
    }
}

/// Decides, per streamer row, whether all K lanes can step through the
/// batched kernel path: every lane must expose itself as a batchable
/// [`OdeLane`](urt_dataflow::streamer::OdeLane) (initialized, guard-free, handler-free, batched-kernel
/// solver) and the row must be homogeneous in `dim` and `substep` — the
/// lockstep schedule is shared. Called once after `initialize`.
fn build_batch_rows(gs: &mut GroupState, k: usize) {
    gs.batch_rows.clear();
    for lanes in gs.behaviours.chunks(k) {
        let candidate = (|| {
            let first = lanes.first()?.as_ode_lane()?;
            if !first.lane_batchable() {
                return None;
            }
            let dim = first.lane_dim();
            let substep = first.lane_substep();
            if dim == 0 || !(substep.is_finite() && substep > 0.0) {
                return None;
            }
            let time = first.lane_time()?;
            for b in lanes {
                let lane = b.as_ode_lane()?;
                if !lane.lane_batchable()
                    || lane.lane_dim() != dim
                    || lane.lane_substep().to_bits() != substep.to_bits()
                    || lane.lane_state().is_none()
                    || lane.lane_time().map(f64::to_bits) != Some(time.to_bits())
                {
                    return None;
                }
            }
            let solver = first.lane_clone_solver()?;
            Some(BatchRow {
                dim,
                substep,
                time,
                solver,
                states: vec![0.0; k * dim],
                scratch_x: vec![0.0; dim],
                scratch_d: vec![0.0; dim],
            })
        })();
        gs.batch_rows.push(candidate);
    }
}

/// Injects every routed streamer signal into its instance's controller:
/// per instance, group order then plan order.
fn inject_signals<'a>(
    controllers: &mut [Controller],
    links: &[(usize, String)],
    emitted: impl Iterator<Item = &'a mut Emitted>,
) -> Result<(), CoreError> {
    for per_instance in emitted {
        for (controller, signals) in controllers.iter_mut().zip(per_instance.iter_mut()) {
            for (link, msg) in signals.drain(..) {
                let (capsule, port) = &links[link];
                controller.inject(*capsule, port, msg)?;
            }
        }
    }
    Ok(())
}

/// Runs every controller to `t`.
fn run_controllers(controllers: &mut [Controller], t: f64) -> Result<(), CoreError> {
    for controller in controllers {
        controller.run_until(t)?;
    }
    Ok(())
}

/// The execution core (see module docs): `K` instances of one
/// [`CompiledSystem`] stepped in lockstep over structure-of-arrays state.
///
/// Construct with [`EnsembleEngine::from_compiled`] (identical
/// parameters) or [`EnsembleEngine::from_variants`] (per-instance
/// overrides); the compiled system is only *borrowed* — it can still be
/// handed to a [`HybridEngine`] afterwards.
///
/// # Examples
///
/// ```
/// use urt_core::ensemble::EnsembleEngine;
/// # use urt_core::elaborate::{elaborate, validate_gate, BehaviorRegistry};
/// # use urt_core::engine::EngineConfig;
/// # use urt_core::model::ModelBuilder;
/// # use urt_core::recorder::Recorder;
/// # use urt_dataflow::flowtype::FlowType;
/// # use urt_dataflow::streamer::FnStreamer;
/// # let mut b = ModelBuilder::new("m");
/// # let s = b.streamer("sine", "none");
/// # b.streamer_out(s, "y", FlowType::scalar());
/// # b.probe(s, "y", "y");
/// # let registry = BehaviorRegistry::new().streamer("sine", || {
/// #     Box::new(FnStreamer::new("sine", 0, 1, |t: f64, _h, _u: &[f64], y: &mut [f64]| {
/// #         y[0] = t.sin()
/// #     }))
/// # });
/// # let compiled = elaborate(&b.build(), registry, &validate_gate).unwrap();
/// let mut ensemble = EnsembleEngine::from_compiled(&compiled, 8, EngineConfig::default())?;
/// let rec = Recorder::new();
/// ensemble.set_recorder(rec.clone());
/// ensemble.run_until(0.01)?;
/// assert_eq!(rec.series(&EnsembleEngine::series_name("y", 7)).len(), 10);
/// # Ok::<(), urt_core::error::CoreError>(())
/// ```
pub struct EnsembleEngine {
    config: EngineConfig,
    clock: SimClock,
    k: usize,
    groups: Vec<GroupState>,
    /// One capsule controller per instance.
    pub(crate) controllers: Vec<Controller>,
    /// The capsule end `(capsule, port)` of every SPort link, by link
    /// index; the streamer end lives in its group's inbox and routes.
    links: Vec<(usize, String)>,
    recorder: Option<Recorder>,
    /// Whether probes record under their plain series name (the `K = 1`
    /// [`HybridEngine`]) instead of `{series}#{instance}`.
    pub(crate) plain_series: bool,
    /// Upper bound on the threaded batch length; 1 disables batching.
    pub(crate) max_batch: u64,
    /// Declared per-macro-step budget (ns) carried over from the
    /// compiled system — the default budget of
    /// [`EnsembleEngine::run_paced`]. The budget covers one macro step of
    /// the whole ensemble: all `K` instances advance inside it.
    step_budget_ns: Option<f64>,
    started: bool,
}

impl fmt::Debug for EnsembleEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EnsembleEngine")
            .field("time", &self.clock.seconds())
            .field("instances", &self.k)
            .field("groups", &self.groups.len())
            .field("links", &self.links.len())
            .field("policy", &self.config.policy)
            .finish_non_exhaustive()
    }
}

fn engine_err(detail: String) -> CoreError {
    CoreError::Engine { detail }
}

impl EnsembleEngine {
    /// An engine with no groups around one controller per instance.
    pub(crate) fn with_controllers(controllers: Vec<Controller>, config: EngineConfig) -> Self {
        EnsembleEngine {
            config,
            clock: SimClock::new(),
            k: controllers.len(),
            groups: Vec::new(),
            controllers,
            links: Vec::new(),
            recorder: None,
            plain_series: false,
            max_batch: DEFAULT_MAX_BATCH,
            step_budget_ns: None,
            started: false,
        }
    }

    /// Builds a `k`-instance ensemble with identical parameters (the
    /// compiled system's own) for every instance.
    ///
    /// # Errors
    ///
    /// Same as [`EnsembleEngine::from_variants`].
    pub fn from_compiled(
        compiled: &CompiledSystem,
        k: usize,
        config: EngineConfig,
    ) -> Result<Self, CoreError> {
        Self::from_variants(compiled, &vec![VariantSpec::default(); k], config)
    }

    /// Builds one ensemble instance per [`VariantSpec`], applying each
    /// spec's overrides to its instance's freshly manufactured behaviours
    /// before initialisation. Instance 0 takes its behaviours and
    /// controller from one [`CompiledSystem::instantiate`]; the others
    /// re-invoke the compiled system's factories, so every behaviour kind
    /// replicates. SPort links, probes and cross-group channels are
    /// resolved once and widened to all `K` instances.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidStep`] (`URT116`) if `config.step` is not
    ///   positive and finite.
    /// * [`CoreError::Engine`] for an empty variant list, an override
    ///   naming an unknown streamer, or a parameter the behaviour does not
    ///   recognise.
    /// * Instantiation and wiring errors (none are expected from a system
    ///   produced by `elaborate`, which validates one instantiation at
    ///   compile time).
    pub fn from_variants(
        compiled: &CompiledSystem,
        variants: &[VariantSpec],
        config: EngineConfig,
    ) -> Result<Self, CoreError> {
        if !(config.step.is_finite() && config.step > 0.0) {
            return Err(CoreError::InvalidStep { step: config.step });
        }
        let k = variants.len();
        if k == 0 {
            return Err(engine_err("an ensemble needs at least one instance".into()));
        }
        // Resolve overrides up front: instance -> (group, node, param,
        // value), failing fast on unknown streamer names.
        let mut resolved: Vec<Vec<(usize, NodeId, &str, f64)>> = Vec::with_capacity(k);
        for (i, v) in variants.iter().enumerate() {
            let mut per_instance = Vec::with_capacity(v.overrides.len());
            for (streamer, param, value) in &v.overrides {
                let Some((group, node)) = compiled.streamer_node(streamer) else {
                    return Err(engine_err(format!(
                        "variant {i}: no streamer `{streamer}` in the compiled system"
                    )));
                };
                per_instance.push((group, node, param.as_str(), *value));
            }
            resolved.push(per_instance);
        }

        let SystemInstance { groups: nets, controller } = compiled.instantiate()?;
        let mut controllers = Vec::with_capacity(k);
        controllers.push(controller);
        for _ in 1..k {
            controllers.push(compiled.controller()?);
        }
        let mut engine = Self::with_controllers(controllers, config);
        engine.step_budget_ns = compiled.step_budget_ns();
        for (gi, net) in nets.into_iter().enumerate() {
            let (plan, first) = net.into_plan()?;
            let streamers = plan.nodes().iter().filter(|pn| pn.kind == PlanNodeKind::Streamer);
            let mut behaviours = Vec::with_capacity(first.len() * k);
            for (b0, pn) in first.into_iter().zip(streamers) {
                let row = behaviours.len();
                behaviours.push(b0);
                for _ in 1..k {
                    behaviours.push(compiled.behavior_for(gi, pn.node).ok_or_else(|| {
                        engine_err(format!(
                            "streamer `{}` has no behaviour factory in the compiled system",
                            plan.node_name(pn.node).unwrap_or("?")
                        ))
                    })?);
                }
                for (i, (b, overrides)) in behaviours[row..].iter_mut().zip(&resolved).enumerate() {
                    for &(og, on, param, value) in overrides {
                        if og == gi && on == pn.node && !b.set_param(param, value) {
                            return Err(engine_err(format!(
                                "variant {i}: streamer `{}` does not recognise parameter \
                                 `{param}`",
                                plan.node_name(pn.node).unwrap_or("?")
                            )));
                        }
                    }
                }
            }
            engine.push_group(plan, behaviours);
        }
        for l in &compiled.links {
            engine.link_sport(l.group, l.node, &l.sport, l.capsule, &l.capsule_port)?;
        }
        for p in &compiled.probes {
            engine.add_probe(p.group, p.node, &p.port, &p.series)?;
        }
        for cf in &compiled.cross_flows {
            engine.link_flow(
                (cf.from_group, cf.from_node, &cf.from_port),
                (cf.to_group, cf.to_node, &cf.to_port),
            )?;
        }
        Ok(engine)
    }

    /// Adds a group from its plan and its behaviours (`behaviours[r * K +
    /// i]`: instance `i` of plan row `r`). Returns the group index.
    pub(crate) fn push_group(
        &mut self,
        plan: StepPlan,
        behaviours: Vec<Box<dyn StreamerBehavior>>,
    ) -> usize {
        self.groups.push(GroupState::new(plan, behaviours, self.k));
        self.groups.len() - 1
    }

    fn group(&mut self, group: usize) -> Result<&mut GroupState, CoreError> {
        self.groups.get_mut(group).ok_or_else(|| engine_err(format!("no streamer group {group}")))
    }

    /// Bridges a capsule SPort to a streamer SPort in every instance (see
    /// [`HybridEngine::link_sport`]).
    pub(crate) fn link_sport(
        &mut self,
        group: usize,
        node: NodeId,
        sport: &str,
        capsule: usize,
        capsule_port: &str,
    ) -> Result<(), CoreError> {
        let link = self.links.len();
        let gs = self
            .groups
            .get_mut(group)
            .ok_or_else(|| engine_err(format!("no streamer group {group}")))?;
        // When the node declares its SPorts, the link must name one.
        let declared = gs.plan.sports(node)?;
        if !declared.is_empty() && !declared.iter().any(|s| s.name() == sport) {
            return Err(engine_err(format!(
                "node `{}` declares no SPort `{sport}`",
                gs.plan.node_name(node)?
            )));
        }
        if gs.routes[node.index()].iter().any(|(s, _)| s == sport) {
            return Err(CoreError::DuplicateSportLink {
                group,
                node: gs.plan.node_name(node)?.to_owned(),
                sport: sport.to_owned(),
            });
        }
        let mut rx = Vec::with_capacity(self.k);
        for controller in &mut self.controllers {
            let (tx, r) = channel();
            controller.connect_external(capsule, capsule_port, tx)?;
            rx.push(r);
        }
        gs.routes[node.index()].push((sport.to_owned(), link));
        gs.inboxes.push(Inbox { row: gs.row_of(node), rx });
        self.links.push((capsule, capsule_port.to_owned()));
        Ok(())
    }

    /// Interned series of `series`, one per instance.
    fn series_handles(&self, recorder: &Recorder, series: &str) -> Vec<SeriesHandle> {
        (0..self.k)
            .map(|i| {
                if self.plain_series {
                    recorder.handle(series)
                } else {
                    recorder.handle(&Self::series_name(series, i))
                }
            })
            .collect()
    }

    /// Records the first lane of `(group, node, port)` into `series`
    /// after every macro step (see [`HybridEngine::add_probe`]).
    pub(crate) fn add_probe(
        &mut self,
        group: usize,
        node: NodeId,
        port: &str,
        series: &str,
    ) -> Result<(), CoreError> {
        let handles = match &self.recorder {
            Some(rec) => self.series_handles(rec, series),
            None => Vec::new(),
        };
        let gs = self.group(group)?;
        let (out_base, spec) = gs.plan.output_port(node, port)?;
        let lane = (spec.width() > 0).then_some(out_base);
        gs.probes.push(Probe { lane, series: series.to_owned(), handles });
        Ok(())
    }

    /// Connects an output DPort in one group to an exported input DPort in
    /// another through a `K`-wide parity channel (see
    /// [`HybridEngine::link_flow`]).
    pub(crate) fn link_flow(
        &mut self,
        from: (usize, NodeId, &str),
        to: (usize, NodeId, &str),
    ) -> Result<(), CoreError> {
        let (fg, fnode, fport) = from;
        let (tg, tnode, tport) = to;
        for g in [fg, tg] {
            self.group(g)?;
        }
        if fg == tg {
            return Err(engine_err(format!(
                "flow endpoints are both in group {fg}; use an in-network flow (zero-delay) \
                 instead of a channel"
            )));
        }
        let consumer = &self.groups[tg];
        let name = consumer.plan.node_name(tnode)?;
        if consumer.plan.node_feedthrough(tnode)? {
            return Err(engine_err(format!(
                "cross-group flow into `{name}`.`{tport}`: the consumer declares direct \
                 feedthrough, which a one-step-delay channel cannot honour (keep both \
                 streamers on one thread or make the consumer non-feedthrough)"
            )));
        }
        let producer = &self.groups[fg].plan;
        let (from_base, src) = producer.output_port(fnode, fport)?;
        let (dense_in, dst) = consumer.plan.input_port(tnode, tport)?;
        // The paper's connection rule, channel edition: the producer's
        // flow type must be a subset of the consumer's.
        if let Some(detail) = src.flow_type().subset_failure(dst.flow_type()) {
            return Err(CoreError::Flow(urt_dataflow::FlowError::TypeMismatch {
                from: format!("{}.{fport}", producer.node_name(fnode)?),
                to: format!("{name}.{tport}"),
                detail,
            }));
        }
        let Some(to_offset) = consumer.plan.exported_offset(dense_in) else {
            return Err(engine_err(format!(
                "cross-group flow into `{name}`.`{tport}`: the consumer input is not exported — \
                 call export_input before add_group"
            )));
        };
        if consumer.incoming.iter().any(|c| c.offset == to_offset) {
            return Err(engine_err(format!(
                "cross-group flow into `{name}`.`{tport}`: the consumer input is already fed by \
                 another channel"
            )));
        }
        let width = src.width();
        let slot = || Mutex::new(vec![0.0; self.k * width]);
        let bufs: ChannelBufs = Arc::new([slot(), slot()]);
        self.groups[fg].outgoing.push(ChannelEnd {
            bufs: Arc::clone(&bufs),
            offset: from_base,
            width,
        });
        self.groups[tg].incoming.push(ChannelEnd { bufs, offset: to_offset, width });
        Ok(())
    }

    /// The recorder series name of probe series `series` for ensemble
    /// instance `instance`: `{series}#{instance}`.
    pub fn series_name(series: &str, instance: usize) -> String {
        format!("{series}#{instance}")
    }

    /// Number of ensemble instances `K`.
    pub fn instances(&self) -> usize {
        self.k
    }

    /// Number of streamer groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The capsule controller of instance `instance` (for asserting on
    /// capsule state and message counts), `None` past the last instance.
    pub fn controller(&self, instance: usize) -> Option<&Controller> {
        self.controllers.get(instance)
    }

    /// Current simulation time in seconds.
    pub fn time(&self) -> f64 {
        self.clock.seconds()
    }

    /// Number of macro steps taken.
    pub fn step_count(&self) -> u64 {
        self.clock.step_count()
    }

    /// Attaches a recorder, interning one `{series}#{instance}` handle
    /// per (probe, instance) pair so the per-step record path is
    /// lookup-free.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        let mut groups = std::mem::take(&mut self.groups);
        for p in groups.iter_mut().flat_map(|gs| &mut gs.probes) {
            p.handles = self.series_handles(&recorder, &p.series);
        }
        self.groups = groups;
        self.recorder = Some(recorder);
    }

    fn start_if_needed(&mut self) -> Result<(), CoreError> {
        if self.started {
            return Ok(());
        }
        let t0 = self.clock.seconds();
        for gs in &mut self.groups {
            gs.time = t0;
            for b in &mut gs.behaviours {
                b.initialize(t0).map_err(|e| CoreError::Flow(e.into()))?;
            }
            build_batch_rows(gs, self.k);
        }
        for controller in &mut self.controllers {
            if !controller.is_started() {
                controller.start()?;
            }
        }
        self.started = true;
        Ok(())
    }

    /// Selects the ODE stepping kernel for all groups (see
    /// [`EnsembleKernel`]). The default is
    /// [`Batched`](EnsembleKernel::Batched); results are bit-identical
    /// either way, so this is a pure performance knob (and the
    /// `bench_engine` kernel axis).
    pub fn set_kernel(&mut self, kernel: EnsembleKernel) {
        for gs in &mut self.groups {
            gs.kernel = kernel;
        }
    }

    /// Runs until simulation time `t_end`, in macro steps of
    /// `config.step`.
    ///
    /// # Errors
    ///
    /// Propagates solver, runtime and thread failures.
    pub fn run_until(&mut self, t_end: f64) -> Result<(), CoreError> {
        self.start_if_needed()?;
        let n = crate::time::steps_until(self.clock.seconds(), t_end, self.config.step);
        match self.config.policy {
            ThreadPolicy::CurrentThread => (0..n).try_for_each(|_| self.step_once()),
            ThreadPolicy::DedicatedThreads => self.run_threaded(n, None),
        }
    }

    /// The per-macro-step deadline budget the ensemble carries (from the
    /// compiled system's declared budget), nanoseconds per macro step.
    pub fn step_budget_ns(&self) -> Option<f64> {
        self.step_budget_ns
    }

    /// Hard real-time mode: runs until `t_end` with each macro step of
    /// the whole ensemble paced against the wall clock and measured
    /// against the budget, one cycle covering all `K` instances
    /// (hardware-in-the-loop ensembles release every variant at the same
    /// instant). See [`HybridEngine::run_paced`] for the budget
    /// resolution and the overrun policies.
    ///
    /// Under [`ThreadPolicy::DedicatedThreads`] pacing happens at the
    /// batch barrier — the only rendezvous the threaded schedule has —
    /// and a batch of `n` macro steps is measured as one cycle against
    /// `n ×` the step budget. Results are bit-identical to
    /// [`EnsembleEngine::run_until`] over the same span.
    ///
    /// # Errors
    ///
    /// [`CoreError::DeadlineOverrun`] when an
    /// [`OverrunPolicy::SafetyStop`](crate::pacer::OverrunPolicy::SafetyStop)
    /// run exhausts its consecutive-miss tolerance, plus the usual solver,
    /// runtime and thread failures.
    pub fn run_paced(&mut self, t_end: f64, config: PacedConfig) -> Result<PacedReport, CoreError> {
        self.start_if_needed()?;
        let mut runner = PacedRunner::new(config, self.step_budget_ns, self.config.step);
        let n = crate::time::steps_until(self.clock.seconds(), t_end, self.config.step);
        if matches!(self.config.policy, ThreadPolicy::DedicatedThreads) && !self.groups.is_empty() {
            self.run_threaded(n, Some(&mut runner))?;
        } else {
            for _ in 0..n {
                runner.begin();
                self.step_once()?;
                runner.end(1, self.clock.seconds())?;
            }
        }
        Ok(runner.finish())
    }

    /// One macro step of all `K` instances on the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates solver and runtime failures.
    pub fn step_once(&mut self) -> Result<(), CoreError> {
        self.start_if_needed()?;
        let h = self.config.step;
        let step = self.clock.step_count();
        let mut next = self.clock.clone();
        next.tick(h);
        // Post-step derived instant: the same drift-free product both
        // thread policies stamp on probes and hand to the controllers.
        let t = next.seconds();
        for gs in &mut self.groups {
            gs.macro_step(h, self.k, step, t)?;
        }
        self.clock = next;
        inject_signals(
            &mut self.controllers,
            &self.links,
            self.groups.iter_mut().map(|gs| &mut gs.emitted),
        )?;
        run_controllers(&mut self.controllers, t)
    }

    /// Threaded execution: one worker per group for the whole segment,
    /// driven by the coordinator in batches of macro steps (the paper's
    /// deployment, with the rendezvous amortised).
    ///
    /// The coordinator picks the largest batch such that nothing due
    /// within it needs the coordinator: with SPort links a signal
    /// exchange may be due after any step, so batches are one step long
    /// and the controllers run after signal routing, exactly as
    /// [`EnsembleEngine::step_once`] orders them; without links only the
    /// remaining step count and `max_batch` bound a batch, and the
    /// controllers catch up on the coordinator while the workers step.
    /// Inside a batch, groups touching a cross-group channel rendezvous
    /// between macro steps over a [`SpinBarrier`]; everyone else runs
    /// free. Workers stamp probe samples from a private clock copy, so the
    /// series carry exactly the local path's instants.
    ///
    /// When `paced` is set, each batch is one paced cycle, bracketed at
    /// the batch barrier.
    fn run_threaded(
        &mut self,
        n_steps: u64,
        mut paced: Option<&mut PacedRunner>,
    ) -> Result<(), CoreError> {
        if self.groups.is_empty() || n_steps == 0 {
            // Pure event-driven run: no solver threads to coordinate.
            return (0..n_steps).try_for_each(|_| self.step_once());
        }
        struct Batch {
            len: u64,
            clock: SimClock,
            /// Drained signal buffers, swapped for the group's own.
            spare: Emitted,
        }
        struct Done {
            result: Result<(), CoreError>,
            emitted: Emitted,
        }
        let h = self.config.step;
        let k = self.k;
        let Self { clock, groups, controllers, links, max_batch, .. } = self;
        let touches_channel = |gs: &GroupState| !gs.incoming.is_empty() || !gs.outgoing.is_empty();
        let participants = groups.iter().filter(|gs| touches_channel(gs)).count();
        let barrier = (participants >= 2).then(|| SpinBarrier::new(participants));
        let linked = !links.is_empty();

        std::thread::scope(|scope| -> Result<(), CoreError> {
            let mut workers = Vec::with_capacity(groups.len());
            for gs in groups.iter_mut() {
                let (batch_tx, batch_rx) = channel::<Batch>();
                let (done_tx, done_rx) = channel::<Done>();
                let barrier = barrier.as_ref().filter(|_| touches_channel(gs));
                workers.push((batch_tx, done_rx, vec![Vec::new(); k]));
                scope.spawn(move || {
                    while let Ok(Batch { len, mut clock, spare }) = batch_rx.recv() {
                        let mut result = Ok(());
                        for s in 0..len {
                            // The rendezvous separates last step's slot
                            // writes from this step's same-slot reads. A
                            // worker that already failed stops stepping
                            // but keeps waiting, so its peers never
                            // deadlock.
                            if s > 0 {
                                if let Some(b) = barrier {
                                    b.wait();
                                }
                            }
                            let step = clock.step_count();
                            clock.tick(h);
                            if result.is_ok() {
                                result = gs.macro_step(h, k, step, clock.seconds());
                            }
                        }
                        let emitted = std::mem::replace(&mut gs.emitted, spare);
                        if done_tx.send(Done { result, emitted }).is_err() {
                            break;
                        }
                    }
                });
            }

            let mut remaining = n_steps;
            while remaining > 0 {
                let len = if linked { 1 } else { remaining.min(*max_batch) };
                if let Some(runner) = paced.as_deref_mut() {
                    runner.begin();
                }
                for (batch_tx, _, spare) in &mut workers {
                    let batch = Batch { len, clock: clock.clone(), spare: std::mem::take(spare) };
                    batch_tx.send(batch).map_err(|_| engine_err("worker gone".into()))?;
                }
                if linked {
                    clock.tick(h);
                } else {
                    // Without links the controllers cannot interact with
                    // the streamer world, so their per-instant catch-ups
                    // overlap the solver threads.
                    for _ in 0..len {
                        clock.tick(h);
                        run_controllers(controllers, clock.seconds())?;
                    }
                }
                let t_next = clock.seconds();
                for (gi, (_, done_rx, spare)) in workers.iter_mut().enumerate() {
                    let done = done_rx.recv().map_err(|_| CoreError::ThreadLost { group: gi })?;
                    done.result?;
                    *spare = done.emitted;
                }
                if linked {
                    inject_signals(controllers, links, workers.iter_mut().map(|w| &mut w.2))?;
                    run_controllers(controllers, t_next)?;
                }
                if let Some(runner) = paced.as_deref_mut() {
                    // An early SafetyStop return drops the batch senders,
                    // so the workers exit.
                    runner.end(len, t_next)?;
                }
                remaining -= len;
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::{elaborate, validate_gate, BehaviorRegistry};
    use crate::engine::HybridEngine;
    use crate::model::{FlowEnd, ModelBuilder, UnifiedModel};
    use urt_dataflow::flowtype::FlowType;
    use urt_dataflow::graph::StreamerNetwork;
    use urt_dataflow::streamer::{FnStreamer, OdeStreamer};
    use urt_ode::solver::SolverKind;
    use urt_ode::system::InputSystem;
    use urt_umlrt::capsule::{CapsuleContext, SmCapsule};
    use urt_umlrt::statemachine::StateMachineBuilder;
    use urt_umlrt::value::Value;

    /// x' = -rate * x, a one-lane system with a named `rate` parameter.
    #[derive(Clone)]
    struct Decay {
        rate: f64,
    }

    impl InputSystem for Decay {
        fn dim(&self) -> usize {
            1
        }
        fn input_dim(&self) -> usize {
            0
        }
        fn derivatives(&self, _t: f64, x: &[f64], _u: &[f64], dx: &mut [f64]) {
            dx[0] = -self.rate * x[0];
        }
    }

    fn decay_streamer(rate: f64, x0: f64) -> OdeStreamer<Decay> {
        OdeStreamer::new("plant", Decay { rate }, SolverKind::Rk4.create(), &[x0], 1e-3)
            .with_param_fn(|s, name, v| {
                if name == "rate" {
                    s.rate = v;
                    true
                } else {
                    false
                }
            })
    }

    /// Model: non-feedthrough decaying plant -> feedthrough doubler.
    fn decay_chain(rate: f64, x0: f64) -> (UnifiedModel, BehaviorRegistry) {
        let mut b = ModelBuilder::new("m");
        let p = b.streamer("plant", "none");
        let d = b.streamer("dbl", "none");
        b.streamer_out(p, "y", FlowType::scalar());
        b.streamer_in(d, "u", FlowType::scalar());
        b.streamer_out(d, "y", FlowType::scalar());
        b.streamer_feedthrough(p, false);
        b.flow_between_streamers(p, "y", d, "u");
        b.probe(d, "y", "out");
        let registry = BehaviorRegistry::new()
            .streamer("plant", move || Box::new(decay_streamer(rate, x0)))
            .streamer("dbl", || {
                Box::new(FnStreamer::new("dbl", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| {
                    y[0] = 2.0 * u[0]
                }))
            });
        (b.build(), registry)
    }

    fn compile(rate: f64, x0: f64) -> CompiledSystem {
        let (model, registry) = decay_chain(rate, x0);
        elaborate(&model, registry, &validate_gate).expect("elaborates")
    }

    fn bit_eq(a: &[(f64, f64)], b: &[(f64, f64)], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, ((t1, v1), (t2, v2))) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(t1.to_bits(), t2.to_bits(), "{what}: time at {i}");
            assert_eq!(v1.to_bits(), v2.to_bits(), "{what}: value at {i}");
        }
    }

    #[test]
    fn ensemble_refuses_zero_instances() {
        let compiled = compile(1.0, 1.0);
        let err =
            EnsembleEngine::from_variants(&compiled, &[], EngineConfig::default()).unwrap_err();
        assert!(err.to_string().contains("at least one instance"), "{err}");
    }

    /// A plant that relaxes toward the last `setpoint` its supervisor sent
    /// and reports `status(y)` on SPort `ctl` every step.
    struct Reporter {
        name: String,
        rate: f64,
        y: f64,
        setpoint: f64,
        emitted: Vec<(String, Message)>,
    }

    impl StreamerBehavior for Reporter {
        fn name(&self) -> &str {
            &self.name
        }
        fn input_width(&self) -> usize {
            0
        }
        fn output_width(&self) -> usize {
            1
        }
        fn direct_feedthrough(&self) -> bool {
            false
        }
        fn advance(
            &mut self,
            t: f64,
            h: f64,
            _u: &[f64],
            y: &mut [f64],
        ) -> Result<(), urt_ode::SolveError> {
            self.y += h * self.rate * (self.setpoint - self.y);
            y[0] = self.y;
            let status = Message::new("status", Value::Real(self.y)).with_sent_at(t);
            self.emitted.push(("ctl".to_owned(), status));
            Ok(())
        }
        fn on_signal(&mut self, msg: &Message) {
            if let Some(v) = msg.value().as_real() {
                self.setpoint = v;
            }
        }
        fn take_emitted(&mut self) -> Vec<(String, Message)> {
            std::mem::take(&mut self.emitted)
        }
        fn set_param(&mut self, name: &str, value: f64) -> bool {
            name == "rate" && {
                self.rate = value;
                true
            }
        }
    }

    /// Two reporting plants on two solver threads, both SPort-linked to
    /// one supervisor whose replies depend on the order its `status`
    /// messages arrive in; every third message it also logs on an
    /// unconnected port (a drop).
    fn supervised_model(rates: [f64; 2]) -> CompiledSystem {
        let mut b = ModelBuilder::new("supervised");
        let sup = b.capsule("sup");
        let mut registry = BehaviorRegistry::new();
        for (i, rate) in rates.into_iter().enumerate() {
            let name = format!("plant{i}");
            let s = b.streamer(&name, "none");
            b.streamer_out(s, "y", FlowType::scalar());
            b.streamer_feedthrough(s, false);
            b.streamer_sport(s, "ctl", "Ctl");
            b.assign_thread(s, i);
            b.capsule_sport(sup, format!("p{i}"), "Ctl");
            b.sport_link(sup, format!("p{i}"), s, "ctl");
            b.probe(s, "y", format!("y{i}"));
            registry = registry.streamer(name.clone(), move || {
                Box::new(Reporter {
                    name: name.clone(),
                    rate,
                    y: 0.0,
                    setpoint: 1.0,
                    emitted: Vec::new(),
                })
            });
        }
        let reply = |port: &'static str| {
            move |n: &mut u32, m: &Message, ctx: &mut CapsuleContext| {
                *n += 1;
                let y = m.value().as_real().unwrap_or(0.0);
                ctx.send(port, "setpoint", Value::Real(1.0 - 0.5 * y + f64::from(*n) * 1e-3));
                if *n % 3 == 0 {
                    ctx.send("aux", "log", Value::Empty);
                }
            }
        };
        registry = registry.capsule("sup", move || {
            let machine = StateMachineBuilder::new("sup")
                .state("s")
                .initial("s", |_: &mut u32, _: &mut CapsuleContext| {})
                .internal("s", ("p0", "status"), reply("p0"))
                .internal("s", ("p1", "status"), reply("p1"))
                .build()
                .expect("machine");
            Box::new(SmCapsule::new(machine, 0u32))
        });
        elaborate(&b.build(), registry, &validate_gate).expect("elaborates")
    }

    #[test]
    fn sport_linked_variants_match_standalone_engines() {
        let rates = [[1.0, 2.0], [3.0, 2.0], [2.0, 0.5], [1.0, 7.0]];
        let variants: Vec<VariantSpec> = rates
            .iter()
            .map(|[r0, r1]| {
                VariantSpec::new().set("plant0", "rate", *r0).set("plant1", "rate", *r1)
            })
            .collect();
        let compiled = supervised_model(rates[0]);
        assert_eq!(compiled.sport_link_count(), 2);
        assert_eq!(compiled.group_count(), 2);
        for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
            let config = EngineConfig { step: 0.01, policy };
            let mut ensemble = EnsembleEngine::from_variants(&compiled, &variants, config).unwrap();
            let rec = Recorder::new();
            ensemble.set_recorder(rec.clone());
            ensemble.run_until(0.3).unwrap();
            for (i, r) in rates.iter().enumerate() {
                let mut engine =
                    HybridEngine::from_compiled(&supervised_model(*r), config).unwrap();
                let hrec = Recorder::new();
                engine.set_recorder(hrec.clone());
                engine.run_until(0.3).unwrap();
                for series in ["y0", "y1"] {
                    bit_eq(
                        &rec.series(&EnsembleEngine::series_name(series, i)),
                        &hrec.series(series),
                        &format!("{policy}: instance {i} {series}"),
                    );
                }
                let (ours, solo) = (ensemble.controller(i).unwrap(), engine.controller());
                assert_eq!(ours.delivered_count(), solo.delivered_count(), "{policy}: {i}");
                assert_eq!(ours.dropped_count(), solo.dropped_count(), "{policy}: {i}");
                assert_eq!(solo.delivered_count(), 60, "two statuses per step");
                assert_eq!(solo.dropped_count(), 20, "every third reply logs");
            }
            let tail =
                |i: usize| rec.series(&EnsembleEngine::series_name("y1", i)).last().unwrap().1;
            assert!(tail(0) != tail(3), "{policy}: the variants diverge");
        }
    }

    #[test]
    fn factory_replication_outlives_clone_fresh() {
        // A behaviour without a clone_fresh override cannot be *cloned*
        // — but the ensemble replicates by re-invoking the registry
        // factory, so it builds and runs anyway.
        struct Opaque;
        impl StreamerBehavior for Opaque {
            fn name(&self) -> &str {
                "opaque"
            }
            fn input_width(&self) -> usize {
                0
            }
            fn output_width(&self) -> usize {
                1
            }
            fn direct_feedthrough(&self) -> bool {
                false
            }
            fn advance(
                &mut self,
                t: f64,
                _h: f64,
                _u: &[f64],
                y: &mut [f64],
            ) -> Result<(), urt_ode::SolveError> {
                y[0] = t;
                Ok(())
            }
        }
        let mut b = ModelBuilder::new("m");
        let s = b.streamer("opaque", "none");
        b.streamer_out(s, "y", FlowType::scalar());
        b.streamer_feedthrough(s, false);
        b.probe(s, "y", "out");
        let registry = BehaviorRegistry::new().streamer("opaque", || Box::new(Opaque));
        let compiled = elaborate(&b.build(), registry, &validate_gate).expect("elaborates");
        let mut ensemble =
            EnsembleEngine::from_compiled(&compiled, 2, EngineConfig::default()).unwrap();
        let rec = Recorder::new();
        ensemble.set_recorder(rec.clone());
        ensemble.run_until(0.01).unwrap();
        for i in 0..2 {
            let series = rec.series(&EnsembleEngine::series_name("out", i));
            assert!(!series.is_empty(), "instance {i} produced no samples");
        }
    }

    #[test]
    fn ensemble_refuses_bad_step_with_structured_error() {
        let compiled = compile(1.0, 1.0);
        let bad = EngineConfig { step: 0.0, policy: ThreadPolicy::CurrentThread };
        let err = EnsembleEngine::from_compiled(&compiled, 2, bad).unwrap_err();
        assert!(matches!(err, CoreError::InvalidStep { .. }), "{err}");
        assert!(err.to_string().starts_with("URT116: "), "{err}");

        let bad = EngineConfig { step: f64::NAN, policy: ThreadPolicy::DedicatedThreads };
        let err = EnsembleEngine::from_compiled(&compiled, 1, bad).unwrap_err();
        assert!(matches!(err, CoreError::InvalidStep { .. }), "{err}");
    }

    #[test]
    fn variant_errors_name_the_offender() {
        let compiled = compile(1.0, 1.0);
        let bad_streamer = [VariantSpec::new().set("ghost", "rate", 1.0)];
        let err = EnsembleEngine::from_variants(&compiled, &bad_streamer, EngineConfig::default())
            .unwrap_err();
        assert!(err.to_string().contains("ghost"), "{err}");
        let bad_param = [VariantSpec::new().set("plant", "unknown", 1.0)];
        let err = EnsembleEngine::from_variants(&compiled, &bad_param, EngineConfig::default())
            .unwrap_err();
        assert!(err.to_string().contains("unknown"), "{err}");
    }

    #[test]
    fn k1_ensemble_matches_hybrid_engine_bitwise() {
        let compiled = compile(1.5, 2.0);
        let mut ensemble =
            EnsembleEngine::from_compiled(&compiled, 1, EngineConfig::default()).unwrap();
        let erec = Recorder::new();
        ensemble.set_recorder(erec.clone());
        ensemble.run_until(0.05).unwrap();

        let mut engine = HybridEngine::from_compiled(&compiled, EngineConfig::default()).unwrap();
        let hrec = Recorder::new();
        engine.set_recorder(hrec.clone());
        engine.run_until(0.05).unwrap();

        assert_eq!(ensemble.step_count(), engine.step_count());
        assert_eq!(ensemble.time().to_bits(), engine.time().to_bits());
        bit_eq(
            &erec.series(&EnsembleEngine::series_name("out", 0)),
            &hrec.series("out"),
            "K=1 ensemble vs HybridEngine",
        );
    }

    #[test]
    fn relay_topology_replays_bitwise() {
        // source -> relay -> {doubler, squarer}, stepped directly on the
        // network, is the reference for two replays: a compiled model
        // whose capsule relay DPort fans the source out (elaboration
        // lowers it to two flows) at K = 3, and the raw network with its
        // relay node on a hand-wired engine (relay plan rows).
        let src = || {
            FnStreamer::new("src", 0, 1, |t: f64, _h, _u: &[f64], y: &mut [f64]| {
                y[0] = (2.0 * t).sin()
            })
        };
        let dbl =
            || FnStreamer::new("dbl", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| y[0] = 2.0 * u[0]);
        let sq =
            || FnStreamer::new("sq", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| y[0] = u[0] * u[0]);
        let raw = || {
            let mut net = StreamerNetwork::new("fig2ish");
            let s = net.add_streamer(src(), &[], &[("y", FlowType::scalar())]).unwrap();
            let relay = net.add_relay("relay", FlowType::scalar(), 2).unwrap();
            let io = [("u", FlowType::scalar())];
            let d = net.add_streamer(dbl(), &io, &[("y", FlowType::scalar())]).unwrap();
            let q = net.add_streamer(sq(), &io, &[("y", FlowType::scalar())]).unwrap();
            net.flow((s, "y"), (relay, "in")).unwrap();
            net.flow((relay, "out0"), (d, "u")).unwrap();
            net.flow((relay, "out1"), (q, "u")).unwrap();
            (net, d, q)
        };
        let (mut reference, rdbl, rsq) = raw();
        reference.initialize(0.0).unwrap();
        let (mut expect_dbl, mut expect_sq) = (Vec::new(), Vec::new());
        let mut clock = SimClock::new();
        for _ in 0..20 {
            reference.step(0.01).unwrap();
            clock.tick(0.01);
            let t = clock.seconds();
            expect_dbl.push((t, reference.output(rdbl, "y").unwrap()[0]));
            expect_sq.push((t, reference.output(rsq, "y").unwrap()[0]));
        }
        let config = EngineConfig { step: 0.01, policy: ThreadPolicy::CurrentThread };

        let mut b = ModelBuilder::new("relayed");
        let hub = b.capsule("hub");
        b.capsule_dport(hub, "d", FlowType::scalar());
        let s = b.streamer("src", "none");
        b.streamer_out(s, "y", FlowType::scalar());
        b.flow(FlowEnd::Streamer(s, "y".into()), FlowEnd::Capsule(hub, "d".into()));
        for name in ["dbl", "sq"] {
            let n = b.streamer(name, "none");
            b.streamer_in(n, "u", FlowType::scalar());
            b.streamer_out(n, "y", FlowType::scalar());
            b.flow(FlowEnd::Capsule(hub, "d".into()), FlowEnd::Streamer(n, "u".into()));
            b.probe(n, "y", name);
        }
        let registry = BehaviorRegistry::new()
            .streamer("src", move || Box::new(src()))
            .streamer("dbl", move || Box::new(dbl()))
            .streamer("sq", move || Box::new(sq()));
        let compiled = elaborate(&b.build(), registry, &validate_gate).expect("elaborates");
        let mut ensemble = EnsembleEngine::from_compiled(&compiled, 3, config).unwrap();
        let rec = Recorder::new();
        ensemble.set_recorder(rec.clone());
        ensemble.run_until(0.2).unwrap();
        for i in 0..3 {
            for (name, expect) in [("dbl", &expect_dbl), ("sq", &expect_sq)] {
                let got = rec.series(&EnsembleEngine::series_name(name, i));
                bit_eq(&got, expect, &format!("compiled instance {i} ({name})"));
            }
        }

        let (net, d, q) = raw();
        let mut engine = HybridEngine::new(Controller::new("ev"), config);
        let g = engine.add_group(net).unwrap();
        let hrec = Recorder::new();
        engine.set_recorder(hrec.clone());
        engine.add_probe(g, d, "y", "dbl").unwrap();
        engine.add_probe(g, q, "y", "sq").unwrap();
        engine.run_until(0.2).unwrap();
        bit_eq(&hrec.series("dbl"), &expect_dbl, "relay rows (dbl)");
        bit_eq(&hrec.series("sq"), &expect_sq, "relay rows (sq)");
    }

    #[test]
    fn variants_apply_parameter_overrides_bitwise() {
        // Instance i of a 3-variant ensemble must match a standalone
        // HybridEngine whose behaviours were *constructed* with the same
        // parameters, bit for bit.
        let compiled = compile(1.0, 1.0);
        let variants = [
            VariantSpec::new(),
            VariantSpec::new().set("plant", "x0[0]", 2.5),
            VariantSpec::new().set("plant", "rate", 4.0).set("plant", "x0[0]", 0.5),
        ];
        let mut ensemble =
            EnsembleEngine::from_variants(&compiled, &variants, EngineConfig::default()).unwrap();
        let rec = Recorder::new();
        ensemble.set_recorder(rec.clone());
        ensemble.run_until(0.02).unwrap();

        for (i, (rate, x0)) in [(1.0, 1.0), (1.0, 2.5), (4.0, 0.5)].iter().enumerate() {
            let mut engine =
                HybridEngine::from_compiled(&compile(*rate, *x0), EngineConfig::default()).unwrap();
            let hrec = Recorder::new();
            engine.set_recorder(hrec.clone());
            engine.run_until(0.02).unwrap();
            bit_eq(
                &rec.series(&EnsembleEngine::series_name("out", i)),
                &hrec.series("out"),
                &format!("variant {i}"),
            );
        }
        // The overrides actually changed the trajectories.
        let s0 = rec.series("out#0");
        let s1 = rec.series("out#1");
        let s2 = rec.series("out#2");
        assert!(s0.last().unwrap().1 != s1.last().unwrap().1);
        assert!(s1.last().unwrap().1 != s2.last().unwrap().1);
    }

    #[test]
    fn per_lane_and_batched_kernels_are_bit_identical() {
        let variants = [
            VariantSpec::new(),
            VariantSpec::new().set("plant", "x0[0]", 2.5),
            VariantSpec::new().set("plant", "rate", 4.0).set("plant", "x0[0]", 0.5),
        ];
        let run = |kernel: EnsembleKernel| {
            let compiled = compile(1.0, 1.0);
            let mut ensemble =
                EnsembleEngine::from_variants(&compiled, &variants, EngineConfig::default())
                    .unwrap();
            ensemble.set_kernel(kernel);
            let rec = Recorder::new();
            ensemble.set_recorder(rec.clone());
            ensemble.run_until(0.05).unwrap();
            // The plant row (Rk4 OdeStreamer) is batch-eligible; the
            // FnStreamer doubler row is not.
            let eligible: usize =
                ensemble.groups.iter().map(|g| g.batch_rows.iter().flatten().count()).sum();
            assert_eq!(eligible, 1, "exactly the ODE row is batch-eligible");
            rec
        };
        let scalar = run(EnsembleKernel::PerLane);
        let batched = run(EnsembleKernel::Batched);
        for i in 0..variants.len() {
            let name = EnsembleEngine::series_name("out", i);
            bit_eq(&scalar.series(&name), &batched.series(&name), &format!("kernel axis lane {i}"));
        }
    }

    #[test]
    fn solvers_without_batched_kernels_stay_on_the_per_lane_path() {
        let mut b = ModelBuilder::new("m");
        let p = b.streamer("plant", "none");
        b.streamer_out(p, "y", FlowType::scalar());
        b.streamer_feedthrough(p, false);
        b.probe(p, "y", "out");
        let registry = BehaviorRegistry::new().streamer("plant", || {
            Box::new(OdeStreamer::new(
                "plant",
                Decay { rate: 1.0 },
                SolverKind::Heun.create(),
                &[1.0],
                1e-3,
            ))
        });
        let compiled = elaborate(&b.build(), registry, &validate_gate).expect("elaborates");
        let mut ensemble =
            EnsembleEngine::from_compiled(&compiled, 3, EngineConfig::default()).unwrap();
        let rec = Recorder::new();
        ensemble.set_recorder(rec.clone());
        ensemble.run_until(0.02).unwrap();
        let eligible: usize =
            ensemble.groups.iter().map(|g| g.batch_rows.iter().flatten().count()).sum();
        assert_eq!(eligible, 0, "Heun has no batched kernel: no row may batch");
        assert!(rec.series("out#0").last().unwrap().1 < 1.0);
    }

    /// Cross-thread model: a non-feedthrough ramp on thread 0 feeding a
    /// non-feedthrough witness on thread 1 (lowered to a channel).
    fn cross_thread_model() -> (UnifiedModel, BehaviorRegistry) {
        #[derive(Clone)]
        struct Ramp {
            slope: f64,
        }
        impl StreamerBehavior for Ramp {
            fn name(&self) -> &str {
                "ramp"
            }
            fn input_width(&self) -> usize {
                0
            }
            fn output_width(&self) -> usize {
                1
            }
            fn direct_feedthrough(&self) -> bool {
                false
            }
            fn advance(
                &mut self,
                t: f64,
                _h: f64,
                _u: &[f64],
                y: &mut [f64],
            ) -> Result<(), urt_ode::SolveError> {
                y[0] = self.slope * t;
                Ok(())
            }
            fn clone_fresh(&self) -> Option<Box<dyn StreamerBehavior>> {
                Some(Box::new(self.clone()))
            }
            fn set_param(&mut self, name: &str, value: f64) -> bool {
                if name == "slope" {
                    self.slope = value;
                    true
                } else {
                    false
                }
            }
        }
        #[derive(Clone)]
        struct Witness;
        impl StreamerBehavior for Witness {
            fn name(&self) -> &str {
                "witness"
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
                _h: f64,
                u: &[f64],
                y: &mut [f64],
            ) -> Result<(), urt_ode::SolveError> {
                y[0] = u[0];
                Ok(())
            }
            fn clone_fresh(&self) -> Option<Box<dyn StreamerBehavior>> {
                Some(Box::new(self.clone()))
            }
        }
        let mut b = ModelBuilder::new("xg");
        let r = b.streamer("ramp", "none");
        let w = b.streamer("witness", "none");
        b.streamer_out(r, "y", FlowType::scalar());
        b.streamer_in(w, "u", FlowType::scalar());
        b.streamer_out(w, "y", FlowType::scalar());
        b.streamer_feedthrough(r, false);
        b.streamer_feedthrough(w, false);
        b.assign_thread(r, 0);
        b.assign_thread(w, 1);
        b.flow_between_streamers(r, "y", w, "u");
        b.probe(r, "y", "src");
        b.probe(w, "y", "wit");
        let registry = BehaviorRegistry::new()
            .streamer("ramp", || Box::new(Ramp { slope: 100.0 }))
            .streamer("witness", || Box::new(Witness));
        (b.build(), registry)
    }

    #[test]
    fn threaded_ensemble_matches_local_with_channels() {
        let run = |policy| {
            let (model, registry) = cross_thread_model();
            let compiled = elaborate(&model, registry, &validate_gate).expect("elaborates");
            assert_eq!(compiled.group_count(), 2);
            assert_eq!(compiled.cross_flow_count(), 1);
            let variants = [
                VariantSpec::new(),
                VariantSpec::new().set("ramp", "slope", -3.0),
                VariantSpec::new().set("ramp", "slope", 7.0),
                VariantSpec::new().set("ramp", "slope", 0.0),
            ];
            let mut ensemble = EnsembleEngine::from_variants(
                &compiled,
                &variants,
                EngineConfig { step: 0.01, policy },
            )
            .unwrap();
            let rec = Recorder::new();
            ensemble.set_recorder(rec.clone());
            ensemble.run_until(0.25).unwrap();
            rec
        };
        let local = run(ThreadPolicy::CurrentThread);
        let threaded = run(ThreadPolicy::DedicatedThreads);
        for i in 0..4 {
            for series in ["src", "wit"] {
                let name = EnsembleEngine::series_name(series, i);
                bit_eq(&local.series(&name), &threaded.series(&name), &name);
            }
        }
        // One-step channel delay, per instance: wit[k] == src[k-1].
        for i in 0..4 {
            let src = local.series(&EnsembleEngine::series_name("src", i));
            let wit = local.series(&EnsembleEngine::series_name("wit", i));
            assert_eq!(wit[0].1.to_bits(), 0.0f64.to_bits(), "instance {i}: initial sample");
            for k in 1..wit.len() {
                assert_eq!(
                    wit[k].1.to_bits(),
                    src[k - 1].1.to_bits(),
                    "instance {i}: one-step delay at {k}"
                );
            }
        }
    }

    #[test]
    fn ensemble_run_paced_matches_run_until() {
        use crate::pacer::PacedConfig;
        let compiled = compile(2.0, 1.0);
        let free = {
            let mut e =
                EnsembleEngine::from_compiled(&compiled, 3, EngineConfig::default()).unwrap();
            let rec = Recorder::new();
            e.set_recorder(rec.clone());
            e.run_until(0.05).unwrap();
            rec
        };
        // Locally every macro step is a cycle; under DedicatedThreads the
        // link-free schedule runs the segment as one batch, paced at the
        // batch barrier.
        for (policy, samples) in
            [(ThreadPolicy::CurrentThread, 50), (ThreadPolicy::DedicatedThreads, 1)]
        {
            let mut e =
                EnsembleEngine::from_compiled(&compiled, 3, EngineConfig { step: 1e-3, policy })
                    .unwrap();
            assert_eq!(e.step_budget_ns(), None, "decay chain declares no budget");
            let rec = Recorder::new();
            e.set_recorder(rec.clone());
            let report =
                e.run_paced(0.05, PacedConfig::new().with_rate(1e9).with_budget_ns(1e12)).unwrap();
            assert_eq!(report.steps, 50, "{policy}");
            assert_eq!(report.samples, samples, "{policy}");
            assert_eq!(report.misses, 0, "{policy}");
            assert_eq!(report.batched, samples == 1, "{policy}");
            for i in 0..3 {
                let name = EnsembleEngine::series_name("out", i);
                bit_eq(&free.series(&name), &rec.series(&name), &name);
            }
        }
    }
}
