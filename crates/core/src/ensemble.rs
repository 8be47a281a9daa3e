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
//! width from the plan. The plans, and the dense lanes of every SPort
//! link, probe and cross-group channel, come resolved from the
//! [`CompiledSystem`]; construction only clones the plans, invokes each
//! behaviour and capsule factory once per instance (checking every
//! replica against its declaration) and connects each instance
//! controller's SPort outboxes. Per-instance parameter overrides are
//! applied through [`StreamerBehavior::set_param`] before initialisation
//! ([`VariantSpec`]).
//!
//! One macro step, per group: capsule→streamer SPort messages, collected
//! from each instance controller's external outboxes, are delivered to
//! their lanes (`on_signal`), cross-group channel inputs are
//! latched, the plan is replayed, channel outputs are published and
//! probes are recorded. Signals the behaviours of *linked* rows (rows
//! with at least one SPort link) emit on linked SPorts are then injected
//! into their instance's controller — per instance in group order, then
//! plan order, exactly as [`StreamerNetwork::step`] emits them — and
//! every controller runs to the post-step instant. An engine without
//! SPort links skips the injection.
//!
//! Per-row work is done only where it can land. A row with no SPort link
//! has nowhere to send a signal, so its lanes are not drained every step:
//! what they emit is dropped every `DRAIN_CADENCE` (1024) macro steps and at
//! the end of every public step call, paced cycle and threaded worker
//! batch, so an unlinked emitter holds at most one cadence of signals. A
//! batched row owns its lanes' state (an ODE row's continuous states and
//! solver clock, a closed-form row's closures) for good: at start, right
//! after `initialize`, each row is offered to its first lane's
//! [`OdeLane::row_kernel`](urt_dataflow::streamer::OdeLane::row_kernel),
//! and a row that gets a kernel is stepped by one
//! [`RowKernel::advance`] per macro step from then on. Its lanes'
//! `advance` is never called, so they emit nothing and are never drained
//! per step. An ODE row's sub-step schedule and clock live in the
//! kernel, not here.
//!
//! Recording a step takes no lock: each group writes the post-step
//! instant and its probes' `K` instance values as one row of its
//! pre-sized *probe column*, and the column reaches the [`Recorder`] in
//! one [`SeriesHandle::extend_strided`] per series when it flushes: when
//! it is full, at the end of every public step call (a failed one
//! included), after every paced cycle (before the cycle's closing clock
//! reading) and at the end of every threaded worker batch. Between public
//! calls every column is empty, so the recorder holds exactly the samples
//! a per-sample push would have left, in the same order.
//!
//! Under [`ThreadPolicy::DedicatedThreads`] each group steps on its own
//! worker for the length of a `run_until` segment, in batches of macro
//! steps: a batch is one macro step while SPort links exist (a signal
//! exchange may be due after any step), otherwise as long as the segment
//! allows (capped by [`HybridEngine::set_max_batch`]), with the
//! controllers catching up on the coordinator while the workers step.
//! Both SPort directions cross between the coordinator and a worker the
//! same way: as buffers swapped in the per-batch hand-off, so the steady
//! state allocates nothing and takes no lock per message.
//!
//! **Determinism is the correctness anchor**: instance `i` of a
//! `K`-ensemble is bit-identical to a standalone [`HybridEngine`] run
//! with the same variant parameters — same plan semantics as
//! [`StreamerNetwork::step`], same accumulated group time, same
//! cross-group channel parity slots, same drift-free probe timestamps,
//! same controller message order. The equivalence suites pin this for
//! both thread policies.

use crate::elaborate::CompiledSystem;
use crate::engine::EngineConfig;
use crate::error::CoreError;
use crate::pacer::{PacedConfig, PacedReport, PacedRunner};
use crate::recorder::{Recorder, SeriesHandle};
use crate::sync::{Mutex, SpinBarrier};
use crate::threading::ThreadPolicy;
use crate::time::SimClock;
use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use urt_dataflow::graph::{NodeId, PlanCopy, StepPlan};
use urt_dataflow::streamer::{LaneSlots, RowKernel, StreamerBehavior};
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

/// Values a group's [`ProbeColumn`] holds before it must flush (8 KB);
/// a row wider than this still gets a one-row column.
const COLUMN_VALUES: usize = 1024;

/// Macro steps between drains of the rows no SPort link routes from: the
/// most signals an unlinked lane that emits once per step ever holds.
const DRAIN_CADENCE: u64 = 1024;

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

/// `inbound[inbox * K + i]`: the messages instance `i`'s capsule sent
/// into one group's `inbox`-th SPort link, in send order, awaiting
/// delivery at the start of the next macro step.
type Inbound = Vec<Vec<Message>>;

/// One end of a cross-group channel, held by the group it touches.
struct ChannelEnd {
    bufs: ChannelBufs,
    /// The channel's lanes per instance.
    width: usize,
    /// Per-instance lane copies: from the dense output array into the
    /// channel at the producer (one copy of the output port), from the
    /// channel into the external-input staging at the consumer (one per
    /// record field the input lays out elsewhere).
    copies: Vec<PlanCopy>,
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

/// One group's probe samples since the last flush, row-major: one row
/// per macro step holding the post-step instant, then the `K` instance
/// values of each recording probe, in probe order. Recording a step is
/// plain stores into the pre-sized rows; [`ProbeColumn::flush`] appends
/// them to every series with one lock per series.
struct ProbeColumn {
    /// Rows, reserved once for a whole number of them; the first pass
    /// through the column grows it within that reservation, later passes
    /// overwrite it in place.
    values: Vec<f64>,
    /// Values written since the last flush.
    len: usize,
    /// Values per row: `1 + K ×` recording probes.
    stride: usize,
    /// Values a full column holds.
    limit: usize,
    k: usize,
}

impl ProbeColumn {
    /// A column for `probes` and their interned series, or `None` when
    /// none records (no probes, or only zero-width ports).
    fn new(probes: &[Probe], k: usize) -> Option<Self> {
        let stride = 1 + k * probes.iter().filter(|p| p.lane.is_some()).count();
        if stride == 1 {
            return None;
        }
        let limit = stride * (COLUMN_VALUES / stride).max(1);
        Some(ProbeColumn { values: Vec::with_capacity(limit), len: 0, stride, limit, k })
    }

    /// Writes one row: instant `t`, then each probe's lane of every
    /// instance's dense outputs `outs` (`outw` lanes per instance).
    fn record(&mut self, probes: &[Probe], t: f64, outs: &[f64], outw: usize) {
        if self.values.len() == self.len {
            self.values.resize(self.len + self.stride, 0.0);
        }
        let row = &mut self.values[self.len..self.len + self.stride];
        row[0] = t;
        let mut at = 1;
        for lane in probes.iter().filter_map(|p| p.lane) {
            for i in 0..self.k {
                row[at] = outs[i * outw + lane];
                at += 1;
            }
        }
        self.len += self.stride;
    }

    fn is_full(&self) -> bool {
        self.len == self.limit
    }

    /// Appends every buffered row to its series and empties the column.
    fn flush(&mut self, probes: &[Probe]) {
        if self.len == 0 {
            return;
        }
        let rows = &self.values[..self.len];
        let mut lane = 1;
        for p in probes.iter().filter(|p| p.lane.is_some()) {
            for series in &p.handles {
                series.extend_strided(rows, self.stride, lane);
                lane += 1;
            }
        }
        self.len = 0;
    }
}

/// The streamer end of one SPort link: the capsule's sends collect in
/// external outbox `endpoint` of every instance's controller and are
/// delivered to the linked row's lanes.
#[derive(Clone, Copy)]
struct Inbox {
    /// Plan row of the linked streamer.
    row: usize,
    endpoint: usize,
}

/// Swaps every inbox's pending capsule→streamer messages out of the
/// instance controllers' outboxes into `inbound`, whose buffers must be
/// drained; the controllers keep those empty buffers, capacity included.
fn collect_inbound(inboxes: &[Inbox], controllers: &mut [Controller], inbound: &mut Inbound) {
    let k = controllers.len();
    for (j, inbox) in inboxes.iter().enumerate() {
        for (controller, buf) in controllers.iter_mut().zip(&mut inbound[j * k..(j + 1) * k]) {
            debug_assert!(buf.is_empty(), "inbound buffers are drained before a swap");
            std::mem::swap(controller.external_outbox(inbox.endpoint), buf);
        }
    }
}

/// One group's state: the shared routing plan, `K` instance-major copies
/// of the dense per-instance arrays, and the group's ends of every
/// channel, probe and SPort link.
struct GroupState {
    plan: StepPlan,
    /// `behaviours[r * K + i]` is instance `i` of plan row `r`, rows in
    /// plan order.
    behaviours: Vec<Box<dyn StreamerBehavior>>,
    /// `batch_rows[r]` is the kernel that owns the `r`-th streamer row's
    /// lanes, `None` for a row that steps lane by lane. Built once at
    /// start, right after `initialize`.
    batch_rows: Vec<Option<Box<dyn RowKernel>>>,
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
    /// The probes' samples not yet in the recorder; `None` while nothing
    /// records. Empty between the engine's public calls.
    column: Option<ProbeColumn>,
    inboxes: Vec<Inbox>,
    inbound: Inbound,
    /// `routes[node]`: the node's linked SPorts as `(sport, link)` pairs —
    /// direct indexing to the node, then a scan over its (almost always
    /// 0–2) links. A node with none is an unlinked row.
    routes: Vec<Vec<(String, usize)>>,
    emitted: Emitted,
}

/// Drains the signals `b` emitted and routes those on linked SPorts into
/// `out`; signals on `b`'s unlinked SPorts are dropped, as on the network
/// path. Called for lanes of linked rows only.
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
            time: 0.0,
            incoming: Vec::new(),
            outgoing: Vec::new(),
            probes: Vec::new(),
            column: None,
            inboxes: Vec::new(),
            inbound: Vec::new(),
        }
    }

    /// One macro step of all `k` instances: deliver the collected
    /// capsule messages, latch channel inputs (slot `step % 2`), replay
    /// the plan, publish channel outputs (slot `(step + 1) % 2`) and
    /// record probes at the post-step instant `t` into the probe column,
    /// flushing it when full; every [`DRAIN_CADENCE`] steps, drop what the
    /// unlinked rows emitted. `step` is the pre-step macro-step count.
    fn macro_step(&mut self, h: f64, k: usize, step: u64, t: f64) -> Result<(), CoreError> {
        for (inbox, per_instance) in self.inboxes.iter().zip(self.inbound.chunks_mut(k)) {
            for (i, buf) in per_instance.iter_mut().enumerate() {
                for msg in buf.drain(..) {
                    self.behaviours[inbox.row * k + i].on_signal(&msg);
                }
            }
        }
        let extw = self.plan.ext_in_width();
        for ch in &self.incoming {
            let src = ch.bufs[(step % 2) as usize].lock();
            for c in &ch.copies {
                c.run(k, &src, ch.width, &mut self.ext, extw);
            }
        }
        self.replay(h, k)?;
        let outw = self.plan.out_width();
        for ch in &self.outgoing {
            let mut dst = ch.bufs[((step + 1) % 2) as usize].lock();
            for c in &ch.copies {
                c.run(k, &self.outs, outw, &mut dst, ch.width);
            }
        }
        if let Some(column) = &mut self.column {
            column.record(&self.probes, t, &self.outs, outw);
            if column.is_full() {
                column.flush(&self.probes);
            }
        }
        if (step + 1).is_multiple_of(DRAIN_CADENCE) {
            self.drain_unlinked(k);
        }
        Ok(())
    }

    /// Ends a stretch of macro steps: appends the probe column to the
    /// recorder, leaving it empty, and drops what the unlinked rows
    /// emitted.
    fn flush(&mut self, k: usize) {
        if let Some(column) = &mut self.column {
            column.flush(&self.probes);
        }
        self.drain_unlinked(k);
    }

    /// Drains and drops the signals of every row with no SPort link,
    /// which have nowhere to go.
    fn drain_unlinked(&mut self, k: usize) {
        for (pn, lanes) in self.plan.nodes().iter().zip(self.behaviours.chunks_mut(k)) {
            if self.routes[pn.node.index()].is_empty() {
                lanes.iter_mut().for_each(|b| drop(b.take_emitted()));
            }
        }
    }

    /// Replays the plan once, advancing all `k` instances by `h`: the
    /// shared [`StepPlan::replay`] walk, each row stepped through its
    /// row kernel when batched, lane by lane otherwise, and the
    /// lanes of linked rows drained.
    fn replay(&mut self, h: f64, k: usize) -> Result<(), CoreError> {
        let t = self.time;
        let inw = self.plan.in_width();
        let outw = self.plan.out_width();
        let (behaviours, batch_rows) = (&mut self.behaviours, &mut self.batch_rows);
        let (routes, emitted) = (&self.routes, &mut self.emitted);
        self.plan.replay(
            k,
            &self.ext,
            &mut self.ins,
            &mut self.outs,
            |r, pn, ins, outs| -> Result<(), CoreError> {
                if let Some(row) = batch_rows.get_mut(r).and_then(Option::as_mut) {
                    let u_at = LaneSlots { stride: inw, offset: pn.in_offset, width: pn.in_width };
                    let y_at =
                        LaneSlots { stride: outw, offset: pn.out_offset, width: pn.out_width };
                    return row
                        .advance(t, h, ins, u_at, outs, y_at)
                        .map_err(|e| CoreError::Flow(e.into()));
                }
                let routes = &routes[pn.node.index()];
                for (i, b) in behaviours[r * k..(r + 1) * k].iter_mut().enumerate() {
                    let ui = i * inw + pn.in_offset;
                    let yi = i * outw + pn.out_offset;
                    b.advance(t, h, &ins[ui..ui + pn.in_width], &mut outs[yi..yi + pn.out_width])
                        .map_err(|e| CoreError::Flow(e.into()))?;
                    if !routes.is_empty() {
                        route_emitted(b.as_mut(), routes, &mut emitted[i]);
                    }
                }
                Ok(())
            },
        )?;
        self.time += h;
        Ok(())
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
/// # use urt_core::elaborate::{elaborate, BehaviorRegistry};
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
/// # let compiled = elaborate(&b.build(), registry).unwrap();
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
    lifecycle: Lifecycle,
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

/// Where an engine is in its life, checked once on entry to every step
/// path (the check the hot path already paid for start-up).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Lifecycle {
    /// Built; behaviours and controllers not yet started.
    Fresh,
    /// Started and stepping.
    Running,
    /// The macro step after `step` completed ones failed: the engine
    /// refuses to step on.
    Failed { step: u64 },
}

impl EnsembleEngine {
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
    /// before initialisation. Each group runs a clone of the compiled
    /// system's [`StepPlan`]; every instance, 0 included, invokes each
    /// row's behaviour factory once and builds its own controller, so
    /// every behaviour kind replicates. The compiled SPort link, probe
    /// and channel tables are already dense: they are widened to all `K`
    /// instances as they are.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidStep`] (`URT116`) if `config.step` is not
    ///   positive and finite.
    /// * [`CoreError::Engine`] for an empty variant list, an override
    ///   naming an unknown streamer, or a parameter the behaviour does not
    ///   recognise.
    /// * [`CoreError::Elaborate`] (`URT114`), naming the streamer and the
    ///   instance, if a factory's behaviour disagrees with the declared
    ///   DPort widths or feedthrough flag.
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

        let mut groups = Vec::with_capacity(compiled.plans.len());
        for (gi, plan) in compiled.plans.iter().enumerate() {
            let mut behaviours = Vec::with_capacity(plan.nodes().len() * k);
            for pn in plan.nodes() {
                for (i, overrides) in resolved.iter().enumerate() {
                    let mut b = compiled.behavior(gi, pn.node, i)?;
                    for &(og, on, param, value) in overrides {
                        if og == gi && on == pn.node && !b.set_param(param, value) {
                            return Err(engine_err(format!(
                                "variant {i}: streamer `{}` does not recognise parameter \
                                 `{param}`",
                                plan.shape(pn.node)?.name
                            )));
                        }
                    }
                    behaviours.push(b);
                }
            }
            groups.push(GroupState::new(plan.clone(), behaviours, k));
        }
        for p in &compiled.probes {
            let probe = Probe { lane: p.lane, series: p.series.clone(), handles: Vec::new() };
            groups[p.group].probes.push(probe);
        }
        for cf in &compiled.cross_flows {
            let width = cf.width;
            let slot = || Mutex::new(vec![0.0; k * width]);
            let bufs: ChannelBufs = Arc::new([slot(), slot()]);
            let publish = vec![PlanCopy { src: cf.out_offset, dst: 0, len: width }];
            let producer = ChannelEnd { bufs: Arc::clone(&bufs), width, copies: publish };
            groups[cf.from_group].outgoing.push(producer);
            let consumer = ChannelEnd { bufs, width, copies: cf.loads.clone() };
            groups[cf.to_group].incoming.push(consumer);
        }
        // Every instance controller is built from one compiled system, so
        // connecting a link hands each the same outbox index.
        let mut controllers = Vec::with_capacity(k);
        for _ in 0..k {
            controllers.push(compiled.controller()?);
        }
        let mut links = Vec::with_capacity(compiled.links.len());
        for (link, l) in compiled.links.iter().enumerate() {
            let mut endpoint = 0;
            for controller in &mut controllers {
                endpoint = controller.connect_external(l.capsule, &l.capsule_port)?;
            }
            let gs = &mut groups[l.group];
            gs.routes[l.node.index()].push((l.sport.clone(), link));
            gs.inboxes.push(Inbox { row: l.row, endpoint });
            gs.inbound.resize_with(gs.inbound.len() + k, Vec::new);
            links.push((l.capsule, l.capsule_port.clone()));
        }
        Ok(EnsembleEngine {
            config,
            clock: SimClock::new(),
            k,
            groups,
            controllers,
            links,
            plain_series: false,
            max_batch: DEFAULT_MAX_BATCH,
            step_budget_ns: compiled.step_budget_ns(),
            lifecycle: Lifecycle::Fresh,
        })
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
    /// lookup-free, and sizing each group's probe column (the one
    /// allocation recording needs).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        let mut groups = std::mem::take(&mut self.groups);
        for gs in &mut groups {
            for p in &mut gs.probes {
                p.handles = self.series_handles(&recorder, &p.series);
            }
            // Columns are empty between public calls: none loses a sample.
            debug_assert!(gs.column.as_ref().is_none_or(|c| c.len == 0));
            gs.column = ProbeColumn::new(&gs.probes, self.k);
        }
        self.groups = groups;
    }

    fn start_if_needed(&mut self) -> Result<(), CoreError> {
        match self.lifecycle {
            Lifecycle::Running => return Ok(()),
            Lifecycle::Failed { step } => {
                return Err(engine_err(format!(
                    "macro step {} (from t = {}) failed; the engine cannot step on",
                    step + 1,
                    self.clock.seconds()
                )))
            }
            Lifecycle::Fresh => {}
        }
        let t0 = self.clock.seconds();
        for gs in &mut self.groups {
            gs.time = t0;
            for b in &mut gs.behaviours {
                b.initialize(t0).map_err(|e| CoreError::Flow(e.into()))?;
            }
            // Every lane is at t0 here: each row's first lane decides,
            // once, whether a kernel takes the row's lanes over.
            gs.batch_rows = gs
                .behaviours
                .chunks(self.k)
                .map(|row| row[0].as_ode_lane()?.row_kernel(row))
                .collect();
        }
        for controller in &mut self.controllers {
            if !controller.is_started() {
                controller.start()?;
            }
        }
        self.lifecycle = Lifecycle::Running;
        Ok(())
    }

    /// Flushes every group: probe columns into the recorder, unlinked
    /// rows' signals dropped.
    fn flush_groups(&mut self) {
        let k = self.k;
        self.groups.iter_mut().for_each(|gs| gs.flush(k));
    }

    /// Ends a public step call: flushes every group, so the recorder
    /// holds each sample taken (a failed step's included), and marks the
    /// engine failed if `result` is a step failure. A paced run's
    /// [`CoreError::DeadlineOverrun`] is not one: every step it took
    /// completed, so the engine stays usable.
    fn settle<T>(&mut self, result: Result<T, CoreError>) -> Result<T, CoreError> {
        self.flush_groups();
        if let Err(e) = &result {
            if !matches!(e, CoreError::DeadlineOverrun { .. }) {
                self.lifecycle = Lifecycle::Failed { step: self.clock.step_count() };
            }
        }
        result
    }

    /// Runs until simulation time `t_end`, in macro steps of
    /// `config.step`.
    ///
    /// # Errors
    ///
    /// [`CoreError::NonFiniteTime`] (`URT118`) for a `t_end` that is not
    /// a finite number, before anything runs; the engine stays usable.
    /// Otherwise propagates solver, runtime and thread failures. After
    /// one, the engine is failed: [`EnsembleEngine::time`] and
    /// [`EnsembleEngine::step_count`] report the last macro step every
    /// group completed, and every later step call returns
    /// [`CoreError::Engine`] (`URT111`) naming the failed step.
    ///
    /// Under [`ThreadPolicy::DedicatedThreads`] the groups that did not
    /// fail may already have stepped, and recorded, the rest of the
    /// failed batch: their state and probe series run past
    /// `step_count()`. A 100-step run whose second group fails in step 51
    /// leaves 100 samples of the first group in the recorder, against 51
    /// under [`ThreadPolicy::CurrentThread`].
    pub fn run_until(&mut self, t_end: f64) -> Result<(), CoreError> {
        crate::time::check_finite("run horizon", t_end)?;
        self.start_if_needed()?;
        let n = crate::time::steps_until(self.clock.seconds(), t_end, self.config.step);
        let result = match self.config.policy {
            ThreadPolicy::CurrentThread => (0..n).try_for_each(|_| self.macro_step()),
            ThreadPolicy::DedicatedThreads => self.run_threaded(n, None),
        };
        self.settle(result)
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
    /// precedence and the overrun policies.
    ///
    /// Under [`ThreadPolicy::DedicatedThreads`] pacing happens at the
    /// batch barrier — the only rendezvous the threaded schedule has —
    /// and a batch of `n` macro steps is measured as one cycle against
    /// `n ×` the step budget. Results are bit-identical to
    /// [`EnsembleEngine::run_until`] over the same span.
    ///
    /// # Errors
    ///
    /// [`CoreError::NonFiniteTime`] (`URT118`) for a `t_end` that is not
    /// a finite number and [`CoreError::InvalidPacing`] (`URT117`) for a
    /// rate or budget that is not a positive, finite number, both before
    /// anything runs; [`CoreError::DeadlineOverrun`] when an
    /// [`OverrunPolicy::SafetyStop`](crate::pacer::OverrunPolicy::SafetyStop)
    /// run exhausts its consecutive-miss tolerance, plus the usual solver,
    /// runtime and thread failures.
    pub fn run_paced(&mut self, t_end: f64, config: PacedConfig) -> Result<PacedReport, CoreError> {
        crate::time::check_finite("run horizon", t_end)?;
        config.check()?;
        self.start_if_needed()?;
        let mut runner = PacedRunner::new(config, self.step_budget_ns, self.config.step);
        let n = crate::time::steps_until(self.clock.seconds(), t_end, self.config.step);
        let result = if matches!(self.config.policy, ThreadPolicy::DedicatedThreads)
            && !self.groups.is_empty()
        {
            self.run_threaded(n, Some(&mut runner))
        } else {
            (0..n).try_for_each(|_| {
                runner.begin();
                self.macro_step()?;
                // The cycle's samples are in the recorder before its
                // closing clock reading.
                self.flush_groups();
                runner.end(1, self.clock.seconds())
            })
        };
        self.settle(result)?;
        Ok(runner.finish())
    }

    /// One macro step of all `K` instances on the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates solver and runtime failures, which leave the engine
    /// failed (see [`EnsembleEngine::run_until`]).
    pub fn step_once(&mut self) -> Result<(), CoreError> {
        self.start_if_needed()?;
        let result = self.macro_step();
        self.settle(result)
    }

    /// One macro step of every group, then signal routing and the
    /// controllers. The clock only advances once every group stepped.
    fn macro_step(&mut self) -> Result<(), CoreError> {
        let h = self.config.step;
        let step = self.clock.step_count();
        let mut next = self.clock.clone();
        next.tick(h);
        // Post-step derived instant: the same drift-free product both
        // thread policies stamp on probes and hand to the controllers.
        let t = next.seconds();
        for gs in &mut self.groups {
            collect_inbound(&gs.inboxes, &mut self.controllers, &mut gs.inbound);
            gs.macro_step(h, self.k, step, t)?;
        }
        self.clock = next;
        if !self.links.is_empty() {
            inject_signals(
                &mut self.controllers,
                &self.links,
                self.groups.iter_mut().map(|gs| &mut gs.emitted),
            )?;
        }
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
            return (0..n_steps).try_for_each(|_| self.macro_step());
        }
        struct Batch {
            len: u64,
            clock: SimClock,
            /// Drained signal buffers, swapped for the group's own.
            spare: Emitted,
            /// Collected capsule messages, swapped for the group's own
            /// (drained) buffers.
            inbound: Inbound,
        }
        struct Done {
            result: Result<(), CoreError>,
            /// Macro steps of the batch the group completed.
            completed: u64,
            emitted: Emitted,
            /// The group's drained inbound buffers, the next batch's
            /// collection target.
            inbound: Inbound,
        }
        /// The coordinator's end of one group worker, with the spare
        /// buffers of both SPort directions.
        struct Worker {
            batch_tx: Sender<Batch>,
            done_rx: Receiver<Done>,
            inboxes: Vec<Inbox>,
            emitted: Emitted,
            inbound: Inbound,
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
                workers.push(Worker {
                    batch_tx,
                    done_rx,
                    inboxes: gs.inboxes.clone(),
                    emitted: vec![Vec::new(); k],
                    inbound: vec![Vec::new(); gs.inbound.len()],
                });
                scope.spawn(move || {
                    while let Ok(Batch { len, mut clock, spare, inbound }) = batch_rx.recv() {
                        let drained = std::mem::replace(&mut gs.inbound, inbound);
                        let mut result = Ok(());
                        let mut completed = 0;
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
                                completed += u64::from(result.is_ok());
                            }
                        }
                        gs.flush(k);
                        let emitted = std::mem::replace(&mut gs.emitted, spare);
                        let done = Done { result, completed, emitted, inbound: drained };
                        if done_tx.send(done).is_err() {
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
                let start = clock.clone();
                for w in &mut workers {
                    collect_inbound(&w.inboxes, controllers, &mut w.inbound);
                    let batch = Batch {
                        len,
                        clock: clock.clone(),
                        spare: std::mem::take(&mut w.emitted),
                        inbound: std::mem::take(&mut w.inbound),
                    };
                    w.batch_tx.send(batch).map_err(|_| engine_err("worker gone".into()))?;
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
                // Report the first failure in group order, with the clock
                // rewound to the last step every group completed — where
                // the local path leaves it.
                let mut completed = len;
                let mut failure = None;
                for (gi, w) in workers.iter_mut().enumerate() {
                    let result = match w.done_rx.recv() {
                        Ok(done) => {
                            w.emitted = done.emitted;
                            w.inbound = done.inbound;
                            completed = completed.min(done.completed);
                            done.result
                        }
                        Err(_) => {
                            completed = 0;
                            Err(CoreError::ThreadLost { group: gi })
                        }
                    };
                    if let Err(e) = result {
                        failure.get_or_insert(e);
                    }
                }
                if let Some(e) = failure {
                    *clock = start;
                    (0..completed).for_each(|_| clock.tick(h));
                    return Err(e);
                }
                if linked {
                    inject_signals(controllers, links, workers.iter_mut().map(|w| &mut w.emitted))?;
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
    use crate::elaborate::{elaborate, BehaviorRegistry};
    use crate::engine::HybridEngine;
    use crate::model::{FlowEnd, ModelBuilder, UnifiedModel};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use urt_dataflow::flowtype::FlowType;
    use urt_dataflow::streamer::{FnStreamer, OdeStreamer, PerLane};
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
        elaborate(&model, registry).expect("elaborates")
    }

    fn bit_eq(a: &[(f64, f64)], b: &[(f64, f64)], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, ((t1, v1), (t2, v2))) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(t1.to_bits(), t2.to_bits(), "{what}: time at {i}");
            assert_eq!(v1.to_bits(), v2.to_bits(), "{what}: value at {i}");
        }
    }

    /// Non-feedthrough ramp source: y = slope * t at the step start.
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
        fn set_param(&mut self, name: &str, value: f64) -> bool {
            name == "slope" && {
                self.slope = value;
                true
            }
        }
    }

    /// A non-feedthrough unit delay: output is the input latched at the
    /// step start.
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
    }

    #[test]
    fn a_replica_of_another_width_is_refused_naming_streamer_and_instance() {
        let mut b = ModelBuilder::new("m");
        let s = b.streamer("src", "none");
        b.streamer_out(s, "y", FlowType::scalar());
        b.probe(s, "y", "out");
        // The compile-time check and instance 0 get the declared width;
        // every later call returns a two-lane behaviour.
        let calls = AtomicUsize::new(0);
        let registry = BehaviorRegistry::new().streamer("src", move || {
            let width = if calls.fetch_add(1, Ordering::Relaxed) < 2 { 1 } else { 2 };
            Box::new(FnStreamer::new("src", 0, width, |t: f64, _h, _u: &[f64], y: &mut [f64]| {
                y[0] = t
            }))
        });
        let compiled = elaborate(&b.build(), registry).expect("elaborates");
        let err = EnsembleEngine::from_compiled(&compiled, 3, EngineConfig::default()).unwrap_err();
        assert!(matches!(err, CoreError::Elaborate { .. }), "{err}");
        let msg = err.to_string();
        assert!(msg.starts_with("URT114: "), "{msg}");
        assert!(msg.contains("`src`") && msg.contains("instance 1"), "{msg}");
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
                if n.is_multiple_of(3) {
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
        elaborate(&b.build(), registry).expect("elaborates")
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

    /// Emits one `tick` per `advance` on SPort `noise`, which no link
    /// routes, and records how many signals it holds (`held`) and the
    /// most it ever handed back when drained (`most`).
    struct Chatter {
        pending: Vec<(String, Message)>,
        held: Arc<AtomicUsize>,
        most: Arc<AtomicUsize>,
    }

    impl StreamerBehavior for Chatter {
        fn name(&self) -> &str {
            "chatter"
        }
        fn input_width(&self) -> usize {
            0
        }
        fn output_width(&self) -> usize {
            1
        }
        fn advance(
            &mut self,
            t: f64,
            _h: f64,
            _u: &[f64],
            y: &mut [f64],
        ) -> Result<(), urt_ode::SolveError> {
            y[0] = t;
            self.pending.push(("noise".to_owned(), Message::new("tick", Value::Empty)));
            self.held.store(self.pending.len(), Ordering::Relaxed);
            Ok(())
        }
        fn take_emitted(&mut self) -> Vec<(String, Message)> {
            self.most.fetch_max(self.pending.len(), Ordering::Relaxed);
            self.held.store(0, Ordering::Relaxed);
            std::mem::take(&mut self.pending)
        }
    }

    #[test]
    fn unlinked_emitters_stay_bounded_and_linked_rows_are_unchanged() {
        use crate::pacer::PacedConfig;
        // FNV-1a 64 over the (time, value) bits of the linked plant's
        // `y` series, and its supervisor's delivered count, recorded
        // where every row was drained every macro step.
        const PINNED_SERIES: u64 = 0x566c_6992_27bd_0bd3;
        const PINNED_DELIVERED: u64 = 3600;
        for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
            let held = Arc::new(AtomicUsize::new(0));
            let most = Arc::new(AtomicUsize::new(0));
            let mut b = ModelBuilder::new("chatty");
            let sup = b.capsule("sup");
            let plant = b.streamer("plant", "none");
            b.streamer_out(plant, "y", FlowType::scalar());
            b.streamer_feedthrough(plant, false);
            b.streamer_sport(plant, "ctl", "Ctl");
            b.capsule_sport(sup, "p", "Ctl");
            b.sport_link(sup, "p", plant, "ctl");
            b.probe(plant, "y", "y");
            let chatter = b.streamer("chatter", "none");
            b.streamer_out(chatter, "y", FlowType::scalar());
            b.streamer_sport(chatter, "noise", "Ctl");
            let (h, m) = (Arc::clone(&held), Arc::clone(&most));
            let registry = BehaviorRegistry::new()
                .streamer("plant", || {
                    let (rate, y, setpoint, emitted) = (3.0, 0.0, 1.0, Vec::new());
                    Box::new(Reporter { name: "plant".into(), rate, y, setpoint, emitted })
                })
                .streamer("chatter", move || {
                    let (held, most) = (Arc::clone(&h), Arc::clone(&m));
                    Box::new(Chatter { pending: Vec::new(), held, most })
                })
                .capsule("sup", || {
                    let machine = StateMachineBuilder::new("sup")
                        .state("s")
                        .initial("s", |_: &mut (), _: &mut CapsuleContext| {})
                        .internal("s", ("p", "status"), |_: &mut (), m: &Message, ctx| {
                            let y = m.value().as_real().unwrap_or(0.0);
                            ctx.send("p", "setpoint", Value::Real(1.0 - 0.5 * y));
                        })
                        .build()
                        .expect("machine");
                    Box::new(SmCapsule::new(machine, ()))
                });
            let compiled = elaborate(&b.build(), registry).expect("elaborates");
            assert_eq!(compiled.group_count(), 1, "the chatter sits beside the linked plant");
            let mut engine =
                HybridEngine::from_compiled(&compiled, EngineConfig { step: 1e-3, policy })
                    .unwrap();
            let rec = Recorder::new();
            engine.set_recorder(rec.clone());
            let empty_after = |call: &str| {
                assert_eq!(held.load(Ordering::Relaxed), 0, "{policy}: held after {call}");
            };
            engine.run_until(3.5).unwrap();
            empty_after("run_until");
            let most_held = most.load(Ordering::Relaxed);
            assert!(most_held as u64 <= DRAIN_CADENCE, "{policy}: held {most_held}");
            if policy == ThreadPolicy::CurrentThread {
                // No per-step drain: 3500 steps reach the cadence.
                assert_eq!(most_held as u64, DRAIN_CADENCE, "{policy}");
            }
            engine.step_once().unwrap();
            empty_after("step_once");
            let paced = PacedConfig::new().with_rate(1e9).with_budget_ns(1e12);
            engine.run_paced(3.6, paced).unwrap();
            empty_after("run_paced");
            assert!(most.load(Ordering::Relaxed) as u64 <= DRAIN_CADENCE, "{policy}");
            assert_eq!(engine.step_count(), 3600, "{policy}");
            let mut fnv = crate::cache::Fnv1a::new();
            for (t, v) in rec.series("y") {
                fnv.update(&t.to_bits().to_le_bytes());
                fnv.update(&v.to_bits().to_le_bytes());
            }
            let delivered = engine.controller().delivered_count();
            assert_eq!(fnv.finish(), PINNED_SERIES, "{policy}: linked plant series");
            assert_eq!(delivered, PINNED_DELIVERED, "{policy}: statuses delivered");
        }
    }

    #[test]
    fn each_sport_link_reaches_its_own_plan_row() {
        // Two plants on one solver thread, each linked to the supervisor
        // on its own port; the supervisor's start-up setpoints differ in
        // sign, so a signal delivered to the wrong row shows.
        let mut b = ModelBuilder::new("one-thread");
        let sup = b.capsule("sup");
        let mut registry = BehaviorRegistry::new();
        for i in 0..2 {
            let name = format!("plant{i}");
            let s = b.streamer(&name, "none");
            b.streamer_out(s, "y", FlowType::scalar());
            b.streamer_feedthrough(s, false);
            b.streamer_sport(s, "ctl", "Ctl");
            b.capsule_sport(sup, format!("p{i}"), "Ctl");
            b.sport_link(sup, format!("p{i}"), s, "ctl");
            b.probe(s, "y", format!("y{i}"));
            registry = registry.streamer(name.clone(), move || {
                let (rate, y, setpoint, emitted) = (10.0, 0.0, 0.0, Vec::new());
                Box::new(Reporter { name: name.clone(), rate, y, setpoint, emitted })
            });
        }
        registry = registry.capsule("sup", || {
            let machine = StateMachineBuilder::new("sup")
                .state("s")
                .initial("s", |_: &mut (), ctx: &mut CapsuleContext| {
                    ctx.send("p0", "setpoint", Value::Real(1.0));
                    ctx.send("p1", "setpoint", Value::Real(-1.0));
                })
                .build()
                .expect("machine");
            Box::new(SmCapsule::new(machine, ()))
        });
        let compiled = elaborate(&b.build(), registry).expect("elaborates");
        assert_eq!(compiled.group_count(), 1);
        let config = EngineConfig { step: 0.01, policy: ThreadPolicy::CurrentThread };
        let mut engine = HybridEngine::from_compiled(&compiled, config).unwrap();
        let rec = Recorder::new();
        engine.set_recorder(rec.clone());
        engine.run_until(0.5).unwrap();
        assert!(rec.series("y0").last().unwrap().1 > 0.9, "plant0 follows p0's setpoint");
        assert!(rec.series("y1").last().unwrap().1 < -0.9, "plant1 follows p1's setpoint");
    }

    #[test]
    fn ensembles_replicate_opaque_behaviours_through_factories() {
        // A behaviour that cannot be cloned still replicates: the
        // ensemble re-invokes the registry factory per instance.
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
        let compiled = elaborate(&b.build(), registry).expect("elaborates");
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
    fn capsule_relay_replays_the_pinned_series() {
        // source -> capsule relay DPort -> {doubler, squarer}: elaboration
        // lowers the relay to two flows, and every instance of a K = 3
        // ensemble must reproduce the series the raw network (with an
        // explicit relay node) produced when stepped directly: FNV-1a 64
        // over the 20 (time, value) bits of `dbl`, then of `sq`.
        const PINNED: u64 = 0xa790_9046_7881_35fb;
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
            .streamer("src", || {
                Box::new(FnStreamer::new("src", 0, 1, |t: f64, _h, _u: &[f64], y: &mut [f64]| {
                    y[0] = (2.0 * t).sin()
                }))
            })
            .streamer("dbl", || {
                Box::new(FnStreamer::new("dbl", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| {
                    y[0] = 2.0 * u[0]
                }))
            })
            .streamer("sq", || {
                Box::new(FnStreamer::new("sq", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| {
                    y[0] = u[0] * u[0]
                }))
            });
        let compiled = elaborate(&b.build(), registry).expect("elaborates");
        let config = EngineConfig { step: 0.01, policy: ThreadPolicy::CurrentThread };
        let mut ensemble = EnsembleEngine::from_compiled(&compiled, 3, config).unwrap();
        let rec = Recorder::new();
        ensemble.set_recorder(rec.clone());
        ensemble.run_until(0.2).unwrap();
        for i in 0..3 {
            let mut h = crate::cache::Fnv1a::new();
            for name in ["dbl", "sq"] {
                let got = rec.series(&EnsembleEngine::series_name(name, i));
                assert_eq!(got.len(), 20, "instance {i} ({name})");
                for (t, v) in got {
                    h.update(&t.to_bits().to_le_bytes());
                    h.update(&v.to_bits().to_le_bytes());
                }
            }
            assert_eq!(h.finish(), PINNED, "compiled instance {i}");
        }
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
        let run = |per_lane: bool| {
            let (model, mut registry) = decay_chain(1.0, 1.0);
            if per_lane {
                registry = registry
                    .streamer("plant", || Box::new(PerLane(Box::new(decay_streamer(1.0, 1.0)))));
            }
            let compiled = elaborate(&model, registry).expect("elaborates");
            let mut ensemble =
                EnsembleEngine::from_variants(&compiled, &variants, EngineConfig::default())
                    .unwrap();
            let rec = Recorder::new();
            ensemble.set_recorder(rec.clone());
            ensemble.run_until(0.05).unwrap();
            // The plant row (Rk4 OdeStreamer) batches unless its lanes
            // hide behind `PerLane`; the FnStreamer doubler row always does.
            let batched: usize =
                ensemble.groups.iter().map(|g| g.batch_rows.iter().flatten().count()).sum();
            let expected = 1 + usize::from(!per_lane);
            assert_eq!(batched, expected, "per lane {per_lane}: doubler row, plus the ODE row");
            rec
        };
        let scalar = run(true);
        let batched = run(false);
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
        let compiled = elaborate(&b.build(), registry).expect("elaborates");
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
            let compiled = elaborate(&model, registry).expect("elaborates");
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
    fn a_channel_reads_its_producer_lane_into_its_consumer_lane() {
        // The channel's producer lane (`fast.y`, dense offset 1) differs
        // from its consumer lane (external offset 0).
        let mut b = ModelBuilder::new("lanes");
        let slow = b.streamer("slow", "none");
        let fast = b.streamer("fast", "none");
        let w = b.streamer("witness", "none");
        b.streamer_out(slow, "y", FlowType::scalar());
        b.streamer_out(fast, "y", FlowType::scalar());
        b.streamer_in(w, "u", FlowType::scalar());
        b.streamer_out(w, "y", FlowType::scalar());
        b.streamer_feedthrough(w, false);
        b.assign_thread(w, 1);
        b.flow_between_streamers(fast, "y", w, "u");
        b.probe(fast, "y", "fast");
        b.probe(w, "y", "wit");
        let ramp = |name: &'static str, slope: f64| {
            move || -> Box<dyn StreamerBehavior> {
                Box::new(FnStreamer::new(
                    name,
                    0,
                    1,
                    move |t: f64, _h, _u: &[f64], y: &mut [f64]| y[0] = slope * t,
                ))
            }
        };
        let registry = BehaviorRegistry::new()
            .streamer("slow", ramp("slow", 1.0))
            .streamer("fast", ramp("fast", 100.0))
            .streamer("witness", || Box::new(Witness));
        let compiled = elaborate(&b.build(), registry).expect("elaborates");
        let config = EngineConfig { step: 0.01, policy: ThreadPolicy::CurrentThread };
        let mut engine = HybridEngine::from_compiled(&compiled, config).unwrap();
        let rec = Recorder::new();
        engine.set_recorder(rec.clone());
        engine.run_until(0.1).unwrap();
        let (fast, wit) = (rec.series("fast"), rec.series("wit"));
        for k in 1..wit.len() {
            assert_eq!(wit[k].1.to_bits(), fast[k - 1].1.to_bits(), "one-step delay at {k}");
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
