//! Streamer behaviours: the solver-driven counterpart of capsule state
//! machines.
//!
//! "In a streamer, there is a solver responsible for receiving signal from
//! SPorts and data from DPorts and operating system services, modifying
//! parameters, computing equations, and sending out the results."

use std::any::Any;
use std::fmt;
use std::ops::Range;
use urt_ode::events::{locate_first_crossing, ZeroCrossing};
use urt_ode::solver::{ExplicitScheme, Rk4, Solver, SolverDriver, StepOutcome};
use urt_ode::system::{BatchOdeSystem, FrozenInput, InputSystem, OdeSystem};
use urt_ode::SolveError;
use urt_umlrt::message::Message;
use urt_umlrt::value::Value;

/// The behaviour a streamer node executes each macro step.
///
/// Inputs `u` are the concatenated lanes of the streamer's input DPorts,
/// frozen for the step; outputs `y` are the concatenated lanes of its
/// output DPorts. Signals arriving on SPorts are delivered through
/// [`StreamerBehavior::on_signal`]; signals the behaviour wants to emit
/// (e.g. threshold crossings) are collected by
/// [`StreamerBehavior::take_emitted`].
pub trait StreamerBehavior: Send {
    /// Behaviour name (diagnostics).
    fn name(&self) -> &str;

    /// Total input lane count.
    fn input_width(&self) -> usize;

    /// Total output lane count.
    fn output_width(&self) -> usize;

    /// Whether outputs depend *directly* on the current step's inputs
    /// (true for algebraic blocks, false for integrator-like behaviours).
    /// Governs algebraic-loop detection.
    fn direct_feedthrough(&self) -> bool {
        true
    }

    /// Called once before the first step.
    ///
    /// # Errors
    ///
    /// Implementations may reject inconsistent configuration.
    fn initialize(&mut self, _t0: f64) -> Result<(), SolveError> {
        Ok(())
    }

    /// Advances the behaviour from `t` to `t + h` and writes outputs.
    ///
    /// # Errors
    ///
    /// Solver failures propagate as [`SolveError`].
    fn advance(&mut self, t: f64, h: f64, u: &[f64], y: &mut [f64]) -> Result<(), SolveError>;

    /// Handles a signal message arriving on one of the streamer's SPorts
    /// (parameter changes, mode switches, resets).
    fn on_signal(&mut self, _msg: &Message) {}

    /// Drains signal messages the behaviour wants to emit through its
    /// SPorts, as `(sport, message)` pairs.
    fn take_emitted(&mut self) -> Vec<(String, Message)> {
        Vec::new()
    }

    /// Retired replication hook: no engine calls it and no library
    /// behaviour overrides it — every instance of a compiled system,
    /// ensemble replicas included, comes from re-invoking the registry's
    /// behaviour factory. It stays, returning `None`, only because the
    /// benchmark package's tracing wrapper (`perfbench/src/trace.rs`)
    /// forwards it; remove it together with that forwarding.
    fn clone_fresh(&self) -> Option<Box<dyn StreamerBehavior>> {
        None
    }

    /// Applies a named parameter override (an ensemble `VariantSpec`
    /// entry). Returns `true` when the parameter was recognised and
    /// applied; the default recognises nothing.
    fn set_param(&mut self, _name: &str, _value: f64) -> bool {
        false
    }

    /// Exposes this behaviour as a lane a row kernel can take over, or
    /// `None` for behaviours that must step on their own. An engine
    /// offers each row of lanes to its first lane's
    /// [`OdeLane::row_kernel`] once, right after `initialize`; a row that
    /// gets a kernel steps through it, every other row lane by lane
    /// through [`StreamerBehavior::advance`].
    fn as_ode_lane(&self) -> Option<&dyn OdeLane> {
        None
    }

    /// Retired hook: a batched row owns its lanes' state for good and
    /// never hands it back, so no engine calls it and no library
    /// behaviour overrides it. It stays, returning `None`, only because
    /// the benchmark package's tracing wrapper (`perfbench/src/trace.rs`)
    /// forwards it; remove it together with that forwarding.
    fn as_ode_lane_mut(&mut self) -> Option<&mut dyn OdeLane> {
        None
    }
}

/// A lane a row kernel can take over: one lane of a row that may step
/// as one [`RowKernel`], an ODE row ([`OdeStreamer`]) or a closed-form
/// one ([`FnStreamer`]).
///
/// The `Any` supertrait lets a lane's [`OdeLane::row_kernel`] downcast
/// the other lanes of its row to its own concrete type and decide, from
/// their full configuration, whether the row can step as one.
pub trait OdeLane: Any {
    /// Builds the kernel for the row `row` this lane heads (`row[0]` is
    /// `self`), taking over the lanes' state (and an ODE row's solver
    /// clock) for good, or `None` when the row must step lane by lane
    /// through [`StreamerBehavior::advance`]. Called once, right after
    /// every lane was initialized; from then on the kernel is the lanes'
    /// only state, and their own `advance` must not be called.
    fn row_kernel(&self, row: &[Box<dyn StreamerBehavior>]) -> Option<Box<dyn RowKernel>>;
}

/// A behaviour that hides its ODE lane, so its row steps lane by lane
/// through [`StreamerBehavior::advance`]: the per-lane baseline a
/// batched row is compared against. It forwards the dataflow surface,
/// SPort traffic and parameter overrides.
pub struct PerLane(pub Box<dyn StreamerBehavior>);

impl StreamerBehavior for PerLane {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn input_width(&self) -> usize {
        self.0.input_width()
    }
    fn output_width(&self) -> usize {
        self.0.output_width()
    }
    fn direct_feedthrough(&self) -> bool {
        self.0.direct_feedthrough()
    }
    fn initialize(&mut self, t0: f64) -> Result<(), SolveError> {
        self.0.initialize(t0)
    }
    fn advance(&mut self, t: f64, h: f64, u: &[f64], y: &mut [f64]) -> Result<(), SolveError> {
        self.0.advance(t, h, u, y)
    }
    fn on_signal(&mut self, msg: &Message) {
        self.0.on_signal(msg);
    }
    fn take_emitted(&mut self) -> Vec<(String, Message)> {
        self.0.take_emitted()
    }
    fn set_param(&mut self, name: &str, value: f64) -> bool {
        self.0.set_param(name, value)
    }
}

/// Where each lane's slice sits in a dense instance-major array: lane
/// `i` owns `[i * stride + offset..][..width]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneSlots {
    /// Per-instance width of the whole array.
    pub stride: usize,
    /// Offset of the slice within one instance.
    pub offset: usize,
    /// Slice width.
    pub width: usize,
}

impl LaneSlots {
    /// Index range of lane `i`'s slice.
    pub fn range(&self, i: usize) -> Range<usize> {
        let start = i * self.stride + self.offset;
        start..start + self.width
    }
}

/// The K lanes of one ensemble streamer row as one kernel, monomorphised
/// on the lanes' concrete type: it owns the lanes' state (an ODE row's
/// instance-major continuous states and solver clock, a closed-form
/// row's closures), and each call covers every lane with no per-lane
/// dynamic dispatch.
pub trait RowKernel: Send {
    /// Advances every lane from `t` to `t + h`, lane `i` under the frozen
    /// input `u[u_at.range(i)]`, writing its output into
    /// `y[y_at.range(i)]` exactly as the lane's own
    /// [`StreamerBehavior::advance`] would.
    ///
    /// # Errors
    ///
    /// Solver failures propagate as [`SolveError`].
    fn advance(
        &mut self,
        t: f64,
        h: f64,
        u: &[f64],
        u_at: LaneSlots,
        y: &mut [f64],
        y_at: LaneSlots,
    ) -> Result<(), SolveError>;
}

/// The [`RowKernel`] of a row whose lanes all run `OdeStreamer<S>`:
/// one clone of each lane's system (so per-lane parameters are kept), one
/// solver clone, and one [`SolverDriver`] over all the lanes' stacked
/// states, which gives each lane exactly the sub-step schedule its own
/// driver would. The solver stays the strategy: each sub-step is one
/// [`Solver::step_batch`] call over the row's K real lanes, which the
/// explicit fixed-step schemes eligible for a row hand to
/// `StackedLanes::step_lanes`, whose one lane-indexed derivative gives
/// each lane its own system and input. That runs the scheme's own stage
/// arithmetic four lanes at a time, every stage in local arrays,
/// monomorphised on `S`, the scheme and (up to
/// [`CONST_LANE_DIM`](urt_ode::solver::CONST_LANE_DIM)) the dimension.
/// Such schemes carry no cross-step state, so one solver serves all lanes.
struct TypedRow<S> {
    systems: Vec<S>,
    dim: usize,
    solver: Box<dyn Solver + Send>,
    /// The lanes' states, instance-major (lane `i` at `[i * dim..(i + 1)
    /// * dim]`), and the row clock.
    driver: SolverDriver,
}

/// A row's K lanes as one batch system: lane `i` is evaluated by its own
/// system `systems[i]` under its own frozen input, exactly as the scalar
/// path's [`FrozenInput`] evaluates it.
struct StackedLanes<'a, S> {
    systems: &'a [S],
    dim: usize,
    u: &'a [f64],
    u_at: LaneSlots,
}

impl<S: InputSystem> OdeSystem for StackedLanes<'_, S> {
    fn dim(&self) -> usize {
        self.dim
    }

    /// A bare one-lane call cannot say which lane it is, so it is defined
    /// for a one-lane row only. The row's solver always has a batched
    /// kernel ([`OdeLane::row_kernel`] checks), which reaches the lanes
    /// through `step_lanes` below instead.
    fn derivatives(&self, t: f64, x: &[f64], dx: &mut [f64]) {
        assert_eq!(self.systems.len(), 1, "a multi-lane row has no single-lane derivative");
        self.systems[0].derivatives(t, x, &self.u[self.u_at.range(0)], dx);
    }
}

impl<S: InputSystem> BatchOdeSystem for StackedLanes<'_, S> {
    fn step_lanes(
        &self,
        scheme: ExplicitScheme,
        t: f64,
        states: &mut [f64],
        dim: usize,
        h: f64,
        scratch: &mut [f64],
    ) {
        scheme.step_lanes(t, states, dim, h, scratch, |i, t, x: &[f64], dx: &mut [f64]| {
            self.systems[i].derivatives(t, x, &self.u[self.u_at.range(i)], dx)
        });
    }
}

impl<S: InputSystem + Send> RowKernel for TypedRow<S> {
    fn advance(
        &mut self,
        t: f64,
        h: f64,
        u: &[f64],
        u_at: LaneSlots,
        y: &mut [f64],
        y_at: LaneSlots,
    ) -> Result<(), SolveError> {
        // The same instant the lane's own `advance` lands on.
        let t_end = t + h;
        let TypedRow { systems, dim, solver, driver } = self;
        let sys = StackedLanes { systems, dim: *dim, u, u_at };
        // `step_batch` lands every lane exactly on `t + h`: a fixed step.
        driver.advance_to_with(t_end, false, |t, states, h| {
            solver.step_batch(&sys, t, states, *dim, h).map(|()| StepOutcome::fixed(h))
        })?;
        let states = driver.state().as_slice();
        for (i, (system, x)) in systems.iter().zip(states.chunks_exact(*dim)).enumerate() {
            system.output(t_end, x, &u[u_at.range(i)], &mut y[y_at.range(i)]);
        }
        Ok(())
    }
}

/// A stateless (or self-contained) behaviour defined by a closure
/// `f(t, h, u, y)`.
///
/// A row of lanes that all run one closure type steps as one `FnRow`,
/// which calls each lane's closure (a clone of it, taken when the row
/// is built, state included) in one loop with the closure inlined; a row
/// of mixed closure types steps lane by lane.
///
/// # Examples
///
/// ```
/// use urt_dataflow::streamer::{FnStreamer, StreamerBehavior};
///
/// let mut gain = FnStreamer::new("gain2", 1, 1, |_t, _h, u, y| y[0] = 2.0 * u[0]);
/// let mut y = [0.0];
/// gain.advance(0.0, 0.01, &[21.0], &mut y)?;
/// assert_eq!(y[0], 42.0);
/// # Ok::<(), urt_ode::SolveError>(())
/// ```
pub struct FnStreamer<F> {
    name: String,
    input_width: usize,
    output_width: usize,
    f: F,
}

impl<F> fmt::Debug for FnStreamer<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnStreamer")
            .field("name", &self.name)
            .field("input_width", &self.input_width)
            .field("output_width", &self.output_width)
            .finish_non_exhaustive()
    }
}

impl<F: FnMut(f64, f64, &[f64], &mut [f64]) + Clone + Send + 'static> FnStreamer<F> {
    /// Wraps a closure as a streamer behaviour.
    pub fn new(name: impl Into<String>, input_width: usize, output_width: usize, f: F) -> Self {
        FnStreamer { name: name.into(), input_width, output_width, f }
    }
}

impl<F: FnMut(f64, f64, &[f64], &mut [f64]) + Clone + Send + 'static> StreamerBehavior
    for FnStreamer<F>
{
    fn name(&self) -> &str {
        &self.name
    }

    fn input_width(&self) -> usize {
        self.input_width
    }

    fn output_width(&self) -> usize {
        self.output_width
    }

    fn advance(&mut self, t: f64, h: f64, u: &[f64], y: &mut [f64]) -> Result<(), SolveError> {
        (self.f)(t, h, u, y);
        Ok(())
    }

    fn as_ode_lane(&self) -> Option<&dyn OdeLane> {
        Some(self)
    }
}

impl<F: FnMut(f64, f64, &[f64], &mut [f64]) + Clone + Send + 'static> OdeLane for FnStreamer<F> {
    /// Builds an `FnRow` when every lane is an `FnStreamer<F>` of this
    /// lane's closure type, cloning each lane's closure.
    fn row_kernel(&self, row: &[Box<dyn StreamerBehavior>]) -> Option<Box<dyn RowKernel>> {
        let fs = row
            .iter()
            .map(|b| {
                let lane: &dyn Any = b.as_ode_lane()?;
                Some(lane.downcast_ref::<Self>()?.f.clone())
            })
            .collect::<Option<_>>()?;
        Some(Box::new(FnRow { fs }))
    }
}

/// The [`RowKernel`] of a row whose lanes all run `FnStreamer<F>`: lane
/// `i`'s closure is `fs[i]`, and one loop, monomorphised on `F`, calls
/// them all.
struct FnRow<F> {
    fs: Vec<F>,
}

impl<F: FnMut(f64, f64, &[f64], &mut [f64]) + Send> RowKernel for FnRow<F> {
    fn advance(
        &mut self,
        t: f64,
        h: f64,
        u: &[f64],
        u_at: LaneSlots,
        y: &mut [f64],
        y_at: LaneSlots,
    ) -> Result<(), SolveError> {
        for (i, f) in self.fs.iter_mut().enumerate() {
            f(t, h, &u[u_at.range(i)], &mut y[y_at.range(i)]);
        }
        Ok(())
    }
}

/// Signal handler invoked when a message reaches an [`OdeStreamer`] SPort:
/// receives the message, the system (for parameter changes) and the state
/// (for resets).
pub type SignalHandler<S> = Box<dyn FnMut(&Message, &mut S, &mut [f64]) + Send>;

/// The standard solver-backed streamer: continuous state advanced by an
/// integration strategy, with zero-crossing guards that emit signals.
///
/// This is the paper's architecture verbatim — the *solver* (a swappable
/// [`Solver`] strategy, Figure 1) computes the *equations* (an
/// [`InputSystem`]), reading DPort data and SPort signals.
pub struct OdeStreamer<S: InputSystem + Clone + Send + 'static> {
    name: String,
    system: S,
    solver: Box<dyn Solver + Send>,
    driver: Option<SolverDriver>,
    x0: Vec<f64>,
    guards: Vec<ZeroCrossing>,
    guard_values: Vec<f64>,
    /// The state at the start of the macro step, kept for crossing
    /// localisation; filled only when there are guards.
    x_before: Vec<f64>,
    handler: Option<SignalHandler<S>>,
    emitted: Vec<(String, Message)>,
    /// SPort through which guard crossings are announced.
    event_sport: String,
    substep: f64,
    /// Optional named-parameter hook for [`StreamerBehavior::set_param`];
    /// a plain `fn` pointer so clones share it trivially.
    param_fn: Option<fn(&mut S, &str, f64) -> bool>,
}

impl<S: InputSystem + Clone + Send + 'static> fmt::Debug for OdeStreamer<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OdeStreamer")
            .field("name", &self.name)
            .field("dim", &self.system.dim())
            .field("solver", &self.solver.name())
            .finish_non_exhaustive()
    }
}

impl<S: InputSystem + Clone + Send + 'static> OdeStreamer<S> {
    /// Creates a streamer for `system`, integrated by `solver`, starting at
    /// state `x0`, with internal sub-steps of at most `substep` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `x0` does not match the system dimension or `substep` is
    /// not positive.
    pub fn new(
        name: impl Into<String>,
        system: S,
        solver: Box<dyn Solver + Send>,
        x0: &[f64],
        substep: f64,
    ) -> Self {
        assert_eq!(x0.len(), system.dim(), "initial state dimension mismatch");
        assert!(substep > 0.0, "substep must be positive");
        OdeStreamer {
            name: name.into(),
            system,
            solver,
            driver: None,
            x0: x0.to_vec(),
            guards: Vec::new(),
            guard_values: Vec::new(),
            x_before: Vec::new(),
            handler: None,
            emitted: Vec::new(),
            event_sport: "events".to_owned(),
            substep,
            param_fn: None,
        }
    }

    /// Adds a zero-crossing guard; crossings are emitted as signals named
    /// after the guard label on the `events` SPort (builder style).
    pub fn with_guard(mut self, guard: ZeroCrossing) -> Self {
        self.guards.push(guard);
        self
    }

    /// Sets the SPort name used for guard-crossing signals (builder style).
    pub fn with_event_sport(mut self, sport: impl Into<String>) -> Self {
        self.event_sport = sport.into();
        self
    }

    /// Installs the SPort signal handler (builder style).
    pub fn with_signal_handler<F>(mut self, handler: F) -> Self
    where
        F: FnMut(&Message, &mut S, &mut [f64]) + Send + 'static,
    {
        self.handler = Some(Box::new(handler));
        self
    }

    /// Installs a named-parameter hook used by
    /// [`StreamerBehavior::set_param`] to reach into the system (builder
    /// style). The hook returns whether it recognised the name.
    pub fn with_param_fn(mut self, f: fn(&mut S, &str, f64) -> bool) -> Self {
        self.param_fn = Some(f);
        self
    }

    /// Current continuous state (initial state before `initialize`).
    /// Once a row kernel has taken the lane over ([`OdeLane::row_kernel`]),
    /// the kernel holds the live state and this stays where it was then.
    pub fn state(&self) -> &[f64] {
        self.driver.as_ref().map_or(&self.x0, |d| d.state().as_slice())
    }
}

impl<S: InputSystem + Clone + Send + 'static> StreamerBehavior for OdeStreamer<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_width(&self) -> usize {
        self.system.input_dim()
    }

    fn output_width(&self) -> usize {
        self.system.output_dim()
    }

    fn direct_feedthrough(&self) -> bool {
        // Outputs come from the state via the output map; inputs only act
        // through derivatives, one step delayed.
        false
    }

    fn initialize(&mut self, t0: f64) -> Result<(), SolveError> {
        self.driver = Some(SolverDriver::new(t0, &self.x0, self.substep)?);
        self.guard_values = self.guards.iter().map(|g| g.eval(t0, &self.x0)).collect();
        Ok(())
    }

    fn advance(&mut self, t: f64, h: f64, u: &[f64], y: &mut [f64]) -> Result<(), SolveError> {
        let driver = self.driver.as_mut().ok_or(SolveError::InvalidStep { step: h })?;
        let frozen = FrozenInput::new(&self.system, u);
        if !self.guards.is_empty() {
            self.x_before.clear();
            self.x_before.extend_from_slice(driver.state().as_slice());
        }
        let t_end = t + h;
        driver.advance_to(&frozen, self.solver.as_mut(), t_end)?;
        // Zero-crossing check over the macro step.
        let x_after = driver.state().as_slice();
        for (i, guard) in self.guards.iter().enumerate() {
            let before = self.guard_values[i];
            let after = guard.eval(t_end, x_after);
            if guard.direction().matches(before, after) {
                // Localise with a scratch RK4 over the frozen system.
                let mut scratch = Rk4::new();
                let hit = locate_first_crossing(
                    &frozen,
                    &mut scratch,
                    std::slice::from_ref(guard),
                    t,
                    &self.x_before,
                    t_end,
                    1e-9,
                )?;
                let event_time = hit.map_or(t_end, |e| e.time);
                self.emitted.push((
                    self.event_sport.clone(),
                    Message::new(guard.label(), Value::Real(event_time)).with_sent_at(event_time),
                ));
            }
            self.guard_values[i] = after;
        }
        self.system.output(t_end, x_after, u, y);
        Ok(())
    }

    fn on_signal(&mut self, msg: &Message) {
        if let (Some(handler), Some(driver)) = (self.handler.as_mut(), self.driver.as_mut()) {
            handler(msg, &mut self.system, driver.state_mut().as_mut_slice());
        }
    }

    fn take_emitted(&mut self) -> Vec<(String, Message)> {
        std::mem::take(&mut self.emitted)
    }

    fn set_param(&mut self, name: &str, value: f64) -> bool {
        // Built-in override: `x0[i]` retargets one initial-state lane.
        // Effective only before `initialize`, which is when ensemble
        // variant specs are applied.
        if let Some(idx) = name
            .strip_prefix("x0[")
            .and_then(|rest| rest.strip_suffix(']'))
            .and_then(|idx| idx.parse::<usize>().ok())
        {
            if idx < self.x0.len() {
                self.x0[idx] = value;
                return true;
            }
            return false;
        }
        self.param_fn.is_some_and(|f| f(&mut self.system, name, value))
    }

    fn as_ode_lane(&self) -> Option<&dyn OdeLane> {
        Some(self)
    }
}

impl<S: InputSystem + Clone + Send + 'static> OdeLane for OdeStreamer<S> {
    /// Builds a typed row kernel when every lane is an initialized
    /// `OdeStreamer<S>` of this lane's `dim` and substep (bit for bit),
    /// with no guard or signal handler, whose solver has a true batched
    /// kernel. Guards would need per-sub-step crossing checks, and a
    /// handler can change state and equations mid-run; a fixed-step
    /// batched kernel steps every lane exactly as alone, where an
    /// adaptive step would couple the lanes' error control. The system
    /// clones cannot go stale: `set_param` runs before `initialize`.
    fn row_kernel(&self, row: &[Box<dyn StreamerBehavior>]) -> Option<Box<dyn RowKernel>> {
        let dim = self.system.dim();
        let t0 = self.driver.as_ref()?.time();
        if dim == 0 {
            return None;
        }
        let mut systems = Vec::with_capacity(row.len());
        let mut states = Vec::with_capacity(row.len() * dim);
        for b in row {
            let lane: &dyn Any = b.as_ode_lane()?;
            let lane = lane.downcast_ref::<Self>()?;
            let driver = lane.driver.as_ref()?;
            if !lane.guards.is_empty()
                || lane.handler.is_some()
                || !lane.solver.has_batched_kernel()
                || lane.system.dim() != dim
                || lane.substep.to_bits() != self.substep.to_bits()
            {
                return None;
            }
            systems.push(lane.system.clone());
            states.extend_from_slice(driver.state().as_slice());
        }
        Some(Box::new(TypedRow {
            systems,
            dim,
            solver: self.solver.clone_boxed()?,
            driver: SolverDriver::new(t0, &states, self.substep).ok()?,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urt_ode::events::EventDirection;
    use urt_ode::solver::SolverKind;
    use urt_ode::system::FnInputSystem;

    fn first_order_plant() -> impl InputSystem + Clone + Send {
        // x' = u - x : first-order lag.
        FnInputSystem::new(1, 1, |_t, x: &[f64], u: &[f64], dx: &mut [f64]| {
            dx[0] = u[0] - x[0];
        })
    }

    #[test]
    fn stacked_lanes_evaluate_each_lane_under_its_own_input() {
        // One batched step reaches every lane of the row: lane `i` must
        // see its own system and input, so `x' = u - x` moves each lane
        // by the same 0.5.
        let systems = [first_order_plant(), first_order_plant(), first_order_plant()];
        let u = [1.0, 9.0, 2.0, 9.0, 3.0, 9.0];
        let u_at = LaneSlots { stride: 2, offset: 0, width: 1 };
        let row = StackedLanes { systems: &systems, dim: 1, u: &u, u_at };
        let mut x = [0.5, 1.5, 2.5];
        SolverKind::ForwardEuler.create().step_batch(&row, 0.0, &mut x, 1, 1.0).unwrap();
        assert_eq!(x, [1.0, 2.0, 3.0]);
        let one = StackedLanes { systems: &systems[..1], dim: 1, u: &u, u_at };
        let mut d = [0.0];
        one.derivatives(0.0, &[0.25], &mut d);
        assert_eq!(d, [0.75], "a one-lane row is a plain system");
    }

    #[test]
    fn fn_streamer_runs_closure() {
        let mut s = FnStreamer::new("sum", 2, 1, |_t, _h, u: &[f64], y: &mut [f64]| {
            y[0] = u[0] + u[1];
        });
        assert_eq!(s.name(), "sum");
        assert_eq!(s.input_width(), 2);
        assert_eq!(s.output_width(), 1);
        assert!(s.direct_feedthrough());
        let mut y = [0.0];
        s.advance(0.0, 0.1, &[1.0, 2.0], &mut y).unwrap();
        assert_eq!(y[0], 3.0);
    }

    #[test]
    fn ode_streamer_tracks_step_input() {
        let mut s =
            OdeStreamer::new("lag", first_order_plant(), SolverKind::Rk4.create(), &[0.0], 0.001);
        assert!(!s.direct_feedthrough());
        s.initialize(0.0).unwrap();
        let mut y = [0.0];
        let mut t = 0.0;
        for _ in 0..5000 {
            s.advance(t, 0.001, &[1.0], &mut y).unwrap();
            t += 0.001;
        }
        // After 5 time constants the lag has settled to ~1.
        assert!((y[0] - 1.0).abs() < 0.01, "settled at {}", y[0]);
    }

    #[test]
    fn ode_streamer_requires_initialize() {
        let mut s = OdeStreamer::new(
            "lag",
            first_order_plant(),
            SolverKind::ForwardEuler.create(),
            &[0.0],
            0.01,
        );
        let mut y = [0.0];
        assert!(s.advance(0.0, 0.1, &[0.0], &mut y).is_err());
    }

    #[test]
    #[should_panic(expected = "initial state dimension mismatch")]
    fn ode_streamer_checks_x0() {
        let _ = OdeStreamer::new(
            "bad",
            first_order_plant(),
            SolverKind::Rk4.create(),
            &[0.0, 0.0],
            0.01,
        );
    }

    #[test]
    fn guard_crossing_emits_signal() {
        let mut s =
            OdeStreamer::new("lag", first_order_plant(), SolverKind::Rk4.create(), &[0.0], 0.001)
                .with_guard(ZeroCrossing::new("half_reached", EventDirection::Rising, |_t, x| {
                    x[0] - 0.5
                }))
                .with_event_sport("alarm");
        s.initialize(0.0).unwrap();
        let mut y = [0.0];
        let mut t = 0.0;
        let mut events = Vec::new();
        for _ in 0..2000 {
            s.advance(t, 0.001, &[1.0], &mut y).unwrap();
            t += 0.001;
            events.extend(s.take_emitted());
        }
        assert_eq!(events.len(), 1, "exactly one crossing");
        let (sport, msg) = &events[0];
        assert_eq!(sport, "alarm");
        assert_eq!(msg.signal(), "half_reached");
        // x(t) = 1 - e^-t crosses 0.5 at ln 2 ≈ 0.6931.
        let t_event = msg.value().as_real().unwrap();
        assert!((t_event - std::f64::consts::LN_2).abs() < 2e-3, "event at {t_event}");
    }

    #[test]
    fn signal_handler_mutates_system_and_state() {
        // System with a mutable gain parameter.
        #[derive(Clone)]
        struct Plant {
            gain: f64,
        }
        impl InputSystem for Plant {
            fn dim(&self) -> usize {
                1
            }
            fn input_dim(&self) -> usize {
                1
            }
            fn derivatives(&self, _t: f64, x: &[f64], u: &[f64], dx: &mut [f64]) {
                dx[0] = self.gain * (u[0] - x[0]);
            }
        }
        let mut s =
            OdeStreamer::new("p", Plant { gain: 1.0 }, SolverKind::Rk4.create(), &[0.0], 0.001)
                .with_signal_handler(|msg, plant: &mut Plant, state: &mut [f64]| {
                    match msg.signal() {
                        "set_gain" => plant.gain = msg.value().as_real().unwrap_or(plant.gain),
                        "reset" => state.fill(0.0),
                        _ => {}
                    }
                });
        s.initialize(0.0).unwrap();
        s.on_signal(&Message::new("set_gain", Value::Real(10.0)));
        let mut y = [0.0];
        let mut t = 0.0;
        for _ in 0..1000 {
            s.advance(t, 0.001, &[1.0], &mut y).unwrap();
            t += 0.001;
        }
        // gain=10 settles 10x faster: well above the gain=1 response.
        assert!(y[0] > 0.9, "fast settle, got {}", y[0]);
        s.on_signal(&Message::new("reset", Value::Empty));
        assert_eq!(s.state()[0], 0.0);
    }

    #[test]
    fn set_param_overrides_x0_and_system_parameters() {
        #[derive(Clone)]
        struct Plant {
            gain: f64,
        }
        impl InputSystem for Plant {
            fn dim(&self) -> usize {
                1
            }
            fn input_dim(&self) -> usize {
                1
            }
            fn derivatives(&self, _t: f64, x: &[f64], u: &[f64], dx: &mut [f64]) {
                dx[0] = self.gain * (u[0] - x[0]);
            }
        }
        let mut s =
            OdeStreamer::new("p", Plant { gain: 1.0 }, SolverKind::Rk4.create(), &[0.0], 1e-3)
                .with_param_fn(|plant, name, value| {
                    if name == "gain" {
                        plant.gain = value;
                        true
                    } else {
                        false
                    }
                });
        assert!(s.set_param("x0[0]", 0.25), "x0 override is built in");
        assert!(!s.set_param("x0[7]", 1.0), "out-of-range lane is rejected");
        assert!(s.set_param("gain", 4.0), "param_fn reaches the system");
        assert!(!s.set_param("ghost", 1.0));
        s.initialize(0.0).unwrap();
        assert_eq!(s.state()[0], 0.25, "override took effect at initialize");
        // Default behaviours recognise nothing.
        let mut plain = FnStreamer::new("id", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| y[0] = u[0]);
        assert!(!plain.set_param("anything", 0.0));
    }

    #[test]
    fn solver_strategy_is_swappable() {
        // Paper Figure 1: the same equations run under any strategy.
        let mut y = [[0.0]; 2];
        for (kind, y) in [SolverKind::ForwardEuler, SolverKind::Dopri45].into_iter().zip(&mut y) {
            let mut s = OdeStreamer::new("p", first_order_plant(), kind.create(), &[0.0], 0.01);
            s.initialize(0.0).unwrap();
            s.advance(0.0, 0.1, &[1.0], y).unwrap();
            assert!(y[0] > 0.0, "{kind} moved the lag");
        }
        assert_ne!(y[0][0].to_bits(), y[1][0].to_bits(), "strategies differ");
    }
}
