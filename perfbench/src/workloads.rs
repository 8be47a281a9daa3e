//! The three workloads and the chain fixture: seeded inputs, declared models and the
//! behaviours that realise them. README.md says why each one is here.

use crate::trace::{TracedBehavior, TracedSolver};
use urt_bench::SineOsc;
use urt_core::elaborate::BehaviorRegistry;
use urt_core::model::{BudgetScope, ModelBuilder, UnifiedModel};
use urt_dataflow::flowtype::FlowType;
use urt_dataflow::streamer::{FnStreamer, OdeStreamer, StreamerBehavior};
use urt_ode::rng::Pcg32;
use urt_ode::system::{FrozenInput, InputSystem};
use urt_ode::{SolveError, Solver, SolverKind};
use urt_umlrt::protocol::PayloadKind;
use urt_umlrt::statemachine::SmSpec;
use urt_umlrt::{
    Capsule, CapsuleContext, Message, Protocol, SmCapsule, StateMachineBuilder, Value,
};

/// Macro step of every workload: a 1 kHz control loop.
pub const STEP: f64 = 1e-3;
/// The seed whose check-window checksums are committed.
pub const DEFAULT_SEED: u64 = 1;
/// Instances in the `sweep-k64` ensemble.
pub const SWEEP_K: usize = 64;
/// Plant/supervisor pairs in `reactive-sport`.
pub const PLANTS: usize = 4;
/// `x0[1]` of the sweep source in the compiled model; every ensemble
/// instance overrides it with its seeded value.
pub const SWEEP_BASE_X0: f64 = 2.0;
const FIG2_GROUPS: usize = 4;
const CHAIN_STAGES: usize = 8;
/// RK4 sub-steps per macro step of a reactive plant.
const PLANT_SUBSTEPS: u32 = 10;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Compiled fig2 topology × 4 groups, closed-form streamers.
    Fig2Loop,
    /// 64-variant ensemble of an RK4-backed fig2.
    SweepK64,
    /// Four RK4 plants SPort-linked to supervisor state machines.
    ReactiveSport,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::Fig2Loop, Workload::SweepK64, Workload::ReactiveSport];

    /// The name the command line and the results use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig2Loop => "fig2-loop",
            Workload::SweepK64 => "sweep-k64",
            Workload::ReactiveSport => "reactive-sport",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Instances advanced per macro step.
    pub fn instances(self) -> usize {
        match self {
            Workload::SweepK64 => SWEEP_K,
            _ => 1,
        }
    }
}

/// One reactive plant and the supervisor that answers it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlantParams {
    /// Time constant, s.
    pub tau: f64,
    /// Initial state.
    pub x0: f64,
    /// Supervisor reference.
    pub reference: f64,
    /// Supervisor correction gain.
    pub gain: f64,
    /// Weight of the upstream plant's output.
    pub coupling: f64,
}

/// Everything the seed decides. The program receives only these numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// `fig2-loop`: per group, the source's `(amplitude, omega)`.
    pub fig2: Vec<(f64, f64)>,
    /// `sweep-k64`: per instance, the source's `x0[1]` (initial velocity,
    /// so amplitude × ω).
    pub sweep_x0: Vec<f64>,
    /// `reactive-sport`: per plant.
    pub plants: Vec<PlantParams>,
    /// The chain fixture's source `(amplitude, omega)`.
    pub chain: (f64, f64),
}

impl Inputs {
    /// Draws every workload's inputs from one `Pcg32` stream, in a fixed
    /// order, so the same seed always gives the same inputs.
    pub fn generate(seed: u64) -> Self {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut wave = || (rng.gen_range_f64(0.5, 2.0), rng.gen_range_f64(1.0, 4.0));
        let fig2 = (0..FIG2_GROUPS).map(|_| wave()).collect();
        let chain = wave();
        let sweep_x0 = (0..SWEEP_K).map(|_| rng.gen_range_f64(1.0, 6.0)).collect();
        let plants = (0..PLANTS)
            .map(|_| PlantParams {
                tau: rng.gen_range_f64(0.02, 0.2),
                x0: rng.gen_range_f64(-1.0, 1.0),
                reference: rng.gen_range_f64(-1.0, 1.0),
                gain: rng.gen_range_f64(0.2, 0.8),
                coupling: rng.gen_range_f64(0.0, 0.5),
            })
            .collect();
        Inputs { fig2, sweep_x0, plants, chain }
    }
}

/// The workload's declared model and behaviour registry. With `traced`,
/// every behaviour and solver records spans; the series it computes are
/// bit-identical either way.
pub fn system(w: Workload, inputs: &Inputs, traced: bool) -> (UnifiedModel, BehaviorRegistry) {
    match w {
        Workload::Fig2Loop => fig2_loop(&inputs.fig2, traced),
        Workload::SweepK64 => sweep(SWEEP_BASE_X0, traced),
        Workload::ReactiveSport => reactive(&inputs.plants, traced),
    }
}

fn wrap(traced: bool, b: Box<dyn StreamerBehavior>) -> Box<dyn StreamerBehavior> {
    if traced {
        Box::new(TracedBehavior(b))
    } else {
        b
    }
}

fn rk4(traced: bool) -> Box<dyn Solver + Send> {
    let solver = SolverKind::Rk4.create();
    if traced {
        Box::new(TracedSolver(solver))
    } else {
        solver
    }
}

fn gain2(traced: bool, name: &str) -> Box<dyn StreamerBehavior> {
    let f = FnStreamer::new(name, 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| y[0] = 2.0 * u[0]);
    wrap(traced, Box::new(f))
}

fn square(traced: bool, name: &str) -> Box<dyn StreamerBehavior> {
    let f = FnStreamer::new(name, 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| y[0] = u[0] * u[0]);
    wrap(traced, Box::new(f))
}

/// The paper's Figure 2 per group: a `top` streamer context holding
/// `sub1` (the source) fanning out to `sub2` (gain) and `sub3` (square),
/// each group pinned to its own solver thread and probed on `sub2.y`.
fn fig2_loop(waves: &[(f64, f64)], traced: bool) -> (UnifiedModel, BehaviorRegistry) {
    let mut b = ModelBuilder::new("fig2-loop");
    let mut registry = BehaviorRegistry::new();
    for (g, &(amplitude, omega)) in waves.iter().enumerate() {
        let top = b.streamer(format!("top-g{g}"), "rk4");
        let [n1, n2, n3] = ["sub1", "sub2", "sub3"].map(|s| format!("{s}-g{g}"));
        let [s1, s2, s3] = [&n1, &n2, &n3].map(|n| b.streamer(n, "euler"));
        for s in [s1, s2, s3] {
            b.contain_streamer(s, top);
            b.assign_thread(s, g);
        }
        b.streamer_out(s1, "y", FlowType::scalar());
        for s in [s2, s3] {
            b.streamer_in(s, "u", FlowType::scalar());
            b.streamer_out(s, "y", FlowType::scalar());
        }
        b.flow_between_streamers(s1, "y", s2, "u");
        b.flow_between_streamers(s1, "y", s3, "u");
        b.probe(s2, "y", format!("y{g}"));
        registry = registry
            .streamer(n1.clone(), move || {
                let source = move |t: f64, _h, _u: &[f64], y: &mut [f64]| {
                    y[0] = amplitude * (omega * t).sin();
                };
                wrap(traced, Box::new(FnStreamer::new(n1.clone(), 0, 1, source)))
            })
            .streamer(n2.clone(), move || gain2(traced, &n2))
            .streamer(n3.clone(), move || square(traced, &n3));
    }
    // The catalogue fig2 budget: 100 us per macro step.
    b.declare_budget(BudgetScope::Model, 100_000.0);
    (b.build(), registry)
}

/// fig2 with an RK4-integrated source (`SineOsc`, ω = 2, sub-step
/// 0.1 ms) starting at `x0 = [0, x0_1]`, on one group, probed on
/// `sub2.y` as series `y`.
pub fn sweep(x0_1: f64, traced: bool) -> (UnifiedModel, BehaviorRegistry) {
    let mut b = ModelBuilder::new("sweep-k64");
    let s1 = b.streamer("sub1", "rk4");
    let s2 = b.streamer("sub2", "euler");
    let s3 = b.streamer("sub3", "euler");
    b.streamer_out(s1, "y", FlowType::scalar());
    b.streamer_feedthrough(s1, false);
    for s in [s2, s3] {
        b.streamer_in(s, "u", FlowType::scalar());
        b.streamer_out(s, "y", FlowType::scalar());
    }
    b.flow_between_streamers(s1, "y", s2, "u");
    b.flow_between_streamers(s1, "y", s3, "u");
    b.probe(s2, "y", "y");
    // One period of the 1 kHz loop per macro step.
    b.declare_budget(BudgetScope::Model, STEP * 1e9);
    let registry = BehaviorRegistry::new()
        .streamer("sub1", move || {
            let osc = SineOsc { omega: 2.0 };
            wrap(traced, Box::new(OdeStreamer::new("sub1", osc, rk4(traced), &[0.0, x0_1], 1e-4)))
        })
        .streamer("sub2", move || gain2(traced, "sub2"))
        .streamer("sub3", move || square(traced, "sub3"));
    (b.build(), registry)
}

/// Four plants, two per group, chained `plant0 → plant1 → plant2 →
/// plant3` (the `plant1 → plant2` flow is the one cross-group flow), each
/// SPort-linked to its own supervisor capsule.
fn reactive(plants: &[PlantParams], traced: bool) -> (UnifiedModel, BehaviorRegistry) {
    let mut b = ModelBuilder::new("reactive-sport");
    b.declare_protocol(
        Protocol::new("PlantLink")
            .with_in("status", PayloadKind::Real)
            .with_out("setpoint", PayloadKind::Real),
    );
    let mut registry = BehaviorRegistry::new();
    let mut upstream = None;
    for (i, &p) in plants.iter().enumerate() {
        let name = format!("plant{i}");
        let sup_name = format!("sup{i}");
        let s = b.streamer(&name, "rk4");
        if let Some(up) = upstream {
            b.streamer_in(s, "u", FlowType::scalar());
            b.flow_between_streamers(up, "y", s, "u");
        }
        b.streamer_out(s, "y", FlowType::scalar());
        b.streamer_feedthrough(s, false);
        b.streamer_sport(s, "sup", "PlantLink");
        b.assign_thread(s, i / 2);
        b.probe(s, "y", format!("y{i}"));
        let sup = b.capsule(&sup_name);
        b.capsule_sport(sup, "plant", "PlantLink");
        b.capsule_machine(
            sup,
            SmSpec::new(&sup_name).state("run").initial("run").internal("run", ("plant", "status")),
        );
        b.sport_link(sup, "plant", s, "sup");
        let inputs = usize::from(upstream.is_some());
        registry = registry
            .streamer(name.clone(), move || {
                wrap(traced, Box::new(Plant::new(&name, inputs, p, rk4(traced))))
            })
            .capsule(sup_name.clone(), move || supervisor(&sup_name, p));
        upstream = Some(s);
    }
    // A tenth of the 1 ms period per macro step.
    b.declare_budget(BudgetScope::Model, 100_000.0);
    (b.build(), registry)
}

/// `tau x' = setpoint + coupling * upstream - x`, inputs
/// `[upstream, setpoint]`.
#[derive(Debug, Clone, Copy)]
struct PlantDynamics {
    tau: f64,
    coupling: f64,
}

impl InputSystem for PlantDynamics {
    fn dim(&self) -> usize {
        1
    }
    fn input_dim(&self) -> usize {
        2
    }
    fn derivatives(&self, _t: f64, x: &[f64], u: &[f64], dx: &mut [f64]) {
        dx[0] = (u[1] + self.coupling * u[0] - x[0]) / self.tau;
    }
}

/// A first-order plant integrated by RK4 in [`PLANT_SUBSTEPS`] sub-steps
/// per macro step. It publishes its state on `y`, reports it as
/// `status(Real)` on SPort `sup` every step, and adopts the
/// `setpoint(Real)` its supervisor answers.
struct Plant {
    name: String,
    inputs: usize,
    dynamics: PlantDynamics,
    solver: Box<dyn Solver + Send>,
    x: [f64; 1],
    x0: f64,
    reference: f64,
    setpoint: f64,
    emitted: Vec<(String, Message)>,
}

impl Plant {
    fn new(name: &str, inputs: usize, p: PlantParams, solver: Box<dyn Solver + Send>) -> Self {
        Plant {
            name: name.to_owned(),
            inputs,
            dynamics: PlantDynamics { tau: p.tau, coupling: p.coupling },
            solver,
            x: [p.x0],
            x0: p.x0,
            reference: p.reference,
            setpoint: p.reference,
            emitted: Vec::new(),
        }
    }
}

impl StreamerBehavior for Plant {
    fn name(&self) -> &str {
        &self.name
    }
    fn input_width(&self) -> usize {
        self.inputs
    }
    fn output_width(&self) -> usize {
        1
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn initialize(&mut self, _t0: f64) -> Result<(), SolveError> {
        self.x = [self.x0];
        self.setpoint = self.reference;
        Ok(())
    }
    fn advance(&mut self, t: f64, h: f64, u: &[f64], y: &mut [f64]) -> Result<(), SolveError> {
        let frozen = [u.first().copied().unwrap_or(0.0), self.setpoint];
        let sys = FrozenInput::new(&self.dynamics, &frozen);
        let dt = h / f64::from(PLANT_SUBSTEPS);
        for i in 0..PLANT_SUBSTEPS {
            self.solver.step(&sys, t + f64::from(i) * dt, &mut self.x, dt)?;
        }
        y[0] = self.x[0];
        self.emitted.push(("sup".to_owned(), Message::new("status", Value::Real(self.x[0]))));
        Ok(())
    }
    fn on_signal(&mut self, msg: &Message) {
        if msg.signal() == "setpoint" {
            if let Some(v) = msg.value().as_real() {
                self.setpoint = v;
            }
        }
    }
    fn take_emitted(&mut self) -> Vec<(String, Message)> {
        std::mem::take(&mut self.emitted)
    }
}

/// Answers every `status(y)` with `setpoint(r + gain * (r - y))`.
fn supervisor(name: &str, p: PlantParams) -> Box<dyn Capsule> {
    let machine = StateMachineBuilder::new(name)
        .state("run")
        .initial("run", |_: &mut (), _: &mut CapsuleContext| {})
        .internal("run", ("plant", "status"), move |_: &mut (), msg: &Message, ctx| {
            let y = msg.value().as_real().unwrap_or(p.reference);
            ctx.send("plant", "setpoint", Value::Real(p.reference + p.gain * (p.reference - y)));
        })
        .build()
        .expect("supervisor machine is well formed");
    Box::new(SmCapsule::new(machine, ()))
}

/// The chain fixture the threading layer is measured on: an 8-stage lag
/// chain, stages 0–3 on group 0 and 4–7 on group 1, so one cross-group
/// channel; probed on the last stage as series `y`.
pub fn chain(inputs: &Inputs) -> (UnifiedModel, BehaviorRegistry) {
    let (amplitude, omega) = inputs.chain;
    let mut b = ModelBuilder::new("chain");
    let stages: Vec<_> = (0..CHAIN_STAGES)
        .map(|i| {
            let s = b.streamer(format!("stage{i}"), "euler");
            if i > 0 {
                b.streamer_in(s, "u", FlowType::scalar());
            }
            b.streamer_out(s, "y", FlowType::scalar());
            b.streamer_feedthrough(s, false);
            b.assign_thread(s, i * 2 / CHAIN_STAGES);
            s
        })
        .collect();
    for pair in stages.windows(2) {
        b.flow_between_streamers(pair[0], "y", pair[1], "u");
    }
    b.probe(stages[CHAIN_STAGES - 1], "y", "y");
    // One period of the 1 kHz loop per macro step.
    b.declare_budget(BudgetScope::Model, STEP * 1e9);
    let mut registry = BehaviorRegistry::new()
        .streamer("stage0", move || Box::new(ChainSource { amplitude, omega }));
    for i in 1..CHAIN_STAGES {
        let name = format!("stage{i}");
        registry = registry
            .streamer(name.clone(), move || Box::new(Lag { name: name.clone(), state: 0.0 }));
    }
    (b.build(), registry)
}

/// Non-feedthrough chain source: `amplitude * sin(omega t)` at the step
/// start.
struct ChainSource {
    amplitude: f64,
    omega: f64,
}

impl StreamerBehavior for ChainSource {
    fn name(&self) -> &str {
        "stage0"
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
    fn advance(&mut self, t: f64, _h: f64, _u: &[f64], y: &mut [f64]) -> Result<(), SolveError> {
        y[0] = self.amplitude * (self.omega * t).sin();
        Ok(())
    }
}

/// Non-feedthrough first-order lag: outputs its state, then relaxes it one
/// Euler step toward its input.
struct Lag {
    name: String,
    state: f64,
}

impl StreamerBehavior for Lag {
    fn name(&self) -> &str {
        &self.name
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
    fn advance(&mut self, _t: f64, h: f64, u: &[f64], y: &mut [f64]) -> Result<(), SolveError> {
        y[0] = self.state;
        self.state += h * (u[0] - self.state);
        Ok(())
    }
}
