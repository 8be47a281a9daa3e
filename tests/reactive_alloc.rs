//! The reactive half of a macro step allocates nothing in the steady
//! state. The model is shaped like perfbench's `reactive-sport`: two
//! plants on each of two solver groups, each SPort-linked to its own
//! `SmCapsule` supervisor, with one `status`/`setpoint` round trip per
//! plant per step. Beside them run a capsule driven by a periodic timer
//! (toggling between two states, so every tick takes an external
//! transition) and a guard-free `OdeStreamer` kept on the per-lane path by
//! its signal handler.
//!
//! A counting global allocator, armed only on the test's own thread and
//! disarmed inside the test plant's own `advance` and `take_emitted`,
//! checks 1000 macro steps after 200 warm-up steps under `step_once`,
//! `run_until` and `run_paced` on the current thread, for one instance
//! and for a four-instance ensemble, with the recorder's series reserved.
//!
//! The same gate covers the recording half of the two streamer-only
//! benchmark shapes under `run_until`: four closed-form Figure 2 groups,
//! and a 64-instance RK4 sweep on the batched kernel. Their probe columns
//! fill and flush inside the measured steps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use unified_rt::core::elaborate::{elaborate, BehaviorRegistry, CompiledSystem};
use unified_rt::core::engine::{EngineConfig, HybridEngine};
use unified_rt::core::ensemble::{EnsembleEngine, VariantSpec};
use unified_rt::core::model::ModelBuilder;
use unified_rt::core::pacer::{PacedConfig, WallClock};
use unified_rt::core::recorder::Recorder;
use unified_rt::dataflow::flowtype::FlowType;
use unified_rt::dataflow::streamer::{FnStreamer, OdeStreamer, StreamerBehavior};
use unified_rt::ode::solver::SolverKind;
use unified_rt::ode::system::InputSystem;
use unified_rt::ode::SolveError;
use unified_rt::umlrt::capsule::{CapsuleContext, SmCapsule};
use unified_rt::umlrt::controller::Controller;
use unified_rt::umlrt::message::Message;
use unified_rt::umlrt::statemachine::StateMachineBuilder;
use unified_rt::umlrt::timing::TIMER_PORT;
use unified_rt::umlrt::value::Value;

struct CountingAlloc;

thread_local! {
    /// Whether this thread's allocations are counted.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Allocations (including reallocations) counted while armed.
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation() {
    if ARMED.with(Cell::get) {
        COUNT.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counters are const-initialised thread locals that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    COUNT.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    COUNT.with(Cell::get)
}

/// Disarms the counter until dropped, then restores its previous state:
/// the test plant's own allocations are not the engine's.
struct Disarmed(bool);

impl Disarmed {
    fn new() -> Self {
        Disarmed(ARMED.with(|a| a.replace(false)))
    }
}

impl Drop for Disarmed {
    fn drop(&mut self) {
        ARMED.with(|a| a.set(self.0));
    }
}

const PLANTS: usize = 4;
const STEP: f64 = 1e-3;
const TICK_PERIOD: f64 = 4e-3;
const WARM_UP: u64 = 200;
const MEASURED: u64 = 1000;

/// A first-order plant that relaxes toward its supervisor's last
/// `setpoint` and reports `status(y)` on SPort `sup` every step.
struct TestPlant {
    name: String,
    y: f64,
    setpoint: f64,
    emitted: Vec<(String, Message)>,
}

impl StreamerBehavior for TestPlant {
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
    fn advance(&mut self, t: f64, h: f64, _u: &[f64], y: &mut [f64]) -> Result<(), SolveError> {
        let _own = Disarmed::new();
        self.y += h * 20.0 * (self.setpoint - self.y);
        y[0] = self.y;
        let status = Message::new("status", Value::Real(self.y)).with_sent_at(t);
        self.emitted.push(("sup".to_owned(), status));
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
        let _own = Disarmed::new();
        std::mem::take(&mut self.emitted)
    }
}

/// `x' = -x + u`, with `u` set over the SPort handler.
#[derive(Clone)]
struct Lag {
    u: f64,
}

impl InputSystem for Lag {
    fn dim(&self) -> usize {
        1
    }
    fn input_dim(&self) -> usize {
        0
    }
    fn derivatives(&self, _t: f64, x: &[f64], _u: &[f64], dx: &mut [f64]) {
        dx[0] = self.u - x[0];
    }
}

fn model() -> CompiledSystem {
    let mut b = ModelBuilder::new("reactive");
    let mut registry = BehaviorRegistry::new();
    for i in 0..PLANTS {
        let plant = format!("plant{i}");
        let s = b.streamer(&plant, "none");
        b.streamer_out(s, "y", FlowType::scalar());
        b.streamer_feedthrough(s, false);
        b.streamer_sport(s, "sup", "Ctl");
        b.assign_thread(s, i / 2);
        let sup = b.capsule(format!("sup{i}"));
        b.capsule_sport(sup, "plant", "Ctl");
        b.sport_link(sup, "plant", s, "sup");
        b.probe(s, "y", format!("y{i}"));
        let reference = 1.0 + i as f64;
        registry = registry
            .streamer(plant.clone(), move || {
                Box::new(TestPlant {
                    name: plant.clone(),
                    y: 0.0,
                    setpoint: reference,
                    emitted: Vec::new(),
                })
            })
            .capsule(format!("sup{i}"), move || {
                let machine = StateMachineBuilder::new(format!("sup{i}"))
                    .state("run")
                    .initial("run", |_: &mut (), _: &mut CapsuleContext| {})
                    .internal("run", ("plant", "status"), move |_: &mut (), m: &Message, ctx| {
                        let y = m.value().as_real().unwrap_or(0.0);
                        ctx.send("plant", "setpoint", Value::Real(reference + (reference - y)));
                    })
                    .build()
                    .expect("supervisor machine");
                Box::new(SmCapsule::new(machine, ()))
            });
    }
    b.capsule("ticker");
    registry = registry.capsule("ticker", || {
        let machine = StateMachineBuilder::new("ticker")
            .state("low")
            .state("high")
            .initial("low", |_: &mut u64, ctx: &mut CapsuleContext| {
                ctx.inform_every(TICK_PERIOD, "tick");
            })
            .on("low", (TIMER_PORT, "tick"), "high", |n, _, _| *n += 1)
            .on("high", (TIMER_PORT, "tick"), "low", |n, _, _| *n += 1)
            .build()
            .expect("ticker machine");
        Box::new(SmCapsule::new(machine, 0u64))
    });
    let lag = b.streamer("lag", "rk4");
    b.streamer_out(lag, "y", FlowType::scalar());
    b.streamer_feedthrough(lag, false);
    b.probe(lag, "y", "lag");
    registry = registry.streamer("lag", || {
        Box::new(
            OdeStreamer::new("lag", Lag { u: 1.0 }, SolverKind::Rk4.create(), &[0.0], 2.5e-4)
                .with_signal_handler(|m: &Message, sys: &mut Lag, _x: &mut [f64]| {
                    sys.u = m.value().as_real().unwrap_or(sys.u);
                }),
        )
    });
    elaborate(&b.build(), registry).expect("model elaborates")
}

/// How the measured steps are driven.
#[derive(Debug, Clone, Copy)]
enum Drive {
    StepOnce,
    RunUntil,
    RunPaced,
}

enum Engine {
    One(HybridEngine),
    Many(EnsembleEngine),
}

impl Engine {
    fn build(compiled: &CompiledSystem, k: usize, recorder: &Recorder) -> Self {
        let config = EngineConfig::default();
        let mut engine = if k == 1 {
            Engine::One(HybridEngine::from_compiled(compiled, config).expect("engine"))
        } else {
            Engine::Many(EnsembleEngine::from_compiled(compiled, k, config).expect("ensemble"))
        };
        match &mut engine {
            Engine::One(e) => e.set_recorder(recorder.clone()),
            Engine::Many(e) => e.set_recorder(recorder.clone()),
        }
        engine
    }

    fn time(&self) -> f64 {
        match self {
            Engine::One(e) => e.time(),
            Engine::Many(e) => e.time(),
        }
    }

    fn controllers(&self, k: usize) -> Vec<&Controller> {
        match self {
            Engine::One(e) => vec![e.controller()],
            Engine::Many(e) => (0..k).map(|i| e.controller(i).expect("instance")).collect(),
        }
    }

    /// Advances `steps` macro steps the `drive` way; `paced` is the paced
    /// run's configuration, built before the counter is armed.
    fn advance(&mut self, drive: Drive, steps: u64, paced: PacedConfig) {
        let t_end = self.time() + steps as f64 * STEP;
        match (self, drive) {
            (Engine::One(e), Drive::StepOnce) => {
                (0..steps).for_each(|_| e.step_once().expect("step"))
            }
            (Engine::Many(e), Drive::StepOnce) => {
                (0..steps).for_each(|_| e.step_once().expect("step"))
            }
            (Engine::One(e), Drive::RunUntil) => e.run_until(t_end).expect("run"),
            (Engine::Many(e), Drive::RunUntil) => e.run_until(t_end).expect("run"),
            (Engine::One(e), Drive::RunPaced) => drop(e.run_paced(t_end, paced).expect("paced")),
            (Engine::Many(e), Drive::RunPaced) => drop(e.run_paced(t_end, paced).expect("paced")),
        }
    }
}

/// A fast, allocation-free-to-run paced configuration: its wall clock is
/// boxed here, outside the counted region.
fn paced_config() -> PacedConfig {
    PacedConfig::new().with_rate(1e6).with_clock(Box::new(WallClock::new()))
}

/// A recorder whose probe series (`names`, fanned out per instance when
/// `k > 1`) already have room for every sample the run records: pushing
/// and clearing keeps each buffer's capacity.
fn reserved_recorder<'a>(names: impl IntoIterator<Item = &'a str>, k: usize) -> Recorder {
    let recorder = Recorder::new();
    for name in names {
        for i in 0..k {
            let series =
                if k == 1 { name.to_owned() } else { EnsembleEngine::series_name(name, i) };
            let handle = recorder.handle(&series);
            for _ in 0..2 * (WARM_UP + MEASURED) {
                handle.push(0.0, 0.0);
            }
        }
    }
    recorder.clear();
    recorder
}

fn check(k: usize, drive: Drive) {
    let compiled = model();
    let recorder = reserved_recorder(["y0", "y1", "y2", "y3", "lag"], k);
    let mut engine = Engine::build(&compiled, k, &recorder);
    engine.advance(drive, WARM_UP, paced_config());
    let before: Vec<u64> = engine.controllers(k).iter().map(|c| c.delivered_count()).collect();
    let paced = paced_config();
    let count = allocations_in(|| engine.advance(drive, MEASURED, paced));
    assert_eq!(count, 0, "K = {k}, {drive:?}: {MEASURED} macro steps allocated {count} times");

    // The measured steps did the reactive work: every plant's round trip
    // and the ticker's firings, in every instance, and every probe sample.
    let ticks = (MEASURED as f64 * STEP / TICK_PERIOD).round() as u64;
    for (c, before) in engine.controllers(k).into_iter().zip(before) {
        let delivered = c.delivered_count() - before;
        let expected = MEASURED * PLANTS as u64 + ticks;
        assert!(
            delivered.abs_diff(expected) <= 1,
            "K = {k}, {drive:?}: delivered {delivered}, expected about {expected}"
        );
        assert_eq!(c.dropped_count(), 0);
    }
    let y0 = if k == 1 { "y0".to_owned() } else { EnsembleEngine::series_name("y0", k - 1) };
    let series = recorder.series(&y0);
    assert_eq!(series.len() as u64, WARM_UP + MEASURED);
    let y = series.last().expect("samples").1;
    assert!((y - 1.0).abs() < 0.1, "K = {k}, {drive:?}: plant 0 settles near 1, got {y}");
}

#[test]
fn one_instance_round_trips_allocate_nothing_under_every_drive() {
    for drive in [Drive::StepOnce, Drive::RunUntil, Drive::RunPaced] {
        check(1, drive);
    }
}

#[test]
fn four_instance_ensemble_round_trips_allocate_nothing_under_every_drive() {
    for drive in [Drive::StepOnce, Drive::RunUntil, Drive::RunPaced] {
        check(4, drive);
    }
}

/// Four Figure 2 groups as in the `fig2-loop` benchmark: a sine source
/// fanning out to a gain and a square, each group on its own thread
/// and probed on the gain.
fn fig2_groups() -> CompiledSystem {
    let mut b = ModelBuilder::new("fig2-groups");
    let mut registry = BehaviorRegistry::new();
    for g in 0..4 {
        let [n1, n2, n3] = ["sub1", "sub2", "sub3"].map(|s| format!("{s}-g{g}"));
        let [s1, s2, s3] = [&n1, &n2, &n3].map(|n| b.streamer(n, "none"));
        for s in [s1, s2, s3] {
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
        let omega = 1.0 + g as f64;
        registry = registry
            .streamer(n1.clone(), move || {
                let source = move |t: f64, _h, _u: &[f64], y: &mut [f64]| y[0] = (omega * t).sin();
                Box::new(FnStreamer::new(n1.clone(), 0, 1, source))
            })
            .streamer(n2.clone(), move || {
                let gain = |_t, _h, u: &[f64], y: &mut [f64]| y[0] = 2.0 * u[0];
                Box::new(FnStreamer::new(n2.clone(), 1, 1, gain))
            })
            .streamer(n3.clone(), move || {
                let square = |_t, _h, u: &[f64], y: &mut [f64]| y[0] = u[0] * u[0];
                Box::new(FnStreamer::new(n3.clone(), 1, 1, square))
            });
    }
    elaborate(&b.build(), registry).expect("model compiles")
}

/// `x'' = -4 x`: the `sweep-k64` benchmark's source.
#[derive(Clone)]
struct Sine;

impl InputSystem for Sine {
    fn dim(&self) -> usize {
        2
    }
    fn input_dim(&self) -> usize {
        0
    }
    fn output_dim(&self) -> usize {
        1
    }
    fn derivatives(&self, _t: f64, x: &[f64], _u: &[f64], dx: &mut [f64]) {
        dx[0] = x[1];
        dx[1] = -4.0 * x[0];
    }
    fn output(&self, _t: f64, x: &[f64], _u: &[f64], y: &mut [f64]) {
        y[0] = x[0];
    }
}

/// One group shaped like the `sweep-k64` benchmark: an RK4 source
/// (sub-step 0.1 ms) fanning out to a gain and a square, probed on the
/// gain.
fn sweep_group() -> CompiledSystem {
    let mut b = ModelBuilder::new("sweep");
    let s1 = b.streamer("sub1", "rk4");
    let s2 = b.streamer("sub2", "none");
    let s3 = b.streamer("sub3", "none");
    b.streamer_out(s1, "y", FlowType::scalar());
    b.streamer_feedthrough(s1, false);
    for s in [s2, s3] {
        b.streamer_in(s, "u", FlowType::scalar());
        b.streamer_out(s, "y", FlowType::scalar());
    }
    b.flow_between_streamers(s1, "y", s2, "u");
    b.flow_between_streamers(s1, "y", s3, "u");
    b.probe(s2, "y", "y");
    let registry = BehaviorRegistry::new()
        .streamer("sub1", || {
            Box::new(OdeStreamer::new("sub1", Sine, SolverKind::Rk4.create(), &[0.0, 1.0], 1e-4))
        })
        .streamer("sub2", || {
            let gain = |_t, _h, u: &[f64], y: &mut [f64]| y[0] = 2.0 * u[0];
            Box::new(FnStreamer::new("sub2", 1, 1, gain))
        })
        .streamer("sub3", || {
            let square = |_t, _h, u: &[f64], y: &mut [f64]| y[0] = u[0] * u[0];
            Box::new(FnStreamer::new("sub3", 1, 1, square))
        });
    elaborate(&b.build(), registry).expect("model compiles")
}

/// Counts the allocations of `MEASURED` macro steps taken by one
/// `run_until` call after `WARM_UP` ones, and checks every probe recorded
/// every step.
fn check_run_until(mut run_until: impl FnMut(f64), recorder: &Recorder, label: &str) {
    run_until(WARM_UP as f64 * STEP);
    let t_end = (WARM_UP + MEASURED) as f64 * STEP;
    let count = allocations_in(|| run_until(t_end));
    assert_eq!(count, 0, "{label}: {MEASURED} macro steps allocated {count} times");
    for name in recorder.names() {
        assert_eq!(recorder.series(&name).len() as u64, WARM_UP + MEASURED, "{label}: {name}");
    }
}

#[test]
fn four_fig2_groups_record_without_allocating() {
    let recorder = reserved_recorder(["y0", "y1", "y2", "y3"], 1);
    let mut engine =
        HybridEngine::from_compiled(&fig2_groups(), EngineConfig::default()).expect("engine");
    engine.set_recorder(recorder.clone());
    check_run_until(|t| engine.run_until(t).expect("run"), &recorder, "fig2 groups");
    assert_eq!(recorder.names().len(), 4);
}

#[test]
fn k64_rk4_sweep_records_without_allocating() {
    const K: usize = 64;
    let variants: Vec<VariantSpec> =
        (0..K).map(|i| VariantSpec::new().set("sub1", "x0[1]", 1.0 + i as f64 / 16.0)).collect();
    let recorder = reserved_recorder(["y"], K);
    let mut engine =
        EnsembleEngine::from_variants(&sweep_group(), &variants, EngineConfig::default())
            .expect("ensemble");
    engine.set_recorder(recorder.clone());
    check_run_until(|t| engine.run_until(t).expect("run"), &recorder, "K = 64 sweep");
    assert_eq!(recorder.names().len(), K);
}

#[test]
fn the_counter_sees_allocations_outside_the_plant() {
    // Guards the gate: armed allocations count, disarmed ones do not.
    let count = allocations_in(|| {
        drop(std::hint::black_box(vec![1u8; 64]));
        let _own = Disarmed::new();
        drop(std::hint::black_box(vec![1u8; 64]));
    });
    assert_eq!(count, 1);
}
