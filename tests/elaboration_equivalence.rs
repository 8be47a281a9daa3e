//! Elaboration pins: lowering a declarative `UnifiedModel` through
//! `compile` (analyze → elaborate) must keep producing the exact probe
//! series it produced when every workload here was also wired by hand
//! against the runtime and proven bit-identical to the lowered form.
//! Those series are pinned as FNV-1a 64 checksums over (series name,
//! time bits, value bits), under both threading policies. Elaboration
//! is a change of notation, never a change of semantics.
//!
//! Pinned workloads:
//!
//! * **fig2** — the paper's Figure 2 streamer network (source, fan-out,
//!   two consumers). Routing the fan-out through a capsule relay DPort
//!   (Figure 3) lowers to the same flows, so it must agree to the last
//!   bit with the direct fan-out.
//! * **cross-group** — a wave source on one solver thread feeding a
//!   hold + scaler on another through a one-step-delay channel.
//! * **quickstart** — the bang-bang thermostat: an ODE streamer with
//!   zero-crossing guards SPort-linked to a thermostat capsule.
//! * **the catalogue** — every clean built-in model with stub behaviours
//!   that log each step's inputs and outputs.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use unified_rt::analysis::compile;
use unified_rt::analysis::examples;
use unified_rt::analysis::stubs::StubStreamer;
use unified_rt::core::cache::Fnv1a;
use unified_rt::core::elaborate::BehaviorRegistry;
use unified_rt::core::engine::{EngineConfig, HybridEngine};
use unified_rt::core::model::{FlowEnd, ModelBuilder, UnifiedModel};
use unified_rt::core::recorder::Recorder;
use unified_rt::core::threading::ThreadPolicy;
use unified_rt::core::time::SimClock;
use unified_rt::dataflow::flowtype::{FlowType, Unit};
use unified_rt::dataflow::streamer::{FnStreamer, OdeStreamer, StreamerBehavior};
use unified_rt::ode::events::{EventDirection, ZeroCrossing};
use unified_rt::ode::solver::SolverKind;
use unified_rt::ode::system::InputSystem;
use unified_rt::umlrt::capsule::{CapsuleContext, SmCapsule};
use unified_rt::umlrt::protocol::{PayloadKind, Protocol};
use unified_rt::umlrt::statemachine::{SmSpec, StateMachineBuilder};
use unified_rt::umlrt::value::Value;

const POLICIES: [ThreadPolicy; 2] = [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads];

/// fig2 to t = 2 s.
const FIG2_CHECKSUM: u64 = 0xd79b_60e8_8573_6e00;
/// The cross-group pipeline to t = 2 s.
const CROSS_GROUP_CHECKSUM: u64 = 0xccbe_1534_e32b_3cd2;
/// The thermostat to t = 120 s.
const QUICKSTART_CHECKSUM: u64 = 0x68cd_a293_9beb_b29b;
/// Every clean catalogue model with logging stubs, to t = 1 s at h = 0.01.
const CATALOGUE_CHECKSUMS: &[(&str, u64)] = &[
    ("demo", 0x4152_958b_c298_0b19),
    ("fig2", 0x891e_358b_7476_4745),
    ("fig3", 0xdce5_76a0_5b74_1b48),
    ("cruise-control", 0x405f_1f45_2fad_ae51),
    ("tank-level", 0xf53b_7fa6_e1a5_17e5),
    ("inverted-pendulum", 0xeaed_dea9_0acd_9ece),
    ("bouncing-ball", 0x2ddd_6ef3_2619_f41d),
];

/// Everything observable about a finished run, captured for bitwise
/// comparison.
struct Run {
    series: Vec<(String, Vec<(f64, f64)>)>,
    final_state: Option<String>,
    delivered: u64,
    step_count: u64,
    time: f64,
}

fn capture(engine: &HybridEngine, rec: &Recorder, capsule: Option<usize>) -> Run {
    Run {
        series: rec.names().into_iter().map(|n| (n.clone(), rec.series(&n))).collect(),
        final_state: capsule
            .map(|c| engine.controller().capsule_state(c).expect("capsule state").to_owned()),
        delivered: engine.controller().delivered_count(),
        step_count: engine.step_count(),
        time: engine.time(),
    }
}

fn assert_bit_identical(a: &Run, b: &Run, what: &str) {
    assert_eq!(a.step_count, b.step_count, "{what}: same number of macro steps");
    assert_eq!(a.time.to_bits(), b.time.to_bits(), "{what}: bit-identical final time");
    assert_eq!(a.final_state, b.final_state, "{what}: same capsule state");
    assert_eq!(a.delivered, b.delivered, "{what}: same delivered event count");
    assert_eq!(a.series.len(), b.series.len(), "{what}: same probe count");
    for ((name_a, a), (name_b, b)) in a.series.iter().zip(&b.series) {
        assert_eq!(name_a, name_b, "{what}: same probe names");
        assert_eq!(a.len(), b.len(), "{what}: series `{name_a}` lengths");
        for (k, ((t1, v1), (t2, v2))) in a.iter().zip(b).enumerate() {
            assert_eq!(t1.to_bits(), t2.to_bits(), "{what}: series `{name_a}` sample {k} time");
            assert_eq!(v1.to_bits(), v2.to_bits(), "{what}: series `{name_a}` sample {k} value");
        }
    }
}

/// FNV-1a 64 over every series in order: its name, then each sample's
/// time and value bits (little-endian).
fn checksum(run: &Run) -> u64 {
    let mut h = Fnv1a::new();
    for (name, samples) in &run.series {
        h.update(name.as_bytes());
        for (t, v) in samples {
            h.update(&t.to_bits().to_le_bytes());
            h.update(&v.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

fn run_compiled(
    model: &UnifiedModel,
    registry: BehaviorRegistry,
    policy: ThreadPolicy,
    t_end: f64,
    capsule: Option<&str>,
) -> Run {
    let compiled = compile(model, registry).expect("model compiles");
    let cap = capsule.map(|name| compiled.capsule_index(name).expect("capsule exists"));
    let mut engine = HybridEngine::from_compiled(&compiled, EngineConfig { step: 0.01, policy })
        .expect("engine");
    let rec = Recorder::new();
    engine.set_recorder(rec.clone());
    engine.run_until(t_end).expect("run");
    capture(&engine, &rec, cap)
}

// ---------------------------------------------------------------- fig2

fn fig2_source() -> Box<dyn StreamerBehavior> {
    Box::new(FnStreamer::new("sub1", 0, 1, |t: f64, _h, _u: &[f64], y: &mut [f64]| {
        y[0] = (2.0 * t).sin();
    }))
}

fn fig2_doubler() -> Box<dyn StreamerBehavior> {
    Box::new(FnStreamer::new("sub2", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| y[0] = 2.0 * u[0]))
}

fn fig2_squarer() -> Box<dyn StreamerBehavior> {
    Box::new(FnStreamer::new("sub3", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| y[0] = u[0] * u[0]))
}

fn fig2_registry() -> BehaviorRegistry {
    BehaviorRegistry::new()
        .streamer("sub1", fig2_source)
        .streamer("sub2", fig2_doubler)
        .streamer("sub3", fig2_squarer)
}

/// Figure 2 declared as a model: a container streamer, and the fan-out
/// as two similar flows.
fn fig2_model() -> UnifiedModel {
    let mut b = ModelBuilder::new("fig2");
    let top = b.streamer("top", "rk4");
    let sub1 = b.streamer("sub1", "rk4");
    let sub2 = b.streamer("sub2", "euler");
    let sub3 = b.streamer("sub3", "euler");
    b.contain_streamer(sub1, top);
    b.contain_streamer(sub2, top);
    b.contain_streamer(sub3, top);
    b.streamer_out(sub1, "y", FlowType::scalar());
    b.streamer_in(sub2, "u", FlowType::scalar());
    b.streamer_out(sub2, "y", FlowType::scalar());
    b.streamer_in(sub3, "u", FlowType::scalar());
    b.streamer_out(sub3, "y", FlowType::scalar());
    b.flow_between_streamers(sub1, "y", sub2, "u");
    b.flow_between_streamers(sub1, "y", sub3, "u");
    b.probe(sub2, "y", "sub2.y");
    b.probe(sub3, "y", "sub3.y");
    b.build()
}

/// [`fig2_model`] lowered through `compile` and run.
fn fig2_compiled(policy: ThreadPolicy, t_end: f64) -> Run {
    let model = fig2_model();
    let compiled = compile(&model, fig2_registry()).expect("fig2 compiles");
    assert!(compiled.streamer_node("top").is_none(), "containers contribute no nodes");
    run_compiled(&model, fig2_registry(), policy, t_end, None)
}

/// Figure 2 with the fan-out routed through a capsule relay DPort
/// (Figure 3): elaboration resolves the relay to the same two flows.
fn fig2_relayed(policy: ThreadPolicy, t_end: f64) -> Run {
    let mut b = ModelBuilder::new("fig2-relayed");
    let hub = b.capsule("hub");
    b.capsule_dport(hub, "d", FlowType::scalar());
    let sub1 = b.streamer("sub1", "rk4");
    b.streamer_out(sub1, "y", FlowType::scalar());
    b.flow(FlowEnd::Streamer(sub1, "y".into()), FlowEnd::Capsule(hub, "d".into()));
    for name in ["sub2", "sub3"] {
        let s = b.streamer(name, "euler");
        b.streamer_in(s, "u", FlowType::scalar());
        b.streamer_out(s, "y", FlowType::scalar());
        b.flow(FlowEnd::Capsule(hub, "d".into()), FlowEnd::Streamer(s, "u".into()));
        b.probe(s, "y", format!("{name}.y"));
    }
    run_compiled(&b.build(), fig2_registry(), policy, t_end, None)
}

// ----------------------------------------------------------- quickstart

#[derive(Clone)]

struct ThermalPlant {
    heater_on: bool,
}

impl InputSystem for ThermalPlant {
    fn dim(&self) -> usize {
        1
    }

    fn input_dim(&self) -> usize {
        0
    }

    fn derivatives(&self, _t: f64, x: &[f64], _u: &[f64], dx: &mut [f64]) {
        let heating = if self.heater_on { 60.0 } else { 0.0 };
        dx[0] = (heating - (x[0] - 10.0)) / 20.0;
    }
}

const SETPOINT: f64 = 22.0;
const BAND: f64 = 0.5;

fn room_streamer() -> Box<OdeStreamer<ThermalPlant>> {
    let plant = ThermalPlant { heater_on: true };
    Box::new(
        OdeStreamer::new("room", plant, SolverKind::Rk4.create(), &[15.0], 1e-3)
            .with_guard(ZeroCrossing::new("too_hot", EventDirection::Rising, |_t, x| {
                x[0] - (SETPOINT + BAND)
            }))
            .with_guard(ZeroCrossing::new("too_cold", EventDirection::Falling, |_t, x| {
                x[0] - (SETPOINT - BAND)
            }))
            .with_event_sport("ctl")
            .with_signal_handler(|msg, plant: &mut ThermalPlant, _state| match msg.signal() {
                "heater_on" => plant.heater_on = true,
                "heater_off" => plant.heater_on = false,
                _ => {}
            }),
    )
}

fn thermostat_capsule() -> Box<SmCapsule<u32>> {
    let machine = StateMachineBuilder::new("thermostat")
        .state("heating")
        .state("cooling")
        .initial("heating", |_d: &mut u32, _ctx: &mut CapsuleContext| {})
        .on("heating", ("plant", "too_hot"), "cooling", |switches, _m, ctx| {
            *switches += 1;
            ctx.send("plant", "heater_off", Value::Empty);
        })
        .on("cooling", ("plant", "too_cold"), "heating", |switches, _m, ctx| {
            *switches += 1;
            ctx.send("plant", "heater_on", Value::Empty);
        })
        .build()
        .expect("well-formed machine");
    Box::new(SmCapsule::new(machine, 0u32))
}

/// The thermostat declared as a model and lowered through `compile`.
fn quickstart_compiled(policy: ThreadPolicy, t_end: f64) -> Run {
    let mut b = ModelBuilder::new("thermostat-quickstart");
    let room = b.streamer("room", "rk4");
    let thermostat = b.capsule("thermostat");
    b.streamer_out(room, "temp", FlowType::with_unit(Unit::Kelvin));
    b.streamer_feedthrough(room, false);
    b.declare_protocol(
        Protocol::new("RoomCtl")
            .with_in("too_hot", PayloadKind::Empty)
            .with_in("too_cold", PayloadKind::Empty)
            .with_out("heater_on", PayloadKind::Empty)
            .with_out("heater_off", PayloadKind::Empty),
    );
    b.streamer_sport(room, "ctl", "RoomCtl");
    b.capsule_sport(thermostat, "plant", "RoomCtl");
    b.sport_link(thermostat, "plant", room, "ctl");
    b.capsule_machine(
        thermostat,
        SmSpec::new("thermostat")
            .state("heating")
            .state("cooling")
            .initial("heating")
            .on("heating", ("plant", "too_hot"), "cooling")
            .on("cooling", ("plant", "too_cold"), "heating"),
    );
    b.probe(room, "temp", "temperature");
    let registry = BehaviorRegistry::new()
        .streamer("room", || room_streamer())
        .capsule("thermostat", || thermostat_capsule());
    run_compiled(&b.build(), registry, policy, t_end, Some("thermostat"))
}

// ----------------------------------------------------------- cross-group

/// Non-feedthrough source: y = sin(2 t) at the step start.
struct Wave;
impl StreamerBehavior for Wave {
    fn name(&self) -> &str {
        "wave"
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
    ) -> Result<(), unified_rt::ode::SolveError> {
        y[0] = (2.0 * t).sin();
        Ok(())
    }
}

/// Non-feedthrough unit-delay: output is the input latched at step start.
struct Hold;
impl StreamerBehavior for Hold {
    fn name(&self) -> &str {
        "hold"
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
    ) -> Result<(), unified_rt::ode::SolveError> {
        y[0] = u[0];
        Ok(())
    }
}

fn scaler() -> Box<dyn StreamerBehavior> {
    Box::new(FnStreamer::new("scale", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| y[0] = 0.5 * u[0]))
}

/// A wave source in one group feeding a hold + feedthrough scaler in
/// another, declared as a model: `assign_thread` splits the
/// streamers across two groups and elaboration lowers the wave -> hold
/// flow into a cross-group channel (exporting the consumer input
/// automatically).
fn cross_group_compiled(policy: ThreadPolicy, t_end: f64) -> Run {
    let mut b = ModelBuilder::new("xg");
    let wave = b.streamer("wave", "rk4");
    let hold = b.streamer("hold", "euler");
    let scale = b.streamer("scale", "euler");
    b.streamer_out(wave, "y", FlowType::scalar());
    b.streamer_in(hold, "u", FlowType::scalar());
    b.streamer_out(hold, "y", FlowType::scalar());
    b.streamer_in(scale, "u", FlowType::scalar());
    b.streamer_out(scale, "y", FlowType::scalar());
    b.flow_between_streamers(wave, "y", hold, "u");
    b.flow_between_streamers(hold, "y", scale, "u");
    b.streamer_feedthrough(wave, false);
    b.streamer_feedthrough(hold, false);
    b.assign_thread(wave, 0);
    b.assign_thread(hold, 1);
    b.assign_thread(scale, 1);
    b.probe(wave, "y", "wave.y");
    b.probe(scale, "y", "scale.y");
    let model = b.build();
    let registry = || {
        BehaviorRegistry::new()
            .streamer("wave", || Box::new(Wave))
            .streamer("hold", || Box::new(Hold))
            .streamer("scale", scaler)
    };
    let compiled = compile(&model, registry()).expect("cross-group model compiles");
    assert_eq!(compiled.group_count(), 2, "assign_thread keeps two groups");
    assert_eq!(compiled.cross_flow_count(), 1, "one lowered channel");
    run_compiled(&model, registry(), policy, t_end, None)
}

// ------------------------------------------------------------ catalogue

/// Per streamer, every step's `(t, lane)` samples: inputs, then outputs.
type AdvanceLog = Arc<Mutex<BTreeMap<String, Vec<(f64, f64)>>>>;

/// A [`StubStreamer`] that logs what it reads and writes on every step,
/// so the checksum also covers streamers no probe watches.
struct Logged {
    stub: StubStreamer,
    name: String,
    log: AdvanceLog,
}

impl StreamerBehavior for Logged {
    fn name(&self) -> &str {
        self.stub.name()
    }
    fn input_width(&self) -> usize {
        self.stub.input_width()
    }
    fn output_width(&self) -> usize {
        self.stub.output_width()
    }
    fn direct_feedthrough(&self) -> bool {
        self.stub.direct_feedthrough()
    }
    fn advance(
        &mut self,
        t: f64,
        h: f64,
        u: &[f64],
        y: &mut [f64],
    ) -> Result<(), unified_rt::ode::SolveError> {
        self.stub.advance(t, h, u, y)?;
        let mut log = self.log.lock().expect("log");
        let samples = log.entry(format!("advance:{}", self.name)).or_default();
        samples.extend(u.iter().chain(y.iter()).map(|v| (t, *v)));
        Ok(())
    }
}

/// A catalogue model to t = 1 s with logging stubs: its probe series,
/// then one `advance:{streamer}` series per streamer.
fn catalogue_run(name: &str, policy: ThreadPolicy) -> Run {
    let model = examples::by_name(name).expect("catalogue name");
    let log = AdvanceLog::default();
    let mut registry = BehaviorRegistry::new();
    for (s, streamer, _) in model.iter_streamers() {
        let width = |ports: &[(String, FlowType)]| ports.iter().map(|(_, ty)| ty.width()).sum();
        let stub = StubStreamer::new(
            streamer,
            width(model.streamer_in_dports(s)),
            width(model.streamer_out_dports(s)),
            model.streamer_feedthrough(s),
        );
        let (name, log) = (streamer.to_owned(), log.clone());
        registry = registry.streamer(streamer, move || {
            Box::new(Logged { stub: stub.clone(), name: name.clone(), log: log.clone() })
        });
    }
    let mut run = run_compiled(&model, registry, policy, 1.0, None);
    run.series.extend(log.lock().expect("log").iter().map(|(n, s)| (n.clone(), s.clone())));
    run
}

// ---------------------------------------------------------------- tests

#[test]
fn fig2_series_match_the_pinned_checksum_with_or_without_a_relay() {
    for policy in POLICIES {
        let direct = fig2_compiled(policy, 2.0);
        assert_eq!(checksum(&direct), FIG2_CHECKSUM, "fig2/{policy}");
        // The run is not degenerate: both probes carried samples.
        assert_eq!(direct.series.len(), 2, "fig2/{policy}: both probes present");
        assert!(
            direct.series.iter().all(|(_, s)| s.len() == 200),
            "fig2/{policy}: 200 samples per probe"
        );
        let relayed = fig2_relayed(policy, 2.0);
        assert_bit_identical(&direct, &relayed, &format!("fig2 relayed/{policy}"));
    }
}

#[test]
fn fig2_networks_stepped_directly_match_a_k1_engine() {
    // The networks of `instantiate().into_parts()`, stepped through
    // `initialize`/`step` below the engine (the K = 1 walk of their step
    // plans), must reproduce a K = 1 engine's probe series bit for bit.
    let model = fig2_model();
    let compiled = compile(&model, fig2_registry()).expect("fig2 compiles");
    let engine = run_compiled(&model, fig2_registry(), ThreadPolicy::CurrentThread, 2.0, None);
    assert_eq!(checksum(&engine), FIG2_CHECKSUM);

    let (mut nets, _) = compiled.instantiate().expect("instance").into_parts();
    for net in &mut nets {
        net.initialize(0.0).expect("init");
    }
    let probes: Vec<(String, usize, _)> = ["sub2", "sub3"]
        .map(|name| {
            let (group, node) = compiled.streamer_node(name).expect("leaf placed");
            (format!("{name}.y"), group, node)
        })
        .into();
    let mut series: Vec<(String, Vec<(f64, f64)>)> =
        probes.iter().map(|(name, ..)| (name.clone(), Vec::new())).collect();
    let mut clock = SimClock::new();
    for _ in 0..engine.step_count {
        for net in &mut nets {
            net.step(0.01).expect("step");
        }
        clock.tick(0.01);
        for ((_, group, node), (_, samples)) in probes.iter().zip(&mut series) {
            let y = nets[*group].output(*node, "y").expect("output")[0];
            samples.push((clock.seconds(), y));
        }
    }
    let direct = Run {
        series,
        final_state: None,
        delivered: 0,
        step_count: engine.step_count,
        time: clock.seconds(),
    };
    assert_bit_identical(&direct, &engine, "fig2 networks vs K = 1 engine");
}

#[test]
fn cross_group_series_match_the_pinned_checksum_and_channel_delay() {
    for policy in POLICIES {
        let run = cross_group_compiled(policy, 2.0);
        assert_eq!(checksum(&run), CROSS_GROUP_CHECKSUM, "cross-group/{policy}");
        assert!(
            run.series.iter().all(|(_, s)| s.len() == 200),
            "cross-group/{policy}: 200 samples per probe"
        );
        // The channel's one-step delay is part of the pinned semantics:
        // scale(k) = 0.5 * wave(k-1), with a zero-initialised first read.
        let wave = &run.series.iter().find(|(n, _)| n == "wave.y").expect("wave series").1;
        let scale = &run.series.iter().find(|(n, _)| n == "scale.y").expect("scale series").1;
        assert_eq!(scale[0].1.to_bits(), 0.0f64.to_bits(), "cross-group/{policy}: initial read");
        for k in 1..scale.len() {
            assert_eq!(
                scale[k].1.to_bits(),
                (0.5 * wave[k - 1].1).to_bits(),
                "cross-group/{policy}: delayed sample {k}"
            );
        }
    }
}

#[test]
fn quickstart_series_match_the_pinned_checksum() {
    let runs = POLICIES.map(|policy| quickstart_compiled(policy, 120.0));
    for (policy, run) in POLICIES.iter().zip(&runs) {
        assert_eq!(checksum(run), QUICKSTART_CHECKSUM, "quickstart/{policy}");
        assert_eq!(run.step_count, 12_000, "quickstart/{policy}");
        // The closed loop actually switched — this is not an idle run.
        assert!(run.delivered >= 2, "quickstart/{policy}: the thermostat saw crossings");
    }
    assert_bit_identical(&runs[0], &runs[1], "quickstart across policies");
}

#[test]
fn every_catalogue_model_matches_its_pinned_checksum() {
    let pinned: Vec<&str> = CATALOGUE_CHECKSUMS.iter().map(|(name, _)| *name).collect();
    assert_eq!(pinned, examples::NAMES, "one pinned checksum per clean catalogue model");
    for &(name, expected) in CATALOGUE_CHECKSUMS {
        for policy in POLICIES {
            let run = catalogue_run(name, policy);
            assert_eq!(run.step_count, 100, "{name}/{policy}");
            assert_eq!(checksum(&run), expected, "{name}/{policy}: {:#018x}", checksum(&run));
        }
    }
}
