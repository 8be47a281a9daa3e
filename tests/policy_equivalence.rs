//! Cross-policy equivalence: the same model run under `CurrentThread`
//! and `DedicatedThreads` must produce *bit-identical* recorder series
//! and final states — the threaded deployment is a performance choice,
//! never a semantic one. Also pins the engine's step-count-bound
//! termination (`run_until` takes an exact number of macro steps, immune
//! to f64 clock drift).

use unified_rt::core::elaborate::{elaborate, BehaviorRegistry};
use unified_rt::core::engine::{EngineConfig, HybridEngine};
use unified_rt::core::model::{ModelBuilder, UnifiedModel};
use unified_rt::core::recorder::Recorder;
use unified_rt::core::threading::ThreadPolicy;
use unified_rt::dataflow::flowtype::FlowType;
use unified_rt::dataflow::streamer::OdeStreamer;
use unified_rt::ode::events::{EventDirection, ZeroCrossing};
use unified_rt::ode::solver::SolverKind;
use unified_rt::ode::system::InputSystem;
use unified_rt::umlrt::capsule::{CapsuleContext, SmCapsule};
use unified_rt::umlrt::statemachine::StateMachineBuilder;
use unified_rt::umlrt::value::Value;

/// Compiles `model` against `registry` and builds its engine.
fn engine(model: &UnifiedModel, registry: BehaviorRegistry, config: EngineConfig) -> HybridEngine {
    let compiled = elaborate(model, registry).expect("model compiles");
    HybridEngine::from_compiled(&compiled, config).expect("engine")
}

/// An undamped oscillator streamer at `omega`, starting at x = (1, 0).
fn osc(omega: f64) -> OdeStreamer<Osc> {
    OdeStreamer::new("osc", Osc { omega }, SolverKind::Rk4.create(), &[1.0, 0.0], 1e-3)
}

#[derive(Clone)]

struct Tank {
    inflow: f64,
    drain: f64,
}

impl InputSystem for Tank {
    fn dim(&self) -> usize {
        1
    }
    fn input_dim(&self) -> usize {
        0
    }
    fn derivatives(&self, _t: f64, x: &[f64], _u: &[f64], dx: &mut [f64]) {
        dx[0] = self.inflow - self.drain * x[0];
    }
}

#[derive(Clone)]

struct Osc {
    omega: f64,
}

impl InputSystem for Osc {
    fn dim(&self) -> usize {
        2
    }
    fn input_dim(&self) -> usize {
        0
    }
    fn derivatives(&self, _t: f64, x: &[f64], _u: &[f64], dx: &mut [f64]) {
        dx[0] = x[1];
        dx[1] = -self.omega * self.omega * x[0];
    }
}

/// Two streamer groups (a supervised tank and an independent oscillator),
/// one supervisor capsule toggling the tank's inflow over an SPort link,
/// probes in both groups.
struct Run {
    series: Vec<(String, Vec<(f64, f64)>)>,
    final_state: String,
    delivered: u64,
    step_count: u64,
    time: f64,
}

fn run_two_groups(policy: ThreadPolicy, t_end: f64) -> Run {
    let mut b = ModelBuilder::new("two-groups");
    let tank = b.streamer("tank", "rk4");
    let oscillator = b.streamer("osc", "rk4");
    let supervisor = b.capsule("supervisor");
    b.streamer_out(tank, "x", FlowType::scalar());
    b.streamer_out(oscillator, "y", FlowType::vector(2));
    b.streamer_feedthrough(tank, false);
    b.streamer_feedthrough(oscillator, false);
    b.assign_thread(tank, 0);
    b.assign_thread(oscillator, 1);
    b.streamer_sport(tank, "ctl", "TankCtl");
    b.capsule_sport(supervisor, "p", "TankCtl");
    b.sport_link(supervisor, "p", tank, "ctl");
    b.probe(tank, "x", "level");
    b.probe(oscillator, "y", "osc");

    let registry = BehaviorRegistry::new()
        .streamer("tank", || {
            Box::new(
                OdeStreamer::new(
                    "tank",
                    Tank { inflow: 2.0, drain: 0.5 },
                    SolverKind::Rk4.create(),
                    &[0.0],
                    1e-3,
                )
                .with_guard(ZeroCrossing::new("high", EventDirection::Rising, |_t, x| x[0] - 1.5))
                .with_guard(ZeroCrossing::new("low", EventDirection::Falling, |_t, x| x[0] - 1.0))
                .with_event_sport("ctl")
                .with_signal_handler(|msg, t: &mut Tank, _| match msg.signal() {
                    "open" => t.inflow = 2.0,
                    "close" => t.inflow = 0.0,
                    _ => {}
                }),
            )
        })
        .streamer("osc", || Box::new(osc(3.0)))
        .capsule("supervisor", || {
            let machine = StateMachineBuilder::new("supervisor")
                .state("filling")
                .state("draining")
                .initial("filling", |_d: &mut u32, _ctx: &mut CapsuleContext| {})
                .on("filling", ("p", "high"), "draining", |n, _m, ctx| {
                    *n += 1;
                    ctx.send("p", "close", Value::Empty);
                })
                .on("draining", ("p", "low"), "filling", |n, _m, ctx| {
                    *n += 1;
                    ctx.send("p", "open", Value::Empty);
                })
                .build()
                .expect("machine");
            Box::new(SmCapsule::new(machine, 0u32))
        });
    let model = b.build();
    let mut engine = engine(&model, registry, EngineConfig { step: 0.01, policy });
    let cap = 0;
    let rec = Recorder::new();
    engine.set_recorder(rec.clone());
    engine.run_until(t_end).expect("run");

    Run {
        series: rec.names().into_iter().map(|n| (n.clone(), rec.series(&n))).collect(),
        final_state: engine.controller().capsule_state(cap).expect("state").to_owned(),
        delivered: engine.controller().delivered_count(),
        step_count: engine.step_count(),
        time: engine.time(),
    }
}

#[test]
fn policies_produce_bit_identical_series_and_final_states() {
    let local = run_two_groups(ThreadPolicy::CurrentThread, 20.0);
    let threaded = run_two_groups(ThreadPolicy::DedicatedThreads, 20.0);

    assert_eq!(local.step_count, threaded.step_count, "same number of macro steps");
    assert_eq!(local.time.to_bits(), threaded.time.to_bits(), "bit-identical final time");
    assert_eq!(local.final_state, threaded.final_state, "same capsule state");
    assert_eq!(local.delivered, threaded.delivered, "same number of delivered events");

    assert_eq!(local.series.len(), threaded.series.len());
    for ((name_a, a), (name_b, b)) in local.series.iter().zip(&threaded.series) {
        assert_eq!(name_a, name_b);
        assert_eq!(a.len(), b.len(), "series `{name_a}` lengths");
        for (k, ((t1, v1), (t2, v2))) in a.iter().zip(b).enumerate() {
            assert_eq!(t1.to_bits(), t2.to_bits(), "series `{name_a}` sample {k} time");
            assert_eq!(v1.to_bits(), v2.to_bits(), "series `{name_a}` sample {k} value");
        }
    }
    // The closed loop actually switched — this is not an idle run.
    assert!(local.delivered >= 2, "supervisor saw threshold crossings");
}

#[test]
fn run_until_takes_an_exact_number_of_steps() {
    // Regression for the old `seconds() + 1e-12 < t_end` loop bound: with
    // a drift-free clock and a step-count bound, k successive runs to
    // k * 0.1 with h = 1e-3 land on exactly 100 * k steps, and probe
    // series grow by exactly 100 samples per segment.
    for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
        let mut b = ModelBuilder::new("free");
        let node = b.streamer("osc", "rk4");
        b.streamer_out(node, "y", FlowType::vector(2));
        b.streamer_feedthrough(node, false);
        b.probe(node, "y", "y");
        let registry = BehaviorRegistry::new().streamer("osc", || Box::new(osc(2.0)));
        let mut engine = engine(&b.build(), registry, EngineConfig { step: 1e-3, policy });
        let rec = Recorder::new();
        engine.set_recorder(rec.clone());

        for k in 1..=7u64 {
            engine.run_until(k as f64 * 0.1).expect("run");
            assert_eq!(engine.step_count(), 100 * k, "{policy}: exact step count at segment {k}");
            assert_eq!(rec.series("y").len() as u64, 100 * k, "{policy}: exact sample count");
        }
        // Time is the drift-free product, bit-equal to step_count * h.
        assert_eq!(engine.time().to_bits(), (700.0f64 * 1e-3).to_bits(), "{policy}");
        // Re-running to a reached instant takes no further steps.
        engine.run_until(0.7).expect("noop run");
        assert_eq!(engine.step_count(), 700, "{policy}: no extra steps");
    }
}

// ------------------------------------------------- cross-group channels

use unified_rt::dataflow::streamer::{FnStreamer, StreamerBehavior};
use unified_rt::ode::SolveError;

/// Non-feedthrough source: y = sin(3 t) at the step start.
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
    fn advance(&mut self, t: f64, _h: f64, _u: &[f64], y: &mut [f64]) -> Result<(), SolveError> {
        y[0] = (3.0 * t).sin();
        Ok(())
    }
}

/// Non-feedthrough unit-delay witness: output is the input latched at the
/// step start — for a cross-group consumer, the producer's previous
/// step's sample.
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
    fn advance(&mut self, _t: f64, _h: f64, u: &[f64], y: &mut [f64]) -> Result<(), SolveError> {
        y[0] = u[0];
        Ok(())
    }
}

/// Producer group (wave source) feeding a consumer group (unit-delay
/// witness plus an intra-group feedthrough doubler) through a
/// cross-group double-buffered channel. `max_batch` tunes the threaded
/// path's rendezvous amortization (1 = every step, like the pre-batching
/// engine).
fn run_cross_group(policy: ThreadPolicy, max_batch: u64, t_end: f64) -> Run {
    let mut b = ModelBuilder::new("cross-group");
    let wave = b.streamer("wave", "none");
    let wit = b.streamer("witness", "none");
    let dbl = b.streamer("dbl", "none");
    b.streamer_out(wave, "y", FlowType::scalar());
    for s in [wit, dbl] {
        b.streamer_in(s, "u", FlowType::scalar());
        b.streamer_out(s, "y", FlowType::scalar());
    }
    b.streamer_feedthrough(wave, false);
    b.streamer_feedthrough(wit, false);
    b.assign_thread(wave, 0);
    b.assign_thread(wit, 1);
    b.assign_thread(dbl, 1);
    b.flow_between_streamers(wave, "y", wit, "u");
    b.flow_between_streamers(wit, "y", dbl, "u");
    b.probe(wave, "y", "src");
    b.probe(dbl, "y", "dbl");
    let registry = BehaviorRegistry::new()
        .streamer("wave", || Box::new(Wave))
        .streamer("witness", || Box::new(Witness))
        .streamer("dbl", || {
            Box::new(FnStreamer::new("dbl", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| {
                y[0] = 2.0 * u[0]
            }))
        });
    let mut engine = engine(&b.build(), registry, EngineConfig { step: 0.01, policy });
    engine.set_max_batch(max_batch);
    let rec = Recorder::new();
    engine.set_recorder(rec.clone());
    // Two segments, so channel state also crosses a run_until boundary.
    engine.run_until(t_end / 2.0).expect("first segment");
    engine.run_until(t_end).expect("second segment");

    Run {
        series: rec.names().into_iter().map(|n| (n.clone(), rec.series(&n))).collect(),
        final_state: String::new(),
        delivered: engine.controller().delivered_count(),
        step_count: engine.step_count(),
        time: engine.time(),
    }
}

#[test]
fn cross_group_series_are_bit_identical_across_policies_and_batching() {
    // K = 1 forces a rendezvous per macro step (today's pre-batching
    // schedule); the default lets the coordinator batch freely. All
    // threaded variants must match the local run bit-for-bit.
    let local = run_cross_group(ThreadPolicy::CurrentThread, 1, 2.0);
    for max_batch in [1, u64::MAX] {
        let threaded = run_cross_group(ThreadPolicy::DedicatedThreads, max_batch, 2.0);
        assert_eq!(local.step_count, threaded.step_count, "batch={max_batch}: steps");
        assert_eq!(local.time.to_bits(), threaded.time.to_bits(), "batch={max_batch}: time");
        assert_eq!(local.series.len(), threaded.series.len());
        for ((name_a, a), (name_b, b)) in local.series.iter().zip(&threaded.series) {
            assert_eq!(name_a, name_b);
            assert_eq!(a.len(), b.len(), "batch={max_batch}: series `{name_a}` lengths");
            for (k, ((t1, v1), (t2, v2))) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    t1.to_bits(),
                    t2.to_bits(),
                    "batch={max_batch}: series `{name_a}` sample {k} time"
                );
                assert_eq!(
                    v1.to_bits(),
                    v2.to_bits(),
                    "batch={max_batch}: series `{name_a}` sample {k} value"
                );
            }
        }
    }
}

#[test]
fn cross_group_channel_imposes_exactly_one_step_of_delay() {
    for (policy, max_batch) in [
        (ThreadPolicy::CurrentThread, 1),
        (ThreadPolicy::DedicatedThreads, 1),
        (ThreadPolicy::DedicatedThreads, u64::MAX),
    ] {
        let run = run_cross_group(policy, max_batch, 2.0);
        let dbl = &run.series.iter().find(|(n, _)| n == "dbl").expect("dbl series").1;
        let src = &run.series.iter().find(|(n, _)| n == "src").expect("src series").1;
        assert_eq!(src.len(), 200, "{policy}/batch={max_batch}");
        assert_eq!(dbl.len(), 200, "{policy}/batch={max_batch}");
        // Step 0: the consumer read the channel's zero-initialised front
        // buffer; the intra-group doubler saw it the same step.
        assert_eq!(dbl[0].1.to_bits(), 0.0f64.to_bits(), "{policy}/batch={max_batch}: initial");
        // Step k: the doubler carries 2 x the producer's step k-1 sample
        // (scaling by 2 is exact, so bit equality holds).
        for k in 1..dbl.len() {
            assert_eq!(
                dbl[k].1.to_bits(),
                (2.0 * src[k - 1].1).to_bits(),
                "{policy}/batch={max_batch}: delayed sample {k}"
            );
        }
    }
}

#[test]
fn zero_group_threaded_run_matches_local() {
    for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
        let mut b = ModelBuilder::new("events");
        b.capsule("idle");
        let mut engine =
            engine(&b.build(), BehaviorRegistry::new(), EngineConfig { step: 1e-3, policy });
        engine.run_until(0.25).expect("run");
        assert_eq!(engine.step_count(), 250, "{policy}: pure event-driven step count");
        assert_eq!(engine.time().to_bits(), (250.0f64 * 1e-3).to_bits(), "{policy}");
    }
}
