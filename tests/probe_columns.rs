//! The probe-column contract: each streamer group buffers its probe
//! samples in a private column and flushes it into the recorder when the
//! column fills, at the end of every public step call (failed ones
//! included), after every paced cycle and at the end of every threaded
//! batch. So between calls the recorder holds exactly the samples a
//! per-sample push would have left there, in the same order.

use std::sync::{Arc, Mutex};
use unified_rt::core::elaborate::{elaborate, BehaviorRegistry, CompiledSystem};
use unified_rt::core::engine::{EngineConfig, HybridEngine};
use unified_rt::core::ensemble::{EnsembleEngine, VariantSpec};
use unified_rt::core::model::ModelBuilder;
use unified_rt::core::pacer::{PacedConfig, TimeSource};
use unified_rt::core::recorder::{Recorder, SeriesHandle};
use unified_rt::core::threading::ThreadPolicy;
use unified_rt::core::CoreError;
use unified_rt::dataflow::flowtype::FlowType;
use unified_rt::dataflow::streamer::{OdeStreamer, StreamerBehavior};
use unified_rt::ode::solver::SolverKind;
use unified_rt::ode::system::InputSystem;
use unified_rt::ode::SolveError;

const STEP: f64 = 1e-3;
const POLICIES: [ThreadPolicy; 2] = [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads];

/// `x'' = -omega² x`, two lanes out.
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

/// A non-feedthrough closed-form streamer with two output lanes,
/// `[u0 + 2 u1, rate · t]` at the step start (inputs as latched; none when
/// `inputs` is 0), failing every step from `fail_from` on.
struct Closed {
    name: &'static str,
    inputs: usize,
    rate: f64,
    fail_from: f64,
}

impl StreamerBehavior for Closed {
    fn name(&self) -> &str {
        self.name
    }
    fn input_width(&self) -> usize {
        self.inputs
    }
    fn output_width(&self) -> usize {
        2
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn advance(&mut self, t: f64, h: f64, u: &[f64], y: &mut [f64]) -> Result<(), SolveError> {
        if t >= self.fail_from {
            return Err(SolveError::InvalidStep { step: h });
        }
        y[0] = u.iter().enumerate().map(|(i, v)| (1 + i) as f64 * v).sum();
        y[1] = self.rate * t;
        Ok(())
    }
}

fn closed(name: &'static str, inputs: usize, rate: f64) -> Closed {
    Closed { name, inputs, rate, fail_from: f64::INFINITY }
}

/// Group 0: an RK4 oscillator probed as `x`. Group 1: a closed-form
/// witness fed by the oscillator over a cross-group channel, probed on
/// both its output ports, as `w` and `ramp`. Three series over two groups
/// of different column widths.
fn two_group_system() -> CompiledSystem {
    let mut b = ModelBuilder::new("columns");
    let osc = b.streamer("osc", "rk4");
    let wit = b.streamer("wit", "none");
    b.streamer_out(osc, "y", FlowType::vector(2));
    b.streamer_in(wit, "u", FlowType::vector(2));
    b.streamer_out(wit, "y", FlowType::scalar());
    b.streamer_out(wit, "r", FlowType::scalar());
    b.streamer_feedthrough(osc, false);
    b.streamer_feedthrough(wit, false);
    b.assign_thread(osc, 0);
    b.assign_thread(wit, 1);
    b.flow_between_streamers(osc, "y", wit, "u");
    b.probe(osc, "y", "x");
    b.probe(wit, "y", "w");
    b.probe(wit, "r", "ramp");
    let registry = BehaviorRegistry::new()
        .streamer("osc", || {
            Box::new(
                OdeStreamer::new(
                    "osc",
                    Osc { omega: 3.0 },
                    SolverKind::Rk4.create(),
                    &[1.0, 0.0],
                    2.5e-4,
                )
                .with_param_fn(|s: &mut Osc, name, v| {
                    let known = name == "omega";
                    if known {
                        s.omega = v;
                    }
                    known
                }),
            )
        })
        .streamer("wit", || Box::new(closed("wit", 2, 5.0)));
    let compiled = elaborate(&b.build(), registry).expect("model compiles");
    assert_eq!(compiled.cross_flow_count(), 1);
    compiled
}

/// One variant per instance, each oscillating at its own rate.
fn variants(k: usize) -> Vec<VariantSpec> {
    (0..k).map(|i| VariantSpec::new().set("osc", "omega", 1.0 + 0.05 * i as f64)).collect()
}

fn ensemble(k: usize, policy: ThreadPolicy, recorder: &Recorder) -> EnsembleEngine {
    let config = EngineConfig { step: STEP, policy };
    let mut e =
        EnsembleEngine::from_variants(&two_group_system(), &variants(k), config).expect("ensemble");
    e.set_recorder(recorder.clone());
    e
}

/// Every series of `rec` as raw bits, in name order.
fn bits(rec: &Recorder) -> Vec<(String, Vec<(u64, u64)>)> {
    rec.names()
        .into_iter()
        .map(|n| {
            let s = rec.series(&n).iter().map(|(t, v)| (t.to_bits(), v.to_bits())).collect();
            (n, s)
        })
        .collect()
}

#[test]
fn samples_are_visible_after_every_step_call() {
    for policy in POLICIES {
        let rec = Recorder::new();
        let mut e = ensemble(2, policy, &rec);
        let x1 = rec.handle(&EnsembleEngine::series_name("x", 1));
        for n in 1..=5 {
            e.step_once().expect("step");
            assert_eq!(x1.len(), n, "{policy}: after step_once {n}");
            assert_eq!(x1.last().expect("sample").0.to_bits(), e.time().to_bits());
            assert_eq!(rec.len(), 6 * n, "{policy}: every series, every instance");
        }
        // Longer than any column holds, so flushes happen mid-call too.
        e.run_until(1.2).expect("run");
        assert_eq!(e.step_count(), 1200);
        assert_eq!(x1.len(), 1200, "{policy}: after run_until");
        assert_eq!(rec.len(), 6 * 1200, "{policy}");
        assert_eq!(x1.last().expect("sample").0.to_bits(), e.time().to_bits());
        // An empty span flushes nothing new and loses nothing.
        e.run_until(1.2).expect("empty span");
        assert_eq!(rec.len(), 6 * 1200, "{policy}");
    }
}

/// A scripted clock that reads a probe series' length on every reading,
/// as perfbench's paced-cycle clock does: `1 µs` per reading, sleeps
/// advance it by the requested amount.
struct WatchingClock {
    now: u64,
    probe: SeriesHandle,
    seen: usize,
    /// How many samples each reading that saw a change found new.
    new_per_change: Arc<Mutex<Vec<usize>>>,
}

impl TimeSource for WatchingClock {
    fn now_ns(&mut self) -> u64 {
        self.now += 1_000;
        let len = self.probe.len();
        if len != self.seen {
            self.new_per_change.lock().expect("not poisoned").push(len - self.seen);
            self.seen = len;
        }
        self.now
    }

    fn sleep_ns(&mut self, ns: u64) {
        self.now += ns;
    }
}

#[test]
fn a_paced_clock_sees_one_new_sample_per_cycle() {
    for policy in POLICIES {
        let rec = Recorder::new();
        let config = EngineConfig { step: STEP, policy };
        let mut e = HybridEngine::from_compiled(&two_group_system(), config).expect("engine");
        // One macro step per threaded batch, so every cycle is one step.
        e.set_max_batch(1);
        e.set_recorder(rec.clone());
        e.run_until(STEP).expect("warm-up");
        let probe = rec.handle("w");
        let changes = Arc::new(Mutex::new(Vec::new()));
        let clock = WatchingClock {
            now: 0,
            seen: probe.len(),
            probe,
            new_per_change: Arc::clone(&changes),
        };
        let paced = PacedConfig::new().with_rate(1.0).with_clock(Box::new(clock));
        let report = e.run_paced(0.6, paced).expect("paced run");
        assert_eq!(report.samples, 599, "{policy}");
        let changes = changes.lock().expect("not poisoned").clone();
        assert_eq!(changes.len() as u64, report.samples, "{policy}: one change per cycle");
        assert!(changes.iter().all(|&n| n == 1), "{policy}: {changes:?}");
        assert_eq!(rec.series("w").len(), 600, "{policy}");
    }
}

/// Group 0 closed-form, probed `a`; group 1 fails every step from
/// `t = 0.0495`, probed `b`: the 51st macro step fails after group 0
/// stepped it.
fn fusing_engine(policy: ThreadPolicy, recorder: &Recorder) -> HybridEngine {
    let mut b = ModelBuilder::new("fuse");
    let ok = b.streamer("ok", "none");
    let fuse = b.streamer("fuse", "none");
    for (s, thread) in [(ok, 0), (fuse, 1)] {
        b.streamer_out(s, "y", FlowType::vector(2));
        b.streamer_feedthrough(s, false);
        b.assign_thread(s, thread);
    }
    b.probe(ok, "y", "a");
    b.probe(fuse, "y", "b");
    let registry = BehaviorRegistry::new()
        .streamer("ok", || Box::new(closed("ok", 0, 1.0)))
        .streamer("fuse", || {
            Box::new(Closed { name: "fuse", inputs: 0, rate: 2.0, fail_from: 0.0495 })
        });
    let compiled = elaborate(&b.build(), registry).expect("model compiles");
    let config = EngineConfig { step: STEP, policy };
    let mut e = HybridEngine::from_compiled(&compiled, config).expect("engine");
    e.set_recorder(recorder.clone());
    e
}

#[test]
fn a_failed_step_leaves_every_sample_taken_in_the_recorder() {
    // Per-sample recording left these counts: the step that failed in
    // group 1 had already recorded group 0's sample, and a threaded
    // worker with no channel peer ran its whole batch before the
    // coordinator saw the failure.
    for (policy, a_len) in
        [(ThreadPolicy::CurrentThread, 51), (ThreadPolicy::DedicatedThreads, 100)]
    {
        let rec = Recorder::new();
        let mut e = fusing_engine(policy, &rec);
        let err = e.run_until(0.1).expect_err("group 1 fails");
        assert!(matches!(err, CoreError::Flow(_)), "{policy}: {err}");
        assert_eq!(e.step_count(), 50, "{policy}: steps every group completed");
        assert_eq!(rec.series("a").len(), a_len, "{policy}");
        assert_eq!(rec.series("b").len(), 50, "{policy}");
        let a = rec.series("a");
        assert!(a.iter().enumerate().all(|(n, (t, _))| *t == (n + 1) as f64 * STEP), "{policy}");
    }
    // step_once fails the same step, with group 0's partial sample kept.
    let rec = Recorder::new();
    let mut e = fusing_engine(ThreadPolicy::CurrentThread, &rec);
    let failed = (0..100).position(|_| e.step_once().is_err()).expect("a step fails");
    assert_eq!(failed, 50);
    assert_eq!((rec.series("a").len(), rec.series("b").len()), (51, 50));
}

#[test]
fn swapping_the_recorder_between_calls_splits_the_series() {
    for policy in POLICIES {
        let whole = Recorder::new();
        let mut e = ensemble(3, policy, &whole);
        e.run_until(0.7).expect("run");
        let (first, second) = (Recorder::new(), Recorder::new());
        let mut e = ensemble(3, policy, &first);
        e.run_until(0.3).expect("first half");
        e.set_recorder(second.clone());
        e.run_until(0.7).expect("second half");
        for name in whole.names() {
            let mut joined = first.series(&name);
            assert_eq!(joined.len(), 300, "{policy}: {name}");
            joined.extend(second.series(&name));
            let same = joined.len() == 700
                && joined
                    .iter()
                    .zip(whole.series(&name))
                    .all(|(a, b)| a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits());
            assert!(same, "{policy}: {name} split across recorders differs");
        }
    }
}

#[test]
fn policies_and_call_patterns_agree_bit_for_bit_past_the_column_capacity() {
    // K = 1: columns of 512 and 341 rows; K = 64: of 15 and 7 rows.
    for (k, steps) in [(1usize, 1500u64), (64, 100)] {
        let t_end = steps as f64 * STEP;
        // Reference: one step per call, so one flush per step.
        let reference = Recorder::new();
        let mut e = ensemble(k, ThreadPolicy::CurrentThread, &reference);
        (0..steps).for_each(|_| e.step_once().expect("step"));
        // Each instance's series are its standalone run's, so no column
        // lane lands in another instance's or probe's series.
        for i in [0, k - 1] {
            let solo = Recorder::new();
            let config = EngineConfig { step: STEP, policy: ThreadPolicy::CurrentThread };
            let variant = &variants(k)[i..=i];
            let mut e = EnsembleEngine::from_variants(&two_group_system(), variant, config)
                .expect("standalone");
            e.set_recorder(solo.clone());
            e.run_until(t_end).expect("standalone run");
            for name in ["x", "w", "ramp"] {
                let own = EnsembleEngine::series_name(name, i);
                let (a, b) =
                    (solo.series(&EnsembleEngine::series_name(name, 0)), reference.series(&own));
                let same = a.len() == b.len()
                    && a.iter().zip(&b).all(|(p, q)| {
                        p.0.to_bits() == q.0.to_bits() && p.1.to_bits() == q.1.to_bits()
                    });
                assert!(same, "K = {k}: {own} differs from its standalone run");
            }
        }
        let reference = bits(&reference);
        assert_eq!(reference.len(), 3 * k);
        assert!(reference.iter().all(|(_, s)| s.len() as u64 == steps));
        for policy in POLICIES {
            let rec = Recorder::new();
            let mut e = ensemble(k, policy, &rec);
            e.run_until(t_end / 3.0).expect("first span");
            e.run_until(t_end).expect("second span");
            assert_eq!(bits(&rec), reference, "K = {k}, {policy}");
        }
    }
}
