//! Closed-form row kernels: an ensemble row whose lanes all run one
//! `FnStreamer<F>` closure type steps as one monomorphised row, calling a
//! clone of each lane's closure, and every instance must still be
//! bit-identical to a standalone [`HybridEngine`] run with that
//! instance's closure — and to the per-lane `advance` path of the same
//! ensemble.
//!
//! A seeded generator varies the lane count (1 to 65, pinning 1, 3, 4,
//! 5, 64 and 65, so every remainder of the kernels' four-lane blocks
//! shows), the input width (0 to 3, fed per instance by an upstream
//! closed-form row), the output width (1 to 3), whether the row has an
//! SPort link, and the thread policy. Each lane's closure carries its own
//! accumulator, so a row that shared, reset or reordered lane state, or
//! handed one lane another lane's input, would show in the series. A row
//! whose factory alternates between two closure types must step lane by
//! lane and still match.
//!
//! The per-lane side wraps each behaviour in [`PerLane`], which hides its
//! lane from the row kernels but forwards its SPort traffic, so both
//! sides see the same deliveries.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use unified_rt::analysis::compile;
use unified_rt::core::elaborate::BehaviorRegistry;
use unified_rt::core::engine::{EngineConfig, HybridEngine};
use unified_rt::core::ensemble::{EnsembleEngine, VariantSpec};
use unified_rt::core::model::{ModelBuilder, UnifiedModel};
use unified_rt::core::recorder::Recorder;
use unified_rt::core::threading::ThreadPolicy;
use unified_rt::dataflow::flowtype::FlowType;
use unified_rt::dataflow::streamer::{FnStreamer, OdeLane, PerLane, StreamerBehavior};
use unified_rt::ode::rng::Pcg32;
use unified_rt::ode::SolveError;
use unified_rt::umlrt::capsule::{CapsuleContext, SmCapsule};
use unified_rt::umlrt::message::Message;
use unified_rt::umlrt::statemachine::StateMachineBuilder;
use unified_rt::umlrt::value::Value;

const STEP: f64 = 0.01;
const T_END: f64 = 0.15;
const CASES: usize = 10;

/// Counts a behaviour's own `advance` calls (made only when its row
/// steps lane by lane) and the SPort signals delivered to it; every other
/// call forwards, the lane view included, so the row may still batch.
struct Counted {
    inner: Box<dyn StreamerBehavior>,
    calls: Arc<Calls>,
}

#[derive(Debug, Default)]
struct Calls {
    advance: AtomicUsize,
    signals: AtomicUsize,
}

impl StreamerBehavior for Counted {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn input_width(&self) -> usize {
        self.inner.input_width()
    }
    fn output_width(&self) -> usize {
        self.inner.output_width()
    }
    fn advance(&mut self, t: f64, h: f64, u: &[f64], y: &mut [f64]) -> Result<(), SolveError> {
        self.calls.advance.fetch_add(1, Ordering::Relaxed);
        self.inner.advance(t, h, u, y)
    }
    fn on_signal(&mut self, msg: &Message) {
        self.calls.signals.fetch_add(1, Ordering::Relaxed);
        self.inner.on_signal(msg);
    }
    fn as_ode_lane(&self) -> Option<&dyn OdeLane> {
        self.inner.as_ode_lane()
    }
}

/// Which side of the kernel comparison an ensemble runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kernel {
    /// The plain model: every closed-form row steps as one row kernel.
    Batched,
    /// Every behaviour wrapped in [`PerLane`]: rows step lane by lane.
    PerLane,
}

/// One instance's closure parameters.
#[derive(Debug, Clone)]
struct Lane {
    /// The row closure's initial accumulator.
    acc0: f64,
    gain: f64,
    /// The upstream source's phase, so each instance's row sees its own
    /// input.
    phase: f64,
}

/// The row closure of one lane: a per-lane accumulator driven by the
/// lane's inputs, mildly nonlinear so any reordering of lanes or inputs
/// shows.
fn accumulator(lane: &Lane) -> impl FnMut(f64, f64, &[f64], &mut [f64]) + Clone + Send + 'static {
    let (mut acc, gain) = (lane.acc0, lane.gain);
    move |t: f64, h: f64, u: &[f64], y: &mut [f64]| {
        let drive: f64 = u.iter().enumerate().map(|(j, uj)| (j + 1) as f64 * uj).sum();
        acc += h * (gain * drive - acc) + 1e-3 * t;
        for (j, yj) in y.iter_mut().enumerate() {
            *yj = acc * (j + 1) as f64 + u.get(j).map_or(0.0, |uj| uj.sin());
        }
    }
}

/// The same row under a second closure type.
fn doubled_accumulator(
    lane: &Lane,
) -> impl FnMut(f64, f64, &[f64], &mut [f64]) + Clone + Send + 'static {
    let mut f = accumulator(lane);
    move |t: f64, h: f64, u: &[f64], y: &mut [f64]| f(t, h, u, y)
}

/// The upstream closed-form source of one lane.
fn source(lane: &Lane) -> impl FnMut(f64, f64, &[f64], &mut [f64]) + Clone + Send + 'static {
    let phase = lane.phase;
    move |t: f64, _h: f64, _u: &[f64], y: &mut [f64]| {
        for (j, yj) in y.iter_mut().enumerate() {
            *yj = (phase + (j + 1) as f64 * 7.0 * t).sin();
        }
    }
}

/// Hands instance `i` of a compiled system its own behaviour: the
/// factory's calls made before [`Instances::arm`] (compile-time checks)
/// build instance 0's, then an ensemble calls it once per instance, in
/// instance order.
#[derive(Clone)]
struct Instances {
    made: Arc<AtomicUsize>,
    first: Arc<AtomicUsize>,
}

impl Instances {
    fn new() -> Self {
        Instances { made: Arc::default(), first: Arc::new(AtomicUsize::new(usize::MAX)) }
    }

    fn next(&self) -> usize {
        let n = self.made.fetch_add(1, Ordering::Relaxed);
        n.saturating_sub(self.first.load(Ordering::Relaxed))
    }

    fn arm(&self) {
        self.first.store(self.made.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// How the model's factories pick each behaviour's lane.
#[derive(Clone)]
enum Pick {
    /// Every call builds this instance's behaviour (standalone runs).
    Fixed(usize),
    /// Calls count instances ([`Instances`]), one counter per factory.
    Counted(Instances, Instances),
}

/// One generated row configuration.
#[derive(Debug, Clone)]
struct Case {
    k: usize,
    in_w: usize,
    out_w: usize,
    linked: bool,
    /// Odd instances get the second closure type: the row cannot batch.
    mixed: bool,
    policy: ThreadPolicy,
    lanes: Vec<Lane>,
}

impl Case {
    fn series(&self) -> Vec<String> {
        (0..self.out_w).map(|j| format!("y{j}")).collect()
    }

    /// `src → row` (the source only when the row has inputs), probed on
    /// every row output, plus a capsule that signals the row once on its
    /// SPort when the row is linked.
    fn model(
        &self,
        pick: Pick,
        kernel: Kernel,
        calls: &Arc<Calls>,
    ) -> (UnifiedModel, BehaviorRegistry) {
        let mut b = ModelBuilder::new("fn-row");
        let row = b.streamer("row", "none");
        for j in 0..self.out_w {
            b.streamer_out(row, format!("y{j}"), FlowType::scalar());
            b.probe(row, format!("y{j}"), format!("y{j}"));
        }
        let wrap = move |b: Box<dyn StreamerBehavior>| -> Box<dyn StreamerBehavior> {
            match kernel {
                Kernel::Batched => b,
                Kernel::PerLane => Box::new(PerLane(b)),
            }
        };
        let (case, c, p) = (self.clone(), calls.clone(), pick.clone());
        let mut registry = BehaviorRegistry::new().streamer("row", move || {
            let i = match &p {
                Pick::Fixed(i) => *i,
                Pick::Counted(rows, _) => rows.next(),
            };
            let (lane, w, out) = (&case.lanes[i], case.in_w, case.out_w);
            let inner: Box<dyn StreamerBehavior> = if case.mixed && i % 2 == 1 {
                Box::new(FnStreamer::new("row", w, out, doubled_accumulator(lane)))
            } else {
                Box::new(FnStreamer::new("row", w, out, accumulator(lane)))
            };
            wrap(Box::new(Counted { inner, calls: c.clone() }))
        });
        if self.in_w > 0 {
            let src = b.streamer("src", "none");
            b.streamer_out(src, "y", FlowType::vector(self.in_w));
            b.streamer_in(row, "u", FlowType::vector(self.in_w));
            b.flow_between_streamers(src, "y", row, "u");
            let case = self.clone();
            registry = registry.streamer("src", move || {
                let i = match &pick {
                    Pick::Fixed(i) => *i,
                    Pick::Counted(_, sources) => sources.next(),
                };
                wrap(Box::new(FnStreamer::new("src", 0, case.in_w, source(&case.lanes[i]))))
            });
        }
        if self.linked {
            let sup = b.capsule("sup");
            b.streamer_sport(row, "ctl", "Ctl");
            b.capsule_sport(sup, "p", "Ctl");
            b.sport_link(sup, "p", row, "ctl");
            registry = registry.capsule("sup", || {
                let machine = StateMachineBuilder::new("sup")
                    .state("s")
                    .initial("s", |_: &mut u32, ctx: &mut CapsuleContext| {
                        ctx.send("p", "go", Value::Real(1.0));
                    })
                    .build()
                    .expect("machine");
                Box::new(SmCapsule::new(machine, 0u32))
            });
        }
        (b.build(), registry)
    }

    /// Runs the `K`-instance ensemble under `kernel`; returns the
    /// recorder and the row's call counts.
    fn run_ensemble(&self, kernel: Kernel) -> (Recorder, Arc<Calls>) {
        let calls = Arc::new(Calls::default());
        let (rows, sources) = (Instances::new(), Instances::new());
        let pick = Pick::Counted(rows.clone(), sources.clone());
        let (model, registry) = self.model(pick, kernel, &calls);
        let compiled = compile(&model, registry).expect("fn-row model compiles");
        rows.arm();
        sources.arm();
        let config = EngineConfig { step: STEP, policy: self.policy };
        let variants = vec![VariantSpec::new(); self.k];
        let mut ensemble =
            EnsembleEngine::from_variants(&compiled, &variants, config).expect("ensemble");
        let rec = Recorder::new();
        ensemble.set_recorder(rec.clone());
        ensemble.run_until(T_END).expect("ensemble run");
        (rec, calls)
    }

    /// Runs instance `i` alone on a `HybridEngine`.
    fn run_standalone(&self, i: usize) -> Recorder {
        let calls = Arc::new(Calls::default());
        let (model, registry) = self.model(Pick::Fixed(i), Kernel::Batched, &calls);
        let compiled = compile(&model, registry).expect("standalone model compiles");
        let config = EngineConfig { step: STEP, policy: self.policy };
        let mut engine = HybridEngine::from_compiled(&compiled, config).expect("engine");
        let rec = Recorder::new();
        engine.set_recorder(rec.clone());
        engine.run_until(T_END).expect("standalone run");
        rec
    }

    /// Runs both kernels and every standalone instance, asserting the
    /// row batched (or, for a mixed row, did not) and that every series
    /// is bit-identical across the three.
    fn check(&self, what: &str) {
        let steps = (T_END / STEP).round() as usize;
        let (batched, calls) = self.run_ensemble(Kernel::Batched);
        let advanced = calls.advance.load(Ordering::Relaxed);
        if self.mixed {
            assert_eq!(advanced, self.k * steps, "{what}: a mixed row steps lane by lane");
        } else {
            assert_eq!(advanced, 0, "{what}: the row stepped as one row kernel");
        }
        let linked = if self.linked { self.k } else { 0 };
        assert_eq!(calls.signals.load(Ordering::Relaxed), linked, "{what}: SPort deliveries");
        let (per_lane, calls) = self.run_ensemble(Kernel::PerLane);
        assert_eq!(calls.advance.load(Ordering::Relaxed), self.k * steps, "{what}: per-lane axis");
        let signals = calls.signals.load(Ordering::Relaxed);
        assert_eq!(signals, linked, "{what}: per-lane SPort deliveries");
        for i in 0..self.k {
            let standalone = self.run_standalone(i);
            for series in self.series() {
                let name = EnsembleEngine::series_name(&series, i);
                let label = format!("{what}/{name}");
                assert_bit_identical(&batched.series(&name), &standalone.series(&series), &label);
                assert_bit_identical(&batched.series(&name), &per_lane.series(&name), &label);
            }
        }
    }
}

fn generate(rng: &mut Pcg32, index: usize) -> Case {
    // The first cases pin the lane counts that must never fall out of
    // coverage; then the generator takes over.
    let k = match index {
        0 => 1,
        1 => 3,
        2 => 4,
        3 => 5,
        4 => 64,
        5 => 65,
        _ => rng.gen_range_usize(1, 66),
    };
    let lanes = (0..k)
        .map(|_| Lane {
            acc0: rng.gen_range_f64(-1.0, 1.0),
            gain: rng.gen_range_f64(0.5, 3.0),
            phase: rng.gen_range_f64(0.0, 6.0),
        })
        .collect();
    Case {
        k,
        // Every input width and every output width within the first four
        // cases, then random.
        in_w: if index < 4 { index } else { rng.gen_range_usize(0, 4) },
        out_w: if index < 3 { index + 1 } else { rng.gen_range_usize(1, 4) },
        linked: index % 3 == 1 || (index > 5 && rng.gen_bool(0.5)),
        mixed: false,
        policy: if index.is_multiple_of(2) {
            ThreadPolicy::CurrentThread
        } else {
            ThreadPolicy::DedicatedThreads
        },
        lanes,
    }
}

fn assert_bit_identical(a: &[(f64, f64)], b: &[(f64, f64)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: series lengths");
    assert!(!a.is_empty(), "{what}: series carried samples");
    for (k, ((t1, v1), (t2, v2))) in a.iter().zip(b).enumerate() {
        assert_eq!(t1.to_bits(), t2.to_bits(), "{what}: sample {k} time");
        assert_eq!(v1.to_bits(), v2.to_bits(), "{what}: sample {k} value");
    }
}

#[test]
fn fn_rows_match_standalone_engines_across_generated_shapes() {
    let mut rng = Pcg32::seed_from_u64(0xF2_2077);
    for index in 0..CASES {
        let case = generate(&mut rng, index);
        let what = format!(
            "case {index} (k={}, in={}, out={}, linked={}, {})",
            case.k, case.in_w, case.out_w, case.linked, case.policy
        );
        case.check(&what);
    }
}

#[test]
fn mixed_closure_row_falls_back_to_per_lane_steps_and_still_matches() {
    let mut rng = Pcg32::seed_from_u64(0x313ED);
    for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
        let mut case = generate(&mut rng, 3);
        case.k = 6;
        case.lanes.resize(6, case.lanes[0].clone());
        case.lanes.iter_mut().enumerate().for_each(|(i, l)| l.phase += i as f64);
        case.mixed = true;
        case.policy = policy;
        case.check(&format!("mixed/{policy}"));
    }
}
