//! Typed row kernels: an ensemble row whose lanes all run one concrete
//! system type steps through a single monomorphised kernel, and every
//! instance must still be bit-identical to a standalone [`HybridEngine`]
//! run with that instance's parameters — and to the per-lane `advance`
//! path of the same ensemble.
//!
//! A seeded generator varies the lane count (1 to 65, including
//! remainders of the four-lane block), the state dimension (1 to 12, so lanes
//! run both on the fused kernel's fixed-size arrays, up to
//! [`CONST_LANE_DIM`], and on its scratch slices beyond), per-lane
//! parameters through [`VariantSpec`], an upstream-fed input width, a
//! non-identity output map, the solver (Euler or RK4) and the thread
//! policy. A row whose factory alternates between two concrete system
//! types or two substeps, or gives one instance a guard, must step lane
//! by lane and still match. A lane that diverges must fail the row
//! exactly as it fails alone.
//!
//! The per-lane side wraps each plant in [`PerLane`], which hides its
//! ODE lane, so the row never gets a kernel.
//!
//! [`CONST_LANE_DIM`]: unified_rt::ode::solver::CONST_LANE_DIM

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use unified_rt::analysis::compile;
use unified_rt::core::elaborate::BehaviorRegistry;
use unified_rt::core::engine::{EngineConfig, HybridEngine};
use unified_rt::core::ensemble::{EnsembleEngine, VariantSpec};
use unified_rt::core::model::{ModelBuilder, UnifiedModel};
use unified_rt::core::recorder::Recorder;
use unified_rt::core::threading::ThreadPolicy;
use unified_rt::core::CoreError;
use unified_rt::dataflow::flowtype::FlowType;
use unified_rt::dataflow::streamer::{FnStreamer, OdeStreamer, PerLane, StreamerBehavior};
use unified_rt::ode::events::{EventDirection, ZeroCrossing};
use unified_rt::ode::rng::Pcg32;
use unified_rt::ode::solver::{Solver, SolverKind, StepOutcome};
use unified_rt::ode::system::{BatchOdeSystem, InputSystem, OdeSystem};
use unified_rt::ode::SolveError;

const STEP: f64 = 0.01;
const T_END: f64 = 0.15;
const CASES: usize = 16;

/// A generated plant: `dim` states, `in_dim` inputs, `out_dim` outputs,
/// mildly nonlinear so any reordering of the arithmetic shows.
#[derive(Debug, Clone)]
struct GenPlant {
    dim: usize,
    in_dim: usize,
    out_dim: usize,
    gain: f64,
}

impl InputSystem for GenPlant {
    fn dim(&self) -> usize {
        self.dim
    }
    fn input_dim(&self) -> usize {
        self.in_dim
    }
    fn derivatives(&self, t: f64, x: &[f64], u: &[f64], dx: &mut [f64]) {
        for v in 0..self.dim {
            let drive: f64 =
                u.iter().enumerate().map(|(j, uj)| 0.1 * (j + v + 1) as f64 * uj).sum();
            dx[v] = -self.gain * x[v] + 0.5 * x[(v + 1) % self.dim].sin() + drive + 0.01 * t;
        }
    }
    fn output(&self, _t: f64, x: &[f64], u: &[f64], y: &mut [f64]) {
        for (j, yj) in y.iter_mut().enumerate() {
            let mix: f64 = x.iter().enumerate().map(|(v, xv)| xv * (1.0 + (j * v) as f64)).sum();
            *yj = mix + u.first().copied().unwrap_or(0.0);
        }
    }
    fn output_dim(&self) -> usize {
        self.out_dim
    }
}

/// The per-lane parameter a [`VariantSpec`] overrides.
trait Gain {
    fn gain_mut(&mut self) -> &mut f64;
}

impl Gain for GenPlant {
    fn gain_mut(&mut self) -> &mut f64 {
        &mut self.gain
    }
}

impl<const B: bool> Gain for Twin<B> {
    fn gain_mut(&mut self) -> &mut f64 {
        &mut self.0.gain
    }
}

/// The same equations under a second concrete type (`B` picks which).
#[derive(Debug, Clone)]
struct Twin<const B: bool>(GenPlant);

impl<const B: bool> InputSystem for Twin<B> {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn input_dim(&self) -> usize {
        self.0.input_dim()
    }
    fn derivatives(&self, t: f64, x: &[f64], u: &[f64], dx: &mut [f64]) {
        self.0.derivatives(t, x, u, dx);
    }
    fn output(&self, t: f64, x: &[f64], u: &[f64], y: &mut [f64]) {
        self.0.output(t, x, u, y);
    }
    fn output_dim(&self) -> usize {
        self.0.output_dim()
    }
}

/// Counts how a solver is driven: batched calls (the typed row kernel)
/// against scalar steps (the per-lane `advance` path).
#[derive(Debug, Default)]
struct Calls {
    batched: AtomicUsize,
    scalar: AtomicUsize,
}

struct CountingSolver {
    inner: Box<dyn Solver + Send>,
    calls: Arc<Calls>,
}

impl Solver for CountingSolver {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn order(&self) -> u32 {
        self.inner.order()
    }
    fn step(
        &mut self,
        sys: &dyn OdeSystem,
        t: f64,
        x: &mut [f64],
        h: f64,
    ) -> Result<StepOutcome, SolveError> {
        self.calls.scalar.fetch_add(1, Ordering::Relaxed);
        self.inner.step(sys, t, x, h)
    }
    fn clone_boxed(&self) -> Option<Box<dyn Solver + Send>> {
        Some(Box::new(CountingSolver {
            inner: self.inner.clone_boxed()?,
            calls: self.calls.clone(),
        }))
    }
    fn has_batched_kernel(&self) -> bool {
        self.inner.has_batched_kernel()
    }
    fn step_batch(
        &mut self,
        sys: &dyn BatchOdeSystem,
        t: f64,
        states: &mut [f64],
        dim: usize,
        h: f64,
    ) -> Result<(), SolveError> {
        self.calls.batched.fetch_add(1, Ordering::Relaxed);
        self.inner.step_batch(sys, t, states, dim, h)
    }
}

/// Which side of the kernel comparison an ensemble runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kernel {
    /// The plain model: an eligible row steps through its row kernel.
    Batched,
    /// Every plant wrapped in [`PerLane`]: the row steps lane by lane.
    PerLane,
}

/// One generated row configuration.
#[derive(Debug, Clone)]
struct Case {
    k: usize,
    dim: usize,
    in_dim: usize,
    out_dim: usize,
    substep: f64,
    solver: SolverKind,
    policy: ThreadPolicy,
    /// Per-instance parameters; instance 0 keeps the compiled values.
    lanes: Vec<Lane>,
}

/// One instance's parameters.
#[derive(Debug, Clone)]
struct Lane {
    gain: f64,
    x0: Vec<f64>,
    /// Initial state of the upstream driver, so each lane's plant sees
    /// its own input.
    drive: f64,
}

impl Case {
    fn plant(&self, gain: f64) -> GenPlant {
        GenPlant { dim: self.dim, in_dim: self.in_dim, out_dim: self.out_dim, gain }
    }

    fn streamer<S: InputSystem + Gain + Clone + Send + 'static>(
        &self,
        system: S,
        x0: &[f64],
        calls: &Arc<Calls>,
    ) -> OdeStreamer<S> {
        let solver = CountingSolver { inner: self.solver.create(), calls: calls.clone() };
        OdeStreamer::new("plant", system, Box::new(solver), x0, self.substep).with_param_fn(
            |s, name, value| {
                name == "gain" && {
                    *s.gain_mut() = value;
                    true
                }
            },
        )
    }

    fn variants(&self) -> Vec<VariantSpec> {
        let base = &self.lanes[0];
        self.lanes
            .iter()
            .map(|lane| {
                let mut spec = VariantSpec::new();
                if lane.gain != base.gain {
                    spec = spec.set("plant", "gain", lane.gain);
                }
                for (v, (a, b)) in lane.x0.iter().zip(&base.x0).enumerate() {
                    if a != b {
                        spec = spec.set("plant", format!("x0[{v}]"), *a);
                    }
                }
                if self.in_dim > 0 && lane.drive != base.drive {
                    spec = spec.set("drive", "x0[0]", lane.drive);
                }
                spec
            })
            .collect()
    }

    fn series(&self) -> Vec<String> {
        (0..self.out_dim).map(|j| format!("y{j}")).collect()
    }

    /// The model around the plant (with instance `i`'s driver when the
    /// plant has inputs): `drive → shaper → plant`, where the driver is
    /// an integrated first-order lag and the shaper an [`FnStreamer`]
    /// fanning it out to the plant's inputs; one scalar output port (and
    /// probe) per plant output.
    fn model(
        &self,
        i: usize,
        plant: impl Fn() -> Box<dyn StreamerBehavior> + Send + Sync + 'static,
    ) -> (UnifiedModel, BehaviorRegistry) {
        let mut b = ModelBuilder::new("typed-row");
        let p = b.streamer("plant", self.solver.to_string());
        b.streamer_feedthrough(p, false);
        for j in 0..self.out_dim {
            b.streamer_out(p, format!("y{j}"), FlowType::scalar());
            b.probe(p, format!("y{j}"), format!("y{j}"));
        }
        let mut registry = BehaviorRegistry::new().streamer("plant", plant);
        if self.in_dim > 0 {
            let w = self.in_dim;
            let drive = b.streamer("drive", "rk4");
            b.streamer_out(drive, "y", FlowType::scalar());
            b.streamer_feedthrough(drive, false);
            let shaper = b.streamer("shaper", "euler");
            b.streamer_in(shaper, "u", FlowType::scalar());
            b.streamer_out(shaper, "y", FlowType::vector(w));
            b.streamer_in(p, "u", FlowType::vector(w));
            b.flow_between_streamers(drive, "y", shaper, "u");
            b.flow_between_streamers(shaper, "y", p, "u");
            let x0 = self.lanes[i].drive;
            let lag = GenPlant { dim: 1, in_dim: 0, out_dim: 1, gain: 0.7 };
            registry = registry
                .streamer("drive", move || {
                    Box::new(OdeStreamer::new(
                        "drive",
                        lag.clone(),
                        SolverKind::Rk4.create(),
                        &[x0],
                        2e-3,
                    ))
                })
                .streamer("shaper", move || {
                    Box::new(FnStreamer::new(
                        "shaper",
                        1,
                        w,
                        |t: f64, _h, u: &[f64], y: &mut [f64]| {
                            for (j, yj) in y.iter_mut().enumerate() {
                                *yj = ((j + 1) as f64 * u[0] + t).sin();
                            }
                        },
                    ))
                });
        }
        (b.build(), registry)
    }

    /// Runs the `K`-instance ensemble under `kernel`; returns the recorder
    /// and the plant solver's call counts.
    fn run_ensemble(&self, kernel: Kernel) -> (Recorder, Arc<Calls>) {
        let (mut ensemble, rec, calls) = self.ensemble(kernel);
        ensemble.run_until(T_END).expect("ensemble run");
        (rec, calls)
    }

    /// The `K`-instance ensemble under `kernel`, recorded, not yet run.
    fn ensemble(&self, kernel: Kernel) -> (EnsembleEngine, Recorder, Arc<Calls>) {
        let calls = Arc::new(Calls::default());
        let case = self.clone();
        let c = calls.clone();
        let (model, registry) = self.model(0, move || {
            let lane = &case.lanes[0];
            let plant: Box<dyn StreamerBehavior> =
                Box::new(case.streamer(case.plant(lane.gain), &lane.x0, &c));
            match kernel {
                Kernel::Batched => plant,
                Kernel::PerLane => Box::new(PerLane(plant)),
            }
        });
        let compiled = compile(&model, registry).expect("typed-row model compiles");
        let config = EngineConfig { step: STEP, policy: self.policy };
        let mut ensemble =
            EnsembleEngine::from_variants(&compiled, &self.variants(), config).expect("ensemble");
        let rec = Recorder::new();
        ensemble.set_recorder(rec.clone());
        (ensemble, rec, calls)
    }

    /// Runs instance `i` alone on a `HybridEngine`.
    fn run_standalone(&self, i: usize) -> Recorder {
        let (mut engine, rec) = self.standalone(i);
        engine.run_until(T_END).expect("standalone run");
        rec
    }

    /// Instance `i` alone on a recorded `HybridEngine`, not yet run.
    fn standalone(&self, i: usize) -> (HybridEngine, Recorder) {
        let case = self.clone();
        let calls = Arc::new(Calls::default());
        let (model, registry) = self.model(i, move || {
            let lane = &case.lanes[i];
            Box::new(case.streamer(case.plant(lane.gain), &lane.x0, &calls))
        });
        let compiled = compile(&model, registry).expect("standalone model compiles");
        let config = EngineConfig { step: STEP, policy: self.policy };
        let mut engine = HybridEngine::from_compiled(&compiled, config).expect("engine");
        let rec = Recorder::new();
        engine.set_recorder(rec.clone());
        (engine, rec)
    }
}

fn generate(rng: &mut Pcg32, index: usize) -> Case {
    // The first cases pin the lane counts that must never fall out of
    // coverage; then the generator takes over.
    let k = match index {
        0 => 1,
        1 => 3,
        2 => 5,
        3 => 64,
        _ => rng.gen_range_usize(1, 66),
    };
    let dim = rng.gen_range_usize(1, 13);
    let in_dim = if index.is_multiple_of(2) { rng.gen_range_usize(1, 4) } else { 0 };
    let out_dim = rng.gen_range_usize(1, 4);
    let base_gain = rng.gen_range_f64(0.5, 3.0);
    let base_x0 = rng.gen_vec_f64(dim, -1.0, 1.0);
    let lanes = (0..k)
        .map(|i| {
            if i == 0 {
                return Lane { gain: base_gain, x0: base_x0.clone(), drive: 1.0 };
            }
            let gain = if rng.gen_bool(0.5) { rng.gen_range_f64(0.5, 3.0) } else { base_gain };
            let mut x0 = base_x0.clone();
            let v = rng.gen_range_usize(0, dim);
            x0[v] = rng.gen_range_f64(-1.0, 1.0);
            Lane { gain, x0, drive: rng.gen_range_f64(-2.0, 2.0) }
        })
        .collect();
    Case {
        k,
        dim,
        in_dim,
        out_dim,
        // Never a divisor of the macro step: the clamped final sub-step
        // and the row clock's snap are exercised.
        substep: rng.gen_range_f64(0.0013, 0.006),
        solver: if rng.gen_bool(0.5) { SolverKind::Rk4 } else { SolverKind::ForwardEuler },
        policy: if index % 4 < 2 {
            ThreadPolicy::CurrentThread
        } else {
            ThreadPolicy::DedicatedThreads
        },
        lanes,
    }
}

fn assert_series_bit_identical(a: &[(f64, f64)], b: &[(f64, f64)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: series lengths");
    assert!(!a.is_empty(), "{what}: series carried samples");
    for (k, ((t1, v1), (t2, v2))) in a.iter().zip(b).enumerate() {
        assert_eq!(t1.to_bits(), t2.to_bits(), "{what}: sample {k} time");
        assert_eq!(v1.to_bits(), v2.to_bits(), "{what}: sample {k} value");
    }
}

#[test]
fn typed_rows_match_standalone_engines_across_generated_shapes() {
    let mut rng = Pcg32::seed_from_u64(0x7ED_2075);
    for index in 0..CASES {
        let case = generate(&mut rng, index);
        let what = format!(
            "case {index} (k={}, dim={}, in={}, out={}, {}, {})",
            case.k, case.dim, case.in_dim, case.out_dim, case.solver, case.policy
        );
        let (typed, calls) = case.run_ensemble(Kernel::Batched);
        assert!(calls.batched.load(Ordering::Relaxed) > 0, "{what}: row ran its typed kernel");
        assert_eq!(calls.scalar.load(Ordering::Relaxed), 0, "{what}: no per-lane steps");
        let (per_lane, calls) = case.run_ensemble(Kernel::PerLane);
        assert_eq!(calls.batched.load(Ordering::Relaxed), 0, "{what}: per-lane axis");
        for i in 0..case.k {
            let standalone = case.run_standalone(i);
            for series in case.series() {
                let name = EnsembleEngine::series_name(&series, i);
                let label = format!("{what}/{name}");
                assert_series_bit_identical(
                    &typed.series(&name),
                    &standalone.series(&series),
                    &label,
                );
                assert_series_bit_identical(&typed.series(&name), &per_lane.series(&name), &label);
            }
        }
    }
}

#[test]
fn mixed_type_row_falls_back_to_per_lane_steps_and_still_matches() {
    let mut rng = Pcg32::seed_from_u64(0x313ED);
    let mut case = generate(&mut rng, 0);
    case.k = 6;
    case.solver = SolverKind::Rk4;
    case.lanes = (0..case.k)
        .map(|i| Lane { gain: 1.0 + 0.25 * i as f64, x0: vec![0.5; case.dim], drive: 1.0 })
        .collect();
    let calls = Arc::new(Calls::default());
    let flip = Arc::new(AtomicUsize::new(0));
    let (model, registry) = {
        let case = case.clone();
        let calls = calls.clone();
        case.clone().model(0, move || {
            let lane = &case.lanes[0];
            let plant = case.plant(lane.gain);
            // Consecutive instances get different concrete types.
            if flip.fetch_add(1, Ordering::Relaxed).is_multiple_of(2) {
                Box::new(case.streamer(Twin::<false>(plant), &lane.x0, &calls))
            } else {
                Box::new(case.streamer(Twin::<true>(plant), &lane.x0, &calls))
            }
        })
    };
    let compiled = compile(&model, registry).expect("mixed model compiles");
    let config = EngineConfig { step: STEP, policy: case.policy };
    let mut ensemble =
        EnsembleEngine::from_variants(&compiled, &case.variants(), config).expect("ensemble");
    let rec = Recorder::new();
    ensemble.set_recorder(rec.clone());
    ensemble.run_until(T_END).expect("ensemble run");
    assert_eq!(calls.batched.load(Ordering::Relaxed), 0, "mixed row built no kernel");
    assert!(calls.scalar.load(Ordering::Relaxed) > 0, "mixed row stepped per lane");
    for i in 0..case.k {
        let standalone = case.run_standalone(i);
        for series in case.series() {
            let name = EnsembleEngine::series_name(&series, i);
            assert_series_bit_identical(&rec.series(&name), &standalone.series(&series), &name);
        }
    }
}

/// Runs a six-instance row whose factory gives instance `i` the substep
/// `lane(i).0` and, when `lane(i).1`, a guard, under both thread policies:
/// the row must step lane by lane, never calling `step_batch`, and each
/// instance must match a standalone engine with that instance's substep.
fn assert_row_steps_per_lane(what: &str, lane: fn(&Case, usize) -> (f64, bool)) {
    let mut rng = Pcg32::seed_from_u64(0x1A4E5);
    let mut case = generate(&mut rng, 0);
    case.k = 6;
    case.solver = SolverKind::Rk4;
    case.lanes = (0..case.k)
        .map(|i| Lane { gain: 1.0 + 0.25 * i as f64, x0: vec![0.5; case.dim], drive: 1.0 })
        .collect();
    for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
        case.policy = policy;
        let calls = Arc::new(Calls::default());
        // Factory calls made before the ensemble's own (compile-time
        // checks) build instance 0's plant; the ensemble then calls the
        // factory once per instance, in instance order.
        let made = Arc::new(AtomicUsize::new(0));
        let first = Arc::new(AtomicUsize::new(usize::MAX));
        let (model, registry) = {
            let (case, calls, made, first) =
                (case.clone(), calls.clone(), made.clone(), first.clone());
            case.clone().model(0, move || {
                let n = made.fetch_add(1, Ordering::Relaxed);
                let i = n.saturating_sub(first.load(Ordering::Relaxed));
                let (substep, guarded) = lane(&case, i);
                let base = &case.lanes[0];
                let plant = Case { substep, ..case.clone() }.streamer(
                    case.plant(base.gain),
                    &base.x0,
                    &calls,
                );
                if guarded {
                    let guard = ZeroCrossing::new("up", EventDirection::Rising, |_t, x| x[0]);
                    Box::new(plant.with_guard(guard))
                } else {
                    Box::new(plant)
                }
            })
        };
        let compiled = compile(&model, registry).expect("row model compiles");
        first.store(made.load(Ordering::Relaxed), Ordering::Relaxed);
        let config = EngineConfig { step: STEP, policy };
        let mut ensemble =
            EnsembleEngine::from_variants(&compiled, &case.variants(), config).expect("ensemble");
        let rec = Recorder::new();
        ensemble.set_recorder(rec.clone());
        ensemble.run_until(T_END).expect("ensemble run");
        let what = format!("{what}/{policy}");
        assert_eq!(calls.batched.load(Ordering::Relaxed), 0, "{what}: no row kernel");
        assert!(calls.scalar.load(Ordering::Relaxed) > 0, "{what}: stepped per lane");
        for i in 0..case.k {
            let standalone = Case { substep: lane(&case, i).0, ..case.clone() }.run_standalone(i);
            for series in case.series() {
                let name = EnsembleEngine::series_name(&series, i);
                let label = format!("{what}/{name}");
                assert_series_bit_identical(
                    &rec.series(&name),
                    &standalone.series(&series),
                    &label,
                );
            }
        }
    }
}

#[test]
fn a_row_with_one_guarded_instance_steps_per_lane_and_still_matches() {
    assert_row_steps_per_lane("guarded instance", |case, i| (case.substep, i == 2));
}

#[test]
fn a_row_of_alternating_substeps_steps_per_lane_and_still_matches() {
    assert_row_steps_per_lane("alternating substeps", |case, i| {
        (if i % 2 == 0 { case.substep } else { 0.5 * case.substep }, false)
    });
}

#[test]
fn a_diverging_lane_fails_the_typed_row_as_it_fails_alone() {
    // Lane 3's negative gain makes `x' = 20000 x + ...` overflow within
    // the run; the other lanes decay. Both schemes, both policies, and
    // dims on both sides of the fused kernel's const-array range.
    const BLOWUP_END: f64 = 1.0;
    let shapes = [
        (SolverKind::Rk4, ThreadPolicy::CurrentThread, 2),
        (SolverKind::ForwardEuler, ThreadPolicy::CurrentThread, 10),
        (SolverKind::Rk4, ThreadPolicy::DedicatedThreads, 10),
        (SolverKind::ForwardEuler, ThreadPolicy::DedicatedThreads, 2),
    ];
    for (solver, policy, dim) in shapes {
        let case = Case {
            k: 5,
            dim,
            in_dim: 0,
            out_dim: 1,
            substep: 2e-3,
            solver,
            policy,
            lanes: (0..5)
                .map(|i| Lane {
                    gain: if i == 3 { -20_000.0 } else { 1.0 },
                    x0: vec![0.5; dim],
                    drive: 1.0,
                })
                .collect(),
        };
        let what = format!("{solver}/{policy}/dim {dim}");
        let (mut alone, _) = case.standalone(3);
        let expected = alone.run_until(BLOWUP_END).expect_err("the lane diverges alone");
        assert!(matches!(expected, CoreError::Flow(_)), "{what}: {expected}");
        let failed_at = alone.step_count();
        assert!(failed_at < 100, "{what}: the lane failed inside the run");
        for kernel in [Kernel::Batched, Kernel::PerLane] {
            let (mut ensemble, _, calls) = case.ensemble(kernel);
            let err = ensemble.run_until(BLOWUP_END).expect_err("the row diverges");
            let label = format!("{what}/{kernel:?}");
            assert!(matches!(err, CoreError::Flow(_)), "{label}: {err}");
            assert_eq!(err.to_string(), expected.to_string(), "{label}: error text");
            assert_eq!(ensemble.step_count(), failed_at, "{label}: failed macro step");
            let batched = calls.batched.load(Ordering::Relaxed) > 0;
            assert_eq!(batched, kernel == Kernel::Batched, "{label}: kernel used");
            for err in [
                ensemble.run_until(2.0 * BLOWUP_END).expect_err("run_until after failure"),
                ensemble.step_once().expect_err("step_once after failure"),
            ] {
                assert!(err.to_string().starts_with("URT111: "), "{label}: {err}");
            }
            assert_eq!(ensemble.step_count(), failed_at, "{label}: no step after the failure");
        }
    }
}
