//! Steady-state engine benchmark: macro steps per second through the full
//! hybrid hot path (clock, signal routing, probe recording) for each
//! thread policy across 1/2/4 streamer groups, on three workloads:
//!
//! * `fig2` — the paper's Figure 2 topology per group (fan-out, pure
//!   dataflow; measures engine/framework overhead);
//! * `vdp` — one RK4-integrated Van der Pol oscillator per group
//!   (measures the solver-dominated regime);
//! * `chain` — an 8-stage lag pipeline split *across* the groups via
//!   cross-group double-buffered channels (measures the inter-group
//!   dataflow the dedicated-threads policy exists for).
//!
//! Each system is declared as a `UnifiedModel` and lowered through
//! `model → analyze → compile → run`, and measured under
//! `dedicated-threads` along a `batch` axis:
//!
//! * `k1` — `set_max_batch(1)`, one worker rendezvous per macro step
//!   (the pre-batching schedule);
//! * `auto` — the coordinator batches every step it can prove needs no
//!   signal exchange or coordinator-side work.
//!
//! A second, independent axis measures **ensemble execution**: `K`
//! instances of one workload (`fig2`, `chain`) advanced per macro step,
//! either as one structure-of-arrays [`EnsembleEngine`]
//! (`mode = ensemble`) or as `K` single-instance engines stepped
//! back-to-back (`mode = independent` — the same per-step code path with
//! no amortization, so the delta is exactly what the SoA layout buys).
//! `K ∈ {1, 8}` in smoke mode, `{1, 8, 64, 256}` in full runs.
//!
//! Nested under the ensemble axis, a **kernel** axis isolates what the
//! batched ODE solver path buys over per-lane scalar
//! stepping: one [`EnsembleEngine`] per configuration, stepped once with
//! `kernel = scalar` (the ODE row's behaviour wrapped in [`PerLane`],
//! which hides its ODE lane, so the row steps lane by lane) and once with
//! `kernel = batched` (the plain model, whose ODE row one row kernel
//! owns), over `K ∈ {16, 64, 256}` (`{16, 64}` in smoke). The workloads here must actually carry ODE lanes, so
//! `fig2` on this axis is the ODE-backed variant ([`urt_bench::fig2_model`]:
//! `sub1` integrates the oscillator with RK4 rather than evaluating
//! `sin(2t)` in closed form) and `chain` is the usual Van der Pol-fed
//! pipeline. Both kernels produce bit-identical series — the equivalence
//! suites pin that — so the delta is pure execution efficiency. Full
//! runs self-assert batched ≥ [`KERNEL_MARGIN`] × scalar at K = 256;
//! smoke runs assert batched is at least not slower at K = 64 (with the
//! usual 10% noise allowance).
//!
//! Both sides of an ensemble-axis or kernel-axis comparison are measured
//! as interleaved A/B pairs in one process (25 pairs in full runs, 5 in
//! smoke); each row reports its side's fastest window, and the
//! self-assertions judge the median of the per-pair ratios, so host
//! contention hits both sides alike.
//!
//! A third axis (`--paced`) measures **hard real-time latency** instead
//! of throughput: `run_paced` couples each macro step to the wall clock
//! (`set_max_batch(1)`, so even the threaded schedule releases per step)
//! and the reported figures are the per-cycle compute-time distribution —
//! p50/p99/worst nanoseconds — plus deadline misses against a
//! deliberately generous budget. A latency-bound deployment is judged by
//! its tail, not its mean, which is why this axis reports percentiles
//! where the others report steps/sec.
//!
//! A fourth axis measures the **artifact/instance split**: building a
//! ready engine out of one compiled artifact
//! ([`HybridEngine::from_compiled`], what every engine build pays)
//! versus paying the full declare → analyze → elaborate pipeline again,
//! on the fig2 and chain workloads — the compile-once, instantiate-many
//! dividend a simulation server collects per session. Both sides run as
//! interleaved pairs, and full runs self-assert that the median pair
//! ratio is ≥ 5×; smoke runs assert it is at least not slower.
//!
//! Every run attaches a recorder probe so the measured loop is the same
//! one real simulations pay for. Results are written as hand-rolled JSON
//! (hermetic, no registry deps) to `results/BENCH_engine.json` — the
//! baseline future perf PRs are measured against. The binary also
//! *self-asserts* invariants, exiting non-zero otherwise: the batched
//! dedicated-threads path must not fall behind `k1` at any workload and
//! group count, judged by the median ratio over interleaved `k1`/`auto`
//! pairs (rendezvous amortization), the ensemble must not fall behind `K`
//! independent engines (SoA amortization), and paced runs must record
//! zero misses at the generous budget (the budget is hundreds of
//! milliseconds per 1 ms step precisely so OS descheduling cannot flake
//! the assertion). Smoke runs allow a 10% throughput tolerance — a few
//! hundred steps on a shared box is noisy — while full runs are strict.
//!
//! Run with: `cargo run --release -p urt-bench --bin bench_engine`
//! (`--smoke` runs a few hundred steps and prints the JSON to stdout
//! instead of writing the file; `--out PATH` overrides the output path;
//! `--paced` adds the paced latency axis — real time in full runs, 50×
//! real time in smoke so CI stays fast; `--emit-cost-table` instead fits
//! a per-solver calibration table from short compiled runs and writes
//! `results/COST_table.json`, the default cost model of the static
//! timing pass `urt_analysis::cost_pass`.)

use std::fmt::Write as _;
use std::time::Instant;
use urt_bench::fig2_model;
use urt_core::elaborate::{BehaviorRegistry, CompiledSystem};
use urt_core::engine::{EngineConfig, HybridEngine};
use urt_core::ensemble::EnsembleEngine;
use urt_core::model::ModelBuilder;
use urt_core::recorder::Recorder;
use urt_core::threading::ThreadPolicy;
use urt_dataflow::flowtype::FlowType;
use urt_dataflow::streamer::{FnStreamer, OdeStreamer, PerLane, StreamerBehavior};
use urt_ode::solver::SolverKind;
use urt_ode::system::library::VanDerPol;
use urt_ode::system::OdeSystem;
use urt_ode::SolveError;
use urt_umlrt::statemachine::SmSpec;

const STEP: f64 = 1e-3;
const CHAIN_STAGES: usize = 8;
const USAGE: &str = "usage: bench_engine [--smoke] [--out PATH] [--paced] [--emit-cost-table]";

/// Deadline budget for the paced axis, ns per macro step. Generous on
/// purpose (250 ms against a ~µs compute cycle): the `misses == 0`
/// self-assertion must hold even when the OS deschedules the bench for
/// whole scheduler quanta, so the axis stays CI-safe while the p99/worst
/// figures still capture every latency spike.
const PACED_BUDGET_NS: f64 = 250e6;

/// Full-run floor for the kernel axis at K = 256: the batched path must
/// deliver at least 10% more macro steps per second than per-lane scalar
/// stepping on every kernel-axis workload. Measured headroom is far
/// larger (the batched kernel amortizes the per-lane driver loop and
/// keeps four lanes' RK stages in registers); the floor is
/// deliberately conservative so a loaded box cannot flake the gate while
/// a real regression — falling back to per-lane dispatch — still trips
/// it.
const KERNEL_MARGIN: f64 = 1.10;

/// A Van der Pol oscillator with input dimension zero, usable as an
/// `OdeStreamer` system.
#[derive(Clone)]
struct Vdp(VanDerPol);

impl urt_ode::system::InputSystem for Vdp {
    fn dim(&self) -> usize {
        2
    }
    fn input_dim(&self) -> usize {
        0
    }
    fn derivatives(&self, t: f64, x: &[f64], _u: &[f64], dx: &mut [f64]) {
        self.0.derivatives(t, x, dx);
    }
}

fn vdp_streamer(name: &str) -> OdeStreamer<Vdp> {
    OdeStreamer::new(
        name,
        Vdp(VanDerPol { mu: 1.5 }),
        SolverKind::Rk4.create(),
        &[2.0, 0.0],
        1e-5, // 100 RK4 substeps per macro step
    )
}

/// Non-feedthrough chain source: y = sin(2 t) at the step start.
struct ChainSrc {
    name: String,
}

impl StreamerBehavior for ChainSrc {
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
    fn advance(&mut self, t: f64, _h: f64, _u: &[f64], y: &mut [f64]) -> Result<(), SolveError> {
        y[0] = (2.0 * t).sin();
        Ok(())
    }
}

/// Non-feedthrough first-order lag: outputs its state, then relaxes it
/// one Euler step toward the latched input.
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

/// Which group pipeline stage `i` lives on: contiguous blocks, so a
/// `groups`-way split has exactly `groups - 1` cross-group channels.
fn chain_group_of(stage: usize, groups: usize) -> usize {
    stage * groups / CHAIN_STAGES
}

fn chain_stage(i: usize) -> Box<dyn StreamerBehavior> {
    if i == 0 {
        Box::new(ChainSrc { name: "stage0".to_owned() })
    } else {
        Box::new(Lag { name: format!("stage{i}"), state: 0.0 })
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Fig2,
    Vdp,
    Chain,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Fig2 => "fig2",
            Workload::Vdp => "vdp",
            Workload::Chain => "chain",
        }
    }

    /// Declares the whole multi-group system as one `UnifiedModel` plus
    /// its behaviour registry. Streamer names carry a `-g{i}` suffix
    /// (model names are global) and each group is pinned to its own
    /// solver thread. fig2/vdp have no inter-group flows; the chain's
    /// flows span the thread assignment and elaboration lowers them into
    /// cross-group channels.
    fn model(self, groups: usize) -> (urt_core::model::UnifiedModel, BehaviorRegistry) {
        if self == Workload::Chain {
            return chain_model(groups);
        }
        let mut b = ModelBuilder::new(format!("{}-bench", self.name()));
        let idle = b.capsule("idle");
        b.capsule_machine(idle, SmSpec::new("idle").state("s").initial("s"));
        let mut registry = BehaviorRegistry::new();
        for gi in 0..groups {
            match self {
                Workload::Fig2 => {
                    let n1 = format!("sub1-g{gi}");
                    let n2 = format!("sub2-g{gi}");
                    let n3 = format!("sub3-g{gi}");
                    let s1 = b.streamer(&n1, "euler");
                    let s2 = b.streamer(&n2, "euler");
                    let s3 = b.streamer(&n3, "euler");
                    b.streamer_out(s1, "y", FlowType::scalar());
                    b.streamer_in(s2, "u", FlowType::scalar());
                    b.streamer_out(s2, "y", FlowType::scalar());
                    b.streamer_in(s3, "u", FlowType::scalar());
                    b.streamer_out(s3, "y", FlowType::scalar());
                    b.flow_between_streamers(s1, "y", s2, "u");
                    b.flow_between_streamers(s1, "y", s3, "u");
                    for s in [s1, s2, s3] {
                        b.assign_thread(s, gi);
                    }
                    b.probe(s2, "y", format!("y{gi}"));
                    registry = registry
                        .streamer(n1.clone(), move || {
                            Box::new(FnStreamer::new(
                                n1.clone(),
                                0,
                                1,
                                |t: f64, _h, _u: &[f64], y: &mut [f64]| y[0] = (2.0 * t).sin(),
                            ))
                        })
                        .streamer(n2.clone(), move || {
                            Box::new(FnStreamer::new(
                                n2.clone(),
                                1,
                                1,
                                |_t, _h, u: &[f64], y: &mut [f64]| y[0] = 2.0 * u[0],
                            ))
                        })
                        .streamer(n3.clone(), move || {
                            Box::new(FnStreamer::new(
                                n3.clone(),
                                1,
                                1,
                                |_t, _h, u: &[f64], y: &mut [f64]| y[0] = u[0] * u[0],
                            ))
                        });
                }
                Workload::Vdp => {
                    let name = format!("vdp-g{gi}");
                    let s = b.streamer(&name, "rk4");
                    b.streamer_out(s, "y", FlowType::vector(2));
                    b.streamer_feedthrough(s, false);
                    b.assign_thread(s, gi);
                    b.probe(s, "y", format!("y{gi}"));
                    registry =
                        registry.streamer(name.clone(), move || Box::new(vdp_streamer(&name)));
                }
                Workload::Chain => unreachable!("handled above"),
            }
        }
        (b.build(), registry)
    }
}

/// The chain pipeline as a declarative model: N stages, flows spanning
/// the thread assignment (lowered into channels by elaboration).
fn chain_model(groups: usize) -> (urt_core::model::UnifiedModel, BehaviorRegistry) {
    let mut b = ModelBuilder::new("chain-bench");
    let idle = b.capsule("idle");
    b.capsule_machine(idle, SmSpec::new("idle").state("s").initial("s"));
    let mut registry = BehaviorRegistry::new();
    let mut stages = Vec::new();
    for i in 0..CHAIN_STAGES {
        let name = format!("stage{i}");
        let s = b.streamer(&name, "euler");
        if i > 0 {
            b.streamer_in(s, "u", FlowType::scalar());
        }
        b.streamer_out(s, "y", FlowType::scalar());
        b.streamer_feedthrough(s, false);
        b.assign_thread(s, chain_group_of(i, groups));
        registry = registry.streamer(name, move || chain_stage(i));
        stages.push(s);
    }
    for i in 1..CHAIN_STAGES {
        b.flow_between_streamers(stages[i - 1], "y", stages[i], "u");
    }
    b.probe(stages[CHAIN_STAGES - 1], "y", "y0");
    // Real-time budget: one macro step of wall time (1 ms) per macro
    // step — the natural deadline of a deployed 1 kHz pipeline. The
    // static timing pass checks it at compile time.
    b.declare_budget(urt_core::model::BudgetScope::Model, STEP * 1e9);
    (b.build(), registry)
}

struct Measurement {
    workload: &'static str,
    groups: usize,
    policy: ThreadPolicy,
    batch: &'static str,
    steps: u64,
    wall_ns: u128,
    steps_per_sec: f64,
}

/// Assembles the engine through the elaboration pipeline.
fn compiled_engine(
    workload: Workload,
    groups: usize,
    policy: ThreadPolicy,
) -> (HybridEngine, Recorder) {
    let (model, registry) = workload.model(groups);
    let compiled = urt_analysis::compile(&model, registry).expect("bench model compiles");
    assert_eq!(compiled.group_count(), groups, "thread pinning keeps groups apart");
    let mut engine = HybridEngine::from_compiled(&compiled, EngineConfig { step: STEP, policy })
        .expect("engine from compiled system");
    let rec = Recorder::new();
    engine.set_recorder(rec.clone());
    (engine, rec)
}

/// Measures one `current-thread` configuration by its fastest window.
fn measure(workload: Workload, groups: usize, steps: u64, smoke: bool) -> Measurement {
    let policy = ThreadPolicy::CurrentThread;
    let (mut engine, rec) = compiled_engine(workload, groups, policy);
    // Warm-up: spin up solver threads, fault in buffers, settle the cache.
    let warmup = (steps / 10).max(10);
    engine.run_until(warmup as f64 * STEP).expect("warm-up");
    // Pilot rep: sizes the measured reps to a short wall-clock window.
    // The box may be a single shared core, so any long window averages
    // in scheduler interference; instead we take many short windows and
    // keep the fastest, which is very likely to have run uninterrupted.
    let t0 = engine.time();
    let start = Instant::now();
    engine.run_until(t0 + steps as f64 * STEP).expect("pilot run");
    let pilot_ns = start.elapsed().as_nanos().max(1);
    let target_ns: f64 = if smoke { 2e6 } else { 10e6 };
    let rep_steps =
        ((steps as f64 * target_ns / pilot_ns as f64).ceil() as u64).clamp(200, 500_000);
    let reps: u64 = if smoke { 5 } else { 25 };
    let mut wall_ns = u128::MAX;
    let mut done = warmup + steps;
    for _ in 0..reps {
        rec.clear(); // in place — series handles and capacity survive
        let t0 = engine.time();
        let start = Instant::now();
        engine.run_until(t0 + rep_steps as f64 * STEP).expect("measured run");
        wall_ns = wall_ns.min(start.elapsed().as_nanos());
        done += rep_steps;
        assert_eq!(engine.step_count(), done, "step-count bound must be exact");
        assert_eq!(rec.series("y0").len() as u64, rep_steps, "probes recorded every step");
    }
    let steps_per_sec = rep_steps as f64 / (wall_ns as f64 / 1e9);
    Measurement {
        workload: workload.name(),
        groups,
        policy,
        batch: "n/a",
        steps: rep_steps,
        wall_ns,
        steps_per_sec,
    }
}

struct PacedMeasurement {
    workload: &'static str,
    groups: usize,
    policy: ThreadPolicy,
    steps: u64,
    rate: f64,
    budget_ns: f64,
    p50_ns: f64,
    p99_ns: f64,
    worst_ns: f64,
    misses: u64,
    worst_lag_ns: u64,
}

/// The paced latency axis: runs the compiled engine under `run_paced`
/// with per-step release points (`set_max_batch(1)`) and reports the
/// per-cycle compute-time distribution. Self-asserts `misses == 0`
/// against [`PACED_BUDGET_NS`] — see the constant for why that cannot
/// flake under load.
fn measure_paced(
    workload: Workload,
    groups: usize,
    policy: ThreadPolicy,
    steps: u64,
    rate: f64,
) -> PacedMeasurement {
    let (mut engine, _rec) = compiled_engine(workload, groups, policy);
    engine.set_max_batch(1);
    // Warm-up outside the paced window: spin up solver threads and fault
    // in buffers, so the histogram measures the steady state.
    let warmup = (steps / 10).max(10);
    engine.run_until(warmup as f64 * STEP).expect("warm-up");
    let t_end = engine.time() + steps as f64 * STEP;
    let config = urt_core::pacer::PacedConfig::new()
        .with_rate(rate)
        .with_budget_ns(PACED_BUDGET_NS)
        .with_policy(urt_core::pacer::OverrunPolicy::Record);
    let report = engine.run_paced(t_end, config).expect("paced run");
    assert_eq!(report.steps, steps, "paced run covers every macro step");
    assert_eq!(report.samples, steps, "max_batch(1): every step is its own cycle");
    if report.misses > 0 {
        eprintln!(
            "bench_engine: paced {workload}/{groups}g/{policy} missed {} deadlines against a \
             {PACED_BUDGET_NS} ns budget (worst cycle {} ns) — pathological latency",
            report.misses,
            report.worst_ns,
            workload = workload.name(),
        );
        std::process::exit(1);
    }
    PacedMeasurement {
        workload: workload.name(),
        groups,
        policy,
        steps: report.steps,
        rate: report.rate,
        budget_ns: report.budget_ns,
        p50_ns: report.p50_ns,
        p99_ns: report.p99_ns,
        worst_ns: report.worst_ns,
        misses: report.misses,
        worst_lag_ns: (report.worst_lag_s * 1e9) as u64,
    }
}

/// Workloads for the ensemble axis: one-group compiled models with no
/// capsules and no channels, so the measurement isolates per-instance
/// routing overhead.
#[derive(Clone, Copy)]
enum EnsembleWorkload {
    Fig2,
    Chain,
}

impl EnsembleWorkload {
    fn name(self) -> &'static str {
        match self {
            EnsembleWorkload::Fig2 => "fig2",
            EnsembleWorkload::Chain => "chain",
        }
    }

    /// The compiled model, probed on its tail as `y0`.
    fn compiled(self) -> CompiledSystem {
        match self {
            EnsembleWorkload::Fig2 => fig2_model(false),
            EnsembleWorkload::Chain => urt_bench::chain_model(CHAIN_STAGES),
        }
    }
}

/// One row of the ensemble or kernel axis: one side of a measured pair
/// (`mode` or `kernel`), reported by its fastest window.
struct AxisMeasurement {
    workload: &'static str,
    side: &'static str,
    k: usize,
    steps: u64,
    wall_ns: u128,
    steps_per_sec: f64,
}

/// The median over interleaved pairs of one side's rate against the
/// other's, at one `(workload, K)` (on the batch axis, `K` is the group
/// count): the figure the ratio self-assertions judge.
struct PairRatio {
    workload: &'static str,
    k: usize,
    median: f64,
}

/// An engine one [`Side`] advances: an ensemble, or a single-instance
/// engine under one batch setting.
trait Stepped {
    fn time(&self) -> f64;
    fn run_until(&mut self, t_end: f64);
    /// The `y0` probe series of the engine's last instance.
    fn last_series(&self) -> String;
}

impl Stepped for EnsembleEngine {
    fn time(&self) -> f64 {
        EnsembleEngine::time(self)
    }
    fn run_until(&mut self, t_end: f64) {
        EnsembleEngine::run_until(self, t_end).expect("measured run");
    }
    fn last_series(&self) -> String {
        EnsembleEngine::series_name("y0", self.instances() - 1)
    }
}

impl Stepped for HybridEngine {
    fn time(&self) -> f64 {
        HybridEngine::time(self)
    }
    fn run_until(&mut self, t_end: f64) {
        HybridEngine::run_until(self, t_end).expect("measured run");
    }
    fn last_series(&self) -> String {
        "y0".to_owned()
    }
}

/// One side of an A/B pair: the engines it advances each macro step
/// (`K` instances in total on the ensemble and kernel axes) and the
/// label it reports under.
struct Side {
    label: &'static str,
    engines: Vec<(Box<dyn Stepped>, Recorder)>,
}

impl Side {
    /// Advances every engine `steps` macro steps and returns the wall
    /// time; the probes must have recorded every step.
    fn run(&mut self, steps: u64) -> u128 {
        for (_, rec) in &self.engines {
            rec.clear();
        }
        let start = Instant::now();
        for (engine, _) in &mut self.engines {
            let t0 = engine.time();
            engine.run_until(t0 + steps as f64 * STEP);
        }
        let wall_ns = start.elapsed().as_nanos().max(1);
        for (engine, rec) in &self.engines {
            let series = engine.last_series();
            assert_eq!(rec.series(&series).len() as u64, steps, "probes recorded every step");
        }
        wall_ns
    }
}

/// Measures `base` and `test` as interleaved A/B pairs in one process.
/// Each side is warmed up and piloted to size its window, as in
/// [`measure`]; then every pair runs one window of `base`, then one of
/// `test`, so contention on a shared host hits both sides alike. The
/// order stays fixed: every window follows one of the other side, so
/// neither side finds the caches warmed by its own previous window
/// (alternating the order made the ratios bimodal). Returns each side's
/// fastest window and the median over the pairs of `test`'s rate
/// divided by `base`'s.
fn measure_pair(
    workload: &'static str,
    k: usize,
    mut base: Side,
    mut test: Side,
    steps: u64,
    smoke: bool,
) -> (AxisMeasurement, AxisMeasurement, PairRatio) {
    let warmup = (steps / 10).max(10);
    let target_ns: f64 = if smoke { 2e6 } else { 10e6 };
    let mut rep_steps = [0u64; 2];
    for (side, rep) in [&mut base, &mut test].into_iter().zip(&mut rep_steps) {
        side.run(warmup);
        let pilot_ns = side.run(steps);
        *rep = ((steps as f64 * target_ns / pilot_ns as f64).ceil() as u64).clamp(200, 500_000);
    }
    // An odd pair count, so the median is one measured pair.
    let pairs = if smoke { 5 } else { 25 };
    let mut best = [u128::MAX; 2];
    let mut ratios = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        let mut wall = [0u128; 2];
        for (s, side) in [&mut base, &mut test].into_iter().enumerate() {
            wall[s] = side.run(rep_steps[s]);
            best[s] = best[s].min(wall[s]);
        }
        let rate = |s: usize| rep_steps[s] as f64 / wall[s] as f64;
        ratios.push(rate(1) / rate(0));
    }
    ratios.sort_by(f64::total_cmp);
    let row = |side: &Side, s: usize| AxisMeasurement {
        workload,
        side: side.label,
        k,
        steps: rep_steps[s],
        wall_ns: best[s],
        steps_per_sec: rep_steps[s] as f64 / (best[s] as f64 / 1e9),
    };
    (row(&base, 0), row(&test, 1), PairRatio { workload, k, median: ratios[pairs / 2] })
}

/// One K-instance SoA engine (`mode = "ensemble"`), or K single-instance
/// engines (`mode = "independent"`) — the unamortized control.
fn ensemble_side(workload: EnsembleWorkload, mode: &'static str, k: usize) -> Side {
    let compiled = workload.compiled();
    let build = |instances: usize| {
        let mut engine = EnsembleEngine::from_compiled(
            &compiled,
            instances,
            EngineConfig { step: STEP, policy: ThreadPolicy::CurrentThread },
        )
        .expect("ensemble engine");
        let rec = Recorder::new();
        engine.set_recorder(rec.clone());
        (Box::new(engine) as Box<dyn Stepped>, rec)
    };
    let engines =
        if mode == "ensemble" { vec![build(k)] } else { (0..k).map(|_| build(1)).collect() };
    Side { label: mode, engines }
}

/// One `dedicated-threads` engine on one side of the batch axis: `k1`
/// rendezvouses with its workers every macro step (`set_max_batch(1)`),
/// `auto` batches every step it can.
fn batch_side(workload: Workload, groups: usize, batch: &'static str) -> Side {
    let (mut engine, rec) = compiled_engine(workload, groups, ThreadPolicy::DedicatedThreads);
    if batch == "k1" {
        engine.set_max_batch(1);
    }
    Side { label: batch, engines: vec![(Box::new(engine), rec)] }
}

/// Workloads for the kernel axis. These must carry ODE lanes (a batched
/// solver kernel has nothing to act on otherwise), so `fig2` here is the
/// ODE-backed variant — same fan-out topology, `sub1` integrated rather
/// than closed-form — and `chain` is the Van der Pol-fed pipeline.
#[derive(Clone, Copy)]
enum KernelWorkload {
    Fig2,
    Chain,
}

impl KernelWorkload {
    fn name(self) -> &'static str {
        match self {
            KernelWorkload::Fig2 => "fig2",
            KernelWorkload::Chain => "chain",
        }
    }

    /// The compiled model, probed on its tail as `y0`, with its ODE row's
    /// behaviour passed through `wrap`.
    fn compiled(self, wrap: urt_bench::Wrap) -> CompiledSystem {
        match self {
            KernelWorkload::Fig2 => urt_bench::fig2_model_with(true, wrap),
            KernelWorkload::Chain => urt_bench::chain_model_with(CHAIN_STAGES, wrap),
        }
    }
}

/// One K-instance ensemble engine on one side of the kernel axis:
/// `scalar` wraps the ODE row's lanes in [`PerLane`], `batched` runs the
/// plain model. The two produce bit-identical series, so their throughput
/// ratio is exactly what the row kernel buys.
fn kernel_side(workload: KernelWorkload, side: &'static str, k: usize) -> Side {
    let wrap: urt_bench::Wrap = if side == "scalar" { |b| Box::new(PerLane(b)) } else { |b| b };
    let mut engine = EnsembleEngine::from_compiled(
        &workload.compiled(wrap),
        k,
        EngineConfig { step: STEP, policy: ThreadPolicy::CurrentThread },
    )
    .expect("kernel-axis ensemble engine");
    let rec = Recorder::new();
    engine.set_recorder(rec.clone());
    Side { label: side, engines: vec![(Box::new(engine), rec)] }
}

/// One row of the artifact/instance axis. The `instantiate_*` fields
/// (and JSON keys) count engine builds from the compiled artifact.
struct InstantiateMeasurement {
    workload: &'static str,
    groups: usize,
    instantiate_iters: u64,
    instantiate_ns: u128,
    elaborate_iters: u64,
    elaborate_ns: u128,
    instantiate_per_sec: f64,
    elaborate_per_sec: f64,
    speedup: f64,
}

/// The artifact/instance axis: building a [`HybridEngine`] out of an
/// already-compiled artifact versus paying the full declare + analyze +
/// elaborate pipeline again — the compile-once, instantiate-many dividend
/// a simulation server collects per session. Each pair times one window
/// of engine builds, then one window of re-elaborations, so contention
/// on a shared host hits both sides alike. Iteration counts differ per
/// side because re-elaboration is an order of magnitude dearer; each
/// side reports its fastest window, and `speedup` is the median over
/// the pairs of the build rate divided by the re-elaboration rate.
fn measure_instantiate(workload: Workload, groups: usize, smoke: bool) -> InstantiateMeasurement {
    let (model, registry) = workload.model(groups);
    let compiled = urt_analysis::compile(&model, registry).expect("bench model compiles");
    let config = EngineConfig { step: STEP, policy: ThreadPolicy::CurrentThread };
    let instantiate_iters: u64 = if smoke { 100 } else { 5_000 };
    let elaborate_iters: u64 = if smoke { 10 } else { 200 };
    // An odd pair count, so the median is one measured pair.
    let pairs = if smoke { 5 } else { 25 };
    let mut instantiate_ns = u128::MAX;
    let mut elaborate_ns = u128::MAX;
    let mut ratios = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        let start = Instant::now();
        for _ in 0..instantiate_iters {
            std::hint::black_box(HybridEngine::from_compiled(&compiled, config).expect("engine"));
        }
        let build_ns = start.elapsed().as_nanos().max(1);
        let start = Instant::now();
        for _ in 0..elaborate_iters {
            let (model, registry) = workload.model(groups);
            std::hint::black_box(
                urt_analysis::compile(&model, registry).expect("bench model recompiles"),
            );
        }
        let compile_ns = start.elapsed().as_nanos().max(1);
        instantiate_ns = instantiate_ns.min(build_ns);
        elaborate_ns = elaborate_ns.min(compile_ns);
        ratios.push(
            (instantiate_iters as f64 / build_ns as f64)
                / (elaborate_iters as f64 / compile_ns as f64),
        );
    }
    ratios.sort_by(f64::total_cmp);
    let instantiate_per_sec = instantiate_iters as f64 / (instantiate_ns as f64 / 1e9);
    let elaborate_per_sec = elaborate_iters as f64 / (elaborate_ns as f64 / 1e9);
    InstantiateMeasurement {
        workload: workload.name(),
        groups,
        instantiate_iters,
        instantiate_ns,
        elaborate_iters,
        elaborate_ns,
        instantiate_per_sec,
        elaborate_per_sec,
        speedup: ratios[pairs / 2],
    }
}

fn render_json(
    results: &[Measurement],
    ensemble: &[AxisMeasurement],
    kernel: &[AxisMeasurement],
    instantiate: &[InstantiateMeasurement],
    paced: &[PacedMeasurement],
    smoke: bool,
) -> String {
    let mut s = String::new();
    let _ = write!(s, "{{\"schema\":\"bench_engine/v8\",\"smoke\":{smoke},\"step_s\":{STEP}");
    let _ = write!(s, ",\"results\":[");
    for (i, m) in results.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"workload\":\"{}\",\"groups\":{},\"policy\":\"{}\",\"batch\":\"{}\",\
             \"steps\":{},\"wall_ns\":{},\"steps_per_sec\":{:.1}}}",
            m.workload, m.groups, m.policy, m.batch, m.steps, m.wall_ns, m.steps_per_sec
        );
    }
    for (axis, key, rows) in [("ensemble", "mode", ensemble), ("kernel", "kernel", kernel)] {
        let _ = write!(s, "],\"{axis}\":[");
        for (i, m) in rows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"workload\":\"{}\",\"{key}\":\"{}\",\"k\":{},\"steps\":{},\
                 \"wall_ns\":{},\"steps_per_sec\":{:.1}}}",
                m.workload, m.side, m.k, m.steps, m.wall_ns, m.steps_per_sec
            );
        }
    }
    s.push_str("],\"instantiate\":[");
    for (i, m) in instantiate.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"workload\":\"{}\",\"groups\":{},\"instantiate_iters\":{},\
             \"instantiate_ns\":{},\"elaborate_iters\":{},\"elaborate_ns\":{},\
             \"instantiate_per_sec\":{:.1},\"elaborate_per_sec\":{:.1},\"speedup\":{:.2}}}",
            m.workload,
            m.groups,
            m.instantiate_iters,
            m.instantiate_ns,
            m.elaborate_iters,
            m.elaborate_ns,
            m.instantiate_per_sec,
            m.elaborate_per_sec,
            m.speedup
        );
    }
    s.push_str("],\"paced\":[");
    for (i, m) in paced.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"workload\":\"{}\",\"groups\":{},\"policy\":\"{}\",\"steps\":{},\"rate\":{},\
             \"budget_ns\":{},\"p50_ns\":{:.1},\"p99_ns\":{:.1},\"worst_ns\":{:.1},\
             \"misses\":{},\"worst_lag_ns\":{}}}",
            m.workload,
            m.groups,
            m.policy,
            m.steps,
            m.rate,
            m.budget_ns,
            m.p50_ns,
            m.p99_ns,
            m.worst_ns,
            m.misses,
            m.worst_lag_ns
        );
    }
    s.push_str("]}");
    s
}

/// `--emit-cost-table`: fits per-solver ns/step from short compiled
/// single-group current-thread runs — the configuration closest to "one
/// streamer advancing, nothing else" — and writes the `cost_table/v1`
/// JSON that `urt_analysis::cost_pass` loads as its default cost model.
///
/// fig2 runs three identical euler streamers per step, so its per-step
/// wall time ÷ 3 is the euler figure; vdp runs exactly one rk4
/// streamer. The table's own fallback for unlisted solvers is twice the
/// dearest measured solver — unknown means pessimistic, never free.
fn emit_cost_table(path: &str) {
    let fig2 = measure(Workload::Fig2, 1, 20_000, false);
    let vdp = measure(Workload::Vdp, 1, 4_000, false);
    let euler_ns = 1e9 / fig2.steps_per_sec / 3.0;
    let rk4_ns = 1e9 / vdp.steps_per_sec;
    let default_ns = 2.0 * euler_ns.max(rk4_ns);
    let json = format!(
        "{{\"schema\":\"cost_table/v1\",\"fitted_from\":\"bench_engine\",\"step_s\":{STEP},\
         \"default_ns_per_step\":{default_ns:.1},\"solvers\":[\
         {{\"solver\":\"euler\",\"ns_per_step\":{euler_ns:.1}}},\
         {{\"solver\":\"rk4\",\"ns_per_step\":{rk4_ns:.1}}}]}}"
    );
    std::fs::write(path, format!("{json}\n")).expect("write cost table");
    println!("solver calibration table (macro step = {STEP} s) -> {path}");
    println!();
    println!("| solver | ns/step |");
    println!("|--------|---------|");
    println!("| euler | {euler_ns:.1} |");
    println!("| rk4 | {rk4_ns:.1} |");
    println!("| (default) | {default_ns:.1} |");
}

fn main() {
    let mut smoke = false;
    let mut emit_cost = false;
    let mut paced = false;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--paced" => paced = true,
            "--emit-cost-table" => emit_cost = true,
            "--out" => match args.next() {
                Some(p) => out = Some(p),
                None => {
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
            },
            _ => {
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    if emit_cost {
        emit_cost_table(out.as_deref().unwrap_or("results/COST_table.json"));
        return;
    }

    // Thread-policy axis: `current-thread` by its fastest window; under
    // `dedicated-threads`, each group count is one interleaved pair, the
    // per-step rendezvous (`k1`) the base and batching (`auto`) the side
    // under test.
    let mut results = Vec::new();
    let mut batch_ratios = Vec::new();
    for workload in [Workload::Fig2, Workload::Vdp, Workload::Chain] {
        let steps = match (workload, smoke) {
            (_, true) => 200,
            (Workload::Vdp, false) => 4_000,
            (Workload::Fig2 | Workload::Chain, false) => 20_000,
        };
        for groups in [1usize, 2, 4] {
            results.push(measure(workload, groups, steps, smoke));
            let (k1, auto, ratio) = measure_pair(
                workload.name(),
                groups,
                batch_side(workload, groups, "k1"),
                batch_side(workload, groups, "auto"),
                steps,
                smoke,
            );
            results.extend([k1, auto].map(|m| Measurement {
                workload: m.workload,
                groups,
                policy: ThreadPolicy::DedicatedThreads,
                batch: m.side,
                steps: m.steps,
                wall_ns: m.wall_ns,
                steps_per_sec: m.steps_per_sec,
            }));
            batch_ratios.push(ratio);
        }
    }

    // Ensemble axis: each K is one interleaved pair, the K independent
    // engines the base and the SoA ensemble the side under test.
    let ks: &[usize] = if smoke { &[1, 8] } else { &[1, 8, 64, 256] };
    let mut ensemble_results = Vec::new();
    let mut ensemble_ratios = Vec::new();
    for workload in [EnsembleWorkload::Fig2, EnsembleWorkload::Chain] {
        let steps = if smoke { 200 } else { 2_000 };
        for &k in ks {
            let (independent, ensemble, ratio) = measure_pair(
                workload.name(),
                k,
                ensemble_side(workload, "independent", k),
                ensemble_side(workload, "ensemble", k),
                steps,
                smoke,
            );
            ensemble_results.extend([ensemble, independent]);
            ensemble_ratios.push(ratio);
        }
    }

    // Kernel axis: the same ensemble machinery with the solver kernel as
    // the only variable, scalar per-lane stepping the base of each pair.
    let kernel_ks: &[usize] = if smoke { &[16, 64] } else { &[16, 64, 256] };
    let mut kernel_results = Vec::new();
    let mut kernel_ratios = Vec::new();
    for workload in [KernelWorkload::Fig2, KernelWorkload::Chain] {
        let steps = if smoke { 200 } else { 2_000 };
        for &k in kernel_ks {
            let (scalar, batched, ratio) = measure_pair(
                workload.name(),
                k,
                kernel_side(workload, "scalar", k),
                kernel_side(workload, "batched", k),
                steps,
                smoke,
            );
            kernel_results.extend([scalar, batched]);
            kernel_ratios.push(ratio);
        }
    }
    let median_at = |ratios: &[PairRatio], workload: &str, k: usize| -> f64 {
        ratios
            .iter()
            .find(|r| r.workload == workload && r.k == k)
            .map(|r| r.median)
            .expect("measured pair")
    };

    // Artifact/instance axis: fig2 (pure dataflow) and chain (budgeted,
    // cross-group) at 1 and 2 groups — the workloads whose compiled
    // models exercise the full artifact surface (probes, budgets,
    // channels).
    let mut instantiate_results = Vec::new();
    for workload in [Workload::Fig2, Workload::Chain] {
        for groups in [1usize, 2] {
            instantiate_results.push(measure_instantiate(workload, groups, smoke));
        }
    }

    // Paced latency axis (opt-in: each configuration runs in real — or
    // smoke-accelerated — time, so it costs wall-clock seconds by
    // design). fig2 exercises the pure-dataflow hot path, chain the
    // cross-group channel machinery; vdp adds nothing the latency
    // distribution would see over fig2.
    let mut paced_results = Vec::new();
    if paced {
        let (steps, rate) = if smoke { (200, 50.0) } else { (2_000, 1.0) };
        for workload in [Workload::Fig2, Workload::Chain] {
            for groups in [1usize, 2] {
                for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
                    paced_results.push(measure_paced(workload, groups, policy, steps, rate));
                }
            }
        }
    }

    // Self-assertion 1: amortizing the rendezvous must not make the
    // dedicated-threads path slower than the per-step schedule, at any
    // workload and group count, judged by the median pair ratio. Smoke
    // runs measure a few hundred steps on a possibly-shared box, so they
    // get a 10% noise allowance; full runs are strict.
    let tolerance = if smoke { 0.9 } else { 1.0 };
    for r in &batch_ratios {
        if r.median < tolerance {
            eprintln!(
                "bench_engine: batched dedicated-threads path is slower than K=1 on {}/{}g \
                 (median pair ratio {:.3}) — rendezvous amortization regressed",
                r.workload, r.k, r.median
            );
            std::process::exit(1);
        }
    }

    // Self-assertion 2: at the largest common K, the SoA ensemble must
    // beat K independent engines (strictly in full runs, within the same
    // 10% allowance in smoke), judged by the median pair ratio.
    let check_k = if smoke { 8 } else { 64 };
    for workload in ["fig2", "chain"] {
        let ratio = median_at(&ensemble_ratios, workload, check_k);
        if ratio <= tolerance {
            eprintln!(
                "bench_engine: K={check_k} ensemble is not faster than {check_k} independent \
                 engines on {workload} (median pair ratio {ratio:.3}) — \
                 SoA amortization regressed"
            );
            std::process::exit(1);
        }
    }

    // Self-assertion 3: building an engine out of an existing artifact
    // must beat a full re-elaboration — generously in full runs (the 5×
    // floor the compile cache is justified by), merely not-slower in
    // smoke where both loops run a handful of iterations — judged by the
    // median pair ratio.
    for m in &instantiate_results {
        let floor = if smoke { 1.0 } else { 5.0 };
        if m.speedup < floor {
            eprintln!(
                "bench_engine: engine builds are not ≥{floor}× faster than re-elaboration on \
                 {}/{}g (median pair ratio {:.3}) — the artifact/instance split regressed",
                m.workload, m.groups, m.speedup
            );
            std::process::exit(1);
        }
    }

    // Self-assertion 4: the batched solver kernel must beat per-lane
    // scalar stepping at the largest measured K — by KERNEL_MARGIN in
    // full runs, merely not-slower (within the smoke noise allowance) on
    // a few hundred smoke steps — judged by the median pair ratio.
    let kernel_check_k = if smoke { 64 } else { 256 };
    let kernel_floor = if smoke { tolerance } else { KERNEL_MARGIN };
    for workload in ["fig2", "chain"] {
        let ratio = median_at(&kernel_ratios, workload, kernel_check_k);
        if ratio < kernel_floor {
            eprintln!(
                "bench_engine: batched kernel at K={kernel_check_k} is below {kernel_floor}x \
                 the scalar per-lane path on {workload} (median pair ratio {ratio:.3}) — \
                 the batched ODE path regressed"
            );
            std::process::exit(1);
        }
    }

    let json = render_json(
        &results,
        &ensemble_results,
        &kernel_results,
        &instantiate_results,
        &paced_results,
        smoke,
    );
    if smoke && out.is_none() {
        // Smoke mode is the CI shape check: JSON is the whole stdout.
        println!("{json}");
        return;
    }
    let path = out.unwrap_or_else(|| "results/BENCH_engine.json".to_owned());
    std::fs::write(&path, format!("{json}\n")).expect("write benchmark JSON");
    println!("engine steady-state baseline (macro step = {STEP} s)");
    println!();
    println!("| workload | groups | policy | batch | steps | steps/sec |");
    println!("|----------|--------|--------|-------|-------|-----------|");
    for m in &results {
        println!(
            "| {} | {} | {} | {} | {} | {:.0} |",
            m.workload, m.groups, m.policy, m.batch, m.steps, m.steps_per_sec
        );
    }
    println!();
    println!("median pair ratio (dedicated-threads auto / k1):");
    for r in &batch_ratios {
        println!("- {} groups={}: {:.3}", r.workload, r.k, r.median);
    }
    let axes = [
        (
            "ensemble scaling (K instances advanced per macro step)",
            "mode",
            "ensemble / independent",
            &ensemble_results,
            &ensemble_ratios,
        ),
        (
            "solver kernel (scalar per-lane vs width-aware batched; fig2 = ODE-backed variant)",
            "kernel",
            "batched / scalar",
            &kernel_results,
            &kernel_ratios,
        ),
    ];
    for (title, key, ratio_name, rows, ratios) in axes {
        println!();
        println!("{title}");
        println!();
        println!("| workload | {key} | K | steps | steps/sec | instance-steps/sec |");
        println!("|----------|------|---|-------|-----------|--------------------|");
        for m in rows {
            println!(
                "| {} | {} | {} | {} | {:.0} | {:.0} |",
                m.workload,
                m.side,
                m.k,
                m.steps,
                m.steps_per_sec,
                m.steps_per_sec * m.k as f64
            );
        }
        println!();
        println!("median pair ratio ({ratio_name}):");
        for r in ratios {
            println!("- {} K={}: {:.3}", r.workload, r.k, r.median);
        }
    }
    println!();
    println!("artifact/instance split (engine from an existing artifact vs full re-elaboration)");
    println!();
    println!("| workload | groups | engine builds/sec | elaborate/sec | median pair ratio |");
    println!("|----------|--------|-------------------|---------------|-------------------|");
    for m in &instantiate_results {
        println!(
            "| {} | {} | {:.0} | {:.0} | {:.1}x |",
            m.workload, m.groups, m.instantiate_per_sec, m.elaborate_per_sec, m.speedup
        );
    }
    if !paced_results.is_empty() {
        println!();
        println!("paced latency (run_paced, per-step release, rate = sim s / wall s)");
        println!();
        println!(
            "| workload | groups | policy | steps | rate | p50 ns | p99 ns | worst ns | misses |"
        );
        println!(
            "|----------|--------|--------|-------|------|--------|--------|----------|--------|"
        );
        for m in &paced_results {
            println!(
                "| {} | {} | {} | {} | {} | {:.0} | {:.0} | {:.0} | {} |",
                m.workload,
                m.groups,
                m.policy,
                m.steps,
                m.rate,
                m.p50_ns,
                m.p99_ns,
                m.worst_ns,
                m.misses
            );
        }
    }
    println!();
    println!("wrote {path}");
}
