//! The repository benchmark: runs one workload through the public
//! pipeline, checks its outputs and prints one JSON line of metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig2-loop --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! traced variant and reports the per-layer ones. README.md in this
//! directory defines each workload and metric.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use urt_core::elaborate::CompiledSystem;
use urt_core::engine::{EngineConfig, HybridEngine};
use urt_core::pacer::{PacedConfig, PacedReport};
use urt_core::recorder::Recorder;
use urt_core::threading::ThreadPolicy;
use urt_core::CoreError;
use urt_perfbench::live::{self, CycleClock, Engine, Live, CHECK_STEPS};
use urt_perfbench::stats;
use urt_perfbench::trace::{self, span, Span};
use urt_perfbench::workloads::{self, Inputs, Workload, DEFAULT_SEED, PLANTS, STEP};
use urt_umlrt::{Message, Value};

const USAGE: &str = "usage: urt-perfbench --workload fig2-loop|sweep-k64|reactive-sport \
                     --seed N --seconds S --trace 0|1";

/// Share of `--seconds` the untraced rounds fill, each round's length,
/// and the share of a round spent on set-ups (timing windows take the
/// rest).
const RUN_SHARE: f64 = 0.95;
const ROUND_S: f64 = 1.0;
const SETUP_SHARE: f64 = 0.25;
/// Paced cycles per chunk; each chunk runs on a fresh system.
const PACED_CHUNK: u64 = 500;
/// Paced chunks of the traced run: 1000 cycles leave 10 beyond the p99.
const TRACED_CHUNKS: usize = 2;
/// Share of `--seconds` for each timed phase of the traced run; its
/// fixed-length layer loops take the rest.
const TRACED_PHASE_SHARE: f64 = 0.3;

const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 5000;
/// Samples pushed per `recorder.push` span, and how many such spans.
const PUSH_BATCH: usize = 256;
const PUSH_SPANS: usize = 2000;
/// `run_until` windows per thread configuration in the threading loop.
const THREADING_WINDOWS: usize = 10;

/// Macro steps per timing window: 10–20 ms each on a 2-core x86-64 host,
/// short enough that many windows fall between host contention episodes.
fn window_steps(w: Workload) -> u64 {
    match w {
        Workload::Fig2Loop => 25_000,
        Workload::SweepK64 => 500,
        Workload::ReactiveSport => 2_500,
    }
}

/// Macro steps of each traced layer loop; fixed, so counts repeat exactly.
fn traced_steps(w: Workload) -> u64 {
    match w {
        Workload::Fig2Loop => 10_000,
        Workload::SweepK64 => 1_500,
        Workload::ReactiveSport => 5_000,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && (0.1..=60.0).contains(s))
                    .ok_or_else(|| format!("bad --seconds `{value}` (0.1 to 60)"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Operations attempted and failed. An operation is one set-up, one timing
/// window, one paced cycle or one traced layer loop; an `Err` fails it,
/// and so does a failed check of its outputs.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn op<T>(&mut self, what: &str, result: Result<T, CoreError>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }

    fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

fn median(v: &[f64]) -> f64 {
    stats::median(v).unwrap_or(0.0)
}

/// `n=… q1=… median=… q3=… pXX=…` of one window of samples.
fn spread(v: &[f64]) -> String {
    let Some(s) = stats::summarize(v) else { return "n=0".to_owned() };
    let q = |p| stats::percentile(v, p).map_or("-".to_owned(), |x| format!("{x:.6}"));
    let tail = s.tail.map_or("no tail".to_owned(), |(p, x)| format!("p{p}={x:.6}"));
    format!("n={} q1={} median={:.6} q3={} {tail}", s.count, q(25.0), s.median, q(75.0))
}

/// Repeats the whole set-up for `budget` (at least [`MIN_SETUPS`] times);
/// returns each set-up's wall time in seconds.
fn setup_phase(
    w: Workload,
    inputs: &Inputs,
    traced: bool,
    budget: Duration,
    tally: &mut Tally,
) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut n = 0;
    while n < MIN_SETUPS || (start.elapsed() < budget && n < MAX_SETUPS) {
        n += 1;
        trace::next_run();
        let t0 = Instant::now();
        let built = live::set_up(w, inputs, traced);
        let dt = t0.elapsed().as_secs_f64();
        if tally.op("set-up", built).is_some() {
            times.push(dt);
        }
    }
    times
}

/// A system run through the check window: its checksum over the whole
/// window and over the first [`PACED_CHUNK`] steps.
struct Checked {
    live: Live,
    checksum: u64,
    chunk_checksum: u64,
}

fn check_phase(w: Workload, inputs: &Inputs, tally: &mut Tally) -> Option<Checked> {
    trace::next_run();
    let (live, checksum) = tally.op("check window", live::check_window(w, inputs, false))?;
    tally.check("check window: finite samples", live::all_finite(&live.recorder));
    if w == Workload::SweepK64 {
        let same = live::sweep_matches_standalone(inputs, &live.recorder);
        tally.check("sweep instances 0 and K-1 equal standalone runs", matches!(same, Ok(true)));
    }
    let chunk_checksum = live::checksum(&live.recorder, PACED_CHUNK as usize);
    live.recorder.clear();
    Some(Checked { live, checksum, chunk_checksum })
}

/// Free-running `run_until` windows on `live` for `budget` (at least one),
/// appending each window's instance-steps/s to `rates`.
fn timing_windows(
    w: Workload,
    live: &mut Live,
    budget: Duration,
    rates: &mut Vec<f64>,
    tally: &mut Tally,
) {
    let steps = window_steps(w);
    let samples_per_window = steps as usize * live.recorder.names().len();
    let instances = w.instances() as f64;
    let start = Instant::now();
    loop {
        let t_end = live.time() + steps as f64 * STEP;
        let t0 = Instant::now();
        let run = live.run_until(t_end);
        let dt = t0.elapsed().as_secs_f64();
        if tally.op("timing window", run).is_none() {
            return;
        }
        let ok = live.recorder.len() == samples_per_window && live::all_finite(&live.recorder);
        tally.check("timing window: one finite sample per probe and step", ok);
        rates.push(steps as f64 * instances / dt);
        live.recorder.clear();
        if start.elapsed() >= budget {
            return;
        }
    }
}

/// One paced chunk's report, its cycle compute times (ns) and the
/// checksum of its first [`PACED_CHUNK`] samples.
struct Paced {
    report: PacedReport,
    cycles_ns: Vec<f64>,
    checksum: u64,
}

/// [`PACED_CHUNK`] cycles of `run_paced` at rate 1.0 with per-step release
/// on a fresh system, measured against the model's declared budget. One
/// free-running step first keeps lazy initialisation out of the cycles.
fn paced_chunk(w: Workload, inputs: &Inputs, tally: &mut Tally) -> Option<Paced> {
    trace::next_run();
    let compiled = tally.op("paced compile", live::compile(w, inputs, false))?;
    let mut live = tally.op("paced set-up", Live::from_compiled(w, &compiled, inputs))?;
    tally.op("paced warm-up", live.run_until(STEP))?;
    let (clock, times) = CycleClock::new(&live.recorder, PACED_CHUNK as usize);
    let config = PacedConfig::new().with_rate(1.0).with_clock(Box::new(clock));
    let t_end = (PACED_CHUNK + 1) as f64 * STEP;
    let run = span("pacer.run_paced", || live.run_paced(t_end, config));
    let report = match run {
        Ok(report) => report,
        Err(e) => {
            tally.op::<()>("paced run", Err(e));
            return None;
        }
    };
    tally.attempted += report.samples;
    let cycles_ns = times.lock().expect("cycle buffer is never poisoned").clone();
    tally.check("paced run: one measured cycle per step", cycles_ns.len() as u64 == report.samples);
    let checksum = live::checksum(&live.recorder, PACED_CHUNK as usize);
    Some(Paced { report, cycles_ns, checksum })
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn check_committed(a: &Args, checksum: u64, tally: &mut Tally) {
    if a.seed == DEFAULT_SEED {
        let committed = live::committed_checksum(a.workload);
        println!("check-window checksum {checksum:#018x} (committed {committed:#018x})");
        tally.check("check window equals the committed checksum", checksum == committed);
    }
}

/// Interleaves set-ups and timing windows in rounds over the whole run, so
/// that host interference lands on both alike.
fn untraced_run(a: &Args, inputs: &Inputs, tally: &mut Tally) -> Vec<Metric> {
    let w = a.workload;
    let rounds = ((RUN_SHARE * a.seconds / ROUND_S) as usize).max(1);
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    let Some(mut checked) = check_phase(w, inputs, tally) else { return Vec::new() };
    check_committed(a, checked.checksum, tally);
    for _ in 0..rounds {
        setups.extend(setup_phase(w, inputs, false, secs(SETUP_SHARE * ROUND_S), tally));
        let budget = secs((1.0 - SETUP_SHARE) * ROUND_S);
        timing_windows(w, &mut checked.live, budget, &mut rates, tally);
    }
    println!("set-up s:   {}", spread(&setups));
    println!(
        "window 1/s: {} ({} steps x {} instances)",
        spread(&rates),
        window_steps(w),
        w.instances()
    );
    vec![
        metric("setup_s", stats::quantile(&setups, 0.10).unwrap_or(0.0), "s"),
        metric("instance_steps_per_s", stats::quantile(&rates, 0.95).unwrap_or(0.0), "1/s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// The traced step loop: `steps` spanned `step_once` calls on a fresh
/// system built from traced behaviours.
struct StepLoop {
    instance_steps_per_s: f64,
    checksum: u64,
    samples: usize,
    steps: u64,
    delivered: u64,
    dropped: u64,
}

fn step_loop(w: Workload, inputs: &Inputs, steps: u64, tally: &mut Tally) -> Option<StepLoop> {
    trace::next_run();
    let name = match w {
        Workload::SweepK64 => "ensemble.step",
        _ => "engine.step",
    };
    let compiled = tally.op("traced compile", live::compile(w, inputs, true))?;
    let mut live = tally.op("traced set-up", Live::from_compiled(w, &compiled, inputs))?;
    let t0 = Instant::now();
    let run = (0..steps).try_for_each(|_| span(name, || live.step_once()));
    let dt = t0.elapsed().as_secs_f64();
    tally.op("traced step loop", run)?;
    let (delivered, dropped) = match &live.engine {
        Engine::Hybrid(e) => (e.controller().delivered_count(), e.controller().dropped_count()),
        Engine::Ensemble(_) => (0, 0),
    };
    Some(StepLoop {
        instance_steps_per_s: steps as f64 * w.instances() as f64 / dt,
        checksum: live::checksum(&live.recorder, CHECK_STEPS as usize),
        samples: live.recorder.len(),
        steps: live.step_count(),
        delivered,
        dropped,
    })
}

/// `StreamerNetwork::step` on the networks of `instantiate().into_parts()`,
/// one `dataflow.macro_step` span per macro step over all groups.
fn network_loop(w: Workload, inputs: &Inputs, steps: u64) -> Result<(), CoreError> {
    trace::next_run();
    let compiled = live::compile(w, inputs, true)?;
    let (mut nets, _) = compiled.instantiate()?.into_parts();
    for net in &mut nets {
        net.initialize(0.0)?;
    }
    let mut drained = Vec::new();
    for _ in 0..steps {
        span("dataflow.macro_step", || -> Result<(), CoreError> {
            for net in &mut nets {
                span("dataflow.network_step", || net.step(STEP))?;
                net.drain_signals_into(&mut drained);
                drained.clear();
            }
            Ok(())
        })?;
    }
    Ok(())
}

/// `SeriesHandle::push` in spans of [`PUSH_BATCH`] pushes.
fn recorder_loop() {
    trace::next_run();
    let rec = Recorder::new();
    let series = rec.handle("push");
    for i in 0..PUSH_SPANS {
        let t = i as f64 * STEP;
        span("recorder.push", || {
            for j in 0..PUSH_BATCH {
                series.push(black_box(t), black_box(j as f64));
            }
        });
        rec.clear();
    }
}

/// `Controller::inject` of one `status` per supervisor plus `run_until`
/// on the instantiated controller, one `controller.rtc` span per macro
/// step. Returns whether every message was delivered.
fn controller_loop(compiled: &CompiledSystem, steps: u64) -> Result<bool, CoreError> {
    trace::next_run();
    let (_, mut ctl) = compiled.instantiate()?.into_parts();
    let caps: Vec<usize> =
        (0..PLANTS).filter_map(|i| compiled.capsule_index(&format!("sup{i}"))).collect();
    ctl.start()?;
    for k in 1..=steps {
        let t = k as f64 * STEP;
        span("controller.rtc", || -> Result<usize, CoreError> {
            for &c in &caps {
                ctl.inject(c, "plant", Message::new("status", Value::Real(0.5)))?;
            }
            Ok(ctl.run_until(t)?)
        })?;
    }
    Ok(caps.len() == PLANTS && ctl.delivered_count() == steps * PLANTS as u64)
}

/// Median µs per macro step of `run_until` windows of `steps` steps, each
/// a `name` span, on an untraced engine with `policy` and `max_batch`.
fn per_step_us(
    compiled: &CompiledSystem,
    policy: ThreadPolicy,
    max_batch: Option<u64>,
    steps: u64,
    name: &'static str,
) -> Result<f64, CoreError> {
    trace::next_run();
    let mut e = HybridEngine::from_compiled(compiled, EngineConfig { step: STEP, policy })?;
    let rec = Recorder::new();
    e.set_recorder(rec.clone());
    if let Some(k) = max_batch {
        e.set_max_batch(k);
    }
    let mut per_step = Vec::with_capacity(THREADING_WINDOWS);
    for _ in 0..THREADING_WINDOWS {
        let t_end = e.time() + steps as f64 * STEP;
        let t0 = Instant::now();
        span(name, || e.run_until(t_end))?;
        per_step.push(t0.elapsed().as_secs_f64() * 1e6 / steps as f64);
        rec.clear();
    }
    Ok(median(&per_step))
}

fn traced_run(a: &Args, inputs: &Inputs, tally: &mut Tally) -> Vec<Metric> {
    let (w, s) = (a.workload, a.seconds);
    trace::enable();
    setup_phase(w, inputs, true, secs(TRACED_PHASE_SHARE * s), tally);
    let Some(mut checked) = check_phase(w, inputs, tally) else { return Vec::new() };
    check_committed(a, checked.checksum, tally);
    let mut rates = Vec::new();
    timing_windows(w, &mut checked.live, secs(TRACED_PHASE_SHARE * s), &mut rates, tally);

    let steps = traced_steps(w);
    let looped = step_loop(w, inputs, steps, tally);
    if let Some(l) = &looped {
        tally.check("traced series equal untraced ones", l.checksum == checked.checksum);
    }
    tally.op("network loop", network_loop(w, inputs, steps));
    recorder_loop();
    let compiled = tally.op("compile", live::compile(w, inputs, false));
    if let (Workload::ReactiveSport, Some(c)) = (w, &compiled) {
        let delivered = tally.op("controller loop", controller_loop(c, steps));
        tally.check("controller loop delivered every message", delivered == Some(true));
    }
    let mut threading = [0.0; 3];
    let chain = if w == Workload::ReactiveSport {
        let (model, registry) = workloads::chain(inputs);
        tally.op("chain compile", urt_analysis::compile(&model, registry))
    } else {
        None
    };
    if let Some(c) = &chain {
        let configs = [
            (ThreadPolicy::DedicatedThreads, Some(1), 2_000, "threading.run_until_k1"),
            (ThreadPolicy::DedicatedThreads, None, 20_000, "threading.run_until_auto"),
            (ThreadPolicy::CurrentThread, None, 20_000, "threading.run_until_current"),
        ];
        for (slot, (policy, batch, n, name)) in threading.iter_mut().zip(configs) {
            *slot = tally.op(name, per_step_us(c, policy, batch, n, name)).unwrap_or(0.0);
        }
    }
    let mut paced = Vec::new();
    for _ in 0..TRACED_CHUNKS {
        if let Some(p) = paced_chunk(w, inputs, tally) {
            tally.check(
                "paced series equal free-running ones",
                p.checksum == checked.chunk_checksum,
            );
            paced.push(p);
        }
    }

    let spans = trace::recorded();
    let path = PathBuf::from(format!("perfbench/out/spans-{}-seed{}.tsv", w.name(), a.seed));
    match trace::write_tsv(&path, &spans) {
        Ok(()) => println!("{} spans written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
    if trace::dropped() > 0 {
        println!("{} spans past the buffer were not recorded", trace::dropped());
    }
    let untraced_rate = median(&rates);
    layer_metrics(
        &spans,
        &LayerInputs {
            looped: looped.as_ref(),
            paced: &paced,
            compiled: compiled.as_ref(),
            threading,
            untraced_rate,
        },
    )
}

/// What the per-layer metrics are computed from besides the spans.
struct LayerInputs<'a> {
    looped: Option<&'a StepLoop>,
    paced: &'a [Paced],
    compiled: Option<&'a CompiledSystem>,
    /// µs per step: dedicated k = 1, dedicated default batching, current
    /// thread.
    threading: [f64; 3],
    untraced_rate: f64,
}

/// The per-layer metrics, in `BENCHMARK.json` order. A layer the workload
/// never calls reads 0.
fn layer_metrics(spans: &[Span], x: &LayerInputs) -> Vec<Metric> {
    let p50 = |name: &str| median(&trace::durations(spans, name));
    let durs: Vec<f64> = spans.iter().map(Span::ns).collect();
    let selfs = trace::self_times(spans);
    let p50_self = |name: &str| median(&trace::self_times_of(spans, &selfs, name));
    let per_macro = |name: &str, value: &[f64]| {
        median(&trace::sum_under(spans, "dataflow.macro_step", name, value))
    };
    let analyze = p50("analysis.analyze") / 1e3;
    let compile = p50("elaborate.compile") / 1e3;
    let (delivered, dropped, steps, samples, traced_rate) =
        x.looped.map_or((0, 0, 0, 0, 0.0), |l| {
            (l.delivered, l.dropped, l.steps, l.samples, l.instance_steps_per_s)
        });
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let [k1, auto, current] = x.threading;
    let cycles_ns: Vec<f64> = x.paced.iter().flat_map(|p| p.cycles_ns.iter().copied()).collect();
    let lag_us = x.paced.iter().map(|p| p.report.worst_lag_s * 1e6).fold(0.0, f64::max);
    let cycles: u64 = x.paced.iter().map(|p| p.report.samples).sum();
    let misses: u64 = x.paced.iter().map(|p| p.report.misses).sum();
    let (groups, cross) = x.compiled.map_or((0, 0), |c| (c.group_count(), c.cross_flow_count()));
    vec![
        metric("analysis.analyze_us", analyze, "us"),
        metric("elaborate.compile_us", compile, "us"),
        metric("elaborate.self_us", (compile - analyze).max(0.0), "us"),
        metric("elaborate.instantiate_us", p50("elaborate.instantiate") / 1e3, "us"),
        metric("engine.from_compiled_us", p50("engine.from_compiled") / 1e3, "us"),
        metric("ensemble.from_compiled_us", p50("ensemble.from_compiled") / 1e3, "us"),
        metric("engine.first_step_us", p50("engine.first_step") / 1e3, "us"),
        metric("engine.step_ns", p50("engine.step"), "ns"),
        metric("engine.self_ns", p50_self("engine.step"), "ns"),
        metric("dataflow.network_step_ns", per_macro("dataflow.network_step", &durs), "ns"),
        metric("dataflow.advance_ns", per_macro("dataflow.advance", &durs), "ns"),
        metric("dataflow.wire_self_ns", per_macro("dataflow.network_step", &selfs), "ns"),
        metric("recorder.push_ns", p50("recorder.push") / PUSH_BATCH as f64, "ns"),
        metric("recorder.samples", samples as f64, "count"),
        metric("ensemble.step_us", p50("ensemble.step") / 1e3, "us"),
        metric("ode.step_batch_us", p50("ode.step_batch") / 1e3, "us"),
        metric("ensemble.self_us", p50_self("ensemble.step") / 1e3, "us"),
        metric("controller.rtc_ns_per_msg", p50("controller.rtc") / PLANTS as f64, "ns"),
        metric("controller.delivered_per_step", ratio(delivered as f64, steps as f64), "count"),
        metric(
            "controller.dropped_ratio",
            ratio(dropped as f64, (delivered + dropped) as f64),
            "ratio",
        ),
        metric("ode.step_ns", p50("ode.step"), "ns"),
        metric("threading.step_k1_us", k1, "us"),
        metric("threading.step_auto_us", auto, "us"),
        metric("threading.overhead_ratio", ratio(auto, current), "ratio"),
        metric("pacer.cycle_p50_us", median(&cycles_ns) / 1e3, "us"),
        metric(
            "pacer.cycle_p99_us",
            stats::percentile(&cycles_ns, 99.0).unwrap_or(0.0) / 1e3,
            "us",
        ),
        metric("pacer.worst_lag_us", lag_us, "us"),
        metric("pacer.samples", cycles as f64, "count"),
        metric("deadline_miss_ratio", ratio(misses as f64, cycles as f64), "ratio"),
        metric("engine.steps", steps as f64, "count"),
        metric("elaborate.groups", groups as f64, "count"),
        metric("elaborate.cross_flows", cross as f64, "count"),
        metric("trace.overhead_ratio", ratio(traced_rate, x.untraced_rate), "ratio"),
    ]
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn render_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let inputs = Inputs::generate(args.seed);
    let mut tally = Tally::default();
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let metrics = if args.trace {
        traced_run(&args, &inputs, &mut tally)
    } else {
        untraced_run(&args, &inputs, &mut tally)
    };
    for m in &metrics {
        println!("{:<30} {:>16} {}", m.name, json_number(m.value), m.unit);
    }
    let error_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "error_ratio {error_ratio} ({} of {} operations failed)",
        tally.failed, tally.attempted
    );
    let correct = tally.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!("{}", render_json(correct, &tally, &metrics));
}
