//! Hard real-time mode end-to-end: `run_paced` must be a *pacing* shell
//! around the exact same numerics as the free-running loop (bit-identical
//! probe series), and its deadline accounting must be deterministic under
//! an injected clock — misses, catch-up slack, and the `URT115` safety
//! abort all scripted to the nanosecond, no wall-clock flakiness.

use unified_rt::core::elaborate::{elaborate, BehaviorRegistry, CompiledSystem};
use unified_rt::core::engine::{EngineConfig, HybridEngine};
use unified_rt::core::ensemble::EnsembleEngine;
use unified_rt::core::error::CoreError;
use unified_rt::core::model::ModelBuilder;
use unified_rt::core::pacer::{OverrunPolicy, PacedConfig, TimeSource};
use unified_rt::core::recorder::Recorder;
use unified_rt::core::threading::ThreadPolicy;
use unified_rt::dataflow::flowtype::FlowType;
use unified_rt::dataflow::streamer::OdeStreamer;
use unified_rt::ode::solver::SolverKind;
use unified_rt::ode::system::InputSystem;

const STEP: f64 = 0.01;
/// Pacing period at rate 1.0: [`STEP`] seconds of wall time, in ns.
const PERIOD_NS: u64 = 10_000_000;
const BUDGET_NS: f64 = 1_000_000.0;

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

/// Scripted monotonic clock: each `now_ns` call advances by the next
/// scripted increment (0 once the script is exhausted); `sleep_ns`
/// advances by exactly the requested amount, so paced waits complete
/// instantly in test time and on schedule. Never touches the real clock.
struct FakeClock {
    now: u64,
    advances: std::collections::VecDeque<u64>,
}

impl FakeClock {
    fn new(advances: &[u64]) -> Box<Self> {
        Box::new(FakeClock { now: 0, advances: advances.iter().copied().collect() })
    }
}

impl TimeSource for FakeClock {
    fn now_ns(&mut self) -> u64 {
        self.now += self.advances.pop_front().unwrap_or(0);
        self.now
    }
    fn sleep_ns(&mut self, ns: u64) {
        self.now += ns;
    }
}

/// One free oscillator with a `y` probe (recorded as `osc`) and no
/// capsules.
fn osc_system() -> CompiledSystem {
    let mut b = ModelBuilder::new("free");
    let node = b.streamer("osc", "rk4");
    b.streamer_out(node, "y", FlowType::vector(2));
    b.streamer_feedthrough(node, false);
    b.probe(node, "y", "osc");
    let registry = BehaviorRegistry::new().streamer("osc", || {
        Box::new(OdeStreamer::new(
            "osc",
            Osc { omega: 3.0 },
            SolverKind::Rk4.create(),
            &[1.0, 0.0],
            1e-3,
        ))
    });
    elaborate(&b.build(), registry).expect("compiles")
}

/// [`osc_system`] on a [`HybridEngine`], recorded.
fn osc_engine(policy: ThreadPolicy) -> (HybridEngine, Recorder) {
    let config = EngineConfig { step: STEP, policy };
    let mut engine = HybridEngine::from_compiled(&osc_system(), config).expect("engine");
    let rec = Recorder::new();
    engine.set_recorder(rec.clone());
    (engine, rec)
}

fn series_bits(rec: &Recorder, name: &str) -> Vec<(u64, u64)> {
    rec.series(name).iter().map(|(t, v)| (t.to_bits(), v.to_bits())).collect()
}

/// ISSUE pin: pacing is observationally pure. The paced loop (fake clock,
/// so no real sleeping) and the free-running loop produce bit-identical
/// probe series for the same step count.
#[test]
fn run_paced_probe_series_is_bit_identical_to_run_local() {
    let (mut free, free_rec) = osc_engine(ThreadPolicy::CurrentThread);
    free.run_until(0.5).expect("free run");

    let (mut paced, paced_rec) = osc_engine(ThreadPolicy::CurrentThread);
    let config = PacedConfig::new().with_budget_ns(1e12).with_clock(FakeClock::new(&[]));
    let report = paced.run_paced(0.5, config).expect("paced run");

    assert_eq!(report.steps, 50, "0.5 s at h = 0.01 is exactly 50 macro steps");
    assert_eq!(report.samples, 50, "local path paces every step");
    assert!(!report.batched);
    assert_eq!(report.misses, 0, "1 ms of fake-clock work against a 1000 s budget");
    let free_bits = series_bits(&free_rec, "osc");
    let paced_bits = series_bits(&paced_rec, "osc");
    assert_eq!(free_bits.len(), 50);
    assert_eq!(free_bits, paced_bits, "pacing must not perturb the numerics");
}

/// `Record`: misses are counted against the budget, the schedule
/// re-anchors by the overrun (slip), and the report carries the worst
/// cycle and worst lag — all scripted deterministically.
///
/// Clock-call pattern per local step: `begin` 1 call, `end` 1 call, plus
/// 1 call after the sleep when the cycle finished ahead of its release
/// point; the runner's constructor takes 1 call for the origin.
#[test]
fn record_policy_counts_misses_and_reanchors_deterministically() {
    let advances = [
        0,          // origin
        0,          // s1 begin
        2_000_000,  // s1 end: 2 ms elapsed -> miss (budget 1 ms)
        0,          // s1 paces to 10 ms (sleep is exact)
        0,          // s2 begin
        500_000,    // s2 end: 0.5 ms -> ok
        0,          // s2 paces to 20 ms
        0,          // s3 begin
        12_000_000, // s3 end: 12 ms -> miss, 2 ms past release (schedule slips)
        0,          // s4 begin
        500_000,    // s4 end: ok; release point re-anchored to 42 ms
    ];
    let (mut engine, _rec) = osc_engine(ThreadPolicy::CurrentThread);
    let config = PacedConfig::new()
        .with_budget_ns(BUDGET_NS)
        .with_policy(OverrunPolicy::Record)
        .with_clock(FakeClock::new(&advances));
    let report = engine.run_paced(4.0 * STEP, config).expect("record never aborts");

    assert_eq!(report.steps, 4);
    assert_eq!(report.samples, 4);
    assert_eq!(report.misses, 2);
    assert_eq!(report.max_consecutive_misses, 1, "misses were not back-to-back");
    assert_eq!(report.budget_ns, BUDGET_NS);
    assert_eq!(report.worst_ns, 12_000_000.0);
    // Step 3 arrived 2 ms past its slipped release point — and because
    // the schedule re-anchors, that is the *whole* worst lag, not a
    // cumulative drift.
    assert!((report.worst_lag_s - 0.002).abs() < 1e-12, "worst lag {}", report.worst_lag_s);
    assert_eq!(report.skipped_slack_ns, 0, "Record never skips slack");
    assert!(report.p50_ns <= report.p99_ns && report.p99_ns <= report.worst_ns);
}

/// `CatchUp` keeps the absolute timeline: after a big overrun the loop
/// forgoes its earned sleep until real time catches the schedule, and
/// the forgone slack is accounted, not dropped.
#[test]
fn catchup_policy_accounts_skipped_slack_on_the_absolute_timeline() {
    let advances = [
        0,          // origin
        0,          // s1 begin
        25_000_000, // s1 end: 25 ms elapsed -> miss, 15 ms behind the 10 ms release
        0,          // s2 begin
        500_000,    // s2 end: ok, still 5.5 ms behind -> slack 10 ms - 0.5 ms skipped
        0,          // s3 begin
        500_000,    // s3 end: ok, 4 ms ahead of the 30 ms release -> normal pace
    ];
    let (mut engine, _rec) = osc_engine(ThreadPolicy::CurrentThread);
    let config = PacedConfig::new()
        .with_budget_ns(BUDGET_NS)
        .with_policy(OverrunPolicy::CatchUp)
        .with_clock(FakeClock::new(&advances));
    let report = engine.run_paced(3.0 * STEP, config).expect("catch-up never aborts");

    assert_eq!(report.steps, 3);
    assert_eq!(report.misses, 1, "only the 25 ms cycle blew the budget");
    // Step 1 earned a 10 ms sleep but spent 25 ms: nothing to skip.
    // Step 2 earned 10 ms and spent 0.5 ms: 9.5 ms of slack skipped.
    assert_eq!(report.skipped_slack_ns, 9_500_000);
    assert!((report.worst_lag_s - 0.015).abs() < 1e-12, "worst lag {}", report.worst_lag_s);
}

/// `SafetyStop` aborts the run with a structured `URT115` once the
/// consecutive-miss tolerance is exhausted — the error surfaces through
/// `run_paced`, carrying the full deadline accounting.
#[test]
fn safety_stop_aborts_with_urt115_through_run_paced() {
    let advances = [
        0,         // origin
        0,         // s1 begin
        2_000_000, // s1 end: miss 1 of 2 tolerated
        0,         // s1 paces to 10 ms
        0,         // s2 begin
        2_000_000, // s2 end: miss 2 -> abort
    ];
    let (mut engine, _rec) = osc_engine(ThreadPolicy::CurrentThread);
    let config = PacedConfig::new()
        .with_budget_ns(BUDGET_NS)
        .with_policy(OverrunPolicy::SafetyStop { max_consecutive: 2 })
        .with_clock(FakeClock::new(&advances));
    let err = engine.run_paced(10.0 * STEP, config).expect_err("second miss aborts");

    match &err {
        CoreError::DeadlineOverrun { step, consecutive, budget_ns, worst_ns, misses } => {
            assert_eq!(*step, 2);
            assert_eq!(*consecutive, 2);
            assert_eq!(*budget_ns, BUDGET_NS);
            assert_eq!(*worst_ns, 2_000_000.0);
            assert_eq!(*misses, 2);
        }
        other => panic!("expected DeadlineOverrun, got {other}"),
    }
    assert!(err.to_string().starts_with("URT115:"), "stable code prefix: {err}");
    // The engine stopped at the aborting step — it did not run to t_end.
    assert_eq!(engine.step_count(), 2);
    // An overrun is not a step failure: every step taken completed, so
    // the engine carries on.
    engine.run_until(4.0 * STEP).expect("usable after URT115");
    assert_eq!(engine.step_count(), 4);
}

/// Threaded runs pace at batch barriers: one link-free batch covers all
/// ten steps (one sample), and its wall time is attributed as a
/// *per-step* share against one step's budget — a 10 ms batch of 10
/// steps meets a 1 ms budget exactly; a 20 ms batch misses it.
#[test]
fn threaded_batches_attribute_per_step_share_against_one_budget() {
    let run = |batch_elapsed_ns: u64| {
        let (mut engine, _rec) = osc_engine(ThreadPolicy::DedicatedThreads);
        let advances = [
            0,                // origin
            0,                // batch begin
            batch_elapsed_ns, // batch end
        ];
        let config =
            PacedConfig::new().with_budget_ns(BUDGET_NS).with_clock(FakeClock::new(&advances));
        engine.run_paced(10.0 * STEP, config).expect("record policy")
    };

    let met = run(10 * PERIOD_NS / 10); // 10 ms / 10 steps = exactly budget
    assert_eq!(met.steps, 10);
    assert_eq!(met.samples, 1, "one batch, one release point");
    assert!(met.batched);
    assert_eq!(met.misses, 0, "per-step share equals the budget: not a miss");
    assert_eq!(met.worst_ns, BUDGET_NS);

    let missed = run(20_000_000); // 20 ms / 10 steps = 2 ms share
    assert_eq!(missed.steps, 10);
    assert_eq!(missed.samples, 1);
    assert_eq!(missed.misses, 1, "the whole batch is one deadline test");
    assert_eq!(missed.worst_ns, 2_000_000.0);
}

/// Like [`FakeClock`] with no scripted advances, except that every
/// `sleep_ns` overshoots by a fixed slack, as OS timer slack does.
struct OversleepingClock {
    now: u64,
    slack_ns: u64,
}

impl TimeSource for OversleepingClock {
    fn now_ns(&mut self) -> u64 {
        self.now
    }
    fn sleep_ns(&mut self, ns: u64) {
        self.now += ns + self.slack_ns;
    }
}

/// Oversleep is lag: every instantaneous cycle sleeps to its release
/// point, wakes `slack` late, and the report's worst lag is exactly that
/// slack, neither dropped nor accumulated across cycles.
#[test]
fn oversleep_is_folded_into_the_worst_lag() {
    const SLACK_NS: u64 = 300_000;
    let (mut engine, _rec) = osc_engine(ThreadPolicy::CurrentThread);
    let clock = Box::new(OversleepingClock { now: 0, slack_ns: SLACK_NS });
    let config = PacedConfig::new().with_budget_ns(BUDGET_NS).with_clock(clock);
    let report = engine.run_paced(5.0 * STEP, config).expect("paced run");

    assert_eq!(report.steps, 5);
    assert_eq!(report.misses, 0, "every cycle took no clock time");
    assert!((report.worst_lag_s - 3e-4).abs() < 1e-15, "worst lag {}", report.worst_lag_s);
}

/// Pacing configurations `run_paced` must refuse: a rate or a budget
/// that is zero, negative, NaN or infinite.
fn bad_pacing_configs() -> Vec<(String, PacedConfig)> {
    let mut configs = Vec::new();
    for v in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        configs.push((format!("rate {v}"), PacedConfig::new().with_rate(v)));
        configs.push((format!("budget {v}"), PacedConfig::new().with_budget_ns(v)));
    }
    configs
}

/// A bad rate or budget is a `URT117` error returned before the engine
/// starts, not a panic, and the engine stays usable.
#[test]
fn hybrid_run_paced_refuses_bad_rate_or_budget_with_urt117() {
    for (label, config) in bad_pacing_configs() {
        let (mut engine, rec) = osc_engine(ThreadPolicy::CurrentThread);
        let err = engine.run_paced(2.0 * STEP, config).expect_err(&label);
        assert_eq!(err.code(), "URT117", "{label}: {err}");
        assert_eq!(engine.step_count(), 0, "{label}: nothing ran");
        engine.run_until(2.0 * STEP).expect("not failed");
        assert_eq!(engine.step_count(), 2, "{label}");
        assert_eq!(rec.series("osc").len(), 2, "{label}");
    }
}

/// The same refusal on the ensemble engine.
#[test]
fn ensemble_run_paced_refuses_bad_rate_or_budget_with_urt117() {
    let compiled = osc_system();
    for (label, config) in bad_pacing_configs() {
        let engine_config = EngineConfig { step: STEP, policy: ThreadPolicy::CurrentThread };
        let mut engine =
            EnsembleEngine::from_compiled(&compiled, 3, engine_config).expect("ensemble");
        let err = engine.run_paced(2.0 * STEP, config).expect_err(&label);
        assert_eq!(err.code(), "URT117", "{label}: {err}");
        assert_eq!(engine.step_count(), 0, "{label}: nothing ran");
        engine.run_until(2.0 * STEP).expect("not failed");
        assert_eq!(engine.step_count(), 2, "{label}");
    }
}
