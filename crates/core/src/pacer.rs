//! Real-time pacing: running the unified model against the wall clock.
//!
//! Simulation normally runs as fast as possible; deploying the model as a
//! real controller (the paper's end goal) means each macro step must wait
//! for wall-clock time to catch up and finish inside a declared budget.
//! This module is the runtime half of that timing contract (the static
//! half is `urt_analysis`'s URT3xx cost pass):
//!
//! * [`TimeSource`] / [`WallClock`] — the injectable monotonic clock the
//!   whole module runs on. Tests inject scripted clocks so deadline
//!   accounting is pinned without any wall-clock dependence.
//! * [`PacedConfig`] / [`OverrunPolicy`] / [`PacedReport`] — the public
//!   surface of [`HybridEngine::run_paced`] and
//!   [`EnsembleEngine::run_paced`]: the paced, deadline-enforced run
//!   loops in the compiled path.
//! * `PacedRunner` — the one engine-side driver of those loops. It keeps
//!   one clock origin, couples simulation time to the clock at the
//!   configured rate, counts deadline misses against the budget the
//!   compiled artifact carries, and tracks one worst lag (OS timer slack
//!   included: oversleeps are re-measured and folded into the lag, never
//!   silently dropped). Cycle times go into a fixed-size log-linear
//!   histogram (allocation-free recording) behind the p50/p99/worst
//!   figures of a [`PacedReport`].
//!
//! [`HybridEngine::run_paced`]: crate::engine::HybridEngine::run_paced
//! [`EnsembleEngine::run_paced`]: crate::ensemble::EnsembleEngine::run_paced

use crate::error::CoreError;
use std::fmt;
use std::time::{Duration, Instant};

/// A monotonic nanosecond clock the paced machinery runs on.
///
/// Production uses [`WallClock`]; deterministic tests inject scripted
/// sources so miss accounting and lag folding are pinned exactly. The
/// paced loop's call pattern is fixed — one `now_ns` for the run's
/// origin, one when a cycle starts, one when it ends and, when it
/// finished ahead of its release point, one `now_ns` before and one
/// after its `sleep_ns` — so a scripted source can drive every branch.
pub trait TimeSource: Send {
    /// Nanoseconds since an arbitrary fixed origin; never decreases.
    fn now_ns(&mut self) -> u64;

    /// Blocks for *at least* `ns` nanoseconds. Real clocks routinely
    /// overshoot (OS timer slack); callers re-measure after sleeping.
    fn sleep_ns(&mut self, ns: u64);
}

/// The default [`TimeSource`]: `std::time::Instant` + `thread::sleep`.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock whose origin is now.
    pub fn new() -> Self {
        WallClock { origin: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeSource for WallClock {
    fn now_ns(&mut self) -> u64 {
        // ~584 years of run time saturate rather than wrap.
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn sleep_ns(&mut self, ns: u64) {
        std::thread::sleep(Duration::from_nanos(ns));
    }
}

/// `sim_time / rate` seconds as saturating nanoseconds: the wall-clock
/// release target of a simulation instant. Non-finite or negative inputs
/// clamp to zero; overflow saturates to `u64::MAX` instead of panicking
/// (the old `Duration::from_secs_f64` path aborted on extreme rates).
fn target_ns(sim_time: f64, rate: f64) -> u64 {
    let ns = (sim_time / rate).max(0.0) * 1e9;
    if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        ns as u64
    }
}

/// Buckets: exact singletons below 16 ns, then 16 linear sub-buckets per
/// power of two up to `u64::MAX` — ≤ 1/16 relative quantisation error.
const HIST_BUCKETS: usize = 976;

/// Fixed-size log-linear latency histogram.
///
/// All storage is inline (no heap), so recording inside a paced loop is
/// allocation-free and O(1). Percentiles resolve to a bucket's upper
/// bound — conservative for latency reporting — clamped to the exact
/// observed maximum.
pub(crate) struct LatencyHistogram {
    counts: [u64; HIST_BUCKETS],
    total: u64,
    min_ns: u64,
    max_ns: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub(crate) fn new() -> Self {
        LatencyHistogram { counts: [0; HIST_BUCKETS], total: 0, min_ns: u64::MAX, max_ns: 0 }
    }

    fn bucket_index(v: u64) -> usize {
        if v < 16 {
            v as usize
        } else {
            let exp = 63 - v.leading_zeros() as usize;
            ((exp - 3) << 4) | ((v >> (exp - 4)) & 0xF) as usize
        }
    }

    /// Inclusive upper bound of bucket `i`.
    fn bucket_upper(i: usize) -> u64 {
        if i < 16 {
            i as u64
        } else {
            let exp = (i >> 4) + 3;
            let sub = (i & 0xF) as u64;
            let hi = (((16 + sub + 1) as u128) << (exp - 4)) - 1;
            u64::try_from(hi).unwrap_or(u64::MAX)
        }
    }

    /// Records one sample.
    pub(crate) fn record(&mut self, ns: u64) {
        self.counts[Self::bucket_index(ns)] += 1;
        self.total += 1;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Exact observed maximum (0 when empty).
    pub(crate) fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The `q`-quantile (`q` in `0.0..=1.0`) as a conservative upper
    /// bound, clamped to the exact observed extrema. Returns 0 when no
    /// samples were recorded.
    pub(crate) fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i).clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }
}

/// What a paced run does when a macro step (or batch) overruns its
/// deadline budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverrunPolicy {
    /// Count the miss and continue, re-anchoring the pacing schedule at
    /// the current instant so the next step gets its full period again
    /// (the schedule *slips* by the overrun; one slow step never
    /// cascades into a burst of late release points).
    Record,
    /// Count the miss and keep the original absolute schedule: pacing is
    /// skipped (no sleep) until real time catches the timeline again,
    /// and the sleep forgone while catching up is accounted as
    /// [`PacedReport::skipped_slack_ns`].
    CatchUp,
    /// Like [`OverrunPolicy::Record`], but abort the run with
    /// [`CoreError::DeadlineOverrun`] after `max_consecutive`
    /// consecutive misses — the evo control-unit discipline (overrun ⇒
    /// SAFETY_STOP) with a configurable tolerance for isolated spikes
    /// (`max_consecutive = 1` stops on the first miss).
    SafetyStop {
        /// Consecutive misses tolerated before the run aborts.
        max_consecutive: u32,
    },
}

/// Configuration of a paced run
/// ([`HybridEngine::run_paced`](crate::engine::HybridEngine::run_paced)).
///
/// Defaults: real time (`rate` 1.0), [`OverrunPolicy::Record`], budget
/// resolved from the compiled system's declared budget (falling back to
/// the pacing period itself — one period of wall time per macro step is
/// the natural deadline of a paced loop), wall-clock time source.
pub struct PacedConfig {
    pub(crate) rate: f64,
    pub(crate) budget_ns: Option<f64>,
    pub(crate) policy: OverrunPolicy,
    pub(crate) clock: Option<Box<dyn TimeSource>>,
}

impl fmt::Debug for PacedConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PacedConfig")
            .field("rate", &self.rate)
            .field("budget_ns", &self.budget_ns)
            .field("policy", &self.policy)
            .field("injected_clock", &self.clock.is_some())
            .finish()
    }
}

impl Default for PacedConfig {
    fn default() -> Self {
        PacedConfig { rate: 1.0, budget_ns: None, policy: OverrunPolicy::Record, clock: None }
    }
}

impl PacedConfig {
    /// Real-time defaults (see type docs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pacing rate: simulated seconds per wall second (1.0 =
    /// real time, 2.0 = twice as fast).
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// Overrides the per-macro-step deadline budget in nanoseconds
    /// (otherwise the compiled system's declared budget, otherwise the
    /// pacing period).
    pub fn with_budget_ns(mut self, budget_ns: f64) -> Self {
        self.budget_ns = Some(budget_ns);
        self
    }

    /// Sets the overrun policy.
    pub fn with_policy(mut self, policy: OverrunPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Injects a [`TimeSource`] (deterministic tests; defaults to
    /// [`WallClock`]).
    pub fn with_clock(mut self, clock: Box<dyn TimeSource>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Refuses a rate or an explicit budget that is not a positive,
    /// finite number. The engines call this before they start, so a
    /// refused configuration leaves them untouched.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidPacing`] naming the offending field.
    pub(crate) fn check(&self) -> Result<(), CoreError> {
        let fields = [("rate", Some(self.rate)), ("budget_ns", self.budget_ns)];
        for (field, value) in fields {
            if let Some(value) = value.filter(|v| !(v.is_finite() && *v > 0.0)) {
                return Err(CoreError::InvalidPacing { field, value });
            }
        }
        Ok(())
    }
}

/// What a paced run measured: deadline accounting plus the cycle-time
/// distribution a latency-bound deployment is judged by.
///
/// Cycle times are *per macro step*: a batched `DedicatedThreads` run
/// measures whole batches at the batch barrier and attributes the batch
/// budget as `K ×` the step budget, so every sample here is the batch
/// time divided by its `K` ([`PacedReport::samples`] counts measured
/// cycles, [`PacedReport::steps`] macro steps; they differ exactly when
/// `batched` is set).
#[derive(Debug, Clone, PartialEq)]
pub struct PacedReport {
    /// Macro steps advanced.
    pub steps: u64,
    /// Measured cycles (pacing release points): equals `steps` on the
    /// local path, the number of batches on the batched threaded path.
    pub samples: u64,
    /// Deadline misses (per measured cycle).
    pub misses: u64,
    /// Longest run of consecutive misses observed.
    pub max_consecutive_misses: u64,
    /// The enforced budget, nanoseconds per macro step.
    pub budget_ns: f64,
    /// Median per-step cycle time, ns (histogram upper bound).
    pub p50_ns: f64,
    /// 99th-percentile per-step cycle time, ns (histogram upper bound).
    pub p99_ns: f64,
    /// Worst observed per-step cycle time, ns (exact).
    pub worst_ns: f64,
    /// Worst pacing lag in *wall* seconds: how far behind its release
    /// point a cycle started, or the worst measured oversleep.
    pub worst_lag_s: f64,
    /// [`OverrunPolicy::CatchUp`] only: wall nanoseconds of sleep
    /// forgone while catching back up to the absolute schedule.
    pub skipped_slack_ns: u64,
    /// The pacing rate the run used.
    pub rate: f64,
    /// Whether any measured cycle covered more than one macro step.
    pub batched: bool,
}

/// The engine-side driver of a paced run: owns the clock, the budget,
/// the histogram and the overrun-policy state. Engines call
/// [`PacedRunner::begin`] / [`PacedRunner::end`] around each macro step
/// (or batch, at the batch barrier) — everything in between is plain
/// field arithmetic on inline storage, so the steady state allocates
/// nothing.
pub(crate) struct PacedRunner {
    clock: Box<dyn TimeSource>,
    /// Clock reading at the wall-clock origin of the run.
    origin_ns: u64,
    /// Simulated seconds per wall second.
    rate: f64,
    /// Deadline per macro step, wall ns.
    budget_ns: f64,
    policy: OverrunPolicy,
    /// Per-step cycle times; its exact maximum is the worst cycle.
    hist: LatencyHistogram,
    /// Pacing period per macro step, wall ns (`step / rate`).
    period_ns: u64,
    steps: u64,
    samples: u64,
    misses: u64,
    consecutive: u64,
    max_consecutive: u64,
    skipped_slack_ns: u64,
    worst_lag_ns: u64,
    /// Schedule slip accumulated by `Record`/`SafetyStop` re-anchoring.
    slip_ns: u64,
    batched: bool,
    cycle_start_ns: u64,
}

impl PacedRunner {
    /// Builds a runner for macro steps of `step_s` simulated seconds and
    /// reads the clock once for the run's origin. The budget resolves
    /// explicit config > compiled system declaration
    /// (`compiled_budget_ns`) > the pacing period. The config must have
    /// passed [`PacedConfig::check`]; a declared budget is positive by
    /// construction.
    pub(crate) fn new(config: PacedConfig, compiled_budget_ns: Option<f64>, step_s: f64) -> Self {
        let PacedConfig { rate, budget_ns, policy, clock } = config;
        debug_assert!(rate.is_finite() && rate > 0.0, "unchecked pacing rate {rate}");
        let mut clock = clock.unwrap_or_else(|| Box::new(WallClock::new()));
        let origin_ns = clock.now_ns();
        let period_ns = target_ns(step_s, rate);
        // The period fallback clamps to 1 ns: at extreme rates the pacing
        // period rounds to zero, which is not a representable budget.
        let budget_ns = budget_ns.or(compiled_budget_ns).unwrap_or((period_ns as f64).max(1.0));
        PacedRunner {
            clock,
            origin_ns,
            rate,
            budget_ns,
            policy,
            hist: LatencyHistogram::new(),
            period_ns,
            steps: 0,
            samples: 0,
            misses: 0,
            consecutive: 0,
            max_consecutive: 0,
            skipped_slack_ns: 0,
            worst_lag_ns: 0,
            slip_ns: 0,
            batched: false,
            cycle_start_ns: 0,
        }
    }

    /// Nanoseconds elapsed on the clock since the origin.
    fn now_rel_ns(&mut self) -> u64 {
        self.clock.now_ns().saturating_sub(self.origin_ns)
    }

    /// Marks the start of a cycle (one macro step, or one batch).
    pub(crate) fn begin(&mut self) {
        self.cycle_start_ns = self.now_rel_ns();
    }

    /// Closes a cycle covering `k` macro steps that advanced simulation
    /// time to `sim_time`: records the per-step cycle time, applies the
    /// overrun policy, and paces to `sim_time`'s wall-clock release
    /// point.
    ///
    /// # Errors
    ///
    /// [`CoreError::DeadlineOverrun`] under
    /// [`OverrunPolicy::SafetyStop`] once the consecutive-miss tolerance
    /// is exhausted.
    pub(crate) fn end(&mut self, k: u64, sim_time: f64) -> Result<(), CoreError> {
        let k = k.max(1);
        let now = self.now_rel_ns();
        let elapsed = now.saturating_sub(self.cycle_start_ns);
        // Batch budget attributed as K x the step budget: comparing the
        // per-step share against one step's budget is the same test.
        let cycle = elapsed / k;
        self.hist.record(cycle);
        self.steps += k;
        self.samples += 1;
        if k > 1 {
            self.batched = true;
        }
        if cycle as f64 > self.budget_ns {
            self.misses += 1;
            self.consecutive += 1;
            self.max_consecutive = self.max_consecutive.max(self.consecutive);
            if let OverrunPolicy::SafetyStop { max_consecutive } = self.policy {
                if self.consecutive >= u64::from(max_consecutive.max(1)) {
                    return Err(CoreError::DeadlineOverrun {
                        step: self.steps,
                        consecutive: self.consecutive,
                        budget_ns: self.budget_ns,
                        worst_ns: self.hist.max_ns() as f64,
                        misses: self.misses,
                    });
                }
            }
        } else {
            self.consecutive = 0;
        }
        // Pace to the release point. `Record`/`SafetyStop` schedules may
        // have slipped; `CatchUp` keeps the absolute timeline.
        let target = self.slip_ns.saturating_add(target_ns(sim_time, self.rate));
        if now < target {
            let over = self.pace_to(target);
            self.worst_lag_ns = self.worst_lag_ns.max(over);
        } else {
            let behind = now - target;
            match self.policy {
                OverrunPolicy::CatchUp => {
                    // Skip pacing until real time catches the schedule;
                    // the sleep this cycle earned but forwent is the
                    // slack spent catching up.
                    let earned = self.period_ns.saturating_mul(k);
                    self.skipped_slack_ns =
                        self.skipped_slack_ns.saturating_add(earned.saturating_sub(elapsed));
                }
                OverrunPolicy::Record | OverrunPolicy::SafetyStop { .. } => {
                    // Re-anchor: the schedule slips by the overrun so the
                    // next cycle gets its full period.
                    self.slip_ns = self.slip_ns.saturating_add(behind);
                }
            }
            self.worst_lag_ns = self.worst_lag_ns.max(behind);
        }
        Ok(())
    }

    /// Blocks until `target` nanoseconds past the origin; returns how far
    /// past the target the clock was on arrival. After a wait that is the
    /// oversleep: `sleep` guarantees *at least* the requested duration,
    /// and timer slack routinely overshoots it, so the clock is
    /// re-measured rather than the slack dropped.
    fn pace_to(&mut self, target: u64) -> u64 {
        let now = self.now_rel_ns();
        if now < target {
            self.clock.sleep_ns(target - now);
            self.now_rel_ns().saturating_sub(target)
        } else {
            now - target
        }
    }

    /// The report (consumes the runner).
    pub(crate) fn finish(self) -> PacedReport {
        PacedReport {
            steps: self.steps,
            samples: self.samples,
            misses: self.misses,
            max_consecutive_misses: self.max_consecutive,
            budget_ns: self.budget_ns,
            p50_ns: self.hist.percentile(0.5) as f64,
            p99_ns: self.hist.percentile(0.99) as f64,
            worst_ns: self.hist.max_ns() as f64,
            worst_lag_s: self.worst_lag_ns as f64 * 1e-9,
            skipped_slack_ns: self.skipped_slack_ns,
            rate: self.rate,
            batched: self.batched,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scripted clock: each `now_ns` call pops the next advance off the
    /// script (0 when exhausted) and adds it; `sleep_ns` advances by
    /// exactly the requested amount.
    struct ScriptClock {
        now: u64,
        advances: std::collections::VecDeque<u64>,
    }

    impl ScriptClock {
        fn new(advances: &[u64]) -> Self {
            ScriptClock { now: 0, advances: advances.iter().copied().collect() }
        }
    }

    impl TimeSource for ScriptClock {
        fn now_ns(&mut self) -> u64 {
            self.now += self.advances.pop_front().unwrap_or(0);
            self.now
        }
        fn sleep_ns(&mut self, ns: u64) {
            self.now += ns;
        }
    }

    #[test]
    fn runner_waits_for_wall_clock() {
        // 100x real time: a 5 ms step is released 50 us of wall time
        // after the origin. `sleep` never returns early, so this lower
        // bound holds under any load.
        let start = Instant::now();
        let mut r = PacedRunner::new(PacedConfig::new().with_rate(100.0), None, 5e-3);
        r.begin();
        r.end(1, 5e-3).unwrap();
        let waited = start.elapsed();
        assert!(waited >= Duration::from_micros(50), "waited for the wall clock: {waited:?}");
        let report = r.finish();
        assert!(report.worst_lag_s <= waited.as_secs_f64(), "lag within the wall time taken");
        assert_eq!(report.rate, 100.0);
    }

    #[test]
    fn runner_saturates_extreme_targets() {
        // Regression: `sim_time / rate` beyond Duration's range used to
        // panic inside `Duration::from_secs_f64`; the release target and
        // the pacing period now saturate at u64::MAX nanoseconds.
        let cfg = PacedConfig::new().with_rate(1e-300).with_clock(Box::new(ScriptClock::new(&[])));
        let mut r = PacedRunner::new(cfg, None, 1e-3);
        assert_eq!(r.period_ns, u64::MAX);
        r.begin();
        r.end(1, 1e300).unwrap(); // 1e600 wall seconds: sleeps to u64::MAX
        let report = r.finish();
        assert_eq!((report.steps, report.misses), (1, 0));
        assert_eq!(report.worst_lag_s, 0.0, "the saturated release point was met exactly");
        assert_eq!(target_ns(1e300, 1e-300), u64::MAX);
        assert_eq!(target_ns(f64::NAN, 1.0), 0, "NaN clamps to the origin");
        assert_eq!(target_ns(-1.0, 1.0), 0);
    }

    #[test]
    fn histogram_buckets_are_monotone_and_exhaustive() {
        // Every index must be reachable, ordered, and bounded by its
        // upper edge.
        let mut last = 0usize;
        for &v in &[0u64, 1, 15, 16, 17, 31, 32, 1000, 1 << 20, u64::MAX / 2, u64::MAX] {
            let i = LatencyHistogram::bucket_index(v);
            assert!(i < HIST_BUCKETS, "index {i} in range for {v}");
            assert!(i >= last, "indices are monotone in the value");
            assert!(LatencyHistogram::bucket_upper(i) >= v, "upper edge bounds {v}");
            last = i;
        }
        assert_eq!(LatencyHistogram::bucket_upper(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.percentile(0.5), 0, "empty histogram");
        for ns in 1..=1000u64 {
            h.record(ns * 1000); // 1 us .. 1 ms
        }
        assert_eq!(h.total, 1000);
        assert_eq!(h.max_ns(), 1_000_000);
        assert_eq!(h.min_ns, 1000);
        let p50 = h.percentile(0.5);
        let p99 = h.percentile(0.99);
        // Log-linear buckets: <= 1/16 relative error above the true rank.
        assert!((500_000..=540_000).contains(&p50), "p50 = {p50}");
        assert!((990_000..=1_000_000).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p99 && p99 <= h.percentile(1.0));
        assert_eq!(h.percentile(1.0), 1_000_000, "p100 is the exact max");
    }

    #[test]
    fn runner_resolves_budget_from_compiled_then_period() {
        let r = PacedRunner::new(PacedConfig::new(), Some(123_456.0), 1e-3);
        assert_eq!(r.budget_ns, 123_456.0, "compiled budget wins over the period");
        let r = PacedRunner::new(PacedConfig::new(), None, 1e-3);
        assert_eq!(r.budget_ns, 1e6, "period fallback: 1 ms step at rate 1");
        let r = PacedRunner::new(PacedConfig::new().with_budget_ns(5.0), Some(123.0), 1e-3);
        assert_eq!(r.budget_ns, 5.0, "explicit config wins over everything");
    }

    #[test]
    fn runner_record_policy_slips_schedule() {
        // Period 1 ms; every cycle takes 2 ms (scripted: begin +0,
        // end +2 ms). Record re-anchors, so each miss adds 1 ms of slip
        // and no sleep ever happens.
        let clock = ScriptClock::new(&[0, 0, 2_000_000, 0, 2_000_000, 0, 2_000_000]);
        let cfg = PacedConfig::new().with_clock(Box::new(clock));
        let mut r = PacedRunner::new(cfg, None, 1e-3);
        for step in 1..=3u64 {
            r.begin();
            r.end(1, step as f64 * 1e-3).unwrap();
        }
        let report = r.finish();
        assert_eq!(report.steps, 3);
        assert_eq!(report.samples, 3);
        assert_eq!(report.misses, 3, "every 2 ms cycle misses the 1 ms budget");
        assert_eq!(report.max_consecutive_misses, 3);
        assert_eq!(report.skipped_slack_ns, 0, "slack is a CatchUp diagnostic");
        assert!(!report.batched);
        assert_eq!(report.worst_ns, 2_000_000.0);
        // Slip re-anchoring: each cycle ends 1 ms past its (slipped)
        // release point, so the worst lag is one period, not cumulative.
        assert!((report.worst_lag_s - 1e-3).abs() < 1e-12, "lag {}", report.worst_lag_s);
    }

    #[test]
    fn runner_catch_up_skips_pacing_and_logs_slack() {
        // Step 1 takes 3 ms (2 ms over), steps 2..4 are instantaneous.
        // CatchUp keeps the absolute schedule: steps 2 and 3 forgo their
        // 1 ms sleep each (slack = 2 ms total), step 4 sleeps again.
        let clock = ScriptClock::new(&[0, 0, 3_000_000]);
        let cfg =
            PacedConfig::new().with_policy(OverrunPolicy::CatchUp).with_clock(Box::new(clock));
        let mut r = PacedRunner::new(cfg, None, 1e-3);
        for step in 1..=4u64 {
            r.begin();
            r.end(1, step as f64 * 1e-3).unwrap();
        }
        let report = r.finish();
        assert_eq!(report.misses, 1, "only the slow first step misses");
        assert_eq!(report.max_consecutive_misses, 1);
        assert_eq!(report.skipped_slack_ns, 2_000_000, "2 ms of sleep spent catching up");
        assert!((report.worst_lag_s - 2e-3).abs() < 1e-12, "worst lag is the 2 ms overrun");
    }

    #[test]
    fn runner_safety_stop_aborts_after_consecutive_misses() {
        // Every cycle takes 2 ms against a 1 ms budget (call pattern per
        // cycle: begin +0, end +2 ms; misses never sleep, so no extra
        // clock calls).
        let clock = ScriptClock::new(&[0, 0, 2_000_000, 0, 2_000_000, 0, 2_000_000]);
        let cfg = PacedConfig::new()
            .with_policy(OverrunPolicy::SafetyStop { max_consecutive: 3 })
            .with_clock(Box::new(clock));
        let mut r = PacedRunner::new(cfg, None, 1e-3);
        let mut aborted = None;
        for step in 1..=6u64 {
            r.begin();
            if let Err(e) = r.end(1, step as f64 * 1e-3) {
                aborted = Some((step, e));
                break;
            }
        }
        let (step, err) = aborted.expect("safety stop fired");
        assert_eq!(step, 3, "third consecutive miss trips the stop");
        match &err {
            CoreError::DeadlineOverrun { consecutive, misses, budget_ns, worst_ns, step } => {
                assert_eq!(*consecutive, 3);
                assert_eq!(*misses, 3);
                assert_eq!(*step, 3);
                assert_eq!(*budget_ns, 1e6);
                assert_eq!(*worst_ns, 2e6);
            }
            other => panic!("expected DeadlineOverrun, got {other:?}"),
        }
        assert!(err.to_string().starts_with("URT115: "), "stable code: {err}");
    }

    #[test]
    fn runner_batch_attribution_divides_by_k() {
        // One 8-step batch taking 8 ms: per-step share 1 ms, exactly on
        // a 1 ms budget — met. A second batch at 16 ms misses.
        let clock = ScriptClock::new(&[0, 0, 8_000_000, 0, 16_000_000]);
        let cfg = PacedConfig::new().with_clock(Box::new(clock));
        let mut r = PacedRunner::new(cfg, None, 1e-3);
        r.begin();
        r.end(8, 8e-3).unwrap();
        r.begin();
        r.end(8, 16e-3).unwrap();
        let report = r.finish();
        assert_eq!(report.steps, 16);
        assert_eq!(report.samples, 2);
        assert!(report.batched);
        assert_eq!(report.misses, 1, "K x budget attribution: 8 ms meets, 16 ms misses");
        assert_eq!(report.worst_ns, 2_000_000.0, "per-step share of the slow batch");
    }
}
