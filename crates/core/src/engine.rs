//! The hybrid co-simulation engine: event-driven capsules and
//! time-continuous streamers on separate threads, bridged by channels.
//!
//! "During implementation, capsules and streamers are assigned to
//! different threads. Communication between capsules and streamers is
//! realized by communication mechanism of threads." Here the capsule side
//! is a [`Controller`]; each streamer *group* (one declared solver
//! thread) under [`ThreadPolicy::DedicatedThreads`] runs on its own
//! worker, synchronised once per macro step. SPort links carry signal
//! messages across the boundary in both directions as buffers swapped at
//! that synchronisation: the controller's external outboxes towards the
//! streamers, the behaviours' emitted signals back. A model flow
//! between streamers on different declared threads becomes a
//! cross-group channel with a deterministic
//! one-macro-step delay: during step `k` the consumer reads the sample
//! the producer wrote at the end of step `k - 1` (all-zero lanes at step
//! 0), identically under both thread policies and any threaded batch
//! size.
//!
//! [`HybridEngine`] is the `K = 1` case of the execution core in
//! [`crate::ensemble`]: it owns no network and no run loop of its own.
//! Like every engine, it is built from a [`CompiledSystem`] — the model
//! is the only source of streamers, links, probes and thread assignment
//! — and every macro step, threaded batch and paced cycle runs on
//! [`EnsembleEngine`]'s loop with one instance, recording probes under
//! their plain series names.

use crate::elaborate::CompiledSystem;
use crate::ensemble::{EnsembleEngine, VariantSpec};
use crate::error::CoreError;
use crate::pacer::{PacedConfig, PacedReport};
use crate::recorder::Recorder;
use crate::threading::ThreadPolicy;
use urt_umlrt::controller::Controller;

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Macro step in seconds: the synchronisation period between the
    /// capsule thread and the solver threads. Must be positive and
    /// finite: [`HybridEngine::from_compiled`] and the ensemble
    /// constructors refuse anything else with
    /// [`CoreError::InvalidStep`] (URT116).
    pub step: f64,
    /// Thread assignment policy.
    pub policy: ThreadPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { step: 1e-3, policy: ThreadPolicy::CurrentThread }
    }
}

/// The unified execution engine (see module docs).
///
/// Typical lifecycle: `ModelBuilder` → `compile` (or `elaborate`) →
/// [`HybridEngine::from_compiled`], optionally
/// [`HybridEngine::set_recorder`], then [`HybridEngine::run_until`]
/// repeatedly.
#[derive(Debug)]
pub struct HybridEngine {
    core: EnsembleEngine,
}

impl HybridEngine {
    /// Builds an engine from a compiled [`CompiledSystem`] artifact —
    /// the only constructor (`ModelBuilder` → `compile` → instantiate →
    /// run). The artifact is **borrowed**: this call clones its group
    /// plans, invokes every behaviour and capsule factory once and fills
    /// the engine from the artifact's dense link, probe and channel
    /// tables, so one compile serves any number of engines, each
    /// bit-identical to an independent elaboration. Attach a recorder
    /// with [`HybridEngine::set_recorder`] to capture the model's
    /// declared probe series.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidStep`] (URT116) if `config.step` is not
    /// positive and finite; [`CoreError::Elaborate`] (URT114) if a
    /// factory's behaviour disagrees with its declaration (the artifact's
    /// own validation instantiation passed, so only a factory that
    /// changes between calls can).
    pub fn from_compiled(
        compiled: &CompiledSystem,
        config: EngineConfig,
    ) -> Result<Self, CoreError> {
        let mut core = EnsembleEngine::from_variants(compiled, &[VariantSpec::new()], config)?;
        core.plain_series = true;
        Ok(HybridEngine { core })
    }

    /// Caps the batch size `K` the threaded scheduler may choose (1
    /// forces every macro step through the full coordinator rendezvous).
    /// Values below 1 are clamped to 1. Batching never changes results —
    /// only how often the coordinator and the solver threads synchronise.
    pub fn set_max_batch(&mut self, max_batch: u64) {
        self.core.max_batch = max_batch.max(1);
    }

    /// Attaches a recorder for probes, interning every registered probe's
    /// series so the per-step record path is lookup-free.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.core.set_recorder(recorder);
    }

    /// Current simulation time in seconds.
    pub fn time(&self) -> f64 {
        self.core.time()
    }

    /// Number of macro steps taken.
    pub fn step_count(&self) -> u64 {
        self.core.step_count()
    }

    /// The capsule controller (for injecting environment events and
    /// asserting on capsule state).
    pub fn controller(&self) -> &Controller {
        &self.core.controllers[0]
    }

    /// Mutable access to the capsule controller.
    pub fn controller_mut(&mut self) -> &mut Controller {
        &mut self.core.controllers[0]
    }

    /// Runs until simulation time `t_end`, in macro steps of
    /// `config.step`.
    ///
    /// # Errors
    ///
    /// Propagates solver, runtime and thread failures. After one, the
    /// engine is failed: [`HybridEngine::time`] and
    /// [`HybridEngine::step_count`] report the last macro step every
    /// group completed, and every later step call returns
    /// [`CoreError::Engine`] (`URT111`) naming the failed step.
    ///
    /// Under [`ThreadPolicy::DedicatedThreads`] the groups that did not
    /// fail may already have stepped, and recorded, the rest of the
    /// failed batch: their state and probe series run past
    /// `step_count()`. A 100-step run whose second group fails in step 51
    /// leaves 100 samples of the first group in the recorder, against 51
    /// under [`ThreadPolicy::CurrentThread`].
    pub fn run_until(&mut self, t_end: f64) -> Result<(), CoreError> {
        self.core.run_until(t_end)
    }

    /// The per-macro-step deadline budget the engine carries (from the
    /// compiled system's declared budget), nanoseconds per macro step —
    /// the default budget of [`HybridEngine::run_paced`].
    pub fn step_budget_ns(&self) -> Option<f64> {
        self.core.step_budget_ns()
    }

    /// Hard real-time mode: runs until simulation time `t_end` with each
    /// macro step *paced* against the wall clock and *measured* against a
    /// deadline budget — the deployment discipline of the paper (a
    /// controller is only correct if every cycle both releases on time
    /// and finishes inside its budget).
    ///
    /// Pacing couples simulation time to the wall clock at
    /// `config.rate` simulated seconds per wall second; the budget
    /// resolves [`PacedConfig::with_budget_ns`] > the compiled system's
    /// declared budget ([`HybridEngine::step_budget_ns`]) > the pacing
    /// period. Overruns follow the configured
    /// [`OverrunPolicy`](crate::pacer::OverrunPolicy). The loop itself is
    /// allocation-free in steady state: pacing, budget accounting and the
    /// latency histogram behind the returned [`PacedReport`] all run on
    /// inline fixed-size storage, on top of the engine's recycled-buffer
    /// step path.
    ///
    /// Under [`ThreadPolicy::DedicatedThreads`] pacing happens at the
    /// batch barrier — the only rendezvous the threaded schedule has —
    /// and a batch of `K` macro steps is measured as one cycle with the
    /// batch budget attributed as `K ×` the step budget (the recorded
    /// per-step sample is the batch time divided by `K`). Cap the batch
    /// with [`HybridEngine::set_max_batch`] to bound release jitter:
    /// `set_max_batch(1)` paces every macro step individually.
    ///
    /// Results are bit-identical to [`HybridEngine::run_until`] over the
    /// same span — pacing only inserts waits between steps, it never
    /// changes what a step computes.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidPacing`] (`URT117`) for a rate or budget that
    /// is not a positive, finite number, before anything runs (the
    /// engine stays usable); [`CoreError::DeadlineOverrun`] when an
    /// [`OverrunPolicy::SafetyStop`](crate::pacer::OverrunPolicy::SafetyStop)
    /// run exhausts its consecutive-miss tolerance, plus the usual
    /// solver, runtime and thread failures.
    pub fn run_paced(&mut self, t_end: f64, config: PacedConfig) -> Result<PacedReport, CoreError> {
        self.core.run_paced(t_end, config)
    }

    /// One macro step on the calling thread (exposed for fine-grained
    /// drivers and benchmarks).
    ///
    /// # Errors
    ///
    /// Propagates solver and runtime failures, which leave the engine
    /// failed (see [`HybridEngine::run_until`]).
    pub fn step_once(&mut self) -> Result<(), CoreError> {
        self.core.step_once()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::{elaborate, validate_gate, BehaviorRegistry};
    use crate::model::ModelBuilder;
    use crate::threading::ThreadPolicy;
    use urt_dataflow::flowtype::FlowType;
    use urt_dataflow::streamer::{FnStreamer, StreamerBehavior};
    use urt_ode::SolveError;
    use urt_umlrt::capsule::{Capsule, CapsuleContext, SmCapsule};
    use urt_umlrt::message::Message;
    use urt_umlrt::statemachine::StateMachineBuilder;
    use urt_umlrt::value::Value;

    fn engine(compiled: &CompiledSystem, policy: ThreadPolicy) -> HybridEngine {
        HybridEngine::from_compiled(compiled, EngineConfig { step: 0.01, policy }).unwrap()
    }

    /// One sine source probed as `series`.
    fn sine_model(series: &str) -> CompiledSystem {
        let mut b = ModelBuilder::new("sine");
        let s = b.streamer("sine", "none");
        b.streamer_out(s, "y", FlowType::scalar());
        b.probe(s, "y", series);
        let registry = BehaviorRegistry::new().streamer("sine", || {
            Box::new(FnStreamer::new("sine", 0, 1, |t: f64, _h, _u: &[f64], y: &mut [f64]| {
                y[0] = t.sin()
            }))
        });
        elaborate(&b.build(), registry, &validate_gate).unwrap()
    }

    /// A model with one capsule and no streamers: a pure event run.
    fn event_only_model() -> CompiledSystem {
        let mut b = ModelBuilder::new("events");
        b.capsule("idle");
        elaborate(&b.build(), BehaviorRegistry::new(), &validate_gate).unwrap()
    }

    /// One streamer `plant` SPort-linked (`ctl`) to one capsule `driver`
    /// (`plant`), with `plant.y` probed as `series` when it has an output.
    fn linked_model(
        streamer: impl Fn() -> Box<dyn StreamerBehavior> + Send + Sync + 'static,
        capsule: impl Fn() -> Box<dyn Capsule> + Send + Sync + 'static,
        series: Option<&str>,
    ) -> CompiledSystem {
        let mut b = ModelBuilder::new("linked");
        let s = b.streamer("plant", "none");
        let c = b.capsule("driver");
        if let Some(series) = series {
            b.streamer_out(s, "y", FlowType::scalar());
            b.probe(s, "y", series);
        }
        b.streamer_sport(s, "ctl", "Ctl");
        b.capsule_sport(c, "plant", "Ctl");
        b.sport_link(c, "plant", s, "ctl");
        let registry =
            BehaviorRegistry::new().streamer("plant", streamer).capsule("driver", capsule);
        elaborate(&b.build(), registry, &validate_gate).unwrap()
    }

    #[test]
    fn local_engine_advances_time() {
        let mut e = engine(&sine_model("sine"), ThreadPolicy::CurrentThread);
        e.run_until(0.1).unwrap();
        assert!((e.time() - 0.1).abs() < 1e-9);
        assert_eq!(e.step_count(), 10);
    }

    #[test]
    fn probes_record_series() {
        let mut e = engine(&sine_model("sine"), ThreadPolicy::CurrentThread);
        let rec = Recorder::new();
        e.set_recorder(rec.clone());
        e.run_until(1.0).unwrap();
        let series = rec.series("sine");
        assert_eq!(series.len(), 100);
        // The sine source emits sin(t_start_of_step).
        let (t_last, v_last) = *series.last().unwrap();
        assert!((v_last - (t_last - 0.01).sin()).abs() < 1e-9);
    }

    #[test]
    fn threaded_engine_matches_local() {
        let run = |policy| {
            let mut e = engine(&sine_model("s"), policy);
            let rec = Recorder::new();
            e.set_recorder(rec.clone());
            e.run_until(0.5).unwrap();
            rec.series("s")
        };
        let local = run(ThreadPolicy::CurrentThread);
        let threaded = run(ThreadPolicy::DedicatedThreads);
        assert_eq!(local.len(), threaded.len());
        for ((t1, v1), (t2, v2)) in local.iter().zip(&threaded) {
            assert!((t1 - t2).abs() < 1e-12);
            assert!((v1 - v2).abs() < 1e-12, "lockstep equivalence");
        }
    }

    #[test]
    fn sport_round_trip_capsule_to_streamer_and_back() {
        // A streamer that echoes every received signal value +1 as an
        // emitted `echo` signal.
        struct Echo {
            pending: Vec<f64>,
            emitted: Vec<(String, Message)>,
        }
        impl StreamerBehavior for Echo {
            fn name(&self) -> &str {
                "echo"
            }
            fn input_width(&self) -> usize {
                0
            }
            fn output_width(&self) -> usize {
                0
            }
            fn advance(
                &mut self,
                t: f64,
                _h: f64,
                _u: &[f64],
                _y: &mut [f64],
            ) -> Result<(), SolveError> {
                for v in self.pending.drain(..) {
                    self.emitted.push((
                        "ctl".to_owned(),
                        Message::new("echo", Value::Real(v + 1.0)).with_sent_at(t),
                    ));
                }
                Ok(())
            }
            fn on_signal(&mut self, msg: &Message) {
                if let Some(v) = msg.value().as_real() {
                    self.pending.push(v);
                }
            }
            fn take_emitted(&mut self) -> Vec<(String, Message)> {
                std::mem::take(&mut self.emitted)
            }
        }

        // Capsule: on start send `ping(41)`, count echo replies.
        let driver = || -> Box<dyn Capsule> {
            let sm = StateMachineBuilder::new("driver")
                .state("s")
                .initial("s", |_d: &mut Vec<f64>, ctx: &mut CapsuleContext| {
                    ctx.send("plant", "ping", Value::Real(41.0));
                })
                .internal("s", ("plant", "echo"), |d, m, _| {
                    d.push(m.value().as_real().unwrap_or(f64::NAN));
                })
                .build()
                .unwrap();
            Box::new(SmCapsule::new(sm, Vec::new()))
        };
        let echo = || -> Box<dyn StreamerBehavior> {
            Box::new(Echo { pending: Vec::new(), emitted: Vec::new() })
        };
        let compiled = linked_model(echo, driver, None);
        for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
            let mut e = engine(&compiled, policy);
            e.run_until(0.05).unwrap();
            // The reply arrived back in the capsule: verify by state data
            // via the controller debug path (delivered count >= 1).
            assert!(e.controller().delivered_count() >= 1, "{policy}: echo reply delivered");
        }
    }

    #[test]
    fn capsule_replies_pending_at_segment_end_survive_into_the_next_segment() {
        // Emits `tick` every step and reports how many `ack` replies it
        // has received so far as its output.
        struct Pinger {
            acks: u32,
            emitted: Vec<(String, Message)>,
        }
        impl StreamerBehavior for Pinger {
            fn name(&self) -> &str {
                "pinger"
            }
            fn input_width(&self) -> usize {
                0
            }
            fn output_width(&self) -> usize {
                1
            }
            fn advance(
                &mut self,
                t: f64,
                _h: f64,
                _u: &[f64],
                y: &mut [f64],
            ) -> Result<(), SolveError> {
                y[0] = f64::from(self.acks);
                self.emitted
                    .push(("ctl".to_owned(), Message::new("tick", Value::Empty).with_sent_at(t)));
                Ok(())
            }
            fn on_signal(&mut self, _msg: &Message) {
                self.acks += 1;
            }
            fn take_emitted(&mut self) -> Vec<(String, Message)> {
                std::mem::take(&mut self.emitted)
            }
        }

        // Regression for the threaded shutdown drain: the capsule's reply
        // to the *final* macro step of a `run_until` segment is queued
        // after the last rendezvous; the old teardown drained and
        // discarded it, so a follow-up segment started one ack short on
        // the threaded path only. Every ack must now survive the segment
        // boundary under both policies.
        let driver = || -> Box<dyn Capsule> {
            let sm = StateMachineBuilder::new("driver")
                .state("s")
                .initial("s", |_d: &mut (), _ctx: &mut CapsuleContext| {})
                .internal("s", ("plant", "tick"), |_d, _m, ctx| {
                    ctx.send("plant", "ack", Value::Empty);
                })
                .build()
                .unwrap();
            Box::new(SmCapsule::new(sm, ()))
        };
        let pinger =
            || -> Box<dyn StreamerBehavior> { Box::new(Pinger { acks: 0, emitted: Vec::new() }) };
        let compiled = linked_model(pinger, driver, Some("acks"));
        let run = |policy| {
            let mut e = engine(&compiled, policy);
            let rec = Recorder::new();
            e.set_recorder(rec.clone());
            // Two segments: the segment boundary is where the old drain
            // lost the in-flight reply.
            e.run_until(0.05).unwrap();
            e.run_until(0.10).unwrap();
            rec.series("acks")
        };
        let local = run(ThreadPolicy::CurrentThread);
        let threaded = run(ThreadPolicy::DedicatedThreads);
        assert_eq!(local.len(), 10);
        assert_eq!(threaded.len(), 10);
        // Step k sees the acks for ticks 0..k (each reply arrives at the
        // start of the next step) — including tick 4's reply, which was
        // in flight across the segment boundary.
        for (name, series) in [("local", &local), ("threaded", &threaded)] {
            for (k, (_, v)) in series.iter().enumerate() {
                assert_eq!(*v, k as f64, "{name}: acks visible at step {k}");
            }
        }
        for ((t1, v1), (t2, v2)) in local.iter().zip(&threaded) {
            assert_eq!(t1.to_bits(), t2.to_bits());
            assert_eq!(v1.to_bits(), v2.to_bits());
        }
    }

    #[test]
    fn from_compiled_refuses_bad_step_with_structured_error() {
        let compiled = sine_model("y");
        for step in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = HybridEngine::from_compiled(
                &compiled,
                EngineConfig { step, policy: ThreadPolicy::CurrentThread },
            )
            .expect_err("non-positive/non-finite step must be refused");
            assert!(matches!(err, CoreError::InvalidStep { .. }), "step {step}: {err}");
            assert!(err.to_string().starts_with("URT116: "), "step {step}: {err}");
        }
        // A valid step still builds from the same (borrowed) artifact.
        assert!(HybridEngine::from_compiled(&compiled, EngineConfig::default()).is_ok());
    }

    /// A non-feedthrough unit-delay block: output is the input latched at
    /// the step start (for cross-group consumers, the channel's front
    /// sample — i.e. the producer's previous step's output).
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
        fn advance(
            &mut self,
            _t: f64,
            _h: f64,
            u: &[f64],
            y: &mut [f64],
        ) -> Result<(), SolveError> {
            y[0] = u[0];
            Ok(())
        }
    }

    /// Non-feedthrough ramp source: y = 100 t at the step start.
    struct Ramp;
    impl StreamerBehavior for Ramp {
        fn name(&self) -> &str {
            "ramp"
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
        ) -> Result<(), SolveError> {
            y[0] = 100.0 * t;
            Ok(())
        }
    }

    /// A ramp on thread 0 feeding a witness on thread 1 (one lowered
    /// cross-group channel), probed as `src` and `wit`.
    fn cross_group_engine(policy: ThreadPolicy) -> (HybridEngine, Recorder) {
        let mut b = ModelBuilder::new("xg");
        let r = b.streamer("ramp", "none");
        let w = b.streamer("witness", "none");
        b.streamer_out(r, "y", FlowType::scalar());
        b.streamer_in(w, "u", FlowType::scalar());
        b.streamer_out(w, "y", FlowType::scalar());
        b.streamer_feedthrough(r, false);
        b.streamer_feedthrough(w, false);
        b.assign_thread(r, 0);
        b.assign_thread(w, 1);
        b.flow_between_streamers(r, "y", w, "u");
        b.probe(r, "y", "src");
        b.probe(w, "y", "wit");
        let registry = BehaviorRegistry::new()
            .streamer("ramp", || Box::new(Ramp))
            .streamer("witness", || Box::new(Witness));
        let compiled = elaborate(&b.build(), registry, &validate_gate).unwrap();
        assert_eq!(compiled.cross_flow_count(), 1);
        let mut e = engine(&compiled, policy);
        let rec = Recorder::new();
        e.set_recorder(rec.clone());
        (e, rec)
    }

    #[test]
    fn cross_group_channel_delays_exactly_one_step() {
        for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
            let (mut e, rec) = cross_group_engine(policy);
            e.run_until(0.1).unwrap();
            let src = rec.series("src");
            let wit = rec.series("wit");
            assert_eq!(src.len(), 10, "{policy}");
            assert_eq!(wit.len(), 10, "{policy}");
            // Step 0: the witness read the channel's initial zero buffer.
            assert_eq!(wit[0].1.to_bits(), 0.0f64.to_bits(), "{policy}: initial sample");
            // Step k: the witness carries the producer's step k-1 output.
            for k in 1..wit.len() {
                assert_eq!(
                    wit[k].1.to_bits(),
                    src[k - 1].1.to_bits(),
                    "{policy}: one-step delay at sample {k}"
                );
            }
        }
    }

    #[test]
    fn cross_group_channel_is_policy_and_batch_invariant() {
        let run = |policy, max_batch| {
            let (mut e, rec) = cross_group_engine(policy);
            e.set_max_batch(max_batch);
            e.run_until(0.25).unwrap();
            (rec.series("src"), rec.series("wit"))
        };
        let local = run(ThreadPolicy::CurrentThread, 1);
        for max_batch in [1, 7, 4096] {
            let threaded = run(ThreadPolicy::DedicatedThreads, max_batch);
            for (a, b) in [(&local.0, &threaded.0), (&local.1, &threaded.1)] {
                assert_eq!(a.len(), b.len(), "max_batch={max_batch}");
                for ((t1, v1), (t2, v2)) in a.iter().zip(b) {
                    assert_eq!(t1.to_bits(), t2.to_bits(), "max_batch={max_batch}: time");
                    assert_eq!(v1.to_bits(), v2.to_bits(), "max_batch={max_batch}: value");
                }
            }
        }
    }

    #[test]
    fn set_max_batch_zero_clamps_to_one() {
        // Regression: `set_max_batch(0)` must behave as batch size 1, not
        // hang the threaded scheduler in a zero-progress loop (`remaining`
        // would never decrease) — the cap is clamped to 1.
        let run = |policy, max_batch| {
            let (mut e, rec) = cross_group_engine(policy);
            e.set_max_batch(max_batch);
            e.run_until(0.1).unwrap();
            (rec.series("src"), rec.series("wit"))
        };
        let reference = run(ThreadPolicy::DedicatedThreads, 1);
        let clamped = run(ThreadPolicy::DedicatedThreads, 0);
        for (a, b) in [(&reference.0, &clamped.0), (&reference.1, &clamped.1)] {
            assert_eq!(a.len(), b.len());
            assert_eq!(a.len(), 10, "all ten macro steps ran");
            for ((t1, v1), (t2, v2)) in a.iter().zip(b.iter()) {
                assert_eq!(t1.to_bits(), t2.to_bits());
                assert_eq!(v1.to_bits(), v2.to_bits());
            }
        }
    }

    #[test]
    fn threaded_engine_with_no_groups_is_pure_event_run() {
        let mut e = engine(&event_only_model(), ThreadPolicy::DedicatedThreads);
        e.run_until(0.05).unwrap();
        assert!((e.time() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn run_paced_matches_run_until_bit_identically() {
        use crate::pacer::PacedConfig;
        // Pacing only inserts waits; at an extreme rate the waits vanish
        // and the computed series must be bit-identical to a free run.
        let free = {
            let (mut e, rec) = cross_group_engine(ThreadPolicy::CurrentThread);
            e.run_until(0.1).unwrap();
            (rec.series("src"), rec.series("wit"))
        };
        for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
            let (mut e, rec) = cross_group_engine(policy);
            let report =
                e.run_paced(0.1, PacedConfig::new().with_rate(1e9).with_budget_ns(1e12)).unwrap();
            assert_eq!(report.steps, 10, "{policy}");
            assert_eq!(report.misses, 0, "{policy}: generous budget never misses");
            assert!(report.samples >= 1 && report.samples <= 10, "{policy}");
            assert!(report.p50_ns <= report.p99_ns && report.p99_ns <= report.worst_ns.max(1.0));
            for (name, a) in [("src", &free.0), ("wit", &free.1)] {
                let b = rec.series(name);
                assert_eq!(a.len(), b.len(), "{policy}/{name}");
                for ((t1, v1), (t2, v2)) in a.iter().zip(&b) {
                    assert_eq!(t1.to_bits(), t2.to_bits(), "{policy}/{name}: time");
                    assert_eq!(v1.to_bits(), v2.to_bits(), "{policy}/{name}: value");
                }
            }
        }
    }

    #[test]
    fn run_paced_threaded_paces_at_batch_barriers() {
        use crate::pacer::PacedConfig;
        // Without SPort links the threaded scheduler batches; pacing then
        // happens per batch and the report says so. With max_batch capped
        // to 1 every macro step becomes its own cycle again.
        let compiled = sine_model("y");
        let mut e = engine(&compiled, ThreadPolicy::DedicatedThreads);
        let report = e.run_paced(0.1, PacedConfig::new().with_rate(1e9)).unwrap();
        assert_eq!(report.steps, 10);
        assert_eq!(report.samples, 1, "one 10-step batch");
        assert!(report.batched);

        let mut e = engine(&compiled, ThreadPolicy::DedicatedThreads);
        e.set_max_batch(1);
        let report = e.run_paced(0.1, PacedConfig::new().with_rate(1e9)).unwrap();
        assert_eq!((report.steps, report.samples), (10, 10));
        assert!(!report.batched);
    }

    #[test]
    fn run_paced_with_no_groups_paces_the_event_loop() {
        use crate::pacer::PacedConfig;
        let mut e = engine(&event_only_model(), ThreadPolicy::DedicatedThreads);
        let report = e.run_paced(0.05, PacedConfig::new().with_rate(1e9)).unwrap();
        assert_eq!(report.steps, 5);
        assert!((e.time() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn run_paced_actually_paces_against_the_wall_clock() {
        use crate::pacer::PacedConfig;
        // 10 steps of 10 ms sim at 10x real time = at least 10 ms of wall
        // time; a free run finishes in microseconds.
        let mut e = engine(&sine_model("y"), ThreadPolicy::CurrentThread);
        let start = std::time::Instant::now();
        let report = e.run_paced(0.1, PacedConfig::new().with_rate(10.0)).unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_millis(9), "paced to the clock");
        assert_eq!(report.steps, 10);
        assert_eq!(report.rate, 10.0);
    }
}
