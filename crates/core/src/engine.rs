//! The hybrid co-simulation engine: event-driven capsules and
//! time-continuous streamers on separate threads, bridged by channels.
//!
//! "During implementation, capsules and streamers are assigned to
//! different threads. Communication between capsules and streamers is
//! realized by communication mechanism of threads." Here the capsule side
//! is a [`Controller`]; each streamer *group* is a [`StreamerNetwork`]
//! which, under [`ThreadPolicy::DedicatedThreads`], runs on its own solver
//! thread synchronised once per macro step. SPort links carry signal
//! messages across the boundary in both directions over `std::sync::mpsc`
//! channels.
//!
//! [`HybridEngine`] is the `K = 1` case of the execution core in
//! [`crate::ensemble`]: it owns no network and no run loop of its own.
//! [`HybridEngine::add_group`] consumes each network into its step plan
//! and behaviours; every macro step, threaded batch and paced cycle runs
//! on [`EnsembleEngine`]'s loop with one instance, recording probes under
//! their plain series names.

use crate::elaborate::CompiledSystem;
use crate::ensemble::{EnsembleEngine, VariantSpec};
use crate::error::CoreError;
use crate::pacer::{PacedConfig, PacedReport};
use crate::recorder::Recorder;
use crate::threading::ThreadPolicy;
use urt_dataflow::graph::{NodeId, StreamerNetwork};
use urt_umlrt::controller::Controller;

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Macro step in seconds: the synchronisation period between the
    /// capsule thread and the solver threads. Must be positive and
    /// finite: the compiled-path constructors
    /// ([`HybridEngine::from_compiled`], the ensemble constructors)
    /// refuse anything else with [`CoreError::InvalidStep`] (URT116),
    /// while the hand-wired [`HybridEngine::new`] keeps its documented
    /// panic (API misuse at the lowest layer).
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
/// Typical lifecycle: construct, [`HybridEngine::add_group`] /
/// [`HybridEngine::link_sport`] / [`HybridEngine::add_probe`], then
/// [`HybridEngine::run_until`] repeatedly.
#[derive(Debug)]
pub struct HybridEngine {
    core: EnsembleEngine,
}

impl HybridEngine {
    /// Creates an engine around a capsule controller.
    ///
    /// # Panics
    ///
    /// Panics if `config.step` is not positive and finite.
    pub fn new(controller: Controller, config: EngineConfig) -> Self {
        assert!(config.step.is_finite() && config.step > 0.0, "macro step must be positive");
        let mut core = EnsembleEngine::with_controllers(vec![controller], config);
        core.plain_series = true;
        HybridEngine { core }
    }

    /// Adds a streamer group (one candidate solver thread), consuming the
    /// network into its step plan and behaviours. Returns the group
    /// index.
    ///
    /// To receive cross-group flows ([`HybridEngine::link_flow`]), export
    /// the consumer inputs (`StreamerNetwork::export_input`) *before*
    /// adding the group — validation treats exported inputs as driven.
    ///
    /// # Errors
    ///
    /// Propagates network validation errors.
    pub fn add_group(&mut self, network: StreamerNetwork) -> Result<usize, CoreError> {
        let (plan, behaviours) = network.into_plan()?;
        Ok(self.core.push_group(plan, behaviours))
    }

    /// Builds an engine from a compiled [`CompiledSystem`] artifact —
    /// the model-first path (`ModelBuilder` → `compile` → instantiate →
    /// run). The artifact is **borrowed**: this call stamps out a fresh
    /// [`SystemInstance`](crate::elaborate::SystemInstance) (behaviour
    /// factories re-invoked, networks re-wired), so one compile serves
    /// any number of engines, each bit-identical to an independent
    /// elaboration. SPort links, probes and cross-group channels arrive
    /// fully resolved; attach a recorder with
    /// [`HybridEngine::set_recorder`] to capture the model's declared
    /// probe series.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidStep`] (URT116) if `config.step` is not
    /// positive and finite; otherwise propagates instantiation and
    /// wiring errors (none are expected from a system produced by
    /// `elaborate`, which validates one instantiation at compile time).
    pub fn from_compiled(
        compiled: &CompiledSystem,
        config: EngineConfig,
    ) -> Result<Self, CoreError> {
        let mut core = EnsembleEngine::from_variants(compiled, &[VariantSpec::new()], config)?;
        core.plain_series = true;
        Ok(HybridEngine { core })
    }

    /// Connects a producer output DPort in one group to a consumer input
    /// DPort in *another* group through a double-buffered channel.
    ///
    /// Unlike an in-network flow (zero-delay, schedule-ordered), a
    /// cross-group channel carries a deterministic **one-macro-step
    /// delay**: during step `k` the consumer reads the sample the
    /// producer wrote at the end of step `k - 1` (all-zero lanes at step
    /// 0). The delay is what lets the two groups integrate concurrently —
    /// it is identical under both thread policies and independent of the
    /// threaded batch size.
    ///
    /// The consumer input must have been exported
    /// (`StreamerNetwork::export_input`) before its group was added; the
    /// elaboration pipeline does this automatically for model flows whose
    /// endpoints carry distinct `assign_thread` declarations.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Engine`] for bad group indices, endpoints in the
    ///   same group, a direct-feedthrough consumer (the unit delay would
    ///   break its same-step input dependency — lint URT207 catches this
    ///   at model level), an unexported consumer input, or a consumer
    ///   input already fed by another channel.
    /// * [`CoreError::Flow`] for unknown nodes/ports and flow-type subset
    ///   violations (the paper's connection rule, same as in-network
    ///   flows).
    pub fn link_flow(
        &mut self,
        from: (usize, NodeId, &str),
        to: (usize, NodeId, &str),
    ) -> Result<(), CoreError> {
        self.core.link_flow(from, to)
    }

    /// Caps the batch size `K` the threaded scheduler may choose (1
    /// forces every macro step through the full coordinator rendezvous).
    /// Values below 1 are clamped to 1. Batching never changes results —
    /// only how often the coordinator and the solver threads synchronise.
    pub fn set_max_batch(&mut self, max_batch: u64) {
        self.core.max_batch = max_batch.max(1);
    }

    /// Bridges a capsule SPort to a streamer SPort: messages the capsule
    /// sends on `capsule_port` are delivered to the streamer's signal
    /// handler, and signals the streamer emits on `sport` are injected
    /// into the capsule on the same port.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Engine`] for a bad group index.
    /// * [`CoreError::DuplicateSportLink`] if `(group, node, sport)` is
    ///   already linked — a second link would silently shadow the first.
    /// * Runtime errors from the controller for bad capsule indices.
    pub fn link_sport(
        &mut self,
        group: usize,
        node: NodeId,
        sport: &str,
        capsule: usize,
        capsule_port: &str,
    ) -> Result<(), CoreError> {
        self.core.link_sport(group, node, sport, capsule, capsule_port)
    }

    /// Records the first lane of `(group, node, port)` into the recorder
    /// series `series` after every macro step. The port is resolved to a
    /// dense lane here, once — recording never looks names up again.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Engine`] for a bad group index and
    /// [`CoreError::Flow`] for an unknown node or output port.
    pub fn add_probe(
        &mut self,
        group: usize,
        node: NodeId,
        port: &str,
        series: &str,
    ) -> Result<(), CoreError> {
        self.core.add_probe(group, node, port, series)
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
    /// Propagates solver, runtime and thread failures.
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
    /// [`CoreError::DeadlineOverrun`] when an
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
    /// Propagates solver and runtime failures.
    pub fn step_once(&mut self) -> Result<(), CoreError> {
        self.core.step_once()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threading::ThreadPolicy;
    use urt_dataflow::flowtype::FlowType;
    use urt_dataflow::streamer::FnStreamer;
    use urt_umlrt::capsule::{CapsuleContext, SmCapsule};
    use urt_umlrt::message::Message;
    use urt_umlrt::statemachine::StateMachineBuilder;
    use urt_umlrt::value::Value;

    fn empty_controller() -> Controller {
        let mut c = Controller::new("events");
        let sm = StateMachineBuilder::new("idle")
            .state("s")
            .initial("s", |_d: &mut (), _ctx: &mut CapsuleContext| {})
            .build()
            .unwrap();
        c.add_capsule(Box::new(SmCapsule::new(sm, ())));
        c
    }

    fn sine_net(name: &str) -> (StreamerNetwork, NodeId) {
        let mut net = StreamerNetwork::new(name);
        let n = net
            .add_streamer(
                FnStreamer::new("sine", 0, 1, |t: f64, _h, _u: &[f64], y: &mut [f64]| {
                    y[0] = t.sin()
                }),
                &[],
                &[("y", FlowType::scalar())],
            )
            .unwrap();
        (net, n)
    }

    #[test]
    fn local_engine_advances_time() {
        let (net, _) = sine_net("p");
        let mut e = HybridEngine::new(
            empty_controller(),
            EngineConfig { step: 0.01, policy: ThreadPolicy::CurrentThread },
        );
        e.add_group(net).unwrap();
        e.run_until(0.1).unwrap();
        assert!((e.time() - 0.1).abs() < 1e-9);
        assert_eq!(e.step_count(), 10);
    }

    #[test]
    fn probes_record_series() {
        let (net, n) = sine_net("p");
        let mut e = HybridEngine::new(
            empty_controller(),
            EngineConfig { step: 0.01, policy: ThreadPolicy::CurrentThread },
        );
        let g = e.add_group(net).unwrap();
        let rec = Recorder::new();
        e.set_recorder(rec.clone());
        e.add_probe(g, n, "y", "sine").unwrap();
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
            let (net, n) = sine_net("p");
            let mut e = HybridEngine::new(empty_controller(), EngineConfig { step: 0.01, policy });
            let g = e.add_group(net).unwrap();
            let rec = Recorder::new();
            e.set_recorder(rec.clone());
            e.add_probe(g, n, "y", "s").unwrap();
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
        use urt_dataflow::streamer::StreamerBehavior;
        use urt_ode::SolveError;

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

        for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
            let mut net = StreamerNetwork::new("p");
            let node = net
                .add_streamer(Echo { pending: Vec::new(), emitted: Vec::new() }, &[], &[])
                .unwrap();

            // Capsule: on start send `ping(41)`, count echo replies.
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
            let mut controller = Controller::new("events");
            let cap = controller.add_capsule(Box::new(SmCapsule::new(sm, Vec::new())));

            let mut e = HybridEngine::new(controller, EngineConfig { step: 0.01, policy });
            let g = e.add_group(net).unwrap();
            e.link_sport(g, node, "ctl", cap, "plant").unwrap();
            e.run_until(0.05).unwrap();
            // The reply arrived back in the capsule: verify by state data
            // via the controller debug path (delivered count >= 1).
            assert!(e.controller().delivered_count() >= 1, "{policy}: echo reply delivered");
        }
    }

    #[test]
    fn capsule_replies_pending_at_segment_end_survive_into_the_next_segment() {
        use urt_dataflow::streamer::StreamerBehavior;
        use urt_ode::SolveError;

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
        let run = |policy| {
            let sm = StateMachineBuilder::new("driver")
                .state("s")
                .initial("s", |_d: &mut (), _ctx: &mut CapsuleContext| {})
                .internal("s", ("plant", "tick"), |_d, _m, ctx| {
                    ctx.send("plant", "ack", Value::Empty);
                })
                .build()
                .unwrap();
            let mut controller = Controller::new("events");
            let cap = controller.add_capsule(Box::new(SmCapsule::new(sm, ())));
            let mut net = StreamerNetwork::new("p");
            let node = net
                .add_streamer(
                    Pinger { acks: 0, emitted: Vec::new() },
                    &[],
                    &[("y", FlowType::scalar())],
                )
                .unwrap();
            let mut e = HybridEngine::new(controller, EngineConfig { step: 0.01, policy });
            let g = e.add_group(net).unwrap();
            e.link_sport(g, node, "ctl", cap, "plant").unwrap();
            let rec = Recorder::new();
            e.set_recorder(rec.clone());
            e.add_probe(g, node, "y", "acks").unwrap();
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
    fn declared_sports_are_checked_at_link_time() {
        use urt_dataflow::port::SPortSpec;
        use urt_umlrt::protocol::Protocol;

        let (mut net, n) = sine_net("p");
        net.add_sport(n, SPortSpec::new("ctl", Protocol::new("Ctl"))).unwrap();
        let mut e = HybridEngine::new(empty_controller(), EngineConfig::default());
        let g = e.add_group(net).unwrap();
        // Wrong sport name: rejected because the node declares its sports.
        assert!(matches!(e.link_sport(g, n, "ghost", 0, "plant"), Err(CoreError::Engine { .. })));
        // Declared name: accepted.
        e.link_sport(g, n, "ctl", 0, "plant").unwrap();
    }

    #[test]
    fn duplicate_sport_link_is_refused() {
        // Regression: the old index kept the first link per key and
        // silently dropped the second — now it is a stable-coded error.
        let (net, n) = sine_net("p");
        let mut e = HybridEngine::new(empty_controller(), EngineConfig::default());
        let g = e.add_group(net).unwrap();
        e.link_sport(g, n, "ctl", 0, "plant").unwrap();
        let err = e.link_sport(g, n, "ctl", 0, "other").unwrap_err();
        assert!(matches!(err, CoreError::DuplicateSportLink { .. }));
        assert!(err.to_string().starts_with("URT113: "), "stable code: {err}");
        // A different sport on the same node is still fine.
        e.link_sport(g, n, "aux", 0, "plant").unwrap();
    }

    #[test]
    fn engine_errors_on_bad_indices() {
        let mut e = HybridEngine::new(empty_controller(), EngineConfig::default());
        assert!(matches!(
            e.add_probe(0, NodeId::from_index(0), "y", "s"),
            Err(CoreError::Engine { .. })
        ));
        assert!(matches!(
            e.link_sport(3, NodeId::from_index(0), "s", 0, "p"),
            Err(CoreError::Engine { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "macro step must be positive")]
    fn config_validates_step() {
        let _ = HybridEngine::new(
            empty_controller(),
            EngineConfig { step: 0.0, policy: ThreadPolicy::CurrentThread },
        );
    }

    #[test]
    fn from_compiled_refuses_bad_step_with_structured_error() {
        use crate::elaborate::{elaborate, validate_gate, BehaviorRegistry};
        use crate::model::ModelBuilder;
        let mut b = ModelBuilder::new("m");
        let s = b.streamer("wave", "none");
        b.streamer_out(s, "y", FlowType::scalar());
        let registry = BehaviorRegistry::new().streamer("wave", || {
            Box::new(FnStreamer::new("wave", 0, 1, |t: f64, _h, _u: &[f64], y: &mut [f64]| {
                y[0] = t
            }))
        });
        let compiled = elaborate(&b.build(), registry, &validate_gate).unwrap();
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
    impl urt_dataflow::streamer::StreamerBehavior for Witness {
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
        ) -> Result<(), urt_ode::SolveError> {
            y[0] = u[0];
            Ok(())
        }
    }

    /// Non-feedthrough ramp source: y = 100 t at the step start.
    struct Ramp;
    impl urt_dataflow::streamer::StreamerBehavior for Ramp {
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
        ) -> Result<(), urt_ode::SolveError> {
            y[0] = 100.0 * t;
            Ok(())
        }
    }

    fn cross_group_engine(policy: ThreadPolicy) -> (HybridEngine, Recorder) {
        let mut producer = StreamerNetwork::new("producer");
        let src = producer.add_streamer(Ramp, &[], &[("y", FlowType::scalar())]).unwrap();
        let mut consumer = StreamerNetwork::new("consumer");
        let wit = consumer
            .add_streamer(Witness, &[("u", FlowType::scalar())], &[("y", FlowType::scalar())])
            .unwrap();
        consumer.export_input(wit, "u").unwrap();
        let mut e = HybridEngine::new(empty_controller(), EngineConfig { step: 0.01, policy });
        let gp = e.add_group(producer).unwrap();
        let gc = e.add_group(consumer).unwrap();
        e.link_flow((gp, src, "y"), (gc, wit, "y")).unwrap_err(); // wrong port direction
        e.link_flow((gp, src, "y"), (gc, wit, "u")).unwrap();
        let rec = Recorder::new();
        e.set_recorder(rec.clone());
        e.add_probe(gp, src, "y", "src").unwrap();
        e.add_probe(gc, wit, "y", "wit").unwrap();
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
    fn link_flow_validates_its_endpoints() {
        let mut producer = StreamerNetwork::new("producer");
        let src = producer.add_streamer(Ramp, &[], &[("y", FlowType::scalar())]).unwrap();
        let mut consumer = StreamerNetwork::new("consumer");
        let wit = consumer
            .add_streamer(Witness, &[("u", FlowType::scalar())], &[("y", FlowType::scalar())])
            .unwrap();
        consumer.export_input(wit, "u").unwrap();
        // A feedthrough consumer in a third group.
        let mut ft_net = StreamerNetwork::new("ft");
        let gain = ft_net
            .add_streamer(
                FnStreamer::new("gain", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| y[0] = u[0]),
                &[("u", FlowType::scalar())],
                &[("y", FlowType::scalar())],
            )
            .unwrap();
        ft_net.export_input(gain, "u").unwrap();
        // An unexported consumer in a fourth group (input driven in-network
        // so the group still validates).
        let mut closed = StreamerNetwork::new("closed");
        let csrc = closed.add_streamer(Ramp, &[], &[("y", FlowType::scalar())]).unwrap();
        let cwit = closed
            .add_streamer(Witness, &[("u", FlowType::scalar())], &[("y", FlowType::scalar())])
            .unwrap();
        closed.flow((csrc, "y"), (cwit, "u")).unwrap();

        let mut e = HybridEngine::new(empty_controller(), EngineConfig::default());
        let gp = e.add_group(producer).unwrap();
        let gc = e.add_group(consumer).unwrap();
        let gf = e.add_group(ft_net).unwrap();
        let gx = e.add_group(closed).unwrap();

        // Bad group index.
        assert!(matches!(
            e.link_flow((9, src, "y"), (gc, wit, "u")),
            Err(CoreError::Engine { .. })
        ));
        // Same group.
        let err = e.link_flow((gc, wit, "y"), (gc, wit, "u")).unwrap_err();
        assert!(err.to_string().contains("in-network"), "{err}");
        // Feedthrough consumer.
        let err = e.link_flow((gp, src, "y"), (gf, gain, "u")).unwrap_err();
        assert!(err.to_string().contains("feedthrough"), "{err}");
        // Unexported consumer input.
        let err = e.link_flow((gp, src, "y"), (gx, cwit, "u")).unwrap_err();
        assert!(err.to_string().contains("not exported"), "{err}");
        // Valid link, then a second channel into the same input.
        e.link_flow((gp, src, "y"), (gc, wit, "u")).unwrap();
        let err = e.link_flow((gx, csrc, "y"), (gc, wit, "u")).unwrap_err();
        assert!(err.to_string().contains("already fed"), "{err}");
    }

    #[test]
    fn link_flow_enforces_the_subset_rule() {
        use urt_dataflow::flowtype::Unit;
        let mut producer = StreamerNetwork::new("producer");
        let src =
            producer.add_streamer(Ramp, &[], &[("y", FlowType::with_unit(Unit::Kelvin))]).unwrap();
        let mut consumer = StreamerNetwork::new("consumer");
        let wit = consumer
            .add_streamer(
                Witness,
                &[("u", FlowType::with_unit(Unit::Meter))],
                &[("y", FlowType::scalar())],
            )
            .unwrap();
        consumer.export_input(wit, "u").unwrap();
        let mut e = HybridEngine::new(empty_controller(), EngineConfig::default());
        let gp = e.add_group(producer).unwrap();
        let gc = e.add_group(consumer).unwrap();
        let err = e.link_flow((gp, src, "y"), (gc, wit, "u")).unwrap_err();
        assert!(
            matches!(err, CoreError::Flow(urt_dataflow::FlowError::TypeMismatch { .. })),
            "{err}"
        );
    }

    #[test]
    fn threaded_engine_with_no_groups_is_pure_event_run() {
        let mut e = HybridEngine::new(
            empty_controller(),
            EngineConfig { step: 0.01, policy: ThreadPolicy::DedicatedThreads },
        );
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
        let (net, _) = sine_net("p");
        let mut e = HybridEngine::new(
            empty_controller(),
            EngineConfig { step: 0.01, policy: ThreadPolicy::DedicatedThreads },
        );
        e.add_group(net).unwrap();
        let report = e.run_paced(0.1, PacedConfig::new().with_rate(1e9)).unwrap();
        assert_eq!(report.steps, 10);
        assert_eq!(report.samples, 1, "one 10-step batch");
        assert!(report.batched);

        let (net, _) = sine_net("p");
        let mut e = HybridEngine::new(
            empty_controller(),
            EngineConfig { step: 0.01, policy: ThreadPolicy::DedicatedThreads },
        );
        e.add_group(net).unwrap();
        e.set_max_batch(1);
        let report = e.run_paced(0.1, PacedConfig::new().with_rate(1e9)).unwrap();
        assert_eq!((report.steps, report.samples), (10, 10));
        assert!(!report.batched);
    }

    #[test]
    fn run_paced_with_no_groups_paces_the_event_loop() {
        use crate::pacer::PacedConfig;
        let mut e = HybridEngine::new(
            empty_controller(),
            EngineConfig { step: 0.01, policy: ThreadPolicy::DedicatedThreads },
        );
        let report = e.run_paced(0.05, PacedConfig::new().with_rate(1e9)).unwrap();
        assert_eq!(report.steps, 5);
        assert!((e.time() - 0.05).abs() < 1e-9);
    }

    #[cfg(feature = "timing-tests")]
    #[test]
    fn run_paced_actually_paces_against_the_wall_clock() {
        use crate::pacer::PacedConfig;
        // 10 steps of 10 ms sim at 10x real time = at least 10 ms of wall
        // time; a free run finishes in microseconds.
        let (net, _) = sine_net("p");
        let mut e = HybridEngine::new(
            empty_controller(),
            EngineConfig { step: 0.01, policy: ThreadPolicy::CurrentThread },
        );
        e.add_group(net).unwrap();
        let start = std::time::Instant::now();
        let report = e.run_paced(0.1, PacedConfig::new().with_rate(10.0)).unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_millis(9), "paced to the clock");
        assert_eq!(report.steps, 10);
        assert_eq!(report.rate, 10.0);
    }
}
