//! Artifact/instance equivalence and the compile cache.
//!
//! The artifact/instance split's contract, pinned bitwise:
//!
//! * One compiled artifact instantiated twice must produce two runs that
//!   are bit-identical to each other **and** to a run from an
//!   independent elaboration of the same model — under both threading
//!   policies, free-running and paced. Instantiation replays the same
//!   lowering plan with freshly manufactured behaviours, so there is no
//!   state to leak between instances.
//! * `SystemCache` hits hand back the *same* `Arc`-shared artifact
//!   (pointer equality), count hits/misses, and never cache errors.
//! * The model content hash — the cache key — is stable across
//!   processes (the fig2 catalogue constant below was computed in a
//!   separate process) and sensitive to any model edit. It is streamed
//!   into the hasher as the model is rendered, and must equal the hash
//!   of the collected rendering.
//! * Compile runs each streamer factory once and builds each machine
//!   spec once, refusing the ones that cannot be realised, but runs no
//!   capsule factory: those first run at instantiation, once per
//!   engine instance.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use unified_rt::analysis::{compile, examples, stubs};
use unified_rt::core::cache::{fnv1a_64, SystemCache};
use unified_rt::core::elaborate::{elaborate, BehaviorRegistry, CompiledSystem};
use unified_rt::core::engine::{EngineConfig, HybridEngine};
use unified_rt::core::ensemble::EnsembleEngine;
use unified_rt::core::error::CoreError;
use unified_rt::core::model::{ModelBuilder, UnifiedModel};
use unified_rt::core::pacer::PacedConfig;
use unified_rt::core::recorder::Recorder;
use unified_rt::core::threading::ThreadPolicy;
use unified_rt::dataflow::flowtype::FlowType;
use unified_rt::dataflow::streamer::StreamerBehavior;
use unified_rt::ode::SolveError;
use unified_rt::umlrt::capsule::{Capsule, CapsuleContext};
use unified_rt::umlrt::message::Message;
use unified_rt::umlrt::statemachine::SmSpec;

/// The content hash of the fig2 catalogue model, computed by a separate
/// process (`urt-lint --hash fig2`). If this assertion ever fails the
/// hash is not stable across processes and every persisted cache key in
/// the wild is invalidated — treat a change here as a breaking one.
const FIG2_CONTENT_HASH: u64 = 0x8ba1_6dac_1589_029c;

/// Non-feedthrough sine source (`FnStreamer` always reports
/// feedthrough, and the model declares these streamers without it).
struct Src;

impl StreamerBehavior for Src {
    fn name(&self) -> &str {
        "src"
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

/// A stateful first-order lag: carries state *across* macro steps, so a
/// leaked (already-run) behaviour in a second instantiation would
/// diverge from a fresh one on the first sample.
struct Lag {
    state: f64,
}

impl StreamerBehavior for Lag {
    fn name(&self) -> &str {
        "lag"
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

/// Source feeding a stateful lag across a thread boundary (so the
/// dedicated-threads policy exercises a real cross-group channel), with
/// probes on both.
fn two_thread_model() -> UnifiedModel {
    two_thread_builder().build()
}

fn two_thread_builder() -> ModelBuilder {
    let mut b = ModelBuilder::new("artifact-cache");
    let src = b.streamer("src", "none");
    let lag = b.streamer("lag", "none");
    b.streamer_out(src, "y", FlowType::scalar());
    b.streamer_in(lag, "u", FlowType::scalar());
    b.streamer_out(lag, "y", FlowType::scalar());
    b.streamer_feedthrough(src, false);
    b.streamer_feedthrough(lag, false);
    b.assign_thread(src, 0);
    b.assign_thread(lag, 1);
    b.flow_between_streamers(src, "y", lag, "u");
    b.probe(src, "y", "src");
    b.probe(lag, "y", "lag");
    b
}

fn registry() -> BehaviorRegistry {
    BehaviorRegistry::new()
        .streamer("src", || Box::new(Src))
        .streamer("lag", || Box::new(Lag { state: 0.25 }))
}

fn run_free(compiled: &CompiledSystem, policy: ThreadPolicy) -> Recorder {
    let mut engine =
        HybridEngine::from_compiled(compiled, EngineConfig { step: 0.01, policy }).expect("engine");
    let rec = Recorder::new();
    engine.set_recorder(rec.clone());
    engine.run_until(0.1).expect("run");
    rec
}

fn run_paced(compiled: &CompiledSystem, policy: ThreadPolicy) -> Recorder {
    let mut engine =
        HybridEngine::from_compiled(compiled, EngineConfig { step: 0.01, policy }).expect("engine");
    let rec = Recorder::new();
    engine.set_recorder(rec.clone());
    // Effectively unpaced pacing: astronomic rate, generous budget — the
    // paced loop's bookkeeping runs, the trajectory must not notice.
    let report =
        engine.run_paced(0.1, PacedConfig::new().with_rate(1e9).with_budget_ns(1e12)).expect("run");
    assert_eq!(report.misses, 0, "nothing can miss a 1000 s budget");
    rec
}

fn assert_series_bit_identical(a: &Recorder, b: &Recorder, what: &str) {
    for series in ["src", "lag"] {
        let (sa, sb) = (a.series(series), b.series(series));
        assert!(!sa.is_empty(), "{what}: `{series}` recorded");
        assert_eq!(sa.len(), sb.len(), "{what}: `{series}` lengths");
        for (k, ((t1, v1), (t2, v2))) in sa.iter().zip(&sb).enumerate() {
            assert_eq!(t1.to_bits(), t2.to_bits(), "{what}: `{series}` sample {k} time");
            assert_eq!(v1.to_bits(), v2.to_bits(), "{what}: `{series}` sample {k} value");
        }
    }
}

#[test]
fn two_instances_of_one_artifact_run_bit_identical() {
    let model = two_thread_model();
    let compiled = compile(&model, registry()).expect("compiles");
    let independent = compile(&model, registry()).expect("recompiles");
    for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
        let first = run_free(&compiled, policy);
        let second = run_free(&compiled, policy);
        assert_series_bit_identical(&first, &second, &format!("{policy}: instance 1 vs 2"));
        // ...and both match an independent elaboration of the model.
        let fresh = run_free(&independent, policy);
        assert_series_bit_identical(&first, &fresh, &format!("{policy}: instance vs recompile"));
    }
}

#[test]
fn paced_instances_match_free_running_ones() {
    let compiled = compile(&two_thread_model(), registry()).expect("compiles");
    for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
        let free = run_free(&compiled, policy);
        let paced_a = run_paced(&compiled, policy);
        let paced_b = run_paced(&compiled, policy);
        assert_series_bit_identical(&paced_a, &paced_b, &format!("{policy}: paced 1 vs 2"));
        assert_series_bit_identical(&free, &paced_a, &format!("{policy}: free vs paced"));
    }
}

#[test]
fn cache_hits_share_one_artifact() {
    let cache = SystemCache::new();
    let model = two_thread_model();
    let first = cache.get_or_compile(&model, |m| compile(m, registry())).expect("miss compiles");
    let second = cache.get_or_compile(&model, |m| compile(m, registry())).expect("hit");
    assert!(Arc::ptr_eq(&first, &second), "a hit must return the same Arc");
    assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));

    // The shared artifact still instantiates — and an engine built from
    // the cached copy runs exactly like one from the original.
    let a = run_free(&first, ThreadPolicy::CurrentThread);
    let b = run_free(&second, ThreadPolicy::CurrentThread);
    assert_series_bit_identical(&a, &b, "cached artifact");

    // Errors are never cached: a model the compile closure refuses stays
    // uncached. (A distinct model — the first one's hash is already a
    // cache entry, and hits never invoke the closure at all.)
    let other = {
        let mut b = ModelBuilder::new("other");
        let s = b.streamer("s", "none");
        b.streamer_out(s, "y", FlowType::scalar());
        b.build()
    };
    let err = cache
        .get_or_compile(&other, |_| Err(CoreError::Elaborate { detail: "refused".into() }))
        .map(|_| ())
        .unwrap_err();
    assert!(err.to_string().contains("refused"));
    assert_eq!(cache.len(), 1, "failed compiles leave no entry");
}

#[test]
fn any_model_edit_changes_the_hash() {
    let base = two_thread_model().content_hash();
    assert_eq!(base, two_thread_model().content_hash(), "hash is a pure function of the model");

    let mut edited = ModelBuilder::new("artifact-cache");
    let src = edited.streamer("src", "none");
    let lag = edited.streamer("lag", "none");
    edited.streamer_out(src, "y", FlowType::scalar());
    edited.streamer_in(lag, "u", FlowType::scalar());
    edited.streamer_out(lag, "y", FlowType::scalar());
    edited.streamer_feedthrough(src, false);
    edited.streamer_feedthrough(lag, false);
    edited.assign_thread(src, 0);
    edited.assign_thread(lag, 3); // the single edit: lag moves threads
    edited.flow_between_streamers(src, "y", lag, "u");
    edited.probe(src, "y", "src");
    edited.probe(lag, "y", "lag");
    assert_ne!(base, edited.build().content_hash(), "a thread reassignment changes the hash");
}

#[test]
fn fig2_catalogue_hash_is_pinned_across_processes() {
    let fig2 = examples::by_name("fig2").expect("catalogue model");
    assert_eq!(
        fig2.content_hash(),
        FIG2_CONTENT_HASH,
        "fig2 content hash drifted — cache keys persisted by other processes are now orphaned"
    );
    // The pinned hash is exactly what the cache keys on.
    let cache = SystemCache::new();
    let artifact = cache
        .get_or_compile(&fig2, |m| compile(m, stubs::stub_registry(m)))
        .expect("fig2 compiles with stubs");
    assert!(artifact.content_hash() != 0, "artifact hash folds registry shape");
    cache.get_or_compile(&fig2, |_| unreachable!("hit must not recompile")).expect("hit");
    assert_eq!((cache.hits(), cache.misses()), (1, 1));
}

#[test]
fn streamed_hashes_equal_the_hash_of_the_collected_rendering() {
    for (name, model) in examples::all() {
        // The old definition, kept only as this test's oracle.
        let rendered = format!("{model:?}");
        assert_eq!(model.content_hash(), fnv1a_64(rendered.as_bytes()), "{name}: model hash");

        // The artifact appends the NUL-tagged, sorted registry names. A
        // capsule factory per capsule makes the capsule half non-empty;
        // compile must not call them.
        let mut capsules: Vec<String> = model.iter_capsules().map(|(_, c)| c.to_owned()).collect();
        capsules.sort_unstable();
        capsules.dedup();
        let mut registry = stubs::stub_registry(&model);
        for c in &capsules {
            registry = registry.capsule(c, || -> Box<dyn Capsule> {
                unreachable!("compile runs no capsule factory")
            });
        }
        let artifact = compile(&model, registry).expect("catalogue model compiles");
        let mut streamers: Vec<&str> = model.iter_streamers().map(|(_, s, _)| s).collect();
        streamers.sort_unstable();
        streamers.dedup();
        let mut oracle = rendered.into_bytes();
        for s in streamers {
            oracle.extend_from_slice(b"\0streamer\0");
            oracle.extend_from_slice(s.as_bytes());
        }
        for c in &capsules {
            oracle.extend_from_slice(b"\0capsule\0");
            oracle.extend_from_slice(c.as_bytes());
        }
        assert_eq!(artifact.content_hash(), fnv1a_64(&oracle), "{name}: artifact hash");
    }
}

/// A capsule that ignores everything.
struct Quiet;

impl Capsule for Quiet {
    fn name(&self) -> &str {
        "sup"
    }
    fn on_start(&mut self, _ctx: &mut CapsuleContext) {}
    fn on_message(&mut self, _msg: &Message, _ctx: &mut CapsuleContext) {}
}

#[test]
fn compile_refuses_unrealisable_machines_and_runs_no_capsule_factory() {
    // Without the analyzer, building the machine at compile is the
    // guard.
    let refused = [
        (
            SmSpec::new("m").state("a").substate("b", "ghost").initial("a"),
            "machine `m`: state `b` has an undeclared parent",
        ),
        (SmSpec::new("m").state("a"), "machine `m` declares no initial state"),
    ];
    for (machine, message) in refused {
        let mut b = two_thread_builder();
        let sup = b.capsule("sup");
        b.capsule_machine(sup, machine);
        let err = elaborate(&b.build(), registry()).unwrap_err();
        assert!(matches!(err, CoreError::Elaborate { .. }), "{err}");
        assert!(err.to_string().contains(message), "{err}");
    }

    // A registered capsule factory runs once per engine instance, never
    // at compile; each streamer factory runs exactly once at compile.
    let capsules = Arc::new(AtomicUsize::new(0));
    let (srcs, lags) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let mut b = two_thread_builder();
    b.capsule("sup");
    let (c, s, l) = (Arc::clone(&capsules), Arc::clone(&srcs), Arc::clone(&lags));
    let registry = BehaviorRegistry::new()
        .streamer("src", move || {
            s.fetch_add(1, Ordering::Relaxed);
            Box::new(Src)
        })
        .streamer("lag", move || {
            l.fetch_add(1, Ordering::Relaxed);
            Box::new(Lag { state: 0.25 })
        })
        .capsule("sup", move || {
            c.fetch_add(1, Ordering::Relaxed);
            Box::new(Quiet)
        });
    let compiled = elaborate(&b.build(), registry).expect("compiles");
    let count = |n: &AtomicUsize| n.load(Ordering::Relaxed);
    assert_eq!((count(&srcs), count(&lags)), (1, 1), "streamer factories at compile");
    assert_eq!(count(&capsules), 0, "compile runs no capsule factory");
    let config = EngineConfig { step: 0.01, policy: ThreadPolicy::CurrentThread };
    HybridEngine::from_compiled(&compiled, config).expect("engine");
    assert_eq!(count(&capsules), 1, "one engine instance");
    EnsembleEngine::from_compiled(&compiled, 3, config).expect("ensemble");
    assert_eq!(count(&capsules), 4, "three more instances");
}
