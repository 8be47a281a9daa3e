//! Whole-model static analysis for unified real-time models.
//!
//! The paper's Table 1 well-formedness rules are enforced fail-fast by
//! [`urt_core::model::UnifiedModel::validate`]; this crate runs the same
//! rules — plus graph, state-machine, cross-group flow and timing lints —
//! over a model and returns **all** findings at once as structured
//! [`Diagnostic`] values, each with a stable `URTxxx` code, a severity, a
//! model path and a suggestion.
//!
//! [`analyze`] flattens the model once ([`UnifiedModel::flatten`]: leaf
//! streamers and leaf-to-leaf flows with capsule relay chains resolved,
//! the same reading `elaborate` lowers) and runs these passes over it:
//!
//! 1. **Well-formedness** ([`model_pass`]) — every Table 1 rule collected
//!    instead of fail-fast: flow-type subset violations with field-level
//!    explanations, capsule-in-streamer containment,
//!    capsule-DPorts-are-relay-only, SPort protocol compatibility, one
//!    link per streamer SPort (`URT113`) — plus every structure the
//!    flattening refuses (`URT114`).
//! 2. **Graph lints** ([`model_pass`]) — algebraic loops through
//!    direct-feedthrough streamers, inputs with no writer or with several
//!    (`URT006`, `URT005`), dead outputs, isolated elements.
//! 3. **State-machine lints** ([`machine_pass`]) — missing initial
//!    states, specs the machine build `elaborate` runs refuses,
//!    unreachable states, transitions on signals no connected protocol
//!    can deliver.
//! 4. **Cross-group flows** ([`flow_pass`]) — classifies every effective
//!    flow as intra- or cross-thread-group: cross-group flows into
//!    direct-feedthrough consumers are errors (`URT207`, the channel's
//!    one-macro-step delay would break a zero-delay algebraic path);
//!    legal ones report the induced delay.
//! 5. **Static timing** ([`cost_pass`]) — budgets worst-case macro-step
//!    cost per solver thread from declared or calibrated per-streamer
//!    costs (`URT301`–`URT305`): over-budget threads are errors
//!    [`compile`] refuses, and `URT304` recommends a feasibility-pruned
//!    `assign_thread` partition before anything runs.
//!
//! [`compile`] is the pipeline front door: it runs the analyzer, refuses
//! any error-severity finding, and lowers a clean model plus a behaviour
//! registry into an executable `CompiledSystem`. [`stubs`] provides width- and
//! feedthrough-faithful placeholder behaviours so structure-only models
//! (e.g. the [`examples`] catalogue) can ride the whole pipeline.
//!
//! # Examples
//!
//! ```
//! use urt_analysis::{analyze, Severity};
//!
//! let model = urt_analysis::examples::seeded_violations();
//! let diags = analyze(&model);
//! assert!(diags.iter().filter(|d| d.severity == Severity::Error).count() >= 2);
//! assert!(diags.iter().any(|d| d.code == "URT105"), "flow-subset violation");
//! assert!(diags.iter().any(|d| d.code == "URT007"), "algebraic loop");
//! assert!(diags.iter().any(|d| d.code == "URT203"), "unreachable state");
//! ```

pub mod cost_pass;
pub mod diagnostic;
pub mod examples;
pub mod flow_pass;
pub mod machine_pass;
pub mod model_pass;
pub mod stubs;

pub use diagnostic::{render_json_report, Diagnostic, Severity};

use urt_core::elaborate::{BehaviorRegistry, CompiledSystem};
use urt_core::model::UnifiedModel;
use urt_core::CoreError;

/// Runs every analysis pass over a declarative model and returns all
/// findings sorted by (severity, code, path, message) — deterministic
/// regardless of pass-registration order.
pub fn analyze(model: &UnifiedModel) -> Vec<Diagnostic> {
    let flat = model.flatten();
    let mut out = Vec::new();
    model_pass::run(model, &flat, &mut out);
    machine_pass::run(model, &mut out);
    flow_pass::run(model, &flat, &mut out);
    cost_pass::run(model, &flat, &mut out);
    sort_report(&mut out);
    out
}

/// Canonical report order: (severity, code, path, message). Pinned by a
/// golden-file test so `--json` output never depends on which pass
/// happened to emit a finding first.
fn sort_report(out: &mut [Diagnostic]) {
    out.sort_by(|a, b| {
        (a.severity, a.code, &a.path, &a.message).cmp(&(b.severity, b.code, &b.path, &b.message))
    });
}

/// The pipeline front door: compiles `model` into an executable
/// [`CompiledSystem`], refusing any model the analyzer flags with an
/// error-severity diagnostic.
///
/// This is the front door of `model → analyze → compile → run`: it runs
/// [`analyze`], refuses the model if any finding is an error, and then
/// lowers it with [`urt_core::elaborate::elaborate`] and the given
/// behaviour `registry`. The analyzer reports every structure `elaborate`
/// refuses, so what `elaborate` can still refuse here needs the registry:
/// a missing behaviour, or one whose widths or feedthrough differ from
/// its declaration. Pass the result to
/// [`HybridEngine::from_compiled`](urt_core::engine::HybridEngine::from_compiled).
///
/// # Errors
///
/// [`CoreError::Elaborate`] (`analysis found N error(s)…`, naming the
/// first) when the analyzer reports errors, then every failure mode of
/// [`urt_core::elaborate::elaborate`].
pub fn compile(
    model: &UnifiedModel,
    registry: BehaviorRegistry,
) -> Result<CompiledSystem, CoreError> {
    let diags = analyze(model);
    if let Some(first) = diags.iter().find(|d| d.severity == Severity::Error) {
        let (errors, _, _) = severity_counts(&diags);
        return Err(CoreError::Elaborate {
            detail: format!(
                "analysis found {errors} error(s) in model `{}`; first: [{}] {} ({})",
                model.name(),
                first.code,
                first.message,
                first.path
            ),
        });
    }
    urt_core::elaborate::elaborate(model, registry)
}

/// Whether any diagnostic is an [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Counts diagnostics of each severity as `(errors, warnings, infos)`.
pub fn severity_counts(diags: &[Diagnostic]) -> (usize, usize, usize) {
    let mut counts = (0, 0, 0);
    for d in diags {
        match d.severity {
            Severity::Error => counts.0 += 1,
            Severity::Warning => counts.1 += 1,
            Severity::Info => counts.2 += 1,
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_model_has_no_errors() {
        for (name, model) in examples::all() {
            let diags = analyze(&model);
            assert!(!has_errors(&diags), "example `{name}` has errors: {diags:#?}");
        }
    }

    #[test]
    fn seeded_model_collects_multiple_distinct_errors() {
        let diags = analyze(&examples::seeded_violations());
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"URT105"), "flow-subset, got {codes:?}");
        assert!(codes.contains(&"URT007"), "algebraic loop, got {codes:?}");
        assert!(codes.contains(&"URT203"), "unreachable state, got {codes:?}");
        let (errors, _, _) = severity_counts(&diags);
        assert!(errors >= 2, "at least two errors, got {diags:#?}");
        // Errors sort before warnings.
        let first_warning = diags.iter().position(|d| d.severity != Severity::Error);
        if let Some(fw) = first_warning {
            assert!(diags[fw..].iter().all(|d| d.severity != Severity::Error));
        }
    }

    #[test]
    fn elaborate_and_compile_refuse_each_model_rule() {
        use urt_core::elaborate::elaborate;
        use urt_core::model::{FlowEnd, ModelBuilder};
        use urt_dataflow::flowtype::{FlowType, Unit};

        let mut cases = Vec::new();
        let mut b = ModelBuilder::new("names");
        b.streamer("twin", "none");
        b.streamer("twin", "none");
        cases.push(("unique-names", b.build()));
        let mut b = ModelBuilder::new("subset");
        let (hot, far) = (b.streamer("hot", "none"), b.streamer("far", "none"));
        b.streamer_out(hot, "y", FlowType::with_unit(Unit::Kelvin));
        b.streamer_in(far, "u", FlowType::with_unit(Unit::Meter));
        b.flow(FlowEnd::Streamer(hot, "y".into()), FlowEnd::Streamer(far, "u".into()));
        cases.push(("flow-subset", b.build()));
        let mut b = ModelBuilder::new("protocol");
        let (cap, s) = (b.capsule("sup"), b.streamer("plant", "none"));
        b.capsule_sport(cap, "p", "Ctl");
        b.streamer_sport(s, "ctl", "Other");
        b.sport_link(cap, "p", s, "ctl");
        cases.push(("sport-protocol", b.build()));
        let mut b = ModelBuilder::new("probe");
        let s = b.streamer("plant", "none");
        b.probe(s, "nope", "out");
        cases.push(("probe-port", b.build()));

        for (rule, model) in cases {
            let err = elaborate(&model, BehaviorRegistry::new()).unwrap_err();
            assert!(
                matches!(err, CoreError::Validation { rule: r, .. } if r == rule),
                "elaborate on {rule}: {err}"
            );
            let err = compile(&model, BehaviorRegistry::new()).unwrap_err();
            let code = CoreError::validation_code(rule);
            assert!(err.to_string().contains(&format!("[{code}]")), "compile on {rule}: {err}");
        }
    }

    #[test]
    fn analyze_is_pure() {
        let model = examples::seeded_violations();
        assert_eq!(analyze(&model), analyze(&model));
    }

    #[test]
    fn whole_catalogue_compiles_with_stubs() {
        for (name, model) in examples::all() {
            let compiled = compile(&model, stubs::stub_registry(&model));
            assert!(compiled.is_ok(), "example `{name}`: {:?}", compiled.err());
        }
    }

    #[test]
    fn a_self_flow_is_refused_into_a_feedthrough_streamer_and_runs_into_a_stateful_one() {
        use urt_core::elaborate::elaborate;
        use urt_core::engine::{EngineConfig, HybridEngine};
        use urt_core::model::ModelBuilder;
        use urt_core::recorder::Recorder;
        use urt_dataflow::flowtype::FlowType;
        use urt_dataflow::streamer::StreamerBehavior;

        /// `y = u + 1`, its input wired to its own output.
        struct Count {
            feedthrough: bool,
        }
        impl StreamerBehavior for Count {
            fn name(&self) -> &str {
                "count"
            }
            fn input_width(&self) -> usize {
                1
            }
            fn output_width(&self) -> usize {
                1
            }
            fn direct_feedthrough(&self) -> bool {
                self.feedthrough
            }
            fn advance(
                &mut self,
                _t: f64,
                _h: f64,
                u: &[f64],
                y: &mut [f64],
            ) -> Result<(), urt_ode::SolveError> {
                y[0] = u[0] + 1.0;
                Ok(())
            }
        }
        let build = |feedthrough: bool| {
            let mut b = ModelBuilder::new("self");
            let s = b.streamer("count", "none");
            b.streamer_in(s, "u", FlowType::scalar());
            b.streamer_out(s, "y", FlowType::scalar());
            b.flow_between_streamers(s, "y", s, "u");
            b.streamer_feedthrough(s, feedthrough);
            b.probe(s, "y", "count.y");
            let registry =
                BehaviorRegistry::new().streamer("count", move || Box::new(Count { feedthrough }));
            (b.build(), registry)
        };

        let (model, registry) = build(true);
        assert!(analyze(&model).iter().any(|d| d.code == "URT007"), "analyze names the loop");
        let err = compile(&model, registry).unwrap_err();
        assert!(err.to_string().contains("[URT007]"), "compile refuses: {err}");
        let (model, registry) = build(true);
        let err = elaborate(&model, registry).unwrap_err();
        assert_eq!(err.code(), "URT007", "the lowering refuses it without the analyzer: {err}");

        // Non-feedthrough: the input latches the previous step's output.
        let (model, registry) = build(false);
        let compiled = compile(&model, registry).expect("a stateful self-flow compiles");
        let mut engine = HybridEngine::from_compiled(&compiled, EngineConfig::default()).unwrap();
        let rec = Recorder::new();
        engine.set_recorder(rec.clone());
        for _ in 0..3 {
            engine.step_once().unwrap();
        }
        let values: Vec<f64> = rec.series("count.y").iter().map(|&(_, v)| v).collect();
        assert_eq!(values, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn compile_refuses_seeded_model() {
        let model = examples::seeded_violations();
        let err = compile(&model, stubs::stub_registry(&model)).unwrap_err();
        assert!(matches!(err, CoreError::Elaborate { .. }), "{err}");
        assert!(err.to_string().starts_with("URT114: "), "{err}");
        assert!(err.to_string().contains("analysis found"), "{err}");
    }
}
