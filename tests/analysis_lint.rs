//! End-to-end checks of the `urt_analysis` static analyzer: the clean
//! example catalogue lints without errors, the seeded model collects
//! multiple distinct violations, the analyzer refuses every structure
//! compilation refuses, and the codegen pipeline honours the analyzer's
//! verdict.

use unified_rt::analysis::stubs::stub_registry;
use unified_rt::analysis::{analyze, examples, has_errors, severity_counts, Severity};
use unified_rt::codegen::generate_model;
use unified_rt::core::elaborate::elaborate;
use unified_rt::core::model::{CapsuleRef, FlowEnd, ModelBuilder, StreamerRef};
use unified_rt::core::CoreError;
use unified_rt::dataflow::flowtype::FlowType;
use unified_rt::umlrt::statemachine::SmSpec;

#[test]
fn every_example_model_lints_clean() {
    for (name, model) in examples::all() {
        let diags = analyze(&model);
        let errors: Vec<_> = diags.iter().filter(|d| d.severity == Severity::Error).collect();
        assert!(errors.is_empty(), "example `{name}` has errors: {errors:#?}");
    }
}

#[test]
fn seeded_model_collects_three_distinct_violations() {
    let model = examples::by_name("seeded-violations").expect("built-in");
    let diags = analyze(&model);
    let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
    for expected in ["URT105", "URT007", "URT203"] {
        assert!(codes.contains(&expected), "missing {expected}: {codes:?}");
    }
    let (errors, _, _) = severity_counts(&diags);
    assert!(errors >= 2, "subset break and loop are both errors: {diags:#?}");
    assert!(has_errors(&diags));
    // Every diagnostic carries a stable code, a path and a message.
    for d in &diags {
        assert!(d.code.starts_with("URT"), "{d:?}");
        assert!(!d.path.is_empty() && !d.message.is_empty(), "{d:?}");
    }
}

#[test]
fn clean_examples_generate_code_with_lint_header() {
    for (name, model) in examples::all() {
        let code = generate_model(&model)
            .unwrap_or_else(|e| panic!("example `{name}` failed codegen: {e}"));
        assert!(code.contains("Lint summary (urt-lint): 0 errors"), "example `{name}`");
    }
}

#[test]
fn seeded_model_is_rejected_by_codegen() {
    let model = examples::by_name("seeded-violations").expect("built-in");
    let err = generate_model(&model).unwrap_err();
    assert!(err.to_string().contains("URT"), "carries a stable code: {err}");
}

#[test]
fn json_report_shape_is_stable() {
    let model = examples::by_name("seeded-violations").expect("built-in");
    let diags = analyze(&model);
    let json = unified_rt::analysis::render_json_report(model.name(), &diags);
    assert!(json.starts_with("{\"model\":\"seeded\",\"errors\":"));
    assert!(json.contains("\"diagnostics\":[{\"code\":\"URT"));
    assert!(json.ends_with("}]}"));
}

#[test]
fn lint_snapshots_are_current() {
    // Golden files: the exact `urt-lint --json <name>` stdout for every
    // catalogue and seeded model, committed under results/lint_snapshots/.
    // They pin both the findings themselves (a lost diagnostic or changed
    // code fails here) and the canonical (severity, code, path, message)
    // report order. Regenerate with scripts/check.sh's printed hint after
    // an intentional analyzer change.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results/lint_snapshots");
    let all_names = examples::NAMES.iter().chain(examples::SEEDED);
    let mut checked = 0;
    for name in all_names {
        let path = format!("{dir}/{name}.json");
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing lint snapshot {path}: {e}"));
        let model = examples::by_name(name).expect("built-in");
        let current = format!(
            "[{}]\n",
            unified_rt::analysis::render_json_report(model.name(), &analyze(&model))
        );
        assert_eq!(
            current, committed,
            "lint snapshot for `{name}` is stale — \
             cargo run -p urt-analysis --bin urt-lint -- --json {name} > {path}"
        );
        checked += 1;
    }
    assert_eq!(
        checked,
        examples::NAMES.len() + examples::SEEDED.len(),
        "every model has a snapshot"
    );
}

/// A capsule `relay` declaring scalar relay DPorts `ports`.
fn relay(b: &mut ModelBuilder, ports: &[&str]) -> CapsuleRef {
    let c = b.capsule("relay");
    for &port in ports {
        b.capsule_dport(c, port, FlowType::scalar());
    }
    c
}

/// A capsule `sup` running the machine `spec`.
fn supervised(b: &mut ModelBuilder, spec: SmSpec) {
    let c = b.capsule("sup");
    b.capsule_machine(c, spec);
}

/// A machine spec with the one state `a`, initial.
fn machine() -> SmSpec {
    SmSpec::new("m").state("a").initial("a")
}

#[test]
fn the_analyzer_refuses_every_structure_compile_refuses() {
    // Non-feedthrough `s` (inside the container streamer `pack`) feeds
    // `g.u`; each case adds one element elaboration cannot realise.
    type Case = (&'static str, fn(&mut ModelBuilder, [StreamerRef; 3]));
    let cases: [Case; 18] = [
        ("container with DPorts", |b, [_, _, pack]| {
            b.streamer_out(pack, "y", FlowType::scalar());
        }),
        ("flow into a container", |b, [s, _, pack]| {
            b.flow(FlowEnd::Streamer(s, "y".into()), FlowEnd::Streamer(pack, "u".into()));
        }),
        ("flow out of a container", |b, [_, g, pack]| {
            b.flow(FlowEnd::Streamer(pack, "y".into()), FlowEnd::Streamer(g, "u".into()));
        }),
        ("relay that relays nothing", |b, [_, g, _]| {
            let c = relay(b, &["d"]);
            b.flow(FlowEnd::Capsule(c, "d".into()), FlowEnd::Streamer(g, "u".into()));
        }),
        ("relay with two sources", |b, [s, g, _]| {
            let c = relay(b, &["d"]);
            b.flow(FlowEnd::Streamer(s, "y".into()), FlowEnd::Capsule(c, "d".into()));
            b.flow(FlowEnd::Streamer(g, "y".into()), FlowEnd::Capsule(c, "d".into()));
            b.flow(FlowEnd::Capsule(c, "d".into()), FlowEnd::Streamer(g, "u".into()));
        }),
        ("relay chain that never ends", |b, [_, g, _]| {
            let c = relay(b, &["d1", "d2"]);
            b.flow(FlowEnd::Capsule(c, "d1".into()), FlowEnd::Capsule(c, "d2".into()));
            b.flow(FlowEnd::Capsule(c, "d2".into()), FlowEnd::Capsule(c, "d1".into()));
            b.flow(FlowEnd::Capsule(c, "d1".into()), FlowEnd::Streamer(g, "u".into()));
        }),
        ("SPort link to a container", |b, [_, _, pack]| {
            let c = b.capsule("sup");
            b.sport_link(c, "p", pack, "ctl");
        }),
        ("probe on a container", |b, [_, _, pack]| {
            b.probe(pack, "y", "pack.y");
        }),
        ("second writer on one input", |b, [_, g, _]| {
            let t = b.streamer("t", "none");
            b.streamer_out(t, "y", FlowType::scalar());
            b.streamer_feedthrough(t, false);
            b.flow_between_streamers(t, "y", g, "u");
        }),
        ("undriven input", |b, [_, g, _]| {
            b.streamer_in(g, "v", FlowType::scalar());
        }),
        ("SPort link to a container, ports declared and matching", |b, [_, _, pack]| {
            let c = b.capsule("sup");
            b.capsule_sport(c, "p", "Ctl");
            b.streamer_sport(pack, "ctl", "Ctl");
            b.sport_link(c, "p", pack, "ctl");
        }),
        ("two links on one streamer SPort", |b, [_, g, _]| {
            let c = b.capsule("sup");
            b.capsule_sport(c, "p", "Ctl");
            b.capsule_sport(c, "q", "Ctl");
            b.streamer_sport(g, "ctl", "Ctl");
            b.sport_link(c, "p", g, "ctl");
            b.sport_link(c, "q", g, "ctl");
        }),
        ("machine: undeclared transition source", |b, _| {
            supervised(b, machine().on("ghost", ("p", "go"), "a"));
        }),
        ("machine: undeclared parent", |b, _| {
            supervised(b, machine().substate("b", "ghost"));
        }),
        ("machine: undeclared initial child", |b, _| {
            supervised(b, machine().initial_child("a", "ghost"));
        }),
        ("machine: duplicate state", |b, _| {
            supervised(b, machine().state("a"));
        }),
        ("machine: internal transition on an undeclared state", |b, _| {
            supervised(b, machine().internal("ghost", ("p", "go")));
        }),
        ("machine: undeclared transition target", |b, _| {
            supervised(b, machine().on("a", ("p", "go"), "ghost"));
        }),
    ];
    let build = |add: fn(&mut ModelBuilder, [StreamerRef; 3])| {
        let mut b = ModelBuilder::new("m");
        let s = b.streamer("s", "none");
        let g = b.streamer("g", "none");
        let pack = b.streamer("pack", "none");
        b.contain_streamer(s, pack);
        b.streamer_out(s, "y", FlowType::scalar());
        b.streamer_in(g, "u", FlowType::scalar());
        b.streamer_out(g, "y", FlowType::scalar());
        b.streamer_feedthrough(s, false);
        b.streamer_feedthrough(g, false);
        b.flow_between_streamers(s, "y", g, "u");
        add(&mut b, [s, g, pack]);
        b.build()
    };
    let clean = build(|_, _| {});
    assert!(!has_errors(&analyze(&clean)), "{:#?}", analyze(&clean));
    unified_rt::compile(&clean, stub_registry(&clean)).expect("the base model compiles");
    for (case, add) in cases {
        let model = build(add);
        assert!(has_errors(&analyze(&model)), "{case}: {:#?}", analyze(&model));
        let err = unified_rt::compile(&model, stub_registry(&model)).unwrap_err();
        assert!(
            matches!(&err, CoreError::Elaborate { detail } if detail.starts_with("analysis found")),
            "{case}: the analyzer refuses, not the lowering: {err}"
        );
        assert!(elaborate(&model, stub_registry(&model)).is_err(), "{case}: elaborate refuses");
    }
}
