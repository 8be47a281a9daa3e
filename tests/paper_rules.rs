//! Integration: the paper's structural artifacts — Table 1 and the
//! Figure 2/3 rules — exercised across crates, plus code generation.

use unified_rt::codegen::generate_model;
use unified_rt::core::model::ModelBuilder;
use unified_rt::core::stereotype::{render_table1, Stereotype};
use unified_rt::core::strategy::{render_fig1, StrategyCatalog};
use unified_rt::core::CoreError;
use unified_rt::dataflow::flowtype::{FlowType, Unit};

#[test]
fn table1_lists_eight_extension_stereotypes_over_six_base_constructs() {
    assert_eq!(Stereotype::ALL.len(), 8);
    let bases: std::collections::BTreeSet<&str> =
        Stereotype::ALL.iter().map(|s| s.base_construct()).collect();
    assert_eq!(bases.len(), 6, "six UML-RT rows in Table 1");
    let rendered = render_table1();
    assert!(rendered.contains("| capsule"));
    assert!(rendered.contains("streamer"));
}

#[test]
fn fig1_pattern_is_realised_by_the_catalog() {
    let catalog = StrategyCatalog::with_defaults();
    let diagram = render_fig1(&catalog);
    // Strategy side: all solver kinds are concrete strategies.
    for name in ["euler", "heun", "rk4", "dopri45", "backward-euler"] {
        assert!(diagram.contains(name), "missing concrete strategy {name}");
        assert!(catalog.create(name).is_some());
    }
    // State side: the capsule state machine is named as the State role.
    assert!(diagram.contains("StateMachine"));
}

#[test]
fn fig3_model_round_trips_through_validation_and_codegen() {
    let mut b = ModelBuilder::new("fig3");
    let top = b.capsule("top");
    let sub = b.capsule("sub");
    let s1 = b.streamer("streamer1", "rk4");
    let s2 = b.streamer("streamer2", "dopri45");
    b.contain_capsule(sub, top);
    b.contain_streamer_in_capsule(s1, top);
    b.contain_streamer_in_capsule(s2, top);
    b.streamer_out(s1, "y", FlowType::with_unit(Unit::Volt));
    b.streamer_in(s2, "u", FlowType::with_unit(Unit::Volt));
    b.flow_between_streamers(s1, "y", s2, "u");
    b.capsule_sport(top, "cmd", "Ctl");
    b.streamer_sport(s1, "cmd", "Ctl");
    b.sport_link(top, "cmd", s1, "cmd");
    let model = b.build();

    model.validate().expect("fig3 model is well-formed");
    let structure = model.render_structure();
    assert!(structure.contains("capsule top"));
    assert!(structure.contains("streamer streamer1"));

    let code = generate_model(&model).expect("codegen");
    assert!(code.contains("mod capsule_top"));
    assert!(code.contains("mod capsule_sub"));
    assert!(code.contains("Streamer1Streamer"));
    assert!(code.contains("thread::spawn"));
}

#[test]
fn forbidden_containment_is_rejected_end_to_end() {
    let mut b = ModelBuilder::new("bad");
    let s = b.streamer("host", "rk4");
    let c = b.capsule("trapped");
    b.contain_capsule_in_streamer(c, s);
    let model = b.build();
    let err = model.validate().unwrap_err();
    assert!(matches!(err, CoreError::Validation { rule: "fig3-containment", .. }));
    // Codegen refuses invalid models too.
    assert!(generate_model(&model).is_err());
}

#[test]
fn subset_rule_is_consistent_between_model_and_network() {
    use unified_rt::core::elaborate::{elaborate, BehaviorRegistry};
    use unified_rt::dataflow::streamer::FnStreamer;

    // The same pair of types must be accepted (or rejected) by both the
    // declarative model validation and elaboration, which runs the model
    // rules before it lowers anything.
    let cases = [
        (FlowType::with_unit(Unit::Meter), FlowType::with_unit(Unit::Meter), true),
        (FlowType::with_unit(Unit::Meter), FlowType::with_unit(Unit::Any), true),
        (FlowType::with_unit(Unit::Meter), FlowType::with_unit(Unit::Kelvin), false),
        (FlowType::vector(2), FlowType::vector(2), true),
        (FlowType::vector(2), FlowType::vector(3), false),
    ];
    for (src, dst, expect_ok) in cases {
        let mut b = ModelBuilder::new("m");
        let s1 = b.streamer("a", "rk4");
        let s2 = b.streamer("b", "rk4");
        b.streamer_out(s1, "y", src.clone());
        b.streamer_in(s2, "u", dst.clone());
        b.flow_between_streamers(s1, "y", s2, "u");
        let model = b.build();

        // Declarative.
        let decl_ok = model.validate().is_ok();

        // Executable.
        let (w_src, w_dst) = (src.width(), dst.width());
        let registry = BehaviorRegistry::new()
            .streamer("a", move || {
                Box::new(FnStreamer::new("a", 0, w_src, |_t, _h, _u, y: &mut [f64]| y.fill(0.0)))
            })
            .streamer("b", move || {
                Box::new(FnStreamer::new("b", w_dst, 0, |_t, _h, _u, _y: &mut [f64]| {}))
            });
        let exec = elaborate(&model, registry);
        if let Err(e) = &exec {
            assert_eq!(e.code(), "URT105", "executable: {src} -> {dst}: {e}");
        }

        assert_eq!(decl_ok, expect_ok, "declarative: {src} -> {dst}");
        assert_eq!(exec.is_ok(), expect_ok, "executable: {src} -> {dst}");
    }
}
