//! Model-level passes: Table 1 well-formedness (collected), the
//! structure the flattening refuses, and graph lints over the flattened
//! flows.
//!
//! Capsule DPorts are relay-only (Figure 3), so a chain
//! `streamer -> capsule.dport -> streamer` is one effective flow
//! ([`UnifiedModel::flatten`]); the algebraic-loop and input-writer lints
//! read those flows.

use crate::diagnostic::{Diagnostic, Severity};
use std::collections::{HashMap, HashSet};
use urt_core::model::{Flattening, FlowEnd, Owner, StreamerRef, UnifiedModel};
use urt_dataflow::graph::topo_order;

/// Drops the `URTxxx: ` prefix an error's display string already carries
/// — the diagnostic holds the code in its own field.
pub(crate) fn strip_code(message: &str) -> String {
    match message.split_once(": ") {
        Some((code, rest)) if code.len() == 6 && code.starts_with("URT") => rest.to_owned(),
        _ => message.to_owned(),
    }
}

/// A fix hint for the well-formedness rules (keyed by stable code).
fn suggestion_for(code: &str) -> Option<&'static str> {
    match code {
        "URT101" => Some("rename one of the duplicate elements"),
        "URT102" => Some("move the capsule out of the streamer; streamers never contain capsules"),
        "URT103" => Some("break the ownership cycle so containment forms a tree"),
        "URT104" => Some("declare the DPort on the element before flowing through it"),
        "URT105" => {
            Some("make the output flow type a subset of the input flow type (Table 1 rule)")
        }
        "URT106" => Some(
            "give the capsule DPort both an incoming and an outgoing flow, or move the port to a streamer",
        ),
        "URT107" => Some("use the same protocol on both SPort ends"),
        "URT113" => Some("link each streamer SPort to one capsule port"),
        _ => None,
    }
}

/// Runs the model-level passes over `model` and its flattening `flat`,
/// appending findings to `out`.
pub fn run(model: &UnifiedModel, flat: &Flattening, out: &mut Vec<Diagnostic>) {
    let mpath = model.name().to_string();

    // Pass 1: Table 1 well-formedness, collected instead of fail-fast,
    // and the structure `elaborate` refuses to flatten.
    for e in model.violations().iter().chain(&flat.refusals) {
        let mut d = Diagnostic::new(e.code(), Severity::Error, &mpath, strip_code(&e.to_string()));
        if let Some(s) = suggestion_for(e.code()) {
            d = d.suggest(s);
        }
        out.push(d);
    }

    // Pass 2: graph lints over the flow topology.
    input_writers(model, flat, out);
    dead_outputs(model, out);
    algebraic_loops(model, flat, out);
    isolated_elements(model, out);
}

/// `URT006` / `URT005`: leaf input DPorts with no writer, or with
/// several, among the flattened flows — the lowering refuses both.
fn input_writers(model: &UnifiedModel, flat: &Flattening, out: &mut Vec<Diagnostic>) {
    let mut writers: HashMap<(StreamerRef, &str), usize> = HashMap::new();
    for f in &flat.flows {
        *writers.entry((f.to, f.to_port.as_str())).or_default() += 1;
    }
    for &sref in &flat.leaves {
        let name = model.streamer_name(sref).unwrap_or("?");
        for (port, _) in model.streamer_in_dports(sref) {
            let path = format!("{}/{name}.dport:{port}", model.name());
            match writers.get(&(sref, port.as_str())).copied().unwrap_or(0) {
                0 => out.push(
                    Diagnostic::new(
                        "URT006",
                        Severity::Error,
                        path,
                        format!("input DPort `{port}` of streamer `{name}` has no incoming flow"),
                    )
                    .suggest("connect a flow into this input or remove the port"),
                ),
                1 => {}
                n => out.push(
                    Diagnostic::new(
                        "URT005",
                        Severity::Error,
                        path,
                        format!("input DPort `{port}` of streamer `{name}` has {n} writers"),
                    )
                    .suggest("keep one flow into this input; combine the sources in a streamer"),
                ),
            }
        }
    }
}

/// `URT201`: streamer output DPorts nothing reads.
fn dead_outputs(model: &UnifiedModel, out: &mut Vec<Diagnostic>) {
    for (sref, name, _) in model.iter_streamers() {
        for (port, _) in model.streamer_out_dports(sref) {
            let read = model.iter_flows().any(
                |(from, _)| matches!(from, FlowEnd::Streamer(s, p) if *s == sref && p == port),
            );
            if !read {
                out.push(
                    Diagnostic::new(
                        "URT201",
                        Severity::Warning,
                        format!("{}/{name}.dport:{port}", model.name()),
                        format!("output DPort `{port}` of streamer `{name}` is never read"),
                    )
                    .suggest("flow this output somewhere or remove the port"),
                );
            }
        }
    }
}

/// `URT007`: a cycle of direct-feedthrough leaf streamers (relay chains
/// resolved) has no valid same-step evaluation order. One diagnostic
/// names every streamer on a cycle ([`topo_order`]), and no streamer
/// that only reads one.
fn algebraic_loops(model: &UnifiedModel, flat: &Flattening, out: &mut Vec<Diagnostic>) {
    let index: HashMap<StreamerRef, usize> =
        flat.leaves.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    // Only direct-feedthrough streamers propagate a same-step dependency;
    // a flow into a non-feedthrough streamer imposes no ordering.
    let edges: Vec<(usize, usize)> = flat
        .flows
        .iter()
        .filter(|f| model.streamer_feedthrough(f.to))
        .map(|f| (index[&f.from], index[&f.to]))
        .collect();
    if let Err(cycle) = topo_order(flat.leaves.len(), &edges) {
        let names: Vec<&str> =
            cycle.into_iter().filter_map(|i| model.streamer_name(flat.leaves[i])).collect();
        out.push(
            Diagnostic::new(
                "URT007",
                Severity::Error,
                format!("{}/{}", model.name(), names.join(",")),
                format!(
                    "algebraic loop: direct-feedthrough streamers {} form a cycle",
                    names.join(" -> ")
                ),
            )
            .suggest(
                "mark one streamer on the cycle as non-feedthrough (e.g. an integrator) to break it",
            ),
        );
    }
}

/// `URT209`: elements with no flows, no SPort links, no machine and no
/// contained children — probably leftovers.
fn isolated_elements(model: &UnifiedModel, out: &mut Vec<Diagnostic>) {
    let mut parents: HashSet<Owner> = HashSet::new();
    for (c, _) in model.iter_capsules() {
        if let Some(o) = model.capsule_owner(c) {
            parents.insert(o);
        }
    }
    for (s, _, _) in model.iter_streamers() {
        if let Some(o) = model.streamer_owner(s) {
            parents.insert(o);
        }
    }
    for (cref, name) in model.iter_capsules() {
        let linked = model.iter_sport_links().any(|(c, _, _, _)| c == cref)
            || model.iter_flows().any(|(from, to)| {
                matches!(from, FlowEnd::Capsule(c, _) if *c == cref)
                    || matches!(to, FlowEnd::Capsule(c, _) if *c == cref)
            });
        let has_children = parents.contains(&Owner::Capsule(cref));
        if !linked && !has_children && model.capsule_machine(cref).is_none() {
            out.push(
                Diagnostic::new(
                    "URT209",
                    Severity::Info,
                    format!("{}/{name}", model.name()),
                    format!("capsule `{name}` is isolated: no links, no machine, no children"),
                )
                .suggest("wire it into the system or remove it"),
            );
        }
    }
    for (sref, name, _) in model.iter_streamers() {
        let linked = model.iter_sport_links().any(|(_, _, s, _)| s == sref)
            || model.iter_flows().any(|(from, to)| {
                matches!(from, FlowEnd::Streamer(s, _) if *s == sref)
                    || matches!(to, FlowEnd::Streamer(s, _) if *s == sref)
            });
        let has_children = parents.contains(&Owner::Streamer(sref));
        if !linked && !has_children {
            out.push(
                Diagnostic::new(
                    "URT209",
                    Severity::Info,
                    format!("{}/{name}", model.name()),
                    format!("streamer `{name}` is isolated: no flows, no links, no children"),
                )
                .suggest("wire it into the system or remove it"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urt_dataflow::flowtype::{FlowType, Unit};

    use urt_core::model::ModelBuilder;

    /// The model-level passes over `model` and its flattening.
    fn run(model: &UnifiedModel, out: &mut Vec<Diagnostic>) {
        super::run(model, &model.flatten(), out);
    }

    #[test]
    fn collects_well_formedness_with_suggestions() {
        let mut b = ModelBuilder::new("bad");
        let s1 = b.streamer("s1", "rk4");
        let s2 = b.streamer("s2", "rk4");
        b.streamer_out(s1, "y", FlowType::with_unit(Unit::Meter));
        b.streamer_in(s2, "u", FlowType::with_unit(Unit::Kelvin));
        b.flow_between_streamers(s1, "y", s2, "u");
        let mut out = Vec::new();
        run(&b.build(), &mut out);
        let subset = out.iter().find(|d| d.code == "URT105").expect("URT105 reported");
        assert_eq!(subset.severity, Severity::Error);
        assert!(subset.message.contains("unit"), "{}", subset.message);
        assert!(subset.suggestion.as_deref().unwrap().contains("subset"));
    }

    #[test]
    fn algebraic_loop_found_and_broken_by_non_feedthrough() {
        let build = |break_loop: bool| {
            let mut b = ModelBuilder::new("loopy");
            let s1 = b.streamer("s1", "rk4");
            let s2 = b.streamer("s2", "rk4");
            b.streamer_out(s1, "y", FlowType::scalar());
            b.streamer_in(s1, "u", FlowType::scalar());
            b.streamer_out(s2, "y", FlowType::scalar());
            b.streamer_in(s2, "u", FlowType::scalar());
            b.flow_between_streamers(s1, "y", s2, "u");
            b.flow_between_streamers(s2, "y", s1, "u");
            if break_loop {
                b.streamer_feedthrough(s1, false);
            }
            b.build()
        };
        let mut out = Vec::new();
        run(&build(false), &mut out);
        let lp = out.iter().find(|d| d.code == "URT007").expect("loop reported");
        assert_eq!(lp.severity, Severity::Error);
        assert!(lp.message.contains("s1") && lp.message.contains("s2"));

        let mut out = Vec::new();
        run(&build(true), &mut out);
        assert!(!out.iter().any(|d| d.code == "URT007"), "integrator breaks the loop");
    }

    #[test]
    fn a_feedthrough_self_flow_is_an_algebraic_loop() {
        let build = |feedthrough: bool| {
            let mut b = ModelBuilder::new("echo");
            let s = b.streamer("s", "none");
            b.streamer_out(s, "y", FlowType::scalar());
            b.streamer_in(s, "u", FlowType::scalar());
            b.flow_between_streamers(s, "y", s, "u");
            b.streamer_feedthrough(s, feedthrough);
            b.build()
        };
        let mut out = Vec::new();
        run(&build(true), &mut out);
        let lp = out.iter().find(|d| d.code == "URT007").expect("self-loop reported");
        assert_eq!(lp.path, "echo/s");

        let mut out = Vec::new();
        run(&build(false), &mut out);
        assert!(!out.iter().any(|d| d.code == "URT007"), "a stateful self-flow is no loop");
    }

    #[test]
    fn a_loop_report_names_neither_downstream_nor_in_between_streamers() {
        // Feedthrough streamers s0.. with one input per incoming flow.
        let loop_path = |n: usize, flows: &[(usize, usize)]| {
            let mut b = ModelBuilder::new("m");
            let s: Vec<_> = (0..n).map(|i| b.streamer(format!("s{i}"), "none")).collect();
            for &sref in &s {
                b.streamer_out(sref, "y", FlowType::scalar());
            }
            for (k, &(from, to)) in flows.iter().enumerate() {
                b.streamer_in(s[to], format!("u{k}"), FlowType::scalar());
                b.flow_between_streamers(s[from], "y", s[to], format!("u{k}"));
            }
            let mut out = Vec::new();
            run(&b.build(), &mut out);
            let loops: Vec<_> = out.iter().filter(|d| d.code == "URT007").collect();
            assert_eq!(loops.len(), 1, "{out:#?}");
            loops[0].path.clone()
        };
        // s0 <-> s1 -> s2: s2 only reads the loop.
        assert_eq!(loop_path(3, &[(0, 1), (1, 0), (1, 2)]), "m/s0,s1");
        // s2 sits between the s0 <-> s1 and s3 <-> s4 loops.
        let between = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 3)];
        assert_eq!(loop_path(5, &between), "m/s0,s1,s3,s4");
    }

    #[test]
    fn an_undriven_input_is_an_error_and_a_dead_output_a_warning() {
        let mut b = ModelBuilder::new("m");
        let s = b.streamer("s", "rk4");
        b.streamer_in(s, "u", FlowType::scalar());
        b.streamer_out(s, "y", FlowType::scalar());
        let mut out = Vec::new();
        run(&b.build(), &mut out);
        let undriven = out.iter().find(|d| d.code == "URT006").expect("URT006");
        assert_eq!(undriven.path, "m/s.dport:u");
        assert_eq!(undriven.severity, Severity::Error);
        let dead = out.iter().find(|d| d.code == "URT201").expect("URT201");
        assert_eq!(dead.path, "m/s.dport:y");
        assert_eq!(dead.severity, Severity::Warning);
    }

    #[test]
    fn writers_are_counted_through_relays() {
        // src.y feeds g.u directly and through the relay c.d.
        let mut b = ModelBuilder::new("m");
        let c = b.capsule("c");
        let src = b.streamer("src", "rk4");
        let g = b.streamer("g", "rk4");
        b.capsule_dport(c, "d", FlowType::scalar());
        b.streamer_out(src, "y", FlowType::scalar());
        b.streamer_in(g, "u", FlowType::scalar());
        b.flow(FlowEnd::Streamer(src, "y".into()), FlowEnd::Capsule(c, "d".into()));
        b.flow(FlowEnd::Capsule(c, "d".into()), FlowEnd::Streamer(g, "u".into()));
        b.flow_between_streamers(src, "y", g, "u");
        let mut out = Vec::new();
        run(&b.build(), &mut out);
        let d = out.iter().find(|d| d.code == "URT005").expect("URT005");
        assert_eq!((d.severity, d.path.as_str()), (Severity::Error, "m/g.dport:u"));
        assert!(d.message.contains("2 writers"), "{}", d.message);
    }

    #[test]
    fn isolated_elements_reported_as_info() {
        let mut b = ModelBuilder::new("m");
        b.capsule("ghost");
        b.streamer("adrift", "rk4");
        let mut out = Vec::new();
        run(&b.build(), &mut out);
        let infos: Vec<&Diagnostic> = out.iter().filter(|d| d.code == "URT209").collect();
        assert_eq!(infos.len(), 2);
        assert!(infos.iter().all(|d| d.severity == Severity::Info));
    }

    #[test]
    fn clean_model_passes_quietly() {
        let mut b = ModelBuilder::new("clean");
        let s1 = b.streamer("s1", "rk4");
        let s2 = b.streamer("s2", "rk4");
        b.streamer_out(s1, "y", FlowType::scalar());
        b.streamer_in(s2, "u", FlowType::scalar());
        b.flow_between_streamers(s1, "y", s2, "u");
        b.streamer_feedthrough(s2, false);
        let mut out = Vec::new();
        run(&b.build(), &mut out);
        assert!(out.is_empty(), "clean model: {out:#?}");
    }
}
