//! Model-level passes: Table 1 well-formedness (collected) and graph
//! lints over the declarative flow topology.
//!
//! Capsule DPorts are relay-only (Figure 3), so for connectivity purposes
//! a capsule port is a pass-through: a chain
//! `streamer -> capsule.dport -> streamer` is one effective edge. The
//! algebraic-loop and thread-plan passes both work on these effective
//! streamer-to-streamer edges.

use crate::diagnostic::{Diagnostic, Severity};
use std::collections::{HashMap, HashSet, VecDeque};
use urt_core::model::{CapsuleRef, FlowEnd, Owner, StreamerRef, UnifiedModel};
use urt_dataflow::graph::topo_order;

/// Effective streamer-to-streamer edges with capsule relay chains
/// resolved.
pub(crate) fn effective_streamer_edges(model: &UnifiedModel) -> Vec<(StreamerRef, StreamerRef)> {
    #[derive(Clone, PartialEq, Eq, Hash)]
    enum Node {
        Streamer(StreamerRef),
        CapsulePort(CapsuleRef, String),
    }
    let key = |end: &FlowEnd| match end {
        FlowEnd::Streamer(s, _) => Node::Streamer(*s),
        FlowEnd::Capsule(c, p) => Node::CapsulePort(*c, p.clone()),
    };
    let mut adj: HashMap<Node, Vec<Node>> = HashMap::new();
    for (from, to) in model.iter_flows() {
        adj.entry(key(from)).or_default().push(key(to));
    }
    let mut edges = Vec::new();
    for (sref, _, _) in model.iter_streamers() {
        let mut seen = HashSet::new();
        let mut queue: VecDeque<Node> =
            adj.get(&Node::Streamer(sref)).cloned().unwrap_or_default().into();
        while let Some(node) = queue.pop_front() {
            if !seen.insert(node.clone()) {
                continue;
            }
            match node {
                Node::Streamer(target) => edges.push((sref, target)),
                Node::CapsulePort(..) => {
                    for next in adj.get(&node).into_iter().flatten() {
                        queue.push_back(next.clone());
                    }
                }
            }
        }
    }
    edges
}

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
        _ => None,
    }
}

/// Runs the model-level passes, appending findings to `out`.
pub fn run(model: &UnifiedModel, out: &mut Vec<Diagnostic>) {
    let mpath = model.name().to_string();

    // Pass 1: Table 1 well-formedness, collected instead of fail-fast.
    for e in model.violations() {
        let mut d = Diagnostic::new(e.code(), Severity::Error, &mpath, strip_code(&e.to_string()));
        if let Some(s) = suggestion_for(e.code()) {
            d = d.suggest(s);
        }
        out.push(d);
    }

    // Pass 2: graph lints over the declarative flow topology.
    unconnected_inputs(model, out);
    dead_outputs(model, out);
    algebraic_loops(model, out);
    isolated_elements(model, out);
}

/// `URT208`: streamer input DPorts no flow drives. A declarative model
/// has no export notion, so this is a warning, unlike the network-level
/// `URT006` error.
fn unconnected_inputs(model: &UnifiedModel, out: &mut Vec<Diagnostic>) {
    for (sref, name, _) in model.iter_streamers() {
        for (port, _) in model.streamer_in_dports(sref) {
            let driven = model
                .iter_flows()
                .any(|(_, to)| matches!(to, FlowEnd::Streamer(s, p) if *s == sref && p == port));
            if !driven {
                out.push(
                    Diagnostic::new(
                        "URT208",
                        Severity::Warning,
                        format!("{}/{name}.dport:{port}", model.name()),
                        format!("input DPort `{port}` of streamer `{name}` has no incoming flow"),
                    )
                    .suggest("connect a flow into this input or remove the port"),
                );
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

/// `URT007`: a cycle of direct-feedthrough streamers (relay chains
/// resolved) has no valid same-step evaluation order. One diagnostic
/// names every streamer on a cycle ([`topo_order`]), and no streamer
/// that only reads one.
fn algebraic_loops(model: &UnifiedModel, out: &mut Vec<Diagnostic>) {
    let streamers: Vec<StreamerRef> = model.iter_streamers().map(|(s, _, _)| s).collect();
    let index: HashMap<StreamerRef, usize> =
        streamers.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    // Only direct-feedthrough streamers propagate a same-step dependency;
    // an edge into a non-feedthrough streamer imposes no ordering.
    let edges: Vec<(usize, usize)> = effective_streamer_edges(model)
        .into_iter()
        .filter(|&(_, b)| model.streamer_feedthrough(b))
        .map(|(a, b)| (index[&a], index[&b]))
        .collect();
    if let Err(cycle) = topo_order(streamers.len(), &edges) {
        let names: Vec<&str> =
            cycle.into_iter().filter_map(|i| model.streamer_name(streamers[i])).collect();
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
    fn relay_chains_resolve_to_effective_edges() {
        // s1 -> c.d -> s2: one effective edge s1 -> s2.
        let mut b = ModelBuilder::new("relay");
        let c = b.capsule("c");
        let s1 = b.streamer("s1", "rk4");
        let s2 = b.streamer("s2", "rk4");
        b.contain_streamer_in_capsule(s2, c);
        b.capsule_dport(c, "d", FlowType::scalar());
        b.streamer_out(s1, "y", FlowType::scalar());
        b.streamer_in(s2, "u", FlowType::scalar());
        b.flow(FlowEnd::Streamer(s1, "y".into()), FlowEnd::Capsule(c, "d".into()));
        b.flow(FlowEnd::Capsule(c, "d".into()), FlowEnd::Streamer(s2, "u".into()));
        let model = b.build();
        assert_eq!(effective_streamer_edges(&model), vec![(s1, s2)]);
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
    fn unconnected_and_dead_ports_warned() {
        let mut b = ModelBuilder::new("m");
        let s = b.streamer("s", "rk4");
        b.streamer_in(s, "u", FlowType::scalar());
        b.streamer_out(s, "y", FlowType::scalar());
        let mut out = Vec::new();
        run(&b.build(), &mut out);
        let undriven = out.iter().find(|d| d.code == "URT208").expect("URT208");
        assert_eq!(undriven.path, "m/s.dport:u");
        assert_eq!(undriven.severity, Severity::Warning);
        let dead = out.iter().find(|d| d.code == "URT201").expect("URT201");
        assert_eq!(dead.path, "m/s.dport:y");
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
