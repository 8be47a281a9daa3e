//! State-machine lints over the declarative [`SmSpec`] attached to
//! capsules: missing initial states (`URT205`), specs the machine build
//! refuses (the same [`inert_machine`] `elaborate` runs, so its code:
//! `URT110` or `URT114`), unreachable states (`URT203`) and transitions
//! triggered by signals no connected protocol can deliver (`URT204`).
//!
//! The deliverability lint is deliberately conservative: a trigger is only
//! flagged when its port names a **declared** capsule SPort whose protocol
//! is registered on the model and that protocol lacks the signal on the
//! incoming side. Triggers on undeclared ports — e.g. the runtime's
//! reserved `timer` port — are skipped, not flagged.

use crate::diagnostic::{Diagnostic, Severity};
use crate::model_pass::strip_code;
use urt_core::elaborate::inert_machine;
use urt_core::model::UnifiedModel;
use urt_umlrt::statemachine::SmSpec;

/// Runs the state-machine pass over every capsule machine in `model`.
pub fn run(model: &UnifiedModel, out: &mut Vec<Diagnostic>) {
    for (cref, cname) in model.iter_capsules() {
        let Some(spec) = model.capsule_machine(cref) else { continue };
        // Paths are formatted only for a finding.
        let base = || format!("{}/{cname}.sm", model.name());
        let error = |code, message: String, hint: &str| {
            Diagnostic::new(code, Severity::Error, base(), message).suggest(hint)
        };
        // The build refuses a missing or undeclared initial state too;
        // URT205 names those.
        match (&spec.initial, inert_machine(spec)) {
            (None, _) => out.push(error(
                "URT205",
                format!("state machine `{}` has no initial state", spec.name),
                "mark one state as initial",
            )),
            (Some(init), _) if spec.find_state(init).is_none() => out.push(error(
                "URT205",
                format!(
                    "initial state `{init}` of machine `{}` is not a declared state",
                    spec.name
                ),
                "point the initial marker at a declared state",
            )),
            (_, Err(e)) => out.push(error(
                e.code(),
                format!("machine `{}`: {}", spec.name, strip_code(&e.to_string())),
                "declare every state a transition, parent or initial child names, once",
            )),
            (Some(init), Ok(_)) => {
                for state in unreachable_states(spec, init) {
                    out.push(
                        Diagnostic::new(
                            "URT203",
                            Severity::Warning,
                            format!("{}:{state}", base()),
                            format!(
                                "state `{state}` of machine `{}` is unreachable from `{init}`",
                                spec.name
                            ),
                        )
                        .suggest("add a transition into the state or delete it"),
                    );
                }
            }
        }

        undeliverable_triggers(model, cref, cname, spec, out);
    }
}

/// States that no transition/initial-entry chain can activate.
///
/// Entering a state activates its ancestors and descends composite
/// states through their `initial_child` chain; a transition fires from
/// any reachable source state.
fn unreachable_states(spec: &SmSpec, init: &str) -> Vec<String> {
    let mut reached = vec![false; spec.states.len()];
    if let Some(init) = index(spec, init) {
        enter(spec, init, &mut reached);
    }
    // Worklist to a fixpoint: any transition whose source is active can
    // fire and activate its target. An undeclared target activates
    // nothing, so only a newly entered target goes round again.
    loop {
        let mut grew = false;
        for t in &spec.transitions {
            if index(spec, &t.source).is_some_and(|i| reached[i]) {
                if let Some(target) = t.target.as_deref().and_then(|t| index(spec, t)) {
                    if !reached[target] {
                        enter(spec, target, &mut reached);
                        grew = true;
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }
    spec.states.iter().zip(reached).filter(|(_, r)| !r).map(|(s, _)| s.name.clone()).collect()
}

/// The position of state `name` in `spec`.
fn index(spec: &SmSpec, name: &str) -> Option<usize> {
    spec.states.iter().position(|s| s.name == name)
}

/// Activates `state`, its ancestors, and its default-child chain.
fn enter(spec: &SmSpec, state: usize, reached: &mut [bool]) {
    // Ancestor chain upward.
    let mut cur = Some(state);
    while let Some(i) = cur {
        if std::mem::replace(&mut reached[i], true) {
            break;
        }
        cur = spec.states[i].parent.as_deref().and_then(|p| index(spec, p));
    }
    // Default-entry chain downward.
    let mut cur = spec.states[state].initial_child.as_deref();
    while let Some(i) = cur.and_then(|child| index(spec, child)) {
        if std::mem::replace(&mut reached[i], true) {
            break;
        }
        cur = spec.states[i].initial_child.as_deref();
    }
}

/// `URT204`: transitions waiting on signals their port's protocol cannot
/// deliver to the capsule.
fn undeliverable_triggers(
    model: &UnifiedModel,
    cref: urt_core::model::CapsuleRef,
    cname: &str,
    spec: &SmSpec,
    out: &mut Vec<Diagnostic>,
) {
    let sports = model.capsule_sports(cref);
    if model.iter_protocols().next().is_none() {
        return; // No protocol registry: nothing to check against.
    }
    for t in &spec.transitions {
        let deliverable = if t.port == "*" {
            // Any declared sport with a registered protocol may deliver.
            let known: Vec<_> =
                sports.iter().filter_map(|(_, proto)| model.protocol(proto)).collect();
            if known.is_empty() {
                continue;
            }
            known.iter().any(|p| p.in_signal(&t.signal).is_some())
        } else {
            // Skip undeclared ports (reserved runtime ports like `timer`).
            let Some((_, proto_name)) = sports.iter().find(|(n, _)| n == &t.port) else {
                continue;
            };
            let Some(proto) = model.protocol(proto_name) else { continue };
            proto.in_signal(&t.signal).is_some()
        };
        if !deliverable {
            out.push(
                Diagnostic::new(
                    "URT204",
                    Severity::Warning,
                    format!("{}/{cname}.sm:{}", model.name(), t.source),
                    format!(
                        "transition from `{}` waits for signal `{}` on port `{}` of capsule `{cname}`, but no connected protocol delivers it",
                        t.source, t.signal, t.port
                    ),
                )
                .suggest("add the signal to the port's protocol or fix the trigger"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urt_core::model::ModelBuilder;
    use urt_umlrt::protocol::{PayloadKind, Protocol};

    fn run_over(spec: SmSpec) -> Vec<Diagnostic> {
        let mut b = ModelBuilder::new("m");
        let c = b.capsule("ctl");
        b.capsule_machine(c, spec);
        let mut out = Vec::new();
        run(&b.build(), &mut out);
        out
    }

    #[test]
    fn missing_initial_is_an_error() {
        let out = run_over(SmSpec::new("sm").state("a"));
        let d = out.iter().find(|d| d.code == "URT205").expect("URT205");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("no initial state"));

        let out = run_over(SmSpec::new("sm").state("a").initial("ghost"));
        let d = out.iter().find(|d| d.code == "URT205").expect("URT205");
        assert!(d.message.contains("ghost"));
    }

    #[test]
    fn unreachable_states_found_through_hierarchy() {
        let spec = SmSpec::new("sm")
            .state("off")
            .state("on")
            .substate("warm", "on")
            .substate("hot", "on")
            .initial("off")
            .initial_child("on", "warm")
            .on("off", ("ctl", "start"), "on")
            .on("warm", ("ctl", "heat"), "hot");
        let out = run_over(spec);
        assert!(out.is_empty(), "all states reachable: {out:#?}");

        let spec = SmSpec::new("sm")
            .state("idle")
            .state("orphan")
            .initial("idle")
            .internal("idle", ("ctl", "ping"));
        let out = run_over(spec);
        let d = out.iter().find(|d| d.code == "URT203").expect("URT203");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.path, "m/ctl.sm:orphan");
    }

    #[test]
    fn analyze_returns_on_an_undeclared_transition_target() {
        // The reachability fixpoint once went round forever on a target
        // it could not enter; a hang fails here instead of stalling.
        let spec = SmSpec::new("m").state("a").initial("a").on("a", ("p", "go"), "ghost");
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut b = ModelBuilder::new("m");
            let c = b.capsule("ctl");
            b.capsule_machine(c, spec.clone());
            tx.send((crate::analyze(&b.build()), unreachable_states(&spec, "a"))).unwrap();
        });
        let (diags, unreachable) =
            rx.recv_timeout(std::time::Duration::from_secs(10)).expect("analyze returns");
        let d = diags.iter().find(|d| d.code == "URT110").expect("the build refuses it");
        assert_eq!((d.severity, d.path.as_str()), (Severity::Error, "m/ctl.sm"));
        assert!(d.message.contains("unknown state `ghost`"), "{}", d.message);
        assert!(unreachable.is_empty(), "{unreachable:?}");
    }

    #[test]
    fn every_spec_the_machine_build_refuses_is_an_error() {
        let base = || SmSpec::new("m").state("a").initial("a");
        let refused = [
            (base().on("ghost", ("p", "go"), "a"), "URT110", "unknown state `ghost`"),
            (base().substate("b", "ghost"), "URT114", "state `b` has an undeclared parent"),
            (base().initial_child("a", "ghost"), "URT110", "unknown state `ghost`"),
            (base().state("a"), "URT110", "duplicate state `a`"),
            (base().internal("ghost", ("p", "go")), "URT110", "unknown state `ghost`"),
        ];
        for (spec, code, needle) in refused {
            let out = run_over(spec);
            let errors: Vec<_> = out.iter().filter(|d| d.severity == Severity::Error).collect();
            assert_eq!(errors.len(), 1, "{needle}: {out:#?}");
            assert_eq!(errors[0].code, code, "{needle}: {out:#?}");
            assert!(errors[0].message.contains(needle), "{needle}: {out:#?}");
            // The reachability lint reads no spec the build refused.
            assert!(!out.iter().any(|d| d.code == "URT203"), "{needle}: {out:#?}");
        }
    }

    #[test]
    fn undeliverable_trigger_flagged_only_for_declared_sports() {
        let spec = SmSpec::new("sm")
            .state("idle")
            .initial("idle")
            .internal("idle", ("ctl", "ghost_signal"))
            .internal("idle", ("timer", "tick"));
        let mut b = ModelBuilder::new("m");
        let c = b.capsule("ctl_capsule");
        b.capsule_sport(c, "ctl", "Ctl");
        b.declare_protocol(Protocol::new("Ctl").with_in("go", PayloadKind::Empty));
        b.capsule_machine(c, spec);
        let mut out = Vec::new();
        run(&b.build(), &mut out);
        let flagged: Vec<&Diagnostic> = out.iter().filter(|d| d.code == "URT204").collect();
        assert_eq!(flagged.len(), 1, "only the declared-sport trigger: {out:#?}");
        assert!(flagged[0].message.contains("ghost_signal"));
        // The reserved `timer` port is skipped, not flagged.
        assert!(!out.iter().any(|d| d.message.contains("timer")));
    }

    #[test]
    fn deliverable_trigger_is_clean() {
        let spec = SmSpec::new("sm").state("idle").initial("idle").internal("idle", ("ctl", "go"));
        let mut b = ModelBuilder::new("m");
        let c = b.capsule("ctl_capsule");
        b.capsule_sport(c, "ctl", "Ctl");
        b.declare_protocol(Protocol::new("Ctl").with_in("go", PayloadKind::Empty));
        b.capsule_machine(c, spec);
        let mut out = Vec::new();
        run(&b.build(), &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }
}
