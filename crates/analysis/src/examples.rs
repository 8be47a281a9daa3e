//! Built-in demo models for `urt-lint` and the analyzer's own tests.
//!
//! [`all`] returns the clean catalogue — every model lints with **zero
//! error diagnostics** (warnings are allowed); [`seeded_violations`]
//! returns a deliberately broken model that trips at least three distinct
//! rules (flow-type subset, algebraic loop, unreachable state) for
//! exercising the collected-diagnostics path, [`seeded_cross_loop`]
//! a zero-delay algebraic loop spanning two thread groups that only the
//! whole-model analyzer (not fail-fast `validate()`) can refuse, and
//! [`seeded_over_budget`] a structurally sound model whose declared
//! worst-case step cost exceeds its real-time budget — `validate()`
//! passes, the static timing pass (`URT301`) refuses it — and
//! [`seeded_unrealisable`] a supervisor no running system can realise.

use urt_core::model::{BudgetScope, FlowEnd, ModelBuilder, UnifiedModel};
use urt_dataflow::flowtype::{FlowType, Unit};
use urt_umlrt::protocol::{PayloadKind, Protocol};
use urt_umlrt::statemachine::SmSpec;

/// Names of the clean built-in models, in catalogue order.
pub const NAMES: &[&str] =
    &["demo", "fig2", "fig3", "cruise-control", "tank-level", "inverted-pendulum", "bouncing-ball"];

/// Names of the seeded negative models, each refused by the analyzer.
pub const SEEDED: &[&str] =
    &["seeded-violations", "seeded-cross-loop", "seeded-over-budget", "seeded-unrealisable"];

/// The clean catalogue as `(name, model)` pairs.
pub fn all() -> Vec<(&'static str, UnifiedModel)> {
    NAMES.iter().map(|&n| (n, by_name(n).expect("catalogue name"))).collect()
}

/// Looks up a built-in model by name (the clean catalogue plus the
/// [`SEEDED`] models).
pub fn by_name(name: &str) -> Option<UnifiedModel> {
    match name {
        "demo" => Some(demo()),
        "fig2" => Some(fig2()),
        "fig3" => Some(fig3()),
        "cruise-control" => Some(cruise_control()),
        "tank-level" => Some(tank_level()),
        "inverted-pendulum" => Some(inverted_pendulum()),
        "bouncing-ball" => Some(bouncing_ball()),
        "seeded-violations" => Some(seeded_violations()),
        "seeded-cross-loop" => Some(seeded_cross_loop()),
        "seeded-over-budget" => Some(seeded_over_budget()),
        "seeded-unrealisable" => Some(seeded_unrealisable()),
        _ => None,
    }
}

/// Supervisor capsule over a plant/filter/recorder chain.
pub fn demo() -> UnifiedModel {
    let mut b = ModelBuilder::new("demo");
    let sup = b.capsule("supervisor");
    let plant = b.streamer("plant", "rk4");
    let filter = b.streamer("filter", "euler");
    let recorder = b.streamer("recorder", "euler");
    b.contain_streamer_in_capsule(plant, sup);
    b.streamer_out(plant, "y", FlowType::with_unit(Unit::Meter));
    b.streamer_in(filter, "u", FlowType::with_unit(Unit::Meter));
    b.streamer_out(filter, "smoothed", FlowType::with_unit(Unit::Meter));
    b.streamer_in(recorder, "u", FlowType::with_unit(Unit::Meter));
    b.flow_between_streamers(plant, "y", filter, "u");
    b.flow_between_streamers(filter, "smoothed", recorder, "u");
    b.streamer_feedthrough(plant, false); // integrates its state
                                          // The plant->filter flow crosses thread groups (0 -> 1): the filter
                                          // must be non-feedthrough so the channel's one-step delay is sound.
    b.streamer_feedthrough(filter, false);
    b.declare_protocol(
        Protocol::new("PlantCtl")
            .with_in("start", PayloadKind::Empty)
            .with_in("stop", PayloadKind::Empty),
    );
    b.capsule_sport(sup, "ctl", "PlantCtl");
    b.streamer_sport(plant, "ctl", "PlantCtl");
    b.sport_link(sup, "ctl", plant, "ctl");
    b.capsule_machine(
        sup,
        SmSpec::new("supervisor_sm")
            .state("idle")
            .state("running")
            .initial("idle")
            .on("idle", ("ctl", "start"), "running")
            .on("running", ("ctl", "stop"), "idle"),
    );
    b.assign_thread(plant, 0);
    b.assign_thread(filter, 1);
    b.assign_thread(recorder, 1);
    b.build()
}

/// The paper's Figure 2: a top streamer with relayed sub-streamer flows.
pub fn fig2() -> UnifiedModel {
    let mut b = ModelBuilder::new("fig2");
    let top = b.streamer("top", "rk4");
    let sub1 = b.streamer("sub1", "rk4");
    let sub2 = b.streamer("sub2", "euler");
    let sub3 = b.streamer("sub3", "euler");
    b.contain_streamer(sub1, top);
    b.contain_streamer(sub2, top);
    b.contain_streamer(sub3, top);
    b.streamer_out(sub1, "y", FlowType::scalar());
    b.streamer_in(sub2, "u", FlowType::scalar());
    b.streamer_in(sub3, "u", FlowType::scalar());
    b.flow_between_streamers(sub1, "y", sub2, "u");
    b.flow_between_streamers(sub1, "y", sub3, "u");
    b.streamer_sport(top, "ctl", "StreamCtl");
    // Recorded in the CI smokes (and bit-compared between the standalone
    // engine and ensemble instance 0).
    b.probe(sub1, "y", "fig2.sub1.y");
    // Real-time budget: 100 us per macro step, comfortably met by the
    // calibrated solver costs — exercised by `urt-lint --budget-report`.
    b.declare_budget(BudgetScope::Model, 100_000.0);
    b.build()
}

/// The paper's Figure 3: a top capsule containing a sub-capsule and two
/// streamers, with a relay DPort on the sub-capsule.
pub fn fig3() -> UnifiedModel {
    let mut b = ModelBuilder::new("fig3");
    let top = b.capsule("top");
    let sub = b.capsule("sub");
    let s1 = b.streamer("streamer1", "rk4");
    let s2 = b.streamer("streamer2", "rk4");
    b.contain_capsule(sub, top);
    b.contain_streamer_in_capsule(s1, top);
    b.contain_streamer_in_capsule(s2, sub);
    b.streamer_out(s1, "y", FlowType::scalar());
    b.streamer_in(s2, "u", FlowType::scalar());
    b.capsule_dport(sub, "d", FlowType::scalar());
    b.flow(FlowEnd::Streamer(s1, "y".into()), FlowEnd::Capsule(sub, "d".into()));
    b.flow(FlowEnd::Capsule(sub, "d".into()), FlowEnd::Streamer(s2, "u".into()));
    b.streamer_feedthrough(s2, false);
    // Recorded in the CI smokes (and bit-compared between the standalone
    // engine and ensemble instance 0).
    b.probe(s1, "y", "fig3.streamer1.y");
    b.build()
}

/// Cruise control: vehicle/controller loop broken by the vehicle
/// integrator, supervised by a capsule state machine.
pub fn cruise_control() -> UnifiedModel {
    let mut b = ModelBuilder::new("cruise-control");
    let ctl = b.capsule("cruise_ctl");
    let vehicle = b.streamer("vehicle", "rk4");
    let controller = b.streamer("controller", "euler");
    b.streamer_in(vehicle, "force", FlowType::with_unit(Unit::Newton));
    b.streamer_out(vehicle, "speed", FlowType::with_unit(Unit::MeterPerSecond));
    b.streamer_in(controller, "speed", FlowType::with_unit(Unit::MeterPerSecond));
    b.streamer_out(controller, "force", FlowType::with_unit(Unit::Newton));
    // The measured speed relays through the supervising capsule.
    b.capsule_dport(ctl, "speed_tap", FlowType::with_unit(Unit::MeterPerSecond));
    b.flow(FlowEnd::Streamer(vehicle, "speed".into()), FlowEnd::Capsule(ctl, "speed_tap".into()));
    b.flow(
        FlowEnd::Capsule(ctl, "speed_tap".into()),
        FlowEnd::Streamer(controller, "speed".into()),
    );
    b.flow_between_streamers(controller, "force", vehicle, "force");
    b.streamer_feedthrough(vehicle, false); // speed integrates force
                                            // vehicle and controller sit on different threads: the controller
                                            // reads the previous step's speed sample through the cross-group
                                            // channel, so it must be non-feedthrough too.
    b.streamer_feedthrough(controller, false);
    b.declare_protocol(
        Protocol::new("CruiseCtl")
            .with_in("set", PayloadKind::Real)
            .with_in("cancel", PayloadKind::Empty)
            .with_in("resume", PayloadKind::Empty),
    );
    b.capsule_sport(ctl, "cmd", "CruiseCtl");
    b.streamer_sport(controller, "cmd", "CruiseCtl");
    b.sport_link(ctl, "cmd", controller, "cmd");
    b.capsule_machine(
        ctl,
        SmSpec::new("cruise_sm")
            .state("off")
            .state("engaged")
            .substate("holding", "engaged")
            .substate("resuming", "engaged")
            .initial("off")
            .initial_child("engaged", "holding")
            .on("off", ("cmd", "set"), "engaged")
            .on("engaged", ("cmd", "cancel"), "off")
            .on("off", ("cmd", "resume"), "resuming"),
    );
    b.assign_thread(vehicle, 0);
    b.assign_thread(controller, 1);
    b.build()
}

/// Tank level regulation with an alarm-supervising capsule.
pub fn tank_level() -> UnifiedModel {
    let mut b = ModelBuilder::new("tank-level");
    let monitor = b.capsule("tank_monitor");
    let tank = b.streamer("tank", "rk4");
    let valve = b.streamer("valve", "euler");
    b.streamer_in(tank, "inflow", FlowType::scalar());
    b.streamer_out(tank, "level", FlowType::with_unit(Unit::Meter));
    b.streamer_in(valve, "level", FlowType::with_unit(Unit::Meter));
    b.streamer_out(valve, "inflow", FlowType::scalar());
    b.flow_between_streamers(tank, "level", valve, "level");
    b.flow_between_streamers(valve, "inflow", tank, "inflow");
    b.streamer_feedthrough(tank, false); // level integrates inflow
    b.declare_protocol(
        Protocol::new("TankAlarm")
            .with_in("high", PayloadKind::Real)
            .with_in("low", PayloadKind::Real)
            .with_in("reset", PayloadKind::Empty),
    );
    b.capsule_sport(monitor, "alarm", "TankAlarm");
    b.streamer_sport(tank, "alarm", "TankAlarm");
    b.sport_link(monitor, "alarm", tank, "alarm");
    b.capsule_machine(
        monitor,
        SmSpec::new("alarm_sm")
            .state("normal")
            .state("alarmed")
            .initial("normal")
            .on("normal", ("alarm", "high"), "alarmed")
            .on("normal", ("alarm", "low"), "alarmed")
            .on("alarmed", ("alarm", "reset"), "normal"),
    );
    b.build()
}

/// Inverted pendulum stabilised by a state-feedback controller.
pub fn inverted_pendulum() -> UnifiedModel {
    let mut b = ModelBuilder::new("inverted-pendulum");
    let sup = b.capsule("balance_supervisor");
    let pendulum = b.streamer("pendulum", "rk4");
    let regulator = b.streamer("regulator", "euler");
    b.streamer_in(pendulum, "u", FlowType::with_unit(Unit::Newton));
    b.streamer_out(pendulum, "theta", FlowType::with_unit(Unit::Radian));
    b.streamer_in(regulator, "theta", FlowType::with_unit(Unit::Radian));
    b.streamer_out(regulator, "u", FlowType::with_unit(Unit::Newton));
    b.flow_between_streamers(pendulum, "theta", regulator, "theta");
    b.flow_between_streamers(regulator, "u", pendulum, "u");
    b.streamer_feedthrough(pendulum, false);
    b.declare_protocol(
        Protocol::new("Balance")
            .with_in("arm", PayloadKind::Empty)
            .with_in("halt", PayloadKind::Empty),
    );
    b.capsule_sport(sup, "ctl", "Balance");
    b.streamer_sport(regulator, "ctl", "Balance");
    b.sport_link(sup, "ctl", regulator, "ctl");
    b.capsule_machine(
        sup,
        SmSpec::new("balance_sm")
            .state("idle")
            .state("balancing")
            .initial("idle")
            .on("idle", ("ctl", "arm"), "balancing")
            .on("balancing", ("ctl", "halt"), "idle"),
    );
    b.build()
}

/// Bouncing ball with an event-monitoring capsule.
pub fn bouncing_ball() -> UnifiedModel {
    let mut b = ModelBuilder::new("bouncing-ball");
    let mon = b.capsule("bounce_monitor");
    let ball = b.streamer("ball", "rk4");
    let tracer = b.streamer("tracer", "euler");
    b.streamer_out(ball, "height", FlowType::with_unit(Unit::Meter));
    b.streamer_in(tracer, "height", FlowType::with_unit(Unit::Meter));
    b.flow_between_streamers(ball, "height", tracer, "height");
    b.streamer_feedthrough(ball, false);
    b.declare_protocol(Protocol::new("BounceDet").with_in("bounce", PayloadKind::Real));
    b.capsule_sport(mon, "det", "BounceDet");
    b.streamer_sport(ball, "det", "BounceDet");
    b.sport_link(mon, "det", ball, "det");
    b.capsule_machine(
        mon,
        SmSpec::new("bounce_sm")
            .state("watching")
            .initial("watching")
            .internal("watching", ("det", "bounce")),
    );
    b.build()
}

/// A model seeded with three distinct rule violations: a flow-type
/// subset break (`URT105`), an algebraic loop (`URT007`) and an
/// unreachable state (`URT203`).
pub fn seeded_violations() -> UnifiedModel {
    let mut b = ModelBuilder::new("seeded");
    let ctl = b.capsule("ctl");
    let s1 = b.streamer("s1", "rk4");
    let s2 = b.streamer("s2", "euler");
    b.streamer_out(s1, "y", FlowType::with_unit(Unit::Meter));
    b.streamer_in(s1, "u", FlowType::scalar());
    // URT105: Meter flows into a Kelvin input.
    b.streamer_in(s2, "u", FlowType::with_unit(Unit::Kelvin));
    b.streamer_out(s2, "y", FlowType::scalar());
    b.flow_between_streamers(s1, "y", s2, "u");
    // URT007: both streamers keep the default direct feedthrough.
    b.flow_between_streamers(s2, "y", s1, "u");
    // URT203: `orphan` has no incoming transition.
    b.capsule_machine(
        ctl,
        SmSpec::new("ctl_sm")
            .state("idle")
            .state("orphan")
            .initial("idle")
            .internal("idle", ("ctl", "ping")),
    );
    b.build()
}

/// A model seeded with an **illegal zero-delay cross-group algebraic
/// loop**: two direct-feedthrough streamers on different threads feeding
/// each other (`URT007` + `URT207`). It passes the fail-fast
/// Table 1 `validate()` — only the whole-model analyzer catches it, so
/// `compile` refuses it before anything is lowered.
pub fn seeded_cross_loop() -> UnifiedModel {
    let mut b = ModelBuilder::new("seeded-cross-loop");
    let s1 = b.streamer("alpha", "rk4");
    let s2 = b.streamer("beta", "euler");
    b.streamer_out(s1, "y", FlowType::scalar());
    b.streamer_in(s1, "u", FlowType::scalar());
    b.streamer_out(s2, "y", FlowType::scalar());
    b.streamer_in(s2, "u", FlowType::scalar());
    b.flow_between_streamers(s1, "y", s2, "u");
    b.flow_between_streamers(s2, "y", s1, "u");
    // Both keep the default direct feedthrough; the loop crosses groups.
    b.assign_thread(s1, 0);
    b.assign_thread(s2, 1);
    b.build()
}

/// A model seeded with a **real-time budget violation**: two heavy
/// streamers whose declared worst-case step costs sum past the thread's
/// budget. Structurally flawless — `validate()` passes — but the static
/// timing pass refuses it (`URT301`), and `URT304` recommends the
/// two-thread split that would meet the budget.
pub fn seeded_over_budget() -> UnifiedModel {
    let mut b = ModelBuilder::new("seeded-over-budget");
    let sensor = b.streamer("sensor_fusion", "heavy");
    let planner = b.streamer("planner", "heavy");
    b.streamer_out(sensor, "state", FlowType::scalar());
    b.streamer_in(planner, "state", FlowType::scalar());
    b.flow_between_streamers(sensor, "state", planner, "state");
    // Non-feedthrough consumer: the recommended cut is URT207-feasible.
    b.streamer_feedthrough(sensor, false);
    b.streamer_feedthrough(planner, false);
    // 80 us + 80 us of declared cost against a 100 us thread budget.
    b.declare_step_cost(sensor, 80_000.0);
    b.declare_step_cost(planner, 80_000.0);
    b.declare_budget(BudgetScope::Thread(0), 100_000.0);
    b.build()
}

/// A model seeded with **structure no running system can realise**: a
/// machine transition into an undeclared state (`URT110`) and two links
/// on one streamer SPort (`URT113`).
pub fn seeded_unrealisable() -> UnifiedModel {
    let mut b = ModelBuilder::new("seeded-unrealisable");
    let sup = b.capsule("supervisor");
    let plant = b.streamer("plant", "rk4");
    b.streamer_out(plant, "y", FlowType::scalar());
    b.streamer_feedthrough(plant, false);
    b.streamer_sport(plant, "ctl", "Ctl");
    for port in ["p", "q"] {
        b.capsule_sport(sup, port, "Ctl");
        b.sport_link(sup, port, plant, "ctl");
    }
    let sm = SmSpec::new("supervisor_sm").state("idle").initial("idle");
    b.capsule_machine(sup, sm.on("idle", ("p", "go"), "ghost"));
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_complete_and_validates() {
        for (name, model) in all() {
            assert_eq!(model.name(), name);
            model.validate().unwrap_or_else(|e| panic!("example `{name}`: {e}"));
        }
        assert!(SEEDED.iter().all(|name| by_name(name).is_some()));
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn seeded_over_budget_passes_validation_but_not_analysis() {
        // Structurally flawless: Table 1 cannot see time.
        seeded_over_budget().validate().expect("structure is sound");
        let diags = crate::analyze(&seeded_over_budget());
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"URT301"), "budget violation, got {codes:?}");
        assert!(codes.contains(&"URT304"), "partition recommendation, got {codes:?}");
        assert!(crate::has_errors(&diags));
    }

    #[test]
    fn seeded_unrealisable_is_refused_for_its_machine_and_its_links() {
        let err = seeded_unrealisable().validate().unwrap_err();
        assert_eq!(err.code(), "URT113", "{err}");
        let diags = crate::analyze(&seeded_unrealisable());
        let errors: Vec<&str> =
            diags.iter().filter(|d| d.severity == crate::Severity::Error).map(|d| d.code).collect();
        assert_eq!(errors, ["URT110", "URT113"], "{diags:#?}");
    }

    #[test]
    fn seeded_model_fails_validation() {
        assert!(seeded_violations().validate().is_err());
    }

    #[test]
    fn seeded_cross_loop_passes_validation_but_not_analysis() {
        // The fail-fast Table 1 check misses it...
        seeded_cross_loop().validate().expect("Table 1 rules alone cannot see the loop");
        // ...the whole-model analyzer does not.
        let diags = crate::analyze(&seeded_cross_loop());
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"URT007"), "algebraic loop, got {codes:?}");
        assert!(codes.contains(&"URT207"), "cross-group feedthrough, got {codes:?}");
    }
}
