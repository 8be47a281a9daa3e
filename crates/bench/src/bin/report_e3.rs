//! Experiment **E3** — translation cost: Kühl-style block-to-capsule
//! translation versus the paper's native streamer unification.
//!
//! Run with: `cargo run --release -p urt-bench --bin report_e3`

use urt_baselines::kuhl::{annotation_loss, measure_messages_per_step, translate_diagram};
use urt_bench::{feedback_diagram, native_diagram_model};
use urt_dataflow::flowtype::{FlowType, Unit};

fn main() {
    println!("E3. Kuhl translation vs native streamer (feedback PI loops)");
    println!();
    println!("| loops | blocks | kuhl capsules | kuhl ports | kuhl msg/step | native streamers |");
    println!("|-------|--------|---------------|------------|---------------|------------------|");
    for n_loops in [1usize, 4, 16, 32] {
        let diagram = feedback_diagram(n_loops);
        let blocks = diagram.block_count();
        let (mut controller, report) = translate_diagram(diagram, 0.01).expect("translate");
        let msg = measure_messages_per_step(&mut controller, 0.01, 20).expect("measure");

        // Native: the same diagram compiles into exactly one streamer
        // (with one output DPort per loop).
        let native = native_diagram_model(n_loops, move || feedback_diagram(n_loops));
        println!(
            "| {:<5} | {:<6} | {:<13} | {:<10} | {:<13.1} | {:<16} |",
            n_loops,
            blocks,
            report.capsule_count,
            report.port_count,
            msg,
            native.streamer_count()
        );
    }
    println!();

    // Information loss: typed flows flattened to untyped signals.
    let typed = [
        FlowType::with_unit(Unit::MeterPerSecond),
        FlowType::record([
            ("pos", FlowType::with_unit(Unit::Meter)),
            ("vel", FlowType::with_unit(Unit::MeterPerSecond)),
        ]),
        FlowType::Vector { len: 3, unit: Unit::Newton },
    ];
    println!("information loss when flows become untyped UML signals:");
    for t in &typed {
        println!("  {t:<46} loses {} annotations", annotation_loss(std::slice::from_ref(t)));
    }
    println!("  total: {} annotations erased", annotation_loss(&typed));
    println!();
    println!("expected shape: kuhl objects/ports/messages grow linearly with");
    println!("the diagram; the unified model stays at one streamer object and");
    println!("zero per-step messages, with no type information lost.");
}
