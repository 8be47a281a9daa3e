//! E3 bench: executing a Kühl-translated capsule network versus the same
//! diagram compiled into one native streamer.
//!
//! Runs on the in-tree [`urt_bench::timer`] harness.

use urt_baselines::kuhl::translate_diagram;
use urt_bench::{feedback_diagram, native_diagram_model};
use urt_core::engine::{EngineConfig, HybridEngine};
use urt_core::threading::ThreadPolicy;

fn main() {
    use urt_bench::timer::{bench, bench_batched, report_header};

    println!("{}", report_header());
    for n in [2usize, 8] {
        let report = bench_batched(
            &format!("e3_translation/kuhl_capsules_10steps/{n}"),
            20,
            || {
                let (mut controller, _) =
                    translate_diagram(feedback_diagram(n), 0.01).expect("translate");
                controller.start().expect("start");
                controller
            },
            |mut controller| {
                let t = controller.now();
                controller.run_until(t + 0.1).expect("run");
            },
        );
        println!("{report}");

        // The diagram exposes one output per loop.
        let compiled = native_diagram_model(n, move || feedback_diagram(n));
        let config = EngineConfig { step: 0.01, policy: ThreadPolicy::CurrentThread };
        let mut engine = HybridEngine::from_compiled(&compiled, config).expect("engine");
        let report = bench(&format!("e3_translation/native_streamer_10steps/{n}"), 200, || {
            for _ in 0..10 {
                engine.step_once().expect("step");
            }
        });
        println!("{report}");
    }
}
