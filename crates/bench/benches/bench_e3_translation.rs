//! E3 bench: executing a Kühl-translated capsule network versus the same
//! diagram compiled into one native streamer.
//!
//! Runs on the in-tree [`urt_bench::timer`] harness.

use urt_baselines::kuhl::translate_diagram;
use urt_bench::feedback_diagram;
use urt_dataflow::flowtype::FlowType;
use urt_dataflow::graph::StreamerNetwork;

fn main() {
    use std::hint::black_box;
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

        let mut net = StreamerNetwork::new("native");
        let streamer = feedback_diagram(n).into_streamer("plant").expect("compile");
        // The diagram exposes one output per loop.
        let outs: Vec<(String, FlowType)> =
            (0..n).map(|i| (format!("y{i}"), FlowType::scalar())).collect();
        let outs_ref: Vec<(&str, FlowType)> =
            outs.iter().map(|(s, t)| (s.as_str(), t.clone())).collect();
        net.add_streamer(streamer, &[], &outs_ref).expect("add");
        net.initialize(0.0).expect("init");
        let report = bench(&format!("e3_translation/native_streamer_10steps/{n}"), 200, || {
            for _ in 0..10 {
                net.step(black_box(0.01)).expect("step");
            }
        });
        println!("{report}");
    }
}
