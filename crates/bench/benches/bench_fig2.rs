//! Figure 2 bench: engine step and compile cost of the Figure 2 model and
//! of streamer chains of growing size (the abstract syntax scaled up),
//! through `model → compile → engine`.
//!
//! Runs on the in-tree [`urt_bench::timer`] harness.

use urt_bench::{chain_model, fig2_model};
use urt_core::engine::{EngineConfig, HybridEngine};
use urt_core::threading::ThreadPolicy;

fn main() {
    use urt_bench::timer::{bench, report_header};

    println!("{}", report_header());
    let config = EngineConfig { step: 1e-3, policy: ThreadPolicy::CurrentThread };

    let mut engine = HybridEngine::from_compiled(&fig2_model(false), config).expect("engine");
    let report = bench("fig2/fig2_exact_topology_step", 10_000, || {
        engine.step_once().expect("step");
    });
    println!("{report}");

    for n in [4usize, 16, 64] {
        let mut engine = HybridEngine::from_compiled(&chain_model(n), config).expect("engine");
        let report = bench(&format!("fig2/chain_step/{n}"), 2_000, || {
            engine.step_once().expect("step");
        });
        println!("{report}");
        let report = bench(&format!("fig2/chain_compile/{n}"), 200, || {
            std::hint::black_box(chain_model(n));
        });
        println!("{report}");
    }
}
