//! Figure 3 bench: hybrid model step throughput — a capsule supervising
//! streamers through the engine, the paper's end-to-end structure.
//!
//! Runs on the in-tree [`urt_bench::timer`] harness.

use urt_bench::lag_system;
use urt_core::engine::{EngineConfig, HybridEngine};
use urt_core::threading::ThreadPolicy;

fn engine() -> HybridEngine {
    let config = EngineConfig { step: 1e-3, policy: ThreadPolicy::CurrentThread };
    HybridEngine::from_compiled(&lag_system(1e-4), config).expect("engine")
}

fn main() {
    use std::hint::black_box;
    use urt_bench::timer::{bench, bench_batched, report_header};

    println!("{}", report_header());

    let mut e = engine();
    let report = bench("fig3_hybrid/engine_macro_step", 5_000, || {
        black_box(&mut e).step_once().expect("step");
    });
    println!("{report}");

    let report = bench_batched("fig3_hybrid/engine_run_10ms", 100, engine, |mut e| {
        e.run_until(0.01).expect("run");
    });
    println!("{report}");
}
