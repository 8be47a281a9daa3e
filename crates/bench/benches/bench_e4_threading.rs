//! E4 bench: simulating 100 ms of k Van der Pol streamers under each
//! thread-assignment policy.
//!
//! Runs on the in-tree [`urt_bench::timer`] harness.

use urt_bench::vdp_grouping_system;
use urt_core::engine::{EngineConfig, HybridEngine};
use urt_core::threading::{GroupingPolicy, ThreadPolicy};

const POLICIES: [(&str, GroupingPolicy, ThreadPolicy); 4] = [
    ("local", GroupingPolicy::Single, ThreadPolicy::CurrentThread),
    ("single-thread", GroupingPolicy::Single, ThreadPolicy::DedicatedThreads),
    ("grouped-4", GroupingPolicy::Grouped(4), ThreadPolicy::DedicatedThreads),
    ("per-streamer", GroupingPolicy::PerStreamer, ThreadPolicy::DedicatedThreads),
];

fn make_engine(n: usize, grouping: GroupingPolicy, policy: ThreadPolicy) -> HybridEngine {
    let compiled = vdp_grouping_system(n, grouping, 1e-4);
    HybridEngine::from_compiled(&compiled, EngineConfig { step: 1e-3, policy }).expect("engine")
}

fn main() {
    use urt_bench::timer::{bench_batched, report_header};

    println!("{}", report_header());
    for n in [4usize, 16] {
        for (label, grouping, policy) in POLICIES {
            let report = bench_batched(
                &format!("e4_threading/{label}/{n}"),
                10,
                || make_engine(n, grouping, policy),
                |mut e| e.run_until(0.1).expect("run"),
            );
            println!("{report}");
        }
    }
}
