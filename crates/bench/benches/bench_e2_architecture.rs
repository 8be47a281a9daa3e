//! E2 bench: one macro step of each architecture under a fixed continuous
//! load (complements `report_e2`'s latency percentiles).
//!
//! Runs on the in-tree [`urt_bench::timer`] harness.

use urt_baselines::bichler::ArchitectureBenchmark;

fn main() {
    use std::hint::black_box;
    use urt_bench::timer::{bench, report_header};

    println!("{}", report_header());
    for n_systems in [4usize, 32] {
        let workload = ArchitectureBenchmark { n_systems, substeps: 16, n_steps: 20 };
        let report = bench(&format!("e2_architecture/rtc_integrated/{n_systems}"), 10, || {
            black_box(workload.run_rtc_integrated());
        });
        println!("{report}");
        let report = bench(&format!("e2_architecture/unified/{n_systems}"), 10, || {
            black_box(workload.run_unified());
        });
        println!("{report}");
    }
}
