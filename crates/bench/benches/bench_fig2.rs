//! Figure 2 bench: streamer-network validation and step cost versus
//! network size (the abstract syntax scaled up).
//!
//! Runs on the in-tree [`urt_bench::timer`] harness.

use urt_bench::{chain_network, fig2_network};

fn main() {
    use std::hint::black_box;
    use urt_bench::timer::{bench, bench_batched, report_header};

    println!("{}", report_header());

    let (mut net, _) = fig2_network();
    net.initialize(0.0).expect("init");
    let report = bench("fig2_network/fig2_exact_topology_step", 10_000, || {
        net.step(black_box(1e-3)).expect("step");
    });
    println!("{report}");

    for n in [4usize, 16, 64] {
        let mut net = chain_network(n);
        net.initialize(0.0).expect("init");
        let report = bench(&format!("fig2_network/chain_step/{n}"), 2_000, || {
            net.step(black_box(1e-3)).expect("step");
        });
        println!("{report}");
        let report = bench_batched(
            &format!("fig2_network/validate/{n}"),
            200,
            || chain_network(n),
            |mut net| {
                net.validate().expect("validate");
            },
        );
        println!("{report}");
    }
}
