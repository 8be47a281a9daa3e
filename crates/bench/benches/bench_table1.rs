//! Table 1 bench: stereotype registry rendering and lookups (the cost of
//! the modeling-surface metadata is negligible — this pins that claim).
//!
//! Runs on the in-tree [`urt_bench::timer`] harness.

use urt_core::stereotype::{render_table1, Stereotype};

fn main() {
    use std::hint::black_box;
    use urt_bench::timer::{bench, report_header};

    println!("{}", report_header());
    let report = bench("table1/render", 5_000, || {
        black_box(render_table1());
    });
    println!("{report}");
    let report = bench("table1/lookup_all", 10_000, || {
        for s in Stereotype::ALL {
            black_box(s.base_construct());
            black_box(s.implemented_in());
        }
    });
    println!("{report}");
}
