//! E5 bench: cost of the two time services — the tick-quantised UML-RT
//! timer heap versus the continuous Time clock.
//!
//! Runs on the in-tree [`urt_bench::timer`] harness.

use urt_core::time::SimClock;
use urt_umlrt::capsule::TimerId;
use urt_umlrt::timing::TimerService;

fn loaded_service() -> TimerService {
    let mut svc = TimerService::new();
    svc.set_tick(0.001);
    for i in 0..64u64 {
        svc.schedule(0, TimerId(i), 0.0, 0.001 * i as f64, None, "t");
    }
    svc
}

fn main() {
    use std::hint::black_box;
    use urt_bench::timer::{bench, bench_batched, report_header};

    println!("{}", report_header());
    let report = bench_batched(
        "e5_time/timer_service_schedule_and_fire",
        1_000,
        loaded_service,
        |mut svc| {
            black_box(svc.pop_due(1.0));
        },
    );
    println!("{report}");

    let mut clock = SimClock::new();
    let report = bench("e5_time/sim_clock_tick", 10_000, || {
        clock.tick(black_box(1e-3));
        black_box(clock.seconds());
    });
    println!("{report}");

    let report = bench("e5_time/drift_closed_form", 10_000, || {
        black_box(SimClock::drift_against_ticks(0.015, 0.010, 1000));
    });
    println!("{report}");
}
