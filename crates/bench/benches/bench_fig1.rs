//! Figure 1 bench: what does the Strategy indirection cost? Monomorphic
//! RK4 stepping versus the same solver behind `Box<dyn Solver>` (the
//! pattern the paper's architecture relies on).
//!
//! Runs on the in-tree [`urt_bench::timer`] harness.

use urt_ode::solver::{Rk4, Solver, SolverKind};
use urt_ode::system::library::VanDerPol;

fn main() {
    use std::hint::black_box;
    use urt_bench::timer::{bench, report_header};

    let sys = VanDerPol { mu: 1.5 };
    println!("{}", report_header());

    let mut solver = Rk4::new();
    let mut x = [2.0, 0.0];
    let mut t = 0.0;
    let report = bench("fig1_strategy/monomorphic_rk4", 10_000, || {
        solver.step(&sys, t, black_box(&mut x), 1e-3).expect("step");
        t += 1e-3;
    });
    println!("{report}");

    let mut solver: Box<dyn Solver + Send> = SolverKind::Rk4.create();
    let mut x = [2.0, 0.0];
    let mut t = 0.0;
    let report = bench("fig1_strategy/dyn_strategy_rk4", 10_000, || {
        solver.step(&sys, t, black_box(&mut x), 1e-3).expect("step");
        t += 1e-3;
    });
    println!("{report}");
}
