//! E1 bench: per-step cost of each solver strategy on the Van der Pol
//! benchmark problem (the cost axis of the accuracy/cost table).
//!
//! Runs on the in-tree [`urt_bench::timer`] harness.

use urt_ode::solver::SolverKind;
use urt_ode::system::library::VanDerPol;

fn main() {
    use std::hint::black_box;
    use urt_bench::timer::{bench, report_header};

    let sys = VanDerPol { mu: 2.0 };
    println!("{}", report_header());
    for kind in SolverKind::ALL {
        let mut solver = kind.create();
        let mut x = [2.0, 0.0];
        let mut t = 0.0;
        let report = bench(&format!("e1_solvers/step/{kind}"), 10_000, || {
            let out = solver.step(&sys, t, black_box(&mut x), 1e-3).expect("step");
            if out.accepted {
                t += out.h_taken;
            }
        });
        println!("{report}");
    }
}
