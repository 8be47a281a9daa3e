//! Seeded generator-loop bit-identity: the batched solver kernels
//! (`ForwardEuler`, `Rk4`) must produce, for every lane, exactly the
//! scalar [`Solver::step`] result — across random dimensions (1 to 12, so
//! lanes run both on fixed-size arrays, up to [`CONST_LANE_DIM`], and on
//! scratch slices beyond), lane counts (including single lanes and
//! remainders of the four-lane block), initial states, step sizes and
//! start times. Linear, affine and closure-backed systems all batch
//! through the default [`BatchOdeSystem::step_lanes`].
//!
//! [`Solver::step`]: urt_ode::solver::Solver::step
//! [`CONST_LANE_DIM`]: urt_ode::solver::CONST_LANE_DIM

use urt_ode::linalg::Matrix;
use urt_ode::rng::Pcg32;
use urt_ode::solver::SolverKind;
use urt_ode::system::{AffineSystem, FnSystem, LinearSystem};
use urt_ode::BatchOdeSystem;

const TRIALS: usize = 60;
const STEPS_PER_TRIAL: usize = 4;

/// Draws a random system: a linear, an affine or a mildly nonlinear
/// closure-backed one.
fn random_system(rng: &mut Pcg32, dim: usize) -> (Box<dyn BatchOdeSystem>, &'static str) {
    let a = Matrix::from_vec(dim, dim, rng.gen_vec_f64(dim * dim, -1.0, 1.0));
    match rng.gen_range_usize(0, 3) {
        0 => (Box::new(LinearSystem::new(a)), "linear"),
        1 => (Box::new(AffineSystem::new(a, rng.gen_vec_f64(dim, -1.0, 1.0))), "affine"),
        _ => (
            Box::new(FnSystem::new(dim, move |_t: f64, x: &[f64], dx: &mut [f64]| {
                for v in 0..x.len() {
                    dx[v] = -x[v] + 0.25 * x[(v + 1) % x.len()] * x[(v + 1) % x.len()];
                }
            })),
            "fn",
        ),
    }
}

#[test]
fn batched_kernels_are_bit_identical_across_random_shapes() {
    let mut rng = Pcg32::seed_from_u64(0xBA7C4ED);
    for trial in 0..TRIALS {
        let dim = rng.gen_range_usize(1, 13);
        // The first trials pin the shape classes that must never fall out
        // of coverage — a single lane, remainder lanes only, a block plus
        // a remainder, whole blocks only — then the generator takes over.
        let k = match trial {
            0 => 1,
            1 => 3,
            2 => 5,
            3 => 64,
            _ => rng.gen_range_usize(1, 66),
        };
        let (sys, sys_name) = random_system(&mut rng, dim);
        let x0 = rng.gen_vec_f64(k * dim, -2.0, 2.0);
        let h = rng.gen_range_f64(1e-4, 1e-2);
        let t0 = rng.gen_range_f64(0.0, 5.0);
        for kind in [SolverKind::ForwardEuler, SolverKind::Rk4] {
            let mut batched = kind.create();
            let mut scalars: Vec<_> = (0..k).map(|_| kind.create()).collect();
            let mut bx = x0.clone();
            let mut sx = x0.clone();
            let mut t = t0;
            for step in 0..STEPS_PER_TRIAL {
                batched.step_batch(sys.as_ref(), t, &mut bx, dim, h).expect("batched step");
                for (i, solver) in scalars.iter_mut().enumerate() {
                    solver.step(sys.as_ref(), t, &mut sx[i * dim..(i + 1) * dim], h).expect("step");
                }
                t += h;
                for (i, (got, want)) in bx.iter().zip(sx.iter()).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "trial {trial} ({sys_name}, dim {dim}, k {k}, {}) diverged at \
                         step {step}, lane {}, component {}: {got} vs {want}",
                        batched.name(),
                        i / dim,
                        i % dim,
                    );
                }
            }
        }
    }
}
