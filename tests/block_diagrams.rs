//! The block-diagram runtime, pinned: seeded random diagrams over the five
//! library blocks step to a checksum of every output's bits per step.
//!
//! Each diagram wires its blocks at random. A feedthrough block reads
//! from earlier blocks or from a marked input; an integrator may read any
//! block, itself included, so feedback closes through integrators and
//! some integrators are wired to themselves. Marked inputs are fed a
//! fixed sequence, every block output is a marked output, and each run
//! resets the diagram halfway. A runtime that latched marked inputs late
//! or not at all, gathered a row's inputs after the row, or stepped rows
//! out of dependency order would move the checksum.

use unified_rt::blocks::continuous::Integrator;
use unified_rt::blocks::diagram::BlockDiagram;
use unified_rt::blocks::math::{Gain, Saturation, Sum};
use unified_rt::blocks::sources::Constant;
use unified_rt::core::cache::Fnv1a;
use unified_rt::ode::rng::Pcg32;

/// Recorded from the diagram runtime's own wire loop, before diagrams
/// lowered through `StepPlan`.
const PINNED: u64 = 0x2d9e_9434_ef6c_a394;

const DIAGRAMS: u64 = 48;
const STEPS: usize = 60;
const H: f64 = 0.05;

/// A random diagram from `seed`, every block output marked.
fn random_diagram(seed: u64) -> BlockDiagram {
    let mut rng = Pcg32::seed_from_u64(seed);
    let mut d = BlockDiagram::new(format!("random{seed}"));
    let n = rng.gen_range_usize(1, 13);
    // Per block: its id, input count and whether it is an integrator.
    let mut blocks = Vec::with_capacity(n);
    for _ in 0..n {
        let block = match rng.gen_range_usize(0, 5) {
            0 => (d.add_block(Constant::new(rng.gen_range_f64(-1.0, 1.0))), 0, false),
            1 => (d.add_block(Gain::new(rng.gen_range_f64(-1.5, 1.5))), 1, false),
            2 => {
                let weights: Vec<f64> =
                    (0..rng.gen_range_usize(1, 4)).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect();
                (d.add_block(Sum::new(&weights)), weights.len(), false)
            }
            3 => {
                let lo = rng.gen_range_f64(-1.0, 0.0);
                (d.add_block(Saturation::new(lo, lo + rng.gen_range_f64(0.1, 2.0))), 1, false)
            }
            _ => {
                let x0 = rng.gen_range_f64(-1.0, 1.0);
                let integrator = if rng.gen_range_usize(0, 2) == 0 {
                    Integrator::new(x0)
                } else {
                    Integrator::new(x0).with_limits(-2.0, 2.0)
                };
                (d.add_block(integrator), 1, true)
            }
        };
        blocks.push(block);
    }
    for (i, &(id, inputs, integrator)) in blocks.iter().enumerate() {
        for port in 0..inputs {
            let pick = rng.gen_range_usize(0, 8);
            if pick == 0 || (!integrator && i == 0) {
                d.mark_input(id, port).expect("an undriven input");
            } else if integrator && pick == 1 {
                d.connect(id, 0, id, port).expect("a self-wired integrator");
            } else {
                // Into an integrator any block may feed back; into a
                // feedthrough block only an earlier one.
                let from = rng.gen_range_usize(0, if integrator { n } else { i });
                d.connect(blocks[from].0, 0, id, port).expect("an undriven input");
            }
        }
    }
    for &(id, ..) in &blocks {
        d.mark_output(id, 0).expect("every block has one output");
    }
    d
}

/// The fixed sequence marked input `m` reads at step `k`.
fn stimulus(k: usize, m: usize) -> f64 {
    ((k * 7 + m * 3) % 11) as f64 * 0.2 - 1.0
}

#[test]
fn random_diagrams_step_to_the_pinned_checksum() {
    let mut hash = Fnv1a::new();
    let mut ext = Vec::new();
    for seed in 0..DIAGRAMS {
        let mut d = random_diagram(seed);
        d.validate().expect("random diagrams have no algebraic loop");
        for k in 0..STEPS {
            if k == STEPS / 2 {
                d.reset();
            }
            ext.clear();
            ext.extend((0..d.input_count()).map(|m| stimulus(k, m)));
            d.step(k as f64 * H, H, &ext);
            for y in d.outputs() {
                hash.update(&y.to_bits().to_le_bytes());
            }
        }
    }
    assert_eq!(hash.finish(), PINNED, "{:#018x}", hash.finish());
}
