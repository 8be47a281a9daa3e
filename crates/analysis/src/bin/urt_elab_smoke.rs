//! `urt-elab-smoke` — CI smoke for the elaboration pipeline.
//!
//! Pushes every clean built-in model through the full
//! `model → analyze → compile → run` pipeline with stub behaviours:
//! each model is compiled via [`urt_analysis::compile`] (so the
//! whole-model analyzer gates it), handed to
//! `HybridEngine::from_compiled`, and run for a few macro steps.
//! Every model additionally runs as a K-instance [`EnsembleEngine`]
//! (SPort links included), whose instance 0 must replay the standalone
//! run bit-identically — probe series and controller message counts
//! (the ensemble determinism anchor).
//! The seeded negative models (`seeded-violations`, `seeded-cross-loop`,
//! `seeded-over-budget`) must **refuse** to compile. Any deviation exits
//! non-zero, which is what `scripts/check.sh` keys on.

use std::process::ExitCode;
use urt_analysis::{compile, examples, stubs};
use urt_core::engine::{EngineConfig, HybridEngine};
use urt_core::ensemble::EnsembleEngine;
use urt_core::recorder::Recorder;
use urt_core::threading::ThreadPolicy;

const STEP: f64 = 1e-3;
const MACRO_STEPS: u32 = 5;
const ENSEMBLE_K: usize = 8;

fn main() -> ExitCode {
    let mut failed = false;
    let config = EngineConfig { step: STEP, policy: ThreadPolicy::CurrentThread };
    let t_end = STEP * f64::from(MACRO_STEPS);

    for &name in examples::NAMES {
        let model = examples::by_name(name).expect("catalogue name");
        let compiled = match compile(&model, stubs::stub_registry(&model)) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("urt-elab-smoke: `{name}` refused to compile: {e}");
                failed = true;
                continue;
            }
        };
        let groups = compiled.group_count();
        let sport_links = compiled.sport_link_count();
        let series: Vec<String> = compiled.probe_series().map(str::to_owned).collect();
        let mut engine = match HybridEngine::from_compiled(&compiled, config) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("urt-elab-smoke: `{name}` failed engine assembly: {e}");
                failed = true;
                continue;
            }
        };
        let rec = Recorder::new();
        engine.set_recorder(rec.clone());
        if let Err(e) = engine.run_until(t_end) {
            eprintln!("urt-elab-smoke: `{name}` failed to run: {e}");
            failed = true;
            continue;
        }
        println!("urt-elab-smoke: `{name}` ok ({groups} group(s), {MACRO_STEPS} steps)");

        // Ensemble smoke: every model must also run as a K-instance
        // lockstep ensemble, with instance 0 bit-identical to the
        // standalone run just taken. The *same* compiled artifact serves
        // both runs — compile once, instantiate many.
        let mut ensemble = match EnsembleEngine::from_compiled(&compiled, ENSEMBLE_K, config) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("urt-elab-smoke: `{name}` failed ensemble assembly: {e}");
                failed = true;
                continue;
            }
        };
        let erec = Recorder::new();
        ensemble.set_recorder(erec.clone());
        if let Err(e) = ensemble.run_until(t_end) {
            eprintln!("urt-elab-smoke: `{name}` failed ensemble run: {e}");
            failed = true;
            continue;
        }
        let mut diverged = false;
        for s in &series {
            let standalone = rec.series(s);
            let instance0 = erec.series(&EnsembleEngine::series_name(s, 0));
            let same = standalone.len() == instance0.len()
                && standalone.iter().zip(&instance0).all(|((t1, v1), (t2, v2))| {
                    t1.to_bits() == t2.to_bits() && v1.to_bits() == v2.to_bits()
                });
            if !same {
                eprintln!("urt-elab-smoke: `{name}` ensemble instance 0 diverged on `{s}`");
                diverged = true;
            }
        }
        let (solo, ours) = (engine.controller(), ensemble.controller(0).expect("instance 0"));
        if (solo.delivered_count(), solo.dropped_count())
            != (ours.delivered_count(), ours.dropped_count())
        {
            eprintln!("urt-elab-smoke: `{name}` ensemble instance 0 diverged on message counts");
            diverged = true;
        }
        if diverged {
            failed = true;
            continue;
        }
        println!(
            "urt-elab-smoke: `{name}` ensemble ok (K = {ENSEMBLE_K}, {sport_links} SPort link(s), \
             {} series and message counts checked)",
            series.len()
        );
    }

    // The seeded models must be refused by the analysis gate — including
    // the cross-group algebraic loop and the over-budget timing plan
    // that fail-fast `validate()` misses.
    for name in ["seeded-violations", "seeded-cross-loop", "seeded-over-budget"] {
        let seeded = examples::by_name(name).expect("catalogue name");
        match compile(&seeded, stubs::stub_registry(&seeded)) {
            Err(e) => println!("urt-elab-smoke: `{name}` refused as expected: {e}"),
            Ok(_) => {
                eprintln!("urt-elab-smoke: `{name}` compiled — the gate is broken");
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        println!("urt-elab-smoke: PASS");
        ExitCode::SUCCESS
    }
}
