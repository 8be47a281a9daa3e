//! One live system of a workload, built through the public pipeline, and
//! the series checksums that gate correctness.

use crate::trace::span;
use crate::workloads::{self, Inputs, Workload, STEP, SWEEP_K};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use urt_core::elaborate::CompiledSystem;
use urt_core::engine::{EngineConfig, HybridEngine};
use urt_core::ensemble::{EnsembleEngine, VariantSpec};
use urt_core::pacer::{PacedConfig, PacedReport, TimeSource};
use urt_core::recorder::{Recorder, SeriesHandle};
use urt_core::threading::ThreadPolicy;
use urt_core::CoreError;

/// Macro steps of the check window: every run checks the probe series of
/// a fresh system from t = 0 through this many steps.
pub const CHECK_STEPS: u64 = 1000;

/// Check-window checksum of each workload at
/// [`DEFAULT_SEED`](workloads::DEFAULT_SEED).
pub fn committed_checksum(w: Workload) -> u64 {
    match w {
        Workload::Fig2Loop => 0xbed6_b42b_ac24_006d,
        Workload::SweepK64 => 0xff83_a131_055e_d9f1,
        Workload::ReactiveSport => 0x2e85_0a5e_333a_ee71,
    }
}

/// The engine a workload runs on.
pub enum Engine {
    /// Every workload but `sweep-k64`.
    Hybrid(Box<HybridEngine>),
    /// `sweep-k64`.
    Ensemble(EnsembleEngine),
}

/// A built engine and the recorder its probes write to.
pub struct Live {
    /// The engine.
    pub engine: Engine,
    /// Its probe series.
    pub recorder: Recorder,
}

impl Live {
    /// Builds the workload's engine from `compiled`; the constructors
    /// instantiate the artifact (`sweep-k64`: once per seeded variant).
    ///
    /// # Errors
    ///
    /// Whatever the engine constructor returns.
    pub fn from_compiled(
        w: Workload,
        compiled: &CompiledSystem,
        inputs: &Inputs,
    ) -> Result<Self, CoreError> {
        let config = EngineConfig { step: STEP, policy: ThreadPolicy::CurrentThread };
        let recorder = Recorder::new();
        let engine = if w == Workload::SweepK64 {
            let variants: Vec<VariantSpec> = inputs
                .sweep_x0
                .iter()
                .map(|&v| VariantSpec::new().set("sub1", "x0[1]", v))
                .collect();
            let mut e = EnsembleEngine::from_variants(compiled, &variants, config)?;
            e.set_recorder(recorder.clone());
            Engine::Ensemble(e)
        } else {
            let mut e = HybridEngine::from_compiled(compiled, config)?;
            e.set_recorder(recorder.clone());
            Engine::Hybrid(Box::new(e))
        };
        Ok(Live { engine, recorder })
    }

    /// Simulation time, s.
    pub fn time(&self) -> f64 {
        match &self.engine {
            Engine::Hybrid(e) => e.time(),
            Engine::Ensemble(e) => e.time(),
        }
    }

    /// Macro steps taken.
    pub fn step_count(&self) -> u64 {
        match &self.engine {
            Engine::Hybrid(e) => e.step_count(),
            Engine::Ensemble(e) => e.step_count(),
        }
    }

    /// `run_until(t_end)` on the engine.
    ///
    /// # Errors
    ///
    /// Whatever the engine returns.
    pub fn run_until(&mut self, t_end: f64) -> Result<(), CoreError> {
        match &mut self.engine {
            Engine::Hybrid(e) => e.run_until(t_end),
            Engine::Ensemble(e) => e.run_until(t_end),
        }
    }

    /// `step_once()` on the engine.
    ///
    /// # Errors
    ///
    /// Whatever the engine returns.
    pub fn step_once(&mut self) -> Result<(), CoreError> {
        match &mut self.engine {
            Engine::Hybrid(e) => e.step_once(),
            Engine::Ensemble(e) => e.step_once(),
        }
    }

    /// `run_paced(t_end, config)` on the engine.
    ///
    /// # Errors
    ///
    /// Whatever the engine returns.
    pub fn run_paced(&mut self, t_end: f64, config: PacedConfig) -> Result<PacedReport, CoreError> {
        match &mut self.engine {
            Engine::Hybrid(e) => e.run_paced(t_end, config),
            Engine::Ensemble(e) => e.run_paced(t_end, config),
        }
    }
}

/// Model build and compile (`analyze` runs inside as its gate).
///
/// # Errors
///
/// Whatever `urt_analysis::compile` returns.
pub fn compile(w: Workload, inputs: &Inputs, traced: bool) -> Result<CompiledSystem, CoreError> {
    let (model, registry) = workloads::system(w, inputs, traced);
    urt_analysis::compile(&model, registry)
}

/// One whole set-up: model build → analyze + compile → instantiate and
/// engine build → first probe sample. With `traced`, each stage is a span,
/// plus one extra `analyze` and one extra `instantiate` call timed on
/// their own.
///
/// # Errors
///
/// The first error any stage returns.
pub fn set_up(w: Workload, inputs: &Inputs, traced: bool) -> Result<Live, CoreError> {
    let (model, registry) = workloads::system(w, inputs, traced);
    if traced {
        span("analysis.analyze", || urt_analysis::analyze(&model));
    }
    let compiled = span("elaborate.compile", || urt_analysis::compile(&model, registry))?;
    if traced {
        span("elaborate.instantiate", || compiled.instantiate())?;
    }
    let name = match w {
        Workload::SweepK64 => "ensemble.from_compiled",
        _ => "engine.from_compiled",
    };
    let mut live = span(name, || Live::from_compiled(w, &compiled, inputs))?;
    span("engine.first_step", || live.step_once())?;
    Ok(live)
}

/// A fresh system run through the check window, with its checksum.
///
/// # Errors
///
/// The first error building or running it returns.
pub fn check_window(w: Workload, inputs: &Inputs, traced: bool) -> Result<(Live, u64), CoreError> {
    let compiled = compile(w, inputs, traced)?;
    let mut live = Live::from_compiled(w, &compiled, inputs)?;
    live.run_until(CHECK_STEPS as f64 * STEP)?;
    let sum = checksum(&live.recorder, usize::MAX);
    Ok((live, sum))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv1a(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a over the bits of the first `limit` samples `(t, value)` of every
/// recorded series, series in name order.
pub fn checksum(rec: &Recorder, limit: usize) -> u64 {
    let mut hash = FNV_OFFSET;
    for name in rec.names() {
        for (t, v) in rec.series(&name).into_iter().take(limit) {
            hash = fnv1a(fnv1a(hash, t.to_bits()), v.to_bits());
        }
    }
    hash
}

/// Whether every recorded sample is finite.
pub fn all_finite(rec: &Recorder) -> bool {
    rec.names().iter().all(|n| rec.series(n).iter().all(|(t, v)| t.is_finite() && v.is_finite()))
}

/// Whether ensemble instances 0 and K−1 in `rec` (a `sweep-k64` check
/// window) equal, bit for bit, standalone `HybridEngine` runs of the same
/// variants.
///
/// # Errors
///
/// The first error building or running a standalone engine returns.
pub fn sweep_matches_standalone(inputs: &Inputs, rec: &Recorder) -> Result<bool, CoreError> {
    for i in [0, SWEEP_K - 1] {
        let (model, registry) = workloads::sweep(inputs.sweep_x0[i], false);
        let compiled = urt_analysis::compile(&model, registry)?;
        let config = EngineConfig { step: STEP, policy: ThreadPolicy::CurrentThread };
        let mut engine = HybridEngine::from_compiled(&compiled, config)?;
        let solo = Recorder::new();
        engine.set_recorder(solo.clone());
        engine.run_until(CHECK_STEPS as f64 * STEP)?;
        let a = solo.series("y");
        let b = rec.series(&EnsembleEngine::series_name("y", i));
        let same = a.len() == b.len()
            && a.iter()
                .zip(&b)
                .all(|(x, y)| x.0.to_bits() == y.0.to_bits() && x.1.to_bits() == y.1.to_bits());
        if !same {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The clock a paced run reads, recording each cycle's compute time at
/// full resolution (the report's histogram rounds to 1/16 of an octave).
///
/// `run_paced` reads the clock once when a cycle starts and once when it
/// ends, and the cycle's probe sample lands in between. So the reading
/// that first sees a new sample closes a cycle, and the reading before it
/// opened that cycle.
pub struct CycleClock {
    origin: Instant,
    probe: SeriesHandle,
    seen: usize,
    last_ns: u64,
    cycles: Arc<Mutex<Vec<f64>>>,
}

impl CycleClock {
    /// A clock watching the first series of `rec`, with room for
    /// `capacity` cycles; the second value collects cycle times in ns.
    pub fn new(rec: &Recorder, capacity: usize) -> (Self, Arc<Mutex<Vec<f64>>>) {
        let name = rec.names().into_iter().next().unwrap_or_default();
        let probe = rec.handle(&name);
        let cycles = Arc::new(Mutex::new(Vec::with_capacity(capacity)));
        let clock = CycleClock {
            origin: Instant::now(),
            seen: probe.len(),
            probe,
            last_ns: 0,
            cycles: Arc::clone(&cycles),
        };
        (clock, cycles)
    }
}

impl TimeSource for CycleClock {
    fn now_ns(&mut self) -> u64 {
        let now = u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let len = self.probe.len();
        if len != self.seen {
            self.seen = len;
            let cycle = now.saturating_sub(self.last_ns) as f64;
            self.cycles.lock().expect("cycle buffer is never poisoned").push(cycle);
        }
        self.last_ns = now;
        now
    }

    fn sleep_ns(&mut self, ns: u64) {
        let until = Instant::now() + Duration::from_nanos(ns);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::DEFAULT_SEED;

    fn window(w: Workload, seed: u64, traced: bool) -> (u64, usize, u64) {
        let (live, sum) = check_window(w, &Inputs::generate(seed), traced).expect("check window");
        (sum, live.recorder.len(), live.step_count())
    }

    #[test]
    fn committed_checksums_hold_at_the_default_seed() {
        for w in Workload::ALL {
            assert_eq!(window(w, DEFAULT_SEED, false).0, committed_checksum(w), "{}", w.name());
        }
    }

    #[test]
    fn same_seed_gives_identical_checksums_and_counts() {
        for w in Workload::ALL {
            assert_eq!(window(w, 7, false), window(w, 7, false), "{}", w.name());
        }
    }

    #[test]
    fn another_seed_changes_the_sweep_checksum() {
        assert_ne!(window(Workload::SweepK64, 7, false).0, window(Workload::SweepK64, 8, false).0);
    }

    #[test]
    fn traced_behaviours_record_the_same_series() {
        for w in Workload::ALL {
            assert_eq!(window(w, 7, true), window(w, 7, false), "{}", w.name());
        }
    }

    #[test]
    fn sweep_edge_instances_match_standalone_runs() {
        for seed in [DEFAULT_SEED, 7] {
            let inputs = Inputs::generate(seed);
            let (live, _) = check_window(Workload::SweepK64, &inputs, false).expect("window");
            assert!(sweep_matches_standalone(&inputs, &live.recorder).expect("standalone"));
        }
    }
}
