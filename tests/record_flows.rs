//! Record flows land field by field. The paper's subset rule lets a record
//! output flow into an input record whose fields match by name in any
//! order, or carry more fields; the lowering must put each output field's
//! lanes at that field's lanes in the input, for a same-group flow (the
//! plan's gathers) and a cross-group one (the channel's loads into the
//! consumer's external inputs) alike, at any instance count.
//!
//! An input field no output field maps onto is never written: it reads
//! `0.0` lanes on every step.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use unified_rt::analysis::compile;
use unified_rt::core::elaborate::BehaviorRegistry;
use unified_rt::core::engine::EngineConfig;
use unified_rt::core::ensemble::EnsembleEngine;
use unified_rt::core::model::ModelBuilder;
use unified_rt::core::recorder::Recorder;
use unified_rt::core::threading::ThreadPolicy;
use unified_rt::dataflow::flowtype::FlowType;
use unified_rt::dataflow::streamer::{FnStreamer, StreamerBehavior};
use unified_rt::ode::SolveError;

const STEP: f64 = 0.01;
const STEPS: usize = 12;

/// A unit delay over four lanes: outputs the input of the previous step
/// (zeros first), one output port per lane. Non-feedthrough, so it may
/// sit behind a cross-group channel.
struct Delay {
    last: [f64; 4],
}

impl StreamerBehavior for Delay {
    fn name(&self) -> &str {
        "sink"
    }
    fn input_width(&self) -> usize {
        4
    }
    fn output_width(&self) -> usize {
        4
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn advance(&mut self, _t: f64, _h: f64, u: &[f64], y: &mut [f64]) -> Result<(), SolveError> {
        y.copy_from_slice(&self.last);
        self.last.copy_from_slice(u);
        Ok(())
    }
}

/// Output lanes of the sink, in its input record's field order.
const FIELDS: [&str; 4] = ["b0", "b1", "c", "a"];

/// Runs `src: {a: scalar, b: vec2}` → `sink.u: {b: vec2, c: scalar, a:
/// scalar}` (reordered, plus the extra field `c`) on `k` instances, the
/// two streamers on one thread or on two, and returns each instance's
/// sink series per input lane, in `FIELDS` order.
fn run(k: usize, cross_group: bool, policy: ThreadPolicy) -> Vec<[Vec<(f64, f64)>; 4]> {
    let mut b = ModelBuilder::new("record-flow");
    let src = b.streamer("src", "none");
    let sink = b.streamer("sink", "none");
    b.streamer_out(
        src,
        "y",
        FlowType::record([("a", FlowType::scalar()), ("b", FlowType::vector(2))]),
    );
    let input = FlowType::record([
        ("b", FlowType::vector(2)),
        ("c", FlowType::scalar()),
        ("a", FlowType::scalar()),
    ]);
    b.streamer_in(sink, "u", input);
    for field in FIELDS {
        b.streamer_out(sink, field, FlowType::scalar());
        b.probe(sink, field, field);
    }
    b.streamer_feedthrough(sink, false);
    b.flow_between_streamers(src, "y", sink, "u");
    if cross_group {
        b.assign_thread(sink, 1);
    }
    // Instance `i`'s source scales by `i + 1` (the compile-time check
    // builds one more source first), so a lane read from another
    // instance shows.
    let made = Arc::new(AtomicUsize::new(0));
    let registry = BehaviorRegistry::new()
        .streamer("src", move || {
            let scale = made.fetch_add(1, Ordering::Relaxed).max(1) as f64;
            Box::new(FnStreamer::new("src", 0, 3, move |t: f64, _h, _u: &[f64], y: &mut [f64]| {
                let s = scale * (1.0 + t);
                y.copy_from_slice(&[s, 2.0 * s, 3.0 * s]);
            }))
        })
        .streamer("sink", || Box::new(Delay { last: [0.0; 4] }));
    let compiled = compile(&b.build(), registry).expect("record-flow model compiles");
    assert_eq!(compiled.group_count(), if cross_group { 2 } else { 1 });
    let mut engine =
        EnsembleEngine::from_compiled(&compiled, k, EngineConfig { step: STEP, policy })
            .expect("ensemble");
    let rec = Recorder::new();
    engine.set_recorder(rec.clone());
    engine.run_until(STEPS as f64 * STEP).expect("run");
    (0..k).map(|i| FIELDS.map(|f| rec.series(&EnsembleEngine::series_name(f, i)))).collect()
}

#[test]
fn record_flows_land_field_by_field_in_and_across_groups() {
    for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
        for cross_group in [false, true] {
            for k in [1, 3] {
                let what = format!("k={k}, cross-group={cross_group}, {policy}");
                let instances = run(k, cross_group, policy);
                // Macro step `n` starts at `times[n]`, accumulated as the
                // engine accumulates it.
                let times: Vec<f64> =
                    std::iter::successors(Some(0.0), |t| Some(t + STEP)).take(STEPS).collect();
                for (i, [b0, b1, c, a]) in instances.iter().enumerate() {
                    assert_eq!(a.len(), STEPS, "{what}: instance {i} samples");
                    // The sink delays by one step, and a channel by one more.
                    let delay = if cross_group { 2 } else { 1 };
                    for n in 0..STEPS {
                        let value = |s: &[(f64, f64)]| s[n].1;
                        let scale = (i + 1) as f64;
                        let s = if n < delay { 0.0 } else { scale * (1.0 + times[n - delay]) };
                        let at = format!("{what}: instance {i}, sample {n}");
                        assert_eq!(value(a).to_bits(), s.to_bits(), "{at}: field a");
                        assert_eq!(value(b0).to_bits(), (2.0 * s).to_bits(), "{at}: field b[0]");
                        assert_eq!(value(b1).to_bits(), (3.0 * s).to_bits(), "{at}: field b[1]");
                        assert_eq!(value(c).to_bits(), 0.0f64.to_bits(), "{at}: field c reads 0");
                    }
                }
            }
        }
    }
}
