//! Span recording for the traced run (`--trace 1`), and the wrappers that
//! time behaviour and solver calls.
//!
//! A span is one timed call into a layer's public function, made from this
//! benchmark's own code: its name, start, end, the span open when it began
//! (its parent) and the run id of the workload repetition it belongs to.
//! Spans stay in memory until the run ends; then they are written out and
//! reduced to the per-layer metrics. A layer's self time is its span's
//! duration minus its direct children's.
//!
//! Recording is per thread: only the thread that called [`enable`]
//! records, so the buffer needs no lock. Every traced loop runs on that
//! thread; the engines that run worker threads are built from untraced
//! behaviours, so no span is lost on a worker.

use std::cell::{Cell, RefCell};
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::time::Instant;
use urt_dataflow::streamer::{OdeLane, StreamerBehavior};
use urt_ode::{BatchOdeSystem, OdeSystem, SolveError, Solver, StepOutcome};
use urt_umlrt::Message;

/// Parent of a span opened while no other span was open.
pub const ROOT: u32 = u32::MAX;

/// Spans kept. Later ones are counted by [`dropped`] but not stored, which
/// bounds the traced run's memory.
const CAPACITY: usize = 1 << 20;

/// One recorded span; times are ns since tracing was enabled.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `engine.step`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Workload repetition the span belongs to.
    pub run: u32,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

struct Recorder {
    origin: Instant,
    run: u32,
    dropped: u64,
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    open: Vec<u32>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        run: 0,
        dropped: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns span recording on for the calling thread.
pub fn enable() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.origin = Instant::now();
        r.spans.reserve(CAPACITY);
    });
    ENABLED.with(|e| e.set(true));
}

/// Starts the next run id (one workload repetition).
pub fn next_run() {
    REC.with(|r| r.borrow_mut().run += 1);
}

/// Calls `f`, recording it as a span named `name` when tracing is on.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ENABLED.with(Cell::get) {
        return f();
    }
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.spans.len() >= CAPACITY {
            r.dropped += 1;
            return None;
        }
        let parent = r.open.last().copied().unwrap_or(ROOT);
        let run = r.run;
        r.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, run });
        let id = r.spans.len() - 1;
        r.open.push(id as u32);
        Some(id)
    });
    let Some(id) = id else { return f() };
    let start = REC.with(|r| r.borrow().origin.elapsed().as_nanos() as u64);
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let end = r.origin.elapsed().as_nanos() as u64;
        r.open.pop();
        let s = &mut r.spans[id];
        s.start_ns = start;
        s.end_ns = end;
    });
    out
}

/// Every span recorded on this thread; a span's index is its id.
pub fn recorded() -> Vec<Span> {
    REC.with(|r| r.borrow().spans.clone())
}

/// Spans not recorded because the buffer was full.
pub fn dropped() -> u64 {
    REC.with(|r| r.borrow().dropped)
}

/// Writes spans as tab-separated `id parent run name start_ns end_ns`
/// lines (parent `-1` for none).
///
/// # Errors
///
/// Any error creating the directory or writing the file.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\trun\tname\tstart_ns\tend_ns")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
        writeln!(w, "{id}\t{parent}\t{}\t{}\t{}\t{}", s.run, s.name, s.start_ns, s.end_ns)?;
    }
    w.flush()
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::ns).collect()
}

/// Self time (ns) of every span, by id: its duration minus its direct
/// children's.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::ns).collect();
    for s in spans {
        if s.parent != ROOT {
            out[s.parent as usize] -= s.ns();
        }
    }
    out
}

/// Self times (ns) of the spans named `name`.
pub fn self_times_of(spans: &[Span], selfs: &[f64], name: &str) -> Vec<f64> {
    spans.iter().zip(selfs).filter(|(s, _)| s.name == name).map(|(_, &v)| v).collect()
}

/// For every span named `root`, the sum of `value[id]` over its
/// descendants named `name`.
pub fn sum_under(spans: &[Span], root: &str, name: &str, value: &[f64]) -> Vec<f64> {
    let mut slot = vec![usize::MAX; spans.len()];
    let mut sums = Vec::new();
    for (id, s) in spans.iter().enumerate() {
        if s.name == root {
            slot[id] = sums.len();
            sums.push(0.0);
        }
    }
    for (id, s) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
        let mut p = s.parent;
        while p != ROOT {
            if slot[p as usize] != usize::MAX {
                sums[slot[p as usize]] += value[id];
                break;
            }
            p = spans[p as usize].parent;
        }
    }
    sums
}

/// A behaviour whose `advance` calls are `dataflow.advance` spans. Every
/// other call forwards unchanged, so series stay bit-identical.
pub struct TracedBehavior(pub Box<dyn StreamerBehavior>);

impl StreamerBehavior for TracedBehavior {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn input_width(&self) -> usize {
        self.0.input_width()
    }
    fn output_width(&self) -> usize {
        self.0.output_width()
    }
    fn direct_feedthrough(&self) -> bool {
        self.0.direct_feedthrough()
    }
    fn initialize(&mut self, t0: f64) -> Result<(), SolveError> {
        self.0.initialize(t0)
    }
    fn advance(&mut self, t: f64, h: f64, u: &[f64], y: &mut [f64]) -> Result<(), SolveError> {
        span("dataflow.advance", || self.0.advance(t, h, u, y))
    }
    fn on_signal(&mut self, msg: &Message) {
        self.0.on_signal(msg);
    }
    fn take_emitted(&mut self) -> Vec<(String, Message)> {
        self.0.take_emitted()
    }
    fn clone_fresh(&self) -> Option<Box<dyn StreamerBehavior>> {
        let inner = self.0.clone_fresh()?;
        Some(Box::new(TracedBehavior(inner)))
    }
    fn set_param(&mut self, name: &str, value: f64) -> bool {
        self.0.set_param(name, value)
    }
    fn as_ode_lane(&self) -> Option<&dyn OdeLane> {
        self.0.as_ode_lane()
    }
    fn as_ode_lane_mut(&mut self) -> Option<&mut dyn OdeLane> {
        self.0.as_ode_lane_mut()
    }
}

/// A solver whose `step` and `step_batch` calls are `ode.step` and
/// `ode.step_batch` spans; otherwise it forwards unchanged. Clones stay
/// traced, so ensemble rows that clone their solver keep recording.
pub struct TracedSolver(pub Box<dyn Solver + Send>);

impl Solver for TracedSolver {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn order(&self) -> u32 {
        self.0.order()
    }
    fn is_adaptive(&self) -> bool {
        self.0.is_adaptive()
    }
    fn step(
        &mut self,
        sys: &dyn OdeSystem,
        t: f64,
        x: &mut [f64],
        h: f64,
    ) -> Result<StepOutcome, SolveError> {
        span("ode.step", || self.0.step(sys, t, x, h))
    }
    fn clone_boxed(&self) -> Option<Box<dyn Solver + Send>> {
        let inner = self.0.clone_boxed()?;
        Some(Box::new(TracedSolver(inner)))
    }
    fn has_batched_kernel(&self) -> bool {
        self.0.has_batched_kernel()
    }
    fn step_batch(
        &mut self,
        sys: &dyn BatchOdeSystem,
        t: f64,
        states: &mut [f64],
        dim: usize,
        h: f64,
    ) -> Result<(), SolveError> {
        span("ode.step_batch", || self.0.step_batch(sys, t, states, dim, h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, run: 1 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [s("step", 0, 100, ROOT), s("net", 10, 60, 0), s("adv", 20, 40, 1)];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![50.0, 30.0, 20.0]);
        assert_eq!(sum_under(&spans, "step", "adv", &selfs), vec![20.0]);
        assert_eq!(sum_under(&spans, "step", "net", &selfs), vec![30.0]);
    }
}
