//! Integration strategies — the paper's Figure 1 `Strategy` hierarchy.
//!
//! Each solver is a strategy object a streamer can hold behind
//! `Box<dyn Solver>` and swap without touching the equations, exactly the
//! State/Strategy separation the paper presents as its architectural
//! pattern.

// The kernels update several state vectors in lockstep; indexed loops
// read closer to the Butcher-tableau math than zipped iterator chains.
#![allow(clippy::needless_range_loop)]

use crate::error::SolveError;
use crate::state::StateVec;
use crate::system::{BatchOdeSystem, OdeSystem};
use std::fmt;

/// Outcome of a single attempted integration step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Whether the step was accepted (fixed-step methods always accept).
    pub accepted: bool,
    /// Step size actually taken (equals the request for fixed-step methods).
    pub h_taken: f64,
    /// Suggested size for the next step.
    pub h_next: f64,
    /// Local error estimate, when the method produces one.
    pub error_estimate: Option<f64>,
}

impl StepOutcome {
    /// An accepted fixed step of `h`, suggesting `h` again.
    pub fn fixed(h: f64) -> Self {
        StepOutcome { accepted: true, h_taken: h, h_next: h, error_estimate: None }
    }
}

/// An ODE integration strategy.
///
/// Object-safe by design: streamers store solvers as trait objects so the
/// strategy can be replaced at run time (paper Figure 1).
///
/// # Examples
///
/// ```
/// use urt_ode::solver::{Rk4, Solver};
/// use urt_ode::system::FnSystem;
///
/// # fn main() -> Result<(), urt_ode::SolveError> {
/// let sys = FnSystem::new(1, |_t, x, dx| dx[0] = -x[0]);
/// let mut solver = Rk4::new();
/// let mut x = vec![1.0];
/// let outcome = solver.step(&sys, 0.0, &mut x, 0.1)?;
/// assert!(outcome.accepted);
/// assert!(x[0] < 1.0);
/// # Ok(())
/// # }
/// ```
pub trait Solver {
    /// Human-readable strategy name ("rk4", "dopri45", ...).
    fn name(&self) -> &str;

    /// Classical order of accuracy.
    fn order(&self) -> u32;

    /// Whether the method adapts its own step size.
    fn is_adaptive(&self) -> bool {
        false
    }

    /// Attempts one step of size `h` from `(t, x)`, updating `x` in place
    /// when the step is accepted.
    ///
    /// # Errors
    ///
    /// * [`SolveError::InvalidStep`] if `h` is not positive and finite.
    /// * [`SolveError::DimensionMismatch`] if `x` does not match the system.
    /// * [`SolveError::NonFiniteState`] if the step produces NaN/inf.
    /// * [`SolveError::NoConvergence`] for implicit methods that stall.
    fn step(
        &mut self,
        sys: &dyn OdeSystem,
        t: f64,
        x: &mut [f64],
        h: f64,
    ) -> Result<StepOutcome, SolveError>;

    /// Clones this strategy (configuration and scratch state) into a
    /// fresh boxed solver, or `None` when the concrete strategy is not
    /// cloneable. Ensemble execution uses this to stamp per-instance
    /// solver state out of one prototype.
    fn clone_boxed(&self) -> Option<Box<dyn Solver + Send>> {
        None
    }

    /// Whether this strategy overrides [`Solver::step_batch`] with a
    /// batched kernel, one [`BatchOdeSystem::step_lanes`] call over all
    /// lanes, rather than the per-lane default. Ensemble execution only
    /// routes a row through its typed kernel for such solvers.
    fn has_batched_kernel(&self) -> bool {
        false
    }

    /// Advances `states.len() / dim` independent state lanes of the same
    /// system from `t` to exactly `t + h`, where lane `i` occupies
    /// `states[i * dim..(i + 1) * dim]` (instance-major layout).
    ///
    /// Fixed-step methods take one step of `h` per lane, so each lane is
    /// bit-identical to a standalone [`Solver::step`] call. Adaptive
    /// rejections are retried per lane with the suggested smaller step
    /// until the lane reaches `t + h`.
    ///
    /// Termination is pinned: a lane never *attempts* a step smaller than
    /// the interval's floating-point resolution — when a controller's
    /// `h_next` underflows that far (including to zero) near `t_end`, the
    /// call fails with [`SolveError::StepSizeUnderflow`] instead of
    /// spinning on steps too small to advance the clock. Every accepted
    /// step therefore moves a lane by at least the resolution, bounding
    /// the loop at `h / resolution` iterations per lane.
    ///
    /// # Errors
    ///
    /// * [`SolveError::DimensionMismatch`] if `dim` is zero or does not
    ///   divide `states.len()`.
    /// * [`SolveError::StepSizeUnderflow`] if a lane's suggested step
    ///   falls below the time resolution before reaching `t + h`.
    /// * Any error the per-lane [`Solver::step`] calls produce.
    fn step_batch(
        &mut self,
        sys: &dyn BatchOdeSystem,
        t: f64,
        states: &mut [f64],
        dim: usize,
        h: f64,
    ) -> Result<(), SolveError> {
        if dim == 0 || !states.len().is_multiple_of(dim) {
            return Err(SolveError::DimensionMismatch { expected: dim, found: states.len() });
        }
        let t_end = t + h;
        let resolution = f64::EPSILON * t_end.abs().max(1.0);
        for lane in states.chunks_mut(dim) {
            let mut tl = t;
            let mut hl = h;
            loop {
                let remaining = t_end - tl;
                if remaining <= resolution {
                    break;
                }
                let h_try = hl.min(remaining);
                if h_try < resolution {
                    return Err(SolveError::StepSizeUnderflow { time: tl, step: h_try });
                }
                let out = self.step(sys, tl, lane, h_try)?;
                if out.accepted {
                    tl += out.h_taken;
                }
                hl = out.h_next;
            }
        }
        Ok(())
    }
}

fn validate(sys: &dyn OdeSystem, x: &[f64], h: f64) -> Result<(), SolveError> {
    sys.check_dim(x)?;
    if !(h.is_finite() && h > 0.0) {
        return Err(SolveError::InvalidStep { step: h });
    }
    Ok(())
}

fn ensure_finite(t: f64, x: &[f64]) -> Result<(), SolveError> {
    if x.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(SolveError::NonFiniteState { time: t })
    }
}

/// Validates the instance-major batch layout the batched kernels consume.
fn batch_layout(
    sys: &dyn BatchOdeSystem,
    states: &[f64],
    dim: usize,
    h: f64,
) -> Result<(), SolveError> {
    if dim == 0 || !states.len().is_multiple_of(dim) {
        return Err(SolveError::DimensionMismatch { expected: dim, found: states.len() });
    }
    if dim != sys.dim() {
        return Err(SolveError::DimensionMismatch { expected: sys.dim(), found: dim });
    }
    if !(h.is_finite() && h > 0.0) {
        return Err(SolveError::InvalidStep { step: h });
    }
    Ok(())
}

fn resize_buf(v: &mut Vec<f64>, n: usize) {
    if v.len() != n {
        v.clear();
        v.resize(n, 0.0);
    }
}

/// The explicit fixed-step schemes that have a batched kernel, named so
/// [`BatchOdeSystem::step_lanes`] can run the scheme over its lanes.
/// Each scheme's stage arithmetic is defined once (the private
/// `euler_stages` / `rk4_stages`), and both the scalar [`Solver::step`]
/// and [`ExplicitScheme::step_lanes`] call it, so a lane stepped either
/// way is bit-identical by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplicitScheme {
    /// [`ForwardEuler`].
    ForwardEuler,
    /// [`Rk4`].
    Rk4,
}

/// Widest lane [`ExplicitScheme::step_lanes`] steps on fixed-size local
/// arrays, which lets each stage loop unroll and keeps a lane's stages in
/// registers. Wider lanes run on the caller's scratch slices.
pub const CONST_LANE_DIM: usize = 8;

/// Lanes [`ExplicitScheme::step_lanes`] advances together, stage by
/// stage. A derivative the compiler cannot inline stores its result
/// element by element, and the stage arithmetic reloads it as one vector;
/// a lone lane then stalls on every stage until those stores land (a
/// dim-2 RK4 row ran about 4× slower than a block of four). Within a
/// block, the other lanes' calls run meanwhile. Four lanes still fit a
/// dim-2 RK4 block in registers when the derivative is inlined.
const LANE_BLOCK: usize = 4;

impl ExplicitScheme {
    /// Scratch values [`ExplicitScheme::step_lanes`] needs for lanes of
    /// dimension `dim`: per lane of a block, the derivative for Euler;
    /// `k1..k4` and the stage state for RK4.
    pub const fn scratch_len(self, dim: usize) -> usize {
        let stage_vectors = match self {
            ExplicitScheme::ForwardEuler => 1,
            ExplicitScheme::Rk4 => 5,
        };
        LANE_BLOCK * stage_vectors * dim
    }

    /// Advances the instance-major lanes of `states` (lane `i` at
    /// `[i * dim..(i + 1) * dim]`) by one step `h` from `t`, in blocks of
    /// four lanes: a block takes its whole step, each stage across the
    /// block, before the next block starts. `f(i, t, x, dx)` is lane `i`'s
    /// derivative: one lane-indexed function covers the whole row, so a
    /// row of per-lane systems pays no per-lane closure and a shared
    /// system ignores the index. Lanes of dimension 1 to
    /// [`CONST_LANE_DIM`] keep their stages in fixed-size local arrays;
    /// wider lanes use `scratch`. Per lane the arithmetic is exactly the
    /// scalar [`Solver::step`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is wider than [`CONST_LANE_DIM`] and `scratch`
    /// holds fewer than [`ExplicitScheme::scratch_len`] values.
    pub fn step_lanes<F>(
        self,
        t: f64,
        states: &mut [f64],
        dim: usize,
        h: f64,
        scratch: &mut [f64],
        f: F,
    ) where
        F: FnMut(usize, f64, &[f64], &mut [f64]),
    {
        match dim {
            1 => self.lanes_on_arrays::<1, F>(t, states, h, f),
            2 => self.lanes_on_arrays::<2, F>(t, states, h, f),
            3 => self.lanes_on_arrays::<3, F>(t, states, h, f),
            4 => self.lanes_on_arrays::<4, F>(t, states, h, f),
            5 => self.lanes_on_arrays::<5, F>(t, states, h, f),
            6 => self.lanes_on_arrays::<6, F>(t, states, h, f),
            7 => self.lanes_on_arrays::<7, F>(t, states, h, f),
            8 => self.lanes_on_arrays::<8, F>(t, states, h, f),
            _ => self.lanes_on_slices(t, states, dim, h, scratch, f),
        }
    }

    fn lanes_on_arrays<const D: usize, F>(self, t: f64, states: &mut [f64], h: f64, mut f: F)
    where
        F: FnMut(usize, f64, &[f64], &mut [f64]),
    {
        let mut store = [[0.0; D]; ExplicitScheme::Rk4.scratch_len(1)];
        let (blocks, rest) = states.as_chunks_mut::<D>().0.as_chunks_mut::<LANE_BLOCK>();
        let first_rest = blocks.len() * LANE_BLOCK;
        for (b, block) in blocks.iter_mut().enumerate() {
            let x = block.each_mut().map(|x| &mut x[..]);
            let mut stages = store.iter_mut().map(|s| &mut s[..]);
            self.step_block(t, h, b * LANE_BLOCK, x, &mut f, &mut stages);
        }
        for (j, x) in rest.iter_mut().enumerate() {
            let mut stages = store.iter_mut().map(|s| &mut s[..]);
            self.step_block(t, h, first_rest + j, [&mut x[..]], &mut f, &mut stages);
        }
    }

    fn lanes_on_slices<F>(
        self,
        t: f64,
        states: &mut [f64],
        dim: usize,
        h: f64,
        scratch: &mut [f64],
        mut f: F,
    ) where
        F: FnMut(usize, f64, &[f64], &mut [f64]),
    {
        let mut blocks = states.chunks_exact_mut(LANE_BLOCK * dim);
        let mut first = 0;
        for block in blocks.by_ref() {
            let mut x = block.chunks_exact_mut(dim);
            let x: [_; LANE_BLOCK] = std::array::from_fn(|_| x.next().expect("a lane per slot"));
            let mut stages = scratch.chunks_exact_mut(dim);
            self.step_block(t, h, first, x, &mut f, &mut stages);
            first += LANE_BLOCK;
        }
        for x in blocks.into_remainder().chunks_exact_mut(dim) {
            let mut stages = scratch.chunks_exact_mut(dim);
            self.step_block(t, h, first, [x], &mut f, &mut stages);
            first += 1;
        }
    }

    /// Steps the `N` lanes `x`, lanes `first..first + N` of the row, lane
    /// `first + j` at `x[j]`, taking each lane's stage vectors from
    /// `stages`.
    #[inline(always)]
    fn step_block<'s, const N: usize, F>(
        self,
        t: f64,
        h: f64,
        first: usize,
        x: [&mut [f64]; N],
        f: &mut F,
        stages: &mut impl Iterator<Item = &'s mut [f64]>,
    ) where
        F: FnMut(usize, f64, &[f64], &mut [f64]),
    {
        let f = |j: usize, t: f64, x: &[f64], dx: &mut [f64]| f(first + j, t, x, dx);
        let mut stage = || stages.next().expect("scratch holds a block's stage vectors");
        match self {
            ExplicitScheme::ForwardEuler => euler_stages(f, t, h, x, stage_views(&mut stage)),
            ExplicitScheme::Rk4 => rk4_stages(f, t, h, x, stage_views(&mut stage)),
        }
    }
}

/// `S` stage vectors for each of `N` lanes, stage-major, from `stage`.
#[inline(always)]
fn stage_views<'s, const N: usize, const S: usize>(
    stage: &mut impl FnMut() -> &'s mut [f64],
) -> [[&'s mut [f64]; N]; S] {
    std::array::from_fn(|_| std::array::from_fn(|_| stage()))
}

/// Forward Euler's stage arithmetic, the one definition every path runs,
/// over `N` lanes stage by stage: `k = f(t, x)`, then `x[i] += h * k[i]`.
/// `f(j, t, x, dx)` is lane `j`'s derivative.
#[inline(always)]
fn euler_stages<const N: usize>(
    mut f: impl FnMut(usize, f64, &[f64], &mut [f64]),
    t: f64,
    h: f64,
    x: [&mut [f64]; N],
    [k]: [[&mut [f64]; N]; 1],
) {
    for j in 0..N {
        f(j, t, x[j], k[j]);
    }
    for j in 0..N {
        for (xi, ki) in x[j].iter_mut().zip(k[j].iter()) {
            *xi += h * ki;
        }
    }
}

/// Classic RK4's stage arithmetic, the one definition every path runs,
/// over `N` lanes stage by stage; `f(j, t, x, dx)` is lane `j`'s
/// derivative, and each stage vector is as long as its lane.
#[inline(always)]
fn rk4_stages<const N: usize>(
    mut f: impl FnMut(usize, f64, &[f64], &mut [f64]),
    t: f64,
    h: f64,
    x: [&mut [f64]; N],
    [k1, k2, k3, k4, tmp]: [[&mut [f64]; N]; 5],
) {
    for j in 0..N {
        f(j, t, x[j], k1[j]);
    }
    for j in 0..N {
        for i in 0..x[j].len() {
            tmp[j][i] = x[j][i] + 0.5 * h * k1[j][i];
        }
    }
    for j in 0..N {
        f(j, t + 0.5 * h, tmp[j], k2[j]);
    }
    for j in 0..N {
        for i in 0..x[j].len() {
            tmp[j][i] = x[j][i] + 0.5 * h * k2[j][i];
        }
    }
    for j in 0..N {
        f(j, t + 0.5 * h, tmp[j], k3[j]);
    }
    for j in 0..N {
        for i in 0..x[j].len() {
            tmp[j][i] = x[j][i] + h * k3[j][i];
        }
    }
    for j in 0..N {
        f(j, t + h, tmp[j], k4[j]);
    }
    for j in 0..N {
        for i in 0..x[j].len() {
            x[j][i] += h / 6.0 * (k1[j][i] + 2.0 * k2[j][i] + 2.0 * k3[j][i] + k4[j][i]);
        }
    }
}

/// Which solver strategy to instantiate; the configuration-level mirror of
/// the concrete strategy types.
///
/// # Examples
///
/// ```
/// use urt_ode::solver::SolverKind;
///
/// let solver = SolverKind::Rk4.create();
/// assert_eq!(solver.name(), "rk4");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum SolverKind {
    /// Explicit forward Euler (order 1).
    ForwardEuler,
    /// Heun's method / explicit trapezoidal (order 2).
    Heun,
    /// Classic fourth-order Runge–Kutta.
    #[default]
    Rk4,
    /// Adaptive Dormand–Prince 4(5).
    Dopri45,
    /// Backward Euler via fixed-point iteration (order 1, damped).
    BackwardEuler,
}

impl SolverKind {
    /// All kinds, in ascending order of accuracy cost.
    pub const ALL: [SolverKind; 5] = [
        SolverKind::ForwardEuler,
        SolverKind::Heun,
        SolverKind::Rk4,
        SolverKind::Dopri45,
        SolverKind::BackwardEuler,
    ];

    /// Instantiates the strategy with default settings.
    pub fn create(self) -> Box<dyn Solver + Send> {
        match self {
            SolverKind::ForwardEuler => Box::new(ForwardEuler::new()),
            SolverKind::Heun => Box::new(Heun::new()),
            SolverKind::Rk4 => Box::new(Rk4::new()),
            SolverKind::Dopri45 => Box::new(Dopri45::new()),
            SolverKind::BackwardEuler => Box::new(BackwardEuler::new()),
        }
    }
}

impl fmt::Display for SolverKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SolverKind::ForwardEuler => "euler",
            SolverKind::Heun => "heun",
            SolverKind::Rk4 => "rk4",
            SolverKind::Dopri45 => "dopri45",
            SolverKind::BackwardEuler => "backward-euler",
        };
        f.write_str(name)
    }
}

/// Explicit forward Euler: `x += h f(t, x)`.
#[derive(Debug, Clone, Default)]
pub struct ForwardEuler {
    k: StateVec,
    lane_scratch: Vec<f64>,
}

impl ForwardEuler {
    /// Creates the strategy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Solver for ForwardEuler {
    fn name(&self) -> &str {
        "euler"
    }

    fn order(&self) -> u32 {
        1
    }

    fn clone_boxed(&self) -> Option<Box<dyn Solver + Send>> {
        Some(Box::new(self.clone()))
    }

    fn step(
        &mut self,
        sys: &dyn OdeSystem,
        t: f64,
        x: &mut [f64],
        h: f64,
    ) -> Result<StepOutcome, SolveError> {
        validate(sys, x, h)?;
        resize(&mut self.k, x.len());
        let f = |_, t, x: &[f64], dx: &mut [f64]| sys.derivatives(t, x, dx);
        euler_stages(f, t, h, [x], [[self.k.as_mut_slice()]]);
        ensure_finite(t + h, x)?;
        Ok(StepOutcome::fixed(h))
    }

    fn has_batched_kernel(&self) -> bool {
        true
    }

    /// Batch step: the system runs the scheme over its lanes in blocks
    /// of four ([`BatchOdeSystem::step_lanes`]). Per lane the arithmetic
    /// is the scalar kernel's own, so every lane is bit-identical to a
    /// standalone [`Solver::step`].
    fn step_batch(
        &mut self,
        sys: &dyn BatchOdeSystem,
        t: f64,
        states: &mut [f64],
        dim: usize,
        h: f64,
    ) -> Result<(), SolveError> {
        batch_layout(sys, states, dim, h)?;
        let scheme = ExplicitScheme::ForwardEuler;
        resize_buf(&mut self.lane_scratch, scheme.scratch_len(dim));
        sys.step_lanes(scheme, t, states, dim, h, &mut self.lane_scratch);
        ensure_finite(t + h, states)
    }
}

/// Heun's method (explicit trapezoidal), order 2.
#[derive(Debug, Clone, Default)]
pub struct Heun {
    k1: StateVec,
    k2: StateVec,
    tmp: StateVec,
}

impl Heun {
    /// Creates the strategy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Solver for Heun {
    fn name(&self) -> &str {
        "heun"
    }

    fn order(&self) -> u32 {
        2
    }

    fn clone_boxed(&self) -> Option<Box<dyn Solver + Send>> {
        Some(Box::new(self.clone()))
    }

    fn step(
        &mut self,
        sys: &dyn OdeSystem,
        t: f64,
        x: &mut [f64],
        h: f64,
    ) -> Result<StepOutcome, SolveError> {
        validate(sys, x, h)?;
        let n = x.len();
        resize(&mut self.k1, n);
        resize(&mut self.k2, n);
        resize(&mut self.tmp, n);
        sys.derivatives(t, x, self.k1.as_mut_slice());
        for i in 0..n {
            self.tmp[i] = x[i] + h * self.k1[i];
        }
        sys.derivatives(t + h, self.tmp.as_slice(), self.k2.as_mut_slice());
        for i in 0..n {
            x[i] += 0.5 * h * (self.k1[i] + self.k2[i]);
        }
        ensure_finite(t + h, x)?;
        Ok(StepOutcome::fixed(h))
    }
}

/// Classic fourth-order Runge–Kutta.
#[derive(Debug, Clone, Default)]
pub struct Rk4 {
    k1: StateVec,
    k2: StateVec,
    k3: StateVec,
    k4: StateVec,
    tmp: StateVec,
    lane_scratch: Vec<f64>,
}

impl Rk4 {
    /// Creates the strategy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Solver for Rk4 {
    fn name(&self) -> &str {
        "rk4"
    }

    fn order(&self) -> u32 {
        4
    }

    fn clone_boxed(&self) -> Option<Box<dyn Solver + Send>> {
        Some(Box::new(self.clone()))
    }

    fn step(
        &mut self,
        sys: &dyn OdeSystem,
        t: f64,
        x: &mut [f64],
        h: f64,
    ) -> Result<StepOutcome, SolveError> {
        validate(sys, x, h)?;
        let n = x.len();
        for k in [&mut self.k1, &mut self.k2, &mut self.k3, &mut self.k4, &mut self.tmp] {
            resize(k, n);
        }
        let stages = [
            [self.k1.as_mut_slice()],
            [self.k2.as_mut_slice()],
            [self.k3.as_mut_slice()],
            [self.k4.as_mut_slice()],
            [self.tmp.as_mut_slice()],
        ];
        let f = |_, t, x: &[f64], dx: &mut [f64]| sys.derivatives(t, x, dx);
        rk4_stages(f, t, h, [x], stages);
        ensure_finite(t + h, x)?;
        Ok(StepOutcome::fixed(h))
    }

    fn has_batched_kernel(&self) -> bool {
        true
    }

    /// Batch step: the system runs the scheme over its lanes in blocks
    /// of four, each lane's four stages kept local
    /// ([`BatchOdeSystem::step_lanes`]). Per lane the arithmetic is the
    /// scalar kernel's own, so every lane is bit-identical to a
    /// standalone [`Solver::step`].
    fn step_batch(
        &mut self,
        sys: &dyn BatchOdeSystem,
        t: f64,
        states: &mut [f64],
        dim: usize,
        h: f64,
    ) -> Result<(), SolveError> {
        batch_layout(sys, states, dim, h)?;
        let scheme = ExplicitScheme::Rk4;
        resize_buf(&mut self.lane_scratch, scheme.scratch_len(dim));
        sys.step_lanes(scheme, t, states, dim, h, &mut self.lane_scratch);
        ensure_finite(t + h, states)
    }
}

/// Adaptive Dormand–Prince 4(5) with PI-free elementary step control.
///
/// Rejected steps leave `x` untouched and suggest a smaller `h_next`.
#[derive(Debug, Clone)]
pub struct Dopri45 {
    /// Absolute error tolerance.
    pub abs_tol: f64,
    /// Relative error tolerance.
    pub rel_tol: f64,
    /// Smallest step the controller may propose before erroring out.
    pub min_step: f64,
    k: [StateVec; 7],
    tmp: StateVec,
    x5: StateVec,
}

impl Default for Dopri45 {
    fn default() -> Self {
        Dopri45 {
            abs_tol: 1e-8,
            rel_tol: 1e-8,
            min_step: 1e-14,
            k: Default::default(),
            tmp: StateVec::default(),
            x5: StateVec::default(),
        }
    }
}

impl Dopri45 {
    /// Creates the strategy with `abs_tol = rel_tol = 1e-8`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the strategy with explicit tolerances.
    ///
    /// # Panics
    ///
    /// Panics if either tolerance is not positive.
    pub fn with_tolerances(abs_tol: f64, rel_tol: f64) -> Self {
        assert!(abs_tol > 0.0 && rel_tol > 0.0, "tolerances must be positive");
        Dopri45 { abs_tol, rel_tol, ..Self::default() }
    }
}

// Dormand–Prince Butcher tableau.
const A: [[f64; 6]; 6] = [
    [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
    [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
    [19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0, 0.0, 0.0],
    [9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0, 0.0],
    [35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0],
];
const C: [f64; 6] = [1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0];
const B5: [f64; 7] =
    [35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0];
const B4: [f64; 7] = [
    5179.0 / 57600.0,
    0.0,
    7571.0 / 16695.0,
    393.0 / 640.0,
    -92097.0 / 339200.0,
    187.0 / 2100.0,
    1.0 / 40.0,
];

impl Solver for Dopri45 {
    fn name(&self) -> &str {
        "dopri45"
    }

    fn order(&self) -> u32 {
        5
    }

    fn is_adaptive(&self) -> bool {
        true
    }

    fn clone_boxed(&self) -> Option<Box<dyn Solver + Send>> {
        Some(Box::new(self.clone()))
    }

    fn step(
        &mut self,
        sys: &dyn OdeSystem,
        t: f64,
        x: &mut [f64],
        h: f64,
    ) -> Result<StepOutcome, SolveError> {
        validate(sys, x, h)?;
        let n = x.len();
        for k in &mut self.k {
            resize(k, n);
        }
        resize(&mut self.tmp, n);
        resize(&mut self.x5, n);

        sys.derivatives(t, x, self.k[0].as_mut_slice());
        for stage in 0..6 {
            for i in 0..n {
                let mut acc = 0.0;
                for (j, a) in A[stage].iter().enumerate().take(stage + 1) {
                    acc += a * self.k[j][i];
                }
                self.tmp[i] = x[i] + h * acc;
            }
            sys.derivatives(
                t + C[stage] * h,
                self.tmp.as_slice(),
                self.k[stage + 1].as_mut_slice(),
            );
        }

        // 5th-order solution and embedded 4th-order error estimate.
        let mut err_norm: f64 = 0.0;
        for i in 0..n {
            let mut s5 = 0.0;
            let mut s4 = 0.0;
            for j in 0..7 {
                s5 += B5[j] * self.k[j][i];
                s4 += B4[j] * self.k[j][i];
            }
            let x5i = x[i] + h * s5;
            let x4i = x[i] + h * s4;
            self.x5[i] = x5i;
            let scale = self.abs_tol + self.rel_tol * x[i].abs().max(x5i.abs());
            let e = (x5i - x4i) / scale;
            err_norm += e * e;
        }
        let err_norm = (err_norm / n.max(1) as f64).sqrt();

        let safety = 0.9;
        let exponent = 1.0 / 5.0;
        let factor =
            if err_norm == 0.0 { 5.0 } else { (safety * err_norm.powf(-exponent)).clamp(0.2, 5.0) };
        let h_next = h * factor;

        if err_norm <= 1.0 {
            x.copy_from_slice(self.x5.as_slice());
            ensure_finite(t + h, x)?;
            Ok(StepOutcome { accepted: true, h_taken: h, h_next, error_estimate: Some(err_norm) })
        } else {
            if h_next < self.min_step {
                return Err(SolveError::StepSizeUnderflow { time: t, step: h_next });
            }
            Ok(StepOutcome {
                accepted: false,
                h_taken: 0.0,
                h_next,
                error_estimate: Some(err_norm),
            })
        }
    }
}

/// Backward Euler solved by damped fixed-point iteration.
///
/// A-stable for the fixed-point-contractive regime (`h * L < 1` on the
/// system's Lipschitz constant); useful for the stiff decay experiments.
#[derive(Debug, Clone)]
pub struct BackwardEuler {
    /// Convergence tolerance on the state increment (infinity norm).
    pub tol: f64,
    /// Maximum fixed-point iterations per step.
    pub max_iters: usize,
    k: StateVec,
    guess: StateVec,
}

impl Default for BackwardEuler {
    fn default() -> Self {
        BackwardEuler {
            tol: 1e-12,
            max_iters: 100,
            k: StateVec::default(),
            guess: StateVec::default(),
        }
    }
}

impl BackwardEuler {
    /// Creates the strategy with default tolerance `1e-12`.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Solver for BackwardEuler {
    fn name(&self) -> &str {
        "backward-euler"
    }

    fn order(&self) -> u32 {
        1
    }

    fn clone_boxed(&self) -> Option<Box<dyn Solver + Send>> {
        Some(Box::new(self.clone()))
    }

    fn step(
        &mut self,
        sys: &dyn OdeSystem,
        t: f64,
        x: &mut [f64],
        h: f64,
    ) -> Result<StepOutcome, SolveError> {
        validate(sys, x, h)?;
        let n = x.len();
        resize(&mut self.k, n);
        resize(&mut self.guess, n);
        // Initial guess: forward Euler predictor.
        sys.derivatives(t, x, self.k.as_mut_slice());
        for i in 0..n {
            self.guess[i] = x[i] + h * self.k[i];
        }
        let mut converged = false;
        for _ in 0..self.max_iters {
            sys.derivatives(t + h, self.guess.as_slice(), self.k.as_mut_slice());
            let mut delta: f64 = 0.0;
            for i in 0..n {
                let next = x[i] + h * self.k[i];
                delta = delta.max((next - self.guess[i]).abs());
                self.guess[i] = next;
            }
            if delta <= self.tol {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(SolveError::NoConvergence { iterations: self.max_iters });
        }
        x.copy_from_slice(self.guess.as_slice());
        ensure_finite(t + h, x)?;
        Ok(StepOutcome::fixed(h))
    }
}

fn resize(v: &mut StateVec, n: usize) {
    if v.dim() != n {
        *v = StateVec::zeros(n);
    }
}

/// Drives a solver across many steps, handling adaptive rejection and
/// end-of-interval clamping. Used by [`crate::integrate`], by the
/// streamer executor in `urt-dataflow` and by its batched ODE rows, which
/// drive one over all their lanes' stacked states: the sub-step schedule
/// exists only here.
#[derive(Debug, Clone)]
pub struct SolverDriver {
    t: f64,
    x: StateVec,
    h: f64,
    h_nominal: f64,
}

/// How close to `t_end` a clock counts as having reached it.
pub(crate) fn resolution(t_end: f64) -> f64 {
    4.0 * f64::EPSILON * t_end.abs().max(1.0)
}

impl SolverDriver {
    /// Creates a driver at `(t0, x0)` with nominal step `h`.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::InvalidStep`] if `h` is not positive and finite.
    pub fn new(t0: f64, x0: &[f64], h: f64) -> Result<Self, SolveError> {
        if !(h.is_finite() && h > 0.0) {
            return Err(SolveError::InvalidStep { step: h });
        }
        Ok(SolverDriver { t: t0, x: StateVec::from_slice(x0), h, h_nominal: h })
    }

    /// Current time.
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Current state.
    pub fn state(&self) -> &StateVec {
        &self.x
    }

    /// Mutable access to the state (for discrete resets at events).
    pub fn state_mut(&mut self) -> &mut StateVec {
        &mut self.x
    }

    /// Advances by one *accepted* step, never past `t_end`.
    ///
    /// When the remaining interval is below floating-point resolution the
    /// time is snapped to `t_end` with a zero-length accepted step, so
    /// `while driver.time() < t_end` loops always terminate.
    ///
    /// # Errors
    ///
    /// Propagates any [`SolveError`] from the solver; also errors if an
    /// adaptive solver rejects steps until underflow.
    pub fn advance<S: Solver + ?Sized>(
        &mut self,
        sys: &dyn OdeSystem,
        solver: &mut S,
        t_end: f64,
    ) -> Result<StepOutcome, SolveError> {
        let adaptive = solver.is_adaptive();
        self.advance_with(t_end, adaptive, &mut |t, x, h| solver.step(sys, t, x, h))
    }

    /// Advances through the whole interval to `t_end` (a macro-step
    /// boundary) in accepted steps, stopping once the clock is within
    /// resolution of `t_end`.
    ///
    /// The clock is *not* always left at `t_end`: the end snap inside a
    /// step (`t_end - t <= resolution`) and this loop's exit test
    /// (`t < t_end - resolution`) can disagree by one rounding, leaving
    /// it a hair before. The next interval's clamped final step depends
    /// on that value bit for bit, so a driver must be kept, not rebuilt,
    /// across intervals.
    ///
    /// # Errors
    ///
    /// As [`SolverDriver::advance`].
    pub fn advance_to<S: Solver + ?Sized>(
        &mut self,
        sys: &dyn OdeSystem,
        solver: &mut S,
        t_end: f64,
    ) -> Result<(), SolveError> {
        let adaptive = solver.is_adaptive();
        self.advance_to_with(t_end, adaptive, |t, x, h| solver.step(sys, t, x, h))
    }

    /// [`SolverDriver::advance_to`] with the step given as a closure
    /// `step(t, x, h)` over the driver's whole state, for a strategy that
    /// is `adaptive` or not. A batched executor stacks many lanes in one
    /// driver and steps them all per call, so every lane follows exactly
    /// the schedule a scalar driver gives it alone.
    ///
    /// # Errors
    ///
    /// Any error `step` returns; also errors if an adaptive step is
    /// rejected until underflow.
    pub fn advance_to_with<F>(
        &mut self,
        t_end: f64,
        adaptive: bool,
        mut step: F,
    ) -> Result<(), SolveError>
    where
        F: FnMut(f64, &mut [f64], f64) -> Result<StepOutcome, SolveError>,
    {
        let resolution = resolution(t_end);
        while self.t < t_end - resolution {
            self.advance_with(t_end, adaptive, &mut step)?;
        }
        Ok(())
    }

    /// One accepted step through `step` (see [`SolverDriver::advance`]).
    fn advance_with<F>(
        &mut self,
        t_end: f64,
        adaptive: bool,
        step: &mut F,
    ) -> Result<StepOutcome, SolveError>
    where
        F: FnMut(f64, &mut [f64], f64) -> Result<StepOutcome, SolveError>,
    {
        let resolution = resolution(t_end);
        loop {
            let remaining = t_end - self.t;
            if remaining <= resolution {
                self.t = t_end;
                return Ok(StepOutcome {
                    accepted: true,
                    h_taken: remaining.max(0.0),
                    h_next: self.h,
                    error_estimate: None,
                });
            }
            // Fixed-step solvers always restart from the nominal step —
            // only adaptive solvers carry their own step suggestion, and a
            // clamped end-of-interval step must never poison it.
            let h = if adaptive { self.h.min(remaining) } else { self.h_nominal.min(remaining) };
            let h = if h <= 0.0 { remaining } else { h };
            let outcome = step(self.t, self.x.as_mut_slice(), h)?;
            if outcome.accepted {
                self.t += outcome.h_taken;
                // Snap when accumulation lands within resolution of t_end.
                if t_end - self.t <= resolution {
                    self.t = t_end;
                }
                if adaptive && outcome.h_taken >= remaining.min(self.h) * 0.99 {
                    self.h = outcome.h_next.min(self.h_nominal * 10.0).max(1e-300);
                }
                return Ok(outcome);
            }
            self.h = outcome.h_next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::library::{decay, HarmonicOscillator};
    use crate::system::FnSystem;

    fn solve_decay(kind: SolverKind, h: f64) -> f64 {
        let sys = decay(1.0);
        let mut solver = kind.create();
        let mut x = vec![1.0];
        let mut t = 0.0;
        while t < 1.0 - 1e-12 {
            let step = h.min(1.0 - t);
            let out = solver.step(&sys, t, &mut x, step).expect("step ok");
            if out.accepted {
                t += out.h_taken;
            }
        }
        x[0]
    }

    #[test]
    fn all_kinds_create_and_name() {
        for kind in SolverKind::ALL {
            let s = kind.create();
            assert_eq!(s.name(), kind.to_string());
            assert!(s.order() >= 1);
        }
    }

    #[test]
    fn convergence_orders_rank_correctly() {
        let exact = (-1.0f64).exp();
        let e1 = (solve_decay(SolverKind::ForwardEuler, 0.01) - exact).abs();
        let e2 = (solve_decay(SolverKind::Heun, 0.01) - exact).abs();
        let e4 = (solve_decay(SolverKind::Rk4, 0.01) - exact).abs();
        assert!(e2 < e1, "heun {e2} should beat euler {e1}");
        assert!(e4 < e2, "rk4 {e4} should beat heun {e2}");
    }

    #[test]
    fn euler_halving_h_halves_error() {
        let exact = (-1.0f64).exp();
        let e_h = (solve_decay(SolverKind::ForwardEuler, 0.02) - exact).abs();
        let e_h2 = (solve_decay(SolverKind::ForwardEuler, 0.01) - exact).abs();
        let ratio = e_h / e_h2;
        assert!((ratio - 2.0).abs() < 0.2, "order-1 ratio was {ratio}");
    }

    #[test]
    fn rk4_sixteenths_error_when_halving() {
        let exact = (-1.0f64).exp();
        let e_h = (solve_decay(SolverKind::Rk4, 0.2) - exact).abs();
        let e_h2 = (solve_decay(SolverKind::Rk4, 0.1) - exact).abs();
        let ratio = e_h / e_h2;
        assert!(ratio > 12.0 && ratio < 20.0, "order-4 ratio was {ratio}");
    }

    #[test]
    fn dopri_rejects_then_accepts() {
        let sys = decay(50.0);
        let mut solver = Dopri45::with_tolerances(1e-10, 1e-10);
        let mut x = vec![1.0];
        // Enormous first step must be rejected.
        let out = solver.step(&sys, 0.0, &mut x, 1.0).unwrap();
        assert!(!out.accepted);
        assert_eq!(x[0], 1.0, "rejected step must not modify state");
        assert!(out.h_next < 1.0);
        let out2 = solver.step(&sys, 0.0, &mut x, out.h_next).unwrap();
        // Eventually accepted (maybe after another rejection).
        let mut h = out2.h_next;
        let mut accepted = out2.accepted;
        for _ in 0..20 {
            if accepted {
                break;
            }
            let o = solver.step(&sys, 0.0, &mut x, h).unwrap();
            accepted = o.accepted;
            h = o.h_next;
        }
        assert!(accepted);
    }

    #[test]
    fn dopri_energy_preserved_on_oscillator() {
        let sys = HarmonicOscillator { omega: 1.0 };
        let traj = crate::integrate(&sys, &mut Dopri45::new(), 0.0, 20.0, &[1.0, 0.0], 0.1)
            .expect("integrates");
        let x = traj.last_state();
        let energy = x[0] * x[0] + x[1] * x[1];
        assert!((energy - 1.0).abs() < 1e-5, "energy drifted to {energy}");
    }

    #[test]
    fn backward_euler_is_stable_on_stiff_decay() {
        // Forward Euler with h=0.5 on x' = -10x diverges (|1 - 10*0.5| = 4 > 1);
        // backward Euler stays bounded.
        let sys = decay(10.0);
        let mut fe = ForwardEuler::new();
        let mut be = BackwardEuler::new();
        let mut xf = vec![1.0];
        let mut xb = vec![1.0];
        let mut t = 0.0;
        for _ in 0..20 {
            // h*L = 5 > 1 breaks the fixed point, use h where it contracts: 0.05.
            fe.step(&sys, t, &mut xf, 0.5).unwrap();
            be.step(&sys, t, &mut xb, 0.05).unwrap();
            t += 0.5;
        }
        assert!(xf[0].abs() > 1.0, "forward euler should diverge, got {}", xf[0]);
        assert!(xb[0].abs() < 1.0, "backward euler should contract, got {}", xb[0]);
    }

    #[test]
    fn backward_euler_reports_no_convergence() {
        // h*L >> 1 makes the fixed-point iteration diverge.
        let sys = decay(100.0);
        let mut be = BackwardEuler { max_iters: 5, ..BackwardEuler::new() };
        let mut x = vec![1.0];
        let err = be.step(&sys, 0.0, &mut x, 1.0).unwrap_err();
        assert!(matches!(err, SolveError::NoConvergence { .. }));
    }

    #[test]
    fn step_validates_inputs() {
        let sys = decay(1.0);
        let mut s = Rk4::new();
        let mut x = vec![1.0, 2.0];
        assert!(matches!(
            s.step(&sys, 0.0, &mut x, 0.1),
            Err(SolveError::DimensionMismatch { .. })
        ));
        let mut x = vec![1.0];
        assert!(matches!(s.step(&sys, 0.0, &mut x, 0.0), Err(SolveError::InvalidStep { .. })));
        assert!(matches!(s.step(&sys, 0.0, &mut x, f64::NAN), Err(SolveError::InvalidStep { .. })));
    }

    #[test]
    fn non_finite_state_detected() {
        let sys = FnSystem::new(1, |_t, _x, dx: &mut [f64]| dx[0] = f64::NAN);
        let mut s = ForwardEuler::new();
        let mut x = vec![1.0];
        assert!(matches!(s.step(&sys, 0.0, &mut x, 0.1), Err(SolveError::NonFiniteState { .. })));
    }

    #[test]
    fn driver_clamps_to_t_end() {
        let sys = decay(1.0);
        let mut driver = SolverDriver::new(0.0, &[1.0], 0.4).unwrap();
        let mut solver = Rk4::new();
        while driver.time() < 1.0 {
            driver.advance(&sys, &mut solver, 1.0).unwrap();
        }
        assert!((driver.time() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stacked_lanes_follow_the_scalar_driver_schedule() {
        // Two lanes in one driver, stepped together through `step_batch`,
        // land bit for bit where two scalar drivers do, macro step after
        // macro step, although the substep divides no macro step.
        let sys = HarmonicOscillator { omega: 1.3 };
        let x0 = [1.0, 0.0, -0.5, 0.25];
        let h = 0.0013;
        let mut stacked = SolverDriver::new(0.0, &x0, h).unwrap();
        let mut lanes =
            [x0[..2].to_vec(), x0[2..].to_vec()].map(|x| SolverDriver::new(0.0, &x, h).unwrap());
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut solver = Rk4::new();
        let mut t_end = 0.0;
        for _ in 0..50 {
            t_end += 0.01;
            stacked
                .advance_to_with(t_end, false, |t, x, h| {
                    solver.step_batch(&sys, t, x, 2, h).map(|()| StepOutcome::fixed(h))
                })
                .unwrap();
            for (i, lane) in lanes.iter_mut().enumerate() {
                lane.advance_to(&sys, &mut Rk4::new(), t_end).unwrap();
                assert_eq!(stacked.time().to_bits(), lane.time().to_bits(), "clock at {t_end}");
                let x = &stacked.state().as_slice()[i * 2..(i + 1) * 2];
                assert_eq!(bits(x), bits(lane.state().as_slice()), "lane {i} at {t_end}");
            }
        }
    }

    #[test]
    fn clone_boxed_replicates_every_kind() {
        for kind in SolverKind::ALL {
            let proto = kind.create();
            let clone = proto.clone_boxed().expect("library solvers are cloneable");
            assert_eq!(clone.name(), proto.name());
            assert_eq!(clone.order(), proto.order());
            assert_eq!(clone.is_adaptive(), proto.is_adaptive());
        }
    }

    #[test]
    fn step_batch_lanes_match_standalone_steps() {
        let sys = HarmonicOscillator { omega: 1.0 };
        // Four instance-major lanes with different initial conditions.
        let mut batch = vec![1.0, 0.0, 0.5, 0.0, 0.0, 1.0, -1.0, 0.5];
        let mut solver = Rk4::new();
        solver.step_batch(&sys, 0.0, &mut batch, 2, 0.1).unwrap();
        for (i, x0) in [[1.0, 0.0], [0.5, 0.0], [0.0, 1.0], [-1.0, 0.5]].iter().enumerate() {
            let mut lane = x0.to_vec();
            Rk4::new().step(&sys, 0.0, &mut lane, 0.1).unwrap();
            for d in 0..2 {
                assert_eq!(
                    batch[i * 2 + d].to_bits(),
                    lane[d].to_bits(),
                    "lane {i} bit-identical to a standalone step"
                );
            }
        }
    }

    #[test]
    fn step_batch_supports_adaptive_solvers() {
        let sys = decay(5.0);
        let mut batch = vec![1.0, 2.0];
        Dopri45::new().step_batch(&sys, 0.0, &mut batch, 1, 0.5).unwrap();
        let exact = (-5.0f64 * 0.5).exp();
        assert!((batch[0] - exact).abs() < 1e-6, "lane 0 got {}", batch[0]);
        assert!((batch[1] - 2.0 * exact).abs() < 1e-6, "lane 1 got {}", batch[1]);
    }

    #[test]
    fn step_batch_validates_layout() {
        let sys = decay(1.0);
        let mut batch = vec![1.0, 2.0, 3.0];
        assert!(matches!(
            Rk4::new().step_batch(&sys, 0.0, &mut batch, 2, 0.1),
            Err(SolveError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            Rk4::new().step_batch(&sys, 0.0, &mut batch, 0, 0.1),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn driver_rejects_bad_step() {
        assert!(SolverDriver::new(0.0, &[1.0], 0.0).is_err());
        assert!(SolverDriver::new(0.0, &[1.0], -1.0).is_err());
        assert!(SolverDriver::new(0.0, &[1.0], f64::INFINITY).is_err());
    }

    #[test]
    fn only_explicit_fixed_step_solvers_report_batched_kernels() {
        for kind in SolverKind::ALL {
            let expect = matches!(kind, SolverKind::ForwardEuler | SolverKind::Rk4);
            assert_eq!(kind.create().has_batched_kernel(), expect, "{kind} batched-kernel flag");
        }
    }

    #[test]
    fn euler_batched_kernel_is_bit_identical_to_scalar_steps() {
        let sys = HarmonicOscillator { omega: 3.0 };
        let lanes = [[1.0, 0.0], [0.25, -0.5], [-2.0, 1.5], [0.1, 0.2], [7.0, -3.0]];
        let mut batch: Vec<f64> = lanes.iter().flatten().copied().collect();
        let mut solver = ForwardEuler::new();
        assert!(solver.has_batched_kernel());
        solver.step_batch(&sys, 0.5, &mut batch, 2, 0.01).unwrap();
        for (i, x0) in lanes.iter().enumerate() {
            let mut lane = x0.to_vec();
            ForwardEuler::new().step(&sys, 0.5, &mut lane, 0.01).unwrap();
            for d in 0..2 {
                assert_eq!(batch[i * 2 + d].to_bits(), lane[d].to_bits(), "lane {i} var {d}");
            }
        }
    }

    #[test]
    fn rk4_batched_kernel_handles_lane_block_remainders() {
        // 13 lanes of a 1-d system: three blocks of four lanes and one
        // remainder lane.
        let sys = decay(2.0);
        let k = 13;
        let mut batch: Vec<f64> = (0..k).map(|i| 0.5 + i as f64).collect();
        let mut solver = Rk4::new();
        solver.step_batch(&sys, 0.0, &mut batch, 1, 0.05).unwrap();
        for i in 0..k {
            let mut lane = vec![0.5 + i as f64];
            Rk4::new().step(&sys, 0.0, &mut lane, 0.05).unwrap();
            assert_eq!(batch[i].to_bits(), lane[0].to_bits(), "lane {i}");
        }
    }

    #[test]
    fn batched_kernel_reports_non_finite_states() {
        // Derivative explodes to inf immediately.
        let sys = FnSystem::new(1, |_t, _x, dx| dx[0] = f64::INFINITY);
        let mut batch = vec![1.0, 2.0];
        assert!(matches!(
            ForwardEuler::new().step_batch(&sys, 0.0, &mut batch, 1, 0.1),
            Err(SolveError::NonFiniteState { .. })
        ));
    }

    #[test]
    fn batched_kernel_rejects_dim_mismatch_with_system() {
        let sys = HarmonicOscillator { omega: 1.0 };
        let mut batch = vec![1.0, 2.0, 3.0];
        assert!(matches!(
            Rk4::new().step_batch(&sys, 0.0, &mut batch, 1, 0.1),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    /// An adaptive-looking strategy whose controller underflows: every
    /// step is rejected with a suggested `h_next` of zero. The pinned
    /// `step_batch` termination must surface this as
    /// [`SolveError::StepSizeUnderflow`] instead of spinning.
    struct UnderflowingSolver {
        attempts: Vec<f64>,
    }

    impl Solver for UnderflowingSolver {
        fn name(&self) -> &str {
            "underflowing"
        }

        fn order(&self) -> u32 {
            1
        }

        fn is_adaptive(&self) -> bool {
            true
        }

        fn step(
            &mut self,
            _sys: &dyn OdeSystem,
            _t: f64,
            _x: &mut [f64],
            h: f64,
        ) -> Result<StepOutcome, SolveError> {
            self.attempts.push(h);
            Ok(StepOutcome { accepted: false, h_taken: 0.0, h_next: 0.0, error_estimate: None })
        }
    }

    #[test]
    fn default_step_batch_errors_instead_of_spinning_on_h_next_underflow() {
        let sys = decay(1.0);
        let mut batch = vec![1.0];
        let mut solver = UnderflowingSolver { attempts: Vec::new() };
        let err = solver.step_batch(&sys, 0.0, &mut batch, 1, 1.0).unwrap_err();
        assert!(
            matches!(err, SolveError::StepSizeUnderflow { .. }),
            "expected StepSizeUnderflow, got {err:?}"
        );
        // Exactly one attempt: the first rejection suggests h_next = 0,
        // which is below resolution, so the loop must stop immediately.
        assert_eq!(solver.attempts.len(), 1);
    }

    /// Accepts every step but halves the suggestion each time, driving
    /// `h_next` towards zero as the lane closes in on `t_end`.
    struct HalvingSolver {
        attempts: Vec<f64>,
    }

    impl Solver for HalvingSolver {
        fn name(&self) -> &str {
            "halving"
        }

        fn order(&self) -> u32 {
            1
        }

        fn is_adaptive(&self) -> bool {
            true
        }

        fn step(
            &mut self,
            _sys: &dyn OdeSystem,
            _t: f64,
            _x: &mut [f64],
            h: f64,
        ) -> Result<StepOutcome, SolveError> {
            self.attempts.push(h);
            Ok(StepOutcome { accepted: true, h_taken: h, h_next: h / 2.0, error_estimate: None })
        }
    }

    #[test]
    fn default_step_batch_never_attempts_a_step_below_resolution() {
        let sys = decay(1.0);
        let mut batch = vec![1.0];
        let mut solver = HalvingSolver { attempts: Vec::new() };
        let t_end: f64 = 1.0;
        let resolution = f64::EPSILON * t_end.abs().max(1.0);
        // Halving converges on t_end geometrically; the loop must either
        // finish or error out, but every *attempted* step stays at or
        // above the interval resolution.
        let result = solver.step_batch(&sys, 0.0, &mut batch, 1, t_end);
        assert!(!solver.attempts.is_empty());
        for h in &solver.attempts {
            assert!(*h >= resolution, "attempted step {h} below resolution {resolution}");
        }
        if let Err(e) = result {
            assert!(matches!(e, SolveError::StepSizeUnderflow { .. }), "unexpected error {e:?}");
        }
    }

    /// Lanes of one equation with per-lane gains, stepped through the
    /// fused lane hook: `dx_v = -g x_v + sin(x_{v+1}) + 0.1 t`.
    struct GainLanes {
        dim: usize,
        gains: Vec<f64>,
        fused: std::cell::Cell<usize>,
    }

    fn gain_derivative(g: f64, t: f64, x: &[f64], dx: &mut [f64]) {
        for v in 0..x.len() {
            dx[v] = -g * x[v] + x[(v + 1) % x.len()].sin() + 0.1 * t;
        }
    }

    impl OdeSystem for GainLanes {
        fn dim(&self) -> usize {
            self.dim
        }
        fn derivatives(&self, t: f64, x: &[f64], dx: &mut [f64]) {
            gain_derivative(self.gains[0], t, x, dx);
        }
    }

    impl BatchOdeSystem for GainLanes {
        fn step_lanes(
            &self,
            scheme: ExplicitScheme,
            t: f64,
            states: &mut [f64],
            dim: usize,
            h: f64,
            scratch: &mut [f64],
        ) {
            self.fused.set(self.fused.get() + 1);
            scheme.step_lanes(t, states, dim, h, scratch, |i, t, x: &[f64], dx: &mut [f64]| {
                gain_derivative(self.gains[i], t, x, dx)
            });
        }
    }

    #[test]
    fn fused_lanes_are_bit_identical_to_scalar_steps_on_arrays_and_slices() {
        // Dims 1-8 run on const arrays, 9-12 on the solver's scratch.
        for dim in 1..=CONST_LANE_DIM + 4 {
            let gains = vec![0.5, 1.25, 2.0, 0.75, 3.0];
            let sys = GainLanes { dim, gains: gains.clone(), fused: Default::default() };
            let x0: Vec<f64> = (0..gains.len() * dim).map(|j| 0.3 * j as f64 - 1.0).collect();
            for kind in [SolverKind::ForwardEuler, SolverKind::Rk4] {
                let mut batch = x0.clone();
                let mut solver = kind.create();
                for step in 0..3 {
                    solver
                        .step_batch(&sys, 0.2 + step as f64 * 0.01, &mut batch, dim, 0.01)
                        .unwrap();
                }
                for (i, &g) in gains.iter().enumerate() {
                    let lane_sys = FnSystem::new(dim, move |t, x: &[f64], dx: &mut [f64]| {
                        gain_derivative(g, t, x, dx)
                    });
                    let mut lane = x0[i * dim..(i + 1) * dim].to_vec();
                    let mut scalar = kind.create();
                    for step in 0..3 {
                        scalar.step(&lane_sys, 0.2 + step as f64 * 0.01, &mut lane, 0.01).unwrap();
                    }
                    for v in 0..dim {
                        assert_eq!(
                            batch[i * dim + v].to_bits(),
                            lane[v].to_bits(),
                            "{kind} dim {dim} lane {i} var {v}"
                        );
                    }
                }
            }
            assert_eq!(sys.fused.get(), 6, "dim {dim}: every batch step took the fused hook");
        }
    }

    #[test]
    fn fused_lanes_report_non_finite_states_at_the_step_end() {
        let sys = GainLanes { dim: 2, gains: vec![1.0, -1e308], fused: Default::default() };
        let mut batch = vec![1.0, 1.0, 1e10, 1e10];
        for mut solver in [SolverKind::ForwardEuler.create(), SolverKind::Rk4.create()] {
            let err = solver.step_batch(&sys, 0.5, &mut batch.clone(), 2, 0.25).unwrap_err();
            assert_eq!(err, SolveError::NonFiniteState { time: 0.75 }, "{}", solver.name());
        }
        batch.truncate(2);
        assert!(Rk4::new().step_batch(&sys, 0.5, &mut batch, 2, 0.25).is_ok(), "one finite lane");
    }
}
