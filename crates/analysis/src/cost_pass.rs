//! Static timing analysis (`URT301`–`URT305`): budgets macro steps and
//! recommends thread partitions before anything runs.
//!
//! The paper's unified model targets *real-time* control systems, yet
//! structural soundness alone lets a model that can never meet its
//! control-loop deadline sail through the gate and fail only on the wall
//! clock. This pass closes that hole in the schedulability-analysis
//! tradition (Giotto, UML-RT deployment models): timing is a
//! compile-time artifact.
//!
//! A model opts in by declaring facts
//! ([`ModelBuilder::declare_step_cost`](urt_core::model::ModelBuilder::declare_step_cost)
//! /
//! [`ModelBuilder::declare_budget`](urt_core::model::ModelBuilder::declare_budget));
//! undeclared streamers fall back to a [`CostModel`] — a calibration
//! table fitted from the engine benchmark
//! (`bench_engine --emit-cost-table` → `results/COST_table.json`), or
//! conservative defaults when no table is present. The pass aggregates
//! worst-case per-macro-step cost per solver-thread group over the
//! flattened model ([`UnifiedModel::flatten`]: leaf streamers and
//! relay-resolved flows, the same reading `URT007`/`URT207` use, so
//! relays and containers can't hide cost) and emits:
//!
//! * **`URT301`** (error) — a thread group's worst-case macro-step cost
//!   exceeds the budget binding it; [`compile`](crate::compile) refuses
//!   it like any other error.
//! * **`URT302`** (warning) — a budget is declared but a streamer on the
//!   critical path has neither a declared nor a calibrated cost; the
//!   conservative default was assumed.
//! * **`URT303`** (warning) — partition imbalance above threshold, with
//!   per-group cost shares.
//! * **`URT304`** (info) — the recommended `assign_thread` partition:
//!   greedy bin-packing over the flattened flows, feasibility-pruned so
//!   no suggested cut creates a zero-delay cross-group path (`URT207`),
//!   with predicted per-group costs and the one-macro-step delays each
//!   cut induces.
//! * **`URT305`** (warning) — a declared cost contradicts the
//!   calibration table by more than 10× (a stale-annotation smell).
//!
//! The runtime half of the same contract is
//! [`HybridEngine::run_paced`](urt_core::engine::HybridEngine::run_paced):
//! the declared budget this pass checks statically travels through
//! `CompiledSystem::step_budget_ns` into the paced run loop, which
//! enforces it against the wall clock per macro step and — under
//! `OverrunPolicy::SafetyStop` — aborts with the structured `URT115`
//! (`CoreError::DeadlineOverrun`) when it is repeatedly missed. `URT301`
//! says a budget *cannot* be met from static costs; `URT115` says it
//! *was not* met on this machine.

use crate::diagnostic::{json_string, Diagnostic, Severity};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;
use urt_core::model::{Flattening, StreamerRef, UnifiedModel};

/// Conservative per-streamer macro-step cost (ns) assumed when neither a
/// declaration nor a calibration entry exists. Chosen well above the
/// most expensive calibrated solver in `results/BENCH_engine.json`
/// (an RK4 Van der Pol at ~6.5 µs/step), so an uncalibrated model is
/// budgeted pessimistically, never optimistically.
pub const CONSERVATIVE_NS_PER_STEP: f64 = 10_000.0;

/// Imbalance threshold for `URT303`: warn when the most loaded group
/// carries more than this multiple of the mean group cost.
pub const IMBALANCE_FACTOR: f64 = 1.5;

/// Declared-vs-calibrated contradiction threshold for `URT305`.
pub const CONTRADICTION_FACTOR: f64 = 10.0;

/// Where a streamer's cost figure came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostBasis {
    /// `declare_step_cost` on the model.
    Declared,
    /// The calibration table, keyed by solver kind.
    Calibrated,
    /// [`CONSERVATIVE_NS_PER_STEP`] (nothing better known).
    Default,
}

/// Per-streamer cost model: a solver-kind calibration table plus a
/// conservative fallback.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// ns per macro step, keyed by solver kind (`"rk4"`, `"euler"`, …).
    solver_ns: BTreeMap<String, f64>,
    /// Fallback for solvers absent from the table.
    default_ns: f64,
    /// Whether this model was fitted from measurements (a loaded table)
    /// rather than assumed.
    calibrated: bool,
}

impl CostModel {
    /// The no-table fallback: every streamer costs
    /// [`CONSERVATIVE_NS_PER_STEP`].
    pub fn conservative() -> Self {
        CostModel {
            solver_ns: BTreeMap::new(),
            default_ns: CONSERVATIVE_NS_PER_STEP,
            calibrated: false,
        }
    }

    /// Builds a calibrated model from explicit entries (mostly for
    /// tests; production tables come from [`CostModel::from_json`]).
    pub fn from_entries(entries: &[(&str, f64)], default_ns: f64) -> Self {
        CostModel {
            solver_ns: entries.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
            default_ns,
            calibrated: true,
        }
    }

    /// Parses a `cost_table/v1` JSON document (the shape
    /// `bench_engine --emit-cost-table` writes).
    ///
    /// # Errors
    ///
    /// A human-readable description when the schema marker, the default
    /// cost or the solver entries cannot be found.
    pub fn from_json(json: &str) -> Result<Self, String> {
        if !json.contains("\"schema\":\"cost_table/v1\"") {
            return Err("not a cost_table/v1 document".to_owned());
        }
        let default_ns = number_field(json, "\"default_ns_per_step\":")
            .ok_or_else(|| "missing default_ns_per_step".to_owned())?;
        let mut solver_ns = BTreeMap::new();
        let solvers =
            json.split_once("\"solvers\":[").ok_or_else(|| "missing solvers array".to_owned())?.1;
        let mut rest = solvers;
        while let Some((_, after)) = rest.split_once("\"solver\":\"") {
            let (name, after_name) =
                after.split_once('"').ok_or_else(|| "unterminated solver name".to_owned())?;
            let ns = number_field(after_name, "\"ns_per_step\":")
                .ok_or_else(|| format!("solver `{name}` has no ns_per_step"))?;
            solver_ns.insert(name.to_owned(), ns);
            rest = after_name;
        }
        if solver_ns.is_empty() {
            return Err("empty solvers array".to_owned());
        }
        Ok(CostModel { solver_ns, default_ns, calibrated: true })
    }

    /// Loads the first parseable table among `paths`, falling back to
    /// [`CostModel::conservative`] when none loads.
    pub fn load_from(paths: &[&Path]) -> Self {
        for p in paths {
            if let Ok(text) = std::fs::read_to_string(p) {
                if let Ok(model) = CostModel::from_json(&text) {
                    return model;
                }
            }
        }
        CostModel::conservative()
    }

    /// The process-wide default: `results/COST_table.json` resolved
    /// relative to the working directory (the repo root for the CLI,
    /// a crate root under `cargo test` — both spellings are searched),
    /// conservative when absent. Loaded once and cached.
    pub fn shared() -> &'static CostModel {
        static SHARED: OnceLock<CostModel> = OnceLock::new();
        SHARED.get_or_init(|| {
            CostModel::load_from(&[
                Path::new("results/COST_table.json"),
                Path::new("../../results/COST_table.json"),
            ])
        })
    }

    /// Whether the table came from measurements.
    pub fn is_calibrated(&self) -> bool {
        self.calibrated
    }

    /// Calibration entry for a solver kind, if present.
    pub fn solver_ns(&self, solver: &str) -> Option<f64> {
        self.solver_ns.get(solver).copied()
    }

    /// The fallback cost for unknown solvers.
    pub fn default_ns(&self) -> f64 {
        self.default_ns
    }

    /// The worst-case macro-step cost of streamer `s` and where the
    /// figure came from: declaration > calibration > default.
    pub fn streamer_cost(&self, model: &UnifiedModel, s: StreamerRef) -> (f64, CostBasis) {
        if let Some(ns) = model.streamer_step_cost(s) {
            return (ns, CostBasis::Declared);
        }
        let solver = model
            .iter_streamers()
            .find(|(r, _, _)| *r == s)
            .map(|(_, _, solver)| solver)
            .unwrap_or("");
        match self.solver_ns(solver) {
            Some(ns) => (ns, CostBasis::Calibrated),
            None => (self.default_ns, CostBasis::Default),
        }
    }
}

/// Extracts the JSON number following `key` in `json`.
fn number_field(json: &str, key: &str) -> Option<f64> {
    let after = json.split_once(key)?.1;
    let end = after
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(after.len());
    after[..end].parse().ok()
}

/// Worst-case cost of one solver-thread group under the current plan.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupCost {
    /// Declared solver thread.
    pub thread: usize,
    /// Sum of member worst-case step costs, ns.
    pub cost_ns: f64,
    /// The budget binding this thread, if any.
    pub budget_ns: Option<f64>,
    /// Member (leaf) streamer names, declaration order.
    pub streamers: Vec<String>,
}

/// The `URT304` recommendation: a feasibility-pruned greedy bin-packing
/// of the leaf streamers over solver threads.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionPlan {
    /// `(streamer name, recommended thread)`, declaration order.
    pub assignments: Vec<(String, usize)>,
    /// Predicted worst-case cost per recommended thread, ns.
    pub group_costs: Vec<f64>,
    /// Effective edges the recommendation cuts; each acquires a
    /// deterministic one-macro-step delay (`URT207` info at runtime).
    pub cut_edges: Vec<(String, String)>,
    /// Bin capacity used (the tightest declared budget), ns.
    pub capacity_ns: f64,
}

impl PartitionPlan {
    /// Whether the plan keeps everything on one thread.
    pub fn is_single_thread(&self) -> bool {
        self.group_costs.len() <= 1
    }
}

/// Everything `urt-lint --budget-report` prints: per-group worst-case
/// cost vs. budget under the *declared* plan, plus the recommendation.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetReport {
    /// Model name.
    pub model: String,
    /// Whether the cost figures come from a calibration table.
    pub calibrated: bool,
    /// Per-declared-thread worst-case costs.
    pub groups: Vec<GroupCost>,
    /// The `URT304` recommendation.
    pub plan: PartitionPlan,
}

impl BudgetReport {
    /// Markdown-ish human table plus the recommendation line.
    pub fn render_human(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "budget report `{}` (cost model: {})",
            self.model,
            if self.calibrated { "calibrated" } else { "conservative defaults" }
        );
        let _ =
            writeln!(s, "| thread | worst-case ns/step | budget ns/step | verdict | streamers |");
        let _ =
            writeln!(s, "|--------|--------------------|----------------|---------|-----------|");
        for g in &self.groups {
            let (budget, verdict) = match g.budget_ns {
                Some(b) if g.cost_ns > b => (format!("{b:.0}"), "OVER"),
                Some(b) => (format!("{b:.0}"), "OK"),
                None => ("-".to_owned(), "unbudgeted"),
            };
            let _ = writeln!(
                s,
                "| {} | {:.0} | {} | {} | {} |",
                g.thread,
                g.cost_ns,
                budget,
                verdict,
                g.streamers.join(", ")
            );
        }
        let _ = write!(s, "recommendation (URT304): {}", render_plan(&self.plan));
        s
    }

    /// Hand-rolled JSON rendering (the workspace carries no serde).
    pub fn render_json(&self) -> String {
        let mut s = String::from("{");
        let _ =
            write!(s, "\"model\":{},\"calibrated\":{}", json_string(&self.model), self.calibrated);
        s.push_str(",\"groups\":[");
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"thread\":{},\"cost_ns\":{:.1}", g.thread, g.cost_ns);
            match g.budget_ns {
                Some(b) => {
                    let _ = write!(s, ",\"budget_ns\":{b:.1},\"within\":{}", g.cost_ns <= b);
                }
                None => s.push_str(",\"budget_ns\":null,\"within\":null"),
            }
            s.push_str(",\"streamers\":[");
            for (j, name) in g.streamers.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&json_string(name));
            }
            s.push_str("]}");
        }
        s.push_str("],\"recommendation\":{");
        let _ = write!(
            s,
            "\"threads\":{},\"capacity_ns\":{:.1},\"group_costs\":[",
            self.plan.group_costs.len(),
            self.plan.capacity_ns
        );
        for (i, c) in self.plan.group_costs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{c:.1}");
        }
        s.push_str("],\"assignments\":[");
        for (i, (name, t)) in self.plan.assignments.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"streamer\":{},\"thread\":{t}}}", json_string(name));
        }
        s.push_str("],\"cuts\":[");
        for (i, (a, b)) in self.plan.cut_edges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"from\":{},\"to\":{}}}", json_string(a), json_string(b));
        }
        s.push_str("]}}");
        s
    }
}

fn render_plan(plan: &PartitionPlan) -> String {
    if plan.is_single_thread() {
        return format!(
            "keep all leaf streamers on one solver thread (predicted {:.0} ns/step \
             against a {:.0} ns budget); splitting buys nothing at this cost model",
            plan.group_costs.first().copied().unwrap_or(0.0),
            plan.capacity_ns
        );
    }
    let mut members: Vec<Vec<&str>> = vec![Vec::new(); plan.group_costs.len()];
    for (name, t) in &plan.assignments {
        members[*t].push(name);
    }
    let groups: Vec<String> = plan
        .group_costs
        .iter()
        .enumerate()
        .map(|(t, c)| format!("thread {t}: {} ({c:.0} ns)", members[t].join(", ")))
        .collect();
    let cuts: Vec<String> = plan.cut_edges.iter().map(|(a, b)| format!("{a}->{b}")).collect();
    format!(
        "{} solver threads — {}; each cut edge gains a one-macro-step delay: {}",
        plan.group_costs.len(),
        groups.join("; "),
        if cuts.is_empty() { "none".to_owned() } else { cuts.join(", ") }
    )
}

/// Computes the budget report for a model, or `None` when the model
/// declares no budgets (the pass is opt-in).
pub fn budget_report(model: &UnifiedModel, cost: &CostModel) -> Option<BudgetReport> {
    report(model, &model.flatten(), cost)
}

/// [`budget_report`] over the flattening `flat` of `model`: only leaf
/// streamers run, so containers carry no cost and take no partition slot.
fn report(model: &UnifiedModel, flat: &Flattening, cost: &CostModel) -> Option<BudgetReport> {
    if !model.has_budgets() {
        return None;
    }
    let leaf_refs = &flat.leaves;

    // --- worst case per declared thread ---------------------------------
    let mut by_thread: BTreeMap<usize, GroupCost> = BTreeMap::new();
    for &s in leaf_refs {
        let t = model.streamer_thread(s);
        let (ns, _) = cost.streamer_cost(model, s);
        let entry = by_thread.entry(t).or_insert_with(|| GroupCost {
            thread: t,
            cost_ns: 0.0,
            budget_ns: model.budget_for_thread(t),
            streamers: Vec::new(),
        });
        entry.cost_ns += ns;
        entry.streamers.push(model.streamer_name(s).unwrap_or("?").to_owned());
    }

    // --- recommendation: feasibility-pruned greedy bin-packing ----------
    // Contract every flow into a feedthrough consumer: cutting it would
    // create a zero-delay cross-group path (URT207 error), so those
    // endpoints must share a thread. What remains are the units the
    // packer may place freely; every cut edge then has a non-feedthrough
    // consumer, which tolerates the channel's one-macro-step delay by
    // construction.
    let index: HashMap<StreamerRef, usize> =
        leaf_refs.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let mut parent: Vec<usize> = (0..leaf_refs.len()).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }
    let edges: Vec<(usize, usize)> =
        flat.flows.iter().map(|f| (index[&f.from], index[&f.to])).collect();
    for &(ia, ib) in &edges {
        if model.streamer_feedthrough(leaf_refs[ib]) {
            let (ra, rb) = (find(&mut parent, ia), find(&mut parent, ib));
            parent[ra] = rb;
        }
    }
    let mut units: BTreeMap<usize, (f64, Vec<usize>)> = BTreeMap::new();
    for (i, &leaf) in leaf_refs.iter().enumerate() {
        let root = find(&mut parent, i);
        let (ns, _) = cost.streamer_cost(model, leaf);
        let entry = units.entry(root).or_insert((0.0, Vec::new()));
        entry.0 += ns;
        entry.1.push(i);
    }
    // The tightest declared budget is the bin capacity.
    let capacity = model.iter_budgets().map(|(_, ns)| ns).fold(f64::INFINITY, f64::min);
    // First-fit decreasing; ties broken by first declared member, so the
    // plan is deterministic across map orders.
    let mut unit_list: Vec<(f64, Vec<usize>)> = units.into_values().collect();
    unit_list.sort_by(|a, b| {
        b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1[0].cmp(&b.1[0]))
    });
    let total: f64 = unit_list.iter().map(|(c, _)| *c).sum();
    let mut bins: Vec<(f64, Vec<usize>)> = Vec::new();
    if total <= capacity {
        // Splitting is pure overhead when one thread meets the budget —
        // the bench's lesson (4 groups cost ~4× on fig2).
        bins.push((total, unit_list.iter().flat_map(|(_, m)| m.iter().copied()).collect()));
    } else {
        for (c, members) in unit_list {
            match bins.iter_mut().find(|(used, _)| *used + c <= capacity) {
                Some(bin) => {
                    bin.0 += c;
                    bin.1.extend(members);
                }
                None => bins.push((c, members)),
            }
        }
    }
    for (_, members) in &mut bins {
        members.sort_unstable();
    }
    let mut assignment_of = vec![0usize; leaf_refs.len()];
    for (t, (_, members)) in bins.iter().enumerate() {
        for &m in members {
            assignment_of[m] = t;
        }
    }
    let assignments: Vec<(String, usize)> = leaf_refs
        .iter()
        .enumerate()
        .map(|(i, &s)| (model.streamer_name(s).unwrap_or("?").to_owned(), assignment_of[i]))
        .collect();
    let mut cut_edges: Vec<(String, String)> = Vec::new();
    let mut seen = HashSet::new();
    for &(ia, ib) in &edges {
        if assignment_of[ia] != assignment_of[ib] && seen.insert((ia, ib)) {
            cut_edges.push((assignments[ia].0.clone(), assignments[ib].0.clone()));
        }
    }

    Some(BudgetReport {
        model: model.name().to_owned(),
        calibrated: cost.is_calibrated(),
        groups: by_thread.into_values().collect(),
        plan: PartitionPlan {
            assignments,
            group_costs: bins.iter().map(|(c, _)| *c).collect(),
            cut_edges,
            capacity_ns: capacity,
        },
    })
}

/// Runs the cost pass over the flattening `flat` of `model` with the
/// process-wide default [`CostModel`].
pub fn run(model: &UnifiedModel, flat: &Flattening, out: &mut Vec<Diagnostic>) {
    check(model, flat, CostModel::shared(), out);
}

/// Runs the cost pass with an explicit cost model.
pub fn run_with(model: &UnifiedModel, cost: &CostModel, out: &mut Vec<Diagnostic>) {
    check(model, &model.flatten(), cost, out);
}

/// The cost pass over the flattening `flat` of `model`.
fn check(model: &UnifiedModel, flat: &Flattening, cost: &CostModel, out: &mut Vec<Diagnostic>) {
    let Some(report) = report(model, flat, cost) else {
        return; // no declared budgets: the pass is opt-in
    };
    let mpath = model.name();

    // URT302 / URT305: per-streamer cost hygiene on budgeted threads.
    for &s in &flat.leaves {
        let t = model.streamer_thread(s);
        if model.budget_for_thread(t).is_none() {
            continue;
        }
        let name = model.streamer_name(s).unwrap_or("?");
        let solver = model
            .iter_streamers()
            .find(|(r, _, _)| *r == s)
            .map(|(_, _, solver)| solver.to_owned())
            .unwrap_or_default();
        let (ns, basis) = cost.streamer_cost(model, s);
        if basis == CostBasis::Default {
            out.push(
                Diagnostic::new(
                    "URT302",
                    Severity::Warning,
                    format!("{mpath}/{name}"),
                    format!(
                        "streamer `{name}` sits on budgeted thread {t} with neither a declared \
                         step cost nor a calibration entry for solver `{solver}`; the \
                         conservative default ({ns:.0} ns) was assumed"
                    ),
                )
                .suggest(
                    "declare_step_cost(...) on the model, or regenerate the calibration table \
                     with `bench_engine --emit-cost-table`",
                ),
            );
        }
        if let (Some(declared), Some(calibrated)) =
            (model.streamer_step_cost(s), cost.solver_ns(&solver))
        {
            let ratio = declared / calibrated;
            if !(1.0 / CONTRADICTION_FACTOR..=CONTRADICTION_FACTOR).contains(&ratio) {
                out.push(
                    Diagnostic::new(
                        "URT305",
                        Severity::Warning,
                        format!("{mpath}/{name}"),
                        format!(
                            "declared step cost of `{name}` ({declared:.0} ns) contradicts the \
                             calibration table ({calibrated:.0} ns for solver `{solver}`) by \
                             more than {CONTRADICTION_FACTOR:.0}x — stale annotation?"
                        ),
                    )
                    .suggest(
                        "re-measure (bench_engine --emit-cost-table) or drop the declaration \
                         so calibration takes over",
                    ),
                );
            }
        }
    }

    // URT301: worst case vs. budget, per declared thread group.
    for g in &report.groups {
        let Some(budget) = g.budget_ns else { continue };
        if g.cost_ns > budget {
            let over = 100.0 * (g.cost_ns - budget) / budget;
            out.push(
                Diagnostic::new(
                    "URT301",
                    Severity::Error,
                    format!("{mpath}/thread:{}", g.thread),
                    format!(
                        "worst-case macro-step cost of solver thread {} is {:.0} ns, exceeding \
                         its {budget:.0} ns budget by {over:.0}% (members: {})",
                        g.thread,
                        g.cost_ns,
                        g.streamers.join(", ")
                    ),
                )
                .suggest(
                    "raise the budget, cut member cost, or split the thread — see the URT304 \
                     partition recommendation",
                ),
            );
        }
    }

    // URT303: imbalance across the declared multi-thread plan.
    if report.groups.len() >= 2 {
        let total: f64 = report.groups.iter().map(|g| g.cost_ns).sum();
        let mean = total / report.groups.len() as f64;
        if let Some(worst) = report
            .groups
            .iter()
            .max_by(|a, b| a.cost_ns.partial_cmp(&b.cost_ns).unwrap_or(std::cmp::Ordering::Equal))
        {
            if total > 0.0 && worst.cost_ns > IMBALANCE_FACTOR * mean {
                let shares: Vec<String> = report
                    .groups
                    .iter()
                    .map(|g| format!("thread {}: {:.0}%", g.thread, 100.0 * g.cost_ns / total))
                    .collect();
                out.push(
                    Diagnostic::new(
                        "URT303",
                        Severity::Warning,
                        format!("{mpath}/threads"),
                        format!(
                            "partition imbalance: solver thread {} carries {:.0}% of the \
                             worst-case cost ({:.0} ns of {total:.0} ns total; shares: {})",
                            worst.thread,
                            100.0 * worst.cost_ns / total,
                            worst.cost_ns,
                            shares.join(", ")
                        ),
                    )
                    .suggest("rebalance with assign_thread — see the URT304 recommendation"),
                );
            }
        }
    }

    // URT304: the recommendation itself.
    out.push(
        Diagnostic::new(
            "URT304",
            Severity::Info,
            format!("{mpath}/partition"),
            format!("recommended partition: {}", render_plan(&report.plan)),
        )
        .suggest(
            report
                .plan
                .assignments
                .iter()
                .map(|(name, t)| format!("assign_thread({name}, {t})"))
                .collect::<Vec<_>>()
                .join("; "),
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use urt_core::model::{BudgetScope, ModelBuilder};
    use urt_dataflow::flowtype::FlowType;

    fn table() -> CostModel {
        CostModel::from_entries(&[("euler", 40.0), ("rk4", 6000.0)], 10_000.0)
    }

    /// Three-stage non-feedthrough pipeline with declared costs and a
    /// per-thread budget; everything starts on thread 0.
    fn pipeline(costs: [f64; 3], budget: f64) -> urt_core::model::UnifiedModel {
        let mut b = ModelBuilder::new("pipe");
        let mut prev = None;
        for (i, ns) in costs.iter().enumerate() {
            let s = b.streamer(format!("st{i}"), "euler");
            if i > 0 {
                b.streamer_in(s, "u", FlowType::scalar());
            }
            b.streamer_out(s, "y", FlowType::scalar());
            b.streamer_feedthrough(s, false);
            b.declare_step_cost(s, *ns);
            if let Some(p) = prev {
                b.flow_between_streamers(p, "y", s, "u");
            }
            prev = Some(s);
        }
        b.declare_budget(BudgetScope::Model, budget);
        b.build()
    }

    #[test]
    fn no_budget_means_no_findings() {
        let mut b = ModelBuilder::new("quiet");
        let s = b.streamer("s", "rk4");
        b.streamer_out(s, "y", FlowType::scalar());
        let mut out = Vec::new();
        run_with(&b.build(), &table(), &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn over_budget_thread_is_an_error_with_members() {
        let model = pipeline([400.0, 400.0, 400.0], 1000.0);
        let mut out = Vec::new();
        run_with(&model, &table(), &mut out);
        let d = out.iter().find(|d| d.code == "URT301").expect("URT301");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.path, "pipe/thread:0");
        assert!(d.message.contains("1200 ns"), "{}", d.message);
        assert!(d.message.contains("st0, st1, st2"), "{}", d.message);
    }

    #[test]
    fn met_budget_is_silent_except_the_recommendation() {
        let model = pipeline([100.0, 100.0, 100.0], 1000.0);
        let mut out = Vec::new();
        run_with(&model, &table(), &mut out);
        assert!(!out.iter().any(|d| d.code == "URT301"), "{out:#?}");
        let rec = out.iter().find(|d| d.code == "URT304").expect("URT304");
        assert_eq!(rec.severity, Severity::Info);
        assert!(rec.message.contains("keep all leaf streamers"), "{}", rec.message);
    }

    #[test]
    fn uncalibrated_streamer_on_budgeted_thread_warns() {
        let mut b = ModelBuilder::new("m");
        let s = b.streamer("mystery", "levenberg");
        b.streamer_out(s, "y", FlowType::scalar());
        b.declare_budget(BudgetScope::Thread(0), 50_000.0);
        let mut out = Vec::new();
        run_with(&b.build(), &table(), &mut out);
        let d = out.iter().find(|d| d.code == "URT302").expect("URT302");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("levenberg"), "{}", d.message);
        assert!(d.message.contains("10000 ns"), "conservative default: {}", d.message);
    }

    #[test]
    fn declared_cost_contradicting_calibration_warns() {
        let mut b = ModelBuilder::new("m");
        let s = b.streamer("stale", "euler");
        b.streamer_out(s, "y", FlowType::scalar());
        b.declare_step_cost(s, 40_000.0); // 1000x the table's euler
        b.declare_budget(BudgetScope::Model, 100_000.0);
        let mut out = Vec::new();
        run_with(&b.build(), &table(), &mut out);
        let d = out.iter().find(|d| d.code == "URT305").expect("URT305");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("stale annotation"), "{}", d.message);
        // The declaration still wins for budgeting (no URT302).
        assert!(!out.iter().any(|d| d.code == "URT302"), "{out:#?}");
    }

    #[test]
    fn imbalanced_declared_plan_warns_with_shares() {
        let mut b = ModelBuilder::new("m");
        let s1 = b.streamer("heavy", "euler");
        let s2 = b.streamer("light", "euler");
        b.streamer_out(s1, "y", FlowType::scalar());
        b.streamer_out(s2, "y", FlowType::scalar());
        b.declare_step_cost(s1, 900.0);
        b.declare_step_cost(s2, 100.0);
        b.assign_thread(s1, 0);
        b.assign_thread(s2, 1);
        b.declare_budget(BudgetScope::Model, 1000.0);
        let mut out = Vec::new();
        run_with(&b.build(), &table(), &mut out);
        let d = out.iter().find(|d| d.code == "URT303").expect("URT303");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("90%"), "{}", d.message);
        assert!(d.message.contains("thread 1: 10%"), "{}", d.message);
    }

    #[test]
    fn recommendation_splits_when_one_thread_cannot_meet_the_budget() {
        let model = pipeline([600.0, 600.0, 600.0], 1300.0);
        let report = budget_report(&model, &table()).expect("budgeted");
        assert_eq!(report.plan.group_costs.len(), 2, "{report:#?}");
        assert!(report.plan.group_costs.iter().all(|&c| c <= 1300.0), "{report:#?}");
        assert!(!report.plan.cut_edges.is_empty(), "a split must cut an edge");
        // Every cut consumer is non-feedthrough (URT207-feasible).
        let mut out = Vec::new();
        run_with(&model, &table(), &mut out);
        assert!(out.iter().any(|d| d.code == "URT304" && d.message.contains("one-macro-step")));
    }

    #[test]
    fn feedthrough_consumers_are_never_cut() {
        // st0 -> st1 with st1 feedthrough: the pair is one unit even when
        // splitting would balance better.
        let mut b = ModelBuilder::new("m");
        let s0 = b.streamer("st0", "euler");
        let s1 = b.streamer("st1", "euler");
        let s2 = b.streamer("st2", "euler");
        b.streamer_out(s0, "y", FlowType::scalar());
        b.streamer_in(s1, "u", FlowType::scalar());
        b.streamer_out(s1, "y", FlowType::scalar());
        b.streamer_in(s2, "u", FlowType::scalar());
        b.streamer_feedthrough(s0, false);
        b.streamer_feedthrough(s1, true); // same-step consumer: uncuttable
        b.streamer_feedthrough(s2, false);
        b.flow_between_streamers(s0, "y", s1, "u");
        b.flow_between_streamers(s1, "y", s2, "u");
        for (s, ns) in [(s0, 700.0), (s1, 700.0), (s2, 700.0)] {
            b.declare_step_cost(s, ns);
        }
        b.declare_budget(BudgetScope::Model, 1500.0);
        let report = budget_report(&b.build(), &table()).expect("budgeted");
        let thread_of = |name: &str| {
            report.plan.assignments.iter().find(|(n, _)| n == name).map(|(_, t)| *t).unwrap()
        };
        assert_eq!(thread_of("st0"), thread_of("st1"), "{:#?}", report.plan);
        assert!(
            !report.plan.cut_edges.iter().any(|(_, to)| to == "st1"),
            "{:#?}",
            report.plan.cut_edges
        );
    }

    #[test]
    fn cost_table_parses_and_falls_back() {
        let json = "{\"schema\":\"cost_table/v1\",\"fitted_from\":\"bench_engine\",\
                    \"step_s\":0.001,\"default_ns_per_step\":1234.5,\"solvers\":[\
                    {\"solver\":\"euler\",\"ns_per_step\":33.1},\
                    {\"solver\":\"rk4\",\"ns_per_step\":6358.0}]}";
        let table = CostModel::from_json(json).expect("parses");
        assert!(table.is_calibrated());
        assert_eq!(table.solver_ns("euler"), Some(33.1));
        assert_eq!(table.solver_ns("rk4"), Some(6358.0));
        assert_eq!(table.solver_ns("nope"), None);
        assert_eq!(table.default_ns(), 1234.5);

        assert!(CostModel::from_json("{}").is_err());
        assert!(CostModel::from_json("{\"schema\":\"cost_table/v1\"}").is_err());

        // Missing file: conservative fallback.
        let fallback = CostModel::load_from(&[Path::new("/nonexistent/COST_table.json")]);
        assert!(!fallback.is_calibrated());
        assert_eq!(fallback.default_ns(), CONSERVATIVE_NS_PER_STEP);
        // Present file: the committed table loads through the same path
        // the shared() accessor uses from a crate root.
        let loaded = CostModel::load_from(&[
            Path::new("results/COST_table.json"),
            Path::new("../../results/COST_table.json"),
        ]);
        assert!(loaded.is_calibrated(), "committed results/COST_table.json loads");
        assert!(loaded.solver_ns("rk4").is_some());
    }

    #[test]
    fn containers_carry_no_cost() {
        let mut b = ModelBuilder::new("m");
        let top = b.streamer("top", "rk4"); // container: excluded
        let sub = b.streamer("sub", "euler");
        b.contain_streamer(sub, top);
        b.streamer_out(sub, "y", FlowType::scalar());
        b.declare_step_cost(sub, 500.0);
        b.declare_budget(BudgetScope::Model, 1000.0);
        let report = budget_report(&b.build(), &table()).expect("budgeted");
        assert_eq!(report.groups.len(), 1);
        assert_eq!(report.groups[0].streamers, vec!["sub".to_owned()]);
        assert_eq!(report.groups[0].cost_ns, 500.0);
    }
}
