//! Elaboration: lowering a declarative [`UnifiedModel`] into an
//! executable [`CompiledSystem`] artifact, and instantiating that
//! artifact into live [`SystemInstance`]s.
//!
//! The paper's point is *one* model covering both the event-driven and
//! the time-continuous half. This module closes the gap between the
//! declarative model (what `urt-lint` and codegen consume) and the
//! runtime (`StreamerNetwork` step plans + `Controller`): [`elaborate`]
//! resolves every name, port, flow, SPort link and probe **once**, at
//! compile time, into dense integer ids, so the engine's hot path never
//! compares strings or hashes keys. A [`CompiledSystem`] is the only way
//! to build an engine.
//!
//! Since the artifact/instance split, elaboration output is a **pure
//! plan**: lowered per-group topology tables and their validated
//! [`StepPlan`]s, dense cross-flow, probe and link tables resolved
//! against those plans, budgets, and the behaviour *factories* from the
//! [`BehaviorRegistry`] — no live solver or capsule state. A stable
//! content hash (canonical model rendering + registry shape, see
//! [`crate::cache`]) identifies the artifact, so one `compile()` can be
//! memoized and shared ([`SystemCache`](crate::cache::SystemCache)) while
//! every engine built from it — and every
//! [`CompiledSystem::instantiate`] — runs bit-identically to a fresh
//! elaboration. This module is the one place a model name becomes a
//! dense lane: the engines never resolve a name or re-check a rule.
//!
//! The pipeline is `model → analyze → compile → instantiate → run`:
//!
//! 1. an injected [analysis gate](AnalysisGate) vets the model and
//!    enforces its well-formedness rules — `urt_analysis::compile`
//!    passes the full whole-model analyzer here and refuses any
//!    error-severity finding (the crate DAG points
//!    `urt_analysis → urt_core`, so the analyzer is injected instead of
//!    called directly), [`validate_gate`] runs just the rules;
//! 2. the streamer hierarchy is **flattened**: container streamers
//!    (those owning sub-streamers, Figure 2) contribute no nodes, their
//!    leaves become node plans of a flat [`StreamerNetwork`] per declared
//!    solver thread, and capsule relay DPort chains (Figure 3) are
//!    resolved to direct leaf-to-leaf flows; flows whose endpoints sit on
//!    *different* declared threads are lowered into cross-group channel
//!    entries (double-buffered, one-macro-step delay) instead of forcing
//!    the threads to merge;
//! 3. behaviours come from a [`BehaviorRegistry`] (streamer name →
//!    [`StreamerBehavior`] factory, capsule name → [`Capsule`] factory);
//!    elaboration performs one validation instantiation, cross-checking
//!    every behaviour against the declared DPort widths and feedthrough
//!    flag, and lowers each of its networks into the group's
//!    [`StepPlan`] — so undriven inputs and feedthrough loops are refused
//!    here, and a successfully elaborated artifact instantiates cleanly;
//! 4. against those plans, every cross-group flow is resolved to
//!    `(from_group, out_offset, to_group, ext_offset, width)` — one into
//!    a direct-feedthrough consumer is refused (`URT114`; the analyzer's
//!    `URT207` names it ahead of time) — every SPort link to its
//!    `(group, node, plan row)`, refusing a second link on one SPort
//!    ([`CoreError::DuplicateSportLink`]), and every probe to its dense
//!    output lane.
//!
//! The result plugs into the engine via
//! [`HybridEngine::from_compiled`](crate::engine::HybridEngine::from_compiled),
//! which borrows the artifact, clones its plans, invokes each behaviour
//! factory once per instance and fills its state from the tables.

use crate::error::CoreError;
use crate::model::{FlowEnd, Owner, StreamerRef, UnifiedModel};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use urt_dataflow::flowtype::FlowType;
use urt_dataflow::graph::{NodeId, StepPlan, StreamerNetwork};
use urt_dataflow::streamer::StreamerBehavior;
use urt_umlrt::capsule::{Capsule, CapsuleContext, SmCapsule};
use urt_umlrt::controller::Controller;
use urt_umlrt::message::Message;
use urt_umlrt::statemachine::{SmSpec, StateMachineBuilder};

/// Factory producing the executable behaviour of one model streamer.
///
/// `Fn` (not `FnOnce`): the artifact keeps the factory and re-invokes it
/// for every [`CompiledSystem::instantiate`] call and every ensemble
/// replica. `Send + Sync` so a compiled artifact can be shared across
/// threads behind an `Arc` (the compile cache's whole point).
pub type StreamerFactory = Box<dyn Fn() -> Box<dyn StreamerBehavior> + Send + Sync>;

/// Factory producing the executable instance of one model capsule.
pub type CapsuleFactory = Box<dyn Fn() -> Box<dyn Capsule> + Send + Sync>;

/// Maps model element names to the executable behaviours instantiation
/// produces for them.
///
/// Every **leaf** streamer in the model needs a registered factory.
/// Capsules fall back to an inert instance compiled from the model's
/// attached [`SmSpec`] (no-op actions) — or a stateless placeholder if
/// no machine was declared — so analysis-only models still elaborate.
#[derive(Default)]
pub struct BehaviorRegistry {
    streamers: HashMap<String, StreamerFactory>,
    capsules: HashMap<String, CapsuleFactory>,
}

impl std::fmt::Debug for BehaviorRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BehaviorRegistry")
            .field("streamers", &self.streamers.len())
            .field("capsules", &self.capsules.len())
            .finish()
    }
}

impl BehaviorRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the behaviour factory for streamer `name`
    /// (builder style). The factory is retained by the compiled artifact
    /// and re-invoked on every instantiation, so it must be `Fn` and
    /// clone (not move out) any captured prototype.
    pub fn streamer(
        mut self,
        name: impl Into<String>,
        factory: impl Fn() -> Box<dyn StreamerBehavior> + Send + Sync + 'static,
    ) -> Self {
        self.streamers.insert(name.into(), Box::new(factory));
        self
    }

    /// Registers the capsule factory for capsule `name` (builder style).
    pub fn capsule(
        mut self,
        name: impl Into<String>,
        factory: impl Fn() -> Box<dyn Capsule> + Send + Sync + 'static,
    ) -> Self {
        self.capsules.insert(name.into(), Box::new(factory));
        self
    }
}

/// The analysis stage injected into [`elaborate`] — returns `Err` to
/// refuse compilation. A gate must enforce the model's well-formedness
/// rules ([`UnifiedModel::violations`]): [`elaborate`] does not run them
/// again, and its lowering relies on them (flow subsets, SPort protocols,
/// probe ports). `urt_analysis::compile` passes the whole-model analyzer,
/// which reports every violation as an error; callers without the
/// analysis crate pass [`validate_gate`] (model rules only).
pub type AnalysisGate<'a> = &'a dyn Fn(&UnifiedModel) -> Result<(), CoreError>;

/// The minimal gate: just the model's own well-formedness rules.
///
/// # Errors
///
/// Returns the first [`CoreError::Validation`] violation.
pub fn validate_gate(model: &UnifiedModel) -> Result<(), CoreError> {
    model.validate()
}

/// One resolved SPort link: the plan row and node of a streamer's SPort
/// `sport`, bridged to a capsule port.
#[derive(Debug, Clone)]
pub(crate) struct CompiledLink {
    pub(crate) group: usize,
    pub(crate) node: NodeId,
    /// The node's row in its group's [`StepPlan`].
    pub(crate) row: usize,
    pub(crate) sport: String,
    pub(crate) capsule: usize,
    pub(crate) capsule_port: String,
}

/// One resolved probe: the dense output lane of a group recorded into a
/// named series.
#[derive(Debug, Clone)]
pub(crate) struct CompiledProbe {
    pub(crate) group: usize,
    /// Per-instance dense output offset of the port's first lane; `None`
    /// for a zero-width port, which records nothing.
    pub(crate) lane: Option<usize>,
    pub(crate) series: String,
}

/// One resolved cross-group flow: `width` lanes from dense output offset
/// `out_offset` of one solver group into external-input offset
/// `ext_offset` of a *different* group, carried by a double-buffered
/// channel with a deterministic one-macro-step delay (the consumer reads
/// the producer's previous step's sample; see [`crate::engine`]).
#[derive(Debug, Clone)]
pub(crate) struct CrossGroupFlow {
    pub(crate) from_group: usize,
    pub(crate) out_offset: usize,
    pub(crate) to_group: usize,
    pub(crate) ext_offset: usize,
    pub(crate) width: usize,
}

/// One node of a group plan: the model streamer it realises and the
/// declared feedthrough/DPorts to cross-check the behaviour against.
/// Replayed in insertion order by
/// [`CompiledSystem::instantiate`], which reproduces the artifact's dense
/// [`NodeId`] assignment exactly.
#[derive(Debug, Clone)]
struct NodeSpec {
    streamer: String,
    feedthrough: bool,
    in_ports: Vec<(String, FlowType)>,
    out_ports: Vec<(String, FlowType)>,
}

/// One wiring operation of a group plan. Replayed in declaration order so
/// instantiation reproduces the exact export-lane layout the cross-flow
/// table was resolved against.
#[derive(Debug, Clone)]
enum WireOp {
    Flow { from: NodeId, from_port: String, to: NodeId, to_port: String },
    Export { node: NodeId, port: String },
}

/// The plan of one solver-thread group: nodes in [`NodeId`] order plus
/// wiring in declaration order.
#[derive(Debug, Clone)]
struct GroupSpec {
    name: String,
    nodes: Vec<NodeSpec>,
    wiring: Vec<WireOp>,
}

/// How one model capsule is realised at instantiation time, in controller
/// insertion order.
#[derive(Debug, Clone)]
enum CapsuleSpec {
    /// A registered factory provides the executable capsule.
    Registered(String),
    /// No factory: an inert machine compiled from the model's [`SmSpec`].
    Machine(SmSpec),
    /// Neither factory nor machine: a stateless placeholder.
    Inert(String),
}

/// The compiled form of a [`UnifiedModel`]: an **immutable artifact** —
/// per-group topology plans and their validated [`StepPlan`]s, dense
/// cross-flow/link/probe tables resolved against those plans, budgets and
/// the behaviour factories — identified by a stable content hash.
///
/// The artifact holds no live state.
/// [`HybridEngine::from_compiled`](crate::engine::HybridEngine::from_compiled)
/// and
/// [`EnsembleEngine::from_compiled`](crate::ensemble::EnsembleEngine::from_compiled)
/// borrow it, clone its plans and fill their state straight from its
/// tables, so one compile (possibly shared through
/// [`SystemCache`](crate::cache::SystemCache)) serves any number of
/// engines. [`CompiledSystem::instantiate`] stamps out a fresh
/// [`SystemInstance`] (solver networks + capsule controller) for driving
/// the networks below the engine.
pub struct CompiledSystem {
    model_name: String,
    group_specs: Vec<GroupSpec>,
    capsule_specs: Vec<CapsuleSpec>,
    streamer_factories: HashMap<String, StreamerFactory>,
    capsule_factories: HashMap<String, CapsuleFactory>,
    /// Per group, the plan of the validation instance's network.
    pub(crate) plans: Vec<StepPlan>,
    pub(crate) links: Vec<CompiledLink>,
    pub(crate) probes: Vec<CompiledProbe>,
    pub(crate) cross_flows: Vec<CrossGroupFlow>,
    pub(crate) streamer_loc: BTreeMap<String, (usize, NodeId)>,
    pub(crate) capsule_idx: BTreeMap<String, usize>,
    pub(crate) step_budget_ns: Option<f64>,
    content_hash: u64,
}

impl fmt::Debug for CompiledSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledSystem")
            .field("model", &self.model_name)
            .field("groups", &self.group_specs.len())
            .field("capsules", &self.capsule_specs.len())
            .field("links", &self.links.len())
            .field("probes", &self.probes.len())
            .field("cross_flows", &self.cross_flows.len())
            .field("content_hash", &format_args!("{:#018x}", self.content_hash))
            .finish()
    }
}

impl CompiledSystem {
    /// Number of streamer groups (one per declared solver thread).
    pub fn group_count(&self) -> usize {
        self.group_specs.len()
    }

    /// Number of flows lowered into cross-group channels (each carries a
    /// deterministic one-macro-step delay).
    pub fn cross_flow_count(&self) -> usize {
        self.cross_flows.len()
    }

    /// Number of resolved SPort links (capsule–streamer signal bridges).
    pub fn sport_link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of leaf streamers placed as nodes (container streamers
    /// contribute none).
    pub fn streamer_count(&self) -> usize {
        self.streamer_loc.len()
    }

    /// Where a leaf streamer landed, as `(group, node)`.
    pub fn streamer_node(&self, name: &str) -> Option<(usize, NodeId)> {
        self.streamer_loc.get(name).copied()
    }

    /// Controller index of a capsule, for state queries after the run
    /// (via [`HybridEngine::controller`](crate::engine::HybridEngine::controller)
    /// on the instantiated engine).
    pub fn capsule_index(&self, name: &str) -> Option<usize> {
        self.capsule_idx.get(name).copied()
    }

    /// Series names of all resolved probes, in declaration order —
    /// borrowed straight from the probe table, no per-call allocation.
    pub fn probe_series(&self) -> impl Iterator<Item = &str> + '_ {
        self.probes.iter().map(|p| p.series.as_str())
    }

    /// The model-wide per-macro-step deadline budget
    /// ([`BudgetScope::Model`](crate::model::BudgetScope)), in
    /// nanoseconds, carried through elaboration.
    /// [`HybridEngine::from_compiled`](crate::engine::HybridEngine::from_compiled)
    /// picks it up as the default deadline of
    /// [`run_paced`](crate::engine::HybridEngine::run_paced), which counts
    /// deadline misses against it on the wall clock.
    pub fn step_budget_ns(&self) -> Option<f64> {
        self.step_budget_ns
    }

    /// The artifact's stable content hash: FNV-1a 64 over the model's
    /// canonical rendering folded with the registry shape (sorted
    /// streamer and capsule factory names). Equal hashes mean the same
    /// model compiled against the same set of behaviour bindings — the
    /// compile cache's identity. The model-only component is
    /// [`UnifiedModel::content_hash`].
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// Invokes the registered factory for the streamer realised at
    /// `(group, node)`, yielding one pristine behaviour for `instance`,
    /// checked against the declared DPort widths and feedthrough flag.
    ///
    /// # Errors
    ///
    /// [`CoreError::Elaborate`] naming the streamer and `instance` if the
    /// behaviour disagrees with the declaration.
    pub(crate) fn behavior(
        &self,
        group: usize,
        node: NodeId,
        instance: usize,
    ) -> Result<Box<dyn StreamerBehavior>, CoreError> {
        let spec = &self.group_specs[group].nodes[node.index()];
        let factory = self.streamer_factories.get(&spec.streamer);
        let behavior = factory.expect("elaborate checks every placed streamer has a factory")();
        let in_width: usize = spec.in_ports.iter().map(|(_, t)| t.width()).sum();
        let out_width: usize = spec.out_ports.iter().map(|(_, t)| t.width()).sum();
        if behavior.input_width() != in_width || behavior.output_width() != out_width {
            return Err(elaborate_err(format!(
                "streamer `{}`, instance {instance}: declared DPort widths {in_width}->{out_width} \
                 but behaviour `{}` computes {}->{}",
                spec.streamer,
                behavior.name(),
                behavior.input_width(),
                behavior.output_width()
            )));
        }
        if behavior.direct_feedthrough() != spec.feedthrough {
            return Err(elaborate_err(format!(
                "streamer `{}`, instance {instance}: model declares feedthrough={} but behaviour \
                 `{}` reports {}",
                spec.streamer,
                spec.feedthrough,
                behavior.name(),
                behavior.direct_feedthrough()
            )));
        }
        Ok(behavior)
    }

    /// Stamps out one live [`SystemInstance`]: invokes every behaviour
    /// factory fresh, replays the group plans into [`StreamerNetwork`]s
    /// (reproducing the artifact's dense node ids and export-lane
    /// layout), and builds the capsule [`Controller`].
    ///
    /// Two instances of one artifact are fully independent — no shared
    /// mutable state — and run bit-identically.
    ///
    /// # Errors
    ///
    /// [`CoreError::Elaborate`] if a factory-produced behaviour disagrees
    /// with the declared DPort widths or feedthrough flag, plus wiring
    /// errors from the dataflow layer. [`elaborate`] performs one
    /// validation instantiation, so a successfully compiled artifact
    /// does not fail here.
    pub fn instantiate(&self) -> Result<SystemInstance, CoreError> {
        let mut groups = Vec::with_capacity(self.group_specs.len());
        for (gi, spec) in self.group_specs.iter().enumerate() {
            let mut net = StreamerNetwork::new(spec.name.clone());
            for (ni, node) in spec.nodes.iter().enumerate() {
                let behavior = self.behavior(gi, NodeId::from_index(ni), 0)?;
                let in_ports: Vec<(&str, FlowType)> =
                    node.in_ports.iter().map(|(n, t)| (n.as_str(), t.clone())).collect();
                let out_ports: Vec<(&str, FlowType)> =
                    node.out_ports.iter().map(|(n, t)| (n.as_str(), t.clone())).collect();
                net.add_streamer_boxed(behavior, &in_ports, &out_ports)?;
            }
            for op in &spec.wiring {
                match op {
                    WireOp::Flow { from, from_port, to, to_port } => {
                        net.flow((*from, from_port.as_str()), (*to, to_port.as_str()))?;
                    }
                    WireOp::Export { node, port } => {
                        net.export_input(*node, port)?;
                    }
                }
            }
            groups.push(net);
        }
        Ok(SystemInstance { groups, controller: self.controller()? })
    }

    /// Builds a fresh capsule [`Controller`] with every capsule
    /// instantiated and no port connected — the capsule half of
    /// [`CompiledSystem::instantiate`], and the engines' per-instance
    /// controller factory.
    pub(crate) fn controller(&self) -> Result<Controller, CoreError> {
        let mut controller = Controller::new(self.model_name.as_str());
        for cap in &self.capsule_specs {
            let instance: Box<dyn Capsule> = match cap {
                CapsuleSpec::Registered(name) => match self.capsule_factories.get(name) {
                    Some(factory) => factory(),
                    None => {
                        return Err(elaborate_err(format!(
                            "no factory registered for capsule `{name}`"
                        )))
                    }
                },
                CapsuleSpec::Machine(spec) => inert_machine(spec)?,
                CapsuleSpec::Inert(name) => Box::new(InertCapsule { name: name.clone() }),
            };
            controller.add_capsule(instance);
        }
        Ok(controller)
    }
}

/// One live realisation of a [`CompiledSystem`]: freshly instantiated
/// behaviours wired into per-group [`StreamerNetwork`]s plus an
/// instantiated capsule [`Controller`]. Produced by
/// [`CompiledSystem::instantiate`]; consumed by
/// [`HybridEngine::from_compiled`](crate::engine::HybridEngine::from_compiled)
/// — or taken apart with [`SystemInstance::into_parts`] to step its
/// networks directly.
pub struct SystemInstance {
    pub(crate) groups: Vec<StreamerNetwork>,
    pub(crate) controller: Controller,
}

impl SystemInstance {
    /// Number of instantiated streamer groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Read access to the instantiated controller.
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Decomposes the instance into its solver networks (in group order)
    /// and controller, for driving the networks directly
    /// (`StreamerNetwork::step`) below the engine.
    pub fn into_parts(self) -> (Vec<StreamerNetwork>, Controller) {
        (self.groups, self.controller)
    }
}

impl fmt::Debug for SystemInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemInstance").field("groups", &self.groups.len()).finish()
    }
}

/// A capsule with no behaviour: accepts every message, does nothing.
/// Instantiation produces it for model capsules that have neither a
/// registered factory nor an attached state machine (pure structural
/// capsules, e.g. Figure 3's containment shells).
struct InertCapsule {
    name: String,
}

impl Capsule for InertCapsule {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, _ctx: &mut CapsuleContext) {}

    fn on_message(&mut self, _msg: &Message, _ctx: &mut CapsuleContext) {}
}

/// Compiles an [`SmSpec`] into a runnable machine with no-op actions —
/// states and transitions fire exactly as declared, so supervisors built
/// this way still change state on SPort signals, they just cause no side
/// effects.
fn inert_machine(spec: &SmSpec) -> Result<Box<dyn Capsule>, CoreError> {
    // Parents must exist before their children: order states in waves.
    let mut ordered: Vec<&urt_umlrt::statemachine::SmStateSpec> = Vec::new();
    let mut remaining: Vec<&_> = spec.states.iter().collect();
    let mut declared: HashSet<&str> = HashSet::new();
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|s| {
            let ready = s.parent.as_ref().is_none_or(|p| declared.contains(p.as_str()));
            if ready {
                declared.insert(s.name.as_str());
                ordered.push(s);
            }
            !ready
        });
        if remaining.len() == before {
            return Err(CoreError::Elaborate {
                detail: format!(
                    "machine `{}`: state `{}` has an undeclared parent",
                    spec.name, remaining[0].name
                ),
            });
        }
    }
    let mut b = StateMachineBuilder::new(spec.name.clone());
    for s in ordered {
        b = match &s.parent {
            None => b.state(&s.name),
            Some(p) => b.substate(&s.name, p),
        };
    }
    for s in &spec.states {
        if let Some(child) = &s.initial_child {
            b = b.initial_child(&s.name, child);
        }
    }
    let Some(initial) = &spec.initial else {
        return Err(CoreError::Elaborate {
            detail: format!("machine `{}` declares no initial state", spec.name),
        });
    };
    b = b.initial(initial, |_d: &mut (), _ctx: &mut CapsuleContext| {});
    for t in &spec.transitions {
        let trigger = (t.port.as_str(), t.signal.as_str());
        b = match &t.target {
            Some(target) => b.on(&t.source, trigger, target, |_d, _m, _ctx| {}),
            None => b.internal(&t.source, trigger, |_d, _m, _ctx| {}),
        };
    }
    let machine = b.build()?;
    Ok(Box::new(SmCapsule::new(machine, ())))
}

/// An effective leaf-to-leaf flow after capsule relay resolution.
struct EffectiveFlow {
    from: StreamerRef,
    from_port: String,
    to: StreamerRef,
    to_port: String,
}

fn elaborate_err(detail: String) -> CoreError {
    CoreError::Elaborate { detail }
}

/// Lowers `model` into a [`CompiledSystem`] artifact using `registry`
/// for behaviours, after `gate` (the injected analysis stage) accepts
/// it. One validation instantiation cross-checks every behaviour against
/// its declaration and yields each group's [`StepPlan`], so
/// [`CompiledSystem::instantiate`] cannot fail afterwards; the link,
/// probe and channel tables are resolved against those plans.
///
/// See the [module docs](self) for the flattening and id-assignment
/// rules.
///
/// # Errors
///
/// * whatever `gate` returns — `urt_analysis::compile` refuses any
///   error-severity finding, [`validate_gate`] any model rule violation
///   ([`CoreError::Validation`]);
/// * [`CoreError::Elaborate`] for a missing behaviour factory, a
///   width/feedthrough mismatch between declaration and behaviour, or
///   structure the executable form cannot realise (flows touching
///   container streamers, unresolvable relay chains, a cross-group flow
///   into a direct-feedthrough consumer);
/// * [`CoreError::Flow`] for a group whose network does not validate: an
///   undriven input or a direct-feedthrough loop;
/// * [`CoreError::DuplicateSportLink`] if two SPort links claim the same
///   `(group, node, sport)`.
pub fn elaborate(
    model: &UnifiedModel,
    registry: BehaviorRegistry,
    gate: AnalysisGate<'_>,
) -> Result<CompiledSystem, CoreError> {
    gate(model)?;

    // --- content hash: canonical model + registry shape ----------------
    // The model component hashes the canonical (derived Debug) rendering
    // — every model collection is a Vec in declaration order, so the
    // rendering is deterministic. The registry component folds in the
    // sorted factory names: same model, different bindings => different
    // artifact identity.
    let mut hasher = crate::cache::Fnv1a::new();
    hasher.update(format!("{model:?}").as_bytes());
    let mut streamer_names: Vec<&str> = registry.streamers.keys().map(String::as_str).collect();
    streamer_names.sort_unstable();
    for name in streamer_names {
        hasher.update(b"\0streamer\0");
        hasher.update(name.as_bytes());
    }
    let mut capsule_names: Vec<&str> = registry.capsules.keys().map(String::as_str).collect();
    capsule_names.sort_unstable();
    for name in capsule_names {
        hasher.update(b"\0capsule\0");
        hasher.update(name.as_bytes());
    }
    let content_hash = hasher.finish();

    // --- hierarchy: container streamers contribute no nodes ------------
    let refs: Vec<(StreamerRef, String)> =
        model.iter_streamers().map(|(r, name, _)| (r, name.to_owned())).collect();
    let containers: HashSet<StreamerRef> = refs
        .iter()
        .filter_map(|(r, _)| match model.streamer_owner(*r) {
            Some(Owner::Streamer(parent)) => Some(parent),
            _ => None,
        })
        .collect();
    let name_of = |r: StreamerRef| -> &str { model.streamer_name(r).unwrap_or("?") };
    for r in &containers {
        if !model.streamer_in_dports(*r).is_empty() || !model.streamer_out_dports(*r).is_empty() {
            return Err(elaborate_err(format!(
                "container streamer `{}` declares DPorts; flatten flows to its leaves instead",
                name_of(*r)
            )));
        }
    }

    // --- flows: resolve capsule relay chains to leaf-to-leaf edges -----
    let trace_source = |mut end: FlowEnd| -> Result<(StreamerRef, String), CoreError> {
        let mut hops = 0usize;
        loop {
            match end {
                FlowEnd::Streamer(s, port) => return Ok((s, port)),
                FlowEnd::Capsule(c, port) => {
                    hops += 1;
                    if hops > model.stats().flows + 1 {
                        return Err(elaborate_err(format!(
                            "relay chain through capsule DPort `{port}` does not terminate"
                        )));
                    }
                    let mut sources = model.iter_flows().filter(|&(_, to)| match to {
                        FlowEnd::Capsule(tc, tp) => *tc == c && *tp == port,
                        FlowEnd::Streamer(..) => false,
                    });
                    let Some((from, _)) = sources.next() else {
                        return Err(elaborate_err(format!(
                            "capsule DPort `{}`.`{port}` relays nothing",
                            model.capsule_name(c).unwrap_or("?")
                        )));
                    };
                    if sources.next().is_some() {
                        return Err(elaborate_err(format!(
                            "capsule DPort `{}`.`{port}` has multiple sources",
                            model.capsule_name(c).unwrap_or("?")
                        )));
                    }
                    end = from.clone();
                }
            }
        }
    };
    let mut effective: Vec<EffectiveFlow> = Vec::new();
    for (from, to) in model.iter_flows() {
        let FlowEnd::Streamer(to_s, to_port) = to else {
            // Flows *into* capsule DPorts are consumed by relay tracing.
            continue;
        };
        if containers.contains(to_s) {
            return Err(elaborate_err(format!(
                "flow targets container streamer `{}`",
                name_of(*to_s)
            )));
        }
        let (from_s, from_port) = trace_source(from.clone())?;
        if containers.contains(&from_s) {
            return Err(elaborate_err(format!(
                "flow originates at container streamer `{}`",
                name_of(from_s)
            )));
        }
        effective.push(EffectiveFlow {
            from: from_s,
            from_port,
            to: *to_s,
            to_port: to_port.clone(),
        });
    }

    // --- thread groups: one group per declared solver thread ------------
    // Flows no longer coalesce their endpoints: a flow between streamers
    // on distinct declared threads is lowered into a cross-group channel
    // below, so `assign_thread` is an actual partition, not a hint.
    let leaves: Vec<StreamerRef> =
        refs.iter().map(|(r, _)| *r).filter(|r| !containers.contains(r)).collect();
    let mut group_of_thread: BTreeMap<usize, usize> = BTreeMap::new();
    for tid in leaves.iter().map(|r| model.streamer_thread(*r)).collect::<BTreeSet<_>>() {
        let next = group_of_thread.len();
        group_of_thread.insert(tid, next);
    }
    let roots: Vec<usize> =
        leaves.iter().map(|r| group_of_thread[&model.streamer_thread(*r)]).collect();
    // A pure event-driven model (no leaf streamers) gets zero groups.
    let mut group_specs: Vec<GroupSpec> = group_of_thread
        .keys()
        .map(|tid| GroupSpec {
            name: format!("{}-t{tid}", model.name()),
            nodes: Vec::new(),
            wiring: Vec::new(),
        })
        .collect();

    // --- plan leaf streamers -------------------------------------------
    // Node ids are positional: instantiation replays the node list in
    // order, so `NodeId::from_index(position)` is exactly the id
    // `StreamerNetwork::add_streamer_boxed` will assign.
    let mut streamer_loc: BTreeMap<String, (usize, NodeId)> = BTreeMap::new();
    let mut loc_of: HashMap<StreamerRef, (usize, NodeId)> = HashMap::new();
    for (r, gid) in leaves.iter().zip(roots.iter()) {
        let name = name_of(*r);
        if !registry.streamers.contains_key(name) {
            return Err(elaborate_err(format!("no behaviour registered for streamer `{name}`")));
        }
        let spec = &mut group_specs[*gid];
        let node = NodeId::from_index(spec.nodes.len());
        spec.nodes.push(NodeSpec {
            streamer: name.to_owned(),
            feedthrough: model.streamer_feedthrough(*r),
            in_ports: model
                .streamer_in_dports(*r)
                .iter()
                .map(|(n, t)| (n.clone(), t.clone()))
                .collect(),
            out_ports: model
                .streamer_out_dports(*r)
                .iter()
                .map(|(n, t)| (n.clone(), t.clone()))
                .collect(),
        });
        streamer_loc.insert(name.to_owned(), (*gid, node));
        loc_of.insert(*r, (*gid, node));
    }

    // --- plan effective flows ------------------------------------------
    // Same-group flows become in-network edges (zero-delay, ordered by
    // the network's topological schedule). Cross-group flows become
    // channel table entries: the consumer input is exported (so the
    // engine can latch channel samples into it) and the engine backs the
    // edge with a double-buffered channel — a deterministic one-step
    // delay, which the analyzer's flow pass vets ahead of time.
    let mut cross: Vec<&EffectiveFlow> = Vec::new();
    for f in &effective {
        let (gf, nf) = loc_of[&f.from];
        let (gt, nt) = loc_of[&f.to];
        if gf == gt {
            group_specs[gf].wiring.push(WireOp::Flow {
                from: nf,
                from_port: f.from_port.clone(),
                to: nt,
                to_port: f.to_port.clone(),
            });
        } else {
            group_specs[gt].wiring.push(WireOp::Export { node: nt, port: f.to_port.clone() });
            cross.push(f);
        }
    }

    // --- plan capsules --------------------------------------------------
    let mut capsule_specs: Vec<CapsuleSpec> = Vec::new();
    let mut capsule_idx: BTreeMap<String, usize> = BTreeMap::new();
    let mut cap_of: HashMap<crate::model::CapsuleRef, usize> = HashMap::new();
    for (c, name) in model.iter_capsules() {
        let spec = if registry.capsules.contains_key(name) {
            CapsuleSpec::Registered(name.to_owned())
        } else {
            match model.capsule_machine(c) {
                Some(sm) => CapsuleSpec::Machine(sm.clone()),
                None => CapsuleSpec::Inert(name.to_owned()),
            }
        };
        let idx = capsule_specs.len();
        capsule_specs.push(spec);
        capsule_idx.insert(name.to_owned(), idx);
        cap_of.insert(c, idx);
    }

    let BehaviorRegistry { streamers, capsules } = registry;
    let mut compiled = CompiledSystem {
        model_name: model.name().to_owned(),
        group_specs,
        capsule_specs,
        streamer_factories: streamers,
        capsule_factories: capsules,
        plans: Vec::new(),
        links: Vec::new(),
        probes: Vec::new(),
        cross_flows: Vec::new(),
        streamer_loc,
        capsule_idx,
        step_budget_ns: model.model_budget(),
        content_hash,
    };
    // Validation instantiation: surfaces behaviour/declaration
    // mismatches, wiring conflicts, undriven inputs, feedthrough loops
    // and machine-spec errors *now*, so every later `instantiate()` on
    // this artifact succeeds. Its plans are the ones every engine runs.
    for net in compiled.instantiate()?.groups {
        compiled.plans.push(net.into_plan()?.0);
    }
    let plans = &compiled.plans;

    // --- resolve cross-group flows to dense lanes ----------------------
    for f in cross {
        let (gf, nf) = loc_of[&f.from];
        let (gt, nt) = loc_of[&f.to];
        if plans[gt].node_feedthrough(nt)? {
            return Err(elaborate_err(format!(
                "cross-group flow `{}`.`{}` -> `{}`.`{}`: the consumer declares direct \
                 feedthrough, which a one-macro-step channel cannot honour (URT207: keep both \
                 streamers on one thread or make the consumer non-feedthrough)",
                name_of(f.from),
                f.from_port,
                name_of(f.to),
                f.to_port
            )));
        }
        let (out_offset, src) = plans[gf].output_port(nf, &f.from_port)?;
        let (dense_in, _) = plans[gt].input_port(nt, &f.to_port)?;
        let ext_offset =
            plans[gt].exported_offset(dense_in).expect("elaboration exports every channel input");
        compiled.cross_flows.push(CrossGroupFlow {
            from_group: gf,
            out_offset,
            to_group: gt,
            ext_offset,
            width: src.width(),
        });
    }

    // --- resolve SPort links to plan rows, refusing duplicates ---------
    let mut seen: HashSet<(usize, usize, &str)> = HashSet::new();
    for (c, cport, s, sport) in model.iter_sport_links() {
        let Some(&(gid, node)) = loc_of.get(&s) else {
            return Err(elaborate_err(format!(
                "sport link targets container streamer `{}`",
                name_of(s)
            )));
        };
        if !seen.insert((gid, node.index(), sport)) {
            return Err(CoreError::DuplicateSportLink {
                group: gid,
                node: name_of(s).to_owned(),
                sport: sport.to_owned(),
            });
        }
        let row = plans[gid]
            .nodes()
            .iter()
            .position(|pn| pn.node == node)
            .expect("every node has a plan row");
        compiled.links.push(CompiledLink {
            group: gid,
            node,
            row,
            sport: sport.to_owned(),
            capsule: cap_of[&c],
            capsule_port: cport.to_owned(),
        });
    }

    // --- resolve probes to dense output lanes --------------------------
    for (s, port, series) in model.iter_probes() {
        let Some(&(gid, node)) = loc_of.get(&s) else {
            return Err(elaborate_err(format!(
                "probe `{series}` taps container streamer `{}`",
                name_of(s)
            )));
        };
        let (lane, spec) = plans[gid].output_port(node, port)?;
        compiled.probes.push(CompiledProbe {
            group: gid,
            lane: (spec.width() > 0).then_some(lane),
            series: series.to_owned(),
        });
    }
    Ok(compiled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, HybridEngine};
    use crate::model::ModelBuilder;
    use crate::recorder::Recorder;
    use crate::threading::ThreadPolicy;
    use urt_dataflow::streamer::FnStreamer;

    fn two_stage_model() -> UnifiedModel {
        let mut b = ModelBuilder::new("m");
        let src = b.streamer("src", "none");
        let dbl = b.streamer("dbl", "none");
        b.streamer_out(src, "y", FlowType::scalar());
        b.streamer_in(dbl, "u", FlowType::scalar());
        b.streamer_out(dbl, "y", FlowType::scalar());
        b.streamer_feedthrough(src, false);
        b.flow_between_streamers(src, "y", dbl, "u");
        b.probe(dbl, "y", "out");
        b.build()
    }

    fn two_stage_registry() -> BehaviorRegistry {
        // A non-feedthrough source (t at step start) feeding a doubler.
        struct Src;
        impl StreamerBehavior for Src {
            fn name(&self) -> &str {
                "src"
            }
            fn input_width(&self) -> usize {
                0
            }
            fn output_width(&self) -> usize {
                1
            }
            fn direct_feedthrough(&self) -> bool {
                false
            }
            fn advance(
                &mut self,
                t: f64,
                _h: f64,
                _u: &[f64],
                y: &mut [f64],
            ) -> Result<(), urt_ode::SolveError> {
                y[0] = t;
                Ok(())
            }
        }
        BehaviorRegistry::new().streamer("src", || Box::new(Src)).streamer("dbl", || {
            Box::new(FnStreamer::new("dbl", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| {
                y[0] = 2.0 * u[0]
            }))
        })
    }

    #[test]
    fn elaborates_and_runs_model_first() {
        let model = two_stage_model();
        let compiled = elaborate(&model, two_stage_registry(), &validate_gate).expect("elaborates");
        assert_eq!(compiled.group_count(), 1);
        assert!(compiled.streamer_node("src").is_some());
        assert_eq!(compiled.probe_series().collect::<Vec<_>>(), vec!["out"]);
        let mut engine = HybridEngine::from_compiled(
            &compiled,
            EngineConfig { step: 0.1, policy: ThreadPolicy::CurrentThread },
        )
        .expect("engine");
        let rec = Recorder::new();
        engine.set_recorder(rec.clone());
        engine.run_until(1.0).expect("run");
        let series = rec.series("out");
        assert_eq!(series.len(), 10);
        // Last step starts at t=0.9: src emits 0.9, dbl doubles it.
        assert!((series.last().unwrap().1 - 1.8).abs() < 1e-12);
    }

    #[test]
    fn artifact_instantiates_many_independent_instances() {
        let model = two_stage_model();
        let compiled = elaborate(&model, two_stage_registry(), &validate_gate).expect("elaborates");
        // The artifact is not consumed: instantiate as often as needed.
        let run = |compiled: &CompiledSystem| {
            let mut engine = HybridEngine::from_compiled(
                compiled,
                EngineConfig { step: 0.1, policy: ThreadPolicy::CurrentThread },
            )
            .expect("engine");
            let rec = Recorder::new();
            engine.set_recorder(rec.clone());
            engine.run_until(1.0).expect("run");
            rec.series("out")
        };
        let first = run(&compiled);
        let second = run(&compiled);
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(second.iter()) {
            assert_eq!(a.0.to_bits(), b.0.to_bits());
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        let instance = compiled.instantiate().expect("instantiates");
        assert_eq!(instance.group_count(), 1);
    }

    #[test]
    fn content_hash_is_stable_and_sensitive() {
        let model = two_stage_model();
        let a = elaborate(&model, two_stage_registry(), &validate_gate).unwrap();
        let b = elaborate(&model, two_stage_registry(), &validate_gate).unwrap();
        assert_eq!(a.content_hash(), b.content_hash(), "same model+registry, same hash");
        // A model edit changes the hash (both streamers move, so the
        // feedthrough `dbl` is not fed across a channel).
        let mut edited = two_stage_model();
        assert!(edited.reassign_thread("src", 7) && edited.reassign_thread("dbl", 7));
        let c = elaborate(&edited, two_stage_registry(), &validate_gate).unwrap();
        assert_ne!(a.content_hash(), c.content_hash(), "model edit changes the hash");
        // A registry-shape change (extra binding) changes the hash too.
        let padded = two_stage_registry().streamer("ghost", || {
            Box::new(FnStreamer::new("ghost", 0, 1, |_t, _h, _u: &[f64], y: &mut [f64]| y[0] = 0.0))
        });
        let d = elaborate(&model, padded, &validate_gate).unwrap();
        assert_ne!(a.content_hash(), d.content_hash(), "registry shape changes the hash");
    }

    #[test]
    fn missing_behaviour_is_an_elaboration_error() {
        let model = two_stage_model();
        let err = elaborate(&model, BehaviorRegistry::new(), &validate_gate).unwrap_err();
        assert!(matches!(err, CoreError::Elaborate { .. }));
        assert!(err.to_string().starts_with("URT114: "), "{err}");
    }

    #[test]
    fn feedthrough_mismatch_is_refused() {
        let mut b = ModelBuilder::new("m");
        let s = b.streamer("s", "none");
        b.streamer_out(s, "y", FlowType::scalar());
        // Model claims non-feedthrough; FnStreamer reports feedthrough.
        b.streamer_feedthrough(s, false);
        let registry = BehaviorRegistry::new().streamer("s", || {
            Box::new(FnStreamer::new("s", 0, 1, |_t, _h, _u: &[f64], y: &mut [f64]| y[0] = 1.0))
        });
        let err = elaborate(&b.build(), registry, &validate_gate).unwrap_err();
        assert!(err.to_string().contains("feedthrough"), "{err}");
    }

    #[test]
    fn width_mismatch_is_refused() {
        let mut b = ModelBuilder::new("m");
        let s = b.streamer("s", "none");
        b.streamer_out(s, "y", FlowType::vector(3));
        let registry = BehaviorRegistry::new().streamer("s", || {
            Box::new(FnStreamer::new("s", 0, 1, |_t, _h, _u: &[f64], y: &mut [f64]| y[0] = 1.0))
        });
        let err = elaborate(&b.build(), registry, &validate_gate).unwrap_err();
        assert!(err.to_string().contains("width"), "{err}");
    }

    #[test]
    fn duplicate_model_sport_link_is_refused() {
        let mut b = ModelBuilder::new("m");
        let cap = b.capsule("sup");
        let s = b.streamer("plant", "none");
        b.streamer_out(s, "y", FlowType::scalar());
        b.streamer_feedthrough(s, false);
        b.capsule_sport(cap, "p", "Ctl");
        b.capsule_sport(cap, "q", "Ctl");
        b.streamer_sport(s, "ctl", "Ctl");
        b.sport_link(cap, "p", s, "ctl");
        b.sport_link(cap, "q", s, "ctl");
        let registry = BehaviorRegistry::new().streamer("plant", || {
            struct P;
            impl StreamerBehavior for P {
                fn name(&self) -> &str {
                    "plant"
                }
                fn input_width(&self) -> usize {
                    0
                }
                fn output_width(&self) -> usize {
                    1
                }
                fn direct_feedthrough(&self) -> bool {
                    false
                }
                fn advance(
                    &mut self,
                    t: f64,
                    _h: f64,
                    _u: &[f64],
                    y: &mut [f64],
                ) -> Result<(), urt_ode::SolveError> {
                    y[0] = t;
                    Ok(())
                }
            }
            Box::new(P)
        });
        let err = elaborate(&b.build(), registry, &validate_gate).unwrap_err();
        assert!(matches!(err, CoreError::DuplicateSportLink { .. }), "{err}");
        assert!(err.to_string().starts_with("URT113: "), "{err}");
    }

    #[test]
    fn cross_group_flow_into_a_feedthrough_consumer_is_refused_at_compile_time() {
        let mut model = two_stage_model();
        assert!(model.reassign_thread("dbl", 1));
        let err = elaborate(&model, two_stage_registry(), &validate_gate).unwrap_err();
        assert!(matches!(err, CoreError::Elaborate { .. }), "{err}");
        let msg = err.to_string();
        assert!(msg.starts_with("URT114: "), "{msg}");
        for needle in ["`src`.`y`", "`dbl`.`u`", "URT207"] {
            assert!(msg.contains(needle), "names {needle}: {msg}");
        }
    }

    #[test]
    fn feedthrough_loop_inside_one_group_is_refused_at_compile_time() {
        let mut b = ModelBuilder::new("m");
        let a = b.streamer("a", "none");
        let c = b.streamer("c", "none");
        for s in [a, c] {
            b.streamer_in(s, "u", FlowType::scalar());
            b.streamer_out(s, "y", FlowType::scalar());
        }
        b.flow_between_streamers(a, "y", c, "u");
        b.flow_between_streamers(c, "y", a, "u");
        let echo = |name: &'static str| {
            move || -> Box<dyn StreamerBehavior> {
                Box::new(FnStreamer::new(name, 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| {
                    y[0] = u[0]
                }))
            }
        };
        let registry = BehaviorRegistry::new().streamer("a", echo("a")).streamer("c", echo("c"));
        let err = elaborate(&b.build(), registry, &validate_gate).unwrap_err();
        assert_eq!(err.code(), "URT007", "{err}");
    }

    #[test]
    fn gate_refusal_propagates() {
        let model = two_stage_model();
        let gate = |_m: &UnifiedModel| -> Result<(), CoreError> {
            Err(CoreError::Elaborate { detail: "analysis says no".into() })
        };
        let err = elaborate(&model, two_stage_registry(), &gate).unwrap_err();
        assert!(err.to_string().contains("analysis says no"));
    }

    #[test]
    fn capsule_relay_dports_flatten_to_direct_flows() {
        // Figure 3: s1.y -> cap.d -> s2.u becomes a direct s1 -> s2 flow.
        let mut b = ModelBuilder::new("fig3ish");
        let cap = b.capsule("sub");
        let s1 = b.streamer("s1", "none");
        let s2 = b.streamer("s2", "none");
        b.streamer_out(s1, "y", FlowType::scalar());
        b.streamer_in(s2, "u", FlowType::scalar());
        b.streamer_out(s2, "y", FlowType::scalar());
        b.streamer_feedthrough(s1, false);
        b.capsule_dport(cap, "d", FlowType::scalar());
        b.flow(FlowEnd::Streamer(s1, "y".into()), FlowEnd::Capsule(cap, "d".into()));
        b.flow(FlowEnd::Capsule(cap, "d".into()), FlowEnd::Streamer(s2, "u".into()));
        b.probe(s2, "y", "out");
        let registry = BehaviorRegistry::new()
            .streamer("s1", || {
                struct T;
                impl StreamerBehavior for T {
                    fn name(&self) -> &str {
                        "t"
                    }
                    fn input_width(&self) -> usize {
                        0
                    }
                    fn output_width(&self) -> usize {
                        1
                    }
                    fn direct_feedthrough(&self) -> bool {
                        false
                    }
                    fn advance(
                        &mut self,
                        t: f64,
                        _h: f64,
                        _u: &[f64],
                        y: &mut [f64],
                    ) -> Result<(), urt_ode::SolveError> {
                        y[0] = t + 1.0;
                        Ok(())
                    }
                }
                Box::new(T)
            })
            .streamer("s2", || {
                Box::new(FnStreamer::new("s2", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| {
                    y[0] = u[0] * 10.0
                }))
            });
        let compiled = elaborate(&b.build(), registry, &validate_gate).expect("elaborates");
        let mut engine = HybridEngine::from_compiled(&compiled, EngineConfig::default()).unwrap();
        let rec = Recorder::new();
        engine.set_recorder(rec.clone());
        engine.run_until(2e-3).expect("run");
        // s1 emits t+1 at the step start; s2 multiplies by 10.
        assert!((rec.series("out").last().unwrap().1 - 10.0 * (1e-3 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn inert_capsules_compile_from_machine_specs() {
        use urt_umlrt::statemachine::SmSpec;
        let mut b = ModelBuilder::new("m");
        let cap = b.capsule("sup");
        let s = b.streamer("plant", "none");
        b.streamer_out(s, "y", FlowType::scalar());
        b.streamer_feedthrough(s, false);
        b.capsule_sport(cap, "p", "Ctl");
        b.streamer_sport(s, "ctl", "Ctl");
        b.sport_link(cap, "p", s, "ctl");
        b.capsule_machine(
            cap,
            SmSpec::new("sup_sm").state("idle").state("busy").initial("idle").on(
                "idle",
                ("p", "go"),
                "busy",
            ),
        );
        let registry = BehaviorRegistry::new().streamer("plant", || {
            struct P;
            impl StreamerBehavior for P {
                fn name(&self) -> &str {
                    "plant"
                }
                fn input_width(&self) -> usize {
                    0
                }
                fn output_width(&self) -> usize {
                    1
                }
                fn direct_feedthrough(&self) -> bool {
                    false
                }
                fn advance(
                    &mut self,
                    t: f64,
                    _h: f64,
                    _u: &[f64],
                    y: &mut [f64],
                ) -> Result<(), urt_ode::SolveError> {
                    y[0] = t;
                    Ok(())
                }
            }
            Box::new(P)
        });
        let compiled = elaborate(&b.build(), registry, &validate_gate).expect("elaborates");
        let cap_idx = compiled.capsule_index("sup").expect("capsule");
        let mut engine = HybridEngine::from_compiled(&compiled, EngineConfig::default()).unwrap();
        engine.run_until(1e-2).expect("run");
        assert_eq!(engine.controller().capsule_state(cap_idx).unwrap(), "idle");
    }
}
