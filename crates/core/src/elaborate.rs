//! Elaboration: lowering a declarative [`UnifiedModel`] into an
//! executable [`CompiledSystem`] artifact, and instantiating that
//! artifact into live [`SystemInstance`]s.
//!
//! The paper's point is *one* model covering both the event-driven and
//! the time-continuous half. This module closes the gap between the
//! declarative model (what `urt-lint` and codegen consume) and the
//! runtime ([`StepPlan`]s + [`Controller`]): [`elaborate`]
//! resolves every name, port, flow, SPort link and probe **once**, at
//! compile time, into dense integer ids, so the engine's hot path never
//! compares strings or hashes keys. A [`CompiledSystem`] is the only way
//! to build an engine.
//!
//! Since the artifact/instance split, elaboration output is a **pure
//! plan**: each group's validated [`StepPlan`], dense cross-flow, probe
//! and link tables resolved against those plans, budgets, and the
//! behaviour *factories* from the
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
//! 1. the model's own well-formedness rules
//!    ([`UnifiedModel::validate`]) run first, so nothing below lowers a
//!    model whose names repeat, whose flow types break the subset rule,
//!    whose SPort protocols differ or whose SPort takes two links
//!    (`urt_analysis::compile` runs the whole-model analyzer, which
//!    reports the same rules among its errors, before it calls
//!    [`elaborate`]);
//! 2. the streamer hierarchy is **flattened**
//!    ([`UnifiedModel::flatten`], the reading the analyzer lints too):
//!    container streamers (those owning sub-streamers, Figure 2)
//!    contribute no nodes, their leaves become the nodes of one flat
//!    group per declared solver thread, and capsule relay DPort chains
//!    (Figure 3) are resolved to direct leaf-to-leaf flows (the first
//!    refusal of the flattening is the error); flows whose endpoints sit
//!    on *different* declared threads are lowered into cross-group channel
//!    entries (double-buffered, one-macro-step delay) instead of forcing
//!    the threads to merge;
//! 3. behaviours come from a [`BehaviorRegistry`] (streamer name →
//!    [`StreamerBehavior`] factory, capsule name → [`Capsule`] factory);
//!    elaboration invokes every streamer factory once, cross-checking
//!    each behaviour against the declared DPort widths and feedthrough
//!    flag (capsule factories cannot fail and first run at
//!    instantiation),
//!    and lowers each group straight from the model with
//!    [`StepPlan::lower`] — the one place the wiring rules (single
//!    writer, every input driven, no feedthrough loop) are enforced — so
//!    a successfully elaborated artifact instantiates cleanly;
//! 4. against those plans, every cross-group flow is resolved to
//!    `(from_group, out_offset, width, to_group, loads)`, the loads
//!    landing the output's lanes field by field in the consumer's
//!    external-input lanes ([`PlanCopy::for_flow`]) — one into
//!    a direct-feedthrough consumer is refused (`URT114`; the analyzer's
//!    `URT207` names it ahead of time) — every SPort link to its
//!    `(group, node, plan row)`, and every probe to its dense output
//!    lane. Each capsule's machine spec is built once on the way
//!    ([`inert_machine`], which the analyzer builds too), so a machine
//!    spec that cannot be realised is refused here too.
//!
//! The result plugs into the engine via
//! [`HybridEngine::from_compiled`](crate::engine::HybridEngine::from_compiled),
//! which borrows the artifact, clones its plans, invokes each behaviour
//! factory once per instance and fills its state from the tables.

use crate::error::CoreError;
use crate::model::{EffectiveFlow, Flattening, StreamerRef, UnifiedModel};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::{self, Write as _};
use urt_dataflow::flowtype::FlowType;
use urt_dataflow::graph::{NodeId, NodeShape, PlanCopy, PortRef, StepPlan, StreamerNetwork};
use urt_dataflow::port::{DPortSpec, Direction};
use urt_dataflow::streamer::StreamerBehavior;
use urt_umlrt::capsule::{Capsule, CapsuleContext, SmCapsule};
use urt_umlrt::controller::Controller;
use urt_umlrt::message::Message;
use urt_umlrt::statemachine::{SmSpec, SmStateSpec, StateMachine, StateMachineBuilder};

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

/// One resolved cross-group flow: the `width` lanes of an output port at
/// dense output offset `out_offset` of one solver group, carried by a
/// double-buffered channel with a deterministic one-macro-step delay (the
/// consumer reads the producer's previous step's sample; see
/// [`crate::engine`]) into the external inputs of a *different* group.
/// `loads` land the channel's lanes (`src`) in the consumer's external
/// input lanes (`dst`) field by field, exactly as a same-group flow's
/// gathers land them in the input port.
#[derive(Debug, Clone)]
pub(crate) struct CrossGroupFlow {
    pub(crate) from_group: usize,
    pub(crate) out_offset: usize,
    pub(crate) width: usize,
    pub(crate) to_group: usize,
    pub(crate) loads: Vec<PlanCopy>,
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
/// each group's validated [`StepPlan`], dense cross-flow/link/probe
/// tables resolved against those plans, budgets and
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
/// [`SystemInstance`] (one [`StreamerNetwork`] per group + capsule
/// controller) for driving the plans below the engine.
pub struct CompiledSystem {
    model_name: String,
    capsule_specs: Vec<CapsuleSpec>,
    streamer_factories: HashMap<String, StreamerFactory>,
    capsule_factories: HashMap<String, CapsuleFactory>,
    /// Per group, the plan every engine runs.
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
            .field("groups", &self.plans.len())
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
        self.plans.len()
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
        let shape = self.plans[group].shape(node)?;
        let factory = self.streamer_factories.get(&shape.name);
        checked(
            shape,
            factory.expect("elaborate checks every placed streamer has a factory")(),
            instance,
        )
    }

    /// Stamps out one live [`SystemInstance`]: one [`StreamerNetwork`]
    /// per group, running a clone of the group's plan over behaviours
    /// fresh from their factories, plus the capsule [`Controller`].
    ///
    /// Two instances of one artifact are fully independent — no shared
    /// mutable state — and run bit-identically.
    ///
    /// # Errors
    ///
    /// [`CoreError::Elaborate`] if a factory-produced behaviour disagrees
    /// with the declared DPort widths or feedthrough flag. [`elaborate`]
    /// invokes every streamer factory and builds every machine spec once,
    /// so a successfully compiled artifact only fails here if a factory
    /// changes between calls.
    pub fn instantiate(&self) -> Result<SystemInstance, CoreError> {
        let mut groups = Vec::with_capacity(self.plans.len());
        for (gi, plan) in self.plans.iter().enumerate() {
            let rows = plan
                .nodes()
                .iter()
                .map(|pn| self.behavior(gi, pn.node, 0))
                .collect::<Result<_, _>>()?;
            groups.push(StreamerNetwork::from_plan(plan.clone(), rows));
        }
        Ok(SystemInstance { groups, controller: self.controller()? })
    }

    /// Builds a fresh capsule [`Controller`] with every capsule
    /// instantiated and no port connected — the capsule half of
    /// [`CompiledSystem::instantiate`], and the engines' per-instance
    /// controller factory. Each call runs every registered capsule
    /// factory once (compile runs none) and rebuilds every machine spec,
    /// which [`elaborate`] already built once, so it only fails if
    /// [`elaborate`] would have refused the model.
    pub(crate) fn controller(&self) -> Result<Controller, CoreError> {
        let mut controller = Controller::new(self.model_name.as_str());
        for cap in &self.capsule_specs {
            let instance: Box<dyn Capsule> = match cap {
                // `elaborate` plans `Registered` only for registered names.
                CapsuleSpec::Registered(name) => self.capsule_factories[name](),
                CapsuleSpec::Machine(spec) => Box::new(SmCapsule::new(inert_machine(spec)?, ())),
                CapsuleSpec::Inert(name) => Box::new(InertCapsule { name: name.clone() }),
            };
            controller.add_capsule(instance);
        }
        Ok(controller)
    }
}

/// One live realisation of a [`CompiledSystem`]: freshly instantiated
/// behaviours running each group's plan in a [`StreamerNetwork`], plus an
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

/// Builds an [`SmSpec`] into a runnable machine with no-op actions —
/// states and transitions fire exactly as declared, so supervisors built
/// this way still change state on SPort signals, they just cause no side
/// effects. [`elaborate`] builds every capsule spec with no registered
/// factory once, and the analyzer builds every spec, so a spec this
/// refuses is an analyzer error too.
///
/// # Errors
///
/// [`CoreError::Elaborate`] for a state with an undeclared parent (or a
/// parent cycle) or no initial state; [`CoreError::Rt`] for whatever
/// [`StateMachineBuilder::build`] refuses: a duplicate state, or an
/// undeclared initial state, initial child, transition source or target.
pub fn inert_machine(spec: &SmSpec) -> Result<StateMachine<()>, CoreError> {
    // Parents must exist before their children: order states in waves,
    // each placing the states whose parent an earlier one placed.
    let mut placed = vec![false; spec.states.len()];
    let mut ordered: Vec<&SmStateSpec> = Vec::with_capacity(placed.len());
    while ordered.len() < placed.len() {
        let before = ordered.len();
        for (s, placed) in spec.states.iter().zip(&mut placed) {
            let ready = s.parent.as_ref().is_none_or(|p| ordered.iter().any(|o| &o.name == p));
            if !*placed && ready {
                *placed = true;
                ordered.push(s);
            }
        }
        if ordered.len() == before {
            let first = spec.states.iter().zip(&placed).find(|(_, placed)| !**placed);
            return Err(CoreError::Elaborate {
                detail: format!(
                    "machine `{}`: state `{}` has an undeclared parent",
                    spec.name,
                    first.expect("a state is unplaced").0.name
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
    Ok(b.build()?)
}

fn elaborate_err(detail: String) -> CoreError {
    CoreError::Elaborate { detail }
}

/// The declared shape of leaf streamer `r`: its name, DPorts and
/// feedthrough flag.
fn node_shape(model: &UnifiedModel, r: StreamerRef) -> NodeShape {
    let ports = |ps: &[(String, FlowType)], d: Direction| -> Vec<DPortSpec> {
        ps.iter().map(|(n, t)| DPortSpec::new(n.as_str(), d, t.clone())).collect()
    };
    NodeShape {
        name: model.streamer_name(r).unwrap_or("?").to_owned(),
        in_ports: ports(model.streamer_in_dports(r), Direction::In),
        out_ports: ports(model.streamer_out_dports(r), Direction::Out),
        feedthrough: model.streamer_feedthrough(r),
    }
}

/// `behavior`, made for `instance` of the streamer declared as `shape`,
/// checked against the declared DPort widths and feedthrough flag.
fn checked(
    shape: &NodeShape,
    behavior: Box<dyn StreamerBehavior>,
    instance: usize,
) -> Result<Box<dyn StreamerBehavior>, CoreError> {
    let (in_width, out_width) = (shape.in_width(), shape.out_width());
    if behavior.input_width() != in_width || behavior.output_width() != out_width {
        return Err(elaborate_err(format!(
            "streamer `{}`, instance {instance}: declared DPort widths {in_width}->{out_width} \
             but behaviour `{}` computes {}->{}",
            shape.name,
            behavior.name(),
            behavior.input_width(),
            behavior.output_width()
        )));
    }
    if behavior.direct_feedthrough() != shape.feedthrough {
        return Err(elaborate_err(format!(
            "streamer `{}`, instance {instance}: model declares feedthrough={} but behaviour \
             `{}` reports {}",
            shape.name,
            shape.feedthrough,
            behavior.name(),
            behavior.direct_feedthrough()
        )));
    }
    Ok(behavior)
}

/// Lowers `model` into a [`CompiledSystem`] artifact using `registry`
/// for behaviours, once the model's own rules
/// ([`UnifiedModel::validate`]) accept it. Every streamer factory runs
/// once, checked against its
/// declaration, every capsule machine spec is built once, and each group
/// is lowered straight from the model into its [`StepPlan`], so
/// [`CompiledSystem::instantiate`] cannot fail afterwards; the link,
/// probe and channel tables are resolved against those plans. Capsule
/// factories cannot fail and first run at instantiation. The content
/// hash folds the model's rendering in as it is formatted.
///
/// See the [module docs](self) for the flattening and id-assignment
/// rules. The first error wins: the model rules, then the flattening,
/// then per group the factory checks and the wiring, then cross-group
/// feedthrough and the machine specs.
///
/// # Errors
///
/// * the first model rule violation ([`UnifiedModel::violations`]):
///   [`CoreError::Validation`], or [`CoreError::DuplicateSportLink`] for
///   a streamer SPort with two links;
/// * [`CoreError::Elaborate`] for structure the executable form cannot
///   realise (the first [`UnifiedModel::flatten`] refusal, a cross-group
///   flow into a direct-feedthrough consumer, a machine spec with an
///   undeclared parent or no initial state), a missing behaviour factory
///   or a width/feedthrough mismatch between declaration and behaviour;
/// * [`CoreError::Rt`] for a machine spec the state-machine builder
///   refuses;
/// * [`CoreError::Flow`] for a group whose wiring [`StepPlan::lower`]
///   refuses: a second writer, an undriven input or a direct-feedthrough
///   loop.
pub fn elaborate(
    model: &UnifiedModel,
    registry: BehaviorRegistry,
) -> Result<CompiledSystem, CoreError> {
    model.validate()?;

    // --- content hash: canonical model + registry shape ----------------
    // The model component hashes the canonical (derived Debug) rendering
    // as it is formatted — every model collection is a Vec in declaration
    // order, so the rendering is deterministic. The registry component
    // folds in the sorted factory names: same model, different bindings
    // => different artifact identity.
    let mut hasher = crate::cache::Fnv1a::new();
    write!(hasher, "{model:?}").expect("hashing a rendering cannot fail");
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

    // --- flatten: leaves, relay-resolved leaf-to-leaf flows -------------
    let Flattening { leaves, flows: effective, refusals } = model.flatten();
    if let Some(first) = refusals.into_iter().next() {
        return Err(first);
    }
    let name_of = |r: StreamerRef| -> &str { model.streamer_name(r).unwrap_or("?") };

    // --- thread groups: one group per declared solver thread ------------
    // Flows no longer coalesce their endpoints: a flow between streamers
    // on distinct declared threads is lowered into a cross-group channel
    // below, so `assign_thread` is an actual partition, not a hint.
    let mut group_of_thread: BTreeMap<usize, usize> = BTreeMap::new();
    for tid in leaves.iter().map(|r| model.streamer_thread(*r)).collect::<BTreeSet<_>>() {
        let next = group_of_thread.len();
        group_of_thread.insert(tid, next);
    }
    let roots: Vec<usize> =
        leaves.iter().map(|r| group_of_thread[&model.streamer_thread(*r)]).collect();
    // A pure event-driven model (no leaf streamers) gets zero groups.
    let mut members: Vec<Vec<StreamerRef>> = vec![Vec::new(); group_of_thread.len()];

    // --- place leaf streamers ------------------------------------------
    // Node ids are positions in their group's member list, the node list
    // `StepPlan::lower` lays out.
    let mut streamer_loc: BTreeMap<String, (usize, NodeId)> = BTreeMap::new();
    let mut loc_of: HashMap<StreamerRef, (usize, NodeId)> = HashMap::new();
    for (r, gid) in leaves.iter().zip(roots.iter()) {
        let name = name_of(*r);
        if !registry.streamers.contains_key(name) {
            return Err(elaborate_err(format!("no behaviour registered for streamer `{name}`")));
        }
        let node = NodeId::from_index(members[*gid].len());
        members[*gid].push(*r);
        streamer_loc.insert(name.to_owned(), (*gid, node));
        loc_of.insert(*r, (*gid, node));
    }

    // --- sort effective flows ------------------------------------------
    // Same-group flows become in-plan gathers (zero-delay, ordered by the
    // plan's topological schedule). Cross-group flows become channel
    // table entries: the consumer input is exported (so the engine can
    // latch channel samples into it) and the engine backs the edge with
    // a double-buffered channel — a deterministic one-step delay, which
    // the analyzer's flow pass vets ahead of time. Each cross flow keeps
    // the index of its export.
    let mut flows: Vec<Vec<(PortRef<'_>, PortRef<'_>)>> = vec![Vec::new(); members.len()];
    let mut exports: Vec<Vec<PortRef<'_>>> = vec![Vec::new(); members.len()];
    let mut cross: Vec<(&EffectiveFlow, usize)> = Vec::new();
    for f in &effective {
        let (gf, nf) = loc_of[&f.from];
        let (gt, nt) = loc_of[&f.to];
        if gf == gt {
            flows[gf].push(((nf, f.from_port.as_str()), (nt, f.to_port.as_str())));
        } else {
            cross.push((f, exports[gt].len()));
            exports[gt].push((nt, f.to_port.as_str()));
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

    // --- lower each group straight from the model -----------------------
    // Every factory runs once, so a behaviour that disagrees with its
    // declaration is refused now; then the lowering checks the group's
    // wiring. Its plans are the ones every engine runs.
    let mut plans = Vec::with_capacity(members.len());
    let mut ext_offsets = Vec::with_capacity(members.len());
    for ((nodes, flows), exports) in members.iter().zip(&flows).zip(&exports) {
        let shapes: Vec<NodeShape> = nodes.iter().map(|&r| node_shape(model, r)).collect();
        for shape in &shapes {
            checked(shape, registry.streamers[&shape.name](), 0)?;
        }
        let (plan, ext) = StepPlan::lower(shapes, flows, exports)?;
        plans.push(plan);
        ext_offsets.push(ext);
    }

    // --- resolve cross-group flows to dense lanes ----------------------
    let mut cross_flows = Vec::with_capacity(cross.len());
    for (f, export) in cross {
        let (gf, nf) = loc_of[&f.from];
        let (gt, nt) = loc_of[&f.to];
        if model.streamer_feedthrough(f.to) {
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
        let dst = plans[gt].shape(nt)?.in_ports.iter().find(|p| p.name() == f.to_port);
        let dst = dst.expect("the lowering resolved every export");
        // The loads rely on the subset rule, which the model rules check
        // on every declared flow; it is transitive, so it holds through
        // relay chains too.
        let ext_offset = ext_offsets[gt][export];
        let loads = PlanCopy::for_flow(src.flow_type(), dst.flow_type())
            .into_iter()
            .map(|c| PlanCopy { dst: ext_offset + c.dst, ..c })
            .collect();
        cross_flows.push(CrossGroupFlow {
            from_group: gf,
            out_offset,
            width: src.width(),
            to_group: gt,
            loads,
        });
    }

    let BehaviorRegistry { streamers, capsules } = registry;
    let mut compiled = CompiledSystem {
        model_name: model.name().to_owned(),
        capsule_specs,
        streamer_factories: streamers,
        capsule_factories: capsules,
        plans,
        links: Vec::new(),
        probes: Vec::new(),
        cross_flows,
        streamer_loc,
        capsule_idx,
        step_budget_ns: model.model_budget(),
        content_hash,
    };
    // Building each machine spec once surfaces its errors now, so every
    // later controller built from this artifact succeeds. Capsule
    // factories cannot fail; they first run at instantiation.
    for spec in &compiled.capsule_specs {
        if let CapsuleSpec::Machine(sm) = spec {
            inert_machine(sm)?;
        }
    }
    let plans = &compiled.plans;

    // --- resolve SPort links to plan rows ------------------------------
    // The model rules refuse a second link on one SPort, and the
    // flattening a link to a container, so every link lands on a leaf.
    for (c, cport, s, sport) in model.iter_sport_links() {
        let (gid, node) = loc_of[&s];
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
    // A probe taps a declared output DPort, and a container declaring one
    // is a flattening refusal, so every probe taps a leaf.
    for (s, port, series) in model.iter_probes() {
        let (gid, node) = loc_of[&s];
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
    use crate::model::{FlowEnd, ModelBuilder};
    use crate::recorder::Recorder;
    use crate::threading::ThreadPolicy;
    use urt_dataflow::flowtype::Unit;
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
        let compiled = elaborate(&model, two_stage_registry()).expect("elaborates");
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
        let compiled = elaborate(&model, two_stage_registry()).expect("elaborates");
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
        let a = elaborate(&model, two_stage_registry()).unwrap();
        let b = elaborate(&model, two_stage_registry()).unwrap();
        assert_eq!(a.content_hash(), b.content_hash(), "same model+registry, same hash");
        // A model edit changes the hash (both streamers move, so the
        // feedthrough `dbl` is not fed across a channel).
        let mut edited = two_stage_model();
        assert!(edited.reassign_thread("src", 7) && edited.reassign_thread("dbl", 7));
        let c = elaborate(&edited, two_stage_registry()).unwrap();
        assert_ne!(a.content_hash(), c.content_hash(), "model edit changes the hash");
        // A registry-shape change (extra binding) changes the hash too.
        let padded = two_stage_registry().streamer("ghost", || {
            Box::new(FnStreamer::new("ghost", 0, 1, |_t, _h, _u: &[f64], y: &mut [f64]| y[0] = 0.0))
        });
        let d = elaborate(&model, padded).unwrap();
        assert_ne!(a.content_hash(), d.content_hash(), "registry shape changes the hash");
    }

    #[test]
    fn missing_behaviour_is_an_elaboration_error() {
        let model = two_stage_model();
        let err = elaborate(&model, BehaviorRegistry::new()).unwrap_err();
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
        let err = elaborate(&b.build(), registry).unwrap_err();
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
        let err = elaborate(&b.build(), registry).unwrap_err();
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
        let err = elaborate(&b.build(), registry).unwrap_err();
        assert!(matches!(err, CoreError::DuplicateSportLink { .. }), "{err}");
        assert!(err.to_string().starts_with("URT113: "), "{err}");
    }

    #[test]
    fn cross_group_flow_into_a_feedthrough_consumer_is_refused_at_compile_time() {
        let mut model = two_stage_model();
        assert!(model.reassign_thread("dbl", 1));
        let err = elaborate(&model, two_stage_registry()).unwrap_err();
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
        let err = elaborate(&b.build(), registry).unwrap_err();
        assert_eq!(err.code(), "URT007", "{err}");
    }

    /// A non-feedthrough behaviour with `inputs` input lanes and one
    /// output holding the step's start time.
    struct Hold {
        name: &'static str,
        inputs: usize,
    }

    impl StreamerBehavior for Hold {
        fn name(&self) -> &str {
            self.name
        }
        fn input_width(&self) -> usize {
            self.inputs
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

    /// Non-feedthrough streamers `names`, each with one scalar output `y`,
    /// and `g`, which also has one scalar input `u`; their refs, `g` last;
    /// and their registry.
    fn hold_model(names: &[&'static str]) -> (ModelBuilder, Vec<StreamerRef>, BehaviorRegistry) {
        let mut b = ModelBuilder::new("m");
        let mut refs = Vec::new();
        let mut registry = BehaviorRegistry::new();
        for &name in names.iter().chain(&["g"]) {
            let s = b.streamer(name, "none");
            refs.push(s);
            b.streamer_out(s, "y", FlowType::scalar());
            b.streamer_feedthrough(s, false);
            let inputs = usize::from(name == "g");
            if inputs == 1 {
                b.streamer_in(s, "u", FlowType::scalar());
            }
            registry = registry.streamer(name, move || Box::new(Hold { name, inputs }));
        }
        (b, refs, registry)
    }

    #[test]
    fn second_writer_on_one_input_is_refused_at_compile_time() {
        // Two flows into `g.u`: within one group, and with the first
        // writer a cross-group channel, which exports the input.
        for cross in [false, true] {
            let (mut b, refs, registry) = hold_model(&["s1", "s2"]);
            let [s1, s2, g] = refs[..] else { unreachable!() };
            b.flow_between_streamers(s2, "y", g, "u");
            b.flow_between_streamers(s1, "y", g, "u");
            let mut model = b.build();
            assert!(model.validate().is_ok(), "a second writer is no model rule");
            if cross {
                assert!(model.reassign_thread("s2", 1));
            }
            let err = elaborate(&model, registry).unwrap_err();
            assert_eq!(err.code(), "URT005", "cross = {cross}: {err}");
            assert!(err.to_string().contains("`u` on `g`"), "{err}");
        }
    }

    #[test]
    fn undriven_input_is_refused_at_compile_time() {
        let (b, _, registry) = hold_model(&[]);
        let model = b.build();
        assert!(model.validate().is_ok(), "an undriven input is no model rule");
        let err = elaborate(&model, registry).unwrap_err();
        assert_eq!(err.code(), "URT006", "{err}");
        assert!(err.to_string().contains("`u` on `g` is unconnected"), "{err}");
    }

    #[test]
    fn the_subset_rule_holds_for_direct_and_relayed_flows_across_groups() {
        // The model rules check every declared flow, and the channels'
        // loads rely on them: `s.y` (m) reaches `g.u` (K) directly or
        // through the relay `c.d` (any), in one group or across two.
        for (relayed, cross) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut b = ModelBuilder::new("m");
            let s = b.streamer("s", "none");
            let g = b.streamer("g", "none");
            b.streamer_out(s, "y", FlowType::with_unit(Unit::Meter));
            b.streamer_in(g, "u", FlowType::with_unit(Unit::Kelvin));
            b.streamer_out(g, "y", FlowType::scalar());
            b.streamer_feedthrough(s, false);
            b.streamer_feedthrough(g, false);
            let (src, dst) = (FlowEnd::Streamer(s, "y".into()), FlowEnd::Streamer(g, "u".into()));
            if relayed {
                let c = b.capsule("c");
                b.capsule_dport(c, "d", FlowType::with_unit(Unit::Any));
                b.flow(src, FlowEnd::Capsule(c, "d".into()));
                b.flow(FlowEnd::Capsule(c, "d".into()), dst);
            } else {
                b.flow(src, dst);
            }
            if cross {
                b.assign_thread(g, 1);
            }
            let registry = BehaviorRegistry::new()
                .streamer("s", || Box::new(Hold { name: "s", inputs: 0 }))
                .streamer("g", || Box::new(Hold { name: "g", inputs: 1 }));
            let err = elaborate(&b.build(), registry).unwrap_err();
            assert_eq!(err.code(), "URT105", "relayed = {relayed}, cross = {cross}: {err}");
            let to = if relayed { "c.dport:d -> g.dport:u" } else { "s.dport:y -> g.dport:u" };
            assert!(err.to_string().contains(to), "{err}");
        }
    }

    #[test]
    fn structure_the_plans_cannot_realise_is_refused() {
        // `s` sits inside the container streamer `pack`; `s.y -> g.u` is
        // the one valid flow. Each case adds one unrealisable element,
        // refused by the flattening (URT114) or, where the element also
        // breaks a model rule, by that rule first.
        type Case = (&'static str, &'static str, fn(&mut ModelBuilder, [StreamerRef; 3]));
        let cases: [Case; 8] = [
            ("URT114", "container streamer `pack` declares DPorts", |b, [_, _, pack]| {
                b.streamer_out(pack, "y", FlowType::scalar());
            }),
            ("URT104", "streamer `pack` has no input DPort `u`", |b, [s, _, pack]| {
                b.flow(FlowEnd::Streamer(s, "y".into()), FlowEnd::Streamer(pack, "u".into()));
            }),
            ("URT104", "streamer `pack` has no output DPort `y`", |b, [_, g, pack]| {
                b.flow(FlowEnd::Streamer(pack, "y".into()), FlowEnd::Streamer(g, "u".into()));
            }),
            ("URT106", "capsule `relay` DPort `d` must relay", |b, [_, g, _]| {
                let c = b.capsule("relay");
                b.capsule_dport(c, "d", FlowType::scalar());
                b.flow(FlowEnd::Capsule(c, "d".into()), FlowEnd::Streamer(g, "u".into()));
            }),
            ("URT114", "capsule DPort `relay`.`d` has multiple sources", |b, [s, g, _]| {
                let c = b.capsule("relay");
                b.capsule_dport(c, "d", FlowType::scalar());
                b.flow(FlowEnd::Streamer(s, "y".into()), FlowEnd::Capsule(c, "d".into()));
                b.flow(FlowEnd::Streamer(g, "y".into()), FlowEnd::Capsule(c, "d".into()));
                b.flow(FlowEnd::Capsule(c, "d".into()), FlowEnd::Streamer(g, "u".into()));
            }),
            (
                "URT114",
                "relay chain through capsule DPort `d2` does not terminate",
                |b, [_, g, _]| {
                    let c = b.capsule("relay");
                    b.capsule_dport(c, "d1", FlowType::scalar());
                    b.capsule_dport(c, "d2", FlowType::scalar());
                    b.flow(FlowEnd::Capsule(c, "d1".into()), FlowEnd::Capsule(c, "d2".into()));
                    b.flow(FlowEnd::Capsule(c, "d2".into()), FlowEnd::Capsule(c, "d1".into()));
                    b.flow(FlowEnd::Capsule(c, "d1".into()), FlowEnd::Streamer(g, "u".into()));
                },
            ),
            ("URT114", "sport link targets container streamer `pack`", |b, [_, _, pack]| {
                let c = b.capsule("sup");
                b.capsule_sport(c, "p", "Ctl");
                b.streamer_sport(pack, "ctl", "Ctl");
                b.sport_link(c, "p", pack, "ctl");
            }),
            (
                "URT108",
                "probe `pack.y` taps streamer `pack` output DPort `y`",
                |b, [_, _, pack]| {
                    b.probe(pack, "y", "pack.y");
                },
            ),
        ];
        for (code, needle, add) in cases {
            let (mut b, refs, registry) = hold_model(&["s"]);
            let [s, g] = refs[..] else { unreachable!() };
            let pack = b.streamer("pack", "none");
            b.contain_streamer(s, pack);
            b.flow_between_streamers(s, "y", g, "u");
            add(&mut b, [s, g, pack]);
            let err = elaborate(&b.build(), registry).unwrap_err();
            assert_eq!(err.code(), code, "{needle}: {err}");
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        }
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
        let compiled = elaborate(&b.build(), registry).expect("elaborates");
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
        let compiled = elaborate(&b.build(), registry).expect("elaborates");
        let cap_idx = compiled.capsule_index("sup").expect("capsule");
        let mut engine = HybridEngine::from_compiled(&compiled, EngineConfig::default()).unwrap();
        engine.run_until(1e-2).expect("run");
        assert_eq!(engine.controller().capsule_state(cap_idx).unwrap(), "idle");
    }
}
