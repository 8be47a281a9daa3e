//! The declarative unified model: capsules + streamers + containment +
//! connections, with the paper's well-formedness rules.
//!
//! The rules come straight from §2 and Figures 2–3:
//!
//! * **fig3-containment** — capsules can contain streamers, but "streamers
//!   don't contain any capsule".
//! * **containment-acyclic** — the ownership tree has no cycles.
//! * **fig3-dport-relay** — capsules may carry DPorts, "but in capsules,
//!   DPorts are only used as relay ports. No data will be processed by
//!   capsules": every capsule DPort must both receive and forward a flow.
//! * **flow-subset** — "the output DPort's flow type must be a subset of
//!   the input DPort's flow type".
//! * **sport-protocol** — SPort links connect ports with the same
//!   protocol.
//! * **unique-names** — element names are unique per kind, and so are
//!   probe series names: one series records one probe.
//!
//! The model is *declarative*: it describes structure for validation, code
//! generation and reporting. The executable counterpart is assembled with
//! [`crate::engine::HybridEngine`].

use crate::error::CoreError;
use std::collections::HashSet;
use std::fmt;
use urt_dataflow::flowtype::FlowType;
use urt_umlrt::protocol::Protocol;
use urt_umlrt::statemachine::SmSpec;

/// Reference to a capsule declaration in a [`UnifiedModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CapsuleRef(usize);

/// Reference to a streamer declaration in a [`UnifiedModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamerRef(usize);

/// Who owns (contains) an element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Owner {
    /// Top level.
    #[default]
    System,
    /// Contained in a capsule.
    Capsule(CapsuleRef),
    /// Contained in a streamer.
    Streamer(StreamerRef),
}

/// Scope of a declared per-macro-step timing budget (nanoseconds).
///
/// The static cost pass (`urt_analysis::cost_pass`) checks the
/// worst-case per-macro-step cost of every solver-thread group against
/// these: a [`BudgetScope::Thread`] budget binds one declared thread, a
/// [`BudgetScope::Model`] budget binds every thread that has no
/// more-specific declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetScope {
    /// Applies to every solver thread without a thread-specific budget.
    Model,
    /// Applies to one declared solver thread.
    Thread(usize),
}

impl fmt::Display for BudgetScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetScope::Model => f.write_str("model"),
            BudgetScope::Thread(t) => write!(f, "thread {t}"),
        }
    }
}

/// An endpoint of a flow: a named DPort on a capsule or a streamer.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowEnd {
    /// `(capsule, dport name)` — necessarily a relay DPort.
    Capsule(CapsuleRef, String),
    /// `(streamer, dport name)`.
    Streamer(StreamerRef, String),
}

#[derive(Debug, Clone, PartialEq)]
struct CapsuleDecl {
    name: String,
    owner: Owner,
    /// Relay-only data ports: `(name, flow type)`.
    dports: Vec<(String, FlowType)>,
    /// Signal ports: `(name, protocol name)`.
    sports: Vec<(String, String)>,
    /// Declarative behaviour, if modelled (linted by `urt_analysis`).
    machine: Option<SmSpec>,
}

#[derive(Debug, Clone, PartialEq)]
struct StreamerDecl {
    name: String,
    owner: Owner,
    in_dports: Vec<(String, FlowType)>,
    out_dports: Vec<(String, FlowType)>,
    sports: Vec<(String, String)>,
    solver: String,
    /// Whether outputs depend on same-step inputs (conservative default:
    /// `true`; integrator-style streamers should declare `false`).
    feedthrough: bool,
    /// Solver-thread assignment for the deployment plan (default 0).
    thread: usize,
    /// Declared worst-case cost of one macro step, in nanoseconds.
    /// `None` means "ask the calibration table" (static cost pass).
    step_cost_ns: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
struct FlowDecl {
    from: FlowEnd,
    to: FlowEnd,
}

#[derive(Debug, Clone, PartialEq)]
struct SportLink {
    capsule: CapsuleRef,
    capsule_port: String,
    streamer: StreamerRef,
    sport: String,
}

#[derive(Debug, Clone, PartialEq)]
struct ProbeDecl {
    streamer: StreamerRef,
    port: String,
    series: String,
}

/// Summary statistics of a model (used by reports and the Kühl baseline
/// comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModelStats {
    /// Number of capsule declarations.
    pub capsules: usize,
    /// Number of streamer declarations.
    pub streamers: usize,
    /// Number of flows.
    pub flows: usize,
    /// Number of SPort links.
    pub sport_links: usize,
    /// Total DPorts (capsule relays + streamer in/out).
    pub dports: usize,
    /// Total SPorts.
    pub sports: usize,
}

/// A leaf-to-leaf flow with capsule relay chains resolved: output DPort
/// `from_port` of leaf streamer `from` feeds input DPort `to_port` of
/// leaf streamer `to`.
#[derive(Debug, Clone, PartialEq)]
pub struct EffectiveFlow {
    /// The producing leaf streamer.
    pub from: StreamerRef,
    /// Its output DPort.
    pub from_port: String,
    /// The consuming leaf streamer.
    pub to: StreamerRef,
    /// Its input DPort.
    pub to_port: String,
}

/// The model flattened to what runs ([`UnifiedModel::flatten`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Flattening {
    /// Leaf streamers in declaration order; container streamers own
    /// sub-streamers and contribute none.
    pub leaves: Vec<StreamerRef>,
    /// Every flow into a leaf streamer, in declaration order, with its
    /// source traced to a leaf output; flows the tracing refuses are
    /// left out.
    pub flows: Vec<EffectiveFlow>,
    /// Structure the executable form cannot realise, as
    /// [`CoreError::Elaborate`] (`URT114`), in the order met: containers
    /// declaring DPorts, then per flow a container endpoint or a relay
    /// chain that relays nothing, has multiple sources or never ends,
    /// then SPort links to a container.
    pub refusals: Vec<CoreError>,
}

/// Each name that repeats an earlier one, in declaration order. Sorted
/// names show whether any repeats, so a model without one pays a sort and
/// no hashing; `validate` runs on every `elaborate`.
fn repeats<'a>(names: impl Iterator<Item = &'a str> + Clone) -> Vec<&'a str> {
    let mut sorted: Vec<&str> = names.clone().collect();
    sorted.sort_unstable();
    if sorted.windows(2).all(|w| w[0] != w[1]) {
        return Vec::new();
    }
    let mut seen = HashSet::new();
    names.filter(|name| !seen.insert(*name)).collect()
}

/// A validated-or-validatable unified model.
///
/// Build with [`ModelBuilder`]; check with [`UnifiedModel::validate`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UnifiedModel {
    name: String,
    capsules: Vec<CapsuleDecl>,
    streamers: Vec<StreamerDecl>,
    flows: Vec<FlowDecl>,
    sport_links: Vec<SportLink>,
    /// Protocols declared by name, from the capsule's perspective: the
    /// `in` signals ([`Protocol::with_in`]) are deliverable *to* the
    /// capsule.
    protocols: Vec<Protocol>,
    /// Recorder probes: named series tapped off streamer output DPorts.
    probes: Vec<ProbeDecl>,
    /// Declared per-macro-step timing budgets, in nanoseconds.
    budgets: Vec<(BudgetScope, f64)>,
}

impl UnifiedModel {
    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A stable 64-bit content hash of the model: FNV-1a over the
    /// model's canonical (derived `Debug`) rendering, folded in as it is
    /// formatted (no `String` is built). Every collection
    /// in `UnifiedModel` is a `Vec` in declaration order, so the
    /// rendering — and therefore the hash — is deterministic across
    /// processes and platforms. This is the compile-cache key
    /// ([`SystemCache`](crate::cache::SystemCache)) and the value
    /// `urt-lint --hash` prints; the compiled artifact folds the
    /// registry shape on top
    /// ([`CompiledSystem::content_hash`](crate::elaborate::CompiledSystem::content_hash)).
    pub fn content_hash(&self) -> u64 {
        use fmt::Write as _;
        let mut hasher = crate::cache::Fnv1a::new();
        write!(hasher, "{self:?}").expect("hashing a rendering cannot fail");
        hasher.finish()
    }

    /// Summary statistics.
    pub fn stats(&self) -> ModelStats {
        ModelStats {
            capsules: self.capsules.len(),
            streamers: self.streamers.len(),
            flows: self.flows.len(),
            sport_links: self.sport_links.len(),
            dports: self.capsules.iter().map(|c| c.dports.len()).sum::<usize>()
                + self
                    .streamers
                    .iter()
                    .map(|s| s.in_dports.len() + s.out_dports.len())
                    .sum::<usize>(),
            sports: self.capsules.iter().map(|c| c.sports.len()).sum::<usize>()
                + self.streamers.iter().map(|s| s.sports.len()).sum::<usize>(),
        }
    }

    /// Capsule name by reference.
    pub fn capsule_name(&self, c: CapsuleRef) -> Option<&str> {
        self.capsules.get(c.0).map(|d| d.name.as_str())
    }

    /// Streamer name by reference.
    pub fn streamer_name(&self, s: StreamerRef) -> Option<&str> {
        self.streamers.get(s.0).map(|d| d.name.as_str())
    }

    /// Iterates `(ref, name, solver)` over streamers (for codegen).
    pub fn iter_streamers(&self) -> impl Iterator<Item = (StreamerRef, &str, &str)> {
        self.streamers
            .iter()
            .enumerate()
            .map(|(i, d)| (StreamerRef(i), d.name.as_str(), d.solver.as_str()))
    }

    /// Iterates `(ref, name)` over capsules (for codegen).
    pub fn iter_capsules(&self) -> impl Iterator<Item = (CapsuleRef, &str)> {
        self.capsules.iter().enumerate().map(|(i, d)| (CapsuleRef(i), d.name.as_str()))
    }

    /// Iterates every flow as `(from, to)` endpoints.
    pub fn iter_flows(&self) -> impl Iterator<Item = (&FlowEnd, &FlowEnd)> {
        self.flows.iter().map(|f| (&f.from, &f.to))
    }

    /// Iterates SPort links as `(capsule, capsule port, streamer, sport)`.
    pub fn iter_sport_links(&self) -> impl Iterator<Item = (CapsuleRef, &str, StreamerRef, &str)> {
        self.sport_links
            .iter()
            .map(|l| (l.capsule, l.capsule_port.as_str(), l.streamer, l.sport.as_str()))
    }

    /// SPorts `(name, protocol name)` declared on a capsule.
    pub fn capsule_sports(&self, c: CapsuleRef) -> &[(String, String)] {
        self.capsules.get(c.0).map_or(&[], |d| d.sports.as_slice())
    }

    /// The capsule's declarative state machine, if one was attached.
    pub fn capsule_machine(&self, c: CapsuleRef) -> Option<&SmSpec> {
        self.capsules.get(c.0).and_then(|d| d.machine.as_ref())
    }

    /// Input DPorts `(name, flow type)` declared on a streamer.
    pub fn streamer_in_dports(&self, s: StreamerRef) -> &[(String, FlowType)] {
        self.streamers.get(s.0).map_or(&[], |d| d.in_dports.as_slice())
    }

    /// Output DPorts `(name, flow type)` declared on a streamer.
    pub fn streamer_out_dports(&self, s: StreamerRef) -> &[(String, FlowType)] {
        self.streamers.get(s.0).map_or(&[], |d| d.out_dports.as_slice())
    }

    /// Whether a streamer's outputs depend on same-step inputs
    /// (default `true`).
    pub fn streamer_feedthrough(&self, s: StreamerRef) -> bool {
        self.streamers.get(s.0).is_none_or(|d| d.feedthrough)
    }

    /// Solver-thread assignment of a streamer in the deployment plan.
    pub fn streamer_thread(&self, s: StreamerRef) -> usize {
        self.streamers.get(s.0).map_or(0, |d| d.thread)
    }

    /// Declared worst-case cost of one macro step for a streamer, in
    /// nanoseconds (`None` when the model left it to calibration).
    pub fn streamer_step_cost(&self, s: StreamerRef) -> Option<f64> {
        self.streamers.get(s.0).and_then(|d| d.step_cost_ns)
    }

    /// Iterates the declared timing budgets as `(scope, ns per macro
    /// step)`.
    pub fn iter_budgets(&self) -> impl Iterator<Item = (BudgetScope, f64)> + '_ {
        self.budgets.iter().copied()
    }

    /// Whether any per-macro-step budget is declared — the static cost
    /// pass is active exactly when this holds.
    pub fn has_budgets(&self) -> bool {
        !self.budgets.is_empty()
    }

    /// The budget binding a solver thread: a [`BudgetScope::Thread`]
    /// declaration for `thread` wins, else a [`BudgetScope::Model`]
    /// declaration, else `None`. Later declarations of the same scope
    /// override earlier ones.
    pub fn budget_for_thread(&self, thread: usize) -> Option<f64> {
        self.budgets
            .iter()
            .rev()
            .find(|(scope, _)| *scope == BudgetScope::Thread(thread))
            .or_else(|| self.budgets.iter().rev().find(|(scope, _)| *scope == BudgetScope::Model))
            .map(|(_, ns)| *ns)
    }

    /// The model-wide budget ([`BudgetScope::Model`]), if declared.
    pub fn model_budget(&self) -> Option<f64> {
        self.budgets.iter().rev().find(|(scope, _)| *scope == BudgetScope::Model).map(|(_, ns)| *ns)
    }

    /// Re-assigns a streamer (by name) to a solver thread — the hook the
    /// analyzer's recommended partition (`URT304`) is applied through.
    /// Returns `false` when no streamer has that name.
    pub fn reassign_thread(&mut self, streamer: &str, thread: usize) -> bool {
        match self.streamers.iter_mut().find(|d| d.name == streamer) {
            Some(d) => {
                d.thread = thread;
                true
            }
            None => false,
        }
    }

    /// Owner of a capsule.
    pub fn capsule_owner(&self, c: CapsuleRef) -> Option<Owner> {
        self.capsules.get(c.0).map(|d| d.owner)
    }

    /// Owner of a streamer.
    pub fn streamer_owner(&self, s: StreamerRef) -> Option<Owner> {
        self.streamers.get(s.0).map(|d| d.owner)
    }

    /// Looks up a declared protocol by name.
    pub fn protocol(&self, name: &str) -> Option<&Protocol> {
        self.protocols.iter().find(|p| p.name() == name)
    }

    /// Iterates the declared protocols.
    pub fn iter_protocols(&self) -> impl Iterator<Item = &Protocol> {
        self.protocols.iter()
    }

    /// Iterates declared probes as `(streamer, output port, series name)`.
    pub fn iter_probes(&self) -> impl Iterator<Item = (StreamerRef, &str, &str)> {
        self.probes.iter().map(|p| (p.streamer, p.port.as_str(), p.series.as_str()))
    }

    fn flow_end_type(&self, end: &FlowEnd, incoming: bool) -> Result<&FlowType, CoreError> {
        match end {
            FlowEnd::Capsule(c, port) => self
                .capsules
                .get(c.0)
                .and_then(|d| d.dports.iter().find(|(n, _)| n == port))
                .map(|(_, t)| t)
                .ok_or_else(|| CoreError::Validation {
                    rule: "flow-endpoint",
                    detail: format!("capsule DPort `{port}` not declared"),
                }),
            FlowEnd::Streamer(s, port) => {
                let d = self.streamers.get(s.0).ok_or(CoreError::Validation {
                    rule: "flow-endpoint",
                    detail: format!("streamer #{} not declared", s.0),
                })?;
                let ports = if incoming { &d.in_dports } else { &d.out_dports };
                ports.iter().find(|(n, _)| n == port).map(|(_, t)| t).ok_or_else(|| {
                    CoreError::Validation {
                        rule: "flow-endpoint",
                        detail: format!(
                            "streamer `{}` has no {} DPort `{port}`",
                            d.name,
                            if incoming { "input" } else { "output" }
                        ),
                    }
                })
            }
        }
    }

    /// Collects **every** well-formedness violation instead of failing
    /// fast — the model half of the `urt_analysis` analyzer. Pass order
    /// matches the historical fail-fast order, so
    /// [`UnifiedModel::validate`] (which fails on the first entry)
    /// reports the same error it always did.
    pub fn violations(&self) -> Vec<CoreError> {
        let mut found = Vec::new();
        self.collect_unique_names(&mut found);
        self.collect_containment(&mut found);
        self.collect_flows(&mut found);
        self.collect_capsule_dports_relay(&mut found);
        self.collect_sport_links(&mut found);
        self.collect_probes(&mut found);
        found
    }

    /// Checks every well-formedness rule; returns the first violation.
    /// Thin wrapper over the collecting analyzer
    /// ([`UnifiedModel::violations`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::Validation`] with the rule identifier (see the module
    /// docs for the rule list).
    pub fn validate(&self) -> Result<(), CoreError> {
        match self.violations().into_iter().next() {
            Some(first) => Err(first),
            None => Ok(()),
        }
    }

    fn collect_unique_names(&self, found: &mut Vec<CoreError>) {
        let capsules = repeats(self.capsules.iter().map(|d| d.name.as_str()));
        let streamers = repeats(self.streamers.iter().map(|d| d.name.as_str()));
        for (kind, names) in [("capsule", capsules), ("streamer", streamers)] {
            found.extend(names.into_iter().map(|name| CoreError::Validation {
                rule: "unique-names",
                detail: format!("{kind} `{name}` declared twice"),
            }));
        }
    }

    fn collect_containment(&self, found: &mut Vec<CoreError>) {
        // fig3-containment: capsules must never sit inside streamers.
        for d in &self.capsules {
            if let Owner::Streamer(s) = d.owner {
                found.push(CoreError::Validation {
                    rule: "fig3-containment",
                    detail: format!(
                        "capsule `{}` is contained in streamer `{}`; streamers don't contain any capsule",
                        d.name,
                        self.streamer_name(s).unwrap_or("?")
                    ),
                });
            }
        }
        // containment-acyclic over the combined ownership graph.
        // Node encoding: capsule i -> i, streamer j -> capsules.len() + j.
        let n = self.capsules.len() + self.streamers.len();
        let owner_of = |idx: usize| -> Option<usize> {
            let owner = if idx < self.capsules.len() {
                self.capsules[idx].owner
            } else {
                self.streamers[idx - self.capsules.len()].owner
            };
            match owner {
                Owner::System => None,
                Owner::Capsule(c) => Some(c.0),
                Owner::Streamer(s) => Some(self.capsules.len() + s.0),
            }
        };
        let mut on_cycle = Vec::new();
        for start in 0..n {
            let mut steps = 0;
            let mut cur = Some(start);
            while let Some(i) = cur {
                cur = owner_of(i);
                steps += 1;
                if steps > n {
                    on_cycle.push(start);
                    break;
                }
            }
        }
        if !on_cycle.is_empty() {
            // One diagnostic naming every element caught in a cycle, not
            // one duplicate per start node.
            let names: Vec<String> = on_cycle
                .iter()
                .map(|&i| {
                    if i < self.capsules.len() {
                        format!("`{}`", self.capsules[i].name)
                    } else {
                        format!("`{}`", self.streamers[i - self.capsules.len()].name)
                    }
                })
                .collect();
            found.push(CoreError::Validation {
                rule: "containment-acyclic",
                detail: format!("ownership cycle involving {}", names.join(", ")),
            });
        }
    }

    fn collect_flows(&self, found: &mut Vec<CoreError>) {
        for flow in &self.flows {
            let src = match self.flow_end_type(&flow.from, false) {
                Ok(t) => Some(t),
                Err(e) => {
                    found.push(e);
                    None
                }
            };
            let dst = match self.flow_end_type(&flow.to, true) {
                Ok(t) => Some(t),
                Err(e) => {
                    found.push(e);
                    None
                }
            };
            let (Some(src), Some(dst)) = (src, dst) else { continue };
            if let Some(why) = src.subset_failure(dst) {
                found.push(CoreError::Validation {
                    rule: "flow-subset",
                    detail: format!(
                        "flow {} -> {}: type {src} is not a subset of {dst}: {why}",
                        self.flow_end_path(&flow.from),
                        self.flow_end_path(&flow.to),
                    ),
                });
            }
        }
    }

    fn collect_capsule_dports_relay(&self, found: &mut Vec<CoreError>) {
        for (ci, d) in self.capsules.iter().enumerate() {
            for (port, _) in &d.dports {
                let as_dest = self
                    .flows
                    .iter()
                    .any(|f| matches!(&f.to, FlowEnd::Capsule(c, p) if c.0 == ci && p == port));
                let as_src = self
                    .flows
                    .iter()
                    .any(|f| matches!(&f.from, FlowEnd::Capsule(c, p) if c.0 == ci && p == port));
                if !(as_dest && as_src) {
                    found.push(CoreError::Validation {
                        rule: "fig3-dport-relay",
                        detail: format!(
                            "capsule `{}` DPort `{port}` must relay (needs both an incoming and an outgoing flow); no data is processed by capsules",
                            d.name
                        ),
                    });
                }
            }
        }
    }

    fn collect_sport_links(&self, found: &mut Vec<CoreError>) {
        for (i, link) in self.sport_links.iter().enumerate() {
            let (Some(cap), Some(st)) =
                (self.capsules.get(link.capsule.0), self.streamers.get(link.streamer.0))
            else {
                found.push(CoreError::Validation {
                    rule: "sport-protocol",
                    detail: "sport link references an unknown capsule or streamer".into(),
                });
                continue;
            };
            let cp = cap.sports.iter().find(|(n, _)| n == &link.capsule_port);
            let sp = st.sports.iter().find(|(n, _)| n == &link.sport);
            match (cp, sp) {
                (Some((_, proto_c)), Some((_, proto_s))) if proto_c == proto_s => {}
                (Some((_, proto_c)), Some((_, proto_s))) => {
                    found.push(CoreError::Validation {
                        rule: "sport-protocol",
                        detail: format!("sport link protocols differ: `{proto_c}` vs `{proto_s}`"),
                    });
                }
                _ => {
                    found.push(CoreError::Validation {
                        rule: "sport-protocol",
                        detail: format!(
                            "sport link `{}`.`{}` <-> `{}`.`{}` references undeclared ports",
                            cap.name, link.capsule_port, st.name, link.sport
                        ),
                    });
                }
            }
            // A streamer SPort routes to one capsule port.
            let earlier = &self.sport_links[..i];
            if earlier.iter().any(|l| (l.streamer, &l.sport) == (link.streamer, &link.sport)) {
                let (streamer, sport) = (st.name.clone(), link.sport.clone());
                found.push(CoreError::DuplicateSportLink { streamer, sport });
            }
        }
    }

    fn collect_probes(&self, found: &mut Vec<CoreError>) {
        let tap = |p: &ProbeDecl| {
            format!("`{}`.`{}`", self.streamer_name(p.streamer).unwrap_or("?"), p.port)
        };
        // A series records one probe. Sorted names show whether any
        // repeats; only then is each probe checked against the earlier ones.
        let mut series: Vec<&str> = self.probes.iter().map(|p| p.series.as_str()).collect();
        series.sort_unstable();
        let repeats = series.windows(2).any(|w| w[0] == w[1]);
        for (i, p) in self.probes.iter().enumerate() {
            let first = repeats.then(|| self.probes[..i].iter().find(|q| q.series == p.series));
            if let Some(first) = first.flatten() {
                found.push(CoreError::Validation {
                    rule: "unique-names",
                    detail: format!(
                        "probe series `{}` is recorded by both {} and {}; give each probe its \
                         own series",
                        p.series,
                        tap(first),
                        tap(p)
                    ),
                });
            }
            let Some(st) = self.streamers.get(p.streamer.0) else {
                found.push(CoreError::Validation {
                    rule: "probe-port",
                    detail: format!("probe `{}` references an unknown streamer", p.series),
                });
                continue;
            };
            if !st.out_dports.iter().any(|(n, _)| n == &p.port) {
                found.push(CoreError::Validation {
                    rule: "probe-port",
                    detail: format!(
                        "probe `{}` taps streamer `{}` output DPort `{}`, which is not declared",
                        p.series, st.name, p.port
                    ),
                });
            }
        }
    }

    /// Flattens the model to what runs: container streamers (Figure 2)
    /// give way to their leaves, and each flow into a leaf has its source
    /// traced back through capsule relay DPorts (Figure 3) to a leaf
    /// output. [`crate::elaborate::elaborate`] fails on the first refusal;
    /// the analyzer reports them all and lints the resolved flows.
    pub fn flatten(&self) -> Flattening {
        let containers: HashSet<StreamerRef> = self
            .streamers
            .iter()
            .filter_map(|d| match d.owner {
                Owner::Streamer(parent) => Some(parent),
                _ => None,
            })
            .collect();
        let name_of = |r: StreamerRef| self.streamer_name(r).unwrap_or("?");
        let refuse = |detail: String| CoreError::Elaborate { detail };
        let mut flat = Flattening::default();
        for (i, d) in self.streamers.iter().enumerate() {
            if !containers.contains(&StreamerRef(i)) {
                flat.leaves.push(StreamerRef(i));
            } else if !d.in_dports.is_empty() || !d.out_dports.is_empty() {
                flat.refusals.push(refuse(format!(
                    "container streamer `{}` declares DPorts; flatten flows to its leaves instead",
                    d.name
                )));
            }
        }
        let traced = self.flows.iter().filter_map(|f| {
            // Flows *into* capsule DPorts are consumed by relay tracing.
            let FlowEnd::Streamer(to, to_port) = &f.to else { return None };
            if containers.contains(to) {
                return Some(Err(refuse(format!(
                    "flow targets container streamer `{}`",
                    name_of(*to)
                ))));
            }
            Some(self.relay_source(&f.from).and_then(|(from, from_port)| {
                if containers.contains(&from) {
                    return Err(refuse(format!(
                        "flow originates at container streamer `{}`",
                        name_of(from)
                    )));
                }
                Ok(EffectiveFlow { from, from_port, to: *to, to_port: to_port.clone() })
            }))
        });
        let linked = self.sport_links.iter().filter(|l| containers.contains(&l.streamer));
        let linked = linked.map(|l| {
            Err(refuse(format!("sport link targets container streamer `{}`", name_of(l.streamer))))
        });
        for result in traced.chain(linked) {
            match result {
                Ok(flow) => flat.flows.push(flow),
                // A broken relay read by several inputs is one refusal.
                Err(e) if !flat.refusals.contains(&e) => flat.refusals.push(e),
                Err(_) => {}
            }
        }
        flat
    }

    /// The leaf output DPort a flow from `end` carries: `end` itself, or
    /// the source of the relay chain through capsule DPorts that ends
    /// there.
    fn relay_source<'a>(
        &'a self,
        mut end: &'a FlowEnd,
    ) -> Result<(StreamerRef, String), CoreError> {
        let refuse = |detail: String| CoreError::Elaborate { detail };
        let mut hops = 0usize;
        loop {
            match end {
                FlowEnd::Streamer(s, port) => return Ok((*s, port.clone())),
                FlowEnd::Capsule(c, port) => {
                    hops += 1;
                    if hops > self.flows.len() + 1 {
                        return Err(refuse(format!(
                            "relay chain through capsule DPort `{port}` does not terminate"
                        )));
                    }
                    let mut sources = self.flows.iter().filter(|f| match &f.to {
                        FlowEnd::Capsule(tc, tp) => tc == c && tp == port,
                        FlowEnd::Streamer(..) => false,
                    });
                    let capsule = self.capsule_name(*c).unwrap_or("?");
                    let Some(source) = sources.next() else {
                        return Err(refuse(format!(
                            "capsule DPort `{capsule}`.`{port}` relays nothing"
                        )));
                    };
                    if sources.next().is_some() {
                        return Err(refuse(format!(
                            "capsule DPort `{capsule}`.`{port}` has multiple sources"
                        )));
                    }
                    end = &source.from;
                }
            }
        }
    }

    /// Human-readable `element.dport:name` path for a flow endpoint.
    pub fn flow_end_path(&self, end: &FlowEnd) -> String {
        match end {
            FlowEnd::Capsule(c, port) => {
                format!("{}.dport:{port}", self.capsule_name(*c).unwrap_or("?"))
            }
            FlowEnd::Streamer(s, port) => {
                format!("{}.dport:{port}", self.streamer_name(*s).unwrap_or("?"))
            }
        }
    }

    /// Renders the containment tree (the shape of Figures 2 and 3).
    pub fn render_structure(&self) -> String {
        let mut out = format!("model {}\n", self.name);
        let owner_matches = |owner: Owner, target: Owner| owner == target;
        fn walk(
            model: &UnifiedModel,
            out: &mut String,
            owner: Owner,
            depth: usize,
            owner_matches: &dyn Fn(Owner, Owner) -> bool,
        ) {
            for (i, c) in model.capsules.iter().enumerate() {
                if owner_matches(c.owner, owner) {
                    out.push_str(&format!(
                        "{}capsule {} (dports: {}, sports: {})\n",
                        "  ".repeat(depth),
                        c.name,
                        c.dports.len(),
                        c.sports.len()
                    ));
                    walk(model, out, Owner::Capsule(CapsuleRef(i)), depth + 1, owner_matches);
                }
            }
            for (i, s) in model.streamers.iter().enumerate() {
                if owner_matches(s.owner, owner) {
                    out.push_str(&format!(
                        "{}streamer {} [solver: {}] (in: {}, out: {}, sports: {})\n",
                        "  ".repeat(depth),
                        s.name,
                        s.solver,
                        s.in_dports.len(),
                        s.out_dports.len(),
                        s.sports.len()
                    ));
                    walk(model, out, Owner::Streamer(StreamerRef(i)), depth + 1, owner_matches);
                }
            }
        }
        walk(self, &mut out, Owner::System, 1, &owner_matches);
        out.push_str(&format!(
            "flows: {}, sport links: {}\n",
            self.flows.len(),
            self.sport_links.len()
        ));
        out
    }
}

impl fmt::Display for UnifiedModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_structure())
    }
}

/// Builder for [`UnifiedModel`].
///
/// # Examples
///
/// The paper's Figure 3 structure — a top capsule containing a sub-capsule
/// and two streamers:
///
/// ```
/// use urt_core::model::ModelBuilder;
/// use urt_dataflow::flowtype::FlowType;
///
/// let mut b = ModelBuilder::new("fig3");
/// let top = b.capsule("top");
/// let sub = b.capsule("sub");
/// let s1 = b.streamer("streamer1", "rk4");
/// let s2 = b.streamer("streamer2", "rk4");
/// b.contain_capsule(sub, top);
/// b.contain_streamer_in_capsule(s1, top);
/// b.contain_streamer_in_capsule(s2, top);
/// b.streamer_out(s1, "y", FlowType::scalar());
/// b.streamer_in(s2, "u", FlowType::scalar());
/// b.flow_between_streamers(s1, "y", s2, "u");
/// let model = b.build();
/// assert!(model.validate().is_ok());
/// ```
#[derive(Debug, Default)]
pub struct ModelBuilder {
    model: UnifiedModel,
}

impl ModelBuilder {
    /// Starts a model called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ModelBuilder { model: UnifiedModel { name: name.into(), ..UnifiedModel::default() } }
    }

    /// Declares a top-level capsule.
    pub fn capsule(&mut self, name: impl Into<String>) -> CapsuleRef {
        self.model.capsules.push(CapsuleDecl {
            name: name.into(),
            owner: Owner::System,
            dports: Vec::new(),
            sports: Vec::new(),
            machine: None,
        });
        CapsuleRef(self.model.capsules.len() - 1)
    }

    /// Declares a top-level streamer with a named solver strategy.
    pub fn streamer(&mut self, name: impl Into<String>, solver: impl Into<String>) -> StreamerRef {
        self.model.streamers.push(StreamerDecl {
            name: name.into(),
            owner: Owner::System,
            in_dports: Vec::new(),
            out_dports: Vec::new(),
            sports: Vec::new(),
            solver: solver.into(),
            feedthrough: true,
            thread: 0,
            step_cost_ns: None,
        });
        StreamerRef(self.model.streamers.len() - 1)
    }

    /// Nests a capsule inside another capsule.
    pub fn contain_capsule(&mut self, child: CapsuleRef, parent: CapsuleRef) {
        self.model.capsules[child.0].owner = Owner::Capsule(parent);
    }

    /// Nests a streamer inside a capsule (allowed, Figure 3).
    pub fn contain_streamer_in_capsule(&mut self, child: StreamerRef, parent: CapsuleRef) {
        self.model.streamers[child.0].owner = Owner::Capsule(parent);
    }

    /// Nests a streamer inside another streamer (allowed, Figure 2).
    pub fn contain_streamer(&mut self, child: StreamerRef, parent: StreamerRef) {
        self.model.streamers[child.0].owner = Owner::Streamer(parent);
    }

    /// Nests a capsule inside a streamer — **forbidden** by the paper;
    /// representable so that validation can reject it.
    pub fn contain_capsule_in_streamer(&mut self, child: CapsuleRef, parent: StreamerRef) {
        self.model.capsules[child.0].owner = Owner::Streamer(parent);
    }

    /// Declares a relay DPort on a capsule.
    pub fn capsule_dport(&mut self, c: CapsuleRef, name: impl Into<String>, ty: FlowType) {
        self.model.capsules[c.0].dports.push((name.into(), ty));
    }

    /// Declares an SPort on a capsule with a protocol name.
    pub fn capsule_sport(
        &mut self,
        c: CapsuleRef,
        name: impl Into<String>,
        protocol: impl Into<String>,
    ) {
        self.model.capsules[c.0].sports.push((name.into(), protocol.into()));
    }

    /// Declares an input DPort on a streamer.
    pub fn streamer_in(&mut self, s: StreamerRef, name: impl Into<String>, ty: FlowType) {
        self.model.streamers[s.0].in_dports.push((name.into(), ty));
    }

    /// Declares an output DPort on a streamer.
    pub fn streamer_out(&mut self, s: StreamerRef, name: impl Into<String>, ty: FlowType) {
        self.model.streamers[s.0].out_dports.push((name.into(), ty));
    }

    /// Declares an SPort on a streamer with a protocol name.
    pub fn streamer_sport(
        &mut self,
        s: StreamerRef,
        name: impl Into<String>,
        protocol: impl Into<String>,
    ) {
        self.model.streamers[s.0].sports.push((name.into(), protocol.into()));
    }

    /// Adds a flow between two streamer DPorts.
    pub fn flow_between_streamers(
        &mut self,
        from: StreamerRef,
        from_port: impl Into<String>,
        to: StreamerRef,
        to_port: impl Into<String>,
    ) {
        self.model.flows.push(FlowDecl {
            from: FlowEnd::Streamer(from, from_port.into()),
            to: FlowEnd::Streamer(to, to_port.into()),
        });
    }

    /// Adds a flow with arbitrary endpoints (including capsule relay
    /// DPorts).
    pub fn flow(&mut self, from: FlowEnd, to: FlowEnd) {
        self.model.flows.push(FlowDecl { from, to });
    }

    /// Links a capsule SPort to a streamer SPort.
    pub fn sport_link(
        &mut self,
        capsule: CapsuleRef,
        capsule_port: impl Into<String>,
        streamer: StreamerRef,
        sport: impl Into<String>,
    ) {
        self.model.sport_links.push(SportLink {
            capsule,
            capsule_port: capsule_port.into(),
            streamer,
            sport: sport.into(),
        });
    }

    /// Registers a protocol definition (capsule perspective: `in` signals
    /// are deliverable to the capsule). Used by the `urt_analysis`
    /// undeliverable-trigger lint.
    pub fn declare_protocol(&mut self, protocol: Protocol) {
        self.model.protocols.push(protocol);
    }

    /// Attaches a declarative state machine to a capsule.
    pub fn capsule_machine(&mut self, c: CapsuleRef, machine: SmSpec) {
        self.model.capsules[c.0].machine = Some(machine);
    }

    /// Declares whether a streamer's outputs depend on same-step inputs.
    /// Integrator-style streamers should pass `false` to break algebraic
    /// loops through themselves.
    pub fn streamer_feedthrough(&mut self, s: StreamerRef, feedthrough: bool) {
        self.model.streamers[s.0].feedthrough = feedthrough;
    }

    /// Assigns a streamer to a solver thread in the deployment plan.
    pub fn assign_thread(&mut self, s: StreamerRef, thread: usize) {
        self.model.streamers[s.0].thread = thread;
    }

    /// Declares the worst-case cost of one macro step of streamer `s`,
    /// in nanoseconds. Declared costs take precedence over the
    /// calibration table in the static cost pass.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is not positive and finite.
    pub fn declare_step_cost(&mut self, s: StreamerRef, ns: f64) {
        assert!(ns.is_finite() && ns > 0.0, "step cost must be positive ns");
        self.model.streamers[s.0].step_cost_ns = Some(ns);
    }

    /// Declares a per-macro-step timing budget, in nanoseconds: the
    /// static cost pass (`URT301`) refuses any solver-thread group whose
    /// worst-case macro-step cost exceeds the budget binding it.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is not positive and finite.
    pub fn declare_budget(&mut self, scope: BudgetScope, ns: f64) {
        assert!(ns.is_finite() && ns > 0.0, "budget must be positive ns");
        self.model.budgets.push((scope, ns));
    }

    /// Declares a recorder probe: the first lane of streamer `s`'s output
    /// DPort `port` is sampled every macro step into a series named
    /// `series`. Elaboration resolves the tap once, so probing costs no
    /// per-step name lookup.
    pub fn probe(&mut self, s: StreamerRef, port: impl Into<String>, series: impl Into<String>) {
        self.model.probes.push(ProbeDecl { streamer: s, port: port.into(), series: series.into() });
    }

    /// Finalises the (unvalidated) model.
    pub fn build(self) -> UnifiedModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urt_dataflow::flowtype::Unit;

    fn fig2_model() -> UnifiedModel {
        // Top streamer containing sub-streamers with a relayed flow, as in
        // the paper's Figure 2.
        let mut b = ModelBuilder::new("fig2");
        let top = b.streamer("top", "rk4");
        let sub1 = b.streamer("sub1", "rk4");
        let sub2 = b.streamer("sub2", "euler");
        let sub3 = b.streamer("sub3", "euler");
        b.contain_streamer(sub1, top);
        b.contain_streamer(sub2, top);
        b.contain_streamer(sub3, top);
        b.streamer_out(sub1, "y", FlowType::scalar());
        b.streamer_in(sub2, "u", FlowType::scalar());
        b.streamer_in(sub3, "u", FlowType::scalar());
        b.flow_between_streamers(sub1, "y", sub2, "u");
        b.flow_between_streamers(sub1, "y", sub3, "u");
        b.streamer_sport(top, "ctl", "StreamCtl");
        b.build()
    }

    #[test]
    fn fig2_structure_validates() {
        let m = fig2_model();
        m.validate().unwrap();
        let stats = m.stats();
        assert_eq!(stats.streamers, 4);
        assert_eq!(stats.flows, 2);
        assert_eq!(stats.sports, 1);
        let s = m.render_structure();
        assert!(s.contains("streamer top"));
        assert!(s.contains("  streamer sub1") || s.contains("streamer sub1"));
    }

    #[test]
    fn relay_chains_resolve_to_effective_flows() {
        // s1 -> c.d -> s2: one effective flow s1.y -> s2.u.
        let mut b = ModelBuilder::new("relay");
        let c = b.capsule("c");
        let s1 = b.streamer("s1", "rk4");
        let s2 = b.streamer("s2", "rk4");
        b.contain_streamer_in_capsule(s2, c);
        b.capsule_dport(c, "d", FlowType::scalar());
        b.streamer_out(s1, "y", FlowType::scalar());
        b.streamer_in(s2, "u", FlowType::scalar());
        b.flow(FlowEnd::Streamer(s1, "y".into()), FlowEnd::Capsule(c, "d".into()));
        b.flow(FlowEnd::Capsule(c, "d".into()), FlowEnd::Streamer(s2, "u".into()));
        let flat = b.build().flatten();
        assert_eq!(flat.leaves, [s1, s2]);
        let flow = EffectiveFlow { from: s1, from_port: "y".into(), to: s2, to_port: "u".into() };
        assert_eq!(flat.flows, [flow]);
        assert!(flat.refusals.is_empty());
    }

    #[test]
    fn flattening_collects_every_refusal_once_and_keeps_the_rest() {
        // fig2's container `top` declaring a DPort, and a relay `c.d` with
        // two sources read by both sub2 and sub3.
        let mut b = ModelBuilder::new("m");
        let top = b.streamer("top", "rk4");
        let sub1 = b.streamer("sub1", "rk4");
        let sub2 = b.streamer("sub2", "euler");
        let sub3 = b.streamer("sub3", "euler");
        for s in [sub1, sub2, sub3] {
            b.contain_streamer(s, top);
        }
        b.streamer_out(top, "y", FlowType::scalar());
        b.streamer_out(sub1, "y", FlowType::scalar());
        b.streamer_in(sub2, "u", FlowType::scalar());
        b.streamer_in(sub3, "u", FlowType::scalar());
        b.streamer_in(sub3, "v", FlowType::scalar());
        let c = b.capsule("c");
        b.flow(FlowEnd::Streamer(sub1, "y".into()), FlowEnd::Capsule(c, "d".into()));
        b.flow(FlowEnd::Streamer(sub1, "y".into()), FlowEnd::Capsule(c, "d".into()));
        b.flow(FlowEnd::Capsule(c, "d".into()), FlowEnd::Streamer(sub2, "u".into()));
        b.flow(FlowEnd::Capsule(c, "d".into()), FlowEnd::Streamer(sub3, "u".into()));
        b.flow_between_streamers(sub1, "y", sub3, "v");
        // Two SPort links to the container are one refusal.
        for port in ["p", "q"] {
            b.capsule_sport(c, port, "Ctl");
            b.streamer_sport(top, port, "Ctl");
            b.sport_link(c, port, top, port);
        }
        let flat = b.build().flatten();
        assert_eq!(flat.leaves, [sub1, sub2, sub3]);
        let flow =
            EffectiveFlow { from: sub1, from_port: "y".into(), to: sub3, to_port: "v".into() };
        assert_eq!(flat.flows, [flow]);
        let refusals: Vec<String> = flat.refusals.iter().map(ToString::to_string).collect();
        assert_eq!(
            refusals,
            [
                "URT114: elaboration error: container streamer `top` declares DPorts; flatten \
                 flows to its leaves instead",
                "URT114: elaboration error: capsule DPort `c`.`d` has multiple sources",
                "URT114: elaboration error: sport link targets container streamer `top`",
            ]
        );
    }

    #[test]
    fn fig3_containment_rule_rejects_capsule_in_streamer() {
        let mut b = ModelBuilder::new("bad");
        let s = b.streamer("s", "rk4");
        let c = b.capsule("c");
        b.contain_capsule_in_streamer(c, s);
        let err = b.build().validate().unwrap_err();
        match err {
            CoreError::Validation { rule, detail } => {
                assert_eq!(rule, "fig3-containment");
                assert!(detail.contains("streamers don't contain any capsule"));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn capsules_may_contain_streamers() {
        let mut b = ModelBuilder::new("ok");
        let c = b.capsule("c");
        let s = b.streamer("s", "rk4");
        b.contain_streamer_in_capsule(s, c);
        assert!(b.build().validate().is_ok());
    }

    #[test]
    fn containment_cycle_detected() {
        let mut b = ModelBuilder::new("cycle");
        let a = b.streamer("a", "rk4");
        let c = b.streamer("c", "rk4");
        b.contain_streamer(a, c);
        b.contain_streamer(c, a);
        let err = b.build().validate().unwrap_err();
        assert!(matches!(err, CoreError::Validation { rule: "containment-acyclic", .. }));
    }

    #[test]
    fn flow_subset_rule_enforced() {
        let mut b = ModelBuilder::new("m");
        let s1 = b.streamer("s1", "rk4");
        let s2 = b.streamer("s2", "rk4");
        b.streamer_out(s1, "y", FlowType::with_unit(Unit::Meter));
        b.streamer_in(s2, "u", FlowType::with_unit(Unit::Kelvin));
        b.flow_between_streamers(s1, "y", s2, "u");
        let err = b.build().validate().unwrap_err();
        assert!(matches!(err, CoreError::Validation { rule: "flow-subset", .. }));
    }

    #[test]
    fn flow_endpoint_must_exist() {
        let mut b = ModelBuilder::new("m");
        let s1 = b.streamer("s1", "rk4");
        let s2 = b.streamer("s2", "rk4");
        b.flow_between_streamers(s1, "ghost", s2, "u");
        let err = b.build().validate().unwrap_err();
        assert!(matches!(err, CoreError::Validation { rule: "flow-endpoint", .. }));
    }

    #[test]
    fn capsule_dport_must_relay() {
        // DPort with only an incoming flow: not relaying.
        let mut b = ModelBuilder::new("m");
        let c = b.capsule("c");
        let s = b.streamer("s", "rk4");
        b.capsule_dport(c, "d", FlowType::scalar());
        b.streamer_out(s, "y", FlowType::scalar());
        b.flow(FlowEnd::Streamer(s, "y".into()), FlowEnd::Capsule(c, "d".into()));
        let err = b.build().validate().unwrap_err();
        assert!(matches!(err, CoreError::Validation { rule: "fig3-dport-relay", .. }));
    }

    #[test]
    fn capsule_dport_relaying_validates() {
        let mut b = ModelBuilder::new("m");
        let c = b.capsule("c");
        let producer = b.streamer("producer", "rk4");
        let inner = b.streamer("inner", "rk4");
        b.contain_streamer_in_capsule(inner, c);
        b.capsule_dport(c, "d", FlowType::scalar());
        b.streamer_out(producer, "y", FlowType::scalar());
        b.streamer_in(inner, "u", FlowType::scalar());
        b.flow(FlowEnd::Streamer(producer, "y".into()), FlowEnd::Capsule(c, "d".into()));
        b.flow(FlowEnd::Capsule(c, "d".into()), FlowEnd::Streamer(inner, "u".into()));
        b.build().validate().unwrap();
    }

    #[test]
    fn sport_link_protocols_must_match() {
        let mut b = ModelBuilder::new("m");
        let c = b.capsule("c");
        let s = b.streamer("s", "rk4");
        b.capsule_sport(c, "ctl", "ProtoA");
        b.streamer_sport(s, "ctl", "ProtoB");
        b.sport_link(c, "ctl", s, "ctl");
        let err = b.build().validate().unwrap_err();
        assert!(matches!(err, CoreError::Validation { rule: "sport-protocol", .. }));

        let mut b = ModelBuilder::new("m2");
        let c = b.capsule("c");
        let s = b.streamer("s", "rk4");
        b.capsule_sport(c, "ctl", "Proto");
        b.streamer_sport(s, "ctl", "Proto");
        b.sport_link(c, "ctl", s, "ctl");
        b.build().validate().unwrap();
    }

    #[test]
    fn a_streamer_sport_takes_one_link() {
        let mut b = ModelBuilder::new("m");
        let c = b.capsule("c");
        let s = b.streamer("s", "rk4");
        b.capsule_sport(c, "p", "Proto");
        b.capsule_sport(c, "q", "Proto");
        b.streamer_sport(s, "ctl", "Proto");
        b.sport_link(c, "p", s, "ctl");
        b.sport_link(c, "q", s, "ctl");
        let found = b.build().violations();
        assert_eq!(
            found,
            [CoreError::DuplicateSportLink { streamer: "s".into(), sport: "ctl".into() }]
        );
        assert!(found[0].to_string().starts_with("URT113: "), "{}", found[0]);
    }

    #[test]
    fn sport_link_undeclared_port_rejected() {
        let mut b = ModelBuilder::new("m");
        let c = b.capsule("c");
        let s = b.streamer("s", "rk4");
        b.sport_link(c, "ghost", s, "ghost");
        let err = b.build().validate().unwrap_err();
        assert!(matches!(err, CoreError::Validation { rule: "sport-protocol", .. }));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = ModelBuilder::new("m");
        b.capsule("x");
        b.capsule("x");
        let err = b.build().validate().unwrap_err();
        assert!(matches!(err, CoreError::Validation { rule: "unique-names", .. }));

        let mut b = ModelBuilder::new("m");
        b.streamer("y", "rk4");
        b.streamer("y", "rk4");
        assert!(matches!(
            b.build().validate().unwrap_err(),
            CoreError::Validation { rule: "unique-names", .. }
        ));
    }

    #[test]
    fn duplicate_probe_series_rejected_naming_both_probes() {
        let mut b = ModelBuilder::new("m");
        let s1 = b.streamer("s1", "rk4");
        let s2 = b.streamer("s2", "rk4");
        b.streamer_out(s1, "y", FlowType::scalar());
        b.streamer_out(s2, "z", FlowType::scalar());
        b.probe(s1, "y", "out");
        b.probe(s2, "z", "out");
        b.probe(s2, "z", "z");
        let found = b.build().violations();
        assert_eq!(found.len(), 1, "{found:?}");
        let CoreError::Validation { rule: "unique-names", detail } = &found[0] else {
            panic!("unexpected {:?}", found[0]);
        };
        assert!(detail.contains("`out`"), "{detail}");
        assert!(detail.contains("`s1`.`y`") && detail.contains("`s2`.`z`"), "{detail}");
        assert!(found[0].to_string().starts_with("URT101: "), "{}", found[0]);
    }

    #[test]
    fn violations_collects_every_rule_break() {
        // Three distinct rule violations in one model: duplicate names,
        // a flow-subset break and a non-relaying capsule DPort.
        let mut b = ModelBuilder::new("multi");
        b.capsule("dup");
        let c = b.capsule("dup");
        let s1 = b.streamer("s1", "rk4");
        let s2 = b.streamer("s2", "rk4");
        b.streamer_out(s1, "y", FlowType::with_unit(Unit::Meter));
        b.streamer_in(s2, "u", FlowType::with_unit(Unit::Kelvin));
        b.flow_between_streamers(s1, "y", s2, "u");
        b.capsule_dport(c, "d", FlowType::scalar());
        let m = b.build();
        let found = m.violations();
        let rules: Vec<&str> = found
            .iter()
            .map(|e| match e {
                CoreError::Validation { rule, .. } => *rule,
                other => panic!("unexpected {other}"),
            })
            .collect();
        assert_eq!(rules, vec!["unique-names", "flow-subset", "fig3-dport-relay"]);
        // validate() reports the first collected violation.
        assert!(matches!(
            m.validate().unwrap_err(),
            CoreError::Validation { rule: "unique-names", .. }
        ));
        // flow-subset detail names the endpoints and the failing field.
        let CoreError::Validation { detail, .. } = &found[1] else { unreachable!() };
        assert!(detail.contains("s1.dport:y"), "{detail}");
        assert!(detail.contains("unit"), "{detail}");
    }

    #[test]
    fn new_declarations_round_trip() {
        use urt_umlrt::protocol::{PayloadKind, Protocol};
        use urt_umlrt::statemachine::SmSpec;
        let mut b = ModelBuilder::new("decl");
        let c = b.capsule("ctl");
        let s = b.streamer("plant", "rk4");
        b.capsule_machine(c, SmSpec::new("ctl_sm").state("idle").initial("idle"));
        b.streamer_feedthrough(s, false);
        b.assign_thread(s, 2);
        b.declare_protocol(Protocol::new("Sense").with_in("sample", PayloadKind::Real));
        let m = b.build();
        assert_eq!(m.capsule_machine(c).unwrap().name, "ctl_sm");
        assert!(!m.streamer_feedthrough(s));
        assert_eq!(m.streamer_thread(s), 2);
        assert!(m.protocol("Sense").is_some());
        assert!(m.protocol("Nope").is_none());
        assert_eq!(m.iter_protocols().count(), 1);
        // Unknown refs take the conservative defaults.
        assert!(m.streamer_feedthrough(StreamerRef(9)));
        assert_eq!(m.streamer_thread(StreamerRef(9)), 0);
    }

    #[test]
    fn iteration_and_names() {
        let m = fig2_model();
        let streamers: Vec<_> = m.iter_streamers().collect();
        assert_eq!(streamers.len(), 4);
        assert_eq!(streamers[0].1, "top");
        assert_eq!(streamers[0].2, "rk4");
        assert_eq!(m.iter_capsules().count(), 0);
        assert_eq!(m.streamer_name(StreamerRef(0)), Some("top"));
        assert_eq!(m.capsule_name(CapsuleRef(0)), None);
    }
}
