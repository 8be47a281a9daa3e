//! Hierarchical state machines with run-to-completion dispatch.
//!
//! Capsule behaviour in UML-RT is a hierarchical state machine: states may
//! nest, transitions carry triggers (port + signal), guards and actions,
//! and each message is processed to completion before the next one is
//! dequeued. The paper keeps this machinery for the event-driven part of a
//! hybrid model and pairs it with solvers for the continuous part.

use crate::capsule::CapsuleContext;
use crate::error::RtError;
use crate::message::Message;
use std::fmt;

/// Transition action: mutates the capsule data, may send messages and set
/// timers through the context.
pub type Action<D> = Box<dyn FnMut(&mut D, &Message, &mut CapsuleContext) + Send>;
/// Entry/exit action: no triggering message is available.
pub type StateAction<D> = Box<dyn FnMut(&mut D, &mut CapsuleContext) + Send>;
/// Guard predicate: read-only on data and message.
pub type Guard<D> = Box<dyn Fn(&D, &Message) -> bool + Send>;

/// What fires a transition: a signal arriving on a port.
///
/// The port component may be `"*"` to match any port.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Trigger {
    port: String,
    signal: String,
}

impl Trigger {
    /// Creates a trigger for `signal` on `port` (`"*"` matches any port).
    pub fn new(port: impl Into<String>, signal: impl Into<String>) -> Self {
        Trigger { port: port.into(), signal: signal.into() }
    }

    /// Whether this trigger matches a message.
    pub fn matches(&self, msg: &Message) -> bool {
        (self.port == "*" || self.port == msg.port()) && self.signal == msg.signal()
    }

    /// The port component (`"*"` matches any port).
    pub fn port(&self) -> &str {
        &self.port
    }

    /// The signal component.
    pub fn signal(&self) -> &str {
        &self.signal
    }
}

impl From<(&str, &str)> for Trigger {
    fn from((port, signal): (&str, &str)) -> Self {
        Trigger::new(port, signal)
    }
}

/// Declarative shape of one state inside an [`SmSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmStateSpec {
    /// State name (unique within the machine).
    pub name: String,
    /// Enclosing composite state, if nested.
    pub parent: Option<String>,
    /// Which child a composite state enters by default.
    pub initial_child: Option<String>,
}

/// Declarative shape of one transition inside an [`SmSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmTransitionSpec {
    /// Source state name.
    pub source: String,
    /// Target state name; `None` marks an internal transition.
    pub target: Option<String>,
    /// Trigger port (`"*"` matches any port).
    pub port: String,
    /// Trigger signal.
    pub signal: String,
}

/// The declarative shape of a hierarchical state machine: states,
/// transitions and the initial state, without the guard/action closures.
///
/// This is what static analysis (the `urt_analysis` crate) lints —
/// reachability, trigger deliverability, missing initial state — and what
/// a `UnifiedModel` attaches to capsule declarations. Describe one with
/// the builder-style methods; `urt_core` builds the running machine of a
/// capsule that has no registered factory from its spec.
///
/// # Examples
///
/// ```
/// use urt_umlrt::statemachine::SmSpec;
///
/// let spec = SmSpec::new("thermostat")
///     .state("idle")
///     .state("heating")
///     .initial("idle")
///     .on("idle", ("ctl", "heat"), "heating")
///     .on("heating", ("ctl", "off"), "idle");
/// assert_eq!(spec.states.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SmSpec {
    /// Machine name.
    pub name: String,
    /// Declared states.
    pub states: Vec<SmStateSpec>,
    /// Initial state name, if set.
    pub initial: Option<String>,
    /// Declared transitions.
    pub transitions: Vec<SmTransitionSpec>,
}

impl SmSpec {
    /// Starts an empty spec called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        SmSpec { name: name.into(), ..SmSpec::default() }
    }

    /// Declares a top-level state.
    #[must_use]
    pub fn state(mut self, name: impl Into<String>) -> Self {
        self.states.push(SmStateSpec { name: name.into(), parent: None, initial_child: None });
        self
    }

    /// Declares a state nested inside `parent`.
    #[must_use]
    pub fn substate(mut self, name: impl Into<String>, parent: impl Into<String>) -> Self {
        self.states.push(SmStateSpec {
            name: name.into(),
            parent: Some(parent.into()),
            initial_child: None,
        });
        self
    }

    /// Sets the initial state.
    #[must_use]
    pub fn initial(mut self, name: impl Into<String>) -> Self {
        self.initial = Some(name.into());
        self
    }

    /// Marks which child a composite state enters by default.
    #[must_use]
    pub fn initial_child(mut self, parent: &str, child: impl Into<String>) -> Self {
        if let Some(s) = self.states.iter_mut().find(|s| s.name == parent) {
            s.initial_child = Some(child.into());
        }
        self
    }

    /// Adds an external transition triggered by `(port, signal)`.
    #[must_use]
    pub fn on(
        mut self,
        from: impl Into<String>,
        trigger: (&str, &str),
        to: impl Into<String>,
    ) -> Self {
        self.transitions.push(SmTransitionSpec {
            source: from.into(),
            target: Some(to.into()),
            port: trigger.0.to_owned(),
            signal: trigger.1.to_owned(),
        });
        self
    }

    /// Adds an internal transition (no state change).
    #[must_use]
    pub fn internal(mut self, state: impl Into<String>, trigger: (&str, &str)) -> Self {
        self.transitions.push(SmTransitionSpec {
            source: state.into(),
            target: None,
            port: trigger.0.to_owned(),
            signal: trigger.1.to_owned(),
        });
        self
    }

    /// Looks up a state spec by name.
    pub fn find_state(&self, name: &str) -> Option<&SmStateSpec> {
        self.states.iter().find(|s| s.name == name)
    }
}

struct StateDef<D> {
    name: String,
    parent: Option<usize>,
    entry: Option<StateAction<D>>,
    exit: Option<StateAction<D>>,
    initial_child: Option<usize>,
    /// Shallow history: re-entry resumes the last active direct child.
    history: bool,
    last_child: Option<usize>,
}

struct TransitionDef<D> {
    source: usize,
    trigger: Trigger,
    guard: Option<Guard<D>>,
    /// `None` marks an internal transition (no exit/entry).
    target: Option<usize>,
    action: Option<Action<D>>,
}

/// A runnable hierarchical state machine over capsule data `D`.
///
/// Build one with [`StateMachineBuilder`]; host it in a capsule with
/// [`SmCapsule`](crate::capsule::SmCapsule).
pub struct StateMachine<D> {
    name: String,
    states: Vec<StateDef<D>>,
    transitions: Vec<TransitionDef<D>>,
    initial: usize,
    initial_action: Option<StateAction<D>>,
    current: usize,
    started: bool,
    transition_count: u64,
}

impl<D> fmt::Debug for StateMachine<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StateMachine")
            .field("name", &self.name)
            .field("states", &self.states.iter().map(|s| &s.name).collect::<Vec<_>>())
            .field("current", &self.current_state())
            .field("started", &self.started)
            .finish_non_exhaustive()
    }
}

impl<D> StateMachine<D> {
    /// Machine name (also used as the default capsule name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Name of the current leaf state (the initial state before `start`).
    pub fn current_state(&self) -> &str {
        &self.states[self.current].name
    }

    /// Number of fired transitions (internal ones included).
    pub fn transition_count(&self) -> u64 {
        self.transition_count
    }

    /// Runs the initial transition and enters the initial state chain.
    pub fn start(&mut self, data: &mut D, ctx: &mut CapsuleContext) {
        if self.started {
            return;
        }
        self.started = true;
        if let Some(action) = self.initial_action.as_mut() {
            action(data, ctx);
        }
        // Enter from the root down to the initial state, then descend.
        self.enter_down_to(None, self.initial, data, ctx);
        self.current = self.descend_to_leaf(self.initial, data, ctx);
    }

    /// Dispatches one message with run-to-completion semantics.
    ///
    /// Returns `true` if some transition handled the message. Unhandled
    /// messages are dropped, as in UML-RT.
    ///
    /// # Panics
    ///
    /// Panics if called before [`StateMachine::start`].
    pub fn dispatch(&mut self, data: &mut D, msg: &Message, ctx: &mut CapsuleContext) -> bool {
        assert!(self.started, "dispatch before start");
        // Innermost-first search, walking the active state chain in place.
        let mut chosen: Option<usize> = None;
        let mut source = Some(self.current);
        'outer: while let Some(state) = source {
            for (ti, tr) in self.transitions.iter().enumerate() {
                if tr.source == state && tr.trigger.matches(msg) {
                    let pass = tr.guard.as_ref().is_none_or(|g| g(data, msg));
                    if pass {
                        chosen = Some(ti);
                        break 'outer;
                    }
                }
            }
            source = self.states[state].parent;
        }
        let Some(ti) = chosen else {
            return false;
        };
        self.transition_count += 1;
        let target = self.transitions[ti].target;
        match target {
            None => {
                // Internal transition: action only.
                if let Some(action) = self.transitions[ti].action.as_mut() {
                    action(data, msg, ctx);
                }
            }
            Some(target) => {
                let source = self.transitions[ti].source;
                let lca = self.lowest_common_ancestor(self.current, target, source);
                // Exit from the current leaf up to (excluding) the LCA,
                // recording shallow history on the way out.
                let mut i = Some(self.current);
                while let Some(s) = i {
                    if Some(s) == lca {
                        break;
                    }
                    if let Some(exit) = self.states[s].exit.as_mut() {
                        exit(data, ctx);
                    }
                    let parent = self.states[s].parent;
                    if let Some(p) = parent {
                        self.states[p].last_child = Some(s);
                    }
                    i = parent;
                    if i.is_none() && lca.is_none() {
                        break;
                    }
                }
                if let Some(action) = self.transitions[ti].action.as_mut() {
                    action(data, msg, ctx);
                }
                // Enter from below the LCA down to the target.
                self.enter_down_to(lca, target, data, ctx);
                self.current = self.descend_to_leaf(target, data, ctx);
            }
        }
        true
    }

    /// Runs the entry actions on the path from just below `above` (the
    /// root when `None`, or when `above` is not an ancestor of `state`)
    /// down to `state`, outermost first. Recursing up the parent chain
    /// keeps the walk allocation-free; the depth is the nesting depth.
    fn enter_down_to(
        &mut self,
        above: Option<usize>,
        state: usize,
        data: &mut D,
        ctx: &mut CapsuleContext,
    ) {
        if Some(state) == above {
            return;
        }
        if let Some(parent) = self.states[state].parent {
            self.enter_down_to(above, parent, data, ctx);
        }
        if let Some(entry) = self.states[state].entry.as_mut() {
            entry(data, ctx);
        }
    }

    fn descend_to_leaf(&mut self, state: usize, data: &mut D, ctx: &mut CapsuleContext) -> usize {
        let mut cur = state;
        loop {
            let st = &self.states[cur];
            let next =
                if st.history { st.last_child.or(st.initial_child) } else { st.initial_child };
            let Some(child) = next else { break };
            if let Some(entry) = self.states[child].entry.as_mut() {
                entry(data, ctx);
            }
            cur = child;
        }
        cur
    }

    /// Lowest common ancestor of the transition's declared source and its
    /// target, used as the exit/entry boundary. Self-transitions and
    /// transitions targeting an ancestor exit up to that state's parent so
    /// the state is properly re-entered.
    fn lowest_common_ancestor(
        &self,
        _current: usize,
        target: usize,
        source: usize,
    ) -> Option<usize> {
        if source == target {
            return self.states[source].parent;
        }
        // Walks both parent chains in place: the first of `source`'s
        // ancestors (itself included) that also encloses `target`.
        let encloses = |outer: usize, mut s: usize| loop {
            if s == outer {
                return true;
            }
            match self.states[s].parent {
                Some(p) => s = p,
                None => return false,
            }
        };
        let mut x = Some(source);
        while let Some(s) = x {
            if encloses(s, target) {
                return if s == target { self.states[s].parent } else { Some(s) };
            }
            x = self.states[s].parent;
        }
        None
    }
}

/// Builder for [`StateMachine`].
///
/// # Examples
///
/// ```
/// use urt_umlrt::statemachine::StateMachineBuilder;
/// use urt_umlrt::capsule::CapsuleContext;
///
/// # fn main() -> Result<(), urt_umlrt::RtError> {
/// let machine = StateMachineBuilder::new("door")
///     .state("closed")
///     .state("open")
///     .initial("closed", |_d: &mut (), _ctx: &mut CapsuleContext| {})
///     .on("closed", ("ctl", "open"), "open", |_d, _m, _ctx| {})
///     .on("open", ("ctl", "close"), "closed", |_d, _m, _ctx| {})
///     .build()?;
/// assert_eq!(machine.name(), "door");
/// # Ok(())
/// # }
/// ```
pub struct StateMachineBuilder<D> {
    name: String,
    states: Vec<StateDef<D>>,
    transitions: Vec<TransitionDef<D>>,
    initial: Option<usize>,
    initial_action: Option<StateAction<D>>,
    error: Option<RtError>,
}

impl<D> fmt::Debug for StateMachineBuilder<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StateMachineBuilder")
            .field("name", &self.name)
            .field("states", &self.states.iter().map(|s| &s.name).collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

impl<D> StateMachineBuilder<D> {
    /// Starts building a machine called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        StateMachineBuilder {
            name: name.into(),
            states: Vec::new(),
            transitions: Vec::new(),
            initial: None,
            initial_action: None,
            error: None,
        }
    }

    fn find(&mut self, name: &str) -> Option<usize> {
        let found = self.states.iter().position(|s| s.name == name);
        if found.is_none() && self.error.is_none() {
            self.error = Some(RtError::UnknownState { name: name.to_owned() });
        }
        found
    }

    /// Declares a top-level state.
    pub fn state(mut self, name: impl Into<String>) -> Self {
        let name = name.into();
        if self.states.iter().any(|s| s.name == name) {
            if self.error.is_none() {
                self.error = Some(RtError::DuplicateState { name });
            }
            return self;
        }
        self.states.push(StateDef {
            name,
            parent: None,
            entry: None,
            exit: None,
            initial_child: None,
            history: false,
            last_child: None,
        });
        self
    }

    /// Declares a state nested inside `parent`.
    pub fn substate(mut self, name: impl Into<String>, parent: &str) -> Self {
        let name = name.into();
        if self.states.iter().any(|s| s.name == name) {
            if self.error.is_none() {
                self.error = Some(RtError::DuplicateState { name });
            }
            return self;
        }
        let Some(p) = self.find(parent) else { return self };
        self.states.push(StateDef {
            name,
            parent: Some(p),
            entry: None,
            exit: None,
            initial_child: None,
            history: false,
            last_child: None,
        });
        self
    }

    /// Sets the entry action of a state.
    pub fn entry<F>(mut self, state: &str, action: F) -> Self
    where
        F: FnMut(&mut D, &mut CapsuleContext) + Send + 'static,
    {
        if let Some(i) = self.find(state) {
            self.states[i].entry = Some(Box::new(action));
        }
        self
    }

    /// Sets the exit action of a state.
    pub fn exit<F>(mut self, state: &str, action: F) -> Self
    where
        F: FnMut(&mut D, &mut CapsuleContext) + Send + 'static,
    {
        if let Some(i) = self.find(state) {
            self.states[i].exit = Some(Box::new(action));
        }
        self
    }

    /// Sets the initial state and the initial-transition action.
    pub fn initial<F>(mut self, state: &str, action: F) -> Self
    where
        F: FnMut(&mut D, &mut CapsuleContext) + Send + 'static,
    {
        if let Some(i) = self.find(state) {
            self.initial = Some(i);
            self.initial_action = Some(Box::new(action));
        }
        self
    }

    /// Marks a composite state as having *shallow history*: re-entering it
    /// resumes the most recently active direct child instead of the
    /// initial child.
    pub fn history(mut self, state: &str) -> Self {
        if let Some(i) = self.find(state) {
            self.states[i].history = true;
        }
        self
    }

    /// Marks which child a composite state enters by default.
    pub fn initial_child(mut self, parent: &str, child: &str) -> Self {
        let (Some(p), Some(c)) = (self.find(parent), self.find(child)) else {
            return self;
        };
        self.states[p].initial_child = Some(c);
        self
    }

    /// Adds an external transition.
    pub fn on<T, F>(mut self, from: &str, trigger: T, to: &str, action: F) -> Self
    where
        T: Into<Trigger>,
        F: FnMut(&mut D, &Message, &mut CapsuleContext) + Send + 'static,
    {
        let (Some(f), Some(t)) = (self.find(from), self.find(to)) else {
            return self;
        };
        self.transitions.push(TransitionDef {
            source: f,
            trigger: trigger.into(),
            guard: None,
            target: Some(t),
            action: Some(Box::new(action)),
        });
        self
    }

    /// Adds an external transition with a guard.
    pub fn on_guarded<T, G, F>(
        mut self,
        from: &str,
        trigger: T,
        to: &str,
        guard: G,
        action: F,
    ) -> Self
    where
        T: Into<Trigger>,
        G: Fn(&D, &Message) -> bool + Send + 'static,
        F: FnMut(&mut D, &Message, &mut CapsuleContext) + Send + 'static,
    {
        let (Some(f), Some(t)) = (self.find(from), self.find(to)) else {
            return self;
        };
        self.transitions.push(TransitionDef {
            source: f,
            trigger: trigger.into(),
            guard: Some(Box::new(guard)),
            target: Some(t),
            action: Some(Box::new(action)),
        });
        self
    }

    /// Adds an internal transition (no exit/entry, state unchanged).
    pub fn internal<T, F>(mut self, state: &str, trigger: T, action: F) -> Self
    where
        T: Into<Trigger>,
        F: FnMut(&mut D, &Message, &mut CapsuleContext) + Send + 'static,
    {
        let Some(s) = self.find(state) else { return self };
        self.transitions.push(TransitionDef {
            source: s,
            trigger: trigger.into(),
            guard: None,
            target: None,
            action: Some(Box::new(action)),
        });
        self
    }

    /// Finalises the machine.
    ///
    /// # Errors
    ///
    /// * Any deferred builder error (unknown/duplicate state names).
    /// * [`RtError::MissingInitial`] if no initial state was set.
    pub fn build(self) -> Result<StateMachine<D>, RtError> {
        if let Some(err) = self.error {
            return Err(err);
        }
        let initial = self.initial.ok_or(RtError::MissingInitial)?;
        Ok(StateMachine {
            name: self.name,
            states: self.states,
            transitions: self.transitions,
            initial,
            initial_action: self.initial_action,
            current: initial,
            started: false,
            transition_count: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capsule::CapsuleContext;
    use crate::value::Value;

    fn ctx() -> CapsuleContext {
        CapsuleContext::detached(0.0)
    }

    fn msg(port: &str, signal: &str) -> Message {
        Message::new(signal, Value::Empty).with_port(port)
    }

    #[derive(Default)]
    struct Log(Vec<&'static str>);

    #[test]
    fn trigger_matching() {
        let t = Trigger::new("p", "s");
        assert!(t.matches(&msg("p", "s")));
        assert!(!t.matches(&msg("q", "s")));
        assert!(!t.matches(&msg("p", "t")));
        assert!(Trigger::new("*", "s").matches(&msg("anything", "s")));
    }

    #[test]
    fn build_validates() {
        let err = StateMachineBuilder::<()>::new("m").state("a").build().unwrap_err();
        assert_eq!(err, RtError::MissingInitial);

        let err = StateMachineBuilder::<()>::new("m")
            .state("a")
            .state("a")
            .initial("a", |_, _| {})
            .build()
            .unwrap_err();
        assert_eq!(err, RtError::DuplicateState { name: "a".into() });

        let err = StateMachineBuilder::<()>::new("m")
            .state("a")
            .initial("missing", |_, _| {})
            .build()
            .unwrap_err();
        assert_eq!(err, RtError::UnknownState { name: "missing".into() });
    }

    #[test]
    fn simple_two_state_toggle() {
        let mut m = StateMachineBuilder::new("toggle")
            .state("off")
            .state("on")
            .initial("off", |_d: &mut u32, _| {})
            .on("off", ("p", "flip"), "on", |d, _, _| *d += 1)
            .on("on", ("p", "flip"), "off", |d, _, _| *d += 1)
            .build()
            .unwrap();
        let mut d = 0u32;
        let mut c = ctx();
        m.start(&mut d, &mut c);
        assert_eq!(m.current_state(), "off");
        assert!(m.dispatch(&mut d, &msg("p", "flip"), &mut c));
        assert_eq!(m.current_state(), "on");
        assert!(m.dispatch(&mut d, &msg("p", "flip"), &mut c));
        assert_eq!(m.current_state(), "off");
        assert_eq!(d, 2);
        assert_eq!(m.transition_count(), 2);
    }

    #[test]
    fn unhandled_message_is_dropped() {
        let mut m = StateMachineBuilder::new("m")
            .state("a")
            .initial("a", |_d: &mut (), _| {})
            .build()
            .unwrap();
        let mut d = ();
        let mut c = ctx();
        m.start(&mut d, &mut c);
        assert!(!m.dispatch(&mut d, &msg("p", "unknown"), &mut c));
    }

    #[test]
    fn guard_selects_transition() {
        let mut m = StateMachineBuilder::new("m")
            .state("a")
            .state("hot")
            .state("cold")
            .initial("a", |_d: &mut f64, _| {})
            .on_guarded("a", ("p", "temp"), "hot", |d, _| *d > 0.0, |_, _, _| {})
            .on_guarded("a", ("p", "temp"), "cold", |d, _| *d <= 0.0, |_, _, _| {})
            .build()
            .unwrap();
        let mut d = 5.0;
        let mut c = ctx();
        m.start(&mut d, &mut c);
        m.dispatch(&mut d, &msg("p", "temp"), &mut c);
        assert_eq!(m.current_state(), "hot");
    }

    #[test]
    fn entry_exit_order_flat() {
        let mut m = StateMachineBuilder::new("m")
            .state("a")
            .state("b")
            .entry("a", |d: &mut Log, _| d.0.push("enter-a"))
            .exit("a", |d: &mut Log, _| d.0.push("exit-a"))
            .entry("b", |d: &mut Log, _| d.0.push("enter-b"))
            .initial("a", |d: &mut Log, _| d.0.push("init"))
            .on("a", ("p", "go"), "b", |d, _, _| d.0.push("action"))
            .build()
            .unwrap();
        let mut d = Log::default();
        let mut c = ctx();
        m.start(&mut d, &mut c);
        m.dispatch(&mut d, &msg("p", "go"), &mut c);
        assert_eq!(d.0, vec!["init", "enter-a", "exit-a", "action", "enter-b"]);
    }

    #[test]
    fn internal_transition_skips_entry_exit() {
        let mut m = StateMachineBuilder::new("m")
            .state("a")
            .entry("a", |d: &mut Log, _| d.0.push("enter"))
            .exit("a", |d: &mut Log, _| d.0.push("exit"))
            .initial("a", |_, _| {})
            .internal("a", ("p", "tick"), |d, _, _| d.0.push("tick"))
            .build()
            .unwrap();
        let mut d = Log::default();
        let mut c = ctx();
        m.start(&mut d, &mut c);
        m.dispatch(&mut d, &msg("p", "tick"), &mut c);
        assert_eq!(d.0, vec!["enter", "tick"]);
        assert_eq!(m.current_state(), "a");
    }

    #[test]
    fn self_transition_exits_and_reenters() {
        let mut m = StateMachineBuilder::new("m")
            .state("a")
            .entry("a", |d: &mut Log, _| d.0.push("enter"))
            .exit("a", |d: &mut Log, _| d.0.push("exit"))
            .initial("a", |_, _| {})
            .on("a", ("p", "reset"), "a", |d, _, _| d.0.push("action"))
            .build()
            .unwrap();
        let mut d = Log::default();
        let mut c = ctx();
        m.start(&mut d, &mut c);
        m.dispatch(&mut d, &msg("p", "reset"), &mut c);
        assert_eq!(d.0, vec!["enter", "exit", "action", "enter"]);
    }

    #[test]
    fn hierarchy_inherits_parent_transitions() {
        let mut m = StateMachineBuilder::new("m")
            .state("running")
            .substate("fast", "running")
            .substate("slow", "running")
            .state("stopped")
            .initial_child("running", "slow")
            .initial("running", |_d: &mut Log, _| {})
            .on("running", ("p", "stop"), "stopped", |d, _, _| d.0.push("stop"))
            .on("slow", ("p", "faster"), "fast", |d, _, _| d.0.push("faster"))
            .build()
            .unwrap();
        let mut d = Log::default();
        let mut c = ctx();
        m.start(&mut d, &mut c);
        assert_eq!(m.current_state(), "slow");
        // Child-level transition first.
        m.dispatch(&mut d, &msg("p", "faster"), &mut c);
        assert_eq!(m.current_state(), "fast");
        // Parent transition fires from any child.
        m.dispatch(&mut d, &msg("p", "stop"), &mut c);
        assert_eq!(m.current_state(), "stopped");
    }

    #[test]
    fn hierarchy_entry_exit_ordering() {
        let mut m = StateMachineBuilder::new("m")
            .state("outer")
            .substate("inner", "outer")
            .state("other")
            .initial_child("outer", "inner")
            .entry("outer", |d: &mut Log, _| d.0.push("enter-outer"))
            .exit("outer", |d: &mut Log, _| d.0.push("exit-outer"))
            .entry("inner", |d: &mut Log, _| d.0.push("enter-inner"))
            .exit("inner", |d: &mut Log, _| d.0.push("exit-inner"))
            .entry("other", |d: &mut Log, _| d.0.push("enter-other"))
            .initial("outer", |_, _| {})
            .on("outer", ("p", "leave"), "other", |d, _, _| d.0.push("action"))
            .build()
            .unwrap();
        let mut d = Log::default();
        let mut c = ctx();
        m.start(&mut d, &mut c);
        assert_eq!(d.0, vec!["enter-outer", "enter-inner"]);
        d.0.clear();
        m.dispatch(&mut d, &msg("p", "leave"), &mut c);
        assert_eq!(d.0, vec!["exit-inner", "exit-outer", "action", "enter-other"]);
    }

    #[test]
    fn transition_between_siblings_keeps_parent_active() {
        let mut m = StateMachineBuilder::new("m")
            .state("parent")
            .substate("a", "parent")
            .substate("b", "parent")
            .initial_child("parent", "a")
            .entry("parent", |d: &mut Log, _| d.0.push("enter-parent"))
            .exit("parent", |d: &mut Log, _| d.0.push("exit-parent"))
            .initial("parent", |_, _| {})
            .on("a", ("p", "go"), "b", |_, _, _| {})
            .build()
            .unwrap();
        let mut d = Log::default();
        let mut c = ctx();
        m.start(&mut d, &mut c);
        d.0.clear();
        m.dispatch(&mut d, &msg("p", "go"), &mut c);
        // Parent must not be exited or re-entered for a sibling transition.
        assert!(d.0.is_empty(), "got {:?}", d.0);
        assert_eq!(m.current_state(), "b");
    }

    #[test]
    fn shallow_history_resumes_last_child() {
        let build = |with_history: bool| {
            let mut b = StateMachineBuilder::new("m")
                .state("work")
                .substate("phase1", "work")
                .substate("phase2", "work")
                .state("paused")
                .initial_child("work", "phase1")
                .initial("work", |_d: &mut (), _| {})
                .on("phase1", ("p", "next"), "phase2", |_, _, _| {})
                .on("work", ("p", "pause"), "paused", |_, _, _| {})
                .on("paused", ("p", "resume"), "work", |_, _, _| {});
            if with_history {
                b = b.history("work");
            }
            b.build().unwrap()
        };

        // With history: resume lands back in phase2.
        let mut m = build(true);
        let mut d = ();
        let mut c = ctx();
        m.start(&mut d, &mut c);
        m.dispatch(&mut d, &msg("p", "next"), &mut c);
        assert_eq!(m.current_state(), "phase2");
        m.dispatch(&mut d, &msg("p", "pause"), &mut c);
        assert_eq!(m.current_state(), "paused");
        m.dispatch(&mut d, &msg("p", "resume"), &mut c);
        assert_eq!(m.current_state(), "phase2", "history resumes phase2");

        // Without history: resume restarts at the initial child.
        let mut m = build(false);
        let mut c = ctx();
        m.start(&mut d, &mut c);
        m.dispatch(&mut d, &msg("p", "next"), &mut c);
        m.dispatch(&mut d, &msg("p", "pause"), &mut c);
        m.dispatch(&mut d, &msg("p", "resume"), &mut c);
        assert_eq!(m.current_state(), "phase1", "no history restarts phase1");
    }

    #[test]
    fn trigger_accessors() {
        let t = Trigger::new("p", "s");
        assert_eq!(t.port(), "p");
        assert_eq!(t.signal(), "s");
    }

    #[test]
    fn wildcard_port_trigger() {
        let mut m = StateMachineBuilder::new("m")
            .state("a")
            .state("b")
            .initial("a", |_d: &mut (), _| {})
            .on("a", ("*", "go"), "b", |_, _, _| {})
            .build()
            .unwrap();
        let mut d = ();
        let mut c = ctx();
        m.start(&mut d, &mut c);
        m.dispatch(&mut d, &msg("whatever", "go"), &mut c);
        assert_eq!(m.current_state(), "b");
    }
}
