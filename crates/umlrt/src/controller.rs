//! The controller: a single-threaded run-to-completion message loop.
//!
//! A UML-RT *controller* owns a set of capsule instances and a message
//! queue; each physical thread runs one controller. The paper's unified
//! engine (in `urt-core`) puts capsules on controller threads and streamers
//! on solver threads — this type is the capsule side. Messages leave the
//! controller through *external outboxes* ([`Controller::connect_external`])
//! that its owner drains.
//!
//! The steady-state message path allocates nothing: port tables are
//! per-capsule vectors searched by borrowed name, every run-to-completion
//! step records into one reused [`CapsuleContext`], the queue's priority
//! bands are ring buffers, and messages carry short names inline.

use crate::capsule::{Capsule, CapsuleContext};
use crate::error::RtError;
use crate::message::{Message, MessageQueue};
use crate::timing::TimerService;
use std::fmt;

/// Where messages sent out of one capsule port go.
#[derive(Debug, Clone)]
enum Endpoint {
    /// Another capsule in this controller, arriving on `port`.
    Capsule { index: usize, port: String },
    /// Out of the controller, e.g. to a streamer SPort or the environment:
    /// the index of an external outbox.
    External(usize),
}

/// One capsule's wiring: `(port, endpoint)`, where sends out of `port`
/// go. A capsule has a handful of ports, so a scan by borrowed name
/// beats hashing and builds no key.
#[derive(Debug, Default)]
struct PortTable {
    routes: Vec<(String, Endpoint)>,
}

impl PortTable {
    fn route(&self, port: &str) -> Option<&Endpoint> {
        self.routes.iter().find(|(p, _)| p == port).map(|(_, e)| e)
    }

    fn set_route(&mut self, port: &str, endpoint: Endpoint) {
        match self.routes.iter_mut().find(|(p, _)| p == port) {
            Some(slot) => slot.1 = endpoint,
            None => self.routes.push((port.to_owned(), endpoint)),
        }
    }
}

/// A single-threaded UML-RT controller.
///
/// See the crate-level example for end-to-end usage.
pub struct Controller {
    name: String,
    capsules: Vec<Box<dyn Capsule>>,
    /// `tables[i]`: capsule `i`'s routes.
    tables: Vec<PortTable>,
    /// External outboxes, by the index [`Controller::connect_external`]
    /// returned: messages sent out of the controller, in send order,
    /// until the owner drains them.
    outboxes: Vec<Vec<Message>>,
    queue: MessageQueue,
    timers: TimerService,
    /// The context every run-to-completion step records into; drained
    /// by [`Controller::apply_effects`] after each step. It also carries
    /// the controller's timer-id counter.
    ctx: CapsuleContext,
    clock: f64,
    started: bool,
    dropped: u64,
    delivered: u64,
}

impl fmt::Debug for Controller {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Controller")
            .field("name", &self.name)
            .field("capsules", &self.capsules.len())
            .field("clock", &self.clock)
            .field("queued", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl Controller {
    /// Creates an empty controller.
    pub fn new(name: impl Into<String>) -> Self {
        Controller {
            name: name.into(),
            capsules: Vec::new(),
            tables: Vec::new(),
            outboxes: Vec::new(),
            queue: MessageQueue::new(),
            timers: TimerService::new(),
            ctx: CapsuleContext::new("", 0.0, 0),
            clock: 0.0,
            started: false,
            dropped: 0,
            delivered: 0,
        }
    }

    /// Controller name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a capsule, returning its index for wiring.
    pub fn add_capsule(&mut self, capsule: Box<dyn Capsule>) -> usize {
        self.capsules.push(capsule);
        self.tables.push(PortTable::default());
        self.capsules.len() - 1
    }

    /// Number of hosted capsules.
    pub fn capsule_count(&self) -> usize {
        self.capsules.len()
    }

    /// Name of the capsule at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`RtError::UnknownCapsule`] for an out-of-range index.
    pub fn capsule_name(&self, index: usize) -> Result<&str, RtError> {
        self.capsules.get(index).map(|c| c.name()).ok_or(RtError::UnknownCapsule { index })
    }

    /// Current state of the capsule at `index` (for tests).
    ///
    /// # Errors
    ///
    /// Returns [`RtError::UnknownCapsule`] for an out-of-range index.
    pub fn capsule_state(&self, index: usize) -> Result<&str, RtError> {
        self.capsules.get(index).map(|c| c.current_state()).ok_or(RtError::UnknownCapsule { index })
    }

    /// Wires two capsule ports together, bidirectionally.
    ///
    /// # Errors
    ///
    /// Returns [`RtError::UnknownCapsule`] for bad indices.
    pub fn connect(&mut self, a: (usize, &str), b: (usize, &str)) -> Result<(), RtError> {
        for (idx, _) in [a, b] {
            if idx >= self.capsules.len() {
                return Err(RtError::UnknownCapsule { index: idx });
            }
        }
        self.tables[a.0].set_route(a.1, Endpoint::Capsule { index: b.0, port: b.1.to_owned() });
        self.tables[b.0].set_route(b.1, Endpoint::Capsule { index: a.0, port: a.1.to_owned() });
        Ok(())
    }

    /// Routes messages sent on `(capsule, port)` out of the controller,
    /// e.g. to a streamer thread or a test harness, and returns the index
    /// of the external outbox they collect in (see
    /// [`Controller::external_outbox`]).
    ///
    /// # Errors
    ///
    /// Returns [`RtError::UnknownCapsule`] for a bad index.
    pub fn connect_external(&mut self, capsule: usize, port: &str) -> Result<usize, RtError> {
        let Some(table) = self.tables.get_mut(capsule) else {
            return Err(RtError::UnknownCapsule { index: capsule });
        };
        let endpoint = self.outboxes.len();
        table.set_route(port, Endpoint::External(endpoint));
        self.outboxes.push(Vec::new());
        Ok(endpoint)
    }

    /// The messages sent out of external outbox `endpoint` and not yet
    /// drained, in send order, each addressed to the port it was sent
    /// out of. The owner drains them (or swaps in an empty buffer, which
    /// keeps both buffers' capacity); an undrained outbox keeps growing.
    ///
    /// # Panics
    ///
    /// Panics if `endpoint` was not returned by
    /// [`Controller::connect_external`].
    pub fn external_outbox(&mut self, endpoint: usize) -> &mut Vec<Message> {
        &mut self.outboxes[endpoint]
    }

    /// Injects a message from outside (environment, streamer thread, test).
    ///
    /// # Errors
    ///
    /// Returns [`RtError::UnknownCapsule`] for a bad index.
    pub fn inject(&mut self, capsule: usize, port: &str, message: Message) -> Result<(), RtError> {
        if capsule >= self.capsules.len() {
            return Err(RtError::UnknownCapsule { index: capsule });
        }
        self.queue.push(capsule, message.with_port(port));
        Ok(())
    }

    /// Starts every capsule (runs initial transitions).
    ///
    /// # Errors
    ///
    /// Returns [`RtError::BadLifecycle`] if already started.
    pub fn start(&mut self) -> Result<(), RtError> {
        if self.started {
            return Err(RtError::BadLifecycle { detail: "controller already started".into() });
        }
        self.started = true;
        for i in 0..self.capsules.len() {
            self.start_capsule(i);
        }
        Ok(())
    }

    /// Whether [`Controller::start`] has run.
    pub fn is_started(&self) -> bool {
        self.started
    }

    /// Current virtual time, seconds.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Messages dropped on unconnected ports so far.
    pub fn dropped_count(&self) -> u64 {
        self.dropped
    }

    /// Processes one queued message (one run-to-completion step).
    ///
    /// Returns `false` when the queue is empty.
    ///
    /// # Errors
    ///
    /// Returns [`RtError::BadLifecycle`] if the controller was not started.
    pub fn step(&mut self) -> Result<bool, RtError> {
        if !self.started {
            return Err(RtError::BadLifecycle { detail: "step before start".into() });
        }
        let Some(queued) = self.queue.pop() else {
            return Ok(false);
        };
        let idx = queued.capsule;
        let msg = queued.message;
        let capsule = &mut self.capsules[idx];
        self.ctx.rebind(capsule.name(), self.clock);
        capsule.on_message(&msg, &mut self.ctx);
        self.delivered += 1;
        self.apply_effects(idx);
        Ok(true)
    }

    /// Processes messages until the queue drains; returns how many ran.
    ///
    /// # Errors
    ///
    /// Returns [`RtError::BadLifecycle`] if the controller was not started.
    pub fn run_until_quiescent(&mut self) -> Result<usize, RtError> {
        let mut n = 0;
        while self.step()? {
            n += 1;
        }
        Ok(n)
    }

    /// Advances virtual time to `t`, firing due timers and processing all
    /// resulting messages (event-driven simulation).
    ///
    /// # Errors
    ///
    /// Returns [`RtError::BadLifecycle`] if the controller was not started.
    pub fn run_until(&mut self, t_end: f64) -> Result<usize, RtError> {
        // Idle: nothing queued and no timer due by `t_end`, so the loop
        // below would only move the clock.
        if self.started
            && self.queue.is_empty()
            && self.timers.next_due().is_none_or(|due| due > t_end)
        {
            self.clock = self.clock.max(t_end);
            return Ok(0);
        }
        let mut n = self.run_until_quiescent()?;
        while let Some(due) = self.timers.next_due() {
            if due > t_end {
                break;
            }
            self.clock = due.max(self.clock);
            let queue = &mut self.queue;
            self.timers.fire_due(self.clock, |fired| queue.push(fired.capsule, fired.message));
            n += self.run_until_quiescent()?;
        }
        self.clock = self.clock.max(t_end);
        Ok(n)
    }

    /// Runs the initial transition of the capsule at `index`.
    fn start_capsule(&mut self, index: usize) {
        let capsule = &mut self.capsules[index];
        self.ctx.rebind(capsule.name(), self.clock);
        capsule.on_start(&mut self.ctx);
        self.apply_effects(index);
    }

    /// Applies and drains the effects the last run-to-completion step of
    /// capsule `sender` recorded in the shared context.
    fn apply_effects(&mut self, sender: usize) {
        // Sets before cancels: a timer armed and cancelled within one
        // run-to-completion step is pending when its cancel arrives, so
        // it never fires.
        for req in self.ctx.timer_sets.drain(..) {
            self.timers.schedule(sender, req.id, self.clock, req.delay, req.period, &req.signal);
        }
        for id in self.ctx.timer_cancels.drain(..) {
            self.timers.cancel(id);
        }
        // Routing needs `&mut self`: borrow the outbox out and hand it
        // back drained, keeping its capacity.
        let mut outbox = std::mem::take(&mut self.ctx.outbox);
        for message in outbox.drain(..) {
            self.route(sender, message);
        }
        self.ctx.outbox = outbox;
    }

    /// Routes one message capsule `sender` sent; its port is the port it
    /// was sent out of.
    fn route(&mut self, sender: usize, message: Message) {
        match self.tables[sender].route(message.port()) {
            Some(Endpoint::Capsule { index, port }) => {
                self.queue.push(*index, message.with_port(port));
            }
            Some(Endpoint::External(endpoint)) => self.outboxes[*endpoint].push(message),
            None => self.dropped += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capsule::SmCapsule;
    use crate::statemachine::StateMachineBuilder;
    use crate::timing::TIMER_PORT;
    use crate::value::Value;

    fn counter_capsule(name: &str) -> Box<dyn Capsule> {
        let m = StateMachineBuilder::new(name)
            .state("s")
            .initial("s", |_d: &mut u64, _| {})
            .internal("s", ("*", "inc"), |d, _, _| *d += 1)
            .build()
            .unwrap();
        Box::new(SmCapsule::new(m, 0u64))
    }

    #[test]
    fn lifecycle_errors() {
        let mut c = Controller::new("c");
        assert!(matches!(c.step(), Err(RtError::BadLifecycle { .. })));
        c.start().unwrap();
        assert!(matches!(c.start(), Err(RtError::BadLifecycle { .. })));
        assert!(c.is_started());
    }

    #[test]
    fn inject_and_step() {
        let mut c = Controller::new("c");
        let i = c.add_capsule(counter_capsule("k"));
        c.start().unwrap();
        c.inject(i, "p", Message::new("inc", Value::Empty)).unwrap();
        assert!(c.step().unwrap());
        assert!(!c.step().unwrap());
        assert_eq!(c.delivered_count(), 1);
    }

    #[test]
    fn unknown_capsule_errors() {
        let mut c = Controller::new("c");
        assert!(matches!(
            c.inject(0, "p", Message::new("x", Value::Empty)),
            Err(RtError::UnknownCapsule { .. })
        ));
        assert!(matches!(c.capsule_name(3), Err(RtError::UnknownCapsule { index: 3 })));
        assert!(matches!(c.connect((0, "a"), (1, "b")), Err(RtError::UnknownCapsule { .. })));
    }

    #[test]
    fn ping_pong_round_trip() {
        let ping = StateMachineBuilder::new("ping")
            .state("s")
            .initial("s", |_d: &mut u32, ctx: &mut CapsuleContext| {
                ctx.send("out", "ping", Value::Empty);
            })
            .internal("s", ("out", "pong"), |d, _, ctx| {
                *d += 1;
                if *d < 5 {
                    ctx.send("out", "ping", Value::Empty);
                }
            })
            .build()
            .unwrap();
        let pong = StateMachineBuilder::new("pong")
            .state("s")
            .initial("s", |_d: &mut (), _| {})
            .internal("s", ("in", "ping"), |_, _, ctx| {
                ctx.send("in", "pong", Value::Empty);
            })
            .build()
            .unwrap();
        let mut c = Controller::new("main");
        let a = c.add_capsule(Box::new(SmCapsule::new(ping, 0u32)));
        let b = c.add_capsule(Box::new(SmCapsule::new(pong, ())));
        c.connect((a, "out"), (b, "in")).unwrap();
        c.start().unwrap();
        let n = c.run_until_quiescent().unwrap();
        // 5 pings + 5 pongs.
        assert_eq!(n, 10);
    }

    #[test]
    fn unconnected_port_drops() {
        let m = StateMachineBuilder::new("m")
            .state("s")
            .initial("s", |_d: &mut (), ctx: &mut CapsuleContext| {
                ctx.send("nowhere", "x", Value::Empty);
            })
            .build()
            .unwrap();
        let mut c = Controller::new("c");
        c.add_capsule(Box::new(SmCapsule::new(m, ())));
        c.start().unwrap();
        assert_eq!(c.dropped_count(), 1);
        assert_eq!(c.delivered_count(), 0, "the dropped send reached no capsule");
        c.run_until(1.0).unwrap();
        assert_eq!(c.dropped_count(), 1, "a drop is counted once, when the send is routed");
    }

    #[test]
    fn external_endpoint_receives() {
        let m = StateMachineBuilder::new("m")
            .state("s")
            .initial("s", |_d: &mut (), ctx: &mut CapsuleContext| {
                ctx.send("ext", "hello", Value::Real(1.0));
                ctx.send("ext", "again", Value::Real(2.0));
            })
            .build()
            .unwrap();
        let mut c = Controller::new("c");
        let i = c.add_capsule(Box::new(SmCapsule::new(m, ())));
        let first = c.connect_external(i, "ext").unwrap();
        let second = c.connect_external(i, "other").unwrap();
        assert_ne!(first, second, "each wiring gets its own outbox");
        c.start().unwrap();
        let got: Vec<Message> = c.external_outbox(first).drain(..).collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].signal(), "hello");
        assert_eq!(got[0].port(), "ext");
        assert_eq!(got[1].value(), &Value::Real(2.0));
        assert!(c.external_outbox(first).is_empty(), "drained");
        assert!(c.external_outbox(second).is_empty());
        assert_eq!(c.dropped_count(), 0);
        assert!(matches!(c.connect_external(9, "ext"), Err(RtError::UnknownCapsule { index: 9 })));
    }

    #[test]
    fn timers_fire_in_virtual_time() {
        let m = StateMachineBuilder::new("t")
            .state("s")
            .initial("s", |_d: &mut u32, ctx: &mut CapsuleContext| {
                ctx.inform_in(0.5, "deadline");
            })
            .internal("s", (TIMER_PORT, "deadline"), |d, _, _| *d += 1)
            .build()
            .unwrap();
        let mut c = Controller::new("c");
        c.add_capsule(Box::new(SmCapsule::new(m, 0u32)));
        c.start().unwrap();
        let n = c.run_until(1.0).unwrap();
        assert_eq!(n, 1);
        assert!((c.now() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn timer_armed_and_cancelled_in_one_step_never_fires() {
        let m = StateMachineBuilder::new("t")
            .state("s")
            .initial("s", |_d: &mut u32, ctx: &mut CapsuleContext| {
                let id = ctx.inform_in(0.5, "deadline");
                ctx.cancel_timer(id);
            })
            .internal("s", (TIMER_PORT, "deadline"), |d, _, _| *d += 1)
            .build()
            .unwrap();
        let mut c = Controller::new("c");
        c.add_capsule(Box::new(SmCapsule::new(m, 0u32)));
        c.start().unwrap();
        assert_eq!(c.run_until(1.0).unwrap(), 0, "the cancelled timer stayed silent");
    }

    #[test]
    fn periodic_timer_fires_repeatedly() {
        let m = StateMachineBuilder::new("t")
            .state("s")
            .initial("s", |_d: &mut u32, ctx: &mut CapsuleContext| {
                ctx.inform_every(0.1, "tick");
            })
            .internal("s", (TIMER_PORT, "tick"), |d, _, _| *d += 1)
            .build()
            .unwrap();
        let mut c = Controller::new("c");
        c.add_capsule(Box::new(SmCapsule::new(m, 0u32)));
        c.start().unwrap();
        let n = c.run_until(1.05).unwrap();
        assert_eq!(n, 10, "ticks at 0.1 .. 1.0");
    }

    #[test]
    fn idle_run_until_only_advances_the_clock() {
        let mut c = Controller::new("idle");
        c.start().unwrap();
        assert_eq!(c.run_until(0.5).unwrap(), 0);
        assert_eq!(c.now(), 0.5);
        // The clock never runs backwards.
        assert_eq!(c.run_until(0.25).unwrap(), 0);
        assert_eq!(c.now(), 0.5);
        assert_eq!(c.delivered_count(), 0);
    }

    #[test]
    fn unstarted_run_until_is_still_a_lifecycle_error() {
        let mut c = Controller::new("c");
        assert!(matches!(c.run_until(1.0), Err(RtError::BadLifecycle { .. })));
        c.add_capsule(counter_capsule("a"));
        assert!(matches!(c.run_until(1.0), Err(RtError::BadLifecycle { .. })));
        assert_eq!(c.now(), 0.0, "a refused call leaves the clock alone");
    }

    #[test]
    fn pending_timer_fires_once_the_idle_clock_reaches_it() {
        let m = StateMachineBuilder::new("t")
            .state("s")
            .initial("s", |_d: &mut u32, ctx: &mut CapsuleContext| {
                ctx.inform_in(0.5, "deadline");
            })
            .internal("s", (TIMER_PORT, "deadline"), |d, _, _| *d += 1)
            .build()
            .unwrap();
        let mut c = Controller::new("c");
        c.add_capsule(Box::new(SmCapsule::new(m, 0u32)));
        c.start().unwrap();
        assert_eq!(c.run_until(0.25).unwrap(), 0, "not due yet");
        assert_eq!(c.now(), 0.25);
        assert_eq!(c.run_until(0.75).unwrap(), 1, "the pending timer fired");
        assert_eq!(c.now(), 0.75);
        assert_eq!(c.run_until(1.0).unwrap(), 0);
    }
}
