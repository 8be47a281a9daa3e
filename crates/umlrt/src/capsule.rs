//! Capsules: active objects whose behaviour is a state machine.

use crate::message::{Message, Priority};
use crate::statemachine::StateMachine;
use crate::value::Value;
use std::fmt;

/// Identifier of a timer allocated through [`CapsuleContext`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u64);

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// A timer request recorded by a capsule action, applied by the controller
/// after the run-to-completion step.
#[derive(Debug, Clone, PartialEq)]
pub struct TimerRequest {
    /// Allocated timer id.
    pub id: TimerId,
    /// Delay from now, in seconds.
    pub delay: f64,
    /// Re-arm period for periodic timers.
    pub period: Option<f64>,
    /// Signal delivered when the timer fires (on the reserved `timer` port).
    pub signal: String,
}

/// The service context handed to capsule actions.
///
/// Actions never touch the controller directly; they record effects (sends,
/// timer arms/cancels) which the controller applies *after* the
/// run-to-completion step finishes — this is what makes RTC atomic.
///
/// # Examples
///
/// ```
/// use urt_umlrt::capsule::CapsuleContext;
/// use urt_umlrt::value::Value;
///
/// let mut ctx = CapsuleContext::detached(1.5);
/// assert_eq!(ctx.now(), 1.5);
/// ctx.send("out", "ping", Value::Empty); // routed by the controller after the step
/// ```
#[derive(Debug)]
pub struct CapsuleContext {
    now: f64,
    capsule: String,
    /// Recorded sends in send order, each addressed to the port it was
    /// sent out of.
    pub(crate) outbox: Vec<Message>,
    pub(crate) timer_sets: Vec<TimerRequest>,
    pub(crate) timer_cancels: Vec<TimerId>,
    next_timer_id: u64,
}

impl CapsuleContext {
    /// Creates a context bound to a capsule name; used by controllers.
    pub fn new(capsule: impl Into<String>, now: f64, next_timer_id: u64) -> Self {
        CapsuleContext {
            now,
            capsule: capsule.into(),
            outbox: Vec::new(),
            timer_sets: Vec::new(),
            timer_cancels: Vec::new(),
            next_timer_id,
        }
    }

    /// Rebinds a drained context to the capsule about to run, keeping
    /// its buffers (and the timer-id counter) so a controller reuses one
    /// context for every run-to-completion step.
    pub(crate) fn rebind(&mut self, capsule: &str, now: f64) {
        debug_assert!(self.outbox.is_empty() && self.timer_sets.is_empty());
        debug_assert!(self.timer_cancels.is_empty());
        self.now = now;
        self.capsule.clear();
        self.capsule.push_str(capsule);
    }

    /// Creates a free-standing context for unit tests.
    pub fn detached(now: f64) -> CapsuleContext {
        CapsuleContext::new("", now, 0)
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Name of the capsule this context belongs to.
    pub fn capsule(&self) -> &str {
        &self.capsule
    }

    /// Sends `signal` with `value` out of `port` at [`Priority::General`].
    pub fn send(&mut self, port: &str, signal: &str, value: Value) {
        self.send_with_priority(port, signal, value, Priority::General);
    }

    /// Sends with an explicit priority band.
    pub fn send_with_priority(
        &mut self,
        port: &str,
        signal: &str,
        value: Value,
        priority: Priority,
    ) {
        let msg = Message::new(signal, value)
            .with_priority(priority)
            .with_sent_at(self.now)
            .with_port(port);
        self.outbox.push(msg);
    }

    /// Arms a one-shot timer; the `signal` arrives on the reserved `timer`
    /// port after `delay` seconds (subject to the service's tick
    /// quantisation).
    pub fn inform_in(&mut self, delay: f64, signal: &str) -> TimerId {
        let id = TimerId(self.next_timer_id);
        self.next_timer_id += 1;
        self.timer_sets.push(TimerRequest { id, delay, period: None, signal: signal.to_owned() });
        id
    }

    /// Arms a periodic timer with the given period in seconds.
    pub fn inform_every(&mut self, period: f64, signal: &str) -> TimerId {
        let id = TimerId(self.next_timer_id);
        self.next_timer_id += 1;
        self.timer_sets.push(TimerRequest {
            id,
            delay: period,
            period: Some(period),
            signal: signal.to_owned(),
        });
        id
    }

    /// Cancels a previously armed timer.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.timer_cancels.push(id);
    }
}

/// A capsule: the unit of event-driven behaviour a controller schedules.
///
/// Most capsules are [`SmCapsule`]s built around a [`StateMachine`], but
/// hand-written behaviours (and the baselines in `urt-baselines`) implement
/// this trait directly.
pub trait Capsule: Send {
    /// The capsule instance name (unique within a controller).
    fn name(&self) -> &str;

    /// Called once when the controller starts.
    fn on_start(&mut self, ctx: &mut CapsuleContext);

    /// Handles one message, run-to-completion.
    fn on_message(&mut self, msg: &Message, ctx: &mut CapsuleContext);

    /// Name of the current state, for traces and tests.
    fn current_state(&self) -> &str {
        "-"
    }
}

/// A capsule whose behaviour is a [`StateMachine`] over data `D`.
///
/// # Examples
///
/// ```
/// use urt_umlrt::capsule::{CapsuleContext, SmCapsule};
/// use urt_umlrt::statemachine::StateMachineBuilder;
///
/// # fn main() -> Result<(), urt_umlrt::RtError> {
/// let machine = StateMachineBuilder::new("counter")
///     .state("idle")
///     .initial("idle", |_d: &mut u32, _ctx: &mut CapsuleContext| {})
///     .internal("idle", ("in", "inc"), |d, _m, _ctx| *d += 1)
///     .build()?;
/// let capsule = SmCapsule::new(machine, 0u32);
/// assert_eq!(capsule.data(), &0);
/// # Ok(())
/// # }
/// ```
pub struct SmCapsule<D> {
    machine: StateMachine<D>,
    data: D,
}

impl<D> fmt::Debug for SmCapsule<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SmCapsule").field("machine", &self.machine).finish_non_exhaustive()
    }
}

impl<D> SmCapsule<D> {
    /// Wraps a state machine and its extended-state data.
    pub fn new(machine: StateMachine<D>, data: D) -> Self {
        SmCapsule { machine, data }
    }

    /// Borrows the capsule's extended state.
    pub fn data(&self) -> &D {
        &self.data
    }

    /// Mutably borrows the capsule's extended state.
    pub fn data_mut(&mut self) -> &mut D {
        &mut self.data
    }

    /// Borrows the underlying machine.
    pub fn machine(&self) -> &StateMachine<D> {
        &self.machine
    }
}

impl<D: Send> Capsule for SmCapsule<D> {
    fn name(&self) -> &str {
        self.machine.name()
    }

    fn on_start(&mut self, ctx: &mut CapsuleContext) {
        self.machine.start(&mut self.data, ctx);
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut CapsuleContext) {
        self.machine.dispatch(&mut self.data, msg, ctx);
    }

    fn current_state(&self) -> &str {
        self.machine.current_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statemachine::StateMachineBuilder;

    #[test]
    fn context_records_sends_in_order() {
        let mut ctx = CapsuleContext::detached(2.0);
        ctx.send("a", "one", Value::Empty);
        ctx.send_with_priority("b", "two", Value::Int(5), Priority::Panic);
        let out = std::mem::take(&mut ctx.outbox);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].port(), "a");
        assert_eq!(out[0].signal(), "one");
        assert_eq!(out[0].sent_at(), 2.0);
        assert_eq!(out[1].port(), "b");
        assert_eq!(out[1].priority(), Priority::Panic);
    }

    #[test]
    fn context_allocates_distinct_timer_ids() {
        let mut ctx = CapsuleContext::detached(0.0);
        let a = ctx.inform_in(1.0, "t1");
        let b = ctx.inform_every(0.5, "t2");
        assert_ne!(a, b);
        let sets = &ctx.timer_sets;
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].period, None);
        assert_eq!(sets[1].period, Some(0.5));
        ctx.cancel_timer(a);
        assert_eq!(ctx.timer_cancels, vec![a]);
        assert_eq!(ctx.next_timer_id, 2);
    }

    #[test]
    fn sm_capsule_delegates_to_machine() {
        let machine = StateMachineBuilder::new("c")
            .state("s")
            .initial("s", |d: &mut u32, _| *d = 10)
            .internal("s", ("p", "inc"), |d, _, _| *d += 1)
            .build()
            .unwrap();
        let mut cap = SmCapsule::new(machine, 0u32);
        let mut ctx = CapsuleContext::detached(0.0);
        cap.on_start(&mut ctx);
        assert_eq!(cap.data(), &10);
        assert_eq!(cap.name(), "c");
        assert_eq!(cap.current_state(), "s");
        let msg = Message::new("inc", Value::Empty).with_port("p");
        cap.on_message(&msg, &mut ctx);
        assert_eq!(cap.data(), &11);
        *cap.data_mut() = 0;
        assert_eq!(cap.data(), &0);
    }

    #[test]
    fn capsule_trait_is_object_safe_and_send() {
        fn assert_send<T: Send>(_t: &T) {}
        let machine = StateMachineBuilder::new("c")
            .state("s")
            .initial("s", |_d: &mut (), _| {})
            .build()
            .unwrap();
        let boxed: Box<dyn Capsule> = Box::new(SmCapsule::new(machine, ()));
        assert_send(&boxed);
        assert_eq!(boxed.name(), "c");
    }
}
