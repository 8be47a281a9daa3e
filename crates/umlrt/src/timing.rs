//! The UML-RT timer service.
//!
//! The paper remarks that "timing in UML-RT is unpredictable": timeouts are
//! delivered as ordinary messages, quantised to the service's tick and
//! subject to queueing. This implementation makes that quantisation
//! explicit — a non-zero `tick` rounds every due time *up* to the next tick
//! boundary — so experiment E5 can measure the resulting drift against the
//! paper's continuous `Time` stereotype.

use crate::capsule::TimerId;
use crate::message::{Message, Priority};
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The reserved port on which timer messages are delivered.
pub const TIMER_PORT: &str = "timer";

#[derive(Debug, Clone)]
struct TimerEntry {
    due: f64,
    seq: u64,
    id: TimerId,
    capsule: usize,
    /// The timeout message every firing delivers, stamped with its due
    /// time; its inline signal name makes a firing allocation-free.
    message: Message,
    period: Option<f64>,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for TimerEntry {}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap: earliest due first, FIFO for ties (BinaryHeap is a
        // max-heap, so reverse).
        other
            .due
            .partial_cmp(&self.due)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A fired timer, ready to be enqueued as a message.
#[derive(Debug, Clone, PartialEq)]
pub struct FiredTimer {
    /// Destination capsule index.
    pub capsule: usize,
    /// The timeout message (signal on [`TIMER_PORT`], id payload).
    pub message: Message,
    /// The timer id that fired.
    pub id: TimerId,
}

/// Priority-ordered pending timers with tick quantisation.
///
/// # Examples
///
/// ```
/// use urt_umlrt::capsule::TimerId;
/// use urt_umlrt::timing::TimerService;
///
/// let mut svc = TimerService::new();
/// svc.set_tick(0.010); // 10 ms resolution
/// svc.schedule(0, TimerId(1), 0.0, 0.013, None, "tick");
/// // 13 ms rounds up to the 20 ms boundary.
/// assert_eq!(svc.next_due(), Some(0.020));
/// ```
#[derive(Debug, Default)]
pub struct TimerService {
    tick: f64,
    heap: BinaryHeap<TimerEntry>,
    next_seq: u64,
}

impl TimerService {
    /// Creates a service with exact (un-quantised) timing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the tick resolution in seconds; `0` restores exact timing.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is negative or not finite.
    pub fn set_tick(&mut self, tick: f64) {
        assert!(tick >= 0.0 && tick.is_finite(), "tick must be finite and >= 0");
        self.tick = tick;
    }

    /// The configured tick resolution.
    pub fn tick(&self) -> f64 {
        self.tick
    }

    /// Quantises an absolute due time up to the next tick boundary.
    fn quantize(&self, due: f64) -> f64 {
        if self.tick <= 0.0 {
            due
        } else {
            // The 1e-9 guard keeps exact multiples of the tick from being
            // pushed to the next boundary by representation error.
            ((due / self.tick) - 1e-9).ceil() * self.tick
        }
    }

    /// Schedules a timer for `capsule`, due `delay` seconds after `now`.
    /// Returns the (quantised) absolute due time.
    pub fn schedule(
        &mut self,
        capsule: usize,
        id: TimerId,
        now: f64,
        delay: f64,
        period: Option<f64>,
        signal: &str,
    ) -> f64 {
        let due = self.quantize(now + delay.max(0.0));
        let seq = self.next_seq;
        self.next_seq += 1;
        let message = Message::new(signal, Value::Int(id.0 as i64))
            .with_port(TIMER_PORT)
            .with_priority(Priority::High);
        self.heap.push(TimerEntry { due, seq, id, capsule, message, period });
        due
    }

    /// Cancels a timer (including future firings of a periodic timer).
    ///
    /// The pending entry is removed at once, so cancelling leaves no
    /// bookkeeping behind; cancelling a timer with no pending entry (one
    /// that already fired, or was never scheduled) does nothing.
    pub fn cancel(&mut self, id: TimerId) {
        self.heap.retain(|e| e.id != id);
    }

    /// The earliest pending due time.
    pub fn next_due(&self) -> Option<f64> {
        self.heap.peek().map(|top| top.due)
    }

    /// Fires every timer due at or before `now` into `sink`, earliest
    /// first, re-arming periodic ones. Allocates nothing for signal names
    /// of at most [`INLINE_NAME_BYTES`](crate::message::INLINE_NAME_BYTES)
    /// bytes.
    pub fn fire_due(&mut self, now: f64, mut sink: impl FnMut(FiredTimer)) {
        while let Some(due) = self.next_due() {
            if due > now + 1e-12 {
                break;
            }
            let entry = self.heap.pop().expect("peeked entry exists");
            let message = entry.message.clone().with_sent_at(entry.due);
            sink(FiredTimer { capsule: entry.capsule, message, id: entry.id });
            if let Some(period) = entry.period {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.heap.push(TimerEntry { due: self.quantize(entry.due + period), seq, ..entry });
            }
        }
    }

    /// Pops every timer due at or before `now`, re-arming periodic ones
    /// (see [`TimerService::fire_due`]).
    pub fn pop_due(&mut self, now: f64) -> Vec<FiredTimer> {
        let mut fired = Vec::new();
        self.fire_due(now, |f| fired.push(f));
        fired
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_timing_without_tick() {
        let mut svc = TimerService::new();
        svc.schedule(0, TimerId(1), 0.0, 0.0137, None, "t");
        assert_eq!(svc.next_due(), Some(0.0137));
    }

    #[test]
    fn tick_rounds_up() {
        let mut svc = TimerService::new();
        svc.set_tick(0.01);
        assert_eq!(svc.quantize(0.013), 0.02);
        assert!((svc.quantize(0.02) - 0.02).abs() < 1e-12);
        assert_eq!(svc.quantize(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "tick must be finite")]
    fn tick_rejects_negative() {
        TimerService::new().set_tick(-1.0);
    }

    #[test]
    fn pop_due_fires_in_time_order() {
        let mut svc = TimerService::new();
        svc.schedule(0, TimerId(1), 0.0, 0.5, None, "late");
        svc.schedule(1, TimerId(2), 0.0, 0.2, None, "early");
        let fired = svc.pop_due(1.0);
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[0].message.signal(), "early");
        assert_eq!(fired[1].message.signal(), "late");
        assert_eq!(fired[0].capsule, 1);
        assert!(svc.is_empty());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut svc = TimerService::new();
        svc.schedule(0, TimerId(1), 0.0, 0.5, None, "t");
        assert!(svc.pop_due(0.4).is_empty());
        assert_eq!(svc.pop_due(0.5).len(), 1);
    }

    #[test]
    fn periodic_timers_rearm() {
        let mut svc = TimerService::new();
        svc.schedule(0, TimerId(1), 0.0, 0.1, Some(0.1), "tick");
        let fired = svc.pop_due(0.35);
        assert_eq!(fired.len(), 3, "fires at 0.1, 0.2, 0.3");
        assert_eq!(svc.len(), 1, "re-armed for 0.4");
        assert_eq!(svc.next_due(), Some(0.4));
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        let mut svc = TimerService::new();
        svc.schedule(0, TimerId(7), 0.0, 0.1, None, "t");
        svc.cancel(TimerId(7));
        assert!(svc.pop_due(1.0).is_empty());
        assert_eq!(svc.next_due(), None);
    }

    #[test]
    fn arm_fire_cancel_cycles_leave_no_bookkeeping_behind() {
        // A 1 kHz watchdog, armed every cycle and cancelled after it
        // fired, next to a second one cancelled before it could fire and
        // a far-future timer that stays pending throughout.
        let mut svc = TimerService::new();
        svc.schedule(0, TimerId(0), 0.0, 1e9, None, "far");
        for cycle in 1..=10_000u64 {
            let now = cycle as f64 * 0.001;
            svc.schedule(0, TimerId(2 * cycle), now - 0.001, 0.0005, None, "watchdog");
            svc.schedule(0, TimerId(2 * cycle + 1), now - 0.001, 0.0005, None, "early");
            svc.cancel(TimerId(2 * cycle + 1));
            let fired = svc.pop_due(now);
            assert_eq!(fired.len(), 1, "cycle {cycle}: the watchdog alone fired");
            assert_eq!(fired[0].id, TimerId(2 * cycle));
            svc.cancel(TimerId(2 * cycle));
            assert_eq!(svc.len(), 1, "cycle {cycle}: only the far timer stays pending");
        }
        assert!(svc.heap.capacity() <= 8, "heap storage stayed bounded");
        svc.cancel(TimerId(0));
        assert!(svc.is_empty());
        assert_eq!(svc.next_due(), None);
    }

    #[test]
    fn cancelling_a_fired_timer_does_not_affect_a_later_one() {
        let mut svc = TimerService::new();
        svc.schedule(0, TimerId(1), 0.0, 0.1, None, "a");
        assert_eq!(svc.pop_due(0.1).len(), 1);
        svc.cancel(TimerId(1));
        svc.schedule(0, TimerId(2), 0.1, 0.1, None, "b");
        assert_eq!(svc.pop_due(0.2).len(), 1);
    }

    #[test]
    fn timer_messages_carry_id_on_timer_port() {
        let mut svc = TimerService::new();
        svc.schedule(3, TimerId(42), 0.0, 0.1, None, "deadline");
        let fired = svc.pop_due(0.2);
        let m = &fired[0].message;
        assert_eq!(m.port(), TIMER_PORT);
        assert_eq!(m.signal(), "deadline");
        assert_eq!(m.value().as_int(), Some(42));
        assert_eq!(m.priority(), Priority::High);
        assert_eq!(fired[0].id, TimerId(42));
    }

    #[test]
    fn quantisation_skews_periodic_cadence() {
        // The E5 claim in miniature: a 0.015 s period on a 0.01 s tick
        // fires at 0.02, 0.04, ... — 33% slow.
        let mut svc = TimerService::new();
        svc.set_tick(0.01);
        svc.schedule(0, TimerId(1), 0.0, 0.015, Some(0.015), "t");
        let fired = svc.pop_due(0.1);
        let times: Vec<f64> = fired.iter().map(|f| f.message.sent_at()).collect();
        assert!((times[0] - 0.02).abs() < 1e-12);
        assert!((times[1] - 0.04).abs() < 1e-12, "got {times:?}");
    }
}
