//! `StateMachine::dispatch` allocates nothing in the steady state: the
//! innermost-first transition search walks the active state chain in
//! place. A counting global allocator, armed only on the test's own
//! thread, checks 1000 dispatches of one reused message through an
//! internal transition after warm-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use unified_rt::umlrt::capsule::CapsuleContext;
use unified_rt::umlrt::message::Message;
use unified_rt::umlrt::statemachine::StateMachineBuilder;
use unified_rt::umlrt::value::Value;

struct CountingAlloc;

thread_local! {
    /// Whether this thread's allocations are counted.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Allocations (including reallocations) counted while armed.
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation() {
    if ARMED.with(Cell::get) {
        COUNT.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counters are const-initialised thread locals that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    COUNT.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    COUNT.with(Cell::get)
}

#[test]
fn dispatch_through_an_internal_transition_allocates_nothing() {
    // The transition sits on the composite parent, so every dispatch
    // walks up from the active leaf before it matches.
    let mut machine = StateMachineBuilder::new("counter")
        .state("outer")
        .substate("inner", "outer")
        .initial_child("outer", "inner")
        .initial("outer", |_d: &mut u64, _| {})
        .internal("outer", ("*", "inc"), |d, _, _| *d += 1)
        .build()
        .expect("machine builds");
    let mut data = 0u64;
    let mut ctx = CapsuleContext::new("counter", 0.0, 0);
    machine.start(&mut data, &mut ctx);
    let msg = Message::new("inc", Value::Empty).with_port("p");
    for _ in 0..10 {
        assert!(machine.dispatch(&mut data, &msg, &mut ctx), "warm-up dispatch handled");
    }
    let count = allocations_in(|| {
        for _ in 0..1000 {
            machine.dispatch(&mut data, &msg, &mut ctx);
        }
    });
    assert_eq!(data, 1010, "every dispatch ran the internal transition");
    assert_eq!(count, 0, "1000 dispatches allocated {count} times");
}

#[test]
fn the_counter_sees_allocations() {
    // Guards the gate itself: an armed allocation is counted.
    let count = allocations_in(|| drop(std::hint::black_box(vec![1u8; 64])));
    assert_eq!(count, 1);
}
