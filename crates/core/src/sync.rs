//! Poison-tolerant synchronisation for the engine layer.
//!
//! The canonical implementation lives in [`urt_umlrt::sync`] (the bottom
//! of the event-driven dependency stack, so the tracer can use it too);
//! this module re-exports it under the engine crate's namespace. See that
//! module for the hermetic-build rationale.

pub use urt_umlrt::sync::Mutex;

use std::sync::atomic::{AtomicUsize, Ordering};

/// A sense-reversing spin barrier synchronising solver threads between
/// the macro steps *inside* a batch.
///
/// `std::sync`'s Mutex+Condvar barrier costs microseconds per wait; at
/// sub-microsecond macro steps that would erase the batching win, so the
/// inner sub-step barrier spins (briefly) and then yields. Batch
/// boundaries still use a channel rendezvous, which parks properly —
/// spinning is confined to the hot inner loop. Used by the one threaded
/// scheduler, [`EnsembleEngine`](crate::ensemble::EnsembleEngine)'s.
pub(crate) struct SpinBarrier {
    participants: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    pub(crate) fn new(participants: usize) -> Self {
        SpinBarrier { participants, count: AtomicUsize::new(0), generation: AtomicUsize::new(0) }
    }

    /// Blocks until all participants have called `wait` this generation.
    pub(crate) fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.participants {
            // Reset the count *before* releasing the waiters: the Release
            // bump happens-before their Acquire load, so no participant of
            // the next generation can observe a stale count.
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                spins = spins.saturating_add(1);
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}
