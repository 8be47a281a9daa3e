//! Poison-tolerant synchronisation primitives over `std::sync`.
//!
//! The workspace builds hermetically with zero registry dependencies, so
//! `parking_lot` is replaced by this thin wrapper: the same non-`Result`
//! `lock()` ergonomics, implemented by recovering the guard from a
//! poisoned `std::sync::Mutex` instead of propagating the panic. Recorders
//! and channel slots only append to or copy plain collections, so
//! observing a value written by a thread that later panicked is harmless;
//! losing every recorded sample to poisoning is not.

use std::sync::{Mutex as StdMutex, MutexGuard};

/// A mutual-exclusion lock whose `lock()` never fails: if a holder
/// panicked, the poison is cleared and the guard is handed out anyway.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a lock around `value`.
    pub fn new(value: T) -> Self {
        Mutex { inner: StdMutex::new(value) }
    }

    /// Acquires the lock, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Consumes the lock, returning the inner value (poison ignored).
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(vec![1]);
        m.lock().push(2);
        assert_eq!(*m.lock(), vec![1, 2]);
        assert_eq!(m.into_inner(), vec![1, 2]);
    }

    #[test]
    fn survives_poisoning() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the lock");
        })
        .join();
        // A parking_lot-style lock keeps working after a holder panicked.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn is_send_sync() {
        fn assert_ss<T: Send + Sync>() {}
        assert_ss::<Mutex<Vec<u8>>>();
    }
}
