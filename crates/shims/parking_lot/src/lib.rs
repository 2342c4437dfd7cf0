//! Offline drop-in replacement for the subset of [parking_lot] this
//! workspace uses: [`Mutex`] (whose `lock()` returns the guard directly,
//! no poisoning) and [`Condvar`] (whose `wait` takes `&mut MutexGuard`).
//!
//! Implemented over `std::sync`, with std's poisoning stripped to match
//! parking_lot semantics: a thread that panics while holding the lock
//! simply releases it, and the data stays reachable. Both fault-tolerant
//! executors depend on that — the SPMD executor catches rank panics and
//! reads the shared board afterwards, and the serving supervisor
//! recovers a dead worker's in-flight batch from under the lock the
//! worker held when it died.
//!
//! [parking_lot]: https://crates.io/crates/parking_lot
#![forbid(unsafe_code)]

use std::ops::{Deref, DerefMut};
use std::sync;

/// Mutual exclusion with parking_lot's guard-returning API.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T> {
    // `Option` so `Condvar::wait` can temporarily take the std guard out
    // while the thread is parked.
    guard: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Create a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Acquire the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            guard: Some(
                self.inner
                    .lock()
                    .unwrap_or_else(sync::PoisonError::into_inner),
            ),
        }
    }

    /// Acquire the lock only if it is free right now; `None` if another
    /// thread holds it (parking_lot's non-blocking variant).
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(MutexGuard { guard: Some(guard) }),
            Err(sync::TryLockError::Poisoned(poisoned)) => Some(MutexGuard {
                guard: Some(poisoned.into_inner()),
            }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Consume the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<'a, T> Deref for MutexGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard taken during wait")
    }
}

impl<'a, T> DerefMut for MutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard taken during wait")
    }
}

/// Condition variable with parking_lot's `wait(&mut guard)` API.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Atomically release the guard's lock and park until notified; the
    /// lock is re-acquired before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.guard.take().expect("guard already waiting");
        guard.guard = Some(
            self.inner
                .wait(inner)
                .unwrap_or_else(sync::PoisonError::into_inner),
        );
    }

    /// As [`Condvar::wait`], but give up after `timeout`. Returns `true`
    /// iff the wait timed out (parking_lot's `WaitTimeoutResult::timed_out`
    /// collapsed to the bool every caller actually wants).
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: std::time::Duration) -> bool {
        let inner = guard.guard.take().expect("guard already waiting");
        let (inner, res) = match self.inner.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(poisoned) => {
                let (g, r) = poisoned.into_inner();
                (g, r)
            }
        };
        guard.guard = Some(inner);
        res.timed_out()
    }

    /// Wake one parked thread.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake all parked threads.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_guards_data() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn panicking_holder_releases_instead_of_poisoning() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("holder dies");
        })
        .join()
        .unwrap_err();
        // parking_lot semantics: the data survives the holder's panic.
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn wait_for_times_out_and_wakes() {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        // Nobody notifies: the wait must come back with timed_out = true.
        {
            let (m, cv) = &*shared;
            let mut g = m.lock();
            assert!(cv.wait_for(&mut g, std::time::Duration::from_millis(5)));
        }
        // A notifier exists: the wait must come back without timing out.
        let shared2 = Arc::clone(&shared);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*shared2;
            *m.lock() = true;
            cv.notify_all();
        });
        let (m, cv) = &*shared;
        let mut g = m.lock();
        while !*g {
            cv.wait_for(&mut g, std::time::Duration::from_secs(5));
        }
        drop(g);
        h.join().unwrap();
    }

    #[test]
    fn condvar_handoff() {
        let shared = Arc::new((Mutex::new(0usize), Condvar::new()));
        let n = 4;
        let mut handles = Vec::new();
        for _ in 0..n {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                let (m, cv) = &*shared;
                let mut g = m.lock();
                *g += 1;
                cv.notify_all();
                while *g < n {
                    cv.wait(&mut g);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*shared.0.lock(), n);
    }
}
