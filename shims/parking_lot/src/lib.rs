//! Offline stand-in for the `parking_lot` crate.
//!
//! The build container has no network access, so the real crate cannot be
//! fetched. This shim reproduces the subset of the API the workspace uses
//! (`Mutex` and `Condvar` with `parking_lot` semantics: guard-returning
//! `lock()`, no poisoning) on top of `std::sync`. Poisoned std locks are
//! recovered transparently — `parking_lot` has no poisoning, and the runtime
//! propagates rank panics itself.

use std::fmt;
use std::sync::{self, PoisonError};
use std::time::Duration;

/// Mutual exclusion primitive (`parking_lot::Mutex` API subset).
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized>(sync::MutexGuard<'a, T>);

impl<T> Mutex<T> {
    /// Create a mutex guarding `t`.
    pub const fn new(t: T) -> Self {
        Mutex(sync::Mutex::new(t))
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available. Never poisons.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Condition variable usable with [`MutexGuard`] (`parking_lot::Condvar`
/// API subset).
#[derive(Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Block on the guard until notified or `timeout` elapses (or
    /// spuriously); the caller re-checks its condition either way. (`T:
    /// Sized` because std's `Condvar::wait_timeout` requires it.)
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) {
        // Temporarily move the std guard out to satisfy the std signature.
        replace_guard(guard, |g| {
            self.0
                .wait_timeout(g, timeout)
                .unwrap_or_else(PoisonError::into_inner)
                .0
        });
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// Run `f` on the owned std guard inside `guard`, putting its result back.
fn replace_guard<'a, T: ?Sized>(
    guard: &mut MutexGuard<'a, T>,
    f: impl FnOnce(sync::MutexGuard<'a, T>) -> sync::MutexGuard<'a, T>,
) {
    // SAFETY: we read the guard out, immediately hand it to `f`, and write
    // the returned guard back before anyone can observe the hole. `f` cannot
    // panic between read and write in a way that double-drops: std's wait
    // functions return the guard even on poison (recovered above), and a
    // panic before `write` would leak (not double-drop) the guard.
    unsafe {
        let inner = std::ptr::read(&guard.0);
        let new = f(inner);
        std::ptr::write(&mut guard.0, new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_guards_data() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait_for(&mut done, Duration::from_secs(60));
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        *pair.0.lock() = true;
        pair.1.notify_all();
        h.join().unwrap();
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(0);
        let cv = Condvar::new();
        let mut waits = m.lock();
        let start = std::time::Instant::now();
        // Nobody notifies: only the timeout (or a spurious wakeup) ends a
        // wait, and each returns with the lock held again.
        while start.elapsed() < Duration::from_millis(5) {
            cv.wait_for(&mut waits, Duration::from_millis(5));
            *waits += 1;
        }
        assert!(*waits >= 1);
    }
}
