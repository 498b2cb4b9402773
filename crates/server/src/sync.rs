//! Poison-tolerant lock helpers.
//!
//! The server's shared state (dispatch queue, connection writers, overload
//! controller) is only ever mutated through small, panic-free critical
//! sections, so a poisoned mutex carries no torn invariants — the poison
//! flag just records that *some* thread panicked while holding the lock.
//! Propagating it (the `.unwrap()` the standard library nudges toward)
//! would let one panicking worker wedge the dispatcher and every other
//! worker; these helpers recover the guard and keep serving instead.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Locks `m`, recovering the guard if a previous holder panicked.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// [`Condvar::wait_timeout`] with the same poison recovery as [`lock`].
pub(crate) fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, dur).unwrap_or_else(|p| p.into_inner()).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn lock_recovers_from_poison() {
        let m = Mutex::new(7);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(caught.is_err());
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 7, "the value survives the poison flag");
    }
}
