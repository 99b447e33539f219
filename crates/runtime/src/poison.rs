//! Poison-free locking for the runtime's internal mutexes.
//!
//! A `std::sync::Mutex` is *poisoned* when a thread panics while holding it, and every
//! later `lock()` then returns `Err` forever.  The runtime's critical sections never
//! run caller code while holding a lock — they only move values in and out of plain
//! collections (map insert/lookup, `Option` swaps), none of which can leave the
//! collection half-updated when a panic unwinds *elsewhere* — so the data behind a
//! poisoned lock is always still consistent.  Recovering the guard instead of
//! panicking is therefore safe, and it is what makes one panicked measurement job (real
//! or injected by [`faults`](crate::faults)) unable to wedge every later batch on a
//! poisoned mutex: the fault injector and the session memo cache keep serving.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard if a panicking thread poisoned it (see the
/// module docs for why the guarded data is still consistent).
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn a_poisoned_mutex_is_recovered_with_its_data_intact() {
        let shared = Arc::new(Mutex::new(vec![1, 2, 3]));
        let poisoner = Arc::clone(&shared);
        std::thread::spawn(move || {
            let _guard = poisoner.lock().expect("first lock is clean");
            panic!("poison the mutex");
        })
        .join()
        .expect_err("the poisoning thread panicked");
        assert!(shared.lock().is_err(), "the mutex really is poisoned");
        assert_eq!(*lock(&shared), vec![1, 2, 3], "recovery hands back consistent data");
        lock(&shared).push(4);
        assert_eq!(*lock(&shared), vec![1, 2, 3, 4]);
    }
}
