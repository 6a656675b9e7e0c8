//! The workspace's one lock-poisoning rule.

use std::sync::{LockResult, PoisonError};

/// Takes the guard out of a [`LockResult`], poisoned or not.
///
/// Every `std::sync` lock in the workspace is taken through this rule:
/// `m.lock().recover()`, `l.read().recover()`, `l.write().recover()`,
/// `cv.wait(g).recover()`, `cv.wait_timeout(g, d).recover()`.
///
/// Recovery is sound because every table a lock guards here is valid at
/// every step: a critical section either makes one self-contained
/// mutation (an insert, a remove, a swap of a value built off-lock) or
/// reads. A thread that panics while holding a guard therefore leaves the
/// last value it wrote, never a half-written one, and the panic is
/// reported where it happened (a `WorkerPanic`, a typed error frame). Taking
/// the guard back means a panic on one thread never becomes a second
/// panic on every thread that touches the same lock afterwards.
pub trait Recover<G> {
    /// The guard (or value) the lock call returned, poisoned or not.
    fn recover(self) -> G;
}

impl<G> Recover<G> for LockResult<G> {
    #[inline]
    fn recover(self) -> G {
        self.unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::Recover;
    use std::sync::{Arc, Condvar, Mutex, RwLock};
    use std::time::Duration;

    /// Joins `t`, a thread that panicked while holding a guard.
    fn join_panicked(t: std::thread::JoinHandle<()>) {
        assert!(t.join().is_err());
    }

    #[test]
    fn a_poisoned_mutex_yields_the_last_written_value() {
        let m = Arc::new(Mutex::new(1));
        let held = Arc::clone(&m);
        join_panicked(std::thread::spawn(move || {
            let mut g = held.lock().recover();
            *g = 2;
            panic!("deliberate panic while holding the mutex");
        }));
        assert!(m.is_poisoned());
        assert_eq!(*m.lock().recover(), 2);
    }

    #[test]
    fn a_poisoned_rwlock_yields_the_last_written_value() {
        let l = Arc::new(RwLock::new(vec![1]));
        let held = Arc::clone(&l);
        join_panicked(std::thread::spawn(move || {
            let mut g = held.write().recover();
            g.push(2);
            panic!("deliberate panic while holding the write guard");
        }));
        assert!(l.is_poisoned());
        assert_eq!(*l.read().recover(), vec![1, 2]);
        l.write().recover().push(3);
        assert_eq!(*l.read().recover(), vec![1, 2, 3]);
    }

    #[test]
    fn a_condvar_wait_on_a_poisoned_mutex_returns_its_guard() {
        let m = Arc::new(Mutex::new(1));
        let held = Arc::clone(&m);
        join_panicked(std::thread::spawn(move || {
            let mut g = held.lock().recover();
            *g = 2;
            panic!("deliberate panic while holding the mutex");
        }));
        let cv = Condvar::new();
        let waited = cv.wait_timeout(m.lock().recover(), Duration::from_millis(1));
        assert!(waited.is_err(), "the wait re-locks a poisoned mutex");
        let (g, timeout) = waited.recover();
        assert!(timeout.timed_out());
        assert_eq!(*g, 2);
    }
}
