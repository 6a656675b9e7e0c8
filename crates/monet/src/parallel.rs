//! `threadcnt`-style fork/join execution.
//!
//! Monet exposes intra-query parallelism through a thread-count setting and
//! a parallel block construct; the paper leans on it to evaluate six HMMs
//! concurrently (Fig. 3/4) and to fan out DBN inference calls. This module
//! provides the equivalent: a bounded fork/join executor built on
//! `std::thread::scope`, so jobs may borrow from the caller's stack.
//!
//! Jobs are distributed by striping the job list across workers up front:
//! each worker *owns* its slice of jobs, so there are no shared claim cells
//! to lock. Worker panics are caught per job and surfaced as
//! [`MonetError::WorkerPanic`] instead of unwinding through the scope.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;

use crate::error::{MonetError, Result};

/// Renders a caught panic payload as a readable message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs one job under a panic guard.
fn run_one<T, F: FnOnce() -> T>(job: F) -> Result<T> {
    catch_unwind(AssertUnwindSafe(job)).map_err(|p| MonetError::WorkerPanic(panic_message(p)))
}

/// Runs `jobs` with at most `threads` of them in flight at once and returns
/// their results in submission order.
///
/// `threads == 0` or `threads == 1` degrade to sequential execution in the
/// calling thread, which is what `threadcnt(1)` means in MIL. A panicking
/// job yields [`MonetError::WorkerPanic`]; the remaining jobs still run to
/// completion and the first panic (in submission order) is reported.
pub fn run_jobs<T, F>(threads: usize, jobs: Vec<F>) -> Result<Vec<T>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(run_one).collect();
    }
    let n = jobs.len();
    let workers = threads.min(n);

    // Stripe jobs across workers: worker w owns jobs w, w+workers, … — no
    // shared claim state, and interleaving balances uneven job costs.
    let mut stripes: Vec<Vec<(usize, F)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        stripes[i % workers].push((i, job));
    }

    let mut slots: Vec<Option<Result<T>>> = (0..n).map(|_| None).collect();
    // Every handle is joined inside the scope, so the scope itself never
    // re-raises a worker's panic; each job also runs under run_one's guard.
    let worker_results = thread::scope(|s| {
        let handles: Vec<_> = stripes
            .into_iter()
            .map(|stripe| {
                s.spawn(move || {
                    stripe
                        .into_iter()
                        .map(|(i, job)| (i, run_one(job)))
                        .collect::<Vec<(usize, Result<T>)>>()
                })
            })
            .collect();
        let mut results = Vec::with_capacity(workers);
        for h in handles {
            results.push(h.join());
        }
        results
    });
    for per_worker in worker_results {
        let pairs = per_worker.map_err(|p| MonetError::WorkerPanic(panic_message(p)))?;
        for (i, r) in pairs {
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|s| s.unwrap_or(Err(MonetError::WorkerPanic("job never ran".into()))))
        .collect()
}

/// Splits `0..len` into at most `parts` contiguous morsel ranges of
/// near-equal size (empty input yields no morsels).
pub fn morsels(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = parts.min(len);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_preserve_submission_order() {
        let jobs: Vec<_> = (0..16).map(|i| move || i * i).collect();
        let out = run_jobs(4, jobs).unwrap();
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_fallback_for_one_thread() {
        let counter = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..5)
            .map(|_| {
                let c = &counter;
                move || c.fetch_add(1, Ordering::SeqCst)
            })
            .collect();
        let out = run_jobs(1, jobs).unwrap();
        // Sequential execution yields strictly increasing claim order.
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..100)
            .map(|_| {
                let c = &counter;
                move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }
            })
            .collect();
        run_jobs(8, jobs).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let out = run_jobs(32, vec![|| 1, || 2]).unwrap();
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn panics_become_typed_errors() {
        let jobs: Vec<Box<dyn FnOnce() -> i64 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("kaboom")),
            Box::new(|| 3),
        ];
        let err = run_jobs(4, jobs).unwrap_err();
        match err {
            MonetError::WorkerPanic(msg) => assert!(msg.contains("kaboom")),
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn sequential_panics_are_also_caught() {
        let jobs: Vec<Box<dyn FnOnce() -> i64 + Send>> = vec![Box::new(|| panic!("solo"))];
        let err = run_jobs(1, jobs).unwrap_err();
        assert!(matches!(err, MonetError::WorkerPanic(_)));
    }

    #[test]
    fn surviving_jobs_still_run_after_a_panic() {
        let counter = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..20)
            .map(|i| {
                let c = &counter;
                let job: Box<dyn FnOnce() + Send> = if i == 3 {
                    Box::new(|| panic!("one bad job"))
                } else {
                    Box::new(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    })
                };
                job
            })
            .collect();
        assert!(run_jobs(4, jobs).is_err());
        assert_eq!(counter.load(Ordering::SeqCst), 19);
    }

    #[test]
    fn morsels_cover_range_without_overlap() {
        for (len, parts) in [(10, 3), (7, 7), (5, 16), (0, 4), (100, 1)] {
            let m = morsels(len, parts);
            let total: usize = m.iter().map(|r| r.len()).sum();
            assert_eq!(total, len);
            let mut next = 0;
            for r in &m {
                assert_eq!(r.start, next);
                assert!(!r.is_empty());
                next = r.end;
            }
        }
    }
}
