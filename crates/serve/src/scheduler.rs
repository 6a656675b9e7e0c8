//! Bounded worker pool with admission control.
//!
//! The queue has a hard capacity: when it is full, [`WorkerPool::try_submit`]
//! returns [`SubmitError::Overloaded`] *immediately* instead of blocking
//! the session thread or growing an unbounded backlog. Load shedding is
//! therefore a typed, prompt signal the client can act on (back off,
//! retry elsewhere), and server memory stays bounded no matter how many
//! clients pile on — the paper's interactive interface scaled to the
//! ROADMAP's "heavy traffic" regime.
//!
//! Shutdown is graceful: already-admitted jobs (queued and running) are
//! drained to completion, new submissions are refused with
//! [`SubmitError::ShuttingDown`], and [`WorkerPool::shutdown`] blocks
//! until the last worker exits.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use cobra_faults::Recover;
use cobra_obs::{Counter, Gauge, Registry};

/// A unit of admitted work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why a submission was refused. Both variants are immediate — the
/// scheduler never blocks an admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity.
    Overloaded {
        /// The configured queue capacity, for the error message.
        queue_cap: usize,
    },
    /// The pool is shutting down and admits nothing new.
    ShuttingDown,
}

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    /// Signalled when a job is queued or shutdown begins.
    available: Condvar,
    shutting_down: AtomicBool,
    queue_cap: usize,
    queue_depth: Arc<Gauge>,
    running: Arc<Gauge>,
    worker_panics: Arc<Counter>,
}

/// Fixed-size worker pool over a bounded queue. Shutdown takes `&self`
/// (the worker handles live behind a mutex) so the server can hold the
/// pool in an `Arc` shared with session threads.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    n_workers: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawns `workers` threads servicing a queue of at most
    /// `queue_cap` waiting jobs. Gauges and counters are registered in
    /// `registry` under `serve.*`. Fails when the OS refuses a worker
    /// thread; workers spawned before the failure are told to shut down,
    /// so an error never leaks live threads.
    pub fn new(workers: usize, queue_cap: usize, registry: &Registry) -> std::io::Result<Self> {
        assert!(workers > 0, "a pool needs at least one worker");
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::with_capacity(queue_cap)),
            available: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            queue_cap,
            queue_depth: registry.gauge("serve.queue_depth", &[]),
            running: registry.gauge("serve.running", &[]),
            worker_panics: registry.counter("serve.worker_panics", &[]),
        });
        let handles: std::io::Result<Vec<_>> = (0..workers)
            .map(|k| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cobra-serve-worker-{k}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect();
        let handles = match handles {
            Ok(handles) => handles,
            Err(e) => {
                shared.shutting_down.store(true, Ordering::SeqCst);
                shared.available.notify_all();
                return Err(e);
            }
        };
        Ok(WorkerPool {
            shared,
            n_workers: workers,
            workers: Mutex::new(handles),
        })
    }

    /// Admits `job` if there is queue room; never blocks.
    pub fn try_submit(&self, job: Job) -> Result<(), SubmitError> {
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        let mut queue = self.shared.queue.lock().recover();
        // Re-check under the lock so a submission racing shutdown cannot
        // slip in after the drain decision.
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        if queue.len() >= self.shared.queue_cap {
            return Err(SubmitError::Overloaded {
                queue_cap: self.shared.queue_cap,
            });
        }
        queue.push_back(job);
        self.shared.queue_depth.set(queue.len() as i64);
        drop(queue);
        self.shared.available.notify_one();
        Ok(())
    }

    /// How many jobs can run or wait at once — the admission limit.
    pub fn admission_limit(&self) -> usize {
        self.n_workers + self.shared.queue_cap
    }

    /// Drains the queue and joins every worker. Jobs already admitted
    /// run to completion; concurrent [`try_submit`](Self::try_submit)
    /// calls fail with [`SubmitError::ShuttingDown`]. Idempotent — a
    /// second call finds no workers left to join.
    pub fn shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock().recover());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().recover();
            loop {
                if let Some(job) = queue.pop_front() {
                    shared.queue_depth.set(queue.len() as i64);
                    break Some(job);
                }
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.available.wait(queue).recover();
            }
        };
        let Some(job) = job else { return };
        shared.running.add(1);
        // A panicking query must not take its worker down with it: the
        // pool would silently lose capacity until nothing is served.
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            shared.worker_panics.inc();
        }
        shared.running.add(-1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    #[test]
    fn runs_submitted_jobs() {
        let registry = Registry::new();
        let pool = WorkerPool::new(4, 16, &registry).expect("pool spawns");
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            // Submit with retry: 32 jobs against capacity 4+16 will
            // transiently overload, which is the designed behavior.
            let done = Arc::clone(&done);
            loop {
                let d = Arc::clone(&done);
                match pool.try_submit(Box::new(move || {
                    d.fetch_add(1, Ordering::SeqCst);
                })) {
                    Ok(()) => break,
                    Err(SubmitError::Overloaded { .. }) => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(SubmitError::ShuttingDown) => panic!("not shutting down"),
                }
            }
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn full_queue_rejects_immediately() {
        let registry = Registry::new();
        let pool = WorkerPool::new(1, 1, &registry).expect("pool spawns");
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.try_submit(Box::new(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        }))
        .unwrap();
        started_rx.recv().unwrap(); // worker is now busy
        pool.try_submit(Box::new(|| {})).unwrap(); // fills the queue
        let t = Instant::now();
        let err = pool.try_submit(Box::new(|| {})).unwrap_err();
        assert!(matches!(err, SubmitError::Overloaded { queue_cap: 1 }));
        assert!(
            t.elapsed() < Duration::from_millis(100),
            "rejection must not block"
        );
        release_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_admitted_jobs() {
        let registry = Registry::new();
        let pool = WorkerPool::new(2, 8, &registry).expect("pool spawns");
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let d = Arc::clone(&done);
            pool.try_submit(Box::new(move || {
                std::thread::sleep(Duration::from_millis(5));
                d.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 8, "admitted jobs must drain");
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let registry = Registry::new();
        let pool = WorkerPool::new(1, 4, &registry).expect("pool spawns");
        pool.try_submit(Box::new(|| panic!("query exploded")))
            .unwrap();
        let (tx, rx) = mpsc::channel::<()>();
        pool.try_submit(Box::new(move || tx.send(()).unwrap()))
            .unwrap();
        rx.recv_timeout(Duration::from_secs(5))
            .expect("the lone worker must survive the panic and run the next job");
        pool.shutdown();
        assert_eq!(registry.snapshot().counter("serve.worker_panics", &[]), 1);
    }
}
