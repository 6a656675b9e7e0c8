//! Bounded worker pool with admission control: the one place a pooled
//! reply is sent.
//!
//! The queue has a hard capacity: when it is full, [`WorkerPool::try_submit`]
//! refuses *immediately* ([`SubmitError::Overloaded`]) instead of blocking
//! the reactor or growing an unbounded backlog, so load shedding is a
//! typed, prompt signal and server memory stays bounded however many
//! clients pile on.
//!
//! A job returns the frame that answers its request. The worker that ran
//! it answers a job that unwinds with a typed `internal` frame (counted
//! in `serve.worker_panics`), retires the job (`serve.running`), and only
//! then queues the frame on the [`ReactorCtl`]: a client holding its
//! reply never sees its job still counted.
//!
//! Shutdown drains admitted jobs (queued and running), refuses new ones
//! with [`SubmitError::ShuttingDown`], and [`WorkerPool::shutdown`]
//! blocks until the last worker exits.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use cobra_faults::Recover;
use cobra_obs::{Counter, Gauge, Registry};

use crate::protocol::{encode_reply, err_response, ErrorKind};
use crate::reactor::{ConnId, ReactorCtl};

/// Why a request whose job unwound is answered `internal`.
pub(crate) const UNWOUND: &str = "the request's job panicked before answering";

/// A unit of admitted work: a connection, a request id, and the job that
/// returns the frame answering that request.
pub(crate) type Job = (ConnId, u64, Box<dyn FnOnce() -> Vec<u8> + Send>);

/// Why a submission was refused. Both variants are immediate — the
/// scheduler never blocks an admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SubmitError {
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
    /// Where the workers queue the frames their jobs return.
    ctl: ReactorCtl,
    queue_depth: Arc<Gauge>,
    running: Arc<Gauge>,
    worker_panics: Arc<Counter>,
}

/// Fixed-size worker pool over a bounded queue. Shutdown takes `&self`
/// (the worker handles live behind a mutex) so the server can hold the
/// pool in an `Arc` shared with session threads.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    n_workers: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawns `workers` threads servicing a queue of at most `queue_cap`
    /// waiting jobs, replying through `ctl`, counted in `registry` under
    /// `serve.*`. Fails when the OS refuses a worker thread; workers
    /// spawned before the failure are told to shut down.
    pub(crate) fn new(
        workers: usize,
        queue_cap: usize,
        registry: &Registry,
        ctl: ReactorCtl,
    ) -> std::io::Result<Self> {
        assert!(workers > 0, "a pool needs at least one worker");
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::with_capacity(queue_cap)),
            available: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            queue_cap,
            ctl,
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

    /// Admits `job` if there is queue room; never blocks. A refused job
    /// is dropped unrun.
    pub(crate) fn try_submit(&self, job: Job) -> Result<(), SubmitError> {
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
    pub(crate) fn admission_limit(&self) -> usize {
        self.n_workers + self.shared.queue_cap
    }

    /// Drains the queue and joins every worker. Jobs already admitted
    /// run to completion; concurrent [`try_submit`](Self::try_submit)
    /// calls fail with [`SubmitError::ShuttingDown`]. Idempotent — a
    /// second call finds no workers left to join.
    pub(crate) fn shutdown(&self) {
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
        let Some((conn, id, run)) = job else { return };
        shared.running.add(1);
        // A panicking job must not take its worker down with it (the
        // pool would silently lose capacity until nothing is served),
        // nor leave its requester waiting for an answer.
        let frame = catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| {
            shared.worker_panics.inc();
            encode_reply(&err_response(id, ErrorKind::Internal, UNWOUND))
        });
        // Retire, then answer: whoever holds the reply sees the job gone.
        shared.running.add(-1);
        shared.ctl.send(conn, frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::Op;
    use serde_json::Value;
    use std::io::Read;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    fn spawn_pool(workers: usize, queue_cap: usize) -> (WorkerPool, ReactorCtl, Registry) {
        let registry = Registry::new();
        let ctl = ReactorCtl::new().expect("ctl");
        let pool =
            WorkerPool::new(workers, queue_cap, &registry, ctl.clone()).expect("pool spawns");
        (pool, ctl, registry)
    }

    /// Submits a job answering request `id` on connection 1.
    fn submit(
        pool: &WorkerPool,
        id: u64,
        run: impl FnOnce() + Send + 'static,
    ) -> Result<(), SubmitError> {
        pool.try_submit((
            ConnId(1),
            id,
            Box::new(move || {
                run();
                id.to_be_bytes().to_vec()
            }),
        ))
    }

    /// The next reply the pool queued: its connection and frame.
    fn next_reply(ctl: &ReactorCtl, pending: &mut VecDeque<Op>) -> (ConnId, Vec<u8>) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(Op::Send { conn, frame }) = pending.pop_front() {
                return (conn, frame);
            }
            assert!(Instant::now() < deadline, "no reply within 5 s");
            pending.extend(ctl.take_ops());
            std::thread::yield_now();
        }
    }

    #[test]
    fn runs_submitted_jobs() {
        let (pool, ctl, _registry) = spawn_pool(4, 16);
        let done = Arc::new(AtomicUsize::new(0));
        for id in 0..32 {
            // Submit with retry: 32 jobs against capacity 4+16 will
            // transiently overload, which is the designed behavior.
            loop {
                let d = Arc::clone(&done);
                match submit(&pool, id, move || {
                    d.fetch_add(1, Ordering::SeqCst);
                }) {
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
        let mut answered: Vec<u64> = ctl
            .take_ops()
            .into_iter()
            .map(|op| match op {
                Op::Send {
                    conn: ConnId(1),
                    frame,
                } => u64::from_be_bytes(frame.try_into().expect("an id")),
                _ => panic!("only replies are queued"),
            })
            .collect();
        answered.sort_unstable();
        assert_eq!(answered, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn full_queue_rejects_immediately() {
        let (pool, _ctl, _registry) = spawn_pool(1, 1);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        submit(&pool, 1, move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        })
        .unwrap();
        started_rx.recv().unwrap(); // worker is now busy
        submit(&pool, 2, || {}).unwrap(); // fills the queue
        let t = Instant::now();
        let err = submit(&pool, 3, || {}).unwrap_err();
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
        let (pool, _ctl, _registry) = spawn_pool(2, 8);
        let done = Arc::new(AtomicUsize::new(0));
        for id in 0..8 {
            let d = Arc::clone(&done);
            submit(&pool, id, move || {
                std::thread::sleep(Duration::from_millis(5));
                d.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 8, "admitted jobs must drain");
        assert_eq!(submit(&pool, 9, || {}), Err(SubmitError::ShuttingDown));
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let (pool, ctl, registry) = spawn_pool(1, 4);
        submit(&pool, 7, || panic!("query exploded")).unwrap();
        let (tx, rx) = mpsc::channel::<()>();
        submit(&pool, 8, move || tx.send(()).unwrap()).unwrap();
        rx.recv_timeout(Duration::from_secs(5))
            .expect("the lone worker must survive the panic and run the next job");
        let mut pending = VecDeque::new();
        let (conn, frame) = next_reply(&ctl, &mut pending);
        assert_eq!(conn, ConnId(1));
        let reply: Value = serde_json::from_slice(&frame[4..]).expect("a JSON frame");
        assert_eq!(reply.get("id").and_then(Value::as_u64), Some(7), "{reply}");
        let kind = reply.get("error").and_then(|e| e.get("kind"));
        assert_eq!(kind.and_then(Value::as_str), Some("internal"), "{reply}");
        let (_, frame) = next_reply(&ctl, &mut pending);
        assert_eq!(frame, 8u64.to_be_bytes());
        pool.shutdown();
        assert_eq!(registry.snapshot().counter("serve.worker_panics", &[]), 1);
    }

    /// Retire, then send: once a reply wakes the reactor, the job that
    /// returned it is no longer counted in `serve.running`. Blocking on
    /// the wake pipe lets the waking reader run at once, where a pool
    /// that sent first would still count the job.
    #[test]
    fn no_reply_is_visible_while_its_job_is_counted_running() {
        let (pool, ctl, registry) = spawn_pool(1, 4);
        let mut wake = ctl.take_wake_rx().expect("the wake pipe");
        wake.set_nonblocking(false).expect("a blocking read");
        wake.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("the no-hang bound");
        let running = registry.gauge("serve.running", &[]);
        for id in 0..1_000 {
            submit(&pool, id, || {}).unwrap();
            wake.read_exact(&mut [0])
                .expect("a reply wakes the reactor");
            assert_eq!(
                running.get(),
                0,
                "round {id}: a reply left before its job retired"
            );
            let ops = ctl.take_ops();
            let [Op::Send { frame, .. }] = &ops[..] else {
                panic!("round {id}: one reply per job");
            };
            assert_eq!(*frame, id.to_be_bytes());
        }
        pool.shutdown();
    }
}
