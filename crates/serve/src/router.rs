//! The scatter-gather router: one front door over N kernel workers.
//!
//! The catalog is partitioned across worker processes by the seeded
//! consistent-hash [`Ring`]: every video has exactly one owning shard.
//! The router speaks the same length-prefixed JSON protocol on both
//! sides — clients connect to it exactly as they would to a single
//! `cobra-serve`, and it forwards frames to workers over the same
//! protocol, stamped with a `shard` object carrying the original
//! request id and the shard epoch the router handshook with.
//!
//! The client-facing side rides the same readiness reactor as
//! `cobra-serve` ([`crate::reactor`]): one event-loop thread owns every
//! client socket, and forwarding runs on a small internal worker pool
//! whose completions are queued back to the reactor. Each pooled job
//! checks a set of shard connections out of a shared pool, so shard
//! sockets are never contended by two jobs at once.
//!
//! * **Single-video queries** are forwarded to the owning shard, whose
//!   answer passes through as bytes: the router parses the reply's
//!   envelope (`id`, `ok`, `stamp`, `error`) and *skips* the `result` —
//!   which validates it, so a malformed reply is a retried transport
//!   failure, never relayed — keeping the raw text to frame under the
//!   client's id and to cache.
//! * **Cross-video queries** (`video = "*"`) scatter to every shard and
//!   gather one segment group per video: the shards' `videos` arrays are
//!   split into raw groups and joined in video-name order — the answer
//!   is byte-identical no matter which shard replies first, and to what
//!   one server holding every video answers.
//! * **Worker death never hangs a request**: a dead connection is
//!   retried under the configured [`RetryPolicy`] (queries are
//!   idempotent reads, so re-dispatch is safe); when retries exhaust,
//!   the client gets the typed `shard_unavailable` error, not silence.
//! * **Epochs fence reboots**: workers refuse frames stamped with a
//!   stale epoch, so a router never acts on the answer of a worker
//!   incarnation it has not handshook with.
//! * **Shard stamps arrive, they are not fetched** (DESIGN.md §6f): one
//!   long-lived *feed* connection per shard makes the router a bare
//!   watcher of that worker's stream hub, which pushes the shard's
//!   `(epoch, data_version)` stamp after every commit; every forwarded
//!   reply carries the shard's stamp too. `known[shard]` is the later
//!   of the two while the feed is up, and *unknown* — never
//!   "unchanged" — while it is down.
//! * **The router result cache** is the same
//!   [`ResultCache`](f1_cobra::ResultCache) a worker uses, holding
//!   `result` bodies as text (a hit is an envelope around one), each
//!   guarded by the stamps its replies carried, one per shard it read.
//!   It hits only while every guard stamp equals `known[shard]`: a
//!   write on shard A invalidates exactly the cached answers that read
//!   shard A, and an answer that read a shard whose feed is down misses
//!   and is forwarded — a dead shard surfaces as the typed error, never
//!   as a stale answer.
//! * **Standing `subscribe` queries** run on the same
//!   [`Hub`](crate::stream::Hub) as a worker's, with the router as its
//!   [`Source`]: a scope is a shard and its stamp is `known[shard]`, so
//!   a write on shard A re-issues standing queries to shard A only.
//!
//! Fault site: `router.forward` fires at the top of every forward
//! attempt, simulating a transport failure without touching the real
//! connection — `Times(1)` proves one re-dispatch masks a blip,
//! `Always` proves exhaustion surfaces the typed error.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cobra_obs::Registry;
use f1_cobra::catalog::ChangeFeed;
use f1_cobra::json::{join_groups, read_query_output, split_groups};
use f1_cobra::{ResultCache, RetryPolicy, Stamp};
use serde_json::{json, Reader, Value};

use crate::client::{unwrap_envelope, unwrap_response, Client, ClientError};
use crate::protocol::{
    encode_reply, err_response, ok_frame, ok_response, or_oversize, stamp_from_json, ErrorKind,
    FrameError,
};
use crate::reactor::{self, ConnId, ReactorConfig, ReactorCtl, Service};
use crate::ring::{Ring, DEFAULT_SEED};
use crate::scheduler::{SubmitError, WorkerPool};
use crate::stream::{
    answer_groups, empty_answer, recover, Group, Hub, Source, DEFAULT_PUSH_QUEUE_CAP,
    SWEEP_INTERVAL,
};

/// Read timeout for handshakes (`version` on a forwarding connection,
/// the bare `subscribe` on a feed). Both are answered promptly by a
/// live worker, so one that takes this long means the worker is gone.
const PROBE_TIMEOUT: Duration = Duration::from_secs(5);

/// Forwarding threads of the router's internal pool. Forwards are
/// I/O-bound waits on workers, so the pool runs wider than a CPU-bound
/// one; the queue bounds how many requests may wait behind them.
const ROUTER_WORKERS: usize = 16;
const ROUTER_QUEUE_CAP: usize = 256;

/// How the router is wired.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks a free port (the handle reports it).
    pub addr: String,
    /// Worker addresses, indexed by shard id. The ring is built over
    /// `shards.len()` shards.
    pub shards: Vec<String>,
    /// Ring seed; every router and test using the same seed computes
    /// the same video → shard assignment.
    pub seed: u64,
    /// Per-forward retry policy for dead or rebooted workers.
    pub retry: RetryPolicy,
    /// Enables the router-side result cache.
    pub cache: bool,
    /// Injector behind the `router.forward` site (disarmed by default).
    pub faults: cobra_faults::FaultHandle,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: Vec::new(),
            seed: DEFAULT_SEED,
            retry: RetryPolicy {
                max_retries: 2,
                backoff_ms: 50,
            },
            cache: true,
            faults: cobra_faults::FaultHandle::default(),
        }
    }
}

/// Everything the router's threads share — and, as the [`Source`] of
/// the standing-query hub, where the hub gets shard stamps and answers.
struct RouterShared {
    ring: Ring,
    /// Current worker addresses, indexed by shard id. Mutable so a
    /// restarted worker (fresh port) can be re-pointed without
    /// restarting the router.
    addrs: Mutex<Vec<String>>,
    retry: RetryPolicy,
    faults: cobra_faults::FaultHandle,
    registry: Arc<Registry>,
    /// Cached `result` bodies, as the shards encoded them.
    cache: Option<ResultCache<String>>,
    shutting_down: AtomicBool,
    /// Per shard: the latest stamp seen on its feed or on a forwarded
    /// reply; `None` while the feed connection is down.
    known: Mutex<Vec<Option<Stamp>>>,
    /// Ticks whenever `known` changes; the hub's notifier waits on it.
    moved: ChangeFeed,
    /// Idle shard-connection sets. A pooled job (or a hub evaluation)
    /// checks one out for its whole run, so no two users ever share a
    /// shard socket (which the stale-id skip in [`attempt_once`]
    /// depends on).
    conn_sets: Mutex<Vec<Vec<ShardConn>>>,
    /// The feed threads, one per shard, once the first request that
    /// needs a shard has started them.
    feeds: Mutex<Vec<JoinHandle<()>>>,
}

impl RouterShared {
    /// Starts the shard feeds on first use. Like the forwarding
    /// connections, nothing is dialed until a request needs a shard — a
    /// router that only answers pings owes its workers no connections.
    fn ensure_feeds(self: &Arc<Self>) {
        let mut feeds = recover(&self.feeds);
        if !feeds.is_empty() || self.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        for shard in 0..self.ring.shards() {
            let shared = Arc::clone(self);
            let spawned = std::thread::Builder::new()
                .name(format!("cobra-router-feed-{shard}"))
                .spawn(move || follow_shard(&shared, shard));
            feeds.extend(spawned);
        }
    }

    fn checkout(&self) -> Vec<ShardConn> {
        recover(&self.conn_sets).pop().unwrap_or_else(|| {
            (0..self.ring.shards())
                .map(|shard| ShardConn {
                    shard,
                    client: None,
                    epoch: 0,
                })
                .collect()
        })
    }

    fn checkin(&self, set: Vec<ShardConn>) {
        let mut sets = recover(&self.conn_sets);
        if sets.len() < ROUTER_WORKERS {
            sets.push(set);
        }
    }

    fn addr_of(&self, shard: u32) -> Result<String, String> {
        recover(&self.addrs)
            .get(shard as usize)
            .cloned()
            .ok_or_else(|| format!("shard {shard} is not on the ring"))
    }

    /// `shard`'s current stamp, `None` while its feed is down.
    fn known(&self, shard: u32) -> Option<Stamp> {
        recover(&self.known).get(shard as usize).copied().flatten()
    }

    /// The feed (re)connected with `stamp`, or dropped (`None`).
    /// `router.feeds_up` counts the shards whose stamp is known.
    fn set_known(&self, shard: u32, stamp: Option<Stamp>) {
        let up = {
            let mut known = recover(&self.known);
            if let Some(slot) = known.get_mut(shard as usize) {
                *slot = stamp;
            }
            known.iter().flatten().count()
        };
        self.registry.gauge("router.feeds_up", &[]).set(up as i64);
        self.moved.bump();
    }

    /// A stamp frame or a forwarded reply reported `stamp`: keep the
    /// later one. A reply cannot resurrect a stamp the feed has lost —
    /// while the feed is down the shard stays unknown.
    fn observe(&self, shard: u32, stamp: Stamp) {
        let raised = match recover(&self.known).get_mut(shard as usize) {
            Some(Some(known)) if stamp > *known => {
                *known = stamp;
                true
            }
            _ => false,
        };
        if raised {
            self.moved.bump();
        }
    }
}

/// Follows one shard's stamp for the life of the router: connect,
/// register as a bare watcher of the shard's hub, then apply every
/// stamp frame it pushes. Any transport trouble marks the shard's stamp
/// unknown and reconnects under the router's [`RetryPolicy`] backoff;
/// the fresh handshake's stamp (a new epoch after a reboot) is just
/// another stamp mismatch to everyone comparing.
fn follow_shard(shared: &RouterShared, shard: u32) {
    let down = || shared.shutting_down.load(Ordering::SeqCst);
    while !down() {
        if let Ok(mut feed) = open_feed(shared, shard) {
            // Stamp frames arrive whenever the shard commits; the read
            // timeout only bounds how long a quiet feed takes to notice
            // the router shutting down.
            let _ = feed.set_timeout(Some(SWEEP_INTERVAL));
            loop {
                match feed.recv() {
                    Ok(frame) => {
                        if let Some(stamp) = frame.get("result").and_then(stamp_from_json) {
                            shared.observe(shard, stamp);
                        }
                    }
                    Err(ClientError::Transport(FrameError::Io(e)))
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) && !down() => {}
                    Err(_) => break,
                }
            }
            shared.set_known(shard, None);
        }
        std::thread::sleep(Duration::from_millis(shared.retry.backoff_ms.max(1)));
    }
}

/// Opens `shard`'s feed: the `subscribed` answer to the bare `subscribe`
/// is the handshake and carries the shard's current stamp.
fn open_feed(shared: &RouterShared, shard: u32) -> Result<Client, String> {
    let mut feed = Client::connect(shared.addr_of(shard)?).map_err(|e| e.to_string())?;
    let _ = feed.set_timeout(Some(PROBE_TIMEOUT));
    let id = feed
        .send(json!({"cmd": "subscribe", "video": "*"}))
        .map_err(|e| e.to_string())?;
    loop {
        let response = feed.recv().map_err(|e| e.to_string())?;
        if response.get("id").and_then(Value::as_u64) != Some(id) {
            continue;
        }
        let subscribed = unwrap_response(response).map_err(|e| e.to_string())?;
        let stamp = stamp_from_json(&subscribed)
            .ok_or_else(|| format!("shard {shard} subscribed the feed without a stamp"))?;
        shared.set_known(shard, Some(stamp));
        return Ok(feed);
    }
}

impl Source for RouterShared {
    type Scope = u32;

    fn scopes(&self, video: &str) -> Vec<u32> {
        if video == "*" {
            (0..self.ring.shards()).collect()
        } else {
            vec![self.ring.owner(video)]
        }
    }

    fn stamp(&self, shard: &u32) -> Result<Stamp, String> {
        self.known(*shard)
            .ok_or_else(|| format!("the stamp feed from shard {shard} is down"))
    }

    fn eval(&self, shard: &u32, video: &str, text: &str) -> Result<Vec<Group>, String> {
        let body = json!({"cmd": "query", "video": (video), "text": (text)});
        let mut conns = self.checkout();
        let outcome = forward_to(self, &mut conns, *shard, &body, 0, None);
        self.checkin(conns);
        match outcome {
            Ok(reply) => Ok(read_query_output(&mut Reader::new(&reply.result))
                .ok()
                .flatten()
                .map_or_else(Vec::new, |output| answer_groups(video, output))),
            Err((ErrorKind::ShardUnavailable, why)) => Err(why),
            Err(_) => {
                // A logical error (video not ingested yet, …): the
                // subscription arms over the empty answer.
                self.registry.counter("stream.eval_errors", &[]).inc();
                Ok(empty_answer(video))
            }
        }
    }

    fn wait(&self, seen: u64, timeout: Duration) -> u64 {
        self.moved.wait_past(seen, timeout).unwrap_or(seen)
    }
}

/// Everything the reactor-facing service and its pooled jobs share.
struct RouterInner {
    shared: Arc<RouterShared>,
    ctl: ReactorCtl,
    pool: WorkerPool,
    hub: Arc<Hub<RouterShared>>,
}

/// The reactor-facing half of the router: frames in, closes out.
struct RouterService {
    inner: Arc<RouterInner>,
}

impl Service for RouterService {
    fn on_frame(&self, conn: ConnId, frame: Value) {
        let inner = &self.inner;
        let id = frame.get("id").and_then(Value::as_u64).unwrap_or(0);
        let cmd = frame.get("cmd").and_then(Value::as_str).unwrap_or("");
        if !cmd.is_empty() {
            inner
                .shared
                .registry
                .counter("serve.requests", &[("cmd", cmd)])
                .inc();
        }
        if cmd == "ping" {
            // Cheap liveness answer straight off the reactor; nothing
            // shard-shaped to wait for.
            let pong = ok_response(id, json!({"kind": "pong"}));
            inner.ctl.send(conn, encode_reply(&pong));
            return;
        }
        let job = Arc::clone(inner);
        let outcome = inner.pool.try_submit(Box::new(move || {
            job.shared.ensure_feeds();
            let mut conns = job.shared.checkout();
            let response = handle_request(&job.shared, &mut conns, &job.hub, conn, id, &frame)
                .unwrap_or_else(|fail| refuse(id, fail));
            job.shared.checkin(conns);
            job.ctl.send(conn, response);
        }));
        if let Err(e) = outcome {
            let (kind, message) = match e {
                SubmitError::Overloaded { queue_cap } => (
                    ErrorKind::Overloaded,
                    format!("router queue full ({queue_cap} waiting); retry with backoff"),
                ),
                SubmitError::ShuttingDown => {
                    (ErrorKind::ShuttingDown, "router is shutting down".into())
                }
            };
            inner
                .shared
                .registry
                .counter("serve.rejected", &[("kind", kind.as_str())])
                .inc();
            inner.ctl.send(conn, refuse(id, (kind, message)));
        }
    }

    fn on_close(&self, conn: ConnId) {
        self.inner.hub.drop_conn(conn);
    }
}

/// A running router. Dropping the handle without calling
/// [`shutdown`](Self::shutdown) leaves it running detached.
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    inner: Arc<RouterInner>,
    reactor_thread: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound address (with the real port when the config said 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The router's own metrics registry (`router.forward`,
    /// `cache.result`, `serve.requests` series).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.registry)
    }

    /// Re-points `shard` at a new worker address (a restarted worker
    /// binds a fresh port). Jobs notice on their next forward: the
    /// old connection errors, and the retry reconnects here; the
    /// shard's feed finds it on its next reconnect attempt.
    pub fn set_shard_addr(&self, shard: u32, addr: impl Into<String>) {
        if let Some(slot) = recover(&self.shared.addrs).get_mut(shard as usize) {
            *slot = addr.into();
        }
    }

    /// Stops accepting, drains in-flight forwards, flushes and closes
    /// every client connection, joins the reactor. Workers are
    /// external processes and are not touched.
    pub fn shutdown(mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.inner.ctl.drain();
        self.inner.hub.close();
        self.inner.pool.shutdown();
        self.inner.ctl.stop();
        let feeds = std::mem::take(&mut *recover(&self.shared.feeds));
        for t in self.reactor_thread.take().into_iter().chain(feeds) {
            let _ = t.join();
        }
    }
}

/// Starts the router over the configured worker addresses.
pub fn start(config: RouterConfig) -> std::io::Result<RouterHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let registry = Arc::new(Registry::new());
    let cache = config.cache.then(|| ResultCache::new(&registry));
    let shared = Arc::new(RouterShared {
        ring: Ring::new(config.shards.len() as u32, config.seed),
        addrs: Mutex::new(config.shards.clone()),
        retry: config.retry,
        faults: config.faults,
        registry: Arc::clone(&registry),
        cache,
        shutting_down: AtomicBool::new(false),
        known: Mutex::new(vec![None; config.shards.len()]),
        moved: ChangeFeed::default(),
        conn_sets: Mutex::new(Vec::new()),
        feeds: Mutex::new(Vec::new()),
    });
    let ctl = ReactorCtl::new()?;
    let pool = WorkerPool::new(ROUTER_WORKERS, ROUTER_QUEUE_CAP, &registry)?;
    let hub = Hub::new(
        Arc::clone(&shared),
        Arc::clone(&registry),
        ctl.clone(),
        DEFAULT_PUSH_QUEUE_CAP,
    );
    let inner = Arc::new(RouterInner {
        shared: Arc::clone(&shared),
        ctl: ctl.clone(),
        pool,
        hub,
    });
    let reactor_thread = reactor::spawn(
        listener,
        &ctl,
        ReactorConfig {
            name: "cobra-router-reactor".into(),
            idle_timeout: None,
            sndbuf: None,
        },
        &registry,
        Arc::new(RouterService {
            inner: Arc::clone(&inner),
        }),
    )?;
    Ok(RouterHandle {
        addr,
        shared,
        inner,
        reactor_thread: Some(reactor_thread),
    })
}

/// One connection to one shard, plus the epoch handshook at connect
/// time. Whoever forwards checks a whole set out, so shard sockets are
/// never contended.
struct ShardConn {
    shard: u32,
    client: Option<Client>,
    epoch: u64,
}

/// A typed failure, as it will appear on the wire.
type Fail = (ErrorKind, String);

/// A worker's answer to a forwarded frame: the `result` as the worker
/// encoded it (validated, not parsed), plus the stamp the worker
/// attached to the envelope (read before a query executed, after a
/// write committed).
struct Reply {
    result: String,
    stamp: Option<Stamp>,
}

/// What one forward attempt concluded.
enum Attempt {
    /// A definitive answer (success or a typed logical error) — stop.
    Done(Result<Reply, Fail>),
    /// Transport-level trouble — worth another attempt.
    Retry(String),
}

/// Connects to the shard's current address and handshakes the epoch.
fn connect_shard(shared: &RouterShared, conn: &mut ShardConn) -> Result<(), String> {
    let addr = shared.addr_of(conn.shard)?;
    let client = Client::connect(&addr)
        .map_err(|e| format!("connect to shard {} at {addr}: {e}", conn.shard))?;
    let _ = client.set_timeout(Some(PROBE_TIMEOUT));
    let mut client = client;
    let version = client
        .version()
        .map_err(|e| format!("handshake with shard {} at {addr}: {e}", conn.shard))?;
    let stamp = stamp_from_json(&version)
        .ok_or_else(|| format!("shard {} answered a malformed version frame", conn.shard))?;
    conn.client = Some(client);
    conn.epoch = stamp.epoch;
    Ok(())
}

/// Runs one forward attempt against the shard's live connection.
fn attempt_once(
    shared: &RouterShared,
    conn: &mut ShardConn,
    body: &Value,
    req_id: u64,
    deadline_at: Option<Instant>,
) -> Attempt {
    // The injectable transport failure: the connection is left intact,
    // only this attempt is declared lost.
    if let Err(e) = shared.faults.fire("router.forward") {
        return Attempt::Retry(format!("injected transport fault: {e}"));
    }
    if let Some(at) = deadline_at {
        if Instant::now() >= at {
            return Attempt::Done(Err((
                ErrorKind::Deadline,
                "deadline lapsed while routing".into(),
            )));
        }
    }
    if conn.client.is_none() {
        if let Err(e) = connect_shard(shared, conn) {
            return Attempt::Retry(e);
        }
    }
    let Some(client) = conn.client.as_mut() else {
        return Attempt::Retry(format!("shard {} has no connection", conn.shard));
    };

    let mut frame = body.clone();
    if let Value::Object(map) = &mut frame {
        // Stamp the interconnect frame: original request id for
        // tracing, handshook epoch so a rebooted worker refuses it.
        map.insert(
            "shard".into(),
            json!({"req": (req_id as f64), "epoch": (conn.epoch as f64)}),
        );
        if let Some(at) = deadline_at {
            // The worker gets what is *left* of the client's deadline —
            // routing and queue time already consumed the rest.
            let remaining = at
                .saturating_duration_since(Instant::now())
                .as_millis()
                .max(1) as u64;
            map.insert("deadline_ms".into(), Value::Number(remaining as f64));
        }
    }
    // Bound the read so a lapsed deadline surfaces even if the worker
    // stalls; without a deadline, rely on the kernel resetting the
    // connection when the worker process dies (SIGKILL included).
    let read_timeout = deadline_at
        .map(|at| at.saturating_duration_since(Instant::now()) + Duration::from_millis(500));
    let _ = client.set_timeout(read_timeout);

    // Only the envelope is parsed; skipping the result validates it, so
    // a malformed reply fails here, as a transport failure.
    let envelope = match client.exchange(frame, |r| r.skip().map(str::to_owned)) {
        Ok(envelope) => envelope,
        Err(e) => {
            conn.client = None;
            return Attempt::Retry(format!("exchange with shard {}: {e}", conn.shard));
        }
    };
    let stamp = envelope.stamp;
    match unwrap_envelope(envelope) {
        Ok(result) => {
            if let Some(stamp) = stamp {
                shared.observe(conn.shard, stamp);
            }
            Attempt::Done(Ok(Reply { result, stamp }))
        }
        Err(ClientError::Server {
            kind: ErrorKind::ShardUnavailable,
            message,
        }) => {
            // The worker rebooted past the epoch we stamped: drop
            // the connection so the next attempt re-handshakes.
            conn.client = None;
            Attempt::Retry(format!("shard {} fenced the epoch: {message}", conn.shard))
        }
        Err(ClientError::Server { kind, message }) => Attempt::Done(Err((kind, message))),
        Err(e) => {
            conn.client = None;
            Attempt::Retry(format!("shard {} answered garbage: {e}", conn.shard))
        }
    }
}

/// Forwards `body` to the shard behind `conn`, retrying transport
/// failures under the router's [`RetryPolicy`]. Returns the worker's
/// reply, or a typed error — never hangs past the deadline.
fn forward(
    shared: &RouterShared,
    conn: &mut ShardConn,
    body: &Value,
    req_id: u64,
    deadline_at: Option<Instant>,
) -> Result<Reply, Fail> {
    let attempts = 1 + shared.retry.max_retries;
    let mut last = String::from("no attempt made");
    for attempt in 0..attempts {
        if attempt > 0 {
            shared
                .registry
                .counter("router.forward", &[("result", "retried")])
                .inc();
            if shared.retry.backoff_ms > 0 {
                std::thread::sleep(Duration::from_millis(shared.retry.backoff_ms));
            }
        }
        match attempt_once(shared, conn, body, req_id, deadline_at) {
            Attempt::Done(Ok(reply)) => {
                shared
                    .registry
                    .counter("router.forward", &[("result", "ok")])
                    .inc();
                return Ok(reply);
            }
            Attempt::Done(Err(e)) => return Err(e),
            Attempt::Retry(why) => last = why,
        }
    }
    shared
        .registry
        .counter("router.forward", &[("result", "failed")])
        .inc();
    Err((
        ErrorKind::ShardUnavailable,
        format!(
            "shard {} unavailable after {attempts} attempts: {last}",
            conn.shard
        ),
    ))
}

/// Forwards `body` to every shard concurrently; results come back in
/// shard order regardless of completion order.
fn scatter(
    shared: &RouterShared,
    conns: &mut [ShardConn],
    body: &Value,
    req_id: u64,
    deadline_at: Option<Instant>,
) -> Vec<Result<Reply, Fail>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let body = body.clone();
                s.spawn(move || forward(shared, conn, &body, req_id, deadline_at))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err((ErrorKind::Internal, "scatter thread panicked".into()))
                })
            })
            .collect()
    })
}

/// Merges per-shard `multi` answers into one, ordered by video name:
/// every shard's `videos` array is split into its groups' raw texts,
/// which are joined into one array, parsed no further than each group's
/// `video` name.
fn splice_multi(replies: &[Reply]) -> Result<String, Fail> {
    let mut groups = Vec::new();
    for reply in replies {
        groups.extend(split_groups(&reply.result).ok_or((
            ErrorKind::Internal,
            "a shard answered a cross-video query without segment groups".to_string(),
        ))?);
    }
    // Deterministic merge ordering: the gather order is completion
    // order, so impose video-name order before anyone sees the answer.
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(join_groups(groups.iter().map(|g| g.1)))
}

/// Scatters the argument-less control command `cmd` and decodes the
/// `result` objects.
fn gather(
    shared: &RouterShared,
    conns: &mut [ShardConn],
    cmd: &str,
    req_id: u64,
) -> Vec<Result<Value, Fail>> {
    scatter(shared, conns, &json!({"cmd": (cmd)}), req_id, None)
        .into_iter()
        .map(|reply| {
            serde_json::from_str(&reply?.result).map_err(|e| (ErrorKind::Internal, e.to_string()))
        })
        .collect()
}

/// [`forward`] over `shard`'s connection of a checked-out set.
fn forward_to(
    shared: &RouterShared,
    conns: &mut [ShardConn],
    shard: u32,
    body: &Value,
    req_id: u64,
    deadline_at: Option<Instant>,
) -> Result<Reply, Fail> {
    match conns.get_mut(shard as usize) {
        Some(conn) => forward(shared, conn, body, req_id, deadline_at),
        None => Err((ErrorKind::Internal, format!("shard {shard} out of range"))),
    }
}

/// The frame that passes a `result` body — a shard's, or the cache's —
/// on to the client under its request's id.
fn pass(id: u64, body: &str) -> Vec<u8> {
    or_oversize(id, ok_frame(id, body.as_bytes(), None))
}

/// The frame that answers request `id` with a typed failure.
fn refuse(id: u64, (kind, message): Fail) -> Vec<u8> {
    encode_reply(&err_response(id, kind, message))
}

fn handle_query(
    shared: &RouterShared,
    conns: &mut [ShardConn],
    id: u64,
    request: &Value,
) -> Result<Vec<u8>, Fail> {
    let (Some(video), Some(text)) = (
        request.get("video").and_then(Value::as_str),
        request.get("text").and_then(Value::as_str),
    ) else {
        let why = "query needs string fields 'video' and 'text'";
        return Err((ErrorKind::BadRequest, why.into()));
    };
    let deadline_at = request
        .get("deadline_ms")
        .and_then(Value::as_u64)
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let owner = (video != "*").then(|| shared.ring.owner(video));

    // Cache eligibility mirrors the worker's single-flight rule: only
    // plain retrievals without per-request limits, and only statements
    // that parse (so the key is the *normalized* text).
    let limited = request.get("deadline_ms").is_some() || request.get("fuel").is_some();
    let normalized = match (!limited).then(|| f1_cobra::parse_statement(text)) {
        Some(Ok(s @ f1_cobra::Statement::Retrieve(_))) => Some(s.normalized()),
        _ => None,
    };
    let cached = shared.cache.as_ref().zip(normalized);
    if let Some((cache, normalized)) = &cached {
        // The shards this answer reads, in the order its guard lists them.
        let reads = shared.scopes(video);
        let current: Option<Vec<Stamp>> = reads.iter().map(|&s| shared.known(s)).collect();
        if let Some(hit) = cache.lookup(video, normalized, current.as_deref()) {
            return Ok(pass(id, &hit.value));
        }
    }

    let mut body = json!({"cmd": "query", "video": (video), "text": (text)});
    if let (Value::Object(map), Some(fuel)) = (&mut body, request.get("fuel")) {
        map.insert("fuel".into(), fuel.clone());
    }
    let mut replies: Vec<Reply> = match owner {
        Some(shard) => vec![forward_to(shared, conns, shard, &body, id, deadline_at)?],
        // The lowest failed shard id decides the error.
        None => scatter(shared, conns, &body, id, deadline_at)
            .into_iter()
            .collect::<Result<_, _>>()?,
    };
    // The guard is the stamps the replies themselves carried — read by
    // each shard before it executed — never `known`, which a concurrent
    // write's ack may already have raised past them.
    let guard: Option<Vec<Stamp>> = replies.iter().map(|r| r.stamp).collect();
    let result = match owner {
        Some(_) => replies.swap_remove(0).result,
        None => splice_multi(&replies)?,
    };
    // A spliced answer can come out over the frame cap its parts were
    // under; one that cannot be sent is not worth keeping either.
    let built = ok_frame(id, result.as_bytes(), None);
    if let (Ok(_), Some((cache, normalized)), Some(guard)) = (&built, &cached, guard) {
        let bytes = result.len();
        cache.store(video, normalized, result, guard, bytes);
    }
    Ok(or_oversize(id, built))
}

/// Answers one request with an encoded frame. Queries and write acks
/// pass the shard's `result` through as bytes; the control commands
/// aggregate small per-shard trees.
fn handle_request(
    shared: &RouterShared,
    conns: &mut [ShardConn],
    hub: &Arc<Hub<RouterShared>>,
    conn_id: ConnId,
    id: u64,
    request: &Value,
) -> Result<Vec<u8>, Fail> {
    let Some(cmd) = request.get("cmd").and_then(Value::as_str) else {
        return Err((ErrorKind::BadRequest, "missing 'cmd'".into()));
    };
    let response = match cmd {
        "query" => return handle_query(shared, conns, id, request),
        "write_event" => {
            // Forwarded to the owner; the worker enforces its own debug
            // gate. The router cache needs no eager invalidation — the
            // ack carries the shard's post-commit stamp, which raises
            // `known` before the client sees the ack, so every cached
            // answer that read this shard fails its next guard check.
            let Some(video) = request.get("video").and_then(Value::as_str) else {
                return Err((ErrorKind::BadRequest, "write_event needs 'video'".into()));
            };
            let mut body = request.clone();
            if let Value::Object(map) = &mut body {
                map.remove("id");
                map.remove("shard");
            }
            let ack = forward_to(shared, conns, shared.ring.owner(video), &body, id, None)?;
            return Ok(pass(id, &ack.result));
        }
        "version" => {
            // The aggregated topology view: one entry per shard, in
            // shard order, with the address the router would dial.
            let results = gather(shared, conns, "version", id);
            let addrs = recover(&shared.addrs).clone();
            let mut entries = Vec::with_capacity(results.len());
            for (shard, result) in results.into_iter().enumerate() {
                let addr = addrs.get(shard).cloned().unwrap_or_default();
                match result {
                    Ok(mut version) => {
                        if let Value::Object(map) = &mut version {
                            map.insert("shard".into(), Value::Number(shard as f64));
                            map.insert("addr".into(), Value::String(addr));
                        }
                        entries.push(version);
                    }
                    Err((kind, message)) => entries.push(json!({
                        "shard": (shard as f64),
                        "addr": (addr),
                        "error": {"kind": (kind.as_str()), "message": (message)},
                    })),
                }
            }
            ok_response(
                id,
                json!({
                    "kind": "version",
                    "seed": (shared.ring.seed() as f64),
                    "shards": (Value::Array(entries)),
                }),
            )
        }
        "videos" => {
            let results = gather(shared, conns, "videos", id);
            let mut names: Vec<String> = Vec::new();
            for result in results {
                if let Some(list) = result?.get("videos").and_then(Value::as_array) {
                    names.extend(list.iter().filter_map(Value::as_str).map(str::to_string));
                }
            }
            names.sort();
            names.dedup();
            ok_response(id, json!({"kind": "videos", "videos": (names)}))
        }
        "stats" => {
            // The router's own snapshot, with every reachable shard's
            // snapshot attached. A dead shard degrades to an error
            // entry rather than failing the whole answer: stats is the
            // command you run *while* a shard is down.
            let results = gather(shared, conns, "stats", id);
            let entries: Vec<Value> = results
                .into_iter()
                .enumerate()
                .map(|(shard, result)| match result {
                    Ok(v) => json!({
                        "shard": (shard as f64),
                        "snapshot": (v.get("snapshot").cloned().unwrap_or(Value::Null)),
                    }),
                    Err((kind, message)) => json!({
                        "shard": (shard as f64),
                        "error": {"kind": (kind.as_str()), "message": (message)},
                    }),
                })
                .collect();
            ok_response(
                id,
                json!({
                    "kind": "stats",
                    "snapshot": (shared.registry.snapshot().to_json()),
                    "shards": (Value::Array(entries)),
                }),
            )
        }
        "checkpoint" => {
            let results = gather(shared, conns, "checkpoint", id);
            let mut entries = Vec::with_capacity(results.len());
            let mut durable = false;
            for (shard, result) in results.into_iter().enumerate() {
                let mut v = result?;
                durable |= v.get("durable").and_then(Value::as_bool).unwrap_or(false);
                if let Value::Object(map) = &mut v {
                    map.insert("shard".into(), Value::Number(shard as f64));
                }
                entries.push(v);
            }
            ok_response(
                id,
                json!({
                    "kind": "checkpoint",
                    "durable": (durable),
                    "shards": (Value::Array(entries)),
                }),
            )
        }
        "subscribe" => hub.subscribe(conn_id, id, request),
        "unsubscribe" => hub.unsubscribe(conn_id, id, request),
        other => return Err((
            ErrorKind::BadRequest,
            format!("unknown command '{other}' (the router speaks ping, version, videos, stats, checkpoint, query, subscribe, unsubscribe, write_event)"),
        )),
    };
    Ok(encode_reply(&response))
}
