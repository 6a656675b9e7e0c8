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
//! * **Cross-video queries** (`video = "*"`) are answered in *parts*,
//!   one `result` body per shard, whose `videos` arrays are split into
//!   raw groups and joined in video-name order — byte-identical to what
//!   one server holding every video answers. Only shards whose part is
//!   not cached are asked, on the job's own thread: one is a plain
//!   forward, several are written to first and then read in shard order.
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
//!   [`ResultCache`](f1_cobra::ResultCache) a worker uses, holding what
//!   one shard answered, as text — a single video's `result` body (a hit
//!   is an envelope around it) or a part (a cached sweep is one splice)
//!   — guarded by the stamp that reply carried. It hits only while the
//!   guard equals `known[shard]`: a write on shard A voids exactly what
//!   read shard A, so the next sweep re-asks shard A alone, and what
//!   read a shard whose feed is down misses and is forwarded — a dead
//!   shard surfaces as the typed error, never as a stale answer.
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
    /// shard socket (which the stale-id skip in [`recv_attempt`]
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
                    read_timeout: None,
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
        let outcome = scatter(self, &mut conns, &[*shard], body, 0, None).next();
        self.checkin(conns);
        match outcome {
            Some(Ok(reply)) => Ok(read_query_output(&mut Reader::new(&reply.result))
                .ok()
                .flatten()
                .map_or_else(Vec::new, |output| answer_groups(video, output))),
            Some(Err((ErrorKind::ShardUnavailable, why))) => Err(why),
            _ => {
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

/// One connection to one shard of a checked-out set, plus the epoch
/// handshook at connect time.
struct ShardConn {
    shard: u32,
    client: Option<Client>,
    epoch: u64,
    /// The read timeout last set on `client`'s socket: setting one is a
    /// system call, made only when the value changes.
    read_timeout: Option<Duration>,
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
    let mut client = Client::connect(&addr)
        .map_err(|e| format!("connect to shard {} at {addr}: {e}", conn.shard))?;
    let _ = client.set_timeout(Some(PROBE_TIMEOUT));
    let version = client
        .version()
        .map_err(|e| format!("handshake with shard {} at {addr}: {e}", conn.shard))?;
    let stamp = stamp_from_json(&version)
        .ok_or_else(|| format!("shard {} answered a malformed version frame", conn.shard))?;
    conn.client = Some(client);
    conn.epoch = stamp.epoch;
    conn.read_timeout = Some(PROBE_TIMEOUT);
    Ok(())
}

/// The send half of one forward attempt: fires the fault site, checks
/// the deadline, (re)connects, and writes `body` stamped for this shard.
/// Returns the reply's id — or, nothing sent, what the attempt concluded.
fn send_attempt(
    shared: &RouterShared,
    conn: &mut ShardConn,
    body: &Value,
    req_id: u64,
    deadline_at: Option<Instant>,
) -> Result<u64, Attempt> {
    // The injectable transport failure: the connection is left intact,
    // only this attempt is declared lost.
    if let Err(e) = shared.faults.fire("router.forward") {
        return Err(Attempt::Retry(format!("injected transport fault: {e}")));
    }
    if deadline_at.is_some_and(|at| Instant::now() >= at) {
        let lapsed = (ErrorKind::Deadline, "deadline lapsed while routing".into());
        return Err(Attempt::Done(Err(lapsed)));
    }
    if conn.client.is_none() {
        connect_shard(shared, conn).map_err(Attempt::Retry)?;
    }
    let Some(client) = conn.client.as_mut() else {
        let why = format!("shard {} has no connection", conn.shard);
        return Err(Attempt::Retry(why));
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
    client.send(frame).map_err(|e| {
        conn.client = None;
        Attempt::Retry(format!("send to shard {}: {e}", conn.shard))
    })
}

/// The receive half: blocks for the reply to the frame sent as `sent`,
/// skipping whatever an abandoned earlier request left on the
/// connection.
fn recv_attempt(
    shared: &RouterShared,
    conn: &mut ShardConn,
    sent: u64,
    deadline_at: Option<Instant>,
) -> Attempt {
    let Some(client) = conn.client.as_mut() else {
        return Attempt::Retry(format!("shard {} has no connection", conn.shard));
    };
    // Bound the read so a lapsed deadline surfaces even if the worker
    // stalls: every read of a request, over all its shards and retries,
    // ends by the one instant `deadline_at + 500 ms`. Without a
    // deadline, rely on the kernel resetting the connection when the
    // worker process dies (SIGKILL included).
    let read_timeout = deadline_at.map(|at| {
        (at + Duration::from_millis(500))
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(1))
    });
    if read_timeout != conn.read_timeout && client.set_timeout(read_timeout).is_ok() {
        conn.read_timeout = read_timeout;
    }

    // Only the envelope is parsed; skipping the result validates it, so
    // a malformed reply fails here, as a transport failure.
    let answered = client
        .await_reply(sent, |r| r.skip().map(str::to_owned))
        .and_then(|envelope| Ok((envelope.stamp, unwrap_envelope(envelope)?)));
    let why = match answered {
        Ok((stamp, result)) => {
            if let Some(stamp) = stamp {
                shared.observe(conn.shard, stamp);
            }
            return Attempt::Done(Ok(Reply { result, stamp }));
        }
        // The worker rebooted past the epoch we stamped.
        Err(ClientError::Server {
            kind: ErrorKind::ShardUnavailable,
            message,
        }) => format!("shard {} fenced the epoch: {message}", conn.shard),
        Err(ClientError::Server { kind, message }) => return Attempt::Done(Err((kind, message))),
        Err(e) => format!("exchange with shard {}: {e}", conn.shard),
    };
    // A fence, a dead socket or garbage: drop the connection, so the
    // next attempt re-handshakes.
    conn.client = None;
    Attempt::Retry(why)
}

/// Forwards `body` to the shard behind `conn`, retrying transport
/// failures under the router's [`RetryPolicy`]; `sent` is a first
/// attempt whose send half a [`scatter`] already ran, and counts against
/// the same `1 + max_retries`. Returns the worker's reply, or a typed
/// error — never hangs past the deadline.
fn forward(
    shared: &RouterShared,
    conn: &mut ShardConn,
    body: &Value,
    req_id: u64,
    deadline_at: Option<Instant>,
    mut sent: Option<Result<u64, Attempt>>,
) -> Result<Reply, Fail> {
    let forwards = |result| {
        shared
            .registry
            .counter("router.forward", &[("result", result)])
    };
    let attempts = 1 + shared.retry.max_retries;
    let mut last = String::from("no attempt made");
    for attempt in 0..attempts {
        if attempt > 0 {
            forwards("retried").inc();
            if shared.retry.backoff_ms > 0 {
                std::thread::sleep(Duration::from_millis(shared.retry.backoff_ms));
            }
        }
        let sent = sent
            .take()
            .unwrap_or_else(|| send_attempt(shared, conn, body, req_id, deadline_at));
        let concluded = match sent {
            Ok(id) => recv_attempt(shared, conn, id, deadline_at),
            Err(concluded) => concluded,
        };
        match concluded {
            Attempt::Done(Ok(reply)) => {
                forwards("ok").inc();
                return Ok(reply);
            }
            Attempt::Done(Err(e)) => return Err(e),
            Attempt::Retry(why) => last = why,
        }
    }
    forwards("failed").inc();
    let shard = conn.shard;
    let why = format!("shard {shard} unavailable after {attempts} attempts: {last}");
    Err((ErrorKind::ShardUnavailable, why))
}

/// Forwards `body` to the shards in `asks`, on the calling thread, and
/// yields their replies in shard order. One shard is a plain
/// [`forward`]. Several have their frames written before any reply is
/// read, so they work at the same time; a shard whose first attempt is
/// lost spends the rest of its retry budget in an ordinary `forward`.
/// Replies are read as the iterator is driven: a strict caller stops at
/// the first failure (the lowest failed shard id decides its error)
/// without retrying any later shard, and the replies it leaves unread
/// are skipped by id by the connections' next user.
fn scatter<'a>(
    shared: &'a RouterShared,
    conns: &'a mut [ShardConn],
    asks: &[u32],
    body: Value,
    req_id: u64,
    deadline_at: Option<Instant>,
) -> impl Iterator<Item = Result<Reply, Fail>> + 'a {
    let pipelined = asks.len() > 1;
    let sent: Vec<_> = conns
        .iter_mut()
        .filter(|conn| asks.contains(&conn.shard))
        .map(|conn| {
            let first = pipelined.then(|| send_attempt(shared, conn, &body, req_id, deadline_at));
            (conn, first)
        })
        .collect();
    sent.into_iter()
        .map(move |(conn, first)| forward(shared, conn, &body, req_id, deadline_at, first))
}

/// Merges the shards' parts of a `multi` answer into one, ordered by
/// video name: every part's `videos` array is split into its groups'
/// raw texts, which are joined into one array, parsed no further than
/// each group's `video` name.
fn splice_multi(parts: &[&str]) -> Result<String, Fail> {
    let mut groups = Vec::new();
    for part in parts {
        groups.extend(split_groups(part).ok_or((
            ErrorKind::Internal,
            "a shard answered a cross-video query without segment groups".to_string(),
        ))?);
    }
    // Parts come in shard order; the answer is in video-name order.
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(join_groups(groups.iter().map(|g| g.1)))
}

/// Scatters the argument-less control command `cmd` to every shard and
/// decodes the `result` objects, lazily and in shard order like [`scatter`].
fn gather<'a>(
    shared: &'a RouterShared,
    conns: &'a mut [ShardConn],
    cmd: &str,
    req_id: u64,
) -> impl Iterator<Item = Result<Value, Fail>> + 'a {
    let every = shared.scopes("*");
    scatter(shared, conns, &every, json!({"cmd": (cmd)}), req_id, None).map(|reply| {
        serde_json::from_str(&reply?.result).map_err(|e| (ErrorKind::Internal, e.to_string()))
    })
}

/// A [`scatter`] ran short of replies: a shard id outside the set.
fn no_reply() -> Fail {
    (ErrorKind::Internal, "a shard's reply is missing".into())
}

/// One shard's entry in an aggregated answer, under its shard id: what it
/// answered, or — where a dead shard degrades to an entry — its typed error.
fn shard_entry(shard: usize, answered: Result<Value, Fail>) -> Value {
    let mut entry = answered.unwrap_or_else(
        |(kind, message)| json!({"error": {"kind": (kind.as_str()), "message": (message)}}),
    );
    if let Value::Object(map) = &mut entry {
        map.insert("shard".into(), Value::Number(shard as f64));
    }
    entry
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
    // Cache eligibility mirrors the worker's single-flight rule: only
    // plain retrievals without per-request limits, and only statements
    // that parse (so the key is the *normalized* text).
    let limited = request.get("deadline_ms").is_some() || request.get("fuel").is_some();
    let normalized = match (!limited).then(|| f1_cobra::parse_statement(text)) {
        Some(Ok(s @ f1_cobra::Statement::Retrieve(_))) => Some(s.normalized()),
        _ => None,
    };
    let cached = shared.cache.as_ref().zip(normalized);
    // What each shard this answer reads has to say is one cache entry,
    // keyed by the shard beside the statement and guarded by that
    // shard's stamp: a single video's answer, or a part of a sweep.
    let key = |normalized: &str, shard: u32| format!("{shard} {normalized}");
    let (mut parts, mut asks) = (Vec::new(), Vec::new());
    for shard in shared.scopes(video) {
        let hit = cached
            .as_ref()
            .and_then(|(cache, text)| cache.lookup(video, &key(text, shard), shared.known(shard)));
        if hit.is_none() {
            asks.push(shard);
        }
        parts.push(hit);
    }

    let mut body = json!({"cmd": "query", "video": (video), "text": (text)});
    if let (Value::Object(map), Some(fuel)) = (&mut body, request.get("fuel")) {
        map.insert("fuel".into(), fuel.clone());
    }
    // Queries are strict: the lowest failed shard id decides the error.
    let replies: Vec<Reply> =
        scatter(shared, conns, &asks, body, id, deadline_at).collect::<Result<_, _>>()?;
    let mut fresh = replies.iter().map(|reply| reply.result.as_str());
    let mut texts = Vec::with_capacity(parts.len());
    for part in &parts {
        let held = part.as_ref().map(|hit| hit.value.as_str());
        texts.push(held.or_else(|| fresh.next()).ok_or_else(no_reply)?);
    }
    let frame = match texts.as_slice() {
        [answer] if video != "*" => pass(id, answer),
        texts => pass(id, &splice_multi(texts)?),
    };
    if let Some((cache, normalized)) = &cached {
        for (&shard, reply) in asks.iter().zip(replies) {
            // The guard is the stamp the reply itself carried — read by
            // the shard before it executed — never `known`, which a
            // concurrent write's ack may already have raised past it.
            if let Some(stamp) = reply.stamp {
                let bytes = reply.result.len();
                cache.store(video, &key(normalized, shard), reply.result, stamp, bytes);
            }
        }
    }
    Ok(frame)
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
    let result = match cmd {
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
            let mut acks = scatter(shared, conns, &[shared.ring.owner(video)], body, id, None);
            return Ok(pass(id, &acks.next().ok_or_else(no_reply)??.result));
        }
        "version" => {
            // The aggregated topology view: one entry per shard, in
            // shard order, with the address the router would dial.
            let addrs = recover(&shared.addrs).clone();
            let mut entries = Vec::with_capacity(addrs.len());
            for (shard, (result, addr)) in gather(shared, conns, "version", id)
                .zip(addrs)
                .enumerate()
            {
                let mut entry = shard_entry(shard, result);
                if let Value::Object(map) = &mut entry {
                    map.insert("addr".into(), Value::String(addr));
                }
                entries.push(entry);
            }
            json!({
                "kind": "version",
                "seed": (shared.ring.seed() as f64),
                "shards": (Value::Array(entries)),
            })
        }
        "videos" => {
            let mut names: Vec<String> = Vec::new();
            for result in gather(shared, conns, "videos", id) {
                if let Some(list) = result?.get("videos").and_then(Value::as_array) {
                    names.extend(list.iter().filter_map(Value::as_str).map(str::to_string));
                }
            }
            names.sort();
            names.dedup();
            json!({"kind": "videos", "videos": (names)})
        }
        "stats" => {
            // The router's own snapshot, with every reachable shard's
            // snapshot attached. A dead shard degrades to an error
            // entry rather than failing the whole answer: stats is the
            // command you run *while* a shard is down.
            let entries: Vec<Value> = gather(shared, conns, "stats", id)
                .enumerate()
                .map(|(shard, result)| {
                    let snapshot = |v: Value| v.get("snapshot").cloned().unwrap_or(Value::Null);
                    shard_entry(shard, result.map(|v| json!({"snapshot": (snapshot(v))})))
                })
                .collect();
            json!({
                "kind": "stats",
                "snapshot": (shared.registry.snapshot().to_json()),
                "shards": (Value::Array(entries)),
            })
        }
        "checkpoint" => {
            let mut entries = Vec::new();
            let mut durable = false;
            for (shard, result) in gather(shared, conns, "checkpoint", id).enumerate() {
                let v = result?;
                durable |= v.get("durable").and_then(Value::as_bool).unwrap_or(false);
                entries.push(shard_entry(shard, Ok(v)));
            }
            json!({
                "kind": "checkpoint",
                "durable": (durable),
                "shards": (Value::Array(entries)),
            })
        }
        "subscribe" => return Ok(encode_reply(&hub.subscribe(conn_id, id, request))),
        "unsubscribe" => return Ok(encode_reply(&hub.unsubscribe(conn_id, id, request))),
        other => return Err((
            ErrorKind::BadRequest,
            format!("unknown command '{other}' (the router speaks ping, version, videos, stats, checkpoint, query, subscribe, unsubscribe, write_event)"),
        )),
    };
    Ok(encode_reply(&ok_response(id, result)))
}

#[cfg(test)]
mod tests;
