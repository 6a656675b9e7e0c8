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
//! * **Single-video queries** are forwarded to the owning shard.
//! * **Cross-video queries** (`video = "*"`) scatter to every shard and
//!   gather one segment group per video, merged in video-name order —
//!   the answer is byte-identical no matter which shard replies first.
//! * **Worker death never hangs a request**: a dead connection is
//!   retried under the configured [`RetryPolicy`] (queries are
//!   idempotent reads, so re-dispatch is safe); when retries exhaust,
//!   the client gets the typed `shard_unavailable` error, not silence.
//! * **Epochs fence reboots**: workers refuse frames stamped with a
//!   stale epoch, so a router never acts on the answer of a worker
//!   incarnation it has not handshook with.
//! * **The router result cache** holds whole answers guarded by a
//!   per-shard version vector — one `(shard, epoch, data_version)`
//!   stamp per shard the answer read. A write on shard A invalidates
//!   exactly the cached answers that read shard A; answers pinned to
//!   other shards keep hitting.
//! * **Standing `subscribe` queries** work through the router too: one
//!   router-wide notifier thread polls the version stamps of exactly
//!   the union of shards any subscription reads, and a bump re-issues
//!   each affected standing query *only to the bumped shard* — a write
//!   on shard A never costs shard B a query, and only shard-A
//!   subscribers see a push. A dead shard surfaces as a one-time typed
//!   `shard_unavailable` frame; the subscription stays armed and
//!   resumes when the shard's probe answers again (a reboot shows up
//!   as a fresh epoch, which is just another stamp mismatch).
//!
//! Fault site: `router.forward` fires at the top of every forward
//! attempt, simulating a transport failure without touching the real
//! connection — `Times(1)` proves one re-dispatch masks a blip,
//! `Always` proves exhaustion surfaces the typed error.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cobra_cache::Lru;
use cobra_obs::{Counter, Registry};
use f1_cobra::RetryPolicy;
use serde_json::{json, Value};

use crate::client::{unwrap_response, Client, ClientError};
use crate::protocol::{err_response, ok_response, ErrorKind};
use crate::reactor::{self, ConnId, ReactorConfig, ReactorCtl, Service};
use crate::ring::{Ring, DEFAULT_SEED};
use crate::scheduler::{SubmitError, WorkerPool};
use crate::stream::DEFAULT_PUSH_QUEUE_CAP;

/// Entry bound of the router's result cache.
const ROUTER_CACHE_CAP: usize = 512;

/// Read timeout for control probes (`version` during handshake and
/// cache-guard capture). Probes are answered inline on the worker's
/// reactor, so a probe that takes this long means the worker is gone.
const PROBE_TIMEOUT: Duration = Duration::from_secs(5);

/// How often the notifier polls the version stamps of the shards the
/// standing queries read. Inside one process the change feed is a
/// condvar; across processes the router only has the wire, so this
/// interval is the ingest-to-notify latency floor through a router.
const SHARD_POLL_INTERVAL: Duration = Duration::from_millis(50);

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

/// One shard's catalog state at capture time. Equal stamps mean the
/// shard has neither rebooted (epoch) nor committed any mutation
/// (data_version) since.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShardStamp {
    shard: u32,
    epoch: u64,
    data_version: u64,
}

/// A cached cross- or single-shard answer plus the per-shard stamps it
/// was computed against.
struct RouterCached {
    result: Value,
    guard: Vec<ShardStamp>,
}

struct ResultCache {
    entries: Lru<(String, String), Arc<RouterCached>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    invalidated: Arc<Counter>,
}

impl ResultCache {
    fn new(registry: &Registry) -> Self {
        ResultCache {
            entries: Lru::new(ROUTER_CACHE_CAP),
            hits: registry.counter("cache.result", &[("result", "hit")]),
            misses: registry.counter("cache.result", &[("result", "miss")]),
            invalidated: registry.counter("cache.result", &[("result", "invalidated")]),
        }
    }

    /// Cached answer for `key` provided it was computed against exactly
    /// `current`; a stamp mismatch drops the stale entry (counted as
    /// `invalidated`) and reports a miss.
    fn lookup(&self, key: &(String, String), current: &[ShardStamp]) -> Option<Value> {
        if let Some(cached) = self.entries.get(key) {
            if cached.guard == current {
                self.hits.inc();
                return Some(cached.result.clone());
            }
            if self.entries.remove(key).is_some() {
                self.invalidated.inc();
            }
        }
        self.misses.inc();
        None
    }

    fn store(&self, key: (String, String), result: Value, guard: Vec<ShardStamp>) {
        self.entries
            .insert(key, Arc::new(RouterCached { result, guard }));
    }
}

struct RouterShared {
    ring: Ring,
    /// Current worker addresses, indexed by shard id. Mutable so a
    /// restarted worker (fresh port) can be re-pointed without
    /// restarting the router.
    addrs: Mutex<Vec<String>>,
    retry: RetryPolicy,
    faults: cobra_faults::FaultHandle,
    registry: Arc<Registry>,
    cache: Option<ResultCache>,
    shutting_down: AtomicBool,
}

/// Everything the reactor-facing service and its pooled jobs share.
struct RouterInner {
    shared: Arc<RouterShared>,
    ctl: ReactorCtl,
    pool: WorkerPool,
    hub: Arc<RouterHub>,
    /// Idle shard-connection sets; a pooled job checks one out for its
    /// whole run, so no two jobs ever share a shard socket (which the
    /// stale-id skip in [`attempt_once`] depends on).
    conn_sets: Mutex<Vec<Vec<ShardConn>>>,
}

impl RouterInner {
    fn checkout(&self) -> Vec<ShardConn> {
        if let Some(set) = self
            .conn_sets
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop()
        {
            return set;
        }
        fresh_conns(&self.shared.ring)
    }

    fn checkin(&self, set: Vec<ShardConn>) {
        let mut sets = self.conn_sets.lock().unwrap_or_else(|p| p.into_inner());
        if sets.len() < ROUTER_WORKERS {
            sets.push(set);
        }
    }
}

fn fresh_conns(ring: &Ring) -> Vec<ShardConn> {
    (0..ring.shards())
        .map(|shard| ShardConn {
            shard,
            client: None,
            epoch: 0,
        })
        .collect()
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
            inner
                .ctl
                .send(conn, ok_response(id, json!({"kind": "pong"})));
            return;
        }
        let job_inner = Arc::clone(inner);
        let outcome = inner.pool.try_submit(Box::new(move || {
            let mut conns = job_inner.checkout();
            let response =
                handle_request(&job_inner.shared, &mut conns, &job_inner.hub, conn, &frame);
            job_inner.checkin(conns);
            job_inner.ctl.send(conn, response);
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
            inner.ctl.send(conn, err_response(id, kind, message));
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
    /// old connection errors, and the retry reconnects here.
    pub fn set_shard_addr(&self, shard: u32, addr: impl Into<String>) {
        let mut addrs = self.shared.addrs.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(slot) = addrs.get_mut(shard as usize) {
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
        if let Some(t) = self.reactor_thread.take() {
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
    });
    let ctl = ReactorCtl::new()?;
    let pool = WorkerPool::new(ROUTER_WORKERS, ROUTER_QUEUE_CAP, &registry)?;
    let hub = RouterHub::new(Arc::clone(&shared), ctl.clone());
    let inner = Arc::new(RouterInner {
        shared: Arc::clone(&shared),
        ctl: ctl.clone(),
        pool,
        hub,
        conn_sets: Mutex::new(Vec::new()),
    });
    let service = Arc::new(RouterService {
        inner: Arc::clone(&inner),
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
        service,
    )?;
    Ok(RouterHandle {
        addr,
        shared,
        inner,
        reactor_thread: Some(reactor_thread),
    })
}

/// One connection to one shard, plus the epoch handshook at connect
/// time. Each pooled job (and the notifier) owns its own set, so shard
/// sockets are never contended.
struct ShardConn {
    shard: u32,
    client: Option<Client>,
    epoch: u64,
}

/// What one forward attempt concluded.
enum Attempt {
    /// A definitive answer (success or a typed logical error) — stop.
    Done(Result<Value, (ErrorKind, String)>),
    /// Transport-level trouble — worth another attempt.
    Retry(String),
}

/// Connects to the shard's current address and handshakes the epoch.
fn connect_shard(shared: &RouterShared, conn: &mut ShardConn) -> Result<(), String> {
    let addr = {
        let addrs = shared.addrs.lock().unwrap_or_else(|p| p.into_inner());
        addrs
            .get(conn.shard as usize)
            .cloned()
            .ok_or_else(|| format!("shard {} is not on the ring", conn.shard))?
    };
    let client = Client::connect(&addr)
        .map_err(|e| format!("connect to shard {} at {addr}: {e}", conn.shard))?;
    let _ = client.set_timeout(Some(PROBE_TIMEOUT));
    let mut client = client;
    let version = client
        .version()
        .map_err(|e| format!("handshake with shard {} at {addr}: {e}", conn.shard))?;
    let epoch = version
        .get("epoch")
        .and_then(Value::as_u64)
        .ok_or_else(|| {
            format!(
                "shard {} answered a version frame without an epoch",
                conn.shard
            )
        })?;
    conn.client = Some(client);
    conn.epoch = epoch;
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

    let is_probe = body.get("cmd").and_then(Value::as_str) == Some("version");
    let mut frame = body.clone();
    if let Value::Object(map) = &mut frame {
        if !is_probe {
            // Stamp the interconnect frame: original request id for
            // tracing, handshook epoch so a rebooted worker refuses it.
            map.insert(
                "shard".into(),
                json!({"req": (req_id as f64), "epoch": (conn.epoch as f64)}),
            );
        }
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
    let read_timeout = match deadline_at {
        Some(at) => Some(at.saturating_duration_since(Instant::now()) + Duration::from_millis(500)),
        None if is_probe => Some(PROBE_TIMEOUT),
        None => None,
    };
    let _ = client.set_timeout(read_timeout);

    let id = match client.send(frame) {
        Ok(id) => id,
        Err(e) => {
            conn.client = None;
            return Attempt::Retry(format!("send to shard {}: {e}", conn.shard));
        }
    };
    loop {
        let response = match client.recv() {
            Ok(r) => r,
            Err(e) => {
                conn.client = None;
                return Attempt::Retry(format!("recv from shard {}: {e}", conn.shard));
            }
        };
        if response.get("id").and_then(Value::as_u64) != Some(id) {
            continue; // stale answer from an abandoned attempt
        }
        return match unwrap_response(&response) {
            Ok(result) => Attempt::Done(Ok(result)),
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
        };
    }
}

/// Forwards `body` to the shard behind `conn`, retrying transport
/// failures under the router's [`RetryPolicy`]. Returns the worker's
/// `result` object, or a typed error — never hangs past the deadline.
fn forward(
    shared: &RouterShared,
    conn: &mut ShardConn,
    body: &Value,
    req_id: u64,
    deadline_at: Option<Instant>,
) -> Result<Value, (ErrorKind, String)> {
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
            Attempt::Done(Ok(result)) => {
                shared
                    .registry
                    .counter("router.forward", &[("result", "ok")])
                    .inc();
                return Ok(result);
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
) -> Vec<Result<Value, (ErrorKind, String)>> {
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

/// Extracts the `(epoch, data_version)` stamp from a `version` answer.
fn stamp_from_version(shard: u32, version: &Value) -> Result<ShardStamp, (ErrorKind, String)> {
    let (Some(epoch), Some(data_version)) = (
        version.get("epoch").and_then(Value::as_u64),
        version.get("data_version").and_then(Value::as_u64),
    ) else {
        return Err((
            ErrorKind::Internal,
            format!("shard {shard} answered a malformed version frame"),
        ));
    };
    Ok(ShardStamp {
        shard,
        epoch,
        data_version,
    })
}

/// Captures the version stamps of the shards a query is about to read —
/// *before* execution, so any later write makes the stored guard stale
/// rather than the served answer.
fn capture_stamps(
    shared: &RouterShared,
    conns: &mut [ShardConn],
    owner: Option<u32>,
    req_id: u64,
) -> Result<Vec<ShardStamp>, (ErrorKind, String)> {
    let probe = json!({"cmd": "version"});
    match owner {
        Some(shard) => {
            let conn = conns
                .get_mut(shard as usize)
                .ok_or_else(|| (ErrorKind::Internal, format!("shard {shard} out of range")))?;
            let version = forward(shared, conn, &probe, req_id, None)?;
            Ok(vec![stamp_from_version(shard, &version)?])
        }
        None => {
            let results = scatter(shared, conns, &probe, req_id, None);
            let mut stamps = Vec::with_capacity(results.len());
            for (shard, result) in results.into_iter().enumerate() {
                stamps.push(stamp_from_version(shard as u32, &result?)?);
            }
            Ok(stamps)
        }
    }
}

/// Merges per-shard `multi` answers into one, ordered by video name.
fn merge_multi(
    results: Vec<Result<Value, (ErrorKind, String)>>,
) -> Result<Value, (ErrorKind, String)> {
    let mut groups: Vec<Value> = Vec::new();
    for result in results {
        let result = result?; // lowest failed shard id decides the error
        let Some(videos) = result.get("videos").and_then(Value::as_array) else {
            return Err((
                ErrorKind::Internal,
                "a shard answered a cross-video query without segment groups".into(),
            ));
        };
        groups.extend(videos.iter().cloned());
    }
    // Deterministic merge ordering: the gather order is completion
    // order, so impose video-name order before anyone sees the answer.
    groups.sort_by(|a, b| {
        let a = a.get("video").and_then(Value::as_str).unwrap_or("");
        let b = b.get("video").and_then(Value::as_str).unwrap_or("");
        a.cmp(b)
    });
    Ok(json!({"kind": "multi", "videos": (Value::Array(groups))}))
}

fn respond(id: u64, outcome: Result<Value, (ErrorKind, String)>) -> Value {
    match outcome {
        Ok(result) => ok_response(id, result),
        Err((kind, message)) => err_response(id, kind, message),
    }
}

/// One standing `subscribe` query routed through the hub.
struct RouterStanding {
    /// Subscribed video, or `"*"` for every catalogued video.
    video: String,
    /// The plain `RETRIEVE` statement.
    text: String,
    /// Per shard: the stamp the standing query was last evaluated
    /// against. A mismatch with the live probe means that shard must be
    /// re-queried; equality means it provably holds the same answer.
    stamps: HashMap<u32, ShardStamp>,
    /// Last-delivered answer per concrete video, in wire form.
    views: HashMap<String, Vec<Value>>,
    /// Shards this subscriber has already been told are unreachable —
    /// the outage is reported once, not once per poll cycle.
    down: HashSet<u32>,
}

impl RouterStanding {
    /// The shards this standing query reads.
    fn watched(&self, ring: &Ring) -> Vec<u32> {
        if self.video == "*" {
            (0..ring.shards()).collect()
        } else {
            vec![ring.owner(&self.video)]
        }
    }
}

/// Every standing query of one client connection, plus its push
/// backlog (the reactor decrements `pending` as bytes hit the wire).
struct RouterConnSubs {
    pending: Arc<AtomicUsize>,
    subs: HashMap<u64, RouterStanding>,
}

/// All standing queries routed through this process, swept by one
/// notifier thread that polls the union of watched shards — folding
/// what used to be one notifier thread per client session into a
/// single poll cycle.
struct RouterHub {
    shared: Arc<RouterShared>,
    ctl: ReactorCtl,
    cap: usize,
    inner: Mutex<HashMap<ConnId, RouterConnSubs>>,
    closed: AtomicBool,
    notifier: Mutex<Option<JoinHandle<()>>>,
}

impl RouterHub {
    fn new(shared: Arc<RouterShared>, ctl: ReactorCtl) -> Arc<RouterHub> {
        Arc::new(RouterHub {
            shared,
            ctl,
            cap: DEFAULT_PUSH_QUEUE_CAP,
            inner: Mutex::new(HashMap::new()),
            closed: AtomicBool::new(false),
            notifier: Mutex::new(None),
        })
    }

    /// Spawns the hub's notifier thread on first use.
    fn ensure_notifier(self: &Arc<Self>) {
        let mut slot = self.notifier.lock().unwrap_or_else(|p| p.into_inner());
        if slot.is_some() {
            return;
        }
        let hub = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("cobra-router-notify".into())
            .spawn(move || hub.notify_loop());
        if let Ok(h) = handle {
            *slot = Some(h);
        }
    }

    /// Forgets the standing queries of one dead connection.
    fn drop_conn(&self, conn: ConnId) {
        let removed = self
            .inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&conn);
        if let Some(entry) = removed {
            let n = entry.subs.len();
            if n > 0 {
                self.shared
                    .registry
                    .gauge("stream.active", &[])
                    .add(-(n as i64));
            }
        }
    }

    /// Stops the notifier and forgets every standing query. Called
    /// once at router shutdown.
    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let handle = self
            .notifier
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take();
        if let Some(h) = handle {
            let _ = h.join();
        }
        let mut table = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let n: usize = table.values().map(|e| e.subs.len()).sum();
        if n > 0 {
            self.shared
                .registry
                .gauge("stream.active", &[])
                .add(-(n as i64));
        }
        table.clear();
    }

    /// Polls the watched shards' version stamps and sweeps the standing
    /// queries after every cycle. The notifier owns its own shard
    /// connections, so it never contends with the pooled jobs'.
    fn notify_loop(&self) {
        let mut conns = fresh_conns(&self.shared.ring);
        loop {
            std::thread::sleep(SHARD_POLL_INTERVAL);
            if self.closed.load(Ordering::SeqCst)
                || self.shared.shutting_down.load(Ordering::SeqCst)
            {
                return;
            }
            let watched: BTreeSet<u32> = {
                let table = self.inner.lock().unwrap_or_else(|p| p.into_inner());
                table
                    .values()
                    .flat_map(|e| e.subs.values())
                    .flat_map(|s| s.watched(&self.shared.ring))
                    .collect()
            };
            if watched.is_empty() {
                continue;
            }
            let mut probes: HashMap<u32, Result<ShardStamp, String>> = HashMap::new();
            for &shard in &watched {
                let outcome = match conns.get_mut(shard as usize) {
                    Some(conn) => forward(&self.shared, conn, &json!({"cmd": "version"}), 0, None)
                        .map_err(|(_, m)| m)
                        .and_then(|v| stamp_from_version(shard, &v).map_err(|(_, m)| m)),
                    None => Err(format!("shard {shard} is not on the ring")),
                };
                probes.insert(shard, outcome);
            }
            self.sweep(&mut conns, &probes);
        }
    }

    /// Reports `shard` unreachable to `sub_id` — once per outage.
    fn report_down(
        &self,
        conn: ConnId,
        sub_id: u64,
        standing: &mut RouterStanding,
        shard: u32,
        why: &str,
    ) {
        if !standing.down.insert(shard) {
            return;
        }
        self.shared.registry.counter("stream.shard_down", &[]).inc();
        let frame = err_response(
            sub_id,
            ErrorKind::ShardUnavailable,
            format!(
                "shard {shard} is unreachable under subscription {sub_id} ({why}); \
                 the subscription stays armed and resumes when the shard returns"
            ),
        );
        self.ctl.send(conn, frame);
    }

    /// Re-examines every standing query against this cycle's probe
    /// results: shards whose stamp is unchanged are skipped without a
    /// query; a bumped shard is re-queried alone, and a changed answer
    /// is pushed as a delta frame.
    fn sweep(&self, conns: &mut [ShardConn], probes: &HashMap<u32, Result<ShardStamp, String>>) {
        let registry = &self.shared.registry;
        let mut table = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let mut doomed: Vec<ConnId> = Vec::new();
        'conns: for (&conn, entry) in table.iter_mut() {
            if self.closed.load(Ordering::SeqCst) {
                return;
            }
            for (&sub_id, standing) in entry.subs.iter_mut() {
                for shard in standing.watched(&self.shared.ring) {
                    let Some(probe) = probes.get(&shard) else {
                        continue;
                    };
                    let stamp = match probe {
                        Err(why) => {
                            self.report_down(conn, sub_id, standing, shard, why);
                            continue;
                        }
                        Ok(stamp) => stamp,
                    };
                    if standing.down.remove(&shard) {
                        registry.counter("stream.shard_recovered", &[]).inc();
                    }
                    if standing.stamps.get(&shard) == Some(stamp) {
                        registry.counter("stream.skipped", &[]).inc();
                        continue;
                    }
                    let body = json!({
                        "cmd": "query",
                        "video": (standing.video.clone()),
                        "text": (standing.text.clone()),
                    });
                    let result = match conns.get_mut(shard as usize) {
                        Some(conn) => forward(&self.shared, conn, &body, sub_id, None),
                        None => continue,
                    };
                    let groups = match result {
                        Ok(r) => answer_groups(&standing.video, &r),
                        Err((ErrorKind::ShardUnavailable, why)) => {
                            self.report_down(conn, sub_id, standing, shard, &why);
                            continue;
                        }
                        Err(_) => {
                            // A logical error (video not ingested yet, …)
                            // evaluates to the empty answer; the
                            // subscription stays armed.
                            registry.counter("stream.eval_errors", &[]).inc();
                            if standing.video == "*" {
                                Vec::new()
                            } else {
                                vec![(standing.video.clone(), Vec::new())]
                            }
                        }
                    };
                    // The stamp was captured *before* the query, so a write
                    // racing the evaluation leaves the stored stamp stale
                    // and the next cycle re-evaluates.
                    standing.stamps.insert(shard, stamp.clone());
                    for (video, segments) in groups {
                        let known = standing.views.contains_key(&video);
                        let old = standing.views.get(&video).cloned().unwrap_or_default();
                        let added: Vec<Value> = segments
                            .iter()
                            .filter(|s| !old.contains(s))
                            .cloned()
                            .collect();
                        let removed = old.iter().filter(|s| !segments.contains(s)).count();
                        let total = segments.len();
                        standing.views.insert(video.clone(), segments);
                        if added.is_empty() && removed == 0 && known {
                            registry.counter("stream.unchanged", &[]).inc();
                            continue;
                        }
                        let frame = json!({
                            "id": (sub_id as f64),
                            "ok": true,
                            "push": true,
                            "result": {
                                "kind": "delta",
                                "subscription": (sub_id as f64),
                                "video": (video),
                                "shard": (shard as f64),
                                "added": (Value::Array(added)),
                                "removed": (removed as f64),
                                "total": (total as f64),
                                "data_version": (stamp.data_version as f64),
                            },
                        });
                        let queued = entry.pending.fetch_add(1, Ordering::AcqRel);
                        if queued >= self.cap {
                            entry.pending.fetch_sub(1, Ordering::AcqRel);
                            registry
                                .counter("stream.slow_consumer_disconnects", &[])
                                .inc();
                            self.ctl.send(
                                conn,
                                err_response(
                                    sub_id,
                                    ErrorKind::SlowConsumer,
                                    format!(
                                        "subscriber fell {queued} push frames behind the cap \
                                         of {}; disconnecting",
                                        self.cap
                                    ),
                                ),
                            );
                            self.ctl.close(conn);
                            doomed.push(conn);
                            continue 'conns;
                        }
                        registry.counter("stream.pushes", &[]).inc();
                        self.ctl.send_push(conn, frame, Arc::clone(&entry.pending));
                    }
                }
            }
        }
        for conn in doomed {
            if let Some(entry) = table.remove(&conn) {
                let n = entry.subs.len();
                if n > 0 {
                    registry.gauge("stream.active", &[]).add(-(n as i64));
                }
            }
        }
    }
}

/// Flattens a worker's query answer into `(video, segments)` groups: a
/// `segments` answer is one group under the subscribed name, a `multi`
/// answer is one group per video it carries.
fn answer_groups(video: &str, result: &Value) -> Vec<(String, Vec<Value>)> {
    match result.get("kind").and_then(Value::as_str) {
        Some("segments") => vec![(
            video.to_string(),
            result
                .get("segments")
                .and_then(Value::as_array)
                .cloned()
                .unwrap_or_default(),
        )],
        Some("multi") => result
            .get("videos")
            .and_then(Value::as_array)
            .map(|groups| {
                groups
                    .iter()
                    .filter_map(|g| {
                        let name = g.get("video").and_then(Value::as_str)?;
                        let segs = g.get("segments").and_then(Value::as_array)?.clone();
                        Some((name.to_string(), segs))
                    })
                    .collect()
            })
            .unwrap_or_default(),
        _ => Vec::new(),
    }
}

/// Registers a standing query: captures the watched shards' stamps,
/// evaluates the initial answer, and arms the hub's notifier. The
/// subscription id *is* the request id, matching the worker protocol.
fn handle_subscribe(
    shared: &RouterShared,
    conns: &mut [ShardConn],
    hub: &Arc<RouterHub>,
    conn_id: ConnId,
    id: u64,
    request: &Value,
) -> Value {
    let (Some(video), Some(text)) = (
        request.get("video").and_then(Value::as_str),
        request.get("text").and_then(Value::as_str),
    ) else {
        return err_response(
            id,
            ErrorKind::BadRequest,
            "subscribe needs string fields 'video' and 'text'",
        );
    };
    // Only plain `RETRIEVE` statements can stand, same as on a worker.
    if let Err(e) = f1_cobra::parse_query(text) {
        return err_response(id, ErrorKind::Parse, e.to_string());
    }
    {
        let table = hub.inner.lock().unwrap_or_else(|p| p.into_inner());
        if table
            .get(&conn_id)
            .is_some_and(|e| e.subs.contains_key(&id))
        {
            return err_response(
                id,
                ErrorKind::BadRequest,
                format!("subscription {id} already exists on this connection"),
            );
        }
    }
    let owner = (video != "*").then(|| shared.ring.owner(video));
    // Stamps before evaluation: a write racing the initial answer makes
    // the stored stamp stale, so the first poll cycle re-evaluates
    // instead of the write being missed.
    let stamps = match capture_stamps(shared, conns, owner, id) {
        Ok(stamps) => stamps,
        Err(e) => return respond(id, Err(e)),
    };
    let body = json!({"cmd": "query", "video": (video), "text": (text)});
    let result = match owner {
        Some(shard) => match conns.get_mut(shard as usize) {
            Some(conn) => forward(shared, conn, &body, id, None),
            None => Err((ErrorKind::Internal, format!("shard {shard} out of range"))),
        },
        None => merge_multi(scatter(shared, conns, &body, id, None)),
    };
    let groups = match result {
        Ok(r) => answer_groups(video, &r),
        Err((ErrorKind::ShardUnavailable, m)) => {
            return respond(id, Err((ErrorKind::ShardUnavailable, m)))
        }
        Err(_) => {
            // Not ingested yet (or otherwise unanswerable right now):
            // the subscription arms over the empty answer and delivers
            // once data arrives.
            shared.registry.counter("stream.eval_errors", &[]).inc();
            if video == "*" {
                Vec::new()
            } else {
                vec![(video.to_string(), Vec::new())]
            }
        }
    };
    let mut standing = RouterStanding {
        video: video.to_string(),
        text: text.to_string(),
        stamps: stamps.iter().map(|s| (s.shard, s.clone())).collect(),
        views: HashMap::new(),
        down: HashSet::new(),
    };
    let videos_json: Vec<Value> = groups
        .iter()
        .map(|(v, segs)| json!({"video": (v.clone()), "segments": (Value::Array(segs.clone()))}))
        .collect();
    for (v, segs) in groups {
        standing.views.insert(v, segs);
    }
    {
        let mut table = hub.inner.lock().unwrap_or_else(|p| p.into_inner());
        let entry = table.entry(conn_id).or_insert_with(|| RouterConnSubs {
            pending: Arc::new(AtomicUsize::new(0)),
            subs: HashMap::new(),
        });
        entry.subs.insert(id, standing);
    }
    shared.registry.counter("stream.subscribed", &[]).inc();
    shared.registry.gauge("stream.active", &[]).add(1);
    hub.ensure_notifier();
    let shard_stamps: Vec<Value> = stamps
        .iter()
        .map(|s| {
            json!({
                "shard": (s.shard as f64),
                "epoch": (s.epoch as f64),
                "data_version": (s.data_version as f64),
            })
        })
        .collect();
    ok_response(
        id,
        json!({
            "kind": "subscribed",
            "subscription": (id as f64),
            "videos": (Value::Array(videos_json)),
            "shards": (Value::Array(shard_stamps)),
            "data_version": (stamps.iter().map(|s| s.data_version).max().unwrap_or(0) as f64),
        }),
    )
}

/// Retires a standing query.
fn handle_unsubscribe(hub: &RouterHub, conn_id: ConnId, id: u64, request: &Value) -> Value {
    let Some(subscription) = request.get("subscription").and_then(Value::as_u64) else {
        return err_response(
            id,
            ErrorKind::BadRequest,
            "unsubscribe needs an integer 'subscription'",
        );
    };
    let mut table = hub.inner.lock().unwrap_or_else(|p| p.into_inner());
    let removed = table
        .get_mut(&conn_id)
        .is_some_and(|e| e.subs.remove(&subscription).is_some());
    drop(table);
    if removed {
        hub.shared
            .registry
            .counter("stream.unsubscribed", &[])
            .inc();
        hub.shared.registry.gauge("stream.active", &[]).add(-1);
        ok_response(
            id,
            json!({"kind": "unsubscribed", "subscription": (subscription as f64)}),
        )
    } else {
        err_response(
            id,
            ErrorKind::BadRequest,
            format!("unknown subscription {subscription}"),
        )
    }
}

fn handle_query(shared: &RouterShared, conns: &mut [ShardConn], id: u64, request: &Value) -> Value {
    let (Some(video), Some(text)) = (
        request.get("video").and_then(Value::as_str),
        request.get("text").and_then(Value::as_str),
    ) else {
        return err_response(
            id,
            ErrorKind::BadRequest,
            "query needs string fields 'video' and 'text'",
        );
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
    let key = if !limited {
        match f1_cobra::parse_statement(text) {
            Ok(s @ f1_cobra::Statement::Retrieve(_)) => Some((video.to_string(), s.normalized())),
            _ => None,
        }
    } else {
        None
    };

    let mut guard: Option<Vec<ShardStamp>> = None;
    if let (Some(cache), Some(key)) = (shared.cache.as_ref(), key.as_ref()) {
        let stamps = match capture_stamps(shared, conns, owner, id) {
            Ok(stamps) => stamps,
            Err(e) => return respond(id, Err(e)),
        };
        if let Some(result) = cache.lookup(key, &stamps) {
            return ok_response(id, result);
        }
        guard = Some(stamps);
    }

    let mut body = json!({"cmd": "query", "video": (video), "text": (text)});
    if let (Value::Object(map), Some(fuel)) = (&mut body, request.get("fuel")) {
        map.insert("fuel".into(), fuel.clone());
    }
    let outcome = match owner {
        Some(shard) => match conns.get_mut(shard as usize) {
            Some(conn) => forward(shared, conn, &body, id, deadline_at),
            None => Err((ErrorKind::Internal, format!("shard {shard} out of range"))),
        },
        None => merge_multi(scatter(shared, conns, &body, id, deadline_at)),
    };

    if let (Some(cache), Some(key), Some(guard), Ok(result)) =
        (shared.cache.as_ref(), key, guard, &outcome)
    {
        cache.store(key, result.clone(), guard);
    }
    respond(id, outcome)
}

fn handle_request(
    shared: &RouterShared,
    conns: &mut [ShardConn],
    hub: &Arc<RouterHub>,
    conn_id: ConnId,
    request: &Value,
) -> Value {
    let id = request.get("id").and_then(Value::as_u64).unwrap_or(0);
    let Some(cmd) = request.get("cmd").and_then(Value::as_str) else {
        return err_response(id, ErrorKind::BadRequest, "missing 'cmd'");
    };
    match cmd {
        "ping" => ok_response(id, json!({"kind": "pong"})),
        "version" => {
            // The aggregated topology view: one entry per shard, in
            // shard order, with the address the router would dial.
            let results = scatter(shared, conns, &json!({"cmd": "version"}), id, None);
            let addrs = shared
                .addrs
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .clone();
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
            let results = scatter(shared, conns, &json!({"cmd": "videos"}), id, None);
            let mut names: Vec<String> = Vec::new();
            for result in results {
                match result {
                    Ok(v) => {
                        if let Some(list) = v.get("videos").and_then(Value::as_array) {
                            names.extend(
                                list.iter()
                                    .filter_map(Value::as_str)
                                    .map(str::to_string),
                            );
                        }
                    }
                    Err((kind, message)) => return err_response(id, kind, message),
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
            let results = scatter(shared, conns, &json!({"cmd": "stats"}), id, None);
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
            let results = scatter(shared, conns, &json!({"cmd": "checkpoint"}), id, None);
            let mut entries = Vec::with_capacity(results.len());
            let mut durable = false;
            for (shard, result) in results.into_iter().enumerate() {
                match result {
                    Ok(mut v) => {
                        durable |= v.get("durable").and_then(Value::as_bool).unwrap_or(false);
                        if let Value::Object(map) = &mut v {
                            map.insert("shard".into(), Value::Number(shard as f64));
                        }
                        entries.push(v);
                    }
                    Err((kind, message)) => return err_response(id, kind, message),
                }
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
        "query" => handle_query(shared, conns, id, request),
        "subscribe" => handle_subscribe(shared, conns, hub, conn_id, id, request),
        "unsubscribe" => handle_unsubscribe(hub, conn_id, id, request),
        "write_event" => {
            // Forwarded to the owner; the worker enforces its own debug
            // gate. The router cache needs no eager invalidation — the
            // write bumps the shard's data_version, so every cached
            // answer that read this shard fails its next guard check.
            let Some(video) = request.get("video").and_then(Value::as_str) else {
                return err_response(id, ErrorKind::BadRequest, "write_event needs 'video'");
            };
            let shard = shared.ring.owner(video);
            let mut body = request.clone();
            if let Value::Object(map) = &mut body {
                map.remove("id");
                map.remove("shard");
            }
            match conns.get_mut(shard as usize) {
                Some(conn) => respond(id, forward(shared, conn, &body, id, None)),
                None => err_response(id, ErrorKind::Internal, format!("shard {shard} out of range")),
            }
        }
        other => err_response(
            id,
            ErrorKind::BadRequest,
            format!("unknown command '{other}' (the router speaks ping, version, videos, stats, checkpoint, query, subscribe, unsubscribe, write_event)"),
        ),
    }
}
