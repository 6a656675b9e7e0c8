//! The TCP query service.
//!
//! A single reactor thread ([`crate::reactor`]) owns every client
//! socket: it accepts, decodes length-prefixed frames incrementally,
//! and batches response flushes. Cheap control commands (`ping`,
//! `version`, `stats`, `videos`) are answered inline on the reactor;
//! everything that touches the engine — queries, checkpoints,
//! subscriptions, debug writes — runs on the shared bounded
//! [`WorkerPool`](crate::scheduler::WorkerPool), whose completions are
//! queued back to the reactor through [`ReactorCtl`] and flushed to
//! the socket without ever blocking a worker on a slow client.
//!
//! A completion is an encoded frame. The worker that ran a query writes
//! the answer's `result` body once, straight from its segments
//! (`f1_cobra::json::write_query_output`), and frames it under the
//! request's id — and, when the request led a single-flight group, once
//! more under each follower's id around the same body — so neither the
//! worker nor the reactor ever builds a tree of the rows.
//!
//! Guard rails, all typed on the wire:
//! * **Admission control** — a full queue answers `overloaded` at once.
//! * **Deadlines** — `deadline_ms` becomes an [`ExecBudget`] deadline;
//!   the kernel interrupts the query mid-MIL and the client gets
//!   `deadline`. Time spent waiting in the queue counts.
//! * **Disconnect cancellation** — when a client's socket closes, every
//!   query it still has in flight is cancelled through its budget token.
//! * **Backpressure** — a connection whose peer stops draining is not
//!   read from past a buffer high-water mark; subscribers that fall too
//!   far behind are disconnected with `slow_consumer`.
//! * **Graceful shutdown** — the listener closes first, admitted
//!   queries drain, new ones are refused with `shutting_down`, then
//!   every connection is flushed and the reactor joins.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cobra_faults::CancellationToken;
use cobra_obs::Registry;
use f1_cobra::{Stamp, Vdbms};
use f1_monet::{ExecBudget, MonetError};
use serde_json::{json, Value, Writer};

use crate::protocol::{
    encode_frame, encode_reply, err_response, ok_frame, ok_response, or_oversize, stamp_to_json,
    ErrorKind,
};
use crate::reactor::{self, ConnId, ReactorConfig, ReactorCtl, Service};
use crate::scheduler::{SubmitError, WorkerPool};
use crate::stream::{Hub, DEFAULT_PUSH_QUEUE_CAP};

/// How the server is sized and where it listens.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (the handle reports it).
    pub addr: String,
    /// Worker threads executing queries.
    pub workers: usize,
    /// Jobs allowed to wait behind the workers before admission control
    /// starts rejecting. Admission limit = `workers + queue_cap`.
    pub queue_cap: usize,
    /// Enables the `sleep` debug command (deterministic slow queries
    /// for overload and deadline tests). Off in production.
    pub debug: bool,
    /// Push frames allowed to queue behind one connection before the
    /// subscriber is disconnected as a slow consumer.
    pub push_queue_cap: usize,
    /// Evict connections with no traffic in either direction for this
    /// long. `None` (the default) keeps idle dashboards open forever.
    pub idle_timeout: Option<Duration>,
    /// Clamp the kernel send buffer of accepted sockets (bytes). Test
    /// aid: a tiny buffer makes slow consumers visible to the push
    /// backlog instead of hiding megabytes in the kernel.
    pub sndbuf: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 8,
            queue_cap: 32,
            debug: false,
            push_queue_cap: DEFAULT_PUSH_QUEUE_CAP,
            idle_timeout: None,
            sndbuf: None,
        }
    }
}

/// Response path of one connection: completions from any thread are
/// queued on the reactor, which owns the socket and flushes in batches.
#[derive(Clone)]
pub(crate) struct ConnTx {
    ctl: ReactorCtl,
    conn: ConnId,
}

impl ConnTx {
    pub(crate) fn new(ctl: ReactorCtl, conn: ConnId) -> ConnTx {
        ConnTx { ctl, conn }
    }

    /// Encodes and queues a response built as a tree.
    pub(crate) fn send(&self, response: Value) {
        self.send_frame(encode_reply(&response));
    }

    fn send_frame(&self, frame: Vec<u8>) {
        self.ctl.send(self.conn, frame);
    }
}

/// What a pooled job concluded, before it is framed under a request id:
/// a single-flight leader's outcome is framed once for itself and once
/// per follower, around the one encoded body.
enum Outcome {
    /// Success: the encoded `result`, and the stamp that marks a reply
    /// to a routed frame (one carrying the router's `shard` object) —
    /// this catalog's, read *before* executing the read. It rides in
    /// the envelope beside `result`, so the router can peel it off and
    /// forward the result untouched; direct clients never see one.
    Ok { body: Vec<u8>, stamp: Option<Stamp> },
    /// A typed failure.
    Err { kind: ErrorKind, message: String },
}

impl Outcome {
    fn frame(&self, id: u64) -> Vec<u8> {
        let built = match self {
            Outcome::Ok { body, stamp } => ok_frame(id, body, *stamp),
            Outcome::Err { kind, message } => {
                encode_frame(&err_response(id, *kind, message.as_str()))
            }
        };
        or_oversize(id, built)
    }
}

/// A request coalesced onto another request's execution: it waits for
/// the leader's outcome and receives it framed under its own id.
struct FlightWaiter {
    id: u64,
    tx: ConnTx,
    since: Instant,
}

/// Per-request state tracked while the query is in the pool:
/// cancelling the token interrupts the running query via its budget.
type Inflight = Arc<Mutex<HashMap<u64, CancellationToken>>>;

struct ServerShared {
    vdbms: Arc<Vdbms>,
    pool: WorkerPool,
    config: ServerConfig,
    ctl: ReactorCtl,
    hub: Arc<Hub<Vdbms>>,
    shutting_down: AtomicBool,
    /// In-flight cancellation tokens per connection; an entry appears
    /// with the connection's first admitted request and dies with it.
    conns: Mutex<HashMap<ConnId, Inflight>>,
    /// Single-flight table: (video, normalized statement) of every
    /// coalescable query currently admitted, mapped to the followers
    /// that arrived while it was in flight. The leader's presence is the
    /// map entry itself (followers may be zero), so identical requests
    /// share one worker execution instead of burning admission slots.
    flights: Mutex<HashMap<String, Vec<FlightWaiter>>>,
}

impl ServerShared {
    fn registry(&self) -> &Arc<Registry> {
        self.vdbms.kernel().metrics().registry()
    }

    fn tx(&self, conn: ConnId) -> ConnTx {
        ConnTx::new(self.ctl.clone(), conn)
    }

    fn inflight_for(&self, conn: ConnId) -> Inflight {
        let mut conns = self.conns.lock().expect("conn table");
        Arc::clone(conns.entry(conn).or_default())
    }
}

/// The reactor-facing half of the server: frames in, closes out.
struct ServerService {
    shared: Arc<ServerShared>,
}

impl Service for ServerService {
    fn on_frame(&self, conn: ConnId, frame: Value) {
        handle_request(&self.shared, conn, &frame);
    }

    fn on_close(&self, conn: ConnId) {
        // Client gone (or evicted): interrupt whatever it still has
        // running and retire its standing queries.
        let inflight = self.shared.conns.lock().expect("conn table").remove(&conn);
        if let Some(inflight) = inflight {
            let orphaned = std::mem::take(&mut *inflight.lock().expect("inflight map"));
            if !orphaned.is_empty() {
                self.shared
                    .registry()
                    .counter("serve.cancelled_disconnect", &[])
                    .add(orphaned.len() as u64);
                for token in orphaned.into_values() {
                    token.cancel();
                }
            }
        }
        self.shared.hub.drop_conn(conn);
    }
}

/// A running server. Dropping the handle without calling
/// [`shutdown`](Self::shutdown) leaves the server running detached.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    reactor_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when the config said 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The configured admission limit (`workers + queue_cap`).
    pub fn admission_limit(&self) -> usize {
        self.shared.pool.admission_limit()
    }

    /// Graceful shutdown: close the listener, refuse new queries,
    /// drain admitted ones, flush every connection, join the reactor.
    pub fn shutdown(mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Closing the listener first means no connection sneaks in
        // mid-drain; connects are refused from here on.
        self.shared.ctl.drain();
        // Admitted jobs run to completion; their responses flow through
        // the still-live reactor.
        self.shared.pool.shutdown();
        self.shared.hub.close();
        // Flush-and-close every connection, then the loop exits.
        self.shared.ctl.stop();
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
        // Every admitted mutation has drained: force buffered WAL records
        // to disk and leave a fresh checkpoint, so the next boot replays
        // nothing. Failure is non-fatal — the WAL already holds
        // everything acknowledged under `FsyncPolicy::Always`.
        if let Err(e) = self
            .shared
            .vdbms
            .flush()
            .and_then(|()| self.shared.vdbms.checkpoint().map(|_| ()))
        {
            eprintln!("cobra-serve: checkpoint on drain failed: {e}");
        }
    }
}

/// Binds and starts serving `vdbms` per `config`.
pub fn start(vdbms: Arc<Vdbms>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let pool = WorkerPool::new(
        config.workers,
        config.queue_cap,
        vdbms.kernel().metrics().registry(),
    )?;
    let ctl = ReactorCtl::new()?;
    let hub = Hub::new(
        Arc::clone(&vdbms),
        Arc::clone(vdbms.kernel().metrics().registry()),
        ctl.clone(),
        config.push_queue_cap,
    );
    let shared = Arc::new(ServerShared {
        vdbms,
        pool,
        ctl: ctl.clone(),
        hub,
        config,
        shutting_down: AtomicBool::new(false),
        conns: Mutex::new(HashMap::new()),
        flights: Mutex::new(HashMap::new()),
    });
    // Pre-resolve so `stats` shows the series from boot.
    shared.registry().counter("cache.coalesced", &[]);
    let service = Arc::new(ServerService {
        shared: Arc::clone(&shared),
    });
    let reactor_thread = reactor::spawn(
        listener,
        &ctl,
        ReactorConfig {
            name: "cobra-serve-reactor".into(),
            idle_timeout: shared.config.idle_timeout,
            sndbuf: shared.config.sndbuf,
        },
        shared.registry(),
        service,
    )?;
    Ok(ServerHandle {
        addr,
        shared,
        reactor_thread: Some(reactor_thread),
    })
}

/// Hands a control command (checkpoint, subscribe, …) to the pool and
/// wires its response back to the connection; a full queue answers the
/// usual typed rejection. These commands skip the query admission
/// bookkeeping (no deadline, no cancellation token) but still must not
/// run on the reactor thread — they take engine locks.
fn submit_control(
    shared: &Arc<ServerShared>,
    id: u64,
    tx: &ConnTx,
    run: impl FnOnce() -> Value + Send + 'static,
) {
    let reply = tx.clone();
    let outcome = shared.pool.try_submit(Box::new(move || {
        reply.send(run());
    }));
    if let Err(e) = outcome {
        let (kind, message) = rejection(e);
        shared
            .registry()
            .counter("serve.rejected", &[("kind", kind.as_str())])
            .inc();
        tx.send(err_response(id, kind, message));
    }
}

fn rejection(e: SubmitError) -> (ErrorKind, String) {
    match e {
        SubmitError::Overloaded { queue_cap } => (
            ErrorKind::Overloaded,
            format!("worker queue full ({queue_cap} waiting); retry with backoff"),
        ),
        SubmitError::ShuttingDown => (ErrorKind::ShuttingDown, "server is shutting down".into()),
    }
}

/// Dispatches one decoded frame. Runs on the reactor thread: anything
/// that can block hands off to the worker pool.
fn handle_request(shared: &Arc<ServerShared>, conn: ConnId, request: &Value) {
    let tx = shared.tx(conn);
    let id = request.get("id").and_then(Value::as_u64).unwrap_or(0);
    let Some(cmd) = request.get("cmd").and_then(Value::as_str) else {
        tx.send(err_response(id, ErrorKind::BadRequest, "missing 'cmd'"));
        return;
    };
    let registry = shared.registry();
    registry.counter("serve.requests", &[("cmd", cmd)]).inc();
    // A router forwarding on behalf of a client stamps the shard epoch
    // it handshook with. If this process has rebooted since (a new
    // epoch), the router's view — ring state, cached vectors, possibly
    // the data dir itself — is stale: refuse with the typed shard error
    // so it re-handshakes instead of acting on a dead incarnation.
    if let Some(expected) = request
        .get("shard")
        .and_then(|s| s.get("epoch"))
        .and_then(Value::as_u64)
    {
        let actual = shared.vdbms.catalog.epoch();
        if expected != actual {
            registry.counter("serve.shard_epoch_mismatch", &[]).inc();
            tx.send(err_response(
                id,
                ErrorKind::ShardUnavailable,
                format!("shard epoch is {actual}, frame addressed epoch {expected}"),
            ));
            return;
        }
    }
    match cmd {
        "ping" => {
            tx.send(ok_response(id, json!({"kind": "pong"})));
        }
        "version" => {
            // The router's connection handshake and the operator's
            // topology probe: who am I (epoch), where is my commit seq
            // (data_version), what do I hold (videos).
            let catalog = &shared.vdbms.catalog;
            tx.send(ok_response(
                id,
                json!({
                    "kind": "version",
                    "epoch": (catalog.epoch() as f64),
                    "data_version": (catalog.data_version() as f64),
                    "videos": (catalog.videos()),
                }),
            ));
        }
        "stats" => {
            let snapshot = registry.snapshot().to_json();
            tx.send(ok_response(
                id,
                json!({"kind": "stats", "snapshot": (snapshot)}),
            ));
        }
        "videos" => {
            let names = shared.vdbms.catalog.videos();
            tx.send(ok_response(
                id,
                json!({"kind": "videos", "videos": (names)}),
            ));
        }
        "checkpoint" => {
            // A checkpoint clones dirty BATs under the commit lock —
            // worker-pool territory, never the reactor's.
            let shared2 = Arc::clone(shared);
            submit_control(shared, id, &tx, move || match shared2.vdbms.checkpoint() {
                Ok(Some(outcome)) => ok_response(
                    id,
                    json!({
                        "kind": "checkpoint",
                        "durable": true,
                        "bats_written": (outcome.bats_written as f64),
                        "bats_skipped": (outcome.bats_skipped as f64),
                        "bytes_written": (outcome.bytes_written as f64),
                        "wal_files_retired": (outcome.wal_files_retired as f64),
                        "wal_seq": (outcome.wal_seq as f64),
                    }),
                ),
                Ok(None) => ok_response(id, json!({"kind": "checkpoint", "durable": false})),
                Err(e) => err_response(id, ErrorKind::Internal, e.to_string()),
            });
        }
        // The initial evaluation of a subscription is a real query,
        // and the hub lock is held across sweep evaluations: neither
        // belongs on the reactor thread.
        "subscribe" | "unsubscribe" => {
            let subscribing = cmd == "subscribe";
            let shared2 = Arc::clone(shared);
            let request = request.clone();
            submit_control(shared, id, &tx, move || {
                if subscribing {
                    shared2.hub.subscribe(conn, id, &request)
                } else {
                    shared2.hub.unsubscribe(conn, id, &request)
                }
            });
        }
        "query" => submit_query(shared, conn, id, request, &tx),
        "sleep" if shared.config.debug => submit_sleep(shared, conn, id, request, &tx),
        "write_event" if shared.config.debug => {
            // Debug-only event append over the wire: the sharding tests
            // mutate one shard of a live cluster with it and prove the
            // router's cross-shard cache invalidation. The catalog
            // serializes mutations on its commit lock — pool work.
            let shared2 = Arc::clone(shared);
            let request = request.clone();
            submit_control(shared, id, &tx, move || {
                handle_write_event(&shared2, id, &request)
            });
        }
        other => {
            tx.send(err_response(
                id,
                ErrorKind::BadRequest,
                format!("unknown command '{other}'"),
            ));
        }
    }
}

/// Marks the ack of a routed write with this catalog's stamp, read
/// *after* the commit (see [`Outcome::Ok`] for the read side).
fn stamped(mut response: Value, stamp: Option<Stamp>) -> Value {
    if let (Value::Object(map), Some(stamp)) = (&mut response, stamp) {
        map.insert("stamp".into(), stamp_to_json(stamp));
    }
    response
}

/// Debug-only `write_event`: appends one event-layer record to `video`
/// and answers with the catalog's post-write data version.
fn handle_write_event(shared: &Arc<ServerShared>, id: u64, request: &Value) -> Value {
    let (Some(video), Some(kind), Some(start), Some(end)) = (
        request.get("video").and_then(Value::as_str),
        request.get("kind").and_then(Value::as_str),
        request.get("start").and_then(Value::as_u64),
        request.get("end").and_then(Value::as_u64),
    ) else {
        return err_response(
            id,
            ErrorKind::BadRequest,
            "write_event needs 'video', 'kind', 'start', 'end'",
        );
    };
    let record = f1_cobra::catalog::EventRecord {
        kind: kind.to_string(),
        start: start as usize,
        end: end as usize,
        driver: request
            .get("driver")
            .and_then(Value::as_str)
            .map(str::to_string),
    };
    match shared.vdbms.catalog.store_events(video, &[record]) {
        Ok(()) => {
            let version = shared.vdbms.catalog.data_version();
            let ack = json!({"kind": "written", "data_version": (version as f64)});
            let routed = request.get("shard").is_some();
            stamped(
                ok_response(id, ack),
                routed.then(|| shared.vdbms.catalog.stamp()),
            )
        }
        Err(e) => err_response(id, crate::protocol::classify(&e), e.to_string()),
    }
}

/// Delivers the leader's `outcome` to every follower coalesced under
/// `key`, framed under each follower's own request id, and retires the
/// flight so the next identical query starts fresh.
fn fan_out(shared: &Arc<ServerShared>, key: &str, outcome: &Outcome) {
    let waiters = {
        let mut flights = shared.flights.lock().expect("flight table");
        flights.remove(key).unwrap_or_default()
    };
    let registry = shared.registry();
    for w in waiters {
        registry
            .histogram("serve.latency_us", &[])
            .record(w.since.elapsed().as_micros() as u64);
        w.tx.send_frame(outcome.frame(w.id));
    }
}

/// Everything a pooled job needs to report its outcome.
struct JobCtx {
    shared: Arc<ServerShared>,
    id: u64,
    tx: ConnTx,
    inflight: Inflight,
    token: CancellationToken,
    deadline_at: Option<Instant>,
    fuel: Option<u64>,
    admitted_at: Instant,
    /// Set when this job leads a single-flight group; its outcome is
    /// fanned out to the group's followers.
    flight_key: Option<String>,
    /// True from the moment the worker starts running the job until a
    /// response is sent; arms the drop guard that releases followers if
    /// the worker dies mid-query. Not armed while the job sits in the
    /// queue, so an admission rejection reports its own (typed) error.
    running: AtomicBool,
}

impl JobCtx {
    /// Builds the request's execution budget from what is *left* of the
    /// deadline — queue wait has already consumed part of it.
    fn budget(&self) -> ExecBudget {
        let mut budget = ExecBudget::unlimited().with_cancel(self.token.clone());
        if let Some(at) = self.deadline_at {
            budget = budget.with_deadline(at.saturating_duration_since(Instant::now()));
        }
        if let Some(fuel) = self.fuel {
            budget = budget.with_fuel(fuel);
        }
        budget
    }

    /// Pre-flight: a request whose deadline lapsed in the queue, or
    /// whose client already left, fails without occupying the worker.
    fn expired(&self) -> Option<ErrorKind> {
        if self.token.is_cancelled() {
            return Some(ErrorKind::Cancelled);
        }
        if matches!(self.deadline_at, Some(at) if Instant::now() >= at) {
            return Some(ErrorKind::Deadline);
        }
        None
    }

    fn finish(&self, outcome: Outcome) {
        self.running.store(false, Ordering::SeqCst);
        self.inflight.lock().expect("inflight map").remove(&self.id);
        let registry = self.shared.registry();
        registry
            .histogram("serve.latency_us", &[])
            .record(self.admitted_at.elapsed().as_micros() as u64);
        if let Some(key) = &self.flight_key {
            fan_out(&self.shared, key, &outcome);
        }
        self.tx.send_frame(outcome.frame(self.id));
    }

    fn fail(&self, kind: ErrorKind, message: impl Into<String>) {
        let registry = self.shared.registry();
        registry
            .counter("serve.failed", &[("kind", kind.as_str())])
            .inc();
        self.finish(Outcome::Err {
            kind,
            message: message.into(),
        });
    }
}

impl Drop for JobCtx {
    /// A job that dies without responding (worker panic) must not wedge
    /// its single-flight group: release the followers with an error so
    /// the next identical query becomes a fresh leader.
    fn drop(&mut self) {
        if !self.running.load(Ordering::SeqCst) {
            return;
        }
        if let Some(key) = self.flight_key.take() {
            let outcome = Outcome::Err {
                kind: ErrorKind::Internal,
                message: "query worker terminated before responding".into(),
            };
            fan_out(&self.shared, &key, &outcome);
        }
    }
}

fn admit(
    shared: &Arc<ServerShared>,
    conn: ConnId,
    id: u64,
    request: &Value,
    tx: &ConnTx,
    flight_key: Option<String>,
    run: impl FnOnce(&JobCtx) + Send + 'static,
) {
    let inflight = shared.inflight_for(conn);
    let token = CancellationToken::new();
    let mut map = inflight.lock().expect("inflight map");
    map.insert(id, token.clone());
    drop(map);
    let rejection_key = flight_key.clone();
    let ctx = JobCtx {
        shared: Arc::clone(shared),
        id,
        tx: tx.clone(),
        inflight: Arc::clone(&inflight),
        token,
        deadline_at: request
            .get("deadline_ms")
            .and_then(Value::as_u64)
            .map(|ms| Instant::now() + Duration::from_millis(ms)),
        fuel: request.get("fuel").and_then(Value::as_u64),
        admitted_at: Instant::now(),
        flight_key,
        running: AtomicBool::new(false),
    };
    let outcome = shared.pool.try_submit(Box::new(move || {
        ctx.running.store(true, Ordering::SeqCst);
        if let Some(kind) = ctx.expired() {
            ctx.fail(kind, "request expired before execution");
            return;
        }
        run(&ctx);
    }));
    if let Err(e) = outcome {
        inflight.lock().expect("inflight map").remove(&id);
        let (kind, message) = rejection(e);
        shared
            .registry()
            .counter("serve.rejected", &[("kind", kind.as_str())])
            .inc();
        let outcome = Outcome::Err { kind, message };
        // A rejected leader takes its (raced-in) followers with it.
        if let Some(key) = &rejection_key {
            fan_out(shared, key, &outcome);
        }
        tx.send_frame(outcome.frame(id));
    }
}

fn submit_query(shared: &Arc<ServerShared>, conn: ConnId, id: u64, request: &Value, tx: &ConnTx) {
    let (Some(video), Some(text)) = (
        request.get("video").and_then(Value::as_str),
        request.get("text").and_then(Value::as_str),
    ) else {
        tx.send(err_response(
            id,
            ErrorKind::BadRequest,
            "query needs string fields 'video' and 'text'",
        ));
        return;
    };
    let (video, text) = (video.to_string(), text.to_string());

    // Single-flight: identical statements already in flight share one
    // worker execution. Only requests without a per-request deadline or
    // fuel budget are eligible (coalesced requests share the leader's
    // unlimited budget, so nobody's constraint is silently widened), and
    // only parseable statements coalesce — parse errors take the normal
    // path and fail in the worker as before.
    let eligible = request.get("deadline_ms").is_none() && request.get("fuel").is_none();
    let flight_key = if eligible {
        f1_cobra::parse_statement(&text)
            .ok()
            .map(|s| format!("{video}\u{1}{}", s.normalized()))
    } else {
        None
    };
    if let Some(key) = &flight_key {
        let mut flights = shared.flights.lock().expect("flight table");
        if let Some(waiters) = flights.get_mut(key) {
            waiters.push(FlightWaiter {
                id,
                tx: tx.clone(),
                since: Instant::now(),
            });
            drop(flights);
            shared.registry().counter("cache.coalesced", &[]).inc();
            return;
        }
        flights.insert(key.clone(), Vec::new());
    }

    let routed = request.get("shard").is_some();
    admit(shared, conn, id, request, tx, flight_key, move |ctx| {
        let stamp = routed.then(|| ctx.shared.vdbms.catalog.stamp());
        let budget = ctx.budget();
        // `"*"` runs the statement against every catalogued video — the
        // cross-video form the scatter-gather router also speaks, so a
        // single worker answers it identically to a one-shard cluster.
        let result = if video == "*" {
            ctx.shared.vdbms.run_multi_with_budget(&text, &budget)
        } else {
            ctx.shared.vdbms.run_with_budget(&video, &text, &budget)
        };
        match result {
            Ok(output) => {
                let mut body = Vec::new();
                f1_cobra::json::write_query_output(&mut Writer::new(&mut body), &output);
                ctx.finish(Outcome::Ok { body, stamp });
            }
            Err(e) => ctx.fail(crate::protocol::classify(&e), e.to_string()),
        }
    });
}

/// Debug-only deterministic slow query: holds a worker for `ms`
/// milliseconds while ticking an [`ExecBudget`] guard, so deadline,
/// cancellation and overload behavior can be tested without hunting
/// for a genuinely slow retrieval.
fn submit_sleep(shared: &Arc<ServerShared>, conn: ConnId, id: u64, request: &Value, tx: &ConnTx) {
    let Some(ms) = request.get("ms").and_then(Value::as_u64) else {
        tx.send(err_response(
            id,
            ErrorKind::BadRequest,
            "sleep needs integer field 'ms'",
        ));
        return;
    };
    admit(shared, conn, id, request, tx, None, move |ctx| {
        let budget = ctx.budget();
        let guard = budget.start();
        let end = Instant::now() + Duration::from_millis(ms);
        while Instant::now() < end {
            std::thread::sleep(Duration::from_millis(1));
            // The guard checks wall-clock deadlines every 64 ticks;
            // burn a full window per step so lapses surface within ~1ms.
            for _ in 0..64 {
                if let Err(e) = guard.tick() {
                    let kind = match &e {
                        MonetError::Deadline => ErrorKind::Deadline,
                        MonetError::Interrupted => ErrorKind::Cancelled,
                        MonetError::BudgetExhausted { .. } => ErrorKind::BudgetExhausted,
                        _ => ErrorKind::Internal,
                    };
                    ctx.fail(kind, e.to_string());
                    return;
                }
            }
        }
        ctx.finish(Outcome::Ok {
            body: json!({"kind": "slept", "ms": (ms as f64)})
                .to_string()
                .into_bytes(),
            stamp: None,
        });
    });
}
