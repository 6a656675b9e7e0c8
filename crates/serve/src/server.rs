//! The TCP query service: the [front end](crate::front) over one
//! in-process [`Vdbms`], and the commands only a server has.
//!
//! Its command table answers `version`, `stats` and `videos` inline on
//! the reactor; queries, checkpoints and debug writes take engine locks
//! and run on the pool. Each such job returns its reply frame, which the
//! pool's worker queues to the reactor once it has retired the job, so
//! no worker ever blocks on a slow client.
//!
//! A reply is an encoded frame. A query's worker takes the answer
//! from the result cache as its entries (`Vdbms::answer`) and writes the
//! `result` body straight into the frame from them
//! (`f1_cobra::json::write_answered`), in a buffer sized to the byte
//! (`answered_len`): one video's reply and each group of a sweep copy
//! the segment list the entry stored when it was made, so a hit encodes
//! no row and clones none; only `PROFILE`/`EXPLAIN` use
//! `write_query_output`. A single-flight leader's answer is framed again
//! under each follower's id, from the same entries: no thread ever
//! builds a tree of the rows.
//!
//! Guard rails, all typed on the wire (admission control and graceful
//! shutdown are the front end's):
//! * **Deadlines** — `deadline_ms` becomes an [`ExecBudget`] deadline;
//!   the kernel interrupts the query mid-MIL and the client gets
//!   `deadline`. Time spent waiting in the queue counts.
//! * **Disconnect cancellation** — when a client's socket closes, every
//!   query it still has in flight is cancelled through its budget token.
//! * **Panics** — a query that unwinds is answered `internal` by the
//!   pool, and so are its single-flight followers.
//! * **Epoch fence** — a routed frame addressed to another incarnation
//!   of this catalog is refused with `shard_unavailable`.
//! * **Backpressure** — a connection whose peer stops draining is not
//!   read from past a buffer high-water mark; subscribers that fall too
//!   far behind are disconnected with `slow_consumer`.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use cobra_faults::{CancellationToken, Recover};
use cobra_obs::{Histogram, Registry};
use f1_cobra::json::{answered_len, write_answered};
use f1_cobra::{Answered, Catalog, Vdbms};
use f1_monet::{ExecBudget, MonetError};
use serde_json::{json, Value};

use crate::front::{self, shareable, Door, Running};
use crate::protocol::{
    encode_frame, encode_reply, err_response, ok_frame, ok_response, or_oversize, stamp_to_json,
    touched_to_json, ErrorKind, Marked,
};
use crate::reactor::ConnId;
use crate::scheduler::UNWOUND;
use crate::stream::DEFAULT_PUSH_QUEUE_CAP;

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

/// What a pooled job concluded, before it is framed under a request id:
/// a single-flight leader's outcome is framed once for itself and once
/// per follower, from the same cache entries.
enum Outcome {
    /// A query's answer, and what marks a reply to a routed frame (one
    /// carrying the router's `shard` object): this catalog's stamp and
    /// report, read *before* executing the read. They ride in the
    /// envelope beside `result`, so the router can peel them off and
    /// forward the result untouched; direct clients never see them.
    Answered(Answered, Option<Marked>),
    /// Another success: a small `result` tree.
    Ok(Value),
    /// A typed failure.
    Err { kind: ErrorKind, message: String },
}

impl Outcome {
    fn frame(&self, id: u64) -> Vec<u8> {
        let built = match self {
            Outcome::Answered(answer, marked) => {
                let len = answered_len(answer);
                ok_frame(id, marked.as_ref(), len, |w| write_answered(w, answer))
            }
            Outcome::Ok(result) => ok_frame(id, None, 0, |w| w.value(result)),
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
    conn: ConnId,
    since: Instant,
}

/// The server's door: its catalog, and what its requests share.
pub(crate) struct Server {
    vdbms: Arc<Vdbms>,
    /// Whether the debug commands (`sleep`, `write_event`) exist.
    debug: bool,
    /// The cancellation token of every admitted query-shaped request,
    /// by connection and request id: cancelling one interrupts the
    /// running query through its budget.
    inflight: Mutex<HashMap<(ConnId, u64), CancellationToken>>,
    /// Single-flight table: (video, normalized statement) of every
    /// coalescable query currently admitted, mapped to the followers
    /// that arrived while it was in flight. The leader's presence is the
    /// map entry itself (followers may be zero), so identical requests
    /// share one worker execution instead of burning admission slots.
    flights: Mutex<HashMap<String, Vec<FlightWaiter>>>,
    /// `serve.latency_us`, resolved on the first answer.
    latency: OnceLock<Arc<Histogram>>,
}

type Front = front::Front<Server>;

/// A server command, run on the reactor thread.
type Handler = fn(&Arc<Front>, ConnId, u64, Value);

impl Server {
    fn registry(&self) -> &Arc<Registry> {
        self.vdbms.kernel().metrics().registry()
    }

    /// Records one request's time from admission to its answer.
    fn record_latency(&self, since: Instant) {
        let latency = self
            .latency
            .get_or_init(|| self.registry().histogram("serve.latency_us", &[]));
        latency.record(since.elapsed().as_micros() as u64);
    }
}

impl Door for Server {
    type Source = Vdbms;
    type Command = Handler;

    fn command(&self, cmd: &str) -> Option<Handler> {
        Some(match cmd {
            "version" => version,
            "stats" => stats,
            "videos" => videos,
            "checkpoint" => checkpoint,
            "query" => submit_query,
            "sleep" if self.debug => submit_sleep,
            "write_event" if self.debug => write_event,
            _ => return None,
        })
    }

    fn run(front: &Arc<Front>, conn: ConnId, id: u64, handler: Handler, request: Value) {
        // The epoch fence: a routed frame carries the epoch the router
        // handshook with. After a reboot its view is stale, so refuse with
        // the typed shard error and it re-handshakes.
        if let Some(expected) = request
            .get("shard")
            .and_then(|s| s.get("epoch"))
            .and_then(Value::as_u64)
        {
            let actual = front.door.vdbms.catalog.epoch();
            if expected != actual {
                let registry = front.door.registry();
                registry.counter("serve.shard_epoch_mismatch", &[]).inc();
                let why = format!("shard epoch is {actual}, frame addressed epoch {expected}");
                return front.reply(conn, &err_response(id, ErrorKind::ShardUnavailable, why));
            }
        }
        handler(front, conn, id, request);
    }

    fn closed(&self, conn: ConnId) {
        // Client gone (or evicted): interrupt what it still has running.
        let mut inflight = self.inflight.lock().recover();
        let orphaned: Vec<_> = inflight.extract_if(|&(c, _), _| c == conn).collect();
        drop(inflight);
        if !orphaned.is_empty() {
            self.registry()
                .counter("serve.cancelled_disconnect", &[])
                .add(orphaned.len() as u64);
            for (_, token) in orphaned {
                token.cancel();
            }
        }
    }

    fn stopped(&self) {
        // Every admitted mutation has drained: force buffered WAL records
        // to disk and leave a fresh checkpoint, so the next boot replays
        // nothing. Failure is non-fatal — the WAL already holds
        // everything acknowledged under `FsyncPolicy::Always`.
        if let Err(e) = self
            .vdbms
            .flush()
            .and_then(|()| self.vdbms.checkpoint().map(|_| ()))
        {
            eprintln!("cobra-serve: checkpoint on drain failed: {e}");
        }
    }
}

/// A running server. Dropping the handle without calling
/// [`shutdown`](Self::shutdown) leaves the server running detached.
pub struct ServerHandle(Running<Server>);

impl ServerHandle {
    /// The bound address (with the real port when the config said 0).
    pub fn addr(&self) -> SocketAddr {
        self.0.addr
    }

    /// The configured admission limit (`workers + queue_cap`).
    pub fn admission_limit(&self) -> usize {
        self.0.front.pool.admission_limit()
    }

    /// Graceful shutdown in the front end's order (admitted queries
    /// drain, new ones are refused with `shutting_down`), then a flush
    /// and a checkpoint.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// Binds and starts serving `vdbms` per `config`.
pub fn start(vdbms: Arc<Vdbms>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let registry = Arc::clone(vdbms.kernel().metrics().registry());
    // Pre-resolve so `stats` shows the series from boot.
    registry.counter("cache.coalesced", &[]);
    let server = Server {
        vdbms: Arc::clone(&vdbms),
        debug: config.debug,
        inflight: Mutex::default(),
        flights: Mutex::default(),
        latency: OnceLock::new(),
    };
    let front = Front::new(server, vdbms, &registry, &config)?;
    front
        .start("cobra-serve-reactor", &config)
        .map(ServerHandle)
}

/// The router's connection handshake and the operator's topology probe:
/// who am I (epoch), where is my commit seq (data_version), what do I
/// hold (videos).
fn version(front: &Arc<Front>, conn: ConnId, id: u64, _: Value) {
    let catalog = &front.door.vdbms.catalog;
    let version = json!({
        "kind": "version",
        "epoch": (catalog.epoch() as f64),
        "data_version": (catalog.data_version() as f64),
        "videos": (catalog.videos()),
    });
    front.reply(conn, &ok_response(id, version));
}

fn stats(front: &Arc<Front>, conn: ConnId, id: u64, _: Value) {
    let snapshot = front.door.registry().snapshot().to_json();
    front.reply(
        conn,
        &ok_response(id, json!({"kind": "stats", "snapshot": (snapshot)})),
    );
}

fn videos(front: &Arc<Front>, conn: ConnId, id: u64, _: Value) {
    let names = front.door.vdbms.catalog.videos();
    front.reply(
        conn,
        &ok_response(id, json!({"kind": "videos", "videos": (names)})),
    );
}

/// A checkpoint clones dirty BATs under the commit lock — pool work,
/// never the reactor's.
fn checkpoint(front: &Arc<Front>, conn: ConnId, id: u64, _: Value) {
    front.pooled(conn, id, move |front| {
        encode_reply(&match front.door.vdbms.checkpoint() {
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
        })
    });
}

/// Debug-only event append over the wire: appends one event-layer record
/// to `video` and answers with the catalog's post-write data version —
/// the sharding tests mutate one shard of a live cluster with it and
/// prove the router's cross-shard cache invalidation. The catalog
/// serializes mutations on its commit lock: pool work.
fn write_event(front: &Arc<Front>, conn: ConnId, id: u64, request: Value) {
    front.pooled(conn, id, move |front| {
        let catalog = &front.door.vdbms.catalog;
        let (Some(video), Some(kind), Some(start), Some(end)) = (
            request.get("video").and_then(Value::as_str),
            request.get("kind").and_then(Value::as_str),
            request.get("start").and_then(Value::as_u64),
            request.get("end").and_then(Value::as_u64),
        ) else {
            let why = "write_event needs 'video', 'kind', 'start', 'end'";
            return encode_reply(&err_response(id, ErrorKind::BadRequest, why));
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
        encode_reply(&match catalog.store_events(video, &[record]) {
            Ok(()) => {
                let version = catalog.data_version();
                let ack = json!({"kind": "written", "data_version": (version as f64)});
                let mut response = ok_response(id, ack);
                // The ack of a routed write carries this catalog's stamp
                // and report, read *after* the commit (see
                // `Outcome::Answered` for the read side).
                if let (Value::Object(map), Some(marked)) =
                    (&mut response, marked(catalog, request.get("shard")))
                {
                    map.insert("stamp".into(), stamp_to_json(marked.stamp));
                    if let Some(touched) = &marked.touched {
                        map.insert("touched".into(), touched_to_json(touched));
                    }
                }
                response
            }
            Err(e) => err_response(id, crate::protocol::classify(&e), e.to_string()),
        })
    });
}

/// What marks the reply to a routed frame, one carrying the router's
/// `shard` object: the catalog's stamp and, when the router named the
/// seq its mirror covers (`shard.since`), what commits after it touched,
/// read together.
fn marked(catalog: &Catalog, shard: Option<&Value>) -> Option<Marked> {
    Some(match shard?.get("since").and_then(Value::as_u64) {
        Some(since) => {
            let (stamp, touched) = catalog.touched_since(since);
            Marked {
                stamp,
                touched: Some(touched),
            }
        }
        None => Marked {
            stamp: catalog.stamp(),
            touched: None,
        },
    })
}

/// A query-shaped request from admission to its answer: its budget, its
/// cancellation token in the in-flight map and, as a single-flight
/// leader, its group. The job and [`admit`] share it; dropping the last
/// handle is the one release, however the job ended: the token leaves
/// the map, and the followers get the `outcome` that was set (the answer
/// or the leader's typed refusal), or `internal` if the job unwound.
struct JobCtx {
    front: Arc<Front>,
    conn: ConnId,
    id: u64,
    token: CancellationToken,
    deadline_at: Option<Instant>,
    fuel: Option<u64>,
    admitted_at: Instant,
    /// Set when this job leads a single-flight group.
    flight_key: Option<String>,
    /// What the request concluded, for its followers.
    outcome: OnceLock<Outcome>,
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

    /// A typed failure, counted in `serve.failed{kind}`.
    fn fail(&self, kind: ErrorKind, message: impl Into<String>) -> Outcome {
        let registry = self.front.door.registry();
        registry
            .counter("serve.failed", &[("kind", kind.as_str())])
            .inc();
        Outcome::Err {
            kind,
            message: message.into(),
        }
    }

    /// Runs the job, unless the request expired in the queue, and
    /// returns the frame that answers it.
    fn finish(&self, run: impl FnOnce(&JobCtx) -> Outcome) -> Vec<u8> {
        let outcome = match self.expired() {
            Some(kind) => self.fail(kind, "request expired before execution"),
            None => run(self),
        };
        self.front.door.record_latency(self.admitted_at);
        let frame = outcome.frame(self.id);
        let _ = self.outcome.set(outcome);
        frame
    }
}

impl Drop for JobCtx {
    fn drop(&mut self) {
        let door = &self.front.door;
        door.inflight.lock().recover().remove(&(self.conn, self.id));
        let Some(key) = &self.flight_key else { return };
        // The flight retires, so the next identical query leads afresh.
        let followers = door.flights.lock().recover().remove(key);
        let outcome = self.outcome.take().unwrap_or_else(|| Outcome::Err {
            kind: ErrorKind::Internal,
            message: UNWOUND.into(),
        });
        for w in followers.into_iter().flatten() {
            door.record_latency(w.since);
            self.front.ctl.send(w.conn, outcome.frame(w.id));
        }
    }
}

/// Admits a query-shaped job: a cancellation token for disconnects, the
/// request's deadline and fuel, and its single-flight group. It goes
/// through [`Front::pooled`](front::Front::pooled) like every pool job,
/// which answers a refusal; a refused leader's followers get the same
/// typed refusal.
fn admit(
    front: &Arc<Front>,
    conn: ConnId,
    id: u64,
    request: &Value,
    flight_key: Option<String>,
    run: impl FnOnce(&JobCtx) -> Outcome + Send + 'static,
) {
    let token = CancellationToken::new();
    let inflight = &front.door.inflight;
    inflight.lock().recover().insert((conn, id), token.clone());
    let ctx = Arc::new(JobCtx {
        front: Arc::clone(front),
        conn,
        id,
        token,
        deadline_at: request
            .get("deadline_ms")
            .and_then(Value::as_u64)
            .map(|ms| Instant::now() + Duration::from_millis(ms)),
        fuel: request.get("fuel").and_then(Value::as_u64),
        admitted_at: Instant::now(),
        flight_key,
        outcome: OnceLock::new(),
    });
    let job = Arc::clone(&ctx);
    if let Some((kind, message)) = front.pooled(conn, id, move |_| job.finish(run)) {
        let _ = ctx.outcome.set(Outcome::Err { kind, message });
    }
}

fn submit_query(front: &Arc<Front>, conn: ConnId, id: u64, request: Value) {
    let (Some(video), Some(text)) = (
        request.get("video").and_then(Value::as_str),
        request.get("text").and_then(Value::as_str),
    ) else {
        let why = "query needs string fields 'video' and 'text'";
        return front.reply(conn, &err_response(id, ErrorKind::BadRequest, why));
    };
    let (video, text) = (video.to_string(), text.to_string());

    // Single-flight: identical statements already in flight share one
    // worker execution, when `shareable` allows. Routed and direct
    // requests never share one (their keys differ in the separator), so
    // only routed replies carry a mark.
    let shard = request.get("shard").cloned();
    let separator = if shard.is_some() { '\u{2}' } else { '\u{1}' };
    let flight_key =
        shareable(&request, &text).map(|s| format!("{video}{separator}{}", s.normalized()));
    if let Some(key) = &flight_key {
        let mut flights = front.door.flights.lock().recover();
        if let Some(waiters) = flights.get_mut(key) {
            waiters.push(FlightWaiter {
                id,
                conn,
                since: Instant::now(),
            });
            drop(flights);
            front.door.registry().counter("cache.coalesced", &[]).inc();
            return;
        }
        flights.insert(key.clone(), Vec::new());
    }

    admit(front, conn, id, &request, flight_key, move |ctx| {
        let vdbms = &ctx.front.door.vdbms;
        let marked = marked(&vdbms.catalog, shard.as_ref());
        let budget = ctx.budget();
        // `"*"` runs the statement against every catalogued video — the
        // cross-video form the scatter-gather router also speaks, so a
        // single worker answers it identically to a one-shard cluster.
        match vdbms.answer(&video, &text, &budget) {
            Ok(answer) => Outcome::Answered(answer, marked),
            Err(e) => ctx.fail(crate::protocol::classify(&e), e.to_string()),
        }
    });
}

/// Debug-only deterministic slow query: holds a worker for `ms`
/// milliseconds while ticking an [`ExecBudget`] guard, so deadline,
/// cancellation and overload behavior can be tested without hunting
/// for a genuinely slow retrieval.
fn submit_sleep(front: &Arc<Front>, conn: ConnId, id: u64, request: Value) {
    let Some(ms) = request.get("ms").and_then(Value::as_u64) else {
        let why = "sleep needs integer field 'ms'";
        return front.reply(conn, &err_response(id, ErrorKind::BadRequest, why));
    };
    admit(front, conn, id, &request, None, move |ctx| {
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
                    return ctx.fail(kind, e.to_string());
                }
            }
        }
        Outcome::Ok(json!({"kind": "slept", "ms": (ms as f64)}))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::Op;

    /// A server front end with `queue_cap` queue slots over an empty
    /// catalog and no reactor: its replies stay on the op queue.
    fn detached(queue_cap: usize) -> Arc<Front> {
        let vdbms = Arc::new(Vdbms::try_new().expect("a fresh catalog"));
        let registry = Arc::clone(vdbms.kernel().metrics().registry());
        let server = Server {
            vdbms: Arc::clone(&vdbms),
            debug: true,
            inflight: Mutex::default(),
            flights: Mutex::default(),
            latency: OnceLock::new(),
        };
        let config = ServerConfig {
            workers: 1,
            queue_cap,
            ..ServerConfig::default()
        };
        Front::new(server, vdbms, &registry, &config).expect("the front end")
    }

    /// Request 1 on connection 1 leads a single-flight group that
    /// requests 2 and 3 on connections 2 and 3 follow, and runs `run`.
    fn lead(front: &Arc<Front>, run: impl FnOnce(&JobCtx) -> Outcome + Send + 'static) {
        let key = "v\u{1}RETRIEVE HIGHLIGHTS".to_string();
        let followers = [2, 3].map(|k| FlightWaiter {
            id: k,
            conn: ConnId(k),
            since: Instant::now(),
        });
        front
            .door
            .flights
            .lock()
            .recover()
            .insert(key.clone(), followers.into());
        admit(front, ConnId(1), 1, &json!({}), Some(key), run);
    }

    /// The error kind each of the three requests was answered with,
    /// checking that each reply went to its requester under its id.
    fn answers(front: &Front) -> Vec<String> {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut answers = Vec::new();
        while answers.len() < 3 {
            assert!(Instant::now() < deadline, "answered only {answers:?}");
            for op in front.ctl.take_ops() {
                let Op::Send { conn, frame } = op else {
                    panic!("only replies are queued");
                };
                let reply: Value = serde_json::from_slice(&frame[4..]).expect("JSON");
                let id = reply.get("id").and_then(Value::as_u64);
                assert_eq!(id, Some(conn.0), "{reply}");
                let kind = reply.get("error").and_then(|e| e.get("kind"));
                answers.push((id, kind.and_then(Value::as_str).map(str::to_string)));
            }
            std::thread::yield_now();
        }
        answers.sort();
        answers
            .into_iter()
            .map(|(_, kind)| kind.unwrap_or_default())
            .collect()
    }

    /// After the group is released: no flight is left, and a close of
    /// the leader's connection finds no token to cancel.
    fn released(front: &Front) {
        assert!(front.door.flights.lock().recover().is_empty());
        front.door.closed(ConnId(1));
        let registry = front.door.registry();
        assert_eq!(
            registry
                .snapshot()
                .counter("serve.cancelled_disconnect", &[]),
            0
        );
    }

    #[test]
    fn an_unwound_leader_and_its_followers_are_answered_internal() {
        let front = detached(4);
        lead(&front, |_| panic!("the leader unwinds"));
        assert_eq!(answers(&front), ["internal"; 3]);
        released(&front);
        let panics = front.door.registry().snapshot();
        assert_eq!(panics.counter("serve.worker_panics", &[]), 1);
        front.pool.shutdown();
    }

    #[test]
    fn a_refused_leader_and_its_followers_get_its_typed_refusal() {
        // No queue slot: every submission is refused as overloaded.
        let front = detached(0);
        lead(&front, |_| unreachable!("a refused job never runs"));
        assert_eq!(answers(&front), ["overloaded"; 3]);
        released(&front);

        let front = detached(4);
        front.pool.shutdown();
        lead(&front, |_| unreachable!("a refused job never runs"));
        assert_eq!(answers(&front), ["shutting_down"; 3]);
        released(&front);
    }
}
