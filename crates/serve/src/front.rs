//! The front door: what the query server and the router do alike.
//!
//! Both speak one protocol, so the listener, the [`reactor`](crate::reactor)
//! and its [`ReactorCtl`], the bounded [`WorkerPool`], the standing-query
//! [`Hub`] and the one [`Service`] live here once. Per frame the front
//! end reads `id` and `cmd`, counts `serve.requests{cmd}`, answers `ping`,
//! a missing `cmd` and an unknown command on the reactor, and runs
//! `subscribe`/`unsubscribe` through the hub on the pool; every other
//! command is resolved in the door's table ([`Door::command`]) and run by
//! the door ([`Door::run`]). Every pool job goes through
//! [`Front::pooled`], the one place a full or closing pool becomes a
//! typed `overloaded` or `shutting_down` answer; an admitted job returns
//! its reply frame, which the pool's worker sends once it has retired
//! the job (a job that unwinds is answered `internal` there). And
//! [`Running::shutdown`] is the one shutdown order.

use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use cobra_obs::{Counter, Registry};
use serde_json::{json, Value};

use crate::protocol::{encode_reply, err_response, ok_response, ErrorKind};
use crate::reactor::{self, ConnId, ReactorConfig, ReactorCtl, Service};
use crate::scheduler::{SubmitError, WorkerPool};
use crate::server::ServerConfig;
use crate::stream::{Hub, Source};

/// A typed failure, as it will appear on the wire.
pub(crate) type Fail = (ErrorKind, String);

/// What a door — the server, the router — adds to the front end: its
/// command table, and its part of a connection's close and of shutdown.
pub(crate) trait Door: Send + Sync + Sized + 'static {
    /// Where the door's standing queries get stamps and answers.
    type Source: Source;
    /// What a command name resolves to in the door's table.
    type Command;

    /// The table: what `cmd` resolves to, `None` when the door does not
    /// speak it.
    fn command(&self, cmd: &str) -> Option<Self::Command>;

    /// Runs a resolved command for request `id` on `conn`. Called on the
    /// reactor thread: anything that can block goes to the pool.
    fn run(front: &Arc<Front<Self>>, conn: ConnId, id: u64, command: Self::Command, request: Value);

    /// Runs on the pool before a `subscribe` evaluates.
    fn subscribing(&self) {}

    /// `conn` is gone; its standing queries are dropped after this.
    fn closed(&self, _conn: ConnId) {}

    /// The door's last step of shutdown, once the reactor is joined.
    fn stopped(&self);
}

/// The commands either door speaks, whose `serve.requests{cmd}` series
/// a front end resolves once each; any other name goes to the registry.
const COMMANDS: [&str; 10] = [
    "query",
    "ping",
    "version",
    "stats",
    "videos",
    "checkpoint",
    "subscribe",
    "unsubscribe",
    "write_event",
    "sleep",
];

/// Everything a door's requests share.
pub(crate) struct Front<D: Door> {
    pub(crate) door: D,
    pub(crate) ctl: ReactorCtl,
    pub(crate) pool: WorkerPool,
    pub(crate) hub: Arc<Hub<D::Source>>,
    registry: Arc<Registry>,
    /// `serve.requests{cmd}` of each of [`COMMANDS`], resolved on its
    /// first request.
    requests: [OnceLock<Arc<Counter>>; COMMANDS.len()],
}

/// A started front end. Dropping it without calling
/// [`shutdown`](Self::shutdown) leaves it running detached.
pub(crate) struct Running<D: Door> {
    pub(crate) addr: SocketAddr,
    pub(crate) front: Arc<Front<D>>,
    reactor: JoinHandle<()>,
}

impl<D: Door> Front<D> {
    /// The front end of `door`, sized by `config` (a router is sized like
    /// a server): the hub reads `source`, every series goes to `registry`,
    /// and nothing listens until [`start`](Self::start).
    pub(crate) fn new(
        door: D,
        source: Arc<D::Source>,
        registry: &Arc<Registry>,
        config: &ServerConfig,
    ) -> std::io::Result<Arc<Self>> {
        let ctl = ReactorCtl::new()?;
        let pool = WorkerPool::new(config.workers, config.queue_cap, registry, ctl.clone())?;
        let cap = config.push_queue_cap;
        let hub = Hub::new(source, Arc::clone(registry), ctl.clone(), cap);
        Ok(Arc::new(Front {
            door,
            ctl,
            pool,
            hub,
            registry: Arc::clone(registry),
            requests: Default::default(),
        }))
    }

    /// Serves this front end on `config`'s address, its reactor thread
    /// called `name`.
    pub(crate) fn start(
        self: Arc<Self>,
        name: &str,
        config: &ServerConfig,
    ) -> std::io::Result<Running<D>> {
        let listener = TcpListener::bind(&config.addr).inspect_err(|_| self.pool.shutdown())?;
        let addr = listener.local_addr()?;
        let reactor = ReactorConfig {
            name: name.into(),
            idle_timeout: config.idle_timeout,
            sndbuf: config.sndbuf,
        };
        let service = Arc::new(Arc::clone(&self));
        let reactor = reactor::spawn(listener, &self.ctl, reactor, &self.registry, service)?;
        Ok(Running {
            addr,
            front: self,
            reactor,
        })
    }

    /// Counts one request for `cmd` in `serve.requests{cmd}`.
    fn count_request(&self, cmd: &str) {
        let resolve = || self.registry.counter("serve.requests", &[("cmd", cmd)]);
        match COMMANDS.iter().position(|&known| known == cmd) {
            Some(i) => self.requests[i].get_or_init(resolve).inc(),
            None => resolve().inc(),
        }
    }

    /// Queues a response built as a tree on `conn`.
    pub(crate) fn reply(&self, conn: ConnId, response: &Value) {
        self.ctl.send(conn, encode_reply(response));
    }

    /// Runs `job` on the pool, whose worker sends the frame it returns on
    /// `conn` (`internal` if it unwinds). A refused job is dropped unrun:
    /// its typed `overloaded` or `shutting_down` is counted in
    /// `serve.rejected{kind}`, answers request `id` at once, and is returned.
    pub(crate) fn pooled(
        self: &Arc<Self>,
        conn: ConnId,
        id: u64,
        job: impl FnOnce(&Arc<Self>) -> Vec<u8> + Send + 'static,
    ) -> Option<Fail> {
        let front = Arc::clone(self);
        let job = Box::new(move || job(&front));
        let refused = self.pool.try_submit((conn, id, job)).err()?;
        let (kind, message) = match refused {
            SubmitError::Overloaded { queue_cap } => (
                ErrorKind::Overloaded,
                format!("queue full ({queue_cap} waiting); retry with backoff"),
            ),
            SubmitError::ShuttingDown => {
                (ErrorKind::ShuttingDown, "service is shutting down".into())
            }
        };
        self.registry
            .counter("serve.rejected", &[("kind", kind.as_str())])
            .inc();
        self.reply(conn, &err_response(id, kind, message.as_str()));
        Some((kind, message))
    }
}

impl<D: Door> Service for Arc<Front<D>> {
    fn on_frame(&self, conn: ConnId, request: Value) {
        let id = request.get("id").and_then(Value::as_u64).unwrap_or(0);
        let Some(cmd) = request.get("cmd").and_then(Value::as_str) else {
            let missing = err_response(id, ErrorKind::BadRequest, "missing 'cmd'");
            return self.reply(conn, &missing);
        };
        self.count_request(cmd);
        match cmd {
            "ping" => self.reply(conn, &ok_response(id, json!({"kind": "pong"}))),
            // A subscription's initial evaluation is a real query, and the
            // hub lock is held across sweep evaluations: pool work.
            "subscribe" => {
                self.pooled(conn, id, move |front| {
                    front.door.subscribing();
                    encode_reply(&front.hub.subscribe(conn, id, &request))
                });
            }
            "unsubscribe" => {
                self.pooled(conn, id, move |front| {
                    encode_reply(&front.hub.unsubscribe(conn, id, &request))
                });
            }
            _ => match self.door.command(cmd) {
                Some(command) => D::run(self, conn, id, command, request),
                None => {
                    let why = format!("unknown command '{cmd}'");
                    self.reply(conn, &err_response(id, ErrorKind::BadRequest, why));
                }
            },
        }
    }

    fn on_close(&self, conn: ConnId) {
        self.door.closed(conn);
        self.hub.drop_conn(conn);
    }
}

impl<D: Door> Running<D> {
    /// Graceful shutdown: the listener closes, admitted jobs run to their
    /// answers while later ones are refused, the hub closes, the reactor
    /// flushes, stops and is joined, and then the door does its part.
    pub(crate) fn shutdown(self) {
        let front = &self.front;
        // The listener closes first, so no connection sneaks in mid-drain:
        // connects are refused from here on.
        front.ctl.drain();
        // Admitted jobs run to their answers, which flow through the
        // still-live reactor; later submissions are refused.
        front.pool.shutdown();
        front.hub.close();
        // Flush and close every connection; then the loop exits.
        front.ctl.stop();
        let _ = self.reactor.join();
        front.door.stopped();
    }
}

/// Whether a `query` may be answered from another request's work — a
/// single-flight leader's on the server, a cached part on the router —
/// and if so its parsed statement, whose normalized text is the key. A
/// request carrying its own `deadline_ms` or `fuel` runs alone, so that
/// no one's limit is silently widened; a statement that does not parse
/// takes the normal path and fails there.
pub(crate) fn shareable(request: &Value, text: &str) -> Option<f1_cobra::Statement> {
    if request.get("deadline_ms").is_some() || request.get("fuel").is_some() {
        return None;
    }
    f1_cobra::parse_statement(text).ok()
}
