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
//! The client-facing side is the same [front end](crate::front) as
//! `cobra-serve`'s. A `query` whose every part the router cache holds is
//! answered on the reactor; every other request runs on the pool, each
//! job over a set of shard connections checked out of a shared pool, so
//! shard sockets are never contended and the reactor never waits on one.
//!
//! * **Single-video queries** are forwarded to the owning shard, whose
//!   answer passes through as bytes: the router parses the reply's
//!   envelope (`id`, `ok`, `stamp`, `error`) and reads the `result` as a
//!   [`Part`] — its raw text, validated, so a malformed reply is a
//!   retried transport failure, never relayed — to frame under the
//!   client's id and to cache.
//! * **Cross-video queries** (`video = "*"`) are answered in *parts*,
//!   one per shard, whose groups were located by the read that validated
//!   them: a sweep is one sort by video name and one join over those
//!   offsets, byte-identical to what one server holding every video
//!   answers. Only shards whose part is not cached are asked, on the
//!   job's own thread: one is a plain forward, several are written to
//!   first and then read in shard order.
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
//! * **Shards say what each commit touched.** Beside each stamp comes a
//!   report ([`Touched`]): on a feed frame, what the commits since the
//!   frame before touched; on a reply, what the commits since the
//!   `since` seq the router put in the frame's `shard` object touched.
//!   The router keeps a [`Mirror`] of each shard's guards from them, and
//!   guards a statement by what it reads there ([`guard::reads`], the
//!   rule a worker guards by). The mirror starts from the feed
//!   handshake, which names each video's kinds with unnamed rows, so a
//!   driver-named selection reads the driver's other rows only where its
//!   kind has unnamed rows, as on the worker; a video whose kinds it
//!   does not know reads them all. Where the mirror does not cover
//!   `known[shard]` — a stamp came without a report, the feed reconnected,
//!   the epoch changed — the shard's guards fall back to its whole stamp.
//! * **The router result cache** is the same
//!   [`ResultCache`](f1_cobra::ResultCache) a worker uses, holding what
//!   one shard answered as the [`Part`] it was read into — a single
//!   video's `result` body or a part of a sweep — under the statement's
//!   guard over that shard at the stamp the reply carried. It hits only
//!   while that guard holds at `known[shard]`: a write on shard A voids
//!   exactly what read the rows it wrote there, and what read a shard
//!   whose feed is down misses and is forwarded — a dead shard surfaces
//!   as the typed error, never as a stale answer.
//! * **Standing `subscribe` queries** run on the same
//!   [`Hub`](crate::stream::Hub) as a worker's, with the router as its
//!   [`Source`]: a scope is a shard with the statement, and its stamp is
//!   the statement's guard there, so a write on shard A re-issues to
//!   shard A only the standing queries that read what it wrote.
//!
//! Fault site: `router.forward` fires at the top of every forward
//! attempt, simulating a transport failure without touching the real
//! connection — `Times(1)` proves one re-dispatch masks a blip,
//! `Always` proves exhaustion surfaces the typed error.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cobra_faults::Recover;
use cobra_obs::Registry;
use f1_cobra::catalog::ChangeFeed;
use f1_cobra::guard::{self, Mirror, Read, Touched, Unnamed};
use f1_cobra::json::{join_groups, read_query_output, Part};
use f1_cobra::{CachedResult, Query, ResultCache, Stamp, Statement};
use serde_json::{json, ParseError, Reader, Value, Writer};

use crate::client::{unwrap_envelope, unwrap_response, Client, ClientError};
use crate::front::{shareable, Door, Fail, Front, Running};
use crate::protocol::{
    encode_reply, err_response, ok_frame, ok_response, or_oversize, stamp_from_json,
    touched_from_json, unnamed_from_json, ErrorKind, FrameError,
};
use crate::reactor::ConnId;
use crate::ring::{Ring, DEFAULT_SEED};
use crate::server::ServerConfig;
use crate::stream::{answer_groups, empty_answer, Group, Source, SWEEP_INTERVAL};

/// Read timeout for handshakes (`version` on a forwarding connection,
/// the bare `subscribe` on a feed). Both are answered promptly by a
/// live worker, so one that takes this long means the worker is gone.
const PROBE_TIMEOUT: Duration = Duration::from_secs(5);

/// Forwarding threads of the router's internal pool. Forwards are
/// I/O-bound waits on workers, so the pool runs wider than a CPU-bound
/// one; the queue bounds how many requests may wait behind them.
const ROUTER_WORKERS: usize = 16;
const ROUTER_QUEUE_CAP: usize = 256;

/// How the router retries a forward, or re-dials a feed, whose worker
/// died or rebooted.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Extra attempts after the first failure (0 = never retry).
    pub max_retries: u32,
    /// Pause between attempts.
    pub backoff_ms: u64,
}

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
    /// Cached `result` bodies, as the shards encoded them, each with
    /// the groups its read located.
    cache: ResultCache<Part>,
    shutting_down: AtomicBool,
    /// Per shard: what the router knows of its data.
    views: Mutex<Vec<ShardView>>,
    /// Ticks whenever a shard's known stamp changes; the hub's notifier
    /// waits on it.
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

/// What the router knows of one shard's data.
#[derive(Default)]
struct ShardView {
    /// The latest stamp seen on its feed or on a forwarded reply; `None`
    /// while the feed connection is down.
    known: Option<Stamp>,
    /// Its guards, kept from the reports beside those stamps. It starts
    /// at a feed handshake, the first or the first of a new incarnation;
    /// a reconnect to the same incarnation keeps it, behind the
    /// handshake's stamp, until a forwarded reply's report catches it up.
    mirror: Option<Mirror>,
}

impl RouterShared {
    /// Starts the shard feeds on first use. Like the forwarding
    /// connections, nothing is dialed until a request needs a shard — a
    /// router that only answers pings owes its workers no connections.
    fn ensure_feeds(self: &Arc<Self>) {
        let mut feeds = self.feeds.lock().recover();
        if !feeds.is_empty() {
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
        let idle = self.conn_sets.lock().recover().pop();
        let conn = |shard| ShardConn {
            shard,
            ..ShardConn::default()
        };
        idle.unwrap_or_else(|| (0..self.ring.shards()).map(conn).collect())
    }

    fn checkin(&self, set: Vec<ShardConn>) {
        let mut sets = self.conn_sets.lock().recover();
        if sets.len() < ROUTER_WORKERS {
            sets.push(set);
        }
    }

    fn addr_of(&self, shard: u32) -> Result<String, String> {
        self.addrs
            .lock()
            .recover()
            .get(shard as usize)
            .cloned()
            .ok_or_else(|| format!("shard {shard} is not on the ring"))
    }

    /// The shards a statement over `video` reads: its owner, or every
    /// shard for `"*"`.
    fn owners(&self, video: &str) -> Vec<u32> {
        if video == "*" {
            (0..self.ring.shards()).collect()
        } else {
            vec![self.ring.owner(video)]
        }
    }

    /// `shard`'s current stamp, `None` while its feed is down.
    fn known(&self, shard: u32) -> Option<Stamp> {
        self.views.lock().recover().get(shard as usize)?.known
    }

    /// The guard of `reads` over `video` on `shard` at its stamp `at` —
    /// what an answer read at `at` is stored under — or, for `None`, at
    /// its known stamp (`None` while the feed is down): the mirrored guard
    /// where the mirror covers that stamp, the stamp itself where not.
    fn guard<'r>(
        &self,
        shard: u32,
        at: Option<Stamp>,
        video: &str,
        reads: impl IntoIterator<Item = Read<'r>> + Clone,
    ) -> Option<Stamp> {
        let views = self.views.lock().recover();
        let view = views.get(shard as usize)?;
        let at = at.or(view.known)?;
        Some(
            view.mirror
                .as_ref()
                .map_or(at, |m| m.guard(at, video, reads)),
        )
    }

    /// The seq `shard`'s mirror covers, for a frame to a worker of
    /// incarnation `epoch` to name as its `since`.
    fn since(&self, shard: u32, epoch: u64) -> Option<u64> {
        let views = self.views.lock().recover();
        let covered = views.get(shard as usize)?.mirror.as_ref()?.covered();
        (covered.epoch == epoch).then_some(covered.seq)
    }

    /// The feed (re)connected with a handshake — its stamp, and the
    /// kinds with unnamed rows it named per video — or dropped (`None`).
    /// `router.feeds_up` counts the shards whose stamp is known. It is
    /// set under the lock: two feeds connecting at once would otherwise
    /// publish their counts in either order, and a stale count, set
    /// last, would stand until a feed next connected or dropped.
    fn set_known(&self, shard: u32, handshake: Option<(Stamp, Vec<(String, Unnamed)>)>) {
        {
            let mut views = self.views.lock().recover();
            if let Some(view) = views.get_mut(shard as usize) {
                view.known = handshake.as_ref().map(|(stamp, _)| *stamp);
                // A handshake starts a mirror at its stamp, unless one of
                // the same incarnation, no further along, can catch up.
                let covered = view.mirror.as_ref().map(Mirror::covered);
                if let Some((stamp, unnamed)) = handshake.filter(|(stamp, _)| {
                    covered.is_none_or(|at| at.epoch != stamp.epoch || at > *stamp)
                }) {
                    view.mirror = Some(Mirror::new(stamp, unnamed));
                }
            }
            let up = views.iter().filter(|view| view.known.is_some()).count();
            self.registry.gauge("router.feeds_up", &[]).set(up as i64);
        }
        self.moved.bump();
    }

    /// A stamp frame or a forwarded reply reported `stamp`, and what the
    /// commits up to it `touched`: the mirror takes the report, and the
    /// later stamp is kept. A reply cannot resurrect a stamp the feed has
    /// lost — while the feed is down the shard stays unknown.
    fn observe(&self, shard: u32, stamp: Stamp, touched: Option<&Touched>) {
        let raised = {
            let mut views = self.views.lock().recover();
            let Some(view) = views.get_mut(shard as usize) else {
                return;
            };
            if let (Some(mirror), Some(touched)) = (&mut view.mirror, touched) {
                mirror.apply(stamp, touched);
            }
            match &mut view.known {
                Some(known) if stamp > *known => {
                    *known = stamp;
                    true
                }
                _ => false,
            }
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
                        let Some(moved) = frame.get("result") else {
                            continue;
                        };
                        if let Some(stamp) = stamp_from_json(moved) {
                            let touched = moved.get("touched").and_then(touched_from_json);
                            shared.observe(shard, stamp, touched.as_ref());
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
/// is the handshake and carries the shard's current stamp and, per
/// video, the kinds with unnamed rows at that stamp (none named: every
/// video's unknown).
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
        let unnamed = subscribed.get("unnamed").and_then(unnamed_from_json);
        shared.set_known(shard, Some((stamp, unnamed.unwrap_or_default())));
        return Ok(feed);
    }
}

/// A standing query's scope at the router: a shard it reads, the video
/// and the statement (`None` for a bare watcher).
type ShardScope = (u32, String, Option<Query>);

impl Source for RouterShared {
    type Scope = ShardScope;

    /// One scope per shard the statement reads.
    fn scopes(&self, video: &str, text: Option<&str>) -> Vec<ShardScope> {
        let query = text.and_then(|text| f1_cobra::parse_query(text).ok());
        let scope = |shard| (shard, video.to_string(), query.clone());
        self.owners(video).into_iter().map(scope).collect()
    }

    /// A statement's guard on the shard, the one its cached parts are
    /// checked against; a bare watcher's is the shard's stamp.
    fn stamp(&self, (shard, video, query): &ShardScope) -> Result<Stamp, String> {
        let guard = match query {
            Some(q) => self.guard(*shard, None, video, guard::reads(q)),
            None => self.known(*shard),
        };
        guard.ok_or_else(|| format!("the stamp feed from shard {shard} is down"))
    }

    fn eval(&self, scope: &ShardScope, video: &str, text: &str) -> Result<Vec<Group>, String> {
        let shard = &scope.0;
        let body = json!({"cmd": "query", "video": (video), "text": (text)});
        let mut conns = self.checkout();
        let asks = [*shard];
        let outcome = scatter(self, &mut conns, &asks, body, 0, None, read_query_output).next();
        self.checkin(conns);
        match outcome {
            Some(Ok(reply)) => Ok(reply
                .result
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

/// A router command: `query`, which starts on the reactor ([`resolve`]),
/// or one answered on the pool over a checked-out set of shard connections.
enum Routed {
    Query,
    Pooled(fn(&RouterShared, &mut [ShardConn], u64, &Value) -> Answer),
}

/// The frame that answers a request, or the typed failure it ends in.
type Answer = Result<Vec<u8>, Fail>;

impl Door for Arc<RouterShared> {
    type Source = RouterShared;
    type Command = Routed;

    fn command(&self, cmd: &str) -> Option<Routed> {
        Some(match cmd {
            "query" => Routed::Query,
            "write_event" => Routed::Pooled(write_event),
            "version" => Routed::Pooled(version),
            "videos" => Routed::Pooled(videos),
            "stats" => Routed::Pooled(stats),
            "checkpoint" => Routed::Pooled(checkpoint),
            _ => return None,
        })
    }

    /// A `query` whose every part is cached, or that lacks its fields, is
    /// answered here on the reactor, taking no admission slot. Everything
    /// else waits on shards, so it runs on the pool, each job over a
    /// connection set of its own; a query takes the hits it holds along.
    fn run(front: &Arc<Front<Self>>, conn: ConnId, id: u64, routed: Routed, request: Value) {
        let held = match routed {
            Routed::Pooled(_) => Held::default(),
            Routed::Query => match resolve(&front.door, id, &request) {
                Ok(held) => held,
                Err(frame) => return front.ctl.send(conn, frame),
            },
        };
        front.pooled(conn, id, move |front| {
            let shared = &front.door;
            shared.ensure_feeds();
            let mut conns = shared.checkout();
            let frame = match routed {
                Routed::Query => complete(shared, &mut conns, id, &request, held),
                Routed::Pooled(routed) => routed(shared, &mut conns, id, &request),
            };
            shared.checkin(conns);
            frame.unwrap_or_else(|(kind, why)| encode_reply(&err_response(id, kind, why)))
        });
    }

    fn subscribing(&self) {
        self.ensure_feeds();
    }

    fn stopped(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        let feeds = std::mem::take(&mut *self.feeds.lock().recover());
        for feed in feeds {
            let _ = feed.join();
        }
    }
}

/// A running router. Dropping the handle without calling
/// [`shutdown`](Self::shutdown) leaves it running detached.
pub struct RouterHandle {
    shared: Arc<RouterShared>,
    running: Running<Arc<RouterShared>>,
}

impl RouterHandle {
    /// The bound address (with the real port when the config said 0).
    pub fn addr(&self) -> SocketAddr {
        self.running.addr
    }

    /// The router's own metrics registry (`router.forward`,
    /// `cache.result`, `serve.requests` series).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.registry)
    }

    /// The router cache's gauges as its resident entries count them
    /// (`ResultCache::at_rest`).
    pub fn cache_at_rest(&self) -> [(&'static str, i64); 2] {
        self.shared.cache.at_rest()
    }

    /// Re-points `shard` at a new worker address (a restarted worker
    /// binds a fresh port). Jobs notice on their next forward: the
    /// old connection errors, and the retry reconnects here; the
    /// shard's feed finds it on its next reconnect attempt.
    pub fn set_shard_addr(&self, shard: u32, addr: impl Into<String>) {
        if let Some(slot) = self.shared.addrs.lock().recover().get_mut(shard as usize) {
            *slot = addr.into();
        }
    }

    /// Graceful shutdown in the front end's order, then the shard feeds
    /// stop and are joined. Workers are external processes and are not
    /// touched.
    pub fn shutdown(self) {
        self.running.shutdown();
    }
}

/// Starts the router over the configured worker addresses.
pub fn start(config: RouterConfig) -> std::io::Result<RouterHandle> {
    let registry = Arc::new(Registry::new());
    let shared = Arc::new(RouterShared {
        ring: Ring::new(config.shards.len() as u32, config.seed),
        addrs: Mutex::new(config.shards.clone()),
        retry: config.retry,
        faults: config.faults,
        cache: ResultCache::new(&registry),
        registry: Arc::clone(&registry),
        shutting_down: AtomicBool::new(false),
        views: Mutex::new(config.shards.iter().map(|_| ShardView::default()).collect()),
        moved: ChangeFeed::default(),
        conn_sets: Mutex::new(Vec::new()),
        feeds: Mutex::new(Vec::new()),
    });
    let sizing = ServerConfig {
        addr: config.addr,
        workers: ROUTER_WORKERS,
        queue_cap: ROUTER_QUEUE_CAP,
        ..ServerConfig::default()
    };
    let (door, source) = (Arc::clone(&shared), Arc::clone(&shared));
    let front = Front::new(door, source, &registry, &sizing)?;
    let running = front.start("cobra-router-reactor", &sizing)?;
    Ok(RouterHandle { shared, running })
}

/// One connection to one shard of a checked-out set, plus the epoch
/// handshook at connect time.
#[derive(Default)]
struct ShardConn {
    shard: u32,
    client: Option<Client>,
    epoch: u64,
    /// The read timeout last set on `client`'s socket: setting one is a
    /// system call, made only when the value changes.
    read_timeout: Option<Duration>,
}

/// A worker's answer to a forwarded frame: the `result` as the forward
/// read it, plus the stamp the worker attached to the envelope (read
/// before a query executed, after a write committed).
struct Reply<T> {
    result: T,
    stamp: Option<Stamp>,
}

/// What one forward attempt concluded.
enum Attempt<T> {
    /// A definitive answer (success or a typed logical error) — stop.
    Done(Result<Reply<T>, Fail>),
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
fn send_attempt<T>(
    shared: &RouterShared,
    conn: &mut ShardConn,
    body: &Value,
    req_id: u64,
    deadline_at: Option<Instant>,
) -> Result<u64, Attempt<T>> {
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
        let mut shard = json!({"req": (req_id as f64), "epoch": (conn.epoch as f64)});
        // The seq the router's mirror covers: the reply reports what the
        // commits after it touched.
        if let (Value::Object(shard), Some(since)) =
            (&mut shard, shared.since(conn.shard, conn.epoch))
        {
            shard.insert("since".into(), Value::Number(since as f64));
        }
        map.insert("shard".into(), shard);
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
/// connection, and reads its `result` with `read` — as a [`Part`],
/// decoded, or as a tree, in the one pass that also validates it.
fn recv_attempt<T>(
    shared: &RouterShared,
    conn: &mut ShardConn,
    sent: u64,
    deadline_at: Option<Instant>,
    read: fn(&mut Reader<'_>) -> Result<T, ParseError>,
) -> Attempt<T> {
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

    // Only the envelope is parsed; reading the result validates it, so
    // a malformed reply fails here, as a transport failure.
    let answered = client.await_reply(sent, read).and_then(|mut envelope| {
        let touched = envelope.touched.take();
        Ok((envelope.stamp, touched, unwrap_envelope(envelope)?))
    });
    let why = match answered {
        Ok((stamp, touched, result)) => {
            if let Some(stamp) = stamp {
                shared.observe(conn.shard, stamp, touched.as_ref());
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
fn forward<T>(
    shared: &RouterShared,
    conn: &mut ShardConn,
    body: &Value,
    req_id: u64,
    deadline_at: Option<Instant>,
    mut sent: Option<Result<u64, Attempt<T>>>,
    read: fn(&mut Reader<'_>) -> Result<T, ParseError>,
) -> Result<Reply<T>, Fail> {
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
            Ok(id) => recv_attempt(shared, conn, id, deadline_at, read),
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
/// yields their replies, each `result` read with `read`, in shard
/// order. One shard is a plain [`forward`]. Several have their frames
/// written before any reply is read, so they work at the same time; a
/// shard whose first attempt is lost spends the rest of its retry budget
/// in an ordinary `forward`. Replies are read as the iterator is driven:
/// a strict caller stops at the first failure (the lowest failed shard
/// id decides its error) without retrying any later shard, and the
/// replies it leaves unread are skipped by id by the connections' next
/// user.
fn scatter<'a, T: 'a>(
    shared: &'a RouterShared,
    conns: &'a mut [ShardConn],
    asks: &[u32],
    body: Value,
    req_id: u64,
    deadline_at: Option<Instant>,
    read: fn(&mut Reader<'_>) -> Result<T, ParseError>,
) -> impl Iterator<Item = Result<Reply<T>, Fail>> + 'a {
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
        .map(move |(conn, first)| forward(shared, conn, &body, req_id, deadline_at, first, read))
}

/// The frame of a query's answer over `video` from the parts of the
/// shards it read, in shard order: a single video's part passes through;
/// a sweep's are merged by video name — one sort and one join over the
/// groups each part located when it was read, so no part is read again.
fn splice(id: u64, video: &str, parts: &[&Part]) -> Answer {
    if let ([answer], false) = (parts, video == "*") {
        let text = answer.text();
        return Ok(pass(id, text.len(), |w| w.raw(text.as_bytes())));
    }
    let mut groups = Vec::new();
    for part in parts {
        groups.extend(part.groups().ok_or((
            ErrorKind::Internal,
            "a shard answered a cross-video query without segment groups".to_string(),
        ))?);
    }
    // Parts come in shard order; the answer is in video-name order.
    groups.sort_by(|a, b| a.0.cmp(b.0));
    let len = groups.iter().map(|g| g.1.len() + 1).sum();
    Ok(pass(id, len, |w| {
        join_groups(w, groups.iter().map(|g| g.1))
    }))
}

/// Scatters the argument-less control command `cmd` to every shard and
/// decodes the `result` objects, lazily and in shard order like [`scatter`].
fn gather<'a>(
    shared: &'a RouterShared,
    conns: &'a mut [ShardConn],
    cmd: &str,
    req_id: u64,
) -> impl Iterator<Item = Result<Value, Fail>> + 'a {
    let (every, body) = (shared.owners("*"), json!({"cmd": (cmd)}));
    let replies = scatter(shared, conns, &every, body, req_id, None, |r| r.value());
    replies.map(|reply| Ok(reply?.result))
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

/// The frame that passes the `result` `body` writes — a shard's, the
/// cache's, a splice of them, about `len` bytes — on to the client under
/// its request's id.
fn pass(id: u64, len: usize, body: impl FnOnce(&mut Writer<'_>)) -> Vec<u8> {
    or_oversize(id, ok_frame(id, None, len, body))
}

/// The cache key of `shard`'s part of an answer to a statement: what
/// each shard a statement reads has to say is one entry.
fn key(normalized: &str, shard: u32) -> String {
    format!("{shard} {normalized}")
}

/// A `query`'s string fields `video` and `text`.
fn fields(request: &Value) -> Result<(&str, &str), Fail> {
    let field = |name| request.get(name).and_then(Value::as_str);
    let why = "query needs string fields 'video' and 'text'";
    let both = field("video").zip(field("text"));
    both.ok_or((ErrorKind::BadRequest, why.into()))
}

/// What a `query` holds before any shard is asked: its statement where
/// its answer may be cached (normalized, parsed), per shard it reads the
/// part the cache held there, in shard order, and the shards to ask.
#[derive(Default)]
struct Held {
    retrieval: Option<(String, Query)>,
    parts: Vec<Option<Arc<CachedResult<Part>>>>,
    asks: Vec<u32>,
}

/// The reactor's half of a `query`: one guard check and one cache lookup
/// per shard the statement reads, each guarded by what the statement
/// reads there, taking the `views` and cache locks alone. The frame when
/// every part hit or the request is malformed, otherwise what it holds.
fn resolve(shared: &RouterShared, id: u64, request: &Value) -> Result<Held, Vec<u8>> {
    let refuse = |(kind, why)| encode_reply(&err_response(id, kind, why));
    let (video, text) = fields(request).map_err(refuse)?;
    // What may be cached is what a worker may coalesce (`shareable`),
    // and only plain retrievals.
    let mut held = Held::default();
    if let Some(Statement::Retrieve(q)) = shareable(request, text) {
        held.retrieval = Some((q.normalized(), q));
    }
    for shard in shared.owners(video) {
        let hit = held.retrieval.as_ref().and_then(|(normalized, q)| {
            let current = shared.guard(shard, None, video, guard::reads(q));
            shared.cache.lookup(video, &key(normalized, shard), current)
        });
        held.asks.extend(hit.is_none().then_some(shard));
        held.parts.push(hit);
    }
    if !held.asks.is_empty() {
        return Ok(held);
    }
    let hits: Vec<_> = held.parts.iter().flatten().map(|hit| &hit.value).collect();
    Err(splice(id, video, &hits).unwrap_or_else(refuse))
}

/// The pool's half of a `query`: asks the shards `held` names — strictly,
/// the lowest failed shard id deciding the error — frames the answer
/// from every part, and caches what the shards answered.
fn complete(
    shared: &RouterShared,
    conns: &mut [ShardConn],
    id: u64,
    request: &Value,
    held: Held,
) -> Answer {
    let (video, text) = fields(request)?;
    let deadline_at = request
        .get("deadline_ms")
        .and_then(Value::as_u64)
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let mut body = json!({"cmd": "query", "video": (video), "text": (text)});
    if let (Value::Object(map), Some(fuel)) = (&mut body, request.get("fuel")) {
        map.insert("fuel".into(), fuel.clone());
    }
    let replies = scatter(shared, conns, &held.asks, body, id, deadline_at, Part::read);
    let replies: Vec<Reply<Part>> = replies.collect::<Result<_, _>>()?;
    let mut fresh = replies.iter().map(|reply| &reply.result);
    let mut parts = Vec::with_capacity(held.parts.len());
    for hit in &held.parts {
        let hit = hit.as_ref().map(|hit| &hit.value);
        parts.push(hit.or_else(|| fresh.next()).ok_or_else(no_reply)?);
    }
    let frame = splice(id, video, &parts)?;
    if let Some((normalized, q)) = &held.retrieval {
        for (&shard, reply) in held.asks.iter().zip(replies) {
            // The guard is taken at the stamp the reply itself carried —
            // read by the shard before it executed — never at `known`,
            // which a concurrent write's ack may already have raised
            // past it.
            let reads = guard::reads(q);
            let held = reply
                .stamp
                .and_then(|at| shared.guard(shard, Some(at), video, reads));
            if let Some(held) = held {
                let (key, bytes) = (key(normalized, shard), reply.result.text().len());
                shared.cache.store(video, &key, reply.result, held, bytes);
            }
        }
    }
    Ok(frame)
}

/// `write_event`, forwarded to the owner, whose ack passes through as
/// bytes; the worker enforces its own debug gate. The router cache needs
/// no eager invalidation — the ack carries the shard's post-commit stamp
/// and what the commit touched, which raise `known` and move the
/// mirrored guards before the client sees the ack, so every cached
/// answer that read the rows written fails its next guard check.
fn write_event(shared: &RouterShared, conns: &mut [ShardConn], id: u64, request: &Value) -> Answer {
    let Some(video) = request.get("video").and_then(Value::as_str) else {
        return Err((ErrorKind::BadRequest, "write_event needs 'video'".into()));
    };
    let mut body = request.clone();
    if let Value::Object(map) = &mut body {
        map.remove("id");
        map.remove("shard");
    }
    let owner = [shared.ring.owner(video)];
    let mut acks = scatter(shared, conns, &owner, body, id, None, Part::read);
    let ack = acks.next().ok_or_else(no_reply)??.result;
    Ok(pass(id, ack.text().len(), |w| w.raw(ack.text().as_bytes())))
}

/// The answer to request `id` aggregated from small per-shard trees.
fn aggregated(id: u64, result: Value) -> Answer {
    Ok(encode_reply(&ok_response(id, result)))
}

/// `version`: the topology view — one entry per shard, in shard order,
/// with the address the router would dial.
fn version(shared: &RouterShared, conns: &mut [ShardConn], id: u64, _: &Value) -> Answer {
    let addrs = shared.addrs.lock().recover().clone();
    let mut entries = Vec::with_capacity(addrs.len());
    for (shard, (result, addr)) in gather(shared, conns, "version", id).zip(addrs).enumerate() {
        let mut entry = shard_entry(shard, result);
        if let Value::Object(map) = &mut entry {
            map.insert("addr".into(), Value::String(addr));
        }
        entries.push(entry);
    }
    let seed = shared.ring.seed() as f64;
    let result = json!({"kind": "version", "seed": (seed), "shards": (entries)});
    aggregated(id, result)
}

fn videos(shared: &RouterShared, conns: &mut [ShardConn], id: u64, _: &Value) -> Answer {
    let mut names: Vec<String> = Vec::new();
    for result in gather(shared, conns, "videos", id) {
        if let Some(list) = result?.get("videos").and_then(Value::as_array) {
            names.extend(list.iter().filter_map(Value::as_str).map(str::to_string));
        }
    }
    names.sort();
    names.dedup();
    aggregated(id, json!({"kind": "videos", "videos": (names)}))
}

/// `stats`: the router's own snapshot, with every reachable shard's
/// snapshot attached. A dead shard degrades to an error entry rather
/// than failing the whole answer: stats is the command you run *while*
/// a shard is down.
fn stats(shared: &RouterShared, conns: &mut [ShardConn], id: u64, _: &Value) -> Answer {
    let entries: Vec<Value> = gather(shared, conns, "stats", id)
        .enumerate()
        .map(|(shard, result)| {
            let snapshot = |v: Value| v.get("snapshot").cloned().unwrap_or(Value::Null);
            shard_entry(shard, result.map(|v| json!({"snapshot": (snapshot(v))})))
        })
        .collect();
    let snapshot = shared.registry.snapshot().to_json();
    let result = json!({"kind": "stats", "snapshot": (snapshot), "shards": (entries)});
    aggregated(id, result)
}

fn checkpoint(shared: &RouterShared, conns: &mut [ShardConn], id: u64, _: &Value) -> Answer {
    let mut entries = Vec::new();
    let mut durable = false;
    for (shard, result) in gather(shared, conns, "checkpoint", id).enumerate() {
        let v = result?;
        durable |= v.get("durable").and_then(Value::as_bool).unwrap_or(false);
        entries.push(shard_entry(shard, Ok(v)));
    }
    let result = json!({"kind": "checkpoint", "durable": (durable), "shards": (entries)});
    aggregated(id, result)
}

#[cfg(test)]
mod tests;
