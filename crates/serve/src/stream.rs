//! cobra-stream: standing `SUBSCRIBE` queries over commit stamps.
//!
//! A subscriber registers a plain `RETRIEVE` statement once and then
//! receives *push frames* whenever a catalog write changes its answer.
//! There is one [`Hub`] type; what differs between a server and the
//! router is only where stamps and answers come from, which the hub
//! reaches through a [`Source`]. A *scope* is the unit a [`Stamp`]
//! (DESIGN.md §6f) is taken of: locally a video (`"*"` being the whole
//! catalog), at the router a shard.
//!
//! One notifier thread per hub waits on the source, then sweeps every
//! standing query: a scope whose stamp equals the one the query was
//! last evaluated against is skipped without evaluation
//! (`stream.skipped`); a moved stamp re-evaluates, and only a changed
//! *answer* is pushed — subscribers see deltas, not heartbeats
//! (`stream.unchanged` counts the silent re-arms). The stamp stored is
//! the one read *before* evaluating, so a write racing the evaluation
//! leaves it stale and the next sweep looks again. A scope whose stamp
//! is unknown, or whose evaluation cannot reach it, is reported to the
//! subscriber once per outage as a typed `shard_unavailable` frame; the
//! subscription stays armed and resumes when the stamp is known again
//! (a reboot shows up as a fresh epoch, which is just another
//! mismatch).
//!
//! A `subscribe` without a `text` registers a *bare watcher*: no
//! statement, no evaluation, just one `{kind: "stamp", epoch,
//! data_version}` push per stamp move. That is how a router follows its
//! shards — one long-lived watcher connection per shard instead of a
//! poll loop.
//!
//! Push frames are encoded here, by the notifier thread, and queued on
//! the reactor alongside ordinary responses, marked `"push": true` and
//! carrying the subscription id, so the two interleave on one socket
//! without tearing frames. A subscriber that falls more than a bounded
//! number of frames behind is disconnected with a typed `slow_consumer`
//! error rather than buffered for.
//!
//! Every hub lock recovers from poisoning: the tables hold plain maps
//! that are valid at every step, and a panicking evaluation must not
//! take every other subscriber's stream down with it.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use cobra_obs::Registry;
use f1_cobra::{QueryOutput, RetrievedSegment, Stamp, Vdbms};
use f1_monet::ExecBudget;
use serde_json::{json, Value};

use crate::protocol::{encode_reply, err_response, ok_response, ErrorKind};
use crate::reactor::{ConnId, ReactorCtl};

/// Default bound on push frames queued behind one connection.
pub const DEFAULT_PUSH_QUEUE_CAP: usize = 64;

/// How long the notifier sleeps when the source is silent. A change
/// wakes it immediately; the timeout only bounds the race where a
/// subscription is registered between a commit and the notifier's next
/// wait. (Also the idle read timeout of a router's shard feeds, the
/// other loop that is normally woken by data and merely looks around
/// at this cadence.)
pub(crate) const SWEEP_INTERVAL: Duration = Duration::from_millis(250);

/// One video's answer: its name and its segments.
pub type Group = (String, Vec<RetrievedSegment>);

/// Where a [`Hub`] gets stamps and answers from.
pub trait Source: Send + Sync + 'static {
    /// The unit a stamp is taken of.
    type Scope: Eq + Hash + Send;

    /// The scopes a standing query over `video` reads (fixed for the
    /// life of the subscription).
    fn scopes(&self, video: &str) -> Vec<Self::Scope>;

    /// `scope`'s current stamp; `Err` says why it is unknown. Unknown
    /// is never treated as unchanged.
    fn stamp(&self, scope: &Self::Scope) -> Result<Stamp, String>;

    /// The current answer of `text` over `video` from `scope`. A
    /// statement that cannot be answered *yet* (video not ingested, not
    /// annotated) is the empty answer, so the subscription arms and
    /// delivers once data arrives; `Err` means the scope itself could
    /// not be reached.
    fn eval(&self, scope: &Self::Scope, video: &str, text: &str) -> Result<Vec<Group>, String>;

    /// Blocks until something may have changed since the token `seen`
    /// (or `timeout` elapses) and returns the token to pass next time.
    fn wait(&self, seen: u64, timeout: Duration) -> u64;
}

/// The answer a source reports for a statement it cannot evaluate yet:
/// a named video answers empty, the cross-video form reports no videos.
pub(crate) fn empty_answer(video: &str) -> Vec<Group> {
    if video == "*" {
        Vec::new()
    } else {
        vec![(video.to_string(), Vec::new())]
    }
}

/// Flattens a query answer into groups: a `RETRIEVE` answer is one
/// group under the queried name, a cross-video answer is one group per
/// video it carries.
pub(crate) fn answer_groups(video: &str, output: QueryOutput) -> Vec<Group> {
    match output {
        QueryOutput::Segments(segments) => vec![(video.to_string(), segments)],
        QueryOutput::Multi(groups) => groups.into_iter().map(|g| (g.video, g.segments)).collect(),
        _ => Vec::new(),
    }
}

/// A server's own catalog as a source: a scope is a video name (`"*"`
/// is the whole catalog), stamps come straight from the catalog, and
/// the wakeup is its condvar change feed.
impl Source for Vdbms {
    type Scope = String;

    fn scopes(&self, video: &str) -> Vec<String> {
        vec![video.to_string()]
    }

    fn stamp(&self, scope: &String) -> Result<Stamp, String> {
        Ok(if scope == "*" {
            self.catalog.stamp()
        } else {
            self.catalog.video_stamp(scope)
        })
    }

    fn eval(&self, _scope: &String, video: &str, text: &str) -> Result<Vec<Group>, String> {
        let budget = ExecBudget::unlimited();
        let output = if video == "*" {
            self.run_multi_with_budget(text, &budget)
        } else {
            self.run_with_budget(video, text, &budget)
        };
        Ok(match output {
            Ok(output) => answer_groups(video, output),
            Err(_) => {
                let registry = self.kernel().metrics().registry();
                registry.counter("stream.eval_errors", &[]).inc();
                empty_answer(video)
            }
        })
    }

    fn wait(&self, seen: u64, timeout: Duration) -> u64 {
        self.catalog
            .change_feed()
            .wait_past(seen, timeout)
            .unwrap_or(seen)
    }
}

/// What a standing query knows about one scope it reads.
#[derive(Default)]
struct Armed {
    /// The stamp the scope was last evaluated against.
    stamp: Option<Stamp>,
    /// The subscriber has been told this scope is unreachable — an
    /// outage is reported once, not once per sweep.
    down: bool,
    /// Last-delivered answer per concrete video.
    views: HashMap<String, Vec<RetrievedSegment>>,
}

/// One standing query.
struct Standing<K> {
    /// Subscribed video, or `"*"` for every catalogued video.
    video: String,
    /// The plain `RETRIEVE` statement; `None` for a bare watcher.
    text: Option<String>,
    scopes: HashMap<K, Armed>,
}

/// Every standing query of one connection, plus its push backlog.
struct ConnSubs<K> {
    /// Push frames accepted but not yet written to the socket; the
    /// reactor decrements as bytes reach the wire.
    pending: Arc<AtomicUsize>,
    subs: HashMap<u64, Standing<K>>,
}

/// All standing queries of one server or router, swept by one notifier
/// thread.
pub struct Hub<S: Source> {
    source: Arc<S>,
    ctl: ReactorCtl,
    /// Bound on one connection's `pending` before it is disconnected.
    cap: usize,
    /// Where the `stream.*` series are published.
    registry: Arc<Registry>,
    inner: Mutex<HashMap<ConnId, ConnSubs<S::Scope>>>,
    closed: AtomicBool,
    notifier: Mutex<Option<JoinHandle<()>>>,
}

/// Locks through poisoning (see the module docs for why that is sound
/// for the hub's and the router's tables).
pub(crate) fn recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|p| p.into_inner())
}

/// Segments in wire form.
fn wire(segments: &[RetrievedSegment]) -> Value {
    Value::Array(
        segments
            .iter()
            .map(f1_cobra::json::segment_to_json)
            .collect(),
    )
}

fn push_frame(sub_id: u64, result: Value) -> Value {
    json!({"id": (sub_id as f64), "ok": true, "push": true, "result": (result)})
}

impl<S: Source> Hub<S> {
    /// Creates the (initially empty) hub over `source`, publishing the
    /// `stream.*` series in `registry`.
    pub fn new(source: Arc<S>, registry: Arc<Registry>, ctl: ReactorCtl, cap: usize) -> Arc<Self> {
        Arc::new(Hub {
            source,
            ctl,
            cap: cap.max(1),
            registry,
            inner: Mutex::new(HashMap::new()),
            closed: AtomicBool::new(false),
            notifier: Mutex::new(None),
        })
    }

    fn count(&self, series: &str) {
        self.registry.counter(series, &[]).inc();
    }

    /// Standing queries came (+) or went (−).
    fn active(&self, delta: i64) {
        self.registry.gauge("stream.active", &[]).add(delta);
    }

    /// Handles a `subscribe` request: registers a standing query under
    /// the request's id and answers with the initial result set. The
    /// subscription id *is* the request id, so every later push frame
    /// for it carries an id the client already knows. Without a `text`
    /// the subscription is a bare watcher of `video`'s stamp.
    pub fn subscribe(self: &Arc<Self>, conn: ConnId, id: u64, request: &Value) -> Value {
        let Some(video) = request.get("video").and_then(Value::as_str) else {
            return err_response(
                id,
                ErrorKind::BadRequest,
                "subscribe needs a string field 'video' (and a 'text' unless only stamps are wanted)",
            );
        };
        let text = request.get("text").and_then(Value::as_str);
        // Only plain `RETRIEVE` statements can stand; PROFILE/EXPLAIN
        // are one-shot diagnostics.
        if let Some(Err(e)) = text.map(f1_cobra::parse_query) {
            return err_response(id, ErrorKind::Parse, e.to_string());
        }
        // The initial evaluation runs outside the hub lock so a slow
        // query never stalls the sweep over every other connection. A
        // write landing between evaluation and registration is caught
        // by the notifier's unconditional slow-cadence sweep: the
        // stored stamps predate the write, so it re-evaluates.
        let mut standing = Standing {
            video: video.to_string(),
            text: text.map(str::to_string),
            scopes: HashMap::new(),
        };
        let mut initial: Vec<Group> = Vec::new();
        let mut latest: Option<Stamp> = None;
        for scope in self.source.scopes(video) {
            let stamp = self.source.stamp(&scope).ok();
            latest = latest.max(stamp);
            let mut views = HashMap::new();
            if let Some(text) = text {
                let groups = match self.source.eval(&scope, video, text) {
                    Ok(groups) => groups,
                    Err(why) => return err_response(id, ErrorKind::ShardUnavailable, why),
                };
                initial.extend(groups.iter().cloned());
                views.extend(groups);
            }
            let armed = Armed {
                stamp,
                views,
                ..Armed::default()
            };
            standing.scopes.insert(scope, armed);
        }
        {
            let mut inner = recover(&self.inner);
            let entry = inner.entry(conn).or_insert_with(|| ConnSubs {
                pending: Arc::new(AtomicUsize::new(0)),
                subs: HashMap::new(),
            });
            if entry.subs.contains_key(&id) {
                return err_response(
                    id,
                    ErrorKind::BadRequest,
                    format!("subscription {id} already exists on this connection"),
                );
            }
            entry.subs.insert(id, standing);
        }
        self.count("stream.subscribed");
        self.active(1);
        self.ensure_notifier();
        let latest = latest.unwrap_or(Stamp { epoch: 0, seq: 0 });
        // Scopes answer in scope order; the subscriber sees video order.
        initial.sort_by(|a, b| a.0.cmp(&b.0));
        let initial: Vec<Value> = initial
            .into_iter()
            .map(|(video, segments)| json!({"video": (video), "segments": (wire(&segments))}))
            .collect();
        ok_response(
            id,
            json!({
                "kind": "subscribed",
                "subscription": (id as f64),
                "videos": (initial),
                "epoch": (latest.epoch as f64),
                "data_version": (latest.seq as f64),
            }),
        )
    }

    /// Handles an `unsubscribe` request: retires a standing query.
    pub fn unsubscribe(&self, conn: ConnId, id: u64, request: &Value) -> Value {
        let Some(subscription) = request.get("subscription").and_then(Value::as_u64) else {
            return err_response(
                id,
                ErrorKind::BadRequest,
                "unsubscribe needs integer field 'subscription'",
            );
        };
        let removed = recover(&self.inner)
            .get_mut(&conn)
            .is_some_and(|entry| entry.subs.remove(&subscription).is_some());
        if !removed {
            return err_response(
                id,
                ErrorKind::BadRequest,
                format!("unknown subscription {subscription}"),
            );
        }
        self.count("stream.unsubscribed");
        self.active(-1);
        ok_response(
            id,
            json!({"kind": "unsubscribed", "subscription": (subscription as f64)}),
        )
    }

    /// Forgets every standing query of one connection. Called by the
    /// reactor when the connection dies, for any reason.
    pub fn drop_conn(&self, conn: ConnId) {
        if let Some(entry) = recover(&self.inner).remove(&conn) {
            self.active(-(entry.subs.len() as i64));
        }
    }

    /// Stops the notifier and forgets every standing query. Called
    /// once at shutdown.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let handle = recover(&self.notifier).take();
        if let Some(h) = handle {
            let _ = h.join();
        }
        let mut inner = recover(&self.inner);
        let n: usize = inner.values().map(|e| e.subs.len()).sum();
        self.active(-(n as i64));
        inner.clear();
    }

    /// Spawns the hub's notifier thread on first use.
    fn ensure_notifier(self: &Arc<Self>) {
        let mut slot = recover(&self.notifier);
        if slot.is_some() {
            return;
        }
        let hub = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("cobra-stream-notify".into())
            .spawn(move || hub.notify_loop());
        if let Ok(h) = handle {
            *slot = Some(h);
        }
    }

    /// Waits on the source and sweeps the standing queries after every
    /// wakeup (and, at a slow cadence, unconditionally — which closes
    /// the race where a write lands between a subscription's initial
    /// evaluation and its registration).
    fn notify_loop(&self) {
        let mut seen = 0;
        while !self.closed.load(Ordering::SeqCst) {
            seen = self.source.wait(seen, SWEEP_INTERVAL);
            if self.closed.load(Ordering::SeqCst) {
                return;
            }
            self.sweep();
        }
    }

    /// Re-examines every standing query of every connection: scopes
    /// whose stamp is unchanged are skipped without evaluation; moved
    /// ones are re-evaluated, and a changed *answer* is pushed as a
    /// delta frame.
    fn sweep(&self) {
        let mut inner = recover(&self.inner);
        let mut doomed: Vec<ConnId> = Vec::new();
        'conns: for (&conn, entry) in inner.iter_mut() {
            if self.closed.load(Ordering::SeqCst) {
                return;
            }
            for (&sub_id, standing) in entry.subs.iter_mut() {
                for (scope, armed) in standing.scopes.iter_mut() {
                    let stamp = match self.source.stamp(scope) {
                        Ok(stamp) => stamp,
                        Err(why) => {
                            self.report_down(conn, sub_id, armed, &why);
                            continue;
                        }
                    };
                    let frames = if armed.stamp == Some(stamp) {
                        self.count("stream.skipped");
                        Vec::new()
                    } else {
                        match &standing.text {
                            None => vec![push_frame(
                                sub_id,
                                json!({
                                    "kind": "stamp",
                                    "subscription": (sub_id as f64),
                                    "epoch": (stamp.epoch as f64),
                                    "data_version": (stamp.seq as f64),
                                }),
                            )],
                            Some(text) => match self.source.eval(scope, &standing.video, text) {
                                Ok(groups) => self.deltas(sub_id, stamp, &mut armed.views, groups),
                                Err(why) => {
                                    self.report_down(conn, sub_id, armed, &why);
                                    continue;
                                }
                            },
                        }
                    };
                    if std::mem::take(&mut armed.down) {
                        self.count("stream.shard_recovered");
                    }
                    armed.stamp = Some(stamp);
                    for frame in frames {
                        if !self.push_or_disconnect(conn, &entry.pending, sub_id, frame) {
                            doomed.push(conn);
                            continue 'conns;
                        }
                    }
                }
            }
        }
        for conn in doomed {
            if let Some(entry) = inner.remove(&conn) {
                self.active(-(entry.subs.len() as i64));
            }
        }
    }

    /// Replaces the last-delivered `views` with a fresh evaluation and
    /// returns one delta frame per video whose answer changed. An
    /// answer the subscriber has already seen re-arms silently instead
    /// of heartbeating.
    fn deltas(
        &self,
        sub_id: u64,
        stamp: Stamp,
        views: &mut HashMap<String, Vec<RetrievedSegment>>,
        groups: Vec<Group>,
    ) -> Vec<Value> {
        let mut frames = Vec::new();
        for (video, segments) in groups {
            let old = views.get(&video);
            let known = old.is_some();
            let old = old.map_or(&[][..], Vec::as_slice);
            let added: Vec<RetrievedSegment> = segments
                .iter()
                .filter(|s| !old.contains(s))
                .cloned()
                .collect();
            let removed = old.iter().filter(|s| !segments.contains(s)).count();
            let total = segments.len();
            views.insert(video.clone(), segments);
            if added.is_empty() && removed == 0 && known {
                self.count("stream.unchanged");
                continue;
            }
            frames.push(push_frame(
                sub_id,
                json!({
                    "kind": "delta",
                    "subscription": (sub_id as f64),
                    "video": (video),
                    "added": (wire(&added)),
                    "removed": (removed as f64),
                    "total": (total as f64),
                    "data_version": (stamp.seq as f64),
                }),
            ));
        }
        frames
    }

    /// Tells a subscriber one of its scopes is unreachable — once per
    /// outage.
    fn report_down(&self, conn: ConnId, sub_id: u64, armed: &mut Armed, why: &str) {
        if std::mem::replace(&mut armed.down, true) {
            return;
        }
        self.count("stream.shard_down");
        self.ctl.send(
            conn,
            encode_reply(&err_response(
                sub_id,
                ErrorKind::ShardUnavailable,
                format!(
                    "subscription {sub_id} lost sight of its data ({why}); \
                     it stays armed and resumes when the data is reachable again"
                ),
            )),
        );
    }

    /// Enqueues one push frame against the connection's bounded queue.
    /// Overflow means the client is not draining: it gets a typed
    /// `slow_consumer` error and the reactor flushes what it can and
    /// drops the socket. Returns `false` when the connection was
    /// condemned.
    fn push_or_disconnect(
        &self,
        conn: ConnId,
        pending: &Arc<AtomicUsize>,
        sub_id: u64,
        frame: Value,
    ) -> bool {
        let queued = pending.fetch_add(1, Ordering::AcqRel);
        if queued >= self.cap {
            pending.fetch_sub(1, Ordering::AcqRel);
            self.count("stream.slow_consumer_disconnects");
            self.ctl.send(
                conn,
                encode_reply(&err_response(
                    sub_id,
                    ErrorKind::SlowConsumer,
                    format!(
                        "subscriber fell {queued} push frames behind the cap of {}; disconnecting",
                        self.cap
                    ),
                )),
            );
            // The reactor gives the typed error a bounded flush window,
            // then severs the connection.
            self.ctl.close(conn);
            return false;
        }
        self.count("stream.pushes");
        self.ctl
            .send_push(conn, encode_reply(&frame), Arc::clone(pending));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::Op;

    const CONN: ConnId = ConnId(1);
    const SUB: u64 = 7;

    /// A scripted source with two scopes (0 and 1): tests set each
    /// scope's stamp and answer, and count evaluations.
    #[derive(Default)]
    struct Script {
        stamps: Mutex<HashMap<u32, Result<Stamp, String>>>,
        answers: Mutex<HashMap<u32, Vec<Group>>>,
        evals: AtomicUsize,
    }

    impl Script {
        fn set_stamp(&self, scope: u32, seq: u64) {
            recover(&self.stamps).insert(scope, Ok(Stamp { epoch: 1, seq }));
        }

        fn set_down(&self, scope: u32) {
            recover(&self.stamps).insert(scope, Err(format!("scope {scope} is down")));
        }

        fn set_answer(&self, scope: u32, video: &str, starts: &[u64]) {
            let segments = starts
                .iter()
                .map(|&s| RetrievedSegment {
                    start: s as usize,
                    end: s as usize + 1,
                    label: "highlight".into(),
                    driver: None,
                })
                .collect();
            recover(&self.answers).insert(scope, vec![(video.to_string(), segments)]);
        }
    }

    impl Source for Script {
        type Scope = u32;

        fn scopes(&self, video: &str) -> Vec<u32> {
            if video == "*" {
                vec![0, 1]
            } else {
                vec![0]
            }
        }

        fn stamp(&self, scope: &u32) -> Result<Stamp, String> {
            recover(&self.stamps)
                .get(scope)
                .cloned()
                .unwrap_or(Ok(Stamp { epoch: 1, seq: 0 }))
        }

        fn eval(&self, scope: &u32, _video: &str, _text: &str) -> Result<Vec<Group>, String> {
            self.evals.fetch_add(1, Ordering::SeqCst);
            Ok(recover(&self.answers)
                .get(scope)
                .cloned()
                .unwrap_or_default())
        }

        fn wait(&self, seen: u64, _timeout: Duration) -> u64 {
            seen
        }
    }

    /// A hub over a scripted source, wired to a bare op queue (no event
    /// loop, no notifier thread): tests drive `sweep` by hand and read
    /// what the reactor would have been asked to do.
    struct Rig {
        script: Arc<Script>,
        hub: Arc<Hub<Script>>,
        ctl: ReactorCtl,
        registry: Arc<Registry>,
    }

    fn rig(cap: usize) -> Rig {
        let script = Arc::new(Script::default());
        let ctl = ReactorCtl::new().expect("ctl");
        let registry = Arc::new(Registry::new());
        let hub = Hub::new(Arc::clone(&script), Arc::clone(&registry), ctl.clone(), cap);
        Rig {
            script,
            hub,
            ctl,
            registry,
        }
    }

    /// What a queued frame says, length prefix checked.
    fn decoded(frame: &[u8]) -> Value {
        assert_eq!(
            frame[..4],
            ((frame.len() - 4) as u32).to_be_bytes(),
            "the prefix counts the payload"
        );
        serde_json::from_slice(&frame[4..]).expect("queued frames are JSON")
    }

    impl Rig {
        /// Registers a standing query without spawning the notifier.
        fn subscribe(&self, video: &str, text: Option<&str>) -> Value {
            let mut request = json!({"cmd": "subscribe", "video": (video)});
            if let (Value::Object(map), Some(text)) = (&mut request, text) {
                map.insert("text".into(), Value::String(text.into()));
            }
            // Park a finished thread in the notifier slot so `subscribe`
            // does not start a real one.
            *recover(&self.hub.notifier) = Some(std::thread::spawn(|| {}));
            self.hub.subscribe(CONN, SUB, &request)
        }

        fn counter(&self, name: &str) -> u64 {
            self.registry.snapshot().counter(name, &[])
        }

        /// The `result` objects of the push frames queued since the
        /// last call, and the typed errors sent beside them.
        fn drain(&self) -> (Vec<Value>, Vec<Value>) {
            let (mut pushes, mut errors) = (Vec::new(), Vec::new());
            for op in self.ctl.take_ops() {
                match op {
                    Op::Push { frame, pending, .. } => {
                        pending.fetch_sub(1, Ordering::AcqRel);
                        let frame = decoded(&frame);
                        assert_eq!(frame.get("push").and_then(Value::as_bool), Some(true));
                        pushes.push(frame.get("result").cloned().unwrap_or(Value::Null));
                    }
                    Op::Send { frame, .. } => errors.push(decoded(&frame)),
                    _ => {}
                }
            }
            (pushes, errors)
        }
    }

    fn error_kind(frame: &Value) -> Option<&str> {
        frame
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str)
    }

    #[test]
    fn a_bump_reevaluates_and_pushes_exactly_the_delta() {
        let rig = rig(8);
        rig.script.set_stamp(0, 1);
        rig.script.set_answer(0, "v", &[10, 20]);
        let reply = rig.subscribe("v", Some("RETRIEVE HIGHLIGHTS"));
        assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
        let result = reply.get("result").expect("result");
        assert_eq!(result.get("data_version").and_then(Value::as_u64), Some(1));
        assert_eq!(rig.script.evals.load(Ordering::SeqCst), 1);

        rig.script.set_answer(0, "v", &[10, 20, 30]);
        rig.script.set_stamp(0, 2);
        rig.hub.sweep();
        let (pushes, errors) = rig.drain();
        assert!(errors.is_empty());
        assert_eq!(pushes.len(), 1);
        let delta = &pushes[0];
        assert_eq!(delta.get("kind").and_then(Value::as_str), Some("delta"));
        assert_eq!(delta.get("video").and_then(Value::as_str), Some("v"));
        assert_eq!(delta.get("total").and_then(Value::as_u64), Some(3));
        assert_eq!(delta.get("removed").and_then(Value::as_u64), Some(0));
        assert_eq!(delta.get("data_version").and_then(Value::as_u64), Some(2));
        let added = delta.get("added").and_then(Value::as_array).expect("added");
        assert_eq!(added.len(), 1);
        assert_eq!(added[0].get("start").and_then(Value::as_u64), Some(30));
        assert_eq!(rig.counter("stream.pushes"), 1);
    }

    #[test]
    fn a_bump_with_an_unchanged_answer_rearms_silently() {
        let rig = rig(8);
        rig.script.set_stamp(0, 1);
        rig.script.set_answer(0, "v", &[10]);
        rig.subscribe("v", Some("RETRIEVE HIGHLIGHTS"));

        rig.script.set_stamp(0, 2);
        rig.hub.sweep();
        let (pushes, errors) = rig.drain();
        assert!(pushes.is_empty() && errors.is_empty());
        assert_eq!(rig.script.evals.load(Ordering::SeqCst), 2, "it did look");
        assert_eq!(rig.counter("stream.unchanged"), 1);

        // Re-armed on the new stamp: the next sweep skips.
        rig.hub.sweep();
        assert_eq!(rig.script.evals.load(Ordering::SeqCst), 2);
        assert_eq!(rig.counter("stream.skipped"), 1);
    }

    #[test]
    fn an_unchanged_stamp_skips_without_evaluating() {
        let rig = rig(8);
        rig.script.set_stamp(0, 5);
        rig.script.set_answer(0, "v", &[10]);
        rig.subscribe("v", Some("RETRIEVE HIGHLIGHTS"));
        // Even a changed answer is invisible until the stamp moves: the
        // stamp is the only thing the sweep trusts.
        rig.script.set_answer(0, "v", &[10, 20]);
        rig.hub.sweep();
        rig.hub.sweep();
        assert_eq!(rig.script.evals.load(Ordering::SeqCst), 1);
        assert_eq!(rig.counter("stream.skipped"), 2);
        assert!(rig.drain().0.is_empty());
    }

    #[test]
    fn an_outage_is_reported_once_then_the_stream_resumes() {
        let rig = rig(8);
        rig.script.set_stamp(0, 1);
        rig.script.set_stamp(1, 1);
        rig.script.set_answer(0, "a", &[10]);
        rig.script.set_answer(1, "b", &[50]);
        rig.subscribe("*", Some("RETRIEVE HIGHLIGHTS"));

        rig.script.set_down(1);
        rig.hub.sweep();
        rig.hub.sweep();
        rig.hub.sweep();
        let (pushes, errors) = rig.drain();
        assert!(pushes.is_empty());
        assert_eq!(errors.len(), 1, "one typed frame per outage, not per sweep");
        assert_eq!(
            error_kind(&errors[0]),
            Some(ErrorKind::ShardUnavailable.as_str())
        );
        assert_eq!(errors[0].get("id").and_then(Value::as_u64), Some(SUB));
        assert_eq!(rig.counter("stream.shard_down"), 1);

        // The scope returns under a fresh stamp with one more segment.
        rig.script.set_answer(1, "b", &[50, 60]);
        rig.script.set_stamp(1, 9);
        rig.hub.sweep();
        let (pushes, errors) = rig.drain();
        assert!(errors.is_empty());
        assert_eq!(pushes.len(), 1);
        assert_eq!(pushes[0].get("video").and_then(Value::as_str), Some("b"));
        assert_eq!(pushes[0].get("total").and_then(Value::as_u64), Some(2));
        assert_eq!(rig.counter("stream.shard_recovered"), 1);

        // A second outage is a new report.
        rig.script.set_down(1);
        rig.hub.sweep();
        assert_eq!(rig.drain().1.len(), 1);
    }

    #[test]
    fn a_scope_that_returns_on_its_old_stamp_recovers_without_evaluating() {
        let rig = rig(8);
        rig.script.set_stamp(0, 3);
        rig.script.set_answer(0, "v", &[10]);
        rig.subscribe("v", Some("RETRIEVE HIGHLIGHTS"));
        rig.script.set_down(0);
        rig.hub.sweep();
        assert_eq!(rig.drain().1.len(), 1);
        // The very stamp the answer was computed against is back: equal
        // stamps prove nothing changed during the outage.
        rig.script.set_stamp(0, 3);
        rig.hub.sweep();
        assert_eq!(rig.script.evals.load(Ordering::SeqCst), 1);
        assert_eq!(rig.counter("stream.shard_recovered"), 1);
        assert_eq!(rig.counter("stream.skipped"), 1);
    }

    #[test]
    fn a_bare_watcher_gets_one_stamp_frame_per_move_and_no_evaluation() {
        let rig = rig(8);
        rig.script.set_stamp(0, 4);
        let reply = rig.subscribe("v", None);
        let result = reply.get("result").expect("result");
        assert_eq!(result.get("epoch").and_then(Value::as_u64), Some(1));
        assert_eq!(result.get("data_version").and_then(Value::as_u64), Some(4));

        rig.hub.sweep();
        assert!(rig.drain().0.is_empty(), "no move, no frame");
        rig.script.set_stamp(0, 5);
        rig.hub.sweep();
        let (pushes, _) = rig.drain();
        assert_eq!(pushes.len(), 1);
        assert_eq!(pushes[0].get("kind").and_then(Value::as_str), Some("stamp"));
        assert_eq!(pushes[0].get("epoch").and_then(Value::as_u64), Some(1));
        assert_eq!(
            pushes[0].get("data_version").and_then(Value::as_u64),
            Some(5)
        );
        assert_eq!(rig.script.evals.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_subscriber_over_the_cap_is_told_and_torn_down() {
        let rig = rig(1);
        rig.script.set_stamp(0, 1);
        rig.script.set_answer(0, "v", &[10]);
        rig.subscribe("v", Some("RETRIEVE HIGHLIGHTS"));

        // Two deltas with nothing flushing in between: the first fits
        // under the cap of 1, the second overflows.
        for (seq, starts) in [(2, &[10, 20][..]), (3, &[10, 20, 30][..])] {
            rig.script.set_answer(0, "v", starts);
            rig.script.set_stamp(0, seq);
            rig.hub.sweep();
        }
        let ops = rig.ctl.take_ops();
        assert_eq!(ops.len(), 3, "push, typed error, close");
        assert!(matches!(ops[0], Op::Push { conn: CONN, .. }));
        let Op::Send { conn: CONN, frame } = &ops[1] else {
            panic!("overflow must enqueue the typed error, not a push");
        };
        let frame = decoded(frame);
        assert_eq!(error_kind(&frame), Some(ErrorKind::SlowConsumer.as_str()));
        assert_eq!(frame.get("id").and_then(Value::as_u64), Some(SUB));
        assert!(
            matches!(ops[2], Op::Close { conn: CONN }),
            "the condemned connection is handed to the reactor to drop"
        );
        assert_eq!(rig.counter("stream.slow_consumer_disconnects"), 1);
        assert_eq!(
            rig.registry.snapshot().gauge("stream.active", &[]),
            0,
            "its standing queries are forgotten"
        );
    }

    #[test]
    fn pushes_under_the_cap_flow_and_count_pending() {
        let rig = rig(8);
        let pending = Arc::new(AtomicUsize::new(0));
        for n in 0..3u64 {
            let frame = json!({"n": (n as f64)});
            assert!(rig.hub.push_or_disconnect(CONN, &pending, 9, frame));
        }
        assert_eq!(pending.load(Ordering::SeqCst), 3);
        let ops = rig.ctl.take_ops();
        assert_eq!(ops.len(), 3);
        for op in ops {
            match op {
                Op::Push { pending, .. } => {
                    // What the reactor does once the bytes hit the wire.
                    pending.fetch_sub(1, Ordering::AcqRel);
                }
                _ => panic!("only pushes were enqueued"),
            }
        }
        assert_eq!(pending.load(Ordering::SeqCst), 0);
    }
}
