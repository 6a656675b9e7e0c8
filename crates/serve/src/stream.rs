//! cobra-stream: standing `SUBSCRIBE` queries over commit stamps.
//!
//! A subscriber registers a plain `RETRIEVE` statement once and then
//! receives *push frames* whenever a catalog write changes its answer.
//! There is one [`Hub`] type; what differs between a server and the
//! router is only where stamps and answers come from, which the hub
//! reaches through a [`Source`]. A *scope* is the unit a [`Stamp`]
//! (DESIGN.md §6f) is taken of: locally a video (`"*"` being the whole
//! catalog) together with the statement, at the router a shard together
//! with the video and the statement. Either way a statement's stamp is
//! the guard of the event rows its stages read — the one its
//! result-cache entry is stored under; over `"*"` the largest over the
//! videos — so an append of other kinds and drivers leaves it where it
//! was.
//!
//! One notifier thread per hub waits on the source, then sweeps every
//! standing query: a scope whose stamp equals the one the query was
//! last evaluated against is skipped without evaluation
//! (`stream.skipped`), a write outside what the statement reads
//! included; a moved stamp re-evaluates, and only a changed *answer* is
//! pushed — subscribers see deltas, not heartbeats (`stream.unchanged`
//! counts the silent re-arms, one pass over the old and new rows). The
//! stamp stored is the one read *before* evaluating, so a write racing
//! the evaluation leaves it stale and the next sweep looks again. A
//! scope whose stamp is unknown, or whose evaluation cannot reach it,
//! is reported to the subscriber once per outage as a typed
//! `shard_unavailable` frame; the subscription stays armed and resumes
//! when the stamp is known again (a reboot shows up as a fresh epoch,
//! which is just another mismatch).
//!
//! A `subscribe` without a `text` registers a *bare watcher*: no
//! statement, no evaluation, just one `{kind: "stamp", epoch,
//! data_version}` push per stamp move. That is how a router follows its
//! shards — one long-lived watcher connection per shard instead of a
//! poll loop. A server's `"*"` watcher frame also carries `touched`
//! ([`Touched`], `protocol::touched_to_json`): what the commits since the
//! frame before touched, per video the whole layer (with the kinds it
//! then has unnamed rows of) or the (kind, driver) pairs appended to,
//! from which the router keeps its mirror of the shard's guards. The
//! `subscribed` answer of such a watcher starts that mirror: its
//! `unnamed` names each video's kinds with unnamed rows, read with the
//! stamp it carries.
//!
//! Push frames are encoded here, by the notifier thread, and queued on
//! the reactor alongside ordinary responses, marked `"push": true` and
//! carrying the subscription id, so the two interleave on one socket
//! without tearing frames. A subscriber that falls more than a bounded
//! number of frames behind is disconnected with a typed `slow_consumer`
//! error rather than buffered for.
//!
//! Every hub lock recovers from poisoning (`cobra_faults::Recover`): a
//! panicking evaluation must not take every other subscriber's stream
//! down with it.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cobra_faults::Recover;
use cobra_obs::Registry;
use f1_cobra::guard::{Touched, Unnamed};
use f1_cobra::{Query, QueryOutput, RetrievedSegment, Stamp, Vdbms};
use f1_monet::ExecBudget;
use serde_json::{json, Value};

use crate::protocol::{
    encode_reply, err_response, ok_response, touched_to_json, unnamed_to_json, ErrorKind,
};
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

    /// The scopes a standing query of `text` over `video` reads (fixed
    /// for the life of the subscription; `None` for a bare watcher).
    fn scopes(&self, video: &str, text: Option<&str>) -> Vec<Self::Scope>;

    /// `scope`'s current stamp; `Err` says why it is unknown. Unknown
    /// is never treated as unchanged.
    fn stamp(&self, scope: &Self::Scope) -> Result<Stamp, String>;

    /// What the commits after the stamp `since` touched in a bare
    /// watcher's `scope`, and the stamp that report reaches, read
    /// together; `None` where the source keeps no such record.
    fn touched(&self, _scope: &Self::Scope, _since: Stamp) -> Option<(Stamp, Touched)> {
        None
    }

    /// Per video, the kinds with unnamed rows a bare watcher's `scope`
    /// knows, and the stamp they hold at, read together; `None` where
    /// the source keeps no such record.
    fn unnamed(&self, _scope: &Self::Scope) -> Option<(Stamp, Vec<(String, Unnamed)>)> {
        None
    }

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
/// is the whole catalog) with the statement read of it, stamps come
/// straight from the catalog, and the wakeup is its condvar change feed.
/// A statement's stamp is its result-cache guard ([`Vdbms::guard`]; over
/// `"*"` the largest over the catalog's videos), so a write outside what
/// it reads leaves it where it was. A bare watcher's is the video's
/// stamp, or over `"*"` the catalog's, whose frames also report what
/// the commits since the frame before touched, and whose `subscribed`
/// answer names the kinds with unnamed rows.
impl Source for Vdbms {
    type Scope = (String, Option<Query>);

    fn scopes(&self, video: &str, text: Option<&str>) -> Vec<Self::Scope> {
        let query = text.and_then(|text| f1_cobra::parse_query(text).ok());
        vec![(video.to_string(), query)]
    }

    fn stamp(&self, (video, query): &Self::Scope) -> Result<Stamp, String> {
        Ok(match query {
            Some(q) => self.guard(video, q),
            None if video == "*" => self.catalog.stamp(),
            None => self.catalog.video_stamp(video),
        })
    }

    fn touched(&self, (video, query): &Self::Scope, since: Stamp) -> Option<(Stamp, Touched)> {
        let whole = video == "*" && query.is_none() && since.epoch == self.catalog.epoch();
        whole.then(|| self.catalog.touched_since(since.seq))
    }

    fn unnamed(&self, (video, query): &Self::Scope) -> Option<(Stamp, Vec<(String, Unnamed)>)> {
        let whole = video == "*" && query.is_none();
        whole.then(|| self.catalog.unnamed_kinds())
    }

    fn eval(&self, _scope: &Self::Scope, video: &str, text: &str) -> Result<Vec<Group>, String> {
        let output = self.run_with_budget(video, text, &ExecBudget::unlimited());
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

/// What a fresh answer `new` adds to the delivered `old`, in `new`'s
/// order, and how many of `old`'s rows it no longer holds: one pass
/// over each, by value (a row held twice counts twice).
fn diff(old: &[RetrievedSegment], new: &[RetrievedSegment]) -> (Vec<RetrievedSegment>, usize) {
    // Each old row: how often it was delivered, and whether `new` has it.
    let mut kept: HashMap<&RetrievedSegment, (usize, bool)> = HashMap::with_capacity(old.len());
    for segment in old {
        kept.entry(segment).or_default().0 += 1;
    }
    let mut added = Vec::new();
    for segment in new {
        match kept.get_mut(segment) {
            Some((_, seen)) => *seen = true,
            None => added.push(segment.clone()),
        }
    }
    let removed = kept
        .values()
        .filter(|(_, seen)| !seen)
        .map(|(n, _)| n)
        .sum();
    (added, removed)
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

/// A bare watcher's push: its scope's stamp moved to `stamp`, and, where
/// the source reports it, what the commits since the frame before
/// touched (`"touched"`, [`crate::protocol::touched_to_json`]).
fn stamp_moved(sub_id: u64, stamp: Stamp, touched: Option<Touched>) -> Value {
    let mut moved = json!({
        "kind": "stamp",
        "subscription": (sub_id as f64),
        "epoch": (stamp.epoch as f64),
        "data_version": (stamp.seq as f64),
    });
    if let (Value::Object(map), Some(touched)) = (&mut moved, touched) {
        map.insert("touched".into(), touched_to_json(&touched));
    }
    moved
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
        let mut unnamed = None;
        for scope in self.source.scopes(video, text) {
            let stamp = match self.source.unnamed(&scope) {
                Some((stamp, kinds)) => {
                    unnamed = Some(kinds);
                    Some(stamp)
                }
                None => self.source.stamp(&scope).ok(),
            };
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
            let mut inner = self.inner.lock().recover();
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
        let mut subscribed = json!({
            "kind": "subscribed",
            "subscription": (id as f64),
            "videos": (initial),
            "epoch": (latest.epoch as f64),
            "data_version": (latest.seq as f64),
        });
        if let (Value::Object(map), Some(unnamed)) = (&mut subscribed, unnamed) {
            map.insert("unnamed".into(), unnamed_to_json(&unnamed));
        }
        ok_response(id, subscribed)
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
        let removed = self
            .inner
            .lock()
            .recover()
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
        if let Some(entry) = self.inner.lock().recover().remove(&conn) {
            self.active(-(entry.subs.len() as i64));
        }
    }

    /// Stops the notifier and forgets every standing query. Called
    /// once at shutdown.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let handle = self.notifier.lock().recover().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
        let mut inner = self.inner.lock().recover();
        let n: usize = inner.values().map(|e| e.subs.len()).sum();
        self.active(-(n as i64));
        inner.clear();
    }

    /// Spawns the hub's notifier thread on first use.
    fn ensure_notifier(self: &Arc<Self>) {
        let mut slot = self.notifier.lock().recover();
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
        let mut inner = self.inner.lock().recover();
        let mut doomed: Vec<ConnId> = Vec::new();
        'conns: for (&conn, entry) in inner.iter_mut() {
            if self.closed.load(Ordering::SeqCst) {
                return;
            }
            for (&sub_id, standing) in entry.subs.iter_mut() {
                for (scope, armed) in standing.scopes.iter_mut() {
                    let mut stamp = match self.source.stamp(scope) {
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
                            None => {
                                let since = armed.stamp;
                                let report = since.and_then(|at| self.source.touched(scope, at));
                                let touched = report.map(|(at, touched)| {
                                    stamp = at;
                                    touched
                                });
                                vec![push_frame(sub_id, stamp_moved(sub_id, stamp, touched))]
                            }
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
            let (added, removed) = diff(old.map_or(&[][..], Vec::as_slice), &segments);
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
            self.stamps
                .lock()
                .recover()
                .insert(scope, Ok(Stamp { epoch: 1, seq }));
        }

        fn set_down(&self, scope: u32) {
            self.stamps
                .lock()
                .recover()
                .insert(scope, Err(format!("scope {scope} is down")));
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
            self.answers
                .lock()
                .recover()
                .insert(scope, vec![(video.to_string(), segments)]);
        }
    }

    impl Source for Script {
        type Scope = u32;

        fn scopes(&self, video: &str, _text: Option<&str>) -> Vec<u32> {
            if video == "*" {
                vec![0, 1]
            } else {
                vec![0]
            }
        }

        fn stamp(&self, scope: &u32) -> Result<Stamp, String> {
            self.stamps
                .lock()
                .recover()
                .get(scope)
                .cloned()
                .unwrap_or(Ok(Stamp { epoch: 1, seq: 0 }))
        }

        fn eval(&self, scope: &u32, _video: &str, _text: &str) -> Result<Vec<Group>, String> {
            self.evals.fetch_add(1, Ordering::SeqCst);
            Ok(self
                .answers
                .lock()
                .recover()
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
            *self.hub.notifier.lock().recover() = Some(std::thread::spawn(|| {}));
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

    /// The delta of a re-evaluation: rows added in the new answer's
    /// order, rows removed counted, rows kept in neither — a row held
    /// twice counting twice, as the pairwise comparison it replaced did.
    #[test]
    fn a_delta_lists_the_rows_added_and_counts_the_rows_removed() {
        let row = |start: usize, driver: Option<&str>| RetrievedSegment {
            start,
            end: start + 5,
            label: "pit_stop".into(),
            driver: driver.map(Into::into),
        };
        let old = [
            row(10, None),
            row(20, Some("A")),
            row(30, None),
            row(30, None),
            row(40, Some("B")),
        ];
        let new = [
            row(20, Some("A")),
            row(50, None),
            row(10, None),
            row(20, Some("B")),
            row(50, None),
        ];
        let (added, removed) = diff(&old, &new);
        assert_eq!(added, [row(50, None), row(20, Some("B")), row(50, None)]);
        assert_eq!(removed, 3, "both copies of 30, and 40");
        // The pairwise definition, for the record.
        let pairwise: Vec<_> = new.iter().filter(|s| !old.contains(s)).cloned().collect();
        assert_eq!(added, pairwise);
        assert_eq!(removed, old.iter().filter(|s| !new.contains(s)).count());

        assert_eq!(diff(&old, &old), (Vec::new(), 0), "all kept");
        assert_eq!(diff(&[], &new[..2]), (new[..2].to_vec(), 0));
        assert_eq!(diff(&old, &[]), (Vec::new(), old.len()));
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
